//! Property-based tests over the core data structures' invariants.

use fetch_prestaging::cache::{ReqClass, ReqId, SetAssocCache};
use fetch_prestaging::core::{FetchQueue, PbKind, PbLookup, PreBuffer};
use proptest::prelude::*;

proptest! {
    /// A set-associative cache never exceeds its capacity, and a line just
    /// filled is always present until something maps over it.
    #[test]
    fn cache_occupancy_bounded(ops in prop::collection::vec((0u64..64, any::<bool>()), 1..400)) {
        let mut c = SetAssocCache::new(1 << 10, 64, 2);
        let lines = (1usize << 10) / 64;
        for (line, is_fill) in ops {
            let addr = line * 64;
            if is_fill {
                c.fill(addr);
                prop_assert!(c.contains(addr));
            } else {
                let hit = c.lookup(addr);
                prop_assert_eq!(hit, c.contains(addr));
            }
            prop_assert!(c.occupancy() <= lines);
        }
    }

    /// Fill-then-lookup of `assoc` distinct lines in one set always hits:
    /// true LRU never evicts within a working set that fits.  Associativity
    /// is a power of two — the array rejects geometries whose mask-indexed
    /// set count would alias (see `array.rs`).
    #[test]
    fn lru_retains_working_set(base in 0u64..1000, assoc_pow in 0u32..4) {
        let assoc = 1usize << assoc_pow;
        let line = 64u64;
        let sets = 8u64;
        let cap = (sets * assoc as u64 * line) as usize;
        let mut c = SetAssocCache::new(cap, 64, assoc);
        // `assoc` lines mapping to the same set (stride = sets*line).
        let addrs: Vec<u64> = (0..assoc as u64).map(|i| (base + i * sets) * line).collect();
        for &a in &addrs { c.fill(a); }
        for _ in 0..3 {
            for &a in &addrs {
                prop_assert!(c.lookup(a), "working set evicted");
            }
        }
    }

    /// The prestage buffer never reports more valid entries than capacity,
    /// `consume` never underflows, and a pinned entry survives arbitrary
    /// allocation pressure.
    #[test]
    fn prestage_buffer_invariants(ops in prop::collection::vec((0u64..32, 0u8..3), 1..300)) {
        let mut pb = PreBuffer::new(PbKind::Clgp, 4);
        let pinned = 0xDEAD_0000u64;
        assert!(pb.allocate(pinned, ReqId(999)));
        pb.bump_consumers(pinned); // consumers = 2: survives one consume
        pb.complete(ReqId(999));
        let mut req = 0u64;
        for (line, op) in ops {
            let addr = 0x4000 + line * 64;
            match op {
                0 => {
                    if pb.lookup(addr) == PbLookup::Miss && pb.can_allocate() {
                        req += 1;
                        pb.allocate(addr, ReqId(req));
                    }
                }
                1 => { pb.complete(ReqId(req)); }
                _ => { pb.consume(addr); }
            }
            prop_assert!(pb.occupancy() <= pb.capacity());
            prop_assert!(pb.is_valid(pinned), "pinned line was replaced");
        }
    }

    /// Queue accounting: lines pushed as blocks always pop in order and the
    /// block cap is respected.
    #[test]
    fn fetch_queue_fifo(blocks in prop::collection::vec((0u64..1u64<<20, 1u32..64), 1..20)) {
        let mut q = FetchQueue::new(64, 8);
        let mut accepted = Vec::new();
        for (i, &(start, len)) in blocks.iter().enumerate() {
            let start = start * 4;
            if q.push_block(i as u64, start, len) {
                accepted.push((i as u64, start, len));
            }
            prop_assert!(q.len_blocks() <= 8);
        }
        // Pop everything; per-block instruction counts must be preserved.
        let mut got: std::collections::HashMap<u64, u32> = Default::default();
        let mut last_seq = 0u64;
        while let Some(slot) = q.pop_head_line() {
            prop_assert!(slot.block_seq >= last_seq, "out of order");
            last_seq = slot.block_seq;
            *got.entry(slot.block_seq).or_default() += slot.n_insts;
        }
        for (seq, _, len) in accepted {
            prop_assert_eq!(got.get(&seq).copied().unwrap_or(0), len);
        }
    }
}

/// Non-proptest sanity: request ids from the bus are unique and completions
/// preserve the line address.
#[test]
fn bus_ids_unique_lines_preserved() {
    use fetch_prestaging::cache::{L2Config, L2System};
    use fetch_prestaging::cacti::TechNode;
    let mut l2 = L2System::new(L2Config::for_node(TechNode::T090));
    let mut seen = std::collections::HashSet::new();
    let mut expect = std::collections::HashMap::new();
    for i in 0..50u64 {
        let addr = 0x1000 + i * 128;
        let id = l2.submit(addr, ReqClass::Prefetch, 0);
        assert!(seen.insert(id), "duplicate request id");
        expect.insert(id, addr & !63);
    }
    let mut done = 0;
    for now in 0..10_000 {
        for c in l2.tick(now) {
            assert_eq!(expect[&c.id], c.line);
            done += 1;
        }
        if done == 50 {
            return;
        }
    }
    panic!("only {done}/50 completions");
}
