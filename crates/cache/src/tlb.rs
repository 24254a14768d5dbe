//! Instruction TLB: a set-associative translation cache over page numbers.
//!
//! The fetch path treats translation as a presence/latency question, exactly
//! like the tag arrays in [`crate::array`]: a hit costs nothing extra (the
//! lookup overlaps the I-cache tag access), a miss charges a fixed
//! `miss_cycles` page-walk latency and installs the translation.  The model
//! is deterministic — state is a pure function of the access sequence — and
//! checkpointable: the TLB keeps one saved copy of its contents, taken at
//! each divergence by [`ITlb::checkpoint`] and reinstated on the redirect
//! by [`ITlb::restore`] (wrong-path fetches must not leave translations
//! behind, or replay from a checkpoint would diverge from the live run).
//!
//! The directory is a [`SetAssocCache`] whose lines are pages.  Sizing
//! follows the other SRAMs: `entries / assoc` sets, mask-indexed, so both
//! must divide into a power-of-two set count ([`ITlbConfig::validate`]
//! refuses anything else by name).

use crate::array::SetAssocCache;
use prestage_isa::Addr;

/// Largest i-TLB [`ITlbConfig::validate`] accepts, in entries.  The
/// biggest second-level TLBs on shipping cores hold 2-4K entries, and the
/// TLB copies every entry's tag, state bits and rank into its saved copy
/// at every divergence, so a larger TLB models no machine and only slows
/// the run.
const MAX_ITLB_ENTRIES: usize = 4096;

/// Largest associativity [`ITlbConfig::validate`] accepts: the limit of
/// the `u8` LRU ranks.
const MAX_ITLB_ASSOC: usize = 255;

/// Longest page walk [`ITlbConfig::validate`] accepts, in cycles: one
/// 200-cycle memory access plus the L2.  The engine calls a cell wedged
/// once it spends 120 cycles per instruction (below 0.0083 IPC).  At this
/// cap even a 1-entry i-TLB over line-sized pages, which walks on every
/// line fetched, keeps every SPECint2000 cell above 0.015 IPC; at 500
/// cycles the slowest cell fell to 0.0084.
const MAX_ITLB_MISS_CYCLES: u64 = 250;

/// Configuration for an instruction TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ITlbConfig {
    /// Total translation entries (all ways).
    pub entries: usize,
    /// Associativity; `entries / assoc` sets, mask-indexed.
    pub assoc: usize,
    /// Page size in bytes; must be a power of two no smaller than a cache
    /// line (a line never straddles a page).
    pub page_bytes: u64,
    /// Fixed page-walk latency charged on a miss, in cycles.
    pub miss_cycles: u64,
}

impl ITlbConfig {
    /// A small, realistic default: 64 entries, 4-way, 4 KiB pages, 30-cycle
    /// walks.
    pub fn default_config() -> ITlbConfig {
        ITlbConfig {
            entries: 64,
            assoc: 4,
            page_bytes: 4096,
            miss_cycles: 30,
        }
    }

    /// Validate sizing; errors name the offending field and value.
    pub fn validate(&self, line_bytes: usize) -> Result<(), String> {
        if self.entries == 0 || self.assoc == 0 {
            return Err(format!(
                "itlb entries ({}) and assoc ({}) must both be at least 1",
                self.entries, self.assoc
            ));
        }
        if self.assoc > MAX_ITLB_ASSOC {
            return Err(format!(
                "itlb assoc ({}) exceeds {MAX_ITLB_ASSOC}, the widest set the LRU \
                 state can rank",
                self.assoc
            ));
        }
        if self.entries > MAX_ITLB_ENTRIES {
            return Err(format!(
                "itlb entries ({}) exceeds {MAX_ITLB_ENTRIES}, the largest i-TLB modeled",
                self.entries
            ));
        }
        if self.assoc > self.entries {
            return Err(format!(
                "itlb assoc ({}) exceeds entries ({})",
                self.assoc, self.entries
            ));
        }
        let sets = self.entries / self.assoc;
        if !sets.is_power_of_two() || sets * self.assoc != self.entries {
            return Err(format!(
                "itlb entries ({}) over assoc ({}) yields {sets} sets, which is not a \
                 power of two — TLB sets are mask-indexed and would silently alias",
                self.entries, self.assoc
            ));
        }
        if !self.page_bytes.is_power_of_two() {
            return Err(format!(
                "itlb page_bytes must be a power of two, got {}",
                self.page_bytes
            ));
        }
        if (self.page_bytes as usize) < line_bytes {
            return Err(format!(
                "itlb page_bytes ({}) below the cache line size ({line_bytes}) — a line \
                 would straddle pages",
                self.page_bytes
            ));
        }
        if self.miss_cycles == 0 {
            return Err("itlb miss_cycles must be at least 1 (a free walk is `itlb: null`)".into());
        }
        if self.miss_cycles > MAX_ITLB_MISS_CYCLES {
            return Err(format!(
                "itlb miss_cycles ({}) exceeds {MAX_ITLB_MISS_CYCLES}, the longest page \
                 walk modeled",
                self.miss_cycles
            ));
        }
        Ok(())
    }

    /// Modeled storage: one virtual-page tag plus a physical frame number
    /// per entry (8 bytes each on the 64-bit address space the ISA uses).
    pub fn state_bytes(&self) -> usize {
        self.entries * 16
    }
}

/// Hit/miss counters for the i-TLB (advisory; not part of any artifact).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    pub hits: u64,
    pub misses: u64,
}

/// The instruction TLB proper.
#[derive(Debug, Clone)]
pub struct ITlb {
    /// Resident translations: one "line" per page.
    pages: SetAssocCache,
    /// `pages` as of the last [`checkpoint`](Self::checkpoint).
    saved: SetAssocCache,
    miss_cycles: u64,
    stats: TlbStats,
}

impl ITlb {
    /// Build from a validated config.
    ///
    /// # Panics
    /// Panics when `cfg` fails [`ITlbConfig::validate`]-class sizing checks
    /// (the configuration layer validates first; these asserts defend the
    /// mask-indexing invariant).
    pub fn new(cfg: &ITlbConfig) -> ITlb {
        let sets = cfg.entries / cfg.assoc.max(1);
        assert!(
            sets * cfg.assoc == cfg.entries,
            "itlb entries ({}) do not divide into sets of assoc ({})",
            cfg.entries,
            cfg.assoc
        );
        let pages = SetAssocCache::with_sets(sets, cfg.page_bytes as usize, cfg.assoc);
        ITlb {
            saved: pages.clone(),
            pages,
            miss_cycles: cfg.miss_cycles,
            stats: TlbStats::default(),
        }
    }

    /// Translate the page containing `addr`.  Returns the cycle at which
    /// the translation is available: `now` on a hit, `now + miss_cycles` on
    /// a miss (the walk also installs the translation, evicting LRU).
    pub fn translate(&mut self, addr: Addr, now: u64) -> u64 {
        if self.pages.lookup(addr) {
            self.stats.hits += 1;
            return now;
        }
        self.stats.misses += 1;
        self.pages.fill(addr);
        now.saturating_add(self.miss_cycles)
    }

    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Save the resident pages and replacement state (not statistics —
    /// counters keep counting across redirects like every other array)
    /// over the previous saved copy: one is taken per divergence.
    pub fn checkpoint(&mut self) {
        self.saved.copy_from(&self.pages);
    }

    /// Reinstate the last [`checkpoint`](Self::checkpoint) (the empty TLB
    /// before the first one).
    pub fn restore(&mut self) {
        self.pages.copy_from(&self.saved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ITlb {
        ITlb::new(&ITlbConfig {
            entries: 8,
            assoc: 2,
            page_bytes: 4096,
            miss_cycles: 25,
        })
    }

    /// Whether `addr`'s page is resident, read without touching LRU or stats.
    fn resident(t: &ITlb, addr: Addr) -> bool {
        t.pages.contains(addr)
    }

    #[test]
    fn miss_then_hit_within_page() {
        let mut t = tiny();
        assert_eq!(t.translate(0x1000, 100), 125); // cold miss
        assert_eq!(t.translate(0x1fff, 130), 130); // same page: hit
        assert_eq!(t.translate(0x2000, 130), 155); // next page: miss
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_within_set() {
        // 4 sets, 2 ways; pages 0, 4, 8 share set 0.
        let mut t = tiny();
        t.translate(0x0000, 0);
        t.translate(0x4000, 0);
        t.translate(0x0000, 0); // refresh page 0
        t.translate(0x8000, 0); // evicts page 4
        assert!(resident(&t, 0x0000));
        assert!(!resident(&t, 0x4000));
        assert!(resident(&t, 0x8000));
    }

    #[test]
    fn checkpoint_restore_round_trips() {
        let warm = [(0x1000u64, 0u64), (0x2000, 5), (0x1000, 9), (0x9000, 12)];
        let mut t = tiny();
        let mut twin = tiny();
        for (addr, at) in warm {
            t.translate(addr, at);
            twin.translate(addr, at);
        }
        t.checkpoint();
        // Wrong path: evict the whole working set, then restore.
        for page in 0x20..0x30u64 {
            t.translate(page << 12, 15);
        }
        assert!(!resident(&t, 0x1000), "the wrong path evicted nothing");
        t.restore();
        // Identical contents to the twin that never left the path…
        for page in 0..0x30u64 {
            assert_eq!(
                resident(&t, page << 12),
                resident(&twin, page << 12),
                "page {page}"
            );
        }
        // …and identical future behavior (replacement state restored too).
        for (addr, at) in [(0x3000u64, 20u64), (0x1000, 21), (0xb000, 22), (0x7000, 23)] {
            assert_eq!(
                t.translate(addr, at),
                twin.translate(addr, at),
                "addr {addr:#x}"
            );
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let seq: Vec<(u64, u64)> = (0..200).map(|i| (((i * 37) % 64) << 12, i)).collect();
        let mut a = tiny();
        let mut b = tiny();
        for &(addr, at) in &seq {
            assert_eq!(a.translate(addr, at), b.translate(addr, at));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn validate_names_offending_fields() {
        let ok = ITlbConfig::default_config();
        assert!(ok.validate(64).is_ok());
        let bad_sets = ITlbConfig {
            entries: 48,
            assoc: 4,
            ..ok
        };
        assert!(bad_sets.validate(64).unwrap_err().contains("entries (48)"));
        let bad_page = ITlbConfig {
            page_bytes: 3000,
            ..ok
        };
        assert!(bad_page.validate(64).unwrap_err().contains("page_bytes"));
        let small_page = ITlbConfig {
            page_bytes: 32,
            ..ok
        };
        assert!(small_page.validate(64).unwrap_err().contains("line"));
        let free_walk = ITlbConfig {
            miss_cycles: 0,
            ..ok
        };
        assert!(free_walk.validate(64).unwrap_err().contains("miss_cycles"));
        let zero = ITlbConfig { entries: 0, ..ok };
        assert!(zero.validate(64).unwrap_err().contains("entries"));
    }

    #[test]
    fn state_bytes_accounting() {
        let cfg = ITlbConfig::default_config();
        assert_eq!(cfg.state_bytes(), 64 * 16);
    }
}
