//! The shared L2 system: unified L2 cache + the one-request-per-cycle L2
//! bus with priority arbitration + main memory.
//!
//! §4.1 of the paper: *"We have modeled a bus to the L2 cache that can only
//! serve one request per cycle, so a bus arbitration policy is needed. The
//! priority policy is the following: the most priority requests are those
//! corresponding to the L1 data cache; then, requests from the L1 I-cache
//! are served; finally, requests from the prefetching mechanism are attended
//! only if no previous request that use the bus is done in the same cycle."*
//!
//! [`L2System`] implements exactly that: requests queue per priority class,
//! one is granted per cycle, the granted request looks up the unified L2
//! (1 MB, 2-way, 128 B lines per Table 2) and completes after the L2 latency
//! (Table 3) or, on an L2 miss, after the additional 200-cycle memory
//! latency.  On a miss the line is installed in the L2 directory at grant
//! time — an MSHR-merge approximation that lets later requests for the same
//! line hit without modelling per-line MSHR lists.

use crate::array::SetAssocCache;
use prestage_cacti::{latency_cycles, CacheGeometry, TechNode};
use prestage_isa::{align_line, Addr};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Requestor classes, in strictly decreasing bus priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReqClass {
    /// L1 data-cache demand misses and writebacks.
    DCache = 0,
    /// L1 instruction-cache demand misses.
    IFetch = 1,
    /// Instruction prefetches (FDP prefetch queue / CLGP prestage fills).
    Prefetch = 2,
}

/// Handle for an outstanding request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub u64);

/// Where a completed request's data came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSource {
    /// Unified L2 hit.
    L2,
    /// L2 miss serviced by main memory.
    Memory,
}

/// A finished request, handed back by [`L2System::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    pub id: ReqId,
    /// 64-byte-aligned requested line address.
    pub line: Addr,
    pub class: ReqClass,
    pub source: MemSource,
    /// Cycle at which the data is available to the requestor.
    pub ready_at: u64,
}

/// Static configuration of the L2 system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct L2Config {
    pub capacity: usize,
    pub line: usize,
    pub assoc: usize,
    /// L2 access latency in cycles (Table 3: 17 @ 0.09 µm, 24 @ 0.045 µm).
    pub l2_latency: u32,
    /// Main-memory latency in cycles (Table 2: 200).
    pub mem_latency: u32,
    /// Request unit transferred to the L1s, bytes (Table 2: 64 B/cycle bus).
    pub transfer: usize,
}

impl L2Config {
    /// The paper's L2 (Table 2) with the latency Table 3 assigns at `node`.
    pub fn for_node(node: TechNode) -> Self {
        let geom = CacheGeometry::new(1 << 20, 128, 2, 1);
        L2Config {
            capacity: 1 << 20,
            line: 128,
            assoc: 2,
            l2_latency: latency_cycles(&geom, node),
            mem_latency: 200,
            transfer: 64,
        }
    }
}

/// Bus/L2/memory statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    pub grants_dcache: u64,
    pub grants_ifetch: u64,
    pub grants_prefetch: u64,
    pub writebacks: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    /// Total cycles requests spent queued waiting for a grant.
    pub wait_cycles: u64,
}

impl BusStats {
    pub fn grants(&self) -> u64 {
        self.grants_dcache + self.grants_ifetch + self.grants_prefetch
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pending {
    /// Cycle from which the request may be granted.
    want: u64,
    class: ReqClass,
    seq: u64,
    id: ReqId,
    line: Addr,
    writeback: bool,
}

// Order for the grant heap: earliest eligible first; among eligible, the
// caller filters by `want <= now`, so priority is (class, seq).
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.class, self.seq).cmp(&(other.class, other.seq))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A granted request waiting for its data, ordered by ready time (ties by
/// request seq).  Carries the full [`Completion`] so the completion phase
/// needs no side lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Inflight(Completion);

impl Ord for Inflight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0.ready_at, self.0.id).cmp(&(other.0.ready_at, other.0.id))
    }
}

impl PartialOrd for Inflight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The unified L2 cache, its bus, and main memory.
#[derive(Debug)]
pub struct L2System {
    cfg: L2Config,
    l2: SetAssocCache,
    /// Requests awaiting a bus grant, by (class, seq).
    queue: BinaryHeap<Reverse<Pending>>,
    /// Smallest `want` in `queue` (`u64::MAX` when empty): no request is
    /// eligible for a grant before this cycle.
    min_want: u64,
    /// Requests granted, waiting for data, by (ready time, seq).
    inflight: BinaryHeap<Reverse<Inflight>>,
    /// Outstanding (queued or in-flight) read requests by line, for dedup.
    /// A flat list — outstanding reads number in the tens at most, and a
    /// cache-line scan beats tree chasing on the per-cycle path.
    by_line: Vec<(Addr, ReqId)>,
    next_seq: u64,
    stats: BusStats,
    /// Grant-phase scratch: requests popped but not yet eligible this
    /// cycle.  Persistent so the per-cycle [`tick_into`](Self::tick_into)
    /// path never allocates.
    deferred: Vec<Pending>,
}

impl L2System {
    pub fn new(cfg: L2Config) -> Self {
        L2System {
            cfg,
            l2: SetAssocCache::new(cfg.capacity, cfg.line, cfg.assoc),
            queue: BinaryHeap::new(),
            min_want: u64::MAX,
            inflight: BinaryHeap::new(),
            by_line: Vec::new(),
            next_seq: 0,
            stats: BusStats::default(),
            deferred: Vec::new(),
        }
    }

    pub fn config(&self) -> &L2Config {
        &self.cfg
    }

    /// Submit a read request for the 64-byte line containing `addr`.
    /// The request becomes eligible for arbitration at cycle `now`.
    pub fn submit(&mut self, addr: Addr, class: ReqClass, now: u64) -> ReqId {
        let line = align_line(addr, self.cfg.transfer as u64);
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = ReqId(seq);
        self.min_want = self.min_want.min(now);
        self.queue.push(Reverse(Pending {
            want: now,
            class,
            seq,
            id,
            line,
            writeback: false,
        }));
        if !self.by_line.iter().any(|&(l, _)| l == line) {
            self.by_line.push((line, id));
        }
        id
    }

    /// Submit a dirty-line writeback (fire and forget: occupies a bus slot
    /// at data-cache priority but produces no completion).
    pub fn submit_writeback(&mut self, addr: Addr, now: u64) {
        let line = align_line(addr, self.cfg.transfer as u64);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.min_want = self.min_want.min(now);
        self.queue.push(Reverse(Pending {
            want: now,
            class: ReqClass::DCache,
            seq,
            id: ReqId(seq),
            line,
            writeback: true,
        }));
    }

    /// If a read for `addr`'s line is already queued or in flight, its id.
    pub fn find_pending(&self, addr: Addr) -> Option<ReqId> {
        let line = align_line(addr, self.cfg.transfer as u64);
        self.by_line
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|&(_, id)| id)
    }

    /// Raise the priority of a queued request (e.g. a prefetch that became a
    /// demand miss).  In-flight requests are unaffected.  Returns true if
    /// the request was found still queued.
    pub fn upgrade(&mut self, id: ReqId, class: ReqClass) -> bool {
        let mut found = false;
        // Re-heapify in the same buffer: `(class, seq)` is a total order,
        // so the grant order does not depend on the heap's layout.
        let mut pending = std::mem::take(&mut self.queue).into_vec();
        for Reverse(p) in &mut pending {
            if p.id == id && class < p.class {
                p.class = class;
                found = true;
            }
        }
        self.queue = BinaryHeap::from(pending);
        found
    }

    /// Advance one cycle: grant at most one queued request (highest
    /// priority, oldest first, among those with `want <= now`), and return
    /// every completion whose data is ready at `now`.
    pub fn tick(&mut self, now: u64) -> Vec<Completion> {
        let mut done = Vec::new();
        self.tick_into(now, &mut done);
        done
    }

    /// Allocation-free [`tick`](Self::tick): completions ready at `now` are
    /// pushed into `out` (cleared first).  The cycle engine holds `out` as a
    /// persistent scratch so the per-cycle path never touches the heap.
    pub fn tick_into(&mut self, now: u64, out: &mut Vec<Completion>) {
        out.clear();
        if self.min_want <= now {
            self.grant(now);
        }

        // Completion phase.
        while let Some(&Reverse(Inflight(c))) = self.inflight.peek() {
            if c.ready_at > now {
                break;
            }
            self.inflight.pop();
            if let Some(i) = self
                .by_line
                .iter()
                .position(|&(l, id)| l == c.line && id == c.id)
            {
                self.by_line.swap_remove(i);
            }
            out.push(c);
        }
    }

    /// Grant phase, run only when some queued request is eligible
    /// (`min_want <= now`): the heap orders by (class, seq), so skim off
    /// requests not yet eligible, grant the best eligible one, and push
    /// the rest back.
    fn grant(&mut self, now: u64) {
        self.deferred.clear();
        let mut granted = None;
        while let Some(Reverse(p)) = self.queue.pop() {
            if p.want <= now {
                granted = Some(p);
                break;
            }
            self.deferred.push(p);
        }
        for d in self.deferred.drain(..) {
            self.queue.push(Reverse(d));
        }
        self.min_want = self
            .queue
            .iter()
            .map(|Reverse(p)| p.want)
            .min()
            .unwrap_or(u64::MAX);
        if let Some(p) = granted {
            self.stats.wait_cycles += now - p.want;
            match p.class {
                ReqClass::DCache => self.stats.grants_dcache += 1,
                ReqClass::IFetch => self.stats.grants_ifetch += 1,
                ReqClass::Prefetch => self.stats.grants_prefetch += 1,
            }
            if p.writeback {
                self.stats.writebacks += 1;
                self.l2.fill(p.line);
                self.l2.set_dirty(p.line);
            } else {
                let hit = self.l2.lookup(p.line);
                let (source, ready_at) = if hit {
                    self.stats.l2_hits += 1;
                    (MemSource::L2, now + self.cfg.l2_latency as u64)
                } else {
                    self.stats.l2_misses += 1;
                    self.l2.fill(p.line);
                    (
                        MemSource::Memory,
                        now + (self.cfg.l2_latency + self.cfg.mem_latency) as u64,
                    )
                };
                self.inflight.push(Reverse(Inflight(Completion {
                    id: p.id,
                    line: p.line,
                    class: p.class,
                    source,
                    ready_at,
                })));
            }
        }
    }

    /// The earliest cycle `>= now` at which [`tick_into`](Self::tick_into)
    /// could change any state: the first cycle a queued request becomes
    /// eligible for a grant, or the first in-flight completion.
    /// `u64::MAX` when nothing is outstanding.
    pub fn next_event(&self, now: u64) -> u64 {
        let ready = self
            .inflight
            .peek()
            .map_or(u64::MAX, |Reverse(Inflight(c))| c.ready_at);
        self.min_want.min(ready).max(now)
    }

    /// Warm the L2 directory with a line (used to pre-load instruction
    /// footprints before timed simulation).
    pub fn warm_fill(&mut self, addr: Addr) {
        self.l2.fill(addr);
    }

    pub fn stats(&self) -> &BusStats {
        &self.stats
    }

    /// Zero the bus counters (end of warm-up); L2 contents are kept.
    pub fn reset_stats(&mut self) {
        self.stats = BusStats::default();
    }

    /// Outstanding request count (queued + in flight).
    pub fn outstanding(&self) -> usize {
        self.queue.len() + self.inflight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> L2System {
        L2System::new(L2Config {
            capacity: 1 << 20,
            line: 128,
            assoc: 2,
            l2_latency: 17,
            mem_latency: 200,
            transfer: 64,
        })
    }

    /// Drive `tick` until the given request completes; returns completion.
    fn run_until(sys: &mut L2System, id: ReqId, from: u64, limit: u64) -> Completion {
        for now in from..from + limit {
            for c in sys.tick(now) {
                if c.id == id {
                    return c;
                }
            }
        }
        panic!("request {id:?} did not complete within {limit} cycles");
    }

    #[test]
    fn cold_miss_goes_to_memory_then_hits_l2() {
        let mut s = sys();
        let a = s.submit(0x4000, ReqClass::IFetch, 0);
        let c = run_until(&mut s, a, 0, 300);
        assert_eq!(c.source, MemSource::Memory);
        assert_eq!(c.ready_at, 17 + 200);
        // Second request to the same line now hits in L2.
        let b = s.submit(0x4000, ReqClass::IFetch, 300);
        let c2 = run_until(&mut s, b, 300, 40);
        assert_eq!(c2.source, MemSource::L2);
        assert_eq!(c2.ready_at, 300 + 17);
    }

    #[test]
    fn l2_line_covers_two_transfer_units() {
        // 128B L2 lines: 64B sublines 0x4000 and 0x4040 share an L2 line.
        let mut s = sys();
        let a = s.submit(0x4000, ReqClass::IFetch, 0);
        run_until(&mut s, a, 0, 300);
        let b = s.submit(0x4040, ReqClass::IFetch, 300);
        let c = run_until(&mut s, b, 300, 40);
        assert_eq!(c.source, MemSource::L2);
        assert_eq!(c.line, 0x4040);
    }

    /// Drive `tick` over a window and collect every completion.
    fn drain(sys: &mut L2System, from: u64, limit: u64) -> Vec<Completion> {
        let mut all = Vec::new();
        for now in from..from + limit {
            all.extend(sys.tick(now));
        }
        all
    }

    #[test]
    fn one_grant_per_cycle_with_priority() {
        let mut s = sys();
        // Three requests submitted the same cycle, reverse priority order.
        let p = s.submit(0x1000, ReqClass::Prefetch, 5);
        let i = s.submit(0x2000, ReqClass::IFetch, 5);
        let d = s.submit(0x3000, ReqClass::DCache, 5);
        // All misses -> ready = grant + 217. Grants at 5, 6, 7 in priority
        // order: DCache first, then IFetch, then Prefetch.
        let all = drain(&mut s, 5, 400);
        let find = |id| all.iter().find(|c| c.id == id).unwrap().ready_at;
        assert_eq!(find(d), 5 + 217);
        assert_eq!(find(i), 6 + 217);
        assert_eq!(find(p), 7 + 217);
    }

    #[test]
    fn fifo_within_class() {
        let mut s = sys();
        let a = s.submit(0x1000, ReqClass::Prefetch, 0);
        let b = s.submit(0x2000, ReqClass::Prefetch, 0);
        let all = drain(&mut s, 0, 400);
        let find = |id| all.iter().find(|c| c.id == id).unwrap().ready_at;
        assert!(find(a) < find(b));
    }

    #[test]
    fn upgrade_reorders_queue() {
        let mut s = sys();
        // Fill the current cycle with a higher-priority stream so the
        // prefetch would normally wait.
        let pf = s.submit(0x1000, ReqClass::Prefetch, 0);
        let _d1 = s.submit(0x2000, ReqClass::DCache, 0);
        let _d2 = s.submit(0x3000, ReqClass::DCache, 0);
        assert!(s.upgrade(pf, ReqClass::DCache));
        // After upgrade the prefetch competes at DCache priority but with
        // its original (oldest) sequence number, so it is granted first.
        let c = run_until(&mut s, pf, 0, 400);
        assert_eq!(c.ready_at, 217);
    }

    #[test]
    fn find_pending_dedups_by_line() {
        let mut s = sys();
        let a = s.submit(0x5000, ReqClass::Prefetch, 0);
        assert_eq!(s.find_pending(0x5004), Some(a)); // same 64B line
        assert_eq!(s.find_pending(0x5040), None); // next transfer unit
        run_until(&mut s, a, 0, 400);
        assert_eq!(s.find_pending(0x5000), None);
    }

    #[test]
    fn writeback_consumes_bus_slot() {
        let mut s = sys();
        s.submit_writeback(0x7000, 0);
        let i = s.submit(0x8000, ReqClass::IFetch, 0);
        // Writeback has DCache priority, so the ifetch grant slips to cycle 1.
        let c = run_until(&mut s, i, 0, 400);
        assert_eq!(c.ready_at, 1 + 217);
        assert_eq!(s.stats().writebacks, 1);
        assert_eq!(s.stats().grants_dcache, 1);
    }

    #[test]
    fn warm_fill_preloads_directory() {
        let mut s = sys();
        s.warm_fill(0x9000);
        let a = s.submit(0x9000, ReqClass::IFetch, 0);
        let c = run_until(&mut s, a, 0, 40);
        assert_eq!(c.source, MemSource::L2);
    }

    #[test]
    fn config_for_node_uses_table3() {
        assert_eq!(L2Config::for_node(TechNode::T090).l2_latency, 17);
        assert_eq!(L2Config::for_node(TechNode::T045).l2_latency, 24);
    }

    /// Drive two L2 systems with the misses of a small in-order core running
    /// `bench`: tiny I and D caches and a 32 KB L2 (small enough to render
    /// every idle cycle, large enough to mix hits and misses), a next-line
    /// instruction prefetch on every I-miss, dirty writebacks, at most
    /// three reads outstanding, and request eligibility staggered a few
    /// cycles out.  `reference` runs the grant phase on every tick; the
    /// other may skip it, and whenever it reported an event horizon past
    /// `now` with no submission since, its tick must change nothing.
    /// Returns the cycles found idle.
    fn drive_contract(bench: &str, cycles: u64) -> u64 {
        use prestage_isa::OpClass;
        let w = prestage_workload::build(&prestage_workload::by_name(bench).unwrap(), 42);
        let mut src = prestage_workload::TraceGenerator::new(&w, 7);
        let cfg = L2Config {
            capacity: 32 << 10,
            ..L2Config::for_node(prestage_cacti::TechNode::T045)
        };
        let (mut l2, mut reference) = (L2System::new(cfg), L2System::new(cfg));
        let mut il1 = SetAssocCache::new(2 << 10, 64, 2);
        let mut dl1 = SetAssocCache::new(2 << 10, 64, 2);
        let mut insts = std::collections::VecDeque::new();
        let mut buf = Vec::new();
        let (mut out, mut ref_out) = (Vec::new(), Vec::new());
        let (mut idle, mut promise) = (0, 0);
        for now in 0..cycles {
            if now >= promise {
                promise = l2.next_event(now);
            }
            reference.min_want = 0;
            reference.tick_into(now, &mut ref_out);
            if now < promise {
                let before = format!("{l2:?}");
                l2.tick_into(now, &mut out);
                assert!(
                    out.is_empty(),
                    "{bench} cycle {now}: completion on an idle cycle"
                );
                assert_eq!(
                    before,
                    format!("{l2:?}"),
                    "{bench} cycle {now}: idle tick changed state"
                );
                idle += 1;
            } else {
                l2.tick_into(now, &mut out);
            }
            assert_eq!(out, ref_out, "{bench} cycle {now}");
            let mut reads = Vec::new();
            let mut writebacks = Vec::new();
            for _ in 0..2 {
                if l2.by_line.len() + reads.len() >= 3 {
                    break;
                }
                if insts.is_empty() {
                    src.next_stream(&mut buf);
                    insts.extend(buf.drain(..));
                }
                let di: prestage_workload::DynInst = insts.pop_front().unwrap();
                if !il1.lookup(di.pc) {
                    il1.fill(di.pc);
                    reads.push((di.pc, ReqClass::IFetch));
                    if !il1.contains(di.pc + 64) {
                        reads.push((di.pc + 64, ReqClass::Prefetch));
                    }
                }
                if let Some(addr) = di.mem_addr {
                    if !dl1.lookup(addr) {
                        reads.push((addr, ReqClass::DCache));
                        if let Some((victim, true)) = dl1.fill(addr) {
                            writebacks.push(victim);
                        }
                    }
                    if di.op == OpClass::Store {
                        dl1.set_dirty(addr);
                    }
                }
            }
            let want = now + 1 + now % 3;
            for sys in [&mut l2, &mut reference] {
                for &(addr, class) in &reads {
                    if sys.find_pending(addr).is_none() {
                        sys.submit(addr, class, want);
                    }
                }
                for &victim in &writebacks {
                    sys.submit_writeback(victim, want);
                }
            }
            if !reads.is_empty() || !writebacks.is_empty() {
                promise = now + 1;
            }
        }
        assert_eq!(l2.stats(), reference.stats());
        idle
    }

    #[test]
    fn idle_l2_ticks_change_nothing_on_real_traffic() {
        for bench in ["crafty", "mcf"] {
            let idle = drive_contract(bench, 30_000);
            assert!(
                idle > 1_000,
                "{bench}: only {idle} idle cycles exercised the contract"
            );
        }
    }

    #[test]
    fn wait_cycles_accumulate_under_contention() {
        let mut s = sys();
        for n in 0..10 {
            s.submit(0x1000 * (n + 1), ReqClass::Prefetch, 0);
        }
        for now in 0..20 {
            s.tick(now);
        }
        // 10 requests granted over 10 cycles: total wait 0+1+..+9 = 45.
        assert_eq!(s.stats().wait_cycles, 45);
    }
}
