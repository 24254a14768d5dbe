//! The out-of-order back-end: a SimpleScalar-flavoured Register Update Unit.
//!
//! Table 2: 4-wide issue/commit, 64-instruction RUU, 32 KB 2-way L1 D-cache
//! with two ports and one-cycle hits, unified L2 behind the shared bus
//! (D-cache requests have top priority), 200-cycle memory.
//!
//! The model is a scoreboarded window: instructions dispatch in order into
//! the RUU, issue out of order when their source registers are ready (up to
//! `width` per cycle, oldest first), execute with per-class latencies
//! (loads access the D-cache; misses go through the shared L2 system), and
//! commit in order.  Stores retire into the D-cache at issue (an idealised
//! store buffer); dirty evictions generate writeback traffic on the L2 bus.
//! Wrong-path instructions never enter the RUU (they only perturb the
//! front-end and memory system): a deliberate simplification for a fetch
//! study, since the engine drops wrong-path deliveries at decode (see
//! [`crate::engine`]).
//!
//! The RUU is a fixed ring of [`RUU_SIZE`] slots: dynamic instruction `seq`
//! lives in slot `seq % RUU_SIZE` from dispatch to commit.  Per-state sets
//! (waiting to issue, waiting on memory, unresolved mispredict) are `u64`
//! slot bitmaps, walked oldest-first by rotating them by the head slot, so
//! commit only advances the head and never shifts or moves anything.  Each
//! in-flight producer keeps a bitmap of the consumers that captured its
//! tag at dispatch, so a finishing producer wakes exactly those.

use prestage_cache::{Completion, L2System, ReqClass, ReqId, SetAssocCache};
use prestage_isa::{Addr, OpClass, Reg, StaticInst, NUM_REGS};

/// RUU entries (Table 2: 64).
pub const RUU_SIZE: usize = 64;

/// D-cache line size in bytes (Table 2: 64).
pub const DCACHE_LINE: usize = 64;

/// D-cache ports: loads and stores issued per cycle (Table 2: 2).
pub const DCACHE_PORTS: u32 = 2;

/// D-cache hit latency in cycles (Table 2: 1).
pub const DCACHE_LATENCY: u64 = 1;

// Slot sets are `u64` bitmaps, and `seq % RUU_SIZE` must survive the wrap
// of the sequence counter.
const _: () = assert!(RUU_SIZE.is_power_of_two() && RUU_SIZE <= 64);

/// Back-end configuration (Table 2 defaults via [`BackendConfig::default`]).
/// The values no experiment varies are the constants above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendConfig {
    /// Issue and commit width.
    pub width: u32,
    /// D-cache capacity in bytes.
    pub dcache_capacity: usize,
    pub dcache_assoc: usize,
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig {
            width: 4,
            dcache_capacity: 32 << 10,
            dcache_assoc: 2,
        }
    }
}

/// Back-end statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendStats {
    pub committed: u64,
    pub loads: u64,
    pub stores: u64,
    pub dcache_hits: u64,
    pub dcache_misses: u64,
    pub branches: u64,
    /// Cycles in which nothing committed.
    pub commit_stall_cycles: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EState {
    Waiting,
    WaitMem(ReqId),
    Done(u64),
}

#[derive(Debug, Clone, Copy)]
struct RuuEntry {
    seq: u64,
    op: OpClass,
    dst: Option<Reg>,
    mem_addr: Option<Addr>,
    state: EState,
    /// Per-source producer captured at dispatch: either a concrete ready
    /// time, or `DEP | seq` of the in-flight producer (wakeup patches it
    /// to a time when that producer finishes).  Capturing at dispatch
    /// avoids WAR hazards against younger writers.  Packing the tag into
    /// the time keeps the entry inside one cache line and makes the
    /// readiness test two plain compares (a tagged value can never be
    /// `<= now`).
    src_time: [u64; 2],
}

/// Contents of a slot no instruction has occupied yet.
const VACANT: RuuEntry = RuuEntry {
    seq: 0,
    op: OpClass::IntAlu,
    dst: None,
    mem_addr: None,
    state: EState::Done(0),
    src_time: [0; 2],
};

/// Result of one back-end cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackTick {
    pub committed_now: u32,
    /// A mispredicted branch resolved this cycle (its dynamic sequence
    /// number); the engine must redirect the front-end.
    pub resolved_mispredict: Option<u64>,
}

/// The RUU back-end.
#[derive(Debug)]
pub struct BackEnd {
    cfg: BackendConfig,
    /// The RUU ring: seqs `head..head + len` are in flight, each in slot
    /// `slot(seq)`.
    ruu: [RuuEntry; RUU_SIZE],
    /// Sequence number of the oldest in-flight entry (the next to commit).
    head: u64,
    len: usize,
    /// Cycle at which each architectural register's value is available.
    /// `PENDING` while the youngest producer has not yet computed it.
    reg_ready: [u64; NUM_REGS],
    /// Sequence number of the youngest dispatched producer per register.
    last_writer: [u64; NUM_REGS],
    dcache: SetAssocCache,
    stats: BackendStats,
    /// Slots in `Waiting` state.  The issue scan walks these only: entries
    /// that issued or went to memory are never re-examined.
    waiting: u64,
    /// Slots in `WaitMem` state: a completion visits only the loads
    /// waiting on memory.
    wait_mem: u64,
    /// Slots of dispatched-but-unresolved mispredicted branches.
    mispredicts: u64,
    /// Per producer slot, the slots of the consumers holding its `DEP`
    /// tag.  Set at the consumer's dispatch, emptied by the producer's
    /// wakeup and again when its slot is re-dispatched.  Slot reuse cannot
    /// misdirect a wakeup: a consumer is younger than its producer and
    /// cannot commit (freeing its slot) before that producer wakes it.
    consumers: [u64; RUU_SIZE],
    /// No `Waiting` entry can issue before this cycle.  A full issue scan
    /// sets it to the earliest ready time among the entries it left
    /// waiting; dispatch and wakeup lower it; a scan cut short by issue
    /// width or D-cache ports sets it to the next cycle.  `tick` skips the
    /// scan while `now` is below it.
    next_issue: u64,
}

/// Sentinel ready-time for values still being produced.
const PENDING: u64 = u64::MAX >> 1;

/// Tag bit marking a `src_time` slot as "waiting on producer seq" rather
/// than a concrete ready time.  Real cycle numbers and sequence numbers
/// both stay far below it.
const DEP: u64 = 1 << 63;

/// The first cycle an entry with these sources may issue.  A `DEP` tag
/// is above every reachable cycle, so it reads as "not until woken".
fn issue_time(src_time: &[u64; 2]) -> u64 {
    src_time[0].max(src_time[1])
}

/// The ring slot of dynamic instruction `seq`.
fn slot(seq: u64) -> usize {
    seq as usize % RUU_SIZE
}

impl BackEnd {
    pub fn new(cfg: BackendConfig) -> Self {
        BackEnd {
            ruu: [VACANT; RUU_SIZE],
            head: 0,
            len: 0,
            reg_ready: [0; NUM_REGS],
            last_writer: [u64::MAX; NUM_REGS],
            dcache: SetAssocCache::new(cfg.dcache_capacity, DCACHE_LINE, cfg.dcache_assoc),
            stats: BackendStats::default(),
            waiting: 0,
            wait_mem: 0,
            mispredicts: 0,
            consumers: [0; RUU_SIZE],
            next_issue: u64::MAX,
            cfg,
        }
    }

    pub fn stats(&self) -> &BackendStats {
        &self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = BackendStats::default();
    }

    pub fn committed(&self) -> u64 {
        self.stats.committed
    }

    /// Free RUU slots.
    pub fn free_slots(&self) -> usize {
        RUU_SIZE - self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A slot bitmap rotated so that bit `k` is the `k`-th oldest entry.
    fn by_age(&self, slots: u64) -> u64 {
        // prestage: allow(truncating-cast, a slot index is below RUU_SIZE <= 64)
        slots.rotate_right(slot(self.head) as u32)
    }

    /// The slot of the oldest unresolved mispredicted branch.
    fn oldest_mispredict(&self) -> Option<usize> {
        let aged = self.by_age(self.mispredicts);
        (aged != 0).then(|| slot(self.head + u64::from(aged.trailing_zeros())))
    }

    /// Dispatch one instruction into the RUU.  The caller must check
    /// [`BackEnd::free_slots`] first.  Returns its sequence number.
    pub fn dispatch(&mut self, inst: &StaticInst, mem_addr: Option<Addr>, mispredict: bool) -> u64 {
        debug_assert!(self.len < RUU_SIZE);
        let seq = self.head + self.len as u64;
        self.len += 1;
        let s = slot(seq);
        self.consumers[s] = 0;
        // Capture source readiness as of dispatch (register rename):
        // either a concrete time, or the still-executing producer's seq.
        let mut src_time = [0u64; 2];
        for (k, src) in [inst.src1, inst.src2].into_iter().enumerate() {
            if let Some(r) = src.filter(|r| !r.is_zero()) {
                let t = self.reg_ready[r.index()];
                src_time[k] = if t == PENDING {
                    let producer = self.last_writer[r.index()];
                    self.consumers[slot(producer)] |= 1 << s;
                    DEP | producer
                } else {
                    t
                };
            }
        }
        if let Some(d) = inst.dep_dest() {
            // The value is unavailable until this instruction executes.
            self.last_writer[d.index()] = seq;
            self.reg_ready[d.index()] = PENDING;
        }
        self.mispredicts |= u64::from(mispredict) << s;
        self.next_issue = self.next_issue.min(issue_time(&src_time));
        self.waiting |= 1 << s;
        self.ruu[s] = RuuEntry {
            seq,
            op: inst.op,
            dst: inst.dep_dest(),
            mem_addr,
            state: EState::Waiting,
            src_time,
        };
        seq
    }

    /// A producer finished at `at`: record its result and patch the tag
    /// out of each consumer it recorded at their dispatch, lowering the
    /// issue horizon to each consumer's new issue time.
    fn finish(&mut self, producer: u64, dst: Option<Reg>, at: u64) {
        let Some(d) = dst else { return };
        if self.last_writer[d.index()] == producer {
            self.reg_ready[d.index()] = at;
        }
        let tag = DEP | producer;
        let mut bits = std::mem::take(&mut self.consumers[slot(producer)]);
        while bits != 0 {
            let e = &mut self.ruu[bits.trailing_zeros() as usize];
            bits &= bits - 1;
            for t in &mut e.src_time {
                if *t == tag {
                    *t = at;
                }
            }
            self.next_issue = self.next_issue.min(issue_time(&e.src_time));
        }
    }

    /// A D-cache miss returned from the L2 system.
    pub fn on_completion(&mut self, c: &Completion) {
        // Several loads can wait on one line request (MSHR merge), so
        // every load waiting on memory is checked.
        let mut bits = self.wait_mem;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let e = &mut self.ruu[i];
            if e.state != EState::WaitMem(c.id) {
                continue;
            }
            let at = c.ready_at + 1;
            e.state = EState::Done(at);
            self.wait_mem &= !(1 << i);
            let (seq, dst) = (e.seq, e.dst);
            self.finish(seq, dst, at);
        }
    }

    /// The earliest cycle `>= now` at which [`tick`](Self::tick) could
    /// change any state other than `commit_stall_cycles`: the issue
    /// horizon, the head entry's completion (commit), and the cycle before
    /// the oldest unresolved mispredict completes (it resolves once its
    /// completion is at most one cycle away).  A cycle past every reachable
    /// one when nothing can happen without an outside event (a completion
    /// or a dispatch).
    pub fn next_event(&self, now: u64) -> u64 {
        let mut at = self.next_issue;
        if self.len > 0 {
            if let EState::Done(t) = self.ruu[slot(self.head)].state {
                at = at.min(t);
            }
        }
        if let Some(i) = self.oldest_mispredict() {
            if let EState::Done(t) = self.ruu[i].state {
                at = at.min(t.saturating_sub(1));
            }
        }
        at.max(now)
    }

    /// Account `cycles` quiescent cycles the engine skipped: cycles before
    /// [`next_event`](Self::next_event), in each of which `tick` would only
    /// have counted a commit stall.
    pub fn skip_idle(&mut self, cycles: u64) {
        self.stats.commit_stall_cycles += cycles;
    }

    /// One cycle: issue, resolve, then commit.
    pub fn tick(&mut self, now: u64, l2: &mut L2System) -> BackTick {
        // No waiting entry can be ready before `next_issue`, so a scan
        // before then would find nothing to issue.
        if now >= self.next_issue {
            self.issue(now, l2);
        }

        // ---- Resolve the oldest unresolved mispredict the moment it
        // finishes; clearing its bit makes the redirect fire exactly once.
        let mut resolved = None;
        if let Some(i) = self.oldest_mispredict() {
            if matches!(self.ruu[i].state, EState::Done(t) if t <= now + 1) {
                resolved = Some(self.ruu[i].seq);
                self.mispredicts &= !(1 << i);
            }
        }

        // ---- Commit: in order, up to width.
        let mut committed_now = 0u32;
        while committed_now < self.cfg.width && self.len > 0 {
            let i = slot(self.head);
            if !matches!(self.ruu[i].state, EState::Done(t) if t <= now) {
                break;
            }
            debug_assert_eq!((self.waiting | self.wait_mem) & (1 << i), 0);
            // A mispredict younger than the one resolved this cycle can
            // commit unreported; its slot must not keep the flag.
            self.mispredicts &= !(1 << i);
            self.head += 1;
            self.len -= 1;
            committed_now += 1;
        }
        self.stats.committed += u64::from(committed_now);
        if committed_now == 0 {
            self.stats.commit_stall_cycles += 1;
        }

        BackTick {
            committed_now,
            resolved_mispredict: resolved,
        }
    }

    /// Issue: oldest-first, up to width, respecting D-cache ports.
    ///
    /// Wakeups happen as producers issue: every issue completes at now+1
    /// or later (all execution latencies are >= 1), so a consumer woken
    /// this cycle reads as not ready when the scan reaches it.
    fn issue(&mut self, now: u64, l2: &mut L2System) {
        let mut issued = 0u32;
        let mut dports = DCACHE_PORTS;
        // Earliest issue time among the entries the scan leaves waiting;
        // wakeups lower `next_issue` below it to their consumers' times.
        let mut horizon = u64::MAX;
        self.next_issue = u64::MAX;
        let mut port_limited = false;
        // Walk only the Waiting entries, oldest first — the same visit
        // order as a full scan that skipped non-Waiting states.
        let mut aged = self.by_age(self.waiting);
        while issued < self.cfg.width && aged != 0 {
            let i = slot(self.head + u64::from(aged.trailing_zeros()));
            aged &= aged - 1;
            let e = &mut self.ruu[i];
            let ready_at = issue_time(&e.src_time);
            if ready_at > now {
                horizon = horizon.min(ready_at);
                continue;
            }
            let done_at = match e.op {
                OpClass::Load => {
                    if dports == 0 {
                        port_limited = true;
                        continue;
                    }
                    dports -= 1;
                    self.stats.loads += 1;
                    let addr = e.mem_addr.unwrap_or(0);
                    if self.dcache.lookup(addr) {
                        self.stats.dcache_hits += 1;
                        now + 1 + DCACHE_LATENCY
                    } else {
                        self.stats.dcache_misses += 1;
                        let req = match l2.find_pending(addr) {
                            Some(r) => r,
                            None => l2.submit(addr, ReqClass::DCache, now + 1),
                        };
                        // Fill (write-allocate) now; dirty victims write
                        // back over the bus.
                        if let Some((victim, dirty)) = self.dcache.fill(addr) {
                            if dirty {
                                l2.submit_writeback(victim, now + 1);
                            }
                        }
                        e.state = EState::WaitMem(req);
                        self.waiting &= !(1 << i);
                        self.wait_mem |= 1 << i;
                        issued += 1;
                        // Destination stays PENDING until completion.
                        continue;
                    }
                }
                OpClass::Store => {
                    if dports == 0 {
                        port_limited = true;
                        continue;
                    }
                    dports -= 1;
                    self.stats.stores += 1;
                    let addr = e.mem_addr.unwrap_or(0);
                    if !self.dcache.lookup(addr) {
                        self.stats.dcache_misses += 1;
                        // Write-allocate: traffic only, the store itself
                        // retires through the store buffer.
                        if l2.find_pending(addr).is_none() {
                            l2.submit(addr, ReqClass::DCache, now + 1);
                        }
                        if let Some((victim, dirty)) = self.dcache.fill(addr) {
                            if dirty {
                                l2.submit_writeback(victim, now + 1);
                            }
                        }
                    } else {
                        self.stats.dcache_hits += 1;
                    }
                    self.dcache.set_dirty(addr);
                    now + 1
                }
                op => {
                    if op.is_cti() {
                        self.stats.branches += 1;
                    }
                    now + op.exec_latency() as u64
                }
            };
            e.state = EState::Done(done_at);
            self.waiting &= !(1 << i);
            let (seq, dst) = (e.seq, e.dst);
            self.finish(seq, dst, done_at);
            issued += 1;
        }
        // A scan cut short by width (entries left) or ports may have left
        // ready entries behind; a full one saw every entry still waiting.
        self.next_issue = if aged != 0 || port_limited {
            now + 1
        } else {
            horizon.min(self.next_issue)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestage_cache::L2Config;
    use prestage_cacti::TechNode;
    use prestage_isa::StaticInst;

    fn l2() -> L2System {
        L2System::new(L2Config::for_node(TechNode::T045))
    }

    fn alu(dst: u8, src: u8) -> StaticInst {
        StaticInst::plain(
            OpClass::IntAlu,
            Some(Reg::int(dst)),
            Some(Reg::int(src)),
            None,
        )
    }

    /// Run until the backend drains, returning cycles taken.
    fn drain(be: &mut BackEnd, l2sys: &mut L2System, from: u64, limit: u64) -> u64 {
        for now in from..from + limit {
            for c in l2sys.tick(now) {
                be.on_completion(&c);
            }
            be.tick(now, l2sys);
            if be.is_empty() {
                return now - from;
            }
        }
        panic!("backend did not drain in {limit} cycles");
    }

    #[test]
    fn independent_alus_commit_at_full_width() {
        let mut be = BackEnd::new(BackendConfig::default());
        let mut l2s = l2();
        for i in 0..8u8 {
            be.dispatch(&alu(i + 1, 30), None, false);
        }
        let cycles = drain(&mut be, &mut l2s, 0, 50);
        // 8 independent single-cycle ops, width 4: ~3-4 cycles.
        assert!(cycles <= 5, "took {cycles} cycles");
        assert_eq!(be.committed(), 8);
    }

    #[test]
    fn dependence_chain_serialises() {
        let mut be = BackEnd::new(BackendConfig::default());
        let mut l2s = l2();
        // r1 <- r30; r2 <- r1; r3 <- r2 ... strict chain of 8.
        for i in 0..8u8 {
            let src = if i == 0 { 30 } else { i };
            be.dispatch(&alu(i + 1, src), None, false);
        }
        let cycles = drain(&mut be, &mut l2s, 0, 50);
        assert!(cycles >= 8, "chain too fast: {cycles}");
    }

    #[test]
    fn load_miss_waits_for_memory() {
        let mut be = BackEnd::new(BackendConfig::default());
        let mut l2s = l2();
        let ld = StaticInst::plain(OpClass::Load, Some(Reg::int(1)), Some(Reg::int(30)), None);
        be.dispatch(&ld, Some(0x4000_0000), false);
        // Dependent consumer.
        be.dispatch(&alu(2, 1), None, false);
        let cycles = drain(&mut be, &mut l2s, 0, 400);
        // L2 miss -> 24 + 200 cycles minimum.
        assert!(cycles > 220, "load miss too fast: {cycles}");
        assert_eq!(be.stats().dcache_misses, 1);

        // Second load to the same line: now a hit, fast.
        be.dispatch(&ld, Some(0x4000_0008), false);
        let cycles2 = drain(&mut be, &mut l2s, 400, 50);
        assert!(cycles2 < 10, "hit too slow: {cycles2}");
        assert_eq!(be.stats().dcache_hits, 1);
    }

    #[test]
    fn dcache_ports_limit_memory_ops() {
        let mut be = BackEnd::new(BackendConfig::default());
        let mut l2s = l2();
        // 6 independent load hits; 2 ports -> at least 3 issue cycles.
        for i in 0..6u64 {
            be.dcache.fill(0x5000 + i * 8);
            let ld = StaticInst::plain(
                OpClass::Load,
                Some(Reg::int(i as u8 + 1)),
                Some(Reg::int(30)),
                None,
            );
            be.dispatch(&ld, Some(0x5000 + i * 8), false);
        }
        let cycles = drain(&mut be, &mut l2s, 0, 50);
        assert!(cycles >= 4, "ports not enforced: {cycles}");
    }

    #[test]
    fn mispredict_resolution_reported_once() {
        let mut be = BackEnd::new(BackendConfig::default());
        let mut l2s = l2();
        let br = StaticInst::cti(OpClass::CondBranch);
        let seq = be.dispatch(&br, None, true);
        let mut seen = 0;
        for now in 0..10 {
            for c in l2s.tick(now) {
                be.on_completion(&c);
            }
            let t = be.tick(now, &mut l2s);
            if t.resolved_mispredict == Some(seq) {
                seen += 1;
            }
        }
        assert_eq!(seen, 1, "redirect must fire exactly once");
    }

    #[test]
    fn stores_mark_lines_dirty_and_write_back() {
        let cfg = BackendConfig {
            dcache_capacity: 128,
            dcache_assoc: 1,
            ..BackendConfig::default()
        };
        let mut be = BackEnd::new(cfg);
        let mut l2s = l2();
        let st = StaticInst::plain(OpClass::Store, None, Some(Reg::int(1)), Some(Reg::int(2)));
        be.dispatch(&st, Some(0x6000_0000), false);
        drain(&mut be, &mut l2s, 0, 50);
        // Conflicting store evicts the dirty line -> writeback traffic.
        be.dispatch(&st, Some(0x6000_0080), false);
        drain(&mut be, &mut l2s, 50, 50);
        for now in 100..120 {
            l2s.tick(now);
        }
        assert!(l2s.stats().writebacks >= 1);
    }

    /// `format!("{:?}")` with the value of counter `name` blanked out.
    fn masked(debug: String, name: &str) -> String {
        let key = format!("{name}: ");
        let Some(at) = debug.find(&key).map(|i| i + key.len()) else {
            return debug;
        };
        let digits = debug[at..].bytes().take_while(u8::is_ascii_digit).count();
        format!("{}_{}", &debug[..at], &debug[at + digits..])
    }

    /// Dispatch `bench`'s committed path into two RUUs (up to width per
    /// cycle, every 23rd instruction flagged mispredicted, a 12-cycle fetch
    /// bubble after each resolves), each against its own L2 system.
    /// `reference` runs the issue scan on every tick; the other may skip
    /// it, and whenever it reported an event horizon past `now` with no
    /// dispatch or completion since, its tick may only count a commit
    /// stall.  Returns the cycles found idle.
    fn drive_contract(bench: &str, cycles: u64) -> u64 {
        let w = prestage_workload::build(&prestage_workload::by_name(bench).unwrap(), 42);
        let mut src = prestage_workload::TraceGenerator::new(&w, 7);
        // Small caches keep the per-cycle renderings cheap and the misses
        // frequent.
        let cfg = BackendConfig {
            dcache_capacity: 4 << 10,
            ..BackendConfig::default()
        };
        let l2cfg = L2Config {
            capacity: 32 << 10,
            ..L2Config::for_node(TechNode::T045)
        };
        let (mut be, mut reference) = (BackEnd::new(cfg), BackEnd::new(cfg));
        let (mut l2s, mut ref_l2) = (L2System::new(l2cfg), L2System::new(l2cfg));
        let (mut buf, mut next) = (Vec::new(), 0);
        let (mut idle, mut dispatched, mut bubble_until, mut promise) = (0, 0u64, 0, 0);
        for now in 0..cycles {
            let done = l2s.tick(now);
            assert_eq!(done, ref_l2.tick(now), "{bench} cycle {now}");
            for c in &done {
                be.on_completion(c);
                reference.on_completion(c);
            }
            if !done.is_empty() {
                promise = now;
            }
            if now >= promise {
                promise = be.next_event(now);
            }
            reference.next_issue = 0;
            let expect = reference.tick(now, &mut ref_l2);
            let t = if now < promise {
                let before = masked(format!("{be:?}"), "commit_stall_cycles");
                let l2_before = (l2s.outstanding(), *l2s.stats());
                let stalls = be.stats().commit_stall_cycles;
                let t = be.tick(now, &mut l2s);
                assert_eq!(
                    t,
                    BackTick::default(),
                    "{bench} cycle {now}: idle tick acted"
                );
                assert_eq!(
                    before,
                    masked(format!("{be:?}"), "commit_stall_cycles"),
                    "{bench} cycle {now}"
                );
                assert_eq!(
                    l2_before,
                    (l2s.outstanding(), *l2s.stats()),
                    "{bench} cycle {now}: idle tick used the L2"
                );
                assert_eq!(be.stats().commit_stall_cycles, stalls + 1);
                idle += 1;
                t
            } else {
                be.tick(now, &mut l2s)
            };
            assert_eq!(
                (t, be.stats()),
                (expect, reference.stats()),
                "{bench} cycle {now}"
            );
            if t.resolved_mispredict.is_some() {
                bubble_until = now + 12;
            }
            for _ in 0..cfg.width {
                if now < bubble_until || be.free_slots() == 0 {
                    break;
                }
                if next == buf.len() {
                    src.next_stream(&mut buf);
                    next = 0;
                }
                let di: prestage_workload::DynInst = buf[next];
                next += 1;
                let st = w.program.block(di.block).insts[di.idx as usize];
                dispatched += 1;
                let mispredict = dispatched % 23 == 0;
                be.dispatch(&st, di.mem_addr, mispredict);
                reference.dispatch(&st, di.mem_addr, mispredict);
                promise = now + 1;
            }
        }
        idle
    }

    #[test]
    fn idle_backend_ticks_only_count_commit_stalls() {
        for bench in ["crafty", "mcf"] {
            let idle = drive_contract(bench, 12_000);
            assert!(
                idle > 1_000,
                "{bench}: only {idle} idle cycles exercised the contract"
            );
        }
    }

    #[test]
    fn ruu_capacity_enforced() {
        let mut be = BackEnd::new(BackendConfig::default());
        assert_eq!(be.free_slots(), 64);
        let mut l2s = l2();
        // Fill with a dependence chain so nothing commits quickly.
        be.dispatch(&alu(1, 30), None, false);
        for i in 1..64u64 {
            let s = (i % 29) as u8 + 1;
            be.dispatch(&alu((i % 29) as u8 + 2, s), None, false);
        }
        assert_eq!(be.free_slots(), 0);
        be.tick(0, &mut l2s);
        be.tick(1, &mut l2s);
        assert!(be.free_slots() > 0);
    }

    /// Three trips round the ring with the RUU kept full: a dependence
    /// chain through r1-r3, a load miss every 16th instruction writing r10,
    /// and every 23rd instruction a mispredicted branch reading r10, so
    /// chains, pending mispredicts and stalled commits straddle slot
    /// `RUU_SIZE - 1` -> 0.  Every source captured at dispatch must be the
    /// finished producer's time or the in-flight producer's tag (recorded
    /// in its consumer mask), never a stale slot's.
    #[test]
    fn ring_wraps_with_chains_mispredicts_and_finished_producers() {
        let mut be = BackEnd::new(BackendConfig::default());
        let mut l2s = l2();
        let total = 3 * RUU_SIZE as u64;
        let mut writer = [None::<u64>; NUM_REGS];
        let (mut expected, mut reported) = (Vec::new(), Vec::new());
        let (mut concrete, mut tagged, mut wrapped) = (0, 0, 0);
        let (mut next, mut now) = (0, 0);
        while be.committed() < total {
            for c in l2s.tick(now) {
                be.on_completion(&c);
            }
            reported.extend(be.tick(now, &mut l2s).resolved_mispredict);
            while be.free_slots() > 0 && next < total {
                let i = next;
                next += 1;
                let (inst, addr) = if i % 23 == 22 {
                    let br = StaticInst::cti(OpClass::CondBranch);
                    let inst = StaticInst {
                        src1: Some(Reg::int(10)),
                        ..br
                    };
                    (inst, None)
                } else if i % 16 == 8 {
                    let ld = StaticInst::plain(
                        OpClass::Load,
                        Some(Reg::int(10)),
                        Some(Reg::int(30)),
                        None,
                    );
                    (ld, Some(0x4000_0000 + i * 4096))
                } else {
                    let dst = (i % 3) as u8 + 1;
                    (alu(dst, (i + 2) as u8 % 3 + 1), None)
                };
                let mispredict = inst.op == OpClass::CondBranch;
                let seq = be.dispatch(&inst, addr, mispredict);
                assert_eq!(seq, i);
                if mispredict {
                    expected.push(seq);
                }
                let t = be.ruu[slot(seq)].src_time[0];
                let producer = inst.src1.and_then(|r| writer[r.index()]);
                match producer.filter(|&p| p >= be.head) {
                    Some(p) => match be.ruu[slot(p)].state {
                        EState::Done(at) => {
                            assert_eq!(t, at, "seq {seq} after finished {p}");
                            assert_eq!(be.consumers[slot(p)] & 1 << slot(seq), 0);
                            concrete += 1;
                        }
                        _ => {
                            assert_eq!(t, DEP | p, "seq {seq} behind in-flight {p}");
                            assert_ne!(be.consumers[slot(p)] & 1 << slot(seq), 0);
                            tagged += 1;
                            wrapped += usize::from(slot(p) > slot(seq));
                        }
                    },
                    None => assert!(t < DEP, "seq {seq}: tag on a committed producer"),
                }
                if let Some(d) = inst.dep_dest() {
                    writer[d.index()] = Some(seq);
                }
            }
            now += 1;
            assert!(now < 20_000, "stuck at {} committed", be.committed());
        }
        assert!(be.is_empty());
        assert_eq!(be.committed(), total);
        assert_eq!(
            reported, expected,
            "each mispredict once, in dispatch order"
        );
        assert!(
            concrete > 0 && tagged > 0 && wrapped > 0,
            "{concrete} finished-producer, {tagged} tagged, {wrapped} wrapped captures"
        );
    }
}
