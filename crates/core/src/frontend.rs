//! The decoupled fetch front-end: fetch unit + prefetch engine.
//!
//! One [`FrontEnd`] instance owns the L1 I-cache, the optional L0 filter
//! cache, the pre-buffer (prefetch or prestage semantics), the decoupling
//! queue, and the prefetch engine.  The embedding simulator:
//!
//! 1. pushes predicted fetch blocks with [`FrontEnd::push_block`] (one per
//!    cycle, whenever [`FrontEnd::has_queue_space`]);
//! 2. calls [`FrontEnd::tick`] once per cycle, passing the shared
//!    [`L2System`] and the number of downstream (decode) slots available;
//!    deliveries come back tagged with block sequence, PC range and fetch
//!    source;
//! 3. routes L2 completions back via [`FrontEnd::on_completion`];
//! 4. calls [`FrontEnd::checkpoint`] where the prediction diverges from the
//!    correct path, and [`FrontEnd::flush`] then [`FrontEnd::restore`] on
//!    the branch misprediction redirect;
//! 5. may skip the ticks of cycles before [`FrontEnd::next_event`],
//!    folding in the pre-buffer stalls they would have counted with
//!    [`FrontEnd::skip_stalled`].
//!
//! ## Fetch path
//!
//! The fetch unit works on one queue line at a time (up to
//! [`MAX_INFLIGHT`] overlapped), probing pre-buffer, L0 and L1 in
//! parallel; the fastest hit wins (pre-buffer and L0 are one cycle — or a
//! pipelined pre-buffer's full latency — while the L1 costs its CACTI
//! latency and, when not pipelined, blocks its port for the whole access).
//! Misses everywhere become demand requests to the L2 system at I-fetch
//! priority.  A line whose prefetch is still in flight is *waited on*
//! (prestaging hides the remaining latency) and counts as a pre-buffer
//! fetch, like the paper's fetch-source accounting.
//!
//! ## Fill policies (§3.1.1, §3.2.3, §3.2.4)
//!
//! * demand miss: fill L1, plus L0 when present;
//! * FDP pre-buffer fetch-hit: migrate the line to L0 (if present) else L1
//!   and free the entry;
//! * CLGP pre-buffer fetch-hit: decrement the consumers counter; **no
//!   migration** — evicted prestage lines are simply dropped, so pre-buffer
//!   and emergency-cache contents never duplicate.

use crate::buffer::{PbKind, PbLookup, PreBuffer};
use crate::config::{
    FrontendConfig, PrefetcherKind, FETCH_WIDTH, L1_ASSOC, MAX_INFLIGHT, QUEUE_BLOCKS,
};
use crate::prefetch::{Idle, InstrPrefetcher, PrefetchView};
use crate::queue::{FetchQueue, LineSlot};
use crate::stats::FrontStats;
use prestage_cache::{
    ArrayPort, Completion, FillClass, ITlb, InsertionPolicy, L2System, MemSource, ReqClass, ReqId,
    SetAssocCache,
};
use prestage_isa::{Addr, INST_BYTES};
use std::collections::VecDeque;

/// Where a fetched line came from (Figure 7 categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchSource {
    PreBuffer,
    L0,
    L1,
    L2,
    Mem,
}

/// A batch of fetched instructions handed to decode this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    pub block_seq: u64,
    pub first_pc: Addr,
    pub count: u32,
    pub source: FetchSource,
    pub cycle: u64,
    /// This delivery finishes its fetch block.
    pub completes_block: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LfState {
    /// Waiting on a pending pre-buffer entry to become valid.
    WaitPb,
    /// Waiting on a demand request to the L2 system.
    WaitMem(ReqId),
    /// Data available at the given cycle.
    Ready(u64),
}

#[derive(Debug, Clone, Copy)]
struct LineFetch {
    slot: LineSlot,
    state: LfState,
    source: FetchSource,
    delivered: u32,
    counted: bool,
}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Route {
    pub(crate) demand: bool,
    pub(crate) pb_fill: bool,
}

/// Flat routing table for in-flight L2 requests the front-end cares
/// about: a linear-scan `Vec` keyed by [`ReqId`].  The table is bounded
/// by the L2 system's outstanding-request count (a handful of entries),
/// is never iterated in key order, and sees one lookup per completion —
/// exactly the shape where a flat scan with `swap_remove` beats the
/// pointer-chasing `BTreeMap` it replaces.
#[derive(Debug, Default)]
pub(crate) struct RouteTable {
    entries: Vec<(ReqId, Route)>,
}

impl RouteTable {
    /// The route for `id`, inserting a default entry if absent
    /// (`BTreeMap::entry(..).or_default()` shaped).
    pub(crate) fn get_or_insert(&mut self, id: ReqId) -> &mut Route {
        match self.entries.iter().position(|(k, _)| *k == id) {
            Some(i) => &mut self.entries[i].1,
            None => {
                self.entries.push((id, Route::default()));
                // prestage: allow(unwrap-in-lib, the push on the previous line guarantees a last element)
                &mut self.entries.last_mut().expect("just pushed").1
            }
        }
    }

    pub(crate) fn remove(&mut self, id: ReqId) -> Option<Route> {
        let i = self.entries.iter().position(|(k, _)| *k == id)?;
        Some(self.entries.swap_remove(i).1)
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

/// The decoupled fetch front-end, monomorphized over its prefetch
/// mechanism `P`: every per-cycle hook (`tick`, `observe_fetch`,
/// `migrate_used_lines`) is a direct — typically inlined — call, not a
/// virtual one.  Mechanism selection happens once, at the config layer:
/// the engine instantiates one `FrontEnd<P>` per [`PrefetcherKind`]
/// (see `prestage-sim`'s engine), and [`NoPrefetcher`] is the zero-sized
/// no-prefetch baseline.
///
/// [`NoPrefetcher`]: crate::prefetch::NoPrefetcher
#[derive(Debug)]
pub struct FrontEnd<P: InstrPrefetcher> {
    cfg: FrontendConfig,
    queue: FetchQueue,
    pb: Option<PreBuffer>,
    pb_port: ArrayPort,
    l1: SetAssocCache,
    l1_port: ArrayPort,
    /// Port used by prefetch copies out of the L1 (§3.1's "additional tag
    /// port (or replicated tags)" extended to the data array, so copies do
    /// not steal demand-fetch bandwidth).
    l1_copy_port: ArrayPort,
    l0: Option<(SetAssocCache, ArrayPort)>,
    inflight: VecDeque<LineFetch>,
    /// The prefetch mechanism; see [`crate::prefetch`].
    pf: P,
    /// Prefetch copies from the L1 completing at (cycle, synthetic id).
    l1_copies: Vec<(u64, ReqId)>,
    routes: RouteTable,
    next_synth: u64,
    /// Optional instruction TLB: every line address the fetch unit or the
    /// prefetch mechanism touches translates through it (misses charge
    /// `miss_cycles` before the array/L2 access starts).  `None` models
    /// free translation — the pre-TLB behavior, bit for bit.
    tlb: Option<ITlb>,
    /// Insertion class for prefetch-originated fills into L0/L1 (the
    /// migration path): the config override, else MRU, resolved once.
    migrate_class: FillClass,
    stats: FrontStats,
}

/// Synthetic request-id namespace for L1→PB copies (disjoint from the
/// L2 system's sequence numbers).
const SYNTH_BASE: u64 = 1 << 63;

impl<P: InstrPrefetcher> FrontEnd<P> {
    /// # Panics
    /// On a configuration [`FrontendConfig::validate`] rejects (spec
    /// consumers validate earlier and report the field name instead).
    pub fn new(cfg: FrontendConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid front-end configuration: {e}");
        }
        let pf = P::from_config(&cfg);
        debug_assert_eq!(
            pf.kind(),
            cfg.prefetcher,
            "front-end instantiated with the wrong mechanism type"
        );
        let pb = (cfg.pb_entries > 0).then(|| {
            PreBuffer::new(
                match cfg.prefetcher {
                    PrefetcherKind::Clgp if !cfg.ablate_free_on_use => PbKind::Clgp,
                    _ => PbKind::Fdp,
                },
                cfg.pb_entries,
            )
        });
        let l0 = cfg.l0_capacity.map(|c| {
            (
                SetAssocCache::fully_associative(c, cfg.line_bytes as usize),
                ArrayPort::new(cfg.l0_latency(), false),
            )
        });
        let migrate_class = FillClass::Prefetch(cfg.insertion.unwrap_or(InsertionPolicy::Mru));
        FrontEnd {
            queue: FetchQueue::new(cfg.line_bytes, QUEUE_BLOCKS),
            pb,
            pb_port: ArrayPort::new(cfg.pb_latency(), cfg.pb_pipelined),
            l1: SetAssocCache::new(cfg.l1_capacity, cfg.line_bytes as usize, L1_ASSOC),
            l1_port: ArrayPort::new(cfg.l1_latency(), cfg.l1_pipelined),
            l1_copy_port: ArrayPort::new(cfg.l1_latency(), cfg.l1_pipelined),
            l0,
            inflight: VecDeque::new(),
            pf,
            l1_copies: Vec::new(),
            routes: RouteTable::default(),
            next_synth: SYNTH_BASE,
            tlb: cfg.itlb.map(|c| ITlb::new(&c)),
            migrate_class,
            cfg,
            stats: FrontStats::default(),
        }
    }

    pub fn config(&self) -> &FrontendConfig {
        &self.cfg
    }

    pub fn stats(&self) -> &FrontStats {
        &self.stats
    }

    /// Zero all counters (end of warm-up); cache/buffer contents and the
    /// prefetch mechanism's warm tables are kept.
    pub fn reset_stats(&mut self) {
        self.stats = FrontStats::default();
        if let Some(tlb) = &mut self.tlb {
            tlb.reset_stats();
        }
    }

    pub fn queue(&self) -> &FetchQueue {
        &self.queue
    }

    /// Direct access to the L1 directory (warm-up / inspection).
    pub fn l1(&mut self) -> &mut SetAssocCache {
        &mut self.l1
    }

    /// True when another predicted fetch block can be accepted this cycle.
    pub fn has_queue_space(&self) -> bool {
        self.queue.has_space()
    }

    /// Enqueue a predicted fetch block.
    pub fn push_block(&mut self, seq: u64, start: Addr, len: u32) -> bool {
        let ok = self.queue.push_block(seq, start, len);
        if ok {
            self.stats.blocks_pushed += 1;
        } else {
            self.stats.blocks_rejected += 1;
        }
        ok
    }

    /// Branch misprediction reached the front-end: drop queued work and
    /// in-flight fetches; reset prestage consumers counters; tell the
    /// prefetch mechanism to drop its request queues.  Demand requests
    /// already in the memory system still complete and fill the caches
    /// (useful wrong-path warmth), they just deliver nothing.
    pub fn flush(&mut self) {
        self.queue.flush();
        self.inflight.clear();
        self.pf.on_redirect();
        if let Some(pb) = &mut self.pb {
            pb.on_mispredict();
        }
        self.stats.flushes += 1;
    }

    /// In-flight L2 requests the front-end still expects a completion for
    /// (demand fetches + pre-buffer fills).  Bounded by the L2 system's
    /// outstanding-request count — the engine's end-of-cell invariant
    /// checks exactly that.
    pub fn routes_len(&self) -> usize {
        self.routes.len()
    }

    /// Save the speculative state of the prefetch mechanism (training
    /// cursors, stream expectations) and of the i-TLB (tags + replacement
    /// state), each in its own saved copy — called by the engine when it
    /// detects a divergence, *before* wrong-path fetches are observed.
    pub fn checkpoint(&mut self) {
        self.pf.checkpoint();
        if let Some(tlb) = &mut self.tlb {
            tlb.checkpoint();
        }
    }

    /// Reinstate the last [`checkpoint`](Self::checkpoint) after the
    /// redirect [`flush`](Self::flush), so neither wrong-path observations
    /// nor wrong-path translations survive into the replayed right path
    /// (keeping checkpoint replay bit-exact).
    pub fn restore(&mut self) {
        self.pf.restore();
        if let Some(tlb) = &mut self.tlb {
            tlb.restore();
        }
    }

    /// Route an L2-system completion (the engine filters by requester).
    pub fn on_completion(&mut self, c: &Completion) {
        let Some(route) = self.routes.remove(c.id) else {
            return;
        };
        if route.pb_fill {
            if let Some(pb) = &mut self.pb {
                if pb.complete(c.id).is_some() {
                    match c.source {
                        MemSource::L2 => self.stats.prefetch_from_l2 += 1,
                        MemSource::Memory => self.stats.prefetch_from_mem += 1,
                    }
                }
            }
        }
        if route.demand {
            // Fill the emergency path: L1 always; L0 too when present.
            self.l1.fill(c.line);
            if let Some((l0, _)) = &mut self.l0 {
                l0.fill(c.line);
            }
            let source = match c.source {
                MemSource::L2 => FetchSource::L2,
                MemSource::Memory => FetchSource::Mem,
            };
            for lf in &mut self.inflight {
                if lf.state == LfState::WaitMem(c.id) {
                    lf.state = LfState::Ready(c.ready_at);
                    lf.source = source;
                }
            }
        }
    }

    /// One cycle of front-end work.  `downstream_free` bounds delivered
    /// instructions (decode-buffer backpressure).  Deliveries are appended
    /// to `out`.
    pub fn tick(
        &mut self,
        now: u64,
        l2: &mut L2System,
        downstream_free: u32,
        out: &mut Vec<Delivery>,
    ) {
        self.complete_l1_copies(now);
        self.resolve_waiting_pb(now, l2);
        self.deliver(now, downstream_free, out);
        self.start_fetches(now, l2);
        let (pf, mut view) = self.prefetch_view();
        pf.tick(now, &mut view, l2);
    }

    /// The earliest cycle `>= now` at which [`tick`](Self::tick) (with the
    /// same `downstream_free`) could change any state other than
    /// `pb_alloc_stalls`, and whether each cycle before it counts one
    /// pre-buffer allocation stall.  Only an outside event (a completion,
    /// a pushed block, a flush, more decode slots) can move it earlier.
    /// The inputs: pending L1 copies, a `WaitPb` line whose entry stopped
    /// being pending, the head line's ready time when decode has slots, a
    /// fetch start (or a blocked L1 retry), and the mechanism's
    /// [`InstrPrefetcher::next_event`].
    pub fn next_event(&mut self, now: u64, downstream_free: u32) -> (u64, bool) {
        let mut at = self
            .l1_copies
            .iter()
            .fold(u64::MAX, |at, &(ready, _)| at.min(ready));
        let mut all_ready = true;
        for lf in &self.inflight {
            match lf.state {
                LfState::Ready(_) => {}
                LfState::WaitMem(_) => all_ready = false,
                LfState::WaitPb => {
                    let line = lf.slot.line;
                    if self
                        .pb
                        .as_ref()
                        .is_none_or(|pb| pb.lookup(line) != PbLookup::Pending)
                    {
                        return (now, false);
                    }
                    all_ready = false;
                }
            }
        }
        if FETCH_WIDTH.min(downstream_free) > 0 {
            if let Some(LfState::Ready(ready)) = self.inflight.front().map(|lf| lf.state) {
                at = at.min(ready);
            }
        }
        if all_ready && self.inflight.len() < MAX_INFLIGHT {
            if let Some(slot) = self.queue.head_line() {
                at = at.min(self.l1_retry_at(slot.line, now).unwrap_or(now));
            }
        }
        if at <= now {
            return (now, false);
        }
        let (pf, mut view) = self.prefetch_view();
        match pf.next_event(now, &mut view) {
            Idle::Until(t) => (at.min(t).max(now), false),
            Idle::Stalled => (at, true),
        }
    }

    /// Account `cycles` quiescent cycles the engine skipped while
    /// [`next_event`](Self::next_event) reported a pre-buffer stall: each
    /// would have counted one `pb_alloc_stalls` and nothing else.
    pub fn skip_stalled(&mut self, cycles: u64) {
        self.stats.pb_alloc_stalls += cycles;
    }

    /// Lend the mechanism the view of everything a prefetch engine may
    /// touch (it cannot reach the in-flight fetch pipeline or the ports
    /// the fetch unit owns).  Disjoint field borrows — no take/put-back,
    /// no indirection.
    fn prefetch_view(&mut self) -> (&mut P, PrefetchView<'_>) {
        let FrontEnd {
            cfg,
            queue,
            pb,
            l1,
            l0,
            l1_copy_port,
            l1_copies,
            routes,
            next_synth,
            tlb,
            stats,
            pf,
            ..
        } = self;
        let view = PrefetchView {
            cfg,
            queue,
            pb: pb.as_mut(),
            l1,
            l0: l0.as_mut().map(|(l0, _)| l0),
            l1_copy_port,
            l1_copies,
            routes,
            next_synth,
            tlb: tlb.as_mut(),
            stats,
        };
        (pf, view)
    }

    // -- fetch path -------------------------------------------------------

    fn complete_l1_copies(&mut self, now: u64) {
        if self.l1_copies.is_empty() {
            return;
        }
        let pb = self.pb.as_mut().expect("copies require a pre-buffer");
        self.l1_copies.retain(|&(ready, id)| {
            if ready <= now {
                pb.complete(id);
                false
            } else {
                true
            }
        });
    }

    fn resolve_waiting_pb(&mut self, now: u64, l2: &mut L2System) {
        if self.pb.is_none() {
            return;
        }
        // One interleaved pass.  The ready path draws on the PB port and
        // the vanished path on the L0/L1 ports — disjoint, so resolving
        // in index order is identical to two categorized passes.
        for i in 0..self.inflight.len() {
            if self.inflight[i].state != LfState::WaitPb {
                continue;
            }
            let line = self.inflight[i].slot.line;
            match self.pb.as_ref().expect("checked above").lookup(line) {
                PbLookup::Valid => {
                    let ready = self.pb_port.start(now);
                    self.inflight[i].state = LfState::Ready(ready);
                }
                PbLookup::Pending => {}
                // The pending entry was replaced underneath the waiter
                // (possible only around flush races): fall back to a
                // fresh storage probe so the fetch always completes.
                PbLookup::Miss => {
                    let (state, source) = self.probe_storage(line, now, l2);
                    self.inflight[i].state = state;
                    self.inflight[i].source = source;
                }
            }
        }
    }

    /// Translate `line`'s page on the demand path: the cycle at which the
    /// array/L2 access may start (`now` with no TLB or on a hit; a miss
    /// serializes the page walk before the access).
    fn translate_demand(&mut self, line: Addr, now: u64) -> u64 {
        match &mut self.tlb {
            Some(tlb) => tlb.translate(line, now),
            None => now,
        }
    }

    /// Probe L0 and L1 for `line` (the pre-buffer was already consulted);
    /// on a full miss, raise a demand request.  `at` is the cycle the
    /// access may start — `now`, pushed out by a TLB walk if one was
    /// needed.
    fn probe_storage(&mut self, line: Addr, at: u64, l2: &mut L2System) -> (LfState, FetchSource) {
        if let Some((l0, port)) = &mut self.l0 {
            if l0.lookup(line) {
                let ready = port.start(at);
                return (LfState::Ready(ready), FetchSource::L0);
            }
        }
        if self.l1.lookup(line) {
            let ready = self.l1_port.start(at);
            (LfState::Ready(ready), FetchSource::L1)
        } else {
            let tag_done = self.l1_port.start(at);
            let req = match l2.find_pending(line) {
                Some(r) => {
                    l2.upgrade(r, ReqClass::IFetch);
                    r
                }
                None => l2.submit(line, ReqClass::IFetch, tag_done),
            };
            self.routes.get_or_insert(req).demand = true;
            (LfState::WaitMem(req), FetchSource::L2)
        }
    }

    fn deliver(&mut self, now: u64, downstream_free: u32, out: &mut Vec<Delivery>) {
        let width = FETCH_WIDTH.min(downstream_free);
        if width == 0 {
            return;
        }
        let Some(head) = self.inflight.front_mut() else {
            return;
        };
        let LfState::Ready(at) = head.state else {
            return;
        };
        if at > now {
            return;
        }
        let remaining = head.slot.n_insts - head.delivered;
        let n = remaining.min(width);
        let first_pc = head.slot.first_pc + head.delivered as u64 * INST_BYTES;
        head.delivered += n;
        let done = head.delivered == head.slot.n_insts;
        let delivery = Delivery {
            block_seq: head.slot.block_seq,
            first_pc,
            count: n,
            source: head.source,
            cycle: now,
            completes_block: done && head.slot.last_of_block,
        };
        // One batched counter update per delivery: the line count (first
        // delivery of the line only) and the instruction count land on the
        // same `SourceCount`, resolved once.
        let newly_counted = !head.counted;
        head.counted = true;
        {
            let stats = &mut self.stats;
            let c = match head.source {
                FetchSource::PreBuffer => &mut stats.fetch_pb,
                FetchSource::L0 => &mut stats.fetch_l0,
                FetchSource::L1 => &mut stats.fetch_l1,
                FetchSource::L2 => &mut stats.fetch_l2,
                FetchSource::Mem => &mut stats.fetch_mem,
            };
            c.lines += newly_counted as u64;
            c.insts += n as u64;
        }
        out.push(delivery);
        if done {
            let slot = head.slot;
            let source = head.source;
            self.inflight.pop_front();
            if source == FetchSource::PreBuffer {
                if let Some(pb) = &mut self.pb {
                    pb.consume(slot.line);
                    // Migration into the one-cycle reach — L0 when present
                    // (§3.1.1), else the L1 — is the mechanism's policy:
                    // FDP migrates, CLGP keeps buffer and caches disjoint.
                    // The fill carries the prefetch insertion class: these
                    // lines arrived speculatively, so the configured (or
                    // mechanism-chosen) policy may insert them at LRU or
                    // bypass the cache entirely.
                    if self.pf.migrate_used_lines() {
                        match &mut self.l0 {
                            Some((l0, _)) => {
                                l0.fill_with(slot.line, self.migrate_class);
                            }
                            None => {
                                self.l1.fill_with(slot.line, self.migrate_class);
                            }
                        }
                    }
                }
            }
        }
    }

    /// A blocking (non-pipelined) L1 whose port is busy leaves an
    /// L1-resident line that misses the pre-buffer queued, to retry when
    /// the port frees, rather than commit to a far-future access slot:
    /// that cycle, when `line` at the queue head is in this case.
    fn l1_retry_at(&self, line: Addr, now: u64) -> Option<u64> {
        let blocked = !self.cfg.l1_pipelined
            && !self.l1_port.can_start(now)
            && self.l1.contains(line)
            && self
                .pb
                .as_ref()
                .is_none_or(|pb| pb.lookup(line) == PbLookup::Miss);
        blocked.then(|| self.l1_port.next_start(now))
    }

    fn start_fetches(&mut self, now: u64, l2: &mut L2System) {
        while self.inflight.len() < MAX_INFLIGHT {
            // In-order fetch: a line waiting on memory (or on an in-flight
            // prestage fill) stalls the fetch engine; only ready hits may
            // overlap (which is what pipelined arrays exploit).  Without
            // this, the fetch unit itself would act as a 4-deep prefetcher
            // and mask the effect under study.
            if self
                .inflight
                .iter()
                .any(|lf| !matches!(lf.state, LfState::Ready(_)))
            {
                return;
            }
            let Some(slot) = self.queue.head_line() else {
                return;
            };
            let slot = *slot;
            let line = slot.line;

            // Parallel probe: pre-buffer and L0 are the fast sources.
            // Every arm that starts an access first translates the line's
            // page ([`translate_demand`](Self::translate_demand)): with no
            // TLB (or on a hit) the access starts at `now`, bit-identical
            // to the untranslated front-end; a miss serializes the page
            // walk ahead of the array/L2 access.
            let pb_state = self
                .pb
                .as_ref()
                .map_or(PbLookup::Miss, |pb| pb.lookup(line));
            let (state, source) = match pb_state {
                PbLookup::Valid | PbLookup::Pending => {
                    // A CLTQ slot the prefetch scan never reached carries no
                    // consumers count yet: account it now so the entry is
                    // pinned while the fetch unit depends on it (delivery
                    // decrements it back).
                    if !slot.prefetched {
                        if let Some(pb) = &mut self.pb {
                            if pb.kind() == PbKind::Clgp {
                                pb.bump_consumers(line);
                            }
                        }
                    }
                    if pb_state == PbLookup::Valid {
                        let at = self.translate_demand(line, now);
                        let ready = self.pb_port.start(at);
                        (LfState::Ready(ready), FetchSource::PreBuffer)
                    } else {
                        (LfState::WaitPb, FetchSource::PreBuffer)
                    }
                }
                PbLookup::Miss => {
                    // Checked before translating, so a retried line does
                    // not pay — or train — the TLB twice.
                    if self.l1_retry_at(line, now).is_some() {
                        return;
                    }
                    let at = self.translate_demand(line, now);
                    self.probe_storage(line, at, l2)
                }
            };
            self.queue.pop_head_line();
            // Observation hook: the mechanism sees the in-order fetch
            // stream (next-line triggers off it; MANA/program-map train
            // their tables and advance their stream expectations).
            self.pf.observe_fetch(&slot);
            self.inflight.push_back(LineFetch {
                slot,
                state,
                source,
                delivered: 0,
                counted: false,
            });
        }
    }
}
