//! The full-system cycle engine.
//!
//! Ties together the stream predictor, the decoupled front-end (queue +
//! prefetcher + fetch unit), the decode pipe and the RUU back-end, with the
//! paper's §4 methodology: the *correct* dynamic path comes from the trace
//! generator; the predictor runs ahead of fetch, and where its prediction
//! diverges from the trace the front-end keeps fetching down the predicted
//! (wrong) path through the basic-block dictionary — consuming fetch
//! bandwidth, cache ports and bus slots — until the mispredicted branch
//! resolves in the back-end, at which point the front-end is flushed, the
//! predictor's speculative state (path history + RAS) is restored from its
//! checkpoint, and fetch resumes on the correct path.
//!
//! Wrong-path instructions are fetched and prefetched but never dispatched
//! into the RUU.  This is a deliberate simplification: they cost fetch
//! bandwidth, cache ports and bus slots, which is what a fetch study
//! measures, and then evaporate at decode, so they never occupy RUU entries
//! or access the D-cache.
//!
//! # How time advances
//!
//! The machine spends long stretches waiting on a 200-cycle memory, a
//! multi-cycle L2 and a one-grant-per-cycle bus, and in about half of all
//! cycles no unit changes any state.  The engine does not run those
//! cycles.  Each per-cycle unit reports a `next_event`: the earliest cycle
//! `>= now` at which its tick could change any state, assuming nothing
//! outside it changes meanwhile.
//!
//! * [`L2System`]: the first cycle a queued request becomes eligible for a
//!   grant, or the first in-flight completion.
//! * [`BackEnd`]: its issue horizon, the head entry's completion (commit),
//!   and the cycle before the oldest unresolved mispredict completes.
//! * [`FrontEnd`]: pending L1 copies, a line waiting on a pre-buffer entry
//!   that stopped being pending, the head line's ready time when decode
//!   has slots, a fetch start or blocked L1 retry, and the mechanism's
//!   answer through [`InstrPrefetcher::next_event`].
//! * The engine itself: prediction acts now while the queue has space,
//!   and dispatch acts at the decode head's ready time while the RUU has a
//!   free slot.
//!
//! At the top of each loop iteration the engine takes the minimum; when it
//! lies past `now`, the clock jumps straight to it.  Only two counters
//! tick on a cycle in which nothing else changes, and the jump adds the
//! skipped span to both: `BackendStats::commit_stall_cycles` always, and
//! `FrontStats::pb_alloc_stalls` when the mechanism reported
//! [`Idle::Stalled`](prestage_core::Idle::Stalled) (head of line on a
//! full pre-buffer).  Everything else is frozen over the span, so the
//! result is bit-identical to ticking through it.
//!
//! Two rules keep the jump exact.  It happens after the committed-target
//! check and before the cycle runs, so a skipped span never straddles the
//! warm-up/measurement boundary or the end of a cell (idle cycles commit
//! nothing).  And it stops one cycle short of the wedge deadline, so a
//! wedged machine fails its assert at the same cycle with the same
//! message.
//!
//! A unit that cannot prove it is idle must report `now`.  That is always
//! correct and only costs speed; reporting a cycle past one in which the
//! unit would act breaks bit-exactness.  A new prefetch mechanism
//! therefore starts with `Idle::Until(now)` and earns its skips by
//! following its tick's early exits.  The horizon contract tests in the
//! cache, core and sim crates tick each unit at every cycle its
//! `next_event` calls idle and check that only the named counters move.

use crate::backend::BackEnd;
use crate::config::SimConfig;
use crate::stats::SimStats;
use prestage_bpred::{
    GshareCheckpoint, GsharePredictor, PredCheckpoint, StreamDesc, StreamPrediction,
    StreamPredictor,
};
use prestage_cache::{Completion, L2Config, L2System, ReqClass, TlbCheckpoint};
use prestage_core::config::{MAX_INFLIGHT, QUEUE_BLOCKS};
use prestage_core::{
    ClgpPrefetcher, Delivery, FdpPrefetcher, FrontEnd, InstrPrefetcher, ManaPrefetcher,
    NextLinePrefetcher, NoPrefetcher, PrefetchCheckpoint, PrefetcherKind, ProgMapPrefetcher,
};
use prestage_isa::{Addr, INST_BYTES};
use prestage_workload::{DynInst, InstSource, TraceGenerator, Workload};
use std::collections::VecDeque;

#[derive(Debug)]
struct BlockInfo {
    /// Block start PC (the predicted fetch block's first instruction).
    start: Addr,
    /// Correct-path instructions of this block (empty for wrong-path
    /// blocks; a prefix for the diverging block).
    insts: Vec<DynInst>,
    /// Index of the mispredicted instruction, if this block diverges.
    mispredict_idx: Option<u32>,
}

/// In-flight fetch blocks, keyed by their (strictly increasing) sequence
/// number.  Successive seqs map to successive ring slots, so lookup and
/// removal are O(1) index arithmetic instead of the `BTreeMap` walk the
/// first implementation paid on every delivery.
#[derive(Debug, Default)]
struct BlockRing {
    /// Sequence number of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<BlockInfo>>,
    live: usize,
}

impl BlockRing {
    /// Insert under `seq`, which must be >= every previously inserted seq
    /// (block seqs are handed out monotonically).
    fn insert(&mut self, seq: u64, info: BlockInfo) {
        if self.slots.is_empty() {
            self.base = seq;
        }
        let Some(idx) = seq.checked_sub(self.base) else {
            unreachable!("block seq {seq} inserted below ring base {}", self.base)
        };
        // prestage: allow(unwrap-in-lib, idx counts live blocks — a window that would overflow usize cannot be allocated)
        let idx = usize::try_from(idx).expect("live block window fits in memory");
        debug_assert!(idx >= self.slots.len(), "block seqs must arrive in order");
        while self.slots.len() < idx {
            self.slots.push_back(None);
        }
        self.slots.push_back(Some(info));
        self.live += 1;
    }

    fn get(&self, seq: u64) -> Option<&BlockInfo> {
        let idx = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        self.slots.get(idx)?.as_ref()
    }

    fn remove(&mut self, seq: u64) -> Option<BlockInfo> {
        let idx = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        let info = self.slots.get_mut(idx)?.take()?;
        self.live -= 1;
        // Advance the base past drained slots so the ring stays short.
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(info)
    }

    fn len(&self) -> usize {
        self.live
    }

    /// Drop every block, recycling instruction buffers into `pool`.
    fn clear_into(&mut self, pool: &mut Vec<Vec<DynInst>>) {
        for info in self.slots.drain(..).flatten() {
            recycle(pool, info.insts);
        }
        self.live = 0;
    }
}

/// Cap on pooled instruction buffers: enough for every live block plus the
/// pending-truth queue in any sane configuration.
const VEC_POOL_CAP: usize = 64;

fn recycle(pool: &mut Vec<Vec<DynInst>>, mut v: Vec<DynInst>) {
    if v.capacity() > 0 && pool.len() < VEC_POOL_CAP {
        v.clear();
        pool.push(v);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PathState {
    /// Predictions are being checked against the trace.
    OnPath,
    /// Fetching the predicted (wrong) path from `next_start`.
    WrongPath { next_start: Addr },
}

#[derive(Debug)]
struct RedirectInfo {
    /// RUU sequence number of the mispredicted instruction, known once it
    /// dispatches.
    ruu_seq: Option<u64>,
    checkpoint: PredictorCheckpoint,
    /// Prefetch-mechanism speculative state at the divergence point,
    /// reinstated after the redirect flush (wrong-path fetches must not
    /// corrupt a mechanism's training cursors / stream expectations).
    pf_checkpoint: PrefetchCheckpoint,
    /// i-TLB contents at the divergence point (empty when no TLB is
    /// configured): wrong-path translations are unwound on redirect so a
    /// checkpointed replay matches the live run bit for bit.
    tlb_checkpoint: TlbCheckpoint,
}

/// Which fetch-block predictor drives the front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PredictorKind {
    /// The paper's cascaded 1K+6K stream predictor (Table 2).
    #[default]
    Stream,
    /// A 16K-entry gshare over the basic-block dictionary: the ablation
    /// baseline quantifying how prefetching quality tracks predictor
    /// quality (related work §2.1).
    Gshare,
}

impl PredictorKind {
    /// Both kinds, paper's first.
    pub fn all() -> [PredictorKind; 2] {
        [PredictorKind::Stream, PredictorKind::Gshare]
    }

    /// Stable identifier used by `ExperimentSpec` JSON and the CLI.
    pub fn id(self) -> &'static str {
        match self {
            PredictorKind::Stream => "stream",
            PredictorKind::Gshare => "gshare",
        }
    }

    /// Parse an [`id`](Self::id) (case-insensitive).
    pub fn from_id(s: &str) -> Option<PredictorKind> {
        match s.trim().to_lowercase().as_str() {
            "stream" => Some(PredictorKind::Stream),
            "gshare" => Some(PredictorKind::Gshare),
            _ => None,
        }
    }
}

/// The fetch-block predictor, as one type so one engine serves both.
#[derive(Debug)]
enum AnyPredictor {
    Stream(StreamPredictor),
    Gshare(GsharePredictor),
}

#[derive(Debug, Clone)]
enum PredictorCheckpoint {
    Stream(PredCheckpoint),
    Gshare(GshareCheckpoint),
}

/// Training context captured before a prediction.
enum PredictorToken {
    Stream(prestage_bpred::predictor::TrainToken),
    Gshare,
}

impl AnyPredictor {
    fn new(kind: PredictorKind) -> Self {
        match kind {
            PredictorKind::Stream => AnyPredictor::Stream(StreamPredictor::paper_default()),
            PredictorKind::Gshare => AnyPredictor::Gshare(GsharePredictor::default_16k()),
        }
    }

    fn token(&self, start: prestage_isa::Addr) -> PredictorToken {
        match self {
            AnyPredictor::Stream(p) => PredictorToken::Stream(p.token(start)),
            AnyPredictor::Gshare(_) => PredictorToken::Gshare,
        }
    }

    fn predict(
        &mut self,
        start: prestage_isa::Addr,
        prog: &prestage_isa::Program,
    ) -> StreamPrediction {
        match self {
            AnyPredictor::Stream(p) => p.predict(start, prog),
            AnyPredictor::Gshare(p) => p.predict(start, prog),
        }
    }

    /// Predict reusing the table indices captured in `tok` (taken at the
    /// same start address with the same speculative history) — identical
    /// result to [`predict`](Self::predict), minus recomputing them.
    fn predict_with_token(
        &mut self,
        tok: &PredictorToken,
        start: prestage_isa::Addr,
        prog: &prestage_isa::Program,
    ) -> StreamPrediction {
        match (self, tok) {
            (AnyPredictor::Stream(p), PredictorToken::Stream(t)) => {
                p.predict_with_token(t, start, prog)
            }
            (AnyPredictor::Gshare(p), _) => p.predict(start, prog),
            _ => unreachable!("token/predictor mismatch"),
        }
    }

    fn train(&mut self, tok: &PredictorToken, actual: &StreamDesc, was_correct: bool) {
        match (self, tok) {
            (AnyPredictor::Stream(p), PredictorToken::Stream(t)) => {
                p.train_with_token(t, actual, was_correct)
            }
            (AnyPredictor::Gshare(p), _) => p.train(actual),
            _ => unreachable!("token/predictor mismatch"),
        }
    }

    fn checkpoint(&self) -> PredictorCheckpoint {
        match self {
            AnyPredictor::Stream(p) => PredictorCheckpoint::Stream(p.checkpoint()),
            AnyPredictor::Gshare(p) => PredictorCheckpoint::Gshare(p.checkpoint()),
        }
    }

    fn restore(&mut self, cp: &PredictorCheckpoint) {
        match (self, cp) {
            (AnyPredictor::Stream(p), PredictorCheckpoint::Stream(c)) => p.restore(c),
            (AnyPredictor::Gshare(p), PredictorCheckpoint::Gshare(c)) => p.restore(c),
            _ => unreachable!("checkpoint/predictor mismatch"),
        }
    }

    fn stats(&self) -> prestage_bpred::PredStats {
        match self {
            AnyPredictor::Stream(p) => *p.stats(),
            AnyPredictor::Gshare(_) => prestage_bpred::PredStats::default(),
        }
    }

    fn reset_stats(&mut self) {
        if let AnyPredictor::Stream(p) = self {
            p.reset_stats();
        }
    }
}

/// Pipeline stages between fetch delivery and RUU dispatch (decode,
/// rename and dispatch of the 15-stage pipeline).
const DECODE_STAGES: u64 = 4;

#[derive(Debug, Clone, Copy)]
struct DecodeEntry {
    ready: u64,
    inst: DynInst,
    mispredict: bool,
}

/// The full-system simulator for one (workload, configuration) pair.
///
/// The committed path arrives through an [`InstSource`]: the live
/// [`TraceGenerator`] by default, or a disk replay via
/// [`Engine::with_source`] — the engine cannot tell the difference, which
/// is what makes replayed sweeps bit-exact.
///
/// `Engine` is a thin enum over the internal `EngineImpl`, monomorphized per prefetch
/// mechanism: the one `match` at construction picks the variant, and from
/// then on every per-cycle prefetcher hook (tick / observe-fetch /
/// migration policy) is a statically dispatched — and inlinable — call
/// instead of a virtual one.
pub struct Engine<'w>(EngineInner<'w>);

enum EngineInner<'w> {
    None(EngineImpl<'w, NoPrefetcher>),
    NextLine(EngineImpl<'w, NextLinePrefetcher>),
    Fdp(EngineImpl<'w, FdpPrefetcher>),
    Clgp(EngineImpl<'w, ClgpPrefetcher>),
    Mana(EngineImpl<'w, ManaPrefetcher>),
    ProgMap(EngineImpl<'w, ProgMapPrefetcher>),
}

/// Dispatch once on the mechanism variant, then run `$body` with `$e`
/// bound to the concrete `EngineImpl`.
macro_rules! for_each_engine {
    ($inner:expr, $e:ident => $body:expr) => {
        match $inner {
            EngineInner::None($e) => $body,
            EngineInner::NextLine($e) => $body,
            EngineInner::Fdp($e) => $body,
            EngineInner::Clgp($e) => $body,
            EngineInner::Mana($e) => $body,
            EngineInner::ProgMap($e) => $body,
        }
    };
}

impl<'w> Engine<'w> {
    pub fn new(cfg: SimConfig, w: &'w Workload, exec_seed: u64) -> Self {
        Self::with_predictor(cfg, w, exec_seed, PredictorKind::Stream)
    }

    /// Build an engine with an explicit fetch-block predictor (ablation).
    pub fn with_predictor(
        cfg: SimConfig,
        w: &'w Workload,
        exec_seed: u64,
        predictor: PredictorKind,
    ) -> Self {
        Self::with_source(
            cfg,
            w,
            Box::new(TraceGenerator::new(w, exec_seed)),
            predictor,
        )
    }

    /// Build an engine over an arbitrary committed-path source — the replay
    /// entry point.  `w` must be the workload the source's instructions
    /// were generated from (the engine still walks its basic-block
    /// dictionary for wrong-path fetch and dispatch).
    pub fn with_source(
        cfg: SimConfig,
        w: &'w Workload,
        src: Box<dyn InstSource + 'w>,
        predictor: PredictorKind,
    ) -> Self {
        Engine(match cfg.frontend.prefetcher {
            PrefetcherKind::None => {
                EngineInner::None(EngineImpl::with_source(cfg, w, src, predictor))
            }
            PrefetcherKind::NextLine => {
                EngineInner::NextLine(EngineImpl::with_source(cfg, w, src, predictor))
            }
            PrefetcherKind::Fdp => {
                EngineInner::Fdp(EngineImpl::with_source(cfg, w, src, predictor))
            }
            PrefetcherKind::Clgp => {
                EngineInner::Clgp(EngineImpl::with_source(cfg, w, src, predictor))
            }
            PrefetcherKind::Mana => {
                EngineInner::Mana(EngineImpl::with_source(cfg, w, src, predictor))
            }
            PrefetcherKind::ProgMap => {
                EngineInner::ProgMap(EngineImpl::with_source(cfg, w, src, predictor))
            }
        })
    }

    /// Run warm-up + measurement; returns the measured-window statistics.
    pub fn run(self) -> SimStats {
        for_each_engine!(self.0, e => e.run())
    }

    /// Committed instructions so far (including warm-up until reset).
    pub fn committed(&self) -> u64 {
        for_each_engine!(&self.0, e => e.committed())
    }
}

/// The concrete cycle engine, generic over its prefetch mechanism.
struct EngineImpl<'w, P: InstrPrefetcher> {
    cfg: SimConfig,
    w: &'w Workload,
    src: Box<dyn InstSource + 'w>,
    pred: AnyPredictor,
    fe: FrontEnd<P>,
    be: BackEnd,
    l2: L2System,
    clock: u64,

    next_seq: u64,
    /// Truth streams waiting to be predicted (partial streams after a
    /// mid-stream divergence resume here).
    pending_truth: VecDeque<(StreamDesc, Vec<DynInst>)>,
    blocks: BlockRing,
    path: PathState,
    redirect: Option<RedirectInfo>,
    decode: VecDeque<DecodeEntry>,

    redirects: u64,
    deliveries: Vec<Delivery>,
    completions: Vec<Completion>,
    /// Recycled instruction buffers: every truth stream and block split
    /// draws from here, so steady-state prediction never allocates.
    vec_pool: Vec<Vec<DynInst>>,
}

impl<'w, P: InstrPrefetcher> EngineImpl<'w, P> {
    fn with_source(
        cfg: SimConfig,
        w: &'w Workload,
        src: Box<dyn InstSource + 'w>,
        predictor: PredictorKind,
    ) -> Self {
        EngineImpl {
            src,
            pred: AnyPredictor::new(predictor),
            fe: FrontEnd::new(cfg.frontend),
            be: BackEnd::new(cfg.backend),
            l2: L2System::new(L2Config::for_node(cfg.frontend.tech)),
            clock: 0,
            next_seq: 0,
            pending_truth: VecDeque::new(),
            blocks: BlockRing::default(),
            path: PathState::OnPath,
            redirect: None,
            decode: VecDeque::new(),
            redirects: 0,
            deliveries: Vec::with_capacity(8),
            completions: Vec::with_capacity(8),
            vec_pool: Vec::new(),
            cfg,
            w,
        }
    }

    fn pooled(&mut self) -> Vec<DynInst> {
        self.vec_pool.pop().unwrap_or_default()
    }

    /// Run warm-up + measurement; returns the measured-window statistics.
    fn run(mut self) -> SimStats {
        self.run_until_committed(self.cfg.warmup_insts);
        // Reset counters; keep all warm state.
        self.fe.reset_stats();
        self.l2.reset_stats();
        self.be.reset_stats();
        self.pred.reset_stats();
        self.redirects = 0;
        let cycles_start = self.clock;

        let target = self.cfg.measure_insts;
        self.run_until_committed(target);
        // End-of-cell invariant: the hot-path tables must have drained to
        // their steady-state bounds, not leaked (a route or block that
        // never completes would grow them without limit).
        debug_assert!(
            self.fe.routes_len() <= self.l2.outstanding(),
            "routes leaked past the outstanding L2 requests: {} routes, {} outstanding",
            self.fe.routes_len(),
            self.l2.outstanding()
        );
        debug_assert!(
            self.blocks.len() <= QUEUE_BLOCKS + MAX_INFLIGHT + 1,
            "live fetch blocks leaked: {}",
            self.blocks.len()
        );

        SimStats {
            seed: self.w.seed,
            cycles: self.clock - cycles_start,
            committed: self.be.committed(),
            front: *self.fe.stats(),
            bus: *self.l2.stats(),
            pred: self.pred.stats(),
            backend: *self.be.stats(),
            redirects: self.redirects,
        }
    }

    fn run_until_committed(&mut self, target: u64) {
        let start = self.be.committed();
        // Generous safety valve: nothing legitimate runs below 0.01 IPC.
        let deadline = self.clock + target * 120 + 1_000_000;
        while self.be.committed() - start < target {
            // Skip here, after the target check and before the cycle, so a
            // skipped span never crosses the end of a run; the clamp keeps
            // a wedged machine failing at the same cycle.
            self.skip_quiescent(deadline - 1);
            self.cycle();
            assert!(
                self.clock < deadline,
                "simulation wedged: {} committed of {target} after {} cycles",
                self.be.committed() - start,
                self.clock
            );
        }
    }

    /// Jump the clock to the machine's next event, but not past `limit`,
    /// accounting the skipped cycles exactly as ticking through them
    /// would have: each counts one commit stall, and one pre-buffer
    /// allocation stall when the mechanism is stalled at head of line.
    fn skip_quiescent(&mut self, limit: u64) {
        let now = self.clock;
        let (at, pb_stalled) = self.next_event(now);
        let to = at.min(limit);
        if to <= now {
            return;
        }
        let cycles = to - now;
        self.be.skip_idle(cycles);
        if pb_stalled {
            self.fe.skip_stalled(cycles);
        }
        self.clock = to;
    }

    /// The earliest cycle `>= now` at which [`cycle`](Self::cycle) could
    /// change any state other than the two stall counters, and whether the
    /// front-end counts a pre-buffer stall in each cycle before it.  The
    /// engine's own stages act when the queue has space (prediction) or
    /// the decode head is ready for a free RUU slot (dispatch).  Cheap and
    /// usually decisive checks come first.
    fn next_event(&mut self, now: u64) -> (u64, bool) {
        if self.fe.has_queue_space() {
            return (now, false);
        }
        let mut at = self.l2.next_event(now).min(self.be.next_event(now));
        if self.be.free_slots() > 0 {
            if let Some(e) = self.decode.front() {
                at = at.min(e.ready);
            }
        }
        if at <= now {
            return (now, false);
        }
        let (fe_at, pb_stalled) = self.fe.next_event(now, self.decode_free());
        (at.min(fe_at), pb_stalled)
    }

    /// Decode-buffer slots free for this cycle's front-end deliveries.
    fn decode_free(&self) -> u32 {
        self.cfg
            .decode_buffer
            .saturating_sub(u32::try_from(self.decode.len()).unwrap_or(u32::MAX))
    }

    /// Advance the whole machine by one cycle.
    fn cycle(&mut self) {
        let now = self.clock;

        // 1. Memory-system completions route to their requesters.
        let mut completions = std::mem::take(&mut self.completions);
        self.l2.tick_into(now, &mut completions);
        for c in &completions {
            match c.class {
                ReqClass::DCache => self.be.on_completion(c),
                _ => self.fe.on_completion(c),
            }
        }
        self.completions = completions;

        // 2. Back-end: issue, resolve branches, commit.
        let bt = self.be.tick(now, &mut self.l2);
        if let Some(seq) = bt.resolved_mispredict {
            self.do_redirect(seq);
        }

        // 3. Front-end fetch (bounded by decode-buffer space).
        let free = self.decode_free();
        self.deliveries.clear();
        let mut deliveries = std::mem::take(&mut self.deliveries);
        self.fe.tick(now, &mut self.l2, free, &mut deliveries);
        for d in &deliveries {
            self.route_delivery(d);
        }
        self.deliveries = deliveries;

        // 4. Dispatch decoded instructions into the RUU.
        let mut width = self.cfg.backend.width;
        while width > 0 && self.be.free_slots() > 0 {
            let Some(&e) = self.decode.front() else { break };
            if e.ready > now {
                break;
            }
            self.decode.pop_front();
            let st = self.w.program.block(e.inst.block).insts[e.inst.idx as usize];
            let ruu_seq = self.be.dispatch(&st, e.inst.mem_addr, e.mispredict);
            if e.mispredict {
                if let Some(r) = &mut self.redirect {
                    r.ruu_seq = Some(ruu_seq);
                }
            }
            width -= 1;
        }

        // 5. Prediction: one fetch block per cycle into the queue.
        if self.fe.has_queue_space() {
            self.predict_one_block();
        }

        #[cfg(debug_assertions)]
        self.assert_hot_state_bounded();

        self.clock += 1;
    }

    /// Per-cycle invariants over the flat hot-path tables: every live
    /// block is queued, in flight through the fetch unit, or the one
    /// predicted this cycle; every route maps to an outstanding L2
    /// request.  Both checks are O(1) — counters against counters.
    #[cfg(debug_assertions)]
    fn assert_hot_state_bounded(&self) {
        let block_bound = QUEUE_BLOCKS + MAX_INFLIGHT + 1;
        debug_assert!(
            self.blocks.len() <= block_bound,
            "cycle {}: {} live fetch blocks exceed the structural bound {block_bound}",
            self.clock,
            self.blocks.len()
        );
        debug_assert!(
            self.fe.routes_len() <= self.l2.outstanding(),
            "cycle {}: {} routes for {} outstanding L2 requests",
            self.clock,
            self.fe.routes_len(),
            self.l2.outstanding()
        );
    }

    /// Match a front-end delivery against its block's correct-path
    /// instructions; wrong-path deliveries evaporate here.
    fn route_delivery(&mut self, d: &Delivery) {
        let ready = d.cycle + DECODE_STAGES;
        let Some(info) = self.blocks.get(d.block_seq) else {
            return;
        };
        // `as u32` here could alias a far-out-of-range delivery back into
        // the block (the PR 5 truncation class); an offset that does not
        // fit is by definition outside the block, so it evaporates.
        let Ok(base) = u32::try_from((d.first_pc - info.start) / INST_BYTES) else {
            return;
        };
        for k in 0..d.count {
            let idx = base + k;
            if let Some(di) = info.insts.get(idx as usize) {
                self.decode.push_back(DecodeEntry {
                    ready,
                    inst: *di,
                    mispredict: info.mispredict_idx == Some(idx),
                });
            }
        }
        if d.completes_block {
            if let Some(info) = self.blocks.remove(d.block_seq) {
                recycle(&mut self.vec_pool, info.insts);
            }
        }
    }

    /// A mispredicted branch resolved in the back-end: flush and restart
    /// the front-end on the correct path.
    fn do_redirect(&mut self, ruu_seq: u64) {
        let Some(r) = self.redirect.take() else {
            return;
        };
        debug_assert_eq!(r.ruu_seq, Some(ruu_seq));
        self.fe.flush();
        self.fe.prefetcher_restore(&r.pf_checkpoint);
        self.fe.tlb_restore(&r.tlb_checkpoint);
        self.decode.clear();
        self.blocks.clear_into(&mut self.vec_pool);
        self.pred.restore(&r.checkpoint);
        self.path = PathState::OnPath;
        self.redirects += 1;
        // Redirect-flush invariant: no speculative per-cycle state survives
        // the flush (routes do, deliberately — demand completions still in
        // flight warm the caches exactly as wrong-path fills would).
        debug_assert!(
            self.blocks.len() == 0 && self.decode.is_empty(),
            "redirect flush left speculative state behind"
        );
    }

    /// Generate one fetch block from the predictor and hand it to the
    /// front-end, comparing against the trace when on the correct path.
    fn predict_one_block(&mut self) {
        let seq = self.next_seq;
        match self.path {
            PathState::WrongPath { next_start } => {
                // Keep running down the predicted path through the
                // dictionary: fetches/prefetches happen, nothing retires.
                let p = self.pred.predict(next_start, &self.w.program);
                let len = p.stream.len.max(1);
                if self.fe.push_block(seq, p.stream.start, len) {
                    self.next_seq += 1;
                    self.blocks.insert(
                        seq,
                        BlockInfo {
                            start: p.stream.start,
                            insts: Vec::new(),
                            mispredict_idx: None,
                        },
                    );
                    self.path = PathState::WrongPath {
                        next_start: p.stream.next.max(4),
                    };
                }
            }
            PathState::OnPath => {
                // Pull the next truth stream (a partial stream first, after
                // a mid-stream split/divergence).
                let (actual, mut insts) = match self.pending_truth.pop_front() {
                    Some(x) => x,
                    None => {
                        let mut buf = self.pooled();
                        let s = self.src.next_stream(&mut buf);
                        (s, buf)
                    }
                };
                let checkpoint = self.pred.checkpoint();
                let token = self.pred.token(actual.start);
                let p = self
                    .pred
                    .predict_with_token(&token, actual.start, &self.w.program);
                let ps = p.stream;
                debug_assert_eq!(ps.start, actual.start);

                if ps.same_flow(&actual) {
                    self.pred.train(&token, &actual, true);
                    if self.fe.push_block(seq, actual.start, actual.len) {
                        self.next_seq += 1;
                        self.blocks.insert(
                            seq,
                            BlockInfo {
                                start: actual.start,
                                insts,
                                mispredict_idx: None,
                            },
                        );
                    } else {
                        // Queue full: retry the same stream next cycle.
                        self.pending_truth.push_front((actual, insts));
                        self.pred.restore(&checkpoint);
                    }
                    return;
                }

                let plen = ps.len;
                let alen = actual.len;
                // Benign split: the predictor cut the stream short but
                // continues sequentially — two blocks instead of one, no
                // actual misprediction.
                if plen < alen && ps.next == actual.start + plen as u64 * INST_BYTES {
                    self.pred.train(&token, &actual, false);
                    if self.fe.push_block(seq, actual.start, plen) {
                        self.next_seq += 1;
                        let mut tail_insts = self.pooled();
                        let tail = split_stream(&actual, &mut insts, plen, &mut tail_insts);
                        self.blocks.insert(
                            seq,
                            BlockInfo {
                                start: actual.start,
                                insts,
                                mispredict_idx: None,
                            },
                        );
                        self.pending_truth.push_front((tail, tail_insts));
                    } else {
                        self.pending_truth.push_front((actual, insts));
                        self.pred.restore(&checkpoint);
                    }
                    return;
                }

                // Real divergence.
                self.pred.train(&token, &actual, false);
                if !self.fe.push_block(seq, actual.start, plen.max(1)) {
                    self.pending_truth.push_front((actual, insts));
                    self.pred.restore(&checkpoint);
                    return;
                }
                self.next_seq += 1;
                let mispredict_idx = if plen < alen {
                    // Predictor broke out of the stream early: everything
                    // it fetched is still correct path; the instruction at
                    // the break point is the mispredicted branch, and the
                    // correct path resumes mid-stream.
                    let mut tail_insts = self.pooled();
                    let tail = split_stream(&actual, &mut insts, plen, &mut tail_insts);
                    self.pending_truth.push_front((tail, tail_insts));
                    plen - 1
                } else {
                    // Predictor sailed past the actual taken end (or got
                    // the target wrong): the actual stream's instructions
                    // are correct, its final CTI is the mispredicted one,
                    // and anything beyond is wrong path.
                    alen - 1
                };
                self.blocks.insert(
                    seq,
                    BlockInfo {
                        start: actual.start,
                        insts,
                        mispredict_idx: Some(mispredict_idx),
                    },
                );
                self.redirect = Some(RedirectInfo {
                    ruu_seq: None,
                    checkpoint,
                    pf_checkpoint: self.fe.prefetcher_checkpoint(),
                    tlb_checkpoint: self.fe.tlb_checkpoint(),
                });
                self.path = PathState::WrongPath {
                    next_start: ps.next.max(4),
                };
            }
        }
    }

    /// Committed instructions so far (including warm-up until reset).
    fn committed(&self) -> u64 {
        self.be.committed()
    }
}

/// Split a truth stream at instruction index `at`: `insts` is truncated to
/// the head in place, the tail instructions are copied into `tail_insts`
/// (cleared first), and the tail descriptor is returned.
fn split_stream(
    s: &StreamDesc,
    insts: &mut Vec<DynInst>,
    at: u32,
    tail_insts: &mut Vec<DynInst>,
) -> StreamDesc {
    debug_assert!(at >= 1 && at < s.len);
    tail_insts.clear();
    tail_insts.extend_from_slice(&insts[at as usize..]);
    insts.truncate(at as usize);
    StreamDesc {
        start: s.start + at as u64 * INST_BYTES,
        len: s.len - at,
        next: s.next,
        end: s.end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConfigPreset, SimConfig};
    use prestage_cacti::TechNode;
    use prestage_workload::{build, specint2000};

    fn tiny(name: &str) -> Workload {
        let mut p = specint2000().into_iter().find(|p| p.name == name).unwrap();
        p.i_footprint_kb = p.i_footprint_kb.min(16);
        p.n_funcs = p.n_funcs.min(24);
        build(&p, 42)
    }

    fn quick(preset: ConfigPreset, tech: TechNode, l1_kb: usize, w: &Workload) -> SimStats {
        let cfg = SimConfig::preset(preset, tech, l1_kb << 10).with_insts(20_000, 60_000);
        Engine::new(cfg, w, 7).run()
    }

    #[test]
    fn engine_completes_and_reports_sane_ipc() {
        let w = tiny("gzip");
        let s = quick(ConfigPreset::Base, TechNode::T045, 8, &w);
        assert_eq!(s.committed, 60_000 + (s.committed - 60_000)); // committed >= target
        assert!(s.ipc() > 0.05 && s.ipc() < 4.0, "ipc {}", s.ipc());
        assert!(s.redirects > 0, "no mispredictions at all?");
        assert!(s.front.total_fetch_insts() >= s.committed);
    }

    #[test]
    fn ideal_beats_base_beats_nothing() {
        let w = tiny("vortex");
        let base = quick(ConfigPreset::Base, TechNode::T045, 4, &w);
        let ideal = quick(ConfigPreset::Ideal, TechNode::T045, 4, &w);
        assert!(
            ideal.ipc() > base.ipc(),
            "ideal {} <= base {}",
            ideal.ipc(),
            base.ipc()
        );
    }

    #[test]
    fn clgp_fetches_mostly_from_prestage_buffer() {
        let w = tiny("vortex");
        let s = quick(ConfigPreset::Clgp, TechNode::T045, 8, &w);
        let share = s.front.fetch_share(s.front.fetch_pb);
        assert!(
            share > 0.5,
            "CLGP prestage share only {:.1}%",
            share * 100.0
        );
    }

    #[test]
    fn deterministic_runs() {
        let w = tiny("twolf");
        let a = quick(ConfigPreset::Clgp, TechNode::T045, 8, &w);
        let b = quick(ConfigPreset::Clgp, TechNode::T045, 8, &w);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.redirects, b.redirects);
    }
}

#[cfg(test)]
mod accounting_tests {
    use super::*;
    use crate::config::{ConfigPreset, SimConfig};
    use prestage_cacti::TechNode;
    use prestage_workload::{build, specint2000};

    fn tiny(name: &str) -> Workload {
        let mut p = specint2000().into_iter().find(|p| p.name == name).unwrap();
        p.i_footprint_kb = p.i_footprint_kb.min(16);
        p.n_funcs = p.n_funcs.min(24);
        build(&p, 42)
    }

    #[test]
    fn fetches_cover_commits_and_redirects_match_training() {
        let w = tiny("crafty");
        let cfg = SimConfig::preset(ConfigPreset::ClgpL0, TechNode::T045, 4 << 10)
            .with_insts(20_000, 60_000);
        let s = Engine::new(cfg, &w, 7).run();
        // Every committed instruction was fetched (plus wrong-path extras).
        assert!(s.front.total_fetch_insts() >= s.committed);
        // Every redirect corresponds to a trained-incorrect stream; counts
        // are reset together at the warm-up boundary so they must be close
        // (trained-incorrect also counts benign splits, so it dominates).
        let wrong = s.pred.trained - s.pred.train_correct;
        assert!(
            s.redirects <= wrong,
            "redirects {} exceed mispredicted streams {}",
            s.redirects,
            wrong
        );
        assert!(s.redirects > 0);
    }

    #[test]
    fn gshare_engine_runs_and_underperforms_stream_predictor() {
        let w = tiny("vortex");
        let cfg = SimConfig::preset(ConfigPreset::ClgpL0, TechNode::T045, 4 << 10)
            .with_insts(20_000, 60_000);
        let stream = Engine::with_predictor(cfg, &w, 7, PredictorKind::Stream)
            .run()
            .ipc();
        let gshare = Engine::with_predictor(cfg, &w, 7, PredictorKind::Gshare)
            .run()
            .ipc();
        assert!(gshare > 0.05, "gshare engine wedged: {gshare}");
        assert!(
            stream > gshare,
            "stream predictor should win: {stream} vs {gshare}"
        );
    }

    #[test]
    fn mana_and_progmap_engines_run_and_prefetch() {
        // The new mechanisms behind `PrefetcherKind` drive a full engine
        // to completion, actually issue prefetches, and serve fetches
        // from the pre-buffer they fill.
        let w = tiny("vortex");
        for kind in [
            prestage_core::PrefetcherKind::Mana,
            prestage_core::PrefetcherKind::ProgMap,
        ] {
            let cfg = SimConfig::preset(ConfigPreset::Base, TechNode::T045, 4 << 10)
                .with_insts(20_000, 60_000)
                .with_prefetcher(kind);
            let s = Engine::new(cfg, &w, 7).run();
            assert!(s.ipc() > 0.05, "{kind:?} wedged: ipc {}", s.ipc());
            assert!(s.front.prefetches_issued > 0, "{kind:?} issued nothing");
            assert!(
                s.front.fetch_pb.lines > 0,
                "{kind:?} never served a fetch from the pre-buffer"
            );
            // Determinism: same config, same seed, same counters.
            let cfg2 = SimConfig::preset(ConfigPreset::Base, TechNode::T045, 4 << 10)
                .with_insts(20_000, 60_000)
                .with_prefetcher(kind);
            let t = Engine::new(cfg2, &w, 7).run();
            assert_eq!(s, t, "{kind:?} is not deterministic");
        }
    }

    #[test]
    fn warmup_reset_isolates_measurement_window() {
        // A longer warm-up must not inflate measured cycles/instructions.
        let w = tiny("gzip");
        let short = SimConfig::preset(ConfigPreset::Base, TechNode::T090, 4 << 10)
            .with_insts(5_000, 30_000);
        let long = short.with_insts(30_000, 30_000);
        let a = Engine::new(short, &w, 7).run();
        let b = Engine::new(long, &w, 7).run();
        assert!(a.committed >= 30_000 && b.committed >= 30_000);
        // Warmed caches: the long warm-up run must not be slower by much.
        assert!(b.ipc() > 0.8 * a.ipc());
    }

    #[test]
    fn bus_priority_visible_in_grant_mix() {
        // mcf's D-side must dominate bus grants (DCache > IFetch priority
        // plus sheer volume).
        let w = tiny("mcf");
        let cfg = SimConfig::preset(ConfigPreset::Clgp, TechNode::T045, 4 << 10)
            .with_insts(10_000, 40_000);
        let s = Engine::new(cfg, &w, 7).run();
        assert!(
            s.bus.grants_dcache > s.bus.grants_ifetch,
            "expected D-side to dominate: {:?}",
            s.bus
        );
    }
}
