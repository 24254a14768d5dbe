//! The full-system cycle engine.
//!
//! Ties together the fetch-block predictor (a `FetchPredictor`: the stream
//! predictor or gshare), the decoupled front-end (queue + prefetcher +
//! fetch unit), the decode pipe and the RUU back-end, with the paper's §4
//! methodology: the *correct* dynamic path comes from the trace generator;
//! the predictor runs ahead of fetch, and where its prediction
//! diverges from the trace the front-end keeps fetching down the predicted
//! (wrong) path through the basic-block dictionary — consuming fetch
//! bandwidth, cache ports and bus slots — until the mispredicted branch
//! resolves in the back-end, at which point the front-end is flushed, the
//! speculative state of the predictor (path history + RAS), the prefetch
//! mechanism (training cursors) and the i-TLB (contents) is restored, and
//! fetch resumes on the correct path.  Each of those units keeps its own
//! saved copy behind `checkpoint()` / `restore()`; the engine only says
//! when: the predictor checkpoints before each on-path prediction (which
//! also trains it) and restores on a queue-full retry and at the redirect,
//! and the front-end
//! checkpoints at a divergence and restores right after the redirect
//! flush.
//!
//! Wrong-path instructions are fetched and prefetched but never dispatched
//! into the RUU.  This is a deliberate simplification: they cost fetch
//! bandwidth, cache ports and bus slots, which is what a fetch study
//! measures, and then evaporate at decode, so they never occupy RUU entries
//! or access the D-cache.
//!
//! # How the correct path is held
//!
//! The source's streams land in one engine-owned window, a `VecDeque` of
//! the correct path's instructions with a running path index at its
//! front.  A fetch block is a `Copy` index range into it: its first
//! instruction's path index and its number of correct-path instructions
//! (0 on the wrong path, a prefix of the stream for the diverging block).
//! At most one stream waits to be predicted, and its instructions are
//! always the window's tail: a queue-full retry, or the rest of a stream
//! the predictor split or diverged from, is a descriptor over
//! instructions already in the window, so nothing is copied.
//!
//! Decode is a cursor into the same window, not a copy of it.  Fetch
//! delivers each correct-path block in order, so the decoded
//! instructions are always one path range, `decode_head..decode_tail`.
//! A delivery only advances the tail and records `(end, ready)`: the
//! range it ended and the cycle it clears the decode stages.  Dispatch
//! reads `window[decode_head]` and advances the head, and the one
//! mispredicted instruction is known by its path index.  Blocks
//! complete in sequence order and their first indices never decrease, so
//! on each completion the window drops everything before the oldest live
//! block or the decode head, whichever is older; a redirect drops
//! everything but the pending stream and empties decode.  The window
//! therefore holds at most one stream per live block plus the pending
//! one, plus the decode buffer, and a warm engine stops allocating.
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
    FetchPredictor, GsharePredictor, StreamDesc, StreamPredictor, MAX_STREAM_INSTS,
};
use prestage_cache::{Completion, L2Config, L2System, ReqClass};
use prestage_core::config::{MAX_INFLIGHT, QUEUE_BLOCKS};
use prestage_core::{
    ClgpPrefetcher, Delivery, FdpPrefetcher, FrontEnd, InstrPrefetcher, ManaPrefetcher,
    NextLinePrefetcher, NoPrefetcher, PrefetcherKind, ProgMapPrefetcher,
};
use prestage_isa::{Addr, INST_BYTES};
use prestage_workload::{DynInst, InstSource, TraceGenerator, Workload};
use std::collections::VecDeque;

/// One in-flight fetch block: a predicted start PC and the index range of
/// its correct-path instructions in the engine's path window.
#[derive(Debug, Clone, Copy)]
struct BlockInfo {
    /// Block start PC (the predicted fetch block's first instruction).
    start: Addr,
    /// Path index of the block's first correct-path instruction (the
    /// correct-path frontier when it was predicted, for wrong-path blocks).
    first: u64,
    /// Correct-path instructions in the block: 0 for wrong-path blocks, a
    /// prefix of the stream for the diverging block.
    len: u32,
    /// Index of the mispredicted instruction, if this block diverges.
    mispredict_idx: Option<u32>,
}

/// In-flight fetch blocks in sequence order.  Seqs are handed out
/// consecutively and the fetch unit completes blocks in queue order, so the
/// live blocks are one contiguous seq range: lookup is index arithmetic
/// and completion pops the front.
#[derive(Debug, Default)]
struct BlockRing {
    /// Sequence number of `live[0]`.
    base: u64,
    live: VecDeque<BlockInfo>,
}

impl BlockRing {
    /// Insert under `seq`, the seq after the last one inserted (a flush
    /// empties the ring).
    fn insert(&mut self, seq: u64, info: BlockInfo) {
        if self.live.is_empty() {
            self.base = seq;
        }
        debug_assert_eq!(
            seq,
            self.base + self.live.len() as u64,
            "block seqs must arrive in order"
        );
        self.live.push_back(info);
    }

    fn get(&self, seq: u64) -> Option<BlockInfo> {
        let idx = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        self.live.get(idx).copied()
    }

    /// Retire block `seq`, which must be the oldest.
    fn complete(&mut self, seq: u64) {
        debug_assert_eq!(seq, self.base, "fetch blocks must complete in order");
        self.live.pop_front();
        self.base += 1;
    }

    fn oldest(&self) -> Option<BlockInfo> {
        self.live.front().copied()
    }

    fn len(&self) -> usize {
        self.live.len()
    }

    fn clear(&mut self) {
        self.live.clear();
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

    /// A cold predictor of this kind.
    fn build(self) -> Box<dyn FetchPredictor> {
        match self {
            PredictorKind::Stream => Box::new(StreamPredictor::paper_default()),
            PredictorKind::Gshare => Box::<GsharePredictor>::default(),
        }
    }
}

/// Pipeline stages between fetch delivery and RUU dispatch (decode,
/// rename and dispatch of the 15-stage pipeline).
const DECODE_STAGES: u64 = 4;

/// Most live fetch blocks: every one is queued, in flight through the
/// fetch unit, or the one predicted this cycle.
const BLOCK_BOUND: usize = QUEUE_BLOCKS + MAX_INFLIGHT + 1;

/// Most instructions the path window holds for fetch: one stream per live
/// fetch block plus the pending stream.  Decoded instructions not yet
/// dispatched stay in the window too, so its checks add the decode buffer.
const WINDOW_BOUND: usize = (BLOCK_BOUND + 1) * MAX_STREAM_INSTS as usize;

/// The full-system simulator for one (workload, configuration) pair.
///
/// The committed path arrives through an [`InstSource`]: the live
/// [`TraceGenerator`] by default, or a disk replay via
/// [`Engine::with_source`] — the engine cannot tell the difference, which
/// is what makes replayed sweeps bit-exact.
///
/// `Engine` is a thin enum over a boxed internal `EngineImpl` (several KB,
/// and the variants differ by their mechanism's size), monomorphized per
/// prefetch mechanism: the one `match` at construction picks the variant, and from
/// then on every per-cycle prefetcher hook (tick / observe-fetch /
/// migration policy) is a statically dispatched — and inlinable — call
/// instead of a virtual one.
pub struct Engine<'w>(EngineInner<'w>);

enum EngineInner<'w> {
    None(Box<EngineImpl<'w, NoPrefetcher>>),
    NextLine(Box<EngineImpl<'w, NextLinePrefetcher>>),
    Fdp(Box<EngineImpl<'w, FdpPrefetcher>>),
    Clgp(Box<EngineImpl<'w, ClgpPrefetcher>>),
    Mana(Box<EngineImpl<'w, ManaPrefetcher>>),
    ProgMap(Box<EngineImpl<'w, ProgMapPrefetcher>>),
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
        Self::with_source(
            cfg,
            w,
            Box::new(TraceGenerator::new(w, exec_seed)),
            PredictorKind::Stream,
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
                EngineInner::None(Box::new(EngineImpl::with_source(cfg, w, src, predictor)))
            }
            PrefetcherKind::NextLine => {
                EngineInner::NextLine(Box::new(EngineImpl::with_source(cfg, w, src, predictor)))
            }
            PrefetcherKind::Fdp => {
                EngineInner::Fdp(Box::new(EngineImpl::with_source(cfg, w, src, predictor)))
            }
            PrefetcherKind::Clgp => {
                EngineInner::Clgp(Box::new(EngineImpl::with_source(cfg, w, src, predictor)))
            }
            PrefetcherKind::Mana => {
                EngineInner::Mana(Box::new(EngineImpl::with_source(cfg, w, src, predictor)))
            }
            PrefetcherKind::ProgMap => {
                EngineInner::ProgMap(Box::new(EngineImpl::with_source(cfg, w, src, predictor)))
            }
        })
    }

    /// Run warm-up + measurement; returns the measured-window statistics.
    pub fn run(self) -> SimStats {
        for_each_engine!(self.0, e => e.run())
    }
}

/// The concrete cycle engine, generic over its prefetch mechanism.
struct EngineImpl<'w, P: InstrPrefetcher> {
    cfg: SimConfig,
    w: &'w Workload,
    src: Box<dyn InstSource + 'w>,
    pred: Box<dyn FetchPredictor>,
    fe: FrontEnd<P>,
    be: BackEnd,
    l2: L2System,
    clock: u64,

    next_seq: u64,
    /// The correct path from the decode head or the oldest live block's
    /// first instruction, whichever is older, to the last instruction
    /// drawn from the source.
    window: VecDeque<DynInst>,
    /// Path index of `window[0]`.
    window_base: u64,
    /// The truth stream waiting to be predicted (a retry, or the rest of a
    /// stream after a split or divergence); its instructions are always
    /// the window's tail.
    pending: Option<StreamDesc>,
    /// The source's output buffer, copied into the window per stream.
    stream_buf: Vec<DynInst>,
    blocks: BlockRing,
    path: PathState,
    redirect: Option<RedirectInfo>,
    /// Path index of the oldest decoded instruction not yet dispatched.
    decode_head: u64,
    /// Path index after the last decoded instruction.
    decode_tail: u64,
    /// One `(end, ready)` per delivery still in decode, oldest first: the
    /// path indices before `end` may dispatch from cycle `ready`.
    decode_ready: VecDeque<(u64, u64)>,
    /// Path index of the decoded mispredicted instruction, until it
    /// dispatches.
    decode_mispredict: Option<u64>,

    redirects: u64,
    deliveries: Vec<Delivery>,
    completions: Vec<Completion>,
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
            pred: predictor.build(),
            fe: FrontEnd::new(cfg.frontend),
            be: BackEnd::new(cfg.backend),
            l2: L2System::new(L2Config::for_node(cfg.frontend.tech)),
            clock: 0,
            next_seq: 0,
            window: VecDeque::new(),
            window_base: 0,
            pending: None,
            stream_buf: Vec::new(),
            blocks: BlockRing::default(),
            path: PathState::OnPath,
            redirect: None,
            decode_head: 0,
            decode_tail: 0,
            decode_ready: VecDeque::new(),
            decode_mispredict: None,
            redirects: 0,
            deliveries: Vec::with_capacity(8),
            completions: Vec::with_capacity(8),
            cfg,
            w,
        }
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
            self.blocks.len() <= BLOCK_BOUND,
            "live fetch blocks leaked: {}",
            self.blocks.len()
        );
        debug_assert!(
            self.window.len() <= WINDOW_BOUND + self.cfg.decode_buffer as usize,
            "path window leaked: {} instructions",
            self.window.len()
        );

        SimStats {
            seed: self.w.seed,
            cycles: self.clock - cycles_start,
            committed: self.be.committed(),
            front: *self.fe.stats(),
            bus: *self.l2.stats(),
            pred: *self.pred.stats(),
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
            if let Some(&(_, ready)) = self.decode_ready.front() {
                at = at.min(ready);
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
        let decoded = self.decode_tail - self.decode_head;
        self.cfg
            .decode_buffer
            .saturating_sub(u32::try_from(decoded).unwrap_or(u32::MAX))
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
            let Some(&(end, ready)) = self.decode_ready.front() else {
                break;
            };
            if ready > now {
                break;
            }
            let i = self.decode_head;
            let di = self.window[self.window_at(i)];
            self.decode_head += 1;
            if self.decode_head == end {
                self.decode_ready.pop_front();
            }
            let st = self.w.program.block(di.block).insts[di.idx as usize];
            let mispredict = self.decode_mispredict == Some(i);
            let ruu_seq = self.be.dispatch(&st, di.mem_addr, mispredict);
            if mispredict {
                self.decode_mispredict = None;
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

    /// Per-cycle invariants over the flat hot-path tables: live blocks
    /// and the path window stay within their structural bounds, the decode
    /// cursor lies inside the window and holds at most a decode buffer,
    /// and every route maps to an outstanding L2 request.  All checks are
    /// O(1) — counters against counters.
    #[cfg(debug_assertions)]
    fn assert_hot_state_bounded(&self) {
        debug_assert!(
            self.blocks.len() <= BLOCK_BOUND,
            "cycle {}: {} live fetch blocks exceed the structural bound {BLOCK_BOUND}",
            self.clock,
            self.blocks.len()
        );
        let decode_buffer = self.cfg.decode_buffer as usize;
        debug_assert!(
            self.window.len() <= WINDOW_BOUND + decode_buffer,
            "cycle {}: {} path-window instructions exceed the bound {WINDOW_BOUND} + {decode_buffer}",
            self.clock,
            self.window.len()
        );
        debug_assert!(
            self.window_base <= self.decode_head
                && self.decode_head <= self.decode_tail
                && self.decode_tail <= self.frontier(),
            "cycle {}: decode {}..{} outside the window {}..{}",
            self.clock,
            self.decode_head,
            self.decode_tail,
            self.window_base,
            self.frontier()
        );
        debug_assert!(
            self.decode_tail - self.decode_head <= decode_buffer as u64,
            "cycle {}: {} decoded instructions exceed the decode buffer {decode_buffer}",
            self.clock,
            self.decode_tail - self.decode_head
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
        let end = base.saturating_add(d.count).min(info.len);
        if base < end {
            debug_assert_eq!(
                info.first + u64::from(base),
                self.decode_tail,
                "a delivery must continue the decoded path"
            );
            self.decode_tail = info.first + u64::from(end);
            self.decode_ready.push_back((self.decode_tail, ready));
            if let Some(m) = info.mispredict_idx.filter(|m| (base..end).contains(m)) {
                self.decode_mispredict = Some(info.first + u64::from(m));
            }
        }
        if d.completes_block {
            self.blocks.complete(d.block_seq);
            // Block `first`s never decrease with seq, so the oldest live
            // block and the decode head bound what is still read.
            let oldest = self.blocks.oldest().map_or(self.frontier(), |b| b.first);
            self.trim_window(oldest.min(self.decode_head));
        }
    }

    /// Position in `window` of path index `i` (which must not be trimmed).
    fn window_at(&self, i: u64) -> usize {
        debug_assert!(i >= self.window_base, "path index {i} already trimmed");
        (i - self.window_base) as usize
    }

    /// Path index of the first correct-path instruction no block holds yet:
    /// the pending stream's start, or the window's end without one.
    fn frontier(&self) -> u64 {
        let pending = self.pending.map_or(0, |p| u64::from(p.len));
        self.window_base + self.window.len() as u64 - pending
    }

    /// Drop the window's instructions before path index `keep`.
    fn trim_window(&mut self, keep: u64) {
        let n = self.window_at(keep);
        self.window.drain(..n);
        self.window_base = keep;
    }

    /// A mispredicted branch resolved in the back-end: flush and restart
    /// the front-end on the correct path.
    fn do_redirect(&mut self, ruu_seq: u64) {
        let Some(r) = self.redirect.take() else {
            return;
        };
        debug_assert_eq!(r.ruu_seq, Some(ruu_seq));
        self.fe.flush();
        self.fe.restore();
        self.blocks.clear();
        let frontier = self.frontier();
        self.trim_window(frontier);
        self.decode_head = frontier;
        self.decode_tail = frontier;
        self.decode_ready.clear();
        self.decode_mispredict = None;
        self.pred.restore();
        self.path = PathState::OnPath;
        self.redirects += 1;
        // Redirect-flush invariant: no speculative per-cycle state survives
        // the flush (routes do, deliberately — demand completions still in
        // flight warm the caches exactly as wrong-path fills would).
        debug_assert!(
            self.blocks.len() == 0
                && self.window.len() == self.pending.map_or(0, |p| p.len as usize),
            "redirect flush left speculative state behind"
        );
    }

    /// Generate one fetch block from the predictor and hand it to the
    /// front-end, comparing against the trace when on the correct path.
    fn predict_one_block(&mut self) {
        let seq = self.next_seq;
        let first = self.frontier();
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
                            first,
                            len: 0,
                            mispredict_idx: None,
                        },
                    );
                    self.path = PathState::WrongPath {
                        next_start: p.stream.next.max(4),
                    };
                }
            }
            PathState::OnPath => {
                // The pending stream first (a retry, or the rest of a
                // split/diverged stream), else a fresh one from the source.
                let actual = match self.pending.take() {
                    Some(s) => s,
                    None => {
                        let s = self.src.next_stream(&mut self.stream_buf);
                        self.window.extend(&self.stream_buf);
                        s
                    }
                };
                self.pred.checkpoint();
                let ps = self.pred.predict_and_train(&actual, &self.w.program).stream;
                debug_assert_eq!(ps.start, actual.start);

                let plen = ps.len;
                let alen = actual.len;
                let correct = ps.same_flow(&actual);
                // Benign split: the predictor cut the stream short but
                // continues sequentially — two blocks instead of one, no
                // actual misprediction.
                let split =
                    !correct && plen < alen && ps.next == actual.start + plen as u64 * INST_BYTES;
                let fetch_len = if correct { alen } else { plen.max(1) };
                if !self.fe.push_block(seq, actual.start, fetch_len) {
                    // Queue full: retry the same stream next cycle.
                    self.pending = Some(actual);
                    self.pred.restore();
                    return;
                }
                self.next_seq += 1;
                // The block holds the first `len` instructions; a shorter
                // prediction leaves the rest of the stream pending.
                let len = fetch_len.min(alen);
                if len < alen {
                    self.pending = Some(StreamDesc {
                        start: actual.start + len as u64 * INST_BYTES,
                        len: alen - len,
                        next: actual.next,
                        end: actual.end,
                    });
                }
                // A divergence mispredicts the block's last correct-path
                // instruction: where the predictor broke out of the stream
                // early, or the stream's final CTI it sailed past (or whose
                // target it got wrong).
                let diverges = !correct && !split;
                self.blocks.insert(
                    seq,
                    BlockInfo {
                        start: actual.start,
                        first,
                        len,
                        mispredict_idx: diverges.then_some(len - 1),
                    },
                );
                if diverges {
                    self.redirect = Some(RedirectInfo { ruu_seq: None });
                    self.fe.checkpoint();
                    self.path = PathState::WrongPath {
                        next_start: ps.next.max(4),
                    };
                }
            }
        }
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
        for kind in PredictorKind::all() {
            let src = Box::new(TraceGenerator::new(&w, 7));
            let s = Engine::with_source(cfg, &w, src, kind).run();
            // Every committed instruction was fetched (plus wrong-path extras).
            assert!(s.front.total_fetch_insts() >= s.committed);
            // Every predictor counts what it predicts and trains.
            assert!(s.pred.predictions > 0, "{kind:?} counted no predictions");
            // Every redirect corresponds to a trained-incorrect stream;
            // counts are reset together at the warm-up boundary so they
            // must be close (trained-incorrect also counts benign splits,
            // so it dominates).
            let wrong = s.pred.trained - s.pred.train_correct;
            assert!(
                s.redirects <= wrong,
                "{kind:?}: redirects {} exceed mispredicted streams {}",
                s.redirects,
                wrong
            );
            assert!(s.redirects > 0);
        }
    }

    #[test]
    fn gshare_engine_runs_and_underperforms_stream_predictor() {
        let w = tiny("vortex");
        let cfg = SimConfig::preset(ConfigPreset::ClgpL0, TechNode::T045, 4 << 10)
            .with_insts(20_000, 60_000);
        let run = |kind| {
            let src = Box::new(TraceGenerator::new(&w, 7));
            Engine::with_source(cfg, &w, src, kind).run().ipc()
        };
        let stream = run(PredictorKind::Stream);
        let gshare = run(PredictorKind::Gshare);
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
