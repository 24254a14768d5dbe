//! Pluggable instruction-prefetch mechanisms.
//!
//! The front-end used to hard-code a three-way branch (FDP / CLGP /
//! next-line) in its cycle loop; this module turns that into an open
//! mechanism registry.  Each mechanism implements [`InstrPrefetcher`]:
//!
//! * it **observes** the fetch stream ([`InstrPrefetcher::observe_fetch`]
//!   as the fetch unit accepts queue slots) and redirects
//!   ([`InstrPrefetcher::on_redirect`]), and owns the used-line migration
//!   policy ([`InstrPrefetcher::migrate_used_lines`]);
//! * it **emits prefetch requests** once per cycle through
//!   [`InstrPrefetcher::tick`], using the [`PrefetchView`] the front-end
//!   lends it (queue scan, pre-buffer allocation, L1 probe/copy ports, L2
//!   requests);
//! * it **reports its horizon** through [`InstrPrefetcher::next_event`],
//!   so the engine can jump the clock over cycles in which it cannot act;
//! * its speculative training state is **checkpointed/restored** around
//!   wrong-path excursions ([`InstrPrefetcher::checkpoint`] /
//!   [`InstrPrefetcher::restore`]): a mechanism with such state keeps one
//!   private saved copy of it — its training cursors and stream
//!   expectations, never its tables or request queues, as the stream
//!   predictor saves history and RAS but not its tables.
//!
//! Each mechanism's sizing is a constant beside it (`PIQ_ENTRIES` and
//! friends): only the MANA table and the program map are sized per
//! configuration.
//!
//! The registry is *monomorphic*: [`InstrPrefetcher::from_config`] is the
//! per-type constructor, and the engine in `prestage-sim` dispatches on
//! [`PrefetcherKind`] exactly once — at construction — instantiating a
//! generic front-end per mechanism type, so the per-cycle hooks are
//! static (inlinable) calls rather than virtual ones.  [`NoPrefetcher`]
//! is the zero-sized no-prefetch baseline.  The paper's FDP (§3.1) and
//! CLGP (§3.2) engines and the related-work next-N-line scheme are ports
//! of the previous inlined code (bit-exact — the conformance suites hold
//! them to the old behaviour); [`ManaPrefetcher`] and
//! [`ProgMapPrefetcher`] are the new record-and-replay comparisons named
//! in the ROADMAP.

use crate::buffer::{PbLookup, PreBuffer};
use crate::config::{FrontendConfig, PrefetcherKind};
use crate::frontend::RouteTable;
use crate::queue::{FetchQueue, LineSlot};
use crate::stats::FrontStats;
use prestage_cache::{ArrayPort, ITlb, L2System, ReqClass, ReqId, SetAssocCache};
use prestage_isa::Addr;
use std::collections::VecDeque;

/// Upper bound on any mechanism's internal request queue that is not
/// already bounded by `PIQ_ENTRIES` (MANA region expansions, program-map
/// traversals).  A hardware MSHR-file-sized structure, not a software
/// convenience.
pub const PREFETCH_QUEUE_CAP: usize = 32;

/// Prefetch-instruction-queue entries of FDP and next-N-line.
const PIQ_ENTRIES: usize = 8;

/// Lines next-N-line prefetches ahead of each demand line fetch.
const NLP_DEGREE: u64 = 2;

/// Lines per MANA spatial region: the trigger plus `MANA_REGION_LINES - 1`
/// footprint bits.
const MANA_REGION_LINES: u32 = 8;

/// Stream-address-buffer entries (active MANA record chains).
const MANA_SAB_ENTRIES: usize = 4;

/// Records MANA chases ahead per stream advance.
const MANA_DEGREE: u32 = 2;

// The footprint is a `u32` bitmap of the lines after the trigger, and the
// stream buffer needs a slot to load.
const _: () = assert!(MANA_REGION_LINES >= 2 && MANA_REGION_LINES <= 33);
const _: () = assert!(MANA_SAB_ENTRIES >= 1);

/// Program-map region granularity in bytes; at least one cache line
/// ([`FrontendConfig::validate`] checks the line size against it).
pub(crate) const PROGMAP_REGION_BYTES: u64 = 256;

/// Regions the program map traverses ahead per region change.
const PROGMAP_DEGREE: u32 = 2;

// A region number is an address shifted right, so regions are powers of two.
const _: () = assert!(PROGMAP_REGION_BYTES.is_power_of_two());
const PROGMAP_REGION_SHIFT: u32 = PROGMAP_REGION_BYTES.trailing_zeros();

/// What a mechanism's [`tick`](InstrPrefetcher::tick) would do from now on
/// if nothing outside it changed: the answer of
/// [`InstrPrefetcher::next_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Idle {
    /// No state changes before this cycle (`u64::MAX`: none until an
    /// outside event).  A value at or below `now` means it acts now.
    Until(u64),
    /// Stalled at the head of line on a full pre-buffer: every cycle counts
    /// one `pb_alloc_stalls` and changes nothing else, until an outside
    /// event (a fill, a use, a redirect) frees an entry.
    Stalled,
}

/// The slice of front-end state a mechanism may touch during its tick:
/// the decoupling queue (scan + `prefetched` bits), the pre-buffer, the
/// cache directories for probe filtering, and the shared issue paths
/// (synthetic L1 copies, prefetch-class L2 requests).
pub struct PrefetchView<'a> {
    pub cfg: &'a FrontendConfig,
    pub queue: &'a mut FetchQueue,
    pub pb: Option<&'a mut PreBuffer>,
    pub l1: &'a mut SetAssocCache,
    pub l0: Option<&'a mut SetAssocCache>,
    pub(crate) l1_copy_port: &'a mut ArrayPort,
    pub(crate) l1_copies: &'a mut Vec<(u64, ReqId)>,
    pub(crate) routes: &'a mut RouteTable,
    pub(crate) next_synth: &'a mut u64,
    pub(crate) tlb: Option<&'a mut ITlb>,
    pub stats: &'a mut FrontStats,
}

impl PrefetchView<'_> {
    /// Translate `line`'s page through the i-TLB on the prefetch path:
    /// the cycle at which the copy/L2 access may start.  With no TLB this
    /// is `now`; a miss pays the page walk *and installs the translation*
    /// — prefetchers both suffer and cause i-TLB traffic, which is the
    /// pollution-vs-warmth trade Jamet et al. study.
    fn translate(&mut self, line: Addr, now: u64) -> u64 {
        match &mut self.tlb {
            Some(tlb) => tlb.translate(line, now),
            None => now,
        }
    }

    /// Allocate `line` in the pre-buffer and fill it by copying out of the
    /// L1 over the replicated-tag copy port (§3.1's "additional tag port"
    /// extended to data).  Caller has verified the pre-buffer exists, the
    /// line is absent from it, allocation can succeed, and the line is
    /// L1-resident.
    pub fn copy_from_l1(&mut self, line: Addr, now: u64) {
        let at = self.translate(line, now);
        let pb = self.pb.as_deref_mut().expect("copy requires a pre-buffer");
        let done = self.l1_copy_port.start(at);
        let id = ReqId(*self.next_synth);
        *self.next_synth += 1;
        pb.allocate(line, id);
        self.l1_copies.push((done, id));
        self.stats.prefetch_from_l1 += 1;
        self.stats.prefetches_issued += 1;
    }

    /// Allocate `line` in the pre-buffer and raise (or piggy-back on) a
    /// prefetch-class request to the L2 system.  Caller has verified the
    /// pre-buffer exists, the line is absent from it, and allocation can
    /// succeed.  The line's page translates first: a cold translation
    /// delays the L2 submission by the page-walk latency.
    pub fn request_from_l2(&mut self, line: Addr, now: u64, l2: &mut L2System) {
        let at = self.translate(line, now);
        let pb = self
            .pb
            .as_deref_mut()
            .expect("prefetch requires a pre-buffer");
        let req = match l2.find_pending(line) {
            Some(r) => r,
            None => l2.submit(line, ReqClass::Prefetch, at),
        };
        pb.allocate(line, req);
        self.routes.get_or_insert(req).pb_fill = true;
        self.stats.prefetches_issued += 1;
    }
}

/// A pluggable instruction-prefetch mechanism driving the shared
/// pre-buffer.  One instance lives inside each
/// [`FrontEnd`](crate::FrontEnd); the front-end calls the hooks, the
/// mechanism owns its tables and queues.
pub trait InstrPrefetcher: std::fmt::Debug {
    /// Which registry entry built this mechanism.
    fn kind(&self) -> PrefetcherKind;

    /// Build the mechanism for `cfg` — the monomorphic registry hook.
    /// The caller (the engine's per-[`PrefetcherKind`] dispatch) has
    /// already matched `cfg.prefetcher` to this type and validated `cfg`.
    fn from_config(cfg: &FrontendConfig) -> Self
    where
        Self: Sized;

    /// One cycle of prefetch work: scan whatever the mechanism scans and
    /// emit at most a port-limited number of requests through `fe`.
    fn tick(&mut self, now: u64, fe: &mut PrefetchView<'_>, l2: &mut L2System);

    /// Whether [`tick`](Self::tick) at `now` would change any state, given
    /// that nothing outside the mechanism changes meanwhile: follow the
    /// tick's early exits without taking any action.  `fe` is mutable only
    /// so a scan cursor may be normalized (an idempotent, invisible step
    /// the tick would take anyway).  A mechanism that cannot prove it is
    /// idle must return `Idle::Until(now)`: that is always correct, and
    /// only costs the cycles the engine could have skipped.
    fn next_event(&mut self, now: u64, fe: &mut PrefetchView<'_>) -> Idle;

    /// The fetch unit accepted `slot` from the decoupling queue — the
    /// in-order (speculative, wrong-path-included) fetch stream every
    /// history-based mechanism trains on.
    fn observe_fetch(&mut self, slot: &LineSlot) {
        let _ = slot;
    }

    /// Whether a pre-buffer line the fetch unit just used should migrate
    /// into the one-cycle reach (L0 when present, else the L1).  FDP's
    /// §3.1.1 policy and the default; CLGP overrides it (no duplication —
    /// §3.2.3), as may any mechanism that copies L1-resident lines into
    /// the buffer and does not want them filled straight back.
    fn migrate_used_lines(&self) -> bool {
        true
    }

    /// A branch-misprediction redirect reached the front-end: drop
    /// in-flight request queues and stale stream expectations.
    fn on_redirect(&mut self) {}

    /// Save the speculative training state over the previous saved copy
    /// (the engine calls this when it detects a divergence, i.e. before
    /// any wrong-path fetch is observed).
    fn checkpoint(&mut self) {}

    /// Reinstate the last [`checkpoint`](Self::checkpoint) (after the
    /// redirect flush), so wrong-path observations do not corrupt the
    /// mechanism's speculative cursors.
    fn restore(&mut self) {}
}

/// The no-prefetch baseline: a zero-sized mechanism whose hooks compile
/// to nothing.  A `FrontEnd<NoPrefetcher>` is exactly the pre-registry
/// prefetcher-less front-end — no pre-buffer traffic, no migration of
/// pre-buffer lines (there are none), no speculative state.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPrefetcher;

impl InstrPrefetcher for NoPrefetcher {
    fn kind(&self) -> PrefetcherKind {
        PrefetcherKind::None
    }

    fn from_config(_cfg: &FrontendConfig) -> Self {
        NoPrefetcher
    }

    fn tick(&mut self, _now: u64, _fe: &mut PrefetchView<'_>, _l2: &mut L2System) {}

    fn next_event(&mut self, _now: u64, _fe: &mut PrefetchView<'_>) -> Idle {
        Idle::Until(u64::MAX)
    }

    fn migrate_used_lines(&self) -> bool {
        // Nothing ever enters the pre-buffer, so nothing migrates out.
        false
    }
}

/// Metadata storage the mechanism for `cfg` would use, without building it
/// — the sizing input for CACTI area/energy columns.
pub fn prefetcher_state_bytes(cfg: &FrontendConfig) -> usize {
    match cfg.prefetcher {
        PrefetcherKind::None => 0,
        // PIQ of line addresses.
        PrefetcherKind::Fdp | PrefetcherKind::NextLine => PIQ_ENTRIES * 8,
        // CLGP's bookkeeping (prefetched bits, consumers counters) lives in
        // the shared CLTQ and pre-buffer, both already accounted.
        PrefetcherKind::Clgp => 0,
        PrefetcherKind::Mana => {
            // Per record: trigger tag (4 B) + successor pointer (4 B) +
            // valid/replacement (1 B) + the spatial bitmap.
            let bitmap_bytes = (MANA_REGION_LINES as usize - 1).div_ceil(8);
            cfg.mana_entries * (9 + bitmap_bytes) + MANA_SAB_ENTRIES * 8 + PREFETCH_QUEUE_CAP * 8
        }
        // Per map entry: region tag (4 B) + successor region (4 B).
        PrefetcherKind::ProgMap => cfg.progmap_entries * 8 + PREFETCH_QUEUE_CAP * 8,
    }
}

/// Issue the head of a mechanism-private request queue through the shared
/// pre-buffer path: drop it if already buffered (or one cycle away in the
/// L0), stall on a full buffer, serve L1-resident lines by copy (a
/// one-cycle buffer hit beats the multi-cycle L1 hit — CLGP's insight,
/// shared by both record-and-replay mechanisms), and otherwise raise an
/// L2 prefetch.  One request per call — the single prefetch port every
/// mechanism shares.
fn issue_queue_head(
    reqq: &mut VecDeque<Addr>,
    now: u64,
    fe: &mut PrefetchView<'_>,
    l2: &mut L2System,
) {
    let Some(&line) = reqq.front() else { return };
    let Some(pb) = fe.pb.as_deref_mut() else {
        return;
    };
    if pb.lookup(line) != PbLookup::Miss {
        fe.stats.prefetch_from_pb += 1;
        reqq.pop_front();
        return;
    }
    if let Some(l0) = fe.l0.as_deref_mut() {
        if l0.contains(line) {
            fe.stats.prefetch_from_pb += 1;
            reqq.pop_front();
            return;
        }
    }
    let Some(pb) = fe.pb.as_deref_mut() else {
        return;
    };
    if !pb.can_allocate() {
        fe.stats.pb_alloc_stalls += 1;
        return;
    }
    if fe.l1.contains(line) {
        fe.copy_from_l1(line, now);
    } else {
        fe.request_from_l2(line, now, l2);
    }
    reqq.pop_front();
}

/// [`InstrPrefetcher::next_event`] for a mechanism whose tick is
/// [`issue_queue_head`]: it acts unless the queue is empty (never) or the
/// head is a miss everywhere it looks and the pre-buffer is full (stalled).
fn issue_queue_horizon(reqq: &VecDeque<Addr>, now: u64, fe: &PrefetchView<'_>) -> Idle {
    let (Some(&line), Some(pb)) = (reqq.front(), fe.pb.as_deref()) else {
        return Idle::Until(u64::MAX);
    };
    let in_l0 = fe.l0.as_deref().is_some_and(|l0| l0.contains(line));
    if pb.lookup(line) != PbLookup::Miss || in_l0 {
        return Idle::Until(now);
    }
    pb_stall_or_act(pb, now)
}

/// The last early exit every mechanism shares: a head-of-line candidate
/// that must be allocated stalls on a full pre-buffer, else issues now.
fn pb_stall_or_act(pb: &PreBuffer, now: u64) -> Idle {
    if pb.can_allocate() {
        Idle::Until(now)
    } else {
        Idle::Stalled
    }
}

/// Push `line` into a capped, duplicate-free request queue.
fn enqueue(reqq: &mut VecDeque<Addr>, line: Addr) {
    if reqq.len() < PREFETCH_QUEUE_CAP && !reqq.contains(&line) {
        reqq.push_back(line);
    }
}

// ---------------------------------------------------------------------------
// FDP (§3.1) — port of the previous inlined engine, bit-exact.
// ---------------------------------------------------------------------------

/// Fetch Directed Prefetching with Enqueue Cache Probe Filtering: scans
/// the FTQ through the probe filter into a PIQ, issues one prefetch per
/// cycle from its head.
#[derive(Debug)]
pub struct FdpPrefetcher {
    piq: VecDeque<Addr>,
}

impl InstrPrefetcher for FdpPrefetcher {
    fn kind(&self) -> PrefetcherKind {
        PrefetcherKind::Fdp
    }

    fn from_config(_cfg: &FrontendConfig) -> Self {
        FdpPrefetcher {
            piq: VecDeque::new(),
        }
    }

    fn tick(&mut self, now: u64, fe: &mut PrefetchView<'_>, l2: &mut L2System) {
        // Enqueue phase: process up to two queue slots through the probe
        // filter (the "additional tag port / replicated tags").
        for _ in 0..2 {
            if self.piq.len() >= PIQ_ENTRIES {
                break;
            }
            let Some(pb) = fe.pb.as_deref_mut() else {
                break;
            };
            let Some(slot) = fe.queue.first_unprefetched() else {
                break;
            };
            let line = slot.line;
            slot.prefetched = true;
            if pb.lookup(line) != PbLookup::Miss || self.piq.contains(&line) {
                fe.stats.prefetch_from_pb += 1;
                continue;
            }
            // Enqueue Cache Probe Filtering: no prefetch is done if the
            // line is already in the L1 (or the L0 when present) — the
            // paper's §5.2.  This is exactly FDP's weakness against CLGP:
            // L1-resident lines keep paying the multi-cycle hit.
            if let Some(l0) = fe.l0.as_deref_mut() {
                if l0.contains(line) {
                    fe.stats.filtered += 1;
                    fe.stats.prefetch_from_pb += 1;
                    continue;
                }
            }
            if fe.l1.contains(line) {
                fe.stats.filtered += 1;
                fe.stats.prefetch_from_l1 += 1;
                continue;
            }
            self.piq.push_back(line);
        }

        // Issue phase: one prefetch per cycle from the PIQ head.
        let Some(&line) = self.piq.front() else {
            return;
        };
        let Some(pb) = fe.pb.as_deref_mut() else {
            return;
        };
        if pb.lookup(line) != PbLookup::Miss {
            // Raced with a demand fill or duplicate: drop it.
            self.piq.pop_front();
            return;
        }
        if !pb.can_allocate() {
            fe.stats.pb_alloc_stalls += 1;
            return;
        }
        // §3.1.1: with an L0 the prefetch request is served by the L1
        // when the line is (rarely, post-filter) found there; otherwise —
        // and always in base FDP — by the L2 hierarchy.
        if fe.l0.is_some() && fe.l1.contains(line) {
            fe.copy_from_l1(line, now);
        } else {
            fe.request_from_l2(line, now, l2);
        }
        self.piq.pop_front();
    }

    fn next_event(&mut self, now: u64, fe: &mut PrefetchView<'_>) -> Idle {
        let Some(pb) = fe.pb.as_deref() else {
            return Idle::Until(u64::MAX);
        };
        // The enqueue phase acts on any unscanned slot it has room for.
        if self.piq.len() < PIQ_ENTRIES && fe.queue.first_unprefetched().is_some() {
            return Idle::Until(now);
        }
        match self.piq.front() {
            None => Idle::Until(u64::MAX),
            Some(&line) if pb.lookup(line) != PbLookup::Miss => Idle::Until(now),
            Some(_) => pb_stall_or_act(pb, now),
        }
    }

    fn on_redirect(&mut self) {
        self.piq.clear();
    }
}

// ---------------------------------------------------------------------------
// Next-N-line (related work §2.1) — port of the previous inlined engine.
// ---------------------------------------------------------------------------

/// Sequential prefetching: every demand line fetch enqueues the next
/// `NLP_DEGREE` lines; one queued candidate issues per cycle through the
/// same probe filter and buffer as FDP.
#[derive(Debug)]
pub struct NextLinePrefetcher {
    piq: VecDeque<Addr>,
    line_bytes: u64,
}

impl InstrPrefetcher for NextLinePrefetcher {
    fn kind(&self) -> PrefetcherKind {
        PrefetcherKind::NextLine
    }

    fn from_config(cfg: &FrontendConfig) -> Self {
        NextLinePrefetcher {
            piq: VecDeque::new(),
            line_bytes: cfg.line_bytes,
        }
    }

    fn observe_fetch(&mut self, slot: &LineSlot) {
        // Next-N-line prefetching triggers off every demand line fetch.
        for k in 1..=NLP_DEGREE {
            let next = slot.line + k * self.line_bytes;
            if self.piq.len() < PIQ_ENTRIES && !self.piq.contains(&next) {
                self.piq.push_back(next);
            }
        }
    }

    fn tick(&mut self, now: u64, fe: &mut PrefetchView<'_>, l2: &mut L2System) {
        let Some(&line) = self.piq.front() else {
            return;
        };
        let Some(pb) = fe.pb.as_deref_mut() else {
            return;
        };
        if pb.lookup(line) != PbLookup::Miss || fe.l1.contains(line) {
            fe.stats.filtered += 1;
            self.piq.pop_front();
            return;
        }
        let Some(pb) = fe.pb.as_deref_mut() else {
            return;
        };
        if !pb.can_allocate() {
            fe.stats.pb_alloc_stalls += 1;
            return;
        }
        fe.request_from_l2(line, now, l2);
        self.piq.pop_front();
    }

    fn next_event(&mut self, now: u64, fe: &mut PrefetchView<'_>) -> Idle {
        let (Some(&line), Some(pb)) = (self.piq.front(), fe.pb.as_deref()) else {
            return Idle::Until(u64::MAX);
        };
        if pb.lookup(line) != PbLookup::Miss || fe.l1.contains(line) {
            return Idle::Until(now);
        }
        pb_stall_or_act(pb, now)
    }

    fn on_redirect(&mut self) {
        self.piq.clear();
    }
}

// ---------------------------------------------------------------------------
// CLGP (§3.2) — port of the previous inlined engine, bit-exact.
// ---------------------------------------------------------------------------

/// Cache Line Guided Prestaging: scans CLTQ entries with **no filtering**
/// (a prestage hit is cheaper than a multi-cycle L1 hit), pinning lines
/// with consumers counters; at most one real prefetch per cycle.
#[derive(Debug)]
pub struct ClgpPrefetcher {
    /// True under the migration *or* free-on-use ablations: the first
    /// re-enables FDP's policy outright, the second frees the entry on
    /// use, after which not migrating would simply lose the line.
    migrate: bool,
}

impl InstrPrefetcher for ClgpPrefetcher {
    fn kind(&self) -> PrefetcherKind {
        PrefetcherKind::Clgp
    }

    fn from_config(cfg: &FrontendConfig) -> Self {
        ClgpPrefetcher {
            migrate: cfg.ablate_migrate || cfg.ablate_free_on_use,
        }
    }

    fn migrate_used_lines(&self) -> bool {
        // §3.2.3: evicted prestage lines are simply dropped, so pre-buffer
        // and emergency-cache contents never duplicate (unless ablated).
        self.migrate
    }

    fn tick(&mut self, now: u64, fe: &mut PrefetchView<'_>, l2: &mut L2System) {
        // Scan up to four CLTQ entries; issue at most one real prefetch.
        // No filtering: lines are brought to the prestage buffer even when
        // they sit in the L1, because a prestage hit is cheaper than a
        // multi-cycle L1 hit.
        for _ in 0..4 {
            let Some(pb) = fe.pb.as_deref_mut() else {
                return;
            };
            let Some(slot) = fe.queue.first_unprefetched() else {
                return;
            };
            let line = slot.line;
            if pb.lookup(line) != PbLookup::Miss {
                // Already prestaged (or arriving): extend its lifetime.
                pb.bump_consumers(line);
                slot.prefetched = true;
                fe.stats.prefetch_from_pb += 1;
                fe.stats.consumer_bumps += 1;
                continue;
            }
            // A line already one cycle away in the L0 needs no prestaging.
            if let Some(l0) = fe.l0.as_deref_mut() {
                if l0.contains(line) {
                    slot.prefetched = true;
                    fe.stats.prefetch_from_pb += 1;
                    continue;
                }
            }
            if !pb.can_allocate() {
                // Head-of-line stall: every entry is pinned by consumers.
                fe.stats.pb_alloc_stalls += 1;
                return;
            }
            slot.prefetched = true;
            if fe.cfg.ablate_filter && fe.l1.contains(line) {
                // Ablated CLGP: behave like FDP's filter — leave the line
                // to the multi-cycle L1.
                fe.stats.filtered += 1;
                fe.stats.prefetch_from_l1 += 1;
                continue;
            }
            if fe.l1.contains(line) {
                fe.copy_from_l1(line, now);
            } else {
                fe.request_from_l2(line, now, l2);
            }
            return; // one real prefetch per cycle
        }
    }

    fn next_event(&mut self, now: u64, fe: &mut PrefetchView<'_>) -> Idle {
        let Some(pb) = fe.pb.as_deref() else {
            return Idle::Until(u64::MAX);
        };
        let Some(slot) = fe.queue.first_unprefetched() else {
            return Idle::Until(u64::MAX);
        };
        let line = slot.line;
        let in_l0 = fe.l0.as_deref().is_some_and(|l0| l0.contains(line));
        if pb.lookup(line) != PbLookup::Miss || in_l0 {
            return Idle::Until(now);
        }
        pb_stall_or_act(pb, now)
    }
}

// ---------------------------------------------------------------------------
// MANA (Ansari et al.) — spatial-region records chased by a stream buffer.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default)]
struct ManaRecord {
    valid: bool,
    /// Trigger line number (line address >> line shift).
    trigger: u64,
    /// Spatial footprint: bit `k` set means line `trigger + 1 + k` was
    /// fetched within the region while this record was open.
    bitmap: u32,
    /// Trigger of the successor record (the chain pointer).
    next: u64,
    lru: u64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SabEntry {
    valid: bool,
    /// Next trigger line this stream expects the fetch unit to reach.
    expected: u64,
    lru: u64,
}

/// MANA: a set-associative table of spatial-region records keyed by
/// trigger line, each carrying a footprint bitmap and a successor
/// pointer; a small stream address buffer (SAB) tracks the active record
/// chains and chases them `MANA_DEGREE` records ahead of fetch,
/// prestaging each record's footprint into the pre-buffer (L1-resident
/// lines are copied over, CLGP-style — a buffer hit is cheaper than a
/// multi-cycle L1 hit).
#[derive(Debug)]
pub struct ManaPrefetcher {
    sets: usize,
    assoc: usize,
    table: Vec<ManaRecord>,
    sab: [SabEntry; MANA_SAB_ENTRIES],
    /// Record under construction: (trigger line, footprint bitmap).
    cur: Option<(u64, u32)>,
    last_line: Option<u64>,
    /// `cur`, `last_line` and `sab` as of the last
    /// [`checkpoint`](InstrPrefetcher::checkpoint).
    saved: (
        Option<(u64, u32)>,
        Option<u64>,
        [SabEntry; MANA_SAB_ENTRIES],
    ),
    reqq: VecDeque<Addr>,
    tick: u64,
    line_shift: u32,
}

impl ManaPrefetcher {
    fn stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn ways(&self, trigger: u64) -> std::ops::Range<usize> {
        let set = (trigger as usize) & (self.sets - 1);
        set * self.assoc..(set + 1) * self.assoc
    }

    /// Look up the record for `trigger`, refreshing its recency.
    fn lookup(&mut self, trigger: u64) -> Option<ManaRecord> {
        let ways = self.ways(trigger);
        let stamp = self.stamp();
        let e = self.table[ways]
            .iter_mut()
            .find(|e| e.valid && e.trigger == trigger)?;
        e.lru = stamp;
        Some(*e)
    }

    fn contains(&self, trigger: u64) -> bool {
        let ways = self.ways(trigger);
        self.table[ways]
            .iter()
            .any(|e| e.valid && e.trigger == trigger)
    }

    /// Install (or update) the record for `trigger`.
    fn insert(&mut self, trigger: u64, bitmap: u32, next: u64) {
        let ways = self.ways(trigger);
        let stamp = self.stamp();
        let slots = &mut self.table[ways];
        let way = slots
            .iter()
            .position(|e| e.valid && e.trigger == trigger)
            .or_else(|| slots.iter().position(|e| !e.valid))
            .unwrap_or_else(|| {
                slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.lru)
                    .map(|(i, _)| i)
                    .expect("assoc >= 1")
            });
        slots[way] = ManaRecord {
            valid: true,
            trigger,
            bitmap,
            next,
            lru: stamp,
        };
    }

    /// Enqueue a record's spatial footprint (without the trigger itself —
    /// the caller prefetches or is already fetching it).
    fn enqueue_footprint(&mut self, trigger: u64, bitmap: u32) {
        for k in 0..MANA_REGION_LINES - 1 {
            if bitmap & (1 << k) != 0 {
                enqueue(&mut self.reqq, (trigger + 1 + k as u64) << self.line_shift);
            }
        }
    }

    /// Chase the record chain from `from`, loading SAB entry `i` with the
    /// expectation of where the chain leads.
    fn chase(&mut self, i: usize, from: u64) {
        let mut cur = from;
        // The stream advances when fetch reaches the record *after* the
        // one just consumed — the successor seen on the first chain step
        // (when `from` has no record yet, keep expecting `from` itself so
        // the stream re-anchors once a record is learned for it).
        let mut expected = from;
        for step in 0..MANA_DEGREE {
            let Some(rec) = self.lookup(cur) else {
                // Chain ran off the table.
                break;
            };
            if step == 0 {
                expected = rec.next;
            } else {
                // Later records' triggers are real prefetch candidates
                // (the first trigger is the line being fetched right now).
                enqueue(&mut self.reqq, cur << self.line_shift);
            }
            self.enqueue_footprint(cur, rec.bitmap);
            cur = rec.next;
        }
        let stamp = self.stamp();
        self.sab[i] = SabEntry {
            valid: true,
            expected,
            lru: stamp,
        };
    }

    fn sab_slot(&mut self) -> usize {
        self.sab.iter().position(|e| !e.valid).unwrap_or_else(|| {
            self.sab
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .map(|(i, _)| i)
                .expect("sab_entries >= 1")
        })
    }
}

impl InstrPrefetcher for ManaPrefetcher {
    fn kind(&self) -> PrefetcherKind {
        PrefetcherKind::Mana
    }

    fn from_config(cfg: &FrontendConfig) -> Self {
        let assoc = cfg.mana_entries.min(4);
        ManaPrefetcher {
            sets: cfg.mana_entries / assoc,
            assoc,
            table: vec![ManaRecord::default(); cfg.mana_entries],
            sab: [SabEntry::default(); MANA_SAB_ENTRIES],
            cur: None,
            last_line: None,
            saved: Default::default(),
            reqq: VecDeque::new(),
            tick: 0,
            line_shift: cfg.line_bytes.trailing_zeros(),
        }
    }

    fn observe_fetch(&mut self, slot: &LineSlot) {
        let ln = slot.line >> self.line_shift;
        if self.last_line == Some(ln) {
            return;
        }
        // Train: extend the open record while the fetch stays in its
        // region; leaving the region commits the record with the new
        // trigger as its successor and opens the next one.
        match self.cur {
            None => self.cur = Some((ln, 0)),
            Some((t, bm)) => {
                if ln > t && ln - t < u64::from(MANA_REGION_LINES) {
                    self.cur = Some((t, bm | 1 << (ln - t - 1)));
                } else {
                    self.insert(t, bm, ln);
                    self.cur = Some((ln, 0));
                }
            }
        }
        // Replay: advance the stream that expected this trigger, or spin
        // up a new one when the table knows this line as a trigger.
        if let Some(i) = self.sab.iter().position(|e| e.valid && e.expected == ln) {
            self.chase(i, ln);
        } else if self.contains(ln) {
            let i = self.sab_slot();
            self.chase(i, ln);
        }
        self.last_line = Some(ln);
    }

    fn tick(&mut self, now: u64, fe: &mut PrefetchView<'_>, l2: &mut L2System) {
        issue_queue_head(&mut self.reqq, now, fe, l2);
    }

    fn next_event(&mut self, now: u64, fe: &mut PrefetchView<'_>) -> Idle {
        issue_queue_horizon(&self.reqq, now, fe)
    }

    fn on_redirect(&mut self) {
        self.reqq.clear();
        self.cur = None;
        self.last_line = None;
        for e in &mut self.sab {
            e.valid = false;
        }
    }

    fn checkpoint(&mut self) {
        self.saved = (self.cur, self.last_line, self.sab);
    }

    fn restore(&mut self) {
        (self.cur, self.last_line, self.sab) = self.saved;
    }
}

// ---------------------------------------------------------------------------
// Program-map traversal (Murthy & Sohi) — coarse next-region prediction.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default)]
struct MapEntry {
    valid: bool,
    /// Region number this entry describes (the direct-mapped tag).
    region: u64,
    /// Learned successor region.
    next: u64,
}

/// High-level program-map traversal: a direct-mapped region-successor map
/// over the dynamic block graph.  Entering a new `PROGMAP_REGION_BYTES`
/// region records the transition and walks the map `PROGMAP_DEGREE`
/// regions ahead, enqueueing every line of each predicted region.  Like
/// MANA (and CLGP), L1-resident lines are copied into the pre-buffer
/// rather than filtered — on instruction footprints whose hot regions fit
/// the L1, an FDP-style filter would drop every candidate and the
/// traversal would never hide the multi-cycle L1 hit it exists to hide.
#[derive(Debug)]
pub struct ProgMapPrefetcher {
    map: Vec<MapEntry>,
    last_region: Option<u64>,
    /// `last_region` as of the last
    /// [`checkpoint`](InstrPrefetcher::checkpoint).
    saved_region: Option<u64>,
    reqq: VecDeque<Addr>,
    lines_per_region: u64,
    line_bytes: u64,
}

impl ProgMapPrefetcher {
    fn idx(&self, region: u64) -> usize {
        (region as usize) & (self.map.len() - 1)
    }
}

impl InstrPrefetcher for ProgMapPrefetcher {
    fn kind(&self) -> PrefetcherKind {
        PrefetcherKind::ProgMap
    }

    fn from_config(cfg: &FrontendConfig) -> Self {
        ProgMapPrefetcher {
            map: vec![MapEntry::default(); cfg.progmap_entries],
            last_region: None,
            saved_region: None,
            reqq: VecDeque::new(),
            lines_per_region: PROGMAP_REGION_BYTES / cfg.line_bytes,
            line_bytes: cfg.line_bytes,
        }
    }

    fn observe_fetch(&mut self, slot: &LineSlot) {
        let region = slot.line >> PROGMAP_REGION_SHIFT;
        if self.last_region == Some(region) {
            return;
        }
        // Record the observed transition (last write wins: the map tracks
        // the current dominant control flow, not a history).
        if let Some(last) = self.last_region {
            let i = self.idx(last);
            self.map[i] = MapEntry {
                valid: true,
                region: last,
                next: region,
            };
        }
        // Traverse ahead: enqueue every line of the next learned regions.
        let mut r = region;
        for _ in 0..PROGMAP_DEGREE {
            let e = self.map[self.idx(r)];
            if !e.valid || e.region != r || e.next == region {
                break;
            }
            let base = e.next << PROGMAP_REGION_SHIFT;
            for k in 0..self.lines_per_region {
                enqueue(&mut self.reqq, base + k * self.line_bytes);
            }
            r = e.next;
        }
        self.last_region = Some(region);
    }

    fn tick(&mut self, now: u64, fe: &mut PrefetchView<'_>, l2: &mut L2System) {
        issue_queue_head(&mut self.reqq, now, fe, l2);
    }

    fn next_event(&mut self, now: u64, fe: &mut PrefetchView<'_>) -> Idle {
        issue_queue_horizon(&self.reqq, now, fe)
    }

    fn on_redirect(&mut self) {
        self.reqq.clear();
        self.last_region = None;
    }

    fn checkpoint(&mut self) {
        self.saved_region = self.last_region;
    }

    fn restore(&mut self) {
        self.last_region = self.saved_region;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(line: Addr) -> LineSlot {
        LineSlot {
            block_seq: 0,
            line,
            first_pc: line,
            n_insts: 16,
            prefetched: false,
            last_of_block: true,
        }
    }

    fn mana_cfg() -> FrontendConfig {
        let mut cfg = FrontendConfig::base(prestage_cacti::TechNode::T045, 4 << 10);
        cfg.prefetcher = PrefetcherKind::Mana;
        cfg.pb_entries = 4;
        cfg
    }

    #[test]
    fn mana_learns_records_and_chases_them() {
        let mut m = ManaPrefetcher::from_config(&mana_cfg());
        // First pass over a loop body: trigger 0x100, touches +1 and +3,
        // then jumps to trigger 0x200.
        for ln in [0x100u64, 0x101, 0x103, 0x200, 0x201, 0x100] {
            m.observe_fetch(&slot(ln << 6));
        }
        // Region record for 0x100 committed when fetch left for 0x200.
        let rec = m.lookup(0x100).expect("record learned");
        assert_eq!(rec.bitmap, 0b101, "footprint bits for +1 and +3");
        assert_eq!(rec.next, 0x200);
        // The second visit to 0x100 hit the table and chased the chain:
        // the footprint lines (and the successor record's) are queued.
        assert!(
            m.reqq.contains(&(0x101 << 6)) && m.reqq.contains(&(0x103 << 6)),
            "footprint queued: {:?}",
            m.reqq
        );
        assert!(
            m.reqq.contains(&(0x200 << 6)),
            "chained successor trigger queued: {:?}",
            m.reqq
        );
    }

    #[test]
    fn mana_checkpoint_round_trips_speculative_state() {
        let mut m = ManaPrefetcher::from_config(&mana_cfg());
        for ln in [0x10u64, 0x11, 0x40, 0x10] {
            m.observe_fetch(&slot(ln << 6));
        }
        m.checkpoint();
        let (cur, last, sab) = (m.cur, m.last_line, m.sab);
        assert!(sab.iter().any(|e| e.valid), "a stream was chased");
        // Wrong path: observe garbage, then flush and restore.
        for ln in [0x900u64, 0x905, 0x77] {
            m.observe_fetch(&slot(ln << 6));
        }
        assert_ne!(m.last_line, last);
        m.on_redirect();
        m.restore();
        assert_eq!((m.cur, m.last_line, m.sab), (cur, last, sab));
        assert!(
            m.reqq.is_empty(),
            "restore must not resurrect queued requests"
        );
    }

    #[test]
    fn progmap_learns_region_transitions_and_traverses() {
        let mut cfg = FrontendConfig::base(prestage_cacti::TechNode::T045, 4 << 10);
        cfg.prefetcher = PrefetcherKind::ProgMap;
        cfg.pb_entries = 4;
        let mut p = ProgMapPrefetcher::from_config(&cfg);
        // Regions are 256 B = 4 lines.  Walk A(0x1000) → B(0x2000) →
        // C(0x3000), then return to A: the map now chains A→B→C.
        for pc in [0x1000u64, 0x2000, 0x3000, 0x1000] {
            p.observe_fetch(&slot(pc));
        }
        // Re-entering A traverses: all 4 lines of B and (degree 2) of C.
        for k in 0..4u64 {
            assert!(
                p.reqq.contains(&(0x2000 + k * 64)),
                "B line {k}: {:?}",
                p.reqq
            );
            assert!(
                p.reqq.contains(&(0x3000 + k * 64)),
                "C line {k}: {:?}",
                p.reqq
            );
        }
        // Same-region refetches are not transitions.
        let before = p.reqq.len();
        p.observe_fetch(&slot(0x1040));
        assert_eq!(p.reqq.len(), before);
    }

    #[test]
    fn progmap_checkpoint_round_trips_its_region_cursor() {
        let mut cfg = FrontendConfig::base(prestage_cacti::TechNode::T045, 4 << 10);
        cfg.prefetcher = PrefetcherKind::ProgMap;
        cfg.pb_entries = 4;
        let mut p = ProgMapPrefetcher::from_config(&cfg);
        for pc in [0x1000u64, 0x2000] {
            p.observe_fetch(&slot(pc));
        }
        p.checkpoint();
        // Wrong path: wander into another region, then flush and restore.
        p.observe_fetch(&slot(0x9000));
        assert_eq!(p.last_region, Some(0x9000 >> PROGMAP_REGION_SHIFT));
        p.on_redirect();
        assert_eq!(p.last_region, None);
        p.restore();
        assert_eq!(p.last_region, Some(0x2000 >> PROGMAP_REGION_SHIFT));
        // Back on the path, the next region change records the transition
        // from the restored region, not from the wrong-path one.
        p.observe_fetch(&slot(0x3000));
        let from = p.map[p.idx(0x2000 >> PROGMAP_REGION_SHIFT)];
        assert!(from.valid && from.next == 0x3000 >> PROGMAP_REGION_SHIFT);
        assert!(
            p.reqq.is_empty(),
            "restore must not resurrect queued requests"
        );
    }

    #[test]
    fn registry_builds_every_kind_and_sizes_it() {
        for kind in PrefetcherKind::all() {
            let mut cfg = FrontendConfig::base(prestage_cacti::TechNode::T090, 4 << 10);
            cfg.prefetcher = kind;
            cfg.pb_entries = 8;
            // The trait stays object-safe even though dispatch is now
            // monomorphic: box each mechanism through `from_config` the way
            // the engine instantiates it.
            let pf: Box<dyn InstrPrefetcher> = match kind {
                PrefetcherKind::None => Box::new(NoPrefetcher::from_config(&cfg)),
                PrefetcherKind::NextLine => Box::new(NextLinePrefetcher::from_config(&cfg)),
                PrefetcherKind::Fdp => Box::new(FdpPrefetcher::from_config(&cfg)),
                PrefetcherKind::Clgp => Box::new(ClgpPrefetcher::from_config(&cfg)),
                PrefetcherKind::Mana => Box::new(ManaPrefetcher::from_config(&cfg)),
                PrefetcherKind::ProgMap => Box::new(ProgMapPrefetcher::from_config(&cfg)),
            };
            assert_eq!(pf.kind(), kind);
            // Metadata at this config: a PIQ of 8 line addresses; MANA's
            // 1024 records of tag, successor, valid/replacement and a 1-byte
            // bitmap, its 4-entry SAB and the 32-line request queue; the
            // program map's 2048 region pairs and the same queue.
            let want_bytes = match kind {
                PrefetcherKind::None | PrefetcherKind::Clgp => 0,
                PrefetcherKind::Fdp | PrefetcherKind::NextLine => 8 * 8,
                PrefetcherKind::Mana => 1024 * (4 + 4 + 1 + 1) + 4 * 8 + 32 * 8,
                PrefetcherKind::ProgMap => 2048 * (4 + 4) + 32 * 8,
            };
            assert_eq!(prefetcher_state_bytes(&cfg), want_bytes, "{kind:?}");
            assert_eq!(
                pf.migrate_used_lines(),
                kind != PrefetcherKind::None && kind != PrefetcherKind::Clgp,
                "only CLGP (by design) and the no-op baseline skip L1 migration"
            );
        }
    }

    #[test]
    fn prefetcher_ids_round_trip() {
        for kind in PrefetcherKind::all() {
            assert_eq!(PrefetcherKind::from_id(kind.id()), Some(kind));
            assert_eq!(
                PrefetcherKind::from_id(&kind.id().to_uppercase()),
                Some(kind)
            );
        }
        assert_eq!(PrefetcherKind::from_id("nonesuch"), None);
    }
}
