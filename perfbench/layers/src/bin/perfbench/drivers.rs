//! Steady-state layer drivers.
//!
//! Each driver builds its layer once, warms it on the workload's own
//! committed path (same benchmark, same seeds as the cell), and then times
//! only the layer's per-call work: construction and warm-up stay outside
//! the timed region.

use crate::clock::{ticks, Clock, Cost};
use prestage_bpred::{StreamDesc, StreamPredictor, MAX_STREAM_INSTS};
use prestage_cache::{Completion, ITlb, ITlbConfig, L2Config, L2System, ReqClass};
use prestage_cacti::TechNode;
use prestage_core::{
    ClgpPrefetcher, Delivery, FdpPrefetcher, FrontEnd, InstrPrefetcher, ManaPrefetcher,
    NextLinePrefetcher, NoPrefetcher, PrefetcherKind, ProgMapPrefetcher,
};
use prestage_sim::{BackEnd, SimConfig};
use prestage_workload::{
    build, BenchmarkProfile, DynInst, InstSource, SharedReplayer, TraceGenerator, TraceReader,
    Workload,
};
use std::sync::Arc;
use std::time::Instant;

/// Iteration counts for one driver run.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub warm: u64,
    pub timed: u64,
}

/// The workload's committed path as a stream of truth streams and flat
/// instructions.
struct Feed<'w> {
    gen: TraceGenerator<'w>,
    buf: Vec<DynInst>,
    pos: usize,
}

impl<'w> Feed<'w> {
    fn new(w: &'w Workload, exec_seed: u64) -> Self {
        Feed {
            gen: TraceGenerator::new(w, exec_seed),
            buf: Vec::new(),
            pos: 0,
        }
    }

    fn stream(&mut self) -> StreamDesc {
        self.pos = 0;
        self.gen.next_stream(&mut self.buf)
    }

    fn inst(&mut self) -> DynInst {
        while self.pos >= self.buf.len() {
            self.stream();
        }
        self.pos += 1;
        self.buf[self.pos - 1]
    }

    fn data_addr(&mut self) -> u64 {
        loop {
            if let Some(a) = self.inst().mem_addr {
                return a;
            }
        }
    }
}

/// `FrontEnd::<P>::tick` per cycle for mechanism `kind`, over a real
/// `L2System`, fed the workload's fetch blocks one per cycle (the
/// engine's prediction bandwidth) with the decode buffer always drained.
pub fn frontend_tick(
    clock: &Clock,
    cfg: &SimConfig,
    kind: PrefetcherKind,
    w: &Workload,
    exec_seed: u64,
    size: Size,
) -> Cost {
    let cfg = cfg.with_prefetcher(kind);
    match kind {
        PrefetcherKind::None => drive_frontend::<NoPrefetcher>(clock, &cfg, w, exec_seed, size),
        PrefetcherKind::NextLine => {
            drive_frontend::<NextLinePrefetcher>(clock, &cfg, w, exec_seed, size)
        }
        PrefetcherKind::Fdp => drive_frontend::<FdpPrefetcher>(clock, &cfg, w, exec_seed, size),
        PrefetcherKind::Clgp => drive_frontend::<ClgpPrefetcher>(clock, &cfg, w, exec_seed, size),
        PrefetcherKind::Mana => drive_frontend::<ManaPrefetcher>(clock, &cfg, w, exec_seed, size),
        PrefetcherKind::ProgMap => {
            drive_frontend::<ProgMapPrefetcher>(clock, &cfg, w, exec_seed, size)
        }
    }
}

fn drive_frontend<P: InstrPrefetcher>(
    clock: &Clock,
    cfg: &SimConfig,
    w: &Workload,
    exec_seed: u64,
    size: Size,
) -> Cost {
    let mut fe = FrontEnd::<P>::new(cfg.frontend);
    let mut l2 = L2System::new(L2Config::for_node(cfg.frontend.tech));
    let mut feed = Feed::new(w, exec_seed);
    let mut completions: Vec<Completion> = Vec::with_capacity(8);
    let mut out: Vec<Delivery> = Vec::with_capacity(8);
    let mut pending: Option<StreamDesc> = None;
    let mut seq = 0u64;
    let mut spent = 0u64;
    for now in 0..size.warm + size.timed {
        l2.tick_into(now, &mut completions);
        for c in &completions {
            fe.on_completion(c);
        }
        out.clear();
        let t0 = ticks();
        fe.tick(now, &mut l2, cfg.decode_buffer, &mut out);
        let dt = ticks().wrapping_sub(t0);
        if now >= size.warm {
            spent = spent.wrapping_add(dt);
        }
        if fe.has_queue_space() {
            let s = pending.take().unwrap_or_else(|| feed.stream());
            if fe.push_block(seq, s.start, s.len) {
                seq += 1;
            } else {
                pending = Some(s);
            }
        }
    }
    Cost {
        ns: clock.ns(spent, size.timed),
        calls: size.timed,
    }
}

/// L2 request arrivals per cycle by class, taken from a cell's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct L2Mix {
    pub dcache: f64,
    pub ifetch: f64,
    pub prefetch: f64,
    pub writeback: f64,
}

/// `L2System::tick_into` per cycle, with requests arriving at the cell's
/// own per-class rates: data addresses from the workload's loads and
/// stores, instruction lines from its fetch blocks.
pub fn l2_tick(
    clock: &Clock,
    tech: TechNode,
    mix: L2Mix,
    w: &Workload,
    exec_seed: u64,
    size: Size,
) -> Cost {
    let mut l2 = L2System::new(L2Config::for_node(tech));
    let mut feed = Feed::new(w, exec_seed);
    let mut completions: Vec<Completion> = Vec::with_capacity(8);
    let rates = [mix.dcache, mix.ifetch, mix.prefetch, mix.writeback];
    let mut credit = [0.0f64; 4];
    let mut spent = 0u64;
    for now in 0..size.warm + size.timed {
        for (k, rate) in rates.iter().enumerate() {
            credit[k] += rate;
            while credit[k] >= 1.0 {
                credit[k] -= 1.0;
                match k {
                    0 => {
                        l2.submit(feed.data_addr(), ReqClass::DCache, now);
                    }
                    1 => {
                        l2.submit(feed.stream().start, ReqClass::IFetch, now);
                    }
                    2 => {
                        l2.submit(feed.stream().start, ReqClass::Prefetch, now);
                    }
                    _ => l2.submit_writeback(feed.data_addr(), now),
                }
            }
        }
        let t0 = ticks();
        l2.tick_into(now, &mut completions);
        let dt = ticks().wrapping_sub(t0);
        if now >= size.warm {
            spent = spent.wrapping_add(dt);
        }
    }
    Cost {
        ns: clock.ns(spent, size.timed),
        calls: size.timed,
    }
}

/// The RUU back-end: `BackEnd::tick` per cycle, and the engine's dispatch
/// step (static-instruction lookup + `BackEnd::dispatch`) per instruction,
/// fed the workload's committed path with D-cache misses served by a real
/// `L2System`.  Instructions arrive at `ipc` per cycle, the cell's own
/// rate: a window kept full would make every issue scan longer than the
/// cell's.  Returns (tick, dispatch).
pub fn backend(
    clock: &Clock,
    cfg: &SimConfig,
    ipc: f64,
    w: &Workload,
    exec_seed: u64,
    size: Size,
) -> (Cost, Cost) {
    let mut be = BackEnd::new(cfg.backend);
    let mut l2 = L2System::new(L2Config::for_node(cfg.frontend.tech));
    let mut feed = Feed::new(w, exec_seed);
    let mut completions: Vec<Completion> = Vec::with_capacity(8);
    let width = cfg.backend.width as usize;
    let mut ready: Vec<DynInst> = Vec::with_capacity(width);
    let (mut tick_spent, mut disp_spent, mut dispatched, mut disp_regions) =
        (0u64, 0u64, 0u64, 0u64);
    let mut credit = 0.0f64;
    for now in 0..size.warm + size.timed {
        l2.tick_into(now, &mut completions);
        for c in &completions {
            if c.class == ReqClass::DCache {
                be.on_completion(c);
            }
        }
        let t0 = ticks();
        let _ = be.tick(now, &mut l2);
        let dt = ticks().wrapping_sub(t0);
        while ready.len() < width {
            ready.push(feed.inst());
        }
        credit = (credit + ipc).min(width as f64);
        let n = (credit as usize).min(be.free_slots());
        credit -= n as f64;
        let t1 = ticks();
        for di in &ready[..n] {
            let st = w.program.block(di.block).insts[di.idx as usize];
            be.dispatch(&st, di.mem_addr, false);
        }
        let dd = ticks().wrapping_sub(t1);
        ready.drain(..n);
        if now >= size.warm {
            tick_spent = tick_spent.wrapping_add(dt);
            if n > 0 {
                disp_spent = disp_spent.wrapping_add(dd);
                disp_regions += 1;
                dispatched += n as u64;
            }
        }
    }
    (
        Cost {
            ns: clock.ns(tick_spent, size.timed),
            calls: size.timed,
        },
        Cost {
            ns: clock.ns(disp_spent, disp_regions),
            calls: dispatched,
        },
    )
}

const BATCH: u64 = 32;

/// `ITlb::translate` per fetched line of the workload's committed path.
/// Returns the cost and the miss rate over the timed window.
pub fn itlb(
    clock: &Clock,
    cfg: &ITlbConfig,
    line_bytes: u64,
    w: &Workload,
    exec_seed: u64,
    size: Size,
) -> (Cost, f64) {
    let mut tlb = ITlb::new(cfg);
    let mut feed = Feed::new(w, exec_seed);
    let mut lines: Vec<u64> = Vec::new();
    let mut next_lines = |n: u64, lines: &mut Vec<u64>| {
        lines.clear();
        while (lines.len() as u64) < n {
            let s = feed.stream();
            let first = s.start / line_bytes;
            let last = s.end_pc() / line_bytes;
            lines.extend((first..=last).map(|l| l * line_bytes));
        }
    };
    let mut now = 0u64;
    next_lines(size.warm, &mut lines);
    for &a in &lines {
        now = tlb.translate(a, now) + 1;
    }
    tlb.reset_stats();
    let mut spent = 0u64;
    let mut done = 0u64;
    let mut regions = 0u64;
    while done < size.timed {
        next_lines(BATCH, &mut lines);
        let t0 = ticks();
        for &a in &lines {
            now = tlb.translate(a, now) + 1;
        }
        spent = spent.wrapping_add(ticks().wrapping_sub(t0));
        regions += 1;
        done += lines.len() as u64;
    }
    let s = tlb.stats();
    let lookups = s.hits + s.misses;
    let miss_rate = if lookups == 0 {
        0.0
    } else {
        s.misses as f64 / lookups as f64
    };
    (
        Cost {
            ns: clock.ns(spent, regions),
            calls: done,
        },
        miss_rate,
    )
}

/// Token + predict + train per truth stream, as the engine's on-path
/// prediction step does it.
pub fn bpred(clock: &Clock, w: &Workload, exec_seed: u64, size: Size) -> Cost {
    let mut feed = Feed::new(w, exec_seed);
    let streams: Vec<StreamDesc> = (0..size.warm + size.timed).map(|_| feed.stream()).collect();
    let mut pred = StreamPredictor::paper_default();
    let (warm, timed) = streams.split_at(usize::try_from(size.warm).unwrap_or(usize::MAX));
    for s in warm {
        let tok = pred.token(s.start);
        let p = pred.predict_with_token(&tok, s.start, &w.program);
        pred.train_with_token(&tok, s, p.stream.same_flow(s));
    }
    let mut spent = 0u64;
    let mut regions = 0u64;
    for chunk in timed.chunks(BATCH as usize) {
        let t0 = ticks();
        for s in chunk {
            let tok = pred.token(s.start);
            let p = pred.predict_with_token(&tok, s.start, &w.program);
            pred.train_with_token(&tok, s, p.stream.same_flow(s));
        }
        spent = spent.wrapping_add(ticks().wrapping_sub(t0));
        regions += 1;
    }
    // Keep the predictor observable so the loop cannot be elided.
    std::hint::black_box(pred.stats());
    Cost {
        ns: clock.ns(spent, regions),
        calls: timed.len() as u64,
    }
}

/// Live stream generation (`TraceGenerator::next_stream`).
pub fn generate(clock: &Clock, w: &Workload, exec_seed: u64, size: Size) -> Cost {
    let mut src = TraceGenerator::new(w, exec_seed);
    let mut buf = Vec::new();
    for _ in 0..size.warm {
        src.next_stream(&mut buf);
    }
    let mut spent = 0u64;
    let mut regions = 0u64;
    let mut calls = 0u64;
    while calls < size.timed {
        let t0 = ticks();
        for _ in 0..BATCH {
            std::hint::black_box(src.next_stream(&mut buf));
        }
        spent = spent.wrapping_add(ticks().wrapping_sub(t0));
        regions += 1;
        calls += BATCH;
    }
    Cost {
        ns: clock.ns(spent, regions),
        calls,
    }
}

/// Shared in-memory replay (`SharedReplayer::next_stream`) over a decoded
/// trace of the workload, restarting from the top before a batch could
/// run past the end.
pub fn replay(clock: &Clock, records: &Arc<Vec<DynInst>>, size: Size) -> Cost {
    let batch_insts = (BATCH * u64::from(MAX_STREAM_INSTS)) as usize;
    let mut src = SharedReplayer::new(Arc::clone(records), "driver");
    let mut used = 0usize;
    let mut buf = Vec::new();
    let mut spent = 0u64;
    let mut regions = 0u64;
    let mut calls = 0u64;
    while calls < size.warm + size.timed {
        if used + batch_insts > records.len() {
            src = SharedReplayer::new(Arc::clone(records), "driver");
            used = 0;
        }
        let t0 = ticks();
        for _ in 0..BATCH {
            used += src.next_stream(&mut buf).len as usize;
        }
        let dt = ticks().wrapping_sub(t0);
        calls += BATCH;
        if calls > size.warm {
            spent = spent.wrapping_add(dt);
            regions += 1;
        }
    }
    Cost {
        ns: clock.ns(spent, regions),
        calls: regions * BATCH,
    }
}

/// Decode a whole encoded trace; `verify` recomputes every chunk CRC
/// (`TraceReader::new`), otherwise only the structure is checked
/// (`TraceReader::trusted`).  Returns the records and the fastest of
/// `reps` passes in ns.
pub fn decode_trace(
    bytes: &[u8],
    verify: bool,
    reps: usize,
) -> Result<(Vec<DynInst>, f64), String> {
    let mut best = f64::INFINITY;
    let mut records = Vec::new();
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let reader = if verify {
            TraceReader::new(bytes)
        } else {
            TraceReader::trusted(bytes)
        }
        .map_err(|e| format!("trace header: {e}"))?;
        let mut out = Vec::with_capacity(usize::try_from(reader.header().count).unwrap_or(0));
        for r in reader {
            out.push(r.map_err(|e| format!("trace record {}: {e}", out.len()))?);
        }
        best = best.min(t0.elapsed().as_nanos() as f64);
        records = out;
    }
    Ok((records, best))
}

/// Median over `reps` of `workload::build` in ns, and the workload.
pub fn build_workload(profile: &BenchmarkProfile, seed: u64, reps: usize) -> (Workload, f64) {
    let mut times = Vec::new();
    let mut w = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let built = build(profile, seed);
        times.push(t0.elapsed().as_nanos() as f64);
        w = Some(built);
    }
    times.sort_by(f64::total_cmp);
    let Some(w) = w else {
        unreachable!("at least one build ran")
    };
    (w, times[times.len() / 2])
}
