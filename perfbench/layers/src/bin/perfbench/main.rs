//! `perfbench` — the compiled half of the repository benchmark; the
//! driver is `perfbench/run.py`.
//!
//! ```text
//! perfbench spawn  --log <file> -- <program> [args...]
//! perfbench layers --cells <file> [--reps N] [--scale F]
//! ```
//!
//! `spawn` runs one command and prints its wall time, CPU time and peak
//! resident memory as one JSON line.
//!
//! `layers` is the traced run.  It re-runs the benchmark's cells in
//! process through `Engine::with_source` (untraced, then with a timing
//! wrapper around the instruction source), times each substrate layer in
//! a steady-state driver fed the same benchmark and seeds, and prints one
//! JSON object: per-cell counters (for the driver to compare against the
//! CLI's artifact) and the per-layer metrics, including the ledger that
//! attributes the engine's time per instruction to its layers.

mod cells;
mod clock;
mod drivers;
mod spawn;

use cells::{run_cell, CellRun, CellSpec, Source};
use clock::{Clock, Cost};
use drivers::{L2Mix, Size};
use prestage_core::{ITlbConfig, PrefetcherKind};
use prestage_workload::{by_name, record_trace, DynInst, Workload, DEFAULT_CHUNK_INSTS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Cursor;
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    exit(2);
}

fn take_flag(args: &mut Vec<String>, key: &str) -> Option<String> {
    let i = args.iter().position(|a| a == key)?;
    if i + 1 >= args.len() {
        fail(&format!("{key} needs a value"));
    }
    args.remove(i);
    Some(args.remove(i))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: perfbench spawn --log <file> -- <cmd>... | \
                 perfbench layers --cells <file> [--reps N] [--scale F]";
    if args.is_empty() {
        fail(usage);
    }
    match args.remove(0).as_str() {
        "spawn" => {
            let log = take_flag(&mut args, "--log").unwrap_or_else(|| fail(usage));
            let cmd = match args.iter().position(|a| a == "--") {
                Some(i) => &args[i + 1..],
                None => fail(usage),
            };
            spawn::run(&log, cmd).unwrap_or_else(|e| fail(&e));
        }
        "layers" => {
            let cells = take_flag(&mut args, "--cells").unwrap_or_else(|| fail(usage));
            let reps = take_flag(&mut args, "--reps").map_or(1, |v| {
                v.parse().unwrap_or_else(|_| fail(&format!("--reps {v:?}")))
            });
            let scale = take_flag(&mut args, "--scale").map_or(1.0, |v| {
                v.parse()
                    .unwrap_or_else(|_| fail(&format!("--scale {v:?}")))
            });
            layers(&cells, reps, scale).unwrap_or_else(|e| fail(&e));
        }
        _ => fail(usage),
    }
}

/// Driver sizes at `scale` 1.
fn size(scale: f64, warm: u64, timed: u64) -> Size {
    let s = |n: u64| ((n as f64 * scale) as u64).max(64);
    Size {
        warm: s(warm),
        timed: s(timed),
    }
}

/// The fastest of three runs of a driver, by `ns` of the cost it returns:
/// interference from other processes on the host only ever adds time.
fn best<T>(mut run: impl FnMut() -> T, ns: impl Fn(&T) -> f64) -> T {
    let mut out = run();
    for _ in 0..2 {
        let r = run();
        if ns(&r) < ns(&out) {
            out = r;
        }
    }
    out
}

fn best_cost(run: impl FnMut() -> Cost) -> Cost {
    best(run, Cost::per_call)
}

/// Longest live trace the decode drivers record in memory: per-instruction
/// decode cost does not depend on length.
const MAX_DRIVER_TRACE_INSTS: u64 = 1 << 20;

/// Decode costs of the traces a workload replays (or would replay).
#[derive(Default)]
struct TraceCosts {
    verify_ns: f64,
    decode_ns: f64,
    insts: u64,
    resident_bytes: f64,
}

/// Per-benchmark layer costs from the steady-state drivers.
struct BenchCosts {
    bpred: Cost,
    itlb: Cost,
    itlb_miss_rate: f64,
    gen: Cost,
    fe: BTreeMap<&'static str, Cost>,
}

fn layers(cells_path: &str, reps: usize, scale: f64) -> Result<(), String> {
    let text = std::fs::read_to_string(cells_path)
        .map_err(|e| format!("cannot read {cells_path}: {e}"))?;
    let cells: Vec<CellSpec> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(CellSpec::parse)
        .collect::<Result<_, _>>()?;
    if cells.is_empty() {
        return Err(format!("{cells_path} lists no cells"));
    }
    let clock = Clock::calibrate();

    // Workloads, built once per (benchmark, seed), with the build timed.
    let mut workloads: BTreeMap<(String, u64), Workload> = BTreeMap::new();
    let mut build_ns = 0.0;
    for c in &cells {
        let key = (c.bench.clone(), c.workload_seed);
        if workloads.contains_key(&key) {
            continue;
        }
        let profile =
            by_name(&c.bench).ok_or_else(|| format!("unknown benchmark {:?}", c.bench))?;
        let (w, ns) = drivers::build_workload(&profile, c.workload_seed, 3);
        build_ns += ns;
        workloads.insert(key, w);
    }
    let workload = |c: &CellSpec| &workloads[&(c.bench.clone(), c.workload_seed)];

    // Traces: the recorded files a replayed cell reads, or an in-memory
    // recording of a live cell's path for the decode drivers.
    let mut traces = TraceCosts::default();
    let mut replayed: BTreeMap<PathBuf, Arc<Vec<DynInst>>> = BTreeMap::new();
    let mut live_records: BTreeMap<String, Arc<Vec<DynInst>>> = BTreeMap::new();
    let record_bytes = std::mem::size_of::<DynInst>() as f64;
    for c in &cells {
        match &c.trace {
            Some(path) if !replayed.contains_key(path) => {
                let bytes = std::fs::read(path)
                    .map_err(|e| format!("cannot read trace {}: {e}", path.display()))?;
                let (_, verify) = drivers::decode_trace(&bytes, true, 3)?;
                let (records, decode) = drivers::decode_trace(&bytes, false, 3)?;
                traces.verify_ns += verify;
                traces.decode_ns += decode;
                traces.insts += records.len() as u64;
                traces.resident_bytes += records.len() as f64 * record_bytes;
                replayed.insert(path.clone(), Arc::new(records));
            }
            None if !live_records.contains_key(&c.bench) => {
                let run = c
                    .warmup
                    .saturating_add(c.measure)
                    .saturating_add(prestage_sim::TRACE_RECORD_SLACK);
                let mut bytes = Cursor::new(Vec::new());
                record_trace(
                    &mut bytes,
                    workload(c),
                    c.exec_seed,
                    run.min(MAX_DRIVER_TRACE_INSTS),
                    DEFAULT_CHUNK_INSTS,
                )
                .map_err(|e| format!("recording {}: {e}", c.bench))?;
                let bytes = bytes.into_inner();
                let (_, verify) = drivers::decode_trace(&bytes, true, 3)?;
                let (records, decode) = drivers::decode_trace(&bytes, false, 3)?;
                traces.verify_ns += verify;
                traces.decode_ns += decode;
                traces.insts += records.len() as u64;
                traces.resident_bytes += run as f64 * record_bytes;
                live_records.insert(c.bench.clone(), Arc::new(records));
            }
            _ => {}
        }
    }

    // The cells themselves, in process.
    let runs: Vec<CellRun> = cells
        .iter()
        .map(|c| {
            let src = match &c.trace {
                Some(p) => Source::Replay(&replayed[p]),
                None => Source::Live,
            };
            run_cell(&clock, c, workload(c), &src, reps)
        })
        .collect();

    // Steady-state drivers, once per benchmark (front-end: per mechanism).
    let mut bench_costs: BTreeMap<String, BenchCosts> = BTreeMap::new();
    for c in &cells {
        if bench_costs.contains_key(&c.bench) {
            continue;
        }
        let w = workload(c);
        let cfg = c.config();
        let x = c.exec_seed;
        let tlb_cfg = c.itlb.unwrap_or_else(ITlbConfig::default_config);
        let (itlb, itlb_miss_rate) = best(
            || {
                drivers::itlb(
                    &clock,
                    &tlb_cfg,
                    cfg.frontend.line_bytes,
                    w,
                    x,
                    size(scale, 20_000, 100_000),
                )
            },
            |r| r.0.per_call(),
        );
        let fe = PrefetcherKind::all()
            .into_iter()
            .map(|k| {
                (
                    k.id(),
                    best_cost(|| {
                        drivers::frontend_tick(&clock, &cfg, k, w, x, size(scale, 20_000, 100_000))
                    }),
                )
            })
            .collect();
        bench_costs.insert(
            c.bench.clone(),
            BenchCosts {
                bpred: best_cost(|| drivers::bpred(&clock, w, x, size(scale, 20_000, 50_000))),
                itlb,
                itlb_miss_rate,
                gen: best_cost(|| drivers::generate(&clock, w, x, size(scale, 2_000, 50_000))),
                fe,
            },
        );
    }

    // Aggregate over cells: counters as sums, per-call costs weighted by
    // how often each cell made the call, ledger entries weighted by the
    // instructions each cell ran.
    #[derive(Default)]
    struct Sum {
        run_ns: f64,
        traced_ns: f64,
        insts: f64,
        committed: f64,
        cycles: f64,
        redirects: f64,
        new_ns: f64,
        live_src: Cost,
        replay_src: Cost,
        predictions: f64,
        trained: f64,
        train_correct: f64,
        pb_lines: f64,
        fetch_lines: f64,
        prefetches: f64,
        pb_stalls: f64,
        l2_hits: f64,
        l2_misses: f64,
        bus_wait: f64,
        grants: f64,
        dc_hits: f64,
        dc_misses: f64,
        commit_stalls: f64,
        w_bpred: f64,
        w_fe: f64,
        w_l2: f64,
        w_be: f64,
        w_disp: f64,
        w_itlb: f64,
        w_itlb_miss: f64,
        fe_by_mech: BTreeMap<&'static str, (f64, f64)>,
        ledger: BTreeMap<&'static str, f64>,
    }
    let mut s = Sum::default();
    let mut cells_json = Vec::new();
    for (c, r) in cells.iter().zip(&runs) {
        let st = &r.stats;
        let b = &bench_costs[&c.bench];
        let insts = c.run_insts(st) as f64;
        let committed = st.committed.max(1) as f64;
        let cycles = st.cycles as f64;
        let preds = st.pred.predictions as f64;
        let mech = c.mechanism().id();
        let mix = L2Mix {
            dcache: st.bus.grants_dcache as f64 / cycles.max(1.0),
            ifetch: st.bus.grants_ifetch as f64 / cycles.max(1.0),
            prefetch: st.bus.grants_prefetch as f64 / cycles.max(1.0),
            writeback: st.bus.writebacks as f64 / cycles.max(1.0),
        };
        let l2 = best_cost(|| {
            drivers::l2_tick(
                &clock,
                c.tech,
                mix,
                workload(c),
                c.exec_seed,
                size(scale, 20_000, 100_000),
            )
        });
        let (be_tick, dispatch) = best(
            || {
                drivers::backend(
                    &clock,
                    &c.config(),
                    committed / cycles.max(1.0),
                    workload(c),
                    c.exec_seed,
                    size(scale, 20_000, 100_000),
                )
            },
            |r| r.0.per_call(),
        );
        s.run_ns += r.run_ns;
        s.traced_ns += r.traced_ns;
        s.insts += insts;
        s.committed += committed;
        s.cycles += cycles;
        s.redirects += st.redirects as f64;
        s.new_ns += r.new_ns;
        let src = Cost {
            ns: r.source_ns,
            calls: r.source_calls,
        };
        if c.trace.is_some() {
            s.replay_src.add(src);
        } else {
            s.live_src.add(src);
        }
        s.predictions += preds;
        s.trained += st.pred.trained as f64;
        s.train_correct += st.pred.train_correct as f64;
        s.pb_lines += st.front.fetch_pb.lines as f64;
        s.fetch_lines += st.front.total_fetch_lines() as f64;
        s.prefetches += st.front.prefetches_issued as f64;
        s.pb_stalls += st.front.pb_alloc_stalls as f64;
        s.l2_hits += st.bus.l2_hits as f64;
        s.l2_misses += st.bus.l2_misses as f64;
        s.bus_wait += st.bus.wait_cycles as f64;
        s.grants += st.bus.grants() as f64;
        s.dc_hits += st.backend.dcache_hits as f64;
        s.dc_misses += st.backend.dcache_misses as f64;
        s.commit_stalls += st.backend.commit_stall_cycles as f64;
        let fe = b.fe[mech].per_call();
        s.w_bpred += b.bpred.per_call() * preds;
        s.w_fe += fe * cycles;
        s.w_l2 += l2.per_call() * cycles;
        s.w_be += be_tick.per_call() * cycles;
        s.w_disp += dispatch.per_call() * committed;
        s.w_itlb += b.itlb.per_call() * cycles;
        s.w_itlb_miss += b.itlb_miss_rate * cycles;
        let e = s.fe_by_mech.entry(mech).or_default();
        e.0 += fe * cycles;
        e.1 += cycles;
        // Ledger: per-call cost x calls per instruction, in this cell's
        // own counters, weighted by the instructions the cell ran.
        for (layer, ns_per_inst) in [
            ("source", r.source_ns / insts.max(1.0)),
            ("bpred", b.bpred.per_call() * preds / committed),
            ("frontend", fe * cycles / committed),
            ("l2", l2.per_call() * cycles / committed),
            ("backend", be_tick.per_call() * cycles / committed),
            ("dispatch", dispatch.per_call()),
        ] {
            *s.ledger.entry(layer).or_default() += ns_per_inst * insts;
        }
        cells_json.push(format!(
            "{{\"index\": {}, \"spec\": {}, \"bench\": {}, \"cycles\": {}, \"committed\": {}, \
             \"redirects\": {}, \"mismatch\": {}}}",
            c.index,
            json_str(&c.spec),
            json_str(&c.bench),
            st.cycles,
            st.committed,
            st.redirects,
            r.mismatch.as_deref().map_or("null".to_string(), json_str)
        ));
    }

    let div = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let per_k = |a: f64| div(a * 1000.0, s.committed);
    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |k: &str, v: f64| m.push((k.to_string(), v));

    let all_gen = bench_costs.values().fold(Cost::default(), |mut acc, b| {
        acc.add(b.gen);
        acc
    });
    let ns_per_inst = div(s.run_ns, s.insts);
    let cpi = div(s.cycles, s.committed);
    put("workload.build_ms", build_ns / 1e6);
    put(
        "workload.gen_ns_per_stream",
        if s.live_src.calls > 0 {
            s.live_src.per_call()
        } else {
            all_gen.per_call()
        },
    );
    let replay_driver = live_records.values().fold(Cost::default(), |mut acc, r| {
        acc.add(best_cost(|| {
            drivers::replay(&clock, r, size(scale, 2_000, 50_000))
        }));
        acc
    });
    put(
        "workload.replay_ns_per_stream",
        if s.replay_src.calls > 0 {
            s.replay_src.per_call()
        } else {
            replay_driver.per_call()
        },
    );
    put(
        "workload.source_calls_per_kinst",
        div(
            (s.live_src.calls + s.replay_src.calls) as f64 * 1000.0,
            s.insts,
        ),
    );
    put(
        "workload.trace_verify_ns_per_inst",
        div(traces.verify_ns, traces.insts as f64),
    );
    put(
        "workload.trace_decode_ns_per_inst",
        div(traces.decode_ns, traces.insts as f64),
    );
    put(
        "workload.trace_resident_mb",
        traces.resident_bytes / (1u64 << 20) as f64,
    );
    put("bpred.predict_train_ns", div(s.w_bpred, s.predictions));
    put("bpred.accuracy", div(s.train_correct, s.trained));
    put("bpred.predictions_per_kinst", per_k(s.predictions));
    for k in PrefetcherKind::all() {
        // Weighted by the cycles of the cells that run this mechanism;
        // a mechanism no cell runs is the plain mean over benchmarks.
        let v = match s.fe_by_mech.get(k.id()) {
            Some(&(w, cyc)) if cyc > 0.0 => w / cyc,
            _ => div(
                bench_costs.values().map(|b| b.fe[k.id()].per_call()).sum(),
                bench_costs.len() as f64,
            ),
        };
        put(&format!("core.fe_tick_ns.{}", k.id()), v);
    }
    put("core.pb_fetch_share", div(s.pb_lines, s.fetch_lines));
    put("core.prefetches_per_kinst", per_k(s.prefetches));
    put("core.pb_alloc_stalls_per_kinst", per_k(s.pb_stalls));
    put("cache.l2_tick_ns", div(s.w_l2, s.cycles));
    put(
        "cache.l2_miss_rate",
        div(s.l2_misses, s.l2_hits + s.l2_misses),
    );
    put("cache.bus_wait_cycles_per_kinst", per_k(s.bus_wait));
    put("cache.bus_grants_per_kinst", per_k(s.grants));
    put("cache.itlb_translate_ns", div(s.w_itlb, s.cycles));
    put("cache.itlb_miss_rate", div(s.w_itlb_miss, s.cycles));
    put("sim.backend.tick_ns", div(s.w_be, s.cycles));
    put("sim.backend.dispatch_ns", div(s.w_disp, s.committed));
    put(
        "sim.backend.dcache_miss_rate",
        div(s.dc_misses, s.dc_hits + s.dc_misses),
    );
    put(
        "sim.backend.commit_stall_frac",
        div(s.commit_stalls, s.cycles),
    );
    put("sim.engine.new_us", div(s.new_ns / 1e3, cells.len() as f64));
    put("sim.engine.ns_per_cycle", div(ns_per_inst, cpi));
    put("sim.engine.ns_per_inst", ns_per_inst);
    put("sim.ipc", div(s.committed, s.cycles));
    put("sim.cycles_per_kinst", per_k(s.cycles));
    put("sim.redirects_per_kinst", per_k(s.redirects));
    let mut attributed = 0.0;
    for (layer, total) in &s.ledger {
        let v = div(*total, s.insts);
        attributed += v;
        put(&format!("ledger.{layer}_ns_per_inst"), v);
    }
    put("ledger.unattributed_ns_per_inst", ns_per_inst - attributed);
    put("trace_overhead_frac", div(s.traced_ns, s.run_ns) - 1.0);

    let mut out = String::from("{\"cells\": [");
    out.push_str(&cells_json.join(", "));
    out.push_str("], \"metrics\": {");
    for (i, (k, v)) in m.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(out, "{sep}{}: {v}", json_str(k));
    }
    out.push_str("}}");
    println!("{out}");
    Ok(())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
