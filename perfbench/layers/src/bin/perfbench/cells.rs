//! The benchmark's cells, re-run in process through `Engine::with_source`.
//!
//! The driver writes one line per cell: `key=value` tokens naming the
//! benchmark, preset, tech node, L1 size, run lengths, both seeds, the
//! prefetcher override, the i-TLB and the replay trace, plus the cell's
//! flat index in its spec.  Each cell is run untraced and then with a
//! timing wrapper around its instruction source; both must produce the
//! same counters.

use crate::clock::{ticks, Clock};
use prestage_bpred::StreamDesc;
use prestage_cacti::TechNode;
use prestage_core::{ITlbConfig, PrefetcherKind};
use prestage_sim::{ConfigPreset, Engine, PredictorKind, SimConfig, SimStats};
use prestage_workload::{DynInst, InstSource, SharedReplayer, TraceGenerator, Workload};
use std::cell::Cell;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Flat cell index within `spec` (for `prestage shard --cells`).
    pub index: usize,
    /// Spec file the cell belongs to.
    pub spec: String,
    pub bench: String,
    pub preset: ConfigPreset,
    pub tech: TechNode,
    pub l1: usize,
    pub warmup: u64,
    pub measure: u64,
    pub workload_seed: u64,
    pub exec_seed: u64,
    pub prefetcher: Option<PrefetcherKind>,
    pub itlb: Option<ITlbConfig>,
    /// Recorded trace to replay; `None` generates live.
    pub trace: Option<PathBuf>,
}

fn parse_num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("cell field {key}={v:?} is not a number"))
}

impl CellSpec {
    pub fn parse(line: &str) -> Result<CellSpec, String> {
        let mut get = std::collections::BTreeMap::new();
        for tok in line.split_whitespace() {
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| format!("cell token {tok:?} is not key=value"))?;
            get.insert(k, v);
        }
        let field = |k: &str| {
            get.get(k)
                .copied()
                .ok_or_else(|| format!("cell line lacks field {k:?}: {line}"))
        };
        let preset = field("preset")?;
        let tech = field("tech")?;
        let prefetcher = match field("prefetcher")? {
            "-" => None,
            id => Some(
                PrefetcherKind::from_id(id).ok_or_else(|| format!("unknown prefetcher {id:?}"))?,
            ),
        };
        let itlb = match field("itlb")? {
            "-" => None,
            v => {
                let parts: Vec<&str> = v.split(',').collect();
                let [e, a, p, m] = parts[..] else {
                    return Err(format!(
                        "itlb={v:?} wants entries,assoc,page_bytes,miss_cycles"
                    ));
                };
                Some(ITlbConfig {
                    entries: parse_num("itlb.entries", e)?,
                    assoc: parse_num("itlb.assoc", a)?,
                    page_bytes: parse_num("itlb.page_bytes", p)?,
                    miss_cycles: parse_num("itlb.miss_cycles", m)?,
                })
            }
        };
        Ok(CellSpec {
            index: parse_num("index", field("index")?)?,
            spec: field("spec")?.to_string(),
            bench: field("bench")?.to_string(),
            preset: ConfigPreset::from_id(preset)
                .ok_or_else(|| format!("unknown preset {preset:?}"))?,
            tech: TechNode::from_id(tech).ok_or_else(|| format!("unknown tech {tech:?}"))?,
            l1: parse_num("l1", field("l1")?)?,
            warmup: parse_num("warmup", field("warmup")?)?,
            measure: parse_num("measure", field("measure")?)?,
            workload_seed: parse_num("workload_seed", field("workload_seed")?)?,
            exec_seed: parse_num("exec_seed", field("exec_seed")?)?,
            prefetcher,
            itlb,
            trace: match field("trace")? {
                "-" => None,
                p => Some(PathBuf::from(p)),
            },
        })
    }

    /// The simulator configuration of this cell, built the way an
    /// experiment spec builds it.
    pub fn config(&self) -> SimConfig {
        let cfg = SimConfig::preset(self.preset, self.tech, self.l1)
            .with_insts(self.warmup, self.measure)
            .with_itlb(self.itlb);
        match self.prefetcher {
            Some(kind) => cfg.with_prefetcher(kind),
            None => cfg,
        }
    }

    /// The mechanism the front-end runs.
    pub fn mechanism(&self) -> PrefetcherKind {
        self.config().frontend.prefetcher
    }

    /// Instructions the whole run commits (warm-up included).
    pub fn run_insts(&self, stats: &SimStats) -> u64 {
        self.warmup.saturating_add(stats.committed)
    }
}

/// Where a cell's committed path comes from.
pub enum Source<'a> {
    Live,
    Replay(&'a Arc<Vec<DynInst>>),
}

fn make_source<'w>(src: &Source<'_>, w: &'w Workload, cell: &CellSpec) -> Box<dyn InstSource + 'w> {
    match src {
        Source::Live => Box::new(TraceGenerator::new(w, cell.exec_seed)),
        Source::Replay(records) => Box::new(SharedReplayer::new(
            Arc::clone(records),
            format!("{} replay", cell.bench),
        )),
    }
}

/// Times every `next_stream` call of the source it wraps.
struct TimedSource<'w> {
    inner: Box<dyn InstSource + 'w>,
    /// (ticks, calls), shared with the caller because the engine owns the
    /// wrapper until it finishes.
    acc: Rc<Cell<(u64, u64)>>,
}

impl InstSource for TimedSource<'_> {
    fn next_stream(&mut self, out: &mut Vec<DynInst>) -> StreamDesc {
        let t0 = ticks();
        let s = self.inner.next_stream(out);
        let dt = ticks().wrapping_sub(t0);
        let (t, n) = self.acc.get();
        self.acc.set((t.wrapping_add(dt), n + 1));
        s
    }
}

/// One cell's in-process measurements.
#[derive(Debug, Clone)]
pub struct CellRun {
    pub stats: SimStats,
    /// Fastest untraced `Engine::run` (construction excluded), ns.
    pub run_ns: f64,
    /// Fastest traced run, ns.
    pub traced_ns: f64,
    /// Time inside the instruction source during the traced run, ns.
    pub source_ns: f64,
    pub source_calls: u64,
    /// Median engine construction time, ns.
    pub new_ns: f64,
    /// Traced and untraced runs disagreed (the wrapper must be invisible).
    pub mismatch: Option<String>,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// Run `cell` `reps` times untraced and `reps` times traced, alternating.
pub fn run_cell(
    clock: &Clock,
    cell: &CellSpec,
    w: &Workload,
    src: &Source<'_>,
    reps: usize,
) -> CellRun {
    let cfg = cell.config();
    let new_ns = median(
        (0..5)
            .map(|_| {
                let s = make_source(src, w, cell);
                let t0 = Instant::now();
                let e = Engine::with_source(cfg, w, s, PredictorKind::Stream);
                let dt = t0.elapsed().as_nanos() as f64;
                drop(e);
                dt
            })
            .collect(),
    );
    let mut run_ns = f64::INFINITY;
    let mut traced_ns = f64::INFINITY;
    let mut first: Option<SimStats> = None;
    let mut mismatch = None;
    let mut source = (0u64, 0u64);
    for _ in 0..reps.max(1) {
        let e = Engine::with_source(cfg, w, make_source(src, w, cell), PredictorKind::Stream);
        let t0 = Instant::now();
        let plain = e.run();
        run_ns = run_ns.min(t0.elapsed().as_nanos() as f64);

        let acc = Rc::new(Cell::new((0u64, 0u64)));
        let timed = TimedSource {
            inner: make_source(src, w, cell),
            acc: Rc::clone(&acc),
        };
        let e = Engine::with_source(cfg, w, Box::new(timed), PredictorKind::Stream);
        let t0 = Instant::now();
        let traced = e.run();
        let dt = t0.elapsed().as_nanos() as f64;
        if dt < traced_ns {
            traced_ns = dt;
            source = acc.get();
        }
        let base = *first.get_or_insert(plain);
        for (what, s) in [("untraced", plain), ("traced", traced)] {
            if s != base && mismatch.is_none() {
                mismatch = Some(format!(
                    "{what} rerun differs: cycles {} vs {}, committed {} vs {}",
                    s.cycles, base.cycles, s.committed, base.committed
                ));
            }
        }
    }
    CellRun {
        stats: first.unwrap_or_default(),
        run_ns,
        traced_ns,
        source_ns: clock.ns(source.0, source.1),
        source_calls: source.1,
        new_ns,
        mismatch,
    }
}
