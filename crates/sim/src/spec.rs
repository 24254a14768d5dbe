//! The experiment API: one serializable value that fully describes an
//! experiment.
//!
//! The paper's evaluation is a fixed matrix of named configurations
//! (§5.1's presets × tech nodes × L1 sizes × SPECint2000 benchmarks).
//! [`ExperimentSpec`] is that matrix as a plain value: every knob a run
//! needs — axes, run lengths, seeds, pool width, predictor — in one struct
//! that round-trips through JSON and therefore crosses process (and host)
//! boundaries unchanged.  Everything above it is derived:
//!
//! * [`ExperimentSpec::cells`] lists the spec's grid as flat cells, the
//!   work list the work-stealing pool executes, and
//!   [`ExperimentSpec::rows`] reassembles results given in that order;
//! * [`Sweep`] runs an arbitrary slice of those cells — the unit the
//!   `prestage shard` CLI distributes across processes — and
//!   [`ShardFile`] is its serialized output, reassembled bit-exactly by
//!   [`ShardFile::merge`] (`prestage merge`);
//! * [`try_run_spec`] runs the whole grid in-process and returns ordered
//!   `[preset][size]` rows;
//! * [`grid_output`] renders merged rows deterministically, so a merged
//!   multi-process run and a single-process run of the same spec produce
//!   byte-identical artifacts.
//!
//! The `PRESTAGE_*` environment variables survive only as an *override
//! layer*: [`ExperimentSpec::env_overrides`] folds them onto an existing
//! spec, and this module is the single place in the workspace where they
//! are parsed (a malformed value is an error naming the variable, per the
//! loud-parsing policy).

use crate::config::{ConfigPreset, SimConfig};
use crate::engine::PredictorKind;
use crate::runner::{
    default_threads, pool_map_largest_first, CellResult, GridResult, Sweep, SweepCell,
};
use crate::stats::SimStats;
use crate::wire::{check_keys, field, Wire};
use prestage_cacti::TechNode;
use prestage_core::{ITlbConfig, InsertionPolicy, PrefetcherKind};
use prestage_json::Json;
use prestage_workload::{build, specint2000, BenchmarkProfile, TraceReader, Workload};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

/// The paper's L1 I-cache sweep axis: 256 B … 64 KB.
pub const L1_SIZES: [usize; 9] = [
    256,
    512,
    1 << 10,
    2 << 10,
    4 << 10,
    8 << 10,
    16 << 10,
    32 << 10,
    64 << 10,
];

/// The largest L1 capacity a spec may name: 1 MiB, the top of the CACTI
/// calibration range (Table 3's L2 anchor in `prestage_cacti::delay`).
const MAX_L1_BYTES: usize = 1 << 20;

/// Schema version of every JSON artifact this module writes, and the only
/// one it reads.  Schema 2 added the `trace` field, schema 3 the
/// `prefetcher` mechanism override, schema 4 the memory-system model
/// fields `itlb` and `insertion`; files of earlier schemas are refused by
/// name (re-serialize them with every field present).
pub const SPEC_SCHEMA: u64 = 4;

/// Run-ahead slack `prestage trace record` captures beyond
/// `warmup + measure`: the decoupled front-end pulls streams ahead of
/// commit (fetch queue + decode buffer + RUU, at most a few thousand
/// instructions), so recordings carry a generous margin.  A replay that
/// still runs dry panics rather than returning results from a partial
/// trace.
pub const TRACE_RECORD_SLACK: u64 = 16_384;

/// Rough single-core set-up costs on a 2-vCPU x86-64 host: building a
/// workload takes about 200 ns per static instruction (gcc, the largest,
/// 12–16 ms) and a verify-only trace pass about 0.35 ns per file byte
/// (`trace/verify_64k_insts` in the substrate benches).
/// They only order the set-up pool's tasks, largest first, so the longest
/// task does not start last; results never depend on them.
const BUILD_NS_PER_STATIC_INST: u64 = 200;
const VERIFY_PS_PER_TRACE_BYTE: u64 = 350;

/// A used benchmark's trace whose header passed
/// [`ExperimentSpec::vet_trace`], waiting for its body pass.
struct VettedTrace {
    bench_idx: usize,
    path: PathBuf,
    /// File length in bytes: sizes this trace's set-up task.
    len: u64,
    /// Positioned at the first chunk.  Locked once, by the one set-up
    /// task that verifies this trace.
    reader: Mutex<TraceReader<BufReader<File>>>,
}

impl VettedTrace {
    /// The body pass: every chunk CRC, every record's encoding, trailing
    /// data — without decoding a record.  Each cell then streams the file
    /// itself, re-checking every chunk CRC as it consumes it.
    fn verify(&self) -> Result<PathBuf, String> {
        let path = self.path.display();
        let mut reader = self
            .reader
            .lock()
            .map_err(|_| format!("trace {path}: a set-up worker panicked while verifying it"))?;
        reader
            .verify()
            .map_err(|e| format!("trace {path} is corrupt: {e}"))?;
        Ok(self.path.clone())
    }
}

/// What a spec's cells need before the cell pool starts.
pub(crate) struct SetUp {
    /// The spec's workloads in bench order; empty when the caller brought
    /// its own.
    pub(crate) workloads: Vec<Workload>,
    /// One verified trace path per spec benchmark (`None` for the ones no
    /// cell uses), or `None` for live generation.
    pub(crate) traces: Option<Vec<Option<PathBuf>>>,
}

/// One set-up task's output.
enum SetUpOut {
    Built(Workload),
    Verified(usize, Result<PathBuf, String>),
}

/// Where a spec's pre-recorded traces live: a directory holding one v2
/// trace per benchmark, named by [`TraceSource::file_name`].  Execution
/// detail, not experiment identity — [`grid_output`] clears it (like
/// `threads`), so a replayed run's artifacts are byte-identical to the
/// live-generation run it mirrors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSource {
    /// Directory of recorded traces (relative paths resolve against the
    /// process's working directory, like every other CLI path).
    pub dir: String,
}

impl TraceSource {
    /// Canonical file name for one recorded `(profile, seeds)` trace.
    pub fn file_name(profile: &str, workload_seed: u64, exec_seed: u64) -> String {
        format!("{profile}-w{workload_seed}-x{exec_seed}.pstr")
    }

    /// Full path of the trace for `(profile, seeds)` under this source.
    pub fn trace_path(&self, profile: &str, workload_seed: u64, exec_seed: u64) -> PathBuf {
        Path::new(&self.dir).join(Self::file_name(profile, workload_seed, exec_seed))
    }
}

/// A complete, serializable description of one experiment.
///
/// This is how experiments are configured: figures and studies declare
/// one (a study several), the CLI loads one from JSON, and the environment
/// can only override fields through [`ExperimentSpec::env_overrides`].
/// The one exception is the CLGP ablation, whose flags have no field and
/// go through [`Sweep::configure`](crate::Sweep::configure).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Configuration presets (grid rows), figure-legend order.
    pub presets: Vec<ConfigPreset>,
    /// Technology node the whole grid runs at.
    pub tech: TechNode,
    /// L1 I-cache capacities in bytes (grid columns).
    pub l1_sizes: Vec<usize>,
    /// Benchmark filter: `None` = the full SPECint2000 set, `Some` = an
    /// explicit ordered subset (unknown names are a loud error).
    pub bench: Option<Vec<String>>,
    /// Warm-up instructions per run.
    pub warmup_insts: u64,
    /// Measured instructions per run.
    pub measure_insts: u64,
    /// Workload *generation* seed.
    pub workload_seed: u64,
    /// Engine *execution* seed (wrong-path / arbitration jitter),
    /// deliberately independent of [`workload_seed`](Self::workload_seed).
    pub exec_seed: u64,
    /// Worker threads for the sweep pool; `None` = available parallelism.
    /// The one field that may legitimately differ between hosts — it never
    /// affects results (cells are bit-exact for any pool width).
    pub threads: Option<usize>,
    /// Fetch-block predictor driving the decoupled front-end.
    pub predictor: PredictorKind,
    /// Committed-path source: `None` generates every cell's trace live;
    /// `Some` replays pre-recorded traces from disk (one per benchmark,
    /// shared by all cells that need it — record once, replay everywhere).
    pub trace: Option<TraceSource>,
    /// Prefetch-mechanism override: `None` leaves each preset its own
    /// engine (FDP presets run FDP, CLGP presets run CLGP); `Some(kind)`
    /// swaps the mechanism under every preset — the spec-field delivery
    /// path for the MANA / program-map comparisons (`"mana"`,
    /// `"progmap"`, or any other [`PrefetcherKind`] id).  Experiment
    /// identity: it changes results, so shards produced under different
    /// prefetcher ids refuse to merge.
    pub prefetcher: Option<PrefetcherKind>,
    /// Instruction-TLB model: `None` keeps translation free (the paper's
    /// implicit assumption, and bit-identical to pre-TLB artifacts);
    /// `Some` threads every fetched or prefetched address through an
    /// i-TLB whose misses charge a page-walk latency.  Experiment
    /// identity: shards produced under different TLB models refuse to
    /// merge, by name.
    pub itlb: Option<ITlbConfig>,
    /// Prefetch-fill insertion override (`"mru"`, `"lru"`, `"bypass"`):
    /// `None` leaves each mechanism its own policy.  Experiment identity.
    pub insertion: Option<InsertionPolicy>,
}

impl Default for ExperimentSpec {
    /// The paper's full evaluation matrix at the far-future node: every
    /// preset × every L1 size × all twelve benchmarks, §5.1 run lengths.
    fn default() -> ExperimentSpec {
        ExperimentSpec {
            presets: ConfigPreset::all().to_vec(),
            tech: TechNode::T045,
            l1_sizes: L1_SIZES.to_vec(),
            bench: None,
            warmup_insts: 200_000,
            measure_insts: 1_000_000,
            workload_seed: 42,
            exec_seed: 42,
            threads: None,
            predictor: PredictorKind::Stream,
            trace: None,
            prefetcher: None,
            itlb: None,
            insertion: None,
        }
    }
}

// ---------------------------------------------------------------------------
// The environment override layer — the single place `PRESTAGE_*` variables
// are read.
// ---------------------------------------------------------------------------

/// Parse an env-var value, failing loudly on malformed input: a typo'd
/// `PRESTAGE_MEASURE=1e6` must be refused, not silently run the default
/// length.  Empty/whitespace values count as unset.
fn parse_env_u64(name: &str, value: Option<&str>, default: u64) -> Result<u64, String> {
    match value.map(str::trim) {
        None | Some("") => Ok(default),
        Some(v) => v.parse().map_err(|_| {
            format!(
                "{name} must be an unsigned integer, got {v:?} \
                 (write e.g. {name}=1000000; scientific notation is not supported)"
            )
        }),
    }
}

fn std_env(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}

/// Parse a `PRESTAGE_THREADS` value (empty counts as unset), refusing
/// malformed values rather than silently running serial.
fn parse_threads(value: Option<&str>) -> Result<Option<usize>, String> {
    match value.map(str::trim) {
        None | Some("") => Ok(None),
        Some(t) => match t.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(format!(
                "PRESTAGE_THREADS must be a positive integer, got {t:?}"
            )),
        },
    }
}

impl ExperimentSpec {
    /// Fold the `PRESTAGE_*` environment variables over this spec:
    /// `PRESTAGE_WARMUP`, `PRESTAGE_MEASURE`, `PRESTAGE_SEED`,
    /// `PRESTAGE_EXEC_SEED`, `PRESTAGE_BENCH` (comma-separated filter) and
    /// `PRESTAGE_THREADS`.  Unset (or empty) variables leave the spec
    /// field untouched; a malformed value is an `Err` naming the variable.
    ///
    /// The experiment axes (presets, tech, sizes, predictor) have no env
    /// form on purpose: changing *what* is measured is a spec edit, not a
    /// shell prefix.
    pub fn env_overrides(self) -> Result<ExperimentSpec, String> {
        self.env_overrides_with(std_env)
    }

    /// [`env_overrides`](Self::env_overrides) with an injectable lookup
    /// (tests override without mutating process-global state).
    fn env_overrides_with(
        mut self,
        get: impl Fn(&str) -> Option<String>,
    ) -> Result<ExperimentSpec, String> {
        let u64_of = |name: &str, current: u64| parse_env_u64(name, get(name).as_deref(), current);
        self.warmup_insts = u64_of("PRESTAGE_WARMUP", self.warmup_insts)?;
        self.measure_insts = u64_of("PRESTAGE_MEASURE", self.measure_insts)?;
        self.workload_seed = u64_of("PRESTAGE_SEED", self.workload_seed)?;
        self.exec_seed = u64_of("PRESTAGE_EXEC_SEED", self.exec_seed)?;
        if let Some(v) = get("PRESTAGE_BENCH") {
            if !v.trim().is_empty() {
                self.bench = Some(v.split(',').map(|s| s.trim().to_string()).collect());
            }
        }
        if let Some(t) = parse_threads(get("PRESTAGE_THREADS").as_deref())? {
            self.threads = Some(t);
        }
        Ok(self)
    }

    // -----------------------------------------------------------------------
    // Derived views.
    // -----------------------------------------------------------------------

    /// Check every invariant the runner assumes.  All spec consumers call
    /// this before running; the error strings are user-facing.
    pub fn validate(&self) -> Result<(), String> {
        if self.presets.is_empty() {
            return Err("spec has no presets".into());
        }
        for (i, p) in self.presets.iter().enumerate() {
            if self.presets[..i].contains(p) {
                return Err(format!("duplicate preset {:?} in spec", p.id()));
            }
        }
        if self.l1_sizes.is_empty() {
            return Err("spec has no L1 sizes".into());
        }
        for (i, s) in self.l1_sizes.iter().enumerate() {
            if self.l1_sizes[..i].contains(s) {
                return Err(format!("duplicate L1 size {s} in spec"));
            }
            if *s < 64 {
                return Err(format!("L1 size {s} is smaller than one 64B line"));
            }
            if !s.is_power_of_two() {
                return Err(format!(
                    "l1_sizes entry {s} is not a power of two — cache sets \
                     are mask-indexed and a non-power-of-two capacity would \
                     silently alias addresses"
                ));
            }
            if *s > MAX_L1_BYTES {
                return Err(format!(
                    "l1_sizes entry {s} exceeds {MAX_L1_BYTES} (1 MiB), the largest \
                     capacity the CACTI latency model is calibrated at"
                ));
            }
        }
        // Every (preset, size) cell's derived configuration must satisfy
        // the storage-sizing invariants (mask-indexed prefetcher tables
        // included) *before* anything is constructed.
        for &p in &self.presets {
            for &l1 in &self.l1_sizes {
                self.sim_config(p, l1)
                    .validate()
                    .map_err(|e| format!("preset {:?} at L1 {l1}: {e}", p.id()))?;
            }
        }
        if self.measure_insts == 0 {
            return Err("measure_insts must be at least 1".into());
        }
        // Found by the fuzz harness: the replay-length check sums the two
        // run lengths, so a spec whose sum wraps u64 would panic (debug) or
        // silently under-demand trace instructions (release).
        if self.warmup_insts.checked_add(self.measure_insts).is_none() {
            return Err(format!(
                "warmup_insts {} + measure_insts {} overflows u64 — no run is that long",
                self.warmup_insts, self.measure_insts
            ));
        }
        if self.threads == Some(0) {
            return Err("threads must be at least 1 (or null for auto)".into());
        }
        if let Some(t) = &self.trace {
            if t.dir.trim().is_empty() {
                return Err("trace dir is empty (use null for live generation)".into());
            }
        }
        self.bench_profiles().map(|_| ())
    }

    /// Instructions `prestage trace record` captures per benchmark for
    /// this spec: the run length plus [`TRACE_RECORD_SLACK`] of front-end
    /// run-ahead.
    pub fn trace_record_insts(&self) -> u64 {
        self.warmup_insts
            .saturating_add(self.measure_insts)
            .saturating_add(TRACE_RECORD_SLACK)
    }

    /// The per-benchmark trace files this spec replays (spec bench order),
    /// or `None` for live generation.  Pure path arithmetic, no I/O.
    pub fn trace_paths(&self) -> Result<Option<Vec<PathBuf>>, String> {
        let Some(src) = &self.trace else {
            return Ok(None);
        };
        Ok(Some(
            self.bench_names()?
                .iter()
                .map(|n| src.trace_path(n, self.workload_seed, self.exec_seed))
                .collect(),
        ))
    }

    /// Open `path` and check its header against this spec: identity
    /// (profile, both seeds) and at least `warmup + measure` instructions.
    /// Errors name the file and the mismatching field — replaying the
    /// wrong trace must be impossible, not merely unlikely.
    fn vet_trace(
        &self,
        path: &Path,
        name: &str,
    ) -> Result<prestage_workload::TraceReader<std::io::BufReader<std::fs::File>>, String> {
        let reader = prestage_workload::open_trace(path).map_err(|e| {
            format!("{e} — record it first: `prestage trace record <spec> --out <dir>`")
        })?;
        let h = reader.header();
        let meta = &h.meta;
        if meta.profile != name {
            return Err(format!(
                "trace {} was recorded from benchmark {:?}, spec expects {name:?}",
                path.display(),
                meta.profile
            ));
        }
        if meta.workload_seed != self.workload_seed {
            return Err(format!(
                "trace {} was recorded with workload seed {}, spec uses {}",
                path.display(),
                meta.workload_seed,
                self.workload_seed
            ));
        }
        if meta.exec_seed != self.exec_seed {
            return Err(format!(
                "trace {} was recorded with exec seed {}, spec uses {}",
                path.display(),
                meta.exec_seed,
                self.exec_seed
            ));
        }
        // Saturating: validate() rejects overflowing run lengths, but the
        // vet must stay total even on a spec that skipped it.
        let needed = self.warmup_insts.saturating_add(self.measure_insts);
        if h.count < needed {
            return Err(format!(
                "trace {} holds {} instructions but the spec runs {needed} \
                 (warmup {} + measure {}) — re-record with the current run lengths",
                path.display(),
                h.count,
                self.warmup_insts,
                self.measure_insts
            ));
        }
        Ok(reader)
    }

    /// The set-up behind the spec runners: build the workloads (when
    /// `build_workloads`; callers with pre-built ones skip it) and vet and
    /// verify the replay traces of the benchmarks `cells` actually
    /// references (a shard of a 12-bench spec must not pay for the other
    /// eleven traces).
    ///
    /// Trace headers are vetted first, one after another in bench order.
    /// Then every workload build and every trace verify pass runs as one
    /// task on a pool of the spec's width, largest first.  The first
    /// failure in bench order is the one reported, whatever the width, so
    /// a corrupt trace fails the run before any cell starts.
    pub(crate) fn set_up(
        &self,
        cells: &[SweepCell],
        build_workloads: bool,
    ) -> Result<SetUp, String> {
        let profiles = self.bench_profiles()?;
        let paths = self.trace_paths()?;
        let mut vetted = Vec::new();
        // A bad header fails the run, so vetting stops there and only the
        // traces before it are still verified: one of them may fail first.
        let mut bad_header = None;
        if let Some(paths) = &paths {
            for (bench_idx, (path, p)) in paths.iter().zip(&profiles).enumerate() {
                if !cells.iter().any(|c| c.bench_idx == bench_idx) {
                    continue;
                }
                let reader = match self.vet_trace(path, p.name) {
                    Ok(reader) => reader,
                    Err(e) => {
                        bad_header = Some(e);
                        break;
                    }
                };
                vetted.push(VettedTrace {
                    bench_idx,
                    path: path.clone(),
                    len: std::fs::metadata(path).map_or(0, |m| m.len()),
                    reader: Mutex::new(reader),
                });
            }
        }
        let n_builds = if build_workloads && bad_header.is_none() {
            profiles.len()
        } else {
            0
        };
        let costs: Vec<u64> = profiles[..n_builds]
            .iter()
            .map(|p| p.target_insts().saturating_mul(BUILD_NS_PER_STATIC_INST))
            .chain(
                vetted
                    .iter()
                    .map(|t| t.len.saturating_mul(VERIFY_PS_PER_TRACE_BYTE) / 1000),
            )
            .collect();
        let outs = pool_map_largest_first(&costs, self.resolved_threads(), |k| {
            match k.checked_sub(n_builds) {
                None => SetUpOut::Built(build(&profiles[k], self.workload_seed)),
                Some(j) => SetUpOut::Verified(vetted[j].bench_idx, vetted[j].verify()),
            }
        });
        let mut workloads = Vec::with_capacity(n_builds);
        let mut verified: Vec<Option<Result<PathBuf, String>>> =
            profiles.iter().map(|_| None).collect();
        for out in outs {
            match out {
                SetUpOut::Built(w) => workloads.push(w),
                SetUpOut::Verified(bench_idx, path) => verified[bench_idx] = Some(path),
            }
        }
        // Every verified trace precedes the bad header in bench order.
        let sources = verified
            .into_iter()
            .map(Option::transpose)
            .collect::<Result<Vec<_>, _>>()?;
        if let Some(e) = bad_header {
            return Err(e);
        }
        Ok(SetUp {
            workloads,
            traces: paths.map(|_| sources),
        })
    }

    /// Resolve the benchmark filter to profiles, in *filter order* (or the
    /// canonical SPECint2000 order when no filter is set).
    ///
    /// An unknown or duplicate name fails with the full list of valid
    /// names — a typo must not silently shrink the workload set.
    pub fn bench_profiles(&self) -> Result<Vec<BenchmarkProfile>, String> {
        let all = specint2000();
        let Some(filter) = &self.bench else {
            return Ok(all);
        };
        if filter.is_empty() {
            return Err("bench filter is empty — it matches no benchmarks \
                        (use null for the full set)"
                .into());
        }
        let mut out = Vec::with_capacity(filter.len());
        for name in filter {
            if out.iter().any(|p: &BenchmarkProfile| p.name == name) {
                return Err(format!("benchmark {name:?} listed twice in the filter"));
            }
            match all.iter().find(|p| p.name == name) {
                Some(p) => out.push(p.clone()),
                None => {
                    let valid: Vec<&str> = all.iter().map(|p| p.name).collect();
                    return Err(format!(
                        "unknown benchmark {name:?}; valid names: {}",
                        valid.join(", ")
                    ));
                }
            }
        }
        Ok(out)
    }

    /// Resolved benchmark names (the grid's innermost axis labels).
    pub fn bench_names(&self) -> Result<Vec<&'static str>, String> {
        Ok(self.bench_profiles()?.iter().map(|p| p.name).collect())
    }

    /// Build the workload set (the expensive step: static program
    /// synthesis per benchmark, seeded by
    /// [`workload_seed`](Self::workload_seed)), one benchmark per task on a
    /// pool of the spec's width, largest program first.  Bench order.
    pub fn build_workloads(&self) -> Result<Vec<Workload>, String> {
        Ok(self.set_up(&[], true)?.workloads)
    }

    /// The full simulator configuration for one (preset, L1 size) grid
    /// point of this spec: the preset's shape, the spec's run lengths,
    /// and — when the spec carries a `prefetcher` override — the swapped
    /// prefetch mechanism.
    pub fn sim_config(&self, preset: ConfigPreset, l1: usize) -> SimConfig {
        let cfg = SimConfig::preset(preset, self.tech, l1)
            .with_insts(self.warmup_insts, self.measure_insts)
            .with_itlb(self.itlb)
            .with_insertion(self.insertion);
        match self.prefetcher {
            Some(kind) => cfg.with_prefetcher(kind),
            None => cfg,
        }
    }

    /// Resolved pool width.
    pub fn resolved_threads(&self) -> usize {
        self.threads.unwrap_or_else(default_threads)
    }

    /// This spec with the host-local execution fields cleared: `threads`
    /// (pool width) and `trace` (committed-path source) never change
    /// results, so the portable form is the spec's *result identity* —
    /// [`grid_output`] embeds it, `prestage merge` compares shard specs
    /// through it, and the cell cache keys each cell by its canonical JSON
    /// ([`cell_key`](crate::cache::cell_key)).
    pub fn portable(&self) -> ExperimentSpec {
        ExperimentSpec {
            threads: None,
            trace: None,
            ..self.clone()
        }
    }

    // -----------------------------------------------------------------------
    // JSON round-trip.
    // -----------------------------------------------------------------------

    /// The canonical JSON form: `schema`, then the fields in the order of
    /// the spec's `record!` declaration.
    pub fn to_json_value(&self) -> Json {
        let mut v = Wire::to_json(self);
        if let Json::Obj(fields) = &mut v {
            fields.insert(0, ("schema".into(), SPEC_SCHEMA.into()));
        }
        v
    }

    /// Serialize as pretty JSON (the on-disk spec-file format).
    pub fn to_json(&self) -> String {
        self.to_json_value().pretty()
    }

    /// Parse a spec from a JSON value.  Strict: the schema is checked
    /// first, then every field must be present and unknown keys are
    /// rejected (a misspelled `"warmupinsts"` must not silently fall back
    /// to the default run length).
    pub fn from_json_value(v: &Json) -> Result<ExperimentSpec, String> {
        let Json::Obj(pairs) = v else {
            return Err("spec must be a JSON object".into());
        };
        let schema = v
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or("schema must be an integer")?;
        if schema != SPEC_SCHEMA {
            return Err(format!(
                "spec schema {schema} not supported (this build reads schema {SPEC_SCHEMA} only)"
            ));
        }
        let fields = pairs
            .iter()
            .filter(|(k, _)| k != "schema")
            .cloned()
            .collect();
        <ExperimentSpec as Wire>::from_json(&Json::Obj(fields), "spec")
    }

    /// Parse a spec from JSON text.
    pub fn from_json(text: &str) -> Result<ExperimentSpec, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        ExperimentSpec::from_json_value(&v)
    }
}

// ---------------------------------------------------------------------------
// The grid.
// ---------------------------------------------------------------------------

impl ExperimentSpec {
    /// Validate the spec and list its grid's cells in flat order:
    /// row-major over preset, then L1 size, then benchmark, so one
    /// (preset, size) row occupies `n_bench` consecutive positions.  The
    /// work list a single process runs whole and `prestage shard` slices.
    pub fn cells(&self) -> Result<Vec<SweepCell>, String> {
        self.validate()?;
        let n_bench = self.bench_names()?.len();
        Ok(self
            .presets
            .iter()
            .flat_map(|&preset| {
                self.l1_sizes.iter().flat_map(move |&l1| {
                    (0..n_bench).map(move |bench_idx| SweepCell {
                        preset,
                        l1,
                        bench_idx,
                    })
                })
            })
            .collect())
    }

    /// Assemble results given in flat order (see [`cells`](Self::cells))
    /// into `[preset][size]` rows, per-benchmark entries labelled in spec
    /// bench order.  A wrong result count or a result out of its flat
    /// position is a named error: a run that lost, duplicated or misplaced
    /// a cell must not ship a figure.
    pub fn rows(&self, results: Vec<CellResult>) -> Result<Vec<Vec<GridResult>>, String> {
        let cells = self.cells()?;
        if results.len() != cells.len() {
            return Err(format!(
                "the grid has {} cells but {} results were given",
                cells.len(),
                results.len()
            ));
        }
        check_placed(&cells, 0, &results)?;
        let names = self.bench_names()?;
        let stats: Vec<SimStats> = results.into_iter().map(|r| r.stats).collect();
        // validate() guarantees non-empty axes, so neither chunk is empty.
        Ok(stats
            .chunks(self.l1_sizes.len() * names.len())
            .map(|row| {
                row.chunks(names.len())
                    .map(|benches| GridResult {
                        per_bench: names
                            .iter()
                            .map(|n| n.to_string())
                            .zip(benches.iter().copied())
                            .collect(),
                    })
                    .collect()
            })
            .collect())
    }
}

/// Refuse the first of `results` that is not the cell at its flat
/// position: `cells[i]` is grid cell `start + i`.
fn check_placed(cells: &[SweepCell], start: usize, results: &[CellResult]) -> Result<(), String> {
    let name = |c: &SweepCell| format!("({}, L1 {}, bench {})", c.preset.id(), c.l1, c.bench_idx);
    match results.iter().zip(cells).position(|(r, c)| r.cell != *c) {
        None => Ok(()),
        Some(i) => Err(format!(
            "result {i} is cell {}, but cell {} of the grid is {}",
            name(&results[i].cell),
            start + i,
            name(&cells[i])
        )),
    }
}

// ---------------------------------------------------------------------------
// Running a spec.
// ---------------------------------------------------------------------------

/// Run the whole experiment in-process: ordered `[preset][size]` rows with
/// per-benchmark entries in spec bench order.  Errors on an invalid spec.
pub fn try_run_spec(spec: &ExperimentSpec) -> Result<Vec<Vec<GridResult>>, String> {
    spec.rows(Sweep::new(spec, &spec.cells()?).run()?)
}

// ---------------------------------------------------------------------------
// Shard-file serialization.
// ---------------------------------------------------------------------------

/// One process's share of a sharded sweep: the spec, the half-open cell
/// range `[start, end)` it evaluated, and the per-cell results.  Written
/// by `prestage shard`, consumed by `prestage merge`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardFile {
    pub spec: ExperimentSpec,
    pub start: usize,
    pub end: usize,
    pub results: Vec<CellResult>,
}

// CellResult carries a wall-clock Duration, which has no meaningful
// equality across runs; compare shard files by cell identity and stats.
impl PartialEq for CellResult {
    fn eq(&self, other: &CellResult) -> bool {
        self.cell == other.cell && self.stats == other.stats
    }
}

/// A result renders as `cell`, `wall_s`, `stats`.  Hand-written rather
/// than a `record!`: `wall` renders as the float `wall_s`, which is checked
/// before `cell` and `stats` so a hostile value is refused by name first.
impl Wire for CellResult {
    const SHAPE: &'static str = "an object";

    fn to_json(&self) -> Json {
        Json::obj([
            ("cell", self.cell.to_json()),
            // Wall-clock is diagnostic only; merge output never includes it.
            ("wall_s", self.wall.as_secs_f64().into()),
            ("stats", self.stats.to_json()),
        ])
    }

    fn from_json(v: &Json, path: &str) -> Result<CellResult, String> {
        check_keys(v, "result", path, &["cell", "wall_s", "stats"])?;
        let secs = v
            .get("wall_s")
            .and_then(Json::as_f64)
            .ok_or("result wall_s is missing or not a number")?;
        // Found by the fuzz harness: Duration::from_secs_f64 panics on
        // negative or over-range input, so a hostile wall_s crashed the
        // merge instead of being refused.
        if secs.is_nan() || secs < 0.0 || secs >= u64::MAX as f64 {
            return Err(format!(
                "result wall_s {secs} is not a representable duration"
            ));
        }
        Ok(CellResult {
            cell: field(v, path, "cell")?,
            stats: field(v, path, "stats")?,
            wall: Duration::from_secs_f64(secs),
        })
    }
}

impl ShardFile {
    pub fn to_json(&self) -> String {
        Json::obj([
            ("schema", SPEC_SCHEMA.into()),
            ("spec", self.spec.to_json_value()),
            (
                "cells",
                Json::obj([("start", self.start.into()), ("end", self.end.into())]),
            ),
            ("results", self.results.to_json()),
        ])
        .pretty()
    }

    /// Parse a shard file.  Strict at every level: the envelope, its
    /// `cells` range, each result, its `cell` and its stats blocks all
    /// refuse an unknown key by name.  The range must lie inside the
    /// spec's grid and result `i` must be grid cell `start + i`.
    pub fn from_json(text: &str) -> Result<ShardFile, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let schema = v
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or("shard file has no schema")?;
        if schema != SPEC_SCHEMA {
            return Err(format!("shard schema {schema} not supported"));
        }
        check_keys(
            &v,
            "shard",
            "shard",
            &["schema", "spec", "cells", "results"],
        )?;
        let spec = ExperimentSpec::from_json_value(v.get("spec").ok_or("shard file has no spec")?)?;
        let cells = v.get("cells").ok_or("shard file has no cells range")?;
        check_keys(cells, "shard", "shard.cells", &["start", "end"])?;
        let start = field(cells, "shard.cells", "start")?;
        let end = field(cells, "shard.cells", "end")?;
        let results: Vec<CellResult> = field(&v, "shard", "results")?;
        // Found by the fuzz harness: with a saturating count an *inverted*
        // range (start > end) plus an empty results array parsed clean.
        if start > end {
            return Err(format!(
                "shard cell range is inverted: cells.start {start} > cells.end {end}"
            ));
        }
        if results.len() != end - start {
            return Err(format!(
                "shard claims cells {start}..{end} but carries {} results",
                results.len()
            ));
        }
        let cells = spec.cells()?;
        if end > cells.len() {
            return Err(format!(
                "shard covers cells {start}..{end}, but the grid has only {} cells",
                cells.len()
            ));
        }
        check_placed(&cells[start..end], start, &results).map_err(|e| format!("shard {e}"))?;
        Ok(ShardFile {
            spec,
            start,
            end,
            results,
        })
    }

    /// Merge shards, each named by the file it came from, into the rows of
    /// their spec (see [`ExperimentSpec::rows`]).  The shards must come
    /// from one experiment — equal portable specs, a differing i-TLB named
    /// as such — and cover its grid exactly once, in any order; every
    /// refusal names the files and cell ranges at fault.
    pub fn merge(shards: &[(String, ShardFile)]) -> Result<Vec<Vec<GridResult>>, String> {
        let Some((first, head)) = shards.first() else {
            return Err("no shard files to merge".into());
        };
        let spec = &head.spec;
        // Portable comparison: shards that only disagree on `threads` or on
        // the committed-path source (replay is bit-exact to live generation)
        // still describe the same experiment.
        let itlb_desc = |itlb: &Option<ITlbConfig>| match itlb {
            None => "no i-TLB".to_string(),
            Some(c) => format!("a {}-entry {}-way i-TLB", c.entries, c.assoc),
        };
        for (path, shard) in &shards[1..] {
            // Mixed translation is named specifically: a shard simulated
            // with a different (or absent) i-TLB measured a different
            // machine, and the generic spec mismatch would hide which knob.
            if shard.spec.itlb != spec.itlb {
                return Err(format!(
                    "{path} was simulated with {} but {first} with {} — \
                     translated and untranslated shards cannot merge into one figure",
                    itlb_desc(&shard.spec.itlb),
                    itlb_desc(&spec.itlb)
                ));
            }
            if shard.spec.portable() != spec.portable() {
                return Err(format!(
                    "{path} was produced from a different spec than {first} — refusing to merge"
                ));
            }
        }
        let n_cells = spec.cells()?.len();
        let mut order: Vec<&(String, ShardFile)> = shards.iter().collect();
        order.sort_by(|(p, a), (q, b)| (a.start, a.end, p).cmp(&(b.start, b.end, q)));
        let mut next = 0usize;
        let mut widest: Option<(usize, usize, &str)> = None;
        for (path, shard) in &order {
            let (start, end) = (shard.start, shard.end);
            if end > n_cells {
                return Err(format!(
                    "{path} covers cells {start}..{end}, but the grid has only {n_cells} cells"
                ));
            }
            // Sorted by start, so any start inside the furthest coverage so
            // far means two shards claim the same cells (duplicates
            // included).
            if let Some((wstart, wend, wpath)) = widest {
                if start < wend && start < end {
                    return Err(format!(
                        "{wpath} (cells {wstart}..{wend}) and {path} (cells {start}..{end}) \
                         overlap — refusing to merge"
                    ));
                }
            }
            if start > next {
                return Err(format!(
                    "no shard covers cells {next}..{start} — refusing to merge a partial grid"
                ));
            }
            next = next.max(end);
            if widest.is_none_or(|(_, wend, _)| end > wend) {
                widest = Some((start, end, path));
            }
        }
        if next < n_cells {
            return Err(format!(
                "no shard covers cells {next}..{n_cells} — refusing to merge a partial grid"
            ));
        }
        spec.rows(
            order
                .iter()
                .flat_map(|(_, shard)| shard.results.iter().cloned())
                .collect(),
        )
    }
}

/// Render merged `[preset][size]` rows as the canonical grid artifact:
/// deterministic bytes, full per-cell stats, no timing.  A merged
/// multi-process run and a single-process [`try_run_spec`] of the same spec
/// produce identical output — the property the shard/merge CI job diffs.
///
/// The embedded spec has `threads` and `trace` cleared: pool width is
/// host-local and the committed-path source (live vs replay) is bit-exact
/// by construction, so runs that only disagreed on either must still
/// produce identical bytes — the property the replay CI job diffs.
pub fn grid_output(spec: &ExperimentSpec, rows: &[Vec<GridResult>]) -> String {
    let spec = &spec.portable();
    let mut out_rows = Vec::new();
    for (preset, row) in spec.presets.iter().zip(rows) {
        for (&l1, r) in spec.l1_sizes.iter().zip(row) {
            out_rows.push(Json::obj([
                ("preset", preset.id().into()),
                ("l1", l1.into()),
                ("hmean_ipc", r.hmean_ipc().into()),
                (
                    "per_bench",
                    Json::Arr(
                        r.per_bench
                            .iter()
                            .map(|(name, s)| {
                                Json::obj([
                                    ("bench", name.as_str().into()),
                                    ("ipc", s.ipc().into()),
                                    ("stats", s.to_json()),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]));
        }
    }
    Json::obj([
        ("schema", SPEC_SCHEMA.into()),
        ("spec", spec.to_json_value()),
        ("rows", Json::Arr(out_rows)),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec {
            presets: vec![ConfigPreset::Base, ConfigPreset::ClgpL0],
            tech: TechNode::T090,
            l1_sizes: vec![1 << 10, 4 << 10],
            bench: Some(vec!["gzip".into()]),
            warmup_insts: 1_000,
            measure_insts: 4_000,
            workload_seed: 7,
            exec_seed: 3,
            threads: Some(2),
            predictor: PredictorKind::Stream,
            trace: None,
            prefetcher: None,
            itlb: None,
            insertion: None,
        }
    }

    #[test]
    fn default_spec_is_the_paper_matrix_and_validates() {
        let spec = ExperimentSpec::default();
        assert_eq!(spec.presets.len(), 10);
        assert_eq!(spec.l1_sizes, L1_SIZES.to_vec());
        assert_eq!(spec.bench_names().unwrap().len(), 12);
        spec.validate().unwrap();
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let replaying = ExperimentSpec {
            trace: Some(TraceSource {
                dir: "traces/smoke".into(),
            }),
            ..tiny_spec()
        };
        let mana = ExperimentSpec {
            prefetcher: Some(PrefetcherKind::Mana),
            ..tiny_spec()
        };
        let progmap = ExperimentSpec {
            prefetcher: Some(PrefetcherKind::ProgMap),
            ..tiny_spec()
        };
        for spec in [
            ExperimentSpec::default(),
            tiny_spec(),
            replaying,
            mana,
            progmap,
        ] {
            let text = spec.to_json();
            let back = ExperimentSpec::from_json(&text).unwrap();
            assert_eq!(back, spec);
            // Canonical: serializing again is byte-identical.
            assert_eq!(back.to_json(), text);
        }
    }

    #[test]
    fn unknown_bench_fails_loudly_with_the_valid_names() {
        let mut spec = tiny_spec();
        spec.bench = Some(vec!["gzpi".into()]);
        let err = spec.validate().unwrap_err();
        assert!(err.contains("unknown benchmark \"gzpi\""), "{err}");
        assert!(err.contains("gzip") && err.contains("twolf"), "{err}");
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        let mut s = tiny_spec();
        s.presets.push(ConfigPreset::Base);
        assert!(s.validate().unwrap_err().contains("duplicate preset"));
        let mut s = tiny_spec();
        s.l1_sizes = vec![];
        assert!(s.validate().unwrap_err().contains("no L1 sizes"));
        let mut s = tiny_spec();
        s.l1_sizes = vec![1 << 10, 4 << 10, 1 << 10];
        assert!(s.validate().unwrap_err().contains("duplicate L1 size 1024"));
        // Unbounded, 1 GiB wedges the engine and 2^62 B cannot be allocated.
        for huge in [1 << 30, 1 << 62] {
            let mut s = tiny_spec();
            s.l1_sizes = vec![1 << 20, huge];
            let e = s.validate().unwrap_err();
            assert!(e.contains(&format!("l1_sizes entry {huge} exceeds")), "{e}");
        }
        let mut s = tiny_spec();
        s.bench = Some(vec![]);
        assert!(s.validate().unwrap_err().contains("matches no benchmarks"));
        let mut s = tiny_spec();
        s.bench = Some(vec!["gzip".into(), "gzip".into()]);
        assert!(s.validate().unwrap_err().contains("listed twice"));
        let mut s = tiny_spec();
        s.threads = Some(0);
        assert!(s.validate().unwrap_err().contains("threads"));
        let mut s = tiny_spec();
        s.measure_insts = 0;
        assert!(s.validate().unwrap_err().contains("measure_insts"));
        // Unbounded i-TLB sizes: a 2^62-cycle walk wedges the engine, 2^40
        // entries cannot be allocated, and 65536 ways overflow the LRU ranks.
        let itlb = ITlbConfig::default_config();
        for (bad, field) in [
            (
                ITlbConfig {
                    miss_cycles: 1 << 62,
                    ..itlb
                },
                "miss_cycles",
            ),
            (
                ITlbConfig {
                    entries: 1 << 40,
                    assoc: 1,
                    ..itlb
                },
                "entries",
            ),
            (
                ITlbConfig {
                    entries: 1 << 16,
                    assoc: 1 << 16,
                    ..itlb
                },
                "assoc",
            ),
        ] {
            let s = ExperimentSpec {
                itlb: Some(bad),
                ..tiny_spec()
            };
            let e = s.validate().unwrap_err();
            assert!(e.contains(&format!("itlb {field}")), "{e}");
        }
    }

    #[test]
    fn from_json_rejects_typos_and_wrong_schemas() {
        let good = tiny_spec().to_json();
        let e =
            ExperimentSpec::from_json(&good.replace("warmup_insts", "warmupinsts")).unwrap_err();
        assert!(e.contains("unknown spec field"), "{e}");
        let e = ExperimentSpec::from_json(&good.replace("\"schema\": 4", "\"schema\": 99"))
            .unwrap_err();
        assert!(e.contains("schema 99"), "{e}");
        let e = ExperimentSpec::from_json(&good.replace("\"clgp+l0\"", "\"clgp+l9\"")).unwrap_err();
        assert!(e.contains("unknown preset"), "{e}");
        assert!(ExperimentSpec::from_json("[]").is_err());
        // Malformed trace blocks are loud.
        let e = ExperimentSpec::from_json(
            &good.replace("\"trace\": null", "\"trace\": {\"dri\": \"x\"}"),
        )
        .unwrap_err();
        assert!(e.contains("unknown trace field"), "{e}");
        let e = ExperimentSpec::from_json(&good.replace("\"trace\": null", "\"trace\": 7"))
            .unwrap_err();
        assert!(e.contains("trace must be null or an object"), "{e}");
    }

    #[test]
    fn unknown_prefetcher_id_aborts_listing_the_valid_set() {
        let good = tiny_spec().to_json();
        let e = ExperimentSpec::from_json(
            &good.replace("\"prefetcher\": null", "\"prefetcher\": \"mnaa\""),
        )
        .unwrap_err();
        assert!(e.contains("unknown prefetcher \"mnaa\""), "{e}");
        for id in ["none", "nextline", "fdp", "clgp", "mana", "progmap"] {
            assert!(e.contains(id), "error must list {id:?}: {e}");
        }
        // Non-string values are loud too.
        let e =
            ExperimentSpec::from_json(&good.replace("\"prefetcher\": null", "\"prefetcher\": 7"))
                .unwrap_err();
        assert!(e.contains("prefetcher must be null"), "{e}");
    }

    /// Cut `,\n  "<field>": null` out of a serialized spec (for building
    /// an earlier-schema file).
    fn cut_field(text: &str, field: &str) -> String {
        let mut out = text.to_string();
        let needle = format!(",\n  \"{field}\": null");
        let cut = out.find(&needle).unwrap();
        out.replace_range(cut..cut + needle.len(), "");
        out
    }

    #[test]
    fn schemas_1_to_3_are_refused_by_name() {
        let v4 = tiny_spec().to_json();
        for old in 1..=3 {
            let e = ExperimentSpec::from_json(
                &v4.replace("\"schema\": 4", &format!("\"schema\": {old}")),
            )
            .unwrap_err();
            assert!(
                e.contains(&format!("spec schema {old} not supported")),
                "{e}"
            );
        }
        // A genuine schema-3 file (no itlb/insertion) is refused for its
        // schema, not for the fields it predates.
        let v3 = cut_field(
            &cut_field(&v4.replace("\"schema\": 4", "\"schema\": 3"), "itlb"),
            "insertion",
        );
        let e = ExperimentSpec::from_json(&v3).unwrap_err();
        assert!(e.contains("spec schema 3 not supported"), "{e}");
    }

    #[test]
    fn itlb_and_insertion_fields_round_trip_and_reject_typos() {
        let spec = ExperimentSpec {
            itlb: Some(ITlbConfig {
                entries: 16,
                assoc: 2,
                page_bytes: 4096,
                miss_cycles: 20,
            }),
            insertion: Some(InsertionPolicy::Lru),
            ..tiny_spec()
        };
        spec.validate().unwrap();
        let back = ExperimentSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        let text = spec.to_json();
        // Misspelled / missing i-TLB sizing fields are loud.
        let e = ExperimentSpec::from_json(&text.replace("page_bytes", "pagebytes")).unwrap_err();
        assert!(e.contains("unknown itlb field \"pagebytes\""), "{e}");
        let e = ExperimentSpec::from_json(
            &text.replace("\"miss_cycles\": 20", "\"miss_cycles\": \"x\""),
        )
        .unwrap_err();
        assert!(e.contains("itlb.miss_cycles"), "{e}");
        let e = ExperimentSpec::from_json(
            &text.replace("\"insertion\": \"lru\"", "\"insertion\": \"plru\""),
        )
        .unwrap_err();
        assert!(e.contains("unknown insertion policy `plru`"), "{e}");
        assert!(
            e.contains("mru, lru, bypass"),
            "must list the valid ids: {e}"
        );
        // A non-power-of-two set count is a validation error, by name.
        let bad = ExperimentSpec {
            itlb: Some(ITlbConfig {
                entries: 48,
                assoc: 4,
                page_bytes: 4096,
                miss_cycles: 20,
            }),
            ..tiny_spec()
        };
        assert!(bad.validate().unwrap_err().contains("itlb entries"));
    }

    #[test]
    fn non_pow2_l1_sizes_are_rejected_by_name() {
        // Regression: a 1536-byte L1 used to validate, then panic inside
        // the cache array (whose sets are mask-indexed) when the first
        // cell ran; now the spec itself refuses, naming the field.
        let mut s = tiny_spec();
        s.l1_sizes = vec![1536];
        let e = s.validate().unwrap_err();
        assert!(e.contains("l1_sizes entry 1536"), "{e}");
        assert!(e.contains("power of two"), "{e}");
    }

    #[test]
    fn prefetcher_override_reshapes_the_sim_config() {
        for (id, kind) in [
            ("mana", PrefetcherKind::Mana),
            ("progmap", PrefetcherKind::ProgMap),
        ] {
            let spec = ExperimentSpec {
                prefetcher: Some(kind),
                ..tiny_spec()
            };
            spec.validate().unwrap_or_else(|e| panic!("{id}: {e}"));
            // Presets with a pre-buffer swap mechanisms in place...
            let cfg = spec.sim_config(ConfigPreset::ClgpL0, 4 << 10);
            assert_eq!(cfg.frontend.prefetcher, kind);
            assert!(cfg.frontend.pb_entries > 0);
            // ...and bufferless presets gain the node's one-cycle buffer.
            let cfg = spec.sim_config(ConfigPreset::Base, 4 << 10);
            assert_eq!(cfg.frontend.prefetcher, kind);
            assert_eq!(
                cfg.frontend.pb_entries,
                prestage_core::FrontendConfig::one_cycle_buffer_lines(spec.tech)
            );
        }
        // No override: the preset keeps its own mechanism.
        let cfg = tiny_spec().sim_config(ConfigPreset::ClgpL0, 4 << 10);
        assert_eq!(cfg.frontend.prefetcher, PrefetcherKind::Clgp);
    }

    #[test]
    fn replay_specs_vet_their_traces_before_running() {
        // Missing directory/file: the error points at the record command.
        let spec = ExperimentSpec {
            trace: Some(TraceSource {
                dir: "/nonexistent/trace/dir".into(),
            }),
            ..tiny_spec()
        };
        let e = Sweep::new(&spec, &spec.cells().unwrap()).run().unwrap_err();
        assert!(e.contains("prestage trace record"), "{e}");

        // A trace recorded under different seeds is refused by name.
        let dir = std::env::temp_dir().join(format!("prestage_vet_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = ExperimentSpec {
            trace: Some(TraceSource {
                dir: dir.to_string_lossy().into_owned(),
            }),
            ..tiny_spec()
        };
        let w = spec.build_workloads().unwrap().remove(0);
        let path = spec.trace_paths().unwrap().unwrap().remove(0);
        let f = std::fs::File::create(&path).unwrap();
        // Recorded with the wrong exec seed (spec uses 3).
        prestage_workload::record_trace(
            std::io::BufWriter::new(f),
            &w,
            99,
            spec.trace_record_insts(),
            1024,
        )
        .unwrap();
        let cells = spec.cells().unwrap();
        let e = Sweep::new(&spec, &cells).run().unwrap_err();
        assert!(e.contains("exec seed 99"), "{e}");
        // Too-short traces are refused with both lengths.
        let f = std::fs::File::create(&path).unwrap();
        prestage_workload::record_trace(std::io::BufWriter::new(f), &w, 3, 100, 1024).unwrap();
        let e = Sweep::new(&spec, &cells).run().unwrap_err();
        assert!(e.contains("holds 100 instructions"), "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_shards_only_vet_the_benchmarks_they_run() {
        // A two-bench replay spec with only the first bench's trace
        // recorded: cells touching just that bench must run; the full
        // grid must refuse.
        let dir = std::env::temp_dir().join(format!("prestage_scope_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = ExperimentSpec {
            bench: Some(vec!["gzip".into(), "mcf".into()]),
            trace: Some(TraceSource {
                dir: dir.to_string_lossy().into_owned(),
            }),
            ..tiny_spec()
        };
        let w = spec.build_workloads().unwrap().remove(0);
        let path = spec.trace_paths().unwrap().unwrap().remove(0);
        let f = std::fs::File::create(&path).unwrap();
        prestage_workload::record_trace(
            std::io::BufWriter::new(f),
            &w,
            spec.exec_seed,
            spec.trace_record_insts(),
            2048,
        )
        .unwrap();
        let cells = spec.cells().unwrap();
        let gzip_cells: Vec<SweepCell> =
            cells.iter().copied().filter(|c| c.bench_idx == 0).collect();
        let results = Sweep::new(&spec, &gzip_cells).run().unwrap();
        assert_eq!(results.len(), gzip_cells.len());
        let e = Sweep::new(&spec, &cells).run().unwrap_err();
        assert!(e.contains("mcf"), "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn record(w: &Workload, path: &Path, exec_seed: u64, n: u64) {
        let f = std::fs::File::create(path).unwrap();
        prestage_workload::record_trace(std::io::BufWriter::new(f), w, exec_seed, n, 1024).unwrap();
    }

    /// A `tiny_spec` over `bench`, replaying traces recorded into a fresh
    /// scratch directory named by `tag` (returned for clean-up).
    fn recorded_replay_spec(tag: &str, bench: &[&str]) -> (ExperimentSpec, PathBuf) {
        let dir = std::env::temp_dir().join(format!("prestage_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = ExperimentSpec {
            bench: Some(bench.iter().map(|b| b.to_string()).collect()),
            trace: Some(TraceSource {
                dir: dir.to_string_lossy().into_owned(),
            }),
            ..tiny_spec()
        };
        let paths = spec.trace_paths().unwrap().unwrap();
        for (w, path) in spec.build_workloads().unwrap().iter().zip(&paths) {
            record(w, path, spec.exec_seed, spec.trace_record_insts());
        }
        (spec, dir)
    }

    #[test]
    fn the_first_bad_trace_in_bench_order_is_reported_at_any_width() {
        let (spec, dir) = recorded_replay_spec("first_bad", &["gzip", "mcf", "twolf"]);
        let paths = spec.trace_paths().unwrap().unwrap();
        let good: Vec<Vec<u8>> = paths.iter().map(|p| std::fs::read(p).unwrap()).collect();
        let workloads = spec.build_workloads().unwrap();
        let cells = spec.cells().unwrap();
        // Body corruption: a flipped payload byte in the last chunk.
        let corrupt = |i: usize| {
            let mut bytes = good[i].clone();
            let at = bytes.len() - 10;
            bytes[at] ^= 0x40;
            std::fs::write(&paths[i], bytes).unwrap();
        };
        // Header rejection: recorded under a foreign exec seed.
        let foreign = |i: usize| record(&workloads[i], &paths[i], 99, spec.trace_record_insts());
        type Breakage<'a> = &'a dyn Fn(usize);
        let cases: [(Breakage, Breakage, &str); 3] = [
            (&corrupt, &corrupt, "CRC mismatch"),
            (&corrupt, &foreign, "CRC mismatch"),
            (&foreign, &corrupt, "exec seed 99"),
        ];
        for (break_mcf, break_twolf, want) in cases {
            for (i, bytes) in good.iter().enumerate() {
                std::fs::write(&paths[i], bytes).unwrap();
            }
            break_mcf(1);
            break_twolf(2);
            for threads in [1, 4] {
                let spec = ExperimentSpec {
                    threads: Some(threads),
                    ..spec.clone()
                };
                let Err(e) = spec.set_up(&cells, true) else {
                    panic!("two bad traces set up clean")
                };
                assert!(
                    e.contains("mcf-w") && e.contains(want),
                    "{threads} threads: {e}"
                );
                assert!(!e.contains("twolf"), "{threads} threads: {e}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_reader_streamed_replay_is_bit_exact_at_any_width() {
        let (replay, dir) = recorded_replay_spec("multi_reader", &["gzip", "mcf", "twolf"]);
        let live = ExperimentSpec {
            trace: None,
            ..replay.clone()
        };
        // gzip and mcf are replayed by all four of their cells, each cell
        // streaming the file on its own; twolf by one.
        let grid = replay.cells().unwrap();
        let twolf = grid.iter().position(|c| c.bench_idx == 2).unwrap();
        let cells: Vec<SweepCell> = grid
            .iter()
            .enumerate()
            .filter(|&(i, c)| c.bench_idx != 2 || i == twolf)
            .map(|(_, c)| *c)
            .collect();
        let readers = |b: usize| cells.iter().filter(|c| c.bench_idx == b).count();
        assert_eq!((readers(0), readers(1), readers(2)), (4, 4, 1));
        let want = Sweep::new(&live, &cells).run().unwrap();
        for threads in [1, 2, 4] {
            let spec = ExperimentSpec {
                threads: Some(threads),
                ..replay.clone()
            };
            let got = Sweep::new(&spec, &cells).run().unwrap();
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.cell, &g.stats), (w.cell, &w.stats), "{threads} threads");
            }
        }
        // Whatever the readers, the first corrupt trace in bench order is
        // the one reported, before any cell runs.
        let paths = replay.trace_paths().unwrap().unwrap();
        let good: Vec<Vec<u8>> = paths.iter().map(|p| std::fs::read(p).unwrap()).collect();
        for (broken, want) in [
            (&[0, 2][..], "gzip-w"),
            (&[1, 2], "mcf-w"),
            (&[2], "twolf-w"),
        ] {
            for (i, bytes) in good.iter().enumerate() {
                let mut bytes = bytes.clone();
                if broken.contains(&i) {
                    let at = bytes.len() - 10;
                    bytes[at] ^= 0x40;
                }
                std::fs::write(&paths[i], bytes).unwrap();
            }
            for threads in [1, 4] {
                let spec = ExperimentSpec {
                    threads: Some(threads),
                    ..replay.clone()
                };
                let observer = |r: &CellResult| panic!("cell {:?} ran", r.cell);
                let Err(e) = Sweep {
                    observer: Some(&observer),
                    ..Sweep::new(&spec, &cells)
                }
                .run() else {
                    panic!("corrupt traces {broken:?} replayed clean")
                };
                assert!(
                    e.contains(want) && e.contains("CRC mismatch"),
                    "{threads} threads: {e}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_runs_cells_in_input_order_observing_each_once_at_any_width() {
        let spec = ExperimentSpec {
            bench: Some(vec!["gzip".into(), "mcf".into()]),
            ..tiny_spec()
        };
        let grid = spec.cells().unwrap();
        // An input order that is not grid order.
        let mut cells = grid.clone();
        cells.reverse();
        cells.swap(0, 3);
        let workloads = spec.build_workloads().unwrap();
        let serial: Vec<SimStats> = cells
            .iter()
            .map(|c| {
                let cfg = spec.sim_config(c.preset, c.l1);
                crate::Engine::new(cfg, &workloads[c.bench_idx], spec.exec_seed).run()
            })
            .collect();
        for threads in [1, 2, 4] {
            let spec = ExperimentSpec {
                threads: Some(threads),
                ..spec.clone()
            };
            let seen = Mutex::new(Vec::new());
            let observer = |r: &CellResult| seen.lock().unwrap().push(r.cell);
            let got = Sweep {
                observer: Some(&observer),
                ..Sweep::new(&spec, &cells)
            }
            .run()
            .unwrap();
            let order: Vec<SweepCell> = got.iter().map(|r| r.cell).collect();
            assert_eq!(order, cells, "{threads} threads");
            for (r, want) in got.iter().zip(&serial) {
                assert_eq!(&r.stats, want, "{threads} threads: {:?}", r.cell);
            }
            let mut seen: Vec<usize> = seen
                .into_inner()
                .unwrap()
                .iter()
                .map(|c| grid.iter().position(|g| g == c).unwrap())
                .collect();
            seen.sort_unstable();
            assert_eq!(
                seen,
                (0..grid.len()).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn pre_built_workloads_must_match_the_spec_bench_set() {
        let spec = tiny_spec();
        let cells = spec.cells().unwrap();
        for bench in [vec!["mcf"], vec!["gzip", "mcf"]] {
            let given = ExperimentSpec {
                bench: Some(bench.iter().map(|b| b.to_string()).collect()),
                ..tiny_spec()
            }
            .build_workloads()
            .unwrap();
            let e = Sweep {
                workloads: Some(&given),
                ..Sweep::new(&spec, &cells)
            }
            .run()
            .unwrap_err();
            assert!(
                e.contains("do not match the spec's bench set [gzip]"),
                "{e}"
            );
            assert!(e.contains(&format!("[{}]", bench.join(", "))), "{e}");
        }
    }

    #[test]
    fn a_replay_cell_without_a_loaded_source_is_refused_by_name() {
        let (spec, dir) = recorded_replay_spec("unloaded", &["gzip"]);
        // A cell of a bench the spec does not have: no trace covers it.
        let mut cell = spec.cells().unwrap()[0];
        cell.bench_idx = 1;
        let e = Sweep::new(&spec, &[cell]).run().unwrap_err();
        assert!(e.contains("has no loaded replay source"), "{e}");
        assert!(e.contains("bench index 1"), "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_replay_equals_live_for_every_mechanism_at_any_width() {
        // One recording serves all mechanisms: the committed path is
        // mechanism-independent.
        let (replay, dir) = recorded_replay_spec("streamed", &["gzip", "mcf", "twolf"]);
        let replay = ExperimentSpec {
            l1_sizes: vec![2 << 10],
            ..replay
        };
        let cells = replay.cells().unwrap();
        for kind in PrefetcherKind::all() {
            let live = ExperimentSpec {
                trace: None,
                prefetcher: Some(kind),
                ..replay.clone()
            };
            let want = Sweep::new(&live, &cells).run().unwrap();
            for threads in [1, 2, 4] {
                let spec = ExperimentSpec {
                    threads: Some(threads),
                    prefetcher: Some(kind),
                    ..replay.clone()
                };
                let got = Sweep::new(&spec, &cells).run().unwrap();
                assert_eq!(got, want, "{kind:?}, {threads} threads");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_inflated_header_count_fails_on_its_missing_bytes() {
        // A CRC-valid header claiming 2^23 records over a 21k-record body:
        // set-up's verify pass allocates nothing per record and fails on
        // the first absent chunk, before any cell runs.
        let (spec, dir) = recorded_replay_spec("inflated", &["gzip"]);
        let path = &spec.trace_paths().unwrap().unwrap()[0];
        let mut bytes = std::fs::read(path).unwrap();
        // magic(4) version(4) profile_len(2) profile seeds(16), then count(8)
        // chunk size(4) and the header CRC over everything before it.
        let count_at = 10 + "gzip".len() + 16;
        let crc_at = count_at + 12;
        bytes[count_at..count_at + 8].copy_from_slice(&(1u64 << 23).to_le_bytes());
        let crc = prestage_workload::trace_io::crc32(&bytes[..crc_at]);
        bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(path, &bytes).unwrap();
        let e = Sweep::new(&spec, &spec.cells().unwrap()).run().unwrap_err();
        assert!(
            e.contains("is corrupt") && e.contains("truncated reading chunk"),
            "{e}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_run_is_bit_exact_and_byte_identical_to_live() {
        let dir = std::env::temp_dir().join(format!("prestage_replay_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let live = tiny_spec();
        let replay = ExperimentSpec {
            trace: Some(TraceSource {
                dir: dir.to_string_lossy().into_owned(),
            }),
            ..live.clone()
        };
        for (w, path) in live
            .build_workloads()
            .unwrap()
            .iter()
            .zip(replay.trace_paths().unwrap().unwrap())
        {
            let f = std::fs::File::create(&path).unwrap();
            prestage_workload::record_trace(
                std::io::BufWriter::new(f),
                w,
                live.exec_seed,
                live.trace_record_insts(),
                1024,
            )
            .unwrap();
        }
        let live_rows = try_run_spec(&live).unwrap();
        let replay_rows = try_run_spec(&replay).unwrap();
        // Every counter of every cell identical, and the rendered grid
        // artifact byte-identical (grid_output clears the trace source).
        for (lr, rr) in live_rows.iter().flatten().zip(replay_rows.iter().flatten()) {
            assert_eq!(lr.per_bench, rr.per_bench);
        }
        assert_eq!(
            grid_output(&live, &live_rows),
            grid_output(&replay, &replay_rows)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn env_layer_overrides_only_what_is_set() {
        let env: HashMap<&str, &str> = [
            ("PRESTAGE_MEASURE", "9000"),
            ("PRESTAGE_BENCH", "gcc, mcf"),
            ("PRESTAGE_THREADS", "3"),
        ]
        .into_iter()
        .collect();
        let spec = tiny_spec()
            .env_overrides_with(|k| env.get(k).map(|v| v.to_string()))
            .unwrap();
        assert_eq!(spec.measure_insts, 9_000);
        assert_eq!(spec.bench, Some(vec!["gcc".to_string(), "mcf".to_string()]));
        assert_eq!(spec.threads, Some(3));
        // Untouched fields keep the base spec's values.
        assert_eq!(spec.warmup_insts, 1_000);
        assert_eq!(spec.workload_seed, 7);
        // Empty values count as unset.
        let spec = tiny_spec()
            .env_overrides_with(|k| {
                (k == "PRESTAGE_BENCH" || k == "PRESTAGE_THREADS").then(|| "  ".to_string())
            })
            .unwrap();
        assert_eq!(spec.bench, Some(vec!["gzip".to_string()]));
        assert_eq!(spec.threads, Some(2));
    }

    #[test]
    fn env_layer_rejects_scientific_notation() {
        let err = tiny_spec()
            .env_overrides_with(|k| (k == "PRESTAGE_MEASURE").then(|| "1e6".to_string()))
            .unwrap_err();
        assert!(
            err.starts_with("PRESTAGE_MEASURE must be an unsigned integer, got \"1e6\"")
                && err.contains("scientific notation is not supported"),
            "{err}"
        );
    }

    #[test]
    fn env_layer_rejects_zero_threads() {
        let err = tiny_spec()
            .env_overrides_with(|k| (k == "PRESTAGE_THREADS").then(|| "0".to_string()))
            .unwrap_err();
        assert_eq!(
            err,
            "PRESTAGE_THREADS must be a positive integer, got \"0\""
        );
    }

    #[test]
    fn env_u64_parse_accepts_good_values_and_defaults() {
        assert_eq!(parse_env_u64("X", None, 7), Ok(7));
        assert_eq!(parse_env_u64("X", Some(""), 7), Ok(7));
        assert_eq!(parse_env_u64("X", Some("  "), 7), Ok(7));
        assert_eq!(parse_env_u64("X", Some("123"), 7), Ok(123));
        assert_eq!(parse_env_u64("X", Some(" 42 "), 7), Ok(42));
    }

    #[test]
    fn grid_from_spec_matches_axes() {
        let spec = tiny_spec();
        let cells = spec.cells().unwrap();
        let at = |preset, l1| SweepCell {
            preset,
            l1,
            bench_idx: 0,
        };
        assert_eq!(
            cells,
            [
                at(ConfigPreset::Base, 1 << 10),
                at(ConfigPreset::Base, 4 << 10),
                at(ConfigPreset::ClgpL0, 1 << 10),
                at(ConfigPreset::ClgpL0, 4 << 10),
            ]
        );
        // An invalid spec has no grid.
        let bad = ExperimentSpec {
            l1_sizes: vec![],
            ..spec
        };
        assert!(bad.cells().unwrap_err().contains("no L1 sizes"));
    }

    /// Give every numeric leaf of `v` a distinct value, counting up from
    /// `*next`.
    fn number_leaves(v: &mut Json, next: &mut u64) {
        match v {
            Json::Int(i) => {
                *next += 1;
                *i = i128::from(*next);
            }
            Json::Arr(items) => items.iter_mut().for_each(|x| number_leaves(x, next)),
            Json::Obj(pairs) => pairs.iter_mut().for_each(|(_, x)| number_leaves(x, next)),
            _ => {}
        }
    }

    #[test]
    fn stats_codec_roundtrips_every_field_exactly() {
        // Every counter of the rendering gets a distinct value above 2^53,
        // so a swapped, dropped or float-rounded field cannot go unnoticed.
        let mut v = SimStats::default().to_json();
        let first = 1u64 << 53;
        let mut next = first;
        number_leaves(&mut v, &mut next);
        assert_eq!(next - first, 45, "every counter is a numeric leaf");
        let s = SimStats::from_json(&Json::parse(&v.pretty()).unwrap(), "stats").unwrap();
        assert_eq!(s.to_json(), v);
        assert_eq!(s.front.consumer_bumps, s.front.flushes + 1);
    }

    #[test]
    fn shard_file_roundtrips_and_checks_its_count() {
        let spec = tiny_spec();
        let results = Sweep::new(&spec, &spec.cells().unwrap()[1..3])
            .run()
            .unwrap();
        let shard = ShardFile {
            spec,
            start: 1,
            end: 3,
            results,
        };
        let text = shard.to_json();
        let back = ShardFile::from_json(&text).unwrap();
        assert_eq!(back, shard);
        // A shard that lost a result line must not parse.
        let broken = text.replacen("\"end\": 3", "\"end\": 4", 1);
        assert!(ShardFile::from_json(&broken)
            .unwrap_err()
            .contains("carries"));
    }

    #[test]
    fn fuzz_regression_inverted_shard_range_is_rejected_by_name() {
        // Fuzzer crasher (checked in as fuzz/regressions/shard/
        // inverted-range.json): start 5 > end 2 with an empty results
        // array sneaked past the saturating count check and parsed clean.
        let text = format!(
            "{{\n  \"schema\": {SPEC_SCHEMA},\n  \"spec\": {},\n  \
             \"cells\": {{\"start\": 5, \"end\": 2}},\n  \"results\": []\n}}",
            tiny_spec().to_json_value().render()
        );
        let e = ShardFile::from_json(&text).unwrap_err();
        assert!(e.contains("inverted"), "{e}");
        assert!(
            e.contains("cells.start 5") && e.contains("cells.end 2"),
            "{e}"
        );
    }

    #[test]
    fn fuzz_regression_overflowing_run_length_is_rejected_by_name() {
        // Fuzzer crasher (checked in as fuzz/regressions/spec/
        // warmup-measure-overflow.json): warmup + measure wrapping u64
        // validated clean, then panicked (debug) inside the replay length
        // check.
        let mut s = tiny_spec();
        s.warmup_insts = u64::MAX;
        s.measure_insts = 2;
        let e = s.validate().unwrap_err();
        assert!(
            e.contains("warmup_insts") && e.contains("measure_insts"),
            "{e}"
        );
        assert!(e.contains("overflows"), "{e}");
        // And the trace vet itself stays total even without validate().
        assert!(s.trace_record_insts() == u64::MAX);
    }

    #[test]
    fn fuzz_regression_hostile_wall_s_is_rejected_by_name() {
        // Fuzzer crasher (checked in as fuzz/regressions/shard/
        // negative-wall.json): Duration::from_secs_f64 panics on negative
        // or over-range seconds, so "wall_s": -1.5 (or 1e300) crashed the
        // shard loader instead of being refused.
        let spec = tiny_spec().to_json_value().render();
        for bad in ["-1.5", "1e300"] {
            let text = format!(
                "{{\n  \"schema\": {SPEC_SCHEMA},\n  \"spec\": {spec},\n  \
                 \"cells\": {{\"start\": 0, \"end\": 1}},\n  \"results\": \
                 [{{\"cell\": null, \"stats\": null, \"wall_s\": {bad}}}]\n}}"
            );
            let e = ShardFile::from_json(&text).unwrap_err();
            assert!(e.contains("wall_s"), "wall_s {bad}: {e}");
        }
    }

    /// A one-result shard file as text, with a fabricated result.
    fn one_result_shard() -> String {
        let spec = tiny_spec();
        let cell = spec.cells().unwrap()[0];
        let results = vec![CellResult {
            cell,
            stats: SimStats::default(),
            wall: Duration::from_millis(250),
        }];
        ShardFile {
            spec,
            start: 0,
            end: 1,
            results,
        }
        .to_json()
    }

    #[test]
    fn shard_results_must_sit_in_the_grid_at_their_positions() {
        let text = one_result_shard();
        let moved = |start: usize| {
            text.replace("\"start\": 0", &format!("\"start\": {start}"))
                .replace("\"end\": 1", &format!("\"end\": {}", start + 1))
        };
        // A range past the spec's four-cell grid.
        let e = ShardFile::from_json(&moved(4)).unwrap_err();
        assert!(
            e.contains("cells 4..5, but the grid has only 4 cells"),
            "{e}"
        );
        // Result 0 of a shard starting at cell 1 must be cell 1.
        let e = ShardFile::from_json(&moved(1)).unwrap_err();
        assert!(
            e.contains("shard result 0 is") && e.contains("cell 1 of the grid"),
            "{e}"
        );
        // A cell carrying the node, as older shard files did, is refused
        // by name.
        let old = text.replacen("\"preset\":", "\"tech\": \"90\", \"preset\":", 1);
        let e = ShardFile::from_json(&old).unwrap_err();
        assert!(e.contains("unknown cell field \"tech\""), "{e}");
    }

    #[test]
    fn shard_results_without_a_numeric_wall_s_are_rejected_by_name() {
        // `wall_s` used to default to 0 s when missing or non-numeric.
        let text = one_result_shard();
        assert!(ShardFile::from_json(&text).is_ok());
        for bad in [
            text.replace("\"wall_s\": 0.25,", ""),
            text.replace("\"wall_s\": 0.25", "\"wall_s\": \"fast\""),
            text.replace("\"wall_s\": 0.25", "\"wall_s\": null"),
        ] {
            assert_ne!(bad, text);
            let e = ShardFile::from_json(&bad).unwrap_err();
            assert!(e.contains("wall_s is missing or not a number"), "{e}");
        }
    }

    #[test]
    fn unknown_stats_counters_are_rejected_by_name() {
        // A shard written by a build with an extra counter must not merge
        // with that counter silently dropped, whichever block holds it.
        let canon = SimStats::default().to_json();
        for block in ["stats", "front", "bus", "pred", "backend"] {
            let Json::Obj(mut pairs) = canon.clone() else {
                unreachable!("stats render as an object")
            };
            let target = if block == "stats" {
                &mut pairs
            } else {
                match pairs.iter_mut().find(|(k, _)| k == block) {
                    Some((_, Json::Obj(inner))) => inner,
                    _ => unreachable!("{block} renders as an object"),
                }
            };
            target.push(("extra_counter".into(), 7u64.into()));
            let e = SimStats::from_json(&Json::Obj(pairs), "stats").unwrap_err();
            assert!(e.contains("unknown stats field \"extra_counter\""), "{e}");
            assert!(e.contains(&format!("block \"{block}\"")), "{e}");
        }
        // The same refusal reaches `prestage merge` through the shard codec.
        let text =
            one_result_shard().replacen("\"flushes\":", "\"extra_counter\": 1, \"flushes\":", 1);
        let e = ShardFile::from_json(&text).unwrap_err();
        assert!(
            e.contains("unknown stats field \"extra_counter\" in block \"front\""),
            "{e}"
        );
    }

    #[test]
    fn shard_files_refuse_unknown_keys_at_every_level() {
        // `prestage merge` used to drop these silently: only the stats
        // blocks checked their keys.
        let text = one_result_shard();
        // (the first key the bad one goes in front of, the bad key, its block)
        let bad = [
            ("\"spec\":", "extra_top", "shard"),
            ("\"start\":", "stride", "cells"),
            ("\"wall_s\":", "slots", "results[0]"),
            ("\"preset\":", "bogus", "cell"),
        ];
        for (at, key, block) in bad {
            let broken = text.replacen(at, &format!("\"{key}\": 1, {at}"), 1);
            assert_ne!(broken, text, "{key}");
            let e = ShardFile::from_json(&broken).unwrap_err();
            assert!(
                e.contains(&format!("field \"{key}\" in block \"{block}\"")),
                "{key}: {e}"
            );
        }
    }

    #[test]
    fn run_spec_matches_the_raw_runner_bit_exactly() {
        let spec = tiny_spec();
        let rows = try_run_spec(&spec).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 2);
        let w = spec.build_workloads().unwrap();
        for (pi, &preset) in spec.presets.iter().enumerate() {
            for (si, &l1) in spec.l1_sizes.iter().enumerate() {
                let direct =
                    crate::Engine::new(spec.sim_config(preset, l1), &w[0], spec.exec_seed).run();
                assert_eq!(rows[pi][si].per_bench[0].1, direct);
                assert_eq!(rows[pi][si].per_bench[0].0, "gzip");
            }
        }
    }

    #[test]
    fn grid_output_is_deterministic_and_thread_blind() {
        let spec = tiny_spec();
        let rows = try_run_spec(&spec).unwrap();
        let a = grid_output(&spec, &rows);
        let b = grid_output(&spec, &try_run_spec(&spec).unwrap());
        assert_eq!(a, b);
        assert!(Json::parse(&a).is_ok());
        // The pool width is host-local: a run that only differed in
        // `threads` must still produce identical artifact bytes.
        let wider = ExperimentSpec {
            threads: Some(7),
            ..spec.clone()
        };
        assert_eq!(grid_output(&wider, &try_run_spec(&wider).unwrap()), a);
    }
}
