//! Parallel sweep execution: one flat work-stealing pool over sweep cells.
//!
//! The paper's figures are (preset × L1-size × benchmark) IPC sweeps.  The
//! first runner parallelised only the innermost axis: each (preset, size)
//! cell spawned and tore down its own thread pool, so every core idled at
//! every cell boundary.  This module instead flattens the whole grid into
//! [`SweepCell`]s — flat deterministic cell identifiers — and evaluates an
//! arbitrary slice of them on one long-lived work-stealing pool
//! ([`run_cells`], built on [`pool_map`]'s atomic work cursor; the offline
//! build has no rayon).  [`CellGrid`] maps cells to flat grid positions and
//! [`CellGrid::merge`] reassembles ordered [`GridResult`]s per
//! (preset, size) row from the unordered cell results.
//!
//! Every cell is an independent deterministic simulation, so results are
//! bit-exact regardless of thread count or cell order — and the flat
//! addressing doubles as the unit of distribution for the multi-process
//! sharding the ROADMAP plans: a shard is just a sub-slice of
//! [`CellGrid::cells`], and `merge` accepts any union of shard outputs.

use crate::config::{ConfigPreset, SimConfig};
use crate::engine::{Engine, PredictorKind};
use crate::stats::{harmonic_mean, SimStats};
use prestage_cacti::TechNode;
use prestage_workload::{build, BenchmarkProfile, InstSource, TraceGenerator, Workload};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// Result of one grid row: per-benchmark stats plus the harmonic-mean IPC.
#[derive(Debug, Clone)]
pub struct GridResult {
    /// Per-benchmark (name, stats) in input order.
    pub per_bench: Vec<(String, SimStats)>,
}

impl GridResult {
    /// Harmonic mean of per-benchmark IPC (the paper's aggregate).
    pub fn hmean_ipc(&self) -> f64 {
        let v: Vec<f64> = self.per_bench.iter().map(|(_, s)| s.ipc()).collect();
        harmonic_mean(&v)
    }

    /// IPC for a given benchmark name.
    pub fn ipc_of(&self, name: &str) -> Option<f64> {
        self.per_bench
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.ipc())
    }

    /// Benchmarks whose IPC is zero (a hung or broken configuration).
    /// [`harmonic_mean`] propagates these as an aggregate of 0.0 instead of
    /// masking them; this names the culprits for the sweep output.
    pub fn zero_ipc_benches(&self) -> Vec<&str> {
        self.per_bench
            .iter()
            .filter(|(_, s)| s.ipc() <= 0.0)
            .map(|(n, _)| n.as_str())
            .collect()
    }
}

/// Flat identifier of one simulation in a sweep grid: which paper
/// configuration, at which node, with which L1 capacity, over which
/// benchmark, executed with which engine seed.
///
/// A cell is the atom of sweep execution *and* of distribution: it is
/// `Copy`, hashable, and independent of every other cell, so any subset can
/// run on any worker (thread today, process or host later) and the results
/// merge by grid position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SweepCell {
    pub preset: ConfigPreset,
    pub tech: TechNode,
    pub l1: usize,
    /// Index into the sweep's workload list.
    pub bench_idx: usize,
    /// Engine execution seed (wrong-path / bus arbitration jitter).
    pub exec_seed: u64,
}

impl SweepCell {
    /// The paper-preset configuration this cell denotes.  Callers that need
    /// non-default run lengths or ablation knobs pass their own `configure`
    /// closure to [`run_cells`] instead.
    pub fn config(&self) -> SimConfig {
        SimConfig::preset(self.preset, self.tech, self.l1)
    }
}

/// One evaluated cell: the identifier, its stats, and how long it took on
/// its worker (useful for load-balance diagnostics; never part of
/// determinism comparisons).
#[derive(Debug, Clone)]
pub struct CellResult {
    pub cell: SweepCell,
    pub stats: SimStats,
    pub wall: Duration,
}

/// A rectangular (preset × L1-size × benchmark) sweep grid at one node:
/// the bijection between [`SweepCell`]s and flat grid positions.
///
/// Flat order is row-major: preset, then size, then benchmark — so one
/// (preset, size) row occupies `n_bench` consecutive positions.
#[derive(Debug, Clone)]
pub struct CellGrid {
    presets: Vec<ConfigPreset>,
    tech: TechNode,
    sizes: Vec<usize>,
    n_bench: usize,
    exec_seed: u64,
}

impl CellGrid {
    /// Build a grid over duplicate-free preset and size axes.
    ///
    /// # Panics
    /// If either axis contains duplicates (the cell ↔ position mapping
    /// would no longer be a bijection).
    pub fn new(
        presets: Vec<ConfigPreset>,
        tech: TechNode,
        sizes: Vec<usize>,
        n_bench: usize,
        exec_seed: u64,
    ) -> CellGrid {
        for (i, p) in presets.iter().enumerate() {
            assert!(
                !presets[..i].contains(p),
                "duplicate preset {p:?} in sweep axis"
            );
        }
        for (i, s) in sizes.iter().enumerate() {
            assert!(!sizes[..i].contains(s), "duplicate L1 size {s} in sweep axis");
        }
        CellGrid {
            presets,
            tech,
            sizes,
            n_bench,
            exec_seed,
        }
    }

    pub fn presets(&self) -> &[ConfigPreset] {
        &self.presets
    }

    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Total number of cells in the grid.
    pub fn n_cells(&self) -> usize {
        self.presets.len() * self.sizes.len() * self.n_bench
    }

    pub fn is_empty(&self) -> bool {
        self.n_cells() == 0
    }

    /// The cell at flat position `flat` (row-major).
    ///
    /// # Panics
    /// If `flat >= self.n_cells()`.
    pub fn cell_at(&self, flat: usize) -> SweepCell {
        assert!(flat < self.n_cells(), "cell index {flat} out of grid");
        let bench_idx = flat % self.n_bench;
        let size_idx = (flat / self.n_bench) % self.sizes.len();
        let preset_idx = flat / (self.n_bench * self.sizes.len());
        SweepCell {
            preset: self.presets[preset_idx],
            tech: self.tech,
            l1: self.sizes[size_idx],
            bench_idx,
            exec_seed: self.exec_seed,
        }
    }

    /// The flat position of `cell`, or `None` when the cell does not belong
    /// to this grid (different node, seed, or off-axis coordinates).
    pub fn index_of(&self, cell: &SweepCell) -> Option<usize> {
        if cell.tech != self.tech || cell.exec_seed != self.exec_seed {
            return None;
        }
        if cell.bench_idx >= self.n_bench {
            return None;
        }
        let preset_idx = self.presets.iter().position(|p| *p == cell.preset)?;
        let size_idx = self.sizes.iter().position(|s| *s == cell.l1)?;
        Some((preset_idx * self.sizes.len() + size_idx) * self.n_bench + cell.bench_idx)
    }

    /// Every cell of the grid in flat order — the full work list, or the
    /// thing to slice when sharding across processes.
    pub fn cells(&self) -> Vec<SweepCell> {
        (0..self.n_cells()).map(|i| self.cell_at(i)).collect()
    }

    /// Reassemble unordered cell results into ordered [`GridResult`]s,
    /// indexed `[preset][size]` with per-benchmark entries in workload
    /// order.
    ///
    /// # Panics
    /// If a result does not belong to this grid, a position is duplicated,
    /// or any position is missing — a sharded run that lost a cell should
    /// fail loudly, not ship a partial figure.
    pub fn merge(&self, results: Vec<CellResult>, workloads: &[Workload]) -> Vec<Vec<GridResult>> {
        let names: Vec<&str> = workloads.iter().map(|w| w.profile.name).collect();
        self.merge_named(results, &names)
    }

    /// [`CellGrid::merge`] by benchmark *name* — what a cross-process
    /// collector uses: merging serialized shard results needs the grid
    /// shape and the benchmark labels, not the (expensive, already-paid)
    /// workload builds behind them.
    pub fn merge_named(&self, results: Vec<CellResult>, names: &[&str]) -> Vec<Vec<GridResult>> {
        assert_eq!(
            names.len(),
            self.n_bench,
            "grid built for {} benchmarks, merge given {}",
            self.n_bench,
            names.len()
        );
        let mut slots: Vec<Option<SimStats>> = vec![None; self.n_cells()];
        for r in results {
            let flat = self
                .index_of(&r.cell)
                .unwrap_or_else(|| panic!("cell {:?} does not belong to this grid", r.cell));
            assert!(
                slots[flat].replace(r.stats).is_none(),
                "duplicate result for cell {:?}",
                r.cell
            );
        }
        let flat = slots.into_iter().enumerate().map(|(i, s)| {
            s.unwrap_or_else(|| panic!("missing result for cell {:?}", self.cell_at(i)))
        });
        let mut rows =
            reassemble_rows(flat, self.presets.len() * self.sizes.len(), names).into_iter();
        self.presets
            .iter()
            .map(|_| self.sizes.iter().map(|_| rows.next().expect("sized")).collect())
            .collect()
    }
}

/// Chunk a flat, row-major stream of per-cell stats back into
/// [`GridResult`] rows with per-benchmark entries in workload order — the
/// one reassembly loop shared by [`CellGrid::merge_named`] and
/// [`run_grid`].
fn reassemble_rows(
    flat: impl Iterator<Item = SimStats>,
    n_rows: usize,
    names: &[&str],
) -> Vec<GridResult> {
    let mut flat = flat.fuse();
    (0..n_rows)
        .map(|_| GridResult {
            per_bench: names
                .iter()
                .map(|n| (n.to_string(), flat.next().expect("sized")))
                .collect(),
        })
        .collect()
}

/// The machine's available parallelism (4 when undetectable) — the pool
/// width used when an [`ExperimentSpec`](crate::ExperimentSpec) leaves
/// `threads` unset.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Worker-thread count for the pool: the `PRESTAGE_THREADS` override if
/// set (parsed — loudly — by the [`crate::spec`] env layer), else
/// [`default_threads`].
pub fn pool_threads() -> usize {
    crate::spec::threads_override().unwrap_or_else(default_threads)
}

/// The in-tree work-stealing executor: evaluate `f(0..n)` on `threads`
/// workers pulling indices from one shared atomic cursor, returning results
/// in index order.
///
/// This is the single pool every sweep entry point shares ([`run_cells`],
/// [`run_grid`], [`run_config_over`]): one `thread::scope` spans the whole
/// task list, so cores stay busy across cell boundaries instead of
/// resynchronising per (preset, size) cell.  With `threads <= 1` the tasks
/// run serially on the caller's thread — the reference order the
/// determinism tests compare against.
pub fn pool_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                tx.send((i, f(i))).expect("collector alive");
            });
        }
    });
    drop(tx);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, v) in rx {
        out[i] = Some(v);
    }
    out.into_iter()
        .map(|x| x.expect("every task completed"))
        .collect()
}

/// [`pool_map`] over tasks `0..costs.len()`, started in order of falling
/// estimated cost (ties in index order), so the longest task does not
/// start last while the other workers idle.  Results come back in index
/// order.
pub(crate) fn pool_map_largest_first<T, F>(costs: &[u64], threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
    let mut done: Vec<(usize, T)> = order
        .iter()
        .copied()
        .zip(pool_map(order.len(), threads, |k| f(order[k])))
        .collect();
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, v)| v).collect()
}

/// [`pool_map`] with cooperative cancellation: workers keep pulling
/// indices from the shared cursor until it runs dry *or* `cancel` is
/// observed set, whichever comes first.  Indices that ran come back as
/// `Some` — bit-identical to what a full [`pool_map`] would have produced,
/// because each task is independent — and indices never started are
/// `None`.  With `threads <= 1` the tasks run serially on the caller's
/// thread, checking `cancel` between indices.
pub fn pool_map_cancellable<T, F>(
    n: usize,
    threads: usize,
    cancel: &AtomicBool,
    f: F,
) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, slot) in out.iter_mut().enumerate() {
            if cancel.load(Ordering::Relaxed) {
                break;
            }
            *slot = Some(f(i));
        }
        return out;
    }
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                if cancel.load(Ordering::Relaxed) {
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                tx.send((i, f(i))).expect("collector alive");
            });
        }
    });
    drop(tx);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, v) in rx {
        out[i] = Some(v);
    }
    out
}

/// Evaluate an arbitrary slice of cells — a whole grid, one row, or one
/// shard of a distributed sweep — across `threads` workers.  `configure`
/// maps each cell to its full [`SimConfig`] (run lengths, ablation knobs);
/// use [`SweepCell::config`] when the paper preset defaults suffice.
///
/// Results come back in input-cell order; they are bit-exact for any
/// `threads`, because every cell simulation is independent and
/// deterministic.
pub fn run_cells_with_threads<F>(
    cells: &[SweepCell],
    workloads: &[Workload],
    configure: F,
    threads: usize,
) -> Vec<CellResult>
where
    F: Fn(&SweepCell) -> SimConfig + Sync,
{
    run_cells_full(cells, workloads, configure, threads, PredictorKind::Stream)
}

/// The fully-parameterised cell executor: like [`run_cells_with_threads`]
/// but with an explicit fetch-block predictor — the knob
/// [`ExperimentSpec`](crate::ExperimentSpec) exposes for the
/// predictor-quality comparisons of §2.1.  Streams come from the live
/// generator; [`run_cells_sourced`] is the same executor with the source
/// pluggable (trace replay).
pub fn run_cells_full<F>(
    cells: &[SweepCell],
    workloads: &[Workload],
    configure: F,
    threads: usize,
    predictor: PredictorKind,
) -> Vec<CellResult>
where
    F: Fn(&SweepCell) -> SimConfig + Sync,
{
    run_cells_sourced(cells, workloads, configure, threads, predictor, live_source)
}

/// The default committed-path source: a fresh live [`TraceGenerator`] per
/// cell, seeded by the cell's exec seed.
pub fn live_source<'w>(cell: &SweepCell, w: &'w Workload) -> Box<dyn InstSource + 'w> {
    Box::new(TraceGenerator::new(w, cell.exec_seed))
}

/// The most general cell executor: every cell's engine pulls its committed
/// path from `source(cell, workload)` — the live generator
/// ([`live_source`]) or a per-cell disk replay (`ExperimentSpec`s with a
/// `trace` source route here).  Each worker opens its own source, so
/// replaying cells share a trace *file*, not a materialised `Vec`: memory
/// stays constant in trace length no matter how many cells replay it.
pub fn run_cells_sourced<'w, F, S>(
    cells: &[SweepCell],
    workloads: &'w [Workload],
    configure: F,
    threads: usize,
    predictor: PredictorKind,
    source: S,
) -> Vec<CellResult>
where
    F: Fn(&SweepCell) -> SimConfig + Sync,
    S: Fn(&SweepCell, &'w Workload) -> Box<dyn InstSource + 'w> + Sync,
{
    static RUN_TO_END: AtomicBool = AtomicBool::new(false);
    run_cells_sourced_observed(
        cells,
        workloads,
        configure,
        threads,
        predictor,
        source,
        &|_| {},
        &RUN_TO_END,
    )
}

/// [`run_cells_sourced`] with per-cell progress and cooperative
/// cancellation — the executor behind the `prestage serve` job workers.
/// `observer` is invoked (on whichever worker thread finished the cell)
/// once per completed cell, in completion order; when `cancel` is set,
/// workers stop pulling new cells and the completed subset comes back in
/// input-cell order.  Completed results are bit-identical to a full
/// [`run_cells_sourced`] run of the same cells.
#[allow(clippy::too_many_arguments)]
pub fn run_cells_sourced_observed<'w, F, S>(
    cells: &[SweepCell],
    workloads: &'w [Workload],
    configure: F,
    threads: usize,
    predictor: PredictorKind,
    source: S,
    observer: &(dyn Fn(&CellResult) + Sync),
    cancel: &AtomicBool,
) -> Vec<CellResult>
where
    F: Fn(&SweepCell) -> SimConfig + Sync,
    S: Fn(&SweepCell, &'w Workload) -> Box<dyn InstSource + 'w> + Sync,
{
    for c in cells {
        assert!(
            c.bench_idx < workloads.len(),
            "cell {c:?} indexes outside the {} given workloads",
            workloads.len()
        );
    }
    pool_map_cancellable(cells.len(), threads, cancel, |i| {
        let cell = cells[i];
        let w = &workloads[cell.bench_idx];
        let t0 = std::time::Instant::now();
        let stats =
            Engine::with_source(configure(&cell), w, source(&cell, w), predictor).run();
        let r = CellResult {
            cell,
            stats,
            wall: t0.elapsed(),
        };
        observer(&r);
        r
    })
    .into_iter()
    .flatten()
    .collect()
}

/// [`run_cells_with_threads`] on the default pool width ([`pool_threads`]).
pub fn run_cells<F>(cells: &[SweepCell], workloads: &[Workload], configure: F) -> Vec<CellResult>
where
    F: Fn(&SweepCell) -> SimConfig + Sync,
{
    run_cells_with_threads(cells, workloads, configure, pool_threads())
}

/// Build a workload and run one configuration over it.
pub fn run_one(cfg: SimConfig, profile: &BenchmarkProfile, seed: u64) -> SimStats {
    let w = build(profile, seed);
    Engine::new(cfg, &w, seed).run()
}

/// Run a whole grid of arbitrary configs: the (config × workload) cross
/// product flattened onto one [`pool_map`] pool.  Returns one
/// [`GridResult`] per config, input order.
///
/// Unlike [`run_cells`] this takes opaque `SimConfig`s (ablation variants
/// have no preset identity), but it shares the same executor, so multi-row
/// callers still keep every core busy across row boundaries.
pub fn run_grid(configs: &[SimConfig], workloads: &[Workload], exec_seed: u64) -> Vec<GridResult> {
    let n = configs.len() * workloads.len();
    let flat = pool_map(n, pool_threads(), |i| {
        let (ci, wi) = (i / workloads.len(), i % workloads.len());
        Engine::new(configs[ci], &workloads[wi], exec_seed).run()
    });
    let names: Vec<&str> = workloads.iter().map(|w| w.profile.name).collect();
    reassemble_rows(flat.into_iter(), configs.len(), &names)
}

/// Run one config over pre-built workloads in parallel; order preserved.
pub fn run_config_over(cfg: SimConfig, workloads: &[Workload], exec_seed: u64) -> GridResult {
    run_grid(&[cfg], workloads, exec_seed)
        .pop()
        .expect("one config in, one result out")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConfigPreset, SimConfig};
    use prestage_cacti::TechNode;

    fn tiny_workloads(n: usize) -> Vec<Workload> {
        prestage_workload::specint_mini(n, 5)
    }

    fn test_grid(n_bench: usize) -> CellGrid {
        CellGrid::new(
            vec![ConfigPreset::Base, ConfigPreset::ClgpL0],
            TechNode::T090,
            vec![2 << 10, 4 << 10],
            n_bench,
            3,
        )
    }

    #[test]
    fn parallel_grid_matches_serial() {
        let workloads = tiny_workloads(3);
        let cfg = SimConfig::preset(ConfigPreset::Base, TechNode::T090, 4 << 10)
            .with_insts(5_000, 20_000);
        let par = run_config_over(cfg, &workloads, 3);
        // Serial reference.
        let serial: Vec<f64> = workloads
            .iter()
            .map(|w| Engine::new(cfg, w, 3).run().ipc())
            .collect();
        for ((_, s), ser) in par.per_bench.iter().zip(serial) {
            assert!((s.ipc() - ser).abs() < 1e-12);
        }
        assert!(par.hmean_ipc() > 0.0);
        assert!(par.ipc_of(workloads[0].profile.name).is_some());
        assert!(par.ipc_of("nonesuch").is_none());
    }

    #[test]
    fn run_grid_spans_configs_and_workloads() {
        let workloads = tiny_workloads(2);
        let configs: Vec<SimConfig> = [ConfigPreset::Base, ConfigPreset::BaseL0]
            .iter()
            .map(|&p| SimConfig::preset(p, TechNode::T090, 2 << 10).with_insts(2_000, 8_000))
            .collect();
        let grid = run_grid(&configs, &workloads, 7);
        assert_eq!(grid.len(), 2);
        for (cfg, row) in configs.iter().zip(&grid) {
            assert_eq!(row.per_bench.len(), 2);
            for ((name, s), w) in row.per_bench.iter().zip(&workloads) {
                assert_eq!(name, w.profile.name);
                let serial = Engine::new(*cfg, w, 7).run();
                assert_eq!(s.cycles, serial.cycles);
                assert_eq!(s.committed, serial.committed);
            }
        }
    }

    #[test]
    fn cell_position_roundtrip() {
        let grid = test_grid(3);
        assert_eq!(grid.n_cells(), 2 * 2 * 3);
        for flat in 0..grid.n_cells() {
            let cell = grid.cell_at(flat);
            assert_eq!(grid.index_of(&cell), Some(flat), "{cell:?}");
        }
        let cells = grid.cells();
        assert_eq!(cells.len(), grid.n_cells());
        // Foreign cells resolve to no position.
        let mut foreign = cells[0];
        foreign.tech = TechNode::T045;
        assert_eq!(grid.index_of(&foreign), None);
        let mut foreign = cells[0];
        foreign.exec_seed += 1;
        assert_eq!(grid.index_of(&foreign), None);
        let mut foreign = cells[0];
        foreign.bench_idx = 3;
        assert_eq!(grid.index_of(&foreign), None);
        let mut foreign = cells[0];
        foreign.l1 = 3 << 10;
        assert_eq!(grid.index_of(&foreign), None);
        let mut foreign = cells[0];
        foreign.preset = ConfigPreset::Ideal;
        assert_eq!(grid.index_of(&foreign), None);
    }

    #[test]
    #[should_panic(expected = "duplicate L1 size")]
    fn duplicate_axis_rejected() {
        CellGrid::new(
            vec![ConfigPreset::Base],
            TechNode::T090,
            vec![1024, 1024],
            1,
            0,
        );
    }

    #[test]
    fn merge_reassembles_shuffled_cells() {
        let workloads = tiny_workloads(2);
        let grid = test_grid(2);
        let mut results = run_cells_with_threads(
            &grid.cells(),
            &workloads,
            |c| c.config().with_insts(2_000, 8_000),
            2,
        );
        // Any reordering of the unordered cell results must merge the same.
        results.reverse();
        results.swap(0, 3);
        let merged = grid.merge(results, &workloads);
        assert_eq!(merged.len(), 2);
        for (pi, row) in merged.iter().enumerate() {
            assert_eq!(row.len(), 2);
            for (si, r) in row.iter().enumerate() {
                let cell = grid.cell_at((pi * 2 + si) * 2);
                let serial = Engine::new(
                    cell.config().with_insts(2_000, 8_000),
                    &workloads[0],
                    cell.exec_seed,
                )
                .run();
                assert_eq!(r.per_bench[0].1.cycles, serial.cycles);
                assert_eq!(r.per_bench[0].0, workloads[0].profile.name);
            }
        }
    }

    #[test]
    #[should_panic(expected = "missing result")]
    fn merge_rejects_lost_cells() {
        let workloads = tiny_workloads(1);
        let grid = CellGrid::new(
            vec![ConfigPreset::Base],
            TechNode::T090,
            vec![1 << 10],
            1,
            3,
        );
        grid.merge(Vec::new(), &workloads);
    }

    #[test]
    fn pool_map_orders_results_for_any_width() {
        let square: Vec<usize> = (0..37).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(pool_map(37, threads, |i| i * i), square);
        }
        assert!(pool_map(0, 4, |i| i).is_empty());
    }
}
