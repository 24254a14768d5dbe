//! Parallel sweep execution: one flat work-stealing pool over sweep cells.
//!
//! The paper's figures are (preset × L1-size × benchmark) IPC sweeps.  The
//! first runner parallelised only the innermost axis: each (preset, size)
//! cell spawned and tore down its own thread pool, so every core idled at
//! every cell boundary.  This module instead flattens the whole grid into
//! [`SweepCell`]s — flat deterministic cell identifiers — and
//! [`Sweep::run`] evaluates an arbitrary slice of them on one long-lived
//! work-stealing pool ([`pool_map`]'s atomic work cursor; the offline
//! build has no rayon).  [`CellGrid`] maps cells to flat grid positions
//! and [`CellGrid::merge_named`] reassembles ordered [`GridResult`]s per
//! (preset, size) row from the unordered cell results.
//!
//! Every cell is an independent deterministic simulation, so results are
//! bit-exact regardless of thread count or cell order — and the flat
//! addressing doubles as the unit of distribution for multi-process
//! sharding: a shard is just a sub-slice of [`CellGrid::cells`], and
//! `merge_named` accepts any union of shard outputs.

use crate::config::{ConfigPreset, SimConfig};
use crate::engine::Engine;
use crate::spec::{ExperimentSpec, ReplaySource, TRACE_INMEM_BUDGET_BYTES};
use crate::stats::{harmonic_mean, SimStats};
use prestage_cacti::TechNode;
use prestage_workload::{replay_file, InstSource, SharedReplayer, TraceGenerator, Workload};
use std::sync::atomic::{AtomicUsize, Ordering};
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
    /// indexed `[preset][size]` with per-benchmark entries labelled by
    /// `names` in workload order.  Merging needs only the grid shape and
    /// the benchmark labels, so a cross-process collector merges
    /// serialized shard results without rebuilding any workload.
    ///
    /// # Panics
    /// If a result does not belong to this grid, a position is duplicated,
    /// or any position is missing — a sharded run that lost a cell should
    /// fail loudly, not ship a partial figure.
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
        let mut flat = slots.into_iter().enumerate().map(|(i, s)| {
            s.unwrap_or_else(|| panic!("missing result for cell {:?}", self.cell_at(i)))
        });
        self.presets
            .iter()
            .map(|_| {
                self.sizes
                    .iter()
                    .map(|_| GridResult {
                        per_bench: names
                            .iter()
                            .map(|n| (n.to_string(), flat.next().expect("sized")))
                            .collect(),
                    })
                    .collect()
            })
            .collect()
    }
}

/// One sweep: an arbitrary slice of a spec's cells (a whole grid, one
/// row, or one shard of a distributed sweep) evaluated on the
/// work-stealing pool.  This value and its [`run`](Sweep::run) method are
/// the whole run surface; [`try_run_spec`](crate::try_run_spec) is the
/// whole-grid shorthand.
///
/// The spec supplies everything that is experiment or host setting: run
/// lengths, seeds, pool width (`threads`), fetch-block predictor and
/// committed-path source (`trace`).  The optional fields default to
/// `None` through [`Sweep::new`]; override them with struct-update syntax:
///
/// ```
/// # use prestage_sim::{CellGrid, ConfigPreset, ExperimentSpec, Sweep};
/// let spec = ExperimentSpec {
///     presets: vec![ConfigPreset::Base],
///     l1_sizes: vec![4 << 10],
///     bench: Some(vec!["gzip".into()]),
///     warmup_insts: 500,
///     measure_insts: 2_000,
///     ..ExperimentSpec::default()
/// };
/// let cells = CellGrid::from_spec(&spec)?.cells();
/// let workloads = spec.build_workloads()?;
/// let results = Sweep {
///     workloads: Some(&workloads),
///     ..Sweep::new(&spec, &cells)
/// }
/// .run()?;
/// assert_eq!(results.len(), cells.len());
/// # Ok::<(), String>(())
/// ```
pub struct Sweep<'a> {
    /// The experiment the cells belong to.
    pub spec: &'a ExperimentSpec,
    /// The cells to evaluate; results come back in this order.
    pub cells: &'a [SweepCell],
    /// Pre-built workloads in spec bench order, for callers running
    /// several sweeps over one bench set (rebuilding the synthetic
    /// programs per sweep would dominate).  Checked by name against the
    /// spec's bench set.  `None` builds them during set-up.
    pub workloads: Option<&'a [Workload]>,
    /// Maps each cell to its full [`SimConfig`]; `None` uses
    /// [`ExperimentSpec::sim_config`].  Only configurations with no preset
    /// identity (ablation flags, hand-built ladders) need it.
    pub configure: Option<&'a (dyn Fn(&SweepCell) -> SimConfig + Sync)>,
    /// Called once per finished cell, on whichever worker finished it, in
    /// completion order (a progress counter).
    pub observer: Option<&'a (dyn Fn(&CellResult) + Sync)>,
}

impl<'a> Sweep<'a> {
    /// A sweep of `cells` under `spec` with every optional field `None`.
    pub fn new(spec: &'a ExperimentSpec, cells: &'a [SweepCell]) -> Sweep<'a> {
        Sweep {
            spec,
            cells,
            workloads: None,
            configure: None,
            observer: None,
        }
    }

    /// Validate the spec, set up its workloads and the replay traces the
    /// cells use (see [`TRACE_INMEM_BUDGET_BYTES`]), then evaluate every
    /// cell on a pool of the spec's width.  Results come back in
    /// input-cell order and are bit-exact for any width, because every
    /// cell simulation is independent and deterministic.
    ///
    /// Each cell's committed path comes from the spec's source: a live
    /// generator seeded by the cell's exec seed, or a replay of the
    /// benchmark's vetted trace — the shared in-memory decode when several
    /// cells replay it, otherwise the cell's own stream of the file at
    /// constant memory, CRC-checked chunk by chunk as it is consumed.
    ///
    /// # Panics
    /// If a cell indexes outside the spec's benchmarks on the live path,
    /// or asks a replaying spec for a foreign exec seed (the traces embody
    /// the spec's).
    pub fn run(&self) -> Result<Vec<CellResult>, String> {
        self.run_within(TRACE_INMEM_BUDGET_BYTES)
    }

    /// [`run`](Self::run) under an explicit in-memory trace budget.
    pub(crate) fn run_within(&self, budget: u64) -> Result<Vec<CellResult>, String> {
        let Sweep {
            spec,
            cells,
            workloads,
            configure,
            observer,
        } = *self;
        spec.validate()?;
        if let Some(given) = workloads {
            let names = spec.bench_names()?;
            if given.len() != names.len()
                || given.iter().zip(&names).any(|(w, n)| w.profile.name != *n)
            {
                return Err(format!(
                    "given workloads [{}] do not match the spec's bench set [{}]",
                    given
                        .iter()
                        .map(|w| w.profile.name)
                        .collect::<Vec<_>>()
                        .join(", "),
                    names.join(", ")
                ));
            }
        }
        let set_up = spec.set_up_within(cells, workloads.is_none(), budget)?;
        let workloads = workloads.unwrap_or(&set_up.workloads);
        let traces = set_up.traces.as_deref();
        if let Some(sources) = traces {
            // Named rejection *before* the pool starts: every cell must
            // have a loaded replay source, so no worker can hit a missing
            // slot mid-sweep.
            for c in cells {
                if !matches!(sources.get(c.bench_idx), Some(Some(_))) {
                    return Err(format!(
                        "cell (preset {:?}, bench index {}) has no loaded replay \
                         source — the spec's traces do not cover every bench the \
                         cells reference",
                        c.preset, c.bench_idx
                    ));
                }
            }
        }
        for c in cells {
            assert!(
                c.bench_idx < workloads.len(),
                "cell {c:?} indexes outside the {} given workloads",
                workloads.len()
            );
        }
        Ok(pool_map(cells.len(), spec.resolved_threads(), |i| {
            let cell = cells[i];
            let w = &workloads[cell.bench_idx];
            let t0 = std::time::Instant::now();
            let cfg = match configure {
                Some(f) => f(&cell),
                None => spec.sim_config(cell.preset, cell.l1),
            };
            let source: Box<dyn InstSource + '_> = match traces {
                None => Box::new(TraceGenerator::new(w, cell.exec_seed)),
                Some(sources) => {
                    // The recorded traces embody one execution seed; a
                    // foreign-seed cell would silently replay the wrong
                    // dynamic path (live generation honours it).
                    assert_eq!(
                        cell.exec_seed, spec.exec_seed,
                        "cell {cell:?} wants exec seed {}, but the spec's traces were \
                         recorded at {} — replay cannot serve foreign-seed cells",
                        cell.exec_seed, spec.exec_seed
                    );
                    match &sources[cell.bench_idx] {
                        Some(ReplaySource::InMemory(records, path)) => Box::new(
                            SharedReplayer::new(records.clone(), path.display().to_string()),
                        ),
                        // Set-up verified the file; this stream re-checks
                        // each chunk CRC as the cell consumes it.
                        Some(ReplaySource::Streamed(path)) => {
                            Box::new(replay_file(path).unwrap_or_else(|e| {
                                panic!("cannot replay {}: {e}", path.display())
                            }))
                        }
                        None => unreachable!(
                            "bench index {} was pre-checked against the replay \
                             sources before the pool started",
                            cell.bench_idx
                        ),
                    }
                }
            };
            let stats = Engine::with_source(cfg, w, source, spec.predictor).run();
            let r = CellResult {
                cell,
                stats,
                wall: t0.elapsed(),
            };
            if let Some(observe) = observer {
                observe(&r);
            }
            r
        }))
    }
}

/// The machine's available parallelism (4 when undetectable) — the pool
/// width used when an [`ExperimentSpec`] leaves
/// `threads` unset.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// The in-tree work-stealing executor: evaluate `f(0..n)` on `threads`
/// workers pulling indices from one shared atomic cursor, returning results
/// in index order.
///
/// This is the single pool behind [`Sweep::run`], the sweep set-up and
/// `prestage trace record`: one `thread::scope` spans the whole task
/// list, so cores stay busy across cell boundaries instead of
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConfigPreset, SimConfig};
    use crate::engine::Engine;
    use crate::spec::ExperimentSpec;
    use prestage_cacti::TechNode;

    fn tiny_workloads(n: usize) -> Vec<Workload> {
        prestage_workload::specint_mini(n, 5)
    }

    /// A spec whose bench set is exactly `workloads`.
    fn spec_over(
        workloads: &[Workload],
        presets: Vec<ConfigPreset>,
        l1_sizes: Vec<usize>,
    ) -> ExperimentSpec {
        ExperimentSpec {
            presets,
            tech: TechNode::T090,
            l1_sizes,
            bench: Some(
                workloads
                    .iter()
                    .map(|w| w.profile.name.to_string())
                    .collect(),
            ),
            warmup_insts: 2_000,
            measure_insts: 8_000,
            exec_seed: 3,
            threads: Some(2),
            ..ExperimentSpec::default()
        }
    }

    /// The grid rows of `spec` over pre-built `workloads`.
    fn rows_over(
        spec: &ExperimentSpec,
        workloads: &[Workload],
        configure: Option<&(dyn Fn(&SweepCell) -> SimConfig + Sync)>,
    ) -> Vec<Vec<GridResult>> {
        let grid = CellGrid::from_spec(spec).unwrap();
        let results = Sweep {
            workloads: Some(workloads),
            configure,
            ..Sweep::new(spec, &grid.cells())
        }
        .run()
        .unwrap();
        grid.merge_named(results, &spec.bench_names().unwrap())
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
        let spec = ExperimentSpec {
            warmup_insts: 5_000,
            measure_insts: 20_000,
            ..spec_over(&workloads, vec![ConfigPreset::Base], vec![4 << 10])
        };
        let par = rows_over(&spec, &workloads, None).remove(0).remove(0);
        let cfg = spec.sim_config(ConfigPreset::Base, 4 << 10);
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
    fn configured_sweeps_span_configs_and_workloads() {
        // Opaque configurations (no preset identity) ride `configure`,
        // one sweep per configuration over the spec's one-row grid.
        let workloads = tiny_workloads(2);
        let spec = spec_over(&workloads, vec![ConfigPreset::Base], vec![2 << 10]);
        let configs: Vec<SimConfig> = [ConfigPreset::Base, ConfigPreset::BaseL0]
            .iter()
            .map(|&p| SimConfig::preset(p, TechNode::T090, 2 << 10).with_insts(2_000, 8_000))
            .collect();
        for cfg in &configs {
            let rows = rows_over(&spec, &workloads, Some(&|_: &SweepCell| *cfg));
            let row = &rows[0][0];
            assert_eq!(row.per_bench.len(), 2);
            for ((name, s), w) in row.per_bench.iter().zip(&workloads) {
                assert_eq!(name, w.profile.name);
                let serial = Engine::new(*cfg, w, 3).run();
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
        let spec = spec_over(
            &workloads,
            vec![ConfigPreset::Base, ConfigPreset::ClgpL0],
            vec![2 << 10, 4 << 10],
        );
        let grid = CellGrid::from_spec(&spec).unwrap();
        let mut results = Sweep {
            workloads: Some(&workloads),
            ..Sweep::new(&spec, &grid.cells())
        }
        .run()
        .unwrap();
        // Any reordering of the unordered cell results must merge the same.
        results.reverse();
        results.swap(0, 3);
        let names: Vec<&str> = workloads.iter().map(|w| w.profile.name).collect();
        let merged = grid.merge_named(results, &names);
        assert_eq!(merged.len(), 2);
        for (pi, row) in merged.iter().enumerate() {
            assert_eq!(row.len(), 2);
            for (si, r) in row.iter().enumerate() {
                let cell = grid.cell_at((pi * 2 + si) * 2);
                let serial = Engine::new(
                    spec.sim_config(cell.preset, cell.l1),
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
        let grid = CellGrid::new(
            vec![ConfigPreset::Base],
            TechNode::T090,
            vec![1 << 10],
            1,
            3,
        );
        grid.merge_named(Vec::new(), &["gzip"]);
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
