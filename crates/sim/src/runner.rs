//! Parallel sweep execution: one flat work-stealing pool over sweep cells.
//!
//! The paper's figures are (preset × L1-size × benchmark) IPC sweeps.  The
//! first runner parallelised only the innermost axis: each (preset, size)
//! cell spawned and tore down its own thread pool, so every core idled at
//! every cell boundary.  This module instead flattens the whole grid into
//! [`SweepCell`]s — (preset, L1 size, benchmark) coordinates in the spec's
//! grid — and [`Sweep::run`] evaluates an arbitrary slice of them on one
//! long-lived work-stealing pool ([`pool_map`]'s atomic work cursor; the
//! offline build has no rayon).
//!
//! Every cell is an independent deterministic simulation, so results are
//! bit-exact regardless of thread count or cell order — and the flat order
//! of [`ExperimentSpec::cells`] doubles as the unit of distribution for
//! multi-process sharding: a shard is a contiguous slice of it, and
//! [`ExperimentSpec::rows`] reassembles results given in that order.

use crate::config::{ConfigPreset, SimConfig};
use crate::engine::Engine;
use crate::spec::ExperimentSpec;
use crate::stats::{harmonic_mean, SimStats};
use prestage_workload::{replay_file, InstSource, TraceGenerator, Workload};
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

/// One simulation's coordinate in a spec's grid: which paper
/// configuration, with which L1 capacity, over which benchmark.  The node,
/// run lengths and seeds are the spec's.
///
/// A cell is the atom of sweep execution *and* of distribution: it is
/// `Copy`, hashable, and independent of every other cell, so any subset can
/// run on any worker (thread today, process or host later) and the results
/// merge by flat grid position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SweepCell {
    pub preset: ConfigPreset,
    pub l1: usize,
    /// Index into the spec's benchmark list.
    pub bench_idx: usize,
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
/// # use prestage_sim::{ConfigPreset, ExperimentSpec, Sweep};
/// let spec = ExperimentSpec {
///     presets: vec![ConfigPreset::Base],
///     l1_sizes: vec![4 << 10],
///     bench: Some(vec!["gzip".into()]),
///     warmup_insts: 500,
///     measure_insts: 2_000,
///     ..ExperimentSpec::default()
/// };
/// let cells = spec.cells()?;
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
    /// [`ExperimentSpec::sim_config`].  Only the CLGP ablation (the
    /// `ablate` binary) sets it: its three ablation flags have no spec
    /// field.
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

    /// Validate the spec, set up its workloads and verify the replay traces
    /// the cells use, then evaluate every cell on a pool of the spec's
    /// width.  Results come back in input-cell order and are bit-exact for
    /// any width, because every cell simulation is independent and
    /// deterministic.
    ///
    /// Each cell's committed path comes from the spec's source: a live
    /// generator seeded by the spec's exec seed, or the cell's own stream
    /// of the benchmark's verified trace file at constant memory,
    /// CRC-checked chunk by chunk as it is consumed.
    ///
    /// # Panics
    /// If a cell indexes outside the spec's benchmarks on the live path.
    pub fn run(&self) -> Result<Vec<CellResult>, String> {
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
        let set_up = spec.set_up(cells, workloads.is_none())?;
        let workloads = workloads.unwrap_or(&set_up.workloads);
        let traces = set_up.traces.as_deref();
        if let Some(sources) = traces {
            // Named rejection *before* the pool starts: every cell must
            // have a verified trace, so no worker can hit a missing slot
            // mid-sweep.
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
                None => Box::new(TraceGenerator::new(w, spec.exec_seed)),
                Some(sources) => match &sources[cell.bench_idx] {
                    // Set-up verified the file; this stream re-checks each
                    // chunk CRC as the cell consumes it.
                    Some(path) => Box::new(
                        replay_file(path)
                            .unwrap_or_else(|e| panic!("cannot replay {}: {e}", path.display())),
                    ),
                    None => unreachable!(
                        "bench index {} was pre-checked against the replay \
                         sources before the pool started",
                        cell.bench_idx
                    ),
                },
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
    use crate::spec::{ExperimentSpec, ShardFile};
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
        let results = Sweep {
            workloads: Some(workloads),
            configure,
            ..Sweep::new(spec, &spec.cells().unwrap())
        }
        .run()
        .unwrap();
        spec.rows(results).unwrap()
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
        // Flat order is row-major: preset, then size, then benchmark.
        let workloads = tiny_workloads(3);
        let spec = spec_over(
            &workloads,
            vec![ConfigPreset::Base, ConfigPreset::ClgpL0],
            vec![2 << 10, 4 << 10],
        );
        let cells = spec.cells().unwrap();
        assert_eq!(cells.len(), 2 * 2 * 3);
        for (flat, cell) in cells.iter().enumerate() {
            let want = SweepCell {
                preset: spec.presets[flat / 6],
                l1: spec.l1_sizes[flat / 3 % 2],
                bench_idx: flat % 3,
            };
            assert_eq!(*cell, want, "flat position {flat}");
        }
    }

    #[test]
    fn merge_reassembles_shuffled_cells() {
        // One single-cell shard per cell, handed to the merge in a
        // shuffled order, reassembles the rows of the whole run.
        let workloads = tiny_workloads(2);
        let spec = spec_over(
            &workloads,
            vec![ConfigPreset::Base, ConfigPreset::ClgpL0],
            vec![2 << 10, 4 << 10],
        );
        let cells = spec.cells().unwrap();
        let results = Sweep {
            workloads: Some(&workloads),
            ..Sweep::new(&spec, &cells)
        }
        .run()
        .unwrap();
        let mut shards: Vec<(String, ShardFile)> = results
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let shard = ShardFile {
                    spec: spec.clone(),
                    start: i,
                    end: i + 1,
                    results: vec![r.clone()],
                };
                (format!("cell-{i}.json"), shard)
            })
            .collect();
        shards.reverse();
        shards.swap(0, 3);
        let merged = ShardFile::merge(&shards).unwrap();
        let whole = spec.rows(results).unwrap();
        assert_eq!(merged.len(), 2);
        for (pi, row) in merged.iter().enumerate() {
            assert_eq!(row.len(), 2);
            for (si, r) in row.iter().enumerate() {
                assert_eq!(r.per_bench, whole[pi][si].per_bench);
                let serial = Engine::new(
                    spec.sim_config(spec.presets[pi], spec.l1_sizes[si]),
                    &workloads[0],
                    spec.exec_seed,
                )
                .run();
                assert_eq!(r.per_bench[0].1.cycles, serial.cycles);
                assert_eq!(r.per_bench[0].0, workloads[0].profile.name);
            }
        }
    }

    #[test]
    fn rows_refuse_lost_duplicated_or_misplaced_cells() {
        let workloads = tiny_workloads(2);
        let spec = spec_over(&workloads, vec![ConfigPreset::Base], vec![1 << 10]);
        let cells = spec.cells().unwrap();
        let result = |cell| CellResult {
            cell,
            stats: SimStats::default(),
            wall: Duration::ZERO,
        };
        let e = spec.rows(vec![result(cells[0])]).unwrap_err();
        assert!(e.contains("2 cells") && e.contains("1 result"), "{e}");
        let e = spec
            .rows(vec![result(cells[0]), result(cells[0])])
            .unwrap_err();
        assert!(
            e.contains("result 1 is") && e.contains("cell 1 of the grid"),
            "{e}"
        );
        let e = spec
            .rows(vec![result(cells[1]), result(cells[0])])
            .unwrap_err();
        assert!(
            e.contains("result 0 is") && e.contains("cell 0 of the grid"),
            "{e}"
        );
        assert!(spec
            .rows(cells.iter().map(|&c| result(c)).collect())
            .is_ok());
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
