//! Properties of the flat cell-addressed `Sweep`: a spec's flat cell list
//! is a bijection onto its grid positions, and cell evaluation is bit-exact
//! under any thread count and any cell order — the invariant that makes the
//! grid shardable across threads and processes.

use fetch_prestaging::prelude::*;
use fetch_prestaging::sim::{CellResult, GridResult};
use prestage_workload::Workload;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn tiny_workloads(n: usize) -> Vec<Workload> {
    prestage_workload::specint_mini(n, 5)
}

/// A spec over exactly the benchmarks of `workloads`, at the T045 node.
fn spec_over(
    workloads: &[Workload],
    presets: Vec<ConfigPreset>,
    l1_sizes: Vec<usize>,
    exec_seed: u64,
    (warmup_insts, measure_insts): (u64, u64),
) -> ExperimentSpec {
    ExperimentSpec {
        presets,
        tech: TechNode::T045,
        l1_sizes,
        bench: Some(
            workloads
                .iter()
                .map(|w| w.profile.name.to_string())
                .collect(),
        ),
        warmup_insts,
        measure_insts,
        exec_seed,
        ..ExperimentSpec::default()
    }
}

/// `cells` of `spec` over the pre-built `workloads` on `threads` workers.
fn sweep(
    spec: &ExperimentSpec,
    cells: &[SweepCell],
    workloads: &[Workload],
    threads: usize,
) -> Vec<CellResult> {
    let spec = ExperimentSpec {
        threads: Some(threads),
        ..spec.clone()
    };
    Sweep {
        workloads: Some(workloads),
        ..Sweep::new(&spec, cells)
    }
    .run()
    .unwrap()
}

/// Put results of any permutation of `cells` back in flat order and
/// assemble the rows of `spec`.
fn merge(
    spec: &ExperimentSpec,
    cells: &[SweepCell],
    mut results: Vec<CellResult>,
) -> Vec<Vec<GridResult>> {
    results.sort_by_key(|r| cells.iter().position(|c| *c == r.cell));
    spec.rows(results).unwrap()
}

fn fisher_yates<T>(items: &mut [T], seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// Bit-exact equality of the stats fields determinism covers (never wall
/// time, which is measurement).
fn assert_stats_eq(a: &CellResult, b: &CellResult, what: &str) {
    assert_eq!(a.cell, b.cell, "{what}: compared different cells");
    assert_eq!(a.stats.cycles, b.stats.cycles, "{what}: {:?}", a.cell);
    assert_eq!(a.stats.committed, b.stats.committed, "{what}: {:?}", a.cell);
    assert_eq!(a.stats.redirects, b.stats.redirects, "{what}: {:?}", a.cell);
    assert_eq!(a.stats.front, b.stats.front, "{what}: {:?}", a.cell);
}

proptest! {
    /// `cells` lists every (preset, size, bench) coordinate exactly once in
    /// row-major order, and `rows` puts result `i` at cell `i`'s row and
    /// column, for arbitrary grid shapes.
    #[test]
    fn cell_position_bijection(
        preset_picks in prop::collection::vec(0usize..10, 1..6),
        size_picks in prop::collection::vec(0usize..9, 1..6),
        n_bench in 1usize..13,
        tech_pick in 0usize..2,
    ) {
        let mut presets: Vec<ConfigPreset> =
            preset_picks.iter().map(|&i| ConfigPreset::all()[i]).collect();
        let mut seen = Vec::new();
        presets.retain(|p| { let new = !seen.contains(p); seen.push(*p); new });
        let mut sizes: Vec<usize> = size_picks.iter().map(|&k| 256 << k).collect();
        let mut seen = Vec::new();
        sizes.retain(|s| { let new = !seen.contains(s); seen.push(*s); new });
        let names: Vec<String> = prestage_workload::specint2000()
            .iter()
            .take(n_bench)
            .map(|p| p.name.to_string())
            .collect();
        let spec = ExperimentSpec {
            presets: presets.clone(),
            tech: [TechNode::T090, TechNode::T045][tech_pick],
            l1_sizes: sizes.clone(),
            bench: Some(names.clone()),
            ..ExperimentSpec::default()
        };

        let cells = spec.cells().unwrap();
        prop_assert_eq!(cells.len(), presets.len() * sizes.len() * n_bench);
        let mut distinct = cells.clone();
        distinct.sort_by_key(|c| (c.preset.id(), c.l1, c.bench_idx));
        distinct.dedup();
        prop_assert_eq!(distinct.len(), cells.len());
        for (flat, cell) in cells.iter().enumerate() {
            let want = SweepCell {
                preset: presets[flat / (sizes.len() * n_bench)],
                l1: sizes[flat / n_bench % sizes.len()],
                bench_idx: flat % n_bench,
            };
            prop_assert_eq!(*cell, want);
        }

        // Tag each result with its flat position; `rows` must put it back
        // where its cell says.
        let results: Vec<CellResult> = cells
            .iter()
            .enumerate()
            .map(|(flat, &cell)| CellResult {
                cell,
                stats: SimStats { cycles: flat as u64, ..SimStats::default() },
                wall: std::time::Duration::ZERO,
            })
            .collect();
        let rows = spec.rows(results.clone()).unwrap();
        prop_assert_eq!(rows.len(), presets.len());
        for (pi, row) in rows.iter().enumerate() {
            prop_assert_eq!(row.len(), sizes.len());
            for (si, r) in row.iter().enumerate() {
                prop_assert_eq!(r.per_bench.len(), n_bench);
                for (bi, (name, s)) in r.per_bench.iter().enumerate() {
                    prop_assert_eq!(name, &names[bi]);
                    prop_assert_eq!(s.cycles as usize, (pi * sizes.len() + si) * n_bench + bi);
                }
            }
        }
        // A result out of place, or a missing one, is refused.
        if results.len() > 1 {
            let mut swapped = results.clone();
            swapped.swap(0, results.len() - 1);
            prop_assert!(spec.rows(swapped).is_err());
        }
        prop_assert!(spec.rows(results[1..].to_vec()).is_err());
    }
}

#[test]
fn sweep_is_invariant_under_thread_count_and_shuffle() {
    let workloads = tiny_workloads(2);
    let spec = spec_over(
        &workloads,
        vec![ConfigPreset::BaseL0, ConfigPreset::ClgpL0],
        vec![1 << 10, 4 << 10],
        7,
        (1_000, 5_000),
    );
    let cells = spec.cells().unwrap();

    // Serial reference: one thread, flat order.
    let reference = sweep(&spec, &cells, &workloads, 1);

    // Every thread count gives bit-exact results in the same order.
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    for threads in [1, 2, avail, avail + 3] {
        let got = sweep(&spec, &cells, &workloads, threads);
        assert_eq!(got.len(), reference.len());
        for (a, b) in got.iter().zip(&reference) {
            assert_stats_eq(a, b, &format!("threads={threads}"));
        }
    }

    // Any shuffle of the work list merges back to the same ordered grid.
    let reference_grid = merge(&spec, &cells, reference);
    for shuffle_seed in [1u64, 2, 3] {
        let mut shuffled = cells.clone();
        fisher_yates(&mut shuffled, shuffle_seed);
        let results = sweep(&spec, &shuffled, &workloads, 2);
        let merged = merge(&spec, &cells, results);
        for (row_a, row_b) in merged.iter().zip(&reference_grid) {
            for (a, b) in row_a.iter().zip(row_b) {
                for ((n1, s1), (n2, s2)) in a.per_bench.iter().zip(&b.per_bench) {
                    assert_eq!(n1, n2, "shuffle seed {shuffle_seed}");
                    assert_eq!(s1.cycles, s2.cycles, "shuffle seed {shuffle_seed}: {n1}");
                    assert_eq!(
                        s1.committed, s2.committed,
                        "shuffle seed {shuffle_seed}: {n1}"
                    );
                }
            }
        }
    }

    // Sharding: splitting the work list and merging the shard unions is the
    // same grid (the ROADMAP's multi-process scheme in miniature).
    let (left, right) = cells.split_at(cells.len() / 2);
    let mut shards = sweep(&spec, left, &workloads, 2);
    shards.extend(sweep(&spec, right, &workloads, 2));
    let merged = merge(&spec, &cells, shards);
    for (row_a, row_b) in merged.iter().zip(&reference_grid) {
        for (a, b) in row_a.iter().zip(row_b) {
            for ((_, s1), (_, s2)) in a.per_bench.iter().zip(&b.per_bench) {
                assert_eq!(s1.cycles, s2.cycles, "sharded merge diverged");
            }
        }
    }
}

#[test]
fn mechanism_axis_is_bit_exact_under_threads_and_sharding() {
    // Per-mechanism determinism: for every `PrefetcherKind` (the spec's
    // `prefetcher` axis — including MANA and the program map), cell
    // evaluation is bit-exact under any thread count, and a sharded run
    // merges to exactly the whole-grid result.
    let workloads = tiny_workloads(2);
    let base = spec_over(
        &workloads,
        vec![ConfigPreset::Base, ConfigPreset::FdpL0],
        vec![1 << 10, 4 << 10],
        7,
        (1_000, 5_000),
    );
    let cells = base.cells().unwrap();
    for kind in PrefetcherKind::all() {
        let spec = ExperimentSpec {
            prefetcher: Some(kind),
            ..base.clone()
        };
        let reference = sweep(&spec, &cells, &workloads, 1);
        for threads in [2, 5] {
            let got = sweep(&spec, &cells, &workloads, threads);
            for (a, b) in got.iter().zip(&reference) {
                assert_stats_eq(a, b, &format!("{kind:?} threads={threads}"));
            }
        }
        // Shard split + merge equals the single-pass grid.
        let (left, right) = cells.split_at(3);
        let mut shards = sweep(&spec, left, &workloads, 2);
        shards.extend(sweep(&spec, right, &workloads, 2));
        let merged = merge(&spec, &cells, shards);
        let whole = merge(&spec, &cells, reference);
        for (row_a, row_b) in merged.iter().zip(&whole) {
            for (a, b) in row_a.iter().zip(row_b) {
                for ((n1, s1), (n2, s2)) in a.per_bench.iter().zip(&b.per_bench) {
                    assert_eq!(n1, n2, "{kind:?}");
                    assert_eq!(s1, s2, "{kind:?}: sharded merge diverged for {n1}");
                }
            }
        }
        // The prefetching mechanisms must actually prefetch on this grid
        // (a silently-inert mechanism would pass every determinism check).
        if kind != PrefetcherKind::None {
            let issued: u64 = whole
                .iter()
                .flatten()
                .flat_map(|r| r.per_bench.iter())
                .map(|(_, s)| s.front.prefetches_issued)
                .sum();
            assert!(issued > 0, "{kind:?} never issued a prefetch");
        }
    }
}

#[test]
fn whole_flattened_grid_matches_serial_engine_runs() {
    // The determinism the figures depend on, for a full multi-row grid —
    // not just one config row: every cell of the parallel flattened sweep
    // equals a fresh serial Engine run of that cell.
    let workloads = tiny_workloads(3);
    let spec = spec_over(
        &workloads,
        vec![ConfigPreset::Base, ConfigPreset::Fdp, ConfigPreset::ClgpL0],
        vec![512, 2 << 10],
        9,
        (1_000, 5_000),
    );
    let results = sweep(&spec, &spec.cells().unwrap(), &workloads, 4);
    for r in &results {
        let cfg = spec.sim_config(r.cell.preset, r.cell.l1);
        let serial = Engine::new(cfg, &workloads[r.cell.bench_idx], spec.exec_seed).run();
        assert_eq!(r.stats.cycles, serial.cycles, "{:?}", r.cell);
        assert_eq!(r.stats.committed, serial.committed, "{:?}", r.cell);
        assert_eq!(r.stats.redirects, serial.redirects, "{:?}", r.cell);
        assert_eq!(r.stats.front, serial.front, "{:?}", r.cell);
    }
}

#[test]
fn whole_grid_wall_clock_smoke() {
    // Smoke check that the flat pool actually runs the grid concurrently:
    // the parallel sweep must never be pathologically slower than serial
    // (which would indicate the pool serialising on a lock). Not a
    // benchmark — the generous bound only catches catastrophe.
    let workloads = tiny_workloads(2);
    let spec = spec_over(
        &workloads,
        vec![ConfigPreset::BasePipelined, ConfigPreset::ClgpL0],
        vec![1 << 10, 4 << 10, 16 << 10],
        3,
        (2_000, 20_000),
    );
    let cells = spec.cells().unwrap();

    let t0 = std::time::Instant::now();
    let serial = sweep(&spec, &cells, &workloads, 1);
    let serial_wall = t0.elapsed();

    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    let t0 = std::time::Instant::now();
    let par = sweep(&spec, &cells, &workloads, avail);
    let par_wall = t0.elapsed();

    eprintln!(
        "whole-grid smoke: {} cells, serial {:.3}s, {} threads {:.3}s ({:.2}x)",
        cells.len(),
        serial_wall.as_secs_f64(),
        avail,
        par_wall.as_secs_f64(),
        serial_wall.as_secs_f64() / par_wall.as_secs_f64().max(1e-9),
    );
    // Absolute ceiling rather than a serial-relative ratio: a ratio flakes
    // on loaded CI runners, while this generous bound still catches the
    // catastrophe class (a pool serialising on a lock or livelocking).
    assert!(
        par_wall.as_secs_f64() < 60.0,
        "parallel mini-grid took {par_wall:?} — pool pathologically slow"
    );
    // And concurrency never costs correctness.
    for (a, b) in par.iter().zip(&serial) {
        assert_eq!(a.stats.cycles, b.stats.cycles, "{:?}", a.cell);
    }
    // Per-cell wall times are recorded for load-balance diagnostics.
    assert!(par.iter().all(|r| r.wall.as_nanos() > 0));
}
