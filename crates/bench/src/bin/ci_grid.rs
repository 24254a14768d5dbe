//! CI perf gate: a 2-preset × 3-size mini-grid through the flat cell pool,
//! persisted as a JSON artifact (`<results dir>/ci_grid.json`) and diffed
//! against the previous run's artifact.
//!
//! Per (preset, size) row it records the HMEAN IPC — deterministic given
//! seeds and run lengths, so any movement at all means simulator behaviour
//! changed — and the median per-cell wall-clock.  If the Criterion shim
//! left a medians file (`<results dir>/bench_medians.tsv`, written when
//! `cargo bench` runs with `CRITERION_MEDIANS_FILE` set), its `engine/*` /
//! `bpred/*` micro-bench medians are folded into the same artifact — and
//! the file is consumed, so stale medians from deleted benchmarks cannot
//! leak into later runs — so one file tracks both grid IPC and hot-path
//! latencies.  Movement beyond the warning bands prints GitHub
//! `::warning::` annotations; wall-clock regressions beyond the
//! spread-derived failure threshold recorded in the baseline print
//! `::error::` and exit nonzero — the warning→failure escalation the
//! per-row spread data was collected for.
//!
//! The experiment itself is an `ExperimentSpec` (honouring the usual
//! `PRESTAGE_*` override layer); a previous artifact can be supplied
//! explicitly via `PRESTAGE_PREV_JSON=<path>`.

use prestage_bench::perf::{diff, load_baseline, parse_medians_tsv, CachePerf, CellPerf, PerfReport};
use prestage_bench::{results_dir, size_label};
use prestage_cacti::TechNode;
use prestage_sim::{
    try_run_spec_cached, CellGrid, ConfigPreset, ExperimentSpec, ITlbConfig, PrefetcherKind, Store,
    Sweep,
};
use std::io::Write;

/// True median: mean of the two middle elements for even counts (the CI
/// benchmark set has 4), not the upward-biased upper-middle pick.
fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Run a one-preset sweep through a fresh cell cache twice: the cold run
/// simulates and stores every cell, the re-run must be answered entirely
/// from the cache.  Returns `None` (and prints why) instead of killing the
/// perf run when anything goes wrong — a broken cache shows up as the
/// `cache` section vanishing from the artifact, which `diff` flags as lost
/// coverage.
fn measure_cache(spec: &ExperimentSpec) -> Option<CachePerf> {
    let cspec = ExperimentSpec {
        presets: vec![ConfigPreset::BaseL0],
        l1_sizes: vec![1 << 10],
        ..spec.clone()
    };
    let dir = std::env::temp_dir().join(format!("prestage-ci-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let timed = || -> Result<(f64, prestage_sim::CacheCounts), String> {
        let store = Store::open(&dir)?;
        let t0 = std::time::Instant::now();
        let (_, counts) = try_run_spec_cached(&cspec, &store)?;
        Ok((t0.elapsed().as_secs_f64(), counts))
    };
    let measured = timed().and_then(|(cold_s, _)| {
        let (hit_s, counts) = timed()?;
        if counts.cached != counts.cells {
            return Err(format!("the re-run was not a full cache hit: {counts}"));
        }
        Ok(CachePerf { cold_s, hit_s })
    });
    let _ = std::fs::remove_dir_all(&dir);
    measured
        .map_err(|e| eprintln!("ci_grid: cache measurement skipped: {e}"))
        .ok()
}

fn main() {
    let spec = ExperimentSpec {
        presets: vec![ConfigPreset::BaseL0, ConfigPreset::ClgpL0],
        tech: TechNode::T045,
        l1_sizes: vec![1 << 10, 4 << 10, 16 << 10],
        ..ExperimentSpec::from_env()
    };
    let grid = CellGrid::from_spec(&spec).unwrap_or_else(|e| {
        eprintln!("ci_grid: invalid spec: {e}");
        std::process::exit(2);
    });

    // Read the Criterion shim's micro-bench medians *before* the grid run:
    // a damaged file must fail in milliseconds, not after minutes of
    // simulation.  The file is consumed (deleted after the artifact is
    // written), so a benchmark removed from the bench suite cannot leak a
    // stale median into later runs — re-run `cargo bench` with
    // CRITERION_MEDIANS_FILE to regenerate it.
    let medians_path = results_dir().join("bench_medians.tsv");
    let medians_text = std::fs::read_to_string(&medians_path).ok();
    let benches = match &medians_text {
        Some(text) => match parse_medians_tsv(text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("ci_grid: damaged medians file {}: {e}", medians_path.display());
                std::process::exit(2);
            }
        },
        None => {
            eprintln!(
                "no micro-bench medians at {} — grid rows only",
                medians_path.display()
            );
            Vec::new()
        }
    };

    let t0 = std::time::Instant::now();
    let results = Sweep::new(&spec, &grid.cells())
        .run()
        .expect("validated above");

    // Per-row medians (plus min/max — the noise-characterization data the
    // ROADMAP's warning→failure escalation needs), grouped by the cells'
    // own identity rather than any assumption about result order.
    let cell_walls: Vec<(prestage_sim::SweepCell, f64)> = results
        .iter()
        .map(|r| (r.cell, r.wall.as_secs_f64()))
        .collect();
    let names = spec.bench_names().expect("validated above");
    let merged = grid.merge_named(results, &names);
    let mut cells = Vec::new();
    for (pi, &preset) in spec.presets.iter().enumerate() {
        for (si, &l1) in spec.l1_sizes.iter().enumerate() {
            let mut walls: Vec<f64> = cell_walls
                .iter()
                .filter(|(c, _)| c.preset == preset && c.l1 == l1)
                .map(|(_, s)| *s)
                .collect();
            walls.sort_by(|a, b| a.total_cmp(b));
            cells.push(CellPerf {
                preset: preset.label().to_string(),
                l1,
                hmean_ipc: merged[pi][si].hmean_ipc(),
                median_cell_wall_s: median(&walls),
                min_cell_wall_s: walls[0],
                max_cell_wall_s: walls[walls.len() - 1],
            });
        }
    }

    // Mechanism rows: the pluggable prefetcher kinds (spec `prefetcher`
    // ids) ride the same artifact, so their HMEAN IPC and cell wall-clock
    // flow into the run-over-run diff like any preset row.
    let mut total_cells = grid.n_cells();
    let mech_l1 = 4 << 10;
    for kind in [PrefetcherKind::Mana, PrefetcherKind::ProgMap] {
        let mspec = ExperimentSpec {
            presets: vec![ConfigPreset::Fdp],
            l1_sizes: vec![mech_l1],
            prefetcher: Some(kind),
            ..spec.clone()
        };
        let mgrid = CellGrid::from_spec(&mspec).unwrap_or_else(|e| {
            eprintln!("ci_grid: invalid {} spec: {e}", kind.id());
            std::process::exit(2);
        });
        total_cells += mgrid.n_cells();
        let mresults = Sweep::new(&mspec, &mgrid.cells())
            .run()
            .expect("validated above");
        let mut walls: Vec<f64> = mresults.iter().map(|r| r.wall.as_secs_f64()).collect();
        walls.sort_by(|a, b| a.total_cmp(b));
        let mmerged = mgrid.merge_named(mresults, &names);
        cells.push(CellPerf {
            preset: kind.id().to_string(),
            l1: mech_l1,
            hmean_ipc: mmerged[0][0].hmean_ipc(),
            median_cell_wall_s: median(&walls),
            min_cell_wall_s: walls[0],
            max_cell_wall_s: walls[walls.len() - 1],
        });
    }
    // TLB-on row (artifact schema 6): the CLGP+L0 preset re-simulated with
    // the default i-TLB threaded through the fetch path, so the perf gate
    // watches both the translated cycle path's wall-clock (tlb probes are
    // hot-path work) and its IPC (translation stalls are timing behaviour).
    {
        let tspec = ExperimentSpec {
            presets: vec![ConfigPreset::ClgpL0],
            l1_sizes: vec![mech_l1],
            itlb: Some(ITlbConfig::default_config()),
            ..spec.clone()
        };
        let tgrid = CellGrid::from_spec(&tspec).unwrap_or_else(|e| {
            eprintln!("ci_grid: invalid TLB-on spec: {e}");
            std::process::exit(2);
        });
        total_cells += tgrid.n_cells();
        let tresults = Sweep::new(&tspec, &tgrid.cells())
            .run()
            .expect("validated above");
        let mut walls: Vec<f64> = tresults.iter().map(|r| r.wall.as_secs_f64()).collect();
        walls.sort_by(|a, b| a.total_cmp(b));
        let tmerged = tgrid.merge_named(tresults, &names);
        cells.push(CellPerf {
            preset: format!("{}+itlb", ConfigPreset::ClgpL0.id()),
            l1: mech_l1,
            hmean_ipc: tmerged[0][0].hmean_ipc(),
            median_cell_wall_s: median(&walls),
            min_cell_wall_s: walls[0],
            max_cell_wall_s: walls[walls.len() - 1],
        });
    }
    // Cell-cache latency on the same workload scale: a one-preset sweep
    // into a fresh cache, then the identical re-run as a pure cache hit.
    let cache = measure_cache(&spec);
    let total_wall_s = t0.elapsed().as_secs_f64();

    let fail_threshold = PerfReport::derived_fail_threshold(&cells);
    let report = PerfReport {
        total_wall_s,
        cells,
        benches,
        cache,
        fail_threshold,
    };

    println!("# CI mini-grid ({total_cells} cells incl. mechanism rows, {total_wall_s:.2}s)");
    for c in &report.cells {
        println!(
            "{:<12} {:>6}  hmean_ipc {:.4}  cell wall {:.4}s [{:.4}..{:.4}, spread {:.0}%]",
            c.preset,
            size_label(c.l1),
            c.hmean_ipc,
            c.median_cell_wall_s,
            c.min_cell_wall_s,
            c.max_cell_wall_s,
            100.0 * c.wall_spread(),
        );
    }
    for b in &report.benches {
        let tp = match b.melem_s() {
            Some(t) => format!(" ({t:.2} Melem/s)"),
            None => String::new(),
        };
        println!("{:<30} median {:.1} ns/iter{tp}", b.name, b.median_ns);
    }
    if let Some(c) = &report.cache {
        println!("cache: cold run {:.4}s, full hit {:.4}s", c.cold_s, c.hit_s);
    }
    println!(
        "spread-derived wall-clock failure threshold: {:.0}%",
        100.0 * report.fail_threshold
    );

    let path = results_dir().join("ci_grid.json");
    let prev_path = std::env::var_os("PRESTAGE_PREV_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| path.clone());
    // A readable current-schema baseline is diffed; an unreadable one is
    // *named* — never a silent skip that reads as "no movement".
    let mut failed = false;
    match std::fs::read_to_string(&prev_path) {
        Err(_) => println!("\nno previous artifact at {} — baseline run", prev_path.display()),
        Ok(text) => match load_baseline(&text) {
            Err(why) => {
                println!("\n::warning::ci_grid: {why}; treating this as a baseline run");
            }
            Ok(prev) => {
                println!("\n# vs previous run ({})", prev_path.display());
                let (deltas, warnings, failures) = diff(&prev, &report);
                for d in &deltas {
                    println!("{d}");
                }
                for warn in &warnings {
                    // GitHub annotation; plain prefix everywhere else.
                    println!("::warning::ci_grid: {warn}");
                }
                for fail in &failures {
                    println!("::error::ci_grid: {fail}");
                }
                if warnings.is_empty() && failures.is_empty() {
                    println!("no movement beyond the warning bands");
                }
                failed = !failures.is_empty();
            }
        },
    }

    std::fs::create_dir_all(results_dir()).expect("results dir creatable");
    let mut f = std::fs::File::create(&path).expect("artifact writable");
    f.write_all(report.to_json().as_bytes()).expect("artifact written");
    // Consume the medians file now that it is folded into the artifact
    // (see the comment at the read site) — whatever it contained, so even
    // a degenerate file cannot linger.
    if medians_text.is_some() {
        let _ = std::fs::remove_file(&medians_path);
    }
    println!("\nwrote {}", path.display());
    if failed {
        // The artifact is written first: the failing run's numbers are
        // preserved for the next comparison and for the investigation.
        std::process::exit(1);
    }
}
