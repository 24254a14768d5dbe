//! Ablation study of CLGP's design choices (paper §3.2; README "Prefetcher
//! mechanisms"): which of the mechanism's three departures from FDP buys
//! what.
//!
//! * `free-on-use`  — replace the consumers-counter lifetime with FDP's
//!   free-on-use + LRU replacement.
//! * `migrate`      — copy used prestage lines into the L0/L1 (reintroduce
//!   the duplication CLGP avoids).
//! * `filter`       — skip prestaging L1-resident lines (give up the
//!   hit-latency avoidance, FDP-style).
//!
//! The ablation flags have no spec field, so this binary derives its
//! workloads, run lengths and seeds from an `ExperimentSpec`, mutates the
//! spec-built base config per variant, and runs one `Sweep` per variant
//! with that config through `Sweep::configure`.  Every other study is a
//! declared spec list run by `prestage run <study>`.

use prestage_bench::{note_result, outln, results_dir};
use prestage_sim::{ConfigPreset, ExperimentSpec, Sweep};
use std::io::Write;

fn main() {
    let l1 = 4 << 10;
    let spec = ExperimentSpec {
        presets: vec![ConfigPreset::ClgpL0],
        l1_sizes: vec![l1],
        ..ExperimentSpec::default()
    }
    .env_overrides()
    .unwrap_or_else(|e| {
        eprintln!("ablate: {e}");
        std::process::exit(2)
    });
    let w = spec
        .build_workloads()
        .unwrap_or_else(|e| panic!("invalid experiment spec: {e}"));
    let base_cfg = spec.sim_config(ConfigPreset::ClgpL0, l1);

    // Each variant's (free-on-use, migrate, filter) ablation flags.
    let variants = [
        ("CLGP (full)", [false, false, false]),
        ("  - consumers counter (free-on-use)", [true, false, false]),
        ("  + migration (duplicate into L0/L1)", [false, true, false]),
        ("  + L1 filtering (keep L1 hits slow)", [false, false, true]),
        ("all three (FDP-like management)", [true, true, true]),
    ];

    outln!("\n# Ablation — CLGP design choices (4KB L1, 0.045um)");
    outln!(
        "{:<40} {:>8} {:>9} {:>9}",
        "variant",
        "HMEAN",
        "PB share",
        "vs full"
    );
    std::fs::create_dir_all(results_dir()).unwrap();
    let mut csv = std::fs::File::create(results_dir().join("ablate.csv")).unwrap();
    writeln!(csv, "variant,hmean_ipc,pb_share").unwrap();
    let cells = spec
        .cells()
        .unwrap_or_else(|e| panic!("invalid experiment spec: {e}"));
    let mut full = None;
    for (name, [free_on_use, migrate, filter]) in variants {
        let mut cfg = base_cfg;
        cfg.frontend.ablate_free_on_use = free_on_use;
        cfg.frontend.ablate_migrate = migrate;
        cfg.frontend.ablate_filter = filter;
        let rows = Sweep {
            workloads: Some(&w),
            configure: Some(&|_| cfg),
            ..Sweep::new(&spec, &cells)
        }
        .run()
        .and_then(|results| spec.rows(results))
        .unwrap_or_else(|e| panic!("invalid experiment spec: {e}"));
        let r = &rows[0][0];
        let h = r.hmean_ipc();
        let pb: f64 = r
            .per_bench
            .iter()
            .map(|(_, s)| s.front.fetch_share(s.front.fetch_pb))
            .sum::<f64>()
            / r.per_bench.len() as f64;
        let full_h = *full.get_or_insert(h);
        outln!(
            "{:<40} {:>8.3} {:>8.1}% {:>8.1}%",
            name,
            h,
            100.0 * pb,
            100.0 * (h / full_h - 1.0)
        );
        writeln!(csv, "{},{:.4},{:.4}", name.trim(), h, pb).unwrap();
        eprintln!("  ran {name}");
    }
    note_result("ablate", "see results/ablate.csv");
}
