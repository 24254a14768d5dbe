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
//! The ablation flags have no preset identity, so this binary derives its
//! workloads, run lengths and seeds from an `ExperimentSpec` and mutates
//! the spec-built base config per variant.

use prestage_bench::{note_result, results_dir};
use prestage_sim::{run_grid, ConfigPreset, ExperimentSpec, SimConfig};
use std::io::Write;

fn main() {
    let l1 = 4 << 10;
    let spec = ExperimentSpec {
        presets: vec![ConfigPreset::ClgpL0],
        l1_sizes: vec![l1],
        ..ExperimentSpec::from_env()
    };
    let w = spec
        .build_workloads()
        .unwrap_or_else(|e| panic!("invalid experiment spec: {e}"));
    let base_cfg = spec.sim_config(ConfigPreset::ClgpL0, l1);

    let variants: Vec<(&str, SimConfig)> = vec![
        ("CLGP (full)", base_cfg),
        ("  - consumers counter (free-on-use)", {
            let mut c = base_cfg;
            c.frontend.ablate_free_on_use = true;
            c
        }),
        ("  + migration (duplicate into L0/L1)", {
            let mut c = base_cfg;
            c.frontend.ablate_migrate = true;
            c
        }),
        ("  + L1 filtering (keep L1 hits slow)", {
            let mut c = base_cfg;
            c.frontend.ablate_filter = true;
            c
        }),
        ("all three (FDP-like management)", {
            let mut c = base_cfg;
            c.frontend.ablate_free_on_use = true;
            c.frontend.ablate_migrate = true;
            c.frontend.ablate_filter = true;
            c
        }),
    ];

    println!("\n# Ablation — CLGP design choices (4KB L1, 0.045um)");
    println!(
        "{:<40} {:>8} {:>9} {:>9}",
        "variant", "HMEAN", "PB share", "vs full"
    );
    std::fs::create_dir_all(results_dir()).unwrap();
    let mut csv = std::fs::File::create(results_dir().join("ablate.csv")).unwrap();
    writeln!(csv, "variant,hmean_ipc,pb_share").unwrap();
    // All five variants in one run_grid call on the shared cell pool.
    let configs: Vec<SimConfig> = variants.iter().map(|(_, c)| *c).collect();
    let grids = run_grid(&configs, &w, spec.exec_seed);
    let mut full = None;
    for ((name, _), r) in variants.iter().zip(&grids) {
        let h = r.hmean_ipc();
        let pb: f64 = r
            .per_bench
            .iter()
            .map(|(_, s)| s.front.fetch_share(s.front.fetch_pb))
            .sum::<f64>()
            / r.per_bench.len() as f64;
        let full_h = *full.get_or_insert(h);
        println!(
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
