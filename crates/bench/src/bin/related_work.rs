//! Related-work comparison (§2.1): classic next-N-line sequential
//! prefetching vs the branch-predictor-guided schemes, the per-benchmark
//! mechanism comparison (CLGP vs FDP vs MANA vs program-map traversal —
//! the ROADMAP's record-and-replay prefetcher item, each a `prefetcher`
//! spec id), plus the predictor ablation (stream predictor vs gshare)
//! behind the paper's claim — via \[4\]/\[16\] — that "branch prediction
//! based prefetching outperforms table based prefetching" and tracks
//! predictor quality.
//!
//! Every row derives from an `ExperimentSpec`: preset-less mechanisms
//! ride the spec's `prefetcher` field, the predictor ablation swaps its
//! `predictor` field.  The mechanism table carries CACTI area/energy
//! columns for each mechanism's private metadata (MANA table + SAB,
//! program map, PIQ), so the comparison stays honest about hardware cost.
//!
//! The translation figure re-runs all six mechanisms with the spec's
//! `itlb` field set to the default i-TLB, so the comparison also shows
//! how each scheme degrades once every fetched *and prefetched* address
//! pays for translation — with the i-TLB's own CACTI cost attached.

use prestage_bench::{note_result, results_dir};
use prestage_cacti::{area_mm2, energy_nj_per_access, CacheGeometry};
use prestage_core::{prefetcher_state_bytes, ITlbConfig, PrefetcherKind};
use prestage_sim::{
    harmonic_mean, ConfigPreset, ExperimentSpec, GridResult, PredictorKind, SimConfig, Sweep,
    SweepCell,
};
use std::io::Write;

fn main() {
    let l1 = 4 << 10;
    let base = ExperimentSpec {
        presets: vec![ConfigPreset::ClgpL0],
        l1_sizes: vec![l1],
        ..ExperimentSpec::from_env()
    };
    let w = base
        .build_workloads()
        .unwrap_or_else(|e| panic!("invalid experiment spec: {e}"));
    // The one (preset, size) row of a derived one-row spec, over the shared
    // workloads; `configure` swaps in a config with no preset identity.
    let row = |spec: &ExperimentSpec,
               configure: Option<&(dyn Fn(&SweepCell) -> SimConfig + Sync)>|
     -> GridResult {
        spec.cells()
            .and_then(|cells| {
                Sweep {
                    workloads: Some(&w),
                    configure,
                    ..Sweep::new(spec, &cells)
                }
                .run()
            })
            .and_then(|results| spec.rows(results))
            .unwrap_or_else(|e| panic!("invalid experiment spec: {e}"))
            .remove(0)
            .remove(0)
    };

    // --- Prefetch scheme ladder: none -> NLP -> FDP -> CLGP. -------------
    let mut nlp_cfg = base.sim_config(ConfigPreset::Fdp, l1);
    nlp_cfg.frontend.prefetcher = PrefetcherKind::NextLine;
    let schemes: Vec<(&str, SimConfig)> = vec![
        (
            "no prefetch (base)",
            base.sim_config(ConfigPreset::Base, l1),
        ),
        ("next-2-line", nlp_cfg),
        ("FDP", base.sim_config(ConfigPreset::Fdp, l1)),
        ("CLGP", base.sim_config(ConfigPreset::Clgp, l1)),
    ];
    println!("\n# Related work — prefetch scheme ladder (4KB L1, 0.045um)");
    std::fs::create_dir_all(results_dir()).unwrap();
    let mut csv = std::fs::File::create(results_dir().join("related_work.csv")).unwrap();
    writeln!(csv, "scheme,hmean_ipc").unwrap();
    let mut ladder = Vec::new();
    for (name, cfg) in &schemes {
        let h = row(&base, Some(&|_| *cfg)).hmean_ipc();
        println!("{name:<22} HMEAN {h:.3}");
        writeln!(csv, "{name},{h:.4}").unwrap();
        ladder.push(h);
        eprintln!("  ran {name}");
    }
    assert!(
        ladder.windows(2).all(|p| p[1] >= p[0] * 0.97),
        "scheme ladder regressed unexpectedly: {ladder:?}"
    );

    // --- Mechanism comparison: CLGP vs FDP vs MANA vs program map, ------
    // --- per benchmark, with CACTI hardware-cost columns.           ------
    // The classic pair runs through its presets; the two record-and-replay
    // mechanisms ride the spec's `prefetcher` field over the FDP preset
    // shape, so all four share the same pre-buffer budget.
    let mechanisms: Vec<(&str, ConfigPreset, Option<PrefetcherKind>)> = vec![
        ("FDP", ConfigPreset::Fdp, None),
        ("CLGP", ConfigPreset::Clgp, None),
        ("MANA", ConfigPreset::Fdp, Some(PrefetcherKind::Mana)),
        ("progmap", ConfigPreset::Fdp, Some(PrefetcherKind::ProgMap)),
    ];
    println!("\n# Mechanism comparison — per-benchmark IPC (4KB L1, 0.045um)");
    let mut rows = Vec::new();
    for &(name, preset, prefetcher) in &mechanisms {
        let spec = ExperimentSpec {
            presets: vec![preset],
            prefetcher,
            ..base.clone()
        };
        let grid = row(&spec, None);
        let cfg = spec.sim_config(preset, l1);
        // CACTI cost of the mechanism's private metadata, modelled as a
        // small 4-way SRAM of 8-byte records at the spec's node.  The
        // SRAM is rounded up to the next power of two (what would be
        // built), and the "meta KB" column reports that *modelled*
        // capacity, so KB, mm² and nJ all describe the same structure.
        let bytes = prefetcher_state_bytes(&cfg.frontend);
        let (modeled, area, energy) = if bytes == 0 {
            (0, 0.0, 0.0)
        } else {
            let capacity = bytes.next_power_of_two().max(256);
            let g = CacheGeometry::new(capacity, 8, 4, 1);
            (
                capacity,
                area_mm2(&g, spec.tech),
                energy_nj_per_access(&g, spec.tech),
            )
        };
        eprintln!("  ran mechanism {name}");
        rows.push((name, grid, modeled, area, energy));
    }
    print!("{:<10}", "bench");
    for (name, ..) in &rows {
        print!(" {name:>9}");
    }
    println!();
    let mut mcsv =
        std::fs::File::create(results_dir().join("related_work_mechanisms.csv")).unwrap();
    writeln!(
        mcsv,
        "bench,{}",
        mechanisms.iter().map(|m| m.0).collect::<Vec<_>>().join(",")
    )
    .unwrap();
    for (bi, (bench, _)) in rows[0].1.per_bench.iter().enumerate() {
        print!("{bench:<10}");
        write!(mcsv, "{bench}").unwrap();
        for (_, grid, ..) in &rows {
            let ipc = grid.per_bench[bi].1.ipc();
            print!(" {ipc:>9.3}");
            write!(mcsv, ",{ipc:.4}").unwrap();
        }
        println!();
        writeln!(mcsv).unwrap();
    }
    for (label, f) in [
        ("HMEAN", None),
        ("meta KB", Some(0)),
        ("area mm2", Some(1)),
        ("nJ/access", Some(2)),
    ] {
        print!("{label:<10}");
        write!(mcsv, "{label}").unwrap();
        for &(_, ref grid, bytes, area, energy) in &rows {
            let v = match f {
                None => grid.hmean_ipc(),
                Some(0) => bytes as f64 / 1024.0,
                Some(1) => area,
                _ => energy,
            };
            print!(" {v:>9.3}");
            write!(mcsv, ",{v:.4}").unwrap();
        }
        println!();
        writeln!(mcsv).unwrap();
    }
    // Sanity: every mechanism actually runs (no wedged configuration).
    for (name, grid, ..) in &rows {
        assert!(
            grid.hmean_ipc() > 0.05,
            "{name} wedged: {}",
            grid.hmean_ipc()
        );
    }

    // --- Six-mechanism comparison with address translation on. -----------
    // Every mechanism re-run with the default i-TLB threaded through the
    // fetch path: demand fetches and prefetch issues both pay (and train)
    // the same translation structure, so schemes that touch more distinct
    // pages show their real cost.  All six ride the FDP preset shape via
    // the spec `prefetcher` field, exactly like the mechanism table above.
    let itlb = ITlbConfig::default_config();
    println!(
        "\n# Mechanism comparison with i-TLB on ({}-entry {}-way, {} B pages, \
         {}-cycle walk; 4KB L1, 0.045um)",
        itlb.entries, itlb.assoc, itlb.page_bytes, itlb.miss_cycles
    );
    let mut tcsv = std::fs::File::create(results_dir().join("related_work_tlb.csv")).unwrap();
    writeln!(tcsv, "mechanism,hmean_ipc_no_tlb,hmean_ipc_tlb").unwrap();
    println!("{:<10} {:>9} {:>9}", "mechanism", "no-TLB", "TLB");
    for kind in PrefetcherKind::all() {
        let spec_off = ExperimentSpec {
            presets: vec![ConfigPreset::Fdp],
            prefetcher: Some(kind),
            ..base.clone()
        };
        let spec_on = ExperimentSpec {
            itlb: Some(itlb),
            ..spec_off.clone()
        };
        let (h_off, h_on) = (
            row(&spec_off, None).hmean_ipc(),
            row(&spec_on, None).hmean_ipc(),
        );
        println!("{:<10} {h_off:>9.3} {h_on:>9.3}", kind.id());
        writeln!(tcsv, "{},{h_off:.4},{h_on:.4}", kind.id()).unwrap();
        eprintln!("  ran {} with and without i-TLB", kind.id());
        assert!(
            h_on > 0.05,
            "{} wedged under translation: {h_on}",
            kind.id()
        );
    }
    // CACTI cost of the i-TLB itself (16-byte tag+translation records in a
    // set-associative SRAM, rounded up to a buildable power of two), so
    // the TLB-on figure carries its own hardware-cost line.
    let tlb_capacity = itlb.state_bytes().next_power_of_two().max(256);
    let tlb_geom = CacheGeometry::new(tlb_capacity, 16, itlb.assoc, 1);
    let (tlb_area, tlb_energy) = (
        area_mm2(&tlb_geom, base.tech),
        energy_nj_per_access(&tlb_geom, base.tech),
    );
    println!(
        "i-TLB cost: {:.1} KB modelled, {tlb_area:.4} mm2, {tlb_energy:.4} nJ/access",
        tlb_capacity as f64 / 1024.0
    );
    writeln!(tcsv, "itlb_modeled_kb,{:.4},", tlb_capacity as f64 / 1024.0).unwrap();
    writeln!(tcsv, "itlb_area_mm2,{tlb_area:.4},").unwrap();
    writeln!(tcsv, "itlb_energy_nj_per_access,{tlb_energy:.4},").unwrap();

    // --- Predictor ablation: CLGP quality tracks predictor quality. ------
    println!("\n# Predictor ablation — CLGP+L0 under different predictors");
    writeln!(csv, "predictor,hmean_ipc").unwrap();
    for (name, kind) in [
        ("stream predictor (paper)", PredictorKind::Stream),
        ("gshare 16K", PredictorKind::Gshare),
    ] {
        // The predictor is a first-class spec field: same experiment,
        // different `predictor`.
        let spec = ExperimentSpec {
            predictor: kind,
            ..base.clone()
        };
        let ipcs: Vec<f64> = row(&spec, None)
            .per_bench
            .iter()
            .map(|(_, s)| s.ipc())
            .collect();
        let h = harmonic_mean(&ipcs);
        println!("{name:<28} HMEAN {h:.3}");
        writeln!(csv, "{name},{h:.4}").unwrap();
        eprintln!("  ran {name}");
    }
    note_result("related_work", "see results/related_work.csv");
}
