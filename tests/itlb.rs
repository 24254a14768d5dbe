//! End-to-end tests of the fetch-path i-TLB and the prefetch insertion
//! policies, through the `ExperimentSpec` surface.
//!
//! The companion invariant — `itlb: null` specs are bit-identical to the
//! pre-TLB engine for all six mechanisms — is pinned by
//! `tests/engine_equality.rs` against goldens generated before the TLB
//! existed.  This file covers the *enabled* side: a TLB small enough to
//! miss must actually perturb timing, translation must charge every
//! mechanism, wrong-path translations must be unwound by the redirect
//! checkpoint machinery identically in live and replay modes, and the
//! insertion override must reach the fill path.

use fetch_prestaging::sim::{
    grid_output, try_run_spec, ConfigPreset, ExperimentSpec, ITlbConfig, InsertionPolicy,
    PrefetcherKind, TraceSource,
};
use fetch_prestaging::workload;

/// One benchmark with a code footprint far beyond a handful of pages, so
/// a small-page TLB sees real capacity pressure.
fn base_spec() -> ExperimentSpec {
    ExperimentSpec {
        presets: vec![ConfigPreset::FdpL0],
        l1_sizes: vec![1 << 10],
        bench: Some(vec!["gcc".into()]),
        warmup_insts: 1_000,
        measure_insts: 8_000,
        threads: Some(1),
        ..ExperimentSpec::default()
    }
}

fn tiny_tlb() -> ITlbConfig {
    // Two 256-byte pages of reach against a multi-KB instruction
    // footprint: guaranteed steady-state misses.
    ITlbConfig {
        entries: 2,
        assoc: 1,
        page_bytes: 256,
        miss_cycles: 25,
    }
}

/// The "TLB actually misses" guard: a tiny TLB must cost cycles relative
/// to `itlb: null`.  If this fails, translation is wired up but free —
/// the exact bug the bit-exactness discipline could otherwise hide.
#[test]
fn tiny_itlb_perturbs_timing() {
    let off = try_run_spec(&base_spec()).expect("valid spec");
    let on_spec = ExperimentSpec {
        itlb: Some(tiny_tlb()),
        ..base_spec()
    };
    let on = try_run_spec(&on_spec).expect("valid spec");
    let (c_off, c_on) = (
        off[0][0].per_bench[0].1.cycles,
        on[0][0].per_bench[0].1.cycles,
    );
    assert!(
        c_on > c_off,
        "a 2-entry, 256 B-page i-TLB with a 25-cycle walk must slow the run: \
         {c_on} cycles with TLB vs {c_off} without"
    );
}

/// Every mechanism pays for translation: the TLB-on run is never faster,
/// and each mechanism still makes forward progress (the related-work
/// TLB-on figure in miniature).
#[test]
fn all_six_mechanisms_run_and_pay_under_translation() {
    for kind in PrefetcherKind::all() {
        let spec_off = ExperimentSpec {
            presets: vec![ConfigPreset::Fdp],
            prefetcher: Some(kind),
            ..base_spec()
        };
        let spec_on = ExperimentSpec {
            itlb: Some(tiny_tlb()),
            ..spec_off.clone()
        };
        let off = try_run_spec(&spec_off).expect("valid spec");
        let on = try_run_spec(&spec_on).expect("valid spec");
        let (c_off, c_on) = (
            off[0][0].per_bench[0].1.cycles,
            on[0][0].per_bench[0].1.cycles,
        );
        assert!(
            on[0][0].hmean_ipc() > 0.05,
            "{} wedged under translation",
            kind.id()
        );
        assert!(
            c_on > c_off,
            "{} does not pay for translation: {c_on} vs {c_off} cycles",
            kind.id()
        );
    }
}

/// Wrong-path translations are unwound: a TLB-on run must be bit-exact
/// between live generation and trace replay (the two paths redirect at
/// the same points but speculate through different machinery), and
/// deterministic across repeat runs.
#[test]
fn tlb_state_is_checkpointed_across_redirects() {
    let spec = ExperimentSpec {
        itlb: Some(tiny_tlb()),
        ..base_spec()
    };
    let live = grid_output(&spec, &try_run_spec(&spec).expect("valid spec"));
    let again = grid_output(&spec, &try_run_spec(&spec).expect("valid spec"));
    assert_eq!(live, again, "TLB-on run is not deterministic");

    let scratch = std::env::temp_dir().join(format!("prestage-itlb-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    for name in spec.bench_names().expect("valid spec") {
        let profile = workload::by_name(name).expect("known benchmark");
        let w = workload::build_workload(&profile, spec.workload_seed);
        let path = scratch.join(TraceSource::file_name(
            name,
            spec.workload_seed,
            spec.exec_seed,
        ));
        let file = std::fs::File::create(&path).expect("trace file");
        workload::record_trace(
            std::io::BufWriter::new(file),
            &w,
            spec.exec_seed,
            spec.trace_record_insts(),
            256,
        )
        .expect("trace recorded");
    }
    let replay_spec = ExperimentSpec {
        trace: Some(TraceSource {
            dir: scratch.display().to_string(),
        }),
        ..spec.clone()
    };
    let replayed = grid_output(
        &replay_spec,
        &try_run_spec(&replay_spec).expect("replay run"),
    );
    let _ = std::fs::remove_dir_all(&scratch);
    assert_eq!(
        replayed, live,
        "TLB-on trace replay diverged from live generation"
    );
}

/// The spec-level `insertion` override reaches the fill path: forcing
/// prefetched lines to *bypass* the L0/L1 migration changes where later
/// fetches hit, while the explicit `mru` spelling is bit-identical to
/// each mechanism's default.
#[test]
fn insertion_override_reaches_the_fill_path() {
    // Compare the simulated stats, not the artifact text: the embedded
    // spec header legitimately differs in its `insertion` field.
    let default_rows = try_run_spec(&base_spec()).expect("valid spec");
    let mru = ExperimentSpec {
        insertion: Some(InsertionPolicy::Mru),
        ..base_spec()
    };
    let mru_rows = try_run_spec(&mru).expect("valid spec");
    assert_eq!(
        mru_rows[0][0].per_bench, default_rows[0][0].per_bench,
        "explicit mru insertion must be bit-identical to the FDP default"
    );
    let bypass = ExperimentSpec {
        insertion: Some(InsertionPolicy::Bypass),
        ..base_spec()
    };
    let bypass_rows = try_run_spec(&bypass).expect("valid spec");
    assert_ne!(
        bypass_rows[0][0].per_bench, default_rows[0][0].per_bench,
        "bypass insertion never reached the migration fill"
    );
}
