//! Cross-crate tests of the `ExperimentSpec` API: the JSON round-trip
//! property over randomized specs, the committed golden spec files for
//! fig1/fig6/fig8, and the guarantee that spec-driven execution
//! reproduces the raw runner path bit-exactly.

use prestage_bench::figures;
use prestage_cacti::TechNode;
use prestage_sim::{
    try_run_spec, ConfigPreset, Engine, ExperimentSpec, ITlbConfig, InsertionPolicy, PredictorKind,
    PrefetcherKind, TraceSource, L1_SIZES,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

/// A structurally arbitrary spec (not necessarily *valid* — the
/// round-trip property holds for every representable value, including
/// seeds above 2^53 and non-SPECint bench names).
fn random_spec(seed: u64) -> ExperimentSpec {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut presets: Vec<ConfigPreset> = ConfigPreset::all()
        .into_iter()
        .filter(|_| rng.gen_bool(0.5))
        .collect();
    if presets.is_empty() {
        presets.push(ConfigPreset::Clgp);
    }
    let size_pool: Vec<usize> = L1_SIZES.iter().copied().chain([1536, 2560]).collect();
    let mut l1_sizes: Vec<usize> = size_pool
        .iter()
        .copied()
        .filter(|_| rng.gen_bool(0.4))
        .collect();
    if l1_sizes.is_empty() {
        l1_sizes.push(4 << 10);
    }
    if rng.gen_bool(0.3) {
        l1_sizes.reverse();
    }
    let bench = if rng.gen_bool(0.5) {
        None
    } else {
        let names = ["gzip", "gcc", "mcf", "crafty", "eon", "not-a-benchmark"];
        let mut picked: Vec<String> = names
            .iter()
            .filter(|_| rng.gen_bool(0.5))
            .map(|s| s.to_string())
            .collect();
        if picked.is_empty() {
            picked.push("twolf".to_string());
        }
        Some(picked)
    };
    ExperimentSpec {
        presets,
        tech: TechNode::all()[rng.gen_range(0..5usize)],
        l1_sizes,
        bench,
        warmup_insts: rng.gen::<u64>(),
        measure_insts: rng.gen::<u64>(),
        workload_seed: rng.gen::<u64>(),
        exec_seed: rng.gen::<u64>(),
        threads: if rng.gen_bool(0.5) {
            None
        } else {
            Some(rng.gen_range(1..128usize))
        },
        predictor: if rng.gen_bool(0.5) {
            PredictorKind::Stream
        } else {
            PredictorKind::Gshare
        },
        trace: if rng.gen_bool(0.6) {
            None
        } else {
            // Paths with spaces, dots and unicode must all survive the
            // JSON escape round-trip.
            let dirs = ["traces", "a b/c", "../rel", "трассы", "t\"q"];
            Some(TraceSource {
                dir: dirs[rng.gen_range(0..dirs.len())].to_string(),
            })
        },
        prefetcher: if rng.gen_bool(0.5) {
            None
        } else {
            let kinds = PrefetcherKind::all();
            Some(kinds[rng.gen_range(0..kinds.len())])
        },
        itlb: if rng.gen_bool(0.5) {
            None
        } else {
            // Representable, not necessarily valid: the round-trip
            // property covers degenerate geometries too.
            Some(ITlbConfig {
                entries: rng.gen_range(0..4096usize),
                assoc: rng.gen_range(0..64usize),
                page_bytes: rng.gen::<u64>(),
                miss_cycles: rng.gen::<u64>(),
            })
        },
        insertion: if rng.gen_bool(0.5) {
            None
        } else {
            let all = InsertionPolicy::all();
            Some(all[rng.gen_range(0..all.len())])
        },
    }
}

proptest! {
    /// Any representable spec survives JSON serialization unchanged, and
    /// serialization is canonical (re-serializing the parse is
    /// byte-identical).
    #[test]
    fn spec_json_roundtrip(seed in 0u64..5_000) {
        let spec = random_spec(seed);
        let text = spec.to_json();
        let back = ExperimentSpec::from_json(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.to_json(), text);
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("specs")
        .join(format!("{name}.json"))
}

/// The committed golden spec files are exactly the declared figure specs,
/// byte-for-byte (regenerate with `prestage spec <name> --out specs/<name>.json`
/// after an intentional figure change).
#[test]
fn golden_spec_files_match_the_figure_declarations() {
    for name in ["fig1", "fig6", "fig8"] {
        let path = golden_path(name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let golden = ExperimentSpec::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let specs = (figures::study_by_name(name)
            .unwrap_or_else(|| panic!("figure {name} not declared"))
            .make_specs)();
        let [(_, declared)] = &specs[..] else {
            panic!("{name}: a figure declares one spec, not {}", specs.len())
        };
        assert_eq!(
            golden, *declared,
            "{name}: golden file drifted from declaration"
        );
        assert_eq!(
            declared.to_json(),
            text,
            "{name}: golden file is not canonical"
        );
    }
}

/// Spec-driven execution of the golden figures reproduces the raw engine
/// bit-exactly: every counter of every cell, not just headline IPC.
/// (Run lengths and the bench set are shrunk through the spec itself so
/// the test stays fast; the execution path is identical.)
#[test]
fn golden_specs_reproduce_the_engine_bit_exactly() {
    for name in ["fig1", "fig6", "fig8"] {
        let text = std::fs::read_to_string(golden_path(name)).unwrap();
        let golden = ExperimentSpec::from_json(&text).unwrap();
        let spec = ExperimentSpec {
            l1_sizes: golden.l1_sizes[..golden.l1_sizes.len().min(2)].to_vec(),
            bench: Some(vec!["gzip".into(), "mcf".into()]),
            warmup_insts: 1_000,
            measure_insts: 5_000,
            ..golden
        };
        let rows = try_run_spec(&spec).unwrap_or_else(|e| panic!("{name}: {e}"));
        let workloads = spec.build_workloads().unwrap();
        for (pi, &preset) in spec.presets.iter().enumerate() {
            for (si, &l1) in spec.l1_sizes.iter().enumerate() {
                for (wi, w) in workloads.iter().enumerate() {
                    let direct = Engine::new(spec.sim_config(preset, l1), w, spec.exec_seed).run();
                    let (bench_name, stats) = &rows[pi][si].per_bench[wi];
                    assert_eq!(bench_name, w.profile.name, "{name}");
                    assert_eq!(
                        *stats,
                        direct,
                        "{name}: {} @ {l1}B / {} diverged from the raw engine",
                        preset.label(),
                        w.profile.name
                    );
                }
            }
        }
    }
}

/// The loud-failure satellite: a typo'd benchmark name aborts with the
/// valid names instead of silently shrinking the workload set.
#[test]
fn unknown_bench_name_is_a_loud_error_through_the_whole_stack() {
    let spec = ExperimentSpec {
        bench: Some(vec!["gzip".into(), "craftey".into()]),
        ..ExperimentSpec::default()
    };
    let err = spec.validate().unwrap_err();
    assert!(err.contains("unknown benchmark \"craftey\""), "{err}");
    assert!(
        err.contains("crafty"),
        "error must list the valid names: {err}"
    );
    let err = try_run_spec(&spec).unwrap_err();
    assert!(err.contains("unknown benchmark"), "{err}");
}

/// `tests/golden/every_field_spec.json` sets every optional field (`bench`,
/// `threads`, `trace`, `prefetcher`, `itlb`, `insertion`) and seeds above
/// 2^53: it parses to exactly this value and renders back byte-for-byte,
/// so any change to the spec codec's key order or number rendering fails
/// here first.
#[test]
fn golden_spec_with_every_optional_field_renders_byte_identically() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/every_field_spec.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let spec = ExperimentSpec {
        presets: vec![ConfigPreset::FdpL0, ConfigPreset::ClgpL0Pb16],
        tech: TechNode::T045,
        l1_sizes: vec![512, 8 << 10],
        bench: Some(vec!["gcc".into(), "mcf".into()]),
        warmup_insts: 2_000,
        measure_insts: 10_000,
        workload_seed: (1 << 53) + 1,
        exec_seed: u64::MAX,
        threads: Some(3),
        predictor: PredictorKind::Gshare,
        trace: Some(TraceSource {
            dir: "traces/every-field".into(),
        }),
        prefetcher: Some(PrefetcherKind::Mana),
        itlb: Some(ITlbConfig {
            entries: 64,
            assoc: 4,
            page_bytes: 8 << 10,
            miss_cycles: 30,
        }),
        insertion: Some(InsertionPolicy::Bypass),
    };
    assert_eq!(spec.to_json(), text);
    assert_eq!(ExperimentSpec::from_json(&text).unwrap(), spec);
}
