//! Differential equality suite for the engine refactor.
//!
//! The monomorphized engine must reproduce, bit for bit, the grid output
//! the pre-refactor dyn-dispatch engine produced.  The goldens under
//! `tests/golden/engine_equality.json` were generated by running this
//! suite at the last commit before the refactor with
//! `PRESTAGE_REGEN_GOLDEN=1`; the checked-in test compares the current
//! engine's result rows against them byte for byte (the artifact header
//! embeds the spec, whose schema number may legitimately grow), for every
//! mechanism in the registry crossed with both predictors, in both
//! live-generation and trace-replay modes.  An i-TLB leg runs every
//! mechanism under the stream predictor with a TLB small enough to miss,
//! so the redirect must unwind wrong-path translations and mechanism
//! state identically live and replayed.  (The shard/merge leg is covered separately by
//! `tests/sweep_cells.rs::mechanism_axis_is_bit_exact_under_threads_and_sharding`,
//! which proves shard == live for the same mechanism axis.)
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! PRESTAGE_REGEN_GOLDEN=1 cargo test --test engine_equality
//! ```

use fetch_prestaging::sim::{
    grid_output, try_run_spec, ConfigPreset, ExperimentSpec, ITlbConfig, PredictorKind,
    PrefetcherKind, TraceSource,
};
use fetch_prestaging::workload;
use prestage_json::Json;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/engine_equality.tsv")
}

/// One golden record per line: the grid output is multi-line JSON, so it
/// is stored with `\` and newline escaped (lossless for any byte string).
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                other => panic!("malformed golden escape: \\{other:?}"),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// One deterministic spec per (mechanism, predictor, i-TLB) point: two L1
/// sizes and two benchmarks under the FDP preset (which carries a
/// pre-buffer so every mechanism has somewhere to prefetch into),
/// mechanism swapped in via the spec `prefetcher` override exactly as
/// `prestage run` does it.
fn spec_for(
    kind: PrefetcherKind,
    predictor: PredictorKind,
    itlb: Option<ITlbConfig>,
) -> ExperimentSpec {
    ExperimentSpec {
        presets: vec![ConfigPreset::Fdp],
        l1_sizes: vec![1 << 10, 4 << 10],
        bench: Some(vec!["gzip".into(), "crafty".into()]),
        warmup_insts: 500,
        measure_insts: 2_500,
        threads: Some(1),
        predictor,
        prefetcher: Some(kind),
        itlb,
        ..ExperimentSpec::default()
    }
}

/// Two 256-byte pages of reach against a multi-KB instruction footprint:
/// the i-TLB misses in steady state, so wrong-path translations evict
/// right-path ones until the redirect restores them.
fn tiny_tlb() -> ITlbConfig {
    ITlbConfig {
        entries: 2,
        assoc: 1,
        page_bytes: 256,
        miss_cycles: 25,
    }
}

/// Every golden case: each mechanism under both predictors without a TLB,
/// then each mechanism under the stream predictor with [`tiny_tlb`].
fn cases() -> Vec<(PrefetcherKind, PredictorKind, Option<ITlbConfig>)> {
    let mut cases = Vec::new();
    for kind in PrefetcherKind::all() {
        for predictor in [PredictorKind::Stream, PredictorKind::Gshare] {
            cases.push((kind, predictor, None));
        }
    }
    for kind in PrefetcherKind::all() {
        cases.push((kind, PredictorKind::Stream, Some(tiny_tlb())));
    }
    cases
}

fn case_label(kind: PrefetcherKind, predictor: PredictorKind, itlb: bool) -> String {
    let tlb = if itlb { "/itlb" } else { "" };
    format!("{}/{}{tlb}", kind.id(), predictor.id())
}

/// The comparable part of a grid artifact: the result rows.  The header
/// additionally embeds the portable spec, whose *schema* legitimately
/// moves when the spec format grows a field (the goldens were written at
/// schema 3; an `itlb: null` spec now serializes at schema 4) — what must
/// never move is every simulated counter of every cell.
fn rows_subtree(output: &str) -> String {
    Json::parse(output)
        .expect("grid output is JSON")
        .get("rows")
        .expect("grid output has a rows array")
        .render()
}

/// Record each spec's benchmarks once and run the spec in replay mode.
fn replay_output(spec: &ExperimentSpec, scratch: &PathBuf) -> String {
    std::fs::create_dir_all(scratch).expect("scratch dir");
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
    let rows = try_run_spec(&replay_spec).expect("replay run");
    grid_output(&replay_spec, &rows)
}

#[test]
fn engine_matches_pre_refactor_goldens_for_every_mechanism() {
    let regen = std::env::var_os("PRESTAGE_REGEN_GOLDEN").is_some();
    let path = golden_path();
    let mut golden: Vec<(String, String)> = Vec::new();
    if !regen {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}) — regenerate at a known-good \
                 commit with PRESTAGE_REGEN_GOLDEN=1",
                path.display()
            )
        });
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let (label, output) = line
                .split_once('\t')
                .unwrap_or_else(|| panic!("malformed golden line: {line:?}"));
            golden.push((label.to_string(), unescape(output)));
        }
    }

    let scratch =
        std::env::temp_dir().join(format!("prestage-engine-equality-{}", std::process::id()));
    let mut fresh: Vec<(String, String)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let cases = cases();
    for &(kind, predictor, itlb) in &cases {
        let label = case_label(kind, predictor, itlb.is_some());
        let spec = spec_for(kind, predictor, itlb);
        let rows = try_run_spec(&spec).expect("live run");
        let live = grid_output(&spec, &rows);
        let replayed = replay_output(&spec, &scratch);
        assert_eq!(
            replayed, live,
            "{label}: trace replay diverged from live generation"
        );
        if regen {
            fresh.push((label, live));
        } else {
            match golden.iter().find(|(l, _)| *l == label) {
                Some((_, want)) if rows_subtree(want) == rows_subtree(&live) => {}
                Some(_) => failures.push(format!(
                    "{label}: grid output differs from the pre-refactor golden"
                )),
                None => failures.push(format!("{label}: no golden entry")),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    if regen {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        let mut text = String::new();
        for (label, output) in &fresh {
            text.push_str(label);
            text.push('\t');
            text.push_str(&escape(output));
            text.push('\n');
        }
        std::fs::write(&path, text).expect("golden written");
        eprintln!("regenerated {}", path.display());
        return;
    }
    assert_eq!(
        golden.len(),
        cases.len(),
        "golden file covers a different case set — regenerate"
    );
    assert!(
        failures.is_empty(),
        "engine output diverged from the pre-refactor dyn-dispatch goldens:\n  {}",
        failures.join("\n  ")
    );
}
