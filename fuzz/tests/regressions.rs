//! Replay every checked-in corpus and regression input through its
//! target, pin the named crashers that produced code fixes, and smoke the
//! deterministic campaign + differential driver at CI-friendly budgets.

use prestage_fuzz::{
    builtin_seeds, check_input, default_corpus_root, default_regressions_root, fuzz_target,
    named_inputs, target_by_name, targets, Outcome,
};

/// Every file under `fuzz/corpus/<target>/` and `fuzz/regressions/<target>/`
/// must run clean: accepted or rejected, never a panic or a nameless error.
#[test]
fn all_checked_in_inputs_run_clean() {
    let mut replayed = 0;
    for t in targets() {
        for root in [default_corpus_root(), default_regressions_root()] {
            for (name, bytes) in named_inputs(&root.join(t.name)) {
                let verdict = check_input(t, &bytes);
                assert!(
                    verdict.is_ok(),
                    "{}/{name}: {}",
                    t.name,
                    verdict.unwrap_err()
                );
                replayed += 1;
            }
        }
    }
    // The corpus is part of the harness: an empty directory tree means a
    // packaging mistake, not a clean run.
    assert!(replayed >= 10, "only {replayed} checked-in inputs found");
}

/// `fuzz/corpus/shard/one-cell.json` re-renders byte-for-byte through the
/// shard codec: pins the shard file's key order and number rendering.
#[test]
fn corpus_shard_re_renders_byte_for_byte() {
    let text = std::fs::read_to_string(default_corpus_root().join("shard/one-cell.json"))
        .expect("checked-in corpus input");
    let shard = prestage_sim::ShardFile::from_json(&text).unwrap();
    assert_eq!(shard.to_json(), text);
}

/// `fuzz/regressions/shard/inverted-range.json` — the crasher that led to
/// the inverted-range check in `ShardFile::from_json`.
#[test]
fn regression_inverted_shard_range() {
    let bytes = std::fs::read(default_regressions_root().join("shard/inverted-range.json"))
        .expect("checked-in regression input");
    let t = target_by_name("shard").unwrap();
    assert_eq!(check_input(t, &bytes), Ok(Outcome::Rejected));
    let e = prestage_sim::ShardFile::from_json(std::str::from_utf8(&bytes).unwrap()).unwrap_err();
    assert!(e.contains("inverted") && e.contains("cells.start 5"), "{e}");
}

/// `fuzz/regressions/shard/negative-wall.json` — the crasher that led to
/// the wall_s range check (previously a `Duration::from_secs_f64` panic).
#[test]
fn regression_negative_wall_seconds() {
    let bytes = std::fs::read(default_regressions_root().join("shard/negative-wall.json"))
        .expect("checked-in regression input");
    let t = target_by_name("shard").unwrap();
    assert_eq!(check_input(t, &bytes), Ok(Outcome::Rejected));
    let e = prestage_sim::ShardFile::from_json(std::str::from_utf8(&bytes).unwrap()).unwrap_err();
    assert!(e.contains("wall_s"), "{e}");
}

/// `fuzz/regressions/trace/v1-refused.pstr` — a trace in the retired v1
/// format (once a corpus seed): refused by its version number, through
/// the iterator and the verify-only pass alike.
#[test]
fn regression_v1_trace_is_refused_by_version() {
    let bytes = std::fs::read(default_regressions_root().join("trace/v1-refused.pstr"))
        .expect("checked-in regression input");
    let t = target_by_name("trace").unwrap();
    assert_eq!(check_input(t, &bytes), Ok(Outcome::Rejected));
    let e = prestage_workload::TraceReader::new(&bytes[..]).unwrap_err();
    assert!(
        e.to_string()
            .contains("unsupported trace version 1 (this build reads v2 only)"),
        "{e}"
    );
}

/// `fuzz/regressions/spec/warmup-measure-overflow.json` — parses (every
/// field is well-formed) but must *validate* to a named error instead of
/// overflowing the run-length sum.
#[test]
fn regression_overflowing_run_length() {
    let bytes = std::fs::read(
        default_regressions_root().join("spec/warmup-measure-overflow.json"),
    )
    .expect("checked-in regression input");
    let t = target_by_name("spec").unwrap();
    assert_eq!(check_input(t, &bytes), Ok(Outcome::Accepted));
    let spec =
        prestage_sim::ExperimentSpec::from_json(std::str::from_utf8(&bytes).unwrap()).unwrap();
    let e = spec.validate().unwrap_err();
    assert!(e.contains("overflows"), "{e}");
}

/// A bounded campaign over every target is crash-free and bit-repeatable —
/// the exact invocation CI runs via `prestage fuzz`.
#[test]
fn bounded_campaign_is_deterministic_and_clean() {
    let corpus = default_corpus_root();
    let regressions = default_regressions_root();
    for t in targets() {
        let mut seeds = builtin_seeds(t.name);
        seeds.extend(prestage_fuzz::load_seeds(&corpus, t.name));
        seeds.extend(prestage_fuzz::load_seeds(&regressions, t.name));
        let a = fuzz_target(t, &seeds, 300, prestage_fuzz::DEFAULT_SEED);
        let b = fuzz_target(t, &seeds, 300, prestage_fuzz::DEFAULT_SEED);
        assert!(
            a.crashes.is_empty(),
            "{}: {}",
            t.name,
            a.crashes
                .iter()
                .map(|c| c.message.as_str())
                .collect::<Vec<_>>()
                .join("; ")
        );
        assert_eq!((a.executions, a.accepted, a.rejected), (b.executions, b.accepted, b.rejected));
        // A campaign that rejects nothing (or accepts nothing) is not
        // exercising both sides of the parser.
        assert!(a.accepted > 0 && a.rejected > 0, "{}: degenerate campaign", t.name);
    }
}

/// A small differential run (the full 100-spec sweep is `prestage fuzz`'s
/// job): live == shard/merge == replay and six-way disabled-prefetch
/// equality, on a handful of random specs.
#[test]
fn differential_properties_hold_on_sampled_specs() {
    let report = prestage_fuzz::differential::run_differential(4, 0xD1FF, |_| {});
    assert_eq!(report.specs, 4);
    assert_eq!(report.mechanism_checks, 4);
    assert!(
        report.failures.is_empty(),
        "differential failures:\n{}",
        report.failures.join("\n")
    );
}
