//! Fixture-corpus tests: every rule must fire on its known-bad snippet
//! (including the minimized PR 5 and PR 6 reproductions) and stay silent
//! on the clean counterpart.  The cross-file `dead-pub` rule's clean
//! fixture is a set: the declaring file plus its users in `ok/dead_pub/`.

use prestage_analyze::{analyze_source, analyze_sources, rules};

fn fixture(kind: &str, name: &str) -> String {
    let path = format!(
        "{}/tests/fixtures/{kind}/{name}.rs",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Run one rule over a fixture as if it lived at `rel_path` (the fixture
/// directory itself is classified as test code and skipped by the walker,
/// so tests must re-home the source onto a library path).
fn run(rule: &'static str, rel_path: &str, kind: &str, name: &str) -> Vec<rules::Finding> {
    analyze_source(rel_path, &fixture(kind, name), &[rule])
}

#[test]
fn truncating_cast_fires_on_minimized_pr5_bug() {
    let fs = run(
        rules::TRUNCATING_CAST,
        "crates/bpred/src/fixture.rs",
        "bad",
        "truncating_cast",
    );
    assert_eq!(fs.len(), 2, "{fs:?}");
    assert!(fs.iter().all(|f| f.rule == rules::TRUNCATING_CAST));
    // The `len as u16` stream-length clamp is the PR 5 bug, minimized.
    assert!(fs.iter().any(|f| f.message.contains("as u16")), "{fs:?}");
}

#[test]
fn truncating_cast_clean_fixture_is_silent() {
    let fs = run(
        rules::TRUNCATING_CAST,
        "crates/bpred/src/fixture.rs",
        "ok",
        "truncating_cast",
    );
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn unchecked_counter_add_fires_on_minimized_pr6_bug() {
    let fs = run(
        rules::UNCHECKED_COUNTER_ADD,
        "crates/sim/src/fixture.rs",
        "bad",
        "unchecked_counter_add",
    );
    // `warmup_insts + measure_insts` and `measure_insts * reps`.
    assert_eq!(fs.len(), 2, "{fs:?}");
    assert!(
        fs.iter().any(|f| f.message.contains("warmup_insts")),
        "{fs:?}"
    );
    assert!(
        fs.iter().any(|f| f.message.contains("measure_insts")),
        "{fs:?}"
    );
}

#[test]
fn unchecked_counter_add_clean_fixture_is_silent() {
    let fs = run(
        rules::UNCHECKED_COUNTER_ADD,
        "crates/sim/src/fixture.rs",
        "ok",
        "unchecked_counter_add",
    );
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn nondeterministic_iteration_fires_and_skips_use_lines() {
    let fs = run(
        rules::NONDETERMINISTIC_ITERATION,
        "crates/sim/src/fixture.rs",
        "bad",
        "nondeterministic_iteration",
    );
    // One HashMap parameter + one HashSet return type; the `use` line
    // itself must NOT fire (imports are not uses of the type).
    assert_eq!(fs.len(), 2, "{fs:?}");
    assert!(fs.iter().all(|f| f.line > 4), "use line fired: {fs:?}");
}

#[test]
fn nondeterministic_iteration_clean_fixture_is_silent() {
    let fs = run(
        rules::NONDETERMINISTIC_ITERATION,
        "crates/sim/src/fixture.rs",
        "ok",
        "nondeterministic_iteration",
    );
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn wallclock_in_sim_fires_outside_the_timing_layer() {
    let fs = run(
        rules::WALLCLOCK_IN_SIM,
        "crates/sim/src/fixture.rs",
        "bad",
        "wallclock_in_sim",
    );
    assert!(!fs.is_empty(), "{fs:?}");
    assert!(fs.iter().all(|f| f.rule == rules::WALLCLOCK_IN_SIM));
}

#[test]
fn wallclock_is_allowed_in_the_timing_layer() {
    // The same bad source re-homed into the runner (the timing layer) is
    // exempt by path.
    let src = fixture("bad", "wallclock_in_sim");
    let fs = analyze_source("crates/sim/src/runner.rs", &src, &[rules::WALLCLOCK_IN_SIM]);
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn wallclock_clean_fixture_is_silent() {
    let fs = run(
        rules::WALLCLOCK_IN_SIM,
        "crates/sim/src/fixture.rs",
        "ok",
        "wallclock_in_sim",
    );
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn unwrap_in_lib_fires_on_unwrap_and_expect() {
    let fs = run(
        rules::UNWRAP_IN_LIB,
        "crates/core/src/fixture.rs",
        "bad",
        "unwrap_in_lib",
    );
    assert_eq!(fs.len(), 2, "{fs:?}");
}

#[test]
fn unwrap_in_lib_permits_defaults_and_test_modules() {
    let fs = run(
        rules::UNWRAP_IN_LIB,
        "crates/core/src/fixture.rs",
        "ok",
        "unwrap_in_lib",
    );
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn unnamed_rejection_fires_on_anonymous_panics() {
    let fs = run(
        rules::UNNAMED_REJECTION,
        "crates/json/src/fixture.rs",
        "bad",
        "unnamed_rejection",
    );
    // `assert!(…, "bad input")` and `panic!("invalid")`.
    assert_eq!(fs.len(), 2, "{fs:?}");
}

#[test]
fn unnamed_rejection_only_applies_to_parse_paths() {
    // The same anonymous panics outside a parse/validate surface are the
    // unwrap rule's business, not this one's.
    let src = fixture("bad", "unnamed_rejection");
    let fs = analyze_source(
        "crates/core/src/fixture.rs",
        &src,
        &[rules::UNNAMED_REJECTION],
    );
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn unnamed_rejection_clean_fixture_is_silent() {
    let fs = run(
        rules::UNNAMED_REJECTION,
        "crates/json/src/fixture.rs",
        "ok",
        "unnamed_rejection",
    );
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn map_in_cycle_path_fires_in_per_cycle_files() {
    let fs = run(
        rules::MAP_IN_CYCLE_PATH,
        "crates/sim/src/backend.rs",
        "bad",
        "map_in_cycle_path",
    );
    // One BTreeMap field + one HashSet return type; the `use` line itself
    // must NOT fire (imports are not uses of the type).
    assert_eq!(fs.len(), 2, "{fs:?}");
    assert!(fs.iter().all(|f| f.rule == rules::MAP_IN_CYCLE_PATH));
    assert!(fs.iter().all(|f| f.line > 5), "use line fired: {fs:?}");
}

#[test]
fn map_in_cycle_path_only_applies_to_per_cycle_files() {
    // The same maps in a cold-path file of the same crate (spec parsing)
    // are fine — that is the nondeterministic-iteration rule's business.
    let src = fixture("bad", "map_in_cycle_path");
    let fs = analyze_source("crates/sim/src/spec.rs", &src, &[rules::MAP_IN_CYCLE_PATH]);
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn map_in_cycle_path_clean_fixture_is_silent() {
    let fs = run(
        rules::MAP_IN_CYCLE_PATH,
        "crates/sim/src/backend.rs",
        "ok",
        "map_in_cycle_path",
    );
    assert!(fs.is_empty(), "{fs:?}");
}

/// Where the dead-pub fixtures live in the workspace they stand in for.
const WIDGET_HOME: &str = "crates/cache/src/widget.rs";

/// The clean dead-pub fixture's users, one per kind of place a use may come
/// from: (home, fixture in `ok/dead_pub/`).  Each keeps `used_by_<fixture>`
/// alive.
const DEAD_PUB_USERS: [(&str, &str); 3] = [
    ("crates/cache/src/other.rs", "other_tests"),
    ("crates/cache/tests/widget.rs", "integration_test"),
    ("perfbench/layers/src/bin/perfbench/w.rs", "perfbench"),
];

/// Run dead-pub over `widget` and every user but `dropped`.
fn dead_pub_set(widget: &str, dropped: &str) -> Vec<rules::Finding> {
    let mut set = vec![(WIDGET_HOME.to_string(), widget.to_string())];
    for (home, name) in DEAD_PUB_USERS.into_iter().filter(|u| u.1 != dropped) {
        set.push((home.to_string(), fixture("ok/dead_pub", name)));
    }
    analyze_sources(&set, &[rules::DEAD_PUB])
}

#[test]
fn dead_pub_fires_on_own_test_uses_prose_and_strings() {
    let fs = run(rules::DEAD_PUB, WIDGET_HOME, "bad", "dead_pub");
    let named: Vec<_> = fs.iter().map(|f| f.message.split('`').nth(1)).collect();
    let expected = [
        "pub fn tested_only",
        "pub fn prose_only",
        "pub const UNUSED_LIMIT",
        "pub static UNUSED_TABLE",
    ];
    assert_eq!(named, expected.map(Some), "{fs:?}");
}

/// A `pub use` re-export is not a use, and a method counts only calls and
/// paths: a field, local or parameter sharing its name keeps nothing alive.
#[test]
fn dead_pub_sees_through_reexports_and_same_named_bindings() {
    for (name, expected) in [
        ("dead_pub_reexport", &["pub fn reexported_only"][..]),
        (
            "dead_pub_shadowed",
            &["pub fn level", "pub fn reset", "pub fn apply"][..],
        ),
    ] {
        let fs = run(rules::DEAD_PUB, WIDGET_HOME, "bad", name);
        let named: Vec<_> = fs
            .iter()
            .filter_map(|f| f.message.split('`').nth(1))
            .collect();
        assert_eq!(named, expected, "{name}: {fs:?}");
        let ok = run(rules::DEAD_PUB, WIDGET_HOME, "ok", name);
        assert!(ok.is_empty(), "{name}: {ok:?}");
    }
}

#[test]
fn dead_pub_each_kind_of_user_keeps_its_item_alive() {
    let widget = fixture("ok", "dead_pub");
    for (_, dropped) in DEAD_PUB_USERS {
        let fs = dead_pub_set(&widget, dropped);
        assert_eq!(fs.len(), 1, "without {dropped}: {fs:?}");
        assert!(
            fs[0].message.contains(&format!("fn used_by_{dropped}`")),
            "{fs:?}"
        );
    }
}

#[test]
fn dead_pub_pragma_suppresses() {
    let widget = fixture("ok", "dead_pub").replace("// prestage: allow", "// allow");
    let fs = dead_pub_set(&widget, "");
    assert_eq!(fs.len(), 1, "{fs:?}");
    assert!(fs[0].message.contains("kept_by_pragma"), "{fs:?}");
}

#[test]
fn every_rule_has_a_firing_fixture() {
    // Belt and braces for the catalog: adding a rule without a bad
    // fixture fails here, not in review.
    let homes = [
        (
            rules::TRUNCATING_CAST,
            "crates/bpred/src/fixture.rs",
            "truncating_cast",
        ),
        (
            rules::UNCHECKED_COUNTER_ADD,
            "crates/sim/src/fixture.rs",
            "unchecked_counter_add",
        ),
        (
            rules::NONDETERMINISTIC_ITERATION,
            "crates/sim/src/fixture.rs",
            "nondeterministic_iteration",
        ),
        (
            rules::WALLCLOCK_IN_SIM,
            "crates/sim/src/fixture.rs",
            "wallclock_in_sim",
        ),
        (
            rules::UNWRAP_IN_LIB,
            "crates/core/src/fixture.rs",
            "unwrap_in_lib",
        ),
        (
            rules::UNNAMED_REJECTION,
            "crates/json/src/fixture.rs",
            "unnamed_rejection",
        ),
        (
            rules::MAP_IN_CYCLE_PATH,
            "crates/sim/src/backend.rs",
            "map_in_cycle_path",
        ),
        (rules::DEAD_PUB, WIDGET_HOME, "dead_pub"),
    ];
    assert_eq!(homes.len(), prestage_analyze::RULES.len());
    for (rule, home, name) in homes {
        let bad = analyze_source(home, &fixture("bad", name), &[rule]);
        assert!(!bad.is_empty(), "rule {rule} has no firing bad fixture");
        assert!(bad.iter().all(|f| f.rule == rule), "{rule}: {bad:?}");
        let ok = if rule == rules::DEAD_PUB {
            dead_pub_set(&fixture("ok", name), "")
        } else {
            analyze_source(home, &fixture("ok", name), &[rule])
        };
        assert!(
            ok.is_empty(),
            "rule {rule} fires on its clean fixture: {ok:?}"
        );
    }
}
