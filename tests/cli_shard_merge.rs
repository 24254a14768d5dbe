//! Integration test of the `prestage` CLI's scale-out path: two disjoint
//! shards run as separate OS processes, merged, and diffed byte-for-byte
//! against a single-process `prestage run` of the same spec — the
//! acceptance property of the sharding redesign.

mod common;

use common::{assert_ok, prestage, spec_file, TempDir};
use std::path::Path;

#[test]
fn two_process_shard_merge_equals_single_process_run_byte_exactly() {
    let dir = TempDir::new("shard_merge");
    let spec = spec_file();
    let spec = spec.to_str().unwrap();
    // specs/ci_shard.json: 2 presets x 2 sizes x 2 benches = 8 cells.
    // Deliberately uneven split; merge order deliberately reversed.
    let a = dir.path("a.json");
    let b = dir.path("b.json");
    let merged = dir.path("merged.json");
    let full = dir.path("full.json");
    assert_ok(
        &prestage(&["shard", "--spec", spec, "--cells", "0..3", "--out", &a]),
        "shard A",
    );
    assert_ok(
        &prestage(&["shard", "--spec", spec, "--cells", "3..8", "--out", &b]),
        "shard B",
    );
    assert_ok(&prestage(&["merge", &b, &a, "--out", &merged]), "merge");
    assert_ok(&prestage(&["run", spec, "--out", &full]), "run");

    let merged_bytes = std::fs::read(&merged).unwrap();
    let full_bytes = std::fs::read(&full).unwrap();
    assert!(!merged_bytes.is_empty());
    assert_eq!(
        merged_bytes, full_bytes,
        "merged shard output differs from the single-process run"
    );
}

#[test]
fn merge_refuses_incomplete_or_overlapping_coverage() {
    let dir = TempDir::new("bad_merge");
    let spec = spec_file();
    let spec = spec.to_str().unwrap();
    let a = dir.path("a.json");
    assert_ok(
        &prestage(&["shard", "--spec", spec, "--cells", "0..3", "--out", &a]),
        "shard A",
    );
    // One shard alone: 5 cells missing.
    let out = prestage(&["merge", &a]);
    assert!(!out.status.success(), "merge of a partial grid must fail");
    // The same shard twice: duplicate cells.
    let out = prestage(&["merge", &a, &a]);
    assert!(
        !out.status.success(),
        "merge of overlapping shards must fail"
    );
    // An out-of-range shard request fails up front.
    let out = prestage(&["shard", "--spec", spec, "--cells", "6..9", "--out", &a]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("invalid for this spec"),
        "range error should name the grid size"
    );
}

/// Malformed shard *sets* are refused by name — the stderr must identify
/// the offending files and cell ranges, not die in a merge panic.
#[test]
fn merge_names_the_offending_shards_and_ranges() {
    let dir = TempDir::new("named_refusals");
    let spec = spec_file();
    let spec = spec.to_str().unwrap();
    let a = dir.path("a.json");
    let c = dir.path("c.json");
    assert_ok(
        &prestage(&["shard", "--spec", spec, "--cells", "0..3", "--out", &a]),
        "shard A",
    );
    assert_ok(
        &prestage(&["shard", "--spec", spec, "--cells", "2..8", "--out", &c]),
        "shard C",
    );

    // Overlap: cells 2..3 are claimed twice; both files and ranges named.
    let out = prestage(&["merge", &a, &c]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("overlap") && stderr.contains("0..3") && stderr.contains("2..8"),
        "overlap refusal must name both ranges: {stderr}"
    );

    // Duplicate shards are just total overlap; same named refusal.
    let out = prestage(&["merge", &a, &a]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("overlap"),
        "duplicate-shard refusal should name the overlap"
    );

    // Coverage gap: the missing cell range is named.
    let out = prestage(&["merge", &a]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no shard covers cells 3..8"),
        "gap refusal must name the uncovered range: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A shard whose range runs past the grid: named with the grid size.
    let oob = dir.path("oob.json");
    let text = std::fs::read_to_string(&a).unwrap();
    std::fs::write(
        &oob,
        text.replace("\"start\": 0", "\"start\": 6")
            .replace("\"end\": 3", "\"end\": 9"),
    )
    .unwrap();
    let out = prestage(&["merge", &oob]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("the grid has only 8 cells"),
        "out-of-range refusal must name the grid size: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // An inverted cell range is refused by the shard loader itself
    // (fuzz-harness regression: it used to parse clean).
    let inv = dir.path("inverted.json");
    let text = std::fs::read_to_string(&a).unwrap();
    std::fs::write(
        &inv,
        text.replace("\"start\": 0", "\"start\": 5")
            .replace("\"end\": 3", "\"end\": 2"),
    )
    .unwrap();
    let out = prestage(&["merge", &inv]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("inverted") && stderr.contains("inverted.json"),
        "inverted-range refusal must name the file and defect: {stderr}"
    );
}

/// A hand-edited result that names the wrong cell — a duplicate inside
/// one shard, or a cell another shard already holds — is refused by file
/// and position with exit 2, never merged or answered with a panic.
#[test]
fn merge_names_shards_whose_results_sit_at_the_wrong_cells() {
    let dir = TempDir::new("misplaced_cells");
    let spec = spec_file();
    let spec = spec.to_str().unwrap();
    let a = dir.path("a.json");
    let b = dir.path("b.json");
    assert_ok(
        &prestage(&["shard", "--spec", spec, "--cells", "0..3", "--out", &a]),
        "shard A",
    );
    assert_ok(
        &prestage(&["shard", "--spec", spec, "--cells", "3..8", "--out", &b]),
        "shard B",
    );
    // Cells run preset, then L1 size, then bench: 0..3 is (base+l0, 1K,
    // gzip), (base+l0, 1K, mcf), (base+l0, 4K, gzip); cell 3 is
    // (base+l0, 4K, mcf).
    let edit = |name: &str, from: &str, (old, new): (&str, &str)| {
        let text = std::fs::read_to_string(from).unwrap();
        let edited = text.replacen(old, new, 1);
        assert_ne!(edited, text, "no {old:?} in {from}");
        let path = dir.path(name);
        std::fs::write(&path, edited).unwrap();
        path
    };
    // Result 1 of A repeats cell 0.
    let dup = edit("dup.json", &a, ("\"bench_idx\": 1", "\"bench_idx\": 0"));
    // Result 0 of B names cell 1, which A holds.
    let moved = edit("moved.json", &b, ("\"l1\": 4096", "\"l1\": 1024"));
    // (shards, the refused file, its bad result, the cell due there)
    for (shards, file, result, cell) in [
        ([&dup, &b], "dup.json", 1, 1),
        ([&a, &moved], "moved.json", 0, 3),
    ] {
        let out = prestage(&["merge", shards[0], shards[1]]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{file}: {stderr}");
        let named = [
            format!("{file}: shard result {result} is"),
            format!("cell {cell} of the grid"),
        ];
        assert!(
            named.iter().all(|n| stderr.contains(n.as_str())),
            "{file}: the refusal must name the file and position: {stderr}"
        );
    }
}

/// The acceptance property for the pluggable mechanisms, proven on the
/// real binary: a spec carrying `"prefetcher": "mana"` (and `"progmap"`)
/// shards across two processes and merges back byte-identically to the
/// single-process run.
#[test]
fn mechanism_specs_shard_and_merge_byte_identically() {
    let base = std::fs::read_to_string(spec_file()).unwrap();
    for id in ["mana", "progmap"] {
        let dir = TempDir::new(&format!("mech_{id}"));
        let spec = dir.path("spec.json");
        std::fs::write(
            &spec,
            base.replace("\"prefetcher\": null", &format!("\"prefetcher\": \"{id}\"")),
        )
        .unwrap();
        let a = dir.path("a.json");
        let b = dir.path("b.json");
        let merged = dir.path("merged.json");
        let full = dir.path("full.json");
        assert_ok(
            &prestage(&["shard", "--spec", &spec, "--cells", "0..3", "--out", &a]),
            &format!("{id} shard A"),
        );
        assert_ok(
            &prestage(&["shard", "--spec", &spec, "--cells", "3..8", "--out", &b]),
            &format!("{id} shard B"),
        );
        assert_ok(
            &prestage(&["merge", &b, &a, "--out", &merged]),
            &format!("{id} merge"),
        );
        assert_ok(
            &prestage(&["run", &spec, "--out", &full]),
            &format!("{id} run"),
        );
        let merged_bytes = std::fs::read(&merged).unwrap();
        let full_bytes = std::fs::read(&full).unwrap();
        assert!(!merged_bytes.is_empty());
        assert_eq!(
            merged_bytes, full_bytes,
            "{id}: merged shard output differs from the single-process run"
        );
        // And the artifact embeds the mechanism (experiment identity).
        assert!(
            String::from_utf8_lossy(&full_bytes).contains(&format!("\"prefetcher\": \"{id}\"")),
            "{id}: artifact spec lost the prefetcher field"
        );
    }
}

/// Shards produced under different prefetcher ids describe different
/// experiments: merging them must be refused, like any other spec
/// mismatch.
#[test]
fn merge_refuses_shards_from_different_prefetchers() {
    let dir = TempDir::new("mixed_prefetcher");
    let base = std::fs::read_to_string(spec_file()).unwrap();
    let mana_spec = dir.path("mana.json");
    std::fs::write(
        &mana_spec,
        base.replace("\"prefetcher\": null", "\"prefetcher\": \"mana\""),
    )
    .unwrap();
    let a = dir.path("a.json");
    let b = dir.path("b.json");
    let spec = spec_file();
    assert_ok(
        &prestage(&[
            "shard",
            "--spec",
            spec.to_str().unwrap(),
            "--cells",
            "0..3",
            "--out",
            &a,
        ]),
        "default shard",
    );
    assert_ok(
        &prestage(&[
            "shard", "--spec", &mana_spec, "--cells", "3..8", "--out", &b,
        ]),
        "mana shard",
    );
    let out = prestage(&["merge", &a, &b]);
    assert!(
        !out.status.success(),
        "merging shards of different prefetchers must fail"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("different spec"),
        "refusal should name the spec mismatch"
    );
}

#[test]
fn cli_rejects_unknown_prefetcher_ids_listing_the_valid_set() {
    let dir = TempDir::new("bad_prefetcher");
    let bad = dir.path("bad.json");
    let text = std::fs::read_to_string(spec_file())
        .unwrap()
        .replace("\"prefetcher\": null", "\"prefetcher\": \"mnaa\"");
    std::fs::write(&bad, text).unwrap();
    let out = prestage(&["run", &bad]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown prefetcher \"mnaa\"")
            && stderr.contains("mana")
            && stderr.contains("progmap")
            && stderr.contains("clgp"),
        "stderr must name the typo and the valid mechanism ids: {stderr}"
    );
}

#[test]
fn cli_surfaces_spec_errors_loudly() {
    let dir = TempDir::new("bad_spec");
    let bad = dir.path("bad.json");
    let text = std::fs::read_to_string(spec_file())
        .unwrap()
        .replace("\"gzip\"", "\"gzpi\"");
    std::fs::write(&bad, text).unwrap();
    let out = prestage(&["run", &bad]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown benchmark \"gzpi\"") && stderr.contains("twolf"),
        "stderr must name the typo and the valid set: {stderr}"
    );
    // Unknown figure names list the declared figures.
    let out = prestage(&["run", "fig99"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("fig5b"));
}

/// A study is several specs: every verb that takes exactly one refuses it
/// by name with exit 2, and writes nothing.
#[test]
fn studies_are_refused_by_the_single_spec_verbs() {
    let dir = TempDir::new("study_verbs");
    let out_file = dir.path("out.json");
    let traces = dir.path("traces");
    let shard = ["shard", "--spec", "related_work", "--cells", "0..1"];
    for (study, args, verb) in [
        ("headline", vec!["spec", "headline"], "`prestage spec`"),
        (
            "related_work",
            [&shard[..], &["--out", &out_file]].concat(),
            "`prestage shard`",
        ),
        (
            "headline",
            vec!["trace", "record", "headline", "--out", &traces],
            "`prestage trace record`",
        ),
        (
            "related_work",
            vec!["run", "related_work", "--out", &out_file],
            "`prestage run --out`",
        ),
    ] {
        let out = prestage(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{study:?} is a study of")) && stderr.contains(verb),
            "{args:?} must name the study and {verb}: {stderr}"
        );
        assert!(!Path::new(&out_file).exists(), "{args:?} wrote {out_file}");
        assert!(!Path::new(&traces).exists(), "{args:?} wrote {traces}");
    }
}
