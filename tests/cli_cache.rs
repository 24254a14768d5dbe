//! Integration tests of the cell cache behind `prestage run --cache <dir>`
//! on the real binary: a warm re-run is a pure cache hit byte-identical to
//! `prestage run`, overlapping grids share cells, a killed run resumes by
//! being run again, every result-changing spec field is part of the key,
//! and a damaged entry fails the run by file name instead of being
//! silently recomputed.

mod common;

use common::{assert_ok, prestage, prestage_cmd, spec_file, TempDir};
use std::path::{Path, PathBuf};
use std::process::Stdio;
use std::time::{Duration, Instant};

/// The summary line of a `--cache` run's output.
fn cache_line(log: &str) -> &str {
    log.lines()
        .find(|l| l.starts_with("cache "))
        .unwrap_or_else(|| panic!("no cache summary line in:\n{log}"))
}

/// Every finished entry file under a cache directory.
fn entries(cache: &str) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(fanout) = std::fs::read_dir(cache) else {
        return out;
    };
    for dir in fanout.flatten() {
        for f in std::fs::read_dir(dir.path())
            .into_iter()
            .flatten()
            .flatten()
        {
            if f.path().extension().is_some_and(|e| e == "json") {
                out.push(f.path());
            }
        }
    }
    out.sort();
    out
}

/// `run <spec> --out <file>` without a cache; returns the artifact bytes.
fn plain_run(spec: &str, out: &str) -> Vec<u8> {
    assert_ok(&prestage(&["run", spec, "--out", out]), "plain run");
    std::fs::read(out).unwrap()
}

/// `run <spec> --cache <dir> --out <file>`; returns (summary line, bytes).
fn cached_run(spec: &str, cache: &str, out: &str) -> (String, Vec<u8>) {
    let log = assert_ok(
        &prestage(&["run", spec, "--cache", cache, "--out", out]),
        "cached run",
    );
    (cache_line(&log).to_string(), std::fs::read(out).unwrap())
}

/// The artifact's `rows` (everything after the embedded spec).
fn rows(artifact: &[u8]) -> String {
    let text = String::from_utf8_lossy(artifact);
    let at = text.find("\"rows\"").expect("artifact has rows");
    text[at..].to_string()
}

/// The ci_shard grid plus a third benchmark column: 2 presets x 2 sizes x
/// 3 benches = 12 cells, 8 of them shared with ci_shard.
const WIDEN: (&str, &str) = ("\"mcf\"", "\"mcf\",\n    \"gap\"");

#[test]
fn rerun_is_a_pure_cache_hit_byte_identical_to_run() {
    let dir = TempDir::new("cache_hit");
    let cache = dir.path("cache");
    let spec = dir.variant("wide.json", &[WIDEN]);
    let full = plain_run(&spec, &dir.path("full.json"));

    let (line, cold) = cached_run(&spec, &cache, &dir.path("cold.json"));
    assert!(line.ends_with("12 cell(s), 0 cached, 12 run"), "{line}");
    assert_eq!(cold, full, "cold cached run differs from a plain run");
    assert_eq!(entries(&cache).len(), 12);

    let (line, warm) = cached_run(&spec, &cache, &dir.path("warm.json"));
    assert!(line.ends_with("12 cell(s), 12 cached, 0 run"), "{line}");
    assert_eq!(warm, full, "warm cached run differs from a plain run");
}

#[test]
fn overlapping_sweeps_share_cell_cache_entries() {
    let dir = TempDir::new("cache_overlap");
    let cache = dir.path("cache");
    let narrow = spec_file();
    let narrow = narrow.to_str().unwrap();
    let wide = dir.variant("wide.json", &[WIDEN]);

    let (line, _) = cached_run(narrow, &cache, &dir.path("narrow.json"));
    assert!(line.ends_with("8 cell(s), 0 cached, 8 run"), "{line}");
    let (line, served) = cached_run(&wide, &cache, &dir.path("served_wide.json"));
    assert!(
        line.ends_with("12 cell(s), 8 cached, 4 run"),
        "the superset grid should find all 8 shared cells in the cache: {line}"
    );
    // Shared cells or not, the superset artifact is byte-identical to a
    // fresh run — cached cells are interchangeable.
    assert_eq!(
        served,
        plain_run(&wide, &dir.path("full_wide.json")),
        "superset sweep served from a warm cell cache differs from a cold run"
    );
}

#[test]
fn killed_run_resumes_to_identical_bytes() {
    let dir = TempDir::new("cache_kill_resume");
    let cache = dir.path("cache");
    // Longer cells on one thread widen the window in which the kill lands
    // mid-sweep; `threads` is a host setting, so it is not in the key.
    let slow = dir.variant(
        "slow.json",
        &[
            ("\"measure_insts\": 10000", "\"measure_insts\": 60000"),
            ("\"threads\": null", "\"threads\": 1"),
        ],
    );
    let mut child = prestage_cmd()
        .args(["run", &slow, "--cache", &cache])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cached run");
    // SIGKILL as soon as one cell has been stored: no clean-up runs.
    let t0 = Instant::now();
    while entries(&cache).is_empty() {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "no cell was stored within 60s"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let _ = child.kill();
    let _ = child.wait();
    let stored = entries(&cache).len();
    assert!((1..=8).contains(&stored), "{stored} entries");

    // Running it again is the resume: exactly the stored cells are hits,
    // and the artifact is the uninterrupted run's, byte for byte.
    let (line, resumed) = cached_run(&slow, &cache, &dir.path("resumed.json"));
    assert!(
        line.ends_with(&format!("8 cell(s), {stored} cached, {} run", 8 - stored)),
        "{line}"
    );
    assert_eq!(
        resumed,
        plain_run(&slow, &dir.path("full.json")),
        "resumed sweep differs from an uninterrupted run"
    );
}

#[test]
fn itlb_and_insertion_are_part_of_the_cell_identity() {
    let dir = TempDir::new("cache_identity");
    let cache = dir.path("cache");
    let base = spec_file();
    let base = base.to_str().unwrap();
    let itlb = dir.variant(
        "itlb.json",
        &[(
            "\"itlb\": null",
            "\"itlb\": {\"entries\": 4, \"assoc\": 2, \"page_bytes\": 4096, \"miss_cycles\": 200}",
        )],
    );
    // FDP fills the L1, so the insertion policy moves its cycle counts.
    let fdp = dir.variant("fdp.json", &[("\"base+l0\",\n    \"clgp+l0\"", "\"fdp\"")]);
    let bypass = dir.variant(
        "fdp_bypass.json",
        &[
            ("\"base+l0\",\n    \"clgp+l0\"", "\"fdp\""),
            ("\"insertion\": null", "\"insertion\": \"bypass\""),
        ],
    );
    for (cached_first, variant, n) in [(base, &itlb, 8), (&fdp, &bypass, 4)] {
        let (_, first) = cached_run(cached_first, &cache, &dir.path("first.json"));
        let (line, got) = cached_run(variant, &cache, &dir.path("variant.json"));
        assert!(
            line.ends_with(&format!("{n} cell(s), 0 cached, {n} run")),
            "{variant} must not be served {cached_first}'s cells: {line}"
        );
        let cold = plain_run(variant, &dir.path("cold.json"));
        assert_eq!(
            got, cold,
            "{variant} through the cache differs from its cold run"
        );
        assert_ne!(
            rows(&first),
            rows(&cold),
            "{variant} and {cached_first} simulate identically, so this case cannot fail"
        );
    }
}

#[test]
fn corrupt_entries_fail_the_run_by_file_name() {
    let dir = TempDir::new("cache_corrupt");
    let cache = dir.path("cache");
    let spec = spec_file();
    let spec = spec.to_str().unwrap();
    cached_run(spec, &cache, &dir.path("first.json"));
    let stored = entries(&cache);
    let victim = &stored[3];
    let good = std::fs::read_to_string(victim).unwrap();

    let truncated = &good[..good.len() / 2];
    let forged = good.replacen("\"measure_insts\": 10000", "\"measure_insts\": 10001", 1);
    assert_ne!(forged, good, "entry stores no measure_insts in its key");
    for (damage, text, why) in [
        ("truncated", truncated, "JSON"),
        ("forged key", forged.as_str(), "different key"),
    ] {
        std::fs::write(victim, text).unwrap();
        let out_path = dir.path("damaged.json");
        let out = prestage(&["run", spec, "--cache", &cache, "--out", &out_path]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "a {damage} entry was accepted:\n{stderr}"
        );
        assert!(
            stderr.contains(&victim.display().to_string()) && stderr.contains(why),
            "the {damage} entry's error must name the file: {stderr}"
        );
        // Loud, not recomputed: nothing was written, the entry is as the
        // damage left it, and no other entry appeared.
        assert!(
            !Path::new(&out_path).exists(),
            "a {damage} entry still produced an artifact"
        );
        assert_eq!(std::fs::read_to_string(victim).unwrap(), text);
        assert_eq!(entries(&cache), stored);
    }
}

/// A declared study runs its specs through the same cell cache as the
/// figures: `headline` after `fig5a` simulates only the cells fig5a lacks,
/// and its re-run simulates nothing and prints the same notes.
#[test]
fn studies_share_cells_with_figures_and_rerun_from_the_cache() {
    let dir = TempDir::new("cli_cache_study");
    let cache = dir.path("cache");
    let run = |name: &str| {
        let out = prestage_cmd()
            .args(["run", name, "--cache", &cache])
            .envs([
                ("PRESTAGE_WARMUP", "500"),
                ("PRESTAGE_MEASURE", "2000"),
                ("PRESTAGE_BENCH", "gzip"),
            ])
            .env("PRESTAGE_RESULTS_DIR", dir.path("results"))
            .output()
            .expect("spawn prestage");
        let log = assert_ok(&out, name);
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        (cache_line(&log).to_string(), stdout)
    };
    let (fig5a, _) = run("fig5a");
    assert!(fig5a.ends_with(": 54 cell(s), 0 cached, 54 run"), "{fig5a}");
    // 24 headline cells: 6 presets at 4 KB on each node, CLGP+L0+PB:16 at
    // 1 KB and the 9-size pipelined column at 0.09 um (16 of them fig5a
    // cells), and CLGP and CLGP+L0 at 4 KB and 0.045 um.  The pipelined
    // 4 KB cell at 0.09 um appears twice; its second lookup hits too.
    let (cold, notes) = run("headline");
    assert!(cold.ends_with(": 24 cell(s), 17 cached, 7 run"), "{cold}");
    let (warm, warm_notes) = run("headline");
    assert!(warm.ends_with(": 24 cell(s), 24 cached, 0 run"), "{warm}");
    assert_eq!(warm_notes, notes);
    assert_eq!(notes.lines().count(), 5, "{notes}");
}
