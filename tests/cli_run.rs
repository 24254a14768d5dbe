//! Integration tests of how `prestage run` resolves a declared name and
//! runs its specs, on the real binary: a directory never shadows a
//! declared name, a malformed `PRESTAGE_*` value is a named error rather
//! than a panic, and a study simulates each distinct spec once.

mod common;

use common::{assert_ok, prestage_cmd, TempDir};
use std::process::Output;

/// `prestage run <args>` from `cwd` at tiny `PRESTAGE_*` sizes on gzip,
/// writing its results under `results`, with `env` set on top.
fn run_tiny(cwd: &str, results: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    prestage_cmd()
        .arg("run")
        .args(args)
        .current_dir(cwd)
        .envs([
            ("PRESTAGE_WARMUP", "500"),
            ("PRESTAGE_MEASURE", "2000"),
            ("PRESTAGE_BENCH", "gzip"),
            ("PRESTAGE_RESULTS_DIR", results),
        ])
        .envs(env.iter().copied())
        .output()
        .expect("spawn prestage")
}

/// Only a regular file is a spec file: a directory named like a declared
/// figure still runs the figure, and a directory with an undeclared name
/// is refused as neither.
#[test]
fn a_directory_never_shadows_a_declared_name() {
    let dir = TempDir::new("cli_run_dir");
    let (cwd, results) = (dir.path("cwd"), dir.path("results"));
    for name in ["fig6", "nosuch"] {
        std::fs::create_dir_all(dir.0.join("cwd").join(name)).unwrap();
    }
    assert_ok(&run_tiny(&cwd, &results, &["fig6"], &[]), "run fig6");
    assert!(dir.0.join("results/fig6.csv").exists());

    let out = run_tiny(&cwd, &results, &["nosuch"], &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("\"nosuch\" is neither a spec file nor a declared name"),
        "{stderr}"
    );
}

/// A malformed override exits 2 with the variable's name instead of
/// panicking.
#[test]
fn a_malformed_env_value_exits_2_naming_the_variable() {
    let dir = TempDir::new("cli_run_env");
    let env = [("PRESTAGE_MEASURE", "1e6")];
    let out = run_tiny(&dir.path(""), &dir.path("results"), &["fig6"], &env);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("PRESTAGE_MEASURE must be an unsigned integer")
            && !stderr.contains("panicked"),
        "{stderr}"
    );
}

/// `related_work` declares 22 specs, five of them equal to an earlier one
/// (`mechanism/FDP`, `mechanism/CLGP`, and the `tlb-off` rows of next-line,
/// MANA and program-map): uncached on one benchmark it simulates 17 cells,
/// and writes exactly the files a cached run writes.
#[test]
fn an_uncached_study_simulates_each_distinct_spec_once() {
    let dir = TempDir::new("cli_run_dedup");
    let cwd = dir.path("");
    let plain = run_tiny(&cwd, &dir.path("plain"), &["related_work"], &[]);
    let log = assert_ok(&plain, "uncached related_work");
    assert!(log.contains("  ran 17 cells in "), "{log}");

    let cache = dir.path("cache");
    let args = ["related_work", "--cache", &cache];
    let cached = run_tiny(&cwd, &dir.path("cached"), &args, &[]);
    assert_ok(&cached, "cached related_work");
    assert_eq!(plain.stdout, cached.stdout);
    for file in [
        "related_work.csv",
        "related_work_mechanisms.csv",
        "related_work_tlb.csv",
        "headline_notes.txt",
    ] {
        let read = |run: &str| std::fs::read(dir.0.join(run).join(file)).unwrap();
        assert_eq!(read("plain"), read("cached"), "{file}");
    }
}
