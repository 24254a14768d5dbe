//! Integration test of the `prestage` CLI's trace path, through the real
//! binary: record a spec's traces, inspect one, replay the spec — whole
//! and sharded across two processes — and hold every artifact
//! byte-identical to the live-generation run (the acceptance property of
//! the record-once/replay-everywhere redesign).  Mirrors
//! `tests/cli_shard_merge.rs`.

mod common;

use common::{assert_ok, prestage, prestage_cmd, spec_file, TempDir};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::Stdio;

/// The committed CI spec must be canonical bytes (parse → re-serialize is
/// identity): the CI replay job rewrites it with `sed`, which only works
/// if the file is exactly what the writer would emit.
#[test]
fn ci_shard_spec_is_canonical_and_live() {
    let text = std::fs::read_to_string(spec_file()).unwrap();
    let spec = prestage_sim::ExperimentSpec::from_json(&text).unwrap();
    assert_eq!(spec.to_json(), text, "specs/ci_shard.json is not canonical");
    assert_eq!(spec.trace, None, "the committed CI spec must generate live");
    assert!(text.contains("\"trace\": null"), "sed anchor missing");
}

/// Write a replay twin of the CI spec pointing at `traces`.
fn replay_spec_into(dir: &TempDir, traces: &str) -> String {
    let trace = format!("\"trace\": {{\"dir\": {traces:?}}}");
    dir.variant("replay_spec.json", &[("\"trace\": null", &trace)])
}

#[test]
fn record_info_replay_run_and_shards_match_live_byte_exactly() {
    let dir = TempDir::new("cli_trace");
    let spec = spec_file();
    let spec = spec.to_str().unwrap();
    let traces = dir.path("traces");

    // Record: one v2 trace per benchmark of the spec.
    let log = assert_ok(
        &prestage(&["trace", "record", spec, "--out", &traces]),
        "trace record",
    );
    assert!(log.contains("recorded 2 trace(s)"), "{log}");
    let gzip_trace = format!("{traces}/gzip-w42-x42.pstr");
    assert!(Path::new(&gzip_trace).exists());
    assert!(Path::new(&format!("{traces}/mcf-w42-x42.pstr")).exists());

    // Info: the header self-describes and every chunk CRC verifies.
    let info = assert_ok(&prestage(&["trace", "info", &gzip_trace]), "trace info");
    for needle in [
        "PSTR v2",
        "profile:       gzip",
        "workload_seed: 42",
        "verified:",
    ] {
        assert!(
            info.contains(needle),
            "info output missing {needle:?}:\n{info}"
        );
    }

    // Replay the spec — whole run, then two disjoint shard processes.
    let replay_spec = replay_spec_into(&dir, &traces);
    let replayed = dir.path("replayed.json");
    let live = dir.path("live.json");
    assert_ok(
        &prestage(&["run", &replay_spec, "--out", &replayed]),
        "replay run",
    );
    assert_ok(&prestage(&["run", spec, "--out", &live]), "live run");
    let replayed_bytes = std::fs::read(&replayed).unwrap();
    let live_bytes = std::fs::read(&live).unwrap();
    assert!(!replayed_bytes.is_empty());
    assert_eq!(
        replayed_bytes, live_bytes,
        "replayed grid artifact differs from the live-generation run"
    );

    // Shards replay too (each process re-opens the same trace files), and
    // a replay shard merges with a *live* shard: the committed-path source
    // is execution detail, not experiment identity.
    let a = dir.path("a.json");
    let b = dir.path("b.json");
    let merged = dir.path("merged.json");
    assert_ok(
        &prestage(&[
            "shard",
            "--spec",
            &replay_spec,
            "--cells",
            "0..5",
            "--out",
            &a,
        ]),
        "replay shard A",
    );
    assert_ok(
        &prestage(&["shard", "--spec", spec, "--cells", "5..8", "--out", &b]),
        "live shard B",
    );
    assert_ok(&prestage(&["merge", &b, &a, "--out", &merged]), "merge");
    assert_eq!(
        std::fs::read(&merged).unwrap(),
        live_bytes,
        "mixed replay/live shard merge differs from the single-process run"
    );
}

#[test]
fn replay_failures_are_loud_and_name_the_cure() {
    let dir = TempDir::new("cli_trace_bad");

    // Replaying before recording: the error names the record command.
    let replay_spec = replay_spec_into(&dir, &dir.path("missing"));
    let out = prestage(&["run", &replay_spec]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("prestage trace record"),
        "error must point at the record command: {stderr}"
    );

    // A corrupted trace is refused by `info` with the chunk named.
    let traces = dir.path("traces");
    let spec = spec_file();
    assert_ok(
        &prestage(&["trace", "record", spec.to_str().unwrap(), "--out", &traces]),
        "trace record",
    );
    let victim = format!("{traces}/mcf-w42-x42.pstr");
    let mut bytes = std::fs::read(&victim).unwrap();
    // Flip a byte early in the first chunk's payload: replay streams the
    // file and only verifies what it reads, so corruption must sit inside
    // the replayed prefix to be observable.
    bytes[100] ^= 0xFF;
    std::fs::write(&victim, &bytes).unwrap();
    let out = prestage(&["trace", "info", &victim]);
    assert!(!out.status.success(), "info must fail on a corrupt trace");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("CRC mismatch"), "{stderr}");

    // And a replay over it dies loudly rather than producing numbers.
    let out = prestage(&["run", &replay_spec_into(&dir, &traces)]);
    assert!(!out.status.success(), "run over a corrupt trace must fail");
}

/// A reader that stops early (`prestage trace info t | head -1`) ends the
/// output quietly: no panic text and a clean exit, not the 101 of a
/// `println!` panic.  `trace info` loses the pipe after its first line
/// (its last line follows the whole-file verify); `list` loses it before
/// its first write; `run fig6` loses it before its table, and still writes
/// its `--out` artifact after the headline note that used to panic; `run
/// headline` prints nothing but notes.
#[test]
fn a_closed_stdout_ends_output_quietly() {
    let dir = TempDir::new("cli_trace_pipe");
    let traces = dir.path("traces");
    let spec = spec_file();
    assert_ok(
        &prestage(&["trace", "record", spec.to_str().unwrap(), "--out", &traces]),
        "trace record",
    );
    let trace = format!("{traces}/gzip-w42-x42.pstr");
    let artifact = dir.path("fig6.json");
    for (args, first_line) in [
        (vec!["trace", "info", trace.as_str()], Some("PSTR v2")),
        (vec!["list"], None),
        (vec!["run", "fig6", "--out", artifact.as_str()], None),
        (vec!["run", "headline"], None),
    ] {
        let mut child = prestage_cmd()
            .args(&args)
            .envs([
                ("PRESTAGE_WARMUP", "500"),
                ("PRESTAGE_MEASURE", "2000"),
                ("PRESTAGE_BENCH", "gzip,gcc"),
            ])
            .env("PRESTAGE_RESULTS_DIR", dir.path("results"))
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn prestage");
        let stdout = child.stdout.take().unwrap();
        if let Some(needle) = first_line {
            let mut line = String::new();
            BufReader::new(stdout).read_line(&mut line).unwrap();
            assert!(line.contains(needle), "{args:?} first line: {line:?}");
        } // Dropping the reader closes the pipe.
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.status.success(), "{args:?}: {stderr}");
    }
    let written = std::fs::read_to_string(&artifact).expect("fig6 --out artifact written");
    assert!(written.contains("\"rows\""), "{written}");
    assert!(Path::new(&dir.path("results/fig6.csv")).exists());
}
