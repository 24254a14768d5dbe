//! Helpers shared by the integration tests that drive the real `prestage`
//! binary: the CI spec, an env-scrubbed invocation, success assertions and
//! a self-removing scratch directory.

// Each test crate compiles its own copy and uses a subset.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// `specs/ci_shard.json`: 2 presets x 2 sizes x 2 benches = 8 cells.
pub fn spec_file() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("specs/ci_shard.json")
}

/// The real binary with a scrubbed `PRESTAGE_*` environment (file specs
/// ignore it by design, but the tests must not depend on that).
pub fn prestage_cmd() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_prestage"));
    for var in [
        "PRESTAGE_WARMUP",
        "PRESTAGE_MEASURE",
        "PRESTAGE_SEED",
        "PRESTAGE_EXEC_SEED",
        "PRESTAGE_BENCH",
        "PRESTAGE_THREADS",
        "PRESTAGE_RESULTS_DIR",
    ] {
        cmd.env_remove(var);
    }
    cmd
}

/// Run the real binary to completion.
pub fn prestage(args: &[&str]) -> Output {
    prestage_cmd().args(args).output().expect("spawn prestage")
}

/// Assert that `out` succeeded; returns its stdout followed by its stderr.
pub fn assert_ok(out: &Output, what: &str) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{what} failed:\nstdout: {stdout}\nstderr: {stderr}"
    );
    format!("{stdout}{stderr}")
}

/// A scratch directory under the system temp dir, removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("prestage_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    pub fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }

    /// Write `specs/ci_shard.json` with each `(from, to)` text substitution
    /// applied, returning the new file's path.
    pub fn variant(&self, name: &str, edits: &[(&str, &str)]) -> String {
        let mut text = std::fs::read_to_string(spec_file()).unwrap();
        for (from, to) in edits {
            assert!(
                text.contains(from),
                "ci_shard spec changed shape: no {from:?}"
            );
            text = text.replace(from, to);
        }
        let path = self.path(name);
        std::fs::write(&path, text).unwrap();
        path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
