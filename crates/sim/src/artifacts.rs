//! Artifact anchoring: the single answer to "where do results land on
//! disk?", shared by the experiment binaries and the CLI through
//! `prestage-bench`'s re-export — so a run from any cwd lands its
//! artifacts exactly where a run from the workspace root would.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Directory where sweep artifacts (CSVs, notes) land: `PRESTAGE_RESULTS_DIR` if set, else
/// `<workspace root>/results` — derived once, independent of the
/// invocation cwd.
///
/// The workspace root is the compile-time manifest root when it still
/// exists (the normal case — and immune to a shared `CARGO_TARGET_DIR`
/// parked inside some *other* workspace); if the checkout moved since the
/// build, it is recovered by walking up from the running binary to the
/// nearest `[workspace]` manifest.
pub fn results_dir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        if let Some(d) = std::env::var_os("PRESTAGE_RESULTS_DIR") {
            return PathBuf::from(d);
        }
        // crates/sim → crates → workspace root, fixed at compile time.
        let baked = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .map(Path::to_path_buf)
            .unwrap_or_else(|| PathBuf::from("."));
        if baked.is_dir() {
            return baked.join("results");
        }
        let near_exe = std::env::current_exe().ok().and_then(|exe| {
            exe.ancestors()
                .find(|d| {
                    std::fs::read_to_string(d.join("Cargo.toml"))
                        .is_ok_and(|m| m.contains("[workspace]"))
                })
                .map(Path::to_path_buf)
        });
        near_exe.unwrap_or(baked).join("results")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_cwd_independent() {
        // Either the env override or the workspace-root default — never a
        // bare relative "results" that depends on the invocation cwd.
        let dir = results_dir();
        assert!(
            dir.is_absolute() || std::env::var_os("PRESTAGE_RESULTS_DIR").is_some(),
            "results dir {dir:?} would depend on the cwd"
        );
    }
}
