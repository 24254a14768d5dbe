//! # prestage-bench
//!
//! The experiment harness: the declared figures ([`figures`], run by
//! `prestage run <figure>`; `prestage list` prints the index), the table
//! and study binaries in `src/bin/` (`table1`–`table3`, `headline`,
//! `ablate`, `related_work`), the substrate micro-benches in `benches/`,
//! and the shared presentation layer.
//!
//! Since the `ExperimentSpec` redesign the harness has three layers:
//!
//! * **What to run** is an [`prestage_sim::ExperimentSpec`] — the only
//!   way experiments are configured.  The `PRESTAGE_*` environment knobs
//!   survive as a single override layer
//!   ([`ExperimentSpec::env_overrides`](prestage_sim::ExperimentSpec::env_overrides));
//!   no binary reads them directly.
//! * **Which figure is which** lives in [`figures`]: each figure is a
//!   declared spec plus a [`report::ReportKind`], and `prestage run
//!   <name>` runs it.
//! * **How results land on disk** is [`report`] (tables + CSVs), under
//!   [`results_dir`].
//!
//! One environment variable remains artifact plumbing rather than
//! experiment configuration, and is documented as such in the README:
//! `PRESTAGE_RESULTS_DIR` (where CSVs and notes land).
//!
//! Performance is measured by the repository benchmark (`perfbench/`,
//! declared in `BENCHMARK.json`), not by this crate; `benches/substrates.rs`
//! keeps the micro-benches of the substrate hot paths.

pub mod figures;
pub mod report;

use std::io::Write;
use std::path::PathBuf;

/// The paper's L1 I-cache sweep axis, re-exported from the spec module.
pub use prestage_sim::L1_SIZES;

/// Where sweep artifacts land — re-exported from `prestage_sim`; see
/// [`prestage_sim::results_dir`] for the resolution rules.
pub use prestage_sim::results_dir;

/// Human label for a size ("256B", "4K", "1.5K", ...).
///
/// Non-power-of-two sizes render exactly (`1536` → `"1.5K"`, never the
/// truncated `"1K"` that would collide with `1024`): `f64`'s `Display` is
/// the shortest exact representation, so distinct byte counts always get
/// distinct labels.
pub fn size_label(bytes: usize) -> String {
    if bytes < 1024 {
        format!("{bytes}B")
    } else {
        format!("{}K", bytes as f64 / 1024.0)
    }
}

/// Append a record of measured headline values to `headline_notes.txt` in
/// the results directory, next to the figure CSVs; returns its path.
pub fn note_result(name: &str, text: &str) -> PathBuf {
    println!("[{name}] {text}");
    let dir = results_dir();
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join("headline_notes.txt");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .expect("results dir writable");
    let _ = writeln!(f, "[{name}] {text}");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_labels() {
        assert_eq!(size_label(256), "256B");
        assert_eq!(size_label(4096), "4K");
        assert_eq!(size_label(64 << 10), "64K");
    }

    #[test]
    fn size_labels_are_exact_for_odd_sizes() {
        // 1536 used to truncate to "1K" and collide with 1024.
        assert_eq!(size_label(1536), "1.5K");
        assert_eq!(size_label(2560), "2.5K");
        assert_ne!(size_label(1536), size_label(1024));
        // Distinct sizes never collide across a dense range.
        let labels: std::collections::HashSet<String> = (256..4096).map(size_label).collect();
        assert_eq!(labels.len(), 4096 - 256);
    }

    #[test]
    fn sizes_match_paper_axis() {
        assert_eq!(L1_SIZES.len(), 9);
        assert_eq!(L1_SIZES[0], 256);
        assert_eq!(L1_SIZES[8], 64 << 10);
        for w in L1_SIZES.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
    }

    #[test]
    fn results_dir_reexport_is_cwd_independent() {
        // Either the env override or the workspace-root default — never a
        // bare relative "results" that depends on the invocation cwd.
        let dir = results_dir();
        assert!(
            dir.is_absolute() || std::env::var_os("PRESTAGE_RESULTS_DIR").is_some(),
            "results dir {dir:?} would depend on the cwd"
        );
    }
}
