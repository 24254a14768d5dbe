//! Invariant coverage for the flattened hot-path state (PR 9).
//!
//! The raw-speed campaign replaced the engine's per-cycle `BTreeMap`s with
//! flat structures — a block ring, a route table, a line-slot ring with a
//! prefetch cursor, a slot ring with `u64` state bitmaps for the RUU — whose
//! correctness rests on structural invariants (contiguous seqs, set-only flags,
//! bounded occupancy) instead of a map's key discipline.  The correct path
//! is held the same way: one window of instructions that fetch blocks
//! index into, trimmed as blocks complete.  The engine checks those
//! invariants with `debug_assert!`s every cycle and at end of cell; this
//! suite *drives* those checks through mispredict-heavy runs of every
//! preset so a violation fails a normal `cargo test` (dev profile,
//! `debug_assertions` on) loudly rather than corrupting results silently.
//!
//! Covered per run, every cycle: live blocks bounded by queue + in-flight
//! occupancy; the path window bounded by one stream per live block plus
//! the pending one; routes bounded by outstanding L2 requests; no committed
//! RUU slot still marked waiting to issue or on memory.  Covered as blocks
//! arrive and complete: seqs arrive and retire in order.  Covered at
//! redirect: no speculative block/decode state survives the flush, and the
//! window holds only the pending stream.  Covered at end of cell: the hot
//! tables drained back to their steady-state bounds.

use fetch_prestaging::cacti::TechNode;
use fetch_prestaging::sim::{ConfigPreset, Engine, SimConfig};
use fetch_prestaging::workload::{build_workload, by_name};

/// Every preset, run long enough to exercise thousands of cycles of the
/// per-cycle invariant checks plus the end-of-cell drain check.
#[test]
fn per_cycle_invariants_hold_across_presets() {
    let profile = by_name("crafty").expect("known benchmark");
    let w = build_workload(&profile, 42);
    for preset in [
        ConfigPreset::Base,
        ConfigPreset::BasePipelined,
        ConfigPreset::Fdp,
        ConfigPreset::FdpL0,
        ConfigPreset::Clgp,
        ConfigPreset::ClgpL0,
    ] {
        let cfg = SimConfig::preset(preset, TechNode::T045, 4 << 10).with_insts(1_000, 8_000);
        let stats = Engine::new(cfg, &w, 7).run();
        assert!(
            stats.committed >= 8_000,
            "{}: committed {} of 8000 measured instructions",
            preset.label(),
            stats.committed
        );
        // The redirect-flush invariant is only exercised if the run
        // actually mispredicts; crafty's branch mix guarantees it does.
        assert!(
            stats.redirects > 0,
            "{}: no redirects — the post-redirect drain invariant never ran",
            preset.label()
        );
    }
}

/// The invariants must hold under RAS-heavy and pattern-heavy control flow
/// too (deep call stacks stress checkpoint/restore; gcc's branch mix
/// stresses the wrong-path fetch state the flush invariant guards).
#[test]
fn invariants_hold_under_mispredict_pressure() {
    for bench in ["gcc", "gzip", "perlbmk"] {
        let profile = by_name(bench).expect("known benchmark");
        let w = build_workload(&profile, 42);
        // Small L1 + FDP: maximum prefetch traffic, maximum wrong-path
        // fetches, so the route table and pre-buffer churn hardest.
        let cfg =
            SimConfig::preset(ConfigPreset::FdpL0, TechNode::T045, 1 << 10).with_insts(500, 5_000);
        let stats = Engine::new(cfg, &w, 7).run();
        assert!(
            stats.committed >= 5_000 && stats.redirects > 0,
            "{bench}: committed {} redirects {}",
            stats.committed,
            stats.redirects
        );
    }
}

/// This suite's value is the `debug_assert!`s it drives.  Under
/// `cargo test` (dev profile) they are compiled in and this marker
/// records that fact; under `--release` the checks are compiled out, the
/// suite degrades to a does-it-run smoke test, and this marker is
/// (visibly) absent from the test list rather than lying about coverage.
#[cfg(debug_assertions)]
#[test]
fn debug_assertions_are_active_so_invariants_are_checked() {}
