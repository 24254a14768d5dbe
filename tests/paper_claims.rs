//! End-to-end reproduction checks: the paper's *qualitative* claims must
//! hold at small scale on every run.  The full-size quantitative sweeps are
//! the figure binaries in `crates/bench/src/bin/`, which write their CSVs
//! under `results/`.

use fetch_prestaging::prelude::*;
use fetch_prestaging::sim::GridResult;

/// A reduced benchmark set that exercises both big-code and loop-heavy
/// behaviour without making the test suite slow.
const QUICK: [&str; 4] = ["gzip", "gcc", "vortex", "twolf"];

/// Run lengths (warm-up, measured) of the claim checks.
const INSTS: (u64, u64) = (30_000, 100_000);

/// One (preset, L1 size) row over the quick benchmark set.
fn row(
    preset: ConfigPreset,
    tech: TechNode,
    l1: usize,
    (warmup_insts, measure_insts): (u64, u64),
    exec_seed: u64,
) -> GridResult {
    let spec = ExperimentSpec {
        presets: vec![preset],
        tech,
        l1_sizes: vec![l1],
        bench: Some(QUICK.map(String::from).to_vec()),
        warmup_insts,
        measure_insts,
        exec_seed,
        ..ExperimentSpec::default()
    };
    try_run_spec(&spec).unwrap().remove(0).remove(0)
}

fn hmean(preset: ConfigPreset, tech: TechNode, l1: usize) -> f64 {
    row(preset, tech, l1, INSTS, 7).hmean_ipc()
}

#[test]
fn clgp_beats_fdp_beats_baseline_at_small_caches() {
    let tech = TechNode::T045;
    let l1 = 4 << 10;
    let base = hmean(ConfigPreset::BaseL0, tech, l1);
    let fdp = hmean(ConfigPreset::FdpL0, tech, l1);
    let clgp = hmean(ConfigPreset::ClgpL0, tech, l1);
    assert!(fdp > base, "FDP {fdp:.3} <= base {base:.3}");
    assert!(clgp > fdp, "CLGP {clgp:.3} <= FDP {fdp:.3}");
}

#[test]
fn clgp_is_insensitive_to_l1_size() {
    // §5.1: "CLGP almost saturates its performance at very small L1 cache
    // sizes" — the 256B-to-64KB spread must be small relative to the
    // baseline's.
    let tech = TechNode::T045;
    let clgp_small = hmean(ConfigPreset::ClgpL0, tech, 1 << 10);
    let clgp_large = hmean(ConfigPreset::ClgpL0, tech, 64 << 10);
    let ideal_small = hmean(ConfigPreset::Ideal, tech, 1 << 10);
    let ideal_large = hmean(ConfigPreset::Ideal, tech, 64 << 10);
    let clgp_spread = clgp_large / clgp_small - 1.0;
    let ideal_spread = ideal_large / ideal_small - 1.0;
    assert!(
        clgp_spread < ideal_spread,
        "CLGP spread {clgp_spread:.3} not flatter than ideal's {ideal_spread:.3}"
    );
    // And small-cache CLGP already reaches most of large-cache CLGP.
    assert!(
        clgp_small > 0.85 * clgp_large,
        "CLGP collapsed at small caches: {clgp_small:.3} vs {clgp_large:.3}"
    );
}

#[test]
fn clgp_fetches_dominantly_from_prestage_buffer() {
    // §5.2: "The percentage of fetches that are served by the 4-entry
    // pre-buffer is always over 86%" (88% avg; 95% one-cycle with L0).
    let r = row(ConfigPreset::Clgp, TechNode::T045, 8 << 10, INSTS, 7);
    for (name, s) in &r.per_bench {
        let share = s.front.fetch_share(s.front.fetch_pb);
        assert!(
            share > 0.6,
            "{name}: prestage share only {:.1}%",
            100.0 * share
        );
    }
}

#[test]
fn fdp_degenerates_to_the_l1_as_it_grows() {
    // §5.2 / Figure 7(a): "With a 32 KB I-cache, more than 94% of the FDP
    // fetches comes from L1" — the filter stops prefetching what the L1
    // already holds, so FDP inherits the multi-cycle hit.
    let share_at = |l1: usize| {
        let r = row(ConfigPreset::Fdp, TechNode::T045, l1, INSTS, 7);
        r.per_bench
            .iter()
            .map(|(_, s)| s.front.fetch_share(s.front.fetch_l1))
            .sum::<f64>()
            / r.per_bench.len() as f64
    };
    let small = share_at(1 << 10);
    let large = share_at(32 << 10);
    assert!(
        large > small,
        "FDP L1 share should grow with L1 size: {small:.2} -> {large:.2}"
    );
    assert!(large > 0.6, "FDP L1 share at 32K only {large:.2}");
}

#[test]
fn pipelining_helps_the_baseline_but_costs_redirect_depth() {
    let tech = TechNode::T045;
    // At large sizes, pipelining the multi-cycle L1 must beat blocking it.
    let plain = hmean(ConfigPreset::Base, tech, 64 << 10);
    let piped = hmean(ConfigPreset::BasePipelined, tech, 64 << 10);
    assert!(piped > plain, "pipelined {piped:.3} <= blocking {plain:.3}");
    // And the ideal one-cycle cache still beats pipelining (the extra
    // stages cost misprediction penalty).
    let ideal = hmean(ConfigPreset::Ideal, tech, 64 << 10);
    assert!(ideal >= piped, "ideal {ideal:.3} < pipelined {piped:.3}");
}

#[test]
fn technology_scaling_hurts_base_more_than_clgp() {
    // §1/§6: the CLGP advantage grows as the node shrinks.
    let l1 = 8 << 10;
    let gain_at = |tech| {
        let base = hmean(ConfigPreset::BaseL0, tech, l1);
        let clgp = hmean(ConfigPreset::ClgpL0, tech, l1);
        clgp / base
    };
    let gain_090 = gain_at(TechNode::T090);
    let gain_045 = gain_at(TechNode::T045);
    assert!(
        gain_045 > gain_090,
        "CLGP advantage should grow with shrink: {gain_090:.3} -> {gain_045:.3}"
    );
}

#[test]
fn deterministic_end_to_end() {
    let run = || {
        row(
            ConfigPreset::ClgpL0Pb16,
            TechNode::T090,
            2 << 10,
            (10_000, 50_000),
            9,
        )
    };
    let (a, b) = (run(), run());
    for ((n1, s1), (n2, s2)) in a.per_bench.iter().zip(&b.per_bench) {
        assert_eq!(n1, n2);
        assert_eq!(s1.cycles, s2.cycles);
        assert_eq!(s1.committed, s2.committed);
        assert_eq!(s1.redirects, s2.redirects);
        assert_eq!(s1.front, s2.front);
    }
}
