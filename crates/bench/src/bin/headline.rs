//! The paper's headline numbers (abstract and §5.1):
//!
//! * CLGP over FDP at 4 KB: +3.5% (0.09 µm) / +12.5% (0.045 µm) with the
//!   16-entry pipelined pre-buffers; +4.8% / +26% with the small ones.
//! * CLGP over the pipelined baseline at 4 KB: +39% / +48%.
//! * Budget equivalence: CLGP with 2.5 KB total (1 KB L1 + 512 B L0 + 1 KB
//!   PB16 at 0.09 µm) matches a 16 KB pipelined I-cache — 6.4x the budget.
//! * Fetch-source headline: ≥86% of fetches from the prestage buffer
//!   (≈95% from one-cycle sources with an L0).
//!
//! Every section is a derived `ExperimentSpec` — the base spec (with the
//! environment's overrides) re-pointed at the section's presets and sizes.

use prestage_bench::{note_result, size_label, L1_SIZES};
use prestage_cacti::TechNode;
use prestage_sim::{ConfigPreset, ExperimentSpec, GridResult, Sweep};

fn main() {
    let base = ExperimentSpec::from_env();
    // One workload build shared by every section's derived spec — the
    // synthetic program synthesis is the expensive step.
    let w = base
        .build_workloads()
        .unwrap_or_else(|e| panic!("invalid experiment spec: {e}"));
    let run = |spec: &ExperimentSpec| -> Vec<Vec<GridResult>> {
        spec.cells()
            .and_then(|cells| {
                Sweep {
                    workloads: Some(&w),
                    ..Sweep::new(spec, &cells)
                }
                .run()
            })
            .and_then(|results| spec.rows(results))
            .unwrap_or_else(|e| panic!("invalid experiment spec: {e}"))
    };

    for tech in [TechNode::T090, TechNode::T045] {
        // All six presets at 4 KB in one grid on the shared cell pool.
        let spec = ExperimentSpec {
            presets: vec![
                ConfigPreset::ClgpL0Pb16,
                ConfigPreset::FdpL0Pb16,
                ConfigPreset::ClgpL0,
                ConfigPreset::FdpL0,
                ConfigPreset::BasePipelined,
                ConfigPreset::BaseL0,
            ],
            tech,
            l1_sizes: vec![4 << 10],
            ..base.clone()
        };
        let hs: Vec<f64> = run(&spec).iter().map(|row| row[0].hmean_ipc()).collect();
        let (clgp16, fdp16, clgp, fdp, pipe, base_l0) =
            (hs[0], hs[1], hs[2], hs[3], hs[4], hs[5]);
        note_result(
            &format!("headline {}", tech.label()),
            &format!(
                "4KB L1: CLGP+L0+PB16 {:.3} vs FDP+L0+PB16 {:.3} ({:+.1}%); \
                 CLGP+L0 {:.3} vs FDP+L0 {:.3} ({:+.1}%); \
                 CLGP+PB16 over base-pipelined {:.3} ({:+.1}%); \
                 CLGP+PB16 over base+L0 {:.3} ({:+.1}%)",
                clgp16,
                fdp16,
                (clgp16 / fdp16 - 1.0) * 100.0,
                clgp,
                fdp,
                (clgp / fdp - 1.0) * 100.0,
                pipe,
                (clgp16 / pipe - 1.0) * 100.0,
                base_l0,
                (clgp16 / base_l0 - 1.0) * 100.0,
            ),
        );
    }

    // Budget equivalence at 0.09um: CLGP 2.5KB total vs pipelined caches.
    let clgp_1k = run(&ExperimentSpec {
        presets: vec![ConfigPreset::ClgpL0Pb16],
        tech: TechNode::T090,
        l1_sizes: vec![1 << 10],
        ..base.clone()
    })[0][0]
        .hmean_ipc();
    // Walk the pipelined sizes one spec at a time so the search stops at
    // the first match instead of simulating the whole axis.
    let mut equiv = None;
    for &size in &L1_SIZES {
        let pipe = run(&ExperimentSpec {
            presets: vec![ConfigPreset::BasePipelined],
            tech: TechNode::T090,
            l1_sizes: vec![size],
            ..base.clone()
        })[0][0]
            .hmean_ipc();
        equiv = Some((size, pipe));
        if pipe >= clgp_1k {
            break;
        }
    }
    let (esize, epipe) = equiv.unwrap();
    note_result(
        "headline budget",
        &format!(
            "CLGP+L0+PB16 with 1KB L1 (2.5KB total budget) reaches {clgp_1k:.3}; \
             the smallest pipelined I-cache matching it is {} ({} IPC {epipe:.3}) \
             => {}x the 2.5KB budget",
            size_label(esize),
            size_label(esize),
            esize as f64 / 2560.0
        ),
    );

    // Fetch-source headline at 4KB / 0.045um.
    let spec = ExperimentSpec {
        presets: vec![ConfigPreset::Clgp, ConfigPreset::ClgpL0],
        tech: TechNode::T045,
        l1_sizes: vec![4 << 10],
        ..base
    };
    let rows = run(&spec);
    for (preset, row) in spec.presets.iter().zip(&rows) {
        let r = &row[0];
        let (mut pb, mut one) = (0.0, 0.0);
        for (_, s) in &r.per_bench {
            pb += s.front.fetch_share(s.front.fetch_pb);
            one += s.front.one_cycle_share();
        }
        let n = r.per_bench.len() as f64;
        note_result(
            "headline sources",
            &format!(
                "{}: {:.1}% of fetches from the prestage buffer, {:.1}% from one-cycle sources",
                preset.label(),
                100.0 * pb / n,
                100.0 * one / n
            ),
        );
    }
}
