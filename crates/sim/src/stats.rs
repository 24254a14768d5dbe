//! Run statistics and aggregation helpers.

use prestage_bpred::PredStats;
use prestage_cache::BusStats;
use prestage_core::FrontStats;
use serde::{Deserialize, Serialize};

use crate::backend::BackendStats;

/// Everything measured in one simulation run (post-warm-up window).
///
/// All fields (including the nested stat blocks) are integer counters, so
/// equality is exact and the JSON codec in the `wire` module round-trips a
/// run bit-for-bit — the property the `prestage shard`/`merge` pipeline
/// relies on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimStats {
    /// Benchmark-identifying seed the run used.
    pub seed: u64,
    /// Measured cycles.
    pub cycles: u64,
    /// Committed instructions in the measured window.
    pub committed: u64,
    pub front: FrontStats,
    pub bus: BusStats,
    pub pred: PredStats,
    pub backend: BackendStats,
    /// Branch mispredictions that reached resolution (front-end redirects).
    pub redirects: u64,
}

impl SimStats {
    /// Instructions per cycle over the measured window.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Mispredictions per kilo-instruction.
    pub fn mpki(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            1000.0 * self.redirects as f64 / self.committed as f64
        }
    }
}

/// Harmonic mean — the paper aggregates per-benchmark IPC with HMEAN
/// (Figure 6's rightmost bars).
///
/// A non-positive value (a hung config reporting IPC = 0) makes the whole
/// mean 0.0: the harmonic mean of a set containing zero *is* zero, and
/// clamping the reciprocal instead would mask a dead benchmark inside a
/// plausible-looking aggregate.  [`crate::GridResult::zero_ipc_benches`]
/// names the culprits.
pub fn harmonic_mean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    let denom: f64 = values.iter().map(|v| 1.0 / v).sum();
    values.len() as f64 / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_mpki() {
        let s = SimStats {
            cycles: 1000,
            committed: 800,
            redirects: 8,
            ..Default::default()
        };
        assert!((s.ipc() - 0.8).abs() < 1e-12);
        assert!((s.mpki() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_is_zero_ipc() {
        assert_eq!(SimStats::default().ipc(), 0.0);
        assert_eq!(SimStats::default().mpki(), 0.0);
    }

    #[test]
    fn hmean_matches_hand_computation() {
        let h = harmonic_mean(&[1.0, 2.0]);
        assert!((h - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(harmonic_mean(&[]), 0.0);
        // HMEAN is dominated by the slowest benchmark.
        let h2 = harmonic_mean(&[0.1, 2.0, 2.0]);
        assert!(h2 < 0.3);
    }

    #[test]
    fn hmean_propagates_a_hung_config_as_zero() {
        // A zeroed benchmark must not hide inside a plausible aggregate.
        assert_eq!(harmonic_mean(&[0.0, 2.0, 2.0]), 0.0);
        assert_eq!(harmonic_mean(&[-1.0, 2.0]), 0.0);
        assert_eq!(harmonic_mean(&[0.0]), 0.0);
    }
}
