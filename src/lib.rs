//! # fetch-prestaging
//!
//! A full reproduction of **"Effective Instruction Prefetching via Fetch
//! Prestaging"** (Ayose Falcón, Alex Ramirez, Mateo Valero — IPDPS 2005) as
//! a Rust workspace: the Cache Line Guided Prestaging (CLGP) mechanism, the
//! Fetch Directed Prefetching (FDP) baseline it is compared against, and
//! every substrate the evaluation needs — a calibrated CACTI-style timing
//! model, an Alpha-like ISA with a basic-block dictionary, synthetic
//! SPECint2000-like workloads, a cache/bus/memory hierarchy, a cascaded
//! stream predictor, and a trace-driven superscalar simulator with
//! wrong-path execution.
//!
//! This umbrella crate re-exports the workspace members under friendly
//! names; depend on the individual `prestage-*` crates for finer-grained
//! builds.
//!
//! ## Quick start
//!
//! ```
//! use fetch_prestaging::prelude::*;
//!
//! // Build a synthetic gcc-like workload and run CLGP+L0 on a 4 KB L1 at
//! // the 0.045um node.
//! let profile = workload::by_name("gcc").expect("known benchmark");
//! let w = workload::build_workload(&profile, 42);
//! let cfg = SimConfig::preset(ConfigPreset::ClgpL0, TechNode::T045, 4 << 10)
//!     .with_insts(2_000, 10_000);
//! let stats = Engine::new(cfg, &w, 7).run();
//! assert!(stats.ipc() > 0.0);
//! println!("IPC {:.3}, {:.1}% of fetches from the prestage buffer",
//!     stats.ipc(), 100.0 * stats.front.fetch_share(stats.front.fetch_pb));
//! ```

/// CACTI-style timing/area/energy model and SIA roadmap (Tables 1 and 3).
pub use prestage_cacti as cacti;

/// Instruction model and the static basic-block dictionary.
pub use prestage_isa as isa;

/// Cache arrays, array ports, and the shared L2/bus/memory system.
pub use prestage_cache as cache;

/// Stream predictor, RAS, and the gshare baseline.
pub use prestage_bpred as bpred;

/// The paper's contribution: FTQ/CLTQ, FDP and CLGP front-ends.
pub use prestage_core as core;

/// Full-system simulator, configuration presets, sweep runner.
pub use prestage_sim as sim;

/// Synthetic SPECint2000-like workload generation and trace tooling.
pub mod workload {
    pub use prestage_workload::codegen::{build as build_workload, BlockControl};
    pub use prestage_workload::profile::by_name;
    pub use prestage_workload::*;
}

/// The names most programs need.
pub mod prelude {
    pub use crate::workload;
    pub use prestage_cacti::TechNode;
    pub use prestage_core::{FrontendConfig, PrefetcherKind};
    pub use prestage_sim::{
        harmonic_mean, try_run_spec, ConfigPreset, Engine, ExperimentSpec, SimConfig, SimStats,
        Sweep, SweepCell,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn umbrella_reexports_work_together() {
        let p = workload::by_name("gzip").unwrap();
        let mut p = p;
        p.i_footprint_kb = 4;
        p.n_funcs = 8;
        let w = workload::build_workload(&p, 1);
        let cfg =
            SimConfig::preset(ConfigPreset::Base, TechNode::T090, 1 << 10).with_insts(1_000, 5_000);
        let s = Engine::new(cfg, &w, 1).run();
        assert!(s.committed >= 5_000);
    }
}
