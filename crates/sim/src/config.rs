//! Simulation configuration and the paper's configuration presets.

use crate::backend::BackendConfig;
use prestage_cacti::TechNode;
use prestage_core::{FrontendConfig, ITlbConfig, InsertionPolicy, PrefetcherKind};

/// Every named configuration in the paper's evaluation (Figures 1-8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigPreset {
    /// L1 only, non-pipelined multi-cycle access.
    Base,
    /// `base + L0`: adds the single-cycle filter cache.
    BaseL0,
    /// `base pipelined`: L1 pipelined to one access per cycle.
    BasePipelined,
    /// Figure 1's `ideal`: every L1 size answers in one cycle.
    Ideal,
    /// FDP with the node's single-cycle prefetch buffer.
    Fdp,
    /// FDP + L0.
    FdpL0,
    /// FDP + L0 + 16-entry pipelined prefetch buffer.
    FdpL0Pb16,
    /// CLGP with the node's single-cycle prestage buffer.
    Clgp,
    /// CLGP + L0.
    ClgpL0,
    /// CLGP + L0 + 16-entry pipelined prestage buffer.
    ClgpL0Pb16,
}

impl ConfigPreset {
    /// All presets, figure-legend order.
    pub fn all() -> [ConfigPreset; 10] {
        use ConfigPreset::*;
        [
            Base,
            BaseL0,
            BasePipelined,
            Ideal,
            Fdp,
            FdpL0,
            FdpL0Pb16,
            Clgp,
            ClgpL0,
            ClgpL0Pb16,
        ]
    }

    /// Stable machine-readable identifier: the form `ExperimentSpec` JSON
    /// files and the `prestage` CLI use.  Lowercase, no spaces.
    pub fn id(self) -> &'static str {
        match self {
            ConfigPreset::Base => "base",
            ConfigPreset::BaseL0 => "base+l0",
            ConfigPreset::BasePipelined => "pipelined",
            ConfigPreset::Ideal => "ideal",
            ConfigPreset::Fdp => "fdp",
            ConfigPreset::FdpL0 => "fdp+l0",
            ConfigPreset::FdpL0Pb16 => "fdp+l0+pb16",
            ConfigPreset::Clgp => "clgp",
            ConfigPreset::ClgpL0 => "clgp+l0",
            ConfigPreset::ClgpL0Pb16 => "clgp+l0+pb16",
        }
    }

    /// Parse an [`id`](Self::id) (case-insensitive; the figure-legend
    /// [`label`](Self::label) forms are accepted too).
    pub fn from_id(s: &str) -> Option<ConfigPreset> {
        let s = s.trim().to_lowercase();
        ConfigPreset::all().into_iter().find(|p| {
            p.id() == s
                || p.label().to_lowercase() == s
                // Historical CLI alias.
                || (s == "base-pipelined" && *p == ConfigPreset::BasePipelined)
        })
    }

    /// Label used in figure legends and CSV output.
    pub fn label(self) -> &'static str {
        match self {
            ConfigPreset::Base => "base",
            ConfigPreset::BaseL0 => "base+L0",
            ConfigPreset::BasePipelined => "base pipelined",
            ConfigPreset::Ideal => "ideal",
            ConfigPreset::Fdp => "FDP",
            ConfigPreset::FdpL0 => "FDP+L0",
            ConfigPreset::FdpL0Pb16 => "FDP+L0+PB:16",
            ConfigPreset::Clgp => "CLGP",
            ConfigPreset::ClgpL0 => "CLGP+L0",
            ConfigPreset::ClgpL0Pb16 => "CLGP+L0+PB:16",
        }
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    pub frontend: FrontendConfig,
    pub backend: BackendConfig,
    /// Decode-buffer entries (fetch-to-dispatch elasticity).
    pub decode_buffer: u32,
    /// Instructions to warm caches/predictor before measuring.
    pub warmup_insts: u64,
    /// Instructions measured after warm-up.
    pub measure_insts: u64,
}

impl SimConfig {
    /// Build the paper configuration `preset` at `tech` with the given L1
    /// capacity.
    ///
    /// Pre-buffer and L0 sizes follow §5.1: the single-cycle buffer size at
    /// each node (8 entries / 512 B at 0.09 µm, 4 entries / 256 B at
    /// 0.045 µm), and the `PB:16` variants use a 16-entry pre-buffer
    /// pipelined into its CACTI latency (2 stages at 0.09 µm, 3 at
    /// 0.045 µm).
    pub fn preset(preset: ConfigPreset, tech: TechNode, l1_capacity: usize) -> SimConfig {
        let mut fe = FrontendConfig::base(tech, l1_capacity);
        let one_cycle_lines = FrontendConfig::one_cycle_buffer_lines(tech);
        let l0_bytes = one_cycle_lines * 64;
        match preset {
            ConfigPreset::Base => {}
            ConfigPreset::BaseL0 => {
                fe.l0_capacity = Some(l0_bytes);
            }
            ConfigPreset::BasePipelined => {
                fe.l1_pipelined = true;
            }
            ConfigPreset::Ideal => {
                fe.ideal_l1 = true;
            }
            ConfigPreset::Fdp | ConfigPreset::Clgp => {
                fe.prefetcher = if preset == ConfigPreset::Fdp {
                    PrefetcherKind::Fdp
                } else {
                    PrefetcherKind::Clgp
                };
                fe.pb_entries = one_cycle_lines;
            }
            ConfigPreset::FdpL0 | ConfigPreset::ClgpL0 => {
                fe.prefetcher = if preset == ConfigPreset::FdpL0 {
                    PrefetcherKind::Fdp
                } else {
                    PrefetcherKind::Clgp
                };
                fe.pb_entries = one_cycle_lines;
                fe.l0_capacity = Some(l0_bytes);
            }
            ConfigPreset::FdpL0Pb16 | ConfigPreset::ClgpL0Pb16 => {
                fe.prefetcher = if preset == ConfigPreset::FdpL0Pb16 {
                    PrefetcherKind::Fdp
                } else {
                    PrefetcherKind::Clgp
                };
                fe.pb_entries = 16;
                fe.pb_pipelined = true;
                fe.l0_capacity = Some(l0_bytes);
            }
        }
        SimConfig {
            frontend: fe,
            backend: BackendConfig::default(),
            decode_buffer: 16,
            warmup_insts: 200_000,
            measure_insts: 1_000_000,
        }
    }

    /// Scale the run length (used by tests and quick sweeps).
    pub fn with_insts(mut self, warmup: u64, measure: u64) -> Self {
        self.warmup_insts = warmup;
        self.measure_insts = measure;
        self
    }

    /// Override the front-end prefetch mechanism (the `ExperimentSpec`
    /// `prefetcher` field): the preset keeps its storage shape, only the
    /// engine driving the pre-buffer changes.  Presets without a
    /// pre-buffer (base/ideal) get the node's single-cycle buffer so the
    /// mechanism has somewhere to land lines.
    pub fn with_prefetcher(mut self, kind: PrefetcherKind) -> Self {
        self.frontend.prefetcher = kind;
        if kind != PrefetcherKind::None && self.frontend.pb_entries == 0 {
            self.frontend.pb_entries = FrontendConfig::one_cycle_buffer_lines(self.frontend.tech);
        }
        self
    }

    /// Model an instruction TLB (the `ExperimentSpec` `itlb` field):
    /// `None` keeps translation free, the pre-TLB behavior bit for bit.
    pub fn with_itlb(mut self, itlb: Option<ITlbConfig>) -> Self {
        self.frontend.itlb = itlb;
        self
    }

    /// Force one prefetch-fill insertion policy across mechanisms (the
    /// `ExperimentSpec` `insertion` field); `None` inserts at MRU.
    pub fn with_insertion(mut self, insertion: Option<InsertionPolicy>) -> Self {
        self.frontend.insertion = insertion;
        self
    }

    /// Check every sizing invariant the simulator's storage structures
    /// assume (power-of-two, mask-indexed tables), naming the offending
    /// field.  Spec consumers call this before construction so a bad size
    /// is an error, not a panic deep inside a cache array.
    pub fn validate(&self) -> Result<(), String> {
        self.frontend.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_follow_section_5_1_sizing() {
        let c = SimConfig::preset(ConfigPreset::Clgp, TechNode::T045, 4 << 10);
        assert_eq!(c.frontend.pb_entries, 4); // 256B at 0.045um
        assert_eq!(c.frontend.l0_capacity, None);

        let c = SimConfig::preset(ConfigPreset::ClgpL0, TechNode::T090, 4 << 10);
        assert_eq!(c.frontend.pb_entries, 8); // 512B at 0.09um
        assert_eq!(c.frontend.l0_capacity, Some(512));

        let c = SimConfig::preset(ConfigPreset::FdpL0Pb16, TechNode::T045, 4 << 10);
        assert_eq!(c.frontend.pb_entries, 16);
        assert!(c.frontend.pb_pipelined);
        assert_eq!(c.frontend.pb_latency(), 3);
        assert_eq!(c.frontend.l0_capacity, Some(256));
    }

    #[test]
    fn base_variants_differ_only_in_the_intended_knob() {
        let b = SimConfig::preset(ConfigPreset::Base, TechNode::T045, 8 << 10);
        let p = SimConfig::preset(ConfigPreset::BasePipelined, TechNode::T045, 8 << 10);
        assert!(!b.frontend.l1_pipelined && p.frontend.l1_pipelined);
        let i = SimConfig::preset(ConfigPreset::Ideal, TechNode::T045, 8 << 10);
        assert!(i.frontend.ideal_l1);
        assert_eq!(i.frontend.l1_latency(), 1);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            ConfigPreset::all().iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), ConfigPreset::all().len());
    }
}
