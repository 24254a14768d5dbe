//! SIA technology roadmap (Table 1 of the paper) and node arithmetic.

/// A CMOS technology node from the SIA roadmap used by the paper.
///
/// The paper evaluates two of them (0.09 µm and 0.045 µm) but reproduces the
/// full roadmap row in its Table 1, so we carry all five.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TechNode {
    /// 0.18 µm (1999)
    T180,
    /// 0.13 µm (2001)
    T130,
    /// 0.09 µm (2004) — "current" node in the paper.
    T090,
    /// 0.065 µm (2007)
    T065,
    /// 0.045 µm (2010) — "far future" node in the paper.
    T045,
}

/// One row of the SIA roadmap (Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiaEntry {
    pub node: TechNode,
    pub year: u32,
    /// Feature size in micrometres.
    pub feature_um: f64,
    /// Predicted clock frequency in GHz.
    pub clock_ghz: f64,
    /// Cycle time in nanoseconds (1 / clock).
    pub cycle_ns: f64,
}

/// Table 1 of the paper, verbatim: technological parameters predicted by the
/// Semiconductor Industry Association.
pub const SIA_ROADMAP: [SiaEntry; 5] = [
    SiaEntry {
        node: TechNode::T180,
        year: 1999,
        feature_um: 0.18,
        clock_ghz: 0.5,
        cycle_ns: 2.0,
    },
    SiaEntry {
        node: TechNode::T130,
        year: 2001,
        feature_um: 0.13,
        clock_ghz: 1.7,
        cycle_ns: 0.59,
    },
    SiaEntry {
        node: TechNode::T090,
        year: 2004,
        feature_um: 0.09,
        clock_ghz: 4.0,
        cycle_ns: 0.25,
    },
    SiaEntry {
        node: TechNode::T065,
        year: 2007,
        feature_um: 0.065,
        clock_ghz: 6.7,
        cycle_ns: 0.15,
    },
    SiaEntry {
        node: TechNode::T045,
        year: 2010,
        feature_um: 0.045,
        clock_ghz: 11.5,
        cycle_ns: 0.087,
    },
];

impl TechNode {
    /// The roadmap row for this node.
    pub fn sia(self) -> &'static SiaEntry {
        match self {
            TechNode::T180 => &SIA_ROADMAP[0],
            TechNode::T130 => &SIA_ROADMAP[1],
            TechNode::T090 => &SIA_ROADMAP[2],
            TechNode::T065 => &SIA_ROADMAP[3],
            TechNode::T045 => &SIA_ROADMAP[4],
        }
    }

    /// Feature size in micrometres.
    pub fn feature_um(self) -> f64 {
        self.sia().feature_um
    }

    /// Processor cycle time in nanoseconds at this node.
    pub fn cycle_ns(self) -> f64 {
        self.sia().cycle_ns
    }

    /// Linear gate-delay scale factor relative to CACTI's native 0.80 µm
    /// process.  CACTI 3.0 scales logic delay linearly with feature size.
    pub fn gate_scale(self) -> f64 {
        self.feature_um() / 0.80
    }

    /// Wire-delay scale factor relative to 0.80 µm.  Wires do not improve as
    /// fast as gates when the process shrinks (thinner wires have higher
    /// resistance), which is the core technological premise of the paper
    /// (§2.2, "the future of wires").  We model wire delay as scaling with
    /// the square root of the linear shrink.
    pub fn wire_scale(self) -> f64 {
        self.gate_scale().sqrt()
    }

    /// All nodes, roadmap order.
    pub fn all() -> [TechNode; 5] {
        [
            TechNode::T180,
            TechNode::T130,
            TechNode::T090,
            TechNode::T065,
            TechNode::T045,
        ]
    }

    /// Nanometre shorthand, e.g. `"45"` — the form the CLI's `--tech`
    /// flag and `ExperimentSpec` JSON files use.
    pub fn id(self) -> &'static str {
        match self {
            TechNode::T180 => "180",
            TechNode::T130 => "130",
            TechNode::T090 => "90",
            TechNode::T065 => "65",
            TechNode::T045 => "45",
        }
    }

    /// Parse a node from its [`id`](Self::id) (`"45"`, `"45nm"`) or its
    /// [`label`](Self::label) (`"0.045um"`).
    pub fn from_id(s: &str) -> Option<TechNode> {
        let s = s.trim().to_lowercase();
        let s = s.strip_suffix("nm").unwrap_or(&s);
        TechNode::all()
            .into_iter()
            .find(|n| s == n.id() || s == n.label())
    }

    /// Short human-readable label, e.g. `"0.09um"`.
    pub fn label(self) -> &'static str {
        match self {
            TechNode::T180 => "0.18um",
            TechNode::T130 => "0.13um",
            TechNode::T090 => "0.09um",
            TechNode::T065 => "0.065um",
            TechNode::T045 => "0.045um",
        }
    }
}

impl std::fmt::Display for TechNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roadmap_matches_table1() {
        assert_eq!(SIA_ROADMAP[0].year, 1999);
        assert_eq!(SIA_ROADMAP[4].year, 2010);
        assert!((TechNode::T090.cycle_ns() - 0.25).abs() < 1e-12);
        assert!((TechNode::T045.cycle_ns() - 0.087).abs() < 1e-12);
        assert!((TechNode::T045.sia().clock_ghz - 11.5).abs() < 1e-12);
    }

    #[test]
    fn cycle_time_is_inverse_clock_within_rounding() {
        // Table 1 rounds cycle times; check they are consistent with the
        // clock column to ~5%.
        for e in &SIA_ROADMAP {
            let implied = 1.0 / e.clock_ghz;
            assert!(
                (implied - e.cycle_ns).abs() / implied < 0.06,
                "{:?}: {} vs {}",
                e.node,
                implied,
                e.cycle_ns
            );
        }
    }

    #[test]
    fn scaling_factors_are_monotone() {
        let nodes = TechNode::all();
        for w in nodes.windows(2) {
            assert!(w[0].gate_scale() > w[1].gate_scale());
            assert!(w[0].wire_scale() > w[1].wire_scale());
            // Wires improve more slowly than gates.
            assert!(w[1].wire_scale() / w[0].wire_scale() > w[1].gate_scale() / w[0].gate_scale());
        }
    }
}
