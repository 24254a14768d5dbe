//! The paper's figures as declarations.
//!
//! Each figure is an [`ExperimentSpec`] (what to run) plus a
//! [`ReportKind`] (how to present it).  `prestage run <figure>` runs one:
//! the declared spec with the environment's `PRESTAGE_*` overrides applied
//! through the spec's single [`env_overrides`](ExperimentSpec::env_overrides)
//! layer, rendered by [`report::render`](crate::report::render)
//! (`prestage list` prints the index).

use crate::report::ReportKind;
use prestage_cacti::TechNode;
use prestage_sim::{ConfigPreset, ExperimentSpec};

/// One declared figure.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Name: the CLI handle and the CSV base name ("fig5a" → fig5a.csv).
    pub name: &'static str,
    pub title: &'static str,
    pub report: ReportKind,
    /// The figure's experiment, before environment overrides.
    pub make_spec: fn() -> ExperimentSpec,
}

/// A spec over the full L1 axis at 0.045 µm with the given presets — the
/// shape of most figures; the defaults carry the §5.1 run lengths.
fn sweep_spec(presets: &[ConfigPreset]) -> ExperimentSpec {
    ExperimentSpec {
        presets: presets.to_vec(),
        ..ExperimentSpec::default()
    }
}

fn fig1() -> ExperimentSpec {
    use ConfigPreset::*;
    sweep_spec(&[Ideal, BasePipelined, BaseL0, Base])
}

fn fig2() -> ExperimentSpec {
    use ConfigPreset::*;
    sweep_spec(&[FdpL0, Fdp])
}

fn fig4() -> ExperimentSpec {
    use ConfigPreset::*;
    sweep_spec(&[ClgpL0, Clgp])
}

/// Figure 5's legend: every technique, proposed configurations first.
const FIG5_PRESETS: [ConfigPreset; 6] = [
    ConfigPreset::ClgpL0Pb16,
    ConfigPreset::ClgpL0,
    ConfigPreset::FdpL0Pb16,
    ConfigPreset::FdpL0,
    ConfigPreset::BasePipelined,
    ConfigPreset::BaseL0,
];

fn fig5a() -> ExperimentSpec {
    ExperimentSpec {
        tech: TechNode::T090,
        ..sweep_spec(&FIG5_PRESETS)
    }
}

fn fig5b() -> ExperimentSpec {
    sweep_spec(&FIG5_PRESETS)
}

fn fig6() -> ExperimentSpec {
    use ConfigPreset::*;
    ExperimentSpec {
        l1_sizes: vec![8 << 10],
        ..sweep_spec(&[BasePipelined, FdpL0Pb16, ClgpL0Pb16])
    }
}

fn fig7a() -> ExperimentSpec {
    use ConfigPreset::*;
    sweep_spec(&[Fdp, Clgp])
}

fn fig7b() -> ExperimentSpec {
    use ConfigPreset::*;
    sweep_spec(&[FdpL0, ClgpL0])
}

fn fig8() -> ExperimentSpec {
    use ConfigPreset::*;
    sweep_spec(&[Fdp, Clgp])
}

/// Every declared figure, paper order.
pub const FIGURES: [Figure; 9] = [
    Figure {
        name: "fig1",
        title: "Figure 1 — L1 latency vs IPC (0.045um, HMEAN over SPECint2000)",
        report: ReportKind::Sweep,
        make_spec: fig1,
    },
    Figure {
        name: "fig2",
        title: "Figure 2(b) — FDP with/without L0 (0.045um)",
        report: ReportKind::Sweep,
        make_spec: fig2,
    },
    Figure {
        name: "fig4",
        title: "Figure 4(b) — CLGP with/without L0 (0.045um)",
        report: ReportKind::Sweep,
        make_spec: fig4,
    },
    Figure {
        name: "fig5a",
        title: "Figure 5(a) — all techniques at 0.09um",
        report: ReportKind::Sweep,
        make_spec: fig5a,
    },
    Figure {
        name: "fig5b",
        title: "Figure 5(b) — all techniques at 0.045um",
        report: ReportKind::Sweep,
        make_spec: fig5b,
    },
    Figure {
        name: "fig6",
        title: "Figure 6 — per-benchmark IPC (8KB L1, 0.045um)",
        report: ReportKind::PerBench,
        make_spec: fig6,
    },
    Figure {
        name: "fig7a",
        title: "Figure 7(a) — fetch source distribution (%, 0.045um)",
        report: ReportKind::FetchSources,
        make_spec: fig7a,
    },
    Figure {
        name: "fig7b",
        title: "Figure 7(b) — fetch source distribution with L0 (%, 0.045um)",
        report: ReportKind::FetchSources,
        make_spec: fig7b,
    },
    Figure {
        name: "fig8",
        title: "Figure 8 — prefetch source distribution (%, 0.045um)",
        report: ReportKind::PrefetchSources,
        make_spec: fig8,
    },
];

/// Look up a figure declaration by name.
pub fn by_name(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_names_are_unique_and_specs_validate() {
        let mut seen = std::collections::HashSet::new();
        for fig in &FIGURES {
            assert!(seen.insert(fig.name), "duplicate figure {}", fig.name);
            let spec = (fig.make_spec)();
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", fig.name));
            // Declared figures serialize (the golden files in specs/ are
            // generated from these).
            let back = ExperimentSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(back, spec, "{}", fig.name);
        }
        assert!(by_name("fig6").is_some());
        assert!(by_name("fig3").is_none());
    }

    #[test]
    fn per_bench_figures_have_one_size() {
        for fig in &FIGURES {
            if fig.report == ReportKind::PerBench {
                assert_eq!((fig.make_spec)().l1_sizes.len(), 1, "{}", fig.name);
            }
        }
    }
}
