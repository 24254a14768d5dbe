//! The paper's figures and studies as declarations.
//!
//! Every declaration is a [`Study`]: labelled [`ExperimentSpec`]s (what
//! to run) plus a renderer from [`report`] (how to present them).  A
//! figure is a study of one spec, labelled with the figure's name (the
//! CSV base name); `related_work` and `headline` are studies of several.
//! `prestage run <name>` runs any of them with the environment's
//! `PRESTAGE_*` overrides applied to each spec through its single
//! [`env_overrides`](ExperimentSpec::env_overrides) layer, and `prestage
//! list` prints the index.  The cells are ordinary spec cells, so `run
//! --cache` shares them across figures and studies.

use crate::report::{self, StudyRun};
use crate::L1_SIZES;
use prestage_cacti::TechNode;
use prestage_sim::{ConfigPreset, ExperimentSpec, ITlbConfig, PredictorKind, PrefetcherKind};

/// One declared study: labelled experiments run together and rendered as
/// one report.
#[derive(Debug, Clone, Copy)]
pub struct Study {
    /// Name: the CLI handle.
    pub name: &'static str,
    pub title: &'static str,
    /// The labelled experiments (`section/row`, or a figure's name),
    /// before environment overrides.  All of them share one benchmark set
    /// and seed, so an uncached run builds the workloads once.
    pub make_specs: fn() -> Vec<(String, ExperimentSpec)>,
    /// Print the report under `title` from the runs and write its files;
    /// an `Err` names the row that broke one of the study's expectations
    /// or the file that could not be written.
    pub render: fn(title: &str, runs: &[StudyRun]) -> Result<(), String>,
}

/// A figure's one spec, labelled with the figure's `name`.
fn figure(name: &str, spec: ExperimentSpec) -> Vec<(String, ExperimentSpec)> {
    vec![(name.to_string(), spec)]
}

/// A spec over the full L1 axis at 0.045 µm with the given presets — the
/// shape of most figures; the defaults carry the §5.1 run lengths.
fn sweep_spec(presets: &[ConfigPreset]) -> ExperimentSpec {
    ExperimentSpec {
        presets: presets.to_vec(),
        ..ExperimentSpec::default()
    }
}

fn fig1() -> Vec<(String, ExperimentSpec)> {
    use ConfigPreset::*;
    figure("fig1", sweep_spec(&[Ideal, BasePipelined, BaseL0, Base]))
}

fn fig2() -> Vec<(String, ExperimentSpec)> {
    use ConfigPreset::*;
    figure("fig2", sweep_spec(&[FdpL0, Fdp]))
}

fn fig4() -> Vec<(String, ExperimentSpec)> {
    use ConfigPreset::*;
    figure("fig4", sweep_spec(&[ClgpL0, Clgp]))
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

fn fig5a() -> Vec<(String, ExperimentSpec)> {
    let spec = ExperimentSpec {
        tech: TechNode::T090,
        ..sweep_spec(&FIG5_PRESETS)
    };
    figure("fig5a", spec)
}

fn fig5b() -> Vec<(String, ExperimentSpec)> {
    figure("fig5b", sweep_spec(&FIG5_PRESETS))
}

fn fig6() -> Vec<(String, ExperimentSpec)> {
    use ConfigPreset::*;
    let spec = ExperimentSpec {
        l1_sizes: vec![8 << 10],
        ..sweep_spec(&[BasePipelined, FdpL0Pb16, ClgpL0Pb16])
    };
    figure("fig6", spec)
}

fn fig7a() -> Vec<(String, ExperimentSpec)> {
    use ConfigPreset::*;
    figure("fig7a", sweep_spec(&[Fdp, Clgp]))
}

fn fig7b() -> Vec<(String, ExperimentSpec)> {
    use ConfigPreset::*;
    figure("fig7b", sweep_spec(&[FdpL0, ClgpL0]))
}

fn fig8() -> Vec<(String, ExperimentSpec)> {
    use ConfigPreset::*;
    figure("fig8", sweep_spec(&[Fdp, Clgp]))
}

/// A one-preset spec at 4 KB and 0.045 µm, with `prefetcher` swapping the
/// preset's mechanism where set.
fn at_4k(preset: ConfigPreset, prefetcher: Option<PrefetcherKind>) -> ExperimentSpec {
    ExperimentSpec {
        presets: vec![preset],
        l1_sizes: vec![4 << 10],
        prefetcher,
        ..ExperimentSpec::default()
    }
}

fn related_work_specs() -> Vec<(String, ExperimentSpec)> {
    use ConfigPreset::*;
    use PrefetcherKind::{Mana, NextLine, ProgMap};
    let rows = [
        // The prefetch-scheme ladder: none -> next-line -> FDP -> CLGP.
        ("ladder/no prefetch (base)", at_4k(Base, None)),
        ("ladder/next-2-line", at_4k(Fdp, Some(NextLine))),
        ("ladder/FDP", at_4k(Fdp, None)),
        ("ladder/CLGP", at_4k(Clgp, None)),
        // The record-and-replay mechanisms ride the FDP preset shape, so
        // all four share one pre-buffer budget.
        ("mechanism/FDP", at_4k(Fdp, None)),
        ("mechanism/CLGP", at_4k(Clgp, None)),
        ("mechanism/MANA", at_4k(Fdp, Some(Mana))),
        ("mechanism/progmap", at_4k(Fdp, Some(ProgMap))),
        ("predictor/stream predictor (paper)", at_4k(ClgpL0, None)),
        (
            "predictor/gshare 16K",
            ExperimentSpec {
                predictor: PredictorKind::Gshare,
                ..at_4k(ClgpL0, None)
            },
        ),
    ];
    let mut specs: Vec<(String, ExperimentSpec)> =
        rows.into_iter().map(|(l, s)| (l.to_string(), s)).collect();
    for kind in PrefetcherKind::all() {
        let off = at_4k(Fdp, Some(kind));
        let on = ExperimentSpec {
            itlb: Some(ITlbConfig::default_config()),
            ..off.clone()
        };
        specs.push((format!("tlb-off/{}", kind.id()), off));
        specs.push((format!("tlb-on/{}", kind.id()), on));
    }
    specs
}

/// Related-work comparison (§2.1): classic next-N-line prefetching against
/// the branch-predictor-guided schemes; the per-benchmark mechanism
/// comparison (CLGP vs FDP vs MANA vs program-map traversal, each a
/// `prefetcher` spec id) with CACTI cost columns for each mechanism's
/// metadata; the six mechanisms with the spec's `itlb` set to the default
/// i-TLB, which every fetched *and prefetched* address pays; and the
/// predictor ablation behind the paper's claim, via \[4\]/\[16\], that
/// branch-prediction-based prefetching tracks predictor quality.
const RELATED_WORK: Study = Study {
    name: "related_work",
    title: "Related work — scheme ladder, mechanisms, i-TLB, predictors (4KB L1, 0.045um)",
    make_specs: related_work_specs,
    render: report::related_work,
};

fn headline_specs() -> Vec<(String, ExperimentSpec)> {
    use ConfigPreset::*;
    use TechNode::{T045, T090};
    let at = |presets: &[ConfigPreset], tech, l1_sizes: &[usize]| ExperimentSpec {
        presets: presets.to_vec(),
        tech,
        l1_sizes: l1_sizes.to_vec(),
        ..ExperimentSpec::default()
    };
    [
        ("presets/0.09um", at(&FIG5_PRESETS, T090, &[4 << 10])),
        ("presets/0.045um", at(&FIG5_PRESETS, T045, &[4 << 10])),
        ("budget/clgp", at(&[ClgpL0Pb16], T090, &[1 << 10])),
        ("budget/pipelined", at(&[BasePipelined], T090, &L1_SIZES)),
        ("sources/4K", at(&[Clgp, ClgpL0], T045, &[4 << 10])),
    ]
    .into_iter()
    .map(|(l, s)| (l.to_string(), s))
    .collect()
}

/// The paper's headline numbers (abstract and §5.1):
///
/// * CLGP over FDP at 4 KB: +3.5% (0.09 µm) / +12.5% (0.045 µm) with the
///   16-entry pipelined pre-buffers; +4.8% / +26% with the small ones.
/// * CLGP over the pipelined baseline at 4 KB: +39% / +48%.
/// * Budget equivalence: CLGP with 2.5 KB total (1 KB L1 + 512 B L0 + 1 KB
///   PB16 at 0.09 µm) matches a 16 KB pipelined I-cache — 6.4x the budget.
/// * Fetch-source headline: ≥86% of fetches from the prestage buffer
///   (≈95% from one-cycle sources with an L0).
///
/// Every run is a set of fig5a, fig5b, fig7a and fig7b cells, so `prestage
/// run headline --cache` answers it from those figures' cells.
const HEADLINE: Study = Study {
    name: "headline",
    title: "Headline numbers — CLGP vs FDP and baselines, budget equivalence, fetch sources",
    make_specs: headline_specs,
    render: report::headline,
};

/// Every declared figure and study: the figures in paper order, then the
/// studies.
pub const STUDIES: [Study; 11] = [
    Study {
        name: "fig1",
        title: "Figure 1 — L1 latency vs IPC (0.045um, HMEAN over SPECint2000)",
        make_specs: fig1,
        render: report::sweep,
    },
    Study {
        name: "fig2",
        title: "Figure 2(b) — FDP with/without L0 (0.045um)",
        make_specs: fig2,
        render: report::sweep,
    },
    Study {
        name: "fig4",
        title: "Figure 4(b) — CLGP with/without L0 (0.045um)",
        make_specs: fig4,
        render: report::sweep,
    },
    Study {
        name: "fig5a",
        title: "Figure 5(a) — all techniques at 0.09um",
        make_specs: fig5a,
        render: report::sweep,
    },
    Study {
        name: "fig5b",
        title: "Figure 5(b) — all techniques at 0.045um",
        make_specs: fig5b,
        render: report::sweep,
    },
    Study {
        name: "fig6",
        title: "Figure 6 — per-benchmark IPC (8KB L1, 0.045um)",
        make_specs: fig6,
        render: report::per_bench,
    },
    Study {
        name: "fig7a",
        title: "Figure 7(a) — fetch source distribution (%, 0.045um)",
        make_specs: fig7a,
        render: report::fetch_sources,
    },
    Study {
        name: "fig7b",
        title: "Figure 7(b) — fetch source distribution with L0 (%, 0.045um)",
        make_specs: fig7b,
        render: report::fetch_sources,
    },
    Study {
        name: "fig8",
        title: "Figure 8 — prefetch source distribution (%, 0.045um)",
        make_specs: fig8,
        render: report::prefetch_sources,
    },
    RELATED_WORK,
    HEADLINE,
];

/// Look up a declared figure or study by name.
pub fn study_by_name(name: &str) -> Option<&'static Study> {
    STUDIES.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names are unique, every spec validates and round-trips through
    /// JSON, labels are unique within a study, and a figure (a one-spec
    /// study) labels its spec with its own name, which its renderer uses
    /// as the CSV base name.
    #[test]
    fn figure_names_are_unique_and_specs_validate() {
        let mut seen = std::collections::HashSet::new();
        for study in &STUDIES {
            assert!(seen.insert(study.name), "{} is declared twice", study.name);
            let specs = (study.make_specs)();
            if let [(label, _)] = specs.as_slice() {
                assert_eq!(label, study.name);
            }
            let mut labels = std::collections::HashSet::new();
            for (label, spec) in specs {
                assert!(
                    labels.insert(label.clone()),
                    "{}: duplicate {label}",
                    study.name
                );
                spec.validate()
                    .unwrap_or_else(|e| panic!("{} {label}: {e}", study.name));
                // Declared specs serialize (the golden files in specs/ are
                // generated from the figures').
                let back = ExperimentSpec::from_json(&spec.to_json()).unwrap();
                assert_eq!(back, spec, "{} {label}", study.name);
            }
        }
        assert!(study_by_name("fig6").is_some());
        assert!(study_by_name("headline").is_some());
        assert!(study_by_name("fig3").is_none());
    }

    /// The related-work ladder used to hand-build each rung's `SimConfig`
    /// from a CLGP+L0 base spec; each declared rung must build exactly it.
    #[test]
    fn related_work_ladder_specs_build_the_hand_built_configs() {
        use ConfigPreset::*;
        let l1 = 4 << 10;
        let base = ExperimentSpec {
            presets: vec![ClgpL0],
            l1_sizes: vec![l1],
            ..ExperimentSpec::default()
        };
        let mut next_line = base.sim_config(Fdp, l1);
        next_line.frontend.prefetcher = PrefetcherKind::NextLine;
        assert_eq!(
            at_4k(Fdp, Some(PrefetcherKind::NextLine)).sim_config(Fdp, l1),
            next_line
        );
        let specs = related_work_specs();
        for (label, cfg) in [
            ("ladder/no prefetch (base)", base.sim_config(Base, l1)),
            ("ladder/next-2-line", next_line),
            ("ladder/FDP", base.sim_config(Fdp, l1)),
            ("ladder/CLGP", base.sim_config(Clgp, l1)),
        ] {
            let (_, spec) = specs.iter().find(|(l, _)| l == label).unwrap();
            assert_eq!(spec.l1_sizes, [l1], "{label}");
            assert_eq!(spec.sim_config(spec.presets[0], l1), cfg, "{label}");
        }
    }

    #[test]
    fn per_bench_figures_have_one_size() {
        type Render = fn(&str, &[StudyRun]) -> Result<(), String>;
        let per_bench = STUDIES
            .iter()
            .filter(|s| std::ptr::fn_addr_eq(s.render, report::per_bench as Render));
        let mut n = 0;
        for study in per_bench {
            for (label, spec) in (study.make_specs)() {
                assert_eq!(spec.l1_sizes.len(), 1, "{label}");
            }
            n += 1;
        }
        assert!(n >= 1, "fig6 renders per benchmark");
    }
}
