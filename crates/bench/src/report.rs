//! The one place figure output is rendered.
//!
//! Every figure used to hand-roll its own table printing and CSV
//! emission; figures are now declarations (an [`ExperimentSpec`] plus a
//! [`ReportKind`]) and this module owns the four renderings the paper's
//! figures need.  Each renderer takes the spec (for axes and labels) and
//! the ordered `[preset][size]` rows `try_run_spec` returned, prints the
//! figure's data series as an aligned text table, and writes the matching
//! CSV(s) under [`crate::results_dir`].

use crate::{note_result, results_dir, size_label};
use prestage_core::FrontStats;
use prestage_sim::{ExperimentSpec, GridResult};
use std::io::Write;
use std::path::PathBuf;

/// How a figure presents its grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportKind {
    /// IPC vs L1 size, one row per preset (Figures 1, 2, 4, 5).
    Sweep,
    /// Per-benchmark IPC at a single L1 size, one column per preset
    /// (Figure 6).  Requires a one-size spec.
    PerBench,
    /// Fetch-source distribution per (preset, size) (Figure 7).
    FetchSources,
    /// Prefetch-source distribution per (preset, size) (Figure 8).
    PrefetchSources,
}

/// Render `rows` as `kind`, printing the table and writing
/// `<results dir>/<csv_name>.csv` (plus companions where the figure has
/// them).
pub fn render(
    kind: ReportKind,
    title: &str,
    csv_name: &str,
    spec: &ExperimentSpec,
    rows: &[Vec<GridResult>],
) {
    match kind {
        ReportKind::Sweep => sweep(title, csv_name, spec, rows),
        ReportKind::PerBench => per_bench(title, csv_name, spec, rows),
        ReportKind::FetchSources => fetch_sources(title, csv_name, spec, rows),
        ReportKind::PrefetchSources => prefetch_sources(title, csv_name, spec, rows),
    }
}

fn create_csv(name: &str) -> (std::fs::File, PathBuf) {
    let dir = results_dir();
    std::fs::create_dir_all(dir).expect("results dir creatable");
    let path = dir.join(format!("{name}.csv"));
    let f = std::fs::File::create(&path)
        .unwrap_or_else(|e| panic!("create {}: {e}", path.display()));
    (f, path)
}

fn size_labels(spec: &ExperimentSpec) -> Vec<String> {
    let labels: Vec<String> = spec.l1_sizes.iter().map(|&s| size_label(s)).collect();
    // prestage: allow(nondeterministic-iteration, the set is only measured with len() for a duplicate check — an order-independent use)
    let unique: std::collections::HashSet<&str> = labels.iter().map(String::as_str).collect();
    assert_eq!(
        unique.len(),
        labels.len(),
        "size labels collide in CSV header: {labels:?}"
    );
    labels
}

/// Print an IPC sweep as an aligned text table (the figure's data
/// series), without touching the results dir — what `prestage run` uses
/// for ad-hoc spec files.  A cell whose HMEAN collapsed to zero gets its
/// culprit benchmarks named on stderr instead of hiding inside the table.
pub fn sweep_table(title: &str, spec: &ExperimentSpec, rows: &[Vec<GridResult>]) {
    let labels = size_labels(spec);
    println!("\n# {title}");
    print!("{:<16}", "config");
    for label in &labels {
        print!(" {label:>8}");
    }
    println!();
    for (preset, row) in spec.presets.iter().zip(rows) {
        print!("{:<16}", preset.label());
        for (&size, r) in spec.l1_sizes.iter().zip(row) {
            print!(" {:>8.3}", r.hmean_ipc());
            let zeroed = r.zero_ipc_benches();
            if !zeroed.is_empty() {
                eprintln!(
                    "  WARNING: {} @ {}: zero IPC from {} — HMEAN reported as 0",
                    preset.label(),
                    size_label(size),
                    zeroed.join(", ")
                );
            }
        }
        println!();
    }
}

/// [`sweep_table`] plus the summary and per-benchmark detail CSVs — the
/// full figure rendering.
pub fn sweep(title: &str, csv_name: &str, spec: &ExperimentSpec, rows: &[Vec<GridResult>]) {
    sweep_table(title, spec, rows);
    let labels = size_labels(spec);
    let (mut f, path) = create_csv(csv_name);
    write!(f, "config").unwrap();
    for label in &labels {
        write!(f, ",{label}").unwrap();
    }
    writeln!(f).unwrap();
    for (preset, row) in spec.presets.iter().zip(rows) {
        write!(f, "{}", preset.label()).unwrap();
        for r in row {
            write!(f, ",{:.4}", r.hmean_ipc()).unwrap();
        }
        writeln!(f).unwrap();
    }
    // Per-benchmark detail sheet.
    let (mut f, _) = create_csv(&format!("{csv_name}_detail"));
    writeln!(f, "config,l1,bench,ipc,mpki,pb_share,l0_share,l1_share").unwrap();
    for (preset, row) in spec.presets.iter().zip(rows) {
        for (&size, r) in spec.l1_sizes.iter().zip(row) {
            for (name_b, s) in &r.per_bench {
                writeln!(
                    f,
                    "{},{},{},{:.4},{:.2},{:.4},{:.4},{:.4}",
                    preset.label(),
                    size_label(size),
                    name_b,
                    s.ipc(),
                    s.mpki(),
                    s.front.fetch_share(s.front.fetch_pb),
                    s.front.fetch_share(s.front.fetch_l0),
                    s.front.fetch_share(s.front.fetch_l1),
                )
                .unwrap();
            }
        }
    }
    eprintln!("wrote {}", path.display());
}

/// Per-benchmark IPC columns at a single L1 size, with the HMEAN row the
/// paper's Figure 6 ends on; notes the pairwise HMEAN comparisons.
pub fn per_bench(title: &str, csv_name: &str, spec: &ExperimentSpec, rows: &[Vec<GridResult>]) {
    assert_eq!(
        spec.l1_sizes.len(),
        1,
        "per-benchmark report needs a single-size spec"
    );
    let results: Vec<&GridResult> = rows.iter().map(|row| &row[0]).collect();

    println!("\n# {title}");
    print!("{:<10}", "bench");
    for p in &spec.presets {
        print!(" {:>15}", p.label());
    }
    println!();
    let (mut csv, path) = create_csv(csv_name);
    write!(csv, "bench").unwrap();
    for p in &spec.presets {
        write!(csv, ",{}", p.label()).unwrap();
    }
    writeln!(csv).unwrap();
    for (i, (name, _)) in results[0].per_bench.iter().enumerate() {
        print!("{name:<10}");
        write!(csv, "{name}").unwrap();
        for r in &results {
            let ipc = r.per_bench[i].1.ipc();
            print!(" {ipc:>15.3}");
            write!(csv, ",{ipc:.4}").unwrap();
        }
        println!();
        writeln!(csv).unwrap();
    }
    print!("{:<10}", "HMEAN");
    write!(csv, "HMEAN").unwrap();
    let hmeans: Vec<f64> = results.iter().map(|r| r.hmean_ipc()).collect();
    for h in &hmeans {
        print!(" {h:>15.3}");
        write!(csv, ",{h:.4}").unwrap();
    }
    println!();
    writeln!(csv).unwrap();
    eprintln!("wrote {}", path.display());

    // Headline note: each preset's HMEAN, plus the last preset (the
    // paper's proposed configuration by figure-legend convention) over
    // every other.
    let mut note = spec
        .presets
        .iter()
        .zip(&hmeans)
        .map(|(p, h)| format!("{} {:.3}", p.label(), h))
        .collect::<Vec<_>>()
        .join(", ");
    if let (Some(last), Some(&last_h)) = (spec.presets.last(), hmeans.last()) {
        let gains = spec
            .presets
            .iter()
            .zip(&hmeans)
            .take(spec.presets.len() - 1)
            .map(|(p, h)| format!("over {} {:+.1}%", p.label(), (last_h / h - 1.0) * 100.0))
            .collect::<Vec<_>>()
            .join(", ");
        if !gains.is_empty() {
            note.push_str(&format!(" ({} {gains})", last.label()));
        }
    }
    note_result(csv_name, &format!("HMEAN {note}"));
}

fn fetch_shares(stats: &[FrontStats]) -> [f64; 5] {
    let mut acc = [0.0; 5];
    for f in stats {
        acc[0] += f.fetch_share(f.fetch_pb);
        acc[1] += f.fetch_share(f.fetch_l0);
        acc[2] += f.fetch_share(f.fetch_l1);
        acc[3] += f.fetch_share(f.fetch_l2);
        acc[4] += f.fetch_share(f.fetch_mem);
    }
    acc.map(|x| 100.0 * x / stats.len() as f64)
}

/// Distribution of fetch sources per (preset, size) — Figure 7.
pub fn fetch_sources(title: &str, csv_name: &str, spec: &ExperimentSpec, rows: &[Vec<GridResult>]) {
    println!("\n# {title}");
    println!(
        "{:<14} {:>6} | {:>6} {:>6} {:>6} {:>6} {:>6}",
        "config", "L1", "PB", "il0", "il1", "ul2", "Mem"
    );
    let (mut csv, path) = create_csv(csv_name);
    writeln!(csv, "config,l1,pb,il0,il1,ul2,mem").unwrap();
    for (preset, row) in spec.presets.iter().zip(rows) {
        for (&size, r) in spec.l1_sizes.iter().zip(row) {
            let st: Vec<_> = r.per_bench.iter().map(|(_, s)| s.front).collect();
            let sh = fetch_shares(&st);
            println!(
                "{:<14} {:>6} | {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1}",
                preset.label(),
                size_label(size),
                sh[0],
                sh[1],
                sh[2],
                sh[3],
                sh[4]
            );
            writeln!(
                csv,
                "{},{},{:.2},{:.2},{:.2},{:.2},{:.2}",
                preset.label(),
                size_label(size),
                sh[0],
                sh[1],
                sh[2],
                sh[3],
                sh[4]
            )
            .unwrap();
        }
    }
    eprintln!("wrote {}", path.display());
}

/// Distribution of prefetch sources (where the line was found when the
/// prefetch request was processed) per (preset, size) — Figure 8.
pub fn prefetch_sources(
    title: &str,
    csv_name: &str,
    spec: &ExperimentSpec,
    rows: &[Vec<GridResult>],
) {
    println!("\n# {title}");
    println!(
        "{:<14} {:>6} | {:>6} {:>6} {:>6} {:>6}",
        "config", "L1", "PB", "il1", "ul2", "Mem"
    );
    let (mut csv, path) = create_csv(csv_name);
    writeln!(csv, "config,l1,pb,il1,ul2,mem").unwrap();
    for (preset, row) in spec.presets.iter().zip(rows) {
        for (&size, r) in spec.l1_sizes.iter().zip(row) {
            let mut acc = [0.0f64; 4];
            for (_, s) in &r.per_bench {
                let f = s.front;
                let total = f.total_prefetch_requests().max(1) as f64;
                acc[0] += f.prefetch_from_pb as f64 / total;
                acc[1] += f.prefetch_from_l1 as f64 / total;
                acc[2] += f.prefetch_from_l2 as f64 / total;
                acc[3] += f.prefetch_from_mem as f64 / total;
            }
            let n = r.per_bench.len() as f64;
            let sh = acc.map(|x| 100.0 * x / n);
            println!(
                "{:<14} {:>6} | {:>6.1} {:>6.1} {:>6.1} {:>6.1}",
                preset.label(),
                size_label(size),
                sh[0],
                sh[1],
                sh[2],
                sh[3]
            );
            writeln!(
                csv,
                "{},{},{:.2},{:.2},{:.2},{:.2}",
                preset.label(),
                size_label(size),
                sh[0],
                sh[1],
                sh[2],
                sh[3]
            )
            .unwrap();
        }
    }
    eprintln!("wrote {}", path.display());
}
