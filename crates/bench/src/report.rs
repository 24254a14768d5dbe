//! The one place figure, study and table output is rendered.
//!
//! Every figure used to hand-roll its own table printing and CSV
//! emission; figures and studies are now declarations (labelled specs
//! plus one of this module's renderers, see [`crate::figures`]).  Every
//! renderer takes a title and the declaration's [`StudyRun`]s, each a
//! spec (for axes and labels) with the ordered `[preset][size]` rows it
//! ran to.  The four figure renderers ([`sweep`], [`per_bench`],
//! [`fetch_sources`], [`prefetch_sources`]) take a figure's one run,
//! print its data series as an aligned text table, and write the matching
//! CSV(s) under [`crate::results_dir`], named after the run's label; the
//! study renderers ([`related_work`], [`headline`]) pick their runs by
//! label.  The paper's static Tables 1–3 print from the models alone.

use crate::{note_result, results_dir, size_label, L1_SIZES};
use prestage_bpred::{RAS_ENTRIES, STREAM_L1_ENTRIES, STREAM_L2_ENTRIES};
use prestage_cacti::{
    area_mm2, energy_nj_per_access, latency_cycles, CacheGeometry, TechNode, SIA_ROADMAP,
};
use prestage_core::config::{FETCH_WIDTH, L1_ASSOC, MAX_INFLIGHT, QUEUE_BLOCKS};
use prestage_core::{prefetcher_state_bytes, FrontStats, FrontendConfig};
use prestage_sim::backend::{DCACHE_LATENCY, DCACHE_LINE, DCACHE_PORTS, RUU_SIZE};
use prestage_sim::{BackendConfig, ConfigPreset, ExperimentSpec, GridResult};
use std::io::{ErrorKind, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once a reader closed stdout (`prestage list | head -1`).
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Write to stdout like `print!`, except that a closed pipe silently drops
/// this and all later output instead of panicking, so the program still
/// finishes its other work (an `--out` artifact) and exits normally.
pub fn emit(args: std::fmt::Arguments) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    match std::io::stdout().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => STDOUT_CLOSED.store(true, Ordering::Relaxed),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// `print!` through [`emit`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => { $crate::report::emit(format_args!($($arg)*)) };
}

/// `println!` through [`emit`].
#[macro_export]
macro_rules! outln {
    () => { $crate::report::emit(format_args!("\n")) };
    ($($arg:tt)*) => { $crate::report::emit(format_args!("{}\n", format_args!($($arg)*))) };
}

/// One labelled experiment of a study, with its `[preset][size]` rows.
#[derive(Debug)]
pub struct StudyRun {
    /// `section/row` (`"ladder/FDP"`), by whose prefix a study's renderer
    /// picks its sections, or a figure's name.
    pub label: String,
    /// The spec as run, environment overrides applied.
    pub spec: ExperimentSpec,
    pub rows: Vec<Vec<GridResult>>,
}

/// A figure's one run as (CSV base name, spec, rows): a figure is a study
/// of one spec, labelled with the figure's name.
fn figure_run(runs: &[StudyRun]) -> Result<(&str, &ExperimentSpec, &[Vec<GridResult>]), String> {
    match runs {
        [run] => Ok((&run.label, &run.spec, &run.rows)),
        _ => Err(format!("a figure renders one run, not {}", runs.len())),
    }
}

/// Write `<results dir>/<name>.csv` whole; returns its path.
fn write_csv(name: &str, text: &str) -> Result<PathBuf, String> {
    let dir = results_dir();
    let path = dir.join(format!("{name}.csv"));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
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
    outln!("\n# {title}");
    out!("{:<16}", "config");
    for label in &labels {
        out!(" {label:>8}");
    }
    outln!();
    for (preset, row) in spec.presets.iter().zip(rows) {
        out!("{:<16}", preset.label());
        for (&size, r) in spec.l1_sizes.iter().zip(row) {
            out!(" {:>8.3}", r.hmean_ipc());
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
        outln!();
    }
}

/// IPC vs L1 size, one row per preset (Figures 1, 2, 4, 5):
/// [`sweep_table`] plus the summary and per-benchmark detail CSVs.
pub fn sweep(title: &str, runs: &[StudyRun]) -> Result<(), String> {
    let (csv_name, spec, rows) = figure_run(runs)?;
    sweep_table(title, spec, rows);
    let mut csv = format!("config,{}\n", size_labels(spec).join(","));
    let mut detail = String::from("config,l1,bench,ipc,mpki,pb_share,l0_share,l1_share\n");
    for (preset, row) in spec.presets.iter().zip(rows) {
        csv += preset.label();
        for (&size, r) in spec.l1_sizes.iter().zip(row) {
            csv += &format!(",{:.4}", r.hmean_ipc());
            for (name_b, s) in &r.per_bench {
                detail += &format!(
                    "{},{},{},{:.4},{:.2},{:.4},{:.4},{:.4}\n",
                    preset.label(),
                    size_label(size),
                    name_b,
                    s.ipc(),
                    s.mpki(),
                    s.front.fetch_share(s.front.fetch_pb),
                    s.front.fetch_share(s.front.fetch_l0),
                    s.front.fetch_share(s.front.fetch_l1),
                );
            }
        }
        csv.push('\n');
    }
    let path = write_csv(csv_name, &csv)?;
    write_csv(&format!("{csv_name}_detail"), &detail)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Print a table header (`first` padded to `lw`, each of `names`
/// right-aligned in `vw`) and append it to `csv`.
fn table_header(csv: &mut String, first: &str, lw: usize, names: &[&str], vw: usize) {
    out!("{first:<lw$}");
    *csv += first;
    for name in names {
        out!(" {name:>vw$}");
        *csv += &format!(",{name}");
    }
    outln!();
    csv.push('\n');
}

/// Print `label` and `values` as one aligned table row (`label` padded to
/// `lw`, each value right-aligned in `vw` at 3 decimals) and append the
/// same row to `csv` at 4 decimals.
fn table_row(csv: &mut String, label: &str, lw: usize, values: &[f64], vw: usize) {
    out!("{label:<lw$}");
    *csv += label;
    for v in values {
        out!(" {v:>vw$.3}");
        *csv += &format!(",{v:.4}");
    }
    outln!();
    csv.push('\n');
}

/// Per-benchmark IPC columns at a single L1 size, one column per preset,
/// with the HMEAN row the paper's Figure 6 ends on; notes the pairwise
/// HMEAN comparisons.  Requires a one-size spec.
pub fn per_bench(title: &str, runs: &[StudyRun]) -> Result<(), String> {
    let (csv_name, spec, rows) = figure_run(runs)?;
    assert_eq!(
        spec.l1_sizes.len(),
        1,
        "per-benchmark report needs a single-size spec"
    );
    let results: Vec<&GridResult> = rows.iter().map(|row| &row[0]).collect();

    outln!("\n# {title}");
    let labels: Vec<&str> = spec.presets.iter().map(|p| p.label()).collect();
    let mut csv = String::new();
    table_header(&mut csv, "bench", 10, &labels, 15);
    for (i, (name, _)) in results[0].per_bench.iter().enumerate() {
        let ipcs: Vec<f64> = results.iter().map(|r| r.per_bench[i].1.ipc()).collect();
        table_row(&mut csv, name, 10, &ipcs, 15);
    }
    let hmeans: Vec<f64> = results.iter().map(|r| r.hmean_ipc()).collect();
    table_row(&mut csv, "HMEAN", 10, &hmeans, 15);
    let path = write_csv(csv_name, &csv)?;
    eprintln!("wrote {}", path.display());

    // Headline note: each preset's HMEAN, plus the last preset (the
    // paper's proposed configuration by figure-legend convention) over
    // every other.
    let mut note = labels
        .iter()
        .zip(&hmeans)
        .map(|(l, h)| format!("{l} {h:.3}"))
        .collect::<Vec<_>>()
        .join(", ");
    if let (Some((last, others)), Some(&last_h)) = (labels.split_last(), hmeans.last()) {
        let gains: Vec<String> = others
            .iter()
            .zip(&hmeans)
            .map(|(l, h)| format!("over {l} {:+.1}%", (last_h / h - 1.0) * 100.0))
            .collect();
        if !gains.is_empty() {
            note += &format!(" ({last} {})", gains.join(", "));
        }
    }
    note_result(csv_name, &format!("HMEAN {note}"));
    Ok(())
}

/// A source distribution per (preset, size): for each of `columns`, the
/// mean over benchmarks of the per-benchmark fraction `shares` gives, in
/// percent — fetch sources (Figure 7) or prefetch sources (Figure 8).
fn source_shares(
    title: &str,
    runs: &[StudyRun],
    columns: &[&str],
    shares: fn(&FrontStats) -> Vec<f64>,
) -> Result<(), String> {
    let (csv_name, spec, rows) = figure_run(runs)?;
    outln!("\n# {title}");
    out!("{:<14} {:>6} |", "config", "L1");
    let mut csv = String::from("config,l1");
    for c in columns {
        out!(" {c:>6}");
        csv += &format!(",{}", c.to_lowercase());
    }
    outln!();
    csv.push('\n');
    for (preset, row) in spec.presets.iter().zip(rows) {
        for (&size, r) in spec.l1_sizes.iter().zip(row) {
            let mut acc = vec![0.0; columns.len()];
            for (_, s) in &r.per_bench {
                for (a, share) in acc.iter_mut().zip(shares(&s.front)) {
                    *a += share;
                }
            }
            let n = r.per_bench.len() as f64;
            out!("{:<14} {:>6} |", preset.label(), size_label(size));
            csv += &format!("{},{}", preset.label(), size_label(size));
            for x in acc {
                let pct = 100.0 * x / n;
                out!(" {pct:>6.1}");
                csv += &format!(",{pct:.2}");
            }
            outln!();
            csv.push('\n');
        }
    }
    let path = write_csv(csv_name, &csv)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Fetch-source distribution per (preset, size) (Figure 7).
pub fn fetch_sources(title: &str, runs: &[StudyRun]) -> Result<(), String> {
    let columns = ["PB", "il0", "il1", "ul2", "Mem"];
    source_shares(title, runs, &columns, fetch_shares)
}

/// Prefetch-source distribution per (preset, size) (Figure 8).
pub fn prefetch_sources(title: &str, runs: &[StudyRun]) -> Result<(), String> {
    let columns = ["PB", "il1", "ul2", "Mem"];
    source_shares(title, runs, &columns, prefetch_shares)
}

/// Figure 7's columns: the share of fetched lines served by each source.
fn fetch_shares(f: &FrontStats) -> Vec<f64> {
    [f.fetch_pb, f.fetch_l0, f.fetch_l1, f.fetch_l2, f.fetch_mem]
        .map(|c| f.fetch_share(c))
        .to_vec()
}

/// Figure 8's columns: where each prefetch request found its line.
fn prefetch_shares(f: &FrontStats) -> Vec<f64> {
    let total = f.total_prefetch_requests().max(1) as f64;
    let counts = [
        f.prefetch_from_pb,
        f.prefetch_from_l1,
        f.prefetch_from_l2,
        f.prefetch_from_mem,
    ];
    counts.map(|c| c as f64 / total).to_vec()
}

/// The runs of `section` in declaration order, each with its row name
/// (the label after `section/`).
fn section<'a>(
    runs: &'a [StudyRun],
    section: &'a str,
) -> impl Iterator<Item = (&'a str, &'a StudyRun)> {
    runs.iter().filter_map(move |r| {
        let name = r.label.strip_prefix(section)?.strip_prefix('/')?;
        Some((name, r))
    })
}

/// The run labelled `label`.
fn run_labelled<'a>(runs: &'a [StudyRun], label: &str) -> Result<&'a StudyRun, String> {
    runs.iter()
        .find(|r| r.label == label)
        .ok_or_else(|| format!("the study has no run labelled {label:?}"))
}

/// The lowest HMEAN IPC a study row may show before it counts as wedged.
const WEDGED_IPC: f64 = 0.05;

/// CACTI cost of `bytes` of state as `[KB, mm², nJ/access]`: an SRAM of
/// `record`-byte lines and `assoc` ways, rounded up to the next power of
/// two (what would be built), so all three numbers describe the same
/// modelled structure.
fn sram_cost(bytes: usize, record: usize, assoc: usize, tech: TechNode) -> [f64; 3] {
    let capacity = bytes.next_power_of_two().max(256);
    let g = CacheGeometry::new(capacity, record, assoc, 1);
    let kb = capacity as f64 / 1024.0;
    [kb, area_mm2(&g, tech), energy_nj_per_access(&g, tech)]
}

/// CACTI cost of a one-cell run's prefetcher metadata: 8-byte records in
/// a 4-way SRAM; nothing for a mechanism without metadata.
fn metadata_cost(spec: &ExperimentSpec) -> [f64; 3] {
    let cfg = spec.sim_config(spec.presets[0], spec.l1_sizes[0]);
    match prefetcher_state_bytes(&cfg.frontend) {
        0 => [0.0; 3],
        bytes => sram_cost(bytes, 8, 4, spec.tech),
    }
}

/// The related-work comparison (§2.1): the prefetch-scheme ladder, the
/// per-benchmark mechanism table with the CACTI cost of each mechanism's
/// metadata, every mechanism with and without the i-TLB (plus the i-TLB's
/// own cost), and the predictor ablation.  Writes `related_work.csv`
/// (ladder and predictors), `related_work_mechanisms.csv` and
/// `related_work_tlb.csv`.  Fails, naming the row, when a ladder rung
/// falls more than 3 % below the one before it or a mechanism is wedged.
pub fn related_work(_title: &str, runs: &[StudyRun]) -> Result<(), String> {
    outln!("\n# Related work — prefetch scheme ladder (4KB L1, 0.045um)");
    let mut csv = String::from("scheme,hmean_ipc\n");
    let mut ladder: Vec<(&str, f64)> = Vec::new();
    for (name, run) in section(runs, "ladder") {
        let h = run.rows[0][0].hmean_ipc();
        outln!("{name:<22} HMEAN {h:.3}");
        csv += &format!("{name},{h:.4}\n");
        ladder.push((name, h));
    }
    if let Some(w) = ladder.windows(2).find(|w| w[1].1 < w[0].1 * 0.97) {
        return Err(format!(
            "related_work: the scheme ladder regressed: {} HMEAN {:.3} is more than 3% below {} HMEAN {:.3}",
            w[1].0, w[1].1, w[0].0, w[0].1
        ));
    }

    outln!("\n# Mechanism comparison — per-benchmark IPC (4KB L1, 0.045um)");
    let mechanisms: Vec<(&str, &GridResult, [f64; 3])> = section(runs, "mechanism")
        .map(|(name, run)| (name, &run.rows[0][0], metadata_cost(&run.spec)))
        .collect();
    let names: Vec<&str> = mechanisms.iter().map(|m| m.0).collect();
    let mut mcsv = String::new();
    table_header(&mut mcsv, "bench", 10, &names, 9);
    let benches = mechanisms.first().map_or(&[][..], |m| &m.1.per_bench[..]);
    for (bi, (bench, _)) in benches.iter().enumerate() {
        let ipcs: Vec<f64> = mechanisms
            .iter()
            .map(|m| m.1.per_bench[bi].1.ipc())
            .collect();
        table_row(&mut mcsv, bench, 10, &ipcs, 9);
    }
    let hmeans: Vec<f64> = mechanisms.iter().map(|m| m.1.hmean_ipc()).collect();
    table_row(&mut mcsv, "HMEAN", 10, &hmeans, 9);
    for (i, label) in ["meta KB", "area mm2", "nJ/access"].into_iter().enumerate() {
        let costs: Vec<f64> = mechanisms.iter().map(|m| m.2[i]).collect();
        table_row(&mut mcsv, label, 10, &costs, 9);
    }
    write_csv("related_work_mechanisms", &mcsv)?;
    if let Some((name, h)) = names.iter().zip(&hmeans).find(|(_, &h)| h <= WEDGED_IPC) {
        return Err(format!(
            "related_work: mechanism {name} is wedged (HMEAN IPC {h:.3})"
        ));
    }

    // Every mechanism again with the i-TLB threaded through the fetch
    // path: demand fetches and prefetch issues pay (and train) the same
    // translation structure.
    let tlb_on = section(runs, "tlb-on").next().map(|(_, run)| &run.spec);
    let Some((itlb, tech)) = tlb_on.and_then(|spec| Some((spec.itlb?, spec.tech))) else {
        return Err("related_work: no tlb-on run carries an i-TLB".into());
    };
    outln!(
        "\n# Mechanism comparison with i-TLB on ({}-entry {}-way, {} B pages, \
         {}-cycle walk; 4KB L1, 0.045um)",
        itlb.entries,
        itlb.assoc,
        itlb.page_bytes,
        itlb.miss_cycles
    );
    let mut tcsv = String::from("mechanism,hmean_ipc_no_tlb,hmean_ipc_tlb\n");
    outln!("{:<10} {:>9} {:>9}", "mechanism", "no-TLB", "TLB");
    for (kind, off) in section(runs, "tlb-off") {
        let on = run_labelled(runs, &format!("tlb-on/{kind}"))?;
        let (h_off, h_on) = (off.rows[0][0].hmean_ipc(), on.rows[0][0].hmean_ipc());
        outln!("{kind:<10} {h_off:>9.3} {h_on:>9.3}");
        tcsv += &format!("{kind},{h_off:.4},{h_on:.4}\n");
        if h_on <= WEDGED_IPC {
            return Err(format!(
                "related_work: mechanism {kind} is wedged under translation (HMEAN IPC {h_on:.3})"
            ));
        }
    }
    // The i-TLB's own cost: 16-byte tag+translation records.
    let [kb, area, energy] = sram_cost(itlb.state_bytes(), 16, itlb.assoc, tech);
    outln!("i-TLB cost: {kb:.1} KB modelled, {area:.4} mm2, {energy:.4} nJ/access");
    tcsv += &format!(
        "itlb_modeled_kb,{kb:.4},\nitlb_area_mm2,{area:.4},\n\
         itlb_energy_nj_per_access,{energy:.4},\n"
    );
    write_csv("related_work_tlb", &tcsv)?;

    outln!("\n# Predictor ablation — CLGP+L0 under different predictors");
    csv += "predictor,hmean_ipc\n";
    for (name, run) in section(runs, "predictor") {
        let h = run.rows[0][0].hmean_ipc();
        outln!("{name:<28} HMEAN {h:.3}");
        csv += &format!("{name},{h:.4}\n");
    }
    write_csv("related_work", &csv)?;
    note_result("related_work", "see results/related_work.csv");
    Ok(())
}

/// The paper's headline comparisons, appended to `headline_notes.txt`:
/// CLGP over FDP and over the two baselines at 4 KB for each node, the
/// budget equivalence at 0.09 µm, and CLGP's fetch-source shares at 4 KB
/// and 0.045 µm.
pub fn headline(_title: &str, runs: &[StudyRun]) -> Result<(), String> {
    use ConfigPreset::*;
    for (_, run) in section(runs, "presets") {
        let h = |preset: ConfigPreset| {
            let i = run.spec.presets.iter().position(|&p| p == preset);
            i.map(|i| run.rows[i][0].hmean_ipc())
                .ok_or_else(|| format!("headline: run {} has no {} row", run.label, preset.id()))
        };
        let (clgp16, fdp16, clgp, fdp) = (h(ClgpL0Pb16)?, h(FdpL0Pb16)?, h(ClgpL0)?, h(FdpL0)?);
        let (pipe, base_l0) = (h(BasePipelined)?, h(BaseL0)?);
        let gain = |a: f64, b: f64| format!("({:+.1}%)", (a / b - 1.0) * 100.0);
        let (g16, g, g_pipe, g_l0) = (
            gain(clgp16, fdp16),
            gain(clgp, fdp),
            gain(clgp16, pipe),
            gain(clgp16, base_l0),
        );
        note_result(
            &format!("headline {}", run.spec.tech.label()),
            &format!(
                "4KB L1: CLGP+L0+PB16 {clgp16:.3} vs FDP+L0+PB16 {fdp16:.3} {g16}; \
                 CLGP+L0 {clgp:.3} vs FDP+L0 {fdp:.3} {g}; \
                 CLGP+PB16 over base-pipelined {pipe:.3} {g_pipe}; \
                 CLGP+PB16 over base+L0 {base_l0:.3} {g_l0}"
            ),
        );
    }

    let clgp_1k = run_labelled(runs, "budget/clgp")?.rows[0][0].hmean_ipc();
    let pipelined = run_labelled(runs, "budget/pipelined")?;
    let column: Vec<(usize, f64)> = pipelined
        .spec
        .l1_sizes
        .iter()
        .copied()
        .zip(pipelined.rows[0].iter().map(GridResult::hmean_ipc))
        .collect();
    note_result("headline budget", &budget_note(clgp_1k, &column));

    let sources = run_labelled(runs, "sources/4K")?;
    for (preset, row) in sources.spec.presets.iter().zip(&sources.rows) {
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
    Ok(())
}

/// The budget-equivalence note: CLGP+L0+PB16's 1 KB IPC `target` against
/// the pipelined `(size, HMEAN IPC)` column in ascending size order.  The
/// match is the smallest size whose IPC reaches the target, with its size
/// over CLGP's 2.5 KB budget; when no size reaches it, the note says so
/// and gives no ratio.
fn budget_note(target: f64, column: &[(usize, f64)]) -> String {
    let head = format!("CLGP+L0+PB16 with 1KB L1 (2.5KB total budget) reaches {target:.3}; ");
    if let Some(&(size, ipc)) = column.iter().find(|&&(_, ipc)| ipc >= target) {
        let label = size_label(size);
        return format!(
            "{head}the smallest pipelined I-cache matching it is {label} ({label} IPC {ipc:.3}) \
             => {}x the 2.5KB budget",
            size as f64 / 2560.0
        );
    }
    let (size, ipc) = column.last().copied().unwrap_or_default();
    let label = size_label(size);
    format!("{head}no pipelined I-cache up to {label} matches it ({label} IPC {ipc:.3})")
}

/// Table 1: the SIA technology roadmap.
pub fn table1() {
    outln!("# Table 1 — SIA technology roadmap");
    let rows = [
        ("Year", SIA_ROADMAP.map(|e| e.year.to_string())),
        (
            "Technology (um)",
            SIA_ROADMAP.map(|e| e.feature_um.to_string()),
        ),
        (
            "Clock Frequency (GHz)",
            SIA_ROADMAP.map(|e| e.clock_ghz.to_string()),
        ),
        (
            "Cycle time (ns)",
            SIA_ROADMAP.map(|e| e.cycle_ns.to_string()),
        ),
    ];
    for (label, values) in rows {
        out!("{label:<22}");
        for v in values {
            out!(" {v:>6}");
        }
        outln!();
    }
}

/// Table 2: the simulation parameters every run defaults to.
pub fn table2() {
    let line = FrontendConfig::base(TechNode::T045, 8 << 10).line_bytes;
    let be = BackendConfig::default();
    let (width, d_kb, d_assoc) = (be.width, be.dcache_capacity >> 10, be.dcache_assoc);
    let (l1k, l2k) = (STREAM_L1_ENTRIES / 1024, STREAM_L2_ENTRIES / 1024);
    outln!("# Table 2 — simulation parameters");
    outln!("Fetch/Issue/Commit      {FETCH_WIDTH}/{width}/{width} instructions");
    outln!("RUU Size                {RUU_SIZE} instructions");
    outln!("Branch Predictor        {l1k}K+{l2k}K-entry stream pred., 1 cycle lat.");
    outln!("RAS                     {RAS_ENTRIES}-entry");
    outln!("Fetch queue             {QUEUE_BLOCKS} fetch blocks, {MAX_INFLIGHT} line fetches in flight");
    outln!("Pipeline depth          15 stages");
    outln!("L1 I-Cache              {L1_ASSOC}-way asc., 1 port, {line}B/line");
    outln!("L1 D-Cache              {d_kb}KB, {d_assoc}-way, {DCACHE_LATENCY}-cyc lat, {DCACHE_PORTS} ports, {DCACHE_LINE}B/line");
    outln!("L2 Cache                1MB, 2-way asc., 1 port, 128B/line");
    outln!("Mem. lat.               200 cycles");
    outln!("L2 bus BW               64B/cycle");
    outln!("Pre. Buffer / L0 cache  {line}B/line");
}

/// Table 3: L1 I-cache and L2 latencies per size and node, from the
/// calibrated CACTI model.
pub fn table3() {
    outln!("# Table 3 — cache latencies (cycles)");
    out!("{:<12}", "Tech");
    for &s in &L1_SIZES {
        out!(" {:>6}", size_label(s));
    }
    outln!(" {:>6}", "1MB");
    for node in [TechNode::T090, TechNode::T045] {
        out!("{:<12}", node.label());
        for &s in &L1_SIZES {
            let g = CacheGeometry::new(s, 64, 2, 1);
            out!(" {:>6}", latency_cycles(&g, node));
        }
        let l2 = CacheGeometry::new(1 << 20, 128, 2, 1);
        outln!(" {:>6}", latency_cycles(&l2, node));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestage_sim::SimStats;

    /// A one-cell study run whose only benchmark ran at `ipc`.
    fn run_at(label: &str, ipc: f64) -> StudyRun {
        let stats = SimStats {
            committed: (ipc * 1000.0) as u64,
            cycles: 1000,
            ..SimStats::default()
        };
        StudyRun {
            label: label.into(),
            spec: ExperimentSpec::default(),
            rows: vec![vec![GridResult {
                per_bench: vec![("gzip".into(), stats)],
            }]],
        }
    }

    #[test]
    fn a_ladder_rung_falling_more_than_3_percent_fails_naming_both_rungs() {
        let runs = [
            run_at("ladder/no prefetch (base)", 0.5),
            run_at("ladder/FDP", 0.7),
            run_at("ladder/CLGP", 0.6),
        ];
        let err = related_work("", &runs).unwrap_err();
        assert!(
            err.starts_with("related_work: ")
                && err.contains("CLGP HMEAN 0.600 is more than 3% below FDP HMEAN 0.700"),
            "{err}"
        );
    }

    #[test]
    fn budget_note_names_the_smallest_match_and_its_ratio() {
        let column = [
            (4 << 10, 0.70),
            (8 << 10, 0.80),
            (16 << 10, 0.90),
            (32 << 10, 0.95),
        ];
        assert_eq!(
            budget_note(0.85, &column),
            "CLGP+L0+PB16 with 1KB L1 (2.5KB total budget) reaches 0.850; the smallest \
             pipelined I-cache matching it is 16K (16K IPC 0.900) => 6.4x the 2.5KB budget"
        );
        // Reaching the target exactly is a match.
        assert!(budget_note(0.80, &column).contains("is 8K (8K IPC 0.800) => 3.2x"));
    }

    #[test]
    fn budget_note_without_a_match_claims_none_and_gives_no_ratio() {
        let column = [(4 << 10, 0.60), (64 << 10, 0.651)];
        let note = budget_note(0.880, &column);
        assert_eq!(
            note,
            "CLGP+L0+PB16 with 1KB L1 (2.5KB total budget) reaches 0.880; no pipelined \
             I-cache up to 64K matches it (64K IPC 0.651)"
        );
        assert!(!note.contains("=>") && !note.contains("smallest"), "{note}");
    }
}
