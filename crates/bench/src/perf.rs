//! Per-run performance artifacts for CI: one JSON report
//! (`results/ci_grid.json`) tracking both the mini-grid's per-row numbers
//! *and* the Criterion-shim micro-bench medians, plus a differ that flags
//! large movement against the previous run.
//!
//! Serialization rides the shared [`prestage_json`] module (the original
//! hand-rolled line scanner this module started as was promoted there).
//! Baselines load through [`load_baseline`]: anything but a complete
//! current-schema report — an older schema, damaged JSON, a truncation —
//! is a *named* error rather than a silent "no baseline".
//!
//! Micro-bench medians arrive via the Criterion shim's
//! `CRITERION_MEDIANS_FILE` hook (vendor/criterion): each
//! `bench_function` appends a `name<TAB>median_ns` line, and
//! [`parse_medians_tsv`] folds the file into the report so one artifact
//! tracks grid IPC and hot-path latencies together (the ROADMAP's CI
//! perf-tracking item).

use prestage_json::Json;

/// One (preset, L1 size) row of the CI mini-grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CellPerf {
    /// Preset label (e.g. `"CLGP+L0"`), or a mechanism id (`"mana"`) for
    /// the prefetcher-override rows.
    pub preset: String,
    pub l1: usize,
    /// Deterministic given seeds and run lengths — any movement at all
    /// means simulator behaviour changed.
    pub hmean_ipc: f64,
    /// Median wall-clock of the row's cells on this host (noisy; only
    /// large movements are meaningful).
    pub median_cell_wall_s: f64,
    /// Fastest cell of the row — with `max`, the raw data for the
    /// ROADMAP's runner-noise characterization: once enough artifacts
    /// record the per-row spread, the warning band can be tightened into
    /// a failure threshold with evidence instead of guesswork.
    pub min_cell_wall_s: f64,
    /// Slowest cell of the row.
    pub max_cell_wall_s: f64,
}

impl CellPerf {
    /// Within-row spread `max/min - 1`: the single-run noise proxy the
    /// escalation decision will be based on.
    pub fn wall_spread(&self) -> f64 {
        rel_delta(self.min_cell_wall_s, self.max_cell_wall_s)
    }
}

/// Median per-iteration latency of one Criterion-shim micro-bench
/// (e.g. `"engine/crafty_20k"`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchMedian {
    pub name: String,
    pub median_ns: f64,
    /// Elements processed per iteration when the bench declared a
    /// throughput (`0` = unknown / not element-based).
    pub elems: u64,
    /// The shim's measurement policy (e.g. `"min-median:rounds=5,warmup=3"`);
    /// empty when the median predates policy recording.
    pub policy: String,
}

impl BenchMedian {
    /// Throughput in Melem/s, when the element count is known.
    pub fn melem_s(&self) -> Option<f64> {
        if self.elems == 0 || self.median_ns <= 0.0 || self.median_ns.is_nan() {
            return None;
        }
        Some(self.elems as f64 * 1_000.0 / self.median_ns)
    }
}

/// The cell cache (`prestage run --cache`) on this host, measured by
/// `ci_grid` running one small sweep through a fresh cache twice.
#[derive(Debug, Clone, PartialEq)]
pub struct CachePerf {
    /// The first run: every cell simulated and stored.
    pub cold_s: f64,
    /// The identical re-run: every cell a hit, no simulation or set-up.
    pub hit_s: f64,
}

/// A whole CI perf report.  The artifact's schema number is not a field:
/// [`PerfReport::to_json`] always writes [`PERF_SCHEMA`] and `from_json`
/// only accepts it, so a report that would be rejected by its own reader
/// cannot be constructed.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    pub total_wall_s: f64,
    pub cells: Vec<CellPerf>,
    /// Micro-bench medians; empty when no medians file was present.
    pub benches: Vec<BenchMedian>,
    /// Cell-cache latency; `None` when the measurement was skipped
    /// (serialized as JSON `null`).
    pub cache: Option<CachePerf>,
    /// Hard-failure threshold for wall-clock regressions, derived from
    /// this run's recorded per-row spreads (see
    /// [`PerfReport::derived_fail_threshold`]).  Recorded in the artifact
    /// so the *next* run fails against the noise envelope this host
    /// actually measured, not a guessed constant.
    pub fail_threshold: f64,
}

/// Current artifact schema.  2 added the `benches` section; 3 added the
/// per-row min/max cell wall-clock (noise characterization); 4 added the
/// `serve` orchestrator-throughput section; 5 added per-bench
/// `elems`/`policy` (throughput + measurement-policy provenance) and the
/// spread-derived `fail_threshold`; 6 grew the grid's row set with the
/// TLB-on row (an `itlb`-suffixed preset label simulated with address
/// translation enabled); 7 replaced the `serve` section with the cell
/// cache's `cache` section (`cold_s`, `hit_s`).  [`load_baseline`] reads
/// this schema only; any other reads as a *named* schema mismatch, never
/// a silent "no baseline".
pub const PERF_SCHEMA: u32 = 7;

/// Relative change `new/old - 1`, with a zero/zero as no change and a
/// from-zero jump as +inf.
fn rel_delta(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        new / old - 1.0
    }
}

impl PerfReport {
    /// Derive the wall-clock hard-failure threshold from recorded per-row
    /// spreads: a regression only fails the gate when it exceeds the
    /// noise envelope this host demonstrably produces *within one run*,
    /// with a 1.5x margin.  Clamped to `[0.15, 0.60]`: the floor keeps the
    /// gate above the 10% warning band, the ceiling stops one wild row
    /// from disabling the gate entirely.
    pub fn derived_fail_threshold(cells: &[CellPerf]) -> f64 {
        let max_spread = cells.iter().map(CellPerf::wall_spread).fold(0.0, f64::max);
        (1.5 * max_spread).clamp(0.15, 0.60)
    }

    pub fn to_json(&self) -> String {
        Json::obj([
            ("schema", u64::from(PERF_SCHEMA).into()),
            ("total_wall_s", self.total_wall_s.into()),
            ("fail_threshold", self.fail_threshold.into()),
            (
                "cells",
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("preset", c.preset.as_str().into()),
                                ("l1", c.l1.into()),
                                ("hmean_ipc", c.hmean_ipc.into()),
                                ("median_cell_wall_s", c.median_cell_wall_s.into()),
                                ("min_cell_wall_s", c.min_cell_wall_s.into()),
                                ("max_cell_wall_s", c.max_cell_wall_s.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "benches",
                Json::Arr(
                    self.benches
                        .iter()
                        .map(|b| {
                            Json::obj([
                                ("name", b.name.as_str().into()),
                                ("median_ns", b.median_ns.into()),
                                ("elems", b.elems.into()),
                                ("policy", b.policy.as_str().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "cache",
                match &self.cache {
                    None => Json::Null,
                    Some(c) => Json::obj([
                        ("cold_s", c.cold_s.into()),
                        ("hit_s", c.hit_s.into()),
                    ]),
                },
            ),
        ])
        .pretty()
    }

    /// Parse a report previously written by [`PerfReport::to_json`].
    /// Returns `None` on anything that does not look like a complete
    /// current-schema report, so CI treats a stale or damaged artifact as
    /// "no baseline" rather than silently comparing less.  For the reason,
    /// use [`load_baseline`].
    pub fn from_json(text: &str) -> Option<PerfReport> {
        load_baseline(text).ok()
    }

    /// The body of a current-schema report.
    fn parse(v: &Json) -> Option<PerfReport> {
        let cells = v
            .get("cells")?
            .as_arr()?
            .iter()
            .map(|c| {
                Some(CellPerf {
                    preset: c.get("preset")?.as_str()?.to_string(),
                    l1: c.get("l1")?.as_usize()?,
                    hmean_ipc: c.get("hmean_ipc")?.as_f64()?,
                    median_cell_wall_s: c.get("median_cell_wall_s")?.as_f64()?,
                    min_cell_wall_s: c.get("min_cell_wall_s")?.as_f64()?,
                    max_cell_wall_s: c.get("max_cell_wall_s")?.as_f64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        if cells.is_empty() {
            return None;
        }
        let benches = v
            .get("benches")?
            .as_arr()?
            .iter()
            .map(|b| {
                Some(BenchMedian {
                    name: b.get("name")?.as_str()?.to_string(),
                    median_ns: b.get("median_ns")?.as_f64()?,
                    elems: b.get("elems")?.as_u64()?,
                    policy: b.get("policy")?.as_str()?.to_string(),
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let cache = match v.get("cache")? {
            Json::Null => None,
            c => Some(CachePerf {
                cold_s: c.get("cold_s")?.as_f64()?,
                hit_s: c.get("hit_s")?.as_f64()?,
            }),
        };
        Some(PerfReport {
            total_wall_s: v.get("total_wall_s")?.as_f64()?,
            cells,
            benches,
            cache,
            fail_threshold: v.get("fail_threshold")?.as_f64()?,
        })
    }
}

/// Load a baseline artifact for comparison.  A current-schema report
/// parses as-is; anything else — another schema, damaged JSON, a
/// truncation — is a *named* error, so CI output states exactly why no
/// comparison happened instead of silently skipping it.
pub fn load_baseline(text: &str) -> Result<PerfReport, String> {
    let v = Json::parse(text).map_err(|e| format!("baseline artifact is not JSON: {e}"))?;
    let schema = v
        .get("schema")
        .and_then(Json::as_u64)
        .ok_or("baseline artifact has no numeric `schema` field")?;
    if schema != u64::from(PERF_SCHEMA) {
        return Err(format!(
            "baseline artifact is schema {schema}, this build reads {PERF_SCHEMA} \
             — regenerate the baseline"
        ));
    }
    PerfReport::parse(&v)
        .ok_or_else(|| format!("baseline artifact is schema {PERF_SCHEMA} but incomplete"))
}

/// Parse the Criterion shim's medians file: one
/// `name<TAB>median_ns[<TAB>elems<TAB>policy]` line per benchmark, later
/// lines winning on re-run (append semantics).  The two-column form is the
/// pre-policy shim's output and reads as unknown throughput/policy.
/// Malformed lines are a loud error — the file is machine-written, so
/// damage means the pipeline is broken.
pub fn parse_medians_tsv(text: &str) -> Result<Vec<BenchMedian>, String> {
    let mut out: Vec<BenchMedian> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let mut fields = line.split('\t');
        // `split` always yields at least one field; the empty fallback
        // only keeps this panic-free.
        let name = fields.next().unwrap_or("");
        let ns = fields
            .next()
            .ok_or_else(|| format!("medians line {} has no tab: {line:?}", i + 1))?;
        let median_ns: f64 = ns
            .trim()
            .parse()
            .map_err(|_| format!("medians line {} has a bad number: {line:?}", i + 1))?;
        let (elems, policy) = match (fields.next(), fields.next()) {
            (None, _) => (0, String::new()),
            (Some(e), p) => (
                e.trim().parse::<u64>().map_err(|_| {
                    format!("medians line {} has a bad element count: {line:?}", i + 1)
                })?,
                p.unwrap_or("").trim().to_string(),
            ),
        };
        let parsed = BenchMedian {
            name: name.to_string(),
            median_ns,
            elems,
            policy,
        };
        match out.iter_mut().find(|b| b.name == name) {
            Some(b) => *b = parsed,
            None => out.push(parsed),
        }
    }
    Ok(out)
}

/// IPC or wall-clock movement beyond this fraction warns (the simulator is
/// deterministic, so *any* IPC movement means behaviour changed).
const GRID_WARN: f64 = 0.10;
/// Micro-bench medians are noisier than grid rows; only a slowdown beyond
/// this fraction warns.
const BENCH_WARN: f64 = 0.25;

/// Compare `new` against `old`, matching grid rows by (preset, l1) and
/// micro-benches by name.
///
/// Returns `(deltas, warnings, failures)`: every row's movement as a
/// human-readable line; the subset that moved beyond the warning bands —
/// grid IPC in *either* direction and cell wall-clock up beyond 10%,
/// micro-bench medians up beyond 25%; and the subset of wall-clock
/// regressions beyond the spread-derived failure threshold (the larger of
/// the two runs' recorded [`PerfReport::fail_threshold`]s, so a noisy
/// *current* run cannot fail against a quiet baseline's envelope).
/// Failures are the gate: ci_grid exits nonzero on any.  A row present in
/// the baseline but missing from `new` warns: its regression coverage
/// silently vanished.
pub fn diff(old: &PerfReport, new: &PerfReport) -> (Vec<String>, Vec<String>, Vec<String>) {
    let mut deltas = Vec::new();
    let mut warnings = Vec::new();
    let mut failures = Vec::new();
    let fail_at = old.fail_threshold.max(new.fail_threshold);
    for prev in &old.cells {
        if !new
            .cells
            .iter()
            .any(|c| c.preset == prev.preset && c.l1 == prev.l1)
        {
            warnings.push(format!(
                "{} @ {}B: row present in baseline but missing from this run",
                prev.preset, prev.l1
            ));
        }
    }
    for c in &new.cells {
        let Some(prev) = old
            .cells
            .iter()
            .find(|p| p.preset == c.preset && p.l1 == c.l1)
        else {
            deltas.push(format!("{} @ {}B: new cell (no baseline)", c.preset, c.l1));
            continue;
        };
        let d_ipc = rel_delta(prev.hmean_ipc, c.hmean_ipc);
        let d_wall = rel_delta(prev.median_cell_wall_s, c.median_cell_wall_s);
        deltas.push(format!(
            "{} @ {}B: hmean_ipc {:.4} -> {:.4} ({:+.1}%), median cell wall {:.4}s -> {:.4}s ({:+.1}%), spread {:.0}% -> {:.0}%",
            c.preset,
            c.l1,
            prev.hmean_ipc,
            c.hmean_ipc,
            100.0 * d_ipc,
            prev.median_cell_wall_s,
            c.median_cell_wall_s,
            100.0 * d_wall,
            100.0 * prev.wall_spread(),
            100.0 * c.wall_spread(),
        ));
        if d_ipc.abs() > GRID_WARN {
            warnings.push(format!(
                "{} @ {}B: hmean IPC moved {:+.1}% ({:.4} -> {:.4})",
                c.preset,
                c.l1,
                100.0 * d_ipc,
                prev.hmean_ipc,
                c.hmean_ipc
            ));
        }
        if d_wall > fail_at {
            failures.push(format!(
                "{} @ {}B: median cell wall-clock up {:.1}% ({:.4}s -> {:.4}s), beyond the {:.0}% spread-derived threshold",
                c.preset,
                c.l1,
                100.0 * d_wall,
                prev.median_cell_wall_s,
                c.median_cell_wall_s,
                100.0 * fail_at,
            ));
        } else if d_wall > GRID_WARN {
            warnings.push(format!(
                "{} @ {}B: median cell wall-clock up {:.1}% ({:.4}s -> {:.4}s)",
                c.preset,
                c.l1,
                100.0 * d_wall,
                prev.median_cell_wall_s,
                c.median_cell_wall_s
            ));
        }
    }
    for prev in &old.benches {
        if !new.benches.iter().any(|b| b.name == prev.name) {
            warnings.push(format!(
                "bench {}: present in baseline but missing from this run",
                prev.name
            ));
        }
    }
    for b in &new.benches {
        let Some(prev) = old.benches.iter().find(|p| p.name == b.name) else {
            deltas.push(format!("bench {}: new benchmark (no baseline)", b.name));
            continue;
        };
        let d = rel_delta(prev.median_ns, b.median_ns);
        let tp = match (prev.melem_s(), b.melem_s()) {
            (Some(o), Some(n)) => format!(", {o:.2} -> {n:.2} Melem/s"),
            _ => String::new(),
        };
        deltas.push(format!(
            "bench {}: median {:.1}ns -> {:.1}ns ({:+.1}%){tp}",
            b.name, prev.median_ns, b.median_ns, 100.0 * d
        ));
        // Micro-bench medians ride a warn band 2.5x the grid's, so their
        // failure threshold scales by the same factor.
        let bench_fail = (fail_at * BENCH_WARN / GRID_WARN).max(BENCH_WARN);
        if d > bench_fail {
            failures.push(format!(
                "bench {}: median latency up {:.1}% ({:.1}ns -> {:.1}ns), beyond the {:.0}% spread-derived threshold",
                b.name,
                100.0 * d,
                prev.median_ns,
                b.median_ns,
                100.0 * bench_fail,
            ));
        } else if d > BENCH_WARN {
            warnings.push(format!(
                "bench {}: median latency up {:.1}% ({:.1}ns -> {:.1}ns)",
                b.name,
                100.0 * d,
                prev.median_ns,
                b.median_ns
            ));
        }
    }
    match (&old.cache, &new.cache) {
        (Some(prev), Some(c)) => {
            let d_cold = rel_delta(prev.cold_s, c.cold_s);
            let d_hit = rel_delta(prev.hit_s, c.hit_s);
            deltas.push(format!(
                "cache: cold {:.4}s -> {:.4}s ({:+.1}%), hit {:.4}s -> {:.4}s ({:+.1}%)",
                prev.cold_s,
                c.cold_s,
                100.0 * d_cold,
                prev.hit_s,
                c.hit_s,
                100.0 * d_hit,
            ));
            // Both ride on wall-clock, so use the wide micro-bench band
            // and only warn.
            for (what, d, old_s, new_s) in [
                ("cold run", d_cold, prev.cold_s, c.cold_s),
                ("cache-hit latency", d_hit, prev.hit_s, c.hit_s),
            ] {
                if d > BENCH_WARN {
                    warnings.push(format!(
                        "cache: {what} up {:.1}% ({old_s:.4}s -> {new_s:.4}s)",
                        100.0 * d
                    ));
                }
            }
        }
        (Some(_), None) => warnings.push(
            "cache: section present in baseline but missing from this run".to_string(),
        ),
        (None, Some(c)) => deltas.push(format!(
            "cache: cold {:.4}s, hit {:.4}s (no baseline)",
            c.cold_s, c.hit_s
        )),
        (None, None) => {}
    }
    (deltas, warnings, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ipc: f64, wall: f64) -> PerfReport {
        PerfReport {
            total_wall_s: 2.5,
            cells: vec![
                CellPerf {
                    preset: "base+L0".into(),
                    l1: 1024,
                    hmean_ipc: ipc,
                    median_cell_wall_s: wall,
                    min_cell_wall_s: wall * 0.8,
                    max_cell_wall_s: wall * 1.3,
                },
                CellPerf {
                    preset: "CLGP+L0".into(),
                    l1: 4096,
                    hmean_ipc: 1.5,
                    median_cell_wall_s: 0.02,
                    min_cell_wall_s: 0.018,
                    max_cell_wall_s: 0.025,
                },
            ],
            benches: vec![BenchMedian {
                name: "engine/crafty_20k".into(),
                median_ns: 6_420_000.0,
                elems: 20_000,
                policy: "min-median:rounds=5,warmup=3".into(),
            }],
            cache: None,
            fail_threshold: 0.20,
        }
    }

    #[test]
    fn json_roundtrips() {
        let r = report(1.25, 0.0125);
        let back = PerfReport::from_json(&r.to_json()).expect("parses");
        assert_eq!(back, r);
    }

    #[test]
    fn garbage_and_other_schemas_are_no_baseline() {
        assert!(PerfReport::from_json("").is_none());
        assert!(PerfReport::from_json("not json at all").is_none());
        let other = report(1.0, 1.0)
            .to_json()
            .replace("\"schema\": 7", "\"schema\": 2");
        assert!(PerfReport::from_json(&other).is_none());
    }

    #[test]
    fn baseline_loads_schema_7_only_and_names_everything_else() {
        // Schema 7 loads clean.
        let seven = report(1.0, 0.01);
        assert_eq!(
            load_baseline(&seven.to_json()).expect("current schema loads"),
            seven
        );

        // Everything else is a *named* refusal, not a silent skip —
        // including schema 6, the last baseline with a `serve` section.
        let e = load_baseline("not json").unwrap_err();
        assert!(e.contains("not JSON"), "{e}");
        for old in [6, 5, 4, 2] {
            let text = seven
                .to_json()
                .replace("\"schema\": 7", &format!("\"schema\": {old}"));
            let e = load_baseline(&text).unwrap_err();
            assert!(
                e.contains(&format!("schema {old}, this build reads 7")),
                "{e}"
            );
        }
        let e = load_baseline("{\"schema\": true}").unwrap_err();
        assert!(e.contains("schema"), "{e}");
        let e = load_baseline("{\"schema\": 7}").unwrap_err();
        assert!(e.contains("incomplete"), "{e}");
    }

    #[test]
    fn threshold_derivation_tracks_recorded_spread() {
        // Quiet rows: the floor holds.
        let mut r = report(1.0, 0.01);
        r.cells[0].min_cell_wall_s = 0.0099;
        r.cells[0].max_cell_wall_s = 0.0101;
        r.cells[1].min_cell_wall_s = 0.0199;
        r.cells[1].max_cell_wall_s = 0.0201;
        assert_eq!(PerfReport::derived_fail_threshold(&r.cells), 0.15);
        // A 30% within-run spread raises the threshold to 45%.
        r.cells[1].min_cell_wall_s = 0.020;
        r.cells[1].max_cell_wall_s = 0.026;
        let t = PerfReport::derived_fail_threshold(&r.cells);
        assert!((t - 0.45).abs() < 1e-9, "{t}");
        // One wild row cannot disable the gate: capped at 60%.
        r.cells[1].max_cell_wall_s = 0.2;
        assert_eq!(PerfReport::derived_fail_threshold(&r.cells), 0.60);
    }

    #[test]
    fn regressions_beyond_the_derived_threshold_fail_not_warn() {
        let old = report(1.00, 0.0100); // fail_threshold 0.20
        // +15% wall: warned, not failed.
        let (_, warnings, failures) = diff(&old, &report(1.00, 0.0115));
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(failures.is_empty(), "{failures:?}");
        // +30% wall: beyond the 20% threshold — a hard failure, and not
        // double-reported as a warning.
        let (_, warnings, failures) = diff(&old, &report(1.00, 0.0130));
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("spread-derived threshold"), "{failures:?}");
        // A noisy *current* run widens the gate instead of tripping it:
        // same +30%, but the new run recorded a 40% threshold itself.
        let mut noisy = report(1.00, 0.0130);
        noisy.fail_threshold = 0.40;
        let (_, warnings, failures) = diff(&old, &noisy);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(failures.is_empty(), "{failures:?}");
        // Bench medians escalate with a 2.5x-scaled threshold (their warn
        // band is 2.5x the grid's): +30% warns, +60% fails.
        let mut slow = report(1.00, 0.0100);
        slow.benches[0].median_ns *= 1.30;
        let (_, warnings, failures) = diff(&old, &slow);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(failures.is_empty(), "{failures:?}");
        let mut slower = report(1.00, 0.0100);
        slower.benches[0].median_ns *= 1.60;
        let (_, warnings, failures) = diff(&old, &slower);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(failures.len(), 1, "{failures:?}");
    }

    #[test]
    fn bench_throughput_derives_from_elems() {
        let r = report(1.0, 0.01);
        // 20k elems / 6.42ms = ~3.115 Melem/s.
        let tp = r.benches[0].melem_s().unwrap();
        assert!((tp - 3.115).abs() < 0.01, "{tp}");
        let mut unknown = r.benches[0].clone();
        unknown.elems = 0;
        assert!(unknown.melem_s().is_none());
        // Throughput shows up in the human-readable deltas.
        let (deltas, _, _) = diff(&r, &r);
        assert!(deltas.iter().any(|d| d.contains("Melem/s")), "{deltas:?}");
    }

    #[test]
    fn truncated_artifact_is_no_baseline() {
        // An interrupted cache save must not read as a smaller valid
        // report: truncated JSON simply fails to parse.
        let full = report(1.0, 1.0).to_json();
        let cut = full.find("\"CLGP+L0\"").unwrap();
        assert!(PerfReport::from_json(&full[..cut]).is_none());
    }

    #[test]
    fn diff_flags_only_large_movement() {
        let old = report(1.00, 0.0100);
        // 5% slower wall, 5% lower IPC: reported, not warned.
        let (deltas, warnings, _) = diff(&old, &report(0.95, 0.0105));
        assert_eq!(deltas.len(), 3);
        assert!(warnings.is_empty(), "{warnings:?}");
        // 15% lower IPC and 20% slower: both warned.
        let (_, warnings, _) = diff(&old, &report(0.85, 0.0120));
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        // IPC is deterministic — a large *increase* is behaviour change too.
        let (_, warnings, _) = diff(&old, &report(1.30, 0.0080));
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("IPC moved"));
        // Faster wall-clock alone never warns.
        let (_, warnings, _) = diff(&old, &report(1.00, 0.0050));
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn per_row_spread_is_recorded_for_noise_characterization() {
        let r = report(1.0, 0.0100);
        assert!((r.cells[0].wall_spread() - (1.3 / 0.8 - 1.0)).abs() < 1e-9);
        // The spread survives the artifact round-trip and shows up in the
        // human-readable deltas, so successive CI runs accumulate the
        // noise evidence the warning→failure escalation needs.
        let back = PerfReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.cells[0].min_cell_wall_s, r.cells[0].min_cell_wall_s);
        assert_eq!(back.cells[0].max_cell_wall_s, r.cells[0].max_cell_wall_s);
        let (deltas, _, _) = diff(&r, &r);
        assert!(deltas[0].contains("spread"), "{deltas:?}");
    }

    #[test]
    fn diff_tracks_bench_medians_with_a_wider_band() {
        let old = report(1.0, 0.01);
        // 20% slower micro-bench: inside the noise band, no warning.
        let mut new = report(1.0, 0.01);
        new.benches[0].median_ns *= 1.20;
        let (deltas, warnings, _) = diff(&old, &new);
        assert!(deltas.iter().any(|d| d.contains("engine/crafty_20k")));
        assert!(warnings.is_empty(), "{warnings:?}");
        // 30% slower: warned.
        let mut new = report(1.0, 0.01);
        new.benches[0].median_ns *= 1.30;
        let (_, warnings, _) = diff(&old, &new);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("median latency up"));
        // 30% *faster* micro-bench never warns.
        let mut new = report(1.0, 0.01);
        new.benches[0].median_ns *= 0.70;
        let (_, warnings, _) = diff(&old, &new);
        assert!(warnings.is_empty(), "{warnings:?}");
        // A median that vanished from the run warns (coverage lost).
        let mut new = report(1.0, 0.01);
        new.benches.clear();
        let (_, warnings, _) = diff(&old, &new);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("missing from this run"));
    }

    #[test]
    fn diff_handles_unmatched_cells() {
        let old = PerfReport {
            total_wall_s: 0.0,
            cells: vec![],
            benches: vec![],
            cache: None,
            fail_threshold: 0.15,
        };
        let (deltas, warnings, _) = diff(&old, &report(1.0, 0.01));
        assert_eq!(deltas.len(), 3);
        assert!(deltas[0].contains("no baseline"));
        assert!(warnings.is_empty());
        // A baseline row that vanished from the new run is a warning: its
        // coverage silently disappeared.
        let mut shrunk = report(1.0, 0.01);
        shrunk.cells.truncate(1);
        let (_, warnings, _) = diff(&report(1.0, 0.01), &shrunk);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("missing from this run"));
    }

    #[test]
    fn cache_section_roundtrips_and_diffs() {
        let mut r = report(1.0, 0.01);
        r.cache = Some(CachePerf {
            cold_s: 0.8,
            hit_s: 0.003,
        });
        let back = PerfReport::from_json(&r.to_json()).expect("parses");
        assert_eq!(back, r);
        // An absent section serializes as null and round-trips to None.
        let absent = report(1.0, 0.01);
        assert!(absent.to_json().contains("\"cache\": null"));
        assert_eq!(PerfReport::from_json(&absent.to_json()).unwrap().cache, None);

        // Small movement: reported, not warned.
        let mut faster = r.clone();
        faster.cache = Some(CachePerf {
            cold_s: 0.82,
            hit_s: 0.0032,
        });
        let (deltas, warnings, _) = diff(&r, &faster);
        assert!(deltas.iter().any(|d| d.contains("cache: cold")), "{deltas:?}");
        assert!(warnings.is_empty(), "{warnings:?}");
        // Cold run up 50% / cache-hit up 2x: both warned, neither fails.
        let mut slow = r.clone();
        slow.cache = Some(CachePerf {
            cold_s: 1.2,
            hit_s: 0.006,
        });
        let (_, warnings, failures) = diff(&r, &slow);
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(warnings[0].contains("cold run up"));
        assert!(warnings[1].contains("cache-hit latency up"));
        assert!(failures.is_empty(), "{failures:?}");
        // Section vanishing is lost coverage; appearing is just new data.
        let (_, warnings, _) = diff(&r, &report(1.0, 0.01));
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("missing from this run"));
        let (deltas, warnings, _) = diff(&report(1.0, 0.01), &r);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert!(
            deltas.iter().any(|d| d.contains("no baseline")),
            "{deltas:?}"
        );
    }

    #[test]
    fn medians_tsv_parses_and_dedupes() {
        let text = "engine/crafty_20k\t6420000\nbpred/predict_train\t271.5\n\nengine/crafty_20k\t6500000\n";
        let medians = parse_medians_tsv(text).unwrap();
        assert_eq!(medians.len(), 2);
        assert_eq!(medians[0].name, "engine/crafty_20k");
        // Later lines win: a re-run's append supersedes the first.
        assert!((medians[0].median_ns - 6_500_000.0).abs() < 1e-9);
        assert!(parse_medians_tsv("no tab here").is_err());
        assert!(parse_medians_tsv("name\tnot_a_number").is_err());
    }
}
