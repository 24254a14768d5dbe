//! The differential driver: random small experiments, checked against the
//! workspace's core equivalence claims.
//!
//! Each generated [`ExperimentSpec`] is run three ways — live in-process,
//! sharded through the serialized [`ShardFile`] wire format and merged,
//! and replayed from a freshly recorded trace — and the three canonical
//! grid artifacts must be **byte-identical**.  Alongside, one standing
//! claim gets its own property: all six prefetch mechanisms are
//! bit-identical when the pre-buffer is disabled by config (a disabled
//! mechanism must be *absent*, not merely quiet).
//!
//! Determinism: every choice comes from one [`SmallRng`] stream, so a
//! `(n_specs, seed)` pair replays the exact same campaign; any failure
//! message embeds the full spec JSON so it can be re-run by hand.

use prestage_cacti::TechNode;
use prestage_core::{ITlbConfig, InsertionPolicy, PrefetcherKind};
use prestage_sim::{
    grid_output, try_run_spec, ConfigPreset, Engine, ExperimentSpec, PredictorKind, ShardFile,
    SimConfig, Sweep, TraceSource,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;

/// Outcome of one differential campaign.
#[derive(Debug)]
pub struct DiffReport {
    /// Random specs that went through the live/shard/replay gauntlet.
    pub specs: u64,
    /// Disabled-prefetch mechanism-equivalence configurations checked.
    pub mechanism_checks: u64,
    /// Human-readable property violations (empty on a clean run).
    pub failures: Vec<String>,
}

/// Benchmarks small enough to keep a fuzz-sized run sub-second; the
/// differential properties are about plumbing, not workload breadth.
const BENCHES: &[&str] = &["gzip", "mcf", "crafty"];

/// Draw a random *valid* small spec: 1–2 presets, 1–2 L1 sizes, one
/// benchmark, short run lengths.  Trace stays `None` — the replay
/// property installs the trace itself.  `prefetcher` draws `None` half
/// the time and a uniform mechanism otherwise, so every property also
/// exercises the monomorphized per-mechanism engines.
fn random_small_spec(rng: &mut SmallRng) -> ExperimentSpec {
    let all_presets = ConfigPreset::all();
    let techs = [
        TechNode::T180,
        TechNode::T130,
        TechNode::T090,
        TechNode::T065,
        TechNode::T045,
    ];
    let sizes = [256usize, 1 << 10, 4 << 10, 16 << 10];
    for _ in 0..20 {
        let n_presets = rng.gen_range(1..=2usize);
        let mut presets = Vec::new();
        while presets.len() < n_presets {
            let p = all_presets[rng.gen_range(0..all_presets.len())];
            if !presets.contains(&p) {
                presets.push(p);
            }
        }
        let n_sizes = rng.gen_range(1..=2usize);
        let mut l1_sizes = Vec::new();
        while l1_sizes.len() < n_sizes {
            let s = sizes[rng.gen_range(0..sizes.len())];
            if !l1_sizes.contains(&s) {
                l1_sizes.push(s);
            }
        }
        let spec = ExperimentSpec {
            presets,
            tech: techs[rng.gen_range(0..techs.len())],
            l1_sizes,
            bench: Some(vec![BENCHES[rng.gen_range(0..BENCHES.len())].to_string()]),
            warmup_insts: rng.gen_range(200..=1_200u64),
            measure_insts: rng.gen_range(500..=3_500u64),
            workload_seed: rng.gen_range(1..=1_000u64),
            exec_seed: rng.gen_range(1..=1_000u64),
            threads: Some(rng.gen_range(1..=3usize)),
            predictor: if rng.gen_bool(0.5) {
                PredictorKind::Stream
            } else {
                PredictorKind::Gshare
            },
            trace: None,
            prefetcher: if rng.gen_bool(0.5) {
                let kinds = PrefetcherKind::all();
                Some(kinds[rng.gen_range(0..kinds.len())])
            } else {
                None
            },
            itlb: if rng.gen_bool(0.5) {
                // Power-of-two sets by construction; pages no smaller than
                // the 64 B line size the validator insists on.
                Some(ITlbConfig {
                    entries: [4usize, 16, 64][rng.gen_range(0..3usize)],
                    assoc: [1usize, 2, 4][rng.gen_range(0..3usize)],
                    page_bytes: [256u64, 1024, 4096][rng.gen_range(0..3usize)],
                    miss_cycles: rng.gen_range(1..=40u64),
                })
            } else {
                None
            },
            insertion: if rng.gen_bool(0.5) {
                let all = InsertionPolicy::all();
                Some(all[rng.gen_range(0..all.len())])
            } else {
                None
            },
        };
        if spec.validate().is_ok() {
            return spec;
        }
    }
    // The axes above are all individually valid, so 20 draws without a
    // valid combination means the generator and validator have diverged.
    panic!("random_small_spec cannot draw a valid spec");
}

/// Run `f` with panics captured as property failures: a panic anywhere in
/// a leg is a violation to report, not a reason to abort the campaign.
fn guarded<T>(
    what: &str,
    spec_json: &str,
    f: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    panic::set_hook(hook);
    match result {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(format!("{what}: {e}\n  spec: {spec_json}")),
        Err(p) => Err(format!(
            "{what}: panic: {}\n  spec: {spec_json}",
            crate::panic_message(&*p)
        )),
    }
}

/// Property A — **live == shard/merge == replay**, byte-identical.
///
/// * The shard leg splits the cell list at a random point, evaluates the
///   halves in *reverse* order, serializes each half through the
///   [`ShardFile`] wire format (parse-of-render, like a real multi-host
///   run), and merges them with [`ShardFile::merge`], as `prestage merge`
///   does.
/// * The replay leg records the benchmark's trace to a scratch directory
///   and re-runs the spec with `trace` pointing at it.
fn check_spec_equivalence(
    spec: &ExperimentSpec,
    rng: &mut SmallRng,
    scratch: &PathBuf,
) -> Result<(), String> {
    let spec_json = spec.to_json();

    let live = guarded("live run", &spec_json, || {
        try_run_spec(spec).map(|rows| grid_output(spec, &rows))
    })?;

    // Shard leg.
    let sharded = guarded("shard/merge run", &spec_json, || {
        let cells = spec.cells()?;
        let split = rng.gen_range(0..=cells.len());
        let mut shards = Vec::new();
        // Back half first: merge order must not matter.
        for (start, end) in [(split, cells.len()), (0, split)] {
            if start == end {
                continue;
            }
            let shard = ShardFile {
                spec: spec.clone(),
                start,
                end,
                results: Sweep::new(spec, &cells[start..end]).run()?,
            };
            // Through the wire format, exactly as `prestage merge` sees it.
            let back = ShardFile::from_json(&shard.to_json())?;
            shards.push((format!("shard {start}..{end}"), back));
        }
        let rows = ShardFile::merge(&shards)?;
        Ok(grid_output(spec, &rows))
    })?;
    if sharded != live {
        return Err(format!(
            "shard/merge output differs from the live run\n  spec: {spec_json}"
        ));
    }

    // Replay leg.
    let replayed = guarded("replay run", &spec_json, || {
        std::fs::create_dir_all(scratch).map_err(|e| e.to_string())?;
        for name in spec.bench_names()? {
            let profile = prestage_workload::by_name(name).ok_or("unknown benchmark")?;
            let w = prestage_workload::build(&profile, spec.workload_seed);
            let path = scratch.join(TraceSource::file_name(
                name,
                spec.workload_seed,
                spec.exec_seed,
            ));
            let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
            prestage_workload::record_trace(
                std::io::BufWriter::new(file),
                &w,
                spec.exec_seed,
                spec.trace_record_insts(),
                256,
            )
            .map_err(|e| e.to_string())?;
        }
        let replay_spec = ExperimentSpec {
            trace: Some(TraceSource {
                dir: scratch.display().to_string(),
            }),
            ..spec.clone()
        };
        try_run_spec(&replay_spec).map(|rows| grid_output(&replay_spec, &rows))
    })?;
    if replayed != live {
        return Err(format!(
            "trace-replay output differs from the live run\n  spec: {spec_json}"
        ));
    }
    Ok(())
}

/// Property B — with the pre-buffer disabled by config (`pb_entries = 0`),
/// all six mechanisms must produce bit-identical stats: a mechanism with
/// no buffer to fill must be indistinguishable from `None`.
fn check_disabled_mechanisms(rng: &mut SmallRng) -> Result<(), String> {
    let bench = BENCHES[rng.gen_range(0..BENCHES.len())];
    let mut profile = prestage_workload::by_name(bench).expect("known benchmark");
    profile.i_footprint_kb = profile.i_footprint_kb.min(4);
    profile.n_funcs = profile.n_funcs.min(8);
    let w = prestage_workload::build(&profile, rng.gen_range(1..=1_000u64));

    let presets = ConfigPreset::all();
    let preset = presets[rng.gen_range(0..presets.len())];
    let techs = [TechNode::T090, TechNode::T045];
    let tech = techs[rng.gen_range(0..techs.len())];
    let l1 = [1 << 10, 4 << 10][rng.gen_range(0..2usize)];
    let exec_seed = rng.gen_range(1..=1_000u64);

    let mut baseline = None;
    for kind in PrefetcherKind::all() {
        let mut cfg = SimConfig::preset(preset, tech, l1).with_insts(500, 2_000);
        cfg.frontend.pb_entries = 0;
        cfg.frontend.prefetcher = kind;
        let stats = Engine::new(cfg, &w, exec_seed).run();
        match &baseline {
            None => baseline = Some((kind, stats)),
            Some((k0, s0)) => {
                if stats != *s0 {
                    return Err(format!(
                        "disabled-prefetch divergence: {kind:?} != {k0:?} \
                         ({bench}, {preset:?}, {tech:?}, L1 {l1}B, exec seed {exec_seed})"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Run the full differential campaign: `n_specs` random specs through
/// property A, and one property-B configuration per spec.
/// `log` receives one progress line per spec (the CLI's live ticker).
pub fn run_differential(n_specs: u64, seed: u64, mut log: impl FnMut(&str)) -> DiffReport {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1FF_D1FF);
    let mut report = DiffReport {
        specs: 0,
        mechanism_checks: 0,
        failures: Vec::new(),
    };
    let scratch = std::env::temp_dir().join(format!(
        "prestage-fuzz-diff-{}-{seed:x}",
        std::process::id()
    ));
    for i in 0..n_specs {
        let spec = random_small_spec(&mut rng);
        report.specs += 1;
        if let Err(e) = check_spec_equivalence(&spec, &mut rng, &scratch) {
            report.failures.push(e);
        }
        if let Err(e) = check_disabled_mechanisms(&mut rng) {
            report.failures.push(e);
        }
        report.mechanism_checks += 1;
        log(&format!(
            "spec {}/{n_specs}: {} failure(s) so far",
            i + 1,
            report.failures.len()
        ));
    }
    let _ = std::fs::remove_dir_all(&scratch);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_specs_are_deterministic_and_valid() {
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        for _ in 0..25 {
            let sa = random_small_spec(&mut a);
            let sb = random_small_spec(&mut b);
            assert_eq!(sa, sb);
            sa.validate().expect("generator only emits valid specs");
        }
    }

    #[test]
    fn disabled_mechanisms_agree_once() {
        let mut rng = SmallRng::seed_from_u64(4);
        check_disabled_mechanisms(&mut rng).unwrap();
    }
}
