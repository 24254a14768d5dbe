//! `prestage` — the spec-driven front door to the simulator.
//!
//! Every experiment is an `ExperimentSpec`: a serializable value naming
//! the presets, tech node, L1 sizes, benchmark filter, run lengths, seeds
//! and predictor.  The CLI runs specs whole, shards them across
//! processes, and merges shard outputs back into the exact single-process
//! result:
//!
//! ```text
//! prestage run   <spec.json | name> [--out <file>] [--cache <dir>]
//! prestage shard --spec <spec.json | name> --cells A..B --out <file>
//! prestage merge <shard.json>... [--out <file>]
//! prestage trace record <spec.json | name> --out <dir>
//! prestage trace info   <trace.pstr>
//! prestage spec  <spec.json | name> [--out <file>]
//! prestage fuzz  [--budget <N>] [--seed <S>] [--corpus <dir>] [--crashes <dir>]
//! prestage list
//! ```
//!
//! `trace record` captures one v2 trace per benchmark of a spec (run
//! length + run-ahead slack); a spec whose `trace` field names that
//! directory then *replays* the recordings instead of regenerating the
//! dynamic path in every cell — in `run` and in every `shard` process
//! alike.  Replay is bit-exact, so `run --out` artifacts are byte-identical
//! either way (the trace source, like the pool width, is cleared from the
//! embedded spec).
//!
//! A *name* argument is a declared study from `prestage_bench::figures`
//! (`prestage list`): labelled specs plus a renderer.  A figure (`fig1`,
//! `fig5b`, ...) is a study of one spec; `related_work` and `headline` are
//! studies of several.  `run` applies the `PRESTAGE_*` environment
//! overrides to each spec, runs them in one loop and renders them with the
//! study's own report (CSVs included).  The verbs that take exactly one
//! spec (`spec`, `shard`, `trace record`, `run --out`) resolve a figure to
//! its spec and refuse a study of several by name.  A *file* argument (a
//! regular file; a directory never shadows a name) is taken verbatim: what
//! is in the file is what runs, so two shards of the same file are
//! guaranteed to agree.
//!
//! `run --out` and `merge --out` write the same canonical grid JSON, so
//! `diff` proves a sharded run reproduced the single-process results
//! bit-exactly (CI does exactly that; see `.github/workflows/ci.yml`).
//!
//! `run --cache <dir>` keeps every cell's result in a content-addressed
//! cache keyed by the cell's identity (`prestage_sim::cache`): a re-run or
//! an overlapping grid simulates only the cells the cache lacks, a killed
//! run resumes by being run again, and the artifact is byte-identical to
//! an uncached `run --out` either way.

use prestage_bench::figures::{self, Study};
use prestage_bench::report::{self, StudyRun};
use prestage_bench::{out, outln};
use prestage_sim::spec::{grid_output, ShardFile, TraceSource};
use prestage_sim::{
    pool_map, try_run_spec_cached, CacheCounts, ConfigPreset, ExperimentSpec, Store, Sweep,
};
use prestage_workload::{build, open_trace, record_trace, specint2000, DEFAULT_CHUNK_INSTS};
use std::io::BufWriter;
use std::path::Path;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         prestage run   <spec.json | name> [--out <file>] [--cache <dir>]\n  \
         prestage shard --spec <spec.json | name> --cells A..B --out <file>\n  \
         prestage merge <shard.json>... [--out <file>]\n  \
         prestage trace record <spec.json | name> --out <dir>\n  \
         prestage trace info   <trace.pstr>\n  \
         prestage spec  <spec.json | name> [--out <file>]\n  \
         prestage fuzz  [--budget <N>] [--seed <S>] [--corpus <dir>] [--crashes <dir>]\n  \
         prestage list\n\n\
         A declared figure or study name (see `prestage list`) runs its specs\n\
         with the PRESTAGE_* environment overrides applied; a spec file runs\n\
         verbatim.  shard, trace record, spec and run --out take one spec.\n\
         A spec whose \"trace\" field is {{\"dir\": \"<dir>\"}} replays traces\n\
         previously captured by `trace record` instead of generating live.\n\
         `run --cache <dir>` simulates only the cells <dir> does not hold yet."
    );
    exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("prestage: {msg}");
    exit(2);
}

/// Value following `--key`, removed from `args` together with the key.
fn take_flag(args: &mut Vec<String>, key: &str) -> Option<String> {
    let i = args.iter().position(|a| a == key)?;
    if i + 1 >= args.len() {
        fail(&format!("{key} needs a value"));
    }
    args.remove(i);
    Some(args.remove(i))
}

/// Resolve a spec argument to its labelled specs and, for a declared
/// name, its study.  A regular file parses verbatim (its one spec is
/// labelled `spec <file>`); anything else must be a declared name, whose
/// specs get the environment overrides when `env` is set.
fn resolve(arg: &str, env: bool) -> (Vec<(String, ExperimentSpec)>, Option<&'static Study>) {
    if Path::new(arg).is_file() {
        let text = std::fs::read_to_string(arg)
            .unwrap_or_else(|e| fail(&format!("cannot read {arg}: {e}")));
        let spec =
            ExperimentSpec::from_json(&text).unwrap_or_else(|e| fail(&format!("{arg}: {e}")));
        if let Err(e) = spec.validate() {
            fail(&format!("{arg}: {e}"));
        }
        return (vec![(format!("spec {arg}"), spec)], None);
    }
    let Some(study) = figures::study_by_name(arg) else {
        let names: Vec<&str> = figures::STUDIES.iter().map(|s| s.name).collect();
        fail(&format!(
            "{arg:?} is neither a spec file nor a declared name ({})",
            names.join(", ")
        ));
    };
    let mut specs = (study.make_specs)();
    if env {
        for (_, spec) in &mut specs {
            *spec = spec.clone().env_overrides().unwrap_or_else(|e| fail(&e));
        }
    }
    (specs, Some(study))
}

/// Refuse a study of several specs where `what` (the verb) takes one.
fn refuse_many(specs: &[(String, ExperimentSpec)], study: Option<&Study>, what: &str) {
    if let (Some(study), 2..) = (study, specs.len()) {
        fail(&format!(
            "{:?} is a study of {} specs, and {what} takes one spec; \
             run the study with `prestage run {}`",
            study.name,
            specs.len(),
            study.name
        ));
    }
}

/// The one spec `arg` names, for `what` (the verb): [`resolve`], with a
/// study of several specs refused by name.
fn one_spec(arg: &str, what: &str, env: bool) -> ExperimentSpec {
    let (mut specs, study) = resolve(arg, env);
    refuse_many(&specs, study, what);
    specs.remove(0).1
}

fn write_out(path: &str, content: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, content).unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
    eprintln!("wrote {path}");
}

fn cmd_run(mut args: Vec<String>) {
    let out = take_flag(&mut args, "--out");
    let cache = take_flag(&mut args, "--cache");
    let [arg] = args.as_slice() else { usage() };
    let (specs, study) = resolve(arg, true);
    if out.is_some() {
        refuse_many(&specs, study, "`prestage run --out`");
    }
    let runs = run_specs(specs, cache.as_deref());
    match study {
        // A declared name renders its own report (CSVs included).
        Some(study) => (study.render)(study.title, &runs).unwrap_or_else(|e| fail(&e)),
        // A spec file prints the table without touching results/.
        None => report::sweep_table(&runs[0].label, &runs[0].spec, &runs[0].rows),
    }
    if let Some(path) = out {
        write_out(&path, &grid_output(&runs[0].spec, &runs[0].rows));
    }
}

/// Run labelled specs in order.  Under `--cache` each spec goes through
/// the cell cache, so figures and studies share cells.  Uncached, a lone
/// spec runs as one `Sweep` whose set-up builds its workloads and
/// verifies its traces on one pool, and several specs share one workload
/// build.  A spec equal to an earlier one reuses that spec's rows, and
/// the `ran` line counts only the cells simulated.
fn run_specs(specs: Vec<(String, ExperimentSpec)>, cache: Option<&str>) -> Vec<StudyRun> {
    let t0 = std::time::Instant::now();
    let store = cache.map(|dir| Store::open(Path::new(dir)).unwrap_or_else(|e| fail(&e)));
    let shared = match (&store, specs.as_slice()) {
        (None, [(_, first), _, ..]) => Some(first.build_workloads().unwrap_or_else(|e| fail(&e))),
        _ => None,
    };
    let mut total = CacheCounts::default();
    let mut ran = 0;
    let mut runs: Vec<StudyRun> = Vec::with_capacity(specs.len());
    for (label, spec) in specs {
        let rows = match (runs.iter().find(|r| r.spec == spec), &store) {
            (Some(earlier), _) => Ok(earlier.rows.clone()),
            (None, Some(store)) => try_run_spec_cached(&spec, store).map(|(rows, counts)| {
                total.cells += counts.cells;
                total.cached += counts.cached;
                ran += counts.cells - counts.cached;
                rows
            }),
            (None, None) => spec.cells().and_then(|cells| {
                let sweep = Sweep {
                    workloads: shared.as_deref(),
                    ..Sweep::new(&spec, &cells)
                };
                ran += cells.len();
                spec.rows(sweep.run()?)
            }),
        };
        let rows = rows.unwrap_or_else(|e| fail(&e));
        runs.push(StudyRun { label, spec, rows });
    }
    if let Some(dir) = cache {
        eprintln!("cache {dir}: {total}");
    }
    eprintln!("  ran {ran} cells in {:.2}s", t0.elapsed().as_secs_f64());
    runs
}

fn parse_range(s: &str, n_cells: usize) -> (usize, usize) {
    let parsed = s.split_once("..").and_then(|(a, b)| {
        Some((
            a.trim().parse::<usize>().ok()?,
            b.trim().parse::<usize>().ok()?,
        ))
    });
    let Some((start, end)) = parsed else {
        fail(&format!("--cells wants A..B (half-open), got {s:?}"));
    };
    if start >= end || end > n_cells {
        fail(&format!(
            "cell range {start}..{end} is invalid for this spec's {n_cells} cells"
        ));
    }
    (start, end)
}

fn cmd_shard(mut args: Vec<String>) {
    let spec_arg = take_flag(&mut args, "--spec").unwrap_or_else(|| usage());
    let range_arg = take_flag(&mut args, "--cells").unwrap_or_else(|| usage());
    let out = take_flag(&mut args, "--out").unwrap_or_else(|| usage());
    if !args.is_empty() {
        usage();
    }
    let spec = one_spec(&spec_arg, "`prestage shard`", true);
    let cells = spec.cells().unwrap_or_else(|e| fail(&e));
    let (start, end) = parse_range(&range_arg, cells.len());
    let t0 = std::time::Instant::now();
    let results = Sweep::new(&spec, &cells[start..end])
        .run()
        .unwrap_or_else(|e| fail(&e));
    eprintln!(
        "  shard {start}..{end}: ran {} of {} cells in {:.2}s",
        end - start,
        cells.len(),
        t0.elapsed().as_secs_f64()
    );
    let shard = ShardFile {
        spec,
        start,
        end,
        results,
    };
    write_out(&out, &shard.to_json());
}

fn cmd_merge(mut args: Vec<String>) {
    let out = take_flag(&mut args, "--out");
    if args.is_empty() {
        usage();
    }
    let mut shards: Vec<(String, ShardFile)> = Vec::new();
    for path in args {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        let shard = ShardFile::from_json(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        shards.push((path, shard));
    }
    let rows = ShardFile::merge(&shards).unwrap_or_else(|e| fail(&e));
    let spec = &shards[0].1.spec;
    report::sweep_table("merged shards", spec, &rows);
    if let Some(path) = out {
        write_out(&path, &grid_output(spec, &rows));
    }
}

/// Capture one v2 trace per benchmark of a spec into `--out <dir>`: the
/// record half of record-once/replay-everywhere.  Recording length is the
/// spec's run length plus run-ahead slack
/// ([`prestage_sim::TRACE_RECORD_SLACK`]), so any run of the same spec —
/// whole or sharded — replays without running dry.
fn cmd_trace_record(mut args: Vec<String>) {
    let out = take_flag(&mut args, "--out").unwrap_or_else(|| usage());
    let [arg] = args.as_slice() else { usage() };
    let spec = one_spec(arg, "`prestage trace record`", true);
    let profiles = spec.bench_profiles().unwrap_or_else(|e| fail(&e));
    std::fs::create_dir_all(&out).unwrap_or_else(|e| fail(&format!("cannot create {out}: {e}")));
    let n_insts = spec.trace_record_insts();
    let t0 = std::time::Instant::now();
    let written = pool_map(profiles.len(), spec.resolved_threads(), |i| {
        let p = &profiles[i];
        let w = build(p, spec.workload_seed);
        let path =
            TraceSource { dir: out.clone() }.trace_path(p.name, spec.workload_seed, spec.exec_seed);
        let f = std::fs::File::create(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let count = record_trace(
            BufWriter::new(f),
            &w,
            spec.exec_seed,
            n_insts,
            DEFAULT_CHUNK_INSTS,
        )
        .map_err(|e| format!("recording {}: {e}", path.display()))?;
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        Ok::<_, String>((path, count, bytes))
    });
    for r in &written {
        match r {
            Ok((path, count, bytes)) => {
                eprintln!("  wrote {} ({count} insts, {bytes} bytes)", path.display())
            }
            Err(e) => fail(e),
        }
    }
    eprintln!(
        "recorded {} trace(s) in {:.2}s; replay them by setting \
         \"trace\": {{\"dir\": {out:?}}} in the spec",
        written.len(),
        t0.elapsed().as_secs_f64()
    );
}

/// Print a trace's self-describing header and verify the whole file —
/// every chunk CRC, every record's encoding, no trailing data — without
/// decoding it: the first thing to run on a trace that behaves strangely.
fn cmd_trace_info(args: Vec<String>) {
    let [path] = args.as_slice() else { usage() };
    let mut reader = open_trace(Path::new(path)).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    let h = reader.header().clone();
    outln!("{path}: PSTR v{}", prestage_workload::trace_io::VERSION);
    outln!("  profile:       {}", h.meta.profile);
    outln!("  workload_seed: {}", h.meta.workload_seed);
    outln!("  exec_seed:     {}", h.meta.exec_seed);
    outln!("  chunk size:    {} records", h.chunk_insts);
    outln!("  instructions:  {}", h.count);
    let records = reader
        .verify()
        .unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    outln!(
        "  verified:      {records} records in {} chunk(s), {bytes} bytes",
        reader.chunks_read()
    );
}

fn cmd_trace(mut args: Vec<String>) {
    if args.is_empty() {
        usage();
    }
    match args.remove(0).as_str() {
        "record" => cmd_trace_record(args),
        "info" => cmd_trace_info(args),
        _ => usage(),
    }
}

/// Dump a figure's spec (or a spec file, canonicalised) as JSON — the
/// starting point for a custom spec file (`prestage spec fig5b --out
/// mine.json`, edit, run).  The environment overrides are *not* applied:
/// the output is the declaration itself, reproducible regardless of the
/// caller's shell.
fn cmd_spec(mut args: Vec<String>) {
    let out = take_flag(&mut args, "--out");
    let [name] = args.as_slice() else { usage() };
    let text = one_spec(name, "`prestage spec`", false).to_json();
    match out {
        Some(path) => write_out(&path, &text),
        None => out!("{text}"),
    }
}

fn cmd_list() {
    outln!("# figures and studies (prestage run <name>; PRESTAGE_* overrides apply)");
    for s in &figures::STUDIES {
        outln!("  {:<12} {}", s.name, s.title);
    }
    for table in [report::table1, report::table2, report::table3] {
        outln!();
        table();
    }
    outln!("\n# presets (spec \"presets\" entries)");
    for p in ConfigPreset::all() {
        outln!("  {:<14} {}", p.id(), p.label());
    }
    outln!("\n# tech nodes (spec \"tech\")");
    for n in prestage_cacti::TechNode::all() {
        outln!("  {:<5} {}", n.id(), n.label());
    }
    outln!("\n# prefetcher mechanisms (spec \"prefetcher\"; null = preset default)");
    for k in prestage_core::PrefetcherKind::all() {
        outln!("  {:<9} {}", k.id(), k.label());
    }
    outln!("\n# benchmarks (spec \"bench\" entries; null = all)");
    outln!(
        "  {:<10} {:>8} {:>7} {:>8}",
        "name",
        "code KB",
        "funcs",
        "data KB"
    );
    for p in specint2000() {
        outln!(
            "  {:<10} {:>8} {:>7} {:>8}",
            p.name,
            p.i_footprint_kb,
            p.n_funcs,
            p.d_footprint_kb
        );
    }
}

/// `prestage fuzz` — the deterministic fuzz + differential conformance
/// harness (see `fuzz/`), bounded by `--budget` so CI can run it on every
/// push.  A fixed `--seed` (default [`prestage_fuzz::DEFAULT_SEED`])
/// replays the exact same campaign; exits non-zero on any crash,
/// error-convention violation, or differential mismatch.
fn cmd_fuzz(mut args: Vec<String>) {
    let parse_u64 = |key: &str, v: String| -> u64 {
        v.parse()
            .unwrap_or_else(|_| fail(&format!("{key} wants an unsigned integer, got {v:?}")))
    };
    let budget = take_flag(&mut args, "--budget").map_or(2_000, |v| parse_u64("--budget", v));
    let seed = take_flag(&mut args, "--seed")
        .map_or(prestage_fuzz::DEFAULT_SEED, |v| parse_u64("--seed", v));
    let corpus = take_flag(&mut args, "--corpus")
        .map_or_else(prestage_fuzz::default_corpus_root, std::path::PathBuf::from);
    let crashes_dir = take_flag(&mut args, "--crashes");
    if !args.is_empty() {
        usage();
    }

    let t0 = std::time::Instant::now();
    let mut broken = false;
    for r in prestage_fuzz::run_byte_fuzzers(budget, seed, &corpus) {
        eprintln!(
            "  fuzz {:<6} {} execs: {} accepted, {} rejected, {} crash(es)",
            r.target,
            r.executions,
            r.accepted,
            r.rejected,
            r.crashes.len()
        );
        for c in &r.crashes {
            broken = true;
            eprintln!("    CRASH [{}]: {}", c.target, c.message);
            if let Some(dir) = &crashes_dir {
                let dir = Path::new(dir).join(c.target);
                std::fs::create_dir_all(&dir)
                    .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", dir.display())));
                let path = dir.join(prestage_fuzz::input_tag(&c.input));
                std::fs::write(&path, &c.input)
                    .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
                eprintln!("    crasher input saved to {}", path.display());
            }
        }
    }

    // ≥ 100 differential specs at any budget; more when the budget allows.
    let n_specs = (budget / 20).max(100);
    let mut done = 0u64;
    let diff = prestage_fuzz::differential::run_differential(n_specs, seed, |_| {
        done += 1;
        if done.is_multiple_of(25) {
            eprintln!("  differential: {done}/{n_specs} spec(s) checked");
        }
    });
    eprintln!(
        "  differential: {} spec(s) live==shard==replay, \
         {} disabled-prefetch six-way check(s), {} failure(s)",
        diff.specs,
        diff.mechanism_checks,
        diff.failures.len()
    );
    for f in &diff.failures {
        broken = true;
        eprintln!("    FAIL: {f}");
    }

    eprintln!(
        "fuzz: budget {budget}, seed {seed:#x}, {:.2}s",
        t0.elapsed().as_secs_f64()
    );
    if broken {
        eprintln!("fuzz: FAILURES FOUND — minimize the inputs above and check them in under fuzz/regressions/");
        exit(1);
    }
    eprintln!("fuzz: clean");
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "run" => cmd_run(args),
        "shard" => cmd_shard(args),
        "merge" => cmd_merge(args),
        "trace" => cmd_trace(args),
        "spec" => cmd_spec(args),
        "fuzz" => cmd_fuzz(args),
        "list" => cmd_list(),
        _ => usage(),
    }
}
