//! `prestage` — the spec-driven front door to the simulator.
//!
//! Every experiment is an `ExperimentSpec`: a serializable value naming
//! the presets, tech node, L1 sizes, benchmark filter, run lengths, seeds
//! and predictor.  The CLI runs specs whole, shards them across
//! processes, and merges shard outputs back into the exact single-process
//! result:
//!
//! ```text
//! prestage run   <spec.json | figure> [--out <file>] [--cache <dir>]
//! prestage shard --spec <spec.json | figure> --cells A..B --out <file>
//! prestage merge <shard.json>... [--out <file>]
//! prestage trace record <spec.json | figure> --out <dir>
//! prestage trace info   <trace.pstr>
//! prestage spec  <figure> [--out <file>]
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
//! A *figure* argument (`fig1`, `fig5b`, ...) resolves to the declared
//! spec from `prestage_bench::figures` with the `PRESTAGE_*` environment
//! overrides applied, rendered with the figure's own report (CSV
//! included).  A *file* argument is taken verbatim: what is in the file
//! is what runs, so two shards of the same file are guaranteed to agree.
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

use prestage_bench::figures::{self, Figure};
use prestage_bench::{out, outln, report};
use prestage_sim::spec::{grid_output, ShardFile, TraceSource};
use prestage_sim::{
    pool_map, try_run_spec, try_run_spec_cached, ConfigPreset, ExperimentSpec, Store, Sweep,
};
use prestage_workload::{build, open_trace, record_trace, specint2000, DEFAULT_CHUNK_INSTS};
use std::io::BufWriter;
use std::path::Path;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         prestage run   <spec.json | figure> [--out <file>] [--cache <dir>]\n  \
         prestage shard --spec <spec.json | figure> --cells A..B --out <file>\n  \
         prestage merge <shard.json>... [--out <file>]\n  \
         prestage trace record <spec.json | figure> --out <dir>\n  \
         prestage trace info   <trace.pstr>\n  \
         prestage spec  <figure> [--out <file>]\n  \
         prestage fuzz  [--budget <N>] [--seed <S>] [--corpus <dir>] [--crashes <dir>]\n  \
         prestage list\n\n\
         A figure name (see `prestage list`) runs its declared spec with the\n\
         PRESTAGE_* environment overrides applied; a spec file runs verbatim.\n\
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

/// Resolve a spec argument: an existing file parses verbatim; otherwise a
/// declared figure name (whose spec gets the environment overrides).
/// Returns the figure declaration when there is one,
/// so `run` can render the figure's own report kind.
fn load_spec(arg: &str) -> (ExperimentSpec, Option<&'static Figure>) {
    let path = std::path::Path::new(arg);
    if path.exists() {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {arg}: {e}")));
        let spec =
            ExperimentSpec::from_json(&text).unwrap_or_else(|e| fail(&format!("{arg}: {e}")));
        if let Err(e) = spec.validate() {
            fail(&format!("{arg}: {e}"));
        }
        return (spec, None);
    }
    if let Some(fig) = figures::by_name(arg) {
        return ((fig.make_spec)().env_overrides(), Some(fig));
    }
    let names: Vec<&str> = figures::FIGURES.iter().map(|f| f.name).collect();
    fail(&format!(
        "{arg:?} is neither a spec file nor a figure (figures: {})",
        names.join(", ")
    ));
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
    let (spec, fig) = load_spec(arg);
    let t0 = std::time::Instant::now();
    let rows = match &cache {
        None => try_run_spec(&spec),
        Some(dir) => Store::open(Path::new(dir))
            .and_then(|store| try_run_spec_cached(&spec, &store))
            .map(|(rows, counts)| {
                eprintln!("cache {dir}: {counts}");
                rows
            }),
    }
    .unwrap_or_else(|e| fail(&e));
    eprintln!(
        "  ran {} cells in {:.2}s",
        spec.presets.len() * spec.l1_sizes.len() * rows[0][0].per_bench.len(),
        t0.elapsed().as_secs_f64()
    );
    match fig {
        // A declared figure renders its own report (CSV included).
        Some(f) => report::render(f.report, f.title, f.name, &spec, &rows),
        // An ad-hoc spec file prints the table without touching results/.
        None => report::sweep_table(&format!("spec {arg}"), &spec, &rows),
    }
    if let Some(path) = out {
        write_out(&path, &grid_output(&spec, &rows));
    }
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
    let (spec, _) = load_spec(&spec_arg);
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
    let (spec, _) = load_spec(arg);
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

/// Dump a declared figure's spec as JSON — the starting point for a
/// custom spec file (`prestage spec fig5b --out mine.json`, edit, run).
/// The environment overrides are *not* applied: the output is the
/// declaration itself, reproducible regardless of the caller's shell.
fn cmd_spec(mut args: Vec<String>) {
    let out = take_flag(&mut args, "--out");
    let [name] = args.as_slice() else { usage() };
    let Some(fig) = figures::by_name(name) else {
        let names: Vec<&str> = figures::FIGURES.iter().map(|f| f.name).collect();
        fail(&format!(
            "unknown figure {name:?} (figures: {})",
            names.join(", ")
        ));
    };
    let text = (fig.make_spec)().to_json();
    match out {
        Some(path) => write_out(&path, &text),
        None => out!("{text}"),
    }
}

fn cmd_list() {
    outln!("# figures (prestage run <name>; PRESTAGE_* overrides apply)");
    for f in &figures::FIGURES {
        outln!("  {:<7} {}", f.name, f.title);
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
