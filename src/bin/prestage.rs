//! `prestage` — the spec-driven front door to the simulator.
//!
//! Every experiment is an `ExperimentSpec`: a serializable value naming
//! the presets, tech node, L1 sizes, benchmark filter, run lengths, seeds
//! and predictor.  The CLI runs specs whole, shards them across
//! processes, and merges shard outputs back into the exact single-process
//! result:
//!
//! ```text
//! prestage run   <spec.json | figure> [--out <file>]
//! prestage shard --spec <spec.json | figure> --cells A..B --out <file>
//! prestage merge <shard.json>... [--out <file>]
//! prestage trace record <spec.json | figure> --out <dir>
//! prestage trace info   <trace.pstr>
//! prestage spec  <figure> [--out <file>]
//! prestage fuzz  [--budget <N>] [--seed <S>] [--corpus <dir>] [--crashes <dir>]
//! prestage list
//! prestage serve  [--state <dir>] [--listen <addr>] [...] | --check
//! prestage submit <spec.json | figure> [--wait] [--out <file>]
//! prestage status [<sweep>] [--watch]
//! prestage fetch  <sweep> [--out <file>]
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
//! overrides applied — exactly what the figure binary would run.  A
//! *file* argument is taken verbatim: what is in the file is what runs,
//! so two shards of the same file are guaranteed to agree.
//!
//! `run --out` and `merge --out` write the same canonical grid JSON, so
//! `diff` proves a sharded run reproduced the single-process results
//! bit-exactly (CI does exactly that; see `.github/workflows/ci.yml`).
//!
//! `serve` runs the always-on sweep daemon (`prestage-serve`): submitted
//! specs are journaled, split into cell-range jobs, evaluated on a worker
//! pool, and cached content-addressed — a resubmitted or overlapping
//! sweep is served from cache, byte-identical to `run --out`.  `submit`,
//! `status` and `fetch` are its clients, discovering the daemon through
//! the state directory's address file.

use prestage_bench::figures::{self, Figure};
use prestage_bench::report;
use prestage_serve::{Dispatch, Request, Response, ServeConfig};
use prestage_sim::spec::{grid_output, ShardFile, TraceSource};
use prestage_sim::{
    pool_map, try_run_spec, CellGrid, ConfigPreset, ExperimentSpec, GridResult, Sweep,
};
use prestage_workload::{build, open_trace, record_trace, specint2000, DEFAULT_CHUNK_INSTS};
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         prestage run   <spec.json | figure> [--out <file>]\n  \
         prestage shard --spec <spec.json | figure> --cells A..B --out <file>\n  \
         prestage merge <shard.json>... [--out <file>]\n  \
         prestage trace record <spec.json | figure> --out <dir>\n  \
         prestage trace info   <trace.pstr>\n  \
         prestage spec  <figure> [--out <file>]\n  \
         prestage fuzz  [--budget <N>] [--seed <S>] [--corpus <dir>] [--crashes <dir>]\n  \
         prestage lint  [--rule <name>]... [--baseline <file>] [--update-baseline]\n  \
         prestage list\n  \
         prestage serve  [--state <dir>] [--listen <host:port>] [--workers <N>]\n  \
         \x20               [--job-cells <N>] [--deadline <secs>] [--max-attempts <N>]\n  \
         \x20               [--dispatch inproc|child] [--threads-per-job <N>] | --check\n  \
         prestage submit <spec.json | figure> [--state <dir>] [--addr <a>] [--wait] [--out <file>]\n  \
         prestage status [<sweep>] [--state <dir>] [--addr <a>] [--watch]\n  \
         prestage fetch  <sweep> [--state <dir>] [--addr <a>] [--out <file>]\n\n\
         A figure name (see `prestage list`) runs its declared spec with the\n\
         PRESTAGE_* environment overrides applied; a spec file runs verbatim.\n\
         A spec whose \"trace\" field is {{\"dir\": \"<dir>\"}} replays traces\n\
         previously captured by `trace record` instead of generating live."
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
/// declared figure name (whose spec gets the environment overrides, like
/// the figure binary).  Returns the figure declaration when there is one,
/// so `run` can render the figure's own report kind.
fn load_spec(arg: &str) -> (ExperimentSpec, Option<&'static Figure>) {
    let path = std::path::Path::new(arg);
    if path.exists() {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {arg}: {e}")));
        let spec = ExperimentSpec::from_json(&text)
            .unwrap_or_else(|e| fail(&format!("{arg}: {e}")));
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
    std::fs::write(path, content)
        .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
    eprintln!("wrote {path}");
}

fn cmd_run(mut args: Vec<String>) {
    let out = take_flag(&mut args, "--out");
    let [arg] = args.as_slice() else { usage() };
    let (spec, fig) = load_spec(arg);
    let t0 = std::time::Instant::now();
    let rows = try_run_spec(&spec).unwrap_or_else(|e| fail(&e));
    eprintln!(
        "  ran {} cells in {:.2}s",
        spec.presets.len() * spec.l1_sizes.len() * rows[0][0].per_bench.len(),
        t0.elapsed().as_secs_f64()
    );
    match fig {
        // A declared figure renders exactly like its binary (CSV included).
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
        Some((a.trim().parse::<usize>().ok()?, b.trim().parse::<usize>().ok()?))
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
    let grid = CellGrid::from_spec(&spec).unwrap_or_else(|e| fail(&e));
    let (start, end) = parse_range(&range_arg, grid.n_cells());
    let cells = grid.cells();
    let t0 = std::time::Instant::now();
    let results = Sweep::new(&spec, &cells[start..end])
        .run()
        .unwrap_or_else(|e| fail(&e));
    eprintln!(
        "  shard {start}..{end}: ran {} of {} cells in {:.2}s",
        end - start,
        grid.n_cells(),
        t0.elapsed().as_secs_f64()
    );
    let shard = ShardFile { spec, start, end, results };
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
        let shard = ShardFile::from_json(&text)
            .unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        shards.push((path, shard));
    }
    let spec = shards[0].1.spec.clone();
    // Portable comparison: shards that only disagree on `threads` or on
    // the committed-path source (replay is bit-exact to live generation)
    // still describe the same experiment.
    let itlb_desc = |itlb: &Option<prestage_sim::ITlbConfig>| match itlb {
        None => "no i-TLB".to_string(),
        Some(c) => format!("a {}-entry {}-way i-TLB", c.entries, c.assoc),
    };
    for (path, shard) in &shards[1..] {
        // Mixed translation is named specifically: a shard simulated with
        // a different (or absent) i-TLB measured a different machine, and
        // the generic spec-mismatch message below would hide which knob.
        if shard.spec.itlb != spec.itlb {
            fail(&format!(
                "{path} was simulated with {} but {} with {} — \
                 translated and untranslated shards cannot merge into one figure",
                itlb_desc(&shard.spec.itlb),
                shards[0].0,
                itlb_desc(&spec.itlb)
            ));
        }
        if shard.spec.portable() != spec.portable() {
            fail(&format!(
                "{path} was produced from a different spec than {} — refusing to merge",
                shards[0].0
            ));
        }
    }
    let grid = CellGrid::from_spec(&spec).unwrap_or_else(|e| fail(&e));
    let names = spec.bench_names().unwrap_or_else(|e| fail(&e));
    // Refuse malformed shard sets by name before handing results to
    // merge_named (whose own duplicate/missing checks can only panic with
    // flat cell positions, not file names).
    let n_cells = grid.n_cells();
    let mut ranges: Vec<(usize, usize, &str)> = shards
        .iter()
        .map(|(p, s)| (s.start, s.end, p.as_str()))
        .collect();
    ranges.sort();
    let mut next = 0usize;
    let mut widest: Option<(usize, usize, &str)> = None;
    for &(start, end, path) in &ranges {
        if end > n_cells {
            fail(&format!(
                "{path} covers cells {start}..{end}, but the grid has only {n_cells} cells"
            ));
        }
        // Sorted by start, so any start inside the furthest coverage so
        // far means two shards claim the same cells (duplicates included).
        if let Some((wstart, wend, wpath)) = widest {
            if start < wend && start < end {
                fail(&format!(
                    "{wpath} (cells {wstart}..{wend}) and {path} (cells {start}..{end}) \
                     overlap — refusing to merge"
                ));
            }
        }
        if start > next {
            fail(&format!(
                "no shard covers cells {next}..{start} — refusing to merge a partial grid"
            ));
        }
        next = next.max(end);
        if widest.is_none_or(|(_, wend, _)| end > wend) {
            widest = Some((start, end, path));
        }
    }
    if next < n_cells {
        fail(&format!(
            "no shard covers cells {next}..{n_cells} — refusing to merge a partial grid"
        ));
    }
    let results: Vec<_> = shards.into_iter().flat_map(|(_, s)| s.results).collect();
    // merge_named fails loudly on duplicate or missing cells — a sharded
    // run that lost a cell must not ship a partial figure.
    let rows: Vec<Vec<GridResult>> = grid.merge_named(results, &names);
    report::sweep_table("merged shards", &spec, &rows);
    if let Some(path) = out {
        write_out(&path, &grid_output(&spec, &rows));
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
    std::fs::create_dir_all(&out)
        .unwrap_or_else(|e| fail(&format!("cannot create {out}: {e}")));
    let n_insts = spec.trace_record_insts();
    let t0 = std::time::Instant::now();
    let written = pool_map(profiles.len(), spec.resolved_threads(), |i| {
        let p = &profiles[i];
        let w = build(p, spec.workload_seed);
        let path = TraceSource { dir: out.clone() }.trace_path(
            p.name,
            spec.workload_seed,
            spec.exec_seed,
        );
        let f = std::fs::File::create(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let count = record_trace(BufWriter::new(f), &w, spec.exec_seed, n_insts, DEFAULT_CHUNK_INSTS)
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
    let mut reader =
        open_trace(Path::new(path)).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    let h = reader.header().clone();
    println!("{path}: PSTR v{}", h.version);
    match &h.meta {
        Some(m) => {
            println!("  profile:       {}", m.profile);
            println!("  workload_seed: {}", m.workload_seed);
            println!("  exec_seed:     {}", m.exec_seed);
            println!("  chunk size:    {} records", h.chunk_insts);
        }
        None => println!("  (v1: no embedded identity, no CRCs)"),
    }
    println!("  instructions:  {}", h.count);
    let records = reader
        .verify()
        .unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    println!(
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
        fail(&format!("unknown figure {name:?} (figures: {})", names.join(", ")));
    };
    let text = (fig.make_spec)().to_json();
    match out {
        Some(path) => write_out(&path, &text),
        None => print!("{text}"),
    }
}

fn cmd_list() {
    println!("# figures (prestage run <name>; PRESTAGE_* overrides apply)");
    for f in &figures::FIGURES {
        println!("  {:<7} {}", f.name, f.title);
    }
    println!("\n# presets (spec \"presets\" entries)");
    for p in ConfigPreset::all() {
        println!("  {:<14} {}", p.id(), p.label());
    }
    println!("\n# tech nodes (spec \"tech\")");
    for n in prestage_cacti::TechNode::all() {
        println!("  {:<5} {}", n.id(), n.label());
    }
    println!("\n# prefetcher mechanisms (spec \"prefetcher\"; null = preset default)");
    for k in prestage_core::PrefetcherKind::all() {
        println!("  {:<9} {}", k.id(), k.label());
    }
    println!("\n# benchmarks (spec \"bench\" entries; null = all)");
    println!("  {:<10} {:>8} {:>7} {:>8}", "name", "code KB", "funcs", "data KB");
    for p in specint2000() {
        println!(
            "  {:<10} {:>8} {:>7} {:>8}",
            p.name, p.i_footprint_kb, p.n_funcs, p.d_footprint_kb
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

/// Remove a boolean `--flag` from `args`, reporting whether it was there.
fn take_switch(args: &mut Vec<String>, key: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != key);
    before != args.len()
}

fn parse_usize(key: &str, v: String) -> usize {
    v.parse()
        .unwrap_or_else(|_| fail(&format!("{key} wants an unsigned integer, got {v:?}")))
}

/// State directory for the serve family: `--state` wins, else the
/// workspace default (`results/serve`, honoring `PRESTAGE_RESULTS_DIR`).
fn serve_state(args: &mut Vec<String>) -> PathBuf {
    take_flag(args, "--state")
        .map(PathBuf::from)
        .unwrap_or_else(prestage_serve::default_state_dir)
}

/// `prestage serve` — run the sweep daemon (or audit its journal with
/// `--check`: exits non-zero unless the journal replays clean, fully
/// drained, ending in the clean-shutdown marker).
fn cmd_serve(mut args: Vec<String>) {
    let state = serve_state(&mut args);
    if take_switch(&mut args, "--check") {
        if !args.is_empty() {
            usage();
        }
        match prestage_serve::check(&state) {
            Ok(summary) => println!("{summary}"),
            Err(e) => fail(&e),
        }
        return;
    }
    let mut cfg = ServeConfig::new(state);
    if let Some(v) = take_flag(&mut args, "--listen") {
        cfg.listen = v;
    }
    if let Some(v) = take_flag(&mut args, "--workers") {
        cfg.workers = parse_usize("--workers", v).max(1);
    }
    if let Some(v) = take_flag(&mut args, "--job-cells") {
        cfg.job_cells = parse_usize("--job-cells", v).max(1);
    }
    if let Some(v) = take_flag(&mut args, "--deadline") {
        cfg.deadline = std::time::Duration::from_secs(parse_usize("--deadline", v) as u64);
    }
    if let Some(v) = take_flag(&mut args, "--max-attempts") {
        cfg.max_attempts = u32::try_from(parse_usize("--max-attempts", v).max(1))
            .unwrap_or(u32::MAX);
    }
    if let Some(v) = take_flag(&mut args, "--dispatch") {
        cfg.dispatch = match v.as_str() {
            "inproc" => Dispatch::InProcess,
            "child" => Dispatch::Child,
            other => fail(&format!("--dispatch wants inproc or child, got {other:?}")),
        };
    }
    if let Some(v) = take_flag(&mut args, "--threads-per-job") {
        cfg.threads_per_job = parse_usize("--threads-per-job", v).max(1);
    }
    if !args.is_empty() {
        usage();
    }
    prestage_serve::serve(cfg).unwrap_or_else(|e| fail(&e));
}

/// One request to the daemon found via `--addr`/the state dir's address
/// file; any transport or protocol error is fatal.
fn serve_request(addr: &str, req: &Request) -> Response {
    prestage_serve::request(addr, req).unwrap_or_else(|e| fail(&e))
}

/// Block until `sweep` reaches a terminal state, then return its artifact.
fn wait_for_artifact(addr: &str, sweep: &str) -> String {
    loop {
        let resp = serve_request(addr, &Request::Status { sweep: Some(sweep.to_string()) });
        let Response::Status { sweeps } = resp else {
            fail("daemon answered status with an unexpected response kind");
        };
        let Some(s) = sweeps.iter().find(|s| s.sweep == sweep) else {
            fail(&format!("daemon no longer knows sweep {sweep}"));
        };
        match s.state.as_str() {
            "done" => break,
            state if state.starts_with("failed") => {
                fail(&format!("sweep {sweep} {state}"))
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(200)),
        }
    }
    match serve_request(addr, &Request::Fetch { sweep: sweep.to_string() }) {
        Response::Artifact { artifact, .. } => artifact,
        Response::Error { error } => fail(&error),
        _ => fail("daemon answered fetch with an unexpected response kind"),
    }
}

/// `prestage submit` — send a spec (file or figure) to the daemon.  The
/// sweep id lands on stdout for scripting; `--wait` blocks until the
/// sweep completes, and `--out` (implies `--wait`) writes the artifact —
/// byte-identical to `prestage run --out` of the same spec.
fn cmd_submit(mut args: Vec<String>) {
    let state = serve_state(&mut args);
    let addr_flag = take_flag(&mut args, "--addr");
    let out = take_flag(&mut args, "--out");
    let wait = take_switch(&mut args, "--wait") || out.is_some();
    let [arg] = args.as_slice() else { usage() };
    let (spec, _) = load_spec(arg);
    let addr =
        prestage_serve::resolve_addr(addr_flag.as_deref(), &state).unwrap_or_else(|e| fail(&e));
    let resp = serve_request(&addr, &Request::Submit { spec });
    let sweep = match resp {
        Response::Submitted { sweep, cells, jobs, cached_cells, complete } => {
            eprintln!(
                "submitted sweep {sweep}: {cells} cell(s), {jobs} job(s), \
                 {cached_cells} cached{}",
                if complete { " — complete, served from cache" } else { "" }
            );
            sweep
        }
        Response::Error { error } => fail(&error),
        _ => fail("daemon answered submit with an unexpected response kind"),
    };
    println!("{sweep}");
    if wait {
        let artifact = wait_for_artifact(&addr, &sweep);
        match out {
            Some(path) => write_out(&path, &artifact),
            None => eprintln!("sweep {sweep} complete"),
        }
    }
}

fn print_status(sweeps: &[prestage_serve::SweepStatus]) {
    if sweeps.is_empty() {
        println!("(no sweeps)");
        return;
    }
    for s in sweeps {
        println!(
            "{}  {:>4}/{:<4} cells ({} cached)  {:>3}/{:<3} jobs  {}",
            s.sweep, s.cells_done, s.cells_total, s.cached_cells, s.jobs_done, s.jobs_total,
            s.state
        );
    }
}

/// `prestage status` — per-sweep progress counters; `--watch` streams
/// them until every listed sweep is terminal.
fn cmd_status(mut args: Vec<String>) {
    let state = serve_state(&mut args);
    let addr_flag = take_flag(&mut args, "--addr");
    let watch = take_switch(&mut args, "--watch");
    let sweep = match args.as_slice() {
        [] => None,
        [s] => Some(s.clone()),
        _ => usage(),
    };
    let addr =
        prestage_serve::resolve_addr(addr_flag.as_deref(), &state).unwrap_or_else(|e| fail(&e));
    loop {
        let resp = serve_request(&addr, &Request::Status { sweep: sweep.clone() });
        let Response::Status { sweeps } = resp else {
            fail("daemon answered status with an unexpected response kind");
        };
        print_status(&sweeps);
        let settled = sweeps
            .iter()
            .all(|s| s.state == "done" || s.state.starts_with("failed"));
        if !watch || settled {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(500));
        println!();
    }
}

/// `prestage fetch` — a completed sweep's artifact, to `--out` or stdout.
fn cmd_fetch(mut args: Vec<String>) {
    let state = serve_state(&mut args);
    let addr_flag = take_flag(&mut args, "--addr");
    let out = take_flag(&mut args, "--out");
    let [sweep] = args.as_slice() else { usage() };
    let addr =
        prestage_serve::resolve_addr(addr_flag.as_deref(), &state).unwrap_or_else(|e| fail(&e));
    match serve_request(&addr, &Request::Fetch { sweep: sweep.clone() }) {
        Response::Artifact { artifact, .. } => match out {
            Some(path) => write_out(&path, &artifact),
            None => print!("{artifact}"),
        },
        Response::Error { error } => fail(&error),
        _ => fail("daemon answered fetch with an unexpected response kind"),
    }
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
        "lint" => exit(prestage_analyze::cli::run("prestage lint", &args)),
        "list" => cmd_list(),
        "serve" => cmd_serve(args),
        "submit" => cmd_submit(args),
        "status" => cmd_status(args),
        "fetch" => cmd_fetch(args),
        _ => usage(),
    }
}
