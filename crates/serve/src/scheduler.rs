//! The sweep scheduler: jobs, workers, retries and the two cache layers.
//!
//! A submitted [`ExperimentSpec`] is validated, identified by the content
//! hash of its portable canonical JSON ([`sweep_id`]), split into
//! contiguous cell-range jobs, journaled, and enqueued.  Worker threads
//! pop jobs and evaluate them — in-process on the sim's cell pool,
//! or by dispatching a child `prestage shard` process — writing every
//! cell result into the content-addressed store *before* the job is
//! journaled done, so a crash between the two only re-runs work that is
//! already a cache hit.  When a sweep's last job lands, the scheduler
//! reassembles all cells from the cache through the same spec-checked
//! merge path the CLI uses and caches the canonical grid artifact, which
//! is byte-identical to `prestage run --out` of the same spec.
//!
//! Cells are cached by *identity* (preset, tech, L1, benchmark name, run
//! lengths, seeds, predictor, prefetcher) rather than by grid position,
//! so overlapping sweeps share entries: a superset sweep re-runs only the
//! cells no earlier sweep has computed.
//!
//! Stragglers are handled by deadline steal: a job running past the
//! configured deadline is re-enqueued while the original keeps running;
//! whichever attempt finishes first wins, and the loser's (bit-identical)
//! results are discarded.  Failed jobs retry up to a bounded attempt
//! count, then fail the sweep loudly.

use crate::cache::{content_hash, Store};
use crate::protocol::{Response, SweepStatus};
use crate::queue::{replay, JobRange, JobState, Journal, SweepOutcome, JOURNAL_FILE};
use prestage_json::Json;
use prestage_sim::{
    grid_output, stats_from_json, stats_to_json, CellGrid, CellResult, ExperimentSpec, ShardFile,
    Sweep, SweepCell,
};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How a worker evaluates the uncached cells of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// On the daemon's own threads via the sim's cell pool.
    InProcess,
    /// In a child `prestage shard` process (same binary, own address
    /// space — a crashing cell takes down one job, not the daemon).
    Child,
}

/// Daemon configuration, fully resolved.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// State directory: journal, cache, address file, child temp files.
    pub state_dir: PathBuf,
    /// Listen address (`host:port`; port 0 = OS-assigned).
    pub listen: String,
    /// Worker threads popping jobs.
    pub workers: usize,
    /// Cells per job when splitting a sweep.
    pub job_cells: usize,
    /// Straggler deadline: a job running longer is speculatively
    /// re-enqueued on another worker (first finish wins).
    pub deadline: Duration,
    /// Attempts per job before the sweep fails.
    pub max_attempts: u32,
    /// How workers evaluate uncached cells.
    pub dispatch: Dispatch,
    /// Sim pool width per job (jobs are the parallelism unit, so the
    /// default keeps each job narrow and lets the worker pool spread).
    pub threads_per_job: usize,
}

impl ServeConfig {
    /// Defaults for a state directory: loopback listener with an
    /// OS-assigned port, 2 workers, 4-cell jobs, in-process dispatch.
    pub fn new(state_dir: PathBuf) -> ServeConfig {
        ServeConfig {
            state_dir,
            listen: "127.0.0.1:0".to_string(),
            workers: 2,
            job_cells: 4,
            deadline: Duration::from_secs(300),
            max_attempts: 3,
            dispatch: Dispatch::InProcess,
            threads_per_job: 1,
        }
    }
}

/// The content-addressed identity of a sweep: hash of the portable
/// canonical spec JSON.  Identical resubmissions — and submissions that
/// only differ in `threads`/`trace` — collapse to the same id.
pub fn sweep_id(spec: &ExperimentSpec) -> String {
    content_hash(spec.portable().to_json_value().render().as_bytes())
}

/// Cache key of one sweep's finished artifact.
fn sweep_key(id: &str) -> Json {
    Json::obj([("kind", "sweep".into()), ("id", id.into())])
}

/// Cache key of one cell's result: the cell's full identity, benchmark by
/// *name*, so any sweep whose grid contains this cell shares the entry.
fn cell_key(spec: &ExperimentSpec, names: &[String], cell: &SweepCell) -> Json {
    Json::obj([
        ("kind", "cell".into()),
        ("preset", cell.preset.id().into()),
        ("tech", cell.tech.id().into()),
        ("l1", cell.l1.into()),
        ("bench", names[cell.bench_idx].as_str().into()),
        ("warmup_insts", spec.warmup_insts.into()),
        ("measure_insts", spec.measure_insts.into()),
        ("workload_seed", spec.workload_seed.into()),
        ("exec_seed", cell.exec_seed.into()),
        ("predictor", spec.predictor.id().into()),
        (
            "prefetcher",
            match spec.prefetcher {
                None => Json::Null,
                Some(k) => k.id().into(),
            },
        ),
    ])
}

/// Split `n_cells` into contiguous jobs of at most `job_cells` cells.
pub fn split_jobs(n_cells: usize, job_cells: usize) -> Vec<JobRange> {
    let step = job_cells.max(1);
    let mut out = Vec::new();
    let mut start = 0;
    while start < n_cells {
        let end = (start.saturating_add(step)).min(n_cells);
        out.push(JobRange { start, end });
        start = end;
    }
    out
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Active,
    Done,
    Failed(String),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JState {
    Pending,
    Running(Instant),
    Done,
}

struct Entry {
    /// The spec workers execute (submitted spec, pool width forced to
    /// `threads_per_job`; keeps any `trace` dir so replays ship).
    exec_spec: ExperimentSpec,
    names: Vec<String>,
    n_cells: usize,
    jobs: Vec<JobRange>,
    job_state: Vec<JState>,
    attempts: Vec<u32>,
    cached_cells: usize,
    cells_done: Arc<AtomicUsize>,
    outcome: Outcome,
}

struct Inner {
    sweeps: BTreeMap<String, Entry>,
    queue: VecDeque<(String, usize)>,
}

/// The shared scheduler: submission API on one side, worker loop on the
/// other, everything journaled and cached in between.
pub struct Scheduler {
    cfg: ServeConfig,
    store: Store,
    journal: Journal,
    inner: Mutex<Inner>,
    work: Condvar,
    draining: AtomicBool,
}

impl Scheduler {
    /// Open the state directory (journal + cache), replay the journal,
    /// and re-enqueue every job that was not journaled done — the resume
    /// path after any exit, clean or not.
    pub fn new(cfg: ServeConfig) -> Result<Arc<Scheduler>, String> {
        std::fs::create_dir_all(&cfg.state_dir).map_err(|e| {
            format!("cannot create state dir {}: {e}", cfg.state_dir.display())
        })?;
        let store = Store::open(&cfg.state_dir.join("cache"))?;
        let journal_path = cfg.state_dir.join(JOURNAL_FILE);
        let past = replay(&journal_path)?;
        if past.torn_tail {
            eprintln!(
                "prestage serve: journal {} had a torn final line (unclean \
                 shutdown mid-append); dropped it and resuming",
                journal_path.display()
            );
        }
        let journal = Journal::open(&journal_path)?;
        let mut inner = Inner {
            sweeps: BTreeMap::new(),
            queue: VecDeque::new(),
        };
        for (id, rec) in &past.sweeps {
            let names: Vec<String> = match rec.spec.bench_names() {
                Ok(n) => n.iter().map(|s| s.to_string()).collect(),
                Err(e) => {
                    // The spec validated when it was journaled; failing to
                    // resolve now means the bench set changed under us.
                    eprintln!("prestage serve: sweep {id} no longer resolves: {e}");
                    continue;
                }
            };
            let done_cells: usize = rec
                .jobs
                .iter()
                .zip(&rec.job_state)
                .filter(|(_, s)| **s == JobState::Done)
                .map(|(j, _)| j.len())
                .sum();
            let outcome = match &rec.outcome {
                SweepOutcome::Done => Outcome::Done,
                SweepOutcome::Failed(e) => Outcome::Failed(e.clone()),
                SweepOutcome::InFlight => Outcome::Active,
            };
            let entry = Entry {
                exec_spec: rec.spec.clone(),
                names,
                n_cells: rec.n_cells,
                jobs: rec.jobs.clone(),
                job_state: rec
                    .job_state
                    .iter()
                    .map(|s| match s {
                        JobState::Done => JState::Done,
                        JobState::Pending => JState::Pending,
                    })
                    .collect(),
                attempts: rec.failures.clone(),
                cached_cells: 0,
                cells_done: Arc::new(AtomicUsize::new(if outcome == Outcome::Done {
                    rec.n_cells
                } else {
                    done_cells
                })),
                outcome,
            };
            if entry.outcome == Outcome::Active {
                for (job, s) in entry.job_state.iter().enumerate() {
                    if *s == JState::Pending {
                        inner.queue.push_back((id.clone(), job));
                    }
                }
            }
            inner.sweeps.insert(id.clone(), entry);
        }
        if !inner.queue.is_empty() {
            eprintln!(
                "prestage serve: resuming {} journaled job(s) across {} sweep(s)",
                inner.queue.len(),
                past.unfinished().len()
            );
        }
        Ok(Arc::new(Scheduler {
            cfg,
            store,
            journal,
            inner: Mutex::new(inner),
            work: Condvar::new(),
            draining: AtomicBool::new(false),
        }))
    }

    /// The resolved configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The content-addressed store (tests probe it directly).
    pub fn store(&self) -> &Store {
        &self.store
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Ask workers to stop pulling new jobs (in-flight jobs finish).
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.work.notify_all();
    }

    /// Whether drain has been requested (by signal or protocol).
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Number of jobs currently marked running (the drain wait watches
    /// this reach zero — queued jobs stay journaled for the next start).
    pub fn running_jobs(&self) -> usize {
        let inner = self.lock();
        inner
            .sweeps
            .values()
            .flat_map(|e| &e.job_state)
            .filter(|s| matches!(s, JState::Running(_)))
            .count()
    }

    /// Append the clean-shutdown marker (the last thing the daemon does).
    pub fn journal_shutdown(&self) -> Result<(), String> {
        self.journal.shutdown()
    }

    /// Submit a sweep.  Idempotent: a sweep already cached answers
    /// `complete: true` with zero jobs; one already queued or running
    /// reports current progress instead of double-enqueueing.
    pub fn submit(&self, spec: &ExperimentSpec) -> Result<Response, String> {
        if self.draining() {
            return Err("daemon is shutting down; submit refused".to_string());
        }
        let grid = CellGrid::from_spec(spec)?; // validates the spec
        let names: Vec<String> = spec
            .bench_names()?
            .iter()
            .map(|s| s.to_string())
            .collect();
        let id = sweep_id(spec);
        let n_cells = grid.n_cells();
        if self.store.get(&sweep_key(&id))?.is_some() {
            // Pure cache hit: the artifact exists from an earlier run
            // (this process or any before it).  Record it for status.
            let mut inner = self.lock();
            inner.sweeps.entry(id.clone()).or_insert_with(|| Entry {
                exec_spec: spec.clone(),
                names,
                n_cells,
                jobs: Vec::new(),
                job_state: Vec::new(),
                attempts: Vec::new(),
                cached_cells: n_cells,
                cells_done: Arc::new(AtomicUsize::new(n_cells)),
                outcome: Outcome::Done,
            });
            return Ok(Response::Submitted {
                sweep: id,
                cells: n_cells,
                jobs: 0,
                cached_cells: n_cells,
                complete: true,
            });
        }
        let mut inner = self.lock();
        if let Some(entry) = inner.sweeps.get(&id) {
            return Ok(Response::Submitted {
                sweep: id,
                cells: n_cells,
                jobs: entry.jobs.len(),
                cached_cells: entry.cached_cells,
                complete: entry.outcome == Outcome::Done,
            });
        }
        let cells = grid.cells();
        let mut cached_cells = 0;
        for c in &cells {
            if self.store.get(&cell_key(spec, &names, c))?.is_some() {
                cached_cells += 1;
            }
        }
        let jobs = split_jobs(n_cells, self.cfg.job_cells);
        let exec_spec = ExperimentSpec {
            threads: Some(self.cfg.threads_per_job),
            ..spec.clone()
        };
        self.journal.submit(&id, &exec_spec, n_cells, &jobs)?;
        let n_jobs = jobs.len();
        for job in 0..n_jobs {
            inner.queue.push_back((id.clone(), job));
        }
        inner.sweeps.insert(
            id.clone(),
            Entry {
                exec_spec,
                names,
                n_cells,
                jobs,
                job_state: vec![JState::Pending; n_jobs],
                attempts: vec![0; n_jobs],
                cached_cells,
                cells_done: Arc::new(AtomicUsize::new(0)),
                outcome: Outcome::Active,
            },
        );
        drop(inner);
        self.work.notify_all();
        Ok(Response::Submitted {
            sweep: id,
            cells: n_cells,
            jobs: n_jobs,
            cached_cells,
            complete: false,
        })
    }

    /// Progress counters, optionally filtered to one sweep id.
    pub fn status(&self, filter: Option<&str>) -> Response {
        let inner = self.lock();
        let sweeps = inner
            .sweeps
            .iter()
            .filter(|(id, _)| filter.is_none_or(|f| f == id.as_str()))
            .map(|(id, e)| SweepStatus {
                sweep: id.clone(),
                state: match &e.outcome {
                    Outcome::Done => "done".to_string(),
                    Outcome::Failed(why) => format!("failed: {why}"),
                    Outcome::Active => {
                        if e.job_state.iter().any(|s| matches!(s, JState::Running(_))) {
                            "running".to_string()
                        } else {
                            "queued".to_string()
                        }
                    }
                },
                cells_total: e.n_cells,
                cells_done: e.cells_done.load(Ordering::Relaxed).min(e.n_cells),
                cached_cells: e.cached_cells,
                jobs_total: e.jobs.len(),
                jobs_done: e.job_state.iter().filter(|s| **s == JState::Done).count(),
            })
            .collect();
        Response::Status { sweeps }
    }

    /// Fetch a completed sweep's artifact from the cache.
    pub fn fetch(&self, id: &str) -> Response {
        match self.store.get(&sweep_key(id)) {
            Err(e) => Response::Error { error: e },
            Ok(Some(v)) => match v.get("artifact").and_then(Json::as_str) {
                Some(text) => Response::Artifact {
                    sweep: id.to_string(),
                    artifact: text.to_string(),
                },
                None => Response::Error {
                    error: format!("cache entry for sweep {id} has no artifact field"),
                },
            },
            Ok(None) => {
                let inner = self.lock();
                let error = match inner.sweeps.get(id) {
                    Some(e) => match &e.outcome {
                        Outcome::Failed(why) => format!("sweep {id} failed: {why}"),
                        _ => format!(
                            "sweep {id} is not complete yet ({} of {} cells)",
                            e.cells_done.load(Ordering::Relaxed).min(e.n_cells),
                            e.n_cells
                        ),
                    },
                    None => format!("unknown sweep {id}"),
                };
                Response::Error { error }
            }
        }
    }

    /// Deadline sweep, called periodically by the accept loop: jobs
    /// running past the deadline are speculatively re-enqueued.
    pub fn tick(&self) {
        let mut stolen = false;
        {
            let mut inner = self.lock();
            let mut steals: Vec<(String, usize)> = Vec::new();
            for (id, e) in inner.sweeps.iter_mut() {
                if e.outcome != Outcome::Active {
                    continue;
                }
                for (job, s) in e.job_state.iter_mut().enumerate() {
                    if let JState::Running(since) = s {
                        if since.elapsed() > self.cfg.deadline {
                            // Reset the clock so one straggler is stolen
                            // once per deadline, not once per tick.
                            *s = JState::Running(Instant::now());
                            steals.push((id.clone(), job));
                        }
                    }
                }
            }
            for (id, job) in steals {
                eprintln!(
                    "prestage serve: job {job} of sweep {id} passed the \
                     {:.0}s deadline; re-enqueueing a backup attempt",
                    self.cfg.deadline.as_secs_f64()
                );
                inner.queue.push_back((id, job));
                stolen = true;
            }
        }
        if stolen {
            self.work.notify_all();
        }
    }

    /// The worker loop: pop jobs until drain.  Run one of these per
    /// configured worker, each on its own thread.
    pub fn run_worker(&self) {
        loop {
            let mut inner = self.lock();
            let task = loop {
                if self.draining() {
                    return;
                }
                let mut popped = None;
                while let Some((id, job)) = inner.queue.pop_front() {
                    let Some(e) = inner.sweeps.get_mut(&id) else {
                        continue;
                    };
                    if e.outcome != Outcome::Active || e.job_state[job] == JState::Done {
                        // A stolen duplicate whose original already won,
                        // or a job of a sweep that failed meanwhile.
                        continue;
                    }
                    e.job_state[job] = JState::Running(Instant::now());
                    popped = Some((
                        id,
                        job,
                        e.exec_spec.clone(),
                        e.names.clone(),
                        e.jobs[job],
                        Arc::clone(&e.cells_done),
                    ));
                    break;
                }
                if let Some(t) = popped {
                    break t;
                }
                let (guard, _) = self
                    .work
                    .wait_timeout(inner, Duration::from_millis(200))
                    .unwrap_or_else(|e| e.into_inner());
                inner = guard;
            };
            drop(inner);
            let (id, job, spec, names, range, cells_done) = task;
            let result = self.run_job(&id, job, &spec, &names, range, &cells_done);
            self.complete_job(&id, job, result);
        }
    }

    /// Evaluate one job: serve cached cells, run the rest (in-process or
    /// in a child process), and persist every fresh result to the cell
    /// cache.  The cache writes happen *before* the caller journals
    /// `job_done` — the crash-safety ordering the resume path relies on.
    fn run_job(
        &self,
        sweep: &str,
        job: usize,
        spec: &ExperimentSpec,
        names: &[String],
        range: JobRange,
        cells_done: &AtomicUsize,
    ) -> Result<(), String> {
        let grid = CellGrid::from_spec(spec)?;
        let cells = grid.cells();
        if range.end > cells.len() {
            return Err(format!(
                "job cell range {}..{} exceeds the sweep's {} cells",
                range.start,
                range.end,
                cells.len()
            ));
        }
        let job_cells = &cells[range.start..range.end];
        let mut uncached: Vec<SweepCell> = Vec::new();
        for c in job_cells {
            if self.store.get(&cell_key(spec, names, c))?.is_some() {
                cells_done.fetch_add(1, Ordering::Relaxed);
            } else {
                uncached.push(*c);
            }
        }
        if uncached.is_empty() {
            return Ok(());
        }
        let results: Vec<CellResult> = match self.cfg.dispatch {
            Dispatch::InProcess => {
                let observer = |_r: &CellResult| {
                    cells_done.fetch_add(1, Ordering::Relaxed);
                };
                Sweep {
                    observer: Some(&observer),
                    ..Sweep::new(spec, &uncached)
                }
                .run()?
            }
            Dispatch::Child => {
                // `prestage shard` takes contiguous ranges, so the child
                // runs the whole job range; cached cells re-run there (a
                // bounded waste) and the fresh copies — bit-identical by
                // determinism — simply overwrite the same cache entries.
                let got = self.run_child_shard(sweep, job, spec, range)?;
                cells_done.fetch_add(uncached.len(), Ordering::Relaxed);
                got
            }
        };
        for r in &results {
            self.store
                .put(&cell_key(spec, names, &r.cell), &stats_to_json(&r.stats))?;
        }
        Ok(())
    }

    /// Dispatch one job as a child `prestage shard` process of the same
    /// binary, shipping the spec (trace dir included) through a temp
    /// file and reading the shard file back.
    fn run_child_shard(
        &self,
        sweep: &str,
        job: usize,
        spec: &ExperimentSpec,
        range: JobRange,
    ) -> Result<Vec<CellResult>, String> {
        let exe = std::env::current_exe()
            .map_err(|e| format!("cannot locate the prestage binary for child dispatch: {e}"))?;
        let tmp = self.cfg.state_dir.join("tmp");
        std::fs::create_dir_all(&tmp)
            .map_err(|e| format!("cannot create child temp dir {}: {e}", tmp.display()))?;
        let spec_path = tmp.join(format!("{sweep}-job{job}-spec.json"));
        let out_path = tmp.join(format!("{sweep}-job{job}-shard.json"));
        std::fs::write(&spec_path, spec.to_json())
            .map_err(|e| format!("cannot write {}: {e}", spec_path.display()))?;
        let status = std::process::Command::new(&exe)
            .arg("shard")
            .arg("--spec")
            .arg(&spec_path)
            .arg("--cells")
            .arg(format!("{}..{}", range.start, range.end))
            .arg("--out")
            .arg(&out_path)
            .status()
            .map_err(|e| format!("cannot spawn child shard process: {e}"))?;
        if !status.success() {
            return Err(format!(
                "child shard process for cells {}..{} exited with {status}",
                range.start, range.end
            ));
        }
        let text = std::fs::read_to_string(&out_path)
            .map_err(|e| format!("cannot read child shard output {}: {e}", out_path.display()))?;
        let shard = ShardFile::from_json(&text)
            .map_err(|e| format!("child shard output {}: {e}", out_path.display()))?;
        if shard.start != range.start || shard.end != range.end {
            return Err(format!(
                "child shard covers cells {}..{}, job wanted {}..{}",
                shard.start, shard.end, range.start, range.end
            ));
        }
        let _ = std::fs::remove_file(&spec_path);
        let _ = std::fs::remove_file(&out_path);
        Ok(shard.results)
    }

    /// Apply one job's outcome: journal, retry bookkeeping, and — when
    /// the sweep's last job lands — assembly of the cached artifact.
    fn complete_job(&self, id: &str, job: usize, result: Result<(), String>) {
        let mut inner = self.lock();
        let Some(e) = inner.sweeps.get_mut(id) else {
            return;
        };
        match result {
            Ok(()) => {
                if e.job_state[job] == JState::Done {
                    return; // A stolen duplicate's original already won.
                }
                if let Err(err) = self.journal.job_done(id, job) {
                    // A journal that stops taking appends is a disk-level
                    // problem; surface it as the sweep's failure.
                    e.outcome = Outcome::Failed(err.clone());
                    eprintln!("prestage serve: {err}");
                    return;
                }
                e.job_state[job] = JState::Done;
                if e.job_state.iter().all(|s| *s == JState::Done)
                    && e.outcome == Outcome::Active
                {
                    let assembled = self.assemble(e);
                    match assembled {
                        Ok(()) => {
                            e.outcome = Outcome::Done;
                            let _ = self.journal.sweep_done(id);
                            eprintln!("prestage serve: sweep {id} complete");
                        }
                        Err(err) => {
                            e.outcome = Outcome::Failed(err.clone());
                            let _ = self.journal.sweep_failed(id, &err);
                            eprintln!("prestage serve: sweep {id} failed to assemble: {err}");
                        }
                    }
                }
            }
            Err(err) => {
                let _ = self.journal.job_failed(id, job, &err);
                e.attempts[job] = e.attempts[job].saturating_add(1);
                if e.attempts[job] < self.cfg.max_attempts {
                    eprintln!(
                        "prestage serve: job {job} of sweep {id} failed (attempt \
                         {} of {}): {err}; re-enqueueing",
                        e.attempts[job], self.cfg.max_attempts
                    );
                    e.job_state[job] = JState::Pending;
                    inner.queue.push_back((id.to_string(), job));
                    drop(inner);
                    self.work.notify_all();
                    return;
                }
                eprintln!(
                    "prestage serve: job {job} of sweep {id} failed {} time(s); \
                     failing the sweep: {err}",
                    self.cfg.max_attempts
                );
                e.outcome = Outcome::Failed(err.clone());
                let _ = self.journal.sweep_failed(id, &err);
            }
        }
    }

    /// Read every cell of a finished sweep back from the cache, merge
    /// through the spec-checked path, render the canonical artifact, and
    /// cache it under the sweep key.
    fn assemble(&self, e: &Entry) -> Result<(), String> {
        let spec = &e.exec_spec;
        let grid = CellGrid::from_spec(spec)?;
        let cells = grid.cells();
        let mut results: Vec<CellResult> = Vec::with_capacity(cells.len());
        for c in &cells {
            let v = self
                .store
                .get(&cell_key(spec, &e.names, c))?
                .ok_or_else(|| {
                    format!(
                        "cell (preset {}, l1 {}, bench {}) missing from the cache \
                         at assembly — a job was journaled done without its data",
                        c.preset.id(),
                        c.l1,
                        e.names[c.bench_idx]
                    )
                })?;
            results.push(CellResult {
                cell: *c,
                stats: stats_from_json(&v)?,
                // Wall-clock is per-worker diagnostic data; assembly reads
                // from the cache, where it has no meaning.
                wall: Duration::ZERO,
            });
        }
        let names: Vec<&str> = e.names.iter().map(String::as_str).collect();
        let rows = grid.merge_named(results, &names);
        let artifact = grid_output(spec, &rows);
        let id = sweep_id(spec);
        self.store.put(
            &sweep_key(&id),
            &Json::obj([
                ("spec", spec.portable().to_json_value()),
                ("artifact", artifact.into()),
            ]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_split_covers_exactly() {
        for (n, per, want) in [
            (8, 4, vec![(0, 4), (4, 8)]),
            (7, 3, vec![(0, 3), (3, 6), (6, 7)]),
            (1, 10, vec![(0, 1)]),
            (0, 4, vec![]),
            (3, 0, vec![(0, 1), (1, 2), (2, 3)]), // 0 clamps to 1
        ] {
            let got: Vec<(usize, usize)> = split_jobs(n, per)
                .iter()
                .map(|j| (j.start, j.end))
                .collect();
            assert_eq!(got, want, "split_jobs({n}, {per})");
        }
    }

    #[test]
    fn sweep_id_ignores_host_local_fields() {
        let spec = ExperimentSpec {
            presets: vec![prestage_sim::ConfigPreset::Base],
            l1_sizes: vec![1 << 10],
            bench: Some(vec!["gzip".into()]),
            warmup_insts: 1_000,
            measure_insts: 4_000,
            ..ExperimentSpec::default()
        };
        let with_threads = ExperimentSpec {
            threads: Some(7),
            ..spec.clone()
        };
        assert_eq!(sweep_id(&spec), sweep_id(&with_threads));
        let other = ExperimentSpec {
            exec_seed: spec.exec_seed.wrapping_add(1),
            ..spec.clone()
        };
        assert_ne!(sweep_id(&spec), sweep_id(&other));
    }

    #[test]
    fn cell_key_is_positional_only_through_names() {
        let spec = ExperimentSpec {
            presets: vec![prestage_sim::ConfigPreset::Base],
            l1_sizes: vec![1 << 10],
            bench: Some(vec!["gzip".into(), "mcf".into()]),
            warmup_insts: 1_000,
            measure_insts: 4_000,
            ..ExperimentSpec::default()
        };
        let grid = CellGrid::from_spec(&spec).unwrap();
        let names: Vec<String> = spec
            .bench_names()
            .unwrap()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cells = grid.cells();
        // A spec listing only mcf addresses the same cell result by name,
        // even though the bench *index* differs.
        let sub = ExperimentSpec {
            bench: Some(vec!["mcf".into()]),
            ..spec.clone()
        };
        let sub_names: Vec<String> = vec!["mcf".to_string()];
        let sub_cells = CellGrid::from_spec(&sub).unwrap().cells();
        let key_full = cell_key(&spec, &names, &cells[1]); // bench_idx 1 = mcf
        let key_sub = cell_key(&sub, &sub_names, &sub_cells[0]); // bench_idx 0 = mcf
        assert_eq!(key_full.render(), key_sub.render());
    }
}
