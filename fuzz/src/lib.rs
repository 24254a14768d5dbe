//! # prestage-fuzz
//!
//! Deterministic fuzz + differential conformance harness for the
//! workspace's wire formats and six prefetch mechanisms.  Runs
//! fully offline against the vendored shims — the mutation engine is
//! seeded from the vendored `rand` (xoshiro256++), so a `(seed, budget)`
//! pair always replays the exact same inputs.
//!
//! Two pillars:
//!
//! * **Byte-level fuzzers** ([`mod@targets`]) drive structure-aware mutations
//!   of checked-in corpus seeds (`fuzz/corpus/<target>/`) through each
//!   wire-format parser — the JSON tree ([`prestage_json`]), the
//!   experiment-spec codec, the trace reader and the shard-file
//!   loader — asserting the workspace's loud-parsing policy
//!   *adversarially*: no input may panic, loop, or produce unboundedly
//!   more output than it is long, and every rejection must name the
//!   offending field or byte offset.
//! * **A differential driver** ([`differential`]) generates random small
//!   [`prestage_sim::ExperimentSpec`]s and asserts the repo's core
//!   equivalences as executable properties: live == replay == shard/merge
//!   byte-identical artifacts, and all six mechanisms bit-identical when
//!   the pre-buffer is disabled by config.
//!
//! Crashers found during development are checked in under
//! `fuzz/regressions/<target>/` and replayed by `fuzz/tests/` as named
//! unit tests; the `prestage fuzz` CLI subcommand runs the whole harness
//! under a `--budget` bound (see the README's *Fuzzing* section).

pub mod differential;
pub mod mutate;
pub mod targets;

pub use targets::{target_by_name, targets, Outcome, Target};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Seed the CLI and CI use when none is given — fixed so every run of
/// the same build fuzzes the same inputs (no flakes, reproducible
/// crashers).
pub const DEFAULT_SEED: u64 = 0x5EED_F05C;

/// Inputs the byte fuzzers never grow beyond: large enough to cover
/// multi-chunk traces and full grid artifacts, small enough that a
/// quadratic parser corner stays sub-second.
pub const MAX_INPUT: usize = mutate::MAX_INPUT;

/// One input that crashed a target or violated the error convention.
#[derive(Debug, Clone)]
pub struct Crash {
    pub target: &'static str,
    pub input: Vec<u8>,
    pub message: String,
}

/// Outcome of one byte-fuzz campaign against one target.
#[derive(Debug)]
pub struct TargetReport {
    pub target: &'static str,
    /// Inputs executed (corpus seeds + mutations).
    pub executions: u64,
    /// Inputs the parser accepted (and whose round-trip laws held).
    pub accepted: u64,
    /// Inputs rejected with a convention-conforming error.
    pub rejected: u64,
    /// Convention violations and panics, deduplicated by message.
    pub crashes: Vec<Crash>,
}

/// Run one input through a target with panics contained.  Returns
/// `Ok(outcome)` when the target behaved (accepted, or rejected with a
/// conforming error) and `Err(message)` when it panicked or violated the
/// error convention — the latter is what becomes a checked-in crasher.
pub fn check_input(t: &Target, data: &[u8]) -> Result<Outcome, String> {
    // Silence the default hook while probing: a fuzz campaign hits panics
    // by design, and thousands of backtraces would bury the report.
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let result = panic::catch_unwind(AssertUnwindSafe(|| (t.run)(data)));
    panic::set_hook(hook);
    match result {
        Ok(r) => r,
        Err(p) => Err(format!("panic: {}", panic_message(&*p))),
    }
}

/// Best-effort text of a caught panic payload.
pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Fuzz one target for `budget` mutated inputs (after replaying every
/// seed verbatim).  Deterministic for a `(target, seeds, budget, seed)`
/// tuple: the RNG is per-target, and accepted inputs join the mutation
/// pool in execution order.
pub fn fuzz_target(t: &Target, seeds: &[Vec<u8>], budget: u64, seed: u64) -> TargetReport {
    // Derive a per-target stream so adding a target never shifts the
    // inputs another target sees.
    let mut tag: u64 = 0xcbf2_9ce4_8422_2325;
    for b in t.name.bytes() {
        tag = (tag ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ tag);

    let mut report = TargetReport {
        target: t.name,
        executions: 0,
        accepted: 0,
        rejected: 0,
        crashes: Vec::new(),
    };
    let mut pool: Vec<Vec<u8>> = seeds.to_vec();
    if pool.is_empty() {
        pool.push(Vec::new());
    }

    let exec = |data: Vec<u8>, report: &mut TargetReport, pool: &mut Vec<Vec<u8>>| {
        report.executions += 1;
        match check_input(t, &data) {
            Ok(Outcome::Accepted) => {
                report.accepted += 1;
                // Accepted mutants are the interesting frontier: feed them
                // back (bounded, deduplicated) so mutations stack.
                if pool.len() < 256 && !pool.contains(&data) {
                    pool.push(data);
                }
            }
            Ok(Outcome::Rejected) => report.rejected += 1,
            Err(message) => {
                let dedup = message.chars().take(80).collect::<String>();
                if !report
                    .crashes
                    .iter()
                    .any(|c| c.message.chars().take(80).collect::<String>() == dedup)
                    && report.crashes.len() < 16
                {
                    report.crashes.push(Crash {
                        target: t.name,
                        input: data,
                        message,
                    });
                }
            }
        }
    };

    for s in seeds {
        exec(s.clone(), &mut report, &mut pool);
    }
    for _ in 0..budget {
        let input = mutate::mutate(&mut rng, &pool);
        exec(input, &mut report, &mut pool);
    }
    report
}

/// `fuzz/corpus/` as baked into this checkout (the CLI's default).
pub fn default_corpus_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// `fuzz/regressions/` — every file is a past crasher, replayed by the
/// regression tests and re-fuzzed as a seed.
pub fn default_regressions_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("regressions")
}

/// Load one target's seed files from `root/<target>/`, sorted by file
/// name so the campaign is independent of directory iteration order.
/// A missing directory is an empty seed set, not an error.
pub fn load_seeds(root: &Path, target: &str) -> Vec<Vec<u8>> {
    named_inputs(&root.join(target))
        .into_iter()
        .map(|(_, bytes)| bytes)
        .collect()
}

/// `(file name, bytes)` for every regular file directly under `dir`,
/// sorted by name.
pub fn named_inputs(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out: Vec<(String, Vec<u8>)> = entries
        .filter_map(|e| {
            let e = e.ok()?;
            if !e.file_type().ok()?.is_file() {
                return None;
            }
            let name = e.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(e.path()).ok()?;
            Some((name, bytes))
        })
        .collect();
    out.sort();
    out
}

/// Seeds a target starts from even with no corpus checked out: small
/// valid documents generated in-process, so the mutator always has
/// structure to work with.
pub fn builtin_seeds(target: &str) -> Vec<Vec<u8>> {
    targets::builtin_seeds_for(target)
}

/// A quick deterministic self-check used by the test suite: fuzz every
/// target at `budget` and return the reports (seeded from the corpus if
/// present, built-ins otherwise).
pub fn run_byte_fuzzers(budget: u64, seed: u64, corpus_root: &Path) -> Vec<TargetReport> {
    targets()
        .iter()
        .map(|t| {
            let mut seeds = builtin_seeds(t.name);
            seeds.extend(load_seeds(corpus_root, t.name));
            seeds.extend(load_seeds(&default_regressions_root(), t.name));
            fuzz_target(t, &seeds, budget, seed)
        })
        .collect()
}

/// Derive a short stable content hash for naming crash files.
pub fn input_tag(data: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Convenience used by tests: mutate `n` inputs from `seeds` and return
/// them (exposes the mutator's determinism without running a target).
pub fn sample_mutations(seeds: &[Vec<u8>], n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pool: Vec<Vec<u8>> = if seeds.is_empty() {
        vec![Vec::new()]
    } else {
        seeds.to_vec()
    };
    (0..n).map(|_| mutate::mutate(&mut rng, &pool)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutator_is_deterministic() {
        let seeds = vec![b"{\"a\": 1}".to_vec(), b"PSTR".to_vec()];
        assert_eq!(
            sample_mutations(&seeds, 50, 7),
            sample_mutations(&seeds, 50, 7)
        );
    }

    #[test]
    fn campaigns_are_deterministic() {
        let t = target_by_name("json").unwrap();
        let seeds = builtin_seeds("json");
        let a = fuzz_target(t, &seeds, 100, 42);
        let b = fuzz_target(t, &seeds, 100, 42);
        assert_eq!(a.executions, b.executions);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.crashes.len(), b.crashes.len());
    }

    #[test]
    fn check_input_contains_panics() {
        // A target that panics on any input must come back as Err, with
        // the process (and the panic hook) intact.
        fn boom(_: &[u8]) -> Result<Outcome, String> {
            panic!("deliberate test panic");
        }
        let t = Target {
            name: "boom",
            run: boom,
        };
        let e = check_input(&t, b"x").unwrap_err();
        assert!(e.contains("deliberate test panic"), "{e}");
    }
}
