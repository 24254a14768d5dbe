//! The byte-level fuzz targets: one per wire format.
//!
//! Each target is a total function from arbitrary bytes to
//! [`Outcome`], returning `Err` only when the parser under test breaks a
//! law it ships on:
//!
//! * **No panic** (enforced outside, by [`crate::check_input`]'s
//!   `catch_unwind`) and **no hang** (every parser is single-pass over a
//!   finite buffer).
//! * **No unbounded output**: a parser may not fabricate more decoded
//!   structure than the input could possibly encode (checked explicitly
//!   for the trace reader, whose records have a 24-byte floor; the JSON
//!   tree is structurally bounded by its text).
//! * **Loud rejection**: every error names the offending field or byte
//!   offset — the project-wide loud-parsing policy, here enforced
//!   adversarially over millions of inputs instead of hand-picked
//!   fixtures.
//! * **Round-trip laws on acceptance**: re-rendering an accepted value
//!   and re-parsing it must reproduce the value byte-for-byte (the
//!   canonical-artifact property the shard/merge CI diff rests on).

use prestage_json::Json;
use prestage_sim::spec::ShardFile;
use prestage_sim::ExperimentSpec;
use prestage_workload::TraceReader;

/// What a well-behaved parser did with an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Parsed successfully (and every round-trip law held).
    Accepted,
    /// Refused with a convention-conforming error.
    Rejected,
}

/// A named byte-level fuzz target.
pub struct Target {
    pub name: &'static str,
    pub run: fn(&[u8]) -> Result<Outcome, String>,
}

/// All byte-level targets, in reporting order.
pub fn targets() -> &'static [Target] {
    &[
        Target {
            name: "json",
            run: json_target,
        },
        Target {
            name: "spec",
            run: spec_target,
        },
        Target {
            name: "trace",
            run: trace_target,
        },
        Target {
            name: "shard",
            run: shard_target,
        },
    ]
}

pub fn target_by_name(name: &str) -> Option<&'static Target> {
    targets().iter().find(|t| t.name == name)
}

/// Fields/sites an acceptable *spec* error message may name (superset of
/// the spec schema plus the benchmark/preset vocabularies and the JSON
/// error prefix, which carries a byte offset).
const SPEC_TOKENS: &[&str] = &[
    "JSON error",
    "schema",
    "spec",
    "preset",
    "tech",
    "l1_sizes",
    "L1 size",
    "bench",
    "warmup_insts",
    "measure_insts",
    "workload_seed",
    "exec_seed",
    "threads",
    "predictor",
    "trace",
    "prefetcher",
    "itlb",
    "insertion",
];

/// Fields/sites an acceptable *trace* error may name — the same contract
/// `tests/trace_roundtrip.rs` pins on hand-picked corruptions.
const TRACE_TOKENS: &[&str] = &[
    "magic",
    "version",
    "profile",
    "workload_seed",
    "exec_seed",
    "instruction count",
    "chunk size",
    "header CRC",
    "CRC mismatch",
    "truncated",
    "record count",
    "payload",
    "chunk",
    "record",
    "trailing data",
    "opclass",
    "flags",
];

/// Additional sites a *shard* error may name on top of the spec's.
const SHARD_TOKENS: &[&str] = &["shard", "cells", "results", "cell", "stats", "wall_s"];

fn names_a_site(msg: &str, tokens: &[&str]) -> bool {
    tokens.iter().any(|t| msg.contains(t))
}

/// `prestage-json`: parse, then hold the writer to its determinism
/// contract — `render`/`pretty` of an accepted tree must re-parse to the
/// identical tree, and `render` must be a fixpoint.
fn json_target(data: &[u8]) -> Result<Outcome, String> {
    // The parser's domain is `&str`; non-UTF-8 bytes never reach it
    // (every on-disk caller goes through `read_to_string`).
    let Ok(text) = std::str::from_utf8(data) else {
        return Ok(Outcome::Rejected);
    };
    match Json::parse(text) {
        Err(e) => {
            if e.offset > text.len() {
                return Err(format!(
                    "error offset {} lies beyond the {}-byte input",
                    e.offset,
                    text.len()
                ));
            }
            if e.reason.trim().is_empty() {
                return Err("rejection with an empty reason".into());
            }
            Ok(Outcome::Rejected)
        }
        Ok(v) => {
            let canon = v.render();
            let back = Json::parse(&canon)
                .map_err(|e| format!("canonical rendering does not re-parse: {e} in {canon:?}"))?;
            if back != v {
                return Err(format!(
                    "render/parse round-trip changed the value: {canon:?}"
                ));
            }
            if back.render() != canon {
                return Err(format!("render is not a fixpoint for {canon:?}"));
            }
            let pretty = v.pretty();
            let back = Json::parse(&pretty)
                .map_err(|e| format!("pretty rendering does not re-parse: {e} in {pretty:?}"))?;
            if back != v {
                return Err(format!(
                    "pretty/parse round-trip changed the value: {pretty:?}"
                ));
            }
            Ok(Outcome::Accepted)
        }
    }
}

/// The `ExperimentSpec` codec: strict schema-4 parse; parsed specs must
/// survive the canonical round trip, and `validate()` must return — never
/// panic — on whatever parsed.  A spec is accepted only if it also
/// validates: a `validate()` rejection must name a field, like a parse
/// rejection.
fn spec_target(data: &[u8]) -> Result<Outcome, String> {
    let Ok(text) = std::str::from_utf8(data) else {
        return Ok(Outcome::Rejected);
    };
    match ExperimentSpec::from_json(text) {
        Err(e) => {
            if e.trim().is_empty() {
                return Err("spec rejection with an empty reason".into());
            }
            if !names_a_site(&e, SPEC_TOKENS) {
                return Err(format!("spec rejection names no field: {e:?}"));
            }
            Ok(Outcome::Rejected)
        }
        Ok(spec) => {
            let canon = spec.to_json();
            let back = ExperimentSpec::from_json(&canon)
                .map_err(|e| format!("canonical spec does not re-parse: {e}"))?;
            if back != spec {
                return Err("spec round-trip changed a field".into());
            }
            // Whatever parsed must be *checkable* without crashing.
            if let Err(e) = spec.validate() {
                if !names_a_site(&e, SPEC_TOKENS) {
                    return Err(format!("validate() rejection names no field: {e:?}"));
                }
                return Ok(Outcome::Rejected);
            }
            Ok(Outcome::Accepted)
        }
    }
}

/// The trace reader, streamed to exhaustion, and the verify-only
/// pass over the same bytes.  Every rejection must name a field, and both
/// passes must agree: the same inputs accepted, the same message on each
/// rejection.  The record stream may never outrun what the input bytes
/// could encode (24-byte minimum per record) — the no-unbounded-output
/// law, since decoded records are the reader's only allocation that
/// scales with *claimed* (vs actual) content.
fn trace_target(data: &[u8]) -> Result<Outcome, String> {
    let check = |e: &std::io::Error| -> Result<(), String> {
        let msg = e.to_string();
        if !names_a_site(&msg, TRACE_TOKENS) {
            return Err(format!("trace rejection names no field: {msg:?}"));
        }
        Ok(())
    };
    let decoded = decode_trace(data);
    let verified = TraceReader::new(data).and_then(|mut r| r.verify());
    match (&decoded, &verified) {
        (Ok(n), Ok(m)) if n == m => {}
        (Err(d), Err(v)) if d.to_string() == v.to_string() => check(d)?,
        _ => {
            return Err(format!(
                "decoding reader and verify-only pass disagree: {:?} vs {:?}",
                decoded.as_ref().map_err(ToString::to_string),
                verified.as_ref().map_err(ToString::to_string)
            ))
        }
    }
    Ok(match decoded {
        Ok(_) => Outcome::Accepted,
        Err(_) => Outcome::Rejected,
    })
}

/// Stream a trace to exhaustion through the iterator; the record count,
/// or the first error.
fn decode_trace(data: &[u8]) -> std::io::Result<u64> {
    // Records have a 24-byte floor, so a clean read can never produce
    // more than len/24 + 1 records.
    let max_records = (data.len() / 24) as u64 + 1;
    let mut produced: u64 = 0;
    for rec in TraceReader::new(data)? {
        rec?;
        produced += 1;
        assert!(
            produced <= max_records,
            "reader produced {produced} records from a {}-byte input",
            data.len()
        );
    }
    Ok(produced)
}

/// The shard-file loader (`prestage shard` output / `prestage merge`
/// input): strict parse, named rejections, canonical round trip, and the
/// range/result-count invariants on acceptance.
fn shard_target(data: &[u8]) -> Result<Outcome, String> {
    let Ok(text) = std::str::from_utf8(data) else {
        return Ok(Outcome::Rejected);
    };
    match ShardFile::from_json(text) {
        Err(e) => {
            if e.trim().is_empty() {
                return Err("shard rejection with an empty reason".into());
            }
            if !names_a_site(&e, SPEC_TOKENS) && !names_a_site(&e, SHARD_TOKENS) {
                return Err(format!("shard rejection names no field: {e:?}"));
            }
            Ok(Outcome::Rejected)
        }
        Ok(shard) => {
            if shard.start > shard.end {
                return Err(format!(
                    "accepted an inverted cell range {}..{}",
                    shard.start, shard.end
                ));
            }
            if shard.results.len() != shard.end - shard.start {
                return Err(format!(
                    "accepted range {}..{} with {} results",
                    shard.start,
                    shard.end,
                    shard.results.len()
                ));
            }
            let back = ShardFile::from_json(&shard.to_json())
                .map_err(|e| format!("canonical shard does not re-parse: {e}"))?;
            if back != shard {
                return Err("shard round-trip changed a field".into());
            }
            Ok(Outcome::Accepted)
        }
    }
}

/// In-process seeds per target: small valid documents so a campaign has
/// structure to mutate even before the checked-in corpus loads.
pub fn builtin_seeds_for(target: &str) -> Vec<Vec<u8>> {
    match target {
        "json" => vec![
            b"{}".to_vec(),
            b"[0, -1, 2.5, 1e-3, \"s\", null, true, false]".to_vec(),
            b"{\"a\": {\"b\": [1, 2, {\"c\": \"\\n\\u0041\"}]}}".to_vec(),
            b"9223372036854775807".to_vec(),
        ],
        "spec" => vec![
            ExperimentSpec::default().to_json().into_bytes(),
            tiny_spec().to_json().into_bytes(),
        ],
        "trace" => {
            let w = tiny_workload();
            let mut v2 = std::io::Cursor::new(Vec::new());
            prestage_workload::record_trace(&mut v2, &w, 3, 600, 256).expect("in-memory recording");
            vec![v2.into_inner()]
        }
        "shard" => {
            // An empty-but-valid shard: real stats come from the corpus.
            let shard = ShardFile {
                spec: tiny_spec(),
                start: 0,
                end: 0,
                results: Vec::new(),
            };
            vec![shard.to_json().into_bytes()]
        }
        _ => Vec::new(),
    }
}

/// The small spec the harness bases seeds and differential runs on.
pub fn tiny_spec() -> ExperimentSpec {
    ExperimentSpec {
        presets: vec![
            prestage_sim::ConfigPreset::Base,
            prestage_sim::ConfigPreset::ClgpL0,
        ],
        tech: prestage_cacti::TechNode::T090,
        l1_sizes: vec![1 << 10, 4 << 10],
        bench: Some(vec!["gzip".into()]),
        warmup_insts: 500,
        measure_insts: 2_000,
        workload_seed: 7,
        exec_seed: 3,
        threads: Some(2),
        predictor: prestage_sim::PredictorKind::Stream,
        trace: None,
        prefetcher: None,
        itlb: Some(prestage_core::ITlbConfig {
            entries: 16,
            assoc: 2,
            page_bytes: 1024,
            miss_cycles: 12,
        }),
        insertion: Some(prestage_core::InsertionPolicy::Lru),
    }
}

/// A benchmark profile shrunk to fuzz-loop size (a few KB of code).
pub fn tiny_workload() -> prestage_workload::Workload {
    let mut p = prestage_workload::by_name("gzip").expect("known benchmark");
    p.i_footprint_kb = p.i_footprint_kb.min(4);
    p.n_funcs = p.n_funcs.min(8);
    prestage_workload::build(&p, 7)
}
