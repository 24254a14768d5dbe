//! The JSON codec behind every wire record: spec files, shard files, grid
//! artifacts and cell-cache entries.
//!
//! A type crosses the wire through [`Wire`]: leaf impls for integers,
//! strings, arrays, `Option` (rendered as `null`), the `[lines, insts]`
//! pair of a [`SourceCount`] and the id enums; and the `record!` macro for
//! structs.  A record is declared once, as an ordered field list, and that
//! one list is both directions of its codec:
//!
//! * encoding destructures the struct exhaustively (a field missing from
//!   the list does not compile) and writes its keys in list order, so the
//!   rendered bytes are a function of the list alone;
//! * decoding refuses a non-object, then any unknown key by name, then
//!   parses every field in list order, each error naming the field's path
//!   (`spec.itlb.miss_cycles must be an unsigned integer`).
//!
//! An unknown counter written by a build with an extra field must never
//! merge silently dropped, and a misspelled spec field must never fall back
//! to a default, so nothing is optional on input: every listed key must be
//! present, `null` included.

use crate::backend::BackendStats;
use crate::config::ConfigPreset;
use crate::engine::PredictorKind;
use crate::runner::SweepCell;
use crate::spec::{ExperimentSpec, TraceSource};
use crate::stats::SimStats;
use prestage_bpred::PredStats;
use prestage_cache::BusStats;
use prestage_cacti::TechNode;
use prestage_core::{FrontStats, ITlbConfig, InsertionPolicy, PrefetcherKind, SourceCount};
use prestage_json::Json;

/// A value with one canonical JSON form.
pub(crate) trait Wire: Sized {
    /// The JSON shape a value takes, completing "`<path>` must be …" in a
    /// wrong-shape error.
    const SHAPE: &'static str;

    /// The canonical rendering.
    fn to_json(&self) -> Json;

    /// Parse `v`, the value at `path` (which every error names).
    fn from_json(v: &Json, path: &str) -> Result<Self, String>;
}

/// The error for a value at `path` that is not a `T` at all.
fn mismatch<T: Wire>(path: &str) -> String {
    format!("{path} must be {}", T::SHAPE)
}

/// Refuse a non-object, or an object with a key outside `known`, naming
/// the key, the record kind (`noun`) and the block: the last segment of
/// `path`.  Every record decoder, generated or hand-written, calls this
/// first.
pub(crate) fn check_keys(v: &Json, noun: &str, path: &str, known: &[&str]) -> Result<(), String> {
    let Json::Obj(pairs) = v else {
        return Err(format!("{path} must be an object"));
    };
    match pairs.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        None => Ok(()),
        Some((k, _)) => {
            let block = path.rsplit('.').next().unwrap_or(path);
            Err(format!(
                "unknown {noun} field {k:?} in block {block:?} (valid fields: {})",
                known.join(", ")
            ))
        }
    }
}

/// Field `key` of the object `v` at `path`, which must be present.
pub(crate) fn field<T: Wire>(v: &Json, path: &str, key: &str) -> Result<T, String> {
    let value = v
        .get(key)
        .ok_or_else(|| format!("{path} is missing field {key:?}"))?;
    T::from_json(value, &format!("{path}.{key}"))
}

impl Wire for u64 {
    const SHAPE: &'static str = "an unsigned integer";
    fn to_json(&self) -> Json {
        (*self).into()
    }
    fn from_json(v: &Json, path: &str) -> Result<Self, String> {
        v.as_u64().ok_or_else(|| mismatch::<Self>(path))
    }
}

impl Wire for usize {
    const SHAPE: &'static str = "an unsigned integer";
    fn to_json(&self) -> Json {
        (*self).into()
    }
    fn from_json(v: &Json, path: &str) -> Result<Self, String> {
        v.as_usize().ok_or_else(|| mismatch::<Self>(path))
    }
}

impl Wire for String {
    const SHAPE: &'static str = "a string";
    fn to_json(&self) -> Json {
        self.as_str().into()
    }
    fn from_json(v: &Json, path: &str) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| mismatch::<Self>(path))
    }
}

impl<T: Wire> Wire for Vec<T> {
    const SHAPE: &'static str = "an array";
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Wire::to_json).collect())
    }
    fn from_json(v: &Json, path: &str) -> Result<Self, String> {
        let items = v.as_arr().ok_or_else(|| mismatch::<Self>(path))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item, &format!("{path}[{i}]")))
            .collect()
    }
}

impl<T: Wire> Wire for Option<T> {
    const SHAPE: &'static str = "null or a value";
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, Wire::to_json)
    }
    fn from_json(v: &Json, path: &str) -> Result<Self, String> {
        if v.is_null() {
            return Ok(None);
        }
        T::from_json(v, path).map(Some).map_err(|e| {
            // A value of the wrong shape: say that null would do too.
            if e == mismatch::<T>(path) {
                format!("{path} must be null or {}", T::SHAPE)
            } else {
                e
            }
        })
    }
}

impl Wire for SourceCount {
    const SHAPE: &'static str = "a [lines, insts] pair";
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.lines.into(), self.insts.into()])
    }
    fn from_json(v: &Json, path: &str) -> Result<Self, String> {
        match v.as_arr() {
            Some([lines, insts]) => Ok(SourceCount {
                lines: u64::from_json(lines, &format!("{path}[0]"))?,
                insts: u64::from_json(insts, &format!("{path}[1]"))?,
            }),
            _ => Err(mismatch::<Self>(path)),
        }
    }
}

/// The id enums: each renders as its `id()` and parses through `from_id`;
/// an unknown id is refused listing every valid one.  The literal is the
/// error's head, taking the id.
macro_rules! wire_ids {
    ($($T:ty => $unknown:literal),* $(,)?) => {$(
        impl Wire for $T {
            const SHAPE: &'static str = "an id string";
            fn to_json(&self) -> Json {
                self.id().into()
            }
            fn from_json(v: &Json, path: &str) -> Result<Self, String> {
                let id = v.as_str().ok_or_else(|| mismatch::<Self>(path))?;
                <$T>::from_id(id).ok_or_else(|| {
                    let valid: Vec<&str> = <$T>::all().iter().map(|x| x.id()).collect();
                    format!(
                        concat!("{}: ", $unknown, "; valid ids: {}"),
                        path,
                        id,
                        valid.join(", ")
                    )
                })
            }
        }
    )*};
}

wire_ids! {
    ConfigPreset => "unknown preset {:?}",
    TechNode => "unknown tech node {:?}",
    PredictorKind => "unknown predictor {:?}",
    PrefetcherKind => "unknown prefetcher {:?}",
    InsertionPolicy => "unknown insertion policy `{}`",
}

/// One ordered field list per struct, generating both directions of its
/// codec (see the module docs).  `noun` names the record kind in
/// unknown-key errors.
macro_rules! record {
    ($($T:ident as $noun:literal { $($field:ident),* $(,)? })*) => {$(
        impl Wire for $T {
            const SHAPE: &'static str = "an object";
            fn to_json(&self) -> Json {
                let $T { $($field),* } = self;
                Json::obj([$((stringify!($field), Wire::to_json($field))),*])
            }
            fn from_json(v: &Json, path: &str) -> Result<Self, String> {
                check_keys(v, $noun, path, &[$(stringify!($field)),*])?;
                Ok($T {
                    $($field: field(v, path, stringify!($field))?,)*
                })
            }
        }
    )*};
}

record! {
    SimStats as "stats" {
        seed, cycles, committed, redirects, front, bus, pred, backend,
    }
    FrontStats as "stats" {
        fetch_pb, fetch_l0, fetch_l1, fetch_l2, fetch_mem,
        prefetch_from_pb, prefetch_from_l1, prefetch_from_l2, prefetch_from_mem,
        prefetches_issued, filtered, pb_alloc_stalls,
        blocks_pushed, blocks_rejected, flushes, consumer_bumps,
    }
    BusStats as "stats" {
        grants_dcache, grants_ifetch, grants_prefetch, writebacks,
        l2_hits, l2_misses, wait_cycles,
    }
    PredStats as "stats" {
        predictions, l1_supplied, l2_supplied, fallback_supplied, trained, train_correct,
    }
    BackendStats as "stats" {
        committed, loads, stores, dcache_hits, dcache_misses, branches, commit_stall_cycles,
    }
    SweepCell as "cell" {
        preset, l1, bench_idx,
    }
    ExperimentSpec as "spec" {
        presets, tech, l1_sizes, bench, warmup_insts, measure_insts,
        workload_seed, exec_seed, threads, predictor, trace, prefetcher, itlb, insertion,
    }
    ITlbConfig as "itlb" {
        entries, assoc, page_bytes, miss_cycles,
    }
    TraceSource as "trace" {
        dir,
    }
}
