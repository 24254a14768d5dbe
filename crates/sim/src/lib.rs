//! # prestage-sim
//!
//! The full-system, trace-driven timing simulator of the fetch-prestaging
//! reproduction: Table 2's processor (4-wide fetch/issue/commit, 64-entry
//! RUU, 15-stage pipeline, 32 KB L1-D, unified 1 MB L2, 200-cycle memory)
//! around the [`prestage_core`] front-end, with wrong-path execution through
//! the basic-block dictionary and speculative branch-predictor state with
//! checkpoint/repair — the methodology of §4 of the paper.
//!
//! * [`backend`] — the RUU-based out-of-order back-end (scoreboarded issue,
//!   D-cache with two ports, in-order commit).
//! * [`engine`] — the cycle loop tying predictor → queue → prefetcher →
//!   fetch → decode → RUU together, including divergence detection and
//!   misprediction redirects.
//! * [`config`] — [`SimConfig`] plus presets for **every configuration in
//!   the paper's evaluation**: `base`, `base+L0`, `base pipelined`, `ideal`,
//!   `FDP(+L0)(+PB16)`, `CLGP(+L0)(+PB16)` at both technology nodes.
//! * [`stats`] — run statistics and aggregation (harmonic means, source
//!   distributions for Figures 7/8).
//! * [`runner`] — [`Sweep`], the one way to run a spec's cells: one
//!   work-stealing pool over (preset × L1-size × benchmark) [`SweepCell`]s.
//! * [`spec`] — [`ExperimentSpec`], the serializable value that fully
//!   describes an experiment and is its grid: JSON round-trip, the
//!   `PRESTAGE_*` env override layer, the flat cell list and row assembly
//!   ([`ExperimentSpec::cells`], [`ExperimentSpec::rows`]), and the
//!   shard-file format and merge of the `prestage` CLI ([`ShardFile`]).
//! * `wire` — the JSON codec of every wire record: one ordered field list
//!   per struct declares both directions.
//! * [`cache`] — the content-addressed cell cache behind
//!   `prestage run --cache <dir>` ([`try_run_spec_cached`]).
//! * [`artifacts`] — [`results_dir`], the one cwd-independent answer to
//!   where sweep artifacts land on disk.

pub mod artifacts;
pub mod backend;
pub mod cache;
pub mod config;
pub mod engine;
pub mod runner;
pub mod spec;
pub mod stats;
mod wire;

pub use artifacts::results_dir;
pub use backend::{BackEnd, BackendConfig, BackendStats};
pub use cache::{try_run_spec_cached, CacheCounts, Store};
pub use config::{ConfigPreset, SimConfig};
pub use engine::{Engine, PredictorKind};
pub use prestage_core::{ITlbConfig, InsertionPolicy, PrefetcherKind};
pub use runner::{default_threads, pool_map, CellResult, GridResult, Sweep, SweepCell};
pub use spec::{
    grid_output, try_run_spec, ExperimentSpec, ShardFile, TraceSource, L1_SIZES,
    TRACE_RECORD_SLACK,
};
pub use stats::{harmonic_mean, SimStats};
