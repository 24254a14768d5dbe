//! # prestage-serve
//!
//! The always-on sweep orchestrator behind `prestage serve` and its
//! client verbs `submit`, `status`, and `fetch`.
//!
//! The daemon accepts [`ExperimentSpec`](prestage_sim::ExperimentSpec)
//! submissions over a tiny length-prefixed JSON frame protocol
//! ([`protocol`]), validates them through the same strict parser the CLI
//! uses, splits each sweep into contiguous cell-range jobs on a
//! crash-safe journaled queue ([`queue`]), and evaluates jobs on a
//! configurable worker pool ([`scheduler`]) — in-process on the sim's
//! cell pool, or as child `prestage shard` processes.  Every
//! cell result lands in a content-addressed store ([`cache`]) keyed by
//! the cell's *identity* (not its grid position), so overlapping sweeps
//! share work, and a finished sweep's canonical grid artifact is cached
//! under the content hash of its portable spec — resubmitting the same
//! experiment is a pure cache hit, byte-identical to `prestage run`.
//!
//! Determinism is the contract that makes all of this safe: cells are
//! bit-exact for any pool width, host, or dispatch mode, so cache
//! entries written by different workers (or a stolen backup attempt of
//! a straggling job) are interchangeable, and a kill/restart resumes
//! from the journal to the same bytes a single uninterrupted run
//! produces.

pub mod cache;
pub mod client;
pub mod protocol;
pub mod queue;
pub mod scheduler;
pub mod server;

pub use cache::{content_hash, Store, CACHE_SCHEMA};
pub use client::{request, resolve_addr};
pub use protocol::{
    decode_frame, encode_frame, encode_frame_text, read_frame, write_frame, Request, Response,
    SweepStatus, FRAME_HEADER, FRAME_MAGIC, MAX_FRAME,
};
pub use queue::{replay, JobRange, Journal, QueueState, JOURNAL_FILE};
pub use scheduler::{split_jobs, sweep_id, Dispatch, Scheduler, ServeConfig};
pub use server::{check, serve, ADDR_FILE};

use std::path::PathBuf;

/// Default daemon state directory: `serve/` under the workspace results
/// dir, so `PRESTAGE_RESULTS_DIR` anchors the daemon exactly like every
/// other artifact path (and the default is cwd-independent).
pub fn default_state_dir() -> PathBuf {
    prestage_sim::results_dir().join("serve")
}
