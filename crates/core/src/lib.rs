//! # prestage-core
//!
//! The paper's primary contribution, as a reusable library: a decoupled
//! instruction fetch front-end whose prefetch path is an open mechanism
//! registry ([`prefetch::InstrPrefetcher`] behind [`PrefetcherKind`]):
//!
//! * **No prefetching** — the baseline (with optional L0 filter cache and
//!   optional pipelined L1).
//! * **FDP** — Fetch Directed Prefetching (Reinman, Calder, Austin,
//!   MICRO'99) with Enqueue Cache Probe Filtering, the strongest prior
//!   scheme the paper compares against (§3.1), including the L0 adaptation
//!   of §3.1.1.
//! * **CLGP** — Cache Line Guided Prestaging (§3.2): the fetch queue holds
//!   *cache lines* (CLTQ), every entry prefetches with **no filtering**,
//!   prestage-buffer entries carry a **consumers counter** that pins a line
//!   until its last queued use, fetched lines are **not** migrated into the
//!   I-cache, and the L1 is demoted to an *emergency cache* fed only by
//!   demand misses (mostly after branch mispredictions).
//! * **Next-N-line, MANA, program-map traversal** — the related-work
//!   comparison points (sequential prefetching; spatial-region
//!   record-and-replay per Ansari et al.; coarse region-successor
//!   traversal per Murthy & Sohi), each a [`prefetch`] mechanism riding
//!   the same pre-buffer and issue paths.
//!
//! The front-end is cycle-driven: the embedding simulator pushes predicted
//! fetch blocks in ([`FrontEnd::push_block`]), ticks it once per cycle with
//! access to the shared L2 system, and receives instruction deliveries
//! tagged with their block and fetch source.  All storage latencies come
//! from [`prestage_cacti`], so the same configuration reproduces both
//! technology nodes of the paper.

pub mod buffer;
pub mod config;
pub mod frontend;
pub mod prefetch;
pub mod queue;
pub mod stats;

pub use buffer::{PbKind, PbLookup, PreBuffer};
pub use config::{FrontendConfig, PrefetcherKind};
pub use frontend::{Delivery, FetchSource, FrontEnd};
pub use prefetch::{
    prefetcher_state_bytes, ClgpPrefetcher, FdpPrefetcher, Idle, InstrPrefetcher, ManaPrefetcher,
    NextLinePrefetcher, NoPrefetcher, PrefetchView, ProgMapPrefetcher,
};
pub use prestage_cache::{ITlbConfig, InsertionPolicy, TlbStats};
pub use queue::{FetchQueue, LineSlot};
pub use stats::{FrontStats, SourceCount};
