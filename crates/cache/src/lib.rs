//! # prestage-cache
//!
//! The cache substrate for the fetch-prestaging reproduction:
//!
//! * [`SetAssocCache`] — a set-associative, true-LRU cache array with
//!   separate *probe* (tag check only, used by FDP's Enqueue Cache Probe
//!   Filtering) and *lookup* (LRU-updating) operations.
//! * [`ArrayPort`] — occupancy/latency bookkeeping for single-ported
//!   arrays, covering both non-pipelined multi-cycle access (the array is
//!   busy for the whole access) and pipelined access (one new access per
//!   cycle, full latency per access) — the two L1 organisations the paper
//!   trades off.
//! * [`L2System`] — the unified L2 cache, the L2 bus (one request per
//!   cycle, priority: L1-D > L1-I demand > prefetch, §4.1 of the paper) and
//!   main memory behind it.
//! * [`ITlb`] — the instruction TLB the fetch path translates through when
//!   configured, with [`FillClass`]/[`InsertionPolicy`] classing speculative
//!   fills (insert-at-LRU / bypass) per Jamet et al.
//!
//! Latencies are supplied by [`prestage_cacti`] so every structure is
//! consistent with the paper's Table 3.

pub mod array;
pub mod bus;
mod lru;
pub mod port;
pub mod tlb;

pub use array::{FillClass, InsertionPolicy, SetAssocCache};
pub use bus::{BusStats, Completion, L2Config, L2System, MemSource, ReqClass, ReqId};
pub use port::ArrayPort;
pub use tlb::{ITlb, ITlbConfig, TlbStats};
