//! # prestage-workload
//!
//! Synthetic SPECint2000-like workloads for the fetch-prestaging
//! reproduction.
//!
//! ## Why synthetic
//!
//! The paper simulates 300M-instruction representative slices of the twelve
//! SPECint2000 benchmarks compiled for Alpha AXP-21264.  Those traces are
//! proprietary and unavailable, so this crate *generates* a stand-in per
//! benchmark: a static program (a layered weighted call DAG of functions
//! made of loops, diamonds and straight-line blocks, with realistic
//! instruction mixes and register dependence chains) plus a deterministic
//! dynamic execution through it.
//!
//! The generator is parameterised by the first-order characteristics that
//! actually drive instruction-prefetch results:
//!
//! * **instruction footprint** (hot code size vs. I-cache size),
//! * **branch predictability** (the flush rate of the decoupled front-end),
//! * **basic-block / stream lengths** (fetch-block geometry),
//! * **data-side behaviour** (D-cache miss traffic competing for the L2
//!   bus).
//!
//! Per-benchmark parameter sets live in [`profile::specint2000`], with
//! values chosen to echo the published character of each benchmark (e.g.
//! `gcc`'s large code footprint, `mcf`'s tiny code but memory-bound data
//! side, `eon`'s highly predictable long blocks).
//!
//! ## Module map
//!
//! * [`profile`] — tunable benchmark profiles + the SPECint2000 set.
//! * [`codegen`] — static program synthesis ([`build`]).
//! * [`exec`] — [`TraceGenerator`]: deterministic dynamic execution
//!   yielding instruction streams.
//! * [`trace_io`] — binary trace save/load: the chunked, CRC-checked v2
//!   format with streaming [`TraceWriter`]/[`TraceReader`] (the only
//!   version read).
//! * [`replay`] — [`InstSource`], the engine's stream abstraction, served
//!   live by [`TraceGenerator`], streamed from disk by [`TraceReplayer`], or
//!   from a decode shared by several cells by [`SharedReplayer`].

pub mod codegen;
pub mod exec;
pub mod profile;
pub mod replay;
pub mod trace_io;

pub use codegen::{build, BranchModel, MemModel, Workload};
pub use exec::{DynInst, TraceGenerator};
pub use profile::{by_name, specint2000, BenchmarkProfile};
pub use replay::{replay_file, FileReplayer, InstSource, SharedReplayer, TraceReplayer};
pub use trace_io::{
    open_trace, read_trace, record_trace, TraceHeader, TraceMeta, TraceReader, TraceWriter,
    DEFAULT_CHUNK_INSTS,
};

/// Miniaturized SPECint2000 workloads — the first `n` profiles with code
/// footprints clamped small — for tests and examples that need whole sweep
/// grids to simulate in milliseconds.  One definition so every determinism
/// suite exercises the same fixture.
pub fn specint_mini(n: usize, seed: u64) -> Vec<Workload> {
    let mut profiles = specint2000();
    profiles.truncate(n);
    profiles
        .iter_mut()
        .map(|p| {
            p.i_footprint_kb = p.i_footprint_kb.min(8);
            p.n_funcs = p.n_funcs.min(12);
            build(p, seed)
        })
        .collect()
}
