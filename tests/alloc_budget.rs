//! Allocation budgets of the per-invocation set-up: an engine costs a
//! fixed few heap allocations whatever its cache geometry, and a
//! synthetic program a fixed few whatever its number of basic blocks
//! (one per table, not one per set or per block).  Once warm, a running
//! engine stops allocating: its queues reach their high-water marks and
//! a longer run costs no more allocations than a shorter one.
//!
//! A counting global allocator tallies allocation calls (`alloc`,
//! `alloc_zeroed` and `realloc`) and live heap bytes per thread, so the
//! suite's other tests, running in parallel on their own threads, cannot
//! disturb a count.

use fetch_prestaging::cache::ITlbConfig;
use fetch_prestaging::prelude::*;
use fetch_prestaging::sim::PredictorKind;
use fetch_prestaging::workload::TraceGenerator;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Heap bytes this thread has allocated and not freed, and the most
    /// there have been since [`peak_bytes`] last reset it.
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
}

/// Count one allocation call that changes this thread's live bytes by
/// `delta`.
fn bump(delta: i64) {
    // `try_with`: an allocation during thread teardown goes uncounted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    resize(delta);
}

fn resize(delta: i64) {
    let _ = LIVE.try_with(|l| {
        let (live, peak) = l.get();
        l.set((live + delta, peak.max(live + delta)));
    });
}

fn bytes(n: usize) -> i64 {
    i64::try_from(n).expect("an allocation fits i64")
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(bytes(layout.size()));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(bytes(layout.size()));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(bytes(new_size) - bytes(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize(-bytes(layout.size()));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocation calls on this thread, result)` of `f`.
fn count<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// `(peak heap bytes live on this thread during f, beyond those live
/// before it, result)` of `f`.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (i64, T) {
    let before = LIVE.with(|l| {
        let (live, _) = l.get();
        l.set((live, live));
        live
    });
    let out = f();
    (LIVE.with(Cell::get).1 - before, out)
}

/// The most allocations one `Engine::new` may make.
const ENGINE_BUDGET: u64 = 64;

#[test]
fn engine_new_allocates_a_constant_few_times_whatever_the_cache_sets() {
    let mut p = workload::by_name("gzip").unwrap();
    p.i_footprint_kb = 4;
    p.n_funcs = 8;
    let w = workload::build_workload(&p, 1);
    let itlb = |entries| ITlbConfig {
        entries,
        assoc: 4,
        ..ITlbConfig::default_config()
    };
    // 1 KB to 64 KB L1 (8 to 512 two-way sets), 64- to 4096-entry i-TLB;
    // the 1 MB L2 and the D-cache are the same in every engine.
    let counts: Vec<(usize, u64)> = [(1 << 10, 64), (64 << 10, 4096)]
        .into_iter()
        .map(|(l1, tlb)| {
            let cfg = SimConfig::preset(ConfigPreset::ClgpL0Pb16, TechNode::T045, l1)
                .with_itlb(Some(itlb(tlb)));
            (l1, count(|| drop(Engine::new(cfg, &w, 7))).0)
        })
        .collect();
    println!("Engine::new allocations by L1 size: {counts:?}");
    assert_eq!(
        counts[0].1, counts[1].1,
        "Engine::new allocates per cache set: {counts:?}"
    );
    assert!(
        counts[0].1 <= ENGINE_BUDGET,
        "Engine::new made {} allocations, over its budget of {ENGINE_BUDGET}",
        counts[0].1
    );
}

/// The most allocations building one workload may make: its tables and
/// the build's scratch vectors, each with a few growth steps.
const BUILD_BUDGET: u64 = 64;

#[test]
fn building_gcc_allocates_per_table_not_per_block() {
    let p = workload::by_name("gcc").unwrap();
    let (n, w) = count(|| workload::build_workload(&p, 42));
    let blocks = w.program.num_blocks();
    println!("building gcc: {n} allocations for {blocks} blocks");
    assert!(
        n <= BUILD_BUDGET,
        "building gcc made {n} allocations for {blocks} blocks, over its budget of \
         {BUILD_BUDGET}"
    );
}

/// The most heap bytes live at once while building gcc at seed 42: the
/// finished workload and the build's scratch.  A static instruction holds
/// only its class and registers, and a memory site 20 bytes (the peak is
/// about 2.73 MB; 3.12 MB with 32-byte sites); when an instruction also
/// stored its pc and direct target, the peak was 4,756,112 bytes.
const GCC_BUILD_PEAK_BYTES: i64 = 3_000_000;

#[test]
fn building_gcc_peaks_below_its_byte_budget() {
    let p = workload::by_name("gcc").unwrap();
    let (peak, w) = peak_bytes(|| workload::build_workload(&p, 42));
    let insts = w.program.num_insts();
    println!("building gcc: peak {peak} live bytes for {insts} instructions");
    assert!(
        peak <= GCC_BUILD_PEAK_BYTES,
        "building gcc peaked at {peak} live bytes, over its budget of {GCC_BUILD_PEAK_BYTES}"
    );
}

/// The most allocations a 100k-instruction measured window may make
/// beyond a 10k one: a queue meeting a new high-water mark late.
const STEADY_STATE_SLACK: u64 = 4;

#[test]
fn a_warm_engine_does_not_allocate_per_instruction() {
    let p = workload::by_name("gcc").unwrap();
    let w = workload::build_workload(&p, 42);
    for (kind, predictor) in [
        (PrefetcherKind::Clgp, PredictorKind::Stream),
        (PrefetcherKind::Mana, PredictorKind::Stream),
        (PrefetcherKind::ProgMap, PredictorKind::Stream),
        (PrefetcherKind::Clgp, PredictorKind::Gshare),
    ] {
        let runs: Vec<(u64, u64)> = [10_000, 100_000]
            .into_iter()
            .map(|measure| {
                let cfg = SimConfig::preset(ConfigPreset::ClgpL0Pb16, TechNode::T045, 4 << 10)
                    .with_prefetcher(kind)
                    .with_itlb(Some(ITlbConfig::default_config()))
                    .with_insts(20_000, measure);
                let src = Box::new(TraceGenerator::new(&w, 42));
                let engine = Engine::with_source(cfg, &w, src, predictor);
                let (n, stats) = count(|| engine.run());
                assert!(stats.committed >= measure);
                (measure, n)
            })
            .collect();
        println!("{kind:?}/{predictor:?} run() allocations by measured instructions: {runs:?}");
        assert!(
            runs[1].1 <= runs[0].1 + STEADY_STATE_SLACK,
            "a longer {kind:?}/{predictor:?} run allocates more: {runs:?} \
             (slack {STEADY_STATE_SLACK})"
        );
    }
}
