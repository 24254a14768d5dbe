//! The front-end side of the engine's quiescent-cycle skipping: whenever
//! `FrontEnd::next_event` lies past `now`, ticking at `now` may change
//! nothing but the pre-buffer stall counter — by exactly one when it
//! reported a stall — so the engine may jump the clock over that cycle and
//! fold the stalls in.  Checked at every cycle of real fetch traffic, for
//! every mechanism.

use prestage_cache::{ITlbConfig, L2Config, L2System};
use prestage_cacti::TechNode;
use prestage_core::{
    ClgpPrefetcher, Delivery, FdpPrefetcher, FrontEnd, FrontendConfig, InstrPrefetcher,
    ManaPrefetcher, NextLinePrefetcher, NoPrefetcher, PrefetcherKind, ProgMapPrefetcher,
};
use prestage_workload::{build, by_name, TraceGenerator, Workload};

const DECODE_SLOTS: u32 = 16;

/// `format!("{:?}")` with the value of counter `name` blanked out.
fn masked(debug: String, name: &str) -> String {
    let key = format!("{name}: ");
    let Some(at) = debug.find(&key).map(|i| i + key.len()) else {
        return debug;
    };
    let digits = debug[at..].bytes().take_while(u8::is_ascii_digit).count();
    format!("{}_{}", &debug[..at], &debug[at + digits..])
}

fn l2() -> L2System {
    // A small L2 keeps misses to memory frequent and renderings cheap.
    L2System::new(L2Config {
        capacity: 32 << 10,
        ..L2Config::for_node(TechNode::T045)
    })
}

/// Feed `bench`'s committed path into a front-end as fetch blocks, with a
/// decode stage that drains four instructions a cycle but stalls for 150
/// cycles after every 400 (a back-end waiting on memory) and a redirect
/// flush every 40 blocks.  Whenever the front-end reported an event
/// horizon past `now` with no outside event since (a completion, a pushed
/// block, a flush, a change in decode slots), check that the tick only
/// counts the stall it reported.  Returns (idle cycles, idle cycles
/// counting a stall).
fn drive<P: InstrPrefetcher>(cfg: FrontendConfig, w: &Workload, cycles: u64) -> (u64, u64) {
    let mut fe = FrontEnd::<P>::new(cfg);
    let mut l2 = l2();
    let mut src = TraceGenerator::new(w, 7);
    let mut buf = Vec::new();
    let mut out: Vec<Delivery> = Vec::new();
    let (mut seq, mut held, mut drained, mut drain_from) = (0u64, 0u32, 0u64, 0u64);
    let (mut idle, mut stalled_idle, mut last_free) = (0, 0, 0);
    let mut promise = (0, false);
    for now in 0..cycles {
        let done = l2.tick(now);
        for c in &done {
            fe.on_completion(c);
        }
        let free = DECODE_SLOTS - held;
        if !done.is_empty() || free != last_free {
            promise.0 = now;
        }
        last_free = free;
        if now >= promise.0 {
            promise = fe.next_event(now, free);
        }
        out.clear();
        if now < promise.0 {
            let before = masked(format!("{fe:?}"), "pb_alloc_stalls");
            let l2_before = (l2.outstanding(), *l2.stats());
            let stalls = fe.stats().pb_alloc_stalls;
            fe.tick(now, &mut l2, free, &mut out);
            let ctx = format!("{:?} cycle {now}", cfg.prefetcher);
            assert!(out.is_empty(), "{ctx}: delivered on an idle cycle");
            assert_eq!(
                before,
                masked(format!("{fe:?}"), "pb_alloc_stalls"),
                "{ctx}"
            );
            assert_eq!(
                l2_before,
                (l2.outstanding(), *l2.stats()),
                "{ctx}: used the L2"
            );
            assert_eq!(
                fe.stats().pb_alloc_stalls,
                stalls + promise.1 as u64,
                "{ctx}"
            );
            idle += 1;
            stalled_idle += promise.1 as u64;
        } else {
            fe.tick(now, &mut l2, free, &mut out);
        }
        held += out.iter().map(|d| d.count).sum::<u32>();
        if now >= drain_from {
            let n = held.min(4);
            held -= n;
            drained += n as u64;
            if drained >= 400 {
                drained = 0;
                drain_from = now + 150;
            }
        }
        if fe.has_queue_space() {
            if seq % 40 == 39 {
                fe.flush();
                held = 0;
            }
            let s = src.next_stream(&mut buf);
            assert!(fe.push_block(seq, s.start, s.len));
            seq += 1;
            promise.0 = now + 1;
        }
    }
    (idle, stalled_idle)
}

/// Every mechanism, without and with L0 + 16-entry pipelined pre-buffer +
/// i-TLB, on one benchmark.  Returns the idle cycles counting a stall.
fn drive_all(bench: &str, cycles: u64) -> u64 {
    let mut w = by_name(bench).expect("known benchmark");
    w.i_footprint_kb = w.i_footprint_kb.min(64);
    let w = build(&w, 42);
    let mut stalled = 0;
    for kind in PrefetcherKind::all() {
        for rich in [false, true] {
            let mut cfg = FrontendConfig::base(TechNode::T045, 4 << 10);
            cfg.prefetcher = kind;
            cfg.mana_entries = 64;
            cfg.progmap_entries = 64;
            if kind != PrefetcherKind::None {
                cfg.pb_entries = 4;
            }
            if rich {
                cfg.l0_capacity = Some(256);
                cfg.itlb = Some(ITlbConfig::default_config());
                if kind != PrefetcherKind::None {
                    cfg.pb_entries = 16;
                    cfg.pb_pipelined = true;
                }
            }
            let r = match kind {
                PrefetcherKind::None => drive::<NoPrefetcher>(cfg, &w, cycles),
                PrefetcherKind::NextLine => drive::<NextLinePrefetcher>(cfg, &w, cycles),
                PrefetcherKind::Fdp => drive::<FdpPrefetcher>(cfg, &w, cycles),
                PrefetcherKind::Clgp => drive::<ClgpPrefetcher>(cfg, &w, cycles),
                PrefetcherKind::Mana => drive::<ManaPrefetcher>(cfg, &w, cycles),
                PrefetcherKind::ProgMap => drive::<ProgMapPrefetcher>(cfg, &w, cycles),
            };
            assert!(
                r.0 > 100,
                "{kind:?} rich={rich} on {bench}: only {} idle cycles",
                r.0
            );
            stalled += r.1;
        }
    }
    stalled
}

#[test]
fn idle_frontend_ticks_only_count_reported_stalls() {
    for bench in ["crafty", "mcf"] {
        let stalled = drive_all(bench, 3_000);
        assert!(
            stalled > 0,
            "{bench}: no stalled idle cycle exercised the fold"
        );
    }
}

/// Run the front-end and its L2 system over `now`.
fn step(fe: &mut FrontEnd<ClgpPrefetcher>, l2: &mut L2System, now: u64) {
    for c in l2.tick(now) {
        fe.on_completion(&c);
    }
    let mut out = Vec::new();
    fe.tick(now, l2, DECODE_SLOTS, &mut out);
}

#[test]
fn clgp_folded_stalls_equal_stepped_stalls_with_every_entry_pinned() {
    // Two pre-buffer entries and cold caches: the prestage scan allocates
    // (and pins) both within two cycles, then stalls on the third line for
    // the whole memory latency while the fetch unit waits on the first.
    let mut cfg = FrontendConfig::base(TechNode::T045, 4 << 10);
    cfg.prefetcher = PrefetcherKind::Clgp;
    cfg.pb_entries = 2;
    let rig = || {
        let mut fe = FrontEnd::<ClgpPrefetcher>::new(cfg);
        for seq in 0..4 {
            assert!(fe.push_block(seq, 0x10_0000 + seq * 0x1000, 64));
        }
        (fe, l2())
    };
    let (mut stepped, mut stepped_l2) = rig();
    let (mut folded, mut folded_l2) = rig();
    let (mut now, mut skipped) = (0, 0);
    let end = 3_000;
    while now < end {
        let (fe_at, stalled) = folded.next_event(now, DECODE_SLOTS);
        let at = fe_at.min(folded_l2.next_event(now)).min(end);
        if at > now {
            for t in now..at {
                step(&mut stepped, &mut stepped_l2, t);
            }
            if stalled {
                folded.skip_stalled(at - now);
                skipped += at - now;
            }
            now = at;
            assert_eq!(
                format!("{stepped:?}"),
                format!("{folded:?}"),
                "after skipping to {now}"
            );
            assert_eq!(format!("{stepped_l2:?}"), format!("{folded_l2:?}"));
        } else {
            step(&mut stepped, &mut stepped_l2, now);
            step(&mut folded, &mut folded_l2, now);
            now += 1;
        }
    }
    assert!(skipped > 200, "only {skipped} stalled cycles were folded");
    assert_eq!(stepped.stats(), folded.stats());
    assert!(folded.stats().pb_alloc_stalls >= skipped);
}
