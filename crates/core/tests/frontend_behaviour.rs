//! Behavioural tests of the decoupled front-end: FDP vs CLGP semantics
//! against a live L2 system, exercising the exact mechanisms §3 of the
//! paper describes.

use prestage_cache::{L2Config, L2System};
use prestage_cacti::TechNode;
use prestage_core::{
    ClgpPrefetcher, Delivery, FetchSource, FrontEnd, FrontendConfig, InstrPrefetcher,
    NextLinePrefetcher, NoPrefetcher, PrefetcherKind,
};
use prestage_core::FdpPrefetcher;

fn l2(tech: TechNode) -> L2System {
    L2System::new(L2Config::for_node(tech))
}

/// Drive front-end + L2 for `cycles`, collecting deliveries.
fn run<P: InstrPrefetcher>(
    fe: &mut FrontEnd<P>,
    l2: &mut L2System,
    from: u64,
    cycles: u64,
    out: &mut Vec<Delivery>,
) {
    for now in from..from + cycles {
        for c in l2.tick(now) {
            fe.on_completion(&c);
        }
        fe.tick(now, l2, 16, out);
    }
}

fn base_cfg(tech: TechNode, l1_kb: usize, pf: PrefetcherKind) -> FrontendConfig {
    let mut cfg = FrontendConfig::base(tech, l1_kb << 10);
    cfg.prefetcher = pf;
    if pf != PrefetcherKind::None {
        cfg.pb_entries = 4;
    }
    cfg
}

#[test]
fn cold_fetch_misses_to_memory_then_hits_l1() {
    let mut fe = FrontEnd::<NoPrefetcher>::new(base_cfg(TechNode::T045, 8, PrefetcherKind::None));
    let mut l2 = l2(TechNode::T045);
    let mut out = Vec::new();

    assert!(fe.push_block(1, 0x1000, 8));
    run(&mut fe, &mut l2, 0, 300, &mut out);
    assert!(!out.is_empty());
    assert_eq!(out[0].source, FetchSource::Mem);
    let total: u32 = out.iter().map(|d| d.count).sum();
    assert_eq!(total, 8);
    // Completion well after the 24 (L2) + 200 (mem) latency.
    assert!(out[0].cycle >= 224, "cycle {}", out[0].cycle);
    assert!(out.last().unwrap().completes_block);

    // Same line again: now an L1 hit with the Table 3 latency (4 cycles).
    out.clear();
    fe.push_block(2, 0x1000, 8);
    run(&mut fe, &mut l2, 300, 40, &mut out);
    assert_eq!(out[0].source, FetchSource::L1);
    assert!(out[0].cycle - 300 <= 8, "late L1 hit: {}", out[0].cycle);
}

#[test]
fn deliveries_respect_fetch_width() {
    let mut fe = FrontEnd::<NoPrefetcher>::new(base_cfg(TechNode::T045, 8, PrefetcherKind::None));
    let mut l2 = l2(TechNode::T045);
    let mut out = Vec::new();
    // 16 instructions on one line.
    fe.push_block(1, 0x2000, 16);
    run(&mut fe, &mut l2, 0, 400, &mut out);
    assert!(out.iter().all(|d| d.count <= 4));
    let total: u32 = out.iter().map(|d| d.count).sum();
    assert_eq!(total, 16);
    // Consecutive deliveries of the same line on consecutive cycles.
    let cycles: Vec<u64> = out.iter().map(|d| d.cycle).collect();
    for w in cycles.windows(2) {
        assert_eq!(w[1], w[0] + 1);
    }
}

#[test]
fn clgp_prestages_ahead_and_serves_from_buffer() {
    let tech = TechNode::T045;
    let mut fe = FrontEnd::<ClgpPrefetcher>::new(base_cfg(tech, 8, PrefetcherKind::Clgp));
    let mut l2 = l2(tech);
    let mut out = Vec::new();

    // Warm the L2 with the whole region so prefetches are L2 hits.
    for line in 0..32u64 {
        l2.warm_fill(0x8000 + line * 64);
    }
    // First block fetches cold (demand), subsequent blocks should be
    // prestaged by the run-ahead before the fetch unit reaches them.
    for b in 0..8u64 {
        assert!(fe.push_block(b, 0x8000 + b * 256, 16));
    }
    run(&mut fe, &mut l2, 0, 600, &mut out);
    let pb_lines = out
        .iter()
        .filter(|d| d.source == FetchSource::PreBuffer)
        .count();
    assert!(pb_lines > 0, "no prestage-buffer fetches at all");
    // Later blocks must be served from the prestage buffer.
    let late: Vec<_> = out.iter().filter(|d| d.block_seq >= 4).collect();
    assert!(
        late.iter()
            .filter(|d| d.source == FetchSource::PreBuffer)
            .count() as f64
            >= 0.5 * late.len() as f64,
        "run-ahead prestaging ineffective: {:?}",
        late.iter().map(|d| d.source).collect::<Vec<_>>()
    );
}

#[test]
fn clgp_does_not_migrate_lines_into_l1() {
    let tech = TechNode::T045;
    let mut fe = FrontEnd::<ClgpPrefetcher>::new(base_cfg(tech, 8, PrefetcherKind::Clgp));
    let mut l2 = l2(tech);
    let mut out = Vec::new();
    for i in 0..8u64 {
        l2.warm_fill(0x8000 + i * 64);
    }
    // Several blocks: the head is fetched on demand, the rest prestage.
    for b in 0..4u64 {
        fe.push_block(b, 0x8000 + b * 64, 16);
    }
    run(&mut fe, &mut l2, 0, 600, &mut out);
    let pb_lines: Vec<_> = out
        .iter()
        .filter(|d| d.source == FetchSource::PreBuffer)
        .map(|d| d.first_pc & !63)
        .collect();
    assert!(!pb_lines.is_empty(), "expected prestage-buffer fetches");
    // §3.2.3: "it is not transferred to the first level I-cache".
    for line in pb_lines {
        assert!(
            !fe.l1().contains(line),
            "CLGP must not replicate prestage line {line:#x} into the L1"
        );
    }
}

#[test]
fn fdp_migrates_used_lines_into_l1() {
    let tech = TechNode::T045;
    let mut fe = FrontEnd::<FdpPrefetcher>::new(base_cfg(tech, 8, PrefetcherKind::Fdp));
    let mut l2 = l2(tech);
    let mut out = Vec::new();
    for i in 0..8u64 {
        l2.warm_fill(0x8000 + i * 64);
    }
    for b in 0..4u64 {
        fe.push_block(b, 0x8000 + b * 64, 16);
    }
    run(&mut fe, &mut l2, 0, 600, &mut out);
    let pb_lines: Vec<_> = out
        .iter()
        .filter(|d| d.source == FetchSource::PreBuffer)
        .map(|d| d.first_pc & !63)
        .collect();
    assert!(!pb_lines.is_empty(), "expected prefetch-buffer fetches");
    // §3.1: "when a line from the prefetch buffer is used by the fetch
    // unit, it is transferred to the I-cache".
    for line in pb_lines {
        assert!(
            fe.l1().contains(line),
            "FDP must move used prefetch-buffer line {line:#x} into the L1"
        );
    }
}

#[test]
fn fdp_filters_lines_already_in_l1() {
    let tech = TechNode::T045;
    let mut fe = FrontEnd::<FdpPrefetcher>::new(base_cfg(tech, 8, PrefetcherKind::Fdp));
    let mut l2 = l2(tech);
    let mut out = Vec::new();

    // Fetch a block cold so its lines land in the L1.
    fe.push_block(1, 0x4000, 8);
    run(&mut fe, &mut l2, 0, 300, &mut out);
    assert!(fe.l1().contains(0x4000));
    // Re-queue the block twice: the fetch unit takes the first copy (an
    // L1 hit), so the prefetch scan reaches the second and the probe
    // filter must reject it.
    let issued_before = fe.stats().prefetches_issued;
    fe.push_block(2, 0x4000, 8);
    fe.push_block(3, 0x4000, 8);
    run(&mut fe, &mut l2, 300, 50, &mut out);
    assert_eq!(
        fe.stats().prefetches_issued,
        issued_before,
        "filtered line was prefetched anyway"
    );
    assert!(fe.stats().filtered > 0);
}

#[test]
fn clgp_prestages_even_l1_resident_lines() {
    // The opposite of the FDP test: CLGP has no filtering — an L1-resident
    // line is *copied* into the prestage buffer to dodge the multi-cycle
    // hit (§3.2.3), showing up as an il1 prefetch source (Figure 8).
    let tech = TechNode::T045;
    let mut fe = FrontEnd::<ClgpPrefetcher>::new(base_cfg(tech, 8, PrefetcherKind::Clgp));
    let mut l2 = l2(tech);
    let mut out = Vec::new();

    fe.push_block(1, 0x4000, 8);
    run(&mut fe, &mut l2, 0, 300, &mut out);
    assert!(fe.l1().contains(0x4000));
    out.clear();
    // Two copies: the fetch unit takes the first (L1 hit) while the
    // prestager copies the line for the second.
    fe.push_block(2, 0x4000, 8);
    fe.push_block(3, 0x4000, 8);
    run(&mut fe, &mut l2, 300, 60, &mut out);
    assert!(fe.stats().prefetch_from_l1 > 0, "no L1->PB copy happened");
    // And a fetch is served by the prestage buffer at one cycle.
    assert!(out.iter().any(|d| d.source == FetchSource::PreBuffer));
}

#[test]
fn clgp_consumers_counter_pins_shared_lines() {
    let tech = TechNode::T045;
    let mut cfg = base_cfg(tech, 8, PrefetcherKind::Clgp);
    cfg.pb_entries = 2; // tiny buffer: pinning matters
    let mut fe = FrontEnd::<ClgpPrefetcher>::new(cfg);
    let mut l2 = l2(tech);
    let mut out = Vec::new();
    l2.warm_fill(0x8000);
    l2.warm_fill(0x8040);

    // Three blocks all starting on the same line 0x8000.
    fe.push_block(1, 0x8000, 4);
    fe.push_block(2, 0x8000, 4);
    fe.push_block(3, 0x8000, 4);
    run(&mut fe, &mut l2, 0, 400, &mut out);
    assert!(fe.stats().consumer_bumps >= 1, "consumers never bumped");
    // Only one prefetch was needed for the shared line.
    assert_eq!(fe.stats().prefetches_issued, 1);
    // All three blocks delivered, the last two from the pinned entry.
    let blocks: std::collections::HashSet<_> = out.iter().map(|d| d.block_seq).collect();
    assert_eq!(blocks.len(), 3);
    let pb_count = out
        .iter()
        .filter(|d| d.source == FetchSource::PreBuffer)
        .count();
    assert!(pb_count >= 2);
}

#[test]
fn flush_clears_queue_and_resets_counters() {
    let tech = TechNode::T045;
    let mut fe = FrontEnd::<ClgpPrefetcher>::new(base_cfg(tech, 8, PrefetcherKind::Clgp));
    let mut l2 = l2(tech);
    let mut out = Vec::new();
    l2.warm_fill(0x8000);

    for b in 0..8u64 {
        fe.push_block(b, 0x8000 + b * 64, 16);
    }
    run(&mut fe, &mut l2, 0, 30, &mut out);
    fe.flush();
    assert!(fe.queue().is_empty());
    assert!(fe.has_queue_space());
    assert_eq!(fe.stats().flushes, 1);
    // After a flush the front-end accepts and serves a new (correct-path)
    // block normally.
    out.clear();
    fe.push_block(100, 0x8000, 4);
    run(&mut fe, &mut l2, 30, 300, &mut out);
    assert_eq!(out.iter().map(|d| d.count).sum::<u32>(), 4);
}

#[test]
fn pipelined_l1_streams_lines_back_to_back() {
    let tech = TechNode::T045;
    // 64KB L1 at 0.045um: 5-cycle latency.
    let mut plain = FrontendConfig::base(tech, 64 << 10);
    plain.max_inflight = 4;
    let mut piped = plain;
    piped.l1_pipelined = true;

    let run_frontend = |cfg: FrontendConfig| -> u64 {
        let mut fe = FrontEnd::<NoPrefetcher>::new(cfg);
        let mut l2sys = l2(tech);
        let mut out = Vec::new();
        // Warm the L1 with 8 consecutive lines.
        for i in 0..8u64 {
            fe.l1().fill(0x4000 + i * 64);
        }
        for b in 0..8u64 {
            fe.push_block(b, 0x4000 + b * 64, 16);
        }
        run(&mut fe, &mut l2sys, 0, 500, &mut out);
        assert_eq!(out.iter().map(|d| d.count).sum::<u32>(), 128);
        out.last().unwrap().cycle
    };
    let t_plain = run_frontend(plain);
    let t_piped = run_frontend(piped);
    assert!(
        t_piped < t_plain,
        "pipelined L1 should finish sooner: {t_piped} vs {t_plain}"
    );
}

#[test]
fn l0_serves_one_cycle_after_demand_fill() {
    let tech = TechNode::T045;
    let mut cfg = FrontendConfig::base(tech, 32 << 10);
    cfg.l0_capacity = Some(256);
    let mut fe = FrontEnd::<NoPrefetcher>::new(cfg);
    let mut l2sys = l2(tech);
    let mut out = Vec::new();

    fe.push_block(1, 0x5000, 4);
    run(&mut fe, &mut l2sys, 0, 300, &mut out);
    assert_eq!(out[0].source, FetchSource::Mem);
    // The demand fill populated the L0: next fetch is one cycle.
    out.clear();
    fe.push_block(2, 0x5000, 4);
    run(&mut fe, &mut l2sys, 300, 20, &mut out);
    assert_eq!(out[0].source, FetchSource::L0);
    assert!(out[0].cycle <= 302);
}

#[test]
fn queue_capacity_is_eight_blocks() {
    let mut fe = FrontEnd::<ClgpPrefetcher>::new(base_cfg(TechNode::T090, 4, PrefetcherKind::Clgp));
    for b in 0..8u64 {
        assert!(fe.push_block(b, 0x1000 + b * 0x100, 16));
    }
    assert!(!fe.has_queue_space());
    assert!(!fe.push_block(99, 0x9000, 4));
    assert_eq!(fe.stats().blocks_rejected, 1);
}

#[test]
fn next_line_prefetcher_covers_sequential_streams() {
    // The related-work baseline: sequential code behind a demand fetch is
    // covered by next-N-line prefetching.
    let tech = TechNode::T045;
    let mut cfg = FrontendConfig::base(tech, 8 << 10);
    cfg.prefetcher = PrefetcherKind::NextLine;
    cfg.pb_entries = 4;
    cfg.nlp_degree = 2;
    let mut fe = FrontEnd::<NextLinePrefetcher>::new(cfg);
    let mut l2sys = l2(tech);
    for i in 0..16u64 {
        l2sys.warm_fill(0xA000 + i * 64);
    }
    let mut out = Vec::new();
    // Sequential blocks, line after line.
    for b in 0..8u64 {
        fe.push_block(b, 0xA000 + b * 64, 16);
    }
    run(&mut fe, &mut l2sys, 0, 800, &mut out);
    assert!(fe.stats().prefetches_issued > 0, "NLP issued nothing");
    let pb = out
        .iter()
        .filter(|d| d.source == FetchSource::PreBuffer)
        .count();
    assert!(pb >= 3, "sequential prefetches unused: {pb}");
}

#[test]
fn next_line_prefetcher_filters_resident_lines() {
    let tech = TechNode::T045;
    let mut cfg = FrontendConfig::base(tech, 8 << 10);
    cfg.prefetcher = PrefetcherKind::NextLine;
    cfg.pb_entries = 4;
    let mut fe = FrontEnd::<NextLinePrefetcher>::new(cfg);
    let mut l2sys = l2(tech);
    // Everything already in the L1: nothing should be prefetched.
    for i in 0..8u64 {
        fe.l1().fill(0xB000 + i * 64);
    }
    let mut out = Vec::new();
    for b in 0..4u64 {
        fe.push_block(b, 0xB000 + b * 64, 16);
    }
    run(&mut fe, &mut l2sys, 0, 300, &mut out);
    assert_eq!(fe.stats().prefetches_issued, 0);
    assert!(fe.stats().filtered > 0);
}

#[test]
fn ablated_clgp_filter_behaves_like_fdp_for_l1_lines() {
    let tech = TechNode::T045;
    let mut cfg = base_cfg(tech, 8, PrefetcherKind::Clgp);
    cfg.ablate_filter = true;
    let mut fe = FrontEnd::<ClgpPrefetcher>::new(cfg);
    let mut l2sys = l2(tech);
    let mut out = Vec::new();
    fe.push_block(1, 0x4000, 8);
    run(&mut fe, &mut l2sys, 0, 300, &mut out);
    assert!(fe.l1().contains(0x4000));
    out.clear();
    fe.push_block(2, 0x4000, 8);
    fe.push_block(3, 0x4000, 8);
    run(&mut fe, &mut l2sys, 300, 60, &mut out);
    // With the filter ablation, no L1 copy happens and the fetches pay the
    // multi-cycle L1 (contrast with clgp_prestages_even_l1_resident_lines).
    assert_eq!(fe.stats().prefetch_from_l1, fe.stats().filtered);
    assert!(out.iter().any(|d| d.source == FetchSource::L1));
}

#[test]
fn ablated_free_on_use_clgp_loses_reuse() {
    let tech = TechNode::T045;
    let mut keep = base_cfg(tech, 8, PrefetcherKind::Clgp);
    keep.pb_entries = 2;
    let mut drop = keep;
    drop.ablate_free_on_use = true;

    let run_frontend = |cfg: FrontendConfig| {
        let mut fe = FrontEnd::<ClgpPrefetcher>::new(cfg);
        let mut l2sys = l2(tech);
        l2sys.warm_fill(0x8000);
        let mut out = Vec::new();
        // The same line requested by many blocks: the counter keeps it.
        for b in 0..6u64 {
            fe.push_block(b, 0x8000, 8);
        }
        run(&mut fe, &mut l2sys, 0, 500, &mut out);
        out.iter()
            .filter(|d| d.source == FetchSource::PreBuffer)
            .count()
    };
    let with_counter = run_frontend(keep);
    let without = run_frontend(drop);
    assert!(
        with_counter >= without,
        "counter should not reduce prestage hits: {with_counter} vs {without}"
    );
}
