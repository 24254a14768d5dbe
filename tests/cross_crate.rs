//! Cross-crate consistency checks: the substrates must agree with each
//! other (latencies, trace replay, predictor-vs-trace segmentation).

use fetch_prestaging::bpred::{FetchBlockPredictor, StreamPredictor, MAX_STREAM_INSTS};
use fetch_prestaging::cacti::{latency_cycles, CacheGeometry, TechNode};
use fetch_prestaging::core::FrontendConfig;
use prestage_workload::{build, specint2000, trace_io, TraceGenerator};

#[test]
fn frontend_latencies_agree_with_cacti_for_every_sweep_point() {
    for tech in [TechNode::T090, TechNode::T045] {
        for shift in 8..=16 {
            let size = 1usize << shift;
            let cfg = FrontendConfig::base(tech, size);
            let geom = CacheGeometry::new(size, 64, 2, 1);
            assert_eq!(cfg.l1_latency(), latency_cycles(&geom, tech));
        }
    }
}

#[test]
fn trace_streams_respect_the_fetch_block_cap() {
    for p in specint2000().iter().take(4) {
        let w = build(p, 11);
        let mut gen = TraceGenerator::new(&w, 3);
        let mut buf = Vec::new();
        for _ in 0..2_000 {
            let s = gen.next_stream(&mut buf);
            assert!(s.len >= 1 && s.len <= MAX_STREAM_INSTS, "{}", p.name);
            assert_eq!(s.len as usize, buf.len());
        }
    }
}

#[test]
fn trace_roundtrips_through_binary_io() {
    let p = &specint2000()[0];
    let w = build(p, 11);
    let mut gen = TraceGenerator::new(&w, 3);
    let insts = gen.take_insts(25_000);
    let meta = trace_io::TraceMeta {
        profile: p.name.into(),
        workload_seed: 11,
        exec_seed: 3,
    };
    let mut bytes = std::io::Cursor::new(Vec::new());
    let mut writer = trace_io::TraceWriter::new(&mut bytes, meta).unwrap();
    writer.push_all(&insts).unwrap();
    writer.finish().unwrap();
    let back = trace_io::read_trace(&bytes.into_inner()[..]).unwrap();
    assert_eq!(insts, back);
}

#[test]
fn every_trace_pc_is_in_the_dictionary() {
    // The wrong-path machinery depends on the dictionary covering the
    // whole trace.
    for p in specint2000().iter().take(3) {
        let w = build(p, 5);
        let mut gen = TraceGenerator::new(&w, 5);
        for di in gen.take_insts(20_000) {
            let st = w
                .program
                .inst_at(di.pc)
                .unwrap_or_else(|| panic!("{}: unmapped pc {:#x}", p.name, di.pc));
            assert_eq!(st.op, di.op);
            // The (block, idx) fast path agrees with the pc lookup.
            let by_idx = w.program.block(di.block).insts[di.idx as usize];
            assert_eq!(by_idx.pc, di.pc);
        }
    }
}

#[test]
fn predictor_learns_the_trace_it_is_trained_on() {
    // Stream-level accuracy after online training must be far above the
    // static fallback alone for a predictable benchmark.
    let p = specint2000()
        .into_iter()
        .find(|p| p.name == "eon")
        .unwrap();
    let w = build(&p, 42);
    let mut gen = TraceGenerator::new(&w, 7);
    let mut pred = StreamPredictor::paper_default();
    let mut buf = Vec::new();
    let (mut correct, mut total) = (0u64, 0u64);
    let mut insts = 0u64;
    while insts < 400_000 {
        let s = gen.next_stream(&mut buf);
        insts += s.len as u64;
        let tok = pred.token(s.start);
        let pr = pred.predict(s.start, &w.program);
        let ok = pr.stream.same_flow(&s);
        pred.train_with_token(&tok, &s, ok);
        // Skip the cold half for the accuracy measurement.
        if insts > 200_000 {
            total += 1;
            correct += ok as u64;
        }
    }
    let acc = correct as f64 / total as f64;
    assert!(acc > 0.80, "warmed stream accuracy only {acc:.3}");
}

#[test]
fn one_cycle_buffer_sizing_matches_the_node() {
    assert_eq!(FrontendConfig::one_cycle_buffer_lines(TechNode::T090) * 64, 512);
    assert_eq!(FrontendConfig::one_cycle_buffer_lines(TechNode::T045) * 64, 256);
}
