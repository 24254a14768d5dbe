//! Micro-benchmarks of the substrate crates' hot paths.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use prestage_bpred::{FetchBlockPredictor, StreamPredictor};
use prestage_cache::{L2Config, L2System, ReqClass, SetAssocCache};
use prestage_cacti::{latency_cycles, CacheGeometry, TechNode};
use prestage_workload::{build, specint2000, TraceGenerator};

fn bench_cacti(c: &mut Criterion) {
    c.bench_function("cacti/latency_sweep", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for shift in 8..=20 {
                let g = CacheGeometry::new(1 << shift, 64, 2, 1);
                acc += latency_cycles(black_box(&g), TechNode::T045);
            }
            acc
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    let mut cache = SetAssocCache::new(32 << 10, 64, 2);
    for i in 0..512u64 {
        cache.fill(i * 64);
    }
    c.bench_function("cache/lookup_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 512;
            black_box(cache.lookup(i * 64))
        })
    });
    c.bench_function("cache/fill_evict", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(cache.fill(i * 64))
        })
    });
}

fn bench_bus(c: &mut Criterion) {
    c.bench_function("bus/submit_tick_drain", |b| {
        b.iter(|| {
            let mut l2 = L2System::new(L2Config::for_node(TechNode::T045));
            for i in 0..16u64 {
                l2.submit(0x1000 + i * 64, ReqClass::Prefetch, i);
            }
            let mut done = 0;
            let mut now = 0;
            while done < 16 {
                done += l2.tick(now).len();
                now += 1;
            }
            now
        })
    });
}

fn bench_predictor(c: &mut Criterion) {
    let p = specint2000().into_iter().find(|p| p.name == "gcc").unwrap();
    let w = build(&p, 42);
    let mut pred = StreamPredictor::paper_default();
    let mut gen = TraceGenerator::new(&w, 7);
    let mut buf = Vec::new();
    // Warm the tables.
    for _ in 0..20_000 {
        let s = gen.next_stream(&mut buf);
        let tok = pred.token(s.start);
        let pr = pred.predict(s.start, &w.program);
        pred.train_with_token(&tok, &s, pr.stream.same_flow(&s));
    }
    c.bench_function("bpred/predict_train", |b| {
        b.iter(|| {
            let s = gen.next_stream(&mut buf);
            let tok = pred.token(s.start);
            let pr = pred.predict(s.start, &w.program);
            pred.train_with_token(&tok, &s, pr.stream.same_flow(&s));
            pr.stream.len
        })
    });
}

fn bench_tracegen(c: &mut Criterion) {
    let p = specint2000().into_iter().find(|p| p.name == "vortex").unwrap();
    let w = build(&p, 42);
    c.bench_function("workload/stream_generation", |b| {
        let mut gen = TraceGenerator::new(&w, 7);
        let mut buf = Vec::new();
        b.iter(|| {
            let s = gen.next_stream(&mut buf);
            black_box(s.len)
        })
    });
}

/// Trace I/O hot paths: the verify-only set-up pass, CRC-verified v2 read
/// throughput, both replay routes a sweep cell can take instead of live
/// generation, and the one-time record cost.
fn bench_trace_io(c: &mut Criterion) {
    use prestage_workload::{record_trace, InstSource, TraceReader, TraceReplayer};
    use std::io::Cursor;

    let p = specint2000().into_iter().find(|p| p.name == "vortex").unwrap();
    let w = build(&p, 42);
    const N: u64 = 64 * 1024;
    let mut bytes = Cursor::new(Vec::new());
    record_trace(&mut bytes, &w, 7, N, 4096).unwrap();
    let bytes = bytes.into_inner();

    // Decode + CRC-verify the whole 64K-inst trace (per-inst cost is the
    // replay-side comparison point for workload/stream_generation).
    c.bench_function("trace/read_64k_insts", |b| {
        b.iter(|| {
            let mut n = 0u64;
            for rec in TraceReader::new(&bytes[..]).unwrap() {
                black_box(rec.unwrap());
                n += 1;
            }
            n
        })
    });

    // The same decode without recomputing chunk CRCs: the difference is
    // the CRC's share.
    c.bench_function("trace/read_trusted_64k_insts", |b| {
        b.iter(|| {
            let mut n = 0u64;
            for rec in TraceReader::trusted(&bytes[..]).unwrap() {
                black_box(rec.unwrap());
                n += 1;
            }
            n
        })
    });

    // The set-up pass for a trace one cell replays: every check, no decode.
    c.bench_function("trace/verify_64k_insts", |b| {
        b.iter(|| TraceReader::new(&bytes[..]).unwrap().verify().unwrap())
    });

    // A single-reader cell's replay path: read + CRC + decode + stream
    // reassembly, as the engine sees it.
    c.bench_function("trace/replay_streams_64k", |b| {
        b.iter(|| {
            let mut replayer =
                TraceReplayer::new(TraceReader::new(&bytes[..]).unwrap(), "bench");
            let mut buf = Vec::new();
            let mut seen = 0u64;
            while seen + 64 < N {
                seen += replayer.next_stream(&mut buf).len as u64;
            }
            seen
        })
    });

    // A shared trace's replay path: its cells share one decoded trace;
    // per-cell cost is the slice scan + bulk copy.
    let decoded = std::sync::Arc::new(
        TraceReader::new(&bytes[..])
            .unwrap()
            .map(|r| r.unwrap())
            .collect::<Vec<_>>(),
    );
    c.bench_function("trace/replay_shared_64k", |b| {
        b.iter(|| {
            let mut replayer = prestage_workload::SharedReplayer::new(decoded.clone(), "bench");
            let mut buf = Vec::new();
            let mut seen = 0u64;
            while seen + 64 < N {
                seen += replayer.next_stream(&mut buf).len as u64;
            }
            seen
        })
    });

    // CRC-32 throughput over 1 MiB (the kernel on CLMUL hosts, the
    // slice-by-8 tables elsewhere), and the tables alone.
    let mib: Vec<u8> = (0..1u32 << 20).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
    c.bench_function("trace/crc32_1mib", |b| {
        b.iter(|| prestage_workload::trace_io::crc32(black_box(&mib)))
    });
    c.bench_function("trace/crc32_table_1mib", |b| {
        b.iter(|| prestage_workload::trace_io::crc32_table(black_box(&mib)))
    });

    // One-time record cost (generation + encode + CRC).
    c.bench_function("trace/record_16k_insts", |b| {
        b.iter(|| {
            let mut out = Cursor::new(Vec::with_capacity(512 << 10));
            record_trace(&mut out, &w, 7, 16 * 1024, 4096).unwrap()
        })
    });
}

criterion_group!(
    benches,
    bench_cacti,
    bench_cache,
    bench_bus,
    bench_predictor,
    bench_tracegen,
    bench_trace_io
);
criterion_main!(benches);
