//! Trace conformance suite: the properties the trace subsystem ships on.
//!
//! * **Replay fidelity** — for randomized profiles and seeds, a recorded
//!   trace replays into the *identical* stream sequence and the identical
//!   full `GridResult`s (every counter of every cell) as live generation.
//! * **Corruption coverage** — every header byte mutated, every chunk
//!   field mutated, mid-chunk truncation, trailing garbage: all must fail,
//!   and the error must name the offending field, not just "bad data".
//! * **Golden fixture** — `specs/trace_smoke.pstr` re-records
//!   byte-identically from its own declared identity, so any drift in the
//!   format *or* the trace generator is caught at review time.

mod common;

use common::TempDir;
use prestage_sim::{
    grid_output, try_run_spec, ConfigPreset, ExperimentSpec, PrefetcherKind, TraceSource,
};
use prestage_workload::{
    build, by_name, read_trace, record_trace, specint2000, InstSource, TraceGenerator, TraceReader,
    TraceReplayer,
};
use proptest::prelude::*;
use std::io::{BufWriter, Cursor};
use std::path::{Path, PathBuf};

/// A workload small enough to record/replay thousands of times, but with
/// real structure (calls, loops, memory models).
fn mini_workload(profile_idx: usize, wseed: u64) -> prestage_workload::Workload {
    let mut profiles = specint2000();
    let mut p = profiles.remove(profile_idx % profiles.len());
    p.i_footprint_kb = p.i_footprint_kb.min(4);
    p.n_funcs = p.n_funcs.min(8);
    build(&p, wseed)
}

fn record_to_vec(w: &prestage_workload::Workload, exec_seed: u64, n: u64, chunk: u32) -> Vec<u8> {
    let mut out = Cursor::new(Vec::new());
    record_trace(&mut out, w, exec_seed, n, chunk).unwrap();
    out.into_inner()
}

// ---------------------------------------------------------------------------
// Replay fidelity.
// ---------------------------------------------------------------------------

proptest! {
    /// Stream-level fidelity over randomized (profile, workload seed, exec
    /// seed, chunk size): every descriptor and every instruction of every
    /// stream identical between live generation and disk replay.
    #[test]
    fn replayed_streams_are_bit_identical_to_live(seed in 0u64..10_000) {
        let profile_idx = (seed % 12) as usize;
        let wseed = seed.wrapping_mul(0x9E37_79B9).wrapping_add(1);
        let xseed = seed.wrapping_mul(0x85EB_CA6B).wrapping_add(7);
        let chunk = [1u32, 33, 512, 4096][(seed % 4) as usize];
        let w = mini_workload(profile_idx, wseed);
        let bytes = record_to_vec(&w, xseed, 6_000, chunk);

        let mut live = TraceGenerator::new(&w, xseed);
        let mut replay =
            TraceReplayer::new(TraceReader::new(&bytes[..]).unwrap(), "conformance");
        let (mut lb, mut rb) = (Vec::new(), Vec::new());
        let mut seen = 0u64;
        while seen < 5_000 {
            let ls = InstSource::next_stream(&mut live, &mut lb);
            let rs = replay.next_stream(&mut rb);
            prop_assert_eq!(ls, rs);
            prop_assert_eq!(&lb, &rb);
            seen += ls.len as u64;
        }
    }
}

proptest! {
    /// End-to-end fidelity over randomized seeds: a replay-mode spec
    /// produces full `GridResult`s (every stat counter of every cell) and
    /// rendered grid artifacts identical to the live-generation run.
    #[test]
    fn replayed_grids_are_bit_identical_to_live(seed in 0u64..1_000) {
        let names = ["gzip", "mcf", "twolf", "vortex"];
        let bench = names[(seed % 4) as usize];
        let dir = TempDir::new(&format!("grid_{seed}"));
        let live = ExperimentSpec {
            presets: vec![ConfigPreset::Base, ConfigPreset::ClgpL0],
            l1_sizes: vec![2 << 10],
            bench: Some(vec![bench.to_string()]),
            warmup_insts: 1_000,
            measure_insts: 3_000,
            workload_seed: seed.wrapping_mul(31).wrapping_add(5),
            exec_seed: seed.wrapping_mul(17).wrapping_add(3),
            threads: Some(2),
            ..ExperimentSpec::default()
        };
        let replay = ExperimentSpec {
            trace: Some(TraceSource { dir: dir.0.to_string_lossy().into_owned() }),
            ..live.clone()
        };
        for (w, path) in live
            .build_workloads()
            .unwrap()
            .iter()
            .zip(replay.trace_paths().unwrap().unwrap())
        {
            let f = std::fs::File::create(&path).unwrap();
            record_trace(
                BufWriter::new(f),
                w,
                live.exec_seed,
                live.trace_record_insts(),
                2048,
            )
            .unwrap();
        }
        let live_rows = try_run_spec(&live).unwrap();
        let replay_rows = try_run_spec(&replay).unwrap();
        for (lr, rr) in live_rows.iter().flatten().zip(replay_rows.iter().flatten()) {
            prop_assert_eq!(&lr.per_bench, &rr.per_bench);
        }
        prop_assert_eq!(
            grid_output(&live, &live_rows),
            grid_output(&replay, &replay_rows)
        );
    }
}

/// The mechanism axis of replay parity: for every `PrefetcherKind` —
/// including the MANA and program-map mechanisms — a live run and a spec
/// replay in which two cells each stream the same trace file produce
/// bit-identical `GridResult`s, every counter of every cell.  One
/// recording serves all mechanisms: the committed path is
/// mechanism-independent.  Pool widths are covered for every mechanism
/// beside the set-up in `crates/sim/src/spec.rs`.
#[test]
fn every_mechanism_replays_bit_identically_to_live() {
    let dir = TempDir::new("mech");
    let base = ExperimentSpec {
        presets: vec![ConfigPreset::Base, ConfigPreset::ClgpL0],
        l1_sizes: vec![2 << 10],
        bench: Some(vec!["twolf".to_string()]),
        warmup_insts: 1_000,
        measure_insts: 3_000,
        workload_seed: 11,
        exec_seed: 13,
        threads: Some(2),
        ..ExperimentSpec::default()
    };
    let workloads = base.build_workloads().unwrap();
    let replaying = ExperimentSpec {
        trace: Some(TraceSource {
            dir: dir.0.to_string_lossy().into_owned(),
        }),
        ..base.clone()
    };
    let path = replaying.trace_paths().unwrap().unwrap().remove(0);
    let f = std::fs::File::create(&path).unwrap();
    record_trace(
        BufWriter::new(f),
        &workloads[0],
        base.exec_seed,
        base.trace_record_insts(),
        2048,
    )
    .unwrap();

    for kind in PrefetcherKind::all() {
        let live = ExperimentSpec {
            prefetcher: Some(kind),
            ..base.clone()
        };
        let replayed = ExperimentSpec {
            prefetcher: Some(kind),
            ..replaying.clone()
        };
        let live_rows = try_run_spec(&live).unwrap();
        // Spec replay: two cells stream the small trace, each on its own.
        let replayed_rows = try_run_spec(&replayed).unwrap();
        for (lr, rr) in live_rows
            .iter()
            .flatten()
            .zip(replayed_rows.iter().flatten())
        {
            assert_eq!(lr.per_bench, rr.per_bench, "{kind:?}: replay diverged");
        }
        assert_eq!(
            grid_output(&live, &live_rows),
            grid_output(&replayed, &replayed_rows),
            "{kind:?}: replayed artifact bytes diverged"
        );
    }
}

/// Pool-width invariance of replay: at `threads` 1, 2 and 4 the replayed
/// grid equals the live grid through the spec runner, whose parallel
/// set-up verifies these small two-reader traces before each cell streams
/// its own.
#[test]
fn replayed_grids_equal_live_at_every_pool_width() {
    let dir = TempDir::new("widths");
    let live = ExperimentSpec {
        presets: vec![ConfigPreset::Base, ConfigPreset::ClgpL0],
        l1_sizes: vec![2 << 10],
        bench: Some(vec!["gzip".into(), "mcf".into(), "twolf".into()]),
        warmup_insts: 1_000,
        measure_insts: 3_000,
        workload_seed: 17,
        exec_seed: 19,
        threads: Some(1),
        ..ExperimentSpec::default()
    };
    let replay = ExperimentSpec {
        trace: Some(TraceSource {
            dir: dir.0.to_string_lossy().into_owned(),
        }),
        ..live.clone()
    };
    let workloads = live.build_workloads().unwrap();
    let paths = replay.trace_paths().unwrap().unwrap();
    for (w, path) in workloads.iter().zip(&paths) {
        let f = std::fs::File::create(path).unwrap();
        record_trace(
            BufWriter::new(f),
            w,
            live.exec_seed,
            live.trace_record_insts(),
            1024,
        )
        .unwrap();
    }
    let want = grid_output(&live, &try_run_spec(&live).unwrap());
    for threads in [1, 2, 4] {
        let spec = ExperimentSpec {
            threads: Some(threads),
            ..replay.clone()
        };
        let replayed = try_run_spec(&spec).unwrap();
        assert_eq!(
            grid_output(&spec, &replayed),
            want,
            "streamed replay, {threads} threads"
        );
    }
}

// ---------------------------------------------------------------------------
// Corruption coverage.
// ---------------------------------------------------------------------------

/// Tokens an acceptable error message may carry: each names a concrete
/// field or failure site.  "bad data"-grade messages fail the suite.
const FIELD_TOKENS: [&str; 12] = [
    "magic",
    "version",
    "profile",
    "workload_seed",
    "exec_seed",
    "instruction count",
    "chunk size",
    "header CRC",
    "CRC mismatch",
    "truncated",
    "record count",
    "payload",
];

fn assert_names_a_field(err: &std::io::Error, what: &str) {
    let msg = err.to_string();
    assert!(
        FIELD_TOKENS.iter().any(|t| msg.contains(t)),
        "{what}: error does not name a field: {msg:?}"
    );
}

fn fixture_bytes() -> (Vec<u8>, usize) {
    let w = mini_workload(1, 3);
    let bytes = record_to_vec(&w, 9, 700, 256);
    // v2 header length: magic(4) + version(4) + profile_len(2) + profile +
    // seeds(16) + count(8) + chunk(4) + crc(4).
    let hlen = 42 + w.profile.name.len();
    (bytes, hlen)
}

/// Every single header byte, mutated: the reader must refuse the file with
/// a field-naming error.  (Identity fields are covered by the header CRC;
/// structural fields also carry their own named checks.)
#[test]
fn every_mutated_header_byte_is_rejected_by_name() {
    let (bytes, hlen) = fixture_bytes();
    for i in 0..hlen {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        let e =
            read_trace(&bad[..]).expect_err(&format!("header byte {i} mutated yet the trace read"));
        assert_names_a_field(&e, &format!("header byte {i}"));
    }
    // Targeted: the structural prefixes produce their *specific* errors.
    let mut bad = bytes.clone();
    bad[0] = b'Q';
    assert!(read_trace(&bad[..])
        .unwrap_err()
        .to_string()
        .contains("magic"));
    let mut bad = bytes.clone();
    bad[4] = 77;
    assert!(read_trace(&bad[..])
        .unwrap_err()
        .to_string()
        .contains("unsupported trace version 77"));
    // Identity bytes (profile, seeds) land in the CRC net — there is no
    // ground truth to compare them against, so the CRC is the check.
    let mut bad = bytes.clone();
    bad[hlen - 20] ^= 0x01; // inside the count/seed region
    assert!(read_trace(&bad[..])
        .unwrap_err()
        .to_string()
        .contains("header CRC"));
    let mut bad = bytes;
    bad[hlen - 5] ^= 0x10; // inside chunk_insts or count region
    let msg = read_trace(&bad[..]).unwrap_err().to_string();
    assert!(
        msg.contains("header CRC") || msg.contains("chunk size"),
        "{msg}"
    );
}

/// Chunk-level corruption: record counts, payload lengths, payload bytes,
/// CRCs, truncation at every region, trailing bytes.
#[test]
fn chunk_corruption_is_rejected_by_name() {
    let (bytes, hlen) = fixture_bytes();
    // Layout of chunk 0: n_records(4) payload_len(4) payload crc(4).
    let n0 = hlen;
    let plen0 = hlen + 4;
    let payload0 = hlen + 8;
    let c0_plen = u32::from_le_bytes(bytes[plen0..plen0 + 4].try_into().unwrap()) as usize;
    let crc0 = payload0 + c0_plen;

    // Record count above the header's chunk size.
    let mut bad = bytes.clone();
    bad[n0..n0 + 4].copy_from_slice(&4096u32.to_le_bytes());
    let msg = read_trace(&bad[..]).unwrap_err().to_string();
    assert!(msg.contains("chunk 0 claims 4096 records"), "{msg}");

    // Record count lowered: the payload no longer divides into it.
    let mut bad = bytes.clone();
    bad[n0..n0 + 4].copy_from_slice(&255u32.to_le_bytes());
    let msg = read_trace(&bad[..]).unwrap_err().to_string();
    assert!(
        msg.contains("chunk 0") && msg.contains("trailing bytes"),
        "{msg}"
    );

    // Record count above what remains of the header's total: walk to the
    // final chunk (700 records at 256/chunk leaves 188) and inflate it.
    let mut off = hlen;
    loop {
        let n = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        let plen = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap()) as usize;
        if n < 256 {
            // The final, partial chunk.
            let mut bad = bytes.clone();
            bad[off..off + 4].copy_from_slice(&250u32.to_le_bytes());
            let msg = read_trace(&bad[..]).unwrap_err().to_string();
            assert!(
                msg.contains("claims 250 records but only 188 remain"),
                "{msg}"
            );
            break;
        }
        off += 8 + plen + 4;
    }

    // Zero-record chunk.
    let mut bad = bytes.clone();
    bad[n0..n0 + 4].copy_from_slice(&0u32.to_le_bytes());
    let msg = read_trace(&bad[..]).unwrap_err().to_string();
    assert!(msg.contains("chunk 0 claims 0 records"), "{msg}");

    // Impossible payload length for the claimed record count.
    let mut bad = bytes.clone();
    bad[plen0..plen0 + 4].copy_from_slice(&7u32.to_le_bytes());
    let msg = read_trace(&bad[..]).unwrap_err().to_string();
    assert!(msg.contains("chunk 0 payload length 7"), "{msg}");

    // A flipped payload byte: CRC mismatch naming the chunk.
    let mut bad = bytes.clone();
    bad[payload0 + 5] ^= 0x80;
    let msg = read_trace(&bad[..]).unwrap_err().to_string();
    assert!(msg.contains("chunk 0 CRC mismatch"), "{msg}");

    // A flipped CRC byte: same refusal.
    let mut bad = bytes.clone();
    bad[crc0] ^= 0x01;
    let msg = read_trace(&bad[..]).unwrap_err().to_string();
    assert!(msg.contains("chunk 0 CRC mismatch"), "{msg}");

    // Truncation in every chunk region: the frame fields, mid-payload,
    // inside the CRC.
    for cut in [n0 + 2, plen0 + 1, payload0 + c0_plen / 2, crc0 + 2] {
        let bad = &bytes[..cut];
        let e = read_trace(bad).unwrap_err();
        assert!(e.to_string().contains("truncated"), "cut at {cut}: {e}");
        assert_names_a_field(&e, &format!("cut at {cut}"));
    }

    // Trailing garbage after the final chunk.
    let mut bad = bytes.clone();
    bad.push(0);
    let msg = read_trace(&bad[..]).unwrap_err().to_string();
    assert!(msg.contains("trailing data"), "{msg}");
}

/// The unvalidated-`count` regression (ISSUE 4 satellite): a hostile
/// header claiming up to 2^60 records over a body of a few bytes must fail
/// on the missing data immediately, not size a `Vec` from the header.
#[test]
fn hostile_header_counts_cannot_drive_preallocation() {
    // A genuine small trace whose count field is inflated is caught by the
    // header CRC before any chunk is read.
    let (bytes, hlen) = fixture_bytes();
    let count_off = hlen - 16; // count(8) then chunk_insts(4) then crc(4)
    let mut bad = bytes;
    bad[count_off..count_off + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
    let msg = read_trace(&bad[..]).unwrap_err().to_string();
    assert!(msg.contains("header CRC mismatch"), "{msg}");
}

/// Oversized *length fields* presented with internally-consistent framing
/// (CRCs recomputed where the check order would otherwise mask them):
/// each must be refused by its own named bound, never acted on.
#[test]
fn oversized_length_fields_are_rejected_by_name() {
    use prestage_workload::trace_io::crc32;
    let (bytes, hlen) = fixture_bytes();

    // A v2 header whose chunk size exceeds the format cap, CRC *valid* —
    // the bound itself must refuse it, not the checksum.
    let rebuild_header = |chunk_insts: u32| -> Vec<u8> {
        let mut h = bytes[..hlen - 8].to_vec(); // up to count inclusive
        h.extend_from_slice(&chunk_insts.to_le_bytes());
        let crc = crc32(&h);
        h.extend_from_slice(&crc.to_le_bytes());
        h.extend_from_slice(&bytes[hlen..]);
        h
    };
    for huge in [(1u32 << 20) + 1, u32::MAX] {
        let msg = read_trace(&rebuild_header(huge)[..])
            .unwrap_err()
            .to_string();
        assert!(
            msg.contains(&format!("chunk size {huge} outside")),
            "chunk_insts {huge}: {msg}"
        );
    }

    // A profile length beyond the 256-byte cap: refused before any
    // attempt to read (or allocate) that many name bytes.
    let mut hand = Vec::new();
    hand.extend_from_slice(b"PSTR");
    hand.extend_from_slice(&2u32.to_le_bytes());
    hand.extend_from_slice(&300u16.to_le_bytes());
    hand.extend_from_slice(&[b'x'; 64]);
    let msg = read_trace(&hand[..]).unwrap_err().to_string();
    assert!(msg.contains("profile length 300 exceeds"), "{msg}");

    // A chunk payload length of u32::MAX over a real header: the
    // per-record bounds (24-32 bytes each) refuse it before any buffer is
    // sized from it.
    let plen_off = hlen + 4;
    let mut bad = bytes.clone();
    bad[plen_off..plen_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let msg = read_trace(&bad[..]).unwrap_err().to_string();
    assert!(
        msg.contains(&format!("chunk 0 payload length {}", u32::MAX)),
        "{msg}"
    );
}

// ---------------------------------------------------------------------------
// Golden fixture.
// ---------------------------------------------------------------------------

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("specs/trace_smoke.pstr")
}

/// `specs/trace_smoke.pstr` must re-record byte-identically from nothing
/// but its own declared identity (profile name, seeds, count, chunk size).
/// Any drift in the v2 layout, the record codec, the CRC, the profile
/// tables or the trace generator trips this at review time.
/// Regenerate deliberately with
/// `PRESTAGE_REGEN_TRACE_FIXTURE=1 cargo test golden_trace_fixture`.
#[test]
fn golden_trace_fixture_re_records_byte_identically() {
    let path = fixture_path();
    if std::env::var_os("PRESTAGE_REGEN_TRACE_FIXTURE").is_some() {
        let p = by_name("mcf").unwrap();
        let w = build(&p, 42);
        let f = std::fs::File::create(&path).unwrap();
        record_trace(BufWriter::new(f), &w, 42, 2048, 512).unwrap();
    }
    let bytes = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("committed fixture {}: {e}", path.display()));
    let reader = TraceReader::new(&bytes[..]).unwrap();
    let h = reader.header().clone();
    let meta = h.meta.clone();

    // Rebuild the world from the header alone and re-record.
    let p = by_name(&meta.profile)
        .unwrap_or_else(|| panic!("fixture names unknown profile {:?}", meta.profile));
    let w = build(&p, meta.workload_seed);
    let rerecorded = {
        let mut out = Cursor::new(Vec::new());
        record_trace(&mut out, &w, meta.exec_seed, h.count, h.chunk_insts).unwrap();
        out.into_inner()
    };
    assert_eq!(
        rerecorded, bytes,
        "trace_smoke.pstr no longer re-records byte-identically: the v2 format, \
         record codec, or trace generator drifted (if intentional, regenerate \
         with PRESTAGE_REGEN_TRACE_FIXTURE=1 and call out the format change)"
    );

    // The fixture also decodes whole and replays into valid streams.
    let insts = read_trace(&bytes[..]).unwrap();
    assert_eq!(insts.len() as u64, h.count);
    let mut replay = TraceReplayer::new(TraceReader::new(&bytes[..]).unwrap(), "fixture");
    let mut buf = Vec::new();
    let mut seen = 0;
    while seen + 64 < h.count {
        let s = replay.next_stream(&mut buf);
        assert_eq!(s.len as usize, buf.len());
        assert_eq!(s.start, buf[0].pc);
        seen += s.len as u64;
    }
}
