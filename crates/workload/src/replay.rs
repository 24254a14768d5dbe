//! Replaying recorded traces as instruction streams.
//!
//! The engine consumes the committed path as *streams* (see [`crate::exec`])
//! through one abstraction, [`InstSource`]: either the live
//! [`TraceGenerator`] (generate the dynamic path on the fly, paying branch
//! models, memory models and RNG per instruction in every sweep cell) or a
//! [`TraceReplayer`] over a recorded trace (pay generation once per
//! `(profile, seed)`, then stream the flat records back from disk at
//! constant memory).  These are the sweep's two sources: every replayed
//! cell streams its own file.  A [`SharedReplayer`] serves streams from a
//! trace already decoded into memory; no sweep takes it, and the layer
//! benchmarks drive it to price replay without I/O.
//!
//! Replay is **bit-exact**: a trace stores the flat [`DynInst`] sequence,
//! and stream boundaries are a pure function of it — a stream ends at a
//! taken control transfer (call / return / jump / taken conditional) or
//! after [`MAX_STREAM_INSTS`] sequential instructions, exactly the rule
//! [`TraceGenerator::next_stream`] applies while generating.  The
//! conformance suite (`tests/trace_roundtrip.rs`) holds the two sides to
//! byte-identical `GridResult`s.

use crate::exec::{DynInst, TraceGenerator};
use crate::trace_io::{open_trace, TraceReader};
use prestage_bpred::{StreamDesc, StreamEnd, MAX_STREAM_INSTS};
use prestage_isa::OpClass;
use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::Path;
use std::sync::Arc;

/// Where the engine's committed-path streams come from: the live generator
/// or a disk replay.  `next_stream` never returns an empty stream and may
/// not fail — a replay that runs dry mid-simulation panics loudly (the
/// recording was too short; results from a partial trace would be silently
/// wrong).
pub trait InstSource {
    /// Produce the next stream into `out` (cleared first); returns its
    /// descriptor.
    fn next_stream(&mut self, out: &mut Vec<DynInst>) -> StreamDesc;
}

impl InstSource for TraceGenerator<'_> {
    fn next_stream(&mut self, out: &mut Vec<DynInst>) -> StreamDesc {
        TraceGenerator::next_stream(self, out)
    }
}

/// Why `inst` ends the stream it sits in, if it does — the inverse of the
/// generator's termination rule.
fn stream_end_of(inst: &DynInst) -> Option<StreamEnd> {
    match inst.op {
        OpClass::Call => Some(StreamEnd::Call),
        OpClass::Return => Some(StreamEnd::Return),
        OpClass::Jump => Some(StreamEnd::Taken),
        OpClass::CondBranch if inst.taken => Some(StreamEnd::Taken),
        _ => None,
    }
}

/// Reassembles a trace's flat records into the streams the engine fetches,
/// reading the trace at constant memory: each CRC-checked, validated chunk
/// payload decodes straight into the engine's stream buffer.
#[derive(Debug)]
pub struct TraceReplayer<R: Read> {
    reader: TraceReader<R>,
    /// Where the records come from, for error messages.
    context: String,
    replayed: u64,
}

/// A replayer streaming straight off a trace file.
pub type FileReplayer = TraceReplayer<BufReader<File>>;

impl<R: Read> TraceReplayer<R> {
    pub fn new(reader: TraceReader<R>, context: impl Into<String>) -> Self {
        TraceReplayer {
            reader,
            context: context.into(),
            replayed: 0,
        }
    }

    #[inline]
    fn next_inst(&mut self) -> DynInst {
        let inst = match self.reader.next_buffered() {
            Some(i) => i,
            None => self.next_chunk_inst(),
        };
        self.replayed += 1;
        inst
    }

    /// The first record of the next chunk.
    #[cold]
    fn next_chunk_inst(&mut self) -> DynInst {
        match self.reader.next() {
            Some(Ok(i)) => i,
            Some(Err(e)) => panic!("replaying {}: {e}", self.context),
            None => panic!(
                "trace {} exhausted after {} instructions — the engine needed more \
                 run-ahead than was recorded; re-record a longer trace \
                 (`prestage trace record`)",
                self.context, self.replayed
            ),
        }
    }
}

impl<R: Read> InstSource for TraceReplayer<R> {
    fn next_stream(&mut self, out: &mut Vec<DynInst>) -> StreamDesc {
        out.clear();
        loop {
            // Mirror of the generator: the cut is checked *before* each
            // instruction, so a stream reaching MAX_STREAM_INSTS without a
            // terminator closes as a sequential break.
            if out.len() as u32 == MAX_STREAM_INSTS {
                let last = out.last().expect("MAX_STREAM_INSTS >= 1");
                return StreamDesc {
                    start: out[0].pc,
                    len: out.len() as u32,
                    next: last.next_pc,
                    end: StreamEnd::SequentialBreak,
                };
            }
            let inst = self.next_inst();
            out.push(inst);
            if let Some(end) = stream_end_of(&inst) {
                return StreamDesc {
                    start: out[0].pc,
                    len: out.len() as u32,
                    next: inst.next_pc,
                    end,
                };
            }
        }
    }
}

/// Open `path` for streaming replay.  Each caller gets an independent
/// reader that CRC-checks every chunk as it consumes it, so a sweep cell
/// replaying a trace no other cell reads verifies each byte it uses, at
/// constant memory.
pub fn replay_file(path: &Path) -> io::Result<FileReplayer> {
    let reader = open_trace(path)?;
    Ok(TraceReplayer::new(reader, path.display().to_string()))
}

/// Replayer over an in-memory decoded trace shared through an `Arc`.
/// Streams come straight off the slice — the terminator scan plus one bulk
/// `extend_from_slice` per stream — which makes it the cheapest source per
/// instruction once the decode is paid.  The sweep never takes it (every
/// replayed cell streams its file); the layer benchmarks drive it
/// directly.
#[derive(Debug)]
pub struct SharedReplayer {
    records: Arc<Vec<DynInst>>,
    pos: usize,
    context: String,
}

impl SharedReplayer {
    pub fn new(records: Arc<Vec<DynInst>>, context: impl Into<String>) -> Self {
        SharedReplayer {
            records,
            pos: 0,
            context: context.into(),
        }
    }
}

impl InstSource for SharedReplayer {
    fn next_stream(&mut self, out: &mut Vec<DynInst>) -> StreamDesc {
        out.clear();
        let recs = &self.records[..];
        let start = self.pos;
        let max = MAX_STREAM_INSTS as usize;
        let mut i = start;
        let end;
        // Identical termination rule to the generator and TraceReplayer:
        // the length cut is checked before each instruction.
        loop {
            if i - start == max {
                end = StreamEnd::SequentialBreak;
                break;
            }
            let Some(inst) = recs.get(i) else {
                panic!(
                    "trace {} exhausted after {i} instructions — the engine needed \
                     more run-ahead than was recorded; re-record a longer trace \
                     (`prestage trace record`)",
                    self.context
                );
            };
            i += 1;
            if let Some(e) = stream_end_of(inst) {
                end = e;
                break;
            }
        }
        out.extend_from_slice(&recs[start..i]);
        self.pos = i;
        StreamDesc {
            start: recs[start].pc,
            len: (i - start) as u32,
            next: recs[i - 1].next_pc,
            end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::build;
    use crate::profile::by_name;
    use crate::trace_io::record_trace;
    use std::io::Cursor;

    fn small_workload(name: &str, seed: u64) -> crate::codegen::Workload {
        let mut p = by_name(name).unwrap();
        p.i_footprint_kb = 2;
        p.n_funcs = 6;
        build(&p, seed)
    }

    #[test]
    fn replayed_streams_match_live_generation_exactly() {
        let w = small_workload("gzip", 11);
        let exec_seed = 5;
        let mut bytes = Cursor::new(Vec::new());
        record_trace(&mut bytes, &w, exec_seed, 20_000, 512).unwrap();
        let bytes = bytes.into_inner();

        let mut live = TraceGenerator::new(&w, exec_seed);
        let mut replay = TraceReplayer::new(
            crate::trace_io::TraceReader::new(&bytes[..]).unwrap(),
            "in-memory",
        );
        let (mut lb, mut rb) = (Vec::new(), Vec::new());
        let mut seen = 0u64;
        // Stop well before the recording's tail: the final stream may be
        // cut mid-way by the exact-count recording.
        while seen < 18_000 {
            let ls = InstSource::next_stream(&mut live, &mut lb);
            let rs = replay.next_stream(&mut rb);
            assert_eq!(ls, rs, "descriptors diverged after {seen} insts");
            assert_eq!(lb, rb, "instructions diverged after {seen} insts");
            seen += ls.len as u64;
        }
    }

    #[test]
    fn shared_replayer_matches_the_streaming_replayer_exactly() {
        let w = small_workload("twolf", 7);
        let mut bytes = Cursor::new(Vec::new());
        record_trace(&mut bytes, &w, 2, 15_000, 512).unwrap();
        let bytes = bytes.into_inner();
        let records: Vec<_> = crate::trace_io::TraceReader::new(&bytes[..])
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        let mut shared = SharedReplayer::new(Arc::new(records), "mem");
        let mut streamed = TraceReplayer::new(
            crate::trace_io::TraceReader::new(&bytes[..]).unwrap(),
            "file",
        );
        let mut live = TraceGenerator::new(&w, 2);
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        let mut seen = 0u64;
        while seen < 13_000 {
            let sa = shared.next_stream(&mut a);
            let sb = streamed.next_stream(&mut b);
            let sc = InstSource::next_stream(&mut live, &mut c);
            assert_eq!(sa, sb);
            assert_eq!(sa, sc);
            assert_eq!(a, b);
            assert_eq!(a, c);
            seen += sa.len as u64;
        }
    }

    #[test]
    #[should_panic(expected = "exhausted after")]
    fn exhausted_shared_replay_panics_with_context() {
        let mut shared = SharedReplayer::new(Arc::new(Vec::new()), "empty");
        shared.next_stream(&mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "exhausted after")]
    fn exhausted_replay_panics_with_context() {
        let w = small_workload("mcf", 3);
        let mut bytes = Cursor::new(Vec::new());
        record_trace(&mut bytes, &w, 3, 40, 64).unwrap();
        let bytes = bytes.into_inner();
        let mut replay = TraceReplayer::new(
            crate::trace_io::TraceReader::new(&bytes[..]).unwrap(),
            "tiny",
        );
        let mut buf = Vec::new();
        loop {
            replay.next_stream(&mut buf);
        }
    }
}
