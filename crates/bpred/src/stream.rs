//! Instruction streams: the fetch entity predicted by the front-end.

use prestage_isa::{Addr, Program, INST_BYTES};

/// Maximum instructions in one stream / fetch block.  Streams longer than
/// this are split by the segmentation logic (a "sequential break"), bounding
/// FTQ entry payloads and predictor length fields.
pub const MAX_STREAM_INSTS: u32 = 64;

/// Why a stream ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum StreamEnd {
    /// Taken conditional branch or unconditional jump.
    #[default]
    Taken,
    /// Call: `next` is the callee; the link address goes on the RAS.
    Call,
    /// Return: `next` comes from the RAS.
    Return,
    /// No taken CTI within [`MAX_STREAM_INSTS`]: falls through sequentially.
    SequentialBreak,
}

/// A dynamic stream: `len` sequential instructions from `start`, continuing
/// at `next`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamDesc {
    pub start: Addr,
    /// Number of instructions, `1..=MAX_STREAM_INSTS`.
    pub len: u32,
    /// Predicted/actual address of the next stream start.
    pub next: Addr,
    pub end: StreamEnd,
}

impl StreamDesc {
    /// PC one past the last instruction of the stream.
    pub fn end_pc(&self) -> Addr {
        self.start + self.len as u64 * INST_BYTES
    }

    /// Two descriptors agree as *fetch directives* (same instructions, same
    /// continuation).
    pub fn same_flow(&self, other: &StreamDesc) -> bool {
        self.start == other.start && self.len == other.len && self.next == other.next
    }
}

/// A prediction emitted by a fetch-block predictor: the cascaded
/// [`StreamPredictor`](crate::StreamPredictor) or the
/// [`GsharePredictor`](crate::GsharePredictor) baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamPrediction {
    pub stream: StreamDesc,
    /// True when a predictor table supplied the stream (as opposed to the
    /// static fall-back walk).
    pub table_hit: bool,
    /// True when the history-indexed second-level table supplied it.
    pub from_l2: bool,
}

/// Walk the basic-block dictionary from `start` assuming every conditional
/// branch falls through, until the first unconditional transfer or the
/// length cap: the static fall-back prediction used on table misses.
///
/// One search finds the block holding `start`; the walk then steps
/// through its instructions and on into the next block while that block
/// starts exactly where the previous one ends.  A gap closes the stream
/// as a sequential break at the first unmapped PC.
///
/// Returns `None` if `start` is not a mapped instruction.
pub fn static_fallback_walk(start: Addr, prog: &Program) -> Option<StreamDesc> {
    use prestage_isa::{OpClass, Terminator};
    let blocks = prog.blocks();
    let first = prog.block_at(start)?;
    let mut bi = first.id.0 as usize;
    let mut idx = ((start - first.start) / INST_BYTES) as usize;
    let mut pc = start;
    let mut len = 0u32;
    while len < MAX_STREAM_INSTS {
        let block = &blocks[bi];
        let Some(inst) = block.insts.get(idx) else {
            // Off the end of this block: carry on into the next one only
            // if it starts right here; otherwise the image has a gap.
            match blocks.get(bi + 1) {
                Some(next) if next.start == pc => {
                    bi += 1;
                    idx = 0;
                    continue;
                }
                _ => {
                    return Some(StreamDesc {
                        start,
                        len,
                        next: pc,
                        end: StreamEnd::SequentialBreak,
                    })
                }
            }
        };
        len += 1;
        // `BasicBlock::validate` guarantees a CTI is its block's final
        // instruction and matches the block's terminator.
        match (inst.op, block.term) {
            (OpClass::Jump, Terminator::Jump { target }) => {
                return Some(StreamDesc {
                    start,
                    len,
                    next: target,
                    end: StreamEnd::Taken,
                })
            }
            (OpClass::Call, Terminator::Call { target, .. }) => {
                return Some(StreamDesc {
                    start,
                    len,
                    next: target,
                    end: StreamEnd::Call,
                })
            }
            (OpClass::Return, _) => {
                return Some(StreamDesc {
                    start,
                    len,
                    next: 0, // filled from the RAS by the caller
                    end: StreamEnd::Return,
                });
            }
            // Conditional branches predicted not-taken in the fall-back.
            _ => {
                pc += INST_BYTES;
                idx += 1;
            }
        }
    }
    Some(StreamDesc {
        start,
        len,
        next: pc,
        end: StreamEnd::SequentialBreak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestage_isa::{straightline_block, ProgramBuilder, Terminator};

    fn program() -> Program {
        let mut pb = ProgramBuilder::new();
        // 0x1000: 4 ALU + cond branch (taken -> 0x2000)
        pb.push(straightline_block(
            0x1000,
            4,
            Terminator::CondBranch {
                taken: 0x2000,
                not_taken: 0x1014,
            },
        ));
        // 0x1014: 2 ALU + jump -> 0x2000
        pb.push(straightline_block(
            0x1014,
            2,
            Terminator::Jump { target: 0x2000 },
        ));
        // 0x2000: 3 ALU + call -> 0x3000
        pb.push(straightline_block(
            0x2000,
            3,
            Terminator::Call {
                target: 0x3000,
                link: 0x2010,
            },
        ));
        // 0x2010: 1 ALU + return
        pb.push(straightline_block(0x2010, 1, Terminator::Return));
        // 0x3000: return
        pb.push(straightline_block(0x3000, 0, Terminator::Return));
        pb.finish().unwrap()
    }

    #[test]
    fn stream_geometry() {
        let s = StreamDesc {
            start: 0x1000,
            len: 5,
            next: 0x2000,
            end: StreamEnd::Taken,
        };
        assert_eq!(s.end_pc(), 0x1014);
        assert!(s.same_flow(&s));
    }

    #[test]
    fn fallback_walks_through_not_taken_branches() {
        let p = program();
        // From 0x1000: cond branch assumed not-taken, continues through
        // 0x1014 block, ends at the jump.
        let s = static_fallback_walk(0x1000, &p).unwrap();
        assert_eq!(s.start, 0x1000);
        assert_eq!(s.len, 8); // 4 ALU + branch + 2 ALU + jump
        assert_eq!(s.next, 0x2000);
        assert_eq!(s.end, StreamEnd::Taken);
    }

    #[test]
    fn fallback_stops_at_call_and_return() {
        let p = program();
        let s = static_fallback_walk(0x2000, &p).unwrap();
        assert_eq!(s.end, StreamEnd::Call);
        assert_eq!(s.next, 0x3000);
        assert_eq!(s.len, 4);

        let r = static_fallback_walk(0x3000, &p).unwrap();
        assert_eq!(r.end, StreamEnd::Return);
        assert_eq!(r.len, 1);
    }

    #[test]
    fn fallback_unmapped_start_is_none() {
        let p = program();
        assert!(static_fallback_walk(0x9999_0000, &p).is_none());
    }

    #[test]
    fn fallback_crosses_fallthrough_blocks_up_to_the_cap() {
        let mut pb = ProgramBuilder::new();
        pb.push(straightline_block(
            0x4000,
            40,
            Terminator::FallThrough { next: 0x40a0 },
        ));
        pb.push(straightline_block(
            0x40a0,
            40,
            Terminator::FallThrough { next: 0x4140 },
        ));
        pb.push(straightline_block(0x4140, 0, Terminator::Return));
        let p = pb.finish().unwrap();
        // From the top: the cap cuts the walk inside the second block.
        let s = static_fallback_walk(0x4000, &p).unwrap();
        assert_eq!(
            (s.len, s.next, s.end),
            (64, 0x4100, StreamEnd::SequentialBreak)
        );
        // From late in the first block: two boundaries, then the return.
        let s = static_fallback_walk(0x4000 + 30 * 4, &p).unwrap();
        assert_eq!((s.len, s.end), (10 + 40 + 1, StreamEnd::Return));
    }

    /// Reference walk: one dictionary search per instruction, ending at
    /// the first unmapped PC.
    fn reference_walk(start: Addr, prog: &Program) -> Option<StreamDesc> {
        use prestage_isa::OpClass;
        let mut pc = start;
        let mut len = 0u32;
        while len < MAX_STREAM_INSTS {
            let Some((block, inst)) = prog.block_at(pc).and_then(|b| Some((b, b.inst_at(pc)?)))
            else {
                return (len > 0).then_some(StreamDesc {
                    start,
                    len,
                    next: pc,
                    end: StreamEnd::SequentialBreak,
                });
            };
            len += 1;
            let end = match inst.op {
                OpClass::Jump => StreamEnd::Taken,
                OpClass::Call => StreamEnd::Call,
                OpClass::Return => StreamEnd::Return,
                _ => {
                    pc += INST_BYTES;
                    continue;
                }
            };
            let next = block.term.direct_target().unwrap_or(0);
            return Some(StreamDesc {
                start,
                len,
                next,
                end,
            });
        }
        Some(StreamDesc {
            start,
            len,
            next: pc,
            end: StreamEnd::SequentialBreak,
        })
    }

    #[test]
    fn fallback_matches_the_per_instruction_walk_from_every_pc() {
        // A finished program maps every fall-through successor, so the
        // walk can only leave the image through the cap or a CTI; every
        // start (mapped, unmapped, misaligned) must still agree with the
        // instruction-at-a-time reference.
        let mut chain = ProgramBuilder::new();
        chain.push(straightline_block(
            0x4000,
            40,
            Terminator::FallThrough { next: 0x40a0 },
        ));
        chain.push(straightline_block(
            0x40a0,
            40,
            Terminator::FallThrough { next: 0x4140 },
        ));
        chain.push(straightline_block(0x4140, 0, Terminator::Return));
        for p in [program(), chain.finish().unwrap()] {
            let lo = p.blocks()[0].start - 8;
            let hi = p.blocks().last().unwrap().end() + 8;
            for pc in (lo..hi).step_by(2) {
                assert_eq!(
                    static_fallback_walk(pc, &p),
                    reference_walk(pc, &p),
                    "start {pc:#x}"
                );
            }
        }
    }

    #[test]
    fn fallback_mid_block_start_works() {
        let p = program();
        // Starting in the middle of the 0x1000 block (e.g. branch target).
        let s = static_fallback_walk(0x1008, &p).unwrap();
        assert_eq!(s.start, 0x1008);
        assert_eq!(s.len, 6);
        assert_eq!(s.next, 0x2000);
    }
}
