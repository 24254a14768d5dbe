//! Gshare-over-dictionary fetch-block predictor.
//!
//! A classic gshare direction predictor (XOR of PC and global history into a
//! 2-bit counter table) that builds streams by walking the basic-block
//! dictionary, predicting each conditional branch as it goes.  It exists for
//! the ablation benches: the paper (and \[14\]) argue that decoupled
//! prefetching quality tracks predictor quality, so swapping the stream
//! predictor for gshare quantifies that sensitivity without touching the
//! front-end.

use crate::ras::ReturnAddressStack;
use crate::stream::{StreamDesc, StreamEnd, StreamPrediction, MAX_STREAM_INSTS};
use prestage_isa::{Addr, OpClass, Program, Terminator, INST_BYTES};

/// Gshare + RAS, producing stream predictions by dictionary walk.
#[derive(Debug, Clone)]
pub struct GsharePredictor {
    /// 2-bit saturating counters.
    pht: Vec<u8>,
    mask: usize,
    ghist: u64,
    ras: ReturnAddressStack,
    /// History and RAS as of the last [`checkpoint`](Self::checkpoint).
    saved: (u64, ReturnAddressStack),
}

impl GsharePredictor {
    /// `pht_entries` must be a power of two (default configuration: 16K).
    pub fn new(pht_entries: usize) -> Self {
        assert!(pht_entries.is_power_of_two());
        GsharePredictor {
            pht: vec![1; pht_entries], // weakly not-taken
            mask: pht_entries - 1,
            ghist: 0,
            ras: ReturnAddressStack::default(),
            saved: (0, ReturnAddressStack::default()),
        }
    }

    pub fn default_16k() -> Self {
        Self::new(16 << 10)
    }

    #[inline]
    fn index(&self, pc: Addr, hist: u64) -> usize {
        (((pc >> 2) ^ hist) as usize) & self.mask
    }

    fn predict_dir(&self, pc: Addr, hist: u64) -> bool {
        self.pht[self.index(pc, hist)] >= 2
    }

    fn update_dir(&mut self, pc: Addr, hist: u64, taken: bool) {
        let idx = self.index(pc, hist);
        let c = &mut self.pht[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Predict the stream starting at `start` by walking the dictionary
    /// `prog`, updating speculative state (global history, RAS).
    pub fn predict(&mut self, start: Addr, prog: &Program) -> StreamPrediction {
        let mut pc = start;
        let mut len = 0u32;
        let mut stream = loop {
            if len >= MAX_STREAM_INSTS {
                break StreamDesc {
                    start,
                    len,
                    next: pc,
                    end: StreamEnd::SequentialBreak,
                };
            }
            let Some((block, inst)) = prog.block_at(pc).and_then(|b| Some((b, b.inst_at(pc)?)))
            else {
                // Off the image: close the stream at the boundary.
                break StreamDesc {
                    start,
                    len: len.max(1),
                    next: pc,
                    end: StreamEnd::SequentialBreak,
                };
            };
            len += 1;
            // `BasicBlock::validate` guarantees a CTI is its block's final
            // instruction and matches the block's terminator.
            match (inst.op, block.term) {
                (OpClass::CondBranch, Terminator::CondBranch { taken: target, .. }) => {
                    let taken = self.predict_dir(pc, self.ghist);
                    self.ghist = (self.ghist << 1) | taken as u64;
                    if taken {
                        break StreamDesc {
                            start,
                            len,
                            next: target,
                            end: StreamEnd::Taken,
                        };
                    }
                    pc += INST_BYTES;
                }
                (OpClass::Jump, Terminator::Jump { target }) => {
                    break StreamDesc {
                        start,
                        len,
                        next: target,
                        end: StreamEnd::Taken,
                    }
                }
                (OpClass::Call, Terminator::Call { target, .. }) => {
                    break StreamDesc {
                        start,
                        len,
                        next: target,
                        end: StreamEnd::Call,
                    }
                }
                (OpClass::Return, _) => {
                    break StreamDesc {
                        start,
                        len,
                        next: 0,
                        end: StreamEnd::Return,
                    }
                }
                _ => pc += INST_BYTES,
            }
        };
        match stream.end {
            StreamEnd::Call => self.ras.push(stream.end_pc()),
            StreamEnd::Return => stream.next = self.ras.pop(),
            _ => {}
        }
        StreamPrediction {
            stream,
            table_hit: true,
            from_l2: false,
        }
    }

    /// Train with a resolved actual stream.
    pub fn train(&mut self, actual: &StreamDesc) {
        // Replay the stream's conditional branches: every embedded one was
        // not taken; the terminator was taken iff the stream ended Taken at
        // a conditional branch (unconditional CTIs need no direction
        // training).  History replay uses the retired history convention:
        // we simply fold outcomes into a scratch history starting from the
        // current one — gshare is noise-tolerant by design and this is an
        // ablation baseline.
        let mut hist = self.ghist;
        let end_pc = actual.end_pc();
        let mut pc = actual.start;
        while pc < end_pc {
            // Only the terminator can be taken.
            let is_last = pc + INST_BYTES == end_pc;
            let taken = is_last && actual.end == StreamEnd::Taken;
            self.update_dir(pc, hist, taken);
            hist = (hist << 1) | taken as u64;
            pc += INST_BYTES;
        }
    }

    /// Save speculative state (history + RAS) before a prediction,
    /// replacing the previous saved copy.
    pub fn checkpoint(&mut self) {
        self.saved = (self.ghist, self.ras);
    }

    /// Reinstate the last [`checkpoint`](Self::checkpoint) (branch
    /// misprediction recovery).
    pub fn restore(&mut self) {
        (self.ghist, self.ras) = self.saved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestage_isa::{straightline_block, ProgramBuilder, Terminator};

    fn loop_program() -> Program {
        let mut pb = ProgramBuilder::new();
        pb.push(straightline_block(
            0x1000,
            7,
            Terminator::CondBranch {
                taken: 0x1000,
                not_taken: 0x1020,
            },
        ));
        pb.push(straightline_block(0x1020, 2, Terminator::Return));
        pb.finish().unwrap()
    }

    #[test]
    fn cold_predicts_not_taken() {
        let prog = loop_program();
        let mut g = GsharePredictor::default_16k();
        let p = g.predict(0x1000, &prog);
        // Weakly-not-taken counters: walks through the branch to the Return.
        assert_eq!(p.stream.end, StreamEnd::Return);
    }

    #[test]
    fn learns_taken_loop_branch() {
        let prog = loop_program();
        let mut g = GsharePredictor::default_16k();
        let taken = StreamDesc {
            start: 0x1000,
            len: 8,
            next: 0x1000,
            end: StreamEnd::Taken,
        };
        for _ in 0..4 {
            g.train(&taken);
        }
        let p = g.predict(0x1000, &prog);
        assert_eq!(p.stream.end, StreamEnd::Taken);
        assert_eq!(p.stream.next, 0x1000);
        assert_eq!(p.stream.len, 8);
    }

    #[test]
    fn training_embedded_branches_not_taken() {
        let prog = loop_program();
        let mut g = GsharePredictor::default_16k();
        // Bias the branch taken, then train a stream where it is embedded
        // (i.e. fell through to the Return).
        let taken = StreamDesc {
            start: 0x1000,
            len: 8,
            next: 0x1000,
            end: StreamEnd::Taken,
        };
        for _ in 0..4 {
            g.train(&taken);
        }
        let fallthrough = StreamDesc {
            start: 0x1000,
            len: 10,
            next: 0,
            end: StreamEnd::Return,
        };
        for _ in 0..6 {
            g.train(&fallthrough);
        }
        let p = g.predict(0x1000, &prog);
        assert_eq!(p.stream.end, StreamEnd::Return);
    }

    #[test]
    fn ras_roundtrip_through_calls() {
        let mut pb = ProgramBuilder::new();
        pb.push(straightline_block(
            0x100,
            2,
            Terminator::Call {
                target: 0x200,
                link: 0x10c,
            },
        ));
        pb.push(straightline_block(0x10c, 1, Terminator::Return));
        pb.push(straightline_block(0x200, 1, Terminator::Return));
        let prog = pb.finish().unwrap();
        let mut g = GsharePredictor::default_16k();
        let c = g.predict(0x100, &prog);
        assert_eq!(c.stream.next, 0x200);
        let r = g.predict(0x200, &prog);
        assert_eq!(r.stream.next, 0x10c);
    }

    #[test]
    fn checkpoint_restore() {
        let prog = loop_program();
        let mut g = GsharePredictor::default_16k();
        // Bias the loop branch taken, so the prediction shifts a 1 in.
        let taken = StreamDesc {
            start: 0x1000,
            len: 8,
            next: 0x1000,
            end: StreamEnd::Taken,
        };
        for _ in 0..4 {
            g.train(&taken);
        }
        g.checkpoint();
        let _ = g.predict(0x1000, &prog);
        assert_ne!(g.ghist, 0);
        g.restore();
        assert_eq!(g.ghist, 0);
        assert_eq!(g.ras.depth(), 0);
    }
}
