//! Gshare-over-dictionary fetch-block predictor.
//!
//! A classic gshare direction predictor (XOR of PC and global history into a
//! 2-bit counter table) that builds streams by walking the basic-block
//! dictionary, predicting each conditional branch as it goes.  It exists for
//! the ablation benches: the paper (and \[14\]) argue that decoupled
//! prefetching quality tracks predictor quality, so swapping the stream
//! predictor for gshare quantifies that sensitivity without touching the
//! front-end.

use crate::predictor::PredStats;
use crate::ras::ReturnAddressStack;
use crate::stream::{StreamDesc, StreamEnd, StreamPrediction, MAX_STREAM_INSTS};
use crate::FetchPredictor;
use prestage_isa::{Addr, OpClass, Program, Terminator, INST_BYTES};

/// Pattern history table entries: 16K 2-bit counters, mask-indexed.
const PHT_ENTRIES: usize = 16 << 10;
const _: () = assert!(PHT_ENTRIES.is_power_of_two());

/// Gshare + RAS, producing stream predictions by dictionary walk.
#[derive(Debug, Clone)]
pub struct GsharePredictor {
    /// 2-bit saturating counters.
    pht: Vec<u8>,
    ghist: u64,
    ras: ReturnAddressStack,
    /// History and RAS as of the last [`FetchPredictor::checkpoint`].
    saved: (u64, ReturnAddressStack),
    stats: PredStats,
}

impl Default for GsharePredictor {
    /// A 16K-entry table of weakly not-taken counters.
    fn default() -> Self {
        GsharePredictor {
            pht: vec![1; PHT_ENTRIES],
            ghist: 0,
            ras: ReturnAddressStack::default(),
            saved: (0, ReturnAddressStack::default()),
            stats: PredStats::default(),
        }
    }
}

impl GsharePredictor {
    #[inline]
    fn index(pc: Addr, hist: u64) -> usize {
        (((pc >> 2) ^ hist) as usize) & (PHT_ENTRIES - 1)
    }

    fn predict_dir(&self, pc: Addr, hist: u64) -> bool {
        self.pht[Self::index(pc, hist)] >= 2
    }

    fn update_dir(&mut self, pc: Addr, hist: u64, taken: bool) {
        let idx = Self::index(pc, hist);
        let c = &mut self.pht[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Train the direction counters with a resolved actual stream.
    fn train(&mut self, actual: &StreamDesc) {
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
}

impl FetchPredictor for GsharePredictor {
    /// Walk the dictionary `prog` from `start`, predicting each
    /// conditional branch.
    fn predict(&mut self, start: Addr, prog: &Program) -> StreamPrediction {
        self.stats.predictions += 1;
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

    fn predict_and_train(&mut self, actual: &StreamDesc, prog: &Program) -> StreamPrediction {
        let p = self.predict(actual.start, prog);
        self.stats.trained += 1;
        if p.stream.same_flow(actual) {
            self.stats.train_correct += 1;
        }
        self.train(actual);
        p
    }

    fn checkpoint(&mut self) {
        self.saved = (self.ghist, self.ras);
    }

    fn restore(&mut self) {
        (self.ghist, self.ras) = self.saved;
    }

    fn stats(&self) -> &PredStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = PredStats::default();
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
        let mut g = GsharePredictor::default();
        let p = g.predict(0x1000, &prog);
        // Weakly-not-taken counters: walks through the branch to the Return.
        assert_eq!(p.stream.end, StreamEnd::Return);
    }

    #[test]
    fn learns_taken_loop_branch() {
        let prog = loop_program();
        let mut g = GsharePredictor::default();
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
        let mut g = GsharePredictor::default();
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
        let mut g = GsharePredictor::default();
        let c = g.predict(0x100, &prog);
        assert_eq!(c.stream.next, 0x200);
        let r = g.predict(0x200, &prog);
        assert_eq!(r.stream.next, 0x10c);
    }

    #[test]
    fn checkpoint_restore() {
        let prog = loop_program();
        let mut g = GsharePredictor::default();
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

    #[test]
    fn counts_predictions_and_training_like_the_stream_predictor() {
        let prog = loop_program();
        let mut g = GsharePredictor::default();
        let taken = StreamDesc {
            start: 0x1000,
            len: 8,
            next: 0x1000,
            end: StreamEnd::Taken,
        };
        // Cold counters walk past the branch: the first is wrong.
        for _ in 0..4 {
            g.predict_and_train(&taken, &prog);
        }
        let _ = g.predict(0x1000, &prog); // wrong path: predicted, not trained
        let s = *g.stats();
        assert_eq!((s.predictions, s.trained), (5, 4));
        assert!(s.train_correct >= 1 && s.train_correct < 4, "{s:?}");
        assert_eq!(s.l1_supplied + s.l2_supplied + s.fallback_supplied, 0);
        g.reset_stats();
        assert_eq!(*g.stats(), PredStats::default());
    }
}
