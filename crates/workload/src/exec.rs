//! Deterministic dynamic execution of a generated workload.
//!
//! [`TraceGenerator`] walks the static program, evaluating each conditional
//! branch's [`BranchModel`] and each memory
//! instruction's [`MemModel`] with a seeded RNG, and yields
//! the committed path as a sequence of **instruction streams** (the fetch
//! entities of the decoupled front-end): maximal sequential runs terminated
//! by a taken control transfer, capped at the front-end's maximum
//! fetch-block length.
//!
//! The same `(workload, seed)` pair always produces the identical dynamic
//! instruction sequence, so every simulator configuration in a sweep
//! consumes exactly the same trace — the property that makes the paper's
//! config-vs-config IPC comparisons meaningful.

use crate::codegen::{BranchModel, MemModel, Workload};
use prestage_bpred::{StreamDesc, StreamEnd, MAX_STREAM_INSTS};
use prestage_isa::{Addr, BasicBlock, BlockId, OpClass, Terminator, INST_BYTES};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One dynamically executed instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynInst {
    pub pc: Addr,
    pub op: OpClass,
    /// Enclosing basic block (index into the program's dictionary).
    pub block: BlockId,
    /// Index of this instruction within its block.
    pub idx: u16,
    /// Outcome for conditional branches (`false` otherwise).
    pub taken: bool,
    /// Address of the next executed instruction.
    pub next_pc: Addr,
    /// Effective address for loads/stores.
    pub mem_addr: Option<Addr>,
}

/// Per-static-branch dynamic state.
#[derive(Debug, Clone, Copy, Default)]
struct BranchState {
    iter: u32,
    cur_trip: u32,
    pattern_pos: u8,
}

/// Deterministic executor producing the committed instruction stream.
#[derive(Debug)]
pub struct TraceGenerator<'w> {
    w: &'w Workload,
    rng: SmallRng,
    pc: Addr,
    call_stack: Vec<Addr>,
    branch_state: Vec<BranchState>,
    /// Index of the block the generator executed last: the next PC is
    /// almost always in the same block or its address-order successor, so
    /// block lookup is two `contains` probes instead of a binary search.
    cur_block: u32,
    /// Visit counters for strided memory sites, one per entry of the
    /// workload's site table [`Workload::mem`] — the per-transition
    /// `HashMap` this replaced hashed a synthetic key on every strided
    /// access.
    mem_counts: Vec<u32>,
    /// Maximum instructions per emitted stream.
    max_stream: u32,
}

impl<'w> TraceGenerator<'w> {
    /// Start executing `w` from its entry point.  `seed` controls branch
    /// outcomes and memory addresses (independently of the codegen seed).
    pub fn new(w: &'w Workload, seed: u64) -> Self {
        TraceGenerator {
            rng: SmallRng::seed_from_u64(seed ^ 0x7ACE_7ACE),
            pc: w.program.entry(),
            call_stack: Vec::with_capacity(32),
            branch_state: vec![BranchState::default(); w.program.num_blocks()],
            cur_block: 0,
            mem_counts: vec![0; w.mem.len()],
            max_stream: MAX_STREAM_INSTS,
            w,
        }
    }

    /// `slot` is the site's index in [`Workload::mem`]; only `Stride`
    /// reads its counter.
    fn mem_addr(&mut self, slot: usize, model: &MemModel) -> Addr {
        match *model {
            MemModel::Stride { base, stride, span } => {
                let k = &mut self.mem_counts[slot];
                let addr = u64::from(base) + (u64::from(*k) * u64::from(stride)) % u64::from(span);
                *k = k.wrapping_add(1);
                addr & !7
            }
            MemModel::Random { base, mask } | MemModel::Stack { base, mask } => {
                (u64::from(base) + (self.rng.gen::<u64>() & u64::from(mask))) & !7
            }
        }
    }

    /// The block containing `self.pc`: the cached block, its successor, or
    /// (cold path: a call, return, or cross-function jump) binary search.
    fn lookup_block(&mut self) -> &'w BasicBlock {
        let blocks = self.w.program.blocks();
        let cur = &blocks[self.cur_block as usize];
        if cur.contains(self.pc) {
            return cur;
        }
        if let Some(next) = blocks.get(self.cur_block as usize + 1) {
            if next.contains(self.pc) {
                self.cur_block += 1;
                return next;
            }
        }
        let b = self
            .w
            .program
            .block_at(self.pc)
            .unwrap_or_else(|| panic!("executed off the program image at {:#x}", self.pc));
        self.cur_block = b.id.0;
        b
    }

    fn eval_branch(&mut self, block: BlockId, model: &BranchModel) -> bool {
        let st = &mut self.branch_state[block.0 as usize];
        match *model {
            BranchModel::Bias { p_taken } => self.rng.gen::<f64>() < p_taken,
            BranchModel::Loop { trip } => {
                st.iter += 1;
                if st.iter < trip {
                    true
                } else {
                    st.iter = 0;
                    false
                }
            }
            BranchModel::LoopVar { min, max } => {
                if st.cur_trip == 0 {
                    st.cur_trip = self.rng.gen_range(min..=max);
                }
                st.iter += 1;
                if st.iter < st.cur_trip {
                    true
                } else {
                    st.iter = 0;
                    st.cur_trip = 0;
                    false
                }
            }
            BranchModel::Pattern { bits, len } => {
                let taken = (bits >> st.pattern_pos) & 1 == 1;
                st.pattern_pos = (st.pattern_pos + 1) % len;
                taken
            }
        }
    }

    /// Produce the next stream into `out` (cleared first); returns its
    /// descriptor.  Never returns an empty stream.
    pub fn next_stream(&mut self, out: &mut Vec<DynInst>) -> StreamDesc {
        out.clear();
        let start = self.pc;
        loop {
            let block = self.lookup_block();
            let bid = block.id;
            let first = ((self.pc - block.start) / INST_BYTES) as usize;
            // The block's memory sites, and the next one from `first` on:
            // codegen gives every load and store one site, in instruction
            // order, so the sites are consumed in step with them.
            let sites = self.w.mem_sites(bid);
            let sites_base = self.w.control_of(bid).mem.start as usize;
            let mut next_site = sites.partition_point(|&(mi, _)| (mi as usize) < first);
            // Payload instructions (everything before any terminator CTI).
            // `self.pc` steps with `ii`: it is `block.start + ii * INST_BYTES`.
            for (ii, inst) in block.insts.iter().enumerate().skip(first) {
                if out.len() as u32 == self.max_stream {
                    // Sequential break: close the stream mid-block.
                    return StreamDesc {
                        start,
                        len: out.len() as u32,
                        next: self.pc,
                        end: StreamEnd::SequentialBreak,
                    };
                }
                let is_cti = inst.op.is_cti();
                if !is_cti {
                    let mem_addr = if inst.op.is_mem() {
                        let (slot, model) = match sites.get(next_site) {
                            Some(&(mi, m)) if mi as usize == ii => {
                                next_site += 1;
                                (sites_base + next_site - 1, m)
                            }
                            // A mem instruction with no declared site gets
                            // the default stack model, which never touches
                            // a counter, so any slot will do.
                            _ => (0, crate::codegen::STACK_FRAME),
                        };
                        Some(self.mem_addr(slot, &model))
                    } else {
                        None
                    };
                    out.push(DynInst {
                        pc: self.pc,
                        op: inst.op,
                        block: bid,
                        idx: ii as u16,
                        taken: false,
                        next_pc: self.pc + INST_BYTES,
                        mem_addr,
                    });
                    self.pc += INST_BYTES;
                    continue;
                }

                // Terminator CTI: decide the continuation.
                let (taken, next, end) = match block.term {
                    Terminator::CondBranch { taken, not_taken } => {
                        let model = self
                            .w
                            .control_of(bid)
                            .branch
                            .expect("cond branch without model");
                        let t = self.eval_branch(bid, &model);
                        if t {
                            (true, taken, Some(StreamEnd::Taken))
                        } else {
                            (false, not_taken, None)
                        }
                    }
                    Terminator::Jump { target } => (true, target, Some(StreamEnd::Taken)),
                    Terminator::Call { target, link } => {
                        self.call_stack.push(link);
                        (true, target, Some(StreamEnd::Call))
                    }
                    Terminator::Return => {
                        let ret = self
                            .call_stack
                            .pop()
                            .unwrap_or_else(|| self.w.program.entry());
                        (true, ret, Some(StreamEnd::Return))
                    }
                    Terminator::FallThrough { .. } => {
                        unreachable!("CTI inside a fall-through block")
                    }
                };
                out.push(DynInst {
                    pc: self.pc,
                    op: inst.op,
                    block: bid,
                    idx: ii as u16,
                    taken,
                    next_pc: next,
                    mem_addr: None,
                });
                self.pc = next;
                if let Some(end) = end {
                    return StreamDesc {
                        start,
                        len: out.len() as u32,
                        next,
                        end,
                    };
                }
                // Not-taken conditional: the stream continues in the
                // fall-through block.
            }
            // Fall-through block boundary: continue into the next block.
            if let Terminator::FallThrough { next } = block.term {
                self.pc = next;
            }
        }
    }

    /// Convenience: run forward, collecting `n` instructions (streams are
    /// kept whole, so slightly more may be returned).
    pub fn take_insts(&mut self, n: u64) -> Vec<DynInst> {
        let mut all = Vec::with_capacity(n as usize + 64);
        let mut buf = Vec::with_capacity(MAX_STREAM_INSTS as usize);
        while (all.len() as u64) < n {
            self.next_stream(&mut buf);
            all.extend_from_slice(&buf);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::build;
    use crate::profile::by_name;

    fn small_workload() -> Workload {
        let mut p = by_name("gzip").unwrap();
        p.i_footprint_kb = 2;
        p.n_funcs = 6;
        build(&p, 11)
    }

    #[test]
    fn streams_are_well_formed() {
        let w = small_workload();
        let mut t = TraceGenerator::new(&w, 1);
        let mut buf = Vec::new();
        for _ in 0..500 {
            let s = t.next_stream(&mut buf);
            assert_eq!(s.len as usize, buf.len());
            assert!(s.len >= 1 && s.len <= MAX_STREAM_INSTS);
            assert_eq!(s.start, buf[0].pc);
            // Sequential PCs inside the stream.
            for w2 in buf.windows(2) {
                assert_eq!(w2[0].pc + 4, w2[1].pc);
                assert_eq!(w2[0].next_pc, w2[1].pc);
            }
            assert_eq!(buf.last().unwrap().next_pc, s.next);
            // The next stream begins where this one pointed.
            let s2 = t.next_stream(&mut buf);
            assert_eq!(s2.start, s.next);
        }
    }

    #[test]
    fn cached_block_lookup_matches_binary_search() {
        let w = small_workload();
        let mut t = TraceGenerator::new(&w, 9);
        let insts = t.take_insts(30_000);
        for i in &insts {
            let b = w.program.block_at(i.pc).expect("on image");
            assert_eq!(b.id, i.block, "cached lookup misattributed {:#x}", i.pc);
        }
    }

    #[test]
    fn strided_sites_count_independently() {
        // Two strided sites must not share a counter: every Stride site's
        // address sequence is arithmetic modulo its span on its own clock,
        // exactly as the per-site HashMap counters behaved.
        let w = small_workload();
        let mut t = TraceGenerator::new(&w, 9);
        let insts = t.take_insts(120_000);
        let mut per_site: std::collections::BTreeMap<(u32, u16), Vec<Addr>> =
            std::collections::BTreeMap::new();
        for i in insts.iter().filter(|i| i.op.is_mem()) {
            per_site
                .entry((i.block.0, i.idx))
                .or_default()
                .push(i.mem_addr.unwrap());
        }
        let mut strided_checked = 0;
        for ((b, ii), addrs) in &per_site {
            let Some(&(_, MemModel::Stride { base, stride, span })) =
                w.mem_sites(BlockId(*b)).iter().find(|&&(mi, _)| mi == *ii)
            else {
                continue;
            };
            for (k, &a) in addrs.iter().enumerate() {
                let want =
                    (u64::from(base) + (k as u64 * u64::from(stride)) % u64::from(span)) & !7;
                assert_eq!(a, want, "site ({b},{ii}) visit {k}");
            }
            strided_checked += 1;
        }
        assert!(
            strided_checked > 1,
            "workload has no strided sites to check"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let w = small_workload();
        let mut a = TraceGenerator::new(&w, 5);
        let mut b = TraceGenerator::new(&w, 5);
        let ia = a.take_insts(20_000);
        let ib = b.take_insts(20_000);
        assert_eq!(ia, ib);
    }

    #[test]
    fn different_exec_seeds_diverge() {
        let w = small_workload();
        let mut a = TraceGenerator::new(&w, 5);
        let mut b = TraceGenerator::new(&w, 6);
        let ia = a.take_insts(20_000);
        let ib = b.take_insts(20_000);
        assert_ne!(ia, ib);
    }

    #[test]
    fn memory_instructions_carry_addresses() {
        let w = small_workload();
        let mut t = TraceGenerator::new(&w, 3);
        let insts = t.take_insts(50_000);
        let mems: Vec<_> = insts.iter().filter(|i| i.op.is_mem()).collect();
        assert!(!mems.is_empty());
        assert!(mems.iter().all(|i| i.mem_addr.is_some()));
        assert!(insts
            .iter()
            .filter(|i| !i.op.is_mem())
            .all(|i| i.mem_addr.is_none()));
        // 8-byte aligned addresses.
        assert!(mems.iter().all(|i| i.mem_addr.unwrap() % 8 == 0));
    }

    #[test]
    fn executes_calls_and_returns_balanced() {
        let w = small_workload();
        let mut t = TraceGenerator::new(&w, 3);
        let insts = t.take_insts(100_000);
        let calls = insts.iter().filter(|i| i.op == OpClass::Call).count();
        let rets = insts.iter().filter(|i| i.op == OpClass::Return).count();
        assert!(calls > 0, "no calls executed");
        // Stack never leaks: returns track calls closely.
        assert!((calls as i64 - rets as i64).unsigned_abs() as usize <= t.call_stack.len() + 1);
        assert!(t.call_stack.len() <= w.profile.n_levels as usize);
    }

    #[test]
    fn branch_mix_has_takens_and_fallthroughs() {
        let w = small_workload();
        let mut t = TraceGenerator::new(&w, 3);
        let insts = t.take_insts(100_000);
        let conds: Vec<_> = insts
            .iter()
            .filter(|i| i.op == OpClass::CondBranch)
            .collect();
        assert!(!conds.is_empty());
        let taken = conds.iter().filter(|i| i.taken).count();
        let frac = taken as f64 / conds.len() as f64;
        assert!(
            frac > 0.2 && frac < 0.95,
            "degenerate taken fraction {frac}"
        );
    }

    #[test]
    fn loop_models_produce_multiple_iterations() {
        let w = small_workload();
        let mut t = TraceGenerator::new(&w, 3);
        let insts = t.take_insts(50_000);
        // Dynamic/static ratio must show real reuse (loops executing).
        let mut uniq = std::collections::HashSet::new();
        for i in &insts {
            uniq.insert(i.pc);
        }
        let reuse = insts.len() as f64 / uniq.len() as f64;
        assert!(reuse > 5.0, "no loop reuse: ratio {reuse}");
    }

    #[test]
    fn all_benchmarks_execute() {
        for p in crate::profile::specint2000() {
            let mut p = p;
            // Shrink for test speed but keep structure.
            p.i_footprint_kb = p.i_footprint_kb.min(32);
            p.n_funcs = p.n_funcs.min(48);
            let w = build(&p, 17);
            let mut t = TraceGenerator::new(&w, 17);
            let insts = t.take_insts(30_000);
            assert!(insts.len() >= 30_000, "{}", p.name);
        }
    }
}
