//! Static program synthesis: builds an Alpha-like [`Program`] (the
//! basic-block dictionary) plus per-site behavioural models from a
//! [`BenchmarkProfile`].
//!
//! The generated program is a **layered call DAG**: functions are split into
//! levels, a function may only call functions one level deeper (bounding
//! call depth = RAS pressure), and callee popularity within a level is
//! Zipf-distributed, so a hot subset of the code dominates execution while a
//! long cold tail provides the big static footprints of `gcc`-like
//! benchmarks.  Function bodies are composed of loops (self or two-block),
//! guarded call sites, if-diamonds and straight-line blocks, with
//! per-conditional-branch behaviour models ([`BranchModel`]) and per-memory-
//! instruction address models ([`MemModel`]) that the dynamic executor
//! ([`crate::exec`]) evaluates deterministically.

use crate::profile::BenchmarkProfile;
use prestage_isa::{
    Addr, BasicBlock, BlockId, BlockInsts, OpClass, Program, ProgramBuilder, Reg, StaticInst,
    Terminator, INST_BYTES,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::Arc;

/// Base address of the code image.
pub const CODE_BASE: Addr = 0x0010_0000;
/// Base of the (always warm) stack data region.
pub const STACK_BASE: Addr = 0x7000_0000;
/// Base of the strided (array) data region.
pub const ARRAY_BASE: Addr = 0x2000_0000;
/// Base of the random-access (heap/pointer) data region.
pub const HEAP_BASE: Addr = 0x4000_0000;

/// Deterministic behavioural model of one static conditional branch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BranchModel {
    /// Taken with fixed probability (strongly biased = easy; mid-range =
    /// hard, data-dependent).
    Bias { p_taken: f64 },
    /// Loop back-edge with fixed trip count: taken `trip - 1` times, then
    /// not taken once.
    Loop { trip: u32 },
    /// Loop back-edge whose trip count is resampled uniformly in
    /// `[min, max]` at every loop entry.
    LoopVar { min: u32, max: u32 },
    /// Periodic direction pattern: bit `i % len` of `bits` (1 = taken).
    Pattern { bits: u32, len: u8 },
}

/// Deterministic address model of one static load/store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemModel {
    /// Sequential walk: `base + (visit * stride) % span`.
    Stride { base: Addr, stride: u32, span: u32 },
    /// Uniform random address in `[base, base + mask]` (pointer chasing).
    Random { base: Addr, mask: u64 },
    /// Small always-warm region (stack frame traffic).
    Stack { base: Addr, mask: u64 },
}

/// Behavioural annotations for one basic block.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockControl {
    /// Model for the terminating conditional branch, if any.
    pub branch: Option<BranchModel>,
    /// This block's memory sites: the range of [`Workload::mem`] that
    /// holds them, in instruction order.
    pub mem: Range<u32>,
}

/// A generated workload: static program + behavioural models.
#[derive(Debug, Clone)]
pub struct Workload {
    pub profile: BenchmarkProfile,
    pub program: Arc<Program>,
    /// Indexed by [`BlockId`].
    pub control: Vec<BlockControl>,
    /// `(instruction index within its block, model)` for every load and
    /// store, block after block in address order.  A site's position in
    /// this table is its identity (the generator keeps one stride counter
    /// per position).
    pub mem: Vec<(u16, MemModel)>,
    /// Seed the program was generated from.
    pub seed: u64,
}

impl Workload {
    /// Behavioural annotations for `block`.
    pub fn control_of(&self, id: BlockId) -> &BlockControl {
        &self.control[id.0 as usize]
    }

    /// The memory sites of `block`, in instruction order.
    pub fn mem_sites(&self, id: BlockId) -> &[(u16, MemModel)] {
        let r = &self.control_of(id).mem;
        &self.mem[r.start as usize..r.end as usize]
    }
}

// ---------------------------------------------------------------------------
// Blocks under construction
// ---------------------------------------------------------------------------

/// How a generated block ends.  Branch and jump targets are block indices
/// within the function (a skip past the function's end clamps to its
/// final block); calls name the callee function.  Both resolve to
/// addresses once the function, or for calls the whole program, is laid
/// out.
#[derive(Debug, Clone)]
enum STerm {
    Cond { taken: usize, model: BranchModel },
    Jump { target: usize },
    Call { callee: usize },
    Ret,
    Fall,
}

/// A block's payload: its first instruction in the program's instruction
/// array, and its range of memory sites.
struct Payload {
    first: u32,
    mem: Range<u32>,
}

/// A generated block: its range of the program's instruction array.
struct GenBlock {
    start: Addr,
    insts: Range<u32>,
    term: Terminator,
}

impl GenBlock {
    /// Point the terminator, and so the block's final CTI, at `target`.
    fn set_target(&mut self, target: Addr) {
        match &mut self.term {
            Terminator::CondBranch { taken: t, .. }
            | Terminator::Jump { target: t }
            | Terminator::Call { target: t, .. } => *t = target,
            Terminator::Return | Terminator::FallThrough { .. } => {
                unreachable!("block {:#x} has no direct target", self.start)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

struct Gen<'p> {
    p: &'p BenchmarkProfile,
    rng: SmallRng,
    /// Function index ranges per level.
    levels: Vec<Range<usize>>,
    /// Shared hot data regions: the program's few cache-resident
    /// structures that most memory sites touch.  Keeping the *aggregate*
    /// hot footprint small (not just each site's span) is what gives the
    /// workload realistic D-cache hit rates.
    hot_pool: Vec<(Addr, u32)>,
    /// Register choice: its own RNG stream, drawn in address order.
    ra: RegAlloc,
    /// Address of the next instruction generated: functions, and the
    /// blocks within each, are laid out back to back in generation order.
    pc: Addr,
    /// The program's instructions so far, in address order: instruction
    /// `i` is at `CODE_BASE + i * INST_BYTES`.
    insts: Vec<StaticInst>,
    /// The program's blocks so far, in address order.
    blocks: Vec<GenBlock>,
    /// One entry per block of [`Self::blocks`].
    control: Vec<BlockControl>,
    /// Memory sites, block after block: the finished workload's
    /// [`Workload::mem`].
    mem: Vec<(u16, MemModel)>,
    /// Entry address of each function generated so far.
    entries: Vec<Addr>,
    /// `(block, function-local target)` of the current function's
    /// branches and jumps, resolved when the function is complete.
    local_targets: Vec<(usize, usize)>,
    /// `(block, callee)` of every call, resolved once every function has
    /// its entry.
    calls: Vec<(usize, usize)>,
    /// `((count, alpha bits), sum, terms)` of each Zipf distribution
    /// [`Self::zipf_rank`] has drawn from, the terms `(r + 1)^-alpha`:
    /// computed once per build.
    zipf: Vec<((usize, u64), f64, Vec<f64>)>,
}

impl<'p> Gen<'p> {
    fn new(p: &'p BenchmarkProfile, seed: u64) -> Self {
        let n = p.n_funcs as usize;
        let l = (p.n_levels as usize).clamp(1, n);
        // Level 0 is the dispatcher alone; deeper levels grow geometrically
        // (each level roughly doubles), covering exactly the n-1 remaining
        // functions.
        let mut levels = Vec::with_capacity(l);
        levels.push(0..1);
        let mut start = 1usize;
        let mut remaining = n - 1;
        for k in 1..l {
            let levels_left = l - k;
            let share = if levels_left == 1 {
                remaining
            } else {
                // Geometric weights 2^1..2^(l-1) over the deeper levels.
                let denom: usize = (1..=levels_left).map(|i| 1usize << i).sum();
                (remaining * 2 / denom)
                    .max(1)
                    .min(remaining - (levels_left - 1))
            };
            levels.push(start..start + share);
            start += share;
            remaining -= share;
        }
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0DE_C0DE);
        // ~6 regions of 2-4 KB: aggregate hot data ~16 KB, comfortably
        // D-cache resident alongside the 4 KB stack frame region.
        let hot_pool = (0..6)
            .map(|i| {
                let size = 2048u32 << (i % 2);
                let base = ARRAY_BASE + i as u64 * (1 << 20) + (rng.gen::<u64>() & 0xFF00);
                (base, size)
            })
            .collect();
        // Sized for the profile's static footprint; the program lands
        // within a small factor of it.
        let insts = p.target_insts() as usize;
        Gen {
            p,
            rng,
            levels,
            hot_pool,
            ra: RegAlloc::new(seed),
            pc: CODE_BASE,
            insts: Vec::with_capacity(insts),
            blocks: Vec::with_capacity(insts / 8),
            control: Vec::with_capacity(insts / 8),
            mem: Vec::with_capacity(insts / 2),
            entries: Vec::with_capacity(n),
            local_targets: Vec::new(),
            calls: Vec::new(),
            zipf: Vec::new(),
        }
    }

    fn hot_region(&mut self) -> (Addr, u32) {
        self.hot_pool[self.rng.gen_range(0..self.hot_pool.len())]
    }

    fn level_of(&self, func: usize) -> usize {
        self.levels
            .iter()
            .position(|r| r.contains(&func))
            .unwrap_or(self.levels.len() - 1)
    }

    /// Zipf-sample a rank in `0..count` with exponent `alpha`.
    fn zipf_rank(&mut self, count: usize, alpha: f64) -> usize {
        let key = (count, alpha.to_bits());
        let z = match self.zipf.iter().position(|z| z.0 == key) {
            Some(z) => z,
            None => {
                let terms: Vec<f64> = (0..count).map(|r| ((r + 1) as f64).powf(-alpha)).collect();
                self.zipf.push((key, terms.iter().sum(), terms));
                self.zipf.len() - 1
            }
        };
        let (_, total, terms) = &self.zipf[z];
        let mut x = self.rng.gen::<f64>() * total;
        for (r, term) in terms.iter().enumerate() {
            x -= term;
            if x <= 0.0 {
                return r;
            }
        }
        count - 1
    }

    /// Sample a callee from the level below `level` for a call site in
    /// `caller`.
    ///
    /// Callee choice is mostly **local**: each caller owns a window of the
    /// next level proportional to its rank, so sibling subtrees are largely
    /// disjoint and one outer-loop iteration sweeps a wide, mostly unique
    /// instruction footprint (long I-reuse distances, as in real big-code
    /// benchmarks).  A minority of calls go to global Zipf-popular callees,
    /// modelling shared utility routines.
    fn sample_callee(&mut self, level: usize, caller: usize) -> Option<usize> {
        let cur = self.levels.get(level)?.clone();
        let next = self.levels.get(level + 1)?.clone();
        let count = next.len();
        if count == 0 {
            return None;
        }
        let alpha = self.p.zipf_alpha;
        if self.rng.gen::<f64>() < 0.25 {
            // Shared utility: global Zipf over the whole next level.
            return Some(next.start + self.zipf_rank(count, alpha));
        }
        // Local window around the caller's projected position.
        let caller_rank = caller.saturating_sub(cur.start);
        let ratio = (count as f64 / cur.len() as f64).max(1.0);
        let center = (caller_rank as f64 * ratio) as usize;
        let half = (ratio * 1.5).ceil() as usize + 1;
        let window = 2 * half + 1;
        let off = self.zipf_rank(window.min(count), alpha * 0.5);
        // Spiral outwards from the centre: 0, +1, -1, +2, -2, ...
        let signed = if off.is_multiple_of(2) {
            (off / 2) as i64
        } else {
            -(off.div_ceil(2) as i64)
        };
        let idx = (center as i64 + signed).rem_euclid(count as i64) as usize;
        Some(next.start + idx)
    }

    /// One payload instruction's op class and, for a load or store, its
    /// address model.
    fn payload_inst(&mut self) -> (OpClass, Option<MemModel>) {
        let p = self.p;
        let x = self.rng.gen::<f64>();
        let (op, is_mem) = if x < p.load_frac {
            (OpClass::Load, true)
        } else if x < p.load_frac + p.store_frac {
            (OpClass::Store, true)
        } else if x < p.load_frac + p.store_frac + p.mul_frac {
            (OpClass::IntMul, false)
        } else if x < p.load_frac + p.store_frac + p.mul_frac + p.fp_frac {
            (
                if self.rng.gen::<f64>() < 0.4 {
                    OpClass::FpMul
                } else {
                    OpClass::FpAlu
                },
                false,
            )
        } else {
            (OpClass::IntAlu, false)
        };
        let mem = is_mem.then(|| self.mem_model());
        (op, mem)
    }

    fn mem_model(&mut self) -> MemModel {
        let p = self.p;
        let d_bytes = (p.d_footprint_kb as u64) << 10;
        let x = self.rng.gen::<f64>();
        if x < p.d_stack_frac {
            MemModel::Stack {
                base: STACK_BASE,
                mask: 0xFFF, // 4 KB hot frame region
            }
        } else if x < p.d_stack_frac + p.d_random_frac {
            // Pointer-chasing site.  Most such sites in real code walk a
            // *hot* structure that caches well; a minority (controlled by
            // `d_cold_frac`) roam the full data footprint and are the
            // benchmark's true cache-killers (all of mcf, effectively).
            if self.rng.gen::<f64>() < p.d_cold_frac {
                MemModel::Random {
                    base: HEAP_BASE,
                    mask: d_bytes.next_power_of_two().max(64) - 1,
                }
            } else {
                let (base, size) = self.hot_region();
                MemModel::Random {
                    base,
                    mask: (size as u64).next_power_of_two() - 1,
                }
            }
        } else {
            // Strided site.  Most array code re-walks a small, blocked
            // working set (cache friendly); a minority of sites stream over
            // a large span and pay a miss per new line, controlled by the
            // same cold-site knob as pointer chasing.
            let (base, span) = if self.rng.gen::<f64>() < p.d_cold_frac {
                let span = ((d_bytes / 8).max(4096) as u32).min(1 << 26);
                let base = ARRAY_BASE + (8 + self.rng.gen::<u64>() % 56) * (1 << 20);
                (base, span)
            } else {
                self.hot_region()
            };
            let stride = [4u32, 8, 8, 16, 64][self.rng.gen_range(0..5usize)];
            MemModel::Stride { base, stride, span }
        }
    }

    /// `n` payload instructions from the next address on, with a memory
    /// site for each load and store among them.
    fn payload(&mut self, n: u32) -> Payload {
        // prestage: allow(truncating-cast, the instruction array and site table are bounded by the program's static instructions, far below u32)
        let (first, mem) = (self.insts.len() as u32, self.mem.len() as u32);
        for ii in 0..n {
            let (op, site) = self.payload_inst();
            if let Some(model) = site {
                // prestage: allow(truncating-cast, a payload is at most the profile's block length, far below u16)
                self.mem.push((ii as u16, model));
            }
            self.insts.push(self.ra.inst(op));
            self.pc += INST_BYTES;
        }
        Payload {
            first,
            // prestage: allow(truncating-cast, the site table is bounded by the program's static instructions, far below u32)
            mem: mem..self.mem.len() as u32,
        }
    }

    fn block_len(&mut self) -> u32 {
        let (lo, hi) = self.p.block_insts;
        self.rng.gen_range(lo..=hi)
    }

    /// A profile-sized payload (hoists the length sample to avoid nested
    /// mutable borrows).
    fn block_payload(&mut self) -> Payload {
        let n = self.block_len();
        self.payload(n)
    }

    fn short_payload(&mut self, hi: u32) -> Payload {
        let n = self.rng.gen_range(0..=hi).min(self.block_len());
        self.payload(n.max(1))
    }

    /// A non-loop conditional-branch model per the profile's mix.
    fn cond_model(&mut self) -> BranchModel {
        let p = self.p;
        // Renormalise pattern/hard over the non-loop fraction.
        let non_loop = (1.0 - p.loop_frac).max(1e-9);
        let pat = p.pattern_frac / non_loop;
        let hard = p.hard_frac / non_loop;
        let x = self.rng.gen::<f64>();
        if x < pat {
            let len = self.rng.gen_range(3..=8u8);
            let mut bits: u32 = self.rng.gen_range(1..(1u32 << len));
            if bits == (1 << len) - 1 {
                bits &= !1; // avoid the all-taken degenerate pattern
            }
            BranchModel::Pattern { bits, len }
        } else if x < pat + hard {
            let (lo, hi) = p.hard_p;
            BranchModel::Bias {
                p_taken: self.rng.gen_range(lo..=hi),
            }
        } else {
            // Strongly biased (easy).
            let p_taken = if self.rng.gen::<bool>() {
                self.rng.gen_range(0.0..0.02)
            } else {
                self.rng.gen_range(0.98..1.0)
            };
            BranchModel::Bias { p_taken }
        }
    }

    /// Model for a call-site guard that should *execute* the call with
    /// long-run frequency `p_exec`.
    ///
    /// Most guards are effectively fixed for the whole run — real big-code
    /// benchmarks traverse the same wide hot subtree every outer iteration
    /// while most static call sites stay cold for a given input — so the
    /// guard is "always execute" with probability `p_exec` and "cold"
    /// otherwise.  A minority rotate (periodic duty cycle) or flip noisily,
    /// providing the irreducible misprediction floor.
    fn guard_model(&mut self, p_exec: f64) -> BranchModel {
        let r = self.rng.gen::<f64>();
        if r < 0.10 {
            // Rotating site: executes ~p_exec of visits, periodically.
            let len = self.rng.gen_range(4..=8u8);
            let skip_bits = (((1.0 - p_exec) * len as f64).round() as u32).clamp(1, len as u32 - 1);
            let mut bits = 0u32;
            for k in 0..skip_bits {
                let pos = (k * len as u32) / skip_bits;
                bits |= 1 << pos.min(len as u32 - 1);
            }
            BranchModel::Pattern { bits, len }
        } else if r < 0.18 {
            // Noisy data-dependent guard.
            BranchModel::Bias {
                p_taken: 1.0 - p_exec,
            }
        } else if self.rng.gen::<f64>() < p_exec {
            // Hot site: always executed (skip almost never taken).
            BranchModel::Bias {
                p_taken: self.rng.gen_range(0.0..0.03),
            }
        } else {
            // Cold site: part of the static image, never on the hot path.
            BranchModel::Bias {
                p_taken: self.rng.gen_range(0.97..1.0),
            }
        }
    }

    fn loop_model(&mut self) -> BranchModel {
        let mean = self.p.trip_mean.max(2);
        let lo = (mean / 2).max(2);
        let hi = mean * 2;
        if self.rng.gen::<f64>() < self.p.trip_jitter_frac {
            BranchModel::LoopVar { min: lo, max: hi }
        } else {
            BranchModel::Loop {
                trip: self.rng.gen_range(lo..=hi),
            }
        }
    }

    /// Close `payload` with `term` into the next block; returns the
    /// block's size in instructions.  A target is left for
    /// [`gen_function`](Self::gen_function) or [`build`] to resolve.
    fn push_block(&mut self, payload: Payload, term: STerm) -> u64 {
        let Payload { first, mem } = payload;
        let block = self.blocks.len();
        let pc = self.pc;
        let start = CODE_BASE + u64::from(first) * INST_BYTES;
        let mut branch = None;
        let term = match term {
            STerm::Cond { taken, model } => {
                self.local_targets.push((block, taken));
                branch = Some(model);
                Terminator::CondBranch {
                    taken: 0,
                    not_taken: pc + INST_BYTES,
                }
            }
            STerm::Jump { target } => {
                self.local_targets.push((block, target));
                Terminator::Jump { target: 0 }
            }
            STerm::Call { callee } => {
                self.calls.push((block, callee));
                Terminator::Call {
                    target: 0,
                    link: pc + INST_BYTES,
                }
            }
            STerm::Ret => Terminator::Return,
            STerm::Fall => Terminator::FallThrough { next: pc },
        };
        if let Some(op) = term.cti() {
            self.insts.push(StaticInst::cti(op));
            self.pc += INST_BYTES;
        }
        // prestage: allow(truncating-cast, the instruction array is bounded by the program's static instructions, far below u32)
        let insts = first..self.insts.len() as u32;
        let size = u64::from(insts.end - insts.start);
        self.blocks.push(GenBlock { start, insts, term });
        self.control.push(BlockControl { branch, mem });
        size
    }

    /// The function-local index the next block pushed will get, for a
    /// function whose first block is block `func_start`.
    fn next_local(&self, func_start: usize) -> usize {
        self.blocks.len() - func_start
    }

    /// Generate the blocks of one structured region; returns their total
    /// size in instructions.  Regions are sequences of guarded call sites,
    /// (possibly nested) loops over sub-regions, if-diamonds and
    /// straight-line blocks; targets count blocks from the function's
    /// first block, block `func_start`, so nested regions compose without
    /// relocation.
    #[allow(clippy::too_many_arguments)]
    fn gen_region(
        &mut self,
        func: usize,
        level: usize,
        is_root: bool,
        func_start: usize,
        budget: u64,
        call_sites_left: &mut u32,
        depth: u32,
    ) -> u64 {
        let mut used = 0u64;
        let min_construct = (self.p.block_insts.1 as u64 + 2) * 2;
        while used + min_construct < budget {
            let roll = self.rng.gen::<f64>();
            let want_call =
                *call_sites_left > 0 && (is_root && roll < 0.50 || !is_root && roll < 0.30);
            if want_call {
                if let Some(callee) = self.sample_callee(level, func) {
                    *call_sites_left -= 1;
                    // Guard block: skip the call with probability p_skip.
                    let rank = callee - self.levels[level + 1].start;
                    // Most sites execute most visits (wide hot footprints);
                    // deep-ranked callees form the cold tail.
                    let p_exec = (0.85 / (1.0 + rank as f64 * 0.10)).clamp(0.20, 0.95);
                    let guard_len = self.rng.gen_range(1..=3);
                    let model = self.guard_model(p_exec);
                    let skip = self.next_local(func_start) + 2;
                    let guard = self.payload(guard_len);
                    used += self.push_block(guard, STerm::Cond { taken: skip, model });
                    let call = self.short_payload(2);
                    used += self.push_block(call, STerm::Call { callee });
                    continue;
                }
            }
            let loop_p = (self.p.loop_frac * 0.9).min(0.5);
            let max_depth = if self.p.loop_frac >= 0.45 { 2 } else { 1 };
            if roll < loop_p && depth < max_depth {
                // Loop over a nested sub-region: each iteration traverses
                // calls/diamonds inside the body, so loops exercise real
                // code footprints instead of spinning on one block.
                let remaining = budget - used;
                let inner_budget = ((remaining as f64) * self.rng.gen_range(0.3..0.6)) as u64;
                let head = self.next_local(func_start);
                used += self.gen_region(
                    func,
                    level,
                    is_root,
                    func_start,
                    inner_budget,
                    call_sites_left,
                    depth + 1,
                );
                if self.next_local(func_start) == head {
                    let body = self.block_payload();
                    used += self.push_block(body, STerm::Fall);
                }
                // Back-edge block closing the loop.
                let body = self.short_payload(3);
                let model = self.loop_model();
                used += self.push_block(body, STerm::Cond { taken: head, model });
            } else if roll < 0.80 {
                // Diamond: conditional skip of the next block.
                let skip = self.next_local(func_start) + 2;
                let body = self.block_payload();
                let model = self.cond_model();
                used += self.push_block(body, STerm::Cond { taken: skip, model });
                let body = self.block_payload();
                used += self.push_block(body, STerm::Fall);
            } else {
                let body = self.block_payload();
                used += self.push_block(body, STerm::Fall);
            }
        }
        used
    }

    /// Generate one function body, and resolve its branch and jump
    /// targets.
    fn gen_function(&mut self, func: usize, budget: u64) {
        let level = self.level_of(func);
        let is_root = func == 0;
        let mut call_sites_left = if level + 1 < self.levels.len() {
            let (lo, hi) = self.p.call_sites;
            // Scale sites with the body size so big functions fan out wide
            // (a fixed handful of sites would funnel execution into a tiny
            // hot subtree and shrink the dynamic footprint unrealistically).
            let base = self.rng.gen_range(lo..=hi);
            base.max((budget / 70) as u32)
        } else {
            0
        };
        // The dispatcher (f0) is call-dominated so control flow keeps
        // leaving it — it models the benchmark's outer driver loop.
        if is_root {
            call_sites_left = call_sites_left.max(6);
        }

        self.entries.push(self.pc);
        let start = self.blocks.len();
        self.gen_region(
            func,
            level,
            is_root,
            start,
            budget.saturating_sub(2),
            &mut call_sites_left,
            0,
        );

        // Padding so tiny budgets still produce a body.
        if self.blocks.len() == start {
            let body = self.block_payload();
            self.push_block(body, STerm::Fall);
        }
        // Final block: return (or the dispatcher's eternal loop).
        let body = self.payload(1);
        let term = if is_root {
            STerm::Jump { target: 0 }
        } else {
            STerm::Ret
        };
        self.push_block(body, term);

        // A skip target past the end clamps to the final block.
        let last = self.blocks.len() - 1;
        for (block, local) in self.local_targets.drain(..) {
            let target = self.blocks[(start + local).min(last)].start;
            self.blocks[block].set_target(target);
        }
    }
}

// ---------------------------------------------------------------------------
// Register choice
// ---------------------------------------------------------------------------

/// Round-robin register chooser producing realistic dependence chains.
struct RegAlloc {
    rng: SmallRng,
    /// Recently written integer destinations (youngest last).
    recent: Vec<Reg>,
}

impl RegAlloc {
    fn new(seed: u64) -> Self {
        RegAlloc {
            rng: SmallRng::seed_from_u64(seed ^ 0x5EED_5EED),
            recent: vec![Reg::int(1)],
        }
    }

    fn fresh_dst(&mut self, fp: bool) -> Reg {
        let r = if fp {
            Reg::fp(self.rng.gen_range(1..30))
        } else {
            Reg::int(self.rng.gen_range(1..30))
        };
        self.recent.push(r);
        if self.recent.len() > 8 {
            self.recent.remove(0);
        }
        r
    }

    fn src(&mut self) -> Reg {
        if self.rng.gen::<f64>() < 0.6 && !self.recent.is_empty() {
            // Depend on a recent producer: realistic but not serialising
            // dependence chains (wide-issue code has ILP ~2.5-4).
            let k = self.recent.len();
            let back = self.rng.gen_range(0..k.min(6));
            self.recent[k - 1 - back]
        } else {
            Reg::int(self.rng.gen_range(25..31) as u8)
        }
    }

    /// The payload instruction `op`, its registers drawn.
    fn inst(&mut self, op: OpClass) -> StaticInst {
        match op {
            OpClass::Load => {
                StaticInst::plain(op, Some(self.fresh_dst(false)), Some(self.src()), None)
            }
            OpClass::Store => StaticInst::plain(op, None, Some(self.src()), Some(self.src())),
            OpClass::FpAlu | OpClass::FpMul => StaticInst::plain(
                op,
                Some(self.fresh_dst(true)),
                Some(self.src()),
                Some(self.src()),
            ),
            op => StaticInst::plain(
                op,
                Some(self.fresh_dst(false)),
                Some(self.src()),
                Some(self.src()),
            ),
        }
    }
}

/// Build the full workload for `profile` from `seed`.
///
/// One pass generates the functions in order, every instruction straight
/// into the program's one instruction array at its final address and
/// every memory site into the workload's site table; each block is a
/// window onto that array.  Branch and jump targets resolve as each
/// function completes, call targets once every function has its entry.
pub fn build(profile: &BenchmarkProfile, seed: u64) -> Workload {
    let mut g = Gen::new(profile, seed);
    let n = profile.n_funcs as usize;
    let per_func = (profile.target_insts() / n as u64).max(24);
    for f in 0..n {
        // The dispatcher gets a slightly larger share; leaves vary ±40%.
        let jitter = 0.6 + g.rng.gen::<f64>() * 0.8;
        let budget = if f == 0 {
            (per_func as f64 * 1.5) as u64
        } else {
            (per_func as f64 * jitter) as u64
        }
        .max(16);
        g.gen_function(f, budget);
    }
    let Gen {
        insts,
        mut blocks,
        control,
        mem,
        entries,
        calls,
        ..
    } = g;
    for (block, callee) in calls {
        blocks[block].set_target(entries[callee]);
    }
    let insts = Arc::new(insts);
    let blocks = blocks
        .into_iter()
        .map(|b| BasicBlock {
            id: BlockId(u32::MAX),
            start: b.start,
            insts: BlockInsts::window(&insts, b.insts),
            term: b.term,
        })
        .collect();
    // Blocks are generated in address order, which `finish` keeps, so
    // block `i` of the program is control entry `i`.
    let mut pb = ProgramBuilder::from_blocks(blocks);
    pb.entry(entries[0]);
    let program = pb
        .finish()
        .unwrap_or_else(|e| panic!("generated program for '{}' invalid: {e}", profile.name));

    Workload {
        profile: profile.clone(),
        program: Arc::new(program),
        control,
        mem,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::specint2000;

    fn small_profile() -> BenchmarkProfile {
        let mut p = crate::profile::by_name("gzip").unwrap();
        p.i_footprint_kb = 2;
        p.n_funcs = 6;
        p
    }

    #[test]
    fn builds_valid_programs_for_all_benchmarks() {
        for p in specint2000() {
            let w = build(&p, 42);
            assert!(w.program.num_blocks() > 0, "{}", p.name);
            assert_eq!(w.control.len(), w.program.num_blocks(), "{}", p.name);
            // Footprint within 2x of the target in either direction.
            let target = p.target_insts() as f64;
            let actual = w.program.num_insts() as f64;
            assert!(
                actual > target * 0.4 && actual < target * 2.5,
                "{}: target {} actual {}",
                p.name,
                target,
                actual
            );
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let p = small_profile();
        let a = build(&p, 7);
        let b = build(&p, 7);
        assert_eq!(a.program.num_insts(), b.program.num_insts());
        assert_eq!(a.program.entry(), b.program.entry());
        for (x, y) in a.program.blocks().iter().zip(b.program.blocks()) {
            assert_eq!(x, y);
        }
        assert_eq!(a.control, b.control);
        assert_eq!(a.mem, b.mem);
    }

    #[test]
    fn different_seeds_differ() {
        let p = small_profile();
        let a = build(&p, 1);
        let b = build(&p, 2);
        let same = a.program.num_insts() == b.program.num_insts()
            && a.program
                .blocks()
                .iter()
                .zip(b.program.blocks())
                .all(|(x, y)| x == y);
        assert!(!same, "different seeds produced identical programs");
    }

    #[test]
    fn every_cond_branch_has_a_model() {
        let w = build(&small_profile(), 3);
        for b in w.program.blocks() {
            if matches!(b.term, Terminator::CondBranch { .. }) {
                assert!(
                    w.control_of(b.id).branch.is_some(),
                    "block {:?} lacks a branch model",
                    b.id
                );
            }
        }
    }

    #[test]
    fn every_mem_inst_has_a_model() {
        let w = build(&small_profile(), 3);
        for b in w.program.blocks() {
            let sites = w.mem_sites(b.id);
            for (i, inst) in b.insts.iter().enumerate() {
                if inst.op.is_mem() {
                    assert!(
                        sites.iter().any(|&(idx, _)| idx as usize == i),
                        "mem inst {i} of block {:#x} lacks a model",
                        b.start
                    );
                }
            }
        }
    }

    #[test]
    fn entry_is_the_dispatcher_loop() {
        let w = build(&small_profile(), 3);
        assert_eq!(w.program.entry(), CODE_BASE);
        // The dispatcher ends with a jump back to its own entry.
        let f0_jump = w
            .program
            .blocks()
            .iter()
            .find(|b| matches!(b.term, Terminator::Jump { target } if target == CODE_BASE));
        assert!(f0_jump.is_some(), "no dispatcher back-jump found");
    }

    #[test]
    fn footprint_scales_with_profile() {
        let mut small = small_profile();
        small.i_footprint_kb = 2;
        let mut large = small.clone();
        large.i_footprint_kb = 64;
        large.n_funcs = 64;
        let ws = build(&small, 9);
        let wl = build(&large, 9);
        assert!(wl.program.num_insts() > 8 * ws.program.num_insts());
    }
}
