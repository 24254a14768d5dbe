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
    Addr, BasicBlock, BlockId, OpClass, Program, ProgramBuilder, Reg, StaticInst, Terminator,
    INST_BYTES,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
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
    /// `(instruction index within block, model)` for each load/store.
    pub mem: Vec<(u16, MemModel)>,
}

/// A generated workload: static program + behavioural models.
#[derive(Debug, Clone)]
pub struct Workload {
    pub profile: BenchmarkProfile,
    pub program: Arc<Program>,
    /// Indexed by [`BlockId`].
    pub control: Vec<BlockControl>,
    /// Seed the program was generated from.
    pub seed: u64,
}

impl Workload {
    /// Behavioural annotations for `block`.
    pub fn control_of(&self, id: BlockId) -> &BlockControl {
        &self.control[id.0 as usize]
    }
}

// ---------------------------------------------------------------------------
// Symbolic (pre-layout) representation
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum STarget {
    /// Block index within the same function.
    Local(usize),
}

#[derive(Debug, Clone)]
enum STerm {
    Cond { taken: STarget, model: BranchModel },
    Jump { target: STarget },
    Call { callee: usize },
    Ret,
    Fall,
}

#[derive(Debug, Clone)]
struct SInst {
    op: OpClass,
    mem: Option<MemModel>,
}

#[derive(Debug, Clone)]
struct SBlock {
    insts: Vec<SInst>,
    term: STerm,
}

impl SBlock {
    /// Instructions this block contributes, terminator included.
    fn size(&self) -> u64 {
        let term = match self.term {
            STerm::Fall => 0,
            _ => 1,
        };
        self.insts.len() as u64 + term
    }
}

#[derive(Debug, Clone)]
struct SFunc {
    blocks: Vec<SBlock>,
}

impl SFunc {
    fn size(&self) -> u64 {
        self.blocks.iter().map(SBlock::size).sum()
    }
}

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

struct Gen<'p> {
    p: &'p BenchmarkProfile,
    rng: SmallRng,
    /// Function index ranges per level.
    levels: Vec<std::ops::Range<usize>>,
    /// Shared hot data regions: the program's few cache-resident
    /// structures that most memory sites touch.  Keeping the *aggregate*
    /// hot footprint small (not just each site's span) is what gives the
    /// workload realistic D-cache hit rates.
    hot_pool: Vec<(Addr, u32)>,
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
        Gen {
            p,
            rng,
            levels,
            hot_pool,
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
        let total: f64 = (0..count).map(|r| ((r + 1) as f64).powf(-alpha)).sum();
        let mut x = self.rng.gen::<f64>() * total;
        for r in 0..count {
            x -= ((r + 1) as f64).powf(-alpha);
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

    fn payload_inst(&mut self) -> SInst {
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
        SInst { op, mem }
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

    fn payload(&mut self, n: u32) -> Vec<SInst> {
        (0..n).map(|_| self.payload_inst()).collect()
    }

    fn block_len(&mut self) -> u32 {
        let (lo, hi) = self.p.block_insts;
        self.rng.gen_range(lo..=hi)
    }

    /// A profile-sized payload vector (hoists the length sample to avoid
    /// nested mutable borrows).
    fn block_payload(&mut self) -> Vec<SInst> {
        let n = self.block_len();
        self.payload(n)
    }

    fn short_payload(&mut self, hi: u32) -> Vec<SInst> {
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

    /// Generate one function body.
    /// Generate the blocks of one structured region, starting at block
    /// index `base` within the function.  Regions are sequences of guarded
    /// call sites, (possibly nested) loops over sub-regions, if-diamonds and
    /// straight-line blocks; `STarget::Local` indices are absolute within
    /// the function, so nested regions compose without relocation.
    #[allow(clippy::too_many_arguments)]
    fn gen_region(
        &mut self,
        func: usize,
        level: usize,
        is_root: bool,
        base: usize,
        budget: u64,
        call_sites_left: &mut u32,
        depth: u32,
    ) -> Vec<SBlock> {
        let mut blocks: Vec<SBlock> = Vec::new();
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
                    let g = SBlock {
                        insts: self.payload(guard_len),
                        term: STerm::Cond {
                            taken: STarget::Local(base + blocks.len() + 2),
                            model,
                        },
                    };
                    let c = SBlock {
                        insts: self.short_payload(2),
                        term: STerm::Call { callee },
                    };
                    used += g.size() + c.size();
                    blocks.push(g);
                    blocks.push(c);
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
                let head_idx = base + blocks.len();
                let mut inner = self.gen_region(
                    func,
                    level,
                    is_root,
                    head_idx,
                    inner_budget,
                    call_sites_left,
                    depth + 1,
                );
                if inner.is_empty() {
                    inner.push(SBlock {
                        insts: self.block_payload(),
                        term: STerm::Fall,
                    });
                }
                used += inner.iter().map(SBlock::size).sum::<u64>();
                blocks.extend(inner);
                // Back-edge block closing the loop.
                let back = SBlock {
                    insts: self.short_payload(3),
                    term: STerm::Cond {
                        taken: STarget::Local(head_idx),
                        model: self.loop_model(),
                    },
                };
                used += back.size();
                blocks.push(back);
            } else if roll < 0.80 {
                // Diamond: conditional skip of the next block.
                let a = SBlock {
                    insts: self.block_payload(),
                    term: STerm::Cond {
                        taken: STarget::Local(base + blocks.len() + 2),
                        model: self.cond_model(),
                    },
                };
                let b = SBlock {
                    insts: self.block_payload(),
                    term: STerm::Fall,
                };
                used += a.size() + b.size();
                blocks.push(a);
                blocks.push(b);
            } else {
                let s = SBlock {
                    insts: self.block_payload(),
                    term: STerm::Fall,
                };
                used += s.size();
                blocks.push(s);
            }
        }
        blocks
    }

    /// Generate one function body.
    fn gen_function(&mut self, func: usize, budget: u64) -> SFunc {
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

        let mut blocks = self.gen_region(
            func,
            level,
            is_root,
            0,
            budget.saturating_sub(2),
            &mut call_sites_left,
            0,
        );

        // Padding so tiny budgets still produce a body.
        if blocks.is_empty() {
            blocks.push(SBlock {
                insts: self.block_payload(),
                term: STerm::Fall,
            });
        }
        // Final block: return (or the dispatcher's eternal loop).
        let fin = SBlock {
            insts: self.payload(1),
            term: if is_root {
                STerm::Jump {
                    target: STarget::Local(0),
                }
            } else {
                STerm::Ret
            },
        };
        blocks.push(fin);
        SFunc { blocks }
    }
}

// ---------------------------------------------------------------------------
// Materialisation
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
}

/// Build the full workload for `profile` from `seed`.
pub fn build(profile: &BenchmarkProfile, seed: u64) -> Workload {
    let mut g = Gen::new(profile, seed);
    let n = profile.n_funcs as usize;
    let per_func = (profile.target_insts() / n as u64).max(24);

    // Symbolic pass.
    let mut funcs = Vec::with_capacity(n);
    for f in 0..n {
        // The dispatcher gets a slightly larger share; leaves vary ±40%.
        let jitter = 0.6 + g.rng.gen::<f64>() * 0.8;
        let budget = if f == 0 {
            (per_func as f64 * 1.5) as u64
        } else {
            (per_func as f64 * jitter) as u64
        }
        .max(16);
        funcs.push(g.gen_function(f, budget));
    }

    // Layout pass: function entries by prefix sum.
    let mut entries = Vec::with_capacity(n);
    let mut cursor = CODE_BASE;
    for f in &funcs {
        entries.push(cursor);
        cursor += f.size() * INST_BYTES;
    }

    // Emission pass.
    let mut ra = RegAlloc::new(seed);
    let mut pb = ProgramBuilder::new();
    // Per-block control in emission order.  Blocks are emitted in address
    // order, so `finish`'s sort by start keeps this order.
    let mut control = Vec::new();
    for (fi, f) in funcs.iter().enumerate() {
        // Block start addresses within the function.
        let mut starts = Vec::with_capacity(f.blocks.len());
        let mut pc = entries[fi];
        for b in &f.blocks {
            starts.push(pc);
            pc += b.size() * INST_BYTES;
        }
        let resolve = |t: &STarget| -> Addr {
            match *t {
                STarget::Local(i) => {
                    if i < starts.len() {
                        starts[i]
                    } else {
                        // Clamped skip target: the function's final block.
                        *starts.last().unwrap()
                    }
                }
            }
        };

        for (bi, b) in f.blocks.iter().enumerate() {
            let start = starts[bi];
            let mut insts = Vec::with_capacity(b.insts.len() + 1);
            let mut ctrl = BlockControl::default();
            let mut pc = start;
            for (ii, si) in b.insts.iter().enumerate() {
                let inst = match si.op {
                    OpClass::Load => StaticInst::plain(
                        pc,
                        OpClass::Load,
                        Some(ra.fresh_dst(false)),
                        Some(ra.src()),
                        None,
                    ),
                    OpClass::Store => {
                        StaticInst::plain(pc, OpClass::Store, None, Some(ra.src()), Some(ra.src()))
                    }
                    OpClass::FpAlu | OpClass::FpMul => StaticInst::plain(
                        pc,
                        si.op,
                        Some(ra.fresh_dst(true)),
                        Some(ra.src()),
                        Some(ra.src()),
                    ),
                    op => StaticInst::plain(
                        pc,
                        op,
                        Some(ra.fresh_dst(false)),
                        Some(ra.src()),
                        Some(ra.src()),
                    ),
                };
                if let Some(m) = si.mem {
                    ctrl.mem.push((ii as u16, m));
                }
                insts.push(inst);
                pc += INST_BYTES;
            }
            let term = match &b.term {
                STerm::Cond { taken, model } => {
                    let taken_addr = resolve(taken);
                    insts.push(StaticInst::cti(pc, OpClass::CondBranch, Some(taken_addr)));
                    ctrl.branch = Some(*model);
                    Terminator::CondBranch {
                        taken: taken_addr,
                        not_taken: pc + INST_BYTES,
                    }
                }
                STerm::Jump { target } => {
                    let t = resolve(target);
                    insts.push(StaticInst::cti(pc, OpClass::Jump, Some(t)));
                    Terminator::Jump { target: t }
                }
                STerm::Call { callee } => {
                    let t = entries[*callee];
                    insts.push(StaticInst::cti(pc, OpClass::Call, Some(t)));
                    Terminator::Call {
                        target: t,
                        link: pc + INST_BYTES,
                    }
                }
                STerm::Ret => {
                    insts.push(StaticInst::cti(pc, OpClass::Return, None));
                    Terminator::Return
                }
                STerm::Fall => Terminator::FallThrough { next: pc },
            };
            control.push((start, ctrl));
            pb.push(BasicBlock {
                id: BlockId(u32::MAX),
                start,
                insts,
                term,
            });
        }
    }
    pb.entry(entries[0]);
    let program = pb
        .finish()
        .unwrap_or_else(|e| panic!("generated program for '{}' invalid: {e}", profile.name));

    assert_eq!(
        control.len(),
        program.blocks().len(),
        "one control entry per block"
    );
    let control = program
        .blocks()
        .iter()
        .zip(control)
        .map(|(b, (start, ctrl))| {
            assert_eq!(
                b.start, start,
                "block {:?} of '{}' left emission order: starts at {:#x}, emitted at {start:#x}",
                b.id, profile.name, b.start
            );
            ctrl
        })
        .collect();

    Workload {
        profile: profile.clone(),
        program: Arc::new(program),
        control,
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
            let ctrl = w.control_of(b.id);
            for (i, inst) in b.insts.iter().enumerate() {
                if inst.op.is_mem() {
                    assert!(
                        ctrl.mem.iter().any(|&(idx, _)| idx as usize == i),
                        "mem inst {:#x} lacks a model",
                        inst.pc
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
