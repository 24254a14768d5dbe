//! Pins the generated programs themselves, not only the IPC they yield.
//!
//! Every SPECint2000 workload built at seed 42 is folded into one FNV-1a
//! digest per benchmark: the entry point, then per block its start, every
//! `StaticInst`, its terminator, its branch model and its memory sites
//! (instruction index and address model), all through their `Debug`
//! forms.  The digests were computed before the program build was
//! rewritten to append into shared arenas, so a build that drew either
//! RNG stream in a different order, or laid out one block differently,
//! fails here by benchmark name before any engine golden notices.
//!
//! They were also computed while a `StaticInst` still carried its own pc
//! and direct target, so [`insts_debug`] renders each instruction in that
//! form, deriving both from its block.

use fetch_prestaging::isa::{BasicBlock, INST_BYTES};
use fetch_prestaging::workload::{self, Workload};
use std::fmt::Write;

/// `(benchmark, digest)` of `workload::build_workload(profile, 42)`.
const SEED_42_DIGESTS: [(&str, u64); 12] = [
    ("gzip", 0xa52a_732d_13fb_8b08),
    ("vpr", 0xef49_3531_32a0_e718),
    ("gcc", 0xd605_562d_da82_e9c8),
    ("mcf", 0xedbc_a13f_d166_a6a3),
    ("crafty", 0x82c9_2bcd_31c7_6c15),
    ("parser", 0xe7c6_8e21_958c_1390),
    ("eon", 0x1b32_1063_6c7c_260d),
    ("perlbmk", 0x5d58_410e_91d7_962f),
    ("gap", 0x8ec1_28f4_686f_2a54),
    ("vortex", 0xa35e_80b2_7c7d_b56f),
    ("bzip2", 0xa025_82ba_23ec_4ba5),
    ("twolf", 0xe423_0e9d_b59b_9d36),
];

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `b.insts` as `Debug` rendered it when each instruction held its pc and
/// direct target: the pc from the block's start and the instruction's
/// index, the target of the final CTI from the block's terminator.
fn insts_debug(s: &mut String, b: &BasicBlock) {
    s.push('[');
    for (i, inst) in b.insts.iter().enumerate() {
        let pc = b.start + i as u64 * INST_BYTES;
        let target = b.term.direct_target().filter(|_| inst.op.is_cti());
        if i > 0 {
            s.push_str(", ");
        }
        write!(
            s,
            "StaticInst {{ pc: {pc}, op: {:?}, dst: {:?}, src1: {:?}, src2: {:?}, target: {target:?} }}",
            inst.op, inst.dst, inst.src1, inst.src2
        )
        .unwrap();
    }
    s.push(']');
}

fn digest(w: &Workload) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut s = String::new();
    write!(s, "entry {:#x}", w.program.entry()).unwrap();
    h = fnv1a(h, s.as_bytes());
    for b in w.program.blocks() {
        s.clear();
        write!(s, "{:#x}|", b.start).unwrap();
        insts_debug(&mut s, b);
        write!(
            s,
            "|{:?}|{:?}|{:?}",
            b.term,
            w.control_of(b.id).branch,
            w.mem_sites(b.id)
        )
        .unwrap();
        h = fnv1a(h, s.as_bytes());
    }
    h
}

#[test]
fn seed_42_programs_match_their_pinned_digests() {
    let got: Vec<(&str, u64)> = workload::specint2000()
        .iter()
        .map(|p| (p.name, digest(&workload::build_workload(p, 42))))
        .collect();
    assert_eq!(got, SEED_42_DIGESTS, "a generated program changed");
}

#[test]
fn seed_42_programs_derive_pcs_and_targets_from_their_blocks() {
    for p in workload::specint2000() {
        let w = workload::build_workload(&p, 42);
        let prog = &w.program;
        for b in prog.blocks() {
            for (i, inst) in b.insts.iter().enumerate() {
                let pc = b.start + i as u64 * INST_BYTES;
                assert_eq!(prog.inst_at(pc), Some(inst), "{}: inst at {pc:#x}", p.name);
            }
            if let Some(target) = b.term.direct_target() {
                assert_eq!(
                    prog.block_at(target).map(|t| t.start),
                    Some(target),
                    "{}: block {:#x} targets {target:#x}, not a block start",
                    p.name,
                    b.start
                );
            }
        }
    }
}
