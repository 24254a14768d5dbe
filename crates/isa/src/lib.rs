//! # prestage-isa
//!
//! The instruction-set substrate of the fetch-prestaging reproduction: an
//! Alpha-AXP-flavoured instruction model (fixed 4-byte instructions, 32
//! integer + 32 floating-point registers), basic blocks, and the **static
//! basic-block dictionary** ([`Program`]).
//!
//! The paper's trace-driven simulator "permit\[s\] execution along wrong paths
//! by having a separate basic block dictionary in which we have the
//! information of all static instructions (type, source/target registers)"
//! (§4).  [`Program`] is that dictionary: given any PC inside the program
//! image it returns the static instruction, its basic block, and the block's
//! control-flow successors, which is exactly what the front-end needs to
//! keep fetching (and prefetching, and speculatively updating the branch
//! predictor) down a mispredicted path.

pub mod addr;
pub mod block;
pub mod inst;
pub mod program;

pub use addr::{align_line, Addr, INST_BYTES};
pub use block::{BasicBlock, BlockId, BlockInsts, Terminator};
pub use inst::{OpClass, Reg, StaticInst, FIRST_FP_REG, NUM_REGS, REG_ZERO};
pub use program::{straightline_block, Program, ProgramBuilder, ProgramError};
