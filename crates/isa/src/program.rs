//! The static program image: the paper's "basic block dictionary".
//!
//! §4 of the paper: *"We permit execution along wrong paths by having a
//! separate basic block dictionary in which we have the information of all
//! static instructions (type, source/target registers). That allows for
//! prefetching even along wrong paths, as well as performing speculative
//! lookups and updates of the branch predictor."*
//!
//! [`Program`] provides exactly that: O(log n) lookup from any PC to its
//! static instruction and enclosing basic block.

use crate::addr::Addr;
use crate::block::{BasicBlock, BlockId, Terminator};
use crate::inst::StaticInst;

/// Errors detected while assembling a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// Two blocks overlap in the address space.
    Overlap { a: BlockId, b: BlockId },
    /// A block failed internal validation.
    InvalidBlock(String),
    /// A control-flow target does not resolve to the start of any
    /// instruction in the program.
    DanglingTarget { from: BlockId, target: Addr },
    /// The program has no blocks.
    Empty,
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::Overlap { a, b } => write!(f, "blocks {a:?} and {b:?} overlap"),
            ProgramError::InvalidBlock(msg) => write!(f, "invalid block: {msg}"),
            ProgramError::DanglingTarget { from, target } => {
                write!(f, "block {from:?} targets unmapped address {target:#x}")
            }
            ProgramError::Empty => write!(f, "program has no basic blocks"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// An immutable static program image (basic-block dictionary).
#[derive(Debug, Clone)]
pub struct Program {
    /// Blocks sorted by start address; `BlockId` indexes this vector.
    blocks: Vec<BasicBlock>,
    /// Entry point.
    entry: Addr,
}

impl Program {
    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total static instructions.
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).sum()
    }

    /// The entry-point PC.
    pub fn entry(&self) -> Addr {
        self.entry
    }

    /// All blocks, in address order.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// The block with the given id.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.0 as usize]
    }

    /// The block containing `pc`, if any.
    pub fn block_at(&self, pc: Addr) -> Option<&BasicBlock> {
        let idx = self.blocks.partition_point(|b| b.start <= pc);
        if idx == 0 {
            return None;
        }
        let b = &self.blocks[idx - 1];
        b.contains(pc).then_some(b)
    }

    /// The static instruction at `pc`, if mapped.
    pub fn inst_at(&self, pc: Addr) -> Option<&StaticInst> {
        self.block_at(pc)?.inst_at(pc)
    }

    /// True when `pc` addresses a mapped instruction.
    pub fn is_mapped(&self, pc: Addr) -> bool {
        self.inst_at(pc).is_some()
    }
}

/// Incrementally assembles a [`Program`].
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    blocks: Vec<BasicBlock>,
    entry: Option<Addr>,
}

impl ProgramBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder holding `blocks`, as if each had been
    /// [`push`](Self::push)ed in order.
    pub fn from_blocks(blocks: Vec<BasicBlock>) -> Self {
        ProgramBuilder {
            blocks,
            entry: None,
        }
    }

    /// Set the entry point (defaults to the lowest block start).
    pub fn entry(&mut self, pc: Addr) -> &mut Self {
        self.entry = Some(pc);
        self
    }

    /// Add a block.  Ids are reassigned on `finish` to address order.
    pub fn push(&mut self, block: BasicBlock) -> &mut Self {
        self.blocks.push(block);
        self
    }

    /// Validate everything and produce the immutable program.
    pub fn finish(mut self) -> Result<Program, ProgramError> {
        if self.blocks.is_empty() {
            return Err(ProgramError::Empty);
        }
        // Builders that push in address order skip the sort (and the
        // scratch buffer a stable sort allocates).
        if !self.blocks.is_sorted_by_key(|b| b.start) {
            self.blocks.sort_by_key(|b| b.start);
        }
        for (i, b) in self.blocks.iter_mut().enumerate() {
            b.id = BlockId(i as u32);
        }
        for w in self.blocks.windows(2) {
            if w[1].start < w[0].end() {
                return Err(ProgramError::Overlap {
                    a: w[0].id,
                    b: w[1].id,
                });
            }
        }
        for b in &self.blocks {
            b.validate().map_err(ProgramError::InvalidBlock)?;
        }
        let entry = self.entry.unwrap_or(self.blocks[0].start);
        let prog = Program {
            blocks: self.blocks,
            entry,
        };
        // Every static successor and the entry must resolve.
        if !prog.is_mapped(prog.entry) {
            return Err(ProgramError::DanglingTarget {
                from: BlockId(0),
                target: prog.entry,
            });
        }
        for b in prog.blocks() {
            for succ in b.term.static_successors() {
                if !prog.is_mapped(succ) {
                    return Err(ProgramError::DanglingTarget {
                        from: b.id,
                        target: succ,
                    });
                }
            }
        }
        Ok(prog)
    }
}

/// Convenience: build a straight-line block of `n` ALU instructions ending
/// with the given terminator CTI (used heavily in tests across the
/// workspace).
pub fn straightline_block(start: Addr, n_plain: usize, term: Terminator) -> BasicBlock {
    use crate::inst::{OpClass, Reg};
    let mut insts = Vec::with_capacity(n_plain + 1);
    for i in 0..n_plain {
        insts.push(StaticInst::plain(
            OpClass::IntAlu,
            Some(Reg::int((i % 30) as u8 + 1)),
            Some(Reg::int(((i + 1) % 30) as u8 + 1)),
            None,
        ));
    }
    insts.extend(term.cti().map(StaticInst::cti));
    BasicBlock {
        id: BlockId(u32::MAX),
        start,
        insts: insts.into(),
        term,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::OpClass;

    fn two_block_program() -> Program {
        let mut pb = ProgramBuilder::new();
        pb.push(straightline_block(
            0x1000,
            3,
            Terminator::CondBranch {
                taken: 0x1000,
                not_taken: 0x1010,
            },
        ));
        pb.push(straightline_block(0x1010, 4, Terminator::Return));
        pb.finish().unwrap()
    }

    #[test]
    fn lookup_paths() {
        let p = two_block_program();
        assert_eq!(p.num_blocks(), 2);
        assert_eq!(p.num_insts(), 9);
        assert_eq!(p.entry(), 0x1000);
        assert!(p.block_at(0x100c).unwrap().contains(0x100c));
        assert_eq!(p.inst_at(0x100c).unwrap().op, OpClass::CondBranch);
        assert_eq!(p.inst_at(0x1020).unwrap().op, OpClass::Return);
        assert!(p.inst_at(0x0).is_none());
        assert!(p.inst_at(0x1024).is_none());
    }

    #[test]
    fn rejects_overlap() {
        let mut pb = ProgramBuilder::new();
        pb.push(straightline_block(
            0x1000,
            4,
            Terminator::FallThrough { next: 0x1014 },
        ));
        pb.push(straightline_block(0x1008, 4, Terminator::Return));
        assert!(matches!(pb.finish(), Err(ProgramError::Overlap { .. })));
    }

    #[test]
    fn rejects_dangling_target() {
        let mut pb = ProgramBuilder::new();
        pb.push(straightline_block(
            0x1000,
            2,
            Terminator::Jump { target: 0xdead0 },
        ));
        assert!(matches!(
            pb.finish(),
            Err(ProgramError::DanglingTarget { .. })
        ));
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            ProgramBuilder::new().finish(),
            Err(ProgramError::Empty)
        ));
    }

    #[test]
    fn fallthrough_must_be_contiguous() {
        let mut pb = ProgramBuilder::new();
        // FallThrough block whose `next` skips a gap: block validation fails.
        pb.push(straightline_block(
            0x1000,
            2,
            Terminator::FallThrough { next: 0x2000 },
        ));
        pb.push(straightline_block(0x2000, 2, Terminator::Return));
        assert!(matches!(pb.finish(), Err(ProgramError::InvalidBlock(_))));
    }
}
