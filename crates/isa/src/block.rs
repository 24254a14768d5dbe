//! Basic blocks and their terminators.
//!
//! A block is the one home of what its instructions share or imply: its
//! `start`, from which instruction `i` sits at `start + i * INST_BYTES`,
//! and its [`Terminator`], which holds the final CTI's direct target
//! ([`Terminator::direct_target`]).  A [`StaticInst`] stores neither.

use crate::addr::{Addr, INST_BYTES};
use crate::inst::{OpClass, StaticInst};
use std::ops::{Deref, Range};
use std::sync::Arc;

/// Identifier of a basic block inside a [`crate::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// How control leaves a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminator {
    /// Conditional branch: `taken` target or fall-through.
    CondBranch { taken: Addr, not_taken: Addr },
    /// Unconditional jump.
    Jump { target: Addr },
    /// Call: control goes to `target`; `link` is the return address
    /// (pushed on the RAS).
    Call { target: Addr, link: Addr },
    /// Return through the RAS.
    Return,
    /// No control transfer: execution falls through to `next`.
    FallThrough { next: Addr },
}

impl Terminator {
    /// All statically-known successor addresses (RAS targets excluded).
    pub fn static_successors(&self) -> impl Iterator<Item = Addr> {
        let (first, second) = match *self {
            Terminator::CondBranch { taken, not_taken } => (Some(taken), Some(not_taken)),
            Terminator::Jump { target } | Terminator::Call { target, .. } => (Some(target), None),
            Terminator::Return => (None, None),
            Terminator::FallThrough { next } => (Some(next), None),
        };
        first.into_iter().chain(second)
    }

    /// The direct target of the block's final CTI: the taken target of a
    /// conditional branch, the target of a jump or call; `None` for a
    /// return (its target comes from the RAS) and for a fall-through.
    #[inline]
    pub fn direct_target(&self) -> Option<Addr> {
        match *self {
            Terminator::CondBranch { taken: t, .. }
            | Terminator::Jump { target: t }
            | Terminator::Call { target: t, .. } => Some(t),
            Terminator::Return | Terminator::FallThrough { .. } => None,
        }
    }

    /// The class of the CTI ending a block with this terminator (none for a fall-through).
    pub fn cti(&self) -> Option<OpClass> {
        match self {
            Terminator::CondBranch { .. } => Some(OpClass::CondBranch),
            Terminator::Jump { .. } => Some(OpClass::Jump),
            Terminator::Call { .. } => Some(OpClass::Call),
            Terminator::Return => Some(OpClass::Return),
            Terminator::FallThrough { .. } => None,
        }
    }
}

/// The instructions of one basic block: a window onto an instruction
/// array that every block of a program may share, so a program costs one
/// instruction allocation rather than one per block.  Derefs to the
/// window's slice.
#[derive(Clone)]
pub struct BlockInsts {
    all: Arc<Vec<StaticInst>>,
    start: u32,
    end: u32,
}

impl BlockInsts {
    /// The instructions `range` of `all`.
    ///
    /// # Panics
    /// If `range` is not a range of `all`'s indices.
    pub fn window(all: &Arc<Vec<StaticInst>>, range: Range<u32>) -> BlockInsts {
        assert!(
            range.start <= range.end && range.end as usize <= all.len(),
            "block instructions {range:?} lie outside the {} shared instructions",
            all.len()
        );
        BlockInsts {
            all: Arc::clone(all),
            start: range.start,
            end: range.end,
        }
    }
}

impl From<Vec<StaticInst>> for BlockInsts {
    /// A block that owns its instructions.
    fn from(insts: Vec<StaticInst>) -> BlockInsts {
        let end = u32::try_from(insts.len())
            .unwrap_or_else(|_| panic!("a block of {} instructions overflows u32", insts.len()));
        BlockInsts {
            all: Arc::new(insts),
            start: 0,
            end,
        }
    }
}

impl Deref for BlockInsts {
    type Target = [StaticInst];

    #[inline]
    fn deref(&self) -> &[StaticInst] {
        &self.all[self.start as usize..self.end as usize]
    }
}

impl PartialEq for BlockInsts {
    fn eq(&self, other: &BlockInsts) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for BlockInsts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// A straight-line run of instructions ending in (at most) one control
/// transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    pub id: BlockId,
    /// PC of the first instruction.
    pub start: Addr,
    /// The instructions, contiguous from `start` at 4-byte stride.  When the
    /// terminator is a CTI, the final instruction is that CTI.
    pub insts: BlockInsts,
    pub term: Terminator,
}

impl BasicBlock {
    /// PC one past the last instruction (= fall-through address).
    pub fn end(&self) -> Addr {
        self.start + self.insts.len() as u64 * INST_BYTES
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True when the block holds no instructions (invalid in a finished
    /// program; used transiently by builders).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Whether `pc` addresses an instruction in this block.
    pub fn contains(&self, pc: Addr) -> bool {
        pc >= self.start && pc < self.end() && (pc - self.start).is_multiple_of(INST_BYTES)
    }

    /// The instruction at `pc`, if it lies in this block.
    pub fn inst_at(&self, pc: Addr) -> Option<&StaticInst> {
        if !self.contains(pc) {
            return None;
        }
        let idx = ((pc - self.start) / INST_BYTES) as usize;
        self.insts.get(idx)
    }

    /// Internal consistency: a CTI only as the final instruction, and
    /// that CTI and the fall-through address matching the terminator.
    pub fn validate(&self) -> Result<(), String> {
        let Some((last, body)) = self.insts.split_last() else {
            return Err(format!("block {:?} at {:#x} is empty", self.id, self.start));
        };
        if let Some(i) = body.iter().position(|inst| inst.op.is_cti()) {
            return Err(format!(
                "block {:?}: CTI at {:#x} is not the final instruction",
                self.id,
                self.start + i as u64 * INST_BYTES
            ));
        }
        let falls_to_end = match self.term {
            Terminator::CondBranch {
                not_taken: next, ..
            }
            | Terminator::Call { link: next, .. }
            | Terminator::FallThrough { next } => next == self.end(),
            Terminator::Jump { .. } | Terminator::Return => true,
        };
        if !falls_to_end || self.term.cti() != Some(last.op).filter(|op| op.is_cti()) {
            return Err(format!(
                "block {:?}: terminator {:?} inconsistent with final inst {:?}",
                self.id, self.term, last
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Reg;

    fn mkblock(start: Addr, n_plain: usize, term: Terminator) -> BasicBlock {
        let alu = StaticInst::plain(OpClass::IntAlu, Some(Reg::int(1)), Some(Reg::int(2)), None);
        let mut insts = vec![alu; n_plain];
        insts.extend(term.cti().map(StaticInst::cti));
        BasicBlock {
            id: BlockId(0),
            start,
            insts: insts.into(),
            term,
        }
    }

    #[test]
    fn end_and_contains() {
        let b = mkblock(
            0x1000,
            3,
            Terminator::CondBranch {
                taken: 0x2000,
                not_taken: 0x1010,
            },
        );
        assert_eq!(b.end(), 0x1010);
        assert!(b.contains(0x1000));
        assert!(b.contains(0x100c));
        assert!(!b.contains(0x1010));
        assert!(!b.contains(0x1002)); // misaligned
        assert!(b.validate().is_ok());
    }

    #[test]
    fn inst_lookup() {
        let b = mkblock(0x40, 2, Terminator::Jump { target: 0x80 });
        assert_eq!(b.inst_at(0x44).unwrap().op, OpClass::IntAlu);
        assert_eq!(b.inst_at(0x48).unwrap().op, OpClass::Jump);
        assert!(b.inst_at(0x4c).is_none());
        assert!(b.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_fallthrough() {
        let b = mkblock(0x40, 2, Terminator::FallThrough { next: 0x99 });
        assert!(b.validate().is_err());
    }

    #[test]
    fn validation_catches_mid_block_cti() {
        let mut b = mkblock(0x40, 2, Terminator::FallThrough { next: 0x48 });
        let mut insts = b.insts.to_vec();
        insts[0] = StaticInst::cti(OpClass::Jump);
        b.insts = insts.into();
        assert!(b.validate().is_err());
    }

    #[test]
    fn validation_catches_a_final_op_the_terminator_disagrees_with() {
        let mut b = mkblock(0x40, 2, Terminator::Return);
        let mut insts = b.insts.to_vec();
        insts[2] = StaticInst::cti(OpClass::Jump);
        b.insts = insts.into();
        assert!(b.validate().is_err());
        b.term = Terminator::Jump { target: 0x40 };
        assert!(b.validate().is_ok());
    }

    #[test]
    fn successors() {
        let t = Terminator::CondBranch {
            taken: 0x2000,
            not_taken: 0x1010,
        };
        assert!(t.static_successors().eq([0x2000, 0x1010]));
        assert_eq!(Terminator::Return.static_successors().count(), 0);
        assert_eq!(t.direct_target(), Some(0x2000));
        let call = Terminator::Call {
            target: 0x3000,
            link: 0x1010,
        };
        assert_eq!(call.direct_target(), Some(0x3000));
        assert_eq!(Terminator::Return.direct_target(), None);
        assert_eq!(Terminator::FallThrough { next: 0x40 }.direct_target(), None);
    }
}
