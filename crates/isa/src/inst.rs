//! Static instruction model: operation classes, registers, and the
//! per-instruction record stored in the basic-block dictionary.
//!
//! A [`StaticInst`] holds only what is its own: its operation class and
//! its registers.  Where it sits and where it jumps belong to its block
//! ([`crate::BasicBlock`]): instruction `i` of a block is at
//! `start + i * INST_BYTES`, and a direct CTI's target is the block
//! terminator's ([`crate::Terminator::direct_target`]).

/// Total architectural registers: 32 integer + 32 floating point.
pub const NUM_REGS: usize = 64;
/// First floating-point register index.
pub const FIRST_FP_REG: u8 = 32;
/// The hard-wired zero register (Alpha `r31`): never creates a dependency.
pub const REG_ZERO: Reg = Reg(31);

/// An architectural register.  `0..32` integer, `32..64` floating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// Integer register `i`.
    pub fn int(i: u8) -> Reg {
        assert!(i < FIRST_FP_REG);
        Reg(i)
    }

    /// Floating-point register `i`.
    pub fn fp(i: u8) -> Reg {
        assert!(i < 32);
        Reg(FIRST_FP_REG + i)
    }

    /// True for the hard-wired zero register, which never carries a
    /// dependency.
    pub fn is_zero(self) -> bool {
        self == REG_ZERO
    }

    /// Index into a 64-entry scoreboard.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Operation class of a static instruction.
///
/// The back-end only needs classes (for latency and port binding), not full
/// opcodes — the same granularity the paper's trace simulator keeps in its
/// basic-block dictionary ("type, source/target registers").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Integer multiply (long latency).
    IntMul,
    /// Floating-point add/sub/convert.
    FpAlu,
    /// Floating-point multiply/divide.
    FpMul,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    CondBranch,
    /// Unconditional direct jump.
    Jump,
    /// Direct call (pushes a return address).
    Call,
    /// Return (pops a return address).
    Return,
}

impl OpClass {
    /// Execution latency in cycles once issued (loads add cache time).
    pub fn exec_latency(self) -> u32 {
        match self {
            OpClass::IntAlu
            | OpClass::CondBranch
            | OpClass::Jump
            | OpClass::Call
            | OpClass::Return
            | OpClass::Store => 1,
            OpClass::IntMul => 7,
            OpClass::FpAlu => 4,
            OpClass::FpMul => 6,
            OpClass::Load => 1, // plus memory time
        }
    }

    /// Any control-transfer instruction.
    pub fn is_cti(self) -> bool {
        matches!(
            self,
            OpClass::CondBranch | OpClass::Jump | OpClass::Call | OpClass::Return
        )
    }

    /// Touches data memory.
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }
}

/// One static instruction in the basic-block dictionary: its class and
/// registers, with its pc and target left to its block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticInst {
    /// Operation class.
    pub op: OpClass,
    /// Destination register, if any.
    pub dst: Option<Reg>,
    /// First source register, if any.
    pub src1: Option<Reg>,
    /// Second source register, if any.
    pub src2: Option<Reg>,
}

// Every program holds one of these per static instruction.
const _: () = assert!(std::mem::size_of::<StaticInst>() <= 8);

impl StaticInst {
    /// A plain non-CTI instruction.
    pub fn plain(op: OpClass, dst: Option<Reg>, src1: Option<Reg>, src2: Option<Reg>) -> Self {
        assert!(!op.is_cti(), "use StaticInst::cti for control transfers");
        StaticInst {
            op,
            dst,
            src1,
            src2,
        }
    }

    /// A control-transfer instruction; its target is its block's
    /// terminator's.
    pub fn cti(op: OpClass) -> Self {
        assert!(op.is_cti());
        StaticInst {
            op,
            dst: None,
            src1: None,
            src2: None,
        }
    }

    /// Destination that actually produces a value (zero register excluded).
    pub fn dep_dest(&self) -> Option<Reg> {
        self.dst.filter(|r| !r.is_zero())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_ordered() {
        assert!(OpClass::IntMul.exec_latency() > OpClass::IntAlu.exec_latency());
        assert!(OpClass::FpMul.exec_latency() > OpClass::FpAlu.exec_latency());
    }

    #[test]
    fn cti_classification() {
        assert!(OpClass::CondBranch.is_cti());
        assert!(OpClass::Return.is_cti());
        assert!(!OpClass::Load.is_cti());
    }

    #[test]
    fn zero_register_breaks_dependencies() {
        let i = StaticInst::plain(
            OpClass::IntAlu,
            Some(REG_ZERO),
            Some(Reg::int(3)),
            Some(REG_ZERO),
        );
        assert_eq!(i.dep_dest(), None);
    }

    #[test]
    fn fp_registers_distinct_from_int() {
        assert_ne!(Reg::int(5), Reg::fp(5));
        assert_eq!(Reg::fp(0).index(), 32);
    }

    #[test]
    #[should_panic]
    fn plain_rejects_cti() {
        StaticInst::plain(OpClass::Jump, None, None, None);
    }

    #[test]
    #[should_panic]
    fn cti_rejects_plain_ops() {
        StaticInst::cti(OpClass::Load);
    }
}
