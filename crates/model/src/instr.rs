//! The trace-level micro-operation record.
//!
//! The reproduction is trace driven: the workload generators in `dkip-trace`
//! emit a stream of [`MicroOp`]s describing the dynamic *correct-path*
//! instruction stream, and the core models in `dkip-ooo`, `dkip-kilo` and
//! `dkip-core` simulate their timing.

use crate::op::OpClass;
use crate::reg::{ArchReg, RegClass};
use std::fmt;

/// The kind of a control-flow instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// A conditional branch whose direction must be predicted.
    Conditional,
    /// An unconditional direct jump (always taken, trivially predicted).
    Jump,
    /// A call instruction (pushes the return-address stack).
    Call,
    /// A return instruction (pops the return-address stack).
    Return,
}

/// The resolved control-flow behaviour of a branch micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchInfo {
    /// What kind of control-flow instruction this is.
    pub kind: BranchKind,
    /// The architecturally correct direction (true = taken).
    pub taken: bool,
    /// The architecturally correct target address.
    pub target: u64,
}

impl BranchInfo {
    /// A taken conditional branch to `target`.
    #[must_use]
    pub fn conditional(taken: bool, target: u64) -> Self {
        BranchInfo {
            kind: BranchKind::Conditional,
            taken,
            target,
        }
    }
}

/// A single dynamic micro-operation of the correct-path instruction stream.
///
/// `seq` is a dense dynamic sequence number assigned by the generator; all
/// core models identify in-flight instructions by it.
///
/// # Example
///
/// ```
/// use dkip_model::instr::MicroOp;
/// use dkip_model::op::OpClass;
/// use dkip_model::reg::ArchReg;
///
/// let op = MicroOp::new(0, 0x1000, OpClass::IntAlu)
///     .with_dst(ArchReg::int(1))
///     .with_src(ArchReg::int(2))
///     .with_src(ArchReg::int(3));
/// assert_eq!(op.sources().count(), 2);
/// assert_eq!(op.dst, Some(ArchReg::int(1)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    /// Dynamic sequence number (dense, starting at 0).
    pub seq: u64,
    /// Program counter of the instruction.
    pub pc: u64,
    /// Operation class.
    pub class: OpClass,
    /// Source architectural registers (at most two).
    pub srcs: [Option<ArchReg>; 2],
    /// Destination architectural register, if the instruction produces one.
    pub dst: Option<ArchReg>,
    /// Effective address for loads and stores.
    pub mem_addr: Option<u64>,
    /// Size in bytes of the memory access (loads/stores only).
    pub mem_size: u8,
    /// Resolved branch behaviour for control-flow instructions.
    pub branch: Option<BranchInfo>,
}

impl MicroOp {
    /// Creates a micro-op with no sources, destination or memory behaviour.
    #[must_use]
    pub fn new(seq: u64, pc: u64, class: OpClass) -> Self {
        MicroOp {
            seq,
            pc,
            class,
            srcs: [None, None],
            dst: None,
            mem_addr: None,
            mem_size: 8,
            branch: None,
        }
    }

    /// Sets the destination register (builder style).
    #[must_use]
    pub fn with_dst(mut self, dst: ArchReg) -> Self {
        self.dst = Some(dst);
        self
    }

    /// Adds a source register in the first free slot (builder style).
    ///
    /// # Panics
    ///
    /// Panics if both source slots are already occupied.
    #[must_use]
    pub fn with_src(mut self, src: ArchReg) -> Self {
        if self.srcs[0].is_none() {
            self.srcs[0] = Some(src);
        } else if self.srcs[1].is_none() {
            self.srcs[1] = Some(src);
        } else {
            panic!("micro-op already has two sources");
        }
        self
    }

    /// Sets the effective address of a memory operation (builder style).
    #[must_use]
    pub fn with_mem_addr(mut self, addr: u64) -> Self {
        self.mem_addr = Some(addr);
        self
    }

    /// Sets the branch behaviour (builder style).
    #[must_use]
    pub fn with_branch(mut self, info: BranchInfo) -> Self {
        self.branch = Some(info);
        self
    }

    /// Iterates over the present source registers.
    pub fn sources(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.srcs.iter().filter_map(|s| *s)
    }

    /// Number of source registers.
    #[must_use]
    pub fn num_sources(&self) -> usize {
        self.srcs.iter().filter(|s| s.is_some()).count()
    }

    /// Whether the micro-op is a load.
    #[must_use]
    pub fn is_load(&self) -> bool {
        self.class.is_load()
    }

    /// Whether the micro-op is a store.
    #[must_use]
    pub fn is_store(&self) -> bool {
        self.class.is_store()
    }

    /// Whether the micro-op is a conditional branch (the only kind that can
    /// be mispredicted by a direction predictor).
    #[must_use]
    pub fn is_conditional_branch(&self) -> bool {
        matches!(
            self.branch,
            Some(BranchInfo {
                kind: BranchKind::Conditional,
                ..
            })
        )
    }

    /// The issue queue the micro-op waits in: the FP queue for FP
    /// operations and for anything writing an FP register, the integer
    /// queue otherwise.
    #[must_use]
    pub fn queue_class(&self) -> RegClass {
        if self.class.is_fp() || self.dst.map(ArchReg::class) == Some(RegClass::Fp) {
            RegClass::Fp
        } else {
            RegClass::Int
        }
    }

    /// Validates structural invariants of the micro-op: memory operations
    /// carry an address, branches carry branch info, non-branches do not,
    /// and stores do not write a register.
    #[must_use]
    pub fn is_well_formed(&self) -> bool {
        let mem_ok = if self.class.is_mem() {
            self.mem_addr.is_some()
        } else {
            self.mem_addr.is_none()
        };
        let br_ok = if self.class.is_branch() {
            self.branch.is_some()
        } else {
            self.branch.is_none()
        };
        let store_ok = !self.is_store() || self.dst.is_none();
        let load_ok = !self.is_load() || self.dst.is_some();
        mem_ok && br_ok && store_ok && load_ok
    }
}

impl fmt::Display for MicroOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} pc={:#x} {}", self.seq, self.pc, self.class)?;
        if let Some(dst) = self.dst {
            write!(f, " {dst} <-")?;
        }
        for src in self.sources() {
            write!(f, " {src}")?;
        }
        if let Some(addr) = self.mem_addr {
            write!(f, " @{addr:#x}")?;
        }
        if let Some(b) = self.branch {
            write!(f, " {}", if b.taken { "taken" } else { "not-taken" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_fills_source_slots_in_order() {
        let op = MicroOp::new(1, 0x40, OpClass::IntAlu)
            .with_src(ArchReg::int(1))
            .with_src(ArchReg::int(2));
        assert_eq!(op.srcs[0], Some(ArchReg::int(1)));
        assert_eq!(op.srcs[1], Some(ArchReg::int(2)));
        assert_eq!(op.num_sources(), 2);
    }

    #[test]
    #[should_panic(expected = "two sources")]
    fn third_source_panics() {
        let _ = MicroOp::new(0, 0, OpClass::IntAlu)
            .with_src(ArchReg::int(1))
            .with_src(ArchReg::int(2))
            .with_src(ArchReg::int(3));
    }

    #[test]
    fn well_formedness_checks_memory_and_branch_fields() {
        let load = MicroOp::new(0, 0, OpClass::Load)
            .with_dst(ArchReg::int(1))
            .with_mem_addr(0x100);
        assert!(load.is_well_formed());

        let bad_load = MicroOp::new(0, 0, OpClass::Load).with_dst(ArchReg::int(1));
        assert!(
            !bad_load.is_well_formed(),
            "load without address is malformed"
        );

        let store = MicroOp::new(0, 0, OpClass::Store)
            .with_src(ArchReg::int(1))
            .with_mem_addr(0x100);
        assert!(store.is_well_formed());

        let bad_store = store.with_dst(ArchReg::int(2));
        assert!(
            !bad_store.is_well_formed(),
            "store must not write a register"
        );

        let branch =
            MicroOp::new(0, 0, OpClass::Branch).with_branch(BranchInfo::conditional(true, 0x2000));
        assert!(branch.is_well_formed());

        let bad_branch = MicroOp::new(0, 0, OpClass::Branch);
        assert!(!bad_branch.is_well_formed(), "branch needs branch info");

        let alu_with_branch =
            MicroOp::new(0, 0, OpClass::IntAlu).with_branch(BranchInfo::conditional(false, 0));
        assert!(!alu_with_branch.is_well_formed());
    }

    #[test]
    fn conditional_branch_detection() {
        let cond =
            MicroOp::new(0, 0, OpClass::Branch).with_branch(BranchInfo::conditional(true, 8));
        assert!(cond.is_conditional_branch());
        let jump = MicroOp::new(0, 0, OpClass::Branch).with_branch(BranchInfo {
            kind: BranchKind::Jump,
            taken: true,
            target: 8,
        });
        assert!(!jump.is_conditional_branch());
    }

    #[test]
    fn display_mentions_class_and_seq() {
        let op = MicroOp::new(42, 0x1234, OpClass::FpMul).with_dst(ArchReg::fp(3));
        let text = op.to_string();
        assert!(text.contains("#42"));
        assert!(text.contains("fp_mul"));
        assert!(text.contains("f3"));
    }
}
