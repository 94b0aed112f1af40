//! The functional-warming sink.
//!
//! Sampled simulation fast-forwards the workload between detailed windows
//! and *functionally warms* the drained core on the way: every skipped
//! instruction's memory access installs its line in the caches and every
//! skipped conditional branch trains the direction predictor, with no
//! timing modelled. Those two facts are all warming needs, so the
//! instruction sources report them straight to a [`WarmSink`] instead of
//! building a [`MicroOp`] per skipped instruction.

use crate::instr::MicroOp;

/// Receives the warming events of functionally skipped instructions, in
/// program order.
///
/// The unit type `()` is the no-op sink: a source walked with it just
/// advances its position.
pub trait WarmSink {
    /// A skipped load (`is_write == false`) or store touched `addr`.
    fn warm_mem(&mut self, addr: u64, is_write: bool);

    /// A skipped conditional branch at `pc` resolved `taken`.
    fn warm_branch(&mut self, pc: u64, taken: bool);

    /// Reports one already-built micro-op: its memory access, then its
    /// conditional-branch outcome. This is exactly the event sequence the
    /// sources emit for the op they would otherwise have built.
    fn warm_op(&mut self, op: &MicroOp) {
        if let Some(addr) = op.mem_addr {
            self.warm_mem(addr, op.is_store());
        }
        if op.is_conditional_branch() {
            let taken = op.branch.expect("conditional branch").taken;
            self.warm_branch(op.pc, taken);
        }
    }
}

impl WarmSink for () {
    fn warm_mem(&mut self, _addr: u64, _is_write: bool) {}

    fn warm_branch(&mut self, _pc: u64, _taken: bool) {}
}

/// A sink that records every event, for equivalence tests of the sources.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarmLog {
    /// Every `(addr, is_write)` reported through [`WarmSink::warm_mem`].
    pub mem: Vec<(u64, bool)>,
    /// Every `(pc, taken)` reported through [`WarmSink::warm_branch`].
    pub branches: Vec<(u64, bool)>,
}

impl WarmSink for WarmLog {
    fn warm_mem(&mut self, addr: u64, is_write: bool) {
        self.mem.push((addr, is_write));
    }

    fn warm_branch(&mut self, pc: u64, taken: bool) {
        self.branches.push((pc, taken));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::BranchInfo;
    use crate::op::OpClass;

    #[test]
    fn warm_op_reports_accesses_and_conditional_branches_only() {
        let mut log = WarmLog::default();
        log.warm_op(&MicroOp::new(0, 0x10, OpClass::Load).with_mem_addr(0x800));
        log.warm_op(&MicroOp::new(1, 0x14, OpClass::Store).with_mem_addr(0x900));
        log.warm_op(&MicroOp::new(2, 0x18, OpClass::IntAlu));
        log.warm_op(
            &MicroOp::new(3, 0x1c, OpClass::Branch).with_branch(BranchInfo::conditional(true, 0)),
        );
        let mut jump = BranchInfo::conditional(true, 0);
        jump.kind = crate::instr::BranchKind::Jump;
        log.warm_op(&MicroOp::new(4, 0x20, OpClass::Branch).with_branch(jump));
        assert_eq!(log.mem, vec![(0x800, false), (0x900, true)]);
        assert_eq!(log.branches, vec![(0x1c, true)]);
    }
}
