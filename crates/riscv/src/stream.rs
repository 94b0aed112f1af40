//! Cracking executed RV64IM instructions into the simulator's
//! [`MicroOp`] stream.
//!
//! [`RiscvStream`] drives an [`Emulator`] and emits one [`MicroOp`] per
//! retired instruction — the dynamic *correct-path* stream the trace-driven
//! core models consume. The cracking rules:
//!
//! * ALU and upper-immediate operations map to [`OpClass::IntAlu`];
//!   multiply/divide/remainder map to [`OpClass::IntMul`] (the engine has
//!   no separate divider; the multiplier pool's latency stands in);
//! * loads and stores carry their real effective address and access width;
//! * conditional branches carry the architecturally resolved direction and
//!   taken-target; `jal`/`jalr` become [`BranchKind::Jump`],
//!   [`BranchKind::Call`] or [`BranchKind::Return`] following the standard
//!   `ra` link-register hints;
//! * `ecall` (the halt convention) retires as a [`OpClass::Nop`];
//! * reads of `x0` create no source dependency (the register is hardwired)
//!   and writes to `x0` produce no destination — except loads, whose
//!   destination is kept so the micro-op stays well-formed.
//!
//! The stream is finite (it ends when the kernel halts) and fully
//! deterministic: two streams for the same [`KernelRun`] are bit-identical.

use crate::emu::{Emulator, Retired};
use crate::isa::{Inst, Reg};
use crate::kernels::KernelRun;
use dkip_model::instr::{BranchInfo, BranchKind};
use dkip_model::{ArchReg, MicroOp, OpClass, WarmSink};

/// An execution-driven [`MicroOp`] stream over a RISC-V kernel.
#[derive(Debug, Clone)]
pub struct RiscvStream {
    emu: Emulator,
    seq: u64,
}

impl RiscvStream {
    /// Creates the stream for a kernel run.
    #[must_use]
    pub fn new(run: &KernelRun) -> Self {
        RiscvStream {
            emu: run.emulator(),
            seq: 0,
        }
    }

    /// Wraps an already-configured emulator.
    #[must_use]
    pub fn from_emulator(emu: Emulator) -> Self {
        RiscvStream { emu, seq: 0 }
    }

    /// The underlying emulator (e.g. to inspect architectural state after
    /// the stream is exhausted).
    #[must_use]
    pub fn emulator(&self) -> &Emulator {
        &self.emu
    }

    /// Functionally fast-forwards up to `n` instructions without cracking
    /// them into micro-ops, returning how many were actually skipped (fewer
    /// only if the kernel halts first): [`RiscvStream::warm_forward`] with
    /// no sink.
    pub fn fast_forward(&mut self, n: u64) -> u64 {
        self.warm_forward(n, &mut ())
    }

    /// Functionally fast-forwards up to `n` instructions without cracking
    /// them into micro-ops, reporting each one's load/store address and
    /// conditional-branch outcome to `sink` in program order, and returns
    /// how many were skipped (fewer only if the kernel halts first).
    ///
    /// The emulator executes every skipped instruction architecturally, so
    /// registers and memory are exactly as if the instructions had been
    /// consumed through [`Iterator::next`]; only the micro-op construction
    /// is elided, and `sink` sees exactly what [`WarmSink::warm_op`] on the
    /// cracked ops would have reported. Sequence numbers stay dense across
    /// the gap: the first micro-op after a fast-forward carries `seq` as if
    /// the skipped instructions had been emitted. This is the
    /// sampled-simulation mode's cheap path between detailed windows.
    pub fn warm_forward<W: WarmSink>(&mut self, n: u64, sink: &mut W) -> u64 {
        let mut skipped = 0;
        while skipped < n {
            let Some(retired) = self.emu.step() else {
                break;
            };
            if let Some(addr) = retired.mem_addr {
                sink.warm_mem(addr, matches!(retired.inst, Inst::Store { .. }));
            }
            if let Inst::Branch { .. } = retired.inst {
                sink.warm_branch(retired.pc, retired.branch_taken());
            }
            skipped += 1;
        }
        self.seq += skipped;
        skipped
    }
}

fn arch(reg: Reg) -> ArchReg {
    ArchReg::int(reg.index())
}

/// The source-register slots of an instruction, with `x0` filtered out.
fn sources(inst: &Inst) -> [Option<Reg>; 2] {
    let (a, b) = match *inst {
        Inst::Op { rs1, rs2, .. } | Inst::Branch { rs1, rs2, .. } => (Some(rs1), Some(rs2)),
        Inst::Store { rs1, rs2, .. } => (Some(rs1), Some(rs2)),
        Inst::OpImm { rs1, .. } | Inst::Load { rs1, .. } | Inst::Jalr { rs1, .. } => {
            (Some(rs1), None)
        }
        Inst::Lui { .. } | Inst::Auipc { .. } | Inst::Jal { .. } | Inst::Ecall => (None, None),
    };
    let keep = |r: Option<Reg>| r.filter(|r| !r.is_zero());
    [keep(a), keep(b)]
}

/// The destination register, with `x0` filtered out (kept for loads so the
/// micro-op stays well-formed; the LLBV treats `x0` like any register, which
/// is harmless because no kernel reads a value it wrote to `x0`).
fn destination(inst: &Inst) -> Option<Reg> {
    match *inst {
        Inst::Load { rd, .. } => Some(rd),
        Inst::Op { rd, .. }
        | Inst::OpImm { rd, .. }
        | Inst::Lui { rd, .. }
        | Inst::Auipc { rd, .. }
        | Inst::Jal { rd, .. }
        | Inst::Jalr { rd, .. } => Some(rd).filter(|r| !r.is_zero()),
        Inst::Store { .. } | Inst::Branch { .. } | Inst::Ecall => None,
    }
}

/// Cracks one retired instruction into a [`MicroOp`] with sequence number
/// `seq`.
#[must_use]
pub fn crack(retired: &Retired, seq: u64) -> MicroOp {
    let inst = &retired.inst;
    let class = match inst {
        Inst::Op { op, .. } if op.is_muldiv() => OpClass::IntMul,
        Inst::Op { .. } | Inst::OpImm { .. } | Inst::Lui { .. } | Inst::Auipc { .. } => {
            OpClass::IntAlu
        }
        Inst::Load { .. } => OpClass::Load,
        Inst::Store { .. } => OpClass::Store,
        Inst::Branch { .. } | Inst::Jal { .. } | Inst::Jalr { .. } => OpClass::Branch,
        Inst::Ecall => OpClass::Nop,
    };
    let mut op = MicroOp::new(seq, retired.pc, class);
    for src in sources(inst).into_iter().flatten() {
        op = op.with_src(arch(src));
    }
    if let Some(dst) = destination(inst) {
        op = op.with_dst(arch(dst));
    }
    if let Some(addr) = retired.mem_addr {
        op = op.with_mem_addr(addr);
        op.mem_size = match inst {
            Inst::Load { width, .. } | Inst::Store { width, .. } => width.bytes(),
            _ => unreachable!("only memory instructions carry an address"),
        };
    }
    match *inst {
        Inst::Branch { imm, .. } => {
            op = op.with_branch(BranchInfo {
                kind: BranchKind::Conditional,
                taken: retired.branch_taken(),
                target: retired.pc.wrapping_add(imm as i64 as u64),
            });
        }
        Inst::Jal { rd, .. } => {
            let kind = if rd == Reg::RA {
                BranchKind::Call
            } else {
                BranchKind::Jump
            };
            op = op.with_branch(BranchInfo {
                kind,
                taken: true,
                target: retired.next_pc,
            });
        }
        Inst::Jalr { rd, rs1, .. } => {
            let kind = if rd == Reg::RA {
                BranchKind::Call
            } else if rd.is_zero() && rs1 == Reg::RA {
                BranchKind::Return
            } else {
                BranchKind::Jump
            };
            op = op.with_branch(BranchInfo {
                kind,
                taken: true,
                target: retired.next_pc,
            });
        }
        _ => {}
    }
    op
}

impl Iterator for RiscvStream {
    type Item = MicroOp;

    fn next(&mut self) -> Option<MicroOp> {
        let retired = self.emu.step()?;
        let op = crack(&retired, self.seq);
        self.seq += 1;
        Some(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Kernel;
    use dkip_model::{RegClass, WarmLog};

    fn stream(kernel: Kernel) -> Vec<MicroOp> {
        RiscvStream::new(&kernel.default_run()).collect()
    }

    #[test]
    fn all_kernels_emit_well_formed_dense_streams() {
        for kernel in Kernel::ALL {
            let ops = stream(kernel);
            assert!(ops.len() > 1_000, "{} too short", kernel.name());
            for (idx, op) in ops.iter().enumerate() {
                assert!(op.is_well_formed(), "{}: bad op {op}", kernel.name());
                assert_eq!(op.seq, idx as u64, "{}: seq not dense", kernel.name());
                assert!(op.srcs.iter().flatten().all(|r| r.class() == RegClass::Int));
            }
        }
    }

    #[test]
    fn memory_ops_carry_real_addresses_and_widths() {
        let ops = stream(Kernel::Sieve);
        let stores: Vec<_> = ops.iter().filter(|op| op.is_store()).collect();
        assert!(!stores.is_empty());
        // The sieve stores flag bytes.
        assert!(stores.iter().all(|op| op.mem_size == 1));
        assert!(stores.iter().all(|op| op.mem_addr.is_some()));
        let dword_loads = stream(Kernel::Matmul)
            .into_iter()
            .filter(|op| op.is_load())
            .all(|op| op.mem_size == 8);
        assert!(dword_loads, "matmul loads are 8-byte");
    }

    #[test]
    fn branch_outcomes_are_architecturally_correct() {
        let ops = stream(Kernel::FibRec);
        let conds: Vec<_> = ops.iter().filter(|op| op.is_conditional_branch()).collect();
        assert!(!conds.is_empty());
        let taken = conds.iter().filter(|op| op.branch.unwrap().taken).count();
        assert!(taken > 0 && taken < conds.len(), "both directions occur");
        // fibrec's calls/returns show up as Call/Return branch kinds.
        let kinds: Vec<BranchKind> = ops
            .iter()
            .filter_map(|op| op.branch.map(|b| b.kind))
            .collect();
        assert!(kinds.contains(&BranchKind::Call));
        assert!(kinds.contains(&BranchKind::Return));
    }

    #[test]
    fn pointer_chase_loads_depend_on_prior_load_results() {
        let run = Kernel::ListWalk.default_run();
        let ops: Vec<_> = RiscvStream::new(&run).collect();
        // In the walk phase the chase load's base register was written by the
        // previous chase load: find a load whose source equals its own dst.
        let self_chasing = ops
            .iter()
            .filter(|op| op.is_load() && op.dst.is_some())
            .filter(|op| op.srcs[0] == op.dst)
            .count();
        assert!(self_chasing as u64 >= 4 * run.size, "chase loads present");
    }

    #[test]
    fn x0_never_appears_as_a_dependency_source() {
        for kernel in Kernel::ALL {
            let zero = ArchReg::int(0);
            for op in stream(kernel) {
                assert!(
                    op.sources().all(|src| src != zero),
                    "{}: {op}",
                    kernel.name()
                );
                if !op.is_load() {
                    assert_ne!(op.dst, Some(zero), "{}: {op}", kernel.name());
                }
            }
        }
    }

    #[test]
    fn streams_are_bit_identical_across_instantiations() {
        for kernel in [Kernel::Matmul, Kernel::ListWalk] {
            let a = stream(kernel);
            let b = stream(kernel);
            assert_eq!(a, b, "{}", kernel.name());
        }
    }

    #[test]
    fn the_last_op_is_the_halting_ecall() {
        let ops = stream(Kernel::Memcpy);
        assert_eq!(ops.last().unwrap().class, OpClass::Nop);
    }

    #[test]
    fn fast_forward_is_equivalent_to_consuming_the_stream() {
        // Skipping N instructions leaves the emulator (registers, memory,
        // pc) and the remaining micro-op stream — including sequence
        // numbers — exactly as if the N ops had been consumed normally.
        let run = Kernel::Sieve.default_run();
        let mut skipped = RiscvStream::new(&run);
        let mut consumed = RiscvStream::new(&run);
        let n = 5_000;
        assert_eq!(skipped.fast_forward(n), n);
        for _ in 0..n {
            assert!(consumed.next().is_some());
        }
        assert_eq!(skipped.emulator().regs(), consumed.emulator().regs());
        assert_eq!(skipped.emulator().pc(), consumed.emulator().pc());
        let rest_a: Vec<_> = skipped.collect();
        let rest_b: Vec<_> = consumed.collect();
        assert_eq!(rest_a, rest_b, "post-skip streams must be bit-identical");
    }

    #[test]
    fn warm_forward_reports_what_the_cracked_ops_carry() {
        // Every kernel, over a gap that ends mid-run: the same (addr,
        // is_write) and (pc, taken) sequence as warming the ops one by one,
        // and the same emulator state and remaining stream afterwards.
        for kernel in Kernel::ALL {
            let run = kernel.default_run();
            let mut warmed = RiscvStream::new(&run);
            let mut consumed = RiscvStream::new(&run);
            let mut got = WarmLog::default();
            let mut want = WarmLog::default();
            let n = 2_000;
            assert_eq!(warmed.warm_forward(n, &mut got), n, "{}", kernel.name());
            for op in consumed.by_ref().take(n as usize) {
                want.warm_op(&op);
            }
            assert_eq!(got, want, "{}: warming events differ", kernel.name());
            assert!(!got.branches.is_empty(), "{}", kernel.name());
            assert_eq!(warmed.emulator().regs(), consumed.emulator().regs());
            assert_eq!(warmed.emulator().pc(), consumed.emulator().pc());
            let rest_a: Vec<_> = warmed.collect();
            let rest_b: Vec<_> = consumed.collect();
            assert_eq!(
                rest_a,
                rest_b,
                "{}: post-warm streams differ",
                kernel.name()
            );
        }
    }

    #[test]
    fn warm_forward_reports_stores_and_stops_at_the_halt() {
        let prog = crate::asm::assemble(
            "addi x1, x0, 3\nloop: sd x1, 256(x0)\nld x2, 256(x0)\naddi x1, x1, -1\nbne x1, x0, loop\necall",
            crate::emu::CODE_BASE,
        )
        .unwrap();
        let mut s = RiscvStream::from_emulator(crate::emu::Emulator::new(&prog));
        let mut log = WarmLog::default();
        assert_eq!(
            s.warm_forward(1_000, &mut log),
            14,
            "the program retires 14 instrs"
        );
        assert_eq!(log.mem, [(256, true), (256, false)].repeat(3));
        let bne = crate::emu::CODE_BASE + 16;
        assert_eq!(log.branches, vec![(bne, true), (bne, true), (bne, false)]);
        assert!(s.next().is_none());
        assert_eq!(s.warm_forward(10, &mut log), 0, "exhaustion is sticky");
        assert_eq!(log.mem.len(), 6);
    }

    #[test]
    fn fast_forward_stops_at_the_halt_and_reports_the_shortfall() {
        let prog = crate::asm::assemble("addi x1, x0, 7\necall", crate::emu::CODE_BASE).unwrap();
        let mut s = RiscvStream::from_emulator(crate::emu::Emulator::new(&prog));
        assert_eq!(s.fast_forward(1_000), 2, "program retires only two instrs");
        assert!(s.emulator().ran_to_completion());
        assert!(s.next().is_none());
        assert_eq!(s.fast_forward(10), 0, "exhaustion is sticky");
    }

    #[test]
    fn an_exhausted_stream_keeps_returning_none() {
        // PR 5 gotcha: the event-driven clock may poll a drained frontend
        // across skipped cycles, so exhaustion must be sticky — `next()`
        // stays `None` forever, it never panics or restarts.
        let prog = crate::asm::assemble("ecall", crate::emu::CODE_BASE).unwrap();
        let mut s = RiscvStream::from_emulator(crate::emu::Emulator::new(&prog));
        assert_eq!(s.next().map(|op| op.class), Some(OpClass::Nop));
        for _ in 0..1_000 {
            assert!(s.next().is_none());
        }
        assert!(s.emulator().ran_to_completion());
    }
}
