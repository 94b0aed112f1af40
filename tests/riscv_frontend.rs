//! Integration tests for the execution-driven RV64IM frontend
//! (`dkip-riscv`) and its plumbing into the simulator:
//!
//! * a property test round-tripping the supported RV64IM subset through
//!   disassemble → re-assemble,
//! * emulator runs pinning the final architectural register/memory state of
//!   every shipped kernel against its independent Rust reference model,
//! * determinism: the same kernel yields a bit-identical `MicroOp` stream
//!   and bit-identical `SimStats` on every core family.

use dkip::model::config::{BaselineConfig, DkipConfig, KiloConfig, MemoryHierarchyConfig};
use dkip::riscv::{
    assemble, AluImmOp, AluOp, BranchCond, Inst, Kernel, KernelRun, Reg, RiscvStream, CODE_BASE,
    DATA_BASE, LOADS, STORES,
};
use dkip::sim::{Machine, Workload};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Round-trip property over the supported RV64IM subset.
// ---------------------------------------------------------------------------

/// Builds an arbitrary in-range instruction from raw strategy draws.
fn arb_inst(kind: usize, a: u8, b: u8, c: u8, raw: u32) -> Inst {
    let (rd, rs1, rs2) = (Reg::new(a), Reg::new(b), Reg::new(c));
    let imm12 = (raw % 4096) as i32 - 2048;
    match kind {
        0 => {
            let op = AluOp::ALL[raw as usize % AluOp::ALL.len()];
            Inst::Op { op, rd, rs1, rs2 }
        }
        1 => {
            let op = AluImmOp::ALL[c as usize % AluImmOp::ALL.len()];
            let imm = if op.is_shift() {
                (raw % (op.max_shamt() as u32 + 1)) as i32
            } else {
                imm12
            };
            Inst::OpImm { op, rd, rs1, imm }
        }
        2 => Inst::Lui {
            rd,
            imm20: (raw % (1 << 20)) as i32 - (1 << 19),
        },
        3 => Inst::Auipc {
            rd,
            imm20: (raw % (1 << 20)) as i32 - (1 << 19),
        },
        4 => {
            let (_, width, signed) = LOADS[c as usize % LOADS.len()];
            Inst::Load {
                width,
                signed,
                rd,
                rs1,
                imm: imm12,
            }
        }
        5 => {
            let (_, width) = STORES[c as usize % STORES.len()];
            Inst::Store {
                width,
                rs2,
                rs1,
                imm: imm12,
            }
        }
        6 => {
            let cond = BranchCond::ALL[c as usize % BranchCond::ALL.len()];
            let imm = ((raw % 4096) as i32 - 2048) * 2;
            Inst::Branch {
                cond,
                rs1,
                rs2,
                imm,
            }
        }
        7 => Inst::Jal {
            rd,
            imm: ((raw % (1 << 20)) as i32 - (1 << 19)) * 2,
        },
        8 => Inst::Jalr {
            rd,
            rs1,
            imm: imm12,
        },
        _ => Inst::Ecall,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// disassemble → assemble reproduces the instruction.
    #[test]
    fn disassembly_reassembles(
        kind in 0usize..10,
        a in 0u8..32,
        b in 0u8..32,
        c in 0u8..32,
        raw in 0u32..0x0010_0000,
    ) {
        let inst = arb_inst(kind, a, b, c, raw);
        let text = inst.to_string();
        let program = assemble(&text, CODE_BASE).expect("disassembly must re-assemble");
        prop_assert_eq!(program.insts.len(), 1);
        prop_assert_eq!(program.insts[0], inst);
    }
}

// ---------------------------------------------------------------------------
// Emulator state pins: every shipped kernel against its reference model.
// ---------------------------------------------------------------------------

#[test]
fn kernels_pin_final_register_state() {
    for kernel in Kernel::ALL {
        let run = kernel.default_run();
        let mut emu = run.emulator();
        emu.run_to_halt();
        assert!(
            emu.ran_to_completion(),
            "{} must halt cleanly, not via the step backstop",
            run.name()
        );
        assert_eq!(
            emu.reg(Reg::A0),
            run.expected_result(),
            "{}: final a0 (checksum) mismatch",
            run.name()
        );
        // x0 stays hardwired and sp is balanced back to the top of memory.
        assert_eq!(emu.reg(Reg::ZERO), 0);
        assert_eq!(
            emu.reg(Reg::SP),
            dkip::riscv::MEM_SIZE,
            "{}: unbalanced stack",
            run.name()
        );
    }
}

#[test]
fn kernels_pin_final_memory_state() {
    // memcpy: dst[i] == src[i] == 3i + 1 for every copied doubleword.
    let run = Kernel::Memcpy.default_run();
    let mut emu = run.emulator();
    emu.run_to_halt();
    let n = run.size;
    for i in [0, 1, n / 2, n - 1] {
        let src = emu.read_u64(DATA_BASE + 8 * i);
        let dst = emu.read_u64(DATA_BASE + 8 * (n + i));
        assert_eq!(src, 3 * i + 1, "src[{i}]");
        assert_eq!(dst, src, "dst[{i}] copied");
    }

    // matmul: spot-check c[0][0] = sum_k a[0][k] * b[k][0].
    let run = Kernel::Matmul.default_run();
    let mut emu = run.emulator();
    emu.run_to_halt();
    let dim = run.size;
    let cells = dim * dim;
    let expected_c00: u64 = (0..dim).map(|k| k * (((k * dim) & 7) + 1)).sum();
    assert_eq!(
        emu.read_u64(DATA_BASE + 16 * cells),
        expected_c00,
        "c[0][0]"
    );

    // listwalk: node i holds [next, value] with next = &node[(i+7) % n].
    let run = Kernel::ListWalk.default_run();
    let mut emu = run.emulator();
    emu.run_to_halt();
    for i in [0, 1, run.size - 1] {
        let next = emu.read_u64(DATA_BASE + 16 * i);
        let value = emu.read_u64(DATA_BASE + 16 * i + 8);
        assert_eq!(
            next,
            DATA_BASE + 16 * ((i + 7) % run.size),
            "node[{i}].next"
        );
        assert_eq!(value, i, "node[{i}].value");
    }
}

// ---------------------------------------------------------------------------
// Determinism: bit-identical streams and stats.
// ---------------------------------------------------------------------------

#[test]
fn same_kernel_yields_bit_identical_microop_streams() {
    for kernel in Kernel::ALL {
        let run = kernel.default_run();
        let a: Vec<_> = RiscvStream::new(&run).collect();
        let b: Vec<_> = RiscvStream::new(&run).collect();
        assert_eq!(a, b, "{}: stream must be reproducible", run.name());
        // And through the Workload path, for any seed.
        let c: Vec<_> = Workload::from(run).stream(7).collect();
        assert_eq!(a, c, "{}: Workload::stream must match", run.name());
    }
}

#[test]
fn same_kernel_yields_bit_identical_simstats_on_every_family() {
    let mem = MemoryHierarchyConfig::paper_default();
    let machines = [
        Machine::Baseline(BaselineConfig::r10_64()),
        Machine::Kilo(KiloConfig::kilo_1024()),
        Machine::Dkip(DkipConfig::paper_default()),
    ];
    let workload = Workload::from(KernelRun::new(Kernel::Sieve, 500));
    for machine in machines {
        let a = machine.simulate(&mem, &workload, 1_000_000, 1);
        let b = machine.simulate(&mem, &workload, 1_000_000, 2);
        assert_eq!(
            a,
            b,
            "{}: SimStats must be identical (seed-independent)",
            machine.name()
        );
        assert!(a.committed > 0 && a.cycles > 0);
    }
}

#[test]
fn finite_streams_commit_exactly_their_dynamic_length() {
    let mem = MemoryHierarchyConfig::paper_default();
    let run = Kernel::BoxBlur.default_run();
    let dynamic_len = RiscvStream::new(&run).count() as u64;
    for machine in [
        Machine::Baseline(BaselineConfig::r10_64()),
        Machine::Kilo(KiloConfig::kilo_1024()),
        Machine::Dkip(DkipConfig::paper_default()),
    ] {
        let stats = machine.simulate(&mem, &Workload::from(run), 1_000_000, 1);
        assert_eq!(
            stats.committed,
            dynamic_len,
            "{}: every fetched instruction commits, then the machine drains",
            machine.name()
        );
        assert_eq!(stats.fetched, dynamic_len, "{}", machine.name());
    }
}
