//! The supported RV64IM instruction set and its disassembly.
//!
//! The subset covers everything the shipped kernels (and compiler output of
//! similar shape) need: the full RV64I integer register-register and
//! register-immediate groups, loads/stores of all four widths, conditional
//! branches, `jal`/`jalr`, `lui`/`auipc`, `ecall` (used as the halt
//! convention) and the M-extension multiply/divide/remainder family
//! (`mulhsu`, `divuw` and `remuw` are deliberately left out).
//!
//! Programs are held as [`Inst`] values: the assembler builds them and the
//! emulator executes them. Each mnemonic is
//! spelled once, in [`AluOp::mnemonic`], [`AluImmOp::mnemonic`],
//! [`BranchCond::mnemonic`], [`LOADS`] and [`STORES`], and the assembler,
//! [`Inst`]'s `Display` and the fuzz generator all read those. `Display`
//! output parses back through the assembler, which a proptest in
//! `tests/riscv_frontend.rs` pins.

use std::fmt;

/// An integer architectural register, `x0`–`x31`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// The hardwired zero register `x0`.
    pub const ZERO: Reg = Reg(0);
    /// The return-address register `x1` (`ra`).
    pub const RA: Reg = Reg(1);
    /// The stack pointer `x2` (`sp`).
    pub const SP: Reg = Reg(2);
    /// The first argument/return register `x10` (`a0`).
    pub const A0: Reg = Reg(10);
    /// The second argument register `x11` (`a1`).
    pub const A1: Reg = Reg(11);
    /// The third argument register `x12` (`a2`).
    pub const A2: Reg = Reg(12);
    /// The fourth argument register `x13` (`a3`).
    pub const A3: Reg = Reg(13);
    /// The fifth argument register `x14` (`a4`).
    pub const A4: Reg = Reg(14);
    /// The sixth argument register `x15` (`a5`).
    pub const A5: Reg = Reg(15);
    /// The seventh argument register `x16` (`a6`).
    pub const A6: Reg = Reg(16);
    /// The eighth argument register `x17` (`a7`).
    pub const A7: Reg = Reg(17);
    /// The first temporary `x5` (`t0`).
    pub const T0: Reg = Reg(5);
    /// The second temporary `x6` (`t1`).
    pub const T1: Reg = Reg(6);
    /// The third temporary `x7` (`t2`).
    pub const T2: Reg = Reg(7);
    /// The fourth temporary `x28` (`t3`).
    pub const T3: Reg = Reg(28);
    /// The fifth temporary `x29` (`t4`).
    pub const T4: Reg = Reg(29);
    /// The sixth temporary `x30` (`t5`).
    pub const T5: Reg = Reg(30);
    /// The seventh temporary `x31` (`t6`).
    pub const T6: Reg = Reg(31);
    /// The callee-saved register `x8` (`s0`/`fp`).
    pub const S0: Reg = Reg(8);
    /// The callee-saved register `x9` (`s1`).
    pub const S1: Reg = Reg(9);
    /// The callee-saved register `x18` (`s2`).
    pub const S2: Reg = Reg(18);
    /// The callee-saved register `x19` (`s3`).
    pub const S3: Reg = Reg(19);
    /// The callee-saved register `x20` (`s4`).
    pub const S4: Reg = Reg(20);
    /// The callee-saved register `x21` (`s5`).
    pub const S5: Reg = Reg(21);
    /// The callee-saved register `x22` (`s6`).
    pub const S6: Reg = Reg(22);
    /// The callee-saved register `x23` (`s7`).
    pub const S7: Reg = Reg(23);
    /// The callee-saved register `x24` (`s8`).
    pub const S8: Reg = Reg(24);
    /// The callee-saved register `x25` (`s9`).
    pub const S9: Reg = Reg(25);

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[must_use]
    pub fn new(index: u8) -> Self {
        assert!(index < 32, "register index {index} out of range");
        Reg(index)
    }

    /// The register index (0–31).
    #[must_use]
    pub fn index(self) -> u8 {
        self.0
    }

    /// Whether this is the hardwired zero register.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The ABI name (`zero`, `ra`, `sp`, …, `t6`).
    #[must_use]
    pub fn abi_name(self) -> &'static str {
        const NAMES: [&str; 32] = [
            "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3",
            "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
            "t3", "t4", "t5", "t6",
        ];
        NAMES[self.0 as usize]
    }

    /// Parses a register name: `x<N>` (`N` in plain decimal, no leading
    /// zero), an ABI name, or `fp` (alias of `s0`).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Reg> {
        if let Some(num) = name.strip_prefix('x') {
            // Only the plain spelling: `parse` alone also takes `x+5` and `x05`.
            return num
                .parse::<u8>()
                .ok()
                .filter(|&n| n < 32 && n.to_string() == num)
                .map(Reg);
        }
        if name == "fp" {
            return Some(Reg(8));
        }
        (0..32u8).map(Reg).find(|r| r.abi_name() == name)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_name())
    }
}

/// Register-register ALU operations, 64-bit and `*w`, including the
/// supported M-extension subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AluOp {
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    Mul,
    Mulh,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
    Addw,
    Subw,
    Sllw,
    Srlw,
    Sraw,
    Mulw,
    Divw,
    Remw,
}

impl AluOp {
    /// All register-register operations, for table-driven tests.
    pub const ALL: [AluOp; 25] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Sll,
        AluOp::Slt,
        AluOp::Sltu,
        AluOp::Xor,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Or,
        AluOp::And,
        AluOp::Mul,
        AluOp::Mulh,
        AluOp::Mulhu,
        AluOp::Div,
        AluOp::Divu,
        AluOp::Rem,
        AluOp::Remu,
        AluOp::Addw,
        AluOp::Subw,
        AluOp::Sllw,
        AluOp::Srlw,
        AluOp::Sraw,
        AluOp::Mulw,
        AluOp::Divw,
        AluOp::Remw,
    ];

    /// Whether the operation belongs to the M extension (multiply/divide).
    #[must_use]
    pub fn is_muldiv(self) -> bool {
        matches!(
            self,
            AluOp::Mul
                | AluOp::Mulh
                | AluOp::Mulhu
                | AluOp::Div
                | AluOp::Divu
                | AluOp::Rem
                | AluOp::Remu
                | AluOp::Mulw
                | AluOp::Divw
                | AluOp::Remw
        )
    }

    /// The assembly mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Sll => "sll",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Xor => "xor",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Or => "or",
            AluOp::And => "and",
            AluOp::Mul => "mul",
            AluOp::Mulh => "mulh",
            AluOp::Mulhu => "mulhu",
            AluOp::Div => "div",
            AluOp::Divu => "divu",
            AluOp::Rem => "rem",
            AluOp::Remu => "remu",
            AluOp::Addw => "addw",
            AluOp::Subw => "subw",
            AluOp::Sllw => "sllw",
            AluOp::Srlw => "srlw",
            AluOp::Sraw => "sraw",
            AluOp::Mulw => "mulw",
            AluOp::Divw => "divw",
            AluOp::Remw => "remw",
        }
    }
}

/// Register-immediate ALU operations, 64-bit and `*w`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AluImmOp {
    Addi,
    Slti,
    Sltiu,
    Xori,
    Ori,
    Andi,
    Slli,
    Srli,
    Srai,
    Addiw,
    Slliw,
    Srliw,
    Sraiw,
}

impl AluImmOp {
    /// All register-immediate operations, for table-driven tests.
    pub const ALL: [AluImmOp; 13] = [
        AluImmOp::Addi,
        AluImmOp::Slti,
        AluImmOp::Sltiu,
        AluImmOp::Xori,
        AluImmOp::Ori,
        AluImmOp::Andi,
        AluImmOp::Slli,
        AluImmOp::Srli,
        AluImmOp::Srai,
        AluImmOp::Addiw,
        AluImmOp::Slliw,
        AluImmOp::Srliw,
        AluImmOp::Sraiw,
    ];

    /// Whether the immediate is a shift amount rather than a 12-bit value.
    #[must_use]
    pub fn is_shift(self) -> bool {
        matches!(
            self,
            AluImmOp::Slli
                | AluImmOp::Srli
                | AluImmOp::Srai
                | AluImmOp::Slliw
                | AluImmOp::Srliw
                | AluImmOp::Sraiw
        )
    }

    /// The maximum shift amount (63 for 64-bit shifts, 31 for `*w` shifts).
    #[must_use]
    pub fn max_shamt(self) -> i32 {
        match self {
            AluImmOp::Slli | AluImmOp::Srli | AluImmOp::Srai => 63,
            _ => 31,
        }
    }

    /// The assembly mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluImmOp::Addi => "addi",
            AluImmOp::Slti => "slti",
            AluImmOp::Sltiu => "sltiu",
            AluImmOp::Xori => "xori",
            AluImmOp::Ori => "ori",
            AluImmOp::Andi => "andi",
            AluImmOp::Slli => "slli",
            AluImmOp::Srli => "srli",
            AluImmOp::Srai => "srai",
            AluImmOp::Addiw => "addiw",
            AluImmOp::Slliw => "slliw",
            AluImmOp::Srliw => "srliw",
            AluImmOp::Sraiw => "sraiw",
        }
    }
}

/// Width of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// One byte.
    B,
    /// Two bytes.
    H,
    /// Four bytes.
    W,
    /// Eight bytes.
    D,
}

impl MemWidth {
    /// Access size in bytes.
    #[must_use]
    pub fn bytes(self) -> u8 {
        match self {
            MemWidth::B => 1,
            MemWidth::H => 2,
            MemWidth::W => 4,
            MemWidth::D => 8,
        }
    }
}

/// Every load form, as `(mnemonic, width, signed)`. `ld` counts as signed:
/// a doubleword needs no extension, so there is no `ldu`.
pub const LOADS: [(&str, MemWidth, bool); 7] = [
    ("lb", MemWidth::B, true),
    ("lbu", MemWidth::B, false),
    ("lh", MemWidth::H, true),
    ("lhu", MemWidth::H, false),
    ("lw", MemWidth::W, true),
    ("lwu", MemWidth::W, false),
    ("ld", MemWidth::D, true),
];

/// Every store form, as `(mnemonic, width)`.
pub const STORES: [(&str, MemWidth); 4] = [
    ("sb", MemWidth::B),
    ("sh", MemWidth::H),
    ("sw", MemWidth::W),
    ("sd", MemWidth::D),
];

/// Condition of a conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BranchCond {
    Eq,
    Ne,
    Lt,
    Ge,
    Ltu,
    Geu,
}

impl BranchCond {
    /// All branch conditions; the assembler finds the base branches here.
    pub const ALL: [BranchCond; 6] = [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Ge,
        BranchCond::Ltu,
        BranchCond::Geu,
    ];

    /// The assembly mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
            BranchCond::Ltu => "bltu",
            BranchCond::Geu => "bgeu",
        }
    }
}

/// One RV64IM instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// Register-register ALU operation.
    Op {
        /// The operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// Register-immediate ALU operation. For shifts `imm` is the shift
    /// amount; otherwise a sign-extended 12-bit immediate.
    OpImm {
        /// The operation.
        op: AluImmOp,
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
        /// Immediate (−2048..=2047, or 0..=63 for shifts).
        imm: i32,
    },
    /// Load upper immediate: `rd = sext((imm20 << 12))`.
    Lui {
        /// Destination.
        rd: Reg,
        /// Signed 20-bit upper immediate (−524288..=524287).
        imm20: i32,
    },
    /// Add upper immediate to PC.
    Auipc {
        /// Destination.
        rd: Reg,
        /// Signed 20-bit upper immediate.
        imm20: i32,
    },
    /// Memory load. `signed` selects sign versus zero extension (`ld` is
    /// always "signed": the full doubleword needs no extension).
    Load {
        /// Access width.
        width: MemWidth,
        /// Sign-extend the loaded value.
        signed: bool,
        /// Destination.
        rd: Reg,
        /// Base address register.
        rs1: Reg,
        /// Address offset (−2048..=2047).
        imm: i32,
    },
    /// Memory store.
    Store {
        /// Access width.
        width: MemWidth,
        /// Data register.
        rs2: Reg,
        /// Base address register.
        rs1: Reg,
        /// Address offset (−2048..=2047).
        imm: i32,
    },
    /// Conditional branch with a PC-relative byte offset.
    Branch {
        /// Condition.
        cond: BranchCond,
        /// First compared register.
        rs1: Reg,
        /// Second compared register.
        rs2: Reg,
        /// PC-relative offset in bytes (even, ±4 KiB).
        imm: i32,
    },
    /// Jump and link with a PC-relative byte offset.
    Jal {
        /// Link register (x0 for a plain jump).
        rd: Reg,
        /// PC-relative offset in bytes (even, ±1 MiB).
        imm: i32,
    },
    /// Indirect jump and link.
    Jalr {
        /// Link register.
        rd: Reg,
        /// Base address register.
        rs1: Reg,
        /// Address offset (−2048..=2047).
        imm: i32,
    },
    /// Environment call — the kernels' halt convention.
    Ecall,
}

impl fmt::Display for Inst {
    /// Disassembles the instruction in a form the assembler parses back
    /// (branch and jump targets print as relative byte offsets).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Op { op, rd, rs1, rs2 } => write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic()),
            Inst::OpImm { op, rd, rs1, imm } => write!(f, "{} {rd}, {rs1}, {imm}", op.mnemonic()),
            Inst::Lui { rd, imm20 } => write!(f, "lui {rd}, {imm20}"),
            Inst::Auipc { rd, imm20 } => write!(f, "auipc {rd}, {imm20}"),
            Inst::Load {
                width,
                signed,
                rd,
                rs1,
                imm,
            } => {
                // `ld` is the one doubleword load, whatever `signed` says.
                let signed = signed || width == MemWidth::D;
                let (m, ..) = LOADS
                    .into_iter()
                    .find(|&(_, w, s)| (w, s) == (width, signed))
                    .expect("every width has a load form");
                write!(f, "{m} {rd}, {imm}({rs1})")
            }
            Inst::Store {
                width,
                rs2,
                rs1,
                imm,
            } => {
                let (m, _) = STORES
                    .into_iter()
                    .find(|&(_, w)| w == width)
                    .expect("every width has a store form");
                write!(f, "{m} {rs2}, {imm}({rs1})")
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                imm,
            } => {
                write!(f, "{} {rs1}, {rs2}, {imm}", cond.mnemonic())
            }
            Inst::Jal { rd, imm } => write!(f, "jal {rd}, {imm}"),
            Inst::Jalr { rd, rs1, imm } => write!(f, "jalr {rd}, {imm}({rs1})"),
            Inst::Ecall => f.write_str("ecall"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    /// Disassembles `inst` and assembles the text back.
    fn reassemble(inst: Inst) -> Inst {
        let text = inst.to_string();
        let program = assemble(&text, 0).unwrap_or_else(|e| panic!("'{text}': {e}"));
        assert_eq!(program.len(), 1, "{text}");
        program.insts[0]
    }

    #[test]
    fn register_names_round_trip() {
        for idx in 0..32u8 {
            let reg = Reg::new(idx);
            assert_eq!(Reg::from_name(reg.abi_name()), Some(reg));
            assert_eq!(Reg::from_name(&format!("x{idx}")), Some(reg));
        }
        assert_eq!(Reg::from_name("fp"), Some(Reg::new(8)));
        assert_eq!(Reg::from_name("x32"), None);
        assert_eq!(Reg::from_name("q0"), None);
        for bad in ["x+5", "x05", "x00", "x-1", "x"] {
            assert_eq!(Reg::from_name(bad), None, "{bad}");
        }
    }

    /// Exhaustive, so it also shows that no two operations share a mnemonic.
    #[test]
    fn every_alu_op_round_trips() {
        for op in AluOp::ALL {
            let inst = Inst::Op {
                op,
                rd: Reg::new(5),
                rs1: Reg::new(6),
                rs2: Reg::new(7),
            };
            assert_eq!(reassemble(inst), inst, "{}", op.mnemonic());
        }
    }

    #[test]
    fn every_imm_op_round_trips() {
        for op in AluImmOp::ALL {
            let imm = if op.is_shift() { op.max_shamt() } else { -2048 };
            let inst = Inst::OpImm {
                op,
                rd: Reg::new(8),
                rs1: Reg::new(9),
                imm,
            };
            assert_eq!(reassemble(inst), inst, "{}", op.mnemonic());
        }
    }

    #[test]
    fn display_is_parseable_assembly_shape() {
        let inst = Inst::Load {
            width: MemWidth::W,
            signed: false,
            rd: Reg::A0,
            rs1: Reg::SP,
            imm: -16,
        };
        assert_eq!(inst.to_string(), "lwu a0, -16(sp)");
        let b = Inst::Branch {
            cond: BranchCond::Ne,
            rs1: Reg::new(5),
            rs2: Reg::ZERO,
            imm: -8,
        };
        assert_eq!(b.to_string(), "bne t0, zero, -8");
    }
}
