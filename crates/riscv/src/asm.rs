//! A small two-pass assembler for the supported RV64IM subset.
//!
//! Syntax follows GNU `as` conventions closely enough that the embedded
//! kernel sources read like compiler output:
//!
//! * one instruction per line; `label:` definitions may share a line with an
//!   instruction; comments start with `#`, `;` or `//`;
//! * registers by ABI name (`a0`, `t3`, `s1`, `fp`, …) or `x<N>`;
//! * memory operands as `imm(reg)`; immediates in decimal or `0x…` hex;
//! * branch/jump targets as labels **or** numeric PC-relative byte offsets
//!   (the form [`crate::isa::Inst`]'s `Display` emits, so disassembly
//!   re-assembles);
//! * the usual pseudo-instructions: `nop`, `li`, `mv`, `neg`, `not`,
//!   `seqz`, `snez`, `j`, `call`, `ret`, `beqz`/`bnez`/`bltz`/`bgez`/
//!   `bgtz`/`blez`, and the swapped-operand forms `ble`/`bgt`/`bleu`/`bgtu`.
//!
//! Pass 1 parses and expands pseudo-instructions (so every entry has a fixed
//! 4-byte size) and records label addresses; pass 2 resolves label operands
//! to PC-relative offsets and encodes.

use crate::isa::{AluImmOp, AluOp, BranchCond, Inst, MemWidth, Reg};
use std::collections::HashMap;
use std::fmt;

/// An assembly error, with the 1-based source line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

/// An assembled program: decoded instructions plus their machine words,
/// laid out contiguously from [`Program::base`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// The address of the first instruction.
    pub base: u64,
    /// Decoded instructions in layout order.
    pub insts: Vec<Inst>,
    /// The 32-bit machine words (`words[i] == insts[i].encode()`).
    pub words: Vec<u32>,
    /// Label name → absolute address.
    pub labels: HashMap<String, u64>,
}

impl Program {
    /// Number of static instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// A branch/jump target: a label reference or a numeric relative offset.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Target {
    Label(String),
    Rel(i64),
}

/// A parsed instruction whose control-flow target may still be symbolic.
#[derive(Debug, Clone)]
enum Proto {
    Ready(Inst),
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        target: Target,
    },
    Jal {
        rd: Reg,
        target: Target,
    },
}

struct Parser<'a> {
    line: usize,
    text: &'a str,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> AsmError {
        AsmError {
            line: self.line,
            message: message.into(),
        }
    }

    fn reg(&self, token: &str) -> Result<Reg, AsmError> {
        Reg::from_name(token).ok_or_else(|| self.err(format!("unknown register '{token}'")))
    }

    fn imm(&self, token: &str) -> Result<i64, AsmError> {
        let (neg, digits) = match token.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, token),
        };
        // Only one leading sign: the underlying parsers accept an embedded
        // sign (`--5`, `0x-5`), which would silently flip the value.
        if digits.contains(['-', '+']) {
            return Err(self.err(format!("invalid immediate '{token}'")));
        }
        let value = if let Some(hex) = digits.strip_prefix("0x") {
            i64::from_str_radix(hex, 16)
        } else {
            digits.parse::<i64>()
        };
        match value {
            Ok(v) => Ok(if neg { -v } else { v }),
            Err(_) => Err(self.err(format!("invalid immediate '{token}'"))),
        }
    }

    fn imm12(&self, token: &str) -> Result<i32, AsmError> {
        let v = self.imm(token)?;
        if (-2048..=2047).contains(&v) {
            Ok(v as i32)
        } else {
            Err(self.err(format!("immediate {v} does not fit in 12 bits")))
        }
    }

    /// Parses `imm(reg)` into `(offset, base)`.
    fn mem(&self, token: &str) -> Result<(i32, Reg), AsmError> {
        let open = token
            .find('(')
            .ok_or_else(|| self.err(format!("expected imm(reg), got '{token}'")))?;
        let close = token
            .rfind(')')
            .filter(|&c| c > open && token[c + 1..].trim().is_empty())
            .ok_or_else(|| self.err(format!("unbalanced memory operand '{token}'")))?;
        let offset = token[..open].trim();
        let offset = if offset.is_empty() {
            Ok(0)
        } else {
            self.imm12(offset)
        }?;
        let base = self.reg(token[open + 1..close].trim())?;
        Ok((offset, base))
    }

    fn target(&self, token: &str) -> Result<Target, AsmError> {
        let first = token
            .chars()
            .next()
            .ok_or_else(|| self.err("empty branch target"))?;
        if first == '-' || first.is_ascii_digit() {
            Ok(Target::Rel(self.imm(token)?))
        } else if token
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
        {
            Ok(Target::Label(token.to_owned()))
        } else {
            Err(self.err(format!("invalid label '{token}'")))
        }
    }
}

fn split_operands(rest: &str) -> Vec<&str> {
    rest.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .collect()
}

/// Expands a small-enough `li` into one `addi`, anything else that fits in
/// 32 bits into `lui` + `addiw`.
fn expand_li(rd: Reg, value: i64, p: &Parser<'_>) -> Result<Vec<Proto>, AsmError> {
    if (-2048..=2047).contains(&value) {
        return Ok(vec![Proto::Ready(Inst::OpImm {
            op: AluImmOp::Addi,
            rd,
            rs1: Reg::ZERO,
            imm: value as i32,
        })]);
    }
    if i32::try_from(value).is_err() {
        return Err(p.err(format!("li immediate {value} does not fit in 32 bits")));
    }
    let lo = ((value << 52) >> 52) as i32; // sign-extended low 12 bits
                                           // Upper 20 bits, wrapped to the signed lui range; `addiw`'s 32-bit
                                           // wrap-and-sign-extend makes the pair exact for any i32 value.
    let hi = ((((value + 0x800) >> 12) & 0xf_ffff) << 44 >> 44) as i32;
    let mut out = vec![Proto::Ready(Inst::Lui { rd, imm20: hi })];
    if lo != 0 {
        out.push(Proto::Ready(Inst::OpImm {
            op: AluImmOp::Addiw,
            rd,
            rs1: rd,
            imm: lo,
        }));
    }
    Ok(out)
}

/// Parses one instruction (mnemonic + operand string) into its expansion.
#[allow(clippy::too_many_lines)]
fn parse_inst(mnemonic: &str, rest: &str, p: &Parser<'_>) -> Result<Vec<Proto>, AsmError> {
    let ops = split_operands(rest);
    let need = |n: usize| -> Result<(), AsmError> {
        if ops.len() == n {
            Ok(())
        } else {
            Err(p.err(format!(
                "{mnemonic} expects {n} operands, got {}",
                ops.len()
            )))
        }
    };

    if let Some(op) = AluOp::ALL.into_iter().find(|op| op.mnemonic() == mnemonic) {
        need(3)?;
        return Ok(vec![Proto::Ready(Inst::Op {
            op,
            rd: p.reg(ops[0])?,
            rs1: p.reg(ops[1])?,
            rs2: p.reg(ops[2])?,
        })]);
    }
    if let Some(op) = AluImmOp::ALL
        .into_iter()
        .find(|op| op.mnemonic() == mnemonic)
    {
        need(3)?;
        let imm = if op.is_shift() {
            let v = p.imm(ops[2])?;
            if !(0..=i64::from(op.max_shamt())).contains(&v) {
                return Err(p.err(format!("shift amount {v} out of range for {mnemonic}")));
            }
            v as i32
        } else {
            p.imm12(ops[2])?
        };
        return Ok(vec![Proto::Ready(Inst::OpImm {
            op,
            rd: p.reg(ops[0])?,
            rs1: p.reg(ops[1])?,
            imm,
        })]);
    }
    let load = |width, signed| -> Result<Vec<Proto>, AsmError> {
        need(2)?;
        let (imm, rs1) = p.mem(ops[1])?;
        Ok(vec![Proto::Ready(Inst::Load {
            width,
            signed,
            rd: p.reg(ops[0])?,
            rs1,
            imm,
        })])
    };
    let store = |width| -> Result<Vec<Proto>, AsmError> {
        need(2)?;
        let (imm, rs1) = p.mem(ops[1])?;
        Ok(vec![Proto::Ready(Inst::Store {
            width,
            rs2: p.reg(ops[0])?,
            rs1,
            imm,
        })])
    };
    let branch = |cond, swap: bool| -> Result<Vec<Proto>, AsmError> {
        need(3)?;
        let (a, b) = (p.reg(ops[0])?, p.reg(ops[1])?);
        let (rs1, rs2) = if swap { (b, a) } else { (a, b) };
        Ok(vec![Proto::Branch {
            cond,
            rs1,
            rs2,
            target: p.target(ops[2])?,
        }])
    };
    let branch_zero = |cond, reg_is_rs2: bool| -> Result<Vec<Proto>, AsmError> {
        need(2)?;
        let r = p.reg(ops[0])?;
        let (rs1, rs2) = if reg_is_rs2 {
            (Reg::ZERO, r)
        } else {
            (r, Reg::ZERO)
        };
        Ok(vec![Proto::Branch {
            cond,
            rs1,
            rs2,
            target: p.target(ops[1])?,
        }])
    };

    match mnemonic {
        "lb" => load(MemWidth::B, true),
        "lh" => load(MemWidth::H, true),
        "lw" => load(MemWidth::W, true),
        "ld" => load(MemWidth::D, true),
        "lbu" => load(MemWidth::B, false),
        "lhu" => load(MemWidth::H, false),
        "lwu" => load(MemWidth::W, false),
        "sb" => store(MemWidth::B),
        "sh" => store(MemWidth::H),
        "sw" => store(MemWidth::W),
        "sd" => store(MemWidth::D),
        "beq" => branch(BranchCond::Eq, false),
        "bne" => branch(BranchCond::Ne, false),
        "blt" => branch(BranchCond::Lt, false),
        "bge" => branch(BranchCond::Ge, false),
        "bltu" => branch(BranchCond::Ltu, false),
        "bgeu" => branch(BranchCond::Geu, false),
        "ble" => branch(BranchCond::Ge, true),
        "bgt" => branch(BranchCond::Lt, true),
        "bleu" => branch(BranchCond::Geu, true),
        "bgtu" => branch(BranchCond::Ltu, true),
        "beqz" => branch_zero(BranchCond::Eq, false),
        "bnez" => branch_zero(BranchCond::Ne, false),
        "bltz" => branch_zero(BranchCond::Lt, false),
        "bgez" => branch_zero(BranchCond::Ge, false),
        "bgtz" => branch_zero(BranchCond::Lt, true),
        "blez" => branch_zero(BranchCond::Ge, true),
        "jal" => match ops.len() {
            1 => Ok(vec![Proto::Jal {
                rd: Reg::RA,
                target: p.target(ops[0])?,
            }]),
            2 => Ok(vec![Proto::Jal {
                rd: p.reg(ops[0])?,
                target: p.target(ops[1])?,
            }]),
            n => Err(p.err(format!("jal expects 1 or 2 operands, got {n}"))),
        },
        "j" => {
            need(1)?;
            Ok(vec![Proto::Jal {
                rd: Reg::ZERO,
                target: p.target(ops[0])?,
            }])
        }
        "call" => {
            need(1)?;
            Ok(vec![Proto::Jal {
                rd: Reg::RA,
                target: p.target(ops[0])?,
            }])
        }
        "jalr" => {
            need(2)?;
            let (imm, rs1) = p.mem(ops[1])?;
            Ok(vec![Proto::Ready(Inst::Jalr {
                rd: p.reg(ops[0])?,
                rs1,
                imm,
            })])
        }
        "ret" => {
            need(0)?;
            Ok(vec![Proto::Ready(Inst::Jalr {
                rd: Reg::ZERO,
                rs1: Reg::RA,
                imm: 0,
            })])
        }
        "lui" => {
            need(2)?;
            let v = p.imm(ops[1])?;
            if !(-(1 << 19)..(1 << 19)).contains(&v) {
                return Err(p.err(format!("lui immediate {v} does not fit in 20 bits")));
            }
            Ok(vec![Proto::Ready(Inst::Lui {
                rd: p.reg(ops[0])?,
                imm20: v as i32,
            })])
        }
        "auipc" => {
            need(2)?;
            let v = p.imm(ops[1])?;
            if !(-(1 << 19)..(1 << 19)).contains(&v) {
                return Err(p.err(format!("auipc immediate {v} does not fit in 20 bits")));
            }
            Ok(vec![Proto::Ready(Inst::Auipc {
                rd: p.reg(ops[0])?,
                imm20: v as i32,
            })])
        }
        "li" => {
            need(2)?;
            expand_li(p.reg(ops[0])?, p.imm(ops[1])?, p)
        }
        "mv" => {
            need(2)?;
            Ok(vec![Proto::Ready(Inst::OpImm {
                op: AluImmOp::Addi,
                rd: p.reg(ops[0])?,
                rs1: p.reg(ops[1])?,
                imm: 0,
            })])
        }
        "neg" => {
            need(2)?;
            Ok(vec![Proto::Ready(Inst::Op {
                op: AluOp::Sub,
                rd: p.reg(ops[0])?,
                rs1: Reg::ZERO,
                rs2: p.reg(ops[1])?,
            })])
        }
        "not" => {
            need(2)?;
            Ok(vec![Proto::Ready(Inst::OpImm {
                op: AluImmOp::Xori,
                rd: p.reg(ops[0])?,
                rs1: p.reg(ops[1])?,
                imm: -1,
            })])
        }
        "seqz" => {
            need(2)?;
            Ok(vec![Proto::Ready(Inst::OpImm {
                op: AluImmOp::Sltiu,
                rd: p.reg(ops[0])?,
                rs1: p.reg(ops[1])?,
                imm: 1,
            })])
        }
        "snez" => {
            need(2)?;
            Ok(vec![Proto::Ready(Inst::Op {
                op: AluOp::Sltu,
                rd: p.reg(ops[0])?,
                rs1: Reg::ZERO,
                rs2: p.reg(ops[1])?,
            })])
        }
        "nop" => {
            need(0)?;
            Ok(vec![Proto::Ready(Inst::OpImm {
                op: AluImmOp::Addi,
                rd: Reg::ZERO,
                rs1: Reg::ZERO,
                imm: 0,
            })])
        }
        "ecall" => {
            need(0)?;
            Ok(vec![Proto::Ready(Inst::Ecall)])
        }
        other => Err(p.err(format!("unknown mnemonic '{other}'"))),
    }
}

fn strip_comment(line: &str) -> &str {
    let mut end = line.len();
    for marker in ["#", ";", "//"] {
        if let Some(pos) = line.find(marker) {
            end = end.min(pos);
        }
    }
    &line[..end]
}

/// Assembles `source` into a [`Program`] based at `base`.
///
/// # Errors
///
/// Returns an [`AsmError`] naming the offending line for syntax errors,
/// unknown mnemonics/registers, duplicate or undefined labels, and
/// out-of-range immediates or branch offsets.
pub fn assemble(source: &str, base: u64) -> Result<Program, AsmError> {
    // Pass 1: parse, expand pseudos, place labels.
    let mut protos: Vec<(usize, Proto)> = Vec::new();
    let mut labels: HashMap<String, u64> = HashMap::new();
    for (idx, raw_line) in source.lines().enumerate() {
        let p = Parser {
            line: idx + 1,
            text: raw_line,
        };
        let mut text = strip_comment(p.text).trim();
        while let Some(colon) = text.find(':') {
            let name = text[..colon].trim();
            // A leading digit is rejected so the definition grammar matches
            // the reference grammar: digit-leading branch targets parse as
            // numeric relative offsets, never as label references.
            if name.is_empty()
                || name.chars().next().is_some_and(|c| c.is_ascii_digit())
                || !name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
            {
                return Err(p.err(format!("invalid label definition '{name}'")));
            }
            let addr = base + 4 * protos.len() as u64;
            if labels.insert(name.to_owned(), addr).is_some() {
                return Err(p.err(format!("duplicate label '{name}'")));
            }
            text = text[colon + 1..].trim();
        }
        if text.is_empty() {
            continue;
        }
        let (mnemonic, rest) = text.split_once(char::is_whitespace).unwrap_or((text, ""));
        for proto in parse_inst(&mnemonic.to_lowercase(), rest, &p)? {
            protos.push((p.line, proto));
        }
    }

    // Pass 2: resolve targets and encode.
    let mut insts = Vec::with_capacity(protos.len());
    for (pos, (line, proto)) in protos.iter().enumerate() {
        let pc = base + 4 * pos as u64;
        let p = Parser {
            line: *line,
            text: "",
        };
        let resolve = |target: &Target| -> Result<i64, AsmError> {
            match target {
                Target::Rel(offset) => Ok(*offset),
                Target::Label(name) => labels
                    .get(name)
                    .map(|&addr| addr as i64 - pc as i64)
                    .ok_or_else(|| p.err(format!("undefined label '{name}'"))),
            }
        };
        let inst = match proto {
            Proto::Ready(inst) => *inst,
            Proto::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let offset = resolve(target)?;
                if !(-4096..=4094).contains(&offset) || offset % 2 != 0 {
                    return Err(p.err(format!("branch offset {offset} out of range")));
                }
                Inst::Branch {
                    cond: *cond,
                    rs1: *rs1,
                    rs2: *rs2,
                    imm: offset as i32,
                }
            }
            Proto::Jal { rd, target } => {
                let offset = resolve(target)?;
                if !(-(1 << 20)..(1 << 20)).contains(&offset) || offset % 2 != 0 {
                    return Err(p.err(format!("jump offset {offset} out of range")));
                }
                Inst::Jal {
                    rd: *rd,
                    imm: offset as i32,
                }
            }
        };
        insts.push(inst);
    }
    let words = insts.iter().map(Inst::encode).collect();
    Ok(Program {
        base,
        insts,
        words,
        labels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asm(src: &str) -> Program {
        assemble(src, 0x1000).expect("assembles")
    }

    #[test]
    fn labels_resolve_forwards_and_backwards() {
        let prog = asm("top:\n  addi a0, a0, 1\n  bne a0, a1, top\n  beq a0, a1, done\n  nop\ndone:\n  ecall\n");
        assert_eq!(prog.len(), 5);
        assert_eq!(
            prog.insts[1],
            Inst::Branch {
                cond: BranchCond::Ne,
                rs1: Reg::A0,
                rs2: Reg::A1,
                imm: -4
            }
        );
        assert_eq!(
            prog.insts[2],
            Inst::Branch {
                cond: BranchCond::Eq,
                rs1: Reg::A0,
                rs2: Reg::A1,
                imm: 8
            }
        );
        assert_eq!(prog.labels["done"], 0x1000 + 16);
    }

    #[test]
    fn li_expands_by_immediate_size() {
        assert_eq!(asm("li t0, -5").len(), 1);
        let big = asm("li t0, 0x12345");
        assert_eq!(big.len(), 2);
        assert!(matches!(big.insts[0], Inst::Lui { .. }));
        assert!(matches!(
            big.insts[1],
            Inst::OpImm {
                op: AluImmOp::Addiw,
                ..
            }
        ));
        // A label after the expansion still lands on the right address.
        let prog = asm("li t0, 0x12345\nhere:\n  j here");
        assert_eq!(prog.labels["here"], 0x1000 + 8);
    }

    #[test]
    fn pseudo_instructions_lower_to_base_forms() {
        let prog =
            asm("mv a0, a1\nneg a1, a2\nseqz a2, a3\nsnez a3, a4\nj 0\nret\nnop\nnot t0, t1");
        assert_eq!(
            prog.insts[0],
            Inst::OpImm {
                op: AluImmOp::Addi,
                rd: Reg::A0,
                rs1: Reg::A1,
                imm: 0
            }
        );
        assert_eq!(
            prog.insts[4],
            Inst::Jal {
                rd: Reg::ZERO,
                imm: 0
            }
        );
        assert_eq!(
            prog.insts[5],
            Inst::Jalr {
                rd: Reg::ZERO,
                rs1: Reg::RA,
                imm: 0
            }
        );
    }

    #[test]
    fn swapped_branches_swap_operands() {
        let prog = asm("ble a0, a1, 8\nbgt a0, a1, 8");
        assert_eq!(
            prog.insts[0],
            Inst::Branch {
                cond: BranchCond::Ge,
                rs1: Reg::A1,
                rs2: Reg::A0,
                imm: 8
            }
        );
        assert_eq!(
            prog.insts[1],
            Inst::Branch {
                cond: BranchCond::Lt,
                rs1: Reg::A1,
                rs2: Reg::A0,
                imm: 8
            }
        );
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let prog = asm("# header\n  ; alt comment\n\n  add a0, a1, a2 // trailing\n");
        assert_eq!(prog.len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = assemble("nop\nbogus a0, a1\n", 0).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("bogus"));
        let err = assemble("beq a0, a1, nowhere", 0).unwrap_err();
        assert!(err.message.contains("undefined label"));
        let err = assemble("lw a0, 5000(sp)", 0).unwrap_err();
        assert!(err.message.contains("12 bits"));
        // Double signs must error, not silently flip the value.
        assert!(assemble("li t0, --5", 0).is_err());
        assert!(assemble("li t0, 0x-5", 0).is_err());
        assert!(assemble("li t0, -0x-5", 0).is_err());
        let err = assemble("dup:\ndup:\n", 0).unwrap_err();
        assert!(err.message.contains("duplicate"));
        // A digit-leading label would be unreferencable (targets starting
        // with a digit parse as numeric offsets), so defining one is an
        // error rather than a silent mis-assembly.
        let err = assemble("124:\n  j 124\n", 0).unwrap_err();
        assert!(err.message.contains("invalid label definition"));
    }

    #[test]
    fn disassembly_reassembles_to_the_same_encoding() {
        let src = "lw a0, -16(sp)\nsd a1, 8(t0)\nbne t0, zero, -8\njal ra, 16\nmulw s0, s1, s2\nlui t3, 0x12\necall";
        let prog = asm(src);
        for inst in &prog.insts {
            let re = assemble(&inst.to_string(), 0x1000).expect("disassembly parses");
            assert_eq!(re.insts[0], *inst, "{inst}");
        }
    }

    #[test]
    fn memory_operand_with_empty_offset_defaults_to_zero() {
        let prog = asm("ld a0, (sp)");
        assert_eq!(
            prog.insts[0],
            Inst::Load {
                width: MemWidth::D,
                signed: true,
                rd: Reg::A0,
                rs1: Reg::SP,
                imm: 0
            }
        );
    }
}
