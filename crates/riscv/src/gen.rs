//! Seeded generation of valid, terminating RV64IM programs for
//! differential fuzzing.
//!
//! [`GenConfig::generate`] turns a seed plus a handful of shape parameters
//! into an assembly source string that is **valid by construction** (it
//! always assembles at [`CODE_BASE`]) and **terminating by construction**
//! (the emulator reaches `ecall` within [`GeneratedProgram::dynamic_bound`]
//! retired instructions). The differential-fuzz harness feeds these
//! programs to the functional emulator and all three core families and
//! asserts they commit identical architectural state — see
//! `dkip_sim::fuzz`.
//!
//! # Structure of a generated program
//!
//! A program is a prologue, `blocks` basic blocks `b0..b{n-1}` laid out in
//! order, an `exit: ecall` block, and up to [`GenConfig::leaves`] callable
//! leaf functions placed after the exit:
//!
//! * the prologue pins the two scratch-region base registers (`s0`, `s1`),
//!   initialises every backward-loop counter register, and seeds the
//!   general register pool with random constants;
//! * each block body is straight-line: ALU operations (including the full
//!   div/rem family — their RV64M semantics are total, so any operands are
//!   legal), loads/stores, balanced `sp` push/pop pairs and `call`s into
//!   leaf functions;
//! * each block ends with a terminator: fallthrough, a forward `j`, a
//!   forward conditional branch, or a bounded backward loop edge.
//!
//! # Invariants (what makes every program valid and terminating)
//!
//! 1. **Register discipline.** Random instructions write only the 15-entry
//!    general pool (`t0`–`t2`, `a0`–`a7`, `t3`–`t6`). The base registers
//!    `s0`/`s1`, the loop counters (`s2`…), `ra` and `sp` are never
//!    destinations of pool instructions, so address bases, trip counters
//!    and the call/return linkage cannot be clobbered. Any register may be
//!    *read*.
//! 2. **Confined memory.** Every load/store address is `s0`- or
//!    `s1`-relative with an offset such that the access stays inside the
//!    4 KiB scratch window at [`DATA_BASE`]; stack traffic uses `sp`-relative
//!    offsets inside a push/pop pair. No access can leave the 1 MiB flat
//!    memory, so the emulator's bounds panic is unreachable.
//! 3. **Balanced `sp`.** Stack traffic is emitted only as an atomic
//!    `addi sp,-16; sd; ld; addi sp,+16` quadruple inside one block body,
//!    so `sp` has its initial value at every block boundary and at `ecall`.
//! 4. **Forward-only control flow, except bounded loops.** `j` and
//!    conditional branches only target *later* block labels (or `exit`).
//!    The only backward edges are loop terminators of the form
//!    `addi ck,ck,-1; bgtz ck, b<target>` where `ck` is a dedicated counter
//!    register initialised to a positive trip count in the prologue and
//!    decremented nowhere else. Each counter decreases monotonically, so
//!    each backward edge is taken fewer than `trip` times over the whole
//!    run, regardless of loop nesting.
//! 5. **Calls terminate.** `call` targets are leaf functions: straight-line
//!    ALU bodies ending in `ret`. Leaves write only pool registers and
//!    never call, so `ra` is live across the whole leaf.
//!
//! From (4) and (5): execution between two taken backward edges retires at
//! most one pass over the static program (forward progress plus bounded
//! leaf detours), and at most `sum of trips` backward edges are ever taken,
//! which yields the conservative bound [`GeneratedProgram::dynamic_bound`].

use crate::asm::{assemble, Program};
use crate::emu::{Emulator, CODE_BASE, DATA_BASE};
use crate::isa::{AluImmOp, AluOp, BranchCond, Inst, MemWidth, Reg, LOADS, STORES};
use std::fmt::Write as _;

/// Size in bytes of each base register's scratch window. `s0` points at
/// [`DATA_BASE`], `s1` at `DATA_BASE + SCRATCH_WINDOW`; offsets stay below
/// the window size, confining all data accesses to 2 × 2 KiB.
pub const SCRATCH_WINDOW: u64 = 2048;

/// The general register pool random instructions may write.
pub const POOL: [Reg; 15] = [
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::A0,
    Reg::A1,
    Reg::A2,
    Reg::A3,
    Reg::A4,
    Reg::A5,
    Reg::A6,
    Reg::A7,
    Reg::T3,
    Reg::T4,
    Reg::T5,
    Reg::T6,
];

/// Loop-counter registers, allocated in order (`s2`–`s9`): at most
/// [`MAX_LOOPS`] backward edges per program.
const COUNTERS: [Reg; 8] = [
    Reg::S2,
    Reg::S3,
    Reg::S4,
    Reg::S5,
    Reg::S6,
    Reg::S7,
    Reg::S8,
    Reg::S9,
];

/// Maximum number of backward loop edges in one program.
pub const MAX_LOOPS: usize = COUNTERS.len();

/// Shape parameters for one generated program. Everything is derived
/// deterministically from `seed` and these knobs, which is what makes
/// shrinking-lite possible: lowering a knob at a fixed seed yields a
/// smaller program of the same character.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GenConfig {
    /// RNG seed; equal configs generate bit-identical sources.
    pub seed: u64,
    /// Number of basic blocks (`0` generates the bare `ecall` program).
    pub blocks: u32,
    /// Maximum straight-line instructions per block body.
    pub block_len: u32,
    /// Maximum trip count of each backward loop (`0` disables loops).
    pub max_trip: u32,
    /// Number of callable leaf functions (`0` disables calls).
    pub leaves: u32,
}

impl GenConfig {
    /// A mid-sized default shape: a handful of blocks with loops, calls,
    /// memory traffic and stack pairs all enabled.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        GenConfig {
            seed,
            blocks: 8,
            block_len: 12,
            max_trip: 24,
            leaves: 2,
        }
    }

    /// Generates the program for this configuration.
    #[must_use]
    pub fn generate(&self) -> GeneratedProgram {
        Generator::new(*self).emit()
    }
}

/// A generated program: the assembly source plus the metadata the fuzz
/// harness needs (a termination bound and a display name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedProgram {
    /// The configuration that produced this program.
    pub cfg: GenConfig,
    /// The assembly source (always assembles at [`CODE_BASE`]).
    pub source: String,
    /// Static instruction count after pseudo-instruction expansion.
    pub static_len: u64,
    /// Conservative upper bound on retired instructions: the emulator
    /// must reach `ecall` within this many steps (see the module docs for
    /// the argument).
    pub dynamic_bound: u64,
}

impl GeneratedProgram {
    /// Display name, `gen/<seed>` (hex).
    #[must_use]
    pub fn name(&self) -> String {
        format!("gen/{:#x}", self.cfg.seed)
    }

    /// Assembles the source at [`CODE_BASE`].
    ///
    /// # Panics
    ///
    /// Panics if the source does not assemble — a generator bug by
    /// definition (validity invariant 1 in the module docs), pinned by the
    /// `generated_programs_always_assemble` proptest.
    #[must_use]
    pub fn program(&self) -> Program {
        match assemble(&self.source, CODE_BASE) {
            Ok(program) => program,
            Err(err) => panic!("generated program {} does not assemble: {err}", self.name()),
        }
    }

    /// A ready-to-run emulator with the step backstop set to
    /// [`GeneratedProgram::dynamic_bound`], so a termination-invariant
    /// violation surfaces as `!ran_to_completion()` instead of a 50M-step
    /// spin.
    #[must_use]
    pub fn emulator(&self) -> Emulator {
        let mut emu = Emulator::new(&self.program());
        emu.set_step_limit(self.dynamic_bound);
        emu
    }
}

/// Per-block terminator plan, decided before emission so loop counters can
/// be initialised in the prologue.
#[derive(Debug, Clone, Copy)]
enum Term {
    /// Fall through to the next block.
    Fall,
    /// Unconditional forward jump to block index (== `blocks` means `exit`).
    Jump(u32),
    /// Conditional forward branch; not-taken falls through.
    CondForward(BranchCond, u32),
    /// Bounded backward edge: decrement `counter`, branch to `target`
    /// while positive. The prologue initialisation value (trip count) is
    /// recorded in `Generator::loops`, keyed by `counter`.
    LoopBack { target: u32, counter: Reg },
}

/// Deterministic SplitMix64 driving generation (same permutation family as
/// the vendored proptest shim, seeded directly).
#[derive(Debug)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        // Pre-mix so small consecutive seeds diverge immediately.
        let mut rng = Rng(seed ^ 0x6a09_e667_f3bc_c909);
        rng.next();
        rng
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform pick from a non-empty slice.
    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    /// True with probability `pct`%.
    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    /// Uniform `i32` in `lo..=hi`.
    fn imm(&mut self, lo: i32, hi: i32) -> i32 {
        lo + self.below((i64::from(hi) - i64::from(lo) + 1) as u64) as i32
    }
}

struct Generator {
    cfg: GenConfig,
    rng: Rng,
    src: String,
    /// `(counter, trip)` pairs allocated to backward edges, in order.
    loops: Vec<(Reg, u32)>,
    /// Static instructions emitted so far (post pseudo-expansion; `li` of a
    /// 32-bit constant may expand to 2, counted as 2).
    static_len: u64,
}

impl Generator {
    fn new(cfg: GenConfig) -> Self {
        Generator {
            rng: Rng::new(cfg.seed),
            cfg,
            src: String::new(),
            loops: Vec::new(),
            static_len: 0,
        }
    }

    fn line(&mut self, text: &str, static_cost: u64) {
        let _ = writeln!(self.src, "  {text}");
        self.static_len += static_cost;
    }

    fn inst(&mut self, inst: &Inst) {
        self.line(&inst.to_string(), 1);
    }

    fn label(&mut self, name: &str) {
        let _ = writeln!(self.src, "{name}:");
    }

    /// A random source register: mostly pool, sometimes `zero`, sometimes a
    /// reserved read-only register (base/counter) for extra dependence
    /// variety.
    fn src_reg(&mut self) -> Reg {
        if self.rng.chance(8) {
            Reg::ZERO
        } else if self.rng.chance(10) {
            let reserved = [Reg::S0, Reg::S1, Reg::SP, Reg::S2, Reg::S3];
            self.rng.pick(&reserved)
        } else {
            self.rng.pick(&POOL)
        }
    }

    fn pool_reg(&mut self) -> Reg {
        self.rng.pick(&POOL)
    }

    /// `li reg, <32-bit value>` costs up to 2 static instructions
    /// (`lui + addi`).
    fn li(&mut self, reg: Reg, value: i32) {
        self.line(&format!("li {reg}, {value}"), 2);
    }

    fn plan_terminators(&mut self) -> Vec<Term> {
        let blocks = self.cfg.blocks;
        let mut terms = Vec::with_capacity(blocks as usize);
        for i in 0..blocks {
            let exit = blocks; // label index of `exit`
            let can_loop = self.cfg.max_trip > 0 && self.loops.len() < MAX_LOOPS;
            let term = if can_loop && self.rng.chance(30) {
                let counter = COUNTERS[self.loops.len()];
                let trip = 1 + self.rng.below(u64::from(self.cfg.max_trip)) as u32;
                self.loops.push((counter, trip));
                Term::LoopBack {
                    target: self.rng.below(u64::from(i) + 1) as u32,
                    counter,
                }
            } else if self.rng.chance(20) {
                Term::Jump(i + 1 + self.rng.below(u64::from(exit - i)) as u32)
            } else if self.rng.chance(35) {
                let cond = self.rng.pick(&BranchCond::ALL);
                Term::CondForward(cond, i + 1 + self.rng.below(u64::from(exit - i)) as u32)
            } else {
                Term::Fall
            };
            terms.push(term);
        }
        terms
    }

    fn emit_prologue(&mut self) {
        let _ = writeln!(self.src, "  # prologue: bases, loop counters, pool seeds");
        #[allow(clippy::cast_possible_truncation)]
        self.li(Reg::S0, DATA_BASE as i32);
        #[allow(clippy::cast_possible_truncation)]
        self.li(Reg::S1, (DATA_BASE + SCRATCH_WINDOW) as i32);
        let loops = self.loops.clone();
        for (counter, trip) in loops {
            #[allow(clippy::cast_possible_wrap)]
            self.li(counter, trip as i32);
        }
        // Seed a random subset of the pool with random 32-bit constants so
        // the first block starts from varied values rather than all-zero.
        for reg in POOL {
            if self.rng.chance(70) {
                let value = self.rng.next() as i32;
                self.li(reg, value);
            }
        }
    }

    /// One random body instruction (or short atomic group).
    fn emit_body_inst(&mut self) {
        let roll = self.rng.below(100);
        match roll {
            // Register-register ALU, full RV64IM table including div/rem.
            0..=29 => {
                let inst = Inst::Op {
                    op: self.rng.pick(&AluOp::ALL),
                    rd: self.pool_reg(),
                    rs1: self.src_reg(),
                    rs2: self.src_reg(),
                };
                self.inst(&inst);
            }
            // Register-immediate ALU.
            30..=54 => {
                let op = self.rng.pick(&AluImmOp::ALL);
                let imm = if op.is_shift() {
                    self.rng.imm(0, op.max_shamt())
                } else {
                    self.rng.imm(-2048, 2047)
                };
                let inst = Inst::OpImm {
                    op,
                    rd: self.pool_reg(),
                    rs1: self.src_reg(),
                    imm,
                };
                self.inst(&inst);
            }
            // Upper-immediate producers.
            55..=62 => {
                let rd = self.pool_reg();
                let imm20 = self.rng.imm(-(1 << 19), (1 << 19) - 1);
                let inst = if self.rng.chance(50) {
                    Inst::Lui { rd, imm20 }
                } else {
                    Inst::Auipc { rd, imm20 }
                };
                self.inst(&inst);
            }
            // Scratch-region load.
            63..=77 => {
                let (_, width, signed) = self.rng.pick(&LOADS);
                let inst = Inst::Load {
                    width,
                    signed,
                    rd: self.pool_reg(),
                    rs1: self.base_reg(),
                    imm: self.scratch_offset(width),
                };
                self.inst(&inst);
            }
            // Scratch-region store.
            78..=89 => {
                let (_, width) = self.rng.pick(&STORES);
                let inst = Inst::Store {
                    width,
                    rs2: self.src_reg(),
                    rs1: self.base_reg(),
                    imm: self.scratch_offset(width),
                };
                self.inst(&inst);
            }
            // Balanced sp push/pop pair (atomic within the block body).
            90..=94 => {
                let saved = self.pool_reg();
                let restored = self.pool_reg();
                self.line("addi sp, sp, -16", 1);
                self.line(&format!("sd {saved}, 8(sp)"), 1);
                self.line(&format!("ld {restored}, 8(sp)"), 1);
                self.line("addi sp, sp, 16", 1);
            }
            // Call into a leaf function (if any exist).
            _ => {
                if self.cfg.leaves > 0 {
                    let leaf = self.rng.below(u64::from(self.cfg.leaves));
                    self.line(&format!("call leaf{leaf}"), 1);
                } else {
                    let inst = Inst::Op {
                        op: AluOp::Add,
                        rd: self.pool_reg(),
                        rs1: self.src_reg(),
                        rs2: self.src_reg(),
                    };
                    self.inst(&inst);
                }
            }
        }
    }

    fn base_reg(&mut self) -> Reg {
        if self.rng.chance(50) {
            Reg::S0
        } else {
            Reg::S1
        }
    }

    /// An offset keeping `addr..addr+bytes` inside the base register's
    /// 2 KiB window; usually aligned, occasionally deliberately misaligned.
    fn scratch_offset(&mut self, width: MemWidth) -> i32 {
        let bytes = i32::from(width.bytes());
        let max = SCRATCH_WINDOW as i32 - bytes;
        let raw = self.rng.imm(0, max);
        if self.rng.chance(85) {
            raw & !(bytes - 1)
        } else {
            raw
        }
    }

    fn emit_terminator(&mut self, term: Term, blocks: u32) {
        let target_label = |t: u32| {
            if t >= blocks {
                "exit".to_owned()
            } else {
                format!("b{t}")
            }
        };
        match term {
            Term::Fall => {}
            Term::Jump(t) => self.line(&format!("j {}", target_label(t)), 1),
            Term::CondForward(cond, t) => {
                let rs1 = self.src_reg();
                let rs2 = self.src_reg();
                let line = format!("{} {rs1}, {rs2}, {}", cond.mnemonic(), target_label(t));
                self.line(&line, 1);
            }
            Term::LoopBack {
                target, counter, ..
            } => {
                self.line(&format!("addi {counter}, {counter}, -1"), 1);
                self.line(&format!("bgtz {counter}, {}", target_label(target)), 1);
            }
        }
    }

    fn emit_leaves(&mut self) {
        for leaf in 0..self.cfg.leaves {
            self.label(&format!("leaf{leaf}"));
            let body = 1 + self.rng.below(3);
            for _ in 0..body {
                let inst = Inst::Op {
                    op: self.rng.pick(&AluOp::ALL),
                    rd: self.pool_reg(),
                    rs1: self.src_reg(),
                    rs2: self.src_reg(),
                };
                self.inst(&inst);
            }
            self.line("ret", 1);
        }
    }

    fn emit(mut self) -> GeneratedProgram {
        let cfg = self.cfg;
        let _ = writeln!(
            self.src,
            "# generated RV64IM program: seed={:#x} blocks={} block_len={} max_trip={} leaves={}",
            cfg.seed, cfg.blocks, cfg.block_len, cfg.max_trip, cfg.leaves
        );
        let terms = self.plan_terminators();
        self.emit_prologue();
        for (i, term) in terms.iter().enumerate() {
            self.label(&format!("b{i}"));
            let body = self.rng.below(u64::from(self.cfg.block_len) + 1);
            for _ in 0..body {
                self.emit_body_inst();
            }
            self.emit_terminator(*term, cfg.blocks);
        }
        self.label("exit");
        self.line("ecall", 1);
        self.emit_leaves();

        // Termination bound (module docs): at most `1 + sum(trips)` straight
        // passes over the program, each pass at most `static_len` long; the
        // +8 and ×2 absorb prologue/leaf slop without risking tightness.
        let total_trips: u64 = self.loops.iter().map(|&(_, trip)| u64::from(trip)).sum();
        let dynamic_bound = (self.static_len + 8) * (total_trips + 2) * 2;
        GeneratedProgram {
            cfg,
            source: self.src,
            static_len: self.static_len,
            dynamic_bound,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emu::MEM_SIZE;

    fn run(cfg: &GenConfig) -> (GeneratedProgram, Emulator) {
        let gen = cfg.generate();
        let mut emu = gen.emulator();
        emu.run_to_halt();
        (gen, emu)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = GenConfig::new(42).generate();
        let b = GenConfig::new(42).generate();
        assert_eq!(a, b);
        let c = GenConfig::new(43).generate();
        assert_ne!(a.source, c.source, "different seeds generate differently");
    }

    #[test]
    fn generated_programs_assemble_and_terminate() {
        for seed in 0..200 {
            let (gen, emu) = run(&GenConfig::new(seed));
            assert!(
                emu.ran_to_completion(),
                "seed {seed}: did not halt within the {} bound ({} retired)",
                gen.dynamic_bound,
                emu.retired()
            );
            assert!(
                emu.retired() <= gen.dynamic_bound,
                "seed {seed}: bound not conservative"
            );
        }
    }

    #[test]
    fn zero_block_config_is_the_bare_ecall_program() {
        let (gen, emu) = run(&GenConfig {
            seed: 7,
            blocks: 0,
            block_len: 0,
            max_trip: 0,
            leaves: 0,
        });
        assert!(emu.ran_to_completion());
        // prologue li's retire, then ecall; no blocks in between.
        assert!(gen.source.contains("exit:"));
        assert!(emu.retired() >= 1);
    }

    #[test]
    fn sp_is_balanced_at_exit() {
        for seed in 0..50 {
            let (_, emu) = run(&GenConfig::new(seed));
            assert_eq!(emu.reg(Reg::SP), MEM_SIZE, "seed {seed}: sp unbalanced");
        }
    }

    #[test]
    fn memory_traffic_stays_inside_the_scratch_and_stack_regions() {
        for seed in 0..50 {
            let gen = GenConfig::new(seed).generate();
            let mut emu = gen.emulator();
            while let Some(retired) = emu.step() {
                let Some(addr) = retired.mem_addr else {
                    continue;
                };
                let in_scratch = (DATA_BASE..DATA_BASE + 2 * SCRATCH_WINDOW).contains(&addr);
                let in_stack = addr >= MEM_SIZE - 64;
                assert!(
                    in_scratch || in_stack,
                    "seed {seed}: access at {addr:#x} escapes scratch+stack"
                );
            }
        }
    }

    #[test]
    fn loop_counters_and_bases_are_never_pool_destinations() {
        // Structural check: past the prologue (which initialises bases and
        // counters), no Op/Lui/Auipc/Load writes a reserved register. The
        // only post-prologue writes outside the pool are the terminator
        // `addi ck, ck, -1` decrements and `sp`/`ra` linkage, all OpImm/Jal.
        for seed in 0..20 {
            let gen = GenConfig::new(seed).generate();
            let program = gen.program();
            let body_start = ((program.labels["b0"] - program.base) / 4) as usize;
            for inst in &program.insts[body_start..] {
                let written = match *inst {
                    Inst::Op { rd, .. } | Inst::Lui { rd, .. } | Inst::Auipc { rd, .. } => Some(rd),
                    Inst::Load { rd, .. } => Some(rd),
                    _ => None,
                };
                if let Some(rd) = written {
                    assert!(
                        POOL.contains(&rd) || rd.is_zero(),
                        "seed {seed}: {inst} writes reserved register {rd}"
                    );
                }
            }
        }
    }

    #[test]
    fn shapes_scale_with_the_config() {
        let small = GenConfig {
            seed: 5,
            blocks: 2,
            block_len: 2,
            max_trip: 2,
            leaves: 0,
        }
        .generate();
        let large = GenConfig {
            seed: 5,
            blocks: 12,
            block_len: 24,
            max_trip: 32,
            leaves: 3,
        }
        .generate();
        assert!(large.static_len > small.static_len);
    }
}
