//! Execution-driven RV64IM frontend for the D-KIP reproduction.
//!
//! Where `dkip-trace` synthesises statistical SPEC-like workloads, this
//! crate runs *real programs*: a small two-pass [`asm`] assembler turns the
//! embedded [`kernels`] (matmul, pointer-chasing list walk, prime sieve,
//! recursive Fibonacci, streaming memcpy, box blur) — or a seeded random
//! program from the [`gen`] differential-fuzzing generator — into RV64IM
//! [`isa::Inst`] values, the functional [`emu`] emulator executes them
//! architecturally, and
//! [`stream::RiscvStream`] cracks every retired instruction into the
//! [`dkip_model::MicroOp`] stream the core models consume — with genuine
//! dependence chains, architecturally-correct branch outcomes and real
//! load/store effective addresses.
//!
//! Because `RiscvStream` satisfies the same `Iterator<Item = MicroOp>`
//! contract as the trace generators, the out-of-order baseline, the KILO
//! model and the D-KIP run these kernels unmodified (see `Workload` in
//! `dkip-sim`).
//!
//! # Example
//!
//! ```
//! use dkip_riscv::{Kernel, RiscvStream};
//!
//! let run = Kernel::Sieve.default_run();
//! let ops: Vec<_> = RiscvStream::new(&run).collect();
//! assert!(ops.iter().all(|op| op.is_well_formed()));
//! assert!(ops.iter().any(|op| op.is_load()));
//! // The stream is finite: it ends when the kernel executes `ecall`.
//! assert!(ops.len() > 1_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod asm;
pub mod emu;
pub mod gen;
pub mod isa;
pub mod kernels;
pub mod stream;

pub use asm::{assemble, AsmError, Program};
pub use emu::{Emulator, Retired, CODE_BASE, DATA_BASE, MEM_SIZE};
pub use gen::{GenConfig, GeneratedProgram};
pub use isa::{AluImmOp, AluOp, BranchCond, Inst, MemWidth, Reg, LOADS, STORES};
pub use kernels::{Kernel, KernelRun};
pub use stream::RiscvStream;
