//! Facade crate for the Decoupled KILO-Instruction Processor (D-KIP)
//! reproduction.
//!
//! This crate re-exports every workspace member under a stable set of module
//! names so that downstream users (and the examples and integration tests in
//! this repository) only need a single dependency:
//!
//! * [`model`] — shared instruction/register/configuration/statistics types,
//! * [`trace`] — synthetic SPEC2000-like workload generators,
//! * [`riscv`] — the execution-driven RV64IM frontend (assembler, emulator,
//!   embedded kernels) feeding real instruction streams to every core,
//! * [`mem`] — the two-level cache hierarchy and main-memory model,
//! * [`bpred`] — the paper's perceptron branch predictor,
//! * [`ooo`] — the R10000-style out-of-order baseline core,
//! * [`kilo`] — the traditional KILO-instruction processor baseline,
//! * [`dkip`] — the Decoupled KILO-Instruction Processor itself,
//! * [`sim`] — the experiment harness that regenerates every table and
//!   figure of the paper.
//!
//! # Quickstart
//!
//! ```
//! use dkip::model::config::{DkipConfig, MemoryHierarchyConfig};
//! use dkip::trace::spec::Benchmark;
//! use dkip::sim::run_dkip;
//!
//! // Simulate a short slice of a SpecFP-like workload on the default D-KIP.
//! let stats = run_dkip(
//!     &DkipConfig::paper_default(),
//!     &MemoryHierarchyConfig::mem_400(),
//!     Benchmark::Swim,
//!     20_000,
//!     1,
//! );
//! assert!(stats.ipc() > 0.0);
//! ```

#![warn(missing_docs)]

pub use dkip_bpred as bpred;
pub use dkip_core as dkip;
pub use dkip_kilo as kilo;
pub use dkip_mem as mem;
pub use dkip_model as model;
pub use dkip_ooo as ooo;
pub use dkip_riscv as riscv;
pub use dkip_sim as sim;
pub use dkip_trace as trace;
