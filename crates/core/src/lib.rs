//! The Decoupled KILO-Instruction Processor (D-KIP) — the primary
//! contribution of the paper.
//!
//! The D-KIP splits execution by *execution locality*: a small out-of-order
//! **Cache Processor** executes instructions that depend only on cache hits,
//! while instructions that (transitively) depend on main-memory accesses
//! drain through a FIFO **Low-Locality Instruction Buffer** into a simple
//! **Memory Processor**. The pieces map one-to-one onto modules:
//!
//! | Paper structure | Module |
//! |---|---|
//! | Aging-ROB + Analyze stage | [`processor`] (uses [`dkip_ooo::Rob`]) |
//! | Low-Locality Bit Vector + Architectural Writers Log | [`llbv`] |
//! | Low-Locality Instruction Buffer (integer + FP) | [`llib`] |
//! | Banked Low-Locality Register File | [`llrf`] |
//! | Future-File Memory Processors | [`memory_processor`] |
//! | Address Processor (LSQ, memory ports, load-value FIFO) | [`address_processor`] |
//! | Checkpointing Stack | [`checkpoint`] |
//! | Full pipeline of Figure 8 | [`processor::DkipProcessor`] |
//!
//! The processor implements [`dkip_model::SimCore`]: [`dkip_model::drive`]
//! runs it with the same loop as the baseline and KILO cores, and
//! [`run_dkip`] is the one-call entry point for a synthetic benchmark.
//!
//! # Example
//!
//! ```
//! use dkip_core::run_dkip;
//! use dkip_model::config::{DkipConfig, MemoryHierarchyConfig};
//! use dkip_trace::Benchmark;
//!
//! let stats = run_dkip(
//!     &DkipConfig::paper_default(),
//!     &MemoryHierarchyConfig::mem_400(),
//!     Benchmark::Mesa,
//!     5_000,
//!     1,
//! );
//! assert!(stats.high_locality_fraction() > 0.5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod address_processor;
pub mod checkpoint;
pub mod llbv;
pub mod llib;
pub mod llrf;
pub mod memory_processor;
pub mod processor;

pub use address_processor::AddressProcessor;
pub use checkpoint::CheckpointStack;
pub use llbv::{Llbv, LowLocalityWriter};
pub use llib::{Llib, LlibEntry, SourceState};
pub use llrf::{Llrf, LlrfSlot};
pub use memory_processor::MemoryProcessor;
pub use processor::{run_dkip, DkipProcessor, DkipSnapshot};
