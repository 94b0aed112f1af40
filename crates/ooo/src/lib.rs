//! R10000-style out-of-order baseline core and shared pipeline components.
//!
//! The paper compares the D-KIP against conventional out-of-order processors
//! (`R10-64`, `R10-256`, the idealised cores of Figures 1–3) and builds its
//! own Cache Processor out of the same structures. This crate provides:
//!
//! * the two parts every core family shares — [`front_end::FrontEnd`]
//!   (fetch, branch prediction and mispredict recovery) and
//!   [`engine::IssueEngine`] (rename, wakeup, select and writeback over a
//!   [`rob::Rob`] and two [`iq::IssueQueue`]s) — held by [`core::OooCore`]
//!   and by the D-KIP's Cache Processor (`dkip-core`),
//! * the components they are built from, which the D-KIP's Memory and
//!   Address Processors also use: [`iq::IssueQueue`], [`lsq::Lsq`],
//!   [`fu::FunctionalUnits`] and [`fu::MemPorts`],
//! * [`core::OooCore`], a trace-driven cycle-level out-of-order pipeline
//!   with branch prediction, dependency-driven wakeup, functional-unit and
//!   memory-port arbitration, store-to-load forwarding and in-order commit;
//!   it implements [`dkip_model::SimCore`], so [`dkip_model::drive`] runs
//!   it like every other core,
//! * an optional *slow lane* (WIB/SLIQ-style buffer) in the issue engine,
//!   used by the KILO-1024 baseline (`dkip-kilo`),
//! * [`core::run_baseline`], the one-call entry point for a synthetic
//!   benchmark on a baseline configuration.
//!
//! # Example
//!
//! ```
//! use dkip_model::config::{BaselineConfig, MemoryHierarchyConfig};
//! use dkip_ooo::run_baseline;
//! use dkip_trace::Benchmark;
//!
//! let stats = run_baseline(
//!     &BaselineConfig::r10_64(),
//!     &MemoryHierarchyConfig::mem_400(),
//!     Benchmark::Mesa,
//!     5_000,
//!     1,
//! );
//! assert!(stats.ipc() > 0.0 && stats.ipc() <= 4.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod core;
pub mod engine;
pub mod front_end;
pub mod fu;
pub mod iq;
pub mod lsq;
pub mod rob;

pub use crate::core::{run_baseline, CoreParams, CoreSnapshot, OooCore};
pub use engine::{IssueEngine, MemorySide};
pub use front_end::FrontEnd;
pub use fu::{FunctionalUnits, MemPorts};
pub use iq::IssueQueue;
pub use lsq::Lsq;
pub use rob::{Rob, RobEntry};
