//! Common model types for the Decoupled KILO-Instruction Processor (D-KIP)
//! reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`reg`] — architectural and physical register identifiers,
//! * [`op`] — micro-operation classes, functional-unit pools and latencies,
//! * [`instr`] — the trace-level [`instr::MicroOp`] record produced by the
//!   workload generators and consumed by every core model,
//! * [`config`] — configuration structures for the memory hierarchy, the
//!   baseline out-of-order cores, the traditional KILO processor and the
//!   D-KIP itself, including the presets of Tables 1, 2 and 3 of the paper,
//! * [`stats`] — counters, histograms and the aggregate [`stats::SimStats`]
//!   record reported by every simulation,
//! * [`collections`] — deterministic, allocation-conscious containers for
//!   the per-cycle hot path of the core models,
//! * [`telemetry`] — the optional intra-run probe sink (interval
//!   time-series metrics and Konata/O3PipeView pipeline traces) the cores
//!   drive from inside their cycle loops,
//! * [`warm`] — the [`warm::WarmSink`] through which instruction sources
//!   report skipped instructions' memory accesses and branch outcomes to
//!   a functionally warmed core,
//! * [`sim_core`] — the [`sim_core::SimCore`] trait every core family
//!   implements and the one [`sim_core::drive`] loop that runs them all,
//! * [`error`] — configuration validation errors.
//!
//! # Example
//!
//! ```
//! use dkip_model::config::{DkipConfig, MemoryHierarchyConfig};
//!
//! let dkip = DkipConfig::paper_default();
//! let mem = MemoryHierarchyConfig::mem_400();
//! assert_eq!(dkip.cache_processor.rob_capacity, 64);
//! assert_eq!(mem.memory_latency, 400);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod collections;
pub mod config;
pub mod error;
pub mod instr;
pub mod key;
pub mod op;
pub mod reg;
pub mod sim_core;
pub mod stats;
pub mod telemetry;
pub mod warm;

pub use collections::{ConsumerTable, DepList, FastHashMap, FastHashSet, LastWriters, MAX_SOURCES};
pub use config::{
    event_clock_enabled, BaselineConfig, CacheProcessorConfig, DkipConfig, KiloConfig,
    MemoryHierarchyConfig, MemoryProcessorConfig, SampleConfig, SchedPolicy, NO_SKIP_ENV,
    SAMPLE_ENV,
};
pub use error::ConfigError;
pub use instr::{BranchInfo, BranchKind, MicroOp};
pub use key::{fnv1a_128, key_digest, KeyWriter, StableKey};
pub use op::{FuPool, OpClass};
pub use reg::{ArchReg, PhysReg, RegClass, FP_ARCH_REGS, INT_ARCH_REGS, TOTAL_ARCH_REGS};
pub use sim_core::{drive, SimCore};
pub use stats::{Histogram, IpcEstimate, SampleEstimator, SimStats, WindowSample};
pub use telemetry::{MetricsConfig, MetricsFrame, Stage, Telemetry, TraceConfig, METRICS_ENV};
pub use warm::{WarmLog, WarmSink};
