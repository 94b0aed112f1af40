//! Two-level cache hierarchy and main-memory model for the D-KIP
//! reproduction.
//!
//! The paper evaluates its processors against the memory subsystems of
//! Table 1 (a perfect L1, perfect L2s with 11/21-cycle latencies, and real
//! two-level hierarchies backed by 100/400/1000-cycle main memories) and the
//! default hierarchy of Table 2 (32 KB L1, 512 KB L2, 400-cycle memory).
//! This crate provides:
//!
//! * [`cache::SetAssocCache`] — a set-associative, LRU, write-allocate cache
//!   model,
//! * [`hierarchy::MemoryHierarchy`] — the L1 → L2 → memory lookup path with
//!   outstanding-miss (MSHR-style) merging, driven by
//!   [`dkip_model::config::MemoryHierarchyConfig`],
//! * [`hierarchy::AccessOutcome`] — the latency and the level that serviced
//!   each access, which the cores use both for timing and for the D-KIP's
//!   load classification (an access serviced by main memory makes the
//!   destination register *low locality*).
//!
//! # Example
//!
//! ```
//! use dkip_mem::MemoryHierarchy;
//! use dkip_model::config::MemoryHierarchyConfig;
//!
//! let mut mem = MemoryHierarchy::new(MemoryHierarchyConfig::mem_400()).unwrap();
//! let first = mem.access(0x1000, false, 0);
//! let second = mem.access(0x1000, false, first.latency + 1);
//! assert!(first.latency > second.latency, "second access hits in L1");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod hierarchy;

pub use cache::SetAssocCache;
pub use hierarchy::{AccessLevel, AccessOutcome, MemStats, MemoryHierarchy};
