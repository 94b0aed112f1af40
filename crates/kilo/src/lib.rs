//! The traditional KILO-instruction processor baseline (`KILO-1024` in
//! Figure 9 of the paper).
//!
//! This baseline follows the out-of-order-commit / SLIQ line of work the
//! D-KIP paper compares against (Cristal et al.): a small **pseudo-ROB**
//! virtualised by multicheckpointing, conventional issue queues, and a large
//! **Slow-Lane Instruction Queue (SLIQ)** that holds instructions dependent
//! on outstanding long-latency loads *outside* the issue queues and lets
//! them re-enter (and issue out of order) once their operands return. The
//! SLIQ is issue-capable, unlike the D-KIP's FIFO LLIB — which is why the
//! traditional KILO design handles pointer-chasing integer code slightly
//! better, at the cost of much larger CAM structures.
//!
//! The model reuses the `dkip-ooo` engine with its slow-lane option: the
//! in-flight window is bounded by the SLIQ capacity, the issue queues by
//! the KILO queue size, and miss-dependent instructions are parked in the
//! slow lane. The KILO configurations are the most demanding users of that
//! engine's hot path (a 1088-entry window and 72-entry issue queues), so
//! they benefit directly from its sorted-slot issue-queue scoreboards,
//! pooled consumer tables and fast deterministic hashing (see
//! ARCHITECTURE.md, "Hot-path data structures").
//!
//! [`build_kilo_core`] returns that engine configured as a KILO core, which
//! [`dkip_model::drive`] runs like every other family; [`run_kilo`] is the
//! one-call entry point for a synthetic benchmark.
//!
//! # Example
//!
//! ```
//! use dkip_kilo::run_kilo;
//! use dkip_model::config::{KiloConfig, MemoryHierarchyConfig};
//! use dkip_trace::Benchmark;
//!
//! let stats = run_kilo(
//!     &KiloConfig::kilo_1024(),
//!     &MemoryHierarchyConfig::mem_400(),
//!     Benchmark::Mesa,
//!     5_000,
//!     1,
//! );
//! assert!(stats.ipc() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use dkip_mem::MemoryHierarchy;
use dkip_model::config::{KiloConfig, MemoryHierarchyConfig};
use dkip_model::SimStats;
use dkip_ooo::{CoreParams, OooCore};
use dkip_trace::{Benchmark, TraceGenerator};

/// Builds the engine parameters for a traditional KILO-instruction
/// processor.
#[must_use]
pub fn kilo_core_params(cfg: &KiloConfig) -> CoreParams {
    CoreParams {
        name: cfg.name.clone(),
        // The pseudo-ROB is virtualised by checkpointing, so the in-flight
        // window is bounded by the SLIQ plus the pseudo-ROB itself.
        window: cfg.sliq_capacity + cfg.pseudo_rob_capacity,
        int_iq: cfg.iq_capacity,
        fp_iq: cfg.iq_capacity,
        sched: dkip_model::config::SchedPolicy::OutOfOrder,
        lsq: cfg.lsq_capacity,
        memory_ports: cfg.memory_ports,
        widths: cfg.widths,
        fu: cfg.fu,
        mispredict_penalty: cfg.mispredict_penalty,
        collect_issue_histogram: false,
        slow_lane: Some(cfg.sliq_capacity),
    }
}

/// Creates a KILO-1024-style core over the given memory hierarchy.
///
/// # Panics
///
/// Panics if the configuration is invalid.
#[must_use]
pub fn build_kilo_core(cfg: &KiloConfig, mem: MemoryHierarchy) -> OooCore {
    cfg.validate().expect("invalid KILO configuration");
    OooCore::new(kilo_core_params(cfg), mem)
}

/// Runs `benchmark` for `max_instrs` committed instructions on the
/// traditional KILO baseline.
///
/// # Panics
///
/// Panics if the memory or processor configuration is invalid.
#[must_use]
pub fn run_kilo(
    cfg: &KiloConfig,
    mem_cfg: &MemoryHierarchyConfig,
    benchmark: Benchmark,
    max_instrs: u64,
    seed: u64,
) -> SimStats {
    let mem = MemoryHierarchy::new(mem_cfg.clone()).expect("invalid memory configuration");
    build_kilo_core(cfg, mem).run(&mut TraceGenerator::new(benchmark, seed), max_instrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkip_model::config::BaselineConfig;
    use dkip_ooo::run_baseline;

    #[test]
    fn params_follow_the_kilo_1024_configuration() {
        let params = kilo_core_params(&KiloConfig::kilo_1024());
        assert_eq!(params.window, 1024 + 64);
        assert_eq!(params.int_iq, 72);
        assert_eq!(params.slow_lane, Some(1024));
    }

    #[test]
    fn kilo_commits_instructions_and_reports_ipc() {
        let stats = run_kilo(
            &KiloConfig::kilo_1024(),
            &MemoryHierarchyConfig::mem_400(),
            Benchmark::Crafty,
            6_000,
            1,
        );
        assert!(stats.committed >= 6_000);
        assert!(stats.ipc() > 0.0 && stats.ipc() <= 4.0);
    }

    #[test]
    fn kilo_beats_a_small_conventional_core_on_memory_bound_fp() {
        let mem = MemoryHierarchyConfig::mem_400();
        let kilo = run_kilo(&KiloConfig::kilo_1024(), &mem, Benchmark::Swim, 12_000, 1);
        let r10_64 = run_baseline(&BaselineConfig::r10_64(), &mem, Benchmark::Swim, 12_000, 1);
        assert!(
            kilo.ipc() > r10_64.ipc(),
            "kilo={} r10-64={}",
            kilo.ipc(),
            r10_64.ipc()
        );
    }

    #[test]
    #[should_panic(expected = "invalid KILO configuration")]
    fn invalid_configurations_are_rejected() {
        let mut cfg = KiloConfig::kilo_1024();
        cfg.sliq_capacity = 0;
        let mem = MemoryHierarchy::new(MemoryHierarchyConfig::mem_400()).unwrap();
        let _ = build_kilo_core(&cfg, mem);
    }
}
