//! Experiment harness for the D-KIP reproduction.
//!
//! This crate knows how to run every experiment of the paper's evaluation
//! section and print the same rows/series the paper reports:
//!
//! * [`run_baseline`], [`run_kilo`] and [`run_dkip`] — one-call wrappers for
//!   the three processor families (re-exported from the core crates),
//! * [`Machine`] — a family with its configuration; [`Machine::build`] is
//!   the one place a family becomes a runnable [`Core`], which every exact,
//!   probed and sampled run drives through [`dkip_model::drive`],
//! * [`suite_mean_ipc`] — arithmetic-mean IPC over a benchmark list, the
//!   metric of Figures 1, 2, 9, 10, 11 and 12,
//! * [`experiments`] — one driver function per paper figure/table, each
//!   returning a structured [`report::Series`] collection,
//! * [`workload`] — the [`Workload`] abstraction: a job runs either a
//!   synthetic benchmark or an execution-driven RISC-V kernel from
//!   `dkip-riscv`, both through one `Iterator<Item = MicroOp>` path,
//! * [`runner`] — the parallel sweep runner: an explicit job list fanned out
//!   over a `std::thread::scope` worker pool with deterministic result
//!   ordering (`DKIP_THREADS` selects the pool size),
//! * [`fuzz`] — the differential-fuzzing oracle: checks that a random
//!   RV64IM program commits the same architectural state on the functional
//!   emulator and all three core families, plus the shrinking-lite
//!   minimisers used by `tests/fuzz_differential.rs`,
//! * [`sampled`] — the sampled-simulation mode: checkpointed detailed
//!   windows separated by functional fast-forward, estimating whole-run
//!   IPC with a confidence interval (opt-in per [`Job`] or via the
//!   `DKIP_SAMPLE` environment variable; exact mode stays the golden
//!   reference),
//! * [`store`] — the persistent content-addressed result store: every
//!   cacheable [`Job`] derives a stable config key, and the runner serves
//!   hits byte-identically instead of re-simulating (`DKIP_CACHE` or the
//!   `cache=` knob selects the store directory),
//! * [`service`] — the sweep service behind `dkip-sim serve`: a line
//!   protocol answering suite/job queries from the store and computing
//!   only the misses,
//! * [`chaos`] — deterministic fault injection (`DKIP_FAULTS`): named
//!   fault points on the store/runner/service I/O paths that chaos
//!   campaigns arm to exercise the failure handling, and that cost one
//!   disarmed branch otherwise,
//! * [`golden`] — golden-snapshot comparison for the regression tests under
//!   `tests/golden/`, with a `DKIP_BLESS=1` regeneration path,
//! * [`suites`] — the pinned job lists behind those snapshots, shared by the
//!   golden-stats and perf-invariance tests,
//! * [`report`] — plain-text table rendering used by the `fig*` binaries in
//!   `dkip-bench` and by `EXPERIMENTS.md`.
//!
//! The instruction budget per benchmark is a parameter everywhere: the
//! paper simulates 200M instructions per SimPoint, which is far more than
//! needed for the synthetic workloads to reach steady state; the defaults
//! used by the benches are tens of thousands of instructions so that the
//! whole figure set regenerates in minutes.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod experiments;
pub mod fuzz;
pub mod golden;
pub mod report;
pub mod runner;
pub mod sampled;
pub mod service;
pub mod store;
pub mod suites;
pub mod workload;

pub use dkip_core::run_dkip;
pub use dkip_kilo::run_kilo;
pub use dkip_ooo::run_baseline;
pub use runner::{Core, Job, JobFailure, JobResult, Machine, SweepReport, SweepRunner};
pub use sampled::{run_sampled, SampledRun};
pub use store::{ResultStore, ShardSpec, StoredResult, SweepCheckpoint, CACHE_ENV};
pub use workload::{Workload, WorkloadStream};

use dkip_model::config::MemoryHierarchyConfig;
use dkip_model::stats::MeanIpc;
use dkip_model::SimStats;
use dkip_trace::Benchmark;

/// How many instructions each benchmark runs for in an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrBudget(pub u64);

impl Default for InstrBudget {
    fn default() -> Self {
        InstrBudget(20_000)
    }
}

/// A closure-friendly alias for "run this benchmark and give me its stats".
pub type BenchRunner<'a> = dyn Fn(Benchmark) -> SimStats + 'a;

/// Arithmetic-mean IPC over `benchmarks`, running each through `runner`.
///
/// This is the "Average IPC (Arith. Mean)" metric used on the y-axis of the
/// paper's figures.
pub fn suite_mean_ipc(benchmarks: &[Benchmark], runner: &BenchRunner<'_>) -> f64 {
    let mut mean = MeanIpc::new();
    for &bench in benchmarks {
        mean.add(runner(bench).ipc());
    }
    mean.mean()
}

/// The L2 cache sizes (in KB) swept by Figures 11 and 12.
#[must_use]
pub fn figure11_l2_sizes_kb() -> Vec<usize> {
    vec![64, 128, 256, 512, 1024, 2048, 4096]
}

/// Convenience: the default memory hierarchy of Tables 2/3.
#[must_use]
pub fn default_memory() -> MemoryHierarchyConfig {
    MemoryHierarchyConfig::paper_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkip_model::config::BaselineConfig;

    #[test]
    fn suite_mean_ipc_averages_over_benchmarks() {
        let benches = [Benchmark::Mesa, Benchmark::Crafty];
        let mean = suite_mean_ipc(&benches, &|b| {
            run_baseline(
                &BaselineConfig::r10_64(),
                &MemoryHierarchyConfig::l1_2(),
                b,
                3_000,
                1,
            )
        });
        assert!(mean > 0.0 && mean <= 4.0);
    }

    #[test]
    fn l2_sweep_matches_the_paper_range() {
        let sizes = figure11_l2_sizes_kb();
        assert_eq!(sizes.first(), Some(&64));
        assert_eq!(sizes.last(), Some(&4096));
        assert_eq!(sizes.len(), 7);
    }

    #[test]
    fn default_budget_is_reasonable() {
        assert!(InstrBudget::default().0 >= 10_000);
    }
}
