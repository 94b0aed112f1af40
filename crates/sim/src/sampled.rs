//! Sampled simulation: functionally warmed fast-forward + detailed windows.
//!
//! Exact mode simulates every instruction of a job's budget in detail. For
//! long workloads that is the dominant cost of regenerating the paper's
//! figures, even though IPC converges long before the budget is spent.
//! This module implements the classic systematic-sampling alternative
//! (SMARTS-style): the workload *stream* is functionally fast-forwarded
//! between evenly spaced detailed windows, and whole-run IPC is estimated
//! from the windows alone.
//!
//! One sampling *period* ([`dkip_model::SampleConfig`]) looks like:
//!
//! ```text
//! |--- warmup ---|--- window ---|---------- fast-forward ----------|
//!  detailed, not   detailed and   functional only: ops execute
//!  measured        measured       architecturally and warm the caches
//!                                 and predictor, no timing is modelled
//! ```
//!
//! * One core runs the whole job. At the end of every measured window it
//!   drains its pipeline, then carries its warm long-lived state — caches,
//!   branch predictor, statistics — straight across the fast-forward gap,
//!   while no stale in-flight pipeline state can leak into the next
//!   measurement (the skipped instructions were never simulated in detail).
//!   Nothing is copied between periods: cloning a [`Core`] stays the
//!   tested way to fork one (`tests/checkpoint_roundtrip.rs`), but
//!   sampling does not need it.
//! * The warmup instructions re-prime the pipeline and refresh the warm
//!   state before measurement starts; they are simulated in detail but
//!   excluded from the estimate.
//! * The fast-forward portion performs SMARTS-style *functional warming*
//!   ([`WorkloadStream::warm_forward`]): the instruction source walks the
//!   gap without building micro-ops — the RISC-V emulator executes each
//!   skipped instruction, the synthetic generator advances its template
//!   walk and RNG — and reports each skipped instruction's memory access
//!   and conditional-branch outcome straight to the drained core, a
//!   [`dkip_model::WarmSink`] that installs the line in the cache
//!   hierarchy and trains the branch predictor without modelling timing.
//!   The stream position (sequence numbers included) stays bit-identical
//!   to consuming the ops, so a sampled run commits the exact same
//!   architectural state as an exact run (the differential-fuzz oracle
//!   asserts this), and the warmed state is exactly what warming the
//!   ops one by one with `warm_op` leaves (the equivalence tests below
//!   pin both). Without warming, miss-dominated workloads measure their
//!   windows against fictitious cache contents and the estimate degrades
//!   catastrophically.
//!
//! The estimate itself is the ratio estimator over the per-window
//! populations with a normal-approximation 95% confidence interval
//! ([`dkip_model::SampleEstimator`]). Exact mode remains the golden
//! reference: `tests/sampled_accuracy.rs` pins the sampled estimate to a
//! small relative-error band against exact IPC on every golden suite.

use dkip_model::config::MemoryHierarchyConfig;
use dkip_model::{IpcEstimate, MicroOp, SampleConfig, SampleEstimator, SimStats, WindowSample};

use crate::runner::{Core, Machine};
use crate::workload::WorkloadStream;

/// The outcome of one sampled simulation ([`run_sampled`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SampledRun {
    /// The sampling rate that was used.
    pub sample: SampleConfig,
    /// The whole-run IPC estimate with its 95% confidence interval.
    pub estimate: IpcEstimate,
    /// Instructions committed in detail (warmup + measured windows).
    pub detailed_committed: u64,
    /// Instructions functionally fast-forwarded between windows.
    pub fast_forwarded: u64,
    /// Instructions the stream advanced by in total: every op drawn by a
    /// detailed core (committed or still in flight when its period ended)
    /// plus the fast-forwarded gaps.
    pub stream_consumed: u64,
}

impl SampledRun {
    /// Total instructions the run covered (the final stream position).
    #[must_use]
    pub fn consumed(&self) -> u64 {
        self.stream_consumed
    }

    /// Fraction of the covered instructions that went through a detailed
    /// core rather than the functional fast-forward path.
    #[must_use]
    pub fn detailed_fraction(&self) -> f64 {
        if self.stream_consumed == 0 {
            return 0.0;
        }
        (self.stream_consumed - self.fast_forwarded) as f64 / self.stream_consumed as f64
    }

    /// Collapses the estimate into a [`SimStats`] record so sampled jobs
    /// flow through the same reporting paths as exact ones.
    ///
    /// Only the measured-window aggregates are meaningful: `committed` and
    /// `cycles` are the window totals, so [`SimStats::ipc`] reproduces the
    /// ratio estimate exactly; every other counter is zero because the
    /// fast-forwarded gaps were never simulated in detail.
    #[must_use]
    pub fn to_stats(&self) -> SimStats {
        let mut stats = SimStats::new();
        stats.committed = self.estimate.committed;
        stats.cycles = self.estimate.cycles;
        stats
    }
}

/// Counts the micro-ops a detailed core actually draws from the stream.
///
/// A core prefetches past its commit bound, so at the end of a detailed
/// portion the stream has advanced further than the committed count — by
/// the instructions still in flight in the core. Coverage accounting must
/// follow the *stream* position, not the commit count, or a finite
/// workload would appear to end short.
struct CountedStream<'a> {
    inner: &'a mut WorkloadStream,
    taken: u64,
}

impl Iterator for CountedStream<'_> {
    type Item = MicroOp;

    fn next(&mut self) -> Option<MicroOp> {
        let op = self.inner.next();
        if op.is_some() {
            self.taken += 1;
        }
        op
    }
}

/// Runs `machine` on `stream` under systematic sampling and returns the
/// IPC estimate (see the module docs for the period anatomy).
///
/// The run covers up to `budget` instructions of the stream — the same
/// span an exact job with that budget would simulate — and ends early only
/// when a finite stream is exhausted. The stream is left positioned at the
/// end of the covered span, so a caller holding a
/// [`dkip_riscv::RiscvStream`] can drain and inspect the final emulator
/// state afterwards.
///
/// # Panics
///
/// Panics if the memory configuration or the sampling rate is invalid.
#[must_use]
pub fn run_sampled(
    machine: &Machine,
    mem_cfg: &MemoryHierarchyConfig,
    stream: &mut WorkloadStream,
    budget: u64,
    sample: &SampleConfig,
) -> SampledRun {
    run_periods(machine, mem_cfg, stream, budget, sample, Core::warm_forward).0
}

/// The period loop of [`run_sampled`], with the fast-forward step `gap`
/// ([`Core::warm_forward`], or a reference model in the tests) as a
/// parameter. Also returns the core's statistics after its final drain.
fn run_periods(
    machine: &Machine,
    mem_cfg: &MemoryHierarchyConfig,
    stream: &mut WorkloadStream,
    budget: u64,
    sample: &SampleConfig,
    mut gap: impl FnMut(&mut Core, &mut WorkloadStream, u64) -> u64,
) -> (SampledRun, SimStats) {
    sample.validate().expect("invalid sampling rate");
    let mut core = machine.build(mem_cfg);
    let mut estimator = SampleEstimator::new();
    let mut counted = CountedStream {
        inner: stream,
        taken: 0,
    };
    // Committed instructions of the earlier periods: the core's run() bound
    // is cumulative, so each segment's target is expressed on top of this.
    let mut committed_base = 0u64;
    let mut fast_forwarded = 0u64;
    let mut drained = SimStats::new();
    loop {
        let consumed = counted.taken + fast_forwarded;
        if consumed >= budget {
            break;
        }
        // Detailed portion: the drained core (warm caches, predictor and
        // statistics; empty pipeline) runs the warmup, then the measured
        // window, on the live stream.
        let warm_committed = if sample.warmup > 0 {
            core.run(&mut counted, committed_base + sample.warmup, None)
                .committed
                - committed_base
        } else {
            0
        };
        let warm_cycle = core.cycle();
        let detailed_target = sample.warmup + sample.window;
        let stats = core.run(&mut counted, committed_base + detailed_target, None);
        let window_committed = stats.committed - committed_base - warm_committed;
        let window_cycles = core.cycle() - warm_cycle;
        if window_committed > 0 {
            estimator.add_window(WindowSample {
                start_instr: consumed + warm_committed,
                committed: window_committed,
                cycles: window_cycles,
            });
        }
        let exhausted = stats.committed - committed_base < detailed_target;
        // Drain the in-flight tail by running against an exhausted stream,
        // so the next window's post-gap ops (whose sequence numbers are
        // discontinuous) enter an empty pipeline.
        drained = core.run(&mut std::iter::empty(), u64::MAX, None);
        committed_base = drained.committed;
        if exhausted {
            break; // finite stream ended inside the detailed portion
        }
        let consumed = counted.taken + fast_forwarded;
        if consumed >= budget {
            break;
        }
        // Fast-forward portion: advance the stream to the next period,
        // functionally warming the drained core's caches and predictor
        // with every skipped instruction; the next window continues on
        // this core.
        let want = sample.skip().min(budget - consumed);
        let skipped = gap(&mut core, counted.inner, want);
        fast_forwarded += skipped;
        if skipped < want {
            break; // finite stream exhausted inside the gap
        }
    }
    let run = SampledRun {
        sample: *sample,
        estimate: estimator.estimate(),
        detailed_committed: committed_base,
        fast_forwarded,
        stream_consumed: counted.taken + fast_forwarded,
    };
    (run, drained)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Job;
    use crate::workload::Workload;
    use dkip_model::config::{BaselineConfig, DkipConfig, KiloConfig};
    use dkip_riscv::Kernel;
    use dkip_trace::Benchmark;

    fn machines() -> Vec<Machine> {
        vec![
            Machine::Baseline(BaselineConfig::r10_64()),
            Machine::Kilo(KiloConfig::kilo_1024()),
            Machine::Dkip(DkipConfig::paper_default()),
        ]
    }

    #[test]
    fn sampling_covers_the_budget_on_endless_workloads() {
        let mem = MemoryHierarchyConfig::mem_400();
        let sample = SampleConfig::default_rate();
        for machine in machines() {
            let mut stream = Workload::from(Benchmark::Gcc).stream(1);
            let run = run_sampled(&machine, &mem, &mut stream, 50_000, &sample);
            // Coverage overshoots the budget by at most the last period's
            // in-flight instructions (the stream advances past the commit
            // bound while the pipeline is still full).
            assert!(
                (50_000..65_000).contains(&run.consumed()),
                "{}: consumed {}",
                machine.name(),
                run.consumed()
            );
            assert_eq!(run.estimate.windows, 5, "{}", machine.name());
            assert!(run.estimate.ipc > 0.0 && run.estimate.ipc < 8.0);
            assert!(run.detailed_fraction() < 0.40, "{}", machine.name());
            assert!(run.fast_forwarded > run.detailed_committed);
        }
    }

    #[test]
    fn sampling_stops_when_a_finite_kernel_halts() {
        let mem = MemoryHierarchyConfig::mem_400();
        let sample = SampleConfig::default_rate();
        let exact_len = Workload::from(Kernel::FibRec).stream(1).count() as u64;
        let machine = Machine::Dkip(DkipConfig::paper_default());
        let mut stream = Workload::from(Kernel::FibRec).stream(1);
        let run = run_sampled(&machine, &mem, &mut stream, u64::MAX, &sample);
        assert_eq!(run.consumed(), exact_len);
        assert!(stream.next().is_none(), "stream fully drained");
        assert!(run.estimate.windows >= 1);
    }

    #[test]
    fn sampled_runs_are_deterministic() {
        let mem = MemoryHierarchyConfig::mem_400();
        let sample = SampleConfig::parse("5000:500:500").unwrap();
        let machine = Machine::Dkip(DkipConfig::paper_default());
        let mut a = Workload::from(Benchmark::Swim).stream(1);
        let mut b = Workload::from(Benchmark::Swim).stream(1);
        let ra = run_sampled(&machine, &mem, &mut a, 30_000, &sample);
        let rb = run_sampled(&machine, &mem, &mut b, 30_000, &sample);
        assert_eq!(ra.estimate.ipc.to_bits(), rb.estimate.ipc.to_bits());
        assert_eq!(ra.estimate.ci95.to_bits(), rb.estimate.ci95.to_bits());
        assert_eq!(ra.detailed_committed, rb.detailed_committed);
        assert_eq!(ra.fast_forwarded, rb.fast_forwarded);
    }

    #[test]
    fn to_stats_reproduces_the_ratio_estimate() {
        let mem = MemoryHierarchyConfig::mem_400();
        let sample = SampleConfig::default_rate();
        let machine = Machine::Baseline(BaselineConfig::r10_64());
        let mut stream = Workload::from(Benchmark::Mcf).stream(1);
        let run = run_sampled(&machine, &mem, &mut stream, 40_000, &sample);
        let stats = run.to_stats();
        assert_eq!(stats.committed, run.estimate.committed);
        assert_eq!(stats.cycles, run.estimate.cycles);
        assert!((stats.ipc() - run.estimate.ipc).abs() < 1e-12);
    }

    /// The reference model of the fast-forward step: the per-op gap loop
    /// `run_sampled` used before warming moved into the instruction
    /// sources. Every skipped op is built by the stream iterator and
    /// handed to the core's `warm_op`.
    fn per_op_gap(core: &mut Core, stream: &mut WorkloadStream, want: u64) -> u64 {
        let mut skipped = 0u64;
        while skipped < want {
            let Some(op) = stream.next() else {
                break;
            };
            match core {
                Core::Ooo(core) => core.warm_op(&op),
                Core::Dkip(proc_) => proc_.warm_op(&op),
            }
            skipped += 1;
        }
        skipped
    }

    /// Runs `job` sampled at `sample` through both fast-forward steps and
    /// asserts the same `SampledRun`, the same statistics after the final
    /// drain (cycles, cache hits and mispredictions accumulated over every
    /// detailed window), and the stream left at the same next op and, for a
    /// RISC-V kernel, the same architectural state. Returns the run and
    /// whether the last gap ended short (the stream ran out inside it).
    fn assert_gap_paths_agree(job: &Job, sample: &SampleConfig) -> (SampledRun, bool) {
        let mut fast = job.workload.stream(job.seed);
        let mut reference = job.workload.stream(job.seed);
        let mut short_gap = false;
        let (run, stats) = run_periods(
            &job.machine,
            &job.mem,
            &mut fast,
            job.budget,
            sample,
            |core: &mut Core, stream: &mut WorkloadStream, want| {
                let skipped = core.warm_forward(stream, want);
                short_gap = skipped < want;
                skipped
            },
        );
        let (want_run, want_stats) = run_periods(
            &job.machine,
            &job.mem,
            &mut reference,
            job.budget,
            sample,
            per_op_gap,
        );
        assert_eq!(run, want_run, "{}: sampled runs differ", job.label);
        assert_eq!(stats, want_stats, "{}: warmed state differs", job.label);
        if let (WorkloadStream::Riscv(a), WorkloadStream::Riscv(b)) = (&fast, &reference) {
            assert_eq!(a.emulator().regs(), b.emulator().regs(), "{}", job.label);
            assert_eq!(a.emulator().pc(), b.emulator().pc(), "{}", job.label);
        }
        assert_eq!(
            fast.next(),
            reference.next(),
            "{}: next op differs",
            job.label
        );
        (run, short_gap)
    }

    #[test]
    fn warming_from_the_source_matches_per_op_warming_on_the_golden_matrices() {
        for (suite, jobs) in crate::suites::golden_sampled_suites() {
            for job in jobs {
                let sample = job.sample.expect("golden sampled jobs carry a rate");
                let (run, _) = assert_gap_paths_agree(&job, &sample);
                assert!(
                    run.fast_forwarded > 0,
                    "{suite}/{}: no gap warmed",
                    job.label
                );
            }
        }
    }

    #[test]
    fn warming_from_the_source_matches_per_op_warming_when_a_kernel_halts_in_a_gap() {
        // Periods of two thirds of the kernel's length with short windows:
        // the second period's window ends well before the halt, and its
        // gap runs past it.
        let run = dkip_riscv::KernelRun::new(Kernel::FibRec, 16);
        let exact_len = Workload::from(run).stream(1).count() as u64;
        let sample = SampleConfig::parse(&format!("{}:0:500", exact_len * 2 / 3)).unwrap();
        for machine in machines() {
            let job = Job::new(
                "fibrec",
                machine,
                MemoryHierarchyConfig::mem_400(),
                run,
                u64::MAX,
            );
            let (sampled, short_gap) = assert_gap_paths_agree(&job, &sample);
            assert!(
                short_gap,
                "{}: the kernel ({exact_len} instrs) must halt inside a gap",
                job.machine.name()
            );
            assert_eq!(sampled.consumed(), exact_len);
        }
    }

    #[test]
    fn whole_period_windows_degenerate_to_exact_simulation() {
        // window == period with no warmup and no gap: every instruction is
        // simulated in detail on the one core.
        let mem = MemoryHierarchyConfig::mem_400();
        let sample = SampleConfig::parse("10000:0:10000").unwrap();
        let machine = Machine::Baseline(BaselineConfig::r10_64());
        let mut stream = Workload::from(Benchmark::Gcc).stream(1);
        let run = run_sampled(&machine, &mem, &mut stream, 10_000, &sample);
        assert_eq!(run.fast_forwarded, 0);
        assert!(run.detailed_committed >= 10_000);
        let exact = machine.simulate(&mem, &Workload::from(Benchmark::Gcc), 10_000, 1);
        assert_eq!(run.estimate.committed, exact.committed);
        assert_eq!(run.estimate.cycles, exact.cycles);
    }
}
