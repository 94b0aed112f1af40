//! Parallel sweep runner for the experiment harness.
//!
//! Every paper artefact is a sweep over independent, fully deterministic
//! simulation points. This module turns such a sweep into an explicit job
//! list — one [`Job`] per `(machine, memory, benchmark, seed, budget)`
//! point — and fans it out over a [`SweepRunner`] worker pool built on
//! `std::thread::scope`, so figure regeneration scales with the host's
//! cores while the results stay byte-identical to a serial run:
//!
//! * jobs are claimed from a shared atomic cursor, so scheduling is dynamic,
//! * results are written back into the slot of the job that produced them,
//!   so the output order is the input order regardless of which worker
//!   finished first,
//! * each [`JobResult`] carries the job's wall-clock time so throughput can
//!   be reported without affecting the simulated statistics.
//!
//! The thread count comes from [`SweepRunner::from_env`] (the `DKIP_THREADS`
//! environment variable, defaulting to the available parallelism) or is set
//! explicitly with [`SweepRunner::new`]; `SweepRunner::new(1)` degrades to a
//! plain serial loop on the caller's thread.
//!
//! Jobs are failure-isolated: each one runs under `catch_unwind`, so a
//! panicking simulation point becomes a recorded [`JobFailure`] in the
//! [`SweepReport`] instead of aborting the whole sweep (see the
//! [`crate::chaos`] fault points that exercise this continuously).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::chaos::{self, FaultPoint};
use crate::store::{ResultStore, StoredResult};
use crate::workload::{Workload, WorkloadStream};
use dkip_core::DkipProcessor;
use dkip_kilo::build_kilo_core;
use dkip_mem::MemoryHierarchy;
use dkip_model::config::{
    event_clock_enabled, BaselineConfig, DkipConfig, KiloConfig, MemoryHierarchyConfig,
};
use dkip_model::{
    drive, KeyWriter, MetricsConfig, MicroOp, SampleConfig, SimCore, SimStats, StableKey, Telemetry,
};
use dkip_ooo::OooCore;

/// Environment variable overriding the worker-pool size.
pub const THREADS_ENV: &str = "DKIP_THREADS";

/// One of the three simulated processor families, with its configuration.
///
/// A `Machine` is the "what to simulate" half of a [`Job`];
/// [`Machine::build`] turns it into a runnable [`Core`].
#[derive(Debug, Clone, PartialEq)]
pub enum Machine {
    /// An R10000-style out-of-order baseline (`dkip_ooo::OooCore`).
    Baseline(BaselineConfig),
    /// The traditional KILO-instruction processor (`dkip_kilo::build_kilo_core`).
    Kilo(KiloConfig),
    /// The Decoupled KILO-Instruction Processor (`dkip_core::DkipProcessor`).
    Dkip(DkipConfig),
}

impl Machine {
    /// The human-readable configuration name ("R10-64", "KILO-1024", …).
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            Machine::Baseline(cfg) => &cfg.name,
            Machine::Kilo(cfg) => &cfg.name,
            Machine::Dkip(cfg) => &cfg.name,
        }
    }

    /// Short family tag used in golden-file headers.
    #[must_use]
    pub fn family(&self) -> &'static str {
        match self {
            Machine::Baseline(_) => "baseline",
            Machine::Kilo(_) => "kilo",
            Machine::Dkip(_) => "dkip",
        }
    }

    /// Builds the pristine core of this machine over a fresh memory
    /// hierarchy. This is the one place a family becomes a core.
    ///
    /// # Panics
    ///
    /// Panics if the memory or processor configuration is invalid.
    #[must_use]
    pub fn build(&self, mem: &MemoryHierarchyConfig) -> Core {
        let mem = MemoryHierarchy::new(mem.clone()).expect("invalid memory configuration");
        match self {
            Machine::Baseline(cfg) => Core::Ooo(Box::new(OooCore::from_baseline(cfg, mem))),
            Machine::Kilo(cfg) => Core::Ooo(Box::new(build_kilo_core(cfg, mem))),
            Machine::Dkip(cfg) => Core::Dkip(Box::new(DkipProcessor::new(cfg.clone(), mem))),
        }
    }

    /// Runs this machine on one workload and returns its statistics.
    ///
    /// This is the single path every (family × workload) combination runs
    /// through: the workload opens its [`MicroOp`] stream and
    /// [`Machine::simulate_stream`] runs it on a freshly built core.
    /// Synthetic benchmarks run for `budget` committed instructions; finite
    /// execution-driven kernels run to completion (bounded by `budget`).
    #[must_use]
    pub fn simulate(
        &self,
        mem: &MemoryHierarchyConfig,
        workload: &Workload,
        budget: u64,
        seed: u64,
    ) -> SimStats {
        let mut stream = workload.stream(seed);
        self.simulate_stream(mem, &mut stream, budget)
    }

    /// Runs this machine on an already-open [`MicroOp`] stream.
    ///
    /// The differential-fuzz harness ([`crate::fuzz`]) calls it directly so
    /// a generated program's [`dkip_riscv::RiscvStream`] can be inspected
    /// (final emulator state) after the core drains it.
    #[must_use]
    pub fn simulate_stream(
        &self,
        mem: &MemoryHierarchyConfig,
        stream: &mut dyn Iterator<Item = MicroOp>,
        budget: u64,
    ) -> SimStats {
        self.simulate_stream_probed(mem, stream, budget, None)
    }

    /// [`Machine::simulate_stream`] with an optional telemetry sink
    /// attached. A detached probe (`None`) is bit-identical to not probing
    /// at all; a sink collects interval metrics and/or a
    /// Konata/O3PipeView pipeline trace without perturbing the simulated
    /// statistics.
    #[must_use]
    pub fn simulate_stream_probed(
        &self,
        mem: &MemoryHierarchyConfig,
        stream: &mut dyn Iterator<Item = MicroOp>,
        budget: u64,
        probe: Option<&mut Telemetry>,
    ) -> SimStats {
        self.build(mem).run(stream, budget, probe)
    }
}

/// A detailed core of any family, built by [`Machine::build`]. Baseline and
/// KILO share the [`OooCore`] engine; the D-KIP has its own decoupled
/// pipeline. Each operation dispatches once and then runs monomorphised
/// code ([`drive`], or a whole fast-forward gap).
///
/// `Clone` is the snapshot: a clone continues bit-identically to the
/// original (`tests/checkpoint_roundtrip.rs`).
#[derive(Debug, Clone)]
pub enum Core {
    /// Baseline or KILO configuration on the shared out-of-order engine.
    Ooo(Box<OooCore>),
    /// The decoupled cache/memory-processor pipeline.
    Dkip(Box<DkipProcessor>),
}

impl Core {
    /// Runs the core through [`drive`] until `max_instrs` instructions have
    /// committed in total (the bound is cumulative across calls) or a
    /// finite stream drains, with an optional telemetry sink attached.
    pub fn run(
        &mut self,
        stream: &mut dyn Iterator<Item = MicroOp>,
        max_instrs: u64,
        probe: Option<&mut Telemetry>,
    ) -> SimStats {
        match self {
            Core::Ooo(core) => drive(core.as_mut(), stream, max_instrs, probe),
            Core::Dkip(proc_) => drive(proc_.as_mut(), stream, max_instrs, probe),
        }
    }

    /// The core's current cycle count.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        match self {
            Core::Ooo(core) => core.cycle(),
            Core::Dkip(proc_) => proc_.cycle(),
        }
    }

    /// Fast-forwards `stream` by up to `n` instructions, functionally
    /// warming this core's caches and predictor with each one, and returns
    /// how many were skipped (fewer only when a finite stream ends).
    pub fn warm_forward(&mut self, stream: &mut WorkloadStream, n: u64) -> u64 {
        match self {
            Core::Ooo(core) => stream.warm_forward(n, core.as_mut()),
            Core::Dkip(proc_) => stream.warm_forward(n, proc_.as_mut()),
        }
    }
}

/// One simulation point of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Caller-chosen grouping key; [`mean_ipc_by_label`] averages over equal
    /// labels and the figure drivers use it as "series × x" coordinates.
    pub label: String,
    /// The processor to simulate.
    pub machine: Machine,
    /// The memory hierarchy to attach.
    pub mem: MemoryHierarchyConfig,
    /// The workload (synthetic benchmark or RISC-V kernel).
    pub workload: Workload,
    /// Instructions to simulate (finite workloads may end earlier).
    pub budget: u64,
    /// Trace-generator seed (ignored by execution-driven workloads).
    pub seed: u64,
    /// Sampled-simulation rate, or `None` for exact (cycle-by-cycle)
    /// simulation. Defaults from the `DKIP_SAMPLE` environment variable in
    /// [`Job::new`]; exact mode is the golden reference and stays the
    /// default when the variable is unset.
    pub sample: Option<SampleConfig>,
    /// Interval-metrics collection, or `None` for an unprobed run (the
    /// golden reference path). Defaults from the `DKIP_METRICS` environment
    /// variable in [`Job::new`]. Each job writes to its own file — the
    /// configured path with a sanitised job tag inserted before the
    /// extension ([`MetricsConfig::for_job`]) — so sweep outputs never
    /// collide across workers.
    pub metrics: Option<MetricsConfig>,
}

impl Job {
    /// Creates a job with the default experiment seed
    /// ([`crate::experiments::SEED`]). `workload` accepts a
    /// [`dkip_trace::Benchmark`], a [`dkip_riscv::Kernel`] or a
    /// [`dkip_riscv::KernelRun`] as well as a [`Workload`].
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        machine: Machine,
        mem: MemoryHierarchyConfig,
        workload: impl Into<Workload>,
        budget: u64,
    ) -> Self {
        Job {
            label: label.into(),
            machine,
            mem,
            workload: workload.into(),
            budget,
            seed: crate::experiments::SEED,
            sample: SampleConfig::from_env(),
            metrics: MetricsConfig::from_env(),
        }
    }

    /// Returns a copy with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy running under sampled simulation at the given rate
    /// (see [`crate::sampled`]), overriding the `DKIP_SAMPLE` default.
    #[must_use]
    pub fn with_sample(mut self, sample: SampleConfig) -> Self {
        self.sample = Some(sample);
        self
    }

    /// Returns a copy forced to exact (cycle-by-cycle) simulation.
    #[must_use]
    pub fn exact(mut self) -> Self {
        self.sample = None;
        self
    }

    /// Returns a copy with interval-metrics collection enabled, overriding
    /// the `DKIP_METRICS` default.
    #[must_use]
    pub fn with_metrics(mut self, metrics: MetricsConfig) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Returns a copy with interval-metrics collection disabled.
    #[must_use]
    pub fn unprobed(mut self) -> Self {
        self.metrics = None;
        self
    }

    /// The sanitised tag identifying this job in per-job metrics file
    /// names (see [`MetricsConfig::for_job`]).
    #[must_use]
    pub fn metrics_tag(&self) -> String {
        format!(
            "{} {} {} {} {}",
            self.label,
            self.machine.family(),
            self.mem.name,
            self.workload.name(),
            self.seed,
        )
    }

    /// Renders the canonical key text identifying this simulation point for
    /// the content-addressed result store (see [`crate::store`]).
    ///
    /// The text covers *everything* that determines the statistics: the
    /// machine family and full configuration, the memory hierarchy, the
    /// workload name (which fully determines the workload — see
    /// [`Workload::parse`]), the budget, the seed, the sampling knob and
    /// the clock mode (`DKIP_NO_SKIP` changes scheduling granularity, so
    /// event- and step-clock results must never share an entry). The
    /// `label` is presentation-only and the `metrics` probe makes a job
    /// uncacheable ([`Job::cacheable`]) rather than part of the key.
    #[must_use]
    pub fn key_text(&self) -> String {
        let mut w = KeyWriter::new();
        w.field("family", self.machine.family());
        match &self.machine {
            Machine::Baseline(cfg) => w.scoped("machine", |w| cfg.write_key(w)),
            Machine::Kilo(cfg) => w.scoped("machine", |w| cfg.write_key(w)),
            Machine::Dkip(cfg) => w.scoped("machine", |w| cfg.write_key(w)),
        }
        w.scoped("mem", |w| self.mem.write_key(w));
        w.field("workload", self.workload.name());
        w.field("budget", self.budget);
        w.field("seed", self.seed);
        match &self.sample {
            None => w.field("sample", "none"),
            Some(sample) => w.scoped("sample", |w| sample.write_key(w)),
        }
        w.field(
            "clock",
            if event_clock_enabled() {
                "event"
            } else {
                "step"
            },
        );
        w.finish()
    }

    /// Whether this job's result may be served from / written to the result
    /// store. Metrics-probed jobs are excluded: their purpose is the
    /// telemetry files they write as a side effect, which a cache hit would
    /// silently skip.
    #[must_use]
    pub fn cacheable(&self) -> bool {
        self.metrics.is_none()
    }

    /// Builds the [`JobResult`] for a cache hit. The statistics are the
    /// verified stored document; `wall` is zero because no simulation
    /// happened (it is metadata, excluded from every serialisation).
    #[must_use]
    fn result_from_cache(&self, stored: StoredResult) -> JobResult {
        JobResult {
            label: self.label.clone(),
            machine_name: self.machine.name().to_owned(),
            family: self.machine.family(),
            mem_name: self.mem.name.clone(),
            workload: self.workload,
            seed: self.seed,
            budget: self.budget,
            sample: self.sample,
            stats: stored.stats,
            covered: stored.covered,
            wall: Duration::ZERO,
        }
    }

    /// One-line human description of the simulation point (family,
    /// machine, memory, workload, seed, budget) used in failure reports.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "{} {} mem={} bench={} seed={} budget={}",
            self.machine.family(),
            self.machine.name(),
            self.mem.name,
            self.workload.name(),
            self.seed,
            self.budget,
        )
    }

    /// Runs the job on the calling thread.
    ///
    /// Exact jobs simulate every instruction; sampled jobs run through
    /// [`crate::sampled::run_sampled`] and report the window-aggregate
    /// statistics (so `stats.ipc()` is the sampled estimate).
    ///
    /// # Panics
    ///
    /// Panics on any [`Job::try_run`] error — a metrics file that cannot
    /// be written, in practice. Sweep callers go through the runner, which
    /// records failures instead (see [`SweepReport::failures`]).
    #[must_use]
    pub fn run(&self) -> JobResult {
        self.try_run()
            .unwrap_or_else(|e| panic!("job {:?} failed: {e}", self.label))
    }

    /// Runs the job on the calling thread, reporting recoverable failures
    /// as an error message instead of panicking.
    ///
    /// Today the only recoverable failure is a per-job metrics file that
    /// cannot be written: the simulation itself is deterministic and
    /// in-memory. The [`chaos`] fault points `job.panic` (an injected
    /// panic, exercising the runner's `catch_unwind` isolation) and
    /// `metrics.write` (an injected write error) both land here.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the per-job metrics file
    /// cannot be written; the simulated statistics are discarded because
    /// the job's purpose — the telemetry side effect — did not happen.
    ///
    /// # Panics
    ///
    /// Panics when both sampling and interval metrics are requested (the
    /// fast-forwarded gaps of a sampled run have no cycle-accurate state to
    /// report): that is a configuration error, not a runtime fault.
    pub fn try_run(&self) -> Result<JobResult, String> {
        let start = Instant::now();
        assert!(
            self.sample.is_none() || self.metrics.is_none(),
            "interval metrics require exact simulation: unset DKIP_SAMPLE or DKIP_METRICS"
        );
        if chaos::should_fire(FaultPoint::JobPanic) {
            panic!(
                "{}: injected job.panic fault ({})",
                chaos::CHAOS_TAG,
                self.label
            );
        }
        let (stats, covered) = match &self.sample {
            None => {
                let stats = match &self.metrics {
                    None => {
                        self.machine
                            .simulate(&self.mem, &self.workload, self.budget, self.seed)
                    }
                    Some(metrics) => {
                        let per_job = metrics.for_job(&self.metrics_tag());
                        let mut telemetry = Telemetry::from_configs(Some(&per_job), None);
                        let mut stream = self.workload.stream(self.seed);
                        let stats = self.machine.simulate_stream_probed(
                            &self.mem,
                            &mut stream,
                            self.budget,
                            Some(&mut telemetry),
                        );
                        match chaos::fail_io(FaultPoint::MetricsWrite) {
                            Some(injected) => Err(injected),
                            None => telemetry.write_files(),
                        }
                        .map_err(|e| format!("cannot write {per_job}: {e}"))?;
                        stats
                    }
                };
                let covered = stats.committed;
                (stats, covered)
            }
            Some(sample) => {
                let mut stream = self.workload.stream(self.seed);
                let run = crate::sampled::run_sampled(
                    &self.machine,
                    &self.mem,
                    &mut stream,
                    self.budget,
                    sample,
                );
                (run.to_stats(), run.consumed())
            }
        };
        Ok(JobResult {
            label: self.label.clone(),
            machine_name: self.machine.name().to_owned(),
            family: self.machine.family(),
            mem_name: self.mem.name.clone(),
            workload: self.workload,
            seed: self.seed,
            budget: self.budget,
            sample: self.sample,
            stats,
            covered,
            wall: start.elapsed(),
        })
    }
}

/// One job that did not produce a result: an isolated panic
/// (`catch_unwind` around the job, so one poisoned simulation point cannot
/// abort a thousand-job sweep) or a recoverable [`Job::try_run`] error.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// The failed job's index in the sweep's job list — the position its
    /// result would have occupied in [`SweepReport::results`] (later
    /// results shift up to fill the gap). `dkip-sim sweep` uses it to
    /// retry exactly the failed points.
    pub index: usize,
    /// The failed job's grouping label.
    pub label: String,
    /// The failed job's simulation point ([`Job::describe`]).
    pub job: String,
    /// What went wrong: the panic payload (rendered via
    /// [`chaos::panic_message`]) or the [`Job::try_run`] error.
    pub message: String,
}

impl JobFailure {
    /// One-line rendering for failure summaries and `err` responses.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "job {} ({}: {}): {}",
            self.index, self.label, self.job, self.message
        )
    }
}

/// The outcome of one [`Job`], in the position of the job that produced it.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's grouping label.
    pub label: String,
    /// The machine configuration name.
    pub machine_name: String,
    /// The machine family tag ("baseline" / "kilo" / "dkip").
    pub family: &'static str,
    /// The memory-hierarchy configuration name ("MEM-400", "L2-11", …).
    pub mem_name: String,
    /// The workload that ran.
    pub workload: Workload,
    /// The seed that was used.
    pub seed: u64,
    /// The instruction budget that was used.
    pub budget: u64,
    /// The sampling rate, or `None` for an exact run.
    pub sample: Option<SampleConfig>,
    /// The simulated statistics.
    pub stats: SimStats,
    /// Instructions the run covered. Equal to `stats.committed` for exact
    /// runs; for sampled runs the full simulated span (detailed windows
    /// plus functionally fast-forwarded gaps), which is the meaningful
    /// numerator for host-throughput metrics. Metadata only, like `wall`:
    /// excluded from [`JobResult::to_kv`].
    pub covered: u64,
    /// Host wall-clock time spent simulating this job. Metadata only: it is
    /// deliberately excluded from [`JobResult::to_kv`] so snapshots stay
    /// machine-independent.
    pub wall: Duration,
}

impl JobResult {
    /// Serialises the result (header + [`SimStats::to_kv`] body) in the
    /// stable format stored in golden snapshot files. Wall-clock time is
    /// excluded.
    #[must_use]
    pub fn to_kv(&self) -> String {
        // The `sample=` field only appears for sampled runs, so exact-mode
        // golden snapshots are byte-identical to the pre-sampling format.
        let sample = self
            .sample
            .map_or(String::new(), |rate| format!(" sample={rate}"));
        format!(
            "[{} {} mem={} bench={} seed={} budget={}{}]\n{}",
            self.family,
            self.machine_name,
            self.mem_name,
            self.workload.name(),
            self.seed,
            self.budget,
            sample,
            self.stats.to_kv()
        )
    }
}

/// Serialises an ordered result list into one stable snapshot document.
#[must_use]
pub fn results_to_kv(results: &[JobResult]) -> String {
    let mut out = String::new();
    for (idx, result) in results.iter().enumerate() {
        out.push_str(&format!("# job {idx}: {}\n", result.label));
        out.push_str(&result.to_kv());
        out.push('\n');
    }
    out
}

/// Arithmetic-mean IPC per label, preserving first-occurrence order.
///
/// The figure drivers encode "series × x-coordinate" into [`Job::label`] and
/// use this to collapse per-benchmark results into the per-point suite means
/// the paper plots.
#[must_use]
pub fn mean_ipc_by_label(results: &[JobResult]) -> Vec<(String, f64)> {
    let mut order: Vec<String> = Vec::new();
    let mut sums: Vec<(f64, u64)> = Vec::new();
    for result in results {
        match order.iter().position(|l| l == &result.label) {
            Some(idx) => {
                sums[idx].0 += result.stats.ipc();
                sums[idx].1 += 1;
            }
            None => {
                order.push(result.label.clone());
                sums.push((result.stats.ipc(), 1));
            }
        }
    }
    order
        .into_iter()
        .zip(sums)
        .map(|(label, (sum, count))| (label, sum / count as f64))
        .collect()
}

/// One sweep's results plus its cache accounting (see
/// [`SweepRunner::run_report`]).
#[derive(Debug)]
pub struct SweepReport {
    /// The per-job results, in job order. Failed jobs are *omitted* (their
    /// positions are in [`SweepReport::failures`]), so a fully green sweep
    /// has one result per job and a degraded one has fewer.
    pub results: Vec<JobResult>,
    /// Jobs served from the result store without simulating.
    pub hits: u64,
    /// Jobs that were simulated: cache misses (recomputed and written back)
    /// when a store is attached, every job otherwise.
    pub misses: u64,
    /// Jobs excluded from caching (metrics-probed, see [`Job::cacheable`]).
    pub uncacheable: u64,
    /// Jobs that panicked or failed recoverably, sorted by job index.
    /// Empty on a healthy sweep.
    pub failures: Vec<JobFailure>,
}

impl SweepReport {
    /// Whether every job produced a result.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Unwraps a sweep that must be fully green: returns the ordered
    /// results, or — when any job failed — prints a per-failure summary to
    /// stderr and panics with the failure count. This is the exit path of
    /// the figure binaries (via [`SweepRunner::run`]): a partial figure is
    /// worse than no figure, but the operator still gets told exactly
    /// which simulation points died and why.
    ///
    /// # Panics
    ///
    /// Panics when [`SweepReport::failures`] is non-empty.
    #[must_use]
    pub fn expect_complete(self) -> Vec<JobResult> {
        if self.failures.is_empty() {
            return self.results;
        }
        for failure in &self.failures {
            eprintln!("# dkip-sweep failure: {}", failure.render());
        }
        panic!(
            "{} of {} sweep jobs failed (summary above)",
            self.failures.len(),
            self.failures.len() + self.results.len(),
        );
    }
}

/// Per-job completion callback for [`SweepRunner::run_report_observed`]:
/// invoked with `(job index, result)` from whichever worker finished the
/// job, possibly concurrently.
pub type JobObserver<'a> = &'a (dyn Fn(usize, &JobResult) + Sync);

/// A fixed-size worker pool that runs a [`Job`] list to completion.
///
/// Scheduling is dynamic (workers claim the next unstarted job), but the
/// result vector is ordered by job index, so the output — and therefore any
/// golden serialisation derived from it — is identical for every thread
/// count. When a [`ResultStore`] is attached ([`SweepRunner::with_store`] or
/// the `DKIP_CACHE` environment variable via [`SweepRunner::from_env`]),
/// each cacheable job is looked up before simulating and written back on a
/// miss; because stored entries are verified byte-for-byte on load, a hit
/// is byte-identical to a recompute, preserving the thread-count invariant.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    threads: usize,
    store: Option<ResultStore>,
}

impl SweepRunner {
    /// Creates a runner with exactly `threads` workers (clamped to ≥ 1) and
    /// no result store.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        SweepRunner {
            threads: threads.max(1),
            store: None,
        }
    }

    /// A single-threaded runner (the serial reference).
    #[must_use]
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Reads the thread count from the `DKIP_THREADS` environment variable,
    /// falling back to the host's available parallelism when it is unset,
    /// and attaches the result store named by `DKIP_CACHE` (if any).
    ///
    /// # Panics
    ///
    /// Panics when `DKIP_THREADS` is set but not a positive integer, or
    /// when `DKIP_CACHE` names a directory that cannot be created. Like the
    /// `threads=N` CLI argument, an explicitly stated knob must not fall
    /// back silently — a CI job pinning the pool size or cache would
    /// otherwise run with whatever the host happens to have.
    #[must_use]
    pub fn from_env() -> Self {
        let runner = match std::env::var(THREADS_ENV) {
            Err(_) => Self::new(std::thread::available_parallelism().map_or(1, usize::from)),
            Ok(value) => match Self::parse_threads(&value) {
                Some(n) => Self::new(n),
                None => panic!("invalid {THREADS_ENV}={value:?}: expected a positive integer"),
            },
        };
        runner.with_store_opt(ResultStore::from_env())
    }

    /// Parses an explicit thread-count string (whitespace-tolerant).
    fn parse_threads(value: &str) -> Option<usize> {
        value.trim().parse::<usize>().ok().filter(|&n| n > 0)
    }

    /// The number of worker threads this runner uses.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Returns a copy with the given result store attached.
    #[must_use]
    pub fn with_store(mut self, store: ResultStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Returns a copy with the given (optional) store attached — `None`
    /// detaches, like [`SweepRunner::without_store`].
    #[must_use]
    pub fn with_store_opt(mut self, store: Option<ResultStore>) -> Self {
        self.store = store;
        self
    }

    /// Returns a copy with no result store (every job simulates).
    #[must_use]
    pub fn without_store(mut self) -> Self {
        self.store = None;
        self
    }

    /// The attached result store, if any.
    #[must_use]
    pub fn store(&self) -> Option<&ResultStore> {
        self.store.as_ref()
    }

    /// Runs every job and returns the results in job order.
    ///
    /// # Panics
    ///
    /// Panics (after printing a per-job failure summary to stderr) when any
    /// job fails — see [`SweepReport::expect_complete`]. Callers that want
    /// to survive partial failure use [`SweepRunner::run_report`] and
    /// inspect [`SweepReport::failures`] themselves.
    #[must_use]
    pub fn run(&self, jobs: &[Job]) -> Vec<JobResult> {
        self.run_report(jobs).expect_complete()
    }

    /// Runs every job and returns the results together with the sweep's
    /// cache accounting and failure list.
    ///
    /// Each job runs under `catch_unwind`: a panicking simulation point
    /// (or a recoverable [`Job::try_run`] error) becomes a recorded
    /// [`JobFailure`] and the sweep carries on, instead of one bad job
    /// aborting hours of completed shard work.
    #[must_use]
    pub fn run_report(&self, jobs: &[Job]) -> SweepReport {
        self.run_report_observed(jobs, None)
    }

    /// [`SweepRunner::run_report`] with an optional per-job completion
    /// callback, invoked with `(job index, result)` from whichever worker
    /// finished the job (concurrently — the callback must synchronise its
    /// own state), and only for jobs that *succeeded* — so `dkip-sim
    /// sweep`'s checkpoints never mark a failed job done.
    ///
    /// # Panics
    ///
    /// Propagates a panic from the callback. Job panics do not propagate:
    /// they are caught and recorded in [`SweepReport::failures`] (the
    /// default panic hook still prints the usual trace to stderr first).
    #[must_use]
    pub fn run_report_observed(
        &self,
        jobs: &[Job],
        on_done: Option<JobObserver<'_>>,
    ) -> SweepReport {
        let hits = AtomicU64::new(0);
        let misses = AtomicU64::new(0);
        let uncacheable = AtomicU64::new(0);
        let failures: Mutex<Vec<JobFailure>> = Mutex::new(Vec::new());
        let execute = |idx: usize, job: &Job| -> Option<JobResult> {
            let attempt = catch_unwind(AssertUnwindSafe(|| -> Result<JobResult, String> {
                match (&self.store, job.cacheable()) {
                    (Some(store), true) => {
                        let key = store.key_for_text(&job.key_text());
                        match store.lookup(&key) {
                            Some(stored) => {
                                hits.fetch_add(1, Ordering::Relaxed);
                                Ok(job.result_from_cache(stored))
                            }
                            None => {
                                misses.fetch_add(1, Ordering::Relaxed);
                                let result = job.try_run()?;
                                // A failed write is not a job failure: the
                                // result is correct, only uncached. The
                                // store retries, then logs its own
                                // degradation notice once.
                                let _ = store.insert(&key, &result.stats, result.covered);
                                Ok(result)
                            }
                        }
                    }
                    (store, _) => {
                        if store.is_some() {
                            uncacheable.fetch_add(1, Ordering::Relaxed);
                        } else {
                            misses.fetch_add(1, Ordering::Relaxed);
                        }
                        job.try_run()
                    }
                }
            }));
            let message = match attempt {
                Ok(Ok(result)) => {
                    if let Some(observe) = on_done {
                        observe(idx, &result);
                    }
                    return Some(result);
                }
                Ok(Err(message)) => message,
                Err(payload) => format!("panicked: {}", chaos::panic_message(payload.as_ref())),
            };
            failures.lock().expect("runner poisoned").push(JobFailure {
                index: idx,
                label: job.label.clone(),
                job: job.describe(),
                message,
            });
            None
        };
        let results = if jobs.is_empty() {
            Vec::new()
        } else if self.threads == 1 || jobs.len() == 1 {
            jobs.iter()
                .enumerate()
                .filter_map(|(idx, job)| execute(idx, job))
                .collect()
        } else {
            let cursor = AtomicUsize::new(0);
            let slots: Mutex<Vec<Option<JobResult>>> =
                Mutex::new((0..jobs.len()).map(|_| None).collect());
            std::thread::scope(|scope| {
                for _ in 0..self.threads.min(jobs.len()) {
                    scope.spawn(|| loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(idx) else { break };
                        let result = execute(idx, job);
                        slots.lock().expect("runner poisoned")[idx] = result;
                    });
                }
            });
            slots
                .into_inner()
                .expect("runner poisoned")
                .into_iter()
                .flatten()
                .collect()
        };
        let mut failures = failures.into_inner().expect("runner poisoned");
        failures.sort_by_key(|f| f.index);
        SweepReport {
            results,
            hits: hits.into_inner(),
            misses: misses.into_inner(),
            uncacheable: uncacheable.into_inner(),
            failures,
        }
    }

    /// Convenience: runs the jobs and returns only the ordered statistics.
    #[must_use]
    pub fn run_stats(&self, jobs: &[Job]) -> Vec<SimStats> {
        self.run(jobs).into_iter().map(|r| r.stats).collect()
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkip_riscv::Kernel;
    use dkip_trace::Benchmark;

    fn smoke_jobs() -> Vec<Job> {
        let mem = MemoryHierarchyConfig::mem_400();
        vec![
            Job::new(
                "base",
                Machine::Baseline(BaselineConfig::r10_64()),
                mem.clone(),
                Benchmark::Gcc,
                1_500,
            ),
            Job::new(
                "kilo",
                Machine::Kilo(KiloConfig::kilo_1024()),
                mem.clone(),
                Benchmark::Mesa,
                1_500,
            ),
            Job::new(
                "dkip",
                Machine::Dkip(DkipConfig::paper_default()),
                mem,
                Benchmark::Swim,
                1_500,
            ),
        ]
    }

    #[test]
    fn results_preserve_job_order() {
        let jobs = smoke_jobs();
        let results = SweepRunner::new(3).run(&jobs);
        assert_eq!(results.len(), jobs.len());
        for (job, result) in jobs.iter().zip(&results) {
            assert_eq!(job.label, result.label);
            assert_eq!(job.workload, result.workload);
            assert!(result.stats.committed > 0);
        }
    }

    #[test]
    fn riscv_workloads_run_through_the_same_path() {
        let mem = MemoryHierarchyConfig::mem_400();
        let jobs = vec![
            Job::new(
                "rv-base",
                Machine::Baseline(BaselineConfig::r10_64()),
                mem.clone(),
                Kernel::FibRec,
                100_000,
            ),
            Job::new(
                "rv-dkip",
                Machine::Dkip(DkipConfig::paper_default()),
                mem,
                Kernel::FibRec,
                100_000,
            ),
        ];
        let results = SweepRunner::new(2).run(&jobs);
        let dynamic_len = Workload::from(Kernel::FibRec).stream(1).count() as u64;
        for result in &results {
            assert_eq!(
                result.stats.committed, dynamic_len,
                "{}: finite kernels run to completion",
                result.label
            );
            assert!(result.to_kv().contains("bench=riscv:fibrec/14"));
        }
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let jobs = smoke_jobs();
        let serial = SweepRunner::serial().run(&jobs);
        let parallel = SweepRunner::new(4).run(&jobs);
        assert_eq!(results_to_kv(&serial), results_to_kv(&parallel));
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let jobs = smoke_jobs();
        let results = SweepRunner::new(64).run(&jobs);
        assert_eq!(results.len(), 3);
    }

    #[test]
    fn empty_job_list_yields_no_results() {
        assert!(SweepRunner::new(4).run(&[]).is_empty());
    }

    #[test]
    fn thread_count_is_clamped_to_one() {
        assert_eq!(SweepRunner::new(0).threads(), 1);
    }

    #[test]
    fn mean_ipc_groups_by_label_in_order() {
        let mem = MemoryHierarchyConfig::mem_400();
        let jobs = vec![
            Job::new(
                "a",
                Machine::Baseline(BaselineConfig::r10_64()),
                mem.clone(),
                Benchmark::Gcc,
                1_000,
            ),
            Job::new(
                "b",
                Machine::Baseline(BaselineConfig::r10_64()),
                mem.clone(),
                Benchmark::Mesa,
                1_000,
            ),
            Job::new(
                "a",
                Machine::Baseline(BaselineConfig::r10_64()),
                mem,
                Benchmark::Mcf,
                1_000,
            ),
        ];
        let results = SweepRunner::new(2).run(&jobs);
        let means = mean_ipc_by_label(&results);
        assert_eq!(means.len(), 2);
        assert_eq!(means[0].0, "a");
        assert_eq!(means[1].0, "b");
        let expected_a = (results[0].stats.ipc() + results[2].stats.ipc()) / 2.0;
        assert!((means[0].1 - expected_a).abs() < 1e-12);
    }

    #[test]
    fn job_result_kv_excludes_wall_clock() {
        let jobs = smoke_jobs();
        let result = SweepRunner::serial().run(&jobs)[0].clone();
        let kv = result.to_kv();
        assert!(kv.starts_with("[baseline R10-64 mem=MEM-400 bench=gcc seed=1 budget=1500]"));
        assert!(!kv.contains("wall"));
    }

    #[test]
    fn sampled_jobs_report_the_window_estimate_and_tag_the_header() {
        let job = Job::new(
            "sampled",
            Machine::Dkip(DkipConfig::paper_default()),
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Gcc,
            30_000,
        )
        .with_sample(SampleConfig::default_rate());
        let result = job.run();
        assert!(
            result.to_kv().starts_with(
                "[dkip D-KIP-2048 mem=MEM-400 bench=gcc seed=1 budget=30000 sample=10000:1000:1000]"
            ),
            "header: {}",
            result.to_kv().lines().next().unwrap_or_default()
        );
        // Only the measured windows (3 × ~1000 instructions, each off by at
        // most commit_width - 1 from warmup/window overshoot) contribute.
        assert!(
            (2_990..3_100).contains(&result.stats.committed),
            "window committed: {}",
            result.stats.committed
        );
        assert!(result.stats.ipc() > 0.0);
        // `exact()` strips the rate and restores the exact header format.
        let exact = job.exact().run();
        assert!(exact.to_kv().contains("budget=30000]"));
        assert!(exact.stats.committed >= 30_000);
    }

    #[test]
    fn cached_sweeps_hit_and_stay_byte_identical() {
        let dir = std::env::temp_dir().join(format!("dkip-runner-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::store::ResultStore::open(&dir).unwrap();
        let jobs = smoke_jobs();
        let reference = SweepRunner::new(2).run(&jobs);
        let cold = SweepRunner::new(2)
            .with_store(store.clone())
            .run_report(&jobs);
        assert_eq!(cold.hits, 0);
        assert_eq!(cold.misses, 3);
        assert_eq!(cold.uncacheable, 0);
        let warm = SweepRunner::new(2).with_store(store).run_report(&jobs);
        assert_eq!(warm.hits, 3, "warm re-run must not simulate");
        assert_eq!(warm.misses, 0);
        assert_eq!(
            results_to_kv(&warm.results),
            results_to_kv(&reference),
            "a cache hit must be byte-identical to a recompute"
        );
        assert!(warm.results.iter().all(|r| r.wall == Duration::ZERO));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_probed_jobs_bypass_the_store() {
        let dir = std::env::temp_dir().join(format!("dkip-runner-probe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::store::ResultStore::open(&dir).unwrap();
        let metrics_file = dir.join("metrics.csv");
        let job = Job::new(
            "probed",
            Machine::Baseline(BaselineConfig::r10_64()),
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Gcc,
            1_000,
        )
        .with_metrics(MetricsConfig {
            path: metrics_file.to_str().unwrap().to_owned(),
            interval: 200,
        });
        assert!(!job.cacheable());
        let runner = SweepRunner::serial().with_store(store);
        for _ in 0..2 {
            let report = runner.run_report(std::slice::from_ref(&job));
            assert_eq!(report.uncacheable, 1);
            assert_eq!(report.hits, 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_text_distinguishes_every_axis() {
        let base = smoke_jobs()[0].clone();
        let text = base.key_text();
        assert!(text.starts_with("family=baseline\n"));
        assert!(text.contains("machine.name=R10-64\n"));
        assert!(text.contains("mem.name=MEM-400\n"));
        assert!(text.contains("workload=gcc\n"));
        assert!(text.contains("sample=none\n"));
        assert!(text.ends_with("clock=step\n") || text.ends_with("clock=event\n"));
        let variants = vec![
            base.clone().with_seed(99),
            base.clone().with_sample(SampleConfig::default_rate()),
            Job {
                budget: base.budget + 1,
                ..base.clone()
            },
            Job {
                workload: Workload::from(Benchmark::Mesa),
                ..base.clone()
            },
            Job {
                mem: MemoryHierarchyConfig::l1_2(),
                ..base.clone()
            },
            Job {
                machine: Machine::Baseline(BaselineConfig::r10_256()),
                ..base.clone()
            },
        ];
        for variant in &variants {
            assert_ne!(variant.key_text(), text);
        }
        let relabelled = Job {
            label: "other".into(),
            ..base.clone()
        };
        assert_eq!(
            relabelled.key_text(),
            text,
            "the label is presentation-only"
        );
    }

    #[test]
    fn explicit_thread_counts_parse_strictly() {
        assert_eq!(SweepRunner::parse_threads("8"), Some(8));
        assert_eq!(SweepRunner::parse_threads(" 08 "), Some(8));
        assert_eq!(SweepRunner::parse_threads("0"), None);
        assert_eq!(SweepRunner::parse_threads("eight"), None);
        assert_eq!(SweepRunner::parse_threads(""), None);
    }
}
