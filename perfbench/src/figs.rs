//! The figure-regeneration workloads: `figs-exact` and `figs-sampled`.
//!
//! The `experiments` drivers return only rendered figures, so the benchmark
//! builds the same per-figure job lists itself ([`fig_bins_sweeps`]) and
//! runs each through `SweepRunner::run_report_observed`, one sweep per
//! figure as the `FIG_BINS` binaries do. That exposes every `JobResult`
//! (for the digest and the per-job latencies) while timing the very code
//! the drivers call. The self-test proves the lists equal the drivers' by
//! key: replaying the drivers against a store filled from these lists
//! must hit on every job.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dkip_model::config::{
    BaselineConfig, DkipConfig, KiloConfig, MemoryHierarchyConfig, SampleConfig, SchedPolicy,
};
use dkip_model::key_digest;
use dkip_riscv::{Kernel, KernelRun};
use dkip_sim::experiments::{
    figure10_cp_points, figure11_configs, riscv_kernel_runs, riscv_machines, RISCV_BUDGET,
};
use dkip_sim::runner::results_to_kv;
use dkip_sim::{figure11_l2_sizes_kb, Job, JobResult, Machine, SweepRunner, Workload};
use dkip_trace::{Benchmark, Suite};

use crate::layers::{self, LayerInputs};
use crate::spans::Spans;
use crate::util::{
    heap_peak_mb, median, ms, per_position_median, quantile, reset_heap_peak, rss_mb, Calibration,
    Rng,
};
use crate::{Ctx, Metrics, Report};

/// Per-job budget of `figs-exact`: large enough that simulation, not job
/// set-up, dominates every job, small enough for several passes a run.
pub const EXACT_BUDGET: u64 = 15_000;
/// Per-job budget of `figs-sampled`'s SPEC jobs: ten sampling periods.
pub const SAMPLED_BUDGET: u64 = 200_000;
/// The sampling rate of `figs-sampled` (`period:warmup:window`).
pub const SAMPLED_RATE: &str = "20000:1000:1000";
/// The rate of the untimed sampled twin `figs-exact` compares against: the
/// exact budget spans three of its periods.
pub const SHADOW_RATE: &str = "5000:500:500";
/// Kernel runs of `figs-sampled`, scaled past the 64 KB L1 (matmul), into
/// and past the 512 KB L2 (list walk, copy). A 64 Ki-element copy would
/// need 1 MiB of data and does not fit the emulator's memory.
pub const SAMPLED_KERNELS: [(Kernel, u64); 3] = [
    (Kernel::Matmul, 48),
    (Kernel::Memcpy, 49_152),
    (Kernel::ListWalk, 16_384),
];
/// Budget cap of the kernel jobs: every scaled kernel halts well before it.
pub const KERNEL_CAP: u64 = 20_000_000;
/// Budgets of the self-test's tiny passes.
pub const TINY_EXACT_BUDGET: u64 = 1_000;
pub const TINY_SAMPLED_BUDGET: u64 = 12_000;
pub const TINY_RATE: &str = "4000:400:400";
/// Digests of `results_to_kv` over every job of a figure workload, in
/// sweep order, at its full and its tiny budgets. A simulator change that
/// moves any statistic of the figure set changes them.
pub const EXACT_DIGEST: &str = "2c2eb64d2de926e2b6a0fe39e0e36c40";
pub const TINY_EXACT_DIGEST: &str = "6d1f665e88ee2c20c4f36b1c2ffeef5f";
pub const SAMPLED_DIGEST: &str = "5577a360176634f47b2b764b2986dc5a";
pub const TINY_SAMPLED_DIGEST: &str = "1d74ab402225e4944d58fcb3989b095d";
/// `figs-sampled` counts as wrong when its median job is further than this
/// from its exact twin. The tiny self-test budgets hold too few windows for
/// the limit to mean anything, so they are held only to a finite error.
pub const IPC_ERR_LIMIT_PCT: f64 = 10.0;

/// One figure's sweep: its name and job list, in driver order.
pub type Sweep = (&'static str, Vec<Job>);

fn spec(suite: Suite) -> Vec<Benchmark> {
    Benchmark::representative()
        .into_iter()
        .filter(|b| b.suite() == suite)
        .collect()
}

/// Adds one figure point: a job per benchmark, labelled `series|x`.
fn point(
    jobs: &mut Vec<Job>,
    series: &str,
    x: &str,
    machine: &Machine,
    mem: &MemoryHierarchyConfig,
    benches: &[Benchmark],
    budget: u64,
) {
    for &bench in benches {
        jobs.push(Job::new(
            format!("{series}|{x}"),
            machine.clone(),
            mem.clone(),
            bench,
            budget,
        ));
    }
}

/// The machine behind one Figure 11/12 configuration name.
fn figure11_machine(config: &str) -> Machine {
    let dkip = |cp: (SchedPolicy, usize), mp: (SchedPolicy, usize)| {
        Machine::Dkip(
            DkipConfig::paper_default()
                .with_cp(cp.0, cp.1)
                .with_mp(mp.0, mp.1),
        )
    };
    use SchedPolicy::{InOrder, OutOfOrder};
    match config {
        "R10-256" => Machine::Baseline(BaselineConfig::r10_256()),
        "INO-INO" => dkip((InOrder, 40), (InOrder, 20)),
        "OOO20-INO" => dkip((OutOfOrder, 20), (InOrder, 20)),
        "OOO80-INO" => dkip((OutOfOrder, 80), (InOrder, 20)),
        _ => dkip((OutOfOrder, 80), (OutOfOrder, 40)),
    }
}

/// Figure 9: four machines on both suites.
fn fig09(int: &[Benchmark], fp: &[Benchmark], budget: u64) -> Vec<Job> {
    let paper = MemoryHierarchyConfig::paper_default();
    let machines = [
        ("R10-64", Machine::Baseline(BaselineConfig::r10_64())),
        ("R10-256", Machine::Baseline(BaselineConfig::r10_256())),
        ("KILO-1024", Machine::Kilo(KiloConfig::kilo_1024())),
        ("DKIP-2048", Machine::Dkip(DkipConfig::paper_default())),
    ];
    let mut jobs = Vec::new();
    for (label, machine) in &machines {
        for (suite, benches) in [("SpecINT", int), ("SpecFP", fp)] {
            point(&mut jobs, label, suite, machine, &paper, benches, budget);
        }
    }
    jobs
}

/// The job lists of the ten simulating `FIG_BINS` binaries at their
/// default arguments (representative SPEC subset), with `budget` per SPEC
/// job and the RISC-V figure at its own run-to-completion budget.
pub fn fig_bins_sweeps(budget: u64) -> Vec<Sweep> {
    let (int, fp) = (spec(Suite::Int), spec(Suite::Fp));
    let paper = MemoryHierarchyConfig::paper_default();
    let mut sweeps = Vec::new();
    for (name, benches) in [("fig01", &int), ("fig02", &fp)] {
        let mut jobs = Vec::new();
        for mem in MemoryHierarchyConfig::table1_presets() {
            for window in BaselineConfig::figure1_window_sizes() {
                let machine = Machine::Baseline(BaselineConfig::idealized(window));
                point(
                    &mut jobs,
                    &mem.name,
                    &window.to_string(),
                    &machine,
                    &mem,
                    benches,
                    budget,
                );
            }
        }
        sweeps.push((name, jobs));
    }
    let fig03 = fp
        .iter()
        .map(|&b| {
            let machine = Machine::Baseline(BaselineConfig::unbounded());
            Job::new(
                b.name(),
                machine,
                MemoryHierarchyConfig::mem_400(),
                b,
                budget,
            )
        })
        .collect();
    sweeps.push(("fig03", fig03));
    sweeps.push(("fig09", fig09(&int, &fp, budget)));
    let mut fig10 = Vec::new();
    let mp_points = [
        ("MP INO", SchedPolicy::InOrder, 20),
        ("MP OOO-20", SchedPolicy::OutOfOrder, 20),
        ("MP OOO-40", SchedPolicy::OutOfOrder, 40),
    ];
    for (mp_label, mp_sched, mp_size) in mp_points {
        for (cp_label, cp_sched, cp_size) in figure10_cp_points() {
            let machine = Machine::Dkip(
                DkipConfig::paper_default()
                    .with_cp(cp_sched, cp_size)
                    .with_mp(mp_sched, mp_size),
            );
            point(
                &mut fig10, mp_label, &cp_label, &machine, &paper, &fp, budget,
            );
        }
    }
    sweeps.push(("fig10", fig10));
    for (name, benches) in [("fig11", &int), ("fig12", &fp)] {
        let mut jobs = Vec::new();
        for kb in figure11_l2_sizes_kb() {
            let mem = MemoryHierarchyConfig::mem_400().with_l2_kb(kb);
            for config in figure11_configs() {
                let machine = figure11_machine(&config);
                point(
                    &mut jobs,
                    &format!("{kb}KB"),
                    &config,
                    &machine,
                    &mem,
                    benches,
                    budget,
                );
            }
        }
        sweeps.push((name, jobs));
    }
    for (name, benches) in [("fig13", &int), ("fig14", &fp)] {
        let jobs = benches
            .iter()
            .map(|&b| {
                let machine = Machine::Dkip(DkipConfig::paper_default());
                Job::new(b.name(), machine, paper.clone(), b, budget)
            })
            .collect();
        sweeps.push((name, jobs));
    }
    let mut riscv = Vec::new();
    for (label, machine) in riscv_machines() {
        for run in riscv_kernel_runs() {
            let name = run.name();
            riscv.push(Job::new(
                format!("{label}|{name}"),
                machine.clone(),
                paper.clone(),
                Workload::Riscv(run),
                RISCV_BUDGET,
            ));
        }
    }
    sweeps.push(("fig_riscv_ipc", riscv));
    sweeps
}

/// The `figs-sampled` sweeps: Figure 9 over the full SPEC suites (as
/// `fig09_comparison full` runs it) on the paper's traces — 26 benchmarks,
/// so the mean sampling error is an average over many independent
/// programs — plus the scaled kernels on all three families, all sampled.
///
/// Like the figure binaries, it keeps the paper's trace seed: the median
/// sampling error moves by a third between trace seeds (2.4–4.1% over
/// five), more than any bound on `ipc_err_pct` could hold.
pub fn sampled_sweeps(budget: u64, kernel_scale: u64, rate: SampleConfig) -> Vec<Sweep> {
    let mut sweeps: Vec<Sweep> = vec![(
        "fig09_full",
        fig09(&Benchmark::spec_int(), &Benchmark::spec_fp(), budget),
    )];
    let paper = MemoryHierarchyConfig::paper_default();
    let mut kernels = Vec::new();
    for (label, machine) in riscv_machines() {
        for (kernel, size) in SAMPLED_KERNELS {
            let run = KernelRun::new(kernel, (size / kernel_scale).max(1));
            let name = run.name();
            kernels.push(Job::new(
                format!("{label}|{name}"),
                machine.clone(),
                paper.clone(),
                Workload::Riscv(run),
                KERNEL_CAP,
            ));
        }
    }
    sweeps.push(("riscv_scaled", kernels));
    for (_, jobs) in &mut sweeps {
        for job in jobs.iter_mut() {
            *job = job.clone().with_sample(rate);
        }
    }
    sweeps
}

/// The outcome of one pass over every sweep.
#[derive(Debug, Default)]
pub struct Pass {
    pub wall: Duration,
    /// Wall time of each sweep, in sweep order, in seconds.
    pub sweep_s: Vec<f64>,
    /// Results per sweep in job order; failed jobs are missing.
    pub results: Vec<Vec<JobResult>>,
    pub failures: u64,
    pub jobs: u64,
    pub covered: u64,
    /// `JobResult::wall` of every job, in job order over all sweeps, in ms
    /// (`NaN` for a failed job).
    pub job_ms: Vec<f64>,
    /// Completion time of every job since its sweep was submitted, in ms.
    pub completion_ms: Vec<f64>,
    /// Peak live heap during the pass above the heap live when it began.
    pub heap_growth_mb: f64,
}

impl Pass {
    pub fn digest(&self) -> String {
        let all: Vec<JobResult> = self.results.iter().flatten().cloned().collect();
        key_digest(&results_to_kv(&all))
    }

    pub fn all_results(&self) -> Vec<&JobResult> {
        self.results.iter().flatten().collect()
    }
}

/// Runs every sweep once, one `run_report_observed` call per sweep, with
/// the sweeps in seeded order and each sweep's jobs in driver order.
pub fn run_pass(sweeps: &[Sweep], runner: &SweepRunner, seed: u64, spans: Option<&Spans>) -> Pass {
    let mut sweep_order: Vec<usize> = (0..sweeps.len()).collect();
    Rng::new(seed).shuffle(&mut sweep_order);
    let total: usize = sweeps.iter().map(|(_, jobs)| jobs.len()).sum();
    let mut pass = Pass {
        sweep_s: vec![0.0; sweeps.len()],
        results: vec![Vec::new(); sweeps.len()],
        job_ms: vec![f64::NAN; total],
        completion_ms: vec![f64::NAN; total],
        ..Pass::default()
    };
    let pass_span = spans.map(|s| s.open("pass", None));
    reset_heap_peak();
    let heap_at_start = heap_peak_mb();
    let start = Instant::now();
    for &si in &sweep_order {
        let (name, jobs) = &sweeps[si];
        let offset: usize = sweeps[..si].iter().map(|(_, jobs)| jobs.len()).sum();
        let completions = Mutex::new(Vec::with_capacity(jobs.len()));
        let submitted = Instant::now();
        let observe = |idx: usize, result: &JobResult| {
            let done = Instant::now();
            completions
                .lock()
                .expect("observer poisoned")
                .push((idx, done, result.wall));
        };
        let report = runner.run_report_observed(jobs, Some(&observe));
        let finished = Instant::now();
        let completions = completions.into_inner().expect("observer poisoned");
        if let Some(spans) = spans {
            let parent = spans.record(
                &format!("SweepRunner::run_report/{name}"),
                pass_span,
                submitted,
                finished,
                jobs.len() as u64,
            );
            for &(_, done, wall) in &completions {
                spans.record("Job::try_run", Some(parent), done - wall, done, 1);
            }
        }
        for &(idx, done, wall) in &completions {
            pass.completion_ms[offset + idx] = ms(done - submitted);
            pass.job_ms[offset + idx] = ms(wall);
        }
        pass.sweep_s[si] = (finished - submitted).as_secs_f64();
        pass.failures += report.failures.len() as u64;
        pass.jobs += jobs.len() as u64;
        pass.covered += report.results.iter().map(|r| r.covered).sum::<u64>();
        pass.results[si] = report.results;
    }
    pass.wall = start.elapsed();
    pass.heap_growth_mb = heap_peak_mb() - heap_at_start;
    if let (Some(spans), Some(id)) = (spans, pass_span) {
        spans.close(id, pass.jobs);
    }
    pass
}

/// The median over jobs of |a − b| / b, in percent. Not the mean: with
/// 1000-instruction windows the 1024- and 2048-entry machines miss by up
/// to 160% on a few seed-dependent FP traces, so a mean would measure
/// which traces those were rather than the sampling mode.
pub fn ipc_err_pct(pairs: &[(f64, f64)]) -> f64 {
    let errs: Vec<f64> = pairs
        .iter()
        .filter(|(_, reference)| *reference > 0.0)
        .map(|(ipc, reference)| (ipc - reference).abs() / reference * 100.0)
        .collect();
    median(&errs)
}

/// IPC pairs (timed result, twin) of two passes over the same job lists.
fn ipc_pairs(timed: &Pass, twin: &Pass) -> Vec<(f64, f64)> {
    timed
        .all_results()
        .iter()
        .zip(twin.all_results())
        .map(|(a, b)| (a.stats.ipc(), b.stats.ipc()))
        .collect()
}

/// The set-up of a figure run as its user sees it: from starting the
/// process to the moment the first job can be dispatched (job lists and
/// runner built), timed on fresh `--setup-probe` processes of this binary.
/// Returns the median over `reps` starts.
fn setup_time(ctx: &Ctx, reps: usize) -> f64 {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let seed = ctx.seed.to_string();
    let mut args = vec![
        "--setup-probe",
        "--workload",
        &ctx.workload,
        "--seed",
        &seed,
    ];
    args.extend(["--seconds", "1", "--trace", "0"]);
    if ctx.tiny {
        args.push("--tiny");
    }
    let times: Vec<f64> = (0..reps)
        .filter_map(|_| {
            let start = Instant::now();
            let mut child = Command::new(&exe)
                .args(&args)
                .stdout(Stdio::piped())
                .spawn()
                .ok()?;
            let mut line = String::new();
            let read = BufReader::new(child.stdout.take()?).read_line(&mut line);
            let took = start.elapsed().as_secs_f64();
            let exited = child.wait().ok()?;
            (read.is_ok() && line == "ready\n" && exited.success()).then_some(took)
        })
        .collect();
    if times.len() < reps {
        return f64::NAN;
    }
    median(&times)
}

/// The `--setup-probe` process: builds what a run builds before its first
/// dispatch, reports ready and exits.
pub fn setup_probe(ctx: &Ctx, mode: Mode) {
    let sweeps = FigsConfig::new(mode, ctx.tiny).sweeps(mode);
    let runner = SweepRunner::new(ctx.threads).without_store();
    std::hint::black_box((&sweeps, &runner));
    println!("ready");
}

/// Which figure workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Exact,
    Sampled,
}

pub struct FigsConfig {
    pub budget: u64,
    pub kernel_scale: u64,
    /// The sampling rate of the sampled side: the runs of figs-sampled,
    /// the untimed twin of figs-exact.
    pub rate: SampleConfig,
    pub digest: &'static str,
    /// The largest mean IPC error the run's output may show: figs-sampled
    /// reports sampled IPCs, figs-exact only compares against a sampled
    /// twin and is checked by its digest instead.
    pub ipc_err_limit: f64,
}

impl FigsConfig {
    pub fn new(mode: Mode, tiny: bool) -> Self {
        let (budget, rate, digest, ipc_err_limit) = match (mode, tiny) {
            (Mode::Exact, false) => (EXACT_BUDGET, SHADOW_RATE, EXACT_DIGEST, f64::INFINITY),
            (Mode::Exact, true) => (
                TINY_EXACT_BUDGET,
                TINY_RATE,
                TINY_EXACT_DIGEST,
                f64::INFINITY,
            ),
            (Mode::Sampled, false) => (
                SAMPLED_BUDGET,
                SAMPLED_RATE,
                SAMPLED_DIGEST,
                IPC_ERR_LIMIT_PCT,
            ),
            (Mode::Sampled, true) => (
                TINY_SAMPLED_BUDGET,
                TINY_RATE,
                TINY_SAMPLED_DIGEST,
                f64::MAX,
            ),
        };
        FigsConfig {
            budget,
            kernel_scale: if tiny { 16 } else { 1 },
            rate: SampleConfig::parse(rate).expect("valid benchmark sampling rate"),
            digest,
            ipc_err_limit,
        }
    }

    pub fn sweeps(&self, mode: Mode) -> Vec<Sweep> {
        match mode {
            Mode::Exact => fig_bins_sweeps(self.budget),
            Mode::Sampled => sampled_sweeps(self.budget, self.kernel_scale, self.rate),
        }
    }
}

/// Output checks of a figure run, separated from the timing so the
/// self-test can feed them wrong references. Returns the failed-job count
/// over `passes`.
pub fn check_passes(passes: &[Pass], pinned: &str, ipc_err: f64, limit: f64) -> u64 {
    let Some(first) = passes.first() else {
        return 0;
    };
    let mut failed = 0;
    for pass in passes {
        failed += pass.failures;
        if pass.failures == 0 && pass.digest() != pinned {
            failed += pass.jobs;
        }
    }
    if !(ipc_err.is_finite() && ipc_err <= limit) {
        failed += first.jobs;
    }
    failed
}

pub fn run(ctx: &Ctx, mode: Mode) -> Report {
    let cfg = FigsConfig::new(mode, ctx.tiny);
    let setup_s = if ctx.trace {
        f64::NAN
    } else {
        setup_time(ctx, 21)
    };
    let sweeps = cfg.sweeps(mode);
    let runner = SweepRunner::new(ctx.threads).without_store();
    let mut calib = Calibration::default();
    calib.measure();
    let rss_before_mb = rss_mb();
    let mut passes = Vec::new();
    let start = Instant::now();
    let mut traced_pass = None;
    if ctx.trace {
        // One untraced and one traced pass: their wall times give the
        // tracing overhead, the traced one the runner spans.
        passes.push(run_pass(&sweeps, &runner, ctx.seed, None));
        traced_pass = Some(run_pass(&sweeps, &runner, ctx.seed, Some(&ctx.spans)));
    } else {
        while passes.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
            calib.maybe_measure();
            passes.push(run_pass(&sweeps, &runner, ctx.seed, None));
        }
    }
    // Resident size before the passes plus a typical pass's heap growth:
    // the pass's peak memory without the run-to-run noise of how freed
    // memory lingers in allocator arenas.
    let heaps: Vec<f64> = passes.iter().map(|p| p.heap_growth_mb).collect();
    let peak_rss_mb = rss_before_mb + median(&heaps);
    calib.measure();
    let calib_mips = calib.mips();

    // Untimed twin: the exact run of the sampled jobs, or the sampled run
    // of the exact jobs.
    let twin_sweeps: Vec<Sweep> = sweeps
        .iter()
        .map(|(name, jobs)| {
            let jobs = jobs
                .iter()
                .map(|job| match mode {
                    Mode::Exact => job.clone().with_sample(cfg.rate),
                    Mode::Sampled => job.clone().exact(),
                })
                .collect();
            (*name, jobs)
        })
        .collect();
    let twin = run_pass(&twin_sweeps, &runner, ctx.seed, None);
    let twin_s = twin.wall.as_secs_f64();
    let pairs = match mode {
        Mode::Exact => ipc_pairs(&twin, &passes[0]),
        Mode::Sampled => ipc_pairs(&passes[0], &twin),
    };
    let ipc_err = ipc_err_pct(&pairs);
    let all_passes: Vec<&Pass> = passes.iter().chain(traced_pass.iter()).collect();
    let mut failed = check_passes(&passes, cfg.digest, ipc_err, cfg.ipc_err_limit);
    if let Some(traced) = &traced_pass {
        if traced.digest() != cfg.digest {
            failed += traced.jobs;
        }
    }
    let attempted: u64 = all_passes.iter().map(|p| p.jobs).sum();

    // Every time is a median over the run's passes (see
    // `per_position_median`): per sweep for the figure-set wall time, per
    // job for the latencies.
    let sweep_rows: Vec<&[f64]> = passes.iter().map(|p| p.sweep_s.as_slice()).collect();
    let wall_s: f64 = per_position_median(&sweep_rows).iter().sum();
    let job_rows: Vec<&[f64]> = passes.iter().map(|p| p.job_ms.as_slice()).collect();
    let job_ms = per_position_median(&job_rows);
    let completion_rows: Vec<&[f64]> = passes.iter().map(|p| p.completion_ms.as_slice()).collect();
    let completion_ms = per_position_median(&completion_rows);
    let sim_mips = passes[0].covered as f64 / wall_s / 1e6;
    let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();

    let mut metrics = Metrics::default();
    if ctx.trace {
        let traced = traced_pass
            .as_ref()
            .expect("traced runs make a traced pass");
        let untraced = passes[0].wall.as_secs_f64();
        metrics.push(
            "trace_overhead_pct",
            (traced.wall.as_secs_f64() - untraced) / untraced * 100.0,
        );
        let busy: f64 = traced.job_ms.iter().sum::<f64>() / 1e3;
        metrics.push(
            "runner.pool_util",
            busy / (ctx.threads as f64 * traced.wall.as_secs_f64()),
        );
        metrics.push("host.calib_mips", calib_mips);
        let jobs: Vec<Job> = sweeps
            .iter()
            .flat_map(|(_, jobs)| jobs.iter().cloned())
            .collect();
        let results: Vec<JobResult> = passes[0].all_results().into_iter().cloned().collect();
        let inputs = LayerInputs {
            jobs: &jobs,
            results: &results,
            sample: cfg.rate,
        };
        layers::measure(ctx, &inputs, &mut metrics);
        let lines: Vec<String> = jobs.iter().filter_map(crate::serve::job_line).collect();
        crate::serve::probe_service(ctx, &lines, &mut metrics);
    } else {
        metrics.push("setup_s", setup_s);
        metrics.push("wall_s", wall_s);
        metrics.push("sim_mips", sim_mips);
        metrics.push("calib_speed", sim_mips / calib_mips);
        metrics.push("job_p50_ms", quantile(&job_ms, 0.5));
        metrics.push("job_p95_ms", quantile(&job_ms, 0.95));
        metrics.push("req_p50_ms", quantile(&completion_ms, 0.5));
        metrics.push("req_p99_ms", quantile(&completion_ms, 0.99));
        metrics.push("req_per_s", passes[0].jobs as f64 / wall_s);
        metrics.push("ipc_err_pct", ipc_err);
        metrics.push("peak_rss_mb", peak_rss_mb);
    }
    eprintln!(
        "# {}: passes={} jobs/pass={} wall_s={:?} twin_s={twin_s:.2} calib_mips={calib_mips:.1} \
         ipc_err_pct={ipc_err:.3} digest={}",
        ctx.workload,
        passes.len(),
        passes[0].jobs,
        walls,
        passes[0].digest()
    );
    Report {
        correct: failed == 0,
        attempted,
        failed,
        calib_mips,
        metrics,
    }
}
