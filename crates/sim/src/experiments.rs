//! One driver per table/figure of the paper's evaluation.
//!
//! Every driver takes the benchmark list and the per-benchmark instruction
//! budget as parameters so that the same code serves quick smoke tests,
//! the Criterion benches and full regeneration runs (see `EXPERIMENTS.md`).
//!
//! Since PR 2 every sweep driver also takes a [`SweepRunner`] and expands
//! its loops into an explicit [`Job`] list that fans out over the runner's
//! worker pool. Results come back in job order, so the figures are
//! byte-identical for every thread count; `SweepRunner::serial()` recovers
//! the old strictly serial behaviour.

use crate::report::{Figure, Series};
use crate::runner::{mean_ipc_by_label, Job, Machine, SweepRunner};
use crate::workload::Workload;
use dkip_model::config::{
    BaselineConfig, DkipConfig, KiloConfig, MemoryHierarchyConfig, SchedPolicy,
};
use dkip_model::Histogram;
use dkip_riscv::{Kernel, KernelRun};
use dkip_trace::{Benchmark, Suite};

/// Default random seed used by every experiment.
pub const SEED: u64 = 1;

/// Default instruction budget for the RISC-V kernel figure: generous enough
/// that every shipped kernel at its default size runs to completion (the
/// kernels halt after a few thousand to a few tens of thousands of dynamic
/// instructions).
pub const RISCV_BUDGET: u64 = 200_000;

/// Table 1: the six memory-subsystem configurations.
#[must_use]
pub fn table1() -> Figure {
    let mut fig = Figure::new(
        "Table 1: configurations for quantifying the effect of the memory wall",
        "config",
        "latency (cycles)",
    );
    let mut l1 = Series::new("L1 access");
    let mut l2 = Series::new("L2 access");
    let mut mem = Series::new("memory access");
    for cfg in MemoryHierarchyConfig::table1_presets() {
        l1.push(cfg.name.clone(), cfg.l1_latency as f64);
        l2.push(
            cfg.name.clone(),
            if cfg.l2_perfect || cfg.l2_size.is_some() {
                cfg.l2_latency as f64
            } else {
                f64::NAN
            },
        );
        mem.push(
            cfg.name.clone(),
            if cfg.l2_perfect {
                f64::NAN
            } else {
                cfg.memory_latency as f64
            },
        );
    }
    fig.series = vec![l1, l2, mem];
    fig
}

/// Accumulates a mean-IPC sweep: one figure point per `point` call, one job
/// per benchmark behind it.
///
/// The builder records the `(series, x)` coordinates alongside the jobs, so
/// the sweep is walked exactly once — [`Self::into_series`] reassembles the
/// figure from the per-point means without re-running the driver's loops.
/// Points must be added series-major (all points of one series
/// contiguously), which is the natural loop order of every driver.
struct SweepBuilder {
    jobs: Vec<Job>,
    points: Vec<(String, String)>,
}

impl SweepBuilder {
    fn new() -> Self {
        SweepBuilder {
            jobs: Vec::new(),
            points: Vec::new(),
        }
    }

    /// Adds the figure point `(series, x)`, averaging over `workloads`.
    fn point_workloads(
        &mut self,
        series: impl Into<String>,
        x: impl Into<String>,
        machine: &Machine,
        mem: &MemoryHierarchyConfig,
        workloads: &[Workload],
        budget: u64,
    ) {
        let series = series.into();
        let x = x.into();
        let label = format!("{series}|{x}");
        for &workload in workloads {
            self.jobs.push(Job::new(
                label.clone(),
                machine.clone(),
                mem.clone(),
                workload,
                budget,
            ));
        }
        self.points.push((series, x));
    }

    /// Adds the figure point `(series, x)`, averaging over `benchmarks`.
    fn point(
        &mut self,
        series: impl Into<String>,
        x: impl Into<String>,
        machine: &Machine,
        mem: &MemoryHierarchyConfig,
        benchmarks: &[Benchmark],
        budget: u64,
    ) {
        let workloads: Vec<Workload> = benchmarks.iter().map(|&b| Workload::from(b)).collect();
        self.point_workloads(series, x, machine, mem, &workloads, budget);
    }

    /// Runs the sweep and folds the per-point means into figure series.
    ///
    /// Points are matched to means by label, so degenerate sweeps keep the
    /// pre-runner semantics: an empty benchmark list yields 0.0 (as
    /// `MeanIpc::mean` does) and duplicate coordinates yield duplicate
    /// points rather than a panic.
    fn into_series(self, runner: &SweepRunner) -> Vec<Series> {
        let means = mean_ipc_by_label(&runner.run(&self.jobs));
        let mut series_list: Vec<Series> = Vec::new();
        for (series, x) in self.points {
            let label = format!("{series}|{x}");
            let ipc = means
                .iter()
                .find(|(l, _)| *l == label)
                .map_or(0.0, |&(_, ipc)| ipc);
            if series_list
                .last()
                .map(|s| s.label != series)
                .unwrap_or(true)
            {
                series_list.push(Series::new(series));
            }
            series_list.last_mut().expect("just pushed").push(x, ipc);
        }
        series_list
    }
}

/// Figures 1 and 2: average IPC versus instruction-window size for the six
/// Table 1 memory subsystems, on an idealised out-of-order core.
#[must_use]
pub fn figure_window_scaling(
    suite: Suite,
    benchmarks: &[Benchmark],
    windows: &[usize],
    budget: u64,
    runner: &SweepRunner,
) -> Figure {
    let number = if suite == Suite::Int { 1 } else { 2 };
    let mut fig = Figure::new(
        format!(
            "Figure {number}: effect of the memory subsystem on {}",
            suite.label()
        ),
        "window",
        "average IPC (arith. mean)",
    );
    fig.series = window_scaling_sweep(benchmarks, windows, budget).into_series(runner);
    fig
}

/// The job list [`figure_window_scaling`] runs, in its order.
#[must_use]
pub fn figure_window_scaling_jobs(
    benchmarks: &[Benchmark],
    windows: &[usize],
    budget: u64,
) -> Vec<Job> {
    window_scaling_sweep(benchmarks, windows, budget).jobs
}

fn window_scaling_sweep(benchmarks: &[Benchmark], windows: &[usize], budget: u64) -> SweepBuilder {
    let mut sweep = SweepBuilder::new();
    for mem_cfg in MemoryHierarchyConfig::table1_presets() {
        for &window in windows {
            let machine = Machine::Baseline(BaselineConfig::idealized(window));
            sweep.point(
                &mem_cfg.name,
                window.to_string(),
                &machine,
                &mem_cfg,
                benchmarks,
                budget,
            );
        }
    }
    sweep
}

/// Figure 3: the decode→issue distance distribution on an effectively
/// unbounded processor with 400-cycle memory (SpecFP).
#[must_use]
pub fn figure3_issue_histogram(
    benchmarks: &[Benchmark],
    budget: u64,
    runner: &SweepRunner,
) -> Histogram {
    let mut merged = Histogram::new(20, 2000);
    let cfg = BaselineConfig::unbounded();
    let mem = MemoryHierarchyConfig::mem_400();
    let jobs: Vec<Job> = benchmarks
        .iter()
        .map(|&bench| {
            Job::new(
                bench.name(),
                Machine::Baseline(cfg.clone()),
                mem.clone(),
                bench,
                budget,
            )
        })
        .collect();
    for stats in runner.run_stats(&jobs) {
        if let Some(hist) = stats.issue_latency {
            merged.merge(&hist);
        }
    }
    merged
}

/// Figure 9: IPC of R10-64, R10-256, KILO-1024 and D-KIP-2048 on both
/// suites.
#[must_use]
pub fn figure9_comparison(
    int_benchmarks: &[Benchmark],
    fp_benchmarks: &[Benchmark],
    budget: u64,
    runner: &SweepRunner,
) -> Figure {
    let mut fig = Figure::new(
        "Figure 9: performance of the D-KIP compared to baselines and a traditional KILO processor",
        "suite",
        "average IPC (arith. mean)",
    );
    let mem = MemoryHierarchyConfig::paper_default();
    let suites: [(&str, &[Benchmark]); 2] =
        [("SpecINT", int_benchmarks), ("SpecFP", fp_benchmarks)];
    let machines: [(&str, Machine); 4] = [
        ("R10-64", Machine::Baseline(BaselineConfig::r10_64())),
        ("R10-256", Machine::Baseline(BaselineConfig::r10_256())),
        ("KILO-1024", Machine::Kilo(KiloConfig::kilo_1024())),
        ("DKIP-2048", Machine::Dkip(DkipConfig::paper_default())),
    ];

    let mut sweep = SweepBuilder::new();
    for (machine_label, machine) in &machines {
        for (suite_label, benches) in suites {
            sweep.point(*machine_label, suite_label, machine, &mem, benches, budget);
        }
    }
    fig.series = sweep.into_series(runner);
    fig
}

/// The Cache Processor configurations swept on the x-axis of Figure 10.
#[must_use]
pub fn figure10_cp_points() -> Vec<(String, SchedPolicy, usize)> {
    vec![
        ("INO".to_owned(), SchedPolicy::InOrder, 40),
        ("OOO-20".to_owned(), SchedPolicy::OutOfOrder, 20),
        ("OOO-40".to_owned(), SchedPolicy::OutOfOrder, 40),
        ("OOO-60".to_owned(), SchedPolicy::OutOfOrder, 60),
        ("OOO-80".to_owned(), SchedPolicy::OutOfOrder, 80),
    ]
}

/// Figure 10: impact of the scheduling policy and queue sizes of the Cache
/// Processor and the Memory Processor on SpecFP.
#[must_use]
pub fn figure10_scheduler_sweep(
    benchmarks: &[Benchmark],
    budget: u64,
    runner: &SweepRunner,
) -> Figure {
    let mut fig = Figure::new(
        "Figure 10: impact of scheduling policy and queue sizes in SpecFP",
        "CP config",
        "average IPC (arith. mean)",
    );
    let mem = MemoryHierarchyConfig::paper_default();
    let mp_points = [
        ("MP INO", SchedPolicy::InOrder, 20usize),
        ("MP OOO-20", SchedPolicy::OutOfOrder, 20),
        ("MP OOO-40", SchedPolicy::OutOfOrder, 40),
    ];
    let mut sweep = SweepBuilder::new();
    for (mp_label, mp_sched, mp_size) in mp_points {
        for (cp_label, cp_sched, cp_size) in figure10_cp_points() {
            let machine = Machine::Dkip(
                DkipConfig::paper_default()
                    .with_cp(cp_sched, cp_size)
                    .with_mp(mp_sched, mp_size),
            );
            sweep.point(mp_label, cp_label, &machine, &mem, benchmarks, budget);
        }
    }
    fig.series = sweep.into_series(runner);
    fig
}

/// The processor configurations compared in Figures 11 and 12.
#[must_use]
pub fn figure11_configs() -> Vec<String> {
    vec![
        "R10-256".to_owned(),
        "INO-INO".to_owned(),
        "OOO20-INO".to_owned(),
        "OOO80-INO".to_owned(),
        "OOO80-OOO40".to_owned(),
    ]
}

/// The machine simulated for one named Figure 11/12 configuration.
fn figure11_machine(config: &str) -> Machine {
    match config {
        "R10-256" => Machine::Baseline(BaselineConfig::r10_256()),
        "INO-INO" => Machine::Dkip(
            DkipConfig::paper_default()
                .with_cp(SchedPolicy::InOrder, 40)
                .with_mp(SchedPolicy::InOrder, 20),
        ),
        "OOO20-INO" => Machine::Dkip(
            DkipConfig::paper_default()
                .with_cp(SchedPolicy::OutOfOrder, 20)
                .with_mp(SchedPolicy::InOrder, 20),
        ),
        "OOO80-INO" => Machine::Dkip(
            DkipConfig::paper_default()
                .with_cp(SchedPolicy::OutOfOrder, 80)
                .with_mp(SchedPolicy::InOrder, 20),
        ),
        _ => Machine::Dkip(
            DkipConfig::paper_default()
                .with_cp(SchedPolicy::OutOfOrder, 80)
                .with_mp(SchedPolicy::OutOfOrder, 40),
        ),
    }
}

/// Figures 11 and 12: impact of the L2 cache size.
#[must_use]
pub fn figure_cache_sweep(
    suite: Suite,
    benchmarks: &[Benchmark],
    l2_sizes_kb: &[usize],
    budget: u64,
    runner: &SweepRunner,
) -> Figure {
    let number = if suite == Suite::Int { 11 } else { 12 };
    let mut fig = Figure::new(
        format!(
            "Figure {number}: impact of L2 cache size on {}",
            suite.label()
        ),
        "config",
        "IPC",
    );
    fig.series = cache_sweep(benchmarks, l2_sizes_kb, budget).into_series(runner);
    fig
}

/// The job list [`figure_cache_sweep`] runs, in its order.
#[must_use]
pub fn figure_cache_sweep_jobs(
    benchmarks: &[Benchmark],
    l2_sizes_kb: &[usize],
    budget: u64,
) -> Vec<Job> {
    cache_sweep(benchmarks, l2_sizes_kb, budget).jobs
}

fn cache_sweep(benchmarks: &[Benchmark], l2_sizes_kb: &[usize], budget: u64) -> SweepBuilder {
    let mut sweep = SweepBuilder::new();
    for &kb in l2_sizes_kb {
        let mem = MemoryHierarchyConfig::mem_400().with_l2_kb(kb);
        for config in figure11_configs() {
            let machine = figure11_machine(&config);
            sweep.point(
                format!("{kb}KB"),
                config,
                &machine,
                &mem,
                benchmarks,
                budget,
            );
        }
    }
    sweep
}

/// The kernel runs compared by the RISC-V IPC figure: every shipped kernel
/// at its default size.
#[must_use]
pub fn riscv_kernel_runs() -> Vec<KernelRun> {
    Kernel::ALL.into_iter().map(Kernel::default_run).collect()
}

/// The machines compared by the RISC-V IPC figure, with their series
/// labels: the small and the traditional-KILO baselines versus the D-KIP.
#[must_use]
pub fn riscv_machines() -> Vec<(String, Machine)> {
    vec![
        (
            "R10-64".to_owned(),
            Machine::Baseline(BaselineConfig::r10_64()),
        ),
        (
            "KILO-1024".to_owned(),
            Machine::Kilo(KiloConfig::kilo_1024()),
        ),
        (
            "DKIP-2048".to_owned(),
            Machine::Dkip(DkipConfig::paper_default()),
        ),
    ]
}

/// RISC-V kernel IPC: per-kernel IPC of R10-64, KILO-1024 and D-KIP-2048 on
/// the execution-driven RV64IM kernels (paper-default memory hierarchy).
///
/// Unlike the synthetic sweeps, every point is one finite program run to
/// completion — the budget only caps runaway configurations and
/// [`RISCV_BUDGET`] clears every shipped kernel.
#[must_use]
pub fn figure_riscv_ipc(runs: &[KernelRun], budget: u64, runner: &SweepRunner) -> Figure {
    let mut fig = Figure::new(
        "RISC-V kernel IPC: execution-driven RV64IM workloads on all three core families",
        "kernel",
        "IPC",
    );
    let mut sweep = SweepBuilder::new();
    for (label, machine) in riscv_machines() {
        for &run in runs {
            sweep.point_workloads(
                &label,
                run.name(),
                &machine,
                &MemoryHierarchyConfig::paper_default(),
                &[Workload::Riscv(run)],
                budget,
            );
        }
    }
    fig.series = sweep.into_series(runner);
    fig
}

/// Figures 13 and 14: maximum number of instructions and registers in the
/// LLIB for each benchmark of the given suite.
#[must_use]
pub fn figure_llib_occupancy(
    suite: Suite,
    benchmarks: &[Benchmark],
    budget: u64,
    runner: &SweepRunner,
) -> Figure {
    let number = if suite == Suite::Int { 13 } else { 14 };
    let mut fig = Figure::new(
        format!(
            "Figure {number}: maximum number of registers and instructions in the LLIB for {}",
            suite.label()
        ),
        "benchmark",
        "number of elements",
    );
    let mem = MemoryHierarchyConfig::paper_default();
    let cfg = DkipConfig::paper_default();
    let jobs: Vec<Job> = benchmarks
        .iter()
        .map(|&bench| {
            Job::new(
                bench.name(),
                Machine::Dkip(cfg.clone()),
                mem.clone(),
                bench,
                budget,
            )
        })
        .collect();
    let mut regs = Series::new("Max Registers");
    let mut instrs = Series::new("Max Instructions");
    for (&bench, stats) in benchmarks.iter().zip(runner.run_stats(&jobs)) {
        let (peak_instrs, peak_regs) = if suite == Suite::Int {
            (stats.llib_int_peak_instrs, stats.llrf_int_peak_regs)
        } else {
            (stats.llib_fp_peak_instrs, stats.llrf_fp_peak_regs)
        };
        regs.push(bench.name(), peak_regs as f64);
        instrs.push(bench.name(), peak_instrs as f64);
    }
    fig.series = vec![regs, instrs];
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    // Experiment drivers are exercised with tiny budgets and benchmark
    // subsets; the full-scale runs live in `dkip-bench`.

    fn runner() -> SweepRunner {
        SweepRunner::new(2)
    }

    #[test]
    fn table1_lists_all_six_configurations() {
        let fig = table1();
        assert_eq!(fig.series.len(), 3);
        assert_eq!(fig.series[0].points.len(), 6);
        assert_eq!(fig.series[2].value_at("MEM-400"), Some(400.0));
    }

    #[test]
    fn window_scaling_produces_one_series_per_memory_config() {
        let fig =
            figure_window_scaling(Suite::Fp, &[Benchmark::Mesa], &[32, 128], 2_000, &runner());
        assert_eq!(fig.series.len(), 6);
        for series in &fig.series {
            assert_eq!(series.points.len(), 2);
        }
    }

    #[test]
    fn figure9_has_four_configurations_and_two_suites() {
        let fig = figure9_comparison(&[Benchmark::Crafty], &[Benchmark::Mesa], 2_000, &runner());
        assert_eq!(fig.series.len(), 4);
        for series in &fig.series {
            assert_eq!(series.points.len(), 2);
            for (_, ipc) in &series.points {
                assert!(*ipc > 0.0);
            }
        }
    }

    #[test]
    fn figure10_sweeps_cp_and_mp_configurations() {
        let fig = figure10_scheduler_sweep(&[Benchmark::Mesa], 1_500, &runner());
        assert_eq!(fig.series.len(), 3);
        assert_eq!(fig.series[0].points.len(), 5);
    }

    #[test]
    fn figure13_reports_llib_occupancy_per_benchmark() {
        let fig = figure_llib_occupancy(
            Suite::Fp,
            &[Benchmark::Swim, Benchmark::Mesa],
            3_000,
            &runner(),
        );
        assert_eq!(fig.series.len(), 2);
        let instrs = &fig.series[1];
        assert!(instrs.value_at("swim").unwrap() >= instrs.value_at("mesa").unwrap());
    }

    #[test]
    fn figure3_histogram_merges_benchmarks() {
        let hist = figure3_issue_histogram(&[Benchmark::Mesa], 2_000, &runner());
        assert!(hist.total_samples() > 1_000);
    }

    #[test]
    fn empty_benchmark_list_yields_zero_ipc_points() {
        let fig = figure_window_scaling(Suite::Int, &[], &[32], 1_000, &runner());
        assert_eq!(fig.series.len(), 6);
        for series in &fig.series {
            assert_eq!(series.points, vec![("32".to_owned(), 0.0)]);
        }
    }

    #[test]
    fn duplicate_sweep_coordinates_yield_duplicate_points() {
        let fig = figure_window_scaling(Suite::Fp, &[Benchmark::Mesa], &[32, 32], 1_000, &runner());
        for series in &fig.series {
            assert_eq!(series.points.len(), 2);
            assert_eq!(series.points[0], series.points[1]);
        }
    }

    #[test]
    fn riscv_figure_covers_all_kernels_and_machines() {
        // One small kernel keeps the unit test fast; the full matrix runs in
        // the fig_riscv_ipc binary and the riscv golden test.
        let runs = vec![KernelRun::new(Kernel::FibRec, 10)];
        let fig = figure_riscv_ipc(&runs, RISCV_BUDGET, &runner());
        assert_eq!(fig.series.len(), 3);
        for series in &fig.series {
            assert_eq!(series.points.len(), 1);
            let (x, ipc) = &series.points[0];
            assert_eq!(x, "fibrec/10");
            assert!(
                *ipc > 0.0,
                "{} must complete with non-zero IPC",
                series.label
            );
        }
    }

    #[test]
    fn riscv_kernel_runs_cover_every_kernel() {
        let runs = riscv_kernel_runs();
        assert_eq!(runs.len(), Kernel::ALL.len());
        assert!(runs.iter().all(|run| run.size == run.kernel.default_size()));
    }

    #[test]
    fn drivers_are_thread_count_invariant() {
        let serial = figure9_comparison(
            &[Benchmark::Crafty],
            &[Benchmark::Mesa],
            1_500,
            &SweepRunner::serial(),
        );
        let parallel = figure9_comparison(
            &[Benchmark::Crafty],
            &[Benchmark::Mesa],
            1_500,
            &SweepRunner::new(4),
        );
        assert_eq!(serial.render(), parallel.render());
    }
}
