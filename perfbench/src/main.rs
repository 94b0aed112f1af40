//! `perfbench` — the repository benchmark of the D-KIP simulator.
//!
//! ```text
//! perfbench --workload <figs-exact|figs-sampled|serve-mixed> --seed N
//!           --seconds S --trace 0|1 [--dkip-sim PATH] [--tiny]
//! perfbench --self-test [--dkip-sim PATH]
//! ```
//!
//! `perfbench/run.py` builds this binary and `dkip-sim` from source and
//! forwards its arguments. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! traced run also writes its spans to `.perfbench_out/`.
//!
//! Why these workloads:
//!
//! * `figs-exact` regenerates the paper's figure set exactly: the cores,
//!   the memory hierarchy and the predictor do the work; the store and the
//!   service are never called.
//! * `figs-sampled` regenerates part of it sampled, plus RISC-V kernels
//!   scaled past the caches: sampling phases and stream production dominate.
//! * `serve-mixed` drives a real `dkip-sim serve` with closed-loop clients:
//!   the only workload that loads the store, the runner pool per request
//!   and the service.
//!
//! `--seed` steers `serve-mixed`'s request generator and the trace seed of
//! its SPEC queries. The figure workloads keep the paper's inputs, so their
//! outputs can be checked against pinned digests; there the seed only
//! orders the sweeps.

mod figs;
mod layers;
mod serve;
mod spans;
mod util;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use spans::Spans;

#[global_allocator]
static ALLOC: util::CountingAlloc = util::CountingAlloc;

/// Ambient knobs that would change what a run measures. They are cleared
/// at start-up (and for the server child), so every workload pins its own
/// mode.
pub const AMBIENT_ENV: [&str; 7] = [
    "DKIP_SAMPLE",
    "DKIP_METRICS",
    "DKIP_CACHE",
    "DKIP_CACHE_SALT",
    "DKIP_FAULTS",
    "DKIP_NO_SKIP",
    "DKIP_THREADS",
];

/// Every metric the benchmark reports, with its unit: the end-to-end ones
/// (`--trace 0`) then the per-layer ones (`--trace 1`).
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mips", "MIPS"),
    ("calib_speed", "ratio"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("req_per_s", "1/s"),
    ("ipc_err_pct", "%"),
    ("peak_rss_mb", "MB"),
];

pub const PER_LAYER: [(&str, &str); 34] = [
    ("trace.ns_per_op", "ns"),
    ("riscv.emu_ns_per_instr", "ns"),
    ("riscv.stream_ns_per_op", "ns"),
    ("riscv.ff_ns_per_instr", "ns"),
    ("ooo.ns_per_op", "ns"),
    ("ooo.ns_per_tick", "ns"),
    ("ooo.skipped_frac", "ratio"),
    ("kilo.ns_per_op", "ns"),
    ("kilo.ns_per_tick", "ns"),
    ("kilo.skipped_frac", "ratio"),
    ("dkip.ns_per_op", "ns"),
    ("dkip.ns_per_tick", "ns"),
    ("dkip.skipped_frac", "ratio"),
    ("mem.access_ns", "ns"),
    ("mem.l1_miss_ratio", "ratio"),
    ("mem.l2_miss_ratio", "ratio"),
    ("mem.warm_access_ns", "ns"),
    ("bpred.ns_per_branch", "ns"),
    ("bpred.mispredict_rate", "ratio"),
    ("sampled.checkpoint_us", "us"),
    ("sampled.warm_ns_per_op", "ns"),
    ("sampled.detailed_frac", "ratio"),
    ("sampled.speedup", "x"),
    ("runner.pool_util", "ratio"),
    ("store.key_us", "us"),
    ("store.lookup_us", "us"),
    ("store.insert_us", "us"),
    ("store.hit_ratio", "ratio"),
    ("service.answer_ms", "ms"),
    ("service.transport_ms", "ms"),
    ("service.threads_peak", "count"),
    ("service.redundant_computes", "count"),
    ("host.calib_mips", "MIPS"),
    ("trace_overhead_pct", "%"),
];

const WORKLOADS: [&str; 3] = ["figs-exact", "figs-sampled", "serve-mixed"];

/// What a run needs to know.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny budgets, for the self-test.
    pub tiny: bool,
    /// Sweep-runner threads (and server threads): 2, capped at `nproc`.
    pub threads: usize,
    /// Closed-loop service clients: 2, capped at `nproc`.
    pub clients: usize,
    pub dkip_sim: Option<PathBuf>,
    /// Directory for sockets, stores and spans, inside the checkout.
    pub out_dir: PathBuf,
    /// Spans of the traced run (empty otherwise).
    pub spans: Spans,
}

/// Metric values in report order; pushing a name again replaces it.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64) {
        self.push_owned(name.to_owned(), value);
    }

    pub fn push_owned(&mut self, name: String, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub calib_mips: f64,
    pub metrics: Metrics,
}

impl Report {
    /// The result line. Every metric of the run's set appears, in table
    /// order; one the run could not measure is reported as `NaN`'s JSON
    /// stand-in `null` and makes the run incorrect.
    fn to_json(&self, trace: bool) -> String {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut correct = self.correct;
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self
                .metrics
                .0
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |(_, v)| *v);
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                correct = false;
                "null".to_owned()
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

const USAGE: &str = "usage: perfbench --workload <figs-exact|figs-sampled|serve-mixed> \
--seed N --seconds S --trace 0|1 [--dkip-sim PATH] [--tiny]
       perfbench --self-test [--dkip-sim PATH]";

/// What `main` is asked to do.
enum Action {
    Run,
    SelfTest,
    /// Time-to-dispatch probe of a figure workload (see `figs::setup_time`).
    SetupProbe,
}

fn parse_args(args: &[String]) -> Result<(Ctx, Action), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut dkip_sim = None;
    let mut tiny = false;
    let mut self_test = false;
    let mut setup_probe = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                if !WORKLOADS.contains(&v.as_str()) {
                    return Err(format!(
                        "unknown workload {v:?}: expected one of {WORKLOADS:?}"
                    ));
                }
                workload = Some(v);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("invalid seed {v:?}"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                let s = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("invalid seconds {v:?}"))?;
                seconds = Some(s);
            }
            "--trace" => match value()?.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                v => return Err(format!("invalid trace {v:?}: expected 0 or 1")),
            },
            "--dkip-sim" => dkip_sim = Some(PathBuf::from(value()?)),
            "--tiny" => tiny = true,
            "--self-test" => self_test = true,
            "--setup-probe" => setup_probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let threads = 2.min(util::nproc());
    let ctx = if self_test {
        Ctx {
            workload: "self-test".to_owned(),
            seed: 1,
            seconds: 0.1,
            trace: false,
            tiny: true,
            threads,
            clients: threads,
            dkip_sim,
            out_dir: PathBuf::from(".perfbench_out"),
            spans: Spans::new(),
        }
    } else {
        Ctx {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            tiny,
            threads,
            clients: threads,
            dkip_sim,
            out_dir: PathBuf::from(".perfbench_out"),
            spans: Spans::new(),
        }
    };
    let action = if self_test {
        Action::SelfTest
    } else if setup_probe {
        Action::SetupProbe
    } else {
        Action::Run
    };
    Ok((ctx, action))
}

/// Clears the ambient knobs; returns the ones that were set.
fn make_hermetic() -> Vec<&'static str> {
    AMBIENT_ENV
        .into_iter()
        .filter(|var| {
            let set = std::env::var_os(var).is_some();
            std::env::remove_var(var);
            set
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (ctx, action) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cleared = make_hermetic();
    if !cleared.is_empty() {
        eprintln!("# cleared ambient {cleared:?}");
    }
    match action {
        Action::SelfTest => return self_test::run(&ctx),
        Action::SetupProbe => {
            let mode = match ctx.workload.as_str() {
                "figs-exact" => figs::Mode::Exact,
                _ => figs::Mode::Sampled,
            };
            figs::setup_probe(&ctx, mode);
            return ExitCode::SUCCESS;
        }
        Action::Run => {}
    }
    let report = match ctx.workload.as_str() {
        "figs-exact" => figs::run(&ctx, figs::Mode::Exact),
        "figs-sampled" => figs::run(&ctx, figs::Mode::Sampled),
        _ => serve::run(&ctx),
    };
    if ctx.trace {
        let path = ctx
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", ctx.workload, ctx.seed));
        if let Err(e) = ctx.spans.write(&path) {
            eprintln!("# cannot write spans to {}: {e}", path.display());
        }
    }
    println!(
        "info {{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {}, \"threads\": {}, \
         \"clients\": {}, \"calib_mips\": {}, \"cleared_env\": {:?}}}",
        ctx.workload,
        ctx.seed,
        util::nproc(),
        ctx.threads,
        ctx.clients,
        report.calib_mips,
        cleared
    );
    println!("{}", report.to_json(ctx.trace));
    ExitCode::SUCCESS
}

mod self_test {
    //! `--self-test`: the benchmark's own checks, at tiny budgets.

    use std::collections::BTreeSet;
    use std::process::ExitCode;
    use std::time::Duration;

    use dkip_model::config::BaselineConfig;
    use dkip_sim::experiments::*;
    use dkip_sim::{figure11_l2_sizes_kb, ResultStore, SweepRunner};
    use dkip_trace::{Benchmark, Suite};

    use crate::figs::{self, FigsConfig, Mode};
    use crate::serve::{self, Answer, Round};
    use crate::Ctx;

    fn reps(suite: Suite) -> Vec<Benchmark> {
        Benchmark::representative()
            .into_iter()
            .filter(|b| b.suite() == suite)
            .collect()
    }

    /// The figure job lists equal the drivers' by key: the drivers, run
    /// against a store filled from the lists, must hit on every job.
    fn job_lists_match_the_drivers(ctx: &Ctx) -> Result<(), String> {
        let budget = figs::TINY_EXACT_BUDGET;
        let dir = ctx
            .out_dir
            .join(format!("selftest-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).map_err(|e| e.to_string())?;
        let runner = SweepRunner::new(ctx.threads).with_store(store.clone());
        let jobs: Vec<_> = figs::fig_bins_sweeps(budget)
            .into_iter()
            .flat_map(|(_, jobs)| jobs)
            .collect();
        let filled = runner.run_report(&jobs);
        let (hits0, misses0) = (store.hits(), store.misses());
        let (int, fp) = (reps(Suite::Int), reps(Suite::Fp));
        let windows = BaselineConfig::figure1_window_sizes();
        let _ = figure_window_scaling(Suite::Int, &int, &windows, budget, &runner);
        let _ = figure_window_scaling(Suite::Fp, &fp, &windows, budget, &runner);
        let _ = figure3_issue_histogram(&fp, budget, &runner);
        let _ = figure9_comparison(&int, &fp, budget, &runner);
        let _ = figure10_scheduler_sweep(&fp, budget, &runner);
        let _ = figure_cache_sweep(Suite::Int, &int, &figure11_l2_sizes_kb(), budget, &runner);
        let _ = figure_cache_sweep(Suite::Fp, &fp, &figure11_l2_sizes_kb(), budget, &runner);
        let _ = figure_llib_occupancy(Suite::Int, &int, budget, &runner);
        let _ = figure_llib_occupancy(Suite::Fp, &fp, budget, &runner);
        let _ = figure_riscv_ipc(&riscv_kernel_runs(), RISCV_BUDGET, &runner);
        let _ = std::fs::remove_dir_all(&dir);
        let (hits, misses) = (store.hits() - hits0, store.misses() - misses0);
        if !filled.failures.is_empty() || misses != 0 || hits != jobs.len() as u64 {
            return Err(format!(
                "the drivers ran {hits} of the benchmark's {} jobs and {misses} others",
                jobs.len()
            ));
        }
        Ok(())
    }

    /// The figure checks pass the pinned digest and fail a wrong one or a
    /// sampled error past the limit.
    fn figure_checks_bite(ctx: &Ctx) -> Result<(), String> {
        let cfg = FigsConfig::new(Mode::Exact, true);
        let runner = SweepRunner::new(ctx.threads).without_store();
        let pass = figs::run_pass(&cfg.sweeps(Mode::Exact), &runner, 1, None);
        let passes = [pass];
        if figs::check_passes(&passes, cfg.digest, 0.5, 1.0) != 0 {
            return Err(format!(
                "the pinned digest does not match: got {}",
                passes[0].digest()
            ));
        }
        let wrong = "0".repeat(32);
        if figs::check_passes(&passes, &wrong, 0.5, 1.0) == 0 {
            return Err("a wrong digest was not flagged".to_owned());
        }
        if figs::check_passes(&passes, cfg.digest, 2.0, 1.0) == 0 {
            return Err("a sampled error past the limit was not flagged".to_owned());
        }
        Ok(())
    }

    /// The service checks pass the reference body and fail an altered
    /// body or an `err` status.
    fn service_checks_bite(ctx: &Ctx) -> Result<(), String> {
        let line = serve::pool(1, true)[0].clone();
        let refs = serve::references(ctx, &BTreeSet::from([line.clone()]));
        let body = refs[&line].body.clone();
        let round = |status: &str, body: String| Round {
            answers: vec![Answer {
                line: line.clone(),
                status: status.to_owned(),
                body,
                latency: Duration::ZERO,
            }],
            ..Round::default()
        };
        let ok = "ok jobs=1 hits=0 misses=1";
        if serve::check_answers(&[&round(ok, body.clone())], &refs) != 0 {
            return Err("the reference body was flagged".to_owned());
        }
        if serve::check_answers(&[&round(ok, body.replace("cycles=", "cycles=1"))], &refs) == 0 {
            return Err("an altered body was not flagged".to_owned());
        }
        if serve::check_answers(&[&round("err boom", body)], &refs) == 0 {
            return Err("an err response was not flagged".to_owned());
        }
        Ok(())
    }

    pub fn run(ctx: &Ctx) -> ExitCode {
        type Check = fn(&Ctx) -> Result<(), String>;
        let checks: [(&str, Check); 3] = [
            ("job lists match the drivers", job_lists_match_the_drivers),
            ("figure checks bite", figure_checks_bite),
            ("service checks bite", service_checks_bite),
        ];
        let mut ok = true;
        for (name, check) in checks {
            match check(ctx) {
                Ok(()) => eprintln!("self-test: {name}: ok"),
                Err(e) => {
                    eprintln!("self-test: {name}: FAILED: {e}");
                    ok = false;
                }
            }
        }
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}
