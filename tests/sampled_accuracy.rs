//! Sampled-vs-exact differential accuracy suite.
//!
//! Exact simulation is the golden reference; sampled mode
//! (`dkip::sim::run_sampled`) is an *estimator*. This suite pins the
//! estimator's quality on all four golden-suite machine matrices: for each
//! suite the whole-run IPC of every job is computed exactly and sampled,
//! and the relative error must stay inside
//!
//! * a **3% band on the suite-mean IPC** (the figure-level quantity the
//!   paper's plots are built from), and
//! * a **10% band on every individual job** (no single workload may be
//!   grossly misestimated even when errors cancel across the suite).
//!
//! The runs are longer than the 4 000-instruction golden budgets: a
//! sampling period is thousands of instructions, so the suites come from
//! [`suites::golden_sampled_suites`] — the synthetic golden matrices at a
//! 100 000-instruction budget and the RISC-V matrix at scaled-up kernel
//! sizes (~70k–200k dynamic instructions) run to completion, each suite at
//! its own sampling rate (the D-KIP's latency tolerance needs a denser
//! rate than the other families because draining between periods forfeits
//! more of its overlap).
//!
//! Everything here is deterministic — both modes are single-seeded and
//! thread-count invariant — so the bands are exact regression pins, not
//! statistical hopes.

use dkip::sim::runner::Job;
use dkip::sim::{suites, SweepRunner};

/// Maximum relative error of the suite-mean IPC.
const SUITE_MEAN_BAND: f64 = 0.03;
/// Maximum relative error of any single job's IPC.
const PER_JOB_BAND: f64 = 0.10;

/// Runs the sampled suite `name` and its exact twin, then asserts both
/// error bands.
fn check_suite(name: &str) {
    let (_, sampled_jobs) = suites::golden_sampled_suites()
        .into_iter()
        .find(|(suite, _)| *suite == name)
        .expect("known sampled suite");
    let rate = sampled_jobs[0].sample.expect("sampled job");
    let exact_jobs: Vec<Job> = sampled_jobs.iter().map(|job| job.clone().exact()).collect();
    let runner = SweepRunner::from_env();
    let exact = runner.run(&exact_jobs);
    let sampled = runner.run(&sampled_jobs);

    let mut mean_exact = 0.0;
    let mut mean_sampled = 0.0;
    for (e, s) in exact.iter().zip(&sampled) {
        let exact_ipc = e.stats.ipc();
        let sampled_ipc = s.stats.ipc();
        assert!(exact_ipc > 0.0, "{}: exact IPC must be positive", e.label);
        let err = (sampled_ipc - exact_ipc).abs() / exact_ipc;
        assert!(
            err <= PER_JOB_BAND,
            "{name}/{}: sampled IPC {sampled_ipc:.4} vs exact {exact_ipc:.4} \
             ({:.2}% error exceeds the {:.0}% per-job band at rate {rate})",
            e.label,
            err * 100.0,
            PER_JOB_BAND * 100.0,
        );
        mean_exact += exact_ipc;
        mean_sampled += sampled_ipc;
    }
    mean_exact /= exact.len() as f64;
    mean_sampled /= sampled.len() as f64;
    let mean_err = (mean_sampled - mean_exact).abs() / mean_exact;
    assert!(
        mean_err <= SUITE_MEAN_BAND,
        "{name}: sampled suite-mean IPC {mean_sampled:.4} vs exact {mean_exact:.4} \
         ({:.2}% error exceeds the {:.0}% suite-mean band at rate {rate})",
        mean_err * 100.0,
        SUITE_MEAN_BAND * 100.0,
    );
}

#[test]
fn baseline_suite_sampled_ipc_matches_exact() {
    check_suite("baseline");
}

#[test]
fn kilo_suite_sampled_ipc_matches_exact() {
    check_suite("kilo");
}

#[test]
fn dkip_suite_sampled_ipc_matches_exact() {
    check_suite("dkip");
}

#[test]
fn riscv_suite_sampled_ipc_matches_exact() {
    check_suite("riscv");
}
