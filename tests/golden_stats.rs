//! Golden-stats regression tests: pin the simulated statistics of every
//! processor family against checked-in snapshots under `tests/golden/`.
//!
//! Each test regenerates a fixed sweep with the [`SweepRunner`], checks the
//! parallel run is byte-identical to the serial reference, and then
//! compares the stable serialisation against the snapshot. A behavioural
//! change anywhere in the CP/LLIB/MP pipeline (or the baselines, the memory
//! model or the trace generator) shows up as a line-level diff.
//!
//! To accept an intended change, regenerate the snapshots with
//! `DKIP_BLESS=1 cargo test --test golden_stats` (`make bless`) and review
//! the `tests/golden/` diff.

use std::path::PathBuf;

use dkip::sim::golden;
use dkip::sim::runner::results_to_kv;
use dkip::sim::suites;
use dkip::sim::{Job, SweepRunner};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

/// Runs the jobs serially and in parallel, asserts thread-count invariance,
/// and checks the serialisation against `tests/golden/<name>`.
///
/// Three runners are compared: the serial reference, a fixed 4-thread pool,
/// and the environment-configured pool — so `DKIP_THREADS=N cargo test`
/// (as CI does with 1 and 8) exercises an N-thread sweep too.
fn check_family(name: &str, jobs: &[Job]) {
    let serial = results_to_kv(&SweepRunner::serial().run(jobs));
    let parallel = results_to_kv(&SweepRunner::new(4).run(jobs));
    assert_eq!(serial, parallel, "sweep must be thread-count invariant");
    let from_env = SweepRunner::from_env();
    if ![1, 4].contains(&from_env.threads()) {
        // Thread counts 1 and 4 are already covered above; only pay for a
        // third sweep when the environment asks for something new.
        let env_run = results_to_kv(&from_env.run(jobs));
        assert_eq!(
            serial,
            env_run,
            "sweep must be invariant at DKIP_THREADS={}",
            from_env.threads()
        );
    }
    if let Err(err) = golden::check(&golden_path(name), &serial) {
        panic!("{err}");
    }
}

#[test]
fn golden_baseline_family() {
    check_family("baseline.golden", &suites::golden_baseline_jobs());
}

#[test]
fn golden_kilo_family() {
    check_family("kilo.golden", &suites::golden_kilo_jobs());
}

#[test]
fn golden_dkip_family() {
    check_family("dkip.golden", &suites::golden_dkip_jobs());
}

#[test]
fn golden_riscv_family() {
    // The exact matrix the `fig_riscv_ipc` binary simulates: every shipped
    // RV64IM kernel, run to completion on all three core families over the
    // paper-default memory hierarchy. Execution-driven workloads are
    // seed-independent, so these snapshots pin the frontend (assembler,
    // emulator, cracking) as well as the core models.
    check_family("riscv.golden", &suites::golden_riscv_jobs());
}

#[test]
fn golden_sampled_suites() {
    // The four golden matrices at the sampled-accuracy budgets and rates
    // (`suites::golden_sampled_suites`). `sampled_accuracy` only holds these
    // estimates to error bands; this pins them bit for bit, so a change to
    // the sampling driver or the warming path that should be invisible is.
    // The runner's thread-count invariance is already pinned by the exact
    // suites above, so one sweep suffices.
    let actual = results_to_kv(&SweepRunner::from_env().run(&suites::golden_sampled_jobs()));
    if let Err(err) = golden::check(&golden_path("sampled.golden"), &actual) {
        panic!("{err}");
    }
}

/// The golden files themselves must carry real data: every job section has
/// a non-zero committed count, so a perturbed IPC can't hide behind zeros.
#[test]
fn golden_snapshots_contain_live_counters() {
    if golden::bless_requested() {
        // The family tests are rewriting the snapshots concurrently; this
        // check would validate whichever generation it happened to read.
        return;
    }
    for name in [
        "baseline.golden",
        "kilo.golden",
        "dkip.golden",
        "riscv.golden",
        "sampled.golden",
    ] {
        let path = golden_path(name);
        let Ok(content) = std::fs::read_to_string(&path) else {
            // Snapshot not created yet (first run before blessing); the
            // family tests already report that case.
            continue;
        };
        assert!(content.contains("committed="), "{name} must hold counters");
        assert!(
            !content.contains("committed=0\n"),
            "{name} must not contain empty runs"
        );
        assert!(content.contains("ipc="), "{name} must pin IPC values");
    }
}
