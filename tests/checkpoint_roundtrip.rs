//! Checkpoint round-trip tests: snapshot every core family mid-run,
//! restore into a *fresh* core, and prove the continuation is bit-identical
//! to the uninterrupted run.
//!
//! This is the contract the sampled-simulation mode is built on
//! (`dkip::sim::sampled`): a detailed window seeded from a checkpoint must
//! behave exactly like the core that produced the checkpoint. The test
//! covers every job of all four golden suites, so each family, memory
//! configuration and workload source that the snapshots pin also pins its
//! own snapshot/restore path:
//!
//! * the uninterrupted reference is computed with the [`SweepRunner`] at
//!   1 and 8 worker threads (and the two must agree, as everywhere else),
//! * the interrupted run simulates to roughly half the reference's
//!   committed count, snapshots (a `Core` clone, the same deep copy as
//!   the cores' own `snapshot`), restores into a core built from scratch,
//!   and continues on the same partially-consumed stream,
//! * the continuation's final [`SimStats::to_kv`] serialisation must equal
//!   the reference's byte for byte.

use dkip::model::SimStats;
use dkip::sim::runner::Job;
use dkip::sim::{suites, Core, SweepRunner};

/// Runs `job` in two segments with a snapshot/restore-into-fresh-core
/// boundary at `midpoint` committed instructions, returning the final
/// statistics of the continuation.
fn run_interrupted(job: &Job, midpoint: u64) -> SimStats {
    let mut stream = job.workload.stream(job.seed);
    let mut first = job.machine.build(&job.mem);
    let _ = first.run(&mut stream, midpoint, None);
    let snapshot = first.clone();
    drop(first);
    let mut fresh = job.machine.build(&job.mem);
    fresh.clone_from(&snapshot);
    fresh.run(&mut stream, job.budget, None)
}

/// Round-trips every job of one golden suite against SweepRunner references
/// computed at 1 and 8 threads.
fn check_suite(jobs: &[Job]) {
    let serial = SweepRunner::new(1).run(jobs);
    let eight = SweepRunner::new(8).run(jobs);
    for (job, (reference, parallel)) in jobs.iter().zip(serial.iter().zip(&eight)) {
        assert_eq!(
            reference.stats.to_kv(),
            parallel.stats.to_kv(),
            "{}: reference must be thread-count invariant",
            job.label
        );
        let midpoint = (reference.stats.committed / 2).max(1);
        let continued = run_interrupted(job, midpoint);
        assert_eq!(
            continued.to_kv(),
            reference.stats.to_kv(),
            "{}: continuation after snapshot/restore at {} committed \
             instructions must be bit-identical to the uninterrupted run",
            job.label,
            midpoint
        );
    }
}

#[test]
fn baseline_suite_roundtrips_bit_identically() {
    check_suite(&suites::golden_baseline_jobs());
}

#[test]
fn kilo_suite_roundtrips_bit_identically() {
    check_suite(&suites::golden_kilo_jobs());
}

#[test]
fn dkip_suite_roundtrips_bit_identically() {
    check_suite(&suites::golden_dkip_jobs());
}

#[test]
fn riscv_suite_roundtrips_bit_identically() {
    check_suite(&suites::golden_riscv_jobs());
}

/// A snapshot is an independent deep copy: mutating the restored core must
/// not disturb the core that produced the checkpoint (and vice versa). The
/// first job of the baseline, KILO and D-KIP suites each take their
/// family's `snapshot()` path: `OooCore::snapshot().to_core()` and
/// `DkipProcessor::snapshot().to_processor()`.
#[test]
fn snapshots_are_independent_of_the_source_core() {
    for jobs in [
        suites::golden_baseline_jobs(),
        suites::golden_kilo_jobs(),
        suites::golden_dkip_jobs(),
    ] {
        let job = &jobs[0];
        let mut stream_a = job.workload.stream(job.seed);
        let mut original = job.machine.build(&job.mem);
        let _ = original.run(&mut stream_a, 1_000, None);
        let mut copy = match &original {
            Core::Ooo(core) => Core::Ooo(Box::new(core.snapshot().to_core())),
            Core::Dkip(core) => Core::Dkip(Box::new(core.snapshot().to_processor())),
        };

        // Checkpoint the full simulation state: core snapshot + stream
        // clone. Then drive the restored copy far ahead on its own stream.
        let mut stream_b = stream_a.clone();
        let _ = copy.run(&mut stream_b, 3_000, None);

        // The original must continue exactly as if the copy never existed.
        let undisturbed = original.run(&mut stream_a, job.budget, None);
        let mut stream_c = job.workload.stream(job.seed);
        let mut reference = job.machine.build(&job.mem);
        let _ = reference.run(&mut stream_c, 1_000, None);
        let expected = reference.run(&mut stream_c, job.budget, None);
        assert_eq!(undisturbed.to_kv(), expected.to_kv(), "{}", job.label);
    }
}
