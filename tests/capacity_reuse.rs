//! Capacity reuse is exact: a job the sweep runner gives a donor's
//! statistics, instead of simulating it, gets exactly what its own
//! simulation would have produced.
//!
//! The runner reuses a finished run for a job that differs from it only in
//! capacities the run never filled: the baseline core's ROB, issue queues
//! and LSQ (the window sweep of Figures 1 and 2) and the L2 size (the cache
//! sweep of Figures 11 and 12). These tests run those figures' job lists,
//! built by the `experiments` drivers' own builders, at 1 and 8 runner
//! threads and hold every result equal to [`Job::try_run`] of the same job.
//! A pinned floor on the reused count keeps them from passing with reuse
//! switched off. A property test does the same over random pairs of window
//! and L2 sizes, and another checks the two facts the rule reads on the
//! cores themselves, on the KILO core (whose slow lane reinserts) and the
//! D-KIP too.

use dkip::model::config::{BaselineConfig, DkipConfig, KiloConfig, MemoryHierarchyConfig};
use dkip::model::NoProbe;
use dkip::sim::experiments::{figure_cache_sweep_jobs, figure_window_scaling_jobs, SEED};
use dkip::sim::{figure11_l2_sizes_kb, Core, Job, Machine, SweepReport, SweepRunner, Workload};
use dkip::trace::{Benchmark, Suite};
use proptest::prelude::*;

/// Per-job budget of the figure job lists: small enough for a debug build.
const BUDGET: u64 = 2_000;

fn representative(suite: Suite) -> Vec<Benchmark> {
    Benchmark::representative()
        .into_iter()
        .filter(|b| b.suite() == suite)
        .collect()
}

/// Runs `jobs` at `threads` runner threads and checks every result against
/// a direct simulation of its job. Returns the report.
fn run_and_compare(name: &str, jobs: &[Job], reference: &[String], threads: usize) -> SweepReport {
    let report = SweepRunner::new(threads).without_store().run_report(jobs);
    assert!(report.is_complete(), "{name}: {:?}", report.failures);
    assert_eq!(
        report.misses,
        jobs.len() as u64,
        "{name}: no store, every job misses"
    );
    for (idx, (result, expected)) in report.results.iter().zip(reference).enumerate() {
        assert_eq!(
            &result.to_kv(),
            expected,
            "{name} job {idx} ({}) at {threads} threads differs from its own simulation",
            jobs[idx].describe()
        );
    }
    report
}

/// Checks one figure's job list at 1 and 8 threads. `serial_floor` is the
/// reused count of a real serial run, which always claims a donor before
/// the jobs it covers. `parallel_floor` sits well below the 8-thread counts
/// of real runs (which vary with timing: an idle worker takes a job whose
/// donor is still running rather than wait). A runner that stopped reusing
/// fails either.
fn check_figure(name: &str, jobs: &[Job], serial_floor: u64, parallel_floor: u64) {
    let reference: Vec<String> = jobs
        .iter()
        .map(|job| job.try_run().expect("job runs").to_kv())
        .collect();
    let serial = run_and_compare(name, jobs, &reference, 1);
    eprintln!(
        "{name}: {} of {} jobs reused at 1 thread",
        serial.reused,
        jobs.len()
    );
    assert!(
        serial.reused >= serial_floor,
        "{name}: {} jobs reused at 1 thread, fewer than {serial_floor}",
        serial.reused
    );
    let parallel = run_and_compare(name, jobs, &reference, 8);
    eprintln!(
        "{name}: {} of {} jobs reused at 8 threads",
        parallel.reused,
        jobs.len()
    );
    assert!(
        parallel.reused >= parallel_floor,
        "{name}: {} jobs reused at 8 threads, fewer than {parallel_floor}",
        parallel.reused
    );
}

#[test]
fn figure1_window_sweep_reuses_exactly() {
    let jobs = figure_window_scaling_jobs(
        &representative(Suite::Int),
        &BaselineConfig::figure1_window_sizes(),
        BUDGET,
    );
    check_figure("fig01", &jobs, 49, 25);
}

#[test]
fn figure2_window_sweep_reuses_exactly() {
    let jobs = figure_window_scaling_jobs(
        &representative(Suite::Fp),
        &BaselineConfig::figure1_window_sizes(),
        BUDGET,
    );
    check_figure("fig02", &jobs, 40, 20);
}

#[test]
fn figure11_cache_sweep_reuses_exactly() {
    let jobs =
        figure_cache_sweep_jobs(&representative(Suite::Int), &figure11_l2_sizes_kb(), BUDGET);
    check_figure("fig11", &jobs, 55, 30);
}

#[test]
fn figure12_cache_sweep_reuses_exactly() {
    let jobs = figure_cache_sweep_jobs(&representative(Suite::Fp), &figure11_l2_sizes_kb(), BUDGET);
    check_figure("fig12", &jobs, 35, 18);
}

/// A window between 16 and 4096 entries, log-uniform: `2^exp` scaled by
/// `(8 + frac) / 8`.
fn window(exp: u32, frac: usize) -> usize {
    ((1usize << exp) * (8 + frac) / 8).min(4096)
}

/// An IDEAL-`w` core, or an R10000-style core with a `w`-entry ROB, issue
/// queues of 5/8 of it (as R10-64 and R10-256 have) and its 512-entry LSQ.
fn machine(ideal: bool, w: usize) -> Machine {
    if ideal {
        Machine::Baseline(BaselineConfig::idealized(w))
    } else {
        let iq = w * 5 / 8;
        Machine::Baseline(BaselineConfig {
            name: format!("R10-{w}"),
            rob_capacity: w,
            int_iq_capacity: iq,
            fp_iq_capacity: iq,
            ..BaselineConfig::r10_64()
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Two jobs that differ in window and L2 size: whenever the runner
    /// reuses one's run for the other, their own simulations agree, and
    /// the runner's results always equal them.
    #[test]
    fn reuse_happens_only_where_the_statistics_agree(
        ideal in any::<bool>(),
        bench in 0usize..4,
        budget in 300u64..3001,
        windows in (4u32..13, 0usize..8, 4u32..13, 0usize..8),
        l2_kb in (0u32..7, 0u32..7),
        shared in 0u8..3,
    ) {
        let bench = Benchmark::representative()[bench];
        let (mut w_a, w_b) = (window(windows.0, windows.1), window(windows.2, windows.3));
        let (mut kb_a, kb_b) = (64usize << l2_kb.0, 64usize << l2_kb.1);
        // A third of the pairs share the window, a third the L2 size.
        match shared {
            0 => w_a = w_b,
            1 => kb_a = kb_b,
            _ => {}
        }
        let job = |w: usize, kb: usize| {
            Job::new(
                format!("{w}/{kb}KB"),
                machine(ideal, w),
                MemoryHierarchyConfig::mem_400().with_l2_kb(kb),
                bench,
                budget,
            )
            .exact()
            .unprobed()
        };
        let jobs = [job(w_a, kb_a), job(w_b, kb_b)];
        let own: Vec<_> = jobs.iter().map(|j| j.try_run().expect("job runs")).collect();
        let report = SweepRunner::serial().without_store().run_report(&jobs);
        prop_assert!(report.is_complete());
        for (result, expected) in report.results.iter().zip(&own) {
            prop_assert_eq!(result.to_kv(), expected.to_kv());
        }
        if report.reused > 0 {
            prop_assert_eq!(own[0].stats.to_kv(), own[1].stats.to_kv());
        }
    }
}

/// Runs `machine` over `mem` on `bench` and returns its statistics and the
/// finished core.
fn run_core(
    machine: &Machine,
    mem: &MemoryHierarchyConfig,
    bench: Benchmark,
    budget: u64,
) -> (String, Core) {
    let mut core = machine.build(mem);
    let mut stream = Workload::from(bench).stream(SEED);
    let stats = core.run(&mut stream, budget, &mut NoProbe);
    (stats.to_kv(), core)
}

/// The one refusal that dispatch does not mask: a slow-lane reinsertion
/// that finds the issue queue full in a run whose dispatch never does. A
/// search over KILO issue queues of 4 to 64 entries, budgets of 500 to 5000
/// and every SPEC trace, behind a 64-entry pseudo-ROB, a 4096-entry SLIQ
/// and a 4096-entry LSQ, found it once with a visible effect: twolf at
/// 5000 instructions with an 8-entry issue queue, which a 16-entry queue
/// runs differently.
#[test]
fn a_refusal_at_reinsertion_alone_counts_as_full() {
    let kilo = |iq| {
        Machine::Kilo(KiloConfig {
            pseudo_rob_capacity: 64,
            sliq_capacity: 4096,
            iq_capacity: iq,
            lsq_capacity: 4096,
            ..KiloConfig::kilo_1024()
        })
    };
    let mem = MemoryHierarchyConfig::mem_400();
    let (small_stats, small_core) = run_core(&kilo(8), &mem, Benchmark::Twolf, 5_000);
    let (large_stats, _) = run_core(&kilo(16), &mem, Benchmark::Twolf, 5_000);
    assert_ne!(
        small_stats, large_stats,
        "the larger issue queue changes the run"
    );
    assert!(
        small_core.ever_full(),
        "the refused reinsertion was not recorded"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// A KILO core that was never refused for room, at dispatch or at
    /// slow-lane reinsertion, runs exactly as one with a larger pseudo-ROB,
    /// SLIQ, issue queue and LSQ; a core whose L2 never evicted, the D-KIP
    /// included, runs exactly as one with a multiple of that L2. The KILO
    /// capacities are powers of two from 32 to 512 (pseudo-ROB), 512 to
    /// 4096 (SLIQ), 4 to 128 (issue queue) and 64 to 1024 (LSQ), each grown
    /// by a factor of 1 to 3: windows that often never fill within the
    /// budget, so the implication is often put to the test.
    #[test]
    fn a_capacity_that_never_filled_changes_nothing(
        dkip in any::<bool>(),
        bench in 0usize..4,
        budget in 300u64..3001,
        small in (5u32..10, 9u32..13, 2u32..8, 6u32..11),
        grow in (1usize..4, 1usize..4, 1usize..4, 1usize..4),
        l2 in (0u32..7, 0u32..3),
    ) {
        let bench = Benchmark::representative()[bench];
        let kilo = |pseudo_rob, sliq, iq, lsq| {
            Machine::Kilo(KiloConfig {
                pseudo_rob_capacity: pseudo_rob,
                sliq_capacity: sliq,
                iq_capacity: iq,
                lsq_capacity: lsq,
                ..KiloConfig::kilo_1024()
            })
        };
        let (small_machine, large_machine) = if dkip {
            let machine = Machine::Dkip(DkipConfig::paper_default());
            (machine.clone(), machine)
        } else {
            (
                kilo(1 << small.0, 1 << small.1, 1 << small.2, 1 << small.3),
                kilo(
                    grow.0 << small.0,
                    grow.1 << small.1,
                    grow.2 << small.2,
                    grow.3 << small.3,
                ),
            )
        };
        let small_kb = 64usize << l2.0;
        let small_mem = MemoryHierarchyConfig::mem_400().with_l2_kb(small_kb);
        let large_mem = MemoryHierarchyConfig::mem_400().with_l2_kb(small_kb << l2.1);
        let (small_stats, small_core) = run_core(&small_machine, &small_mem, bench, budget);
        let (large_stats, _) = run_core(&large_machine, &large_mem, bench, budget);
        let core_unfilled = small_machine == large_machine || !small_core.ever_full();
        let l2_unfilled = small_mem.l2_size == large_mem.l2_size || !small_core.l2_ever_evicted();
        if core_unfilled && l2_unfilled {
            prop_assert_eq!(small_stats, large_stats);
        }
    }
}
