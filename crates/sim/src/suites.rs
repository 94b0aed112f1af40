//! The pinned golden-suite job lists.
//!
//! `tests/golden_stats.rs` and `tests/perf_invariance.rs` both regenerate
//! these exact sweeps — the former to diff them against the snapshots in
//! `tests/golden/`, the latter to prove hot-path optimizations are
//! observationally pure at 1 and 8 runner threads. Defining the job lists
//! here (instead of inline in each test) guarantees the two tests can never
//! drift apart, and gives the figure binaries access to the same matrices.
//!
//! Changing anything here changes what the snapshots pin — regenerate them
//! with `make bless` and review the diff.

use crate::experiments::{riscv_kernel_runs, riscv_machines, RISCV_BUDGET};
use crate::runner::{Job, Machine};
use dkip_model::config::{BaselineConfig, DkipConfig, KiloConfig, MemoryHierarchyConfig};
use dkip_model::SampleConfig;
use dkip_riscv::{Kernel, KernelRun};
use dkip_trace::Benchmark;

/// Instruction budget shared by the synthetic golden jobs.
pub const GOLDEN_BUDGET: u64 = 4_000;

/// The baseline-family golden sweep (`tests/golden/baseline.golden`): the
/// small and large R10000-style cores over representative benchmarks, one
/// perfect-L1 point, and the unbounded characterisation core (which
/// exercises the issue-latency histogram serialisation).
#[must_use]
pub fn golden_baseline_jobs() -> Vec<Job> {
    let mem = MemoryHierarchyConfig::mem_400();
    vec![
        Job::new(
            "r10-64/gcc",
            Machine::Baseline(BaselineConfig::r10_64()),
            mem.clone(),
            Benchmark::Gcc,
            GOLDEN_BUDGET,
        ),
        Job::new(
            "r10-64/mcf",
            Machine::Baseline(BaselineConfig::r10_64()),
            mem.clone(),
            Benchmark::Mcf,
            GOLDEN_BUDGET,
        ),
        Job::new(
            "r10-256/swim",
            Machine::Baseline(BaselineConfig::r10_256()),
            mem.clone(),
            Benchmark::Swim,
            GOLDEN_BUDGET,
        ),
        Job::new(
            "r10-64/l1-2/crafty",
            Machine::Baseline(BaselineConfig::r10_64()),
            MemoryHierarchyConfig::l1_2(),
            Benchmark::Crafty,
            GOLDEN_BUDGET,
        ),
        Job::new(
            "unbounded/mesa",
            Machine::Baseline(BaselineConfig::unbounded()),
            mem,
            Benchmark::Mesa,
            2_000,
        ),
    ]
}

/// The KILO-family golden sweep (`tests/golden/kilo.golden`).
#[must_use]
pub fn golden_kilo_jobs() -> Vec<Job> {
    let mem = MemoryHierarchyConfig::mem_400();
    vec![
        Job::new(
            "kilo-1024/gcc",
            Machine::Kilo(KiloConfig::kilo_1024()),
            mem.clone(),
            Benchmark::Gcc,
            GOLDEN_BUDGET,
        ),
        Job::new(
            "kilo-1024/mcf",
            Machine::Kilo(KiloConfig::kilo_1024()),
            mem.clone(),
            Benchmark::Mcf,
            GOLDEN_BUDGET,
        ),
        Job::new(
            "kilo-1024/swim",
            Machine::Kilo(KiloConfig::kilo_1024()),
            mem,
            Benchmark::Swim,
            GOLDEN_BUDGET,
        ),
    ]
}

/// The D-KIP-family golden sweep (`tests/golden/dkip.golden`).
#[must_use]
pub fn golden_dkip_jobs() -> Vec<Job> {
    let mem = MemoryHierarchyConfig::mem_400();
    let small_l2 = MemoryHierarchyConfig::mem_400().with_l2_kb(64);
    vec![
        Job::new(
            "dkip-2048/gcc",
            Machine::Dkip(DkipConfig::paper_default()),
            mem.clone(),
            Benchmark::Gcc,
            GOLDEN_BUDGET,
        ),
        Job::new(
            "dkip-2048/mcf",
            Machine::Dkip(DkipConfig::paper_default()),
            mem.clone(),
            Benchmark::Mcf,
            GOLDEN_BUDGET,
        ),
        Job::new(
            "dkip-2048/swim",
            Machine::Dkip(DkipConfig::paper_default()),
            mem.clone(),
            Benchmark::Swim,
            GOLDEN_BUDGET,
        ),
        Job::new(
            "dkip-512/applu",
            Machine::Dkip(DkipConfig::paper_default().with_llib_capacity(512)),
            mem,
            Benchmark::Applu,
            GOLDEN_BUDGET,
        ),
        Job::new(
            "dkip-2048/64kb-l2/equake",
            Machine::Dkip(DkipConfig::paper_default()),
            small_l2,
            Benchmark::Equake,
            GOLDEN_BUDGET,
        ),
    ]
}

/// The RISC-V golden sweep (`tests/golden/riscv.golden`): every shipped
/// RV64IM kernel run to completion on all three core families over the
/// paper-default memory hierarchy — the exact matrix of `fig_riscv_ipc`
/// (6 kernels × 3 families = 18 jobs).
#[must_use]
pub fn golden_riscv_jobs() -> Vec<Job> {
    let mem = MemoryHierarchyConfig::paper_default();
    let mut jobs = Vec::new();
    for (tag, machine) in riscv_machines() {
        for run in riscv_kernel_runs() {
            jobs.push(Job::new(
                format!("{}/{}", tag.to_lowercase(), run.name()),
                machine.clone(),
                mem.clone(),
                run,
                RISCV_BUDGET,
            ));
        }
    }
    jobs
}

/// Every golden sweep, keyed by its snapshot file name under
/// `tests/golden/`.
#[must_use]
pub fn golden_suites() -> Vec<(&'static str, Vec<Job>)> {
    vec![
        ("baseline.golden", golden_baseline_jobs()),
        ("kilo.golden", golden_kilo_jobs()),
        ("dkip.golden", golden_dkip_jobs()),
        ("riscv.golden", golden_riscv_jobs()),
    ]
}

/// Instruction budget of the synthetic jobs in the sampled suites: long
/// enough for several sampling periods per job (the 4 000-instruction
/// golden budget is shorter than a single period).
pub const SAMPLED_BUDGET: u64 = 100_000;

/// The golden RISC-V matrix (every kernel on every family) with kernel
/// sizes scaled up to ~70k–200k dynamic instructions, so each job's full
/// execution spans many sampling periods. Runs to completion.
fn scaled_riscv_jobs() -> Vec<Job> {
    let runs = [
        KernelRun::new(Kernel::Matmul, 16),
        KernelRun::new(Kernel::ListWalk, 4096),
        KernelRun::new(Kernel::Sieve, 8000),
        KernelRun::new(Kernel::FibRec, 19),
        KernelRun::new(Kernel::Memcpy, 8192),
        KernelRun::new(Kernel::BoxBlur, 28),
    ];
    let mem = MemoryHierarchyConfig::paper_default();
    let mut jobs = Vec::new();
    for (_, machine) in riscv_machines() {
        for run in runs {
            jobs.push(Job::new(
                format!("{}/{}", machine.family(), run.name()),
                machine.clone(),
                mem.clone(),
                run,
                1_000_000,
            ));
        }
    }
    jobs
}

/// The four golden matrices run under sampled simulation, keyed by suite
/// name: the synthetic suites at [`SAMPLED_BUDGET`], the RISC-V suite at
/// scaled kernel sizes. Rates are per suite: the D-KIP's latency tolerance
/// needs a denser rate (smaller gaps) than the other families, because
/// draining between periods forfeits more of its overlap.
///
/// `tests/sampled_accuracy.rs` holds these estimates to error bands against
/// their exact twins; `tests/golden/sampled.golden` pins them bit for bit.
#[must_use]
pub fn golden_sampled_suites() -> Vec<(&'static str, Vec<Job>)> {
    let sampled = |jobs: Vec<Job>, budget: Option<u64>, rate: &str| -> Vec<Job> {
        let rate = SampleConfig::parse(rate).expect("valid sampling rate");
        jobs.into_iter()
            .map(|mut job| {
                job.budget = budget.unwrap_or(job.budget);
                job.with_sample(rate)
            })
            .collect()
    };
    let budget = Some(SAMPLED_BUDGET);
    vec![
        (
            "baseline",
            sampled(golden_baseline_jobs(), budget, "20000:4000:4000"),
        ),
        (
            "kilo",
            sampled(golden_kilo_jobs(), budget, "20000:4000:4000"),
        ),
        (
            "dkip",
            sampled(golden_dkip_jobs(), budget, "12000:3000:3000"),
        ),
        (
            "riscv",
            sampled(scaled_riscv_jobs(), None, "20000:4000:4000"),
        ),
    ]
}

/// Every sampled suite concatenated in [`golden_sampled_suites`] order: the
/// sweep pinned by `tests/golden/sampled.golden`.
#[must_use]
pub fn golden_sampled_jobs() -> Vec<Job> {
    golden_sampled_suites()
        .into_iter()
        .flat_map(|(_, jobs)| jobs)
        .collect()
}

/// Resolves a sweep name as used by `dkip-sim sweep` and the serve
/// protocol: one of the golden suites (`baseline`, `kilo`, `dkip`,
/// `riscv`) or `all` (every suite concatenated in snapshot order). An
/// optional `budget` overrides every job's instruction budget, so clients
/// can scale the same matrix up or down without a new job list.
///
/// # Errors
///
/// Returns a human-readable message naming the unknown suite.
pub fn golden_suite_jobs(name: &str, budget: Option<u64>) -> Result<Vec<Job>, String> {
    let mut jobs = match name {
        "baseline" => golden_baseline_jobs(),
        "kilo" => golden_kilo_jobs(),
        "dkip" => golden_dkip_jobs(),
        "riscv" => golden_riscv_jobs(),
        "all" => golden_suites()
            .into_iter()
            .flat_map(|(_, jobs)| jobs)
            .collect(),
        _ => {
            return Err(format!(
                "unknown suite {name:?}: expected baseline, kilo, dkip, riscv or all"
            ))
        }
    };
    if let Some(budget) = budget {
        for job in &mut jobs {
            job.budget = budget;
        }
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn riscv_suite_is_the_full_18_job_matrix() {
        let jobs = golden_riscv_jobs();
        assert_eq!(jobs.len(), 18, "6 kernels x 3 families");
        for family in ["baseline", "kilo", "dkip"] {
            assert_eq!(
                jobs.iter().filter(|j| j.machine.family() == family).count(),
                6
            );
        }
        assert!(jobs.iter().all(|j| j.workload.is_finite()));
    }

    #[test]
    fn suites_cover_all_four_snapshots() {
        let suites = golden_suites();
        let names: Vec<&str> = suites.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "baseline.golden",
                "kilo.golden",
                "dkip.golden",
                "riscv.golden"
            ]
        );
        assert!(suites.iter().all(|(_, jobs)| !jobs.is_empty()));
    }

    #[test]
    fn suite_names_resolve_and_budgets_override() {
        assert_eq!(golden_suite_jobs("kilo", None).unwrap().len(), 3);
        let all = golden_suite_jobs("all", None).unwrap();
        assert_eq!(all.len(), 5 + 3 + 5 + 18);
        let scaled = golden_suite_jobs("baseline", Some(1_000)).unwrap();
        assert!(scaled.iter().all(|j| j.budget == 1_000));
        assert!(golden_suite_jobs("bogus", None)
            .unwrap_err()
            .contains("bogus"));
    }

    #[test]
    fn sampled_suites_mirror_the_golden_matrices() {
        let suites = golden_sampled_suites();
        let names: Vec<&str> = suites.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["baseline", "kilo", "dkip", "riscv"]);
        for ((_, sampled), (_, golden)) in suites.iter().zip(golden_suites()) {
            assert_eq!(sampled.len(), golden.len());
            assert!(sampled.iter().all(|j| j.sample.is_some()));
        }
        assert_eq!(golden_sampled_jobs().len(), 5 + 3 + 5 + 18);
    }

    #[test]
    fn spec_suites_pin_every_family_name() {
        assert!(golden_baseline_jobs()
            .iter()
            .all(|j| j.machine.family() == "baseline"));
        assert!(golden_kilo_jobs()
            .iter()
            .all(|j| j.machine.family() == "kilo"));
        assert!(golden_dkip_jobs()
            .iter()
            .all(|j| j.machine.family() == "dkip"));
    }
}
