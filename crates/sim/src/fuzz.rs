//! Differential fuzzing: random RV64IM programs × three core families ×
//! emulator oracle.
//!
//! The correctness story of every frontend change is one invariant: for any
//! valid terminating program, the functional emulator (the oracle) and all
//! three core families — baseline, KILO and D-KIP, each consuming the
//! program through [`dkip_riscv::RiscvStream`] — must commit the **same
//! architectural state**: final register file, final (touched) memory and
//! dynamic instruction count. This module provides the checked form of that
//! invariant plus the shrinking-lite machinery the fuzz harness
//! (`tests/fuzz_differential.rs`) uses to minimise a failure into a
//! corpus-style reproduction (`tests/corpus/*.asm`).
//!
//! [`check_source`] is the single entry point: it assembles a program,
//! runs the oracle, replays the program through every family via
//! [`Machine::simulate_stream`] (the same dispatch the `Workload::Riscv`
//! sweep path uses), and compares state. It also re-runs D-KIP and the
//! baseline under a perfect L2 and asserts the D-KIP degenerates to its
//! Cache Processor (the `tests/differential.rs` envelope): nothing may be
//! extracted to the LLIB and — for programs long enough for IPC to be
//! meaningful — the IPC ratio must stay inside a fixed band.
//!
//! Because all four executions share one `Emulator` implementation, the
//! register/memory comparison primarily proves the *cores drain finite
//! streams exactly*: a core that stalls, drops micro-ops, or stops early
//! leaves its stream's emulator short of `ecall` and the comparison fails
//! (`Mismatch::Incomplete` / `Mismatch::Committed`). The dynamic
//! instruction count cross-checks each family's `committed` statistic
//! against the oracle's retired count.

use std::fmt;

use crate::runner::Machine;
use crate::sampled::{run_sampled, SampledRun};
use crate::workload::WorkloadStream;
use dkip_model::config::{BaselineConfig, DkipConfig, KiloConfig, MemoryHierarchyConfig};
use dkip_model::{SampleConfig, SimStats, Telemetry};
use dkip_riscv::{assemble, Emulator, GenConfig, Program, RiscvStream, CODE_BASE};

/// Budget slack granted on top of the oracle's dynamic instruction count,
/// so a correct core always drains the stream instead of stopping at the
/// budget boundary.
const BUDGET_SLACK: u64 = 64;

/// Minimum dynamic instructions before the perfect-L2 IPC-ratio envelope
/// is enforced; below this, pipeline fill/drain dominates and the ratio of
/// two correct machines legitimately diverges.
pub const ENVELOPE_MIN_INSTRS: u64 = 5_000;

/// Allowed D-KIP/baseline IPC ratio under a perfect L2 (the structural
/// assertions — empty LLIB/LLRF, zero memory accesses — hold regardless).
pub const ENVELOPE_IPC_BAND: (f64, f64) = (0.85, 1.18);

/// Sampling rate used by the sampled-mode differential pass. Generated
/// programs are short, so the period is much denser than the
/// [`SampleConfig::default_rate`] production rate — most fuzz programs
/// still span several windows and at least one fast-forward gap.
#[must_use]
pub fn fuzz_sample_rate() -> SampleConfig {
    SampleConfig {
        period: 400,
        warmup: 50,
        window: 50,
    }
}

/// Options for one differential check.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Memory hierarchy for the three-family differential run.
    pub mem: MemoryHierarchyConfig,
    /// Oracle step backstop: the program must reach `ecall` within this
    /// many retired instructions or the check fails as non-terminating.
    pub step_limit: u64,
    /// Whether to run the perfect-L2 D-KIP envelope check.
    pub envelope: bool,
    /// Whether to re-run every family under sampled simulation
    /// ([`fuzz_sample_rate`]) and hold the final architectural state to the
    /// same oracle.
    pub sampled: bool,
    /// Whether the exact three-family pass runs with an in-memory telemetry
    /// sink attached (both backends: interval metrics and the pipeline
    /// trace). The architectural state and statistics must be identical
    /// either way — probing is observationally pure — so a `true` here
    /// turns every differential check into a telemetry-invariance check.
    pub probed: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            mem: MemoryHierarchyConfig::mem_400(),
            step_limit: 2_000_000,
            envelope: true,
            sampled: true,
            probed: false,
        }
    }
}

/// The three core families at their paper-default configurations — the
/// machines every generated program is differentially checked against.
#[must_use]
pub fn fuzz_machines() -> [Machine; 3] {
    [
        Machine::Baseline(BaselineConfig::r10_64()),
        Machine::Kilo(KiloConfig::kilo_1024()),
        Machine::Dkip(DkipConfig::paper_default()),
    ]
}

/// Successful-check summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Agreement {
    /// Dynamic instructions the program retires (oracle == every family).
    pub dynamic_len: u64,
}

/// How a differential check failed.
#[derive(Debug, Clone, PartialEq)]
pub enum Mismatch {
    /// The source does not assemble (only possible for corpus files edited
    /// by hand; the generator's output assembles by construction).
    Assemble(String),
    /// The oracle hit the step backstop before `ecall`.
    NoTermination {
        /// The backstop that was exceeded.
        step_limit: u64,
    },
    /// A family finished simulating without draining the program: its
    /// stream's emulator never reached `ecall`.
    Incomplete {
        /// The family tag ("baseline" / "kilo" / "dkip").
        family: &'static str,
        /// Instructions that family's emulator retired.
        retired: u64,
        /// Instructions the oracle retired.
        expected: u64,
    },
    /// A family's committed-instruction count disagrees with the oracle's
    /// dynamic instruction count.
    Committed {
        /// The family tag.
        family: &'static str,
        /// The oracle's dynamic instruction count.
        expected: u64,
        /// The family's `SimStats::committed`.
        actual: u64,
    },
    /// A register differs between the oracle and a family's final state.
    Register {
        /// The family tag.
        family: &'static str,
        /// Register index (0–31).
        index: usize,
        /// The oracle's value.
        oracle: u64,
        /// The family's value.
        actual: u64,
    },
    /// A memory byte differs between the oracle and a family's final state.
    Memory {
        /// The family tag.
        family: &'static str,
        /// Address of the first differing byte.
        addr: u64,
        /// The oracle's byte.
        oracle: u8,
        /// The family's byte.
        actual: u8,
    },
    /// The perfect-L2 D-KIP escaped its baseline envelope.
    Envelope(String),
    /// The sampled-mode run misaccounted its stream coverage (register and
    /// memory divergence under sampling is reported through the ordinary
    /// [`Mismatch::Register`] / [`Mismatch::Memory`] variants with a
    /// `*-sampled` family tag).
    SampledCoverage {
        /// The `*-sampled` family tag.
        family: &'static str,
        /// Instructions the sampled run reported covering.
        covered: u64,
        /// The oracle's dynamic instruction count.
        expected: u64,
    },
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mismatch::Assemble(err) => write!(f, "program does not assemble: {err}"),
            Mismatch::NoTermination { step_limit } => {
                write!(f, "program did not reach ecall within {step_limit} steps")
            }
            Mismatch::Incomplete {
                family,
                retired,
                expected,
            } => write!(
                f,
                "{family}: core finished without draining the stream \
                 ({retired}/{expected} instructions executed)"
            ),
            Mismatch::Committed {
                family,
                expected,
                actual,
            } => write!(
                f,
                "{family}: committed {actual} instructions, oracle retired {expected}"
            ),
            Mismatch::Register {
                family,
                index,
                oracle,
                actual,
            } => write!(
                f,
                "{family}: x{index} = {actual:#x}, oracle has {oracle:#x}"
            ),
            Mismatch::Memory {
                family,
                addr,
                oracle,
                actual,
            } => write!(
                f,
                "{family}: memory[{addr:#x}] = {actual:#04x}, oracle has {oracle:#04x}"
            ),
            Mismatch::Envelope(msg) => write!(f, "perfect-L2 envelope violated: {msg}"),
            Mismatch::SampledCoverage {
                family,
                covered,
                expected,
            } => write!(
                f,
                "{family}: sampled run covered {covered} of {expected} instructions"
            ),
        }
    }
}

/// Runs the functional emulator on `program` to completion.
fn run_oracle(program: &Program, step_limit: u64) -> Result<Emulator, Mismatch> {
    let mut emu = Emulator::new(program);
    emu.set_step_limit(step_limit);
    emu.run_to_halt();
    if emu.ran_to_completion() {
        Ok(emu)
    } else {
        Err(Mismatch::NoTermination { step_limit })
    }
}

/// Runs one family on `program` and returns its statistics plus the final
/// emulator state of the stream it consumed.
fn run_family(
    machine: &Machine,
    mem: &MemoryHierarchyConfig,
    program: &Program,
    step_limit: u64,
    budget: u64,
    probed: bool,
) -> (SimStats, Emulator) {
    let mut emu = Emulator::new(program);
    emu.set_step_limit(step_limit);
    let mut stream = RiscvStream::from_emulator(emu);
    let stats = if probed {
        // Both backends live, buffered in memory: a dense metrics interval
        // plus an uncapped-in-practice trace window for fuzz-sized programs.
        let mut telemetry = Telemetry::buffered(Some(256), Some(1 << 20));
        machine.build(mem).run(&mut stream, budget, &mut telemetry)
    } else {
        machine.simulate_stream(mem, &mut stream, budget)
    };
    (stats, stream.emulator().clone())
}

/// The `*-sampled` family tag used when a sampled-mode run diverges.
fn sampled_tag(machine: &Machine) -> &'static str {
    match machine {
        Machine::Baseline(_) => "baseline-sampled",
        Machine::Kilo(_) => "kilo-sampled",
        Machine::Dkip(_) => "dkip-sampled",
    }
}

/// Runs one family on `program` under sampled simulation and returns the
/// run summary plus the final emulator state of the consumed stream.
///
/// The budget exceeds the program's dynamic length, so the sampling loop
/// itself must drain the stream — nothing is drained afterwards, which
/// means a sampled-mode bug that stops early surfaces as
/// [`Mismatch::Incomplete`] rather than being papered over.
fn run_family_sampled(
    machine: &Machine,
    mem: &MemoryHierarchyConfig,
    program: &Program,
    step_limit: u64,
    budget: u64,
    sample: &SampleConfig,
) -> (SampledRun, Emulator) {
    let mut emu = Emulator::new(program);
    emu.set_step_limit(step_limit);
    let mut stream = WorkloadStream::Riscv(RiscvStream::from_emulator(emu));
    let run = run_sampled(machine, mem, &mut stream, budget, sample);
    let WorkloadStream::Riscv(stream) = stream else {
        unreachable!("a Riscv stream stays a Riscv stream");
    };
    (run, stream.emulator().clone())
}

/// Compares a family's final emulator state against the oracle's.
fn compare_state(
    family: &'static str,
    oracle: &Emulator,
    actual: &Emulator,
) -> Result<(), Mismatch> {
    if !actual.ran_to_completion() {
        return Err(Mismatch::Incomplete {
            family,
            retired: actual.retired(),
            expected: oracle.retired(),
        });
    }
    for (index, (o, a)) in oracle.regs().iter().zip(actual.regs()).enumerate() {
        if o != a {
            return Err(Mismatch::Register {
                family,
                index,
                oracle: *o,
                actual: *a,
            });
        }
    }
    if oracle.memory() != actual.memory() {
        let (addr, (o, a)) = oracle
            .memory()
            .iter()
            .zip(actual.memory())
            .enumerate()
            .find(|(_, (o, a))| o != a)
            .expect("memories differ");
        return Err(Mismatch::Memory {
            family,
            addr: addr as u64,
            oracle: *o,
            actual: *a,
        });
    }
    Ok(())
}

/// The `tests/differential.rs` invariant, applied per program: under a
/// perfect L2 no load ever reaches memory, so the D-KIP's Analyze stage
/// must extract nothing and the machine must track the R10-64 baseline.
fn check_envelope(program: &Program, step_limit: u64, dynamic_len: u64) -> Result<(), Mismatch> {
    let perfect = MemoryHierarchyConfig::l2_11();
    let budget = dynamic_len + BUDGET_SLACK;
    let machines = fuzz_machines();
    let (dkip, _) = run_family(&machines[2], &perfect, program, step_limit, budget, false);
    let err = |msg: String| Err(Mismatch::Envelope(msg));
    if dkip.low_locality_instrs != 0 {
        return err(format!(
            "{} instructions extracted to the LLIB under a perfect L2",
            dkip.low_locality_instrs
        ));
    }
    if dkip.llib_int_peak_instrs != 0 || dkip.llib_fp_peak_instrs != 0 {
        return err("LLIB occupancy nonzero under a perfect L2".to_owned());
    }
    if dkip.llrf_int_peak_regs != 0 || dkip.llrf_fp_peak_regs != 0 {
        return err("LLRF occupancy nonzero under a perfect L2".to_owned());
    }
    if dkip.mem_accesses != 0 {
        return err(format!(
            "{} main-memory accesses under a perfect L2",
            dkip.mem_accesses
        ));
    }
    if dynamic_len >= ENVELOPE_MIN_INSTRS {
        let (base, _) = run_family(&machines[0], &perfect, program, step_limit, budget, false);
        let ratio = dkip.ipc() / base.ipc();
        let (lo, hi) = ENVELOPE_IPC_BAND;
        if !(lo..=hi).contains(&ratio) {
            return err(format!(
                "IPC ratio {ratio:.3} outside [{lo}, {hi}] \
                 (dkip={:.3}, baseline={:.3}, {dynamic_len} instructions)",
                dkip.ipc(),
                base.ipc()
            ));
        }
    }
    Ok(())
}

/// Differentially checks one assembly source: emulator oracle versus all
/// three core families, plus (optionally) the perfect-L2 D-KIP envelope.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found; `Ok` carries the agreed dynamic
/// instruction count.
pub fn check_source(src: &str, opts: &FuzzOptions) -> Result<Agreement, Mismatch> {
    let program = assemble(src, CODE_BASE).map_err(|err| Mismatch::Assemble(err.to_string()))?;
    let oracle = run_oracle(&program, opts.step_limit)?;
    let dynamic_len = oracle.retired();
    let budget = dynamic_len + BUDGET_SLACK;
    for machine in &fuzz_machines() {
        let family = machine.family();
        let (stats, emu) = run_family(
            machine,
            &opts.mem,
            &program,
            opts.step_limit,
            budget,
            opts.probed,
        );
        compare_state(family, &oracle, &emu)?;
        if stats.committed != dynamic_len {
            return Err(Mismatch::Committed {
                family,
                expected: dynamic_len,
                actual: stats.committed,
            });
        }
    }
    if opts.sampled {
        let sample = fuzz_sample_rate();
        for machine in &fuzz_machines() {
            let family = sampled_tag(machine);
            let (run, emu) = run_family_sampled(
                machine,
                &opts.mem,
                &program,
                opts.step_limit,
                budget,
                &sample,
            );
            compare_state(family, &oracle, &emu)?;
            if run.consumed() != dynamic_len {
                return Err(Mismatch::SampledCoverage {
                    family,
                    covered: run.consumed(),
                    expected: dynamic_len,
                });
            }
        }
    }
    if opts.envelope {
        check_envelope(&program, opts.step_limit, dynamic_len)?;
    }
    Ok(Agreement { dynamic_len })
}

/// Differentially checks a generated program (the oracle backstop comes
/// from the generator's termination bound, so a termination-invariant bug
/// in the generator surfaces as [`Mismatch::NoTermination`]).
///
/// # Errors
///
/// See [`check_source`].
pub fn check_config(cfg: &GenConfig, opts: &FuzzOptions) -> Result<Agreement, Mismatch> {
    let gen = cfg.generate();
    let opts = FuzzOptions {
        step_limit: gen.dynamic_bound,
        ..opts.clone()
    };
    check_source(&gen.source, &opts)
}

/// Shrinking-lite over the generator's shape parameters: repeatedly lowers
/// `blocks`, `block_len`, `max_trip` and `leaves` (halving first, then
/// decrementing) while `still_fails` keeps returning `true`, and returns
/// the smallest failing configuration found.
///
/// The vendored proptest shim has no integrated shrinking, so this lives
/// here: because generation is deterministic in `(seed, shape)`, lowering a
/// knob regenerates a smaller program of the same character, and the
/// fixpoint of this descent is a minimal-ish reproduction suitable for the
/// corpus. `still_fails(&start)` must be `true` on entry.
pub fn minimize_config<F>(start: GenConfig, still_fails: F) -> GenConfig
where
    F: Fn(&GenConfig) -> bool,
{
    debug_assert!(still_fails(&start), "minimize_config needs a failing start");
    type Get = fn(&GenConfig) -> u32;
    type Set = fn(&mut GenConfig, u32);
    let fields: [(Get, Set); 4] = [
        (|c| c.blocks, |c, v| c.blocks = v),
        (|c| c.block_len, |c, v| c.block_len = v),
        (|c| c.max_trip, |c, v| c.max_trip = v),
        (|c| c.leaves, |c, v| c.leaves = v),
    ];
    let mut best = start;
    let mut changed = true;
    while changed {
        changed = false;
        for (get, set) in fields {
            loop {
                let cur = get(&best);
                if cur == 0 {
                    break;
                }
                let mut candidate = best;
                set(&mut candidate, cur / 2);
                if still_fails(&candidate) {
                    best = candidate;
                    changed = true;
                    continue;
                }
                let mut candidate = best;
                set(&mut candidate, cur - 1);
                if still_fails(&candidate) {
                    best = candidate;
                    changed = true;
                    continue;
                }
                break;
            }
        }
    }
    best
}

/// Budget bisection: the smallest committed-instruction budget in
/// `1..=hi` at which `still_fails` holds, assuming failure is monotone in
/// the budget (a failure at budget `b` persists for `b' > b`) and that
/// `still_fails(hi)` is `true`. Pins *where* in a long program a
/// divergence first becomes observable.
pub fn minimize_budget<F>(hi: u64, still_fails: F) -> u64
where
    F: Fn(u64) -> bool,
{
    debug_assert!(still_fails(hi), "minimize_budget needs a failing start");
    let (mut lo, mut hi) = (1, hi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if still_fails(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_trivial_program_agrees_everywhere() {
        let agreement = check_source(
            "li a0, 6\nli a1, 7\nmul a0, a0, a1\necall",
            &FuzzOptions::default(),
        )
        .expect("trivial program must agree");
        assert_eq!(agreement.dynamic_len, 4);
    }

    #[test]
    fn the_bare_ecall_program_drains_all_three_families() {
        // PR 5 regression: an exhausted MicroOp stream must keep returning
        // None across skipped cycles; the shortest possible stream (one
        // ecall, cracked to a Nop) exercises the drain path of every core.
        let agreement =
            check_source("ecall", &FuzzOptions::default()).expect("empty program must agree");
        assert_eq!(agreement.dynamic_len, 1);
    }

    #[test]
    fn an_unassemblable_source_is_reported_not_panicked() {
        let err = check_source("frobnicate a0, a1", &FuzzOptions::default()).unwrap_err();
        assert!(matches!(err, Mismatch::Assemble(_)), "{err}");
    }

    #[test]
    fn a_runaway_program_is_reported_as_non_terminating() {
        let opts = FuzzOptions {
            step_limit: 1_000,
            ..FuzzOptions::default()
        };
        let err = check_source("spin:\n  j spin", &opts).unwrap_err();
        assert_eq!(err, Mismatch::NoTermination { step_limit: 1_000 });
    }

    #[test]
    fn generated_configs_check_end_to_end() {
        for seed in 0..8 {
            let cfg = GenConfig::new(seed);
            if let Err(mismatch) = check_config(&cfg, &FuzzOptions::default()) {
                panic!("seed {seed}: {mismatch}");
            }
        }
    }

    #[test]
    fn minimize_config_descends_to_the_smallest_failing_shape() {
        // Synthetic failure predicate: "fails whenever blocks >= 3 or
        // max_trip >= 5" — the minimizer must land exactly on the boundary.
        let start = GenConfig::new(1); // blocks=8, max_trip=24
        let min = minimize_config(start, |c| c.blocks >= 3 || c.max_trip >= 5);
        assert!(min.blocks >= 3 || min.max_trip >= 5, "still fails");
        assert!(
            (min.blocks <= 3 && min.max_trip == 0) || (min.blocks == 0 && min.max_trip <= 5),
            "not minimal: {min:?}"
        );
        assert_eq!(min.block_len, 0);
        assert_eq!(min.leaves, 0);
    }

    #[test]
    fn minimize_budget_bisects_to_the_threshold() {
        assert_eq!(minimize_budget(1_000, |b| b >= 137), 137);
        assert_eq!(minimize_budget(8, |b| b >= 1), 1);
    }

    #[test]
    fn a_multi_window_program_survives_the_sampled_pass() {
        // ~18k dynamic instructions: with the 400:50:50 fuzz rate the
        // sampled pass runs dozens of windows separated by fast-forward
        // gaps, and must still leave every family's emulator at the exact
        // oracle state.
        let src = "li t0, 6000\nli t1, 0\nloop:\n  addi t1, t1, 3\n  addi t0, t0, -1\n  bnez t0, loop\necall";
        let agreement =
            check_source(src, &FuzzOptions::default()).expect("loop program must agree");
        // li t0, 6000 expands to two instructions (the constant exceeds a
        // 12-bit immediate), so the prologue is 3 instructions + ecall.
        assert_eq!(agreement.dynamic_len, 4 + 3 * 6_000);
    }

    #[test]
    fn the_probed_pass_is_observationally_pure() {
        // Same program, with and without the in-memory telemetry sink: the
        // differential machinery itself asserts architectural agreement, so
        // it only remains to check the dynamic length matches.
        let src = "li t0, 40\nloop:\n  addi t0, t0, -1\n  bnez t0, loop\necall";
        let plain = check_source(src, &FuzzOptions::default()).expect("unprobed check agrees");
        let probed = check_source(
            src,
            &FuzzOptions {
                probed: true,
                ..FuzzOptions::default()
            },
        )
        .expect("probed check agrees");
        assert_eq!(plain, probed);
    }

    #[test]
    fn the_sampled_pass_is_skippable() {
        let opts = FuzzOptions {
            sampled: false,
            ..FuzzOptions::default()
        };
        check_source("li a0, 1\necall", &opts).expect("exact-only check must agree");
    }

    #[test]
    fn mismatch_displays_are_informative() {
        let text = Mismatch::Register {
            family: "kilo",
            index: 10,
            oracle: 42,
            actual: 41,
        }
        .to_string();
        assert!(text.contains("kilo") && text.contains("x10"), "{text}");
    }
}
