//! Differential fuzzing: random RV64IM programs × three core families ×
//! emulator oracle.
//!
//! Each case draws a [`GenConfig`] shape, generates a terminating RV64IM
//! program, and asserts — via `dkip::sim::fuzz::check_config` — that the
//! functional emulator and all three core families (baseline, KILO, D-KIP,
//! each consuming the program through `RiscvStream`) commit the same
//! architectural state: final registers, final memory and dynamic
//! instruction count; and that the perfect-L2 D-KIP stays inside its
//! baseline envelope.
//!
//! The vendored proptest shim has no shrinking, so on failure this harness
//! minimises itself: `minimize_config` descends the shape knobs at the
//! fixed seed, the minimal failing program is written to
//! `tests/corpus/min_<seed>.asm` (replayed by `tests/corpus_replay.rs` as a
//! deterministic regression from then on), and the panic message names the
//! file.
//!
//! Case count: 40 by default (tier-1 speed), overridden by the
//! `DKIP_FUZZ_CASES` environment variable — `make fuzz-smoke` runs 200,
//! `make fuzz` runs the 1000-program campaign.

mod common;

use std::path::PathBuf;

use common::{config_strategy, fuzz_cases};
use dkip::riscv::GenConfig;
use dkip::sim::fuzz::{check_config, minimize_config, FuzzOptions};
use proptest::prelude::*;

/// Runs one differential check; on mismatch, minimises and records the
/// failing program before panicking.
fn check(cfg: GenConfig) {
    let opts = FuzzOptions::default();
    let Err(first) = check_config(&cfg, &opts) else {
        return;
    };
    let min = minimize_config(cfg, |c| check_config(c, &opts).is_err());
    let mismatch = check_config(&min, &opts).expect_err("minimizer preserves failure");
    let generated = min.generate();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    std::fs::create_dir_all(&dir).expect("create tests/corpus");
    let path = dir.join(format!("min_{:#018x}.asm", min.seed));
    let body = format!(
        "# differential mismatch: {mismatch}\n\
         # minimized from {cfg:?}\n\
         # first observed as: {first}\n\
         {}",
        generated.source
    );
    std::fs::write(&path, body).expect("write corpus reproduction");
    panic!(
        "differential mismatch, minimized to {}: {mismatch}",
        path.display()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    #[test]
    fn random_programs_agree_across_emulator_and_all_three_cores(
        cfg in config_strategy()
    ) {
        check(cfg);
    }
}

/// A zero-length program — no blocks, no loops, just the halting `ecall` —
/// must drain cleanly through all three cores. Regression for the PR 5
/// event-driven clock: an exhausted `MicroOp` stream polled across skipped
/// cycles must keep returning `None`.
#[test]
fn zero_length_program_drains_all_three_cores() {
    let cfg = GenConfig {
        seed: 0,
        blocks: 0,
        block_len: 0,
        max_trip: 0,
        leaves: 0,
    };
    let agreement =
        check_config(&cfg, &FuzzOptions::default()).expect("bare ecall must agree everywhere");
    // The prologue (scratch bases, pool seeds) still retires before the
    // ecall, but no block bodies, loops or calls do.
    assert!(agreement.dynamic_len < 64, "{}", agreement.dynamic_len);
}

/// A pinned set of shapes checked on every `cargo test`, independent of
/// the proptest shim's name-seeded stream: one per structural feature
/// (straight-line, loops, leaf calls, dense memory traffic).
#[test]
fn pinned_shapes_agree_across_emulator_and_all_three_cores() {
    let shapes = [
        GenConfig::new(0xd1f5),
        GenConfig {
            seed: 0x10af,
            blocks: 3,
            block_len: 40,
            max_trip: 0,
            leaves: 0,
        },
        GenConfig {
            seed: 0x200b,
            blocks: 12,
            block_len: 6,
            max_trip: 32,
            leaves: 0,
        },
        GenConfig {
            seed: 0x3001,
            blocks: 6,
            block_len: 10,
            max_trip: 8,
            leaves: 3,
        },
    ];
    for cfg in shapes {
        if let Err(mismatch) = check_config(&cfg, &FuzzOptions::default()) {
            panic!("{cfg:?}: {mismatch}");
        }
    }
}
