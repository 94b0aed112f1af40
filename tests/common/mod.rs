//! Helpers shared by the integration tests that draw random RV64IM
//! programs (`tests/fuzz_differential.rs`, `tests/timing_oracle.rs`).

use dkip::riscv::GenConfig;
use proptest::prelude::*;

/// Programs per property: 40 by default (tier-1 speed), overridden by the
/// `DKIP_FUZZ_CASES` environment variable — `make fuzz-smoke` runs 200,
/// `make fuzz` runs the 1000-program campaign.
pub fn fuzz_cases() -> u32 {
    std::env::var("DKIP_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40)
}

/// Draws a program shape. The body-size knobs are sized *dependently* on
/// the block count (`prop_flat_map`): many-block programs get shorter
/// blocks so every case stays fast, few-block programs get longer ones so
/// straight-line depth is still exercised.
pub fn config_strategy() -> impl Strategy<Value = GenConfig> {
    (0u64..u64::MAX, 0u32..14).prop_flat_map(|(seed, blocks)| {
        let max_len = 4 + 96 / (blocks + 1);
        (Just(seed), Just(blocks), 0u32..max_len, 0u32..33, 0u32..4).prop_map(
            |(seed, blocks, block_len, max_trip, leaves)| GenConfig {
                seed,
                blocks,
                block_len,
                max_trip,
                leaves,
            },
        )
    })
}
