//! Property-based tests over the core data structures and the workload
//! generators.

use dkip::bpred::PerceptronPredictor;
use dkip::dkip::{CheckpointStack, Llbv, Llrf, LowLocalityWriter};
use dkip::mem::SetAssocCache;
use dkip::model::config::LlibConfig;
use dkip::model::stats::Histogram;
use dkip::model::{ArchReg, TOTAL_ARCH_REGS};
use dkip::trace::{Benchmark, TraceGenerator};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every micro-op the generator emits is well formed, for any benchmark
    /// and seed.
    #[test]
    fn generated_micro_ops_are_always_well_formed(seed in 0u64..1_000, bench_idx in 0usize..26) {
        let bench = Benchmark::all()[bench_idx];
        let ops: Vec<_> = TraceGenerator::new(bench, seed).take(500).collect();
        prop_assert_eq!(ops.len(), 500);
        for (i, op) in ops.iter().enumerate() {
            prop_assert!(op.is_well_formed(), "{}: {}", bench.name(), op);
            prop_assert_eq!(op.seq, i as u64);
        }
    }

    /// A cache never reports more hits than accesses, and its contents are
    /// consistent with what it just accessed.
    #[test]
    fn cache_hit_accounting_is_consistent(addrs in proptest::collection::vec(0u64..(1 << 20), 1..300)) {
        let mut cache = SetAssocCache::new(4 * 1024, 2, 64).unwrap();
        for &addr in &addrs {
            cache.access(addr, false);
            prop_assert!(resident(&cache, addr), "a just-accessed line must be resident");
        }
        prop_assert_eq!(cache.hits() + cache.misses(), addrs.len() as u64);
    }

    /// The histogram preserves every recorded sample exactly once.
    #[test]
    fn histogram_conserves_samples(values in proptest::collection::vec(0u64..5_000, 1..500)) {
        let mut hist = Histogram::new(50, 1_000);
        for &v in &values {
            hist.record(v);
        }
        let bucket_sum: u64 = hist.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(bucket_sum + hist.overflow_count(), values.len() as u64);
        prop_assert_eq!(hist.total_samples(), values.len() as u64);
        prop_assert_eq!(hist.max_value(), *values.iter().max().unwrap());
    }

    /// The LLBV marked count always equals the number of registers whose bit
    /// is set, a register's bit is set exactly when it has a writer, and the
    /// writer is the latest one marked, under any interleaving of marks and
    /// clears.
    #[test]
    fn llbv_marked_count_matches_bits(ops in proptest::collection::vec((0usize..TOTAL_ARCH_REGS, any::<bool>(), any::<bool>()), 1..200)) {
        let mut llbv = Llbv::new();
        let mut model = [None; TOTAL_ARCH_REGS];
        for (i, (flat, set, load)) in ops.into_iter().enumerate() {
            let reg = ArchReg::from_flat_index(flat);
            if set {
                let seq = i as u64;
                let writer = if load {
                    LowLocalityWriter::Load(seq)
                } else {
                    LowLocalityWriter::MpInstr(seq)
                };
                llbv.mark(reg, writer);
                model[flat] = Some(writer);
            } else {
                llbv.clear(reg);
                model[flat] = None;
            }
        }
        let mut actual = 0;
        for (flat, expected) in model.iter().enumerate() {
            let reg = ArchReg::from_flat_index(flat);
            prop_assert_eq!(llbv.writer(reg), *expected);
            prop_assert_eq!(llbv.is_long_latency(reg), expected.is_some());
            actual += usize::from(llbv.is_long_latency(reg));
        }
        prop_assert_eq!(actual, llbv.marked_count());
    }

    /// An LLRF allocation is refused exactly when every register is taken,
    /// the occupancy and the peak follow the allocations and frees, and
    /// freeing everything returns the occupancy to zero.
    #[test]
    fn llrf_allocation_is_conserved(events in proptest::collection::vec(0u8..4, 1..300)) {
        let cfg = LlibConfig {
            capacity: 256,
            insertion_rate: 4,
            extraction_rate: 4,
            llrf_banks: 8,
            llrf_regs_per_bank: 8,
        };
        let mut llrf = Llrf::new(&cfg);
        let capacity = cfg.llrf_banks * cfg.llrf_regs_per_bank;
        prop_assert_eq!(llrf.capacity(), capacity);
        let (mut held, mut peak) = (0, 0);
        // Three allocations to each free, so most runs fill the LLRF.
        for event in events {
            if event > 0 {
                let full = held == capacity;
                prop_assert_eq!(llrf.allocate(), !full);
                held += usize::from(!full);
                peak = peak.max(held);
            } else if held > 0 {
                llrf.free();
                held -= 1;
            }
            prop_assert_eq!(llrf.occupied(), held);
            prop_assert_eq!(llrf.peak(), peak);
        }
        for _ in 0..held {
            llrf.free();
        }
        prop_assert_eq!(llrf.occupied(), 0);
        prop_assert_eq!(llrf.peak(), peak);
    }

    /// The checkpoint stack never exceeds its capacity and always keeps a
    /// recovery point while instructions are outstanding.
    #[test]
    fn checkpoint_stack_respects_capacity(events in proptest::collection::vec(0u8..3, 1..300)) {
        let mut stack = CheckpointStack::new(4);
        let mut live_epochs: Vec<u64> = Vec::new();
        for event in events {
            match event {
                0 => {
                    if let Some(epoch) = stack.take() {
                        live_epochs.push(epoch);
                    }
                }
                1 => {
                    if let Some(&epoch) = live_epochs.last() {
                        stack.register_instruction(epoch);
                    }
                }
                _ => {
                    if let Some(&epoch) = live_epochs.first() {
                        stack.complete_instruction(epoch);
                    }
                }
            }
            prop_assert!(stack.len() <= 4);
            if !live_epochs.is_empty() {
                prop_assert!(!stack.is_empty());
            }
        }
    }

    /// The perceptron predictor's misprediction count never exceeds its
    /// prediction count and it eventually learns a constant branch.
    #[test]
    fn perceptron_counters_are_sane(outcomes in proptest::collection::vec(any::<bool>(), 1..500)) {
        let mut pred = PerceptronPredictor::new(64, 16);
        for &taken in &outcomes {
            let guess = pred.predict(0xabc0);
            pred.update(0xabc0, taken, guess);
        }
        prop_assert_eq!(pred.predictions(), outcomes.len() as u64);
        prop_assert!(pred.mispredictions() <= pred.predictions());
    }

    /// Perceptron weights saturate at the 8-bit bounds under any training
    /// sequence, across branches and history lengths.
    #[test]
    fn perceptron_weights_stay_saturated(
        outcomes in proptest::collection::vec((0u64..8, any::<bool>()), 1..600),
        history_len in 1usize..32,
    ) {
        let mut pred = PerceptronPredictor::new(32, history_len);
        for &(branch, taken) in &outcomes {
            let pc = 0x4000 + branch * 4;
            let guess = pred.predict(pc);
            pred.update(pc, taken, guess);
        }
        let max = pred.max_abs_weight();
        prop_assert!(
            max <= PerceptronPredictor::WEIGHT_MIN.abs().max(PerceptronPredictor::WEIGHT_MAX),
            "weight magnitude {} escaped the saturation bounds",
            max
        );
    }

    /// Hammering one branch with a constant outcome drives the bias weight
    /// into saturation but never past it, and the predictor ends up always
    /// predicting the constant direction.
    #[test]
    fn perceptron_saturates_and_learns_constant_branches(taken in any::<bool>(), extra in 0u32..200) {
        let mut pred = PerceptronPredictor::new(64, 8);
        for _ in 0..(600 + extra) {
            let guess = pred.predict(0x1234);
            pred.update(0x1234, taken, guess);
        }
        prop_assert!(pred.max_abs_weight() <= 128);
        // After this much constant training the next prediction must match.
        prop_assert_eq!(pred.predict(0x1234), taken);
    }
}

/// Whether `addr` is resident in `cache`, read on a copy so the original's
/// recency order and counters are untouched.
fn resident(cache: &SetAssocCache, addr: u64) -> bool {
    cache.clone().access(addr, false)
}

/// Reference LRU model for one cache set: a most-recent-last list of tags.
fn lru_reference(addrs: &[u64], assoc: usize, stride: u64) -> Vec<u64> {
    let mut lru: Vec<u64> = Vec::new();
    for &addr in addrs {
        let tag = addr / stride;
        if let Some(pos) = lru.iter().position(|&t| t == tag) {
            lru.remove(pos);
        } else if lru.len() == assoc {
            lru.remove(0);
        }
        lru.push(tag);
    }
    lru
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A set-associative cache evicts in exact LRU order: confining all
    /// accesses to one set, the resident lines always match a reference
    /// most-recently-used list.
    #[test]
    fn cache_eviction_follows_true_lru(picks in proptest::collection::vec(0u64..12, 1..200)) {
        const LINE: u64 = 64;
        const ASSOC: usize = 4;
        let mut cache = SetAssocCache::new(8 * 1024, ASSOC, LINE as usize).unwrap();
        let num_sets = cache.num_sets() as u64;
        let stride = num_sets * LINE; // same set, different tag
        let addrs: Vec<u64> = picks.iter().map(|&k| k * stride).collect();
        for &addr in &addrs {
            cache.access(addr, false);
        }
        let expected = lru_reference(&addrs, ASSOC, stride);
        for k in 0u64..12 {
            let addr = k * stride;
            prop_assert_eq!(
                resident(&cache, addr),
                expected.contains(&k),
                "tag {} residency diverged from the LRU reference", k
            );
        }
    }

    /// Hit-after-fill: once a set has been filled with at most `assoc`
    /// distinct lines, re-accessing any of them hits without evicting.
    #[test]
    fn cache_hits_after_fill_without_eviction(perm in proptest::sample::subsequence(vec![0u64, 1, 2, 3], 1..5)) {
        const LINE: u64 = 64;
        let mut cache = SetAssocCache::new(8 * 1024, 4, LINE as usize).unwrap();
        let stride = cache.num_sets() as u64 * LINE;
        for &k in &perm {
            prop_assert!(!cache.access(k * stride, false), "first touch must miss");
        }
        let misses_after_fill = cache.misses();
        for &k in perm.iter().rev() {
            prop_assert!(cache.access(k * stride, true), "refill within assoc must hit");
        }
        prop_assert_eq!(cache.misses(), misses_after_fill);
        prop_assert_eq!(cache.hits(), perm.len() as u64);
    }

    /// Capacity conservation: the number of resident lines never exceeds
    /// the cache's line capacity, no matter the access pattern.
    #[test]
    fn cache_never_exceeds_capacity(addrs in proptest::collection::vec(0u64..(1 << 16), 1..400)) {
        const LINE: usize = 64;
        let mut cache = SetAssocCache::new(4 * 1024, 2, LINE).unwrap();
        let line_capacity = cache.capacity() / LINE;
        for &addr in &addrs {
            cache.access(addr, addr % 3 == 0);
            let resident_lines = (0u64..(1 << 16) / LINE as u64)
                .filter(|&block| resident(&cache, block * LINE as u64))
                .count();
            prop_assert!(
                resident_lines <= line_capacity,
                "{} resident lines exceed the {}-line capacity", resident_lines, line_capacity
            );
        }
        prop_assert_eq!(cache.hits() + cache.misses(), addrs.len() as u64);
    }
}
