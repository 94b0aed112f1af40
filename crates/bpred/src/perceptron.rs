//! The perceptron branch predictor of Jiménez & Lin (HPCA 2001), the
//! predictor used by the paper's Cache Processor (Table 2).

use crate::{BranchPredictor, PredStats};
use dkip_model::FastHashMap;

/// A perceptron branch predictor.
///
/// A table of perceptrons is indexed by a hash of the branch PC. Each
/// perceptron holds one signed weight per bit of global history plus a bias
/// weight. The prediction is the sign of the dot product between the weights
/// and the history (encoded as ±1); training bumps the weights whenever the
/// prediction was wrong or the magnitude of the output was below the
/// threshold `⌊1.93·h + 14⌋` recommended by the original paper.
///
/// The predictor sits on the dispatch/writeback hot path of every core
/// family, so the table is one flat row-major array of `i8` weights, the
/// dot product and training are branch-free, and the in-flight outputs
/// live in a deterministic [`FastHashMap`].
#[derive(Debug, Clone)]
pub struct PerceptronPredictor {
    /// Row-major table: perceptron `i` occupies
    /// `weights[i * (history_len + 1) ..][..history_len + 1]`, bias first.
    weights: Vec<i8>,
    table_size: usize,
    history: u64,
    history_len: usize,
    threshold: i32,
    /// Speculative history is not modelled separately: `predict` shifts the
    /// predicted outcome in, `update` repairs the history on a
    /// misprediction. This matches how the cores use the predictor (at most
    /// a handful of unresolved branches because fetch stalls on a predicted
    /// mispredict).
    stats: PredStats,
    last_outputs: FastHashMap<u64, i32>,
}

impl PerceptronPredictor {
    /// Creates a perceptron predictor with `table_size` perceptrons (rounded
    /// up to a power of two) and `history_len` bits of global history.
    ///
    /// # Panics
    ///
    /// Panics if `table_size` or `history_len` is zero.
    #[must_use]
    pub fn new(table_size: usize, history_len: usize) -> Self {
        assert!(table_size > 0, "table_size must be positive");
        assert!(history_len > 0, "history_len must be positive");
        let table_size = table_size.next_power_of_two();
        let threshold = (1.93 * history_len as f64 + 14.0).floor() as i32;
        PerceptronPredictor {
            weights: vec![0; table_size * (history_len + 1)],
            table_size,
            history: 0,
            history_len,
            threshold,
            stats: PredStats::default(),
            last_outputs: FastHashMap::default(),
        }
    }

    /// The configuration used throughout the reproduction: 1024 perceptrons
    /// with 32 bits of global history (comparable to the hardware budget of
    /// the predictor in the paper's Table 2).
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(1024, 32)
    }

    /// The training threshold `⌊1.93·h + 14⌋`.
    #[must_use]
    pub fn threshold(&self) -> i32 {
        self.threshold
    }

    /// Number of history bits.
    #[must_use]
    pub fn history_len(&self) -> usize {
        self.history_len
    }

    fn index(&self, pc: u64) -> usize {
        // Fold the PC; low bits beyond the instruction alignment are the
        // most discriminating.
        let hashed = (pc >> 2) ^ (pc >> 13);
        (hashed as usize) & (self.table_size - 1)
    }

    /// The weight row of perceptron `idx` (bias first).
    fn row(&self, idx: usize) -> &[i8] {
        let stride = self.history_len + 1;
        &self.weights[idx * stride..(idx + 1) * stride]
    }

    /// Mutable form of [`PerceptronPredictor::row`].
    fn row_mut(&mut self, idx: usize) -> &mut [i8] {
        let stride = self.history_len + 1;
        &mut self.weights[idx * stride..(idx + 1) * stride]
    }

    fn output(&self, pc: u64) -> i32 {
        let perceptron = self.row(self.index(pc));
        let mut y = i32::from(perceptron[0]);
        for (bit, &weight) in perceptron[1..].iter().enumerate() {
            // History bit 1 adds the weight, 0 subtracts it: `m` is 0 or -1,
            // and `(w ^ m) - m` is `w` or `-w`.
            let m = ((self.history >> bit) & 1) as i32 - 1;
            y += (i32::from(weight) ^ m) - m;
        }
        y
    }

    /// Moves the weights of `pc`'s perceptron towards `taken`, against
    /// `seen_history`. Forced inline: with two callers the inliner would
    /// otherwise outline it from `update`, the detailed path.
    #[inline(always)]
    fn train(&mut self, pc: u64, taken: bool, seen_history: u64) {
        // Each weight moves up where its history bit agrees with the
        // outcome and down where it does not; the bias sees a `1` bit.
        let agree = if taken { seen_history } else { !seen_history };
        let perceptron = self.row_mut(self.index(pc));
        perceptron[0] = perceptron[0].saturating_add(if taken { 1 } else { -1 });
        for (bit, weight) in perceptron[1..].iter_mut().enumerate() {
            *weight = weight.saturating_add(((agree >> bit) & 1) as i8 * 2 - 1);
        }
    }

    /// Largest value any weight may reach (8-bit signed saturation).
    pub const WEIGHT_MAX: i32 = i8::MAX as i32;

    /// Smallest value any weight may reach (8-bit signed saturation).
    pub const WEIGHT_MIN: i32 = i8::MIN as i32;

    /// The largest weight magnitude currently stored in any perceptron.
    ///
    /// Training saturates every weight into
    /// `[`[`Self::WEIGHT_MIN`]`, `[`Self::WEIGHT_MAX`]`]`, so this never
    /// exceeds 128; the property tests assert exactly that bound.
    #[must_use]
    pub fn max_abs_weight(&self) -> i32 {
        // Widened first: `i8::abs(-128)` overflows.
        let widened = self.weights.iter().map(|&w| i32::from(w));
        widened.map(i32::abs).max().unwrap_or(0)
    }
}

impl BranchPredictor for PerceptronPredictor {
    fn clone_box(&self) -> Box<dyn BranchPredictor> {
        Box::new(self.clone())
    }

    fn predict(&mut self, pc: u64) -> bool {
        self.stats.predictions += 1;
        let y = self.output(pc);
        self.last_outputs.insert(pc, y);
        let taken = y >= 0;
        // Speculatively shift the prediction into the history; repaired in
        // `update` if wrong.
        self.history = (self.history << 1) | u64::from(taken);
        taken
    }

    fn update(&mut self, pc: u64, taken: bool, predicted: bool) {
        if taken != predicted {
            self.stats.mispredictions += 1;
            // Repair the speculative history bit inserted by `predict`.
            self.history = (self.history & !1) | u64::from(taken);
        }
        let y = self.last_outputs.remove(&pc).unwrap_or(0);
        if taken != predicted || y.abs() <= self.threshold {
            // Reconstruct the history the prediction saw (one bit older).
            self.train(pc, taken, self.history >> 1);
        }
    }

    /// One pass instead of `predict` + `update`: the same dot product,
    /// counters, history and training, without parking the output in
    /// `last_outputs` only to take it straight back out.
    fn warm(&mut self, pc: u64, taken: bool) {
        self.stats.predictions += 1;
        let y = self.output(pc);
        let predicted = y >= 0;
        if taken != predicted {
            self.stats.mispredictions += 1;
        }
        // `predict` would overwrite a pending output for this pc and
        // `update` would then remove it.
        if !self.last_outputs.is_empty() {
            self.last_outputs.remove(&pc);
        }
        self.history = (self.history << 1) | u64::from(taken);
        if taken != predicted || y.abs() <= self.threshold {
            // The history `update` would train against: shifted in, then
            // back out, which drops the oldest bit (it matters when
            // `history_len` is 64).
            self.train(pc, taken, self.history >> 1);
        }
    }

    fn predictions(&self) -> u64 {
        self.stats.predictions
    }

    fn mispredictions(&self) -> u64 {
        self.stats.mispredictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `i32`-weight predictor the 8-bit table replaced, kept as the
    /// reference model: weights clamped into `[WEIGHT_MIN, WEIGHT_MAX]`
    /// after each step, a multiply by the ±1-encoded history bit in the dot
    /// product, and a `±1` training direction per weight.
    struct ReferencePerceptron {
        weights: Vec<i32>,
        table_size: usize,
        history: u64,
        history_len: usize,
        threshold: i32,
        stats: PredStats,
        last_outputs: FastHashMap<u64, i32>,
    }

    impl ReferencePerceptron {
        fn new(table_size: usize, history_len: usize) -> Self {
            let table_size = table_size.next_power_of_two();
            ReferencePerceptron {
                weights: vec![0; table_size * (history_len + 1)],
                table_size,
                history: 0,
                history_len,
                threshold: (1.93 * history_len as f64 + 14.0).floor() as i32,
                stats: PredStats::default(),
                last_outputs: FastHashMap::default(),
            }
        }

        fn row(&mut self, pc: u64) -> &mut [i32] {
            let idx = (((pc >> 2) ^ (pc >> 13)) as usize) & (self.table_size - 1);
            let stride = self.history_len + 1;
            &mut self.weights[idx * stride..(idx + 1) * stride]
        }

        fn output(&mut self, pc: u64) -> i32 {
            let history = self.history;
            let perceptron = self.row(pc);
            let mut y = perceptron[0];
            for (bit, &weight) in perceptron[1..].iter().enumerate() {
                let h = ((history >> bit) & 1) as i32 * 2 - 1;
                y += weight * h;
            }
            y
        }

        fn train(&mut self, pc: u64, taken: bool, seen_history: u64) {
            let t = if taken { 1 } else { -1 };
            let adjust = |weight: &mut i32, direction: i32| {
                *weight = (*weight + direction).clamp(
                    PerceptronPredictor::WEIGHT_MIN,
                    PerceptronPredictor::WEIGHT_MAX,
                );
            };
            let perceptron = self.row(pc);
            adjust(&mut perceptron[0], t);
            for (bit, weight) in perceptron[1..].iter_mut().enumerate() {
                adjust(weight, t * (((seen_history >> bit) & 1) as i32 * 2 - 1));
            }
        }

        fn predict(&mut self, pc: u64) -> bool {
            self.stats.predictions += 1;
            let y = self.output(pc);
            self.last_outputs.insert(pc, y);
            self.history = (self.history << 1) | u64::from(y >= 0);
            y >= 0
        }

        fn update(&mut self, pc: u64, taken: bool, predicted: bool) {
            if taken != predicted {
                self.stats.mispredictions += 1;
                self.history = (self.history & !1) | u64::from(taken);
            }
            let y = self.last_outputs.remove(&pc).unwrap_or(0);
            if taken != predicted || y.abs() <= self.threshold {
                self.train(pc, taken, self.history >> 1);
            }
        }

        fn warm(&mut self, pc: u64, taken: bool) {
            self.stats.predictions += 1;
            let y = self.output(pc);
            let predicted = y >= 0;
            if taken != predicted {
                self.stats.mispredictions += 1;
            }
            self.last_outputs.remove(&pc);
            self.history = (self.history << 1) | u64::from(taken);
            if taken != predicted || y.abs() <= self.threshold {
                self.train(pc, taken, self.history >> 1);
            }
        }
    }

    #[test]
    fn threshold_follows_the_published_formula() {
        let p = PerceptronPredictor::new(256, 32);
        assert_eq!(p.threshold(), (1.93f64 * 32.0 + 14.0).floor() as i32);
        assert_eq!(p.history_len(), 32);
    }

    #[test]
    fn learns_strongly_biased_branches() {
        let mut p = PerceptronPredictor::paper_default();
        let mut wrong_late = 0;
        for i in 0..2000u64 {
            let guess = p.predict(0x1000);
            p.update(0x1000, true, guess);
            if i > 100 && !guess {
                wrong_late += 1;
            }
        }
        assert_eq!(
            wrong_late, 0,
            "a always-taken branch must become perfectly predicted"
        );
    }

    #[test]
    fn learns_history_correlated_patterns() {
        // Branch B is taken exactly when the previous outcome of branch A
        // was taken: linearly separable on global history.
        let mut p = PerceptronPredictor::paper_default();
        let mut wrong_late = 0;
        for i in 0..4000u64 {
            let a_outcome = i % 3 != 0;
            let guess_a = p.predict(0x2000);
            p.update(0x2000, a_outcome, guess_a);
            let guess_b = p.predict(0x2040);
            let b_outcome = a_outcome;
            if i > 1000 && guess_b != b_outcome {
                wrong_late += 1;
            }
            p.update(0x2040, b_outcome, guess_b);
        }
        assert!(
            wrong_late < 100,
            "correlated branch should be nearly perfectly predicted, got {wrong_late} errors"
        );
    }

    #[test]
    fn random_branches_hover_near_chance() {
        // A pseudo-random outcome stream cannot be predicted much better
        // than 50%; make sure the predictor does not diverge or crash.
        let mut p = PerceptronPredictor::paper_default();
        let mut state = 0x12345678u64;
        for _ in 0..4000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let taken = (state >> 62) & 1 == 1;
            let guess = p.predict(0x3000);
            p.update(0x3000, taken, guess);
        }
        let rate = p.mispredict_rate();
        assert!(
            rate > 0.3 && rate < 0.7,
            "random stream should be near chance, got {rate}"
        );
    }

    #[test]
    fn weights_saturate_instead_of_overflowing() {
        let mut p = PerceptronPredictor::new(16, 8);
        for _ in 0..100_000u64 {
            let guess = p.predict(0x4000);
            p.update(0x4000, true, guess);
        }
        // All weights stay within the i8-like clamp.
        for &v in &p.weights {
            assert!((-128..=127).contains(&v));
        }
    }

    #[test]
    fn max_abs_weight_of_a_weight_saturated_at_the_minimum_is_128() {
        let mut p = PerceptronPredictor::new(1, 1);
        // Not taken against a claimed taken prediction: every update trains
        // and walks the bias down one step.
        for _ in 0..200 {
            p.update(0x4000, false, true);
        }
        assert_eq!(p.weights[0], i8::MIN);
        assert_eq!(p.max_abs_weight(), 128);
    }

    #[test]
    #[should_panic(expected = "history_len")]
    fn zero_history_is_rejected() {
        let _ = PerceptronPredictor::new(16, 0);
    }

    #[test]
    fn table_size_rounds_to_power_of_two() {
        let p = PerceptronPredictor::new(100, 8);
        assert_eq!(p.table_size, 128);
        assert_eq!(p.weights.len(), 128 * 9, "flat row-major weight table");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `warm` leaves exactly the state `predict` + `update` leaves, on
        /// any table size (aliasing rows included), any history length up
        /// to the full 64 bits, and with a prediction for one of the pcs
        /// still pending when the warmed branches arrive.
        #[test]
        fn warm_matches_predict_then_update(
            table_size in 1usize..300,
            history_len in (0u32..4, 1usize..65).prop_map(|(pick, h)| if pick == 0 { 64 } else { h }),
            branches in proptest::collection::vec((0u64..48, any::<bool>()), 1..400),
            pending in (0usize..400, 0u64..48),
        ) {
            let pc = |slot: u64| 0x1000 + slot * 4;
            let mut warmed = PerceptronPredictor::new(table_size, history_len);
            let mut paired = warmed.clone();
            let (pending_at, pending_slot) = pending;
            for (i, &(slot, taken)) in branches.iter().enumerate() {
                if i == pending_at % branches.len() {
                    prop_assert_eq!(warmed.predict(pc(pending_slot)), paired.predict(pc(pending_slot)));
                }
                warmed.warm(pc(slot), taken);
                let predicted = paired.predict(pc(slot));
                paired.update(pc(slot), taken, predicted);
            }
            prop_assert_eq!(warmed.predictions(), paired.predictions());
            prop_assert_eq!(warmed.mispredictions(), paired.mispredictions());
            prop_assert_eq!(warmed.history, paired.history);
            prop_assert_eq!(&warmed.weights, &paired.weights);
            prop_assert_eq!(&warmed.last_outputs, &paired.last_outputs);
            for slot in 0..48 {
                prop_assert_eq!(warmed.predict(pc(slot)), paired.predict(pc(slot)), "next prediction at slot {}", slot);
            }
        }

        /// The 8-bit predictor is observationally identical to the `i32`
        /// reference on any interleaving of `predict`, `update` (with any
        /// claimed prediction, so training can be forced) and `warm`, any
        /// table size and any history length. Every stream starts by
        /// driving weights into both saturation bounds: forced taken
        /// updates push the bias and every weight to `WEIGHT_MAX`, then
        /// alternating outcomes push the weight of history bit 0 to
        /// `WEIGHT_MIN`.
        #[test]
        fn matches_the_i32_reference_model(
            table_size in 1usize..300,
            history_len in (0u32..4, 1usize..65).prop_map(|(pick, h)| if pick == 0 { 64 } else { h }),
            ops in proptest::collection::vec((0u8..3, 0u64..8, any::<bool>(), any::<bool>()), 1..400),
        ) {
            let pc = |slot: u64| 0x1000 + slot * 4;
            let mut fast = PerceptronPredictor::new(table_size, history_len);
            let mut reference = ReferencePerceptron::new(table_size, history_len);
            let saturate = |steps: u32, taken: fn(u32) -> bool| {
                (0..steps).flat_map(move |i| [(0, 0, false, false), (1, 0, taken(i), !taken(i))])
            };
            let prologue = saturate(300, |_| true).chain(saturate(400, |i| i % 2 == 0));
            let prologue_len = 2 * (300 + 400);
            let (mut reached_max, mut reached_min) = (false, false);
            for (i, (op, slot, taken, predicted)) in prologue.chain(ops.iter().copied()).enumerate() {
                match op {
                    0 => prop_assert_eq!(fast.predict(pc(slot)), reference.predict(pc(slot)), "op {}", i),
                    1 => {
                        fast.update(pc(slot), taken, predicted);
                        reference.update(pc(slot), taken, predicted);
                    }
                    _ => {
                        fast.warm(pc(slot), taken);
                        reference.warm(pc(slot), taken);
                    }
                }
                if i < prologue_len {
                    let row = reference.row(pc(0));
                    reached_max |= row.contains(&PerceptronPredictor::WEIGHT_MAX);
                    reached_min |= row.contains(&PerceptronPredictor::WEIGHT_MIN);
                }
            }
            prop_assert!(reached_max && reached_min, "the prologue saturates both ways");
            prop_assert_eq!(fast.predictions(), reference.stats.predictions);
            prop_assert_eq!(fast.mispredictions(), reference.stats.mispredictions);
            prop_assert_eq!(fast.history, reference.history);
            prop_assert_eq!(&fast.last_outputs, &reference.last_outputs);
            let widened: Vec<i32> = fast.weights.iter().map(|&w| i32::from(w)).collect();
            prop_assert_eq!(&widened, &reference.weights);
            prop_assert_eq!(fast.max_abs_weight(), reference.weights.iter().map(|w| w.abs()).max().unwrap());
        }
    }
}
