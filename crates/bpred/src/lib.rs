//! Branch predictors for the D-KIP reproduction.
//!
//! The paper's Cache Processor uses a perceptron branch predictor
//! (Jiménez & Lin, HPCA 2001 — reference \[18\] of the paper). This crate
//! implements that predictor along with simpler classical predictors used
//! for comparison and testing:
//!
//! * [`perceptron::PerceptronPredictor`] — the default predictor of Table 2,
//! * [`twolevel::GsharePredictor`] — global-history XOR-indexed two-bit
//!   counters,
//! * [`twolevel::BimodalPredictor`] — per-PC two-bit counters,
//! * [`simple::AlwaysTaken`] / [`simple::StaticNotTaken`] — degenerate
//!   predictors used as lower bounds and in unit tests,
//! * [`PredictorKind`] — a configuration enum from which any of the above
//!   can be built.
//!
//! All predictors implement the [`BranchPredictor`] trait: `predict` is
//! called at fetch with the branch PC, `update` is called at resolution with
//! the actual outcome.
//!
//! # Example
//!
//! ```
//! use dkip_bpred::{BranchPredictor, PredictorKind};
//!
//! let mut pred = PredictorKind::Perceptron.build();
//! // A loop branch that is taken 9 times out of 10 becomes predictable.
//! let mut correct = 0;
//! for i in 0..1000u64 {
//!     let taken = i % 10 != 9;
//!     let guess = pred.predict(0x4000);
//!     if guess == taken {
//!         correct += 1;
//!     }
//!     pred.update(0x4000, taken, guess);
//! }
//! assert!(correct > 800);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod perceptron;
pub mod simple;
pub mod twolevel;

pub use perceptron::PerceptronPredictor;
pub use simple::{AlwaysTaken, StaticNotTaken};
pub use twolevel::{BimodalPredictor, GsharePredictor};

/// A dynamic branch-direction predictor.
///
/// The contract mirrors how the cores use predictors: `predict` is consulted
/// at fetch time and must not observe the true outcome; `update` is called
/// exactly once per dynamic conditional branch when it resolves, with both
/// the true outcome and the prediction that was made at fetch.
pub trait BranchPredictor: std::fmt::Debug {
    /// Predicts the direction of the conditional branch at `pc`
    /// (`true` = taken).
    fn predict(&mut self, pc: u64) -> bool;

    /// Deep-copies the predictor behind the trait object.
    ///
    /// This is the predictor's snapshot mechanism: the returned box holds
    /// the full table/history/counter state, so a core checkpoint can
    /// clone its predictor and a restored core resumes with bit-identical
    /// predictions. `impl Clone for Box<dyn BranchPredictor>` forwards
    /// here, which is what lets the cores simply `#[derive(Clone)]`.
    fn clone_box(&self) -> Box<dyn BranchPredictor>;

    /// Trains the predictor with the resolved outcome of the branch at
    /// `pc`. `predicted` is the direction returned by the matching
    /// [`predict`](Self::predict) call.
    fn update(&mut self, pc: u64, taken: bool, predicted: bool);

    /// Trains the predictor with a branch that is not being simulated in
    /// detail: the in-order [`predict`](Self::predict) +
    /// [`update`](Self::update) pair, as one call. Functional warming
    /// (sampled simulation's fast-forward) trains through this; a
    /// predictor may override it with a cheaper path that leaves exactly
    /// the same state.
    fn warm(&mut self, pc: u64, taken: bool) {
        let predicted = self.predict(pc);
        self.update(pc, taken, predicted);
    }

    /// Number of predictions made so far.
    fn predictions(&self) -> u64;

    /// Number of mispredictions observed so far (filled in by `update`).
    fn mispredictions(&self) -> u64;

    /// Misprediction rate (0.0 if no branches have been predicted).
    fn mispredict_rate(&self) -> f64 {
        if self.predictions() == 0 {
            0.0
        } else {
            self.mispredictions() as f64 / self.predictions() as f64
        }
    }
}

impl Clone for Box<dyn BranchPredictor> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Selects and constructs a branch predictor implementation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// The perceptron predictor of Table 2 (default).
    #[default]
    Perceptron,
    /// A gshare predictor with 14 bits of global history.
    Gshare,
    /// A per-PC two-bit counter table.
    Bimodal,
    /// Statically predict taken.
    AlwaysTaken,
    /// Statically predict not taken.
    NotTaken,
}

impl PredictorKind {
    /// Builds the predictor with its default table sizes.
    #[must_use]
    pub fn build(self) -> Box<dyn BranchPredictor> {
        match self {
            PredictorKind::Perceptron => Box::new(PerceptronPredictor::paper_default()),
            PredictorKind::Gshare => Box::new(GsharePredictor::new(14)),
            PredictorKind::Bimodal => Box::new(BimodalPredictor::new(14)),
            PredictorKind::AlwaysTaken => Box::new(AlwaysTaken::new()),
            PredictorKind::NotTaken => Box::new(StaticNotTaken::new()),
        }
    }
}

/// Shared bookkeeping for prediction/misprediction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PredStats {
    pub predictions: u64,
    pub mispredictions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train_alternating(pred: &mut dyn BranchPredictor, iters: u64) -> f64 {
        for i in 0..iters {
            let taken = i % 2 == 0;
            let guess = pred.predict(0x100);
            pred.update(0x100, taken, guess);
        }
        pred.mispredict_rate()
    }

    #[test]
    fn all_kinds_build_and_predict() {
        for kind in [
            PredictorKind::Perceptron,
            PredictorKind::Gshare,
            PredictorKind::Bimodal,
            PredictorKind::AlwaysTaken,
            PredictorKind::NotTaken,
        ] {
            let mut pred = kind.build();
            let _ = pred.predict(0x42);
            pred.update(0x42, true, false);
            assert_eq!(pred.predictions(), 1);
            assert_eq!(pred.mispredictions(), 1);
        }
    }

    #[test]
    fn history_predictors_learn_alternating_patterns() {
        // gshare and perceptron can learn a strict alternation via global
        // history; bimodal cannot do better than ~50%.
        let mut perceptron = PredictorKind::Perceptron.build();
        let rate = train_alternating(perceptron.as_mut(), 2000);
        assert!(
            rate < 0.2,
            "perceptron should learn alternation, rate={rate}"
        );

        let mut gshare = PredictorKind::Gshare.build();
        let rate = train_alternating(gshare.as_mut(), 2000);
        assert!(rate < 0.2, "gshare should learn alternation, rate={rate}");
    }

    #[test]
    fn default_kind_is_perceptron() {
        assert_eq!(PredictorKind::default(), PredictorKind::Perceptron);
    }

    #[test]
    fn mispredict_rate_handles_zero_predictions() {
        let pred = AlwaysTaken::new();
        assert_eq!(pred.mispredict_rate(), 0.0);
    }

    #[test]
    fn cloned_boxes_are_independent_bit_identical_snapshots() {
        for kind in [
            PredictorKind::Perceptron,
            PredictorKind::Gshare,
            PredictorKind::Bimodal,
            PredictorKind::AlwaysTaken,
            PredictorKind::NotTaken,
        ] {
            let mut pred = kind.build();
            for i in 0..500u64 {
                let pc = 0x1000 + (i % 7) * 16;
                let taken = (i / 3) % 2 == 0;
                let guess = pred.predict(pc);
                pred.update(pc, taken, guess);
            }
            let mut snap = pred.clone();
            // The snapshot replays the future identically...
            for i in 0..500u64 {
                let pc = 0x1000 + (i % 7) * 16;
                let taken = (i / 5) % 2 == 0;
                let a = pred.predict(pc);
                let b = snap.predict(pc);
                assert_eq!(a, b, "{kind:?}: snapshot diverged");
                pred.update(pc, taken, a);
                snap.update(pc, taken, b);
            }
            assert_eq!(pred.predictions(), snap.predictions());
            assert_eq!(pred.mispredictions(), snap.mispredictions());
            // ...and is independent: training only the snapshot leaves the
            // original's counters untouched.
            let before = pred.predictions();
            let g = snap.predict(0x9999);
            snap.update(0x9999, true, g);
            assert_eq!(pred.predictions(), before);
        }
    }
}
