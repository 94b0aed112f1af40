//! The branch predictor of the D-KIP reproduction.
//!
//! The paper's Cache Processor uses a perceptron branch predictor
//! (Jiménez & Lin, HPCA 2001 — reference \[18\] of the paper), and every
//! machine of the reproduction builds exactly that predictor:
//! [`PerceptronPredictor`], held by value in each core. `predict` is called
//! at fetch with the branch PC, `update` at resolution with the actual
//! outcome, and `warm` trains it with a branch that is not simulated in
//! detail. `Clone` is its snapshot: a clone holds the full table, history
//! and counters, and predicts every future branch exactly as the original.
//!
//! # Example
//!
//! ```
//! use dkip_bpred::PerceptronPredictor;
//!
//! let mut pred = PerceptronPredictor::paper_default();
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

pub use perceptron::PerceptronPredictor;

/// Selects and constructs the branch predictor.
///
/// The perceptron of Table 2 is the only predictor any machine builds, so
/// this has a single variant; [`PredictorKind::build`] is equivalent to
/// [`PerceptronPredictor::paper_default`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// The perceptron predictor of Table 2.
    #[default]
    Perceptron,
}

impl PredictorKind {
    /// Builds the predictor with its default table sizes.
    #[must_use]
    pub fn build(self) -> PerceptronPredictor {
        match self {
            PredictorKind::Perceptron => PerceptronPredictor::paper_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_build_and_predict() {
        let mut pred = PredictorKind::Perceptron.build();
        assert_eq!(
            pred.history_len(),
            PerceptronPredictor::paper_default().history_len()
        );
        let _ = pred.predict(0x42);
        pred.update(0x42, true, false);
        assert_eq!(pred.predictions(), 1);
        assert_eq!(pred.mispredictions(), 1);
    }

    #[test]
    fn default_kind_is_perceptron() {
        assert_eq!(PredictorKind::default(), PredictorKind::Perceptron);
    }
}
