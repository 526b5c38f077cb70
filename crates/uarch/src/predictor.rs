//! The branch history table: 2K entries of 2-bit saturating counters,
//! indexed by the branch PC (the paper's per-thread BHT).

use serde::{Deserialize, Serialize};

/// Prediction accuracy counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictorStats {
    /// Number of conditional branches predicted.
    pub predictions: u64,
    /// Number of those predictions that were wrong.
    pub mispredictions: u64,
}

/// A table of 2-bit saturating counters indexed by the low bits of the
/// branch PC (instruction-granular: the PC is divided by 4 first).
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    counters: Vec<u8>,
    stats: PredictorStats,
}

impl BranchPredictor {
    /// Creates a predictor with `entries` 2-bit counters, initialised to
    /// weakly taken (2).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "predictor must have at least one entry");
        BranchPredictor {
            counters: vec![2; entries],
            stats: PredictorStats::default(),
        }
    }

    /// The paper's configuration: 2K entries × 2 bits.
    #[must_use]
    pub fn paper_default() -> Self {
        BranchPredictor::new(2048)
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) % self.counters.len()
    }

    /// Predicts whether the branch at `pc` is taken, without updating state.
    fn predict(&self, pc: u64) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    /// Updates the counter for `pc` with the actual outcome.
    fn update(&mut self, pc: u64, taken: bool) {
        let idx = self.index(pc);
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Predicts, compares with the actual outcome, updates the counter, and
    /// records accuracy statistics. Returns `true` when the prediction was
    /// correct.
    pub fn predict_and_train(&mut self, pc: u64, taken: bool) -> bool {
        let predicted = self.predict(pc);
        self.update(pc, taken);
        self.stats.predictions += 1;
        let correct = predicted == taken;
        if !correct {
            self.stats.mispredictions += 1;
        }
        correct
    }

    /// Accuracy counters accumulated by [`BranchPredictor::predict_and_train`].
    #[must_use]
    pub fn stats(&self) -> PredictorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_size() {
        assert_eq!(BranchPredictor::paper_default().counters.len(), 2048);
    }

    #[test]
    fn initially_predicts_taken() {
        let p = BranchPredictor::new(16);
        assert!(p.predict(0x100));
    }

    #[test]
    fn learns_always_taken() {
        let mut p = BranchPredictor::new(16);
        for _ in 0..100 {
            p.predict_and_train(0x40, true);
        }
        assert!(p.predict(0x40));
        assert_eq!(p.stats().predictions, 100);
        assert!(p.stats().mispredictions < 5);
    }

    #[test]
    fn learns_always_not_taken() {
        let mut p = BranchPredictor::new(16);
        for _ in 0..100 {
            p.predict_and_train(0x40, false);
        }
        assert!(!p.predict(0x40));
        // Only the first couple of predictions are wrong.
        assert!(p.stats().mispredictions <= 2);
    }

    #[test]
    fn hysteresis_of_two_bit_counter() {
        let mut p = BranchPredictor::new(16);
        for _ in 0..10 {
            p.update(0x40, true);
        }
        // One not-taken outcome does not flip a strongly-taken counter.
        p.update(0x40, false);
        assert!(p.predict(0x40));
        p.update(0x40, false);
        assert!(!p.predict(0x40));
    }

    #[test]
    fn alternating_pattern_has_poor_accuracy() {
        let mut p = BranchPredictor::new(16);
        let mut taken = false;
        for _ in 0..1000 {
            p.predict_and_train(0x40, taken);
            taken = !taken;
        }
        assert_eq!(p.stats().predictions, 1000);
        assert!(p.stats().mispredictions > 300);
    }

    #[test]
    fn distinct_pcs_use_distinct_counters() {
        let mut p = BranchPredictor::new(1024);
        for _ in 0..10 {
            p.predict_and_train(0x100, true);
            p.predict_and_train(0x104, false);
        }
        assert!(p.predict(0x100));
        assert!(!p.predict(0x104));
    }

    #[test]
    fn aliasing_wraps_around_table() {
        let mut p = BranchPredictor::new(4);
        // PCs 0x0 and 0x10 (>>2 = 0 and 4) alias in a 4-entry table.
        for _ in 0..10 {
            p.update(0x0, false);
        }
        assert!(!p.predict(0x10));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_panics() {
        let _ = BranchPredictor::new(0);
    }
}
