//! First-order Markov-chain predictor over quantized signal levels.

use crate::traits::Predictor;
use serde::{Deserialize, Serialize};

/// Learns a first-order Markov chain over `n` quantized levels of the
/// signal and predicts the expected next level's center value.
///
/// Unseen transitions fall back to a persistence forecast (the current
/// level's center). This is the classic stochastic driver model used by
/// stochastic-DP energy-management papers, packaged as an online
/// predictor.
///
/// # Examples
///
/// ```
/// use hev_predict::{MarkovChain, Predictor};
///
/// let mut p = MarkovChain::new(-10.0, 10.0, 8);
/// for x in [0.0, 5.0, 0.0, 5.0, 0.0] {
///     p.observe(x);
/// }
/// assert!(p.predict().is_finite());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarkovChain {
    min: f64,
    max: f64,
    n: usize,
    /// Transition counts, row-major `[from][to]`.
    counts: Vec<u32>,
    last_level: Option<usize>,
}

impl MarkovChain {
    /// Creates a predictor over `n` uniform levels spanning `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `min >= max`.
    pub fn new(min: f64, max: f64, n: usize) -> Self {
        assert!(n > 0, "need at least one level");
        assert!(min < max, "need min < max");
        Self {
            min,
            max,
            n,
            counts: vec![0; n * n],
            last_level: None,
        }
    }

    // The negated comparison is deliberate: it routes NaN to level 0.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn level_of(&self, x: f64) -> usize {
        if !(x > self.min) {
            return 0;
        }
        if x >= self.max {
            return self.n - 1;
        }
        (((x - self.min) / (self.max - self.min) * self.n as f64) as usize).min(self.n - 1)
    }

    fn center(&self, level: usize) -> f64 {
        let w = (self.max - self.min) / self.n as f64;
        self.min + (level as f64 + 0.5) * w
    }
}

impl Predictor for MarkovChain {
    fn observe(&mut self, measurement: f64) {
        let level = self.level_of(measurement);
        if let Some(prev) = self.last_level {
            self.counts[prev * self.n + level] += 1;
        }
        self.last_level = Some(level);
    }

    fn predict(&self) -> f64 {
        let Some(current) = self.last_level else {
            return 0.0;
        };
        let row = &self.counts[current * self.n..(current + 1) * self.n];
        let total: u32 = row.iter().sum();
        if total == 0 {
            return self.center(current); // persistence fallback
        }
        row.iter()
            .enumerate()
            .map(|(to, &c)| self.center(to) * c as f64 / total as f64)
            .sum()
    }

    fn reset(&mut self) {
        self.counts.fill(0);
        self.last_level = None;
    }

    fn name(&self) -> &'static str {
        "markov-chain"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unseen_state_predicts_persistence() {
        let mut p = MarkovChain::new(0.0, 10.0, 10);
        p.observe(4.2);
        // Level of 4.2 is bin 4 with center 4.5.
        assert!((p.predict() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn learns_deterministic_alternation() {
        let mut p = MarkovChain::new(0.0, 10.0, 10);
        for _ in 0..50 {
            p.observe(1.0);
            p.observe(9.0);
        }
        // Currently at the 9-level; next is always the 1-level (center 1.5).
        assert!((p.predict() - 1.5).abs() < 1e-9);
        p.observe(1.0);
        assert!((p.predict() - 9.5).abs() < 1e-9);
    }

    #[test]
    fn no_observation_predicts_zero() {
        assert_eq!(MarkovChain::new(0.0, 1.0, 2).predict(), 0.0);
    }

    #[test]
    fn reset_forgets_everything() {
        let mut p = MarkovChain::new(0.0, 10.0, 4);
        p.observe(1.0);
        p.observe(9.0);
        p.reset();
        assert_eq!(p.predict(), 0.0);
        // The 1.0 → 9.0 transition is forgotten: with no counts out of
        // level 0 the prediction falls back to its center.
        p.observe(1.0);
        assert!((p.predict() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn clamps_out_of_range() {
        let mut p = MarkovChain::new(0.0, 10.0, 5);
        p.observe(-100.0);
        p.observe(100.0);
        p.observe(-100.0);
        // Transition recorded from level 0 to level 4 (center 9.0).
        assert!((p.predict() - 9.0).abs() < 1e-9);
    }
}
