//! A small multilayer perceptron trained online — the "artificial neural
//! network" alternative the paper mentions in §4.2.
//!
//! One hidden tanh layer, stochastic gradient descent on the squared
//! one-step prediction error, inputs = the last `k` measurements scaled
//! to `[-1, 1]`. Deliberately tiny: it must run inside the controller's
//! per-step loop.

use crate::traits::Predictor;
use serde::{Deserialize, Serialize};

/// Online MLP predictor.
///
/// # Examples
///
/// ```
/// use hev_predict::{MlpPredictor, Predictor};
///
/// let mut p = MlpPredictor::new(4, 8, 0.05, 1_000.0, 77);
/// for i in 0..200 {
///     p.observe(if i % 2 == 0 { 500.0 } else { -500.0 });
/// }
/// assert!(p.predict().abs() <= 1_000.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpPredictor {
    history_len: usize,
    hidden: usize,
    learning_rate: f64,
    /// Scale: inputs/outputs are divided by this to live near `[-1, 1]`.
    scale: f64,
    /// Input→hidden weights, row-major `[hidden][history_len + 1]` (last
    /// column is the bias).
    w1: Vec<f64>,
    /// Hidden→output weights `[hidden + 1]` (last is the bias).
    w2: Vec<f64>,
    history: Vec<f64>,
}

impl MlpPredictor {
    /// Creates a predictor reading the last `history_len` measurements
    /// through `hidden` tanh units. `scale` should be the expected signal
    /// magnitude; `seed` fixes the weight initialization.
    ///
    /// # Panics
    ///
    /// Panics if any size is zero or `learning_rate`/`scale` are not
    /// positive.
    pub fn new(
        history_len: usize,
        hidden: usize,
        learning_rate: f64,
        scale: f64,
        seed: u64,
    ) -> Self {
        assert!(history_len > 0 && hidden > 0, "sizes must be positive");
        assert!(learning_rate > 0.0, "learning rate must be positive");
        assert!(scale > 0.0, "scale must be positive");
        // Deterministic xorshift initialization in [-0.5, 0.5].
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let w1 = (0..hidden * (history_len + 1))
            .map(|_| next() * 0.8)
            .collect();
        let w2 = (0..hidden + 1).map(|_| next() * 0.8).collect();
        Self {
            history_len,
            hidden,
            learning_rate,
            scale,
            w1,
            w2,
            history: Vec::with_capacity(history_len),
        }
    }

    fn inputs(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.history_len];
        for (i, &h) in self.history.iter().rev().enumerate() {
            if i >= self.history_len {
                break;
            }
            x[i] = (h / self.scale).clamp(-3.0, 3.0);
        }
        x
    }

    fn forward(&self, x: &[f64]) -> (Vec<f64>, f64) {
        let mut hidden_out = Vec::with_capacity(self.hidden);
        for h in 0..self.hidden {
            let row = &self.w1[h * (self.history_len + 1)..(h + 1) * (self.history_len + 1)];
            let mut z = row[self.history_len]; // bias
            for (xi, wi) in x.iter().zip(row) {
                z += xi * wi;
            }
            hidden_out.push(z.tanh());
        }
        let mut y = self.w2[self.hidden]; // bias
        for (hi, wi) in hidden_out.iter().zip(&self.w2) {
            y += hi * wi;
        }
        (hidden_out, y)
    }

    // Index-based loops keep the three parallel weight slices in sync.
    #[allow(clippy::needless_range_loop)]
    fn train_step(&mut self, target_scaled: f64) {
        let x = self.inputs();
        let (hidden_out, y) = self.forward(&x);
        let err = y - target_scaled;
        // Output layer.
        let lr = self.learning_rate;
        for h in 0..self.hidden {
            let grad_w2 = err * hidden_out[h];
            // Hidden layer, through tanh'(z) = 1 − tanh².
            let dh = err * self.w2[h] * (1.0 - hidden_out[h] * hidden_out[h]);
            let row = &mut self.w1[h * (self.history_len + 1)..(h + 1) * (self.history_len + 1)];
            for (xi, wi) in x.iter().zip(row.iter_mut()) {
                *wi -= lr * dh * xi;
            }
            row[self.history_len] -= lr * dh;
            self.w2[h] -= lr * grad_w2;
        }
        self.w2[self.hidden] -= lr * err;
    }
}

impl Predictor for MlpPredictor {
    fn observe(&mut self, measurement: f64) {
        if self.history.len() >= self.history_len {
            // Train on the transition (previous history → this value).
            self.train_step((measurement / self.scale).clamp(-3.0, 3.0));
        }
        self.history.push(measurement);
        let keep = self.history_len;
        if self.history.len() > keep {
            self.history.remove(0);
        }
    }

    fn predict(&self) -> f64 {
        if self.history.is_empty() {
            return 0.0;
        }
        let (_, y) = self.forward(&self.inputs());
        (y * self.scale).clamp(-10.0 * self.scale, 10.0 * self.scale)
    }

    fn reset(&mut self) {
        self.history.clear();
    }

    fn name(&self) -> &'static str {
        "mlp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::mean_squared_error;

    #[test]
    fn initialization_is_deterministic() {
        let a = MlpPredictor::new(3, 4, 0.05, 1.0, 9);
        let b = MlpPredictor::new(3, 4, 0.05, 1.0, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn learns_constant_signal() {
        let mut p = MlpPredictor::new(3, 6, 0.1, 1.0, 1);
        for _ in 0..500 {
            p.observe(0.8);
        }
        assert!((p.predict() - 0.8).abs() < 0.1, "got {}", p.predict());
    }

    #[test]
    fn learns_alternating_signal_better_than_mean() {
        let mut p = MlpPredictor::new(4, 8, 0.08, 1.0, 2);
        let signal: Vec<f64> = (0..400)
            .map(|i| if i % 2 == 0 { 0.9 } else { -0.9 })
            .collect();
        for &x in &signal[..300] {
            p.observe(x);
        }
        // After training, its one-step error on the tail should beat a
        // mean predictor (which would have MSE ≈ 0.81).
        let mut correct = 0;
        for w in signal[300..].windows(2) {
            let pred = p.predict();
            if (pred > 0.0) == (w[1] > 0.0) {
                correct += 1;
            }
            p.observe(w[1]);
        }
        assert!(correct > 80, "only {correct}/99 correct signs");
    }

    #[test]
    fn prediction_is_bounded() {
        let mut p = MlpPredictor::new(3, 4, 0.5, 1.0, 3);
        for i in 0..100 {
            p.observe((i as f64).sin() * 5.0);
        }
        assert!(p.predict().abs() <= 10.0);
    }

    #[test]
    fn empty_history_predicts_zero() {
        assert_eq!(MlpPredictor::new(3, 4, 0.1, 1.0, 4).predict(), 0.0);
    }

    #[test]
    fn reset_clears_history_but_keeps_weights() {
        let mut p = MlpPredictor::new(3, 4, 0.1, 1.0, 5);
        for _ in 0..50 {
            p.observe(0.5);
        }
        let w = p.w2.clone();
        p.reset();
        assert_eq!(p.predict(), 0.0);
        assert_eq!(p.w2, w);
    }

    #[test]
    fn beats_naive_zero_on_smooth_signal() {
        let signal: Vec<f64> = (0..300).map(|i| (i as f64 * 0.2).sin()).collect();
        let mut p = MlpPredictor::new(4, 8, 0.05, 1.0, 6);
        // Pre-train on the signal once.
        for &x in &signal {
            p.observe(x);
        }
        let mse = mean_squared_error(&mut p, &signal);
        // Signal variance is 0.5; the trained net should do better.
        assert!(mse < 0.5, "mse {mse}");
    }
}
