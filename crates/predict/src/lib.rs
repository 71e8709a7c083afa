//! Online predictors of driving-profile characteristics (paper §4.2).
//!
//! The DAC'15 controller feeds a one-step-ahead prediction of the
//! propulsion power demand into the RL state. The paper adopts the
//! exponential weighting function (Eq. 12) — [`Ewma`] here — and notes
//! that "other methods such as artificial neural network (ANN) can also
//! be utilized"; this crate additionally provides a windowed
//! [`MovingAverage`], a quantized [`MarkovChain`], and a small online
//! [`MlpPredictor`], all behind the [`Predictor`] trait so they can be
//! swapped in the controller for the predictor ablation.
//!
//! # Examples
//!
//! ```
//! use hev_predict::{Ewma, Predictor};
//!
//! let mut predictor = Ewma::new(0.3);
//! for power_demand in [1_000.0, 2_000.0, 1_500.0] {
//!     predictor.observe(power_demand);
//! }
//! println!("next demand ≈ {:.0} W", predictor.predict());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ewma;
pub mod markov;
pub mod mlp;
pub mod moving_average;
pub mod traits;

pub use ewma::Ewma;
pub use markov::MarkovChain;
pub use mlp::MlpPredictor;
pub use moving_average::MovingAverage;
pub use traits::{mean_squared_error, Predictor};
