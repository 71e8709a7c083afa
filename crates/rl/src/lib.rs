//! Tabular reinforcement learning for the HEV joint-control problem.
//!
//! This crate provides the RL machinery the DAC'15 controller is built
//! on:
//!
//! * [`UniformGrid`], [`ProductSpace`] — state/action discretization
//!   (Eq. 13–15 of the paper);
//! * [`QTable`] — dense action-value storage with visit counting;
//! * [`EligibilityTraces`] — the paper's bounded list of the `M` most
//!   recent state-action pairs (§4.3.4);
//! * [`TdLambda`] — Algorithm 1, the TD(λ)-learning update;
//! * [`Greedy`], [`EpsilonGreedy`], [`DecayingEpsilon`] —
//!   exploration-versus-exploitation policies.
//!
//! # Examples
//!
//! ```
//! use hev_rl::{EpsilonGreedy, TdLambda, TdLambdaConfig};
//! use rand::SeedableRng;
//!
//! let mut agent = TdLambda::new(100, 5, TdLambdaConfig::default());
//! let policy = EpsilonGreedy::new(0.1);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mask = [true; 5];
//! let mut state = 0;
//! for step in 0..50 {
//!     let action = agent.select(state, &mask, &policy, &mut rng);
//!     let (reward, next) = ((action == 2) as u8 as f64, (state + 1) % 100);
//!     agent.update(state, action, reward, next, Some(&mask));
//!     state = next;
//!     let _ = step;
//! }
//! agent.end_episode();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod discretize;
pub mod policy;
pub mod qtable;
pub mod stats;
pub mod td_lambda;
pub mod traces;

pub use discretize::{ProductSpace, UniformGrid};
pub use policy::{DecayingEpsilon, EpsilonGreedy, ExplorationPolicy, Greedy};
pub use qtable::QTable;
pub use stats::{QStats, TdStats, TD_ABS_DELTA_BOUNDS};
pub use td_lambda::{TdLambda, TdLambdaConfig};
pub use traces::EligibilityTraces;
