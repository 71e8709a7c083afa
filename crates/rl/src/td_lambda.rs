//! The TD(λ)-learning algorithm of the paper (§4.3.4, Algorithm 1).
//!
//! A Q value is associated with each state-action pair; after each
//! transition the temporal-difference error
//! `δ = r + γ·max_a' Q(s', a') − Q(s, a)` is propagated to the `M` most
//! recently visited pairs in proportion to their eligibility.

use crate::policy::ExplorationPolicy;
use crate::qtable::QTable;
use crate::traces::EligibilityTraces;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// `M`: number of most recent state-action pairs kept eligible.
const TRACE_CAPACITY: usize = 30;

/// Hyper-parameters of [`TdLambda`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TdLambdaConfig {
    /// Learning rate `α`.
    pub alpha: f64,
    /// Discount rate `γ` (Eq. 11).
    pub gamma: f64,
    /// Trace-decay parameter `λ`.
    pub lambda: f64,
    /// Initial Q value for all pairs ("initialize arbitrarily", line 1);
    /// slightly optimistic values encourage early exploration.
    pub q_init: f64,
}

impl TdLambdaConfig {
    /// Validates the hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics if `alpha ∉ (0, 1]`, `gamma ∉ (0, 1)` or `lambda ∉ [0, 1]`.
    fn validate(&self) {
        assert!(
            self.alpha > 0.0 && self.alpha <= 1.0,
            "alpha must be in (0, 1]"
        );
        assert!(
            self.gamma > 0.0 && self.gamma < 1.0,
            "gamma must be in (0, 1)"
        );
        assert!(
            (0.0..=1.0).contains(&self.lambda),
            "lambda must be in [0, 1]"
        );
    }
}

impl Default for TdLambdaConfig {
    fn default() -> Self {
        Self {
            alpha: 0.10,
            gamma: 0.96,
            lambda: 0.70,
            q_init: 0.0,
        }
    }
}

/// TD(λ) learner over a dense Q-table.
///
/// # Examples
///
/// ```
/// use hev_rl::{EpsilonGreedy, TdLambda, TdLambdaConfig};
/// use rand::SeedableRng;
///
/// let mut learner = TdLambda::new(4, 2, TdLambdaConfig::default());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let policy = EpsilonGreedy::new(0.1);
/// let a = learner.select(0, |_| true, &policy, &mut rng);
/// learner.update(0, a, 1.0, 1, |_| true);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TdLambda {
    q: QTable,
    traces: EligibilityTraces,
    config: TdLambdaConfig,
}

impl TdLambda {
    /// Creates a learner for the given table dimensions.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are zero or the configuration is invalid
    /// (see [`TdLambdaConfig`]).
    pub fn new(n_states: usize, n_actions: usize, config: TdLambdaConfig) -> Self {
        config.validate();
        Self {
            q: QTable::new(n_states, n_actions, config.q_init),
            traces: EligibilityTraces::new(TRACE_CAPACITY),
            config,
        }
    }

    /// The learner's Q-table.
    pub fn q(&self) -> &QTable {
        &self.q
    }

    /// The hyper-parameters.
    pub fn config(&self) -> &TdLambdaConfig {
        &self.config
    }

    /// Selects an action for state `s` under the exploration policy,
    /// among the actions `feasible` accepts (Algorithm 1, line 3; see
    /// [`ExplorationPolicy::select`] for how often it is asked).
    pub fn select<P: ExplorationPolicy, R: Rng + ?Sized>(
        &self,
        s: usize,
        feasible: impl FnMut(usize) -> bool,
        policy: &P,
        rng: &mut R,
    ) -> usize {
        policy.select(self.q.row(s), feasible, rng)
    }

    /// The greedy action for state `s` among the actions `feasible`
    /// accepts, or `None` when it accepts none (see [`QTable::argmax`]).
    pub fn greedy(&self, s: usize, feasible: impl FnMut(usize) -> bool) -> Option<usize> {
        self.q.argmax(s, feasible)
    }

    /// The greedy action among the feasible actions actually visited
    /// during training, or `None` for a state with no visited feasible
    /// action. With pessimistic true values (all rewards negative) and
    /// zero initialization, unvisited entries look spuriously attractive;
    /// greedy evaluation uses this to avoid them. `feasible` is asked only
    /// about visited actions.
    pub fn greedy_visited(
        &self,
        s: usize,
        mut feasible: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        self.q
            .argmax(s, |a| self.q.visit_count(s, a) > 0 && feasible(a))
    }

    /// Performs the TD(λ) update for the observed transition
    /// `(s, a) → (r, s')` (Algorithm 1, lines 5–10).
    ///
    /// The bootstrap `max_a' Q(s', a')` runs over the next state's actions
    /// that `next_feasible` accepts (`|_| true` considers all); it is
    /// [`TdLambda::greedy`]'s action, so `next_feasible` is asked only
    /// about the actions ranked down to it. Returns the TD error `δ`, or
    /// `None`, updating nothing, when `next_feasible` accepts no action.
    pub fn update(
        &mut self,
        s: usize,
        a: usize,
        reward: f64,
        s_next: usize,
        next_feasible: impl FnMut(usize) -> bool,
    ) -> Option<f64> {
        let best = self.greedy(s_next, next_feasible)?;
        let bootstrap = self.q.get(s_next, best);
        let delta = reward + self.config.gamma * bootstrap - self.q.get(s, a);
        self.traces.visit(s, a);
        self.q.visit(s, a);
        for (ts, ta, e) in self.traces.iter() {
            self.q.add(ts, ta, self.config.alpha * e * delta);
        }
        self.traces.decay(self.config.gamma * self.config.lambda);
        Some(delta)
    }

    /// Clears eligibility traces (between episodes).
    pub fn end_episode(&mut self) {
        self.traces.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{EpsilonGreedy, Greedy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> TdLambdaConfig {
        TdLambdaConfig {
            alpha: 0.5,
            gamma: 0.9,
            lambda: 0.5,
            ..TdLambdaConfig::default()
        }
    }

    #[test]
    fn single_update_moves_toward_target() {
        let mut l = TdLambda::new(3, 2, cfg());
        let delta = l.update(0, 1, 10.0, 1, |_| true).unwrap();
        assert!((delta - 10.0).abs() < 1e-12);
        assert!((l.q().get(0, 1) - 5.0).abs() < 1e-12); // α·δ
    }

    #[test]
    fn traces_propagate_to_earlier_pairs() {
        let mut l = TdLambda::new(4, 1, cfg());
        l.update(0, 0, 0.0, 1, |_| true);
        l.update(1, 0, 0.0, 2, |_| true);
        // Big reward on the third step: earlier pairs get trace-weighted
        // credit.
        l.update(2, 0, 10.0, 3, |_| true);
        let q2 = l.q().get(2, 0);
        let q1 = l.q().get(1, 0);
        let q0 = l.q().get(0, 0);
        assert!(q2 > q1 && q1 > q0, "q0={q0} q1={q1} q2={q2}");
        assert!(q0 > 0.0);
    }

    #[test]
    fn lambda_zero_is_one_step() {
        let mut l = TdLambda::new(
            4,
            1,
            TdLambdaConfig {
                lambda: 0.0,
                ..cfg()
            },
        );
        l.update(0, 0, 0.0, 1, |_| true);
        l.update(1, 0, 10.0, 2, |_| true);
        // With λ = 0 the reward at step 2 must not leak *via traces* to
        // state 0 (only via the bootstrap, which is 0 here because state 1
        // still had Q = 0 when state 0 updated).
        assert_eq!(l.q().get(0, 0), 0.0);
    }

    #[test]
    fn bootstrap_respects_next_mask() {
        let mut l = TdLambda::new(2, 2, cfg());
        l.q.set(1, 0, 100.0);
        l.q.set(1, 1, 1.0);
        // Masking out action 0 of the next state: bootstrap uses 1.0.
        let delta = l.update(0, 0, 0.0, 1, |a| a == 1).unwrap();
        assert!((delta - 0.9).abs() < 1e-12);
        assert_eq!(l.update(0, 0, 0.0, 1, |_| false), None);
    }

    #[test]
    fn end_episode_clears_traces() {
        let mut l = TdLambda::new(3, 1, cfg());
        l.update(0, 0, 0.0, 1, |_| true);
        l.end_episode();
        l.update(1, 0, 10.0, 2, |_| true);
        // No trace-based credit to state 0 after the episode boundary.
        assert_eq!(l.q().get(0, 0), 0.0);
    }

    #[test]
    fn learns_simple_chain() {
        // Chain: 0 → 1 → 2(terminal-ish, reward 1 on entering), loop back.
        let mut l = TdLambda::new(
            3,
            2,
            TdLambdaConfig {
                alpha: 0.2,
                ..cfg()
            },
        );
        let policy = EpsilonGreedy::new(0.2);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..300 {
            let mut s = 0usize;
            for _ in 0..6 {
                let a = l.select(s, |_| true, &policy, &mut rng);
                // Action 1 advances, action 0 stays. Reward on reaching 2.
                let s_next = if a == 1 { (s + 1).min(2) } else { s };
                let r = if s_next == 2 && s != 2 { 1.0 } else { 0.0 };
                l.update(s, a, r, s_next, |_| true);
                s = s_next;
            }
            l.end_episode();
        }
        // Greedy policy advances from both pre-terminal states.
        let g = Greedy;
        let mut rng2 = StdRng::seed_from_u64(8);
        assert_eq!(g.select(l.q().row(0), |_| true, &mut rng2), 1);
        assert_eq!(g.select(l.q().row(1), |_| true, &mut rng2), 1);
    }

    #[test]
    fn q_init_is_applied() {
        let l = TdLambda::new(
            2,
            2,
            TdLambdaConfig {
                q_init: 3.5,
                ..cfg()
            },
        );
        assert_eq!(l.q().get(1, 1), 3.5);
    }

    #[test]
    #[should_panic(expected = "gamma must be in (0, 1)")]
    fn config_validated() {
        TdLambda::new(
            2,
            2,
            TdLambdaConfig {
                gamma: 1.0,
                ..cfg()
            },
        );
    }
}
