//! Exploration policies (the paper's exploration-versus-exploitation
//! strategy, §4.3.4).

use crate::qtable::argmax_where;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Selects an action from a Q-value row among the actions a feasibility
/// predicate accepts.
pub trait ExplorationPolicy {
    /// Picks an action index that `eligible` accepts; it must accept at
    /// least one. `eligible` may be asked about an action more than once
    /// and must answer the same each time. A greedy pick asks only about
    /// the actions ranked down to the winner ([`QTable::argmax`]); a
    /// uniform exploration draw asks about every action.
    ///
    /// [`QTable::argmax`]: crate::QTable::argmax
    fn select<R: Rng + ?Sized>(
        &self,
        q_row: &[f64],
        eligible: impl FnMut(usize) -> bool,
        rng: &mut R,
    ) -> usize;

    /// Hook called at the end of each training episode (e.g. to decay
    /// exploration). Default: no-op.
    fn end_episode(&mut self) {}
}

fn greedy(q_row: &[f64], eligible: impl FnMut(usize) -> bool) -> usize {
    // hevlint::allow(panic::expect, documented trait invariant: ExplorationPolicy::select requires at least one eligible action)
    argmax_where(q_row, eligible).expect("at least one action must be eligible")
}

fn random_eligible<R: Rng + ?Sized>(
    n_actions: usize,
    mut eligible: impl FnMut(usize) -> bool,
    rng: &mut R,
) -> usize {
    let n = (0..n_actions).filter(|&a| eligible(a)).count();
    assert!(n > 0, "at least one action must be eligible");
    let k = rng.gen_range(0..n);
    (0..n_actions)
        .filter(|&a| eligible(a))
        .nth(k)
        // hevlint::allow(panic::expect, the assert above counted n eligible actions and k < n, and eligible answers the same when asked again)
        .expect("counted eligible actions above")
}

/// Always exploits: picks the highest-valued eligible action.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Greedy;

impl ExplorationPolicy for Greedy {
    fn select<R: Rng + ?Sized>(
        &self,
        q_row: &[f64],
        eligible: impl FnMut(usize) -> bool,
        rng: &mut R,
    ) -> usize {
        let _ = rng;
        greedy(q_row, eligible)
    }
}

/// ε-greedy: the best action with probability `1 − ε`, otherwise a
/// uniformly random eligible action (the paper's §4.3.4 policy).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpsilonGreedy {
    epsilon: f64,
}

impl EpsilonGreedy {
    /// Creates the policy.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is outside `[0, 1]`.
    pub fn new(epsilon: f64) -> Self {
        assert!((0.0..=1.0).contains(&epsilon), "epsilon must be in [0, 1]");
        Self { epsilon }
    }

    /// The exploration probability.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl ExplorationPolicy for EpsilonGreedy {
    fn select<R: Rng + ?Sized>(
        &self,
        q_row: &[f64],
        eligible: impl FnMut(usize) -> bool,
        rng: &mut R,
    ) -> usize {
        if rng.gen::<f64>() < self.epsilon {
            random_eligible(q_row.len(), eligible, rng)
        } else {
            greedy(q_row, eligible)
        }
    }
}

/// ε-greedy with multiplicative per-episode decay down to a floor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecayingEpsilon {
    epsilon: f64,
    decay: f64,
    floor: f64,
}

impl DecayingEpsilon {
    /// Creates the policy starting at `epsilon0`, multiplying by `decay`
    /// after each episode, never dropping below `floor`.
    ///
    /// # Panics
    ///
    /// Panics if any argument is outside `[0, 1]` or `floor > epsilon0`.
    pub fn new(epsilon0: f64, decay: f64, floor: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&epsilon0),
            "epsilon0 must be in [0, 1]"
        );
        assert!((0.0..=1.0).contains(&decay), "decay must be in [0, 1]");
        assert!(
            (0.0..=epsilon0).contains(&floor),
            "floor must be in [0, epsilon0]"
        );
        Self {
            epsilon: epsilon0,
            decay,
            floor,
        }
    }

    /// The current exploration probability.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl ExplorationPolicy for DecayingEpsilon {
    fn select<R: Rng + ?Sized>(
        &self,
        q_row: &[f64],
        eligible: impl FnMut(usize) -> bool,
        rng: &mut R,
    ) -> usize {
        if rng.gen::<f64>() < self.epsilon {
            random_eligible(q_row.len(), eligible, rng)
        } else {
            greedy(q_row, eligible)
        }
    }

    fn end_episode(&mut self) {
        self.epsilon = (self.epsilon * self.decay).max(self.floor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn greedy_picks_best_eligible() {
        let q = [1.0, 5.0, 3.0];
        let mut r = rng();
        assert_eq!(Greedy.select(&q, |_| true, &mut r), 1);
        assert_eq!(Greedy.select(&q, |a| a != 1, &mut r), 2);
    }

    #[test]
    fn epsilon_zero_is_greedy() {
        let p = EpsilonGreedy::new(0.0);
        let q = [0.0, 2.0, 1.0];
        let mut r = rng();
        for _ in 0..50 {
            assert_eq!(p.select(&q, |_| true, &mut r), 1);
        }
    }

    #[test]
    fn epsilon_one_explores_all_eligible() {
        let p = EpsilonGreedy::new(1.0);
        let q = [0.0, 2.0, 1.0];
        let mut r = rng();
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[p.select(&q, |_| true, &mut r)] = true;
        }
        assert_eq!(seen, [true, true, true]);
    }

    #[test]
    fn exploration_never_selects_masked_actions() {
        let p = EpsilonGreedy::new(1.0);
        let q = [0.0, 2.0, 1.0, 4.0];
        let mask = [false, true, false, true];
        let mut r = rng();
        for _ in 0..200 {
            let a = p.select(&q, |a| mask[a], &mut r);
            assert!(mask[a]);
        }
    }

    #[test]
    fn decaying_epsilon_decays_to_floor() {
        let mut p = DecayingEpsilon::new(1.0, 0.5, 0.1);
        for _ in 0..10 {
            p.end_episode();
        }
        assert!((p.epsilon() - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "epsilon must be in [0, 1]")]
    fn epsilon_validated() {
        EpsilonGreedy::new(1.5);
    }
}
