//! Property-based tests of the RL toolkit's invariants.

use hev_rl::{
    EligibilityTraces, EpsilonGreedy, ExplorationPolicy, ProductSpace, QTable, TdLambda,
    TdLambdaConfig, UniformGrid,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// Every input maps to a valid bin, and bin centers map to their own
    /// bin.
    #[test]
    fn uniform_grid_total_and_consistent(
        min in -1e6f64..1e6,
        width in 1e-3f64..1e6,
        n in 1usize..200,
        x in -1e7f64..1e7,
    ) {
        let g = UniformGrid::new(min, min + width, n);
        prop_assert!(g.index(x) < n);
        for i in 0..n {
            prop_assert_eq!(g.index(g.center(i)), i);
        }
    }

    /// Bin index is monotone in the input.
    #[test]
    fn uniform_grid_monotone(
        a in -1e6f64..1e6,
        b in -1e6f64..1e6,
        n in 1usize..100,
    ) {
        let g = UniformGrid::new(-1e6, 1e6, n);
        if a <= b {
            prop_assert!(g.index(a) <= g.index(b));
        } else {
            prop_assert!(g.index(a) >= g.index(b));
        }
    }

    /// Flatten/unflatten is a bijection.
    #[test]
    fn product_space_bijection(dims in proptest::collection::vec(1usize..6, 1..5)) {
        let space = ProductSpace::new(dims);
        for flat in 0..space.len() {
            prop_assert_eq!(space.flatten(&space.unflatten(flat)), flat);
        }
    }

    /// Trace decay never increases eligibility, and the list never
    /// exceeds its capacity.
    #[test]
    fn traces_bounded(
        visits in proptest::collection::vec((0usize..30, 0usize..4), 1..60),
        factor in 0.1f64..0.99,
        cap in 1usize..20,
    ) {
        let mut t = EligibilityTraces::new(cap);
        let mut last_max = f64::INFINITY;
        for (s, a) in visits {
            t.visit(s, a);
            prop_assert!(t.len() <= cap);
            let max_e = t.iter().map(|(_, _, e)| e).fold(0.0, f64::max);
            t.decay(factor);
            let max_after = t.iter().map(|(_, _, e)| e).fold(0.0, f64::max);
            prop_assert!(max_after <= max_e + 1e-12);
            last_max = max_after.min(last_max);
        }
    }

    /// Q-table argmax always returns an eligible action.
    #[test]
    fn argmax_respects_mask(
        values in proptest::collection::vec(-100.0f64..100.0, 5),
        mask_bits in 1u8..31,
    ) {
        let mut q = QTable::new(1, 5, 0.0);
        for (a, &v) in values.iter().enumerate() {
            q.set(0, a, v);
        }
        let mask: Vec<bool> = (0..5).map(|a| mask_bits & (1 << a) != 0).collect();
        let chosen = q.argmax(0, Some(&mask));
        prop_assert!(mask[chosen]);
        // And it is maximal among eligible actions.
        for (a, &ok) in mask.iter().enumerate() {
            if ok {
                prop_assert!(values[chosen] >= values[a]);
            }
        }
    }

    /// ε-greedy never selects a masked action, for any ε.
    #[test]
    fn epsilon_greedy_respects_mask(
        eps in 0.0f64..1.0,
        mask_bits in 1u8..15,
        seed in 0u64..1000,
    ) {
        let policy = EpsilonGreedy::new(eps);
        let q_row = [1.0, -2.0, 3.0, 0.5];
        let mask: Vec<bool> = (0..4).map(|a| mask_bits & (1 << a) != 0).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            prop_assert!(mask[policy.select(&q_row, &mask, &mut rng)]);
        }
    }

    /// TD(λ) with zero reward everywhere keeps Q at its initialization.
    #[test]
    fn td_lambda_zero_rewards_are_fixed_point(
        transitions in proptest::collection::vec((0usize..10, 0usize..3, 0usize..10), 1..50),
        q_init in -5.0f64..5.0,
    ) {
        let mut learner = TdLambda::new(
            10,
            3,
            TdLambdaConfig { q_init, ..TdLambdaConfig::default() },
        );
        for (s, a, s_next) in transitions {
            // δ = 0 + γ·q_init − q_init ≠ 0 in general… only with the
            // *undiscounted* fixed point. Use reward that exactly offsets:
            let r = q_init - learner.config().gamma * q_init;
            learner.update(s, a, r, s_next, None);
            // Every entry stays at q_init.
            prop_assert!((learner.q().get(s, a) - q_init).abs() < 1e-9);
        }
    }
}
