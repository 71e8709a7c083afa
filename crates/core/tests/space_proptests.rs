//! Property-based tests of the controller's state/action spaces and
//! reward.

use hev_control::{ActionSpace, RewardConfig, StateSample, StateSpace, StateSpaceConfig};
use hev_model::{OperatingMode, StepOutcome};
use proptest::prelude::*;

fn outcome(fuel_g: f64, utility: f64, p_batt: f64, soc: f64) -> StepOutcome {
    StepOutcome {
        mode: OperatingMode::IceOnly,
        fuel_rate_g_per_s: fuel_g,
        fuel_g,
        engine_started: false,
        ice_torque_nm: 0.0,
        ice_speed_rad_s: 0.0,
        em_torque_nm: 0.0,
        em_speed_rad_s: 0.0,
        battery_current_a: 0.0,
        battery_power_w: p_batt,
        p_aux_w: 600.0,
        aux_utility: utility,
        friction_brake_torque_nm: 0.0,
        soc_before: soc,
        soc_after: soc,
    }
}

proptest! {
    /// Every observation encodes into a valid state, and encoding is
    /// locally constant (same levels ⇒ same state).
    #[test]
    fn encoding_total_and_stable(
        p in -1e5f64..1e5,
        v in -5.0f64..60.0,
        q in 0.0f64..1.0,
        pre in -1e5f64..1e5,
    ) {
        let space = StateSpace::new(StateSpaceConfig::with_prediction());
        let s = space.encode(&StateSample {
            power_demand_w: p,
            speed_mps: v,
            soc: q,
            prediction_w: pre,
        });
        prop_assert!(s < space.n_states());
        // Encoding is pure: the identical sample re-encodes identically,
        // and a tiny nudge still lands inside the table.
        let again = space.encode(&StateSample {
            power_demand_w: p,
            speed_mps: v,
            soc: q,
            prediction_w: pre,
        });
        prop_assert_eq!(s, again);
        let s2 = space.encode(&StateSample {
            power_demand_w: p + 1e-9,
            speed_mps: v,
            soc: q,
            prediction_w: pre,
        });
        prop_assert!(s2 < space.n_states());
    }

    /// Full action space decode is a bijection onto distinct controls.
    #[test]
    fn full_action_space_bijective(
        gears in 1usize..6,
        n_aux in 2usize..5,
    ) {
        let aux: Vec<f64> = (0..n_aux).map(|k| 100.0 + 300.0 * k as f64).collect();
        let space = ActionSpace::full(gears, aux);
        let mut seen = std::collections::HashSet::new();
        for i in 0..space.len() {
            let c = space.decode(i).unwrap();
            let key = (c.battery_current_a.to_bits(), c.gear, c.p_aux_w.to_bits());
            prop_assert!(seen.insert(key));
        }
        prop_assert_eq!(seen.len(), space.len());
    }

    /// The learning reward is monotone: more fuel is never better, more
    /// utility is never worse, and discharging more is never better —
    /// all else equal, mid-window.
    #[test]
    fn reward_monotonicity(
        fuel in 0.0f64..3.0,
        extra_fuel in 0.01f64..2.0,
        utility in -2.0f64..0.0,
        utility_gain in 0.01f64..1.0,
        p_batt in -15e3f64..15e3,
        extra_power in 1.0f64..5e3,
    ) {
        let cfg = RewardConfig::default();
        let base = cfg.reward(&outcome(fuel, utility, p_batt, 0.6), 1.0);
        prop_assert!(cfg.reward(&outcome(fuel + extra_fuel, utility, p_batt, 0.6), 1.0) < base);
        prop_assert!(cfg.reward(&outcome(fuel, utility + utility_gain, p_batt, 0.6), 1.0) > base);
        prop_assert!(cfg.reward(&outcome(fuel, utility, p_batt + extra_power, 0.6), 1.0) < base);
    }

    /// The paper reward never exceeds 0 when utility ≤ 0 (its maximum):
    /// matches the paper's observation that rewards are negative.
    #[test]
    fn paper_reward_nonpositive(fuel in 0.0f64..3.0, utility in -4.0f64..0.0) {
        let cfg = RewardConfig::default();
        prop_assert!(cfg.paper_reward(&outcome(fuel, utility, 0.0, 0.6), 1.0) <= 0.0);
    }
}
