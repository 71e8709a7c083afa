//! The reward function (paper §4.3.3):
//! `r = (−ṁ_f + w·f_aux(p_aux)) · ΔT`.

use hev_model::{StepOutcome, FUEL_LHV_J_PER_G};
use serde::{Deserialize, Serialize};

/// Reward configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RewardConfig {
    /// Weighting factor `w` trading fuel (g/s) against auxiliary utility
    /// (dimensionless, ∈ [−1, 1]).
    pub aux_weight: f64,
    /// Time-step length `ΔT`, seconds.
    pub dt_s: f64,
    /// Optional soft barrier near the charge-sustaining bounds: penalty
    /// per unit state-of-charge beyond `soc_margin` of a window edge.
    /// Zero disables shaping (the hard window is enforced by action
    /// feasibility regardless).
    pub soc_barrier_weight: f64,
    /// Width of the soft-barrier region inside each window edge.
    pub soc_margin: f64,
    /// The charge-sustaining window the barrier refers to.
    pub soc_window: (f64, f64),
    /// Equivalence factor `s` charging net battery usage as fuel at
    /// `s·P_batt/D_f` g/s, `D_f` = [`FUEL_LHV_J_PER_G`], in the
    /// *learning* reward (0 disables). This is the standard
    /// equivalent-consumption term: it makes the agent charge-indifferent
    /// instead of gaming battery depletion within an episode. The
    /// reported paper reward (Table 2) never includes it.
    pub battery_equiv_factor: f64,
    /// Proportional state-of-charge feedback on the equivalence factor:
    /// `s(q) = s₀ − k·(q − q_target)` (adaptive ECMS). Keeps the learned
    /// policy charge-sustaining around `soc_target`.
    pub soc_feedback_gain: f64,
    /// Target state of charge for the feedback term.
    pub soc_target: f64,
}

impl Default for RewardConfig {
    fn default() -> Self {
        Self {
            aux_weight: 0.4,
            dt_s: 1.0,
            soc_barrier_weight: 2.0,
            soc_margin: 0.03,
            soc_window: (0.40, 0.80),
            // ≈ 1 / (fuel→battery path efficiency of this powertrain).
            battery_equiv_factor: 3.6,
            soc_feedback_gain: 30.0,
            soc_target: 0.60,
        }
    }
}

impl RewardConfig {
    /// The shaped reward used for learning and inner optimization: the
    /// paper's reward plus the battery equivalent-consumption term and
    /// the soft window barrier.
    pub fn reward(&self, outcome: &StepOutcome) -> f64 {
        let s = (self.battery_equiv_factor
            - self.soc_feedback_gain * (outcome.soc_after - self.soc_target))
            .max(0.0);
        let equiv = s * outcome.battery_power_w / FUEL_LHV_J_PER_G;
        // `fuel_g` is already integrated over the step (and carries the
        // engine-restart penalty); only the rate-like terms scale by ΔT.
        -outcome.fuel_g + (-equiv + self.aux_weight * outcome.aux_utility) * self.dt_s
            - self.soc_barrier(outcome.soc_after) * self.dt_s
    }

    /// The paper's reward without shaping (used for reporting Table 2,
    /// which accumulates exactly `(−ṁ_f + w·f_aux)·ΔT`).
    pub fn paper_reward(&self, outcome: &StepOutcome) -> f64 {
        -outcome.fuel_g + self.aux_weight * outcome.aux_utility * self.dt_s
    }

    fn soc_barrier(&self, soc: f64) -> f64 {
        // hevlint::allow(float::eq, exact sentinel: a configured weight of literal 0.0 disables the barrier term; no arithmetic feeds this value)
        if self.soc_barrier_weight == 0.0 {
            return 0.0;
        }
        let (lo, hi) = self.soc_window;
        let below = (lo + self.soc_margin - soc).max(0.0);
        let above = (soc - (hi - self.soc_margin)).max(0.0);
        self.soc_barrier_weight * (below + above) / self.soc_margin.max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hev_model::OperatingMode;

    fn outcome(fuel_rate: f64, utility: f64, soc: f64) -> StepOutcome {
        StepOutcome {
            mode: OperatingMode::IceOnly,
            fuel_rate_g_per_s: fuel_rate,
            fuel_g: fuel_rate,
            engine_started: false,
            ice_torque_nm: 0.0,
            ice_speed_rad_s: 0.0,
            em_torque_nm: 0.0,
            em_speed_rad_s: 0.0,
            battery_current_a: 0.0,
            battery_power_w: 0.0,
            p_aux_w: 600.0,
            aux_utility: utility,
            friction_brake_torque_nm: 0.0,
            soc_before: soc,
            soc_after: soc,
        }
    }

    #[test]
    fn reward_matches_paper_formula_mid_window() {
        let cfg = RewardConfig {
            aux_weight: 0.5,
            ..Default::default()
        };
        let o = outcome(0.8, 1.0, 0.6);
        let r = cfg.reward(&o);
        assert!((r - (-0.8 + 0.5)).abs() < 1e-12);
        assert_eq!(r, cfg.paper_reward(&o));
    }

    #[test]
    fn fuel_consumption_is_penalized() {
        let cfg = RewardConfig::default();
        assert!(cfg.reward(&outcome(2.0, 0.0, 0.6)) < cfg.reward(&outcome(0.5, 0.0, 0.6)));
    }

    #[test]
    fn utility_is_rewarded() {
        let cfg = RewardConfig::default();
        assert!(cfg.reward(&outcome(1.0, 1.0, 0.6)) > cfg.reward(&outcome(1.0, -1.0, 0.6)));
    }

    #[test]
    fn soc_barrier_fires_near_edges_only() {
        let cfg = RewardConfig::default();
        let mid = cfg.reward(&outcome(0.0, 0.0, 0.60));
        let low = cfg.reward(&outcome(0.0, 0.0, 0.405));
        let high = cfg.reward(&outcome(0.0, 0.0, 0.795));
        assert_eq!(mid, 0.0);
        assert!(low < 0.0);
        assert!(high < 0.0);
    }

    #[test]
    fn barrier_disabled_when_weight_zero() {
        let cfg = RewardConfig {
            soc_barrier_weight: 0.0,
            ..Default::default()
        };
        assert_eq!(cfg.reward(&outcome(0.0, 0.0, 0.401)), 0.0);
    }

    #[test]
    fn dt_scales_utility_but_not_integrated_fuel() {
        let cfg = RewardConfig {
            dt_s: 2.0,
            aux_weight: 0.4,
            ..Default::default()
        };
        // fuel_g is already per-step; the utility term is a rate × ΔT.
        let o = outcome(1.0, 0.5, 0.6);
        assert!((cfg.reward(&o) - (-1.0 + 0.4 * 0.5 * 2.0)).abs() < 1e-12);
    }

    #[test]
    fn restart_penalty_reaches_the_reward() {
        let cfg = RewardConfig::default();
        let mut started = outcome(0.5, 0.0, 0.6);
        started.fuel_g += 0.25;
        started.engine_started = true;
        assert!(cfg.reward(&started) < cfg.reward(&outcome(0.5, 0.0, 0.6)));
    }
}
