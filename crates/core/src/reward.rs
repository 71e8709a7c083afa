//! The reward function (paper §4.3.3):
//! `r = (−ṁ_f + w·f_aux(p_aux)) · ΔT`.

use hev_model::{StepOutcome, FUEL_LHV_J_PER_G};
use serde::{Deserialize, Serialize};

/// Penalty per unit state of charge beyond [`SOC_MARGIN`] of a window
/// edge, per second (the soft barrier of the learning reward; the hard
/// window is enforced by action feasibility regardless).
const SOC_BARRIER_WEIGHT: f64 = 2.0;
/// Width of the soft-barrier region inside each window edge.
const SOC_MARGIN: f64 = 0.03;
/// The charge-sustaining window the barrier refers to.
const SOC_WINDOW: (f64, f64) = (0.40, 0.80);
/// Equivalence factor `s₀` charging net battery usage as fuel at
/// `s·P_batt/D_f` g/s, `D_f` = [`FUEL_LHV_J_PER_G`], in the *learning*
/// reward: ≈ 1 / (fuel→battery path efficiency of this powertrain). This
/// is the standard equivalent-consumption term: it makes the agent
/// charge-indifferent instead of gaming battery depletion within an
/// episode. The reported paper reward (Table 2) never includes it.
const BATTERY_EQUIV_FACTOR: f64 = 3.6;
/// Proportional state-of-charge feedback on the equivalence factor:
/// `s(q) = s₀ − k·(q − q_target)` (adaptive ECMS). Keeps the learned
/// policy charge-sustaining around [`SOC_TARGET`].
const SOC_FEEDBACK_GAIN: f64 = 30.0;
/// Target state of charge of the feedback term.
const SOC_TARGET: f64 = 0.60;

/// Reward configuration: the paper's weighting factor `w`, the one value
/// it tunes. Each step's `ΔT` comes from the caller, which steps the
/// plant over it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RewardConfig {
    /// Weighting factor `w` trading fuel (g/s) against auxiliary utility
    /// (dimensionless, ∈ [−1, 1]).
    pub aux_weight: f64,
    /// Not read by the reward, which takes `ΔT` from its caller: 1 s, the
    /// step of a served request. Only perfbench's serve-fleet workload
    /// reads it, to replay the served controls.
    pub dt_s: f64,
}

impl Default for RewardConfig {
    fn default() -> Self {
        Self {
            aux_weight: 0.4,
            dt_s: 1.0,
        }
    }
}

impl RewardConfig {
    /// The shaped reward used for learning and inner optimization over a
    /// step of `dt` seconds: the paper's reward plus the battery
    /// equivalent-consumption term and the soft window barrier.
    pub fn reward(&self, outcome: &StepOutcome, dt: f64) -> f64 {
        let equiv = equiv_rate(outcome.soc_after, outcome.battery_power_w);
        // `fuel_g` is already integrated over the step (and carries the
        // engine-restart penalty); only the rate-like terms scale by ΔT.
        -outcome.fuel_g + (-equiv + self.aux_weight * outcome.aux_utility) * dt
            - soc_barrier(outcome.soc_after) * dt
    }

    /// The paper's reward over a step of `dt` seconds, without shaping
    /// (used for reporting Table 2, which accumulates exactly
    /// `(−ṁ_f + w·f_aux)·ΔT`).
    pub fn paper_reward(&self, outcome: &StepOutcome, dt: f64) -> f64 {
        -outcome.fuel_g + self.aux_weight * outcome.aux_utility * dt
    }

    /// An upper bound on [`RewardConfig::reward`] over a step of `dt`
    /// seconds for every outcome that burns at least `fuel_g`, draws a
    /// battery power within `power_w` and ends the step at a state of
    /// charge within `soc_after` (each interval `(min, max)`, sorted by
    /// the caller), where `aux_utility` maximizes `aux_weight·f_aux`.
    ///
    /// The equivalence term is bilinear in the factor and the power, and
    /// the factor is monotone in the state of charge, so its least value
    /// over the box lies at a corner; the barrier is convex and least at
    /// the state of charge nearest [`SOC_TARGET`].
    pub(crate) fn reward_bound(
        &self,
        fuel_g: f64,
        power_w: (f64, f64),
        soc_after: (f64, f64),
        aux_utility: f64,
        dt: f64,
    ) -> f64 {
        let (p_lo, p_hi) = power_w;
        let (q_lo, q_hi) = soc_after;
        let equiv = equiv_rate(q_lo, p_lo)
            .min(equiv_rate(q_lo, p_hi))
            .min(equiv_rate(q_hi, p_lo))
            .min(equiv_rate(q_hi, p_hi));
        let nearest = SOC_TARGET.max(q_lo).min(q_hi);
        -fuel_g + (-equiv + self.aux_weight * aux_utility) * dt - soc_barrier(nearest) * dt
    }
}

/// The battery equivalent-consumption rate, g/s, of drawing `power_w`
/// with the state of charge at `soc` after the step.
#[inline(always)]
fn equiv_rate(soc: f64, power_w: f64) -> f64 {
    let s = (BATTERY_EQUIV_FACTOR - SOC_FEEDBACK_GAIN * (soc - SOC_TARGET)).max(0.0);
    s * power_w / FUEL_LHV_J_PER_G
}

/// The soft window barrier's rate at state of charge `soc`.
fn soc_barrier(soc: f64) -> f64 {
    let (lo, hi) = SOC_WINDOW;
    let below = (lo + SOC_MARGIN - soc).max(0.0);
    let above = (soc - (hi - SOC_MARGIN)).max(0.0);
    SOC_BARRIER_WEIGHT * (below + above) / SOC_MARGIN
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
        let r = cfg.reward(&o, 1.0);
        assert!((r - (-0.8 + 0.5)).abs() < 1e-12);
        assert_eq!(r, cfg.paper_reward(&o, 1.0));
    }

    #[test]
    fn fuel_consumption_is_penalized() {
        let cfg = RewardConfig::default();
        assert!(
            cfg.reward(&outcome(2.0, 0.0, 0.6), 1.0) < cfg.reward(&outcome(0.5, 0.0, 0.6), 1.0)
        );
    }

    #[test]
    fn utility_is_rewarded() {
        let cfg = RewardConfig::default();
        assert!(
            cfg.reward(&outcome(1.0, 1.0, 0.6), 1.0) > cfg.reward(&outcome(1.0, -1.0, 0.6), 1.0)
        );
    }

    #[test]
    fn soc_barrier_fires_near_edges_only() {
        let cfg = RewardConfig::default();
        let mid = cfg.reward(&outcome(0.0, 0.0, 0.60), 1.0);
        let low = cfg.reward(&outcome(0.0, 0.0, 0.405), 1.0);
        let high = cfg.reward(&outcome(0.0, 0.0, 0.795), 1.0);
        assert_eq!(mid, 0.0);
        assert!(low < 0.0);
        assert!(high < 0.0);
    }

    #[test]
    fn dt_scales_utility_but_not_integrated_fuel() {
        let cfg = RewardConfig::default();
        // fuel_g is already per-step; the utility term is a rate × ΔT.
        let o = outcome(1.0, 0.5, 0.6);
        assert!((cfg.reward(&o, 2.0) - (-1.0 + 0.4 * 0.5 * 2.0)).abs() < 1e-12);
        assert_eq!(cfg.reward(&o, 2.0), cfg.paper_reward(&o, 2.0));
    }

    #[test]
    fn restart_penalty_reaches_the_reward() {
        let cfg = RewardConfig::default();
        let mut started = outcome(0.5, 0.0, 0.6);
        started.fuel_g += 0.25;
        started.engine_started = true;
        assert!(cfg.reward(&started, 1.0) < cfg.reward(&outcome(0.5, 0.0, 0.6), 1.0));
    }
}
