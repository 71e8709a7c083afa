//! Episode metrics: fuel, MPG (with state-of-charge correction),
//! cumulative reward, utility, and operating-mode statistics.

use hev_model::{OperatingMode, StepOutcome, FUEL_G_PER_GALLON};
use serde::{Deserialize, Serialize};

/// Meters per mile.
const M_PER_MILE: f64 = 1_609.344;

/// Per-episode accounting of supervisor interventions: how often the
/// wrapped policy's decision was rejected and which tier of the fallback
/// chain (policy → myopic argmax → rule-based → limp-home) produced the
/// control that actually drove the plant.
///
/// Recorded by `hev_control::supervisor::SupervisedPolicy` and attached
/// to [`EpisodeMetrics::degradation`]; `None` there means the episode ran
/// unsupervised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DegradationReport {
    /// Supervised `decide` calls this episode.
    pub decisions: usize,
    /// Decisions rejected because the control failed the step's
    /// feasibility check.
    pub infeasible: usize,
    /// Decisions rejected because a control field was non-finite.
    pub non_finite: usize,
    /// Rejections recovered by an inner-optimized (myopic-argmax) tier:
    /// rung full or myopic of the degradation chain.
    pub myopic_rescues: usize,
    /// Rejections recovered by the rule-based tier.
    pub rule_rescues: usize,
    /// Rejections that fell all the way through to the limp-home search.
    pub limp_home: usize,
}

impl DegradationReport {
    /// Decisions the supervisor rejected (and thus had to replace).
    pub fn rejections(&self) -> usize {
        self.infeasible + self.non_finite
    }

    /// Fallback activations: controls supplied by any tier below the
    /// wrapped policy.
    pub fn fallback_activations(&self) -> usize {
        self.myopic_rescues + self.rule_rescues + self.limp_home
    }

    /// Element-wise sum (aggregation across episodes or runs).
    #[must_use]
    pub fn merged(&self, other: &Self) -> Self {
        Self {
            decisions: self.decisions + other.decisions,
            infeasible: self.infeasible + other.infeasible,
            non_finite: self.non_finite + other.non_finite,
            myopic_rescues: self.myopic_rescues + other.myopic_rescues,
            rule_rescues: self.rule_rescues + other.rule_rescues,
            limp_home: self.limp_home + other.limp_home,
        }
    }
}

/// Accumulated results of one simulated driving cycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpisodeMetrics {
    /// Number of simulated steps.
    pub steps: usize,
    /// Total fuel burned, g.
    pub fuel_g: f64,
    /// Distance covered, m.
    pub distance_m: f64,
    /// Cumulative reward `Σ(−ṁ_f + w·f_aux)·ΔT` (the paper's Table 2
    /// quantity, without shaping terms).
    pub total_reward: f64,
    /// Sum of the auxiliary utility over all steps.
    pub utility_sum: f64,
    /// State of charge at episode start.
    pub soc_initial: f64,
    /// State of charge at episode end.
    pub soc_final: f64,
    /// Steps spent in each operating mode, indexed by
    /// [`mode_index`].
    pub mode_counts: [usize; 7],
    /// Steps where the controller's action was infeasible and a fallback
    /// was substituted.
    pub fallback_steps: usize,
    /// Steps where even the fallback search failed and the demand had to
    /// be clipped to the powertrain's capability (a "trace miss" in
    /// backward-looking-simulator terms).
    pub trace_miss_steps: usize,
    /// Supervisor intervention accounting, when the episode ran under a
    /// `SupervisedPolicy`; `None` for unsupervised episodes.
    pub degradation: Option<DegradationReport>,
}

/// Index of an operating mode in [`EpisodeMetrics::mode_counts`].
pub fn mode_index(mode: OperatingMode) -> usize {
    match mode {
        OperatingMode::Stopped => 0,
        OperatingMode::IceOnly => 1,
        OperatingMode::EvOnly => 2,
        OperatingMode::HybridAssist => 3,
        OperatingMode::RechargeDrive => 4,
        OperatingMode::RegenBraking => 5,
        OperatingMode::FrictionBraking => 6,
    }
}

impl EpisodeMetrics {
    /// Creates an empty accumulator starting at the given state of charge.
    pub fn new(soc_initial: f64) -> Self {
        Self {
            steps: 0,
            fuel_g: 0.0,
            distance_m: 0.0,
            total_reward: 0.0,
            utility_sum: 0.0,
            soc_initial,
            soc_final: soc_initial,
            mode_counts: [0; 7],
            fallback_steps: 0,
            trace_miss_steps: 0,
            degradation: None,
        }
    }

    /// Accumulates one step.
    pub fn record(
        &mut self,
        outcome: &StepOutcome,
        paper_reward: f64,
        distance_step_m: f64,
        was_fallback: bool,
    ) {
        self.steps += 1;
        self.fuel_g += outcome.fuel_g;
        self.distance_m += distance_step_m;
        self.total_reward += paper_reward;
        self.utility_sum += outcome.aux_utility;
        self.soc_final = outcome.soc_after;
        self.mode_counts[mode_index(outcome.mode)] += 1;
        if was_fallback {
            self.fallback_steps += 1;
        }
    }

    /// Raw miles per gallon (no charge correction). Infinite for a
    /// zero-fuel episode.
    pub fn mpg(&self) -> f64 {
        let miles = self.distance_m / M_PER_MILE;
        let gallons = self.fuel_g / FUEL_G_PER_GALLON;
        miles / gallons
    }

    /// Charge-sustaining-corrected MPG: converts the net change in stored
    /// battery energy into equivalent fuel using the mean fuel-to-battery
    /// path efficiency, so trips that ended with a depleted (or
    /// overcharged) pack are compared fairly.
    ///
    /// `battery_energy_wh` is the pack's nominal energy;
    /// `fuel_to_battery_eff` the assumed conversion efficiency (engine ×
    /// electric path), typically ≈ 0.25; `fuel_lhv_j_per_g` the fuel
    /// energy density.
    pub fn soc_corrected_mpg(
        &self,
        battery_energy_wh: f64,
        fuel_to_battery_eff: f64,
        fuel_lhv_j_per_g: f64,
    ) -> f64 {
        let delta_soc = self.soc_final - self.soc_initial;
        let delta_j = delta_soc * battery_energy_wh * 3600.0;
        // Net discharge (negative delta) adds equivalent fuel.
        let equivalent_fuel_g = -delta_j / (fuel_to_battery_eff * fuel_lhv_j_per_g);
        let fuel = (self.fuel_g + equivalent_fuel_g).max(1e-9);
        (self.distance_m / M_PER_MILE) / (fuel / FUEL_G_PER_GALLON)
    }

    /// Mean auxiliary utility per step.
    pub fn mean_utility(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.utility_sum / self.steps as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(fuel_g: f64, mode: OperatingMode, soc: f64) -> StepOutcome {
        StepOutcome {
            mode,
            fuel_rate_g_per_s: fuel_g,
            fuel_g,
            engine_started: false,
            ice_torque_nm: 0.0,
            ice_speed_rad_s: 0.0,
            em_torque_nm: 0.0,
            em_speed_rad_s: 0.0,
            battery_current_a: 0.0,
            battery_power_w: 0.0,
            p_aux_w: 600.0,
            aux_utility: 1.0,
            friction_brake_torque_nm: 0.0,
            soc_before: soc,
            soc_after: soc,
        }
    }

    #[test]
    fn accumulates_fuel_and_distance() {
        let mut m = EpisodeMetrics::new(0.6);
        m.record(
            &outcome(0.5, OperatingMode::IceOnly, 0.6),
            -0.5,
            20.0,
            false,
        );
        m.record(&outcome(0.3, OperatingMode::EvOnly, 0.59), 0.4, 15.0, true);
        assert_eq!(m.steps, 2);
        assert!((m.fuel_g - 0.8).abs() < 1e-12);
        assert!((m.distance_m - 35.0).abs() < 1e-12);
        assert!((m.total_reward - (-0.1)).abs() < 1e-12);
        assert_eq!(m.fallback_steps, 1);
        assert_eq!(m.mode_counts[mode_index(OperatingMode::EvOnly)], 1);
        assert_eq!(m.soc_final, 0.59);
    }

    #[test]
    fn mpg_computation() {
        let mut m = EpisodeMetrics::new(0.6);
        // One mile on 2835/40 grams = exactly 40 mpg.
        m.record(
            &outcome(FUEL_G_PER_GALLON / 40.0, OperatingMode::IceOnly, 0.6),
            0.0,
            M_PER_MILE,
            false,
        );
        assert!((m.mpg() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn soc_correction_penalizes_depletion() {
        let mut depleted = EpisodeMetrics::new(0.7);
        depleted.record(
            &outcome(50.0, OperatingMode::EvOnly, 0.5),
            0.0,
            M_PER_MILE,
            false,
        );
        let mut sustained = EpisodeMetrics::new(0.7);
        sustained.record(
            &outcome(50.0, OperatingMode::IceOnly, 0.7),
            0.0,
            M_PER_MILE,
            false,
        );
        let corr_depleted = depleted.soc_corrected_mpg(7_000.0, 0.25, 42_600.0);
        let corr_sustained = sustained.soc_corrected_mpg(7_000.0, 0.25, 42_600.0);
        assert!(corr_depleted < corr_sustained);
        assert!(corr_depleted < depleted.mpg());
    }

    #[test]
    fn soc_correction_rewards_surplus() {
        let mut surplus = EpisodeMetrics::new(0.6);
        surplus.record(
            &outcome(50.0, OperatingMode::RechargeDrive, 0.7),
            0.0,
            M_PER_MILE,
            false,
        );
        assert!(surplus.soc_corrected_mpg(7_000.0, 0.25, 42_600.0) > surplus.mpg());
    }

    #[test]
    fn mode_counts_sum_to_steps() {
        let mut m = EpisodeMetrics::new(0.6);
        for mode in [
            OperatingMode::Stopped,
            OperatingMode::EvOnly,
            OperatingMode::EvOnly,
            OperatingMode::RegenBraking,
        ] {
            m.record(&outcome(0.0, mode, 0.6), 0.0, 1.0, false);
        }
        assert_eq!(m.mode_counts.iter().sum::<usize>(), m.steps);
        assert_eq!(m.mode_counts[mode_index(OperatingMode::EvOnly)], 2);
    }

    #[test]
    fn mean_utility_averages() {
        let mut m = EpisodeMetrics::new(0.6);
        m.record(&outcome(0.0, OperatingMode::Stopped, 0.6), 0.0, 0.0, false);
        assert!((m.mean_utility() - 1.0).abs() < 1e-12);
        assert_eq!(EpisodeMetrics::new(0.5).mean_utility(), 0.0);
    }

    #[test]
    fn degradation_report_arithmetic() {
        let a = DegradationReport {
            decisions: 10,
            infeasible: 2,
            non_finite: 1,
            myopic_rescues: 2,
            rule_rescues: 1,
            limp_home: 0,
        };
        assert_eq!(a.rejections(), 3);
        assert_eq!(a.fallback_activations(), 3);
        let doubled = a.merged(&a);
        assert_eq!(doubled.decisions, 20);
        assert_eq!(doubled.rejections(), 6);
    }
}
