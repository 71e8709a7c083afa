//! Equivalent Consumption Minimization Strategy (ECMS) baseline
//! (Delprat et al., the paper's ref \[10\]).
//!
//! ECMS converts battery energy into equivalent fuel via an equivalence
//! factor and minimizes the instantaneous equivalent fuel rate. It is a
//! real-time-capable optimization baseline that — like the rule-based
//! policy — leaves the auxiliary systems at a fixed power: each step is one
//! `fixed_aux_sweep` (`inner_opt.rs`) scored by the equivalent fuel rate.

use crate::action::default_currents;
use crate::inner_opt::fixed_aux_sweep;
use crate::sim::{fallback_control, HevPolicy, Observation};
use hev_model::{ControlInput, ParallelHev, StepOutcome};
use serde::{Deserialize, Serialize};

/// ECMS tunables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EcmsConfig {
    /// Base equivalence factor: grams of fuel per gram-equivalent of
    /// electrical energy (dimensionless multiplier on `P_batt / D_f`).
    /// Typical values 2.5–3.5 (≈ 1 / overall fuel→electric efficiency).
    pub equivalence_factor: f64,
    /// Proportional state-of-charge feedback on the equivalence factor:
    /// `s(q) = s0 − k·(q − q_target)`.
    pub soc_feedback_gain: f64,
    /// Target state of charge.
    pub soc_target: f64,
    /// Fixed auxiliary power, W.
    pub aux_power_w: f64,
    /// Candidate battery currents, A.
    pub currents: Vec<f64>,
    /// Fuel energy density, J/g (for the power→fuel conversion).
    pub fuel_lhv_j_per_g: f64,
}

impl Default for EcmsConfig {
    fn default() -> Self {
        Self {
            equivalence_factor: 3.0,
            soc_feedback_gain: 8.0,
            soc_target: 0.60,
            aux_power_w: 600.0,
            currents: default_currents(),
            fuel_lhv_j_per_g: hev_model::FUEL_LHV_J_PER_G,
        }
    }
}

/// The ECMS supervisory controller.
///
/// # Examples
///
/// ```no_run
/// use drive_cycle::StandardCycle;
/// use hev_control::{simulate, EcmsController, RewardConfig};
/// use hev_model::{HevParams, ParallelHev};
///
/// let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6)?;
/// let mut ecms = EcmsController::default();
/// let m = simulate(&mut hev, &StandardCycle::Hwfet.cycle(), &mut ecms,
///                  &RewardConfig::default());
/// println!("ECMS: {:.1} mpg", m.mpg());
/// # Ok::<(), hev_model::ParamError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EcmsController {
    config: EcmsConfig,
}

impl EcmsController {
    /// Creates the controller.
    pub fn new(config: EcmsConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &EcmsConfig {
        &self.config
    }

    /// The state-of-charge-corrected equivalence factor.
    fn equivalence_factor_at(&self, soc: f64) -> f64 {
        (self.config.equivalence_factor
            - self.config.soc_feedback_gain * (soc - self.config.soc_target))
            .max(0.5)
    }
}

impl HevPolicy for EcmsController {
    fn decide(&mut self, hev: &ParallelHev, obs: &Observation<'_>) -> ControlInput {
        let s = self.equivalence_factor_at(obs.soc);
        let (cfg, ctx, dt) = (&self.config, obs.ctx, obs.dt_s);
        let (aux, lhv) = (cfg.aux_power_w, cfg.fuel_lhv_j_per_g);
        // Minus the equivalent fuel rate: chemical fuel plus (discounted)
        // battery energy drawn from the bus.
        let score = |o: &StepOutcome| -(o.fuel_rate_g_per_s + s * o.battery_power_w / lhv);
        fixed_aux_sweep(hev, ctx, &cfg.currents, aux, dt, score, |_, c, _, _| c)
            .unwrap_or_else(|| fallback_control(hev, ctx, dt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reward::RewardConfig;
    use crate::sim::simulate;
    use drive_cycle::ProfileBuilder;
    use hev_model::HevParams;

    fn hev() -> ParallelHev {
        ParallelHev::new(HevParams::default_parallel_hev(), 0.6).unwrap()
    }

    #[test]
    fn equivalence_factor_rises_when_depleted() {
        let e = EcmsController::default();
        assert!(e.equivalence_factor_at(0.45) > e.equivalence_factor_at(0.75));
    }

    #[test]
    fn completes_a_cycle_within_window() {
        let mut hev = hev();
        let cycle = ProfileBuilder::new("mix")
            .idle(4.0)
            .trip(45.0, 12.0, 30.0, 10.0, 5.0)
            .trip(70.0, 18.0, 40.0, 14.0, 5.0)
            .build()
            .unwrap();
        let mut ecms = EcmsController::default();
        let m = simulate(&mut hev, &cycle, &mut ecms, &RewardConfig::default());
        assert_eq!(m.steps, cycle.len());
        assert!((0.40..=0.80).contains(&m.soc_final));
        assert!(m.fuel_g > 0.0);
    }

    #[test]
    fn soc_feedback_sustains_charge() {
        let mut hev = hev();
        let cycle = ProfileBuilder::new("long-cruise")
            .ramp_to(60.0, 15.0)
            .cruise(300.0)
            .ramp_to(0.0, 15.0)
            .build()
            .unwrap();
        let mut ecms = EcmsController::default();
        let m = simulate(&mut hev, &cycle, &mut ecms, &RewardConfig::default());
        // The proportional feedback keeps the pack near the target.
        assert!(
            (m.soc_final - 0.60).abs() < 0.12,
            "soc drifted to {}",
            m.soc_final
        );
    }
}
