//! Baseline controllers the paper's evaluation compares against, plus
//! reference strategies added for context.
//!
//! * [`RuleBasedController`] — the rule-based policy of ref \[5\]
//!   (Banvait et al., ACC'09), used in Table 2 / Figure 3.
//! * `powertrain_only` — the RL policy of ref \[13\] (Lin et al.,
//!   ICCAD'14): no prediction, no auxiliary co-optimization; constructed
//!   via [`JointControllerConfig::powertrain_only`].
//! * [`EcmsController`] — equivalent consumption minimization (ref
//!   \[10\]), a real-time optimization baseline.
//! * [`dp::solve`] — offline dynamic-programming bound (ref \[7\]).
//!
//! [`JointControllerConfig::powertrain_only`]:
//! crate::JointControllerConfig::powertrain_only

pub mod dp;
pub mod ecms;
pub mod rule_based;

pub use dp::{solve as solve_dp, DpConfig, DpPolicy, DpSolution};
pub use ecms::{EcmsConfig, EcmsController};
pub use rule_based::{RuleBasedConfig, RuleBasedController};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reward::RewardConfig;
    use crate::sim::{simulate, HevPolicy, Observation};
    use crate::{JointController, JointControllerConfig};
    use drive_cycle::DriveCycle;
    use hev_model::{ControlInput, HevParams, ParallelHev, WheelDemand};

    /// Always proposes the same control.
    struct Always(ControlInput);

    impl HevPolicy for Always {
        fn decide(&mut self, _hev: &ParallelHev, _obs: &Observation<'_>) -> ControlInput {
            self.0
        }
    }

    /// Wraps a baseline, recording its first decision and checking that
    /// every observation carries the cycle's step length.
    struct FirstDecision<'a> {
        policy: &'a mut dyn HevPolicy,
        dt_s: f64,
        first: Option<ControlInput>,
    }

    impl HevPolicy for FirstDecision<'_> {
        fn decide(&mut self, hev: &ParallelHev, obs: &Observation<'_>) -> ControlInput {
            assert_eq!(obs.dt_s, self.dt_s);
            let control = self.policy.decide(hev, obs);
            self.first.get_or_insert(control);
            control
        }
    }

    /// The strongest regen the baselines command.
    const REGEN: ControlInput = ControlInput {
        battery_current_a: -60.0,
        gear: 3,
        p_aux_w: 600.0,
    };

    /// A hard stop from 15 m/s resampled to half-second steps, a vehicle,
    /// the first step's demand, and a state of charge just under the top
    /// of the charge window where [`REGEN`] fits a half-second step but
    /// overfills a one-second one.
    fn half_second_stop() -> (DriveCycle, ParallelHev, WheelDemand, f64) {
        let cycle = DriveCycle::from_speeds_mps("stop", 1.0, vec![15.0, 13.5, 12.0, 10.5, 9.0])
            .unwrap()
            .resample(0.5);
        assert_eq!(cycle.dt(), 0.5);
        let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6).unwrap();
        let p = cycle.points().next().unwrap();
        let demand = hev.demand(p.speed_mps, p.accel_mps2, p.grade);
        let soc_max = hev.battery().params().soc_max;
        let soc = (1..1000)
            .map(|k| soc_max - 1e-5 * f64::from(k))
            .find(|&soc| {
                hev.reset_soc(soc);
                hev.peek(&demand, &REGEN, 0.5).is_ok() && hev.peek(&demand, &REGEN, 1.0).is_err()
            })
            .expect("a state of charge separating the two step lengths");
        (cycle, hev, demand, soc)
    }

    #[test]
    fn baselines_check_feasibility_over_the_cycle_step() {
        let (cycle, mut hev, demand, soc) = half_second_stop();
        let reward = RewardConfig::default();
        let mut check = |name: &str, policy: &mut dyn HevPolicy| {
            hev.reset_soc(soc);
            let mut wrapped = FirstDecision {
                policy,
                dt_s: 0.5,
                first: None,
            };
            let m = simulate(&mut hev, &cycle, &mut wrapped, &reward);
            assert_eq!(m.fallback_steps, 0, "{name}");
            let first = wrapped.first.unwrap();
            hev.reset_soc(soc);
            assert!(hev.peek(&demand, &first, 0.5).is_ok(), "{name}: {first:?}");
            assert!(
                hev.peek(&demand, &first, 1.0).is_err(),
                "{name} checked its regen over a one-second step: {first:?}"
            );
        };
        check("rule-based", &mut RuleBasedController::default());
        check("ECMS", &mut EcmsController::default());
        // The supervisor validates over the same step: it passes the
        // regen through rather than rescuing it.
        check(
            "supervised",
            &mut crate::SupervisedPolicy::new(Always(REGEN)),
        );
    }

    #[test]
    fn joint_controller_masks_over_the_observed_step() {
        let (_, mut hev, demand, soc) = half_second_stop();
        hev.reset_soc(soc);
        let ctx = hev.step_context(&demand);
        let cfg = JointControllerConfig::proposed();
        let feasible_over = |dt: f64| {
            cfg.action
                .currents()
                .iter()
                .filter(|&&i| cfg.inner.feasible(&hev, &demand, i, dt))
                .count()
        };
        assert!(feasible_over(0.5) > feasible_over(1.0));
        for dt_s in [0.5, 1.0] {
            let mut joint = JointController::new(cfg.clone());
            joint.set_training(false);
            joint.set_record_decisions(true);
            let obs = Observation {
                step: 0,
                time_s: 0.0,
                dt_s,
                demand: &demand,
                soc,
                ctx: &ctx,
            };
            let control = joint.decide(&hev, &obs);
            assert!(hev.peek(&demand, &control, dt_s).is_ok(), "dt {dt_s}");
            let decision = joint.last_decision().expect("a masked decision");
            assert_eq!(decision.feasible, feasible_over(dt_s), "dt {dt_s}");
        }
    }
}
