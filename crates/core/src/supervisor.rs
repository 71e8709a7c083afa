//! Supervised fallback control: a safety wrapper around any
//! [`HevPolicy`].
//!
//! A deployable energy-management controller must never hand the plant a
//! control it cannot execute — yet a learned policy can emit one (an
//! unvisited state, a malformed action, a NaN escaping the function
//! approximator) and fault injection makes this routine: the policy
//! decides on *observed* (noisy, drifted) state while feasibility is
//! judged on the true plant. [`SupervisedPolicy`] validates every
//! decision against the step's feasibility check and non-finite-field
//! checks, and on violation degrades through a fixed fallback chain:
//!
//! 1. **wrapped policy** — the decision as made;
//! 2. **myopic argmax** — the best instantaneous inner-optimized reward
//!    over a battery-current ladder (the same move an untrained
//!    [`crate::JointController`] makes in a never-visited state);
//! 3. **rule-based** — the [`RuleBasedController`] baseline's decision;
//! 4. **limp-home** — [`fallback_control`]'s feasibility search
//!    (whose zero-current request the simulation harness resolves by
//!    demand clipping if even that fails — a trace miss, never an
//!    abort).
//!
//! Each tier's activations are counted per episode in a
//! [`DegradationReport`], which the simulation loop attaches to
//! [`crate::EpisodeMetrics::degradation`].

use crate::action::default_currents;
use crate::baseline::RuleBasedController;
use crate::inner_opt::InnerOptimizer;
use crate::metrics::DegradationReport;
use crate::reward::RewardConfig;
use crate::sim::{fallback_control, ControlError, HevPolicy, Observation};
use hev_model::{ControlInput, ParallelHev, StepContext, StepOutcome};

/// Why the supervisor rejected a decision.
enum Rejection {
    /// A control field was non-finite.
    NonFinite,
    /// The control failed the step's feasibility check.
    Infeasible,
}

/// Validates a control against non-finite fields and the step's
/// feasibility check (a [`ParallelHev::peek_with_context`] probe — the
/// same predicate the plant's `step` enforces).
fn validate(
    hev: &ParallelHev,
    ctx: &StepContext,
    control: &ControlInput,
    dt: f64,
) -> Result<(), Rejection> {
    if !control.is_finite() {
        return Err(Rejection::NonFinite);
    }
    if hev.peek_with_context(ctx, control, dt).is_err() {
        return Err(Rejection::Infeasible);
    }
    Ok(())
}

/// Configuration of the supervisor's own fallback tiers.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Reward definition for the myopic tier (also supplies the step
    /// duration `dt_s` used by every feasibility check).
    pub reward: RewardConfig,
    /// Battery-current ladder the myopic tier optimizes over.
    pub currents: Vec<f64>,
    /// Inner optimizer resolving gear and auxiliary power per current.
    pub inner: InnerOptimizer,
    /// The rule-based tier's controller.
    pub rule: RuleBasedController,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            reward: RewardConfig::default(),
            currents: default_currents(),
            inner: InnerOptimizer::default(),
            rule: RuleBasedController::default(),
        }
    }
}

/// A validating wrapper around any [`HevPolicy`] (see the module docs
/// for the fallback-chain semantics).
///
/// # Examples
///
/// ```no_run
/// use drive_cycle::StandardCycle;
/// use hev_control::supervisor::SupervisedPolicy;
/// use hev_control::{simulate, JointController, JointControllerConfig, RewardConfig};
/// use hev_model::{HevParams, ParallelHev};
///
/// let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6)?;
/// let mut agent = JointController::new(JointControllerConfig::proposed());
/// agent.set_training(false);
/// let mut supervised = SupervisedPolicy::new(agent);
/// let cycle = StandardCycle::Udds.cycle();
/// let metrics = simulate(&mut hev, &cycle, &mut supervised, &RewardConfig::default());
/// let report = metrics.degradation.expect("supervised episodes carry a report");
/// println!("fallback activations: {}", report.fallback_activations());
/// # Ok::<(), hev_model::ParamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SupervisedPolicy<P> {
    policy: P,
    config: SupervisorConfig,
    report: DegradationReport,
}

impl<P: HevPolicy> SupervisedPolicy<P> {
    /// Wraps a policy with the default supervisor configuration.
    pub fn new(policy: P) -> Self {
        Self::with_config(policy, SupervisorConfig::default())
    }

    /// Wraps a policy with an explicit supervisor configuration.
    pub fn with_config(policy: P, config: SupervisorConfig) -> Self {
        Self {
            policy,
            config,
            report: DegradationReport::default(),
        }
    }

    /// The wrapped policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The wrapped policy, mutably.
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// Unwraps the supervisor, returning the wrapped policy.
    pub fn into_policy(self) -> P {
        self.policy
    }

    /// The intervention report accumulated since the last episode start.
    pub fn report(&self) -> &DegradationReport {
        &self.report
    }

    /// Tier 2: the feasible control with the best instantaneous
    /// inner-optimized reward over the current ladder.
    fn myopic_control(
        &self,
        hev: &ParallelHev,
        ctx: &StepContext,
        dt: f64,
    ) -> Option<ControlInput> {
        let mut best: Option<(f64, ControlInput)> = None;
        let inner = self.config.inner;
        for &current in &self.config.currents {
            if let Some(resolved) = inner.resolve_with(hev, ctx, current, dt, &self.config.reward) {
                if best.as_ref().is_none_or(|(r, _)| resolved.reward > *r) {
                    best = Some((resolved.reward, resolved.control));
                }
            }
        }
        best.map(|(_, control)| control)
    }
}

impl<P: HevPolicy> HevPolicy for SupervisedPolicy<P> {
    fn begin_episode(&mut self) {
        self.report = DegradationReport::default();
        self.policy.begin_episode();
        self.config.rule.begin_episode();
    }

    fn decide(&mut self, hev: &ParallelHev, obs: &Observation<'_>) -> ControlInput {
        let dt = self.config.reward.dt_s;
        self.report.decisions += 1;
        let proposed = self.policy.decide(hev, obs);
        if self.policy.take_control_error().is_some() {
            self.report.control_errors += 1;
        }
        let _span = hev_trace::span::enter("control.supervise");
        match validate(hev, obs.ctx, &proposed, dt) {
            Ok(()) => return proposed,
            Err(Rejection::NonFinite) => self.report.non_finite += 1,
            Err(Rejection::Infeasible) => self.report.infeasible += 1,
        }
        if let Some(control) = self.myopic_control(hev, obs.ctx, dt) {
            if validate(hev, obs.ctx, &control, dt).is_ok() {
                self.report.myopic_rescues += 1;
                return control;
            }
        }
        let rule_control = self.config.rule.decide(hev, obs);
        if validate(hev, obs.ctx, &rule_control, dt).is_ok() {
            self.report.rule_rescues += 1;
            return rule_control;
        }
        self.report.limp_home += 1;
        fallback_control(hev, obs.demand, dt)
    }

    fn feedback(
        &mut self,
        hev: &ParallelHev,
        obs: &Observation<'_>,
        outcome: &StepOutcome,
        reward: f64,
    ) {
        self.policy.feedback(hev, obs, outcome, reward);
    }

    fn end_episode(&mut self) {
        self.policy.end_episode();
        self.config.rule.end_episode();
    }

    fn take_control_error(&mut self) -> Option<ControlError> {
        self.policy.take_control_error()
    }

    fn degradation(&self) -> Option<DegradationReport> {
        Some(self.report)
    }

    fn set_record_decisions(&mut self, on: bool) {
        self.policy.set_record_decisions(on);
    }

    fn last_decision(&self) -> Option<crate::telemetry::DecisionInfo> {
        self.policy.last_decision()
    }

    fn telemetry_snapshot(&self) -> Option<crate::telemetry::PolicyTelemetry> {
        self.policy.telemetry_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;
    use drive_cycle::{DriveCycle, ProfileBuilder};
    use hev_model::HevParams;

    fn hev() -> ParallelHev {
        ParallelHev::new(HevParams::default_parallel_hev(), 0.6).unwrap()
    }

    fn short_cycle() -> DriveCycle {
        ProfileBuilder::new("short")
            .idle(3.0)
            .trip(40.0, 10.0, 15.0, 8.0, 4.0)
            .build()
            .unwrap()
    }

    /// Always asks for something infeasible.
    struct Broken;

    impl HevPolicy for Broken {
        fn decide(&mut self, _hev: &ParallelHev, _obs: &Observation<'_>) -> ControlInput {
            ControlInput {
                battery_current_a: 1e6,
                gear: 99,
                p_aux_w: -5.0,
            }
        }
    }

    /// Emits NaN currents.
    struct Nan;

    impl HevPolicy for Nan {
        fn decide(&mut self, _hev: &ParallelHev, _obs: &Observation<'_>) -> ControlInput {
            ControlInput {
                battery_current_a: f64::NAN,
                gear: 0,
                p_aux_w: 600.0,
            }
        }
    }

    #[test]
    fn supervised_broken_policy_completes_without_plant_fallbacks() {
        let mut hev = hev();
        let cycle = short_cycle();
        let mut supervised = SupervisedPolicy::new(Broken);
        let m = simulate(&mut hev, &cycle, &mut supervised, &RewardConfig::default());
        assert_eq!(m.steps, cycle.len());
        // The supervisor replaced every decision *before* the plant saw
        // it, so the harness's own fallback path never triggered.
        assert_eq!(m.fallback_steps, 0);
        assert_eq!(m.trace_miss_steps, 0);
        let report = m.degradation.expect("supervised episode has a report");
        assert_eq!(report.decisions, cycle.len());
        assert_eq!(report.infeasible, cycle.len());
        assert_eq!(report.fallback_activations(), cycle.len());
        assert_eq!(report.non_finite, 0);
    }

    #[test]
    fn supervised_nan_policy_counts_non_finite() {
        let mut hev = hev();
        let cycle = short_cycle();
        let mut supervised = SupervisedPolicy::new(Nan);
        let m = simulate(&mut hev, &cycle, &mut supervised, &RewardConfig::default());
        let report = m.degradation.unwrap();
        assert_eq!(report.non_finite, cycle.len());
        assert_eq!(report.infeasible, 0);
        assert_eq!(m.fallback_steps, 0);
    }

    #[test]
    fn supervised_sound_policy_is_transparent() {
        // The rule-based baseline only emits controls it has verified
        // feasible, so the supervisor must pass every one through
        // untouched and the metrics must match the unsupervised run.
        let mut hev = hev();
        let cycle = short_cycle();
        let mut plain = RuleBasedController::default();
        let unsupervised = simulate(&mut hev, &cycle, &mut plain, &RewardConfig::default());
        hev.reset_soc(0.6);
        let mut supervised = SupervisedPolicy::new(RuleBasedController::default());
        let m = simulate(&mut hev, &cycle, &mut supervised, &RewardConfig::default());
        let report = m.degradation.unwrap();
        assert_eq!(report.rejections(), 0);
        assert_eq!(report.fallback_activations(), 0);
        assert_eq!(m.fuel_g, unsupervised.fuel_g);
        assert_eq!(m.total_reward, unsupervised.total_reward);
        assert_eq!(m.soc_final, unsupervised.soc_final);
    }

    #[test]
    fn report_resets_each_episode() {
        let mut hev = hev();
        let cycle = short_cycle();
        let mut supervised = SupervisedPolicy::new(Broken);
        simulate(&mut hev, &cycle, &mut supervised, &RewardConfig::default());
        hev.reset_soc(0.6);
        let m = simulate(&mut hev, &cycle, &mut supervised, &RewardConfig::default());
        // Second episode's report covers only its own steps.
        assert_eq!(m.degradation.unwrap().decisions, cycle.len());
    }
}
