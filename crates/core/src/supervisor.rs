//! The degradation chain, and [`SupervisedPolicy`], a safety wrapper
//! around any [`HevPolicy`] that walks it.
//!
//! A deployable controller must never hand the plant a control it
//! cannot execute — yet a learned policy can emit one (an unvisited
//! state, a NaN escaping the function approximator),
//! and fault injection makes this routine: the policy decides on
//! *observed* (noisy, drifted) state while feasibility is judged on the
//! true plant. A candidate is valid when its fields are finite and it
//! passes a [`ParallelHev::peek_with_context`] probe on the step's
//! context over the observation's step length (the predicate the
//! plant's `step` enforces).
//!
//! [`walk`] is the one fallback chain of the supervisor and the
//! `hev-serve` ladder. It returns the first valid candidate, in strictly
//! descending fidelity, entering a tier only while its entry cost fits
//! the eval budget, and records a `(rung, evals)` trail:
//!
//! 1. [`Rung::Full`], then [`Rung::Myopic`] — the best instantaneous
//!    inner-optimized reward over each [`Tier`]'s battery currents (the
//!    move an untrained [`crate::JointController`] makes in a
//!    never-visited state). The sweep completed its winner on the
//!    step's context and step length, so the walk checks only that the
//!    winner's fields are finite;
//! 2. [`Rung::Rule`] — the [`RuleBasedController`] baseline's decision.
//!    Where the rules find no control, the baseline falls back to the
//!    limp-home scan, which this tier then runs in limp-home's place: a
//!    control it finds answers as this rung, and a failed scan ends the
//!    walk with a limp-home entry that spent nothing;
//! 3. [`Rung::LimpHome`] — the scan of [`crate::fallback_control`] on
//!    the step's context, attempted regardless of budget. Every control
//!    it finds passed the validation predicate during the scan. If it
//!    finds none the walk returns the default control as the error: the
//!    supervisor emits it and the harness clips the demand (a trace
//!    miss, never an abort), while the serve session answers a typed
//!    error.
//!
//! [`SupervisedPolicy`] walks [`LadderConfig::unbudgeted`] (one tier,
//! no budget limit) and counts the answering rung in its
//! [`DegradationReport`], which the simulation loop attaches to
//! [`crate::EpisodeMetrics::degradation`]: full or myopic →
//! `myopic_rescues`, rule → `rule_rescues`, limp-home → `limp_home`.
//! The serve session walks [`LadderConfig::default`] under each
//! request's budget.

use crate::action::default_currents;
use crate::baseline::RuleBasedController;
use crate::inner_opt::InnerOptimizer;
use crate::metrics::DegradationReport;
use crate::reward::RewardConfig;
use crate::sim::{scan_fallback, HevPolicy, Observation};
use hev_model::{ControlInput, ParallelHev, StepContext, StepOutcome};
use hev_trace::evals;

/// One tier of the degradation chain, in descending order of fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// The first inner-optimized tier.
    Full,
    /// A later inner-optimized tier (a coarser current subset).
    Myopic,
    /// The rule-based baseline's decision.
    Rule,
    /// The limp-home feasibility search.
    LimpHome,
}

impl Rung {
    /// Ladder position, 0 (full) through 3 (limp-home).
    pub fn index(&self) -> usize {
        *self as usize
    }

    /// A stable snake_case name for logs and wire encoding.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Full => "full",
            Self::Myopic => "myopic",
            Self::Rule => "rule",
            Self::LimpHome => "limp_home",
        }
    }

    /// The profiling span a walk enters on this rung (named for the
    /// serve ladder, whose profile reports them; under the supervisor
    /// they nest in `control.supervise`).
    fn span(&self) -> &'static str {
        match self {
            Self::Full => "serve.ladder.full",
            Self::Myopic => "serve.ladder.myopic",
            Self::Rule => "serve.ladder.rule",
            Self::LimpHome => "serve.ladder.limp_home",
        }
    }
}

/// Why a candidate control failed validation.
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

/// An inner-optimized tier of the chain.
#[derive(Debug, Clone, PartialEq)]
pub struct Tier {
    /// Battery currents the tier resolves gear and auxiliary power for.
    pub currents: Vec<f64>,
    /// Eval cost that gates entry: an upper bound of the tier's search.
    pub cost: u64,
}

/// The degradation chain's configuration: its inner-optimized tiers,
/// the rule tier's entry cost, and the optimizers they run.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderConfig {
    /// The walk's eval budget (the serve ladder's default for a request
    /// that carries none).
    pub budget_evals: u64,
    /// Inner-optimized tiers in walk order: the first answers as
    /// [`Rung::Full`], later ones as [`Rung::Myopic`].
    pub tiers: Vec<Tier>,
    /// Eval cost that gates entry to the rule tier.
    pub rule_cost: u64,
    /// Inner optimizer resolving gear and auxiliary power per current.
    pub inner: InnerOptimizer,
    /// Reward definition the inner-optimized tiers maximize.
    pub reward: RewardConfig,
}

impl Default for LadderConfig {
    /// The serve ladder.
    fn default() -> Self {
        Self {
            // The full tier costs at most gears × (7 grid + 12 refine
            // probes) = 95 evals per current, 1 425 over the 15-current
            // ladder, and the myopic tier 380 over its 4 currents; 4k
            // admits every tier even after the tiers before it searched
            // in full and found nothing. The sweep's skip of
            // settled gears and the gear bound, which stops a gear after
            // one probe, only lower the real cost, so the tier costs are
            // upper bounds, kept at the values set when the search cost
            // 155 per current: they gate rung entry, so lowering them
            // would change which rung answers a request.
            budget_evals: 4000,
            tiers: vec![
                Tier {
                    currents: default_currents(),
                    cost: 2500,
                },
                Tier {
                    currents: vec![-25.0, 0.0, 25.0, 60.0],
                    cost: 700,
                },
            ],
            rule_cost: 50,
            inner: InnerOptimizer::default(),
            reward: RewardConfig::default(),
        }
    }
}

impl LadderConfig {
    /// The supervisor's chain: the serve ladder's full tier alone, with
    /// no budget limit.
    pub fn unbudgeted() -> Self {
        let mut config = Self {
            budget_evals: u64::MAX,
            ..Self::default()
        };
        config.tiers.truncate(1);
        config
    }
}

/// Walks the chain on `obs` (its step context and step length) under
/// `budget` evals, entering a tier only while its entry cost still fits
/// what is left; limp-home is always attempted. Clears `trail`, then
/// records each attempted rung with the evals it spent.
///
/// Returns the first candidate that validates with its rung, or — when
/// the limp-home scan finds no feasible control — the default control as
/// the error.
pub fn walk(
    hev: &ParallelHev,
    obs: &Observation<'_>,
    config: &LadderConfig,
    budget: u64,
    trail: &mut Vec<(Rung, u64)>,
) -> Result<(ControlInput, Rung), ControlInput> {
    let (ctx, dt) = (obs.ctx, obs.dt_s);
    let start = evals::count();
    let fits = |cost: u64| evals::since(start).saturating_add(cost) <= budget;
    trail.clear();
    for (k, tier) in config.tiers.iter().enumerate() {
        if !fits(tier.cost) {
            continue;
        }
        let rung = if k == 0 { Rung::Full } else { Rung::Myopic };
        let _span = hev_trace::span::enter(rung.span());
        let entered = evals::count();
        // The sweep only returns a control it completed on this context
        // and step length, so only its fields need checking.
        let candidate = config
            .inner
            .best_over_currents(hev, ctx, &tier.currents, dt, &config.reward)
            .filter(ControlInput::is_finite);
        trail.push((rung, evals::since(entered)));
        if let Some(control) = candidate {
            return Ok((control, rung));
        }
    }
    if fits(config.rule_cost) {
        let _span = hev_trace::span::enter(Rung::Rule.span());
        let entered = evals::count();
        let answer = match RuleBasedController.try_decide(hev, obs) {
            Some(control) => validate(hev, ctx, &control, dt)
                .is_ok()
                .then_some(Ok(control)),
            None => Some(scan_fallback(hev, ctx, dt)),
        };
        trail.push((Rung::Rule, evals::since(entered)));
        match answer {
            Some(Ok(control)) => return Ok((control, Rung::Rule)),
            Some(Err(control)) => {
                // Limp-home would repeat the scan that just failed.
                trail.push((Rung::LimpHome, 0));
                return Err(control);
            }
            None => {}
        }
    }
    let _span = hev_trace::span::enter(Rung::LimpHome.span());
    let entered = evals::count();
    let scanned = scan_fallback(hev, ctx, dt);
    trail.push((Rung::LimpHome, evals::since(entered)));
    scanned.map(|control| (control, Rung::LimpHome))
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
    config: LadderConfig,
    report: DegradationReport,
}

impl<P: HevPolicy> SupervisedPolicy<P> {
    /// Wraps a policy with the [`LadderConfig::unbudgeted`] chain.
    pub fn new(policy: P) -> Self {
        Self::with_config(policy, LadderConfig::unbudgeted())
    }

    /// Wraps a policy with an explicit chain configuration.
    pub fn with_config(policy: P, config: LadderConfig) -> Self {
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

    /// The intervention report accumulated since the last episode start.
    pub fn report(&self) -> &DegradationReport {
        &self.report
    }
}

impl<P: HevPolicy> HevPolicy for SupervisedPolicy<P> {
    fn begin_episode(&mut self) {
        self.report = DegradationReport::default();
        self.policy.begin_episode();
    }

    fn decide(&mut self, hev: &ParallelHev, obs: &Observation<'_>) -> ControlInput {
        self.report.decisions += 1;
        let proposed = self.policy.decide(hev, obs);
        let _span = hev_trace::span::enter("control.supervise");
        match validate(hev, obs.ctx, &proposed, obs.dt_s) {
            Ok(()) => return proposed,
            Err(Rejection::NonFinite) => self.report.non_finite += 1,
            Err(Rejection::Infeasible) => self.report.infeasible += 1,
        }
        // The report counts only the rung that answered, not the trail.
        let (config, budget) = (&self.config, self.config.budget_evals);
        let walked = walk(hev, obs, config, budget, &mut Vec::new());
        let (control, counter) = match walked {
            Ok((control, Rung::Full | Rung::Myopic)) => (control, &mut self.report.myopic_rescues),
            Ok((control, Rung::Rule)) => (control, &mut self.report.rule_rescues),
            Ok((control, Rung::LimpHome)) | Err(control) => (control, &mut self.report.limp_home),
        };
        *counter += 1;
        control
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
    }

    fn is_learning(&self) -> bool {
        self.policy.is_learning()
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
    use crate::sim::{fallback_control, simulate};
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
        let mut plain = RuleBasedController;
        let unsupervised = simulate(&mut hev, &cycle, &mut plain, &RewardConfig::default());
        hev.reset_soc(0.6);
        let mut supervised = SupervisedPolicy::new(RuleBasedController);
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

    /// Walks the serve ladder on a bare vehicle under `budget`.
    fn serve_walk(
        budget: u64,
        speed: f64,
        accel: f64,
        trail: &mut Vec<(Rung, u64)>,
    ) -> Result<(ControlInput, Rung), ControlInput> {
        let hev = hev();
        let demand = hev.demand(speed, accel, 0.0);
        let ctx = hev.step_context(&demand);
        let config = LadderConfig::default();
        let obs = Observation {
            step: 0,
            time_s: 0.0,
            dt_s: config.reward.dt_s,
            demand: &demand,
            soc: 0.6,
            ctx: &ctx,
        };
        walk(&hev, &obs, &config, budget, trail)
    }

    #[test]
    fn budgets_degrade_monotonically_to_feasible_controls() {
        // Budgets below each tier's entry cost must land on a lower rung.
        let hev = hev();
        let demand = hev.demand(12.0, 0.3, 0.0);
        let mut trail = Vec::new();
        for (budget, expected) in [
            (100_000, Rung::Full),
            (1500, Rung::Myopic),
            (300, Rung::Rule),
            (0, Rung::LimpHome),
        ] {
            let (control, rung) = serve_walk(budget, 12.0, 0.3, &mut trail).unwrap();
            assert_eq!(rung, expected);
            assert!(hev.peek(&demand, &control, 1.0).is_ok(), "{rung:?}");
            // A trail never escalates back up and ends on the rung that
            // answered, which spent evals of its own.
            assert!(trail.windows(2).all(|pair| pair[0].0 < pair[1].0));
            assert_eq!(trail.last().map(|&(r, _)| r), Some(expected));
            assert!(trail.iter().all(|&(_, evals)| evals > 0));
        }
    }

    #[test]
    fn an_inner_optimized_answer_costs_its_sweep_alone() {
        // The walk does not probe the sweep's winner again, so the
        // answering tier's trail entry is exactly the sweep's cost.
        let hev = hev();
        let ctx = hev.step_context(&hev.demand(12.0, 0.3, 0.0));
        let config = LadderConfig::default();
        for (budget, rung, tier) in [(100_000, Rung::Full, 0), (1500, Rung::Myopic, 1)] {
            let mut trail = Vec::new();
            let (control, answered) = serve_walk(budget, 12.0, 0.3, &mut trail).unwrap();
            assert_eq!(answered, rung);
            let snap = hev_trace::evals::count();
            let swept = config.inner.best_over_currents(
                &hev,
                &ctx,
                &config.tiers[tier].currents,
                config.reward.dt_s,
                &config.reward,
            );
            assert_eq!(swept, Some(control));
            assert_eq!(trail, [(rung, hev_trace::evals::since(snap))]);
        }
    }

    #[test]
    fn an_unsteppable_demand_scans_for_a_fallback_once() {
        // 2 m/s² at 30 m/s is beyond the powertrain's envelope: no tier
        // finds a control, and the rule tier's own fallback scan fails.
        let mut trail = Vec::new();
        assert!(serve_walk(100_000, 30.0, 2.0, &mut trail).is_err());
        let rungs: Vec<Rung> = trail.iter().map(|&(rung, _)| rung).collect();
        assert_eq!(
            rungs,
            [Rung::Full, Rung::Myopic, Rung::Rule, Rung::LimpHome]
        );
        // Limp-home does not repeat the scan the rule tier just ran.
        assert_eq!(trail[3], (Rung::LimpHome, 0));
        let hev = hev();
        let ctx = hev.step_context(&hev.demand(30.0, 2.0, 0.0));
        let snap = hev_trace::evals::count();
        fallback_control(&hev, &ctx, 1.0);
        let scan = hev_trace::evals::since(snap);
        assert!(
            (scan..2 * scan).contains(&trail[2].1),
            "rule tier spent {} evals, one scan costs {scan}",
            trail[2].1
        );
    }

    #[test]
    fn zero_budget_still_serves_limp_home() {
        let before = hev_trace::evals::ctx_rebuilds();
        let mut trail = Vec::new();
        let (_, rung) =
            serve_walk(0, 5.0, 0.1, &mut trail).expect("limp-home always answers feasible demands");
        assert_eq!(rung, Rung::LimpHome);
        assert_eq!(trail.len(), 1);
        // The feasibility search completes against the step's context,
        // the only one the walk builds.
        assert_eq!(hev_trace::evals::ctx_rebuilds().wrapping_sub(before), 1);
    }
}
