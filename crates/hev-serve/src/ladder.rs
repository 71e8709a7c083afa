//! The degradation ladder: deadline-budgeted control synthesis.
//!
//! A request's deadline is an **eval-count budget** — virtual time read
//! from the `hev_trace::evals` thread-local counter, so "time" is a
//! pure function of the work performed and deterministic at every shard
//! count. The responder walks four tiers in strictly descending
//! fidelity (the same chain `hev_control::SupervisedPolicy` degrades
//! through), entering a tier only while its estimated cost still fits
//! the remaining budget:
//!
//! 1. [`Rung::Full`] — inner-optimized resolve
//!    over the full battery-current ladder;
//! 2. [`Rung::Myopic`] — the same resolve
//!    over a coarse current subset;
//! 3. [`Rung::Rule`] — the rule-based
//!    baseline's decision;
//! 4. [`Rung::LimpHome`] — the feasibility
//!    search of [`fallback_control_in`] on the request's context,
//!    attempted regardless of budget so a response is always produced.
//!
//! Every candidate is validated the supervisor's way — finite fields
//! plus a `peek_with_context` feasibility probe — so a served control
//! is never infeasible and never non-finite. The walk can only move
//! down the ladder, never back up (the monotonicity the admission
//! proptests pin).

use crate::wire::Rung;
use hev_control::sim::{fallback_control_in, HevPolicy, Observation};
use hev_control::{default_currents, InnerOptimizer, RewardConfig, RuleBasedController};
use hev_model::{ControlInput, ParallelHev, StepContext, WheelDemand};
use hev_trace::evals;

/// Ladder tuning: the service-default budget, per-tier cost estimates,
/// and the optimizers each tier runs.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderConfig {
    /// Default per-request eval budget when the request carries none.
    pub budget_evals: u64,
    /// Estimated eval cost of the full tier (gates entry).
    pub full_cost: u64,
    /// Estimated eval cost of the myopic tier (gates entry).
    pub myopic_cost: u64,
    /// Estimated eval cost of the rule tier (gates entry).
    pub rule_cost: u64,
    /// Battery-current ladder of the full tier.
    pub currents: Vec<f64>,
    /// Coarse battery-current subset of the myopic tier.
    pub myopic_currents: Vec<f64>,
    /// Inner optimizer resolving gear and auxiliary power per current.
    pub inner: InnerOptimizer,
    /// Reward definition (also supplies the step duration `dt_s` used by
    /// every feasibility check and committed step).
    pub reward: RewardConfig,
}

impl Default for LadderConfig {
    fn default() -> Self {
        Self {
            // The full tier costs at most gears × (7 grid + 12 refine
            // probes) = 95 evals per current, 1 425 over the 15-current
            // ladder, and the myopic tier 380 over its 4 currents; 4k
            // leaves headroom for validation probes. The sweep's skip of
            // settled gears only lowers the real cost, so `full_cost` and
            // `myopic_cost` are upper bounds, kept at the values set when
            // the search cost 155 per current: they gate rung entry, so
            // lowering them would change which rung answers a request.
            budget_evals: 4000,
            full_cost: 2500,
            myopic_cost: 700,
            rule_cost: 50,
            currents: default_currents(),
            myopic_currents: vec![-25.0, 0.0, 25.0, 60.0],
            inner: InnerOptimizer::default(),
            reward: RewardConfig::default(),
        }
    }
}

/// What one ladder walk produced.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderOutcome {
    /// The winning control (validated feasible and finite).
    pub control: ControlInput,
    /// The tier that produced it.
    pub rung: Rung,
    /// Every tier attempted, in walk order (strictly descending — the
    /// ladder never escalates back up within one request).
    pub trail: Vec<Rung>,
    /// Evaluations each attempted tier spent, parallel to `trail` — the
    /// per-rung cost attribution a causal request trace reports.
    pub trail_evals: Vec<u64>,
    /// Peek-equivalent evaluations the walk spent.
    pub evals: u64,
}

/// Supervisor-style validation: finite fields plus the step's
/// feasibility probe.
fn validate(hev: &ParallelHev, ctx: &StepContext, control: &ControlInput, dt: f64) -> bool {
    control.is_finite() && hev.peek_with_context(ctx, control, dt).is_ok()
}

/// Walks the ladder under `budget` evals and returns the first tier
/// whose candidate validates, or `None` when even limp-home is
/// infeasible (the caller maps that to a typed error — it is never a
/// panic and never an infeasible served control).
///
/// `step`, `time_s`, and `obs_soc` describe the (possibly
/// sensor-faulted) observation handed to the rule tier.
#[allow(clippy::too_many_arguments)]
pub fn decide(
    hev: &ParallelHev,
    ctx: &StepContext,
    demand: &WheelDemand,
    config: &LadderConfig,
    rule: &mut RuleBasedController,
    budget: u64,
    step: usize,
    time_s: f64,
    obs_soc: f64,
) -> Option<LadderOutcome> {
    let dt = config.reward.dt_s;
    let start = evals::count();
    let mut trail = Vec::with_capacity(4);
    let mut trail_evals = Vec::with_capacity(4);

    if config.full_cost <= budget {
        let _span = hev_trace::span::enter("serve.ladder.full");
        trail.push(Rung::Full);
        let tier = evals::count();
        let candidate = config
            .inner
            .best_over_currents(hev, ctx, &config.currents, dt, &config.reward)
            .filter(|control| validate(hev, ctx, control, dt));
        trail_evals.push(evals::since(tier));
        if let Some(control) = candidate {
            return Some(LadderOutcome {
                control,
                rung: Rung::Full,
                trail,
                trail_evals,
                evals: evals::since(start),
            });
        }
    }

    if evals::since(start) + config.myopic_cost <= budget {
        let _span = hev_trace::span::enter("serve.ladder.myopic");
        trail.push(Rung::Myopic);
        let tier = evals::count();
        let candidate = config
            .inner
            .best_over_currents(hev, ctx, &config.myopic_currents, dt, &config.reward)
            .filter(|control| validate(hev, ctx, control, dt));
        trail_evals.push(evals::since(tier));
        if let Some(control) = candidate {
            return Some(LadderOutcome {
                control,
                rung: Rung::Myopic,
                trail,
                trail_evals,
                evals: evals::since(start),
            });
        }
    }

    if evals::since(start) + config.rule_cost <= budget {
        let _span = hev_trace::span::enter("serve.ladder.rule");
        trail.push(Rung::Rule);
        let tier = evals::count();
        let obs = Observation {
            step,
            time_s,
            dt_s: dt,
            demand,
            soc: obs_soc,
            ctx,
        };
        let control = rule.decide(hev, &obs);
        let ok = validate(hev, ctx, &control, dt);
        trail_evals.push(evals::since(tier));
        if ok {
            return Some(LadderOutcome {
                control,
                rung: Rung::Rule,
                trail,
                trail_evals,
                evals: evals::since(start),
            });
        }
    }

    // Limp-home is attempted regardless of remaining budget: a response
    // must always be produced, and this tier is the cheapest.
    let _span = hev_trace::span::enter("serve.ladder.limp_home");
    trail.push(Rung::LimpHome);
    let tier = evals::count();
    let control = fallback_control_in(hev, ctx, dt);
    let ok = validate(hev, ctx, &control, dt);
    trail_evals.push(evals::since(tier));
    if ok {
        return Some(LadderOutcome {
            control,
            rung: Rung::LimpHome,
            trail,
            trail_evals,
            evals: evals::since(start),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use hev_model::HevParams;

    fn hev() -> ParallelHev {
        ParallelHev::new(HevParams::default_parallel_hev(), 0.6).unwrap()
    }

    fn walk(budget: u64, speed: f64, accel: f64) -> Option<LadderOutcome> {
        let hev = hev();
        let demand = hev.demand(speed, accel, 0.0);
        let ctx = hev.step_context(&demand);
        let config = LadderConfig::default();
        let mut rule = RuleBasedController::default();
        rule.begin_episode();
        decide(&hev, &ctx, &demand, &config, &mut rule, budget, 0, 0.0, 0.6)
    }

    #[test]
    fn generous_budget_serves_from_the_full_tier() {
        let out = walk(100_000, 12.0, 0.3).expect("feasible demand must be served");
        assert_eq!(out.rung, Rung::Full);
        assert_eq!(out.trail, vec![Rung::Full]);
        assert!(out.control.is_finite());
        assert!(out.evals > 0);
    }

    #[test]
    fn tight_budgets_degrade_monotonically() {
        // Budgets below each tier's entry cost must land on a lower rung.
        let full = walk(100_000, 12.0, 0.3).unwrap();
        let myopic = walk(1500, 12.0, 0.3).unwrap();
        let rule = walk(300, 12.0, 0.3).unwrap();
        let limp = walk(0, 12.0, 0.3).unwrap();
        assert_eq!(full.rung, Rung::Full);
        assert_eq!(myopic.rung, Rung::Myopic);
        assert_eq!(rule.rung, Rung::Rule);
        assert_eq!(limp.rung, Rung::LimpHome);
        // A trail never escalates back up, and every attempted tier
        // carries its own eval cost (summing to no more than the walk's
        // total — validation probes outside a tier are walk overhead).
        for out in [full, myopic, rule, limp] {
            for pair in out.trail.windows(2) {
                assert!(pair[0].index() < pair[1].index());
            }
            assert_eq!(*out.trail.last().unwrap(), out.rung);
            assert_eq!(out.trail_evals.len(), out.trail.len());
            assert!(out.trail_evals.iter().sum::<u64>() <= out.evals);
        }
    }

    #[test]
    fn zero_budget_still_serves_limp_home() {
        let before = evals::ctx_rebuilds();
        let out = walk(0, 5.0, 0.1).expect("limp-home always answers feasible demands");
        assert_eq!(out.rung, Rung::LimpHome);
        assert_eq!(out.trail, vec![Rung::LimpHome]);
        // The feasibility search completes against the request's context,
        // the only one the walk builds.
        assert_eq!(evals::ctx_rebuilds().wrapping_sub(before), 1);
    }

    #[test]
    fn served_controls_are_always_feasible() {
        let hev = hev();
        for (budget, speed, accel) in [(100_000, 20.0, 1.0), (1500, 8.0, -0.5), (0, 0.0, 0.0)] {
            if let Some(out) = walk(budget, speed, accel) {
                let demand = hev.demand(speed, accel, 0.0);
                let ctx = hev.step_context(&demand);
                assert!(hev
                    .peek_with_context(&ctx, &out.control, RewardConfig::default().dt_s)
                    .is_ok());
            }
        }
    }
}
