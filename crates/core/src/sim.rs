//! The episodic simulation harness (the paper's backward-looking control
//! flow, §2.2), and its last-resort fallback scan: the first feasible
//! control of a `fixed_aux_sweep` (`inner_opt.rs`) over fixed currents.

use crate::fault::FaultPlan;
use crate::inner_opt::fixed_aux_sweep;
use crate::metrics::{DegradationReport, EpisodeMetrics};
use crate::plan::CyclePlan;
use crate::reward::RewardConfig;
use crate::telemetry::{self, DecisionInfo, PolicyTelemetry};
use drive_cycle::DriveCycle;
use hev_model::{ContextTable, ControlInput, ParallelHev, StepContext, StepOutcome, WheelDemand};
use hev_trace::StepEvent;

/// A controller-internal failure while producing a control. No
/// controller in this crate has one: a full-space action decodes to a
/// complete control (Eq. 15) and a reduced-space action leaves the rest
/// to the inner optimization, so the type has no values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlError {}

impl std::fmt::Display for ControlError {
    fn fmt(&self, _: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {}
    }
}

impl std::error::Error for ControlError {}

/// What a controller observes before deciding (§4.3.1: all quantities are
/// available from online measurement; the charge via Coulomb counting).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation<'a> {
    /// Step index within the cycle.
    pub step: usize,
    /// Time since cycle start, s.
    pub time_s: f64,
    /// Step length, s: the interval every feasibility check of this
    /// step's candidate controls covers.
    pub dt_s: f64,
    /// Wheel-level demand (from the driver's pedals).
    pub demand: &'a WheelDemand,
    /// Battery state of charge.
    pub soc: f64,
    /// Precomputed step context for this demand (stage 1 of the staged
    /// evaluation pipeline). Controllers that peek many candidate controls
    /// evaluate them against this via [`ParallelHev::peek_with_context`]
    /// instead of re-deriving the gear kinematics per peek.
    pub ctx: &'a StepContext,
}

/// A supervisory HEV controller: decides the control input each step and
/// receives feedback on the realized outcome (learning controllers update
/// themselves in `feedback`).
pub trait HevPolicy {
    /// Called once before each episode.
    fn begin_episode(&mut self) {}

    /// Chooses the control input for the observed state.
    fn decide(&mut self, hev: &ParallelHev, obs: &Observation<'_>) -> ControlInput;

    /// Receives the realized outcome and reward of the decided step.
    fn feedback(
        &mut self,
        hev: &ParallelHev,
        obs: &Observation<'_>,
        outcome: &StepOutcome,
        reward: f64,
    ) {
        let _ = (hev, obs, outcome, reward);
    }

    /// Called once after each episode.
    fn end_episode(&mut self) {}

    /// Whether the policy learns from the episode about to run; telemetry
    /// labels the episode `"train"` when it does and `"eval"` otherwise.
    /// Default: it does not.
    fn is_learning(&self) -> bool {
        false
    }

    /// Takes (and clears) the most recent [`ControlError`] the controller
    /// recorded while deciding, if any. [`ControlError`] has no values,
    /// so this always returns `None`.
    fn take_control_error(&mut self) -> Option<ControlError> {
        None
    }

    /// The supervisor-intervention report accumulated over the current
    /// episode, if this policy tracks one (see
    /// `hev_control::supervisor::SupervisedPolicy`). The simulation loop
    /// attaches it to [`EpisodeMetrics::degradation`] at episode end.
    fn degradation(&self) -> Option<DegradationReport> {
        None
    }

    /// Enables or disables per-decision telemetry recording. Policies
    /// that support it expose each decision via
    /// [`HevPolicy::last_decision`] while enabled; the default ignores
    /// the request, so un-instrumented policies pay nothing.
    fn set_record_decisions(&mut self, on: bool) {
        let _ = on;
    }

    /// The most recent decision's telemetry, when recording is enabled
    /// and the last `decide` chose an action from the policy's own
    /// action space (`None` on fallback paths and for policies that
    /// don't record).
    fn last_decision(&self) -> Option<DecisionInfo> {
        None
    }

    /// The policy's learning-progress snapshot (exploration rate,
    /// TD-error statistics, Q-table occupancy), when recording is
    /// enabled and the policy tracks one.
    fn telemetry_snapshot(&self) -> Option<PolicyTelemetry> {
        None
    }
}

/// The fallback scan's currents, A: a coarse ladder preferring currents
/// near zero, then −80 A to 120 A in 4 A steps, because high-demand points
/// can have narrow feasible current bands (engine near wide-open throttle
/// plus a machine near its torque limit).
#[rustfmt::skip]
const SCAN_CURRENTS: [f64; 62] = [
    0.0, -4.0, 4.0, -8.0, 8.0, -15.0, 15.0, 25.0, -25.0, 50.0, 100.0,
    -80.0, -76.0, -72.0, -68.0, -64.0, -60.0, -56.0, -52.0, -48.0, -44.0, -40.0, -36.0, -32.0,
    -28.0, -24.0, -20.0, -16.0, -12.0, -8.0, -4.0, 0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0,
    28.0, 32.0, 36.0, 40.0, 44.0, 48.0, 52.0, 56.0, 60.0, 64.0, 68.0, 72.0, 76.0, 80.0,
    84.0, 88.0, 92.0, 96.0, 100.0, 104.0, 108.0, 112.0, 116.0, 120.0,
];

/// A last-resort control for the step's context: the first feasible
/// control of a coarse, then a fine current scan over every gear, or a
/// zero-current 1st-gear request when even the fine scan fails (the
/// simulation harness then clips the demand — a "trace miss", as
/// backward-looking simulators such as ADVISOR report).
pub fn fallback_control(hev: &ParallelHev, ctx: &StepContext, dt: f64) -> ControlInput {
    scan_fallback(hev, ctx, dt).unwrap_or_else(|default| default)
}

/// [`fallback_control`] with the scan's verdict: `Ok` with the first
/// feasible `(current, gear)` over [`SCAN_CURRENTS`], gears ascending, at
/// the preferred and then the minimum auxiliary power, or `Err` with the
/// zero-current 1st-gear request when none is. Every candidate scores
/// `+∞`, so the sweep stops at the first feasible one.
pub(crate) fn scan_fallback(
    hev: &ParallelHev,
    ctx: &StepContext,
    dt: f64,
) -> Result<ControlInput, ControlInput> {
    let (aux_min, _) = hev.aux().power_range();
    let first = |aux| {
        let any = |_: &StepOutcome| f64::INFINITY;
        fixed_aux_sweep(hev, ctx, &SCAN_CURRENTS, aux, dt, any, |_, c, _, _| c)
    };
    first(hev.aux().preferred_power())
        .or_else(|| first(aux_min))
        .ok_or(ControlInput {
            battery_current_a: 0.0,
            gear: 0,
            p_aux_w: hev.aux().preferred_power(),
        })
}

/// Scales a wheel demand's torque/force/power by `factor`, keeping the
/// kinematics (speed, wheel speed) intact — used for trace-miss clipping.
fn scale_demand(demand: &WheelDemand, factor: f64) -> WheelDemand {
    WheelDemand {
        tractive_force_n: demand.tractive_force_n * factor,
        wheel_torque_nm: demand.wheel_torque_nm * factor,
        power_demand_w: demand.power_demand_w * factor,
        ..*demand
    }
}

/// Simulates one driving cycle under a controller, returning the episode
/// metrics. The vehicle's battery state carries across steps; callers
/// reset it between episodes if desired.
///
/// Infeasible controller decisions are replaced by [`fallback_control`]
/// and counted in [`EpisodeMetrics::fallback_steps`].
pub fn simulate(
    hev: &mut ParallelHev,
    cycle: &DriveCycle,
    controller: &mut dyn HevPolicy,
    reward: &RewardConfig,
) -> EpisodeMetrics {
    simulate_with_faults(hev, cycle, controller, reward, None)
}

/// [`simulate`] with an optional fault-injection plan.
///
/// With `faults: None` this *is* `simulate` — no variate is drawn and
/// every step is bit-identical to the unfaulted harness. With a plan,
/// each step first applies the active motor derating (before the step
/// context is built, so the per-gear torque tables see the derated
/// envelope), then perturbs the *observation* handed to the controller
/// (SOC noise/drift, speed-measurement noise) while the plant steps on
/// the truth, and finally adds any active auxiliary-load disturbance to
/// the decided control (clamped to the auxiliary unit's range). Plant
/// degradation (capacity fade) is applied separately, once per vehicle,
/// via [`FaultPlan::degrade_plant`].
pub fn simulate_with_faults(
    hev: &mut ParallelHev,
    cycle: &DriveCycle,
    controller: &mut dyn HevPolicy,
    reward: &RewardConfig,
    faults: Option<&mut FaultPlan>,
) -> EpisodeMetrics {
    simulate_core(hev, cycle, None, controller, reward, faults)
}

/// [`simulate`] against a precomputed [`CyclePlan`]: bit-identical to the
/// per-step path, but the per-step demand and context precompute comes
/// from the plan's shared table, so a steady-state episode records zero
/// `ctx_rebuilds`.
pub fn simulate_planned(
    hev: &mut ParallelHev,
    plan: &CyclePlan,
    controller: &mut dyn HevPolicy,
    reward: &RewardConfig,
) -> EpisodeMetrics {
    simulate_core(
        hev,
        plan.cycle(),
        Some(plan.table()),
        controller,
        reward,
        None,
    )
}

/// The one simulation loop behind every public entry point. With
/// `table: None` each step derives its demand and rebuilds its context;
/// with a table both come precomputed. Fault-injected steps whose motor
/// derate is active bypass the table for exactly those steps (the
/// derated envelope changes the per-gear torque tables) and rebuild
/// locally — counted, because those rebuilds are real.
///
/// When a telemetry window is open on this thread
/// ([`crate::telemetry::begin_task`]), the episode records into it:
/// each step is offered to the trace sampler and the flight ring, and
/// the flight ring is dumped into the trace stream the first time a
/// step degrades — a non-finite control reaches the plant or the
/// supervisor's rejection count grows. With no window open, no decision
/// recording is switched on and no step events are built.
fn simulate_core(
    hev: &mut ParallelHev,
    cycle: &DriveCycle,
    table: Option<&ContextTable>,
    controller: &mut dyn HevPolicy,
    reward: &RewardConfig,
    mut faults: Option<&mut FaultPlan>,
) -> EpisodeMetrics {
    let mut collector = telemetry::take_collector();
    let dt = cycle.dt();
    let mut metrics = EpisodeMetrics::new(hev.soc());
    // One step context per step, its gear table reused across the whole
    // episode: the controller's mask/argmax/act evaluations and the final
    // apply all complete against the same precomputed kinematics. When a
    // cycle table is supplied this scratch serves only derated steps.
    let mut ctx = StepContext::default();
    if let Some(plan) = faults.as_deref_mut() {
        plan.begin_episode(cycle.duration_s());
    }
    if let Some(t) = collector.as_mut() {
        controller.set_record_decisions(true);
        t.kind = if controller.is_learning() {
            "train"
        } else {
            "eval"
        };
        t.begin_episode();
    }
    controller.begin_episode();
    for (step, point) in cycle.points().enumerate() {
        let mut derate = 1.0;
        if let Some(plan) = faults.as_deref() {
            derate = plan.motor_derate_at(point.time_s);
            hev.set_motor_derate(derate);
        }
        let owned_demand;
        let demand: &WheelDemand = match table {
            Some(tab) => tab.demand(step),
            None => {
                owned_demand = hev.demand(point.speed_mps, point.accel_mps2, point.grade);
                &owned_demand
            }
        };
        let ctx_ref: &StepContext = match table {
            // The table was built healthy; a derated motor envelope
            // changes the per-gear torque tables, so those steps rebuild
            // locally (and are counted — the rebuild is real).
            // hevlint::allow(float::eq, exact sentinel: motor_derate_at returns literal 1.0 outside the fault window; the value is configuration, not an arithmetic result)
            Some(tab) if derate == 1.0 => tab.context(step),
            _ => {
                hev.rebuild_context(&mut ctx, demand);
                &ctx
            }
        };
        let (observed_soc, observed_demand) = match faults.as_deref_mut() {
            Some(plan) => plan.sensor(point.time_s, hev.soc(), demand),
            None => (hev.soc(), *demand),
        };
        let obs = Observation {
            step,
            time_s: point.time_s,
            dt_s: dt,
            demand: &observed_demand,
            soc: observed_soc,
            ctx: ctx_ref,
        };
        let _span = hev_trace::span::enter("control.step");
        let mut control = controller.decide(hev, &obs);
        if let Some(plan) = faults.as_deref() {
            let extra_w = plan.aux_disturbance_at(point.time_s);
            if extra_w > 0.0 {
                let (_, aux_max) = hev.aux().power_range();
                control.p_aux_w = (control.p_aux_w + extra_w).min(aux_max);
            }
        }
        let (outcome, was_fallback) = match hev.step_with_context(ctx_ref, &control, dt) {
            Ok(o) => (o, false),
            Err(_) => (step_with_fallback(hev, ctx_ref, dt, &mut metrics), true),
        };
        let r = reward.reward(&outcome);
        metrics.record(
            &outcome,
            reward.paper_reward(&outcome),
            point.speed_mps * dt,
            was_fallback,
        );
        if let Some(t) = collector.as_mut() {
            let info = controller.last_decision();
            t.record_step(&StepEvent {
                episode: t.episode,
                kind: t.kind,
                step: step as u64,
                time_s: point.time_s,
                p_dem_w: observed_demand.power_demand_w,
                speed_mps: observed_demand.speed_mps,
                soc: observed_soc,
                prediction_w: info.map_or(0.0, |i| i.prediction_w),
                state: info.map(|i| i.state as u64),
                feasible: info.map(|i| i.feasible as u64),
                action: info.map(|i| i.action as u64),
                current_a: control.battery_current_a,
                gear: control.gear as u64,
                p_aux_w: control.p_aux_w,
                reward: r,
                fuel_g: outcome.fuel_g,
                aux_term: reward.aux_weight * outcome.aux_utility * reward.dt_s,
                soc_after: outcome.soc_after,
                fallback: was_fallback,
            });
            let control_finite =
                control.battery_current_a.is_finite() && control.p_aux_w.is_finite();
            let rejections = controller.degradation().map_or(0, |d| d.rejections());
            t.note_step_health(step as u64, control_finite, rejections);
        }
        controller.feedback(hev, &obs, &outcome, r);
    }
    if faults.is_some() {
        // Leave the vehicle healthy for the next (differently-windowed)
        // episode; begin_episode re-applies the next window.
        hev.set_motor_derate(1.0);
    }
    controller.end_episode();
    metrics.degradation = controller.degradation();
    if let Some(mut t) = collector {
        t.end_episode(&metrics, reward, controller.telemetry_snapshot());
        controller.set_record_decisions(false);
        telemetry::restore_collector(t);
    }
    metrics
}

/// Applies the best feasible control on the step's context, clipping
/// the demand when the powertrain cannot deliver it at all (trace miss).
fn step_with_fallback(
    hev: &mut ParallelHev,
    ctx: &StepContext,
    dt: f64,
    metrics: &mut EpisodeMetrics,
) -> StepOutcome {
    // The control was verified feasible, so `step` succeeds; on the
    // impossible failure we fall through to the clipping loop instead of
    // panicking the episode.
    if let Ok(c) = scan_fallback(hev, ctx, dt) {
        if let Ok(outcome) = hev.step_with_context(ctx, &c, dt) {
            return outcome;
        }
    }
    let demand = ctx.demand();
    // Trace miss: the demand exceeds the powertrain's capability; deliver
    // as much as possible (ADVISOR reports the same condition).
    metrics.trace_miss_steps += 1;
    let mut factor = 0.9;
    for _ in 0..60 {
        let clipped = scale_demand(demand, factor);
        if let Ok(c) = scan_fallback(hev, &hev.step_context(&clipped), dt) {
            if let Ok(outcome) = hev.step(&clipped, &c, dt) {
                return outcome;
            }
        }
        factor *= 0.9;
    }
    // Park the vehicle for one step: a zero demand with the idle-load
    // control is the most conservative request the plant accepts. With a
    // hostile (but finite) demand even 0.9^60 clipping can fail, and an
    // episode must never panic the process — serving quarantine depends
    // on library code staying total.
    let parked = ControlInput {
        battery_current_a: 0.0,
        gear: 0,
        p_aux_w: hev.aux().preferred_power(),
    };
    if let Ok(outcome) = hev.step(&WheelDemand::default(), &parked, dt) {
        return outcome;
    }
    // Even parking failed (e.g. the battery window rejects the idle
    // load): freeze the plant for this step and report an all-zero
    // stopped outcome. The step still counts as a trace miss above.
    StepOutcome {
        mode: hev_model::OperatingMode::Stopped,
        fuel_rate_g_per_s: 0.0,
        fuel_g: 0.0,
        engine_started: false,
        ice_torque_nm: 0.0,
        ice_speed_rad_s: 0.0,
        em_torque_nm: 0.0,
        em_speed_rad_s: 0.0,
        battery_current_a: 0.0,
        battery_power_w: 0.0,
        p_aux_w: 0.0,
        aux_utility: 0.0,
        friction_brake_torque_nm: 0.0,
        soc_before: hev.soc(),
        soc_after: hev.soc(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drive_cycle::ProfileBuilder;
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

    /// A controller that always asks for something infeasible, to
    /// exercise the fallback path.
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

    /// A controller that lets the fallback drive (decides something
    /// reasonable).
    struct Passive;

    impl HevPolicy for Passive {
        fn decide(&mut self, hev: &ParallelHev, obs: &Observation<'_>) -> ControlInput {
            fallback_control(hev, obs.ctx, obs.dt_s)
        }
    }

    #[test]
    fn fallback_covers_whole_cycle() {
        let mut hev = hev();
        let m = simulate(
            &mut hev,
            &short_cycle(),
            &mut Broken,
            &RewardConfig::default(),
        );
        assert_eq!(m.steps, short_cycle().len());
        assert_eq!(m.fallback_steps, m.steps);
        assert!(m.fuel_g >= 0.0);
    }

    #[test]
    fn passive_controller_completes_without_fallback() {
        let mut hev = hev();
        let m = simulate(
            &mut hev,
            &short_cycle(),
            &mut Passive,
            &RewardConfig::default(),
        );
        assert_eq!(m.fallback_steps, 0);
        assert!(m.distance_m > 100.0);
    }

    #[test]
    fn fallback_control_is_feasible_across_operating_points() {
        let hev = hev();
        for (v, a) in [
            (0.0, 0.0),
            (2.0, 0.8),
            (10.0, 1.0),
            (20.0, 0.0),
            (25.0, -2.0),
            (5.0, -1.0),
        ] {
            let d = hev.demand(v, a, 0.0);
            let c = fallback_control(&hev, &hev.step_context(&d), 1.0);
            assert!(hev.peek(&d, &c, 1.0).is_ok(), "v={v} a={a}");
        }
    }

    #[test]
    fn impossible_demand_clips_as_trace_miss() {
        // 2 m/s² at 108+ km/h needs ≈ 100 kW at the wheels — beyond the
        // powertrain's ≈ 80 kW total: no control exists and the harness
        // must clip the demand, not panic.
        let mut hev = hev();
        let speeds: Vec<f64> = (0..6).map(|i| 30.0 + 2.0 * i as f64).collect();
        let c = DriveCycle::from_speeds_mps("impossible", 1.0, speeds).unwrap();
        let m = simulate(&mut hev, &c, &mut Passive, &RewardConfig::default());
        assert_eq!(m.steps, c.len());
        assert!(m.trace_miss_steps > 0, "expected trace misses");
        assert!((0.40..=0.80).contains(&m.soc_final));
    }

    #[test]
    fn hostile_finite_demand_never_panics_the_fallback() {
        // A demand so large that even 0.9^60 clipping leaves it far
        // beyond the powertrain's envelope: the fallback must park the
        // vehicle and return a finite outcome, never panic — serving
        // sessions run episodes in library code where a panic would
        // trigger a quarantine.
        let mut hev = hev();
        let hostile = WheelDemand {
            speed_mps: 1e12,
            accel_mps2: 1e12,
            grade: 0.9,
            tractive_force_n: 1e15,
            wheel_torque_nm: 1e15,
            wheel_speed_rad_s: 1e12,
            power_demand_w: 1e18,
        };
        let mut m = EpisodeMetrics::new(hev.soc());
        let ctx = hev.step_context(&hostile);
        let outcome = step_with_fallback(&mut hev, &ctx, 1.0, &mut m);
        assert_eq!(m.trace_miss_steps, 1);
        assert!(outcome.soc_after.is_finite());
        assert!(outcome.fuel_g.is_finite());
        assert!(hev.soc().is_finite());
    }

    #[test]
    fn metrics_track_soc_endpoints() {
        let mut hev = hev();
        let m = simulate(
            &mut hev,
            &short_cycle(),
            &mut Passive,
            &RewardConfig::default(),
        );
        assert_eq!(m.soc_initial, 0.6);
        assert_eq!(m.soc_final, hev.soc());
    }

    fn assert_metrics_bit_identical(a: &EpisodeMetrics, b: &EpisodeMetrics) {
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.fallback_steps, b.fallback_steps);
        assert_eq!(a.trace_miss_steps, b.trace_miss_steps);
        assert_eq!(a.fuel_g.to_bits(), b.fuel_g.to_bits());
        assert_eq!(a.distance_m.to_bits(), b.distance_m.to_bits());
        assert_eq!(a.total_reward.to_bits(), b.total_reward.to_bits());
        assert_eq!(a.soc_final.to_bits(), b.soc_final.to_bits());
    }

    #[test]
    fn planned_episode_is_bit_identical_to_per_step_path() {
        let cycle = short_cycle();
        let mut unplanned_hev = hev();
        let baseline = simulate(
            &mut unplanned_hev,
            &cycle,
            &mut Passive,
            &RewardConfig::default(),
        );
        let mut planned_hev = hev();
        let plan = CyclePlan::new(&planned_hev, &cycle);
        let planned = simulate_planned(
            &mut planned_hev,
            &plan,
            &mut Passive,
            &RewardConfig::default(),
        );
        assert_metrics_bit_identical(&baseline, &planned);
        assert_eq!(
            planned_hev.soc().to_bits(),
            unplanned_hev.soc().to_bits(),
            "plant state must agree after the episode"
        );
    }

    #[test]
    fn planned_episode_skips_the_loop_rebuilds() {
        // `Passive` decides via `fallback_control` on the step's own
        // context, so the per-step loop's rebuild is the only one, and
        // the plan amortizes it away.
        let cycle = short_cycle();
        let mut a = hev();
        let before = hev_trace::evals::ctx_rebuilds();
        simulate(&mut a, &cycle, &mut Passive, &RewardConfig::default());
        let unplanned = hev_trace::evals::ctx_rebuilds().wrapping_sub(before);
        let mut b = hev();
        let plan = CyclePlan::new(&b, &cycle);
        let before = hev_trace::evals::ctx_rebuilds();
        simulate_planned(&mut b, &plan, &mut Passive, &RewardConfig::default());
        let planned = hev_trace::evals::ctx_rebuilds().wrapping_sub(before);
        assert_eq!(unplanned, cycle.len() as u64);
        assert_eq!(planned, 0);
    }

    #[test]
    fn planned_faulted_episode_matches_per_step_path() {
        let cycle = short_cycle();
        // The 180 s derate window at severity 1 outlasts the cycle, so
        // every step from its drawn start on runs derated and bypasses
        // the table.
        let mut probe = FaultPlan::new(1.0, 7);
        probe.begin_episode(cycle.duration_s());
        let derated = cycle
            .points()
            .filter(|p| probe.motor_derate_at(p.time_s) < 1.0)
            .count();
        assert!(derated > 0, "no step ran derated");
        let mut unplanned_hev = hev();
        let mut faults = FaultPlan::new(1.0, 7);
        let baseline = simulate_with_faults(
            &mut unplanned_hev,
            &cycle,
            &mut Passive,
            &RewardConfig::default(),
            Some(&mut faults),
        );
        let mut planned_hev = hev();
        let plan = CyclePlan::new(&planned_hev, &cycle);
        let mut faults = FaultPlan::new(1.0, 7);
        let planned = simulate_core(
            &mut planned_hev,
            plan.cycle(),
            Some(plan.table()),
            &mut Passive,
            &RewardConfig::default(),
            Some(&mut faults),
        );
        assert_metrics_bit_identical(&baseline, &planned);
    }

    #[test]
    fn simulation_preserves_step_count_and_distance() {
        let mut hev = hev();
        let cycle = short_cycle();
        let m = simulate(&mut hev, &cycle, &mut Passive, &RewardConfig::default());
        assert_eq!(m.steps, cycle.len());
        // Trapezoid vs rectangle integration differ slightly.
        assert!((m.distance_m - cycle.distance_m()).abs() / cycle.distance_m() < 0.05);
    }
}
