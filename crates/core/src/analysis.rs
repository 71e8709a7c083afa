//! Trace recording and energy accounting for simulated episodes.
//!
//! [`Recorder`] wraps any [`HevPolicy`] and captures every step's
//! [`StepOutcome`]; [`EnergyAudit`] aggregates a recorded trace into the
//! energy flows engineers actually inspect (engine output, electric
//! drive, regeneration, friction losses, auxiliary draw).

use crate::metrics::DegradationReport;
use crate::sim::{ControlError, HevPolicy, Observation};
use crate::telemetry::{DecisionInfo, PolicyTelemetry};
use hev_model::{ControlInput, ParallelHev, StepOutcome, WheelDemand};
use serde::{Deserialize, Serialize};

/// One recorded step: the observation scalars plus the realized outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TracePoint {
    /// Time since episode start, s.
    pub time_s: f64,
    /// Vehicle speed, m/s.
    pub speed_mps: f64,
    /// Propulsion power demand, W.
    pub power_demand_w: f64,
    /// Wheel speed, rad/s (the vehicle's own wheel radius applied).
    pub wheel_speed_rad_s: f64,
    /// The realized outcome.
    pub outcome: StepOutcome,
    /// The reward received.
    pub reward: f64,
}

/// Records the full step-by-step trace of an episode while delegating
/// decisions to an inner policy.
///
/// # Examples
///
/// ```no_run
/// use drive_cycle::StandardCycle;
/// use hev_control::analysis::{EnergyAudit, Recorder};
/// use hev_control::{simulate, RewardConfig, RuleBasedController};
/// use hev_model::{HevParams, ParallelHev};
///
/// let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6)?;
/// let mut rec = Recorder::new(RuleBasedController);
/// simulate(&mut hev, &StandardCycle::Udds.cycle(), &mut rec, &RewardConfig::default());
/// let audit = EnergyAudit::of(rec.trace());
/// println!("regenerated {:.0} Wh", audit.regen_wh);
/// # Ok::<(), hev_model::ParamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Recorder<P> {
    inner: P,
    trace: Vec<TracePoint>,
    pending: Option<(f64, WheelDemand)>,
}

impl<P: HevPolicy> Recorder<P> {
    /// Wraps a policy.
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            trace: Vec::new(),
            pending: None,
        }
    }

    /// The recorded trace (cleared at each episode start).
    pub fn trace(&self) -> &[TracePoint] {
        &self.trace
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: HevPolicy> HevPolicy for Recorder<P> {
    fn begin_episode(&mut self) {
        self.trace.clear();
        self.pending = None;
        self.inner.begin_episode();
    }

    fn decide(&mut self, hev: &ParallelHev, obs: &Observation<'_>) -> ControlInput {
        self.pending = Some((obs.time_s, *obs.demand));
        self.inner.decide(hev, obs)
    }

    fn feedback(
        &mut self,
        hev: &ParallelHev,
        obs: &Observation<'_>,
        outcome: &StepOutcome,
        reward: f64,
    ) {
        if let Some((time_s, demand)) = self.pending.take() {
            self.trace.push(TracePoint {
                time_s,
                speed_mps: demand.speed_mps,
                power_demand_w: demand.power_demand_w,
                wheel_speed_rad_s: demand.wheel_speed_rad_s,
                outcome: *outcome,
                reward,
            });
        }
        self.inner.feedback(hev, obs, outcome, reward);
    }

    fn end_episode(&mut self) {
        self.inner.end_episode();
    }

    fn take_control_error(&mut self) -> Option<ControlError> {
        self.inner.take_control_error()
    }

    fn degradation(&self) -> Option<DegradationReport> {
        self.inner.degradation()
    }

    fn set_record_decisions(&mut self, on: bool) {
        self.inner.set_record_decisions(on);
    }

    fn last_decision(&self) -> Option<DecisionInfo> {
        self.inner.last_decision()
    }

    fn telemetry_snapshot(&self) -> Option<PolicyTelemetry> {
        self.inner.telemetry_snapshot()
    }
}

/// Aggregated energy flows of one episode, in watt-hours.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyAudit {
    /// Mechanical energy the engine delivered.
    pub engine_wh: f64,
    /// Mechanical energy the machine delivered while motoring.
    pub electric_drive_wh: f64,
    /// Electrical energy recovered into the pack during regeneration
    /// (negative battery power while braking).
    pub regen_wh: f64,
    /// Energy dissipated in the friction brakes.
    pub friction_wh: f64,
    /// Energy consumed by the auxiliary systems.
    pub aux_wh: f64,
    /// Net battery energy drawn (positive = net discharge).
    pub battery_net_wh: f64,
    /// Number of engine starts.
    pub engine_starts: usize,
    /// Seconds per operating mode, indexed as
    /// [`crate::metrics::mode_index`].
    pub mode_seconds: [f64; 7],
}

impl EnergyAudit {
    /// Aggregates a recorded trace (assumes 1 s steps scaled by the trace
    /// spacing; with uniform sampling this is exact).
    pub fn of(trace: &[TracePoint]) -> Self {
        let dt = if trace.len() >= 2 {
            trace[1].time_s - trace[0].time_s
        } else {
            1.0
        };
        let to_wh = dt / 3600.0;
        let mut audit = EnergyAudit {
            engine_wh: 0.0,
            electric_drive_wh: 0.0,
            regen_wh: 0.0,
            friction_wh: 0.0,
            aux_wh: 0.0,
            battery_net_wh: 0.0,
            engine_starts: 0,
            mode_seconds: [0.0; 7],
        };
        for p in trace {
            let o = &p.outcome;
            audit.engine_wh += o.ice_torque_nm * o.ice_speed_rad_s * to_wh;
            if o.em_torque_nm > 0.0 {
                audit.electric_drive_wh += o.em_torque_nm * o.em_speed_rad_s * to_wh;
            }
            if o.battery_power_w < 0.0 {
                audit.regen_wh += -o.battery_power_w * to_wh;
            }
            // Friction torque acts at the wheels.
            audit.friction_wh += (-o.friction_brake_torque_nm) * p.wheel_speed_rad_s * to_wh;
            audit.aux_wh += o.p_aux_w * to_wh;
            audit.battery_net_wh += o.battery_power_w * to_wh;
            if o.engine_started {
                audit.engine_starts += 1;
            }
            audit.mode_seconds[crate::metrics::mode_index(o.mode)] += dt;
        }
        audit
    }

    /// Fraction of braking energy recovered electrically (0 when there
    /// was no braking).
    pub fn regen_fraction(&self) -> f64 {
        let total = self.regen_wh + self.friction_wh;
        if total <= 0.0 {
            0.0
        } else {
            self.regen_wh / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::rule_based::RuleBasedController;
    use crate::reward::RewardConfig;
    use crate::sim::simulate;
    use crate::supervisor::SupervisedPolicy;
    use drive_cycle::ProfileBuilder;
    use hev_model::HevParams;

    fn run_urban() -> (Vec<TracePoint>, usize) {
        let cycle = ProfileBuilder::new("audit")
            .idle(4.0)
            .trip(45.0, 12.0, 25.0, 10.0, 6.0)
            .trip(30.0, 9.0, 15.0, 8.0, 5.0)
            .build()
            .unwrap();
        let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6).unwrap();
        let mut rec = Recorder::new(RuleBasedController);
        simulate(&mut hev, &cycle, &mut rec, &RewardConfig::default());
        let len = cycle.len();
        (rec.trace().to_vec(), len)
    }

    #[test]
    fn recorder_captures_every_step() {
        let (trace, len) = run_urban();
        assert_eq!(trace.len(), len);
        assert_eq!(trace[0].time_s, 0.0);
        assert!(trace.windows(2).all(|w| w[1].time_s > w[0].time_s));
    }

    #[test]
    fn audit_energy_flows_are_plausible() {
        let (trace, _) = run_urban();
        let audit = EnergyAudit::of(&trace);
        assert!(audit.engine_wh > 0.0);
        assert!(audit.aux_wh > 0.0);
        assert!(audit.regen_wh >= 0.0);
        assert!(audit.friction_wh >= 0.0);
        assert!((0.0..=1.0).contains(&audit.regen_fraction()));
        assert!(audit.engine_starts >= 1);
    }

    #[test]
    fn mode_seconds_sum_to_duration() {
        let (trace, len) = run_urban();
        let audit = EnergyAudit::of(&trace);
        let total: f64 = audit.mode_seconds.iter().sum();
        assert!((total - len as f64).abs() < 1e-9);
    }

    #[test]
    fn recorder_clears_between_episodes() {
        let cycle = ProfileBuilder::new("short")
            .idle(2.0)
            .trip(20.0, 5.0, 5.0, 4.0, 2.0)
            .build()
            .unwrap();
        let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6).unwrap();
        let mut rec = Recorder::new(RuleBasedController);
        simulate(&mut hev, &cycle, &mut rec, &RewardConfig::default());
        simulate(&mut hev, &cycle, &mut rec, &RewardConfig::default());
        assert_eq!(rec.trace().len(), cycle.len());
    }

    #[test]
    fn recorded_supervised_episode_keeps_its_degradation_report() {
        let cycle = ProfileBuilder::new("short")
            .idle(2.0)
            .trip(20.0, 5.0, 5.0, 4.0, 2.0)
            .build()
            .unwrap();
        let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6).unwrap();
        let supervised = SupervisedPolicy::new(RuleBasedController);
        let mut rec = Recorder::new(supervised);
        let m = simulate(&mut hev, &cycle, &mut rec, &RewardConfig::default());
        let report = m
            .degradation
            .expect("the supervisor's report survives the recorder");
        assert_eq!(report.decisions, cycle.len());
        assert_eq!(rec.trace().len(), cycle.len());
    }

    #[test]
    fn friction_energy_uses_the_vehicles_wheel_radius() {
        let mut params = HevParams::default_parallel_hev();
        params.body.wheel_radius_m = 0.35;
        let cycle = ProfileBuilder::new("brake")
            .idle(2.0)
            .trip(50.0, 8.0, 5.0, 3.0, 2.0)
            .build()
            .unwrap();
        let mut hev = ParallelHev::new(params, 0.75).unwrap();
        let mut rec = Recorder::new(RuleBasedController);
        simulate(&mut hev, &cycle, &mut rec, &RewardConfig::default());
        let trace = rec.trace();
        let dt = trace[1].time_s - trace[0].time_s;
        let expected: f64 = trace
            .iter()
            .map(|p| -p.outcome.friction_brake_torque_nm * p.speed_mps / 0.35 * dt / 3600.0)
            .sum();
        let audit = EnergyAudit::of(trace);
        assert!(
            expected > 0.0,
            "the cycle must brake on the friction brakes"
        );
        assert!(
            (audit.friction_wh - expected).abs() <= 1e-9 * expected,
            "audit {} Wh vs {expected} Wh",
            audit.friction_wh
        );
    }

    #[test]
    fn aux_energy_matches_constant_load() {
        let (trace, len) = run_urban();
        let audit = EnergyAudit::of(&trace);
        // Rule-based holds 600 W; fallback steps may differ slightly.
        let expected = 600.0 * len as f64 / 3600.0;
        assert!((audit.aux_wh - expected).abs() < expected * 0.1);
    }
}
