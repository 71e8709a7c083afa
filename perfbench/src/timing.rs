//! The benchmark's own clock around calls into the program.
//!
//! Nothing inside the program is instrumented. Instead [`Timed`] wraps
//! any [`HevPolicy`] and times the simulation loop's calls into it, so
//! `simulate_planned` and `simulate` drive the wrapped controller with
//! exactly the calls they would make without the wrapper.

use hev_control::metrics::DegradationReport;
use hev_control::sim::{ControlError, HevPolicy, Observation};
use hev_control::telemetry::{DecisionInfo, PolicyTelemetry};
use hev_model::{ControlInput, ParallelHev, StepOutcome};
use std::time::Instant;

/// What [`Timed`] records per control step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// One timestamp every `n` steps, at a `decide` entry: each sample
    /// is the mean time of one whole control step (decide, plant step,
    /// scoring, feedback) over the `n` steps since the last timestamp,
    /// as the vehicle sees it. An episode's first timestamp has no
    /// predecessor and yields no sample.
    Interval(usize),
    /// Two timestamps per step around `decide` alone, plus the evals
    /// spent inside it (the traced run's per-layer view).
    Decide,
}

/// A timing wrapper around a controller.
pub struct Timed<'a, P: HevPolicy> {
    inner: &'a mut P,
    clock: Clock,
    last: Option<Instant>,
    /// Steps since the last timestamp ([`Clock::Interval`]).
    steps: usize,
    /// Per-step samples, µs (see [`Clock`]).
    pub samples_us: Vec<f64>,
    /// Evals spent inside `decide` ([`Clock::Decide`] only).
    pub decide_evals: u64,
}

impl<'a, P: HevPolicy> Timed<'a, P> {
    /// Wraps `inner` with the given clock.
    pub fn new(inner: &'a mut P, clock: Clock) -> Self {
        Self {
            inner,
            clock,
            last: None,
            steps: 0,
            samples_us: Vec::new(),
            decide_evals: 0,
        }
    }

    /// The wrapped controller.
    pub fn inner_mut(&mut self) -> &mut P {
        self.inner
    }
}

impl<P: HevPolicy> HevPolicy for Timed<'_, P> {
    fn begin_episode(&mut self) {
        self.last = None;
        self.steps = 0;
        self.inner.begin_episode();
    }

    fn decide(&mut self, hev: &ParallelHev, obs: &Observation<'_>) -> ControlInput {
        match self.clock {
            Clock::Interval(n) => {
                if self.steps.is_multiple_of(n) {
                    let now = Instant::now();
                    if let Some(prev) = self.last.replace(now) {
                        self.samples_us
                            .push(now.duration_since(prev).as_secs_f64() * 1e6 / n as f64);
                    }
                }
                self.steps += 1;
                self.inner.decide(hev, obs)
            }
            Clock::Decide => {
                let evals = hev_trace::evals::count();
                let t0 = Instant::now();
                let control = self.inner.decide(hev, obs);
                self.samples_us.push(t0.elapsed().as_secs_f64() * 1e6);
                self.decide_evals += hev_trace::evals::since(evals);
                control
            }
        }
    }

    fn feedback(
        &mut self,
        hev: &ParallelHev,
        obs: &Observation<'_>,
        outcome: &StepOutcome,
        reward: f64,
    ) {
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
