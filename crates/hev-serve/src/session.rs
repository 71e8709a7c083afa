//! One vehicle session: a plant, its fault trajectory, and the ladder
//! state needed to serve its requests.
//!
//! A session owns a [`ParallelHev`] degraded and perturbed by a
//! [`FaultPlan`] at the session's severity, so a synthetic fleet is
//! heterogeneous: each vehicle has its own seed, initial SOC, capacity
//! fade, sensor noise, and derating windows. Sessions are rebuilt after
//! a quarantine with a [`RETRY_SEED_TAG`]-derived reseed, and each rebuild
//! advances the session's epoch so clients pinning the old epoch get a
//! typed stale-epoch error instead of silently talking to a different
//! incarnation.

use crate::wire::{self, Request, RequestError, Rung, Verdict};
use hev_control::sim::Observation;
use hev_control::supervisor::walk;
use hev_control::{split_seed, FaultPlan, LadderConfig, RETRY_SEED_TAG};
use hev_model::{HevParams, ParallelHev, ParamError};
use hev_trace::evals;

/// The fault-plan episode span, s: fault windows are drawn inside it
/// and a session serves its whole life as one episode.
const EPISODE_SPAN_S: f64 = 600.0;

/// The step length of one served request, s: each served request steps
/// its session's plant once over it.
const STEP_S: f64 = 1.0;

/// Immutable description of one fleet vehicle session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionSpec {
    /// Session id (the wire address).
    pub id: u64,
    /// Master seed of the session's fault trajectory; reseeds derive
    /// from it via [`RETRY_SEED_TAG`].
    pub seed: u64,
    /// Fault severity (0 = healthy; see `FaultPlan`).
    pub severity: f64,
    /// Initial battery state of charge.
    pub initial_soc: f64,
}

/// One live session: spec plus all mutable serving state.
#[derive(Debug, Clone)]
pub struct Session {
    spec: SessionSpec,
    /// Reseed count (0 = the original incarnation).
    attempt: u64,
    /// Committed plant steps (drives the session's virtual clock).
    seq: u64,
    hev: ParallelHev,
    faults: FaultPlan,
    /// The rung-by-rung `(tier, evals)` walk of the most recent ladder
    /// decision — the causal trace of the last processed request.
    last_trail: Vec<(Rung, u64)>,
}

impl Session {
    /// Builds incarnation `attempt` of the session: attempt 0 uses the
    /// spec's seed directly, later attempts derive a quarantine-retry
    /// seed with the harness's [`RETRY_SEED_TAG`] idiom so retry streams
    /// stay disjoint from the original's.
    pub fn new(spec: SessionSpec, attempt: u64) -> Result<Self, ParamError> {
        let seed = if attempt == 0 {
            spec.seed
        } else {
            split_seed(spec.seed ^ RETRY_SEED_TAG, attempt)
        };
        let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), spec.initial_soc)?;
        let mut faults = FaultPlan::new(spec.severity, seed);
        faults.degrade_plant(&mut hev);
        faults.begin_episode(EPISODE_SPAN_S);
        Ok(Self {
            spec,
            attempt,
            seq: 0,
            hev,
            faults,
            last_trail: Vec::new(),
        })
    }

    /// The `(tier, evals spent)` walk of the last processed request, in
    /// ladder order. Empty until a request reaches the ladder; error
    /// verdicts that never reach it leave it empty too.
    pub fn last_trail(&self) -> &[(Rung, u64)] {
        &self.last_trail
    }

    /// The session's spec.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// The session's epoch: 1 for the original incarnation, +1 per
    /// quarantine reseed. Requests pinning a different non-zero epoch
    /// get a typed stale-epoch error.
    pub fn epoch(&self) -> u64 {
        self.attempt + 1
    }

    /// The reseed count.
    pub fn attempt(&self) -> u64 {
        self.attempt
    }

    /// Committed plant steps so far.
    pub fn steps(&self) -> u64 {
        self.seq
    }

    /// Current plant state of charge.
    pub fn soc(&self) -> f64 {
        self.hev.soc()
    }

    /// Serves one request against this session's plant.
    ///
    /// Hostile inputs (non-finite state, out-of-range SOC, stale epoch)
    /// return typed error verdicts. A chaos-flagged request panics
    /// deliberately — the shard executor catches it and quarantines the
    /// session. Otherwise the degradation chain ([`walk`]) produces a
    /// control under the request's eval budget (`config.budget_evals`
    /// when it carries none), observing the true demand and the
    /// sensor-faulted state of charge, and the step is committed; a
    /// demand even limp-home cannot step yields
    /// [`RequestError::Unsteppable`] with the plant untouched.
    pub fn process(&mut self, req: &Request, config: &LadderConfig) -> Verdict {
        self.last_trail.clear();
        if let Err(err) = wire::validate_request(req) {
            return Verdict::Error(err);
        }
        if req.epoch != 0 && req.epoch != self.epoch() {
            return Verdict::Error(RequestError::StaleEpoch {
                got: req.epoch,
                current: self.epoch(),
            });
        }
        if req.crash {
            // hevlint::allow(panic, chaos-mode fault injection: this deliberate panic exercises the quarantine path and is always caught by the shard executor's run_indexed_caught)
            panic!(
                "chaos: injected session crash (session {}, request {})",
                req.session, req.index
            );
        }

        let dt = STEP_S;
        let time_s = self.seq as f64 * dt;
        let true_demand = self.hev.demand(req.speed_mps, req.accel_mps2, req.grade);
        // The sensor fault layer perturbs the state of charge the rule
        // tier observes; feasibility and the committed step always use
        // the true demand and its context.
        let (obs_soc, _obs_demand) = self.faults.sensor(time_s, self.hev.soc(), &true_demand);
        self.hev
            .set_motor_derate(self.faults.motor_derate_at(time_s));
        let ctx = self.hev.step_context(&true_demand);
        let budget = if req.budget_evals == 0 {
            config.budget_evals
        } else {
            req.budget_evals
        };

        let obs = Observation {
            step: self.seq as usize,
            time_s,
            dt_s: dt,
            demand: &true_demand,
            soc: obs_soc,
            ctx: &ctx,
        };
        let start = evals::count();
        let walked = walk(&self.hev, &obs, config, budget, &mut self.last_trail);
        let Ok((control, rung)) = walked else {
            return Verdict::Error(RequestError::Unsteppable);
        };
        match self.hev.step_with_context(&ctx, &control, dt) {
            Ok(step) => {
                self.seq += 1;
                Verdict::Served {
                    control,
                    rung,
                    evals: evals::since(start),
                    soc_after: step.soc_after,
                }
            }
            Err(_) => Verdict::Error(RequestError::Unsteppable),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Rung;

    fn spec() -> SessionSpec {
        SessionSpec {
            id: 0,
            seed: 42,
            severity: 1.0,
            initial_soc: 0.6,
        }
    }

    fn request(index: u64) -> Request {
        Request {
            index,
            session: 0,
            epoch: 0,
            soc: 0.6,
            speed_mps: 10.0,
            accel_mps2: 0.2,
            grade: 0.0,
            budget_evals: 0,
            crash: false,
        }
    }

    #[test]
    fn serves_and_advances_the_plant() {
        let mut s = Session::new(spec(), 0).unwrap();
        match s.process(&request(0), &LadderConfig::default()) {
            Verdict::Served {
                control, soc_after, ..
            } => {
                assert!(control.is_finite());
                assert!(soc_after.is_finite());
            }
            other => panic!("expected served, got {other:?}"),
        }
        assert_eq!(s.steps(), 1);
        assert!(s.soc().is_finite());
    }

    #[test]
    fn malformed_requests_get_typed_errors_and_leave_the_plant_alone() {
        let mut s = Session::new(spec(), 0).unwrap();
        let nan = Request {
            speed_mps: f64::NAN,
            ..request(0)
        };
        assert_eq!(
            s.process(&nan, &LadderConfig::default()),
            Verdict::Error(RequestError::NonFiniteState { field: "speed_mps" })
        );
        let bad_soc = Request {
            soc: 7.0,
            ..request(1)
        };
        assert_eq!(
            s.process(&bad_soc, &LadderConfig::default()),
            Verdict::Error(RequestError::SocOutOfRange)
        );
        assert_eq!(s.steps(), 0);
    }

    #[test]
    fn stale_epochs_are_rejected_and_wildcard_epochs_pass() {
        let mut s = Session::new(spec(), 0).unwrap();
        assert_eq!(s.epoch(), 1);
        let stale = Request {
            epoch: 999,
            ..request(0)
        };
        assert_eq!(
            s.process(&stale, &LadderConfig::default()),
            Verdict::Error(RequestError::StaleEpoch {
                got: 999,
                current: 1
            })
        );
        let pinned = Request {
            epoch: 1,
            ..request(1)
        };
        assert!(matches!(
            s.process(&pinned, &LadderConfig::default()),
            Verdict::Served { .. }
        ));
    }

    #[test]
    fn reseeded_incarnations_advance_the_epoch_and_diverge() {
        let s0 = Session::new(spec(), 0).unwrap();
        let s1 = Session::new(spec(), 1).unwrap();
        assert_eq!(s0.epoch(), 1);
        assert_eq!(s1.epoch(), 2);
        // Same spec, same attempt ⇒ identical rebuild (the determinism
        // the quarantine replay relies on).
        let mut a = Session::new(spec(), 1).unwrap();
        let mut b = Session::new(spec(), 1).unwrap();
        let config = LadderConfig::default();
        for i in 0..3 {
            assert_eq!(
                a.process(&request(i), &config),
                b.process(&request(i), &config)
            );
        }
    }

    #[test]
    fn crash_flag_panics_for_the_quarantine_path() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut s = Session::new(spec(), 0).unwrap();
            let crash = Request {
                crash: true,
                ..request(0)
            };
            s.process(&crash, &LadderConfig::default())
        }));
        assert!(result.is_err());
    }

    #[test]
    fn tight_budget_requests_serve_from_lower_rungs() {
        let mut s = Session::new(spec(), 0).unwrap();
        let tight = Request {
            budget_evals: 100,
            ..request(0)
        };
        match s.process(&tight, &LadderConfig::default()) {
            Verdict::Served { rung, evals, .. } => {
                assert!(rung.index() >= Rung::Rule.index(), "rung {rung:?}");
                assert!(evals < 2000, "evals {evals}");
            }
            other => panic!("expected served, got {other:?}"),
        }
    }
}
