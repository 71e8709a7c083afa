//! Property-based tests of the supervised fallback chain: under
//! randomized fault plans and an adversarial wrapped policy, the
//! supervisor never emits an infeasible control — except the explicit
//! limp-home best effort when *no* control is feasible — across
//! stopped, braking, and propelling demands — and its myopic tier's
//! inner optimization agrees bit for bit with the peek oracle. A plain
//! test pins what it emits under full-severity faults.

mod oracle;

use drive_cycle::ProfileBuilder;
use hev_control::{
    fallback_control, simulate_with_faults, DegradationReport, FaultPlan, HevPolicy,
    InnerOptimizer, LadderConfig, Observation, ResolvedAction, RewardConfig, SupervisedPolicy,
};
use hev_model::{ControlInput, HevParams, ParallelHev, StepOutcome};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An adversarial policy: emits random controls including non-finite
/// fields, absurd currents, and out-of-range gears and auxiliary powers.
struct Chaotic {
    rng: StdRng,
}

impl HevPolicy for Chaotic {
    fn decide(&mut self, _hev: &ParallelHev, _obs: &Observation<'_>) -> ControlInput {
        let roll: f64 = self.rng.gen();
        let battery_current_a = match (roll * 5.0) as usize {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => self.rng.gen_range(-1e6..1e6),
            _ => self.rng.gen_range(-120.0..120.0),
        };
        let p_aux_w = match (self.rng.gen::<f64>() * 4.0) as usize {
            0 => f64::NAN,
            1 => self.rng.gen_range(-1e5..1e5),
            _ => self.rng.gen_range(0.0..2_000.0),
        };
        ControlInput {
            battery_current_a,
            gear: self.rng.gen_range(0..9),
            p_aux_w,
        }
    }
}

/// Wraps the supervised policy and verifies every emitted control:
/// feasible per the step's own `peek_with_context` probe, or — when even
/// the feasibility search comes up empty — exactly the limp-home
/// control, never an arbitrary infeasible one. Also folds every control's
/// bits into an FNV-1a fingerprint.
struct AssertFeasible<P> {
    inner: SupervisedPolicy<P>,
    violations: usize,
    hash: u64,
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

impl<P: HevPolicy> HevPolicy for AssertFeasible<P> {
    fn begin_episode(&mut self) {
        self.inner.begin_episode();
    }

    fn decide(&mut self, hev: &ParallelHev, obs: &Observation<'_>) -> ControlInput {
        let control = self.inner.decide(hev, obs);
        if hev.peek_with_context(obs.ctx, &control, obs.dt_s).is_err()
            && control != fallback_control(hev, obs.ctx, obs.dt_s)
        {
            self.violations += 1;
        }
        for word in [
            control.battery_current_a.to_bits(),
            control.gear as u64,
            control.p_aux_w.to_bits(),
        ] {
            self.hash = fnv1a(self.hash, &word.to_le_bytes());
        }
        control
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

    fn degradation(&self) -> Option<DegradationReport> {
        self.inner.degradation()
    }
}

/// Wraps the supervised policy and, before each decision, resolves every
/// current of the supervisor's inner-optimized tiers both ways on the step's
/// (faulted) plant: through the production inner optimization against
/// the step context, and through the peek oracle against the bare
/// demand. Counts the currents whose results differ in any bit.
struct AssertOracle {
    inner: SupervisedPolicy<Chaotic>,
    config: LadderConfig,
    resolves: usize,
    mismatches: usize,
}

impl HevPolicy for AssertOracle {
    fn begin_episode(&mut self) {
        self.inner.begin_episode();
    }

    fn decide(&mut self, hev: &ParallelHev, obs: &Observation<'_>) -> ControlInput {
        let (inner, reward) = (&self.config.inner, &self.config.reward);
        for &i in self.config.tiers.iter().flat_map(|t| &t.currents) {
            let production = inner.resolve_with(hev, obs.ctx, i, reward.dt_s, reward);
            let reference = oracle::resolve(inner, hev, obs.demand, i, reward.dt_s, reward);
            self.resolves += 1;
            if production.as_ref().map(oracle::bits) != reference.as_ref().map(oracle::bits) {
                self.mismatches += 1;
            }
        }
        self.inner.decide(hev, obs)
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

    fn degradation(&self) -> Option<DegradationReport> {
        self.inner.degradation()
    }
}

proptest! {
    /// The supervisor's output is feasible at every step of a cycle that
    /// exercises stopped, propelling, braking, and cruising demands,
    /// whatever the wrapped policy emits and whatever faults are active.
    #[test]
    fn supervised_output_always_feasible(
        policy_seed in 0u64..1_000,
        plan_seed in 0u64..1_000,
        severity in 0.0f64..2.0,
        cruise_kmh in 20.0f64..70.0,
        accel_s in 4.0f64..12.0,
    ) {
        // Idle (stopped) → accelerate (propelling) → cruise → brake to
        // rest (regenerating), twice for window coverage.
        let cycle = ProfileBuilder::new("prop")
            .idle(4.0)
            .trip(cruise_kmh, accel_s, 10.0, accel_s * 0.8, 3.0)
            .trip(cruise_kmh * 0.6, accel_s * 0.5, 6.0, accel_s * 0.5, 2.0)
            .build()
            .unwrap();
        let reward = RewardConfig::default();
        let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6).unwrap();
        let mut plan = FaultPlan::new(severity, plan_seed);
        plan.degrade_plant(&mut hev);
        let mut controller = AssertFeasible {
            inner: SupervisedPolicy::new(Chaotic {
                rng: StdRng::seed_from_u64(policy_seed),
            }),
            violations: 0,
            hash: 0,
        };
        let m = simulate_with_faults(&mut hev, &cycle, &mut controller, &reward, Some(&mut plan));
        prop_assert_eq!(controller.violations, 0);
        // The faulted cycle still completes every step.
        prop_assert_eq!(m.steps, cycle.len());
        let report = m.degradation.expect("supervised run carries a report");
        prop_assert_eq!(report.decisions, cycle.len());
    }

    /// The supervisor's myopic tier resolves through the production
    /// inner optimization; on every step of a chaotic, faulted run —
    /// stopped, propelling and braking, with the optimizer's aux power
    /// free or fixed — it returns exactly what the peek oracle returns.
    #[test]
    fn supervised_resolve_matches_peek_oracle(
        policy_seed in 0u64..1_000,
        plan_seed in 0u64..1_000,
        severity in 0.0f64..2.0,
        cruise_kmh in 20.0f64..70.0,
        fixed_aux in 0u8..2,
    ) {
        let cycle = ProfileBuilder::new("prop")
            .idle(3.0)
            .trip(cruise_kmh, 6.0, 8.0, 5.0, 3.0)
            .build()
            .unwrap();
        let reward = RewardConfig::default();
        let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6).unwrap();
        let mut plan = FaultPlan::new(severity, plan_seed);
        plan.degrade_plant(&mut hev);
        let mut config = LadderConfig::unbudgeted();
        if fixed_aux == 1 {
            config.inner = InnerOptimizer::with_fixed_aux(600.0);
        }
        let mut controller = AssertOracle {
            inner: SupervisedPolicy::with_config(
                Chaotic { rng: StdRng::seed_from_u64(policy_seed) },
                config.clone(),
            ),
            config,
            resolves: 0,
            mismatches: 0,
        };
        let m = simulate_with_faults(&mut hev, &cycle, &mut controller, &reward, Some(&mut plan));
        prop_assert_eq!(m.steps, cycle.len());
        prop_assert!(controller.resolves > 0);
        prop_assert_eq!(controller.mismatches, 0);
    }
}

/// Always asks for something infeasible, so every step is a rescue.
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

/// Pins what the supervisor emits under full-severity faults on every
/// standard cycle, for a seeded chaotic and an always-infeasible wrapped
/// policy: every control's bits, and the episode metrics with their
/// degradation report (`Debug` prints each float's shortest exact
/// form). The serve twin is `serve_determinism.rs`'s
/// `small_chaos_fleet_artifacts_are_pinned`.
#[test]
fn faulted_supervised_episodes_are_pinned() {
    let reward = RewardConfig::default();
    let mut controls = 0xcbf2_9ce4_8422_2325;
    let mut metrics = 0xcbf2_9ce4_8422_2325;
    let mut total = DegradationReport::default();
    for (k, standard) in drive_cycle::StandardCycle::all().into_iter().enumerate() {
        let cycle = standard.cycle();
        let episode = |policy: &mut dyn HevPolicy| {
            let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6).unwrap();
            let mut plan = FaultPlan::new(1.0, 100 + k as u64);
            plan.degrade_plant(&mut hev);
            simulate_with_faults(&mut hev, &cycle, policy, &reward, Some(&mut plan))
        };
        let mut chaotic = AssertFeasible {
            inner: SupervisedPolicy::new(Chaotic {
                rng: StdRng::seed_from_u64(k as u64),
            }),
            violations: 0,
            hash: controls,
        };
        let a = episode(&mut chaotic);
        let mut broken = AssertFeasible {
            inner: SupervisedPolicy::new(Broken),
            violations: 0,
            hash: chaotic.hash,
        };
        let b = episode(&mut broken);
        assert_eq!(chaotic.violations + broken.violations, 0);
        controls = broken.hash;
        for m in [&a, &b] {
            assert_eq!(m.steps, cycle.len());
            metrics = fnv1a(metrics, format!("{m:?}").as_bytes());
            total = total.merged(&m.degradation.unwrap());
        }
    }
    assert_eq!(
        format!("{total:?}"),
        "DegradationReport { decisions: 14188, infeasible: 9901, non_finite: 3915, \
         myopic_rescues: 13814, rule_rescues: 0, limp_home: 2 }"
    );
    assert_eq!(controls, 0x47c6_c48e_25fc_01aa);
    assert_eq!(metrics, 0xa447_88fb_528c_2e15);
}
