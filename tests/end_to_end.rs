//! Cross-crate integration tests: the full pipeline from driving cycle
//! through vehicle model, predictor, and RL controller.

use std::sync::OnceLock;

use hev_joint_control::control::metrics::{corrected_fuel_g, corrected_mpg};
use hev_joint_control::control::{
    simulate, ControllerSnapshot, EcmsController, EpisodeMetrics, JointController,
    JointControllerConfig, RewardConfig, RuleBasedController,
};
use hev_joint_control::cycle::{
    MicroTripConfig, MicroTripGenerator, ProfileBuilder, StandardCycle,
};
use hev_joint_control::model::{HevParams, ParallelHev};

fn hev() -> ParallelHev {
    ParallelHev::new(HevParams::default_parallel_hev(), 0.6).expect("valid defaults")
}

fn quick_rl_config() -> JointControllerConfig {
    let mut c = JointControllerConfig::proposed();
    c.state = hev_joint_control::control::StateSpaceConfig {
        power_demand: hev_joint_control::rl::UniformGrid::new(-30_000.0, 50_000.0, 8),
        speed: hev_joint_control::rl::UniformGrid::new(0.0, 35.0, 6),
        charge: hev_joint_control::rl::UniformGrid::new(0.4, 0.8, 6),
        prediction: Some(hev_joint_control::rl::UniformGrid::new(
            -15_000.0, 30_000.0, 3,
        )),
    };
    c
}

/// The expensive fixture — a quick-config controller trained 80 episodes
/// on OSCAR — trained exactly once and shared by every test that needs a
/// trained policy. Tests rehydrate a private copy via
/// [`JointController::from_snapshot`], so sharing cannot leak mutable
/// state between them.
fn trained_oscar() -> &'static (Vec<EpisodeMetrics>, ControllerSnapshot) {
    static TRAINED: OnceLock<(Vec<EpisodeMetrics>, ControllerSnapshot)> = OnceLock::new();
    TRAINED.get_or_init(|| {
        let cycle = StandardCycle::Oscar.cycle();
        let mut vehicle = hev();
        let mut agent = JointController::new(quick_rl_config());
        let learning = agent.train(&mut vehicle, &cycle, 80);
        (learning, agent.snapshot())
    })
}

#[test]
fn rule_based_completes_every_standard_cycle() {
    for sc in StandardCycle::all() {
        let mut vehicle = hev();
        let mut controller = RuleBasedController;
        let cycle = sc.cycle();
        let m = simulate(
            &mut vehicle,
            &cycle,
            &mut controller,
            &RewardConfig::default(),
        );
        assert_eq!(m.steps, cycle.len(), "{sc}");
        assert!(
            (0.40..=0.80).contains(&m.soc_final),
            "{sc}: soc {}",
            m.soc_final
        );
        assert!(m.fuel_g > 0.0, "{sc}");
        // Fallbacks should be the exception, not the rule.
        assert!(
            m.fallback_steps < m.steps / 5,
            "{sc}: {} fallbacks in {} steps",
            m.fallback_steps,
            m.steps
        );
    }
}

#[test]
fn ecms_completes_the_paper_cycles() {
    for sc in StandardCycle::paper_set() {
        let mut vehicle = hev();
        let mut controller = EcmsController;
        let cycle = sc.cycle();
        let m = simulate(
            &mut vehicle,
            &cycle,
            &mut controller,
            &RewardConfig::default(),
        );
        assert_eq!(m.steps, cycle.len(), "{sc}");
        assert!((0.40..=0.80).contains(&m.soc_final), "{sc}");
    }
}

#[test]
fn joint_rl_learns_oscar_beyond_exploration() {
    let cycle = StandardCycle::Oscar.cycle();
    let (learning, snapshot) = trained_oscar();
    let mut vehicle = hev();
    let mut agent = JointController::from_snapshot(snapshot.clone());
    let trained = agent.evaluate(&mut vehicle, &cycle);
    // The greedy policy must beat the exploration-heavy early episodes
    // on the charge-corrected fuel objective. (An *untrained* controller
    // evaluates as the strong myopic inner-opt policy, so "beats
    // untrained self" is not the right learning check.)
    let early: f64 = learning[..5].iter().map(corrected_fuel_g).sum::<f64>() / 5.0;
    assert!(
        corrected_fuel_g(&trained) < early,
        "greedy {} g did not beat early exploration {} g",
        corrected_fuel_g(&trained),
        early
    );
}

#[test]
fn trained_rl_is_charge_window_safe() {
    // Evaluate the shared OSCAR-trained policy on SC03: the charge window
    // must hold even on a cycle the controller never trained on.
    let cycle = StandardCycle::Sc03.cycle();
    let mut vehicle = hev();
    let mut agent = JointController::from_snapshot(trained_oscar().1.clone());
    let m = agent.evaluate(&mut vehicle, &cycle);
    assert!((0.40..=0.80).contains(&m.soc_final));
    assert_eq!(m.steps, cycle.len());
}

#[test]
fn rl_generalizes_across_random_cycles() {
    // Train on a portfolio of randomized urban cycles, evaluate on a
    // held-out one: the controller must at least complete it safely and
    // use electric drive.
    let mut generator = MicroTripGenerator::new(MicroTripConfig::urban(), 4242);
    let cycles = generator.generate_batch("train", 3);
    let held_out = generator.generate("held-out");
    let mut vehicle = hev();
    let mut agent = JointController::new(quick_rl_config());
    agent.train_portfolio(&mut vehicle, &cycles, 10);
    let m = agent.evaluate(&mut vehicle, &held_out);
    assert_eq!(m.steps, held_out.len());
    assert!((0.40..=0.80).contains(&m.soc_final));
}

#[test]
fn powertrain_only_baseline_runs_and_pins_aux() {
    let cycle = StandardCycle::Oscar.cycle();
    let mut vehicle = hev();
    let mut cfg = JointControllerConfig::powertrain_only(600.0);
    cfg.state = quick_rl_config().state;
    cfg.state.prediction = None;
    let mut agent = JointController::new(cfg);
    agent.train(&mut vehicle, &cycle, 20);
    let m = agent.evaluate(&mut vehicle, &cycle);
    // Aux pinned at the preferred power ⇒ peak utility (0) every step.
    assert!(m.mean_utility().abs() < 1e-9);
}

#[test]
fn fuel_conservation_against_distance() {
    // Sanity: fuel economy of any sane controller on a mixed cycle lies
    // in a physically plausible band for a 1.35 t parallel HEV.
    let cycle = ProfileBuilder::new("mixed")
        .idle(5.0)
        .trip(50.0, 14.0, 60.0, 11.0, 8.0)
        .trip(90.0, 25.0, 120.0, 20.0, 5.0)
        .trip(35.0, 10.0, 30.0, 9.0, 10.0)
        .build()
        .expect("profile is non-empty");
    let mut vehicle = hev();
    let mut controller = RuleBasedController;
    let m = simulate(
        &mut vehicle,
        &cycle,
        &mut controller,
        &RewardConfig::default(),
    );
    let mpg = corrected_mpg(&m);
    assert!(
        (25.0..120.0).contains(&mpg),
        "implausible fuel economy {mpg} mpg"
    );
}

#[test]
fn reward_accumulation_matches_metrics() {
    // The cumulative paper reward must equal Σ(−ṁ_f + w·u)·ΔT computed
    // from the same run's totals when utility is constant at its peak.
    let cycle = StandardCycle::Oscar.cycle();
    let mut vehicle = hev();
    let mut controller = RuleBasedController;
    let reward = RewardConfig::default();
    let m = simulate(&mut vehicle, &cycle, &mut controller, &reward);
    let expected = -m.fuel_g + reward.aux_weight * m.utility_sum;
    assert!(
        (m.total_reward - expected).abs() < 1e-6,
        "reward {} vs reconstructed {}",
        m.total_reward,
        expected
    );
}

#[test]
fn soc_trajectory_continuity() {
    // Each step's soc_before must equal the previous step's soc_after:
    // verified indirectly via initial/final bookkeeping on two chained
    // simulations without reset.
    let cycle = StandardCycle::Oscar.cycle();
    let mut vehicle = hev();
    let mut controller = RuleBasedController;
    let reward = RewardConfig::default();
    let m1 = simulate(&mut vehicle, &cycle, &mut controller, &reward);
    let m2 = simulate(&mut vehicle, &cycle, &mut controller, &reward);
    assert_eq!(m1.soc_final, m2.soc_initial);
}
