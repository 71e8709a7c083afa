//! Taxi shift: train the joint RL controller on a morning of randomized
//! urban driving, then evaluate every controller on an unseen afternoon
//! shift — the generalization story behind deploying a learned policy in
//! a fleet.
//!
//! Run with: `cargo run --release --example taxi_shift`

use hev_joint_control::control::{
    simulate, EcmsController, EpisodeMetrics, HevPolicy, JointController, JointControllerConfig,
    RewardConfig, RuleBasedController,
};
use hev_joint_control::cycle::{DriveCycle, MicroTripConfig, MicroTripGenerator};
use hev_joint_control::model::{HevParams, ParallelHev};

fn corrected_mpg(m: &EpisodeMetrics) -> f64 {
    m.soc_corrected_mpg(7_800.0, 0.28, 42_600.0)
}

fn evaluate(
    label: &str,
    controller: &mut dyn HevPolicy,
    shift: &DriveCycle,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6)?;
    let m = simulate(&mut hev, shift, controller, &RewardConfig::default());
    println!(
        "{:<16} {:>10.1} {:>10.1} {:>10.2} {:>9.4} {:>9}",
        label,
        m.fuel_g,
        corrected_mpg(&m),
        m.total_reward,
        m.soc_final - m.soc_initial,
        m.fallback_steps
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Morning: six randomized urban cycles to train on.
    let mut generator = MicroTripGenerator::new(MicroTripConfig::urban(), 7_011);
    let morning = generator.generate_batch("morning", 6);
    // Afternoon: an unseen evaluation shift from the same traffic
    // statistics.
    let afternoon = generator.generate("afternoon");
    println!(
        "afternoon shift: {:.0} s, {:.1} km\n",
        afternoon.duration_s(),
        afternoon.distance_m() / 1_000.0
    );

    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "controller", "fuel (g)", "corr mpg", "reward", "ΔSoC", "fallbacks"
    );

    let mut rule = RuleBasedController::default();
    evaluate("rule-based", &mut rule, &afternoon)?;

    let mut ecms = EcmsController::default();
    evaluate("ecms", &mut ecms, &afternoon)?;

    // The joint RL agent: trained on the morning, frozen for the
    // afternoon.
    let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6)?;
    let mut agent = JointController::new(JointControllerConfig::proposed());
    agent.train_portfolio(&mut hev, &morning, 60);
    agent.set_training(false);
    evaluate("joint RL", &mut agent, &afternoon)?;

    println!("\n(the RL agent never saw the afternoon shift — its numbers reflect pure");
    println!("generalization from the morning's randomized traffic. ECMS consults the");
    println!("full component models at every step, so it is the strong model-based");
    println!("ceiling here; the rule-based heuristic has no such knowledge)");
    Ok(())
}
