//! Quickstart: train the joint RL controller on a short urban cycle and
//! compare it against the rule-based baseline.
//!
//! Run with: `cargo run --release --example quickstart`

use hev_joint_control::control::metrics::corrected_mpg;
use hev_joint_control::control::{
    simulate, JointController, JointControllerConfig, RewardConfig, RuleBasedController,
};
use hev_joint_control::cycle::StandardCycle;
use hev_joint_control::model::{HevParams, ParallelHev};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Assemble the vehicle (ADVISOR-class parallel HEV, 60 % SoC).
    let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6)?;

    // 2. Pick a driving cycle. OSCAR is the shortest of the paper's set.
    let cycle = StandardCycle::Oscar.cycle();
    println!(
        "cycle {}: {:.0} s, {:.1} km",
        cycle.name(),
        cycle.duration_s(),
        cycle.distance_m() / 1_000.0
    );

    // 3. Train the proposed joint controller (TD(λ) + demand prediction,
    //    reduced action space).
    let mut agent = JointController::new(JointControllerConfig::proposed());
    let episodes = 400;
    let learning = agent.train(&mut hev, &cycle, episodes);
    println!(
        "trained {episodes} episodes; first-episode reward {:.1}, last {:.1}",
        learning.first().map(|m| m.total_reward).unwrap_or(0.0),
        learning.last().map(|m| m.total_reward).unwrap_or(0.0),
    );

    // 4. Greedy evaluation.
    let proposed = agent.evaluate(&mut hev, &cycle);

    // 5. Rule-based baseline on a fresh vehicle.
    hev.reset_soc(0.6);
    let mut rule = RuleBasedController;
    let baseline = simulate(&mut hev, &cycle, &mut rule, &RewardConfig::default());

    println!("\n{:<22} {:>12} {:>12}", "", "proposed", "rule-based");
    println!(
        "{:<22} {:>12.1} {:>12.1}",
        "fuel (g)", proposed.fuel_g, baseline.fuel_g
    );
    println!(
        "{:<22} {:>12.2} {:>12.2}",
        "cumulative reward", proposed.total_reward, baseline.total_reward
    );
    println!(
        "{:<22} {:>12.1} {:>12.1}",
        "raw mpg",
        proposed.mpg(),
        baseline.mpg()
    );
    println!(
        "{:<22} {:>12.1} {:>12.1}",
        "SoC-corrected mpg",
        corrected_mpg(&proposed),
        corrected_mpg(&baseline)
    );
    println!(
        "{:<22} {:>12.4} {:>12.4}",
        "ΔSoC",
        proposed.soc_final - proposed.soc_initial,
        baseline.soc_final - baseline.soc_initial
    );
    println!(
        "{:<22} {:>12.3} {:>12.3}",
        "mean aux utility",
        proposed.mean_utility(),
        baseline.mean_utility()
    );
    Ok(())
}
