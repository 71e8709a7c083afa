//! A commuter's day: urban crawl to the freeway, a highway stretch, and
//! an urban arrival — under three HVAC seasons with different preferred
//! auxiliary powers. Shows how the joint controller adapts the auxiliary
//! load to the drive, which is exactly the paper's motivation.
//!
//! Run with: `cargo run --release --example commuter_day`

use hev_joint_control::control::{
    simulate, JointController, JointControllerConfig, RewardConfig, RuleBasedController,
};
use hev_joint_control::cycle::{DriveCycle, ProfileBuilder, StandardCycle};
use hev_joint_control::model::{AuxParams, HevParams, ParallelHev};

fn commute() -> DriveCycle {
    // Urban leg to the on-ramp.
    let urban_out = ProfileBuilder::new("urban-out")
        .idle(10.0)
        .trip(30.0, 9.0, 20.0, 8.0, 12.0)
        .trip(45.0, 13.0, 25.0, 10.0, 8.0)
        .build()
        .expect("profile is non-empty");
    // Highway leg (a slice of HWFET).
    let hwfet = StandardCycle::Hwfet.cycle();
    let highway = hwfet.slice(0, 300).expect("HWFET is longer than 300 s");
    // Urban arrival.
    let urban_in = ProfileBuilder::new("urban-in")
        .trip(40.0, 11.0, 18.0, 9.0, 10.0)
        .trip(25.0, 8.0, 12.0, 7.0, 15.0)
        .build()
        .expect("profile is non-empty");
    urban_out.concat(&highway).concat(&urban_in)
}

fn season_params(name: &str) -> AuxParams {
    match name {
        // Mild spring day: only lights and electronics.
        "mild" => AuxParams {
            preferred_power_w: 300.0,
            ..AuxParams::default()
        },
        // Summer: A/C on.
        "summer" => AuxParams {
            preferred_power_w: 900.0,
            ..AuxParams::default()
        },
        // Winter: electric heating — auxiliaries dominate.
        _ => AuxParams {
            preferred_power_w: 1_300.0,
            ..AuxParams::default()
        },
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cycle = commute();
    println!(
        "commute: {:.0} s, {:.1} km\n",
        cycle.duration_s(),
        cycle.distance_m() / 1_000.0
    );
    println!(
        "{:<8} {:>14} {:>14} {:>12} {:>12}",
        "season", "RL fuel (g)", "rule fuel (g)", "RL utility", "rule utility"
    );

    for season in ["mild", "summer", "winter"] {
        let mut params = HevParams::default_parallel_hev();
        params.aux = season_params(season);

        // The reward's preferred auxiliary power follows the season via
        // the vehicle's utility model; the controller config is shared.
        let mut hev = ParallelHev::new(params.clone(), 0.6)?;
        let mut agent = JointController::new(JointControllerConfig::proposed());
        agent.train(&mut hev, &cycle, 100);
        let rl = agent.evaluate(&mut hev, &cycle);

        let mut hev_rule = ParallelHev::new(params, 0.6)?;
        let mut rule = RuleBasedController;
        let rb = simulate(&mut hev_rule, &cycle, &mut rule, &RewardConfig::default());

        println!(
            "{:<8} {:>14.1} {:>14.1} {:>12.3} {:>12.3}",
            season,
            rl.fuel_g,
            rb.fuel_g,
            rl.mean_utility(),
            rb.mean_utility()
        );
    }
    println!(
        "\n(note: the rule-based policy always runs the auxiliaries at 600 W, so in \
         non-mild seasons its utility collapses while the joint controller tracks \
         the season's preferred power)"
    );
    Ok(())
}
