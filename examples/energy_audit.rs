//! Energy audit: record a full trace of the rule-based and RL controllers
//! on UDDS and break down where the energy went — engine, electric drive,
//! regeneration, friction, auxiliaries.
//!
//! Run with: `cargo run --release --example energy_audit`

use hev_joint_control::control::analysis::{EnergyAudit, Recorder};
use hev_joint_control::control::{
    mode_index, simulate, JointController, JointControllerConfig, RewardConfig, RuleBasedController,
};
use hev_joint_control::cycle::StandardCycle;
use hev_joint_control::model::{HevParams, OperatingMode, ParallelHev};

fn print_audit(label: &str, audit: &EnergyAudit) {
    println!("\n--- {label} ---");
    println!(
        "{:<28} {:>10.1} Wh",
        "engine mechanical output", audit.engine_wh
    );
    println!(
        "{:<28} {:>10.1} Wh",
        "electric drive output", audit.electric_drive_wh
    );
    println!("{:<28} {:>10.1} Wh", "energy regenerated", audit.regen_wh);
    println!(
        "{:<28} {:>10.1} Wh",
        "friction brake losses", audit.friction_wh
    );
    println!("{:<28} {:>10.1} Wh", "auxiliary consumption", audit.aux_wh);
    println!(
        "{:<28} {:>10.1} Wh",
        "net battery draw", audit.battery_net_wh
    );
    println!(
        "{:<28} {:>10.1} %",
        "regen capture fraction",
        audit.regen_fraction() * 100.0
    );
    println!("{:<28} {:>10}", "engine starts", audit.engine_starts);
    for (mode, name) in [
        (OperatingMode::Stopped, "stopped"),
        (OperatingMode::IceOnly, "ice-only"),
        (OperatingMode::EvOnly, "ev-only"),
        (OperatingMode::HybridAssist, "hybrid assist"),
        (OperatingMode::RechargeDrive, "recharge drive"),
        (OperatingMode::RegenBraking, "regen braking"),
        (OperatingMode::FrictionBraking, "friction braking"),
    ] {
        println!(
            "  {:<24} {:>8.0} s",
            name,
            audit.mode_seconds[mode_index(mode)]
        );
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cycle = StandardCycle::Udds.cycle();
    let reward = RewardConfig::default();

    // Rule-based, recorded.
    let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6)?;
    let mut recorded_rule = Recorder::new(RuleBasedController);
    simulate(&mut hev, &cycle, &mut recorded_rule, &reward);
    print_audit(
        "rule-based on UDDS",
        &EnergyAudit::of(recorded_rule.trace()),
    );

    // Proposed joint RL: train, freeze, replay greedily through the
    // recorder.
    let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6)?;
    let mut agent = JointController::new(JointControllerConfig::proposed());
    agent.train(&mut hev, &cycle, 200);
    agent.set_training(false);
    let mut recorded_rl = Recorder::new(agent);
    hev.reset_soc(0.6);
    simulate(&mut hev, &cycle, &mut recorded_rl, &reward);
    print_audit(
        "joint RL on UDDS (greedy)",
        &EnergyAudit::of(recorded_rl.trace()),
    );
    Ok(())
}
