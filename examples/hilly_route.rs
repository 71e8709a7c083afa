//! Hilly route: the same commute over flat terrain, rolling hills, and a
//! mountain pass, comparing fuel, regeneration capture, and braking
//! losses. Shows the grade-aware dynamics (Eq. 5's `F_g` term) end to
//! end.
//!
//! Run with: `cargo run --release --example hilly_route`

use hev_joint_control::control::analysis::{EnergyAudit, Recorder};
use hev_joint_control::control::metrics::corrected_fuel_g;
use hev_joint_control::control::{simulate, RewardConfig, RuleBasedController};
use hev_joint_control::cycle::{DriveCycle, StandardCycle};
use hev_joint_control::model::{HevParams, ParallelHev};

fn run(label: &str, cycle: &DriveCycle) -> Result<(), Box<dyn std::error::Error>> {
    let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6)?;
    let mut rec = Recorder::new(RuleBasedController);
    let m = simulate(&mut hev, cycle, &mut rec, &RewardConfig::default());
    let audit = EnergyAudit::of(rec.trace());
    println!(
        "{:<14} {:>12.1} {:>12.1} {:>12.1} {:>11.0}%",
        label,
        corrected_fuel_g(&m),
        audit.regen_wh,
        audit.friction_wh,
        audit.regen_fraction() * 100.0
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = StandardCycle::Udds.cycle();
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12}",
        "terrain", "fuel (g)", "regen (Wh)", "friction(Wh)", "regen frac"
    );
    run("flat", &base)?;
    run("rolling 3%", &base.with_rolling_grade(0.03, 800.0))?;
    run("rolling 6%", &base.with_rolling_grade(0.06, 800.0))?;
    run("mountain 9%", &base.with_rolling_grade(0.09, 2_000.0))?;
    println!(
        "\n(fuel is charge-corrected; moderate hills *improve* economy on this\n\
         powertrain: climbs shift the engine into its efficient region and the\n\
         machine recovers nearly all of the descents — only when a descent\n\
         exceeds the machine/battery limits does friction braking take a share)"
    );
    Ok(())
}
