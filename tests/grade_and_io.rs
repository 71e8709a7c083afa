//! Integration tests for road grade and cycle I/O across the stack.

use hev_joint_control::control::metrics::corrected_fuel_g;
use hev_joint_control::control::{simulate, RewardConfig, RuleBasedController};
use hev_joint_control::cycle::{io, DriveCycle, StandardCycle};
use hev_joint_control::model::{HevParams, ParallelHev};

fn hev() -> ParallelHev {
    ParallelHev::new(HevParams::default_parallel_hev(), 0.6).expect("valid defaults")
}

#[test]
fn climbing_costs_fuel() {
    // A sustained 4 % climb at cruise must cost clearly more than the
    // same cruise on flat road (potential energy has to come from fuel).
    let n = 300;
    let speeds = vec![15.0; n];
    let flat = DriveCycle::from_speeds_mps("cruise", 1.0, speeds.clone()).unwrap();
    let climb = DriveCycle::with_grade("climb", 1.0, speeds, vec![0.04; n]).unwrap();
    let reward = RewardConfig::default();

    let mut hev_flat = hev();
    let mut rule = RuleBasedController;
    let m_flat = simulate(&mut hev_flat, &flat, &mut rule, &reward);
    let mut hev_climb = hev();
    let mut rule = RuleBasedController;
    let m_climb = simulate(&mut hev_climb, &climb, &mut rule, &reward);

    // Expected extra ≈ m·g·sinθ·distance / (η·LHV) ≈ 140 g; demand at
    // least half of it shows up after charge correction.
    assert!(
        corrected_fuel_g(&m_climb) > corrected_fuel_g(&m_flat) + 70.0,
        "climb {} g vs flat {} g",
        corrected_fuel_g(&m_climb),
        corrected_fuel_g(&m_flat)
    );
}

#[test]
fn rolling_hills_are_handled_cleanly() {
    // Rolling terrain (even steep) must simulate without fallbacks or
    // trace misses, stay inside the charge window, and keep fuel within
    // a plausible band of the flat run. (Mild hills can legitimately
    // *improve* economy: they shift the engine into better efficiency
    // regions and regeneration recovers the descents.)
    let flat = StandardCycle::Oscar.cycle();
    let m_flat = {
        let mut v = hev();
        let mut rule = RuleBasedController;
        simulate(&mut v, &flat, &mut rule, &RewardConfig::default())
    };
    for peak in [0.02, 0.06, 0.10] {
        let hilly = flat.with_rolling_grade(peak, 600.0);
        let mut v = hev();
        let mut rule = RuleBasedController;
        let m = simulate(&mut v, &hilly, &mut rule, &RewardConfig::default());
        assert_eq!(m.trace_miss_steps, 0, "peak {peak}");
        assert!((0.40..=0.80).contains(&m.soc_final), "peak {peak}");
        let rel = corrected_fuel_g(&m) / corrected_fuel_g(&m_flat);
        assert!((0.7..1.4).contains(&rel), "peak {peak}: fuel ratio {rel}");
    }
}

#[test]
fn steep_downhill_forces_braking_modes() {
    // A sustained 8 % downhill at constant speed demands negative wheel
    // torque even without decelerating.
    let speeds = vec![15.0; 120];
    let grade = vec![-0.08; 120];
    let cycle = DriveCycle::with_grade("downhill", 1.0, speeds, grade).unwrap();
    let mut vehicle = hev();
    let mut rule = RuleBasedController;
    let m = simulate(&mut vehicle, &cycle, &mut rule, &RewardConfig::default());
    use hev_joint_control::model::OperatingMode;
    let braking = m.mode_counts
        [hev_joint_control::control::mode_index(OperatingMode::RegenBraking)]
        + m.mode_counts[hev_joint_control::control::mode_index(OperatingMode::FrictionBraking)];
    assert!(
        braking > 100,
        "only {braking} braking steps on a steep descent"
    );
    // Riding the hill should have charged the pack.
    assert!(m.soc_final > m.soc_initial);
    assert_eq!(m.fuel_g, 0.0);
}

#[test]
fn csv_cycle_survives_full_simulation() {
    let original = StandardCycle::Sc03.cycle();
    let path = std::env::temp_dir().join("sc03_roundtrip.csv");
    io::write_csv(&original, &path).expect("write");
    let restored = io::read_csv(&path).expect("read");
    let _ = std::fs::remove_file(&path);

    let reward = RewardConfig::default();
    let mut hev_a = hev();
    let mut rule = RuleBasedController;
    let m_a = simulate(&mut hev_a, &original, &mut rule, &reward);
    let mut hev_b = hev();
    let mut rule = RuleBasedController;
    let m_b = simulate(&mut hev_b, &restored, &mut rule, &reward);
    assert_eq!(m_a.steps, m_b.steps);
    assert!((m_a.fuel_g - m_b.fuel_g).abs() < 1e-6);
}
