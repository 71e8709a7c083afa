//! Smoke tests of the experiment harness at tiny budgets: every target
//! must run end to end and produce structurally sane rows. (Statistical
//! claims are checked by the full `repro` run, not here.)

use hev_bench::experiments::{
    self, corrected_fuel_g, corrected_mpg, corrected_reward, ExperimentConfig,
};

fn tiny() -> ExperimentConfig {
    ExperimentConfig {
        episodes: 3,
        runs: 1,
        jitter_variants: 1,
        ..Default::default()
    }
}

#[test]
fn table1_is_complete() {
    let rows = experiments::table1();
    assert!(rows.len() >= 14);
    assert!(rows.iter().all(|r| !r.value.trim().is_empty()));
}

#[test]
fn fig2_produces_three_positive_rows() {
    let (rows, runs) = experiments::fig2(&tiny());
    assert!(runs.is_empty(), "telemetry is off by default");
    assert_eq!(rows.len(), 3);
    for r in &rows {
        assert!(r.fuel_with_g > 0.0, "{}", r.cycle);
        assert!(r.fuel_without_g > 0.0, "{}", r.cycle);
        assert!(r.normalized > 0.0 && r.normalized.is_finite());
    }
    let names: Vec<_> = rows.iter().map(|r| r.cycle.as_str()).collect();
    assert_eq!(names, ["OSCAR", "UDDS", "MODEM"]);
}

#[test]
fn table2_rows_have_negative_rewards() {
    let (rows, _) = experiments::table2(&tiny());
    assert_eq!(rows.len(), 4);
    for r in &rows {
        // Rewards are negative by construction (utility peaks at 0).
        assert!(r.proposed < 0.0, "{}", r.cycle);
        assert!(r.rule_based < 0.0, "{}", r.cycle);
        assert!(r.proposed_corrected.is_finite());
    }
}

#[test]
fn fig3_mpg_rows_are_physical() {
    let (rows, _) = experiments::fig3(&tiny());
    assert_eq!(rows.len(), 4);
    for r in &rows {
        assert!(
            (10.0..200.0).contains(&r.proposed_mpg),
            "{}: {}",
            r.cycle,
            r.proposed_mpg
        );
        assert!(
            (10.0..200.0).contains(&r.rule_mpg),
            "{}: {}",
            r.cycle,
            r.rule_mpg
        );
    }
}

#[test]
fn learning_curve_is_sampled() {
    let points = experiments::learning_curve(&tiny(), 1);
    assert_eq!(points.len(), 3);
    assert!(points
        .iter()
        .all(|p| p.reduced_fuel_g > 0.0 && p.full_fuel_g > 0.0));
}

#[test]
fn corrections_are_consistent() {
    // Corrected reward and corrected fuel move oppositely for the same
    // ΔSoC perturbation.
    let mut m = hev_control::EpisodeMetrics::new(0.6);
    m.fuel_g = 100.0;
    m.distance_m = 10_000.0;
    m.total_reward = -100.0;
    let base_fuel = corrected_fuel_g(&m);
    let base_reward = corrected_reward(&m);
    let base_mpg = corrected_mpg(&m);
    m.soc_final = 0.65; // banked charge
    assert!(corrected_fuel_g(&m) < base_fuel);
    assert!(corrected_reward(&m) > base_reward);
    assert!(corrected_mpg(&m) > base_mpg);
}

#[test]
fn jitter_portfolio_contains_nominal_plus_variants() {
    let cfg = ExperimentConfig {
        jitter_variants: 3,
        ..Default::default()
    };
    let cycle = drive_cycle::StandardCycle::Oscar.cycle();
    let portfolio = experiments::jitter_portfolio(&cycle, 1, &cfg);
    assert_eq!(portfolio.len(), 4);
    assert_eq!(portfolio[0], cycle);
    for v in &portfolio[1..] {
        assert_eq!(v.len(), cycle.len());
        assert_ne!(v.speeds_mps(), cycle.speeds_mps());
    }
}
