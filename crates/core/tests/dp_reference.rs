//! The differential reference for the DP solver.
//!
//! [`solve`] runs the backward sweep with every probe through
//! demand-level [`ParallelHev::peek`]: no prebuilt step or battery
//! context, no skipped candidate and no stopped-step shortcut. Each
//! `(t, SoC)` cell scores every `(current, gear)` pair at the fixed
//! auxiliary power, currents in the configured order and gears ascending
//! within each, by the paper reward plus the next step's interpolated
//! value (strict `>`, first wins). Production `solve_dp` must return the
//! bit-identical expected reward, every policy action, and the same
//! forward-pass metrics.

use drive_cycle::{DriveCycle, ProfileBuilder, StandardCycle};
use hev_control::{
    fallback_control, simulate, solve_dp, split_seed, CyclePlan, DpConfig, EpisodeMetrics,
    HevPolicy, Observation,
};
use hev_model::{ControlInput, HevParams, ParallelHev};

const INITIAL_SOC: f64 = 0.6;

/// The reference solution: the value at the initial state and the
/// tabulated actions, `actions[t][j]` at step `t`, grid point `j`.
struct Reference {
    expected_reward: f64,
    actions: Vec<Vec<ControlInput>>,
}

/// The SoC grid of `config` over the pack's charge window.
fn grid(hev: &ParallelHev, config: &DpConfig) -> Vec<f64> {
    let p = hev.battery().params();
    let n = config.soc_points;
    (0..n)
        .map(|j| p.soc_min + (p.soc_max - p.soc_min) * j as f64 / (n - 1) as f64)
        .collect()
}

/// Linear interpolation of `value` over the grid, clamped to the window.
fn interp(hev: &ParallelHev, value: &[f64], soc: f64) -> f64 {
    let p = hev.battery().params();
    let n = value.len();
    let f = ((soc - p.soc_min) / (p.soc_max - p.soc_min)).clamp(0.0, 1.0) * (n - 1) as f64;
    let j = (f.floor() as usize).min(n - 2);
    let w = f - j as f64;
    value[j] * (1.0 - w) + value[j + 1] * w
}

/// The reference backward sweep.
fn solve(hev: &mut ParallelHev, cycle: &DriveCycle, config: &DpConfig) -> Reference {
    let socs = grid(hev, config);
    let dt = cycle.dt();
    let plan = CyclePlan::new(hev, cycle);
    let mut value_next: Vec<f64> = socs
        .iter()
        .map(|&s| -config.terminal_penalty * (INITIAL_SOC - s).max(0.0))
        .collect();
    let mut actions = vec![Vec::new(); cycle.len()];
    for t in (0..cycle.len()).rev() {
        let demand = plan.table().demand(t);
        let mut value_t = Vec::with_capacity(socs.len());
        for &soc in &socs {
            hev.reset_soc(soc);
            let score = |control: &ControlInput| {
                hev.peek(demand, control, dt).ok().map(|o| {
                    config.reward.paper_reward(&o, dt) + interp(hev, &value_next, o.soc_after)
                })
            };
            let mut best_v = f64::NEG_INFINITY;
            let mut best_c = None;
            for &battery_current_a in &config.currents {
                for gear in 0..hev.drivetrain().num_gears() {
                    let control = ControlInput {
                        battery_current_a,
                        gear,
                        p_aux_w: config.aux_power_w,
                    };
                    if let Some(v) = score(&control).filter(|&v| v > best_v) {
                        best_v = v;
                        best_c = Some(control);
                    }
                }
            }
            let control = best_c.unwrap_or_else(|| {
                let control = fallback_control(hev, &hev.step_context(demand), dt);
                best_v = score(&control).unwrap_or(-1e6);
                control
            });
            value_t.push(best_v);
            actions[t].push(control);
        }
        value_next = value_t;
    }
    hev.reset_soc(INITIAL_SOC);
    Reference {
        expected_reward: interp(hev, &value_next, INITIAL_SOC),
        actions,
    }
}

/// The reference's tabulated policy: the nearest grid point's action.
struct Tabulated<'a> {
    socs: &'a [f64],
    actions: &'a [Vec<ControlInput>],
}

impl HevPolicy for Tabulated<'_> {
    fn decide(&mut self, _hev: &ParallelHev, obs: &Observation<'_>) -> ControlInput {
        let (lo, hi) = (self.socs[0], self.socs[self.socs.len() - 1]);
        let n = self.socs.len();
        let f = ((obs.soc - lo) / (hi - lo)).clamp(0.0, 1.0);
        let j = ((f * (n - 1) as f64).round() as usize).min(n - 1);
        self.actions[obs.step][j]
    }
}

fn hev() -> ParallelHev {
    ParallelHev::new(HevParams::default_parallel_hev(), INITIAL_SOC).unwrap()
}

fn bits(c: &ControlInput) -> (u64, usize, u64) {
    (c.battery_current_a.to_bits(), c.gear, c.p_aux_w.to_bits())
}

/// Solves `cycle` both ways and checks the production solve against the
/// reference bit for bit.
fn assert_matches_reference(cycle: &DriveCycle, config: &DpConfig) {
    let name = cycle.name();
    let reference = solve(&mut hev(), cycle, config);
    let mut prod_hev = hev();
    let sol = solve_dp(&mut prod_hev, cycle, INITIAL_SOC, config);
    assert_eq!(
        sol.expected_reward.to_bits(),
        reference.expected_reward.to_bits(),
        "{name}: expected reward {} vs reference {}",
        sol.expected_reward,
        reference.expected_reward
    );

    let socs = grid(&prod_hev, config);
    let plan = CyclePlan::new(&prod_hev, cycle);
    let mut policy = sol.policy.clone();
    for (t, row) in reference.actions.iter().enumerate() {
        for (j, expected) in row.iter().enumerate() {
            let obs = Observation {
                step: t,
                time_s: t as f64 * cycle.dt(),
                dt_s: cycle.dt(),
                demand: plan.table().demand(t),
                soc: socs[j],
                ctx: plan.table().context(t),
            };
            let got = policy.decide(&prod_hev, &obs);
            assert_eq!(
                bits(&got),
                bits(expected),
                "{name}: step {t}, grid point {j}: {got:?} vs reference {expected:?}"
            );
        }
    }

    let mut tabulated = Tabulated {
        socs: &socs,
        actions: &reference.actions,
    };
    let mut ref_hev = hev();
    let metrics: EpisodeMetrics = simulate(&mut ref_hev, cycle, &mut tabulated, &config.reward);
    assert_eq!(sol.metrics, metrics, "{name}: forward pass");
}

fn coarse() -> DpConfig {
    DpConfig {
        soc_points: 9,
        ..DpConfig::default()
    }
}

#[test]
fn every_standard_cycle_matches_the_reference() {
    for sc in StandardCycle::all() {
        assert_matches_reference(&sc.cycle(), &coarse());
    }
}

#[test]
fn jittered_replicas_match_the_reference() {
    for (k, sc) in StandardCycle::all().into_iter().enumerate() {
        let cycle = sc.cycle().perturbed(split_seed(21, k as u64), 0.05);
        assert_matches_reference(&cycle, &coarse());
    }
}

/// A short cycle with stops, gentle and hard launches, cruising, hard
/// braking, and rolling hills.
fn short_cycle() -> DriveCycle {
    ProfileBuilder::new("dp-short")
        .idle(3.0)
        .trip(40.0, 10.0, 20.0, 8.0, 4.0)
        .trip(90.0, 12.0, 15.0, 5.0, 2.0)
        .trip(25.0, 7.0, 10.0, 6.0, 4.0)
        .build()
        .unwrap()
        .with_rolling_grade(0.06, 250.0)
}

#[test]
fn fine_grid_matches_the_reference() {
    assert_matches_reference(&short_cycle(), &DpConfig::default());
}

#[test]
fn unsorted_currents_match_the_reference() {
    // Descending and shuffled currents break the terminal power's rise,
    // so the solver may skip only within rising runs.
    let mut descending = DpConfig::default();
    descending.currents.reverse();
    assert_matches_reference(&short_cycle(), &descending);
    let shuffled = DpConfig {
        currents: vec![
            15.0, -60.0, 100.0, 0.0, 40.0, -8.0, 80.0, -25.0, 4.0, 60.0, -40.0, 25.0, -4.0, 8.0,
            -15.0,
        ],
        ..DpConfig::default()
    };
    assert_matches_reference(&short_cycle(), &shuffled);
}
