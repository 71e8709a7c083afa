//! The differential reference for the inner optimization's sweep over
//! battery currents.
//!
//! The reference resolves every current in full through the peek-only
//! oracle (`oracle/mod.rs`: demand-level [`ParallelHev::peek`], no
//! prebuilt context, no skipped gear or current) and keeps the best
//! reward across currents under strict `>`, first wins.
//! [`InnerOptimizer::best_over_currents`], which skips the gear searches
//! a larger current cannot change and resolves a stopped step once, must
//! return the bit-identical control. Its eval cost is pinned on three
//! demands.

mod oracle;

use drive_cycle::{DriveCycle, StandardCycle};
use hev_control::{default_currents, InnerOptimizer, ResolvedAction, RewardConfig};
use hev_model::{ControlInput, HevParams, ParallelHev, WheelDemand};

const DT: f64 = 1.0;

/// The myopic tier's coarse current subset (`LadderConfig::default`).
const MYOPIC: [f64; 4] = [-25.0, 0.0, 25.0, 60.0];

/// The default currents shuffled: the terminal power rises only in short
/// runs, so the sweep may skip only inside them.
const UNSORTED: [f64; 15] = [
    15.0, -60.0, 100.0, 0.0, 40.0, -8.0, 80.0, -25.0, 4.0, 60.0, -40.0, 25.0, -4.0, 8.0, -15.0,
];

fn hev(soc: f64) -> ParallelHev {
    ParallelHev::new(HevParams::default_parallel_hev(), soc).unwrap()
}

/// The reference sweep over steps of `dt`: every current resolved by the
/// oracle, the best reward kept under strict `>` (first wins).
fn reference(
    opt: &InnerOptimizer,
    hev: &ParallelHev,
    demand: &WheelDemand,
    currents: &[f64],
    dt: f64,
    reward: &RewardConfig,
) -> Option<ControlInput> {
    let mut best: Option<ResolvedAction> = None;
    for &i in currents {
        if let Some(r) = oracle::resolve(opt, hev, demand, i, dt, reward) {
            if best.as_ref().is_none_or(|b| r.reward > b.reward) {
                best = Some(r);
            }
        }
    }
    best.map(|r| r.control)
}

fn bits(c: &ControlInput) -> (u64, usize, u64) {
    (c.battery_current_a.to_bits(), c.gear, c.p_aux_w.to_bits())
}

/// Checks every step of `cycle` at each state of charge and current list
/// against the reference; `hev` carries any plant degradation.
fn assert_cycle_matches(hev: &mut ParallelHev, cycle: &DriveCycle, socs: &[f64], lists: &[&[f64]]) {
    let reward = RewardConfig::default();
    let opt = InnerOptimizer::default();
    for p in cycle.points() {
        let demand = hev.demand(p.speed_mps, p.accel_mps2, p.grade);
        let ctx = hev.step_context(&demand);
        for &soc in socs {
            hev.reset_soc(soc);
            for currents in lists {
                let got = opt.best_over_currents(hev, &ctx, currents, DT, &reward);
                let want = reference(&opt, hev, &demand, currents, DT, &reward);
                assert_eq!(
                    got.as_ref().map(bits),
                    want.as_ref().map(bits),
                    "{} t={} soc={soc} currents={currents:?}: {got:?} vs reference {want:?}",
                    cycle.name(),
                    p.time_s
                );
            }
        }
    }
}

#[test]
fn every_standard_cycle_matches_the_reference() {
    let default = default_currents();
    for sc in StandardCycle::all() {
        assert_cycle_matches(
            &mut hev(0.6),
            &sc.cycle(),
            &[0.41, 0.6, 0.79],
            &[&default, &MYOPIC, &UNSORTED],
        );
    }
}

#[test]
fn degraded_plants_match_the_reference() {
    let default = default_currents();
    for sc in StandardCycle::all() {
        let mut derated = hev(0.6);
        derated.set_motor_derate(0.5);
        assert_cycle_matches(&mut derated, &sc.cycle(), &[0.41, 0.6, 0.79], &[&default]);
        let mut faded = hev(0.6);
        faded.apply_battery_capacity_fade(0.3);
        assert_cycle_matches(&mut faded, &sc.cycle(), &[0.41, 0.6, 0.79], &[&default]);
    }
}

#[test]
fn fixed_aux_sweep_matches_the_reference() {
    let reward = RewardConfig::default();
    let opt = InnerOptimizer::with_fixed_aux(600.0);
    let default = default_currents();
    let hev = hev(0.6);
    for p in StandardCycle::Udds.cycle().points() {
        let demand = hev.demand(p.speed_mps, p.accel_mps2, p.grade);
        let ctx = hev.step_context(&demand);
        for currents in [&default[..], &MYOPIC, &UNSORTED] {
            let got = opt.best_over_currents(&hev, &ctx, currents, DT, &reward);
            let want = reference(&opt, &hev, &demand, currents, DT, &reward);
            assert_eq!(
                got.as_ref().map(bits),
                want.as_ref().map(bits),
                "t={}",
                p.time_s
            );
        }
    }
}

/// Light braking, where the regen command of most currents reaches a
/// gear's regen floor and the sweep skips the floor-clamped gears once a
/// larger current confirms the clamp: speeds, decelerations, charge
/// levels, `(dt, motor derate)` steps and aux weights of both signs.
const LIGHT_SPEEDS: [f64; 5] = [8.0, 12.0, 15.0, 20.0, 25.0];
const LIGHT_ACCELS: [f64; 4] = [-0.2, -0.3, -0.5, -0.8];
const LIGHT_STEPS: [(f64, f64); 3] = [(1.0, 1.0), (0.5, 1.0), (1.0, 0.5)];

#[test]
fn light_braking_matches_the_reference() {
    let default = default_currents();
    for soc in [0.41, 0.6, 0.79] {
        for (dt, derate) in LIGHT_STEPS {
            let mut hev = hev(soc);
            hev.set_motor_derate(derate);
            for aux_weight in [0.4, -0.4] {
                let reward = RewardConfig {
                    aux_weight,
                    dt_s: dt,
                    ..RewardConfig::default()
                };
                for opt in [
                    InnerOptimizer::default(),
                    InnerOptimizer::with_fixed_aux(600.0),
                ] {
                    for v in LIGHT_SPEEDS {
                        for a in LIGHT_ACCELS {
                            let demand = hev.demand(v, a, 0.0);
                            let ctx = hev.step_context(&demand);
                            for currents in [&default[..], &MYOPIC, &UNSORTED] {
                                let got = opt.best_over_currents(&hev, &ctx, currents, dt, &reward);
                                let want = reference(&opt, &hev, &demand, currents, dt, &reward);
                                assert_eq!(
                                    got.as_ref().map(bits),
                                    want.as_ref().map(bits),
                                    "v={v} a={a} soc={soc} dt={dt} derate={derate} \
                                     w={aux_weight} {opt:?} currents={currents:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Evals one default-ladder sweep at `(speed, accel)` costs.
fn sweep_cost(speed: f64, accel: f64) -> u64 {
    let hev = hev(0.6);
    let demand = hev.demand(speed, accel, 0.0);
    let ctx = hev.step_context(&demand);
    let snap = hev_trace::evals::count();
    InnerOptimizer::default()
        .best_over_currents(
            &hev,
            &ctx,
            &default_currents(),
            DT,
            &RewardConfig::default(),
        )
        .expect("the demand is feasible");
    hev_trace::evals::since(snap)
}

#[test]
fn stopped_sweep_costs_one_gear_search() {
    // A stopped step ignores both the commanded current and the gear:
    // the first current's first viable gear pays 7 grid + 12 refine
    // probes and every other candidate would tie it.
    assert_eq!(sweep_cost(0.0, 0.0), 19);
}

#[test]
fn braking_and_ev_launch_sweeps_cost_their_pinned_evals() {
    // Braking at 15 m/s, -1.5 m/s²: 15 currents × 4 viable gears × 19
    // = 1 140 evals unskipped. Each gear's top aux probe first
    // friction-brakes at zero machine torque at 8 A, the ninth current,
    // so the six larger currents skip all four gears: 9 × 4 × 19.
    assert_eq!(sweep_cost(15.0, -1.5), 684);
    // EV-capable launch at 3 m/s, 0.4 m/s²: 993 evals unskipped. Once a
    // gear's top aux probe resolves EV-only, each larger current costs
    // it one probe at the bottom of the aux range while that probe stays
    // EV-only too. A gear whose bottom probe runs the engine costs one
    // probe when its reward bound falls short of the best control so far.
    assert_eq!(sweep_cost(3.0, 0.4), 354);
}

#[test]
fn light_braking_sweeps_cost_their_pinned_evals() {
    // Light braking: the regen command of the smaller currents reaches
    // each gear's regen floor, so every probe of the gear's search
    // realizes the same floor torque. Once a gear's lowest-aux probe has
    // realized the floor, each larger current costs it that one probe
    // while it still does; the first current where it does not searches
    // the gear in full again.
    assert_eq!(sweep_cost(15.0, -0.3), 450);
    assert_eq!(sweep_cost(20.0, -0.2), 189);
}
