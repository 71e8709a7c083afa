//! Soundness of the gear bound in the inner optimization.
//!
//! The production resolve searches gears from the highest down and stops
//! a gear after its first probe when that probe runs the engine and a
//! reward bound shows the gear cannot beat the best one so far; the
//! sweep over currents also bounds against the earlier currents' best.
//! Both must return what the peek-only oracle (`oracle/mod.rs`: every
//! gear searched in full, ascending, strict `>`) returns, bit for bit,
//! wherever the bound's terms move: the state of charge (the window
//! barrier and the equivalence factor's feedback), a running or stopped
//! engine (the restart penalty), the step length, a derated motor, and
//! aux weights of either sign.

mod oracle;

use hev_control::{default_currents, InnerOptimizer, ResolvedAction, RewardConfig};
use hev_model::{ControlInput, HevParams, IceParams, ParallelHev};

const SPEEDS: [f64; 5] = [2.0, 6.0, 12.0, 20.0, 30.0];
const ACCELS: [f64; 4] = [-0.6, 0.0, 0.3, 0.9];
const SOCS: [f64; 3] = [0.41, 0.6, 0.79];
const AUX_WEIGHTS: [f64; 4] = [0.0, 0.4, 2.5, -0.4];
/// `(dt, motor derate)` per case.
const STEPS: [(f64, f64); 3] = [(1.0, 1.0), (0.5, 1.0), (1.0, 0.5)];

/// 7 grid probes plus 12 golden-section probes.
const GEAR_COST: u64 = 19;

/// A plant at `soc` with the motor derated to `derate`; when
/// `engine_on`, its engine ran at the end of the last step, so no
/// engine-on probe pays the restart penalty.
fn plant(params: HevParams, soc: f64, engine_on: bool, derate: f64) -> ParallelHev {
    let mut hev = ParallelHev::new(params, soc).unwrap();
    hev.set_motor_derate(derate);
    if engine_on {
        // A zero-current cruise step runs the engine and leaves the
        // charge where it was.
        let cruise = hev.demand(20.0, 0.0, 0.0);
        let idle_battery = ControlInput {
            battery_current_a: 0.0,
            gear: 3,
            p_aux_w: 600.0,
        };
        hev.step(&cruise, &idle_battery, 1.0).unwrap();
        assert!(hev.engine_on());
        assert_eq!(hev.soc(), soc);
    }
    hev
}

fn resolved_bits(r: &Option<ResolvedAction>) -> Option<Vec<u64>> {
    r.as_ref().map(oracle::bits)
}

fn control_bits(c: &ControlInput) -> (u64, usize, u64) {
    (c.battery_current_a.to_bits(), c.gear, c.p_aux_w.to_bits())
}

/// Checks the resolve of every default current, and the sweep over
/// them, against the oracle at every grid demand on `hev` under
/// `reward` over steps of `dt` seconds.
fn assert_grid_matches(hev: &ParallelHev, dt: f64, reward: &RewardConfig, case: &str) {
    let opt = InnerOptimizer::default();
    let currents = default_currents();
    for v in SPEEDS {
        for a in ACCELS {
            let demand = hev.demand(v, a, 0.0);
            let ctx = hev.step_context(&demand);
            // The oracle's sweep over currents: strict `>`.
            let mut best: Option<ResolvedAction> = None;
            for &i in &currents {
                let want = oracle::resolve(&opt, hev, &demand, i, dt, reward);
                let got = opt.resolve_with(hev, &ctx, i, dt, reward);
                assert_eq!(
                    resolved_bits(&got),
                    resolved_bits(&want),
                    "{case} v={v} a={a} i={i}"
                );
                if let Some(r) = want {
                    if best.as_ref().is_none_or(|b| r.reward > b.reward) {
                        best = Some(r);
                    }
                }
            }
            let swept = opt.best_over_currents(hev, &ctx, &currents, dt, reward);
            assert_eq!(
                swept.as_ref().map(control_bits),
                best.map(|r| control_bits(&r.control)),
                "{case} v={v} a={a} sweep"
            );
        }
    }
}

#[test]
fn bounded_searches_match_the_oracle() {
    for soc in SOCS {
        for engine_on in [false, true] {
            for (dt, derate) in STEPS {
                let hev = plant(HevParams::default_parallel_hev(), soc, engine_on, derate);
                for aux_weight in AUX_WEIGHTS {
                    let reward = RewardConfig {
                        aux_weight,
                        dt_s: dt,
                        ..RewardConfig::default()
                    };
                    let case = format!(
                        "soc={soc} engine_on={engine_on} dt={dt} derate={derate} w={aux_weight}"
                    );
                    assert_grid_matches(&hev, dt, &reward, &case);
                }
            }
        }
    }
}

#[test]
fn the_bound_prunes_a_cruise() {
    let hev = plant(HevParams::default_parallel_hev(), 0.6, true, 1.0);
    let ctx = hev.step_context(&hev.demand(20.0, 0.0, 0.0));
    let viable = (0..hev.drivetrain().num_gears())
        .filter(|&g| ctx.gear_is_viable(g))
        .count() as u64;
    assert!(viable >= 2, "the cruise must cover several gears");
    let snap = hev_trace::evals::count();
    InnerOptimizer::default()
        .resolve_with(&hev, &ctx, 0.0, 1.0, &RewardConfig::default())
        .expect("cruise is feasible");
    let evals = hev_trace::evals::since(snap);
    assert!(
        evals < viable * GEAR_COST,
        "no gear was pruned: {evals} evals over {viable} gears"
    );
}

/// On an engine map whose fuel rate falls with torque at low load, an
/// engine-on probe does not bound the probes above it: pruning there
/// picks a worse control at low charge, so the search must not prune.
#[test]
fn a_fuel_map_outside_the_predicate_is_searched_in_full() {
    let mut params = HevParams::default_parallel_hev();
    params.ice = IceParams {
        best_load_ratio: 0.95,
        load_span: 0.3,
        ..IceParams::default()
    };
    for soc in SOCS {
        for engine_on in [false, true] {
            let hev = plant(params.clone(), soc, engine_on, 1.0);
            assert!(!hev.engine().fuel_rate_monotone_in_torque());
            let case = format!("narrow map soc={soc} engine_on={engine_on}");
            assert_grid_matches(&hev, 1.0, &RewardConfig::default(), &case);
        }
    }
}
