//! Differential references for the fixed-aux `(current, gear)` sweep
//! behind ECMS and the fallback scan.
//!
//! Each reference is the loop the production code ran before both moved
//! onto the one sweep, with every probe through demand-level
//! [`ParallelHev::peek`]: no prebuilt step or battery context, no
//! pack-limit precheck, no skipped gear and no stopped-step shortcut.
//! [`EcmsController`] must decide the bit-identical control on every step
//! of five standard cycles, and [`fallback_control`] must return the
//! bit-identical control over a demand grid without spending more evals
//! than the reference's first-feasible scan.

use drive_cycle::StandardCycle;
use hev_control::{fallback_control, EcmsConfig, EcmsController, HevPolicy, Observation};
use hev_model::{ControlInput, HevParams, ParallelHev, WheelDemand};

/// The default currents shuffled: the terminal power rises only in short
/// runs, so a gear may stay settled only inside them.
const UNSORTED: [f64; 15] = [
    15.0, -60.0, 100.0, 0.0, 40.0, -8.0, 80.0, -25.0, 4.0, 60.0, -40.0, 25.0, -4.0, 8.0, -15.0,
];

fn hev(soc: f64) -> ParallelHev {
    ParallelHev::new(HevParams::default_parallel_hev(), soc).unwrap()
}

fn bits(c: &ControlInput) -> (u64, usize, u64) {
    (c.battery_current_a.to_bits(), c.gear, c.p_aux_w.to_bits())
}

/// The reference fallback scan: a coarse current ladder, then −80 A to
/// 120 A in 4 A steps, every gear ascending at each current, with the
/// preferred and then the minimum aux power; the first feasible control,
/// or the zero-current 1st-gear request when none is.
fn reference_fallback(hev: &ParallelHev, demand: &WheelDemand, dt: f64) -> ControlInput {
    let (aux_min, _) = hev.aux().power_range();
    let coarse = [
        0.0, -4.0, 4.0, -8.0, 8.0, -15.0, 15.0, 25.0, -25.0, 50.0, 100.0,
    ];
    let fine = (0..=50).map(|k| -80.0 + 4.0 * f64::from(k));
    for aux in [hev.aux().preferred_power(), aux_min] {
        for i in coarse.into_iter().chain(fine.clone()) {
            for gear in 0..hev.drivetrain().num_gears() {
                let c = ControlInput {
                    battery_current_a: i,
                    gear,
                    p_aux_w: aux,
                };
                if hev.peek(demand, &c, dt).is_ok() {
                    return c;
                }
            }
        }
    }
    ControlInput {
        battery_current_a: 0.0,
        gear: 0,
        p_aux_w: hev.aux().preferred_power(),
    }
}

/// The reference ECMS decision: the least equivalent fuel rate over every
/// `(current, gear)` at the fixed aux power (strict `<`, first wins), or
/// the reference fallback when none is feasible.
fn reference_ecms(
    config: &EcmsConfig,
    hev: &ParallelHev,
    demand: &WheelDemand,
    soc: f64,
    dt: f64,
) -> ControlInput {
    let s =
        (config.equivalence_factor - config.soc_feedback_gain * (soc - config.soc_target)).max(0.5);
    let mut best: Option<(f64, ControlInput)> = None;
    for &i in &config.currents {
        for gear in 0..hev.drivetrain().num_gears() {
            let c = ControlInput {
                battery_current_a: i,
                gear,
                p_aux_w: config.aux_power_w,
            };
            let Ok(o) = hev.peek(demand, &c, dt) else {
                continue;
            };
            let cost = o.fuel_rate_g_per_s + s * o.battery_power_w / config.fuel_lhv_j_per_g;
            if best.as_ref().is_none_or(|(bc, _)| cost < *bc) {
                best = Some((cost, c));
            }
        }
    }
    best.map_or_else(|| reference_fallback(hev, demand, dt), |(_, c)| c)
}

/// Checks ECMS against the reference on every step of the paper's cycles
/// and MODEM, at three charge levels, with the default and a shuffled
/// current list, on a plant whose motor is derated by `derate`.
fn assert_ecms_matches(derate: f64) {
    for currents in [EcmsConfig::default().currents, UNSORTED.to_vec()] {
        let config = EcmsConfig {
            currents,
            ..EcmsConfig::default()
        };
        let mut ecms = EcmsController::new(config.clone());
        for sc in [
            StandardCycle::Udds,
            StandardCycle::Hwfet,
            StandardCycle::Sc03,
            StandardCycle::Oscar,
            StandardCycle::ModemUrban,
        ] {
            let cycle = sc.cycle();
            let dt = cycle.dt();
            let mut hev = hev(0.6);
            hev.set_motor_derate(derate);
            for (step, p) in cycle.points().enumerate() {
                let demand = hev.demand(p.speed_mps, p.accel_mps2, p.grade);
                let ctx = hev.step_context(&demand);
                for soc in [0.41, 0.6, 0.79] {
                    hev.reset_soc(soc);
                    let obs = Observation {
                        step,
                        time_s: p.time_s,
                        dt_s: dt,
                        demand: &demand,
                        soc,
                        ctx: &ctx,
                    };
                    let got = ecms.decide(&hev, &obs);
                    let want = reference_ecms(&config, &hev, &demand, soc, dt);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{} t={} soc={soc} derate={derate} currents={:?}",
                        cycle.name(),
                        p.time_s,
                        config.currents
                    );
                }
            }
        }
    }
}

#[test]
fn ecms_matches_the_reference_on_the_standard_cycles() {
    assert_ecms_matches(1.0);
}

#[test]
fn ecms_matches_the_reference_on_a_derated_motor() {
    assert_ecms_matches(0.5);
}

#[test]
fn fallback_matches_the_reference_scan_at_no_more_evals() {
    let mut cells = 0;
    let mut unsteppable = 0;
    let mut saved = 0;
    for soc in [0.41, 0.6, 0.79] {
        for derate in [1.0, 0.5] {
            let mut hev = hev(soc);
            hev.set_motor_derate(derate);
            for v in [0.0, 0.04, 3.0, 12.0, 25.0, 38.0] {
                for a in [-3.0, -1.5, -0.3, 0.0, 0.6, 1.5, 3.0, 6.0] {
                    for grade in [0.0, 0.12] {
                        let demand = hev.demand(v, a, grade);
                        let ctx = hev.step_context(&demand);
                        for dt in [0.5, 1.0] {
                            let snap = hev_trace::evals::count();
                            let want = reference_fallback(&hev, &demand, dt);
                            let reference_evals = hev_trace::evals::since(snap);
                            let snap = hev_trace::evals::count();
                            let got = fallback_control(&hev, &ctx, dt);
                            let evals = hev_trace::evals::since(snap);
                            let at = format!(
                                "v={v} a={a} grade={grade} soc={soc} derate={derate} dt={dt}"
                            );
                            assert_eq!(bits(&got), bits(&want), "{at}");
                            assert!(
                                evals <= reference_evals,
                                "{at}: {evals} evals, the reference {reference_evals}"
                            );
                            cells += 1;
                            saved += reference_evals - evals;
                            if hev.peek(&demand, &want, dt).is_err() {
                                unsteppable += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    // The grid must reach demands no control can step, where the scan
    // runs out and its skips pay.
    assert!(unsteppable > 0, "no unsteppable demand among {cells} cells");
    assert!(saved > 0, "the sweep saved no eval over {cells} cells");
}
