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
use hev_control::{default_currents, fallback_control, EcmsController, HevPolicy, Observation};
use hev_model::{ControlInput, HevParams, ParallelHev, WheelDemand, FUEL_LHV_J_PER_G};

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
/// the reference fallback when none is feasible. ECMS's tunables are
/// written out: equivalence factor 3.0 with feedback gain 8.0 around a
/// target charge of 0.60, 600 W of aux power and the default currents.
fn reference_ecms(hev: &ParallelHev, demand: &WheelDemand, soc: f64, dt: f64) -> ControlInput {
    let s = (3.0 - 8.0 * (soc - 0.60)).max(0.5);
    let mut best: Option<(f64, ControlInput)> = None;
    for i in default_currents() {
        for gear in 0..hev.drivetrain().num_gears() {
            let c = ControlInput {
                battery_current_a: i,
                gear,
                p_aux_w: 600.0,
            };
            let Ok(o) = hev.peek(demand, &c, dt) else {
                continue;
            };
            let cost = o.fuel_rate_g_per_s + s * o.battery_power_w / FUEL_LHV_J_PER_G;
            if best.as_ref().is_none_or(|(bc, _)| cost < *bc) {
                best = Some((cost, c));
            }
        }
    }
    best.map_or_else(|| reference_fallback(hev, demand, dt), |(_, c)| c)
}

/// Checks ECMS against the reference on every step of the paper's cycles
/// and MODEM, at three charge levels, on a plant whose motor is derated
/// by `derate`.
fn assert_ecms_matches(derate: f64) {
    let mut ecms = EcmsController;
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
                let want = reference_ecms(&hev, &demand, soc, dt);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{} t={} soc={soc} derate={derate}",
                    cycle.name(),
                    p.time_s,
                );
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
