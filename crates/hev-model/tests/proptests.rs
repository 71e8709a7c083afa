//! Property-based tests of the powertrain component models.

use hev_model::{
    Battery, BatteryParams, BodyParams, ControlInput, Drivetrain, DrivetrainParams, Engine,
    HevParams, IceParams, Motor, MotorParams, OperatingMode, ParallelHev, StepOutcome, VehicleBody,
    WheelDemand,
};
use proptest::prelude::*;
use proptest::TestCaseError;

fn engine() -> Engine {
    Engine::new(IceParams::default()).expect("valid defaults")
}

fn motor() -> Motor {
    Motor::new(MotorParams::default()).expect("valid defaults")
}

fn battery() -> Battery {
    Battery::new(BatteryParams::default(), 0.6).expect("valid defaults")
}

/// Tolerance on the realized battery power's monotonicity in `p_aux`,
/// W. An unclamped regen command inverts the machine map and maps the
/// torque back, which rounds by tens of ulps at the command's power scale
/// (3.2e-10 W at worst over 200 000 random pairs). 1e-8 W moves the shaped
/// reward by under 3e-12, inside the inner optimization's 1e-9 slack.
const POWER_TOL_W: f64 = 1e-8;
/// Tolerance on the state of charge after the step: 9 ulps at 0.6 (1 ulp
/// at worst over the same pairs).
const SOC_TOL: f64 = 1e-15;
/// Aux powers per sweep, evenly spaced over the whole range.
const AUX_POINTS: usize = 200;

/// A plant at `soc` with its motor derated to `derate`.
fn plant(soc: f64, derate: f64) -> ParallelHev {
    let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), soc).expect("valid defaults");
    hev.set_motor_derate(derate);
    hev
}

/// The feasible outcomes of `points` ascending aux powers over the whole
/// range at `(demand, i, gear)` over a step of `dt` seconds.
fn aux_sweep(
    hev: &ParallelHev,
    demand: &WheelDemand,
    i: f64,
    gear: usize,
    dt: f64,
    points: usize,
) -> Vec<StepOutcome> {
    let (lo, hi) = hev.aux().power_range();
    (0..points)
        .filter_map(|k| {
            let p_aux_w = lo + (hi - lo) * k as f64 / (points - 1) as f64;
            let control = ControlInput {
                battery_current_a: i,
                gear,
                p_aux_w,
            };
            hev.peek(demand, &control, dt).ok()
        })
        .collect()
}

/// Checks that the realized battery power is non-decreasing and the state
/// of charge after the step non-increasing along `outcomes`, whose aux
/// powers ascend, to within [`POWER_TOL_W`] and [`SOC_TOL`].
fn assert_monotone(outcomes: &[StepOutcome]) -> Result<(), TestCaseError> {
    for w in outcomes.windows(2) {
        let (o1, o2) = (&w[0], &w[1]);
        prop_assert!(
            o2.battery_power_w >= o1.battery_power_w - POWER_TOL_W,
            "battery power fell {} W -> {} W from {} W to {} W aux",
            o1.battery_power_w,
            o2.battery_power_w,
            o1.p_aux_w,
            o2.p_aux_w
        );
        prop_assert!(
            o2.soc_after <= o1.soc_after + SOC_TOL,
            "state of charge rose {} -> {} from {} W to {} W aux",
            o1.soc_after,
            o2.soc_after,
            o1.p_aux_w,
            o2.p_aux_w
        );
    }
    Ok(())
}

/// Whether a mode is a braking completion's.
fn brakes(mode: OperatingMode) -> bool {
    matches!(
        mode,
        OperatingMode::RegenBraking | OperatingMode::FrictionBraking
    )
}

proptest! {
    /// Engine efficiency is bounded and fuel flow is consistent with it.
    #[test]
    fn engine_efficiency_bounded(torque in 0.1f64..120.0, speed in 105.0f64..575.0) {
        let e = engine();
        let eta = e.efficiency(torque, speed);
        prop_assert!(eta > 0.0 && eta <= e.params().peak_efficiency + 1e-12);
        let mdot = e.fuel_rate(torque, speed);
        prop_assert!(mdot > 0.0);
        let back = torque * speed / (mdot * e.params().fuel_lhv_j_per_g);
        prop_assert!((back - eta).abs() < 1e-9);
    }

    /// The wide-open-throttle curve is continuous (no interpolation
    /// jumps): nearby speeds give nearby torque limits.
    #[test]
    fn engine_torque_curve_lipschitz(speed in 100.0f64..570.0, delta in 0.0f64..1.0) {
        let e = engine();
        let a = e.max_torque(speed);
        let b = e.max_torque(speed + delta);
        prop_assert!((a - b).abs() <= delta * 1.0 + 1e-9); // ≤ 1 N·m per rad/s
    }

    /// The motor's electrical power is monotone in torque on the control
    /// branch, and the inverse map recovers the torque there.
    #[test]
    fn motor_inverse_on_control_branch(
        t in -60.0f64..85.0,
        w in 20.0f64..1000.0,
    ) {
        let m = motor();
        let vertex = -w / (2.0 * m.params().copper_loss);
        prop_assume!(t > vertex);
        let p = m.electrical_power(t, w);
        let t_back = m.torque_from_electrical_power(p, w).expect("on-branch inverse");
        prop_assert!((t_back - t).abs() < 1e-6);
    }

    /// Motoring efficiency never exceeds 1; generating efficiency (when
    /// defined) is in (0, 1].
    #[test]
    fn motor_efficiency_bounded(t in -85.0f64..85.0, w in 10.0f64..1000.0) {
        let m = motor();
        if let Some(eta) = m.efficiency(t, w) {
            prop_assert!(eta > 0.0 && eta <= 1.0 + 1e-12, "eta {eta} at t={t} w={w}");
        }
    }

    /// Battery current→power→current roundtrips on the physical branch.
    #[test]
    fn battery_power_current_roundtrip(i in -80.0f64..120.0) {
        let b = battery();
        let p = b.terminal_power(i);
        // The quadratic's physical branch covers |i| < V/(2R) ≈ 510 A.
        let i_back = b.current_for_power(p).expect("within physical range");
        prop_assert!((i_back - i).abs() < 1e-6);
    }

    /// Coulomb counting is exact and symmetric.
    #[test]
    fn coulomb_counting_symmetry(i in 0.5f64..60.0, dt in 0.1f64..60.0) {
        let mut b = battery();
        let q0 = b.soc();
        prop_assume!(b.soc_after(i, dt) > 0.401 && b.soc_after(-i, dt) < 0.799);
        b.step(i, dt).expect("discharge ok");
        b.step(-i, dt).expect("charge ok");
        prop_assert!((b.soc() - q0).abs() < 1e-12);
    }

    /// Drivetrain wheel-torque/shaft-torque maps invert each other for
    /// the engine-only path in every gear.
    #[test]
    fn drivetrain_inverse(t_wh in -600.0f64..800.0, gear in 0usize..5) {
        let d = Drivetrain::new(DrivetrainParams::default()).expect("valid defaults");
        let shaft = d.required_shaft_torque(t_wh, gear);
        let back = d.wheel_torque(shaft, 0.0, gear);
        prop_assert!((back - t_wh).abs() < 1e-9);
    }

    /// Tractive force decomposes additively: inertia-only plus
    /// resistances-only equals the total (grade fixed).
    #[test]
    fn tractive_force_superposition(v in 0.1f64..40.0, a in -3.0f64..3.0) {
        let body = VehicleBody::new(BodyParams::default()).expect("valid defaults");
        let total = body.tractive_force(v, a, 0.0);
        let inertia = body.tractive_force(0.0, a, 0.0); // no speed → no drag/roll
        let resist = body.tractive_force(v, 0.0, 0.0);
        prop_assert!((total - (inertia + resist)).abs() < 1e-9);
    }

    /// The staged pipeline (context precompute + completion) is
    /// bit-identical to the monolithic [`ParallelHev::peek`] — same
    /// outcome on success, same infeasibility reason on failure — for
    /// randomized demand, battery state, and control, across the
    /// stopped/braking/propelling boundaries.
    #[test]
    fn staged_completion_matches_monolithic_peek(
        v in 0.0f64..30.0,
        // A second speed near the stop threshold (0.05 m/s) so every run
        // also exercises the Stopped boundary.
        v_near_stop in 0.0f64..0.12,
        accel in -3.0f64..2.0,
        i in -80.0f64..120.0,
        gear in 0usize..6, // one past the last gear: invalid-gear parity too
        p_aux in 0.0f64..2500.0,
        soc in 0.41f64..0.79, // the model's charge-sustaining window
    ) {
        let hev = ParallelHev::new(HevParams::default_parallel_hev(), soc)
            .expect("valid defaults");
        for speed in [v, v_near_stop] {
            let demand = hev.demand(speed, accel, 0.0);
            let control = ControlInput { battery_current_a: i, gear, p_aux_w: p_aux };
            let dt = 1.0;

            let monolithic = hev.peek(&demand, &control, dt);

            let ctx = hev.step_context(&demand);
            let staged = hev.peek_with_context(&ctx, &control, dt);
            prop_assert_eq!(&staged, &monolithic);

            let cur = hev.current_context(i, dt);
            let staged2 = hev.peek_with_contexts(&ctx, &cur, &control);
            prop_assert_eq!(&staged2, &monolithic);

            // Bit-identical, not just approximately equal: every f64
            // field of a successful outcome matches to the bit.
            if let (Ok(a), Ok(b)) = (&staged, &monolithic) {
                prop_assert_eq!(a.soc_after.to_bits(), b.soc_after.to_bits());
                prop_assert_eq!(a.fuel_g.to_bits(), b.fuel_g.to_bits());
                prop_assert_eq!(a.battery_power_w.to_bits(), b.battery_power_w.to_bits());
                prop_assert_eq!(a.em_torque_nm.to_bits(), b.em_torque_nm.to_bits());
                prop_assert_eq!(a.ice_torque_nm.to_bits(), b.ice_torque_nm.to_bits());
                prop_assert_eq!(a.aux_utility.to_bits(), b.aux_utility.to_bits());
            }
        }
    }

    /// On an engine map that `fuel_rate_monotone_in_torque` accepts, the
    /// fuel rate is non-decreasing in torque from just above zero up to
    /// wide-open throttle, at every engine speed (the idle fuel rate at
    /// zero torque is the map's one exception, and no engine-on
    /// operating point has zero torque).
    #[test]
    fn fuel_rate_is_monotone_in_torque_when_predicted(
        best_load in 0.05f64..1.0,
        extra_span in 0.0f64..1.0,
        speed in 105.0f64..575.0,
    ) {
        let e = Engine::new(IceParams {
            best_load_ratio: best_load,
            load_span: best_load + extra_span,
            ..IceParams::default()
        })
        .expect("valid map");
        prop_assert!(e.fuel_rate_monotone_in_torque());
        let wot = e.max_torque(speed);
        let mut prev = 0.0;
        for k in 1..=500 {
            let torque = wot * k as f64 / 500.0;
            let rate = e.fuel_rate(torque, speed);
            prop_assert!(rate >= prev, "{} g/s at {} N·m after {} g/s", rate, torque, prev);
            prev = rate;
        }
    }

    /// On a braking step the realized battery power is non-decreasing in
    /// `p_aux`, and the state of charge after the step non-increasing,
    /// across the clamp at zero machine torque, the unclamped command and
    /// the regen floor: the bound the inner optimization puts on a
    /// braking gear's refinement rests on it.
    #[test]
    fn braking_power_is_monotone_in_aux(
        v in 1.0f64..30.0,
        accel in -3.0f64..-0.1,
        i in -80.0f64..120.0,
        gear in 0usize..5,
        soc in 0.41f64..0.79,
        derate in 0.2f64..1.0,
        half in 0usize..2,
    ) {
        let hev = plant(soc, derate);
        let demand = hev.demand(v, accel, 0.0);
        prop_assume!(demand.wheel_torque_nm < 0.0);
        let outcomes = aux_sweep(&hev, &demand, i, gear, [1.0, 0.5][half], AUX_POINTS);
        prop_assert!(outcomes.iter().all(|o| brakes(o.mode)));
        assert_monotone(&outcomes)?;
    }

    /// Between two EV-only outcomes the battery power `p_em_ev + p_aux`
    /// rises with `p_aux` and the state of charge after the step falls
    /// (the other half of the refine bound's lemma).
    #[test]
    fn ev_power_is_monotone_in_aux(
        v in 1.0f64..15.0,
        accel in -0.2f64..0.6,
        i in 10.0f64..120.0,
        gear in 0usize..5,
        soc in 0.41f64..0.79,
        derate in 0.2f64..1.0,
        half in 0usize..2,
    ) {
        let hev = plant(soc, derate);
        let demand = hev.demand(v, accel, 0.0);
        let outcomes: Vec<StepOutcome> =
            aux_sweep(&hev, &demand, i, gear, [1.0, 0.5][half], AUX_POINTS)
                .into_iter()
                .filter(|o| o.mode == OperatingMode::EvOnly)
                .collect();
        assert_monotone(&outcomes)?;
    }

    /// A committed step always reports soc_after equal to the vehicle's
    /// state, for any feasible action.
    #[test]
    fn step_commit_consistency(
        v in 0.0f64..30.0,
        accel in -2.0f64..1.5,
        i in -60.0f64..100.0,
        gear in 0usize..5,
    ) {
        let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6)
            .expect("valid defaults");
        let demand = hev.demand(v, accel, 0.0);
        let control = ControlInput { battery_current_a: i, gear, p_aux_w: 600.0 };
        if let Ok(o) = hev.step(&demand, &control, 1.0) {
            prop_assert_eq!(o.soc_after, hev.soc());
            prop_assert_eq!(o.soc_before, 0.6);
            prop_assert_eq!(hev.engine_on(), o.ice_speed_rad_s > 0.0);
        }
    }
}

/// The braking monotonicity holds inside each clamp region of the regen
/// command, each swept at 1 000 aux powers: a discharge command clamped
/// to zero machine torque, an unclamped regen command, and one clamped at
/// the gear's regen floor. An EV-capable launch covers the EV-only case.
#[test]
fn power_is_monotone_in_aux_in_each_clamp_region() {
    let hev = plant(0.6, 1.0);
    let gear = 3;
    let region = |speed: f64, accel: f64, i: f64| {
        let demand = hev.demand(speed, accel, 0.0);
        let outcomes = aux_sweep(&hev, &demand, i, gear, 1.0, 1_000);
        assert_eq!(outcomes.len(), 1_000, "every aux power is feasible");
        assert_monotone(&outcomes).unwrap();
        let floor = hev.step_context(&demand).regen_floor_nm(gear);
        (outcomes, floor)
    };
    let (zero, _) = region(15.0, -1.5, 40.0);
    assert!(zero
        .iter()
        .all(|o| o.em_torque_nm == 0.0 && o.mode == OperatingMode::FrictionBraking));
    let (free, floor) = region(15.0, -1.5, -8.0);
    let floor = floor.expect("a braking step has a floor");
    assert!(free
        .iter()
        .all(|o| o.em_torque_nm < 0.0 && o.em_torque_nm > floor));
    let (floored, floor) = region(15.0, -0.3, -60.0);
    let floor = floor.expect("a braking step has a floor");
    assert!(floored
        .iter()
        .all(|o| o.em_torque_nm.to_bits() == floor.to_bits()));
    let launch = hev.demand(3.0, 0.4, 0.0);
    let ev = aux_sweep(&hev, &launch, 60.0, 1, 1.0, 1_000);
    assert!(ev.iter().all(|o| o.mode == OperatingMode::EvOnly) && ev.len() == 1_000);
    assert_monotone(&ev).unwrap();
}

/// An efficiency peak at a load ratio above the load parabola's width
/// makes the fuel rate fall with torque somewhere, and the predicate
/// says so.
#[test]
fn narrow_high_load_map_is_reported_non_monotone() {
    let e = Engine::new(IceParams {
        best_load_ratio: 0.95,
        load_span: 0.3,
        ..IceParams::default()
    })
    .expect("valid map");
    assert!(!e.fuel_rate_monotone_in_torque());
    assert!(engine().fuel_rate_monotone_in_torque());
    let speed = e.params().best_speed_rad_s;
    let wot = e.max_torque(speed);
    let rates: Vec<f64> = (1..=100)
        .map(|k| e.fuel_rate(wot * f64::from(k) / 100.0, speed))
        .collect();
    assert!(
        rates.windows(2).any(|w| w[1] < w[0]),
        "the fuel rate should fall with torque on this map"
    );
}
