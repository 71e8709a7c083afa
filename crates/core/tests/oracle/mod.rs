//! The differential reference for the inner optimization.
//!
//! [`resolve`] makes every probe through demand-level
//! [`ParallelHev::peek`], with no prebuilt step or battery context: every
//! gear, the coarse aux grid then the ternary refinement, strict-`>`
//! first-wins comparisons, and a final re-evaluation of the winner. The
//! production resolve must return the bit-identical action.
//!
//! Shared by the `inner_opt` unit tests and the supervisor property
//! tests; the including module supplies `InnerOptimizer`,
//! `ResolvedAction` and `RewardConfig`.

use super::{InnerOptimizer, ResolvedAction, RewardConfig};
use hev_model::{ControlInput, ParallelHev, WheelDemand};

/// The reference resolve of `battery_current_a` at `demand`.
pub fn resolve(
    opt: &InnerOptimizer,
    hev: &ParallelHev,
    demand: &WheelDemand,
    battery_current_a: f64,
    dt: f64,
    reward: &RewardConfig,
) -> Option<ResolvedAction> {
    let score = |gear: usize, p_aux_w: f64| {
        let control = ControlInput {
            battery_current_a,
            gear,
            p_aux_w,
        };
        hev.peek(demand, &control, dt)
            .ok()
            .map(|o| reward.reward(&o))
    };
    let mut best: Option<(usize, f64, f64)> = None;
    for gear in 0..hev.drivetrain().num_gears() {
        let candidate = match opt.fixed_aux_w {
            Some(aux) => score(gear, aux).map(|r| (aux, r)),
            None => best_aux(opt, hev, |p| score(gear, p)),
        };
        if let Some((p, r)) = candidate {
            if best.is_none_or(|(_, _, br)| r > br) {
                best = Some((gear, p, r));
            }
        }
    }
    let (gear, p_aux_w, _) = best?;
    let control = ControlInput {
        battery_current_a,
        gear,
        p_aux_w,
    };
    let outcome = hev.peek(demand, &control, dt).ok()?;
    Some(ResolvedAction {
        control,
        outcome,
        reward: reward.reward(&outcome),
    })
}

/// The best `(p_aux, reward)` of one gear under `score`.
fn best_aux(
    opt: &InnerOptimizer,
    hev: &ParallelHev,
    score: impl Fn(f64) -> Option<f64>,
) -> Option<(f64, f64)> {
    let (lo, hi) = hev.aux().power_range();
    let n = opt.aux_grid.max(2);
    let mut best: Option<(usize, f64, f64)> = None;
    for k in 0..n {
        let p = lo + (hi - lo) * k as f64 / (n - 1) as f64;
        if let Some(r) = score(p) {
            if best.is_none_or(|(_, _, b)| r > b) {
                best = Some((k, p, r));
            }
        }
    }
    let (k, mut p_best, mut r_best) = best?;
    let step = (hi - lo) / (n - 1) as f64;
    let mut a = (lo + step * (k as f64 - 1.0)).max(lo);
    let mut b = (lo + step * (k as f64 + 1.0)).min(hi);
    for _ in 0..opt.refine_iters {
        let m1 = a + (b - a) / 3.0;
        let m2 = b - (b - a) / 3.0;
        let (p, r) = match (score(m1), score(m2)) {
            (Some(x1), Some(x2)) if x1 >= x2 => {
                b = m2;
                (m1, x1)
            }
            (Some(_), Some(x2)) => {
                a = m1;
                (m2, x2)
            }
            (Some(x1), None) => {
                b = m2;
                (m1, x1)
            }
            (None, Some(x2)) => {
                a = m1;
                (m2, x2)
            }
            (None, None) => break,
        };
        if r > r_best {
            r_best = r;
            p_best = p;
        }
    }
    Some((p_best, r_best))
}

/// Every field of a resolved action as raw bits, for exact comparison.
pub fn bits(r: &ResolvedAction) -> Vec<u64> {
    let o = &r.outcome;
    vec![
        r.control.battery_current_a.to_bits(),
        r.control.gear as u64,
        r.control.p_aux_w.to_bits(),
        r.reward.to_bits(),
        o.mode as u64,
        o.fuel_rate_g_per_s.to_bits(),
        o.fuel_g.to_bits(),
        u64::from(o.engine_started),
        o.ice_torque_nm.to_bits(),
        o.ice_speed_rad_s.to_bits(),
        o.em_torque_nm.to_bits(),
        o.em_speed_rad_s.to_bits(),
        o.battery_current_a.to_bits(),
        o.battery_power_w.to_bits(),
        o.p_aux_w.to_bits(),
        o.aux_utility.to_bits(),
        o.friction_brake_torque_nm.to_bits(),
        o.soc_before.to_bits(),
        o.soc_after.to_bits(),
    ]
}
