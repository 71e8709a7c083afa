//! The differential reference for the inner optimization.
//!
//! [`resolve`] makes every probe through demand-level
//! [`ParallelHev::peek`], with no prebuilt step or battery context: every
//! gear, the coarse aux grid then the golden-section refinement (with
//! its contraction when both interior probes are infeasible), strict-`>`
//! first-wins comparisons, and a final re-evaluation of the winner. The
//! production resolve must return the bit-identical action. The search
//! sizes are restated here rather than shared, so a change to the
//! production search shows up as a divergence.
//!
//! Shared by the `inner_opt` unit tests, the supervisor property tests
//! and the current-sweep reference; the including module supplies
//! `InnerOptimizer`, `ResolvedAction` and `RewardConfig`.

use super::{InnerOptimizer, ResolvedAction, RewardConfig};
use hev_model::{ControlInput, ParallelHev, WheelDemand};

/// Coarse aux grid points.
const AUX_GRID: usize = 7;
/// Golden-section probes per gear after the grid.
const REFINE_PROBES: usize = 12;
/// `(√5 − 1) / 2`.
const INV_PHI: f64 = 0.618_033_988_749_894_8;

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
            .map(|o| reward.reward(&o, dt))
    };
    let mut best: Option<(usize, f64, f64)> = None;
    for gear in 0..hev.drivetrain().num_gears() {
        let candidate = match opt.fixed_aux_w {
            Some(aux) => score(gear, aux).map(|r| (aux, r)),
            None => best_aux(hev, |p| score(gear, p)),
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
        reward: reward.reward(&outcome, dt),
    })
}

/// The best `(p_aux, reward)` of one gear under `score`.
fn best_aux(hev: &ParallelHev, score: impl Fn(f64) -> Option<f64>) -> Option<(f64, f64)> {
    let (lo, hi) = hev.aux().power_range();
    let n = AUX_GRID;
    let mut best: Option<(usize, f64, f64)> = None;
    for k in 0..n {
        let p = lo + (hi - lo) * k as f64 / (n - 1) as f64;
        if let Some(r) = score(p) {
            if best.is_none_or(|(_, _, b)| r > b) {
                best = Some((k, p, r));
            }
        }
    }
    let (k, p_best, r_best) = best?;
    let mut best = (p_best, r_best);
    let sample = |p: f64, best: &mut (f64, f64)| {
        let r = score(p);
        if let Some(r) = r.filter(|&r| r > best.1) {
            *best = (p, r);
        }
        (p, r)
    };
    let step = (hi - lo) / (n - 1) as f64;
    let mut a = (lo + step * (k as f64 - 1.0)).max(lo);
    let mut b = (lo + step * (k as f64 + 1.0)).min(hi);
    let mut p1 = sample(b - INV_PHI * (b - a), &mut best);
    let mut p2 = sample(a + INV_PHI * (b - a), &mut best);
    let mut probes = 2;
    while probes < REFINE_PROBES {
        if p1.1.is_none() && p2.1.is_none() {
            if best.0 < p1.0 {
                b = p1.0;
            } else if best.0 > p2.0 {
                a = p2.0;
            } else {
                break;
            }
            if probes + 2 > REFINE_PROBES {
                break;
            }
            p1 = sample(b - INV_PHI * (b - a), &mut best);
            p2 = sample(a + INV_PHI * (b - a), &mut best);
            probes += 2;
        } else if p1.1 >= p2.1 {
            // `None` orders below every reward: a feasible left probe
            // beats an infeasible right one, and ties keep the left.
            b = p2.0;
            p2 = p1;
            p1 = sample(b - INV_PHI * (b - a), &mut best);
            probes += 1;
        } else {
            a = p1.0;
            p1 = p2;
            p2 = sample(a + INV_PHI * (b - a), &mut best);
            probes += 1;
        }
    }
    Some(best)
}

/// Every field of a resolved action as raw bits, for exact comparison.
#[allow(dead_code)] // a sweep test compares only the winning control
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
