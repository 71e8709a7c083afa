//! Regret gate for the inner optimization's auxiliary-power search.
//!
//! Every resolve of a demand × current grid is scored against an
//! exhaustive reference: every gear at every whole watt of the aux range.
//! Regret is how far the resolved reward falls short of that reference
//! (zero when the search beats the 1 W grid). The gate holds the
//! golden-section search to the regret of the ternary search it replaced,
//! measured on this same sweep (see CHANGES.md); a search change that
//! answers worse fails it.

use hev_control::{default_currents, InnerOptimizer, ResolvedAction, RewardConfig};
use hev_model::{ControlInput, HevParams, ParallelHev};

/// Ternary search's mean regret over [`sweep`], rounded down.
const TERNARY_MEAN_REGRET: f64 = 2.256e-4;
/// Ternary search's largest regret over [`sweep`], rounded down.
const TERNARY_MAX_REGRET: f64 = 0.1211;
/// Resolves where ternary search's regret exceeded [`REGRET_TOL`].
const TERNARY_RESOLVES_OVER_TOL: usize = 40;
/// The regret counted as a miss.
const REGRET_TOL: f64 = 1e-3;

fn hev() -> ParallelHev {
    ParallelHev::new(HevParams::default_parallel_hev(), 0.6).unwrap()
}

/// The production resolve and the exhaustive reference's best reward at
/// `(v, a, i)`, or `None` for either when nothing is feasible.
fn resolve_and_reference(
    hev: &ParallelHev,
    v: f64,
    a: f64,
    i: f64,
) -> (Option<ResolvedAction>, Option<f64>) {
    let reward = RewardConfig::default();
    let ctx = hev.step_context(&hev.demand(v, a, 0.0));
    let resolved = InnerOptimizer::default().resolve_with(hev, &ctx, i, 1.0, &reward);
    let cur = hev.current_context(i, 1.0);
    let (lo, hi) = hev.aux().power_range();
    let mut best: Option<f64> = None;
    for gear in 0..hev.drivetrain().num_gears() {
        for w in 0..=(hi - lo).round() as usize {
            let control = ControlInput {
                battery_current_a: i,
                gear,
                p_aux_w: lo + w as f64,
            };
            if let Ok(o) = hev.peek_with_contexts(&ctx, &cur, &control) {
                let r = reward.reward(&o, 1.0);
                if best.is_none_or(|b| r > b) {
                    best = Some(r);
                }
            }
        }
    }
    (resolved, best)
}

/// The resolve at `(v, a, i)` and its regret against the reference.
fn regret_at(hev: &ParallelHev, v: f64, a: f64, i: f64) -> (ResolvedAction, f64) {
    let (resolved, reference) = resolve_and_reference(hev, v, a, i);
    let resolved = resolved.expect("resolve is feasible");
    let reference = reference.expect("reference is feasible");
    (resolved, (reference - resolved.reward).max(0.0))
}

/// 40 speeds (0–35.1 m/s by 0.9) × 13 accelerations (±1.5 m/s² by 0.25)
/// × the 15 default currents.
fn sweep() -> impl Iterator<Item = (f64, f64, f64)> {
    (0..40).flat_map(|kv| {
        (0..13).flat_map(move |ka| {
            default_currents()
                .into_iter()
                .map(move |i| (0.9 * kv as f64, -1.5 + 0.25 * ka as f64, i))
        })
    })
}

#[test]
fn golden_section_regret_is_no_worse_than_ternary() {
    let hev = hev();
    let (mut feasible, mut sum, mut max, mut over) = (0usize, 0.0f64, 0.0f64, 0usize);
    for (v, a, i) in sweep() {
        match resolve_and_reference(&hev, v, a, i) {
            (Some(resolved), Some(reference)) => {
                let regret = (reference - resolved.reward).max(0.0);
                feasible += 1;
                sum += regret;
                max = max.max(regret);
                over += usize::from(regret > REGRET_TOL);
            }
            (None, None) => {}
            (resolved, reference) => panic!(
                "feasibility disagrees at v={v} a={a} i={i}: resolve {:?}, reference {reference:?}",
                resolved.map(|r| r.reward)
            ),
        }
    }
    assert_eq!(feasible, 6_773, "the sweep must cover the measured grid");
    let mean = sum / feasible as f64;
    assert!(mean <= TERNARY_MEAN_REGRET, "mean regret {mean:e}");
    assert!(max <= TERNARY_MAX_REGRET, "max regret {max}");
    assert!(
        over <= TERNARY_RESOLVES_OVER_TOL,
        "{over} resolves regret more than {REGRET_TOL}"
    );
}

#[test]
fn finds_a_feasible_sliver_below_the_first_probes() {
    // Gear 0 is the only viable gear and is feasible only below ~183 W,
    // so the grid keeps its 100 W end and the refinement bracket is
    // [100 W, 333 W]. Both first golden probes (189 W, 244 W) are
    // infeasible; the bracket must contract toward 100 W, not stop there.
    let (resolved, regret) = regret_at(&hev(), 3.6, 1.25, -25.0);
    assert_eq!(resolved.control.gear, 0);
    assert!(resolved.control.p_aux_w > 150.0, "{resolved:?}");
    assert!(regret < REGRET_TOL, "regret {regret}");
}

#[test]
fn finds_a_feasible_sliver_above_the_first_probes() {
    // The mirror case: gear 3 is feasible only above ~1 418 W, so the
    // bracket is [1 267 W, 1 500 W] and both first probes fail.
    let (resolved, regret) = regret_at(&hev(), 20.7, 1.5, 100.0);
    assert_eq!(resolved.control.gear, 3);
    assert!(resolved.control.p_aux_w > 1_400.0, "{resolved:?}");
    assert!(regret < REGRET_TOL, "regret {regret}");
}

#[test]
fn mode_switch_discontinuity_is_a_known_loss() {
    // Gear 4 runs electric-only up to ~180 W of aux power and then
    // switches to hybrid assist, dropping the reward by ~0.3: the reward
    // is not unimodal in p_aux here. The best grid point is 100 W, and
    // both first golden probes (189 W, 244 W) land past the switch, so
    // the search climbs the hybrid branch and keeps 100 W, short of the
    // reference optimum at 179 W. Ternary search's first probe (178 W)
    // happened to land inside the electric-only window. This is the one
    // case of the sweep where golden section answers worse than ternary;
    // it stays inside the gate's bounds.
    let (resolved, regret) = regret_at(&hev(), 27.0, -0.25, 4.0);
    assert_eq!(resolved.control.gear, 4);
    assert_eq!(resolved.control.p_aux_w, 100.0);
    assert!(regret > REGRET_TOL, "the loss is gone: regret {regret}");
    assert!(regret <= TERNARY_MAX_REGRET, "regret {regret}");
}
