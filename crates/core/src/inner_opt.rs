//! Per-step inner optimization for the reduced action space
//! (paper §4.3.2).
//!
//! Under the reduced action space the RL agent chooses only the battery
//! current; the gear `R(k)` and auxiliary power `p_aux` are then selected
//! "by solving an optimization problem such that the instantaneous reward
//! function can be maximized". Because `p_aux` is optimized continuously
//! here, it needs no discretization — one of the advantages the paper
//! claims for the reduced space.
//!
//! Every candidate is probed directly with
//! [`ParallelHev::peek_with_contexts`] against the step's prebuilt
//! [`StepContext`] and one [`CurrentContext`] built per commanded
//! current, so the battery math is paid once per current. Each probe
//! counts one peek-equivalent evaluation ([`hev_trace::evals`]); the
//! winner's outcome is kept from the sweep rather than re-evaluated.

use crate::reward::RewardConfig;
use hev_model::{ControlInput, CurrentContext, ParallelHev, StepContext, StepOutcome, WheelDemand};
use serde::{Deserialize, Serialize};

/// A fully resolved action: the control input, the predicted outcome, and
/// its instantaneous reward.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedAction {
    /// The realized control input.
    pub control: ControlInput,
    /// The outcome [`ParallelHev::peek`] predicts for it.
    pub outcome: StepOutcome,
    /// Its instantaneous reward.
    pub reward: f64,
}

/// The inner optimizer: maximizes the instantaneous reward over
/// `(gear, p_aux)` for a given battery current.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InnerOptimizer {
    /// Coarse grid points over the auxiliary power range.
    pub aux_grid: usize,
    /// Ternary-search refinement iterations around the best grid point.
    pub refine_iters: usize,
    /// Locks the auxiliary power to a fixed value instead of optimizing
    /// it — this reproduces the powertrain-only RL baseline (ICCAD'14),
    /// which ignores auxiliary control.
    pub fixed_aux_w: Option<f64>,
}

impl Default for InnerOptimizer {
    fn default() -> Self {
        Self {
            aux_grid: 7,
            refine_iters: 12,
            fixed_aux_w: None,
        }
    }
}

/// One probed candidate of a gear's aux search: the auxiliary power, the
/// reward, and the outcome it was scored from.
#[derive(Debug, Clone, Copy)]
struct Probe {
    p_aux_w: f64,
    reward: f64,
    outcome: StepOutcome,
}

impl InnerOptimizer {
    /// An optimizer with the auxiliary power pinned to `p_aux_w`.
    pub fn with_fixed_aux(p_aux_w: f64) -> Self {
        Self {
            fixed_aux_w: Some(p_aux_w),
            ..Self::default()
        }
    }

    /// Resolves the best `(gear, p_aux)` for the given battery current,
    /// or `None` when no combination is feasible (the action is masked).
    ///
    /// Builds a [`StepContext`] internally. Callers that resolve several
    /// currents against one demand should build the context once and use
    /// [`InnerOptimizer::resolve_with`].
    pub fn resolve(
        &self,
        hev: &ParallelHev,
        demand: &WheelDemand,
        battery_current_a: f64,
        dt: f64,
        reward: &RewardConfig,
    ) -> Option<ResolvedAction> {
        let ctx = hev.step_context(demand);
        self.resolve_with(hev, &ctx, battery_current_a, dt, reward)
    }

    /// [`InnerOptimizer::resolve`] against a prebuilt [`StepContext`].
    ///
    /// Sweeps the viable gears in ascending order; per gear, either the
    /// fixed auxiliary power or a coarse `aux_grid` sweep followed by a
    /// ternary refinement around its best point. Comparisons are
    /// strict-`>` and first-wins throughout. A moving step costs
    /// `aux_grid` evaluations per viable gear plus the refinement probes;
    /// a current that fails the pack limits costs none.
    pub fn resolve_with(
        &self,
        hev: &ParallelHev,
        ctx: &StepContext,
        battery_current_a: f64,
        dt: f64,
        reward: &RewardConfig,
    ) -> Option<ResolvedAction> {
        let _span = hev_trace::span::enter("control.resolve");
        let cur = hev.current_context(battery_current_a, dt);
        if !ctx.is_stopped() && !cur.is_feasible() {
            // The commanded current violates the pack limits: every
            // moving-mode evaluation replays the same error, so the whole
            // sweep is masked without paying for a single one.
            return None;
        }
        let (gear, best) = match self.fixed_aux_w {
            Some(aux) => {
                let _grid = hev_trace::span::enter("control.grid");
                best_gear(hev, ctx, |gear| probe(hev, ctx, &cur, gear, aux, reward))
            }
            None => best_gear(hev, ctx, |gear| {
                self.best_aux_for_gear(hev, ctx, &cur, gear, reward)
            }),
        }?;
        Some(ResolvedAction {
            control: ControlInput {
                battery_current_a,
                gear,
                p_aux_w: best.p_aux_w,
            },
            outcome: best.outcome,
            reward: best.reward,
        })
    }

    /// Cheap feasibility probe: is the current realizable in *any* gear
    /// with the preferred auxiliary power? The demand-level form of the
    /// per-step action mask ([`InnerOptimizer::fill_mask`]).
    pub fn feasible(
        &self,
        hev: &ParallelHev,
        demand: &WheelDemand,
        battery_current_a: f64,
        dt: f64,
    ) -> bool {
        let aux = self.mask_aux(hev);
        (0..hev.drivetrain().num_gears()).any(|gear| {
            hev.peek(
                demand,
                &ControlInput {
                    battery_current_a,
                    gear,
                    p_aux_w: aux,
                },
                dt,
            )
            .is_ok()
        })
    }

    /// The action mask over a current grid: `mask[idx]` answers
    /// [`InnerOptimizer::feasible`] for `currents[idx]` against the
    /// prebuilt context.
    ///
    /// A *moving* step probes each current's viable gears in ascending
    /// order until one is feasible, so a current first feasible in gear
    /// `g` costs `g + 1` evaluations (when every gear is viable), and a
    /// current that fails the pack-limit precheck costs none. A *stopped*
    /// step resolves independently of both the commanded current and the
    /// gear, so one probe at the first viable gear decides every entry.
    pub fn fill_mask(
        &self,
        hev: &ParallelHev,
        ctx: &StepContext,
        currents: &[f64],
        dt: f64,
        mask: &mut [bool],
    ) {
        debug_assert_eq!(currents.len(), mask.len());
        let aux = self.mask_aux(hev);
        let num_gears = hev.drivetrain().num_gears();
        let feasible_at = |cur: &CurrentContext, gear: usize| {
            let control = ControlInput {
                battery_current_a: cur.battery_current_a(),
                gear,
                p_aux_w: aux,
            };
            hev.peek_with_contexts(ctx, cur, &control).is_ok()
        };
        if ctx.is_stopped() {
            let cur = hev.current_context(currents.first().copied().unwrap_or(0.0), dt);
            let verdict = (0..num_gears)
                .find(|&gear| ctx.gear_is_viable(gear))
                .is_some_and(|gear| feasible_at(&cur, gear));
            mask.fill(verdict);
            return;
        }
        for (m, &i) in mask.iter_mut().zip(currents) {
            let cur = hev.current_context(i, dt);
            *m = cur.is_feasible()
                && (0..num_gears).any(|gear| ctx.gear_is_viable(gear) && feasible_at(&cur, gear));
        }
    }

    /// The auxiliary power the action mask probes with.
    fn mask_aux(&self, hev: &ParallelHev) -> f64 {
        self.fixed_aux_w
            .unwrap_or_else(|| hev.aux().preferred_power())
    }

    /// The best probe of one gear: coarse grid, then ternary refinement
    /// around the best grid point.
    #[inline(always)]
    fn best_aux_for_gear(
        &self,
        hev: &ParallelHev,
        ctx: &StepContext,
        cur: &CurrentContext,
        gear: usize,
        reward: &RewardConfig,
    ) -> Option<Probe> {
        let (lo, hi) = hev.aux().power_range();
        let n = self.aux_grid.max(2);
        let (k_best, mut best) = {
            let _grid = hev_trace::span::enter("control.grid");
            let mut best: Option<(usize, Probe)> = None;
            for k in 0..n {
                let p = lo + (hi - lo) * k as f64 / (n - 1) as f64;
                if let Some(c) = probe(hev, ctx, cur, gear, p, reward) {
                    if best.is_none_or(|(_, b)| c.reward > b.reward) {
                        best = Some((k, c));
                    }
                }
            }
            best?
        };
        // Ternary-search refinement in the bracket around the best grid
        // point (the reward is uni-modal in p_aux in practice: fuel rises
        // monotonically with p_aux while the utility is quasi-concave).
        let _span = hev_trace::span::enter("control.refine");
        let step = (hi - lo) / (n - 1) as f64;
        let mut a = (lo + step * (k_best as f64 - 1.0)).max(lo);
        let mut b = (lo + step * (k_best as f64 + 1.0)).min(hi);
        for _ in 0..self.refine_iters {
            let m1 = a + (b - a) / 3.0;
            let m2 = b - (b - a) / 3.0;
            let c1 = probe(hev, ctx, cur, gear, m1, reward);
            let c2 = probe(hev, ctx, cur, gear, m2, reward);
            let winner = match (c1, c2) {
                (Some(x1), Some(x2)) => {
                    if x1.reward >= x2.reward {
                        b = m2;
                        x1
                    } else {
                        a = m1;
                        x2
                    }
                }
                (Some(x1), None) => {
                    b = m2;
                    x1
                }
                (None, Some(x2)) => {
                    a = m1;
                    x2
                }
                (None, None) => break,
            };
            if winner.reward > best.reward {
                best = winner;
            }
        }
        Some(best)
    }
}

/// The best `(gear, probe)` over the viable gears in ascending order
/// under strict `>` (first wins), where `search` scores one gear.
///
/// A stopped step resolves independently of the gear: every later viable
/// gear ties the first and loses the strict comparison, so only the
/// first viable gear pays for its search.
#[inline(always)]
fn best_gear(
    hev: &ParallelHev,
    ctx: &StepContext,
    mut search: impl FnMut(usize) -> Option<Probe>,
) -> Option<(usize, Probe)> {
    let mut best: Option<(usize, Probe)> = None;
    for gear in 0..hev.drivetrain().num_gears() {
        if !ctx.gear_is_viable(gear) {
            // A control-independent check already failed for this gear
            // during precomputation; no candidate here can be feasible,
            // so skipping cannot change the argmax.
            continue;
        }
        if let Some(c) = search(gear) {
            if best.is_none_or(|(_, b)| c.reward > b.reward) {
                best = Some((gear, c));
            }
        }
        if ctx.is_stopped() {
            break;
        }
    }
    best
}

/// Probes one `(gear, p_aux)` candidate against the prebuilt contexts;
/// `None` when infeasible.
#[inline(always)]
fn probe(
    hev: &ParallelHev,
    ctx: &StepContext,
    cur: &CurrentContext,
    gear: usize,
    p_aux_w: f64,
    reward: &RewardConfig,
) -> Option<Probe> {
    let control = ControlInput {
        battery_current_a: cur.battery_current_a(),
        gear,
        p_aux_w,
    };
    let outcome = hev.peek_with_contexts(ctx, cur, &control).ok()?;
    Some(Probe {
        p_aux_w,
        reward: reward.reward(&outcome),
        outcome,
    })
}

#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use hev_model::HevParams;

    fn hev() -> ParallelHev {
        ParallelHev::new(HevParams::default_parallel_hev(), 0.6).unwrap()
    }

    fn cfg() -> RewardConfig {
        RewardConfig::default()
    }

    #[test]
    fn resolves_cruise_current() {
        let hev = hev();
        let d = hev.demand(20.0, 0.0, 0.0);
        let r = InnerOptimizer::default()
            .resolve(&hev, &d, 2.0, 1.0, &cfg())
            .unwrap();
        assert!(r.outcome.fuel_g > 0.0);
        assert!(r.control.gear < 5);
        let (lo, hi) = hev.aux().power_range();
        assert!((lo..=hi).contains(&r.control.p_aux_w));
    }

    #[test]
    fn optimized_aux_lands_near_preferred_when_cheap() {
        // At a stop the only cost of aux power is battery draw; the
        // optimum should be near (slightly below) the preferred 600 W.
        let hev = hev();
        let d = hev.demand(0.0, 0.0, 0.0);
        let r = InnerOptimizer::default()
            .resolve(&hev, &d, 0.0, 1.0, &cfg())
            .unwrap();
        assert!(
            (400.0..=650.0).contains(&r.control.p_aux_w),
            "p_aux {}",
            r.control.p_aux_w
        );
    }

    #[test]
    fn beats_every_fixed_grid_choice() {
        let hev = hev();
        let d = hev.demand(15.0, 0.3, 0.0);
        let opt = InnerOptimizer::default();
        let best = opt.resolve(&hev, &d, 10.0, 1.0, &cfg()).unwrap();
        // Exhaustive check over a fine (gear, aux) grid.
        for gear in 0..5 {
            for k in 0..30 {
                let p = 100.0 + 1_400.0 * k as f64 / 29.0;
                let c = ControlInput {
                    battery_current_a: 10.0,
                    gear,
                    p_aux_w: p,
                };
                if let Ok(o) = hev.peek(&d, &c, 1.0) {
                    assert!(
                        cfg().reward(&o) <= best.reward + 1e-6,
                        "grid (g{gear}, {p:.0} W) beats optimizer"
                    );
                }
            }
        }
    }

    #[test]
    fn fixed_aux_pins_power() {
        let hev = hev();
        let d = hev.demand(15.0, 0.3, 0.0);
        let r = InnerOptimizer::with_fixed_aux(600.0)
            .resolve(&hev, &d, 10.0, 1.0, &cfg())
            .unwrap();
        assert_eq!(r.control.p_aux_w, 600.0);
    }

    #[test]
    fn infeasible_current_is_masked() {
        // At the charge-sustaining floor, any control resolving to an
        // electric-only discharge is masked in every gear.
        let hev = ParallelHev::new(hev_model::HevParams::default_parallel_hev(), 0.400001).unwrap();
        let d = hev.demand(3.0, 0.3, 0.0); // gentle EV-capable launch
        let opt = InnerOptimizer::default();
        assert!(opt.resolve(&hev, &d, 100.0, 1.0, &cfg()).is_none());
        assert!(!opt.feasible(&hev, &d, 100.0, 1.0));
    }

    #[test]
    fn feasible_probe_matches_resolve_on_common_cases() {
        let hev = hev();
        let opt = InnerOptimizer::default();
        for (v, a) in [
            (0.0, 0.0),
            (5.0, 0.5),
            (20.0, 0.0),
            (15.0, -1.0),
            (30.0, 0.3),
        ] {
            let d = hev.demand(v, a, 0.0);
            for i in [-40.0, -8.0, 0.0, 8.0, 40.0, 100.0] {
                let probe = opt.feasible(&hev, &d, i, 1.0);
                let full = opt.resolve(&hev, &d, i, 1.0, &cfg()).is_some();
                // The probe may be conservative (false negatives possible
                // in principle) but must never claim feasibility the full
                // resolve cannot deliver.
                if probe {
                    assert!(full, "probe true but resolve failed at v={v} a={a} i={i}");
                }
            }
        }
    }

    const DEMANDS: [(f64, f64); 5] = [
        (0.0, 0.0),
        (3.0, 0.4),
        (15.0, 0.3),
        (15.0, -1.5),
        (30.0, 0.2),
    ];

    #[test]
    fn resolve_matches_peek_oracle_bit_for_bit() {
        let hev = hev();
        for opt in [
            InnerOptimizer::default(),
            InnerOptimizer::with_fixed_aux(600.0),
        ] {
            for (v, a) in DEMANDS {
                let d = hev.demand(v, a, 0.0);
                let ctx = hev.step_context(&d);
                for i in [-40.0, -8.0, 0.0, 8.0, 40.0, 100.0, 1e6] {
                    let production = opt.resolve_with(&hev, &ctx, i, 1.0, &cfg());
                    let reference = oracle::resolve(&opt, &hev, &d, i, 1.0, &cfg());
                    assert_eq!(
                        production.as_ref().map(oracle::bits),
                        reference.as_ref().map(oracle::bits),
                        "resolve diverged from the peek oracle at v={v} a={a} i={i} ({opt:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn mask_matches_demand_level_probe() {
        let hev = hev();
        let currents = crate::action::default_currents();
        let mut mask = vec![false; currents.len()];
        for opt in [
            InnerOptimizer::default(),
            InnerOptimizer::with_fixed_aux(600.0),
        ] {
            for (v, a) in [(0.04, 0.0)].into_iter().chain(DEMANDS) {
                let d = hev.demand(v, a, 0.0);
                let ctx = hev.step_context(&d);
                opt.fill_mask(&hev, &ctx, &currents, 1.0, &mut mask);
                for (idx, &i) in currents.iter().enumerate() {
                    assert_eq!(
                        mask[idx],
                        opt.feasible(&hev, &d, i, 1.0),
                        "mask diverged at v={v} a={a} i={i}"
                    );
                }
            }
        }
    }

    /// Viable gears at `d`, after asserting both ends of the aux range are
    /// feasible in each at `i`. Every feasibility check bounds `p_aux` to
    /// an interval, so the whole range is then feasible: no refinement
    /// pair can both fail, and each gear pays its full grid plus
    /// `2 · refine_iters` probes.
    fn fully_feasible_viable_gears(hev: &ParallelHev, d: &WheelDemand, i: f64) -> usize {
        let ctx = hev.step_context(d);
        let (lo, hi) = hev.aux().power_range();
        let viable: Vec<usize> = (0..hev.drivetrain().num_gears())
            .filter(|&g| ctx.gear_is_viable(g))
            .collect();
        for &gear in &viable {
            for p in [lo, hi] {
                let c = ControlInput {
                    battery_current_a: i,
                    gear,
                    p_aux_w: p,
                };
                assert!(hev.peek(d, &c, 1.0).is_ok(), "gear {gear} at {p} W");
            }
        }
        viable.len()
    }

    #[test]
    fn moving_resolve_costs_grid_and_refinement_per_viable_gear() {
        let hev = hev();
        let opt = InnerOptimizer::default();
        let d = hev.demand(15.0, 0.3, 0.0);
        let viable = fully_feasible_viable_gears(&hev, &d, 10.0);
        assert!(viable >= 2, "the case must cover several gears");
        let ctx = hev.step_context(&d);
        let snap = hev_trace::evals::count();
        opt.resolve_with(&hev, &ctx, 10.0, 1.0, &cfg()).unwrap();
        assert_eq!(
            hev_trace::evals::since(snap),
            (viable * (opt.aux_grid + 2 * opt.refine_iters)) as u64
        );
        // Fixed aux: one probe per viable gear.
        let snap = hev_trace::evals::count();
        InnerOptimizer::with_fixed_aux(600.0)
            .resolve_with(&hev, &ctx, 10.0, 1.0, &cfg())
            .unwrap();
        assert_eq!(hev_trace::evals::since(snap), viable as u64);
        // A current beyond the pack limits is masked for free.
        let snap = hev_trace::evals::count();
        assert!(opt.resolve_with(&hev, &ctx, 1e6, 1.0, &cfg()).is_none());
        assert_eq!(hev_trace::evals::since(snap), 0);
    }

    #[test]
    fn stopped_resolve_costs_one_gears_worth() {
        let hev = hev();
        let opt = InnerOptimizer::default();
        let d = hev.demand(0.0, 0.0, 0.0);
        let viable = fully_feasible_viable_gears(&hev, &d, 0.0);
        assert_eq!(viable, hev.drivetrain().num_gears());
        let ctx = hev.step_context(&d);
        let snap = hev_trace::evals::count();
        opt.resolve_with(&hev, &ctx, 0.0, 1.0, &cfg()).unwrap();
        assert_eq!(
            hev_trace::evals::since(snap),
            (opt.aux_grid + 2 * opt.refine_iters) as u64
        );
    }

    #[test]
    fn mask_costs_first_feasible_gear_per_current() {
        let hev = hev();
        let opt = InnerOptimizer::default();
        let aux = hev.aux().preferred_power();
        let mut currents = crate::action::default_currents();
        currents.push(1e6);
        let mut mask = vec![false; currents.len()];
        let mut precheck_failures = 0;
        for (v, a) in DEMANDS {
            let d = hev.demand(v, a, 0.0);
            let ctx = hev.step_context(&d);
            let expected: u64 = if ctx.is_stopped() {
                1
            } else {
                currents
                    .iter()
                    .map(|&i| {
                        if !hev.current_context(i, 1.0).is_feasible() {
                            precheck_failures += 1;
                            return 0;
                        }
                        let viable: Vec<usize> = (0..hev.drivetrain().num_gears())
                            .filter(|&g| ctx.gear_is_viable(g))
                            .collect();
                        let first = viable.iter().position(|&gear| {
                            let c = ControlInput {
                                battery_current_a: i,
                                gear,
                                p_aux_w: aux,
                            };
                            hev.peek(&d, &c, 1.0).is_ok()
                        });
                        first.map_or(viable.len(), |k| k + 1) as u64
                    })
                    .sum()
            };
            let snap = hev_trace::evals::count();
            opt.fill_mask(&hev, &ctx, &currents, 1.0, &mut mask);
            assert_eq!(hev_trace::evals::since(snap), expected, "v={v} a={a}");
        }
        assert!(precheck_failures > 0, "the grid must exercise the precheck");
    }

    #[test]
    fn regen_braking_resolves() {
        let hev = hev();
        let d = hev.demand(15.0, -1.5, 0.0);
        let r = InnerOptimizer::default()
            .resolve(&hev, &d, -25.0, 1.0, &cfg())
            .unwrap();
        assert!(r.outcome.em_torque_nm < 0.0);
        assert_eq!(r.outcome.fuel_g, 0.0);
    }
}
