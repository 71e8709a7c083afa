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
//!
//! Gears are searched from the highest down, and a gear whose first
//! probe runs the engine stops there when a reward bound shows it cannot
//! beat the best gear found so far; a gear whose refinement a bound from
//! its grid shows cannot win stops after the grid (see
//! `best_aux_for_gear`). A sweep
//! over several currents ([`InnerOptimizer::best_over_currents`]) also
//! skips every gear search a larger current cannot change (see
//! `SettledGears`), including a braking gear whose regen command a
//! larger current still clamps at the regen floor, which one probe
//! confirms. At one fixed aux power the search is `fixed_aux_sweep`, which
//! the DP, ECMS and the fallback scan run too under scores of their own; it
//! never reads the regen-floor clamp, whose confirming probe would be the
//! gear's whole candidate.

use crate::reward::RewardConfig;
use hev_model::{
    ControlInput, CurrentContext, InfeasibleControl, OperatingMode, ParallelHev, StepContext,
    StepOutcome, WheelDemand,
};
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

/// Coarse grid points over the auxiliary power range.
const AUX_GRID: usize = 7;

/// Golden-section probes per gear after the grid: two interior points,
/// then one per shrink, reusing the surviving interior probe. Twelve
/// probes make eleven shrinks, a final bracket of `INV_PHI^11 ≈ 0.0050`
/// of the initial one, no wider than twelve ternary iterations'
/// `(2/3)^12 ≈ 0.0077` at half their 24 probes.
const REFINE_PROBES: usize = 12;

/// The golden-section ratio `(√5 − 1) / 2`.
const INV_PHI: f64 = 0.618_033_988_749_894_8;

/// The inner optimizer: maximizes the instantaneous reward over
/// `(gear, p_aux)` for a given battery current.
///
/// The search itself (a 7-point aux grid, then 12 golden-section probes
/// per gear) is fixed by the algorithm, not configured: snapshots written
/// when it was configurable still parse, and their `aux_grid` /
/// `refine_iters` keys are ignored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct InnerOptimizer {
    /// Locks the auxiliary power to a fixed value instead of optimizing
    /// it — this reproduces the powertrain-only RL baseline (ICCAD'14),
    /// which ignores auxiliary control.
    pub fixed_aux_w: Option<f64>,
}

/// One probed candidate of a gear's aux search: the auxiliary power, the
/// reward, and the outcome it was scored from.
#[derive(Debug, Clone, Copy)]
struct Probe {
    p_aux_w: f64,
    reward: f64,
    outcome: StepOutcome,
}

impl Probe {
    /// The probe as the resolution of `battery_current_a` in `gear`.
    #[inline(always)]
    fn resolved(self, battery_current_a: f64, gear: usize) -> ResolvedAction {
        ResolvedAction {
            control: ControlInput {
                battery_current_a,
                gear,
                p_aux_w: self.p_aux_w,
            },
            outcome: self.outcome,
            reward: self.reward,
        }
    }
}

/// What the refine bound reads of one feasible grid probe: the outcome's
/// mode, fuel, battery power and state of charge after the step.
#[derive(Debug, Clone, Copy)]
struct GridPoint {
    mode: OperatingMode,
    fuel_g: f64,
    battery_power_w: f64,
    soc_after: f64,
}

impl GridPoint {
    #[inline(always)]
    fn of(o: &StepOutcome) -> Self {
        Self {
            mode: o.mode,
            fuel_g: o.fuel_g,
            battery_power_w: o.battery_power_w,
            soc_after: o.soc_after,
        }
    }
}

/// What a gear search may prune against: the best reward so far, and
/// [`utility_bound`] when the engine's fuel rate is non-decreasing in
/// torque (`None` otherwise, which rules out every engine-on bound).
#[derive(Debug, Clone, Copy)]
struct Prune {
    incumbent: f64,
    utility: Option<f64>,
}

impl InnerOptimizer {
    /// An optimizer with the auxiliary power pinned to `p_aux_w`.
    pub fn with_fixed_aux(p_aux_w: f64) -> Self {
        Self {
            fixed_aux_w: Some(p_aux_w),
        }
    }

    /// Resolves the best `(gear, p_aux)` for the given battery current
    /// against the step's context, or `None` when no combination is
    /// feasible (the action is masked).
    ///
    /// Sweeps the viable gears in descending order; per gear, a coarse
    /// 7-point aux grid followed by a golden-section refinement around its
    /// best point. A gear replaces the best one on a tie (`>=`), so the
    /// lowest of the tied gears wins, as an ascending strict-`>`
    /// first-wins sweep picks; within a gear comparisons are strict-`>`
    /// and first-wins. A moving step costs at most 7 + 12 evaluations per
    /// viable gear, one for a gear that the gear bound prunes after its
    /// first probe, and 7 for one that the refine bound prunes after its
    /// grid; a current that fails the pack limits costs none.
    /// At a fixed auxiliary power it is the sweep over this one current.
    pub fn resolve_with(
        &self,
        hev: &ParallelHev,
        ctx: &StepContext,
        battery_current_a: f64,
        dt: f64,
        reward: &RewardConfig,
    ) -> Option<ResolvedAction> {
        if self.fixed_aux_w.is_some() {
            let found = self.best_resolved(hev, ctx, &[battery_current_a], dt, reward);
            return found.map(|(_, r)| r);
        }
        let _span = hev_trace::span::enter("control.resolve");
        let cur = hev.current_context(battery_current_a, dt);
        if !ctx.is_stopped() && !cur.is_feasible() {
            // The commanded current violates the pack limits: every
            // moving-mode evaluation replays the same error, so the whole
            // sweep is masked without paying for a single one.
            return None;
        }
        let (gear, best) =
            Self::resolve_current::<false>(hev, ctx, &cur, reward, None, &mut SettledGears::new())?;
        Some(best.resolved(battery_current_a, gear))
    }

    /// The feasible control with the best instantaneous reward over
    /// `currents`, each resolved as [`InnerOptimizer::resolve_with`] does
    /// in order (strict `>`, first wins), or `None` when every current is
    /// masked. The myopic tier of the supervisor and the serve ladder.
    ///
    /// Returns the control `resolve_with` per current would pick, at less
    /// cost. Once a gear's search lands in a regime a larger current
    /// cannot change (friction braking at zero machine torque, a machine
    /// torque above the envelope, EV-only, or braking clamped at the regen
    /// floor), its search at the later currents, while their terminal
    /// power strictly rises, would tie an earlier current's (losing under
    /// strict `>`) or fail, so it is skipped; an EV-only or floor-clamped
    /// gear first pays one probe to confirm that it stays so. The reward
    /// bound also prunes a gear against the best control of the earlier
    /// currents: a current whose every gear falls below it cannot win. A
    /// stopped step, which ignores the commanded current, resolves only
    /// the first one.
    pub fn best_over_currents(
        &self,
        hev: &ParallelHev,
        ctx: &StepContext,
        currents: &[f64],
        dt: f64,
        reward: &RewardConfig,
    ) -> Option<ControlInput> {
        self.best_resolved(hev, ctx, currents, dt, reward)
            .map(|(_, r)| r.control)
    }

    /// [`InnerOptimizer::best_over_currents`] with the winner's index in
    /// `currents` and its whole resolution, which is the one
    /// [`InnerOptimizer::resolve_with`] returns for that current: the
    /// winner beat every earlier current, so neither a skip nor the reward
    /// bound cut its search short. A fixed aux power runs `fixed_aux_sweep`.
    pub(crate) fn best_resolved(
        &self,
        hev: &ParallelHev,
        ctx: &StepContext,
        currents: &[f64],
        dt: f64,
        reward: &RewardConfig,
    ) -> Option<(usize, ResolvedAction)> {
        if let Some(aux) = self.fixed_aux_w {
            let _span = hev_trace::span::enter("control.resolve");
            let score = |o: &StepOutcome| reward.reward(o, dt);
            let keep = |idx, control, &outcome: &StepOutcome, reward| {
                let resolved = ResolvedAction {
                    control,
                    outcome,
                    reward,
                };
                (idx, resolved)
            };
            return fixed_aux_sweep(hev, ctx, currents, aux, dt, score, keep);
        }
        let mut best: Option<(usize, ResolvedAction)> = None;
        let mut settled = SettledGears::new();
        for (idx, &battery_current_a) in currents.iter().enumerate() {
            let _span = hev_trace::span::enter("control.resolve");
            let cur = hev.current_context(battery_current_a, dt);
            settled.advance(&cur);
            if !ctx.is_stopped() && !cur.is_feasible() {
                continue;
            }
            let floor = best.as_ref().map(|(_, r)| r.reward);
            if let Some((gear, p)) =
                Self::resolve_current::<true>(hev, ctx, &cur, reward, floor, &mut settled)
            {
                if floor.is_none_or(|r| p.reward > r) {
                    best = Some((idx, p.resolved(battery_current_a, gear)));
                }
            }
            if ctx.is_stopped() {
                // Every later current replays this one: ties that lose.
                break;
            }
        }
        best
    }

    /// The best `(gear, probe)` at one feasible current. Pruned gears
    /// fall short of the incumbent, so when `floor` (the best reward of
    /// earlier currents) prunes one, the result is exact only if it
    /// beats `floor`: otherwise this current loses anyway. In a `SWEEP`
    /// over currents it skips the gears `settled` marks and records each
    /// searched gear's regime; otherwise it is the plain per-current
    /// search of [`InnerOptimizer::resolve_with`] and leaves `settled`
    /// alone. The flag is a constant so that the plain search compiles
    /// without the settle work.
    #[inline(always)]
    fn resolve_current<const SWEEP: bool>(
        hev: &ParallelHev,
        ctx: &StepContext,
        cur: &CurrentContext,
        reward: &RewardConfig,
        floor: Option<f64>,
        settled: &mut SettledGears,
    ) -> Option<(usize, Probe)> {
        let utility = utility_bound(hev, reward);
        best_gear(hev, ctx, floor, |gear, incumbent| {
            let regime = if SWEEP {
                settled.regime(gear)
            } else {
                Regime::Open
            };
            if regime == Regime::Saturated {
                return None;
            }
            let (found, regime) = best_aux_for_gear::<SWEEP>(
                hev,
                ctx,
                cur,
                gear,
                reward,
                regime,
                incumbent.map(|incumbent| Prune { incumbent, utility }),
            );
            if SWEEP {
                settled.record(gear, regime);
            }
            found
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
}

/// The best `(gear, probe)` over the viable gears, searched in
/// descending order, where `search` scores one gear given the incumbent:
/// the best reward so far, `floor` included. A gear replaces the best
/// one on a tie (`>=`), so the lowest tied gear wins, exactly as under
/// an ascending strict-`>` first-wins sweep.
///
/// A stopped step resolves independently of the gear, and every gear is
/// viable there: each other gear would tie gear 0 and lose, so only gear
/// 0 pays for its search. `search` has one call site, so that it inlines.
#[inline(always)]
fn best_gear(
    hev: &ParallelHev,
    ctx: &StepContext,
    floor: Option<f64>,
    mut search: impl FnMut(usize, Option<f64>) -> Option<Probe>,
) -> Option<(usize, Probe)> {
    let num_gears = hev.drivetrain().num_gears();
    let searched = if ctx.is_stopped() {
        num_gears.min(1)
    } else {
        num_gears
    };
    let mut best: Option<(usize, Probe)> = None;
    let mut incumbent = floor;
    for gear in (0..searched).rev() {
        if !ctx.gear_is_viable(gear) {
            // A control-independent check already failed for this gear
            // during precomputation; no candidate here can be feasible,
            // so skipping cannot change the argmax.
            continue;
        }
        if let Some(c) = search(gear, incumbent) {
            if best.is_none_or(|(_, b)| c.reward >= b.reward) {
                best = Some((gear, c));
                incumbent = Some(incumbent.map_or(c.reward, |r| r.max(c.reward)));
            }
        }
    }
    best
}

/// What `keep` makes of the `(current, gear)` pair with the best `score`
/// at the fixed aux power (its index in `currents`, control, outcome and
/// score), or `None` when no pair is feasible. `keep` runs on each new best
/// only, so a caller that reads nothing of the outcome copies none.
///
/// Currents run in order and gears ascend; only a strictly greater score
/// replaces the best, so the first of tied candidates wins, and a score of
/// `+∞`, which nothing beats, ends the sweep. A current failing the pack
/// limits and a non-viable gear cost no probe. A probe in a regime a larger
/// current cannot change ([`Regime::of`]) settles its gear while the
/// terminal power strictly rises ([`SettledGears`]): each skipped candidate
/// would replay its outcome, a tie that loses under any score, or fail. A
/// stopped step ignores current and gear, so its first probe decides.
pub(crate) fn fixed_aux_sweep<K>(
    hev: &ParallelHev,
    ctx: &StepContext,
    currents: &[f64],
    p_aux_w: f64,
    dt: f64,
    score: impl Fn(&StepOutcome) -> f64,
    keep: impl Fn(usize, ControlInput, &StepOutcome, f64) -> K,
) -> Option<K> {
    let mut best_v = f64::NEG_INFINITY;
    let mut best = None;
    let mut settled = SettledGears::new();
    'currents: for (idx, &i) in currents.iter().enumerate() {
        let cur = hev.current_context(i, dt);
        settled.advance(&cur);
        if !ctx.is_stopped() && !cur.is_feasible() {
            // Every moving-mode probe replays the pack-limit error.
            continue;
        }
        for gear in 0..hev.drivetrain().num_gears() {
            if settled.regime(gear) != Regime::Open || !ctx.gear_is_viable(gear) {
                continue;
            }
            let control = ControlInput {
                battery_current_a: i,
                gear,
                p_aux_w,
            };
            let result = hev.peek_with_contexts(ctx, &cur, &control);
            settled.record(gear, Regime::of(&result));
            if let Ok(o) = result {
                let v = score(&o);
                if v > best_v {
                    best_v = v;
                    best = Some(keep(idx, control, &o, v));
                    if v == f64::INFINITY {
                        break 'currents;
                    }
                }
            }
            if ctx.is_stopped() {
                break 'currents;
            }
        }
    }
    best
}

/// The best probe of one gear: coarse grid, then golden-section
/// refinement around the best grid point.
///
/// In a `SWEEP` over currents it also returns the [`Regime`] the gear
/// settles into (`Open` otherwise). The top grid probe (`p_aux = hi`) has
/// the least machine power of the search, since each refinement bracket
/// lies inside the range, and the first (`p_aux = lo`) the most. `settled`
/// is the gear's regime at an earlier, lower terminal power:
/// * `EvOnly` when its top probe was EV-only there. If the first probe is
///   EV-only as well, every machine power of the search lies between
///   those two EV operating points, so every probe would resolve in EV
///   mode, which ignores the commanded current.
/// * `RegenFloor` when its first probe realized the braking regen floor
///   there. If it does so again, the command behind every probe of the
///   search reaches the floor, here and at the lower terminal power, so
///   each probe realizes the same floor torque, current and outcome.
///
/// Either way the search replays the earlier one and the gear returns
/// `None` after one eval; otherwise that probe is the grid's first point
/// and the search goes on. The returned regime is the top probe's, or
/// `RegenFloor` when the top probe is `Open` and the first realized the
/// floor.
///
/// `prune` carries the incumbent reward and [`utility_bound`], and a
/// pruned gear returns `None`. Two bounds (each plus a relative slack
/// of 1e-9 for rounding) must fail to reach the incumbent:
/// * the gear bound: when the first grid probe runs the engine, every
///   later probe, at less machine torque and so more engine torque, runs
///   it too or fails, at the same battery power, state of charge after
///   the step and restart penalty, and burns no less fuel. Its reward is
///   then at most the first probe's with the aux utility replaced by the
///   bound's, and the gear stops after that probe, in regime `Open`: its
///   top probe runs the engine or fails below the torque envelope.
/// * the refine bound ([`refine_bound`]): after the grid, the reward of
///   every refinement probe is bounded from the two grid probes at the
///   ends of its bracket, and the gear skips its refinement. Its regime
///   is the one the grid recorded.
#[inline(always)]
fn best_aux_for_gear<const SWEEP: bool>(
    hev: &ParallelHev,
    ctx: &StepContext,
    cur: &CurrentContext,
    gear: usize,
    reward: &RewardConfig,
    settled: Regime,
    prune: Option<Prune>,
) -> (Option<Probe>, Regime) {
    let (lo, hi) = hev.aux().power_range();
    let n = AUX_GRID;
    let mut bottom = Regime::Open;
    let mut top = Regime::Open;
    let mut points: [Option<GridPoint>; AUX_GRID] = [None; AUX_GRID];
    let (k_best, mut best) = {
        let _grid = hev_trace::span::enter("control.grid");
        let mut best: Option<(usize, Probe)> = None;
        for (k, point) in points.iter_mut().enumerate() {
            let p = lo + (hi - lo) * k as f64 / (n - 1) as f64;
            let result = peek_at(hev, ctx, cur, gear, p);
            if SWEEP && k == 0 {
                bottom = Regime::of_bottom(&result, ctx.regen_floor_nm(gear));
                if settled != Regime::Open && bottom == settled {
                    return (None, settled);
                }
            }
            if SWEEP && k == n - 1 {
                top = Regime::of(&result);
            }
            if let Some(c) = scored(result, p, cur, reward) {
                if k == 0
                    && prune.is_some_and(|prune| {
                        prune.utility.is_some_and(|utility| {
                            runs_engine(c.outcome.mode)
                                && misses(
                                    gear_bound(&c, utility, reward, cur.dt()),
                                    prune.incumbent,
                                )
                        })
                    })
                {
                    return (None, Regime::Open);
                }
                *point = Some(GridPoint::of(&c.outcome));
                if best.is_none_or(|(_, b)| c.reward > b.reward) {
                    best = Some((k, c));
                }
            }
        }
        match best {
            Some(best) => best,
            None => return (None, top),
        }
    };
    let regime = if top == Regime::Open && bottom == Regime::RegenFloor {
        bottom
    } else {
        top
    };
    let step = (hi - lo) / (n - 1) as f64;
    let mut a = (lo + step * (k_best as f64 - 1.0)).max(lo);
    let mut b = (lo + step * (k_best as f64 + 1.0)).min(hi);
    if let Some(prune) = prune {
        let ends = (
            points[k_best.saturating_sub(1)],
            points[(k_best + 1).min(n - 1)],
        );
        if let (Some(left), Some(right)) = ends {
            let monotone_fuel = prune.utility.is_some();
            let bound = refine_bound(hev, reward, left, right, (a, b), cur.dt(), monotone_fuel);
            if bound.is_some_and(|bound| misses(bound, prune.incumbent)) {
                return (None, regime);
            }
        }
    }
    // Golden-section refinement in the bracket around the best grid
    // point (the reward is uni-modal in p_aux in practice: fuel rises
    // monotonically with p_aux while the utility is quasi-concave). Each
    // shrink keeps the surviving interior probe and pays for one new
    // one; every probe is kept if it beats the best seen (strict `>`).
    let _span = hev_trace::span::enter("control.refine");
    let sample = |p: f64, best: &mut Probe| {
        let c = scored(peek_at(hev, ctx, cur, gear, p), p, cur, reward);
        if let Some(c) = c.filter(|c| c.reward > best.reward) {
            *best = c;
        }
        c
    };
    let mut x1 = b - INV_PHI * (b - a);
    let mut x2 = a + INV_PHI * (b - a);
    let mut c1 = sample(x1, &mut best);
    let mut c2 = sample(x2, &mut best);
    let mut probes = 2;
    while probes < REFINE_PROBES {
        let keep_left = match (&c1, &c2) {
            (Some(y1), Some(y2)) => y1.reward >= y2.reward,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => {
                // Feasibility bounds p_aux to an interval holding the best
                // probe and neither interior point, so it lies wholly on
                // the best probe's side of the pair: contract the bracket
                // to that side and probe a fresh pair. A best probe
                // between the pair (the grid point at the bracket's
                // centre) ends the search.
                if best.p_aux_w < x1 {
                    b = x1;
                } else if best.p_aux_w > x2 {
                    a = x2;
                } else {
                    break;
                }
                if probes + 2 > REFINE_PROBES {
                    break;
                }
                x1 = b - INV_PHI * (b - a);
                x2 = a + INV_PHI * (b - a);
                c1 = sample(x1, &mut best);
                c2 = sample(x2, &mut best);
                probes += 2;
                continue;
            }
        };
        if keep_left {
            b = x2;
            (x2, c2) = (x1, c1);
            x1 = b - INV_PHI * (b - a);
            c1 = sample(x1, &mut best);
        } else {
            a = x1;
            (x1, c1) = (x2, c2);
            x2 = a + INV_PHI * (b - a);
            c2 = sample(x2, &mut best);
        }
        probes += 1;
    }
    (Some(best), regime)
}

/// The aux utility maximizing `aux_weight·f_aux` over the aux range, or
/// `None` when the engine's fuel rate is not known to be non-decreasing
/// in torque, and so no engine-on probe bounds the gear.
fn utility_bound(hev: &ParallelHev, reward: &RewardConfig) -> Option<f64> {
    if !hev.engine().fuel_rate_monotone_in_torque() {
        return None;
    }
    let (lo, hi) = hev.aux().power_range();
    Some(best_utility_on(hev, reward, lo, hi))
}

/// The aux utility maximizing `aux_weight·f_aux` over `[a, b]`: `f_aux`
/// is uni-modal, so its peak moved into the interval for a non-negative
/// weight, else the smaller end value.
#[inline(always)]
fn best_utility_on(hev: &ParallelHev, reward: &RewardConfig, a: f64, b: f64) -> f64 {
    let aux = hev.aux();
    if reward.aux_weight >= 0.0 {
        aux.utility(aux.preferred_power().max(a).min(b))
    } else {
        aux.utility(a).min(aux.utility(b))
    }
}

/// Whether a mode runs the engine (the engine-on completion's modes).
#[inline(always)]
fn runs_engine(mode: OperatingMode) -> bool {
    matches!(
        mode,
        OperatingMode::HybridAssist | OperatingMode::RechargeDrive | OperatingMode::IceOnly
    )
}

/// Whether a mode is a braking completion's (the engine is off, fuel 0).
#[inline(always)]
fn brakes(mode: OperatingMode) -> bool {
    matches!(
        mode,
        OperatingMode::RegenBraking | OperatingMode::FrictionBraking
    )
}

/// Whether `bound` falls short of `incumbent` by more than a relative
/// slack of 1e-9 that absorbs rounding.
#[inline(always)]
fn misses(bound: f64, incumbent: f64) -> bool {
    bound + 1e-9 * (1.0 + bound.abs()) <= incumbent
}

/// The reward bound of an engine-on first grid probe `c`: its reward with
/// the aux utility replaced by `utility`. The reward is affine in the aux
/// utility, with slope `aux_weight·dt` over a step of `dt` seconds, so the
/// bound reuses the probe's reward rather than scoring it again.
#[inline(always)]
fn gear_bound(c: &Probe, utility: f64, reward: &RewardConfig, dt: f64) -> f64 {
    c.reward + reward.aux_weight * (utility - c.outcome.aux_utility) * dt
}

/// An upper bound on the reward of every refinement probe in the bracket
/// `[a, b]` whose ends are the grid probes `left` and `right`, or `None`
/// when the bracket's modes admit none. `monotone_fuel` says the engine's
/// fuel rate is non-decreasing in torque.
///
/// Each case rests on monotonicity in `p_aux`:
/// * both ends brake: fuel is 0, and the realized battery power is
///   non-decreasing in `p_aux` (across the clamp at zero machine torque,
///   the unclamped command and the regen floor), so the power and the
///   state of charge after the step lie between the ends' values;
/// * both ends are EV-only: the same holds, with power `p_em_ev + p_aux`;
/// * the left end runs the engine (the gear bound's lemma): every probe
///   to its right runs it too or fails, at the same power and state of
///   charge, burning no less fuel than `left` when `monotone_fuel`.
///
/// Any other bracket gets no bound. With EV on the left and the engine on
/// the right, a probe between may complete in EV mode with engine torque
/// up to `ICE_ON_MIN_NM`, at a battery power beyond the commanded one.
/// The ends of each interval are ordered with `min`/`max`: two powers a
/// rounding apart may come in either order.
#[inline(always)]
fn refine_bound(
    hev: &ParallelHev,
    reward: &RewardConfig,
    left: GridPoint,
    right: GridPoint,
    (a, b): (f64, f64),
    dt: f64,
    monotone_fuel: bool,
) -> Option<f64> {
    let bounded = (brakes(left.mode) && brakes(right.mode))
        || (left.mode == OperatingMode::EvOnly && right.mode == OperatingMode::EvOnly)
        || (monotone_fuel && runs_engine(left.mode));
    if !bounded {
        return None;
    }
    let sorted = |x: f64, y: f64| (x.min(y), x.max(y));
    Some(reward.reward_bound(
        left.fuel_g,
        sorted(left.battery_power_w, right.battery_power_w),
        sorted(left.soc_after, right.soc_after),
        best_utility_on(hev, reward, a, b),
        dt,
    ))
}

/// Evaluates one `(gear, p_aux)` candidate against the prebuilt contexts.
#[inline(always)]
fn peek_at(
    hev: &ParallelHev,
    ctx: &StepContext,
    cur: &CurrentContext,
    gear: usize,
    p_aux_w: f64,
) -> Result<StepOutcome, InfeasibleControl> {
    let control = ControlInput {
        battery_current_a: cur.battery_current_a(),
        gear,
        p_aux_w,
    };
    hev.peek_with_contexts(ctx, cur, &control)
}

/// Scores a feasible evaluation over the step `cur` was built for;
/// `None` when infeasible.
#[inline(always)]
fn scored(
    result: Result<StepOutcome, InfeasibleControl>,
    p_aux_w: f64,
    cur: &CurrentContext,
    reward: &RewardConfig,
) -> Option<Probe> {
    let outcome = result.ok()?;
    Some(Probe {
        p_aux_w,
        reward: reward.reward(&outcome, cur.dt()),
        outcome,
    })
}

/// What one evaluation of a gear says about the same gear at every
/// larger terminal power of the same step, at the same or a lower
/// auxiliary power, that is at no less machine power; `RegenFloor`
/// alone speaks of *less* machine power instead.
///
/// The arguments rest on monotonicity in that machine power: the
/// machine-torque inversion (`torque_from_power`) is non-decreasing and,
/// once it has a solution, keeps one; the engine torque
/// `t_shaft − ρ·T_EM·η^α` is non-increasing in the machine torque.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Regime {
    /// More machine power may change the outcome.
    Open,
    /// Every evaluation at more machine power replays this outcome or
    /// fails:
    /// * friction braking at zero machine torque: a larger regen command
    ///   clamps to zero as well, and the realized current follows from
    ///   the clamped torque and `p_aux` alone;
    /// * a machine torque above the envelope: more power only raises it
    ///   (through the EV branch's own torque check too).
    Saturated,
    /// EV-only: more machine power keeps the engine torque below the
    /// engine-on threshold, so the step completes in EV mode, which
    /// ignores the commanded current, or fails the torque envelope.
    EvOnly,
    /// Braking clamped at the gear's regen floor: the regen command asks
    /// for at least the floor torque, so the machine realizes exactly the
    /// floor, and the realized current and outcome follow from it and
    /// `p_aux` alone. Unlike the other regimes, the clamp persists to
    /// *less* machine power, so a larger current must confirm it: the
    /// sweep skips a floor-clamped gear only once the lowest-aux probe of
    /// its search at the new current realizes the floor too.
    RegenFloor,
}

impl Regime {
    /// The regime of one evaluation; never `RegenFloor`, which needs the
    /// gear's floor ([`Regime::of_bottom`]).
    #[inline(always)]
    fn of(result: &Result<StepOutcome, InfeasibleControl>) -> Self {
        match *result {
            Ok(ref o) if o.mode == OperatingMode::EvOnly => Self::EvOnly,
            // Braking clamps the machine torque to at most zero.
            Ok(ref o) if o.mode == OperatingMode::FrictionBraking && o.em_torque_nm >= 0.0 => {
                Self::Saturated
            }
            Err(InfeasibleControl::MotorTorque {
                torque_nm, max_nm, ..
            }) if torque_nm > max_nm => Self::Saturated,
            _ => Self::Open,
        }
    }

    /// The regime a gear search's lowest-aux probe, the one with the most
    /// machine power, settles or confirms: `EvOnly`, or `RegenFloor` when
    /// it realizes exactly (bit for bit) the step's braking regen `floor`
    /// of its gear. Every other outcome is `Open`.
    #[inline(always)]
    fn of_bottom(result: &Result<StepOutcome, InfeasibleControl>, floor: Option<f64>) -> Self {
        match (result, floor) {
            (Ok(o), _) if o.mode == OperatingMode::EvOnly => Self::EvOnly,
            (Ok(o), Some(floor)) if o.em_torque_nm.to_bits() == floor.to_bits() => Self::RegenFloor,
            _ => Self::Open,
        }
    }
}

/// The per-gear [`Regime`]s of a sweep over commanded currents at one
/// step, on the stack: three bit sets over the first 64 gears (any
/// further gear stays open).
///
/// A gear's regime holds only while the terminal power strictly rises
/// from one current to the next: [`SettledGears::advance`] reopens every
/// gear at any other step, so an unsorted or non-monotone current list
/// just skips less. A skipped candidate would have tied an earlier one,
/// which loses under strict `>` (first wins), or failed, so skipping
/// never changes the sweep's argmax. An `EvOnly` or `RegenFloor` gear is
/// skipped only once a probe at the new current confirms it: the
/// regen-floor clamp persists to smaller currents, not larger ones, so an
/// ascending sweep rechecks it at each later current.
#[derive(Debug)]
struct SettledGears {
    last_power_w: f64,
    saturated: u64,
    ev_only: u64,
    regen_floor: u64,
}

impl SettledGears {
    /// No gear settled, before the first current.
    fn new() -> Self {
        Self {
            last_power_w: f64::NEG_INFINITY,
            saturated: 0,
            ev_only: 0,
            regen_floor: 0,
        }
    }

    /// Moves the sweep to `cur`, reopening every gear unless its terminal
    /// power strictly exceeds the previous current's.
    #[inline(always)]
    fn advance(&mut self, cur: &CurrentContext) {
        let rising = cur.terminal_power_w() > self.last_power_w;
        if !rising {
            self.saturated = 0;
            self.ev_only = 0;
            self.regen_floor = 0;
        }
        self.last_power_w = cur.terminal_power_w();
    }

    /// The regime recorded for `gear` at an earlier current.
    #[inline(always)]
    fn regime(&self, gear: usize) -> Regime {
        let bit = Self::bit(gear);
        if self.saturated & bit != 0 {
            Regime::Saturated
        } else if self.ev_only & bit != 0 {
            Regime::EvOnly
        } else if self.regen_floor & bit != 0 {
            Regime::RegenFloor
        } else {
            Regime::Open
        }
    }

    /// Records `gear`'s regime at the current one.
    #[inline(always)]
    fn record(&mut self, gear: usize, regime: Regime) {
        let bit = Self::bit(gear);
        self.saturated &= !bit;
        self.ev_only &= !bit;
        self.regen_floor &= !bit;
        match regime {
            Regime::Open => {}
            Regime::Saturated => self.saturated |= bit,
            Regime::EvOnly => self.ev_only |= bit,
            Regime::RegenFloor => self.regen_floor |= bit,
        }
    }

    /// `gear`'s bit, or no bit past the 64th gear.
    #[inline(always)]
    fn bit(gear: usize) -> u64 {
        u32::try_from(gear)
            .ok()
            .and_then(|g| 1u64.checked_shl(g))
            .unwrap_or(0)
    }
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

    /// Resolves `current` over a one-second step against a context built
    /// for `d`.
    fn resolve(
        opt: &InnerOptimizer,
        hev: &ParallelHev,
        d: &WheelDemand,
        current: f64,
    ) -> Option<ResolvedAction> {
        opt.resolve_with(hev, &hev.step_context(d), current, 1.0, &cfg())
    }

    #[test]
    fn resolves_cruise_current() {
        let hev = hev();
        let d = hev.demand(20.0, 0.0, 0.0);
        let r = resolve(&InnerOptimizer::default(), &hev, &d, 2.0).unwrap();
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
        let r = resolve(&InnerOptimizer::default(), &hev, &d, 0.0).unwrap();
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
        let best = resolve(&opt, &hev, &d, 10.0).unwrap();
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
                        cfg().reward(&o, 1.0) <= best.reward + 1e-6,
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
        let r = resolve(&InnerOptimizer::with_fixed_aux(600.0), &hev, &d, 10.0).unwrap();
        assert_eq!(r.control.p_aux_w, 600.0);
    }

    #[test]
    fn infeasible_current_is_masked() {
        // At the charge-sustaining floor, any control resolving to an
        // electric-only discharge is masked in every gear.
        let hev = ParallelHev::new(hev_model::HevParams::default_parallel_hev(), 0.400001).unwrap();
        let d = hev.demand(3.0, 0.3, 0.0); // gentle EV-capable launch
        let opt = InnerOptimizer::default();
        assert!(resolve(&opt, &hev, &d, 100.0).is_none());
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
                let full = resolve(&opt, &hev, &d, i).is_some();
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

    /// 7 grid probes plus 12 golden-section probes.
    const GEAR_COST: u64 = 19;

    /// Viable gears at `d`, after asserting both ends of the aux range are
    /// feasible in each at `i`. Every feasibility check bounds `p_aux` to
    /// an interval, so the whole range is then feasible: no refinement
    /// pair can both fail, and each gear the reward bound does not prune
    /// pays its full grid plus every refinement probe: [`GEAR_COST`].
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
        let best = opt.resolve_with(&hev, &ctx, 10.0, 1.0, &cfg()).unwrap();
        // Gears descend, and the winner is the top viable gear here: it
        // pays its full search, and every lower gear runs the engine at
        // its first probe, whose reward bound prunes it after that eval.
        let top = (0..hev.drivetrain().num_gears())
            .rev()
            .find(|&g| ctx.gear_is_viable(g));
        assert_eq!(Some(best.control.gear), top);
        assert_eq!(
            hev_trace::evals::since(snap),
            GEAR_COST + (viable as u64 - 1)
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
        assert_eq!(hev_trace::evals::since(snap), GEAR_COST);
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
        let r = resolve(&InnerOptimizer::default(), &hev, &d, -25.0).unwrap();
        assert!(r.outcome.em_torque_nm < 0.0);
        assert_eq!(r.outcome.fuel_g, 0.0);
    }
}
