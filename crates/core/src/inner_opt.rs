//! Per-step inner optimization for the reduced action space
//! (paper §4.3.2).
//!
//! Under the reduced action space the RL agent chooses only the battery
//! current; the gear `R(k)` and auxiliary power `p_aux` are then selected
//! "by solving an optimization problem such that the instantaneous reward
//! function can be maximized". Because `p_aux` is optimized continuously
//! here, it needs no discretization — one of the advantages the paper
//! claims for the reduced space.

use crate::reward::RewardConfig;
use hev_model::{
    CandidateBatch, ControlInput, CurrentContext, CurrentContextCache, ParallelHev, StepContext,
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
    /// Forces the scalar reference implementation on the batched entry
    /// points ([`InnerOptimizer::resolve_with_scratch`],
    /// [`InnerOptimizer::fill_mask_batched`]): every candidate is probed
    /// one `peek` at a time, exactly as before the batched kernel
    /// landed. Both paths resolve bit-identical controls; this switch
    /// exists so end-to-end runs can *prove* it (the CI fig2 `cmp` step
    /// and the batch-vs-scalar determinism tests diff full runs across
    /// the two paths).
    #[serde(default)]
    pub scalar_reference: bool,
}

impl Default for InnerOptimizer {
    fn default() -> Self {
        Self {
            aux_grid: 7,
            refine_iters: 12,
            fixed_aux_w: None,
            scalar_reference: false,
        }
    }
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
    /// Builds a [`StepContext`] internally and amortizes it over the
    /// `gears × (aux_grid + 2·refine_iters)` evaluations. Callers that
    /// resolve several currents against one demand should build the
    /// context once and use [`InnerOptimizer::resolve_with`].
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
    /// Builds the per-current battery precomputation once and shares it
    /// across every `(gear, p_aux)` evaluation of this call.
    #[inline]
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
        // The sweep tracks only `(gear, p_aux, reward)`; losers' outcomes
        // are never materialized, and the winner is completed once at the
        // end. The completion is a pure function of `(ctx, cur, control)`,
        // so the re-evaluation returns the same bits the sweep saw, and
        // the strict-`>`/first-wins comparisons on the same reward floats
        // select the same winner a materializing sweep would.
        let mut best: Option<(usize, f64, f64)> = None;
        for gear in 0..hev.drivetrain().num_gears() {
            if !ctx.gear_is_viable(gear) {
                // A control-independent check already failed for this
                // gear during precomputation; no candidate here can be
                // feasible, so skipping cannot change the argmax.
                continue;
            }
            let candidate = match self.fixed_aux_w {
                Some(aux) => self
                    .evaluate_reward(hev, ctx, &cur, gear, aux, reward)
                    .map(|r| (aux, r)),
                None => self.best_aux_for_gear(hev, ctx, &cur, gear, reward),
            };
            if let Some((p, r)) = candidate {
                if best.is_none_or(|(_, _, br)| r > br) {
                    best = Some((gear, p, r));
                }
            }
        }
        let (gear, p_aux_w, _) = best?;
        self.evaluate(hev, ctx, &cur, gear, p_aux_w, reward)
    }

    /// Cheap feasibility probe: is the current realizable in *any* gear
    /// with the preferred auxiliary power? Used as the action mask before
    /// paying for the full optimization.
    pub fn feasible(
        &self,
        hev: &ParallelHev,
        demand: &WheelDemand,
        battery_current_a: f64,
        dt: f64,
    ) -> bool {
        let aux = self
            .fixed_aux_w
            .unwrap_or_else(|| hev.aux().preferred_power());
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

    /// [`InnerOptimizer::feasible`] against a prebuilt [`StepContext`] —
    /// the per-step action-mask path, where the context built for the
    /// final apply is already in hand.
    #[inline]
    pub fn feasible_with(
        &self,
        hev: &ParallelHev,
        ctx: &StepContext,
        battery_current_a: f64,
        dt: f64,
    ) -> bool {
        let aux = self
            .fixed_aux_w
            .unwrap_or_else(|| hev.aux().preferred_power());
        let cur = hev.current_context(battery_current_a, dt);
        if !ctx.is_stopped() && !cur.is_feasible() {
            return false;
        }
        (0..hev.drivetrain().num_gears()).any(|gear| {
            ctx.gear_is_viable(gear)
                && hev
                    .peek_with_contexts(
                        ctx,
                        &cur,
                        &ControlInput {
                            battery_current_a,
                            gear,
                            p_aux_w: aux,
                        },
                    )
                    .is_ok()
        })
    }

    /// Materializes one `(gear, p_aux)` candidate against the prebuilt
    /// contexts; `None` when infeasible.
    #[inline(always)]
    fn evaluate(
        &self,
        hev: &ParallelHev,
        ctx: &StepContext,
        cur: &CurrentContext,
        gear: usize,
        p_aux_w: f64,
        reward: &RewardConfig,
    ) -> Option<ResolvedAction> {
        let control = ControlInput {
            battery_current_a: cur.battery_current_a(),
            gear,
            p_aux_w,
        };
        let outcome = hev.peek_with_contexts(ctx, cur, &control).ok()?;
        Some(ResolvedAction {
            control,
            outcome,
            reward: reward.reward(&outcome),
        })
    }

    /// Reward of one `(gear, p_aux)` candidate without keeping its
    /// outcome — the sweep-side evaluation (the reward reads only a few
    /// outcome fields, so the rest of the completion melts away here).
    #[inline(always)]
    fn evaluate_reward(
        &self,
        hev: &ParallelHev,
        ctx: &StepContext,
        cur: &CurrentContext,
        gear: usize,
        p_aux_w: f64,
        reward: &RewardConfig,
    ) -> Option<f64> {
        let control = ControlInput {
            battery_current_a: cur.battery_current_a(),
            gear,
            p_aux_w,
        };
        let outcome = hev.peek_with_contexts(ctx, cur, &control).ok()?;
        Some(reward.reward(&outcome))
    }

    /// The best `(p_aux, reward)` of one gear: coarse grid, then ternary
    /// refinement around the best grid point.
    #[inline(always)]
    fn best_aux_for_gear(
        &self,
        hev: &ParallelHev,
        ctx: &StepContext,
        cur: &CurrentContext,
        gear: usize,
        reward: &RewardConfig,
    ) -> Option<(f64, f64)> {
        let (lo, hi) = hev.aux().power_range();
        let n = self.aux_grid.max(2);
        let mut best: Option<(usize, f64, f64)> = None;
        for k in 0..n {
            let p = lo + (hi - lo) * k as f64 / (n - 1) as f64;
            if let Some(r) = self.evaluate_reward(hev, ctx, cur, gear, p, reward) {
                if best.is_none_or(|(_, _, b)| r > b) {
                    best = Some((k, p, r));
                }
            }
        }
        let (k_best, mut p_best, mut r_best) = best?;
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
            let r1 = self.evaluate_reward(hev, ctx, cur, gear, m1, reward);
            let r2 = self.evaluate_reward(hev, ctx, cur, gear, m2, reward);
            match (r1, r2) {
                (Some(x1), Some(x2)) => {
                    if x1 >= x2 {
                        b = m2;
                        if x1 > r_best {
                            r_best = x1;
                            p_best = m1;
                        }
                    } else {
                        a = m1;
                        if x2 > r_best {
                            r_best = x2;
                            p_best = m2;
                        }
                    }
                }
                (Some(x1), None) => {
                    b = m2;
                    if x1 > r_best {
                        r_best = x1;
                        p_best = m1;
                    }
                }
                (None, Some(x2)) => {
                    a = m1;
                    if x2 > r_best {
                        r_best = x2;
                        p_best = m2;
                    }
                }
                (None, None) => break,
            }
        }
        Some((p_best, r_best))
    }

    /// Batched action mask over a current grid: `mask[idx]` answers the
    /// same question as [`InnerOptimizer::feasible_with`] on
    /// `currents[idx]` — verdict-identical and, wave by wave, probing
    /// exactly the candidates the scalar short-circuit would.
    ///
    /// *Stopped* steps resolve independently of both the commanded
    /// current and the gear, so one probe decides every entry (the big
    /// idle-time saving). *Moving* steps keep a bitmask of undecided
    /// currents and sweep gear-major waves: each wave batch-evaluates
    /// all still-undecided currents at the next viable gear, and a
    /// feasible lane retires its current. A current feasible first in
    /// gear `g` therefore costs `g + 1` evaluations — the same as the
    /// scalar `any()` — and the verdicts are bit-identical because each
    /// lane runs the scalar completion.
    ///
    /// Falls back to the scalar loop when `scalar_reference` is set or
    /// the grid exceeds the 64-bit wave mask.
    ///
    /// The scratch's context cache is cleared on entry, filled by the
    /// per-current pack-limit precheck (which must build every context
    /// anyway), and then feeds the gear waves so no wave rebuilds a
    /// context — the whole mask builds each current's context exactly
    /// once, like the scalar loop.
    pub fn fill_mask_batched(
        &self,
        hev: &ParallelHev,
        ctx: &StepContext,
        currents: &[f64],
        dt: f64,
        scratch: &mut ResolveScratch,
        mask: &mut [bool],
    ) {
        debug_assert_eq!(currents.len(), mask.len());
        if self.scalar_reference || currents.len() > 64 {
            for (m, &i) in mask.iter_mut().zip(currents) {
                *m = self.feasible_with(hev, ctx, i, dt);
            }
            return;
        }
        let ResolveScratch {
            batch,
            ctx_cache: cache,
            ..
        } = scratch;
        cache.clear();
        let aux = self
            .fixed_aux_w
            .unwrap_or_else(|| hev.aux().preferred_power());
        let num_gears = hev.drivetrain().num_gears();
        if ctx.is_stopped() {
            // A stopped step ignores the commanded current and the gear:
            // every (current, viable gear) probe replays one verdict, so
            // one lane decides the whole grid.
            let verdict = match (0..num_gears).find(|&g| ctx.gear_is_viable(g)) {
                Some(gear) => {
                    batch.begin(dt);
                    batch.push(currents.first().copied().unwrap_or(0.0), gear, aux);
                    hev.evaluate_batch_scored(ctx, batch, cache, |_| 0.0);
                    batch.is_feasible(0)
                }
                None => false,
            };
            mask.fill(verdict);
            return;
        }
        let mut undecided: u64 = 0;
        for (idx, &i) in currents.iter().enumerate() {
            mask[idx] = false;
            // The pack-limit precheck costs no evaluation, exactly like
            // the scalar probe's early `false` — and it seeds the cache
            // with every context the waves below will need.
            if cache.get_or_insert(hev, i, dt).is_feasible() {
                undecided |= 1 << idx;
            }
        }
        for gear in 0..num_gears {
            if undecided == 0 {
                break;
            }
            if !ctx.gear_is_viable(gear) {
                continue;
            }
            batch.begin(dt);
            let mut bits = undecided;
            while bits != 0 {
                let idx = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                batch.push_tagged(currents[idx], gear, aux, idx);
            }
            // Score-only waves: the mask consumes nothing but the
            // verdicts, so no outcome field is ever materialized.
            hev.evaluate_batch_scored(ctx, batch, cache, |_| 0.0);
            for lane in 0..batch.len() {
                if batch.is_feasible(lane) {
                    let idx = batch.tag(lane);
                    mask[idx] = true;
                    undecided &= !(1 << idx);
                }
            }
        }
    }

    /// [`InnerOptimizer::resolve_with`] on the batched kernel, reusing
    /// the caller's [`ResolveScratch`] buffers.
    ///
    /// Returns the bit-identical `ResolvedAction` the scalar path
    /// resolves (same winner by the same strict-`>`/first-wins
    /// comparisons on the same reward floats; the sweep is score-only,
    /// and the winner is re-materialized by one pure replay of its
    /// lane), in fewer evaluations:
    ///
    /// * the aux grid of every viable gear evaluates as one wide wave;
    ///   the per-gear ternary refinements — a data-dependent chain of
    ///   two probes per iteration, too narrow for the batch machinery
    ///   to amortize — run the scalar bracket loop on the cached
    ///   battery context, replaying the same probes in the same order;
    /// * a *stopped* step resolves independently of the gear, so only
    ///   the first viable gear (the gear the scalar argmax picks — later
    ///   gears tie and strict-`>` keeps the first) pays for its aux
    ///   optimization;
    /// * the winner's replay ([`ParallelHev::replay_candidate`]) counts
    ///   no evaluation, replacing the scalar path's final counted
    ///   re-evaluation (both are the same pure completion, so the
    ///   replayed bits are the bits the scalar winner returns).
    ///
    /// Delegates to the scalar reference when `scalar_reference` is set.
    pub fn resolve_with_scratch(
        &self,
        hev: &ParallelHev,
        ctx: &StepContext,
        battery_current_a: f64,
        dt: f64,
        reward: &RewardConfig,
        scratch: &mut ResolveScratch,
    ) -> Option<ResolvedAction> {
        if self.scalar_reference {
            return self.resolve_with(hev, ctx, battery_current_a, dt, reward);
        }
        let _span = hev_trace::span::enter("control.resolve");
        // One resolve commands one current, but evaluates it across many
        // waves (the aux grid plus every ternary iteration). The scratch
        // cache makes the whole resolve build its battery context once —
        // the scalar path's cost — instead of once per wave.
        scratch.ctx_cache.clear();
        if !ctx.is_stopped()
            && !scratch
                .ctx_cache
                .get_or_insert(hev, battery_current_a, dt)
                .is_feasible()
        {
            return None;
        }
        scratch.gears.clear();
        for gear in 0..hev.drivetrain().num_gears() {
            if !ctx.gear_is_viable(gear) {
                continue;
            }
            scratch.gears.push(GearCursor {
                gear,
                refining: false,
                a: 0.0,
                b: 0.0,
                best: None,
            });
            if ctx.is_stopped() {
                // Gear-independent resolution: every later viable gear
                // ties this one and loses the scalar strict-`>` argmax.
                break;
            }
        }
        let batch = &mut scratch.batch;
        if let Some(aux) = self.fixed_aux_w {
            batch.begin(dt);
            for c in scratch.gears.iter() {
                batch.push(battery_current_a, c.gear, aux);
            }
            hev.evaluate_batch_scored(ctx, batch, &mut scratch.ctx_cache, |o| reward.reward(o));
            for (lane, c) in scratch.gears.iter_mut().enumerate() {
                if let Some(r) = batch.score(lane) {
                    c.best = Some((aux, r));
                }
            }
        } else {
            let (lo, hi) = hev.aux().power_range();
            let n = self.aux_grid.max(2);
            let step = (hi - lo) / (n - 1) as f64;
            // Wave 1: the coarse aux grid of every viable gear at once.
            batch.begin(dt);
            for c in scratch.gears.iter() {
                for k in 0..n {
                    let p = lo + (hi - lo) * k as f64 / (n - 1) as f64;
                    batch.push_tagged(battery_current_a, c.gear, p, k);
                }
            }
            hev.evaluate_batch_scored(ctx, batch, &mut scratch.ctx_cache, |o| reward.reward(o));
            let mut lane = 0;
            for c in scratch.gears.iter_mut() {
                let mut k_best: Option<usize> = None;
                for k in 0..n {
                    if let Some(r) = batch.score(lane) {
                        if c.best.is_none_or(|(_, br)| r > br) {
                            let p = lo + (hi - lo) * k as f64 / (n - 1) as f64;
                            c.best = Some((p, r));
                            k_best = Some(k);
                        }
                    }
                    lane += 1;
                }
                if let Some(k) = k_best {
                    c.a = (lo + step * (k as f64 - 1.0)).max(lo);
                    c.b = (lo + step * (k as f64 + 1.0)).min(hi);
                    c.refining = true;
                }
            }
            // Ternary refinement, per gear: each iteration's two probes
            // depend on the previous iteration's bracket, so a wave is
            // only ever two lanes wide — far too narrow to amortize the
            // batch machinery (measured: lockstep two-lane waves cost
            // more than the physics they evaluate). The scalar
            // refinement loop on the cached context replays the
            // identical bracket updates and strict-`>` comparisons —
            // per-gear search state is independent across gears — so
            // the probes, their count, and the resulting bits are
            // exactly the lockstep ones; only the bookkeeping is gone.
            let _refine = hev_trace::span::enter("control.refine");
            let cur = *scratch.ctx_cache.get_or_insert(hev, battery_current_a, dt);
            for c in scratch.gears.iter_mut() {
                if !c.refining {
                    continue;
                }
                for _ in 0..self.refine_iters {
                    let m1 = c.a + (c.b - c.a) / 3.0;
                    let m2 = c.b - (c.b - c.a) / 3.0;
                    let r1 = self.evaluate_reward(hev, ctx, &cur, c.gear, m1, reward);
                    let r2 = self.evaluate_reward(hev, ctx, &cur, c.gear, m2, reward);
                    let r_best = c.best.map(|(_, r)| r);
                    match (r1, r2) {
                        (Some(x1), Some(x2)) => {
                            if x1 >= x2 {
                                c.b = m2;
                                if r_best.is_none_or(|r| x1 > r) {
                                    c.best = Some((m1, x1));
                                }
                            } else {
                                c.a = m1;
                                if r_best.is_none_or(|r| x2 > r) {
                                    c.best = Some((m2, x2));
                                }
                            }
                        }
                        (Some(x1), None) => {
                            c.b = m2;
                            if r_best.is_none_or(|r| x1 > r) {
                                c.best = Some((m1, x1));
                            }
                        }
                        (None, Some(x2)) => {
                            c.a = m1;
                            if r_best.is_none_or(|r| x2 > r) {
                                c.best = Some((m2, x2));
                            }
                        }
                        (None, None) => break,
                    }
                }
            }
        }
        // Winner across gears in ascending order under strict `>` —
        // the scalar outer loop's exact comparison sequence.
        let mut win: Option<(usize, f64, f64)> = None;
        for c in scratch.gears.iter() {
            if let Some((p, r)) = c.best {
                if win.is_none_or(|(_, _, wr)| r > wr) {
                    win = Some((c.gear, p, r));
                }
            }
        }
        let (gear, p_aux_w, r) = win?;
        let control = ControlInput {
            battery_current_a,
            gear,
            p_aux_w,
        };
        // A pure replay of the winning lane (same bits, no extra eval);
        // it cannot fail — the lane scored, so it was feasible.
        let outcome = hev
            .replay_candidate(ctx, &mut scratch.ctx_cache, &control, dt)
            .ok()?;
        Some(ResolvedAction {
            control,
            outcome,
            reward: r,
        })
    }
}

/// Reusable buffers for the batched resolve path: the candidate batch
/// the waves evaluate through and the per-gear search cursors. One
/// lives in each controller's per-step scratch; the DP solver carries
/// one across its whole grid sweep.
#[derive(Debug, Clone, Default)]
pub struct ResolveScratch {
    batch: CandidateBatch,
    gears: Vec<GearCursor>,
    /// Per-resolve battery-context cache (cleared at each resolve entry,
    /// so it never outlives the battery state it was built against).
    ctx_cache: CurrentContextCache,
}

impl ResolveScratch {
    /// A scratch with empty buffers (they grow on first use and are
    /// reused afterwards).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-gear state of the lockstep aux search: the refinement bracket
/// `[a, b]` and the best `(p_aux, reward)` seen so far. Outcomes are
/// never kept — the sweep is score-only, and the across-gear winner is
/// re-materialized once by a pure replay.
#[derive(Debug, Clone, Copy)]
struct GearCursor {
    gear: usize,
    refining: bool,
    a: f64,
    b: f64,
    best: Option<(f64, f64)>,
}

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

    fn assert_bit_identical(a: &ResolvedAction, b: &ResolvedAction) {
        assert_eq!(a.control.gear, b.control.gear);
        assert_eq!(
            a.control.battery_current_a.to_bits(),
            b.control.battery_current_a.to_bits()
        );
        assert_eq!(a.control.p_aux_w.to_bits(), b.control.p_aux_w.to_bits());
        assert_eq!(a.reward.to_bits(), b.reward.to_bits());
        assert_eq!(a.outcome.fuel_g.to_bits(), b.outcome.fuel_g.to_bits());
        assert_eq!(a.outcome.soc_after.to_bits(), b.outcome.soc_after.to_bits());
        assert_eq!(
            a.outcome.aux_utility.to_bits(),
            b.outcome.aux_utility.to_bits()
        );
        assert_eq!(a.outcome.mode, b.outcome.mode);
    }

    #[test]
    fn batched_resolve_matches_scalar_bit_for_bit() {
        let hev = hev();
        let mut scratch = ResolveScratch::new();
        for opt in [
            InnerOptimizer::default(),
            InnerOptimizer::with_fixed_aux(600.0),
        ] {
            for (v, a) in [
                (0.0, 0.0),
                (3.0, 0.4),
                (15.0, 0.3),
                (15.0, -1.5),
                (30.0, 0.2),
            ] {
                let d = hev.demand(v, a, 0.0);
                let ctx = hev.step_context(&d);
                for i in [-40.0, -8.0, 0.0, 8.0, 40.0, 100.0, 1e6] {
                    let scalar = opt.resolve_with(&hev, &ctx, i, 1.0, &cfg());
                    let batched =
                        opt.resolve_with_scratch(&hev, &ctx, i, 1.0, &cfg(), &mut scratch);
                    match (&scalar, &batched) {
                        (Some(s), Some(b)) => assert_bit_identical(b, s),
                        (None, None) => {}
                        _ => panic!(
                            "verdict mismatch at v={v} a={a} i={i}: {scalar:?} vs {batched:?}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn batched_mask_matches_scalar_verdicts() {
        let hev = hev();
        let opt = InnerOptimizer::default();
        let currents = crate::action::default_currents();
        let mut scratch = ResolveScratch::new();
        let mut mask = vec![false; currents.len()];
        for (v, a) in [
            (0.0, 0.0),
            (0.04, 0.0),
            (3.0, 0.4),
            (15.0, 0.3),
            (15.0, -1.5),
        ] {
            let d = hev.demand(v, a, 0.0);
            let ctx = hev.step_context(&d);
            opt.fill_mask_batched(&hev, &ctx, &currents, 1.0, &mut scratch, &mut mask);
            for (idx, &i) in currents.iter().enumerate() {
                assert_eq!(
                    mask[idx],
                    opt.feasible_with(&hev, &ctx, i, 1.0),
                    "mask diverged at v={v} a={a} i={i}"
                );
            }
        }
    }

    #[test]
    fn scalar_reference_flag_replays_scalar_eval_counts() {
        let hev = hev();
        let reference = InnerOptimizer {
            scalar_reference: true,
            ..InnerOptimizer::default()
        };
        let mut scratch = ResolveScratch::new();
        let d = hev.demand(15.0, 0.3, 0.0);
        let ctx = hev.step_context(&d);
        let snap = hev_trace::evals::count();
        let a = reference.resolve_with_scratch(&hev, &ctx, 10.0, 1.0, &cfg(), &mut scratch);
        let ref_evals = hev_trace::evals::since(snap);
        let snap = hev_trace::evals::count();
        let b = reference.resolve_with(&hev, &ctx, 10.0, 1.0, &cfg());
        assert_eq!(
            ref_evals,
            hev_trace::evals::since(snap),
            "scalar_reference must replay the scalar path exactly"
        );
        assert_bit_identical(&a.unwrap(), &b.unwrap());
    }

    #[test]
    fn batched_resolve_spends_fewer_evals_when_stopped() {
        // The stopped-step gear dedup is the headline idle-time saving:
        // only the first viable gear pays for its aux optimization.
        let hev = hev();
        let opt = InnerOptimizer::default();
        let mut scratch = ResolveScratch::new();
        let d = hev.demand(0.0, 0.0, 0.0);
        let ctx = hev.step_context(&d);
        let snap = hev_trace::evals::count();
        let scalar = opt.resolve_with(&hev, &ctx, 0.0, 1.0, &cfg());
        let scalar_evals = hev_trace::evals::since(snap);
        let snap = hev_trace::evals::count();
        let batched = opt.resolve_with_scratch(&hev, &ctx, 0.0, 1.0, &cfg(), &mut scratch);
        let batched_evals = hev_trace::evals::since(snap);
        assert_bit_identical(&batched.unwrap(), &scalar.unwrap());
        assert!(
            batched_evals * 4 < scalar_evals,
            "stopped-step dedup should cut evals by ~num_gears: {batched_evals} vs {scalar_evals}"
        );
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
