//! The batched candidate-evaluation kernel.
//!
//! Controllers sweep many `(current, gear, p_aux)` candidates against one
//! step's demand — feasibility masks, inner-optimization grids, ternary
//! refinements, DP current sweeps. [`CandidateBatch`] holds all the
//! candidates of one sweep in structure-of-arrays form (parallel input
//! arrays of currents, gear indices, and auxiliary powers; parallel
//! output arrays of feasibility verdicts and every [`StepOutcome`]
//! field), and [`ParallelHev::evaluate_batch`] resolves the whole batch
//! in one sweep over a prebuilt [`StepContext`].
//!
//! # The scalar-reference contract
//!
//! [`ParallelHev::peek_with_context`] is the *scalar reference
//! implementation*: every batch lane must be **bit-identical** — every
//! float field, every feasibility verdict, every error variant — to a
//! scalar `peek_with_context` call with the same control at the same
//! vehicle state. The kernel guarantees this by construction: each lane
//! runs the very same completion body (`complete_control`) the scalar
//! path runs, against a [`CurrentContext`] built by the very same pure
//! call; the only differences are *where* the per-current battery
//! precomputation is cached (consecutive lanes commanding bit-equal
//! currents share one context — a pure function of the same inputs, so
//! the shared value is the value each lane would have rebuilt) and *how*
//! evaluations are counted (one per lane in a single batched counter
//! update, instead of one counter hit per scalar call). The differential
//! suite (`tests/batch_differential.rs`) pins the contract with
//! `to_bits()` equality across cycles, randomized states, and perturbed
//! vehicles.
//!
//! # Eval accounting
//!
//! A batch of `n` lanes records exactly `n` peek-equivalent evaluations
//! ([`hev_trace::evals::record_batch`]) — one per lane, never one per
//! call — so `evals/step` remains comparable with scalar-path baselines.
//!
//! # Examples
//!
//! ```
//! use hev_model::{CandidateBatch, HevParams, ParallelHev};
//!
//! let hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6)?;
//! let demand = hev.demand(15.0, 0.3, 0.0);
//! let ctx = hev.step_context(&demand);
//! let mut batch = CandidateBatch::default();
//! batch.begin(1.0);
//! for gear in 0..5 {
//!     batch.push(10.0, gear, 600.0);
//! }
//! hev.evaluate_batch(&ctx, &mut batch);
//! let feasible = (0..batch.len()).filter(|&l| batch.is_feasible(l)).count();
//! assert!(feasible > 0);
//! # Ok::<(), hev_model::ParamError>(())
//! ```

use crate::error::InfeasibleControl;
use crate::vehicle::{
    ControlInput, CurrentContext, OperatingMode, ParallelHev, StepContext, StepOutcome,
};

/// A caller-scoped cache of per-current battery precomputations
/// ([`CurrentContext`]), keyed by the commanded current's raw bits.
///
/// A [`CurrentContext`] is a pure function of `(battery state, commanded
/// current, dt)`, so within one battery state it is safe — and
/// bit-identical — to build each distinct current's context once and
/// reuse it across every batch that probes it. Resolvers that evaluate
/// one current through many waves (a coarse grid wave plus a dozen
/// ternary-refinement waves, say) would otherwise rebuild the same
/// context once per wave; with a cache they build it once per resolve,
/// matching the scalar path's cost exactly.
///
/// The cache is valid for **one** `(battery state, dt)` scope: callers
/// must [`clear`](CurrentContextCache::clear) it whenever the battery
/// state (state of charge, capacity, temperature model inputs) or the
/// step length changes — in practice, at the top of each per-step sweep.
/// The demand/`StepContext` does *not* invalidate it: contexts depend
/// only on the battery and the commanded current, so one cache may span
/// several demands evaluated against the same vehicle state.
///
/// Lookup is **direct-mapped** over raw `f64` bits (so NaN currents
/// cache too, and `-0.0` never aliases `+0.0` — the same bit-equality
/// rule the kernel's consecutive-lane reuse applies): the key's
/// Fibonacci hash picks one of [`CACHE_SLOTS`] fixed slots, a hit is a
/// single compare, and a conflicting current simply evicts the slot. An
/// eviction is bit-safe — the context is a pure function of its inputs,
/// so recomputing it later yields the very same bits — it only costs
/// one rebuild. [`clear`](CurrentContextCache::clear) is O(1): slots
/// carry a generation stamp and clearing bumps the generation.
///
/// Cache efficacy is observable: every lookup records a hit or a miss
/// in the thread-local [`hev_trace::evals`] counters
/// (`ctx_cache_hits` / `ctx_cache_misses`), which the telemetry layer
/// exports through its metrics registry.
#[derive(Debug, Clone)]
pub struct CurrentContextCache {
    /// Current generation; a slot is live only while its stamp matches.
    generation: u64,
    /// Lazily allocated to [`CACHE_SLOTS`] entries on first insert.
    slots: Vec<CacheSlot>,
}

/// Fixed slot count of the direct-mapped cache: sweeps probe at most a
/// few dozen distinct currents (the action grid plus ternary-refinement
/// probes), so 64 slots keep conflict evictions rare.
pub const CACHE_SLOTS: usize = 64;

/// Fibonacci-hash multiplier (2^64 / φ), spreading raw current bits
/// uniformly over the slot index's top bits.
const FIB_HASH: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Debug, Clone, Copy)]
struct CacheSlot {
    /// Generation the slot was filled in; live iff equal to the cache's.
    stamp: u64,
    /// Raw bits of the commanded current.
    key: u64,
    /// Raw bits of the step length the context was built for.
    dt_bits: u64,
    ctx: CurrentContext,
}

impl Default for CurrentContextCache {
    fn default() -> Self {
        Self {
            // Slots start stamped 0, so the first live generation is 1.
            generation: 1,
            slots: Vec::new(),
        }
    }
}

impl CurrentContextCache {
    /// An empty cache (slots allocate on first use and are reused).
    pub fn new() -> Self {
        Self::default()
    }

    /// Invalidates every cached context in O(1) by advancing the
    /// generation. Call when the battery state or the step length
    /// changes.
    pub fn clear(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // 2^64 clears later the stamp space recycles; drop the slots
            // so no stale stamp can match the reused generation.
            self.slots.clear();
            self.generation = 1;
        }
    }

    /// The slot index of a raw-bits key.
    #[inline]
    fn slot_of(key: u64) -> usize {
        debug_assert!(CACHE_SLOTS.is_power_of_two());
        // The shift keeps log2(CACHE_SLOTS) bits, so the cast is bounded.
        (key.wrapping_mul(FIB_HASH) >> (64 - CACHE_SLOTS.trailing_zeros())) as usize
    }

    /// The context for `battery_current_a` at `dt`, built through `hev`
    /// on a miss (or a conflict eviction) and replayed from its slot on
    /// a hit.
    ///
    /// `hev`'s battery state and `dt` must match every earlier call
    /// since the last [`clear`](CurrentContextCache::clear); the `dt`
    /// half is debug-asserted on hits.
    #[inline]
    pub fn get_or_insert(
        &mut self,
        hev: &ParallelHev,
        battery_current_a: f64,
        dt: f64,
    ) -> &CurrentContext {
        let key = battery_current_a.to_bits();
        let idx = Self::slot_of(key);
        let hit = self
            .slots
            .get(idx)
            .is_some_and(|s| s.stamp == self.generation && s.key == key);
        if hit {
            debug_assert_eq!(
                self.slots[idx].dt_bits,
                dt.to_bits(),
                "CurrentContextCache reused across dt values without clear()"
            );
            crate::instrument::record_ctx_cache_hit();
            return &self.slots[idx].ctx;
        }
        crate::instrument::record_ctx_cache_miss();
        let slot = CacheSlot {
            stamp: self.generation,
            key,
            dt_bits: dt.to_bits(),
            ctx: hev.current_context(battery_current_a, dt),
        };
        if self.slots.is_empty() {
            // First insert: allocate every slot dead (stamp 0 never
            // matches a live generation).
            self.slots = vec![CacheSlot { stamp: 0, ..slot }; CACHE_SLOTS];
        }
        self.slots[idx] = slot;
        &self.slots[idx].ctx
    }
}

/// A structure-of-arrays batch of candidate controls for one step, with
/// per-lane outputs filled by [`ParallelHev::evaluate_batch`].
///
/// Reuse one batch across steps ([`CandidateBatch::begin`] keeps the
/// allocations); controllers hold one in their per-step scratch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CandidateBatch {
    /// Step length every lane is evaluated for, s.
    dt: f64,
    // ---- inputs (parallel arrays, one entry per lane) -------------------
    currents: Vec<f64>,
    gears: Vec<usize>,
    aux_w: Vec<f64>,
    /// Caller-defined lane tag (e.g. the action index a lane probes), so
    /// sweeps that skip candidates can map lanes back without extra
    /// bookkeeping.
    tags: Vec<usize>,
    // ---- outputs (parallel arrays, one entry per lane) ------------------
    /// Feasibility verdict: `None` = feasible, `Some(reason)` = the exact
    /// error the scalar reference returns. Infeasible lanes leave their
    /// numeric outputs zeroed.
    err: Vec<Option<InfeasibleControl>>,
    /// Caller-computed per-lane score, filled only by
    /// [`ParallelHev::evaluate_batch_scored`] (zeroed on infeasible
    /// lanes; empty after a full evaluation).
    score: Vec<f64>,
    mode: Vec<OperatingMode>,
    fuel_rate: Vec<f64>,
    fuel_g: Vec<f64>,
    engine_started: Vec<bool>,
    ice_torque: Vec<f64>,
    ice_speed: Vec<f64>,
    em_torque: Vec<f64>,
    em_speed: Vec<f64>,
    battery_current: Vec<f64>,
    battery_power: Vec<f64>,
    p_aux_out: Vec<f64>,
    aux_utility: Vec<f64>,
    friction: Vec<f64>,
    soc_before: Vec<f64>,
    soc_after: Vec<f64>,
}

impl CandidateBatch {
    /// Starts a new batch for step length `dt`, clearing all lanes but
    /// keeping the allocations.
    pub fn begin(&mut self, dt: f64) {
        self.dt = dt;
        self.currents.clear();
        self.gears.clear();
        self.aux_w.clear();
        self.tags.clear();
        self.clear_outputs();
    }

    fn clear_outputs(&mut self) {
        self.err.clear();
        self.score.clear();
        self.mode.clear();
        self.fuel_rate.clear();
        self.fuel_g.clear();
        self.engine_started.clear();
        self.ice_torque.clear();
        self.ice_speed.clear();
        self.em_torque.clear();
        self.em_speed.clear();
        self.battery_current.clear();
        self.battery_power.clear();
        self.p_aux_out.clear();
        self.aux_utility.clear();
        self.friction.clear();
        self.soc_before.clear();
        self.soc_after.clear();
    }

    /// Prepares the verdict and score arrays for an index-addressed
    /// scored evaluation over the current lanes: every other output
    /// array is cleared, and `err`/`score` are sized to
    /// [`len`](CandidateBatch::len) with the infeasible-lane fillers
    /// (`None` / `0.0`).
    ///
    /// Called by [`ParallelHev::evaluate_batch_scored`] before it scores
    /// the lanes.
    fn reset_scores(&mut self) {
        self.clear_outputs();
        self.err.resize(self.currents.len(), None);
        self.score.resize(self.currents.len(), 0.0);
    }

    /// Appends a candidate lane with tag 0.
    pub fn push(&mut self, battery_current_a: f64, gear: usize, p_aux_w: f64) {
        self.push_tagged(battery_current_a, gear, p_aux_w, 0);
    }

    /// Appends a candidate lane carrying a caller-defined `tag`.
    pub fn push_tagged(&mut self, battery_current_a: f64, gear: usize, p_aux_w: f64, tag: usize) {
        self.currents.push(battery_current_a);
        self.gears.push(gear);
        self.aux_w.push(p_aux_w);
        self.tags.push(tag);
    }

    /// Number of candidate lanes.
    pub fn len(&self) -> usize {
        self.currents.len()
    }

    /// Whether the batch holds no lanes.
    pub fn is_empty(&self) -> bool {
        self.currents.is_empty()
    }

    /// The step length lanes are evaluated for, s.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The control input of one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn control(&self, lane: usize) -> ControlInput {
        ControlInput {
            battery_current_a: self.currents[lane],
            gear: self.gears[lane],
            p_aux_w: self.aux_w[lane],
        }
    }

    /// The caller-defined tag of one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn tag(&self, lane: usize) -> usize {
        self.tags[lane]
    }

    /// Whether a lane resolved feasible. Meaningful only after
    /// [`ParallelHev::evaluate_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range (or the batch was never
    /// evaluated).
    pub fn is_feasible(&self, lane: usize) -> bool {
        self.err[lane].is_none()
    }

    /// The infeasibility reason of one lane (`None` when feasible) — the
    /// exact error the scalar reference returns for the same control.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range (or the batch was never
    /// evaluated).
    pub fn error(&self, lane: usize) -> Option<InfeasibleControl> {
        self.err[lane]
    }

    /// The caller-computed score of one lane (`None` when the lane
    /// resolved infeasible). Meaningful only after
    /// [`ParallelHev::evaluate_batch_scored`].
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range (or the batch was never
    /// score-evaluated).
    pub fn score(&self, lane: usize) -> Option<f64> {
        if self.err[lane].is_none() {
            Some(self.score[lane])
        } else {
            None
        }
    }

    /// Fuel consumed by one feasible lane, g (a reward term; zeroed on
    /// infeasible lanes).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range (or the batch was never
    /// evaluated).
    pub fn fuel_g(&self, lane: usize) -> f64 {
        self.fuel_g[lane]
    }

    /// Auxiliary utility of one feasible lane (a reward term; zeroed on
    /// infeasible lanes).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range (or the batch was never
    /// evaluated).
    pub fn aux_utility(&self, lane: usize) -> f64 {
        self.aux_utility[lane]
    }

    /// State of charge after one feasible lane (a reward term; zeroed on
    /// infeasible lanes).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range (or the batch was never
    /// evaluated).
    pub fn soc_after(&self, lane: usize) -> f64 {
        self.soc_after[lane]
    }

    /// Realized battery current of one feasible lane, A (zeroed on
    /// infeasible lanes).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range (or the batch was never
    /// evaluated).
    pub fn battery_current_a(&self, lane: usize) -> f64 {
        self.battery_current[lane]
    }

    /// Battery terminal power of one feasible lane, W (a reward term;
    /// zeroed on infeasible lanes).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range (or the batch was never
    /// evaluated).
    pub fn battery_power_w(&self, lane: usize) -> f64 {
        self.battery_power[lane]
    }

    /// Reassembles one lane's full result — bit-identical to the scalar
    /// reference's `Result<StepOutcome, InfeasibleControl>` for the same
    /// control.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range (or the batch was never
    /// evaluated).
    pub fn outcome(&self, lane: usize) -> Result<StepOutcome, InfeasibleControl> {
        if let Some(err) = self.err[lane] {
            return Err(err);
        }
        Ok(StepOutcome {
            mode: self.mode[lane],
            fuel_rate_g_per_s: self.fuel_rate[lane],
            fuel_g: self.fuel_g[lane],
            engine_started: self.engine_started[lane],
            ice_torque_nm: self.ice_torque[lane],
            ice_speed_rad_s: self.ice_speed[lane],
            em_torque_nm: self.em_torque[lane],
            em_speed_rad_s: self.em_speed[lane],
            battery_current_a: self.battery_current[lane],
            battery_power_w: self.battery_power[lane],
            p_aux_w: self.p_aux_out[lane],
            aux_utility: self.aux_utility[lane],
            friction_brake_torque_nm: self.friction[lane],
            soc_before: self.soc_before[lane],
            soc_after: self.soc_after[lane],
        })
    }

    /// Scatters one resolved lane into the output arrays.
    fn store(&mut self, result: &Result<StepOutcome, InfeasibleControl>) {
        // Infeasible lanes store the zeroed filler so every output array
        // stays lane-aligned; `Stopped` is the mode filler (the verdict
        // array is authoritative).
        const ZERO: StepOutcome = StepOutcome {
            mode: OperatingMode::Stopped,
            fuel_rate_g_per_s: 0.0,
            fuel_g: 0.0,
            engine_started: false,
            ice_torque_nm: 0.0,
            ice_speed_rad_s: 0.0,
            em_torque_nm: 0.0,
            em_speed_rad_s: 0.0,
            battery_current_a: 0.0,
            battery_power_w: 0.0,
            p_aux_w: 0.0,
            aux_utility: 0.0,
            friction_brake_torque_nm: 0.0,
            soc_before: 0.0,
            soc_after: 0.0,
        };
        let (err, o) = match result {
            Ok(o) => (None, o),
            Err(e) => (Some(*e), &ZERO),
        };
        self.err.push(err);
        self.mode.push(o.mode);
        self.fuel_rate.push(o.fuel_rate_g_per_s);
        self.fuel_g.push(o.fuel_g);
        self.engine_started.push(o.engine_started);
        self.ice_torque.push(o.ice_torque_nm);
        self.ice_speed.push(o.ice_speed_rad_s);
        self.em_torque.push(o.em_torque_nm);
        self.em_speed.push(o.em_speed_rad_s);
        self.battery_current.push(o.battery_current_a);
        self.battery_power.push(o.battery_power_w);
        self.p_aux_out.push(o.p_aux_w);
        self.aux_utility.push(o.aux_utility);
        self.friction.push(o.friction_brake_torque_nm);
        self.soc_before.push(o.soc_before);
        self.soc_after.push(o.soc_after);
    }
}

impl ParallelHev {
    /// Resolves every lane of `batch` against the prebuilt context in one
    /// sweep, filling the batch's output arrays.
    ///
    /// Per-lane results are bit-identical to the scalar reference
    /// ([`ParallelHev::peek_with_context`]) with the same control at the
    /// batch's `dt` — see the module docs for the contract. Consecutive
    /// lanes commanding bit-equal currents share one [`CurrentContext`]
    /// build (callers get the most from the kernel by grouping lanes by
    /// current), and the whole batch records exactly `len()`
    /// peek-equivalent evaluations in one counter update.
    ///
    /// `ctx` must have been built (or rebuilt) by this vehicle for the
    /// demand being evaluated, exactly as for
    /// [`ParallelHev::peek_with_context`].
    ///
    /// [`CurrentContext`]: crate::vehicle::CurrentContext
    pub fn evaluate_batch(&self, ctx: &StepContext, batch: &mut CandidateBatch) {
        batch.clear_outputs();
        let n = batch.len();
        if n == 0 {
            return;
        }
        let _span = hev_trace::span::enter("model.batch_fill");
        crate::instrument::record_batch(n as u64);
        let mut cur = self.current_context(batch.currents[0], batch.dt);
        for lane in 0..n {
            let battery_current_a = batch.currents[lane];
            // Bit-equality (not ==) so NaN commands also reuse and a
            // negative zero never aliases a positive one.
            if battery_current_a.to_bits() != cur.battery_current_a().to_bits() {
                cur = self.current_context(battery_current_a, batch.dt);
            }
            let control = ControlInput {
                battery_current_a,
                gear: batch.gears[lane],
                p_aux_w: batch.aux_w[lane],
            };
            let result = self.complete_control(ctx, &cur, &control);
            batch.store(&result);
        }
    }

    /// [`ParallelHev::evaluate_batch`] resolving each lane's
    /// [`CurrentContext`] through a caller-scoped
    /// [`CurrentContextCache`] instead of rebuilding on every change of
    /// lane current.
    ///
    /// Bit-identical to [`ParallelHev::evaluate_batch`] (a cached
    /// context is the same pure value a rebuild would produce) and
    /// records the same `len()` lane evaluations. Use it when one sweep
    /// issues *many* batch calls over *few* distinct currents — e.g. the
    /// inner optimizer's wave-per-iteration resolve, where every wave
    /// commands the same current: the cache makes the whole resolve
    /// build one context, where the uncached kernel would build one per
    /// wave.
    ///
    /// The cache must be scoped to this vehicle's current battery state
    /// and this batch's `dt` — see [`CurrentContextCache`].
    pub fn evaluate_batch_cached(
        &self,
        ctx: &StepContext,
        batch: &mut CandidateBatch,
        cache: &mut CurrentContextCache,
    ) {
        batch.clear_outputs();
        let n = batch.len();
        if n == 0 {
            return;
        }
        let _span = hev_trace::span::enter("model.batch_fill");
        crate::instrument::record_batch(n as u64);
        for lane in 0..n {
            let battery_current_a = batch.currents[lane];
            let cur = cache.get_or_insert(self, battery_current_a, batch.dt);
            let control = ControlInput {
                battery_current_a,
                gear: batch.gears[lane],
                p_aux_w: batch.aux_w[lane],
            };
            let result = self.complete_control(ctx, cur, &control);
            batch.store(&result);
        }
    }

    /// The lean sweep kernel: evaluates every lane but stores only its
    /// feasibility verdict and a caller-computed `score` — no outcome
    /// fields are materialized.
    ///
    /// Argmax sweeps (the inner optimization, feasibility masks) consume
    /// only a score — or nothing at all — per losing candidate; storing
    /// the full sixteen-array outcome per lane costs more than the
    /// physics. Because `score` is monomorphized into the lane loop and
    /// the completion is `#[inline(always)]`, the parts of the outcome
    /// the score never reads are dead-code-eliminated — the same
    /// optimization the scalar sweep (`evaluate_reward`) gets. Winners
    /// are re-materialized once via
    /// [`ParallelHev::replay_candidate`].
    ///
    /// Per-lane verdicts and scores are bit-identical to scoring the
    /// scalar reference's outcome: each lane runs the same completion on
    /// the same cached pure context, and `score` sees the same outcome
    /// bits. Records `len()` lane evaluations, exactly like
    /// [`ParallelHev::evaluate_batch`]. After a scored evaluation only
    /// [`CandidateBatch::score`], [`CandidateBatch::is_feasible`], and
    /// [`CandidateBatch::error`] are meaningful — outcome accessors
    /// would index empty arrays.
    pub fn evaluate_batch_scored<F>(
        &self,
        ctx: &StepContext,
        batch: &mut CandidateBatch,
        cache: &mut CurrentContextCache,
        score: F,
    ) where
        F: Fn(&StepOutcome) -> f64,
    {
        batch.reset_scores();
        let n = batch.len();
        if n == 0 {
            return;
        }
        let _span = hev_trace::span::enter("model.scored_sweep");
        crate::instrument::record_batch(n as u64);
        for lane in 0..n {
            let battery_current_a = batch.currents[lane];
            let cur = cache.get_or_insert(self, battery_current_a, batch.dt);
            let control = ControlInput {
                battery_current_a,
                gear: batch.gears[lane],
                p_aux_w: batch.aux_w[lane],
            };
            match self.complete_control(ctx, cur, &control) {
                Ok(o) => {
                    batch.err[lane] = None;
                    batch.score[lane] = score(&o);
                }
                Err(e) => {
                    batch.err[lane] = Some(e);
                    batch.score[lane] = 0.0;
                }
            }
        }
    }

    /// Re-materializes the full outcome of a candidate an earlier scored
    /// batch already evaluated — the argmax winner — through the same
    /// cached context its lane used.
    ///
    /// A pure replay: the completion is a deterministic function of
    /// `(ctx, cached context, control)`, so the returned bits are the
    /// bits the lane's score was computed from. Because the lane was
    /// already counted by its batch, a replay records **no** additional
    /// evaluation.
    pub fn replay_candidate(
        &self,
        ctx: &StepContext,
        cache: &mut CurrentContextCache,
        control: &ControlInput,
        dt: f64,
    ) -> Result<StepOutcome, InfeasibleControl> {
        let _span = hev_trace::span::enter("model.winner_replay");
        let cur = cache.get_or_insert(self, control.battery_current_a, dt);
        self.complete_control(ctx, cur, control)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::HevParams;

    fn hev() -> ParallelHev {
        ParallelHev::new(HevParams::default_parallel_hev(), 0.6).unwrap()
    }

    fn outcome_bits(o: &StepOutcome) -> [u64; 13] {
        [
            o.fuel_rate_g_per_s.to_bits(),
            o.fuel_g.to_bits(),
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

    #[test]
    fn batch_lane_matches_scalar_reference_bit_for_bit() {
        let hev = hev();
        for (v, a) in [(0.0, 0.0), (3.0, 0.4), (20.0, 0.3), (15.0, -1.5)] {
            let d = hev.demand(v, a, 0.0);
            let ctx = hev.step_context(&d);
            let mut batch = CandidateBatch::default();
            batch.begin(1.0);
            for &i in &[-25.0, 0.0, 10.0, 100.0, 1e6] {
                for gear in 0..6 {
                    // gear 5 is invalid: error lanes are part of the contract
                    batch.push(i, gear, 600.0);
                }
            }
            hev.evaluate_batch(&ctx, &mut batch);
            for lane in 0..batch.len() {
                let control = batch.control(lane);
                let scalar = hev.peek_with_context(&ctx, &control, 1.0);
                match (batch.outcome(lane), scalar) {
                    (Ok(b), Ok(s)) => {
                        assert_eq!(outcome_bits(&b), outcome_bits(&s), "lane {lane} v={v}");
                        assert_eq!(b.mode, s.mode);
                        assert_eq!(b.engine_started, s.engine_started);
                    }
                    (Err(b), Err(s)) => assert_eq!(b, s, "lane {lane} v={v}"),
                    (b, s) => panic!("verdict mismatch at lane {lane}: {b:?} vs {s:?}"),
                }
            }
        }
    }

    #[test]
    fn cached_kernel_matches_uncached_bit_for_bit() {
        let hev = hev();
        // One cache spans every demand: contexts depend only on the
        // battery state and dt, neither of which a peek mutates.
        let mut cache = CurrentContextCache::new();
        for (v, a) in [(0.0, 0.0), (3.0, 0.4), (20.0, 0.3), (15.0, -1.5)] {
            let d = hev.demand(v, a, 0.0);
            let ctx = hev.step_context(&d);
            let mut plain = CandidateBatch::default();
            let mut cached = CandidateBatch::default();
            for b in [&mut plain, &mut cached] {
                b.begin(1.0);
                // Interleave currents so the uncached kernel's
                // consecutive-lane reuse never fires but the cache hits.
                for gear in 0..6 {
                    for &i in &[-25.0, 0.0, 10.0, 100.0, 1e6] {
                        b.push(i, gear, 600.0);
                    }
                }
            }
            hev.evaluate_batch(&ctx, &mut plain);
            hev.evaluate_batch_cached(&ctx, &mut cached, &mut cache);
            for lane in 0..plain.len() {
                match (plain.outcome(lane), cached.outcome(lane)) {
                    (Ok(p), Ok(c)) => {
                        assert_eq!(outcome_bits(&p), outcome_bits(&c), "lane {lane} v={v}");
                        assert_eq!(p.mode, c.mode);
                        assert_eq!(p.engine_started, c.engine_started);
                    }
                    (Err(p), Err(c)) => assert_eq!(p, c, "lane {lane} v={v}"),
                    (p, c) => panic!("verdict mismatch at lane {lane}: {p:?} vs {c:?}"),
                }
            }
        }
    }

    #[test]
    fn cached_kernel_counts_one_eval_per_lane() {
        let hev = hev();
        let d = hev.demand(15.0, 0.2, 0.0);
        let ctx = hev.step_context(&d);
        let mut batch = CandidateBatch::default();
        let mut cache = CurrentContextCache::new();
        batch.begin(1.0);
        for gear in 0..5 {
            batch.push(8.0, gear, 600.0);
        }
        let snap = hev_trace::evals::count();
        let calls = hev_trace::evals::batch_calls();
        hev.evaluate_batch_cached(&ctx, &mut batch, &mut cache);
        assert_eq!(hev_trace::evals::since(snap), 5);
        assert_eq!(hev_trace::evals::batch_calls() - calls, 1);
        // A cached empty batch is the same no-op as the uncached one.
        batch.begin(1.0);
        let snap = hev_trace::evals::count();
        hev.evaluate_batch_cached(&ctx, &mut batch, &mut cache);
        assert_eq!(hev_trace::evals::since(snap), 0);
    }

    #[test]
    fn batch_counts_one_eval_per_lane() {
        let hev = hev();
        let d = hev.demand(15.0, 0.2, 0.0);
        let ctx = hev.step_context(&d);
        let mut batch = CandidateBatch::default();
        batch.begin(1.0);
        for gear in 0..5 {
            batch.push(8.0, gear, 600.0);
        }
        let snap = hev_trace::evals::count();
        let calls = hev_trace::evals::batch_calls();
        hev.evaluate_batch(&ctx, &mut batch);
        assert_eq!(hev_trace::evals::since(snap), 5);
        assert_eq!(hev_trace::evals::batch_calls() - calls, 1);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let hev = hev();
        let d = hev.demand(10.0, 0.0, 0.0);
        let ctx = hev.step_context(&d);
        let mut batch = CandidateBatch::default();
        batch.begin(1.0);
        let snap = hev_trace::evals::count();
        hev.evaluate_batch(&ctx, &mut batch);
        assert_eq!(batch.len(), 0);
        assert_eq!(hev_trace::evals::since(snap), 0);
    }

    #[test]
    fn direct_mapped_cache_counts_hits_and_misses() {
        let hev = hev();
        let mut cache = CurrentContextCache::new();
        let (h0, m0) = (
            hev_trace::evals::ctx_cache_hits(),
            hev_trace::evals::ctx_cache_misses(),
        );
        cache.get_or_insert(&hev, 10.0, 1.0);
        cache.get_or_insert(&hev, 10.0, 1.0);
        cache.get_or_insert(&hev, 10.0, 1.0);
        cache.get_or_insert(&hev, -25.0, 1.0);
        assert_eq!(hev_trace::evals::ctx_cache_hits().wrapping_sub(h0), 2);
        assert_eq!(hev_trace::evals::ctx_cache_misses().wrapping_sub(m0), 2);
        // clear() invalidates in O(1): the next lookup misses again.
        cache.clear();
        let m1 = hev_trace::evals::ctx_cache_misses();
        cache.get_or_insert(&hev, 10.0, 1.0);
        assert_eq!(hev_trace::evals::ctx_cache_misses().wrapping_sub(m1), 1);
        // Cache bookkeeping never counts as a peek-equivalent eval.
        let snap = hev_trace::evals::count();
        cache.get_or_insert(&hev, 10.0, 1.0);
        assert_eq!(hev_trace::evals::since(snap), 0);
    }

    #[test]
    fn conflict_eviction_replays_the_same_bits() {
        let hev = hev();
        // Find two distinct currents that collide in the direct map.
        let base = 10.0_f64;
        let slot = CurrentContextCache::slot_of(base.to_bits());
        let other = (1..100_000)
            .map(|k| 10.0 + k as f64 * 0.001)
            .find(|i| CurrentContextCache::slot_of(i.to_bits()) == slot && *i != base)
            .expect("a colliding current exists");
        let mut cache = CurrentContextCache::new();
        let first = *cache.get_or_insert(&hev, base, 1.0);
        // Evict, then re-fetch: the pure function must reproduce the
        // evicted context bit for bit.
        cache.get_or_insert(&hev, other, 1.0);
        let refetched = *cache.get_or_insert(&hev, base, 1.0);
        assert_eq!(
            first.battery_current_a().to_bits(),
            refetched.battery_current_a().to_bits()
        );
        assert_eq!(first.is_feasible(), refetched.is_feasible());
    }

    #[test]
    fn begin_reuses_allocations_and_resets_lanes() {
        let hev = hev();
        let d = hev.demand(10.0, 0.0, 0.0);
        let ctx = hev.step_context(&d);
        let mut batch = CandidateBatch::default();
        batch.begin(1.0);
        batch.push_tagged(4.0, 1, 600.0, 7);
        hev.evaluate_batch(&ctx, &mut batch);
        assert_eq!(batch.tag(0), 7);
        batch.begin(0.5);
        assert!(batch.is_empty());
        assert_eq!(batch.dt(), 0.5);
    }
}
