//! The thread-local peek-equivalent evaluation counter.
//!
//! Every control step of the RL controller pays many *peek-equivalent
//! evaluations* — feasibility probes, inner-optimization grid points,
//! ternary-search refinements — and the per-step evaluation count is the
//! quantity the staged pipeline in `hev_model` amortizes. The vehicle
//! model records each evaluation here (migrated from the former
//! `hev_model::instrument` module), and the telemetry layer reads
//! per-episode deltas via [`count`] snapshots — deterministic because
//! each episode runs on a single thread.
//!
//! Incrementing a thread-local `Cell` costs a few nanoseconds and never
//! contends across the parallel harness's workers. Callers that want a
//! complete count run their workload single-threaded (the harness's
//! `--jobs 1` mode) or difference [`count`] inside each worker.

use std::cell::Cell;

thread_local! {
    static EVALS: Cell<u64> = const { Cell::new(0) };
    static BATCH_LANES: Cell<u64> = const { Cell::new(0) };
    static BATCH_CALLS: Cell<u64> = const { Cell::new(0) };
    static CTX_REBUILDS: Cell<u64> = const { Cell::new(0) };
    static CTX_CACHE_HITS: Cell<u64> = const { Cell::new(0) };
    static CTX_CACHE_MISSES: Cell<u64> = const { Cell::new(0) };
}

/// Records one peek-equivalent evaluation.
pub fn record() {
    EVALS.with(|c| c.set(c.get().wrapping_add(1)));
}

/// Records one batched-kernel sweep of `lanes` peek-equivalent
/// evaluations: the total advances by `lanes` — one eval per batch
/// *lane*, never one per call — so `evals/step` stays comparable with
/// the scalar-path baselines. Also tracks the number of batch calls, so
/// consumers can report the mean batch width. Zero-lane calls are
/// no-ops (an empty batch evaluates nothing and must not skew the
/// width statistic).
pub fn record_batch(lanes: u64) {
    if lanes == 0 {
        return;
    }
    EVALS.with(|c| c.set(c.get().wrapping_add(lanes)));
    BATCH_LANES.with(|c| c.set(c.get().wrapping_add(lanes)));
    BATCH_CALLS.with(|c| c.set(c.get().wrapping_add(1)));
}

/// Records one `StepContext` rebuild — a full demand-to-gear precompute
/// of one timestep's battery-independent context. The cycle-level context table amortizes these: a steady-
/// state training run should record at most one rebuild per (cycle,
/// vehicle-config) pair, and the benchmark JSON pins that number.
pub fn record_ctx_rebuild() {
    CTX_REBUILDS.with(|c| c.set(c.get().wrapping_add(1)));
}

/// Context rebuilds recorded on this thread since the last [`reset`].
pub fn ctx_rebuilds() -> u64 {
    CTX_REBUILDS.with(Cell::get)
}

/// Records one hit in the per-step battery-context cache (the keyed
/// `CurrentContext` lookup succeeded without recomputation).
pub fn record_ctx_cache_hit() {
    CTX_CACHE_HITS.with(|c| c.set(c.get().wrapping_add(1)));
}

/// Records one miss in the per-step battery-context cache (the keyed
/// `CurrentContext` had to be computed and inserted).
pub fn record_ctx_cache_miss() {
    CTX_CACHE_MISSES.with(|c| c.set(c.get().wrapping_add(1)));
}

/// Battery-context cache hits on this thread since the last [`reset`].
pub fn ctx_cache_hits() -> u64 {
    CTX_CACHE_HITS.with(Cell::get)
}

/// Battery-context cache misses on this thread since the last [`reset`].
pub fn ctx_cache_misses() -> u64 {
    CTX_CACHE_MISSES.with(Cell::get)
}

/// Evaluations recorded through the batched kernel on this thread since
/// the last [`reset`] (a subset of [`count`]).
pub fn batch_lanes() -> u64 {
    BATCH_LANES.with(Cell::get)
}

/// Batched-kernel invocations on this thread since the last [`reset`];
/// `batch_lanes() / batch_calls()` is the mean batch width.
pub fn batch_calls() -> u64 {
    BATCH_CALLS.with(Cell::get)
}

/// Evaluations recorded on this thread since the last [`reset`] (a free-
/// running counter; per-episode consumers difference two snapshots with
/// [`since`]).
pub fn count() -> u64 {
    EVALS.with(Cell::get)
}

/// Resets this thread's counters (total, batch lanes, batch calls,
/// context rebuilds, context-cache hits/misses) to zero.
pub fn reset() {
    EVALS.with(|c| c.set(0));
    BATCH_LANES.with(|c| c.set(0));
    BATCH_CALLS.with(|c| c.set(0));
    CTX_REBUILDS.with(|c| c.set(0));
    CTX_CACHE_HITS.with(|c| c.set(0));
    CTX_CACHE_MISSES.with(|c| c.set(0));
}

/// Evaluations since an earlier [`count`] snapshot (wrapping-safe).
pub fn since(snapshot: u64) -> u64 {
    count().wrapping_sub(snapshot)
}

/// One snapshot of every per-thread counter, taken with [`counts`].
///
/// Windowed consumers (per-episode telemetry, the span profiler)
/// difference two snapshots with [`Counts::since`], which wraps like the
/// underlying counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Peek-equivalent evaluations ([`count`]).
    pub evals: u64,
    /// Evaluations recorded through the batched kernel ([`batch_lanes`]).
    pub batch_lanes: u64,
    /// Batched-kernel invocations ([`batch_calls`]).
    pub batch_calls: u64,
    /// Step-context rebuilds ([`ctx_rebuilds`]).
    pub ctx_rebuilds: u64,
    /// Battery-context cache hits ([`ctx_cache_hits`]).
    pub ctx_cache_hits: u64,
    /// Battery-context cache misses ([`ctx_cache_misses`]).
    pub ctx_cache_misses: u64,
}

impl Counts {
    /// The deltas accumulated since an `earlier` snapshot
    /// (field-wise wrapping subtraction).
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            evals: self.evals.wrapping_sub(earlier.evals),
            batch_lanes: self.batch_lanes.wrapping_sub(earlier.batch_lanes),
            batch_calls: self.batch_calls.wrapping_sub(earlier.batch_calls),
            ctx_rebuilds: self.ctx_rebuilds.wrapping_sub(earlier.ctx_rebuilds),
            ctx_cache_hits: self.ctx_cache_hits.wrapping_sub(earlier.ctx_cache_hits),
            ctx_cache_misses: self.ctx_cache_misses.wrapping_sub(earlier.ctx_cache_misses),
        }
    }
}

/// Snapshots every counter on this thread at once.
pub fn counts() -> Counts {
    Counts {
        evals: count(),
        batch_lanes: batch_lanes(),
        batch_calls: batch_calls(),
        ctx_rebuilds: ctx_rebuilds(),
        ctx_cache_hits: ctx_cache_hits(),
        ctx_cache_misses: ctx_cache_misses(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_resets_and_differences() {
        reset();
        assert_eq!(count(), 0);
        record();
        record();
        assert_eq!(count(), 2);
        let snap = count();
        record();
        assert_eq!(since(snap), 1);
        reset();
        assert_eq!(count(), 0);
    }

    #[test]
    fn context_counters_accumulate_and_reset() {
        reset();
        record_ctx_rebuild();
        record_ctx_rebuild();
        record_ctx_cache_hit();
        record_ctx_cache_miss();
        record_ctx_cache_miss();
        record_ctx_cache_miss();
        assert_eq!(ctx_rebuilds(), 2);
        assert_eq!(ctx_cache_hits(), 1);
        assert_eq!(ctx_cache_misses(), 3);
        // Context bookkeeping never counts as a peek-equivalent eval.
        assert_eq!(count(), 0);
        reset();
        assert_eq!(ctx_rebuilds(), 0);
        assert_eq!(ctx_cache_hits(), 0);
        assert_eq!(ctx_cache_misses(), 0);
    }

    #[test]
    fn counts_snapshot_differences_every_counter() {
        reset();
        let start = counts();
        record();
        record_batch(4);
        record_ctx_rebuild();
        record_ctx_cache_hit();
        record_ctx_cache_miss();
        let delta = counts().since(&start);
        assert_eq!(delta.evals, 5);
        assert_eq!(delta.batch_lanes, 4);
        assert_eq!(delta.batch_calls, 1);
        assert_eq!(delta.ctx_rebuilds, 1);
        assert_eq!(delta.ctx_cache_hits, 1);
        assert_eq!(delta.ctx_cache_misses, 1);
        reset();
    }

    #[test]
    fn batch_records_one_eval_per_lane() {
        // Hand-counted scenario: two scalar evals, a 7-lane batch, a
        // 3-lane batch, and an empty batch. The total must be
        // 2 + 7 + 3 = 12 (one per lane, never one per call), the batch
        // subset 10, and the empty call must count neither a lane nor a
        // call.
        reset();
        record();
        record();
        record_batch(7);
        record_batch(3);
        record_batch(0);
        assert_eq!(count(), 12);
        assert_eq!(batch_lanes(), 10);
        assert_eq!(batch_calls(), 2);
        reset();
        assert_eq!(batch_lanes(), 0);
        assert_eq!(batch_calls(), 0);
    }
}
