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
    static CTX_REBUILDS: Cell<u64> = const { Cell::new(0) };
}

/// Records one peek-equivalent evaluation.
pub fn record() {
    EVALS.with(|c| c.set(c.get().wrapping_add(1)));
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

/// Evaluations recorded on this thread since the last [`reset`] (a free-
/// running counter; per-episode consumers difference two snapshots with
/// [`since`]).
pub fn count() -> u64 {
    EVALS.with(Cell::get)
}

/// Resets this thread's counters (total evaluations, context
/// rebuilds) to zero.
pub fn reset() {
    EVALS.with(|c| c.set(0));
    CTX_REBUILDS.with(|c| c.set(0));
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
///
/// The batch fields counted a batched candidate kernel, since removed:
/// every candidate is now probed directly and counted in `evals`.
/// Nothing records them any more, so they always read 0; they stay
/// because the benchmark report still reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Peek-equivalent evaluations ([`count`]).
    pub evals: u64,
    /// Evaluations recorded through the batched kernel (always 0).
    pub batch_lanes: u64,
    /// Batched-kernel invocations (always 0).
    pub batch_calls: u64,
    /// Step-context rebuilds ([`ctx_rebuilds`]).
    pub ctx_rebuilds: u64,
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
        }
    }
}

/// Snapshots every counter on this thread at once.
pub fn counts() -> Counts {
    Counts {
        evals: count(),
        ctx_rebuilds: ctx_rebuilds(),
        ..Counts::default()
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
        assert_eq!(ctx_rebuilds(), 2);
        // Context bookkeeping never counts as a peek-equivalent eval.
        assert_eq!(count(), 0);
        reset();
        assert_eq!(ctx_rebuilds(), 0);
    }

    #[test]
    fn counts_snapshot_differences_every_counter() {
        reset();
        let start = counts();
        record();
        record();
        record_ctx_rebuild();
        let delta = counts().since(&start);
        assert_eq!(
            delta,
            Counts {
                evals: 2,
                ctx_rebuilds: 1,
                ..Counts::default()
            }
        );
        reset();
    }
}
