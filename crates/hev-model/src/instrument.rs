//! Evaluation-counting shim over [`hev_trace::evals`].
//!
//! The thread-local peek-equivalent evaluation counter used to live
//! here; it migrated to `hev-trace` so the telemetry registry, the
//! benchmark harness, and the vehicle model all share one counter. This
//! module keeps the vehicle model's call site (`record_eval`) crate-
//! internal — consumers read counts through `hev_trace::evals` directly,
//! not through `hev_model`.

/// Records one peek-equivalent evaluation (called by the vehicle model).
#[inline]
pub(crate) fn record_eval() {
    hev_trace::evals::record();
}

/// Records one `StepContext` rebuild (called by
/// `ParallelHev::rebuild_context`). The cycle-level context table
/// amortizes these to one per (cycle, vehicle-config) pair.
#[inline]
pub(crate) fn record_ctx_rebuild() {
    hev_trace::evals::record_ctx_rebuild();
}
