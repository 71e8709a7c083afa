//! Deterministic telemetry for the HEV joint-control workspace.
//!
//! The controller makes three coupled decisions every step (battery
//! current, gear, auxiliary power); when a run underperforms or the
//! supervisor degrades to a fallback tier, the question is always *why*.
//! This crate is the answer's recording layer:
//!
//! * [`registry`] — a metrics registry (counters, gauges, histograms
//!   with fixed deterministic bucket bounds) with single-line JSON and
//!   Prometheus text exposition;
//! * [`trace`] — sampled structured step events (discretized state,
//!   action-mask size, inner-opt winner, reward terms) encoded as
//!   versioned JSONL, and the `flight_dump` line that lists the recent
//!   events when a supervisor degrades, a control goes non-finite, or a
//!   serve session panics;
//! * [`evals`] — the thread-local peek-equivalent evaluation counter
//!   (migrated here from `hev_model::instrument`);
//! * [`span`] — a hierarchical span profiler on the eval-count virtual
//!   clock, with per-phase cost attribution, Chrome-trace export, and a
//!   wall-clock lane installable only from the harness layer;
//! * [`wallclock`] — the harness-role module (the only one allowed to
//!   touch the wall clock): the span profiler's wall-clock hook.
//!
//! # Determinism contract
//!
//! Everything outside [`wallclock`] is a pure function of what was recorded:
//! no wall clock, no environment, no hashing collections. Emitted lines
//! are therefore byte-identical across worker counts as long as callers
//! collect them per task and concatenate in task order (the pattern
//! `hev_bench::experiments` uses). Floats are formatted with Rust's
//! shortest-round-trip `{:?}` (matching the vendored `serde_json`), and
//! non-finite values — which flight dumps exist to capture —
//! are encoded as the JSON strings `"NaN"`, `"inf"`, `"-inf"`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod evals;
pub mod json;
pub mod registry;
pub mod span;
pub mod trace;
pub mod wallclock;

pub use registry::{Histogram, MetricValue, MetricsRegistry};
pub use span::{SpanGuard, SpanNode, SpanTree};
pub use trace::{flight_dump, StepEvent, TRACE_SCHEMA_VERSION};
