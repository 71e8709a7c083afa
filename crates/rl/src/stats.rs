//! Learning-progress accumulators for telemetry.
//!
//! The TD(λ) learner itself is part of persisted controller snapshots
//! (it is `Serialize`/`PartialEq` inside `ControllerSnapshot`), so it
//! must not grow observability fields — that would change the snapshot
//! schema and break byte-for-byte crash-recovery comparisons. Instead
//! the controller owns a [`TdStats`] accumulator beside the learner and
//! feeds it the TD error `δ` each `update` returns. [`QStats`] is the
//! companion read-only summary computed from a [`QTable`]
//! at episode end.
//!
//! `TdStats` keeps a fixed-bound histogram of `|δ|` (bucket counts, not
//! raw samples) so its memory is constant regardless of episode length
//! and the bucket layout is identical on every machine — a requirement
//! for byte-identical telemetry across worker counts.

use crate::QTable;

/// Fixed bucket upper bounds for the `|δ|` histogram.
///
/// Chosen to span the magnitudes seen across the paper's reward scale:
/// converged updates land in the sub-0.1 buckets, early-training spikes
/// in the tail. Shared by every consumer so exported histograms always
/// agree on layout.
pub const TD_ABS_DELTA_BOUNDS: [f64; 6] = [0.01, 0.1, 0.5, 1.0, 5.0, 25.0];

/// Accumulates TD-error statistics over one episode.
///
/// All fields update in O(1) per observation; nothing here allocates
/// after construction.
#[derive(Debug, Clone, PartialEq)]
pub struct TdStats {
    /// Number of TD updates observed.
    pub updates: u64,
    /// Sum of signed TD errors (bias indicator).
    pub sum_delta: f64,
    /// Sum of `|δ|` (drives the mean absolute TD error).
    pub sum_abs_delta: f64,
    /// Largest `|δ|` seen.
    pub max_abs_delta: f64,
    /// Histogram counts over [`TD_ABS_DELTA_BOUNDS`]; the final slot is
    /// the overflow bucket (`|δ|` above the last bound).
    pub bucket_counts: [u64; TD_ABS_DELTA_BOUNDS.len() + 1],
}

impl Default for TdStats {
    fn default() -> Self {
        Self::new()
    }
}

impl TdStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            updates: 0,
            sum_delta: 0.0,
            sum_abs_delta: 0.0,
            max_abs_delta: 0.0,
            bucket_counts: [0; TD_ABS_DELTA_BOUNDS.len() + 1],
        }
    }

    /// Records one TD error.
    ///
    /// Non-finite deltas count into the overflow bucket and leave the
    /// running sums untouched, so a single NaN spike cannot poison the
    /// episode aggregates (the flight recorder captures the offending
    /// step separately).
    pub fn record(&mut self, delta: f64) {
        self.updates += 1;
        if !delta.is_finite() {
            self.bucket_counts[TD_ABS_DELTA_BOUNDS.len()] += 1;
            return;
        }
        let abs = delta.abs();
        self.sum_delta += delta;
        self.sum_abs_delta += abs;
        if abs > self.max_abs_delta {
            self.max_abs_delta = abs;
        }
        let slot = TD_ABS_DELTA_BOUNDS
            .iter()
            .position(|&b| abs <= b)
            .unwrap_or(TD_ABS_DELTA_BOUNDS.len());
        self.bucket_counts[slot] += 1;
    }

    /// Mean absolute TD error, or 0 when no updates were recorded.
    pub fn mean_abs_delta(&self) -> f64 {
        if self.updates == 0 {
            0.0
        } else {
            self.sum_abs_delta / self.updates as f64
        }
    }

    /// Clears the accumulator for the next episode.
    pub fn reset(&mut self) {
        *self = Self::new();
    }
}

/// Read-only Q-table occupancy summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QStats {
    /// Number of discrete states.
    pub n_states: usize,
    /// Number of discrete actions.
    pub n_actions: usize,
    /// State-action pairs visited at least once.
    pub visited: usize,
    /// Total visits summed over all pairs.
    pub visits_total: u64,
}

impl QStats {
    /// Summarizes `table`'s occupancy.
    pub fn from_table(table: &QTable) -> Self {
        Self {
            n_states: table.n_states(),
            n_actions: table.n_actions(),
            visited: table.coverage(),
            visits_total: table.visits_total(),
        }
    }

    /// Fraction of the state-action space visited, in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        let cells = self.n_states * self.n_actions;
        if cells == 0 {
            0.0
        } else {
            self.visited as f64 / cells as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_and_buckets() {
        let mut s = TdStats::new();
        s.record(0.005);
        s.record(-0.05);
        s.record(2.0);
        s.record(100.0);
        assert_eq!(s.updates, 4);
        assert!((s.sum_delta - (0.005 - 0.05 + 2.0 + 100.0)).abs() < 1e-12);
        assert!((s.max_abs_delta - 100.0).abs() < 1e-12);
        assert_eq!(s.bucket_counts, [1, 1, 0, 0, 1, 0, 1]);
        assert!((s.mean_abs_delta() - (0.005 + 0.05 + 2.0 + 100.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn non_finite_delta_goes_to_overflow_without_poisoning_sums() {
        let mut s = TdStats::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        assert_eq!(s.updates, 2);
        assert_eq!(s.sum_delta, 0.0);
        assert_eq!(s.sum_abs_delta, 0.0);
        assert_eq!(s.bucket_counts[TD_ABS_DELTA_BOUNDS.len()], 2);
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = TdStats::new();
        s.record(1.0);
        s.reset();
        assert_eq!(s, TdStats::new());
    }

    #[test]
    fn qstats_summarizes_table() {
        let mut q = QTable::new(4, 3, 0.0);
        q.visit(0, 0);
        q.visit(0, 0);
        q.visit(2, 1);
        let stats = QStats::from_table(&q);
        assert_eq!(stats.n_states, 4);
        assert_eq!(stats.n_actions, 3);
        assert_eq!(stats.visited, 2);
        assert_eq!(stats.visits_total, 3);
        assert!((stats.occupancy() - 2.0 / 12.0).abs() < 1e-12);
    }
}
