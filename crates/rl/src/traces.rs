//! Eligibility traces for TD(λ).
//!
//! The paper (§4.3.4) keeps only a list of the `M` most recent
//! state-action pairs: the eligibility of everything older is at most
//! `λ^M`, which is negligible for a large enough `M`. This module
//! implements exactly that bounded-list scheme.

use serde::{Deserialize, Serialize};

/// How a revisited state-action pair's eligibility is updated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// `e ← e + 1` (the paper's Algorithm 1, line 6).
    Accumulating,
    /// `e ← 1` (often more stable on cyclic state visits).
    Replacing,
}

/// A bounded list of eligibility traces over state-action pairs.
///
/// # Examples
///
/// ```
/// use hev_rl::{EligibilityTraces, TraceKind};
///
/// let mut traces = EligibilityTraces::new(8, TraceKind::Accumulating);
/// traces.visit(3, 1);
/// traces.decay(0.9);
/// let entries: Vec<_> = traces.iter().collect();
/// assert_eq!(entries, [(3, 1, 0.9)]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EligibilityTraces {
    /// Most recent pairs last.
    entries: Vec<(usize, usize, f64)>,
    max_len: usize,
    kind: TraceKind,
}

/// Traces below this value are dropped.
const TRACE_FLOOR: f64 = 1e-6;

impl EligibilityTraces {
    /// Creates an empty trace list keeping at most `max_len` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `max_len == 0`.
    pub fn new(max_len: usize, kind: TraceKind) -> Self {
        assert!(max_len > 0, "max_len must be positive");
        Self {
            entries: Vec::with_capacity(max_len),
            max_len,
            kind,
        }
    }

    /// The trace-update rule.
    pub fn kind(&self) -> TraceKind {
        self.kind
    }

    /// Number of currently traced pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no pairs are traced.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Marks `(s, a)` as just visited (Algorithm 1, line 6). If the list
    /// is full, the oldest pair is evicted.
    pub fn visit(&mut self, s: usize, a: usize) {
        if let Some(pos) = self
            .entries
            .iter()
            .position(|&(es, ea, _)| es == s && ea == a)
        {
            let (_, _, e) = self.entries.remove(pos);
            let e_new = match self.kind {
                TraceKind::Accumulating => e + 1.0,
                TraceKind::Replacing => 1.0,
            };
            self.entries.push((s, a, e_new));
        } else {
            if self.entries.len() == self.max_len {
                self.entries.remove(0);
            }
            self.entries.push((s, a, 1.0));
        }
    }

    /// Multiplies every trace by `factor` (= `γ·λ`, Algorithm 1 line 9)
    /// and drops traces that become negligible.
    pub fn decay(&mut self, factor: f64) {
        for entry in &mut self.entries {
            entry.2 *= factor;
        }
        self.entries.retain(|&(_, _, e)| e >= TRACE_FLOOR);
    }

    /// Clears all traces (between episodes, or on Watkins cuts after an
    /// exploratory action).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Iterates over `(state, action, eligibility)`, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.entries.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visit_sets_unit_trace() {
        let mut t = EligibilityTraces::new(4, TraceKind::Accumulating);
        t.visit(1, 2);
        assert_eq!(t.iter().collect::<Vec<_>>(), [(1, 2, 1.0)]);
    }

    #[test]
    fn accumulating_revisit_increments() {
        let mut t = EligibilityTraces::new(4, TraceKind::Accumulating);
        t.visit(1, 2);
        t.decay(0.5);
        t.visit(1, 2);
        assert_eq!(t.iter().collect::<Vec<_>>(), [(1, 2, 1.5)]);
    }

    #[test]
    fn replacing_revisit_resets() {
        let mut t = EligibilityTraces::new(4, TraceKind::Replacing);
        t.visit(1, 2);
        t.decay(0.5);
        t.visit(1, 2);
        assert_eq!(t.iter().collect::<Vec<_>>(), [(1, 2, 1.0)]);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut t = EligibilityTraces::new(2, TraceKind::Accumulating);
        t.visit(0, 0);
        t.visit(1, 0);
        t.visit(2, 0);
        let states: Vec<_> = t.iter().map(|(s, _, _)| s).collect();
        assert_eq!(states, [1, 2]);
    }

    #[test]
    fn decay_drops_negligible() {
        let mut t = EligibilityTraces::new(4, TraceKind::Accumulating);
        t.visit(0, 0);
        for _ in 0..100 {
            t.decay(0.5);
        }
        assert!(t.is_empty());
    }

    #[test]
    fn decay_is_multiplicative() {
        let mut t = EligibilityTraces::new(4, TraceKind::Accumulating);
        t.visit(0, 0);
        t.decay(0.9);
        t.decay(0.9);
        let e = t.iter().next().unwrap().2;
        assert!((e - 0.81).abs() < 1e-12);
    }

    #[test]
    fn clear_empties() {
        let mut t = EligibilityTraces::new(4, TraceKind::Accumulating);
        t.visit(0, 0);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn revisit_moves_to_back() {
        let mut t = EligibilityTraces::new(3, TraceKind::Replacing);
        t.visit(0, 0);
        t.visit(1, 0);
        t.visit(0, 0); // refresh
        t.visit(2, 0);
        t.visit(3, 0); // evicts (1,0), the oldest
        let states: Vec<_> = t.iter().map(|(s, _, _)| s).collect();
        assert_eq!(states, [0, 2, 3]);
    }
}
