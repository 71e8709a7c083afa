//! Dense tabular action-value storage.

use serde::{Deserialize, Serialize};

/// A dense `Q(s, a)` table with visit counting.
///
/// # Examples
///
/// ```
/// use hev_rl::QTable;
///
/// let mut q = QTable::new(10, 4, 0.0);
/// q.set(3, 2, 1.5);
/// assert_eq!(q.get(3, 2), 1.5);
/// assert_eq!(q.argmax(3, |_| true), Some(2));
/// assert_eq!(q.argmax(3, |a| a != 2), Some(0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QTable {
    n_states: usize,
    n_actions: usize,
    q: Vec<f64>,
    visits: Vec<u32>,
}

impl QTable {
    /// Creates a table with every entry initialized to `init`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(n_states: usize, n_actions: usize, init: f64) -> Self {
        assert!(
            n_states > 0 && n_actions > 0,
            "table dimensions must be positive"
        );
        Self {
            n_states,
            n_actions,
            q: vec![init; n_states * n_actions],
            visits: vec![0; n_states * n_actions],
        }
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Number of actions.
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    #[inline]
    fn idx(&self, s: usize, a: usize) -> usize {
        debug_assert!(s < self.n_states && a < self.n_actions);
        s * self.n_actions + a
    }

    /// The value `Q(s, a)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the indices are out of range.
    #[inline]
    pub fn get(&self, s: usize, a: usize) -> f64 {
        self.q[self.idx(s, a)]
    }

    /// Sets `Q(s, a)`.
    #[inline]
    pub fn set(&mut self, s: usize, a: usize, value: f64) {
        let i = self.idx(s, a);
        self.q[i] = value;
    }

    /// Adds `delta` to `Q(s, a)`.
    #[inline]
    pub fn add(&mut self, s: usize, a: usize, delta: f64) {
        let i = self.idx(s, a);
        self.q[i] += delta;
    }

    /// The action-value row of state `s`.
    pub fn row(&self, s: usize) -> &[f64] {
        &self.q[s * self.n_actions..(s + 1) * self.n_actions]
    }

    /// The greedy action in state `s` among the actions `eligible`
    /// accepts: the lowest-indexed of the highest-valued accepted actions,
    /// or `None` when it accepts none. NaN entries are never chosen.
    ///
    /// Walks the actions in descending value order, ties by ascending
    /// index, and asks `eligible` about each until one is accepted, so it
    /// asks about no action ranked below the winner. When an answer costs
    /// work (a feasibility probe), that is the fewest questions any argmax
    /// can ask. One pass over the row finds the top action; each value
    /// level walked past it costs one more.
    pub fn argmax(&self, s: usize, eligible: impl FnMut(usize) -> bool) -> Option<usize> {
        argmax_where(self.row(s), eligible)
    }

    /// Records a visit to `(s, a)`, saturating at `u32::MAX`.
    pub fn visit(&mut self, s: usize, a: usize) {
        let i = self.idx(s, a);
        self.visits[i] = self.visits[i].saturating_add(1);
    }

    /// How many times `(s, a)` was visited.
    pub(crate) fn visit_count(&self, s: usize, a: usize) -> u32 {
        self.visits[self.idx(s, a)]
    }

    /// Number of state-action pairs visited at least once.
    pub fn coverage(&self) -> usize {
        self.visits.iter().filter(|&&v| v > 0).count()
    }

    /// Total visit count summed over every state-action pair.
    pub fn visits_total(&self) -> u64 {
        self.visits.iter().map(|&v| u64::from(v)).sum()
    }
}

/// [`QTable::argmax`] over one action-value row.
pub(crate) fn argmax_where(row: &[f64], mut eligible: impl FnMut(usize) -> bool) -> Option<usize> {
    let mut top: Option<(usize, f64)> = None;
    for (a, &v) in row.iter().enumerate() {
        if !v.is_nan() && top.is_none_or(|(_, t)| v > t) {
            top = Some((a, v));
        }
    }
    let (first, mut level) = top?;
    if eligible(first) {
        return Some(first);
    }
    // Walk on: the ties at `level` from index `from` on, then the next
    // level down, which each pass finds on the way.
    let mut from = first + 1;
    loop {
        let mut below: Option<f64> = None;
        for (a, &v) in row.iter().enumerate() {
            if v == level {
                if a >= from && eligible(a) {
                    return Some(a);
                }
            } else if v < level && below.is_none_or(|b| v > b) {
                below = Some(v);
            }
        }
        level = below?;
        from = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_initializes_all_entries() {
        let q = QTable::new(3, 2, -1.5);
        for s in 0..3 {
            for a in 0..2 {
                assert_eq!(q.get(s, a), -1.5);
            }
        }
    }

    #[test]
    fn set_add_get_roundtrip() {
        let mut q = QTable::new(4, 3, 0.0);
        q.set(2, 1, 5.0);
        q.add(2, 1, -2.0);
        assert_eq!(q.get(2, 1), 3.0);
        assert_eq!(q.get(2, 0), 0.0);
    }

    #[test]
    fn argmax_without_mask() {
        let mut q = QTable::new(1, 4, 0.0);
        q.set(0, 2, 3.0);
        q.set(0, 3, 1.0);
        assert_eq!(q.argmax(0, |_| true), Some(2));
    }

    #[test]
    fn argmax_respects_mask() {
        let mut q = QTable::new(1, 4, 0.0);
        q.set(0, 2, 3.0);
        q.set(0, 1, 2.0);
        let mask = [true, true, false, true];
        assert_eq!(q.argmax(0, |a| mask[a]), Some(1));
    }

    #[test]
    fn argmax_ties_break_low() {
        let q = QTable::new(1, 4, 7.0);
        assert_eq!(q.argmax(0, |_| true), Some(0));
        assert_eq!(q.argmax(0, |a| a > 1), Some(2));
    }

    #[test]
    fn argmax_of_an_empty_mask_is_none() {
        let q = QTable::new(1, 2, 0.0);
        assert_eq!(q.argmax(0, |_| false), None);
    }

    #[test]
    fn argmax_asks_only_down_to_the_winner_in_value_order() {
        let row = [1.0, 4.0, 3.0, 4.0, f64::NAN, 2.0];
        let mut asked = Vec::new();
        let pick = argmax_where(&row, |a| {
            asked.push(a);
            a == 2 || a == 5
        });
        assert_eq!(pick, Some(2));
        assert_eq!(asked, [1, 3, 2]);
        assert_eq!(argmax_where(&[f64::NAN], |_| true), None);
        assert_eq!(argmax_where(&[-0.0, 0.0], |_| true), Some(0));
    }

    #[test]
    fn visits_and_coverage() {
        let mut q = QTable::new(2, 2, 0.0);
        assert_eq!(q.coverage(), 0);
        q.visit(0, 1);
        q.visit(0, 1);
        q.visit(1, 0);
        assert_eq!(q.visit_count(0, 1), 2);
        assert_eq!(q.coverage(), 2);
    }

    #[test]
    fn row_slices_correctly() {
        let mut q = QTable::new(2, 3, 0.0);
        q.set(1, 0, 9.0);
        assert_eq!(q.row(1), &[9.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_rejected() {
        QTable::new(0, 3, 0.0);
    }
}
