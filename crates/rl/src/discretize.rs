//! Discretization of continuous observations into finite state indices.
//!
//! The paper's state space (Eq. 13–14) is built by discretizing the
//! propulsion power demand, vehicle speed, battery charge, and prediction
//! into finite level sets. [`UniformGrid`] maps a continuous value to a
//! level index; [`ProductSpace`] flattens a tuple of level indices into a
//! single table index.

use serde::{Deserialize, Serialize};

/// Uniformly spaced bins over `[min, max]`, clamping out-of-range values
/// to the boundary bins.
///
/// # Examples
///
/// ```
/// use hev_rl::UniformGrid;
///
/// let grid = UniformGrid::new(0.0, 10.0, 5);
/// assert_eq!(grid.index(-3.0), 0);   // clamped
/// assert_eq!(grid.index(9.99), 4);
/// assert_eq!(grid.len(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UniformGrid {
    min: f64,
    max: f64,
    n: usize,
}

impl UniformGrid {
    /// Creates a grid of `n` bins over `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `min >= max`, or the bounds are not finite.
    pub fn new(min: f64, max: f64, n: usize) -> Self {
        assert!(n > 0, "need at least one bin");
        assert!(
            min.is_finite() && max.is_finite() && min < max,
            "need finite min < max"
        );
        Self { min, max, n }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the grid has no bins (never true for a constructed grid).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Lower bound.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Upper bound.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Bin index of `x`, clamped to `[0, len-1]`. NaN maps to bin 0.
    // The negated comparison is deliberate: it routes NaN to bin 0.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn index(&self, x: f64) -> usize {
        if !(x > self.min) {
            return 0;
        }
        if x >= self.max {
            return self.n - 1;
        }
        let f = (x - self.min) / (self.max - self.min);
        ((f * self.n as f64) as usize).min(self.n - 1)
    }

    /// Center value of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn center(&self, i: usize) -> f64 {
        assert!(i < self.n, "bin {i} out of range");
        let w = (self.max - self.min) / self.n as f64;
        self.min + (i as f64 + 0.5) * w
    }
}

/// Flattens a tuple of per-dimension level indices into a single index
/// (row-major: the **last** dimension varies fastest).
///
/// # Examples
///
/// ```
/// use hev_rl::ProductSpace;
///
/// let space = ProductSpace::new(vec![3, 4, 5]);
/// assert_eq!(space.len(), 60);
/// let flat = space.flatten(&[2, 1, 3]);
/// assert_eq!(space.unflatten(flat), vec![2, 1, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProductSpace {
    dims: Vec<usize>,
}

impl ProductSpace {
    /// Creates a product space from per-dimension sizes.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the space is empty.
    pub fn new(dims: Vec<usize>) -> Self {
        assert!(!dims.is_empty(), "need at least one dimension");
        assert!(dims.iter().all(|&d| d > 0), "dimensions must be positive");
        Self { dims }
    }

    /// Per-dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of points.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the space is empty (never true for a constructed space).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Flattens per-dimension indices into a single index.
    ///
    /// # Panics
    ///
    /// Panics if the index count or any index is out of range.
    pub fn flatten(&self, indices: &[usize]) -> usize {
        assert_eq!(indices.len(), self.dims.len(), "dimension count mismatch");
        let mut flat = 0;
        for (i, (&idx, &dim)) in indices.iter().zip(&self.dims).enumerate() {
            assert!(
                idx < dim,
                "index {idx} out of range for dimension {i} (size {dim})"
            );
            flat = flat * dim + idx;
        }
        flat
    }

    /// Recovers per-dimension indices from a flat index.
    ///
    /// # Panics
    ///
    /// Panics if `flat` is out of range.
    pub fn unflatten(&self, flat: usize) -> Vec<usize> {
        assert!(flat < self.len(), "flat index out of range");
        let mut rem = flat;
        let mut out = vec![0; self.dims.len()];
        for (i, &dim) in self.dims.iter().enumerate().rev() {
            out[i] = rem % dim;
            rem /= dim;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_grid_covers_range() {
        let g = UniformGrid::new(-10.0, 10.0, 4);
        assert_eq!(g.index(-10.0), 0);
        assert_eq!(g.index(-5.1), 0);
        assert_eq!(g.index(-4.9), 1);
        assert_eq!(g.index(0.1), 2);
        assert_eq!(g.index(9.9), 3);
        assert_eq!(g.index(10.0), 3);
    }

    #[test]
    fn uniform_grid_clamps() {
        let g = UniformGrid::new(0.0, 1.0, 10);
        assert_eq!(g.index(-100.0), 0);
        assert_eq!(g.index(100.0), 9);
        assert_eq!(g.index(f64::NAN), 0);
    }

    #[test]
    fn uniform_centers_are_bin_midpoints() {
        let g = UniformGrid::new(0.0, 10.0, 5);
        assert!((g.center(0) - 1.0).abs() < 1e-12);
        assert!((g.center(4) - 9.0).abs() < 1e-12);
        // center of bin i maps back to bin i
        for i in 0..5 {
            assert_eq!(g.index(g.center(i)), i);
        }
    }

    #[test]
    #[should_panic(expected = "need finite min < max")]
    fn uniform_rejects_inverted_bounds() {
        UniformGrid::new(5.0, 1.0, 3);
    }

    #[test]
    fn product_space_roundtrip() {
        let s = ProductSpace::new(vec![2, 3, 4, 5]);
        assert_eq!(s.len(), 120);
        for flat in 0..s.len() {
            assert_eq!(s.flatten(&s.unflatten(flat)), flat);
        }
    }

    #[test]
    fn product_space_is_row_major() {
        let s = ProductSpace::new(vec![3, 4]);
        assert_eq!(s.flatten(&[0, 0]), 0);
        assert_eq!(s.flatten(&[0, 1]), 1);
        assert_eq!(s.flatten(&[1, 0]), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn product_space_validates_indices() {
        ProductSpace::new(vec![3, 4]).flatten(&[3, 0]);
    }
}
