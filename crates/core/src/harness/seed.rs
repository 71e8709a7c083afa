//! Seed-splitting: independent child RNG streams from one master seed.
//!
//! Training fans out over runs (and perturbed replicas); every one of
//! those needs its own RNG stream, and the streams must be the same
//! whether the runs execute serially or across N threads. Deriving the
//! k-th child as `master + k` would make adjacent master seeds share
//! children (master 2015 / run 1 collides with master 2016 / run 0), so
//! children are instead derived by scrambling `(master, index)` through
//! SplitMix64 — the same finalizer xoshiro-family generators use for
//! seed expansion. Pure integer arithmetic: identical on every
//! platform, thread count, and optimization level.

/// One SplitMix64 scramble round.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the `child_index`-th child seed of `master_seed`.
///
/// Deterministic and platform-independent. Distinct `(master, index)`
/// pairs map to distinct children except for astronomically unlikely
/// 64-bit collisions; in particular `split_seed(m, k)` never equals
/// `split_seed(m + 1, k - 1)` the way naive `m + k` derivation does.
pub fn split_seed(master_seed: u64, child_index: u64) -> u64 {
    // Two rounds: the first decorrelates the index, the second mixes it
    // into the master. One round would leave low-entropy structure for
    // small indices.
    splitmix64(master_seed ^ splitmix64(child_index).rotate_left(17))
}

/// A master seed viewed as an indexable family of child seeds.
///
/// Thin convenience wrapper over [`split_seed`] for call sites that
/// hand one child per run to the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    master: u64,
}

impl SeedSequence {
    /// Wraps a master seed.
    pub fn new(master_seed: u64) -> Self {
        Self {
            master: master_seed,
        }
    }

    /// The `k`-th child seed.
    pub fn child(&self, k: u64) -> u64 {
        split_seed(self.master, k)
    }

    /// The first `n` child seeds, in order.
    pub fn children(&self, n: usize) -> Vec<u64> {
        (0..n as u64).map(|k| self.child(k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic() {
        assert_eq!(split_seed(2015, 0), split_seed(2015, 0));
        assert_eq!(
            SeedSequence::new(7).children(4),
            SeedSequence::new(7).children(4)
        );
    }

    #[test]
    fn no_adjacent_master_collisions() {
        // The failure mode of `master + k` derivation.
        for m in 0..100u64 {
            for k in 1..10u64 {
                assert_ne!(split_seed(m, k), split_seed(m + 1, k - 1));
            }
        }
    }

    #[test]
    fn children_are_distinct() {
        let mut seen = HashSet::new();
        for m in [0u64, 1, 2015, u64::MAX] {
            for k in 0..1000 {
                assert!(seen.insert(split_seed(m, k)), "collision at ({m}, {k})");
            }
        }
    }

    #[test]
    fn children_differ_from_master() {
        for m in [0u64, 42, 2015] {
            assert_ne!(split_seed(m, 0), m);
        }
    }
}
