//! Order statistics for timing samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `n` sorted samples is the sample at 1-based rank `ceil(p / 100 * n)`.
//! A tail percentile is only as good as the samples beyond it, so
//! [`percentile`] refuses any percentile with fewer than
//! [`MIN_BEYOND`] samples above its rank, and every result carries the
//! sample count it came from.

/// Samples that must lie strictly beyond a percentile's rank before the
/// percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile and the number of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's nearest rank.
    pub value: f64,
    /// How many samples the percentile was taken from.
    pub samples: usize,
}

/// Why a percentile could not be reported.
#[derive(Debug, Clone, PartialEq)]
pub enum PercentileError {
    /// `p` was outside `(0, 100]` or not finite.
    BadRank(f64),
    /// Too few samples lie beyond the rank.
    TooFewBeyond {
        /// The requested percentile.
        p: f64,
        /// Samples available.
        samples: usize,
        /// Samples beyond the rank.
        beyond: usize,
    },
    /// A sample was NaN.
    NotANumber,
}

impl std::fmt::Display for PercentileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadRank(p) => write!(f, "percentile {p} is outside (0, 100]"),
            Self::TooFewBeyond { p, samples, beyond } => write!(
                f,
                "p{p} of {samples} samples has only {beyond} beyond it (need {MIN_BEYOND})"
            ),
            Self::NotANumber => write!(f, "a sample is NaN"),
        }
    }
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// The nearest-rank `p`-th percentile of `samples` (any order).
///
/// Refuses (`Err`) unless at least [`MIN_BEYOND`] samples lie beyond the
/// rank, so a p99 needs 1000 samples and a median 20.
pub fn percentile(samples: &[f64], p: f64) -> Result<Percentile, PercentileError> {
    if !(p.is_finite() && p > 0.0 && p <= 100.0) {
        return Err(PercentileError::BadRank(p));
    }
    if samples.iter().any(|x| x.is_nan()) {
        return Err(PercentileError::NotANumber);
    }
    let n = samples.len();
    let rank = nearest_rank(p, n);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(PercentileError::TooFewBeyond {
            p,
            samples: n,
            beyond,
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// One repetition's latency tail: its nearest-rank p50 and p99.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The p50, in the samples' unit.
    pub p50: f64,
    /// The p99, in the samples' unit.
    pub p99: f64,
    /// How many samples both were taken from.
    pub samples: usize,
}

/// The [`Tail`] of one repetition's samples; refused like [`percentile`].
pub fn tail(samples: &[f64]) -> Result<Tail, PercentileError> {
    Ok(Tail {
        p50: percentile(samples, 50.0)?.value,
        p99: percentile(samples, 99.0)?.value,
        samples: samples.len(),
    })
}

/// The arithmetic mean, or `None` for an empty slice.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The median of a small set of per-repetition figures: the middle value,
/// or the mean of the two middle values for an even count. Unlike
/// [`percentile`] it makes no tail claim, so it needs only one sample.
/// Returns `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the function has to sort.
        (1..=n).rev().map(|k| k as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let xs = ramp(100);
        assert_eq!(percentile(&xs, 50.0).unwrap().value, 50.0);
        assert_eq!(percentile(&xs, 50.5).unwrap().value, 51.0);
        assert_eq!(percentile(&xs, 90.0).unwrap().value, 90.0);
        assert_eq!(percentile(&xs, 1.0).unwrap().value, 1.0);
    }

    #[test]
    fn reports_its_sample_count() {
        let xs = ramp(37);
        assert_eq!(percentile(&xs, 50.0).unwrap().samples, 37);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990 leaves exactly ten beyond.
        let ok = percentile(&ramp(1000), 99.0).unwrap();
        assert_eq!(ok.value, 990.0);
        assert_eq!(ok.samples, 1000);
        // 999 samples: rank ceil(989.01) = 990 leaves nine.
        assert_eq!(
            percentile(&ramp(999), 99.0),
            Err(PercentileError::TooFewBeyond {
                p: 99.0,
                samples: 999,
                beyond: 9
            })
        );
    }

    #[test]
    fn median_percentile_needs_twenty_samples() {
        assert!(percentile(&ramp(20), 50.0).is_ok());
        assert!(matches!(
            percentile(&ramp(19), 50.0),
            Err(PercentileError::TooFewBeyond { beyond: 9, .. })
        ));
    }

    #[test]
    fn refuses_bad_ranks_and_empty_and_nan_input() {
        let xs = ramp(100);
        assert_eq!(percentile(&xs, 0.0), Err(PercentileError::BadRank(0.0)));
        assert!(matches!(
            percentile(&xs, 100.5),
            Err(PercentileError::BadRank(_))
        ));
        assert!(matches!(
            percentile(&xs, f64::NAN),
            Err(PercentileError::BadRank(_))
        ));
        assert!(matches!(
            percentile(&[], 50.0),
            Err(PercentileError::TooFewBeyond { samples: 0, .. })
        ));
        let mut bad = ramp(100);
        bad[3] = f64::NAN;
        assert_eq!(percentile(&bad, 50.0), Err(PercentileError::NotANumber));
    }

    #[test]
    fn p100_is_always_refused() {
        // Nothing lies beyond the maximum.
        assert!(percentile(&ramp(10_000), 100.0).is_err());
    }

    #[test]
    fn tail_takes_both_percentiles_or_refuses() {
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.p50, t.p99, t.samples), (500.0, 990.0, 1000));
        assert!(tail(&ramp(999)).is_err());
    }

    #[test]
    fn mean_of_values_and_empty() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }
}
