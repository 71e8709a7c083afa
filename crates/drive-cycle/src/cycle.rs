//! The [`DriveCycle`] type: a uniformly sampled vehicle speed trace.

use crate::error::CycleError;
use serde::{Deserialize, Serialize};

/// Conversion factor from km/h to m/s.
pub const KMH_TO_MPS: f64 = 1.0 / 3.6;
/// Conversion factor from m/s to km/h.
pub const MPS_TO_KMH: f64 = 3.6;

/// A driving cycle: a uniformly sampled speed trace with an optional road
/// grade trace.
///
/// Speeds are stored in m/s at a fixed sample interval `dt` (seconds).
/// A cycle is the *demand* side of a backward-looking vehicle simulation:
/// the driver is assumed to track this trace exactly.
///
/// # Examples
///
/// ```
/// use drive_cycle::DriveCycle;
///
/// let cycle = DriveCycle::from_speeds_mps("demo", 1.0, vec![0.0, 2.0, 4.0, 2.0, 0.0])?;
/// assert_eq!(cycle.len(), 5);
/// assert!(cycle.distance_m() > 0.0);
/// # Ok::<(), drive_cycle::CycleError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriveCycle {
    name: String,
    dt: f64,
    speed_mps: Vec<f64>,
    /// Road grade as a dimensionless slope (tan of the slope angle); empty
    /// means flat road.
    grade: Vec<f64>,
}

/// One sample of a driving cycle, with the finite-difference acceleration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CyclePoint {
    /// Time since cycle start, in seconds.
    pub time_s: f64,
    /// Vehicle speed, in m/s.
    pub speed_mps: f64,
    /// Vehicle acceleration, in m/s² (forward difference; zero at the last
    /// sample).
    pub accel_mps2: f64,
    /// Road grade (dimensionless slope).
    pub grade: f64,
}

impl DriveCycle {
    /// Creates a cycle from a speed trace in m/s on a flat road.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError::Empty`] for an empty trace,
    /// [`CycleError::InvalidTimeStep`] for a non-positive or non-finite
    /// `dt`, and [`CycleError::InvalidSpeed`] for negative or non-finite
    /// samples.
    pub fn from_speeds_mps(
        name: impl Into<String>,
        dt: f64,
        speed_mps: Vec<f64>,
    ) -> Result<Self, CycleError> {
        Self::with_grade(name, dt, speed_mps, Vec::new())
    }

    /// Creates a cycle with an explicit road-grade trace.
    ///
    /// An empty `grade` vector means a flat road; otherwise it must have
    /// the same length as the speed trace.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DriveCycle::from_speeds_mps`], plus
    /// [`CycleError::GradeLengthMismatch`] and
    /// [`CycleError::InvalidGrade`].
    pub fn with_grade(
        name: impl Into<String>,
        dt: f64,
        speed_mps: Vec<f64>,
        grade: Vec<f64>,
    ) -> Result<Self, CycleError> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(CycleError::InvalidTimeStep(dt));
        }
        if speed_mps.is_empty() {
            return Err(CycleError::Empty);
        }
        for (index, &value) in speed_mps.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Err(CycleError::InvalidSpeed { index, value });
            }
        }
        if !grade.is_empty() && grade.len() != speed_mps.len() {
            return Err(CycleError::GradeLengthMismatch {
                speeds: speed_mps.len(),
                grades: grade.len(),
            });
        }
        for (index, &value) in grade.iter().enumerate() {
            if !value.is_finite() {
                return Err(CycleError::InvalidGrade { index, value });
            }
        }
        Ok(Self {
            name: name.into(),
            dt,
            speed_mps,
            grade,
        })
    }

    /// The cycle name (e.g. `"UDDS"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sample interval in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.speed_mps.len()
    }

    /// Whether the cycle has no samples. Never true for a constructed
    /// cycle (construction rejects empty traces), but present for
    /// completeness.
    pub fn is_empty(&self) -> bool {
        self.speed_mps.is_empty()
    }

    /// Total duration in seconds (`len * dt`).
    pub fn duration_s(&self) -> f64 {
        self.len() as f64 * self.dt
    }

    /// The speed trace, in m/s.
    pub fn speeds_mps(&self) -> &[f64] {
        &self.speed_mps
    }

    /// Speed at sample `i`, in m/s.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn speed_at(&self, i: usize) -> f64 {
        self.speed_mps[i]
    }

    /// Road grade at sample `i` (zero on flat cycles).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds on a cycle with an explicit grade
    /// trace.
    pub fn grade_at(&self, i: usize) -> f64 {
        if self.grade.is_empty() {
            0.0
        } else {
            self.grade[i]
        }
    }

    /// Forward-difference acceleration at sample `i`, in m/s²; zero at the
    /// last sample.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn accel_at(&self, i: usize) -> f64 {
        if i + 1 < self.speed_mps.len() {
            (self.speed_mps[i + 1] - self.speed_mps[i]) / self.dt
        } else {
            0.0
        }
    }

    /// Total distance travelled, in meters (trapezoidal integral of speed).
    pub fn distance_m(&self) -> f64 {
        let mut d = 0.0;
        for i in 1..self.speed_mps.len() {
            d += 0.5 * (self.speed_mps[i] + self.speed_mps[i - 1]) * self.dt;
        }
        d
    }

    /// Iterates over [`CyclePoint`] samples.
    pub fn points(&self) -> impl ExactSizeIterator<Item = CyclePoint> + '_ {
        (0..self.len()).map(move |i| CyclePoint {
            time_s: i as f64 * self.dt,
            speed_mps: self.speed_at(i),
            accel_mps2: self.accel_at(i),
            grade: self.grade_at(i),
        })
    }

    /// Returns a sub-cycle covering samples `start..end`.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError::InvalidRange`] if the range is inverted, empty
    /// or out of bounds.
    pub fn slice(&self, start: usize, end: usize) -> Result<Self, CycleError> {
        if start >= end || end > self.speed_mps.len() {
            return Err(CycleError::InvalidRange {
                start,
                end,
                len: self.speed_mps.len(),
            });
        }
        let grade = if self.grade.is_empty() {
            Vec::new()
        } else {
            self.grade[start..end].to_vec()
        };
        Self::with_grade(
            format!("{}[{start}..{end}]", self.name),
            self.dt,
            self.speed_mps[start..end].to_vec(),
            grade,
        )
    }

    /// Concatenates another cycle after this one, returning a new cycle.
    ///
    /// The other cycle is resampled to this cycle's `dt` if needed.
    pub fn concat(&self, other: &DriveCycle) -> Self {
        let other = if (other.dt - self.dt).abs() > 1e-12 {
            other.resample(self.dt)
        } else {
            other.clone()
        };
        let mut speeds = self.speed_mps.clone();
        speeds.extend_from_slice(&other.speed_mps);
        let grade = if self.grade.is_empty() && other.grade.is_empty() {
            Vec::new()
        } else {
            let mut g: Vec<f64> = if self.grade.is_empty() {
                vec![0.0; self.speed_mps.len()]
            } else {
                self.grade.clone()
            };
            if other.grade.is_empty() {
                g.extend(std::iter::repeat_n(0.0, other.speed_mps.len()));
            } else {
                g.extend_from_slice(&other.grade);
            }
            g
        };
        Self {
            name: format!("{}+{}", self.name, other.name),
            dt: self.dt,
            speed_mps: speeds,
            grade,
        }
    }

    /// Returns a copy resampled to a new sample interval via linear
    /// interpolation.
    ///
    /// # Panics
    ///
    /// Panics if `new_dt` is not finite and positive.
    pub fn resample(&self, new_dt: f64) -> Self {
        assert!(
            new_dt.is_finite() && new_dt > 0.0,
            "resample dt must be positive"
        );
        let t_end = (self.speed_mps.len() - 1) as f64 * self.dt;
        // hevlint::allow(float::lossy-cast, resample count: t_end and new_dt are validated positive and finite, so the floor is a small non-negative integer)
        let n = (t_end / new_dt).floor() as usize + 1;
        let lerp = |trace: &[f64], t: f64| -> f64 {
            let x = t / self.dt;
            // hevlint::allow(float::lossy-cast, interpolation index: x is non-negative by construction and bounded by .min(len-1))
            let i = (x.floor() as usize).min(trace.len() - 1);
            let j = (i + 1).min(trace.len() - 1);
            let f = x - i as f64;
            trace[i] * (1.0 - f) + trace[j] * f
        };
        let speeds: Vec<f64> = (0..n)
            .map(|i| lerp(&self.speed_mps, i as f64 * new_dt))
            .collect();
        let grade: Vec<f64> = if self.grade.is_empty() {
            Vec::new()
        } else {
            (0..n)
                .map(|i| lerp(&self.grade, i as f64 * new_dt))
                .collect()
        };
        Self {
            name: self.name.clone(),
            dt: new_dt,
            speed_mps: speeds,
            grade,
        }
    }

    /// Returns a copy with a synthetic rolling-hills grade profile: a
    /// sum of two sinusoids in *distance* (so hills have physical length
    /// regardless of speed), with the given peak grade.
    ///
    /// # Panics
    ///
    /// Panics if `peak_grade` is negative or not finite, or
    /// `hill_length_m` is not positive.
    pub fn with_rolling_grade(&self, peak_grade: f64, hill_length_m: f64) -> Self {
        assert!(
            peak_grade.is_finite() && peak_grade >= 0.0,
            "peak grade must be >= 0"
        );
        assert!(hill_length_m > 0.0, "hill length must be positive");
        let mut distance = 0.0;
        let mut grade = Vec::with_capacity(self.speed_mps.len());
        for (i, &v) in self.speed_mps.iter().enumerate() {
            if i > 0 {
                distance += 0.5 * (v + self.speed_mps[i - 1]) * self.dt;
            }
            let x = distance / hill_length_m * std::f64::consts::TAU;
            grade.push(peak_grade * (0.7 * x.sin() + 0.3 * (2.3 * x).sin()));
        }
        Self {
            name: format!("{}+hills", self.name),
            dt: self.dt,
            speed_mps: self.speed_mps.clone(),
            grade,
        }
    }

    /// Returns a perturbed copy: speeds are modulated by a smooth,
    /// zero-mean multiplicative noise of relative amplitude
    /// `amplitude` (e.g. 0.05 for ±5 %), deterministic in `seed`.
    ///
    /// Real drivers never reproduce a cycle exactly; controllers trained
    /// on perturbed replicas of a cycle see the non-stationarity the
    /// underlying paper motivates its prediction state with.
    ///
    /// # Panics
    ///
    /// Panics if `amplitude` is negative or not finite.
    pub fn perturbed(&self, seed: u64, amplitude: f64) -> Self {
        assert!(
            amplitude.is_finite() && amplitude >= 0.0,
            "amplitude must be non-negative"
        );
        // Smooth noise: an Ornstein-Uhlenbeck-like random walk from a
        // deterministic xorshift stream, low-pass filtered.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut walk = 0.0f64;
        let speeds = self
            .speed_mps
            .iter()
            .map(|&v| {
                walk = 0.9 * walk + 0.3 * next();
                let factor = (1.0 + amplitude * walk.clamp(-1.0, 1.0)).max(0.0);
                // Idle samples stay idle: stops are part of the route.
                if v <= 0.1 {
                    v
                } else {
                    v * factor
                }
            })
            .collect();
        Self {
            name: format!("{}~{seed}", self.name),
            dt: self.dt,
            speed_mps: speeds,
            grade: self.grade.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> DriveCycle {
        DriveCycle::from_speeds_mps("ramp", 1.0, vec![0.0, 1.0, 2.0, 3.0, 4.0]).unwrap()
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            DriveCycle::from_speeds_mps("x", 1.0, vec![]).unwrap_err(),
            CycleError::Empty
        );
    }

    #[test]
    fn rejects_negative_speed() {
        let err = DriveCycle::from_speeds_mps("x", 1.0, vec![1.0, -0.5]).unwrap_err();
        assert_eq!(
            err,
            CycleError::InvalidSpeed {
                index: 1,
                value: -0.5
            }
        );
    }

    #[test]
    fn rejects_nan_speed() {
        let err = DriveCycle::from_speeds_mps("x", 1.0, vec![f64::NAN]).unwrap_err();
        assert!(matches!(err, CycleError::InvalidSpeed { index: 0, .. }));
    }

    #[test]
    fn rejects_bad_dt() {
        for dt in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                DriveCycle::from_speeds_mps("x", dt, vec![1.0]).unwrap_err(),
                CycleError::InvalidTimeStep(_)
            ));
        }
    }

    #[test]
    fn rejects_grade_length_mismatch() {
        let err = DriveCycle::with_grade("x", 1.0, vec![1.0, 2.0], vec![0.0]).unwrap_err();
        assert_eq!(
            err,
            CycleError::GradeLengthMismatch {
                speeds: 2,
                grades: 1
            }
        );
    }

    #[test]
    fn distance_of_constant_speed() {
        let c = DriveCycle::from_speeds_mps("c", 1.0, vec![10.0; 11]).unwrap();
        assert!((c.distance_m() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn accel_forward_difference() {
        let c = ramp();
        assert!((c.accel_at(0) - 1.0).abs() < 1e-12);
        assert_eq!(c.accel_at(4), 0.0);
    }

    #[test]
    fn duration_matches_len() {
        let c = ramp();
        assert!((c.duration_s() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn slice_and_concat_preserve_samples() {
        let c = ramp();
        let a = c.slice(0, 2).unwrap();
        let b = c.slice(2, 5).unwrap();
        let joined = a.concat(&b);
        assert_eq!(joined.speeds_mps(), c.speeds_mps());
    }

    #[test]
    fn slice_rejects_bad_ranges() {
        let c = ramp();
        assert!(c.slice(3, 3).is_err());
        assert!(c.slice(4, 2).is_err());
        assert!(c.slice(0, 6).is_err());
    }

    #[test]
    fn resample_halves_and_doubles() {
        let c = ramp();
        let fine = c.resample(0.5);
        assert_eq!(fine.len(), 9);
        assert!((fine.speed_at(1) - 0.5).abs() < 1e-12);
        let coarse = c.resample(2.0);
        assert_eq!(coarse.len(), 3);
        assert!((coarse.speed_at(1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn points_iterator_is_exact_size() {
        let c = ramp();
        let pts: Vec<_> = c.points().collect();
        assert_eq!(pts.len(), 5);
        assert!((pts[2].time_s - 2.0).abs() < 1e-12);
        assert!((pts[2].speed_mps - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rolling_grade_bounded_and_zero_mean_ish() {
        let c = DriveCycle::from_speeds_mps("flat", 1.0, vec![15.0; 600]).unwrap();
        let hilly = c.with_rolling_grade(0.04, 800.0);
        let grades: Vec<f64> = (0..hilly.len()).map(|i| hilly.grade_at(i)).collect();
        assert!(grades.iter().all(|g| g.abs() <= 0.04 + 1e-12));
        let mean: f64 = grades.iter().sum::<f64>() / grades.len() as f64;
        assert!(mean.abs() < 0.01, "mean grade {mean}");
        assert!(grades.iter().any(|&g| g > 0.01));
        assert!(grades.iter().any(|&g| g < -0.01));
    }

    #[test]
    fn rolling_grade_keeps_speeds() {
        let c = ramp();
        let hilly = c.with_rolling_grade(0.05, 500.0);
        assert_eq!(hilly.speeds_mps(), c.speeds_mps());
        assert_eq!(hilly.name(), "ramp+hills");
    }

    #[test]
    fn perturbed_is_seed_deterministic() {
        let c = ramp();
        assert_eq!(c.perturbed(5, 0.05), c.perturbed(5, 0.05));
        assert_ne!(c.perturbed(5, 0.05), c.perturbed(6, 0.05));
    }

    #[test]
    fn perturbed_zero_amplitude_is_identity_in_speeds() {
        let c = ramp();
        assert_eq!(c.perturbed(1, 0.0).speeds_mps(), c.speeds_mps());
    }

    #[test]
    fn perturbed_stays_close_and_nonnegative() {
        let c = DriveCycle::from_speeds_mps("base", 1.0, vec![10.0; 200]).unwrap();
        let p = c.perturbed(9, 0.05);
        for (&a, &b) in c.speeds_mps().iter().zip(p.speeds_mps()) {
            assert!(b >= 0.0);
            assert!((b - a).abs() <= a * 0.05 + 1e-9);
        }
        // And it actually changes something.
        assert_ne!(c.speeds_mps(), p.speeds_mps());
    }

    #[test]
    fn perturbed_preserves_idle() {
        let c = DriveCycle::from_speeds_mps("idle", 1.0, vec![0.0, 0.0, 10.0, 0.0]).unwrap();
        let p = c.perturbed(3, 0.1);
        assert_eq!(p.speed_at(0), 0.0);
        assert_eq!(p.speed_at(3), 0.0);
    }

    #[test]
    fn grade_defaults_to_zero() {
        let c = ramp();
        assert_eq!(c.grade_at(3), 0.0);
    }

    #[test]
    fn with_grade_roundtrips() {
        let c = DriveCycle::with_grade("g", 1.0, vec![1.0, 2.0], vec![0.01, -0.02]).unwrap();
        assert!((c.grade_at(1) + 0.02).abs() < 1e-12);
    }
}
