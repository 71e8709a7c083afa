//! Segment-based construction of speed profiles.
//!
//! Standard cycles in [`crate::standard`] and the stochastic generator in
//! [`crate::microtrip`] both assemble cycles from idle / ramp / cruise
//! segments using [`ProfileBuilder`].

use crate::cycle::{DriveCycle, KMH_TO_MPS};
use crate::error::CycleError;

/// Amplitude of the cruise ripple, km/h.
const RIPPLE_KMH: f64 = 1.2;
/// Period of the cruise ripple, s.
const RIPPLE_PERIOD_S: f64 = 11.0;

/// Incrementally builds a 1 Hz speed profile from idle, ramp, and cruise
/// segments.
///
/// The builder tracks the current speed; ramps start from it, cruises hold
/// it. Cruise segments superimpose a small sinusoidal ripple so synthetic
/// cycles exercise the same accelerate/coast micro-structure as measured
/// traces.
///
/// # Examples
///
/// ```
/// use drive_cycle::ProfileBuilder;
///
/// let cycle = ProfileBuilder::new("demo")
///     .idle(5.0)
///     .ramp_to(50.0, 10.0)
///     .cruise(20.0)
///     .ramp_to(0.0, 8.0)
///     .build()?;
/// assert!(cycle.duration_s() >= 43.0);
/// # Ok::<(), drive_cycle::CycleError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProfileBuilder {
    name: String,
    dt: f64,
    speeds_mps: Vec<f64>,
    current_kmh: f64,
    t: f64,
}

impl ProfileBuilder {
    /// Starts a new profile at rest, sampled at 1 Hz.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            dt: 1.0,
            speeds_mps: Vec::new(),
            current_kmh: 0.0,
            t: 0.0,
        }
    }

    /// Appends an idle (zero-speed) segment of the given duration.
    pub fn idle(mut self, secs: f64) -> Self {
        // hevlint::allow(float::lossy-cast, sample count: builder durations are author-provided small positive numbers; a negative rounds to zero samples)
        let n = (secs / self.dt).round() as usize;
        for _ in 0..n {
            self.speeds_mps.push(0.0);
            self.t += self.dt;
        }
        self.current_kmh = 0.0;
        self
    }

    /// Appends a linear ramp from the current speed to `to_kmh` over
    /// `secs` seconds.
    pub fn ramp_to(mut self, to_kmh: f64, secs: f64) -> Self {
        // hevlint::allow(float::lossy-cast, ramp sample count: bounded below by .max(1); durations are author-provided small positive numbers)
        let n = ((secs / self.dt).round() as usize).max(1);
        let from = self.current_kmh;
        for i in 1..=n {
            let f = i as f64 / n as f64;
            let v = from + f * (to_kmh - from);
            self.speeds_mps.push(v.max(0.0) * KMH_TO_MPS);
            self.t += self.dt;
        }
        self.current_kmh = to_kmh.max(0.0);
        self
    }

    /// Appends a cruise at the current speed for `secs` seconds, with the
    /// sinusoidal ripple.
    pub fn cruise(mut self, secs: f64) -> Self {
        // hevlint::allow(float::lossy-cast, sample count: builder durations are author-provided small positive numbers; a negative rounds to zero samples)
        let n = (secs / self.dt).round() as usize;
        let base = self.current_kmh;
        for _ in 0..n {
            let phase = 2.0 * std::f64::consts::PI * self.t / RIPPLE_PERIOD_S;
            // Ripple dips below the nominal cruise speed so segment peaks
            // stay at the authored value.
            let v = base - RIPPLE_KMH * (0.5 + 0.5 * phase.sin());
            self.speeds_mps.push(v.max(0.0) * KMH_TO_MPS);
            self.t += self.dt;
        }
        self
    }

    /// Appends a complete micro-trip: ramp up to `peak_kmh`, cruise, ramp
    /// down to rest, then idle.
    pub fn trip(
        self,
        peak_kmh: f64,
        up_secs: f64,
        cruise_secs: f64,
        down_secs: f64,
        idle_secs: f64,
    ) -> Self {
        self.ramp_to(peak_kmh, up_secs)
            .cruise(cruise_secs)
            .ramp_to(0.0, down_secs)
            .idle(idle_secs)
    }

    /// Finalizes the profile into a [`DriveCycle`].
    ///
    /// # Errors
    ///
    /// Returns [`CycleError::Empty`] if no segments were added.
    pub fn build(self) -> Result<DriveCycle, CycleError> {
        DriveCycle::from_speeds_mps(self.name, self.dt, self.speeds_mps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CycleStats;

    #[test]
    fn empty_profile_is_rejected() {
        assert!(ProfileBuilder::new("e").build().is_err());
    }

    #[test]
    fn idle_emits_zeros() {
        let c = ProfileBuilder::new("i").idle(5.0).build().unwrap();
        assert_eq!(c.len(), 5);
        assert!(c.speeds_mps().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn ramp_reaches_target() {
        let c = ProfileBuilder::new("r")
            .ramp_to(36.0, 10.0)
            .build()
            .unwrap();
        assert!((c.speed_at(9) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ramp_down_clamps_at_zero() {
        let c = ProfileBuilder::new("r")
            .ramp_to(20.0, 5.0)
            .ramp_to(-10.0, 5.0)
            .build()
            .unwrap();
        assert!(c.speeds_mps().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn cruise_holds_near_speed() {
        let c = ProfileBuilder::new("c")
            .ramp_to(50.0, 10.0)
            .cruise(30.0)
            .build()
            .unwrap();
        let s = CycleStats::of(&c);
        assert!(s.max_speed_kmh <= 50.0 + 1e-9);
        assert!(s.max_speed_kmh > 47.0);
    }

    #[test]
    fn trip_ends_at_rest() {
        let c = ProfileBuilder::new("t")
            .trip(60.0, 12.0, 30.0, 10.0, 8.0)
            .build()
            .unwrap();
        assert_eq!(c.speed_at(c.len() - 1), 0.0);
        assert_eq!(c.len(), 60);
    }
}
