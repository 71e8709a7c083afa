//! Stochastic micro-trip cycle generation.
//!
//! Reinforcement-learning controllers overfit when trained on a single
//! deterministic trace. [`MicroTripGenerator`] produces randomized urban /
//! mixed cycles — sequences of accelerate-cruise-brake-idle micro-trips —
//! whose statistics are controlled by [`MicroTripConfig`]. Seeded
//! generation is deterministic, so experiments are reproducible.

use crate::cycle::DriveCycle;
use crate::profile::ProfileBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the stochastic micro-trip generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MicroTripConfig {
    /// Approximate total cycle duration, seconds. Generation stops after
    /// the first micro-trip that crosses this mark.
    pub target_duration_s: f64,
    /// Minimum micro-trip peak speed, km/h.
    pub min_peak_kmh: f64,
    /// Maximum micro-trip peak speed, km/h.
    pub max_peak_kmh: f64,
    /// Mean acceleration used for ramp-up segments, m/s².
    pub mean_accel_mps2: f64,
    /// Mean deceleration magnitude used for ramp-down segments, m/s².
    pub mean_decel_mps2: f64,
    /// Minimum cruise duration, seconds.
    pub min_cruise_s: f64,
    /// Maximum cruise duration, seconds.
    pub max_cruise_s: f64,
    /// Minimum idle dwell between trips, seconds.
    pub min_idle_s: f64,
    /// Maximum idle dwell between trips, seconds.
    pub max_idle_s: f64,
}

impl MicroTripConfig {
    /// Urban stop-and-go traffic (short trips, long dwells).
    pub fn urban() -> Self {
        Self {
            target_duration_s: 800.0,
            min_peak_kmh: 15.0,
            max_peak_kmh: 60.0,
            mean_accel_mps2: 0.8,
            mean_decel_mps2: 1.0,
            min_cruise_s: 8.0,
            max_cruise_s: 45.0,
            min_idle_s: 5.0,
            max_idle_s: 30.0,
        }
    }
}

impl Default for MicroTripConfig {
    fn default() -> Self {
        Self::urban()
    }
}

/// Deterministic, seeded generator of randomized driving cycles.
///
/// # Examples
///
/// ```
/// use drive_cycle::{MicroTripConfig, MicroTripGenerator};
///
/// let mut generator = MicroTripGenerator::new(MicroTripConfig::urban(), 42);
/// let a = generator.generate("train-0");
/// let b = MicroTripGenerator::new(MicroTripConfig::urban(), 42).generate("train-0");
/// assert_eq!(a, b); // same seed, same cycle
/// ```
#[derive(Debug, Clone)]
pub struct MicroTripGenerator {
    config: MicroTripConfig,
    rng: StdRng,
}

impl MicroTripGenerator {
    /// Creates a generator with the given configuration and RNG seed.
    pub fn new(config: MicroTripConfig, seed: u64) -> Self {
        Self {
            config,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &MicroTripConfig {
        &self.config
    }

    /// Generates one randomized cycle.
    pub fn generate(&mut self, name: impl Into<String>) -> DriveCycle {
        let c = &self.config;
        let mut builder = ProfileBuilder::new(name);
        let mut elapsed = 0.0;
        builder = builder.idle(5.0);
        elapsed += 5.0;
        while elapsed < c.target_duration_s {
            let peak = self.rng.gen_range(c.min_peak_kmh..=c.max_peak_kmh);
            let peak_mps = peak / 3.6;
            let accel = c.mean_accel_mps2 * self.rng.gen_range(0.7..1.3);
            let decel = c.mean_decel_mps2 * self.rng.gen_range(0.7..1.3);
            let up = (peak_mps / accel).max(2.0);
            let down = (peak_mps / decel).max(2.0);
            let cruise = self.rng.gen_range(c.min_cruise_s..=c.max_cruise_s);
            let idle = self.rng.gen_range(c.min_idle_s..=c.max_idle_s);
            builder = builder.trip(peak, up, cruise, down, idle);
            elapsed += up + cruise + down + idle;
        }
        // hevlint::allow(panic::expect, the generator loop always appends at least one trip before building)
        builder.build().expect("generated profile is non-empty")
    }

    /// Generates a batch of cycles named `prefix-0`, `prefix-1`, ….
    pub fn generate_batch(&mut self, prefix: &str, count: usize) -> Vec<DriveCycle> {
        (0..count)
            .map(|i| self.generate(format!("{prefix}-{i}")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CycleStats;

    #[test]
    fn generation_is_seed_deterministic() {
        let a = MicroTripGenerator::new(MicroTripConfig::urban(), 7).generate("x");
        let b = MicroTripGenerator::new(MicroTripConfig::urban(), 7).generate("x");
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = MicroTripGenerator::new(MicroTripConfig::urban(), 1).generate("x");
        let b = MicroTripGenerator::new(MicroTripConfig::urban(), 2).generate("x");
        assert_ne!(a, b);
    }

    #[test]
    fn respects_speed_bounds() {
        let c = MicroTripGenerator::new(MicroTripConfig::urban(), 3).generate("x");
        let s = CycleStats::of(&c);
        assert!(s.max_speed_kmh <= MicroTripConfig::urban().max_peak_kmh + 0.5);
    }

    #[test]
    fn duration_near_target() {
        let cfg = MicroTripConfig::urban();
        let c = MicroTripGenerator::new(cfg, 11).generate("x");
        assert!(c.duration_s() >= cfg.target_duration_s);
        // One micro-trip can overshoot by at most its own worst-case length.
        assert!(c.duration_s() < cfg.target_duration_s + 400.0);
    }

    #[test]
    fn batch_generates_distinct_named_cycles() {
        let mut generator = MicroTripGenerator::new(MicroTripConfig::urban(), 9);
        let batch = generator.generate_batch("train", 3);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].name(), "train-0");
        assert_eq!(batch[2].name(), "train-2");
        assert_ne!(batch[0], batch[1]);
    }

    #[test]
    fn generated_cycles_are_physical() {
        let c = MicroTripGenerator::new(MicroTripConfig::urban(), 21).generate("p");
        let s = CycleStats::of(&c);
        assert!(s.max_accel_mps2 < 3.5, "accel {}", s.max_accel_mps2);
        assert!(s.max_decel_mps2 > -3.5, "decel {}", s.max_decel_mps2);
        assert!(c.speeds_mps().iter().all(|&v| v >= 0.0));
    }
}
