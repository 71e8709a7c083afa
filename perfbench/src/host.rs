//! The host's speed, measured by a fixed kernel the benchmark owns.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by
//! half or more over spells of seconds to minutes, because other tenants
//! compete for the same cores and caches. That drift reaches every
//! wall-clock figure of a run. A run therefore also times a fixed kernel
//! between its repetitions, and [`Reference::speed`] is
//! the host's speed during the run relative to the speed at which
//! [`NOMINAL_MS`] was measured. The end-to-end time figures are reported
//! at nominal speed: a time is multiplied by the speed and a rate is
//! divided by it. The raw figures stay in the per-layer report.
//!
//! The kernel is code of the benchmark, not of the program, so no change
//! to the program can make it faster or slower. It is shaped like the
//! program's batched candidate scoring: of the kernels tried, this one
//! slowed most nearly in step with the workloads, where a latency-bound
//! floating-point chain slowed only about half as much as they did.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's wall time, ms, on a 2-vCPU Intel Xeon VM at 2.1 GHz
/// during a quiet spell. Only the ratio to it matters.
pub const NOMINAL_MS: f64 = 5.0;

/// Candidate batches scored per call.
const BATCHES: u32 = 50_000;

/// Candidates per batch: every gear at each of four operating points.
const LANES: u32 = 32;

/// Gear ratios the candidates scale the demand by.
const RATIOS: [f64; 8] = [3.5, 2.1, 1.4, 1.0, 0.8, 0.65, 0.55, 0.48];

/// The reference kernel and its timings over one run.
pub struct Reference {
    checksum: Option<u64>,
    /// Wall time of every call, ms.
    pub times_ms: Vec<f64>,
    /// True while every call returned the same checksum.
    pub deterministic: bool,
}

impl Reference {
    /// A kernel with no calls timed yet.
    pub fn new() -> Self {
        Self {
            checksum: None,
            times_ms: Vec::new(),
            deterministic: true,
        }
    }

    /// Runs the kernel once and records its wall time.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        let sum = kernel().to_bits();
        self.times_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        self.deterministic &= *self.checksum.get_or_insert(sum) == sum;
    }

    /// Runs the kernel until `seconds` have passed, at least once.
    pub fn sample_for(&mut self, seconds: f64) {
        let t0 = Instant::now();
        loop {
            self.sample();
            if t0.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    }

    /// Mean kernel time, ms.
    pub fn mean_ms(&self) -> f64 {
        self.times_ms.iter().sum::<f64>() / self.times_ms.len().max(1) as f64
    }

    /// The host's speed relative to nominal: 1 at nominal speed, 0.8
    /// when the kernel took 25 % longer.
    pub fn speed(&self) -> f64 {
        if self.times_ms.is_empty() {
            1.0
        } else {
            NOMINAL_MS / self.mean_ms()
        }
    }
}

/// Batched candidate scoring shaped like the plant model's: per batch,
/// 32 candidates (a gear ratio and an operating point each) are scored
/// through a piecewise map with four regimes, and the best feasible one
/// is kept. Deterministic, so every call does the same work.
fn kernel() -> f64 {
    let mut total = 0.0f64;
    for i in 0..BATCHES {
        let demand = f64::from(i % 113) * 0.1;
        let (mut best, mut arg) = (f64::MAX, 0);
        for lane in 0..LANES {
            let x = demand * RATIOS[(lane % 8) as usize] + f64::from(lane / 8) * 0.9;
            let map = if x < 1.0 {
                x * x
            } else if x < 3.0 {
                (x - 1.0).mul_add(0.4, 1.0)
            } else if x < 6.0 {
                x.sqrt() * 1.3
            } else {
                1.0 / (1.0 + x) + 3.0
            };
            let score = map + ((x * 0.3 - 1.2) * x + 0.7) * 0.01;
            if score < best && x < 9.0 {
                best = score;
                arg = lane;
            }
        }
        total += best + f64::from(arg);
    }
    black_box(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_timed() {
        let mut r = Reference::new();
        r.sample();
        r.sample();
        assert!(r.deterministic);
        assert_eq!(r.times_ms.len(), 2);
        assert!(r.speed() > 0.0 && r.speed().is_finite());
    }

    #[test]
    fn no_samples_means_nominal_speed() {
        assert_eq!(Reference::new().speed(), 1.0);
    }
}
