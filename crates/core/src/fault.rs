//! Seeded, deterministic fault injection for robustness studies.
//!
//! The paper's controller reads its state `s = [p_dem, v, q, pre]` from
//! *online measurement* (§4.3.1: the charge via Coulomb counting), so a
//! deployable reproduction must tolerate sensing error and component
//! degradation. This module injects both, repeatably:
//!
//! * **Sensor faults** perturb only what the controller *observes* —
//!   SOC measurement noise plus Coulomb-counting drift, and relative
//!   speed-measurement noise (which also scales the observed power
//!   demand, since `p_dem = F_TR·v` is derived from the same speed
//!   signal). The plant always integrates the truth.
//! * **Plant faults** change the vehicle itself: battery capacity fade
//!   (applied once per degraded vehicle), a motor torque-derating
//!   window, and an auxiliary-load step disturbance window (an
//!   uncommanded extra load, e.g. an AC compressor engaging).
//!
//! Determinism contract: a [`FaultPlan`] owns its entire random state,
//! seeded from a [`split_seed`]-derived value, and draws a *fixed* number
//! of variates per episode start (3) and per step (2) regardless of which
//! fault magnitudes are non-zero. Fault trajectories are therefore a pure
//! function of `(severity, seed, episode index, step index)` — identical
//! at any `--jobs` value, exactly like the training harness itself. With
//! no plan installed ([`crate::sim::simulate`]), nothing is drawn and the
//! simulation is byte-identical to the pre-fault-layer code.

use crate::harness::split_seed;
use hev_model::{ParallelHev, WheelDemand};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A materialized, self-seeded fault trajectory over episodes.
///
/// Every fault magnitude scales a reference scenario by one severity
/// (0 = healthy, 1 = the full scenario; values beyond 1 extrapolate,
/// with fade and derate clamped away from their degenerate endpoints).
/// At severity 1: ±2 % SOC noise with 2 %/1000 s drift, ±3 % speed
/// noise, 15 % capacity fade, a 180 s motor window derated to 65 %
/// torque, and a 400 W aux step lasting 150 s.
///
/// Derive the seed from the run's [`crate::SeedSequence`] so faulted
/// batches keep the harness's any-worker-count determinism. The
/// simulation loop calls [`FaultPlan::begin_episode`] once per episode
/// and [`FaultPlan::sensor`] once per step, in step order.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// SOC measurement noise amplitude (uniform ±, in SOC fraction).
    soc_noise: f64,
    /// Coulomb-counting drift magnitude, SOC fraction per 1000 s; the
    /// sign is drawn once per episode.
    soc_drift_per_1000s: f64,
    /// Relative speed-measurement noise amplitude (uniform ±, fraction
    /// of true speed). Also scales the observed power demand.
    speed_noise: f64,
    /// Battery capacity fade fraction in `[0, 1)` (see
    /// [`ParallelHev::apply_battery_capacity_fade`]).
    capacity_fade: f64,
    /// Motor torque-envelope scale inside the derating window, `(0, 1]`.
    derate_factor: f64,
    /// Duration of the motor-derating window, s (`0` disables it).
    derate_window_s: f64,
    /// Uncommanded extra auxiliary load inside the disturbance window, W.
    aux_step_w: f64,
    /// Duration of the auxiliary-load disturbance window, s (`0`
    /// disables it).
    aux_window_s: f64,
    seed: u64,
    /// Episodes started so far (the next episode's index).
    episode: u64,
    rng: StdRng,
    /// Signed drift rate for the current episode, SOC fraction per s.
    drift_per_s: f64,
    /// Start of the motor-derating window, s.
    derate_start_s: f64,
    /// Start of the aux-disturbance window, s.
    aux_start_s: f64,
}

impl FaultPlan {
    /// A plan at `severity` whose entire trajectory is determined by
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `severity` is negative or not finite.
    pub fn new(severity: f64, seed: u64) -> Self {
        assert!(
            severity.is_finite() && severity >= 0.0,
            "severity must be finite and non-negative, got {severity}"
        );
        Self {
            soc_noise: 0.02 * severity,
            soc_drift_per_1000s: 0.02 * severity,
            speed_noise: 0.03 * severity,
            capacity_fade: (0.15 * severity).min(0.90),
            derate_factor: (1.0 - 0.35 * severity).max(0.20),
            derate_window_s: 180.0 * severity,
            aux_step_w: 400.0 * severity,
            aux_window_s: 150.0 * severity,
            seed,
            episode: 0,
            rng: StdRng::seed_from_u64(seed),
            drift_per_s: 0.0,
            derate_start_s: f64::INFINITY,
            aux_start_s: f64::INFINITY,
        }
    }

    /// Applies the plant degradation (battery capacity fade) to a fresh
    /// vehicle. Call once per vehicle; fade compounds on repeat.
    pub fn degrade_plant(&self, hev: &mut ParallelHev) {
        if self.capacity_fade > 0.0 {
            hev.apply_battery_capacity_fade(self.capacity_fade);
        }
    }

    /// Starts the next episode: re-derives the episode RNG from
    /// `split_seed(seed, episode)` (so episode `k`'s trajectory does not
    /// depend on how many draws earlier episodes consumed) and samples
    /// the episode's drift sign and fault-window start times over
    /// `[0, duration_s)`.
    pub fn begin_episode(&mut self, duration_s: f64) {
        let span = duration_s.max(1.0);
        let mut rng = StdRng::seed_from_u64(split_seed(self.seed, self.episode));
        self.episode += 1;
        // Fixed draw count (3) regardless of the magnitudes.
        let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        self.drift_per_s = sign * self.soc_drift_per_1000s / 1000.0;
        self.derate_start_s = rng.gen_range(0.0..span);
        self.aux_start_s = rng.gen_range(0.0..span);
        self.rng = rng;
    }

    /// The sensor-faulted observation for one step: the observed SOC
    /// (noise + accumulated drift, clamped to `[0, 1]`) and the observed
    /// wheel demand (speed and the speed-derived power demand scaled by
    /// the same noisy factor; torque/force left as the plant truth).
    ///
    /// Draws exactly two variates per call, so the stream position is a
    /// function of the step index alone.
    pub fn sensor(
        &mut self,
        time_s: f64,
        true_soc: f64,
        demand: &WheelDemand,
    ) -> (f64, WheelDemand) {
        let u_soc = self.rng.gen_range(-1.0..1.0);
        let u_speed = self.rng.gen_range(-1.0..1.0);
        let soc = (true_soc + self.soc_noise * u_soc + self.drift_per_s * time_s).clamp(0.0, 1.0);
        let factor = 1.0 + self.speed_noise * u_speed;
        let observed = WheelDemand {
            speed_mps: demand.speed_mps * factor,
            power_demand_w: demand.power_demand_w * factor,
            ..*demand
        };
        (soc, observed)
    }

    /// The motor torque-envelope scale active at `time_s` (1.0 outside
    /// the derating window or when the window is disabled).
    pub fn motor_derate_at(&self, time_s: f64) -> f64 {
        let w = self.derate_window_s;
        if w > 0.0 && time_s >= self.derate_start_s && time_s < self.derate_start_s + w {
            self.derate_factor
        } else {
            1.0
        }
    }

    /// The uncommanded extra auxiliary load at `time_s`, W (0 outside
    /// the disturbance window).
    pub fn aux_disturbance_at(&self, time_s: f64) -> f64 {
        let w = self.aux_window_s;
        if w > 0.0 && time_s >= self.aux_start_s && time_s < self.aux_start_s + w {
            self.aux_step_w
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hev_model::HevParams;

    fn demand() -> WheelDemand {
        ParallelHev::new(HevParams::default_parallel_hev(), 0.6)
            .unwrap()
            .demand(15.0, 0.5, 0.0)
    }

    /// The eight magnitudes, in declaration order.
    fn magnitudes(plan: &FaultPlan) -> [f64; 8] {
        [
            plan.soc_noise,
            plan.soc_drift_per_1000s,
            plan.speed_noise,
            plan.capacity_fade,
            plan.derate_factor,
            plan.derate_window_s,
            plan.aux_step_w,
            plan.aux_window_s,
        ]
    }

    #[test]
    fn magnitudes_match_the_severity_scenario_bit_for_bit() {
        // The scenario as a literal: all channels off at severity 0,
        // otherwise each magnitude scaled from its severity-1 value.
        let scenario = |s: f64| -> [f64; 8] {
            if s == 0.0 {
                return [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0];
            }
            [
                0.02 * s,
                0.02 * s,
                0.03 * s,
                (0.15 * s).min(0.90),
                (1.0 - 0.35 * s).max(0.20),
                180.0 * s,
                400.0 * s,
                150.0 * s,
            ]
        };
        for severity in [0.0, 0.25, 0.5, 1.0, 3.0, 10.0] {
            let got = magnitudes(&FaultPlan::new(severity, 1)).map(f64::to_bits);
            assert_eq!(got, scenario(severity).map(f64::to_bits), "{severity}");
        }
    }

    #[test]
    #[should_panic(expected = "severity must be finite and non-negative")]
    fn negative_severity_is_rejected() {
        FaultPlan::new(-0.5, 1);
    }

    #[test]
    #[should_panic(expected = "severity must be finite and non-negative")]
    fn non_finite_severity_is_rejected() {
        FaultPlan::new(f64::NAN, 1);
    }

    #[test]
    fn severity_scales_monotonically_and_clamps() {
        let half = FaultPlan::new(0.5, 1);
        let full = FaultPlan::new(1.0, 1);
        assert!(half.soc_noise < full.soc_noise);
        assert!(half.derate_factor > full.derate_factor);
        let extreme = FaultPlan::new(10.0, 1);
        assert!(extreme.capacity_fade <= 0.90);
        assert!(extreme.derate_factor >= 0.20);
    }

    #[test]
    fn same_seed_same_trajectory() {
        let run = |seed: u64| {
            let mut plan = FaultPlan::new(1.0, seed);
            let mut out = Vec::new();
            for _ in 0..3 {
                plan.begin_episode(600.0);
                for step in 0..50 {
                    let t = step as f64;
                    let (soc, d) = plan.sensor(t, 0.6, &demand());
                    out.push((
                        soc,
                        d.speed_mps,
                        plan.motor_derate_at(t),
                        plan.aux_disturbance_at(t),
                    ));
                }
            }
            out
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn episode_streams_are_draw_count_independent() {
        // Episode 1's faults must not depend on how many steps episode 0
        // consumed — checkpoint/resume and variable-length cycles rely on
        // the per-episode reseed.
        let mut long = FaultPlan::new(1.0, 7);
        long.begin_episode(600.0);
        for step in 0..500 {
            long.sensor(step as f64, 0.6, &demand());
        }
        let mut short = FaultPlan::new(1.0, 7);
        short.begin_episode(600.0);
        short.sensor(0.0, 0.6, &demand());
        long.begin_episode(600.0);
        short.begin_episode(600.0);
        assert_eq!(
            long.sensor(0.0, 0.6, &demand()),
            short.sensor(0.0, 0.6, &demand())
        );
    }

    #[test]
    fn windows_lie_inside_the_episode() {
        let mut plan = FaultPlan::new(1.0, 11);
        for _ in 0..20 {
            plan.begin_episode(400.0);
            assert!((0.0..400.0).contains(&plan.derate_start_s));
            assert!((0.0..400.0).contains(&plan.aux_start_s));
            // Inside the window the derate and the aux step are active.
            let t = plan.derate_start_s + 1e-6;
            assert_eq!(plan.motor_derate_at(t), plan.derate_factor);
            let t = plan.aux_start_s + 1e-6;
            assert_eq!(plan.aux_disturbance_at(t), plan.aux_step_w);
        }
    }

    #[test]
    fn severity_zero_perturbs_nothing_but_still_draws() {
        let mut plan = FaultPlan::new(0.0, 5);
        plan.begin_episode(100.0);
        let d = demand();
        let (soc, observed) = plan.sensor(10.0, 0.63, &d);
        assert_eq!(soc, 0.63);
        assert_eq!(observed, d);
        assert_eq!(plan.motor_derate_at(50.0), 1.0);
        assert_eq!(plan.aux_disturbance_at(50.0), 0.0);
    }

    #[test]
    fn soc_observation_is_clamped() {
        // At severity 100 the noise amplitude (±2) and the drift (2 per
        // 1000 s) push the raw reading far outside [0, 1].
        let mut plan = FaultPlan::new(100.0, 3);
        plan.begin_episode(100.0);
        let mut clamped = 0;
        for step in 0..100 {
            let (soc, _) = plan.sensor(step as f64, 0.6, &demand());
            assert!((0.0..=1.0).contains(&soc));
            if soc == 0.0 || soc == 1.0 {
                clamped += 1;
            }
        }
        assert!(clamped > 0, "no reading reached a clamp bound");
    }

    #[test]
    fn capacity_fade_degrades_the_plant() {
        let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6).unwrap();
        let nominal = hev.battery().params().capacity_ah;
        FaultPlan::new(1.0, 1).degrade_plant(&mut hev);
        assert!(hev.battery().params().capacity_ah < nominal);
        // A healthy plan leaves the plant untouched.
        let mut healthy = ParallelHev::new(HevParams::default_parallel_hev(), 0.6).unwrap();
        FaultPlan::new(0.0, 1).degrade_plant(&mut healthy);
        assert_eq!(healthy.battery().params().capacity_ah, nominal);
    }
}
