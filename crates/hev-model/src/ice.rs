//! Quasi-static internal-combustion-engine model (paper Eq. 1–2).
//!
//! The fuel efficiency is `η_ICE(T, ω) = T·ω / (ṁ_f · D_f)`; we model the
//! brake-efficiency surface directly as a separable product of a load
//! parabola and a speed parabola — the characteristic shape of SI-engine
//! maps used by quasi-static simulators such as ADVISOR — and derive the
//! fuel rate `ṁ_f = T·ω / (η·D_f)` from it.

use crate::error::ParamError;
use crate::params::IceParams;
use serde::{Deserialize, Serialize};

/// Minimum efficiency the parametric map is clamped to, so the fuel rate
/// stays finite at extreme operating points.
const MIN_EFFICIENCY: f64 = 0.04;

/// Quasi-static engine model.
///
/// # Examples
///
/// ```
/// use hev_model::{Engine, IceParams};
///
/// let engine = Engine::new(IceParams::default())?;
/// let w = 300.0; // rad/s
/// let t = 0.5 * engine.max_torque(w);
/// assert!(engine.efficiency(t, w) > 0.2);
/// assert!(engine.fuel_rate(t, w) > 0.0);
/// # Ok::<(), hev_model::ParamError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Engine {
    params: IceParams,
}

impl Engine {
    /// Creates an engine from validated parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] if the parameters are invalid.
    pub fn new(params: IceParams) -> Result<Self, ParamError> {
        params.validate()?;
        Ok(Self { params })
    }

    /// The engine's parameters.
    pub fn params(&self) -> &IceParams {
        &self.params
    }

    /// Minimum running speed (idle), rad/s.
    pub fn min_speed(&self) -> f64 {
        self.params.idle_speed_rad_s
    }

    /// Maximum speed (redline), rad/s.
    pub fn max_speed(&self) -> f64 {
        self.params.max_speed_rad_s
    }

    /// Whether `speed` lies in the engine's running range.
    pub fn speed_in_range(&self, speed_rad_s: f64) -> bool {
        (self.params.idle_speed_rad_s..=self.params.max_speed_rad_s).contains(&speed_rad_s)
    }

    /// Wide-open-throttle torque at the given speed, N·m (Eq. 2's
    /// `T_ICE^max(ω)`), linearly interpolated from the torque curve and
    /// clamped to the curve's endpoints outside its speed range.
    pub fn max_torque(&self, speed_rad_s: f64) -> f64 {
        let curve = &self.params.max_torque_curve;
        if speed_rad_s <= curve[0].0 {
            return curve[0].1;
        }
        for w in curve.windows(2) {
            let (w0, t0) = w[0];
            let (w1, t1) = w[1];
            if speed_rad_s <= w1 {
                let f = (speed_rad_s - w0) / (w1 - w0);
                return t0 + f * (t1 - t0);
            }
        }
        curve[curve.len() - 1].1
    }

    /// Brake thermal efficiency at operating point `(T, ω)` (Eq. 1).
    ///
    /// Returns 0 for non-positive torque or power (the engine does not
    /// absorb power).
    pub fn efficiency(&self, torque_nm: f64, speed_rad_s: f64) -> f64 {
        self.efficiency_with_wot(torque_nm, speed_rad_s, self.max_torque(speed_rad_s))
    }

    /// The speed parabola of the separable efficiency surface — the whole
    /// speed-dependent subexpression of [`Engine::efficiency`], exposed so
    /// hot callers evaluating many torques at one speed can hoist it.
    #[inline]
    pub(crate) fn speed_factor(&self, speed_rad_s: f64) -> f64 {
        let p = &self.params;
        1.0 - ((speed_rad_s - p.best_speed_rad_s) / p.speed_span_rad_s).powi(2)
    }

    /// [`Engine::efficiency`] with the wide-open-throttle torque at
    /// `speed_rad_s` precomputed by [`Engine::max_torque`]; exact same
    /// arithmetic. Hot callers that evaluate many torques at one speed
    /// hoist the curve interpolation out of the loop.
    pub(crate) fn efficiency_with_wot(
        &self,
        torque_nm: f64,
        speed_rad_s: f64,
        wot_torque_nm: f64,
    ) -> f64 {
        self.efficiency_with_pre(
            torque_nm,
            speed_rad_s,
            wot_torque_nm,
            self.speed_factor(speed_rad_s),
        )
    }

    /// [`Engine::efficiency_with_wot`] with the speed parabola also
    /// precomputed by [`Engine::speed_factor`]; exact same arithmetic.
    #[inline]
    pub(crate) fn efficiency_with_pre(
        &self,
        torque_nm: f64,
        speed_rad_s: f64,
        wot_torque_nm: f64,
        speed_factor: f64,
    ) -> f64 {
        if torque_nm <= 0.0 || speed_rad_s <= 0.0 {
            return 0.0;
        }
        let p = &self.params;
        let load = (torque_nm / wot_torque_nm).min(1.0);
        let load_factor = 1.0 - ((load - p.best_load_ratio) / p.load_span).powi(2);
        (p.peak_efficiency * load_factor.max(0.0) * speed_factor.max(0.0)).max(MIN_EFFICIENCY)
    }

    /// Fuel mass flow `ṁ_f` at operating point `(T, ω)`, g/s.
    ///
    /// With zero torque at (or above) idle speed the engine consumes the
    /// idle fuel rate; a stopped engine (`ω = 0`) consumes nothing
    /// (automatic stop-start).
    pub fn fuel_rate(&self, torque_nm: f64, speed_rad_s: f64) -> f64 {
        if speed_rad_s <= 0.0 {
            return 0.0;
        }
        if torque_nm <= 0.0 {
            return self.params.idle_fuel_g_per_s;
        }
        self.fuel_rate_with_wot(torque_nm, speed_rad_s, self.max_torque(speed_rad_s))
    }

    /// [`Engine::fuel_rate`] with the wide-open-throttle torque at
    /// `speed_rad_s` precomputed by [`Engine::max_torque`]; exact same
    /// arithmetic.
    pub(crate) fn fuel_rate_with_wot(
        &self,
        torque_nm: f64,
        speed_rad_s: f64,
        wot_torque_nm: f64,
    ) -> f64 {
        self.fuel_rate_with_pre(
            torque_nm,
            speed_rad_s,
            wot_torque_nm,
            self.speed_factor(speed_rad_s),
        )
    }

    /// [`Engine::fuel_rate_with_wot`] with the speed parabola also
    /// precomputed by [`Engine::speed_factor`]; exact same arithmetic.
    #[inline]
    pub(crate) fn fuel_rate_with_pre(
        &self,
        torque_nm: f64,
        speed_rad_s: f64,
        wot_torque_nm: f64,
        speed_factor: f64,
    ) -> f64 {
        if speed_rad_s <= 0.0 {
            return 0.0;
        }
        if torque_nm <= 0.0 {
            return self.params.idle_fuel_g_per_s;
        }
        let power_w = torque_nm * speed_rad_s;
        power_w
            / (self.efficiency_with_pre(torque_nm, speed_rad_s, wot_torque_nm, speed_factor)
                * self.params.fuel_lhv_j_per_g)
    }

    /// Whether the fuel rate is non-decreasing in torque over
    /// `(0, T_max(ω)]` at every engine speed: true when the efficiency
    /// peaks at a load ratio no larger than the load parabola's width
    /// (`best_load_ratio ≤ load_span`).
    ///
    /// In the load ratio `x = T/T_max(ω)` the fuel rate is proportional
    /// to `x/g(x)` with `g(x) = 1 − ((x − b)/s)²`, whose derivative has
    /// the sign of `1 + (x² − b²)/s²`: non-negative for every `x ≥ 0`
    /// once `b ≤ s`. The efficiency floor only takes the minimum with
    /// `x` over a constant, and the speed parabola scales both terms.
    /// Optimizers bound an engine-on search by its lowest-torque probe
    /// only while this holds.
    pub fn fuel_rate_monotone_in_torque(&self) -> bool {
        self.params.best_load_ratio <= self.params.load_span
    }

    /// The operating point `(T, ω)` is inside the feasible envelope of
    /// Eq. 2.
    pub fn operating_point_feasible(&self, torque_nm: f64, speed_rad_s: f64) -> bool {
        self.speed_in_range(speed_rad_s)
            && torque_nm >= 0.0
            && torque_nm <= self.max_torque(speed_rad_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RPM_TO_RAD_S;

    fn engine() -> Engine {
        Engine::new(IceParams::default()).unwrap()
    }

    #[test]
    fn max_torque_interpolates_between_knots() {
        let e = engine();
        let t = e.max_torque(1500.0 * RPM_TO_RAD_S);
        assert!((t - 85.0).abs() < 1.0, "torque {t}");
    }

    #[test]
    fn max_torque_clamps_outside_curve() {
        let e = engine();
        assert_eq!(e.max_torque(0.0), 75.0);
        assert_eq!(e.max_torque(10_000.0), 98.0);
    }

    #[test]
    fn efficiency_peaks_near_design_point() {
        let e = engine();
        let w_best = e.params().best_speed_rad_s;
        let t_best = e.params().best_load_ratio * e.max_torque(w_best);
        let peak = e.efficiency(t_best, w_best);
        assert!((peak - 0.36).abs() < 1e-6);
        // Anywhere else is no better.
        for &w in &[150.0, 250.0, 400.0, 550.0] {
            for load in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
                let t = load * e.max_torque(w);
                assert!(e.efficiency(t, w) <= peak + 1e-9);
            }
        }
    }

    #[test]
    fn efficiency_zero_for_nonpositive_torque() {
        let e = engine();
        assert_eq!(e.efficiency(0.0, 300.0), 0.0);
        assert_eq!(e.efficiency(-10.0, 300.0), 0.0);
    }

    #[test]
    fn low_load_efficiency_is_poor() {
        let e = engine();
        let w = 300.0;
        let low = e.efficiency(0.05 * e.max_torque(w), w);
        let good = e.efficiency(0.8 * e.max_torque(w), w);
        assert!(low < 0.5 * good, "low {low} good {good}");
    }

    #[test]
    fn fuel_rate_consistent_with_efficiency() {
        let e = engine();
        let (t, w) = (60.0, 300.0);
        let mdot = e.fuel_rate(t, w);
        let eta = t * w / (mdot * e.params().fuel_lhv_j_per_g);
        assert!((eta - e.efficiency(t, w)).abs() < 1e-9);
    }

    #[test]
    fn fuel_rate_monotone_in_torque_at_fixed_speed() {
        let e = engine();
        let w = 300.0;
        let mut prev = 0.0;
        for load in [0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0] {
            let rate = e.fuel_rate(load * e.max_torque(w), w);
            assert!(rate > prev, "fuel must rise with torque");
            prev = rate;
        }
    }

    #[test]
    fn stopped_engine_burns_nothing() {
        assert_eq!(engine().fuel_rate(0.0, 0.0), 0.0);
    }

    #[test]
    fn idling_engine_burns_idle_rate() {
        let e = engine();
        assert_eq!(e.fuel_rate(0.0, e.min_speed()), 0.15);
    }

    #[test]
    fn feasibility_envelope() {
        let e = engine();
        assert!(e.operating_point_feasible(50.0, 300.0));
        assert!(!e.operating_point_feasible(500.0, 300.0)); // torque too high
        assert!(!e.operating_point_feasible(50.0, 50.0)); // below idle
        assert!(!e.operating_point_feasible(50.0, 700.0)); // above redline
        assert!(!e.operating_point_feasible(-5.0, 300.0)); // negative torque
    }

    #[test]
    fn rejects_invalid_params() {
        let p = IceParams {
            peak_efficiency: 0.9,
            ..Default::default()
        };
        assert!(Engine::new(p).is_err());
    }

    #[test]
    fn efficiency_is_bounded_over_the_envelope() {
        // An 8 × 6 grid of cell midpoints over the speed range and the
        // full-load torque curve.
        let e = engine();
        let p = e.params();
        let mut best: f64 = 0.0;
        for i in 0..8 {
            let w = p.idle_speed_rad_s
                + (p.max_speed_rad_s - p.idle_speed_rad_s) * (i as f64 + 0.5) / 8.0;
            for j in 0..6 {
                let t = e.max_torque(w) * (j as f64 + 0.5) / 6.0;
                let eta = e.efficiency(t, w);
                assert!(eta > 0.0 && eta <= p.peak_efficiency);
                best = best.max(eta);
            }
        }
        // The grid contains points near the peak.
        assert!(best > 0.30, "best sampled efficiency {best}");
    }
}
