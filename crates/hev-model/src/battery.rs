//! Battery pack: Rint equivalent circuit with Coulomb counting.
//!
//! The paper observes the stored charge `q` via Coulomb counting (§4.3.1,
//! refs [17, 18]) because terminal voltage is not a reliable
//! state-of-charge indicator under load. [`Battery::step`] integrates the
//! commanded current exactly as the monitoring IC would.

use crate::error::{InfeasibleControl, ParamError};
use crate::params::BatteryParams;
use serde::{Deserialize, Serialize};

/// Battery pack with mutable state of charge.
///
/// Sign convention (the paper's): current `i > 0` discharges the pack,
/// `i < 0` charges it. Terminal power `P_batt = V_oc·i − R·i²` is the power
/// delivered to the DC bus (negative while charging).
///
/// # Examples
///
/// ```
/// use hev_model::{Battery, BatteryParams};
///
/// let mut battery = Battery::new(BatteryParams::default(), 0.6)?;
/// let p = battery.terminal_power(20.0);
/// assert!(p > 0.0);
/// battery.step(20.0, 1.0)?; // discharge 20 A for 1 s
/// assert!(battery.soc() < 0.6);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Battery {
    params: BatteryParams,
    soc: f64,
}

impl Battery {
    /// Creates a pack at the given initial state of charge.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] if the parameters are invalid or the
    /// initial state of charge is outside the charge-sustaining window.
    pub fn new(params: BatteryParams, initial_soc: f64) -> Result<Self, ParamError> {
        params.validate()?;
        if !(params.soc_min..=params.soc_max).contains(&initial_soc) {
            return Err(ParamError::new(
                "initial_soc",
                format!(
                    "{initial_soc} outside charge-sustaining window [{}, {}]",
                    params.soc_min, params.soc_max
                ),
            ));
        }
        Ok(Self {
            params,
            soc: initial_soc,
        })
    }

    /// The pack's parameters.
    pub fn params(&self) -> &BatteryParams {
        &self.params
    }

    /// Current state of charge (fraction of capacity), maintained by
    /// Coulomb counting.
    pub fn soc(&self) -> f64 {
        self.soc
    }

    /// Resets the state of charge (e.g. between training episodes).
    ///
    /// # Panics
    ///
    /// Panics if `soc` is outside `[0, 1]`.
    pub fn reset(&mut self, soc: f64) {
        assert!((0.0..=1.0).contains(&soc), "soc must be in [0, 1]");
        self.soc = soc;
    }

    /// Degrades the pack by scaling its capacity to `(1 − fade)` of the
    /// nominal value — the fault-injection model of calendar/cycle aging.
    /// The state of charge (a fraction) is preserved, so the same current
    /// moves it faster through a faded pack, exactly as Coulomb counting
    /// over a smaller capacity would.
    ///
    /// # Panics
    ///
    /// Panics if `fade` is outside `[0, 1)` (a fully faded pack has no
    /// capacity left to model).
    pub fn apply_capacity_fade(&mut self, fade: f64) {
        assert!((0.0..1.0).contains(&fade), "fade must be in [0, 1)");
        self.params.capacity_ah *= 1.0 - fade;
    }

    /// Open-circuit voltage at the current state of charge, V.
    pub fn ocv(&self) -> f64 {
        self.ocv_at(self.soc)
    }

    /// Open-circuit voltage at a given state of charge, V (affine model).
    fn ocv_at(&self, soc: f64) -> f64 {
        self.params.ocv_at_empty_v + self.params.ocv_span_v * soc
    }

    /// Internal resistance for the given current direction, Ω.
    fn resistance(&self, current_a: f64) -> f64 {
        if current_a >= 0.0 {
            self.params.resistance_discharge_ohm
        } else {
            self.params.resistance_charge_ohm
        }
    }

    /// Terminal (bus) power for a commanded current, W:
    /// `P = V_oc·i − R·i²`.
    pub fn terminal_power(&self, current_a: f64) -> f64 {
        self.ocv() * current_a - self.resistance(current_a) * current_a * current_a
    }

    /// Inverse map: the current that realizes terminal power `power_w`
    /// (closed-form quadratic root).
    ///
    /// Returns `None` if the power exceeds the pack's physical maximum
    /// (`V_oc²/4R` while discharging).
    pub fn current_for_power(&self, power_w: f64) -> Option<f64> {
        let v = self.ocv();
        // The current carries the power's sign.
        let r = self.resistance(power_w);
        let disc = v * v - 4.0 * r * power_w;
        if disc < 0.0 {
            return None;
        }
        // Small root: the physical branch (current → 0 as power → 0).
        Some((v - disc.sqrt()) / (2.0 * r))
    }

    /// Checks that a commanded current respects the pack's current limits.
    ///
    /// # Errors
    ///
    /// Returns [`InfeasibleControl::BatteryCurrent`] when violated.
    pub fn check_current(&self, current_a: f64) -> Result<(), InfeasibleControl> {
        let (min_a, max_a) = (-self.params.max_charge_a, self.params.max_discharge_a);
        if !(min_a..=max_a).contains(&current_a) || !current_a.is_finite() {
            return Err(InfeasibleControl::BatteryCurrent {
                current_a,
                min_a,
                max_a,
            });
        }
        Ok(())
    }

    /// State of charge after carrying `current_a` for `dt` seconds
    /// (Coulomb counting), without mutating the pack.
    pub fn soc_after(&self, current_a: f64, dt: f64) -> f64 {
        self.soc - current_a * dt / (self.params.capacity_ah * 3600.0)
    }

    /// Whether a state of charge lies inside the charge-sustaining window.
    pub fn in_window(&self, soc: f64) -> bool {
        (self.params.soc_min..=self.params.soc_max).contains(&soc)
    }

    /// Carries `current_a` for `dt` seconds, updating the state of charge.
    ///
    /// # Errors
    ///
    /// Returns [`InfeasibleControl::BatteryCurrent`] if the current
    /// violates the pack limits, or
    /// [`InfeasibleControl::BatteryWindow`] if the step would leave the
    /// charge-sustaining window; the state is unchanged on error.
    pub fn step(&mut self, current_a: f64, dt: f64) -> Result<(), InfeasibleControl> {
        self.check_current(current_a)?;
        let soc_after = self.soc_after(current_a, dt);
        if !self.in_window(soc_after) {
            return Err(InfeasibleControl::BatteryWindow {
                soc_after,
                soc_min: self.params.soc_min,
                soc_max: self.params.soc_max,
            });
        }
        self.soc = soc_after;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pack() -> Battery {
        Battery::new(BatteryParams::default(), 0.6).unwrap()
    }

    #[test]
    fn rejects_initial_soc_outside_window() {
        assert!(Battery::new(BatteryParams::default(), 0.2).is_err());
        assert!(Battery::new(BatteryParams::default(), 0.9).is_err());
    }

    #[test]
    fn capacity_fade_shrinks_capacity_and_speeds_soc_swing() {
        let mut faded = pack();
        faded.apply_capacity_fade(0.2);
        assert!((faded.params().capacity_ah - 0.8 * pack().params().capacity_ah).abs() < 1e-12);
        assert_eq!(faded.soc(), 0.6);
        // Same discharge current moves SOC further on the faded pack.
        let healthy_drop = pack().soc() - pack().soc_after(20.0, 10.0);
        let faded_drop = faded.soc() - faded.soc_after(20.0, 10.0);
        assert!(faded_drop > healthy_drop);
        assert!((faded_drop - healthy_drop / 0.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "fade must be in [0, 1)")]
    fn capacity_fade_rejects_total_fade() {
        pack().apply_capacity_fade(1.0);
    }

    #[test]
    fn ocv_rises_with_soc() {
        let b = pack();
        assert!(b.ocv_at(0.8) > b.ocv_at(0.4));
        assert!((b.ocv_at(0.6) - 306.0).abs() < 1e-9);
    }

    #[test]
    fn terminal_power_loses_to_resistance() {
        let b = pack();
        let i = 50.0;
        assert!(b.terminal_power(i) < b.ocv() * i);
        // Charging absorbs more than it stores.
        assert!(b.terminal_power(-i).abs() > b.ocv() * i);
    }

    #[test]
    fn current_for_power_roundtrips() {
        let b = pack();
        for &p in &[-15_000.0, -5_000.0, -100.0, 0.0, 100.0, 5_000.0, 20_000.0] {
            let i = b.current_for_power(p).unwrap();
            assert!((b.terminal_power(i) - p).abs() < 1e-6, "p {p}");
        }
    }

    #[test]
    fn current_for_power_none_beyond_physical_max() {
        let b = pack();
        let p_max = b.ocv().powi(2) / (4.0 * b.params().resistance_discharge_ohm);
        assert!(b.current_for_power(p_max * 1.01).is_none());
    }

    #[test]
    fn coulomb_counting_discharge() {
        let mut b = pack();
        // 26 Ah pack: 26 A for 1 hour = full capacity.
        b.step(26.0, 360.0).unwrap(); // 1/10 of an hour
        assert!((b.soc() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn coulomb_counting_charge() {
        let mut b = pack();
        b.step(-26.0, 360.0).unwrap();
        assert!((b.soc() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn step_rejects_over_current() {
        let mut b = pack();
        assert!(matches!(
            b.step(500.0, 1.0),
            Err(InfeasibleControl::BatteryCurrent { .. })
        ));
        assert_eq!(b.soc(), 0.6);
    }

    #[test]
    fn step_rejects_window_exit() {
        let mut b = Battery::new(BatteryParams::default(), 0.4).unwrap();
        let err = b.step(100.0, 3600.0).unwrap_err();
        assert!(matches!(err, InfeasibleControl::BatteryWindow { .. }));
        assert_eq!(b.soc(), 0.4);
    }

    #[test]
    fn reset_allows_any_physical_soc() {
        let mut b = pack();
        b.reset(0.75);
        assert_eq!(b.soc(), 0.75);
    }

    #[test]
    #[should_panic(expected = "soc must be in [0, 1]")]
    fn reset_panics_outside_physical_range() {
        pack().reset(1.5);
    }
}
