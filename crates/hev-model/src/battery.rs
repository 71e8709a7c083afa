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
    /// Pack temperature, °C; tracked only when the thermal model is
    /// enabled.
    temperature_c: Option<f64>,
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
        let temperature_c = params.thermal.map(|t| t.initial_c);
        Ok(Self {
            params,
            soc: initial_soc,
            temperature_c,
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

    /// Internal resistance for the given current direction, Ω, scaled by
    /// the thermal model's cold penalty when enabled.
    fn resistance(&self, current_a: f64) -> f64 {
        let base = if current_a >= 0.0 {
            self.params.resistance_discharge_ohm
        } else {
            self.params.resistance_charge_ohm
        };
        base * self.thermal_resistance_factor()
    }

    /// The multiplicative resistance factor from the thermal model
    /// (1 when disabled or at/above the reference temperature).
    fn thermal_resistance_factor(&self) -> f64 {
        match (self.params.thermal, self.temperature_c) {
            (Some(t), Some(temp)) => {
                1.0 + t.cold_resistance_per_k * (t.reference_c - temp).max(0.0)
            }
            _ => 1.0,
        }
    }

    /// Pack temperature, °C; `None` when the thermal model is disabled.
    pub fn temperature_c(&self) -> Option<f64> {
        self.temperature_c
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
        let r = if power_w >= 0.0 {
            self.params.resistance_discharge_ohm
        } else {
            self.params.resistance_charge_ohm
        } * self.thermal_resistance_factor();
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
        if let (Some(t), Some(temp)) = (self.params.thermal, self.temperature_c) {
            // Lumped thermal step: Joule heat in, Newtonian cooling out.
            let heat_w = self.resistance(current_a) * current_a * current_a;
            let cooling_w = t.cooling_w_per_k * (temp - t.ambient_c);
            self.temperature_c = Some(temp + (heat_w - cooling_w) * dt / t.heat_capacity_j_per_k);
        }
        Ok(())
    }

    /// Resets the pack temperature to the thermal model's initial value
    /// (no-op when the model is disabled).
    pub fn reset_temperature(&mut self) {
        self.temperature_c = self.params.thermal.map(|t| t.initial_c);
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

    fn thermal_pack(initial_c: f64) -> Battery {
        let params = BatteryParams {
            thermal: Some(crate::params::BatteryThermalParams {
                initial_c,
                ..Default::default()
            }),
            ..BatteryParams::default()
        };
        Battery::new(params, 0.6).unwrap()
    }

    #[test]
    fn thermal_disabled_by_default() {
        let b = pack();
        assert_eq!(b.temperature_c(), None);
        assert_eq!(b.thermal_resistance_factor(), 1.0);
    }

    #[test]
    fn cold_pack_has_higher_resistance() {
        let cold = thermal_pack(-15.0);
        let warm = thermal_pack(25.0);
        assert!(cold.resistance(50.0) > warm.resistance(50.0));
        // −15 °C is 40 K below reference: factor 1 + 0.02·40 = 1.8.
        assert!((cold.thermal_resistance_factor() - 1.8).abs() < 1e-12);
        // At/above reference there is no penalty.
        assert_eq!(warm.thermal_resistance_factor(), 1.0);
    }

    #[test]
    fn sustained_current_warms_the_pack() {
        let mut b = thermal_pack(0.0);
        let t0 = b.temperature_c().unwrap();
        for _ in 0..60 {
            b.step(50.0, 1.0).unwrap();
        }
        let t1 = b.temperature_c().unwrap();
        assert!(t1 > t0, "pack did not warm: {t0} -> {t1}");
        // Warming reduces the cold penalty.
        assert!(b.thermal_resistance_factor() < 1.5);
    }

    #[test]
    fn idle_pack_relaxes_toward_ambient() {
        let mut b = thermal_pack(50.0);
        for _ in 0..600 {
            b.step(0.0, 10.0).unwrap();
        }
        let t = b.temperature_c().unwrap();
        assert!(
            (t - 25.0).abs() < 2.0,
            "temperature {t} did not relax to ambient"
        );
    }

    #[test]
    fn reset_temperature_restores_initial() {
        let mut b = thermal_pack(-10.0);
        for _ in 0..100 {
            b.step(60.0, 1.0).unwrap();
        }
        b.reset_temperature();
        assert_eq!(b.temperature_c(), Some(-10.0));
    }
}
