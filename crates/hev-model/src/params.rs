//! Parameter sets for every powertrain component, with validation.
//!
//! The default parameter set, [`HevParams::default_parallel_hev`], models a
//! mid-size parallel HEV of the class ADVISOR ships as its default parallel
//! configuration (≈1350 kg, 57 kW SI engine, 25 kW PM machine, 26 Ah pack,
//! 5-speed gearbox). The DAC'15 paper's own Table 1 is reproduced by the
//! `repro -- table1` bench target from these values.

use crate::error::ParamError;
use serde::{Deserialize, Serialize};

/// Standard gravity, m/s².
pub const GRAVITY: f64 = 9.81;
/// Air density at sea level, kg/m³.
pub const AIR_DENSITY: f64 = 1.2;
/// Lower heating value of gasoline, J/g (the paper's fuel energy density
/// `D_f`).
pub const FUEL_LHV_J_PER_G: f64 = 42_600.0;
/// Mass of one US gallon of gasoline, grams (0.749 kg/L × 3.785 L).
pub const FUEL_G_PER_GALLON: f64 = 2835.0;
/// Conversion from rpm to rad/s.
pub const RPM_TO_RAD_S: f64 = std::f64::consts::PI / 30.0;

/// Chassis and tire parameters (Eq. 5–7 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BodyParams {
    /// Curb mass plus driver, kg.
    pub mass_kg: f64,
    /// Factor applied to `mass_kg` to account for rotating inertia.
    pub rotating_mass_factor: f64,
    /// Aerodynamic drag coefficient `C_D`.
    pub drag_coefficient: f64,
    /// Frontal area `A_F`, m².
    pub frontal_area_m2: f64,
    /// Rolling friction coefficient `C_R`.
    pub rolling_coefficient: f64,
    /// Wheel radius `r_wh`, m.
    pub wheel_radius_m: f64,
}

impl BodyParams {
    /// Validates physical plausibility.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] naming the first violated field.
    pub fn validate(&self) -> Result<(), ParamError> {
        if !(self.mass_kg.is_finite() && self.mass_kg > 0.0) {
            return Err(ParamError::new("mass_kg", "must be positive"));
        }
        if self.rotating_mass_factor < 1.0 {
            return Err(ParamError::new("rotating_mass_factor", "must be >= 1"));
        }
        if !(self.drag_coefficient > 0.0 && self.drag_coefficient < 1.0) {
            return Err(ParamError::new("drag_coefficient", "must be in (0, 1)"));
        }
        if self.frontal_area_m2 <= 0.0 {
            return Err(ParamError::new("frontal_area_m2", "must be positive"));
        }
        if !(self.rolling_coefficient > 0.0 && self.rolling_coefficient < 0.1) {
            return Err(ParamError::new(
                "rolling_coefficient",
                "must be in (0, 0.1)",
            ));
        }
        if self.wheel_radius_m <= 0.0 {
            return Err(ParamError::new("wheel_radius_m", "must be positive"));
        }
        Ok(())
    }
}

impl Default for BodyParams {
    fn default() -> Self {
        Self {
            mass_kg: 1350.0,
            rotating_mass_factor: 1.04,
            drag_coefficient: 0.30,
            frontal_area_m2: 2.0,
            rolling_coefficient: 0.009,
            wheel_radius_m: 0.282,
        }
    }
}

/// Internal-combustion-engine parameters (quasi-static model, Eq. 1–2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IceParams {
    /// Wide-open-throttle torque curve as `(speed rad/s, torque N·m)`
    /// knots; linearly interpolated, strictly increasing in speed.
    pub max_torque_curve: Vec<(f64, f64)>,
    /// Idle speed, rad/s (minimum speed when running).
    pub idle_speed_rad_s: f64,
    /// Redline, rad/s.
    pub max_speed_rad_s: f64,
    /// Peak brake thermal efficiency.
    pub peak_efficiency: f64,
    /// Load ratio (torque / max torque) at which efficiency peaks.
    pub best_load_ratio: f64,
    /// Width of the load-efficiency parabola (larger = flatter map).
    pub load_span: f64,
    /// Speed at which efficiency peaks, rad/s.
    pub best_speed_rad_s: f64,
    /// Width of the speed-efficiency parabola, rad/s.
    pub speed_span_rad_s: f64,
    /// Fuel flow when idling unloaded, g/s.
    pub idle_fuel_g_per_s: f64,
    /// Extra fuel burned by a cold restart of the (stopped) engine, g.
    /// Discourages on/off churn, as in real stop-start calibrations.
    pub start_fuel_penalty_g: f64,
    /// Fuel lower heating value `D_f`, J/g.
    pub fuel_lhv_j_per_g: f64,
}

impl IceParams {
    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] naming the first violated field.
    pub fn validate(&self) -> Result<(), ParamError> {
        if self.max_torque_curve.len() < 2 {
            return Err(ParamError::new(
                "max_torque_curve",
                "needs at least two knots",
            ));
        }
        for w in self.max_torque_curve.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(ParamError::new(
                    "max_torque_curve",
                    "knot speeds must be strictly increasing",
                ));
            }
        }
        if self.max_torque_curve.iter().any(|&(_, t)| t <= 0.0) {
            return Err(ParamError::new(
                "max_torque_curve",
                "torques must be positive",
            ));
        }
        if self.idle_speed_rad_s <= 0.0 || self.idle_speed_rad_s >= self.max_speed_rad_s {
            return Err(ParamError::new(
                "idle_speed_rad_s",
                "must be in (0, max_speed)",
            ));
        }
        if !(self.peak_efficiency > 0.0 && self.peak_efficiency < 0.6) {
            return Err(ParamError::new("peak_efficiency", "must be in (0, 0.6)"));
        }
        if !(self.best_load_ratio > 0.0 && self.best_load_ratio <= 1.0) {
            return Err(ParamError::new("best_load_ratio", "must be in (0, 1]"));
        }
        if self.load_span <= 0.0 || self.speed_span_rad_s <= 0.0 {
            return Err(ParamError::new("load_span", "spans must be positive"));
        }
        if self.idle_fuel_g_per_s < 0.0 {
            return Err(ParamError::new("idle_fuel_g_per_s", "must be non-negative"));
        }
        if self.start_fuel_penalty_g < 0.0 {
            return Err(ParamError::new(
                "start_fuel_penalty_g",
                "must be non-negative",
            ));
        }
        if self.fuel_lhv_j_per_g <= 0.0 {
            return Err(ParamError::new("fuel_lhv_j_per_g", "must be positive"));
        }
        Ok(())
    }

    /// Rated power: maximum of `T_max(ω)·ω` over the torque curve knots, W.
    pub fn rated_power_w(&self) -> f64 {
        self.max_torque_curve
            .iter()
            .map(|&(w, t)| w * t)
            .fold(0.0, f64::max)
    }
}

impl Default for IceParams {
    fn default() -> Self {
        Self {
            // 1.0–1.3 L SI engine class: ~108 N·m peak, 57 kW near 5000 rpm.
            max_torque_curve: vec![
                (1000.0 * RPM_TO_RAD_S, 75.0),
                (2000.0 * RPM_TO_RAD_S, 95.0),
                (3000.0 * RPM_TO_RAD_S, 105.0),
                (4000.0 * RPM_TO_RAD_S, 108.0),
                (5000.0 * RPM_TO_RAD_S, 105.0),
                (5500.0 * RPM_TO_RAD_S, 98.0),
            ],
            idle_speed_rad_s: 1000.0 * RPM_TO_RAD_S,
            max_speed_rad_s: 5500.0 * RPM_TO_RAD_S,
            peak_efficiency: 0.36,
            best_load_ratio: 0.8,
            load_span: 0.9,
            best_speed_rad_s: 2500.0 * RPM_TO_RAD_S,
            speed_span_rad_s: 500.0,
            idle_fuel_g_per_s: 0.15,
            start_fuel_penalty_g: 0.25,
            fuel_lhv_j_per_g: FUEL_LHV_J_PER_G,
        }
    }
}

/// Electric-machine parameters (loss-model formulation of Eq. 3–4).
///
/// Losses follow the standard separable model
/// `P_loss = k_c·T² + k_i·ω + k_w·ω³ + c0`, which is analytically
/// invertible: given an electrical power and shaft speed the torque is the
/// root of a quadratic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MotorParams {
    /// Continuous torque limit below base speed, N·m.
    pub max_torque_nm: f64,
    /// Rated (continuous) power, W; above base speed the torque envelope
    /// is `rated_power / ω`.
    pub rated_power_w: f64,
    /// Maximum shaft speed, rad/s.
    pub max_speed_rad_s: f64,
    /// Copper-loss coefficient `k_c`, W/(N·m)².
    pub copper_loss: f64,
    /// Iron-loss coefficient `k_i`, W/(rad/s).
    pub iron_loss: f64,
    /// Windage-loss coefficient `k_w`, W/(rad/s)³.
    pub windage_loss: f64,
    /// Constant electronics loss `c0`, W (applies whenever the machine is
    /// energized).
    pub constant_loss: f64,
}

impl MotorParams {
    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] naming the first violated field.
    pub fn validate(&self) -> Result<(), ParamError> {
        if self.max_torque_nm <= 0.0 {
            return Err(ParamError::new("max_torque_nm", "must be positive"));
        }
        if self.rated_power_w <= 0.0 {
            return Err(ParamError::new("rated_power_w", "must be positive"));
        }
        if self.max_speed_rad_s <= 0.0 {
            return Err(ParamError::new("max_speed_rad_s", "must be positive"));
        }
        if self.copper_loss <= 0.0 {
            return Err(ParamError::new("copper_loss", "must be positive"));
        }
        if self.iron_loss < 0.0 || self.windage_loss < 0.0 || self.constant_loss < 0.0 {
            return Err(ParamError::new(
                "iron_loss",
                "loss terms must be non-negative",
            ));
        }
        Ok(())
    }

    /// Base speed: the speed where the constant-torque and constant-power
    /// envelopes meet, rad/s.
    pub fn base_speed_rad_s(&self) -> f64 {
        self.rated_power_w / self.max_torque_nm
    }
}

impl Default for MotorParams {
    fn default() -> Self {
        Self {
            max_torque_nm: 85.0,
            rated_power_w: 25_000.0,
            max_speed_rad_s: 1047.0, // 10 000 rpm
            copper_loss: 0.40,
            iron_loss: 0.60,
            windage_loss: 2.0e-7,
            constant_loss: 50.0,
        }
    }
}

/// Battery-pack parameters (Rint equivalent-circuit model).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatteryParams {
    /// Pack capacity, ampere-hours.
    pub capacity_ah: f64,
    /// Open-circuit voltage at 0 % state of charge, V.
    pub ocv_at_empty_v: f64,
    /// Open-circuit-voltage rise from 0 % to 100 % state of charge, V.
    pub ocv_span_v: f64,
    /// Internal resistance while discharging, Ω.
    pub resistance_discharge_ohm: f64,
    /// Internal resistance while charging, Ω.
    pub resistance_charge_ohm: f64,
    /// Maximum discharge current, A (positive).
    pub max_discharge_a: f64,
    /// Maximum charge current magnitude, A (positive).
    pub max_charge_a: f64,
    /// Lower bound of the charge-sustaining window (fraction of capacity).
    pub soc_min: f64,
    /// Upper bound of the charge-sustaining window (fraction of capacity).
    pub soc_max: f64,
}

impl BatteryParams {
    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] naming the first violated field.
    pub fn validate(&self) -> Result<(), ParamError> {
        if self.capacity_ah <= 0.0 {
            return Err(ParamError::new("capacity_ah", "must be positive"));
        }
        if self.ocv_at_empty_v <= 0.0 || self.ocv_span_v < 0.0 {
            return Err(ParamError::new(
                "ocv_at_empty_v",
                "voltages must be positive",
            ));
        }
        if self.resistance_discharge_ohm <= 0.0 || self.resistance_charge_ohm <= 0.0 {
            return Err(ParamError::new(
                "resistance_discharge_ohm",
                "resistances must be positive",
            ));
        }
        if self.max_discharge_a <= 0.0 || self.max_charge_a <= 0.0 {
            return Err(ParamError::new(
                "max_discharge_a",
                "current limits must be positive",
            ));
        }
        if !(0.0 <= self.soc_min && self.soc_min < self.soc_max && self.soc_max <= 1.0) {
            return Err(ParamError::new(
                "soc_min",
                "need 0 <= soc_min < soc_max <= 1",
            ));
        }
        Ok(())
    }

    /// Nominal energy content of the pack at mid-window OCV, Wh.
    pub fn nominal_energy_wh(&self) -> f64 {
        let mid_ocv = self.ocv_at_empty_v + 0.5 * self.ocv_span_v;
        mid_ocv * self.capacity_ah
    }
}

impl Default for BatteryParams {
    fn default() -> Self {
        Self {
            capacity_ah: 26.0,
            ocv_at_empty_v: 270.0,
            ocv_span_v: 60.0,
            resistance_discharge_ohm: 0.30,
            resistance_charge_ohm: 0.36,
            max_discharge_a: 120.0,
            max_charge_a: 80.0,
            soc_min: 0.40,
            soc_max: 0.80,
        }
    }
}

/// Gearbox and torque-coupling parameters (Eq. 8–10).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrivetrainParams {
    /// Overall ratio per gear `R(k)` (gearbox × final drive), indexed by
    /// gear number starting at 0; strictly decreasing.
    pub gear_ratios: Vec<f64>,
    /// Gearbox efficiency `η_gb`.
    pub gearbox_efficiency: f64,
    /// Ratio `ρ_reg` of the reduction gear coupling the motor to the shaft.
    pub reduction_ratio: f64,
    /// Reduction-gear efficiency `η_reg`.
    pub reduction_efficiency: f64,
}

impl DrivetrainParams {
    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] naming the first violated field.
    pub fn validate(&self) -> Result<(), ParamError> {
        if self.gear_ratios.is_empty() {
            return Err(ParamError::new("gear_ratios", "need at least one gear"));
        }
        if self.gear_ratios.iter().any(|&r| r <= 0.0) {
            return Err(ParamError::new("gear_ratios", "ratios must be positive"));
        }
        for w in self.gear_ratios.windows(2) {
            if w[1] >= w[0] {
                return Err(ParamError::new(
                    "gear_ratios",
                    "ratios must be strictly decreasing from 1st gear",
                ));
            }
        }
        if !(self.gearbox_efficiency > 0.0 && self.gearbox_efficiency <= 1.0) {
            return Err(ParamError::new("gearbox_efficiency", "must be in (0, 1]"));
        }
        if self.reduction_ratio <= 0.0 {
            return Err(ParamError::new("reduction_ratio", "must be positive"));
        }
        if !(self.reduction_efficiency > 0.0 && self.reduction_efficiency <= 1.0) {
            return Err(ParamError::new("reduction_efficiency", "must be in (0, 1]"));
        }
        Ok(())
    }

    /// Number of gears.
    pub fn num_gears(&self) -> usize {
        self.gear_ratios.len()
    }
}

impl Default for DrivetrainParams {
    fn default() -> Self {
        // 5-speed box [3.45, 1.94, 1.28, 0.97, 0.76] × final drive 4.06.
        Self {
            gear_ratios: vec![14.01, 7.88, 5.20, 3.94, 3.09],
            gearbox_efficiency: 0.95,
            reduction_ratio: 2.0,
            reduction_efficiency: 0.97,
        }
    }
}

/// Auxiliary-system parameters (§2.1.5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuxParams {
    /// Base load that must always be supplied (ECU, lights minimum), W.
    pub min_power_w: f64,
    /// Maximum combined auxiliary power, W.
    pub max_power_w: f64,
    /// Most desirable operating power (peak of the utility function), W.
    /// The paper's evaluation uses 600 W.
    pub preferred_power_w: f64,
    /// Half-width of the utility parabola, W: utility reaches zero at
    /// `preferred ± scale`.
    pub utility_scale_w: f64,
}

impl AuxParams {
    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] naming the first violated field.
    pub fn validate(&self) -> Result<(), ParamError> {
        if self.min_power_w < 0.0 {
            return Err(ParamError::new("min_power_w", "must be non-negative"));
        }
        if self.max_power_w <= self.min_power_w {
            return Err(ParamError::new("max_power_w", "must exceed min_power_w"));
        }
        if !(self.min_power_w..=self.max_power_w).contains(&self.preferred_power_w) {
            return Err(ParamError::new(
                "preferred_power_w",
                "must lie within [min_power_w, max_power_w]",
            ));
        }
        if self.utility_scale_w <= 0.0 {
            return Err(ParamError::new("utility_scale_w", "must be positive"));
        }
        Ok(())
    }
}

impl Default for AuxParams {
    fn default() -> Self {
        Self {
            min_power_w: 100.0,
            max_power_w: 1500.0,
            preferred_power_w: 600.0,
            utility_scale_w: 600.0,
        }
    }
}

/// Complete parameter set for a parallel HEV.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HevParams {
    /// Chassis/tires.
    pub body: BodyParams,
    /// Engine.
    pub ice: IceParams,
    /// Electric machine.
    pub motor: MotorParams,
    /// Battery pack.
    pub battery: BatteryParams,
    /// Gearbox and coupling.
    pub drivetrain: DrivetrainParams,
    /// Auxiliary systems.
    pub aux: AuxParams,
}

impl HevParams {
    /// The default mid-size parallel HEV used throughout the reproduction
    /// (see module docs). Identical to `HevParams::default()`.
    pub fn default_parallel_hev() -> Self {
        Self::default()
    }

    /// Validates every component parameter set.
    ///
    /// # Errors
    ///
    /// Returns the first [`ParamError`] found.
    pub fn validate(&self) -> Result<(), ParamError> {
        self.body.validate()?;
        self.ice.validate()?;
        self.motor.validate()?;
        self.battery.validate()?;
        self.drivetrain.validate()?;
        self.aux.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_validate() {
        HevParams::default_parallel_hev().validate().unwrap();
    }

    #[test]
    fn rated_engine_power_near_57_kw() {
        let p = IceParams::default().rated_power_w();
        assert!((50_000.0..60_000.0).contains(&p), "rated {p} W");
    }

    #[test]
    fn motor_base_speed_reasonable() {
        let m = MotorParams::default();
        let base = m.base_speed_rad_s();
        assert!((200.0..400.0).contains(&base));
    }

    #[test]
    fn battery_energy_in_hev_range() {
        let e = BatteryParams::default().nominal_energy_wh();
        assert!((4_000.0..10_000.0).contains(&e), "energy {e} Wh");
    }

    #[test]
    fn body_rejects_negative_mass() {
        let b = BodyParams {
            mass_kg: -1.0,
            ..Default::default()
        };
        assert_eq!(b.validate().unwrap_err().field, "mass_kg");
    }

    #[test]
    fn ice_rejects_single_knot() {
        let mut p = IceParams::default();
        p.max_torque_curve.truncate(1);
        assert_eq!(p.validate().unwrap_err().field, "max_torque_curve");
    }

    #[test]
    fn ice_rejects_unsorted_curve() {
        let mut p = IceParams::default();
        p.max_torque_curve.swap(0, 1);
        assert!(p.validate().is_err());
    }

    #[test]
    fn battery_rejects_inverted_window() {
        let b = BatteryParams {
            soc_min: 0.9,
            ..Default::default()
        };
        assert_eq!(b.validate().unwrap_err().field, "soc_min");
    }

    #[test]
    fn drivetrain_rejects_increasing_ratios() {
        let d = DrivetrainParams {
            gear_ratios: vec![3.0, 5.0],
            ..Default::default()
        };
        assert!(d.validate().is_err());
    }

    #[test]
    fn aux_rejects_preferred_outside_range() {
        let a = AuxParams {
            preferred_power_w: 5_000.0,
            ..Default::default()
        };
        assert_eq!(a.validate().unwrap_err().field, "preferred_power_w");
    }

    #[test]
    fn gear_count_matches() {
        assert_eq!(DrivetrainParams::default().num_gears(), 5);
    }
}
