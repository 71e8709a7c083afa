//! Longitudinal vehicle dynamics (paper Eq. 5–7).
//!
//! Backward-looking formulation: given the driver-imposed speed,
//! acceleration, and road grade, compute the tractive force, wheel torque,
//! wheel speed, and propulsion power demand.

use crate::error::ParamError;
use crate::params::{BodyParams, AIR_DENSITY, GRAVITY};
use serde::{Deserialize, Serialize};

/// Demand at the wheels for one simulation step.
///
/// The `Default` value is the all-zero demand: stationary on flat road.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WheelDemand {
    /// Vehicle speed, m/s.
    pub speed_mps: f64,
    /// Vehicle acceleration, m/s².
    pub accel_mps2: f64,
    /// Road grade (dimensionless slope).
    pub grade: f64,
    /// Tractive force `F_TR`, N (negative while braking).
    pub tractive_force_n: f64,
    /// Wheel torque `T_wh`, N·m.
    pub wheel_torque_nm: f64,
    /// Wheel speed `ω_wh`, rad/s.
    pub wheel_speed_rad_s: f64,
    /// Propulsion power demand `p_dem = F_TR·v`, W.
    pub power_demand_w: f64,
}

/// Rigid-body longitudinal vehicle model.
///
/// # Examples
///
/// ```
/// use hev_model::{BodyParams, VehicleBody};
///
/// let body = VehicleBody::new(BodyParams::default())?;
/// let demand = body.demand(15.0, 0.5, 0.0); // 54 km/h, gentle accel
/// assert!(demand.power_demand_w > 0.0);
/// # Ok::<(), hev_model::ParamError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VehicleBody {
    params: BodyParams,
}

impl VehicleBody {
    /// Creates a body model from validated parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] if the parameters are invalid.
    pub fn new(params: BodyParams) -> Result<Self, ParamError> {
        params.validate()?;
        Ok(Self { params })
    }

    /// The body parameters.
    pub fn params(&self) -> &BodyParams {
        &self.params
    }

    /// Tractive force `F_TR = m·a + F_g + F_R + F_AD` (Eq. 5), N.
    ///
    /// Rolling resistance only applies while moving.
    pub fn tractive_force(&self, speed_mps: f64, accel_mps2: f64, grade: f64) -> f64 {
        let p = &self.params;
        let theta = grade.atan();
        let m_eff = p.mass_kg * p.rotating_mass_factor;
        let f_inertia = m_eff * accel_mps2;
        let f_grade = p.mass_kg * GRAVITY * theta.sin();
        let f_roll = if speed_mps > 1e-3 {
            p.mass_kg * GRAVITY * theta.cos() * p.rolling_coefficient
        } else {
            0.0
        };
        let f_drag =
            0.5 * AIR_DENSITY * p.drag_coefficient * p.frontal_area_m2 * speed_mps * speed_mps;
        f_inertia + f_grade + f_roll + f_drag
    }

    /// Wheel speed `ω_wh = v / r_wh` (Eq. 6), rad/s.
    fn wheel_speed(&self, speed_mps: f64) -> f64 {
        speed_mps / self.params.wheel_radius_m
    }

    /// Complete wheel-level demand for a `(v, a, grade)` sample
    /// (Eq. 5–7).
    pub fn demand(&self, speed_mps: f64, accel_mps2: f64, grade: f64) -> WheelDemand {
        let f = self.tractive_force(speed_mps, accel_mps2, grade);
        WheelDemand {
            speed_mps,
            accel_mps2,
            grade,
            tractive_force_n: f,
            wheel_torque_nm: f * self.params.wheel_radius_m,
            wheel_speed_rad_s: self.wheel_speed(speed_mps),
            power_demand_w: f * speed_mps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body() -> VehicleBody {
        VehicleBody::new(BodyParams::default()).unwrap()
    }

    #[test]
    fn cruise_force_is_resistive_only() {
        let b = body();
        let f = b.tractive_force(20.0, 0.0, 0.0);
        let expected_roll = 1350.0 * GRAVITY * 0.009;
        let expected_drag = 0.5 * AIR_DENSITY * 0.30 * 2.0 * 400.0;
        assert!((f - (expected_roll + expected_drag)).abs() < 1e-9);
    }

    #[test]
    fn acceleration_dominates_at_low_speed() {
        let b = body();
        let f = b.tractive_force(5.0, 1.5, 0.0);
        assert!(f > 1350.0 * 1.04 * 1.5);
        assert!(f < 1350.0 * 1.04 * 1.5 + 400.0);
    }

    #[test]
    fn braking_force_is_negative() {
        let b = body();
        assert!(b.tractive_force(15.0, -2.0, 0.0) < 0.0);
    }

    #[test]
    fn uphill_adds_grade_force() {
        let b = body();
        let flat = b.tractive_force(15.0, 0.0, 0.0);
        let hill = b.tractive_force(15.0, 0.0, 0.05);
        assert!(hill - flat > 1350.0 * GRAVITY * 0.049);
    }

    #[test]
    fn downhill_can_require_braking() {
        let b = body();
        assert!(b.tractive_force(5.0, 0.0, -0.10) < 0.0);
    }

    #[test]
    fn no_rolling_resistance_at_rest() {
        let b = body();
        assert_eq!(b.tractive_force(0.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn power_equals_torque_times_speed() {
        let b = body();
        let d = b.demand(20.0, 0.3, 0.01);
        assert!((d.power_demand_w - d.wheel_torque_nm * d.wheel_speed_rad_s).abs() < 1e-6);
    }

    #[test]
    fn wheel_speed_scales_with_radius() {
        let b = body();
        assert!((b.wheel_speed(28.2) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn highway_cruise_power_realistic() {
        // ~100 km/h cruise should demand roughly 10–20 kW for this class.
        let b = body();
        let d = b.demand(27.8, 0.0, 0.0);
        assert!(
            (8_000.0..22_000.0).contains(&d.power_demand_w),
            "power {}",
            d.power_demand_w
        );
    }
}
