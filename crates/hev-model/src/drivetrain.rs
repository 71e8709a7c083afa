//! Drivetrain mechanics: gearbox and ICE/EM torque coupling
//! (paper Eq. 8–10).

use crate::error::{InfeasibleControl, ParamError};
use crate::params::DrivetrainParams;
use serde::{Deserialize, Serialize};

/// Gearbox plus the reduction gear coupling the electric machine to the
/// engine shaft.
///
/// Speeds follow Eq. 8: `ω_wh = ω_ICE / R(k) = ω_EM / (R(k)·ρ_reg)`, and
/// torques `T_wh = R(k)·(T_ICE + ρ_reg·T_EM·η_reg^α)·η_gb^β` with the sign
/// exponents of Eq. 9–10.
///
/// # Examples
///
/// ```
/// use hev_model::{Drivetrain, DrivetrainParams};
///
/// let dt = Drivetrain::new(DrivetrainParams::default())?;
/// let w_wh = 40.0;
/// assert!(dt.ice_speed(w_wh, 0) > dt.ice_speed(w_wh, 4)); // 1st gear spins faster
/// # Ok::<(), hev_model::ParamError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Drivetrain {
    params: DrivetrainParams,
}

impl Drivetrain {
    /// Creates a drivetrain from validated parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] if the parameters are invalid.
    pub fn new(params: DrivetrainParams) -> Result<Self, ParamError> {
        params.validate()?;
        Ok(Self { params })
    }

    /// The drivetrain parameters.
    pub fn params(&self) -> &DrivetrainParams {
        &self.params
    }

    /// Number of gears.
    #[inline]
    pub fn num_gears(&self) -> usize {
        self.params.gear_ratios.len()
    }

    /// Overall ratio `R(k)` of gear `k`.
    ///
    /// # Errors
    ///
    /// Returns [`InfeasibleControl::InvalidGear`] for an out-of-range
    /// index.
    #[inline]
    pub fn ratio(&self, gear: usize) -> Result<f64, InfeasibleControl> {
        self.params
            .gear_ratios
            .get(gear)
            .copied()
            .ok_or(InfeasibleControl::InvalidGear {
                gear,
                num_gears: self.num_gears(),
            })
    }

    /// Engine shaft speed for a wheel speed in gear `k`, rad/s (Eq. 8).
    ///
    /// # Panics
    ///
    /// Panics if `gear` is out of range (use [`Drivetrain::ratio`] to
    /// validate first).
    pub fn ice_speed(&self, wheel_speed_rad_s: f64, gear: usize) -> f64 {
        wheel_speed_rad_s * self.params.gear_ratios[gear]
    }

    /// Electric-machine shaft speed for a wheel speed in gear `k`, rad/s
    /// (Eq. 8).
    ///
    /// # Panics
    ///
    /// Panics if `gear` is out of range.
    pub fn em_speed(&self, wheel_speed_rad_s: f64, gear: usize) -> f64 {
        self.ice_speed(wheel_speed_rad_s, gear) * self.params.reduction_ratio
    }

    /// The electric machine's torque contribution at the engine shaft:
    /// `ρ_reg·T_EM·η_reg^α` with α per Eq. 9.
    pub fn em_shaft_torque(&self, em_torque_nm: f64) -> f64 {
        let p = &self.params;
        if em_torque_nm >= 0.0 {
            p.reduction_ratio * em_torque_nm * p.reduction_efficiency
        } else {
            p.reduction_ratio * em_torque_nm / p.reduction_efficiency
        }
    }

    /// Wheel torque produced by engine torque `T_ICE` and machine torque
    /// `T_EM` in gear `k` (Eq. 8–10).
    ///
    /// # Panics
    ///
    /// Panics if `gear` is out of range.
    pub fn wheel_torque(&self, ice_torque_nm: f64, em_torque_nm: f64, gear: usize) -> f64 {
        let p = &self.params;
        let coupled = ice_torque_nm + self.em_shaft_torque(em_torque_nm);
        let eta_gb = if coupled >= 0.0 {
            p.gearbox_efficiency
        } else {
            1.0 / p.gearbox_efficiency
        };
        p.gear_ratios[gear] * coupled * eta_gb
    }

    /// The combined shaft torque `T_ICE + ρ_reg·T_EM·η_reg^α` required to
    /// realize wheel torque `T_wh` in gear `k` (inverse of Eq. 8).
    ///
    /// # Panics
    ///
    /// Panics if `gear` is out of range.
    pub fn required_shaft_torque(&self, wheel_torque_nm: f64, gear: usize) -> f64 {
        let p = &self.params;
        let r = p.gear_ratios[gear];
        // The coupled torque has the same sign as the wheel torque, so the
        // gearbox exponent β follows the wheel-torque sign.
        if wheel_torque_nm >= 0.0 {
            wheel_torque_nm / (r * p.gearbox_efficiency)
        } else {
            wheel_torque_nm * p.gearbox_efficiency / r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dt() -> Drivetrain {
        Drivetrain::new(DrivetrainParams::default()).unwrap()
    }

    #[test]
    fn ratio_validates_gear_index() {
        let d = dt();
        assert!(d.ratio(0).is_ok());
        assert!(matches!(
            d.ratio(7),
            Err(InfeasibleControl::InvalidGear {
                gear: 7,
                num_gears: 5
            })
        ));
    }

    #[test]
    fn speeds_scale_with_ratio() {
        let d = dt();
        let w_wh = 30.0;
        assert!((d.ice_speed(w_wh, 0) - 30.0 * 14.01).abs() < 1e-9);
        assert!((d.em_speed(w_wh, 0) - 30.0 * 14.01 * 2.0).abs() < 1e-9);
    }

    #[test]
    fn forward_and_inverse_torque_agree_for_ice_only() {
        let d = dt();
        for gear in 0..d.num_gears() {
            for t_wh in [-300.0, -50.0, 50.0, 400.0] {
                let shaft = d.required_shaft_torque(t_wh, gear);
                let back = d.wheel_torque(shaft, 0.0, gear);
                assert!((back - t_wh).abs() < 1e-9, "gear {gear} t {t_wh}");
            }
        }
    }

    #[test]
    fn em_contribution_loses_through_reduction_both_ways() {
        let d = dt();
        // Motoring: 10 N·m at the machine arrives as < ρ·10 at the shaft.
        assert!(d.em_shaft_torque(10.0) < 2.0 * 10.0);
        // Generating: extracting 10 N·m at the machine drags > ρ·10.
        assert!(d.em_shaft_torque(-10.0) < -2.0 * 10.0);
    }

    #[test]
    fn propulsion_loses_braking_gains_through_gearbox() {
        let d = dt();
        let forward = d.wheel_torque(10.0, 0.0, 2);
        assert!(forward < 10.0 * 5.20);
        let braking = d.wheel_torque(-10.0, 0.0, 2);
        assert!(braking < -10.0 * 5.20); // more negative: losses work against you
    }

    #[test]
    fn hybrid_torque_superposes() {
        let d = dt();
        let both = d.wheel_torque(20.0, 10.0, 1);
        let ice_only = d.wheel_torque(20.0, 0.0, 1);
        assert!(both > ice_only);
    }

    #[test]
    fn rejects_invalid_params() {
        let p = DrivetrainParams {
            gearbox_efficiency: 1.5,
            ..Default::default()
        };
        assert!(Drivetrain::new(p).is_err());
    }
}
