//! Error types for the HEV model.

use std::error::Error;
use std::fmt;

/// Error returned when a parameter set fails validation.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamError {
    /// The parameter (or parameter group) that failed validation.
    pub field: &'static str,
    /// Human-readable description of the violation.
    pub reason: String,
}

impl ParamError {
    pub(crate) fn new(field: &'static str, reason: impl Into<String>) -> Self {
        Self {
            field,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid parameter `{}`: {}", self.field, self.reason)
    }
}

impl Error for ParamError {}

/// Reason a control input cannot be realized by the powertrain at the
/// current operating point.
///
/// Controllers use these as *action masks*: an action whose
/// [`ParallelHev::peek`](crate::vehicle::ParallelHev::peek) returns an
/// `InfeasibleControl` must not be selected.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // variant fields carry self-describing names/units
pub enum InfeasibleControl {
    /// The gear index is outside the gearbox range.
    InvalidGear { gear: usize, num_gears: usize },
    /// The auxiliary power is outside its allowed range.
    AuxPowerRange {
        p_aux_w: f64,
        min_w: f64,
        max_w: f64,
    },
    /// The requested battery current exceeds the pack's current limits.
    BatteryCurrent {
        current_a: f64,
        min_a: f64,
        max_a: f64,
    },
    /// Taking this action would push the state of charge outside the
    /// charge-sustaining window.
    BatteryWindow {
        soc_after: f64,
        soc_min: f64,
        soc_max: f64,
    },
    /// The battery cannot supply/absorb the implied terminal power.
    BatteryPower { power_w: f64 },
    /// The electric machine cannot convert the implied electrical power at
    /// this shaft speed.
    MotorPower { p_elec_w: f64, speed_rad_s: f64 },
    /// The required motor torque exceeds the machine's torque envelope.
    MotorTorque {
        torque_nm: f64,
        min_nm: f64,
        max_nm: f64,
    },
    /// The electric machine would spin faster than its maximum speed.
    MotorSpeed { speed_rad_s: f64, max_rad_s: f64 },
    /// The engine would have to spin outside its operating speed range.
    EngineSpeed {
        speed_rad_s: f64,
        min_rad_s: f64,
        max_rad_s: f64,
    },
    /// The required engine torque exceeds the wide-open-throttle curve.
    EngineTorque { torque_nm: f64, max_nm: f64 },
}

impl fmt::Display for InfeasibleControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use InfeasibleControl::*;
        match self {
            InvalidGear { gear, num_gears } => {
                write!(
                    f,
                    "gear {gear} out of range (gearbox has {num_gears} gears)"
                )
            }
            AuxPowerRange {
                p_aux_w,
                min_w,
                max_w,
            } => {
                write!(
                    f,
                    "auxiliary power {p_aux_w} W outside [{min_w}, {max_w}] W"
                )
            }
            BatteryCurrent {
                current_a,
                min_a,
                max_a,
            } => {
                write!(
                    f,
                    "battery current {current_a} A outside [{min_a}, {max_a}] A"
                )
            }
            BatteryWindow {
                soc_after,
                soc_min,
                soc_max,
            } => write!(
                f,
                "state of charge {soc_after:.3} would leave window [{soc_min}, {soc_max}]"
            ),
            BatteryPower { power_w } => {
                write!(f, "battery cannot realize terminal power {power_w} W")
            }
            MotorPower {
                p_elec_w,
                speed_rad_s,
            } => write!(
                f,
                "motor cannot convert {p_elec_w} W electrical at {speed_rad_s} rad/s"
            ),
            MotorTorque {
                torque_nm,
                min_nm,
                max_nm,
            } => {
                write!(
                    f,
                    "motor torque {torque_nm} N·m outside [{min_nm}, {max_nm}] N·m"
                )
            }
            MotorSpeed {
                speed_rad_s,
                max_rad_s,
            } => {
                write!(
                    f,
                    "motor speed {speed_rad_s} rad/s exceeds maximum {max_rad_s} rad/s"
                )
            }
            EngineSpeed {
                speed_rad_s,
                min_rad_s,
                max_rad_s,
            } => write!(
                f,
                "engine speed {speed_rad_s} rad/s outside [{min_rad_s}, {max_rad_s}] rad/s"
            ),
            EngineTorque { torque_nm, max_nm } => {
                write!(
                    f,
                    "engine torque {torque_nm} N·m exceeds maximum {max_nm} N·m"
                )
            }
        }
    }
}

impl Error for InfeasibleControl {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_error_display() {
        let e = ParamError::new("mass_kg", "must be positive");
        assert_eq!(
            e.to_string(),
            "invalid parameter `mass_kg`: must be positive"
        );
    }

    #[test]
    fn infeasible_variants_display_nonempty() {
        use InfeasibleControl::*;
        let variants = [
            InvalidGear {
                gear: 9,
                num_gears: 5,
            },
            AuxPowerRange {
                p_aux_w: 2e3,
                min_w: 100.0,
                max_w: 1500.0,
            },
            BatteryCurrent {
                current_a: 300.0,
                min_a: -80.0,
                max_a: 120.0,
            },
            BatteryWindow {
                soc_after: 0.39,
                soc_min: 0.4,
                soc_max: 0.8,
            },
            BatteryPower { power_w: 1e6 },
            MotorPower {
                p_elec_w: 9e4,
                speed_rad_s: 100.0,
            },
            MotorTorque {
                torque_nm: 200.0,
                min_nm: -85.0,
                max_nm: 85.0,
            },
            EngineSpeed {
                speed_rad_s: 700.0,
                min_rad_s: 105.0,
                max_rad_s: 576.0,
            },
            EngineTorque {
                torque_nm: 150.0,
                max_nm: 108.0,
            },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }
}
