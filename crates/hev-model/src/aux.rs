//! Auxiliary systems (HVAC, lighting, electronics) and their utility
//! function (paper §2.1.5).
//!
//! The total auxiliary operating power `p_aux` is a *control variable*;
//! the uni-modal (quasi-concave) utility `f_aux(p_aux)` expresses how
//! desirable a power level is — too little means a dark, uncomfortable
//! cabin; too much means over-cooling/over-heating. The paper's evaluation
//! centers the utility at 600 W.

use crate::error::{InfeasibleControl, ParamError};
use crate::params::AuxParams;
use serde::{Deserialize, Serialize};

/// Auxiliary-system model.
///
/// # Examples
///
/// ```
/// use hev_model::{AuxParams, AuxiliarySystems};
///
/// let aux = AuxiliarySystems::new(AuxParams::default())?;
/// let best = aux.utility(600.0);
/// assert!(best > aux.utility(300.0));
/// assert!(best > aux.utility(1200.0));
/// # Ok::<(), hev_model::ParamError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuxiliarySystems {
    params: AuxParams,
}

impl AuxiliarySystems {
    /// Creates the auxiliary-system model from validated parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] if the parameters are invalid.
    pub fn new(params: AuxParams) -> Result<Self, ParamError> {
        params.validate()?;
        Ok(Self { params })
    }

    /// The auxiliary parameters.
    pub fn params(&self) -> &AuxParams {
        &self.params
    }

    /// The power level maximizing the utility, W.
    #[inline]
    pub fn preferred_power(&self) -> f64 {
        self.params.preferred_power_w
    }

    /// Allowed operating-power range, W.
    #[inline]
    pub fn power_range(&self) -> (f64, f64) {
        (self.params.min_power_w, self.params.max_power_w)
    }

    /// The uni-modal utility `f_aux(p_aux)`: 0 at the preferred power,
    /// decreasing quadratically away from it (clamped at −4).
    ///
    /// The peak is *zero* so the reward `(−ṁ_f + w·f_aux)·ΔT` stays
    /// non-positive, matching the paper's observation that "the reward
    /// function value is negative" (§5): deviations from the preferred
    /// auxiliary power can only lose utility.
    #[inline]
    pub fn utility(&self, p_aux_w: f64) -> f64 {
        let d = (p_aux_w - self.params.preferred_power_w) / self.params.utility_scale_w;
        (-d * d).max(-4.0)
    }

    /// Validates an operating power against the allowed range.
    ///
    /// # Errors
    ///
    /// Returns [`InfeasibleControl::AuxPowerRange`] when violated.
    #[inline]
    pub fn check_power(&self, p_aux_w: f64) -> Result<(), InfeasibleControl> {
        let (min_w, max_w) = self.power_range();
        if !(min_w..=max_w).contains(&p_aux_w) || !p_aux_w.is_finite() {
            return Err(InfeasibleControl::AuxPowerRange {
                p_aux_w,
                min_w,
                max_w,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aux() -> AuxiliarySystems {
        AuxiliarySystems::new(AuxParams::default()).unwrap()
    }

    #[test]
    fn utility_peaks_at_zero_at_preferred() {
        let a = aux();
        assert!(a.utility(600.0).abs() < 1e-12);
        // Everywhere else is strictly negative.
        assert!(a.utility(599.0) < 0.0);
        assert!(a.utility(601.0) < 0.0);
    }

    #[test]
    fn utility_is_unimodal() {
        let a = aux();
        // Strictly increasing up to the peak, strictly decreasing after.
        let mut prev = a.utility(0.0);
        for p in (100..=600).step_by(50) {
            let u = a.utility(p as f64);
            assert!(u > prev);
            prev = u;
        }
        for p in (650..=1500).step_by(50) {
            let u = a.utility(p as f64);
            // Strictly decreasing until the −4 clamp, then flat.
            assert!(u < prev || (u == -4.0 && prev == -4.0));
            prev = u;
        }
    }

    #[test]
    fn utility_clamped_at_minus_four() {
        let a = aux();
        assert_eq!(a.utility(10_000.0), -4.0);
    }

    #[test]
    fn utility_symmetric_about_peak() {
        let a = aux();
        assert!((a.utility(400.0) - a.utility(800.0)).abs() < 1e-12);
    }

    #[test]
    fn check_power_enforces_range() {
        let a = aux();
        assert!(a.check_power(600.0).is_ok());
        assert!(a.check_power(50.0).is_err());
        assert!(a.check_power(2_000.0).is_err());
        assert!(a.check_power(f64::NAN).is_err());
    }
}
