//! The RL action spaces (paper §4.3.2, Eq. 15).
//!
//! The *full* action space discretizes the whole control vector
//! `a = [i, R(k), p_aux]`. The *reduced* action space keeps only the
//! battery current; the gear and auxiliary power are then chosen by the
//! per-step inner optimization ([`crate::inner_opt`]), which shrinks the
//! Q-table, speeds up convergence, and frees `p_aux` from discretization
//! — at the price of needing partial component models (the paper's
//! recommended trade-off).

use hev_model::ControlInput;
use serde::{Deserialize, Serialize};

/// The default battery-current grid, A (positive discharges). Spans
/// strong regenerative charging to full electric assist.
pub fn default_currents() -> Vec<f64> {
    vec![
        -60.0, -40.0, -25.0, -15.0, -8.0, -4.0, 0.0, 4.0, 8.0, 15.0, 25.0, 40.0, 60.0, 80.0, 100.0,
    ]
}

/// A finite action space over the HEV control variables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ActionSpace {
    /// `a_re = [i]`: current only (the paper's recommended reduced space).
    Reduced {
        /// Current grid, A.
        currents: Vec<f64>,
    },
    /// `a = [i, R(k), p_aux]`: the complete discretized space of Eq. 15.
    Full {
        /// Current grid, A.
        currents: Vec<f64>,
        /// Number of gears.
        num_gears: usize,
        /// Auxiliary power levels, W.
        aux_levels: Vec<f64>,
    },
}

impl ActionSpace {
    /// The reduced space over the default current grid.
    pub fn reduced() -> Self {
        ActionSpace::Reduced {
            currents: default_currents(),
        }
    }

    /// The full space over the default current grid, `num_gears` gears,
    /// and `aux_levels` auxiliary power levels.
    pub fn full(num_gears: usize, aux_levels: Vec<f64>) -> Self {
        ActionSpace::Full {
            currents: default_currents(),
            num_gears,
            aux_levels,
        }
    }

    /// Number of discrete actions.
    pub fn len(&self) -> usize {
        match self {
            ActionSpace::Reduced { currents } => currents.len(),
            ActionSpace::Full {
                currents,
                num_gears,
                aux_levels,
            } => currents.len() * num_gears * aux_levels.len(),
        }
    }

    /// Whether the space has no actions (never true for the provided
    /// constructors).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes a flat action index: the complete control
    /// `[i, R(k), p_aux]` in the full space, `None` in the reduced space,
    /// whose actions leave the gear and aux power to the inner
    /// optimization.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn decode(&self, index: usize) -> Option<ControlInput> {
        assert!(index < self.len(), "action index out of range");
        let ActionSpace::Full {
            currents,
            num_gears,
            aux_levels,
        } = self
        else {
            return None;
        };
        let n_aux = aux_levels.len();
        let rest = index / n_aux;
        Some(ControlInput {
            battery_current_a: currents[rest / num_gears],
            gear: rest % num_gears,
            p_aux_w: aux_levels[index % n_aux],
        })
    }

    /// The current grid.
    pub fn currents(&self) -> &[f64] {
        match self {
            ActionSpace::Reduced { currents } | ActionSpace::Full { currents, .. } => currents,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_len_is_current_count() {
        let a = ActionSpace::reduced();
        assert_eq!(a.len(), 15);
    }

    #[test]
    fn reduced_decode_leaves_the_control_to_the_inner_optimization() {
        let a = ActionSpace::reduced();
        assert!((0..a.len()).all(|i| a.decode(i).is_none()));
    }

    #[test]
    fn full_len_is_product() {
        let a = ActionSpace::full(5, vec![100.0, 600.0, 1_100.0]);
        assert_eq!(a.len(), 15 * 5 * 3);
    }

    #[test]
    fn full_decode_gives_distinct_complete_controls() {
        let a = ActionSpace::full(3, vec![100.0, 600.0]);
        let mut seen = std::collections::HashSet::new();
        for i in 0..a.len() {
            let c = a.decode(i).expect("a full action is a complete control");
            let key = (c.battery_current_a.to_bits(), c.gear, c.p_aux_w.to_bits());
            assert!(seen.insert(key), "duplicate action {i}");
        }
        assert_eq!(seen.len(), a.len());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn full_decode_validates() {
        ActionSpace::full(2, vec![600.0]).decode(1_000);
    }

    #[test]
    fn current_grid_is_monotone_and_spans_zero() {
        let c = default_currents();
        assert!(c.windows(2).all(|w| w[1] > w[0]));
        assert!(c.contains(&0.0));
        assert!(c[0] < 0.0 && c[c.len() - 1] > 0.0);
    }
}
