//! Offline dynamic-programming reference bound.
//!
//! With the whole driving cycle known in advance, backward value
//! iteration over a (time × state-of-charge) grid yields a near-optimal
//! power split. The paper cites DP-based strategies (ref \[7\]) as
//! requiring full a-priori knowledge — impractical online, but the ideal
//! yardstick for how much of the offline optimum the RL controller
//! recovers.
//! Each `(t, SoC)` cell is one `fixed_aux_sweep` (`inner_opt.rs`), the
//! search ECMS and the fallback scan run too, on the DP's own objective.

use crate::inner_opt::fixed_aux_sweep;
use crate::metrics::EpisodeMetrics;
use crate::plan::CyclePlan;
use crate::reward::RewardConfig;
use crate::sim::{fallback_control, simulate_planned, HevPolicy, Observation};
use drive_cycle::DriveCycle;
use hev_model::{ControlInput, ParallelHev, StepOutcome};
use serde::{Deserialize, Serialize};

/// DP solver configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DpConfig {
    /// Number of state-of-charge grid points across the charge window.
    pub soc_points: usize,
    /// Candidate battery currents, A.
    pub currents: Vec<f64>,
    /// Fixed auxiliary power, W (the DP bound optimizes the powertrain).
    pub aux_power_w: f64,
    /// Terminal penalty per unit of state-of-charge deficit relative to
    /// the initial level (enforces charge sustenance).
    pub terminal_penalty: f64,
    /// Reward definition (shared with the controllers under comparison).
    pub reward: RewardConfig,
}

impl Default for DpConfig {
    fn default() -> Self {
        Self {
            soc_points: 41,
            currents: crate::action::default_currents(),
            aux_power_w: 600.0,
            // About the fuel-equivalent of one unit of state of charge
            // for the default pack, which the scoring's charge correction
            // prices at 7.8 kWh / (0.28 × 42.6 kJ/g) ≈ 2 354.1 g: 2 400
            // is 46 g (2 %) above it. Makes the bound charge-sustaining
            // instead of depletion-gaming. The ROADMAP's verified-optimum
            // DP replaces this one-sided penalty with a linear terminal
            // value at the plant's own price of charge.
            terminal_penalty: 2_400.0,
            reward: RewardConfig::default(),
        }
    }
}

/// The tabulated DP policy: per step, per state-of-charge grid point, the
/// control to apply. Implements [`HevPolicy`] so the forward pass reuses
/// the common simulation harness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DpPolicy {
    soc_min: f64,
    soc_max: f64,
    /// `actions[t][j]`: control at step `t`, grid point `j`.
    actions: Vec<Vec<ControlInput>>,
}

impl DpPolicy {
    fn soc_index(&self, soc: f64, n: usize) -> usize {
        let f = ((soc - self.soc_min) / (self.soc_max - self.soc_min)).clamp(0.0, 1.0);
        // hevlint::allow(float::lossy-cast, grid index: f is clamped to [0,1] above and the cast is bounded by .min(n-1))
        ((f * (n - 1) as f64).round() as usize).min(n - 1)
    }
}

impl HevPolicy for DpPolicy {
    fn decide(&mut self, hev: &ParallelHev, obs: &Observation<'_>) -> ControlInput {
        let Some(row) = self.actions.get(obs.step) else {
            return fallback_control(hev, obs.ctx, obs.dt_s);
        };
        row[self.soc_index(obs.soc, row.len())]
    }
}

/// Result of a DP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct DpSolution {
    /// The expected cumulative reward from the initial state (value
    /// function at `t = 0`, initial state of charge).
    pub expected_reward: f64,
    /// The tabulated policy.
    pub policy: DpPolicy,
    /// Metrics of the forward pass under the tabulated policy.
    pub metrics: EpisodeMetrics,
}

/// Solves the cycle by backward value iteration and simulates the
/// resulting policy forward from `initial_soc`.
///
/// Each `(t, SoC)` cell keeps the `(current, gear)` that maximizes the
/// DP's own objective, the paper reward plus the interpolated value of
/// the state it leads to, so the stored value is the argmax of the table
/// the backup reads (the scored fallback control when none is feasible).
///
/// Both passes run on one [`CyclePlan`]: its context is battery-state
/// independent, so one per timestep serves the entire SoC grid of the
/// backward sweep and then the forward pass, and the whole solve records
/// a single `ctx_rebuilds` tick.
///
/// # Panics
///
/// Panics if `config.soc_points < 2` or the currents list is empty.
pub fn solve(
    hev: &mut ParallelHev,
    cycle: &DriveCycle,
    initial_soc: f64,
    config: &DpConfig,
) -> DpSolution {
    let _span = hev_trace::span::enter("dp.sweep");
    assert!(config.soc_points >= 2, "need at least two soc grid points");
    assert!(!config.currents.is_empty(), "need candidate currents");
    let n = config.soc_points;
    let (soc_min, soc_max) = (
        hev.battery().params().soc_min,
        hev.battery().params().soc_max,
    );
    let soc_at = |j: usize| soc_min + (soc_max - soc_min) * j as f64 / (n - 1) as f64;
    let (dt, aux, currents) = (cycle.dt(), config.aux_power_w, &config.currents);
    let t_len = cycle.len();

    // Terminal value: pay for ending below the initial charge.
    let mut value_next: Vec<f64> = (0..n)
        .map(|j| -config.terminal_penalty * (initial_soc - soc_at(j)).max(0.0))
        .collect();
    let mut actions: Vec<Vec<ControlInput>> = Vec::with_capacity(t_len);
    actions.resize(t_len, Vec::new());

    let interp = |value: &[f64], soc: f64| -> f64 {
        let f = ((soc - soc_min) / (soc_max - soc_min)).clamp(0.0, 1.0) * (n - 1) as f64;
        // hevlint::allow(float::lossy-cast, interpolation cell index: f is clamped non-negative above and bounded by .min(n-2))
        let j = (f.floor() as usize).min(n - 2);
        let w = f - j as f64;
        value[j] * (1.0 - w) + value[j + 1] * w
    };

    let plan = CyclePlan::new(hev, cycle);
    let table = plan.table();
    for t in (0..t_len).rev() {
        let ctx = table.context(t);
        let value =
            |o: &StepOutcome| config.reward.paper_reward(o, dt) + interp(&value_next, o.soc_after);
        let (value_t, row) = (0..n)
            .map(|j| {
                hev.reset_soc(soc_at(j));
                let best = fixed_aux_sweep(hev, ctx, currents, aux, dt, value, |_, c, _, v| (v, c));
                best.unwrap_or_else(|| {
                    // No candidate is feasible: score the fallback control.
                    let control = fallback_control(hev, ctx, dt);
                    let v = hev
                        .peek_with_context(ctx, &control, dt)
                        .map_or(-1e6, |o| value(&o));
                    (v, control)
                })
            })
            .unzip();
        actions[t] = row;
        value_next = value_t;
    }

    let expected_reward = interp(&value_next, initial_soc);
    let mut policy = DpPolicy {
        soc_min,
        soc_max,
        actions,
    };
    hev.reset_soc(initial_soc);
    let metrics = simulate_planned(hev, &plan, &mut policy, &config.reward);
    DpSolution {
        expected_reward,
        policy,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::rule_based::RuleBasedController;
    use crate::sim::simulate;
    use drive_cycle::ProfileBuilder;
    use hev_model::HevParams;

    fn hev() -> ParallelHev {
        ParallelHev::new(HevParams::default_parallel_hev(), 0.6).unwrap()
    }

    fn small_cycle() -> DriveCycle {
        ProfileBuilder::new("dp-small")
            .idle(3.0)
            .trip(40.0, 10.0, 20.0, 8.0, 4.0)
            .trip(25.0, 7.0, 10.0, 6.0, 4.0)
            .build()
            .unwrap()
    }

    fn quick_config() -> DpConfig {
        DpConfig {
            soc_points: 9,
            currents: vec![-25.0, -8.0, 0.0, 8.0, 25.0, 60.0, 100.0],
            ..DpConfig::default()
        }
    }

    #[test]
    fn dp_solves_and_completes_forward_pass() {
        let mut hev = hev();
        let cycle = small_cycle();
        let sol = solve(&mut hev, &cycle, 0.6, &quick_config());
        assert_eq!(sol.metrics.steps, cycle.len());
        assert!(sol.expected_reward.is_finite());
    }

    #[test]
    fn dp_beats_rule_based_on_reward() {
        let cycle = small_cycle();
        let cfg = quick_config();
        let mut hev1 = hev();
        let dp = solve(&mut hev1, &cycle, 0.6, &cfg);
        let mut hev2 = hev();
        hev2.reset_soc(0.6);
        let mut rb = RuleBasedController;
        let rb_m = simulate(&mut hev2, &cycle, &mut rb, &cfg.reward);
        // The offline optimum should not lose to the heuristic, modulo
        // the grid resolution; allow a small tolerance.
        assert!(
            dp.metrics.total_reward >= rb_m.total_reward - 0.2,
            "dp {} vs rule-based {}",
            dp.metrics.total_reward,
            rb_m.total_reward
        );
    }

    #[test]
    fn terminal_penalty_discourages_depletion() {
        let cycle = small_cycle();
        let mut lenient = quick_config();
        lenient.terminal_penalty = 0.0;
        let mut strict = quick_config();
        strict.terminal_penalty = 5_000.0;
        let soc_lenient = solve(&mut hev(), &cycle, 0.6, &lenient).metrics.soc_final;
        let soc_strict = solve(&mut hev(), &cycle, 0.6, &strict).metrics.soc_final;
        assert!(soc_strict >= soc_lenient - 1e-9);
    }

    #[test]
    fn solve_and_forward_pass_share_one_context_build() {
        let cycle = small_cycle();
        let before = hev_trace::evals::ctx_rebuilds();
        let sol = solve(&mut hev(), &cycle, 0.6, &quick_config());
        assert_eq!(sol.metrics.fallback_steps, 0);
        assert_eq!(
            hev_trace::evals::ctx_rebuilds().wrapping_sub(before),
            1,
            "the sweep and the forward pass must both read the one plan"
        );
    }

    #[test]
    fn policy_lookup_clamps_soc() {
        let p = DpPolicy {
            soc_min: 0.4,
            soc_max: 0.8,
            actions: vec![vec![
                ControlInput {
                    battery_current_a: 0.0,
                    gear: 0,
                    p_aux_w: 600.0
                };
                5
            ]],
        };
        assert_eq!(p.soc_index(0.0, 5), 0);
        assert_eq!(p.soc_index(1.0, 5), 4);
        assert_eq!(p.soc_index(0.6, 5), 2);
    }
}
