//! Cycle-level precomputation: the [`ContextTable`].
//!
//! A [`StepContext`] is a pure function of the
//! vehicle's *configuration* (body, drivetrain, motor envelope at the
//! current derate) and one timestep's wheel demand — it carries no
//! battery state. Training replays the same drive cycle thousands of
//! times, so rebuilding the context at every step of every episode
//! repeats the same work verbatim. A [`ContextTable`] performs that
//! precompute **once per (cycle, vehicle-config) pair**: every
//! timestep's demand and context, built up front and shared immutably
//! (wrap it in an `Arc`) across episodes, harness workers, and the DP
//! solver's state-of-charge sweep.
//!
//! # Validity
//!
//! A table is valid for any vehicle whose demand-side configuration is
//! identical to the builder's: same body, drivetrain, engine, and motor
//! parameters, **at the same motor derate** (build tables healthy, at
//! derate 1.0). Battery state never matters — contexts are
//! battery-independent by construction — so neither capacity fade nor
//! state of charge invalidates a table. Callers that derate the motor
//! mid-episode (fault injection) must bypass the table for exactly those
//! steps and rebuild locally; the simulation loop's per-step gate does
//! this.
//!
//! # Accounting
//!
//! One build records exactly **one** `ctx_rebuilds` tick in
//! [`hev_trace::evals`], however long the cycle — that is the
//! amortization the counter exists to prove. Per-step
//! [`ParallelHev::rebuild_context`] calls record one tick each. Both
//! enter the `model.ctx_build` span once per call, so the span profiler
//! attributes a table build where it happens.

use crate::dynamics::WheelDemand;
use crate::vehicle::{ParallelHev, StepContext};

/// Every timestep's wheel demand and battery-independent step context
/// for one drive cycle, precomputed once. See the module docs for the
/// validity contract.
#[derive(Debug, Clone, Default)]
pub struct ContextTable {
    dt: f64,
    demands: Vec<WheelDemand>,
    contexts: Vec<StepContext>,
}

impl ContextTable {
    /// Builds the table for `demands` at step length `dt` through
    /// `hev`'s demand-side configuration.
    ///
    /// Each entry is bit-identical to what
    /// [`ParallelHev::rebuild_context`] would produce for the same
    /// demand at the builder's motor derate, but the whole build records
    /// a single `ctx_rebuilds` tick and a single `model.ctx_build` span
    /// call (see the module docs).
    pub fn build(hev: &ParallelHev, demands: &[WheelDemand], dt: f64) -> Self {
        let _span = hev_trace::span::enter("model.ctx_build");
        hev_trace::evals::record_ctx_rebuild();
        let contexts = demands
            .iter()
            .map(|demand| {
                let mut ctx = StepContext::default();
                hev.rebuild_context_untracked(&mut ctx, demand);
                ctx
            })
            .collect();
        Self {
            dt,
            demands: demands.to_vec(),
            contexts,
        }
    }

    /// Number of timesteps tabulated.
    pub fn len(&self) -> usize {
        self.contexts.len()
    }

    /// Whether the table tabulates no timesteps.
    pub fn is_empty(&self) -> bool {
        self.contexts.is_empty()
    }

    /// The step length the table was built for, s.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The wheel demand of one timestep.
    ///
    /// # Panics
    ///
    /// Panics if `step` is out of range.
    pub fn demand(&self, step: usize) -> &WheelDemand {
        &self.demands[step]
    }

    /// The precomputed step context of one timestep.
    ///
    /// # Panics
    ///
    /// Panics if `step` is out of range.
    pub fn context(&self, step: usize) -> &StepContext {
        &self.contexts[step]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::HevParams;

    fn hev() -> ParallelHev {
        ParallelHev::new(HevParams::default_parallel_hev(), 0.6).unwrap()
    }

    #[test]
    fn table_entries_match_per_step_rebuilds_bit_for_bit() {
        let hev = hev();
        let samples = [(0.0, 0.0), (3.0, 0.4), (20.0, 0.3), (15.0, -1.5)];
        let demands: Vec<WheelDemand> = samples
            .iter()
            .map(|&(v, a)| hev.demand(v, a, 0.0))
            .collect();
        let table = ContextTable::build(&hev, &demands, 1.0);
        assert_eq!(table.len(), demands.len());
        for (t, demand) in demands.iter().enumerate() {
            let mut fresh = StepContext::default();
            hev.rebuild_context(&mut fresh, demand);
            assert_eq!(table.context(t), &fresh, "step {t}");
            assert_eq!(
                table.demand(t).wheel_torque_nm.to_bits(),
                demand.wheel_torque_nm.to_bits()
            );
        }
    }

    #[test]
    fn one_build_records_one_ctx_rebuild() {
        let hev = hev();
        let demands: Vec<WheelDemand> = (0..50)
            .map(|k| hev.demand(5.0 + k as f64 * 0.2, 0.1, 0.0))
            .collect();
        let before = hev_trace::evals::ctx_rebuilds();
        let table = ContextTable::build(&hev, &demands, 1.0);
        assert_eq!(table.len(), 50);
        assert_eq!(
            hev_trace::evals::ctx_rebuilds().wrapping_sub(before),
            1,
            "a whole-cycle build must amortize to one recorded rebuild"
        );
        // The per-step path records one per call.
        let mut ctx = StepContext::default();
        let before = hev_trace::evals::ctx_rebuilds();
        hev.rebuild_context(&mut ctx, &demands[0]);
        hev.rebuild_context(&mut ctx, &demands[1]);
        assert_eq!(hev_trace::evals::ctx_rebuilds().wrapping_sub(before), 2);
    }
}
