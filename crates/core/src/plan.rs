//! Cycle-level plans: a drive cycle bound to its precomputed
//! [`ContextTable`].
//!
//! Training replays the same cycle thousands of times; a [`CyclePlan`]
//! performs the per-step demand and context precompute once and shares
//! it immutably (via [`Arc`]) across episodes, harness workers, and the
//! DP solver's state-of-charge sweep and forward pass. The
//! planned simulation entry points ([`crate::sim::simulate_planned`] and
//! friends) consume a plan instead of rebuilding per step; the
//! `ctx_rebuilds` counter in [`hev_trace::evals`] proves the
//! amortization (one tick per build, zero per steady-state step).
//!
//! The validity contract is inherited from
//! [`ContextTable`](hev_model::plan): a plan built against one vehicle
//! configuration at motor derate 1.0 serves any vehicle with the same
//! demand-side configuration, at any battery state. Fault-injected steps
//! that derate the motor bypass the table (the simulation loop rebuilds
//! locally for exactly those steps).

use std::sync::Arc;

use drive_cycle::DriveCycle;
use hev_model::{ContextTable, ParallelHev, WheelDemand};

/// A drive cycle plus its precomputed per-step context table, cheap to
/// clone (the table is shared through an [`Arc`]).
#[derive(Debug, Clone)]
pub struct CyclePlan {
    cycle: DriveCycle,
    table: Arc<ContextTable>,
}

impl CyclePlan {
    /// Builds the plan for `cycle` through `hev`'s demand-side
    /// configuration (build with a healthy vehicle, at motor derate
    /// 1.0).
    ///
    /// Each tabulated demand is the same
    /// [`ParallelHev::demand`] call the per-step simulation loop would
    /// make, so planned and unplanned runs are bit-identical.
    pub fn new(hev: &ParallelHev, cycle: &DriveCycle) -> Self {
        let demands: Vec<WheelDemand> = cycle
            .points()
            .map(|p| hev.demand(p.speed_mps, p.accel_mps2, p.grade))
            .collect();
        let table = Arc::new(ContextTable::build(hev, &demands, cycle.dt()));
        Self {
            cycle: cycle.clone(),
            table,
        }
    }

    /// The drive cycle this plan tabulates.
    pub fn cycle(&self) -> &DriveCycle {
        &self.cycle
    }

    /// The shared per-step context table.
    pub fn table(&self) -> &Arc<ContextTable> {
        &self.table
    }

    /// Number of timesteps in the plan.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the plan covers no timesteps.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drive_cycle::StandardCycle;
    use hev_model::HevParams;

    #[test]
    fn plan_matches_cycle_length_and_shares_table() {
        let hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6).unwrap();
        let cycle = StandardCycle::Nycc.cycle();
        let plan = CyclePlan::new(&hev, &cycle);
        assert_eq!(plan.len(), cycle.len());
        assert!(!plan.is_empty());
        let clone = plan.clone();
        assert!(Arc::ptr_eq(plan.table(), clone.table()));
        // Tabulated demands are the same calls the sim loop makes.
        for (t, p) in cycle.points().enumerate() {
            let fresh = hev.demand(p.speed_mps, p.accel_mps2, p.grade);
            assert_eq!(
                plan.table().demand(t).wheel_torque_nm.to_bits(),
                fresh.wheel_torque_nm.to_bits(),
                "step {t}"
            );
        }
    }
}
