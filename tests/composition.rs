//! Integration tests of API composition across crates: a non-default
//! predictor inside the controller, checkpoint/restore, and policy-map
//! export.

use hev_joint_control::control::{JointController, JointControllerConfig, PolicyTable};
use hev_joint_control::cycle::StandardCycle;
use hev_joint_control::model::{HevParams, ParallelHev};
use hev_joint_control::predict::MarkovChain;

fn hev() -> ParallelHev {
    ParallelHev::new(HevParams::default_parallel_hev(), 0.6).expect("valid defaults")
}

#[test]
fn controller_accepts_markov_chain() {
    let predictor = MarkovChain::new(-40_000.0, 60_000.0, 12);
    let mut agent = JointController::with_predictor(JointControllerConfig::proposed(), predictor);
    let mut vehicle = hev();
    let cycle = StandardCycle::Oscar.cycle();
    agent.train(&mut vehicle, &cycle, 3);
    assert!(agent.learner().q().coverage() > 0);
}

#[test]
fn snapshot_then_policy_export_roundtrip() {
    let mut agent = JointController::new(JointControllerConfig::proposed());
    let mut vehicle = hev();
    let cycle = StandardCycle::Oscar.cycle();
    agent.train(&mut vehicle, &cycle, 20);

    // Snapshot → JSON → restore → the exported policy map is identical.
    let table_before = PolicyTable::extract(&agent, 0.6, 10, 10);
    let json = serde_json::to_string(&agent.snapshot()).expect("serializes");
    let restored =
        JointController::from_snapshot(serde_json::from_str(&json).expect("deserializes"));
    let table_after = PolicyTable::extract(&restored, 0.6, 10, 10);
    assert_eq!(table_before.cells, table_after.cells);
    assert!(table_before.coverage() > 0.0);
    // The rendered map has one glyph per cell.
    let art = table_before.render_ascii();
    assert_eq!(art.lines().count(), 10);
}

#[test]
fn exported_policy_discharges_under_high_demand_when_charged() {
    // Qualitative sanity of the learned map: in visited cells at high
    // positive demand the policy should not be strongly charging.
    let mut agent = JointController::new(JointControllerConfig::proposed());
    let mut vehicle = hev();
    let cycle = StandardCycle::Udds.cycle();
    agent.train(&mut vehicle, &cycle, 60);
    let table = PolicyTable::extract(&agent, 0.7, 12, 12);
    let mut high_demand_currents = Vec::new();
    for (d_idx, row) in table.cells.iter().enumerate() {
        if table.demands_w[d_idx] > 20_000.0 {
            high_demand_currents.extend(row.iter().flatten().copied());
        }
    }
    if !high_demand_currents.is_empty() {
        let mean: f64 =
            high_demand_currents.iter().sum::<f64>() / high_demand_currents.len() as f64;
        assert!(
            mean > -20.0,
            "policy strongly charges under high demand: mean {mean} A"
        );
    }
}
