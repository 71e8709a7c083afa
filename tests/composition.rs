//! Integration tests of API composition across crates: a non-default
//! predictor inside the controller, checkpoint/restore, and the greedy
//! policy map read from the Q-table.

use hev_joint_control::control::{JointController, JointControllerConfig, StateSample};
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

/// The greedy battery current of every visited cell of a
/// `points × points` (demand, speed) grid at a fixed battery level, with
/// the forecast set to the demand; `None` where the agent never visited.
/// Returns each row's demand with the row.
fn greedy_currents(
    agent: &JointController,
    soc: f64,
    points: usize,
) -> Vec<(f64, Vec<Option<f64>>)> {
    let space = agent.state_space();
    let cfg = space.config();
    let center = |lo: f64, hi: f64, i: usize| lo + (hi - lo) * (i as f64 + 0.5) / points as f64;
    let currents = agent.config().action.currents();
    (0..points)
        .map(|d| {
            let demand = center(cfg.power_demand.min(), cfg.power_demand.max(), d);
            let row = (0..points)
                .map(|v| {
                    let s = space.encode(&StateSample {
                        power_demand_w: demand,
                        speed_mps: center(cfg.speed.min(), cfg.speed.max(), v),
                        soc,
                        prediction_w: demand,
                    });
                    agent
                        .learner()
                        .greedy_visited(s, |_| true)
                        .map(|a| currents[a])
                })
                .collect();
            (demand, row)
        })
        .collect()
}

#[test]
fn snapshot_then_policy_export_roundtrip() {
    let mut agent = JointController::new(JointControllerConfig::proposed());
    let mut vehicle = hev();
    let cycle = StandardCycle::Oscar.cycle();
    agent.train(&mut vehicle, &cycle, 20);

    // Snapshot → JSON → restore → the greedy policy map is identical.
    let before = greedy_currents(&agent, 0.6, 10);
    let json = serde_json::to_string(&agent.snapshot()).expect("serializes");
    let restored =
        JointController::from_snapshot(serde_json::from_str(&json).expect("deserializes"));
    assert_eq!(before, greedy_currents(&restored, 0.6, 10));
    assert!(before.iter().flat_map(|(_, row)| row).any(Option::is_some));
}

#[test]
fn exported_policy_discharges_under_high_demand_when_charged() {
    // Qualitative sanity of the learned map: in visited cells at high
    // positive demand the policy should not be strongly charging.
    let mut agent = JointController::new(JointControllerConfig::proposed());
    let mut vehicle = hev();
    let cycle = StandardCycle::Udds.cycle();
    agent.train(&mut vehicle, &cycle, 60);
    let high_demand_currents: Vec<f64> = greedy_currents(&agent, 0.7, 12)
        .into_iter()
        .filter(|(demand, _)| *demand > 20_000.0)
        .flat_map(|(_, row)| row.into_iter().flatten())
        .collect();
    if !high_demand_currents.is_empty() {
        let mean: f64 =
            high_demand_currents.iter().sum::<f64>() / high_demand_currents.len() as f64;
        assert!(
            mean > -20.0,
            "policy strongly charges under high demand: mean {mean} A"
        );
    }
}
