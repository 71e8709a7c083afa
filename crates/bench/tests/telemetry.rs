//! Determinism and observer-effect tests for the telemetry layer.
//!
//! The telemetry contract has three legs:
//!
//! 1. **byte-identity across workers** — the JSONL lines a telemetry-
//!    enabled grid emits are byte-identical at every `--jobs` value,
//!    because lines are collected per task and concatenated in task
//!    order;
//! 2. **no observer effect** — enabling telemetry changes *nothing*
//!    about the physics or learning: metrics rows and trained Q-tables
//!    are bit-identical with and without collection;
//! 3. **flight dumps** — forced degradation dumps the ring, and the
//!    dump carries the offending step's state, action, and reward
//!    terms.

use drive_cycle::StandardCycle;
use hev_bench::experiments::{self, ExperimentConfig};
use hev_control::{
    simulate, telemetry, ControlError, DecisionInfo, HevPolicy, JointController,
    JointControllerConfig, Observation, PolicyTelemetry, RewardConfig, RuleBasedController,
    RunTelemetry, SupervisedPolicy, TelemetryConfig,
};
use hev_model::{ControlInput, ParallelHev, StepOutcome};

fn tiny(jobs: usize) -> ExperimentConfig {
    ExperimentConfig {
        episodes: 6,
        runs: 2,
        jobs,
        ..Default::default()
    }
}

fn sampled(jobs: usize) -> ExperimentConfig {
    ExperimentConfig {
        telemetry: TelemetryConfig {
            metrics: true,
            trace_sample: Some(25),
        },
        ..tiny(jobs)
    }
}

/// Flight dumps only: the `--trace --trace-sample 0` configuration.
const FLIGHT_ONLY: TelemetryConfig = TelemetryConfig {
    metrics: false,
    trace_sample: Some(0),
};

/// Leg 1: the concatenated metrics/trace line streams of a telemetry-
/// enabled fig2 are byte-identical at every worker count.
#[test]
fn telemetry_lines_identical_across_worker_counts() {
    let (rows1, runs1) = experiments::fig2(&sampled(1));
    let flatten = |runs: &[RunTelemetry]| {
        let metrics: Vec<String> = runs
            .iter()
            .flat_map(|r| r.metrics_lines.iter().cloned())
            .collect();
        let trace: Vec<String> = runs
            .iter()
            .flat_map(|r| r.trace_lines.iter().cloned())
            .collect();
        (metrics, trace)
    };
    let serial = flatten(&runs1);
    assert!(!serial.0.is_empty(), "metrics lines were collected");
    assert!(!serial.1.is_empty(), "trace lines were collected");
    for jobs in [2, 4] {
        let (rows_n, runs_n) = experiments::fig2(&sampled(jobs));
        assert_eq!(rows1, rows_n, "rows diverged at {jobs} workers");
        assert_eq!(
            serial,
            flatten(&runs_n),
            "telemetry lines diverged at {jobs} workers"
        );
    }
    // Labels arrive in the fixed cycle-major task order.
    assert_eq!(runs1[0].label, "fig2/OSCAR/with/run0");
    assert_eq!(runs1[1].label, "fig2/OSCAR/with/run1");
}

/// Leg 2a: a telemetry-enabled grid reports the same metrics as the
/// plain grid — observation must not perturb physics or learning.
#[test]
fn enabled_telemetry_has_no_observer_effect_on_metrics() {
    let (plain, _) = experiments::fig2(&tiny(2));
    let (observed, runs) = experiments::fig2(&sampled(2));
    assert_eq!(plain, observed);
    assert!(!runs.is_empty());
}

/// Leg 2b: training inside a flight-only telemetry window yields a
/// bit-identical trained controller to training with no window open
/// (the `--trace-sample 0` acceptance).
#[test]
fn disabled_collector_yields_bit_identical_q_tables() {
    let cycle = StandardCycle::Oscar.cycle();
    let train = |window: Option<TelemetryConfig>| {
        let mut cfg = JointControllerConfig::proposed();
        cfg.seed = 42;
        let mut hev = experiments::fresh_hev(cfg.initial_soc);
        let mut agent = JointController::new(cfg);
        let portfolio = vec![cycle.clone()];
        if let Some(config) = window {
            telemetry::begin_task("t", config);
        }
        agent.train_portfolio(&mut hev, &portfolio, 4);
        let m = agent.evaluate(&mut hev, &cycle);
        let run = telemetry::take_task();
        if window.is_some() {
            assert_eq!(run.label, "t", "the window recorded the run");
            assert!(run.metrics_lines.is_empty() && run.trace_lines.is_empty());
        }
        (agent.snapshot(), m)
    };
    let (plain_snapshot, plain_eval) = train(None);
    let (traced_snapshot, traced_eval) = train(Some(FLIGHT_ONLY));
    assert_eq!(plain_snapshot, traced_snapshot, "trained state diverged");
    assert_eq!(plain_eval, traced_eval, "evaluation diverged");
}

/// The window's lifecycle: closing a window that was never opened
/// returns nothing, and once `take_task` closes a window, later
/// episodes on the same thread record nothing.
#[test]
fn telemetry_window_records_only_while_open() {
    assert_eq!(telemetry::take_task(), RunTelemetry::default());
    let cycle = StandardCycle::Oscar.cycle();
    let mut hev = experiments::fresh_hev(0.6);
    let episode = |hev: &mut ParallelHev| {
        hev.reset_soc(0.6);
        let mut rule = RuleBasedController;
        simulate(hev, &cycle, &mut rule, &RewardConfig::default());
    };
    let config = TelemetryConfig {
        metrics: true,
        trace_sample: Some(1),
    };
    telemetry::begin_task("open", config);
    episode(&mut hev);
    let run = telemetry::take_task();
    assert_eq!(run.label, "open");
    assert_eq!(run.metrics_lines.len(), 1);
    assert_eq!(run.trace_lines.len(), cycle.len());
    episode(&mut hev);
    assert_eq!(telemetry::take_task(), RunTelemetry::default());
}

/// A policy that asks its inner joint controller for a decision, then
/// corrupts the current to NaN — the supervisor must reject every step.
struct Corrupt {
    inner: JointController,
}

impl HevPolicy for Corrupt {
    fn begin_episode(&mut self) {
        self.inner.begin_episode();
    }

    fn decide(&mut self, hev: &ParallelHev, obs: &Observation<'_>) -> ControlInput {
        let mut control = self.inner.decide(hev, obs);
        control.battery_current_a = f64::NAN;
        control
    }

    fn feedback(
        &mut self,
        hev: &ParallelHev,
        obs: &Observation<'_>,
        outcome: &StepOutcome,
        reward: f64,
    ) {
        self.inner.feedback(hev, obs, outcome, reward);
    }

    fn end_episode(&mut self) {
        self.inner.end_episode();
    }

    fn take_control_error(&mut self) -> Option<ControlError> {
        self.inner.take_control_error()
    }

    fn set_record_decisions(&mut self, on: bool) {
        self.inner.set_record_decisions(on);
    }

    fn last_decision(&self) -> Option<DecisionInfo> {
        self.inner.last_decision()
    }

    fn telemetry_snapshot(&self) -> Option<PolicyTelemetry> {
        self.inner.telemetry_snapshot()
    }
}

/// Leg 3: forced supervisor degradation dumps the flight ring, and the
/// dump's events carry the offending step's state, action, and reward
/// terms.
#[test]
fn forced_degradation_dumps_flight_recorder_with_decision_context() {
    let cycle = StandardCycle::Oscar.cycle();
    let mut cfg = JointControllerConfig::proposed();
    cfg.seed = 42;
    let mut agent = JointController::new(cfg);
    agent.set_training(false);
    let mut supervised = SupervisedPolicy::new(Corrupt { inner: agent });
    let mut hev = experiments::fresh_hev(0.6);
    telemetry::begin_task("forced", FLIGHT_ONLY);
    simulate(&mut hev, &cycle, &mut supervised, &RewardConfig::default());
    let run = telemetry::take_task();
    let dump = run
        .trace_lines
        .iter()
        .find(|l| l.contains("\"event\":\"flight_dump\""))
        .expect("degradation produced a flight dump");
    // Step 0 is the first rejection, so the ring holds exactly that
    // step's event, with the decision context (a concrete state index,
    // mask size and action) and the reward decomposition. Profiling is
    // off, so the dump carries no span_path field.
    assert_eq!(
        dump,
        "{\"v\":1,\"event\":\"flight_dump\",\"run\":\"forced\",\"episode\":0,\"trigger\":\"supervisor_degradation\",\"step\":0,\"events\":[{\
         \"v\":1,\"event\":\"step\",\"run\":\"forced\",\"episode\":0,\"kind\":\"eval\",\"step\":0,\"time_s\":0.0,\"p_dem_w\":0.0,\"speed_mps\":0.0,\"soc\":0.6,\"prediction_w\":0.0,\
         \"state\":3616,\"feasible\":15,\"action\":0,\"current_a\":-60.0,\"gear\":0,\"p_aux_w\":562.147733243768,\"reward\":-0.049105219631363085,\"fuel_g\":0.0,\
         \"aux_term\":-0.0015919934428721616,\"soc_after\":0.5999803375558571,\"fallback\":false}]}"
    );
    // Exactly one dump per episode even though every step degraded.
    let dumps = run
        .trace_lines
        .iter()
        .filter(|l| l.contains("\"event\":\"flight_dump\""))
        .count();
    assert_eq!(dumps, 1);
}

/// Leg 3b: the same forced degradation under the span profiler — the
/// flight dump carries the phase that was active when the degradation
/// was noted (`control.step`: health is checked while the step span is
/// still open, after the supervisor span closed).
#[test]
fn forced_degradation_dump_carries_the_active_span_path_while_profiling() {
    let cycle = StandardCycle::Oscar.cycle();
    let mut cfg = JointControllerConfig::proposed();
    cfg.seed = 42;
    let mut agent = JointController::new(cfg);
    agent.set_training(false);
    let mut supervised = SupervisedPolicy::new(Corrupt { inner: agent });
    let mut hev = experiments::fresh_hev(0.6);
    telemetry::begin_task("forced", FLIGHT_ONLY);
    hev_trace::span::begin_task();
    simulate(&mut hev, &cycle, &mut supervised, &RewardConfig::default());
    let tree = hev_trace::span::take_tree();
    assert!(tree.root.children.contains_key("control.step"));
    let run = telemetry::take_task();
    let dump = run
        .trace_lines
        .iter()
        .find(|l| l.contains("\"event\":\"flight_dump\""))
        .expect("degradation produced a flight dump");
    assert!(
        dump.contains("\"span_path\":\"control.step\""),
        "dump {dump}"
    );
}
