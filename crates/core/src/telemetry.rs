//! Deterministic run telemetry: the glue between the simulation loop and
//! the `hev-trace` recording primitives.
//!
//! A task opens a per-thread window with [`begin_task`] and closes it
//! with [`take_task`], the same shape as `hev_trace::span`. While the
//! window is open, every episode of the simulation loop
//! ([`crate::sim::simulate`] and its siblings) records into it,
//! entirely in memory:
//!
//! * a per-episode [`MetricsRegistry`] snapshot (TD-error statistics,
//!   exploration rate, Q-table occupancy, greedy evaluation's
//!   myopic-fallback steps, the fuel vs `w·f_aux(p_aux)`
//!   reward decomposition, supervisor intervention counts, per-step
//!   evaluation counts), emitted as one `episode_metrics` JSONL line;
//! * sampled [`StepEvent`] trace lines (`--trace-sample N`);
//! * a ring of the last 64 steps, encoded as one
//!   [`hev_trace::flight_dump`] line in the trace stream when the
//!   supervisor rejects a decision or a non-finite control reaches the
//!   plant.
//!
//! Nothing here touches a clock or a file: lines are pre-serialized
//! strings collected per task and written afterwards in task order
//! (by `repro`), which is what makes the emitted files
//! byte-identical across `--jobs` worker counts.

use crate::metrics::EpisodeMetrics;
use crate::reward::RewardConfig;
use hev_rl::{QStats, TdStats, TD_ABS_DELTA_BOUNDS};
use hev_trace::evals::Counts;
use hev_trace::json;
use hev_trace::{MetricsRegistry, StepEvent};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::VecDeque;

/// Flight ring capacity in steps, active whenever a trace is collected.
const FLIGHT_CAPACITY: usize = 64;

/// What telemetry a run collects. The default is fully disabled — no
/// window is opened, so the simulation loop skips every recording
/// branch and stays bit-identical and cost-free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Collect the per-episode metrics registry and emit
    /// `episode_metrics` lines.
    pub metrics: bool,
    /// `None`: no trace. `Some(0)`: flight dumps only. `Some(n)`: every
    /// n-th step as a trace line, plus flight dumps.
    pub trace_sample: Option<u64>,
}

impl TelemetryConfig {
    /// Whether any collection is configured.
    pub fn is_enabled(&self) -> bool {
        self.metrics || self.trace_sample.is_some()
    }
}

thread_local! {
    static WINDOW: RefCell<Option<EpisodeTelemetry>> = const { RefCell::new(None) };
}

/// Opens this thread's telemetry window for one labelled task (e.g.
/// `fig2/UDDS/with/run0`), replacing any window left open.
pub fn begin_task(label: impl Into<String>, config: TelemetryConfig) {
    let collector = EpisodeTelemetry::new(label, config);
    WINDOW.with(|w| *w.borrow_mut() = Some(collector));
}

/// Closes this thread's window and returns what it recorded; an empty
/// [`RunTelemetry`] when no window was open.
pub fn take_task() -> RunTelemetry {
    WINDOW
        .with(|w| w.borrow_mut().take())
        .map(EpisodeTelemetry::into_run)
        .unwrap_or_default()
}

/// Takes the open window's collector for the length of one episode, so
/// the simulation loop reads the thread-local once per episode (and a
/// nested simulation records nothing).
pub(crate) fn take_collector() -> Option<EpisodeTelemetry> {
    WINDOW.with(|w| w.borrow_mut().take())
}

/// Returns a collector taken by [`take_collector`] to the window.
pub(crate) fn restore_collector(collector: EpisodeTelemetry) {
    WINDOW.with(|w| *w.borrow_mut() = Some(collector));
}

/// What a deciding policy recorded about its most recent decision (only
/// while recording is enabled via
/// [`crate::sim::HevPolicy::set_record_decisions`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionInfo {
    /// Encoded state index `s = [p_dem, v, q, pre]`.
    pub state: usize,
    /// Number of feasible actions in this step's mask. The controller
    /// probes the whole mask to count it only while recording; otherwise
    /// it probes just the actions its argmax reaches, so recording costs
    /// evals but changes no decision.
    pub feasible: usize,
    /// Chosen action index.
    pub action: usize,
    /// The predictor's demand forecast fed into the state encoding, W
    /// (0 when the state space has no prediction dimension).
    pub prediction_w: f64,
}

/// A policy's learning-progress snapshot at episode end.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyTelemetry {
    /// Current exploration rate ε.
    pub epsilon: f64,
    /// TD-error statistics accumulated over the episode.
    pub td: TdStats,
    /// Q-table occupancy summary.
    pub q: QStats,
    /// Greedy-evaluation steps in the episode with no visited feasible
    /// action, which the myopic fallback decides (0 in training).
    pub myopic_fallback_steps: u64,
}

/// Everything one run collected, ready for the harness to write in task
/// order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTelemetry {
    /// The run's label (e.g. `fig2/UDDS/with/run0`).
    pub label: String,
    /// One `episode_metrics` JSONL line per episode.
    pub metrics_lines: Vec<String>,
    /// Sampled step-trace and flight-dump JSONL lines.
    pub trace_lines: Vec<String>,
    /// Prometheus text exposition of the final episode's registry.
    pub prometheus: String,
}

/// The per-task collector behind the telemetry window. One collector
/// covers a whole task (many episodes); episode boundaries reset the
/// flight ring but keep accumulating lines, and the registry holds the
/// last closed episode's metrics.
#[derive(Debug)]
pub(crate) struct EpisodeTelemetry {
    config: TelemetryConfig,
    run: String,
    pub(crate) episode: u64,
    /// The running episode's label, set from its policy's
    /// [`crate::sim::HevPolicy::is_learning`] when the episode begins.
    pub(crate) kind: &'static str,
    registry: MetricsRegistry,
    /// Trace every `trace_every`-th step; `0` traces none.
    trace_every: u64,
    /// The episode's last [`FLIGHT_CAPACITY`] steps, encoded only when
    /// dumped; `None` when no trace is collected.
    flight: Option<VecDeque<StepEvent>>,
    metrics_lines: Vec<String>,
    trace_lines: Vec<String>,
    counts_at_start: Counts,
    last_rejections: usize,
    dumped: bool,
}

impl EpisodeTelemetry {
    fn new(run: impl Into<String>, config: TelemetryConfig) -> Self {
        Self {
            config,
            run: run.into(),
            episode: 0,
            kind: "train",
            registry: MetricsRegistry::new(),
            trace_every: config.trace_sample.unwrap_or(0),
            flight: config
                .trace_sample
                .map(|_| VecDeque::with_capacity(FLIGHT_CAPACITY)),
            metrics_lines: Vec::new(),
            trace_lines: Vec::new(),
            counts_at_start: Counts::default(),
            last_rejections: 0,
            dumped: false,
        }
    }

    /// Resets per-episode state; called by the simulation loop at the
    /// top of each instrumented episode.
    pub(crate) fn begin_episode(&mut self) {
        if let Some(ring) = &mut self.flight {
            ring.clear();
        }
        self.counts_at_start = hev_trace::evals::counts();
        self.last_rejections = 0;
        self.dumped = false;
    }

    /// Records one simulated step: into the flight ring whenever a trace
    /// is collected, and into the trace stream when its index is a
    /// multiple of `trace_every`. Sampling is a pure function of the
    /// step index.
    pub(crate) fn record_step(&mut self, ev: &StepEvent) {
        if let Some(ring) = &mut self.flight {
            if ring.len() == FLIGHT_CAPACITY {
                ring.pop_front();
            }
            ring.push_back(ev.clone());
        }
        if self.trace_every != 0 && ev.step.is_multiple_of(self.trace_every) {
            self.trace_lines.push(ev.to_json(&self.run));
        }
    }

    /// Dumps the flight ring into the trace stream (at most once per
    /// episode) when this step degraded: a non-finite control reached
    /// the plant, or the supervisor's rejection count grew.
    ///
    /// `rejections` is the supervising policy's cumulative
    /// [`crate::DegradationReport::rejections`] for the episode (0 when
    /// unsupervised).
    pub(crate) fn note_step_health(&mut self, step: u64, control_finite: bool, rejections: usize) {
        let trigger = if !control_finite {
            Some("non_finite_control")
        } else if rejections > self.last_rejections {
            Some("supervisor_degradation")
        } else {
            None
        };
        self.last_rejections = rejections;
        if self.dumped {
            return;
        }
        let ring = self.flight.as_ref().filter(|ring| !ring.is_empty());
        let (Some(trigger), Some(ring)) = (trigger, ring) else {
            return;
        };
        let events: Vec<String> = ring.iter().map(|ev| ev.to_json(&self.run)).collect();
        self.trace_lines.push(hev_trace::flight_dump(
            &self.run,
            self.episode,
            trigger,
            step,
            events.iter().map(String::as_str),
        ));
        self.dumped = true;
    }

    /// Closes the episode: repopulates the registry from the episode's
    /// metrics (stepped `dt` seconds at a time) and the policy's learning
    /// snapshot, emits the `episode_metrics` JSONL line, and advances the
    /// episode index.
    pub(crate) fn end_episode(
        &mut self,
        metrics: &EpisodeMetrics,
        reward: &RewardConfig,
        dt: f64,
        policy: Option<PolicyTelemetry>,
    ) {
        if self.config.metrics {
            self.registry.clear();
            self.populate_registry(metrics, reward, dt, policy);
            let snapshot = self.registry.snapshot_json();
            let line = json::Obj::new()
                .u64("v", u64::from(hev_trace::TRACE_SCHEMA_VERSION))
                .str("event", "episode_metrics")
                .str("run", &self.run)
                .u64("episode", self.episode)
                .str("kind", self.kind)
                .raw("metrics", &snapshot)
                .finish();
            self.metrics_lines.push(line);
        }
        self.episode += 1;
    }

    fn populate_registry(
        &mut self,
        metrics: &EpisodeMetrics,
        reward: &RewardConfig,
        dt: f64,
        policy: Option<PolicyTelemetry>,
    ) {
        let counts = hev_trace::evals::counts().since(&self.counts_at_start);
        let r = &mut self.registry;
        r.counter_add("steps", metrics.steps as u64);
        r.counter_add("evals", counts.evals);
        r.counter_add("ctx_rebuilds", counts.ctx_rebuilds);
        r.counter_add("fallback_steps", metrics.fallback_steps as u64);
        r.counter_add("trace_miss_steps", metrics.trace_miss_steps as u64);
        r.gauge_set("fuel_g", metrics.fuel_g);
        r.gauge_set("distance_m", metrics.distance_m);
        r.gauge_set("reward_total", metrics.total_reward);
        // The paper reward decomposes as Σ(−fuel_i + w·u_i·ΔT); the two
        // terms below are each accumulated independently, so their float
        // sum may differ from `reward_total` in the last bits.
        r.gauge_set("reward_fuel_term", -metrics.fuel_g);
        r.gauge_set(
            "reward_aux_term",
            reward.aux_weight * metrics.utility_sum * dt,
        );
        r.gauge_set("soc_initial", metrics.soc_initial);
        r.gauge_set("soc_final", metrics.soc_final);
        r.gauge_set("utility_mean", metrics.mean_utility());
        if let Some(d) = &metrics.degradation {
            r.counter_add("supervisor_decisions", d.decisions as u64);
            r.counter_add("supervisor_infeasible", d.infeasible as u64);
            r.counter_add("supervisor_non_finite", d.non_finite as u64);
            r.counter_add("supervisor_myopic_rescues", d.myopic_rescues as u64);
            r.counter_add("supervisor_rule_rescues", d.rule_rescues as u64);
            r.counter_add("supervisor_limp_home", d.limp_home as u64);
        }
        if let Some(p) = policy {
            r.gauge_set("epsilon", p.epsilon);
            r.counter_add("td_updates", p.td.updates);
            r.gauge_set("td_mean_abs_delta", p.td.mean_abs_delta());
            r.gauge_set("td_max_abs_delta", p.td.max_abs_delta);
            r.gauge_set("td_sum_delta", p.td.sum_delta);
            r.histogram_merge(
                "td_abs_delta",
                &TD_ABS_DELTA_BOUNDS,
                &p.td.bucket_counts,
                p.td.sum_abs_delta,
                p.td.updates,
            );
            r.gauge_set("q_states", p.q.n_states as f64);
            r.gauge_set("q_actions", p.q.n_actions as f64);
            r.gauge_set("q_visited", p.q.visited as f64);
            r.gauge_set("q_occupancy", p.q.occupancy());
            r.counter_add("q_visits_total", p.q.visits_total);
            r.counter_add("myopic_fallback_steps", p.myopic_fallback_steps);
        }
    }

    /// Consumes the collector into its collected lines and the
    /// Prometheus exposition of the last closed episode (empty when no
    /// metrics were collected).
    fn into_run(self) -> RunTelemetry {
        RunTelemetry {
            label: self.run,
            metrics_lines: self.metrics_lines,
            trace_lines: self.trace_lines,
            prometheus: self.registry.to_prometheus("hev_"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_event(step: u64) -> StepEvent {
        StepEvent {
            episode: 0,
            kind: "train",
            step,
            time_s: step as f64,
            p_dem_w: 1000.0,
            speed_mps: 5.0,
            soc: 0.6,
            prediction_w: 0.0,
            state: Some(1),
            feasible: Some(4),
            action: Some(2),
            current_a: 0.0,
            gear: 1,
            p_aux_w: 600.0,
            reward: -0.1,
            fuel_g: 0.1,
            aux_term: 0.0,
            soc_after: 0.6,
            fallback: false,
        }
    }

    #[test]
    fn disabled_config_collects_nothing() {
        let mut t = EpisodeTelemetry::new("r", TelemetryConfig::default());
        t.begin_episode();
        t.record_step(&step_event(0));
        // Without a trace there is no ring, so even a degraded step
        // dumps nothing.
        t.note_step_health(0, false, 1);
        t.end_episode(
            &EpisodeMetrics::new(0.6),
            &RewardConfig::default(),
            1.0,
            None,
        );
        let run = t.into_run();
        assert!(run.metrics_lines.is_empty());
        assert!(run.trace_lines.is_empty());
        assert!(run.prometheus.is_empty());
    }

    #[test]
    fn sampling_picks_every_nth_step() {
        let cfg = TelemetryConfig {
            trace_sample: Some(2),
            ..Default::default()
        };
        let mut t = EpisodeTelemetry::new("r", cfg);
        t.begin_episode();
        for step in 0..5 {
            t.record_step(&step_event(step));
        }
        let run = t.into_run();
        assert_eq!(run.trace_lines.len(), 3, "steps 0, 2, 4");
        assert!(run.trace_lines[1].contains("\"step\":2"));
    }

    const FLIGHT_ONLY: TelemetryConfig = TelemetryConfig {
        metrics: false,
        trace_sample: Some(0),
    };

    #[test]
    fn flight_dump_fires_once_on_degradation_and_contains_recent_steps() {
        let healthy_steps = FLIGHT_CAPACITY as u64 + 6;
        let mut t = EpisodeTelemetry::new("r", FLIGHT_ONLY);
        t.begin_episode();
        for step in 0..healthy_steps {
            t.record_step(&step_event(step));
            t.note_step_health(step, true, 0);
        }
        assert!(t.into_run().trace_lines.is_empty(), "healthy: no dump");

        let mut t = EpisodeTelemetry::new("r", FLIGHT_ONLY);
        t.begin_episode();
        for step in 0..healthy_steps {
            t.record_step(&step_event(step));
            t.note_step_health(step, true, 0);
        }
        let degraded = healthy_steps;
        t.record_step(&step_event(degraded));
        t.note_step_health(degraded, true, 1); // supervisor rejected something
        t.record_step(&step_event(degraded + 1));
        t.note_step_health(degraded + 1, true, 1); // count stable: no second dump
        let run = t.into_run();
        assert_eq!(run.trace_lines.len(), 1);
        let dump = &run.trace_lines[0];
        assert!(dump.contains("\"event\":\"flight_dump\""));
        assert!(dump.contains("\"trigger\":\"supervisor_degradation\""));
        // The ring holds exactly the last FLIGHT_CAPACITY steps.
        let oldest = degraded + 1 - FLIGHT_CAPACITY as u64;
        assert!(dump.contains(&format!("\"step\":{degraded},")));
        assert!(dump.contains(&format!("\"step\":{oldest},")));
        assert!(!dump.contains(&format!("\"step\":{},", oldest - 1)));
        assert_eq!(dump.matches("\"event\":\"step\"").count(), FLIGHT_CAPACITY);
    }

    #[test]
    fn each_episode_dumps_only_its_own_steps() {
        let mut t = EpisodeTelemetry::new("r", FLIGHT_ONLY);
        for episode in 0..2 {
            t.begin_episode();
            for step in 0..3 {
                t.record_step(&step_event(step));
            }
            t.note_step_health(2, true, 1);
            t.end_episode(
                &EpisodeMetrics::new(0.6),
                &RewardConfig::default(),
                1.0,
                None,
            );
            assert_eq!(t.trace_lines.len(), episode + 1, "one dump per episode");
        }
        let run = t.into_run();
        for dump in &run.trace_lines {
            assert_eq!(dump.matches("\"event\":\"step\"").count(), 3);
        }
    }

    #[test]
    fn non_finite_control_also_triggers_a_dump() {
        let mut t = EpisodeTelemetry::new("r", FLIGHT_ONLY);
        t.begin_episode();
        let steps = FLIGHT_CAPACITY as u64 + 1;
        for step in 0..steps {
            t.record_step(&step_event(step));
            t.note_step_health(step, step + 1 < steps, 0);
        }
        let run = t.into_run();
        assert_eq!(run.trace_lines.len(), 1);
        assert!(run.trace_lines[0].contains("\"trigger\":\"non_finite_control\""));
    }

    #[test]
    fn episode_metrics_line_carries_the_registry_snapshot() {
        let cfg = TelemetryConfig {
            metrics: true,
            ..Default::default()
        };
        let mut t = EpisodeTelemetry::new("fig2/run0", cfg);
        t.begin_episode();
        let mut m = EpisodeMetrics::new(0.6);
        m.steps = 10;
        m.fuel_g = 12.5;
        let policy = PolicyTelemetry {
            epsilon: 0.25,
            td: TdStats::new(),
            q: QStats {
                n_states: 10,
                n_actions: 4,
                visited: 5,
                visits_total: 20,
            },
            myopic_fallback_steps: 3,
        };
        t.end_episode(&m, &RewardConfig::default(), 1.0, Some(policy));
        let run = t.into_run();
        assert_eq!(run.metrics_lines.len(), 1);
        let line = &run.metrics_lines[0];
        assert!(line.starts_with("{\"v\":1,\"event\":\"episode_metrics\",\"run\":\"fig2/run0\""));
        assert!(line.contains("\"fuel_g\":12.5"));
        assert!(line.contains("\"epsilon\":0.25"));
        assert!(line.contains("\"q_occupancy\":0.125"));
        assert!(line.contains("\"myopic_fallback_steps\":3"));
        assert!(run.prometheus.contains("# TYPE hev_fuel_g gauge"));
    }

    #[test]
    fn episode_index_advances_per_episode() {
        let cfg = TelemetryConfig {
            metrics: true,
            ..Default::default()
        };
        let mut t = EpisodeTelemetry::new("r", cfg);
        for _ in 0..2 {
            t.begin_episode();
            t.end_episode(
                &EpisodeMetrics::new(0.6),
                &RewardConfig::default(),
                1.0,
                None,
            );
        }
        let run = t.into_run();
        assert!(run.metrics_lines[0].contains("\"episode\":0"));
        assert!(run.metrics_lines[1].contains("\"episode\":1"));
    }
}
