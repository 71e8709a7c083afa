//! Deterministic run telemetry: the glue between the simulation loop and
//! the `hev-trace` recording primitives.
//!
//! An [`EpisodeTelemetry`] collector rides through
//! [`crate::sim::simulate_instrumented`] and gathers, entirely in
//! memory:
//!
//! * a per-episode [`MetricsRegistry`] snapshot (TD-error statistics,
//!   exploration rate, Q-table occupancy, the fuel vs `w·f_aux(p_aux)`
//!   reward decomposition, supervisor intervention counts, per-step
//!   evaluation counts), emitted as one `episode_metrics` JSONL line;
//! * sampled [`StepEvent`] trace lines (`--trace-sample N`);
//! * a [`FlightRecorder`] ring of recent steps, dumped into the trace
//!   stream when the supervisor rejects a decision or a non-finite
//!   control reaches the plant.
//!
//! Nothing here touches a clock or a file: lines are pre-serialized
//! strings collected per task and written afterwards in task order
//! (see `hev_trace::sink`), which is what makes the emitted files
//! byte-identical across `--jobs` worker counts.

use crate::harness::runlog::{self, RunEvent};
use crate::metrics::EpisodeMetrics;
use crate::reward::RewardConfig;
use hev_rl::{QStats, TdStats, TD_ABS_DELTA_BOUNDS};
use hev_trace::evals::Counts;
use hev_trace::json;
use hev_trace::{FlightRecorder, MetricsRegistry, StepEvent, TraceSampler};

/// What telemetry a run collects. The default is fully disabled — the
/// simulation loop then skips every recording branch, keeping the
/// un-instrumented paths bit-identical and cost-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Collect the per-episode metrics registry and emit
    /// `episode_metrics` lines.
    pub metrics: bool,
    /// Record every `trace_sample`-th step as a trace line (`0` = none).
    pub trace_sample: u64,
    /// Flight-recorder ring capacity in steps (`0` = disabled).
    pub flight_capacity: usize,
}

impl TelemetryConfig {
    /// Everything off (the default).
    pub fn disabled() -> Self {
        Self {
            metrics: false,
            trace_sample: 0,
            flight_capacity: 0,
        }
    }

    /// Metrics on, every step traced, a 64-step flight ring.
    pub fn enabled() -> Self {
        Self {
            metrics: true,
            trace_sample: 1,
            flight_capacity: 64,
        }
    }

    /// Whether any collection is configured.
    pub fn is_enabled(&self) -> bool {
        self.metrics || self.trace_sample != 0 || self.flight_capacity != 0
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// What a deciding policy recorded about its most recent decision (only
/// while recording is enabled via
/// [`crate::sim::HevPolicy::set_record_decisions`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionInfo {
    /// Encoded state index `s = [p_dem, v, q, pre]`.
    pub state: usize,
    /// Number of feasible actions in this step's mask.
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

/// The per-run collector threaded through
/// [`crate::sim::simulate_instrumented`]. One collector covers a whole
/// run (many episodes); episode boundaries reset the registry and the
/// flight ring but keep accumulating lines.
#[derive(Debug)]
pub struct EpisodeTelemetry {
    config: TelemetryConfig,
    run: String,
    episode: u64,
    kind: &'static str,
    registry: MetricsRegistry,
    sampler: TraceSampler,
    flight: FlightRecorder,
    metrics_lines: Vec<String>,
    trace_lines: Vec<String>,
    prometheus: String,
    counts_at_start: Counts,
    last_rejections: usize,
    dumped: bool,
}

impl EpisodeTelemetry {
    /// A collector for the labelled run.
    pub fn new(run: impl Into<String>, config: TelemetryConfig) -> Self {
        Self {
            config,
            run: run.into(),
            episode: 0,
            kind: "train",
            registry: MetricsRegistry::new(),
            sampler: TraceSampler::new(config.trace_sample),
            flight: FlightRecorder::new(config.flight_capacity),
            metrics_lines: Vec::new(),
            trace_lines: Vec::new(),
            prometheus: String::new(),
            counts_at_start: Counts::default(),
            last_rejections: 0,
            dumped: false,
        }
    }

    /// The configuration this collector was built with.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// The index of the episode currently being recorded.
    pub fn episode(&self) -> u64 {
        self.episode
    }

    /// The current episode kind (`"train"` or `"eval"`).
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Labels the upcoming episode(s) as training or evaluation.
    pub fn set_kind(&mut self, kind: &'static str) {
        self.kind = kind;
    }

    /// The current episode's registry (for exposition or inspection).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Resets per-episode state; called by the simulation loop at the
    /// top of each instrumented episode.
    pub fn begin_episode(&mut self) {
        self.registry.clear();
        self.flight.clear();
        self.counts_at_start = hev_trace::evals::counts();
        self.last_rejections = 0;
        self.dumped = false;
    }

    /// Records one simulated step: always into the flight ring, and into
    /// the trace stream when the sampler picks the step index.
    pub fn record_step(&mut self, ev: &StepEvent) {
        let sampled = self.sampler.samples(ev.step);
        if !sampled && !self.flight.is_enabled() {
            return;
        }
        let line = ev.to_json(&self.run);
        if self.flight.is_enabled() {
            if sampled {
                self.flight.record(line.clone());
            } else {
                self.flight.record(line);
                return;
            }
        }
        self.trace_lines.push(line);
    }

    /// Dumps the flight ring into the trace stream (at most once per
    /// episode) when this step degraded: a non-finite control reached
    /// the plant, or the supervisor's rejection count grew.
    ///
    /// `rejections` is the supervising policy's cumulative
    /// [`crate::DegradationReport::rejections`] for the episode (0 when
    /// unsupervised).
    pub fn note_step_health(&mut self, step: u64, control_finite: bool, rejections: usize) {
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
        if let Some(trigger) = trigger {
            if let Some(line) = self.flight.dump(&self.run, self.episode, trigger, step) {
                self.trace_lines.push(line);
                self.dumped = true;
            }
        }
    }

    /// Closes the episode: populates the registry from the episode's
    /// metrics and the policy's learning snapshot, emits the
    /// `episode_metrics` JSONL line, refreshes the Prometheus
    /// exposition, and advances the episode index.
    pub fn end_episode(
        &mut self,
        metrics: &EpisodeMetrics,
        reward: &RewardConfig,
        policy: Option<PolicyTelemetry>,
    ) {
        if self.config.metrics {
            self.populate_registry(metrics, reward, policy);
            let line = json::Obj::new()
                .u64("v", u64::from(hev_trace::TRACE_SCHEMA_VERSION))
                .str("event", "episode_metrics")
                .str("run", &self.run)
                .u64("episode", self.episode)
                .str("kind", self.kind)
                .raw("metrics", &self.registry.snapshot_json())
                .finish();
            self.metrics_lines.push(line);
            self.prometheus = self.registry.to_prometheus("hev_");
            // Mirror the snapshot into the run log (schema v3) so live
            // progress consumers see it without waiting for the batch's
            // telemetry files. The run log is the nondeterministic side
            // channel; the deterministic copy is `metrics_lines`.
            if let Ok(snapshot) =
                serde_json::from_str::<serde::Value>(&self.registry.snapshot_json())
            {
                runlog::emit(
                    &RunEvent::new("episode_metrics", self.run.clone())
                        .index(self.episode as usize)
                        .metrics(snapshot),
                );
            }
        }
        self.episode += 1;
    }

    fn populate_registry(
        &mut self,
        metrics: &EpisodeMetrics,
        reward: &RewardConfig,
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
            reward.aux_weight * metrics.utility_sum * reward.dt_s,
        );
        r.gauge_set("soc_initial", metrics.soc_initial);
        r.gauge_set("soc_final", metrics.soc_final);
        r.gauge_set("utility_mean", metrics.mean_utility());
        if let Some(d) = &metrics.degradation {
            r.counter_add("supervisor_decisions", d.decisions as u64);
            r.counter_add("supervisor_infeasible", d.infeasible as u64);
            r.counter_add("supervisor_non_finite", d.non_finite as u64);
            r.counter_add("supervisor_control_errors", d.control_errors as u64);
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
        }
    }

    /// Consumes the collector into its collected lines.
    pub fn into_run(self) -> RunTelemetry {
        RunTelemetry {
            label: self.run,
            metrics_lines: self.metrics_lines,
            trace_lines: self.trace_lines,
            prometheus: self.prometheus,
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
        let mut t = EpisodeTelemetry::new("r", TelemetryConfig::disabled());
        t.begin_episode();
        t.record_step(&step_event(0));
        t.note_step_health(0, true, 0);
        t.end_episode(&EpisodeMetrics::new(0.6), &RewardConfig::default(), None);
        let run = t.into_run();
        assert!(run.metrics_lines.is_empty());
        assert!(run.trace_lines.is_empty());
        assert!(run.prometheus.is_empty());
    }

    #[test]
    fn sampling_picks_every_nth_step() {
        let mut cfg = TelemetryConfig::disabled();
        cfg.trace_sample = 2;
        let mut t = EpisodeTelemetry::new("r", cfg);
        t.begin_episode();
        for step in 0..5 {
            t.record_step(&step_event(step));
        }
        let run = t.into_run();
        assert_eq!(run.trace_lines.len(), 3, "steps 0, 2, 4");
        assert!(run.trace_lines[1].contains("\"step\":2"));
    }

    #[test]
    fn flight_dump_fires_once_on_degradation_and_contains_recent_steps() {
        let mut cfg = TelemetryConfig::disabled();
        cfg.flight_capacity = 2;
        let mut t = EpisodeTelemetry::new("r", cfg);
        t.begin_episode();
        for step in 0..4 {
            t.record_step(&step_event(step));
            t.note_step_health(step, true, 0);
        }
        assert!(t.into_run().trace_lines.is_empty(), "healthy: no dump");

        let mut t = EpisodeTelemetry::new("r", cfg);
        t.begin_episode();
        t.record_step(&step_event(0));
        t.note_step_health(0, true, 0);
        t.record_step(&step_event(1));
        t.note_step_health(1, true, 1); // supervisor rejected something
        t.record_step(&step_event(2));
        t.note_step_health(2, true, 1); // count stable: no second dump
        let run = t.into_run();
        assert_eq!(run.trace_lines.len(), 1);
        let dump = &run.trace_lines[0];
        assert!(dump.contains("\"event\":\"flight_dump\""));
        assert!(dump.contains("\"trigger\":\"supervisor_degradation\""));
        assert!(dump.contains("\"step\":1"));
    }

    #[test]
    fn non_finite_control_also_triggers_a_dump() {
        let mut cfg = TelemetryConfig::disabled();
        cfg.flight_capacity = 4;
        let mut t = EpisodeTelemetry::new("r", cfg);
        t.begin_episode();
        t.record_step(&step_event(0));
        t.note_step_health(0, false, 0);
        let run = t.into_run();
        assert_eq!(run.trace_lines.len(), 1);
        assert!(run.trace_lines[0].contains("\"trigger\":\"non_finite_control\""));
    }

    #[test]
    fn episode_metrics_line_carries_the_registry_snapshot() {
        let mut cfg = TelemetryConfig::disabled();
        cfg.metrics = true;
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
        };
        t.end_episode(&m, &RewardConfig::default(), Some(policy));
        let run = t.into_run();
        assert_eq!(run.metrics_lines.len(), 1);
        let line = &run.metrics_lines[0];
        assert!(line.starts_with("{\"v\":1,\"event\":\"episode_metrics\",\"run\":\"fig2/run0\""));
        assert!(line.contains("\"fuel_g\":12.5"));
        assert!(line.contains("\"epsilon\":0.25"));
        assert!(line.contains("\"q_occupancy\":0.125"));
        assert!(run.prometheus.contains("# TYPE hev_fuel_g gauge"));
    }

    #[test]
    fn episode_index_advances_per_episode() {
        let mut cfg = TelemetryConfig::disabled();
        cfg.metrics = true;
        let mut t = EpisodeTelemetry::new("r", cfg);
        for _ in 0..2 {
            t.begin_episode();
            t.end_episode(&EpisodeMetrics::new(0.6), &RewardConfig::default(), None);
        }
        let run = t.into_run();
        assert!(run.metrics_lines[0].contains("\"episode\":0"));
        assert!(run.metrics_lines[1].contains("\"episode\":1"));
    }
}
