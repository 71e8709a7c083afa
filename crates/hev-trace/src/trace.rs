//! Sampled decision tracing: one structured event per recorded step,
//! encoded as versioned JSONL.
//!
//! A [`StepEvent`] captures everything needed to replay a decision
//! post-hoc: the observed (continuous) state the discretization saw, the
//! encoded state index, the action-mask size, the inner-opt winner (the
//! applied `(i, gear, p_aux)` control), and the reward decomposition
//! (fuel term vs the `w·f_aux(p_aux)` auxiliary term). Sampling is by
//! step index — a pure function of the step number, never of time or
//! thread — so traces are byte-identical across worker counts.

use crate::json;

/// Version stamp written into every trace line as `"v"`; bump on
/// breaking layout changes.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// One recorded control step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepEvent {
    /// Episode index within the run (training episodes first, then
    /// evaluation, in execution order).
    pub episode: u64,
    /// Episode kind: `"train"` or `"eval"`.
    pub kind: &'static str,
    /// Step index within the episode.
    pub step: u64,
    /// Simulation time, s.
    pub time_s: f64,
    /// Observed wheel power demand `p_dem`, W.
    pub p_dem_w: f64,
    /// Observed speed `v`, m/s.
    pub speed_mps: f64,
    /// Observed state of charge `q`.
    pub soc: f64,
    /// The predictor's demand forecast `pre`, W (0 without prediction).
    pub prediction_w: f64,
    /// Encoded state index, when the deciding policy exposed one.
    pub state: Option<u64>,
    /// Feasible actions in this step's mask, when exposed.
    pub feasible: Option<u64>,
    /// Chosen action index; `None` when the policy fell back outside its
    /// action space.
    pub action: Option<u64>,
    /// Applied battery current `i`, A.
    pub current_a: f64,
    /// Applied gear index.
    pub gear: u64,
    /// Applied auxiliary power `p_aux`, W.
    pub p_aux_w: f64,
    /// Shaped reward the learner saw this step.
    pub reward: f64,
    /// Fuel burned this step, g (the reward's fuel term before sign).
    pub fuel_g: f64,
    /// Auxiliary reward term `w·f_aux(p_aux)·ΔT`.
    pub aux_term: f64,
    /// State of charge after the step.
    pub soc_after: f64,
    /// Whether the harness had to substitute a fallback control.
    pub fallback: bool,
}

impl StepEvent {
    /// Encodes the event as a JSON object (no trailing newline), tagged
    /// with the schema version and the owning run's label.
    pub fn to_json(&self, run: &str) -> String {
        let mut obj = json::Obj::new()
            .u64("v", u64::from(TRACE_SCHEMA_VERSION))
            .str("event", "step")
            .str("run", run)
            .u64("episode", self.episode)
            .str("kind", self.kind)
            .u64("step", self.step)
            .f64("time_s", self.time_s)
            .f64("p_dem_w", self.p_dem_w)
            .f64("speed_mps", self.speed_mps)
            .f64("soc", self.soc)
            .f64("prediction_w", self.prediction_w);
        obj = match self.state {
            Some(s) => obj.u64("state", s),
            None => obj.raw("state", "null"),
        };
        obj = match self.feasible {
            Some(n) => obj.u64("feasible", n),
            None => obj.raw("feasible", "null"),
        };
        obj = match self.action {
            Some(a) => obj.u64("action", a),
            None => obj.raw("action", "null"),
        };
        obj.f64("current_a", self.current_a)
            .u64("gear", self.gear)
            .f64("p_aux_w", self.p_aux_w)
            .f64("reward", self.reward)
            .f64("fuel_g", self.fuel_g)
            .f64("aux_term", self.aux_term)
            .f64("soc_after", self.soc_after)
            .bool("fallback", self.fallback)
            .finish()
    }
}

/// Encodes one `flight_dump` JSONL line: the trigger, the offending
/// step, and the given pre-encoded events, oldest first. The dump is a
/// pure function of its arguments, so trace files stay byte-identical
/// across worker counts.
///
/// When the span profiler is active on this thread and a span is open,
/// the dump also carries the active span path (`span_path`), so a
/// degradation event is attributable to the phase that produced it
/// from the dump alone. With profiling off the field is absent and the
/// line is byte-identical to the unprofiled run.
pub fn flight_dump<'a>(
    run: &str,
    episode: u64,
    trigger: &str,
    step: u64,
    events: impl IntoIterator<Item = &'a str>,
) -> String {
    let mut obj = json::Obj::new()
        .u64("v", u64::from(TRACE_SCHEMA_VERSION))
        .str("event", "flight_dump")
        .str("run", run)
        .u64("episode", episode)
        .str("trigger", trigger)
        .u64("step", step);
    if let Some(path) = crate::span::current_path() {
        obj = obj.str("span_path", &path);
    }
    obj.raw_seq("events", events).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event() -> StepEvent {
        StepEvent {
            episode: 2,
            kind: "train",
            step: 17,
            time_s: 17.0,
            p_dem_w: 12_500.0,
            speed_mps: 9.5,
            soc: 0.61,
            prediction_w: 11_000.0,
            state: Some(143),
            feasible: Some(9),
            action: Some(4),
            current_a: -8.0,
            gear: 2,
            p_aux_w: 600.0,
            reward: -0.42,
            fuel_g: 0.35,
            aux_term: 0.0,
            soc_after: 0.612,
            fallback: false,
        }
    }

    #[test]
    fn step_event_encodes_versioned_json() {
        let line = event().to_json("fig2/UDDS/with/run0");
        assert!(line.starts_with("{\"v\":1,\"event\":\"step\","));
        assert!(line.contains("\"run\":\"fig2/UDDS/with/run0\""));
        assert!(line.contains("\"state\":143"));
        assert!(line.contains("\"action\":4"));
        assert!(line.contains("\"fuel_g\":0.35"));
        assert!(line.contains("\"fallback\":false"));
    }

    #[test]
    fn missing_decision_fields_encode_as_null() {
        let mut e = event();
        e.state = None;
        e.feasible = None;
        e.action = None;
        let line = e.to_json("r");
        assert!(line.contains("\"state\":null,\"feasible\":null,\"action\":null"));
    }

    #[test]
    fn flight_dump_carries_the_active_span_path_only_while_profiling() {
        let events = ["{\"step\":3}"];
        crate::span::begin_task();
        let dumped = {
            let _outer = crate::span::enter("control.step");
            let _inner = crate::span::enter("control.supervise");
            flight_dump("run", 1, "supervisor_degradation", 3, events)
        };
        let _ = crate::span::take_tree();
        assert!(dumped.contains("\"span_path\":\"control.step/control.supervise\""));
        // Profiling off: the field is absent, byte-identical to the
        // unprofiled artifact.
        let bare = flight_dump("run", 1, "supervisor_degradation", 3, events);
        assert!(!bare.contains("span_path"));
    }
}
