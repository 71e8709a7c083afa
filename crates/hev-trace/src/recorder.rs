//! The flight recorder: a fixed-size ring buffer of recent step events
//! that dumps when something goes wrong.
//!
//! The owner ([`FlightRecorder`]) dumps into the trace stream as a
//! `flight_dump` JSONL line when the simulation loop detects a
//! supervisor rejection or a non-finite control. The dump is a pure
//! function of the recorded steps, so trace files stay byte-identical
//! across worker counts.

use crate::json;
use crate::trace::TRACE_SCHEMA_VERSION;
use std::collections::VecDeque;

/// A ring buffer of pre-encoded step-event JSON objects.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    capacity: usize,
    buf: VecDeque<String>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (`0` disables it).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            buf: VecDeque::with_capacity(capacity),
        }
    }

    /// Whether the recorder keeps anything at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Number of currently buffered events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records one encoded step event, evicting the oldest when full.
    pub fn record(&mut self, event_json: String) {
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(event_json);
    }

    /// Empties the ring (each episode starts clean).
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Encodes the ring as one `flight_dump` JSONL line: the trigger, the
    /// offending step, and every buffered event (oldest first). Returns
    /// `None` when the recorder is disabled or empty.
    ///
    /// When the span profiler is active on this thread and a span is
    /// open, the dump also carries the active span path (`span_path`),
    /// so a degradation event is attributable to the phase that
    /// produced it from the dump alone. With profiling off the field is
    /// absent and the line is byte-identical to the unprofiled run.
    pub fn dump(&self, run: &str, episode: u64, trigger: &str, step: u64) -> Option<String> {
        if self.buf.is_empty() {
            return None;
        }
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
        Some(
            obj.raw_seq("events", self.buf.iter().map(String::as_str))
                .finish(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_only_the_most_recent_events() {
        let mut r = FlightRecorder::new(2);
        r.record("{\"step\":0}".into());
        r.record("{\"step\":1}".into());
        r.record("{\"step\":2}".into());
        assert_eq!(r.len(), 2);
        let dump = r.dump("run", 0, "supervisor_degradation", 2).unwrap();
        assert!(!dump.contains("\"step\":0"));
        assert!(dump.contains("\"events\":[{\"step\":1},{\"step\":2}]"));
        assert!(dump.contains("\"trigger\":\"supervisor_degradation\""));
    }

    #[test]
    fn disabled_or_empty_recorder_never_dumps() {
        let mut off = FlightRecorder::new(0);
        off.record("{}".into());
        assert!(off.dump("r", 0, "t", 0).is_none());
        assert!(!off.is_enabled());
        assert!(FlightRecorder::new(4).dump("r", 0, "t", 0).is_none());
    }

    #[test]
    fn dump_carries_the_active_span_path_only_while_profiling() {
        let mut r = FlightRecorder::new(2);
        r.record("{\"step\":3}".into());
        crate::span::begin_task();
        let dumped = {
            let _outer = crate::span::enter("control.step");
            let _inner = crate::span::enter("control.supervise");
            r.dump("run", 1, "supervisor_degradation", 3).unwrap()
        };
        let _ = crate::span::take_tree();
        assert!(dumped.contains("\"span_path\":\"control.step/control.supervise\""));
        // Profiling off: the field is absent, byte-identical to the
        // unprofiled artifact.
        let bare = r.dump("run", 1, "supervisor_degradation", 3).unwrap();
        assert!(!bare.contains("span_path"));
    }

    #[test]
    fn clear_empties_the_ring() {
        let mut r = FlightRecorder::new(4);
        r.record("{}".into());
        r.clear();
        assert!(r.is_empty());
    }
}
