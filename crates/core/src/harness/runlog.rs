//! JSON-lines run log: per-run progress and timing without touching
//! stdout.
//!
//! Experiment *results* go to stdout and must stay byte-identical
//! across worker counts; *progress* is a side channel. The sink
//! therefore writes one JSON object per line to stderr or a file, and
//! timing fields are the only nondeterministic content — consumers that
//! diff logs should drop `elapsed_s`.
//!
//! The sink is installed process-globally (like a logger) so deep call
//! sites — the executor fanning out training runs — can report without
//! threading a handle through every experiment signature.
//!
//! # Schema
//!
//! Every line is one [`RunEvent`] with all of its fields present
//! (absent values are `null`). Event kinds:
//!
//! * `target_start`/`target_end`, `batch_start`/`batch_end` and
//!   `run_start`/`run_end` bracket the work;
//! * `episode_metrics` — an instrumented episode finished; `metrics`
//!   carries the telemetry registry snapshot (`null` on every other
//!   kind).

use serde::Serialize;
use std::io::Write;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One progress record.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunEvent {
    /// Event kind: `batch_start`, `run_start`, `run_end`, `batch_end`,
    /// `target_start`, `target_end`, `episode_metrics` (see the module
    /// docs).
    pub event: String,
    /// Human-readable task label (e.g. `fig2/UDDS/with/run1`).
    pub label: String,
    /// Task index within its batch.
    pub index: Option<u64>,
    /// Batch size.
    pub total: Option<u64>,
    /// The task's derived RNG seed.
    pub seed: Option<u64>,
    /// Worker-thread count of the batch.
    pub jobs: Option<u64>,
    /// Wall-clock duration, seconds. The only nondeterministic field.
    pub elapsed_s: Option<f64>,
    /// Registry snapshot of an `episode_metrics` event; `null`
    /// otherwise.
    pub metrics: Option<serde::Value>,
}

impl RunEvent {
    /// A record with the given kind and label and no optional fields.
    pub fn new(event: impl Into<String>, label: impl Into<String>) -> Self {
        Self {
            event: event.into(),
            label: label.into(),
            index: None,
            total: None,
            seed: None,
            jobs: None,
            elapsed_s: None,
            metrics: None,
        }
    }

    /// Sets the task index.
    pub fn index(mut self, i: usize) -> Self {
        self.index = Some(i as u64);
        self
    }

    /// Sets the batch size.
    pub fn total(mut self, n: usize) -> Self {
        self.total = Some(n as u64);
        self
    }

    /// Sets the task seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = Some(s);
        self
    }

    /// Sets the worker count.
    pub fn jobs(mut self, j: usize) -> Self {
        self.jobs = Some(j as u64);
        self
    }

    /// Sets the elapsed wall-clock time.
    pub fn elapsed(mut self, since: Instant) -> Self {
        self.elapsed_s = Some(since.elapsed().as_secs_f64());
        self
    }

    /// Sets the structured payload (used by `episode_metrics` events).
    pub fn metrics(mut self, value: serde::Value) -> Self {
        self.metrics = Some(value);
        self
    }
}

/// A JSON-lines sink for [`RunEvent`]s, safe to share across workers.
pub struct RunLog {
    writer: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for RunLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunLog").finish_non_exhaustive()
    }
}

impl RunLog {
    /// A sink over an arbitrary writer.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        Self {
            writer: Mutex::new(writer),
        }
    }

    /// A sink writing to stderr.
    pub fn stderr() -> Self {
        Self::new(Box::new(std::io::stderr()))
    }

    /// A sink writing (truncating) to the given file.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(Self::new(Box::new(std::fs::File::create(path)?)))
    }

    /// Writes one event as a JSON line. I/O and serialization errors are
    /// swallowed and a poisoned sink is recovered: progress reporting
    /// must never abort (or panic out of) a training batch.
    pub fn emit(&self, event: &RunEvent) {
        let Ok(line) = serde_json::to_string(event) else {
            return;
        };
        let mut w = match self.writer.lock() {
            Ok(w) => w,
            // A worker panicked while holding the sink; the sink itself
            // is just a buffered writer, so keep logging through it.
            Err(poisoned) => poisoned.into_inner(),
        };
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
}

static GLOBAL: OnceLock<RunLog> = OnceLock::new();

/// Installs the process-wide run log. Returns `false` (and drops the
/// sink) if one is already installed.
pub fn install(log: RunLog) -> bool {
    GLOBAL.set(log).is_ok()
}

/// The installed run log, if any.
fn global() -> Option<&'static RunLog> {
    GLOBAL.get()
}

/// Whether a run log is installed, so callers can skip building events
/// nobody reads.
pub fn is_installed() -> bool {
    global().is_some()
}

/// Emits to the installed run log, if any.
pub fn emit(event: &RunEvent) {
    if let Some(log) = global() {
        log.emit(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A writer that appends into a shared buffer.
    struct SharedBuf(Arc<StdMutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn emits_one_json_line_per_event() {
        let buf = Arc::new(StdMutex::new(Vec::new()));
        let log = RunLog::new(Box::new(SharedBuf(buf.clone())));
        log.emit(
            &RunEvent::new("run_start", "t/run0")
                .index(0)
                .total(3)
                .seed(42),
        );
        log.emit(&RunEvent::new("run_end", "t/run0").index(0).total(3));
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"run_start\""));
        assert!(lines[0].contains("\"seed\":42"));
        assert!(lines[1].contains("\"run_end\""));
    }

    #[test]
    fn events_round_trip() {
        let e = RunEvent::new("run_end", "x").index(2).total(8).jobs(4);
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.contains("\"elapsed_s\":null"));
        assert!(json.contains("\"index\":2"));
    }

    #[test]
    fn episode_metrics_event_carries_the_snapshot() {
        let snapshot: serde::Value =
            serde_json::from_str("{\"fuel_g\":12.5,\"steps\":10}").expect("valid snapshot json");
        let e = RunEvent::new("episode_metrics", "fig2/run0")
            .index(3)
            .metrics(snapshot);
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.contains("\"event\":\"episode_metrics\""));
        assert!(json.contains("\"fuel_g\":12.5"));
        assert!(json.contains("\"steps\":10"));
    }

    #[test]
    fn v2_events_keep_metrics_null_for_old_readers() {
        // Every kind but episode_metrics serializes the field as null,
        // so un-instrumented batches emit stable lines. No CI step
        // compares run logs; this test is what holds the field null.
        for kind in ["batch_start", "run_start", "run_end", "target_end"] {
            let json = serde_json::to_string(&RunEvent::new(kind, "x")).unwrap();
            assert!(json.contains("\"metrics\":null"), "{kind}: {json}");
        }
    }

    #[test]
    fn global_emit_without_install_is_a_noop() {
        // Must not panic. (Another test may have installed a sink; both
        // paths are exercised across the suite.)
        emit(&RunEvent::new("run_start", "noop"));
    }
}
