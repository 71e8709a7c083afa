//! The serve-bench driver: the only wall-clock-aware layer of the
//! crate (Harness role under `hevlint`).
//!
//! Everything below this module is deterministic; the driver builds the
//! fleet, times the serve call, and packages the deterministic
//! artifacts (response stream, degradation CSV, Prometheus exposition,
//! flight dumps) next to the wall-clock throughput report. The `repro
//! serve-bench` CLI target is a thin file-writing wrapper around
//! [`run_serve_bench`].

use crate::fleet::{build_requests, build_sessions, FleetConfig};
use crate::report::{degradation_csv_rows, ServeReport, DEGRADATION_CSV_HEADER};
use crate::service::{serve, ServeConfig};
use hev_model::ParamError;
use hev_trace::MetricsRegistry;
use std::time::Instant;

/// Everything one serve-bench run produced.
#[derive(Debug, Clone)]
pub struct ServeBenchResult {
    /// The versioned JSON report including wall-clock throughput
    /// (NOT byte-stable across machines — compare the stream instead).
    pub report_json: String,
    /// The deterministic response stream (JSONL, one line per request).
    pub response_stream: String,
    /// The deterministic per-session degradation CSV rows (no header).
    pub degradation_rows: Vec<String>,
    /// The degradation CSV header.
    pub degradation_header: &'static str,
    /// Prometheus exposition of the serve counters and histograms.
    pub prometheus: String,
    /// The service health line ([`ServeReport::health_json`]).
    pub health_json: String,
    /// Flight-recorder dumps emitted by quarantines.
    pub flight_dumps: Vec<String>,
    /// Merged span tree of the serve call (empty unless
    /// [`ServeConfig::profile`] was set).
    pub span_tree: hev_trace::SpanTree,
    /// Causal request-trace JSONL lines, one per request (empty unless
    /// [`ServeConfig::profile`] was set).
    pub request_traces: Vec<String>,
    /// The deterministic report (for assertions and further encoding).
    pub report: ServeReport,
}

/// Runs one serve-bench: builds the seeded fleet, serves the stream
/// over `shards` workers, and returns every artifact.
pub fn run_serve_bench(
    fleet: &FleetConfig,
    config: &ServeConfig,
) -> Result<ServeBenchResult, ParamError> {
    let sessions = build_sessions(fleet);
    let requests = build_requests(fleet, sessions.len() as u64);
    let t0 = Instant::now();
    let output = serve(config, &sessions, &requests)?;
    let wall_s = t0.elapsed().as_secs_f64();

    let report = ServeReport::from_output(&output, sessions.len() as u64);
    let mut registry = MetricsRegistry::new();
    output.record_metrics(&mut registry);

    Ok(ServeBenchResult {
        report_json: report.to_json_with_throughput(wall_s),
        response_stream: output.response_stream(),
        degradation_rows: degradation_csv_rows(&output),
        degradation_header: DEGRADATION_CSV_HEADER,
        prometheus: registry.to_prometheus("hev_"),
        health_json: report.health_json(),
        flight_dumps: output.flight_dumps,
        span_tree: output.span_tree,
        request_traces: output.request_traces,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_bench_produces_every_artifact() {
        let fleet = FleetConfig {
            sessions: 3,
            requests: 32,
            seed: 9,
            chaos: true,
        };
        let result = run_serve_bench(&fleet, &ServeConfig::default()).unwrap();
        assert_eq!(result.response_stream.lines().count(), 32);
        assert!(result.report_json.contains("\"wall_s\":"));
        assert!(result.prometheus.contains("hev_serve_requests"));
        assert!(result.health_json.contains("\"state\":"));
        assert_eq!(result.degradation_rows.len(), 3);
    }

    #[test]
    fn deterministic_artifacts_are_shard_invariant() {
        let fleet = FleetConfig {
            sessions: 4,
            requests: 64,
            seed: 13,
            chaos: true,
        };
        let base = ServeConfig::default();
        let one = run_serve_bench(
            &fleet,
            &ServeConfig {
                shards: 1,
                ..base.clone()
            },
        )
        .unwrap();
        let four = run_serve_bench(&fleet, &ServeConfig { shards: 4, ..base }).unwrap();
        assert_eq!(one.response_stream, four.response_stream);
        assert_eq!(one.degradation_rows, four.degradation_rows);
        assert_eq!(one.prometheus, four.prometheus);
        assert_eq!(one.report, four.report);
    }
}
