//! The versioned serve-bench report and degradation CSV.
//!
//! The report splits into a deterministic core — request/verdict
//! counts, per-rung totals, shed rate, and eval-budget percentiles, all
//! pure functions of the response stream — and wall-clock throughput
//! fields the Harness-role driver adds on top. The service health line
//! ([`ServeReport::health_json`]) is a function of the deterministic
//! core. CI compares only the deterministic artifacts (response stream,
//! degradation CSV, health line and Prometheus text) across shard
//! counts.

use crate::service::ServeOutput;
use crate::wire::Verdict;
use hev_trace::json::{self, Obj};
use hev_trace::Histogram;

/// Version of the serve-bench report schema, written as the `version`
/// field.
pub const SERVE_REPORT_VERSION: u32 = 2;

/// Shed-depth histogram bounds (queue depth at shed time); the counts
/// array carries one extra overflow bucket.
pub const SHED_DEPTH_BOUNDS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

/// The deterministic serve-bench summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Sessions in the fleet.
    pub sessions: u64,
    /// Requests in the stream.
    pub requests: u64,
    /// Requests served with a control.
    pub served: u64,
    /// Requests shed by backpressure.
    pub shed: u64,
    /// Requests answered with a typed error (including unknown ids).
    pub errors: u64,
    /// Served counts per ladder rung (full, myopic, rule, limp-home).
    pub rung_counts: [u64; 4],
    /// Quarantine events.
    pub quarantines: u64,
    /// Requests answered `session_crashed`.
    pub crashed_requests: u64,
    /// Shed fraction of all requests.
    pub shed_rate: f64,
    /// Median evals per served request (nearest-rank).
    pub eval_p50: u64,
    /// 90th-percentile evals per served request (nearest-rank).
    pub eval_p90: u64,
    /// 99th-percentile evals per served request (nearest-rank).
    pub eval_p99: u64,
    /// 99.9th-percentile evals per served request (nearest-rank).
    pub eval_p999: u64,
    /// Shed-count histogram over [`SHED_DEPTH_BOUNDS`] (queue depth at
    /// shed time), last bucket = overflow. All zero when nothing shed.
    pub shed_depth_counts: [u64; 5],
}

/// Shed or error share of the stream beyond which the service counts
/// as critical.
const CRITICAL_RATIO: f64 = 0.25;

/// `n` as a fraction of `requests` (0 for an empty stream).
fn ratio(n: u64, requests: u64) -> f64 {
    if requests == 0 {
        0.0
    } else {
        n as f64 / requests as f64
    }
}

/// Nearest-rank percentile of a sorted slice (0 for an empty one).
/// Integer percent keeps the rank computation in exact integer math.
fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct * sorted.len()).div_ceil(100);
    // hevlint::allow(panic::reachable-from-serve, rank is clamped to [1, len] and len > 0 was checked above)
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank permille (pct ‰) of a sorted slice — the p99.9 needs
/// finer than integer-percent resolution, in the same exact math.
fn permille(sorted: &[u64], pm: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pm * sorted.len()).div_ceil(1000);
    // hevlint::allow(panic::reachable-from-serve, rank is clamped to [1, len] and len > 0 was checked above)
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl ServeReport {
    /// Summarizes one serve run over a fleet of `sessions` vehicles.
    pub fn from_output(output: &ServeOutput, sessions: u64) -> Self {
        let totals = output.totals();
        let mut evals = output.served_evals();
        evals.sort_unstable();
        let mut shed_depth = Histogram::new(&SHED_DEPTH_BOUNDS);
        for r in &output.responses {
            if let Verdict::Shed { depth } = r.verdict {
                shed_depth.observe(depth as f64);
            }
        }
        Self {
            sessions,
            requests: totals.requests,
            served: totals.served,
            shed: totals.shed,
            errors: totals.errors,
            rung_counts: totals.rungs,
            quarantines: totals.quarantines,
            crashed_requests: totals.crashed,
            shed_rate: ratio(totals.shed, totals.requests),
            eval_p50: percentile(&evals, 50),
            eval_p90: percentile(&evals, 90),
            eval_p99: percentile(&evals, 99),
            eval_p999: permille(&evals, 999),
            shed_depth_counts: shed_depth.counts.try_into().unwrap_or_default(),
        }
    }

    /// The deterministic report fields as one JSON object body (no
    /// braces), so the driver can append wall-clock fields.
    fn core(&self) -> Obj {
        Obj::new()
            .u64("version", u64::from(SERVE_REPORT_VERSION))
            .u64("sessions", self.sessions)
            .u64("requests", self.requests)
            .u64("served", self.served)
            .u64("shed", self.shed)
            .u64("errors", self.errors)
            .u64("rung_full", self.rung_counts[0])
            .u64("rung_myopic", self.rung_counts[1])
            .u64("rung_rule", self.rung_counts[2])
            .u64("rung_limp_home", self.rung_counts[3])
            .u64("quarantines", self.quarantines)
            .u64("crashed_requests", self.crashed_requests)
            .f64("shed_rate", self.shed_rate)
            .u64("eval_p50", self.eval_p50)
            .u64("eval_p90", self.eval_p90)
            .u64("eval_p99", self.eval_p99)
            .u64("eval_p999", self.eval_p999)
            .raw("shed_depth", &json::u64_array(&self.shed_depth_counts))
    }

    /// The deterministic report as one JSON line.
    pub fn to_json(&self) -> String {
        self.core().finish()
    }

    /// The report plus the driver's wall-clock throughput fields.
    pub fn to_json_with_throughput(&self, wall_s: f64) -> String {
        let requests_per_sec = if wall_s > 0.0 {
            self.requests as f64 / wall_s
        } else {
            0.0
        };
        let sessions_per_sec = if wall_s > 0.0 {
            self.sessions as f64 / wall_s
        } else {
            0.0
        };
        self.core()
            .f64("wall_s", wall_s)
            .f64("requests_per_sec", requests_per_sec)
            .f64("sessions_per_sec", sessions_per_sec)
            .finish()
    }

    /// The service health line: `ok` when every request was served,
    /// `critical` after any quarantine or when shed or errored requests
    /// exceed 25 % of the stream, `degraded` otherwise.
    pub fn health_json(&self) -> String {
        let error_ratio = ratio(self.errors, self.requests);
        let state = if self.quarantines > 0
            || self.shed_rate > CRITICAL_RATIO
            || error_ratio > CRITICAL_RATIO
        {
            "critical"
        } else if self.shed > 0 || self.errors > 0 {
            "degraded"
        } else {
            "ok"
        };
        Obj::new()
            .str("state", state)
            .u64("requests", self.requests)
            .f64("shed_ratio", self.shed_rate)
            .f64("error_ratio", error_ratio)
            .u64("quarantines", self.quarantines)
            .finish()
    }
}

/// Header of the per-session degradation CSV.
pub const DEGRADATION_CSV_HEADER: &str =
    "session,requests,served,shed,errors,full,myopic,rule,limp_home,quarantines,crashed";

/// The per-session degradation rows, in session-id order.
pub fn degradation_csv_rows(output: &ServeOutput) -> Vec<String> {
    output
        .stats
        .iter()
        .map(|(id, s)| {
            format!(
                "{},{},{},{},{},{},{},{},{},{},{}",
                id,
                s.requests,
                s.served,
                s.shed,
                s.errors,
                s.rungs[0],
                s.rungs[1],
                s.rungs[2],
                s.rungs[3],
                s.quarantines,
                s.crashed
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{build_requests, build_sessions, FleetConfig};
    use crate::service::{serve, ServeConfig};

    #[test]
    fn percentiles_use_nearest_rank() {
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[10], 50), 10);
        assert_eq!(percentile(&[1, 2, 3, 4], 50), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 99), 4);
        assert_eq!(percentile(&[1, 2, 3, 4], 100), 4);
    }

    #[test]
    fn report_counts_reconcile_with_the_stream() {
        let fleet = FleetConfig {
            sessions: 3,
            requests: 40,
            seed: 11,
            chaos: false,
        };
        let sessions = build_sessions(&fleet);
        let requests = build_requests(&fleet, sessions.len() as u64);
        let out = serve(&ServeConfig::default(), &sessions, &requests).unwrap();
        let report = ServeReport::from_output(&out, sessions.len() as u64);
        assert_eq!(report.requests, 40);
        assert_eq!(report.served + report.shed + report.errors, report.requests);
        assert_eq!(report.rung_counts.iter().sum::<u64>(), report.served);
        let json = report.to_json();
        assert!(json.starts_with("{\"version\":2,"));
        assert!(json.contains("\"eval_p50\":"));
        assert!(json.contains("\"eval_p90\":"));
        assert!(json.contains("\"eval_p999\":"));
        assert!(json.contains("\"shed_depth\":["));
        let with_wall = report.to_json_with_throughput(2.0);
        assert!(with_wall.contains("\"wall_s\":2.0"));
        assert!(with_wall.contains("\"requests_per_sec\":20.0"));
    }

    /// A report over `requests` requests with the given dispositions
    /// (the rest served).
    fn report(requests: u64, shed: u64, errors: u64, quarantines: u64) -> ServeReport {
        ServeReport {
            sessions: 1,
            requests,
            served: requests - shed - errors,
            shed,
            errors,
            rung_counts: [requests - shed - errors, 0, 0, 0],
            quarantines,
            crashed_requests: 0,
            shed_rate: ratio(shed, requests),
            eval_p50: 0,
            eval_p90: 0,
            eval_p99: 0,
            eval_p999: 0,
            shed_depth_counts: [0; 5],
        }
    }

    #[test]
    fn empty_report_is_healthy() {
        let health = report(0, 0, 0, 0).health_json();
        assert!(
            health.starts_with("{\"state\":\"ok\",\"requests\":0,"),
            "{health}"
        );
    }

    #[test]
    fn shedding_degrades_and_quarantines_are_critical() {
        let health = report(100, 3, 0, 0).health_json();
        assert!(health.contains("\"state\":\"degraded\""), "{health}");
        assert!(health.contains("\"shed_ratio\":0.03,"), "{health}");
        let health = report(100, 3, 0, 1).health_json();
        assert!(health.contains("\"state\":\"critical\""), "{health}");
    }

    #[test]
    fn heavy_shedding_is_critical_without_quarantines() {
        let health = report(100, 30, 0, 0).health_json();
        assert!(health.contains("\"state\":\"critical\""), "{health}");
    }

    #[test]
    fn health_json_encoding_is_stable() {
        assert_eq!(
            report(4, 0, 1, 0).health_json(),
            "{\"state\":\"degraded\",\"requests\":4,\"shed_ratio\":0.0,\
             \"error_ratio\":0.25,\"quarantines\":0}"
        );
    }

    #[test]
    fn degradation_rows_cover_every_session() {
        let fleet = FleetConfig {
            sessions: 3,
            requests: 30,
            seed: 5,
            chaos: false,
        };
        let sessions = build_sessions(&fleet);
        let requests = build_requests(&fleet, sessions.len() as u64);
        let out = serve(&ServeConfig::default(), &sessions, &requests).unwrap();
        let rows = degradation_csv_rows(&out);
        assert_eq!(rows.len(), 3);
        assert_eq!(DEGRADATION_CSV_HEADER.split(',').count(), 11);
        for row in &rows {
            assert_eq!(row.split(',').count(), 11);
        }
    }
}
