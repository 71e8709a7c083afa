//! The versioned serve-bench report and degradation CSV.
//!
//! The report splits into a deterministic core — request/verdict
//! counts, per-rung totals, shed rate, and eval-budget percentiles, all
//! pure functions of the response stream — and wall-clock throughput
//! fields the Harness-role driver adds on top. CI compares only the
//! deterministic artifacts (response stream and degradation CSV) across
//! shard counts.

use crate::service::ServeOutput;
use crate::wire::Verdict;
use hev_trace::json::{self, Obj};

/// Version of the serve-bench report schema, written as the `version`
/// field. [`ServeReport::from_json`] reads only this version.
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
        let mut served = 0u64;
        let mut shed = 0u64;
        let mut errors = output.unknown_session;
        let mut crashed = 0u64;
        let mut rung_counts = [0u64; 4];
        for s in output.stats.values() {
            served += s.served;
            shed += s.shed;
            errors += s.errors;
            crashed += s.crashed;
            for (acc, r) in rung_counts.iter_mut().zip(s.rungs.iter()) {
                *acc += r;
            }
        }
        let requests = output.responses.len() as u64;
        let mut evals = output.served_evals();
        evals.sort_unstable();
        let mut shed_depth_counts = [0u64; 5];
        for r in &output.responses {
            if let Verdict::Shed { depth } = r.verdict {
                let bucket = SHED_DEPTH_BOUNDS
                    .iter()
                    .position(|&b| depth as f64 <= b)
                    .unwrap_or(SHED_DEPTH_BOUNDS.len());
                if let Some(slot) = shed_depth_counts.get_mut(bucket) {
                    *slot += 1;
                }
            }
        }
        Self {
            sessions,
            requests,
            served,
            shed,
            errors,
            rung_counts,
            quarantines: output.quarantines,
            crashed_requests: crashed,
            shed_rate: if requests == 0 {
                0.0
            } else {
                shed as f64 / requests as f64
            },
            eval_p50: percentile(&evals, 50),
            eval_p90: percentile(&evals, 90),
            eval_p99: percentile(&evals, 99),
            eval_p999: permille(&evals, 999),
            shed_depth_counts,
        }
    }

    /// Reads a report line back. Every field is required; returns
    /// `None` on a malformed line or any version other than
    /// [`SERVE_REPORT_VERSION`].
    pub fn from_json(line: &str) -> Option<Self> {
        if scan_u64(line, "version")? != u64::from(SERVE_REPORT_VERSION) {
            return None;
        }
        let shed_depth_counts = scan_u64_array(line, "shed_depth")?.try_into().ok()?;
        Some(Self {
            sessions: scan_u64(line, "sessions")?,
            requests: scan_u64(line, "requests")?,
            served: scan_u64(line, "served")?,
            shed: scan_u64(line, "shed")?,
            errors: scan_u64(line, "errors")?,
            rung_counts: [
                scan_u64(line, "rung_full")?,
                scan_u64(line, "rung_myopic")?,
                scan_u64(line, "rung_rule")?,
                scan_u64(line, "rung_limp_home")?,
            ],
            quarantines: scan_u64(line, "quarantines")?,
            crashed_requests: scan_u64(line, "crashed_requests")?,
            shed_rate: scan_f64(line, "shed_rate")?,
            eval_p50: scan_u64(line, "eval_p50")?,
            eval_p90: scan_u64(line, "eval_p90")?,
            eval_p99: scan_u64(line, "eval_p99")?,
            eval_p999: scan_u64(line, "eval_p999")?,
            shed_depth_counts,
        })
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
}

/// The raw text of a top-level `"key":` value in a report line (the
/// report emitter nests nothing but the shed-depth array, so scanning
/// to the next `,`/`}` is exact for scalar fields).
fn scan_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line.get(start..)?;
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest.get(..end)
}

fn scan_u64(line: &str, key: &str) -> Option<u64> {
    scan_raw(line, key)?.parse().ok()
}

fn scan_f64(line: &str, key: &str) -> Option<f64> {
    scan_raw(line, key)?.parse().ok()
}

fn scan_u64_array(line: &str, key: &str) -> Option<Vec<u64>> {
    let pat = format!("\"{key}\":[");
    let start = line.find(&pat)? + pat.len();
    let rest = line.get(start..)?;
    let body = rest.get(..rest.find(']')?)?;
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|x| x.parse().ok()).collect()
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

    #[test]
    fn reports_round_trip_through_json() {
        let fleet = FleetConfig {
            sessions: 2,
            requests: 30,
            seed: 7,
            chaos: true,
        };
        let sessions = build_sessions(&fleet);
        let requests = build_requests(&fleet, sessions.len() as u64);
        let config = ServeConfig {
            queue_capacity: 2,
            tick_requests: 12,
            ..ServeConfig::default()
        };
        let out = serve(&config, &sessions, &requests).unwrap();
        let report = ServeReport::from_output(&out, sessions.len() as u64);
        let back = ServeReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
        // Driver-appended wall-clock fields don't confuse the reader.
        let back = ServeReport::from_json(&report.to_json_with_throughput(1.5)).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn only_complete_current_version_lines_read_back() {
        // A complete current-version line reads back.
        let v2 = "{\"version\":2,\"sessions\":4,\"requests\":64,\"served\":60,\"shed\":3,\
                  \"errors\":1,\"rung_full\":50,\"rung_myopic\":6,\"rung_rule\":3,\
                  \"rung_limp_home\":1,\"quarantines\":2,\"crashed_requests\":1,\
                  \"shed_rate\":0.046875,\"eval_p50\":2400,\"eval_p90\":3100,\
                  \"eval_p99\":3900,\"eval_p999\":4000,\"shed_depth\":[0,1,2,0,0]}";
        let report = ServeReport::from_json(v2).unwrap();
        assert_eq!(report.requests, 64);
        assert_eq!(report.rung_counts, [50, 6, 3, 1]);
        assert_eq!(report.eval_p90, 3100);
        assert_eq!(report.eval_p999, 4000);
        assert_eq!(report.shed_depth_counts, [0, 1, 2, 0, 0]);
        // A verbatim v1 line (no tail percentiles, no shed-depth
        // histogram) and other versions are rejected.
        let v1 = "{\"version\":1,\"sessions\":4,\"requests\":64,\"served\":60,\"shed\":3,\
                  \"errors\":1,\"rung_full\":50,\"rung_myopic\":6,\"rung_rule\":3,\
                  \"rung_limp_home\":1,\"quarantines\":2,\"crashed_requests\":1,\
                  \"shed_rate\":0.046875,\"eval_p50\":2400,\"eval_p99\":3900}";
        assert!(ServeReport::from_json(v1).is_none());
        assert!(ServeReport::from_json(&v2.replace("\"version\":2", "\"version\":9")).is_none());
        // A current-version line missing any v2 field is rejected, not
        // defaulted.
        for field in ["\"eval_p90\":3100,", "\"eval_p999\":4000,"] {
            assert!(
                ServeReport::from_json(&v2.replace(field, "")).is_none(),
                "{field}"
            );
        }
        assert!(ServeReport::from_json(&v2.replace(",\"shed_depth\":[0,1,2,0,0]", "")).is_none());
        assert!(ServeReport::from_json(&v2.replace("[0,1,2,0,0]", "[0,1,2]")).is_none());
        assert!(ServeReport::from_json("{\"version\":2}").is_none());
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
