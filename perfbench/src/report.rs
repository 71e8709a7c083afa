//! Metric names, the per-run report, and its two printed forms.
//!
//! Every workload reports the same metric names, so two runs of any
//! workload compare key by key. A per-layer metric whose layer a
//! workload never calls reads 0 with 0 samples: the layer did no work
//! there.

use std::fmt::Write as _;

/// End-to-end metrics (untraced runs): name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("replay_per_s", "1/s"),
    ("latency_us_p50", "us"),
    ("latency_us_p99", "us"),
    ("success_share", "share"),
    ("quality_mpg", "mpg"),
    ("peak_rss_mb", "MB"),
];

/// The serve ladder's rungs, in ladder order, as metric-name suffixes.
pub const RUNGS: [&str; 4] = ["full", "myopic", "rule", "limp_home"];

/// Per-layer metrics (traced runs): name, unit. Rung-indexed families
/// are expanded by [`layer_metrics`].
const LAYER_FIXED: &[(&str, &str)] = &[
    ("trace.overhead_pct", "%"),
    ("trace.clock_ns", "ns"),
    ("host.speed", "x"),
    ("raw.setup_s", "s"),
    ("raw.work_per_s", "1/s"),
    ("raw.replay_per_s", "1/s"),
    ("raw.latency_us_p50", "us"),
    ("raw.latency_us_p99", "us"),
    ("cycle.build_ms", "ms"),
    ("model.plan_build_ms", "ms"),
    ("model.plans", "count"),
    ("model.setup_ctx_rebuilds", "count"),
    ("model.evals", "count"),
    ("model.batch_lanes", "count"),
    ("model.batch_calls", "count"),
    ("model.batch_width", "lanes"),
    ("model.ctx_rebuilds", "count"),
    ("control.decide_train_us_p50", "us"),
    ("control.decide_train_us_p99", "us"),
    ("control.decide_eval_us_p50", "us"),
    ("control.decide_eval_us_p99", "us"),
    ("control.evals_per_decide", "count"),
    ("control.train_ns_per_eval", "ns"),
    ("control.eval_ns_per_eval", "ns"),
    ("sim.step_us", "us"),
    ("rl.pretrain_s", "s"),
    ("rl.q_entries", "count"),
    ("rl.q_visited", "count"),
    ("dp.solve_ms", "ms"),
    ("dp.cells", "count"),
    ("dp.evals_per_cell", "count"),
    ("dp.ns_per_eval", "ns"),
    ("dp.forward_us", "us"),
    ("serve.call_s", "s"),
    ("serve.dispatch_share", "share"),
    ("serve.requests", "count"),
    ("serve.evals_per_request", "count"),
    ("serve.ns_per_eval", "ns"),
    ("serve.wasted_eval_share", "share"),
    ("serve.session_new_us", "us"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
];

/// Every per-layer metric name with its unit, in print order.
pub fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for rung in RUNGS {
        out.push((format!("serve.rung_us_p50.{rung}"), "us"));
        out.push((format!("serve.rung_us_p99.{rung}"), "us"));
        out.push((format!("serve.rung_share.{rung}"), "share"));
        out.push((format!("serve.rung_ns_per_eval.{rung}"), "ns"));
    }
    out
}

/// One measured figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (one of [`END_TO_END`] or [`layer_metrics`]).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples the value summarizes (repetitions for a rate,
    /// timed calls for a percentile, 1 for a single reading).
    pub samples: usize,
}

/// Everything one benchmark run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in the order they were recorded.
    pub metrics: Vec<Metric>,
    /// Operations the timed region attempted.
    pub attempted: u64,
    /// Operations that did not complete correctly.
    pub failed: u64,
    /// Correctness-check failures, human readable. Any entry makes the
    /// run incorrect.
    pub violations: Vec<String>,
    /// Free-form lines for the human-readable summary.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric {name} is not declared"));
        if !value.is_finite() {
            self.violations
                .push(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            // An empty float sum is -0.0; print it as 0.
            value: if value == 0.0 { 0.0 } else { value },
            unit,
            samples,
        });
    }

    /// Records a correctness check; `what` describes the failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Adds a line to the human-readable summary.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// True when every correctness check passed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The metrics a run prints: every end-to-end metric untraced, every
    /// per-layer metric traced. Undeclared leftovers are dropped; a
    /// missing end-to-end metric is a violation, a missing per-layer
    /// metric reads 0 with 0 samples (its layer did no work).
    pub fn select(&mut self, traced: bool) -> Vec<Metric> {
        let names: Vec<(String, &'static str)> = if traced {
            layer_metrics()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut out = Vec::with_capacity(names.len());
        for (name, unit) in names {
            match self.metrics.iter().find(|m| m.name == name) {
                Some(m) => out.push(m.clone()),
                None => {
                    if !traced {
                        self.violations
                            .push(format!("end-to-end metric {name} was not measured"));
                    }
                    out.push(Metric {
                        name,
                        value: 0.0,
                        unit,
                        samples: 0,
                    });
                }
            }
        }
        out
    }
}

/// The declared unit of a metric name.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .or_else(|| {
            layer_metrics()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u)
        })
}

/// A JSON number: finite values print with every digit Rust's shortest
/// round-trip formatting gives; non-finite values (already recorded as
/// violations) print as 0 so the line stays valid JSON.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// One human-readable metric line: name, value, unit and sample count.
pub fn metric_line(m: &Metric) -> String {
    let value = if m.value == 0.0 || m.value.abs() >= 1.0 {
        format!("{:.4}", m.value)
    } else {
        format!("{:.4e}", m.value)
    };
    format!(
        "  {:<34} {:>16} {:<6} n={}",
        m.name, value, m.unit, m.samples
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(layer_metrics().into_iter().map(|(n, _)| n));
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "metric names repeat");
        for n in &names {
            assert!(n.len() <= 64, "{n} is too long");
            assert!(n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "{n} has a forbidden character"
            );
        }
        assert!(layer_metrics().len() <= 128);
    }

    #[test]
    fn benchmark_manifest_declares_exactly_these_metrics() {
        let manifest = include_str!("../../BENCHMARK.json");
        let declared = manifest.matches("\"name\":").count();
        let workloads = 3;
        assert_eq!(
            declared,
            workloads + END_TO_END.len() + layer_metrics().len(),
            "BENCHMARK.json and report.rs disagree on the metric list"
        );
        for (name, unit) in END_TO_END {
            assert!(
                manifest.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "BENCHMARK.json lacks end-to-end metric {name} [{unit}]"
            );
        }
        for (name, unit) in layer_metrics() {
            assert!(
                manifest.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "BENCHMARK.json lacks per-layer metric {name} [{unit}]"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.put("setup_s", 0.25, 5);
        let line = result_line(true, 10, 0, &r.select(false));
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        // The unmeasured end-to-end metrics are flagged.
        assert!(!r.correct());
    }

    #[test]
    fn unmeasured_layers_read_zero_without_violation() {
        let mut r = Report::default();
        let layers = r.select(true);
        assert_eq!(layers.len(), layer_metrics().len());
        assert!(layers.iter().all(|m| m.value == 0.0 && m.samples == 0));
        assert!(r.correct());
    }

    #[test]
    fn non_finite_values_are_violations_and_print_as_zero() {
        let mut r = Report::default();
        r.put("dp.solve_ms", f64::NAN, 1);
        assert!(!r.correct());
        let line = result_line(false, 1, 1, &r.select(true));
        assert!(line.contains("\"dp.solve_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
    }
}
