//! The metrics registry: named counters, gauges, and fixed-bound
//! histograms, with JSON and Prometheus text exposition.
//!
//! Names are kept in a `BTreeMap`, so every exposition lists metrics in
//! sorted order — byte-identical output for identical recordings, no
//! matter the insertion order. Histogram bucket bounds are fixed at
//! first observation (deterministic, never rebalanced).

use crate::json;
use std::collections::BTreeMap;

/// A fixed-bound histogram: `counts[i]` holds observations `x <=
/// bounds[i]` (exclusive of earlier buckets); the final slot counts the
/// overflow (`+Inf` bucket in Prometheus terms).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Ascending bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts; `bounds.len() + 1` entries.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Total observations.
    pub count: u64,
}

impl Histogram {
    /// An empty histogram over the given ascending bucket bounds.
    pub fn new(bounds: &[f64]) -> Self {
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, x: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| x <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += x;
        self.count += 1;
    }

    /// Merges pre-aggregated bucket counts (e.g. accumulated inline by a
    /// hot loop) into this histogram. Slices longer than the histogram's
    /// own bucket count fold their tail into the overflow bucket.
    pub(crate) fn merge_counts(&mut self, counts: &[u64], sum: f64, count: u64) {
        for (i, &c) in counts.iter().enumerate() {
            let idx = i.min(self.counts.len() - 1);
            self.counts[idx] += c;
        }
        self.sum += sum;
        self.count += count;
    }

    /// Merges another histogram into this one, bucket by bucket.
    ///
    /// Merging is commutative and associative (every field is a plain
    /// sum), so cross-shard aggregation gives the same result in any
    /// merge order — the property the serve layer relies on when it
    /// folds per-shard histograms into one exposition. The other
    /// histogram's buckets are matched by position; a tail beyond this
    /// histogram's bucket count folds into the overflow bucket.
    pub fn merge(&mut self, other: &Histogram) {
        self.merge_counts(&other.counts, other.sum, other.count);
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonically accumulated unsigned count.
    Counter(u64),
    /// A point-in-time float.
    Gauge(f64),
    /// A fixed-bound distribution.
    Histogram(Histogram),
}

/// A registry of named metrics with deterministic (sorted) exposition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, MetricValue>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to the named counter (creating it at zero).
    pub fn counter_add(&mut self, name: &str, v: u64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(c) => *c += v,
            // A name can only hold one metric kind; a mismatched write
            // resets it to the new kind rather than corrupting the old.
            slot => *slot = MetricValue::Counter(v),
        }
    }

    /// Sets the named gauge.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.metrics.insert(name.to_string(), MetricValue::Gauge(v));
    }

    /// Records an observation into the named histogram, creating it with
    /// the given bounds on first use (later calls ignore `bounds`).
    pub fn histogram_observe(&mut self, name: &str, bounds: &[f64], x: f64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| MetricValue::Histogram(Histogram::new(bounds)))
        {
            MetricValue::Histogram(h) => h.observe(x),
            slot => {
                let mut h = Histogram::new(bounds);
                h.observe(x);
                *slot = MetricValue::Histogram(h);
            }
        }
    }

    /// Merges pre-aggregated bucket counts into the named histogram,
    /// matched by position; a tail beyond its bucket count folds into the
    /// overflow bucket (as [`Histogram::merge`] does).
    pub fn histogram_merge(
        &mut self,
        name: &str,
        bounds: &[f64],
        counts: &[u64],
        sum: f64,
        n: u64,
    ) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| MetricValue::Histogram(Histogram::new(bounds)))
        {
            MetricValue::Histogram(h) => h.merge_counts(counts, sum, n),
            slot => {
                let mut h = Histogram::new(bounds);
                h.merge_counts(counts, sum, n);
                *slot = MetricValue::Histogram(h);
            }
        }
    }

    /// Removes every metric (the per-episode reset).
    pub fn clear(&mut self) {
        self.metrics.clear();
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// The named metric, if registered.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.get(name)
    }

    /// Iterates metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The registry as one JSON object (sorted keys, single line).
    /// Counters encode as integers, gauges as floats, histograms as
    /// `{"bounds":[..],"counts":[..],"sum":x,"count":n}`.
    pub fn snapshot_json(&self) -> String {
        let mut obj = json::Obj::new();
        for (name, metric) in &self.metrics {
            obj = match metric {
                MetricValue::Counter(c) => obj.u64(name, *c),
                MetricValue::Gauge(g) => obj.f64(name, *g),
                MetricValue::Histogram(h) => {
                    let inner = json::Obj::new()
                        .raw("bounds", &json::f64_array(&h.bounds))
                        .raw("counts", &json::u64_array(&h.counts))
                        .f64("sum", h.sum)
                        .u64("count", h.count)
                        .finish();
                    obj.raw(name, &inner)
                }
            };
        }
        obj.finish()
    }

    /// The registry in Prometheus text exposition format. Metric names
    /// are prefixed with `prefix` and sanitized to `[a-zA-Z0-9_]`;
    /// histograms expand to cumulative `_bucket{le=..}` series plus
    /// `_sum` and `_count`.
    pub fn to_prometheus(&self, prefix: &str) -> String {
        let mut out = String::new();
        for (name, metric) in &self.metrics {
            let full = sanitize(&format!("{prefix}{name}"));
            match metric {
                MetricValue::Counter(c) => {
                    out.push_str(&format!("# TYPE {full} counter\n{full} {c}\n"));
                }
                MetricValue::Gauge(g) => {
                    out.push_str(&format!("# TYPE {full} gauge\n{full} "));
                    push_prom_f64(&mut out, *g);
                    out.push('\n');
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE {full} histogram\n"));
                    let mut cumulative = 0u64;
                    for (i, &bound) in h.bounds.iter().enumerate() {
                        cumulative += h.counts.get(i).copied().unwrap_or(0);
                        // A non-finite bound would collide with the
                        // mandatory `+Inf` series below (duplicate or
                        // contradictory `le` labels); its observations
                        // stay in `cumulative` and surface there.
                        if !bound.is_finite() {
                            continue;
                        }
                        out.push_str(&format!("{full}_bucket{{le=\""));
                        push_prom_f64(&mut out, bound);
                        out.push_str(&format!("\"}} {cumulative}\n"));
                    }
                    out.push_str(&format!(
                        "{full}_bucket{{le=\"+Inf\"}} {}\n{full}_sum ",
                        h.count
                    ));
                    push_prom_f64(&mut out, h.sum);
                    out.push_str(&format!("\n{full}_count {}\n", h.count));
                }
            }
        }
        out
    }
}

/// Prometheus float text form: shortest round-trip; non-finite values
/// use the exposition-format spellings `NaN`, `+Inf`, `-Inf`.
fn push_prom_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        out.push_str(&format!("{x:?}"));
    } else if x.is_nan() {
        out.push_str("NaN");
    } else if x > 0.0 {
        out.push_str("+Inf");
    } else {
        out.push_str("-Inf");
    }
}

/// Maps a metric name onto the Prometheus charset.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut r = MetricsRegistry::new();
        r.counter_add("steps", 3);
        r.counter_add("steps", 2);
        r.gauge_set("epsilon", 0.5);
        r.gauge_set("epsilon", 0.25);
        assert_eq!(r.get("steps"), Some(&MetricValue::Counter(5)));
        assert_eq!(r.get("epsilon"), Some(&MetricValue::Gauge(0.25)));
    }

    #[test]
    fn histogram_buckets_by_upper_bound() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        for x in [0.5, 1.0, 5.0, 100.0] {
            h.observe(x);
        }
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.count, 4);
        assert!((h.sum - 106.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_matches_observe() {
        let mut direct = Histogram::new(&[1.0, 10.0]);
        for x in [0.5, 5.0, 20.0] {
            direct.observe(x);
        }
        let mut merged = Histogram::new(&[1.0, 10.0]);
        merged.merge_counts(&[1, 1, 1], 25.5, 3);
        assert_eq!(direct, merged);
    }

    #[test]
    fn snapshot_json_is_sorted_and_stable() {
        let mut r = MetricsRegistry::new();
        r.gauge_set("z_last", 1.5);
        r.counter_add("a_first", 2);
        r.histogram_observe("m_mid", &[1.0], 0.5);
        let json = r.snapshot_json();
        assert_eq!(
            json,
            "{\"a_first\":2,\"m_mid\":{\"bounds\":[1.0],\"counts\":[1,0],\
             \"sum\":0.5,\"count\":1},\"z_last\":1.5}"
        );
        assert_eq!(json, r.clone().snapshot_json());
    }

    #[test]
    fn prometheus_exposition_has_cumulative_buckets() {
        let mut r = MetricsRegistry::new();
        r.counter_add("steps", 7);
        r.histogram_observe("td.abs", &[1.0, 10.0], 0.5);
        r.histogram_observe("td.abs", &[1.0, 10.0], 5.0);
        r.histogram_observe("td.abs", &[1.0, 10.0], 50.0);
        let text = r.to_prometheus("hev_");
        assert!(text.contains("# TYPE hev_steps counter\nhev_steps 7\n"));
        assert!(text.contains("hev_td_abs_bucket{le=\"1.0\"} 1\n"));
        assert!(text.contains("hev_td_abs_bucket{le=\"10.0\"} 2\n"));
        assert!(text.contains("hev_td_abs_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("hev_td_abs_count 3\n"));
    }

    #[test]
    fn clear_resets_everything() {
        let mut r = MetricsRegistry::new();
        r.counter_add("steps", 1);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.snapshot_json(), "{}");
    }
}
