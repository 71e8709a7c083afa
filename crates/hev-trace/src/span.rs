//! Hierarchical span profiler with a deterministic virtual clock.
//!
//! A span measures one named phase of work (`model.scored_sweep`,
//! `control.td_update`, `serve.ladder.full`, …) on the **virtual
//! clock**: candidate-evaluation counts read from the thread-local
//! [`crate::evals`] counters, plus the fused batch-lane count. Virtual
//! time is a pure function of the work performed, so every number a
//! span records is bit-identical at any `--jobs` or serve shard
//! count — the profile is a deterministic artifact, compared
//! byte-for-byte in CI like the figures themselves.
//!
//! An optional **wall-clock lane** rides alongside: a harness-role
//! module ([`crate::wallclock`]) installs a nanosecond hook via
//! [`set_wall_clock`], and every span then also accumulates elapsed
//! wall time. Wall numbers are machine state, so they are excluded
//! from every determinism-compared serialization ([`SpanTree::to_json`]
//! and the Chrome trace) and appear only in the human-facing
//! attribution table.
//!
//! # Usage
//!
//! Profiling is off by default and [`enter`] is a cheap no-op (one
//! thread-local flag read). A harness task turns it on around its work:
//!
//! ```
//! use hev_trace::span;
//!
//! span::begin_task();
//! {
//!     let _s = span::enter("phase.outer");
//!     let _inner = span::enter("phase.inner");
//! } // guards drop in LIFO order
//! let tree = span::take_tree();
//! assert_eq!(tree.root.children["phase.outer"].calls, 1);
//! ```
//!
//! Trees from many tasks merge commutatively ([`SpanTree::merge`] sums
//! counts by name path), so the merged profile of a parallel run is
//! independent of completion order — the same argument the telemetry
//! files use, applied to the profile.

use crate::evals;
use crate::json::{self, Obj};
use crate::registry::MetricsRegistry;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

/// Schema version of the span-tree JSON artifact.
pub const SPAN_SCHEMA_VERSION: u32 = 1;

/// Per-call eval-cost histogram bounds shared by every span node (the
/// final implicit bucket is the `+Inf` overflow).
pub const SPAN_EVAL_BOUNDS: [f64; 7] = [10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0, 10000.0];

/// Bucket count of the per-call histogram (bounds plus overflow).
const HIST_SLOTS: usize = SPAN_EVAL_BOUNDS.len() + 1;

/// Bucket index of one per-call eval cost, matching
/// `Histogram::observe` semantics (`x <= bound`).
fn bucket(evals: u64) -> usize {
    SPAN_EVAL_BOUNDS
        .iter()
        .position(|&b| evals as f64 <= b)
        .unwrap_or(SPAN_EVAL_BOUNDS.len())
}

/// One node of the thread-local recording arena. Children are indices
/// into the same arena; lookup is a linear scan (fan-out per phase is
/// small and names are `&'static str`, so the comparison is a pointer
/// check most of the time).
#[derive(Debug)]
struct Rec {
    name: &'static str,
    children: Vec<usize>,
    calls: u64,
    evals: u64,
    lanes: u64,
    wall_ns: u64,
    hist: [u64; HIST_SLOTS],
}

impl Rec {
    fn new(name: &'static str) -> Self {
        Self {
            name,
            children: Vec::new(),
            calls: 0,
            evals: 0,
            lanes: 0,
            wall_ns: 0,
            hist: [0; HIST_SLOTS],
        }
    }
}

/// The thread-local profiler state: an arena of recording nodes (index
/// 0 is the task root) plus the active span stack.
#[derive(Debug)]
struct Profiler {
    recs: Vec<Rec>,
    stack: Vec<usize>,
    /// Bumped by every [`begin_task`]/[`take_tree`]; a guard whose
    /// generation no longer matches is stale and drops silently.
    generation: u64,
    start: evals::Counts,
    start_wall: u64,
}

impl Profiler {
    fn new() -> Self {
        Self {
            recs: vec![Rec::new("task")],
            stack: Vec::new(),
            generation: 0,
            start: evals::Counts::default(),
            start_wall: 0,
        }
    }

    fn reset(&mut self) {
        self.recs.clear();
        self.recs.push(Rec::new("task"));
        self.stack.clear();
        self.generation = self.generation.wrapping_add(1);
    }

    /// Index of the current parent (top of stack, else the root).
    fn parent(&self) -> usize {
        self.stack.last().copied().unwrap_or(0)
    }

    /// Finds or creates the named child of `parent`.
    fn child(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(rec) = self.recs.get(parent) {
            for &c in &rec.children {
                if self
                    .recs
                    .get(c)
                    .is_some_and(|r| std::ptr::eq(r.name.as_ptr(), name.as_ptr()) || r.name == name)
                {
                    return c;
                }
            }
        }
        let idx = self.recs.len();
        self.recs.push(Rec::new(name));
        if let Some(rec) = self.recs.get_mut(parent) {
            rec.children.push(idx);
        }
        idx
    }

    /// Converts one arena node (and its subtree) into the public form.
    fn export(&self, idx: usize) -> SpanNode {
        let mut node = SpanNode::default();
        if let Some(rec) = self.recs.get(idx) {
            node.calls = rec.calls;
            node.evals = rec.evals;
            node.lanes = rec.lanes;
            node.wall_ns = rec.wall_ns;
            node.hist = rec.hist.to_vec();
            for &c in &rec.children {
                if let Some(child) = self.recs.get(c) {
                    node.children.insert(child.name, self.export(c));
                }
            }
        }
        node
    }
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static WALL: Cell<Option<fn() -> u64>> = const { Cell::new(None) };
    static PROFILER: RefCell<Profiler> = RefCell::new(Profiler::new());
}

/// Installs (or clears) the wall-clock hook for the current thread.
/// Library code never calls this; the harness-role
/// [`crate::wallclock::install`] does, keeping the hevlint wall-clock
/// rule honest: the span module itself reads no machine state.
pub fn set_wall_clock(hook: Option<fn() -> u64>) {
    WALL.with(|w| w.set(hook));
}

fn wall_now() -> u64 {
    WALL.with(|w| w.get()).map_or(0, |f| f())
}

/// Whether span recording is active on this thread.
pub fn enabled() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Starts recording a fresh span tree on this thread. Any spans from a
/// previous task that are still alive become stale no-ops (they check
/// the profiler generation at drop).
pub fn begin_task() {
    PROFILER.with(|p| {
        let mut p = p.borrow_mut();
        p.reset();
        p.start = evals::counts();
        p.start_wall = wall_now();
    });
    ACTIVE.with(|a| a.set(true));
}

/// Stops recording and returns the finished tree. The root carries the
/// task's whole virtual-time window (one call, the full eval delta), so
/// root minus the children's total is the unattributed remainder.
pub fn take_tree() -> SpanTree {
    ACTIVE.with(|a| a.set(false));
    PROFILER.with(|p| {
        let mut p = p.borrow_mut();
        let counts = evals::counts().since(&p.start);
        let wall = wall_now().wrapping_sub(p.start_wall);
        if let Some(root) = p.recs.get_mut(0) {
            root.calls = 1;
            root.evals = counts.evals;
            root.lanes = counts.batch_lanes;
            root.wall_ns = wall;
        }
        let tree = SpanTree { root: p.export(0) };
        p.reset();
        tree
    })
}

/// The dotted path of the currently open span stack (root excluded),
/// e.g. `control.step/control.supervise`. `None` when profiling is off
/// or no span is open — flight-recorder dumps use this to attach the
/// active phase to a degradation event without changing the disabled
/// artifact byte-for-byte.
pub fn current_path() -> Option<String> {
    if !enabled() {
        return None;
    }
    PROFILER.with(|p| {
        let p = p.borrow();
        if p.stack.is_empty() {
            return None;
        }
        let names: Vec<&str> = p
            .stack
            .iter()
            .filter_map(|&i| p.recs.get(i).map(|r| r.name))
            .collect();
        Some(names.join("/"))
    })
}

/// Opens a span. Returns a no-op guard when profiling is disabled (the
/// disabled cost is one thread-local flag read, and the guard records
/// nothing at drop). Spans nest by construction: the guard's drop
/// closes the span, so hold it for exactly the phase being measured.
#[must_use = "a span measures the scope of its guard; dropping it immediately records nothing"]
pub fn enter(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            live: false,
            node: 0,
            generation: 0,
            start: evals::Counts::default(),
            start_wall: 0,
        };
    }
    PROFILER.with(|p| {
        let mut p = p.borrow_mut();
        let parent = p.parent();
        let node = p.child(parent, name);
        p.stack.push(node);
        SpanGuard {
            live: true,
            node,
            generation: p.generation,
            start: evals::counts(),
            start_wall: wall_now(),
        }
    })
}

/// RAII guard of one open span; dropping it closes the span and
/// accumulates the virtual-time (and optional wall-clock) deltas.
#[derive(Debug)]
pub struct SpanGuard {
    live: bool,
    node: usize,
    generation: u64,
    start: evals::Counts,
    start_wall: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let counts = evals::counts().since(&self.start);
        let wall = wall_now().wrapping_sub(self.start_wall);
        PROFILER.with(|p| {
            let mut p = p.borrow_mut();
            if p.generation != self.generation {
                return; // the task ended under this guard; nothing to record
            }
            if let Some(rec) = p.recs.get_mut(self.node) {
                rec.calls += 1;
                rec.evals += counts.evals;
                rec.lanes += counts.batch_lanes;
                rec.wall_ns += wall;
                rec.hist[bucket(counts.evals)] += 1;
            }
            // Pop this span (and, defensively, anything opened under it
            // that leaked past its guard).
            if let Some(pos) = p.stack.iter().rposition(|&i| i == self.node) {
                p.stack.truncate(pos);
            }
        });
    }
}

/// One aggregated node of a finished span tree: spans are keyed by
/// their name path, so repeated calls of the same phase under the same
/// parent fold into one node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanNode {
    /// Times the span was entered.
    pub calls: u64,
    /// Inclusive virtual time: candidate evaluations inside the span
    /// (children included).
    pub evals: u64,
    /// Inclusive fused batch-lane count.
    pub lanes: u64,
    /// Inclusive wall-clock nanoseconds (0 unless the harness installed
    /// the wall lane; never serialized into compared artifacts).
    pub wall_ns: u64,
    /// Per-call eval-cost histogram over [`SPAN_EVAL_BOUNDS`] (last
    /// slot is the overflow bucket).
    pub hist: Vec<u64>,
    /// Child spans by name (sorted — the exposition order).
    pub children: BTreeMap<&'static str, SpanNode>,
}

impl SpanNode {
    /// Inclusive evals of all direct children.
    fn children_evals(&self) -> u64 {
        self.children.values().map(|c| c.evals).sum()
    }

    /// Exclusive virtual time: inclusive minus the children's share
    /// (saturating — a child window can only nest inside its parent's,
    /// so this is exact for well-formed trees).
    pub fn exclusive_evals(&self) -> u64 {
        self.evals.saturating_sub(self.children_evals())
    }

    /// Sums `other` into `self`, recursively. Addition is commutative
    /// and children merge by name, so any merge order yields the same
    /// tree — the property that makes the merged profile of a parallel
    /// run worker-count-invariant.
    pub fn merge(&mut self, other: &SpanNode) {
        self.calls += other.calls;
        self.evals += other.evals;
        self.lanes += other.lanes;
        self.wall_ns += other.wall_ns;
        if self.hist.len() < other.hist.len() {
            self.hist.resize(other.hist.len(), 0);
        }
        for (acc, &h) in self.hist.iter_mut().zip(other.hist.iter()) {
            *acc += h;
        }
        for (name, child) in &other.children {
            self.children.entry(name).or_default().merge(child);
        }
    }

    fn to_json_obj(&self) -> String {
        let mut obj = Obj::new()
            .u64("calls", self.calls)
            .u64("evals", self.evals)
            .u64("lanes", self.lanes)
            .raw("hist", &json::u64_array(&self.hist));
        let mut children = Obj::new();
        for (name, child) in &self.children {
            children = children.raw(name, &child.to_json_obj());
        }
        obj = obj.raw("children", &children.finish());
        obj.finish()
    }
}

/// A finished, mergeable span tree. The root is the task window; its
/// children are the top-level instrumented phases.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTree {
    /// The task root.
    pub root: SpanNode,
}

impl SpanTree {
    /// Whether nothing was recorded (no calls anywhere, no window).
    pub fn is_empty(&self) -> bool {
        self.root.calls == 0 && self.root.children.is_empty()
    }

    /// Total virtual time of the merged task windows.
    pub fn total_evals(&self) -> u64 {
        self.root.evals
    }

    /// Sums `other` into `self` (see [`SpanNode::merge`]).
    pub fn merge(&mut self, other: &SpanTree) {
        self.root.merge(&other.root);
    }

    /// The deterministic single-line JSON artifact: virtual time only —
    /// the wall-clock lane is deliberately absent, so this string is
    /// byte-identical at every worker and shard count.
    pub fn to_json(&self) -> String {
        Obj::new()
            .u64("v", u64::from(SPAN_SCHEMA_VERSION))
            .str("clock", "virtual_evals")
            .raw("bounds", &json::f64_array(&SPAN_EVAL_BOUNDS))
            .raw("tree", &self.root.to_json_obj())
            .finish()
    }

    /// Chrome `trace_event` JSON (Perfetto-compatible): one complete
    /// (`"ph":"X"`) event per aggregated span, laid out depth-first on
    /// the virtual clock — `ts`/`dur` are candidate evaluations, not
    /// microseconds. Deterministic: derived from virtual time only.
    pub fn to_chrome_trace(&self, process_name: &str) -> String {
        let mut events: Vec<String> = Vec::new();
        events.push(
            Obj::new()
                .str("ph", "M")
                .u64("pid", 0)
                .u64("tid", 0)
                .str("name", "process_name")
                .raw("args", &Obj::new().str("name", process_name).finish())
                .finish(),
        );
        fn emit(events: &mut Vec<String>, name: &str, node: &SpanNode, ts: u64) {
            events.push(
                Obj::new()
                    .str("ph", "X")
                    .u64("pid", 0)
                    .u64("tid", 0)
                    .str("name", name)
                    .u64("ts", ts)
                    .u64("dur", node.evals)
                    .raw(
                        "args",
                        &Obj::new()
                            .u64("calls", node.calls)
                            .u64("evals", node.evals)
                            .u64("lanes", node.lanes)
                            .u64("exclusive_evals", node.exclusive_evals())
                            .finish(),
                    )
                    .finish(),
            );
            let mut cursor = ts;
            for (child_name, child) in &node.children {
                emit(events, child_name, child, cursor);
                cursor += child.evals;
            }
        }
        emit(&mut events, "task", &self.root, 0);
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(e);
        }
        out.push_str("]}");
        out
    }

    /// Flattens the tree into attribution rows, depth-first in name
    /// order (the order the table prints).
    pub fn attribution_rows(&self) -> Vec<AttributionRow> {
        let mut rows = Vec::new();
        fn walk(
            rows: &mut Vec<AttributionRow>,
            name: &str,
            node: &SpanNode,
            depth: usize,
            parent_evals: u64,
        ) {
            let pct = if parent_evals > 0 {
                100.0 * node.evals as f64 / parent_evals as f64
            } else {
                0.0
            };
            rows.push(AttributionRow {
                name: name.to_string(),
                depth,
                calls: node.calls,
                inclusive_evals: node.evals,
                exclusive_evals: node.exclusive_evals(),
                lanes: node.lanes,
                pct_of_parent: pct,
                wall_ns: node.wall_ns,
            });
            for (child_name, child) in &node.children {
                walk(rows, child_name, child, depth + 1, node.evals);
            }
        }
        walk(&mut rows, "task", &self.root, 0, self.root.evals);
        rows
    }

    /// The human-facing attribution table. Wall-clock milliseconds
    /// appear as a final column only when the harness installed the
    /// wall lane (any nonzero wall time anywhere in the tree).
    pub fn format_attribution_table(&self) -> String {
        let rows = self.attribution_rows();
        let with_wall = rows.iter().any(|r| r.wall_ns > 0);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<42} {:>10} {:>14} {:>14} {:>8} {:>7}",
            "span", "calls", "incl evals", "excl evals", "lanes", "%parent"
        ));
        if with_wall {
            out.push_str(&format!(" {:>10}", "wall ms"));
        }
        out.push('\n');
        for r in &rows {
            let label = format!("{}{}", "  ".repeat(r.depth), r.name);
            out.push_str(&format!(
                "{:<42} {:>10} {:>14} {:>14} {:>8} {:>6.1}%",
                label, r.calls, r.inclusive_evals, r.exclusive_evals, r.lanes, r.pct_of_parent
            ));
            if with_wall {
                out.push_str(&format!(" {:>10.2}", r.wall_ns as f64 / 1e6));
            }
            out.push('\n');
        }
        out
    }

    /// Registers each phase's per-call eval-cost histogram (name
    /// `span.<dotted.path>.evals` under `prefix`) so the profile flows
    /// into the existing Prometheus exposition.
    pub fn populate_registry(&self, registry: &mut MetricsRegistry, prefix: &str) {
        fn walk(registry: &mut MetricsRegistry, prefix: &str, path: &str, node: &SpanNode) {
            if !path.is_empty() {
                registry.histogram_merge(
                    &format!("{prefix}{path}.evals"),
                    &SPAN_EVAL_BOUNDS,
                    &node.hist,
                    node.evals as f64,
                    node.calls,
                );
            }
            for (name, child) in &node.children {
                let child_path = if path.is_empty() {
                    (*name).to_string()
                } else {
                    format!("{path}.{name}")
                };
                walk(registry, prefix, &child_path, child);
            }
        }
        walk(registry, prefix, "", &self.root);
    }
}

/// One row of the attribution table.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionRow {
    /// The span name (no path — depth conveys nesting).
    pub name: String,
    /// Nesting depth (0 = the task root).
    pub depth: usize,
    /// Times the span was entered.
    pub calls: u64,
    /// Inclusive virtual time in evals.
    pub inclusive_evals: u64,
    /// Exclusive virtual time in evals.
    pub exclusive_evals: u64,
    /// Fused batch-lane count.
    pub lanes: u64,
    /// Inclusive share of the parent's inclusive virtual time.
    pub pct_of_parent: f64,
    /// Inclusive wall-clock nanoseconds (0 without the wall lane).
    pub wall_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the evals counter by a known amount.
    fn burn(n: u64) {
        for _ in 0..n {
            evals::record();
        }
    }

    #[test]
    fn disabled_enter_is_a_no_op() {
        assert!(!enabled());
        let g = enter("anything");
        assert!(!g.live);
        drop(g);
        // No profiler state was touched; a fresh task starts clean.
        begin_task();
        let tree = take_tree();
        assert!(tree.root.children.is_empty());
    }

    #[test]
    fn nesting_attributes_inclusive_and_exclusive_time() {
        begin_task();
        {
            let _outer = enter("outer");
            burn(10);
            {
                let _inner = enter("inner");
                burn(5);
            }
            burn(2);
        }
        let tree = take_tree();
        assert!(!enabled());
        let outer = &tree.root.children["outer"];
        assert_eq!(outer.calls, 1);
        assert_eq!(outer.evals, 17);
        assert_eq!(outer.exclusive_evals(), 12);
        let inner = &outer.children["inner"];
        assert_eq!(inner.evals, 5);
        assert_eq!(inner.exclusive_evals(), 5);
        assert_eq!(tree.root.evals, 17);
        assert_eq!(tree.root.calls, 1);
    }

    #[test]
    fn repeated_spans_aggregate_by_name_path() {
        begin_task();
        for i in 0..3 {
            let _s = enter("phase");
            burn(i + 1);
        }
        let tree = take_tree();
        let phase = &tree.root.children["phase"];
        assert_eq!(phase.calls, 3);
        assert_eq!(phase.evals, 6);
        // Per-call costs 1, 2, 3 all land in the first (<=10) bucket.
        assert_eq!(phase.hist[0], 3);
        assert_eq!(phase.hist.iter().sum::<u64>(), 3);
    }

    #[test]
    fn current_path_tracks_the_open_stack() {
        assert_eq!(current_path(), None);
        begin_task();
        assert_eq!(current_path(), None);
        let _a = enter("a");
        let _b = enter("b");
        assert_eq!(current_path().as_deref(), Some("a/b"));
        drop(_b);
        assert_eq!(current_path().as_deref(), Some("a"));
        drop(_a);
        let _ = take_tree();
        assert_eq!(current_path(), None);
    }

    #[test]
    fn stale_guards_from_an_ended_task_record_nothing() {
        begin_task();
        let g = enter("leaked");
        let first = take_tree();
        assert_eq!(first.root.children["leaked"].calls, 0);
        begin_task();
        drop(g); // generation mismatch: must not touch the new task
        let second = take_tree();
        assert!(second.root.children.is_empty());
    }

    #[test]
    fn merge_is_order_independent() {
        let mut trees = Vec::new();
        for k in 0..3u64 {
            begin_task();
            {
                let _a = enter("a");
                burn(k + 1);
                let _b = enter("b");
                burn(2 * k + 1);
            }
            trees.push(take_tree());
        }
        let mut forward = SpanTree::default();
        for t in &trees {
            forward.merge(t);
        }
        let mut backward = SpanTree::default();
        for t in trees.iter().rev() {
            backward.merge(t);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.to_json(), backward.to_json());
        assert_eq!(forward.root.children["a"].calls, 3);
        assert_eq!(forward.root.children["a"].children["b"].evals, 1 + 3 + 5);
    }

    #[test]
    fn json_is_deterministic_and_wall_free() {
        begin_task();
        {
            let _s = enter("z.late");
            burn(1);
        }
        {
            let _s = enter("a.early");
            burn(1);
        }
        let mut tree = take_tree();
        tree.root.wall_ns = 123_456; // simulate a wall lane recording
        let json = tree.to_json();
        assert!(json.starts_with("{\"v\":1,\"clock\":\"virtual_evals\""));
        assert!(!json.contains("wall"), "wall lane must not serialize");
        // BTreeMap children: sorted name order regardless of entry order.
        let a = json.find("a.early").unwrap();
        let z = json.find("z.late").unwrap();
        assert!(a < z);
    }

    #[test]
    fn chrome_trace_lays_children_inside_the_parent_window() {
        begin_task();
        {
            let _outer = enter("outer");
            burn(4);
            let _inner = enter("inner");
            burn(6);
        }
        let tree = take_tree();
        let trace = tree.to_chrome_trace("profile-test");
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(trace.contains("\"name\":\"process_name\""));
        assert!(trace
            .contains("\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\"outer\",\"ts\":0,\"dur\":10"));
        assert!(trace.contains("\"name\":\"inner\",\"ts\":0,\"dur\":6"));
        assert!(trace.ends_with("]}"));
    }

    #[test]
    fn attribution_rows_and_table_cover_every_node() {
        begin_task();
        {
            let _o = enter("outer");
            burn(8);
            let _i = enter("inner");
            burn(2);
        }
        let tree = take_tree();
        let rows = tree.attribution_rows();
        assert_eq!(rows.len(), 3, "task, outer, inner");
        assert_eq!(rows[0].name, "task");
        assert_eq!(rows[1].name, "outer");
        assert_eq!(rows[1].inclusive_evals, 10);
        assert_eq!(rows[1].exclusive_evals, 8);
        assert!((rows[1].pct_of_parent - 100.0).abs() < 1e-9);
        assert_eq!(rows[2].depth, 2);
        let table = tree.format_attribution_table();
        assert!(table.contains("incl evals"));
        assert!(!table.contains("wall ms"), "no wall lane installed");
        assert!(table.contains("    inner"));
    }

    #[test]
    fn registry_histograms_expose_per_phase_costs() {
        begin_task();
        {
            let _o = enter("phase");
            burn(3);
            let _i = enter("sub");
            burn(1);
        }
        let tree = take_tree();
        let mut registry = MetricsRegistry::new();
        tree.populate_registry(&mut registry, "span.");
        let json = registry.snapshot_json();
        assert!(json.contains("\"span.phase.evals\""));
        assert!(json.contains("\"span.phase.sub.evals\""));
        let prom = registry.to_prometheus("hev_");
        assert!(prom.contains("hev_span_phase_evals_count 1"));
    }

    #[test]
    fn wall_lane_hook_feeds_wall_ns_and_only_wall_ns() {
        fn fake_clock() -> u64 {
            // A strictly increasing fake: each read advances by 1000ns.
            thread_local! { static T: Cell<u64> = const { Cell::new(0) }; }
            T.with(|t| {
                let v = t.get() + 1000;
                t.set(v);
                v
            })
        }
        set_wall_clock(Some(fake_clock));
        begin_task();
        {
            let _s = enter("timed");
            burn(1);
        }
        let tree = take_tree();
        set_wall_clock(None);
        let timed = &tree.root.children["timed"];
        assert!(timed.wall_ns > 0);
        assert_eq!(timed.evals, 1, "virtual clock unaffected by the hook");
        assert!(tree.format_attribution_table().contains("wall ms"));
    }
}
