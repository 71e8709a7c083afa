//! The `repro profile` workload: one deterministically profiled pass
//! over the full stack, with exact eval-count reconciliation.
//!
//! Three phases run under the span profiler ([`hev_trace::span`]):
//!
//! 1. **Training** — `cfg.runs` independent controller trainings fanned
//!    over the harness, each task recording its own thread-local span
//!    tree: `model.ctx_build`, and per `control.step` its
//!    `control.mask`, `control.resolve` (split into `control.grid` and
//!    `control.refine`) and `control.td_update`.
//! 2. **DP reference** — one offline dynamic-programming sweep
//!    (`dp.sweep`).
//! 3. **Serve** — a chaos-mode fleet served with
//!    [`ServeConfig::profile`] on, contributing the request-lifecycle
//!    spans (`serve.admission`, `serve.ladder.full`/`myopic`/`rule`,
//!    `serve.quarantine`) plus the causal per-request trace lines.
//!
//! Every phase's tree is merged commutatively into one [`SpanTree`], so
//! the profile is bit-identical at every `--jobs` value and serve shard
//! count. Alongside the tree the caller's own [`hev_trace::evals`]
//! counters are differenced around each profiled window; the two
//! accountings must agree **exactly** ([`ProfileResult::reconciles`]) —
//! the profiler's virtual clock is the eval counter, not an estimate of
//! it.
//!
//! The wall-clock lane ([`hev_trace::wallclock`]) is installed around
//! each phase so the attribution table can show measured milliseconds;
//! wall numbers never reach the JSON or Chrome-trace artifacts, which
//! stay determinism-compared.

use crate::experiments::{self, ExperimentConfig};
use drive_cycle::DriveCycle;
use hev_control::JointControllerConfig;
use hev_serve::{run_serve_bench, FleetConfig, ServeConfig};
use hev_trace::{evals, span, wallclock, SpanTree};

/// Fleet served during the profile's serve phase (chaos on, so the
/// quarantine path shows up in the tree).
pub const PROFILE_FLEET: FleetConfig = FleetConfig {
    sessions: 4,
    requests: 48,
    seed: 0, // overwritten with `cfg.seed` at run time
    chaos: true,
};

/// Everything one profiled pass produced.
#[derive(Debug, Clone)]
pub struct ProfileResult {
    /// The merged span tree of all three phases.
    pub tree: SpanTree,
    /// Independent ground truth: the caller's own eval-counter deltas
    /// summed over the profiled windows.
    pub counter_evals: u64,
    /// Causal per-request trace lines from the serve phase (JSONL).
    pub request_traces: Vec<String>,
}

impl ProfileResult {
    /// Whether the span tree's total virtual time equals the
    /// independently measured counter delta — exactly, not
    /// approximately. `repro profile` fails the run when this is false.
    pub fn reconciles(&self) -> bool {
        self.tree.total_evals() == self.counter_evals
    }
}

/// The synthetic urban microtrip the profile runs on: three 40 s
/// trapezoids (accelerate, cruise, brake, idle) at 1 Hz. Short enough
/// that the default profile finishes in seconds, long enough that every
/// kernel phase fires.
pub fn profile_cycle() -> DriveCycle {
    let speeds: Vec<f64> = (0..120)
        .map(|t: u32| {
            let phase = t % 40;
            match phase {
                0..=9 => 1.2 * f64::from(phase),
                10..=27 => 12.0,
                28..=37 => 1.2 * f64::from(38 - phase),
                _ => 0.0,
            }
        })
        .collect();
    DriveCycle::from_speeds_mps("profile-microtrip", 1.0, speeds)
        // hevlint::allow(panic::expect, structural: the trace above is a closed-form finite non-negative sequence, checked by profile_cycle_is_well_formed)
        .expect("the synthetic profile trace is finite and non-negative")
}

/// Runs the profiled three-phase workload. `cfg` controls the training
/// fan-out (`runs`, `episodes`, `jobs`, `seed`); the cycle is always
/// [`profile_cycle`] and the serve fleet [`PROFILE_FLEET`] reseeded
/// from `cfg.seed`.
pub fn run_profile(cfg: &ExperimentConfig) -> ProfileResult {
    let cycle = profile_cycle();
    let mut tree = SpanTree::default();
    let mut counter_evals = 0u64;

    // Phase 1: training runs. Each task opens its own thread-local
    // profiling window and differences the eval counters independently;
    // trees merge commutatively in task order, so the result is
    // bit-identical at every --jobs value.
    let train_cfg = *cfg;
    let cycle_ref = &cycle;
    let trained = cfg.harness().run_seeded(
        "profile/train",
        cfg.seed,
        cfg.runs.max(1),
        move |_, seed| {
            wallclock::install();
            span::begin_task();
            let before = evals::count();
            {
                let _train = span::enter("train");
                let task_cfg = ExperimentConfig { seed, ..train_cfg };
                experiments::train_eval(JointControllerConfig::default(), cycle_ref, &task_cfg);
            }
            let spent = evals::since(before);
            let task_tree = span::take_tree();
            wallclock::uninstall();
            (task_tree, spent)
        },
    );
    for (task_tree, spent) in trained {
        tree.merge(&task_tree);
        counter_evals += spent;
    }

    // Phase 2: the offline DP bound (contains `dp.sweep`).
    wallclock::install();
    span::begin_task();
    let before = evals::count();
    {
        let _dp = span::enter("dp");
        experiments::run_dp(&cycle, cfg);
    }
    counter_evals += evals::since(before);
    tree.merge(&span::take_tree());
    wallclock::uninstall();

    // Phase 3: serve. One shard keeps every serve window on this
    // thread, so the caller-side counter delta is the exact ground
    // truth for the serve tree's total.
    let fleet = FleetConfig {
        seed: cfg.seed,
        ..PROFILE_FLEET
    };
    let serve_cfg = ServeConfig {
        shards: 1,
        profile: true,
        ..ServeConfig::default()
    };
    wallclock::install();
    let before = evals::count();
    let bench = run_serve_bench(&fleet, &serve_cfg)
        // hevlint::allow(panic::expect, structural: the fleet is built from default vehicle parameters, which are valid by construction)
        .expect("the profile fleet uses valid default vehicle parameters");
    counter_evals += evals::since(before);
    wallclock::uninstall();
    tree.merge(&bench.span_tree);

    ProfileResult {
        tree,
        counter_evals,
        request_traces: bench.request_traces,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ExperimentConfig {
        ExperimentConfig {
            episodes: 6,
            runs: 2,
            jitter_variants: 1,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn profile_cycle_is_well_formed() {
        let c = profile_cycle();
        assert_eq!(c.len(), 120);
        assert_eq!(c.dt(), 1.0);
    }

    #[test]
    fn profile_reconciles_exactly_and_covers_every_phase() {
        let result = run_profile(&small());
        assert!(
            result.reconciles(),
            "tree {} != counters {}",
            result.tree.total_evals(),
            result.counter_evals
        );
        assert!(result.tree.total_evals() > 0);
        let top = &result.tree.root.children;
        assert!(top.contains_key("train"), "top-level spans: {top:?}");
        assert!(top.contains_key("dp"));
        assert!(
            top.keys().any(|k| k.starts_with("serve.")),
            "top-level spans: {top:?}"
        );
        assert_eq!(result.request_traces.len(), PROFILE_FLEET.requests);

        // The exported artifacts advertise the span schema the readers
        // (CI cmp, Perfetto importer) are written against.
        let json = result.tree.to_json();
        assert!(
            json.starts_with(&format!("{{\"v\":{}", span::SPAN_SCHEMA_VERSION)),
            "json header: {}",
            &json[..40.min(json.len())]
        );
        assert_eq!(
            result.tree.root.hist.len(),
            span::SPAN_EVAL_BOUNDS.len() + 1,
            "per-call histogram carries one overflow slot past the bounds"
        );

        // The attribution view walks the same tree: its top row is the
        // root, and the root's exclusive time is what no child claimed.
        let rows: Vec<span::AttributionRow> = result.tree.attribution_rows();
        assert!(rows.iter().any(|r| r.depth == 1 && r.name == "train"));
        assert!(result.tree.root.exclusive_evals() <= result.tree.total_evals());
    }

    #[test]
    fn profile_tree_is_jobs_invariant() {
        let base = small();
        let one = run_profile(&base);
        let four = run_profile(&ExperimentConfig { jobs: 4, ..base });
        assert_eq!(one.tree.to_json(), four.tree.to_json());
        assert_eq!(one.counter_evals, four.counter_evals);
        assert_eq!(one.request_traces, four.request_traces);
    }

    #[test]
    fn profiling_never_perturbs_the_result_under_observation() {
        let cfg = small();
        let cycle = profile_cycle();
        let plain = experiments::train_eval(JointControllerConfig::default(), &cycle, &cfg);
        span::begin_task();
        let observed = experiments::train_eval(JointControllerConfig::default(), &cycle, &cfg);
        let tree = span::take_tree();
        assert!(!tree.is_empty());
        assert_eq!(plain, observed);
    }
}
