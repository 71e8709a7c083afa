//! Step-throughput measurement for the staged evaluation pipeline.
//!
//! The `repro --bench-json PATH` flag uses this module to record how fast
//! the joint controller's decision loop runs end to end: wall-clock
//! seconds, simulated control steps per second, and how many
//! peek-equivalent model evaluations each step costs (feasibility
//! probes, inner-optimization grid points, ternary refinements — see
//! [`hev_trace::evals`]). The report is machine-readable JSON so CI
//! can archive it and a later run can compare against a committed
//! baseline with [`StepThroughputReport::with_baseline`], or enforce a
//! regression bound with [`StepThroughputReport::guard_evals`].
//!
//! The measured workload is deliberately single-threaded: one
//! [`JointController`] trained for a few episodes on UDDS and then
//! evaluated once, on one thread, so the numbers are per-core throughput
//! and the thread-local evaluation counter sees every evaluation.

use crate::experiments::fresh_hev;
use drive_cycle::StandardCycle;
use hev_control::{CyclePlan, JointController, JointControllerConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Version stamp for the JSON schema; bump on breaking layout changes.
pub(crate) const SCHEMA_VERSION: u32 = 3;

/// What was run to produce a [`ThroughputSample`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Drive cycle name (e.g. `"UDDS"`).
    pub cycle: String,
    /// Number of training episodes before the timed evaluation episode.
    pub train_episodes: usize,
    /// RNG seed for the controller.
    pub seed: u64,
}

/// One timed run of the workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThroughputSample {
    /// Wall-clock seconds for the whole workload (train + evaluate).
    pub wall_s: f64,
    /// Total simulated control steps across all episodes.
    pub steps: u64,
    /// `steps / wall_s`.
    pub steps_per_sec: f64,
    /// Total peek-equivalent model evaluations recorded.
    pub evals: u64,
    /// `evals / steps` — the quantity the staged pipeline amortizes.
    pub evals_per_step: f64,
    /// Evaluations that went through the batched candidate kernel (one
    /// per batch *lane*, a subset of `evals`). The kernel is gone, so
    /// fresh samples record 0; the field keeps older reports readable.
    pub batch_lane_evals: u64,
    /// Batched-kernel invocations (0 in fresh samples).
    pub batch_calls: u64,
    /// `batch_lane_evals / batch_calls` — the mean batch width. Zero
    /// when no batch call was made.
    pub batch_width: f64,
    /// Evaluation-context rebuilds during the workload. The cycle-level
    /// context table collapses this to one per (cycle, vehicle-config)
    /// pair.
    pub ctx_rebuilds: u64,
}

/// The machine-readable report written by `repro --bench-json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepThroughputReport {
    /// JSON layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The workload both samples ran.
    pub workload: Workload,
    /// The freshly measured sample.
    pub current: ThroughputSample,
    /// Optional pre-recorded sample to compare against.
    pub baseline: Option<ThroughputSample>,
    /// `current.steps_per_sec / baseline.steps_per_sec` when a baseline
    /// is present.
    pub speedup: Option<f64>,
}

impl StepThroughputReport {
    /// Builds a report with no baseline attached.
    pub fn new(workload: Workload, current: ThroughputSample) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            workload,
            current,
            baseline: None,
            speedup: None,
        }
    }

    /// Attaches the `current` sample of an earlier report as the
    /// baseline and computes the throughput ratio.
    ///
    /// Returns `Err` when `base` measured a different workload (cycle,
    /// training episodes or seed): its samples are not comparable, and
    /// a heavier baseline would hide a real regression from the guards.
    pub fn with_baseline(mut self, base: &StepThroughputReport) -> Result<Self, String> {
        if base.workload != self.workload {
            return Err(format!(
                "measured a different workload ({} cycle, {} train episodes, seed {}) \
                 than this run ({} cycle, {} train episodes, seed {})",
                base.workload.cycle,
                base.workload.train_episodes,
                base.workload.seed,
                self.workload.cycle,
                self.workload.train_episodes,
                self.workload.seed
            ));
        }
        let baseline = base.current;
        self.speedup = if baseline.steps_per_sec > 0.0 {
            Some(self.current.steps_per_sec / baseline.steps_per_sec)
        } else {
            None
        };
        self.baseline = Some(baseline);
        Ok(self)
    }

    /// Enforces the telemetry-overhead guard against the attached
    /// baseline.
    ///
    /// The guarded quantity is `evals_per_step`, not wall-clock: model
    /// evaluations per control step are deterministic for a fixed
    /// workload, so the guard gives the same verdict on a loaded CI
    /// runner as on a quiet laptop. Telemetry is designed to be
    /// zero-overhead when disabled; this catches anyone accidentally
    /// adding per-step evaluation work to the disabled path.
    ///
    /// Returns `Err` with a human-readable explanation when
    /// `current.evals_per_step` exceeds the baseline by more than
    /// `max_regression_pct` percent, or when `max_regression_pct` is not
    /// a finite non-negative number (an infinite bound would switch the
    /// guard off). A missing baseline passes (nothing to compare
    /// against).
    pub fn guard_evals(&self, max_regression_pct: f64) -> Result<(), String> {
        if !(max_regression_pct.is_finite() && max_regression_pct >= 0.0) {
            return Err(format!(
                "evals/step bound must be a finite non-negative percentage, got {max_regression_pct}"
            ));
        }
        let Some(baseline) = &self.baseline else {
            return Ok(());
        };
        if baseline.evals_per_step <= 0.0 {
            return Ok(());
        }
        let regression_pct = (self.current.evals_per_step / baseline.evals_per_step - 1.0) * 100.0;
        if regression_pct > max_regression_pct {
            return Err(format!(
                "evals/step regressed {regression_pct:.3}% (current {:.4} vs baseline {:.4}, \
                 allowed {max_regression_pct}%)",
                self.current.evals_per_step, baseline.evals_per_step
            ));
        }
        Ok(())
    }

    /// Enforces a catastrophic-slowdown floor on wall-clock throughput
    /// against the attached baseline.
    ///
    /// Unlike [`guard_evals`](Self::guard_evals), `steps_per_sec` is
    /// machine- and load-dependent, so this guard is deliberately loose:
    /// it fails only when current throughput falls below `min_fraction`
    /// of the baseline (e.g. `0.25` = a 4× slowdown), which no CI-runner
    /// noise explains — only a genuine hot-loop regression does. A
    /// missing baseline passes.
    pub fn guard_steps_per_sec(&self, min_fraction: f64) -> Result<(), String> {
        let Some(baseline) = &self.baseline else {
            return Ok(());
        };
        if baseline.steps_per_sec <= 0.0 {
            return Ok(());
        }
        let fraction = self.current.steps_per_sec / baseline.steps_per_sec;
        if fraction < min_fraction {
            return Err(format!(
                "steps/s collapsed to {fraction:.2}x of baseline (current {:.0} vs baseline \
                 {:.0}, floor {min_fraction}x)",
                self.current.steps_per_sec, baseline.steps_per_sec
            ));
        }
        Ok(())
    }
}

/// Runs the standard throughput workload and times it.
///
/// Trains a reduced-action-space [`JointController`] for
/// `train_episodes` episodes on UDDS, then evaluates one greedy episode,
/// all on the calling thread. Every simulated step — training and
/// evaluation alike — goes through the full staged pipeline (action
/// mask, myopic argmax, inner-optimizer resolve, apply), so the
/// evaluation counter reflects production per-step cost.
pub fn measure_step_throughput(train_episodes: usize, seed: u64) -> (Workload, ThroughputSample) {
    let cycle = StandardCycle::Udds.cycle();
    let mut cfg = JointControllerConfig::proposed();
    cfg.seed = seed;
    let mut agent = JointController::new(cfg);
    let mut hev = fresh_hev(0.6);

    hev_trace::evals::reset();
    let t0 = Instant::now();
    // The plan build is inside the timed region: it is exactly the cost
    // the table amortizes across every episode.
    let plans = [CyclePlan::new(&hev, &cycle)];
    agent.train_portfolio_planned(&mut hev, &plans, train_episodes);
    let metrics = agent.evaluate_planned(&mut hev, &plans[0]);
    let steps = metrics.steps as u64 * (train_episodes as u64 + 1);
    let wall_s = t0.elapsed().as_secs_f64();
    let counts = hev_trace::evals::counts();

    let workload = Workload {
        cycle: "UDDS".to_string(),
        train_episodes,
        seed,
    };
    let sample = ThroughputSample {
        wall_s,
        steps,
        steps_per_sec: if wall_s > 0.0 {
            steps as f64 / wall_s
        } else {
            0.0
        },
        evals: counts.evals,
        evals_per_step: if steps > 0 {
            counts.evals as f64 / steps as f64
        } else {
            0.0
        },
        batch_lane_evals: counts.batch_lanes,
        batch_calls: counts.batch_calls,
        batch_width: if counts.batch_calls > 0 {
            counts.batch_lanes as f64 / counts.batch_calls as f64
        } else {
            0.0
        },
        ctx_rebuilds: counts.ctx_rebuilds,
    };
    (workload, sample)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(evals_per_step: f64) -> ThroughputSample {
        ThroughputSample {
            wall_s: 1.0,
            steps: 1000,
            steps_per_sec: 1000.0,
            evals: (evals_per_step * 1000.0) as u64,
            evals_per_step,
            batch_lane_evals: 0,
            batch_calls: 0,
            batch_width: 0.0,
            ctx_rebuilds: 0,
        }
    }

    #[test]
    fn measurement_produces_consistent_sample() {
        let (workload, sample) = measure_step_throughput(1, 42);
        assert_eq!(workload.cycle, "UDDS");
        assert_eq!(workload.train_episodes, 1);
        assert!(sample.steps > 0);
        assert!(sample.wall_s > 0.0);
        assert!(sample.steps_per_sec > 0.0);
        assert!(
            sample.evals > 0,
            "instrumented evaluations must be recorded"
        );
        assert!((sample.evals_per_step - sample.evals as f64 / sample.steps as f64).abs() < 1e-12);
        // Every candidate is probed directly: no batch lane is recorded.
        assert_eq!(sample.batch_lane_evals, 0);
        assert_eq!(sample.batch_calls, 0);
        assert_eq!(sample.batch_width, 0.0);
    }

    #[test]
    fn committed_workload_replays_the_committed_eval_count() {
        // The committed report's workload must cost exactly the evals it
        // recorded: the deterministic clock the CI guard compares.
        let text = include_str!("../../../BENCH_step_throughput.json");
        let base: StepThroughputReport = serde_json::from_str(text).expect("baseline parses");
        let (workload, sample) =
            measure_step_throughput(base.workload.train_episodes, base.workload.seed);
        assert_eq!(workload, base.workload);
        assert_eq!(sample.steps, base.current.steps);
        assert_eq!(sample.evals, base.current.evals);
    }

    #[test]
    fn context_table_collapses_rebuilds_to_one_per_cycle() {
        let (_, sample) = measure_step_throughput(1, 42);
        // One UDDS cycle, one vehicle config: the whole workload (train
        // + evaluate) must rebuild its context exactly once — the plan
        // build. Anything above one means a per-step rebuild leaked back
        // into the planned loop.
        assert_eq!(
            sample.ctx_rebuilds, 1,
            "expected one context-table build for the whole workload"
        );
    }

    #[test]
    fn report_round_trips_through_json() {
        let workload = Workload {
            cycle: "UDDS".to_string(),
            train_episodes: 4,
            seed: 42,
        };
        let current = ThroughputSample {
            wall_s: 0.5,
            steps: 6850,
            steps_per_sec: 13700.0,
            evals: 980_000,
            evals_per_step: 143.1,
            batch_lane_evals: 910_000,
            batch_calls: 65_000,
            batch_width: 14.0,
            ctx_rebuilds: 1,
        };
        let baseline = ThroughputSample {
            wall_s: 0.75,
            steps: 6850,
            steps_per_sec: 9133.3,
            evals: 1_610_000,
            evals_per_step: 235.0,
            batch_lane_evals: 0,
            batch_calls: 0,
            batch_width: 0.0,
            ctx_rebuilds: 0,
        };
        let report = StepThroughputReport::new(workload.clone(), current)
            .with_baseline(&StepThroughputReport::new(workload, baseline))
            .unwrap();
        let text = serde_json::to_string(&report).unwrap();
        let back: StepThroughputReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
        let speedup = back.speedup.unwrap();
        assert!((speedup - 13700.0 / 9133.3).abs() < 1e-9);
    }

    /// The committed baseline is a schema-v3 report; it must keep
    /// parsing, including a workload key this reader no longer has.
    #[test]
    fn committed_baseline_parses() {
        let text = include_str!("../../../BENCH_step_throughput.json");
        let report: StepThroughputReport = serde_json::from_str(text).expect("baseline parses");
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        assert_eq!(report.workload, workload(4));
        assert_eq!(report.current.ctx_rebuilds, 1);
    }

    fn workload(train_episodes: usize) -> Workload {
        Workload {
            cycle: "UDDS".to_string(),
            train_episodes,
            seed: 42,
        }
    }

    fn compared(current: ThroughputSample, baseline: ThroughputSample) -> StepThroughputReport {
        StepThroughputReport::new(workload(4), current)
            .with_baseline(&StepThroughputReport::new(workload(4), baseline))
            .expect("same workload")
    }

    #[test]
    fn baseline_from_a_different_workload_is_rejected() {
        let current = StepThroughputReport::new(workload(1), sample(100.0));
        let heavier = StepThroughputReport::new(workload(4), sample(90.0));
        let err = current.clone().with_baseline(&heavier).unwrap_err();
        assert!(
            err.contains("different workload"),
            "message explains: {err}"
        );
        let reseeded = StepThroughputReport::new(
            Workload {
                seed: 7,
                ..workload(1)
            },
            sample(100.0),
        );
        assert!(current.with_baseline(&reseeded).is_err());
    }

    #[test]
    fn guard_passes_within_budget_and_fails_beyond() {
        let report = compared(sample(101.0), sample(100.0));
        assert!(report.guard_evals(2.0).is_ok(), "1% regression within 2%");
        let report = compared(sample(103.0), sample(100.0));
        let err = report.guard_evals(2.0).unwrap_err();
        assert!(err.contains("regressed"), "message explains: {err}");
        let report = StepThroughputReport::new(workload(4), sample(103.0));
        assert!(report.guard_evals(2.0).is_ok(), "no baseline passes");
    }

    #[test]
    fn guard_rejects_a_non_finite_bound() {
        let report = compared(sample(100.0), sample(100.0));
        assert!(report.guard_evals(f64::INFINITY).is_err());
        assert!(report.guard_evals(f64::NAN).is_err());
        assert!(report.guard_evals(-1.0).is_err());
    }

    #[test]
    fn steps_guard_trips_only_on_catastrophic_slowdown() {
        let mk = |steps_per_sec: f64| ThroughputSample {
            steps_per_sec,
            ..sample(100.0)
        };
        // Half-speed is CI-runner noise territory: within a 0.25 floor.
        let report = compared(mk(500.0), mk(1000.0));
        assert!(report.guard_steps_per_sec(0.25).is_ok());
        // A 10x collapse is a real regression.
        let report = compared(mk(100.0), mk(1000.0));
        let err = report.guard_steps_per_sec(0.25).unwrap_err();
        assert!(err.contains("collapsed"), "message explains: {err}");
        let report = StepThroughputReport::new(workload(4), mk(100.0));
        assert!(
            report.guard_steps_per_sec(0.25).is_ok(),
            "no baseline passes"
        );
    }
}
