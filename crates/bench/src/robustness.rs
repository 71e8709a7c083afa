//! The `repro --robustness` experiment: fault-severity degradation sweep.
//!
//! Trains the proposed joint controller *clean* on OSCAR (one run per
//! seed-split seed, fanned across the harness exactly like the paper
//! experiments), then evaluates it wrapped in a
//! [`SupervisedPolicy`] under seeded [`FaultPlan`]s of increasing
//! severity, against the rule-based baseline facing the *identical*
//! fault trajectories. Reported per severity: charge-corrected fuel,
//! mean auxiliary utility, cycle completion, and the supervisor's
//! [`DegradationReport`] (rejections and fallback-tier activations).
//!
//! Determinism: fault-plan seeds are split from the experiment seed by
//! run index through a dedicated [`SeedSequence`], so the table is
//! bit-identical at every `--jobs` value — and the same plan seed is
//! reused for every severity and both controllers, which makes columns
//! comparable within a row.

use crate::experiments::{self, corrected_fuel_g, ExperimentConfig};
use drive_cycle::StandardCycle;
use hev_control::{
    simulate_with_faults, train_portfolio_checkpointed, CheckpointError, CheckpointSpec,
    ControllerSnapshot, DegradationReport, EpisodeMetrics, FaultConfig, FaultPlan, JointController,
    JointControllerConfig, RewardConfig, RuleBasedController, SeedSequence, SupervisedPolicy,
};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Tag XORed into the experiment seed to derive the fault-plan seed
/// family, keeping it disjoint from the training-seed family.
const FAULT_SEED_TAG: u64 = 0x4641_554C_5453_0001; // "FAULTS"

/// The default severity sweep (0 = healthy reference).
pub const DEFAULT_SEVERITIES: [f64; 4] = [0.0, 0.25, 0.5, 1.0];

/// One severity level of the degradation table, aggregated over
/// `cfg.runs` independently trained controllers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessRow {
    /// Fault severity (see [`FaultConfig::at_severity`]).
    pub severity: f64,
    /// Charge-corrected fuel of the supervised proposed controller, g
    /// (mean across runs).
    pub proposed_fuel_g: f64,
    /// Charge-corrected fuel of the rule-based baseline under the same
    /// fault plans, g (mean across runs).
    pub rule_fuel_g: f64,
    /// Mean auxiliary utility of the supervised proposed controller.
    pub proposed_utility: f64,
    /// Mean auxiliary utility of the rule-based baseline.
    pub rule_utility: f64,
    /// Runs in which the supervised controller finished every step of
    /// the faulted cycle.
    pub completed_runs: usize,
    /// Total runs evaluated.
    pub runs: usize,
    /// The supervisor's intervention counters, summed across runs.
    pub degradation: DegradationReport,
}

/// Where (and how often) the clean training of the sweep checkpoints
/// (`repro --checkpoint-dir/--checkpoint-every/--resume`). One file per
/// run inside `dir`.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointOptions {
    /// Directory holding one checkpoint file per training run.
    pub dir: PathBuf,
    /// Checkpoint every this many episodes.
    pub every: usize,
    /// Resume from existing checkpoint files instead of starting fresh.
    pub resume: bool,
}

/// Trains one clean proposed controller per split seed on the OSCAR
/// jitter portfolio and returns the trained snapshots (fanned across
/// `cfg.jobs` workers; bit-identical at every worker count).
///
/// With `ckpt`, training is crash-tolerant: each run saves
/// `robustness_run<k>.json` under the checkpoint directory every `every`
/// episodes, and — with `resume` — picks up a prior run's episode count
/// instead of retraining from zero (resumed training is bit-identical
/// to uninterrupted, see [`hev_control::checkpoint`]). The first failing
/// run's checkpoint error, in run order, fails the whole sweep.
fn train_clean_snapshots_with(
    cfg: &ExperimentConfig,
    ckpt: Option<&CheckpointOptions>,
) -> Result<Vec<ControllerSnapshot>, CheckpointError> {
    let cycle = StandardCycle::Oscar.cycle();
    cfg.harness()
        .run_seeded("robustness/train", cfg.seed, cfg.runs.max(1), |k, seed| {
            let mut ccfg = JointControllerConfig::proposed();
            ccfg.initial_soc = cfg.initial_soc;
            ccfg.seed = seed;
            let mut hev = experiments::fresh_hev(cfg.initial_soc);
            let portfolio = experiments::jitter_portfolio(&cycle, seed, cfg);
            let rounds = (cfg.episodes / portfolio.len()).max(1);
            let episodes = rounds * portfolio.len();
            let spec = ckpt.map(|c| CheckpointSpec {
                path: c.dir.join(format!("robustness_run{k}.json")),
                every: c.every,
                resume: c.resume,
            });
            train_portfolio_checkpointed(ccfg, &mut hev, &portfolio, episodes, spec.as_ref())
                .map(|(agent, _)| agent.snapshot())
        })
        .into_iter()
        .collect()
}

/// Evaluates one trained controller, supervised, on the faulted cycle.
fn eval_supervised(
    snapshot: &ControllerSnapshot,
    cycle: &drive_cycle::DriveCycle,
    cfg: &ExperimentConfig,
    fault_cfg: FaultConfig,
    plan_seed: u64,
) -> EpisodeMetrics {
    let mut agent = JointController::from_snapshot(snapshot.clone());
    agent.set_training(false);
    let mut supervised = SupervisedPolicy::new(agent);
    let mut plan = FaultPlan::new(fault_cfg, plan_seed);
    let mut hev = experiments::fresh_hev(cfg.initial_soc);
    plan.degrade_plant(&mut hev);
    simulate_with_faults(
        &mut hev,
        cycle,
        &mut supervised,
        &RewardConfig::default(),
        Some(&mut plan),
    )
}

/// Evaluates the rule-based baseline on the same faulted cycle (same
/// plan seed, so the fault trajectory matches the supervised run's).
fn eval_rule_based(
    cycle: &drive_cycle::DriveCycle,
    cfg: &ExperimentConfig,
    fault_cfg: FaultConfig,
    plan_seed: u64,
) -> EpisodeMetrics {
    let mut rule = RuleBasedController::default();
    let mut plan = FaultPlan::new(fault_cfg, plan_seed);
    let mut hev = experiments::fresh_hev(cfg.initial_soc);
    plan.degrade_plant(&mut hev);
    simulate_with_faults(
        &mut hev,
        cycle,
        &mut rule,
        &RewardConfig::default(),
        Some(&mut plan),
    )
}

/// The degradation sweep with optional checkpointed training.
///
/// # Errors
///
/// Fails when a training run's checkpoint cannot be read or written, or
/// holds more episodes than `cfg` asks for.
pub fn robustness_with(
    cfg: &ExperimentConfig,
    severities: &[f64],
    ckpt: Option<&CheckpointOptions>,
) -> Result<Vec<RobustnessRow>, CheckpointError> {
    let cycle = StandardCycle::Oscar.cycle();
    let snapshots = train_clean_snapshots_with(cfg, ckpt)?;
    let plan_seeds = SeedSequence::new(cfg.seed ^ FAULT_SEED_TAG);
    Ok(severities
        .iter()
        .map(|&severity| {
            let fault_cfg = FaultConfig::at_severity(severity);
            let mut degradation = DegradationReport::default();
            let mut completed = 0;
            let mut p_fuel = 0.0;
            let mut r_fuel = 0.0;
            let mut p_util = 0.0;
            let mut r_util = 0.0;
            for (k, snapshot) in snapshots.iter().enumerate() {
                let plan_seed = plan_seeds.child(k as u64);
                let p = eval_supervised(snapshot, &cycle, cfg, fault_cfg, plan_seed);
                let r = eval_rule_based(&cycle, cfg, fault_cfg, plan_seed);
                if p.steps == cycle.len() {
                    completed += 1;
                }
                if let Some(d) = &p.degradation {
                    degradation = degradation.merged(d);
                }
                p_fuel += corrected_fuel_g(&p);
                r_fuel += corrected_fuel_g(&r);
                p_util += p.mean_utility();
                r_util += r.mean_utility();
            }
            let n = snapshots.len() as f64;
            RobustnessRow {
                severity,
                proposed_fuel_g: p_fuel / n,
                rule_fuel_g: r_fuel / n,
                proposed_utility: p_util / n,
                rule_utility: r_util / n,
                completed_runs: completed,
                runs: snapshots.len(),
                degradation,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            episodes: 4,
            runs: 2,
            jobs: 0,
            ..Default::default()
        }
    }

    #[test]
    fn sweep_completes_every_faulted_cycle() {
        let rows = robustness_with(&tiny(), &[0.0, 1.0], None).unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(
                row.completed_runs, row.runs,
                "severity {}: supervised controller missed steps",
                row.severity
            );
            assert!(row.proposed_fuel_g.is_finite());
            assert!(row.rule_fuel_g.is_finite());
        }
        // Healthy reference: zero interventions beyond counting.
        assert_eq!(rows[0].severity, 0.0);
        assert!(rows[0].degradation.decisions > 0);
    }

    #[test]
    fn sweep_is_deterministic_across_worker_counts() {
        let sweep = |jobs| robustness_with(&ExperimentConfig { jobs, ..tiny() }, &[0.5], None);
        let (serial, parallel) = (sweep(1).unwrap(), sweep(4).unwrap());
        assert_eq!(serial, parallel);
    }
}
