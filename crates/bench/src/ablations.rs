//! Ablation studies over the design choices DESIGN.md calls out.

use crate::experiments::{corrected_mpg, train_eval, train_eval_seeded, ExperimentConfig};
use drive_cycle::{DriveCycle, StandardCycle};
use hev_control::{EpisodeMetrics, JointController, JointControllerConfig, RunSpec, SeedSequence};
use hev_predict::{MarkovChain, MlpPredictor, MovingAverage};
use serde::{Deserialize, Serialize};

/// A generic ablation row: a swept value and the resulting metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// The swept parameter value, formatted.
    pub setting: String,
    /// Cumulative reward of the greedy evaluation.
    pub reward: f64,
    /// Charge-corrected MPG.
    pub mpg: f64,
    /// Mean auxiliary utility.
    pub mean_utility: f64,
}

fn row(setting: String, m: &EpisodeMetrics) -> AblationRow {
    AblationRow {
        setting,
        reward: m.total_reward,
        mpg: corrected_mpg(m),
        mean_utility: m.mean_utility(),
    }
}

/// The cycle the ablations run on (UDDS — the longest, most structured
/// of the paper's set).
fn ablation_cycle() -> DriveCycle {
    StandardCycle::Udds.cycle()
}

/// Runs one labeled training per setting, fanned across `cfg.jobs`
/// workers. Every setting trains at the same run-0 child seed (the
/// sweep varies the hyperparameter, not the seed), so rows are
/// bit-identical at every worker count.
fn sweep(
    group: &str,
    cycle: &DriveCycle,
    settings: Vec<(String, JointControllerConfig)>,
    cfg: &ExperimentConfig,
) -> Vec<AblationRow> {
    let seed = SeedSequence::new(cfg.seed).child(0);
    let tasks = settings
        .into_iter()
        .map(|(label, c)| RunSpec {
            label: format!("{group}/{label}"),
            seed,
            payload: (label, c),
        })
        .collect();
    cfg.harness().run(group, tasks, |_, _, (label, c)| {
        row(label, &train_eval(c, cycle, cfg))
    })
}

/// A1 — reduced vs full action space (§4.3.2's trade-off claim).
pub fn ablation_action_space(cfg: &ExperimentConfig) -> Vec<AblationRow> {
    sweep(
        "ablation-action-space",
        &ablation_cycle(),
        vec![
            ("reduced [i]".to_string(), JointControllerConfig::proposed()),
            (
                "full [i, R(k), p_aux]".to_string(),
                JointControllerConfig::full_action_space(5, vec![100.0, 600.0, 1_100.0]),
            ),
        ],
        cfg,
    )
}

/// A2 — prediction learning-rate α sweep (Eq. 12).
pub fn ablation_alpha(cfg: &ExperimentConfig) -> Vec<AblationRow> {
    let settings = [0.05, 0.15, 0.30, 0.50, 0.90]
        .iter()
        .map(|&alpha| {
            let mut c = JointControllerConfig::proposed();
            c.predictor_alpha = alpha;
            (format!("alpha = {alpha:.2}"), c)
        })
        .collect();
    sweep("ablation-alpha", &ablation_cycle(), settings, cfg)
}

/// A3 — TD(λ) trace-decay sweep (§4.3.4's algorithm choice).
pub fn ablation_lambda(cfg: &ExperimentConfig) -> Vec<AblationRow> {
    let settings = [0.0, 0.3, 0.6, 0.9, 0.95]
        .iter()
        .map(|&lambda| {
            let mut c = JointControllerConfig::proposed();
            c.td.lambda = lambda;
            (format!("lambda = {lambda:.2}"), c)
        })
        .collect();
    sweep("ablation-lambda", &ablation_cycle(), settings, cfg)
}

/// A4 — auxiliary weight `w` sweep: the fuel/utility Pareto trade-off
/// (§4.3.3).
pub fn ablation_weight(cfg: &ExperimentConfig) -> Vec<AblationRow> {
    let settings = [0.0, 0.1, 0.4, 1.0, 2.5]
        .iter()
        .map(|&w| {
            let mut c = JointControllerConfig::proposed();
            c.reward.aux_weight = w;
            (format!("w = {w:.1}"), c)
        })
        .collect();
    sweep("ablation-weight", &ablation_cycle(), settings, cfg)
}

/// A5 — predictor comparison: EWMA (the paper's choice) vs alternatives
/// including the ANN it mentions. Uses the same jittered-portfolio
/// training protocol as every other experiment.
pub fn ablation_predictor(cfg: &ExperimentConfig) -> Vec<AblationRow> {
    let cycle = ablation_cycle();
    let seed = SeedSequence::new(cfg.seed).child(0);
    let train_with = |arm: usize| -> EpisodeMetrics {
        let c = JointControllerConfig::proposed();
        match arm {
            0 => train_eval_seeded(c, &cycle, cfg, seed, JointController::new),
            1 => train_eval_seeded(c, &cycle, cfg, seed, |c| {
                JointController::with_predictor(c, MovingAverage::new(10))
            }),
            2 => train_eval_seeded(c, &cycle, cfg, seed, |c| {
                JointController::with_predictor(c, MarkovChain::new(-40_000.0, 60_000.0, 12))
            }),
            _ => train_eval_seeded(c, &cycle, cfg, seed, |c| {
                JointController::with_predictor(c, MlpPredictor::new(4, 8, 0.02, 20_000.0, seed))
            }),
        }
    };
    let labels = [
        "ewma (paper)",
        "moving average (10 s)",
        "markov chain",
        "mlp (ann)",
    ];
    let tasks = labels
        .iter()
        .enumerate()
        .map(|(k, label)| RunSpec {
            label: format!("ablation-predictor/{label}"),
            seed,
            payload: k,
        })
        .collect();
    cfg.harness().run("ablation-predictor", tasks, |_, _, k| {
        row(labels[k].to_string(), &train_with(k))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            episodes: 2,
            ..Default::default()
        }
    }

    #[test]
    fn weight_zero_ignores_utility_in_reward() {
        // With w = 0 the reward reduces to −fuel; just verify the sweep
        // produces the requested settings.
        let rows = ablation_weight(&ExperimentConfig {
            episodes: 1,
            ..Default::default()
        });
        assert_eq!(rows.len(), 5);
        assert!(rows[0].setting.contains("0.0"));
    }

    #[test]
    #[ignore = "several minutes of training; run explicitly"]
    fn all_ablations_run() {
        let cfg = tiny();
        assert_eq!(ablation_action_space(&cfg).len(), 2);
        assert_eq!(ablation_alpha(&cfg).len(), 5);
        assert_eq!(ablation_lambda(&cfg).len(), 5);
        assert_eq!(ablation_predictor(&cfg).len(), 4);
    }
}
