//! The paper's experiments (§5), each regenerating one table or figure.
//!
//! Every function is deterministic given its configuration (seeded RNG),
//! so `repro` output is stable run-to-run.

use drive_cycle::StandardCycle;
pub use hev_control::metrics::{corrected_fuel_g, corrected_mpg, corrected_reward};
use hev_control::{
    simulate, telemetry, CyclePlan, DpConfig, EcmsController, EpisodeMetrics, Harness,
    JointController, JointControllerConfig, RewardConfig, RuleBasedController, RunSpec,
    RunTelemetry, SeedSequence, TelemetryConfig,
};
use hev_model::{HevParams, ParallelHev};
use hev_predict::Predictor;
use serde::{Deserialize, Serialize};

/// Shared experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Training episodes per RL controller.
    pub episodes: usize,
    /// Initial state of charge.
    pub initial_soc: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Independent training runs (seeds `seed..seed+runs`) averaged per
    /// reported number — tabular RL on a single cycle is noisy.
    pub runs: usize,
    /// Relative speed-noise amplitude of the perturbed training replicas
    /// (drivers never reproduce a cycle exactly; the paper motivates the
    /// prediction state with exactly this non-stationarity). Evaluation
    /// always runs on the nominal cycle.
    pub train_jitter: f64,
    /// Number of perturbed replicas (plus the nominal cycle) rotated
    /// through during training.
    pub jitter_variants: usize,
    /// Worker threads for independent training runs (`repro --jobs`).
    /// Results are bit-identical at every value — each run's RNG stream
    /// is split from `seed` by task index, never by thread — so this
    /// only trades wall-clock for cores. `0` means the machine's
    /// available parallelism.
    pub jobs: usize,
    /// Per-task telemetry the figure grids collect (off by default; see
    /// [`train_eval_grid`]).
    pub telemetry: TelemetryConfig,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            episodes: 800,
            initial_soc: 0.6,
            seed: 2015,
            runs: 3,
            train_jitter: 0.05,
            jitter_variants: 4,
            jobs: 1,
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl ExperimentConfig {
    /// The parallel harness this configuration asks for.
    pub fn harness(&self) -> Harness {
        Harness::new(self.jobs)
    }
}

/// A fresh vehicle with the paper's (Table 1) parameters.
pub fn fresh_hev(initial_soc: f64) -> ParallelHev {
    ParallelHev::new(HevParams::default_parallel_hev(), initial_soc)
        // hevlint::allow(panic::expect, Table 1 defaults are validated by hev-model tests; a panic here means the binary itself is broken)
        .expect("default parameters are valid")
}

// ---------------------------------------------------------------------
// Table 1 — HEV key parameters
// ---------------------------------------------------------------------

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Parameter name.
    pub name: &'static str,
    /// Formatted value with unit.
    pub value: String,
}

/// Regenerates Table 1: the key parameters of the simulated HEV.
pub fn table1() -> Vec<Table1Row> {
    let p = HevParams::default_parallel_hev();
    let rpm = |rad: f64| rad * 30.0 / std::f64::consts::PI;
    vec![
        Table1Row {
            name: "Vehicle mass",
            value: format!("{:.0} kg", p.body.mass_kg),
        },
        Table1Row {
            name: "Air drag coefficient",
            value: format!("{:.2}", p.body.drag_coefficient),
        },
        Table1Row {
            name: "Frontal area",
            value: format!("{:.1} m^2", p.body.frontal_area_m2),
        },
        Table1Row {
            name: "Rolling friction coefficient",
            value: format!("{:.3}", p.body.rolling_coefficient),
        },
        Table1Row {
            name: "Wheel radius",
            value: format!("{:.3} m", p.body.wheel_radius_m),
        },
        Table1Row {
            name: "ICE rated power",
            value: format!("{:.0} kW", p.ice.rated_power_w() / 1_000.0),
        },
        Table1Row {
            name: "ICE speed range",
            value: format!(
                "{:.0}-{:.0} rpm",
                rpm(p.ice.idle_speed_rad_s),
                rpm(p.ice.max_speed_rad_s)
            ),
        },
        Table1Row {
            name: "ICE peak efficiency",
            value: format!("{:.0} %", p.ice.peak_efficiency * 100.0),
        },
        Table1Row {
            name: "EM rated power",
            value: format!("{:.0} kW", p.motor.rated_power_w / 1_000.0),
        },
        Table1Row {
            name: "EM max torque",
            value: format!("{:.0} N*m", p.motor.max_torque_nm),
        },
        Table1Row {
            name: "Battery capacity",
            value: format!("{:.0} Ah", p.battery.capacity_ah),
        },
        Table1Row {
            name: "Battery nominal energy",
            value: format!("{:.1} kWh", p.battery.nominal_energy_wh() / 1_000.0),
        },
        Table1Row {
            name: "SoC window",
            value: format!(
                "{:.0}-{:.0} %",
                p.battery.soc_min * 100.0,
                p.battery.soc_max * 100.0
            ),
        },
        Table1Row {
            name: "Gear ratios (overall)",
            value: format!("{:?}", p.drivetrain.gear_ratios),
        },
        Table1Row {
            name: "Preferred auxiliary power",
            value: format!("{:.0} W", p.aux.preferred_power_w),
        },
        Table1Row {
            name: "Auxiliary power range",
            value: format!("{:.0}-{:.0} W", p.aux.min_power_w, p.aux.max_power_w),
        },
    ]
}

// ---------------------------------------------------------------------
// Figure 2 — fuel consumption with vs without prediction
// ---------------------------------------------------------------------

/// One bar pair of Figure 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2Row {
    /// Cycle name.
    pub cycle: String,
    /// Fuel with prediction, g.
    pub fuel_with_g: f64,
    /// Fuel without prediction, g.
    pub fuel_without_g: f64,
    /// Fuel with prediction, normalized to the without-prediction run.
    pub normalized: f64,
}

/// Figure 2: normalized fuel consumption of the RL framework with and
/// without driving-profile prediction on OSCAR, UDDS, MODEM.
/// Beside the rows: the per-task telemetry `cfg.telemetry` asks for
/// (see [`train_eval_grid`]), empty when it is off.
pub fn fig2(cfg: &ExperimentConfig) -> (Vec<Fig2Row>, Vec<RunTelemetry>) {
    let set = [
        StandardCycle::Oscar,
        StandardCycle::Udds,
        StandardCycle::ModemUrban,
    ];
    let cycles: Vec<_> = set.iter().map(|sc| sc.cycle()).collect();
    let variants = [
        ("with", JointControllerConfig::proposed()),
        ("without", JointControllerConfig::without_prediction()),
    ];
    let (grid, runs) = train_eval_grid("fig2", &cycles, &variants, cfg);
    let rows = set
        .iter()
        .zip(&grid)
        .map(|(sc, per_variant)| {
            // Compare charge-corrected fuel so a deeper battery draw does
            // not masquerade as a fuel saving; average across runs.
            let fw = mean_of(&per_variant[0], corrected_fuel_g);
            let fo = mean_of(&per_variant[1], corrected_fuel_g);
            Fig2Row {
                cycle: sc.name().to_string(),
                fuel_with_g: fw,
                fuel_without_g: fo,
                normalized: fw / fo,
            }
        })
        .collect();
    (rows, runs)
}

// ---------------------------------------------------------------------
// Table 2 — cumulative reward, proposed vs rule-based
// ---------------------------------------------------------------------

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Cycle name.
    pub cycle: String,
    /// Cumulative reward of the proposed joint controller.
    pub proposed: f64,
    /// Cumulative reward of the rule-based policy.
    pub rule_based: f64,
    /// Proposed reward with the net state-of-charge change converted to
    /// fuel-equivalent grams (fair comparison across different terminal
    /// charge levels).
    pub proposed_corrected: f64,
    /// Rule-based reward with the same correction.
    pub rule_corrected: f64,
    /// Net state-of-charge change of the proposed run (for context).
    pub proposed_delta_soc: f64,
    /// Net state-of-charge change of the rule-based run.
    pub rule_delta_soc: f64,
}

/// Table 2: cumulative reward `Σ(−ṁ_f + w·f_aux)·ΔT` of the proposed
/// joint controller vs the rule-based policy on OSCAR, UDDS, SC03, HWFET.
/// Beside the rows: the per-task telemetry `cfg.telemetry` asks for
/// (see [`train_eval_grid`]), empty when it is off.
pub fn table2(cfg: &ExperimentConfig) -> (Vec<Table2Row>, Vec<RunTelemetry>) {
    let set = StandardCycle::paper_set();
    let cycles: Vec<_> = set.iter().map(|sc| sc.cycle()).collect();
    let variants = [("proposed", JointControllerConfig::proposed())];
    let (grid, runs) = train_eval_grid("table2", &cycles, &variants, cfg);
    let rows = set
        .iter()
        .zip(cycles.iter().zip(&grid))
        .map(|(sc, (cycle, per_variant))| {
            let proposed = &per_variant[0];
            let rule = run_rule_based(cycle, cfg);
            Table2Row {
                cycle: sc.name().to_string(),
                proposed: mean_of(proposed, |m| m.total_reward),
                rule_based: rule.total_reward,
                proposed_corrected: mean_of(proposed, corrected_reward),
                rule_corrected: corrected_reward(&rule),
                proposed_delta_soc: mean_of(proposed, |m| m.soc_final - m.soc_initial),
                rule_delta_soc: rule.soc_final - rule.soc_initial,
            }
        })
        .collect();
    (rows, runs)
}

// ---------------------------------------------------------------------
// Figure 3 — MPG, proposed vs rule-based
// ---------------------------------------------------------------------

/// One bar pair of Figure 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Row {
    /// Cycle name.
    pub cycle: String,
    /// Charge-corrected MPG of the proposed controller.
    pub proposed_mpg: f64,
    /// Charge-corrected MPG of the rule-based policy.
    pub rule_mpg: f64,
    /// Relative improvement, percent.
    pub improvement_pct: f64,
}

/// Figure 3: MPG achieved by the proposed joint controller vs the
/// rule-based policy on the paper's four cycles.
/// Beside the rows: the per-task telemetry `cfg.telemetry` asks for
/// (see [`train_eval_grid`]), empty when it is off.
pub fn fig3(cfg: &ExperimentConfig) -> (Vec<Fig3Row>, Vec<RunTelemetry>) {
    let set = StandardCycle::paper_set();
    let cycles: Vec<_> = set.iter().map(|sc| sc.cycle()).collect();
    let variants = [("proposed", JointControllerConfig::proposed())];
    let (grid, runs) = train_eval_grid("fig3", &cycles, &variants, cfg);
    let rows = set
        .iter()
        .zip(cycles.iter().zip(&grid))
        .map(|(sc, (cycle, per_variant))| {
            let rule = run_rule_based(cycle, cfg);
            let p = mean_of(&per_variant[0], corrected_mpg);
            let r = corrected_mpg(&rule);
            Fig3Row {
                cycle: sc.name().to_string(),
                proposed_mpg: p,
                rule_mpg: r,
                improvement_pct: (p / r - 1.0) * 100.0,
            }
        })
        .collect();
    (rows, runs)
}

// ---------------------------------------------------------------------
// Learning curves — the §4.3.2 convergence-speed claim
// ---------------------------------------------------------------------

/// One sampled point of a learning curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LearningCurvePoint {
    /// Training episode index.
    pub episode: usize,
    /// Charge-corrected fuel of that training episode under the reduced
    /// action space, g.
    pub reduced_fuel_g: f64,
    /// The same for the full action space.
    pub full_fuel_g: f64,
}

/// Training curves of the reduced vs full action space on UDDS — the
/// paper argues the reduced space converges faster (§4.3.2). Points are
/// sampled every `stride` episodes.
pub fn learning_curve(cfg: &ExperimentConfig, stride: usize) -> Vec<LearningCurvePoint> {
    let cycle = StandardCycle::Udds.cycle();
    let seed = SeedSequence::new(cfg.seed).child(0);
    let tasks = vec![
        RunSpec {
            label: "learning-curve/reduced".to_string(),
            seed,
            payload: JointControllerConfig::proposed(),
        },
        RunSpec {
            label: "learning-curve/full".to_string(),
            seed,
            payload: JointControllerConfig::full_action_space(5, vec![100.0, 600.0, 1_100.0]),
        },
    ];
    let mut arms = cfg
        .harness()
        .run(
            "learning-curve",
            tasks,
            |_, seed, mut c: JointControllerConfig| {
                c.initial_soc = cfg.initial_soc;
                c.seed = seed;
                let mut hev = fresh_hev(cfg.initial_soc);
                let mut agent = JointController::new(c);
                agent.train(&mut hev, &cycle, cfg.episodes)
            },
        )
        .into_iter();
    let (reduced, full) = (
        arms.next().expect("reduced arm"), // hevlint::allow(panic::expect, structural: the harness returns exactly the two submitted arms)
        arms.next().expect("full arm"), // hevlint::allow(panic::expect, structural: the harness returns exactly the two submitted arms)
    );
    reduced
        .iter()
        .zip(&full)
        .enumerate()
        .filter(|(k, _)| k % stride.max(1) == 0)
        .map(|(k, (r, f))| LearningCurvePoint {
            episode: k,
            reduced_fuel_g: corrected_fuel_g(r),
            full_fuel_g: corrected_fuel_g(f),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Shared runners
// ---------------------------------------------------------------------

/// Trains a joint controller on a cycle and returns the greedy
/// evaluation of a single run — run 0 of the master seed's family, so
/// it matches run 0 of a [`train_eval_grid`] cell exactly.
pub fn train_eval(
    controller_cfg: JointControllerConfig,
    cycle: &drive_cycle::DriveCycle,
    cfg: &ExperimentConfig,
) -> EpisodeMetrics {
    train_eval_seeded(
        controller_cfg,
        cycle,
        cfg,
        SeedSequence::new(cfg.seed).child(0),
        JointController::new,
    )
}

/// The standard training set: the nominal cycle plus perturbed replicas
/// (drivers never reproduce a trace exactly). Evaluation always uses the
/// nominal cycle.
pub fn jitter_portfolio(
    cycle: &drive_cycle::DriveCycle,
    seed: u64,
    cfg: &ExperimentConfig,
) -> Vec<drive_cycle::DriveCycle> {
    let mut portfolio = vec![cycle.clone()];
    for k in 0..cfg.jitter_variants {
        portfolio.push(cycle.perturbed(seed.wrapping_add(100 + k as u64), cfg.train_jitter));
    }
    portfolio
}

/// [`jitter_portfolio`] compiled to [`CyclePlan`]s: every timestep's
/// evaluation context tabulated once per cycle (`plans[0]` is the
/// nominal cycle). The plans depend only on the vehicle's static
/// parameters, never on its battery state, so one set serves a whole
/// training run.
pub(crate) fn plan_portfolio(
    hev: &ParallelHev,
    cycle: &drive_cycle::DriveCycle,
    seed: u64,
    cfg: &ExperimentConfig,
) -> Vec<CyclePlan> {
    jitter_portfolio(cycle, seed, cfg)
        .iter()
        .map(|c| CyclePlan::new(hev, c))
        .collect()
}

/// The one train-and-evaluate protocol: trains the controller `build`
/// makes from `controller_cfg` (seeded with `seed`) on the jittered
/// portfolio of `cycle`, then evaluates it greedily on the nominal
/// cycle. `build` picks the predictor (`JointController::new` for the
/// paper's EWMA).
pub(crate) fn train_eval_seeded<P: Predictor>(
    mut controller_cfg: JointControllerConfig,
    cycle: &drive_cycle::DriveCycle,
    cfg: &ExperimentConfig,
    seed: u64,
    build: impl FnOnce(JointControllerConfig) -> JointController<P>,
) -> EpisodeMetrics {
    controller_cfg.initial_soc = cfg.initial_soc;
    controller_cfg.seed = seed;
    let mut hev = fresh_hev(cfg.initial_soc);
    let mut agent = build(controller_cfg);
    let plans = plan_portfolio(&hev, cycle, seed, cfg);
    let rounds = (cfg.episodes / plans.len()).max(1);
    agent.train_portfolio_planned(&mut hev, &plans, rounds);
    agent.evaluate_planned(&mut hev, &plans[0])
}

/// Trains every `(cycle × controller variant × run)` combination as one
/// flat parallel batch and returns metrics indexed
/// `[cycle][variant][run]`.
///
/// Flattening matters for wall-clock: `fig2` has 3 cycles × 2 variants
/// × `runs` runs, and a per-call fan-out would cap the useful worker
/// count at `runs`. Task order (and therefore output) is independent of
/// scheduling; every task's seed depends only on its run index, exactly
/// as in the serial path.
///
/// When `cfg.telemetry` is enabled, each task records into its own
/// telemetry window (labelled with the task's label), and the second
/// element holds one [`RunTelemetry`] per task in task order
/// (cycle-major, then variant, then run index) — the same order at
/// every `--jobs` value, so concatenating the runs' lines yields
/// byte-identical files regardless of worker count. Otherwise no window
/// is opened and the second element is empty.
pub fn train_eval_grid(
    group: &str,
    cycles: &[drive_cycle::DriveCycle],
    variants: &[(&str, JointControllerConfig)],
    cfg: &ExperimentConfig,
) -> (Vec<Vec<Vec<EpisodeMetrics>>>, Vec<RunTelemetry>) {
    let runs = cfg.runs.max(1);
    let tasks = grid_tasks(group, cycles, variants, cfg);
    let labels: Vec<String> = tasks.iter().map(|t| t.label.clone()).collect();
    let enabled = cfg.telemetry.is_enabled();
    let (metrics, collected): (Vec<_>, Vec<_>) = cfg
        .harness()
        .run(group, tasks, |i, seed, (ci, vi)| {
            if enabled {
                telemetry::begin_task(labels[i].as_str(), cfg.telemetry);
            }
            let metrics = train_eval_seeded(
                variants[vi].1.clone(),
                &cycles[ci],
                cfg,
                seed,
                JointController::new,
            );
            (metrics, enabled.then(telemetry::take_task))
        })
        .into_iter()
        .unzip();
    (
        nest_grid(metrics, cycles.len(), variants.len(), runs),
        collected.into_iter().flatten().collect(),
    )
}

/// The flat task list of a `(cycle × variant × run)` grid, in the fixed
/// cycle-major order every grid consumer relies on.
fn grid_tasks(
    group: &str,
    cycles: &[drive_cycle::DriveCycle],
    variants: &[(&str, JointControllerConfig)],
    cfg: &ExperimentConfig,
) -> Vec<RunSpec<(usize, usize)>> {
    let runs = cfg.runs.max(1);
    let seq = SeedSequence::new(cfg.seed);
    let mut tasks = Vec::with_capacity(cycles.len() * variants.len() * runs);
    for (ci, cycle) in cycles.iter().enumerate() {
        for (vi, (vname, _)) in variants.iter().enumerate() {
            for k in 0..runs {
                tasks.push(RunSpec {
                    label: format!("{group}/{}/{vname}/run{k}", cycle.name()),
                    seed: seq.child(k as u64),
                    payload: (ci, vi),
                });
            }
        }
    }
    tasks
}

/// Reshapes a flat grid result back to `[cycle][variant][run]`.
fn nest_grid<T>(flat: Vec<T>, n_cycles: usize, n_variants: usize, runs: usize) -> Vec<Vec<Vec<T>>> {
    let mut iter = flat.into_iter();
    (0..n_cycles)
        .map(|_| {
            (0..n_variants)
                .map(|_| {
                    (0..runs)
                        // hevlint::allow(panic::expect, structural: the harness returns one result per submitted grid cell)
                        .map(|_| iter.next().expect("grid result"))
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Mean of a per-episode scalar across runs.
pub(crate) fn mean_of<F: Fn(&EpisodeMetrics) -> f64>(runs: &[EpisodeMetrics], f: F) -> f64 {
    runs.iter().map(f).sum::<f64>() / runs.len() as f64
}

/// Runs the rule-based baseline on a cycle.
pub fn run_rule_based(cycle: &drive_cycle::DriveCycle, cfg: &ExperimentConfig) -> EpisodeMetrics {
    let mut hev = fresh_hev(cfg.initial_soc);
    let mut rule = RuleBasedController;
    simulate(&mut hev, cycle, &mut rule, &RewardConfig::default())
}

/// Runs the ECMS reference on a cycle.
pub fn run_ecms(cycle: &drive_cycle::DriveCycle, cfg: &ExperimentConfig) -> EpisodeMetrics {
    let mut hev = fresh_hev(cfg.initial_soc);
    let mut ecms = EcmsController;
    simulate(&mut hev, cycle, &mut ecms, &RewardConfig::default())
}

/// Runs the offline DP bound on a cycle.
pub fn run_dp(cycle: &drive_cycle::DriveCycle, cfg: &ExperimentConfig) -> EpisodeMetrics {
    let mut hev = fresh_hev(cfg.initial_soc);
    hev_control::solve_dp(&mut hev, cycle, cfg.initial_soc, &DpConfig::default()).metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_covers_all_subsystems() {
        let rows = table1();
        assert!(rows.len() >= 12);
        let names: Vec<_> = rows.iter().map(|r| r.name).collect();
        for needle in [
            "Vehicle mass",
            "ICE rated power",
            "EM rated power",
            "Battery capacity",
        ] {
            assert!(names.contains(&needle), "missing {needle}");
        }
        assert!(rows.iter().all(|r| !r.value.is_empty()));
    }

    #[test]
    fn corrected_fuel_penalizes_depletion() {
        let mut m = EpisodeMetrics::new(0.7);
        m.fuel_g = 100.0;
        m.soc_final = 0.5;
        assert!(corrected_fuel_g(&m) > 100.0);
    }

    fn tiny_cycle() -> drive_cycle::DriveCycle {
        drive_cycle::ProfileBuilder::new("tiny")
            .idle(2.0)
            .trip(30.0, 8.0, 15.0, 6.0, 3.0)
            .trip(20.0, 6.0, 8.0, 5.0, 3.0)
            .build()
            .expect("valid test cycle")
    }

    #[test]
    fn multi_run_summary_aggregates_every_training_run() {
        let cfg = ExperimentConfig {
            episodes: 4,
            runs: 3,
            jitter_variants: 1,
            ..ExperimentConfig::default()
        };
        let cycles = [tiny_cycle()];
        let variants = [("proposed", JointControllerConfig::proposed())];
        let (grid, _) = train_eval_grid("summary", &cycles, &variants, &cfg);
        let runs = &grid[0][0];
        assert_eq!(runs.len(), cfg.runs);
        assert!(runs.iter().all(|m| m.fuel_g.is_finite()));
    }

    #[test]
    fn rule_based_runner_is_deterministic() {
        let cfg = ExperimentConfig::default();
        let cycle = StandardCycle::Oscar.cycle();
        let a = run_rule_based(&cycle, &cfg);
        let b = run_rule_based(&cycle, &cfg);
        assert_eq!(a.fuel_g, b.fuel_g);
    }
}
