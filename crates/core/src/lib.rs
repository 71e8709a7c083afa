//! RL-based joint control of HEV powertrain and auxiliary systems.
//!
//! This crate is the core of the reproduction of Wang, Lin, Pedram, and
//! Chang, *"Joint Automatic Control of the Powertrain and Auxiliary
//! Systems to Enhance the Electromobility in Hybrid Electric Vehicles"*,
//! DAC 2015. It assembles the substrates ([`hev_model`], [`hev_rl`],
//! [`hev_predict`], [`drive_cycle`]) into:
//!
//! * the discretized **state space** `s = [p_dem, v, q, pre]`
//!   ([`StateSpace`], Eq. 13–14) and **action spaces** — full and reduced
//!   ([`ActionSpace`], Eq. 15);
//! * the **reward** `r = (−ṁ_f + w·f_aux(p_aux))·ΔT` ([`RewardConfig`],
//!   §4.3.3);
//! * the per-step **inner optimization** choosing gear and auxiliary
//!   power under the reduced action space ([`InnerOptimizer`], §4.3.2);
//! * the **TD(λ) joint controller** ([`JointController`], Algorithm 1)
//!   with the exponential-weighting demand predictor (Eq. 12);
//! * the **baselines**: rule-based \[5\], powertrain-only RL \[13\], ECMS
//!   \[10\], and an offline DP bound \[7\] ([`baseline`]);
//! * the episodic **simulation harness** and **metrics**
//!   ([`simulate`], [`EpisodeMetrics`]);
//! * the deterministic **parallel training harness** ([`harness`]):
//!   seed-split multi-run execution that is bit-identical at every
//!   worker count;
//! * the deterministic **telemetry layer** ([`telemetry`]): per-episode
//!   metrics registries, sampled decision traces, and degradation
//!   flight dumps collected in memory per task window
//!   ([`telemetry::begin_task`]) so emitted files stay byte-identical
//!   across worker counts.
//!
//! # Examples
//!
//! ```no_run
//! use drive_cycle::StandardCycle;
//! use hev_control::{
//!     simulate, JointController, JointControllerConfig, RewardConfig,
//!     RuleBasedController,
//! };
//! use hev_model::{HevParams, ParallelHev};
//!
//! let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6)?;
//! let cycle = StandardCycle::Udds.cycle();
//!
//! // Proposed: joint RL control with prediction.
//! let mut agent = JointController::new(JointControllerConfig::proposed());
//! agent.train(&mut hev, &cycle, 150);
//! let proposed = agent.evaluate(&mut hev, &cycle);
//!
//! // Baseline: rule-based policy.
//! hev.reset_soc(0.6);
//! let mut rule = RuleBasedController;
//! let baseline = simulate(&mut hev, &cycle, &mut rule, &RewardConfig::default());
//!
//! println!("reward: proposed {:.1} vs rule-based {:.1}",
//!          proposed.total_reward, baseline.total_reward);
//! # Ok::<(), hev_model::ParamError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod action;
pub mod analysis;
pub mod baseline;
pub mod checkpoint;
pub mod controller;
pub mod fault;
pub mod harness;
pub mod inner_opt;
pub mod metrics;
pub mod plan;
pub mod reward;
pub mod sim;
pub mod state;
pub mod supervisor;
pub mod telemetry;

pub use action::{default_currents, ActionSpace};
pub use analysis::{EnergyAudit, Recorder, TracePoint};
pub use baseline::{
    solve_dp, DpConfig, DpPolicy, DpSolution, EcmsConfig, EcmsController, RuleBasedController,
};
pub use checkpoint::{
    train_portfolio_checkpointed, CheckpointError, CheckpointSpec, TrainCheckpoint,
};
pub use controller::{ControllerSnapshot, JointController, JointControllerConfig};
pub use fault::FaultPlan;
pub use harness::{
    split_seed, Harness, RunEvent, RunLog, RunOutcome, RunSpec, SeedSequence, RETRY_SEED_TAG,
};
pub use inner_opt::{InnerOptimizer, ResolvedAction};
pub use metrics::{mode_index, DegradationReport, EpisodeMetrics};
pub use plan::CyclePlan;
pub use reward::RewardConfig;
pub use sim::{
    fallback_control, simulate, simulate_planned, simulate_with_faults, ControlError, HevPolicy,
    Observation,
};
pub use state::{StateSample, StateSpace, StateSpaceConfig};
pub use supervisor::{LadderConfig, Rung, SupervisedPolicy, Tier};
pub use telemetry::{DecisionInfo, PolicyTelemetry, RunTelemetry, TelemetryConfig};
