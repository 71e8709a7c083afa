//! The proposed RL-based joint controller of powertrain and auxiliary
//! systems (paper §4).
//!
//! A TD(λ) agent observes the state `s = [p_dem, v, q, pre]` and selects
//! a battery current from the reduced action space (or a complete
//! `(i, R(k), p_aux)` tuple from the full space). Under the reduced space
//! the per-step [`InnerOptimizer`] picks the gear and auxiliary power
//! that maximize the instantaneous reward — making the agent *partially
//! model-free* exactly as §4.3.2 describes.

use crate::action::ActionSpace;
use crate::inner_opt::{InnerOptimizer, ResolvedAction};
use crate::metrics::EpisodeMetrics;
use crate::plan::CyclePlan;
use crate::reward::RewardConfig;
use crate::sim::{fallback_control, simulate_planned, HevPolicy, Observation};
use crate::state::{StateSample, StateSpace, StateSpaceConfig};
use crate::telemetry::{DecisionInfo, PolicyTelemetry};
use drive_cycle::DriveCycle;
use hev_model::{ControlInput, CurrentContext, ParallelHev, StepOutcome};
use hev_predict::{Ewma, Predictor};
use hev_rl::{DecayingEpsilon, ExplorationPolicy, QStats, TdLambda, TdLambdaConfig, TdStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration of the joint controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JointControllerConfig {
    /// State-space discretization.
    pub state: StateSpaceConfig,
    /// Action space (reduced recommended).
    pub action: ActionSpace,
    /// TD(λ) hyper-parameters.
    pub td: TdLambdaConfig,
    /// Reward definition.
    pub reward: RewardConfig,
    /// Initial exploration rate ε₀.
    pub epsilon0: f64,
    /// Multiplicative ε decay per episode.
    pub epsilon_decay: f64,
    /// Exploration floor.
    pub epsilon_floor: f64,
    /// Inner optimizer for the reduced action space.
    pub inner: InnerOptimizer,
    /// Learning rate of the EWMA demand predictor (Eq. 12). Ignored when
    /// the state space has no prediction dimension.
    pub predictor_alpha: f64,
    /// Initial state of charge each training/evaluation episode starts
    /// from.
    pub initial_soc: f64,
    /// RNG seed (exploration).
    pub seed: u64,
}

impl JointControllerConfig {
    /// The paper's proposed configuration: prediction-augmented state,
    /// reduced action space, jointly optimized auxiliary power.
    pub fn proposed() -> Self {
        Self {
            state: StateSpaceConfig::with_prediction(),
            action: ActionSpace::reduced(),
            // A small learning rate matters: per-state returns are noisy
            // under state aliasing, and α = 0.05 averages them out.
            td: TdLambdaConfig {
                alpha: 0.05,
                ..TdLambdaConfig::default()
            },
            reward: RewardConfig::default(),
            epsilon0: 0.30,
            epsilon_decay: 0.985,
            epsilon_floor: 0.01,
            inner: InnerOptimizer::default(),
            predictor_alpha: 0.30,
            initial_soc: 0.60,
            seed: 2015,
        }
    }

    /// The proposed controller *without* the prediction dimension
    /// (Figure 2's comparison).
    pub fn without_prediction() -> Self {
        Self {
            state: StateSpaceConfig::without_prediction(),
            ..Self::proposed()
        }
    }

    /// The powertrain-only RL baseline in the style of ICCAD'14 \[13\]: no
    /// prediction, auxiliary power pinned at the preferred level, reduced
    /// action space.
    pub fn powertrain_only(fixed_aux_w: f64) -> Self {
        Self {
            state: StateSpaceConfig::without_prediction(),
            inner: InnerOptimizer::with_fixed_aux(fixed_aux_w),
            ..Self::proposed()
        }
    }

    /// The proposed controller over the full (non-reduced) action space
    /// of Eq. 15, for the action-space ablation.
    pub fn full_action_space(num_gears: usize, aux_levels: Vec<f64>) -> Self {
        Self {
            action: ActionSpace::full(num_gears, aux_levels),
            ..Self::proposed()
        }
    }
}

impl Default for JointControllerConfig {
    fn default() -> Self {
        Self::proposed()
    }
}

/// The RL-based joint HEV controller, generic over the driving-profile
/// predictor (default: the paper's exponential weighting function).
///
/// # Examples
///
/// ```no_run
/// use drive_cycle::StandardCycle;
/// use hev_control::{JointController, JointControllerConfig};
/// use hev_model::{HevParams, ParallelHev};
///
/// let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6)?;
/// let mut agent = JointController::new(JointControllerConfig::proposed());
/// let cycle = StandardCycle::Udds.cycle();
/// agent.train(&mut hev, &cycle, 100);
/// let metrics = agent.evaluate(&mut hev, &cycle);
/// println!("fuel {:.0} g, reward {:.1}", metrics.fuel_g, metrics.total_reward);
/// # Ok::<(), hev_model::ParamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct JointController<P: Predictor = Ewma> {
    config: JointControllerConfig,
    state_space: StateSpace,
    learner: TdLambda,
    policy: DecayingEpsilon,
    predictor: P,
    rng: StdRng,
    training: bool,
    /// `(state, action, reward)` awaiting the next state's bootstrap.
    pending: Option<(usize, usize, f64)>,
    /// Set in `decide`, consumed in `feedback`.
    awaiting_reward: Option<(usize, usize)>,
    /// Reusable per-step buffers (not part of the learned state).
    scratch: StepScratch,
    /// Whether per-decision telemetry recording is on
    /// ([`HevPolicy::set_record_decisions`]). Off by default: the
    /// recording branches below are then never taken, so un-instrumented
    /// runs are bit-identical to a build without telemetry. Deliberately
    /// *not* part of [`ControllerSnapshot`] — observability must never
    /// change the persisted learner schema.
    record_stats: bool,
    /// TD-error statistics for the current episode (only fed while
    /// `record_stats` is on).
    td_stats: TdStats,
    /// The latest decision's telemetry, for [`HevPolicy::last_decision`].
    last_decision: Option<DecisionInfo>,
    /// Greedy-evaluation steps this episode with no visited feasible
    /// action, which the myopic fallback decides (only counted while
    /// `record_stats` is on).
    myopic_fallback_steps: u64,
}

/// Reusable per-step working memory: the feasibility memo and the myopic
/// argmax's inputs and winner. Reset at the top of each `decide`, so one
/// allocation serves the whole episode.
#[derive(Debug, Clone, Default)]
struct StepScratch {
    /// Per-action feasibility for the current step, `None` until probed:
    /// the full space fills it up front, the reduced space on first use
    /// ([`StepScratch::is_feasible`]).
    feasible: Vec<Option<bool>>,
    /// Full space only: each action's instantaneous reward from this
    /// step's mask sweep (`None` when infeasible), which the
    /// myopic argmax reuses instead of re-peeking.
    full_reward: Vec<Option<f64>>,
    /// Reduced space only: the feasible currents, in action order, that
    /// the myopic argmax sweeps.
    masked_currents: Vec<f64>,
    /// Reduced space only: the myopic argmax's action and its resolution
    /// this step, which acting reuses instead of resolving it again.
    myopic: Option<(usize, ResolvedAction)>,
}

impl StepScratch {
    fn reset(&mut self, n_actions: usize) {
        self.feasible.clear();
        self.feasible.resize(n_actions, None);
        self.myopic = None;
    }

    /// Whether action `a` is feasible this step. An unprobed (reduced)
    /// action's current is probed now with the probe
    /// [`InnerOptimizer::fill_mask`] runs for it; on a stopped step that
    /// one probe answers for every action.
    fn is_feasible(
        &mut self,
        config: &JointControllerConfig,
        hev: &ParallelHev,
        obs: &Observation<'_>,
        a: usize,
    ) -> bool {
        if let Some(known) = self.feasible[a] {
            return known;
        }
        let _span = hev_trace::span::enter("control.mask");
        let i = config.action.currents()[a];
        let verdict = config.inner.mask_entry(hev, obs.ctx, i, obs.dt_s);
        if obs.ctx.is_stopped() {
            self.feasible.fill(Some(verdict));
        } else {
            self.feasible[a] = Some(verdict);
        }
        verdict
    }
}

/// A serializable checkpoint of a trained controller: configuration,
/// learned Q-table (with traces and visit counts), the exploration
/// state, and the exploration RNG state. Predictor state is not saved —
/// predictors reset at each episode boundary anyway, so a snapshot taken
/// at an episode boundary is the controller's *complete* state: resuming
/// from it replays the remaining training bit-for-bit (see
/// [`crate::checkpoint`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerSnapshot {
    /// The controller configuration.
    pub config: JointControllerConfig,
    /// The trained TD(λ) learner.
    pub learner: TdLambda,
    /// The exploration rate at checkpoint time.
    pub epsilon: f64,
    /// The exploration RNG's internal state (xoshiro256++ words).
    pub rng_state: [u64; 4],
}

impl JointController<Ewma> {
    /// Creates the controller with the paper's EWMA predictor.
    pub fn new(config: JointControllerConfig) -> Self {
        let predictor = Ewma::new(config.predictor_alpha);
        Self::with_predictor(config, predictor)
    }

    /// Restores a controller from a [`ControllerSnapshot`], resuming with
    /// the checkpointed exploration rate and RNG state.
    pub fn from_snapshot(snapshot: ControllerSnapshot) -> Self {
        let mut restored = Self::new(snapshot.config);
        restored.learner = snapshot.learner;
        restored.policy = DecayingEpsilon::new(
            snapshot.epsilon,
            restored.config.epsilon_decay,
            restored.config.epsilon_floor.min(snapshot.epsilon),
        );
        restored.rng = StdRng::from_state(snapshot.rng_state);
        restored
    }
}

impl<P: Predictor> JointController<P> {
    /// Creates the controller with a custom predictor (ablation A5).
    pub fn with_predictor(config: JointControllerConfig, predictor: P) -> Self {
        let state_space = StateSpace::new(config.state.clone());
        let learner = TdLambda::new(state_space.n_states(), config.action.len(), config.td);
        let policy =
            DecayingEpsilon::new(config.epsilon0, config.epsilon_decay, config.epsilon_floor);
        let rng = StdRng::seed_from_u64(config.seed);
        Self {
            config,
            state_space,
            learner,
            policy,
            predictor,
            rng,
            training: true,
            pending: None,
            awaiting_reward: None,
            scratch: StepScratch::default(),
            record_stats: false,
            td_stats: TdStats::new(),
            last_decision: None,
            myopic_fallback_steps: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &JointControllerConfig {
        &self.config
    }

    /// The underlying TD(λ) learner (inspect Q values, coverage, …).
    pub fn learner(&self) -> &TdLambda {
        &self.learner
    }

    /// The discretized state space.
    pub fn state_space(&self) -> &StateSpace {
        &self.state_space
    }

    /// The current exploration rate.
    pub fn epsilon(&self) -> f64 {
        self.policy.epsilon()
    }

    /// Switches between training (explore + learn) and evaluation
    /// (greedy, frozen) behaviour for direct use as a [`HevPolicy`].
    /// [`JointController::train`] and [`JointController::evaluate`] manage
    /// this flag themselves.
    pub fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    /// Checkpoints the controller (see [`ControllerSnapshot`]).
    pub fn snapshot(&self) -> ControllerSnapshot {
        ControllerSnapshot {
            config: self.config.clone(),
            learner: self.learner.clone(),
            epsilon: self.policy.epsilon(),
            rng_state: self.rng.state(),
        }
    }

    /// Trains a single episode on a planned cycle — the unit step of
    /// [`JointController::train`] and
    /// [`JointController::train_portfolio_planned`], exposed so
    /// checkpointed drivers ([`crate::checkpoint`]) can interleave
    /// episodes with snapshots. Resets the battery to the configured
    /// initial state of charge first.
    pub fn train_episode(&mut self, hev: &mut ParallelHev, plan: &CyclePlan) -> EpisodeMetrics {
        self.training = true;
        hev.reset_soc(self.config.initial_soc);
        let reward = self.config.reward;
        simulate_planned(hev, plan, self, &reward)
    }

    /// Trains for `episodes` episodes on a cycle, resetting the battery
    /// to the configured initial state of charge each episode. Returns
    /// per-episode metrics (learning curve).
    pub fn train(
        &mut self,
        hev: &mut ParallelHev,
        cycle: &DriveCycle,
        episodes: usize,
    ) -> Vec<EpisodeMetrics> {
        let plan = CyclePlan::new(hev, cycle);
        (0..episodes)
            .map(|_| self.train_episode(hev, &plan))
            .collect()
    }

    /// Trains one episode on each cycle of a portfolio in turn (used with
    /// randomized micro-trip cycles for generalization).
    pub fn train_portfolio(
        &mut self,
        hev: &mut ParallelHev,
        cycles: &[DriveCycle],
        rounds: usize,
    ) -> Vec<EpisodeMetrics> {
        let plans: Vec<CyclePlan> = cycles.iter().map(|c| CyclePlan::new(hev, c)).collect();
        self.train_portfolio_planned(hev, &plans, rounds)
    }

    /// [`JointController::train_portfolio`] against precomputed plans
    /// (one per portfolio cycle, in portfolio order).
    pub fn train_portfolio_planned(
        &mut self,
        hev: &mut ParallelHev,
        plans: &[CyclePlan],
        rounds: usize,
    ) -> Vec<EpisodeMetrics> {
        let mut out = Vec::with_capacity(rounds * plans.len());
        for _ in 0..rounds {
            for plan in plans {
                out.push(self.train_episode(hev, plan));
            }
        }
        out
    }

    /// [`JointController::evaluate`] against a precomputed [`CyclePlan`].
    pub fn evaluate_planned(&mut self, hev: &mut ParallelHev, plan: &CyclePlan) -> EpisodeMetrics {
        self.training = false;
        hev.reset_soc(self.config.initial_soc);
        let reward = self.config.reward;
        let metrics = simulate_planned(hev, plan, self, &reward);
        self.training = true;
        metrics
    }

    /// Greedy evaluation on a cycle (no exploration, no learning).
    pub fn evaluate(&mut self, hev: &mut ParallelHev, cycle: &DriveCycle) -> EpisodeMetrics {
        let plan = CyclePlan::new(hev, cycle);
        self.evaluate_planned(hev, &plan)
    }

    fn encode_state(&self, obs: &Observation<'_>) -> usize {
        let prediction = if self.state_space.has_prediction() {
            self.predictor.predict()
        } else {
            0.0
        };
        self.state_space.encode(&StateSample {
            power_demand_w: obs.demand.power_demand_w,
            speed_mps: obs.demand.speed_mps,
            soc: obs.soc,
            prediction_w: prediction,
        })
    }

    /// Full space only: probes every action once against the
    /// observation's precomputed step context, filling
    /// `self.scratch.feasible` and keeping each feasible action's reward,
    /// which [`JointController::best_myopic_action`] then reuses for free.
    fn fill_full_mask(&mut self, hev: &ParallelHev, obs: &Observation<'_>) {
        let dt = obs.dt_s;
        let scratch = &mut self.scratch;
        scratch.full_reward.clear();
        // Actions run current-major, so rebuilding the battery context
        // only when the current changes builds each grid current's
        // context once per sweep.
        let mut cur: Option<CurrentContext> = None;
        for idx in 0..scratch.feasible.len() {
            let reward = self.config.action.decode(idx).and_then(|control| {
                let i = control.battery_current_a;
                let c = match cur {
                    Some(c) if c.battery_current_a().to_bits() == i.to_bits() => c,
                    _ => *cur.insert(hev.current_context(i, dt)),
                };
                hev.peek_with_contexts(obs.ctx, &c, &control)
                    .ok()
                    .map(|o| self.config.reward.reward(&o, dt))
            });
            scratch.feasible[idx] = Some(reward.is_some());
            scratch.full_reward.push(reward);
        }
    }

    /// Probes every action this step has not probed yet and returns how
    /// many are feasible: the whole mask, for the readers of the whole
    /// feasible set.
    fn complete_mask(&mut self, hev: &ParallelHev, obs: &Observation<'_>) -> usize {
        let (scratch, config) = (&mut self.scratch, &self.config);
        (0..scratch.feasible.len())
            .filter(|&a| scratch.is_feasible(config, hev, obs, a))
            .count()
    }

    /// The feasible action with the best instantaneous (inner-optimized)
    /// reward — the myopic policy used when evaluation reaches a state
    /// never visited during training. Completes the step's mask first;
    /// ties go to the first action.
    ///
    /// The reduced space sweeps the masked currents in action order with
    /// [`InnerOptimizer::best_resolved`], which picks what resolving each
    /// one does at less cost, and keeps the winner's exact resolution for
    /// [`JointController::control_for_action`].
    fn best_myopic_action(&mut self, hev: &ParallelHev, obs: &Observation<'_>) -> Option<usize> {
        self.complete_mask(hev, obs);
        let scratch = &mut self.scratch;
        if let ActionSpace::Reduced { currents } = &self.config.action {
            scratch.masked_currents.clear();
            scratch.masked_currents.extend(
                currents
                    .iter()
                    .zip(&scratch.feasible)
                    .filter_map(|(&i, &m)| (m == Some(true)).then_some(i)),
            );
            let (pos, resolved) = self.config.inner.best_resolved(
                hev,
                obs.ctx,
                &scratch.masked_currents,
                obs.dt_s,
                &self.config.reward,
            )?;
            let action = (0..scratch.feasible.len())
                .filter(|&idx| scratch.feasible[idx] == Some(true))
                .nth(pos)?;
            scratch.myopic = Some((action, resolved));
            return Some(action);
        }
        let mut best: Option<(usize, f64)> = None;
        for idx in 0..scratch.full_reward.len() {
            // The mask sweep already probed this action this step.
            if let Some(r) = scratch.full_reward[idx] {
                if best.is_none_or(|(_, br)| r > br) {
                    best = Some((idx, r));
                }
            }
        }
        best.map(|(a, _)| a)
    }

    fn control_for_action(
        &mut self,
        hev: &ParallelHev,
        obs: &Observation<'_>,
        action: usize,
    ) -> Option<ControlInput> {
        if let ActionSpace::Reduced { currents } = &self.config.action {
            if let Some((_, r)) = self.scratch.myopic.filter(|&(a, _)| a == action) {
                return Some(r.control);
            }
            self.config
                .inner
                .resolve_with(
                    hev,
                    obs.ctx,
                    currents[action],
                    obs.dt_s,
                    &self.config.reward,
                )
                .map(|r| r.control)
        } else {
            self.config.action.decode(action)
        }
    }
}

impl<P: Predictor> HevPolicy for JointController<P> {
    fn begin_episode(&mut self) {
        self.pending = None;
        self.awaiting_reward = None;
        if self.record_stats {
            self.td_stats.reset();
            self.last_decision = None;
            self.myopic_fallback_steps = 0;
        }
        self.predictor.reset();
    }

    /// Chooses this step's action (Algorithm 1) and resolves it.
    ///
    /// Feasibility is probed only where a reader needs it. The reduced
    /// space probes an action's current on first use and remembers the
    /// answer for the step. Training walks `Q(s, ·)` in value order down to
    /// the first feasible action: that action is the TD bootstrap of the
    /// pending transition, and finding it shows that some action is
    /// feasible. The greedy choice walks again after the update, which can
    /// move `Q(s, ·)`, and greedy evaluation walks the visited actions
    /// only. The whole mask is completed only for the readers of the whole
    /// feasible set: an exploration draw, the myopic fallback, and
    /// decision telemetry. Every choice is the one a mask filled up front
    /// gives; only the probe count falls.
    fn decide(&mut self, hev: &ParallelHev, obs: &Observation<'_>) -> ControlInput {
        let state = self.encode_state(obs);
        if self.record_stats {
            self.last_decision = None;
        }
        self.scratch.reset(self.config.action.len());
        if matches!(self.config.action, ActionSpace::Full { .. }) {
            let _span = hev_trace::span::enter("control.mask");
            self.fill_full_mask(hev, obs);
        }
        let (scratch, config) = (&mut self.scratch, &self.config);
        let mut feasible = |a| scratch.is_feasible(config, hev, obs, a);
        let action = if self.training {
            let any_feasible = match self.pending {
                // Flush the pending transition now that the successor
                // state is known (Algorithm 1, lines 5–10). Its bootstrap
                // walks `Q(state, ·)` down to the first feasible action,
                // which also shows that one exists; with none, nothing is
                // updated and the transition waits for the next step.
                Some((s, a, r)) => {
                    let _span = hev_trace::span::enter("control.td_update");
                    let delta = self.learner.update(s, a, r, state, &mut feasible);
                    if let Some(delta) = delta {
                        self.pending = None;
                        if self.record_stats {
                            self.td_stats.record(delta);
                        }
                    }
                    delta.is_some()
                }
                None => self.learner.greedy(state, &mut feasible).is_some(),
            };
            if !any_feasible {
                // No discrete action feasible (rare): let the harness fall
                // back; no learning credit this step.
                self.awaiting_reward = None;
                return fallback_control(hev, obs.ctx, obs.dt_s);
            }
            self.learner
                .select(state, &mut feasible, &self.policy, &mut self.rng)
        } else {
            // Evaluation: restrict the greedy choice to actions the agent
            // actually experienced (unvisited entries carry the spuriously
            // attractive initialization). In a never-visited state, act
            // myopically: best instantaneous reward among feasible actions.
            match self.learner.greedy_visited(state, &mut feasible) {
                Some(a) => a,
                None => {
                    if self.record_stats {
                        self.myopic_fallback_steps += 1;
                    }
                    match self.best_myopic_action(hev, obs) {
                        Some(a) => a,
                        None => {
                            self.awaiting_reward = None;
                            return fallback_control(hev, obs.ctx, obs.dt_s);
                        }
                    }
                }
            }
        };
        match self.control_for_action(hev, obs, action) {
            Some(control) => {
                self.awaiting_reward = Some((state, action));
                if self.record_stats {
                    self.last_decision = Some(DecisionInfo {
                        state,
                        feasible: self.complete_mask(hev, obs),
                        action,
                        prediction_w: if self.state_space.has_prediction() {
                            self.predictor.predict()
                        } else {
                            0.0
                        },
                    });
                }
                control
            }
            None => {
                self.awaiting_reward = None;
                fallback_control(hev, obs.ctx, obs.dt_s)
            }
        }
    }

    fn feedback(
        &mut self,
        _hev: &ParallelHev,
        obs: &Observation<'_>,
        _outcome: &StepOutcome,
        reward: f64,
    ) {
        if self.training {
            if let Some((s, a)) = self.awaiting_reward.take() {
                self.pending = Some((s, a, reward));
            }
        }
        // Eq. 12: the predictor learns from the measured demand; its
        // output becomes part of the next step's state.
        self.predictor.observe(obs.demand.power_demand_w);
    }

    fn end_episode(&mut self) {
        if self.training {
            if let Some((s, a, r)) = self.pending.take() {
                // Terminal flush: bootstrap on the last state itself.
                let delta = self.learner.update(s, a, r, s, |_| true);
                if let Some(delta) = delta.filter(|_| self.record_stats) {
                    self.td_stats.record(delta);
                }
            }
            self.policy.end_episode();
        }
        self.pending = None;
        self.awaiting_reward = None;
        self.learner.end_episode();
    }

    fn is_learning(&self) -> bool {
        self.training
    }

    fn set_record_decisions(&mut self, on: bool) {
        self.record_stats = on;
        if !on {
            self.last_decision = None;
        }
    }

    fn last_decision(&self) -> Option<DecisionInfo> {
        self.last_decision
    }

    fn telemetry_snapshot(&self) -> Option<PolicyTelemetry> {
        if !self.record_stats {
            return None;
        }
        Some(PolicyTelemetry {
            epsilon: self.policy.epsilon(),
            td: self.td_stats.clone(),
            q: QStats::from_table(self.learner.q()),
            myopic_fallback_steps: self.myopic_fallback_steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;
    use drive_cycle::ProfileBuilder;
    use hev_model::HevParams;

    fn hev() -> ParallelHev {
        ParallelHev::new(HevParams::default_parallel_hev(), 0.6).unwrap()
    }

    fn tiny_cycle() -> DriveCycle {
        ProfileBuilder::new("tiny")
            .idle(3.0)
            .trip(35.0, 8.0, 12.0, 7.0, 3.0)
            .trip(50.0, 10.0, 15.0, 9.0, 4.0)
            .build()
            .unwrap()
    }

    fn quick_config() -> JointControllerConfig {
        let mut c = JointControllerConfig::proposed();
        // Small spaces for fast tests.
        c.state = StateSpaceConfig {
            power_demand: hev_rl::UniformGrid::new(-30_000.0, 50_000.0, 6),
            speed: hev_rl::UniformGrid::new(0.0, 30.0, 5),
            charge: hev_rl::UniformGrid::new(0.4, 0.8, 5),
            prediction: Some(hev_rl::UniformGrid::new(-15_000.0, 30_000.0, 3)),
        };
        c
    }

    /// The greedy fallback resolving every masked current on its own and
    /// keeping the best reward under strict `>` (first wins); records
    /// each step's action and control.
    struct PerCurrentArgmax {
        config: JointControllerConfig,
        picks: Vec<Option<(usize, ControlInput)>>,
    }

    impl HevPolicy for PerCurrentArgmax {
        fn decide(&mut self, hev: &ParallelHev, obs: &Observation<'_>) -> ControlInput {
            let ActionSpace::Reduced { currents } = &self.config.action else {
                panic!("the reference covers the reduced space");
            };
            let inner = self.config.inner;
            let mut mask = vec![false; currents.len()];
            inner.fill_mask(hev, obs.ctx, currents, obs.dt_s, &mut mask);
            let mut best: Option<(usize, ResolvedAction)> = None;
            for (idx, &i) in currents.iter().enumerate() {
                if !mask[idx] {
                    continue;
                }
                if let Some(r) = inner.resolve_with(hev, obs.ctx, i, obs.dt_s, &self.config.reward)
                {
                    if best.as_ref().is_none_or(|(_, b)| r.reward > b.reward) {
                        best = Some((idx, r));
                    }
                }
            }
            let pick = best.map(|(idx, r)| (idx, r.control));
            self.picks.push(pick);
            pick.map_or_else(|| fallback_control(hev, obs.ctx, obs.dt_s), |(_, c)| c)
        }
    }

    /// A frozen controller that records each step's action and control.
    struct Recorded {
        agent: JointController,
        picks: Vec<Option<(usize, ControlInput)>>,
    }

    impl HevPolicy for Recorded {
        fn decide(&mut self, hev: &ParallelHev, obs: &Observation<'_>) -> ControlInput {
            let control = self.agent.decide(hev, obs);
            let action = self.agent.awaiting_reward.map(|(_, a)| a);
            self.picks.push(action.map(|a| (a, control)));
            control
        }
    }

    #[test]
    fn greedy_fallback_sweep_picks_the_per_current_argmax() {
        // An untrained agent has visited no state, so every greedy step
        // takes the myopic fallback.
        let config = JointControllerConfig::proposed();
        let reward = config.reward;
        let cycle = tiny_cycle();
        let mut agent = JointController::new(config.clone());
        agent.set_training(false);
        let mut swept = Recorded {
            agent,
            picks: Vec::new(),
        };
        let mut hev = hev();
        let snap = hev_trace::evals::count();
        let got = simulate(&mut hev, &cycle, &mut swept, &reward);
        let swept_evals = hev_trace::evals::since(snap);

        let mut reference = PerCurrentArgmax {
            config,
            picks: Vec::new(),
        };
        let mut hev = self::hev();
        let snap = hev_trace::evals::count();
        let want = simulate(&mut hev, &cycle, &mut reference, &reward);
        let reference_evals = hev_trace::evals::since(snap);

        assert_eq!(swept.picks.len(), cycle.len());
        assert!(swept.picks.iter().all(Option::is_some));
        assert_eq!(swept.picks, reference.picks);
        assert_eq!(got.total_reward.to_bits(), want.total_reward.to_bits());
        assert!(
            swept_evals < reference_evals,
            "sweep {swept_evals} evals vs per-current {reference_evals}"
        );
    }

    /// A fresh agent's first decision at a moving cruise step, and its
    /// evals, at exploration rate `epsilon`.
    fn first_decision(epsilon: f64) -> (JointControllerConfig, usize, ControlInput, u64) {
        let mut config = JointControllerConfig::proposed();
        config.epsilon0 = epsilon;
        config.epsilon_floor = 0.0;
        let mut agent = JointController::new(config.clone());
        let hev = hev();
        let demand = hev.demand(15.0, 0.3, 0.0);
        let ctx = hev.step_context(&demand);
        assert!(!ctx.is_stopped());
        let obs = Observation {
            step: 0,
            time_s: 0.0,
            dt_s: 1.0,
            demand: &demand,
            soc: hev.soc(),
            ctx: &ctx,
        };
        agent.begin_episode();
        let snap = hev_trace::evals::count();
        let control = agent.decide(&hev, &obs);
        let evals = hev_trace::evals::since(snap);
        let (_, action) = agent.awaiting_reward.expect("a feasible action");
        (config, action, control, evals)
    }

    /// The evals of masking `currents` and of resolving `currents[action]`
    /// at [`first_decision`]'s step, asserting that resolve picks
    /// `control`.
    fn mask_and_resolve_evals(
        config: &JointControllerConfig,
        currents: &[f64],
        action: usize,
        control: ControlInput,
    ) -> (u64, u64) {
        let hev = hev();
        let ctx = hev.step_context(&hev.demand(15.0, 0.3, 0.0));
        let mut mask = vec![false; currents.len()];
        let snap = hev_trace::evals::count();
        config.inner.fill_mask(&hev, &ctx, currents, 1.0, &mut mask);
        let mask_evals = hev_trace::evals::since(snap);
        let i = config.action.currents()[action];
        let snap = hev_trace::evals::count();
        let resolved = config
            .inner
            .resolve_with(&hev, &ctx, i, 1.0, &config.reward);
        assert_eq!(resolved.map(|r| r.control), Some(control));
        (mask_evals, hev_trace::evals::since(snap))
    }

    #[test]
    fn greedy_step_probes_only_its_top_feasible_action() {
        // An untrained Q row ties every action, so the greedy walk's top
        // action is action 0; when it is feasible, the step probes that
        // one current and resolves it, and no other current is probed.
        let (config, action, control, evals) = first_decision(0.0);
        assert_eq!(action, 0, "the top action must be feasible here");
        let currents = config.action.currents();
        let (probe, resolve) = mask_and_resolve_evals(&config, &currents[..1], action, control);
        assert!(probe > 0 && resolve > 0);
        assert_eq!(evals, probe + resolve);
        let (whole_mask, _) = mask_and_resolve_evals(&config, currents, action, control);
        assert!(probe < whole_mask);
    }

    #[test]
    fn exploration_step_probes_every_current() {
        // An exploration draw chooses uniformly among all feasible
        // actions, so it completes the mask before resolving its pick.
        let (config, action, control, evals) = first_decision(1.0);
        let currents = config.action.currents();
        let (mask, resolve) = mask_and_resolve_evals(&config, currents, action, control);
        assert_eq!(evals, mask + resolve);
    }

    #[test]
    fn metrics_lines_count_myopic_fallback_steps() {
        let config = crate::TelemetryConfig {
            metrics: true,
            trace_sample: None,
        };
        crate::telemetry::begin_task("myopic", config);
        let mut hev = hev();
        let cycle = tiny_cycle();
        let mut agent = JointController::new(quick_config());
        let untrained = agent.evaluate(&mut hev, &cycle);
        agent.train(&mut hev, &cycle, 2);
        let faster = ProfileBuilder::new("faster")
            .trip(60.0, 10.0, 15.0, 9.0, 4.0)
            .build()
            .unwrap();
        agent.evaluate(&mut hev, &faster);
        let run = crate::telemetry::take_task();
        let key = "\"myopic_fallback_steps\":";
        let counts: Vec<usize> = run
            .metrics_lines
            .iter()
            .map(|line| {
                let rest = &line[line.find(key).unwrap() + key.len()..];
                let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap();
                rest[..end].parse().unwrap()
            })
            .collect();
        // Untrained, no state has a visited action: every step falls
        // back. Training never does; a trained agent does on a faster
        // cycle's unvisited states.
        assert_eq!(counts.len(), 4);
        assert_eq!(counts[0], untrained.steps);
        assert_eq!(counts[1..3], [0, 0]);
        assert!(0 < counts[3] && counts[3] < faster.len(), "{counts:?}");
    }

    #[test]
    fn training_improves_charge_corrected_fuel() {
        // Corrected fuel (fuel + the fuel-equivalent of net battery
        // depletion) is the objective the shaped reward encodes; the
        // greedy policy must beat the exploration-heavy early episodes
        // on it.
        use crate::metrics::corrected_fuel_g;
        let mut hev = hev();
        let cycle = tiny_cycle();
        let mut agent = JointController::new(quick_config());
        let learning = agent.train(&mut hev, &cycle, 80);
        let after = agent.evaluate(&mut hev, &cycle);
        let early: f64 = learning[..5].iter().map(corrected_fuel_g).sum::<f64>() / 5.0;
        assert!(
            corrected_fuel_g(&after) < early,
            "greedy {} g did not beat early training {} g",
            corrected_fuel_g(&after),
            early
        );
    }

    #[test]
    fn trained_policy_stays_near_myopic_quality() {
        // An untrained controller evaluates as the myopic inner-opt
        // policy (a strong ECMS-like baseline); training on a tiny state
        // space may not beat it, but must not collapse.
        let mut hev = hev();
        let cycle = tiny_cycle();
        let mut myopic_agent = JointController::new(quick_config());
        let myopic = myopic_agent.evaluate(&mut hev, &cycle);
        let mut agent = JointController::new(quick_config());
        agent.train(&mut hev, &cycle, 80);
        let trained = agent.evaluate(&mut hev, &cycle);
        assert!(
            trained.total_reward > myopic.total_reward * 1.5,
            "trained {} collapsed vs myopic {}",
            trained.total_reward,
            myopic.total_reward
        );
    }

    #[test]
    fn evaluation_is_deterministic() {
        let mut hev = hev();
        let cycle = tiny_cycle();
        let mut agent = JointController::new(quick_config());
        agent.train(&mut hev, &cycle, 10);
        let a = agent.evaluate(&mut hev, &cycle);
        let b = agent.evaluate(&mut hev, &cycle);
        assert_eq!(a.fuel_g, b.fuel_g);
        assert_eq!(a.total_reward, b.total_reward);
    }

    #[test]
    fn epsilon_decays_during_training() {
        let mut hev = hev();
        let cycle = tiny_cycle();
        let mut agent = JointController::new(quick_config());
        let e0 = agent.epsilon();
        agent.train(&mut hev, &cycle, 20);
        assert!(agent.epsilon() < e0);
    }

    #[test]
    fn q_table_gets_visited() {
        let mut hev = hev();
        let cycle = tiny_cycle();
        let mut agent = JointController::new(quick_config());
        agent.train(&mut hev, &cycle, 3);
        assert!(agent.learner().q().coverage() > 10);
    }

    #[test]
    fn full_action_space_also_runs() {
        let mut hev = hev();
        let cycle = tiny_cycle();
        let mut cfg = quick_config();
        cfg.action = ActionSpace::full(5, vec![100.0, 600.0, 1_100.0]);
        let mut agent = JointController::new(cfg);
        agent.train(&mut hev, &cycle, 3);
        let m = agent.evaluate(&mut hev, &cycle);
        assert_eq!(m.steps, cycle.len());
    }

    #[test]
    fn powertrain_only_pins_aux() {
        let mut hev = hev();
        let cycle = tiny_cycle();
        let mut cfg = JointControllerConfig::powertrain_only(600.0);
        cfg.state = quick_config().state;
        cfg.state.prediction = None;
        let mut agent = JointController::new(cfg);
        agent.train(&mut hev, &cycle, 3);
        let m = agent.evaluate(&mut hev, &cycle);
        // With aux pinned at the preferred power, utility is 0 (the peak)
        // every step.
        assert!(m.mean_utility().abs() < 1e-9);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut hev = hev();
        let cycle = tiny_cycle();
        let mut agent = JointController::new(quick_config());
        agent.train(&mut hev, &cycle, 10);
        let expected = agent.evaluate(&mut hev, &cycle);

        let json = serde_json::to_string(&agent.snapshot()).unwrap();
        let snapshot: ControllerSnapshot = serde_json::from_str(&json).unwrap();
        let mut restored = JointController::from_snapshot(snapshot);
        let restored_metrics = restored.evaluate(&mut hev, &cycle);
        assert_eq!(restored_metrics.fuel_g, expected.fuel_g);
        assert_eq!(restored_metrics.total_reward, expected.total_reward);
        assert_eq!(restored.epsilon(), agent.epsilon());
    }

    #[test]
    fn snapshot_with_retired_search_knobs_still_parses() {
        // Snapshots from when the inner search was configurable carry
        // `aux_grid` and `refine_iters`; they load and are ignored.
        let mut hev = hev();
        let mut agent = JointController::new(quick_config());
        agent.train(&mut hev, &tiny_cycle(), 2);
        let snapshot = agent.snapshot();
        let json = serde_json::to_string(&snapshot).unwrap();
        let current = r#""inner":{"fixed_aux_w":null}"#;
        assert!(json.contains(current), "{json}");
        let old = json.replace(
            current,
            r#""inner":{"aux_grid":7,"refine_iters":12,"fixed_aux_w":null}"#,
        );
        let parsed: ControllerSnapshot = serde_json::from_str(&old).unwrap();
        assert_eq!(parsed, snapshot);
    }

    #[test]
    fn restored_controller_keeps_learning() {
        let mut hev = hev();
        let cycle = tiny_cycle();
        let mut agent = JointController::new(quick_config());
        agent.train(&mut hev, &cycle, 5);
        let coverage_before = agent.learner().q().coverage();
        let mut restored = JointController::from_snapshot(agent.snapshot());
        restored.train(&mut hev, &cycle, 10);
        assert!(restored.learner().q().coverage() >= coverage_before);
    }

    #[test]
    fn custom_predictor_is_accepted() {
        use hev_predict::MovingAverage;
        let cfg = quick_config();
        let mut agent = JointController::with_predictor(cfg, MovingAverage::new(5));
        let mut hev = hev();
        let cycle = tiny_cycle();
        agent.train(&mut hev, &cycle, 2);
        let m = agent.evaluate(&mut hev, &cycle);
        assert_eq!(m.steps, cycle.len());
    }
}
