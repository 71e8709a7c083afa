//! `train-eval`: the joint controller's training and evaluation, as the
//! figure and table targets run them.
//!
//! A figure trains each agent for `ExperimentConfig::episodes` (800)
//! episodes, rounds over the cycle's portfolio (the nominal cycle plus
//! seeded jittered replicas, as `CyclePlan`s), then evaluates it
//! greedily once. Set-up builds the portfolios; then, once per run, each
//! of [`AGENTS_PER_CYCLE`] `JointControllerConfig::proposed()` agents
//! per paper cycle is pretrained for all but the last round through the
//! controller's own `train_portfolio_planned` and checkpointed. One
//! repetition restores every agent from its checkpoint, trains the last
//! round, and runs [`EVAL_ROLLOUTS`] greedy rollouts on the nominal plan.
//! A checkpoint resumes training bit for bit, so every repetition does
//! the same work. Training writes the Q-table; evaluation only reads it.
//! Neither touches DP or serving.
//!
//! Every timed episode goes through a [`Timed`] wrapper making the calls
//! the controller's own planned entry points make: set the training
//! flag, reset the charge, `simulate_planned`. Untraced, the wrapper
//! reads the clock once per step; traced, it times each `decide`.

use crate::report::Report;
use crate::reps::{self, Outcome, Reps};
use crate::stats::{median, tail, Tail};
use crate::timing::{Clock, Timed};
use drive_cycle::StandardCycle;
use hev_bench::experiments::{corrected_mpg, fresh_hev, jitter_portfolio, ExperimentConfig};
use hev_control::sim::HevPolicy;
use hev_control::{
    simulate_planned, split_seed, ControlError, ControllerSnapshot, CyclePlan, EpisodeMetrics,
    JointController, JointControllerConfig,
};
use hev_model::ParallelHev;
use std::time::Instant;

/// Greedy evaluation rollouts per agent and repetition.
pub const EVAL_ROLLOUTS: usize = 3;

/// Agents per paper cycle, each with its own exploration seed.
pub const AGENTS_PER_CYCLE: usize = 1;

/// One paper cycle's inputs.
struct Cycle {
    /// The nominal plan first, then the jittered ones.
    plans: Vec<CyclePlan>,
    hev: ParallelHev,
    /// One configuration per agent.
    configs: Vec<JointControllerConfig>,
}

/// The generated inputs of one run.
struct Inputs {
    cycles: Vec<Cycle>,
    cycle_build_s: f64,
    plan_build_s: f64,
    setup_ctx_rebuilds: u64,
}

fn build(seed: u64) -> Inputs {
    let cfg = ExperimentConfig::default();
    let t0 = Instant::now();
    let portfolios: Vec<_> = StandardCycle::paper_set()
        .iter()
        .enumerate()
        .map(|(k, sc)| jitter_portfolio(&sc.cycle(), split_seed(seed, 2 * k as u64), &cfg))
        .collect();
    let cycle_build_s = t0.elapsed().as_secs_f64();
    let rebuilds = hev_trace::evals::ctx_rebuilds();
    let t1 = Instant::now();
    let cycles = portfolios
        .iter()
        .enumerate()
        .map(|(k, portfolio)| {
            let hev = fresh_hev(cfg.initial_soc);
            let plans = portfolio.iter().map(|c| CyclePlan::new(&hev, c)).collect();
            let agent_seed = split_seed(seed, 2 * k as u64 + 1);
            let configs = (0..AGENTS_PER_CYCLE)
                .map(|a| JointControllerConfig {
                    seed: split_seed(agent_seed, a as u64),
                    initial_soc: cfg.initial_soc,
                    ..JointControllerConfig::proposed()
                })
                .collect();
            Cycle {
                plans,
                hev,
                configs,
            }
        })
        .collect();
    Inputs {
        cycles,
        cycle_build_s,
        plan_build_s: t1.elapsed().as_secs_f64(),
        setup_ctx_rebuilds: hev_trace::evals::ctx_rebuilds() - rebuilds,
    }
}

/// Trains every agent for all but the last of a figure's rounds and
/// checkpoints it; per cycle, one checkpoint per agent.
fn pretrain(inputs: &mut Inputs) -> Vec<Vec<ControllerSnapshot>> {
    let episodes = ExperimentConfig::default().episodes;
    inputs
        .cycles
        .iter_mut()
        .map(|cycle| {
            let rounds = (episodes / cycle.plans.len()).max(1) - 1;
            cycle
                .configs
                .iter()
                .map(|config| {
                    let mut agent = JointController::new(config.clone());
                    agent.train_portfolio_planned(&mut cycle.hev, &cycle.plans, rounds);
                    agent.snapshot()
                })
                .collect()
        })
        .collect()
}

/// What one repetition measured.
#[derive(Default)]
struct Rep {
    train_s: f64,
    train_steps: u64,
    eval_s: f64,
    eval_steps: u64,
    /// Untraced: the tail of the training episodes' step-to-step
    /// intervals, µs.
    latency: Option<Tail>,
    /// Traced: `decide` wall times, µs.
    decide_train_us: Vec<f64>,
    decide_eval_us: Vec<f64>,
    train_decide_evals: u64,
    eval_decide_evals: u64,
    episodes: u64,
    failed: u64,
    problems: Vec<String>,
    /// Per agent: charge-corrected MPG of its first greedy rollout.
    mpg: Vec<f64>,
    /// Bit patterns of every episode's result, training and evaluation.
    fingerprints: Vec<[u64; 4]>,
    q_entries: u64,
    q_visited: u64,
}

fn fingerprint(m: &EpisodeMetrics) -> [u64; 4] {
    [
        m.steps as u64,
        m.fuel_g.to_bits(),
        m.total_reward.to_bits(),
        m.soc_final.to_bits(),
    ]
}

impl Rep {
    /// Counts one episode, records its fingerprint, and records why it
    /// failed, if it did.
    fn episode(&mut self, what: &str, m: &EpisodeMetrics, len: usize, err: Option<ControlError>) {
        self.episodes += 1;
        self.fingerprints.push(fingerprint(m));
        let problem = if m.steps != len {
            Some(format!("{what}: {} steps on a {len}-step cycle", m.steps))
        } else if !m.fuel_g.is_finite() {
            Some(format!("{what}: fuel {} is not finite", m.fuel_g))
        } else {
            err.map(|e| format!("{what}: control error {e}"))
        };
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }
}

impl Outcome for Rep {
    fn problems(&self) -> &[String] {
        &self.problems
    }
    fn ops(&self) -> (u64, u64) {
        (self.episodes, self.failed)
    }
    fn same_results(&self, first: &Self) -> bool {
        self.fingerprints == first.fingerprints
    }
    fn busy_s(&self) -> f64 {
        self.train_s + self.eval_s
    }
}

/// One episode through the wrapper, learning when `training` is set and
/// greedy otherwise: the metrics, the wall time, and any control error.
fn episode(
    timed: &mut Timed<'_, JointController>,
    hev: &mut ParallelHev,
    plan: &CyclePlan,
    training: bool,
) -> (EpisodeMetrics, f64, Option<ControlError>) {
    let (initial_soc, reward) = {
        let agent = timed.inner_mut();
        agent.set_training(training);
        (agent.config().initial_soc, agent.config().reward)
    };
    hev.reset_soc(initial_soc);
    let t0 = Instant::now();
    let m = simulate_planned(hev, plan, timed, &reward);
    let wall = t0.elapsed().as_secs_f64();
    timed.inner_mut().set_training(true);
    (m, wall, timed.take_control_error())
}

fn run_rep(inputs: &mut Inputs, snapshots: &[Vec<ControllerSnapshot>], traced: bool) -> Rep {
    let mut rep = Rep::default();
    let clock = if traced {
        Clock::Decide
    } else {
        Clock::Interval(1)
    };
    let mut step_us = Vec::new();
    for (k, (cycle, snapshots)) in inputs.cycles.iter_mut().zip(snapshots).enumerate() {
        for snapshot in snapshots {
            let mut agent = JointController::from_snapshot(snapshot.clone());
            let mut timed = Timed::new(&mut agent, clock);
            for plan in &cycle.plans {
                let (m, wall, err) = episode(&mut timed, &mut cycle.hev, plan, true);
                rep.train_s += wall;
                rep.train_steps += m.steps as u64;
                rep.episode("train", &m, plan.len(), err);
            }
            if traced {
                rep.decide_train_us.append(&mut timed.samples_us);
                rep.train_decide_evals += std::mem::take(&mut timed.decide_evals);
            } else {
                step_us.append(&mut timed.samples_us);
            }

            let nominal = &cycle.plans[0];
            let greedy = rep.fingerprints.len();
            for rollout in 0..EVAL_ROLLOUTS {
                let (m, wall, err) = episode(&mut timed, &mut cycle.hev, nominal, false);
                rep.eval_s += wall;
                rep.eval_steps += m.steps as u64;
                rep.episode("eval", &m, nominal.len(), err);
                if rollout == 0 {
                    rep.mpg.push(corrected_mpg(&m));
                }
            }
            let rollouts = &rep.fingerprints[greedy..];
            if rollouts.iter().any(|f| *f != rollouts[0]) {
                rep.failed += 1;
                rep.problems
                    .push(format!("paper cycle {k}: greedy rollouts disagree"));
            }
            if traced {
                rep.decide_eval_us.append(&mut timed.samples_us);
                rep.eval_decide_evals += timed.decide_evals;
            }

            let q = agent.learner().q();
            rep.q_entries += (q.n_states() * q.n_actions()) as u64;
            rep.q_visited += q.coverage() as u64;
        }
    }
    if !traced {
        match tail(&step_us) {
            Ok(t) => rep.latency = Some(t),
            Err(e) => rep.problems.push(format!("training step latency: {e}")),
        }
    }
    rep
}

/// Runs the workload and fills `report`.
pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let (mut cycle_ms, mut plan_ms) = (Vec::new(), Vec::new());
    let mut setup = || {
        let inputs = build(seed);
        cycle_ms.push(inputs.cycle_build_s * 1e3);
        plan_ms.push(inputs.plan_build_s * 1e3);
        inputs
    };
    let (mut inputs, mut setup_times) = reps::timed_setup(&mut setup);
    let t0 = Instant::now();
    let snapshots = pretrain(&mut inputs);
    let pretrain_s = t0.elapsed().as_secs_f64();
    let reps: Reps<Rep> = reps::repeat(
        seconds,
        trace,
        || drop(reps::setup_sample(&mut setup_times, &mut setup)),
        |traced| run_rep(&mut inputs, &snapshots, traced),
    );
    let counts = reps.finish(report, &setup_times);

    let first = reps.first();
    let plain = reps.timed(false);
    reps.put_rate(report, "work_per_s", |r| (r.train_steps as f64, r.train_s));
    reps.put_rate(report, "replay_per_s", |r| (r.eval_steps as f64, r.eval_s));
    reps.put_latency(
        report,
        &plain.iter().filter_map(|r| r.latency).collect::<Vec<_>>(),
    );
    report.put(
        "quality_mpg",
        first.mpg.iter().sum::<f64>() / first.mpg.len().max(1) as f64,
        first.mpg.len(),
    );

    let agents = inputs.cycles.len() * AGENTS_PER_CYCLE;
    report.put(
        "cycle.build_ms",
        median(&cycle_ms).unwrap_or(0.0),
        cycle_ms.len(),
    );
    report.put(
        "model.plan_build_ms",
        median(&plan_ms).unwrap_or(0.0),
        plan_ms.len(),
    );
    report.put(
        "model.plans",
        inputs.cycles.iter().map(|c| c.plans.len()).sum::<usize>() as f64,
        1,
    );
    report.put(
        "model.setup_ctx_rebuilds",
        inputs.setup_ctx_rebuilds as f64,
        1,
    );
    crate::put_counts(report, &counts);
    report.put("rl.pretrain_s", pretrain_s, agents);
    report.put("rl.q_entries", first.q_entries as f64, agents);
    report.put("rl.q_visited", first.q_visited as f64, agents);
    report.note(format!(
        "train-eval: {} paper cycles x {} plans, {AGENTS_PER_CYCLE} agent(s) per cycle \
         pretrained for {:.1} s; per repetition the last training round and \
         {EVAL_ROLLOUTS} greedy rollouts per agent; {} untraced repetitions",
        inputs.cycles.len(),
        inputs.cycles.first().map_or(0, |c| c.plans.len()),
        pretrain_s,
        plain.len(),
    ));

    if !trace {
        return;
    }
    let traced = reps.timed(true);
    let pooled = |f: &dyn Fn(&Rep) -> &Vec<f64>| -> Vec<f64> {
        traced.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let train_us = pooled(&|r| &r.decide_train_us);
    let eval_us = pooled(&|r| &r.decide_eval_us);
    crate::put_percentile(report, "control.decide_train_us_p50", &train_us, 50.0);
    crate::put_percentile(report, "control.decide_train_us_p99", &train_us, 99.0);
    crate::put_percentile(report, "control.decide_eval_us_p50", &eval_us, 50.0);
    crate::put_percentile(report, "control.decide_eval_us_p99", &eval_us, 99.0);
    let train_evals: u64 = traced.iter().map(|r| r.train_decide_evals).sum();
    let eval_evals: u64 = traced.iter().map(|r| r.eval_decide_evals).sum();
    let decides = train_us.len() + eval_us.len();
    report.put(
        "control.evals_per_decide",
        (train_evals + eval_evals) as f64 / decides.max(1) as f64,
        decides,
    );
    let train_decide_s = train_us.iter().sum::<f64>() * 1e-6;
    let eval_decide_s = eval_us.iter().sum::<f64>() * 1e-6;
    report.put(
        "control.train_ns_per_eval",
        train_decide_s * 1e9 / train_evals.max(1) as f64,
        train_us.len(),
    );
    report.put(
        "control.eval_ns_per_eval",
        eval_decide_s * 1e9 / eval_evals.max(1) as f64,
        eval_us.len(),
    );
    let episode_s: f64 = traced.iter().map(|r| r.busy_s()).sum();
    let steps: u64 = traced.iter().map(|r| r.train_steps + r.eval_steps).sum();
    report.put(
        "sim.step_us",
        (episode_s - train_decide_s - eval_decide_s) * 1e6 / steps.max(1) as f64,
        steps as usize,
    );
}
