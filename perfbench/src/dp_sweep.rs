//! `dp-sweep`: the dynamic-programming reference bound.
//!
//! One repetition runs `solve_dp` with `DpConfig::default()` on a seeded
//! jittered replica of each paper cycle: the context table, the scored
//! backward sweep over (timestep × SOC grid point) cells, winner replay,
//! value-grid interpolation and the solver's own forward pass. Then the
//! benchmark replays the tabulated policy twice through `simulate`: once
//! bare, for the replay rate, and once through a [`Timed`] wrapper that
//! reads the clock every [`CHUNK`] steps, for the step latency. Both
//! replays must reproduce the solver's forward pass bit for bit.
//!
//! The auxiliary power is fixed, so the solver never enters the inner
//! optimizer's refinement, the learner or the predictor. Untraced and
//! traced repetitions do the same work: the solver's phases are not
//! public calls, so there is no finer span to take.

use crate::report::Report;
use crate::reps::{self, Outcome, Reps};
use crate::stats::{median, tail};
use crate::timing::{Clock, Timed};
use drive_cycle::{DriveCycle, StandardCycle};
use hev_bench::experiments::{corrected_mpg, fresh_hev, ExperimentConfig};
use hev_control::{simulate, solve_dp, split_seed, DpConfig, EpisodeMetrics};
use hev_model::ParallelHev;
use std::time::Instant;

/// Policy steps per latency sample. One step takes about 0.3 µs, so a
/// sample spans some 2.5 µs: a hundred times the cost of a clock read
/// (`trace.clock_ns`), yet some 400 samples per repetition.
pub const CHUNK: usize = 8;

struct Inputs {
    cycles: Vec<DriveCycle>,
    hevs: Vec<ParallelHev>,
    config: DpConfig,
    initial_soc: f64,
    cycle_build_s: f64,
}

fn build(seed: u64) -> Inputs {
    let exp = ExperimentConfig::default();
    let t0 = Instant::now();
    let cycles: Vec<DriveCycle> = StandardCycle::paper_set()
        .iter()
        .enumerate()
        .map(|(k, sc)| {
            sc.cycle()
                .perturbed(split_seed(seed, k as u64), exp.train_jitter)
        })
        .collect();
    let cycle_build_s = t0.elapsed().as_secs_f64();
    Inputs {
        hevs: cycles.iter().map(|_| fresh_hev(exp.initial_soc)).collect(),
        cycles,
        config: DpConfig::default(),
        initial_soc: exp.initial_soc,
        cycle_build_s,
    }
}

#[derive(Default)]
struct Rep {
    /// Per cycle: `solve_dp` wall time, s.
    solve_s: Vec<f64>,
    solve_evals: u64,
    cells: u64,
    /// Wall time of the bare policy replays, s.
    replay_s: f64,
    replay_steps: u64,
    /// Per-step times of the chunked replays, µs per step.
    step_us: Vec<f64>,
    ops: u64,
    failed: u64,
    problems: Vec<String>,
    mpg: Vec<f64>,
    /// Per cycle: expected reward and forward-pass result bit patterns.
    fingerprints: Vec<[u64; 5]>,
}

fn fingerprint(expected_reward: f64, m: &EpisodeMetrics) -> [u64; 5] {
    [
        expected_reward.to_bits(),
        m.steps as u64,
        m.fuel_g.to_bits(),
        m.total_reward.to_bits(),
        m.soc_final.to_bits(),
    ]
}

impl Rep {
    fn op(&mut self, problem: Option<String>) {
        self.ops += 1;
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
        (self.ops, self.failed)
    }
    fn same_results(&self, first: &Self) -> bool {
        self.fingerprints == first.fingerprints
    }
    fn busy_s(&self) -> f64 {
        self.solve_s.iter().sum::<f64>() + self.replay_s
    }
}

fn run_rep(inputs: &mut Inputs) -> Rep {
    let mut rep = Rep::default();
    for (cycle, hev) in inputs.cycles.iter().zip(inputs.hevs.iter_mut()) {
        let evals = hev_trace::evals::count();
        let t0 = Instant::now();
        let sol = solve_dp(hev, cycle, inputs.initial_soc, &inputs.config);
        rep.solve_s.push(t0.elapsed().as_secs_f64());
        rep.solve_evals += hev_trace::evals::since(evals);
        rep.cells += (cycle.len() * inputs.config.soc_points) as u64;
        let m = &sol.metrics;
        rep.op(if m.steps != cycle.len() {
            Some(format!(
                "{}: DP forward pass ran {} of {} steps",
                cycle.name(),
                m.steps,
                cycle.len()
            ))
        } else if !(m.fuel_g.is_finite() && sol.expected_reward.is_finite()) {
            Some(format!(
                "{}: DP fuel {} or value {} is not finite",
                cycle.name(),
                m.fuel_g,
                sol.expected_reward
            ))
        } else {
            None
        });
        rep.mpg.push(corrected_mpg(m));
        let expected = fingerprint(sol.expected_reward, m);
        rep.fingerprints.push(expected);

        let mut policy = sol.policy.clone();
        hev.reset_soc(inputs.initial_soc);
        let t0 = Instant::now();
        let bare = simulate(hev, cycle, &mut policy, &inputs.config.reward);
        rep.replay_s += t0.elapsed().as_secs_f64();
        rep.replay_steps += bare.steps as u64;

        let mut policy = sol.policy.clone();
        let mut timed = Timed::new(&mut policy, Clock::Interval(CHUNK));
        hev.reset_soc(inputs.initial_soc);
        let chunked = simulate(hev, cycle, &mut timed, &inputs.config.reward);
        rep.step_us.append(&mut timed.samples_us);
        for (what, replayed) in [("bare", &bare), ("chunk-timed", &chunked)] {
            rep.op(
                (fingerprint(sol.expected_reward, replayed) != expected).then(|| {
                    format!(
                        "{}: the {what} replay of the DP policy does not reproduce its forward pass",
                        cycle.name()
                    )
                }),
            );
        }
    }
    rep
}

/// Runs the workload and fills `report`.
pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let mut cycle_ms = Vec::new();
    let mut setup = || {
        let inputs = build(seed);
        cycle_ms.push(inputs.cycle_build_s * 1e3);
        inputs
    };
    let (mut inputs, mut setup_times) = reps::timed_setup(&mut setup);
    let reps: Reps<Rep> = reps::repeat(
        seconds,
        trace,
        || drop(reps::setup_sample(&mut setup_times, &mut setup)),
        |_| run_rep(&mut inputs),
    );
    let counts = reps.finish(report, &setup_times);

    let plain = reps.timed(false);
    reps.put_rate(report, "work_per_s", |r| {
        (r.cells as f64, r.solve_s.iter().sum())
    });
    reps.put_rate(report, "replay_per_s", |r| {
        (r.replay_steps as f64, r.replay_s)
    });
    let pooled: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.step_us.iter().copied())
        .collect();
    match tail(&pooled) {
        Ok(t) => reps.put_latency(report, &[t]),
        Err(e) => report.check(false, || format!("policy step latency: {e}")),
    }
    let first = reps.first();
    report.put(
        "quality_mpg",
        first.mpg.iter().sum::<f64>() / first.mpg.len().max(1) as f64,
        first.mpg.len(),
    );

    report.put(
        "cycle.build_ms",
        median(&cycle_ms).unwrap_or(0.0),
        cycle_ms.len(),
    );
    crate::put_counts(report, &counts);
    report.put("dp.cells", first.cells as f64, 1);
    report.put(
        "dp.evals_per_cell",
        first.solve_evals as f64 / first.cells.max(1) as f64,
        first.cells as usize,
    );
    let cycles = inputs.cycles.len();
    let solve_ms: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.solve_s.iter().map(|s| s * 1e3))
        .collect();
    report.put(
        "dp.solve_ms",
        median(&solve_ms).unwrap_or(0.0),
        solve_ms.len(),
    );
    let per_rep = |f: &dyn Fn(&Rep) -> f64| {
        median(&plain.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    report.put(
        "dp.ns_per_eval",
        per_rep(&|r| r.solve_s.iter().sum::<f64>() * 1e9 / r.solve_evals.max(1) as f64),
        plain.len(),
    );
    report.put(
        "dp.forward_us",
        per_rep(&|r| r.replay_s * 1e6 / r.replay_steps.max(1) as f64),
        plain.len(),
    );
    report.note(format!(
        "dp-sweep: {cycles} jittered paper cycles, {} SOC grid points, {} currents; {} untraced \
         repetitions; latency is per policy step, timed over {CHUNK}-step chunks",
        inputs.config.soc_points,
        inputs.config.currents.len(),
        plain.len()
    ));
}
