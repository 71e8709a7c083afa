//! `serve-fleet`: the fleet control service, two ways.
//!
//! Set-up generates a seeded clean fleet (`hev_serve::fleet`, no chaos;
//! request budgets cycle across every ladder rung) and builds one
//! `Session` per vehicle for the replay. One repetition then
//!
//! * answers the whole request stream through `serve()` at one shard,
//!   as an offline batch (throughput, dispatch included), and
//! * replays the same stream through `Session::process` as one
//!   closed-loop client: each request is sent when the previous answer
//!   is back, and timed on its own (latency, no dispatch).
//!
//! Both paths decide with the plant model and the inner optimizer only —
//! no learning, no cycle plan — rebuilding the step context per request.
//!
//! The quality of the served decisions is the fleet's charge-corrected
//! MPG: after the clocks stop, every served control is stepped once more
//! on a nominal vehicle at the session's charge before the request, and
//! fuel, distance and charge change are summed over the stream.

use crate::report::{Report, RUNGS};
use crate::reps::{self, Outcome, Reps};
use crate::stats::{median, tail, Tail};
use hev_bench::experiments::{corrected_mpg, fresh_hev};
use hev_control::EpisodeMetrics;
use hev_model::ControlInput;
use hev_serve::fleet::{build_requests, build_sessions};
use hev_serve::{
    serve, FleetConfig, Request, RequestError, ServeConfig, Session, SessionSpec, Verdict,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Vehicle sessions in the fleet.
pub const SESSIONS: usize = 256;

/// Requests in the stream.
pub const REQUESTS: usize = 16384;

struct Inputs {
    config: ServeConfig,
    specs: Vec<SessionSpec>,
    requests: Vec<Request>,
    /// Fresh sessions for the replay, cloned per repetition.
    sessions: BTreeMap<u64, Session>,
    session_new_us: Vec<f64>,
}

fn build(seed: u64) -> Result<Inputs, String> {
    let fleet = FleetConfig {
        sessions: SESSIONS,
        requests: REQUESTS,
        seed,
        chaos: false,
    };
    let specs = build_sessions(&fleet);
    let requests = build_requests(&fleet, specs.len() as u64);
    let mut sessions = BTreeMap::new();
    let mut session_new_us = Vec::with_capacity(specs.len());
    for spec in &specs {
        let t0 = Instant::now();
        let session = Session::new(*spec, 0).map_err(|e| format!("session {}: {e}", spec.id))?;
        session_new_us.push(t0.elapsed().as_secs_f64() * 1e6);
        sessions.insert(spec.id, session);
    }
    Ok(Inputs {
        config: ServeConfig::default(),
        specs,
        requests,
        sessions,
        session_new_us,
    })
}

#[derive(Default)]
struct Rep {
    serve_s: f64,
    /// Σ wall time of the replay's `Session::process` calls.
    replay_s: f64,
    /// Untraced: the tail of the per-request latencies, µs.
    latency: Option<Tail>,
    /// Traced: per request, wall time of `Session::process`, µs.
    latency_us: Vec<f64>,
    served: u64,
    refused: u64,
    shed: u64,
    ops: u64,
    failed: u64,
    problems: Vec<String>,
    /// FNV-1a of `serve()`'s response stream.
    stream_hash: u64,
    /// Traced: per request, the final rung index (4 = not served).
    final_rung: Vec<usize>,
    /// Traced: per request, evals counted during `process`.
    request_evals: Vec<u64>,
    /// Traced: evals on rungs the ladder walked past.
    wasted_evals: u64,
    /// Traced: evals the trails account for.
    trail_evals: u64,
    /// First repetition only: per served request, its index, the
    /// session's charge before it, and the served control.
    served_steps: Vec<(usize, f64, ControlInput)>,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

impl Rep {
    fn problem(&mut self, p: String) {
        self.failed += 1;
        self.problems.push(p);
    }
}

impl Outcome for Rep {
    fn problems(&self) -> &[String] {
        &self.problems
    }
    fn ops(&self) -> (u64, u64) {
        (self.ops, self.failed)
    }
    /// Answers `Served`; `unsteppable` refusals are neither.
    fn succeeded(&self) -> u64 {
        self.served
    }
    fn same_results(&self, first: &Self) -> bool {
        self.stream_hash == first.stream_hash
    }
    fn busy_s(&self) -> f64 {
        self.serve_s + self.replay_s
    }
}

/// Charge-corrected MPG of the served controls, each stepped on a
/// nominal vehicle at the session's charge before the request, and how
/// many of them that vehicle could step.
fn fleet_mpg(inputs: &Inputs, served: &[(usize, f64, ControlInput)]) -> (f64, usize) {
    let dt = inputs.config.ladder.reward.dt_s;
    let mut hev = fresh_hev(0.6);
    let mut total = EpisodeMetrics {
        steps: 0,
        fuel_g: 0.0,
        distance_m: 0.0,
        total_reward: 0.0,
        utility_sum: 0.0,
        soc_initial: 0.0,
        soc_final: 0.0,
        mode_counts: [0; 7],
        fallback_steps: 0,
        trace_miss_steps: 0,
        degradation: None,
    };
    for &(i, soc, control) in served {
        let req = &inputs.requests[i];
        hev.reset_soc(soc);
        let demand = hev.demand(req.speed_mps, req.accel_mps2, req.grade);
        if let Ok(out) = hev.peek(&demand, &control, dt) {
            total.steps += 1;
            total.fuel_g += out.fuel_g;
            total.distance_m += req.speed_mps * dt;
            total.soc_final += out.soc_after - out.soc_before;
        }
    }
    (corrected_mpg(&total), total.steps)
}

/// One repetition; `keep_steps` keeps the served controls for
/// `quality_mpg` (only the first repetition needs them).
fn run_rep(inputs: &Inputs, traced: bool, keep_steps: bool) -> Rep {
    let mut rep = Rep::default();
    let n = inputs.requests.len();
    let t0 = Instant::now();
    let output = serve(&inputs.config, &inputs.specs, &inputs.requests);
    rep.serve_s = t0.elapsed().as_secs_f64();
    let output = match output {
        Ok(o) => o,
        Err(e) => {
            rep.ops += n as u64;
            rep.problem(format!("serve() refused the fleet: {e}"));
            return rep;
        }
    };
    rep.stream_hash = fnv1a(output.response_stream().as_bytes());
    if output.responses.len() != n {
        rep.problem(format!(
            "serve() answered {} of {n} requests",
            output.responses.len()
        ));
    }

    let mut sessions = inputs.sessions.clone();
    let ladder = &inputs.config.ladder;
    rep.latency_us.reserve(n);
    let mut verdicts = Vec::with_capacity(n);
    for (i, req) in inputs.requests.iter().enumerate() {
        let Some(session) = sessions.get_mut(&req.session) else {
            verdicts.push(Verdict::Error(RequestError::UnknownSession));
            rep.latency_us.push(0.0);
            continue;
        };
        let soc = session.soc();
        let evals = hev_trace::evals::count();
        let t0 = Instant::now();
        let verdict = session.process(req, ladder);
        rep.latency_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if let (true, Verdict::Served { control, .. }) = (keep_steps, verdict) {
            rep.served_steps.push((i, soc, control));
        }
        if traced {
            rep.request_evals.push(hev_trace::evals::since(evals));
            let trail = session.last_trail();
            let spent: u64 = trail.iter().map(|(_, e)| e).sum();
            rep.trail_evals += spent;
            if let Verdict::Served { rung, .. } = verdict {
                rep.final_rung.push(rung.index());
                rep.wasted_evals += trail
                    .iter()
                    .filter(|(r, _)| *r != rung)
                    .map(|(_, e)| e)
                    .sum::<u64>();
            } else {
                rep.final_rung.push(RUNGS.len());
                rep.wasted_evals += spent;
            }
        }
        verdicts.push(verdict);
    }
    rep.replay_s = rep.latency_us.iter().sum::<f64>() * 1e-6;
    if !traced {
        match tail(&rep.latency_us) {
            Ok(t) => rep.latency = Some(t),
            Err(e) => rep.problem(format!("request latency: {e}")),
        }
        rep.latency_us = Vec::new();
    }

    // Both answers to every request, checked after the clocks stop.
    for (i, (req, verdict)) in inputs.requests.iter().zip(&verdicts).enumerate() {
        rep.ops += 2;
        let Some(resp) = output.responses.get(i) else {
            rep.problem(format!("request {i}: no serve() response"));
            continue;
        };
        if resp.index != req.index || resp.session != req.session || resp.verdict != *verdict {
            rep.problem(format!(
                "request {i}: serve() answered {:?}, the replay {verdict:?}",
                resp.verdict
            ));
            continue;
        }
        match verdict {
            Verdict::Served { control, .. } if control.is_finite() => rep.served += 2,
            Verdict::Served { control, .. } => rep.problem(format!(
                "request {i}: served a non-finite control {control:?}"
            )),
            Verdict::Error(RequestError::Unsteppable) => rep.refused += 2,
            Verdict::Shed { .. } => {
                rep.shed += 2;
                rep.problem(format!("request {i}: shed by a clean fleet"));
            }
            Verdict::Error(e) => rep.problem(format!("request {i}: error {e} on a clean fleet")),
        }
    }
    rep
}

/// Runs the workload and fills `report`.
pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let (inputs, mut setup_times) = reps::timed_setup(|| build(seed));
    let inputs = match inputs {
        Ok(i) => i,
        Err(e) => {
            report.check(false, || format!("fleet set-up failed: {e}"));
            return;
        }
    };
    let mut first = true;
    let reps: Reps<Rep> = reps::repeat(
        seconds,
        trace,
        || drop(reps::setup_sample(&mut setup_times, || build(seed))),
        |traced| {
            let rep = run_rep(&inputs, traced, first);
            first = false;
            rep
        },
    );
    let counts = reps.finish(report, &setup_times);

    let first = reps.first();
    let plain = reps.timed(false);
    let requests = inputs.requests.len() as f64;
    reps.put_rate(report, "work_per_s", |r| (requests, r.serve_s));
    reps.put_rate(report, "replay_per_s", |r| (requests, r.replay_s));
    reps.put_latency(
        report,
        &plain.iter().filter_map(|r| r.latency).collect::<Vec<_>>(),
    );
    let (mpg, stepped) = fleet_mpg(&inputs, &first.served_steps);
    report.put("quality_mpg", mpg, stepped);

    crate::put_counts(report, &counts);
    report.put("serve.requests", requests, 1);
    report.put(
        "serve.session_new_us",
        median(&inputs.session_new_us).unwrap_or(0.0),
        inputs.session_new_us.len(),
    );
    report.put("serve.shed", first.shed as f64 / 2.0, 1);
    report.put("serve.errors", first.refused as f64 / 2.0, 1);
    report.note(format!(
        "serve-fleet: {} sessions, {} requests, 1 shard, 1 closed-loop client; {} untraced \
         repetitions; {} of {} answers refused as unsteppable; quality_mpg over {stepped} of {} \
         served controls the nominal vehicle can step",
        inputs.specs.len(),
        inputs.requests.len(),
        plain.len(),
        first.refused / 2,
        inputs.requests.len(),
        first.served_steps.len(),
    ));

    if !trace {
        return;
    }
    let traced = reps.timed(true);
    report.put(
        "serve.call_s",
        median(&traced.iter().map(|r| r.serve_s).collect::<Vec<_>>()).unwrap_or(0.0),
        traced.len(),
    );
    report.put(
        "serve.dispatch_share",
        median(
            &traced
                .iter()
                .map(|r| 1.0 - r.replay_s / r.serve_s)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0),
        traced.len(),
    );
    let evals: u64 = traced.iter().flat_map(|r| r.request_evals.iter()).sum();
    let total_us: f64 = traced.iter().flat_map(|r| r.latency_us.iter()).sum();
    let calls = traced.iter().map(|r| r.latency_us.len()).sum::<usize>();
    report.put(
        "serve.evals_per_request",
        evals as f64 / calls.max(1) as f64,
        calls,
    );
    report.put(
        "serve.ns_per_eval",
        total_us * 1e3 / evals.max(1) as f64,
        calls,
    );
    let trail: u64 = traced.iter().map(|r| r.trail_evals).sum();
    let wasted: u64 = traced.iter().map(|r| r.wasted_evals).sum();
    report.put(
        "serve.wasted_eval_share",
        wasted as f64 / trail.max(1) as f64,
        calls,
    );
    let served_calls = traced
        .iter()
        .flat_map(|r| r.final_rung.iter())
        .filter(|&&k| k < RUNGS.len())
        .count();
    for (k, rung) in RUNGS.iter().enumerate() {
        let mut us = Vec::new();
        let mut rung_evals = 0u64;
        for r in &traced {
            for ((&f, &lat), &e) in r.final_rung.iter().zip(&r.latency_us).zip(&r.request_evals) {
                if f == k {
                    us.push(lat);
                    rung_evals += e;
                }
            }
        }
        crate::put_percentile(report, &format!("serve.rung_us_p50.{rung}"), &us, 50.0);
        crate::put_percentile(report, &format!("serve.rung_us_p99.{rung}"), &us, 99.0);
        report.put(
            &format!("serve.rung_share.{rung}"),
            us.len() as f64 / served_calls.max(1) as f64,
            served_calls,
        );
        report.put(
            &format!("serve.rung_ns_per_eval.{rung}"),
            us.iter().sum::<f64>() * 1e3 / rung_evals.max(1) as f64,
            us.len(),
        );
    }
}
