//! The service loop: bounded admission, sharded execution, and crash
//! quarantine.
//!
//! Requests are consumed in ticks of [`ServeConfig::tick_requests`].
//! Each tick runs three sequential-parallel-sequential stages:
//!
//! 1. **Admission (sequential)** — requests are routed to per-session
//!    queues bounded by [`ServeConfig::queue_capacity`]; an unknown
//!    session id is answered immediately with a typed error and a full
//!    queue sheds the request with an explicit backpressure verdict.
//!    Both decisions depend only on queue depth and request order.
//! 2. **Execution (parallel)** — each session's queue is one task for
//!    `run_indexed_caught` over [`ServeConfig::shards`] workers. The
//!    task's content (session state + queued requests) is independent
//!    of the shard count, and eval budgets are differenced inside the
//!    task, so responses are byte-identical at any shard count.
//! 3. **Scatter & quarantine (sequential)** — verdicts land in the slot
//!    of their request's stream position (never a client-supplied
//!    field, so a hostile index cannot address memory). A panicked task
//!    quarantines its session: the queued requests are dumped as one
//!    [`flight_dump`] line, the session is rebuilt with a retry-tagged
//!    reseed (advancing its epoch), and the whole queue is replayed
//!    sequentially with per-request crash isolation — a request that
//!    panics the reseeded session too is answered
//!    [`RequestError::SessionCrashed`] and the session reseeds again.
//!    The shard never stops serving and every request gets exactly one
//!    response.
//!
//! Every stage answers through one slot store (`Answers::answer`), so
//! the response stream is the service's one record: the per-session
//! rows in [`ServeOutput::stats`] and the whole-stream
//! [`ServeOutput::totals`] are folded from it once it is complete. Only
//! quarantines are counted while serving, since a reseed's attempt
//! number needs them.

use crate::session::{Session, SessionSpec};
use crate::wire::{Request, RequestError, Response, Rung, Verdict};
use hev_control::harness::{run_indexed_caught, RunOutcome};
use hev_control::LadderConfig;
use hev_model::ParamError;
use hev_trace::json::Obj;
use hev_trace::{flight_dump, span, MetricsRegistry, SpanTree};
use std::collections::BTreeMap;

/// Service tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Worker threads the per-tick session batches fan out over.
    pub shards: usize,
    /// Bounded per-session admission queue depth; a request arriving at
    /// a full queue is shed.
    pub queue_capacity: usize,
    /// Requests consumed per tick.
    pub tick_requests: usize,
    /// The degradation chain every session walks (the serve ladder,
    /// [`LadderConfig::default`]).
    pub ladder: LadderConfig,
    /// Span-profile the request lifecycle: collects a merged span tree
    /// (admission, ladder rungs, quarantine) plus one causal trace line
    /// per request. Off by default — serving is then span-free and the
    /// response stream is byte-identical to an unprofiled build.
    pub profile: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            // A tick admits ~2 requests per session of the default
            // 8-session fleet, well under the queue bound: an evenly
            // loaded fleet sheds nothing, and shedding appears only
            // under chaos-mode bursts (16+ consecutive requests at one
            // hot session within a tick).
            queue_capacity: 8,
            tick_requests: 16,
            ladder: LadderConfig::default(),
            profile: false,
        }
    }
}

/// Serving statistics over a set of responses: one session's (the
/// degradation report's rows) or the whole stream's
/// ([`ServeOutput::totals`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Requests answered (served, shed or errored).
    pub requests: u64,
    /// Requests served with a control.
    pub served: u64,
    /// Requests shed by backpressure.
    pub shed: u64,
    /// Requests answered with a typed error (including unknown ids).
    pub errors: u64,
    /// Served-request counts per ladder rung (full, myopic, rule,
    /// limp-home).
    pub rungs: [u64; 4],
    /// Times a session was quarantined and reseeded.
    pub quarantines: u64,
    /// Requests answered `session_crashed` (panicked twice).
    pub crashed: u64,
}

impl SessionStats {
    fn record(&mut self, verdict: &Verdict) {
        self.requests += 1;
        match verdict {
            Verdict::Served { rung, .. } => {
                self.served += 1;
                // hevlint::allow(panic::reachable-from-serve, Rung::index() is 0..4 by construction into a [u64; 4])
                self.rungs[rung.index()] += 1;
            }
            Verdict::Shed { .. } => self.shed += 1,
            Verdict::Error(RequestError::SessionCrashed) => {
                self.errors += 1;
                self.crashed += 1;
            }
            Verdict::Error(_) => self.errors += 1,
        }
    }
}

/// Everything one [`serve`] call produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutput {
    /// One response per request, in request stream order.
    pub responses: Vec<Response>,
    /// Per-session statistics, in session-id order, folded from
    /// `responses` (quarantines are counted while serving).
    pub stats: BTreeMap<u64, SessionStats>,
    /// Flight dumps and quarantine events, in occurrence order
    /// (deterministic: quarantines are scattered sequentially).
    pub flight_dumps: Vec<String>,
    /// Merged span tree of the whole serve call (empty unless
    /// [`ServeConfig::profile`] is set). Per-task trees merge
    /// commutatively, so the tree is byte-identical at any shard count.
    pub span_tree: SpanTree,
    /// One causal trace JSONL line per request, in stream order (empty
    /// unless [`ServeConfig::profile`] is set). The trace id is the
    /// request's stream slot — never a client-supplied field.
    pub request_traces: Vec<String>,
}

impl ServeOutput {
    /// The deterministic response stream: one JSON line per request, in
    /// stream order, newline-terminated.
    pub fn response_stream(&self) -> String {
        let mut out = String::new();
        for r in &self.responses {
            out.push_str(&r.to_jsonl());
            out.push('\n');
        }
        out
    }

    /// The whole-stream fold: every response's disposition, with
    /// answers to unknown session ids counted as errors, plus the
    /// sessions' quarantines.
    pub fn totals(&self) -> SessionStats {
        let mut totals = SessionStats::default();
        for r in &self.responses {
            totals.record(&r.verdict);
        }
        totals.quarantines = self.stats.values().map(|s| s.quarantines).sum();
        totals
    }

    /// Requests answered [`RequestError::UnknownSession`].
    pub fn unknown_session(&self) -> u64 {
        self.responses
            .iter()
            .filter(|r| r.verdict == Verdict::Error(RequestError::UnknownSession))
            .count() as u64
    }

    /// Eval counts of every served request, in response order.
    pub fn served_evals(&self) -> Vec<u64> {
        self.responses
            .iter()
            .filter_map(|r| match r.verdict {
                Verdict::Served { evals, .. } => Some(evals),
                _ => None,
            })
            .collect()
    }

    /// Registers the serve counters and the eval-budget histogram in a
    /// metrics registry (Prometheus exposition comes with it).
    pub fn record_metrics(&self, registry: &mut MetricsRegistry) {
        let totals = self.totals();
        registry.counter_add("serve.requests", totals.requests);
        registry.counter_add("serve.served", totals.served);
        registry.counter_add("serve.shed", totals.shed);
        registry.counter_add("serve.errors", totals.errors);
        registry.counter_add("serve.unknown_session", self.unknown_session());
        registry.counter_add("serve.quarantines", totals.quarantines);
        registry.counter_add("serve.crashed_requests", totals.crashed);
        for (rung, count) in [Rung::Full, Rung::Myopic, Rung::Rule, Rung::LimpHome]
            .iter()
            .zip(totals.rungs.iter())
        {
            registry.counter_add(&format!("serve.rung.{}", rung.name()), *count);
        }
        const BOUNDS: [f64; 7] = [100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0];
        for evals in self.served_evals() {
            registry.histogram_observe("serve.request_evals", &BOUNDS, evals as f64);
        }
        // Per-rung occupancy and shed depth, as histograms: where served
        // requests landed on the ladder (and what each rung cost), and
        // how deep the queue was when backpressure shed.
        for r in &self.responses {
            match &r.verdict {
                Verdict::Served { rung, evals, .. } => {
                    registry.histogram_observe(
                        &format!("serve.rung_evals.{}", rung.name()),
                        &BOUNDS,
                        *evals as f64,
                    );
                }
                Verdict::Shed { depth } => {
                    registry.histogram_observe(
                        "serve.shed_depth",
                        &crate::report::SHED_DEPTH_BOUNDS,
                        *depth as f64,
                    );
                }
                Verdict::Error(_) => {}
            }
        }
        // The span tree's per-phase eval histograms (empty unless the
        // serve call was profiled).
        if !self.span_tree.is_empty() {
            self.span_tree.populate_registry(registry, "serve.span.");
        }
    }
}

/// Encodes a request for a flight-recorder dump.
fn request_event(req: &Request) -> String {
    Obj::new()
        .str("event", "queued_request")
        .u64("index", req.index)
        .u64("session", req.session)
        .u64("epoch", req.epoch)
        .f64("soc", req.soc)
        .f64("speed_mps", req.speed_mps)
        .f64("accel_mps2", req.accel_mps2)
        .f64("grade", req.grade)
        .u64("budget_evals", req.budget_evals)
        .bool("crash", req.crash)
        .finish()
}

/// One session's tick batch: the session id, the session itself
/// (removed from the table for the duration of the fan-out), and its
/// admitted `(slot, request)` queue.
type SessionBatch = (u64, Session, Vec<(usize, Request)>);

/// The response slots of one [`serve`] call, addressed by stream
/// position (never by a client-supplied field, so a hostile index
/// cannot address memory), plus one causal trace line per slot when
/// profiling.
struct Answers {
    responses: Vec<Option<Response>>,
    /// Empty unless profiling.
    traces: Vec<Option<String>>,
}

impl Answers {
    fn new(requests: usize, profile: bool) -> Self {
        Self {
            responses: vec![None; requests],
            traces: vec![None; if profile { requests } else { 0 }],
        }
    }

    /// Answers the request at stream slot `slot`: stores its response
    /// and, when profiling, its trace line — admission (`queued` = queue
    /// depth at enqueue), the ladder walk (`trail`, empty for requests
    /// that never reached it), and the outcome; the trace id is the
    /// slot. `get_mut` keeps the path panic-free; a hole left by an
    /// out-of-range slot would still be caught by the final
    /// every-request-answered check.
    #[allow(clippy::too_many_arguments)]
    fn answer(
        &mut self,
        slot: usize,
        session: u64,
        index: u64,
        queued: usize,
        verdict: Verdict,
        trail: &[(Rung, u64)],
        quarantined: bool,
    ) {
        if let Some(t) = self.traces.get_mut(slot) {
            let mut obj = Obj::new()
                .u64("trace", slot as u64)
                .u64("session", session)
                .u64("request", index)
                .u64("queued", queued as u64);
            match &verdict {
                Verdict::Served { rung, evals, .. } => {
                    obj = obj
                        .str("outcome", "served")
                        .str("rung", rung.name())
                        .u64("evals", *evals);
                }
                Verdict::Shed { depth } => {
                    obj = obj.str("outcome", "shed").u64("depth", *depth as u64);
                }
                Verdict::Error(err) => {
                    obj = obj.str("outcome", "error").str("error", err.code());
                }
            }
            if quarantined {
                obj = obj.bool("quarantined", true);
            }
            let rungs: Vec<String> = trail
                .iter()
                .map(|(rung, evals)| {
                    Obj::new()
                        .str("rung", rung.name())
                        .u64("evals", *evals)
                        .finish()
                })
                .collect();
            *t = Some(
                obj.raw_seq("trail", rungs.iter().map(String::as_str))
                    .finish(),
            );
        }
        if let Some(r) = self.responses.get_mut(slot) {
            *r = Some(Response {
                index,
                session,
                verdict,
            });
        }
    }
}

/// Serves `requests` (in order) against the fleet described by
/// `sessions`, returning one response per request plus per-session
/// degradation statistics. See the module docs for the tick pipeline
/// and the determinism argument. `Err` only on an invalid session spec
/// (a service-configuration error, not a request-reachable state).
pub fn serve(
    config: &ServeConfig,
    sessions: &[SessionSpec],
    requests: &[Request],
) -> Result<ServeOutput, ParamError> {
    let mut table: BTreeMap<u64, Session> = BTreeMap::new();
    let mut specs: BTreeMap<u64, SessionSpec> = BTreeMap::new();
    let mut stats: BTreeMap<u64, SessionStats> = BTreeMap::new();
    for spec in sessions {
        table.insert(spec.id, Session::new(*spec, 0)?);
        specs.insert(spec.id, *spec);
        stats.insert(spec.id, SessionStats::default());
    }

    let profile = config.profile;
    let mut answers = Answers::new(requests.len(), profile);
    let mut flight_dumps = Vec::new();
    let mut span_tree = SpanTree::default();
    // Partial span trees salvaged from crashed tasks (see the execution
    // closure); a Mutex because workers may crash concurrently, merged
    // once at the end — merge order is irrelevant (commutative).
    let salvaged: std::sync::Mutex<SpanTree> = std::sync::Mutex::new(SpanTree::default());
    let tick = config.tick_requests.max(1);

    for (tick_index, chunk) in requests.chunks(tick).enumerate() {
        // Stage 1: sequential admission into bounded per-session queues.
        // When profiling, admission is its own caller-thread span window
        // (execution tasks open their own windows, inline at shards == 1,
        // so the stages never share one).
        if profile {
            span::begin_task();
        }
        let mut queues: BTreeMap<u64, Vec<(usize, Request)>> = BTreeMap::new();
        {
            let _admission = span::enter("serve.admission");
            for (offset, req) in chunk.iter().enumerate() {
                let slot = tick_index * tick + offset;
                let (queued, verdict) = if table.contains_key(&req.session) {
                    let queue = queues.entry(req.session).or_default();
                    if queue.len() < config.queue_capacity {
                        queue.push((slot, *req));
                        continue;
                    }
                    (queue.len(), Verdict::Shed { depth: queue.len() })
                } else {
                    (0, Verdict::Error(RequestError::UnknownSession))
                };
                answers.answer(slot, req.session, req.index, queued, verdict, &[], false);
            }
        }
        if profile {
            span_tree.merge(&span::take_tree());
        }

        // Stage 2: one task per session queue, fanned over the shards.
        // Queue contents are retained on the caller side so a panicked
        // task's requests can be replayed after the quarantine reseed.
        let mut batch: Vec<SessionBatch> = Vec::with_capacity(queues.len());
        let mut retained: Vec<(u64, Vec<(usize, Request)>)> = Vec::with_capacity(queues.len());
        for (id, reqs) in queues {
            if let Some(session) = table.remove(&id) {
                retained.push((id, reqs.clone()));
                batch.push((id, session, reqs));
            }
        }
        let ladder = &config.ladder;
        let outcomes = run_indexed_caught(config.shards, batch, |_, (id, mut session, reqs)| {
            if profile {
                span::begin_task();
            }
            // A crashing session burns real evals before its panic; the
            // catch below salvages that partial span tree so the profile
            // accounts for every eval the counters saw, then resumes the
            // unwind for the executor's quarantine path. The partial
            // work is a pure function of the session's request batch, so
            // the salvaged tree is shard-invariant like everything else.
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                reqs.iter()
                    .map(|(slot, req)| {
                        let verdict = session.process(req, ladder);
                        let trail = if profile {
                            session.last_trail().to_vec()
                        } else {
                            Vec::new()
                        };
                        (*slot, req.index, verdict, trail)
                    })
                    .collect::<Vec<(usize, u64, Verdict, Vec<(Rung, u64)>)>>()
            }));
            let verdicts = match caught {
                Ok(v) => v,
                Err(payload) => {
                    if profile {
                        if let Ok(mut s) = salvaged.lock() {
                            s.merge(&span::take_tree());
                        }
                    }
                    std::panic::resume_unwind(payload);
                }
            };
            let tree = if profile {
                Some(span::take_tree())
            } else {
                None
            };
            (id, session, verdicts, tree)
        });

        // Stage 3: sequential scatter + quarantine of panicked tasks.
        for (outcome, (id, reqs)) in outcomes.into_iter().zip(retained) {
            match outcome {
                RunOutcome::Ok((id_back, session, verdicts, tree)) => {
                    if let Some(tree) = tree {
                        span_tree.merge(&tree);
                    }
                    table.insert(id_back, session);
                    for (pos, (slot, index, verdict, trail)) in verdicts.into_iter().enumerate() {
                        answers.answer(slot, id_back, index, pos, verdict, &trail, false);
                    }
                }
                RunOutcome::Panicked { message } => {
                    // The quarantine replay runs inline on this thread,
                    // so its ladder spans nest under `serve.quarantine`
                    // in a window of their own.
                    if profile {
                        span::begin_task();
                    }
                    let quarantine_span = span::enter("serve.quarantine");
                    let stat = stats.entry(id).or_default();
                    stat.quarantines += 1;
                    let mut attempt = stat.quarantines;
                    // Dump the doomed queue before replaying it.
                    let first = reqs.first().map(|(_, r)| r.index).unwrap_or(0);
                    if !reqs.is_empty() {
                        let events: Vec<String> =
                            reqs.iter().map(|(_, req)| request_event(req)).collect();
                        flight_dumps.push(flight_dump(
                            &format!("session-{id}"),
                            tick_index as u64,
                            "session_panic",
                            first,
                            events.iter().map(String::as_str),
                        ));
                    }
                    flight_dumps.push(
                        Obj::new()
                            .str("event", "quarantine")
                            .u64("session", id)
                            .u64("attempt", attempt)
                            .str("panic", &message)
                            .u64("first_request", first)
                            .u64("queued", reqs.len() as u64)
                            .finish(),
                    );
                    // Rebuild with a retry-tagged reseed and replay the
                    // queue with per-request crash isolation.
                    let spec = specs.get(&id).copied();
                    let mut session = match spec {
                        Some(spec) => Some(Session::new(spec, attempt)?),
                        None => None,
                    };
                    for (pos, (slot, req)) in reqs.iter().enumerate() {
                        let mut trail: Vec<(Rung, u64)> = Vec::new();
                        let verdict = match session.take() {
                            Some(live) => {
                                let mut replayed =
                                    run_indexed_caught(1, vec![(live, *req)], |_, (mut s, r)| {
                                        let v = s.process(&r, ladder);
                                        (s, v)
                                    });
                                match replayed.pop() {
                                    Some(RunOutcome::Ok((s, v))) => {
                                        if profile {
                                            trail = s.last_trail().to_vec();
                                        }
                                        session = Some(s);
                                        v
                                    }
                                    _ => {
                                        // Crashed again: reseed once more
                                        // for the rest of the queue.
                                        attempt += 1;
                                        stat.quarantines += 1;
                                        session = match spec {
                                            Some(spec) => Some(Session::new(spec, attempt)?),
                                            None => None,
                                        };
                                        Verdict::Error(RequestError::SessionCrashed)
                                    }
                                }
                            }
                            None => Verdict::Error(RequestError::UnknownSession),
                        };
                        answers.answer(*slot, id, req.index, pos, verdict, &trail, true);
                    }
                    if let Some(live) = session {
                        table.insert(id, live);
                    }
                    drop(quarantine_span);
                    if profile {
                        span_tree.merge(&span::take_tree());
                    }
                }
            }
        }
    }

    let responses: Vec<Response> = answers
        .responses
        .into_iter()
        // hevlint::allow(panic, every request is answered exactly once by construction (unknown-session answer, shed, batch verdict, or quarantine replay); a hole would be a service bug, never a request-reachable state)
        .map(|slot| slot.expect("request left without a response"))
        .collect();
    // Every answer writes its trace line alongside its response;
    // `flatten` keeps the path panic-free.
    let request_traces: Vec<String> = answers.traces.into_iter().flatten().collect();
    span_tree.merge(&salvaged.into_inner().unwrap_or_default());
    // The per-session fold; answers to unknown ids have no row.
    for r in &responses {
        if let Some(s) = stats.get_mut(&r.session) {
            s.record(&r.verdict);
        }
    }
    Ok(ServeOutput {
        responses,
        stats,
        flight_dumps,
        span_tree,
        request_traces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs(n: u64) -> Vec<SessionSpec> {
        (0..n)
            .map(|id| SessionSpec {
                id,
                seed: 100 + id,
                severity: 0.5,
                initial_soc: 0.6,
            })
            .collect()
    }

    fn request(index: u64, session: u64) -> Request {
        Request {
            index,
            session,
            epoch: 0,
            soc: 0.6,
            speed_mps: 8.0,
            accel_mps2: 0.1,
            grade: 0.0,
            budget_evals: 600,
            crash: false,
        }
    }

    fn config() -> ServeConfig {
        ServeConfig {
            shards: 2,
            queue_capacity: 2,
            tick_requests: 8,
            ladder: LadderConfig::default(),
            profile: false,
        }
    }

    #[test]
    fn every_request_gets_exactly_one_response_in_order() {
        let requests: Vec<Request> = (0..12).map(|i| request(i, i % 3)).collect();
        let out = serve(&config(), &specs(3), &requests).unwrap();
        assert_eq!(out.responses.len(), 12);
        for (i, r) in out.responses.iter().enumerate() {
            assert_eq!(r.index, i as u64);
        }
    }

    #[test]
    fn hostile_index_fields_cannot_misroute_responses() {
        // The index field is a client echo; slotting uses stream
        // position, so wild indices neither panic nor collide.
        let mut requests: Vec<Request> = (0..4).map(|i| request(i, 0)).collect();
        requests[1].index = u64::MAX;
        requests[2].index = 0;
        let out = serve(&config(), &specs(1), &requests).unwrap();
        assert_eq!(out.responses.len(), 4);
        assert_eq!(out.responses[1].index, u64::MAX);
        assert_eq!(out.responses[2].index, 0);
    }

    #[test]
    fn burst_overload_sheds_deterministically() {
        // 8 requests to one session in one tick with capacity 2: 2 are
        // admitted, 6 shed — a pure function of queue depth.
        let requests: Vec<Request> = (0..8).map(|i| request(i, 0)).collect();
        let out = serve(&config(), &specs(1), &requests).unwrap();
        let shed: Vec<u64> = out
            .responses
            .iter()
            .filter(|r| matches!(r.verdict, Verdict::Shed { .. }))
            .map(|r| r.index)
            .collect();
        assert_eq!(shed, (2..8).collect::<Vec<u64>>());
        assert_eq!(out.stats[&0].shed, 6);
        assert_eq!(out.stats[&0].served, 2);
    }

    #[test]
    fn unknown_sessions_are_answered_not_dropped() {
        let requests = vec![request(0, 0), request(1, 77)];
        let out = serve(&config(), &specs(1), &requests).unwrap();
        assert_eq!(out.unknown_session(), 1);
        assert_eq!(out.totals().errors, 1);
        assert!(!out.stats.contains_key(&77));
        assert_eq!(
            out.responses[1].verdict,
            Verdict::Error(RequestError::UnknownSession)
        );
    }

    #[test]
    fn crash_is_quarantined_and_the_shard_keeps_serving() {
        let mut requests: Vec<Request> = (0..6).map(|i| request(i, i % 2)).collect();
        requests[2].crash = true; // session 0's second request
        let out = serve(&config(), &specs(2), &requests).unwrap();
        assert_eq!(out.responses.len(), 6);
        assert!(out.totals().quarantines >= 1);
        assert_eq!(
            out.responses[2].verdict,
            Verdict::Error(RequestError::SessionCrashed)
        );
        // Each session sees three requests in the tick with queue
        // capacity 2, so the third (indices 4 and 5) is shed. Session 1
        // is untouched by the crash; session 0's request 0 was replayed
        // on the reseeded incarnation and served.
        for r in &out.responses {
            match r.index {
                2 => {}
                4 | 5 => assert!(matches!(r.verdict, Verdict::Shed { .. }), "{:?}", r.verdict),
                _ => assert!(
                    matches!(r.verdict, Verdict::Served { .. }),
                    "request {} got {:?}",
                    r.index,
                    r.verdict
                ),
            }
        }
        assert!(!out.flight_dumps.is_empty());
        assert!(out.flight_dumps[0].contains("\"event\":\"flight_dump\""));
    }

    #[test]
    fn shard_counts_do_not_change_the_response_stream() {
        let mut requests: Vec<Request> = (0..24).map(|i| request(i, i % 4)).collect();
        requests[5].crash = true;
        requests[11].speed_mps = f64::NAN;
        let reference = serve(
            &ServeConfig {
                shards: 1,
                ..config()
            },
            &specs(4),
            &requests,
        )
        .unwrap();
        for shards in [2, 4] {
            let out = serve(&ServeConfig { shards, ..config() }, &specs(4), &requests).unwrap();
            assert_eq!(out.response_stream(), reference.response_stream());
            assert_eq!(out.stats, reference.stats);
            assert_eq!(out.flight_dumps, reference.flight_dumps);
        }
    }

    #[test]
    fn profiling_is_shard_invariant_and_off_by_default() {
        let mut requests: Vec<Request> = (0..24).map(|i| request(i, i % 4)).collect();
        requests[5].crash = true;
        let plain = serve(
            &ServeConfig {
                shards: 1,
                ..config()
            },
            &specs(4),
            &requests,
        )
        .unwrap();
        assert!(plain.span_tree.is_empty());
        assert!(plain.request_traces.is_empty());
        let profiled = |shards| {
            serve(
                &ServeConfig {
                    shards,
                    profile: true,
                    ..config()
                },
                &specs(4),
                &requests,
            )
            .unwrap()
        };
        let reference = profiled(1);
        // Profiling never changes what is served.
        assert_eq!(reference.response_stream(), plain.response_stream());
        // One causal trace per request; served traces carry the rung walk.
        assert_eq!(reference.request_traces.len(), requests.len());
        let served = reference
            .request_traces
            .iter()
            .find(|l| l.contains("\"outcome\":\"served\""))
            .unwrap();
        assert!(served.contains("\"trail\":[{\"rung\":"), "{served}");
        // The crashed request's replay verdict is traced as quarantined.
        assert!(reference
            .request_traces
            .iter()
            .any(|l| l.contains("\"quarantined\":true")));
        assert!(!reference.span_tree.is_empty());
        for shards in [2, 4] {
            let out = profiled(shards);
            assert_eq!(out.span_tree.to_json(), reference.span_tree.to_json());
            assert_eq!(out.request_traces, reference.request_traces);
        }
    }

    #[test]
    fn metrics_cover_the_outcome_counts() {
        let mut requests: Vec<Request> = (0..10).map(|i| request(i, 0)).collect();
        requests[9].soc = 9.0;
        let out = serve(&config(), &specs(1), &requests).unwrap();
        let mut registry = MetricsRegistry::new();
        out.record_metrics(&mut registry);
        let prom = registry.to_prometheus("hev_");
        assert!(prom.contains("hev_serve_requests 10"));
        assert!(prom.contains("hev_serve_shed"));
        assert!(prom.contains("hev_serve_request_evals_count"));
    }
}
