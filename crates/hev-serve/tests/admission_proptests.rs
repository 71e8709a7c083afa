//! Property-based tests of the admission-control invariants: whatever a
//! (possibly hostile) request stream contains, the service answers every
//! request exactly once with a well-formed verdict, shed responses carry
//! the backpressure depth that triggered them, and the degradation
//! ladder only ever walks downward within a request.

use hev_control::supervisor::walk;
use hev_control::{HevPolicy, LadderConfig, Observation, RuleBasedController};
use hev_model::{HevParams, ParallelHev};
use hev_serve::fleet::{build_sessions, FleetConfig};
use hev_serve::{serve, Request, RequestError, Rung, ServeConfig, Verdict};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sessions in the test fleet; generated request session ids range twice
/// as far, so roughly half the stream targets unknown sessions.
const SESSIONS: usize = 3;

/// A seeded hostile request stream: unknown sessions, stale epochs,
/// out-of-range SOC, NaN speeds, arbitrary echo indices, zero budgets,
/// and crash flags all appear with meaningful probability.
fn hostile_requests(seed: u64, len: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let soc = if rng.gen_range(0..5) == 0 {
                rng.gen_range(-0.5..1.5)
            } else {
                rng.gen_range(0.25..0.85)
            };
            let speed_mps = if rng.gen_range(0..10) == 0 {
                f64::NAN
            } else {
                rng.gen_range(0.0..30.0)
            };
            let budget_evals = if rng.gen_range(0..4) == 0 {
                0
            } else {
                rng.gen_range(0..8_000)
            };
            Request {
                index: rng.gen(),
                session: rng.gen_range(0..(SESSIONS as u64) * 2),
                epoch: rng.gen_range(0..4),
                soc,
                speed_mps,
                accel_mps2: rng.gen_range(-2.0..2.0),
                grade: rng.gen_range(-0.08..0.08),
                budget_evals,
                crash: rng.gen_range(0..20) == 0,
            }
        })
        .collect()
}

fn fleet() -> FleetConfig {
    FleetConfig {
        sessions: SESSIONS,
        requests: 0,
        seed: 11,
        chaos: false,
    }
}

proptest! {
    /// Exactly one response per request, in stream order, whatever the
    /// stream contains — including crash flags (quarantined), unknown
    /// sessions, and malformed states. No request is dropped, none is
    /// answered twice, and hostile `index` fields cannot misroute a
    /// response (they are echoed, never used for placement).
    #[test]
    fn every_request_gets_exactly_one_response(
        seed in 0u64..1_000_000,
        len in 1usize..40,
        queue_capacity in 1usize..5,
        shards in 1usize..4,
    ) {
        let requests = hostile_requests(seed, len);
        let sessions = build_sessions(&fleet());
        let config = ServeConfig {
            shards,
            queue_capacity,
            tick_requests: 16,
            ..ServeConfig::default()
        };
        let output = serve(&config, &sessions, &requests).unwrap();
        prop_assert_eq!(output.responses.len(), requests.len());
        for (req, resp) in requests.iter().zip(&output.responses) {
            prop_assert_eq!(resp.index, req.index);
            prop_assert_eq!(resp.session, req.session);
        }
        // The disposition counters reconcile: every request is exactly
        // one of served / shed / typed error (unknown sessions count as
        // errors), and the per-session rows plus the unknown-id answers
        // add up to the whole-stream totals.
        let totals = output.totals();
        prop_assert_eq!(totals.requests, requests.len() as u64);
        prop_assert_eq!(totals.served + totals.shed + totals.errors, totals.requests);
        let unknown = requests
            .iter()
            .filter(|r| r.session >= SESSIONS as u64)
            .count() as u64;
        prop_assert_eq!(output.unknown_session(), unknown);
        let rows: u64 = output.stats.values().map(|s| s.requests).sum();
        let row_errors: u64 = output.stats.values().map(|s| s.errors).sum();
        prop_assert_eq!(rows + unknown, totals.requests);
        prop_assert_eq!(row_errors + unknown, totals.errors);
    }

    /// Every verdict is well-formed: shed responses carry a depth at or
    /// beyond the configured capacity, served responses carry finite
    /// controls and a finite post-step SOC, and unknown sessions are
    /// always the typed `UnknownSession` error.
    #[test]
    fn verdicts_are_well_formed(
        seed in 0u64..1_000_000,
        len in 1usize..40,
        queue_capacity in 1usize..5,
    ) {
        let requests = hostile_requests(seed, len);
        let sessions = build_sessions(&fleet());
        let config = ServeConfig {
            shards: 2,
            queue_capacity,
            tick_requests: 16,
            ..ServeConfig::default()
        };
        let output = serve(&config, &sessions, &requests).unwrap();
        for (req, resp) in requests.iter().zip(&output.responses) {
            match &resp.verdict {
                Verdict::Served { control, soc_after, .. } => {
                    prop_assert!(control.is_finite());
                    prop_assert!(soc_after.is_finite());
                    prop_assert!(req.session < SESSIONS as u64);
                }
                Verdict::Shed { depth } => {
                    prop_assert!(*depth >= queue_capacity);
                }
                Verdict::Error(e) => {
                    if req.session >= SESSIONS as u64 {
                        prop_assert_eq!(*e, RequestError::UnknownSession);
                    }
                }
            }
        }
    }

    /// The ladder only walks downward within a request: the attempted
    /// trail is strictly descending in rung index, ends at the serving
    /// rung, and a budget below a tier's entry cost never lands on it.
    #[test]
    fn ladder_trail_is_monotone(
        budget in 0u64..10_000,
        speed in 0.0f64..25.0,
        accel in -1.5f64..1.5,
        soc in 0.45f64..0.75,
    ) {
        let hev = ParallelHev::new(HevParams::default_parallel_hev(), soc).unwrap();
        let demand = hev.demand(speed, accel, 0.0);
        let ctx = hev.step_context(&demand);
        let config = LadderConfig::default();
        let obs = Observation {
            step: 0,
            time_s: 0.0,
            dt_s: config.reward.dt_s,
            demand: &demand,
            soc,
            ctx: &ctx,
        };
        let mut rule = RuleBasedController::default();
        rule.begin_episode();
        let mut trail = Vec::new();
        if let Ok((_, rung)) = walk(&hev, &obs, &config, &mut rule, budget, &mut trail) {
            for pair in trail.windows(2) {
                prop_assert!(
                    pair[0].0.index() < pair[1].0.index(),
                    "trail escalated: {:?}",
                    trail
                );
            }
            prop_assert_eq!(trail.last().unwrap().0, rung);
            // Entry gating: a sub-full budget can never serve Full.
            if budget < config.tiers[0].cost {
                prop_assert!(rung > Rung::Full);
            }
        }
    }
}
