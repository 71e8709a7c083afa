//! Serving determinism and chaos suites (the ISSUE-8 acceptance
//! criteria): same seed + same request order ⇒ byte-identical response
//! stream, degradation report, and shed log at shard counts {1, 2, 4};
//! and under chaos mode the service never panics the process, never
//! emits an infeasible or non-finite control, and answers every request
//! exactly once.

use hev_serve::{run_serve_bench, serve, FleetConfig, ServeConfig, Verdict};

fn fleet(chaos: bool) -> FleetConfig {
    FleetConfig {
        sessions: 6,
        requests: 220,
        seed: 42,
        chaos,
    }
}

fn at_shards(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        ..ServeConfig::default()
    }
}

#[test]
fn response_stream_is_byte_identical_at_shard_counts_1_2_4() {
    for chaos in [false, true] {
        let runs: Vec<_> = [1, 2, 4]
            .into_iter()
            .map(|s| run_serve_bench(&fleet(chaos), &at_shards(s)).unwrap())
            .collect();
        for other in &runs[1..] {
            assert_eq!(
                runs[0].response_stream, other.response_stream,
                "response stream diverged across shard counts (chaos {chaos})"
            );
            assert_eq!(
                runs[0].degradation_rows, other.degradation_rows,
                "degradation report diverged across shard counts (chaos {chaos})"
            );
            assert_eq!(
                runs[0].prometheus, other.prometheus,
                "shed/serve counters diverged across shard counts (chaos {chaos})"
            );
            assert_eq!(runs[0].report, other.report);
        }
    }
}

#[test]
fn repeated_runs_are_byte_identical() {
    let a = run_serve_bench(&fleet(true), &at_shards(2)).unwrap();
    let b = run_serve_bench(&fleet(true), &at_shards(2)).unwrap();
    assert_eq!(a.response_stream, b.response_stream);
    assert_eq!(a.degradation_rows, b.degradation_rows);
    assert_eq!(a.health_json, b.health_json);
}

#[test]
fn chaos_never_panics_and_answers_every_request_exactly_once() {
    let config = fleet(true);
    let sessions = hev_serve::fleet::build_sessions(&config);
    let requests = hev_serve::fleet::build_requests(&config, sessions.len() as u64);
    let output = serve(&at_shards(3), &sessions, &requests).unwrap();

    // Exactly one response per request, in stream order.
    assert_eq!(output.responses.len(), requests.len());
    for (req, resp) in requests.iter().zip(&output.responses) {
        assert_eq!(resp.index, req.index);
        assert_eq!(resp.session, req.session);
    }

    // Served controls are finite and the dispositions reconcile.
    let mut served = 0u64;
    for resp in &output.responses {
        if let Verdict::Served {
            control, soc_after, ..
        } = &resp.verdict
        {
            assert!(control.is_finite(), "non-finite control served");
            assert!(soc_after.is_finite());
            served += 1;
        }
    }
    let totals = output.totals();
    assert_eq!(served, totals.served);
    let stats_served: u64 = output.stats.values().map(|s| s.served).sum();
    assert_eq!(served, stats_served);

    // The chaos stream's attack shapes all left traces: quarantines from
    // crash flags, shedding from bursts, typed errors from malformed
    // requests (an unknown session id among them).
    assert!(totals.quarantines > 0, "crash flags must quarantine");
    assert!(totals.shed > 0, "bursts must shed");
    assert!(
        totals.errors > 0,
        "malformed requests must yield typed errors"
    );
    assert!(output.unknown_session() > 0);
    let row_errors: u64 = output.stats.values().map(|s| s.errors).sum();
    assert_eq!(row_errors + output.unknown_session(), totals.errors);
    assert_eq!(
        totals.served + totals.shed + totals.errors,
        requests.len() as u64
    );
}

#[test]
fn report_json_is_versioned_and_deterministic() {
    let a = run_serve_bench(&fleet(true), &at_shards(1)).unwrap();
    // The throughput-free report encoding is byte-stable; wall-clock
    // fields live only in `report_json`/`to_json_with_throughput`.
    let b = run_serve_bench(&fleet(true), &at_shards(4)).unwrap();
    assert_eq!(a.report.to_json(), b.report.to_json());
    assert!(a.report.to_json().starts_with("{\"version\":2,"));
}

/// FNV-1a (64-bit) of a byte string: a stable fingerprint for pinning
/// large artifacts as literals.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pins a small chaos fleet's artifacts across commits (the tests
/// above compare only shard against shard): the health line and the
/// deterministic report as literals, the response stream, degradation
/// CSV and Prometheus text as FNV-1a fingerprints. The stream contains
/// every disposition: served on three rungs, shed by a burst, typed
/// errors including an unknown session id, and crash quarantines.
/// Since the fallback scan skips settled gears, four rule-tier responses
/// cost fewer `evals` (and the Prometheus eval histograms with them);
/// every control, rung and disposition stayed the same.
#[test]
fn small_chaos_fleet_artifacts_are_pinned() {
    let fleet = FleetConfig {
        sessions: 4,
        requests: 120,
        seed: 13,
        chaos: true,
    };
    let run = run_serve_bench(&fleet, &at_shards(2)).unwrap();
    let mut csv = format!("{}\n", run.degradation_header);
    for row in &run.degradation_rows {
        csv.push_str(row);
        csv.push('\n');
    }
    assert_eq!(
        run.health_json,
        "{\"state\":\"critical\",\"requests\":120,\"shed_ratio\":0.058333333333333334,\
         \"error_ratio\":0.041666666666666664,\"quarantines\":4}"
    );
    assert_eq!(
        run.report.to_json(),
        "{\"version\":2,\"sessions\":4,\"requests\":120,\"served\":108,\"shed\":7,\
         \"errors\":5,\"rung_full\":43,\"rung_myopic\":22,\"rung_rule\":43,\
         \"rung_limp_home\":0,\"quarantines\":4,\"crashed_requests\":2,\
         \"shed_rate\":0.058333333333333334,\"eval_p50\":173,\"eval_p90\":554,\
         \"eval_p99\":767,\"eval_p999\":876,\"shed_depth\":[0,0,0,7,0]}"
    );
    assert_eq!(fnv1a(run.response_stream.as_bytes()), 0x8e3d_d9a5_af56_59e9);
    assert_eq!(fnv1a(csv.as_bytes()), 0xb6d1_ce03_705e_5cda);
    assert_eq!(fnv1a(run.prometheus.as_bytes()), 0x228c_f64a_9747_748b);
}

/// Pins the small chaos fleet's first quarantine dump: the
/// `flight_dump` line listing the crashed session's queued requests,
/// oldest first, written before the queue is replayed.
#[test]
fn small_chaos_fleet_quarantine_dump_is_pinned() {
    let fleet = FleetConfig {
        sessions: 4,
        requests: 120,
        seed: 13,
        chaos: true,
    };
    let run = run_serve_bench(&fleet, &at_shards(2)).unwrap();
    assert_eq!(
        run.flight_dumps[0],
        "{\"v\":1,\"event\":\"flight_dump\",\"run\":\"session-3\",\"episode\":0,\"trigger\":\"session_panic\",\"step\":1,\"events\":[{\
         \"event\":\"queued_request\",\"index\":1,\"session\":3,\"epoch\":0,\"soc\":0.3892598366110661,\"speed_mps\":22.375586427240936,\"accel_mps2\":0.40839541876007246,\"grade\":0.025414797284734433,\"budget_evals\":6000,\"crash\":false},{\
         \"event\":\"queued_request\",\"index\":4,\"session\":3,\"epoch\":0,\"soc\":0.7626581774952979,\"speed_mps\":15.980420368147609,\"accel_mps2\":-1.0284085661607345,\"grade\":0.012476160028314531,\"budget_evals\":80,\"crash\":false},{\
         \"event\":\"queued_request\",\"index\":10,\"session\":3,\"epoch\":0,\"soc\":0.6833890764374114,\"speed_mps\":14.290332868597224,\"accel_mps2\":-0.14771081505523043,\"grade\":-0.02709660085796202,\"budget_evals\":0,\"crash\":false},{\
         \"event\":\"queued_request\",\"index\":12,\"session\":3,\"epoch\":0,\"soc\":0.7624703723377897,\"speed_mps\":8.647646043143462,\"accel_mps2\":-0.8915065470981477,\"grade\":-0.021631946799070458,\"budget_evals\":1500,\"crash\":false},{\
         \"event\":\"queued_request\",\"index\":13,\"session\":3,\"epoch\":0,\"soc\":0.8051693870980805,\"speed_mps\":18.00826495632211,\"accel_mps2\":0.13373567201096703,\"grade\":0.004614099631449278,\"budget_evals\":600,\"crash\":true}]}"
    );
}
