//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--episodes N] [--seed S] [--jobs N] [--run-log PATH|-] [--csv DIR]
//!       [--metrics-json PATH] [--metrics-prom PATH]
//!       [--trace PATH] [--trace-sample N]
//!       [--checkpoint-dir DIR] [--checkpoint-every N] [--resume] <target>...
//!
//! targets:
//!   table1                  HEV key parameters
//!   fig2                    fuel with vs without prediction (OSCAR, UDDS, MODEM)
//!   table2                  cumulative reward, proposed vs rule-based
//!   fig3                    MPG, proposed vs rule-based
//!   dp-bound                offline DP reference on the paper's cycles
//!   learning-curve          reduced vs full action-space convergence
//!   ablation-action-space   reduced vs full action space
//!   ablation-alpha          prediction learning-rate sweep
//!   ablation-lambda         TD(lambda) sweep
//!   ablation-weight         auxiliary weight sweep
//!   ablation-predictor      EWMA vs MA vs Markov vs MLP
//!   robustness              fault-severity degradation sweep (supervised)
//!   serve-bench             deterministic fleet-serving benchmark (hev-serve)
//!   profile                 deterministic span profile of the full stack
//!   all                     everything above except serve-bench and profile
//! ```
//!
//! `--checkpoint-dir` enables crash-tolerant training for the
//! `robustness` target: each training run checkpoints its Q-table every
//! `--checkpoint-every` episodes (default 25), and `--resume` picks up
//! from existing checkpoint files bit-identically. `--checkpoint-every`
//! and `--resume` are rejected without `--checkpoint-dir`.
//!
//! Every target name is checked before any target runs: an unknown name
//! fails the whole invocation with nothing printed on stdout.
//!
//! `--metrics-json` / `--trace` enable the deterministic telemetry
//! layer for the `fig2`, `table2`, and `fig3` targets: per-episode
//! metrics snapshots and sampled step traces are collected in memory
//! per run and written afterwards in task order, so the emitted files
//! are byte-identical at every `--jobs` value. `--metrics-prom` writes
//! the final registry snapshot in Prometheus text exposition format.
//! Without these flags the telemetry code paths are never entered.
//!
//! The `serve-bench` target runs the `hev-serve` fleet service over a
//! seeded synthetic fleet: `--serve-shards` picks the worker count,
//! `--chaos` injects crashes, malformed requests, and burst overload,
//! `--serve-out` writes the response stream (JSONL — byte-identical at
//! every shard count; CI `cmp`s shards 1 vs 4), and `--serve-report`
//! writes the versioned JSON report including wall-clock throughput
//! (machine-dependent, never compared). With `--csv` the per-session
//! degradation ladder lands in `serve_degradation.csv`, and
//! `--metrics-prom` exposes the serve counters in Prometheus format.
//!
//! The `profile` target runs the profiled three-phase workload
//! (training fan-out, DP reference sweep, serve fleet) under the
//! deterministic span profiler, prints the per-phase attribution table,
//! and fails when the tree's virtual-time total does not reconcile
//! exactly with the independent `hev_trace::evals` counters.
//! `--profile-json` writes the span tree (byte-identical at every
//! `--jobs` value — CI `cmp`s jobs 1 vs 4); `--profile-trace` writes a
//! Chrome `trace_event` file loadable in Perfetto. With `--trace` the
//! causal per-request serve traces land in the trace JSONL, and with
//! `--metrics-prom` the per-phase eval histograms join the exposition.

use hev_bench::ablations;
use hev_bench::experiments::{self, ExperimentConfig};
use hev_bench::profile;
use hev_bench::robustness::{self, CheckpointOptions};
use hev_control::harness::{runlog, RunEvent, RunLog};
use hev_control::{RunTelemetry, TelemetryConfig};
use hev_serve::{run_serve_bench, FleetConfig, ServeConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The targets `all` expands to, in run order.
const ALL_TARGETS: [&str; 12] = [
    "table1",
    "fig2",
    "table2",
    "fig3",
    "dp-bound",
    "learning-curve",
    "ablation-action-space",
    "ablation-alpha",
    "ablation-lambda",
    "ablation-weight",
    "ablation-predictor",
    "robustness",
];

/// The remaining target names: the two `all` leaves out, and `all`.
const OTHER_TARGETS: [&str; 3] = ["serve-bench", "profile", "all"];

fn main() -> ExitCode {
    // The CLI defaults to the machine's available parallelism; results
    // are bit-identical at every width, so only wall-clock changes.
    let mut cfg = ExperimentConfig {
        jobs: 0,
        ..Default::default()
    };
    let mut targets: Vec<String> = Vec::new();
    let mut csv_dir: Option<PathBuf> = None;
    let mut run_log: Option<String> = None;
    let mut metrics_json: Option<PathBuf> = None;
    let mut metrics_prom: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut trace_sample: u64 = 1;
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut checkpoint_every: Option<usize> = None;
    let mut resume = false;
    let mut serve_chaos = false;
    let mut serve_shards: usize = 1;
    let mut serve_out: Option<PathBuf> = None;
    let mut serve_report: Option<PathBuf> = None;
    let mut profile_json: Option<PathBuf> = None;
    let mut profile_trace: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--episodes" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.episodes = n,
                None => return usage("--episodes needs an integer"),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => cfg.seed = s,
                None => return usage("--seed needs an integer"),
            },
            "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.jobs = n,
                None => return usage("--jobs needs an integer (0 = all cores)"),
            },
            "--run-log" => match args.next() {
                Some(path) => run_log = Some(path),
                None => return usage("--run-log needs a path (or '-' for stderr)"),
            },
            "--csv" => match args.next() {
                Some(dir) => csv_dir = Some(PathBuf::from(dir)),
                None => return usage("--csv needs a directory"),
            },
            "--metrics-json" => match args.next() {
                Some(path) => metrics_json = Some(PathBuf::from(path)),
                None => return usage("--metrics-json needs a path"),
            },
            "--metrics-prom" => match args.next() {
                Some(path) => metrics_prom = Some(PathBuf::from(path)),
                None => return usage("--metrics-prom needs a path"),
            },
            "--trace" => match args.next() {
                Some(path) => trace_path = Some(PathBuf::from(path)),
                None => return usage("--trace needs a path"),
            },
            "--trace-sample" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => trace_sample = n,
                None => return usage("--trace-sample needs an integer (0 = no step traces)"),
            },
            "--checkpoint-dir" => match args.next() {
                Some(dir) => checkpoint_dir = Some(PathBuf::from(dir)),
                None => return usage("--checkpoint-dir needs a directory"),
            },
            "--checkpoint-every" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => checkpoint_every = Some(n),
                _ => return usage("--checkpoint-every needs a positive integer"),
            },
            "--resume" => resume = true,
            "--chaos" => serve_chaos = true,
            "--serve-shards" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => serve_shards = n,
                _ => return usage("--serve-shards needs a positive integer"),
            },
            "--serve-out" => match args.next() {
                Some(path) => serve_out = Some(PathBuf::from(path)),
                None => return usage("--serve-out needs a path"),
            },
            "--serve-report" => match args.next() {
                Some(path) => serve_report = Some(PathBuf::from(path)),
                None => return usage("--serve-report needs a path"),
            },
            "--profile-json" => match args.next() {
                Some(path) => profile_json = Some(PathBuf::from(path)),
                None => return usage("--profile-json needs a path"),
            },
            "--profile-trace" => match args.next() {
                Some(path) => profile_trace = Some(PathBuf::from(path)),
                None => return usage("--profile-trace needs a path"),
            },
            "--help" | "-h" => return usage(""),
            other if other.starts_with('-') => {
                return usage(&format!("unknown flag {other}"));
            }
            target => targets.push(target.to_string()),
        }
    }
    if targets.is_empty() {
        return usage("no target given");
    }
    let known = |t: &str| ALL_TARGETS.contains(&t) || OTHER_TARGETS.contains(&t);
    if let Some(unknown) = targets.iter().find(|t| !known(t.as_str())) {
        return usage(&format!("unknown target {unknown}"));
    }
    if checkpoint_dir.is_none() {
        if resume {
            return usage("--resume needs --checkpoint-dir");
        }
        if checkpoint_every.is_some() {
            return usage("--checkpoint-every needs --checkpoint-dir");
        }
    }
    // Telemetry stays fully disabled (and its code paths unentered)
    // unless a telemetry output was requested.
    cfg.telemetry = TelemetryConfig {
        metrics: metrics_json.is_some() || metrics_prom.is_some(),
        trace_sample: trace_path.is_some().then_some(trace_sample),
    };
    let mut collected: Vec<RunTelemetry> = Vec::new();
    if targets.iter().any(|t| t == "all") {
        targets = ALL_TARGETS.iter().map(|s| s.to_string()).collect();
    }
    for dir in [&csv_dir, &checkpoint_dir].into_iter().flatten() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let checkpoint = checkpoint_dir.map(|dir| CheckpointOptions {
        dir,
        every: checkpoint_every.unwrap_or(25),
        resume,
    });
    if let Some(path) = &run_log {
        let sink = if path == "-" {
            RunLog::stderr()
        } else {
            match RunLog::create(std::path::Path::new(path)) {
                Ok(sink) => sink,
                Err(e) => {
                    eprintln!("error: cannot create run log {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        };
        runlog::install(sink);
    }
    for t in &targets {
        let t0 = Instant::now();
        runlog::emit(&RunEvent::new("target_start", t.as_str()).jobs(cfg.harness().jobs()));
        let csv = csv_dir.as_deref();
        let mut outcome = Ok(());
        match t.as_str() {
            "table1" => table1(),
            "fig2" => outcome = fig2_target(&cfg, csv).map(|runs| collected.extend(runs)),
            "table2" => outcome = table2_target(&cfg, csv).map(|runs| collected.extend(runs)),
            "fig3" => outcome = fig3_target(&cfg, csv).map(|runs| collected.extend(runs)),
            "dp-bound" => dp_bound(&cfg),
            "learning-curve" => learning_curve(&cfg),
            "ablation-action-space" => ablation(
                "A1: reduced vs full action space",
                ablations::ablation_action_space(&cfg),
            ),
            "ablation-alpha" => ablation(
                "A2: prediction learning-rate alpha",
                ablations::ablation_alpha(&cfg),
            ),
            "ablation-lambda" => ablation(
                "A3: TD(lambda) trace decay",
                ablations::ablation_lambda(&cfg),
            ),
            "ablation-weight" => {
                ablation("A4: auxiliary weight w", ablations::ablation_weight(&cfg))
            }
            "ablation-predictor" => ablation(
                "A5: predictor comparison",
                ablations::ablation_predictor(&cfg),
            ),
            "robustness" => outcome = robustness_target(&cfg, csv, checkpoint.as_ref()),
            "serve-bench" => {
                outcome = serve_bench_target(
                    &cfg,
                    serve_chaos,
                    serve_shards,
                    serve_out.as_deref(),
                    serve_report.as_deref(),
                    csv,
                    &mut collected,
                )
            }
            "profile" => {
                outcome = profile_target(
                    &cfg,
                    profile_json.as_deref(),
                    profile_trace.as_deref(),
                    &mut collected,
                )
            }
            other => return usage(&format!("unknown target {other}")),
        }
        if let Err(code) = outcome {
            return code;
        }
        runlog::emit(
            &RunEvent::new("target_end", t.as_str())
                .jobs(cfg.harness().jobs())
                .elapsed(t0),
        );
    }
    if let Err(code) = write_telemetry(
        &collected,
        metrics_json.as_deref(),
        trace_path.as_deref(),
        metrics_prom.as_deref(),
    ) {
        return code;
    }
    ExitCode::SUCCESS
}

/// Writes the telemetry collected across all targets, concatenated in
/// target order then task order — the same order at every `--jobs`
/// value, so these files are byte-identical across worker counts.
fn write_telemetry(
    collected: &[RunTelemetry],
    metrics_json: Option<&std::path::Path>,
    trace_path: Option<&std::path::Path>,
    metrics_prom: Option<&std::path::Path>,
) -> Result<(), ExitCode> {
    if let Some(path) = metrics_json {
        let lines = collected.iter().flat_map(|r| &r.metrics_lines).collect();
        write_jsonl(path, "metrics", lines)?;
    }
    if let Some(path) = trace_path {
        let lines = collected.iter().flat_map(|r| &r.trace_lines).collect();
        write_jsonl(path, "trace", lines)?;
    }
    if let Some(path) = metrics_prom {
        // A scrape file wants one sample per series, so expose the last
        // run's final registry snapshot (e.g. for a node_exporter
        // textfile collector); the full history is in --metrics-json.
        let text = collected
            .iter()
            .rev()
            .find(|r| !r.prometheus.is_empty())
            .map(|r| r.prometheus.as_str())
            .unwrap_or("");
        std::fs::write(path, text).map_err(|e| {
            eprintln!("error: cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        })?;
        println!("(wrote {})", path.display());
    }
    Ok(())
}

/// Writes `lines` to `path` as JSONL, one line each, and reports the
/// count on stdout.
fn write_jsonl(path: &std::path::Path, what: &str, lines: Vec<&String>) -> Result<(), ExitCode> {
    let text: String = lines.iter().map(|line| format!("{line}\n")).collect();
    std::fs::write(path, text).map_err(|e| {
        eprintln!("error: cannot write {}: {e}", path.display());
        ExitCode::FAILURE
    })?;
    println!("(wrote {}: {} {what} lines)", path.display(), lines.len());
    Ok(())
}

/// Runs the deterministic fleet-serving benchmark (`hev-serve`): a
/// seeded synthetic fleet served over `shards` workers with bounded
/// admission, eval-budget deadlines, and crash quarantine. The response
/// stream and degradation CSV are byte-identical at every shard count;
/// only the JSON report's throughput fields are machine-dependent.
fn serve_bench_target(
    cfg: &ExperimentConfig,
    chaos: bool,
    shards: usize,
    serve_out: Option<&std::path::Path>,
    serve_report: Option<&std::path::Path>,
    csv_dir: Option<&std::path::Path>,
    collected: &mut Vec<RunTelemetry>,
) -> Result<(), ExitCode> {
    let fleet = FleetConfig {
        seed: cfg.seed,
        chaos,
        ..FleetConfig::default()
    };
    println!(
        "\n== Serve bench: {} sessions, {} requests, {} shard(s){} ==",
        fleet.sessions,
        fleet.requests,
        shards,
        if chaos { ", chaos" } else { "" }
    );
    let config = ServeConfig {
        shards,
        ..ServeConfig::default()
    };
    let result = run_serve_bench(&fleet, &config).map_err(|e| {
        eprintln!("error: serve-bench: {e}");
        ExitCode::FAILURE
    })?;
    rule(72);
    println!("{}", result.report_json);
    println!("health: {}", result.health_json);
    rule(72);
    if let Some(path) = serve_out {
        std::fs::write(path, &result.response_stream).map_err(|e| {
            eprintln!("error: cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        })?;
        println!(
            "(wrote {}: {} response lines)",
            path.display(),
            result.response_stream.lines().count()
        );
    }
    if let Some(path) = serve_report {
        std::fs::write(path, format!("{}\n", result.report_json)).map_err(|e| {
            eprintln!("error: cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        })?;
        println!("(wrote {})", path.display());
    }
    write_csv(
        csv_dir,
        "serve_degradation",
        result.degradation_header,
        &result.degradation_rows,
    )?;
    // Route the health line, flight dumps, and Prometheus exposition
    // through the shared telemetry writer (--metrics-json/--trace/
    // --metrics-prom).
    collected.push(RunTelemetry {
        label: "serve-bench".to_string(),
        metrics_lines: vec![result.health_json.clone()],
        trace_lines: result.flight_dumps.clone(),
        prometheus: result.prometheus.clone(),
    });
    Ok(())
}

/// Runs the profiled three-phase workload (`hev_bench::profile`):
/// prints the per-phase attribution table, optionally writes the
/// deterministic span-tree JSON and the Chrome trace_event file, and
/// fails when the tree's virtual-time total does not reconcile exactly
/// with the independent eval counters.
fn profile_target(
    cfg: &ExperimentConfig,
    profile_json: Option<&std::path::Path>,
    profile_trace: Option<&std::path::Path>,
    collected: &mut Vec<RunTelemetry>,
) -> Result<(), ExitCode> {
    println!(
        "\n== Profile: {} training run(s) x {} episodes, DP sweep, serve fleet ==",
        cfg.runs, cfg.episodes
    );
    println!(
        "cycle: {} samples @ {} s | fleet: {} session(s), {} request(s), chaos on",
        profile::profile_cycle().len(),
        profile::profile_cycle().dt(),
        profile::PROFILE_FLEET.sessions,
        profile::PROFILE_FLEET.requests,
    );
    let result = profile::run_profile(cfg);
    rule(100);
    print!("{}", result.tree.format_attribution_table());
    rule(100);
    println!(
        "virtual total: {} evals (span tree) vs {} evals (counters) — {}",
        result.tree.total_evals(),
        result.counter_evals,
        if result.reconciles() {
            "reconciled exactly"
        } else {
            "MISMATCH"
        },
    );
    if let Some(path) = profile_json {
        std::fs::write(path, result.tree.to_json() + "\n").map_err(|e| {
            eprintln!("error: cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        })?;
        println!("(wrote {})", path.display());
    }
    if let Some(path) = profile_trace {
        std::fs::write(path, result.tree.to_chrome_trace("repro profile") + "\n").map_err(|e| {
            eprintln!("error: cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        })?;
        println!("(wrote {})", path.display());
    }
    // Route the causal request traces and the per-phase histograms
    // through the shared telemetry writer (--trace/--metrics-prom).
    let mut registry = hev_trace::MetricsRegistry::new();
    result.tree.populate_registry(&mut registry, "profile.");
    collected.push(RunTelemetry {
        label: "profile".to_string(),
        metrics_lines: Vec::new(),
        trace_lines: result.request_traces.clone(),
        prometheus: registry.to_prometheus("hev_"),
    });
    if !result.reconciles() {
        eprintln!(
            "error: profile: span tree total ({}) does not reconcile with the eval counters ({})",
            result.tree.total_evals(),
            result.counter_evals
        );
        return Err(ExitCode::FAILURE);
    }
    Ok(())
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: repro [--episodes N] [--seed S] [--jobs N] [--run-log PATH|-] \
         [--csv DIR] \
         [--metrics-json PATH] [--metrics-prom PATH] [--trace PATH] [--trace-sample N] \
         [--checkpoint-dir DIR] [--checkpoint-every N] [--resume] \
         [--chaos] [--serve-shards N] [--serve-out PATH] [--serve-report PATH] \
         [--profile-json PATH] [--profile-trace PATH] <target>...\n\
         targets: table1 fig2 table2 fig3 dp-bound learning-curve ablation-action-space \
         ablation-alpha ablation-lambda ablation-weight ablation-predictor robustness \
         serve-bench profile all\n\
         --jobs 0 (default) uses all cores; output is bit-identical at every --jobs value.\n\
         --run-log writes JSON-lines progress/timing to PATH ('-' = stderr).\n\
         --metrics-json writes per-episode metrics JSONL for fig2/table2/fig3;\n\
         --metrics-prom writes the final snapshot in Prometheus text format;\n\
         --trace writes every --trace-sample'th step as a JSONL trace event (plus\n\
         flight-recorder dumps on degradation); files are byte-identical at every --jobs.\n\
         --checkpoint-dir enables crash-tolerant training for the robustness target\n\
         (checkpoint every --checkpoint-every episodes, default 25; --resume restarts\n\
         bit-identically); --checkpoint-every and --resume need --checkpoint-dir.\n\
         serve-bench runs the hev-serve fleet service: --serve-shards picks the worker\n\
         count, --chaos injects crashes/malformed requests/burst overload, --serve-out\n\
         writes the shard-invariant response stream (JSONL), --serve-report the JSON\n\
         report with wall-clock throughput; --csv adds serve_degradation.csv.\n\
         profile runs training + DP + serve under the deterministic span profiler and\n\
         prints the per-phase attribution table; --profile-json writes the span tree\n\
         (byte-identical at every --jobs), --profile-trace a Perfetto-loadable Chrome\n\
         trace; the run fails unless the tree reconciles exactly with the eval counters."
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

fn table1() {
    println!("\n== Table 1: HEV key parameters ==");
    rule(58);
    for row in experiments::table1() {
        println!("{:<34} {}", row.name, row.value);
    }
    rule(58);
}

/// Writes rows to `<dir>/<name>.csv` when a CSV directory was requested.
fn write_csv(
    dir: Option<&std::path::Path>,
    name: &str,
    header: &str,
    rows: &[String],
) -> Result<(), ExitCode> {
    let Some(dir) = dir else { return Ok(()) };
    let mut text = String::from(header);
    text.push('\n');
    for r in rows {
        text.push_str(r);
        text.push('\n');
    }
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, text).map_err(|e| {
        eprintln!("error: cannot write {}: {e}", path.display());
        ExitCode::FAILURE
    })?;
    println!("(wrote {})", path.display());
    Ok(())
}

fn fig2_target(
    cfg: &ExperimentConfig,
    csv: Option<&std::path::Path>,
) -> Result<Vec<RunTelemetry>, ExitCode> {
    let (rows, runs) = experiments::fig2(cfg);
    write_csv(
        csv,
        "fig2",
        "cycle,fuel_with_g,fuel_without_g,normalized",
        &rows
            .iter()
            .map(|r| {
                format!(
                    "{},{},{},{}",
                    r.cycle, r.fuel_with_g, r.fuel_without_g, r.normalized
                )
            })
            .collect::<Vec<_>>(),
    )?;
    fig2_print(cfg, &rows);
    Ok(runs)
}

fn fig2_print(cfg: &ExperimentConfig, rows: &[experiments::Fig2Row]) {
    println!(
        "\n== Figure 2: normalized fuel consumption, RL with vs without prediction \
         ({} episodes) ==",
        cfg.episodes
    );
    rule(72);
    println!(
        "{:<8} {:>14} {:>16} {:>12} {:>10}",
        "cycle", "with pred (g)", "without pred (g)", "normalized", "saving"
    );
    for r in rows {
        println!(
            "{:<8} {:>14.1} {:>16.1} {:>12.3} {:>9.1}%",
            r.cycle,
            r.fuel_with_g,
            r.fuel_without_g,
            r.normalized,
            (1.0 - r.normalized) * 100.0
        );
    }
    rule(72);
    println!("(paper: prediction-only fuel saving up to 12%)");
}

fn table2_target(
    cfg: &ExperimentConfig,
    csv: Option<&std::path::Path>,
) -> Result<Vec<RunTelemetry>, ExitCode> {
    let (rows, runs) = experiments::table2(cfg);
    write_csv(
        csv,
        "table2",
        "cycle,proposed,rule_based,proposed_corrected,rule_corrected,dsoc_proposed,dsoc_rule",
        &rows
            .iter()
            .map(|r| {
                format!(
                    "{},{},{},{},{},{},{}",
                    r.cycle,
                    r.proposed,
                    r.rule_based,
                    r.proposed_corrected,
                    r.rule_corrected,
                    r.proposed_delta_soc,
                    r.rule_delta_soc
                )
            })
            .collect::<Vec<_>>(),
    )?;
    table2_print(cfg, &rows);
    Ok(runs)
}

fn table2_print(cfg: &ExperimentConfig, rows: &[experiments::Table2Row]) {
    println!(
        "\n== Table 2: cumulative reward, proposed vs rule-based ({} episodes) ==",
        cfg.episodes
    );
    rule(100);
    println!(
        "{:<8} {:>10} {:>10} {:>14} {:>14} {:>12} {:>12}",
        "cycle", "proposed", "rule", "prop (corr)", "rule (corr)", "dSoC prop", "dSoC rule"
    );
    for r in rows {
        println!(
            "{:<8} {:>10.2} {:>10.2} {:>14.2} {:>14.2} {:>12.4} {:>12.4}",
            r.cycle,
            r.proposed,
            r.rule_based,
            r.proposed_corrected,
            r.rule_corrected,
            r.proposed_delta_soc,
            r.rule_delta_soc
        );
    }
    rule(100);
    println!("(corr = reward with the terminal SoC difference folded in as fuel-equivalent grams)");
    println!(
        "(paper: OSCAR -275.76/-337.50, UDDS -754.85/-849.25, SC03 -284.14/-319.66, \
         HWFET -741.12/-861.68)"
    );
}

fn fig3_target(
    cfg: &ExperimentConfig,
    csv: Option<&std::path::Path>,
) -> Result<Vec<RunTelemetry>, ExitCode> {
    let (rows, runs) = experiments::fig3(cfg);
    write_csv(
        csv,
        "fig3",
        "cycle,proposed_mpg,rule_mpg,improvement_pct",
        &rows
            .iter()
            .map(|r| {
                format!(
                    "{},{},{},{}",
                    r.cycle, r.proposed_mpg, r.rule_mpg, r.improvement_pct
                )
            })
            .collect::<Vec<_>>(),
    )?;
    fig3_print(cfg, &rows);
    Ok(runs)
}

fn fig3_print(cfg: &ExperimentConfig, rows: &[experiments::Fig3Row]) {
    println!(
        "\n== Figure 3: MPG, proposed vs rule-based ({} episodes, SoC-corrected) ==",
        cfg.episodes
    );
    rule(60);
    println!(
        "{:<8} {:>12} {:>12} {:>14}",
        "cycle", "proposed", "rule-based", "improvement"
    );
    for r in rows {
        println!(
            "{:<8} {:>12.1} {:>12.1} {:>13.1}%",
            r.cycle, r.proposed_mpg, r.rule_mpg, r.improvement_pct
        );
    }
    rule(60);
    println!("(paper: up to 29% MPG improvement)");
}

fn dp_bound(cfg: &ExperimentConfig) {
    println!("\n== Offline DP reference bound (full cycle knowledge) ==");
    rule(64);
    println!(
        "{:<8} {:>12} {:>12} {:>10} {:>14}",
        "cycle", "DP reward", "DP mpg", "ECMS mpg", "rule-based mpg"
    );
    for sc in drive_cycle::StandardCycle::paper_set() {
        let cycle = sc.cycle();
        let dp = experiments::run_dp(&cycle, cfg);
        let ecms = experiments::run_ecms(&cycle, cfg);
        let rb = experiments::run_rule_based(&cycle, cfg);
        println!(
            "{:<8} {:>12.2} {:>12.1} {:>10.1} {:>14.1}",
            sc.name(),
            dp.total_reward,
            experiments::corrected_mpg(&dp),
            experiments::corrected_mpg(&ecms),
            experiments::corrected_mpg(&rb),
        );
    }
    rule(64);
}

fn learning_curve(cfg: &ExperimentConfig) {
    println!(
        "\n== Learning curves on UDDS: reduced vs full action space ({} episodes) ==",
        cfg.episodes
    );
    rule(56);
    println!(
        "{:<10} {:>18} {:>18}",
        "episode", "reduced fuel (g)", "full fuel (g)"
    );
    let points: Vec<experiments::LearningCurvePoint> =
        experiments::learning_curve(cfg, cfg.episodes / 20);
    for p in points {
        println!(
            "{:<10} {:>18.1} {:>18.1}",
            p.episode, p.reduced_fuel_g, p.full_fuel_g
        );
    }
    rule(56);
    println!("(§4.3.2: the reduced action space should reach low fuel in fewer episodes)");
}

fn robustness_target(
    cfg: &ExperimentConfig,
    csv: Option<&std::path::Path>,
    checkpoint: Option<&CheckpointOptions>,
) -> Result<(), ExitCode> {
    let rows = robustness::robustness_with(cfg, &robustness::DEFAULT_SEVERITIES, checkpoint)
        .map_err(|e| {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        })?;
    write_csv(
        csv,
        "robustness",
        "severity,proposed_fuel_g,rule_fuel_g,proposed_utility,rule_utility,\
         completed_runs,runs,decisions,rejections,myopic_rescues,rule_rescues,limp_home",
        &rows
            .iter()
            .map(|r| {
                format!(
                    "{},{},{},{},{},{},{},{},{},{},{},{}",
                    r.severity,
                    r.proposed_fuel_g,
                    r.rule_fuel_g,
                    r.proposed_utility,
                    r.rule_utility,
                    r.completed_runs,
                    r.runs,
                    r.degradation.decisions,
                    r.degradation.rejections(),
                    r.degradation.myopic_rescues,
                    r.degradation.rule_rescues,
                    r.degradation.limp_home
                )
            })
            .collect::<Vec<_>>(),
    )?;
    println!(
        "\n== Robustness: fault-severity degradation sweep on OSCAR \
         ({} episodes, supervised proposed vs rule-based) ==",
        cfg.episodes
    );
    rule(100);
    println!(
        "{:<9} {:>13} {:>13} {:>10} {:>10} {:>10} {:>11} {:>9} {:>9}",
        "severity",
        "prop fuel(g)",
        "rule fuel(g)",
        "prop util",
        "rule util",
        "completed",
        "rejections",
        "rescues",
        "limp"
    );
    for r in &rows {
        println!(
            "{:<9.2} {:>13.1} {:>13.1} {:>10.3} {:>10.3} {:>7}/{:<2} {:>11} {:>9} {:>9}",
            r.severity,
            r.proposed_fuel_g,
            r.rule_fuel_g,
            r.proposed_utility,
            r.rule_utility,
            r.completed_runs,
            r.runs,
            r.degradation.rejections(),
            r.degradation.myopic_rescues + r.degradation.rule_rescues,
            r.degradation.limp_home
        );
    }
    rule(100);
    println!(
        "(sensor + plant faults per FaultPlan::new(severity, seed); the supervised controller must \
         complete every faulted cycle)"
    );
    Ok(())
}

fn ablation(title: &str, rows: Vec<hev_bench::AblationRow>) {
    println!("\n== Ablation {title} ==");
    rule(64);
    println!(
        "{:<26} {:>10} {:>10} {:>13}",
        "setting", "reward", "mpg", "mean utility"
    );
    for r in rows {
        println!(
            "{:<26} {:>10.2} {:>10.1} {:>13.3}",
            r.setting, r.reward, r.mpg, r.mean_utility
        );
    }
    rule(64);
}
