//! Wall-clock benchmark of the HEV joint-control workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-eval|dp-sweep|serve-fleet> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit and sample count, then, as
//! the last line, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones. Exits 1 when a correctness check
//! fails and 2 on a usage error. See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod dp_sweep;
mod host;
mod report;
mod reps;
mod serve_fleet;
mod stats;
mod timing;
mod train_eval;

use hev_trace::evals::Counts;
use report::Report;
use stats::percentile;
use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["train-eval", "dp-sweep", "serve-fleet"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// Records a pooled percentile; a refused one reads 0 and says why.
fn put_percentile(report: &mut Report, name: &str, samples: &[f64], p: f64) {
    match percentile(samples, p) {
        Ok(v) => report.put(name, v.value, v.samples),
        Err(e) => {
            report.put(name, 0.0, samples.len());
            report.note(format!("{name}: not reported, {e}"));
        }
    }
}

/// Records the program's own counters for one repetition.
fn put_counts(report: &mut Report, c: &Counts) {
    report.put("model.evals", c.evals as f64, 1);
    report.put("model.batch_lanes", c.batch_lanes as f64, 1);
    report.put("model.batch_calls", c.batch_calls as f64, 1);
    report.put(
        "model.batch_width",
        if c.batch_calls > 0 {
            c.batch_lanes as f64 / c.batch_calls as f64
        } else {
            0.0
        },
        1,
    );
    report.put("model.ctx_rebuilds", c.ctx_rebuilds as f64, 1);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    match args.workload.as_str() {
        "train-eval" => train_eval::run(args.seed, args.seconds, args.trace, &mut report),
        "dp-sweep" => dp_sweep::run(args.seed, args.seconds, args.trace, &mut report),
        _ => serve_fleet::run(args.seed, args.seconds, args.trace, &mut report),
    }
    report.put("trace.clock_ns", reps::clock_ns(), 15);
    match reps::peak_rss_mb() {
        Some(mb) => report.put("peak_rss_mb", mb, 1),
        None => report.check(false, || "VmHWM is not readable".to_string()),
    }
    let metrics = report.select(args.trace);

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &report.notes {
        println!("  {line}");
    }
    println!(
        "{} metrics (name, value, unit, samples):",
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        }
    );
    for m in &metrics {
        println!("{}", report::metric_line(m));
    }
    println!(
        "attempted {} failed {} ({:.6} failed share)",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    const SHOWN: usize = 20;
    for v in report.violations.iter().take(SHOWN) {
        println!("CHECK FAILED: {v}");
    }
    if report.violations.len() > SHOWN {
        println!(
            "CHECK FAILED: ... and {} more",
            report.violations.len() - SHOWN
        );
    }
    let correct = report.correct();
    println!(
        "{}",
        report::result_line(correct, report.attempted, report.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
