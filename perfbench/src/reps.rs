//! Repetition scheduling and the report tail shared by every workload.
//!
//! A run times repetitions of one fixed unit of work until the run's
//! seconds are spent. Untraced repetitions give the end-to-end figures;
//! in a traced run untraced and traced repetitions alternate (ABBA) so
//! both see the same machine conditions and their difference is the
//! tracing overhead. Every repetition's program counters are kept so the
//! correctness gate can demand they repeat exactly. Between repetitions
//! the host's speed is sampled (see [`crate::host`]).

use crate::host::Reference;
use crate::report::Report;
use crate::stats::{mean, median, Tail};
use hev_trace::evals::{self, Counts};
use std::time::{Duration, Instant};

/// Repetitions timed even when the seconds run out first.
pub const MIN_REPS: usize = 3;

/// Set-up samples taken before the first repetition.
pub const SETUP_REPS: usize = 15;

/// Shortest wall time one set-up sample covers, s. Set-ups faster than
/// this are repeated within the sample and the sample is divided by the
/// count, so microsecond set-ups are timed well above clock resolution.
pub const SETUP_SAMPLE_S: f64 = 0.01;

/// Share of each round's time spent sampling the host's speed.
pub const HOST_SHARE: f64 = 0.1;

/// What a workload's repetition reports to the shared tail.
pub trait Outcome {
    /// Everything that went wrong, one line each.
    fn problems(&self) -> &[String];
    /// Operations attempted and operations failed.
    fn ops(&self) -> (u64, u64);
    /// Operations that succeeded; by default those that did not fail.
    fn succeeded(&self) -> u64 {
        let (attempted, failed) = self.ops();
        attempted - failed
    }
    /// True when the program's results equal `first`'s bit for bit.
    fn same_results(&self, first: &Self) -> bool;
    /// Seconds spent in the workload's timed calls.
    fn busy_s(&self) -> f64;
}

/// One repetition's result plus the program counters it moved.
pub struct Sample<R> {
    /// What the repetition measured.
    pub value: R,
    /// Counter deltas over the repetition.
    pub counts: Counts,
}

/// Every repetition of one run.
pub struct Reps<R> {
    /// The untimed warm-up repetitions (untraced first, then traced in
    /// a traced run).
    pub warmup: Vec<Sample<R>>,
    /// Timed untraced repetitions.
    pub plain: Vec<Sample<R>>,
    /// Timed traced repetitions (empty in an untraced run).
    pub traced: Vec<Sample<R>>,
    /// The host's speed over the run.
    pub host: Reference,
}

fn sample<R>(traced: bool, rep: &mut impl FnMut(bool) -> R) -> Sample<R> {
    let before = evals::counts();
    let value = rep(traced);
    Sample {
        value,
        counts: evals::counts().since(&before),
    }
}

/// Runs `rep(traced)` after one warm-up per kind until `seconds` have
/// passed and each kind has at least [`MIN_REPS`] repetitions. `between`
/// runs before each round, outside the counter window; the workloads use
/// it to time one more set-up, so set-up time is sampled across the
/// whole run like everything else. After each round the host's speed is
/// sampled for [`HOST_SHARE`] of the round's time.
pub fn repeat<R>(
    seconds: f64,
    trace: bool,
    mut between: impl FnMut(),
    mut rep: impl FnMut(bool) -> R,
) -> Reps<R> {
    let mut warmup = vec![sample(false, &mut rep)];
    if trace {
        warmup.push(sample(true, &mut rep));
    }
    let mut host = Reference::new();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut round = 0usize;
    while start.elapsed() < budget || plain.len() < MIN_REPS || (trace && traced.len() < MIN_REPS) {
        between();
        let t0 = Instant::now();
        if !trace {
            plain.push(sample(false, &mut rep));
        } else if round.is_multiple_of(2) {
            plain.push(sample(false, &mut rep));
            traced.push(sample(true, &mut rep));
        } else {
            traced.push(sample(true, &mut rep));
            plain.push(sample(false, &mut rep));
        }
        host.sample_for(HOST_SHARE * t0.elapsed().as_secs_f64());
        round += 1;
    }
    Reps {
        warmup,
        plain,
        traced,
        host,
    }
}

impl<R> Reps<R> {
    /// The timed repetitions of one kind.
    pub fn timed(&self, traced: bool) -> Vec<&R> {
        let reps = if traced { &self.traced } else { &self.plain };
        reps.iter().map(|s| &s.value).collect()
    }

    /// Every repetition, warm-ups included.
    fn all(&self) -> impl Iterator<Item = &Sample<R>> {
        self.warmup
            .iter()
            .chain(self.plain.iter())
            .chain(self.traced.iter())
    }

    /// The first repetition's result, which every other must equal.
    pub fn first(&self) -> &R {
        &self.warmup[0].value
    }

    /// The counter deltas every repetition shares; records a violation
    /// when any repetition — warm-up, untraced or traced — differs from
    /// the first.
    fn check_counts(&self, report: &mut Report) -> Counts {
        let first = self.warmup[0].counts;
        for (i, s) in self.all().enumerate() {
            report.check(s.counts == first, || {
                format!(
                    "repetition {i} moved the program counters by {:?}, repetition 0 by {first:?}",
                    s.counts
                )
            });
        }
        first
    }

    /// Records a time, in any unit, at nominal host speed as `name` and
    /// as measured as `raw.<name>`.
    pub fn put_time(&self, report: &mut Report, name: &str, time: f64, samples: usize) {
        report.put(name, time * self.host.speed(), samples);
        report.put(&format!("raw.{name}"), time, samples);
    }

    /// Records work per second over the untraced repetitions, Σ work ÷
    /// Σ seconds of what `f` returns as `(work, seconds)`, at nominal
    /// host speed as `name` and as measured as `raw.<name>`.
    pub fn put_rate(&self, report: &mut Report, name: &str, f: impl Fn(&R) -> (f64, f64)) {
        let (work, seconds) = self
            .timed(false)
            .into_iter()
            .map(f)
            .fold((0.0, 0.0), |(w, s), (dw, ds)| (w + dw, s + ds));
        let rate = if seconds > 0.0 { work / seconds } else { 0.0 };
        report.put(name, rate / self.host.speed(), self.plain.len());
        report.put(&format!("raw.{name}"), rate, self.plain.len());
    }

    /// Records `latency_us_p50` and `latency_us_p99`: the mean over the
    /// given tails of each one's percentile. A mean moves smoothly with
    /// the share of a run the shared host spent fast or slow, where a
    /// median over repetitions jumps between the two.
    pub fn put_latency(&self, report: &mut Report, tails: &[Tail]) {
        let samples = tails.iter().map(|t| t.samples).min().unwrap_or(0);
        let p50: Vec<f64> = tails.iter().map(|t| t.p50).collect();
        let p99: Vec<f64> = tails.iter().map(|t| t.p99).collect();
        self.put_time(report, "latency_us_p50", mean(&p50).unwrap_or(0.0), samples);
        self.put_time(report, "latency_us_p99", mean(&p99).unwrap_or(0.0), samples);
        report.note(format!(
            "latency_us_*: mean over {} tails of at least {samples} timed samples each",
            tails.len()
        ));
    }
}

impl<R: Outcome> Reps<R> {
    /// The report tail every workload shares: the counter, problem and
    /// result checks, the attempted and failed operations of the timed
    /// repetitions, `success_share`, `setup_s` (median of `setup_s`),
    /// the host's speed and, in a traced run, the tracing overhead.
    /// Returns the counter deltas every repetition shares.
    pub fn finish(&self, report: &mut Report, setup_s: &[f64]) -> Counts {
        let counts = self.check_counts(report);
        let first = self.first();
        for (i, s) in self.all().enumerate() {
            for p in s.value.problems() {
                report.check(false, || format!("repetition {i}: {p}"));
            }
            report.check(s.value.same_results(first), || {
                format!("repetition {i}: the program's results differ from repetition 0")
            });
        }
        report.check(self.host.deterministic, || {
            "the host reference kernel's checksum changed between calls".to_string()
        });
        let (mut attempted, mut failed, mut succeeded) = (0, 0, 0);
        for s in self.plain.iter().chain(&self.traced) {
            let (a, f) = s.value.ops();
            attempted += a;
            failed += f;
            succeeded += s.value.succeeded();
        }
        report.attempted += attempted;
        report.failed += failed;
        report.put(
            "success_share",
            succeeded as f64 / attempted.max(1) as f64,
            attempted as usize,
        );
        self.put_time(
            report,
            "setup_s",
            median(setup_s).unwrap_or(0.0),
            setup_s.len(),
        );
        report.put("host.speed", self.host.speed(), self.host.times_ms.len());
        report.note(format!(
            "host speed {:.4}: the reference kernel took {:.3} ms per call over {} calls, {} ms at nominal speed",
            self.host.speed(),
            self.host.mean_ms(),
            self.host.times_ms.len(),
            crate::host::NOMINAL_MS
        ));

        if !self.traced.is_empty() {
            let busy = |reps: &[Sample<R>]| -> Vec<f64> {
                reps.iter().map(|s| s.value.busy_s()).collect()
            };
            if let (Some(plain), Some(traced)) =
                (median(&busy(&self.plain)), median(&busy(&self.traced)))
            {
                report.put(
                    "trace.overhead_pct",
                    (traced / plain - 1.0) * 100.0,
                    self.plain.len().min(self.traced.len()),
                );
            }
        }
        counts
    }
}

/// Times one set-up sample: runs `build` until [`SETUP_SAMPLE_S`] have
/// passed, at least once, and appends the mean wall time of one build
/// to `times`. Returns the last build.
pub fn setup_sample<T>(times: &mut Vec<f64>, mut build: impl FnMut() -> T) -> T {
    let t0 = Instant::now();
    let mut builds = 0u32;
    loop {
        let out = build();
        builds += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= SETUP_SAMPLE_S {
            times.push(elapsed / f64::from(builds));
            return out;
        }
        drop(out);
    }
}

/// Takes [`SETUP_REPS`] set-up samples, keeping the last build and every
/// sample's time per build in seconds.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        last = Some(setup_sample(&mut times, &mut build));
    }
    (last.expect("SETUP_REPS is non-zero"), times)
}

/// The process's peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The cost of one `Instant::now()` read, ns: the median of 15 batches
/// of 10 000 reads.
pub fn clock_ns() -> f64 {
    const READS: u32 = 10_000;
    let batches: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            t0.elapsed().as_secs_f64() * 1e9 / f64::from(READS)
        })
        .collect();
    median(&batches).unwrap_or(0.0)
}
