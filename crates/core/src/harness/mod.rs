//! Deterministic parallel training harness.
//!
//! Experiments fan out over independent training runs (different seeds)
//! and perturbed-replica episodes. Those tasks are embarrassingly
//! parallel *if* no RNG stream is shared between them — so the harness
//! is built around that invariant:
//!
//! * [`split_seed`] derives each task's RNG stream from a single master
//!   seed and the task index (never from thread identity or execution
//!   order);
//! * [`run_indexed`] fans tasks over scoped worker threads, writing
//!   each result back to its task-index slot;
//! * together they make any batch **bit-identical at every worker
//!   count**: same master seed in, same `EpisodeMetrics` and Q-tables
//!   out, whether `jobs` is 1 or 64.
//!
//! Per-run progress and wall-clock timing are emitted as JSON lines
//! through the [`runlog`] sink (stderr or a file — never stdout, which
//! carries the deterministic experiment output).
//!
//! # Example
//!
//! ```
//! use hev_control::harness::{Harness, SeedSequence};
//!
//! let harness = Harness::new(4);
//! let results = harness.run_seeded("demo", 2015, 8, |_k, seed| {
//!     // ... train with `seed`, return metrics ...
//!     seed % 97
//! });
//! // Identical to the serial run:
//! assert_eq!(results, Harness::serial().run_seeded("demo", 2015, 8, |_k, seed| seed % 97));
//! assert_eq!(results.len(), 8);
//! let seq = SeedSequence::new(2015);
//! assert_eq!(seq.child(0) % 97, results[0]);
//! ```

mod executor;
pub mod runlog;
mod seed;

pub use executor::{default_jobs, run_indexed, run_indexed_caught, RunOutcome};
pub use runlog::{RunEvent, RunLog};
pub use seed::{split_seed, SeedSequence};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Domain-separation tag mixed into a task's seed before deriving retry
/// seeds, keeping them disjoint from the `SeedSequence` children the
/// task may split internally ("RTRY" in ASCII, twice).
pub const RETRY_SEED_TAG: u64 = 0x5254_5259_5254_5259;

/// One task of a batch: a label for the run log, the task's derived
/// seed, and an arbitrary payload.
#[derive(Debug, Clone)]
pub struct RunSpec<T> {
    /// Run-log label (e.g. `fig2/UDDS/with/run1`).
    pub label: String,
    /// The task's RNG seed, already split from the master seed.
    pub seed: u64,
    /// Task input.
    pub payload: T,
}

/// A fixed-width parallel runner with run-log reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Harness {
    jobs: usize,
}

impl Harness {
    /// A harness with the given worker count (`0` means
    /// [`default_jobs`]).
    pub fn new(jobs: usize) -> Self {
        Self {
            jobs: if jobs == 0 { default_jobs() } else { jobs },
        }
    }

    /// A single-threaded harness (the reference execution).
    pub fn serial() -> Self {
        Self { jobs: 1 }
    }

    /// A harness sized to the machine's available parallelism.
    pub fn auto() -> Self {
        Self::new(0)
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs a batch of labeled tasks, returning results in task order.
    ///
    /// `f` receives `(task index, task seed, payload)`. Results are
    /// bit-identical at every worker count provided `f` derives all its
    /// randomness from the task seed.
    pub fn run<T, R, F>(&self, group: &str, tasks: Vec<RunSpec<T>>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, u64, T) -> R + Sync,
    {
        let total = tasks.len();
        let batch_t0 = Instant::now();
        runlog::emit(
            &RunEvent::new("batch_start", group)
                .total(total)
                .jobs(self.jobs.min(total.max(1))),
        );
        let results = run_indexed(self.jobs, tasks, |i, spec: RunSpec<T>| {
            let t0 = Instant::now();
            runlog::emit(
                &RunEvent::new("run_start", &spec.label)
                    .index(i)
                    .total(total)
                    .seed(spec.seed),
            );
            let result = f(i, spec.seed, spec.payload);
            runlog::emit(
                &RunEvent::new("run_end", &spec.label)
                    .index(i)
                    .total(total)
                    .seed(spec.seed)
                    .elapsed(t0),
            );
            result
        });
        runlog::emit(
            &RunEvent::new("batch_end", group)
                .total(total)
                .jobs(self.jobs.min(total.max(1)))
                .elapsed(batch_t0),
        );
        results
    }

    /// Runs a batch with per-task panic isolation and bounded
    /// reseed-and-retry.
    ///
    /// Like [`Harness::run`], but a panicking task no longer aborts the
    /// batch: the panic is caught on its worker, logged as a `run_panic`
    /// event (with the panic message in the event's `error` field), and
    /// the task is re-attempted up to `max_retries` times before being
    /// recorded as [`RunOutcome::Panicked`]. Retry `a` runs with seed
    /// `split_seed(task_seed ^ RETRY_SEED_TAG, a)` — derived from the
    /// task's own seed, never from execution order — and is announced by
    /// a `run_retry` event carrying the new seed, so batches stay
    /// bit-identical at every worker count. The tag keeps retry seeds
    /// disjoint from the `SeedSequence::new(task_seed)` children a task
    /// may split internally.
    ///
    /// Payloads must be `Clone` so a retry can restart from the original
    /// input; surviving tasks' results are identical to a batch that
    /// never contained the panicking task.
    ///
    /// When the dying task had a telemetry flight recorder running
    /// (`hev_trace::recorder` mirrors recorded steps into a thread-local
    /// ring), the ring's contents are attached to the run log as a
    /// `flight_dump` event right after `run_panic`, so the steps leading
    /// up to the crash survive it.
    pub fn run_caught<T, R, F>(
        &self,
        group: &str,
        tasks: Vec<RunSpec<T>>,
        max_retries: usize,
        f: F,
    ) -> Vec<RunOutcome<R>>
    where
        T: Send + Sync + Clone,
        R: Send,
        F: Fn(usize, u64, T) -> R + Sync,
    {
        let total = tasks.len();
        let batch_t0 = Instant::now();
        runlog::emit(
            &RunEvent::new("batch_start", group)
                .total(total)
                .jobs(self.jobs.min(total.max(1))),
        );
        let results = run_indexed(self.jobs, tasks, |i, spec: RunSpec<T>| {
            let mut seed = spec.seed;
            let mut attempt = 0usize;
            loop {
                let t0 = Instant::now();
                runlog::emit(
                    &RunEvent::new("run_start", &spec.label)
                        .index(i)
                        .total(total)
                        .seed(seed),
                );
                let payload = spec.payload.clone();
                // The catch and the task share this worker thread, so the
                // thread-local panic ring observed after a catch is
                // exactly the dying task's (cleared here so a previous
                // task's ring can't leak in).
                hev_trace::recorder::clear_panic_ring();
                match catch_unwind(AssertUnwindSafe(|| f(i, seed, payload))) {
                    Ok(result) => {
                        runlog::emit(
                            &RunEvent::new("run_end", &spec.label)
                                .index(i)
                                .total(total)
                                .seed(seed)
                                .elapsed(t0),
                        );
                        return RunOutcome::Ok(result);
                    }
                    Err(payload) => {
                        let message = executor::panic_payload_message(payload.as_ref());
                        runlog::emit(
                            &RunEvent::new("run_panic", &spec.label)
                                .index(i)
                                .total(total)
                                .seed(seed)
                                .elapsed(t0)
                                .error(&message),
                        );
                        let ring = hev_trace::recorder::take_panic_ring();
                        if !ring.is_empty() {
                            let events: Vec<serde::Value> = ring
                                .iter()
                                .map(|line| {
                                    serde_json::from_str::<serde::Value>(line)
                                        .unwrap_or_else(|_| serde::Value::Str(line.clone()))
                                })
                                .collect();
                            runlog::emit(
                                &RunEvent::new("flight_dump", &spec.label)
                                    .index(i)
                                    .total(total)
                                    .seed(seed)
                                    .metrics(serde::Value::Seq(events)),
                            );
                        }
                        if attempt >= max_retries {
                            return RunOutcome::Panicked { message };
                        }
                        attempt += 1;
                        seed = split_seed(spec.seed ^ RETRY_SEED_TAG, attempt as u64);
                        runlog::emit(
                            &RunEvent::new("run_retry", &spec.label)
                                .index(i)
                                .total(total)
                                .seed(seed),
                        );
                    }
                }
            }
        });
        runlog::emit(
            &RunEvent::new("batch_end", group)
                .total(total)
                .jobs(self.jobs.min(total.max(1)))
                .elapsed(batch_t0),
        );
        results
    }

    /// Runs `n` seed-split tasks: task `k` gets seed
    /// `split_seed(master_seed, k)` and label `<group>/run<k>`.
    pub fn run_seeded<R, F>(&self, group: &str, master_seed: u64, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, u64) -> R + Sync,
    {
        let seq = SeedSequence::new(master_seed);
        let tasks = (0..n)
            .map(|k| RunSpec {
                label: format!("{group}/run{k}"),
                seed: seq.child(k as u64),
                payload: (),
            })
            .collect();
        self.run(group, tasks, |i, seed, ()| f(i, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_jobs_means_available_parallelism() {
        assert_eq!(Harness::new(0).jobs(), default_jobs());
        assert_eq!(Harness::auto().jobs(), default_jobs());
        assert_eq!(Harness::serial().jobs(), 1);
        assert_eq!(Harness::new(5).jobs(), 5);
    }

    #[test]
    fn run_seeded_matches_serial_at_any_width() {
        let work = |_k: usize, seed: u64| {
            // Deterministic pseudo-training keyed only on the seed.
            (0..100).fold(seed, |h, _| h.rotate_left(7) ^ 0x2545_F491_4F6C_DD1D)
        };
        let reference = Harness::serial().run_seeded("t", 99, 16, work);
        for jobs in [2, 4, 16] {
            assert_eq!(Harness::new(jobs).run_seeded("t", 99, 16, work), reference);
        }
    }

    #[test]
    fn run_seeded_uses_split_seeds() {
        let seeds = Harness::serial().run_seeded("t", 2015, 4, |_, s| s);
        assert_eq!(seeds, SeedSequence::new(2015).children(4));
    }

    fn specs(n: u64) -> Vec<RunSpec<u64>> {
        let seq = SeedSequence::new(7);
        (0..n)
            .map(|k| RunSpec {
                label: format!("t/{k}"),
                seed: seq.child(k),
                payload: k,
            })
            .collect()
    }

    #[test]
    fn run_caught_batch_completes_and_survivors_match() {
        let work = |_i: usize, seed: u64, payload: u64| {
            assert!(payload != 3, "payload 3 always dies");
            seed.wrapping_mul(payload | 1)
        };
        // Retries re-derive the seed, but payload 3 panics regardless of
        // seed, so it exhausts its retries and stays Panicked.
        for jobs in [1, 2, 8] {
            let out = Harness::new(jobs).run_caught("t", specs(6), 2, work);
            assert_eq!(out.len(), 6);
            assert!(out[3].is_panicked());
            let clean: Vec<u64> = {
                let mut s = specs(6);
                s.remove(3);
                Harness::new(jobs).run("t", s, work)
            };
            let survivors: Vec<u64> = out.into_iter().filter_map(RunOutcome::ok).collect();
            assert_eq!(survivors, clean);
        }
    }

    #[test]
    fn run_caught_retry_succeeds_with_derived_seed() {
        // Fails on the original seed only; any retry seed succeeds.
        let orig = specs(4)[2].seed;
        let work = move |_i: usize, seed: u64, _p: u64| {
            assert!(seed != orig, "first attempt dies");
            seed
        };
        let out = Harness::serial().run_caught("t", specs(4), 1, work);
        let expected_retry_seed = split_seed(orig ^ RETRY_SEED_TAG, 1);
        assert_eq!(out[2].as_ok(), Some(&expected_retry_seed));
        // Zero retries: the task stays dead.
        let out = Harness::serial().run_caught("t", specs(4), 0, work);
        assert!(out[2].is_panicked());
        assert!(out[2]
            .panic_message()
            .unwrap()
            .contains("first attempt dies"));
    }

    #[test]
    fn run_caught_without_panics_matches_run() {
        let work = |i: usize, seed: u64, payload: u64| (i as u64) ^ seed ^ payload;
        let plain = Harness::new(4).run("t", specs(8), work);
        let caught: Vec<u64> = Harness::new(4)
            .run_caught("t", specs(8), 3, work)
            .into_iter()
            .map(|o| o.ok().unwrap())
            .collect();
        assert_eq!(plain, caught);
    }

    #[test]
    fn run_preserves_task_order_and_payloads() {
        let tasks: Vec<RunSpec<u64>> = (0..10)
            .map(|k| RunSpec {
                label: format!("t/{k}"),
                seed: k,
                payload: k * 100,
            })
            .collect();
        let out = Harness::new(4).run("t", tasks, |i, seed, payload| (i as u64, seed, payload));
        for (i, (idx, seed, payload)) in out.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*seed, i as u64);
            assert_eq!(*payload, i as u64 * 100);
        }
    }
}
