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

use std::time::Instant;

/// Domain-separation tag mixed into a task's seed before deriving retry
/// seeds (a quarantined serve session's rebuilds), keeping them disjoint
/// from the `SeedSequence` children the task may split internally
/// ("RTRY" in ASCII, twice).
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
