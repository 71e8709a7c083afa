//! Deterministic work-stealing executor over scoped threads.
//!
//! Tasks are pulled from a shared queue by index, so thread scheduling
//! decides only *when* a task runs, never *what it computes* or *where
//! its result lands*: each result is written back to the slot of its
//! task index, and the returned vector is in task order. A run is
//! therefore bit-identical at any worker count as long as each task is
//! a pure function of its input — which the training harness guarantees
//! by deriving every run's RNG stream from its own
//! [split seed](crate::harness::split_seed).

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of workers the harness uses when none is requested: the
/// machine's available parallelism (1 if that cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f(index, input)` for every input and returns the results in
/// input order, fanning the tasks across up to `jobs` scoped worker
/// threads.
///
/// `jobs` is clamped to `[1, inputs.len()]`; with one worker (or one
/// input) the tasks run inline on the caller's thread. A panicking task
/// aborts the whole batch: remaining tasks may be skipped and the panic
/// resurfaces on the caller after all workers have stopped. Batches that
/// must survive a bad task use [`run_indexed_caught`] instead.
pub fn run_indexed<T, R, F>(jobs: usize, inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let jobs = jobs.max(1).min(inputs.len().max(1));
    if jobs <= 1 {
        return inputs
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }

    let slots: Vec<Mutex<Option<T>>> = inputs.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..slots.len()).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= slots.len() {
                    break;
                }
                let input = slots[i]
                    .lock()
                    // hevlint::allow(panic::expect, a poisoned input slot means another worker already panicked; crash tolerance is layered above via run_indexed_caught)
                    .expect("task slot poisoned")
                    .take()
                    // hevlint::allow(panic::expect, the atomic counter hands each index to exactly one worker)
                    .expect("task taken twice");
                let result = f(i, input);
                // hevlint::allow(panic::expect, a poisoned result slot means another worker already panicked; crash tolerance is layered above via run_indexed_caught)
                *results[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                // hevlint::allow(panic::expect, propagating a worker panic out of the scope is the executor's documented crash semantics)
                .expect("result slot poisoned")
                // hevlint::allow(panic::expect, every index is claimed and stored exactly once; run_indexed_caught wraps tasks that may panic)
                .expect("worker exited without storing a result")
        })
        .collect()
}

/// How a single caught task ended: its result, or the message of the
/// panic that killed it.
///
/// Produced by [`run_indexed_caught`]; the vector it returns stays in
/// task order, so a panicked task leaves a typed hole rather than
/// shifting its neighbours.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome<R> {
    /// The task completed and produced a result.
    Ok(R),
    /// The task panicked; the batch kept going without it.
    Panicked {
        /// The panic payload rendered as text (`"non-string panic
        /// payload"` when the payload was neither `&str` nor `String`).
        message: String,
    },
}

impl<R> RunOutcome<R> {
    /// The result, or `None` if the task panicked.
    pub fn ok(self) -> Option<R> {
        match self {
            Self::Ok(r) => Some(r),
            Self::Panicked { .. } => None,
        }
    }
}

/// Renders a panic payload as text. `panic!` with a literal carries a
/// `&str`, formatted panics carry a `String`; anything else is opaque.
pub(crate) fn panic_payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`run_indexed`] with per-task panic isolation: a panicking task is
/// caught on its worker and recorded as [`RunOutcome::Panicked`] while
/// every other task runs to completion and keeps its slot.
///
/// Because each input is moved into exactly one task and both the input
/// and any partially-built state are discarded on unwind, the closure is
/// re-entered only for *other* tasks' inputs — no broken invariant can
/// leak between tasks, which is what makes the `AssertUnwindSafe` below
/// sound. Surviving tasks' results are bit-identical to a batch that
/// never contained the panicking task (same inputs, same slots).
pub fn run_indexed_caught<T, R, F>(jobs: usize, inputs: Vec<T>, f: F) -> Vec<RunOutcome<R>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    run_indexed(jobs, inputs, |i, input| {
        match catch_unwind(AssertUnwindSafe(|| f(i, input))) {
            Ok(r) => RunOutcome::Ok(r),
            Err(payload) => RunOutcome::Panicked {
                message: panic_payload_message(payload.as_ref()),
            },
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        for jobs in [1, 2, 8] {
            let out = run_indexed(jobs, (0..100usize).collect(), |i, x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, (0..100usize).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn identical_results_across_worker_counts() {
        let compute = |_: usize, seed: u64| -> u64 {
            // A toy "training run": result depends only on the input.
            let mut h = seed;
            for _ in 0..1000 {
                h = h
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            h
        };
        let serial = run_indexed(1, (0..32u64).collect(), compute);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(run_indexed(jobs, (0..32u64).collect(), compute), serial);
        }
    }

    #[test]
    fn handles_empty_and_single_input() {
        let empty: Vec<u32> = run_indexed(4, Vec::<u32>::new(), |_, x| x);
        assert!(empty.is_empty());
        assert_eq!(run_indexed(4, vec![7u32], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn more_jobs_than_tasks_is_fine() {
        assert_eq!(
            run_indexed(16, vec![1, 2, 3], |_, x| x * 10),
            vec![10, 20, 30]
        );
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn caught_batch_survives_a_panicking_task() {
        for jobs in [1, 2, 8] {
            let out = run_indexed_caught(jobs, (0..16u64).collect(), |_, x| {
                assert!(x != 5, "task 5 exploded");
                x * 3
            });
            assert_eq!(out.len(), 16);
            for (i, outcome) in out.into_iter().enumerate() {
                match outcome {
                    RunOutcome::Panicked { message } => {
                        assert_eq!(i, 5);
                        assert!(message.contains("task 5 exploded"), "msg {message}");
                    }
                    RunOutcome::Ok(r) => assert_eq!(r, i as u64 * 3),
                }
            }
        }
    }

    #[test]
    fn caught_survivors_match_batch_without_bad_task() {
        let compute = |_: usize, seed: u64| -> u64 {
            assert!(seed != 999, "poison");
            seed.wrapping_mul(6364136223846793005)
        };
        let clean: Vec<u64> = run_indexed_caught(4, vec![1, 2, 3, 4], compute)
            .into_iter()
            .map(|o| o.ok().unwrap())
            .collect();
        let with_bad = run_indexed_caught(4, vec![1, 2, 999, 3, 4], compute);
        let survivors: Vec<u64> = with_bad.into_iter().filter_map(RunOutcome::ok).collect();
        assert_eq!(survivors, clean);
    }

    #[test]
    fn caught_all_ok_matches_uncaught() {
        let compute = |i: usize, x: u32| x + i as u32;
        let plain = run_indexed(3, (0..20u32).collect(), compute);
        let caught: Vec<u32> = run_indexed_caught(3, (0..20u32).collect(), compute)
            .into_iter()
            .map(|o| o.ok().unwrap())
            .collect();
        assert_eq!(plain, caught);
    }

    #[test]
    fn non_string_panic_payload_is_labelled() {
        let out = run_indexed_caught(1, vec![0u8], |_, _| -> u8 {
            std::panic::panic_any(42i32);
        });
        assert_eq!(
            out,
            vec![RunOutcome::Panicked {
                message: "non-string panic payload".to_string()
            }]
        );
    }
}
