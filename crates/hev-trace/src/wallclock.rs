//! The span profiler's wall-clock lane (Harness role under `hevlint`).
//!
//! [`crate::span`] keeps its own hands clean of machine state: it reads
//! wall time only through an installable hook, so the library role's
//! no-wall-clock rule holds for the profiler itself. This module is the
//! one place the hook's `Instant` lives, registered under hevlint's
//! Harness role. Harness code
//! installs the lane per worker thread around a profiled task; the
//! recorded nanoseconds surface only in the human-facing attribution
//! table, never in a determinism-compared artifact.

use std::sync::OnceLock;
use std::time::Instant;

/// One process-wide epoch: all threads measure against the same origin,
/// so per-span deltas are plain monotonic differences.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process epoch (the hook the span module calls
/// through a plain function pointer).
fn wall_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Installs the wall-clock lane on the current thread: spans recorded
/// here also accumulate elapsed wall time until [`uninstall`].
pub fn install() {
    crate::span::set_wall_clock(Some(wall_ns));
}

/// Removes the wall-clock lane from the current thread.
pub fn uninstall() {
    crate::span::set_wall_clock(None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;

    #[test]
    fn installed_lane_times_spans_and_uninstall_stops_it() {
        install();
        span::begin_task();
        {
            let _s = span::enter("timed.lane");
            // Burn enough wall time to register on a nanosecond clock.
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            assert!(acc > 0);
        }
        let timed = span::take_tree();
        uninstall();
        span::begin_task();
        {
            let _s = span::enter("timed.lane");
        }
        let untimed = span::take_tree();
        assert!(timed.root.children["timed.lane"].wall_ns > 0);
        assert_eq!(untimed.root.children["timed.lane"].wall_ns, 0);
        // The deterministic artifact is identical with or without the
        // lane: wall time never serializes.
        assert!(!timed.to_json().contains("wall_ns"));
    }
}
