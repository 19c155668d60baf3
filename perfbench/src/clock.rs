//! The benchmark's only wall-clock source. Every duration the benchmark
//! reports is a difference of two [`now`] readings, so the one waiver
//! below is the whole of its clock use.

use std::time::Instant;

/// The current instant.
pub fn now() -> Instant {
    // lint: allow(DET-TIME) — benchmark timing only: readings are reported
    // as measurements and never reach a program input or a checked output.
    Instant::now()
}

/// Seconds from `start` to now.
pub fn secs_since(start: Instant) -> f64 {
    (now() - start).as_secs_f64()
}

/// Milliseconds between two readings.
pub fn ms_between(start: Instant, end: Instant) -> f64 {
    (end - start).as_secs_f64() * 1e3
}
