//! Host-speed probe: a fixed computation timed next to every job and
//! every set-up, so that end-to-end times can be scaled to a host of
//! nominal speed.
//!
//! On a shared host, other tenants slow this process by up to 2.4× for
//! seconds to minutes at a time, and the slowdown hits allocation-heavy,
//! branchy code (the simulator, the model checker, this probe) far more
//! than tight arithmetic loops. A job timed between two probes is scaled
//! by [`NOMINAL_MS`] over the mean of the two probe times, which cancels
//! most of that slowdown while keeping every change of the job's own cost.
//!
//! The probe uses this file and the standard library only. A change to
//! the library crates never changes its time, so a faster or slower
//! library moves the scaled times exactly as it moves the wall times.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The probe's time on a host of nominal speed, in ms: scaled times are
/// wall times multiplied by `NOMINAL_MS / probe time`.
pub const NOMINAL_MS: f64 = 10.0;

/// Strings the probe formats, sorts and counts in one round. Few enough
/// that the probe adds little to the peak resident set.
const LINES: u64 = 5_000;
/// Rounds per probe.
const ROUNDS: u64 = 4;

/// Runs the probe once and returns its wall time in ms. Each round
/// formats [`LINES`] pseudo-random strings, sorts them and counts their
/// prefixes in a hash map.
pub fn probe_ms() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 17;
    for _ in 0..ROUNDS {
        let mut lines = Vec::new();
        for i in 0..LINES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            lines.push(format!("{x:x}-{i}-{:.3}", (x % 1000) as f64 / 7.0));
        }
        lines.sort();
        let mut prefixes = HashMap::new();
        for l in &lines {
            *prefixes.entry(&l[..4]).or_insert(0u32) += 1;
        }
        black_box(prefixes.len());
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// `wall` scaled to nominal host speed, given the probe times taken just
/// before and just after it.
pub fn scale(wall: f64, before_ms: f64, after_ms: f64) -> f64 {
    wall * NOMINAL_MS * 2.0 / (before_ms + after_ms)
}
