//! A deterministic parallel sweep harness.
//!
//! Every experiment in this crate is a *sweep*: a grid of independent
//! cells (design × capacity × width, latency alignment steps, robustness
//! seeds × synchronizer depths), each of which builds its own [`Simulator`]
//! from scratch and runs to completion. The cells share no mutable state,
//! so they can fan out across cores — but the *output* must stay
//! byte-identical to a serial run, because the printed tables double as
//! golden regression artifacts.
//!
//! [`SweepRunner`] provides exactly that contract:
//!
//! * cells are claimed by worker threads from an atomic work index
//!   (dynamic load balancing — Table 1 cells vary ~10× in runtime), and
//! * results are written into per-index slots and handed back **in input
//!   order**, so callers print them exactly as a serial loop would.
//!
//! Determinism is inherited, not imposed: each cell seeds its own
//! simulator, so a cell's value is a pure function of its input and the
//! schedule of threads cannot change it — only the wall-clock time.
//!
//! Built on `std::thread::scope` (Rust ≥ 1.63) rather than an external
//! thread pool (`rayon`/`crossbeam`): the workspace takes no dependencies
//! beyond the simulator's RNG, the pools' extra features (splitting,
//! nested parallelism) buy nothing for flat grids, and scoped threads
//! borrow the cell inputs and closure without any `'static` gymnastics.
//!
//! [`Simulator`]: mtf_sim::Simulator

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Returns the number of worker threads `--jobs` defaults to: the
/// machine's available parallelism (1 if it cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A fixed-width pool for embarrassingly parallel sweeps with
/// deterministic, input-ordered results. See the module docs for the
/// design contract.
#[derive(Clone, Copy, Debug)]
pub struct SweepRunner {
    jobs: usize,
}

impl SweepRunner {
    /// A runner with `jobs` worker threads (clamped to ≥ 1).
    pub fn new(jobs: usize) -> Self {
        SweepRunner { jobs: jobs.max(1) }
    }

    /// A runner that executes cells inline on the calling thread.
    pub fn serial() -> Self {
        SweepRunner { jobs: 1 }
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps `f` over `items`, returning the results in input order.
    ///
    /// `f` receives the cell's index and a reference to the cell input;
    /// it must be a pure function of those (up to wall-clock time) for
    /// the parallel and serial schedules to agree — which every sweep in
    /// this crate satisfies by building a freshly seeded simulator per
    /// cell. With one job (or ≤ 1 item) no threads are spawned at all:
    /// the serial fallback *is* the plain loop, not a degenerate pool.
    ///
    /// # Panics
    ///
    /// A panic inside `f` propagates to the caller once all workers have
    /// stopped claiming new cells.
    pub fn run<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        if self.jobs == 1 || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..self.jobs.min(items.len()) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let out = f(i, item);
                    *slots[i].lock().expect("no other panic on this slot") = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("slot mutex poisoned")
                    .expect("every index was claimed by exactly one worker")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let r = SweepRunner::new(8);
        let out = r.run(&items, |i, &x| {
            // Vary per-cell runtime so claims interleave across workers.
            std::thread::sleep(std::time::Duration::from_micros((x % 7) * 50));
            (i as u64) * 1000 + x * x
        });
        let want: Vec<u64> = items.iter().map(|&x| x * 1000 + x * x).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u32> = (0..37).collect();
        let f = |_i: usize, &x: &u32| x.wrapping_mul(2654435761) >> 7;
        let serial = SweepRunner::serial().run(&items, f);
        let parallel = SweepRunner::new(4).run(&items, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let r = SweepRunner::new(4);
        let empty: Vec<u32> = vec![];
        assert!(r.run(&empty, |_, &x| x).is_empty());
        assert_eq!(r.run(&[5u32], |i, &x| x + i as u32), vec![5]);
    }

    #[test]
    fn jobs_clamped_to_one() {
        assert_eq!(SweepRunner::new(0).jobs(), 1);
    }
}
