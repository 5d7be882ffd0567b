//! Experiment E10 — the paper's "no synchronization overhead" claim
//! (Section 1): "assuming appropriate buffer capacity is used, in
//! steady-state operation the designs have no synchronization overhead —
//! each read and write operation can be completed in one cycle."

use mtf_bench::harness::{Drain, Feed, Harness};
use mtf_core::design::{ASYNC_SYNC, MIXED_CLOCK, MIXED_CLOCK_RS};
use mtf_core::{Clocking, FifoParams};
use mtf_sim::Time;

/// Fraction of consecutive journal entries exactly one `period` apart,
/// over the middle of the run.
fn back_to_back_fraction(times: &[Time], period_ps: u64) -> f64 {
    assert!(times.len() > 40, "need a steady-state window");
    let mid = &times[times.len() / 4..times.len() * 3 / 4];
    let hits = mid
        .windows(2)
        .filter(|w| (w[1] - w[0]).as_ps() == period_ps)
        .count();
    hits as f64 / (mid.len() - 1) as f64
}

/// Saturating items with no asynchronous bundling margin or gap.
fn saturate(items: &[u64]) -> Feed {
    Feed::Saturate {
        items: items.to_vec(),
        bundling: Time::ZERO,
        phase: Time::ZERO,
    }
}

/// A consumer requesting until `n` items arrived.
fn consume(n: usize) -> Drain {
    Drain::Consume {
        n: n as u64,
        phase: Time::ZERO,
    }
}

#[test]
fn mixed_clock_fifo_one_op_per_cycle_both_sides() {
    // Identical frequency, skewed phase: the classic "same speed, different
    // clock tree" SoC case. With 8 places the synchronizer lag is fully
    // hidden.
    let mut h = Harness::new(1);
    h.clock_nets_both()
        .gen_put(Time::from_ns(10))
        .gen_get_phased(Time::from_ns(10), Time::from_ps(4_300));
    h.build(&MIXED_CLOCK, FifoParams::new(8, 8));
    let items: Vec<u64> = (0..200).collect();
    let pj = h.feed("prod", saturate(&items));
    let cj = h.drain("cons", consume(items.len()));
    h.sim.run_until(Time::from_us(6)).unwrap();
    assert_eq!(cj.values(), items);
    let put_b2b = back_to_back_fraction(&pj.times(), 10_000);
    let get_b2b = back_to_back_fraction(&cj.times(), 10_000);
    assert!(
        put_b2b > 0.95,
        "puts complete every cycle (got {put_b2b:.2})"
    );
    assert!(
        get_b2b > 0.95,
        "gets complete every cycle (got {get_b2b:.2})"
    );
}

#[test]
fn mcrs_streams_one_packet_per_cycle() {
    let mut h = Harness::new(2);
    h.clock_nets_both()
        .gen_put(Time::from_ns(10))
        .gen_get_phased(Time::from_ns(10), Time::from_ps(2_900));
    h.build(&MIXED_CLOCK_RS, FifoParams::new(8, 8));
    let packets: Vec<Option<u64>> = (0..200).map(Some).collect();
    let _sj = h.feed("src", Feed::Packets { packets });
    let kj = h.drain("sink", Drain::Sink { stalls: vec![] });
    h.sim.run_until(Time::from_us(6)).unwrap();
    assert_eq!(kj.values(), (0..200).collect::<Vec<u64>>());
    let b2b = back_to_back_fraction(&kj.times(), 10_000);
    assert!(b2b > 0.95, "valid packet every get cycle (got {b2b:.2})");
}

#[test]
fn async_sync_get_side_has_no_overhead() {
    // A fast async producer keeps the FIFO non-empty; the synchronous get
    // side must then deliver one item per clock, exactly as in the
    // mixed-clock design (Table 1's identical get columns).
    let mut h = Harness::new(3);
    h.clock_nets(Clocking::GetOnly)
        .gen_get_phased(Time::from_ns(10), Time::from_ps(1_100));
    h.build(&ASYNC_SYNC, FifoParams::new(8, 8));
    let items: Vec<u64> = (0..200).collect();
    let feed = Feed::Saturate {
        items: items.clone(),
        bundling: Time::from_ps(300),
        phase: Time::ZERO,
    };
    let _ph = h.feed("prod", feed);
    let cj = h.drain("cons", consume(items.len()));
    h.sim.run_until(Time::from_us(8)).unwrap();
    assert_eq!(cj.values(), items);
    let b2b = back_to_back_fraction(&cj.times(), 10_000);
    assert!(b2b > 0.95, "one dequeue per cycle (got {b2b:.2})");
}

#[test]
fn undersized_fifo_does_cost_throughput() {
    // The inverse claim: with capacity too small to hide the synchronizer
    // lag, throughput drops below one op per cycle — the "appropriate
    // buffer capacity" qualifier is real.
    let mut h = Harness::new(4);
    h.clock_nets_both()
        .gen_put(Time::from_ns(10))
        .gen_get_phased(Time::from_ns(10), Time::from_ps(4_300));
    // Capacity 3 (the minimum): detectors keep one cell in reserve and the
    // sync lag eats the rest.
    h.build(&MIXED_CLOCK, FifoParams::new(3, 8));
    let items: Vec<u64> = (0..120).collect();
    let _pj = h.feed("prod", saturate(&items));
    let cj = h.drain("cons", consume(items.len()));
    h.sim.run_until(Time::from_us(20)).unwrap();
    assert_eq!(cj.values(), items, "still correct, just slower");
    let b2b = back_to_back_fraction(&cj.times(), 10_000);
    assert!(
        b2b < 0.9,
        "a 3-place FIFO cannot sustain full rate (got {b2b:.2})"
    );
}
