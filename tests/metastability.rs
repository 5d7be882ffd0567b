//! Experiment E8 — metastability robustness (paper Sections 1, 3.2).
//!
//! The paper: "The current designs use only a pair of synchronizing
//! latches; however, for arbitrary robustness, the designer might use more
//! than two." These tests check both directions: an *under*-synchronized
//! FIFO corrupts under a hostile metastability model, while the paper's
//! two stages (and deeper) survive it; and the analytical MTBF grows
//! exponentially with depth.

use mtf_bench::harness::{Drain, Feed, Harness};
use mtf_core::design::MIXED_CLOCK;
use mtf_core::FifoParams;
use mtf_gates::CellDelays;
use mtf_sim::{mtbf_seconds, MetaModel, Time, ViolationKind};

/// A hostile flop: wide vulnerability window, slow settling — makes
/// synchronizer failures visible in microseconds of simulated time. The
/// window is deliberately huge (1.5 ns): the detectors' raw outputs are
/// recomputed by put-domain events right after most get-domain changes, so
/// only a wide window reliably catches the drifting cross-domain
/// transition as the *last* change before a sampling edge.
fn hostile() -> MetaModel {
    MetaModel {
        window: Time::from_ps(1_500),
        tau: Time::from_ps(2_500),
        max_settle: Time::from_ps(25_000),
    }
}

/// One plesiochronous transfer; returns whether the stream survived and
/// how many metastable samplings occurred.
fn transfer(seed: u64, stages: usize, meta: MetaModel) -> (bool, usize) {
    let mut h = Harness::with_model(seed, CellDelays::hp06(), meta);
    h.clock_nets_both()
        .gen_put(Time::from_ps(9_973))
        .gen_get_phased(Time::from_ps(10_007), Time::from_ps(seed * 997 % 9_000));
    h.build(&MIXED_CLOCK, FifoParams::with_sync_stages(8, 8, stages));
    let items: Vec<u64> = (0..40).collect();
    let feed = Feed::Saturate {
        items: items.clone(),
        bundling: Time::ZERO,
        phase: Time::ZERO,
    };
    let pj = h.feed("prod", feed);
    let n = items.len() as u64;
    let cj = h.drain(
        "cons",
        Drain::Consume {
            n,
            phase: Time::ZERO,
        },
    );
    let ok = h.sim.run_until(Time::from_us(4)).is_ok()
        && pj.len() == items.len()
        && cj.values() == items;
    let events = h.sim.violations_of(ViolationKind::Metastability).count();
    (ok, events)
}

#[test]
fn single_stage_synchronizer_fails_under_hostile_model() {
    let fails = (0..10)
        .filter(|&s| !transfer(100 + s, 1, hostile()).0)
        .count();
    assert!(
        fails >= 5,
        "a 1-stage synchronizer should corrupt most hostile runs (failed {fails}/10)"
    );
}

#[test]
fn papers_two_stages_survive_the_same_model() {
    let mut total_events = 0;
    for s in 0..10 {
        let (ok, events) = transfer(100 + s, 2, hostile());
        assert!(ok, "seed {s}: two stages must survive");
        total_events += events;
    }
    // The runs were not trivially clean: metastable samplings did occur
    // (for some clock phases the beat misses the window — hence the sum).
    assert!(total_events > 0, "the hostile model must actually fire");
}

#[test]
fn deeper_chains_also_survive() {
    for stages in 3..=4 {
        for s in 0..4 {
            let (ok, _) = transfer(300 + s, stages, hostile());
            assert!(ok, "{stages} stages, seed {s}");
        }
    }
}

#[test]
fn realistic_model_is_clean_at_paper_depth() {
    for s in 0..5 {
        let (ok, _) = transfer(500 + s, 2, MetaModel::hp06());
        assert!(
            ok,
            "seed {s}: realistic flops, two stages: no failures expected"
        );
    }
}

#[test]
fn mtbf_grows_exponentially_per_stage() {
    let m = MetaModel::hp06();
    let period = Time::from_ns(2);
    let mtbf_at = |stages: u64| {
        let settle = Time::from_ps(period.as_ps() / 2) + period * (stages - 1);
        mtbf_seconds(settle, m.tau, m.window, 500e6, 500e6)
    };
    let per_stage = (2..=4)
        .map(|k| mtbf_at(k) / mtbf_at(k - 1))
        .collect::<Vec<_>>();
    let expected = (period.as_ps() as f64 / m.tau.as_ps() as f64).exp();
    for r in per_stage {
        assert!(
            (r / expected - 1.0).abs() < 1e-6,
            "each stage multiplies MTBF by e^(T/tau): {r:.3e} vs {expected:.3e}"
        );
    }
    // And the magnitude claim: 4 stages push MTBF past a millennium.
    assert!(mtbf_at(4) > 3.15e10);
}
