//! Experiment E7 — the bi-modal empty detector's deadlock-avoidance claim
//! (paper Section 3.2).
//!
//! A plain anticipating-empty detector declares a one-item FIFO "empty"
//! and would stall the receiver forever with the item stranded inside. The
//! bi-modal `ne`/`oe` combination must serve it. These tests attack the
//! one-item state from every schedule proptest can dream up.

use mtf_core::design::MIXED_CLOCK;
use mtf_core::env::{SyncConsumer, SyncProducer};
use mtf_core::{ClockInputs, DesignKind, FifoParams, MixedTimingDesign};
use mtf_gates::Builder;
use mtf_lis::chain::{run_chain, ChainDrive, ChainSpec};
use mtf_mc::designs::{fifo_model, BUDGET, SYNC_STAGES};
use mtf_mc::{check_chain, check_fifo, ChainModel, Property};
use mtf_sim::{ClockGen, Simulator, Time};
use proptest::prelude::*;

/// Runs one scenario; returns (items out, producer accepted count).
fn run(
    seed: u64,
    capacity: usize,
    t_put_ps: u64,
    t_get_ps: u64,
    items: &[u64],
    put_every: u64,
    get_every: u64,
) -> (Vec<u64>, usize) {
    let mut sim = Simulator::new(seed);
    let clk_put = sim.net("clk_put");
    let clk_get = sim.net("clk_get");
    ClockGen::spawn_simple(&mut sim, clk_put, Time::from_ps(t_put_ps));
    ClockGen::builder(Time::from_ps(t_get_ps))
        .phase(Time::from_ps(seed % t_get_ps))
        .spawn(&mut sim, clk_get);
    let mut b = Builder::new(&mut sim);
    let clocks = ClockInputs {
        clk_put: Some(clk_put),
        clk_get: Some(clk_get),
    };
    let f = MIXED_CLOCK.build(&mut b, FifoParams::new(capacity, 8), clocks);
    drop(b.finish());
    let (req_put, full) = (f.req_put.unwrap(), f.full.unwrap());
    let pj = SyncProducer::spawn_every(
        &mut sim,
        "prod",
        clk_put,
        req_put,
        &f.data_put,
        full,
        items.to_vec(),
        put_every,
    );
    let (req_get, valid_get) = (f.req_get.unwrap(), f.valid_get.unwrap());
    let cj = SyncConsumer::spawn_every(
        &mut sim,
        "cons",
        clk_get,
        req_get,
        &f.data_get,
        valid_get,
        items.len() as u64,
        get_every,
    );
    // Generous horizon: every schedule below finishes well within this.
    let horizon = Time::from_ps(
        (items.len() as u64 + 60) * t_put_ps.max(t_get_ps) * put_every.max(get_every) * 4,
    );
    sim.run_until(horizon).expect("no simulator error");
    (cj.values(), pj.len())
}

/// The distilled deadlock case: exactly one item, receiver already
/// requesting. `oe` must dominate and deliver it.
#[test]
fn one_item_is_always_served() {
    for seed in 0..8 {
        let (got, _) = run(seed, 4, 10_000, 13_000, &[0xEE], 1, 1);
        assert_eq!(got, vec![0xEE], "seed {seed}: the last item deadlocked");
    }
}

/// The paper's subtle sub-case: a get drains the FIFO to one item and the
/// receiver *keeps* requesting — `ne` must first block the underflow, then
/// `oe` must un-stall for the survivor.
#[test]
fn drain_to_one_then_fetch() {
    for seed in 0..6 {
        let items = [1u64, 2, 3];
        let (got, _) = run(seed, 4, 9_000, 9_500, &items, 1, 1);
        assert_eq!(got, items.to_vec(), "seed {seed}");
    }
}

/// Trickle gets: after each dequeue the receiver goes idle, so every item
/// exercises the oe-dominates-after-idle path.
#[test]
fn idle_gaps_between_gets() {
    let items: Vec<u64> = (10..30).collect();
    let (got, _) = run(3, 4, 10_000, 11_000, &items, 1, 9);
    assert_eq!(got, items);
}

/// The heterogeneous-chain version of the deadlock attack: an async
/// micropipeline head feeds an ASRS, then an MCRS boundary into a third
/// clock domain, and the sink raises `stopIn` for long windows early on —
/// while the upstream ASRS is still mid-handshake filling the chain. If
/// either boundary's bi-modal `ne`/`oe` empty detector wedged (declared
/// empty and never re-armed), the stranded items would never reach the
/// sink and the delivered list would come up short.
#[test]
fn heterogeneous_chain_survives_sink_backpressure_mid_handshake() {
    let spec = ChainSpec::new(8, 4)
        .with_async_head(3)
        .segment(10_000, 0, 2)
        .boundary("mixed_clock_rs")
        .segment(14_000, 3_700, 2);
    let items = 48;
    // Stall the sink almost immediately (cycle 2), long before the async
    // producer's four-phase handshakes have filled the pipeline, then
    // again mid-drain; each window forces occupancy to the one-item edge
    // cases on release.
    let drive = ChainDrive::with_stalls(7, items, 8, vec![(2, 40), (44, 46), (60, 110)]);
    let run = run_chain(&spec, &drive).expect("chain elaborates and runs");
    assert_eq!(
        run.sent.len(),
        items,
        "source wedged: upstream back-pressure never released"
    );
    assert_eq!(
        run.delivered, run.sent,
        "items lost or reordered — a boundary deadlocked under stopIn"
    );
    for b in &run.report.boundaries {
        assert_eq!(
            b.put_accepts, b.get_delivers,
            "boundary {} stranded items",
            b.design
        );
    }
}

/// Formal twin of [`one_item_is_always_served`]: the same claim decided
/// exhaustively instead of by schedule sampling. The abstract mixed-clock
/// model with a single token proves empty-liveness over *every* fair
/// schedule — the `oe` path always serves the stranded item — while the
/// paper's broken detector (anticipating `ne` alone) refutes exactly this
/// property. The sampled simulation above must agree with the proof.
#[test]
fn formal_twin_one_item_is_always_served() {
    let mut model = fifo_model(DesignKind::MixedClock, 4);
    model.max_tokens = 1;
    let check = check_fifo(&model, BUDGET).expect("in budget");
    assert!(
        check.is_clean(),
        "{}",
        check.first_counterexample().unwrap()
    );

    let broken = fifo_model(DesignKind::MixedClock, 4).anticipating_only();
    let refuted = check_fifo(&broken, BUDGET).expect("in budget");
    assert!(
        !refuted
            .verdict(Property::EmptyLiveness)
            .expect("checked")
            .holds(),
        "the ne-only detector must wedge — that is the deadlock this file attacks"
    );

    // Simulation side of the twin: same one-item scenario, item served.
    let (got, _) = run(1, 4, 10_000, 13_000, &[0xEE], 1, 1);
    assert_eq!(got, vec![0xEE], "simulation disagrees with the proof");
}

/// Formal twin of
/// [`heterogeneous_chain_survives_sink_backpressure_mid_handshake`]: the
/// two-boundary chain model at cap 3+4, where the sink may stop
/// requesting at *any* round (every stopIn window, not three sampled
/// ones), proves lossless, deadlock-free and live. The simulated stopIn
/// scenario must agree with the exhaustive verdict.
#[test]
fn formal_twin_heterogeneous_chain_stop_in_mid_handshake() {
    let check = check_chain(&ChainModel::new(3, 4, SYNC_STAGES), 1 << 22).expect("in budget");
    assert!(
        check.is_clean(),
        "{}",
        check.first_counterexample().unwrap()
    );

    let spec = ChainSpec::new(8, 4)
        .with_async_head(3)
        .segment(10_000, 0, 2)
        .boundary("mixed_clock_rs")
        .segment(14_000, 3_700, 2);
    let drive = ChainDrive::with_stalls(7, 48, 8, vec![(2, 40), (44, 46), (60, 110)]);
    let run = run_chain(&spec, &drive).expect("chain elaborates and runs");
    assert_eq!(run.sent.len(), 48, "source wedged");
    assert_eq!(
        run.delivered, run.sent,
        "simulation disagrees with the proof"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any item count, any capacity, any clock pair within the 2x
    /// envelope, any duty pattern: everything in must come out, in order,
    /// with nothing left behind.
    #[test]
    fn no_schedule_deadlocks_or_reorders(
        seed in 0u64..1_000,
        capacity in 3usize..10,
        t_put in 8_000u64..16_000,
        ratio_pct in 60u64..190, // t_get = t_put * ratio / 100, inside 2x either way
        n_items in 1usize..24,
        put_every in 1u64..5,
        get_every in 1u64..5,
    ) {
        let t_get = (t_put * ratio_pct / 100).max(t_put / 2 + 500).min(t_put * 2 - 500);
        let items: Vec<u64> = (0..n_items as u64).map(|i| (i * 29 + seed) % 256).collect();
        let (got, accepted) = run(seed, capacity, t_put, t_get, &items, put_every, get_every);
        prop_assert_eq!(accepted, items.len(), "producer stalled forever");
        prop_assert_eq!(got, items, "loss, duplication, reorder, or deadlock");
    }
}
