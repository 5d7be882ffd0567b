//! Experiment E9 — relay-station chains across timing boundaries
//! (paper Section 5, Figs. 11 and 14).

use mtf_async::{micropipeline, FourPhaseProducer};
use mtf_bench::harness::{Drain, Feed, Harness};
use mtf_core::design::{ASYNC_SYNC_RS, MIXED_CLOCK_RS};
use mtf_core::env::{PacketSink, PacketSource};
use mtf_core::{ClockInputs, FifoParams, MixedTimingDesign};
use mtf_gates::Builder;
use mtf_lis::{connect, connect_bus, splice_stream_design, RelayChain};
use mtf_sim::{ClockGen, Simulator, Time};

/// Full Fig. 11a topology with a clock boundary: SRS chain → MCRS → SRS
/// chain, under an adversarial stall schedule. The boundary design goes
/// in through the design layer (`splice_stream_design` takes any
/// registered stream-protocol design).
fn mixed_clock_system(
    seed: u64,
    t_a_ps: u64,
    t_b_ps: u64,
    stations_a: usize,
    stations_b: usize,
    stalls: Vec<(u64, u64)>,
    n: u64,
) -> (Vec<u64>, Vec<u64>) {
    let mut sim = Simulator::new(seed);
    let clk_a = sim.net("clk_a");
    let clk_b = sim.net("clk_b");
    ClockGen::spawn_simple(&mut sim, clk_a, Time::from_ps(t_a_ps));
    ClockGen::builder(Time::from_ps(t_b_ps))
        .phase(Time::from_ps(seed % t_b_ps))
        .spawn(&mut sim, clk_b);
    let chain_a = RelayChain::spawn(&mut sim, "a", clk_a, 8, stations_a, Time::from_ns(1));
    let chain_b = RelayChain::spawn(&mut sim, "b", clk_b, 8, stations_b, Time::from_ns(1));
    splice_stream_design(
        &mut sim,
        &MIXED_CLOCK_RS,
        FifoParams::new(8, 8),
        clk_a,
        clk_b,
        &chain_a.port,
        &chain_b.port,
    )
    .expect("MCRS is a stream design");

    let packets: Vec<Option<u64>> = (0..n).map(|v| Some(v % 256)).collect();
    let sj = PacketSource::spawn(
        &mut sim,
        "src",
        clk_a,
        chain_a.port.in_valid,
        &chain_a.port.in_data,
        chain_a.port.stop_out,
        packets,
    );
    let kj = PacketSink::spawn(
        &mut sim,
        "sink",
        clk_b,
        &chain_b.port.out_data,
        chain_b.port.out_valid,
        chain_b.port.stop_in,
        stalls,
    );
    sim.run_until(Time::from_us(40)).unwrap();
    (sj.values(), kj.values())
}

#[test]
fn boundary_chain_is_lossless() {
    let (sent, got) = mixed_clock_system(1, 3_125, 4_000, 3, 2, vec![], 150);
    assert_eq!(sent.len(), 150);
    assert_eq!(got, sent);
}

#[test]
fn boundary_chain_survives_nested_stalls() {
    let (sent, got) = mixed_clock_system(
        2,
        3_125,
        4_000,
        3,
        2,
        vec![(20, 45), (60, 61), (70, 120), (200, 230)],
        200,
    );
    assert_eq!(
        got, sent,
        "stalls rippling across the boundary lose nothing"
    );
}

#[test]
fn boundary_chain_with_fast_consumer_domain() {
    // The consumer domain is the *faster* one: the MCRS runs empty and
    // must emit bubbles rather than stale packets.
    let (sent, got) = mixed_clock_system(3, 5_000, 3_000, 2, 3, vec![(30, 50)], 120);
    assert_eq!(got, sent);
}

#[test]
fn fig14_async_to_sync_system() {
    // Fig. 14: async domain → ARS (micropipeline) chain → ASRS → SRS
    // chain → sync receiver.
    let mut sim = Simulator::new(4);
    let clk = sim.net("clk");
    ClockGen::builder(Time::from_ps(4_217))
        .phase(Time::from_ps(1_000))
        .spawn(&mut sim, clk);
    let mut b = Builder::new(&mut sim);
    let ars = micropipeline(&mut b, 4, 8);
    let clocks = ClockInputs {
        clk_put: None,
        clk_get: Some(clk),
    };
    let asrs = ASYNC_SYNC_RS.build(&mut b, FifoParams::new(8, 8), clocks);
    drop(b.finish());
    let srs = RelayChain::spawn(&mut sim, "srs", clk, 8, 3, Time::from_ns(1));
    connect(&mut sim, ars.req_out, asrs.put_req.unwrap());
    connect_bus(&mut sim, &ars.data_out, &asrs.data_put);
    connect(&mut sim, asrs.put_ack.unwrap(), ars.ack_out);
    connect(&mut sim, asrs.valid_get.unwrap(), srs.port.in_valid);
    connect_bus(&mut sim, &asrs.data_get, &srs.port.in_data);
    connect(&mut sim, srs.port.stop_out, asrs.stop_in.unwrap());

    let items: Vec<u64> = (0..100).map(|i| (i * 7) % 256).collect();
    let ph = FourPhaseProducer::spawn(
        &mut sim,
        "prod",
        ars.req_in,
        ars.ack_in,
        &ars.data_in,
        items.clone(),
        Time::from_ps(400),
        Time::ZERO,
    );
    let kj = PacketSink::spawn(
        &mut sim,
        "sink",
        clk,
        &srs.port.out_data,
        srs.port.out_valid,
        srs.port.stop_in,
        vec![(40, 70)],
    );
    sim.run_until(Time::from_us(30)).unwrap();
    assert_eq!(ph.journal().len(), items.len(), "all handshakes completed");
    assert_eq!(
        kj.values(),
        items,
        "async-origin packets intact through the sync chain"
    );
}

#[test]
fn throughput_tracks_the_slower_domain() {
    let rate = |t_a: u64, t_b: u64| {
        let mut h = Harness::new(5);
        h.clock_nets_both()
            .gen_put(Time::from_ps(t_a))
            .gen_get_phased(Time::from_ps(t_b), Time::from_ps(700));
        h.build(&MIXED_CLOCK_RS, FifoParams::new(8, 8));
        let packets: Vec<Option<u64>> = (0..300).map(|v| Some(v % 256)).collect();
        let _sj = h.feed("src", Feed::Packets { packets });
        let kj = h.drain("sink", Drain::Sink { stalls: vec![] });
        h.sim.run_until(Time::from_us(20)).unwrap();
        kj.ops_per_second(100).expect("steady state")
    };
    // 320 MHz -> 250 MHz: bound by the get side.
    let down = rate(3_125, 4_000);
    assert!(
        (down / 250e6 - 1.0).abs() < 0.06,
        "got {:.0} MHz",
        down / 1e6
    );
    // 250 MHz -> 320 MHz: bound by the put side.
    let up = rate(4_000, 3_125);
    assert!((up / 250e6 - 1.0).abs() < 0.06, "got {:.0} MHz", up / 1e6);
}
