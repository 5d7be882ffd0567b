//! A latency-insensitive system-on-chip crossing a clock boundary
//! (paper Fig. 11a generalised by Section 5.2).
//!
//! ```text
//! cargo run -p mtf-integration --example lis_soc
//! ```
//!
//! Topology:
//!
//! ```text
//!  producer ──SRS──SRS──SRS──▶ MCRS ──▶SRS──SRS──▶ consumer
//!  (320 MHz domain, long wire)  │   (250 MHz domain, long wire)
//!                          clock boundary
//! ```
//!
//! The producer's core logic was verified at 320 MHz with short wires;
//! after placement its output wire takes ~3 cycles to cross the die, and
//! the consumer ended up in a 250 MHz domain. Relay stations pipeline the
//! wire (Carloni), and the paper's mixed-clock relay station (MCRS)
//! carries the protocol across the clock boundary — no redesign of either
//! core. The example also stalls the consumer mid-run to show end-to-end
//! back-pressure.

use mtf_core::design::MIXED_CLOCK_RS;
use mtf_core::env::{PacketSink, PacketSource};
use mtf_core::{ClockInputs, FifoParams, MixedTimingDesign};
use mtf_gates::Builder;
use mtf_lis::{connect, connect_bus, RelayChain};
use mtf_sim::{ClockGen, Simulator, Time};

fn main() {
    let mut sim = Simulator::new(7);
    let clk_a = sim.net("clk_a"); // producer domain
    let clk_b = sim.net("clk_b"); // consumer domain
    ClockGen::spawn_simple(&mut sim, clk_a, Time::from_ps(3_125)); // 320 MHz
    ClockGen::builder(Time::from_ps(4_000)) // 250 MHz
        .phase(Time::from_ps(777))
        .spawn(&mut sim, clk_b);

    const W: usize = 8;
    // Long wire in domain A: three relay stations, 1 ns of wire between.
    let chain_a = RelayChain::spawn(&mut sim, "chainA", clk_a, W, 3, Time::from_ns(1));
    // The paper's contribution: the clock-boundary relay station.
    let mut b = Builder::new(&mut sim);
    let clocks = ClockInputs {
        clk_put: Some(clk_a),
        clk_get: Some(clk_b),
    };
    let mcrs = MIXED_CLOCK_RS.build(&mut b, FifoParams::new(8, W), clocks);
    drop(b.finish());
    // Long wire in domain B: two more stations.
    let chain_b = RelayChain::spawn(&mut sim, "chainB", clk_b, W, 2, Time::from_ns(1));

    // Stitch: chainA -> MCRS -> chainB.
    connect(&mut sim, chain_a.port.out_valid, mcrs.valid_in.unwrap());
    connect_bus(&mut sim, &chain_a.port.out_data, &mcrs.data_put);
    connect(&mut sim, mcrs.stop_out.unwrap(), chain_a.port.stop_in);
    connect(&mut sim, mcrs.valid_get.unwrap(), chain_b.port.in_valid);
    connect_bus(&mut sim, &mcrs.data_get, &chain_b.port.in_data);
    connect(&mut sim, chain_b.port.stop_out, mcrs.stop_in.unwrap());

    // Environments: the producer pearl streams packets; the consumer
    // stalls for 60 cycles mid-run (e.g. a cache refill).
    let n_packets = 400u64;
    let packets: Vec<Option<u64>> = (0..n_packets).map(|v| Some(v % 251)).collect();
    let src = PacketSource::spawn(
        &mut sim,
        "producer",
        clk_a,
        chain_a.port.in_valid,
        &chain_a.port.in_data,
        chain_a.port.stop_out,
        packets.clone(),
    );
    let sink = PacketSink::spawn(
        &mut sim,
        "consumer",
        clk_b,
        &chain_b.port.out_data,
        chain_b.port.out_valid,
        chain_b.port.stop_in,
        vec![(100, 160)],
    );

    sim.run_until(Time::from_us(15))
        .expect("simulation completes");

    let expect: Vec<u64> = (0..n_packets).map(|v| v % 251).collect();
    assert_eq!(
        sink.values(),
        expect,
        "no packet lost, duplicated or reordered"
    );

    let first = sink.time_of(0).expect("delivered");
    let rate = sink.ops_per_second(200).expect("steady state") / 1e6;
    println!("latency-insensitive SoC: 3 SRS -> MCRS(8x{W}) -> 2 SRS");
    println!("  {n_packets} packets delivered intact across the 320->250 MHz boundary");
    println!(
        "  pipeline fill latency: {:.1} ns ({} stations + boundary FIFO)",
        first.as_ns_f64(),
        5
    );
    println!("  steady-state throughput: {rate:.0} M packets/s");
    println!("  theoretical bound (slower clock): 250 M packets/s");
    println!(
        "  producer side finished all {} packets despite the consumer's 60-cycle stall",
        src.len()
    );
    assert!(
        (rate - 250.0).abs() < 15.0,
        "throughput must track the slower domain, got {rate:.0}"
    );
    println!();
    println!("Back-pressure from the stalled consumer crossed two relay chains and a");
    println!("clock boundary without dropping a packet — the latency-insensitive");
    println!("protocol, now mixed-timing (paper Section 5.2).");
}
