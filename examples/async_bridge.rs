//! An asynchronous sensor domain feeding a synchronous core through
//! micropipeline relay stations and the paper's async-sync relay station
//! (paper Fig. 14 — the configuration the paper claims as the first of
//! its kind).
//!
//! ```text
//! cargo run -p mtf-integration --example async_bridge
//! ```
//!
//! Topology:
//!
//! ```text
//!  async sensor ──▶ micropipeline ARS chain ──▶ ASRS ──▶ SRS chain ──▶ sync DSP
//!  (clockless, bursty)     (long wire)        boundary   (266 MHz domain)
//! ```
//!
//! The sensor is clockless and bursty: it emits samples in irregular
//! clumps. The micropipeline (Sutherland) segments the long wire on the
//! asynchronous side — no validity bit needed, the handshake *is* the
//! validity. The ASRS converts to the synchronous relay-station protocol
//! (packets with validity bits, every cycle) for the DSP's domain.

use mtf_async::{micropipeline, FourPhaseProducer};
use mtf_core::design::ASYNC_SYNC_RS;
use mtf_core::env::PacketSink;
use mtf_core::{ClockInputs, FifoParams, MixedTimingDesign};
use mtf_gates::Builder;
use mtf_lis::{connect, connect_bus, RelayChain};
use mtf_sim::{ClockGen, Simulator, Time};

fn main() {
    let mut sim = Simulator::new(11);
    let clk = sim.net("clk_dsp");
    ClockGen::builder(Time::from_ps(3_759)) // ~266 MHz
        .phase(Time::from_ps(500))
        .spawn(&mut sim, clk);

    const W: usize = 8;
    // Asynchronous relay stations: a 3-stage micropipeline (Section 5.3:
    // "a chain of ARS's may be desirable ... to limit the wire lengths").
    let mut b = Builder::new(&mut sim);
    let ars = micropipeline(&mut b, 3, W);
    // The async-sync boundary.
    let clocks = ClockInputs {
        clk_put: None,
        clk_get: Some(clk),
    };
    let asrs = ASYNC_SYNC_RS.build(&mut b, FifoParams::new(8, W), clocks);
    drop(b.finish());
    // Synchronous relay stations on the DSP side.
    let srs = RelayChain::spawn(&mut sim, "srs", clk, W, 2, Time::from_ns(1));

    // Stitch: ARS chain -> ASRS (4-phase), ASRS -> SRS chain (packets).
    connect(&mut sim, ars.req_out, asrs.put_req.unwrap());
    connect_bus(&mut sim, &ars.data_out, &asrs.data_put);
    connect(&mut sim, asrs.put_ack.unwrap(), ars.ack_out);
    connect(&mut sim, asrs.valid_get.unwrap(), srs.port.in_valid);
    connect_bus(&mut sim, &asrs.data_get, &srs.port.in_data);
    connect(&mut sim, srs.port.stop_out, asrs.stop_in.unwrap());

    // The bursty sensor: clumps of samples with idle gaps.
    let samples: Vec<u64> = (0..120).map(|i| (i * 13) % 256).collect();
    let sensor = FourPhaseProducer::spawn(
        &mut sim,
        "sensor",
        ars.req_in,
        ars.ack_in,
        &ars.data_in,
        samples.clone(),
        Time::from_ps(400),
        Time::from_ns(2), // idle gap between handshakes
    );
    // The DSP consumes continuously, with one stall window.
    let dsp = PacketSink::spawn(
        &mut sim,
        "dsp",
        clk,
        &srs.port.out_data,
        srs.port.out_valid,
        srs.port.stop_in,
        vec![(50, 80)],
    );

    sim.run_until(Time::from_us(20))
        .expect("simulation completes");

    assert_eq!(dsp.values(), samples, "every sample arrives, in order");
    println!("async sensor -> 3-stage micropipeline -> ASRS(8x{W}) -> 2 SRS -> 266 MHz DSP");
    println!("  {} bursty samples delivered intact", samples.len());
    println!(
        "  sensor handshakes acknowledged: {} (async back-pressure crossed the boundary)",
        sensor.journal().len()
    );
    let first = dsp.time_of(0).expect("delivered").as_ns_f64();
    println!("  first-sample latency through the whole bridge: {first:.1} ns");
    println!();
    println!("No clock ever reached the sensor; no handshake ever reached the DSP.");
    println!("That interface split is exactly the paper's Section 5.3 contribution.");
}
