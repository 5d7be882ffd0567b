//! Quickstart: move data between two clock domains with the mixed-clock
//! FIFO.
//!
//! ```text
//! cargo run -p mtf-integration --example quickstart
//! ```
//!
//! Builds an 8-place, 8-bit mixed-clock FIFO between a 100 MHz producer
//! and a 77 MHz consumer, streams 200 items through it, and reports what
//! happened — including the full/empty stall behaviour you would see on a
//! logic analyzer.

use mtf_core::design::MIXED_CLOCK;
use mtf_core::env::{SyncConsumer, SyncProducer};
use mtf_core::{ClockInputs, FifoParams, MixedTimingDesign};
use mtf_gates::Builder;
use mtf_sim::{ClockGen, Edge, Simulator, Time};

fn main() {
    // 1. A simulator and two free-running clocks — genuinely unrelated
    //    periods, as on a real SoC.
    let mut sim = Simulator::new(42);
    let clk_put = sim.net("clk_put");
    let clk_get = sim.net("clk_get");
    ClockGen::spawn_simple(&mut sim, clk_put, Time::from_ns(10)); // 100 MHz
    ClockGen::builder(Time::from_ns(13)) // ~77 MHz
        .phase(Time::from_ps(3_700))
        .spawn(&mut sim, clk_get);

    // 2. The FIFO, built through its registry row. `FifoParams::new` gives
    //    the paper's two-flop synchronizers; see `with_sync_stages` for the
    //    robustness knob. Every external net comes back in one
    //    `DesignPorts`, present where the design's interfaces have it.
    let mut b = Builder::new(&mut sim);
    let clocks = ClockInputs {
        clk_put: Some(clk_put),
        clk_get: Some(clk_get),
    };
    let fifo = MIXED_CLOCK.build(&mut b, FifoParams::new(8, 8), clocks);
    let netlist = b.finish();
    println!(
        "built a {} mixed-clock FIFO: {} cells placed",
        fifo.params,
        netlist.len()
    );

    // 3. Testbench environments: a saturating producer and consumer.
    let items: Vec<u64> = (0..200).map(|i| (i * 37) % 256).collect();
    let (full, empty) = (fifo.full.unwrap(), fifo.empty.unwrap());
    sim.trace(full);
    sim.trace(empty);
    let put_journal = SyncProducer::spawn(
        &mut sim,
        "producer",
        clk_put,
        fifo.req_put.unwrap(),
        &fifo.data_put,
        full,
        items.clone(),
    );
    let get_journal = SyncConsumer::spawn(
        &mut sim,
        "consumer",
        clk_get,
        fifo.req_get.unwrap(),
        &fifo.data_get,
        fifo.valid_get.unwrap(),
        items.len() as u64,
    );

    // 4. Run.
    sim.run_until(Time::from_us(10))
        .expect("simulation completes");

    // 5. Report.
    assert_eq!(
        get_journal.values(),
        items,
        "every item, in order, exactly once"
    );
    let put_rate = put_journal.ops_per_second(20).unwrap_or(0.0) / 1e6;
    let get_rate = get_journal.ops_per_second(20).unwrap_or(0.0) / 1e6;
    println!("transferred {} items intact", items.len());
    println!("  sustained put rate: {put_rate:.1} M items/s (put clock: 100 MHz)");
    println!("  sustained get rate: {get_rate:.1} M items/s (get clock:  77 MHz)");
    println!(
        "  producer stalled on `full` {} times (slower consumer exerting back-pressure)",
        sim.waveform(full)
            .expect("traced")
            .edges(Edge::Rising)
            .count()
    );
    println!(
        "  consumer saw `empty` deassert {} times",
        sim.waveform(empty)
            .expect("traced")
            .edges(Edge::Falling)
            .count()
    );
    println!();
    println!("The slower (77 MHz) side governs: both rates converge to it, the");
    println!("hallmark of a correctly back-pressured clock-domain crossing.");
}
