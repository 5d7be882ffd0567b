//! Experiment E12 — the paper's Section 2 low-power claim: "the FIFO's
//! offer the potential for low power: data items are immobile while in
//! the FIFO."
//!
//! Streams the same saturated workload through the mixed-clock FIFO and
//! through a shift-register FIFO of the same shape, and reports (a) the
//! model-independent core of the claim — how many storage bits switch per
//! item — and (b) the full dynamic-energy estimate from the RC loading
//! model, split into clock and signal components.
//!
//! ```text
//! cargo run -p mtf-bench --bin power --release
//! ```
//!
//! `--json` emits one structured
//! [`ExperimentReport`](mtf_bench::report::ExperimentReport) instead of the text.

use mtf_bench::harness::{Drain, Feed, Harness};
use mtf_bench::report::{DesignEntry, Run};
use mtf_core::design::{MIXED_CLOCK, SHIFT_REGISTER};
use mtf_core::{FifoParams, MixedTimingDesign};
use mtf_sim::{NetId, Time};
use mtf_timing::{dynamic_energy, storage_write_toggles, Tech};

struct Stream {
    /// The whole stream arrived, in order, within the time limit.
    intact: bool,
    items: u64,
    storage_toggles: u64,
    total_fj: f64,
    clock_fj: f64,
}

fn measure(design: &dyn MixedTimingDesign, params: FifoParams, n_items: u64) -> Stream {
    let items: Vec<u64> = (0..n_items)
        .map(|i| (i * 2_654_435_761) & ((1 << params.width) - 1))
        .collect();
    let mut h = Harness::new(73);
    h.clock_nets_both();
    h.gen_put(Time::from_ns(10));
    h.gen_get_phased(Time::from_ns(10), Time::from_ps(4_100));
    h.build(design, params);
    let _pj = h.feed(
        "p",
        Feed::Saturate {
            items: items.clone(),
            bundling: Time::ZERO,
            phase: Time::ZERO,
        },
    );
    let cj = h.drain(
        "c",
        Drain::Consume {
            n: n_items,
            phase: Time::ZERO,
        },
    );
    // Run in slices and stop as soon as the stream completes, so idle
    // clock ticking does not get charged to the workload.
    while (cj.len() as u64) < n_items && h.sim.now() < Time::from_us(100) {
        h.sim.run_for(Time::from_ns(200)).expect("runs");
    }

    let tech = Tech::hp06();
    let nl = h.netlist();
    let total = dynamic_energy(&tech, nl, &h.sim);
    // Clock component: energy switched on the two clock nets.
    let loads = tech.net_loads(nl);
    let clock_fj: f64 = [h.clk_put.unwrap(), h.clk_get.unwrap()]
        .iter()
        .map(|&c| {
            let l = loads.get(c.index()).copied().unwrap_or(0.0);
            h.sim.toggles(NetId::from_index(c.index())) as f64 * l * 3.3 * 3.3 / 2.0
        })
        .sum();
    Stream {
        intact: cj.values() == items,
        items: n_items,
        storage_toggles: storage_write_toggles(nl, &h.sim),
        total_fj: total.total_fj,
        clock_fj,
    }
}

fn main() {
    let mut run = Run::start("power", &["--json"]);
    let json = !run.text();
    if !json {
        println!("E12 — the immobile-data power claim (paper Section 2)");
        println!();
    }
    for &(cap, w) in &[(8usize, 8usize), (16, 16)] {
        let params = FifoParams::new(cap, w);
        let n = 120u64;
        let ours = measure(&MIXED_CLOCK, params, n);
        let shift = measure(&SHIFT_REGISTER, params, n);
        if !json {
            println!("{cap}-place, {w}-bit, {n} items streamed:");
            println!(
                "  storage bits written/item:  mixed-clock {:6.1}   shift-register {:6.1}  ({:.1}x)",
                ours.storage_toggles as f64 / ours.items as f64,
                shift.storage_toggles as f64 / shift.items as f64,
                shift.storage_toggles as f64 / ours.storage_toggles.max(1) as f64,
            );
            println!(
                "  signal energy/item:         mixed-clock {:6.0} fJ  shift-register {:6.0} fJ",
                (ours.total_fj - ours.clock_fj) / ours.items as f64,
                (shift.total_fj - shift.clock_fj) / shift.items as f64,
            );
            println!(
                "  clock energy/item:          mixed-clock {:6.0} fJ  shift-register {:6.0} fJ",
                ours.clock_fj / ours.items as f64,
                shift.clock_fj / shift.items as f64,
            );
            println!();
        }
        for (design, stream) in [
            (&MIXED_CLOCK as &dyn MixedTimingDesign, &ours),
            (&SHIFT_REGISTER as &dyn MixedTimingDesign, &shift),
        ] {
            if !stream.intact {
                run.fail(format_args!(
                    "{} at {params} did not deliver its stream",
                    design.kind().name()
                ));
            }
            run.report.entries.push(
                DesignEntry::new(design, params)
                    .with("items", stream.items as f64)
                    .with(
                        "storage_toggles_per_item",
                        stream.storage_toggles as f64 / stream.items as f64,
                    )
                    .with(
                        "signal_fj_per_item",
                        (stream.total_fj - stream.clock_fj) / stream.items as f64,
                    )
                    .with("clock_fj_per_item", stream.clock_fj / stream.items as f64),
            );
        }
    }
    if !json {
        println!("Reading: the unambiguous half of the claim holds — each item's bits hit");
        println!("storage once instead of once per stage (a ~capacity-times difference in");
        println!("storage writes). Under this RC model, however, the mixed-clock design's");
        println!("*total* signal energy comes out higher: its control fabric — detector");
        println!("trees, token rings, enable broadcasts and the mid-cycle commit gating —");
        println!("switches every cycle whether or not data moves, while the shift FIFO's");
        println!("take-chain goes quiet in steady flow. Realising the paper's \"potential");
        println!("for low power\" therefore additionally requires gating that fabric (and");
        println!("the clocks); the immobile data path itself delivers its savings.");
    }
    run.finish()
}
