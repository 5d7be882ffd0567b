//! Quantifies the paper's related-work claims (Section 1) against real
//! implementations of the alternatives:
//!
//! * vs. pointer-comparison FIFOs (family of ref. \[5\]): empty-FIFO
//!   latency — the paper claims multiple synchronizer passes.
//! * vs. Seizovic's pipeline synchronization \[13\]: latency proportional
//!   to depth.
//! * vs. the Intel per-cell-synchronizer FIFO \[9\]: area.
//!
//! ```text
//! cargo run -p mtf-bench --bin related_work --release
//! ```
//!
//! `--json` emits one structured [`ExperimentReport`] instead of the text.

use mtf_bench::harness::Harness;
use mtf_bench::json::Json;
use mtf_bench::measure::{latency, latency_at, periods, seizovic_latency};
use mtf_bench::report::{DesignEntry, Run};
use mtf_bench::sweep::SweepRunner;
use mtf_core::design::{ASYNC_SYNC, GRAY_POINTER, MIXED_CLOCK, PER_CELL_SYNC};
use mtf_core::{FifoParams, MixedTimingDesign};
use mtf_sim::Time;
use mtf_timing::{area, AreaReport};

fn mhz(period: Time) -> f64 {
    1.0e6 / period.as_ps() as f64
}

/// Gate-count area of `design` at `capacity` (8-bit), with the default
/// gate model (area does not depend on delays).
fn area_of(design: &dyn MixedTimingDesign, capacity: usize) -> AreaReport {
    let mut h = Harness::new(0);
    h.clock_nets_both();
    h.build(design, FifoParams::new(capacity, 8));
    area(h.netlist())
}

fn main() {
    let mut run = Run::start("related_work", &["--json"]);
    let params = FifoParams::new(8, 8);
    if run.text() {
        println!("Related-work comparison (8-place, 8-bit unless noted)");
        println!();
    }

    // ---- latency: ours vs Gray-pointer vs Seizovic -------------------------
    // The Gray-pointer baseline runs at this design's own fmax clocks.
    let ours_p = periods(&MIXED_CLOCK, params);
    let (t_put, t_get) = (ours_p.put.expect("sync put"), ours_p.get);
    let ours = latency_at(&MIXED_CLOCK, params, ours_p, 8, &SweepRunner::serial());
    let gray = latency_at(&GRAY_POINTER, params, ours_p, 8, &SweepRunner::serial());
    if run.text() {
        println!("Empty-FIFO latency (both clocks at this design's own fmax):");
        println!(
            "  this paper's mixed-clock FIFO: {:.2} .. {:.2} ns",
            ours.min_ns, ours.max_ns
        );
        println!(
            "  Gray-pointer FIFO            : {:.2} .. {:.2} ns",
            gray.min_ns, gray.max_ns
        );
        println!(
            "  -> the pointer design pays pointer-sync + registered flags: {:.1}x",
            gray.min_ns / ours.min_ns
        );
        println!();
        println!("Seizovic pipeline synchronization, latency vs depth (10 ns clock):");
    }
    let mut seizovic_ns = Vec::new();
    for depth in [2usize, 4, 8] {
        let l = seizovic_latency(depth, Time::from_ns(10));
        seizovic_ns.push((depth, l));
        if run.text() {
            println!("  depth {depth}: {l:6.1} ns  (~2 cycles per stage)");
        }
    }
    if run.text() {
        println!("  -> linear in depth, as the paper criticises; ours is depth-independent.");
        println!();

        // ---- area: ours vs per-cell synchronization ------------------------
        println!("Area (estimated transistors), ours vs Intel-style per-cell sync:");
        println!("  capacity      ours    per-cell    overhead");
    }
    let mut areas = Vec::new();
    for capacity in [4usize, 8, 16] {
        let ours_a = area_of(&MIXED_CLOCK, capacity);
        let intel = area_of(&PER_CELL_SYNC, capacity);
        if run.text() {
            println!(
                "  {capacity:8}  {:8}  {:10}  +{:.0}% total, +{:.0}% flops",
                ours_a.total,
                intel.total,
                100.0 * (intel.total as f64 / ours_a.total as f64 - 1.0),
                100.0 * (intel.flops as f64 / ours_a.flops as f64 - 1.0),
            );
        }
        areas.push((capacity, ours_a, intel));
    }
    if run.text() {
        println!("  -> the per-cell synchronizers dominate and scale with capacity,");
        println!("     the paper's area argument against the Intel design.");
        println!();
    }

    // ---- fmax: ours vs Gray-pointer ----------------------------------------
    let gray_p = periods(&GRAY_POINTER, params);
    let (g_put, g_get) = (gray_p.put.expect("sync put"), gray_p.get);
    if run.text() {
        println!("fmax (STA, custom calibration):");
        println!(
            "  this paper's mixed-clock FIFO: put {:.0} MHz, get {:.0} MHz",
            mhz(t_put),
            mhz(t_get)
        );
        println!(
            "  Gray-pointer FIFO            : put {:.0} MHz, get {:.0} MHz",
            mhz(g_put),
            mhz(g_get)
        );
        println!("  (comparable — the pointer design's weakness is latency, not rate,");
        println!("   which matches the paper's framing of its advantage.)");
    }

    // Produce the Seizovic vs async-sync contrast the paper draws in words.
    let asy = latency(&ASYNC_SYNC, params, 6);
    let szv8 = seizovic_latency(8, Time::from_ns(10));
    if run.text() {
        println!();
        println!(
            "Async->sync bridging: async-sync FIFO {:.1} ns vs Seizovic(8) {szv8:.1} ns",
            asy.min_ns
        );
    }
    if szv8 <= asy.min_ns * 3.0 {
        run.fail(format_args!(
            "Seizovic(8) at {szv8:.1} ns does not lose clearly to async-sync at {:.1} ns",
            asy.min_ns
        ));
    }

    let r = &mut run.report;
    r.entries.push(
        DesignEntry::new(&MIXED_CLOCK, params)
            .with("put_mhz", mhz(t_put))
            .with("get_mhz", mhz(t_get))
            .with("latency_min_ns", ours.min_ns)
            .with("latency_max_ns", ours.max_ns),
    );
    r.entries.push(
        DesignEntry::new(&GRAY_POINTER, params)
            .with("put_mhz", mhz(g_put))
            .with("get_mhz", mhz(g_get))
            .with("latency_min_ns", gray.min_ns)
            .with("latency_max_ns", gray.max_ns),
    );
    r.entries
        .push(DesignEntry::new(&ASYNC_SYNC, params).with("latency_min_ns", asy.min_ns));
    for (capacity, ours_a, intel) in &areas {
        r.entries.push(
            DesignEntry::new(&MIXED_CLOCK, FifoParams::new(*capacity, 8))
                .with("area_transistors", ours_a.total as f64)
                .with("area_flops", ours_a.flops as f64),
        );
        r.entries.push(
            DesignEntry::new(&PER_CELL_SYNC, FifoParams::new(*capacity, 8))
                .with("area_transistors", intel.total as f64)
                .with("area_flops", intel.flops as f64),
        );
    }
    r.note(
        "seizovic_latency_ns",
        Json::Obj(
            seizovic_ns
                .iter()
                .map(|(d, l)| (format!("depth_{d}"), Json::Num(*l)))
                .collect(),
        ),
    );
    run.finish()
}
