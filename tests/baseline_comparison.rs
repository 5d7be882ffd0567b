//! Experiment E11 — the paper's related-work claims, as assertions
//! (the `related_work` binary prints the full comparison).

use mtf_bench::harness::{Drain, Feed, Harness};
use mtf_bench::measure::{latency, periods};
use mtf_core::baseline::SeizovicFifo;
use mtf_core::design::{ASYNC_SYNC, GRAY_POINTER, MIXED_CLOCK, PER_CELL_SYNC};
use mtf_core::env::SyncConsumer;
use mtf_core::{FifoParams, MixedTimingDesign};
use mtf_sim::{ClockGen, Logic, Simulator, Time};
use mtf_timing::{area, Tech};

/// Empty-FIFO latency (ns) of the Gray-pointer baseline at the mixed-clock
/// design's own fmax clocks, best alignment over a small sweep.
fn gray_min_latency(params: FifoParams) -> f64 {
    let p = periods(&MIXED_CLOCK, params).expect("mixed-clock has timing paths");
    let (t_put, t_get) = (p.put.unwrap(), p.get);
    let mut best = f64::INFINITY;
    for s in 0..4 {
        let offset = Time::from_ps(t_get.as_ps() * s / 4);
        let mut h = Harness::calibrated(9);
        h.clock_nets_both()
            .gen_put_phased(t_put, offset)
            .gen_get(t_get);
        let f = h
            .build_annotated(&GRAY_POINTER, params, &Tech::hp06_custom())
            .clone();
        let cj = h.drain(
            "c",
            Drain::Consume {
                n: 1,
                phase: Time::ZERO,
            },
        );
        let sim = &mut h.sim;
        let warm = t_get * 40;
        let k = (warm.as_ps() + t_put.as_ps() - 1 - offset.as_ps() % t_put.as_ps()) / t_put.as_ps();
        let t0 = offset + t_put * k + Time::from_ps(100);
        for (i, &dn) in f.data_put.iter().enumerate() {
            let d = sim.driver(dn);
            sim.drive_at(d, dn, Logic::from_bool((0xA5 >> i) & 1 == 1), t0);
        }
        let req_put = f.req_put.unwrap();
        let rd = sim.driver(req_put);
        sim.drive_at(rd, req_put, Logic::L, Time::ZERO);
        sim.drive_at(rd, req_put, Logic::H, t0);
        sim.run_until(t0 + t_get * 60).unwrap();
        if let Some(t) = cj.time_of(0) {
            best = best.min((t - t0).as_ps() as f64 / 1000.0);
        }
    }
    best
}

#[test]
fn paper_beats_pointer_fifo_on_latency() {
    let params = FifoParams::new(8, 8);
    let ours = latency(&MIXED_CLOCK, params, 4).expect("mixed-clock has timing paths");
    let gray = gray_min_latency(params);
    assert!(
        gray > ours.min_ns * 1.1,
        "the pointer FIFO must pay visibly more empty-FIFO latency \
         (ours {:.2} ns, gray {gray:.2} ns)",
        ours.min_ns
    );
}

#[test]
fn paper_beats_seizovic_by_depth_independence() {
    // Seizovic latency at depth d ≈ 2·d cycles; ours is fixed. Measure
    // depth 6 at a 10 ns clock against our async-sync FIFO latency.
    let mut sim = Simulator::new(10);
    let clk = sim.net("clk");
    ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(10));
    let port = SeizovicFifo::spawn(&mut sim, "szv", clk, 8, 6);
    let t0 = Time::from_ns(400);
    for (i, &dn) in port.put_data.iter().enumerate() {
        let d = sim.driver(dn);
        sim.drive_at(d, dn, Logic::from_bool((0x5A >> i) & 1 == 1), t0);
    }
    let rd = sim.driver(port.put_req);
    sim.drive_at(rd, port.put_req, Logic::L, Time::ZERO);
    sim.drive_at(rd, port.put_req, Logic::H, t0 + Time::from_ps(200));
    sim.drive_at(rd, port.put_req, Logic::L, t0 + Time::from_ns(40));
    let cj = SyncConsumer::spawn(
        &mut sim,
        "c",
        clk,
        port.req_get,
        &port.data_get,
        port.valid_get,
        1,
    );
    sim.run_until(Time::from_us(3)).unwrap();
    let szv_ns = (cj.time_of(0).expect("delivered") - t0).as_ps() as f64 / 1000.0;
    let ours = latency(&ASYNC_SYNC, FifoParams::new(8, 8), 4).expect("async-sync has timing paths");
    assert!(
        szv_ns > ours.min_ns * 5.0,
        "pipeline synchronization at depth 6 must be far slower \
         (ours {:.1} ns, Seizovic {szv_ns:.1} ns)",
        ours.min_ns
    );
}

#[test]
fn paper_beats_per_cell_sync_on_area() {
    for capacity in [8usize, 16] {
        let build = |design: &dyn MixedTimingDesign| {
            let mut h = Harness::new(0);
            h.clock_nets_both();
            h.build(design, FifoParams::new(capacity, 8));
            area(h.netlist())
        };
        let ours = build(&MIXED_CLOCK);
        let intel = build(&PER_CELL_SYNC);
        assert!(intel.total > ours.total, "capacity {capacity}");
        assert!(
            intel.flops as f64 > ours.flops as f64 * 1.3,
            "capacity {capacity}: synchronizer flop area must dominate"
        );
    }
}

#[test]
fn all_baselines_are_still_correct_fifos() {
    // The comparison is only meaningful if the baselines work. (Their own
    // unit tests cover more; this guards the integration configuration.)
    let items: Vec<u64> = (0..30).map(|i| (i * 91) % 256).collect();

    let transfer = |design: &dyn MixedTimingDesign, seed, t_put, t_get, phase| {
        let mut h = Harness::new(seed);
        h.clock_nets_both()
            .gen_put(Time::from_ns(t_put))
            .gen_get_phased(Time::from_ns(t_get), Time::from_ps(phase));
        h.build(design, FifoParams::new(8, 8));
        let feed = Feed::Saturate {
            items: items.clone(),
            bundling: Time::ZERO,
            phase: Time::ZERO,
        };
        let _pj = h.feed("p", feed);
        let n = items.len() as u64;
        let cj = h.drain(
            "c",
            Drain::Consume {
                n,
                phase: Time::ZERO,
            },
        );
        h.sim.run_until(Time::from_us(10)).unwrap();
        cj.values()
    };
    assert_eq!(
        transfer(&GRAY_POINTER, 11, 10, 14, 3_300),
        items,
        "gray-pointer"
    );
    assert_eq!(
        transfer(&PER_CELL_SYNC, 12, 9, 11, 1_700),
        items,
        "per-cell sync"
    );
}
