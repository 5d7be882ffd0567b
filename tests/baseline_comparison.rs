//! Experiment E11 — the paper's related-work claims, as assertions
//! (the `related_work` binary prints the full comparison).

use mtf_bench::measure::{latency, periods};
use mtf_core::baseline::{GrayPointerFifo, PerCellSyncFifo, SeizovicFifo};
use mtf_core::design::{ASYNC_SYNC, MIXED_CLOCK};
use mtf_core::env::{SyncConsumer, SyncProducer};
use mtf_core::{FifoParams, MixedClockFifo};
use mtf_gates::{Builder, CellDelays};
use mtf_sim::{ClockGen, Logic, MetaModel, Simulator, Time};
use mtf_timing::area;

/// Empty-FIFO latency (ns) of the Gray-pointer baseline at the mixed-clock
/// design's own fmax clocks, best alignment over a small sweep.
fn gray_min_latency(params: FifoParams) -> f64 {
    let p = periods(&MIXED_CLOCK, params).expect("mixed-clock has timing paths");
    let (t_put, t_get) = (p.put.unwrap(), p.get);
    let mut best = f64::INFINITY;
    for s in 0..4 {
        let offset = Time::from_ps(t_get.as_ps() * s / 4);
        let mut sim = Simulator::new(9);
        let clk_put = sim.net("clk_put");
        let clk_get = sim.net("clk_get");
        ClockGen::builder(t_put)
            .phase(offset)
            .spawn(&mut sim, clk_put);
        ClockGen::spawn_simple(&mut sim, clk_get, t_get);
        let mut b = Builder::with_delays(&mut sim, CellDelays::hp06_custom(), MetaModel::ideal());
        let f = GrayPointerFifo::build(&mut b, params, clk_put, clk_get);
        let nl = b.finish();
        mtf_timing::Tech::hp06_custom().annotate(&nl);
        let cj = SyncConsumer::spawn(
            &mut sim,
            "c",
            clk_get,
            f.req_get,
            &f.data_get,
            f.valid_get,
            1,
        );
        let warm = t_get * 40;
        let k = (warm.as_ps() + t_put.as_ps() - 1 - offset.as_ps() % t_put.as_ps()) / t_put.as_ps();
        let t0 = offset + t_put * k + Time::from_ps(100);
        for (i, &dn) in f.data_put.iter().enumerate() {
            let d = sim.driver(dn);
            sim.drive_at(d, dn, Logic::from_bool((0xA5 >> i) & 1 == 1), t0);
        }
        let rd = sim.driver(f.req_put);
        sim.drive_at(rd, f.req_put, Logic::L, Time::ZERO);
        sim.drive_at(rd, f.req_put, Logic::H, t0);
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
        let build = |per_cell: bool| {
            let mut sim = Simulator::new(0);
            let clk_put = sim.net("clk_put");
            let clk_get = sim.net("clk_get");
            let mut b = Builder::new(&mut sim);
            if per_cell {
                let _ =
                    PerCellSyncFifo::build(&mut b, FifoParams::new(capacity, 8), clk_put, clk_get);
            } else {
                let _ =
                    MixedClockFifo::build(&mut b, FifoParams::new(capacity, 8), clk_put, clk_get);
            }
            area(&b.finish())
        };
        let ours = build(false);
        let intel = build(true);
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

    // Gray-pointer.
    let mut sim = Simulator::new(11);
    let clk_put = sim.net("clk_put");
    let clk_get = sim.net("clk_get");
    ClockGen::spawn_simple(&mut sim, clk_put, Time::from_ns(10));
    ClockGen::builder(Time::from_ns(14))
        .phase(Time::from_ps(3_300))
        .spawn(&mut sim, clk_get);
    let mut b = Builder::new(&mut sim);
    let f = GrayPointerFifo::build(&mut b, FifoParams::new(8, 8), clk_put, clk_get);
    drop(b.finish());
    let _pj = SyncProducer::spawn(
        &mut sim,
        "p",
        clk_put,
        f.req_put,
        &f.data_put,
        f.full,
        items.clone(),
    );
    let cj = SyncConsumer::spawn(
        &mut sim,
        "c",
        clk_get,
        f.req_get,
        &f.data_get,
        f.valid_get,
        items.len() as u64,
    );
    sim.run_until(Time::from_us(10)).unwrap();
    assert_eq!(cj.values(), items, "gray-pointer");

    // Per-cell sync.
    let mut sim = Simulator::new(12);
    let clk_put = sim.net("clk_put");
    let clk_get = sim.net("clk_get");
    ClockGen::spawn_simple(&mut sim, clk_put, Time::from_ns(9));
    ClockGen::builder(Time::from_ns(11))
        .phase(Time::from_ps(1_700))
        .spawn(&mut sim, clk_get);
    let mut b = Builder::new(&mut sim);
    let f = PerCellSyncFifo::build(&mut b, FifoParams::new(8, 8), clk_put, clk_get);
    drop(b.finish());
    let _pj = SyncProducer::spawn(
        &mut sim,
        "p",
        clk_put,
        f.req_put,
        &f.data_put,
        f.full,
        items.clone(),
    );
    let cj = SyncConsumer::spawn(
        &mut sim,
        "c",
        clk_get,
        f.req_get,
        &f.data_get,
        f.valid_get,
        items.len() as u64,
    );
    sim.run_until(Time::from_us(10)).unwrap();
    assert_eq!(cj.values(), items, "per-cell sync");
}
