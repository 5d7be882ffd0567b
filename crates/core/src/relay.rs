//! The mixed-timing relay stations of Section 5: the basic FIFOs with
//! their external controllers swapped for relay-station controllers
//! (paper Figs. 13 and 16), so they drop into Carloni-style
//! latency-insensitive relay chains.

use mtf_gates::Builder;

use crate::async_sync::{build_async_cell_array, AsyncCellArray};
use crate::design::{ClockInputs, DesignKind, DesignPorts};
use crate::detectors::{
    anticipation_window, build_bimodal_empty, build_full_detector, build_ne_detector,
    build_oe_detector,
};
use crate::mixed_clock::{build_sync_cell_array, SyncCellArray};
use crate::params::FifoParams;

/// Builds the mixed-clock relay station (MCRS, paper Section 5.2) into
/// `b`: the [mixed-clock FIFO](crate::design::MIXED_CLOCK)'s cell array with
/// relay-station controllers (Fig. 13).
///
/// Unlike the FIFO there are no active requests: packets (a data word plus
/// a validity bit) flow continuously from left to right.
///
/// * The **put controller is a single inverter**: enqueue every cycle
///   unless full. `valid_in` is part of the packet, not a control signal —
///   bubbles are enqueued like anything else.
/// * `full` doubles as **`stop_out`** to the left relay chain.
/// * The **get controller** dequeues every cycle unless the station is
///   empty or the right neighbour asserts **`stop_in`**; `valid_get` is
///   forced invalid in either case.
///
/// The station's synchronized `empty` is internal to the stream protocol
/// and is not exported.
pub(crate) fn build_mixed_clock(
    b: &mut Builder<'_>,
    params: FifoParams,
    clocks: ClockInputs,
) -> DesignPorts {
    let (clk_put, clk_get) = (clocks.put_net(), clocks.get_net());
    let w = params.width;
    b.push_scope("mcrs");

    let valid_in = b.input("valid_in");
    let data_put = b.input_bus("data_put", w);
    let stop_in = b.input("stop_in");
    let data_get = b.input_bus("data_get", w);
    let valid_bus = b.input("valid_bus");
    let en_put = b.input("en_put");
    let en_get = b.input("en_get");

    let SyncCellArray {
        cell_full,
        cell_empty,
        nclk_get,
    } = build_sync_cell_array(
        b, params, clk_put, clk_get, en_put, en_get, valid_in, &data_put, &data_get, valid_bus,
    );

    let full_raw = build_full_detector(b, &cell_empty, anticipation_window(params.sync_stages));
    let stop_out = b.sync_chain(clk_put, full_raw, params.sync_stages, mtf_sim::Logic::L);

    let ne_raw = build_ne_detector(b, &cell_full, anticipation_window(params.sync_stages));
    let oe_raw = build_oe_detector(b, &cell_full);
    let empty = build_bimodal_empty(b, clk_get, ne_raw, oe_raw, en_get, params.sync_stages);

    // Put controller (Fig. 13a): a single inverter on full.
    let en_put_val = b.inv(stop_out);
    b.buf_onto(en_put_val, en_put);

    // Get controller (Fig. 13b): dequeue unless empty or stopped.
    let en_get_val = b.nor(&[empty, stop_in]);
    b.buf_onto(en_get_val, en_get);
    // Outgoing validity: the stored validity bit, gated by the enable.
    let valid_get = b.and2(en_get, valid_bus);

    b.pop_scope();
    DesignPorts {
        clk_put: Some(clk_put),
        clk_get: Some(clk_get),
        valid_in: Some(valid_in),
        data_put,
        stop_out: Some(stop_out),
        stop_in: Some(stop_in),
        data_get,
        valid_get: Some(valid_get),
        nclk_get: Some(nclk_get),
        ..DesignPorts::new(DesignKind::MixedClockRs, params)
    }
}

/// Builds the async–sync relay station (ASRS, paper Section 5.3) into `b`
/// — per the paper, the first design to solve mixed async/sync interfacing
/// and long interconnect simultaneously.
///
/// The asynchronous put interface is *identical* to the async-sync FIFO's
/// (it already matches the micropipeline/ARS interface, and needs no
/// validity bit: data is enqueued only when requested). Only the get
/// controller changes (Fig. 16): the station outputs a packet every
/// get-slot clock cycle, with `valid_get` low whenever it is empty or
/// stopped from the right.
pub(crate) fn build_async_sync(
    b: &mut Builder<'_>,
    params: FifoParams,
    clocks: ClockInputs,
) -> DesignPorts {
    let clk_get = clocks.get_net();
    let w = params.width;
    b.push_scope("asrs");

    let put_req = b.input("put_req");
    let put_data = b.input_bus("put_data", w);
    let stop_in = b.input("stop_in");
    let data_get = b.input_bus("data_get", w);
    let en_get = b.input("en_get");

    let AsyncCellArray {
        put_ack,
        valid_bus,
        nclk_get,
        cell_full,
    } = build_async_cell_array(b, params, clk_get, en_get, put_req, &put_data, &data_get);

    let ne_raw = build_ne_detector(b, &cell_full, anticipation_window(params.sync_stages));
    let oe_raw = build_oe_detector(b, &cell_full);
    let empty = build_bimodal_empty(b, clk_get, ne_raw, oe_raw, en_get, params.sync_stages);

    // Get controller (Fig. 16): continuous dequeue unless empty or
    // stopped; the outgoing validity is the enable gated by the
    // selected cell's broadcast non-empty flag (see the FIFO's get
    // controller for why the enable alone is not enough).
    let en_get_val = b.nor(&[empty, stop_in]);
    b.buf_onto(en_get_val, en_get);
    let valid_get = b.and2(en_get, valid_bus);

    b.pop_scope();
    DesignPorts {
        clk_get: Some(clk_get),
        put_req: Some(put_req),
        data_put: put_data,
        put_ack: Some(put_ack),
        stop_in: Some(stop_in),
        data_get,
        valid_get: Some(valid_get),
        nclk_get: Some(nclk_get),
        ..DesignPorts::new(DesignKind::AsyncSyncRs, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::on_ports::{async_put, packets_in, packets_out};
    use mtf_sim::{ClockGen, Logic, Simulator, Time};

    fn build_mcrs(sim: &mut Simulator, params: FifoParams, tput: Time, tget: Time) -> DesignPorts {
        let clk_put = sim.net("clk_put");
        let clk_get = sim.net("clk_get");
        ClockGen::spawn_simple(sim, clk_put, tput);
        ClockGen::builder(tget)
            .phase(Time::from_ps(1_700))
            .spawn(sim, clk_get);
        let mut b = Builder::new(sim);
        let clocks = ClockInputs {
            clk_put: Some(clk_put),
            clk_get: Some(clk_get),
        };
        let rs = build_mixed_clock(&mut b, params, clocks);
        drop(b.finish());
        rs
    }

    #[test]
    fn streams_packets_across_clock_boundary() {
        let mut sim = Simulator::new(21);
        let rs = build_mcrs(
            &mut sim,
            FifoParams::new(8, 8),
            Time::from_ns(10),
            Time::from_ns(12),
        );
        let packets: Vec<Option<u64>> = (0..50).map(Some).collect();
        let sj = packets_in(&mut sim, "src", &rs, packets);
        let kj = packets_out(&mut sim, "sink", &rs, vec![]);
        sim.run_until(Time::from_us(3)).unwrap();
        assert_eq!(sj.len(), 50);
        assert_eq!(kj.values(), (0..50).collect::<Vec<u64>>());
    }

    #[test]
    fn bubbles_pass_through_without_appearing() {
        let mut sim = Simulator::new(22);
        let rs = build_mcrs(
            &mut sim,
            FifoParams::new(4, 8),
            Time::from_ns(10),
            Time::from_ns(10),
        );
        // Alternate valid packets and bubbles.
        let mut packets = Vec::new();
        for i in 0..20u64 {
            packets.push(Some(i));
            packets.push(None);
        }
        let _sj = packets_in(&mut sim, "src", &rs, packets);
        let kj = packets_out(&mut sim, "sink", &rs, vec![]);
        sim.run_until(Time::from_us(3)).unwrap();
        assert_eq!(kj.values(), (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn stop_in_backpressures_to_stop_out() {
        let mut sim = Simulator::new(23);
        let rs = build_mcrs(
            &mut sim,
            FifoParams::new(4, 8),
            Time::from_ns(10),
            Time::from_ns(10),
        );
        let packets: Vec<Option<u64>> = (0..60).map(Some).collect();
        let _sj = packets_in(&mut sim, "src", &rs, packets);
        // Sink stalls for a long window mid-stream.
        let kj = packets_out(&mut sim, "sink", &rs, vec![(10, 40)]);
        let stop_out = rs.stop_out.unwrap();
        sim.trace(stop_out);
        sim.run_until(Time::from_us(4)).unwrap();
        // No packet lost or duplicated despite the stall…
        assert_eq!(kj.values(), (0..60).collect::<Vec<u64>>());
        // …and the stall propagated upstream as stop_out.
        assert!(
            sim.waveform(stop_out).unwrap().transition_count() >= 2,
            "stop_out must assert while the sink stalls"
        );
    }

    fn build_asrs(sim: &mut Simulator, params: FifoParams, tget: Time) -> DesignPorts {
        let clk_get = sim.net("clk_get");
        ClockGen::builder(tget)
            .phase(Time::from_ps(900))
            .spawn(sim, clk_get);
        let mut b = Builder::new(sim);
        let clocks = ClockInputs {
            clk_put: None,
            clk_get: Some(clk_get),
        };
        let rs = build_async_sync(&mut b, params, clocks);
        drop(b.finish());
        rs
    }

    #[test]
    fn asrs_bridges_async_producer_to_sync_chain() {
        let mut sim = Simulator::new(24);
        let rs = build_asrs(&mut sim, FifoParams::new(8, 8), Time::from_ns(10));
        let items: Vec<u64> = (0..40).collect();
        let ph = async_put(
            &mut sim,
            "prod",
            &rs,
            items.clone(),
            Time::from_ps(500),
            Time::ZERO,
        );
        let kj = packets_out(&mut sim, "sink", &rs, vec![]);
        sim.run_until(Time::from_us(3)).unwrap();
        assert_eq!(ph.journal().len(), items.len());
        assert_eq!(kj.values(), items);
    }

    #[test]
    fn asrs_stop_in_withholds_ack() {
        let mut sim = Simulator::new(25);
        let rs = build_asrs(&mut sim, FifoParams::new(4, 8), Time::from_ns(10));
        let ph = async_put(
            &mut sim,
            "prod",
            &rs,
            (0..20).collect(),
            Time::from_ps(500),
            Time::ZERO,
        );
        // Sink permanently stopped from the start.
        let kj = packets_out(&mut sim, "sink", &rs, vec![(0, u64::MAX)]);
        sim.run_until(Time::from_us(2)).unwrap();
        // The station fills, then asynchronous back-pressure freezes puts.
        assert_eq!(ph.journal().len(), 4);
        assert_eq!(kj.len(), 0, "a stopped sink receives no valid packets");
        assert_eq!(sim.value(rs.put_ack.unwrap()), Logic::L);
    }

    #[test]
    fn asrs_emits_invalid_packets_while_empty() {
        let mut sim = Simulator::new(26);
        let rs = build_asrs(&mut sim, FifoParams::new(4, 8), Time::from_ns(10));
        // No producer: tie the put request off.
        let put_req = rs.put_req.unwrap();
        let d = sim.driver(put_req);
        sim.drive_at(d, put_req, Logic::L, Time::ZERO);
        let kj = packets_out(&mut sim, "sink", &rs, vec![]);
        sim.run_until(Time::from_us(1)).unwrap();
        assert_eq!(kj.len(), 0, "an empty station streams only bubbles");
        assert_eq!(sim.value(rs.valid_get.unwrap()), Logic::L);
    }
}
