//! The async–sync FIFO of Section 4.

use mtf_async::{dv_as_spec, opt_spec, BmMachine, StgMachine};
use mtf_gates::Builder;
use mtf_sim::{Logic, MetaModel, NetId, Time};

use crate::design::{ClockInputs, DesignKind, DesignPorts};
use crate::detectors::{build_bimodal_empty, build_ne_detector, build_oe_detector};
use crate::params::FifoParams;

/// Reaction delay assigned to the burst-mode `OPT` controllers — stands in
/// for the logic depth Minimalist synthesis would produce.
const OPT_DELAY: Time = Time::from_ps(450);
/// Reaction delay of the Petri-net `DV_as` controllers (Petrify substitute).
const DV_DELAY: Time = Time::from_ps(250);

/// The nets of a built asynchronous-put cell array (shared between the
/// async-sync FIFO and the async-sync relay station, which differ only in
/// the get controller).
#[derive(Clone, Debug)]
pub(crate) struct AsyncCellArray {
    pub put_ack: NetId,
    pub valid_bus: NetId,
    /// The inverted get clock (falling-edge launch of the mid-cycle `re`).
    pub nclk_get: NetId,
    pub cell_full: Vec<NetId>,
}

/// Builds the async-put / sync-get cell array of paper Fig. 9, including
/// the `put_ack` OR tree. The caller supplies the get-enable net and wraps
/// the array with its choice of get controller.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_async_cell_array(
    b: &mut Builder<'_>,
    params: FifoParams,
    clk_get: NetId,
    en_get: NetId,
    put_req: NetId,
    put_data: &[NetId],
    data_get: &[NetId],
) -> AsyncCellArray {
    let n = params.capacity;
    let valid_bus = b.input("valid_bus");
    let we: Vec<NetId> = (0..n).map(|i| b.sim().net(format!("we[{i}]"))).collect();
    let gtok: Vec<NetId> = (0..n).map(|i| b.sim().net(format!("gtok[{i}]"))).collect();
    // Mid-cycle gating of the DV's `re` input — the paper: "After a get
    // operation begins (re+), the cell is declared 'not full' (fi = 0)
    // asynchronously, in the middle of the CLK_get clock cycle." Gating
    // with the clock phase also means an *aborted* get window (en_get
    // killed a gate-delay after the edge by the rising empty flag) never
    // signals `re+` to the controller at all.
    let nclk_get = b.inv(clk_get);
    let mut cell_full = Vec::with_capacity(n);

    for i in 0..n {
        b.push_scope(format!("cell{i}"));
        let prev = (i + n - 1) % n;

        // Get side: the bus read-enable covers the whole granted window;
        // the controller's `re` commits mid-cycle (see `nclk_get` above)
        // and falls just after the CLK_get edge — exactly the `re+`/`re−`
        // pair `DV_as` expects.
        let re_bus = b.and2(gtok[i], en_get);
        let re_i = b.and(&[gtok[i], en_get, nclk_get]);

        // DV_as: inputs [we, re], outputs [ei, fi].
        let dv_nets = StgMachine::spawn(b.sim(), dv_as_spec(i), &[we[i], re_i], DV_DELAY);
        let (e_i, f_i) = (dv_nets[2], dv_nets[3]);
        b.record_macro("DVas", &[we[i], re_i], &[e_i, f_i], DV_DELAY);
        cell_full.push(f_i);

        // OPT: obtains the token from the right neighbour's pulse.
        let opt_out = BmMachine::spawn(b.sim(), opt_spec(i, i == 0), &[we[prev], we[i]], OPT_DELAY);
        let ptok_i = opt_out[0];
        b.record_macro("OPT", &[we[prev], we[i]], &[ptok_i], OPT_DELAY);

        // The write-enable pulse generator (asymmetric C-element).
        b.acelement_onto(&[put_req], &[ptok_i, e_i], Logic::L, we[i]);

        // Write port: transparent while the pulse is high.
        let reg_q = b.latch_word(we[i], put_data);

        // Read port: broadcast for the whole granted window. The validity
        // broadcast is `NOT e_i`: by `DV_as`'s asymmetry, `e_i` rises only
        // after the get completes on the clock edge, so a real item's
        // validity holds through the receiver's closing edge — while a
        // stale cell (already drained) broadcasts invalid, so a window
        // granted on stale detector state delivers a bubble rather than a
        // duplicate.
        let not_empty = b.inv(e_i);
        b.tri_word_onto(re_bus, &reg_q, data_get);
        b.tribuf_onto(re_bus, not_empty, valid_bus);

        // Get-token ring (identical to the mixed-clock design).
        let init = Logic::from_bool(i == 0);
        let gq = b.dff_opts(
            clk_get,
            gtok[prev],
            Some(en_get),
            init,
            MetaModel::ideal(),
            true,
        );
        b.buf_onto(gq, gtok[i]);

        b.pop_scope();
    }

    // put_ack: OR tree over the per-cell pulses (paper Section 6).
    let put_ack = b.or(&we);

    AsyncCellArray {
        put_ack,
        valid_bus,
        nclk_get,
        cell_full,
    }
}

/// Builds the async–sync FIFO (paper Section 4) into `b`: a 4-phase
/// single-rail bundled-data put interface feeding the unchanged synchronous
/// get part of the mixed-clock design, clocked by the get-slot clock.
///
/// Each cell's asynchronous put part (paper Fig. 9):
///
/// * `OPT` — a burst-mode machine that obtains the put token from the
///   right neighbour's `we` pulse and releases it on the local `we+`;
/// * an asymmetric C-element generating the write-enable pulse:
///   `we` rises when `put_req`, `ptok` *and* `e_i` are all high, and falls
///   with `put_req` alone;
/// * a transparent word latch (the register's write port) open during the
///   `we` pulse — the bundled-data constraint guarantees `put_data` is
///   stable throughout;
/// * the Petri-net data-validity controller `DV_as` (Fig. 10b), whose
///   asymmetric protocol declares the cell "not full" (`f_i−`)
///   *immediately* when a get begins, but "empty" (`e_i+`) only once the
///   get completes on the `CLK_get` edge **and** the put pulse has
///   finished — preventing a new put from corrupting a get in progress.
///
/// The global `put_ack` is the OR tree of the per-cell `we` pulses
/// (Section 6): acknowledge rises when the enqueue has committed and is
/// *withheld* whenever the token cell is still occupied, which is how the
/// asynchronous interface expresses "full" without a detector.
pub(crate) fn build(b: &mut Builder<'_>, params: FifoParams, clocks: ClockInputs) -> DesignPorts {
    build_with_cells(b, params, clocks).0
}

/// [`build`], also returning the per-cell full lines `f_i` (test
/// observability of the cell state).
pub(crate) fn build_with_cells(
    b: &mut Builder<'_>,
    params: FifoParams,
    clocks: ClockInputs,
) -> (DesignPorts, Vec<NetId>) {
    let clk_get = clocks.get_net();
    let w = params.width;
    b.push_scope("asfifo");

    let put_req = b.input("put_req");
    let put_data = b.input_bus("put_data", w);
    let req_get = b.input("req_get");
    let data_get = b.input_bus("data_get", w);
    let en_get = b.input("en_get");

    // ---- cell array (paper Fig. 9, shared with the relay station) -------
    let AsyncCellArray {
        put_ack,
        valid_bus,
        nclk_get,
        cell_full,
    } = build_async_cell_array(b, params, clk_get, en_get, put_req, &put_data, &data_get);

    // Empty detection + get controller: reused from the mixed-clock
    // design, operating on the DV-produced f_i lines.
    let ne_raw = build_ne_detector(b, &cell_full, params.sync_stages.max(2));
    let oe_raw = build_oe_detector(b, &cell_full);
    let empty = build_bimodal_empty(b, clk_get, ne_raw, oe_raw, en_get, params.sync_stages);
    let en_get_val = b.and_not(req_get, empty);
    b.buf_onto(en_get_val, en_get);

    // Every *stored* item is valid (data is enqueued only when
    // requested), but the grant can outlive the data by a stale
    // detector cycle — so dequeue success is the enable gated by the
    // selected cell's broadcast non-empty flag.
    let valid_get = b.and2(en_get, valid_bus);

    b.pop_scope();
    let ports = DesignPorts {
        clk_get: Some(clk_get),
        put_req: Some(put_req),
        data_put: put_data,
        put_ack: Some(put_ack),
        req_get: Some(req_get),
        data_get,
        valid_get: Some(valid_get),
        empty: Some(empty),
        nclk_get: Some(nclk_get),
        ..DesignPorts::new(DesignKind::AsyncSync, params)
    };
    (ports, cell_full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::on_ports::{async_put, sync_get};
    use crate::mixed_clock::occupancy;
    use mtf_sim::{ClockGen, Simulator, ViolationKind};

    /// The FIFO's ports and its `f_i` lines, on a running get clock.
    fn build(sim: &mut Simulator, params: FifoParams, tget: Time) -> (DesignPorts, Vec<NetId>) {
        let clk_get = sim.net("clk_get");
        ClockGen::builder(tget)
            .phase(Time::from_ps(700))
            .spawn(sim, clk_get);
        let mut b = Builder::new(sim);
        let clocks = ClockInputs {
            clk_put: None,
            clk_get: Some(clk_get),
        };
        let f = build_with_cells(&mut b, params, clocks);
        drop(b.finish());
        f
    }

    #[test]
    fn transfers_all_items_in_order() {
        let mut sim = Simulator::new(11);
        let (f, _) = build(&mut sim, FifoParams::new(4, 8), Time::from_ns(10));
        let items: Vec<u64> = (0..40).map(|i| (255 - i) % 256).collect();
        let ph = async_put(
            &mut sim,
            "prod",
            &f,
            items.clone(),
            Time::from_ps(500),
            Time::ZERO,
        );
        let cj = sync_get(&mut sim, "cons", &f, items.len() as u64, 1);
        sim.run_until(Time::from_us(4)).unwrap();
        assert_eq!(ph.journal().len(), items.len(), "all items acknowledged");
        assert_eq!(cj.values(), items, "all items dequeued in order");
        assert_eq!(
            sim.violations_of(ViolationKind::Protocol).count(),
            0,
            "no controller protocol violations"
        );
    }

    #[test]
    fn ack_withheld_when_full() {
        let mut sim = Simulator::new(12);
        let (f, cells) = build(&mut sim, FifoParams::new(4, 8), Time::from_ns(10));
        // Tie the get side off.
        let req_get = f.req_get.unwrap();
        let d = sim.driver(req_get);
        sim.drive_at(d, req_get, Logic::L, Time::ZERO);
        let ph = async_put(
            &mut sim,
            "prod",
            &f,
            (0..10).collect(),
            Time::from_ps(500),
            Time::ZERO,
        );
        sim.run_until(Time::from_us(2)).unwrap();
        // All four cells fill; the fifth handshake blocks with ack low.
        assert_eq!(ph.journal().len(), 4, "asynchronous back-pressure");
        assert_eq!(occupancy(&sim, &cells), Some(4));
        assert_eq!(sim.value(f.put_ack.unwrap()), Logic::L);
    }

    #[test]
    fn slow_producer_fast_consumer() {
        let mut sim = Simulator::new(13);
        let (f, _) = build(&mut sim, FifoParams::new(8, 16), Time::from_ns(6));
        let items: Vec<u64> = (0..30).map(|i| i * 1_000).collect();
        let ph = async_put(
            &mut sim,
            "prod",
            &f,
            items.clone(),
            Time::from_ps(500),
            Time::from_ns(40),
        );
        let cj = sync_get(&mut sim, "cons", &f, items.len() as u64, 1);
        sim.run_until(Time::from_us(8)).unwrap();
        assert_eq!(ph.journal().len(), items.len());
        assert_eq!(cj.values(), items);
    }

    #[test]
    fn get_throughput_matches_mixed_clock_design() {
        // The get part is reused verbatim, so a saturated async-sync FIFO
        // must deliver one item per get cycle in steady state — the reason
        // Table 1 shows identical get columns for both designs.
        let mut sim = Simulator::new(14);
        let (f, _) = build(&mut sim, FifoParams::new(8, 8), Time::from_ns(10));
        let items: Vec<u64> = (0..100).collect();
        let _ph = async_put(
            &mut sim,
            "prod",
            &f,
            items.clone(),
            Time::from_ps(300),
            Time::ZERO,
        );
        let cj = sync_get(&mut sim, "cons", &f, items.len() as u64, 1);
        sim.run_until(Time::from_us(6)).unwrap();
        assert_eq!(cj.values(), items);
        // Steady state: consecutive dequeues one get-period apart.
        let times = cj.times();
        let mid = &times[40..80];
        let deltas: Vec<u64> = mid.windows(2).map(|w| (w[1] - w[0]).as_ps()).collect();
        let one_cycle = deltas.iter().filter(|&&d| d == 10_000).count();
        assert!(
            one_cycle * 10 >= deltas.len() * 8,
            "at least 80% of steady-state dequeues are back-to-back ({one_cycle}/{})",
            deltas.len()
        );
    }
}
