//! The sync–async FIFO — designed in the paper (Section 2 mentions it
//! alongside the other three interfaces) but deferred to a forthcoming
//! technical report. Reconstructed here from the stated component reuse:
//! the synchronous put part of the mixed-clock design glued to the
//! asynchronous get part of the async-async design through a new
//! data-validity controller (`DV_sa`).

use mtf_async::{dv_sa_spec, ogt_spec, BmMachine, StgMachine};
use mtf_gates::Builder;
use mtf_sim::{Logic, MetaModel, NetId, Time};

use crate::design::{ClockInputs, DesignKind, DesignPorts};
use crate::detectors::build_full_detector;
use crate::params::FifoParams;

const OGT_DELAY: Time = Time::from_ps(450);
const DV_DELAY: Time = Time::from_ps(250);

/// Builds the sync–async FIFO into `b`: a synchronous put interface
/// (put-slot clock, `req_put`, `full`) feeding a 4-phase bundled-data get
/// interface.
///
/// The interesting asymmetry lives in `DV_sa`
/// ([`dv_sa_spec`](mtf_async::dv_sa_spec)): the cell leaves the *empty*
/// pool as soon as the put is enabled (`e_i−` mid-cycle — the anticipating
/// full detector needs the early warning, exactly as in the mixed-clock
/// design), but it joins the *full* pool only when the put completes on
/// the clock edge (`f_i+` on `pe−`) — because the asynchronous get side
/// reacts within gate delays and must never see a cell whose data is still
/// in flight.
pub(crate) fn build(b: &mut Builder<'_>, params: FifoParams, clocks: ClockInputs) -> DesignPorts {
    let clk_put = clocks.put_net();
    let n = params.capacity;
    let w = params.width;
    b.push_scope("safifo");

    let req_put = b.input("req_put");
    let data_put = b.input_bus("data_put", w);
    let get_req = b.input("get_req");
    let get_data = b.input_bus("get_data", w);
    let en_put = b.input("en_put");

    let ptok: Vec<NetId> = (0..n).map(|i| b.sim().net(format!("ptok[{i}]"))).collect();
    let re: Vec<NetId> = (0..n).map(|i| b.sim().net(format!("re[{i}]"))).collect();
    let mut cell_empty = Vec::with_capacity(n);

    for i in 0..n {
        b.push_scope(format!("cell{i}"));
        let prev = (i + n - 1) % n;

        // Synchronous put part (as in the mixed-clock cell).
        let init = Logic::from_bool(i == 0);
        let pq = b.dff_opts(
            clk_put,
            ptok[prev],
            Some(en_put),
            init,
            MetaModel::ideal(),
            true,
        );
        b.buf_onto(pq, ptok[i]);
        let pe_i = b.and2(ptok[i], en_put);
        let reg_q = b.register(clk_put, Some(pe_i), &data_put);

        // DV_sa between the clocked put and the handshake get.
        let dv_nets = StgMachine::spawn(b.sim(), dv_sa_spec(i), &[pe_i, re[i]], DV_DELAY);
        let (e_i, f_i) = (dv_nets[2], dv_nets[3]);
        b.record_macro("DVsa", &[pe_i, re[i]], &[e_i, f_i], DV_DELAY);
        cell_empty.push(e_i);

        // Asynchronous get part (as in the async-async cell).
        let ogt = BmMachine::spawn(b.sim(), ogt_spec(i, i == 0), &[re[prev], re[i]], OGT_DELAY);
        b.record_macro("OGT", &[re[prev], re[i]], &[ogt[0]], OGT_DELAY);
        b.acelement_onto(&[get_req], &[ogt[0], f_i], Logic::L, re[i]);
        b.tri_word_onto(re[i], &reg_q, &get_data);

        b.pop_scope();
    }

    // Put side: anticipating full detector + synchronizer + controller,
    // exactly as in the mixed-clock design.
    let full_raw = build_full_detector(b, &cell_empty, params.sync_stages.max(2));
    let full = b.sync_chain(clk_put, full_raw, params.sync_stages, Logic::L);
    let en_put_val = b.and_not(req_put, full);
    b.buf_onto(en_put_val, en_put);

    // Get side: acknowledge OR tree with matched bundling delay.
    let ga = b.or(&re);
    let get_ack = b.buf(ga);

    b.pop_scope();
    DesignPorts {
        clk_put: Some(clk_put),
        req_put: Some(req_put),
        data_put,
        full: Some(full),
        get_req: Some(get_req),
        data_get: get_data,
        get_ack: Some(get_ack),
        ..DesignPorts::new(DesignKind::SyncAsync, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::on_ports::{async_get, sync_put};
    use mtf_sim::{ClockGen, Simulator, ViolationKind};

    fn build(sim: &mut Simulator, params: FifoParams, tput: Time) -> DesignPorts {
        let clk_put = sim.net("clk_put");
        ClockGen::spawn_simple(sim, clk_put, tput);
        let mut b = Builder::new(sim);
        let clocks = ClockInputs {
            clk_put: Some(clk_put),
            clk_get: None,
        };
        let f = super::build(&mut b, params, clocks);
        drop(b.finish());
        f
    }

    #[test]
    fn transfers_all_items_in_order() {
        let mut sim = Simulator::new(41);
        let f = build(&mut sim, FifoParams::new(4, 8), Time::from_ns(10));
        let items: Vec<u64> = (0..40).map(|i| (i * 3) % 256).collect();
        let pj = sync_put(&mut sim, "prod", &f, items.clone(), 1);
        let gh = async_get(&mut sim, "get", &f, items.len(), Time::ZERO);
        sim.run_until(Time::from_us(4)).unwrap();
        assert_eq!(pj.len(), items.len());
        assert_eq!(gh.journal().values(), items);
        assert_eq!(sim.violations_of(ViolationKind::Protocol).count(), 0);
    }

    #[test]
    fn fast_async_getter_never_reads_in_flight_data() {
        // The getter reacts within gate delays of f_i rising; DV_sa must
        // therefore delay f_i+ until the put's clock edge has committed
        // the data. A trickling producer makes every item hit the
        // empty-FIFO race window.
        let mut sim = Simulator::new(42);
        let f = build(&mut sim, FifoParams::new(4, 8), Time::from_ns(14));
        let items: Vec<u64> = (0..25).collect();
        let _pj = sync_put(&mut sim, "prod", &f, items.clone(), 3);
        let gh = async_get(&mut sim, "get", &f, items.len(), Time::ZERO);
        sim.run_until(Time::from_us(6)).unwrap();
        assert_eq!(gh.journal().values(), items);
    }

    #[test]
    fn blocked_getter_backpressures_producer() {
        let mut sim = Simulator::new(43);
        let f = build(&mut sim, FifoParams::new(4, 8), Time::from_ns(10));
        let get_req = f.get_req.unwrap();
        let d = sim.driver(get_req);
        sim.drive_at(d, get_req, Logic::L, Time::ZERO);
        let pj = sync_put(&mut sim, "prod", &f, (0..20).collect(), 1);
        sim.run_until(Time::from_us(2)).unwrap();
        // Saturating puts fill to capacity (anticipation margin consumed by
        // the in-flight put, as in the mixed-clock design).
        assert_eq!(pj.len(), 4);
        assert_eq!(sim.value(f.full.unwrap()), Logic::H);
    }
}
