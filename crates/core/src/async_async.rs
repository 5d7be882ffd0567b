//! The async–async token-ring FIFO of the paper's ref. \[4\]
//! (Chelcea & Nowick, ASYNC 2000), whose put part the async-sync designs
//! reuse. Implemented here as an extension so the full design family of
//! Fig. 1 is covered.

use mtf_async::{dv_as_spec, ogt_spec, opt_spec, BmMachine, StgMachine};
use mtf_gates::Builder;
use mtf_sim::{Logic, NetId};

use crate::async_sync::{BM_DELAY, DV_DELAY};
use crate::design::{ClockInputs, DesignKind, DesignPorts};
use crate::params::FifoParams;

/// Builds the fully asynchronous FIFO into `b`: 4-phase bundled-data on
/// both interfaces, no clocks, no detectors — back-pressure and emptiness
/// are expressed by withholding the respective acknowledge.
///
/// Per cell: the asynchronous put part of the async-sync design (`OPT`
/// token controller, asymmetric C-element, transparent write latch) plus
/// its mirror image on the get side (`OGT`, a second asymmetric C-element
/// producing the read-enable pulse `re` gated on the cell being full), and
/// the `DV_as` data-validity controller between them.
///
/// Drive the put side with a
/// [`FourPhaseProducer`](mtf_async::FourPhaseProducer) and the get side
/// with a [`FourPhaseGetter`](mtf_async::FourPhaseGetter). The parameters'
/// `sync_stages` is unused — there is nothing to synchronize.
pub(crate) fn build(b: &mut Builder<'_>, params: FifoParams, _: ClockInputs) -> DesignPorts {
    let n = params.capacity;
    let w = params.width;
    b.push_scope("aafifo");

    let put_req = b.input("put_req");
    let put_data = b.input_bus("put_data", w);
    let get_req = b.input("get_req");
    let get_data = b.input_bus("get_data", w);

    let we: Vec<NetId> = (0..n).map(|i| b.sim().net(format!("we[{i}]"))).collect();
    let re: Vec<NetId> = (0..n).map(|i| b.sim().net(format!("re[{i}]"))).collect();

    for i in 0..n {
        b.push_scope(format!("cell{i}"));
        let prev = (i + n - 1) % n;

        // DV_as between the two pulse generators.
        let dv_nets = StgMachine::spawn(b.sim(), dv_as_spec(i), &[we[i], re[i]], DV_DELAY);
        let (e_i, f_i) = (dv_nets[2], dv_nets[3]);
        b.record_macro("DVas", &[we[i], re[i]], &[e_i, f_i], DV_DELAY);

        // Put part (identical to the async-sync design).
        let opt = BmMachine::spawn(b.sim(), opt_spec(i, i == 0), &[we[prev], we[i]], BM_DELAY);
        b.record_macro("OPT", &[we[prev], we[i]], &[opt[0]], BM_DELAY);
        b.acelement_onto(&[put_req], &[opt[0], e_i], Logic::L, we[i]);
        let reg_q = b.latch_word(we[i], &put_data);

        // Get part: the mirror image — OGT passes the get token on the
        // local `re` pulse; the read pulse fires only when the cell
        // holds data (`f_i`).
        let ogt = BmMachine::spawn(b.sim(), ogt_spec(i, i == 0), &[re[prev], re[i]], BM_DELAY);
        b.record_macro("OGT", &[re[prev], re[i]], &[ogt[0]], BM_DELAY);
        b.acelement_onto(&[get_req], &[ogt[0], f_i], Logic::L, re[i]);
        b.tri_word_onto(re[i], &reg_q, &get_data);

        b.pop_scope();
    }

    // Acknowledge OR trees; the extra buffer on get_ack is the matched
    // bundling delay covering the tri-state drivers.
    let put_ack = b.or(&we);
    let ga = b.or(&re);
    let get_ack = b.buf(ga);

    b.pop_scope();
    DesignPorts {
        put_req: Some(put_req),
        data_put: put_data,
        put_ack: Some(put_ack),
        get_req: Some(get_req),
        data_get: get_data,
        get_ack: Some(get_ack),
        ..DesignPorts::new(DesignKind::AsyncAsync, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::on_ports::{async_get, async_put};
    use mtf_sim::{Simulator, Time, ViolationKind};

    fn build(sim: &mut Simulator, params: FifoParams) -> DesignPorts {
        let mut b = Builder::new(sim);
        let f = super::build(&mut b, params, ClockInputs::default());
        drop(b.finish());
        f
    }

    #[test]
    fn transfers_all_items_in_order() {
        let mut sim = Simulator::new(31);
        let f = build(&mut sim, FifoParams::new(4, 8));
        let items: Vec<u64> = (0..50).map(|i| (i * 13) % 256).collect();
        let ph = async_put(
            &mut sim,
            "prod",
            &f,
            items.clone(),
            Time::from_ps(500),
            Time::ZERO,
        );
        let gh = async_get(&mut sim, "get", &f, items.len(), Time::ZERO);
        sim.run_until(Time::from_us(3)).unwrap();
        assert_eq!(ph.journal().len(), items.len());
        assert_eq!(gh.journal().values(), items);
        assert_eq!(sim.violations_of(ViolationKind::Protocol).count(), 0);
    }

    #[test]
    fn get_ack_withheld_on_empty() {
        let mut sim = Simulator::new(32);
        let f = build(&mut sim, FifoParams::new(4, 8));
        let put_req = f.put_req.unwrap();
        let d = sim.driver(put_req);
        sim.drive_at(d, put_req, Logic::L, Time::ZERO);
        let gh = async_get(&mut sim, "get", &f, 1, Time::ZERO);
        sim.run_until(Time::from_us(1)).unwrap();
        assert_eq!(gh.journal().len(), 0, "nothing to get from an empty FIFO");
        assert_eq!(sim.value(f.get_ack.unwrap()), Logic::L);
    }

    #[test]
    fn put_ack_withheld_on_full() {
        let mut sim = Simulator::new(33);
        let f = build(&mut sim, FifoParams::new(4, 8));
        let get_req = f.get_req.unwrap();
        let d = sim.driver(get_req);
        sim.drive_at(d, get_req, Logic::L, Time::ZERO);
        let ph = async_put(
            &mut sim,
            "prod",
            &f,
            (0..9).collect(),
            Time::from_ps(500),
            Time::ZERO,
        );
        sim.run_until(Time::from_us(1)).unwrap();
        assert_eq!(ph.journal().len(), 4, "capacity is the full ring");
    }

    #[test]
    fn late_arriving_getter_drains_everything() {
        let mut sim = Simulator::new(34);
        let f = build(&mut sim, FifoParams::new(8, 16));
        let items: Vec<u64> = (0..20).map(|i| i * 321).collect();
        let _ph = async_put(
            &mut sim,
            "prod",
            &f,
            items.clone(),
            Time::from_ps(500),
            Time::ZERO,
        );
        // Getter starts late: everything buffered first.
        let gh = async_get(&mut sim, "get", &f, items.len(), Time::from_ns(300));
        sim.run_until(Time::from_us(20)).unwrap();
        assert_eq!(gh.journal().values(), items);
    }
}
