//! The mixed-clock (sync–sync) FIFO of Section 3.

use mtf_gates::Builder;
use mtf_sim::{Logic, MetaModel, NetId};

use crate::design::{ClockInputs, DesignKind, DesignPorts};
use crate::detectors::{
    anticipation_window, build_bimodal_empty, build_full_detector, build_ne_detector,
    build_oe_detector,
};
use crate::params::FifoParams;

/// The nets of a built synchronous cell array (shared between the
/// mixed-clock FIFO and the mixed-clock relay station, which differ only
/// in their controllers).
#[derive(Clone, Debug)]
pub(crate) struct SyncCellArray {
    pub cell_full: Vec<NetId>,
    pub cell_empty: Vec<NetId>,
    /// The inverted get clock gating the mid-cycle dequeue commit — a
    /// falling-edge launch point for timing analysis.
    pub nclk_get: NetId,
}

/// Builds the circular cell array of paper Fig. 5: token rings, data
/// registers (word + validity bit), SR data-validity latches and tri-state
/// read ports. The caller provides the control nets (`en_put`, `en_get`)
/// and buses; the controllers around them define whether this is a FIFO or
/// a relay station.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_sync_cell_array(
    b: &mut Builder<'_>,
    params: FifoParams,
    clk_put: NetId,
    clk_get: NetId,
    en_put: NetId,
    en_get: NetId,
    valid_in: NetId,
    data_put: &[NetId],
    data_get: &[NetId],
    valid_bus: NetId,
) -> SyncCellArray {
    let n = params.capacity;
    let w = params.width;
    let ptok: Vec<NetId> = (0..n).map(|i| b.sim().net(format!("ptok[{i}]"))).collect();
    let gtok: Vec<NetId> = (0..n).map(|i| b.sim().net(format!("gtok[{i}]"))).collect();
    let mut cell_full = Vec::with_capacity(n);
    let mut cell_empty = Vec::with_capacity(n);
    let mut full_at_open = Vec::with_capacity(n);
    // The get token advances only out of a window that *delivered* — i.e.
    // the token cell held committed data when the window opened. A window
    // granted on stale detector state (or racing a commit that lands just
    // after the opening edge) then parks the token on the cell instead of
    // walking past it; the next window revisits the same cell, sees the
    // commit, and delivers in order. Without this gate the token can skip
    // a committed-but-not-yet-visible cell, reordering the stream and —
    // once the put token wraps — silently overwriting the skipped item.
    // Forward-declared: it ORs over per-cell state built in the loop.
    let gtok_adv = b.input("gtok_adv");
    // The DV reset is gated to the second half of the get cycle (the
    // paper: the cell is declared not-full "asynchronously, in the middle
    // of the CLK_get clock cycle"). This is load-bearing: when the global
    // empty flag rises it kills `en_get` about a gate-delay after the
    // clock edge — an *aborted* get window. Without the clock gate the
    // reset pulse would already have fired at window start, marking a cell
    // consumed that was never delivered.
    let nclk_get = b.inv(clk_get);

    for i in 0..n {
        b.push_scope(format!("cell{i}"));
        let prev = (i + n - 1) % n;

        // Token ETDFFs: the one-hot tokens rotate by one position on
        // every enabled operation. Cell 0 powers on holding both.
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
        let gq = b.dff_opts(
            clk_get,
            gtok[prev],
            Some(gtok_adv),
            init,
            MetaModel::ideal(),
            true,
        );
        b.buf_onto(gq, gtok[i]);

        // This cell performs a put (get) in cycles where it holds the
        // token and the operation is globally enabled.
        let do_put = b.and2(ptok[i], en_put);
        let do_get = b.and2(gtok[i], en_get);
        // Mid-cycle commit of the dequeue (see `nclk_get` above), gated
        // below by "the window opened on committed data": forward-declared
        // because it resets the very latch whose registered output gates it.
        let do_get_commit = b.input("do_get_commit");
        // Matched delay on the set path: the put's `s` must outlive any
        // legitimate reset tail, so that (with the set-dominant latch) a
        // reset can only win once the put has fully committed.
        let set_pulse = b.buf(do_put);
        // The cell's data *commits* at the latching clock edge; this flop
        // raises the committed flag exactly then. The claim (`set_pulse`)
        // precedes it by up to a full put cycle — the full detector needs
        // that early warning, but the get side must never be steered
        // toward data that is still in flight.
        let committed = b.dff_opts(clk_put, do_put, None, Logic::L, MetaModel::ideal(), true);
        // The DV set must be an edge *pulse*, not the full-cycle `committed`
        // level: a receiver clocked faster than `sync_stages` times the put
        // clock consumes a cell within the same put cycle that committed it,
        // and with a set-dominant latch a cycle-wide set level would swallow
        // that dequeue's reset — the cell would stay "full" and re-deliver
        // on the next token wrap. A few matched buffers give the pulse
        // enough width to register while ending long before the earliest
        // legitimate reset (which trails the commit by at least the empty
        // detector's synchronization delay).
        let committed_d1 = b.buf(committed);
        let committed_d2 = b.buf(committed_d1);
        let committed_dly = b.buf(committed_d2);
        let commit_pulse = b.and_not(committed, committed_dly);

        // Data register: data word plus the validity bit.
        let mut reg_in: Vec<NetId> = data_put.to_vec();
        reg_in.push(valid_in);
        let reg_q = b.register(clk_put, Some(do_put), &reg_in);

        // Data-validity state, split per timing role. The *claim* latch
        // drives `e_i` for the full detector: it leaves the empty pool the
        // moment the put is enabled (the anticipation margin needs that).
        // The *committed* latch drives `f_i` for the empty detectors and
        // the validity broadcast: it joins the full pool only once the
        // data is really in the register, so a stale grant can never steer
        // the get side into in-flight data. Both are set-dominant (the put
        // must win the reset tail at a window's closing edge) and reset by
        // the mid-cycle dequeue commit of a *delivering* window.
        // The `dv` scope marks the DV latches for the glitch lint's waiver
        // table: their set pins are fed by the deliberately hazard-shaped
        // `commit_pulse` one-shot above, which the reconvergence check
        // flags by design.
        b.push_scope("dv");
        let (_claim_q, e_i) = b.sr_latch_qn_set_dominant(set_pulse, do_get_commit, Logic::L);
        let (f_i, _) = b.sr_latch_qn_set_dominant(commit_pulse, do_get_commit, Logic::L);
        b.pop_scope();
        cell_full.push(f_i);
        cell_empty.push(e_i);

        // Read port: broadcast word + validity while dequeuing. The
        // effective validity is the stored bit gated by "this cell held
        // committed data when the window opened" — sampled by a get-side
        // flop so it survives the mid-window reset of `f_i` until the
        // receiver's closing edge. A window that reached a stale or
        // still-in-flight cell therefore delivers invalid, never a
        // duplicate or a phantom.
        // `at_open` scope: this is a *deliberate* single-flop sample of
        // the asynchronous DV state (the CDC lint flags it; the waiver
        // table matches this scope). A metastable sample resolves to
        // "deliver" or "bubble", both of which the gating below makes
        // lossless — see the operating-envelope notes on the FIFO type.
        b.push_scope("at_open");
        let f_at_open = b.dff_opts(clk_get, f_i, None, Logic::L, MetaModel::ideal(), false);
        b.pop_scope();
        let v_eff = b.and2(f_at_open, reg_q[w]);
        full_at_open.push(f_at_open);
        // Consumption is gated the same way as validity: only a window that
        // *delivered* (opened on committed data) may reset the DV state.
        // A stale window granted on anticipated-empty slack — the get token
        // parked on a cell whose put is still in flight — must neither
        // erase the claim nor the commit; without this gate its aborted
        // reset pulse could race the commit and silently drop the item.
        let dgc_val = b.and(&[gtok[i], en_get, nclk_get, f_at_open]);
        b.buf_onto(dgc_val, do_get_commit);
        b.tri_word_onto(do_get, &reg_q[..w], data_get);
        b.tribuf_onto(do_get, v_eff, valid_bus);

        b.pop_scope();
    }

    // Token-advance enable (see the `gtok_adv` declaration): the one-hot
    // selection of the token cell's delivered-at-open flag, sampled by the
    // token flops at the closing edge of each enabled window.
    let delivered_sel: Vec<NetId> = (0..n).map(|i| b.and2(gtok[i], full_at_open[i])).collect();
    let any_delivered = b.or(&delivered_sel);
    let gtok_adv_val = b.and2(en_get, any_delivered);
    b.buf_onto(gtok_adv_val, gtok_adv);

    SyncCellArray {
        cell_full,
        cell_empty,
        nclk_get,
    }
}

/// Builds the mixed-clock FIFO (paper Section 3) into `b`: a circular
/// array of [`FifoParams::capacity`] cells between a put interface clocked
/// by the put-slot clock and a get interface clocked by the get-slot clock.
///
/// Structure per cell (paper Fig. 5):
///
/// * an ETDFF ring carrying the one-hot **put token** (shifted on every
///   enabled put), and a second ring for the **get token**;
/// * a `width + 1`-bit register capturing `data_put` plus the validity bit
///   (`req_put`) when the cell holds the put token and `en_put` is high;
/// * an SR data-validity latch: set (`f_i` high) asynchronously as the put
///   is enabled, reset (`e_i` high) asynchronously as the get is enabled;
/// * tri-state read ports broadcasting the stored word and validity on the
///   shared `data_get`/`valid` buses while the cell holds the get token
///   during an enabled get.
///
/// Global logic: the anticipating full detector (synchronized into the put
/// domain), the bi-modal ne/oe empty detector (synchronized into the get
/// domain, deadlock-free), and the two one-gate controllers of Fig. 7.
///
/// # Operating envelope
///
/// The paper's design sets `f_i` asynchronously at the *start* of a put
/// cycle (that early warning is what makes the one-cell anticipation
/// margin of the detectors sufficient) while the data itself is latched at
/// the *end*; a get, in turn, can act at the earliest `sync_stages`
/// get-cycles after `f_i` rises, so the paper's circuit is only correct
/// inside
///
/// ```text
/// T_put < sync_stages · T_get      (and symmetrically
/// T_get < sync_stages · T_put)
/// ```
///
/// (the paper's evaluation keeps the clocks within ~1.3×). This
/// implementation hardens that envelope from a correctness boundary into a
/// throughput one: the DV state splits the early *claim* (for the full
/// detector) from a *committed* flag set by an edge pulse at the latching
/// clock edge, and both the validity broadcast and the dequeue reset are
/// gated by "committed when the window opened" (`f_at_open`). A get window
/// granted on stale detector state — inevitable once the receiver outruns
/// `sync_stages · T_put` — then delivers an explicit bubble instead of a
/// phantom, a duplicate or a lost item. Outside the envelope the stream
/// stays lossless and ordered but the delivery rate degrades below one
/// item per get cycle; deeper synchronizers restore the full-rate envelope
/// along with improving MTBF. The `clock_ratio_*` tests demonstrate both
/// sides of the boundary.
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
    let (clk_put, clk_get) = (clocks.put_net(), clocks.get_net());
    let w = params.width;
    b.push_scope("mcfifo");

    // External interface nets.
    let req_put = b.input("req_put");
    let data_put = b.input_bus("data_put", w);
    let req_get = b.input("req_get");
    let data_get = b.input_bus("data_get", w);
    let valid_bus = b.input("valid_bus");

    // Controller outputs, created up front because the cells need them.
    let en_put = b.input("en_put");
    let en_get = b.input("en_get");

    // ---- cell array (paper Fig. 5, shared with the relay station) -------
    let SyncCellArray {
        cell_full,
        cell_empty,
        nclk_get,
    } = build_sync_cell_array(
        b, params, clk_put, clk_get, en_put, en_get, req_put, &data_put, &data_get, valid_bus,
    );

    // ---- detectors and synchronizers ------------------------------------
    let full_raw = build_full_detector(b, &cell_empty, anticipation_window(params.sync_stages));
    let full = b.sync_chain(clk_put, full_raw, params.sync_stages, Logic::L);

    let ne_raw = build_ne_detector(b, &cell_full, anticipation_window(params.sync_stages));
    let oe_raw = build_oe_detector(b, &cell_full);
    let empty = build_bimodal_empty(b, clk_get, ne_raw, oe_raw, en_get, params.sync_stages);

    // ---- controllers (paper Fig. 7) --------------------------------------
    // Put controller: enable puts while a valid item is offered and the
    // FIFO is not full.
    let en_put_val = b.and_not(req_put, full);
    b.buf_onto(en_put_val, en_put);
    // Get controller: enable gets while requested and not empty.
    let en_get_val = b.and_not(req_get, empty);
    b.buf_onto(en_get_val, en_get);

    // External validity: low whenever no dequeue is in progress.
    let valid_get = b.and2(en_get, valid_bus);

    b.pop_scope();
    let ports = DesignPorts {
        clk_put: Some(clk_put),
        clk_get: Some(clk_get),
        req_put: Some(req_put),
        data_put,
        full: Some(full),
        req_get: Some(req_get),
        data_get,
        valid_get: Some(valid_get),
        empty: Some(empty),
        nclk_get: Some(nclk_get),
        ..DesignPorts::new(DesignKind::MixedClock, params)
    };
    (ports, cell_full)
}

/// The number of cells currently holding data, read combinationally from
/// the `f_i` lines `cell_full` (test observability; `None` if any line is
/// not definite).
#[cfg(test)]
pub(crate) fn occupancy(sim: &mtf_sim::Simulator, cell_full: &[NetId]) -> Option<usize> {
    let mut n = 0;
    for &f in cell_full {
        match sim.value(f).to_bool() {
            Some(true) => n += 1,
            Some(false) => {}
            None => return None,
        }
    }
    Some(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::on_ports::{sync_get, sync_put};
    use mtf_sim::{ClockGen, Simulator, Time};

    /// The FIFO's ports and its `f_i` lines, on running clocks.
    fn build(
        sim: &mut Simulator,
        params: FifoParams,
        tput: Time,
        tget: Time,
    ) -> (DesignPorts, Vec<NetId>) {
        let clk_put = sim.net("clk_put");
        let clk_get = sim.net("clk_get");
        ClockGen::spawn_simple(sim, clk_put, tput);
        ClockGen::builder(tget)
            .phase(Time::from_ps(1_300))
            .spawn(sim, clk_get);
        let mut b = Builder::new(sim);
        let clocks = ClockInputs {
            clk_put: Some(clk_put),
            clk_get: Some(clk_get),
        };
        let f = build_with_cells(&mut b, params, clocks);
        drop(b.finish());
        f
    }

    #[test]
    fn transfers_all_items_in_order() {
        let mut sim = Simulator::new(1);
        let (f, _) = build(
            &mut sim,
            FifoParams::new(4, 8),
            Time::from_ns(10),
            Time::from_ns(13),
        );
        let items: Vec<u64> = (0..40).map(|i| (i * 7) % 256).collect();
        let pj = sync_put(&mut sim, "prod", &f, items.clone(), 1);
        let cj = sync_get(&mut sim, "cons", &f, items.len() as u64, 1);
        sim.run_until(Time::from_us(3)).unwrap();
        assert_eq!(pj.len(), items.len(), "all items enqueued");
        assert_eq!(cj.values(), items, "all items dequeued in order");
    }

    #[test]
    fn faster_get_clock_still_correct() {
        // 12 ns put vs 7 ns get: inside the T_put < 2·T_get envelope.
        let mut sim = Simulator::new(2);
        let (f, _) = build(
            &mut sim,
            FifoParams::new(8, 8),
            Time::from_ns(12),
            Time::from_ns(7),
        );
        let items: Vec<u64> = (0..60).collect();
        let pj = sync_put(&mut sim, "prod", &f, items.clone(), 1);
        let cj = sync_get(&mut sim, "cons", &f, items.len() as u64, 1);
        sim.run_until(Time::from_us(5)).unwrap();
        assert_eq!(pj.len(), items.len());
        assert_eq!(cj.values(), items);
    }

    #[test]
    fn saturating_producer_fills_exactly_to_capacity() {
        // Under saturation, the one-cell anticipation margin of the full
        // detector is consumed by the in-flight put during the
        // synchronization delay: the FIFO fills to exactly N, never N+1.
        let mut sim = Simulator::new(3);
        let (f, cells) = build(
            &mut sim,
            FifoParams::new(4, 8),
            Time::from_ns(10),
            Time::from_ns(10),
        );
        let pj = sync_put(&mut sim, "prod", &f, (0..20).collect(), 1);
        sim.run_until(Time::from_us(2)).unwrap();
        assert_eq!(pj.len(), 4, "fills to capacity, no overflow");
        assert_eq!(occupancy(&sim, &cells), Some(4));
        assert_eq!(sim.value(f.full.unwrap()), mtf_sim::Logic::H);
    }

    #[test]
    fn trickle_producer_sees_n_minus_1_places() {
        // With no put in flight when full asserts, the anticipation makes
        // the n-place FIFO look like an (n-1)-place one (paper Sec. 3.2:
        // "sometimes the two systems see an n-place FIFO as a n-1 place
        // one").
        let mut sim = Simulator::new(8);
        let (f, cells) = build(
            &mut sim,
            FifoParams::new(4, 8),
            Time::from_ns(10),
            Time::from_ns(10),
        );
        let pj = sync_put(&mut sim, "prod", &f, (0..20).collect(), 5);
        sim.run_until(Time::from_us(3)).unwrap();
        assert_eq!(pj.len(), 3, "blocked with one cell still free");
        assert_eq!(occupancy(&sim, &cells), Some(3));
        assert_eq!(sim.value(f.full.unwrap()), mtf_sim::Logic::H);
    }

    #[test]
    fn last_item_is_retrievable_no_deadlock() {
        // The bi-modal detector's whole point: a FIFO holding one item must
        // serve it (plain anticipating-empty would stall forever).
        let mut sim = Simulator::new(4);
        let (f, cells) = build(
            &mut sim,
            FifoParams::new(4, 8),
            Time::from_ns(10),
            Time::from_ns(11),
        );
        let pj = sync_put(&mut sim, "prod", &f, vec![0xAB], 1);
        let cj = sync_get(&mut sim, "cons", &f, 1, 1);
        sim.run_until(Time::from_us(2)).unwrap();
        assert_eq!(pj.len(), 1);
        assert_eq!(cj.values(), vec![0xAB], "the single item must come out");
        assert_eq!(occupancy(&sim, &cells), Some(0));
    }

    #[test]
    fn empty_fifo_yields_nothing() {
        let mut sim = Simulator::new(5);
        let (f, _) = build(
            &mut sim,
            FifoParams::new(4, 8),
            Time::from_ns(10),
            Time::from_ns(10),
        );
        // Tie the unused put request inactive (an undriven control input
        // reads as unknown).
        let req_put = f.req_put.unwrap();
        let d = sim.driver(req_put);
        sim.drive_at(d, req_put, mtf_sim::Logic::L, Time::ZERO);
        let cj = sync_get(&mut sim, "cons", &f, 5, 1);
        sim.run_until(Time::from_us(1)).unwrap();
        assert_eq!(cj.len(), 0, "no items can be dequeued from an empty FIFO");
        assert_eq!(sim.value(f.empty.unwrap()), mtf_sim::Logic::H);
    }

    #[test]
    fn interleaved_trickle_traffic() {
        // Slow, non-saturating traffic exercises the oe-dominates path of
        // the bi-modal detector on every item.
        let mut sim = Simulator::new(6);
        let (f, _) = build(
            &mut sim,
            FifoParams::new(4, 8),
            Time::from_ns(10),
            Time::from_ns(10),
        );
        let items: Vec<u64> = (100..110).collect();
        let _pj = sync_put(&mut sim, "prod", &f, items.clone(), 7);
        let cj = sync_get(&mut sim, "cons", &f, items.len() as u64, 3);
        sim.run_until(Time::from_us(3)).unwrap();
        assert_eq!(cj.values(), items);
    }

    #[test]
    fn clock_ratio_beyond_envelope_stays_lossless() {
        // 17 ns put vs 5 ns get is a 3.4× ratio — outside the paper's
        // T_put < 2·T_get full-rate envelope, so most get windows are
        // granted on stale detector state. The commit-pulse DV set and the
        // delivered-window-gated dequeue reset turn every such window into
        // an explicit bubble: the stream stays lossless and ordered, only
        // the rate degrades (the paper's original circuit corrupts here).
        let mut sim = Simulator::new(2);
        let (f, _) = build(
            &mut sim,
            FifoParams::new(8, 8),
            Time::from_ns(17),
            Time::from_ns(5),
        );
        let items: Vec<u64> = (0..60).collect();
        let _pj = sync_put(&mut sim, "prod", &f, items.clone(), 1);
        let cj = sync_get(&mut sim, "cons", &f, items.len() as u64, 1);
        sim.run_until(Time::from_us(5)).unwrap();
        assert_eq!(
            cj.values(),
            items,
            "beyond the envelope the stream must degrade to bubbles, not corrupt"
        );
    }

    #[test]
    fn deeper_synchronizers_widen_the_envelope() {
        // The same 3.4× ratio becomes safe with 4-stage synchronizers
        // (T_put < 4·T_get): the get side now trails the put by 4 get
        // cycles, which covers the put-side latching delay.
        let mut sim = Simulator::new(2);
        let (f, _) = build(
            &mut sim,
            FifoParams::with_sync_stages(8, 8, 4),
            Time::from_ns(17),
            Time::from_ns(5),
        );
        let items: Vec<u64> = (0..60).collect();
        let _pj = sync_put(&mut sim, "prod", &f, items.clone(), 1);
        let cj = sync_get(&mut sim, "cons", &f, items.len() as u64, 1);
        sim.run_until(Time::from_us(6)).unwrap();
        assert_eq!(cj.values(), items);
    }

    #[test]
    fn sixteen_place_sixteen_bit() {
        let mut sim = Simulator::new(7);
        let (f, _) = build(
            &mut sim,
            FifoParams::new(16, 16),
            Time::from_ns(9),
            Time::from_ns(12),
        );
        let items: Vec<u64> = (0..100).map(|i| (i * 257) % 65_536).collect();
        let _pj = sync_put(&mut sim, "prod", &f, items.clone(), 1);
        let cj = sync_get(&mut sim, "cons", &f, items.len() as u64, 1);
        sim.run_until(Time::from_us(5)).unwrap();
        assert_eq!(cj.values(), items);
    }
}
