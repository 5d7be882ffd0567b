//! The related-work baselines the paper argues against (Section 1,
//! "Related Work"), implemented so the claims can be measured rather than
//! quoted:
//!
//! * [`GRAY_POINTER`](crate::design::GRAY_POINTER) — the standard
//!   alternative architecture for mixed-clock FIFOs: a ring buffer
//!   addressed by binary pointers whose Gray-coded images are synchronized
//!   into the opposite domain (the paper's ref. \[5\] is a member of this
//!   family). Latency through an
//!   empty FIFO costs pointer synchronization *plus* registered
//!   full/empty flags — the "three passes through the global signal
//!   synchronizers" the paper criticises.
//! * [`SeizovicFifo`] — Seizovic's pipeline synchronization \[13\]:
//!   a cascade of stages, each of which re-synchronizes the handshake, so
//!   latency grows linearly with depth.
//! * [`PER_CELL_SYNC`](crate::design::PER_CELL_SYNC) — the Intel patent's
//!   approach \[9\]: the same token-ring cell array as the paper's design,
//!   but with every cell's state flag individually synchronized into the
//!   opposite domain ("two synchronizers per cell") instead of one
//!   synchronizer per global detector. Robust without any anticipation tricks — and measurably
//!   bigger (`mtf_timing::area`).
//!
//! The `related_work` binary in `mtf-bench` prints the three-way
//! comparison (latency, fmax, area).

use std::collections::VecDeque;

use mtf_gates::Builder;
use mtf_sim::{Component, Ctx, DriverId, Logic, MetaModel, NetId, Simulator, Time};

use crate::design::{ClockInputs, DesignKind, DesignPorts};
use crate::params::FifoParams;

// ---------------------------------------------------------------------------
// Small arithmetic helpers over the gate library.
// ---------------------------------------------------------------------------

/// Ripple incrementer: `bits + carry_in` (LSB first), dropping the final
/// carry (pointers wrap modulo 2^n by design).
fn increment(b: &mut Builder<'_>, bits: &[NetId], carry_in: NetId) -> Vec<NetId> {
    let mut carry = carry_in;
    let mut out = Vec::with_capacity(bits.len());
    for (i, &bit) in bits.iter().enumerate() {
        out.push(b.xor2(bit, carry));
        if i + 1 < bits.len() {
            carry = b.and2(bit, carry);
        }
    }
    out
}

/// Binary-to-Gray: `g[i] = b[i] XOR b[i+1]`, MSB passes through.
fn bin2gray(b: &mut Builder<'_>, bits: &[NetId]) -> Vec<NetId> {
    let n = bits.len();
    (0..n)
        .map(|i| {
            if i + 1 < n {
                b.xor2(bits[i], bits[i + 1])
            } else {
                b.buf(bits[i])
            }
        })
        .collect()
}

/// Bitwise equality: AND of XNORs.
fn equal(b: &mut Builder<'_>, x: &[NetId], y: &[NetId]) -> NetId {
    assert_eq!(x.len(), y.len());
    let xnors: Vec<NetId> = x
        .iter()
        .zip(y)
        .map(|(&a, &c)| {
            let d = b.xor2(a, c);
            b.inv(d)
        })
        .collect();
    b.and(&xnors)
}

/// One-hot address decode: AND of each address bit or its complement.
fn addr_decode(b: &mut Builder<'_>, addr: &[NetId], naddr: &[NetId], index: usize) -> NetId {
    let terms: Vec<NetId> = addr
        .iter()
        .zip(naddr)
        .enumerate()
        .map(|(bit, (&a, &na))| if (index >> bit) & 1 == 1 { a } else { na })
        .collect();
    b.and(&terms)
}

// ---------------------------------------------------------------------------
// Gray-code pointer FIFO.
// ---------------------------------------------------------------------------

/// Builds the classic dual-clock FIFO with synchronized Gray pointers (see
/// module docs) into `b`. Its interfaces are the
/// [mixed-clock FIFO](crate::design::MIXED_CLOCK)'s, so the same
/// environments drive both; `full` and `empty` are registered flags.
///
/// # Panics
///
/// Panics unless `params.capacity` is a power of two ≥ 4.
pub(crate) fn build_gray_pointer(
    b: &mut Builder<'_>,
    params: FifoParams,
    clocks: ClockInputs,
) -> DesignPorts {
    let (clk_put, clk_get) = (clocks.put_net(), clocks.get_net());
    let n = params.capacity;
    assert!(n >= 4 && n.is_power_of_two(), "capacity must be 2^k >= 4");
    let k = n.trailing_zeros() as usize; // address bits; pointers have k+1
    let w = params.width;
    b.push_scope("grayfifo");

    let req_put = b.input("req_put");
    let data_put = b.input_bus("data_put", w);
    let req_get = b.input("req_get");
    let data_get = b.input_bus("data_get", w);

    // ---- write domain --------------------------------------------------
    // Registered pointers; next-value logic feeds back through flops, so
    // there is no combinational loop.
    let wbin: Vec<NetId> = (0..=k).map(|i| b.sim().net(format!("wbin[{i}]"))).collect();
    let full = b.input("full_reg");
    let do_put = b.and_not(req_put, full);
    let wbin_next = increment(b, &wbin, do_put);
    for i in 0..=k {
        let q = b.dff(clk_put, wbin_next[i], Logic::L);
        b.buf_onto(q, wbin[i]);
    }
    let wgray_next = bin2gray(b, &wbin_next);
    let wgray: Vec<NetId> = wgray_next
        .iter()
        .map(|&g| b.dff(clk_put, g, Logic::L))
        .collect();

    // ---- read domain ----------------------------------------------------
    let rbin: Vec<NetId> = (0..=k).map(|i| b.sim().net(format!("rbin[{i}]"))).collect();
    let empty = b.input("empty_reg");
    let do_get = b.and_not(req_get, empty);
    let rbin_next = increment(b, &rbin, do_get);
    for i in 0..=k {
        let q = b.dff(clk_get, rbin_next[i], Logic::L);
        b.buf_onto(q, rbin[i]);
    }
    let rgray_next = bin2gray(b, &rbin_next);
    let rgray: Vec<NetId> = rgray_next
        .iter()
        .map(|&g| b.dff(clk_get, g, Logic::L))
        .collect();

    // ---- pointer synchronizers (the defining cost of this design) ------
    let rgray_in_put: Vec<NetId> = rgray
        .iter()
        .map(|&g| b.sync_chain(clk_put, g, params.sync_stages, Logic::L))
        .collect();
    let wgray_in_get: Vec<NetId> = wgray
        .iter()
        .map(|&g| b.sync_chain(clk_get, g, params.sync_stages, Logic::L))
        .collect();

    // ---- registered full/empty flags ------------------------------------
    // full when the next write Gray pointer equals the read pointer with
    // its two top bits inverted (the wrap-distance-N condition).
    let x_top = b.xor2(wgray_next[k], rgray_in_put[k]);
    let x_2nd = b.xor2(wgray_next[k - 1], rgray_in_put[k - 1]);
    let eq_rest = equal(b, &wgray_next[..k - 1], &rgray_in_put[..k - 1]);
    let full_next = b.and(&[x_top, x_2nd, eq_rest]);
    let full_q = b.dff(clk_put, full_next, Logic::L);
    b.buf_onto(full_q, full);

    let empty_next = equal(b, &rgray_next, &wgray_in_get);
    let empty_q = b.dff(clk_get, empty_next, Logic::H);
    b.buf_onto(empty_q, empty);

    // ---- memory ---------------------------------------------------------
    let nwaddr: Vec<NetId> = wbin[..k].iter().map(|&a| b.inv(a)).collect();
    let nraddr: Vec<NetId> = rbin[..k].iter().map(|&a| b.inv(a)).collect();
    for cell in 0..n {
        b.push_scope(format!("cell{cell}"));
        let wsel = addr_decode(b, &wbin[..k], &nwaddr, cell);
        let wen = b.and2(do_put, wsel);
        let q = b.register(clk_put, Some(wen), &data_put);
        let rsel = addr_decode(b, &rbin[..k], &nraddr, cell);
        let ren = b.and2(do_get, rsel);
        b.tri_word_onto(ren, &q, &data_get);
        b.pop_scope();
    }

    let valid_get = b.buf(do_get);
    b.pop_scope();
    DesignPorts {
        clk_put: Some(clk_put),
        clk_get: Some(clk_get),
        req_put: Some(req_put),
        data_put,
        full: Some(full),
        req_get: Some(req_get),
        data_get,
        valid_get: Some(valid_get),
        empty: Some(empty),
        ..DesignPorts::new(DesignKind::GrayPointer, params)
    }
}

// ---------------------------------------------------------------------------
// Seizovic-style pipeline synchronization FIFO (behavioural).
// ---------------------------------------------------------------------------

/// Seizovic's synchronization FIFO \[13\], behaviourally: an asynchronous
/// put interface feeding a cascade of `depth` stages, each of which costs
/// one two-flop synchronization (two receiver-clock cycles) to forward an
/// item — so empty-FIFO latency is `≈ 2 · depth · T_get`, linear in depth,
/// which is exactly the property the paper criticises. The get interface
/// matches the synchronous get protocol of the other designs.
pub struct SeizovicFifo {
    name: String,
    clk: NetId,
    put_req: NetId,
    put_ack: DriverId,
    put_data: Vec<NetId>,
    req_get: NetId,
    data_get: Vec<DriverId>,
    valid_get: DriverId,
    stages: VecDeque<Option<u64>>,
    /// Each stage forwards only on every second clock edge (the two-flop
    /// synchronizer it contains).
    phase: bool,
    /// The clock level at the previous evaluation (`X` before the first).
    /// This component watches every clock change, not only rises: a
    /// falling-edge evaluation runs the asynchronous put handshake, which
    /// can accept into a stage the previous rising edge emptied.
    prev_clk: Logic,
    ack_high: bool,
}

impl std::fmt::Debug for SeizovicFifo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeizovicFifo")
            .field("name", &self.name)
            .field("depth", &self.stages.len())
            .finish()
    }
}

/// The external nets of a spawned [`SeizovicFifo`].
#[derive(Clone, Debug)]
pub struct SeizovicPort {
    /// Asynchronous put request (input, 4-phase).
    pub put_req: NetId,
    /// Put acknowledge (output).
    pub put_ack: NetId,
    /// Put data (input).
    pub put_data: Vec<NetId>,
    /// Get request (input, sampled on the receiver clock).
    pub req_get: NetId,
    /// Get data (output).
    pub data_get: Vec<NetId>,
    /// Dequeue-success flag (output).
    pub valid_get: NetId,
}

impl SeizovicFifo {
    /// Spawns a `depth`-stage pipeline clocked (on its synchronous end) by
    /// `clk`.
    pub fn spawn(
        sim: &mut Simulator,
        name: &str,
        clk: NetId,
        width: usize,
        depth: usize,
    ) -> SeizovicPort {
        assert!(depth >= 1);
        let put_req = sim.net(format!("{name}.put_req"));
        let put_ack_net = sim.net(format!("{name}.put_ack"));
        let put_data = sim.bus(&format!("{name}.put_data"), width);
        let req_get = sim.net(format!("{name}.req_get"));
        let data_get_nets = sim.bus(&format!("{name}.data_get"), width);
        let valid_net = sim.net(format!("{name}.valid_get"));
        let put_ack = sim.driver(put_ack_net);
        let data_get = data_get_nets.iter().map(|&n| sim.driver(n)).collect();
        let valid_get = sim.driver(valid_net);
        let f = SeizovicFifo {
            name: name.to_string(),
            clk,
            put_req,
            put_ack,
            put_data: put_data.clone(),
            req_get,
            data_get,
            valid_get,
            stages: std::iter::repeat_n(None, depth).collect(),
            phase: false,
            prev_clk: Logic::X,
            ack_high: false,
        };
        sim.add_component(Box::new(f), &[clk, put_req]);
        SeizovicPort {
            put_req,
            put_ack: put_ack_net,
            put_data,
            req_get,
            data_get: data_get_nets,
            valid_get: valid_net,
        }
    }
}

impl Component for SeizovicFifo {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &'static str {
        "seizovic_fifo"
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let clk = ctx.get(self.clk);
        let first = self.prev_clk == Logic::X;
        let rising = self.prev_clk == Logic::L && clk == Logic::H;
        self.prev_clk = clk;
        if first {
            ctx.drive(self.put_ack, Logic::L, Time::ZERO);
            ctx.drive(self.valid_get, Logic::L, Time::ZERO);
        }

        // Asynchronous put handshake into stage 0.
        let req = ctx.get(self.put_req);
        if req == Logic::H && !self.ack_high && self.stages[0].is_none() {
            let word = ctx.get_vec(&self.put_data);
            self.stages[0] = Some(word.to_u64().unwrap_or(0));
            self.ack_high = true;
            ctx.drive(self.put_ack, Logic::H, Time::from_ps(500));
        } else if req == Logic::L && self.ack_high {
            self.ack_high = false;
            ctx.drive(self.put_ack, Logic::L, Time::from_ps(300));
        }

        if !rising {
            return;
        }
        // Each stage contains a two-flop synchronizer: forward only every
        // second edge.
        self.phase = !self.phase;
        if self.phase {
            // Deliver from the last stage if the receiver requests.
            let depth = self.stages.len();
            if ctx.get(self.req_get) == Logic::H {
                if let Some(item) = self.stages[depth - 1].take() {
                    for (i, &d) in self.data_get.iter().enumerate() {
                        ctx.drive(
                            d,
                            Logic::from_bool((item >> i) & 1 == 1),
                            Time::from_ps(400),
                        );
                    }
                    ctx.drive(self.valid_get, Logic::H, Time::from_ps(400));
                } else {
                    ctx.drive(self.valid_get, Logic::L, Time::from_ps(400));
                }
            } else {
                ctx.drive(self.valid_get, Logic::L, Time::from_ps(400));
            }
            // Shift the pipeline toward the output.
            for i in (1..depth).rev() {
                if self.stages[i].is_none() {
                    self.stages[i] = self.stages[i - 1].take();
                }
            }
        } else {
            // Off-phase edge: the validity flag must not linger across two
            // receiver edges, or the same item would be counted twice.
            ctx.drive(self.valid_get, Logic::L, Time::from_ps(400));
        }
    }
}

// ---------------------------------------------------------------------------
// Intel-style per-cell synchronization FIFO.
// ---------------------------------------------------------------------------

/// Builds the Intel patent's architecture \[9\] (as characterised by the
/// paper) into `b`: the same token-ring cell array, but each cell's
/// occupancy flag is synchronized into the opposite clock domain
/// individually — "two synchronizers per cell" — and the interfaces consult
/// the token cell's *synchronized* flag instead of an anticipating global
/// detector.
///
/// Because every flag crosses domains conservatively (late, never early),
/// no anticipation margin, bi-modal detector or clock-ratio envelope is
/// needed — the price is `4·n` synchronizer flops and a re-use latency of
/// two cycles per cell, visible in the area model (`mtf_timing::area`) and in
/// small-capacity throughput.
pub(crate) fn build_per_cell_sync(
    b: &mut Builder<'_>,
    params: FifoParams,
    clocks: ClockInputs,
) -> DesignPorts {
    let (clk_put, clk_get) = (clocks.put_net(), clocks.get_net());
    let n = params.capacity;
    let w = params.width;
    b.push_scope("pcsfifo");

    let req_put = b.input("req_put");
    let data_put = b.input_bus("data_put", w);
    let req_get = b.input("req_get");
    let data_get = b.input_bus("data_get", w);
    let valid_bus = b.input("valid_bus");
    let en_put = b.input("en_put");
    let en_get = b.input("en_get");
    let nclk_get = b.inv(clk_get);

    let ptok: Vec<NetId> = (0..n).map(|i| b.sim().net(format!("ptok[{i}]"))).collect();
    let gtok: Vec<NetId> = (0..n).map(|i| b.sim().net(format!("gtok[{i}]"))).collect();
    let mut pe_terms = Vec::with_capacity(n); // token cell synced-empty
    let mut ge_terms = Vec::with_capacity(n); // token cell synced-full

    for i in 0..n {
        b.push_scope(format!("cell{i}"));
        let prev = (i + n - 1) % n;
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
            Some(en_get),
            init,
            MetaModel::ideal(),
            true,
        );
        b.buf_onto(gq, gtok[i]);

        let do_put = b.and2(ptok[i], en_put);
        let do_get = b.and2(gtok[i], en_get);
        let do_get_commit = b.and(&[gtok[i], en_get, nclk_get]);
        let set_pulse = b.buf(do_put);
        let committed = b.dff_opts(clk_put, do_put, None, Logic::L, MetaModel::ideal(), true);
        // Half-cycle commit pulse, gated with the clock's LOW phase:
        // with extreme clock ratios (this design's selling point) the
        // get side can dequeue within one put cycle of the commit, and
        // a cycle-long set level would swallow the reset
        // (set-dominance), leaving a stale flag that re-delivers the
        // item a lap later. Gating with the low phase (rather than the
        // high one) also avoids the classic glitch where the clock
        // rises a flop-delay before the committed flag falls.
        let commit_pulse = b.and_not(committed, clk_put);

        // `dv` scope: the glitch lint's waiver table matches these
        // latches — their pins see the token flop through both a
        // direct gate and the global-enable OR tree (reconvergent by
        // construction in this baseline; both paths settle within the
        // launching clock cycle).
        b.push_scope("dv");
        let (_claim, e_i) = b.sr_latch_qn_set_dominant(set_pulse, do_get_commit, Logic::L);
        let (f_i, _) = b.sr_latch_qn_set_dominant(commit_pulse, do_get_commit, Logic::L);
        b.pop_scope();

        // The defining feature: per-cell synchronizers in BOTH
        // directions (the paper's design has exactly two, globally).
        let e_in_put = b.sync_chain(clk_put, e_i, params.sync_stages, Logic::H);
        let f_in_get = b.sync_chain(clk_get, f_i, params.sync_stages, Logic::L);

        pe_terms.push(b.and2(ptok[i], e_in_put));
        ge_terms.push(b.and2(gtok[i], f_in_get));

        let mut reg_in: Vec<NetId> = data_put.clone();
        reg_in.push(req_put);
        let reg_q = b.register(clk_put, Some(do_put), &reg_in);
        let v_eff = b.and2(f_in_get, reg_q[w]);
        b.tri_word_onto(do_get, &reg_q[..w], &data_get);
        b.tribuf_onto(do_get, v_eff, valid_bus);
        b.pop_scope();
    }

    // Interfaces consult only the token cell's synchronized flag.
    let pe_ok = b.or(&pe_terms);
    let full = b.inv(pe_ok);
    let en_put_val = b.and2(req_put, pe_ok);
    b.buf_onto(en_put_val, en_put);

    let ge_ok = b.or(&ge_terms);
    let empty = b.inv(ge_ok);
    let en_get_val = b.and2(req_get, ge_ok);
    b.buf_onto(en_get_val, en_get);
    let valid_get = b.and2(en_get, valid_bus);

    b.pop_scope();
    DesignPorts {
        clk_put: Some(clk_put),
        clk_get: Some(clk_get),
        req_put: Some(req_put),
        data_put,
        full: Some(full),
        req_get: Some(req_get),
        data_get,
        valid_get: Some(valid_get),
        empty: Some(empty),
        ..DesignPorts::new(DesignKind::PerCellSync, params)
    }
}

// ---------------------------------------------------------------------------
// Shift-register FIFO (the mobile-data strawman for the power claim).
// ---------------------------------------------------------------------------

/// Builds a single-clock shift-register FIFO into `b`: every item marches through every
/// stage on its way out (a "collapsing" shift FIFO — stages take from
/// upstream whenever anything downstream has a hole, so items never
/// duplicate and bubbles collapse).
///
/// This is the architecture the paper's Section 2 low-power claim
/// implicitly contrasts with: here a W-bit item toggles up to `N·W`
/// register bits in transit, while the paper's circular array writes each
/// item exactly once and broadcasts it once. Experiment E12 measures the
/// difference.
///
/// The single clock sits in the put slot; get-side environments fall back
/// to it through [`DesignPorts::get_clock`].
pub(crate) fn build_shift_register(
    b: &mut Builder<'_>,
    params: FifoParams,
    clocks: ClockInputs,
) -> DesignPorts {
    let clk = clocks.put_net();
    let n = params.capacity;
    let w = params.width;
    b.push_scope("shiftfifo");

    let req_put = b.input("req_put");
    let data_put = b.input_bus("data_put", w);
    let req_get = b.input("req_get");

    // Stage state nets, created up front: the take chain ripples from
    // the output back to the input.
    let valid: Vec<NetId> = (0..n).map(|i| b.sim().net(format!("valid[{i}]"))).collect();
    let take: Vec<NetId> = (0..n).map(|i| b.sim().net(format!("take[{i}]"))).collect();

    // take[n-1] = do_get OR !valid[n-1]; take[i] = !valid[i] OR take[i+1].
    let do_get = b.and2(req_get, valid[n - 1]);
    let t_last = b.or_not(do_get, valid[n - 1]);
    b.buf_onto(t_last, take[n - 1]);
    for i in (0..n - 1).rev() {
        let hole = b.inv(valid[i]);
        let t = b.or2(hole, take[i + 1]);
        b.buf_onto(t, take[i]);
    }

    // Stages: register + valid flop, shifting on take.
    let mut upstream_data = data_put.clone();
    let mut upstream_valid = req_put;
    let mut last_q = Vec::new();
    for i in 0..n {
        b.push_scope(format!("stage{i}"));
        let q = b.register(clk, Some(take[i]), &upstream_data);
        // valid_next = take ? upstream_valid : valid
        let vnext = b.mux2(take[i], valid[i], upstream_valid);
        let vq = b.dff(clk, vnext, Logic::L);
        b.buf_onto(vq, valid[i]);
        upstream_data = q.clone();
        upstream_valid = valid[i];
        last_q = q;
        b.pop_scope();
    }

    let full = b.inv(take[0]);
    let empty = b.inv(valid[n - 1]);
    let valid_get = b.buf(do_get);

    b.pop_scope();
    DesignPorts {
        clk_put: Some(clk),
        req_put: Some(req_put),
        data_put,
        full: Some(full),
        req_get: Some(req_get),
        data_get: last_q,
        valid_get: Some(valid_get),
        empty: Some(empty),
        ..DesignPorts::new(DesignKind::ShiftRegister, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::on_ports::{sync_get, sync_put};
    use crate::env::SyncConsumer;
    use mtf_async::FourPhaseProducer;
    use mtf_sim::ClockGen;

    fn clocks(clk_put: NetId, clk_get: Option<NetId>) -> ClockInputs {
        ClockInputs {
            clk_put: Some(clk_put),
            clk_get,
        }
    }

    #[test]
    fn gray_pointer_fifo_transfers_in_order() {
        let mut sim = Simulator::new(61);
        let clk_put = sim.net("clk_put");
        let clk_get = sim.net("clk_get");
        ClockGen::spawn_simple(&mut sim, clk_put, Time::from_ns(10));
        ClockGen::builder(Time::from_ns(13))
            .phase(Time::from_ps(2_500))
            .spawn(&mut sim, clk_get);
        let mut b = Builder::new(&mut sim);
        let f = build_gray_pointer(
            &mut b,
            FifoParams::new(8, 8),
            clocks(clk_put, Some(clk_get)),
        );
        drop(b.finish());
        let items: Vec<u64> = (0..50).map(|i| (i * 11) % 256).collect();
        let pj = sync_put(&mut sim, "p", &f, items.clone(), 1);
        let cj = sync_get(&mut sim, "c", &f, items.len() as u64, 1);
        sim.run_until(Time::from_us(5)).unwrap();
        assert_eq!(pj.len(), items.len());
        assert_eq!(cj.values(), items);
    }

    #[test]
    fn gray_pointer_fifo_respects_capacity() {
        let mut sim = Simulator::new(62);
        let clk_put = sim.net("clk_put");
        let clk_get = sim.net("clk_get");
        ClockGen::spawn_simple(&mut sim, clk_put, Time::from_ns(10));
        ClockGen::spawn_simple(&mut sim, clk_get, Time::from_ns(10));
        let mut b = Builder::new(&mut sim);
        let f = build_gray_pointer(
            &mut b,
            FifoParams::new(4, 8),
            clocks(clk_put, Some(clk_get)),
        );
        drop(b.finish());
        let req_get = f.req_get.unwrap();
        let d = sim.driver(req_get);
        sim.drive_at(d, req_get, Logic::L, Time::ZERO);
        let pj = sync_put(&mut sim, "p", &f, (0..10).collect(), 1);
        sim.run_until(Time::from_us(2)).unwrap();
        assert_eq!(pj.len(), 4, "pointer FIFO uses all 2^k slots, no more");
        assert_eq!(sim.value(f.full.unwrap()), Logic::H);
    }

    #[test]
    #[should_panic]
    fn gray_pointer_fifo_rejects_non_power_of_two() {
        let mut sim = Simulator::new(0);
        let clk_put = sim.net("clk_put");
        let clk_get = sim.net("clk_get");
        let mut b = Builder::new(&mut sim);
        let _ = build_gray_pointer(
            &mut b,
            FifoParams::new(6, 8),
            clocks(clk_put, Some(clk_get)),
        );
    }

    #[test]
    fn seizovic_fifo_transfers_and_is_slow() {
        let mut sim = Simulator::new(63);
        let clk = sim.net("clk");
        ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(10));
        let port = SeizovicFifo::spawn(&mut sim, "szv", clk, 8, 4);
        let items: Vec<u64> = (0..20).collect();
        let ph = FourPhaseProducer::spawn(
            &mut sim,
            "p",
            port.put_req,
            port.put_ack,
            &port.put_data,
            items.clone(),
            Time::from_ps(500),
            Time::ZERO,
        );
        let cj = SyncConsumer::spawn(
            &mut sim,
            "c",
            clk,
            port.req_get,
            &port.data_get,
            port.valid_get,
            items.len() as u64,
        );
        sim.run_until(Time::from_us(10)).unwrap();
        assert_eq!(ph.journal().len(), items.len());
        assert_eq!(cj.values(), items);
        // Latency claim: the first item needs ~2 cycles per stage.
        let first = cj.time_of(0).unwrap();
        assert!(
            first >= Time::from_ns(4 * 2 * 10 - 20),
            "4 stages should cost ~8 cycles, got {first}"
        );
    }

    #[test]
    fn seizovic_latency_is_linear_in_depth() {
        let first_arrival = |depth: usize| {
            let mut sim = Simulator::new(64);
            let clk = sim.net("clk");
            ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(10));
            let port = SeizovicFifo::spawn(&mut sim, "szv", clk, 8, depth);
            let _ph = FourPhaseProducer::spawn(
                &mut sim,
                "p",
                port.put_req,
                port.put_ack,
                &port.put_data,
                vec![7],
                Time::from_ps(500),
                Time::ZERO,
            );
            let cj = SyncConsumer::spawn(
                &mut sim,
                "c",
                clk,
                port.req_get,
                &port.data_get,
                port.valid_get,
                1,
            );
            sim.run_until(Time::from_us(5)).unwrap();
            cj.time_of(0).expect("delivered")
        };
        let d2 = first_arrival(2);
        let d6 = first_arrival(6);
        assert!(
            d6 >= d2 + Time::from_ns(60),
            "4 extra stages should cost >= 8 extra cycles: {d2} -> {d6}"
        );
    }

    #[test]
    fn per_cell_sync_fifo_transfers_in_order() {
        let mut sim = Simulator::new(65);
        let clk_put = sim.net("clk_put");
        let clk_get = sim.net("clk_get");
        ClockGen::spawn_simple(&mut sim, clk_put, Time::from_ns(10));
        ClockGen::builder(Time::from_ns(12))
            .phase(Time::from_ps(3_100))
            .spawn(&mut sim, clk_get);
        let mut b = Builder::new(&mut sim);
        let f = build_per_cell_sync(
            &mut b,
            FifoParams::new(8, 8),
            clocks(clk_put, Some(clk_get)),
        );
        drop(b.finish());
        let items: Vec<u64> = (0..40).map(|i| (i * 3) % 256).collect();
        let pj = sync_put(&mut sim, "p", &f, items.clone(), 1);
        let cj = sync_get(&mut sim, "c", &f, items.len() as u64, 1);
        sim.run_until(Time::from_us(8)).unwrap();
        assert_eq!(pj.len(), items.len());
        assert_eq!(cj.values(), items);
    }

    #[test]
    fn per_cell_sync_fifo_survives_extreme_clock_ratios() {
        // The conservative per-cell flags have no anticipation margin to
        // blow: a 3.4x ratio (outside the paper design's 2-stage envelope)
        // is fine here.
        let mut sim = Simulator::new(66);
        let clk_put = sim.net("clk_put");
        let clk_get = sim.net("clk_get");
        ClockGen::spawn_simple(&mut sim, clk_put, Time::from_ns(17));
        ClockGen::builder(Time::from_ns(5))
            .phase(Time::from_ps(900))
            .spawn(&mut sim, clk_get);
        let mut b = Builder::new(&mut sim);
        let f = build_per_cell_sync(
            &mut b,
            FifoParams::new(8, 8),
            clocks(clk_put, Some(clk_get)),
        );
        drop(b.finish());
        let items: Vec<u64> = (0..30).collect();
        let _pj = sync_put(&mut sim, "p", &f, items.clone(), 1);
        let cj = sync_get(&mut sim, "c", &f, items.len() as u64, 1);
        sim.run_until(Time::from_us(10)).unwrap();
        assert_eq!(cj.values(), items);
    }

    #[test]
    fn shift_register_fifo_transfers_in_order() {
        let mut sim = Simulator::new(71);
        let clk = sim.net("clk");
        ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(10));
        let mut b = Builder::new(&mut sim);
        let f = build_shift_register(&mut b, FifoParams::new(6, 8), clocks(clk, None));
        drop(b.finish());
        let items: Vec<u64> = (0..40).map(|i| (i * 7) % 256).collect();
        let pj = sync_put(&mut sim, "p", &f, items.clone(), 1);
        let cj = sync_get(&mut sim, "c", &f, items.len() as u64, 1);
        sim.run_until(Time::from_us(5)).unwrap();
        assert_eq!(pj.len(), items.len());
        assert_eq!(cj.values(), items);
    }

    #[test]
    fn shift_register_fifo_blocks_when_full() {
        let mut sim = Simulator::new(72);
        let clk = sim.net("clk");
        ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(10));
        let mut b = Builder::new(&mut sim);
        let f = build_shift_register(&mut b, FifoParams::new(4, 8), clocks(clk, None));
        drop(b.finish());
        let req_get = f.req_get.unwrap();
        let d = sim.driver(req_get);
        sim.drive_at(d, req_get, Logic::L, Time::ZERO);
        let pj = sync_put(&mut sim, "p", &f, (0..10).collect(), 1);
        sim.run_until(Time::from_us(2)).unwrap();
        assert_eq!(pj.len(), 4, "all four stages fill, then full blocks");
        assert_eq!(sim.value(f.full.unwrap()), Logic::H);
        assert_eq!(sim.value(f.empty.unwrap()), Logic::L);
    }

    #[test]
    fn immobile_data_writes_storage_once_per_item() {
        // The paper's Section 2 low-power claim (E12), in its
        // model-independent form: the circular array writes each item's
        // bits into storage once; a shift FIFO rewrites them at every
        // stage. (Total-energy numbers, which additionally depend on
        // clock-tree and bus capacitance modelling, are reported by the
        // `power` binary.)
        let items: Vec<u64> = (0..60).map(|i| (i * 2_654_435_761) & 0xFFFF).collect();
        let storage_toggles = |shift: bool| {
            let mut sim = Simulator::new(73);
            let clk_put = sim.net("clk_put");
            let clk_get = sim.net("clk_get");
            ClockGen::spawn_simple(&mut sim, clk_put, Time::from_ns(10));
            ClockGen::builder(Time::from_ns(10))
                .phase(Time::from_ps(4_100))
                .spawn(&mut sim, clk_get);
            let mut b = Builder::new(&mut sim);
            let params = FifoParams::new(16, 16);
            // The shift register runs both sides on the put clock.
            let build = if shift {
                build_shift_register
            } else {
                crate::mixed_clock::build
            };
            let f = build(&mut b, params, clocks(clk_put, Some(clk_get)));
            let nl = b.finish();
            let _pj = sync_put(&mut sim, "p", &f, items.clone(), 1);
            let cj = sync_get(&mut sim, "c", &f, items.len() as u64, 1);
            sim.run_until(Time::from_us(4)).unwrap();
            assert_eq!(cj.values(), items, "both must be correct first");
            mtf_timing::storage_write_toggles(&nl, &sim)
        };
        let immobile = storage_toggles(false);
        let shifting = storage_toggles(true);
        // 16 stages: every item is rewritten ~16x. Occupancy effects and
        // bubble collapsing blur the exact factor; well over 4x is already
        // unambiguous.
        assert!(
            shifting > immobile * 4,
            "shifting must rewrite storage many times over \
             (immobile {immobile} toggles, shifting {shifting})"
        );
    }

    #[test]
    fn per_cell_sync_costs_more_area_and_the_gap_grows_with_capacity() {
        let area_for = |per_cell: bool, capacity: usize| {
            let mut sim = Simulator::new(0);
            let clk_put = sim.net("clk_put");
            let clk_get = sim.net("clk_get");
            let mut b = Builder::new(&mut sim);
            let build = if per_cell {
                build_per_cell_sync
            } else {
                crate::mixed_clock::build
            };
            build(
                &mut b,
                FifoParams::new(capacity, 8),
                clocks(clk_put, Some(clk_get)),
            );
            mtf_timing::area(&b.finish())
        };
        // The paper's claim is specifically about synchronization area:
        // ours has one synchronizer per *global detector*, Intel's has two
        // per *cell*. Flop area is where that shows.
        let ours8 = area_for(false, 8);
        let intel8 = area_for(true, 8);
        assert!(
            intel8.flops as f64 > ours8.flops as f64 * 1.3,
            "per-cell flop area must dominate (ours {}, per-cell {})",
            ours8.flops,
            intel8.flops
        );
        assert!(intel8.total > ours8.total);
        // And the overhead scales with capacity, because it is per-cell.
        let ours16 = area_for(false, 16);
        let intel16 = area_for(true, 16);
        assert!(
            intel16.total - ours16.total > intel8.total - ours8.total,
            "the area gap must grow with capacity: {} vs {}",
            intel16.total - ours16.total,
            intel8.total - ours8.total
        );
    }
}
