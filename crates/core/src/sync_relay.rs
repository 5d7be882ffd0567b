//! Carloni's single-clock relay station — the latency-insensitive
//! *baseline* the paper's mixed-timing stations generalise.
//!
//! This behavioural component lived in `mtf-lis` originally; it moved here
//! so the design layer can register it (`DesignKind::SyncRs`) and the
//! chain composer can splice it by registry name like any other
//! stream-protocol design. `mtf-lis` re-exports it, so the old paths keep
//! working.

use std::collections::VecDeque;

use mtf_sim::{Component, Ctx, DriverId, Logic, LogicVec, NetId, Simulator, Time};

/// How soon after a clock edge a relay station's registered outputs settle.
///
/// Public because the sharded chain runner (`mtf-lis`) uses it as the
/// launch delay when bounding when a behavioural station's stream outputs
/// can next change: every [`SyncRelayStation`] output drive is scheduled
/// exactly `RS_CQ` after a rising clock edge (plus the power-on drive at
/// t = 0).
pub const RS_CQ: Time = Time::from_ps(400);

/// Carloni's synchronous relay station (paper Fig. 11b): a clocked
/// 2-place packet buffer.
///
/// Per rising clock edge, in order: the head packet is consumed by the
/// right neighbour unless `stop_in` was asserted; the packet launched by
/// the left neighbour is absorbed unless `stop_out` was asserted (the left
/// neighbour froze). `stop_out` rises (registered) when the buffer would
/// overflow otherwise — i.e. it still has room for exactly the one packet
/// that is in flight when it asserts, which is why two registers suffice.
///
/// Invalid packets (bubbles, `valid` low) are *not* buffered: a stalled
/// station simply stops emitting valid packets, and bubbles carry no
/// information worth storing. This matches the τ-abstraction of
/// latency-insensitive theory.
pub struct SyncRelayStation {
    name: String,
    clk: NetId,
    in_valid: NetId,
    in_data: Vec<NetId>,
    stop_in: NetId,
    out_valid: DriverId,
    out_data: Vec<DriverId>,
    stop_out: DriverId,
    queue: VecDeque<LogicVec>,
    /// The last clock rise consumed (see [`Ctx::rose`]).
    seen: Time,
    started: bool,
    stopped_upstream: bool,
}

impl std::fmt::Debug for SyncRelayStation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncRelayStation")
            .field("name", &self.name)
            .field("occupancy", &self.queue.len())
            .finish()
    }
}

/// The external nets of a spawned [`SyncRelayStation`] (or a whole relay
/// chain built from them).
#[derive(Clone, Debug)]
pub struct RelayPort {
    /// Packet-in validity (input).
    pub in_valid: NetId,
    /// Packet-in data (input).
    pub in_data: Vec<NetId>,
    /// Back-pressure to the left (output).
    pub stop_out: NetId,
    /// Packet-out validity (output).
    pub out_valid: NetId,
    /// Packet-out data (output).
    pub out_data: Vec<NetId>,
    /// Back-pressure from the right (input).
    pub stop_in: NetId,
}

impl SyncRelayStation {
    /// Spawns a relay station in `sim`, creating all of its external nets.
    pub fn spawn(sim: &mut Simulator, name: &str, clk: NetId, width: usize) -> RelayPort {
        let in_valid = sim.net(format!("{name}.in_valid"));
        let in_data = sim.bus(&format!("{name}.in_data"), width);
        let stop_in = sim.net(format!("{name}.stop_in"));
        let out_valid_net = sim.net(format!("{name}.out_valid"));
        let out_data_nets = sim.bus(&format!("{name}.out_data"), width);
        let stop_out_net = sim.net(format!("{name}.stop_out"));
        let out_valid = sim.driver(out_valid_net);
        let out_data = out_data_nets.iter().map(|&n| sim.driver(n)).collect();
        let stop_out = sim.driver(stop_out_net);
        let rs = SyncRelayStation {
            name: name.to_string(),
            clk,
            in_valid,
            in_data: in_data.clone(),
            stop_in,
            out_valid,
            out_data,
            stop_out,
            queue: VecDeque::new(),
            seen: Time::MAX,
            started: false,
            stopped_upstream: false,
        };
        sim.add_clocked_component(Box::new(rs), &[clk], &[]);
        RelayPort {
            in_valid,
            in_data,
            stop_out: stop_out_net,
            out_valid: out_valid_net,
            out_data: out_data_nets,
            stop_in,
        }
    }

    fn drive_outputs(&mut self, ctx: &mut Ctx<'_>) {
        match self.queue.front() {
            Some(pkt) => {
                ctx.drive(self.out_valid, Logic::H, RS_CQ);
                for (i, &d) in self.out_data.iter().enumerate().take(pkt.width()) {
                    ctx.drive(d, pkt.bit(i), RS_CQ);
                }
            }
            None => {
                ctx.drive(self.out_valid, Logic::L, RS_CQ);
            }
        }
        let stop = self.queue.len() >= 2;
        self.stopped_upstream = stop;
        ctx.drive(self.stop_out, Logic::from_bool(stop), RS_CQ);
    }
}

impl Component for SyncRelayStation {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &'static str {
        "sync_relay"
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let rising = ctx.rose(self.clk, &mut self.seen);
        if !self.started {
            self.started = true;
            ctx.drive(self.out_valid, Logic::L, Time::ZERO);
            ctx.drive(self.stop_out, Logic::L, Time::ZERO);
            return;
        }
        if !rising {
            return;
        }
        // Head consumed by the right neighbour unless it stalled us.
        if ctx.get(self.stop_in) != Logic::H && !self.queue.is_empty() {
            self.queue.pop_front();
        }
        // Absorb the packet in flight from the left (unless we had frozen
        // the left neighbour, in which case nothing new arrives).
        if !self.stopped_upstream && ctx.get(self.in_valid) == Logic::H {
            let pkt = ctx.get_vec(&self.in_data);
            self.queue.push_back(pkt);
            debug_assert!(self.queue.len() <= 2, "{}: overflowed two slots", self.name);
        }
        self.drive_outputs(ctx);
    }
}
