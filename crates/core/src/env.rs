//! Synchronous testbench environments — the role of the paper's HSpice
//! fixtures on the clocked interfaces.
//!
//! * [`SyncProducer`] drives the synchronous put interface: it presents an
//!   item just after the positive clock edge and considers it accepted at
//!   the next edge at which `full` was low (the same condition the FIFO's
//!   put controller uses, so producer and FIFO always agree).
//! * [`SyncConsumer`] drives the get interface: it raises `req_get` just
//!   after the edge and treats `valid_get` high at the next edge as a
//!   completed dequeue, journaling the word on `data_get`.
//! * [`PacketSource`]/[`PacketSink`] are the relay-station counterparts:
//!   the source streams a packet *every* cycle (bubbles included — an
//!   invalid packet is a cleared validity bit) and freezes while
//!   `stopOut`/`full` is asserted; the sink consumes continuously and can
//!   assert `stopIn` on a schedule to exercise back-pressure.
//!
//! All four journal completions into [`OpJournal`]s for throughput and
//! latency measurements.

use std::collections::VecDeque;

use mtf_async::OpJournal;
use mtf_sim::{Component, Ctx, DriverId, Logic, NetId, Simulator, Time};

/// How soon after a clock edge an environment drives its outputs.
/// The paper's protocols specify "immediately after the positive edge";
/// a small definite delay keeps cause and effect readable in traces.
pub const ENV_DELAY: Time = Time::from_ps(200);

/// A synchronous put-side environment (see module docs).
pub struct SyncProducer {
    name: String,
    clk: NetId,
    full: NetId,
    req: DriverId,
    data: Vec<DriverId>,
    items: VecDeque<u64>,
    presented: Option<u64>,
    /// The last clock rise consumed (see [`Ctx::rose`]).
    seen: Time,
    started: bool,
    /// Present a new item only every `period` accepted+idle cycles
    /// (1 = saturate).
    every: u64,
    cycle: u64,
    journal: OpJournal,
}

impl std::fmt::Debug for SyncProducer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncProducer")
            .field("name", &self.name)
            .field("remaining", &self.items.len())
            .finish()
    }
}

impl SyncProducer {
    /// Spawns a saturating producer (one item offered every cycle).
    pub fn spawn(
        sim: &mut Simulator,
        name: &str,
        clk: NetId,
        req_put: NetId,
        data_put: &[NetId],
        full: NetId,
        items: Vec<u64>,
    ) -> OpJournal {
        Self::spawn_every(sim, name, clk, req_put, data_put, full, items, 1)
    }

    /// Spawns a producer that offers a new item at most every `every`
    /// cycles (for non-saturated workloads).
    #[allow(clippy::too_many_arguments)]
    pub fn spawn_every(
        sim: &mut Simulator,
        name: &str,
        clk: NetId,
        req_put: NetId,
        data_put: &[NetId],
        full: NetId,
        items: Vec<u64>,
        every: u64,
    ) -> OpJournal {
        assert!(every >= 1, "every must be at least 1");
        let req = sim.driver(req_put);
        let data = data_put.iter().map(|&n| sim.driver(n)).collect();
        let journal = OpJournal::new();
        let p = SyncProducer {
            name: name.to_string(),
            clk,
            full,
            req,
            data,
            items: items.into(),
            presented: None,
            seen: Time::MAX,
            started: false,
            every,
            cycle: 0,
            journal: journal.clone(),
        };
        sim.add_clocked_component(Box::new(p), &[clk], &[]);
        journal
    }

    fn present(&mut self, ctx: &mut Ctx<'_>, item: u64) {
        for (i, &d) in self.data.iter().enumerate() {
            ctx.drive(d, Logic::from_bool((item >> i) & 1 == 1), ENV_DELAY);
        }
        ctx.drive(self.req, Logic::H, ENV_DELAY);
        self.presented = Some(item);
    }
}

impl Component for SyncProducer {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &'static str {
        "sync_producer"
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let rising = ctx.rose(self.clk, &mut self.seen);
        if !self.started {
            self.started = true;
            ctx.drive(self.req, Logic::L, Time::ZERO);
            return;
        }
        if !rising {
            return;
        }
        // Was the item offered during the ended cycle accepted at this
        // edge? Accepted iff `full` is (still) low at the edge — the exact
        // condition the put controller applies.
        if let Some(item) = self.presented {
            if ctx.get(self.full) == Logic::L {
                self.journal.push(ctx.now(), item);
                self.items.pop_front();
                self.presented = None;
            }
        }
        self.cycle += 1;
        match self.presented {
            Some(_) => { /* retry: keep req and data as they are */ }
            None => {
                if self.cycle.is_multiple_of(self.every) {
                    if let Some(&next) = self.items.front() {
                        self.present(ctx, next);
                        return;
                    }
                }
                ctx.drive(self.req, Logic::L, ENV_DELAY);
            }
        }
    }
}

/// A synchronous get-side environment (see module docs).
pub struct SyncConsumer {
    name: String,
    clk: NetId,
    req: DriverId,
    data: Vec<NetId>,
    valid: NetId,
    wanted: u64,
    requesting: bool,
    /// The last clock rise consumed (see [`Ctx::rose`]).
    seen: Time,
    started: bool,
    every: u64,
    cycle: u64,
    journal: OpJournal,
}

impl std::fmt::Debug for SyncConsumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncConsumer")
            .field("name", &self.name)
            .field("wanted", &self.wanted)
            .finish()
    }
}

impl SyncConsumer {
    /// Spawns a saturating consumer that stops after `wanted` items
    /// (`u64::MAX` ≈ forever).
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        sim: &mut Simulator,
        name: &str,
        clk: NetId,
        req_get: NetId,
        data_get: &[NetId],
        valid_get: NetId,
        wanted: u64,
    ) -> OpJournal {
        Self::spawn_every(sim, name, clk, req_get, data_get, valid_get, wanted, 1)
    }

    /// Spawns a consumer that requests at most every `every` cycles.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn_every(
        sim: &mut Simulator,
        name: &str,
        clk: NetId,
        req_get: NetId,
        data_get: &[NetId],
        valid_get: NetId,
        wanted: u64,
        every: u64,
    ) -> OpJournal {
        assert!(every >= 1, "every must be at least 1");
        let req = sim.driver(req_get);
        let journal = OpJournal::new();
        let c = SyncConsumer {
            name: name.to_string(),
            clk,
            req,
            data: data_get.to_vec(),
            valid: valid_get,
            wanted,
            requesting: false,
            seen: Time::MAX,
            started: false,
            every,
            cycle: 0,
            journal: journal.clone(),
        };
        sim.add_clocked_component(Box::new(c), &[clk], &[]);
        journal
    }
}

impl Component for SyncConsumer {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &'static str {
        "sync_consumer"
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let rising = ctx.rose(self.clk, &mut self.seen);
        if !self.started {
            self.started = true;
            ctx.drive(self.req, Logic::L, Time::ZERO);
            return;
        }
        if !rising {
            return;
        }
        // Harvest the outcome of the cycle that just ended.
        if self.requesting && ctx.get(self.valid) == Logic::H {
            let word = ctx.get_vec(&self.data);
            self.journal
                .push(ctx.now(), word.to_u64().unwrap_or(u64::MAX));
        }
        self.cycle += 1;
        let done = (self.journal.len() as u64) >= self.wanted;
        let want_now = !done && self.cycle.is_multiple_of(self.every);
        if want_now != self.requesting {
            self.requesting = want_now;
            ctx.drive(
                self.req,
                if want_now { Logic::H } else { Logic::L },
                ENV_DELAY,
            );
        }
    }
}

/// A relay-chain packet source for the relay-station designs: streams one
/// packet per cycle — `Some(v)` is a valid packet carrying `v`, `None` a
/// bubble (validity bit low) — and freezes on `stop_out` (the relay
/// station's `full`). The journal records valid packets only, at the edge
/// they were accepted.
pub struct PacketSource {
    name: String,
    clk: NetId,
    stop_out: NetId,
    valid_drv: DriverId,
    data: Vec<DriverId>,
    packets: VecDeque<Option<u64>>,
    presented: Option<Option<u64>>,
    /// The last clock rise consumed (see [`Ctx::rose`]).
    seen: Time,
    started: bool,
    journal: OpJournal,
}

impl std::fmt::Debug for PacketSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketSource")
            .field("name", &self.name)
            .field("remaining", &self.packets.len())
            .finish()
    }
}

impl PacketSource {
    /// Spawns a packet source driving `valid`/`data_put` and honouring
    /// `stop_out`.
    pub fn spawn(
        sim: &mut Simulator,
        name: &str,
        clk: NetId,
        valid: NetId,
        data_put: &[NetId],
        stop_out: NetId,
        packets: Vec<Option<u64>>,
    ) -> OpJournal {
        let valid_drv = sim.driver(valid);
        let data = data_put.iter().map(|&n| sim.driver(n)).collect();
        let journal = OpJournal::new();
        let s = PacketSource {
            name: name.to_string(),
            clk,
            stop_out,
            valid_drv,
            data,
            packets: packets.into(),
            presented: None,
            seen: Time::MAX,
            started: false,
            journal: journal.clone(),
        };
        sim.add_clocked_component(Box::new(s), &[clk], &[]);
        journal
    }

    fn present(&mut self, ctx: &mut Ctx<'_>, pkt: Option<u64>) {
        let value = pkt.unwrap_or(0);
        for (i, &d) in self.data.iter().enumerate() {
            ctx.drive(d, Logic::from_bool((value >> i) & 1 == 1), ENV_DELAY);
        }
        ctx.drive(self.valid_drv, Logic::from_bool(pkt.is_some()), ENV_DELAY);
        self.presented = Some(pkt);
    }
}

impl Component for PacketSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &'static str {
        "packet_source"
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let rising = ctx.rose(self.clk, &mut self.seen);
        if !self.started {
            self.started = true;
            ctx.drive(self.valid_drv, Logic::L, Time::ZERO);
            return;
        }
        if !rising {
            return;
        }
        if let Some(pkt) = self.presented {
            if ctx.get(self.stop_out) == Logic::L {
                if let Some(v) = pkt {
                    self.journal.push(ctx.now(), v);
                }
                self.packets.pop_front();
                self.presented = None;
            }
        }
        if self.presented.is_none() {
            if let Some(&next) = self.packets.front() {
                self.present(ctx, next);
            } else {
                ctx.drive(self.valid_drv, Logic::L, ENV_DELAY);
            }
        }
    }
}

/// A relay-chain packet sink: consumes every cycle, journaling packets
/// whose `valid_get` is high at the edge, and asserts `stop_in` during the
/// scheduled `(from_cycle, to_cycle)` windows to exercise back-pressure.
pub struct PacketSink {
    name: String,
    clk: NetId,
    data: Vec<NetId>,
    valid: NetId,
    stop_drv: DriverId,
    stops: Vec<(u64, u64)>,
    /// The last clock rise consumed (see [`Ctx::rose`]).
    seen: Time,
    started: bool,
    cycle: u64,
    stopped: bool,
    journal: OpJournal,
}

impl std::fmt::Debug for PacketSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketSink")
            .field("name", &self.name)
            .field("cycle", &self.cycle)
            .finish()
    }
}

impl PacketSink {
    /// Spawns a packet sink. `stops` lists half-open cycle windows
    /// `[from, to)` during which `stop_in` is asserted.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        sim: &mut Simulator,
        name: &str,
        clk: NetId,
        data_get: &[NetId],
        valid_get: NetId,
        stop_in: NetId,
        stops: Vec<(u64, u64)>,
    ) -> OpJournal {
        let stop_drv = sim.driver(stop_in);
        let journal = OpJournal::new();
        let s = PacketSink {
            name: name.to_string(),
            clk,
            data: data_get.to_vec(),
            valid: valid_get,
            stop_drv,
            stops,
            seen: Time::MAX,
            started: false,
            cycle: 0,
            stopped: false,
            journal: journal.clone(),
        };
        sim.add_clocked_component(Box::new(s), &[clk], &[]);
        journal
    }
}

impl Component for PacketSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &'static str {
        "packet_sink"
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let rising = ctx.rose(self.clk, &mut self.seen);
        if !self.started {
            self.started = true;
            ctx.drive(self.stop_drv, Logic::L, Time::ZERO);
            return;
        }
        if !rising {
            return;
        }
        // While stopped, the station must not deliver valid packets; while
        // running, harvest this edge's packet.
        if !self.stopped && ctx.get(self.valid) == Logic::H {
            let word = ctx.get_vec(&self.data);
            self.journal
                .push(ctx.now(), word.to_u64().unwrap_or(u64::MAX));
        }
        self.cycle += 1;
        let in_stop = self
            .stops
            .iter()
            .any(|&(from, to)| self.cycle >= from && self.cycle < to);
        if in_stop != self.stopped {
            self.stopped = in_stop;
            ctx.drive(
                self.stop_drv,
                if in_stop { Logic::H } else { Logic::L },
                ENV_DELAY,
            );
        }
    }
}

/// Test shorthands: the environments above (and the 4-phase ones of
/// [`mtf_async`]) wired to the nets a built design's [`DesignPorts`] names.
/// Each panics if the side's protocol net is absent.
#[cfg(test)]
pub(crate) mod on_ports {
    use super::*;
    use crate::design::DesignPorts;
    use mtf_async::{ConsumerHandle, FourPhaseGetter, FourPhaseProducer, ProducerHandle};

    /// A [`SyncProducer`] offering `items` at most every `every` cycles.
    pub(crate) fn sync_put(
        sim: &mut Simulator,
        name: &str,
        p: &DesignPorts,
        items: Vec<u64>,
        every: u64,
    ) -> OpJournal {
        let (clk, req, full) = (p.put_clock().unwrap(), p.req_put.unwrap(), p.full.unwrap());
        SyncProducer::spawn_every(sim, name, clk, req, &p.data_put, full, items, every)
    }

    /// A [`SyncConsumer`] requesting at most every `every` cycles.
    pub(crate) fn sync_get(
        sim: &mut Simulator,
        name: &str,
        p: &DesignPorts,
        wanted: u64,
        every: u64,
    ) -> OpJournal {
        let (clk, req, valid) = (
            p.get_clock().unwrap(),
            p.req_get.unwrap(),
            p.valid_get.unwrap(),
        );
        SyncConsumer::spawn_every(sim, name, clk, req, &p.data_get, valid, wanted, every)
    }

    /// A [`FourPhaseProducer`] on the asynchronous put side.
    pub(crate) fn async_put(
        sim: &mut Simulator,
        name: &str,
        p: &DesignPorts,
        items: Vec<u64>,
        bundling: Time,
        gap: Time,
    ) -> ProducerHandle {
        let (req, ack) = (p.put_req.unwrap(), p.put_ack.unwrap());
        FourPhaseProducer::spawn(sim, name, req, ack, &p.data_put, items, bundling, gap)
    }

    /// A [`FourPhaseGetter`] on the asynchronous get side.
    pub(crate) fn async_get(
        sim: &mut Simulator,
        name: &str,
        p: &DesignPorts,
        wanted: usize,
        gap: Time,
    ) -> ConsumerHandle {
        let (req, ack) = (p.get_req.unwrap(), p.get_ack.unwrap());
        FourPhaseGetter::spawn(sim, name, req, ack, &p.data_get, wanted, gap)
    }

    /// A [`PacketSource`] on the stream put side.
    pub(crate) fn packets_in(
        sim: &mut Simulator,
        name: &str,
        p: &DesignPorts,
        packets: Vec<Option<u64>>,
    ) -> OpJournal {
        let (clk, valid, stop) = (
            p.put_clock().unwrap(),
            p.valid_in.unwrap(),
            p.stop_out.unwrap(),
        );
        PacketSource::spawn(sim, name, clk, valid, &p.data_put, stop, packets)
    }

    /// A [`PacketSink`] on the stream get side, stopping during `stops`.
    pub(crate) fn packets_out(
        sim: &mut Simulator,
        name: &str,
        p: &DesignPorts,
        stops: Vec<(u64, u64)>,
    ) -> OpJournal {
        let (clk, valid, stop) = (
            p.get_clock().unwrap(),
            p.valid_get.unwrap(),
            p.stop_in.unwrap(),
        );
        PacketSink::spawn(sim, name, clk, &p.data_get, valid, stop, stops)
    }
}

#[cfg(test)]
mod env_tests {
    use super::*;
    use mtf_sim::ClockGen;

    /// A scripted full/valid driver standing in for a FIFO interface.
    fn rig() -> (Simulator, NetId, NetId, Vec<NetId>, NetId) {
        let mut sim = Simulator::new(0);
        let clk = sim.net("clk");
        ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(10));
        let req = sim.net("req");
        let data = sim.bus("data", 8);
        let full = sim.net("full");
        (sim, clk, req, data, full)
    }

    #[test]
    fn producer_retries_while_full() {
        let (mut sim, clk, req, data, full) = rig();
        let df = sim.driver(full);
        // Full for the first 5 edges, then free.
        sim.drive_at(df, full, Logic::H, Time::ZERO);
        sim.drive_at(df, full, Logic::L, Time::from_ns(52));
        let j = SyncProducer::spawn(&mut sim, "p", clk, req, &data, full, vec![7, 8]);
        sim.run_until(Time::from_ns(120)).unwrap();
        assert_eq!(j.len(), 2);
        // First acceptance at the first edge with full low: edge 6 (60 ns).
        assert_eq!(j.time_of(0), Some(Time::from_ns(60)));
        assert_eq!(j.time_of(1), Some(Time::from_ns(70)));
        // The data bus still carries the last item; req dropped after it.
        assert_eq!(sim.value_vec(&data).to_u64(), Some(8));
        assert_eq!(sim.value(req), Logic::L);
    }

    #[test]
    fn producer_spacing_respects_every() {
        let (mut sim, clk, req, data, full) = rig();
        let df = sim.driver(full);
        sim.drive_at(df, full, Logic::L, Time::ZERO);
        let j = SyncProducer::spawn_every(&mut sim, "p", clk, req, &data, full, vec![1, 2, 3], 4);
        sim.run_until(Time::from_us(1)).unwrap();
        let times = j.times();
        assert_eq!(times.len(), 3);
        for w in times.windows(2) {
            assert!(
                w[1] - w[0] >= Time::from_ns(40),
                "min 4 cycles apart: {w:?}"
            );
        }
    }

    #[test]
    fn consumer_counts_only_valid_edges() {
        let mut sim = Simulator::new(0);
        let clk = sim.net("clk");
        ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(10));
        let req = sim.net("req");
        let data = sim.bus("data", 8);
        let valid = sim.net("valid");
        let dv = sim.driver(valid);
        let dd: Vec<_> = data.iter().map(|&n| sim.driver(n)).collect();
        // Valid pulses covering edges 3 and 5 only, with distinct data.
        sim.drive_at(dv, valid, Logic::L, Time::ZERO);
        for (edge, value) in [(3u64, 0xAAu64), (5, 0x55)] {
            sim.drive_at(dv, valid, Logic::H, Time::from_ns(edge * 10 - 3));
            sim.drive_at(dv, valid, Logic::L, Time::from_ns(edge * 10 + 3));
            for (i, &drv) in dd.iter().enumerate() {
                sim.drive_at(
                    drv,
                    data[i],
                    Logic::from_bool((value >> i) & 1 == 1),
                    Time::from_ns(edge * 10 - 3),
                );
            }
        }
        let j = SyncConsumer::spawn(&mut sim, "c", clk, req, &data, valid, 10);
        sim.run_until(Time::from_ns(100)).unwrap();
        assert_eq!(j.values(), vec![0xAA, 0x55]);
        assert_eq!(j.times(), vec![Time::from_ns(30), Time::from_ns(50)]);
    }

    #[test]
    fn consumer_stops_requesting_when_satisfied() {
        let mut sim = Simulator::new(0);
        let clk = sim.net("clk");
        ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(10));
        let req = sim.net("req");
        let data = sim.bus("data", 4);
        let valid = sim.net("valid");
        let dv = sim.driver(valid);
        // Valid forever: the consumer would read every cycle if it wanted.
        sim.drive_at(dv, valid, Logic::H, Time::from_ns(15));
        let dd: Vec<_> = data.iter().map(|&n| sim.driver(n)).collect();
        for (i, &drv) in dd.iter().enumerate() {
            sim.drive_at(drv, data[i], Logic::from_bool(i == 0), Time::ZERO);
        }
        let j = SyncConsumer::spawn(&mut sim, "c", clk, req, &data, valid, 3);
        sim.run_until(Time::from_us(1)).unwrap();
        assert_eq!(j.len(), 3, "exactly `wanted` items");
        assert_eq!(sim.value(req), Logic::L, "request deasserted after quota");
    }

    #[test]
    fn packet_source_freezes_under_stop() {
        let (mut sim, clk, valid, data, stop) = rig();
        let ds = sim.driver(stop);
        sim.drive_at(ds, stop, Logic::L, Time::ZERO);
        // Stop covering edges 3..6.
        sim.drive_at(ds, stop, Logic::H, Time::from_ns(25));
        sim.drive_at(ds, stop, Logic::L, Time::from_ns(65));
        let j = PacketSource::spawn(
            &mut sim,
            "s",
            clk,
            valid,
            &data,
            stop,
            vec![Some(1), Some(2), Some(3)],
        );
        sim.run_until(Time::from_ns(150)).unwrap();
        assert_eq!(j.values(), vec![1, 2, 3]);
        let t = j.times();
        // Packet presented during the stop is held and accepted only after
        // stop falls (edge 7 = 70 ns).
        assert!(t[1] >= Time::from_ns(70), "held under stop: {t:?}");
    }

    #[test]
    fn packet_sink_ignores_packets_while_stopped() {
        let mut sim = Simulator::new(0);
        let clk = sim.net("clk");
        ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(10));
        let data = sim.bus("data", 8);
        let valid = sim.net("valid");
        let stop = sim.net("stop");
        let dv = sim.driver(valid);
        sim.drive_at(dv, valid, Logic::H, Time::from_ns(5));
        let dd: Vec<_> = data.iter().map(|&n| sim.driver(n)).collect();
        for (i, &drv) in dd.iter().enumerate() {
            sim.drive_at(drv, data[i], Logic::from_bool(i % 2 == 0), Time::ZERO);
        }
        let j = PacketSink::spawn(&mut sim, "k", clk, &data, valid, stop, vec![(3, 6)]);
        sim.run_until(Time::from_ns(100)).unwrap();
        // Cycles 3..6 stopped: no journal entries at edges 40,50,60 even
        // though valid stayed high.
        for t in j.times() {
            let edge = t.as_ps() / 10_000;
            assert!(
                !(4..=6).contains(&edge),
                "journaled during stop at edge {edge}"
            );
        }
        assert_eq!(sim.value(stop), Logic::L, "stop released after the window");
    }
}
