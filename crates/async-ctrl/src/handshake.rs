//! 4-phase single-rail bundled-data environments.
//!
//! These components play the role of the paper's HSpice testbenches on the
//! asynchronous interfaces: a producer that pushes a scripted stream of
//! data items through `put_req`/`put_data`/`put_ack`, and a consumer that
//! drains `req`/`data`/`ack`. Both keep an [`OpJournal`] so experiments can
//! compute throughput (ops/s in steady state) and per-item latency.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use mtf_sim::{Component, Ctx, DriverId, Logic, NetId, Simulator, Time};

/// A shared, append-only journal of completed data operations:
/// `(completion time, item value)`.
///
/// Cloning is cheap (shared handle); the spawning testbench component and
/// the measuring experiment both hold one.
#[derive(Clone, Debug, Default)]
pub struct OpJournal {
    ops: Rc<RefCell<Vec<(Time, u64)>>>,
}

impl OpJournal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed operation.
    pub fn push(&self, t: Time, value: u64) {
        self.ops.borrow_mut().push((t, value));
    }

    /// Number of completed operations.
    pub fn len(&self) -> usize {
        self.ops.borrow().len()
    }

    /// True if no operation completed.
    pub fn is_empty(&self) -> bool {
        self.ops.borrow().is_empty()
    }

    /// The recorded item values, in completion order.
    pub fn values(&self) -> Vec<u64> {
        self.ops.borrow().iter().map(|&(_, v)| v).collect()
    }

    /// The recorded completion times, in order.
    pub fn times(&self) -> Vec<Time> {
        self.ops.borrow().iter().map(|&(t, _)| t).collect()
    }

    /// The completion time of operation `i`.
    pub fn time_of(&self, i: usize) -> Option<Time> {
        self.ops.borrow().get(i).map(|&(t, _)| t)
    }

    /// Steady-state throughput in operations per second, measured between
    /// the `skip`-th operation and the last (discarding warm-up).
    ///
    /// Returns `None` if fewer than `skip + 2` operations completed.
    pub fn ops_per_second(&self, skip: usize) -> Option<f64> {
        let ops = self.ops.borrow();
        if ops.len() < skip + 2 {
            return None;
        }
        let first = ops[skip].0;
        let last = ops[ops.len() - 1].0;
        let n = (ops.len() - 1 - skip) as f64;
        let span_s = (last - first).as_ps() as f64 * 1e-12;
        if span_s <= 0.0 {
            return None;
        }
        Some(n / span_s)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ProducerState {
    Idle,
    WaitAckHigh,
    WaitAckLow,
    Done,
}

/// A 4-phase bundled-data producer: for each scripted item, places the
/// data, raises `req` after a bundling delay, waits for `ack` high, lowers
/// `req`, waits for `ack` low, then (after `gap`) starts the next item.
///
/// The journal records one entry per item at the instant `ack` rises — the
/// moment the FIFO has committed the item.
pub struct FourPhaseProducer {
    name: String,
    req: DriverId,
    ack: NetId,
    data: Vec<DriverId>,
    items: VecDeque<u64>,
    bundling: Time,
    gap: Time,
    state: ProducerState,
    journal: OpJournal,
}

impl std::fmt::Debug for FourPhaseProducer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FourPhaseProducer")
            .field("name", &self.name)
            .field("state", &self.state)
            .field("remaining", &self.items.len())
            .finish()
    }
}

impl FourPhaseProducer {
    /// Spawns a producer in `sim` driving `req`/`data` and watching `ack`.
    /// Returns a handle that exposes the completion [`OpJournal`].
    ///
    /// `bundling` is the data-to-request settling margin (the paper's
    /// single-rail bundling constraint); `gap` is an extra idle time
    /// between handshakes (zero for maximum-throughput runs).
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        sim: &mut Simulator,
        name: &str,
        req: NetId,
        ack: NetId,
        data: &[NetId],
        items: Vec<u64>,
        bundling: Time,
        gap: Time,
    ) -> ProducerHandle {
        let req_drv = sim.driver(req);
        let data_drvs: Vec<DriverId> = data.iter().map(|&n| sim.driver(n)).collect();
        let journal = OpJournal::new();
        let p = FourPhaseProducer {
            name: name.to_string(),
            req: req_drv,
            ack,
            data: data_drvs,
            items: items.into(),
            bundling,
            gap,
            state: ProducerState::Idle,
            journal: journal.clone(),
        };
        sim.add_component(Box::new(p), &[ack]);
        ProducerHandle { journal }
    }

    fn present_item(&mut self, ctx: &mut Ctx<'_>) {
        let Some(&item) = self.items.front() else {
            self.state = ProducerState::Done;
            return;
        };
        for (i, &d) in self.data.iter().enumerate() {
            ctx.drive(d, Logic::from_bool((item >> i) & 1 == 1), Time::ZERO);
        }
        // Bundling constraint: request trails the data.
        ctx.drive(self.req, Logic::H, self.bundling);
        self.state = ProducerState::WaitAckHigh;
    }
}

/// Handle returned by [`FourPhaseProducer::spawn`].
#[derive(Clone, Debug)]
pub struct ProducerHandle {
    journal: OpJournal,
}

impl ProducerHandle {
    /// The producer's completion journal (one entry per accepted item).
    pub fn journal(&self) -> &OpJournal {
        &self.journal
    }
}

impl Component for FourPhaseProducer {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &'static str {
        "four_phase_producer"
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        match self.state {
            ProducerState::Idle => {
                // Keep the request line defined before the first item.
                ctx.drive(self.req, Logic::L, Time::ZERO);
                self.present_item(ctx);
            }
            ProducerState::WaitAckHigh => {
                if ctx.get(self.ack) == Logic::H {
                    let item = *self.items.front().expect("in flight");
                    self.journal.push(ctx.now(), item);
                    ctx.drive(self.req, Logic::L, Time::ZERO);
                    self.state = ProducerState::WaitAckLow;
                }
            }
            ProducerState::WaitAckLow => {
                if ctx.get(self.ack) == Logic::L {
                    self.items.pop_front();
                    if self.items.is_empty() {
                        self.state = ProducerState::Done;
                    } else if self.gap == Time::ZERO {
                        self.present_item(ctx);
                    } else {
                        self.state = ProducerState::Idle;
                        ctx.wake_in(self.gap);
                    }
                }
            }
            ProducerState::Done => {}
        }
    }
}

/// A 4-phase *getter*: the consumer-initiated mirror of
/// [`FourPhaseProducer`], for asynchronous **get** interfaces (async-async
/// and sync-async FIFOs). It raises `req`, waits for `ack` high, samples
/// the data bus (bundled with `ack`), journals it, lowers `req`, waits for
/// `ack` low, and repeats until `wanted` items have been fetched.
pub struct FourPhaseGetter {
    name: String,
    req: DriverId,
    ack: NetId,
    data: Vec<NetId>,
    wanted: usize,
    gap: Time,
    state: ProducerState,
    journal: OpJournal,
}

impl std::fmt::Debug for FourPhaseGetter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FourPhaseGetter")
            .field("name", &self.name)
            .field("state", &self.state)
            .finish()
    }
}

impl FourPhaseGetter {
    /// Spawns a getter in `sim` driving `req` and watching `ack`/`data`.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        sim: &mut Simulator,
        name: &str,
        req: NetId,
        ack: NetId,
        data: &[NetId],
        wanted: usize,
        gap: Time,
    ) -> ConsumerHandle {
        let req_drv = sim.driver(req);
        let journal = OpJournal::new();
        let g = FourPhaseGetter {
            name: name.to_string(),
            req: req_drv,
            ack,
            data: data.to_vec(),
            wanted,
            gap,
            state: ProducerState::Idle,
            journal: journal.clone(),
        };
        sim.add_component(Box::new(g), &[ack]);
        ConsumerHandle { journal }
    }
}

impl Component for FourPhaseGetter {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &'static str {
        "four_phase_getter"
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        match self.state {
            ProducerState::Idle => {
                if self.journal.len() >= self.wanted {
                    self.state = ProducerState::Done;
                    ctx.drive(self.req, Logic::L, Time::ZERO);
                    return;
                }
                ctx.drive(self.req, Logic::L, Time::ZERO);
                ctx.drive(self.req, Logic::H, Time::from_ps(100));
                self.state = ProducerState::WaitAckHigh;
            }
            ProducerState::WaitAckHigh => {
                if ctx.get(self.ack) == Logic::H {
                    let word = ctx.get_vec(&self.data);
                    self.journal
                        .push(ctx.now(), word.to_u64().unwrap_or(u64::MAX));
                    ctx.drive(self.req, Logic::L, Time::ZERO);
                    self.state = ProducerState::WaitAckLow;
                }
            }
            ProducerState::WaitAckLow => {
                if ctx.get(self.ack) == Logic::L {
                    if self.journal.len() >= self.wanted {
                        self.state = ProducerState::Done;
                    } else if self.gap == Time::ZERO {
                        ctx.drive(self.req, Logic::H, Time::from_ps(100));
                        self.state = ProducerState::WaitAckHigh;
                    } else {
                        self.state = ProducerState::Idle;
                        ctx.wake_in(self.gap);
                    }
                }
            }
            ProducerState::Done => {}
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ConsumerState {
    WaitReqHigh,
    WaitReqLow,
}

/// A 4-phase bundled-data consumer: on `req` high it samples the data bus,
/// journals the item, raises `ack` after `response` delay; on `req` low it
/// lowers `ack`.
pub struct FourPhaseConsumer {
    name: String,
    req: NetId,
    ack: DriverId,
    data: Vec<NetId>,
    response: Time,
    state: ConsumerState,
    journal: OpJournal,
}

impl std::fmt::Debug for FourPhaseConsumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FourPhaseConsumer")
            .field("name", &self.name)
            .field("state", &self.state)
            .finish()
    }
}

impl FourPhaseConsumer {
    /// Spawns a consumer in `sim` watching `req`/`data` and driving `ack`.
    pub fn spawn(
        sim: &mut Simulator,
        name: &str,
        req: NetId,
        ack: NetId,
        data: &[NetId],
        response: Time,
    ) -> ConsumerHandle {
        let ack_drv = sim.driver(ack);
        let journal = OpJournal::new();
        let c = FourPhaseConsumer {
            name: name.to_string(),
            req,
            ack: ack_drv,
            data: data.to_vec(),
            response,
            state: ConsumerState::WaitReqHigh,
            journal: journal.clone(),
        };
        sim.add_component(Box::new(c), &[req]);
        ConsumerHandle { journal }
    }
}

/// Handle returned by [`FourPhaseConsumer::spawn`].
#[derive(Clone, Debug)]
pub struct ConsumerHandle {
    journal: OpJournal,
}

impl ConsumerHandle {
    /// The consumer's journal (one entry per received item, stamped at the
    /// instant the item was sampled).
    pub fn journal(&self) -> &OpJournal {
        &self.journal
    }
}

impl Component for FourPhaseConsumer {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &'static str {
        "four_phase_consumer"
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        match self.state {
            ConsumerState::WaitReqHigh => {
                ctx.drive(self.ack, Logic::L, Time::ZERO);
                if ctx.get(self.req) == Logic::H {
                    let word = ctx.get_vec(&self.data);
                    let value = word.to_u64().unwrap_or(u64::MAX);
                    self.journal.push(ctx.now(), value);
                    ctx.drive(self.ack, Logic::H, self.response);
                    self.state = ConsumerState::WaitReqLow;
                }
            }
            ConsumerState::WaitReqLow => {
                if ctx.get(self.req) == Logic::L {
                    ctx.drive(self.ack, Logic::L, self.response);
                    self.state = ConsumerState::WaitReqHigh;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Wire a producer directly to a consumer (no FIFO in between) and
    /// check the handshake completes for every item, in order.
    #[test]
    fn producer_meets_consumer() {
        let mut sim = Simulator::new(0);
        let req = sim.net("req");
        let ack = sim.net("ack");
        let data = sim.bus("data", 8);
        let items: Vec<u64> = vec![10, 20, 30, 255, 0];
        let ph = FourPhaseProducer::spawn(
            &mut sim,
            "prod",
            req,
            ack,
            &data,
            items.clone(),
            Time::from_ps(300),
            Time::ZERO,
        );
        let ch = FourPhaseConsumer::spawn(&mut sim, "cons", req, ack, &data, Time::from_ps(200));
        sim.run_until(Time::from_us(1)).unwrap();
        assert_eq!(ph.journal().len(), items.len());
        assert_eq!(ch.journal().values(), items);
    }

    #[test]
    fn gap_slows_the_stream() {
        let mut sim = Simulator::new(0);
        let req = sim.net("req");
        let ack = sim.net("ack");
        let data = sim.bus("data", 4);
        let ph = FourPhaseProducer::spawn(
            &mut sim,
            "prod",
            req,
            ack,
            &data,
            (0..5).collect(),
            Time::from_ps(300),
            Time::from_ns(50),
        );
        let _ch = FourPhaseConsumer::spawn(&mut sim, "cons", req, ack, &data, Time::from_ps(200));
        sim.run_until(Time::from_us(1)).unwrap();
        let times = ph.journal().times();
        assert_eq!(times.len(), 5);
        let spacing = times[2] - times[1];
        assert!(spacing >= Time::from_ns(50), "gap respected: {spacing}");
    }

    #[test]
    fn journal_throughput_math() {
        let j = OpJournal::new();
        // 1 op per 2 ns from 0 .. 20 ns.
        for i in 0..11u64 {
            j.push(Time::from_ns(2 * i), i);
        }
        let tput = j.ops_per_second(1).unwrap();
        assert!((tput - 5e8).abs() < 1e6, "expected 500 MOps/s, got {tput}");
        assert!(j.ops_per_second(20).is_none());
    }

    #[test]
    fn journal_shared_between_clones() {
        let j = OpJournal::new();
        let j2 = j.clone();
        j.push(Time::from_ns(1), 42);
        assert_eq!(j2.len(), 1);
        assert_eq!(j2.values(), vec![42]);
        assert_eq!(j2.time_of(0), Some(Time::from_ns(1)));
        assert!(j2.time_of(1).is_none());
    }
}
