//! Conservative domain-sharded parallel simulation.
//!
//! The paper's central structural claim — mixed-timing domains interact
//! *only* through FIFO interfaces whose boundary signals launch from
//! known clock edges after known synchronizer/register delays — is
//! exactly the *lookahead* condition that makes Chandy–Misra-style
//! conservative parallel discrete-event simulation safe. This module is
//! the generic engine: it knows nothing about FIFOs or relay stations,
//! only about *shards* (independent [`Simulator`] instances, each with
//! its own timing wheel and delta ring, running on its own worker
//! thread) and *links* (directed bundles of cut nets whose every
//! possible change instant is bounded by a [`ClockSchedule`] plus an
//! exact launch delay).
//!
//! # Protocol
//!
//! Execution is round-lockstepped, which makes the merge deterministic
//! by construction (no outcome ever depends on wall-clock arrival
//! order):
//!
//! 1. Round 0: every shard runs to `t = 0` (flushing the unconditional
//!    elaboration-time init drives), harvests its export waveforms, and
//!    posts one message per out-link: the captured events plus a
//!    *grant* — a promise that no event with `t <` grant will ever be
//!    sent on that link (see [`ExportSpec::bound`]).
//! 2. Round `r`: every shard first blocks until the round-`r-1` message
//!    of **every** in-link has arrived, stages the received events, and
//!    computes its target `T = min(horizon, min over in-links of
//!    grant)`. It applies all staged events with `t ≤ T` in sorted
//!    `(time, link, pin)` order — a stable global numbering, never
//!    arrival order — runs to `T`, harvests, and posts
//!    `(events ≤ T, grant = bound(T))` on every out-link.
//! 3. A shard finishes when every in-link grant exceeds the horizon
//!    (every event `≤ horizon` is then in hand); it posts one final
//!    sentinel message (`grant = Time::MAX`) so downstream shards stop
//!    waiting on it, and returns its result.
//!
//! Each round strictly increases the globally minimal grant (a bound is
//! always `> T`), so the lockstep ring can never deadlock.
//!
//! # Why the frontier instant is safe
//!
//! A shard may process instant `T` *before* a peer's event stamped
//! exactly `T` arrives (the grant only excludes `t < T + 1` … `t < G`).
//! That late event is applied at local time `T` — the instant is
//! processed in two installments. This is sound here because cut nets
//! are *registered*: an import landing at `T` can only influence other
//! nets at `T + 1` or later (every gate and wire on the path has a
//! nonzero delay), and in particular can never alter an export already
//! harvested at `T` (exports launch from clock edges at least one full
//! launch delay earlier). The delta ring re-wakes the affected
//! components at the same timestamp and the net state converges to
//! exactly what a single simulator would have computed.
//!
//! # Determinism
//!
//! With lockstep rounds the sequence of run targets, the batching of
//! applied events, and the `(time, link, pin)` application order are all
//! pure functions of the shard graph — independent of thread scheduling.
//! Every queue push therefore gets the same sequence number on every
//! run, and the per-shard event streams are bit-for-bit reproducible.
//! `tests/sharded_determinism.rs` is the gate.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::error::SimError;
use crate::logic::Logic;
use crate::net::{DriverId, NetId};
use crate::sim::{SimStats, Simulator};
use crate::time::Time;

/// A periodic clock-edge schedule: rising edges at `phase + k·period`
/// for `k ≥ 1` (matching [`ClockGen`](crate::ClockGen), whose first
/// rising edge is one full period after the phase offset).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClockSchedule {
    /// Phase offset of the generator.
    pub phase: Time,
    /// Clock period (must be nonzero).
    pub period: Time,
}

impl ClockSchedule {
    /// The earliest instant strictly after `t` at which an edge of this
    /// schedule, delayed by exactly `delay`, can land: the smallest
    /// `phase + k·period + delay > t` with `k ≥ 1`.
    pub fn next_landing_after(&self, t: Time, delay: Time) -> Time {
        let first = self.phase + self.period + delay;
        if first > t {
            return first;
        }
        // k = floor((t - phase - delay) / period) + 1 gives the smallest
        // k with phase + k·period + delay > t (strict: an edge landing
        // exactly at t is *not* after t).
        let k = (t - self.phase - delay).as_ps() / self.period.as_ps() + 1;
        let landing = self.phase + self.period * k + delay;
        debug_assert!(landing > t && landing - self.period <= t);
        landing
    }
}

/// One way the nets of a link can change: a clock schedule plus the
/// exact (fixed) launch delay from its edges to the cut nets.
///
/// The *exactness* is what makes the bound sound for events already in
/// flight: a drive launched at edge `e` lands at precisely `e + delay`,
/// so the earliest landing strictly after the sender's simulated time
/// `T` covers both future edges *and* drives pending from edges `≤ T`.
/// A mere minimum delay would not — a pending drive with a larger
/// actual delay could land inside the granted window.
#[derive(Clone, Copy, Debug)]
pub struct LinkLaunch {
    /// Edge schedule of the launching clock.
    pub schedule: ClockSchedule,
    /// Exact edge-to-net delay.
    pub delay: Time,
}

/// A directed shard-to-shard connection.
#[derive(Clone, Copy, Debug)]
pub struct LinkDef {
    /// Sending shard index.
    pub from: usize,
    /// Receiving shard index.
    pub to: usize,
}

/// The sending half of one link: which local nets are exported, and
/// every launch that can move them. Declared by the shard's setup
/// closure; the engine traces the nets and ships their waveform deltas.
#[derive(Debug)]
pub struct ExportSpec {
    /// Global link index (into the `links` slice of [`run_sharded`]).
    pub link: usize,
    /// The cut nets, in the link's pin order (the receiver's
    /// [`ImportSpec::pins`] must use the same order).
    pub nets: Vec<NetId>,
    /// Every launch that can change any of `nets`. The grant for this
    /// link is the minimum landing over these.
    pub launches: Vec<LinkLaunch>,
}

impl ExportSpec {
    /// The conservative promise after simulating through `t`: no event
    /// on this link will ever be stamped earlier than the returned
    /// instant.
    pub fn bound(&self, t: Time) -> Time {
        self.launches
            .iter()
            .map(|l| l.schedule.next_landing_after(t, l.delay))
            .min()
            .unwrap_or(Time::MAX)
    }
}

/// The receiving half of one link: mirror-net drivers, index-aligned
/// with the sender's [`ExportSpec::nets`].
#[derive(Debug)]
pub struct ImportSpec {
    /// Global link index.
    pub link: usize,
    /// One `(driver, net)` pair per pin. Each mirror net must have this
    /// engine driver as its only driver.
    pub pins: Vec<(DriverId, NetId)>,
}

/// Everything a shard's setup closure tells the engine about its cuts.
#[derive(Debug, Default)]
pub struct ShardIo {
    /// Out-links this shard sends on.
    pub exports: Vec<ExportSpec>,
    /// In-links this shard receives on.
    pub imports: Vec<ImportSpec>,
}

/// What a setup closure returns: the shard's I/O declaration plus a
/// finalizer run after the horizon is reached (extract journals,
/// fingerprints, waveforms — anything `Send`).
pub struct ShardPlan<R> {
    /// Cut declaration.
    pub io: ShardIo,
    /// Runs on the worker thread after the shard reaches the horizon.
    pub finish: Box<dyn FnOnce(&mut Simulator) -> R>,
}

impl<R> std::fmt::Debug for ShardPlan<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPlan").field("io", &self.io).finish()
    }
}

/// One shard: a seed and a setup closure that builds the partition
/// inside a fresh [`Simulator`] *on the worker thread* (a `Simulator`
/// is not `Send` — it never crosses threads; only the setup closure and
/// the `R` result do).
pub struct ShardSpec<R> {
    /// RNG seed for this shard's simulator.
    pub seed: u64,
    /// Elaborates the partition and declares its cuts.
    #[allow(clippy::type_complexity)]
    pub setup: Box<dyn FnOnce(&mut Simulator) -> ShardPlan<R> + Send>,
}

impl<R> std::fmt::Debug for ShardSpec<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSpec")
            .field("seed", &self.seed)
            .finish()
    }
}

/// Per-shard execution counters, the sharded-mode extension of
/// [`SimStats`]. All values are cumulative over the shard's whole run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// The shard simulator's own kernel counters.
    pub sim: SimStats,
    /// Boundary events shipped out over all out-links.
    pub events_sent: u64,
    /// Boundary events received and applied from all in-links.
    pub events_received: u64,
    /// Messages posted (one per out-link per round, plus sentinels).
    pub messages_sent: u64,
    /// Messages that carried no events — pure lookahead grants. The
    /// null-message traffic of the Chandy–Misra protocol.
    pub null_messages: u64,
    /// Lockstep rounds executed.
    pub rounds: u64,
    /// Wall-clock time spent waiting on in-link messages (the
    /// conservative protocol's blocking cost).
    pub blocked: Duration,
    /// Wall-clock time spent actually simulating.
    pub busy: Duration,
}

/// One message on a link: the events captured in the sender's last
/// window plus its new grant.
#[derive(Debug)]
struct Msg {
    /// `(timestamp, pin index, value)`, time-sorted, final value per
    /// `(pin, timestamp)`.
    events: Vec<(Time, u32, Logic)>,
    /// No future event on this link will be stamped `< grant`.
    /// `Time::MAX` is the sender's final sentinel.
    grant: Time,
}

/// A single-producer single-consumer mailbox for one link. The queue is
/// unbounded: nothing applies back-pressure, so a sender may post any
/// number of messages ahead of its receiver.
#[derive(Debug, Default)]
struct Mailbox {
    q: Mutex<VecDeque<Msg>>,
    cv: Condvar,
}

impl Mailbox {
    fn post(&self, msg: Msg) {
        self.q.lock().unwrap().push_back(msg);
        self.cv.notify_one();
    }

    /// Blocks until at least one message is available, then drains all.
    fn take_blocking(&self, blocked: &mut Duration) -> Vec<Msg> {
        let start = Instant::now();
        let mut q = self.q.lock().unwrap();
        while q.is_empty() {
            q = self.cv.wait(q).unwrap();
        }
        let msgs = q.drain(..).collect();
        *blocked += start.elapsed();
        msgs
    }
}

/// Runs `shards` to `horizon` as a conservative parallel simulation over
/// `links`, one worker thread per shard, and returns each shard's result
/// and counters in shard order.
///
/// A shard with no links at all bypasses the protocol entirely: one
/// plain [`Simulator::run_until`] call, so its [`SimStats`] are
/// *identical* to the unsharded path (this is the `--shards 1`
/// guarantee, pinned by `stats_match_pre_sharding_path` in
/// `tests/sharded_determinism.rs`).
///
/// # Errors
///
/// The first shard error (by shard index) is returned; all shards are
/// still joined first (a failing shard posts its sentinels so peers
/// never hang). A shard that panics reports
/// [`SimError::ShardPanicked`] instead of unwinding through this call.
pub fn run_sharded<R: Send>(
    shards: Vec<ShardSpec<R>>,
    links: &[LinkDef],
    horizon: Time,
) -> Result<Vec<(R, ShardStats)>, SimError> {
    for (i, l) in links.iter().enumerate() {
        assert!(
            l.from < shards.len() && l.to < shards.len() && l.from != l.to,
            "link {i} connects invalid shards {l:?}"
        );
    }
    let mailboxes: Vec<Arc<Mailbox>> = links.iter().map(|_| Arc::default()).collect();

    let mut slots: Vec<Option<Result<(R, ShardStats), SimError>>> = Vec::new();
    slots.resize_with(shards.len(), || None);
    let slots = Mutex::new(slots);

    std::thread::scope(|scope| {
        for (index, spec) in shards.into_iter().enumerate() {
            let mailboxes = &mailboxes;
            let slots = &slots;
            scope.spawn(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    run_one_shard(index, spec, links, mailboxes, horizon)
                }))
                .unwrap_or_else(|payload| {
                    // Release every peer waiting on this shard, even if the
                    // panic came before setup declared its exports. A
                    // duplicate sentinel is harmless: a receiver stops
                    // reading a link once its grant is `Time::MAX`.
                    for (link, _) in links.iter().enumerate().filter(|(_, l)| l.from == index) {
                        mailboxes[link].post(Msg {
                            events: Vec::new(),
                            grant: Time::MAX,
                        });
                    }
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_default();
                    Err(SimError::ShardPanicked { index, msg })
                });
                slots.lock().unwrap()[index] = Some(outcome);
            });
        }
    });

    slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|slot| slot.expect("every shard thread reports"))
        .collect()
}

/// The per-worker body: build, lockstep, finish.
fn run_one_shard<R>(
    index: usize,
    spec: ShardSpec<R>,
    links: &[LinkDef],
    mailboxes: &[Arc<Mailbox>],
    horizon: Time,
) -> Result<(R, ShardStats), SimError> {
    let mut stats = ShardStats::default();
    let busy_start = Instant::now();

    let mut sim = Simulator::new(spec.seed);
    let plan = (spec.setup)(&mut sim);
    let ShardIo { exports, imports } = plan.io;
    for e in &exports {
        assert_eq!(links[e.link].from, index, "export on a foreign link");
        assert!(
            !e.launches.is_empty(),
            "export link {} has no launches",
            e.link
        );
        for &n in &e.nets {
            sim.trace(n);
        }
    }
    for i in &imports {
        assert_eq!(links[i.link].to, index, "import on a foreign link");
    }

    // Run the protocol, then post sentinels whether it succeeded or
    // returned an error, so peers never block on this shard. A panic
    // skips this; `run_sharded`'s unwind guard posts them instead.
    let result = lockstep(&mut sim, &exports, &imports, mailboxes, horizon, &mut stats);
    for e in &exports {
        stats.messages_sent += 1;
        mailboxes[e.link].post(Msg {
            events: Vec::new(),
            grant: Time::MAX,
        });
    }
    result?;

    let out = (plan.finish)(&mut sim);
    stats.sim = sim.stats();
    stats.busy = busy_start.elapsed() - stats.blocked;
    Ok((out, stats))
}

/// Per-export-net harvest cursor into the traced waveform.
#[derive(Clone, Copy, Default)]
struct Cursor(usize);

/// The lockstep rounds (everything between elaboration and finish).
fn lockstep(
    sim: &mut Simulator,
    exports: &[ExportSpec],
    imports: &[ImportSpec],
    mailboxes: &[Arc<Mailbox>],
    horizon: Time,
    stats: &mut ShardStats,
) -> Result<(), SimError> {
    // An unlinked shard *is* the unsharded path: counters stay identical.
    if exports.is_empty() && imports.is_empty() {
        stats.rounds = 1;
        return sim.run_until(horizon);
    }

    let mut cursors: Vec<Vec<Cursor>> = exports
        .iter()
        .map(|e| vec![Cursor::default(); e.nets.len()])
        .collect();
    // Per in-link state: last grant, staged (not yet applied) events,
    // and messages fetched from the mailbox but not yet consumed (a
    // fast sender may run several rounds ahead; consuming exactly one
    // message per round keeps this shard's target sequence a pure
    // function of the shard graph, independent of thread scheduling).
    let mut grants: Vec<Time> = vec![Time::from_ps(1); imports.len()];
    let mut staged: Vec<VecDeque<(Time, u32, Logic)>> =
        imports.iter().map(|_| VecDeque::new()).collect();
    let mut fetched: Vec<VecDeque<Msg>> = imports.iter().map(|_| VecDeque::new()).collect();

    // Round 0: flush elaboration-time init drives and announce bounds.
    sim.run_until(Time::ZERO)?;
    harvest_and_post(sim, exports, &mut cursors, mailboxes, Time::ZERO, stats);
    stats.rounds += 1;

    loop {
        // Rendezvous: exactly one message per in-link per round (a
        // sentinel link needs no further messages).
        for (j, imp) in imports.iter().enumerate() {
            if grants[j] == Time::MAX {
                continue;
            }
            if fetched[j].is_empty() {
                fetched[j].extend(mailboxes[imp.link].take_blocking(&mut stats.blocked));
            }
            let msg = fetched[j].pop_front().expect("take_blocking returns ≥ 1");
            debug_assert!(msg.grant >= grants[j], "grants must be monotone");
            grants[j] = msg.grant;
            staged[j].extend(msg.events);
        }

        let target = horizon.min(grants.iter().copied().min().unwrap_or(Time::MAX));

        // Apply every staged event now due, in stable (time, link, pin)
        // order — never arrival order. Within one link events are already
        // time-sorted; merging link-by-link through a global sort keeps
        // the numbering stable across any wall-clock interleaving.
        let mut due: Vec<(Time, usize, u32, Logic)> = Vec::new();
        for (j, buf) in staged.iter_mut().enumerate() {
            while buf.front().is_some_and(|&(t, _, _)| t <= target) {
                let (t, pin, v) = buf.pop_front().unwrap();
                due.push((t, j, pin, v));
            }
        }
        due.sort_by_key(|&(t, j, pin, _)| (t, j, pin));
        for (t, j, pin, v) in due {
            let (driver, net) = imports[j].pins[pin as usize];
            stats.events_received += 1;
            sim.drive_at(driver, net, v, t);
        }

        sim.run_until(target)?;
        harvest_and_post(sim, exports, &mut cursors, mailboxes, target, stats);
        stats.rounds += 1;

        // Done once every event ≤ horizon is guaranteed delivered.
        if grants.iter().all(|&g| g > horizon) {
            return Ok(());
        }
    }
}

/// Captures each export net's waveform deltas up to `t` (final value per
/// instant — the trace collapses same-instant bounces) and posts one
/// message per out-link with the new grant.
fn harvest_and_post(
    sim: &Simulator,
    exports: &[ExportSpec],
    cursors: &mut [Vec<Cursor>],
    mailboxes: &[Arc<Mailbox>],
    t: Time,
    stats: &mut ShardStats,
) {
    for (e, curs) in exports.iter().zip(cursors.iter_mut()) {
        let mut events: Vec<(Time, u32, Logic)> = Vec::new();
        for (pin, (&net, cur)) in e.nets.iter().zip(curs.iter_mut()).enumerate() {
            let pts = sim
                .waveform(net)
                .expect("export nets are traced by the engine")
                .points();
            while cur.0 < pts.len() && pts[cur.0].0 <= t {
                events.push((pts[cur.0].0, pin as u32, pts[cur.0].1));
                cur.0 += 1;
            }
        }
        events.sort_by_key(|&(time, pin, _)| (time, pin));
        stats.events_sent += events.len() as u64;
        stats.messages_sent += 1;
        if events.is_empty() {
            stats.null_messages += 1;
        }
        mailboxes[e.link].post(Msg {
            events,
            grant: e.bound(t),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockGen;
    use crate::component::{Component, Ctx};
    use proptest::prelude::*;

    #[test]
    fn next_landing_is_strictly_after() {
        let s = ClockSchedule {
            phase: Time::from_ps(300),
            period: Time::from_ps(1_000),
        };
        let d = Time::from_ps(400);
        // First landing: phase + period + delay = 1700.
        assert_eq!(s.next_landing_after(Time::ZERO, d), Time::from_ps(1_700));
        assert_eq!(
            s.next_landing_after(Time::from_ps(1_699), d),
            Time::from_ps(1_700)
        );
        // Exactly at a landing: strictly-after means the *next* one.
        assert_eq!(
            s.next_landing_after(Time::from_ps(1_700), d),
            Time::from_ps(2_700)
        );
        assert_eq!(
            s.next_landing_after(Time::from_ps(10_000_000), d),
            Time::from_ps(10_000_700)
        );
    }

    /// A registered repeater: on each rising clock edge, drives its
    /// output to its input's value after `delay` — the minimal model of
    /// a cut net with an exact launch delay.
    struct EdgeReg {
        clk: NetId,
        d: NetId,
        q_drv: crate::net::DriverId,
        delay: Time,
        seen: Time,
        started: bool,
    }

    impl Component for EdgeReg {
        fn name(&self) -> &str {
            "edge_reg"
        }
        fn eval(&mut self, ctx: &mut Ctx<'_>) {
            let rose = ctx.rose(self.clk, &mut self.seen);
            if std::mem::replace(&mut self.started, true) && rose {
                let v = ctx.get(self.d);
                ctx.drive(self.q_drv, v, self.delay);
            }
        }
    }

    fn spawn_edge_reg(sim: &mut Simulator, clk: NetId, d: NetId, q: NetId, delay: Time) {
        let q_drv = sim.driver(q);
        sim.add_clocked_component(
            Box::new(EdgeReg {
                clk,
                d,
                q_drv,
                delay,
                seen: Time::MAX,
                started: false,
            }),
            &[clk],
            &[],
        );
    }

    /// Shard `i`'s clock in a ring; each register launches `RING_DELAY`
    /// after its rising edge.
    const fn ring_clock(i: usize) -> ClockSchedule {
        ClockSchedule {
            phase: Time::from_ps(450 * i as u64),
            period: Time::from_ps(1_000 + 300 * i as u64),
        }
    }
    const RING_DELAY: Time = Time::from_ps(400);

    /// The links of an `n`-shard ring: link `i` runs from shard `i` to
    /// the next.
    fn ring_links(n: usize) -> Vec<LinkDef> {
        (0..n)
            .map(|i| LinkDef {
                from: i,
                to: (i + 1) % n,
            })
            .collect()
    }

    /// A fault injected into one ring shard.
    #[derive(Clone, Copy, Debug)]
    enum Fault {
        /// The setup closure panics with "setup fault".
        Setup,
        /// A component panics with "component fault" at this instant.
        PanicAt(Time),
        /// A zero-delay loop starts at this instant, so `run_until`
        /// returns [`SimError::DeltaOverflow`] there.
        LoopAt(Time),
    }

    /// Panics once the simulation reaches `at`.
    struct PanicAt {
        at: Time,
    }

    impl Component for PanicAt {
        fn name(&self) -> &str {
            "panic_at"
        }
        fn eval(&mut self, ctx: &mut Ctx<'_>) {
            let now = ctx.now();
            assert!(now < self.at, "component fault");
            ctx.wake_in(self.at - now);
        }
    }

    /// From `at` on, drives its own watched net to its complement with
    /// no delay: a zero-delay oscillation.
    struct LoopAt {
        at: Time,
        net: NetId,
        drv: DriverId,
    }

    impl Component for LoopAt {
        fn eval(&mut self, ctx: &mut Ctx<'_>) {
            let now = ctx.now();
            if now < self.at {
                ctx.wake_in(self.at - now);
            } else {
                let v = if ctx.get(self.net) == Logic::H {
                    Logic::L
                } else {
                    Logic::H
                };
                ctx.drive_now(self.drv, v);
            }
        }
    }

    /// Events a [`Fault::LoopAt`] shard allows per instant, so the loop
    /// is caught quickly.
    const LOOP_LIMIT: u64 = 1_000;

    /// Shard `i` of an `n`-shard ring: its register samples the previous
    /// shard's output, mirrored over link `i - 1`, and exports its own on
    /// link `i`.
    fn ring_shard(n: usize, i: usize, fault: Option<Fault>) -> ShardSpec<Vec<(Time, Logic)>> {
        let prev = (i + n - 1) % n;
        ShardSpec {
            seed: 7,
            setup: Box::new(move |sim: &mut Simulator| {
                let schedule = ring_clock(i);
                let clk = sim.net(format!("clk{i}"));
                ClockGen::builder(schedule.period)
                    .phase(schedule.phase)
                    .spawn(sim, clk);
                match fault {
                    Some(Fault::Setup) => panic!("setup fault"),
                    Some(Fault::PanicAt(at)) => {
                        sim.add_component(Box::new(PanicAt { at }), &[]);
                    }
                    Some(Fault::LoopAt(at)) => {
                        sim.max_events_per_instant = LOOP_LIMIT;
                        let net = sim.net("loop");
                        let drv = sim.driver(net);
                        sim.add_component(Box::new(LoopAt { at, net, drv }), &[net]);
                    }
                    None => {}
                }
                let q = sim.net(format!("q{i}"));
                let mirror = sim.net(format!("xlink.q{prev}"));
                let mirror_drv = sim.driver(mirror);
                spawn_edge_reg(sim, clk, mirror, q, RING_DELAY);
                if i == 1 {
                    let kick = sim.driver(q);
                    sim.drive_at(kick, q, Logic::H, Time::ZERO);
                }
                sim.trace(q);
                ShardPlan {
                    io: ShardIo {
                        // Link i carries shard i's q to the next shard.
                        exports: vec![ExportSpec {
                            link: i,
                            nets: vec![q],
                            launches: vec![LinkLaunch {
                                schedule,
                                delay: RING_DELAY,
                            }],
                        }],
                        imports: vec![ImportSpec {
                            link: prev,
                            pins: vec![(mirror_drv, mirror)],
                        }],
                    },
                    finish: Box::new(move |sim: &mut Simulator| {
                        sim.waveform(q).unwrap().points().to_vec()
                    }),
                }
            }),
        }
    }

    /// Runs an `n`-shard ring to `horizon` with `fault` injected into
    /// shard `faulty` and returns how it ended. The run goes on a helper
    /// thread, so one that never returns fails on the timeout rather than
    /// hanging the test.
    fn run_faulty_ring(
        n: usize,
        faulty: usize,
        fault: Fault,
        horizon: Time,
    ) -> Result<(), SimError> {
        let specs = (0..n)
            .map(|i| ring_shard(n, i, (i == faulty).then_some(fault)))
            .collect();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(run_sharded(specs, &ring_links(n), horizon).map(|_| ()));
        });
        rx.recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("run with {fault:?} in shard {faulty} of {n} hung"))
    }

    /// Two shards in a ring: each re-registers the other's output onto
    /// its own toggling source. The sharded run must observe exactly the
    /// single-simulator waveforms.
    #[test]
    fn two_shard_ring_matches_single_simulator() {
        let horizon = Time::from_us(1);

        // Reference: both halves in one simulator.
        let reference: Vec<Vec<(Time, Logic)>> = {
            let mut sim = Simulator::new(7);
            let clk: Vec<NetId> = (0..2).map(|i| sim.net(format!("clk{i}"))).collect();
            for (i, s) in (0..2).map(ring_clock).enumerate() {
                ClockGen::builder(s.period)
                    .phase(s.phase)
                    .spawn(&mut sim, clk[i]);
            }
            let q: Vec<NetId> = (0..2).map(|i| sim.net(format!("q{i}"))).collect();
            // Shard i's register samples the *other* shard's output.
            spawn_edge_reg(&mut sim, clk[0], q[1], q[0], RING_DELAY);
            spawn_edge_reg(&mut sim, clk[1], q[0], q[1], RING_DELAY);
            // Kick: an initial H on q1's side via a one-shot driver.
            let kick = sim.driver(q[1]);
            sim.drive_at(kick, q[1], Logic::H, Time::ZERO);
            for &n in &q {
                sim.trace(n);
            }
            sim.run_until(horizon).unwrap();
            q.iter()
                .map(|&n| sim.waveform(n).unwrap().points().to_vec())
                .collect()
        };

        // Sharded: one register per shard, the peer's output mirrored.
        let specs = (0..2).map(|i| ring_shard(2, i, None)).collect();
        let results = run_sharded(specs, &ring_links(2), horizon).unwrap();

        for (i, (points, st)) in results.iter().enumerate() {
            assert_eq!(
                points, &reference[i],
                "shard {i} waveform diverged from the single simulator"
            );
            assert!(st.rounds > 2, "ring must take many lockstep rounds");
            assert!(
                st.messages_sent >= st.rounds,
                "one message per round per link"
            );
        }
        // The kick shard's H at t=0 crosses; both registers toggle, so
        // real traffic flows and not every message is a null message.
        let sent: u64 = results.iter().map(|(_, s)| s.events_sent).sum();
        assert!(sent > 2, "expected cross-shard traffic, got {sent} events");
    }

    /// A linkless "sharded" run is literally the plain path: identical
    /// kernel counters, same result.
    #[test]
    fn unlinked_shard_is_the_plain_path() {
        let horizon = Time::from_ns(500);
        let plain = {
            let mut sim = Simulator::new(3);
            let clk = sim.net("clk");
            ClockGen::spawn_simple(&mut sim, clk, Time::from_ps(977));
            sim.run_until(horizon).unwrap();
            (sim.toggles(clk), sim.stats())
        };
        let specs = vec![ShardSpec {
            seed: 3,
            setup: Box::new(move |sim: &mut Simulator| {
                let clk = sim.net("clk");
                ClockGen::spawn_simple(sim, clk, Time::from_ps(977));
                ShardPlan {
                    io: ShardIo::default(),
                    finish: Box::new(move |sim: &mut Simulator| sim.toggles(clk)),
                }
            }),
        }];
        let results = run_sharded(specs, &[], horizon).unwrap();
        assert_eq!(results[0].0, plain.0);
        assert_eq!(results[0].1.sim, plain.1, "kernel counters drifted");
        assert_eq!(results[0].1.null_messages, 0);
        assert_eq!(results[0].1.events_sent, 0);
    }

    /// A panicking shard ends the run with a typed error instead of
    /// leaving its peer blocked forever.
    #[test]
    fn a_panicking_shard_ends_the_run_with_an_error() {
        for (fault, msg) in [
            (Fault::Setup, "setup fault"),
            (Fault::PanicAt(Time::from_ns(5)), "component fault"),
        ] {
            match run_faulty_ring(2, 0, fault, Time::from_us(1)) {
                Err(SimError::ShardPanicked { index: 0, msg: m }) => assert_eq!(m, msg),
                other => panic!("{fault:?}: got {other:?}"),
            }
        }
    }

    proptest! {
        /// Whichever shard of a ring of at most four faults, in whichever
        /// round and however (a panic in setup or in a component, or a
        /// zero-delay loop that makes `run_until` return an error), the
        /// run ends with that shard's error. Round `r` faults at `r` ns:
        /// the rings take 24–33 lockstep rounds over their 20 ns, so each
        /// nanosecond is a round or two. A panic in round 0 is one in the
        /// setup closure.
        #[test]
        fn any_shard_fault_ends_the_run_with_its_error(
            n in 2usize..=4,
            faulty in 0usize..4,
            round in 0u64..16,
            panics in any::<bool>(),
        ) {
            let faulty = faulty % n;
            let at = Time::from_ns(round);
            let fault = match (panics, round) {
                (true, 0) => Fault::Setup,
                (true, _) => Fault::PanicAt(at),
                (false, _) => Fault::LoopAt(at),
            };
            match (fault, run_faulty_ring(n, faulty, fault, Time::from_ns(20))) {
                (Fault::Setup, Err(SimError::ShardPanicked { index, msg })) => {
                    prop_assert_eq!((index, msg.as_str()), (faulty, "setup fault"));
                }
                (Fault::PanicAt(_), Err(SimError::ShardPanicked { index, msg })) => {
                    prop_assert_eq!((index, msg.as_str()), (faulty, "component fault"));
                }
                (Fault::LoopAt(_), Err(SimError::DeltaOverflow { time, events })) => {
                    prop_assert_eq!((time, events), (at, LOOP_LIMIT + 1));
                }
                (fault, other) => prop_assert!(
                    false,
                    "{:?} in shard {} of {}: got {:?}",
                    fault,
                    faulty,
                    n,
                    other
                ),
            }
        }
    }
}
