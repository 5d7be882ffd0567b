//! Pins what the event kernel makes observable on seeded random gate
//! networks: every net's waveform and toggle count, the violation log and
//! the delta-race sanitizer's records.
//!
//! Scheduling internals (how many events were queued, popped or skipped)
//! are free to change; these digests are not. Each network mixes the
//! situations a kernel optimisation can get wrong:
//!
//! * stimulus pulses shorter than a gate delay (inertial filtering),
//! * multi-driver nets and tri-state buses (resolution, conflicts),
//! * zero-delay gates (`drive_now`, same-instant delta cascades),
//! * components that re-schedule themselves with `wake_in` (including
//!   zero-delay self-wakes) and re-drive values they already hold,
//! * one clock fanned out to every flip-flop, whose metastability draws
//!   consume the simulator's RNG,
//! * AND, OR and NAND gates that wait for their controlling input alone
//!   ([`Ctx::sleep_until_change`]) while it pins their output, in those
//!   zero-delay cascades and same-instant races.
//!
//! The pinned values were taken from the kernel before schedule-time drive
//! elision; a change that moves one of them changed observable behaviour.

use mtf_sim::{
    ClockGen, Component, Ctx, DriverId, Logic, MetaModel, NetId, Simulator, Time, Violation,
    ViolationKind,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Deterministic generator for network shape and stimulus (independent of
/// the simulator's own RNG, which only the flip-flops draw from).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bit(&mut self) -> Logic {
        Logic::from_bool(self.next() & 1 == 1)
    }

    fn pick(&mut self, pool: &[NetId]) -> NetId {
        pool[self.below(pool.len() as u64) as usize]
    }

    /// A gate delay: zero one time in five, else 50–400 ps.
    fn delay(&mut self) -> Time {
        if self.below(5) == 0 {
            Time::ZERO
        } else {
            Time::from_ps(50 + 10 * self.below(36))
        }
    }
}

/// Drives `v` after `delay`; returns whether the drive was elided.
fn drive(ctx: &mut Ctx<'_>, driver: DriverId, v: Logic, delay: Time) -> bool {
    if delay == Time::ZERO {
        ctx.drive_now(driver, v)
    } else {
        ctx.drive(driver, v, delay)
    }
}

#[derive(Clone, Copy)]
enum Op {
    Buf,
    Not,
    And,
    Or,
    Xor,
    Nand,
}

/// One gate evaluation: instant in ps, gate, input levels, and whether
/// an input held the gate's controlling value.
type Eval = (u64, String, Vec<Logic>, bool);
type EvalLog = Rc<RefCell<Vec<Eval>>>;

/// With `hold`, an AND, OR or NAND gate whose drive was elided waits for
/// an input at its controlling value alone.
struct Gate {
    name: String,
    op: Op,
    inputs: Vec<NetId>,
    out: DriverId,
    delay: Time,
    hold: bool,
    log: EvalLog,
}

impl Component for Gate {
    fn name(&self) -> &str {
        &self.name
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let ins: Vec<Logic> = self.inputs.iter().map(|&n| ctx.get(n)).collect();
        let (first, rest) = (ins[0], ins[1..].iter().copied());
        let (v, controlling) = match self.op {
            Op::Buf => (first, None),
            Op::Not => (!first, None),
            Op::And => (rest.fold(first, Logic::and), Some(Logic::L)),
            Op::Or => (rest.fold(first, Logic::or), Some(Logic::H)),
            Op::Xor => (rest.fold(first, Logic::xor), None),
            Op::Nand => (!rest.fold(first, Logic::and), Some(Logic::L)),
        };
        let pinned = controlling.and_then(|c| ins.iter().position(|&l| l == c));
        let entry = (ctx.now().as_ps(), self.name.clone(), ins, pinned.is_some());
        self.log.borrow_mut().push(entry);
        if drive(ctx, self.out, v, self.delay) && self.hold {
            if let Some(i) = pinned {
                ctx.sleep_until_change(self.inputs[i]);
            }
        }
    }
}

/// A tri-state buffer onto a shared bus: drives `data` when enabled, `Z`
/// when disabled, `X` on an unknown enable.
struct TriBuf {
    data: NetId,
    enable: NetId,
    out: DriverId,
    delay: Time,
}

impl Component for TriBuf {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let v = match ctx.get(self.enable) {
            Logic::H => ctx.get(self.data),
            Logic::L => Logic::Z,
            _ => Logic::X,
        };
        drive(ctx, self.out, v, self.delay);
    }
}

/// Reports every instant at which a watched bus resolves to `X`.
struct BusMonitor {
    name: String,
    bus: NetId,
}

impl Component for BusMonitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.get(self.bus) == Logic::X {
            ctx.report(Violation {
                kind: ViolationKind::DriveConflict,
                time: ctx.now(),
                source: self.name.clone(),
                message: "bus resolved to X".into(),
            });
        }
    }
}

/// A rising-edge flip-flop that watches only its clock (so its `d` reads
/// are visible to the race sanitizer), checks setup time, and goes
/// metastable inside its window: `X` first, then an RNG-drawn value after
/// an RNG-drawn settling time, delivered by a self-wake.
struct Flop {
    name: String,
    clk: NetId,
    d: NetId,
    q: DriverId,
    last_clk: Logic,
    started: bool,
    clk_to_q: Time,
    setup: Time,
    meta: MetaModel,
    resolve: Option<(Time, Logic)>,
}

impl Component for Flop {
    fn name(&self) -> &str {
        &self.name
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        if !self.started {
            self.started = true;
            ctx.drive(self.q, Logic::L, self.clk_to_q);
        }
        if let Some((at, v)) = self.resolve {
            if at <= now {
                self.resolve = None;
                ctx.drive_now(self.q, v);
            }
        }
        let clk = ctx.get(self.clk);
        let rising = self.last_clk == Logic::L && clk == Logic::H;
        self.last_clk = clk;
        if !rising {
            return;
        }
        let changed = ctx.last_change(self.d);
        let d = ctx.get(self.d);
        if self.meta.is_vulnerable(changed, now) {
            ctx.report(Violation {
                kind: ViolationKind::Metastability,
                time: now,
                source: self.name.clone(),
                message: format!("d moved at {changed}"),
            });
            let settle = self.meta.draw_settle(ctx.rng());
            let v = self.meta.draw_resolution(ctx.rng());
            ctx.drive(self.q, Logic::X, self.clk_to_q);
            let at = now + self.clk_to_q + settle;
            self.resolve = Some((at, v));
            ctx.wake_in(at - now);
            return;
        }
        if changed <= now && now - changed < self.setup {
            ctx.report(Violation {
                kind: ViolationKind::Setup,
                time: now,
                source: self.name.clone(),
                message: format!("d moved at {changed}, {} before the edge", now - changed),
            });
        }
        ctx.drive(self.q, d, self.clk_to_q);
    }
}

/// A self-timed source: on each wake it drives a random value (often the
/// one it already holds) after a random delay, then wakes itself again —
/// occasionally at the same instant.
struct Pulser {
    name: String,
    out: DriverId,
    rng: SplitMix,
}

impl Component for Pulser {
    fn name(&self) -> &str {
        &self.name
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let v = self.rng.bit();
        let delay = self.rng.delay();
        drive(ctx, self.out, v, delay);
        let next = if self.rng.below(8) == 0 {
            Time::ZERO
        } else {
            Time::from_ps(100 + 50 * self.rng.below(60))
        };
        ctx.wake_in(next);
    }
}

const INPUTS: usize = 4;
const FLOPS: usize = 5;
const PULSERS: usize = 2;
const GATES: usize = 30;
const HORIZON: Time = Time::from_us(2);

/// Builds the network for `seed` and programs its stimulus; its gates
/// hold if `hold` and log their evaluations to `log`.
fn build(seed: u64, hold: bool, log: &EvalLog) -> Simulator {
    let mut sim = Simulator::new(seed);
    let mut rng = SplitMix(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x5eed);
    let mut pool: Vec<NetId> = Vec::new();

    // Primary inputs: transport-delay stimulus with gaps from 10 ps (far
    // shorter than any gate delay) to 3 ns; repeated values included.
    for i in 0..INPUTS {
        let n = sim.net(format!("in{i}"));
        let d = sim.driver(n);
        sim.drive_at(d, n, Logic::L, Time::ZERO);
        let mut t = Time::ZERO;
        while t < HORIZON {
            t += Time::from_ps(10 + rng.below(3_000));
            sim.drive_at(d, n, rng.bit(), t);
        }
        pool.push(n);
    }

    // Flip-flop outputs exist from the start so gates can read them; the
    // flops themselves are instantiated once their `d` cones are built.
    let q: Vec<NetId> = (0..FLOPS).map(|i| sim.net(format!("q{i}"))).collect();
    pool.extend(&q);

    for i in 0..PULSERS {
        let n = sim.net(format!("pulse{i}"));
        let out = sim.driver(n);
        let p = Pulser {
            name: format!("pulser{i}"),
            out,
            rng: SplitMix(rng.next()),
        };
        sim.add_component(Box::new(p), &[]);
        pool.push(n);
    }

    let mut gate_outs = Vec::new();
    let mut add_gates = |sim: &mut Simulator, rng: &mut SplitMix, pool: &mut Vec<NetId>, range| {
        for g in range {
            let op = [Op::Buf, Op::Not, Op::And, Op::Or, Op::Xor, Op::Nand][rng.below(6) as usize];
            let arity = match op {
                Op::Buf | Op::Not => 1,
                _ => 2 + rng.below(2) as usize,
            };
            let inputs: Vec<NetId> = (0..arity).map(|_| rng.pick(pool)).collect();
            let n = sim.net(format!("g{g}"));
            let out = sim.driver(n);
            let gate = Gate {
                name: format!("gate{g}"),
                op,
                inputs: inputs.clone(),
                out,
                delay: rng.delay(),
                hold,
                log: log.clone(),
            };
            sim.add_component(Box::new(gate), &inputs);
            pool.push(n);
            gate_outs.push(n);
        }
    };
    add_gates(&mut sim, &mut rng, &mut pool, 0..GATES / 2);

    // Two tri-state buses with 2–3 buffers each, and one wired net with two
    // plain gate drivers (conflicts resolve to X).
    let mut buses = Vec::new();
    for b in 0..2 {
        let bus = sim.net(format!("bus{b}"));
        for _ in 0..2 + rng.below(2) {
            let (data, enable) = (rng.pick(&pool), rng.pick(&pool));
            let out = sim.driver(bus);
            let buf = TriBuf {
                data,
                enable,
                out,
                delay: rng.delay(),
            };
            sim.add_component(Box::new(buf), &[data, enable]);
        }
        buses.push(bus);
    }
    let wired = sim.net("wired");
    for w in 0..2 {
        let inputs = [rng.pick(&pool), rng.pick(&pool)];
        let out = sim.driver(wired);
        let gate = Gate {
            name: format!("wired{w}"),
            op: Op::Xor,
            inputs: inputs.to_vec(),
            out,
            delay: rng.delay(),
            hold,
            log: log.clone(),
        };
        sim.add_component(Box::new(gate), &inputs);
    }
    buses.push(wired);
    for (i, &bus) in buses.iter().enumerate() {
        let mon = BusMonitor {
            name: format!("monitor{i}"),
            bus,
        };
        sim.add_component(Box::new(mon), &[bus]);
        pool.push(bus);
    }

    add_gates(&mut sim, &mut rng, &mut pool, GATES / 2..GATES);

    // One clock fanned out to every flop.
    let clk = sim.net("clk");
    ClockGen::builder(Time::from_ps(1_700 + 100 * rng.below(10))).spawn(&mut sim, clk);
    for (i, &qn) in q.iter().enumerate() {
        let d = rng.pick(&gate_outs);
        let out = sim.driver(qn);
        let flop = Flop {
            name: format!("flop{i}"),
            clk,
            d,
            q: out,
            last_clk: Logic::X,
            started: false,
            clk_to_q: Time::from_ps(120 + 10 * rng.below(10)),
            setup: Time::from_ps(80),
            meta: MetaModel::hp06(),
            resolve: None,
        };
        sim.add_component(Box::new(flop), &[clk]);
    }

    for i in 0..sim.net_count() {
        sim.trace(NetId::from_index(i));
    }
    sim
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Digest of every net's waveform and toggle count plus the violation log.
fn observables(sim: &Simulator) -> u64 {
    let mut h = Fnv::new();
    h.u64(sim.now().as_ps());
    for i in 0..sim.net_count() {
        let n = NetId::from_index(i);
        h.str(sim.net_name(n));
        h.u64(sim.toggles(n));
        let wf = sim.waveform(n).expect("every net is traced");
        h.u64(wf.points().len() as u64);
        for &(t, v) in wf.points() {
            h.u64(t.as_ps());
            h.bytes(&[v.as_char() as u8]);
        }
    }
    h.u64(sim.violations().len() as u64);
    for v in sim.violations() {
        h.str(&v.to_string());
    }
    h.0
}

/// Digest of the race sanitizer's records.
fn hazards(sim: &Simulator) -> u64 {
    let mut h = Fnv::new();
    let hz = sim.race_hazards();
    h.u64(hz.len() as u64);
    for r in &hz {
        h.str(&format!("{:?} {} {} {}", r.kind, r.time, r.net, r.detail));
    }
    h.0
}

fn run(seed: u64, sanitize: bool) -> Simulator {
    let mut sim = build(seed, true, &EvalLog::default());
    if sanitize {
        sim.enable_race_sanitizer();
    }
    sim.run_until(HORIZON)
        .expect("network settles every instant");
    sim
}

/// `(seed, observables, race hazards)`.
const PINNED: [(u64, u64, u64); 8] = [
    (0, 0x72faddb4e752a254, 0xf6e1691356476815),
    (1, 0xa49e28d521815209, 0xc5edc1559ad98693),
    (2, 0xecb81b552e437e25, 0x68d799e2cda12938),
    (3, 0xd9bbcdda4eef1c78, 0x600bda1ee7b35920),
    (4, 0xdae2ba734fb5e17c, 0xb4dfb4cda81e4deb),
    (5, 0x2b585d42c75a1004, 0x5e55a936384e29a8),
    (6, 0x3cf27fe0fb5a32bd, 0x3ffb700335f7aabd),
    (7, 0x66f005fb15e8593b, 0x401a3e1feb87d2f5),
];

#[test]
fn random_networks_match_pinned_digests() {
    let mut got = Vec::new();
    for &(seed, _, _) in &PINNED {
        let plain = run(seed, false);
        let sanitized = run(seed, true);
        assert_eq!(
            observables(&plain),
            observables(&sanitized),
            "seed {seed}: the race sanitizer must be passive"
        );
        got.push((seed, observables(&plain), hazards(&sanitized)));
    }
    for (g, p) in got.iter().zip(PINNED.iter()) {
        assert_eq!(
            g, p,
            "kernel observables moved (seed, observables, hazards); all: {got:#x?}"
        );
    }
}

/// The networks must actually exercise what the digests claim to pin.
#[test]
fn random_networks_cover_the_stimulus_cases() {
    let (mut meta, mut setup, mut conflict, mut hz) = (0, 0, 0, 0);
    for &(seed, _, _) in &PINNED {
        let sim = run(seed, true);
        assert!(sim.stats().held_wakes > 0, "seed {seed}: no gate was held");
        meta += sim.violations_of(ViolationKind::Metastability).count();
        setup += sim.violations_of(ViolationKind::Setup).count();
        conflict += sim.violations_of(ViolationKind::DriveConflict).count();
        hz += sim.race_hazards().len();
        let active = (0..sim.net_count())
            .filter(|&i| sim.toggles(NetId::from_index(i)) > 2)
            .count();
        assert!(
            active * 2 > sim.net_count(),
            "seed {seed}: only {active} of {} nets are active",
            sim.net_count()
        );
    }
    assert!(
        meta > 0 && setup > 0 && conflict > 0 && hz > 0,
        "{meta} {setup} {conflict} {hz}"
    );
}

/// Holding is exact: with holding gates, every gate evaluation of the
/// never-holding run happens in the same order with the same inputs,
/// except for skipped ones, each of which found a controlling input in
/// place. A held wake released in its own instant must run where the
/// never-held one did, or a gate evaluates out of that order.
#[test]
fn held_gates_skip_only_pinned_evaluations_in_order() {
    let evaluations = |seed: u64, hold: bool| {
        let log = EvalLog::default();
        let mut sim = build(seed, hold, &log);
        sim.run_until(HORIZON)
            .expect("network settles every instant");
        let evals = log.borrow().clone();
        (evals, sim.stats().held_wakes)
    };
    for &(seed, _, _) in &PINNED {
        let (awake, none) = evaluations(seed, false);
        let (held, skipped) = evaluations(seed, true);
        assert_eq!(none, 0);
        let mut rest = held.iter().peekable();
        let mut dropped = 0;
        for e in &awake {
            if rest
                .peek()
                .is_some_and(|h| (h.0, &h.1, &h.2) == (e.0, &e.1, &e.2))
            {
                rest.next();
                continue;
            }
            assert!(e.3, "seed {seed}: {e:?} is missing from the held run");
            dropped += 1;
        }
        assert!(
            rest.next().is_none(),
            "seed {seed}: the held run evaluates a gate out of order"
        );
        assert!(
            dropped > 0 && dropped <= skipped,
            "seed {seed}: {dropped} evaluations dropped, {skipped} wakes held"
        );
    }
}
