//! Property tests pitting [`EventQueue`] against a reference `BinaryHeap`.
//!
//! The delta ring, near wheel and later heap must be *observationally
//! identical* to the single binary heap they replaced: any interleaving of
//! pushes and pops yields the same `(time, seq)` pop sequence. The pushes
//! aim at the 4096 ps block edge, where an event moves from the near
//! wheel to the later heap and a refill moves a block back. The seeded
//! LCG test in `event.rs` checks fixed interleavings everywhere (no
//! external crates); this module is the shrinking-capable `proptest`
//! version, so a violation minimises to the smallest offending op
//! sequence.

use proptest::prelude::*;
use std::collections::BinaryHeap;

use crate::clock::ClockGen;
use crate::component::{Component, ComponentId, Ctx};
use crate::event::{Event, EventKind, EventQueue};
use crate::logic::Logic;
use crate::net::{DriverId, NetId};
use crate::race::RaceHazardKind;
use crate::sim::Simulator;
use crate::time::Time;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push, never before `now` (the simulator never schedules into the
    /// past).
    Push(At),
    /// The unbounded pop.
    Pop,
    /// [`EventQueue::pop_not_after`], the event loop's pop, at a horizon
    /// placed against the earliest queued event.
    PopNotAfter(Horizon),
    /// [`EventQueue::reserve_seq`] at the current instant: a held wake's
    /// skipped number.
    Reserve,
    /// [`EventQueue::insert_reserved`] of the reservation, if its wake is
    /// not yet due: a held wake's release.
    InsertReserved,
}

/// Where a push lands.
#[derive(Debug, Clone, Copy)]
enum At {
    /// `now + delta`.
    Delta(u64),
    /// The start of the block after `now`'s, moved by the offset (but not
    /// before `now`): the last slots of the cursor's block and the first
    /// of the next.
    Edge(i64),
}

/// Where a bounded pop's horizon falls, relative to the earliest queued
/// event `e` (or to `now` when the queue is empty). Never before `now`:
/// the simulator's horizon is never in its past.
#[derive(Debug, Clone, Copy)]
enum Horizon {
    /// `e - 1`: nothing is due.
    Before,
    /// Exactly `e`.
    At,
    /// `e + delta`: possibly between queued events, possibly past all.
    After(u64),
}

/// The near wheel's aligned block, in ps.
const BLOCK: u64 = 4_096;

/// Deltas biased across every tier of the queue: the same-instant delta
/// ring, the exact-ps near wheel, either side of one block's span, the
/// later heap a few blocks ahead, and far ahead of it.
fn delta() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => Just(0u64),
        3 => 1u64..64,
        3 => 1u64..BLOCK,
        2 => BLOCK - 6..BLOCK + 7,
        2 => 1u64..(BLOCK << 4),
        1 => 1u64..(1u64 << 30),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => delta().prop_map(|d| Op::Push(At::Delta(d))),
        2 => (-3i64..4).prop_map(|o| Op::Push(At::Edge(o))),
        1 => Just(Op::Pop),
        1 => Just(Op::PopNotAfter(Horizon::Before)),
        1 => Just(Op::PopNotAfter(Horizon::At)),
        1 => delta().prop_map(|d| Op::PopNotAfter(Horizon::After(d))),
        1 => Just(Op::Reserve),
        1 => Just(Op::InsertReserved),
    ]
}

proptest! {
    /// Random interleavings of pushes, both pops and held-wake
    /// reservations (including same-instant bursts, pushes at the block
    /// edge and far-future heap residents) pop in exactly the reference
    /// heap's `(time, seq)` order, and the near wheel's node arena never
    /// grows past the most near-wheel residents there have been at once.
    ///
    /// Like the simulator, the model keeps `now`, the instant events are
    /// queued from: the last popped event's time, or a bounded pop's
    /// horizon when nothing was due (`run_until` then advances to it).
    /// A reservation is taken only at the queue's own instant, and
    /// inserted only while nothing with a larger seq has been popped.
    #[test]
    fn queue_matches_reference_heap(ops in prop::collection::vec(op(), 1..250)) {
        let mut q = EventQueue::default();
        let mut reference: BinaryHeap<Event> = BinaryHeap::new();
        let mut now = 0u64;
        // The last popped event's (time, seq): the queue's instant.
        let mut last = (0u64, 0u64);
        let mut reserved: Option<u64> = None;
        let mut id = 0u32;
        let mut wake = || {
            id += 1;
            EventKind::Wake { comp: ComponentId(id) }
        };
        for op in ops {
            let popped = match op {
                Op::Push(at) => {
                    let t = Time::from_ps(match at {
                        At::Delta(d) => now + d,
                        At::Edge(o) => {
                            let next_block = (now / BLOCK + 1) * BLOCK;
                            next_block.saturating_add_signed(o).max(now)
                        }
                    });
                    let kind = wake();
                    let seq = q.push(t, kind);
                    reference.push(Event { time: t, seq, kind });
                    None
                }
                Op::Pop => Some((q.pop(), reference.pop())),
                Op::PopNotAfter(h) => {
                    let e = reference.peek().map_or(now, |e| e.time.as_ps());
                    let horizon = match h {
                        Horizon::Before => e.saturating_sub(1),
                        Horizon::At => e,
                        Horizon::After(d) => e + d,
                    }
                    .max(now);
                    let horizon = Time::from_ps(horizon);
                    let got = q.pop_not_after(horizon);
                    let want = if reference.peek().is_some_and(|e| e.time <= horizon) {
                        reference.pop()
                    } else {
                        None
                    };
                    if want.is_none() {
                        now = horizon.as_ps();
                    }
                    Some((got, want))
                }
                Op::Reserve => {
                    if now == last.0 {
                        reserved = Some(q.reserve_seq());
                    }
                    None
                }
                Op::InsertReserved => {
                    if let Some(seq) = reserved.take() {
                        if now == last.0 && last.1 < seq {
                            let kind = wake();
                            q.insert_reserved(seq, kind);
                            reference.push(Event { time: Time::from_ps(now), seq, kind });
                        }
                    }
                    None
                }
            };
            if let Some((got, want)) = popped {
                prop_assert_eq!(
                    got.map(|e| (e.time, e.seq)),
                    want.map(|e| (e.time, e.seq))
                );
                if let Some(e) = got {
                    now = e.time.as_ps();
                    last = (now, e.seq);
                }
            }
            if now != last.0 {
                // The instant is over; a later release queues afresh.
                reserved = None;
            }
            prop_assert_eq!(q.len(), reference.len());
            let (nodes, peak) = q.near_arena();
            prop_assert!(nodes <= peak, "{} arena nodes for at most {} residents", nodes, peak);
        }
        // Drain both completely: the tail order must agree too.
        loop {
            match (q.pop(), reference.pop()) {
                (None, None) => break,
                (g, w) => prop_assert_eq!(
                    g.map(|e| (e.time, e.seq)),
                    w.map(|e| (e.time, e.seq))
                ),
            }
        }
    }

    /// A pure burst at one instant behind an arbitrary pre-population
    /// drains strictly FIFO.
    #[test]
    fn same_instant_bursts_stay_fifo(
        pre in prop::collection::vec(delta(), 0..20),
        at in 0u64..(1u64 << 25),
        burst in 2usize..64,
    ) {
        let mut q = EventQueue::default();
        for d in pre {
            // Strictly after `at`: the burst below must drain first.
            q.push(Time::from_ps(at + 1 + d), EventKind::Wake { comp: ComponentId(u32::MAX) });
        }
        let mut seqs = Vec::with_capacity(burst);
        for i in 0..burst {
            seqs.push(q.push(Time::from_ps(at), EventKind::Wake { comp: ComponentId(i as u32) }));
        }
        // All burst events share the earliest time `at`, so they must come
        // out first, in push (= seq) order.
        for &want_seq in &seqs {
            let e = q.pop().expect("burst event present");
            prop_assert_eq!(e.time, Time::from_ps(at));
            prop_assert_eq!(e.seq, want_seq);
        }
    }

    /// The delta-race sanitizer is *passive*: enabling it must not change
    /// one event of the run. Random inverter chains behind a random clock
    /// produce identical toggle counts, final values, and kernel stats
    /// with the sanitizer on and off — and, because every stage watches
    /// its input and each net has one driver, zero hazards of any kind.
    #[test]
    fn race_sanitizer_is_passive(
        period_ps in 500u64..4_000,
        delays in prop::collection::vec(1u64..300, 1..8),
    ) {
        let run = |sanitize: bool| {
            let mut sim = Simulator::new(42);
            if sanitize {
                sim.enable_race_sanitizer();
            }
            let mut nets = vec![sim.net("clk")];
            ClockGen::spawn_simple(&mut sim, nets[0], Time::from_ps(period_ps));
            for (i, &d) in delays.iter().enumerate() {
                let next = sim.net(format!("stage{i}"));
                let drv = sim.driver(next);
                let input = nets[i];
                sim.add_component(
                    Box::new(Inverter { input, drv, delay: Time::from_ps(d) }),
                    &[input],
                );
                nets.push(next);
            }
            sim.run_until(Time::from_ns(50)).expect("chain runs");
            let toggles: Vec<u64> = nets.iter().map(|&n| sim.toggles(n)).collect();
            let finals: Vec<Logic> = nets.iter().map(|&n| sim.value(n)).collect();
            (toggles, finals, sim.stats().events_processed, sim.race_hazards())
        };
        let (t0, f0, e0, h0) = run(false);
        let (t1, f1, e1, h1) = run(true);
        prop_assert_eq!(t0, t1, "sanitizer changed toggle counts");
        prop_assert_eq!(f0, f1, "sanitizer changed final values");
        prop_assert_eq!(e0, e1, "sanitizer changed the event schedule");
        prop_assert!(h0.is_empty(), "sanitizer off must record nothing");
        prop_assert!(
            !h1.iter().any(|h| h.kind == RaceHazardKind::ReadThenWrite),
            "watching single-driver chain flagged read-then-write: {:?}",
            h1
        );
    }
}

/// Forwards the inverted input after a fixed delay; watches its input, so
/// a correct kernel never hands it stale data.
struct Inverter {
    input: NetId,
    drv: DriverId,
    delay: Time,
}

impl Component for Inverter {
    fn name(&self) -> &str {
        "prop_inverter"
    }
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let v = match ctx.get(self.input) {
            Logic::H => Logic::L,
            Logic::L => Logic::H,
            other => other,
        };
        ctx.drive(self.drv, v, self.delay);
    }
}
