//! The event queue: a 4096-slot timing wheel fronted by a same-instant
//! delta ring, backed by one binary heap.
//!
//! The kernel's hot path is the zero-delay cascade: a net toggles, its
//! watchers are woken *at the same instant*, their drives resolve more nets
//! at the same instant, and so on. A binary heap pays `O(log n)` per push
//! and pop for every one of those events; the structure below makes them
//! `O(1)` by keeping all events at the current instant in a FIFO ring
//! (`ready`), while future events go into:
//!
//! * a **near wheel** of 4096 slots at exact 1 ps resolution (one slot =
//!   one timestamp), covering the cursor's aligned 4096 ps block, with a
//!   two-level occupancy bitmap so the next occupied slot is found in two
//!   `trailing_zeros` instructions — gate delays (a few hundred ps) land
//!   here directly. A slot is a singly linked list (`head`/`tail` indices)
//!   through one pooled node arena with a free list, so the wheel's memory
//!   follows the number of queued events rather than the number of slots
//!   ever used;
//! * the **later heap**, a `BinaryHeap` of every event in a later block —
//!   clock periods and long delays. When the ring and the wheel run dry,
//!   the heap's earliest block is moved into the wheel whole.
//!
//! ## Ordering invariant
//!
//! Pops come out in exactly `(time, seq)` order — identical to the
//! `BinaryHeap` implementation this replaced, so waveforms, violation logs
//! and RNG draws are bit-for-bit unchanged. The argument:
//!
//! * `seq` is a global monotonic counter, so FIFO insertion order within
//!   any one container *is* seq order.
//! * The wheel cursor (`cur`) only advances inside
//!   [`EventQueue::pop_not_after`], and the simulator never schedules into
//!   the past (`t ≥ now ≥ cur`), so an event pushed at the current instant
//!   lands in `ready` *behind* every event already staged there — again
//!   seq order.
//! * A near-wheel slot holds one exact timestamp of the cursor's block,
//!   and every later-heap event lies in a later block, so the ring, then
//!   the lowest occupied slot, then the heap's top is the global minimum.
//! * A refill moves the heap's earliest block into the wheel in pop
//!   (`(time, seq)`) order, so each slot it fills is in seq order. It
//!   moves the *whole* block: afterwards a push into that block goes
//!   straight to its slot, behind events with smaller seqs — which would
//!   break the order if any of them were still in the heap.
//!
//! Events are 24 bytes (pinned below): time, seq and an 8-byte kind. A
//! component drive needs no cancellation stamp of its own, because its
//! seq is the stamp — it is live iff its driver's `pending_seq` still
//! equals it.
//!
//! [`EventQueue::place`] takes an event's fields, not an `Event`, and
//! writes the event only where it lands: the delta ring, an arena node or
//! the later heap. Handed an `Event`, the caller wrote it to a stack slot
//! in 8-byte stores and `place` copied it on with a 16-byte load, which
//! the CPU cannot forward from two smaller stores, so it stalled until
//! they retired, once per queued event (the release `place` that took an
//! `Event` had three such `movups` reloads, one per landing place).
//! Passing the fields alone took `norm_job_ms.p50` from 25.7 to 24.5 ms
//! on `fifo_event` and from 63.9 to 61.3 ms on `chains` (medians of four
//! alternating 10 s runs each, 2-vCPU Xeon).
//!
//! These properties are exercised against a reference binary-heap model by
//! the tests at the bottom of this file (a seeded interleaving test that
//! runs everywhere, boundary cases at the block edge, plus the
//! shrinking-capable `proptest` version in `src/queue_props.rs`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::component::ComponentId;
use crate::logic::Logic;
use crate::net::DriverId;
use crate::time::Time;

#[derive(Debug, Clone, Copy)]
pub(crate) enum EventKind {
    /// Apply a driver contribution scheduled earlier. A component drive
    /// (`external == false`) applies only if the driver's `pending_seq`
    /// still equals the event's own seq, otherwise a later schedule
    /// cancelled it; an `external` one ([`Simulator::drive_at`]) always
    /// applies.
    ///
    /// [`Simulator::drive_at`]: crate::Simulator::drive_at
    Drive {
        driver: DriverId,
        value: Logic,
        external: bool,
    },
    /// Re-evaluate a component (net change notification or self-wake).
    Wake { comp: ComponentId },
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub time: Time,
    pub seq: u64,
    pub kind: EventKind,
}

// Every queued event is copied through the delta ring and the wheel's node
// arena several times, and the queue's cache footprint is its depth times
// this size: growing it by a field costs every event of every run, so a
// new field must be added on purpose, with this pin.
const _: () = assert!(std::mem::size_of::<Event>() == 24);

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    /// Reversed so that a max-heap pops the *earliest* (time, seq) first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Near wheel: 2¹² exact-picosecond slots, one aligned 4096 ps block.
const NEAR_BITS: u32 = 12;
const NEAR_SLOTS: usize = 1 << NEAR_BITS;
const NEAR_MASK: u64 = NEAR_SLOTS as u64 - 1;
/// The end of a near-wheel slot's list and of the free list.
const NIL: u32 = u32::MAX;

/// One near-wheel resident: an event and the arena index of the next
/// event in its slot (or in the free list).
#[derive(Clone, Copy)]
struct Node {
    ev: Event,
    next: u32,
}

/// A near-wheel slot's list: arena indices of its oldest and newest
/// events. Meaningful only while the slot's occupancy bit is set.
#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

/// Counters the queue keeps about itself; surfaced through
/// [`Simulator::stats`](crate::Simulator::stats).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct QueueStats {
    pub peak_depth: usize,
    pub delta_pushes: u64,
    pub peak_delta_depth: usize,
    /// Blocks moved from the later heap into the near wheel.
    pub refills: u64,
    /// Events pushed into the later heap.
    pub later_pushes: u64,
}

pub(crate) struct EventQueue {
    /// Events at exactly the current instant (`cur`), in seq order: the
    /// delta ring. Zero-delay scheduling and popping are O(1); the ring is
    /// a flat `Vec` with a consume cursor (`ready_head`), reset to empty
    /// once drained, which is cheaper than a `VecDeque`'s wrap arithmetic
    /// on this all-hot path.
    ready: Vec<Event>,
    ready_head: usize,
    /// Near wheel: slot `t & NEAR_MASK` lists exactly the events at
    /// timestamp `t`, for `t` in the cursor's 4096 ps block, oldest first.
    near: Box<[Slot; NEAR_SLOTS]>,
    /// The node arena behind every near-wheel slot. A drained slot's nodes
    /// go to the free list (`free`, linked through `Node::next`) and are
    /// reused before the arena grows, so its length is the peak number of
    /// near-wheel residents.
    nodes: Vec<Node>,
    free: u32,
    /// Two-level occupancy bitmap over `near`: bit `w` of `near_summary`
    /// says word `near_words[w]` is non-zero.
    near_words: [u64; NEAR_SLOTS / 64],
    near_summary: u64,
    /// Every event in a block after the cursor's.
    later: BinaryHeap<Event>,
    /// The wheel cursor in ps: the timestamp of the events in `ready`, and
    /// a lower bound on every queued event. Advances only in `pop`.
    cur: u64,
    len: usize,
    next_seq: u64,
    stats: QueueStats,
    /// Tests: near-wheel residents now and at most so far.
    #[cfg(test)]
    near_live: usize,
    #[cfg(test)]
    near_peak: usize,
}

impl std::fmt::Debug for EventQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("cur_ps", &self.cur)
            .field("ready", &(self.ready.len() - self.ready_head))
            .field("later", &self.later.len())
            .finish()
    }
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            ready: Vec::new(),
            ready_head: 0,
            near: Box::new(
                [Slot {
                    head: NIL,
                    tail: NIL,
                }; NEAR_SLOTS],
            ),
            nodes: Vec::new(),
            free: NIL,
            near_words: [0; NEAR_SLOTS / 64],
            near_summary: 0,
            later: BinaryHeap::new(),
            cur: 0,
            len: 0,
            next_seq: 1,
            stats: QueueStats::default(),
            #[cfg(test)]
            near_live: 0,
            #[cfg(test)]
            near_peak: 0,
        }
    }
}

impl EventQueue {
    /// The sequence number the next `push` will assign. Numbers start at
    /// 1, so 0 can stand for "before every event".
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    pub fn push(&mut self, time: Time, kind: EventKind) -> u64 {
        let seq = self.reserve_seq();
        self.len += 1;
        if self.len > self.stats.peak_depth {
            self.stats.peak_depth = self.len;
        }
        self.place(time, seq, kind);
        seq
    }

    /// Takes the next sequence number without queueing anything, so the
    /// seqs of later pushes are those they would have had if an event had
    /// been pushed here. [`EventQueue::insert_reserved`] may queue the
    /// event later in the same instant.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Queues an event at the current instant under a `seq` reserved
    /// earlier in it, at the delta-ring position a push at reservation
    /// time would have given it. The reserved event must not have been
    /// due yet: every event popped so far in this instant has a smaller
    /// seq.
    pub fn insert_reserved(&mut self, seq: u64, kind: EventKind) {
        let time = Time::from_ps(self.cur);
        self.len += 1;
        if self.len > self.stats.peak_depth {
            self.stats.peak_depth = self.len;
        }
        self.stats.delta_pushes += 1;
        let pending = &self.ready[self.ready_head..];
        debug_assert!(pending.iter().all(|e| e.time == time && e.seq != seq));
        let at = self.ready_head + pending.partition_point(|e| e.seq < seq);
        self.ready.insert(at, Event { time, seq, kind });
        let depth = self.ready.len() - self.ready_head;
        if depth > self.stats.peak_delta_depth {
            self.stats.peak_delta_depth = depth;
        }
    }

    /// Routes an event into the delta ring, a near-wheel slot, or the
    /// later heap, relative to the current cursor. The delta ring and the
    /// near wheel, where almost every event goes, are handled here; the
    /// heap in [`EventQueue::push_later`]. It takes the event's fields
    /// and builds the event where it lands (see the module docs).
    #[inline]
    fn place(&mut self, time: Time, seq: u64, kind: EventKind) {
        let t = time.as_ps();
        if t <= self.cur {
            // The simulator never schedules into the past; anything at the
            // current instant joins the delta ring in seq order.
            debug_assert!(t == self.cur, "event scheduled before queue cursor");
            self.stats.delta_pushes += 1;
            self.ready.push(Event { time, seq, kind });
            let depth = self.ready.len() - self.ready_head;
            if depth > self.stats.peak_delta_depth {
                self.stats.peak_delta_depth = depth;
            }
            return;
        }
        if (t ^ self.cur) >= 1 << NEAR_BITS {
            return self.push_later(time, seq, kind);
        }
        let s = (t & NEAR_MASK) as usize;
        let i = self.alloc(time, seq, kind);
        let (w, bit) = (s >> 6, 1u64 << (s & 63));
        let slot = &mut self.near[s];
        if self.near_words[w] & bit == 0 {
            *slot = Slot { head: i, tail: i };
            self.near_words[w] |= bit;
            self.near_summary |= 1u64 << w;
        } else {
            self.nodes[slot.tail as usize].next = i;
            slot.tail = i;
        }
    }

    /// [`EventQueue::place`] for an event in a block after the cursor's.
    #[cold]
    #[inline(never)]
    fn push_later(&mut self, time: Time, seq: u64, kind: EventKind) {
        self.stats.later_pushes += 1;
        self.later.push(Event { time, seq, kind });
    }

    /// Stores the event in a free arena node (a new one only if none is
    /// free) and returns the node's index, its list link cleared.
    #[inline]
    fn alloc(&mut self, time: Time, seq: u64, kind: EventKind) -> u32 {
        #[cfg(test)]
        {
            self.near_live += 1;
            self.near_peak = self.near_peak.max(self.near_live);
        }
        let node = Node {
            ev: Event { time, seq, kind },
            next: NIL,
        };
        let i = self.free;
        if i != NIL {
            let n = &mut self.nodes[i as usize];
            self.free = n.next;
            *n = node;
            return i;
        }
        let i = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&i| i != NIL)
            .expect("near wheel holds fewer than 2^32 - 1 events");
        self.nodes.push(node);
        i
    }

    /// Earliest queued time without disturbing the wheel. The event loop
    /// itself uses the fused [`EventQueue::pop_not_after`]; this stays for
    /// diagnostics and the reference-model tests.
    #[cfg(test)]
    pub fn peek_time(&self) -> Option<Time> {
        if let Some(ev) = self.ready.get(self.ready_head) {
            return Some(ev.time);
        }
        if self.len == 0 {
            return None;
        }
        if self.near_summary != 0 {
            let w = self.near_summary.trailing_zeros() as usize;
            let b = self.near_words[w].trailing_zeros() as usize;
            let slot = ((w << 6) | b) as u64;
            return Some(Time::from_ps((self.cur & !NEAR_MASK) + slot));
        }
        self.later.peek().map(|e| e.time)
    }

    /// Unconditional pop; equivalent to `pop_not_after(Time::MAX)`.
    #[cfg(test)]
    pub fn pop(&mut self) -> Option<Event> {
        self.pop_not_after(Time::MAX)
    }

    /// Pops the earliest event if its time is ≤ `horizon`; otherwise leaves
    /// the queue untouched (the cursor never advances past an event the
    /// caller is not ready to consume, so later pushes at ≤ `horizon` stay
    /// legal). This is the event loop's primary operation: it replaces a
    /// `peek_time` + `pop` pair and performs a single occupancy scan per
    /// instant, with a fast path handing a lone slot resident straight to
    /// the caller without staging through the delta ring.
    pub fn pop_not_after(&mut self, horizon: Time) -> Option<Event> {
        loop {
            if let Some(&ev) = self.ready.get(self.ready_head) {
                if ev.time > horizon {
                    return None;
                }
                self.ready_head += 1;
                if self.ready_head == self.ready.len() {
                    self.ready.clear();
                    self.ready_head = 0;
                }
                self.len -= 1;
                return Some(ev);
            }
            if self.len == 0 {
                return None;
            }
            if self.near_summary != 0 {
                let w = self.near_summary.trailing_zeros() as usize;
                let b = self.near_words[w].trailing_zeros() as usize;
                let s = (w << 6) | b;
                let t = Time::from_ps((self.cur & !NEAR_MASK) + s as u64);
                if t > horizon {
                    return None;
                }
                debug_assert!(t.as_ps() > self.cur);
                self.cur = t.as_ps();
                self.near_words[w] &= !(1u64 << b);
                if self.near_words[w] == 0 {
                    self.near_summary &= !(1u64 << w);
                }
                let Slot { head, tail } = self.near[s];
                // The slot's nodes go back to the free list whole.
                self.nodes[tail as usize].next = self.free;
                self.free = head;
                if head == tail {
                    // Lone event at this instant: skip the delta ring.
                    #[cfg(test)]
                    {
                        self.near_live -= 1;
                    }
                    self.len -= 1;
                    return Some(self.nodes[head as usize].ev);
                }
                let mut i = head;
                loop {
                    let n = self.nodes[i as usize];
                    self.ready.push(n.ev);
                    self.stats.delta_pushes += 1;
                    #[cfg(test)]
                    {
                        self.near_live -= 1;
                    }
                    if i == tail {
                        break;
                    }
                    i = n.next;
                }
                let depth = self.ready.len() - self.ready_head;
                if depth > self.stats.peak_delta_depth {
                    self.stats.peak_delta_depth = depth;
                }
                continue;
            }
            // Near wheel empty: refill it with the heap's earliest block.
            // Check that block's first event against the horizon *before*
            // moving the cursor, so an out-of-horizon refill never strands
            // the cursor ahead of a later legal push.
            let first = self.later.peek().expect("len > 0 but no event found").time;
            if first > horizon {
                return None;
            }
            let block = first.as_ps() >> NEAR_BITS;
            debug_assert!(block > self.cur >> NEAR_BITS);
            self.stats.refills += 1;
            self.cur = block << NEAR_BITS;
            while self
                .later
                .peek()
                .is_some_and(|e| e.time.as_ps() >> NEAR_BITS == block)
            {
                let Event { time, seq, kind } = self.later.pop().expect("just peeked");
                self.place(time, seq, kind);
            }
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Tests: the node arena's length, and the most near-wheel residents
    /// there have been at once.
    #[cfg(test)]
    pub fn near_arena(&self) -> (usize, usize) {
        (self.nodes.len(), self.near_peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn wake(i: u32) -> EventKind {
        EventKind::Wake {
            comp: ComponentId(i),
        }
    }

    /// The component a test's wake event is for.
    fn comp_of(e: Event) -> u32 {
        match e.kind {
            EventKind::Wake { comp } => comp.0,
            _ => unreachable!(),
        }
    }

    /// Pops everything left: each event's time in ps and component.
    fn drain(q: &mut EventQueue) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.as_ps(), comp_of(e)))
            .collect()
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::default();
        q.push(Time::from_ns(5), wake(0));
        q.push(Time::from_ns(1), wake(1));
        q.push(Time::from_ns(1), wake(2));
        assert_eq!(drain(&mut q), [(1_000, 1), (1_000, 2), (5_000, 0)]);
    }

    #[test]
    fn len_tracks_contents() {
        let mut q = EventQueue::default();
        assert_eq!(q.len(), 0);
        q.push(Time::ZERO, wake(0));
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn same_instant_fifo_behind_wheel_resident_events() {
        // Two events pre-scheduled at t=100; after popping the first, a
        // push at t=100 (zero-delay) must come out *after* the second
        // pre-scheduled one (it has a larger seq).
        let mut q = EventQueue::default();
        q.push(Time::from_ps(100), wake(0));
        q.push(Time::from_ps(100), wake(1));
        assert_eq!(comp_of(q.pop().unwrap()), 0);
        q.push(Time::from_ps(100), wake(2));
        assert_eq!(drain(&mut q), [(100, 1), (100, 2)]);
    }

    #[test]
    fn far_future_overflow_orders_with_wheel() {
        let mut q = EventQueue::default();
        // Far beyond the near wheel's 4096 ps block: later-heap residents.
        q.push(Time::from_us(100), wake(0));
        q.push(Time::from_ns(1), wake(1));
        q.push(Time::from_us(100), wake(2));
        q.push(Time::from_us(99), wake(3));
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, c)| c).collect();
        assert_eq!(order, [1, 3, 0, 2]);
    }

    /// Drives the wheel and a reference `BinaryHeap` through the same
    /// pseudo-random push/pop interleaving and asserts identical pop
    /// order. Seeded LCG, no external crates, so it runs everywhere;
    /// `queue_matches_reference_heap` in `src/queue_props.rs` is the
    /// shrinking-capable proptest version.
    fn interleaving_against_reference(seed: u64, ops: usize) {
        let mut lcg = seed.wrapping_mul(2).wrapping_add(1);
        let mut rand = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 11
        };
        let mut q = EventQueue::default();
        let mut reference: BinaryHeap<Event> = BinaryHeap::new();
        let mut now = 0u64; // last popped time: pushes never go below this
        let mut next_id = 0u32;
        for _ in 0..ops {
            let r = rand();
            if r % 4 != 3 {
                // Push at `now + delta`, with deltas exercising every tier:
                // same-instant, near wheel, either side of the 4096 ps
                // block edge, a few blocks ahead, far ahead.
                let delta = match r % 7 {
                    0 => 0,
                    1 => rand() % 64,
                    2 => rand() % 4_096,
                    3 => 4_090 + rand() % 13,
                    4 => rand() % (1 << 16),
                    _ => rand() % (1 << 30),
                };
                let t = Time::from_ps(now + delta);
                let kind = wake(next_id);
                next_id += 1;
                let seq = q.push(t, kind);
                reference.push(Event { time: t, seq, kind });
            } else {
                let got = q.pop();
                let want = reference.pop();
                match (got, want) {
                    (None, None) => {}
                    (Some(g), Some(w)) => {
                        assert_eq!((g.time, g.seq), (w.time, w.seq));
                        now = g.time.as_ps();
                    }
                    (g, w) => panic!("emptiness mismatch: {g:?} vs {w:?}"),
                }
            }
        }
        // Drain both completely.
        loop {
            match (q.pop(), reference.pop()) {
                (None, None) => break,
                (Some(g), Some(w)) => assert_eq!((g.time, g.seq), (w.time, w.seq)),
                (g, w) => panic!("emptiness mismatch: {g:?} vs {w:?}"),
            }
        }
    }

    #[test]
    fn matches_reference_heap_across_interleavings() {
        for seed in 0..50 {
            interleaving_against_reference(seed, 2_000);
        }
    }

    #[test]
    fn block_edge_refills_and_horizons() {
        // 4095 ps ahead of an aligned cursor is the block's last slot;
        // 4096 and 4097 lie in the next block, on the heap.
        let mut q = EventQueue::default();
        q.push(Time::from_ps(4_097), wake(0));
        q.push(Time::from_ps(4_096), wake(1));
        q.push(Time::from_ps(4_095), wake(2));
        assert_eq!(q.stats().later_pushes, 2);
        assert_eq!(drain(&mut q), [(4_095, 2), (4_096, 1), (4_097, 0)]);
        assert_eq!(q.stats().refills, 1);

        // The same offsets from an unaligned cursor: the block edge, not
        // the distance, decides where an event goes.
        let mut q = EventQueue::default();
        q.push(Time::from_ps(100), wake(0));
        assert_eq!(q.pop().unwrap().time, Time::from_ps(100));
        for (i, d) in [4_097, 4_096, 4_095, 3_995].into_iter().enumerate() {
            q.push(Time::from_ps(100 + d), wake(i as u32));
        }
        assert_eq!(q.stats().later_pushes, 3);
        assert_eq!(
            drain(&mut q),
            [(4_095, 3), (4_195, 2), (4_196, 1), (4_197, 0)]
        );

        // A push into a block just refilled lands behind the refilled
        // events of its instant, even when they were queued far earlier.
        let mut q = EventQueue::default();
        q.push(Time::from_ps(6_000), wake(0));
        q.push(Time::from_ps(4_500), wake(1));
        q.push(Time::from_ps(6_000), wake(2));
        q.push(Time::from_ps(8_191), wake(3));
        assert_eq!(q.pop().unwrap().time, Time::from_ps(4_500));
        assert_eq!(q.stats().refills, 1);
        q.push(Time::from_ps(6_000), wake(4));
        q.push(Time::from_ps(8_191), wake(5));
        assert_eq!(
            drain(&mut q),
            [(6_000, 0), (6_000, 2), (6_000, 4), (8_191, 3), (8_191, 5)]
        );
        assert_eq!(q.stats().refills, 1);

        // A horizon between a block's start and its first event leaves
        // the cursor alone, so a push at the horizon is still legal and
        // pops first.
        let mut q = EventQueue::default();
        q.push(Time::from_ps(8_300), wake(0));
        assert!(q.pop_not_after(Time::from_ps(8_200)).is_none());
        assert_eq!(q.stats().refills, 0);
        q.push(Time::from_ps(8_200), wake(1));
        q.push(Time::from_ps(8_192), wake(2));
        assert_eq!(drain(&mut q), [(8_192, 2), (8_200, 1), (8_300, 0)]);
    }

    #[test]
    fn a_reserved_seq_is_inserted_at_its_delta_ring_place() {
        let mut q = EventQueue::default();
        let first = q.push(Time::from_ps(100), wake(0));
        q.push(Time::from_ps(100), wake(1));
        assert_eq!(q.pop().unwrap().seq, first);
        let seq = q.reserve_seq();
        q.push(Time::from_ps(100), wake(3));
        q.insert_reserved(seq, wake(2));
        assert_eq!(drain(&mut q), [(100, 1), (100, 2), (100, 3)]);
        assert_eq!(q.stats().delta_pushes, 4);
    }

    #[test]
    fn same_instant_burst_pops_fifo() {
        let mut q = EventQueue::default();
        for i in 0..100 {
            q.push(Time::from_ns(7), wake(i));
        }
        let want: Vec<(u64, u32)> = (0..100).map(|i| (7_000, i)).collect();
        assert_eq!(drain(&mut q), want);
    }
}
