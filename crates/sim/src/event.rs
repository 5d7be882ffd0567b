//! The event queue: a hierarchical timing wheel fronted by a same-instant
//! delta ring.
//!
//! The kernel's hot path is the zero-delay cascade: a net toggles, its
//! watchers are woken *at the same instant*, their drives resolve more nets
//! at the same instant, and so on. A binary heap pays `O(log n)` per push
//! and pop for every one of those events; the structure below makes them
//! `O(1)` by keeping all events at the current instant in a FIFO ring
//! (`ready`), while future events go into a timing wheel:
//!
//! * a **near wheel** of 4096 slots at exact 1 ps resolution (one slot =
//!   one timestamp), with a two-level occupancy bitmap so the next
//!   occupied slot is found in two `trailing_zeros` instructions — gate
//!   delays (a few hundred ps) land here directly. A slot is a singly
//!   linked list (`head`/`tail` indices) through one pooled node arena
//!   with a free list, so the wheel's memory follows the number of queued
//!   events rather than the number of slots ever used;
//! * two coarser levels of 64 slots each (4096 ps and 2¹⁸ ps granules)
//!   covering 2²⁴ ps ≈ 16.7 µs ahead of the cursor — clock periods land
//!   here and are re-placed into the near wheel once per occupied granule;
//! * a sorted **overflow** map for anything beyond the wheel span.
//!
//! ## Ordering invariant
//!
//! Pops come out in exactly `(time, seq)` order — identical to the
//! `BinaryHeap` implementation this replaced, so waveforms, violation logs
//! and RNG draws are bit-for-bit unchanged. The argument:
//!
//! * `seq` is a global monotonic counter, so FIFO insertion order within
//!   any one container *is* seq order.
//! * A near-wheel slot holds one exact timestamp, so a slot drains in seq
//!   order.
//! * Coarse slots hold a whole granule of timestamps in push order; on
//!   refill they are re-placed one by one, which preserves relative order
//!   per destination slot — and any *later* push into those slots carries
//!   a larger seq, so appending keeps every slot sorted by seq.
//! * The wheel cursor (`cur`) only advances inside [`EventQueue::pop`], and
//!   the simulator never schedules into the past (`t ≥ now ≥ cur`), so an
//!   event pushed at the current instant lands in `ready` *behind* every
//!   event already staged there — again seq order.
//! * Every level's slots partition an *aligned block* of the level above
//!   (no wrap-around modulo arithmetic), and classification uses
//!   `t XOR cur`: a level holds exactly the events that share the cursor's
//!   enclosing block at the next-coarser granularity. Hence the lowest
//!   occupied slot of the lowest occupied level is the global minimum.
//! * Overflow keys always lie in a later 2²⁴ ps block than `cur` (pushes
//!   within the cursor's block go to the wheel), and a whole block is
//!   migrated into the wheel the moment the cursor enters it, before any
//!   newer push could land next to the migrated events.
//!
//! Events are 24 bytes (pinned below): time, seq and an 8-byte kind. A
//! component drive needs no cancellation stamp of its own, because its
//! seq is the stamp — it is live iff its driver's `pending_seq` still
//! equals it.
//!
//! These properties are exercised against a reference binary-heap model by
//! the tests at the bottom of this file (a seeded interleaving test that
//! runs everywhere, plus the shrinking-capable `proptest` version in
//! `src/queue_props.rs`).

use std::cmp::Ordering;
use std::collections::BTreeMap;

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
    /// Kept for the reference-model equivalence tests.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Near wheel: 2¹² exact-picosecond slots.
const NEAR_BITS: u32 = 12;
const NEAR_SLOTS: usize = 1 << NEAR_BITS;
const NEAR_MASK: u64 = NEAR_SLOTS as u64 - 1;
/// Coarse levels: 64 slots each.
const COARSE_BITS: u32 = 6;
const COARSE_SLOTS: usize = 1 << COARSE_BITS;
const COARSE_MASK: u64 = COARSE_SLOTS as u64 - 1;
const MID_SHIFT: u32 = NEAR_BITS; // granule 4096 ps
const FAR_SHIFT: u32 = NEAR_BITS + COARSE_BITS; // granule 2¹⁸ ps
/// Total wheel span: 2²⁴ ps ≈ 16.7 µs.
const SPAN_BITS: u32 = NEAR_BITS + 2 * COARSE_BITS;
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
    pub cascades: u64,
    pub overflow_pushes: u64,
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
    mid: [Vec<Event>; COARSE_SLOTS],
    mid_occ: u64,
    far: [Vec<Event>; COARSE_SLOTS],
    far_occ: u64,
    /// Events beyond the wheel span, keyed by exact timestamp (ps). Each
    /// bucket is in push (= seq) order.
    overflow: BTreeMap<u64, Vec<Event>>,
    /// Recycled buffer for coarse-slot refills (avoids an alloc/free pair
    /// per cascade).
    scratch: Vec<Event>,
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
            .field("overflow_keys", &self.overflow.len())
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
            mid: std::array::from_fn(|_| Vec::new()),
            mid_occ: 0,
            far: std::array::from_fn(|_| Vec::new()),
            far_occ: 0,
            overflow: BTreeMap::new(),
            scratch: Vec::new(),
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
        self.place(Event { time, seq, kind });
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

    /// Routes an event into the delta ring, a wheel slot, or overflow,
    /// relative to the current cursor. The delta ring and the near wheel,
    /// where almost every event goes, are handled here; the rest in
    /// [`EventQueue::place_far`].
    #[inline]
    fn place(&mut self, ev: Event) {
        let t = ev.time.as_ps();
        if t <= self.cur {
            // The simulator never schedules into the past; anything at the
            // current instant joins the delta ring in seq order.
            debug_assert!(t == self.cur, "event scheduled before queue cursor");
            self.stats.delta_pushes += 1;
            self.ready.push(ev);
            let depth = self.ready.len() - self.ready_head;
            if depth > self.stats.peak_delta_depth {
                self.stats.peak_delta_depth = depth;
            }
            return;
        }
        if (t ^ self.cur) >= 1 << NEAR_BITS {
            return self.place_far(ev);
        }
        let s = (t & NEAR_MASK) as usize;
        let i = self.alloc(ev);
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

    /// [`EventQueue::place`] for events beyond the near wheel: a coarse
    /// level or the overflow map.
    #[cold]
    #[inline(never)]
    fn place_far(&mut self, ev: Event) {
        let t = ev.time.as_ps();
        let diff = t ^ self.cur;
        if diff < 1 << FAR_SHIFT {
            let s = ((t >> MID_SHIFT) & COARSE_MASK) as usize;
            self.mid[s].push(ev);
            self.mid_occ |= 1u64 << s;
        } else if diff < 1 << SPAN_BITS {
            let s = ((t >> FAR_SHIFT) & COARSE_MASK) as usize;
            self.far[s].push(ev);
            self.far_occ |= 1u64 << s;
        } else {
            self.stats.overflow_pushes += 1;
            self.overflow.entry(t).or_default().push(ev);
        }
    }

    /// Stores `ev` in a free arena node (a new one only if none is free)
    /// and returns the node's index, its list link cleared.
    #[inline]
    fn alloc(&mut self, ev: Event) -> u32 {
        #[cfg(test)]
        {
            self.near_live += 1;
            self.near_peak = self.near_peak.max(self.near_live);
        }
        let node = Node { ev, next: NIL };
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
        // Within a coarse slot, events are in seq (not time) order; scan
        // for the minimum. Amortized: runs at most once per refill.
        if self.mid_occ != 0 {
            let s = self.mid_occ.trailing_zeros() as usize;
            return self.mid[s].iter().map(|e| e.time).min();
        }
        if self.far_occ != 0 {
            let s = self.far_occ.trailing_zeros() as usize;
            return self.far[s].iter().map(|e| e.time).min();
        }
        self.overflow.keys().next().map(|&ps| Time::from_ps(ps))
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
            // Coarse levels: check the slot's earliest event against the
            // horizon *before* moving the cursor into the granule, so an
            // out-of-horizon refill never strands the cursor ahead of a
            // later legal push.
            if self.mid_occ != 0 {
                let s = self.mid_occ.trailing_zeros() as usize;
                let min = self.mid[s].iter().map(|e| e.time).min().expect("occupied");
                if min > horizon {
                    return None;
                }
                self.mid_occ &= !(1u64 << s);
                let granule_mask = (1u64 << FAR_SHIFT) - 1;
                self.cur = (self.cur & !granule_mask) + ((s as u64) << MID_SHIFT);
                self.refill(s, true);
                continue;
            }
            if self.far_occ != 0 {
                let s = self.far_occ.trailing_zeros() as usize;
                let min = self.far[s].iter().map(|e| e.time).min().expect("occupied");
                if min > horizon {
                    return None;
                }
                self.far_occ &= !(1u64 << s);
                let granule_mask = (1u64 << SPAN_BITS) - 1;
                self.cur = (self.cur & !granule_mask) + ((s as u64) << FAR_SHIFT);
                self.refill(s, false);
                continue;
            }
            // Wheel empty: enter the overflow's first block and migrate
            // every key of that block into the wheel at once, so later
            // same-block pushes (which now resolve against the new cursor)
            // append *behind* these older events.
            let first = *self
                .overflow
                .keys()
                .next()
                .expect("len > 0 but no event found");
            if Time::from_ps(first) > horizon {
                return None;
            }
            debug_assert!(first >> SPAN_BITS > self.cur >> SPAN_BITS);
            self.cur = first;
            let block = first >> SPAN_BITS;
            while let Some((&k, _)) = self.overflow.iter().next() {
                if k >> SPAN_BITS != block {
                    break;
                }
                let bucket = self.overflow.remove(&k).expect("key just observed");
                for ev in bucket {
                    self.place(ev);
                }
            }
            // `ready` now holds the events at `first`.
            debug_assert!(self.ready.len() > self.ready_head);
        }
    }

    /// Re-places one coarse slot's events after the cursor moved to the
    /// granule start, recycling `scratch` so no allocation happens per
    /// cascade (the drained slot inherits the previous scratch buffer's
    /// capacity and vice versa).
    fn refill(&mut self, slot: usize, from_mid: bool) {
        self.stats.cascades += 1;
        let mut scratch = std::mem::take(&mut self.scratch);
        let src = if from_mid {
            &mut self.mid[slot]
        } else {
            &mut self.far[slot]
        };
        std::mem::swap(&mut scratch, src);
        for ev in scratch.drain(..) {
            debug_assert!(ev.time.as_ps() >= self.cur);
            self.place(ev);
        }
        self.scratch = scratch;
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

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::default();
        q.push(
            Time::from_ns(5),
            EventKind::Wake {
                comp: ComponentId(0),
            },
        );
        q.push(
            Time::from_ns(1),
            EventKind::Wake {
                comp: ComponentId(1),
            },
        );
        q.push(
            Time::from_ns(1),
            EventKind::Wake {
                comp: ComponentId(2),
            },
        );
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        let c = q.pop().unwrap();
        assert_eq!(a.time, Time::from_ns(1));
        assert!(matches!(
            a.kind,
            EventKind::Wake {
                comp: ComponentId(1)
            }
        ));
        assert_eq!(b.time, Time::from_ns(1));
        assert!(matches!(
            b.kind,
            EventKind::Wake {
                comp: ComponentId(2)
            }
        ));
        assert_eq!(c.time, Time::from_ns(5));
        assert!(q.pop().is_none());
    }

    #[test]
    fn len_tracks_contents() {
        let mut q = EventQueue::default();
        assert_eq!(q.len(), 0);
        q.push(
            Time::ZERO,
            EventKind::Wake {
                comp: ComponentId(0),
            },
        );
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
        q.push(
            Time::from_ps(100),
            EventKind::Wake {
                comp: ComponentId(0),
            },
        );
        q.push(
            Time::from_ps(100),
            EventKind::Wake {
                comp: ComponentId(1),
            },
        );
        let first = q.pop().unwrap();
        assert!(matches!(
            first.kind,
            EventKind::Wake {
                comp: ComponentId(0)
            }
        ));
        q.push(
            Time::from_ps(100),
            EventKind::Wake {
                comp: ComponentId(2),
            },
        );
        let second = q.pop().unwrap();
        assert!(matches!(
            second.kind,
            EventKind::Wake {
                comp: ComponentId(1)
            }
        ));
        let third = q.pop().unwrap();
        assert!(matches!(
            third.kind,
            EventKind::Wake {
                comp: ComponentId(2)
            }
        ));
    }

    #[test]
    fn far_future_overflow_orders_with_wheel() {
        let mut q = EventQueue::default();
        // Far beyond the 16.7 µs wheel span.
        q.push(
            Time::from_us(100),
            EventKind::Wake {
                comp: ComponentId(0),
            },
        );
        q.push(
            Time::from_ns(1),
            EventKind::Wake {
                comp: ComponentId(1),
            },
        );
        q.push(
            Time::from_us(100),
            EventKind::Wake {
                comp: ComponentId(2),
            },
        );
        q.push(
            Time::from_us(99),
            EventKind::Wake {
                comp: ComponentId(3),
            },
        );
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Wake { comp } => comp.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 3, 0, 2]);
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
                // same-instant, near wheel, both coarse levels, overflow.
                let delta = match r % 7 {
                    0 => 0,
                    1 => rand() % 64,
                    2 => rand() % 4_096,
                    3 => rand() % 262_144,
                    4 => rand() % (1 << 24),
                    _ => rand() % (1 << 30),
                };
                let t = Time::from_ps(now + delta);
                let kind = EventKind::Wake {
                    comp: ComponentId(next_id),
                };
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
    fn a_reserved_seq_is_inserted_at_its_delta_ring_place() {
        let wake = |i| EventKind::Wake {
            comp: ComponentId(i),
        };
        let mut q = EventQueue::default();
        let first = q.push(Time::from_ps(100), wake(0));
        q.push(Time::from_ps(100), wake(1));
        assert_eq!(q.pop().unwrap().seq, first);
        let seq = q.reserve_seq();
        q.push(Time::from_ps(100), wake(3));
        q.insert_reserved(seq, wake(2));
        let rest: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Wake { comp } => (e.time.as_ps(), comp.0 as u64),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(rest, [(100, 1), (100, 2), (100, 3)]);
        assert_eq!(q.stats().delta_pushes, 4);
    }

    #[test]
    fn same_instant_burst_pops_fifo() {
        let mut q = EventQueue::default();
        for i in 0..100u32 {
            q.push(
                Time::from_ns(7),
                EventKind::Wake {
                    comp: ComponentId(i),
                },
            );
        }
        for i in 0..100u32 {
            let e = q.pop().unwrap();
            match e.kind {
                EventKind::Wake { comp } => assert_eq!(comp.0, i),
                _ => unreachable!(),
            }
        }
    }
}
