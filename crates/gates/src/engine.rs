//! The compiled-region execution engine.
//!
//! [`CompiledEngine`] is a single [`Component`] that replaces the per-cell
//! components of an acyclic synchronous region (selected and levelized by
//! [`crate::compile`]). It keeps a flat value vector over the region's
//! nets, re-evaluates dirty cells in rank order whenever a *boundary* net
//! (one the region reads but does not produce) changes, and lands its own
//! scheduled output transitions from a private agenda instead of the
//! simulator's event queue.
//!
//! The engine is a second scheduler, not a second cell model. A compiled
//! gate applies the [`GateFunc`] its event-driven gate would, and a
//! compiled flop steps the same clocking core as its event-driven
//! component (`BitFlopCore` for DFFs and ETDFFs, `WordFlopCore` for word
//! registers): the power-on drive, the enable match, `Z`→`X` capture and
//! the setup/hold checks with their messages have one definition. The
//! engine only decides when cells evaluate (a flop's clock edge comes from
//! its slot's previous value, where the event kernel's `Dff` asks
//! `Ctx::rose`) and when their outputs land, and a wake costs work
//! proportional to what changed, not to the region's size:
//!
//! * **Boundary scan.** Only a boundary net whose `last_change` is the
//!   current instant is read. Every resolved change of a watched net
//!   queues a wake at that instant (or coalesces into one already
//!   queued), and that wake reads the net, so a net that did not change
//!   this instant still equals its slot. Debug builds assert this.
//! * **Worklists.** Marking a node dirty also appends it to its table's
//!   worklist; a sweep sorts the list and evaluates only those nodes.
//!   Evaluation never marks a node dirty, so ascending index order is
//!   exactly the rank (comb) or elaboration (flop) order.
//! * **Agenda.** Landings are bucketed by instant and a bucket commits in
//!   ascending node order — the order of a `(time, node)` priority queue.
//!   Entries are lazily deleted: re-evaluating a gate only adds an entry
//!   when its landing time moves, since one for the old time is queued.
//!
//! The schedule is *observationally identical* to the event kernel's:
//!
//! * every output transition lands at the exact instant the event-driven
//!   cell would have scheduled it (delays are read from the shared
//!   [`DelayTable`] at evaluation time, so timing annotation still works);
//! * re-evaluating a cell always overwrites its pending transition, which
//!   reproduces the kernel's inertial drive-cancellation semantics;
//! * internal nets are read from the engine's own slots and boundary nets
//!   through watched [`Ctx::get`] calls, so the delta-race sanitizer sees
//!   no reads it would not have seen from the original components (reads
//!   of watched nets never reach it, so skipping them hides nothing).

use mtf_sim::{Component, Ctx, DriverId, Logic, MetaModel, NetId, Time};

use crate::comb::GateFunc;
use crate::netlist::DelayTable;
use crate::seq::{BitFlopCore, Drive};
use crate::word::WordFlopCore;

/// A compiled combinational gate: rank-ordered straight-line evaluation
/// over value slots.
pub(crate) struct CombNode {
    pub(crate) func: GateFunc,
    /// Input slots, in pin order (max 8, matching [`crate::CombGate`]).
    pub(crate) inputs: Vec<u32>,
    pub(crate) out_slot: u32,
    pub(crate) driver: DriverId,
    /// Index into the shared delay table.
    pub(crate) inst: usize,
    pub(crate) pending: Option<(Time, Logic)>,
}

/// The shared clocking rules a compiled flop runs.
pub(crate) enum FlopCore {
    Bit(BitFlopCore),
    Word(WordFlopCore),
}

/// A compiled edge-triggered cell: a DFF or ETDFF with an ideal
/// metastability window (cells that consult the RNG are never compiled)
/// or a word register, plus the slots its pins map to.
pub(crate) struct Flop {
    pub(crate) core: FlopCore,
    pub(crate) clk: u32,
    /// The clock slot's value at this flop's previous evaluation (`X`
    /// before the first).
    pub(crate) prev_clk: Logic,
    /// The latest clock rise this flop evaluated (`Time::MAX` before the
    /// first): the hold check's reference.
    pub(crate) last_rise: Time,
    pub(crate) en: Option<u32>,
    /// Data input slots, LSB first.
    pub(crate) d: Vec<u32>,
    /// Output pins: (driver, slot), LSB first.
    pub(crate) q: Vec<(DriverId, u32)>,
    pub(crate) inst: usize,
    /// Landing time of the scheduled output. The value is the core's
    /// state: the state changes only in a step that schedules it.
    pub(crate) pending: Option<Time>,
}

impl Flop {
    fn q_value(&self, k: usize) -> Logic {
        match &self.core {
            FlopCore::Bit(c) => c.state,
            FlopCore::Word(c) => c.state.bit(k),
        }
    }
}

/// Records `clk` in `prev` and reports whether it rose (`L`→`H`) since
/// the previous evaluation. A compiled flop is evaluated on every change
/// of its clock slot, so the slot values it saw are its clock's history.
fn clock_rose(prev: &mut Logic, clk: Logic) -> bool {
    let rose = *prev == Logic::L && clk == Logic::H;
    *prev = clk;
    rose
}

/// Dirty flags over one node table, plus the list of flags that are set,
/// so a sweep visits only the marked nodes instead of every flag.
struct Worklist {
    flag: Vec<bool>,
    list: Vec<u32>,
}

impl Worklist {
    fn new(len: usize) -> Self {
        Worklist {
            flag: vec![false; len],
            list: Vec::new(),
        }
    }

    fn mark(&mut self, i: usize) {
        if !self.flag[i] {
            self.flag[i] = true;
            self.list.push(i as u32);
        }
    }

    /// Takes the marked indices in ascending order and clears their
    /// flags. Callers hand the buffer back with [`Worklist::restore`] so
    /// its allocation is reused.
    fn take_sorted(&mut self) -> Vec<u32> {
        let mut list = std::mem::take(&mut self.list);
        list.sort_unstable();
        for &i in &list {
            self.flag[i as usize] = false;
        }
        list
    }

    fn restore(&mut self, mut list: Vec<u32>) {
        debug_assert!(self.list.is_empty(), "a sweep marked a node dirty");
        list.clear();
        self.list = list;
    }
}

/// The dirty sets of both node tables, addressed by node ref.
struct Dirty {
    ncomb: usize,
    comb: Worklist,
    flops: Worklist,
}

impl Dirty {
    fn mark_fanout(&mut self, refs: &[u32]) {
        for &r in refs {
            let r = r as usize;
            if r < self.ncomb {
                self.comb.mark(r);
            } else {
                self.flops.mark(r - self.ncomb);
            }
        }
    }
}

/// Pending output landings bucketed by instant. Entries are node refs,
/// lazily deleted: a bucket may hold stale or repeated refs, which
/// `commit` skips. A region's gates have a handful of distinct delays,
/// so few buckets are live and a sorted `Vec` beats a heap of entries.
#[derive(Default)]
struct Agenda {
    /// Sorted by time, latest first, so the earliest bucket pops off the
    /// end.
    buckets: Vec<(Time, Vec<u32>)>,
    /// Emptied bucket buffers, reused to avoid an allocation per bucket.
    spare: Vec<Vec<u32>>,
}

impl Agenda {
    fn push(&mut self, t: Time, node: u32) {
        match self.buckets.binary_search_by(|&(bt, _)| t.cmp(&bt)) {
            Ok(i) => self.buckets[i].1.push(node),
            Err(i) => {
                let mut v = self.spare.pop().unwrap_or_default();
                v.push(node);
                self.buckets.insert(i, (t, v));
            }
        }
    }

    fn next_time(&self) -> Option<Time> {
        self.buckets.last().map(|&(t, _)| t)
    }

    /// The earliest bucket if it is due by `now`, its refs ascending.
    fn pop_due(&mut self, now: Time) -> Option<(Time, Vec<u32>)> {
        if self.next_time()? > now {
            return None;
        }
        let (t, mut nodes) = self.buckets.pop()?;
        nodes.sort_unstable();
        Some((t, nodes))
    }

    fn recycle(&mut self, mut nodes: Vec<u32>) {
        nodes.clear();
        self.spare.push(nodes);
    }
}

/// One component standing in for a whole compiled region.
pub struct CompiledEngine {
    name: String,
    /// slot index -> net (slots cover every net the region touches).
    slots: Vec<NetId>,
    /// Cached resolved value per slot.
    values: Vec<Logic>,
    /// Slots of nets the region reads but does not drive. These are
    /// exactly the nets the engine watches; a wake reads only those whose
    /// `last_change` is the current instant.
    boundary: Vec<u32>,
    /// slot -> dependent node refs (`r < comb.len()` is a comb index,
    /// otherwise `r - comb.len()` is a flop index).
    fanout: Vec<Vec<u32>>,
    /// Combinational nodes in topological (rank) order.
    comb: Vec<CombNode>,
    /// Sequential nodes in elaboration order.
    flops: Vec<Flop>,
    /// Nodes awaiting evaluation in the current pass.
    dirty: Dirty,
    delays: DelayTable,
    /// Pending output landings.
    agenda: Agenda,
    /// Future instants a wake has been requested for, each still queued.
    /// The kernel drops a repeat of only its latest timed request, so an
    /// agenda head that moves earlier and back would otherwise queue a
    /// second wake at an instant already covered.
    requested: Vec<Time>,
    established: bool,
}

impl std::fmt::Debug for CompiledEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledEngine")
            .field("name", &self.name)
            .field("combs", &self.comb.len())
            .field("flops", &self.flops.len())
            .field("boundary", &self.boundary.len())
            .finish()
    }
}

impl CompiledEngine {
    /// Assembles an engine from the tables built by [`crate::compile`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        name: String,
        slots: Vec<NetId>,
        values: Vec<Logic>,
        boundary: Vec<u32>,
        fanout: Vec<Vec<u32>>,
        comb: Vec<CombNode>,
        flops: Vec<Flop>,
        delays: DelayTable,
    ) -> Self {
        let dirty = Dirty {
            ncomb: comb.len(),
            comb: Worklist::new(comb.len()),
            flops: Worklist::new(flops.len()),
        };
        CompiledEngine {
            name,
            slots,
            values,
            boundary,
            fanout,
            comb,
            flops,
            dirty,
            delays,
            agenda: Agenda::default(),
            requested: Vec::new(),
            established: false,
        }
    }

    /// Nets the engine must be registered as watching.
    pub(crate) fn boundary_nets(&self) -> Vec<NetId> {
        self.boundary
            .iter()
            .map(|&s| self.slots[s as usize])
            .collect()
    }

    /// Lands a due pending transition. Equal-value commits are skipped at
    /// the driver (exactly like a drive event landing on an unchanged
    /// contribution), so toggles and waveform records match event mode.
    fn commit(&mut self, node: u32, t: Time, ctx: &mut Ctx<'_>) {
        let ncomb = self.comb.len() as u32;
        if node < ncomb {
            let c = &mut self.comb[node as usize];
            let Some((at, v)) = c.pending else {
                return;
            };
            if at != t {
                return; // superseded entry; the live one is queued too
            }
            c.pending = None;
            let (driver, slot) = (c.driver, c.out_slot);
            self.land(driver, slot, v, ctx);
            return;
        }
        let j = (node - ncomb) as usize;
        if self.flops[j].pending != Some(t) {
            return;
        }
        self.flops[j].pending = None;
        for k in 0..self.flops[j].q.len() {
            let (driver, slot) = self.flops[j].q[k];
            let v = self.flops[j].q_value(k);
            self.land(driver, slot, v, ctx);
        }
    }

    /// Commits `v` on `driver` and, if the slot's value changes, marks its
    /// fanout dirty.
    fn land(&mut self, driver: DriverId, slot: u32, v: Logic, ctx: &mut Ctx<'_>) {
        ctx.commit_drive(driver, v);
        if self.values[slot as usize] != v {
            self.values[slot as usize] = v;
            self.dirty.mark_fanout(&self.fanout[slot as usize]);
        }
    }

    fn eval_comb(&mut self, i: usize, now: Time) {
        let (v, at) = {
            let node = &self.comb[i];
            let mut buf = [Logic::Z; 8];
            for (k, &s) in node.inputs.iter().enumerate() {
                buf[k] = self.values[s as usize];
            }
            let v = node.func.apply(&buf[..node.inputs.len()]);
            (v, now + self.delays.borrow()[node.inst])
        };
        // Always replace the pending transition, even on an equal value:
        // the event-driven gate re-drives on every evaluation and the new
        // drive cancels the old one (inertial behaviour). An agenda entry
        // for the previous landing time is still queued, so a new one is
        // needed only when the landing time moves.
        let prev = self.comb[i].pending.replace((at, v));
        if prev.map(|(t, _)| t) != Some(at) {
            self.agenda.push(at, i as u32);
        }
    }

    /// Steps flop `j`'s core on its slot values and schedules what it
    /// asks to drive.
    fn eval_flop(&mut self, j: usize, now: Time, ctx: &mut Ctx<'_>) {
        let f = &mut self.flops[j];
        let values = &self.values;
        let read = |s: u32| values[s as usize];
        let rising = clock_rose(&mut f.prev_clk, read(f.clk));
        if rising {
            f.last_rise = now;
        }
        let en = |_: &Ctx<'_>, _| f.en.map_or(Logic::H, read);
        let cq = self.delays.borrow()[f.inst];
        let delay = match &mut f.core {
            FlopCore::Bit(core) => {
                let d = |_: &Ctx<'_>, _| read(f.d[0]);
                match core.step(ctx, rising, f.last_rise, &MetaModel::ideal(), en, d) {
                    None => return,
                    Some(Drive::Init) => Time::ZERO,
                    Some(_) => cq,
                }
            }
            FlopCore::Word(core) => {
                if !core.step(ctx, rising, en, |_, i, _| read(f.d[i])) {
                    return;
                }
                cq
            }
        };
        f.pending = Some(now + delay);
        self.agenda.push(now + delay, (self.comb.len() + j) as u32);
    }
}

impl Component for CompiledEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let mut gate_evals: u64 = 0;

        // First wake: every node evaluates once, exactly as every per-cell
        // component receives an initial wake on registration.
        if !self.established {
            self.established = true;
            (0..self.comb.len()).for_each(|i| self.dirty.comb.mark(i));
            (0..self.flops.len()).for_each(|j| self.dirty.flops.mark(j));
        }

        // Boundary scan: pick up external net changes. Boundary nets are
        // never driven by compiled nodes, so one scan per wake suffices.
        // Only a net whose `last_change` is *now* can differ from its
        // slot: slots start as the net values at install, and every later
        // resolved change of a watched net queues a wake at that instant
        // (or coalesces into one already queued), and that wake read it.
        //
        // Such a net is re-evaluated even when its value equals the slot:
        // a multi-driver net (e.g. a tri-state bus) can transiently
        // resolve away and back within one instant, and the event kernel
        // wakes watchers on each of those changes. The re-evaluation
        // inertially reschedules the watcher's pending output, which is
        // observable as a later landing. Reads of watched nets are
        // invisible to the race sanitizer, so skipping the others hides
        // nothing from it.
        for &s in &self.boundary {
            let net = self.slots[s as usize];
            if ctx.last_change(net) == now {
                self.values[s as usize] = ctx.get(net);
                self.dirty.mark_fanout(&self.fanout[s as usize]);
            } else {
                debug_assert_eq!(
                    ctx.get(net),
                    self.values[s as usize],
                    "boundary net {net:?} changed without a wake"
                );
            }
        }

        loop {
            // Land transitions due at this instant (lazy agenda deletion:
            // entries whose pending was superseded are skipped).
            while let Some((t, nodes)) = self.agenda.pop_due(now) {
                for &node in &nodes {
                    self.commit(node, t, ctx);
                }
                self.agenda.recycle(nodes);
            }
            // Evaluation never marks a node dirty, so each worklist, taken
            // in ascending index order, is exactly the rank (comb) or
            // elaboration (flop) order a full sweep would visit.
            let combs = self.dirty.comb.take_sorted();
            gate_evals += combs.len() as u64;
            for &i in &combs {
                self.eval_comb(i as usize, now);
            }
            self.dirty.comb.restore(combs);
            let flops = self.dirty.flops.take_sorted();
            gate_evals += flops.len() as u64;
            for &j in &flops {
                self.eval_flop(j as usize, now, ctx);
            }
            self.dirty.flops.restore(flops);
            let due_now = self.agenda.next_time().is_some_and(|t| t <= now);
            if !due_now {
                break;
            }
        }

        ctx.note_compiled_pass(gate_evals);
        if let Some(t) = self.agenda.next_time() {
            self.requested.retain(|&r| r > now);
            if !self.requested.contains(&t) {
                self.requested.push(t);
                ctx.wake_in(t - now);
            }
        }
    }
}
