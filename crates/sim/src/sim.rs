//! The simulator: nets, drivers, components, the event loop.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use crate::component::{Component, ComponentId, Ctx};
use crate::error::SimError;
use crate::event::{EventKind, EventQueue};
use crate::logic::{Logic, LogicVec};
use crate::net::{Driver, DriverId, Net, NetId, NetLabel, Watch, Watcher};
use crate::probe::Waveform;
use crate::race::{RaceHazard, RaceHazardKind, RaceState};
use crate::time::Time;

/// What kind of timing rule was broken.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ViolationKind {
    /// Data input changed too close *before* a sampling clock edge.
    Setup,
    /// Data input changed too close *after* a sampling clock edge.
    Hold,
    /// Two drivers fought over a net with conflicting definite values.
    DriveConflict,
    /// A flip-flop went metastable (its data input moved inside the
    /// metastability window around the sampling edge).
    Metastability,
    /// A protocol checker observed an illegal interface sequence.
    Protocol,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::Setup => "setup",
            ViolationKind::Hold => "hold",
            ViolationKind::DriveConflict => "drive-conflict",
            ViolationKind::Metastability => "metastability",
            ViolationKind::Protocol => "protocol",
        };
        f.write_str(s)
    }
}

/// A recorded timing/protocol violation.
///
/// Violations never abort the run; they accumulate on the simulator so
/// experiments can assert on them. The fmax measurement in `mtf-bench`
/// works by shrinking the clock period until the first [`Setup`]
/// (or data-corruption) report appears.
///
/// [`Setup`]: ViolationKind::Setup
#[derive(Clone, Debug)]
pub struct Violation {
    /// What rule was broken.
    pub kind: ViolationKind,
    /// When.
    pub time: Time,
    /// Reporting component instance name.
    pub source: String,
    /// Free-form details.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} at {}: {}",
            self.kind, self.source, self.time, self.message
        )
    }
}

/// Kernel counters, taken with [`Simulator::stats`]. Cheap to copy.
///
/// All values are cumulative since the simulator was constructed, and
/// they depend only on the *sequence* of pushes and pops — splitting one
/// `run_until(h)` into `run_until(t); run_until(h)` leaves every counter
/// unchanged. The sharded execution mode
/// ([`run_sharded`](crate::shard::run_sharded)) relies on exactly this:
/// its lockstep rounds slice a shard's run into many `run_until` windows,
/// and a shard with no cross-shard links reports counters identical to
/// the plain single-call path (pinned by `tests/sharded_determinism.rs`).
/// Per-shard totals plus the protocol's own counters (events exchanged,
/// null messages, blocked time) live in
/// [`ShardStats`](crate::shard::ShardStats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events popped and dispatched by [`Simulator::run_until`] — both
    /// net-drive events and component wakes, across all calls.
    pub events_processed: u64,
    /// Highest number of events pending in the event queue at once: the
    /// same-instant delta ring, the near wheel and the later heap
    /// together. The ring's own high-water mark is `peak_delta_depth`.
    pub peak_queue_depth: usize,
    /// Wake requests absorbed into an already-queued, not-yet-delivered
    /// wake for the same component at the same instant (each one is a
    /// queue entry saved, not a lost evaluation).
    pub coalesced_wakes: u64,
    /// Events that entered the same-instant delta ring (as opposed to a
    /// future wheel slot).
    pub delta_pushes: u64,
    /// Highest delta-ring occupancy observed — the widest zero-delay
    /// cascade of the run.
    pub peak_delta_depth: usize,
    /// Near-wheel refills: each moves the later heap's earliest 4096 ps
    /// block into the near wheel once the wheel and the delta ring are
    /// empty.
    pub wheel_cascades: u64,
    /// Events pushed into the later heap: those due after the end of
    /// the near wheel's current 4096 ps block.
    pub overflow_events: u64,
    /// Evaluation passes executed by compiled-region engines (one per
    /// instant at which a compiled region had work). Zero under the pure
    /// event backend.
    pub compiled_edge_evals: u64,
    /// Individual gate/flop evaluations performed inline by compiled
    /// regions — work that the event backend would have paid a queue
    /// entry and a dynamic dispatch for. Zero under the event backend.
    pub compiled_gate_evals: u64,
    /// Component drives ([`Ctx::drive`](crate::Ctx::drive) /
    /// [`Ctx::drive_now`](crate::Ctx::drive_now)) that requested the
    /// driver's current contribution and so were never queued: each one is
    /// an event that would have been pushed, popped and discarded.
    pub elided_drives: u64,
    /// Rising-only watchers skipped because their net changed without an
    /// `L`→`H` transition (see [`Simulator::add_clocked_component`]):
    /// each one is a wake that a both-edge watch would have queued.
    pub filtered_wakes: u64,
    /// Rising-only wakes skipped because the watcher slept (see
    /// [`Ctx::sleep_from`](crate::Ctx::sleep_from)): each one is an edge
    /// evaluation that provably would have done nothing.
    pub slept_wakes: u64,
    /// Ordinary wakes skipped because the watcher waited for a change of
    /// another net (see
    /// [`Ctx::sleep_until_change`](crate::Ctx::sleep_until_change)): each
    /// one is an evaluation whose output one input pinned. A skipped wake
    /// that would have coalesced into an earlier skipped one is counted
    /// here too, not in `coalesced_wakes`.
    pub held_wakes: u64,
    /// Changes of sampled pins outside their component's listen window
    /// (see [`Simulator::add_sampling_component`]): each one is a wake
    /// that an every-change watch would have queued, of an evaluation
    /// that provably would have done nothing. Counted like `held_wakes`.
    pub sampled_wakes: u64,
}

/// Evaluations of one component kind ([`Component::kind`]), counted once
/// [`Simulator::enable_kind_counts`] is called.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KindCount {
    /// The kind's name.
    pub kind: String,
    /// Evaluations of components of this kind.
    pub evals: u64,
    /// Those evaluations that queued nothing: no event pushed and no
    /// sequence number reserved. Each is a wake that, unless it reported
    /// a violation, drew from the RNG or landed a compiled drive, changed
    /// nothing.
    pub idle: u64,
    /// Evaluations in which [`Ctx::rose`] answered true: edge
    /// evaluations of clocked cells. `evals - edges` are the others.
    pub edges: u64,
    /// Edge evaluations that queued nothing.
    pub idle_edges: u64,
}

/// The per-kind evaluation counters behind [`Simulator::kind_counts`].
#[derive(Debug, Default)]
struct KindCounter {
    /// Each component's row in `rows`, once it has evaluated (`u32::MAX`
    /// before).
    row_of: Vec<u32>,
    /// Counts per kind, in order of first evaluation.
    rows: Vec<(&'static str, [u64; 4])>,
    /// Whether [`Ctx::rose`] answered true in the current evaluation.
    rose: Cell<bool>,
}

impl KindCounter {
    /// Counts one evaluation of `comp`, and clears `rose` for the next.
    fn count(&mut self, comp: ComponentId, c: &dyn Component, idle: bool) {
        let i = comp.0 as usize;
        if self.row_of.len() <= i {
            self.row_of.resize(i + 1, u32::MAX);
        }
        if self.row_of[i] == u32::MAX {
            let kind = c.kind();
            let row = match self.rows.iter().position(|r| r.0 == kind) {
                Some(row) => row,
                None => {
                    self.rows.push((kind, [0; 4]));
                    self.rows.len() - 1
                }
            };
            self.row_of[i] = row as u32;
        }
        let edge = self.rose.take();
        let n = &mut self.rows[self.row_of[i] as usize].1;
        n[0] += 1;
        n[1] += u64::from(idle);
        n[2] += u64::from(edge);
        n[3] += u64::from(edge && idle);
    }
}

/// Which execution strategy elaboration should install for purely
/// synchronous regions.
///
/// The seam is deliberately *above* the kernel: a compiled region is an
/// ordinary [`Component`] (one per design) that evaluates its levelized
/// gates inline and lands their outputs through
/// [`Ctx::commit_drive`](crate::Ctx::commit_drive), so both backends share
/// one net state, one queue, one RNG and one violation log — they can
/// coexist in a single run and must produce byte-identical observables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Every gate is its own component on the event wheel (the reference).
    #[default]
    Event,
    /// Acyclic synchronous regions run as rank-ordered straight-line code;
    /// the event wheel drives only async controllers, synchronizers,
    /// metastability models and mixed-timing boundary cells.
    Compiled,
}

impl Backend {
    /// The flag spelling, as accepted by [`FromStr`](std::str::FromStr).
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Event => "event",
            Backend::Compiled => "compiled",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Backend {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "event" => Ok(Backend::Event),
            "compiled" => Ok(Backend::Compiled),
            other => Err(format!(
                "unknown backend '{other}' (expected 'event' or 'compiled')"
            )),
        }
    }
}

/// The three ways a driver's contribution can be scheduled; a driver uses
/// exactly one (see [`Simulator::drive_at`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DriveMode {
    /// [`Simulator::drive_at`]: transport-delay stimulus.
    External,
    /// [`Ctx::drive`] / [`Ctx::drive_now`]: inertial component drives.
    Inertial,
    /// [`Ctx::commit_drive`]: compiled-engine landings.
    Committed,
}

impl DriveMode {
    #[cfg(debug_assertions)]
    fn call(self) -> &'static str {
        match self {
            DriveMode::External => "Simulator::drive_at",
            DriveMode::Inertial => "Ctx::drive",
            DriveMode::Committed => "Ctx::commit_drive",
        }
    }
}

/// Per-component scheduling state, kept together because the watcher
/// walk of [`Simulator::recompute_net`] reads them together.
#[derive(Clone, Copy, Debug)]
struct WakeState {
    /// The sequence number of the latest wake requested at its own
    /// instant: queued, or skipped (its number reserved); 0, a number
    /// the queue never takes, before the first. While it is still ahead
    /// ([`WakeState::ahead`]), a wake request is dropped — that wake
    /// already covers it.
    wake_seq: u64,
    /// The instant of the latest queued, not-yet-delivered wake requested
    /// for a later instant ([`Simulator::schedule_wake`]; `Time::MAX` when
    /// none); a wake request at that instant is dropped too. Kept apart
    /// from `wake_seq`, so a wake at an earlier instant does not hide it.
    timed: Time,
    /// The net whose change ends a hold ([`Ctx::sleep_until_change`];
    /// `NOT_HELD` when none): until then, ordinary wakes from other nets
    /// are skipped. Cleared by every wake dispatch, by
    /// [`Simulator::schedule_wake`] and by
    /// [`Simulator::detach_component`].
    awaited: u32,
    /// Whether the wake at `wake_seq` was skipped rather than queued. A
    /// request that would coalesce into it while it is still ahead
    /// queues it at its reserved number ([`WakeState::claim`]).
    reserved: bool,
    /// Rising-only wakes at or after this instant are skipped
    /// (`Time::MAX`: awake). Set by [`Ctx::sleep_from`]; cleared by every
    /// ordinary wake and by [`Simulator::schedule_wake`].
    sleep_from: Time,
    /// The latest rise skipped while asleep (`Time::MAX`: none);
    /// [`Ctx::rose`] counts it as consumed.
    slept_rise: Time,
    /// Debug builds: the sequence number the skipped rise's wake would
    /// have taken.
    #[cfg(debug_assertions)]
    slept_seq: u64,
}

impl WakeState {
    const NOT_HELD: u32 = u32::MAX;

    const IDLE: WakeState = WakeState {
        wake_seq: 0,
        timed: Time::MAX,
        awaited: Self::NOT_HELD,
        reserved: false,
        sleep_from: Time::MAX,
        slept_rise: Time::MAX,
        #[cfg(debug_assertions)]
        slept_seq: u64::MAX,
    };

    /// Whether the latest same-instant wake is still ahead: requested in
    /// this instant and not yet dispatched (`due` is the simulator's).
    fn ahead(&self, due: u64) -> bool {
        self.wake_seq > due
    }

    /// Whether a wake requested at `now` is covered by one still ahead.
    fn covers(&self, due: u64, now: Time) -> bool {
        self.ahead(due) || self.timed == now
    }

    /// Skips a wake at `now`, taking the number it would have had unless
    /// it would have coalesced into a wake still ahead.
    fn skip(&mut self, due: u64, now: Time, queue: &mut EventQueue) {
        if !self.covers(due, now) {
            self.wake_seq = queue.reserve_seq();
            self.reserved = true;
        }
    }

    /// Queues a skipped wake that is still ahead at its reserved number,
    /// where the component that took every wake has it.
    fn claim(&mut self, due: u64, queue: &mut EventQueue, comp: ComponentId) {
        if self.reserved && self.ahead(due) {
            queue.insert_reserved(self.wake_seq, EventKind::Wake { comp });
        }
        self.reserved = false;
    }

    /// Ends the hold, queueing the wake it skipped last if still ahead.
    fn release(&mut self, due: u64, queue: &mut EventQueue, comp: ComponentId) {
        self.claim(due, queue, comp);
        self.awaited = Self::NOT_HELD;
    }
}

/// A component's listen rule for its sampled pins
/// ([`Simulator::add_sampling_component`]). Kept apart from
/// [`WakeState`]: only a sampled pin's change reads it. Spans are in ps;
/// one of 2³² − 1 ps (4.3 ms) or more counts as unbounded, which only
/// wakes the component more often or ends its sleep sooner.
#[derive(Clone, Copy, Debug)]
struct Listen {
    /// The clock whose latest rise, delivered or slept through, starts
    /// the window.
    clk: NetId,
    /// How long after that rise a change wakes the component
    /// ([`Listen::UNBOUNDED`]: always); set by [`Ctx::listen_for`].
    span: u32,
    /// How far past its instant a data pin's change outside the window
    /// moves the sleep start ([`Listen::UNBOUNDED`]: it ends the sleep);
    /// set by [`Ctx::listen_for`].
    data_margin: u32,
}

impl Listen {
    const UNBOUNDED: u32 = u32::MAX;

    const ALWAYS: Listen = Listen {
        clk: NetId(0),
        span: Self::UNBOUNDED,
        data_margin: Self::UNBOUNDED,
    };

    /// `t` in ps, saturated at [`Listen::UNBOUNDED`].
    fn ps(t: Time) -> u32 {
        u32::try_from(t.as_ps()).unwrap_or(Self::UNBOUNDED)
    }

    /// Whether a change at `now` falls in the window: within `span` of
    /// the clock's latest rise, its instant included (no rise yet, no
    /// window). The clock is read only for a span that is neither empty
    /// nor unbounded.
    fn hears(&self, now: Time, nets: &[Net]) -> bool {
        match self.span {
            0 => false,
            Self::UNBOUNDED => true,
            span => {
                let rise = nets[self.clk.0 as usize].last_rise;
                rise <= now && (now - rise).as_ps() < u64::from(span)
            }
        }
    }
}

/// The discrete-event simulator. See the [crate docs](crate) for the model.
pub struct Simulator {
    nets: Vec<Net>,
    drivers: Vec<Driver>,
    components: Vec<Option<Box<dyn Component>>>,
    queue: EventQueue,
    time: Time,
    rng: StdRng,
    violations: Vec<Violation>,
    waveforms: Vec<Option<Waveform>>,
    stop_requested: bool,
    /// Guard against zero-delay oscillation: maximum events processed at a
    /// single timestamp before the run aborts with
    /// [`SimError::DeltaOverflow`].
    pub max_events_per_instant: u64,
    events_processed: u64,
    /// Wake coalescing and sleep state, indexed by component.
    wakes: Vec<WakeState>,
    /// Listen rules, indexed by component.
    listens: Vec<Listen>,
    coalesced_wakes: u64,
    compiled_edge_evals: u64,
    compiled_gate_evals: u64,
    elided_drives: u64,
    filtered_wakes: u64,
    slept_wakes: u64,
    held_wakes: u64,
    sampled_wakes: u64,
    /// Sequence numbers at or below this one are no longer ahead: taken
    /// before the current instant began, or by an event already
    /// dispatched in it (one instant's events are dispatched in sequence
    /// order). Kept by [`Simulator::run_until`]; it orders a net change
    /// against the wakes of its instant.
    due: u64,
    /// Which scheduling call each driver took first (indexed by driver);
    /// debug builds hold every later call to the same one.
    #[cfg(debug_assertions)]
    drive_modes: Vec<Option<DriveMode>>,
    /// Delta-race sanitizer state; `None` (the default) costs one branch
    /// per read/drive. `RefCell` because reads are recorded from
    /// [`Ctx::get`], which takes `&self`.
    race: Option<RefCell<RaceState>>,
    /// Per-kind evaluation counters; `None` (the default) costs one
    /// branch per evaluation.
    kinds: Option<Box<KindCounter>>,
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("time", &self.time)
            .field("nets", &self.nets.len())
            .field("drivers", &self.drivers.len())
            .field("components", &self.components.len())
            .field("pending_events", &self.queue.len())
            .field("violations", &self.violations.len())
            .finish()
    }
}

impl Simulator {
    /// Creates an empty simulator with the given RNG seed.
    ///
    /// All stochastic behaviour (metastability resolution) flows from this
    /// seed, so identical seeds give identical runs.
    pub fn new(seed: u64) -> Self {
        Simulator {
            nets: Vec::new(),
            drivers: Vec::new(),
            components: Vec::new(),
            queue: EventQueue::default(),
            time: Time::ZERO,
            rng: StdRng::seed_from_u64(seed),
            violations: Vec::new(),
            waveforms: Vec::new(),
            stop_requested: false,
            max_events_per_instant: 2_000_000,
            events_processed: 0,
            wakes: Vec::new(),
            listens: Vec::new(),
            coalesced_wakes: 0,
            compiled_edge_evals: 0,
            compiled_gate_evals: 0,
            elided_drives: 0,
            filtered_wakes: 0,
            slept_wakes: 0,
            held_wakes: 0,
            sampled_wakes: 0,
            due: 0,
            #[cfg(debug_assertions)]
            drive_modes: Vec::new(),
            race: None,
            kinds: None,
        }
    }

    // ---- construction ----------------------------------------------------

    /// Creates a new net named `name` (names need not be unique; they label
    /// traces and violation reports).
    pub fn net(&mut self, name: impl Into<String>) -> NetId {
        self.add_net(NetLabel::Plain(name.into()))
    }

    /// Creates `width` nets named `name[0]`…`name[width-1]` (LSB first).
    ///
    /// The bits share one interned base name; the `name[i]` strings are
    /// rendered lazily on first [`Simulator::net_name`] lookup, so building
    /// wide datapaths does not allocate a formatted label per bit.
    pub fn bus(&mut self, name: &str, width: usize) -> Vec<NetId> {
        let base: Rc<str> = Rc::from(name);
        (0..width)
            .map(|i| {
                self.add_net(NetLabel::Bit {
                    base: Rc::clone(&base),
                    bit: i as u32,
                })
            })
            .collect()
    }

    fn add_net(&mut self, label: NetLabel) -> NetId {
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net::new(label));
        self.waveforms.push(None);
        id
    }

    /// Attaches a new driver (initially contributing `Z`) to `net`.
    pub fn driver(&mut self, net: NetId) -> DriverId {
        let id = DriverId(self.drivers.len() as u32);
        self.drivers.push(Driver {
            net,
            value: Logic::Z,
            pending_seq: u64::MAX,
        });
        #[cfg(debug_assertions)]
        self.drive_modes.push(None);
        self.nets[net.0 as usize].add_driver();
        id
    }

    /// Registers a component and subscribes it to `watch`ed nets. The
    /// component receives an initial wake at the current time so it can
    /// establish its outputs.
    pub fn add_component(&mut self, component: Box<dyn Component>, watch: &[NetId]) -> ComponentId {
        self.add_clocked_component(component, &[], watch)
    }

    /// Registers an edge-triggered component: it wakes on the `L`→`H`
    /// transitions of the `rising` nets only, and on every resolved change
    /// of the `watch`ed nets, plus the initial wake of
    /// [`Simulator::add_component`]. A net in both lists is watched on
    /// every change.
    ///
    /// A rising-only watch suits a component whose evaluation provably
    /// does nothing unless one of those nets rose, and which asks
    /// [`Ctx::rose`] whether it did. Both kinds of watch share each net's
    /// one watcher list, so same-instant wakes keep registration order.
    pub fn add_clocked_component(
        &mut self,
        component: Box<dyn Component>,
        rising: &[NetId],
        watch: &[NetId],
    ) -> ComponentId {
        let id = self.register(component);
        for &n in rising {
            self.subscribe(id, n, Watch::Rising);
        }
        for &n in watch {
            self.subscribe(id, n, Watch::Change);
        }
        self.schedule_wake(id, self.time);
        id
    }

    /// Registers a flop-like component: it wakes on `clk`'s rises, as a
    /// rising-only watch of [`Simulator::add_clocked_component`], and its
    /// `control` and `data` pins are *sampled*: a change wakes it only
    /// inside its listen window, a span after `clk`'s latest rise
    /// (delivered or slept through) that the component sets with
    /// [`Ctx::listen_for`]. Until it does, every change wakes it.
    ///
    /// A change outside the window queues no wake (counted in
    /// [`SimStats::sampled_wakes`]) but takes the sequence number the wake
    /// would have had; a same-instant wake request that would have
    /// coalesced into it, a rise included, is queued at that number. The
    /// change still acts on the component's sleep ([`Ctx::sleep_from`]):
    /// a `control` pin's change ends it, and a `data` pin's change does
    /// what the component's data rule says. A net given twice is watched
    /// on every change. The race sanitizer treats sampled pins as watched.
    pub fn add_sampling_component(
        &mut self,
        component: Box<dyn Component>,
        clk: NetId,
        control: &[NetId],
        data: &[NetId],
    ) -> ComponentId {
        let id = self.register(component);
        self.listens[id.0 as usize].clk = clk;
        self.subscribe(id, clk, Watch::Rising);
        for &n in control {
            self.subscribe(id, n, Watch::Control);
        }
        for &n in data {
            self.subscribe(id, n, Watch::Data);
        }
        self.schedule_wake(id, self.time);
        id
    }

    /// Adds a component with no watches yet.
    fn register(&mut self, component: Box<dyn Component>) -> ComponentId {
        let id = ComponentId(self.components.len() as u32);
        assert!(id.0 < 1 << Watcher::MODE_SHIFT, "too many components");
        self.components.push(Some(component));
        self.wakes.push(WakeState::IDLE);
        self.listens.push(Listen::ALWAYS);
        id
    }

    /// Adds `comp` to `net`'s watcher list once; a net subscribed in two
    /// modes is watched on every change.
    fn subscribe(&mut self, comp: ComponentId, net: NetId, mode: Watch) {
        let w = &mut self.nets[net.0 as usize].watchers;
        match w.iter_mut().find(|w| w.comp() == comp) {
            Some(entry) if entry.mode() != mode => *entry = Watcher::new(comp, Watch::Change),
            Some(_) => {}
            None => w.push(Watcher::new(comp, mode)),
        }
    }

    /// Removes a component from the simulation: its slot is emptied (any
    /// queued wake becomes a harmless no-op) and it is unsubscribed from
    /// every net, so future net changes stop generating wake events for
    /// it. Used by the compiled backend to supersede per-gate components
    /// with a region engine after elaboration; its drivers keep their
    /// last contribution, and its sleep state, hold and listen window are
    /// dropped.
    pub fn detach_component(&mut self, comp: ComponentId) {
        let idx = comp.0 as usize;
        self.components[idx] = None;
        self.wakes[idx] = WakeState {
            wake_seq: self.wakes[idx].wake_seq,
            timed: self.wakes[idx].timed,
            ..WakeState::IDLE
        };
        self.listens[idx] = Listen::ALWAYS;
        for net in &mut self.nets {
            net.watchers.retain(|w| w.comp() != comp);
        }
    }

    /// Enables waveform recording for `net` (see [`Simulator::waveform`]).
    pub fn trace(&mut self, net: NetId) {
        let idx = net.0 as usize;
        if !self.nets[idx].traced {
            self.nets[idx].traced = true;
            let mut wf = Waveform::new();
            wf.record(self.time, self.nets[idx].resolved);
            self.waveforms[idx] = Some(wf);
        }
    }

    /// Enables waveform recording for every net of a bus.
    pub fn trace_bus(&mut self, nets: &[NetId]) {
        for &n in nets {
            self.trace(n);
        }
    }

    // ---- inspection ------------------------------------------------------

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.time
    }

    /// Resolved value of `net`.
    pub fn value(&self, net: NetId) -> Logic {
        self.nets[net.0 as usize].resolved
    }

    /// Resolved value of a multi-bit bus (`nets[0]` = LSB).
    pub fn value_vec(&self, nets: &[NetId]) -> LogicVec {
        LogicVec::from_bits(&nets.iter().map(|&n| self.value(n)).collect::<Vec<_>>())
    }

    /// When `net` last changed resolved value.
    pub fn last_change(&self, net: NetId) -> Time {
        self.nets[net.0 as usize].last_change
    }

    /// When `net` last made an `L`→`H` transition (`Time::MAX` if it
    /// never has). Transitions out of `X` or `Z` are not rises.
    pub(crate) fn last_rise(&self, net: NetId) -> Time {
        self.nets[net.0 as usize].last_rise
    }

    /// How many times `net` has changed resolved value since construction.
    /// Always counted (no tracing needed); the raw material of
    /// dynamic-energy estimation (`mtf-timing`'s power module).
    pub fn toggles(&self, net: NetId) -> u64 {
        self.nets[net.0 as usize].toggles
    }

    /// Resets every net's toggle counter (e.g. after a warm-up phase, so an
    /// energy measurement covers only the steady state).
    pub fn reset_toggles(&mut self) {
        for n in &mut self.nets {
            n.toggles = 0;
        }
    }

    /// The name given to `net` at creation (bus-bit names are rendered on
    /// first lookup and cached).
    pub fn net_name(&self, net: NetId) -> &str {
        self.nets[net.0 as usize].name()
    }

    /// Number of nets created so far.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// The recorded waveform for `net`, if [`Simulator::trace`] was enabled.
    pub fn waveform(&self, net: NetId) -> Option<&Waveform> {
        self.waveforms[net.0 as usize].as_ref()
    }

    /// All violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Violations of one kind.
    pub fn violations_of(&self, kind: ViolationKind) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(move |v| v.kind == kind)
    }

    /// Total number of events processed since construction.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Snapshot of the kernel counters (queue depths, delta-ring activity,
    /// wake coalescing). Used by the bench binaries to report how hard the
    /// scheduler worked for a given experiment.
    pub fn stats(&self) -> SimStats {
        let q = self.queue.stats();
        SimStats {
            events_processed: self.events_processed,
            peak_queue_depth: q.peak_depth,
            coalesced_wakes: self.coalesced_wakes,
            delta_pushes: q.delta_pushes,
            peak_delta_depth: q.peak_delta_depth,
            wheel_cascades: q.refills,
            overflow_events: q.later_pushes,
            compiled_edge_evals: self.compiled_edge_evals,
            compiled_gate_evals: self.compiled_gate_evals,
            elided_drives: self.elided_drives,
            filtered_wakes: self.filtered_wakes,
            slept_wakes: self.slept_wakes,
            held_wakes: self.held_wakes,
            sampled_wakes: self.sampled_wakes,
        }
    }

    /// Number of drivers attached to `net`, behavioural testbench drivers
    /// included. The static lint (`mtf-lint`) uses this to tell a genuinely
    /// floating input apart from a port driven by a behavioural component
    /// the netlist cannot see.
    pub fn driver_count(&self, net: NetId) -> usize {
        self.nets[net.0 as usize].driver_count()
    }

    /// Number of components watching `net`, on every change or on rising
    /// transitions only (see [`Simulator::add_clocked_component`]).
    /// `mtf-lint` uses this so an output consumed only behaviourally is
    /// not reported as unconnected.
    pub fn watcher_count(&self, net: NetId) -> usize {
        self.nets[net.0 as usize].watchers.len()
    }

    /// Starts counting evaluations per component kind
    /// ([`Simulator::kind_counts`]). Passive, like the race sanitizer:
    /// scheduling is identical to a plain run. Idempotent.
    pub fn enable_kind_counts(&mut self) {
        if self.kinds.is_none() {
            self.kinds = Some(Box::default());
        }
    }

    /// Evaluations per component kind since
    /// [`Simulator::enable_kind_counts`], sorted by kind (empty unless it
    /// was called).
    pub fn kind_counts(&self) -> Vec<KindCount> {
        let mut out: Vec<KindCount> = self
            .kinds
            .iter()
            .flat_map(|k| &k.rows)
            .map(|&(kind, [evals, idle, edges, idle_edges])| KindCount {
                kind: kind.to_owned(),
                evals,
                idle,
                edges,
                idle_edges,
            })
            .collect();
        out.sort_by(|a, b| a.kind.cmp(&b.kind));
        out
    }

    // ---- delta-race sanitizer ---------------------------------------------

    /// Turns on the delta-race sanitizer (see [`crate::race`]). Purely
    /// passive: scheduling and waveforms are identical to a plain run.
    /// Idempotent; recorded hazards survive repeated calls.
    pub fn enable_race_sanitizer(&mut self) {
        if self.race.is_none() {
            self.race = Some(RefCell::new(RaceState::default()));
        }
    }

    /// All same-instant conflicts recorded so far (always empty unless
    /// [`Simulator::enable_race_sanitizer`] was called).
    pub fn race_hazards(&self) -> Vec<RaceHazard> {
        self.race
            .as_ref()
            .map(|r| r.borrow().hazards().to_vec())
            .unwrap_or_default()
    }

    /// Number of recorded hazards of one kind.
    pub fn race_hazard_count(&self, kind: RaceHazardKind) -> usize {
        self.race
            .as_ref()
            .map(|r| {
                r.borrow()
                    .hazards()
                    .iter()
                    .filter(|h| h.kind == kind)
                    .count()
            })
            .unwrap_or(0)
    }

    /// Records a component-level net read (called by [`Ctx::get`], hence
    /// `&self`). Only non-watching reads are kept: a watcher is re-woken
    /// when the net changes, so it can never act on a stale value. Inline
    /// so that with the sanitizer off a read costs one branch.
    #[inline]
    pub(crate) fn note_read(&self, comp: ComponentId, net: NetId) {
        if let Some(race) = &self.race {
            self.record_read(race, comp, net);
        }
    }

    /// [`Simulator::note_read`]'s body, with the sanitizer on.
    #[cold]
    #[inline(never)]
    fn record_read(&self, race: &RefCell<RaceState>, comp: ComponentId, net: NetId) {
        if self.nets[net.0 as usize]
            .watchers
            .iter()
            .any(|w| w.comp() == comp)
        {
            return;
        }
        race.borrow_mut().note_read(self.time, net.0, comp);
    }

    // ---- scheduling (also used by `Ctx`) ----------------------------------

    /// Schedules `driver` to contribute `value` after `delay`, cancelling
    /// any still-pending earlier schedule on the same driver (inertial
    /// behaviour).
    ///
    /// A drive of the value the driver already contributes is elided: the
    /// earlier schedule is cancelled and nothing is queued. The queued
    /// event could only have been a no-op. Until it landed, any later
    /// `drive_in` would cancel it, and nothing else changes the driver's
    /// contribution (drivers are owned by one scheduling call, see
    /// [`Simulator::drive_at`]); so when it landed it would find its own
    /// value in place, change nothing and wake nobody. Returns whether
    /// the drive was elided.
    pub(crate) fn drive_in(&mut self, driver: DriverId, value: Logic, delay: Time) -> bool {
        self.claim(driver, DriveMode::Inertial);
        let d = &mut self.drivers[driver.0 as usize];
        if d.value == value {
            d.pending_seq = u64::MAX;
            self.elided_drives += 1;
            return true;
        }
        let t = self.time + delay;
        let seq = self.queue.push(
            t,
            EventKind::Drive {
                driver,
                value,
                external: false,
            },
        );
        self.drivers[driver.0 as usize].pending_seq = seq;
        false
    }

    /// External (testbench-level) drive scheduling: contributes `value` on
    /// `driver` at absolute time `at` (clamped to now). Unlike component
    /// drives these are *transport*-delay events — they are never cancelled
    /// by later schedules, so a testbench can pre-program a whole stimulus
    /// sequence up front.
    ///
    /// **Driver ownership.** Every driver is scheduled through exactly one
    /// of three calls: this one (testbench stimulus, shard imports),
    /// [`Ctx::drive`]/[`Ctx::drive_now`] (components) or
    /// [`Ctx::commit_drive`] (compiled-region engines). The kernel's drive
    /// elision relies on it: a component drive is skipped when it repeats
    /// the driver's contribution, which is only exact if no other call can
    /// change that contribution before the skipped event would have
    /// landed. Debug builds panic on a driver used through two of them.
    pub fn drive_at(&mut self, driver: DriverId, net: NetId, value: Logic, at: Time) {
        debug_assert_eq!(
            self.drivers[driver.0 as usize].net, net,
            "drive_at: driver {driver:?} is attached to a different net than {net:?}"
        );
        self.claim(driver, DriveMode::External);
        let t = at.max(self.time);
        self.queue.push(
            t,
            EventKind::Drive {
                driver,
                value,
                external: true,
            },
        );
    }

    /// Applies `value` on `driver` *immediately*, without a queue event —
    /// exactly the state transition an uncancellable drive event landing
    /// at the current instant would perform (value-equal skip, sanitizer
    /// note, net recomputation, watcher wakes). Compiled-region engines
    /// use this to land gate outputs whose delay has elapsed; because the
    /// net/driver/watcher state transition is identical to
    /// [`apply_drive`](Self::apply_drive)'s, observables cannot diverge
    /// from the event path.
    pub(crate) fn commit_drive(&mut self, driver: DriverId, value: Logic) {
        // An engine-managed driver never has kernel-queued drive events,
        // so there is no pending_seq to consult: mirror the external path
        // of `apply_drive`.
        self.claim(driver, DriveMode::Committed);
        let d = &mut self.drivers[driver.0 as usize];
        if d.value == value {
            return;
        }
        self.change_contribution(driver, value);
    }

    /// Records (debug builds) which scheduling call owns `driver` and
    /// panics if it was already driven through a different one.
    #[inline]
    fn claim(&mut self, driver: DriverId, mode: DriveMode) {
        #[cfg(debug_assertions)]
        {
            let slot = &mut self.drive_modes[driver.0 as usize];
            match *slot {
                None => *slot = Some(mode),
                Some(owner) => assert!(
                    owner == mode,
                    "driver #{} on net '{}' is scheduled through both {} and {}; \
                     a driver must use only one (see Simulator::drive_at)",
                    driver.0,
                    self.nets[self.drivers[driver.0 as usize].net.0 as usize].name(),
                    owner.call(),
                    mode.call(),
                ),
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = (driver, mode);
    }

    /// Queues a wake for `comp` at `at` (clamped to now), unless a queued
    /// wake is known to cover it: at the current instant, a same-instant
    /// wake still ahead; at a later instant, the latest timed request, if
    /// it is for `at` and not yet delivered. Only that latest timed
    /// request is tracked: after a request for an earlier instant, asking
    /// again for an instant already queued queues a second wake. A timed
    /// wake also ends the component's sleep and its hold, and queues a
    /// skipped wake still ahead at its reserved number.
    pub(crate) fn schedule_wake(&mut self, comp: ComponentId, at: Time) {
        let now = self.time;
        let at = at.max(now);
        let w = &mut self.wakes[comp.0 as usize];
        w.sleep_from = Time::MAX;
        w.release(self.due, &mut self.queue, comp);
        if (at == now && w.ahead(self.due)) || w.timed == at {
            // A wake for this component at this instant is already queued
            // and will run after every net update of the instant — this
            // request is covered by it.
            self.coalesced_wakes += 1;
            return;
        }
        let seq = self.queue.push(at, EventKind::Wake { comp });
        if at == now {
            w.wake_seq = seq;
        } else {
            w.timed = at;
        }
    }

    /// See [`Ctx::sleep_from`].
    pub(crate) fn sleep_from(&mut self, comp: ComponentId, at: Time) {
        debug_assert!(
            at > self.time,
            "a sleeper must take every remaining rise of the current instant"
        );
        self.wakes[comp.0 as usize].sleep_from = at;
    }

    /// See [`Ctx::listen_for`].
    pub(crate) fn listen_for(&mut self, comp: ComponentId, span: Time, data_margin: Option<Time>) {
        let l = &mut self.listens[comp.0 as usize];
        l.span = Listen::ps(span);
        l.data_margin = data_margin.map_or(Listen::UNBOUNDED, Listen::ps);
    }

    /// See [`Ctx::sleep_until_change`].
    pub(crate) fn sleep_until_change(&mut self, comp: ComponentId, net: NetId) {
        debug_assert!(
            self.nets[net.0 as usize]
                .watchers
                .contains(&Watcher::new(comp, Watch::Change)),
            "a held component must watch the net it waits for on every change"
        );
        let w = &mut self.wakes[comp.0 as usize];
        if !w.ahead(self.due) {
            w.awaited = net.0;
        }
    }

    /// Notes, when counting kinds, that [`Ctx::rose`] answered true.
    #[inline]
    pub(crate) fn note_rise(&self) {
        if let Some(kinds) = &self.kinds {
            kinds.rose.set(true);
        }
    }

    /// The latest rise `comp` slept through (`Time::MAX` if none).
    pub(crate) fn slept_rise(&self, comp: ComponentId) -> Time {
        self.wakes[comp.0 as usize].slept_rise
    }

    // ---- event loop --------------------------------------------------------

    /// Runs until the queue is exhausted, `horizon` is reached, or a
    /// component requests a stop. On success the simulator's clock is
    /// `horizon` (or the stop instant).
    pub fn run_until(&mut self, horizon: Time) -> Result<(), SimError> {
        let mut events_this_instant: u64 = 0;
        let mut instant = self.time;
        loop {
            if self.stop_requested {
                return Ok(());
            }
            // Combined peek-and-pop: a single occupancy scan per instant,
            // and the cursor never advances past `horizon`.
            let Some(ev) = self.queue.pop_not_after(horizon) else {
                break;
            };
            if ev.time > instant {
                // `instant` is the simulator's time: every number taken
                // so far belongs to an earlier instant.
                instant = ev.time;
                events_this_instant = 0;
                self.due = self.queue.next_seq() - 1;
            }
            events_this_instant += 1;
            self.events_processed += 1;
            if events_this_instant > self.max_events_per_instant {
                return Err(SimError::DeltaOverflow {
                    time: ev.time,
                    events: events_this_instant,
                });
            }
            self.time = ev.time;
            self.due = self.due.max(ev.seq);
            match ev.kind {
                EventKind::Drive {
                    driver,
                    value,
                    external,
                } => {
                    self.apply_drive(driver, value, ev.seq, external);
                }
                EventKind::Wake { comp } => {
                    // The dispatch retires the wake *before* evaluating
                    // (its seq is no longer ahead), so a wake the
                    // component schedules for this same instant during
                    // eval (self-rewake) is queued, not absorbed. A held
                    // component is woken only by a release, so its hold
                    // has nothing left to queue.
                    let w = &mut self.wakes[comp.0 as usize];
                    if w.timed == ev.time {
                        w.timed = Time::MAX;
                    }
                    w.awaited = WakeState::NOT_HELD;
                    self.eval_component(comp);
                }
            }
        }
        if !self.stop_requested {
            if horizon > self.time {
                self.due = self.queue.next_seq() - 1;
            }
            self.time = horizon;
        }
        Ok(())
    }

    /// Runs for `span` past the current time.
    pub fn run_for(&mut self, span: Time) -> Result<(), SimError> {
        let horizon = self.time + span;
        self.run_until(horizon)
    }

    fn apply_drive(&mut self, driver: DriverId, value: Logic, seq: u64, external: bool) {
        let d = &mut self.drivers[driver.0 as usize];
        // Cancellation: external drives are never cancelled; of a
        // component's, only the latest scheduled one for this driver (the
        // one whose seq `pending_seq` holds) may apply.
        if !external && d.pending_seq != seq {
            return;
        }
        if d.value == value {
            return;
        }
        self.change_contribution(driver, value);
    }

    /// Lands a new contribution `value` of `driver`, which differs from
    /// its current one: the driver's value, its net's level counts, the
    /// sanitizer note and the net's resolution. The one state transition
    /// behind [`Simulator::apply_drive`] and [`Simulator::commit_drive`].
    #[inline]
    fn change_contribution(&mut self, driver: DriverId, value: Logic) {
        let d = &mut self.drivers[driver.0 as usize];
        let old = std::mem::replace(&mut d.value, value);
        let net = d.net;
        self.nets[net.0 as usize].contribute(old, value);
        self.note_race_write(net, driver);
        self.recompute_net(net);
    }

    /// Sanitizer hook for a driver whose contribution to `net` just
    /// changed: records a write-write hazard when another driver already
    /// changed `net` in the same delta cycle. With the sanitizer off, one
    /// branch.
    #[inline]
    fn note_race_write(&self, net: NetId, driver: DriverId) {
        if let Some(race) = &self.race {
            self.record_write(race, net, driver);
        }
    }

    /// [`Simulator::note_race_write`]'s body, with the sanitizer on.
    #[cold]
    #[inline(never)]
    fn record_write(&self, race: &RefCell<RaceState>, net: NetId, driver: DriverId) {
        let mut st = race.borrow_mut();
        if let Some(prev) = st.note_write(self.time, net.0, driver) {
            let h = RaceHazard {
                kind: RaceHazardKind::WriteWrite,
                time: self.time,
                net: self.nets[net.0 as usize].name().to_owned(),
                detail: format!(
                    "drivers #{} and #{} both changed their contribution \
                     within one delta cycle",
                    prev.0, driver.0
                ),
            };
            st.push(h);
        }
    }

    fn recompute_net(&mut self, net: NetId) {
        let idx = net.0 as usize;
        let now = self.time;
        let n = &mut self.nets[idx];
        let resolved = n.resolution();
        if resolved == n.resolved {
            return;
        }
        #[cfg(debug_assertions)]
        {
            let (rise_again, fall) = (
                resolved == Logic::H && n.last_change == now && n.toggles > 0,
                n.resolved == Logic::H && n.last_rise == now,
            );
            if rise_again {
                self.check_single_rise(idx);
            }
            if fall {
                self.check_no_slept_fall(idx);
            }
        }
        let n = &mut self.nets[idx];
        let rose = n.resolved == Logic::L && resolved == Logic::H;
        if rose {
            n.last_rise = now;
        }
        n.resolved = resolved;
        n.last_change = now;
        n.toggles += 1;
        if n.traced {
            if let Some(wf) = self.waveforms[idx].as_mut() {
                wf.record(now, resolved);
            }
        }
        if let Some(race) = &self.race {
            self.record_stale_readers(race, net, resolved);
        }
        // Notify watchers via wake events at the current instant; a
        // rising-only watcher only if the net rose and the watcher is
        // awake, a sampled one only in its listen window, an ordinary one
        // only if it is not held for another net. Every other watch ends
        // a sleep, or moves it by the data rule. Borrowing the watcher
        // list, the queue and the wake states as disjoint fields lets this
        // iterate in place — no clone of the watcher Vec per net change.
        let now = self.time;
        let due = self.due;
        let (nets, queue, wakes) = (&self.nets, &mut self.queue, &mut self.wakes);
        for &w in &nets[idx].watchers {
            let comp = w.comp();
            let st = &mut wakes[comp.0 as usize];
            let mode = w.mode();
            if mode == Watch::Rising {
                if !rose {
                    self.filtered_wakes += 1;
                    continue;
                }
                if now >= st.sleep_from {
                    self.slept_wakes += 1;
                    st.slept_rise = now;
                    #[cfg(debug_assertions)]
                    {
                        st.slept_seq = queue.next_seq();
                    }
                    continue;
                }
            } else {
                #[cfg(debug_assertions)]
                if st.slept_rise == now && st.slept_seq > due {
                    Self::refuse_late_input(&nets[idx], &self.components, comp, now);
                }
                if mode != Watch::Change {
                    let l = &self.listens[comp.0 as usize];
                    if !l.hears(now, nets) {
                        // A sampled pin outside the listen window: skip
                        // the wake, and apply the change to the sleep
                        // alone.
                        if mode == Watch::Data && l.data_margin != Listen::UNBOUNDED {
                            if st.sleep_from != Time::MAX {
                                let margin = Time::from_ps(u64::from(l.data_margin));
                                st.sleep_from = st.sleep_from.max(now + margin);
                            }
                        } else {
                            st.sleep_from = Time::MAX;
                        }
                        self.sampled_wakes += 1;
                        st.skip(due, now, queue);
                        continue;
                    }
                }
                if st.awaited != WakeState::NOT_HELD {
                    if st.awaited != net.0 {
                        // Held: skip the wake.
                        self.held_wakes += 1;
                        st.skip(due, now, queue);
                        continue;
                    }
                    st.release(due, queue, comp);
                }
                st.sleep_from = Time::MAX;
            }
            if st.covers(due, now) {
                st.claim(due, queue, comp);
                self.coalesced_wakes += 1;
                continue;
            }
            st.wake_seq = queue.push(now, EventKind::Wake { comp });
            st.reserved = false;
        }
    }

    /// Sanitizer hook for a change of `net` to `resolved`: records a
    /// read-then-write hazard for each component that read it earlier in
    /// this instant without watching it.
    #[cold]
    #[inline(never)]
    fn record_stale_readers(&self, race: &RefCell<RaceState>, net: NetId, resolved: Logic) {
        let now = self.time;
        let mut st = race.borrow_mut();
        for c in st.take_stale_readers(now, net.0) {
            let who = self.components[c.0 as usize]
                .as_ref()
                .map(|b| b.name().to_owned())
                .unwrap_or_else(|| format!("component#{}", c.0));
            let h = RaceHazard {
                kind: RaceHazardKind::ReadThenWrite,
                time: now,
                net: self.nets[net.0 as usize].name().to_owned(),
                detail: format!(
                    "'{who}' read the net earlier this instant without \
                     watching it, then the resolved value changed to {resolved:?}"
                ),
            };
            st.push(h);
        }
    }

    /// Debug builds: panics because `net`, a non-clock input of `comp`
    /// (watched on every change or sampled), changed through an event queued before the wake of the rise `comp`
    /// slept through at `now`. Awake, `comp` would have evaluated that
    /// rise after this change; asleep, it consumed the rise with the old
    /// value, so the sleep rule cannot reproduce the order.
    #[cfg(debug_assertions)]
    #[cold]
    fn refuse_late_input(
        net: &Net,
        components: &[Option<Box<dyn Component>>],
        comp: ComponentId,
        now: Time,
    ) -> ! {
        let who = components[comp.0 as usize]
            .as_ref()
            .map_or("component", |c| c.name());
        panic!(
            "net '{}' changed at {now} through an event queued ahead of the \
             rise its watcher '{who}' slept through; a sleeper's inputs must \
             change after its skipped wake would have run",
            net.name()
        );
    }

    /// Debug builds: panics if `net`, about to fall in the instant it
    /// rose, has a rising-only watcher that slept through that rise.
    /// Awake, the watcher would have seen no edge (its wake runs after
    /// the fall; see [`Ctx::rose`]'s second rule); asleep, it counted
    /// the rise as consumed.
    #[cfg(debug_assertions)]
    fn check_no_slept_fall(&self, idx: usize) {
        let n = &self.nets[idx];
        if let Some(w) = n.watchers.iter().find(|w| {
            w.mode() == Watch::Rising && self.wakes[w.comp().0 as usize].slept_rise == self.time
        }) {
            let who = self.components[w.comp().0 as usize]
                .as_ref()
                .map_or("component", |c| c.name());
            panic!(
                "net '{}' fell in the instant {} it rose while its watcher \
                 '{who}' slept through the rise",
                n.name(),
                self.time
            );
        }
    }

    /// Debug builds: panics if `net`, about to become `H` after another
    /// change at this instant, has a rising-only watcher. [`Ctx::rose`]
    /// reports the rise at any evaluation after it, while a cell that
    /// sampled its clock level at each evaluation would have missed an
    /// edge whose wake coalesced with the earlier change's (H→L→H,
    /// L→X→H); forbidding the case keeps the two exactly equal.
    #[cfg(debug_assertions)]
    fn check_single_rise(&self, idx: usize) {
        let n = &self.nets[idx];
        if let Some(w) = n.watchers.iter().find(|w| w.mode() == Watch::Rising) {
            let who = self.components[w.comp().0 as usize]
                .as_ref()
                .map_or("component", |c| c.name());
            panic!(
                "net '{}' became H after another change at {}; its rising-edge \
                 watcher '{who}' needs at most one change per instant",
                n.name(),
                self.time
            );
        }
    }

    fn eval_component(&mut self, comp: ComponentId) {
        let idx = comp.0 as usize;
        let Some(mut c) = self.components[idx].take() else {
            // Re-entrant wake while the component is mid-eval cannot happen
            // (eval never re-enters the loop), but a stale duplicate wake for
            // a removed component is harmless.
            return;
        };
        let seq = self.queue.next_seq();
        {
            let mut ctx = Ctx {
                sim: self,
                me: comp,
            };
            c.eval(&mut ctx);
        }
        if let Some(kinds) = &mut self.kinds {
            kinds.count(comp, &*c, self.queue.next_seq() == seq);
        }
        self.components[idx] = Some(c);
    }

    // ---- services for `Ctx` ------------------------------------------------

    pub(crate) fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    pub(crate) fn record_violation(&mut self, v: Violation) {
        self.violations.push(v);
    }

    pub(crate) fn request_stop(&mut self) {
        self.stop_requested = true;
    }

    pub(crate) fn note_compiled_pass(&mut self, gate_evals: u64) {
        self.compiled_edge_evals += 1;
        self.compiled_gate_evals += gate_evals;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_driver() -> (Simulator, NetId, DriverId) {
        let mut sim = Simulator::new(0);
        let n = sim.net("n");
        let d = sim.driver(n);
        sim.trace(n);
        sim.drive_in(d, Logic::L, Time::ZERO);
        sim.run_until(Time::from_ns(1)).unwrap();
        assert_eq!((sim.value(n), sim.toggles(n)), (Logic::L, 1));
        (sim, n, d)
    }

    #[test]
    fn same_value_drive_cancels_a_pending_opposite_drive() {
        let (mut sim, n, d) = one_driver();
        sim.drive_in(d, Logic::H, Time::from_ps(500));
        sim.run_until(Time::from_ps(1_200)).unwrap();
        // The glitch back to L inside the gate delay filters the H pulse.
        sim.drive_in(d, Logic::L, Time::from_ps(500));
        sim.run_until(Time::from_ns(3)).unwrap();
        assert_eq!((sim.value(n), sim.toggles(n)), (Logic::L, 1));
        assert_eq!(sim.waveform(n).unwrap().transition_count(), 0);
        assert_eq!(sim.stats().elided_drives, 1);
    }

    #[test]
    fn same_value_drive_with_nothing_pending_queues_nothing() {
        let (mut sim, n, d) = one_driver();
        let before = sim.stats();
        sim.drive_in(d, Logic::L, Time::from_ps(300));
        assert_eq!(sim.queue.len(), 0);
        sim.run_until(Time::from_ns(2)).unwrap();
        let after = sim.stats();
        assert_eq!(after.events_processed, before.events_processed);
        assert_eq!(after.elided_drives, before.elided_drives + 1);
        assert_eq!(sim.toggles(n), 1);
    }

    #[test]
    fn drives_after_a_landed_drive_are_handled_normally() {
        let (mut sim, n, d) = one_driver();
        sim.drive_in(d, Logic::H, Time::from_ps(200));
        sim.run_until(Time::from_ns(2)).unwrap();
        assert_eq!((sim.value(n), sim.toggles(n)), (Logic::H, 2));
        // Repeating the landed value is elided ...
        sim.drive_in(d, Logic::H, Time::from_ps(200));
        assert_eq!(sim.stats().elided_drives, 1);
        // ... and a new value is queued and lands after its delay.
        let events = sim.events_processed();
        sim.drive_in(d, Logic::L, Time::from_ps(200));
        sim.run_until(Time::from_ps(2_199)).unwrap();
        assert_eq!(sim.value(n), Logic::H);
        sim.run_until(Time::from_ns(3)).unwrap();
        assert_eq!((sim.value(n), sim.toggles(n)), (Logic::L, 3));
        assert_eq!(sim.last_change(n), Time::from_ps(2_200));
        assert_eq!(sim.events_processed(), events + 1);
        assert_eq!(sim.stats().elided_drives, 1);
    }

    /// Each evaluation after the first: its instant in ps and one
    /// [`Ctx::rose`] answer per rising net.
    type EdgeLog = Rc<RefCell<Vec<(u64, Vec<bool>)>>>;

    /// Asks [`Ctx::rose`] about each of its nets on every evaluation and
    /// logs the answers of all but the first.
    struct EdgeProbe {
        clks: Vec<NetId>,
        seen: Vec<Time>,
        started: bool,
        log: EdgeLog,
    }

    impl Component for EdgeProbe {
        fn eval(&mut self, ctx: &mut Ctx<'_>) {
            let rose: Vec<bool> = self
                .clks
                .iter()
                .zip(&mut self.seen)
                .map(|(&clk, seen)| ctx.rose(clk, seen))
                .collect();
            if self.started {
                self.log.borrow_mut().push((ctx.now().as_ps(), rose));
            }
            self.started = true;
        }
    }

    /// Registers an [`EdgeProbe`] asking about `clks`, watching `rising`
    /// on rises only and `watch` on every change.
    fn edge_probe(
        sim: &mut Simulator,
        clks: &[NetId],
        rising: &[NetId],
        watch: &[NetId],
    ) -> (ComponentId, EdgeLog) {
        let log = EdgeLog::default();
        let probe = EdgeProbe {
            clks: clks.to_vec(),
            seen: vec![Time::MAX; clks.len()],
            started: false,
            log: log.clone(),
        };
        let id = sim.add_clocked_component(Box::new(probe), rising, watch);
        (id, log)
    }

    /// A net with one stimulus driver: `(ns, level)` pairs.
    fn stimulus(sim: &mut Simulator, name: &str, levels: &[(u64, Logic)]) -> NetId {
        let n = sim.net(name);
        let d = sim.driver(n);
        for &(ns, v) in levels {
            sim.drive_at(d, n, v, Time::from_ns(ns));
        }
        n
    }

    /// Drives `out` to `input`'s value with no delay: a second delta.
    struct Repeater {
        input: NetId,
        out: DriverId,
    }

    impl Component for Repeater {
        fn eval(&mut self, ctx: &mut Ctx<'_>) {
            let v = ctx.get(self.input);
            ctx.drive_now(self.out, v);
        }
    }

    #[test]
    fn clock_rose_is_strict_low_to_high() {
        use Logic::*;
        for (prev, clk) in [L, H, X, Z]
            .iter()
            .flat_map(|&p| [L, H, X, Z].map(|c| (p, c)))
        {
            let mut sim = Simulator::new(0);
            let n = stimulus(&mut sim, "clk", &[(1, prev), (2, clk)]);
            // An every-change watch, so the predicate is asked on each
            // transition.
            let (_, log) = edge_probe(&mut sim, &[n], &[], &[n]);
            sim.run_until(Time::from_ns(3)).unwrap();
            let at_2ns: Vec<bool> = log
                .borrow()
                .iter()
                .filter(|(t, _)| *t == 2_000)
                .map(|(_, r)| r[0])
                .collect();
            let expected = if prev == clk {
                vec![]
            } else {
                vec![prev == L && clk == H]
            };
            assert_eq!(at_2ns, expected, "{prev:?}→{clk:?}");
        }
    }

    #[test]
    fn rising_watch_wakes_only_on_low_to_high() {
        use Logic::*;
        let mut sim = Simulator::new(0);
        let levels = [
            (1, L),
            (2, H),
            (3, L),
            (4, X),
            (5, H),
            (6, Z),
            (7, H),
            (8, L),
            (9, H),
        ];
        let clk = stimulus(&mut sim, "clk", &levels);
        let (_, log) = edge_probe(&mut sim, &[clk], &[clk], &[]);
        sim.run_until(Time::from_ns(10)).unwrap();
        // H→L, L→X, X→H, H→Z, Z→H and the power-on Z→L wake nobody.
        assert_eq!(*log.borrow(), [(2_000, vec![true]), (9_000, vec![true])]);
        assert_eq!(sim.stats().filtered_wakes, 7);
        assert_eq!(sim.last_rise(clk), Time::from_ns(9));
    }

    #[test]
    fn ordinary_watch_on_another_net_still_wakes() {
        use Logic::*;
        let mut sim = Simulator::new(0);
        let clk = stimulus(&mut sim, "clk", &[(1, L), (2, H), (3, L)]);
        let d = stimulus(&mut sim, "d", &[(1, L), (2, H), (4, L)]);
        let (_, log) = edge_probe(&mut sim, &[clk], &[clk], &[d]);
        sim.run_until(Time::from_ns(5)).unwrap();
        // At 2 ns the clock and data wakes coalesce into one evaluation,
        // whose rise is consumed; the data change at 4 ns wakes it alone.
        assert_eq!(
            *log.borrow(),
            [
                (1_000, vec![false]),
                (2_000, vec![true]),
                (4_000, vec![false])
            ]
        );
    }

    #[test]
    fn a_glitch_within_one_instant_wakes_but_is_no_edge() {
        use Logic::*;
        let mut sim = Simulator::new(0);
        let clk = stimulus(&mut sim, "clk", &[(1, L), (2, H), (2, L)]);
        let (_, log) = edge_probe(&mut sim, &[clk], &[clk], &[]);
        sim.run_until(Time::from_ns(3)).unwrap();
        // The rise queued the wake; by then the clock is low again.
        assert_eq!(*log.borrow(), [(2_000, vec![false])]);
        assert_eq!(sim.last_rise(clk), Time::from_ns(2));
    }

    #[test]
    fn two_rises_in_different_deltas_are_each_consumed_once() {
        use Logic::*;
        let mut sim = Simulator::new(0);
        let a = stimulus(&mut sim, "a", &[(1, L), (2, H)]);
        let b = sim.net("b");
        let (_, log) = edge_probe(&mut sim, &[a, b], &[a, b], &[]);
        // Registered after the probe, so `b` rises one delta after the
        // probe's first evaluation at 2 ns.
        let out = sim.driver(b);
        sim.add_component(Box::new(Repeater { input: a, out }), &[a]);
        sim.run_until(Time::from_ns(3)).unwrap();
        assert_eq!(
            *log.borrow(),
            [(2_000, vec![true, false]), (2_000, vec![false, true])]
        );
    }

    #[test]
    fn a_first_evaluation_consumes_a_rise_already_at_now() {
        use Logic::*;
        let mut sim = Simulator::new(0);
        let clk = stimulus(&mut sim, "clk", &[(1, L), (2, H)]);
        let d = sim.net("d");
        let dd = sim.driver(d);
        sim.run_until(Time::from_ns(2)).unwrap();
        assert_eq!(sim.last_rise(clk), sim.now());
        // Registered after the rise, then woken again in the same instant.
        let (_, log) = edge_probe(&mut sim, &[clk], &[clk], &[d]);
        sim.drive_at(dd, d, H, sim.now());
        sim.run_until(Time::from_ns(3)).unwrap();
        assert_eq!(*log.borrow(), [(2_000, vec![false])]);
    }

    #[test]
    fn detach_component_drops_rising_entries() {
        use Logic::*;
        let mut sim = Simulator::new(0);
        let clk = stimulus(&mut sim, "clk", &[(1, L), (2, H)]);
        let (id, log) = edge_probe(&mut sim, &[clk], &[clk], &[]);
        assert_eq!(sim.watcher_count(clk), 1);
        sim.detach_component(id);
        assert_eq!(sim.watcher_count(clk), 0);
        sim.run_until(Time::from_ns(3)).unwrap();
        assert!(log.borrow().is_empty());
        // Two stimulus drives and the detached component's initial wake.
        assert_eq!(sim.events_processed(), 3);
    }

    /// Each evaluation after the first: its instant in ps, the
    /// [`Ctx::rose`] answer and `seen` afterwards in ps.
    type SleepLog = Rc<RefCell<Vec<(u64, bool, u64)>>>;

    /// An edge-triggered probe that, after each rising evaluation, sleeps
    /// from `max(now + 1 ps, from)`.
    struct Sleeper {
        clk: NetId,
        seen: Time,
        from: Time,
        started: bool,
        log: SleepLog,
    }

    impl Component for Sleeper {
        fn eval(&mut self, ctx: &mut Ctx<'_>) {
            let rose = ctx.rose(self.clk, &mut self.seen);
            if self.started {
                let entry = (ctx.now().as_ps(), rose, self.seen.as_ps());
                self.log.borrow_mut().push(entry);
                if rose {
                    ctx.sleep_from(self.from.max(ctx.now() + Time::from_ps(1)));
                }
            }
            self.started = true;
        }
    }

    fn sleeper(
        sim: &mut Simulator,
        clk: NetId,
        watch: &[NetId],
        from: Time,
    ) -> (ComponentId, SleepLog) {
        let log = SleepLog::default();
        let probe = Sleeper {
            clk,
            seen: Time::MAX,
            from,
            started: false,
            log: log.clone(),
        };
        let id = sim.add_clocked_component(Box::new(probe), &[clk], watch);
        (id, log)
    }

    /// `L` at 1 ns, then a rise at each of `rises` (ns) and a fall 1 ns
    /// after it.
    fn clock(sim: &mut Simulator, rises: &[u64]) -> NetId {
        let mut levels = vec![(1, Logic::L)];
        for &r in rises {
            levels.extend([(r, Logic::H), (r + 1, Logic::L)]);
        }
        stimulus(sim, "clk", &levels)
    }

    #[test]
    fn an_input_change_rearms_a_sleeper() {
        let mut sim = Simulator::new(0);
        let clk = clock(&mut sim, &[2, 4, 6, 8]);
        let d = stimulus(&mut sim, "d", &[(5, Logic::H)]);
        let (_, log) = sleeper(&mut sim, clk, &[d], Time::ZERO);
        sim.run_until(Time::from_ns(10)).unwrap();
        // The rises at 4 and 8 ns are slept through; the one at 4 ns is
        // consumed by the evaluation the data change at 5 ns wakes.
        assert_eq!(
            *log.borrow(),
            [
                (2_000, true, 2_000),
                (5_000, false, 4_000),
                (6_000, true, 6_000)
            ]
        );
        assert_eq!(sim.stats().slept_wakes, 2);
    }

    #[test]
    fn a_rise_before_sleep_from_is_still_delivered() {
        let mut sim = Simulator::new(0);
        let clk = clock(&mut sim, &[2, 4, 6, 8]);
        // Asleep from 6 ns: the rise at 4 ns wakes it, the one at 6 ns
        // (at `sleep_from`) and the one at 8 ns do not.
        let (_, log) = sleeper(&mut sim, clk, &[], Time::from_ns(6));
        sim.run_until(Time::from_ns(10)).unwrap();
        assert_eq!(*log.borrow(), [(2_000, true, 2_000), (4_000, true, 4_000)]);
        assert_eq!(sim.stats().slept_wakes, 2);
    }

    #[test]
    fn a_timed_wake_rearms_a_sleeper() {
        let mut sim = Simulator::new(0);
        let clk = clock(&mut sim, &[2, 4, 6]);
        let (id, log) = sleeper(&mut sim, clk, &[], Time::ZERO);
        sim.run_until(Time::from_ps(4_500)).unwrap();
        // Requesting the wake ends the sleep at once, before it runs.
        sim.schedule_wake(id, Time::from_ns(5));
        sim.run_until(Time::from_ns(8)).unwrap();
        assert_eq!(
            *log.borrow(),
            [
                (2_000, true, 2_000),
                (5_000, false, 4_000),
                (6_000, true, 6_000)
            ]
        );
    }

    #[test]
    fn a_slept_rise_is_consumed_before_a_later_change_in_its_instant() {
        let mut sim = Simulator::new(0);
        let clk = clock(&mut sim, &[2, 4]);
        // `go` lands after the clock at 4 ns; the repeater's drive of `d`
        // is queued behind the wake the slept rise would have taken.
        let go = stimulus(&mut sim, "go", &[(4, Logic::H)]);
        let d = sim.net("d");
        let (_, slept) = sleeper(&mut sim, clk, &[d], Time::ZERO);
        // The awake twin: it evaluates the rise before `d` moves.
        let (_, awake) = edge_probe(&mut sim, &[clk], &[clk], &[d]);
        let out = sim.driver(d);
        sim.add_component(Box::new(Repeater { input: go, out }), &[go]);
        sim.run_until(Time::from_ns(6)).unwrap();
        assert_eq!(
            *slept.borrow(),
            [(2_000, true, 2_000), (4_000, false, 4_000)]
        );
        assert_eq!(
            *awake.borrow(),
            [
                (2_000, vec![true]),
                (4_000, vec![true]),
                (4_000, vec![false])
            ]
        );
    }

    #[test]
    fn detach_component_drops_sleep_state() {
        let mut sim = Simulator::new(0);
        let clk = clock(&mut sim, &[2, 4]);
        let (id, _) = sleeper(&mut sim, clk, &[], Time::ZERO);
        sim.run_until(Time::from_ps(4_500)).unwrap();
        assert_eq!(sim.slept_rise(id), Time::from_ns(4));
        assert_ne!(sim.wakes[0].sleep_from, Time::MAX);
        sim.detach_component(id);
        assert_eq!(sim.slept_rise(id), Time::MAX);
        assert_eq!(sim.wakes[0].sleep_from, Time::MAX);
    }

    /// Evaluation order across components: instant in ps and name.
    type OrderLog = Rc<RefCell<Vec<(u64, &'static str)>>>;

    /// Logs each evaluation; with `hold`, waits for `a` alone while it is
    /// `L` (an AND whose output nobody reads).
    struct Held {
        name: &'static str,
        a: NetId,
        hold: bool,
        log: OrderLog,
    }

    impl Component for Held {
        fn eval(&mut self, ctx: &mut Ctx<'_>) {
            self.log.borrow_mut().push((ctx.now().as_ps(), self.name));
            if self.hold && ctx.get(self.a) == Logic::L {
                ctx.sleep_until_change(self.a);
            }
        }
    }

    /// Registers a [`Held`] named `name` watching `a` and `b`.
    fn held(
        sim: &mut Simulator,
        name: &'static str,
        a: NetId,
        b: NetId,
        hold: bool,
        log: &OrderLog,
    ) -> ComponentId {
        let c = Held {
            name,
            a,
            hold,
            log: log.clone(),
        };
        sim.add_component(Box::new(c), &[a, b])
    }

    /// The evaluations at or after 1 ns, in order.
    fn order(log: &OrderLog) -> Vec<(u64, &'static str)> {
        log.borrow()
            .iter()
            .copied()
            .filter(|&(t, _)| t >= 1_000)
            .collect()
    }

    #[test]
    fn a_held_component_skips_other_inputs_until_the_awaited_one_moves() {
        use Logic::*;
        let run = |hold: bool| {
            let mut sim = Simulator::new(0);
            let a = stimulus(&mut sim, "a", &[(1, L), (5, H), (7, L)]);
            let b = stimulus(&mut sim, "b", &[(2, H), (3, L), (4, H), (6, L), (8, H)]);
            let log = OrderLog::default();
            held(&mut sim, "g", a, b, hold, &log);
            sim.run_until(Time::from_ns(9)).unwrap();
            (order(&log), sim.stats())
        };
        let (held, stats) = run(true);
        // Held from 1 ns: `b` at 2-4 ns is skipped, `a` rising at 5 ns
        // wakes it; awake, `b` at 6 ns does too; held again from 7 ns.
        let at = |ns: &[u64]| ns.iter().map(|&t| (t * 1_000, "g")).collect::<Vec<_>>();
        assert_eq!(held, at(&[1, 5, 6, 7]));
        assert_eq!(stats.held_wakes, 4);
        let (awake, awake_stats) = run(false);
        assert_eq!(awake, at(&[1, 2, 3, 4, 5, 6, 7, 8]));
        assert_eq!(awake_stats.events_processed, stats.events_processed + 4);
    }

    #[test]
    fn a_release_in_the_instant_of_a_skip_runs_the_wake_in_its_place() {
        use Logic::*;
        let run = |hold: bool| {
            let mut sim = Simulator::new(0);
            // Both 3 ns drives are queued long before the skipped wake.
            let b = stimulus(&mut sim, "b", &[(1, L), (3, H)]);
            let a = stimulus(&mut sim, "a", &[(1, L), (3, H)]);
            let log = OrderLog::default();
            held(&mut sim, "g", a, b, hold, &log);
            // Woken by `b` right after `g`'s would-be wake.
            held(&mut sim, "tail", b, b, false, &log);
            sim.run_until(Time::from_ns(4)).unwrap();
            (order(&log), sim.stats())
        };
        let (held, stats) = run(true);
        let (awake, awake_stats) = run(false);
        // At 3 ns `b` moves first (`g` held: skipped, seq reserved), then
        // `a` through an earlier-queued event: `g`'s wake is queued at the
        // reserved seq, so `g` still evaluates before `tail`.
        assert_eq!(
            held,
            [(1_000, "g"), (1_000, "tail"), (3_000, "g"), (3_000, "tail")]
        );
        assert_eq!(held, awake);
        assert_eq!(stats.held_wakes, 1);
        assert_eq!(stats.events_processed, awake_stats.events_processed);
        assert_eq!(stats.coalesced_wakes, awake_stats.coalesced_wakes);
    }

    #[test]
    fn a_release_after_the_skipped_wake_was_due_wakes_afresh() {
        use Logic::*;
        let run = |hold: bool| {
            let mut sim = Simulator::new(0);
            let b = stimulus(&mut sim, "b", &[(1, L), (3, H)]);
            let go = stimulus(&mut sim, "go", &[(1, L), (3, H)]);
            let a = sim.net("a");
            let log = OrderLog::default();
            held(&mut sim, "g", a, b, hold, &log);
            // `a` follows `go` one delta later, after `g`'s skipped wake.
            let out = sim.driver(a);
            sim.add_component(Box::new(Repeater { input: go, out }), &[go]);
            held(&mut sim, "tail", b, b, false, &log);
            sim.run_until(Time::from_ns(4)).unwrap();
            (order(&log), sim.stats().held_wakes)
        };
        let (held, skipped) = run(true);
        assert_eq!(
            held,
            [
                (1_000, "g"),
                (1_000, "tail"),
                (1_000, "g"),
                (3_000, "tail"),
                (3_000, "g")
            ]
        );
        assert_eq!(skipped, 1);
        // Awake, `g` also evaluates the skipped wake, before `tail`.
        let (mut awake, _) = run(false);
        assert_eq!(awake.remove(3), (3_000, "g"));
        assert_eq!(held, awake);
    }

    #[test]
    fn schedule_wake_and_detach_end_a_hold() {
        use Logic::*;
        let mut sim = Simulator::new(0);
        let a = stimulus(&mut sim, "a", &[(1, L)]);
        let b = stimulus(&mut sim, "b", &[(2, H), (4, L)]);
        let log = OrderLog::default();
        let id = held(&mut sim, "g", a, b, true, &log);
        sim.run_until(Time::from_ps(2_500)).unwrap();
        assert_eq!(sim.wakes[id.0 as usize].awaited, a.0);
        // The request ends the hold at once, before its wake runs.
        sim.schedule_wake(id, Time::from_ns(3));
        assert_eq!(sim.wakes[id.0 as usize].awaited, WakeState::NOT_HELD);
        sim.run_until(Time::from_ps(3_500)).unwrap();
        assert_eq!(order(&log), [(1_000, "g"), (3_000, "g")]);
        assert_eq!(sim.wakes[id.0 as usize].awaited, a.0);
        sim.detach_component(id);
        assert_eq!(sim.wakes[id.0 as usize].awaited, WakeState::NOT_HELD);
        sim.run_until(Time::from_ns(5)).unwrap();
        assert_eq!(sim.stats().held_wakes, 1);
    }

    /// Each evaluation after the first: its instant in ps, the name and
    /// the [`Ctx::rose`] answer.
    type SampleLog = Rc<RefCell<Vec<(u64, &'static str, bool)>>>;

    /// A flop-like probe: logs each evaluation, sets its listen rule on
    /// every one, and sleeps from 1 ps after each rising evaluation.
    struct Sampler {
        name: &'static str,
        clk: NetId,
        seen: Time,
        span: Time,
        data_margin: Option<Time>,
        started: bool,
        log: SampleLog,
    }

    impl Component for Sampler {
        fn eval(&mut self, ctx: &mut Ctx<'_>) {
            let rose = ctx.rose(self.clk, &mut self.seen);
            if self.started {
                self.log
                    .borrow_mut()
                    .push((ctx.now().as_ps(), self.name, rose));
                if rose {
                    ctx.sleep_from(ctx.now() + Time::from_ps(1));
                }
            }
            self.started = true;
            ctx.listen_for(self.span, self.data_margin);
        }
    }

    /// Registers a [`Sampler`] on `clk` with sampled `control` and `data`
    /// pins, or, unless `sampled`, the same probe watching them on every
    /// change.
    #[allow(clippy::too_many_arguments)]
    fn sampler(
        sim: &mut Simulator,
        sampled: bool,
        clk: NetId,
        control: &[NetId],
        data: &[NetId],
        span: Time,
        data_margin: Option<Time>,
        log: &SampleLog,
    ) -> ComponentId {
        let probe = Sampler {
            name: "flop",
            clk,
            seen: Time::MAX,
            span,
            data_margin,
            started: false,
            log: log.clone(),
        };
        if sampled {
            sim.add_sampling_component(Box::new(probe), clk, control, data)
        } else {
            let watch: Vec<NetId> = control.iter().chain(data).copied().collect();
            sim.add_clocked_component(Box::new(probe), &[clk], &watch)
        }
    }

    /// Logs each evaluation after the first under its name.
    struct Tail {
        name: &'static str,
        started: bool,
        log: SampleLog,
    }

    impl Component for Tail {
        fn eval(&mut self, ctx: &mut Ctx<'_>) {
            if self.started {
                self.log
                    .borrow_mut()
                    .push((ctx.now().as_ps(), self.name, false));
            }
            self.started = true;
        }
    }

    #[test]
    fn a_rise_after_a_skipped_sampled_change_runs_at_the_reserved_number() {
        use Logic::*;
        let run = |sampled: bool| {
            let mut sim = Simulator::new(0);
            // Queued first, so at 4 ns `d` moves before the clock rises.
            let d = stimulus(&mut sim, "d", &[(1, L), (4, H)]);
            let clk = clock(&mut sim, &[2, 4]);
            let log = SampleLog::default();
            sampler(&mut sim, sampled, clk, &[], &[d], Time::ZERO, None, &log);
            // Woken by `d` right after the sampler's would-be wake.
            let tail = Tail {
                name: "tail",
                started: false,
                log: log.clone(),
            };
            sim.add_component(Box::new(tail), &[d]);
            sim.run_until(Time::from_ns(6)).unwrap();
            let log = log.borrow().clone();
            (log, sim.stats())
        };
        let (sampled, stats) = run(true);
        let (mut watched, watched_stats) = run(false);
        // The data change at 4 ns is skipped and its number reserved; the
        // rise that would have coalesced into it runs there, ahead of
        // `tail`, as with an every-change watch.
        assert_eq!(
            sampled,
            [
                (1_000, "tail", false),
                (2_000, "flop", true),
                (4_000, "flop", true),
                (4_000, "tail", false)
            ]
        );
        // Watched on every change, the flop also evaluates `d` at 1 ns,
        // for nothing.
        assert_eq!(watched.remove(0), (1_000, "flop", false));
        assert_eq!(sampled, watched);
        assert_eq!(stats.sampled_wakes, 2);
        assert_eq!(stats.events_processed + 1, watched_stats.events_processed);
        assert_eq!(stats.coalesced_wakes, watched_stats.coalesced_wakes);
    }

    #[test]
    fn a_change_in_the_hold_window_of_a_slept_rise_wakes_the_sampler() {
        let mut sim = Simulator::new(0);
        let clk = clock(&mut sim, &[2, 4, 6, 8]);
        let d = stimulus(&mut sim, "d", &[(1, Logic::L)]);
        let dd = sim.driver(d);
        // 200 ps after the slept rise at 4 ns, then 800 ps after the
        // delivered one at 6 ns.
        sim.drive_at(dd, d, Logic::H, Time::from_ps(4_200));
        sim.drive_at(dd, d, Logic::L, Time::from_ps(6_800));
        let log = SampleLog::default();
        let span = Time::from_ps(500);
        sampler(&mut sim, true, clk, &[], &[d], span, None, &log);
        sim.run_until(Time::from_ns(10)).unwrap();
        assert_eq!(
            *log.borrow(),
            [
                (2_000, "flop", true),
                (4_200, "flop", false),
                (6_000, "flop", true),
                (8_000, "flop", true)
            ]
        );
        let stats = sim.stats();
        // Slept: the rise at 4 ns. Skipped: `d` at 1 ns and 6.8 ns; that
        // one ends the sleep, so the rise at 8 ns is delivered.
        assert_eq!((stats.slept_wakes, stats.sampled_wakes), (1, 2));
    }

    #[test]
    fn a_data_margin_moves_the_sleep_and_a_control_change_ends_it() {
        let mut sim = Simulator::new(0);
        let clk = clock(&mut sim, &[2, 4, 6, 8, 10]);
        let d = stimulus(&mut sim, "d", &[(1, Logic::L)]);
        let en = stimulus(&mut sim, "en", &[(1, Logic::L)]);
        let (dd, de) = (sim.driver(d), sim.driver(en));
        sim.drive_at(dd, d, Logic::H, Time::from_ps(4_500));
        sim.drive_at(de, en, Logic::H, Time::from_ps(8_500));
        let log = SampleLog::default();
        let margin = Some(Time::from_ps(2_000));
        sampler(&mut sim, true, clk, &[en], &[d], Time::ZERO, margin, &log);
        sim.run_until(Time::from_ns(12)).unwrap();
        // Asleep from 2 ns: `d` at 4.5 ns moves the sleep start to 6.5 ns,
        // so the rise at 6 ns is delivered; `en` at 8.5 ns ends the sleep
        // that rise began, so the one at 10 ns is too.
        assert_eq!(
            *log.borrow(),
            [
                (2_000, "flop", true),
                (6_000, "flop", true),
                (10_000, "flop", true)
            ]
        );
        let stats = sim.stats();
        assert_eq!((stats.slept_wakes, stats.sampled_wakes), (2, 4));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "queued ahead of the rise its watcher")]
    fn an_input_queued_ahead_of_a_slept_rise_is_refused() {
        let mut sim = Simulator::new(0);
        let clk = clock(&mut sim, &[2, 4]);
        // Queued before the sleeper's wake for the 4 ns rise could be.
        let d = stimulus(&mut sim, "d", &[(4, Logic::H)]);
        let _ = sleeper(&mut sim, clk, &[d], Time::ZERO);
        let _ = sim.run_until(Time::from_ns(6));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "fell in the instant")]
    fn a_fall_in_the_instant_of_a_slept_rise_is_refused() {
        use Logic::*;
        let mut sim = Simulator::new(0);
        let clk = stimulus(&mut sim, "clk", &[(1, L), (2, H), (3, L), (4, H), (4, L)]);
        let _ = sleeper(&mut sim, clk, &[], Time::ZERO);
        let _ = sim.run_until(Time::from_ns(6));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "became H after another change")]
    fn a_rise_after_another_change_in_one_instant_is_refused() {
        use Logic::*;
        let mut sim = Simulator::new(0);
        let clk = stimulus(&mut sim, "clk", &[(1, L), (2, H), (3, L), (3, H)]);
        let _ = edge_probe(&mut sim, &[clk], &[clk], &[]);
        let _ = sim.run_until(Time::from_ns(4));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "scheduled through both Simulator::drive_at and Ctx::drive")]
    fn a_driver_takes_one_scheduling_call() {
        let mut sim = Simulator::new(0);
        let n = sim.net("n");
        let d = sim.driver(n);
        sim.drive_at(d, n, Logic::L, Time::ZERO);
        sim.drive_in(d, Logic::H, Time::from_ps(100));
    }
}
