//! The component trait and the evaluation context handed to components.

use rand::rngs::StdRng;

use crate::logic::{Logic, LogicVec};
use crate::net::{DriverId, NetId};
use crate::sim::{Simulator, Violation};
use crate::time::Time;

/// Identifies a component registered with a [`Simulator`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ComponentId(pub(crate) u32);

/// A behavioural element of the simulated circuit.
///
/// Everything that *does* something is a component: primitive gates and
/// flip-flops (`mtf-gates`), burst-mode and Petri-net controller engines
/// (`mtf-async`), clock generators, and the synchronous/asynchronous test
/// environments that drive the FIFOs.
///
/// A component is evaluated (its [`eval`](Component::eval) method called)
/// whenever one of the nets it was registered as watching changes resolved
/// value (or, for a rising-only watch, rises from `L` to `H`; see
/// [`Simulator::add_clocked_component`]; or, for a sampled pin, changes
/// inside the listen window; see [`Simulator::add_sampling_component`]),
/// and whenever a self-scheduled wake-up ([`Ctx::wake_in`]) fires. A
/// component that sleeps ([`Ctx::sleep_from`],
/// [`Ctx::sleep_until_change`]) skips the wakes that provably would do
/// nothing.
/// Evaluation happens at a single instant: the component reads its input
/// nets through the [`Ctx`] and schedules *future* output changes; it never
/// sees time advance inside `eval`.
pub trait Component: 'static {
    /// A short human-readable instance name, used in violation reports and
    /// debug output.
    fn name(&self) -> &str {
        "component"
    }

    /// What kind of element this is (gates give their cell kind, such as
    /// `"DFF"`): the key of [`Simulator::kind_counts`].
    fn kind(&self) -> &'static str {
        "component"
    }

    /// React to a net change or wake-up. See the trait docs for the model.
    fn eval(&mut self, ctx: &mut Ctx<'_>);
}

/// The evaluation context: a component's window onto the simulator.
///
/// Provides current time, net reads, future drive scheduling, self wake-up,
/// the shared deterministic RNG, and violation reporting.
#[derive(Debug)]
pub struct Ctx<'a> {
    pub(crate) sim: &'a mut Simulator,
    pub(crate) me: ComponentId,
}

impl<'a> Ctx<'a> {
    /// The current simulation time.
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// The resolved value of `net` at this instant.
    ///
    /// When the delta-race sanitizer is enabled
    /// ([`Simulator::enable_race_sanitizer`]), reads through here are
    /// recorded so a later same-instant change of the net can be flagged
    /// as an ordering hazard.
    pub fn get(&self, net: NetId) -> Logic {
        self.sim.note_read(self.me, net);
        self.sim.value(net)
    }

    /// Reads a multi-bit bus (`nets[0]` = LSB).
    pub fn get_vec(&self, nets: &[NetId]) -> LogicVec {
        for &n in nets {
            self.sim.note_read(self.me, n);
        }
        self.sim.value_vec(nets)
    }

    /// The instant at which `net` last changed resolved value.
    ///
    /// Flip-flops use this to detect transitions inside their setup/hold
    /// window.
    pub fn last_change(&self, net: NetId) -> Time {
        self.sim.last_change(net)
    }

    /// Whether `clk` rose (`L`→`H`) at this instant for a caller that has
    /// not yet consumed that rise: the one rising-edge predicate of every
    /// edge-triggered component. True iff all three hold:
    ///
    /// 1. `clk`'s last `L`→`H` transition is at [`Ctx::now`] (edges out of
    ///    `X` or `Z` are not rises);
    /// 2. `clk` is still `H`, so an `L`→`H`→`L` glitch within one instant
    ///    is no edge;
    /// 3. `seen`, the instant of the last rise this caller consumed, is
    ///    not `now`. A true answer sets it to `now`, so a component woken
    ///    several times in one instant (say, by two clocks rising in
    ///    different deltas) sees each rise once.
    ///
    /// The caller keeps one `seen` per clock (any start value) and calls
    /// this on every evaluation, its first included, treating the first
    /// answer as false. So a rise that is already at the first
    /// evaluation's instant is consumed, as a cell with no earlier clock
    /// sample sees no edge there, while a rise later in that instant is
    /// still an edge.
    ///
    /// Pair it with a rising-only watch on `clk`
    /// ([`Simulator::add_clocked_component`](crate::Simulator::add_clocked_component)):
    /// the kernel then wakes the component on `clk`'s rises and skips its
    /// other changes.
    ///
    /// A rise the component slept through ([`Ctx::sleep_from`]) counts as
    /// consumed: the first call after it sets `seen` to that rise, so
    /// `seen` is always the latest rise the component evaluated or slept
    /// through — the reference for a hold check.
    pub fn rose(&self, clk: NetId, seen: &mut Time) -> bool {
        self.sim.note_read(self.me, clk);
        let now = self.sim.now();
        let last = self.sim.last_rise(clk);
        if last != Time::MAX && last == self.sim.slept_rise(self.me) {
            *seen = last;
        }
        let rose = last == now && self.sim.value(clk) == Logic::H && *seen != now;
        if rose {
            *seen = now;
            self.sim.note_rise();
        }
        rose
    }

    /// Puts this component to sleep: the kernel skips its rising-only
    /// wakes at or after `at` (which must lie after now; `Time::MAX`
    /// keeps it awake) until an ordinary watch fires, a sampled pin
    /// changes (see [`Ctx::listen_for`] for what that does) or a timed
    /// wake ([`Ctx::wake_in`]) is requested. Skipped wakes are counted in
    /// [`SimStats::slept_wakes`](crate::SimStats::slept_wakes), and
    /// [`Ctx::rose`] reports the latest skipped rise as consumed.
    ///
    /// Only for a component with one rising-only net whose evaluation of
    /// every rise from `at` on, with its other inputs unchanged, would
    /// do nothing: no drive but one the kernel elides, no report and no
    /// RNG draw. Debug builds panic in the two orders this cannot
    /// reproduce: another input changed by an event queued ahead of a
    /// skipped rise's wake, and a clock that falls in the instant it rose
    /// past a sleeper.
    pub fn sleep_from(&mut self, at: Time) {
        self.sim.sleep_from(self.me, at);
    }

    /// Sets which changes of this component's sampled pins
    /// ([`Simulator::add_sampling_component`](crate::Simulator::add_sampling_component))
    /// wake it, and what the others do to its sleep; the setting lasts
    /// until the next call.
    ///
    /// A change within `span` of the clock's latest rise (delivered or
    /// slept through, its instant included) wakes the component as an
    /// every-change watch would; `Time::MAX`, the default, makes every
    /// change wake it and `Time::ZERO` none. Any other change queues no
    /// wake and only acts on a sleep ([`Ctx::sleep_from`]): a control
    /// pin's change ends it, and so does a data pin's when `data_margin`
    /// is `None`; with `Some(m)`, a data pin's change at `t` moves the
    /// sleep start to at least `t + m`.
    ///
    /// Only for a component whose evaluation at a change outside the
    /// window would do nothing: no drive, no report and no RNG draw. A
    /// data margin also needs every rise at or after `t + m`, with the
    /// control pins unchanged, to do nothing, whatever the data pins did
    /// at `t`. The skip is exact: its wake's sequence number is reserved,
    /// as for [`Ctx::sleep_until_change`].
    pub fn listen_for(&mut self, span: Time, data_margin: Option<Time>) {
        self.sim.listen_for(self.me, span, data_margin);
    }

    /// Holds this component until `net`, which it watches on every
    /// change, changes: the kernel skips the wakes its other ordinary
    /// watches would queue (counted in
    /// [`SimStats::held_wakes`](crate::SimStats::held_wakes)). The next
    /// wake of any kind ends the hold, and so does a timed wake request
    /// ([`Ctx::wake_in`]); rising-only watches are not affected. A
    /// component that already has a wake queued for this instant is not
    /// held.
    ///
    /// Only for a component whose evaluation, while `net` keeps its
    /// value, would do nothing whatever its other inputs do: no drive
    /// but one the kernel elides, no report and no RNG draw. A
    /// combinational gate qualifies after an elided drive when `net`
    /// holds its function's controlling value.
    ///
    /// The rule is exact. A skipped wake takes the sequence number it
    /// would have had, so every later event is numbered as in a run
    /// without the hold; and when `net` changes in the same instant
    /// before that wake would have run, the wake is queued at that
    /// number, so the component evaluates exactly where it would have.
    pub fn sleep_until_change(&mut self, net: NetId) {
        self.sim.sleep_until_change(self.me, net);
    }

    /// Schedules `driver` to contribute `value` after `delay`.
    ///
    /// A later call for the same driver cancels any still-pending earlier
    /// one (inertial behaviour): a pulse shorter than a gate's delay does
    /// not propagate through it. A call that repeats the driver's current
    /// contribution only cancels; it queues nothing, since the event could
    /// never change the net (counted in
    /// [`SimStats::elided_drives`](crate::SimStats::elided_drives)).
    ///
    /// A driver scheduled here must not also be scheduled through
    /// [`Simulator::drive_at`] or [`Ctx::commit_drive`]; the elision is
    /// exact only because this call owns the driver (debug builds check).
    ///
    /// Returns whether the drive was elided: then the driver holds
    /// `value` and has nothing pending.
    pub fn drive(&mut self, driver: DriverId, value: Logic, delay: Time) -> bool {
        self.sim.drive_in(driver, value, delay)
    }

    /// Schedules `driver` to contribute `value` at the current instant
    /// (still via the event queue, preserving deterministic ordering).
    /// Returns whether the drive was elided, as [`Ctx::drive`] does.
    pub fn drive_now(&mut self, driver: DriverId, value: Logic) -> bool {
        self.sim.drive_in(driver, value, Time::ZERO)
    }

    /// Applies `value` on `driver` immediately — no queue event. The net
    /// transition (value-equal skip, sanitizer note, recomputation,
    /// watcher wakes) is identical to a drive event landing at the
    /// current instant. Reserved for compiled-region engines, which have
    /// already accounted for the gate's delay in their own pending set;
    /// ordinary components should keep using [`Ctx::drive`]. The driver
    /// must be one the engine owns outright: never also scheduled through
    /// [`Ctx::drive`] or [`Simulator::drive_at`] (see the ownership rule
    /// there; debug builds check).
    pub fn commit_drive(&mut self, driver: DriverId, value: Logic) {
        self.sim.commit_drive(driver, value);
    }

    /// Accounts one compiled-region evaluation pass covering
    /// `gate_evals` inline gate/flop evaluations (surfaces in
    /// [`SimStats`](crate::SimStats)).
    pub fn note_compiled_pass(&mut self, gate_evals: u64) {
        self.sim.note_compiled_pass(gate_evals);
    }

    /// Requests a re-evaluation of this component after `delay`. The
    /// request is dropped only if it repeats the instant of the
    /// component's latest timed request (or, at zero delay, a wake still
    /// ahead in this instant); a component that may ask for one instant
    /// again after asking for an earlier one must remember what it
    /// requested, or it is woken twice there.
    pub fn wake_in(&mut self, delay: Time) {
        let t = self.sim.now() + delay;
        self.sim.schedule_wake(self.me, t);
    }

    /// The simulator's deterministic random-number generator (used by the
    /// metastability model).
    pub fn rng(&mut self) -> &mut StdRng {
        self.sim.rng()
    }

    /// Records a timing-rule violation (setup/hold, drive conflicts, …).
    ///
    /// Violations do not stop the simulation; they are collected so that
    /// experiments can assert their presence or absence — the fmax search in
    /// `mtf-bench` shrinks the clock period until violations appear.
    pub fn report(&mut self, v: Violation) {
        self.sim.record_violation(v);
    }

    /// Asks the simulator to stop at the end of the current instant.
    /// [`Simulator::run_until`] returns early; used by test environments
    /// once they have produced/consumed their quota of data items.
    pub fn request_stop(&mut self) {
        self.sim.request_stop();
    }

    /// This component's own id (useful for logging).
    pub fn id(&self) -> ComponentId {
        self.me
    }
}
