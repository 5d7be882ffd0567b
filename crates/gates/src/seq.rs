//! Sequential single-bit cells: D flip-flop (with optional enable) and
//! SR latch.

use mtf_sim::{Component, Ctx, DriverId, Logic, MetaModel, NetId, Time, Violation, ViolationKind};

use crate::kind::CellKind;
use crate::netlist::{DelayTable, FlopTiming};

/// What an edge-triggered core asks its scheduler to drive on Q. The
/// value is the core's `state` after the step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Drive {
    /// First evaluation: the power-on state, with no delay.
    Init,
    /// An enabled edge captured the data pin; drive after clock-to-Q.
    Data,
    /// An edge with an unknown enable captured `X`; drive after
    /// clock-to-Q.
    Unknown,
    /// An input moved inside the metastability window: `X` after
    /// clock-to-Q, and the caller settles it.
    Metastable,
}

/// The value a flop stores when it samples `v`: an undriven (`Z`) input
/// is captured as `X`.
pub(crate) fn captured(v: Logic) -> Logic {
    if v == Logic::Z {
        Logic::X
    } else {
        v
    }
}

/// How long before the edge at `now` the input `net` last changed, if
/// that is inside the `setup` window.
pub(crate) fn setup_violation(ctx: &Ctx<'_>, net: NetId, now: Time, setup: Time) -> Option<Time> {
    let ch = ctx.last_change(net);
    (ch < now && now - ch < setup).then(|| now - ch)
}

/// The instant from which a cell that evaluated a clock edge at `now`,
/// drove Q after `cq` (if at all) and has no settle pending may sleep
/// (see [`Ctx::sleep_from`]): `margin` after the last change of any of
/// its `inputs`, and after its own Q drive has landed. A later edge with
/// the inputs unchanged is then out of every setup and metastability
/// window, captures the value already on Q, and its drive is elided.
pub(crate) fn quiet_from(
    ctx: &Ctx<'_>,
    inputs: impl IntoIterator<Item = NetId>,
    margin: Time,
    now: Time,
    cq: Time,
) -> Time {
    let settled = inputs
        .into_iter()
        .map(|n| ctx.last_change(n) + margin)
        .fold(Time::ZERO, Time::max);
    settled.max(now + cq + Time::from_ps(1))
}

/// The clocking rules of a single-bit edge-triggered cell — the power-on
/// drive, the enable match, `Z`→`X` capture and the setup/hold checks —
/// shared by [`Dff`] and the compiled engine. The caller detects the
/// clock edge, reads the pins and drives Q.
pub(crate) struct BitFlopCore {
    name: String,
    d: NetId,
    en: Option<NetId>,
    timing: FlopTiming,
    pub(crate) state: Logic,
    started: bool,
    last_captured: bool,
}

impl BitFlopCore {
    pub(crate) fn new(
        name: String,
        d: NetId,
        en: Option<NetId>,
        init: Logic,
        timing: FlopTiming,
    ) -> Self {
        BitFlopCore {
            name,
            d,
            en,
            timing,
            state: init,
            started: false,
            last_captured: false,
        }
    }

    /// Runs one evaluation; `rising` says whether the clock rose for this
    /// cell now (the first evaluation ignores it), and `last_rise` is the
    /// latest rise the cell consumed (`Time::MAX` if none), the hold
    /// check's reference. `en` and `d` read the enable and data pins; each
    /// is called only when a rising edge needs it (`en` only if the cell
    /// has an enable). Setup and hold reports go to `ctx`; `meta` decides
    /// which input changes make the sample metastable.
    pub(crate) fn step(
        &mut self,
        ctx: &mut Ctx<'_>,
        rising: bool,
        last_rise: Time,
        meta: &MetaModel,
        en: impl FnOnce(&Ctx<'_>, NetId) -> Logic,
        d: impl FnOnce(&Ctx<'_>, NetId) -> Logic,
    ) -> Option<Drive> {
        let now = ctx.now();
        if !self.started {
            self.started = true;
            // Establish the power-on output immediately: the state has
            // been on the output since t = 0 (see CElement::eval for why a
            // delayed initial drive is hazardous).
            return Some(Drive::Init);
        }
        let inputs = [Some(self.d), self.en];
        if !rising {
            // Hold check: a sampled input moved just after a capturing
            // edge. (`last_captured` stays false until an edge is
            // evaluated, so a rise consumed by the first evaluation never
            // counts.)
            let edge = last_rise;
            if self.timing.check_timing
                && self.last_captured
                && now > edge
                && now - edge < self.timing.hold
                && inputs.iter().flatten().any(|&n| ctx.last_change(n) == now)
            {
                ctx.report(Violation {
                    kind: ViolationKind::Hold,
                    time: now,
                    source: self.name.clone(),
                    message: format!(
                        "data changed {} after edge (hold {})",
                        now - edge,
                        self.timing.hold
                    ),
                });
            }
            return None;
        }
        let enabled = self.en.map_or(Logic::H, |n| en(ctx, n));
        let vulnerable = inputs.iter().flatten().any(|&n| {
            let ch = ctx.last_change(n);
            meta.is_vulnerable(ch, now) && ch != Time::ZERO
        });
        if vulnerable {
            self.state = Logic::X;
            self.last_captured = true;
            return Some(Drive::Metastable);
        }
        // Plain setup report (data changed close to, but outside, the
        // metastability window).
        if self.timing.check_timing {
            for &net in inputs.iter().flatten() {
                if let Some(gap) = setup_violation(ctx, net, now, self.timing.setup) {
                    ctx.report(Violation {
                        kind: ViolationKind::Setup,
                        time: now,
                        source: self.name.clone(),
                        message: format!(
                            "data changed {gap} before edge (setup {})",
                            self.timing.setup
                        ),
                    });
                }
            }
        }
        match enabled {
            Logic::H => {
                self.last_captured = true;
                self.state = captured(d(ctx, self.d));
                Some(Drive::Data)
            }
            Logic::L => {
                self.last_captured = false;
                None
            }
            _ => {
                self.last_captured = true;
                self.state = Logic::X;
                Some(Drive::Unknown)
            }
        }
    }

    /// How long before an edge an input change can still matter to it:
    /// the setup window (when checked) and half the metastability window
    /// plus 1 ps (when `meta` has one).
    fn margin(&self, meta: &MetaModel) -> Time {
        let setup = if self.timing.check_timing {
            self.timing.setup
        } else {
            Time::ZERO
        };
        let window = if meta.window > Time::ZERO {
            Time::from_ps(meta.window.as_ps() / 2 + 1)
        } else {
            Time::ZERO
        };
        setup.max(window)
    }

    /// [`quiet_from`] for this cell after an edge at `now`, with
    /// [`BitFlopCore::margin`] as the input margin.
    pub(crate) fn quiet_from(&self, ctx: &Ctx<'_>, meta: &MetaModel, now: Time, cq: Time) -> Time {
        let inputs = [Some(self.d), self.en].into_iter().flatten();
        quiet_from(ctx, inputs, self.margin(meta), now, cq)
    }

    /// The cell's [`Ctx::listen_for`] rule when no settle is pending. Only
    /// the hold check reads a pin between edges, so the window is the
    /// hold span, and only while timing is checked and the last edge
    /// captured. When the enable was low at the last edge, later edges
    /// with the enable unchanged capture nothing, so a data change
    /// matters only to the edges within the input margin after it.
    pub(crate) fn listen(&self, meta: &MetaModel) -> (Time, Option<Time>) {
        let span = if self.timing.check_timing && self.last_captured {
            self.timing.hold
        } else {
            Time::ZERO
        };
        // A rule the kernel applies only during a sleep, which starts at
        // an edge: `last_captured` is then that edge's.
        let disabled = self.en.is_some() && !self.last_captured;
        (span, disabled.then(|| self.margin(meta)))
    }
}

/// A positive-edge D flip-flop, optionally with a synchronous enable (the
/// paper's ETDFF — the token-passing registers of the FIFO cells).
///
/// Behaviour beyond the textbook truth table:
///
/// * **Setup/hold checking** — if the data (or enable) input changes within
///   `setup` before or `hold` after a sampling edge, a
///   [`ViolationKind::Setup`]/[`ViolationKind::Hold`] report is recorded.
///   The fmax measurement in `mtf-bench` relies on these reports.
/// * **Metastability** — if an input changes inside the [`MetaModel`]
///   window around the edge, the output goes `X`, a
///   [`ViolationKind::Metastability`] report is recorded, and after an
///   exponentially-distributed settling time the output resolves to a
///   *random* definite value. This is how the synchronizer chains built
///   from these flops exhibit the failures the paper's design guards
///   against.
pub struct Dff {
    core: BitFlopCore,
    clk: NetId,
    /// The last clock rise this flop consumed (see [`Ctx::rose`]).
    seen: Time,
    q: DriverId,
    meta: MetaModel,
    /// A metastable output's settle: (instant, resolved value).
    pending: Option<(Time, Logic)>,
    delays: DelayTable,
    inst: usize,
}

impl std::fmt::Debug for Dff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dff")
            .field("name", &self.core.name)
            .field("state", &self.core.state)
            .finish()
    }
}

/// Everything needed to instantiate a [`Dff`]; filled in by
/// [`Builder`](crate::Builder).
#[derive(Debug)]
pub struct DffConfig {
    /// Instance name.
    pub name: String,
    /// Clock net.
    pub clk: NetId,
    /// Data net.
    pub d: NetId,
    /// Optional synchronous enable net.
    pub en: Option<NetId>,
    /// Output driver.
    pub q: DriverId,
    /// Power-on state.
    pub init: Logic,
    /// Metastability model ([`MetaModel::ideal`] disables it).
    pub meta: MetaModel,
    /// Setup/hold rules.
    pub timing: FlopTiming,
    /// Shared delay table.
    pub delays: DelayTable,
    /// This instance's index in the delay table.
    pub inst: usize,
}

impl Dff {
    /// Creates the behavioural half of a flip-flop instance.
    pub fn new(cfg: DffConfig) -> Self {
        Dff {
            core: BitFlopCore::new(cfg.name, cfg.d, cfg.en, cfg.init, cfg.timing),
            clk: cfg.clk,
            seen: Time::MAX,
            q: cfg.q,
            meta: cfg.meta,
            pending: None,
            delays: cfg.delays,
            inst: cfg.inst,
        }
    }

    /// Sets the listen window: every change while a settle is pending,
    /// else the core's rule.
    fn listen(&self, ctx: &mut Ctx<'_>) {
        let (span, data_margin) = if self.pending.is_some() {
            (Time::MAX, None)
        } else {
            self.core.listen(&self.meta)
        };
        ctx.listen_for(span, data_margin);
    }
}

impl Component for Dff {
    fn name(&self) -> &str {
        &self.core.name
    }

    fn kind(&self) -> &'static str {
        if self.core.en.is_some() {
            CellKind::Etdff.name()
        } else {
            CellKind::Dff.name()
        }
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();

        // Resolve a pending metastable settle first.
        if let Some((at, v)) = self.pending {
            if now >= at {
                self.pending = None;
                self.core.state = v;
                ctx.drive(self.q, v, Time::ZERO);
            }
        }

        let rising = ctx.rose(self.clk, &mut self.seen);
        let read = |ctx: &Ctx<'_>, net| ctx.get(net);
        let drive = self
            .core
            .step(ctx, rising, self.seen, &self.meta, read, read);
        if drive == Some(Drive::Init) {
            ctx.drive(self.q, self.core.state, Time::ZERO);
            self.listen(ctx);
            return;
        }
        let cq = self.delays.borrow()[self.inst];
        if let Some(drive) = drive {
            if drive == Drive::Metastable {
                ctx.report(Violation {
                    kind: ViolationKind::Metastability,
                    time: now,
                    source: self.core.name.clone(),
                    message: "input moved inside the metastability window".into(),
                });
            }
            self.pending = None;
            ctx.drive(self.q, self.core.state, cq);
            // A synchronizer stage that captures a still-metastable (X)
            // input goes metastable itself and resolves per its own
            // settling model — this is what makes deeper synchronizer
            // chains exponentially safer (E8).
            let captured_x = drive == Drive::Data
                && self.core.state == Logic::X
                && self.meta.window > Time::ZERO;
            if drive == Drive::Metastable || captured_x {
                let settle = self.meta.draw_settle(ctx.rng());
                let resolved = self.meta.draw_resolution(ctx.rng());
                self.pending = Some((now + cq + settle, resolved));
                ctx.wake_in(cq + settle);
            }
        }
        // Every later edge with `d` and `en` unchanged repeats this one,
        // unless this one left a settle to resolve.
        if rising && self.pending.is_none() {
            let from = self.core.quiet_from(ctx, &self.meta, now, cq);
            ctx.sleep_from(from);
        }
        self.listen(ctx);
    }
}

/// A set/reset latch (the mixed-clock cell's data-validity controller).
///
/// `s` high sets, `r` high resets, both low holds. The simultaneous case
/// is configurable: a plain latch drives `X` (invalid), while a
/// **set-dominant** latch stays set — which is what the FIFO cells need,
/// because the get side's synchronization staleness can fire a harmless
/// spurious read pulse into a cell whose put is still in progress; the
/// put must win or the item is lost.
pub struct SrLatch {
    name: String,
    s: NetId,
    r: NetId,
    q: DriverId,
    qn: Option<DriverId>,
    state: Logic,
    set_dominant: bool,
    started: bool,
    delays: DelayTable,
    inst: usize,
}

impl std::fmt::Debug for SrLatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SrLatch")
            .field("name", &self.name)
            .field("state", &self.state)
            .finish()
    }
}

impl SrLatch {
    /// Creates the behavioural half of an SR-latch instance. `qn`, when
    /// present, always carries the complement of `q`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        s: NetId,
        r: NetId,
        q: DriverId,
        qn: Option<DriverId>,
        init: Logic,
        set_dominant: bool,
        delays: DelayTable,
        inst: usize,
    ) -> Self {
        SrLatch {
            name: name.into(),
            s,
            r,
            q,
            qn,
            state: init,
            set_dominant,
            started: false,
            delays,
            inst,
        }
    }

    fn next_state(state: Logic, s: Logic, r: Logic, set_dominant: bool) -> Logic {
        use Logic::*;
        // An undriven (Z) set/reset input is *inactive*, not unknown: at
        // power-up the driving gates have not produced a value yet, and a
        // state-holding cell must not be poisoned by that. (A definite X —
        // a real conflict or metastable driver — stays pessimistic.)
        let s = if s == Z { L } else { s };
        let r = if r == Z { L } else { r };
        match (s, r) {
            (H, L) => H,
            (L, H) => L,
            (L, L) => state,
            (H, H) => {
                if set_dominant {
                    H
                } else {
                    X
                }
            }
            // An unknown control is only harmless if it cannot change the
            // state.
            (X, L) => {
                if state == H {
                    H
                } else {
                    X
                }
            }
            (L, X) => {
                if state == L {
                    L
                } else {
                    X
                }
            }
            _ => X,
        }
    }
}

impl Component for SrLatch {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &'static str {
        CellKind::SrLatch.name()
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        if !self.started {
            self.started = true;
            ctx.drive(self.q, self.state, Time::ZERO);
            if let Some(qn) = self.qn {
                ctx.drive(qn, !self.state, Time::ZERO);
            }
            return; // see CElement::eval — do not supersede the init drive
        }
        let s = ctx.get(self.s);
        let r = ctx.get(self.r);
        self.state = Self::next_state(self.state, s, r, self.set_dominant);
        let delay = self.delays.borrow()[self.inst];
        ctx.drive(self.q, self.state, delay);
        if let Some(qn) = self.qn {
            ctx.drive(qn, !self.state, delay);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Logic::*;

    #[test]
    fn sr_truth_table() {
        assert_eq!(SrLatch::next_state(L, H, L, false), H);
        assert_eq!(SrLatch::next_state(H, L, H, false), L);
        assert_eq!(SrLatch::next_state(H, L, L, false), H);
        assert_eq!(SrLatch::next_state(L, L, L, false), L);
        assert_eq!(SrLatch::next_state(L, H, H, false), X);
    }

    #[test]
    fn set_dominance_resolves_the_overlap() {
        assert_eq!(SrLatch::next_state(L, H, H, true), H);
        assert_eq!(SrLatch::next_state(H, H, H, true), H);
        // The plain cases are unchanged.
        assert_eq!(SrLatch::next_state(H, L, H, true), L);
        assert_eq!(SrLatch::next_state(L, H, L, true), H);
    }

    #[test]
    fn sr_unknowns_are_pessimistic_only_when_they_matter() {
        // X on set while already set: harmless.
        assert_eq!(SrLatch::next_state(H, X, L, false), H);
        // X on set while reset-state: might set -> X.
        assert_eq!(SrLatch::next_state(L, X, L, false), X);
        // X on reset while already reset: harmless.
        assert_eq!(SrLatch::next_state(L, L, X, false), L);
        assert_eq!(SrLatch::next_state(H, L, X, false), X);
    }
}
