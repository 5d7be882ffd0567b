//! Word-wide data-path cells: registers, transparent latches, tri-state
//! drivers.
//!
//! Modelling a W-bit register as one component (rather than W flip-flops)
//! keeps event counts proportional to *changes* rather than width, which
//! matters for the 16-place × 16-bit FIFO sweeps of Table 1. Structurally
//! each word cell is still recorded as a single [`Instance`] whose pin
//! lists carry the full width, so the timing analyser sees the real
//! enable/clock loading.
//!
//! [`Instance`]: crate::Instance

use mtf_sim::{Component, Ctx, DriverId, Logic, LogicVec, NetId, Time, Violation, ViolationKind};

use crate::kind::CellKind;
use crate::netlist::DelayTable;
use crate::seq::{captured, quiet_from, setup_violation};
use crate::tristate::TriBuf;

/// The clocking rules of a word register — the power-on drive, the
/// enable match, `Z`→`X` capture and the setup check on the data pins —
/// shared by [`RegisterWord`] and the compiled engine. The caller detects
/// the clock edge, reads the pins and drives Q. There is no hold check
/// and no check on the enable; the setup check is always on, and an edge
/// with the enable low checks nothing on the data pins.
pub(crate) struct WordFlopCore {
    name: String,
    en: Option<NetId>,
    d: Vec<NetId>,
    setup: Time,
    pub(crate) state: LogicVec,
    started: bool,
    /// Whether the enable was `L` at the last edge.
    disabled: bool,
}

impl WordFlopCore {
    pub(crate) fn new(name: String, en: Option<NetId>, d: Vec<NetId>, setup: Time) -> Self {
        WordFlopCore {
            name,
            en,
            state: LogicVec::unknown(d.len()),
            d,
            setup,
            started: false,
            disabled: false,
        }
    }

    /// Runs one evaluation; `rising` says whether the clock rose for this
    /// register now (the first evaluation ignores it). Returns whether Q
    /// must be driven with `state` after clock-to-Q: on the first
    /// evaluation and on every capturing edge. `en` reads the enable (only
    /// if the cell has one) and `d` data bit `i`; each is called only when
    /// an edge needs it.
    pub(crate) fn step(
        &mut self,
        ctx: &mut Ctx<'_>,
        rising: bool,
        en: impl FnOnce(&Ctx<'_>, NetId) -> Logic,
        mut d: impl FnMut(&Ctx<'_>, usize, NetId) -> Logic,
    ) -> bool {
        let now = ctx.now();
        if !self.started {
            self.started = true;
            return true;
        }
        if !rising {
            return false;
        }
        let enabled = self.en.map_or(Logic::H, |n| en(ctx, n));
        self.disabled = enabled == Logic::L;
        match enabled {
            Logic::L => false,
            Logic::H => {
                // Only the first offending bit is reported.
                let mut late = self.d.iter();
                if let Some(gap) = late.find_map(|&n| setup_violation(ctx, n, now, self.setup)) {
                    ctx.report(Violation {
                        kind: ViolationKind::Setup,
                        time: now,
                        source: self.name.clone(),
                        message: format!("data bit changed {gap} before edge"),
                    });
                }
                for (i, &n) in self.d.iter().enumerate() {
                    self.state.set_bit(i, captured(d(ctx, i, n)));
                }
                true
            }
            _ => {
                self.state = LogicVec::unknown(self.d.len());
                true
            }
        }
    }

    /// [`quiet_from`] for this register after an edge at `now`: the
    /// margin is the setup window. The data pins count only if the
    /// enable was not low: with it low, no later edge reads them.
    pub(crate) fn quiet_from(&self, ctx: &Ctx<'_>, now: Time, cq: Time) -> Time {
        let d: &[NetId] = if self.disabled { &[] } else { &self.d };
        let inputs = self.en.iter().chain(d).copied();
        quiet_from(ctx, inputs, self.setup, now, cq)
    }

    /// The register's data rule for [`Ctx::listen_for`]: after an edge
    /// with the enable low, a data change leaves a sleep as it is (no
    /// later edge with the enable unchanged reads the data); otherwise it
    /// ends it.
    pub(crate) fn data_margin(&self) -> Option<Time> {
        self.disabled.then_some(Time::ZERO)
    }
}

/// A W-bit positive-edge register with a shared synchronous enable — the
/// `REG` block of the paper's FIFO cell (Fig. 5), which latches
/// `data_put` plus the validity bit when the cell holds the put token.
///
/// Its enable and data pins are sampled
/// ([`Simulator::add_sampling_component`](mtf_sim::Simulator::add_sampling_component))
/// with an empty listen window: with no hold check, an evaluation between
/// edges does nothing.
pub struct RegisterWord {
    core: WordFlopCore,
    clk: NetId,
    /// The last clock rise this register consumed (see [`Ctx::rose`]).
    seen: Time,
    q: Vec<DriverId>,
    delays: DelayTable,
    inst: usize,
}

impl std::fmt::Debug for RegisterWord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegisterWord")
            .field("name", &self.core.name)
            .field("width", &self.q.len())
            .finish()
    }
}

impl RegisterWord {
    /// Creates the behavioural half of a word-register instance.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        clk: NetId,
        en: Option<NetId>,
        d: Vec<NetId>,
        q: Vec<DriverId>,
        setup: Time,
        delays: DelayTable,
        inst: usize,
    ) -> Self {
        assert_eq!(d.len(), q.len(), "d/q width mismatch");
        RegisterWord {
            core: WordFlopCore::new(name.into(), en, d, setup),
            clk,
            seen: Time::MAX,
            q,
            delays,
            inst,
        }
    }
}

impl Component for RegisterWord {
    fn name(&self) -> &str {
        &self.core.name
    }

    fn kind(&self) -> &'static str {
        CellKind::Register.name()
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let rising = ctx.rose(self.clk, &mut self.seen);
        // The first evaluation ignores `rising`: it only drives the
        // power-on state.
        let edge = rising && self.core.started;
        let cq = self.delays.borrow()[self.inst];
        if self
            .core
            .step(ctx, rising, |ctx, n| ctx.get(n), |ctx, _, n| ctx.get(n))
        {
            for (i, &drv) in self.q.iter().enumerate() {
                ctx.drive(drv, self.core.state.bit(i), cq);
            }
        }
        // Every later edge with the enable and data unchanged repeats
        // this one.
        if edge {
            let from = self.core.quiet_from(ctx, ctx.now(), cq);
            ctx.sleep_from(from);
        }
        ctx.listen_for(Time::ZERO, self.core.data_margin());
    }
}

/// A W-bit transparent latch with a shared enable — the write port of the
/// async-sync cell's register, which latches while the `we` pulse is high
/// (the bundled-data convention guarantees the data bus is stable for the
/// whole pulse).
///
/// While the enable is `L` an evaluation drives nothing, so the latch
/// waits for the enable alone ([`Ctx::sleep_until_change`]).
pub struct LatchWord {
    name: String,
    en: NetId,
    d: Vec<NetId>,
    q: Vec<DriverId>,
    state: LogicVec,
    delays: DelayTable,
    inst: usize,
}

impl std::fmt::Debug for LatchWord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatchWord")
            .field("name", &self.name)
            .field("width", &self.d.len())
            .finish()
    }
}

impl LatchWord {
    /// Creates the behavioural half of a word-latch instance.
    pub fn new(
        name: impl Into<String>,
        en: NetId,
        d: Vec<NetId>,
        q: Vec<DriverId>,
        delays: DelayTable,
        inst: usize,
    ) -> Self {
        let width = d.len();
        assert_eq!(width, q.len(), "d/q width mismatch");
        LatchWord {
            name: name.into(),
            en,
            d,
            q,
            state: LogicVec::unknown(width),
            delays,
            inst,
        }
    }

    /// What one bit drives, if anything, with the enable at `en`, the
    /// data bit at `d` and the bit's state at `state` (which becomes the
    /// driven value). Transparent at `H`, following the data, still
    /// pending `Z` included; opaque at `L`; with an `X` or `Z` enable, `X`
    /// unless the data equal a definite state.
    pub(crate) fn next_bit(en: Logic, d: Logic, state: Logic) -> Option<Logic> {
        match en {
            Logic::H => Some(d),
            Logic::L => None,
            _ if d != state || !d.is_definite() => Some(Logic::X),
            _ => None,
        }
    }
}

impl Component for LatchWord {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &'static str {
        CellKind::LatchWord.name()
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let en = ctx.get(self.en);
        if en == Logic::L {
            // Opaque: nothing to drive whatever the data do.
            ctx.sleep_until_change(self.en);
            return;
        }
        let delay = self.delays.borrow()[self.inst];
        for (i, &dn) in self.d.iter().enumerate() {
            if let Some(v) = Self::next_bit(en, ctx.get(dn), self.state.bit(i)) {
                self.state.set_bit(i, v);
                ctx.drive(self.q[i], v, delay);
            }
        }
    }
}

/// A W-bit tri-state driver bank with a shared enable — the read port a
/// FIFO cell uses to broadcast its word on the common `get_data` bus.
///
/// Once every bit's drive was elided with the enable not `H`, its output
/// no longer depends on the data, so the bank waits for the enable alone
/// ([`Ctx::sleep_until_change`]).
pub struct TriWord {
    name: String,
    en: NetId,
    d: Vec<NetId>,
    out: Vec<DriverId>,
    delays: DelayTable,
    inst: usize,
}

impl std::fmt::Debug for TriWord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TriWord")
            .field("name", &self.name)
            .field("width", &self.d.len())
            .finish()
    }
}

impl TriWord {
    /// Creates the behavioural half of a word tri-state instance.
    pub fn new(
        name: impl Into<String>,
        en: NetId,
        d: Vec<NetId>,
        out: Vec<DriverId>,
        delays: DelayTable,
        inst: usize,
    ) -> Self {
        assert_eq!(d.len(), out.len(), "d/out width mismatch");
        TriWord {
            name: name.into(),
            en,
            d,
            out,
            delays,
            inst,
        }
    }
}

impl Component for TriWord {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &'static str {
        CellKind::TriWord.name()
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let en = ctx.get(self.en);
        let delay = self.delays.borrow()[self.inst];
        let mut elided = true;
        for (i, &dn) in self.d.iter().enumerate() {
            let v = TriBuf::output_value(en, ctx.get(dn));
            elided &= ctx.drive(self.out[i], v, delay);
        }
        if elided && TriBuf::enable_holds(en) {
            ctx.sleep_until_change(self.en);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comb::level_vectors;

    /// Every data level and state of a bit: an enable at `L`, the
    /// latch's held input, leaves the bit as it is and drives nothing,
    /// whatever the data. (Bits are independent, so one covers a word.)
    #[test]
    fn a_low_enable_holds_the_latch() {
        for v in level_vectors(2) {
            assert_eq!(LatchWord::next_bit(Logic::L, v[0], v[1]), None, "{v:?}");
        }
    }

    /// Every enable and data word of one or two bits: where the enable
    /// holds, every data word gives the same output.
    #[test]
    fn a_holding_enable_fixes_the_tri_word() {
        for n in 1..=2 {
            let all = level_vectors(n + 1);
            let out = |v: &[Logic]| -> Vec<Logic> {
                v[1..]
                    .iter()
                    .map(|&d| TriBuf::output_value(v[0], d))
                    .collect()
            };
            for v in all.iter().filter(|v| TriBuf::enable_holds(v[0])) {
                for w in all.iter().filter(|w| w[0] == v[0]) {
                    assert_eq!(out(v), out(w), "{v:?} vs {w:?}");
                }
            }
        }
    }
}
