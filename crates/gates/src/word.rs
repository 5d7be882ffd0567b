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

use crate::netlist::DelayTable;
use crate::seq::{captured, clock_rose, setup_violation};
use crate::tristate::TriBuf;

/// The clocking rules of a word register — edge detection, the enable
/// match, `Z`→`X` capture and the setup check on the data pins — shared
/// by [`RegisterWord`] and the compiled engine. The caller reads the pins
/// and drives Q. There is no hold check and no check on the enable; the
/// setup check is always on.
pub(crate) struct WordFlopCore {
    name: String,
    en: Option<NetId>,
    d: Vec<NetId>,
    setup: Time,
    pub(crate) state: LogicVec,
    prev_clk: Logic,
    initialised: bool,
}

impl WordFlopCore {
    pub(crate) fn new(name: String, en: Option<NetId>, d: Vec<NetId>, setup: Time) -> Self {
        WordFlopCore {
            name,
            en,
            state: LogicVec::unknown(d.len()),
            d,
            setup,
            prev_clk: Logic::X,
            initialised: false,
        }
    }

    /// Runs one evaluation on the sampled clock `clk` and returns whether
    /// Q must be driven with `state` after clock-to-Q: on the first
    /// evaluation and on every capturing edge. `en` reads the enable (only
    /// if the cell has one) and `d` data bit `i`; each is called only when
    /// an edge needs it.
    pub(crate) fn step(
        &mut self,
        ctx: &mut Ctx<'_>,
        clk: Logic,
        en: impl FnOnce(&Ctx<'_>, NetId) -> Logic,
        mut d: impl FnMut(&Ctx<'_>, usize, NetId) -> Logic,
    ) -> bool {
        let now = ctx.now();
        let rising = clock_rose(&mut self.prev_clk, clk);
        if !self.initialised {
            self.initialised = true;
            return true;
        }
        if !rising {
            return false;
        }
        match self.en.map_or(Logic::H, |n| en(ctx, n)) {
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
}

/// A W-bit positive-edge register with a shared synchronous enable — the
/// `REG` block of the paper's FIFO cell (Fig. 5), which latches
/// `data_put` plus the validity bit when the cell holds the put token.
pub struct RegisterWord {
    core: WordFlopCore,
    clk: NetId,
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

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let clk = ctx.get(self.clk);
        if self
            .core
            .step(ctx, clk, |ctx, n| ctx.get(n), |ctx, _, n| ctx.get(n))
        {
            let cq = self.delays.borrow()[self.inst];
            for (i, &drv) in self.q.iter().enumerate() {
                ctx.drive(drv, self.core.state.bit(i), cq);
            }
        }
    }
}

/// A W-bit transparent latch with a shared enable — the write port of the
/// async-sync cell's register, which latches while the `we` pulse is high
/// (the bundled-data convention guarantees the data bus is stable for the
/// whole pulse).
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
}

impl Component for LatchWord {
    fn name(&self) -> &str {
        &self.name
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let en = ctx.get(self.en);
        let delay = self.delays.borrow()[self.inst];
        match en {
            Logic::H => {
                // Transparent: follow the data, including still-pending Z.
                for (i, &dn) in self.d.iter().enumerate() {
                    let v = ctx.get(dn);
                    self.state.set_bit(i, v);
                    ctx.drive(self.q[i], v, delay);
                }
            }
            Logic::L => {} // opaque: outputs hold
            _ => {
                for (i, &dn) in self.d.iter().enumerate() {
                    let v = ctx.get(dn);
                    if v != self.state.bit(i) || !v.is_definite() {
                        self.state.set_bit(i, Logic::X);
                        ctx.drive(self.q[i], Logic::X, delay);
                    }
                }
            }
        }
    }
}

/// A W-bit tri-state driver bank with a shared enable — the read port a
/// FIFO cell uses to broadcast its word on the common `get_data` bus.
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

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let en = ctx.get(self.en);
        let delay = self.delays.borrow()[self.inst];
        for (i, &dn) in self.d.iter().enumerate() {
            let v = TriBuf::output_value(en, ctx.get(dn));
            ctx.drive(self.out[i], v, delay);
        }
    }
}
