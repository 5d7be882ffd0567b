//! The netlist builder: one call places a cell both behaviourally (a
//! simulator component) and structurally (a netlist instance).

use mtf_sim::{Logic, MetaModel, NetId, Simulator, Time};

use crate::celement::{AsymCElement, CElement};
use crate::comb::{CombGate, GateFunc};
use crate::kind::CellKind;
use crate::netlist::{CellDelays, ElabInfo, FlopElab, FlopTiming, Instance, Netlist};
use crate::seq::{DLatch, Dff, DffConfig, SrLatch};
use crate::tristate::TriBuf;
use crate::word::{LatchWord, RegisterWord, TriWord};

/// Builds a circuit into a [`Simulator`], recording a [`Netlist`] as it
/// goes. See the [crate docs](crate) for an example.
///
/// Naming: every cell gets `"<scope>/<kind><n>"`; push hierarchical scopes
/// with [`Builder::push_scope`] so timing reports read like
/// `fifo/cell3/ETDFF1`.
pub struct Builder<'a> {
    sim: &'a mut Simulator,
    netlist: Netlist,
    meta: MetaModel,
    scopes: Vec<String>,
    counter: usize,
    const_lo: Option<NetId>,
    const_hi: Option<NetId>,
}

impl std::fmt::Debug for Builder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Builder")
            .field("cells", &self.netlist.len())
            .finish()
    }
}

impl<'a> Builder<'a> {
    /// A builder with the 0.6 µm calibration ([`CellDelays::hp06`]) and the
    /// matching metastability model for synchronizer flops.
    pub fn new(sim: &'a mut Simulator) -> Self {
        Self::with_delays(sim, CellDelays::hp06(), MetaModel::hp06())
    }

    /// A builder with explicit calibration.
    pub fn with_delays(sim: &'a mut Simulator, delays: CellDelays, meta: MetaModel) -> Self {
        Builder {
            sim,
            netlist: Netlist::new(delays),
            meta,
            scopes: Vec::new(),
            counter: 0,
            const_lo: None,
            const_hi: None,
        }
    }

    /// Direct access to the underlying simulator (for creating nets,
    /// probes, clocks…).
    pub fn sim(&mut self) -> &mut Simulator {
        self.sim
    }

    /// Enters a hierarchical naming scope.
    pub fn push_scope(&mut self, name: impl Into<String>) {
        self.scopes.push(name.into());
    }

    /// Leaves the innermost naming scope.
    pub fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    /// Finishes building, returning the structural netlist.
    pub fn finish(self) -> Netlist {
        self.netlist
    }

    /// Records a behavioural macro (e.g. a burst-mode or Petri-net
    /// controller spawned directly on the simulator) in the netlist, so
    /// static timing analysis can trace paths through it.
    pub fn record_macro(
        &mut self,
        name: impl Into<String>,
        inputs: &[NetId],
        outputs: &[NetId],
        delay: Time,
    ) {
        let scoped = {
            let name = name.into();
            if self.scopes.is_empty() {
                name
            } else {
                format!("{}/{name}", self.scopes.join("/"))
            }
        };
        self.netlist
            .push_macro(scoped, inputs.to_vec(), outputs.to_vec(), delay);
    }

    // ---- nets --------------------------------------------------------------

    /// Creates a named top-level input net (no cell drives it; testbenches
    /// attach drivers).
    pub fn input(&mut self, name: impl Into<String>) -> NetId {
        self.sim.net(name)
    }

    /// Creates a named bus of `width` nets (LSB first).
    pub fn input_bus(&mut self, name: &str, width: usize) -> Vec<NetId> {
        self.sim.bus(name, width)
    }

    /// A net permanently tied low.
    pub fn lo(&mut self) -> NetId {
        if let Some(n) = self.const_lo {
            return n;
        }
        let n = self.sim.net("const0");
        let d = self.sim.driver(n);
        self.sim.drive_at(d, n, Logic::L, Time::ZERO);
        self.const_lo = Some(n);
        n
    }

    /// A net permanently tied high.
    pub fn hi(&mut self) -> NetId {
        if let Some(n) = self.const_hi {
            return n;
        }
        let n = self.sim.net("const1");
        let d = self.sim.driver(n);
        self.sim.drive_at(d, n, Logic::H, Time::ZERO);
        self.const_hi = Some(n);
        n
    }

    fn fresh_name(&mut self, kind: &str) -> String {
        let n = self.counter;
        self.counter += 1;
        if self.scopes.is_empty() {
            format!("{kind}{n}")
        } else {
            format!("{}/{kind}{n}", self.scopes.join("/"))
        }
    }

    fn out_net(&mut self, name: &str) -> NetId {
        self.sim.net(name)
    }

    // ---- combinational gates ------------------------------------------------

    fn comb(&mut self, func: GateFunc, inputs: Vec<NetId>, out: NetId) -> NetId {
        let kind = func.cell_kind();
        let name = self.fresh_name(&kind.to_string());
        let drv = self.sim.driver(out);
        let id = self.netlist.push(Instance {
            name: name.clone(),
            kind,
            data_in: inputs.clone(),
            outputs: vec![out],
            clock: None,
            asym_common: 0,
            init: None,
        });
        let gate = CombGate::new(
            name,
            func,
            inputs.clone(),
            drv,
            self.netlist.delay_table(),
            id.index(),
        );
        let comp = self.sim.add_component(Box::new(gate), &inputs);
        self.netlist.set_elab(
            id,
            ElabInfo {
                drivers: vec![drv],
                component: Some(comp),
                flop: None,
                func: Some(func),
            },
        );
        out
    }

    /// Non-inverting buffer.
    pub fn buf(&mut self, a: NetId) -> NetId {
        let out = self.out_net("buf_out");
        self.comb(GateFunc::Buf, vec![a], out)
    }

    /// Inverter.
    pub fn inv(&mut self, a: NetId) -> NetId {
        let out = self.out_net("inv_out");
        self.comb(GateFunc::Inv, vec![a], out)
    }

    /// Inverter driving an existing net (for feedback loops).
    pub fn inv_onto(&mut self, a: NetId, out: NetId) {
        self.comb(GateFunc::Inv, vec![a], out);
    }

    /// Buffer driving an existing net (for connecting separately created
    /// nets, e.g. ring topologies built back-to-front).
    pub fn buf_onto(&mut self, a: NetId, out: NetId) {
        self.comb(GateFunc::Buf, vec![a], out);
    }

    /// 2-input AND.
    pub fn and2(&mut self, a: NetId, b: NetId) -> NetId {
        self.and(&[a, b])
    }

    /// N-input AND.
    pub fn and(&mut self, inputs: &[NetId]) -> NetId {
        assert!(!inputs.is_empty(), "AND needs at least one input");
        let out = self.out_net("and_out");
        self.comb(GateFunc::And, inputs.to_vec(), out)
    }

    /// 2-input OR.
    pub fn or2(&mut self, a: NetId, b: NetId) -> NetId {
        self.or(&[a, b])
    }

    /// N-input OR.
    pub fn or(&mut self, inputs: &[NetId]) -> NetId {
        assert!(!inputs.is_empty(), "OR needs at least one input");
        let out = self.out_net("or_out");
        self.comb(GateFunc::Or, inputs.to_vec(), out)
    }

    /// N-input NAND.
    pub fn nand(&mut self, inputs: &[NetId]) -> NetId {
        assert!(!inputs.is_empty(), "NAND needs at least one input");
        let out = self.out_net("nand_out");
        self.comb(GateFunc::Nand, inputs.to_vec(), out)
    }

    /// N-input NOR.
    pub fn nor(&mut self, inputs: &[NetId]) -> NetId {
        assert!(!inputs.is_empty(), "NOR needs at least one input");
        let out = self.out_net("nor_out");
        self.comb(GateFunc::Nor, inputs.to_vec(), out)
    }

    /// 2-input XOR.
    pub fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        let out = self.out_net("xor_out");
        self.comb(GateFunc::Xor, vec![a, b], out)
    }

    /// `a AND NOT b` (one complex gate).
    pub fn and_not(&mut self, a: NetId, b: NetId) -> NetId {
        let out = self.out_net("andn_out");
        self.comb(GateFunc::AndNot, vec![a, b], out)
    }

    /// `a OR NOT b` (one complex gate).
    pub fn or_not(&mut self, a: NetId, b: NetId) -> NetId {
        let out = self.out_net("orn_out");
        self.comb(GateFunc::OrNot, vec![a, b], out)
    }

    /// 2-to-1 mux: `a` when `sel` low, `b` when high.
    pub fn mux2(&mut self, sel: NetId, a: NetId, b: NetId) -> NetId {
        let out = self.out_net("mux_out");
        self.comb(GateFunc::Mux2, vec![sel, a, b], out)
    }

    // ---- tri-state -----------------------------------------------------------

    /// Single-bit tri-state driver onto an existing (shared) bus net.
    pub fn tribuf_onto(&mut self, en: NetId, d: NetId, bus: NetId) {
        let name = self.fresh_name("TRIBUF");
        let drv = self.sim.driver(bus);
        let id = self.netlist.push(Instance {
            name: name.clone(),
            kind: CellKind::TriBuf,
            data_in: vec![en, d],
            outputs: vec![bus],
            clock: None,
            asym_common: 0,
            init: None,
        });
        let cell = TriBuf::new(name, en, d, drv, self.netlist.delay_table(), id.index());
        self.sim.add_component(Box::new(cell), &[en, d]);
    }

    /// Word tri-state driver bank onto an existing shared bus.
    pub fn tri_word_onto(&mut self, en: NetId, d: &[NetId], bus: &[NetId]) {
        assert_eq!(d.len(), bus.len(), "width mismatch");
        let name = self.fresh_name("TRIWORD");
        let drvs: Vec<_> = bus.iter().map(|&b| self.sim.driver(b)).collect();
        let mut data_in = vec![en];
        data_in.extend_from_slice(d);
        let id = self.netlist.push(Instance {
            name: name.clone(),
            kind: CellKind::TriWord,
            data_in,
            outputs: bus.to_vec(),
            clock: None,
            asym_common: 0,
            init: None,
        });
        let cell = TriWord::new(
            name,
            en,
            d.to_vec(),
            drvs,
            self.netlist.delay_table(),
            id.index(),
        );
        let mut watch = vec![en];
        watch.extend_from_slice(d);
        self.sim.add_component(Box::new(cell), &watch);
    }

    // ---- flip-flops -----------------------------------------------------------

    /// A plain positive-edge D flip-flop with setup/hold checking and no
    /// metastability (in-domain logic; its inputs are supposed to be
    /// synchronous to `clk` — violations are *reported*, which is how the
    /// fmax search detects an over-fast clock).
    pub fn dff(&mut self, clk: NetId, d: NetId, init: Logic) -> NetId {
        self.dff_opts(clk, d, None, init, MetaModel::ideal(), true)
    }

    /// An enable D flip-flop (the paper's ETDFF): captures only in cycles
    /// where `en` is high at the edge.
    pub fn etdff(&mut self, clk: NetId, en: NetId, d: NetId, init: Logic) -> NetId {
        self.dff_opts(clk, d, Some(en), init, MetaModel::ideal(), true)
    }

    /// A synchronizer flip-flop: the full metastability model, **no**
    /// setup/hold reporting (its data input is asynchronous by design —
    /// flagging setup violations on it would be noise).
    pub fn sync_dff(&mut self, clk: NetId, d: NetId, init: Logic) -> NetId {
        let meta = self.meta;
        self.dff_opts(clk, d, None, init, meta, false)
    }

    /// Fully explicit flip-flop: enable, power-on value, metastability
    /// model, and whether to record setup/hold reports.
    pub fn dff_opts(
        &mut self,
        clk: NetId,
        d: NetId,
        en: Option<NetId>,
        init: Logic,
        meta: MetaModel,
        check_timing: bool,
    ) -> NetId {
        let kind = if en.is_some() {
            CellKind::Etdff
        } else {
            CellKind::Dff
        };
        let name = self.fresh_name(&kind.to_string());
        let q = self.out_net(&format!("{name}.q"));
        let drv = self.sim.driver(q);
        let mut data_in = Vec::new();
        if let Some(en) = en {
            data_in.push(en);
        }
        data_in.push(d);
        let id = self.netlist.push(Instance {
            name: name.clone(),
            kind,
            data_in,
            outputs: vec![q],
            clock: Some(clk),
            asym_common: 0,
            init: Some(init),
        });
        let delays = self.netlist.delay_table();
        let cds = *self.netlist.cell_delays();
        let timing = FlopTiming {
            setup: cds.setup,
            hold: cds.hold,
            check_timing,
        };
        let ff = Dff::new(DffConfig {
            name,
            clk,
            d,
            en,
            q: drv,
            init,
            meta,
            timing,
            delays,
            inst: id.index(),
        });
        // The data and enable pins are sampled: between edges only the
        // hold check reads them, so a change wakes the flop only inside
        // its hold window (`Ctx::listen_for`), and otherwise acts on its
        // sleep through quiet edges (`Ctx::sleep_from`).
        let comp = self
            .sim
            .add_sampling_component(Box::new(ff), clk, en.as_slice(), &[d]);
        self.netlist.set_elab(
            id,
            ElabInfo {
                drivers: vec![drv],
                component: Some(comp),
                flop: Some(FlopElab {
                    meta_ideal: meta.window == Time::ZERO,
                    timing,
                }),
                func: None,
            },
        );
        q
    }

    /// A chain of `stages` synchronizer flip-flops (the paper uses two;
    /// experiment E8 sweeps this depth). Returns the synchronized output.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero.
    pub fn sync_chain(&mut self, clk: NetId, d: NetId, stages: usize, init: Logic) -> NetId {
        assert!(stages > 0, "a synchronizer needs at least one stage");
        let mut cur = d;
        for _ in 0..stages {
            cur = self.sync_dff(clk, cur, init);
        }
        cur
    }

    // ---- latches ---------------------------------------------------------------

    /// Level-sensitive D latch (transparent while `en` high).
    pub fn dlatch(&mut self, en: NetId, d: NetId, init: Logic) -> NetId {
        let name = self.fresh_name("DLATCH");
        let q = self.out_net(&format!("{name}.q"));
        let drv = self.sim.driver(q);
        let id = self.netlist.push(Instance {
            name: name.clone(),
            kind: CellKind::DLatch,
            data_in: vec![en, d],
            outputs: vec![q],
            clock: None,
            asym_common: 0,
            init: Some(init),
        });
        let cell = DLatch::new(
            name,
            en,
            d,
            drv,
            init,
            self.netlist.delay_table(),
            id.index(),
        );
        self.sim.add_component(Box::new(cell), &[en, d]);
        q
    }

    /// SR latch; returns `q`.
    pub fn sr_latch(&mut self, s: NetId, r: NetId, init: Logic) -> NetId {
        self.sr_latch_qn(s, r, init).0
    }

    /// SR latch; returns `(q, qn)`.
    pub fn sr_latch_qn(&mut self, s: NetId, r: NetId, init: Logic) -> (NetId, NetId) {
        self.sr_latch_impl(s, r, init, false)
    }

    /// Set-dominant SR latch (`s = r = 1` keeps/forces set); returns
    /// `(q, qn)`. Used as the FIFO cells' data-validity latch — see
    /// [`SrLatch`] for why the put must win the overlap.
    pub fn sr_latch_qn_set_dominant(&mut self, s: NetId, r: NetId, init: Logic) -> (NetId, NetId) {
        self.sr_latch_impl(s, r, init, true)
    }

    fn sr_latch_impl(
        &mut self,
        s: NetId,
        r: NetId,
        init: Logic,
        set_dominant: bool,
    ) -> (NetId, NetId) {
        let name = self.fresh_name("SRLATCH");
        let q = self.out_net(&format!("{name}.q"));
        let qn = self.out_net(&format!("{name}.qn"));
        let qd = self.sim.driver(q);
        let qnd = self.sim.driver(qn);
        let id = self.netlist.push(Instance {
            name: name.clone(),
            kind: CellKind::SrLatch,
            data_in: vec![s, r],
            outputs: vec![q, qn],
            clock: None,
            asym_common: 0,
            init: Some(init),
        });
        let cell = SrLatch::new(
            name,
            s,
            r,
            qd,
            Some(qnd),
            init,
            set_dominant,
            self.netlist.delay_table(),
            id.index(),
        );
        self.sim.add_component(Box::new(cell), &[s, r]);
        (q, qn)
    }

    // ---- C-elements ---------------------------------------------------------------

    /// Symmetric Muller C-element over `inputs`.
    pub fn celement(&mut self, inputs: &[NetId], init: Logic) -> NetId {
        let name = self.fresh_name("CELEM");
        let out = self.out_net(&format!("{name}.y"));
        self.celement_named(name, inputs, init, out);
        out
    }

    /// C-element driving an existing net (for ring/chain topologies whose
    /// nets are created before the cells).
    pub fn celement_onto(&mut self, inputs: &[NetId], init: Logic, out: NetId) {
        let name = self.fresh_name("CELEM");
        self.celement_named(name, inputs, init, out);
    }

    fn celement_named(&mut self, name: String, inputs: &[NetId], init: Logic, out: NetId) {
        assert!(inputs.len() >= 2, "C-element needs at least two inputs");
        let drv = self.sim.driver(out);
        let id = self.netlist.push(Instance {
            name: name.clone(),
            kind: CellKind::CElement,
            data_in: inputs.to_vec(),
            outputs: vec![out],
            clock: None,
            asym_common: 0,
            init: Some(init),
        });
        let cell = CElement::new(
            name,
            inputs.to_vec(),
            drv,
            init,
            self.netlist.delay_table(),
            id.index(),
        );
        self.sim.add_component(Box::new(cell), inputs);
    }

    /// Asymmetric C-element: rises when all `common` and all `plus` inputs
    /// are high; falls when all `common` inputs are low.
    pub fn acelement(&mut self, common: &[NetId], plus: &[NetId], init: Logic) -> NetId {
        let name = self.fresh_name("ACELEM");
        let out = self.out_net(&format!("{name}.y"));
        self.acelement_named(name, common, plus, init, out);
        out
    }

    /// Asymmetric C-element driving an existing net (for cells whose
    /// control nets must exist before their drivers, e.g. the `we` pulse
    /// wires of the async-sync FIFO cells).
    pub fn acelement_onto(&mut self, common: &[NetId], plus: &[NetId], init: Logic, out: NetId) {
        let name = self.fresh_name("ACELEM");
        self.acelement_named(name, common, plus, init, out);
    }

    fn acelement_named(
        &mut self,
        name: String,
        common: &[NetId],
        plus: &[NetId],
        init: Logic,
        out: NetId,
    ) {
        assert!(
            !common.is_empty(),
            "asymmetric C-element needs common inputs"
        );
        let drv = self.sim.driver(out);
        let mut data_in = common.to_vec();
        data_in.extend_from_slice(plus);
        let id = self.netlist.push(Instance {
            name: name.clone(),
            kind: CellKind::AsymCElement,
            data_in: data_in.clone(),
            outputs: vec![out],
            clock: None,
            asym_common: common.len(),
            init: Some(init),
        });
        let cell = AsymCElement::new(
            name,
            common.to_vec(),
            plus.to_vec(),
            drv,
            init,
            self.netlist.delay_table(),
            id.index(),
        );
        self.sim.add_component(Box::new(cell), &data_in);
    }

    // ---- word cells ------------------------------------------------------------------

    /// W-bit register with shared enable; returns the Q bus.
    pub fn register(&mut self, clk: NetId, en: Option<NetId>, d: &[NetId]) -> Vec<NetId> {
        let name = self.fresh_name("REG");
        let q: Vec<NetId> = (0..d.len())
            .map(|i| self.sim.net(format!("{name}.q[{i}]")))
            .collect();
        let drvs: Vec<_> = q.iter().map(|&n| self.sim.driver(n)).collect();
        let mut data_in = Vec::new();
        if let Some(en) = en {
            data_in.push(en);
        }
        data_in.extend_from_slice(d);
        let id = self.netlist.push(Instance {
            name: name.clone(),
            kind: CellKind::Register,
            data_in,
            outputs: q.clone(),
            clock: Some(clk),
            asym_common: 0,
            init: None,
        });
        let cds = *self.netlist.cell_delays();
        let cell = RegisterWord::new(
            name,
            clk,
            en,
            d.to_vec(),
            drvs.clone(),
            cds.setup,
            self.netlist.delay_table(),
            id.index(),
        );
        // The register has no hold check, so its sampled enable and data
        // pins never wake it; they act on its sleep through quiet edges
        // (`Ctx::sleep_from`).
        let comp = self
            .sim
            .add_sampling_component(Box::new(cell), clk, en.as_slice(), d);
        self.netlist.set_elab(
            id,
            ElabInfo {
                drivers: drvs,
                component: Some(comp),
                flop: Some(FlopElab {
                    meta_ideal: true,
                    timing: FlopTiming {
                        setup: cds.setup,
                        hold: Time::ZERO,
                        check_timing: true,
                    },
                }),
                func: None,
            },
        );
        q
    }

    /// W-bit transparent latch with shared enable; returns the Q bus.
    pub fn latch_word(&mut self, en: NetId, d: &[NetId]) -> Vec<NetId> {
        let name = self.fresh_name("LWORD");
        let q: Vec<NetId> = (0..d.len())
            .map(|i| self.sim.net(format!("{name}.q[{i}]")))
            .collect();
        let drvs: Vec<_> = q.iter().map(|&n| self.sim.driver(n)).collect();
        let mut data_in = vec![en];
        data_in.extend_from_slice(d);
        let id = self.netlist.push(Instance {
            name: name.clone(),
            kind: CellKind::LatchWord,
            data_in,
            outputs: q.clone(),
            clock: None,
            asym_common: 0,
            init: None,
        });
        let cell = LatchWord::new(
            name,
            en,
            d.to_vec(),
            drvs,
            self.netlist.delay_table(),
            id.index(),
        );
        let mut watch = vec![en];
        watch.extend_from_slice(d);
        self.sim.add_component(Box::new(cell), &watch);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtf_sim::{ClockGen, Simulator};

    fn settle(sim: &mut Simulator) {
        sim.run_for(Time::from_ns(5)).unwrap();
    }

    #[test]
    fn and_gate_computes() {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        let _nl = b.finish();
        let da = sim.driver(a);
        let db = sim.driver(c);
        sim.drive_at(da, a, Logic::H, Time::ZERO);
        sim.drive_at(db, c, Logic::H, Time::ZERO);
        settle(&mut sim);
        assert_eq!(sim.value(y), Logic::H);
        sim.drive_at(db, c, Logic::L, sim.now());
        settle(&mut sim);
        assert_eq!(sim.value(y), Logic::L);
    }

    #[test]
    fn constants_hold() {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        let hi = b.hi();
        let lo = b.lo();
        let y = b.and2(hi, lo);
        let z = b.or2(hi, lo);
        drop(b.finish());
        settle(&mut sim);
        assert_eq!(sim.value(y), Logic::L);
        assert_eq!(sim.value(z), Logic::H);
    }

    #[test]
    fn dff_samples_on_rising_edge() {
        let mut sim = Simulator::new(0);
        let clk = sim.net("clk");
        ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(10));
        let mut b = Builder::new(&mut sim);
        let d = b.input("d");
        let q = b.dff(clk, d, Logic::L);
        drop(b.finish());
        let dd = sim.driver(d);
        sim.drive_at(dd, d, Logic::L, Time::ZERO);
        // d goes high well before the edge at 20 ns.
        sim.drive_at(dd, d, Logic::H, Time::from_ns(14));
        sim.run_until(Time::from_ns(19)).unwrap();
        assert_eq!(sim.value(q), Logic::L, "not yet sampled");
        sim.run_until(Time::from_ns(25)).unwrap();
        assert_eq!(sim.value(q), Logic::H, "sampled at the 20 ns edge");
        assert!(sim.violations().is_empty());
    }

    #[test]
    fn dff_reports_setup_violation() {
        let mut sim = Simulator::new(0);
        let clk = sim.net("clk");
        ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(10));
        let mut b = Builder::new(&mut sim);
        let d = b.input("d");
        let _q = b.dff(clk, d, Logic::L);
        drop(b.finish());
        let dd = sim.driver(d);
        // Change 150 ps before the 10 ns edge; hp06 setup is 250 ps but the
        // metastability window is ±50 ps, so this is a clean setup report.
        sim.drive_at(dd, d, Logic::H, Time::from_ps(9_850));
        sim.run_until(Time::from_ns(12)).unwrap();
        assert_eq!(sim.violations_of(mtf_sim::ViolationKind::Setup).count(), 1);
    }

    #[test]
    fn sync_dff_goes_metastable_inside_window() {
        let mut sim = Simulator::new(123);
        let clk = sim.net("clk");
        ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(10));
        let mut b = Builder::new(&mut sim);
        let d = b.input("d");
        let q = b.sync_dff(clk, d, Logic::L);
        drop(b.finish());
        let dd = sim.driver(d);
        // Exactly at the edge: inside the ±50 ps window.
        sim.drive_at(dd, d, Logic::H, Time::from_ns(10));
        sim.run_until(Time::from_ns(11)).unwrap();
        // There must be a metastability report, and no setup noise.
        assert_eq!(
            sim.violations_of(mtf_sim::ViolationKind::Metastability)
                .count(),
            1
        );
        assert_eq!(sim.violations_of(mtf_sim::ViolationKind::Setup).count(), 0);
        // Eventually the output resolves to a definite value.
        sim.run_until(Time::from_ns(18)).unwrap();
        assert!(sim.value(q).is_definite());
    }

    #[test]
    fn etdff_respects_enable() {
        let mut sim = Simulator::new(0);
        let clk = sim.net("clk");
        ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(10));
        let mut b = Builder::new(&mut sim);
        let d = b.input("d");
        let en = b.input("en");
        let q = b.etdff(clk, en, d, Logic::L);
        drop(b.finish());
        let dd = sim.driver(d);
        let de = sim.driver(en);
        sim.drive_at(de, en, Logic::L, Time::ZERO);
        sim.drive_at(dd, d, Logic::H, Time::from_ns(2));
        sim.run_until(Time::from_ns(15)).unwrap();
        assert_eq!(sim.value(q), Logic::L, "disabled: held");
        sim.drive_at(de, en, Logic::H, Time::from_ns(15));
        sim.run_until(Time::from_ns(25)).unwrap();
        assert_eq!(sim.value(q), Logic::H, "enabled: captured");
    }

    #[test]
    fn tri_bus_resolves_one_driver() {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        let bus = b.input("bus");
        let d0 = b.input("d0");
        let d1 = b.input("d1");
        let en0 = b.input("en0");
        let en1 = b.input("en1");
        b.tribuf_onto(en0, d0, bus);
        b.tribuf_onto(en1, d1, bus);
        drop(b.finish());
        let dr: Vec<_> = [d0, d1, en0, en1].iter().map(|&n| sim.driver(n)).collect();
        sim.drive_at(dr[0], d0, Logic::H, Time::ZERO);
        sim.drive_at(dr[1], d1, Logic::L, Time::ZERO);
        sim.drive_at(dr[2], en0, Logic::H, Time::ZERO);
        sim.drive_at(dr[3], en1, Logic::L, Time::ZERO);
        settle(&mut sim);
        assert_eq!(sim.value(bus), Logic::H);
        // Swap drivers.
        sim.drive_at(dr[2], en0, Logic::L, sim.now());
        sim.drive_at(dr[3], en1, Logic::H, sim.now());
        settle(&mut sim);
        assert_eq!(sim.value(bus), Logic::L);
    }

    #[test]
    fn register_word_latches_on_enable() {
        let mut sim = Simulator::new(0);
        let clk = sim.net("clk");
        ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(10));
        let mut b = Builder::new(&mut sim);
        let d = b.input_bus("d", 4);
        let en = b.input("en");
        let q = b.register(clk, Some(en), &d);
        drop(b.finish());
        let den = sim.driver(en);
        let dd: Vec<_> = d.iter().map(|&n| sim.driver(n)).collect();
        for (i, &drv) in dd.iter().enumerate() {
            let v = Logic::from_bool((0b1010 >> i) & 1 == 1);
            sim.drive_at(drv, d[i], v, Time::ZERO);
        }
        sim.drive_at(den, en, Logic::H, Time::ZERO);
        sim.run_until(Time::from_ns(12)).unwrap();
        assert_eq!(sim.value_vec(&q).to_u64(), Some(0b1010));
    }

    #[test]
    fn sr_latch_sets_and_resets() {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        let s = b.input("s");
        let r = b.input("r");
        let (q, qn) = b.sr_latch_qn(s, r, Logic::L);
        drop(b.finish());
        let ds = sim.driver(s);
        let drr = sim.driver(r);
        sim.drive_at(ds, s, Logic::L, Time::ZERO);
        sim.drive_at(drr, r, Logic::L, Time::ZERO);
        settle(&mut sim);
        assert_eq!(sim.value(q), Logic::L);
        assert_eq!(sim.value(qn), Logic::H);
        sim.drive_at(ds, s, Logic::H, sim.now());
        settle(&mut sim);
        assert_eq!(sim.value(q), Logic::H);
        sim.drive_at(ds, s, Logic::L, sim.now());
        settle(&mut sim);
        assert_eq!(sim.value(q), Logic::H, "holds");
        sim.drive_at(drr, r, Logic::H, sim.now());
        settle(&mut sim);
        assert_eq!(sim.value(q), Logic::L);
    }

    #[test]
    fn celement_through_builder() {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        let a = b.input("a");
        let c = b.input("b");
        let y = b.celement(&[a, c], Logic::L);
        drop(b.finish());
        let da = sim.driver(a);
        let db = sim.driver(c);
        sim.drive_at(da, a, Logic::L, Time::ZERO);
        sim.drive_at(db, c, Logic::L, Time::ZERO);
        settle(&mut sim);
        assert_eq!(sim.value(y), Logic::L);
        sim.drive_at(da, a, Logic::H, sim.now());
        settle(&mut sim);
        assert_eq!(sim.value(y), Logic::L, "holds until consensus");
        sim.drive_at(db, c, Logic::H, sim.now());
        settle(&mut sim);
        assert_eq!(sim.value(y), Logic::H);
    }

    #[test]
    fn scoped_names_appear_in_netlist() {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        b.push_scope("fifo");
        b.push_scope("cell0");
        let a = b.input("a");
        let _ = b.inv(a);
        b.pop_scope();
        let nl = b.finish();
        assert!(nl.instances()[0].name.starts_with("fifo/cell0/INV"));
    }
}
