//! The lumped-RC technology model and the delay annotator.

use mtf_gates::{CellDelays, CellKind, Instance, Netlist};
use mtf_sim::Time;

/// Technology parameters for the delay model:
/// `delay = intrinsic(kind, fan-in) + R_drive(kind) · C_load(output net)`.
///
/// Capacitances are in femtofarads, resistances in kilohms, so
/// `R · C` is directly in picoseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tech {
    /// Input capacitance of an ordinary gate pin (fF).
    pub c_in_gate: f64,
    /// Input capacitance of a flip-flop data/enable pin (fF).
    pub c_in_ff: f64,
    /// Input capacitance of a clock pin (fF).
    pub c_in_clk: f64,
    /// Extra wire capacitance added per fanout pin (routing estimate, fF).
    pub c_wire_per_fanout: f64,
    /// Extra capacitance a tri-state bus net carries per attached driver
    /// (diffusion of the disabled drivers — this is what makes the shared
    /// `get_data` bus slow down with FIFO capacity, fF).
    pub c_bus_per_driver: f64,
    /// Output drive resistance of an ordinary gate (kΩ).
    pub r_gate: f64,
    /// Output drive resistance of a flip-flop / register (kΩ).
    pub r_ff: f64,
    /// Output drive resistance of a tri-state driver (kΩ).
    pub r_tri: f64,
}

impl Tech {
    /// Calibration for the paper's 0.6 µm HP CMOS at 3.3 V: chosen so an
    /// unloaded inverter is ~150 ps and a fanout-of-4 inverter lands near
    /// 450 ps, matching published figures for the era.
    pub fn hp06() -> Self {
        Tech {
            c_in_gate: 18.0,
            c_in_ff: 20.0,
            c_in_clk: 14.0,
            c_wire_per_fanout: 10.0,
            c_bus_per_driver: 14.0,
            r_gate: 2.6,
            r_ff: 2.2,
            r_tri: 2.0,
        }
    }

    /// The custom-circuit calibration matching
    /// [`CellDelays::hp06_custom`]: drive resistances scaled by the same
    /// [`CellDelays::CUSTOM_SIZING`].
    pub fn hp06_custom() -> Self {
        let hp06 = Tech::hp06();
        let s = CellDelays::CUSTOM_SIZING;
        Tech {
            r_gate: hp06.r_gate * s,
            r_ff: hp06.r_ff * s,
            r_tri: hp06.r_tri * s,
            ..hp06
        }
    }

    /// The input capacitance (fF) presented by pin `pin_index` of `inst`
    /// on its `data_in` list.
    ///
    /// Word cells concentrate a whole word's worth of transistor gates on
    /// their shared enable pin, which is how data width degrades the
    /// control-path timing.
    pub fn input_cap(&self, inst: &Instance, pin_index: usize) -> f64 {
        let width = inst.outputs.len().max(1) as f64;
        match inst.kind {
            CellKind::Register | CellKind::LatchWord | CellKind::TriWord => {
                let has_enable = inst.data_in.len() > inst.outputs.len();
                if has_enable && pin_index == 0 {
                    // Shared enable: loads scale with word width.
                    self.c_in_ff * width
                } else {
                    self.c_in_ff
                }
            }
            CellKind::Dff | CellKind::Etdff => self.c_in_ff,
            _ => self.c_in_gate,
        }
    }

    /// The drive resistance (kΩ) of `kind`'s output.
    pub fn drive_res(&self, kind: CellKind) -> f64 {
        match kind {
            CellKind::Dff | CellKind::Etdff | CellKind::Register => self.r_ff,
            CellKind::TriBuf | CellKind::TriWord => self.r_tri,
            _ => self.r_gate,
        }
    }

    /// The total capacitance (fF) hanging on each net: input pins, wire
    /// estimate, and tri-state driver diffusion. Indexed by
    /// [`NetId::index`](mtf_sim::NetId::index); nets beyond the returned
    /// length carry no modelled load.
    pub fn net_loads(&self, netlist: &Netlist) -> Vec<f64> {
        let n_nets = netlist
            .instances()
            .iter()
            .flat_map(|i| {
                i.data_in
                    .iter()
                    .chain(i.outputs.iter())
                    .chain(i.clock.iter())
            })
            .map(|n| n.index())
            .max()
            .map_or(0, |m| m + 1);
        let mut cap = vec![0.0f64; n_nets];
        let mut pins = vec![0usize; n_nets];
        let mut tri_drivers = vec![0usize; n_nets];

        for inst in netlist.instances() {
            for (pin, net) in inst.data_in.iter().enumerate() {
                cap[net.index()] += self.input_cap(inst, pin);
                pins[net.index()] += 1;
            }
            if let Some(clk) = inst.clock {
                // A word register internally clocks one flop per bit.
                let bits = inst.outputs.len().max(1) as f64;
                cap[clk.index()] += self.c_in_clk * bits;
                pins[clk.index()] += 1;
            }
            if matches!(inst.kind, CellKind::TriBuf | CellKind::TriWord) {
                for out in &inst.outputs {
                    tri_drivers[out.index()] += 1;
                }
            }
        }
        (0..n_nets)
            .map(|i| {
                cap[i]
                    + self.c_wire_per_fanout * pins[i] as f64
                    + self.c_bus_per_driver * tri_drivers[i] as f64
            })
            .collect()
    }

    /// Computes the fanout-loaded delay of every instance in `netlist` and
    /// writes it into the shared delay table (so a live simulation adopts
    /// the loaded delays immediately). Returns the per-instance delays.
    ///
    /// For multi-output (word) cells the most heavily loaded output bit
    /// governs.
    pub fn annotate(&self, netlist: &Netlist) -> Vec<Time> {
        let loads = self.net_loads(netlist);
        let load_of =
            |net: mtf_sim::NetId| -> f64 { loads.get(net.index()).copied().unwrap_or(0.0) };

        let cd = *netlist.cell_delays();
        let table = netlist.delay_table();
        let mut out = Vec::with_capacity(netlist.len());
        for (idx, inst) in netlist.instances().iter().enumerate() {
            let delay = if inst.kind == CellKind::Macro {
                // Macros keep their declared behavioural delay.
                table.borrow()[idx]
            } else {
                let intrinsic = cd.gate_delay(inst.kind, inst.data_in.len().max(1));
                let worst_load = inst
                    .outputs
                    .iter()
                    .map(|&o| load_of(o))
                    .fold(0.0f64, f64::max);
                let rc_ps = self.drive_res(inst.kind) * worst_load;
                intrinsic + Time::from_ps(rc_ps.round() as u64)
            };
            out.push(delay);
        }
        table.borrow_mut().copy_from_slice(&out);
        out
    }
}

impl Default for Tech {
    fn default() -> Self {
        Tech::hp06()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtf_gates::Builder;
    use mtf_sim::Simulator;

    #[test]
    fn fanout_increases_delay() {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        let a = b.input("a");
        let y = b.inv(a);
        // Light load: one buffer.
        let _ = b.buf(y);
        let light = b.finish();

        let mut sim2 = Simulator::new(0);
        let mut b2 = Builder::new(&mut sim2);
        let a2 = b2.input("a");
        let y2 = b2.inv(a2);
        for _ in 0..8 {
            let _ = b2.buf(y2);
        }
        let heavy = b2.finish();

        let tech = Tech::hp06();
        let d_light = tech.annotate(&light)[0];
        let d_heavy = tech.annotate(&heavy)[0];
        assert!(
            d_heavy > d_light,
            "8 loads ({d_heavy}) must exceed 1 load ({d_light})"
        );
    }

    #[test]
    fn fo4_inverter_is_near_calibration_point() {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        let a = b.input("a");
        let y = b.inv(a);
        for _ in 0..4 {
            let _ = b.inv(y);
        }
        let nl = b.finish();
        let d = Tech::hp06().annotate(&nl)[0];
        let ps = d.as_ps();
        assert!(
            (350..650).contains(&ps),
            "FO4 inverter should be ~450 ps, got {ps} ps"
        );
    }

    #[test]
    fn word_enable_loads_scale_with_width() {
        // A driver feeding the enable of a wide register sees more load
        // than one feeding a narrow register.
        let build = |width: usize| {
            let mut sim = Simulator::new(0);
            let mut b = Builder::new(&mut sim);
            let en_src = b.input("en_src");
            let en = b.buf(en_src);
            let clk = b.input("clk");
            let d = b.input_bus("d", width);
            let _q = b.register(clk, Some(en), &d);
            let nl = b.finish();
            Tech::hp06().annotate(&nl)[0] // the buffer's loaded delay
        };
        let narrow = build(4);
        let wide = build(16);
        assert!(wide > narrow, "wide {wide} vs narrow {narrow}");
    }

    #[test]
    fn tri_state_bus_slows_with_driver_count() {
        let build = |drivers: usize| {
            let mut sim = Simulator::new(0);
            let mut b = Builder::new(&mut sim);
            let bus = b.input("bus");
            let first_en = b.input("en0");
            let first_d = b.input("d0");
            b.tribuf_onto(first_en, first_d, bus);
            for i in 1..drivers {
                let en = b.input(format!("en{i}"));
                let d = b.input(format!("d{i}"));
                b.tribuf_onto(en, d, bus);
            }
            let nl = b.finish();
            Tech::hp06().annotate(&nl)[0] // first driver's delay
        };
        let few = build(4);
        let many = build(16);
        assert!(many > few, "16-driver bus {many} vs 4-driver bus {few}");
    }

    #[test]
    fn annotation_updates_live_delay_table() {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        let a = b.input("a");
        let y = b.inv(a);
        let _ = b.buf(y);
        let nl = b.finish();
        let before = nl.delay_of(mtf_gates::InstanceId::from_index(0));
        Tech::hp06().annotate(&nl);
        let after = nl.delay_of(mtf_gates::InstanceId::from_index(0));
        assert!(after > before, "loaded {after} vs unloaded {before}");
    }
}
