//! Dynamic-energy estimation from simulation activity.
//!
//! The paper's Section 2 claims the circular-array architecture offers
//! "the potential for low power: data items are immobile while in the
//! FIFO" — each item's bits toggle once on enqueue and are merely
//! broadcast on dequeue, instead of marching through every stage as in a
//! shift-register FIFO. This module quantifies that: dynamic energy is
//! `Σ_nets toggles(net) · C(net) · V²/2`, with per-net capacitance from
//! the [`Tech`] loading model and toggle counts from the
//! simulator (counted on every net, no tracing needed).
//!
//! Experiment E12 (`cargo run -p mtf-bench --bin power`) compares the
//! paper's FIFO against a shift-register FIFO
//! (the `mtf_core::design::SHIFT_REGISTER` baseline) streaming the same
//! data.

use mtf_gates::Netlist;
use mtf_sim::Simulator;

use crate::Tech;

/// Supply voltage of the paper's process (V).
pub const VDD: f64 = 3.3;

/// A dynamic-energy estimate, split by contribution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyReport {
    /// Total switched energy in femtojoules.
    pub total_fj: f64,
    /// Total net toggles counted.
    pub toggles: u64,
    /// Switched capacitance in femtofarads (Σ toggles · C).
    pub switched_cap_ff: f64,
}

/// Estimates the dynamic energy switched by `netlist`'s nets during the
/// simulation so far (or since the last
/// [`Simulator::reset_toggles`]).
///
/// Nets outside the netlist (testbench wiring, clocks' own nets) carry the
/// loads the model assigns them — clock nets do appear, loaded by their
/// flop clock pins, so clock-tree power is included.
pub fn dynamic_energy(tech: &Tech, netlist: &Netlist, sim: &Simulator) -> EnergyReport {
    let loads = tech.net_loads(netlist);
    let mut report = EnergyReport::default();
    for (i, &c_ff) in loads.iter().enumerate() {
        if c_ff == 0.0 {
            continue;
        }
        let t = sim.toggles(mtf_sim::NetId::from_index(i));
        report.toggles += t;
        report.switched_cap_ff += t as f64 * c_ff;
    }
    // E = C·V²/2 per transition; fF · V² = fJ.
    report.total_fj = report.switched_cap_ff * VDD * VDD / 2.0;
    report
}

/// Counts storage write activity: output toggles of the word
/// registers/latches (each captured bit-flip switches one stored bit).
///
/// This is the model-independent core of the paper's immobile-data claim:
/// in the circular-array FIFOs every item's bits are written into storage
/// **once**; in a shift-register FIFO they are rewritten at every stage.
pub fn storage_write_toggles(netlist: &Netlist, sim: &Simulator) -> u64 {
    use mtf_gates::CellKind;
    netlist
        .instances()
        .iter()
        .filter(|i| matches!(i.kind, CellKind::Register | CellKind::LatchWord))
        .flat_map(|i| i.outputs.iter())
        .map(|&q| sim.toggles(q))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtf_gates::Builder;
    use mtf_sim::{ClockGen, Time};

    #[test]
    fn energy_scales_with_activity() {
        let energy_for_cycles = |cycles: u64| {
            let mut sim = Simulator::new(0);
            let clk = sim.net("clk");
            ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(10));
            let mut b = Builder::new(&mut sim);
            let q = b.dff(clk, clk, mtf_sim::Logic::L); // toggles every edge
            let _ = b.inv(q);
            let nl = b.finish();
            sim.run_until(Time::from_ns(10) * cycles).unwrap();
            dynamic_energy(&Tech::hp06(), &nl, &sim).total_fj
        };
        let short = energy_for_cycles(10);
        let long = energy_for_cycles(100);
        assert!(long > short * 8.0, "10x the cycles ≈ 10x the energy");
    }

    #[test]
    fn reset_toggles_starts_a_fresh_window() {
        let mut sim = Simulator::new(0);
        let clk = sim.net("clk");
        ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(10));
        let mut b = Builder::new(&mut sim);
        let _q = b.dff(clk, clk, mtf_sim::Logic::L);
        let nl = b.finish();
        sim.run_until(Time::from_us(1)).unwrap();
        let warm = dynamic_energy(&Tech::hp06(), &nl, &sim);
        assert!(warm.total_fj > 0.0);
        sim.reset_toggles();
        let fresh = dynamic_energy(&Tech::hp06(), &nl, &sim);
        assert_eq!(fresh.toggles, 0);
        assert_eq!(fresh.total_fj, 0.0);
    }
}
