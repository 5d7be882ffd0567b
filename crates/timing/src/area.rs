//! Transistor-count area estimation over netlists.
//!
//! The paper's related-work section argues *area*: the Intel mixed-clock
//! FIFO \[9\] "has significantly greater area overhead in implementing the
//! synchronization: while our design has only one synchronizer on each of
//! the two global detectors (full and empty), the Intel design has two
//! synchronizers per cell." This module makes that claim quantitative for
//! the gate-level designs in this workspace (see
//! the `mtf_core::design::PER_CELL_SYNC` baseline for the Intel-style
//! comparison point).
//!
//! Estimates are static-CMOS transistor counts per cell kind — coarse, but
//! uniform across designs, which is all a relative comparison needs.

use mtf_gates::{CellKind, Netlist};

/// Estimated transistor count for one instance of `kind` with the given
/// data fan-in and output count (word width for word cells).
pub fn cell_transistors(kind: CellKind, fan_in: usize, outputs: usize) -> u64 {
    let w = outputs.max(1) as u64;
    let extra_in = fan_in.saturating_sub(2) as u64;
    match kind {
        CellKind::Inv => 2,
        CellKind::Buf => 4,
        CellKind::Nand | CellKind::Nor => 4 + 2 * extra_in,
        CellKind::And | CellKind::Or => 6 + 2 * extra_in,
        CellKind::Xor => 8,
        CellKind::Mux2 => 10,
        CellKind::TriBuf => 6,
        CellKind::Dff => 20,
        CellKind::Etdff => 24,
        CellKind::DLatch => 12,
        CellKind::SrLatch => 8,
        CellKind::CElement => 8 + 2 * extra_in,
        CellKind::AsymCElement => 10 + 2 * extra_in,
        CellKind::Register => 24 * w,
        CellKind::LatchWord => 12 * w,
        CellKind::TriWord => 6 * w,
        // A synthesized burst-mode / Petri-net controller: rough figure
        // consistent with Minimalist/Petrify outputs for 2-input specs.
        CellKind::Macro => 60,
        // `CellKind` is non-exhaustive; default any future kind to a
        // middling gate.
        _ => 10,
    }
}

/// Per-category area breakdown of a netlist, in estimated transistors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AreaReport {
    /// Data-path storage (registers, word latches).
    pub storage: u64,
    /// Synchronizer flip-flops (instances whose name marks them as such is
    /// not tracked; this counts all single-bit flops — see `total` for the
    /// design-level comparison).
    pub flops: u64,
    /// Combinational gates, tri-states, latches, C-elements.
    pub logic: u64,
    /// Behavioural controller macros.
    pub controllers: u64,
    /// Everything.
    pub total: u64,
}

/// Estimates the area of every instance in `netlist`.
pub fn area(netlist: &Netlist) -> AreaReport {
    let mut r = AreaReport::default();
    for inst in netlist.instances() {
        let t = cell_transistors(inst.kind, inst.data_in.len(), inst.outputs.len());
        r.total += t;
        match inst.kind {
            CellKind::Register | CellKind::LatchWord => r.storage += t,
            CellKind::Dff | CellKind::Etdff => r.flops += t,
            CellKind::Macro => r.controllers += t,
            _ => r.logic += t,
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtf_gates::Builder;
    use mtf_sim::{Logic, Simulator};

    #[test]
    fn wider_gates_cost_more() {
        assert!(cell_transistors(CellKind::And, 4, 1) > cell_transistors(CellKind::And, 2, 1));
        assert_eq!(
            cell_transistors(CellKind::Register, 9, 8),
            8 * cell_transistors(CellKind::Register, 2, 1)
        );
    }

    #[test]
    fn report_sums_and_classifies() {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        let clk = b.input("clk");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        let q = b.dff(clk, y, Logic::L);
        let d = b.input_bus("d", 4);
        let _r = b.register(clk, Some(q), &d);
        let nl = b.finish();
        let rep = area(&nl);
        assert_eq!(
            rep.total,
            rep.storage + rep.flops + rep.logic + rep.controllers
        );
        assert_eq!(rep.logic, 6, "one AND2");
        assert_eq!(rep.flops, 20, "one DFF");
        assert_eq!(rep.storage, 4 * 24, "4-bit register");
    }
}
