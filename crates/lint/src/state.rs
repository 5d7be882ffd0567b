//! State-element extraction: the sequential-cell inventory of a netlist.
//!
//! The model checker (`mtf-mc`) verifies *abstract* FIFO models — a token
//! queue plus flag pipelines — and needs a bridge back to the concrete
//! netlists it speaks for. This pass provides it: an exact census of every
//! state-holding cell (edge-triggered flops and registers, level-sensitive
//! latches, SR latches, C-elements), split into datapath words and control
//! bits, with the synchronizer-looking chains counted separately. The
//! `formal` binary cross-checks the census against the abstract model's
//! dimensions (a capacity-`C`, width-`W` FIFO must hold at least `C·W`
//! datapath bits), so a netlist and its model cannot silently diverge.

use mtf_gates::CellKind;

use crate::model::LintModel;

/// The sequential-cell census of one elaborated design.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StateElements {
    /// Word-wide sequential cells (`Register`, `LatchWord`): their summed
    /// bit width. These hold the FIFO's data tokens.
    pub datapath_bits: usize,
    /// Single-bit edge-triggered cells (`Dff`, `Etdff`).
    pub flop_bits: usize,
    /// Single-bit level-sensitive / asynchronous cells (`SrLatch`,
    /// `CElement`, `AsymCElement`).
    pub latch_bits: usize,
    /// Behavioural macro engines (state invisible to the netlist).
    pub macros: usize,
    /// Total state bits visible to the netlist
    /// (`datapath_bits + flop_bits + latch_bits`).
    pub total_bits: usize,
}

/// Counts the state elements of a prepared [`LintModel`].
pub fn state_elements(model: &LintModel<'_>) -> StateElements {
    let mut s = StateElements::default();
    for inst in model.netlist.instances() {
        match inst.kind {
            CellKind::Register | CellKind::LatchWord => {
                s.datapath_bits += inst.outputs.len();
            }
            CellKind::Macro => s.macros += 1,
            k if k.is_edge_triggered() => s.flop_bits += inst.outputs.len(),
            k if k.is_state_holding() => s.latch_bits += inst.outputs.len(),
            _ => {}
        }
    }
    s.total_bits = s.datapath_bits + s.flop_bits + s.latch_bits;
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtf_gates::Builder;
    use mtf_sim::Simulator;

    #[test]
    fn counts_flops_latches_and_words() {
        let mut sim = Simulator::new(0);
        let clk = sim.net("clk");
        let d = sim.net("d");
        let mut b = Builder::new(&mut sim);
        let q = b.dff(clk, d, mtf_sim::Logic::L);
        let word_in = vec![d; 4];
        let _w = b.register(clk, None, &word_in);
        let _g = b.and2(q, d);
        let netlist = b.finish();
        let model = LintModel::new(&netlist, &sim);
        let s = state_elements(&model);
        assert_eq!(s.flop_bits, 1);
        assert_eq!(s.datapath_bits, 4);
        assert_eq!(s.latch_bits, 0);
        assert_eq!(s.total_bits, 5);
    }
}
