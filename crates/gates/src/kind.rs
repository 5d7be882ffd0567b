//! Cell kinds — the structural vocabulary recorded in a netlist.

use std::fmt;

/// The kind of a library cell, as recorded in a [`Netlist`](crate::Netlist)
/// instance. The static timing analyser dispatches on this to decide which
/// timing arcs a cell contributes and what its intrinsic delay and input
/// capacitance are.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[non_exhaustive]
pub enum CellKind {
    /// Non-inverting buffer.
    Buf,
    /// Inverter.
    Inv,
    /// N-input AND.
    And,
    /// N-input OR.
    Or,
    /// N-input NAND.
    Nand,
    /// N-input NOR.
    Nor,
    /// 2-input XOR.
    Xor,
    /// 2-to-1 multiplexer; data inputs are `[sel, a, b]`, output is `a`
    /// when `sel` is low, `b` when high.
    Mux2,
    /// Tri-state driver; data inputs are `[en, d]`; output is `d` when
    /// `en` is high, `Z` when low.
    TriBuf,
    /// Positive-edge D flip-flop; data inputs are `[d]`.
    Dff,
    /// Positive-edge D flip-flop with synchronous enable (the paper's
    /// "ETDFF"); data inputs are `[en, d]`.
    Etdff,
    /// Level-sensitive D latch, transparent while `en` is high; data
    /// inputs are `[en, d]`.
    DLatch,
    /// Set/reset latch; data inputs are `[s, r]`.
    SrLatch,
    /// Muller C-element: output goes high when all inputs are high, low
    /// when all are low, holds otherwise.
    CElement,
    /// Asymmetric C-element: data inputs are the common inputs followed by
    /// the `+`-marked inputs (which participate only in the rising
    /// transition). The split point is recorded in the instance.
    AsymCElement,
    /// Word-wide enable register (one clock, shared enable); data inputs
    /// are `[en, d0, …, d(w−1)]`, outputs `[q0, …, q(w−1)]`.
    Register,
    /// Word-wide transparent latch; pins as [`CellKind::Register`].
    LatchWord,
    /// Word-wide tri-state driver; data inputs `[en, d0, …]`, driving the
    /// shared bus nets in `outputs`.
    TriWord,
    /// A behavioural macro (burst-mode or Petri-net controller engine):
    /// a black box with a fixed input-to-output delay, recorded so the
    /// timing analyser sees through it.
    Macro,
}

impl CellKind {
    /// True for cells whose output launches from a clock edge rather than
    /// flowing combinationally from the data inputs.
    pub fn is_edge_triggered(self) -> bool {
        matches!(self, CellKind::Dff | CellKind::Etdff | CellKind::Register)
    }

    /// True for level-sensitive or asynchronous state-holding cells.
    pub fn is_state_holding(self) -> bool {
        matches!(
            self,
            CellKind::DLatch
                | CellKind::SrLatch
                | CellKind::CElement
                | CellKind::AsymCElement
                | CellKind::LatchWord
        ) || self.is_edge_triggered()
    }

    /// True for tri-state drivers — the only cells allowed to share a net
    /// with other drivers (the [`Netlist`](crate::Netlist) rejects every
    /// other multi-driver topology at build time).
    pub fn is_tristate(self) -> bool {
        matches!(self, CellKind::TriBuf | CellKind::TriWord)
    }

    /// True for cells whose outputs flow combinationally from their data
    /// inputs: no state, no clock. Tri-state drivers count (their output
    /// follows `en`/`d` combinationally); [`CellKind::Macro`] does not —
    /// behavioural controllers hold state, so static analyses must treat
    /// them as path-breaking, like latches.
    pub fn is_combinational(self) -> bool {
        matches!(
            self,
            CellKind::Buf
                | CellKind::Inv
                | CellKind::And
                | CellKind::Or
                | CellKind::Nand
                | CellKind::Nor
                | CellKind::Xor
                | CellKind::Mux2
                | CellKind::TriBuf
                | CellKind::TriWord
        )
    }
}

impl CellKind {
    /// The cell's library name (`"AND"`, `"DFF"`, …), as printed.
    pub fn name(self) -> &'static str {
        match self {
            CellKind::Buf => "BUF",
            CellKind::Inv => "INV",
            CellKind::And => "AND",
            CellKind::Or => "OR",
            CellKind::Nand => "NAND",
            CellKind::Nor => "NOR",
            CellKind::Xor => "XOR",
            CellKind::Mux2 => "MUX2",
            CellKind::TriBuf => "TRIBUF",
            CellKind::Dff => "DFF",
            CellKind::Etdff => "ETDFF",
            CellKind::DLatch => "DLATCH",
            CellKind::SrLatch => "SRLATCH",
            CellKind::CElement => "CELEM",
            CellKind::AsymCElement => "ACELEM",
            CellKind::Register => "REG",
            CellKind::LatchWord => "LWORD",
            CellKind::TriWord => "TRIWORD",
            CellKind::Macro => "MACRO",
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(CellKind::Dff.is_edge_triggered());
        assert!(CellKind::Register.is_edge_triggered());
        assert!(!CellKind::SrLatch.is_edge_triggered());
        assert!(CellKind::SrLatch.is_state_holding());
        assert!(CellKind::CElement.is_state_holding());
        assert!(!CellKind::Nand.is_state_holding());
        assert!(CellKind::TriBuf.is_tristate());
        assert!(CellKind::TriWord.is_tristate());
        assert!(!CellKind::Buf.is_tristate());
        assert!(CellKind::Nand.is_combinational());
        assert!(CellKind::TriWord.is_combinational());
        assert!(!CellKind::Macro.is_combinational());
        assert!(!CellKind::DLatch.is_combinational());
    }

    #[test]
    fn display_is_short() {
        assert_eq!(CellKind::Etdff.to_string(), "ETDFF");
        assert_eq!(CellKind::AsymCElement.to_string(), "ACELEM");
    }
}
