//! Tri-state drivers.

use mtf_sim::{Component, Ctx, DriverId, Logic, NetId};

use crate::kind::CellKind;
use crate::netlist::DelayTable;

/// A single-bit tri-state driver: drives `d` onto the bus while `en` is
/// high, contributes `Z` while low. An unknown enable drives `X`
/// (pessimistic — a floating enable may be fighting other drivers).
///
/// The FIFO cells of the paper use these to broadcast dequeued data on the
/// shared `get_data` bus: exactly one cell (the get-token holder) enables
/// its drivers in any cycle.
pub struct TriBuf {
    name: String,
    en: NetId,
    d: NetId,
    out: DriverId,
    delays: DelayTable,
    inst: usize,
}

impl std::fmt::Debug for TriBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TriBuf").field("name", &self.name).finish()
    }
}

impl TriBuf {
    /// Creates the behavioural half of a tri-state instance (normally via
    /// [`Builder::tribuf_onto`](crate::Builder::tribuf_onto)).
    pub fn new(
        name: impl Into<String>,
        en: NetId,
        d: NetId,
        out: DriverId,
        delays: DelayTable,
        inst: usize,
    ) -> Self {
        TriBuf {
            name: name.into(),
            en,
            d,
            out,
            delays,
            inst,
        }
    }

    pub(crate) fn output_value(en: Logic, d: Logic) -> Logic {
        match en {
            // Enabled with still-undriven data: the bus is pending, not in
            // conflict (see the Z-vs-X discussion on
            // [`GateFunc::apply`](crate::GateFunc::apply)).
            Logic::H => d,
            Logic::L => Logic::Z,
            Logic::Z => Logic::Z,
            Logic::X => Logic::X,
        }
    }
}

impl Component for TriBuf {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &'static str {
        CellKind::TriBuf.name()
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let v = Self::output_value(ctx.get(self.en), ctx.get(self.d));
        let delay = self.delays.borrow()[self.inst];
        ctx.drive(self.out, v, delay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Logic::*;

    #[test]
    fn truth_table() {
        assert_eq!(TriBuf::output_value(H, H), H);
        assert_eq!(TriBuf::output_value(H, L), L);
        assert_eq!(TriBuf::output_value(H, X), X);
        assert_eq!(TriBuf::output_value(H, Z), Z);
        assert_eq!(TriBuf::output_value(L, H), Z);
        assert_eq!(TriBuf::output_value(L, X), Z);
        assert_eq!(TriBuf::output_value(X, H), X);
        assert_eq!(TriBuf::output_value(Z, L), Z);
    }
}
