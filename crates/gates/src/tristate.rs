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
///
/// After an elided drive with the enable not `H`, the output no longer
/// depends on `d`, so the driver waits for the enable alone
/// ([`Ctx::sleep_until_change`]).
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

    /// Whether an enable at `en` fixes the output whatever the data do:
    /// at any level but `H`.
    pub(crate) fn enable_holds(en: Logic) -> bool {
        en != Logic::H
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
        let en = ctx.get(self.en);
        let v = Self::output_value(en, ctx.get(self.d));
        let delay = self.delays.borrow()[self.inst];
        if ctx.drive(self.out, v, delay) && Self::enable_holds(en) {
            ctx.sleep_until_change(self.en);
        }
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

    /// Every `(en, d)` pair: where the enable holds, every `d` gives the
    /// same output; at `H` the output follows `d`.
    #[test]
    fn a_holding_enable_fixes_the_output() {
        let all = crate::comb::level_vectors(2);
        for v in &all {
            let (en, d) = (v[0], v[1]);
            let out = TriBuf::output_value(en, d);
            if TriBuf::enable_holds(en) {
                for w in all.iter().filter(|w| w[0] == en) {
                    assert_eq!(TriBuf::output_value(en, w[1]), out, "{v:?} vs {w:?}");
                }
            } else {
                assert_eq!(out, d);
            }
        }
    }
}
