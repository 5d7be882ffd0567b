//! The tri-state driving rule of [`TriWord`](crate::TriWord), the one
//! tri-state cell (a `TRIBUF` is a one-bit word).

use mtf_sim::Logic;

/// What a tri-state driver puts on its bus with the enable at `en` and
/// the data at `d`: `d` while `en` is high, `Z` while low. An unknown
/// enable drives `X` (pessimistic — a floating enable may be fighting
/// other drivers).
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

#[cfg(test)]
mod tests {
    use super::*;
    use Logic::*;

    #[test]
    fn truth_table() {
        assert_eq!(output_value(H, H), H);
        assert_eq!(output_value(H, L), L);
        assert_eq!(output_value(H, X), X);
        assert_eq!(output_value(H, Z), Z);
        assert_eq!(output_value(L, H), Z);
        assert_eq!(output_value(L, X), Z);
        assert_eq!(output_value(X, H), X);
        assert_eq!(output_value(Z, L), Z);
    }

    /// Every `(en, d)` pair: where the enable holds, every `d` gives the
    /// same output; at `H` the output follows `d`.
    #[test]
    fn a_holding_enable_fixes_the_output() {
        let all = crate::comb::level_vectors(2);
        for v in &all {
            let (en, d) = (v[0], v[1]);
            let out = output_value(en, d);
            if enable_holds(en) {
                for w in all.iter().filter(|w| w[0] == en) {
                    assert_eq!(output_value(en, w[1]), out, "{v:?} vs {w:?}");
                }
            } else {
                assert_eq!(out, d);
            }
        }
    }
}
