//! Combinational gate components.

use mtf_sim::{Component, Ctx, DriverId, Logic, NetId};

use crate::kind::CellKind;
use crate::netlist::DelayTable;

/// The boolean function a [`CombGate`] computes, with Kleene (`X`-aware)
/// semantics and pending-`Z` propagation (see [`GateFunc::apply`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GateFunc {
    /// Identity (first input).
    Buf,
    /// Negation (first input).
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
    /// Inputs `[sel, a, b]`: `a` when `sel` low, `b` when high, and if
    /// `sel` is unknown, `X` unless `a == b`.
    Mux2,
    /// AND of the first input with the complement of the second:
    /// `a AND NOT b`, the "stop gate" used by the relay-station
    /// controllers.
    AndNot,
    /// OR of the first input with the complement of the second:
    /// `a OR NOT b`.
    OrNot,
}

impl GateFunc {
    /// The library cell that implements this function: `AndNot` and
    /// `OrNot` are an AND and an OR with one inverted input.
    pub fn cell_kind(self) -> CellKind {
        match self {
            GateFunc::Buf => CellKind::Buf,
            GateFunc::Inv => CellKind::Inv,
            GateFunc::And | GateFunc::AndNot => CellKind::And,
            GateFunc::Or | GateFunc::OrNot => CellKind::Or,
            GateFunc::Nand => CellKind::Nand,
            GateFunc::Nor => CellKind::Nor,
            GateFunc::Xor => CellKind::Xor,
            GateFunc::Mux2 => CellKind::Mux2,
        }
    }

    /// Applies the function to the input levels.
    ///
    /// `Z` means *not driven yet* (power-up, or a released tri-state bus),
    /// which is different from `X` (*conflict or metastable*): if the
    /// output is not forced by dominating definite inputs (a low on an AND,
    /// a high on an OR, …) and some input is still `Z`, the result is `Z` —
    /// the gate's output is simply still pending. Without this distinction,
    /// the start-up `X` transients of undriven control cones would latch
    /// into SR latches and C-elements and poison them permanently.
    ///
    /// # Panics
    ///
    /// Panics if the number of inputs does not suit the function (e.g. XOR
    /// with three inputs).
    pub fn apply(self, inputs: &[Logic]) -> Logic {
        let r = self.apply_kleene(inputs);
        if r == Logic::X && inputs.contains(&Logic::Z) {
            Logic::Z
        } else {
            r
        }
    }

    /// The index of the first input whose level alone fixes the output,
    /// whatever the other inputs are (`X` and `Z` included): `L` on an
    /// AND or NAND, `H` on an OR or NOR, `a = L` or `b = H` on an ANDNOT,
    /// `a = H` or `b = L` on an ORNOT. BUF, INV, XOR and MUX2 have no
    /// controlling value.
    pub fn controlling(self, inputs: &[Logic]) -> Option<usize> {
        let first = |c: Logic| inputs.iter().position(|&v| v == c);
        let pair = |a: Logic, b: Logic| inputs.iter().zip([a, b]).position(|(&v, c)| v == c);
        match self {
            GateFunc::And | GateFunc::Nand => first(Logic::L),
            GateFunc::Or | GateFunc::Nor => first(Logic::H),
            GateFunc::AndNot => pair(Logic::L, Logic::H),
            GateFunc::OrNot => pair(Logic::H, Logic::L),
            GateFunc::Buf | GateFunc::Inv | GateFunc::Xor | GateFunc::Mux2 => None,
        }
    }

    /// The plain Kleene evaluation with `Z` read as `X`.
    fn apply_kleene(self, inputs: &[Logic]) -> Logic {
        // Normalise Z to X: a floating gate input reads as unknown.
        let norm = |v: Logic| if v == Logic::Z { Logic::X } else { v };
        match self {
            GateFunc::Buf => {
                assert_eq!(inputs.len(), 1, "BUF takes one input");
                norm(inputs[0])
            }
            GateFunc::Inv => {
                assert_eq!(inputs.len(), 1, "INV takes one input");
                !norm(inputs[0])
            }
            GateFunc::And => inputs.iter().map(|&v| norm(v)).fold(Logic::H, Logic::and),
            GateFunc::Or => inputs.iter().map(|&v| norm(v)).fold(Logic::L, Logic::or),
            GateFunc::Nand => !GateFunc::And.apply_kleene(inputs),
            GateFunc::Nor => !GateFunc::Or.apply_kleene(inputs),
            GateFunc::Xor => {
                assert_eq!(inputs.len(), 2, "XOR takes two inputs");
                norm(inputs[0]).xor(norm(inputs[1]))
            }
            GateFunc::Mux2 => {
                assert_eq!(inputs.len(), 3, "MUX2 takes [sel, a, b]");
                let (sel, a, b) = (norm(inputs[0]), norm(inputs[1]), norm(inputs[2]));
                match sel {
                    Logic::L => a,
                    Logic::H => b,
                    _ => {
                        if a == b && a.is_definite() {
                            a
                        } else {
                            Logic::X
                        }
                    }
                }
            }
            GateFunc::AndNot => {
                assert_eq!(inputs.len(), 2, "ANDNOT takes two inputs");
                norm(inputs[0]).and(!norm(inputs[1]))
            }
            GateFunc::OrNot => {
                assert_eq!(inputs.len(), 2, "ORNOT takes two inputs");
                norm(inputs[0]).or(!norm(inputs[1]))
            }
        }
    }
}

/// Reads the levels of `nets` and hands them to `f` with the context.
/// Gate evaluation is the hottest code in the simulator, so the levels go
/// into a stack buffer, not a fresh `Vec` per evaluation; the builder's
/// primitive cells have at most eight inputs, and wider ones spill to the
/// heap.
pub(crate) fn with_levels<R>(
    ctx: &mut Ctx<'_>,
    nets: &[NetId],
    f: impl FnOnce(&mut Ctx<'_>, &[Logic]) -> R,
) -> R {
    let mut buf = [Logic::Z; 8];
    if nets.len() <= buf.len() {
        for (v, &n) in buf.iter_mut().zip(nets) {
            *v = ctx.get(n);
        }
        f(ctx, &buf[..nets.len()])
    } else {
        let wide: Vec<Logic> = nets.iter().map(|&n| ctx.get(n)).collect();
        f(ctx, &wide)
    }
}

/// A combinational gate: recomputes its function whenever an input net
/// changes and schedules the result on its output driver after the
/// instance's current [`DelayTable`] entry.
///
/// When its output already holds the result and an input holds its
/// function's controlling value ([`GateFunc::controlling`]), the gate
/// waits for that input alone ([`Ctx::sleep_until_change`]): until it
/// moves, no other input can change the output.
pub struct CombGate {
    name: String,
    func: GateFunc,
    inputs: Vec<NetId>,
    out: DriverId,
    delays: DelayTable,
    inst: usize,
}

impl std::fmt::Debug for CombGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CombGate")
            .field("name", &self.name)
            .field("func", &self.func)
            .finish()
    }
}

impl CombGate {
    /// Creates the behavioural half of a combinational instance. Normally
    /// called through [`Builder`](crate::Builder), which also records the
    /// structural half.
    pub fn new(
        name: impl Into<String>,
        func: GateFunc,
        inputs: Vec<NetId>,
        out: DriverId,
        delays: DelayTable,
        inst: usize,
    ) -> Self {
        CombGate {
            name: name.into(),
            func,
            inputs,
            out,
            delays,
            inst,
        }
    }
}

impl Component for CombGate {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &'static str {
        self.func.cell_kind().name()
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let (func, inputs, out) = (self.func, &self.inputs, self.out);
        let d = self.delays.borrow()[self.inst];
        with_levels(ctx, inputs, |ctx, vals| {
            if ctx.drive(out, func.apply(vals), d) {
                if let Some(i) = func.controlling(vals) {
                    ctx.sleep_until_change(inputs[i]);
                }
            }
        });
    }
}

/// Every level vector of `n` inputs over `L`, `H`, `X` and `Z`: the
/// domain of the exhaustive hold checks.
#[cfg(test)]
pub(crate) fn level_vectors(n: usize) -> Vec<Vec<Logic>> {
    const LEVELS: [Logic; 4] = [Logic::L, Logic::H, Logic::X, Logic::Z];
    (0..4usize.pow(n as u32))
        .map(|k| {
            (0..n)
                .map(|i| LEVELS[k / 4usize.pow(i as u32) % 4])
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use Logic::*;

    #[test]
    fn and_or_wide() {
        assert_eq!(GateFunc::And.apply(&[H, H, H]), H);
        assert_eq!(GateFunc::And.apply(&[H, L, H]), L);
        assert_eq!(GateFunc::Or.apply(&[L, L, H]), H);
        assert_eq!(GateFunc::Nor.apply(&[L, L]), H);
        assert_eq!(GateFunc::Nand.apply(&[H, H]), L);
    }

    #[test]
    fn x_propagation_is_kleene() {
        assert_eq!(GateFunc::And.apply(&[L, X]), L);
        assert_eq!(GateFunc::And.apply(&[H, X]), X);
        assert_eq!(GateFunc::Or.apply(&[H, X]), H);
        assert_eq!(GateFunc::Or.apply(&[L, X]), X);
    }

    #[test]
    fn z_propagates_as_pending_unless_dominated() {
        // Undetermined with a pending input: still pending.
        assert_eq!(GateFunc::Buf.apply(&[Z]), Z);
        assert_eq!(GateFunc::Inv.apply(&[Z]), Z);
        assert_eq!(GateFunc::And.apply(&[Z, H]), Z);
        assert_eq!(GateFunc::Or.apply(&[Z, L]), Z);
        assert_eq!(GateFunc::Nand.apply(&[Z, H]), Z);
        // Dominating definite inputs force the output regardless of Z.
        assert_eq!(GateFunc::And.apply(&[Z, L]), L);
        assert_eq!(GateFunc::Or.apply(&[Z, H]), H);
        assert_eq!(GateFunc::Nor.apply(&[Z, H]), L);
        assert_eq!(GateFunc::AndNot.apply(&[Z, H]), L);
        // A definite X (conflict/metastable) stays X.
        assert_eq!(GateFunc::Buf.apply(&[X]), X);
        assert_eq!(GateFunc::And.apply(&[X, H]), X);
    }

    #[test]
    fn mux_select() {
        assert_eq!(GateFunc::Mux2.apply(&[L, H, L]), H);
        assert_eq!(GateFunc::Mux2.apply(&[H, H, L]), L);
        assert_eq!(GateFunc::Mux2.apply(&[X, H, H]), H); // agreeing data
        assert_eq!(GateFunc::Mux2.apply(&[X, H, L]), X);
    }

    #[test]
    fn andnot_ornot() {
        assert_eq!(GateFunc::AndNot.apply(&[H, L]), H);
        assert_eq!(GateFunc::AndNot.apply(&[H, H]), L);
        assert_eq!(GateFunc::OrNot.apply(&[L, H]), L);
        assert_eq!(GateFunc::OrNot.apply(&[L, L]), H);
    }

    /// Every level vector of one to three inputs: the controlling input
    /// alone decides the output, so each vector that agrees with another
    /// at that input gives the same result.
    #[test]
    fn a_controlling_input_fixes_the_output() {
        let funcs = [
            (GateFunc::Buf, 1..=1),
            (GateFunc::Inv, 1..=1),
            (GateFunc::And, 1..=3),
            (GateFunc::Or, 1..=3),
            (GateFunc::Nand, 1..=3),
            (GateFunc::Nor, 1..=3),
            (GateFunc::Xor, 2..=2),
            (GateFunc::Mux2, 3..=3),
            (GateFunc::AndNot, 2..=2),
            (GateFunc::OrNot, 2..=2),
        ];
        let mut held = 0;
        for (f, arities) in funcs {
            for n in arities {
                let all = level_vectors(n);
                for v in &all {
                    let Some(i) = f.controlling(v) else {
                        continue;
                    };
                    held += 1;
                    for w in all.iter().filter(|w| w[i] == v[i]) {
                        assert_eq!(f.apply(v), f.apply(w), "{f:?} {v:?} vs {w:?}");
                    }
                }
                if matches!(
                    f,
                    GateFunc::Buf | GateFunc::Inv | GateFunc::Xor | GateFunc::Mux2
                ) {
                    assert!(all.iter().all(|v| f.controlling(v).is_none()), "{f:?}");
                }
            }
        }
        // 1 + 7 + 37 vectors of 1..=3 inputs hold a given level, for each
        // of AND, OR, NAND and NOR; 7 of 16 each for ANDNOT and ORNOT.
        assert_eq!(held, 4 * 45 + 2 * 7);
    }

    #[test]
    #[should_panic]
    fn xor_arity_checked() {
        let _ = GateFunc::Xor.apply(&[H, H, H]);
    }
}
