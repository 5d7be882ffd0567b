//! Muller C-elements, symmetric and asymmetric.

use mtf_sim::{Component, Ctx, DriverId, Logic, NetId};

use crate::comb::with_levels;
use crate::kind::CellKind;
use crate::netlist::DelayTable;

// NOTE on `Z` inputs: a C-element is a state-holding cell, so an undriven
// input reads as "no transition request" — it blocks both the set and the
// reset consensus but never forces the output to `X`. (At power-up the
// driving gates have not produced values yet; poisoning the held state
// would be wrong.) A definite `X` stays pessimistic.

/// A symmetric Muller C-element: the output goes high when *all* inputs
/// are high, low when *all* inputs are low, and holds its value otherwise.
///
/// The workhorse of asynchronous control (micropipeline stages, handshake
/// joins). Unknown inputs are treated pessimistically: if an `X` input
/// could flip the output, the output goes `X`.
///
/// After an elided drive, an input equal to the state pins it, so the
/// cell waits for that input alone ([`Ctx::sleep_until_change`]).
pub struct CElement {
    name: String,
    inputs: Vec<NetId>,
    out: DriverId,
    state: Logic,
    started: bool,
    delays: DelayTable,
    inst: usize,
}

impl std::fmt::Debug for CElement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CElement")
            .field("name", &self.name)
            .field("state", &self.state)
            .finish()
    }
}

impl CElement {
    /// Creates the behavioural half of a C-element instance.
    pub fn new(
        name: impl Into<String>,
        inputs: Vec<NetId>,
        out: DriverId,
        init: Logic,
        delays: DelayTable,
        inst: usize,
    ) -> Self {
        CElement {
            name: name.into(),
            inputs,
            out,
            state: init,
            started: false,
            delays,
            inst,
        }
    }

    pub(crate) fn next_state(state: Logic, inputs: &[Logic]) -> Logic {
        if inputs.iter().all(|&v| v == Logic::H) {
            Logic::H
        } else if inputs.iter().all(|&v| v == Logic::L) {
            Logic::L
        } else if inputs.contains(&Logic::X) {
            // Could the unknowns complete a set or a reset? (Z blocks both.)
            let could_set =
                state != Logic::H && inputs.iter().all(|&v| v == Logic::H || v == Logic::X);
            let could_reset =
                state != Logic::L && inputs.iter().all(|&v| v == Logic::L || v == Logic::X);
            if could_set || could_reset {
                Logic::X
            } else {
                state
            }
        } else {
            state
        }
    }

    /// The first input equal to `state`: while it keeps its level, no
    /// other input can move the state. It blocks the consensus away from
    /// `state`, and an `X` or `Z` input blocks both.
    pub(crate) fn held_input(state: Logic, inputs: &[Logic]) -> Option<usize> {
        inputs.iter().position(|&v| v == state)
    }
}

impl Component for CElement {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &'static str {
        CellKind::CElement.name()
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        if !self.started {
            self.started = true;
            // The power-on state is on the output from t = 0; only
            // *changes* take a gate delay. (A delayed initial drive could
            // be cancelled by an early input change, making the output
            // jump Z -> new-value and robbing downstream edge-triggered
            // controllers of the first edge.)
            ctx.drive(self.out, self.state, mtf_sim::Time::ZERO);
            // Return: a second drive in this same eval would supersede
            // (cancel) the zero-delay one. Any same-instant input change
            // re-triggers eval anyway.
            return;
        }
        let delay = self.delays.borrow()[self.inst];
        let (state, inputs, out) = (self.state, &self.inputs, self.out);
        self.state = with_levels(ctx, inputs, |ctx, vals| {
            let next = Self::next_state(state, vals);
            if ctx.drive(out, next, delay) {
                if let Some(i) = Self::held_input(next, vals) {
                    ctx.sleep_until_change(inputs[i]);
                }
            }
            next
        });
    }
}

/// An *asymmetric* C-element, as used to sequence the asynchronous put
/// operation in the paper's async-sync cell (Fig. 9, footnote 1).
///
/// The `common` inputs participate in both transitions; the `plus` inputs
/// participate only in the rising transition:
///
/// * output goes **high** when all `common` *and* all `plus` inputs are
///   high;
/// * output goes **low** when all `common` inputs are low (the `plus`
///   inputs are irrelevant);
/// * otherwise it holds.
///
/// After an elided drive, a `common` input equal to the state, or at `L`
/// any input at `L`, pins the state, so the cell waits for that input
/// alone ([`Ctx::sleep_until_change`]).
pub struct AsymCElement {
    name: String,
    /// The `common` inputs, then the `plus` inputs.
    inputs: Vec<NetId>,
    /// How many of `inputs` are `common`.
    common: usize,
    out: DriverId,
    state: Logic,
    started: bool,
    delays: DelayTable,
    inst: usize,
}

impl std::fmt::Debug for AsymCElement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsymCElement")
            .field("name", &self.name)
            .field("state", &self.state)
            .finish()
    }
}

impl AsymCElement {
    /// Creates the behavioural half of an asymmetric C-element instance.
    pub fn new(
        name: impl Into<String>,
        common: Vec<NetId>,
        plus: Vec<NetId>,
        out: DriverId,
        init: Logic,
        delays: DelayTable,
        inst: usize,
    ) -> Self {
        let n = common.len();
        AsymCElement {
            name: name.into(),
            inputs: [common, plus].concat(),
            common: n,
            out,
            state: init,
            started: false,
            delays,
            inst,
        }
    }

    pub(crate) fn next_state(state: Logic, common: &[Logic], plus: &[Logic]) -> Logic {
        let all_high = common.iter().chain(plus).all(|&v| v == Logic::H);
        let common_low = common.iter().all(|&v| v == Logic::L);
        if all_high {
            Logic::H
        } else if common_low {
            Logic::L
        } else {
            let any_x = common.iter().chain(plus).any(|&v| v == Logic::X);
            if !any_x {
                return state;
            }
            // Z blocks both transitions (see module note on Z inputs).
            let could_set = state != Logic::H
                && common
                    .iter()
                    .chain(plus)
                    .all(|&v| v == Logic::H || v == Logic::X);
            let could_reset =
                state != Logic::L && common.iter().all(|&v| v == Logic::L || v == Logic::X);
            if could_set || could_reset {
                Logic::X
            } else {
                state
            }
        }
    }

    /// An input that pins `state` while it keeps its level, as an index
    /// into `common` followed by `plus`: a `common` input equal to the
    /// state, or at `L` any input at `L` (a low `plus` input blocks the
    /// rise, and a fall leaves the state `L`). At `H` a `plus` input pins
    /// nothing, since the `common` inputs alone reset the cell.
    pub(crate) fn held_input(state: Logic, common: &[Logic], plus: &[Logic]) -> Option<usize> {
        let low_plus = || {
            (state == Logic::L)
                .then(|| plus.iter().position(|&v| v == Logic::L))
                .flatten()
                .map(|i| common.len() + i)
        };
        common.iter().position(|&v| v == state).or_else(low_plus)
    }
}

impl Component for AsymCElement {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &'static str {
        CellKind::AsymCElement.name()
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        if !self.started {
            self.started = true;
            ctx.drive(self.out, self.state, mtf_sim::Time::ZERO); // see CElement
            return;
        }
        let delay = self.delays.borrow()[self.inst];
        let (state, inputs, out) = (self.state, &self.inputs, self.out);
        let common = self.common;
        self.state = with_levels(ctx, inputs, |ctx, vals| {
            let (c, p) = vals.split_at(common);
            let next = Self::next_state(state, c, p);
            if ctx.drive(out, next, delay) {
                if let Some(i) = Self::held_input(next, c, p) {
                    ctx.sleep_until_change(inputs[i]);
                }
            }
            next
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comb::level_vectors;
    use Logic::*;

    #[test]
    fn c_element_sets_and_resets_on_consensus() {
        assert_eq!(CElement::next_state(L, &[H, H]), H);
        assert_eq!(CElement::next_state(H, &[L, L]), L);
    }

    #[test]
    fn c_element_holds_on_disagreement() {
        assert_eq!(CElement::next_state(L, &[H, L]), L);
        assert_eq!(CElement::next_state(H, &[H, L]), H);
    }

    #[test]
    fn c_element_x_only_when_it_matters() {
        // X could complete the set from L.
        assert_eq!(CElement::next_state(L, &[H, X]), X);
        // Output already high: an X that could only set is harmless.
        assert_eq!(CElement::next_state(H, &[H, X]), H);
        // A definite L among the inputs blocks any set: holds.
        assert_eq!(CElement::next_state(H, &[L, X]), X); // could reset
        assert_eq!(CElement::next_state(L, &[L, X]), L); // reset is a no-op
    }

    #[test]
    fn asym_truth_table() {
        // Rise requires everything high.
        assert_eq!(AsymCElement::next_state(L, &[H], &[H]), H);
        // Plus input low blocks the rise.
        assert_eq!(AsymCElement::next_state(L, &[H], &[L]), L);
        // Fall requires only the common inputs low.
        assert_eq!(AsymCElement::next_state(H, &[L], &[H]), L);
        // Mixed commons hold.
        assert_eq!(AsymCElement::next_state(H, &[L, H], &[H]), H);
    }

    #[test]
    fn z_inputs_hold_state() {
        // Undriven inputs at power-up must not poison the held state.
        assert_eq!(CElement::next_state(L, &[Z, Z]), L);
        assert_eq!(CElement::next_state(H, &[Z, L]), H);
        assert_eq!(CElement::next_state(L, &[Z, H]), L);
        // Z also blocks an X from completing a consensus.
        assert_eq!(CElement::next_state(L, &[Z, X]), L);
        assert_eq!(AsymCElement::next_state(L, &[Z], &[H]), L);
        assert_eq!(AsymCElement::next_state(H, &[Z], &[L]), H);
    }

    /// Every state and input vector of one to three inputs: an input the
    /// cell holds on pins the next state (and so the output) whatever
    /// the other inputs do.
    #[test]
    fn a_held_input_fixes_the_state() {
        let mut held = 0;
        for n in 1..=3 {
            let all = level_vectors(n);
            for state in [L, H, X, Z] {
                for v in &all {
                    let Some(i) = CElement::held_input(state, v) else {
                        continue;
                    };
                    held += 1;
                    for w in all.iter().filter(|w| w[i] == v[i]) {
                        assert_eq!(CElement::next_state(state, w), state, "{state:?} {w:?}");
                    }
                }
            }
        }
        // Each state: 1 + 7 + 37 vectors hold it somewhere.
        assert_eq!(held, 4 * 45);
    }

    /// The same for the asymmetric cell, over every split of one to three
    /// inputs into at least one `common` and the rest `plus`.
    #[test]
    fn a_held_asym_input_fixes_the_state() {
        let mut held = 0;
        for n in 1..=3 {
            let all = level_vectors(n);
            for common in 1..=n {
                for state in [L, H, X, Z] {
                    for v in &all {
                        let (c, p) = v.split_at(common);
                        let Some(i) = AsymCElement::held_input(state, c, p) else {
                            continue;
                        };
                        held += 1;
                        for w in all.iter().filter(|w| w[i] == v[i]) {
                            let (c, p) = w.split_at(common);
                            let next = AsymCElement::next_state(state, c, p);
                            assert_eq!(next, state, "{state:?} {c:?} {p:?}");
                        }
                    }
                }
            }
        }
        // At `L` the vectors with an `L` anywhere; at the other states
        // those with the state among the `common` inputs.
        assert_eq!(held, 405);
    }

    /// At `H` a `plus` input pins nothing: the `common` inputs reset.
    #[test]
    fn a_high_plus_input_is_not_held() {
        assert_eq!(AsymCElement::held_input(H, &[X], &[H]), None);
        assert_eq!(AsymCElement::next_state(H, &[L], &[H]), L);
        assert_eq!(AsymCElement::held_input(L, &[X], &[L]), Some(1));
    }

    #[test]
    fn asym_x_pessimism() {
        assert_eq!(AsymCElement::next_state(L, &[H], &[X]), X);
        // Already high: plus X cannot matter, and common H blocks reset.
        assert_eq!(AsymCElement::next_state(H, &[H], &[X]), H);
        // Common X while high: could reset.
        assert_eq!(AsymCElement::next_state(H, &[X], &[L]), X);
    }
}
