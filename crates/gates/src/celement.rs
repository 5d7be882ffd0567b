//! Muller C-elements, symmetric and asymmetric.

use mtf_sim::{Component, Ctx, DriverId, Logic, NetId};

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
        let vals: Vec<Logic> = self.inputs.iter().map(|&n| ctx.get(n)).collect();
        self.state = Self::next_state(self.state, &vals);
        let delay = self.delays.borrow()[self.inst];
        ctx.drive(self.out, self.state, delay);
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
pub struct AsymCElement {
    name: String,
    common: Vec<NetId>,
    plus: Vec<NetId>,
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
        AsymCElement {
            name: name.into(),
            common,
            plus,
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
        let c: Vec<Logic> = self.common.iter().map(|&n| ctx.get(n)).collect();
        let p: Vec<Logic> = self.plus.iter().map(|&n| ctx.get(n)).collect();
        self.state = Self::next_state(self.state, &c, &p);
        let delay = self.delays.borrow()[self.inst];
        ctx.drive(self.out, self.state, delay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn asym_x_pessimism() {
        assert_eq!(AsymCElement::next_state(L, &[H], &[X]), X);
        // Already high: plus X cannot matter, and common H blocks reset.
        assert_eq!(AsymCElement::next_state(H, &[H], &[X]), H);
        // Common X while high: could reset.
        assert_eq!(AsymCElement::next_state(H, &[X], &[L]), X);
    }
}
