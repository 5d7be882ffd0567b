//! Exhaustive checking of burst-mode machines.
//!
//! A burst-mode state is (specification state, current input/output
//! levels, levels on state entry). The environment is the *safe* one the
//! burst-mode contract assumes: it may issue any input edge that is part
//! of an outgoing burst of the current state and has not arrived yet —
//! in any order, which is exactly the freedom the paper's Minimalist
//! controllers must tolerate. When a full input burst is in, the machine
//! fires the output burst and advances atomically. Which burst has
//! completed is `mtf-async`'s own rule ([`BmSpec::completed`]), the one
//! `mtf_async::BmMachine` executes, so the checked model is the simulated
//! one by construction; only the output-burst consistency verdict is the
//! checker's own.
//!
//! Checked: deadlock-freedom (some input edge is always expected),
//! consistency (no output burst drives a signal to the level it already
//! has), and convergence (the arrival order of a burst's edges cannot
//! change the destination state or output levels).

use mtf_async::BmSpec;

use crate::space::{Counterexample, Move, Property, StateSpace, TransitionSystem, Verdict};

/// One explored burst-mode state.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BmState {
    /// Specification state index.
    pub state: usize,
    /// Current input levels, bit-packed.
    pub inputs: u64,
    /// Input levels on entry to `state`.
    pub entry: u64,
    /// Current output levels, bit-packed.
    pub outputs: u64,
}

struct BmSystem<'a> {
    spec: &'a BmSpec,
}

/// Bit `i` of `m`.
fn bit(m: u64, i: usize) -> bool {
    m & 1 << i != 0
}

/// `s` with input `i` moved to `lvl`, before the machine reacts.
fn apply(mut s: BmState, i: usize, lvl: bool) -> BmState {
    s.inputs = if lvl {
        s.inputs | 1 << i
    } else {
        s.inputs & !(1 << i)
    };
    s
}

impl BmSystem<'_> {
    /// Fires the burst [`BmSpec::completed`] picks at `s`, if any, which
    /// leaves the machine quiescent. Returns the settled state; `Err` with
    /// the offending output if the output burst re-drives a signal to its
    /// current level.
    fn settle(&self, mut s: BmState) -> Result<BmState, (BmState, usize)> {
        let Some(t) = self.spec.completed(
            s.state,
            move |i, lvl| bit(s.inputs, i) == lvl,
            move |i, lvl| bit(s.entry, i) == lvl,
        ) else {
            return Ok(s);
        };
        for &(o, lvl) in &t.outputs {
            if bit(s.outputs, o) == lvl {
                return Err((s, o));
            }
            s.outputs ^= 1 << o;
        }
        s.state = t.next;
        s.entry = s.inputs;
        Ok(s)
    }

    /// The input edges the safe environment may issue at `s`: any burst
    /// member not yet arrived (relative to entry), each once, in order of
    /// first mention.
    fn env_edges(&self, s: BmState) -> impl Iterator<Item = (usize, bool)> + '_ {
        let bursts = &self.spec.states[s.state];
        let members = move || bursts.iter().flat_map(|t| t.inputs.iter().copied());
        members()
            .enumerate()
            .filter(move |&(k, (i, lvl))| {
                bit(s.inputs, i) != lvl && !members().take(k).any(|e| e == (i, lvl))
            })
            .map(|(_, e)| e)
    }
}

/// The label of input `i`'s edge to `lvl`: `a+` / `a−`.
fn edge_label(spec: &BmSpec, i: usize, lvl: bool) -> String {
    format!("{}{}", spec.input_names[i], if lvl { "+" } else { "−" })
}

impl TransitionSystem for BmSystem<'_> {
    type State = BmState;

    fn initial(&self) -> BmState {
        let outputs = self
            .spec
            .initial_outputs
            .iter()
            .enumerate()
            .fold(0u64, |o, (i, &b)| if b { o | 1 << i } else { o });
        // Inputs power on at the level opposite the first edge expected of
        // them is unknowable in general; the interpreter samples the real
        // nets. Here every input starts low, matching the spawn rigs.
        BmState {
            state: self.spec.initial_state,
            inputs: 0,
            entry: 0,
            outputs,
        }
    }

    /// Move code `2i + lvl` is input `i`'s edge to `lvl`.
    fn successors(&self, s: &BmState, out: &mut Vec<(Move, BmState)>) {
        for (i, lvl) in self.env_edges(*s) {
            // Inconsistent output bursts surface in the property pass;
            // the successor relation stops at them.
            if let Ok(settled) = self.settle(apply(*s, i, lvl)) {
                out.push((Move::new(2 * i as u32 + u32::from(lvl), false), settled));
            }
        }
    }

    fn label(&self, m: Move) -> String {
        let code = m.code() as usize;
        edge_label(self.spec, code / 2, code % 2 == 1)
    }
}

/// Per-property verdicts for one burst-mode machine.
#[derive(Debug)]
pub struct BmCheck {
    /// The machine's name.
    pub name: String,
    /// (property, verdict) in a fixed order.
    pub verdicts: Vec<(Property, Verdict)>,
    /// The explored space.
    pub space: StateSpace<BmState>,
}

impl BmCheck {
    /// The verdict for `p`, if checked.
    pub fn verdict(&self, p: Property) -> Option<&Verdict> {
        self.verdicts.iter().find(|(q, _)| *q == p).map(|(_, v)| v)
    }

    /// All properties proven.
    pub fn is_clean(&self) -> bool {
        self.verdicts.iter().all(|(_, v)| v.holds())
    }
}

/// Exhaustively checks `spec` under the safe burst-mode environment.
///
/// # Errors
///
/// `Err` if the spec fails `validate` (which includes the 64 input/output
/// packing limit).
pub fn check_bm(spec: &BmSpec) -> Result<BmCheck, String> {
    spec.validate()?;
    let sys = BmSystem { spec };
    let space = StateSpace::explore(&sys, 1 << 16);
    if space.truncated {
        return Err(format!("{}: state budget exhausted", spec.name));
    }

    let mut deadlock: Option<Counterexample> = None;
    let mut consistency: Option<Counterexample> = None;
    let mut convergence: Option<Counterexample> = None;

    for (i, &s) in space.states.iter().enumerate() {
        let edges: Vec<(usize, bool)> = sys.env_edges(s).collect();
        if edges.is_empty() && deadlock.is_none() {
            deadlock = Some(Counterexample {
                property: Property::DeadlockFree,
                trace: space.trace_to(i),
                lasso: vec![],
                reason: format!("state {} expects no further input edge", s.state),
            });
        }
        for &(a, la) in &edges {
            match sys.settle(apply(s, a, la)) {
                Err((bad, o)) => {
                    if consistency.is_none() {
                        let mut trace = space.trace_to(i);
                        trace.push(edge_label(spec, a, la));
                        consistency = Some(Counterexample {
                            property: Property::Consistent,
                            trace,
                            lasso: vec![],
                            reason: format!(
                                "state {}: output burst re-drives '{}' to its current level",
                                bad.state, spec.output_names[o]
                            ),
                        });
                    }
                }
                Ok(after_a) => {
                    // Convergence: for any other pending edge b, a;b and
                    // b;a must settle to the same state.
                    for &(b, lb) in &edges {
                        if (b, lb) == (a, la) || convergence.is_some() {
                            continue;
                        }
                        // b may have been consumed by a's burst firing; it
                        // is only still issuable if some burst of the new
                        // state wants it.
                        let ab = sys
                            .env_edges(after_a)
                            .any(|e| e == (b, lb))
                            .then(|| sys.settle(apply(after_a, b, lb)).ok())
                            .flatten();
                        let ba = sys
                            .settle(apply(s, b, lb))
                            .ok()
                            .filter(|st| sys.env_edges(*st).any(|e| e == (a, la)))
                            .and_then(|st| sys.settle(apply(st, a, la)).ok());
                        if let (Some(x), Some(y)) = (ab, ba) {
                            if x != y {
                                convergence = Some(Counterexample {
                                    property: Property::Convergent,
                                    trace: space.trace_to(i),
                                    lasso: vec![],
                                    reason: format!(
                                        "edge orders {}/{} then {}/{} settle differently",
                                        spec.input_names[a], la, spec.input_names[b], lb
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
    }

    Ok(BmCheck {
        name: spec.name.clone(),
        verdicts: vec![
            (Property::DeadlockFree, deadlock.into()),
            (Property::Convergent, convergence.into()),
            (Property::Consistent, consistency.into()),
        ],
        space,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtf_async::{ogt_spec, opt_spec, BmSpec, BmTransition};

    #[test]
    fn token_controllers_are_clean() {
        for spec in [opt_spec(0, false), opt_spec(0, true), ogt_spec(1, false)] {
            let c = check_bm(&spec).expect("checkable");
            assert!(c.is_clean(), "{}: {:?}", c.name, c.verdicts);
            assert!(c.space.len() < 32, "{}", c.space.len());
        }
    }

    #[test]
    fn inconsistent_output_burst_is_caught() {
        // A machine whose second transition re-raises an already-high
        // output.
        let spec = BmSpec {
            name: "bad".into(),
            input_names: vec!["a".into()],
            output_names: vec!["y".into()],
            states: vec![
                vec![BmTransition {
                    inputs: vec![(0, true)],
                    outputs: vec![(0, true)],
                    next: 1,
                }],
                vec![BmTransition {
                    inputs: vec![(0, false)],
                    outputs: vec![(0, true)],
                    next: 0,
                }],
            ],
            initial_state: 0,
            initial_outputs: vec![false],
        };
        let c = check_bm(&spec).expect("checkable");
        assert!(!c.verdict(Property::Consistent).unwrap().holds());
    }

    #[test]
    fn dead_end_state_is_caught() {
        let spec = BmSpec {
            name: "dead".into(),
            input_names: vec!["a".into()],
            output_names: vec![],
            states: vec![
                vec![BmTransition {
                    inputs: vec![(0, true)],
                    outputs: vec![],
                    next: 1,
                }],
                vec![], // no way out
            ],
            initial_state: 0,
            initial_outputs: vec![],
        };
        let c = check_bm(&spec).expect("checkable");
        assert!(!c.verdict(Property::DeadlockFree).unwrap().holds());
    }
}
