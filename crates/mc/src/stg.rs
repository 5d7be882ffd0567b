//! Exhaustive model checking of STG / 1-safe Petri-net controllers.
//!
//! The full property set with *replayable counterexample traces*:
//! 1-safety, deadlock-freedom, output persistence (semi-modularity — an
//! enabled output transition is never disabled by another signal's
//! firing, so the synthesized logic cannot glitch), convergence
//! (independent enabled transitions commute — the diamond property, which
//! is the STG-convergence lint the roadmap carried), consistency, and dead
//! transitions. The state space of a controller is tiny (markings ×
//! signal levels), so plain breadth-first enumeration over all
//! environment interleavings is exact.
//!
//! The explorer steps the spec through `mtf-async`'s own rule
//! ([`StgSpec::is_marked`], [`StgSpec::is_enabled`], [`StgSpec::fire`]
//! over the packed [`StgState`]), the one `StgMachine` executes, so the
//! checked model is the simulated one by construction.

use mtf_async::{StgSpec, StgState};

use crate::space::{Counterexample, Move, Property, StateSpace, TransitionSystem, Verdict};

/// [`StgSpec`] viewed as a transition system under a maximally liberal
/// environment: any enabled, consistent, 1-safe input edge may fire at any
/// time, interleaved with the autonomous output transitions.
struct StgSystem<'a>(&'a StgSpec);

impl TransitionSystem for StgSystem<'_> {
    type State = StgState;

    fn initial(&self) -> StgState {
        self.0.initial_state()
    }

    /// Move code `t` is transition `t`.
    fn successors(&self, s: &StgState, out: &mut Vec<(Move, StgState)>) {
        for t in 0..self.0.transitions.len() {
            if !self.0.is_enabled(*s, t) {
                continue;
            }
            if let Some(n) = self.0.fire(*s, t) {
                out.push((Move::new(t as u32, false), n));
            }
        }
    }

    fn label(&self, m: Move) -> String {
        self.0.transition_label(m.code() as usize)
    }
}

/// Per-property verdicts for one STG, plus exploration statistics.
#[derive(Debug)]
pub struct StgCheck {
    /// The net's name.
    pub name: String,
    /// (property, verdict) in a fixed order.
    pub verdicts: Vec<(Property, Verdict)>,
    /// Transitions that never fire from any reachable state.
    pub dead_transitions: Vec<usize>,
    /// The explored space (for containment queries and statistics).
    pub space: StateSpace<StgState>,
}

impl StgCheck {
    /// The verdict for `p`, if that property was checked.
    pub fn verdict(&self, p: Property) -> Option<&Verdict> {
        self.verdicts.iter().find(|(q, _)| *q == p).map(|(_, v)| v)
    }

    /// All properties proven and no dead transitions.
    pub fn is_clean(&self) -> bool {
        self.verdicts.iter().all(|(_, v)| v.holds()) && self.dead_transitions.is_empty()
    }

    /// The first counterexample, if any property is refuted.
    pub fn first_counterexample(&self) -> Option<&Counterexample> {
        self.verdicts.iter().find_map(|(_, v)| v.counterexample())
    }

    /// Is `s` reachable?
    pub fn contains(&self, s: StgState) -> bool {
        self.space.contains(&s)
    }
}

/// Exhaustively checks `spec`: explores every reachable (marking, levels)
/// state under a maximally liberal environment and decides 1-safety,
/// deadlock-freedom, output persistence, convergence, and consistency,
/// with a shortest trace witnessing any refutation.
///
/// # Errors
///
/// `Err` if the spec fails `validate` (which includes the 64
/// place/signal packing limit).
pub fn check_stg(spec: &StgSpec) -> Result<StgCheck, String> {
    spec.validate()?;
    let sys = StgSystem(spec);
    // Controller spaces are tiny; the budget is a blowup fuse only.
    let space = StateSpace::explore(&sys, 1 << 16);
    if space.truncated {
        return Err(format!("{}: state budget exhausted", spec.name));
    }

    let mut one_safe: Option<Counterexample> = None;
    let mut deadlock: Option<Counterexample> = None;
    let mut persistence: Option<Counterexample> = None;
    let mut convergence: Option<Counterexample> = None;
    let mut consistency: Option<Counterexample> = None;
    let mut fired = vec![false; spec.transitions.len()];

    for (i, &s) in space.states.iter().enumerate() {
        let enabled: Vec<usize> = (0..spec.transitions.len())
            .filter(|&t| spec.is_enabled(s, t))
            .collect();
        // Consistency: a preset-enabled transition whose edge direction
        // disagrees with the current signal level.
        if consistency.is_none() {
            if let Some(t) = (0..spec.transitions.len())
                .find(|&t| spec.is_marked(s, t) && !spec.is_enabled(s, t))
            {
                let tr = &spec.transitions[t];
                consistency = Some(Counterexample {
                    property: Property::Consistent,
                    trace: space.trace_to(i),
                    lasso: vec![],
                    reason: format!(
                        "{} is marking-enabled while '{}' is already {}",
                        spec.transition_label(t),
                        spec.signals[tr.signal].name,
                        if tr.rising { "high" } else { "low" }
                    ),
                });
            }
        }
        if enabled.is_empty() {
            if deadlock.is_none() {
                deadlock = Some(Counterexample {
                    property: Property::DeadlockFree,
                    trace: space.trace_to(i),
                    lasso: vec![],
                    reason: "dead marking: no transition is enabled".into(),
                });
            }
            continue;
        }
        for &t in &enabled {
            fired[t] = true;
            let Some(after_t) = spec.fire(s, t) else {
                if one_safe.is_none() {
                    let mut trace = space.trace_to(i);
                    trace.push(spec.transition_label(t));
                    one_safe = Some(Counterexample {
                        property: Property::OneSafe,
                        trace,
                        lasso: vec![],
                        reason: format!(
                            "firing {} produces into an already-marked place",
                            spec.transition_label(t)
                        ),
                    });
                }
                continue;
            };
            for &u in &enabled {
                if u == t || spec.transitions[u].signal == spec.transitions[t].signal {
                    continue;
                }
                let disables_u = !spec.is_marked(after_t, u);
                // Output persistence: firing t must not disable an
                // enabled output transition of another signal.
                let u_is_output = !spec.signals[spec.transitions[u].signal].is_input;
                if disables_u && u_is_output && persistence.is_none() {
                    persistence = Some(Counterexample {
                        property: Property::OutputPersistent,
                        trace: space.trace_to(i),
                        lasso: vec![],
                        reason: format!(
                            "firing {} disables the enabled output {}",
                            spec.transition_label(t),
                            spec.transition_label(u)
                        ),
                    });
                }
                // Convergence: if t and u are independent (neither
                // disables the other), both firing orders must close the
                // diamond on the same state.
                if !disables_u && convergence.is_none() {
                    if let Some(after_u) = spec.fire(s, u) {
                        if spec.is_marked(after_u, t) {
                            let tu = spec.fire(after_t, u);
                            let ut = spec.fire(after_u, t);
                            if tu != ut {
                                convergence = Some(Counterexample {
                                    property: Property::Convergent,
                                    trace: space.trace_to(i),
                                    lasso: vec![],
                                    reason: format!(
                                        "{} and {} do not commute",
                                        spec.transition_label(t),
                                        spec.transition_label(u)
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
    }

    Ok(StgCheck {
        name: spec.name.clone(),
        verdicts: vec![
            (Property::OneSafe, one_safe.into()),
            (Property::DeadlockFree, deadlock.into()),
            (Property::OutputPersistent, persistence.into()),
            (Property::Convergent, convergence.into()),
            (Property::Consistent, consistency.into()),
        ],
        dead_transitions: fired
            .iter()
            .enumerate()
            .filter(|(_, &f)| !f)
            .map(|(t, _)| t)
            .collect(),
        space,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtf_async::{dv_as_spec, dv_sa_spec};

    #[test]
    fn dv_controllers_are_clean() {
        for spec in [dv_as_spec(0), dv_sa_spec(0)] {
            let c = check_stg(&spec).expect("checkable");
            assert!(c.is_clean(), "{}: {:?}", c.name, c.first_counterexample());
            assert!(c.space.len() < 64, "{}", c.space.len());
        }
    }

    #[test]
    fn dropped_arc_yields_a_deadlock_trace() {
        // The injected regression: re− forgets to produce the ei+ pending
        // token, so after one full put/get cycle the controller is dead.
        let mut spec = dv_as_spec(0);
        spec.transitions[6].produce.clear();
        let c = check_stg(&spec).expect("checkable");
        let v = c.verdict(Property::DeadlockFree).unwrap();
        assert!(!v.holds());
        let cx = v.counterexample().unwrap();
        // One full put/get cycle is the (unique-length) shortest path to
        // the dead marking; interleaving of the independent middle steps
        // may vary, the endpoints may not.
        assert_eq!(cx.trace.len(), 7, "{:?}", cx.trace);
        assert_eq!(cx.trace[0], "we+");
        assert!(cx.trace.contains(&"re−".to_string()));
    }

    #[test]
    fn unsafe_production_is_traced() {
        let mut spec = dv_as_spec(0);
        spec.transitions[0].produce.push(0); // we− will over-mark place 0
        let c = check_stg(&spec).expect("checkable");
        let v = c.verdict(Property::OneSafe).unwrap();
        assert!(!v.holds());
        assert!(v
            .counterexample()
            .unwrap()
            .trace
            .contains(&"we−".to_string()));
    }

    #[test]
    fn contains_tracks_the_pure_walk() {
        let spec = dv_as_spec(0);
        let c = check_stg(&spec).expect("checkable");
        let mut s = spec.initial_state();
        assert!(c.contains(s));
        for t in [0usize, 1, 2, 3] {
            s = spec.fire(s, t).unwrap();
            assert!(c.contains(s), "after transition {t}");
        }
    }
}
