//! Exhaustive model checking of STG / 1-safe Petri-net controllers.
//!
//! Extends `mtf_async::verify::analyze` (which returns booleans) into the
//! full property set with *replayable counterexample traces*: 1-safety,
//! deadlock-freedom, output persistence (semi-modularity — an enabled
//! output transition is never disabled by another signal's firing, so the
//! synthesized logic cannot glitch), convergence (independent enabled
//! transitions commute — the diamond property, which is the
//! STG-convergence lint the roadmap carried), consistency, and dead
//! transitions. The state space of a controller is tiny (markings ×
//! signal levels), so plain breadth-first enumeration over all
//! environment interleavings is exact.

use mtf_async::StgSpec;

use crate::space::{Counterexample, Move, Property, StateSpace, TransitionSystem, Verdict};

/// One explored state: the 1-safe marking and the signal levels, packed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StgState {
    /// Bit `p` set iff place `p` is marked.
    pub marking: u64,
    /// Bit `i` set iff signal `i` is high.
    pub levels: u64,
}

/// [`StgSpec`] viewed as a transition system under a maximally liberal
/// environment: any enabled, consistent, 1-safe input edge may fire at any
/// time, interleaved with the autonomous output transitions.
struct StgSystem<'a> {
    spec: &'a StgSpec,
    presets: Vec<u64>,
    posts: Vec<u64>,
}

impl<'a> StgSystem<'a> {
    fn new(spec: &'a StgSpec) -> Self {
        let presets = spec
            .transitions
            .iter()
            .map(|t| t.consume.iter().fold(0u64, |m, &p| m | (1 << p)))
            .collect();
        let posts = spec
            .transitions
            .iter()
            .map(|t| t.produce.iter().fold(0u64, |m, &p| m | (1 << p)))
            .collect();
        StgSystem {
            spec,
            presets,
            posts,
        }
    }

    fn initial_state(&self) -> StgState {
        StgState {
            marking: self
                .spec
                .initial_marking
                .iter()
                .fold(0u64, |m, &p| m | (1 << p)),
            levels: self
                .spec
                .signals
                .iter()
                .enumerate()
                .fold(0u64, |l, (i, s)| if s.init { l | (1 << i) } else { l }),
        }
    }

    /// Preset marked at `s`?
    fn marking_enabled(&self, s: StgState, t: usize) -> bool {
        s.marking & self.presets[t] == self.presets[t]
    }

    /// Preset marked *and* the edge direction matches the signal level.
    fn enabled(&self, s: StgState, t: usize) -> bool {
        self.marking_enabled(s, t)
            && (s.levels & (1 << self.spec.transitions[t].signal) != 0)
                != self.spec.transitions[t].rising
    }

    /// Fires `t` (must be enabled). `None` if the firing violates
    /// 1-safety.
    fn fire(&self, s: StgState, t: usize) -> Option<StgState> {
        let after = s.marking & !self.presets[t];
        if after & self.posts[t] != 0 {
            return None;
        }
        let tr = &self.spec.transitions[t];
        Some(StgState {
            marking: after | self.posts[t],
            levels: if tr.rising {
                s.levels | (1 << tr.signal)
            } else {
                s.levels & !(1 << tr.signal)
            },
        })
    }

    fn is_output(&self, t: usize) -> bool {
        !self.spec.signals[self.spec.transitions[t].signal].is_input
    }
}

impl TransitionSystem for StgSystem<'_> {
    type State = StgState;

    fn initial(&self) -> StgState {
        self.initial_state()
    }

    /// Move code `t` is transition `t`.
    fn successors(&self, s: &StgState, out: &mut Vec<(Move, StgState)>) {
        for t in 0..self.spec.transitions.len() {
            if !self.enabled(*s, t) {
                continue;
            }
            if let Some(n) = self.fire(*s, t) {
                out.push((Move::new(t as u32, false), n));
            }
        }
    }

    fn label(&self, m: Move) -> String {
        self.spec.transition_label(m.code() as usize)
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

    /// Is the packed (marking, levels) state reachable? The simulation ⊆
    /// formal property test feeds random-walk states through this.
    pub fn contains(&self, marking: &[bool], levels: &[bool]) -> bool {
        let m = marking
            .iter()
            .enumerate()
            .fold(0u64, |m, (p, &b)| if b { m | (1 << p) } else { m });
        let l = levels
            .iter()
            .enumerate()
            .fold(0u64, |l, (i, &b)| if b { l | (1 << i) } else { l });
        self.space.contains(&StgState {
            marking: m,
            levels: l,
        })
    }
}

/// Exhaustively checks `spec`: explores every reachable (marking, levels)
/// state under a maximally liberal environment and decides 1-safety,
/// deadlock-freedom, output persistence, convergence, and consistency,
/// with a shortest trace witnessing any refutation.
///
/// # Errors
///
/// `Err` if the spec fails `validate` or exceeds the 64 place/signal
/// packing limit.
pub fn check_stg(spec: &StgSpec) -> Result<StgCheck, String> {
    spec.validate()?;
    if spec.places > 64 || spec.signals.len() > 64 {
        return Err("model checking supports at most 64 places and 64 signals".into());
    }
    let sys = StgSystem::new(spec);
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
            .filter(|&t| sys.enabled(s, t))
            .collect();
        // Consistency: a preset-enabled transition whose edge direction
        // disagrees with the current signal level.
        if consistency.is_none() {
            if let Some(t) = (0..spec.transitions.len())
                .find(|&t| sys.marking_enabled(s, t) && !sys.enabled(s, t))
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
            let Some(after_t) = sys.fire(s, t) else {
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
                let disables_u = !sys.marking_enabled(after_t, u);
                // Output persistence: firing t must not disable an
                // enabled output transition of another signal.
                if disables_u && sys.is_output(u) && persistence.is_none() {
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
                    if let Some(after_u) = sys.fire(s, u) {
                        if sys.marking_enabled(after_u, t) {
                            let tu = sys.fire(after_t, u);
                            let ut = sys.fire(after_u, t);
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
    fn agrees_with_the_boolean_analyzer() {
        for spec in [dv_as_spec(0), dv_sa_spec(0)] {
            let a = mtf_async::analyze(&spec).expect("analyzable");
            let c = check_stg(&spec).expect("checkable");
            assert_eq!(a.reachable_states, c.space.len());
            assert_eq!(
                a.deadlock_free,
                c.verdict(Property::DeadlockFree).unwrap().holds()
            );
            assert_eq!(a.dead_transitions, c.dead_transitions);
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
        let mut marking = spec.marking_vec();
        let mut levels: Vec<bool> = spec.signals.iter().map(|s| s.init).collect();
        assert!(c.contains(&marking, &levels));
        for t in [0usize, 1, 2, 3] {
            spec.fire(&mut marking, t).unwrap();
            let tr = &spec.transitions[t];
            levels[tr.signal] = tr.rising;
            assert!(c.contains(&marking, &levels), "after transition {t}");
        }
    }
}
