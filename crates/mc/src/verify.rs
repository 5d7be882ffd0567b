//! Verification of controller nets through [`check_stg`]: the shipped
//! DV controllers are clean for every cell index, and each fault planted
//! in a small hand-made or mutated net is refuted by the matching verdict
//! or refused by validation.

#[cfg(test)]
mod tests {
    use crate::space::Property;
    use crate::stg::check_stg;
    use mtf_async::{dv_as_spec, dv_sa_spec, StgSignal, StgSpec, StgTransition};

    /// The spec is clean for every cell index, and the index only renames
    /// signals: the explored space has the size it has at cell 0.
    fn clean_for_every_cell(spec: fn(usize) -> StgSpec) {
        let base = check_stg(&spec(0)).expect("checkable").space.len();
        // A handful of phases, not an explosion.
        assert!(base < 64, "{base}");
        for cell in 0..4 {
            let c = check_stg(&spec(cell)).expect("checkable");
            assert!(c.is_clean(), "{}: {:?}", c.name, c.first_counterexample());
            assert_eq!(c.space.len(), base, "{}", c.name);
        }
    }

    #[test]
    fn dv_as_is_clean() {
        clean_for_every_cell(dv_as_spec);
    }

    #[test]
    fn dv_sa_is_clean() {
        clean_for_every_cell(dv_sa_spec);
    }

    fn signal(name: &str, is_input: bool) -> StgSignal {
        StgSignal {
            name: name.into(),
            is_input,
            init: false,
        }
    }

    fn edge(signal: usize, consume: usize, produce: usize) -> StgTransition {
        StgTransition {
            signal,
            rising: true,
            consume: vec![consume],
            produce: vec![produce],
        }
    }

    #[test]
    fn detects_unsafe_net() {
        // a+ produces into place 1, which is marked from the start.
        let spec = StgSpec {
            name: "unsafe".into(),
            signals: vec![signal("a", true)],
            places: 2,
            initial_marking: vec![0, 1],
            transitions: vec![edge(0, 0, 1)],
        };
        let c = check_stg(&spec).expect("checkable");
        let cx = c.verdict(Property::OneSafe).unwrap().counterexample();
        let cx = cx.expect("1-safety refuted");
        assert_eq!(cx.trace, ["a+"]);
        assert_eq!(cx.reason, "firing a+ produces into an already-marked place");
    }

    #[test]
    fn detects_deadlock() {
        // A net whose single token is consumed and never returned.
        let spec = StgSpec {
            name: "dead".into(),
            signals: vec![signal("a", true), signal("y", false)],
            places: 2,
            initial_marking: vec![0],
            transitions: vec![edge(0, 0, 1)],
        };
        let c = check_stg(&spec).expect("checkable");
        let cx = c.verdict(Property::DeadlockFree).unwrap().counterexample();
        assert_eq!(cx.expect("deadlock refuted").trace, ["a+"]);
    }

    #[test]
    fn detects_dead_transition() {
        // Places 2 and 9 are never marked together (ei− consumes 2 and
        // produces 9), so a transition needing both never fires.
        let mut spec = dv_as_spec(0);
        spec.transitions.push(StgTransition {
            signal: 2,
            rising: false,
            consume: vec![2, 9],
            produce: vec![2, 9],
        });
        let c = check_stg(&spec).expect("checkable");
        assert_eq!(c.dead_transitions, vec![spec.transitions.len() - 1]);
        assert!(!c.is_clean());
    }

    #[test]
    fn detects_inconsistent_edges() {
        // Two consecutive rising edges on the same signal with no fall in
        // between.
        let spec = StgSpec {
            name: "incons".into(),
            signals: vec![signal("a", true)],
            places: 2,
            initial_marking: vec![0],
            transitions: vec![edge(0, 0, 1), edge(0, 1, 0)],
        };
        let c = check_stg(&spec).expect("checkable");
        let cx = c.verdict(Property::Consistent).unwrap().counterexample();
        assert_eq!(
            cx.expect("consistency refuted").reason,
            "a+ is marking-enabled while 'a' is already high"
        );
    }

    #[test]
    fn rejects_oversized_nets() {
        let spec = StgSpec {
            name: "big".into(),
            signals: vec![signal("a", true)],
            places: 65,
            initial_marking: vec![0],
            transitions: vec![edge(0, 0, 64)],
        };
        let err = check_stg(&spec).expect_err("past the packing limit");
        assert!(err.contains("more than 64 places"), "{err}");
    }
}
