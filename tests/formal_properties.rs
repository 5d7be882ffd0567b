//! Simulation ⊆ formal: random walks through the *same* transition
//! relations the model checker enumerates must only ever visit states
//! the checker proved reachable. A walk that escapes the checked space
//! would mean the exhaustive verdicts are vacuous — the checker proved
//! properties of some other machine.
//!
//! The STG walks use the pure firing API (`marking_vec` /
//! `enabled_transitions` / `fire` on [`mtf_async::StgSpec`]) — the same
//! functions the event-driven interpreter executes — so the containment
//! check ties the checker to the running controllers, not to a private
//! re-implementation. The FIFO walks step the abstract protocol models
//! through their own `successors` relation with proptest-drawn choices.
//!
//! Failures persist their case seed to
//! `tests/formal_properties.proptest-regressions`; CI replays the
//! persisted seeds with `PROPTEST_CASES=1`.

use mtf_async::{dv_as_spec, dv_sa_spec};
use mtf_mc::designs::{check_all, fifo_model, formal_capacities, ALL_DESIGNS, BUDGET};
use mtf_mc::{check_fifo, check_stg, TransitionSystem};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any interleaving of environment and autonomous controller edges
    /// the pure firing API permits stays inside the checker's reachable
    /// (marking, levels) set.
    #[test]
    fn stg_random_walks_stay_in_the_checked_space(
        which in 0usize..2,
        choices in proptest::collection::vec(0usize..16, 1..120),
    ) {
        let spec = if which == 0 { dv_as_spec(0) } else { dv_sa_spec(0) };
        let check = check_stg(&spec).expect("checkable");
        prop_assert!(check.is_clean(), "{}", check.name);
        let mut marking = spec.marking_vec();
        let mut levels: Vec<bool> = spec.signals.iter().map(|s| s.init).collect();
        prop_assert!(check.contains(&marking, &levels), "initial state unreachable?");
        for &c in &choices {
            // Marking-enabled *and* edge-consistent — for a spec whose
            // consistency is proven these coincide, but filtering keeps
            // the walk honest even on a broken spec.
            let enabled: Vec<usize> = spec
                .enabled_transitions(&marking)
                .filter(|&t| levels[spec.transitions[t].signal] != spec.transitions[t].rising)
                .collect();
            if enabled.is_empty() {
                break;
            }
            let t = enabled[c % enabled.len()];
            spec.fire(&mut marking, t).expect("enabled transition fires");
            levels[spec.transitions[t].signal] = spec.transitions[t].rising;
            prop_assert!(
                check.contains(&marking, &levels),
                "{}: walk left the checked space after {}",
                spec.name,
                spec.transition_label(t)
            );
        }
    }

    /// Any path through a registry design's abstract protocol model —
    /// puts, gets, metastable resolutions, idle edges, in any order the
    /// model permits — stays inside the exhaustively explored space.
    #[test]
    fn fifo_random_walks_stay_in_the_checked_space(
        design in 0usize..11,
        choices in proptest::collection::vec(0usize..16, 1..200),
    ) {
        let kind = ALL_DESIGNS[design];
        let cap = *formal_capacities(kind).last().expect("covered");
        let model = fifo_model(kind, cap);
        let check = check_fifo(&model, BUDGET).expect("in budget");
        prop_assert!(check.is_clean(), "{}", model.name);
        let mut s = model.initial();
        prop_assert!(check.space.contains(&s));
        let mut succ = Vec::new();
        for &c in &choices {
            succ.clear();
            model.successors(&s, &mut succ);
            if succ.is_empty() {
                break; // stream complete (pure-direct models terminate)
            }
            let (m, next) = succ[c % succ.len()];
            prop_assert!(
                check.space.contains(&next),
                "{}: walk left the checked space after {}",
                model.name,
                model.label(m)
            );
            s = next;
        }
    }
}

/// Two full registry sweeps discover the same states in the same order
/// and reconstruct identical shortest traces — exploration has no hidden
/// RNG or clock, so counterexamples are reproducible by construction.
#[test]
fn registry_sweep_is_deterministic() {
    let a = check_all().expect("in budget");
    let b = check_all().expect("in budget");
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            x.check.space.len(),
            y.check.space.len(),
            "{}",
            x.kind.name()
        );
        assert_eq!(
            x.check.space.edge_count(),
            y.check.space.edge_count(),
            "{}",
            x.kind.name()
        );
        let last = x.check.space.len() - 1;
        assert_eq!(
            x.check.space.trace_to(last),
            y.check.space.trace_to(last),
            "{}: shortest trace to the last-discovered state drifted",
            x.kind.name()
        );
    }
}
