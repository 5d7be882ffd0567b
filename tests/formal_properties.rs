//! Simulation ⊆ formal: random walks must only ever visit states the
//! model checker proved reachable. A walk that escapes the checked space
//! would mean the exhaustive verdicts are vacuous — the checker proved
//! properties of some other machine.
//!
//! The controllers' step rules (`StgSpec::{is_enabled, fire}`,
//! `BmSpec::completed`) are shared by the checker and the interpreters,
//! so a walk through the pure rule agrees with the explorer by
//! construction; `stg_random_walks_stay_in_the_checked_space` is kept as
//! a smoke test, not as independent coverage. The check that counts is
//! `interpreters_stay_in_the_checked_spaces`: `StgMachine` and
//! `BmMachine` running in a simulator, whose Logic-level edge detection
//! and output driving are their own. The FIFO walks step the abstract
//! protocol models through their own `successors` relation with
//! proptest-drawn choices.
//!
//! Failures persist their case seed to
//! `tests/formal_properties.proptest-regressions`; CI replays the
//! persisted seeds with `PROPTEST_CASES=1`.

use std::collections::HashSet;

use mtf_async::{
    dv_as_spec, dv_sa_spec, ogt_spec, opt_spec, BmMachine, BmSpec, StgMachine, StgSpec, StgState,
};
use mtf_mc::designs::{check_all, fifo_model, formal_capacities, ALL_DESIGNS, BUDGET};
use mtf_mc::{check_bm, check_fifo, check_stg, TransitionSystem};
use mtf_sim::{DriverId, Logic, NetId, Simulator, Time, ViolationKind};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The controllers' reaction delay in the interpreter walks.
const DELAY: Time = Time::from_ps(200);

/// Drives a controller interpreter already spawned in `sim` through
/// `choices`. `shadow(c)` picks the `c`-th edge the spec accepts in the
/// environment's own copy of the spec, steps that copy past it and returns
/// it as (index into `inputs`, level); `None` when the spec accepts none.
/// Odd choices issue the next edge while outputs are still in flight. At
/// every quiescent point the levels of `observe` (bit `i` for
/// `observe[i]`) must be in `reachable`, and the interpreter must not
/// report a protocol violation.
fn walk(
    name: &str,
    mut sim: Simulator,
    inputs: &[NetId],
    observe: &[NetId],
    reachable: HashSet<u64>,
    choices: &[usize],
    mut shadow: impl FnMut(usize) -> Option<(usize, bool)>,
) -> Result<(), TestCaseError> {
    let drivers: Vec<DriverId> = inputs.iter().map(|&n| sim.driver(n)).collect();
    for (&d, &n) in drivers.iter().zip(inputs) {
        sim.drive_at(d, n, Logic::L, Time::ZERO);
    }
    let levels = |sim: &Simulator| {
        (observe.iter().enumerate())
            .filter(|(_, &n)| sim.value(n) == Logic::H)
            .fold(0u64, |m, (i, _)| m | 1 << i)
    };
    let mut now = Time::from_ns(2);
    sim.run_until(now).expect("runs");
    let mut quiescent = true;
    for &c in choices {
        let seen = levels(&sim);
        prop_assert!(
            !quiescent || reachable.contains(&seen),
            "{name}: observed levels {seen:#b} are outside the checked space"
        );
        let Some((i, lvl)) = shadow(c / 2) else {
            break;
        };
        sim.drive_at(drivers[i], inputs[i], Logic::from_bool(lvl), now);
        quiescent = c % 2 == 0;
        now += if quiescent {
            Time::from_ns(2)
        } else {
            Time::from_ps(50)
        };
        sim.run_until(now).expect("runs");
    }
    let violations = sim.violations_of(ViolationKind::Protocol).count();
    prop_assert_eq!(violations, 0, "{}: {:?}", name, sim.violations());
    Ok(())
}

/// [`walk`] for `spec`'s [`StgMachine`]: the environment issues input
/// edges the spec enables, and the observed signal levels must be those
/// of a state [`check_stg`] reached.
fn stg_machine_walk(spec: StgSpec, choices: &[usize]) -> Result<(), TestCaseError> {
    let check = check_stg(&spec).expect("checkable");
    let mut sim = Simulator::new(0);
    let inputs: Vec<NetId> = (spec.signals.iter().filter(|s| s.is_input))
        .map(|s| sim.net(s.name.clone()))
        .collect();
    let nets = StgMachine::spawn(&mut sim, spec.clone(), &inputs, DELAY);
    let is_input = |t: usize| spec.signals[spec.transitions[t].signal].is_input;
    let settle = |mut s: StgState| {
        while let Some(t) =
            (0..spec.transitions.len()).find(|&t| !is_input(t) && spec.is_enabled(s, t))
        {
            s = spec.fire(s, t).expect("1-safe");
        }
        s
    };
    let mut s = settle(spec.initial_state());
    let reachable = check.space.states.iter().map(|s| s.levels).collect();
    walk(&spec.name, sim, &inputs, &nets, reachable, choices, |c| {
        let accepted: Vec<usize> = (0..spec.transitions.len())
            .filter(|&t| is_input(t) && spec.is_enabled(s, t))
            .collect();
        let &t = accepted.get(c % accepted.len().max(1))?;
        s = settle(spec.fire(s, t).expect("1-safe"));
        let tr = &spec.transitions[t];
        let input = spec.signals[..tr.signal].iter().filter(|s| s.is_input);
        Some((input.count(), tr.rising))
    })
}

/// [`walk`] for `spec`'s [`BmMachine`]: the environment issues edges of
/// an outgoing burst of its copy's state that have not arrived yet, and
/// the observed (input, output) levels must be those of a state
/// [`check_bm`] reached.
fn bm_machine_walk(spec: BmSpec, choices: &[usize]) -> Result<(), TestCaseError> {
    let check = check_bm(&spec).expect("checkable");
    let mut sim = Simulator::new(0);
    let inputs: Vec<NetId> = spec
        .input_names
        .iter()
        .map(|n| sim.net(n.clone()))
        .collect();
    let outputs = BmMachine::spawn(&mut sim, spec.clone(), &inputs, DELAY);
    let n_in = inputs.len();
    let reachable = (check.space.states.iter())
        .map(|s| s.inputs | s.outputs << n_in)
        .collect();
    let (mut state, mut levels, mut entry) = (spec.initial_state, 0u64, 0u64);
    let at = |m: u64| move |i: usize, lvl: bool| (m & 1 << i != 0) == lvl;
    let observe = [inputs.clone(), outputs].concat();
    walk(
        &spec.name,
        sim,
        &inputs,
        &observe,
        reachable,
        choices,
        |c| {
            let mut accepted = Vec::new();
            for &(i, lvl) in spec.states[state].iter().flat_map(|t| &t.inputs) {
                if !at(levels)(i, lvl) && !accepted.contains(&(i, lvl)) {
                    accepted.push((i, lvl));
                }
            }
            let &(i, lvl) = accepted.get(c % accepted.len().max(1))?;
            levels ^= 1 << i;
            if let Some(t) = spec.completed(state, at(levels), at(entry)) {
                (state, entry) = (t.next, levels);
            }
            Some((i, lvl))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any interleaving of environment and autonomous controller edges
    /// the shared firing rule permits stays inside the checker's
    /// reachable (marking, levels) set.
    #[test]
    fn stg_random_walks_stay_in_the_checked_space(
        which in 0usize..2,
        choices in proptest::collection::vec(0usize..16, 1..120),
    ) {
        let spec = if which == 0 { dv_as_spec(0) } else { dv_sa_spec(0) };
        let check = check_stg(&spec).expect("checkable");
        prop_assert!(check.is_clean(), "{}", check.name);
        let mut s = spec.initial_state();
        prop_assert!(check.contains(s), "initial state unreachable?");
        for &c in &choices {
            let enabled: Vec<usize> = (0..spec.transitions.len())
                .filter(|&t| spec.is_enabled(s, t))
                .collect();
            if enabled.is_empty() {
                break;
            }
            let t = enabled[c % enabled.len()];
            s = spec.fire(s, t).expect("1-safe");
            prop_assert!(
                check.contains(s),
                "{}: walk left the checked space after {}",
                spec.name,
                spec.transition_label(t)
            );
        }
    }

    /// The event-driven interpreters stay inside the spaces the checker
    /// explored: `StgMachine` and `BmMachine` in a simulator, driven by an
    /// environment that issues only edges the spec accepts, sometimes
    /// while outputs are still in flight, never show signal levels the
    /// checker did not reach and never report a protocol violation. The
    /// checker and the interpreters share their step rule; what this
    /// guards is the interpreters' own Logic-level edge detection and
    /// output driving.
    #[test]
    fn interpreters_stay_in_the_checked_spaces(
        which in 0usize..5,
        choices in proptest::collection::vec(0usize..32, 1..40),
    ) {
        match which {
            0 => stg_machine_walk(dv_as_spec(0), &choices)?,
            1 => stg_machine_walk(dv_sa_spec(0), &choices)?,
            2 => bm_machine_walk(opt_spec(0, false), &choices)?,
            3 => bm_machine_walk(opt_spec(0, true), &choices)?,
            _ => bm_machine_walk(ogt_spec(1, false), &choices)?,
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
