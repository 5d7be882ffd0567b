//! Replaying checker counterexamples in the event-driven simulator.
//!
//! A counterexample is only as good as its connection to the real
//! machinery. Two replay paths close that loop:
//!
//! * [`replay_stg`] drives the *input* edges of a checker trace onto real
//!   simulator nets attached to an [`mtf_async::StgMachine`] (the same
//!   interpreter the FIFO netlists instantiate). Output transitions fire
//!   autonomously, exactly as in the netlists. A trace leading to a dead
//!   marking followed by a probe edge makes the interpreter report the
//!   protocol violation the checker predicted; traces of clean specs
//!   replay silently.
//! * [`replay_fifo_hazard`] rebuilds the `put·meta` half-commit scenario
//!   at gate level: the mixed-clock FIFO with the given synchronizer
//!   depth under a hostile metastability model (the PR-4 regression rig).
//!   The checker refutes losslessness for `sync_stages = 1`; the
//!   simulator confirms the stream corrupts there and survives at the
//!   paper's two stages.

use mtf_async::{StgMachine, StgSpec};
use mtf_core::design::MIXED_CLOCK;
use mtf_core::env::{SyncConsumer, SyncProducer};
use mtf_core::{ClockInputs, FifoParams, MixedTimingDesign};
use mtf_gates::{Builder, CellDelays};
use mtf_sim::{ClockGen, Logic, MetaModel, Simulator, Time, ViolationKind};

/// The outcome of replaying an STG trace against the interpreter.
#[derive(Debug)]
pub struct StgReplayOutcome {
    /// Protocol violations the interpreter reported, in order.
    pub violations: Vec<String>,
    /// Final level of every signal, in spec signal order.
    pub levels: Vec<(String, bool)>,
}

impl StgReplayOutcome {
    /// The final level of signal `name`, if it exists.
    pub fn level(&self, name: &str) -> Option<bool> {
        self.levels.iter().find(|(n, _)| n == name).map(|&(_, l)| l)
    }
}

/// Replays `trace` — checker move labels such as `we+` / `re−` —
/// against [`StgMachine`] in a fresh simulator. Labels naming output
/// signals are skipped (the interpreter fires those autonomously);
/// input edges are driven one every 2 ns, slow enough for the machine
/// to quiesce between them.
///
/// # Panics
///
/// Panics if a label does not parse as `signal+`/`signal−` over the
/// spec's signals.
pub fn replay_stg(spec: &StgSpec, trace: &[String]) -> StgReplayOutcome {
    let mut sim = Simulator::new(1);
    let input_nets: Vec<_> = spec
        .signals
        .iter()
        .filter(|s| s.is_input)
        .map(|s| sim.net(s.name.clone()))
        .collect();
    let nets = StgMachine::spawn(&mut sim, spec.clone(), &input_nets, Time::from_ps(200));

    // One driver per input, parked at the spec's initial level.
    let mut drivers = Vec::new();
    {
        let mut it = input_nets.iter();
        for s in &spec.signals {
            if s.is_input {
                let n = *it.next().expect("counted");
                let d = sim.driver(n);
                sim.drive_at(d, n, Logic::from_bool(s.init), Time::ZERO);
                drivers.push(Some((n, d)));
            } else {
                drivers.push(None);
            }
        }
    }

    let mut t = Time::from_ns(2);
    for label in trace {
        let (name, rising) = parse_edge(label);
        let idx = spec
            .signals
            .iter()
            .position(|s| s.name == name)
            .unwrap_or_else(|| panic!("unknown signal in label {label:?}"));
        if let Some((n, d)) = drivers[idx] {
            sim.drive_at(d, n, Logic::from_bool(rising), t);
            t += Time::from_ns(2);
        }
    }
    sim.run_until(t + Time::from_ns(10)).expect("replay runs");

    StgReplayOutcome {
        violations: sim
            .violations_of(ViolationKind::Protocol)
            .map(|v| v.message.clone())
            .collect(),
        levels: spec
            .signals
            .iter()
            .zip(&nets)
            .map(|(s, &n)| (s.name.clone(), sim.value(n) == Logic::H))
            .collect(),
    }
}

/// Splits `we+` / `re−` (ASCII `-` accepted) into name and direction.
fn parse_edge(label: &str) -> (&str, bool) {
    if let Some(name) = label.strip_suffix('+') {
        (name, true)
    } else if let Some(name) = label.strip_suffix('−').or_else(|| label.strip_suffix('-')) {
        (name, false)
    } else {
        panic!("move label {label:?} is not a signal edge");
    }
}

/// The outcome of a gate-level hazard replay.
#[derive(Debug)]
pub struct FifoReplayOutcome {
    /// The stream arrived complete, in order, with no violations.
    pub survived: bool,
    /// Metastable samplings the hostile flop model reported.
    pub metastable_events: usize,
}

/// Replays the checker's single-flop metastability scenario at gate
/// level: a plesiochronous mixed-clock FIFO transfer of 40 items with
/// `sync_stages` synchronizer flops under a hostile metastability model
/// (wide window, slow settling — the `tests/metastability.rs` rig).
pub fn replay_fifo_hazard(sync_stages: usize, seed: u64) -> FifoReplayOutcome {
    let hostile = MetaModel {
        window: Time::from_ps(1_500),
        tau: Time::from_ps(2_500),
        max_settle: Time::from_ps(25_000),
    };
    let mut sim = Simulator::new(seed);
    let clk_put = sim.net("clk_put");
    let clk_get = sim.net("clk_get");
    ClockGen::spawn_simple(&mut sim, clk_put, Time::from_ps(9_973));
    ClockGen::builder(Time::from_ps(10_007))
        .phase(Time::from_ps(seed * 997 % 9_000))
        .spawn(&mut sim, clk_get);
    let mut b = Builder::with_delays(&mut sim, CellDelays::hp06(), hostile);
    let params = FifoParams::with_sync_stages(8, 8, sync_stages);
    let clocks = ClockInputs {
        clk_put: Some(clk_put),
        clk_get: Some(clk_get),
    };
    let f = MIXED_CLOCK.build(&mut b, params, clocks);
    drop(b.finish());
    let items: Vec<u64> = (0..40).collect();
    let (req_put, full) = (f.req_put.unwrap(), f.full.unwrap());
    let pj = SyncProducer::spawn(
        &mut sim,
        "prod",
        clk_put,
        req_put,
        &f.data_put,
        full,
        items.clone(),
    );
    let (req_get, valid_get) = (f.req_get.unwrap(), f.valid_get.unwrap());
    let n = items.len() as u64;
    let cj = SyncConsumer::spawn(
        &mut sim,
        "cons",
        clk_get,
        req_get,
        &f.data_get,
        valid_get,
        n,
    );
    let survived =
        sim.run_until(Time::from_us(4)).is_ok() && pj.len() == items.len() && cj.values() == items;
    FifoReplayOutcome {
        survived,
        metastable_events: sim.violations_of(ViolationKind::Metastability).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Property;
    use crate::stg::check_stg;
    use mtf_async::dv_as_spec;

    #[test]
    fn clean_trace_replays_silently() {
        let spec = dv_as_spec(0);
        let check = check_stg(&spec).expect("checkable");
        assert!(check.is_clean());
        // The longest shortest-path trace the checker produced.
        let i = check.space.len() - 1;
        let trace = check.space.trace_to(i);
        let out = replay_stg(&spec, &trace);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn dead_marking_trace_replays_to_a_protocol_violation() {
        // Drop `re−`'s produced arc: the cycle never re-arms and the
        // machine wedges exactly where the checker says.
        let mut spec = dv_as_spec(0);
        spec.transitions[6].produce.clear();
        let check = check_stg(&spec).expect("checkable");
        let v = check.verdict(Property::DeadlockFree).unwrap();
        let cx = v.counterexample().expect("deadlock refuted");
        let mut trace = cx.trace.clone();
        trace.push("we+".into()); // probe the wedged machine
        let out = replay_stg(&spec, &trace);
        assert!(
            out.violations.iter().any(|m| m.contains("we+")),
            "the probe edge must be rejected: {:?}",
            out.violations
        );
        assert_eq!(out.level("ei"), Some(false), "cell never re-offered");
    }
}
