//! A burst-mode asynchronous state-machine engine.
//!
//! Burst-mode (BM) machines are the asynchronous-controller specification
//! style the paper synthesizes with Minimalist \[7\]: in each state the
//! machine waits for a *burst* of input edges (all of which must arrive, in
//! any order), then fires a burst of output edges and moves to the next
//! state. We interpret the specification directly; the interpreter's
//! reaction delay stands in for the synthesized logic's depth.

use mtf_sim::{Component, Ctx, DriverId, Logic, NetId, Time, Violation, ViolationKind};

/// One signal edge in a burst: `(signal index, level after the edge)`.
pub type BmBurst = Vec<(usize, bool)>;

/// A transition of a [`BmSpec`] state.
#[derive(Clone, Debug)]
pub struct BmTransition {
    /// The input burst that triggers the transition. Every listed input
    /// must *change to* the given level (relative to its value on state
    /// entry) before the transition fires.
    pub inputs: BmBurst,
    /// The output burst fired on transition.
    pub outputs: BmBurst,
    /// Destination state index.
    pub next: usize,
}

/// A burst-mode machine specification.
///
/// Indices in bursts refer to `input_names`/`output_names`. The
/// *distinguishability* requirement of burst mode (no state has two
/// transitions where one's input burst is a subset of the other's) is
/// checked by [`BmSpec::validate`].
#[derive(Clone, Debug)]
pub struct BmSpec {
    /// Machine name (reports, debugging).
    pub name: String,
    /// Input signal names.
    pub input_names: Vec<String>,
    /// Output signal names.
    pub output_names: Vec<String>,
    /// `states[s]` lists the transitions out of state `s`.
    pub states: Vec<Vec<BmTransition>>,
    /// Power-on state.
    pub initial_state: usize,
    /// Power-on output levels.
    pub initial_outputs: Vec<bool>,
}

impl BmSpec {
    /// Checks structural sanity: the 64 input/output packing limit, index
    /// ranges and the burst-mode distinguishability condition.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.input_names.len() > 64 || self.output_names.len() > 64 {
            return Err(format!("{}: more than 64 inputs or outputs", self.name));
        }
        if self.initial_state >= self.states.len() {
            return Err(format!(
                "{}: initial state {} out of range",
                self.name, self.initial_state
            ));
        }
        if self.initial_outputs.len() != self.output_names.len() {
            return Err(format!(
                "{}: initial output vector width mismatch",
                self.name
            ));
        }
        for (s, ts) in self.states.iter().enumerate() {
            for t in ts {
                if t.next >= self.states.len() {
                    return Err(format!("{}: state {s} jumps out of range", self.name));
                }
                if t.inputs.is_empty() {
                    return Err(format!("{}: state {s} has an empty input burst", self.name));
                }
                for &(i, _) in &t.inputs {
                    if i >= self.input_names.len() {
                        return Err(format!("{}: state {s} burst uses bad input {i}", self.name));
                    }
                }
                for &(o, _) in &t.outputs {
                    if o >= self.output_names.len() {
                        return Err(format!(
                            "{}: state {s} burst uses bad output {o}",
                            self.name
                        ));
                    }
                }
            }
            // Distinguishability: no input burst may be a subset of another.
            for (a, ta) in ts.iter().enumerate() {
                for (bi, tb) in ts.iter().enumerate() {
                    if a != bi && ta.inputs.iter().all(|e| tb.inputs.contains(e)) {
                        return Err(format!(
                            "{}: state {s}: transition {a}'s burst is a subset of {bi}'s",
                            self.name
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// The burst-mode step rule: the first transition of `state` whose
    /// input burst has completed. A burst is complete when each of its
    /// inputs `i` is at its level `lvl` now (`now(i, lvl)`) and was not on
    /// entry to `state` (`entry(i, lvl)`). The accessors let the
    /// interpreter read `Logic` nets and the model checker read bits
    /// through the same rule.
    ///
    /// Firing the result — its output burst, then `next` entered with the
    /// current input levels as entry levels — is already quiescent: every
    /// burst is non-empty, and no input differs from its entry level yet,
    /// so "fire until quiescent" fires at most this one transition.
    pub fn completed(
        &self,
        state: usize,
        now: impl Fn(usize, bool) -> bool,
        entry: impl Fn(usize, bool) -> bool,
    ) -> Option<&BmTransition> {
        self.states[state].iter().find(|t| {
            t.inputs
                .iter()
                .all(|&(i, lvl)| now(i, lvl) && !entry(i, lvl))
        })
    }
}

/// The event-driven interpreter for a [`BmSpec`]. Watches the input nets;
/// when a state's full input burst has arrived, fires the output burst
/// (after `delay`) and advances.
///
/// The step is [`BmSpec::completed`], the rule the model checker explores,
/// read over the input nets' `Logic` levels and their levels on state
/// entry. An input edge that belongs to *no* transition of the current
/// state is a specification violation by the environment and is reported
/// as [`ViolationKind::Protocol`].
pub struct BmMachine {
    name: String,
    spec: BmSpec,
    inputs: Vec<NetId>,
    outputs: Vec<DriverId>,
    delay: Time,
    state: usize,
    entry: Vec<Logic>,
    started: bool,
}

impl std::fmt::Debug for BmMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BmMachine")
            .field("name", &self.name)
            .field("state", &self.state)
            .finish()
    }
}

impl BmMachine {
    /// Instantiates `spec` over the given nets and registers it with the
    /// simulator behind `ctx`-style construction. Use
    /// [`BmMachine::spawn`] for the common case.
    ///
    /// # Panics
    ///
    /// Panics if `spec.validate()` fails or the net lists do not match the
    /// specification's signal counts.
    pub fn new(spec: BmSpec, inputs: Vec<NetId>, outputs: Vec<DriverId>, delay: Time) -> Self {
        spec.validate().expect("invalid burst-mode specification");
        assert_eq!(inputs.len(), spec.input_names.len(), "input count mismatch");
        assert_eq!(
            outputs.len(),
            spec.output_names.len(),
            "output count mismatch"
        );
        let name = spec.name.clone();
        let state = spec.initial_state;
        BmMachine {
            name,
            spec,
            inputs,
            outputs,
            delay,
            state,
            entry: Vec::new(),
            started: false,
        }
    }

    /// Convenience: creates output nets, instantiates the machine in `sim`,
    /// and returns the output nets (in `spec.output_names` order).
    pub fn spawn(
        sim: &mut mtf_sim::Simulator,
        spec: BmSpec,
        inputs: &[NetId],
        delay: Time,
    ) -> Vec<NetId> {
        let outs: Vec<NetId> = spec
            .output_names
            .iter()
            .map(|n| sim.net(format!("{}.{}", spec.name, n)))
            .collect();
        let drvs: Vec<DriverId> = outs.iter().map(|&n| sim.driver(n)).collect();
        let m = BmMachine::new(spec, inputs.to_vec(), drvs, delay);
        let watch = m.inputs.clone();
        sim.add_component(Box::new(m), &watch);
        outs
    }

    /// The current state index (test observability).
    pub fn state(&self) -> usize {
        self.state
    }
}

impl Component for BmMachine {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &'static str {
        "bm_machine"
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        if !self.started {
            self.started = true;
            self.entry = self.inputs.iter().map(|&n| ctx.get(n)).collect();
            for (&d, &lvl) in self.outputs.iter().zip(&self.spec.initial_outputs) {
                ctx.drive(d, Logic::from_bool(lvl), Time::ZERO);
            }
            return;
        }
        // Unknown inputs: wait (they will settle or a checker will flag them).
        if self.inputs.iter().any(|&n| ctx.get(n) == Logic::X) {
            return;
        }
        // An undriven input settling to its idle level at start-up is
        // initialisation, not an edge: absorb it before any burst can
        // count it as a change.
        for (e, &n) in self.entry.iter_mut().zip(&self.inputs) {
            let c = ctx.get(n);
            if c != *e && !e.is_definite() {
                *e = c;
            }
        }
        let fired = self.spec.completed(
            self.state,
            |i, lvl| ctx.get(self.inputs[i]) == Logic::from_bool(lvl),
            |i, lvl| self.entry[i] == Logic::from_bool(lvl),
        );
        if let Some(t) = fired {
            for &(o, lvl) in &t.outputs {
                ctx.drive(self.outputs[o], Logic::from_bool(lvl), self.delay);
            }
            self.state = t.next;
            for (e, &n) in self.entry.iter_mut().zip(&self.inputs) {
                *e = ctx.get(n);
            }
        }
        // Report an input edge that no transition of this state expects:
        // any input that differs from its entry value but is not part of
        // any outgoing burst.
        for i in 0..self.inputs.len() {
            let (c, e) = (ctx.get(self.inputs[i]), self.entry[i]);
            if c != e && c.is_definite() {
                let expected = self.spec.states[self.state].iter().any(|t| {
                    t.inputs
                        .iter()
                        .any(|&(ti, lvl)| ti == i && Logic::from_bool(lvl) == c)
                });
                if !expected {
                    ctx.report(Violation {
                        kind: ViolationKind::Protocol,
                        time: ctx.now(),
                        source: self.name.clone(),
                        message: format!(
                            "unexpected edge on input '{}' in state {}",
                            self.spec.input_names[i], self.state
                        ),
                    });
                    // Absorb it so the report does not repeat forever.
                    self.entry[i] = c;
                }
            }
        }
    }
}

/// The `ObtainPutToken` (OPT) controller of the async put part (paper
/// Fig. 10a, ref. \[4\]).
///
/// Inputs: `we1` (the put-token pulse from the right cell), `we` (the local
/// write-enable pulse — high while a put operation is in progress).
/// Output: `ptok` (this cell holds the put token).
///
/// * Without the token, OPT waits for the full pulse `we1+`, `we1−`, then
///   raises `ptok`.
/// * When the local put starts (`we+`), the token leaves: `ptok` falls
///   (the local `we` pulse *is* the next cell's `we1`).
/// * After `we−`, OPT is back to waiting.
///
/// `has_token` selects the power-on state: exactly one cell in a FIFO ring
/// starts with the token.
pub fn opt_spec(cell: usize, has_token: bool) -> BmSpec {
    BmSpec {
        name: format!("OPT{cell}"),
        input_names: vec!["we1".into(), "we".into()],
        output_names: vec!["ptok".into()],
        states: vec![
            // 0: no token, waiting for we1+
            vec![BmTransition {
                inputs: vec![(0, true)],
                outputs: vec![],
                next: 1,
            }],
            // 1: pulse in progress, waiting for we1-
            vec![BmTransition {
                inputs: vec![(0, false)],
                outputs: vec![(0, true)],
                next: 2,
            }],
            // 2: have the token; the local put (we+) sends it on
            vec![BmTransition {
                inputs: vec![(1, true)],
                outputs: vec![(0, false)],
                next: 3,
            }],
            // 3: waiting for the local pulse to finish
            vec![BmTransition {
                inputs: vec![(1, false)],
                outputs: vec![],
                next: 0,
            }],
        ],
        initial_state: if has_token { 2 } else { 0 },
        initial_outputs: vec![has_token],
    }
}

/// The `ObtainGetToken` (OGT) controller — the mirror image of
/// [`opt_spec`] for the asynchronous *get* part (used by the async-async
/// FIFO of the paper's ref. \[4\] and the sync-async FIFO extension).
///
/// Inputs: `re1` (get-token pulse from the right cell), `re` (local
/// read-enable pulse). Output: `gtok`.
pub fn ogt_spec(cell: usize, has_token: bool) -> BmSpec {
    let mut s = opt_spec(cell, has_token);
    s.name = format!("OGT{cell}");
    s.input_names = vec!["re1".into(), "re".into()];
    s.output_names = vec!["gtok".into()];
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtf_sim::{Simulator, Time};

    #[test]
    fn opt_spec_validates() {
        assert!(opt_spec(0, true).validate().is_ok());
        assert!(opt_spec(3, false).validate().is_ok());
        assert!(ogt_spec(1, false).validate().is_ok());
    }

    #[test]
    fn validate_rejects_subset_bursts() {
        let spec = BmSpec {
            name: "bad".into(),
            input_names: vec!["a".into(), "b".into()],
            output_names: vec![],
            states: vec![vec![
                BmTransition {
                    inputs: vec![(0, true)],
                    outputs: vec![],
                    next: 0,
                },
                BmTransition {
                    inputs: vec![(0, true), (1, true)],
                    outputs: vec![],
                    next: 0,
                },
            ]],
            initial_state: 0,
            initial_outputs: vec![],
        };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_indices() {
        let spec = BmSpec {
            name: "bad".into(),
            input_names: vec!["a".into()],
            output_names: vec![],
            states: vec![vec![BmTransition {
                inputs: vec![(7, true)],
                outputs: vec![],
                next: 0,
            }]],
            initial_state: 0,
            initial_outputs: vec![],
        };
        assert!(spec.validate().is_err());
    }

    /// Drives a full OPT cycle: token pulse in, local put, token out.
    #[test]
    fn opt_machine_token_lifecycle() {
        let mut sim = Simulator::new(0);
        let we1 = sim.net("we1");
        let we = sim.net("we");
        let outs = BmMachine::spawn(&mut sim, opt_spec(0, false), &[we1, we], Time::from_ps(200));
        let ptok = outs[0];
        let d1 = sim.driver(we1);
        let d2 = sim.driver(we);
        let ns = Time::from_ns;
        sim.drive_at(d1, we1, Logic::L, Time::ZERO);
        sim.drive_at(d2, we, Logic::L, Time::ZERO);
        sim.run_until(ns(1)).unwrap();
        assert_eq!(sim.value(ptok), Logic::L, "starts without token");
        // Pulse we1.
        sim.drive_at(d1, we1, Logic::H, ns(2));
        sim.drive_at(d1, we1, Logic::L, ns(3));
        sim.run_until(ns(4)).unwrap();
        assert_eq!(sim.value(ptok), Logic::H, "token obtained after pulse");
        // Local put pulse: token leaves on we+.
        sim.drive_at(d2, we, Logic::H, ns(5));
        sim.run_until(ns(6)).unwrap();
        assert_eq!(sim.value(ptok), Logic::L, "token released on we+");
        sim.drive_at(d2, we, Logic::L, ns(7));
        sim.run_until(ns(8)).unwrap();
        assert!(sim.violations().is_empty());
        // A second cycle works too.
        sim.drive_at(d1, we1, Logic::H, ns(9));
        sim.drive_at(d1, we1, Logic::L, ns(10));
        sim.run_until(ns(11)).unwrap();
        assert_eq!(sim.value(ptok), Logic::H);
    }

    #[test]
    fn initial_token_state() {
        let mut sim = Simulator::new(0);
        let we1 = sim.net("we1");
        let we = sim.net("we");
        let outs = BmMachine::spawn(&mut sim, opt_spec(0, true), &[we1, we], Time::from_ps(200));
        let d1 = sim.driver(we1);
        let d2 = sim.driver(we);
        sim.drive_at(d1, we1, Logic::L, Time::ZERO);
        sim.drive_at(d2, we, Logic::L, Time::ZERO);
        sim.run_until(Time::from_ns(1)).unwrap();
        assert_eq!(
            sim.value(outs[0]),
            Logic::H,
            "cell 0 powers on holding the token"
        );
    }

    /// A one-input machine whose initial state waits for `a` to reach
    /// `first` and then raises `y`.
    fn waits_for(first: bool) -> BmSpec {
        BmSpec {
            name: "wait".into(),
            input_names: vec!["a".into()],
            output_names: vec!["y".into()],
            states: vec![
                vec![BmTransition {
                    inputs: vec![(0, first)],
                    outputs: vec![(0, true)],
                    next: 1,
                }],
                vec![BmTransition {
                    inputs: vec![(0, !first)],
                    outputs: vec![(0, false)],
                    next: 0,
                }],
            ],
            initial_state: 0,
            initial_outputs: vec![false],
        }
    }

    /// Runs `waits_for(burst)` with `a` undriven (`Z`) at power-on and
    /// settling to `level` at 1 ns; returns `y` at 2 ns.
    fn settle_then_sample(burst: bool, level: Logic) -> Logic {
        let mut sim = Simulator::new(0);
        let a = sim.net("a");
        let outs = BmMachine::spawn(&mut sim, waits_for(burst), &[a], Time::from_ps(200));
        let d = sim.driver(a);
        sim.drive_at(d, a, level, Time::from_ns(1));
        sim.run_until(Time::from_ns(2)).unwrap();
        assert!(sim.violations().is_empty());
        sim.value(outs[0])
    }

    /// An input still undriven (`Z`) at power-on that settles to `L` is
    /// initialising, not falling: a falling burst stays pending.
    #[test]
    fn power_on_z_to_low_settling_fires_no_falling_burst() {
        assert_eq!(settle_then_sample(false, Logic::L), Logic::L);
    }

    /// The twin: settling `Z`→`H` completes no rising burst either.
    #[test]
    fn power_on_z_to_high_settling_fires_no_rising_burst() {
        assert_eq!(settle_then_sample(true, Logic::H), Logic::L);
    }

    /// The burst still fires on a real edge after the settling.
    #[test]
    fn a_real_edge_after_power_on_settling_fires() {
        let mut sim = Simulator::new(0);
        let a = sim.net("a");
        let outs = BmMachine::spawn(&mut sim, waits_for(false), &[a], Time::from_ps(200));
        let d = sim.driver(a);
        sim.drive_at(d, a, Logic::H, Time::from_ns(1));
        sim.drive_at(d, a, Logic::L, Time::from_ns(2));
        sim.run_until(Time::from_ns(3)).unwrap();
        assert_eq!(sim.value(outs[0]), Logic::H);
        assert!(sim.violations().is_empty());
    }

    #[test]
    fn unexpected_edge_is_reported() {
        let mut sim = Simulator::new(0);
        let we1 = sim.net("we1");
        let we = sim.net("we");
        let _ = BmMachine::spawn(&mut sim, opt_spec(0, false), &[we1, we], Time::from_ps(200));
        let d2 = sim.driver(we);
        sim.drive_at(d2, we, Logic::L, Time::ZERO);
        // `we+` without holding the token is a protocol violation.
        sim.drive_at(d2, we, Logic::H, Time::from_ns(2));
        sim.run_until(Time::from_ns(3)).unwrap();
        assert_eq!(
            sim.violations_of(mtf_sim::ViolationKind::Protocol).count(),
            1
        );
    }
}
