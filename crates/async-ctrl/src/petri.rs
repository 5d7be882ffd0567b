//! A 1-safe Petri-net / signal-transition-graph (STG) engine.
//!
//! The paper specifies the async-sync cell's data-validity controller
//! `DV_as` as a Petri net (Fig. 10b) and synthesizes it with Petrify \[6\].
//! Here the net is executed directly: input-signal transitions fire when
//! the corresponding edge arrives *and* their preset places are marked;
//! output-signal transitions fire autonomously as soon as they are enabled,
//! driving their net after a configurable delay.

use mtf_sim::{Component, Ctx, DriverId, Logic, NetId, Time, Violation, ViolationKind};

/// A signal of an [`StgSpec`].
#[derive(Clone, Debug)]
pub struct StgSignal {
    /// Signal name.
    pub name: String,
    /// `true` for environment-driven inputs, `false` for outputs the
    /// machine drives.
    pub is_input: bool,
    /// Power-on level.
    pub init: bool,
}

/// A signal-edge transition of an [`StgSpec`].
#[derive(Clone, Debug)]
pub struct StgTransition {
    /// Index into [`StgSpec::signals`].
    pub signal: usize,
    /// `true` for a rising edge (`x+`), `false` for falling (`x−`).
    pub rising: bool,
    /// Preset: places that must all be marked; their tokens are consumed.
    pub consume: Vec<usize>,
    /// Postset: places that receive a token.
    pub produce: Vec<usize>,
}

/// A 1-safe Petri net labelled with signal edges.
#[derive(Clone, Debug)]
pub struct StgSpec {
    /// Net name.
    pub name: String,
    /// The signal alphabet.
    pub signals: Vec<StgSignal>,
    /// Number of places.
    pub places: usize,
    /// Initially marked places.
    pub initial_marking: Vec<usize>,
    /// The transitions.
    pub transitions: Vec<StgTransition>,
}

/// One state of an [`StgSpec`]: the 1-safe marking and the signal
/// levels, packed. [`StgSpec::validate`] caps places and signals at 64.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StgState {
    /// Bit `p` set iff place `p` is marked.
    pub marking: u64,
    /// Bit `i` set iff signal `i` is high.
    pub levels: u64,
}

/// The places in `places` as a bit mask.
fn mask(places: &[usize]) -> u64 {
    places.iter().fold(0, |m, &p| m | 1 << p)
}

impl StgSpec {
    /// The power-on state: the initial marking and the signals' `init`
    /// levels.
    pub fn initial_state(&self) -> StgState {
        StgState {
            marking: mask(&self.initial_marking),
            levels: self
                .signals
                .iter()
                .enumerate()
                .fold(0, |l, (i, s)| if s.init { l | 1 << i } else { l }),
        }
    }

    /// Is transition `t`'s preset marked at `s`?
    ///
    /// [`StgMachine`] dispatches on this alone. The model checker fires
    /// only [`StgSpec::is_enabled`] transitions and reports a preset
    /// marked against the signal's level as a consistency violation, so
    /// on a spec it proves consistent the two relations coincide.
    pub fn is_marked(&self, s: StgState, t: usize) -> bool {
        let preset = mask(&self.transitions[t].consume);
        s.marking & preset == preset
    }

    /// Is transition `t` enabled at `s`: preset marked *and* its edge
    /// direction consistent with the signal's current level?
    pub fn is_enabled(&self, s: StgState, t: usize) -> bool {
        let tr = &self.transitions[t];
        self.is_marked(s, t) && (s.levels & 1 << tr.signal != 0) != tr.rising
    }

    /// Fires transition `t` at `s` (its preset must be marked): consumes
    /// the preset, produces into the postset and moves the signal to the
    /// edge's level. `None` if producing would violate 1-safety (a token
    /// into a place that stays marked).
    pub fn fire(&self, s: StgState, t: usize) -> Option<StgState> {
        let tr = &self.transitions[t];
        let (after, post) = (s.marking & !mask(&tr.consume), mask(&tr.produce));
        if after & post != 0 {
            return None;
        }
        Some(StgState {
            marking: after | post,
            levels: if tr.rising {
                s.levels | 1 << tr.signal
            } else {
                s.levels & !(1 << tr.signal)
            },
        })
    }

    /// Human-readable label for transition `t`, e.g. `we+` / `re−`.
    pub fn transition_label(&self, t: usize) -> String {
        let tr = &self.transitions[t];
        format!(
            "{}{}",
            self.signals[tr.signal].name,
            if tr.rising { "+" } else { "−" }
        )
    }

    /// Checks the 64 place/signal packing limit, index ranges and that the
    /// initial marking is 1-safe.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.places > 64 || self.signals.len() > 64 {
            return Err(format!("{}: more than 64 places or signals", self.name));
        }
        let mut seen = vec![false; self.places];
        for &p in &self.initial_marking {
            if p >= self.places {
                return Err(format!("{}: initial marking uses bad place {p}", self.name));
            }
            if seen[p] {
                return Err(format!("{}: place {p} marked twice", self.name));
            }
            seen[p] = true;
        }
        for (i, t) in self.transitions.iter().enumerate() {
            if t.signal >= self.signals.len() {
                return Err(format!("{}: transition {i} uses bad signal", self.name));
            }
            if t.consume.is_empty() {
                return Err(format!("{}: transition {i} has an empty preset", self.name));
            }
            for &p in t.consume.iter().chain(&t.produce) {
                if p >= self.places {
                    return Err(format!("{}: transition {i} uses bad place {p}", self.name));
                }
            }
        }
        Ok(())
    }
}

/// The event-driven interpreter for an [`StgSpec`].
///
/// Input edges and output firings step the spec through its shared
/// rule ([`StgSpec::is_marked`], [`StgSpec::fire`]), the one the model
/// checker explores. Input edges with no marked matching transition are
/// reported as [`ViolationKind::Protocol`]. A firing that would exceed
/// 1-safety is a specification bug and panics.
pub struct StgMachine {
    name: String,
    spec: StgSpec,
    nets: Vec<NetId>,
    out_drivers: Vec<Option<DriverId>>,
    delay: Time,
    state: StgState,
    prev: Vec<Logic>,
    started: bool,
}

impl std::fmt::Debug for StgMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StgMachine")
            .field("name", &self.name)
            .field("state", &self.state)
            .finish()
    }
}

impl StgMachine {
    /// Instantiates `spec` in `sim`: creates one net per output signal (in
    /// signal order), attaches to the provided input nets, and returns the
    /// full signal-to-net map (inputs are the caller's nets, outputs are
    /// fresh).
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`StgSpec::validate`] or `inputs` does not
    /// have one net per input signal.
    pub fn spawn(
        sim: &mut mtf_sim::Simulator,
        spec: StgSpec,
        inputs: &[NetId],
        delay: Time,
    ) -> Vec<NetId> {
        spec.validate().expect("invalid STG specification");
        let n_in = spec.signals.iter().filter(|s| s.is_input).count();
        assert_eq!(inputs.len(), n_in, "input net count mismatch");

        let mut nets = Vec::with_capacity(spec.signals.len());
        let mut out_drivers = Vec::with_capacity(spec.signals.len());
        let mut in_iter = inputs.iter();
        for s in &spec.signals {
            if s.is_input {
                nets.push(*in_iter.next().expect("counted"));
                out_drivers.push(None);
            } else {
                let n = sim.net(format!("{}.{}", spec.name, s.name));
                let d = sim.driver(n);
                nets.push(n);
                out_drivers.push(Some(d));
            }
        }
        let all_nets = nets.clone();
        let m = StgMachine {
            name: spec.name.clone(),
            state: spec.initial_state(),
            prev: vec![Logic::Z; spec.signals.len()],
            spec,
            nets,
            out_drivers,
            delay,
            started: false,
        };
        // The input nets, in signal order, are the ones it watches.
        sim.add_component(Box::new(m), inputs);
        all_nets
    }

    fn fire(&mut self, idx: usize, ctx: &mut Ctx<'_>) {
        self.state = self.spec.fire(self.state, idx).unwrap_or_else(|| {
            panic!(
                "{}: firing {} breaks 1-safety",
                self.name,
                self.spec.transition_label(idx)
            )
        });
        let t = &self.spec.transitions[idx];
        if let Some(d) = self.out_drivers[t.signal] {
            ctx.drive(d, Logic::from_bool(t.rising), self.delay);
        }
    }

    /// The first transition, in spec order, that `keep` accepts and whose
    /// preset is marked.
    fn marked(&self, keep: impl Fn(&StgTransition) -> bool) -> Option<usize> {
        (0..self.spec.transitions.len())
            .find(|&t| keep(&self.spec.transitions[t]) && self.spec.is_marked(self.state, t))
    }

    /// Fires marked *output* transitions until quiescent.
    fn run_outputs(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(t) = self.marked(|t| !self.spec.signals[t.signal].is_input) {
            self.fire(t, ctx);
        }
    }
}

impl Component for StgMachine {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &'static str {
        "stg_machine"
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        if !self.started {
            self.started = true;
            for (i, s) in self.spec.signals.iter().enumerate() {
                if let Some(d) = self.out_drivers[i] {
                    ctx.drive(d, Logic::from_bool(s.init), Time::ZERO);
                }
                self.prev[i] = if s.is_input {
                    ctx.get(self.nets[i])
                } else {
                    Logic::from_bool(s.init)
                };
            }
            self.run_outputs(ctx);
            return;
        }
        // Detect input edges.
        for i in 0..self.spec.signals.len() {
            if !self.spec.signals[i].is_input {
                continue;
            }
            let cur = ctx.get(self.nets[i]);
            let was = self.prev[i];
            self.prev[i] = cur;
            if cur == was || !cur.is_definite() {
                continue;
            }
            // Z -> definite at start-up is initialisation, not an edge.
            if !was.is_definite() && was != Logic::X {
                continue;
            }
            let rising = cur == Logic::H;
            match self.marked(|t| t.signal == i && t.rising == rising) {
                Some(ti) => {
                    self.fire(ti, ctx);
                    self.run_outputs(ctx);
                }
                None => {
                    ctx.report(Violation {
                        kind: ViolationKind::Protocol,
                        time: ctx.now(),
                        source: self.name.clone(),
                        message: format!(
                            "unexpected edge {}{} (no enabled transition)",
                            self.spec.signals[i].name,
                            if rising { "+" } else { "−" }
                        ),
                    });
                }
            }
        }
    }
}

/// The `DV_as` data-validity controller of the async-sync FIFO cell
/// (paper Fig. 10b).
///
/// Signals: inputs `we` (put in progress) and `re` (get in progress);
/// outputs `ei` (cell empty — enables the next put) and `fi` (cell full —
/// read by the empty detector).
///
/// Protocol, with the paper's asymmetry:
///
/// * `we+` → `ei−` and `fi+` (cell becomes full as the put begins);
/// * `re+` → `fi−` *asynchronously, mid get-cycle* (cell leaves the empty
///   detector's view immediately);
/// * `re−` (the get completes on the next `CLK_get` edge) → `ei+`, **but
///   only after `we−`** — the cell is not offered for a new put while the
///   previous put pulse is still finishing, which is what prevents a put
///   from corrupting a get in progress.
pub fn dv_as_spec(cell: usize) -> StgSpec {
    // Place map:
    // 0: we pulse may start (we− seen)        [marked]
    // 1: ei+ done, cell empty                 [marked]
    // 2: ei− pending
    // 3: fi+ pending
    // 4: we− awaited
    // 5: re+ awaited (cell full)
    // 6: fi− pending
    // 7: re− awaited
    // 8: ei+ pending (needs 9: ei currently low)
    // 9: ei low
    // 10: absorbing a spurious get pulse on an empty cell
    StgSpec {
        name: format!("DVas{cell}"),
        signals: vec![
            StgSignal {
                name: "we".into(),
                is_input: true,
                init: false,
            },
            StgSignal {
                name: "re".into(),
                is_input: true,
                init: false,
            },
            StgSignal {
                name: "ei".into(),
                is_input: false,
                init: true,
            },
            StgSignal {
                name: "fi".into(),
                is_input: false,
                init: false,
            },
        ],
        places: 11,
        initial_marking: vec![0, 1],
        transitions: vec![
            // we+ : consume (ready, empty) -> schedule ei-, fi+, and await we-
            StgTransition {
                signal: 0,
                rising: true,
                consume: vec![0, 1],
                produce: vec![2, 3, 4],
            },
            // ei- : output
            StgTransition {
                signal: 2,
                rising: false,
                consume: vec![2],
                produce: vec![9],
            },
            // fi+ : output -> cell observable as full
            StgTransition {
                signal: 3,
                rising: true,
                consume: vec![3],
                produce: vec![5],
            },
            // we- : put pulse finished -> ready for the next put pulse
            StgTransition {
                signal: 0,
                rising: false,
                consume: vec![4],
                produce: vec![0],
            },
            // re+ : get began -> fi falls asynchronously
            StgTransition {
                signal: 1,
                rising: true,
                consume: vec![5],
                produce: vec![6],
            },
            // fi- : output
            StgTransition {
                signal: 3,
                rising: false,
                consume: vec![6],
                produce: vec![7],
            },
            // re- : get completed on the CLK_get edge
            StgTransition {
                signal: 1,
                rising: false,
                consume: vec![7],
                produce: vec![8],
            },
            // ei+ : output; needs the pending token AND ei actually low
            StgTransition {
                signal: 2,
                rising: true,
                consume: vec![8, 9],
                produce: vec![1],
            },
            // Spurious get pulse on an *empty* cell: the synchronous get
            // side can briefly enable a get just after the FIFO drains
            // (the global empty flag needs a gate delay to propagate).
            // Reading an empty cell is harmless — the item was already
            // delivered — so the controller absorbs the pulse instead of
            // flagging it.
            StgTransition {
                signal: 1,
                rising: true,
                consume: vec![1],
                produce: vec![10],
            },
            StgTransition {
                signal: 1,
                rising: false,
                consume: vec![10],
                produce: vec![1],
            },
        ],
    }
}

/// The data-validity controller for the **sync-async** FIFO (the paper
/// designs this FIFO but defers its description to a technical report;
/// this controller is reconstructed from the stated component reuse).
///
/// Signals: inputs `pe` (synchronous put enable — high from mid put-cycle
/// until just after the latching clock edge) and `re` (asynchronous
/// read-enable pulse); outputs `ei`, `fi`.
///
/// Compared with [`dv_as_spec`] the asymmetry is mirrored: `ei−` fires as
/// soon as the put is *enabled* (`pe+`, mid-cycle — the early warning the
/// anticipating full detector needs), but `fi+` fires only on `pe−`, i.e.
/// after the clock edge has actually latched the data. The asynchronous
/// get side has **no synchronizer delay** to mask an early `fi`, so `fi`
/// must not rise before the data is committed.
pub fn dv_sa_spec(cell: usize) -> StgSpec {
    // Place map:
    // 0: pe pulse may start (ready)          [marked]
    // 1: cell empty                          [marked]
    // 2: ei− pending
    // 3: await pe−
    // 4: fi+ pending
    // 5: await re+ (cell full, data committed)
    // 6: fi− pending
    // 7: await re−
    // 8: ei+ pending
    // 9: ei low
    // 10: absorbing a spurious read pulse on an empty cell
    StgSpec {
        name: format!("DVsa{cell}"),
        signals: vec![
            StgSignal {
                name: "pe".into(),
                is_input: true,
                init: false,
            },
            StgSignal {
                name: "re".into(),
                is_input: true,
                init: false,
            },
            StgSignal {
                name: "ei".into(),
                is_input: false,
                init: true,
            },
            StgSignal {
                name: "fi".into(),
                is_input: false,
                init: false,
            },
        ],
        places: 11,
        initial_marking: vec![0, 1],
        transitions: vec![
            // pe+ : early warning — cell leaves the empty pool now.
            StgTransition {
                signal: 0,
                rising: true,
                consume: vec![0, 1],
                produce: vec![2, 3],
            },
            StgTransition {
                signal: 2,
                rising: false,
                consume: vec![2],
                produce: vec![9],
            },
            // pe− : the clock edge latched the data — only now full.
            StgTransition {
                signal: 0,
                rising: false,
                consume: vec![3],
                produce: vec![0, 4],
            },
            StgTransition {
                signal: 3,
                rising: true,
                consume: vec![4],
                produce: vec![5],
            },
            // re+/re− : the asynchronous read pulse.
            StgTransition {
                signal: 1,
                rising: true,
                consume: vec![5],
                produce: vec![6],
            },
            StgTransition {
                signal: 3,
                rising: false,
                consume: vec![6],
                produce: vec![7],
            },
            StgTransition {
                signal: 1,
                rising: false,
                consume: vec![7],
                produce: vec![8],
            },
            StgTransition {
                signal: 2,
                rising: true,
                consume: vec![8, 9],
                produce: vec![1],
            },
            // Spurious read pulse on an empty cell (see dv_as_spec).
            StgTransition {
                signal: 1,
                rising: true,
                consume: vec![1],
                produce: vec![10],
            },
            StgTransition {
                signal: 1,
                rising: false,
                consume: vec![10],
                produce: vec![1],
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtf_sim::{Simulator, Time};

    #[test]
    fn dv_as_validates() {
        assert!(dv_as_spec(0).validate().is_ok());
    }

    #[test]
    fn pure_firing_api_walks_a_cycle() {
        let spec = dv_as_spec(0);
        let mut s = spec.initial_state();
        // Initially we+ (t0) and the spurious re+ absorber (t8) are enabled.
        let enabled: Vec<usize> = (0..spec.transitions.len())
            .filter(|&t| spec.is_enabled(s, t))
            .collect();
        assert_eq!(enabled, vec![0, 8]);
        // we+, ei−, fi+, we−, re+, fi−, re−, ei+ returns to the start.
        for t in [0, 1, 2, 3, 4, 5, 6, 7] {
            assert!(spec.is_enabled(s, t), "transition {t}");
            s = spec.fire(s, t).expect("trace fires");
        }
        assert_eq!(s, spec.initial_state(), "full cycle returns home");
        assert!(!spec.is_marked(s, 1), "ei− not enabled at rest");
        assert_eq!(spec.transition_label(0), "we+");
        assert_eq!(spec.transition_label(1), "ei−");
    }

    #[test]
    fn pure_fire_rejects_unsafe_production() {
        let mut spec = dv_as_spec(0);
        // we+ also re-produces into place 0; the later we− (produce [0])
        // then lands a second token there.
        spec.transitions[0].produce.push(0);
        let s = spec
            .fire(spec.initial_state(), 0)
            .expect("we+ itself is a legal self-loop");
        assert!(spec.is_marked(s, 3));
        assert_eq!(spec.fire(s, 3), None, "we− over-marks place 0");
    }

    #[test]
    fn validate_catches_double_marking() {
        let mut s = dv_as_spec(0);
        s.initial_marking = vec![0, 0];
        assert!(s.validate().is_err());
    }

    struct Rig {
        sim: Simulator,
        we: NetId,
        re: NetId,
        ei: NetId,
        fi: NetId,
        dwe: mtf_sim::DriverId,
        dre: mtf_sim::DriverId,
    }

    fn setup() -> Rig {
        let mut sim = Simulator::new(0);
        let we = sim.net("we");
        let re = sim.net("re");
        let nets = StgMachine::spawn(&mut sim, dv_as_spec(0), &[we, re], Time::from_ps(200));
        let (ei, fi) = (nets[2], nets[3]);
        let dwe = sim.driver(we);
        let dre = sim.driver(re);
        sim.drive_at(dwe, we, Logic::L, Time::ZERO);
        sim.drive_at(dre, re, Logic::L, Time::ZERO);
        sim.run_until(Time::from_ns(1)).unwrap();
        Rig {
            sim,
            we,
            re,
            ei,
            fi,
            dwe,
            dre,
        }
    }

    #[test]
    fn initial_state_is_empty() {
        let r = setup();
        assert_eq!(r.sim.value(r.ei), Logic::H);
        assert_eq!(r.sim.value(r.fi), Logic::L);
    }

    #[test]
    fn full_put_get_cycle() {
        let Rig {
            mut sim,
            we,
            re,
            ei,
            fi,
            dwe,
            dre,
        } = setup();
        let ns = Time::from_ns;
        // Put pulse.
        sim.drive_at(dwe, we, Logic::H, ns(2));
        sim.drive_at(dwe, we, Logic::L, ns(3));
        sim.run_until(ns(4)).unwrap();
        assert_eq!(sim.value(ei), Logic::L, "not empty after put");
        assert_eq!(sim.value(fi), Logic::H, "full after put");
        // Get: re+ mid-cycle, re− at the next clock edge.
        sim.drive_at(dre, re, Logic::H, ns(5));
        sim.run_until(ns(6)).unwrap();
        assert_eq!(sim.value(fi), Logic::L, "fi falls asynchronously on re+");
        assert_eq!(sim.value(ei), Logic::L, "but not yet offered as empty");
        sim.drive_at(dre, re, Logic::L, ns(7));
        sim.run_until(ns(8)).unwrap();
        assert_eq!(sim.value(ei), Logic::H, "empty once the get completes");
        assert!(sim.violations().is_empty());
    }

    #[test]
    fn put_cannot_restart_until_cell_drains() {
        let Rig {
            mut sim,
            we,
            ei,
            dwe,
            ..
        } = setup();
        let ns = Time::from_ns;
        sim.drive_at(dwe, we, Logic::H, ns(2));
        sim.drive_at(dwe, we, Logic::L, ns(3));
        sim.run_until(ns(4)).unwrap();
        assert_eq!(sim.value(ei), Logic::L);
        // A second we+ without a get: the `empty` place is unmarked, so the
        // edge has no enabled transition -> protocol violation.
        sim.drive_at(dwe, we, Logic::H, ns(5));
        sim.run_until(ns(6)).unwrap();
        assert_eq!(
            sim.violations_of(mtf_sim::ViolationKind::Protocol).count(),
            1
        );
    }

    #[test]
    fn get_pulse_on_empty_cell_is_absorbed() {
        // The synchronous get side can briefly strobe `re` on an empty
        // cell while the global empty flag propagates; the controller
        // swallows the pulse without declaring the cell full or flagging a
        // violation.
        let Rig {
            mut sim,
            re,
            ei,
            fi,
            dre,
            ..
        } = setup();
        sim.drive_at(dre, re, Logic::H, Time::from_ns(2));
        sim.drive_at(dre, re, Logic::L, Time::from_ns(3));
        sim.run_until(Time::from_ns(4)).unwrap();
        assert_eq!(sim.violations().len(), 0);
        assert_eq!(sim.value(ei), Logic::H, "still empty");
        assert_eq!(sim.value(fi), Logic::L);
    }
}
