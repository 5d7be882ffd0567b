//! Quiescent-flop sleep is exact. Each edge-triggered cell that may sleep
//! through quiet clock edges (a DFF or ETDFF, ideal or `hp06`, with
//! setup/hold checks on or off, and a word register) is run beside a
//! twin: the same cell with the same watches, wrapped so that it wakes
//! up again after every evaluation ([`NeverSleeps`]). Under random clock,
//! data and enable stimulus — changes inside the setup, hold and
//! metastability windows, and `X`/`Z` levels included — both must
//! produce the same Q waveforms, the same violation log and the same RNG
//! draws. A fast clock-to-Q (shorter than the setup time and the half
//! metastability window) makes the sleep rule's input margins, not its
//! wait for Q, decide when the cell may sleep.
//!
//! There are three twins. One keeps the clock as a rising-only watch; the
//! other watches it on every change, so it also evaluates at every clock
//! fall and at `X`/`Z` levels. A fall wake at an earlier instant must not
//! hide the wake of a queued metastable settle: a data change at the
//! settle instant is then absorbed into that wake, and the cell reports
//! a hold violation once.
//!
//! The third twin sleeps like the built cell, but watches its data and
//! enable pins on every change instead of sampling them
//! (`Simulator::add_sampling_component`): it checks that a sampled pin
//! wakes the cell exactly when an evaluation can matter (inside the hold
//! window, or while a settle is pending) and otherwise acts on the sleep
//! as the woken cell would. The stimulus puts a share of the input
//! changes inside the hold window after a rise, or in the rise's own
//! instant, queued ahead of it.

use mtf_gates::{Builder, CellDelays, Dff, DffConfig, InstanceId, RegisterWord};
use mtf_sim::{Component, Ctx, Logic, MetaModel, NetId, Simulator, Time};
use proptest::prelude::*;
use rand::Rng;
use std::cell::Cell;
use std::rc::Rc;

/// The cell under test.
#[derive(Clone, Copy, Debug)]
enum Flop {
    /// `dff_opts` with or without an enable, `hp06` or ideal
    /// metastability, and setup/hold reports on or off.
    Bit {
        en: bool,
        hp06: bool,
        check_timing: bool,
    },
    /// A `width`-bit register, with or without an enable.
    Word { en: bool, width: usize },
}

fn any_flop() -> impl Strategy<Value = Flop> {
    prop_oneof![
        (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(en, hp06, check_timing)| {
            Flop::Bit {
                en,
                hp06,
                check_timing,
            }
        }),
        (any::<bool>(), 1usize..4).prop_map(|(en, width)| Flop::Word { en, width }),
    ]
}

/// One level change on an input: `(which input, anchor edge, offset in
/// ps from that rise, level code)`. Input 0 is the enable, 1.. are the
/// data bits.
type Change = (usize, usize, i64, u8);

fn level(code: u8) -> Logic {
    match code % 8 {
        0 => Logic::X,
        1 => Logic::Z,
        c if c % 2 == 0 => Logic::L,
        _ => Logic::H,
    }
}

/// Everything a run observes: per Q bit the waveform, the rendered
/// violation log, the next RNG draw after the run, the slept wakes and
/// the skipped sampled-pin wakes.
type Observed = (Vec<Vec<(Time, Logic)>>, Vec<String>, u64, u64, u64);

/// A cell that cancels its own sleep after every evaluation, so the
/// kernel delivers it every rise.
struct NeverSleeps(Box<dyn Component>);

impl Component for NeverSleeps {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        self.0.eval(ctx);
        ctx.sleep_from(Time::MAX);
    }
}

/// Draws one number from the simulator's RNG on its first evaluation.
struct RngTap(Rc<Cell<u64>>);

impl Component for RngTap {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        self.0.set(ctx.rng().gen());
    }
}

/// Which cell a run builds.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Variant {
    /// The built cell, which may sleep.
    Sleeper,
    /// A [`NeverSleeps`] copy with the same watches.
    Twin,
    /// A [`NeverSleeps`] copy that watches the clock on every change.
    ClockWatchTwin,
    /// A copy that sleeps, with every-change watches on its data and
    /// enable pins.
    WatchedPinsTwin,
}

/// Builds `flop` in a fresh simulator (with a 20 ps clock-to-Q if
/// `fast`), applies the stimulus and runs it; a twin replaces the built
/// cell.
fn run(
    flop: Flop,
    fast: bool,
    init: Logic,
    clock: &[(Time, Logic)],
    changes: &[(usize, Time, Logic)],
    variant: Variant,
) -> Observed {
    let mut sim = Simulator::new(7);
    let clk = sim.net("clk");
    let cq = |slow: Time| if fast { Time::from_ps(20) } else { slow };
    let hp06 = CellDelays::hp06();
    let delays = CellDelays {
        dff_cq: cq(hp06.dff_cq),
        etdff_cq: cq(hp06.etdff_cq),
        register_cq: cq(hp06.register_cq),
        ..hp06
    };
    let mut b = Builder::with_delays(&mut sim, delays, MetaModel::hp06());
    let meta = match flop {
        Flop::Bit { hp06: true, .. } => MetaModel::hp06(),
        _ => MetaModel::ideal(),
    };
    let (en, d, q): (Option<NetId>, Vec<NetId>, Vec<NetId>) = match flop {
        Flop::Bit {
            en, check_timing, ..
        } => {
            let en = en.then(|| b.input("en"));
            let d = b.input("d");
            let q = b.dff_opts(clk, d, en, init, meta, check_timing);
            (en, vec![d], vec![q])
        }
        Flop::Word { en, width } => {
            let en = en.then(|| b.input("en"));
            let d = b.input_bus("d", width);
            let q = b.register(clk, en, &d);
            (en, d, q)
        }
    };
    let netlist = b.finish();
    if variant != Variant::Sleeper {
        let id = InstanceId::from_index(0);
        let (elab, name) = (netlist.elab(id), netlist.instance(id).name.clone());
        sim.detach_component(elab.component.expect("the cell is a component"));
        let timing = elab.flop.as_ref().expect("an edge-triggered cell").timing;
        let twin: Box<dyn Component> = match flop {
            Flop::Bit { .. } => Box::new(Dff::new(DffConfig {
                name,
                clk,
                d: d[0],
                en,
                q: elab.drivers[0],
                init,
                meta,
                timing,
                delays: netlist.delay_table(),
                inst: 0,
            })),
            Flop::Word { .. } => Box::new(RegisterWord::new(
                name,
                clk,
                en,
                d.clone(),
                elab.drivers.clone(),
                timing.setup,
                netlist.delay_table(),
                0,
            )),
        };
        let mut watch: Vec<NetId> = en.iter().chain(&d).copied().collect();
        match variant {
            Variant::WatchedPinsTwin => {
                sim.add_clocked_component(twin, &[clk], &watch);
            }
            Variant::Twin => {
                sim.add_clocked_component(Box::new(NeverSleeps(twin)), &[clk], &watch);
            }
            _ => {
                watch.push(clk);
                sim.add_clocked_component(Box::new(NeverSleeps(twin)), &[], &watch);
            }
        }
    }
    for &n in &q {
        sim.trace(n);
    }
    let drivers: Vec<_> = en.iter().chain(&d).map(|&n| (n, sim.driver(n))).collect();
    // Inputs first at a shared instant, then the clock: a data change
    // lands before an edge at its own instant, never behind one.
    for &(input, at, v) in changes {
        let (n, drv) = drivers[input % drivers.len()];
        sim.drive_at(drv, n, v, at);
    }
    let clk_drv = sim.driver(clk);
    for &(at, v) in clock {
        sim.drive_at(clk_drv, clk, v, at);
    }
    let horizon = clock.last().map_or(Time::ZERO, |&(t, _)| t) + Time::from_ns(10);
    sim.run_until(horizon).expect("the run completes");
    let draw = Rc::new(Cell::new(0));
    sim.add_component(Box::new(RngTap(draw.clone())), &[]);
    sim.run_for(Time::from_ps(1)).expect("the tap runs");
    let waves = q
        .iter()
        .map(|&n| sim.waveform(n).expect("traced").points().to_vec())
        .collect();
    let log = sim.violations().iter().map(ToString::to_string).collect();
    let stats = sim.stats();
    (
        waves,
        log,
        draw.get(),
        stats.slept_wakes,
        stats.sampled_wakes,
    )
}

/// The `hp06` hold time, in ps: offsets `0..HOLD_PS` after a rise land in
/// its instant or its hold window.
const HOLD_PS: i64 = 100;

/// The clock: a change every `gap` ps, alternating `L`/`H` except where
/// the code picks `X` or `Z`; and the rise instants, the anchors of the
/// input changes.
fn clock_of(gaps: &[(u64, u8)]) -> (Vec<(Time, Logic)>, Vec<Time>) {
    let mut t = Time::from_ns(1);
    let mut high = false;
    let mut prev = Logic::Z;
    let mut levels = Vec::new();
    let mut rises = Vec::new();
    for &(gap, code) in gaps {
        t += Time::from_ps(gap);
        let v = match code {
            0 => Logic::X,
            1 => Logic::Z,
            _ => {
                high = !high;
                Logic::from_bool(high)
            }
        };
        if prev == Logic::L && v == Logic::H {
            rises.push(t);
        }
        prev = v;
        levels.push((t, v));
    }
    (levels, rises)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn a_sleeping_flop_matches_its_never_sleeping_twin(
        flop in any_flop(),
        fast in any::<bool>(),
        init in any::<bool>(),
        gaps in prop::collection::vec((prop_oneof![20u64..200, 200u64..1_500], 0u8..16), 8..40),
        raw in prop::collection::vec(
            (0usize..4, 0usize..40, prop_oneof![-400i64..400, 0i64..HOLD_PS], any::<u8>()),
            0..16,
        ),
    ) {
        let (clock, rises) = clock_of(&gaps);
        let anchor = |i: usize| rises.get(i % rises.len().max(1)).copied();
        let changes: Vec<(usize, Time, Logic)> = raw
            .iter()
            .map(|&(input, edge, offset, code): &Change| {
                let base = anchor(edge).unwrap_or(Time::from_ns(2)).as_ps() as i64;
                (input, Time::from_ps((base + offset).max(0) as u64), level(code))
            })
            .collect();
        let init = Logic::from_bool(init);
        let sleeper = run(flop, fast, init, &clock, &changes, Variant::Sleeper);
        for variant in [Variant::Twin, Variant::ClockWatchTwin, Variant::WatchedPinsTwin] {
            let twin = run(flop, fast, init, &clock, &changes, variant);
            prop_assert_eq!(twin.4, 0, "the twin samples no pin");
            if variant != Variant::WatchedPinsTwin {
                prop_assert_eq!(twin.3, 0, "the twin never sleeps");
            }
            prop_assert_eq!(&sleeper.0, &twin.0, "Q waveforms of {:?}, fast {}, {:?}", flop, fast, variant);
            prop_assert_eq!(&sleeper.1, &twin.1, "violations of {:?}, fast {}, {:?}", flop, fast, variant);
            prop_assert_eq!(sleeper.2, twin.2, "RNG draws of {:?}, fast {}, {:?}", flop, fast, variant);
        }
    }
}

/// The property is not vacuous: with quiet inputs, every kind of cell
/// sleeps through most of a regular clock.
#[test]
fn quiet_inputs_let_every_cell_sleep() {
    let gaps = vec![(500, 2); 40];
    let (clock, _) = clock_of(&gaps);
    let changes = [(0, Time::ZERO, Logic::H), (1, Time::ZERO, Logic::H)];
    for flop in [
        Flop::Bit {
            en: true,
            hp06: true,
            check_timing: true,
        },
        Flop::Bit {
            en: false,
            hp06: false,
            check_timing: false,
        },
        Flop::Word { en: true, width: 2 },
    ] {
        let sleeper = run(flop, false, Logic::L, &clock, &changes, Variant::Sleeper);
        let twin = run(flop, false, Logic::L, &clock, &changes, Variant::Twin);
        assert!(
            sleeper.3 >= 15,
            "{flop:?} slept through {} rises",
            sleeper.3
        );
        assert_eq!(sleeper.0, twin.0, "{flop:?}");
    }
}

/// The stimulus reaches the cases that matter: a data change in a rise's
/// instant, queued ahead of it, is captured by that edge, and one inside
/// the hold window wakes the cell and is reported, as in every twin.
#[test]
fn same_instant_and_hold_window_changes_match_every_twin() {
    let gaps = vec![(500, 2); 12];
    let (clock, rises) = clock_of(&gaps);
    let at = |rise: usize, offset: u64| rises[rise] + Time::from_ps(offset);
    let changes = [
        (0, Time::ZERO, Logic::H),
        (1, Time::ZERO, Logic::L),
        (1, at(1, 0), Logic::H),
        (1, at(3, 40), Logic::L),
    ];
    let flop = Flop::Bit {
        en: true,
        hp06: false,
        check_timing: true,
    };
    let sleeper = run(flop, false, Logic::L, &clock, &changes, Variant::Sleeper);
    let q = &sleeper.0[0];
    assert!(
        q.contains(&(at(1, 0) + CellDelays::hp06().etdff_cq, Logic::H)),
        "{q:?}"
    );
    assert!(
        sleeper.1.iter().any(|v| v.starts_with("[hold]")),
        "{:?}",
        sleeper.1
    );
    assert!(sleeper.4 > 0, "no sampled-pin wake was skipped");
    for variant in [
        Variant::Twin,
        Variant::ClockWatchTwin,
        Variant::WatchedPinsTwin,
    ] {
        let twin = run(flop, false, Logic::L, &clock, &changes, variant);
        assert_eq!(sleeper.0, twin.0, "{variant:?}");
        assert_eq!(sleeper.1, twin.1, "{variant:?}");
    }
}
