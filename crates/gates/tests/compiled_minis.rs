//! Miniature hand-built netlists for the compiled-netlist backend, in
//! the style of the lint suite's minis: each isolates one structural or
//! scheduling hazard of region compilation — reconvergent fanout, regions
//! spanning several clock domains, the pin ordering of event-resident
//! boundary cells, same-instant boundary glitches, self-timed wakes,
//! agenda re-scheduling, one wake per agenda instant and the flop capture
//! corners — and holds the compiled run to net-for-net identical values,
//! toggle counts, waveforms and violations against an event-driven twin.

use mtf_gates::{install_compiled, Builder, CompileReport};
use mtf_sim::{Logic, NetId, Simulator, Time};

/// A drive instruction: (net index into the build closure's return
/// list, value, time in ps).
type Drive = (usize, Logic, u64);

/// A delay annotation: (net index into the build closure's return list,
/// time `at` in ps, delay in ps). After the instant `at`, the gate
/// driving that net takes the new delay.
/// Event gates and the compiled engine both read the shared delay table
/// at evaluation time, so an annotation applies to later evaluations.
type Retime = (usize, u64, u64);

/// Builds the same netlist in two simulators, compiles one, applies the
/// same external drive schedule and delay annotations (`retimes`, sorted
/// by time) to both, runs both to `horizon_ps`, and asserts every net
/// agrees in final value, toggle count and waveform (so glitch trains
/// and landing instants must match, not just settled values), and that
/// both report the same violations. Returns the compile report and the
/// compiled simulator for extra assertions.
fn differential(
    build: impl Fn(&mut Builder<'_>) -> Vec<NetId>,
    drives: &[Drive],
    retimes: &[Retime],
    horizon_ps: u64,
) -> (CompileReport, Simulator) {
    let mut report = None;
    let mut sims = Vec::new();
    for compile in [false, true] {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        let nets = build(&mut b);
        let netlist = b.finish();
        if compile {
            report = Some(install_compiled(&mut sim, &netlist, "mini"));
        }
        for i in 0..sim.net_count() {
            sim.trace(NetId::from_index(i));
        }
        let drivers: Vec<_> = nets.iter().map(|&n| sim.driver(n)).collect();
        for &(i, v, at) in drives {
            sim.drive_at(drivers[i], nets[i], v, Time::from_ps(at));
        }
        for &(i, at, delay) in retimes {
            sim.run_until(Time::from_ps(at)).expect("runs");
            let (gate, _) = netlist
                .drivers_of(nets[i])
                .next()
                .expect("net has a driver");
            netlist.delay_table().borrow_mut()[gate.index()] = Time::from_ps(delay);
        }
        sim.run_until(Time::from_ps(horizon_ps)).expect("runs");
        sims.push(sim);
    }
    let (ev, co) = (&sims[0], &sims[1]);
    assert_eq!(ev.net_count(), co.net_count());
    for i in 0..ev.net_count() {
        let n = NetId::from_index(i);
        assert_eq!(
            ev.value(n),
            co.value(n),
            "net {} final value diverged",
            ev.net_name(n)
        );
        assert_eq!(
            ev.toggles(n),
            co.toggles(n),
            "net {} toggle count diverged (glitch trains must match)",
            ev.net_name(n)
        );
        assert_eq!(
            ev.waveform(n).map(|w| w.points()),
            co.waveform(n).map(|w| w.points()),
            "net {} changed at different instants",
            ev.net_name(n)
        );
    }
    assert_eq!(
        format!("{:?}", ev.violations()),
        format!("{:?}", co.violations()),
        "violation logs diverged"
    );
    assert_eq!(ev.stats().compiled_gate_evals, 0);
    (
        report.expect("compiled twin ran"),
        sims.pop().expect("two sims"),
    )
}

/// Alternating H/L edges for a manually driven clock net.
fn clock_edges(net: usize, period_ps: u64, until_ps: u64) -> Vec<Drive> {
    let mut out = vec![(net, Logic::L, 0)];
    let mut t = period_ps / 2;
    let mut v = Logic::H;
    while t < until_ps {
        out.push((net, v, t));
        v = !v;
        t += period_ps / 2;
    }
    out
}

#[test]
fn reconvergent_fanout_glitches_identically() {
    // x fans out through an inverter and a buffer and reconverges on an
    // AND and an XOR: every x edge races two paths of different delay,
    // so the outputs glitch. The compiled engine must reproduce the
    // glitch trains edge for edge, not just the settled values.
    let horizon = 40_000;
    let mut drives = Vec::new();
    for k in 0..12u64 {
        let v = if k % 2 == 0 { Logic::H } else { Logic::L };
        drives.push((0, v, 1_000 + k * 3_000));
    }
    let (report, _) = differential(
        |b| {
            let x = b.input("x");
            let n1 = b.inv(x);
            let n2 = b.buf(x);
            let y = b.and2(n1, n2);
            let z = b.xor2(n1, n2);
            let _ = (y, z);
            vec![x]
        },
        &drives,
        &[],
        horizon,
    );
    assert_eq!(report.compiled_gates, 4, "all four gates are acyclic");
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn multi_clock_regions_split_and_agree() {
    // Two flops on incommensurate clocks with combinational logic
    // between and after them. Region extraction must split the work per
    // capturing clock edge while the shared comb stays one region; the
    // observable behaviour must match the event kernel at every
    // alignment the periods sweep through.
    let horizon = 60_000;
    let mut drives = clock_edges(0, 2_000, horizon);
    drives.extend(clock_edges(1, 2_740, horizon));
    // Data toggles slower than either clock.
    for k in 0..10u64 {
        let v = if k % 2 == 0 { Logic::H } else { Logic::L };
        drives.push((2, v, 300 + k * 5_700));
    }
    let (report, co) = differential(
        |b| {
            let clk_a = b.input("clk_a");
            let clk_b = b.input("clk_b");
            let da = b.input("da");
            let qa = b.dff(clk_a, da, Logic::L);
            let qb = b.dff(clk_b, qa, Logic::L);
            let y = b.and2(qa, qb);
            let qc = b.dff(clk_b, y, Logic::L);
            let _ = qc;
            vec![clk_a, clk_b, da]
        },
        &drives,
        &[],
        horizon,
    );
    assert_eq!(report.compiled_flops, 3, "flops compile in both domains");
    assert!(report.compiled_gates >= 1);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    assert!(co.stats().compiled_edge_evals > 0, "edges ran compiled");
    assert!(co.stats().compiled_gate_evals > 0, "gates ran compiled");
}

#[test]
fn boundary_cell_pin_ordering_is_preserved() {
    // An event-resident tri-state bus feeds an *asymmetric* compiled
    // gate (ANDNOT: a AND NOT b) on each pin position, and the compiled
    // outputs feed an event-resident C-element back. If the engine
    // scrambled boundary pin order in either direction, p and q would
    // swap or the C-element would fire at the wrong instants.
    let horizon = 30_000;
    let drives = vec![
        (0, Logic::H, 100),    // en: bus driven from t=100
        (1, Logic::H, 100),    // d: bus value H
        (2, Logic::L, 100),    // c low: p = x AND !c = H, q = c AND !x = L
        (2, Logic::H, 9_000),  // c high: p = L, q = L (x still H)
        (1, Logic::L, 14_000), // bus value L: q = c AND !x = H
        (0, Logic::L, 22_000), // bus released (Z): outputs go pending
    ];
    let (report, co) = differential(
        |b| {
            let en = b.input("en");
            let d = b.input("d");
            let c = b.input("c");
            let x = b.input("x_bus");
            b.tribuf_onto(en, d, x);
            let p = b.and_not(x, c);
            let q = b.and_not(c, x);
            let cel = b.celement(&[p, q], Logic::L);
            let _ = cel;
            vec![en, d, c]
        },
        &drives,
        &[],
        horizon,
    );
    assert_eq!(report.compiled_gates, 2, "both ANDNOTs compile");
    assert!(
        report.event_cells >= 2,
        "tri-state and C-element stay event-resident"
    );
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    assert!(co.stats().compiled_gate_evals > 0);
}

#[test]
fn boundary_glitch_within_one_instant_reschedules() {
    // A boundary net that leaves its value and returns within one
    // instant: the kernel wakes the engine once, after both drives, so
    // the sampled value equals the cached one. The event-driven buffer
    // still re-drives on that wake, which inertially moves its pending
    // landing from 1,200 ps to 1,300 ps; the engine must re-evaluate the
    // net's fanout too. The later glitches hit a settled net (a re-drive
    // of an equal value), the flop's data pin just after a clock edge
    // (a hold violation with no net change, reported by both flops in
    // elaboration order), and the clock itself (L→H→L is no edge).
    let horizon = 12_000;
    let drives = vec![
        (1, Logic::L, 0),
        (0, Logic::L, 0),
        (0, Logic::H, 1_000),
        (0, Logic::L, 1_100), // glitch while y's rise is pending
        (0, Logic::H, 1_100),
        (0, Logic::L, 3_000), // glitch on a settled net
        (0, Logic::H, 3_000),
        (1, Logic::H, 5_000), // clock edge, then a data glitch in hold
        (0, Logic::L, 5_050),
        (0, Logic::H, 5_050),
        (1, Logic::L, 7_000),
        (1, Logic::H, 8_000), // clock glitch: no rising edge
        (1, Logic::L, 8_000),
    ];
    let (report, co) = differential(
        |b| {
            let x = b.input("x");
            let clk = b.input("clk");
            let y = b.buf(x);
            let q = b.dff(clk, x, Logic::L);
            let q2 = b.dff(clk, x, Logic::H);
            let _ = (y, q, q2);
            vec![x, clk, y]
        },
        &drives,
        &[],
        horizon,
    );
    assert_eq!(report.compiled_gates, 1);
    assert_eq!(report.compiled_flops, 2);
    assert_eq!(
        co.last_change(NetId::from_index(2)),
        Time::from_ps(1_300),
        "the glitch moved the buffer's landing"
    );
    assert_eq!(
        co.violations().len(),
        2,
        "one hold violation per flop, in elaboration order"
    );
}

#[test]
fn self_landings_wake_the_engine_without_boundary_change() {
    // One input edge launches a wave down an eight-inverter chain that
    // reconverges on an XOR with the chain head: every later engine wake
    // is for one of its own landings, with no boundary net changed at
    // that instant, so the boundary scan must read nothing and still
    // leave the region consistent.
    let horizon = 20_000;
    let drives = vec![(0, Logic::L, 0), (0, Logic::H, 1_000), (0, Logic::L, 9_000)];
    let (report, co) = differential(
        |b| {
            let x = b.input("x");
            let mut n = b.buf(x);
            for _ in 0..8 {
                n = b.inv(n);
            }
            let p = b.xor2(x, n);
            let _ = p;
            vec![x]
        },
        &drives,
        &[],
        horizon,
    );
    assert_eq!(report.compiled_gates, 10);
    // Three waves (the settling from X at t = 0, then edges at 1,000
    // and 9,000 ps), each running down nine chain cells and the XOR at
    // distinct instants: most passes are self wakes.
    assert!(
        co.stats().compiled_edge_evals >= 3 * 10,
        "self landings ran as their own passes: {}",
        co.stats().compiled_edge_evals
    );
}

#[test]
fn reevaluation_to_same_or_moved_landing_time_agrees() {
    // `s = x AND buf0(x)` where the buffer has zero delay: every x edge
    // evaluates `s` twice in one instant (once for x, once when the
    // buffer lands at the same instant), both times to the same landing
    // time, and the second value must win. `g = x XOR y` is re-evaluated
    // while its change is pending to a later landing time (cancelling
    // the first), then — after its delay is annotated down — back to the
    // first landing time: only the last drive may land, at 2,450 ps.
    let horizon = 10_000;
    let drives = vec![
        (0, Logic::L, 0),
        (1, Logic::L, 0),
        (0, Logic::H, 2_000), // g pending H at 2,450; s twice at 2,320
        (1, Logic::H, 2_100), // g pending L at 2,550
        (1, Logic::L, 2_200), // g (delay 250) pending H at 2,450 again
        (0, Logic::L, 5_000),
    ];
    let retimes = vec![(2, 0, 0), (3, 2_150, 250)];
    let (report, co) = differential(
        |b| {
            let x = b.input("x");
            let y = b.input("y");
            let x0 = b.buf(x);
            let g = b.xor2(x, y);
            let s = b.and2(x, x0);
            let _ = s;
            vec![x, y, x0, g]
        },
        &drives,
        &retimes,
        horizon,
    );
    assert_eq!(report.compiled_gates, 3);
    let g = co.waveform(NetId::from_index(3)).expect("traced");
    assert_eq!(g.value_at(Time::from_ps(2_449)), Logic::L);
    assert_eq!(
        g.value_at(Time::from_ps(2_450)),
        Logic::H,
        "the last drive landed"
    );
    assert!(co.stats().compiled_gate_evals > 0);
}

#[test]
fn each_agenda_instant_wakes_the_engine_once() {
    // `a = NOT x` lands 400 ps after x rises at 1,000 ps; meanwhile three
    // y edges each put a 50 ps landing of `b = NOT y` ahead of it. The
    // agenda's head moves from 1,400 ps to each earlier landing and back,
    // and the engine must not ask for 1,400 ps again each time: the
    // kernel only recognises a repeat of its latest timed request, so
    // every repeat would be one more queued wake and one more pass.
    let run = |y_edges: &[(Logic, u64)]| {
        let mut drives = vec![(0, Logic::L, 0), (1, Logic::L, 0), (0, Logic::H, 1_000)];
        drives.extend(y_edges.iter().map(|&(v, at)| (1, v, at)));
        let (report, co) = differential(
            |b| {
                let x = b.input("x");
                let y = b.input("y");
                let na = b.inv(x);
                let nb = b.inv(y);
                vec![x, y, na, nb]
            },
            &drives,
            &[(2, 0, 400), (3, 0, 50)],
            5_000,
        );
        assert_eq!(report.compiled_gates, 2);
        co.stats().compiled_edge_evals
    };
    let quiet = run(&[]);
    let busy = run(&[(Logic::H, 1_050), (Logic::L, 1_150), (Logic::H, 1_250)]);
    // Each y edge adds two passes, its own instant and b's landing 50 ps
    // later, and nothing at 1,400 ps.
    assert_eq!(
        busy - quiet,
        6,
        "{quiet} passes without the y edges, {busy} with"
    );
}

#[test]
fn flop_capture_corners_agree() {
    // The capture rules both schedulers share, one corner per clock
    // edge (edges every 2,000 ps from 1,000 ps). The ETDFF sees an
    // undriven (Z) enable, then H, a released (Z) data pin, L, an X
    // enable, and finally an enable that drops 50 ps after a capturing
    // edge — a hold violation raised by the enable pin, not the data.
    // The word register captures, sees an X enable, recaptures, then
    // takes a setup violation on two bits (reported once, for the
    // middle bit, the first offender in LSB order) and a released
    // enable.
    use Logic::{H, L, X, Z};
    let horizon = 14_000;
    let mut drives = clock_edges(0, 2_000, horizon);
    drives.extend([
        (1, H, 1_500),
        (2, H, 1_500),
        (2, Z, 3_500),
        (2, L, 5_500),
        (1, X, 7_500),
        (1, H, 9_500),
        (2, H, 9_500),
        (1, L, 11_050),
        (3, H, 0),
        (4, H, 0),
        (5, L, 0),
        (6, H, 0),
        (3, X, 1_500),
        (3, H, 3_500),
        (6, L, 6_850),
        (5, H, 6_900),
        (3, Z, 7_500),
    ]);
    let (report, co) = differential(
        |b| {
            let clk = b.input("clk");
            let en = b.input("en");
            let d = b.input("d");
            let wen = b.input("wen");
            let w = [b.input("w0"), b.input("w1"), b.input("w2")];
            let q = b.etdff(clk, en, d, L);
            let r = b.register(clk, Some(wen), &w);
            let _ = (q, r);
            vec![clk, en, d, wen, w[0], w[1], w[2]]
        },
        &drives,
        &[],
        horizon,
    );
    assert_eq!(report.compiled_flops, 2, "both flops compile");
    let q = co.waveform(NetId::from_index(7)).expect("traced");
    let at = |ps: u64| q.value_at(Time::from_ps(ps));
    assert_eq!(
        [
            at(2_000),
            at(4_000),
            at(6_000),
            at(8_000),
            at(10_000),
            at(12_000)
        ],
        [X, H, X, L, X, H],
        "Z enable, capture, Z data, capture, X enable, capture"
    );
    let word = |ps: u64| -> Vec<Logic> {
        (8..11)
            .map(|i| {
                let w = co.waveform(NetId::from_index(i)).expect("traced");
                w.value_at(Time::from_ps(ps))
            })
            .collect()
    };
    assert_eq!(word(2_000), [H, L, H]);
    assert_eq!(word(4_000), [X, X, X], "X enable");
    assert_eq!(word(6_000), [H, L, H]);
    assert_eq!(word(8_000), [H, H, L]);
    assert_eq!(word(10_000), [X, X, X], "Z enable");
    let log: Vec<String> = co.violations().iter().map(|v| v.message.clone()).collect();
    assert_eq!(
        log,
        [
            "data bit changed 0.100ns before edge",
            "data changed 0.050ns after edge (hold 0.100ns)",
        ]
    );
}
