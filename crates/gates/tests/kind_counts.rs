//! Per-kind evaluation counts ([`Simulator::enable_kind_counts`]) on a
//! small design: two toggle flops (a DFF and an ETDFF with its enable
//! tied high, each fed back through an inverter) and a 2-bit register
//! that samples both. Every rise makes each flop capture and drive a new
//! value, so its rising evaluations queue a drive; its data inputs then
//! change between rises, outside the flops' hold windows, and wake
//! nothing (the pins are sampled, see `Simulator::add_sampling_component`).
//!
//! A second design pins the tri-state drivers and C-elements, whose kind
//! names the cell stores rather than its type: a single-bit (`TRIBUF`)
//! and a word (`TRIWORD`) driver, a symmetric (`CELEM`) and an asymmetric
//! (`ACELEM`) C-element.

use mtf_gates::Builder;
use mtf_sim::{ClockGen, KindCount, Logic, Simulator, Time};

/// Clock rises up to the 20 ns horizon (at 2, 4, …, 20 ns).
const RISES: u64 = 10;

fn counts() -> Vec<KindCount> {
    let mut sim = Simulator::new(1);
    sim.enable_kind_counts();
    let clk = sim.net("clk");
    ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(2));
    let mut b = Builder::new(&mut sim);
    let d = b.input("d");
    let q = b.dff(clk, d, Logic::L);
    b.inv_onto(q, d);
    let en = b.hi();
    let e = b.input("e");
    let eq = b.etdff(clk, en, e, Logic::L);
    b.inv_onto(eq, e);
    b.register(clk, None, &[q, eq]);
    b.finish();
    sim.run_until(Time::from_ns(20)).expect("toggle flops run");
    sim.kind_counts()
}

fn count(kind: &str, [evals, idle, edges, idle_edges]: [u64; 4]) -> KindCount {
    KindCount {
        kind: kind.into(),
        evals,
        idle,
        edges,
        idle_edges,
    }
}

#[test]
fn kind_counts_are_pinned() {
    assert_eq!(
        counts(),
        [
            count("DFF", [11, 0, 10, 0]),
            count("ETDFF", [11, 0, 10, 0]),
            count("INV", [22, 2, 0, 0]),
            count("REG", [11, 0, 10, 0]),
            count("clock", [20, 0, 0, 0]),
        ]
    );
}

/// The toggle DFF's `q` and the clock feed a symmetric and an asymmetric
/// C-element; one single-bit driver per clock phase puts one of them on a
/// shared bit, and a word driver puts both on a 2-bit bus while `q` is
/// high.
fn cell_counts() -> Vec<KindCount> {
    let mut sim = Simulator::new(1);
    sim.enable_kind_counts();
    let clk = sim.net("clk");
    ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(2));
    let mut b = Builder::new(&mut sim);
    let d = b.input("d");
    let q = b.dff(clk, d, Logic::L);
    b.inv_onto(q, d);
    let c = b.celement(&[clk, q], Logic::L);
    let a = b.acelement(&[clk], &[q], Logic::L);
    let bit = b.input("bit");
    b.tribuf_onto(clk, c, bit);
    let nclk = b.inv(clk);
    b.tribuf_onto(nclk, a, bit);
    let word = b.input_bus("word", 2);
    b.tri_word_onto(q, &[c, a], &word);
    b.finish();
    sim.run_until(Time::from_ns(20)).expect("cells run");
    sim.kind_counts()
}

#[test]
fn tri_state_and_c_element_counts_are_pinned() {
    assert_eq!(
        cell_counts(),
        [
            count("ACELEM", [30, 6, 0, 0]),
            count("CELEM", [25, 15, 0, 0]),
            count("DFF", [11, 0, 10, 0]),
            count("INV", [32, 2, 0, 0]),
            count("TRIBUF", [68, 16, 0, 0]),
            count("TRIWORD", [30, 6, 0, 0]),
            count("clock", [20, 0, 0, 0]),
        ]
    );
}

/// Each flop evaluates once at power-on and once per rise (an edge
/// evaluation). A change of its data input in between would be an idle
/// evaluation, but it lands outside the hold window and wakes nothing.
#[test]
fn only_the_flops_data_wakes_are_idle() {
    for c in counts() {
        if matches!(c.kind.as_str(), "DFF" | "ETDFF" | "REG") {
            assert_eq!((c.edges, c.idle_edges), (RISES, 0), "{}", c.kind);
            let data_wakes = c.evals - c.edges - 1;
            assert_eq!(c.idle, data_wakes, "{}", c.kind);
            assert_eq!(data_wakes, 0, "{}", c.kind);
        }
    }
}

/// Counting is passive: the kernel's counters are those of a run without
/// it.
#[test]
fn counting_changes_no_kernel_counter() {
    let run = |count: bool| {
        let mut sim = Simulator::new(1);
        if count {
            sim.enable_kind_counts();
        }
        let clk = sim.net("clk");
        ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(2));
        let mut b = Builder::new(&mut sim);
        let d = b.input("d");
        let q = b.dff(clk, d, Logic::L);
        b.inv_onto(q, d);
        b.finish();
        sim.run_until(Time::from_ns(20)).expect("toggle flop runs");
        sim.stats()
    };
    assert_eq!(run(true), run(false));
}
