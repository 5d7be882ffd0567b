//! End-to-end determinism: two identically seeded runs of the same
//! mixed-clock transfer must agree on *everything observable* — delivered
//! data, per-net toggle counts, the violation log, and the kernel's event
//! count.
//!
//! This pins the event-kernel contract (see `crates/sim/src/event.rs`):
//! the timing wheel pops in exactly `(time, seq)` order, all randomness
//! flows from the simulator's single seeded RNG, and neither wake
//! coalescing nor the delta ring may change the order components observe.

use mtf_bench::harness::{Drain, Feed, Harness};
use mtf_core::design::MIXED_CLOCK;
use mtf_core::FifoParams;
use mtf_gates::CellDelays;
use mtf_sim::{MetaModel, RaceHazard, RaceHazardKind, Time};

/// Everything observable about one run, for whole-value comparison.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    delivered: Vec<u64>,
    toggles: Vec<(String, u64)>,
    violations: Vec<String>,
    events: u64,
}

/// One plesiochronous transfer under a deliberately harsh metastability
/// model (so the RNG actually gets consulted), summarised as a comparable
/// fingerprint.
fn fingerprint(seed: u64) -> Fingerprint {
    fingerprint_opts(seed, false).0
}

/// As [`fingerprint`], optionally with the delta-race sanitizer enabled;
/// also returns the hazards the sanitizer recorded.
fn fingerprint_opts(seed: u64, sanitize: bool) -> (Fingerprint, Vec<RaceHazard>) {
    let harsh = MetaModel {
        window: Time::from_ps(400),
        tau: Time::from_ps(2_500),
        max_settle: Time::from_ps(25_000),
    };
    let mut h = Harness::with_model(seed, CellDelays::hp06(), harsh);
    if sanitize {
        h.sim.enable_race_sanitizer();
    }
    h.clock_nets_both()
        .gen_put(Time::from_ps(9_973))
        .gen_get_phased(Time::from_ps(10_007), Time::from_ps(seed % 9_000));
    h.build(&MIXED_CLOCK, FifoParams::with_sync_stages(8, 8, 2));
    let items: Vec<u64> = (0..40).collect();
    let feed = Feed::Saturate {
        items: items.clone(),
        bundling: Time::ZERO,
        phase: Time::ZERO,
    };
    let _pj = h.feed("prod", feed);
    let n = items.len() as u64;
    let cj = h.drain(
        "cons",
        Drain::Consume {
            n,
            phase: Time::ZERO,
        },
    );
    let sim = &mut h.sim;
    sim.run_until(Time::from_us(5)).expect("simulation runs");

    let toggles: Vec<(String, u64)> = (0..sim.net_count())
        .map(|i| {
            let n = mtf_sim::NetId::from_index(i);
            (sim.net_name(n).to_string(), sim.toggles(n))
        })
        .collect();
    let violations: Vec<String> = sim.violations().iter().map(|v| v.to_string()).collect();
    let fp = Fingerprint {
        delivered: cj.values(),
        toggles,
        violations,
        events: sim.stats().events_processed,
    };
    (fp, sim.race_hazards())
}

#[test]
fn identical_seeds_reproduce_bit_for_bit() {
    let a = fingerprint(11);
    let b = fingerprint(11);
    assert_eq!(
        a.delivered, b.delivered,
        "delivered data differs between identical runs"
    );
    assert_eq!(
        a.toggles, b.toggles,
        "toggle counts differ between identical runs"
    );
    assert_eq!(
        a.violations, b.violations,
        "violation logs differ between identical runs"
    );
    assert_eq!(
        a.events, b.events,
        "event counts differ between identical runs"
    );
}

#[test]
fn sanitized_run_is_passive_and_race_free() {
    // The delta-race sanitizer must be purely observational: a sanitized
    // run fingerprints identically to a plain run, and the gate-level
    // mixed-clock transfer — where every cell has a nonzero propagation
    // delay — must show no stale same-instant reads. (Write/write records
    // are tolerated: a tri-state handoff on the shared get-data bus may
    // legitimately land two contribution changes in one instant.)
    let plain = fingerprint(11);
    let (sanitized, hazards) = fingerprint_opts(11, true);
    assert_eq!(
        plain, sanitized,
        "enabling the sanitizer changed observable behaviour"
    );
    let stale: Vec<&RaceHazard> = hazards
        .iter()
        .filter(|h| h.kind == RaceHazardKind::ReadThenWrite)
        .collect();
    assert!(
        stale.is_empty(),
        "stale same-instant reads in the mixed-clock transfer: {stale:#?}"
    );
}

#[test]
fn different_seeds_actually_diverge() {
    // Sanity check that the fingerprint is sensitive at all: under the
    // harsh metastability model, different seeds shift the get-clock
    // phase (by `seed % 9000` ps — pick seeds far apart) and the
    // settling draws, so *something* observable moves.
    let a = fingerprint(11);
    let b = fingerprint(7_477);
    assert_ne!(
        a, b,
        "fingerprint is insensitive to the seed — the test proves nothing"
    );
}
