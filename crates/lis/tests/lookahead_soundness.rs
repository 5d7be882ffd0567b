//! Static soundness of the sharded kernel's lookahead on the 64-domain
//! plesiochronous ladder — the same topology `mtf-bench --bin sharded`
//! measures. For every shard count the bench exercises (and several it
//! does not), every cut's claimed launch delay must be proven exact
//! against the boundary design's netlist, and no boundary design may
//! harbour a same-edge hold race. A negative control proves the
//! primitive actually rejects a wrong claim.

use mtf_core::{DesignRegistry, FifoParams, MixedTimingDesign, RS_CQ};
use mtf_gates::CellDelays;
use mtf_lis::{audit_chain_lookahead, build_stream_design, registered_launch_exact, ChainSpec};
use mtf_sim::{Backend, MetaModel, Simulator, Time};

#[test]
fn every_cut_of_the_64_domain_ladder_is_proven_sound() {
    let spec = ChainSpec::relay_ladder(64);
    for shards in [2, 4, 8, 16, 32, 64] {
        let audit = audit_chain_lookahead(&spec, shards).expect("valid spec");
        assert_eq!(audit.shards, shards);
        // One forward + one backward verdict per internal cut.
        assert_eq!(audit.cuts.len(), 2 * (shards - 1), "cut-complete");
        assert!(
            audit.is_sound(),
            "unsound lookahead at {shards} shards:\n{}",
            audit.failures().join("\n")
        );
        // The gate-level backward cuts must be proven by an exact
        // window, not merely asserted.
        for cut in audit.cuts.iter().filter(|c| c.direction == "backward") {
            let (lo, hi) = cut.window_ps.expect("mixed_clock_rs is gate-level");
            assert_eq!(lo, cut.claimed_ps);
            assert_eq!(hi, cut.claimed_ps);
        }
        // Both domains of the (single, cached) boundary design get a
        // hold verdict with real pins behind it.
        assert_eq!(audit.holds.len(), 2);
        assert!(audit.holds.iter().all(|h| h.checked > 0));
    }
}

#[test]
fn a_single_shard_has_no_cuts_to_audit() {
    let audit = audit_chain_lookahead(&ChainSpec::relay_ladder(8), 1).expect("valid spec");
    assert_eq!(audit.shards, 1);
    assert!(audit.cuts.is_empty());
    assert!(audit.is_sound());
}

#[test]
fn behavioural_sync_rs_boundaries_audit_by_contract() {
    // sync_rs is single-clock: both segments must share one domain.
    let spec = ChainSpec::new(8, 4)
        .segment(10_000, 0, 2)
        .boundary("sync_rs")
        .segment(10_000, 0, 2);
    let audit = audit_chain_lookahead(&spec, 2).expect("valid spec");
    assert!(audit.is_sound(), "{}", audit.failures().join("\n"));
    let back = audit
        .cuts
        .iter()
        .find(|c| c.direction == "backward")
        .expect("one cut");
    assert_eq!(back.claimed_ps, RS_CQ.as_ps());
    assert!(back.window_ps.is_none(), "no gates to time");
    // And no hold entries: a behavioural design has no capture pins.
    assert!(audit.holds.is_empty());
}

/// Negative control: the proof primitive must reject a claim that
/// overstates the launch delay by even 1 ps — that is exactly the bug
/// class (granting a neighbour too much lookahead) the audit exists to
/// catch.
#[test]
fn an_inflated_claim_is_rejected() {
    let design: &'static dyn MixedTimingDesign =
        DesignRegistry::get("mixed_clock_rs").expect("registered");
    let mut sim = Simulator::new(0);
    let clk_put = sim.net("clk_put");
    let clk_get = sim.net("clk_get");
    let (ports, netlist) = build_stream_design(
        &mut sim,
        design,
        FifoParams::new(4, 8),
        clk_put,
        clk_get,
        CellDelays::hp06(),
        MetaModel::ideal(),
        Backend::Event,
    )
    .expect("stream design");
    let stop = ports.stop_out.expect("stream put");
    let claimed = netlist
        .drivers_of(stop)
        .next()
        .map(|(id, _)| netlist.delay_of(id))
        .expect("gate-level");

    registered_launch_exact(&netlist, clk_put, stop, claimed).expect("true claim proven");
    let inflated = claimed + Time::from_ps(1);
    let err = registered_launch_exact(&netlist, clk_put, stop, inflated)
        .expect_err("inflated claim must be rejected");
    assert!(err.contains("launch window"), "{err}");
    // Claiming the launch on the wrong clock must fail too.
    registered_launch_exact(&netlist, clk_get, stop, claimed)
        .expect_err("wrong-domain claim must be rejected");
}
