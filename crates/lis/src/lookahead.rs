//! Static soundness audit of the sharded kernel's lookahead claims.
//!
//! [`run_chain_sharded`](crate::run_chain_sharded) cuts a chain at its
//! boundary designs and lets each shard promise its neighbours "no
//! event on this cut before the next clock-edge launch landing". Those
//! promises are *claims about netlists*: the backward cut claims the
//! boundary design's `stop_out` moves exactly `clock-to-Q` after the
//! upstream clock edge, the forward cut claims the tail relay station's
//! `out_valid`/`out_data` move exactly [`RS_CQ`] after its edge. If a
//! claim ever overstated the real contamination delay — a combinational
//! path sneaking onto the cut, a flop re-clocked onto the wrong domain,
//! a buffer inserted after the launch flop — the null-message protocol
//! would grant a neighbour permission to simulate past an event it had
//! not yet received, and the merge would silently diverge.
//!
//! This module closes that gap statically. [`audit_chain_lookahead`]
//! re-plans the same cuts as the sharded runner, elaborates each
//! boundary design as a shard's [`ChainBuilder`](crate::ChainBuilder)
//! does (same builder, same delays, same ideal metastability model —
//! nothing runs), reads the claim through the runner's own
//! `stop_launch_delay`, and proves with the min-delay analysis of
//! [`mtf_timing::Sta`] that every claimed launch delay equals the
//! netlist's true launch window:
//!
//! * **backward cuts** (gate-level designs): `stop_out` must have a
//!   single edge-triggered driver clocked directly by the upstream
//!   clock, and [`Sta::launch_window`] on it must be exactly
//!   `(claimed, claimed)` — the claim is not merely conservative but
//!   *exact*, which is what makes the sharded merge byte-identical;
//! * **backward cuts** (behavioural `sync_rs`): no netlist driver
//!   exists to time, so the audit pins the claim to the behavioural
//!   relay contract ([`RS_CQ`] after the edge — the invariant
//!   `mtf_core::SyncRelayStation` maintains by construction);
//! * **forward cuts**: the exported nets are behavioural relay-station
//!   outputs, audited against the same [`RS_CQ`] contract;
//! * **hold**: for every gate-level boundary design, the same-edge
//!   min-delay check ([`Sta::hold_slack`]) must be non-negative in both
//!   domains — a hold race inside a boundary design would invalidate
//!   the "registered cut" premise itself.
//!
//! The audit is cut-complete: it walks **every** internal boundary of
//! **every** shard plan it is given, so `tests/lookahead_soundness.rs`
//! can sweep the 64-domain ladder at all shard counts and know no cut
//! was sampled away.

use std::collections::HashMap;
use std::fmt;

use mtf_core::design::DesignRegistry;
use mtf_core::{MixedTimingDesign, RS_CQ};
use mtf_gates::{CellDelays, Netlist};
use mtf_sim::{Backend, MetaModel, NetId, Simulator, Time};
use mtf_timing::Sta;

use crate::build_stream_design;
use crate::chain::ChainSpec;
use crate::shard::plan_chain_shards;

/// The verdict on one cut signal's claimed launch delay.
#[derive(Clone, Debug)]
pub struct CutAudit {
    /// Index of the boundary design the cut runs through.
    pub boundary: usize,
    /// Registry name of that design.
    pub design: String,
    /// `"forward"` (valid/data, downstream) or `"backward"` (stop,
    /// upstream).
    pub direction: &'static str,
    /// The launch delay the sharded runner would claim for this cut, in
    /// picoseconds (what the runner puts in the cut's `LinkLaunch`).
    pub claimed_ps: u64,
    /// The netlist's true launch window `(earliest, latest)` in
    /// picoseconds — `None` for behavioural contracts with no gates to
    /// time.
    pub window_ps: Option<(u64, u64)>,
    /// Whether the claim is proven sound (and exact).
    pub sound: bool,
    /// How the verdict was reached, one sentence.
    pub detail: String,
}

impl fmt::Display for CutAudit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "b{} {} {}: claimed {} ps, {} — {}",
            self.boundary,
            self.design,
            self.direction,
            self.claimed_ps,
            if self.sound { "sound" } else { "UNSOUND" },
            self.detail
        )
    }
}

/// The same-edge min-delay verdict on one boundary design in one domain.
#[derive(Clone, Debug)]
pub struct HoldAudit {
    /// Registry name of the design.
    pub design: String,
    /// `"put"` or `"get"` — which clock domain was checked.
    pub domain: &'static str,
    /// Worst contamination-minus-hold margin, in picoseconds.
    pub slack_ps: i64,
    /// Capture pins checked.
    pub checked: usize,
}

/// Everything [`audit_chain_lookahead`] proves about one shard plan.
#[derive(Clone, Debug)]
pub struct LookaheadAudit {
    /// Effective shard count (`min(requested, segments)`).
    pub shards: usize,
    /// One forward + one backward verdict per internal cut, in flow
    /// order.
    pub cuts: Vec<CutAudit>,
    /// Hold margins of every distinct gate-level boundary design, per
    /// clocked domain.
    pub holds: Vec<HoldAudit>,
}

impl LookaheadAudit {
    /// True when every cut claim is proven and no hold margin is
    /// negative.
    pub fn is_sound(&self) -> bool {
        self.cuts.iter().all(|c| c.sound) && self.holds.iter().all(|h| h.slack_ps >= 0)
    }

    /// The failures, rendered — empty iff [`is_sound`](Self::is_sound).
    pub fn failures(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .cuts
            .iter()
            .filter(|c| !c.sound)
            .map(|c| c.to_string())
            .collect();
        out.extend(
            self.holds
                .iter()
                .filter(|h| h.slack_ps < 0)
                .map(|h| format!("{} {} hold slack {} ps", h.design, h.domain, h.slack_ps)),
        );
        out
    }
}

/// Proves that `net` in `netlist` launches **exactly** `claimed` after
/// every rising edge of `clock`: it must have one edge-triggered driver
/// clocked directly by `clock`, and the min-delay launch window must be
/// the degenerate `(claimed, claimed)`. This is the primitive behind
/// every gate-level cut verdict; it is public so negative tests can
/// prove a wrong claim (e.g. `claimed + 1 ps`) is rejected.
///
/// # Errors
///
/// A one-sentence reason when the claim is not proven.
pub fn registered_launch_exact(
    netlist: &Netlist,
    clock: NetId,
    net: NetId,
    claimed: Time,
) -> Result<(), String> {
    let drivers: Vec<_> = netlist.drivers_of(net).collect();
    let (_, inst) = match drivers.as_slice() {
        [one] => *one,
        [] => return Err("no netlist driver — behavioural net".into()),
        more => return Err(format!("{} drivers on the cut net", more.len())),
    };
    if !inst.kind.is_edge_triggered() {
        return Err(format!("driver {} is not edge-triggered", inst.name));
    }
    if inst.clock != Some(clock) {
        return Err(format!(
            "driver {} is not clocked directly by the claimed domain's clock",
            inst.name
        ));
    }
    let (lo, hi) = Sta::new(netlist)
        .launch_window(clock, net)
        .ok_or("no launch window (cyclic or unlaunched)")?;
    if (lo, hi) != (claimed, claimed) {
        return Err(format!(
            "claimed {} ps but the netlist's launch window is ({}, {}) ps",
            claimed.as_ps(),
            lo.as_ps(),
            hi.as_ps()
        ));
    }
    Ok(())
}

/// One boundary design, elaborated standalone as a shard's
/// [`ChainBuilder`](crate::ChainBuilder) would (same builder,
/// [`CellDelays::hp06`], [`MetaModel::ideal`], nothing runs), with its
/// claimed backward-cut delay from [`stop_launch_delay`].
struct BoundaryElab {
    netlist: Netlist,
    clk_put: NetId,
    clk_get: NetId,
    stop_out: NetId,
    claimed: Time,
}

fn elaborate_boundary(design: &'static dyn MixedTimingDesign, spec: &ChainSpec) -> BoundaryElab {
    let mut sim = Simulator::new(0);
    let clk_put = sim.net("clk_put");
    let clk_get = sim.net("clk_get");
    let (ports, netlist) = build_stream_design(
        &mut sim,
        design,
        spec.params(),
        clk_put,
        clk_get,
        CellDelays::hp06(),
        MetaModel::ideal(),
        Backend::Event,
    )
    .expect("validated stream design");
    let stop_out = ports.stop_out.expect("stream put");
    BoundaryElab {
        claimed: stop_launch_delay(&netlist, stop_out),
        netlist,
        clk_put,
        clk_get,
        stop_out,
    }
}

/// The launch delay a backward cut claims for a boundary design's
/// `stop_out`, registered on the upstream clock: the clock-to-Q of its
/// netlist driver (the synchronizer flop of a gate-level design), else
/// [`RS_CQ`] — the behavioural `sync_rs` has no netlist driver and
/// launches `RS_CQ` after its edge.
pub(crate) fn stop_launch_delay(netlist: &Netlist, stop_out: NetId) -> Time {
    netlist
        .drivers_of(stop_out)
        .next()
        .map_or(RS_CQ, |(id, _)| netlist.delay_of(id))
}

/// Statically audits every cut the sharded runner would make when asked
/// for `requested` shards of `spec`: re-plans the partition with
/// [`plan_chain_shards`], elaborates each cut's boundary design, and
/// proves each claimed launch delay against the netlist (see the module
/// docs for the per-direction obligations). Also checks every distinct
/// gate-level boundary design for same-edge hold races in both domains.
///
/// # Errors
///
/// `Err` when `spec` itself does not validate. An *unsound claim* is
/// not an `Err` — it is reported in the returned audit, so a test can
/// print all failures at once.
pub fn audit_chain_lookahead(spec: &ChainSpec, requested: usize) -> Result<LookaheadAudit, String> {
    spec.validate()?;
    let groups = plan_chain_shards(spec, requested);
    let mut elabs: HashMap<String, BoundaryElab> = HashMap::new();
    let mut cuts = Vec::new();

    for group in groups.iter().skip(1) {
        let bd = group.start - 1;
        let name = spec.boundaries[bd].clone();
        let design: &'static dyn MixedTimingDesign =
            DesignRegistry::get(&name).ok_or_else(|| format!("unknown design {name}"))?;
        let elab = elabs
            .entry(name.clone())
            .or_insert_with(|| elaborate_boundary(design, spec));

        // Forward cut: the upstream tail relay station's valid/data.
        // Relay stations are behavioural; their contract drives outputs
        // exactly RS_CQ after each rising edge, and the sharded runner
        // claims exactly RS_CQ.
        cuts.push(CutAudit {
            boundary: bd,
            design: name.clone(),
            direction: "forward",
            claimed_ps: RS_CQ.as_ps(),
            window_ps: None,
            sound: RS_CQ > Time::ZERO,
            detail: "behavioural SyncRelayStation contract: outputs move exactly RS_CQ \
                     after the rising edge"
                .into(),
        });

        // Backward cut: the boundary design's stop_out on the upstream
        // clock.
        let claimed = elab.claimed;
        let gate_level = elab.netlist.drivers_of(elab.stop_out).next().is_some();
        let (sound, window_ps, detail) = if gate_level {
            match registered_launch_exact(&elab.netlist, elab.clk_put, elab.stop_out, claimed) {
                Ok(()) => {
                    let w = Sta::new(&elab.netlist)
                        .launch_window(elab.clk_put, elab.stop_out)
                        .map(|(lo, hi)| (lo.as_ps(), hi.as_ps()));
                    (
                        true,
                        w,
                        "single put-clocked flop drives the cut; launch window equals \
                         the claim exactly"
                            .to_string(),
                    )
                }
                Err(why) => (false, None, why),
            }
        } else if claimed == RS_CQ {
            (
                true,
                None,
                "behavioural design: stop_out launches RS_CQ after its clock edge by \
                 the relay contract"
                    .to_string(),
            )
        } else {
            (
                false,
                None,
                format!(
                    "behavioural design but claimed {} ps ≠ RS_CQ {} ps",
                    claimed.as_ps(),
                    RS_CQ.as_ps()
                ),
            )
        };
        cuts.push(CutAudit {
            boundary: bd,
            design: name,
            direction: "backward",
            claimed_ps: claimed.as_ps(),
            window_ps,
            sound,
            detail,
        });
    }

    // Hold audit: every distinct gate-level boundary design, both
    // domains. Behavioural designs have no gates to race.
    let mut holds = Vec::new();
    let mut names: Vec<&String> = elabs.keys().collect();
    names.sort();
    for name in names {
        let elab = &elabs[name];
        if elab.netlist.is_empty() {
            continue;
        }
        let sta = Sta::new(&elab.netlist);
        for (domain, clk) in [("put", elab.clk_put), ("get", elab.clk_get)] {
            if let Some(h) = sta.hold_slack(clk) {
                holds.push(HoldAudit {
                    design: name.clone(),
                    domain,
                    slack_ps: h.slack_ps,
                    checked: h.checked,
                });
            }
        }
    }

    Ok(LookaheadAudit {
        shards: groups.len(),
        cuts,
        holds,
    })
}
