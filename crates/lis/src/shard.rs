//! Domain-sharded parallel chain simulation.
//!
//! [`run_chain`](crate::run_chain) elaborates a whole [`ChainSpec`] into
//! one simulator. This module cuts the same chain at its relay-station
//! boundaries into contiguous **shards**, runs each shard on its own
//! worker thread with its own timing wheel (via
//! [`mtf_sim::run_sharded`]), and exchanges only the boundary stream
//! nets (`valid`/`data` forward, `stop` back) over bounded channels with
//! conservative null-message lookahead.
//!
//! ## Where the cuts go
//!
//! A chain is `segment₀ | design₀ | segment₁ | design₁ | …` — every
//! boundary design couples two relay segments through registered stream
//! signals only:
//!
//! * forward, the upstream segment's tail-station `out_valid`/`out_data`
//!   (driven `RS_CQ` after a rising edge of the upstream clock),
//! * backward, the design's `stop_out` (a flop output clocked by the
//!   upstream-domain clock — gate-level designs register it through the
//!   synchronizer chain, the behavioural `sync_rs` drives it `RS_CQ`
//!   after its clock edge).
//!
//! Because both directions are *registered* and every cut signal passes
//! through a 1 ps repeater before anything samples it, the cut is a
//! legal conservative boundary: a shard granted "no more events with
//! `t < G`" can safely simulate to `G` (see `mtf_sim::shard` for the
//! frontier-instant argument). The lookahead each shard extends is the
//! time to the *next clock-edge launch landing* on the cut — never less
//! than the remaining fraction of the upstream clock period plus the
//! register's clock-to-Q delay. The protocol's tolerance budget is much
//! larger (the paper's relay stations absorb `sync_stages` cycles of
//! stale `stop` information by construction), but the exact next-landing
//! bound is what makes the merge *byte-identical*, not merely correct.
//!
//! ## Determinism
//!
//! The sharded run must reproduce the single-shard run exactly, for any
//! shard count. Four mechanisms make that hold:
//!
//! * **Lockstep rounds** — each shard consumes exactly one message per
//!   in-link per round, so the sequence of targets, the batches of
//!   boundary events, and their `(time, link, pin)` application order
//!   are pure functions of the shard graph — wall-clock arrival order
//!   never matters.
//! * **Replicated clocks** — a shard that needs a remote domain's clock
//!   instantiates its own [`ClockGen`](mtf_sim::ClockGen) copy
//!   (deterministic schedule, identical edges) instead of importing edges
//!   as events.
//! * **RNG-free elaboration** — gate-level boundary designs are built
//!   with [`MetaModel::ideal`] at *every* shard count (including one),
//!   so no shard ever consults its seeded RNG and per-shard RNG state
//!   cannot diverge from the single-simulator state.
//! * **One elaborator** — each shard is built by [`ChainBuilder`] on its
//!   segment range, the code that builds whole chains for
//!   [`run_chain`](crate::run_chain), so a shard creates its nets,
//!   values and components in the whole-chain order restricted to its
//!   range. This module adds only the cut I/O, the outgoing `stop`
//!   mirror and the merge.
//!
//! The merged observable state is captured as a [`ChainFingerprint`]:
//! per-net toggle counts (cut-mirror nets and replicated clocks
//! excluded; each real net counted exactly once across shards), timing
//! violations, the source/sink journals with timestamps, and the
//! per-boundary probe reports. `tests/sharded_determinism.rs` gates that
//! fingerprints at `--shards {2,4,8}` equal `--shards 1` byte for byte.

use std::ops::Range;

use mtf_core::RS_CQ;
use mtf_sim::{
    run_sharded, Backend, ClockSchedule, ExportSpec, ImportSpec, LinkDef, LinkLaunch, MetaModel,
    NetId, ShardIo, ShardPlan, ShardSpec, ShardStats, Simulator,
};

use crate::chain::{
    assemble_run, chain_horizon, journal_pairs, spawn_endpoints, BoundaryReport, ChainBuilder,
    ChainDrive, ChainRun, ChainSpec, DomainSpec,
};
use crate::connect;

/// Everything observable about a chain run, in canonical order, for
/// byte-for-byte comparison across shard counts.
///
/// Cut-mirror nets and replicated remote-domain clocks (all named with
/// an `xlink.` prefix) are excluded; every real net's toggle count
/// appears exactly once. Kernel event counts are deliberately *not*
/// part of the fingerprint — splitting one wheel into `N` changes how
/// many queue entries exist without changing a single signal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainFingerprint {
    /// `(net name, toggle count)` for every non-`xlink.` net, sorted.
    pub toggles: Vec<(String, u64)>,
    /// Rendered timing violations, sorted.
    pub violations: Vec<String>,
    /// Source journal: `(value, time in ps)` per accepted item.
    pub sent: Vec<(u64, u64)>,
    /// Sink journal: `(value, time in ps)` per delivered item.
    pub delivered: Vec<(u64, u64)>,
    /// Per-boundary probe reports, in flow order.
    pub boundaries: Vec<BoundaryReport>,
}

impl ChainFingerprint {
    /// FNV-1a digest of the canonical rendering — a compact equality
    /// witness for JSON reports.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        for (name, t) in &self.toggles {
            eat(name.as_bytes());
            eat(&t.to_le_bytes());
        }
        for v in &self.violations {
            eat(v.as_bytes());
        }
        for &(v, t) in self.sent.iter().chain(&self.delivered) {
            eat(&v.to_le_bytes());
            eat(&t.to_le_bytes());
        }
        for b in &self.boundaries {
            eat(b.design.as_bytes());
            for c in [
                b.put_accepts,
                b.put_stall_cycles,
                b.get_delivers,
                b.get_stall_cycles,
                b.max_occupancy,
            ] {
                eat(&c.to_le_bytes());
            }
        }
        h
    }
}

/// The outcome of [`run_chain_sharded`].
#[derive(Clone, Debug)]
pub struct ShardedChainRun {
    /// The merged run, identical in shape to [`run_chain`](crate::run_chain)'s.
    pub run: ChainRun,
    /// The canonical observable state (compare across shard counts).
    pub fingerprint: ChainFingerprint,
    /// Per-shard engine statistics, in shard order.
    pub shard_stats: Vec<ShardStats>,
    /// How many shards actually ran (`min(requested, segments)`).
    pub shards: usize,
}

/// Partitions a chain's segments into `requested` contiguous groups,
/// cutting only at boundary designs. Returns one segment range per
/// shard; the effective shard count is `min(requested.max(1), segments)`.
pub fn plan_chain_shards(spec: &ChainSpec, requested: usize) -> Vec<Range<usize>> {
    let s = spec.segments.len();
    let e = requested.max(1).min(s.max(1));
    (0..e)
        .map(|g| (g * s / e)..((g + 1) * s / e))
        .filter(|r| !r.is_empty())
        .collect()
}

fn schedule_of(dom: DomainSpec) -> ClockSchedule {
    ClockSchedule {
        phase: dom.phase,
        period: dom.period,
    }
}

/// Elaborates shard `g` (segments `range`) of `spec` into `sim` through
/// [`ChainBuilder`] under [`MetaModel::ideal`] (see module docs), then adds
/// what is specific to a shard: the cut I/O of the incoming boundary the
/// builder mirrored, the outgoing boundary's `stop` mirror, and the
/// finisher that reports this shard's share of the [`ChainFingerprint`].
fn build_shard(
    sim: &mut Simulator,
    spec: &ChainSpec,
    drive: &ChainDrive,
    g: usize,
    range: Range<usize>,
    backend: Backend,
) -> ShardPlan<ChainFingerprint> {
    let built = ChainBuilder::elaborate(sim, spec, range.clone(), MetaModel::ideal(), backend)
        .expect("validated");
    let mut io = ShardIo::default();

    // Incoming cut: export the boundary design's stop_out upstream,
    // import the upstream tail's valid/data onto the mirror nets.
    if let Some(cut) = &built.cut_in {
        io.exports.push(ExportSpec {
            link: 2 * (g - 1) + 1,
            nets: vec![cut.stop],
            launches: vec![LinkLaunch {
                schedule: schedule_of(spec.segments[range.start - 1].domain),
                delay: cut.stop_delay,
            }],
        });
        io.imports.push(ImportSpec {
            link: 2 * (g - 1),
            pins: cut.pins.clone(),
        });
    }

    // Outgoing cut: export the tail station's stream outputs, import the
    // next shard's stop through a mirror net.
    if range.end < spec.segments.len() {
        let bd = range.end - 1;
        let ms = sim.net(format!("xlink.b{bd}.stop"));
        let ms_drv = sim.driver(ms);
        connect(sim, ms, built.port.stop_in);
        let mut nets = vec![built.port.out_valid];
        nets.extend(built.port.out_data.iter().copied());
        io.exports.push(ExportSpec {
            link: 2 * g,
            nets,
            launches: vec![LinkLaunch {
                schedule: schedule_of(spec.segments[bd].domain),
                delay: RS_CQ,
            }],
        });
        io.imports.push(ImportSpec {
            link: 2 * g + 1,
            pins: vec![(ms_drv, ms)],
        });
    }

    let (src, sink) = spawn_endpoints(sim, &built, drive);
    ShardPlan {
        io,
        finish: Box::new(move |sim| ChainFingerprint {
            toggles: (0..sim.net_count())
                .map(NetId::from_index)
                .filter(|&net| !sim.net_name(net).starts_with("xlink."))
                .map(|net| (sim.net_name(net).to_string(), sim.toggles(net)))
                .collect(),
            violations: sim.violations().iter().map(|v| v.to_string()).collect(),
            sent: journal_pairs(src.as_ref()),
            delivered: journal_pairs(sink.as_ref()),
            boundaries: built.boundary_reports(),
        }),
    }
}

/// Runs `spec` under `drive` split across up to `shards` worker threads,
/// one per contiguous segment group, and merges the results. The merged
/// [`ChainFingerprint`] is byte-identical for every shard count
/// (`run_chain_sharded(spec, drive, 1)` is the reference; the engine
/// runs a single unlinked shard on the plain `run_until` path in that
/// case, so kernel statistics also match a dedicated simulator).
///
/// Note this entry point is *not* [`run_chain`](crate::run_chain):
/// boundary designs are elaborated with [`MetaModel::ideal`] so that no
/// random metastability resolution occurs (see module docs) — the
/// single-threaded baseline to compare against is this function at
/// `shards == 1`.
pub fn run_chain_sharded(
    spec: &ChainSpec,
    drive: &ChainDrive,
    shards: usize,
) -> Result<ShardedChainRun, String> {
    run_chain_sharded_with_backend(spec, drive, shards, Backend::Event)
}

/// [`run_chain_sharded`] with an explicit execution [`Backend`] for the
/// gate-level netlists in every shard. Fingerprints are byte-identical
/// across backends *and* shard counts: the compiled engine lands every
/// transition at the instant the event-driven cell would have, and cut
/// launches are scheduled from the netlist, not from the backend.
pub fn run_chain_sharded_with_backend(
    spec: &ChainSpec,
    drive: &ChainDrive,
    shards: usize,
    backend: Backend,
) -> Result<ShardedChainRun, String> {
    spec.validate()?;
    let groups = plan_chain_shards(spec, shards);
    let e = groups.len();

    let mut links = Vec::new();
    for g in 1..e {
        // Forward link 2(g-1): upstream tail valid/data. Backward link
        // 2(g-1)+1: the boundary design's stop_out.
        links.push(LinkDef { from: g - 1, to: g });
        links.push(LinkDef { from: g, to: g - 1 });
    }

    let shard_specs = groups
        .iter()
        .enumerate()
        .map(|(g, range)| {
            let (spec, drive, range) = (spec.clone(), drive.clone(), range.clone());
            ShardSpec {
                seed: drive.seed,
                setup: Box::new(move |sim| build_shard(sim, &spec, &drive, g, range, backend)),
            }
        })
        .collect();
    let results = run_sharded(shard_specs, &links, chain_horizon(spec, drive))
        .map_err(|err| format!("{err:?}"))?;

    // Shards hold contiguous segment ranges in flow order, and exactly one
    // holds the source (sink), so concatenation merges every part.
    let mut fingerprint = ChainFingerprint {
        toggles: Vec::new(),
        violations: Vec::new(),
        sent: Vec::new(),
        delivered: Vec::new(),
        boundaries: Vec::new(),
    };
    let mut shard_stats = Vec::with_capacity(e);
    for (part, stats) in results {
        fingerprint.toggles.extend(part.toggles);
        fingerprint.violations.extend(part.violations);
        fingerprint.sent.extend(part.sent);
        fingerprint.delivered.extend(part.delivered);
        fingerprint.boundaries.extend(part.boundaries);
        shard_stats.push(stats);
    }
    fingerprint.toggles.sort();
    fingerprint.violations.sort();
    Ok(ShardedChainRun {
        run: assemble_run(
            &fingerprint.sent,
            &fingerprint.delivered,
            fingerprint.boundaries.clone(),
        ),
        fingerprint,
        shard_stats,
        shards: e,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::verification_stalls;

    fn two_domain_spec() -> ChainSpec {
        ChainSpec::new(8, 4)
            .segment(9973, 0, 2)
            .boundary("mixed_clock_rs")
            .segment(10_007, 450, 2)
    }

    #[test]
    fn plan_covers_all_segments_contiguously() {
        let mut spec = ChainSpec::new(8, 4);
        for i in 0..5u64 {
            if i > 0 {
                spec = spec.boundary("mixed_clock_rs");
            }
            spec = spec.segment(10_000 + 13 * i, 0, 1);
        }
        for req in [0, 1, 2, 3, 5, 9] {
            let groups = plan_chain_shards(&spec, req);
            assert_eq!(groups.first().map(|r| r.start), Some(0));
            assert_eq!(groups.last().map(|r| r.end), Some(5));
            for w in groups.windows(2) {
                assert_eq!(w[0].end, w[1].start, "gap or overlap in {groups:?}");
            }
            assert!(groups.len() <= req.max(1));
        }
    }

    #[test]
    fn two_shards_reproduce_single_shard_fingerprint() {
        let spec = two_domain_spec();
        let drive = ChainDrive::clean(11, 12, 8);
        let one = run_chain_sharded(&spec, &drive, 1).expect("1 shard");
        let two = run_chain_sharded(&spec, &drive, 2).expect("2 shards");
        assert_eq!(two.shards, 2);
        assert_eq!(one.run.delivered, drive.items, "chain must be lossless");
        assert_eq!(one.fingerprint, two.fingerprint);
        assert_eq!(one.fingerprint.digest(), two.fingerprint.digest());
        let s = &two.shard_stats;
        assert!(
            s.iter().all(|st| st.rounds > 1),
            "cut shards must round-trip"
        );
        assert!(
            s.iter().any(|st| st.null_messages > 0),
            "lookahead must flow"
        );
    }

    #[test]
    fn stalled_sink_keeps_fingerprints_identical() {
        let spec = two_domain_spec();
        let drive = ChainDrive::with_stalls(7, 10, 8, verification_stalls());
        let one = run_chain_sharded(&spec, &drive, 1).expect("1 shard");
        let two = run_chain_sharded(&spec, &drive, 2).expect("2 shards");
        assert_eq!(one.fingerprint, two.fingerprint);
        assert_eq!(one.run.delivered, drive.items);
    }
}
