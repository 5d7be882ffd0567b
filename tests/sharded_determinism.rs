//! The sharded runner's determinism contract, end to end.
//!
//! The whole point of `--shards N` is that it is *invisible*: the merged
//! run must be byte-for-byte the run a single simulator would have
//! produced — same toggle counts, same violations, same source/sink
//! journals with the same timestamps, same per-boundary reports. These
//! tests pin that contract at every shard count for the topologies the
//! benches exercise:
//!
//! * a heterogeneous chain (async micropipeline head, mixed-clock RS and
//!   single-clock RS boundaries) at 1/2/3 shards, clean and stalled;
//! * a plesiochronous relay ladder at 1/2/4/8 shards;
//! * the single-shard path, which must bypass the lockstep protocol
//!   entirely and report kernel counters identical across invocations
//!   (the chain-level half of the `SimStats` parity check — the
//!   engine-level half lives in `mtf-sim`'s `shard` unit tests);
//! * constants for the single-shard fingerprints and event counts and for
//!   the rendered plain `run_chain` results, so the sharded and plain
//!   paths cannot drift together unnoticed.

use mtf_lis::{
    plan_chain_shards, run_chain, run_chain_sharded, verification_stalls, ChainDrive, ChainSpec,
};

/// Async head into three sync domains: one MCRS hop, then a same-domain
/// `sync_rs` hop — every boundary design the composer knows in one spec.
fn heterogeneous_spec() -> ChainSpec {
    ChainSpec::new(8, 4)
        .with_async_head(3)
        .segment(9_000, 0, 2)
        .boundary("mixed_clock_rs")
        .segment(12_000, 3_000, 1)
        .boundary("sync_rs")
        .segment(12_000, 3_000, 1)
}

#[test]
fn heterogeneous_chain_is_shard_count_invariant() {
    let spec = heterogeneous_spec();
    let drive = ChainDrive::clean(11, 10, spec.width);
    let base = run_chain_sharded(&spec, &drive, 1).expect("single shard runs");
    assert_eq!(base.run.delivered.len(), 10, "chain must be lossless");
    for shards in [2usize, 3] {
        let run = run_chain_sharded(&spec, &drive, shards).expect("sharded run");
        assert_eq!(run.shards, shards);
        assert_eq!(
            run.fingerprint, base.fingerprint,
            "{shards} shards diverged from the single-shard run"
        );
        assert_eq!(run.fingerprint.digest(), base.fingerprint.digest());
    }
}

#[test]
fn stalled_heterogeneous_chain_is_shard_count_invariant() {
    let spec = heterogeneous_spec();
    let drive = ChainDrive::with_stalls(23, 10, spec.width, verification_stalls());
    let base = run_chain_sharded(&spec, &drive, 1).expect("single shard runs");
    let sharded = run_chain_sharded(&spec, &drive, 3).expect("sharded run");
    assert_eq!(
        sharded.fingerprint, base.fingerprint,
        "sink back-pressure broke cross-shard determinism"
    );
}

#[test]
fn relay_ladder_is_shard_count_invariant_up_to_eight() {
    let spec = ChainSpec::relay_ladder(8);
    let drive = ChainDrive::clean(5, 8, spec.width);
    let base = run_chain_sharded(&spec, &drive, 1).expect("single shard runs");
    assert_eq!(base.run.delivered, base.run.sent, "ladder must be FIFO");
    for shards in [2usize, 4, 8] {
        let run = run_chain_sharded(&spec, &drive, shards).expect("sharded run");
        assert_eq!(
            run.fingerprint, base.fingerprint,
            "{shards}-way ladder diverged"
        );
        // The protocol actually ran: boundary events crossed, and the
        // conservative lookahead had to send null messages.
        let sent: u64 = run.shard_stats.iter().map(|s| s.events_sent).sum();
        let nulls: u64 = run.shard_stats.iter().map(|s| s.null_messages).sum();
        assert!(sent > 0, "{shards} shards exchanged no boundary events");
        assert!(nulls > 0, "{shards} shards sent no lookahead grants");
    }
}

#[test]
fn single_shard_bypasses_the_protocol_and_reports_stable_counters() {
    let spec = heterogeneous_spec();
    let drive = ChainDrive::clean(7, 8, spec.width);
    let a = run_chain_sharded(&spec, &drive, 1).expect("first run");
    let b = run_chain_sharded(&spec, &drive, 1).expect("second run");

    assert_eq!(a.shard_stats.len(), 1);
    let st = &a.shard_stats[0];
    // No links → no lockstep: one plain `run_until`, zero protocol traffic.
    assert_eq!(st.events_sent, 0);
    assert_eq!(st.events_received, 0);
    assert_eq!(st.null_messages, 0);
    assert!(st.rounds <= 1, "unlinked shard ran {} rounds", st.rounds);

    // The kernel counters are a pure function of the elaborated design:
    // byte-identical across invocations, exactly like the pre-sharding
    // single-simulator path they extend.
    assert_eq!(a.shard_stats[0].sim, b.shard_stats[0].sim);
    assert_eq!(a.fingerprint, b.fingerprint);
}

#[test]
fn plan_degrades_gracefully_past_the_domain_count() {
    let spec = ChainSpec::relay_ladder(4);
    // More shards than segments: the plan clamps, nothing is empty.
    let plan = plan_chain_shards(&spec, 16);
    assert!(plan.len() <= 4);
    assert_eq!(plan.iter().map(|r| r.len()).sum::<usize>(), 4);
    let drive = ChainDrive::clean(3, 6, spec.width);
    let base = run_chain_sharded(&spec, &drive, 1).expect("single shard runs");
    let over = run_chain_sharded(&spec, &drive, 16).expect("over-sharded run");
    assert_eq!(over.fingerprint, base.fingerprint);
}

/// FNV-1a over a rendered observable — the same hash
/// [`ChainFingerprint::digest`](mtf_lis::ChainFingerprint::digest) uses.
fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in text.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Pins the chain elaborator's observables to constants, so a change to
/// how chains are built (net, value or component creation order, the
/// metastability model per path) cannot pass by moving the single-shard
/// reference and the sharded runs together. Covers the sharded
/// `MetaModel::ideal` path through fingerprints and the plain
/// `run_chain` `MetaModel::hp06` path through its rendered `ChainRun`.
#[test]
fn chain_observables_are_pinned() {
    let het = heterogeneous_spec();
    let clean = ChainDrive::clean(11, 10, het.width);
    let stalled = ChainDrive::with_stalls(23, 10, het.width, verification_stalls());
    let ladder = ChainSpec::relay_ladder(8);
    let ladder_drive = ChainDrive::clean(5, 8, ladder.width);

    // (fingerprint digest, single-shard kernel events) for heterogeneous
    // clean, heterogeneous stalled and ladder(8).
    let sharded = [(&het, &clean), (&het, &stalled), (&ladder, &ladder_drive)].map(|(s, d)| {
        let run = run_chain_sharded(s, d, 1).expect("single shard runs");
        (
            run.fingerprint.digest(),
            run.shard_stats[0].sim.events_processed,
        )
    });
    assert_eq!(
        sharded,
        [
            (0x30ae58a4eb4c75c2, 128_427),
            (0xdf005cdb4046be87, 157_344),
            (0xcaf666ef5f944c12, 1_201_929),
        ],
        "sharded observables moved"
    );
    // FNV of the rendered `run_chain` result, heterogeneous clean and stalled.
    let plain = [&clean, &stalled].map(|d| fnv(&format!("{:?}", run_chain(&het, d))));
    assert_eq!(
        plain,
        [0x91cbe30a4931ce0b, 0x30b7cec73bffb17b],
        "run_chain observables moved"
    );
}
