//! Experiment E9 — heterogeneous LIS chains, end-to-end.
//!
//! Composes four chain topologies from registry designs and relay
//! stations, drives each with the golden-queue source/sink, and checks
//! every run against the analytical per-boundary predictions
//! ([`mtf_lis::predict_latency`] / [`mtf_lis::predict_throughput`],
//! paper Section 5):
//!
//! * **mcrs** — three clock domains joined by two mixed-clock relay
//!   stations (the paper's heterogeneous-SoC picture).
//! * **asrs** — an asynchronous micropipeline head bridged into one
//!   synchronous relay chain by an async-sync relay station (Fig. 14).
//! * **mixed** — both at once: async head plus two MCRS boundaries,
//!   three timing boundaries total.
//! * **baseline** — one clock domain spliced with plain single-clock
//!   relay stations (`sync_rs`), the Carloni baseline the mixed-timing
//!   designs are measured against.
//!
//! Each topology is swept over boundary FIFO capacity {4, 8, 16}. Every
//! point runs [`mtf_lis::verify_chain`]: a clean run checked for
//! lossless FIFO delivery, latency inside the predicted envelope, and
//! throughput inside the predicted band; then a back-pressured run with
//! adversarial `stopIn` stalls at the sink, checked for losslessness
//! (a wedged boundary detector would show up as missing items).
//!
//! ```text
//! cargo run --release -p mtf-bench --bin chains [--items N] [--json]
//! ```
//!
//! `--json` emits one structured `mtf-bench-report-v1` line; CI diffs it
//! against the committed golden copy.

use mtf_bench::json::Json;
use mtf_bench::report::{DesignEntry, Run};
use mtf_core::design::{ASYNC_SYNC_RS, MIXED_CLOCK_RS, SYNC_RS};
use mtf_core::MixedTimingDesign;
use mtf_lis::{
    run_chain_sharded_with_backend, verify_chain_with_backend, ChainDrive, ChainSpec,
    ChainVerification,
};
use mtf_sim::Backend;

/// The swept boundary FIFO capacities.
const CAPACITIES: &[usize] = &[4, 8, 16];

/// Chain topologies: `(scenario name, representative design, spec)`.
fn scenarios(capacity: usize) -> Vec<(&'static str, &'static dyn MixedTimingDesign, ChainSpec)> {
    vec![
        (
            "mcrs",
            &MIXED_CLOCK_RS,
            ChainSpec::new(8, capacity)
                .segment(10_000, 0, 2)
                .boundary("mixed_clock_rs")
                .segment(13_000, 2_400, 2)
                .boundary("mixed_clock_rs")
                .segment(8_000, 1_100, 2),
        ),
        (
            "asrs",
            &ASYNC_SYNC_RS,
            ChainSpec::new(8, capacity)
                .with_async_head(4)
                .segment(10_000, 0, 3),
        ),
        (
            "mixed",
            &ASYNC_SYNC_RS,
            ChainSpec::new(8, capacity)
                .with_async_head(3)
                .segment(9_000, 0, 2)
                .boundary("mixed_clock_rs")
                .segment(12_000, 3_000, 2)
                .boundary("mixed_clock_rs")
                .segment(10_000, 500, 1),
        ),
        (
            "baseline",
            &SYNC_RS,
            ChainSpec::new(8, capacity)
                .segment(10_000, 0, 2)
                .boundary("sync_rs")
                .segment(10_000, 0, 2)
                .boundary("sync_rs")
                .segment(10_000, 0, 2),
        ),
    ]
}

/// Flattens one verified point into report measurements.
fn entry_for(
    design: &dyn MixedTimingDesign,
    spec: &ChainSpec,
    v: &ChainVerification,
) -> DesignEntry {
    let clean = &v.clean.report;
    let stalled = &v.stalled.report;
    let stall_cycles: u64 = stalled.boundaries.iter().map(|b| b.get_stall_cycles).sum();
    let max_occ = clean
        .boundaries
        .iter()
        .chain(&stalled.boundaries)
        .map(|b| b.max_occupancy)
        .max()
        .unwrap_or(0);
    let mut e = DesignEntry::new(design, spec.params())
        .with("boundaries", spec.boundary_count() as f64)
        .with("domains", spec.segments.len() as f64)
        .with("delivered", clean.delivered as f64)
        .with("min_latency_ns", clean.min_latency.as_ps() as f64 / 1e3)
        .with("max_latency_ns", clean.max_latency.as_ps() as f64 / 1e3)
        .with("pred_min_ns", v.envelope.min.as_ps() as f64 / 1e3)
        .with("pred_max_ns", v.envelope.max.as_ps() as f64 / 1e3)
        .with("pred_min_mhz", v.throughput.min_hz / 1e6)
        .with("pred_max_mhz", v.throughput.max_hz / 1e6)
        .with("stalled_delivered", stalled.delivered as f64)
        .with("boundary_stall_cycles", stall_cycles as f64)
        .with("max_occupancy", max_occ as f64);
    if let Some(hz) = clean.throughput_hz {
        e = e.with("throughput_mhz", hz / 1e6);
    }
    e
}

fn main() {
    let mut run = Run::start("chains", &["--json", "--items", "--shards", "--backend"]);
    let json = !run.text();
    let items = run.args().count("--items", 60, 1);
    let shards = run.args().count("--shards", 1, 1);
    // `--backend compiled` runs every point on the compiled-netlist
    // backend. The report is intentionally NOT annotated with the
    // backend: CI diffs the compiled `--json` output against the same
    // golden copy as the event run, so any byte of difference is an
    // equivalence bug.
    let backend = run.args().backend();

    if !json {
        println!("E9 — heterogeneous LIS chains vs. per-boundary predictions (paper Sec. 5)");
        if backend != Backend::Event {
            println!("     (--backend {backend}: all points run on the compiled-netlist backend)");
        }
        if shards > 1 {
            println!(
                "     (--shards {shards}: each point also re-run domain-sharded and \
                 fingerprint-checked against the single-shard run)"
            );
        }
        println!();
    }

    let mut verified = 0usize;
    for &capacity in CAPACITIES {
        for (name, design, spec) in scenarios(capacity) {
            let v = match verify_chain_with_backend(&spec, items, backend) {
                Ok(v) => v,
                Err(e) => {
                    run.fail(format_args!(
                        "{name} capacity {capacity} FAILED verification: {e}"
                    ));
                    continue;
                }
            };
            verified += 1;
            if !json {
                let r = &v.clean.report;
                println!(
                    "{name:>9} cap {capacity:>2}: {} items, latency [{} .. {}] in [{} .. {}], \
                     throughput {}",
                    r.delivered,
                    r.min_latency,
                    r.max_latency,
                    v.envelope.min,
                    v.envelope.max,
                    r.throughput_hz
                        .map(|hz| format!("{:.1} MHz", hz / 1e6))
                        .unwrap_or_else(|| "n/a".into()),
                );
                for b in &r.boundaries {
                    println!(
                        "            {:<15} accepts {:>3}  delivers {:>3}  put-stall {:>3}  \
                         get-stall {:>3}  occ≤{}",
                        b.design,
                        b.put_accepts,
                        b.get_delivers,
                        b.put_stall_cycles,
                        b.get_stall_cycles,
                        b.max_occupancy
                    );
                }
            }
            let mut e = entry_for(design, &spec, &v);
            // Scenario is part of the identity: the same design appears at
            // several points, so prefix the registry name.
            e.design = format!("{name}/{}", e.design);

            // `--shards N`: re-run the point domain-sharded and require the
            // merged fingerprint to be byte-identical to one shard.
            if shards > 1 {
                let drive = ChainDrive::clean(1, items, spec.width);
                match (
                    run_chain_sharded_with_backend(&spec, &drive, 1, backend),
                    run_chain_sharded_with_backend(&spec, &drive, shards, backend),
                ) {
                    (Err(e), _) | (_, Err(e)) => {
                        run.fail(format_args!(
                            "{name} capacity {capacity} sharded run failed: {e}"
                        ));
                    }
                    (Ok(one), Ok(many)) if one.fingerprint != many.fingerprint => {
                        run.fail(format_args!(
                            "{name} capacity {capacity}: {} shard(s) diverged from 1 \
                             (digest {:#x} vs {:#x})",
                            many.shards,
                            many.fingerprint.digest(),
                            one.fingerprint.digest()
                        ));
                    }
                    (Ok(_), Ok(many)) => {
                        let nulls: u64 = many.shard_stats.iter().map(|s| s.null_messages).sum();
                        let xevents: u64 = many.shard_stats.iter().map(|s| s.events_sent).sum();
                        let rounds: u64 =
                            many.shard_stats.iter().map(|s| s.rounds).max().unwrap_or(0);
                        e = e
                            .with("shards", many.shards as f64)
                            .with("xshard_events", xevents as f64)
                            .with("null_messages", nulls as f64)
                            .with("lockstep_rounds", rounds as f64);
                        if !json {
                            println!(
                                "            sharded x{}: fingerprint ok ({:#x}), {} cross-shard \
                                 events, {} null messages, {} rounds",
                                many.shards,
                                many.fingerprint.digest(),
                                xevents,
                                nulls,
                                rounds
                            );
                        }
                    }
                }
            }
            run.report.entries.push(e);
        }
    }

    let r = &mut run.report;
    r.note("items_per_run", Json::Num(items as f64));
    r.note("verified_points", Json::Num(verified as f64));
    if shards > 1 {
        r.note("requested_shards", Json::Num(shards as f64));
    }
    r.note(
        "scenarios",
        Json::Arr(
            ["mcrs", "asrs", "mixed", "baseline"]
                .iter()
                .map(|s| Json::str(*s))
                .collect(),
        ),
    );
    if !json {
        println!();
        match run.failures() {
            0 => println!(
                "All {verified} chain points passed end-to-end verification (lossless FIFO, \
                 latency in envelope, throughput in band, no wedge under stopIn)."
            ),
            n => println!("FAIL: {n} chain check(s) failed."),
        }
    }
    run.finish()
}
