//! Scaling bench for the domain-sharded chain runner.
//!
//! Builds a 64-domain relay chain (64 single-station segments, each in
//! its own plesiochronous clock domain, joined by 63 gate-level
//! mixed-clock relay stations), runs it with
//! [`mtf_lis::run_chain_sharded`] at 1/2/4/8 shards, checks every merged
//! fingerprint byte-for-byte against the single-shard run, and reports:
//!
//! * wall-clock time per shard count (honest: on a single-core host the
//!   sharded runs are *slower* — lockstep rounds serialise),
//! * the per-shard busy/blocked decomposition and the **work ratio**
//!   (total busy time / slowest shard's busy time) — the speedup the
//!   same partition achieves once each shard has its own core, which is
//!   the gated metric on single-core CI hosts,
//! * cross-shard event and null-message counts per round.
//!
//! ```text
//! cargo run --release -p mtf-bench --bin sharded [--quick] [--items N]
//!     [--runs N] [--shards N] [--write]
//! ```
//!
//! `--write` saves the JSON to `BENCH_sharded_sim.json` at the
//! workspace root (CI uploads it as an artifact); default prints to
//! stdout. `--shards N` adds one extra point beyond the standard
//! 1/2/4/8 ladder.

use std::time::Instant;

use mtf_bench::json::Json;
use mtf_bench::report::Run;
use mtf_lis::{run_chain_sharded, ChainDrive, ChainSpec, ShardedChainRun};

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct Point {
    shards: usize,
    wall_ms: f64,
    run: ShardedChainRun,
}

fn measure(spec: &ChainSpec, drive: &ChainDrive, shards: usize, runs: usize) -> Point {
    let mut best: Option<(f64, ShardedChainRun)> = None;
    for _ in 0..runs {
        let t0 = Instant::now();
        let run = run_chain_sharded(spec, drive, shards).expect("chain runs");
        let wall = ms(t0.elapsed());
        if best.as_ref().map(|(w, _)| wall < *w).unwrap_or(true) {
            best = Some((wall, run));
        }
    }
    let (wall_ms, run) = best.expect("at least one run");
    Point {
        shards,
        wall_ms,
        run,
    }
}

fn main() {
    let mut run = Run::start(
        "sharded",
        &["--quick", "--items", "--runs", "--shards", "--write"],
    );
    let quick = run.args().flag("--quick");
    let segments = if quick { 16 } else { 64 };
    let items = run.args().count("--items", if quick { 16 } else { 40 }, 1);
    let runs = run.args().count("--runs", if quick { 1 } else { 2 }, 1);

    let mut ladder = vec![1usize, 2, 4, 8];
    let extra = run.args().count("--shards", 1, 1);
    if extra > 1 && !ladder.contains(&extra) {
        ladder.push(extra);
        ladder.sort_unstable();
    }

    let spec = ChainSpec::relay_ladder(segments);
    let drive = ChainDrive::clean(1, items, spec.width);
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    eprintln!(
        "sharded: {segments}-domain relay chain, {} boundaries, {items} items, \
         best of {runs} run(s) per point, host has {host_cores} core(s)",
        spec.boundaries.len()
    );

    let points: Vec<Point> = ladder
        .iter()
        .map(|&n| {
            let p = measure(&spec, &drive, n, runs);
            eprintln!(
                "  {n:>2} shard(s): {:8.1} ms wall, digest {:#018x}",
                p.wall_ms,
                p.run.fingerprint.digest()
            );
            p
        })
        .collect();

    let base = &points[0];
    if base.run.run.delivered.len() != items {
        run.fail(format_args!(
            "the chain delivered {} of {items} items",
            base.run.run.delivered.len()
        ));
    }
    for p in points
        .iter()
        .filter(|p| p.run.fingerprint != base.run.fingerprint)
    {
        run.fail(format_args!(
            "{} shards diverged from the single-shard fingerprint",
            p.shards
        ));
    }

    let point_json: Vec<Json> = points
        .iter()
        .map(|p| {
            let s = &p.run.shard_stats;
            let busy_total: f64 = s.iter().map(|st| ms(st.busy)).sum();
            let busy_max = s.iter().map(|st| ms(st.busy)).fold(0.0, f64::max);
            let blocked_total: f64 = s.iter().map(|st| ms(st.blocked)).sum();
            let xevents: u64 = s.iter().map(|st| st.events_sent).sum();
            let nulls: u64 = s.iter().map(|st| st.null_messages).sum();
            let rounds: u64 = s.iter().map(|st| st.rounds).max().unwrap_or(0);
            let events: u64 = s.iter().map(|st| st.sim.events_processed).sum();
            Json::obj([
                ("shards", Json::Num(p.run.shards as f64)),
                ("wall_ms", Json::Num(p.wall_ms)),
                ("speedup_wall", Json::Num(base.wall_ms / p.wall_ms)),
                (
                    "work_ratio",
                    Json::Num(if busy_max > 0.0 {
                        busy_total / busy_max
                    } else {
                        1.0
                    }),
                ),
                ("busy_ms_total", Json::Num(busy_total)),
                ("busy_ms_max_shard", Json::Num(busy_max)),
                ("blocked_ms_total", Json::Num(blocked_total)),
                ("kernel_events_total", Json::Num(events as f64)),
                ("xshard_events", Json::Num(xevents as f64)),
                ("null_messages", Json::Num(nulls as f64)),
                ("lockstep_rounds_max", Json::Num(rounds as f64)),
                (
                    "fingerprint_ok",
                    Json::Bool(p.run.fingerprint == base.run.fingerprint),
                ),
            ])
        })
        .collect();

    let doc = Json::obj([
        (
            "subject",
            Json::str(
                "domain-sharded chain simulation: conservative FIFO-boundary lookahead scaling",
            ),
        ),
        (
            "topology",
            Json::obj([
                ("segments", Json::Num(segments as f64)),
                ("stations_per_segment", Json::Num(1.0)),
                (
                    "boundary_design",
                    Json::str("mixed_clock_rs (gate level, capacity 4, width 8)"),
                ),
                ("items", Json::Num(items as f64)),
            ]),
        ),
        ("host_cores", Json::Num(host_cores as f64)),
        ("runs_per_point", Json::Num(runs as f64)),
        ("points", Json::Arr(point_json)),
        (
            "methodology",
            Json::str(
                "best-of-N wall clock per point; every sharded fingerprint asserted \
                 byte-identical to 1 shard before reporting. wall-clock speedup needs \
                 >= shards host cores; on fewer cores the lockstep rounds serialise \
                 and work_ratio (sum of per-shard busy time / slowest shard's busy \
                 time) is the achievable multi-core speedup for the same partition.",
            ),
        ),
    ]);

    let rendered = doc.render();
    if run.args().flag("--write") {
        run.write("BENCH_sharded_sim.json", format!("{rendered}\n"));
        eprintln!("sharded: wrote BENCH_sharded_sim.json");
    } else {
        println!("{rendered}");
    }
    run.finish()
}
