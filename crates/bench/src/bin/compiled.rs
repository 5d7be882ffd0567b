//! Differential scaling bench for the compiled-netlist backend.
//!
//! Pushes the same saturated transfer through every Table 1 design twice
//! — once on the event-driven kernel, once on the compiled backend —
//! checks the delivered streams and violation logs are identical, and
//! reports per design:
//!
//! * best-of-N wall-clock time per backend,
//! * the **event ratio** `events_processed(event) /
//!   events_processed(compiled)`: how many queue events the compiled
//!   backend eliminated by evaluating synchronous regions as
//!   straight-line code. This is the gated metric — deterministic, and
//!   immune to CI host noise in a way wall clock is not,
//! * the compiled backend's own counters (`compiled_edge_evals`,
//!   `compiled_gate_evals`).
//!
//! The run **fails** unless the sync-dominated workload (the plain
//! mixed-clock FIFO, whose cells compile almost entirely) eliminates at
//! least 3× the queue events.
//!
//! ```text
//! cargo run --release -p mtf-bench --bin compiled [--quick] [--items N]
//!     [--runs N] [--write]
//! ```
//!
//! `--write` saves the JSON to `BENCH_compiled_sim.json` at the
//! workspace root (CI uploads it as an artifact); default prints to
//! stdout.

use std::time::Instant;

use mtf_bench::harness::{fifo_transfer_run, TransferConfig};
use mtf_bench::json::Json;
use mtf_bench::report::Run;
use mtf_core::design::DesignRegistry;
use mtf_core::{FifoParams, MixedTimingDesign};
use mtf_sim::{Backend, SimStats, Time};

/// The headline sync-dominated design: everything but the clock
/// generators and environments compiles.
const HEADLINE: &str = "mixed_clock";
/// The gated minimum `events_processed` ratio on the headline design.
const MIN_RATIO: f64 = 3.0;

struct Side {
    wall_ms: f64,
    delivered: Vec<u64>,
    violations: Vec<String>,
    stats: SimStats,
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the transfer on one backend, best of `runs` wall-clock-wise. The
/// returned observables come from the fastest run (they are identical
/// across runs by determinism).
fn run_side(
    design: &dyn MixedTimingDesign,
    params: FifoParams,
    items: &[u64],
    cfg: &TransferConfig,
    runs: usize,
) -> Side {
    let mut best: Option<Side> = None;
    for _ in 0..runs {
        let t0 = Instant::now();
        let (h, out) = fifo_transfer_run(design, params, items, cfg);
        let wall_ms = ms(t0.elapsed());
        let side = Side {
            wall_ms,
            delivered: out.values(),
            violations: h.sim.violations().iter().map(|v| v.to_string()).collect(),
            stats: h.sim.stats(),
        };
        if best
            .as_ref()
            .map(|b| side.wall_ms < b.wall_ms)
            .unwrap_or(true)
        {
            best = Some(side);
        }
    }
    best.expect("at least one run")
}

fn main() {
    let mut run = Run::start("compiled", &["--quick", "--items", "--runs", "--write"]);
    let quick = run.args().flag("--quick");
    let n_items = run
        .args()
        .count("--items", if quick { 96 } else { 384 }, 1..=100_000);
    let runs = run
        .args()
        .count("--runs", if quick { 1 } else { 3 }, 1..=100);

    let params = FifoParams::new(16, 16);
    let items: Vec<u64> = (0..n_items as u64)
        .map(|i| (i * 37 + 11) & 0xffff)
        .collect();
    // Mildly rate-mismatched plesiochronous clocks; horizon sized for a
    // saturated stream with get as the bottleneck.
    let horizon = Time::from_ps(11_300 * (n_items as u64 * 3 + 400));
    let cfg_for = |backend: Backend| TransferConfig {
        backend,
        ..TransferConfig::plain(41, 10_000, 11_300, horizon)
    };

    eprintln!(
        "compiled: {n_items}-item saturated transfer per design at {params}, \
         best of {runs} run(s) per backend"
    );

    let mut rows = Vec::new();
    let mut headline_ratio = None;
    for design in DesignRegistry::table1().iter() {
        let name = design.kind().name();
        let event = run_side(design, params, &items, &cfg_for(Backend::Event), runs);
        let compiled = run_side(design, params, &items, &cfg_for(Backend::Compiled), runs);

        let equal =
            event.delivered == compiled.delivered && event.violations == compiled.violations;
        for (failed, what) in [
            (
                compiled.delivered.len() != items.len(),
                "the transfer did not complete within the horizon",
            ),
            (!equal, "observables diverged across backends"),
            (
                event.stats.compiled_gate_evals > 0,
                "the event backend ran compiled code",
            ),
            (
                compiled.stats.compiled_gate_evals == 0,
                "nothing compiled — the backend did not engage",
            ),
        ] {
            if failed {
                run.fail(format_args!("{name}: {what}"));
            }
        }

        let ratio =
            event.stats.events_processed as f64 / compiled.stats.events_processed.max(1) as f64;
        if name == HEADLINE {
            headline_ratio = Some(ratio);
        }
        eprintln!(
            "  {name:<16} event {:8.1} ms ({:>9} events)  compiled {:8.1} ms \
             ({:>9} events)  ratio {ratio:5.2}x",
            event.wall_ms,
            event.stats.events_processed,
            compiled.wall_ms,
            compiled.stats.events_processed,
        );
        rows.push(Json::obj([
            ("design", Json::str(name)),
            ("event_wall_ms", Json::Num(event.wall_ms)),
            ("compiled_wall_ms", Json::Num(compiled.wall_ms)),
            (
                "event_events_processed",
                Json::Num(event.stats.events_processed as f64),
            ),
            (
                "compiled_events_processed",
                Json::Num(compiled.stats.events_processed as f64),
            ),
            ("event_ratio", Json::Num(ratio)),
            (
                "wall_speedup",
                Json::Num(event.wall_ms / compiled.wall_ms.max(1e-9)),
            ),
            (
                "compiled_edge_evals",
                Json::Num(compiled.stats.compiled_edge_evals as f64),
            ),
            (
                "compiled_gate_evals",
                Json::Num(compiled.stats.compiled_gate_evals as f64),
            ),
            ("delivered", Json::Num(compiled.delivered.len() as f64)),
            ("observables_equal", Json::Bool(equal)),
        ]));
    }

    let headline_ratio = headline_ratio.expect("registry contains the headline design");
    if headline_ratio < MIN_RATIO {
        run.fail(format_args!(
            "sync-dominated workload ({HEADLINE}) only eliminated {headline_ratio:.2}x \
             queue events; the compiled backend must reach {MIN_RATIO}x"
        ));
    }

    let doc = Json::obj([
        (
            "subject",
            Json::str(
                "compiled-netlist backend vs event kernel: identical observables, \
                 fewer queue events",
            ),
        ),
        (
            "workload",
            Json::obj([
                ("items", Json::Num(n_items as f64)),
                ("capacity", Json::Num(params.capacity as f64)),
                ("width", Json::Num(params.width as f64)),
                ("t_put_ps", Json::Num(10_000.0)),
                ("t_get_ps", Json::Num(11_300.0)),
            ]),
        ),
        ("runs_per_point", Json::Num(runs as f64)),
        ("headline_design", Json::str(HEADLINE)),
        ("headline_event_ratio", Json::Num(headline_ratio)),
        ("min_event_ratio_gate", Json::Num(MIN_RATIO)),
        ("designs", Json::Arr(rows)),
        (
            "methodology",
            Json::str(
                "per design, identical saturated transfers on both backends; delivered \
                 streams and violation logs asserted equal before reporting. the gated \
                 metric is events_processed(event)/events_processed(compiled) on the \
                 sync-dominated mixed-clock FIFO — wall clock is reported but not gated \
                 (CI hosts are noisy).",
            ),
        ),
    ]);

    let rendered = doc.render();
    if run.args().flag("--write") {
        run.write("BENCH_compiled_sim.json", format!("{rendered}\n"));
        eprintln!("compiled: wrote BENCH_compiled_sim.json");
    } else {
        println!("{rendered}");
    }
    run.finish()
}
