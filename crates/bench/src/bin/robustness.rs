//! Experiment E8 — the paper's "arbitrarily robust with regard to
//! metastability" claim.
//!
//! Three views of the synchronizer-depth knob:
//!
//! 1. **Analytical MTBF** (`e^{t_r/τ}/(T_w · f_clk · f_data)`): each added
//!    stage buys a full clock period of settling time, multiplying MTBF by
//!    `e^{T/τ}` — about 10^5 per stage at 500 MHz with the 0.6 µm flop
//!    constants.
//! 2. **Observed failures** under an exaggerated metastability model
//!    (wide window, slow settling) so failures are visible in feasible
//!    simulation time: the fraction of runs in which a FIFO transfer
//!    corrupts, per synchronizer depth.
//! 3. **The cost**: detector anticipation windows grow with depth
//!    (`mtf-core` sizes them automatically), so fmax falls — robustness
//!    is traded against throughput and effective capacity.
//!
//! ```text
//! cargo run -p mtf-bench --bin robustness [--runs N] [--jobs N]
//! ```
//!
//! The observed-failure grid (depths × seeded runs) and the fmax-cost
//! sweep fan out over `--jobs` worker threads; every run builds its own
//! seeded simulator, so the reported rates are independent of the thread
//! count. `--json` emits one structured
//! [`ExperimentReport`](mtf_bench::report::ExperimentReport) instead of the text;
//! at the default 30 runs `cargo test` pins it byte for byte to
//! `golden/robustness.json` (`crates/bench/tests/stdout_pins.rs`).

use mtf_bench::harness::{Drain, Feed, Harness};
use mtf_bench::json::Json;
use mtf_bench::measure::throughput;
use mtf_bench::report::{DesignEntry, Run};
use mtf_bench::sweep::SweepRunner;
use mtf_core::design::MIXED_CLOCK;
use mtf_core::FifoParams;
use mtf_gates::CellDelays;
use mtf_sim::{mtbf_seconds, MetaModel, Time};

/// One FIFO transfer with plesiochronous clocks and an exaggerated
/// metastability model; returns true when the stream arrived intact.
fn one_run(seed: u64, stages: usize, meta: MetaModel) -> bool {
    let mut h = Harness::with_model(seed, CellDelays::hp06(), meta);
    h.clock_nets_both();
    // Incommensurate periods sweep the data change across the get edge.
    h.gen_put(Time::from_ps(9_973));
    h.gen_get_phased(Time::from_ps(10_007), Time::from_ps(seed % 9_000));
    h.build(&MIXED_CLOCK, FifoParams::with_sync_stages(8, 8, stages));
    let items: Vec<u64> = (0..30).collect();
    let pj = h.feed(
        "prod",
        Feed::Saturate {
            items: items.clone(),
            bundling: Time::ZERO,
            phase: Time::ZERO,
        },
    );
    let cj = h.drain(
        "cons",
        Drain::Consume {
            n: items.len() as u64,
            phase: Time::ZERO,
        },
    );
    if h.sim.run_until(Time::from_us(3)).is_err() {
        return false;
    }
    pj.len() == items.len() && cj.values() == items
}

fn main() {
    let mut run = Run::start("robustness", &["--runs", "--jobs", "--json"]);
    let json = !run.text();
    let runs = run.args().count("--runs", 30, 1..=10_000) as u64;
    let runner = SweepRunner::new(run.args().jobs());

    if !json {
        println!("E8 — synchronizer robustness (paper Secs. 1, 3.2: \"arbitrarily robust\")");
        println!();
    }

    // ---- analytical MTBF ---------------------------------------------------
    let m = MetaModel::hp06();
    if !json {
        println!("Analytical MTBF at 500 MHz / 500 MHz data (T_w=100ps, tau=150ps):");
    }
    let period = Time::from_ns(2);
    let mut mtbfs = Vec::new();
    for stages in 1..=4usize {
        // Settling time available: the slack of the first cycle plus a full
        // period per extra stage.
        let settle = Time::from_ps(period.as_ps() / 2) + period * (stages as u64 - 1);
        let mtbf = mtbf_seconds(settle, m.tau, m.window, 500e6, 500e6);
        mtbfs.push((stages, mtbf));
        if !json {
            let human = if mtbf > 3.15e10 {
                format!("{:.1e} years", mtbf / 3.15e7)
            } else if mtbf > 1.0 {
                format!("{mtbf:.1e} s")
            } else {
                format!("{:.1} µs", mtbf * 1e6)
            };
            println!("  {stages} stage(s): MTBF ≈ {human}");
        }
    }

    // ---- observed failures under an exaggerated model ------------------------
    if !json {
        println!();
        println!("Observed corruption rate, exaggerated model (window 400 ps, tau 2.5 ns),");
        println!("{runs} plesiochronous transfer runs per depth:");
    }
    let harsh = MetaModel {
        window: Time::from_ps(400),
        tau: Time::from_ps(2_500),
        max_settle: Time::from_ps(2_500 * 10),
    };
    // Flatten the (depth × run) grid into independent cells; seeds are a
    // function of the cell, so the outcome grid is schedule-independent.
    let cells: Vec<(usize, u64)> = (1..=4usize)
        .flat_map(|stages| (0..runs).map(move |r| (stages, r)))
        .collect();
    let intact = runner.run(&cells, |_, &(stages, r)| {
        one_run(1_000 + r * 77, stages, harsh)
    });
    let mut corruption = Vec::new();
    for stages in 1..=4usize {
        let fails = cells
            .iter()
            .zip(&intact)
            .filter(|((s, _), &ok)| *s == stages && !ok)
            .count();
        corruption.push((stages, fails));
        if !json {
            println!(
                "  {stages} stage(s): {fails}/{runs} corrupted ({:.0}%)",
                100.0 * fails as f64 / runs as f64
            );
        }
    }

    // ---- the cost: fmax vs depth ---------------------------------------------
    if !json {
        println!();
        println!("The price of robustness (mixed-clock 8-place/8-bit, STA fmax):");
    }
    let depths: Vec<usize> = (2..=4).collect();
    let costs: Vec<_> = runner
        .run(&depths, |_, &stages| {
            throughput(&MIXED_CLOCK, FifoParams::with_sync_stages(8, 8, stages))
        })
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| run.abort(e));
    if !json {
        for (&stages, t) in depths.iter().zip(&costs) {
            println!(
                "  {stages} stage(s): put {:4.0} MHz   get {:4.0} MHz   (detector window = {stages})",
                t.put, t.get
            );
        }
        println!();
        println!("Reading: each stage multiplies MTBF by e^(T/tau) ≈ 6e5 while costing a");
        println!("few percent of fmax and one more cell of anticipation margin.");
    }
    let r = &mut run.report;
    for (stages, fails) in &corruption {
        let mut e = DesignEntry::new(&MIXED_CLOCK, FifoParams::with_sync_stages(8, 8, *stages))
            .with("runs", runs as f64)
            .with("corrupted", *fails as f64)
            .with("mtbf_seconds", mtbfs[*stages - 1].1);
        if let Some(i) = depths.iter().position(|d| d == stages) {
            e = e
                .with("put_mhz", costs[i].put)
                .with("get_mhz", costs[i].get);
        }
        r.entries.push(e);
    }
    r.note("harsh_window_ps", Json::Num(400.0));
    r.note("harsh_tau_ps", Json::Num(2_500.0));
    run.finish()
}
