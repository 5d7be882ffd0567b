//! Regenerates the paper's **Fig. 3** — the interface protocols — from
//! live simulation: a synchronous put then get on the mixed-clock FIFO,
//! and a 4-phase asynchronous put on the async-sync FIFO. Prints ASCII
//! timing diagrams and writes `fig3_sync.vcd` / `fig3_async.vcd` in the
//! working directory for waveform viewers.
//!
//! ```text
//! cargo run -p mtf-bench --bin fig3
//! ```
//!
//! `--json` suppresses the diagrams (the VCD files are still written) and
//! emits one structured
//! [`ExperimentReport`](mtf_bench::report::ExperimentReport) instead.

use mtf_bench::harness::{Drain, Feed, Harness};
use mtf_bench::json::Json;
use mtf_bench::report::{DesignEntry, Run};
use mtf_core::design::{ASYNC_SYNC, MIXED_CLOCK};
use mtf_core::{FifoParams, MixedTimingDesign};
use mtf_sim::{vcd, Probe, Time};

fn sync_protocols(run: &Run) -> DesignEntry {
    let mut h = Harness::new(1);
    h.clock_nets_both();
    h.gen_put(Time::from_ns(10));
    h.gen_get_phased(Time::from_ns(10), Time::from_ns(4));
    let f = h.build(&MIXED_CLOCK, FifoParams::new(4, 8)).clone();

    let probes = vec![
        Probe::scalar("CLK_put", f.clk_put.unwrap()),
        Probe::scalar("req_put", f.req_put.unwrap()),
        Probe::bus("data_put", &f.data_put),
        Probe::scalar("full", f.full.unwrap()),
        Probe::scalar("CLK_get", f.clk_get.unwrap()),
        Probe::scalar("req_get", f.req_get.unwrap()),
        Probe::bus("data_get", &f.data_get),
        Probe::scalar("valid_get", f.valid_get.unwrap()),
        Probe::scalar("empty", f.empty.unwrap()),
    ];
    for p in &probes {
        for &n in &p.nets {
            h.sim.trace(n);
        }
    }

    let _pj = h.feed(
        "prod",
        Feed::Saturate {
            items: vec![0x3C, 0x55],
            bundling: Time::ZERO,
            phase: Time::ZERO,
        },
    );
    let cj = h.drain(
        "cons",
        Drain::Consume {
            n: 2,
            phase: Time::ZERO,
        },
    );
    h.sim.run_until(Time::from_ns(140)).expect("runs");

    if run.text() {
        println!("Fig. 3(a,b): synchronous put and get protocols (mixed-clock FIFO)");
        println!("  two items (0x3C, 0x55) enqueued and dequeued; '#'=high '_'=low 'z'=undriven\n");
        print!(
            "{}",
            vcd::render_ascii(
                &h.sim,
                &probes,
                Time::ZERO,
                Time::from_ns(140),
                Time::from_ns(1)
            )
        );
    }
    run.write("fig3_sync.vcd", vcd::render_vcd(&h.sim, &probes));
    if run.text() {
        println!("\n  full waveform written to fig3_sync.vcd\n");
    }
    DesignEntry::new(
        &MIXED_CLOCK as &dyn MixedTimingDesign,
        FifoParams::new(4, 8),
    )
    .with("items_delivered", cj.len() as f64)
    .with("probes", probes.len() as f64)
}

fn async_protocol(run: &Run) -> DesignEntry {
    let mut h = Harness::new(2);
    h.clock_nets(ASYNC_SYNC.clocking());
    h.gen_get(Time::from_ns(10));
    let f = h.build(&ASYNC_SYNC, FifoParams::new(4, 8)).clone();

    let probes = vec![
        Probe::scalar("put_req", f.put_req.unwrap()),
        Probe::bus("put_data", &f.data_put),
        Probe::scalar("put_ack", f.put_ack.unwrap()),
        Probe::scalar("CLK_get", f.clk_get.unwrap()),
        Probe::scalar("valid_get", f.valid_get.unwrap()),
        Probe::scalar("empty", f.empty.unwrap()),
    ];
    for p in &probes {
        for &n in &p.nets {
            h.sim.trace(n);
        }
    }

    let _pj = h.feed(
        "prod",
        Feed::Saturate {
            items: vec![0x3C, 0x55],
            bundling: Time::from_ps(500),
            phase: Time::from_ns(15),
        },
    );
    let cj = h.drain(
        "cons",
        Drain::Consume {
            n: 2,
            phase: Time::ZERO,
        },
    );
    h.sim.run_until(Time::from_ns(120)).expect("runs");

    if run.text() {
        println!("Fig. 3(c): asynchronous 4-phase bundled-data put protocol (async-sync FIFO)");
        println!("  req+ -> ack+ -> req- -> ack-; data bundled with req\n");
        print!(
            "{}",
            vcd::render_ascii(
                &h.sim,
                &probes,
                Time::ZERO,
                Time::from_ns(120),
                Time::from_ns(1)
            )
        );
    }
    run.write("fig3_async.vcd", vcd::render_vcd(&h.sim, &probes));
    if run.text() {
        println!("\n  full waveform written to fig3_async.vcd");
    }
    DesignEntry::new(&ASYNC_SYNC as &dyn MixedTimingDesign, FifoParams::new(4, 8))
        .with("items_delivered", cj.len() as f64)
        .with("probes", probes.len() as f64)
}

fn main() {
    let mut run = Run::start("fig3", &["--json"]);
    let sync_entry = sync_protocols(&run);
    let async_entry = async_protocol(&run);
    run.report.entries.extend([sync_entry, async_entry]);
    run.report.note(
        "vcd_files",
        Json::Arr(vec![
            Json::str("fig3_sync.vcd"),
            Json::str("fig3_async.vcd"),
        ]),
    );
    run.finish()
}
