//! Per-design static timing over the whole registry, pinned by a golden
//! report.
//!
//! Runs the same STA recipe as the Table 1 throughput measurement
//! (`mtf_bench::measure::periods` — calibrated custom-circuit delays,
//! fanout-aware annotation, environment launches 100 ps after the edge,
//! the mid-cycle dequeue commit launched from the falling get edge) and
//! additionally the **min-delay** side the max-delay recipe cannot see:
//! each domain's same-edge hold margin ([`Sta::hold_slack`]), computed
//! on the flop-to-flop graph alone so the verdict is about the netlist,
//! not about environment timing assumptions.
//!
//! ```text
//! cargo run --release -p mtf-bench --bin timing [--json] [--capacity N] [--width W]
//! ```
//!
//! `--json` emits one `mtf-bench-report-v1` line; CI diffs it against
//! `golden/timing.json`, so a delay-annotation change, a path that
//! appears or vanishes, or a hold-margin regression all surface in
//! review. Behavioural designs (seizovic, sync_rs) place no gates and
//! are skipped by name in the `skipped` note.

use mtf_bench::args::Args;
use mtf_bench::harness::Harness;
use mtf_bench::json::Json;
use mtf_bench::report::{DesignEntry, ExperimentReport};
use mtf_core::design::DesignRegistry;
use mtf_core::{FifoParams, InterfaceSpec, MixedTimingDesign};
use mtf_sim::Time;
use mtf_timing::{Sta, Tech};

/// Environment reaction delay after a clock edge — keep equal to
/// `measure::EXT` so the periods here match Table 1's.
const EXT: Time = Time::from_ps(100);

fn async_put(design: &dyn MixedTimingDesign, params: FifoParams) -> bool {
    matches!(
        design.put_interface(params),
        InterfaceSpec::Async4Phase { .. }
    )
}

fn async_get(design: &dyn MixedTimingDesign, params: FifoParams) -> bool {
    matches!(
        design.get_interface(params),
        InterfaceSpec::Async4Phase { .. }
    )
}

fn main() {
    let args = Args::parse();
    let json = args.json();
    let params = args.fifo_params();

    if !json {
        println!("Static timing (max- and min-delay) over the design registry at {params}");
        println!();
    }

    let mut report = ExperimentReport::new("timing");
    let mut skipped = Vec::new();
    for design in DesignRegistry::standard().iter() {
        let name = design.kind().name();
        let mut h = Harness::calibrated(1);
        h.clock_nets_both();
        h.build_annotated(design, params, &Tech::hp06_custom());
        if h.netlist().is_empty() {
            skipped.push(Json::str(name));
            if !json {
                println!("{name:>15}: behavioural, no gates to time");
            }
            continue;
        }
        let ports = h.ports().clone();
        let put_clock = ports
            .put_clock()
            .unwrap_or_else(|| h.clk_put.expect("harness created both clock nets"));
        let get_clock = ports
            .get_clock()
            .unwrap_or_else(|| h.clk_get.expect("harness created both clock nets"));

        // Max-delay: the Table 1 recipe, environment launches included.
        let mut sta = Sta::new(h.netlist());
        if let Some(nclk_get) = ports.nclk_get {
            sta.external_launch_half(nclk_get, get_clock, EXT);
        }
        if !async_put(design, params) {
            let req_like = ports
                .req_put
                .or(ports.valid_in)
                .expect("clocked puts have a request-like input");
            sta.external_launch(req_like, put_clock, EXT);
            for &d in &ports.data_put {
                sta.external_launch(d, put_clock, EXT);
            }
        }
        if let Some(rg) = ports.req_get {
            sta.external_launch(rg, get_clock, EXT);
        }
        if let Some(si) = ports.stop_in {
            sta.external_launch(si, get_clock, EXT);
        }
        let get = (!async_get(design, params))
            .then(|| sta.min_period(get_clock).expect("get domain has paths"));
        let put = (!async_put(design, params))
            .then(|| sta.min_period(put_clock).expect("put domain has paths"));

        // Min-delay: flop-to-flop only (a fresh Sta, no environment
        // launches), so a negative margin is a race the netlist itself
        // contains.
        let hold_sta = Sta::new(h.netlist());
        let hold_put = hold_sta.hold_slack(put_clock);
        let hold_get = hold_sta.hold_slack(get_clock);

        if !json {
            println!(
                "{name:>15}: get {} | put {} | hold put {} get {}",
                match &get {
                    Some(g) => format!("{:>6} ps ({:>6.1} MHz)", g.period.as_ps(), g.fmax_mhz),
                    None => "  async".to_string(),
                },
                match &put {
                    Some(p) => format!("{:>6} ps", p.period.as_ps()),
                    None => "  async".to_string(),
                },
                hold_put
                    .as_ref()
                    .map_or("   -".to_string(), |h| format!("{:>4} ps", h.slack_ps)),
                hold_get
                    .as_ref()
                    .map_or("   -".to_string(), |h| format!("{:>4} ps", h.slack_ps)),
            );
        }

        let mut e = DesignEntry::new(design, params);
        if let Some(g) = &get {
            e = e
                .with("get_period_ps", g.period.as_ps() as f64)
                .with("get_fmax_mhz", g.fmax_mhz);
        }
        if let Some(p) = &put {
            e = e
                .with("put_period_ps", p.period.as_ps() as f64)
                .with("put_fmax_mhz", p.fmax_mhz);
        }
        if let Some(hp) = &hold_put {
            e = e
                .with("hold_put_slack_ps", hp.slack_ps as f64)
                .with("hold_put_checked", hp.checked as f64);
        }
        if let Some(hg) = &hold_get {
            e = e
                .with("hold_get_slack_ps", hg.slack_ps as f64)
                .with("hold_get_checked", hg.checked as f64);
        }
        report.entries.push(e);

        // Hold is a pass/fail property, not just a pinned number.
        for (side, h) in [("put", &hold_put), ("get", &hold_get)] {
            if let Some(h) = h {
                if h.slack_ps < 0 {
                    eprintln!(
                        "timing: {name} {side} domain hold violation: {} ps at {}",
                        h.slack_ps, h.capture
                    );
                    std::process::exit(1);
                }
            }
        }
    }

    if json {
        report.note("skipped", Json::Arr(skipped));
        report.note("ext_launch_ps", Json::Num(EXT.as_ps() as f64));
        report.emit();
    } else {
        println!();
        println!("All clocked designs timed; no hold violations.");
    }
}
