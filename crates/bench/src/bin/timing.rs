//! Per-design static timing over the whole registry, pinned by a golden
//! report.
//!
//! Runs the Table 1 max-delay recipe (`mtf_bench::measure::max_delay_sta`,
//! which `measure::periods` also uses — calibrated custom-circuit delays,
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

use mtf_bench::json::Json;
use mtf_bench::measure::{max_delay_sta, timed_build, EXT};
use mtf_bench::report::{DesignEntry, Run};
use mtf_core::design::DesignRegistry;
use mtf_core::InterfaceSpec;
use mtf_timing::Sta;

fn main() {
    let mut run = Run::start("timing", &["--json", "--capacity", "--width"]);
    let params = run.args().fifo_params();

    if run.text() {
        println!("Static timing (max- and min-delay) over the design registry at {params}");
        println!();
    }

    let mut skipped = Vec::new();
    for design in DesignRegistry::standard().iter() {
        let name = design.kind().name();
        let h = timed_build(design, params);
        if h.netlist().is_empty() {
            skipped.push(Json::str(name));
            if run.text() {
                println!("{name:>15}: behavioural, no gates to time");
            }
            continue;
        }
        let clocked = |spec| !matches!(spec, InterfaceSpec::Async4Phase { .. });

        // Max-delay: the Table 1 recipe, environment launches included.
        let (sta, put_clock, get_clock) = max_delay_sta(&h);
        let get = clocked(h.ports().get_spec())
            .then(|| sta.min_period(get_clock).expect("get domain has paths"));
        let put = clocked(h.ports().put_spec())
            .then(|| sta.min_period(put_clock).expect("put domain has paths"));

        // Min-delay: flop-to-flop only (a fresh Sta, no environment
        // launches), so a negative margin is a race the netlist itself
        // contains.
        let hold_sta = Sta::new(h.netlist());
        let hold_put = hold_sta.hold_slack(put_clock);
        let hold_get = hold_sta.hold_slack(get_clock);

        if run.text() {
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
        run.report.entries.push(e);

        // Hold is a pass/fail property, not just a pinned number.
        for (side, h) in [("put", &hold_put), ("get", &hold_get)] {
            if let Some(h) = h.as_ref().filter(|h| h.slack_ps < 0) {
                run.fail(format_args!(
                    "{name} {side} domain hold violation: {} ps at {}",
                    h.slack_ps, h.capture
                ));
            }
        }
    }

    run.report.note("skipped", Json::Arr(skipped));
    run.report
        .note("ext_launch_ps", Json::Num(EXT.as_ps() as f64));
    if run.text() {
        println!();
        match run.failures() {
            0 => println!("All clocked designs timed; no hold violations."),
            n => println!("FAIL: {n} hold violation(s)."),
        }
    }
    run.finish()
}
