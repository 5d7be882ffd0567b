//! Static netlist lint over the whole design registry.
//!
//! Elaborates every registry design at the stock parameters (no clocks
//! running, nothing simulated) and runs the four `mtf-lint` passes —
//! CDC synchronizer depth, combinational loops, structural sanity,
//! glitch-prone cones — then applies each design's waiver table from
//! `mtf_core::waivers`. Waived findings are *printed*, never hidden;
//! any unwaived finding makes the process exit non-zero, which is what
//! the CI job keys off.
//!
//! ```text
//! cargo run --release -p mtf-bench --bin lint [--json] [--capacity N] [--width W]
//! cargo run --release -p mtf-bench --bin lint -- --contracts [--json]
//! ```
//!
//! `--json` emits one structured `mtf-bench-report-v1` line; CI diffs it
//! against `golden/lint.json` (via `scripts/golden_diff.py`) so a new or
//! vanished finding shows up in review even when it is waived.
//!
//! `--contracts` switches to the netlist-derived interface contracts:
//! every registry design's flag disciplines, synchronizer depths,
//! detector windows and capacity are *inferred from the elaborated
//! netlist* (`mtf_lint::infer_contract`) and diffed against the declared
//! tables, and the sharded kernel's lookahead claims on the 64-domain
//! ladder are statically proven (`mtf_lis::audit_chain_lookahead`). Any
//! derived-vs-declared mismatch or unsound cut exits non-zero; the JSON
//! line is diffed against `golden/contracts.json`.

use mtf_bench::json::Json;
use mtf_bench::report::{DesignEntry, Run};
use mtf_core::design::DesignRegistry;
use mtf_core::FifoParams;
use mtf_lint::{infer_contract, lint_design, LintReport, PASSES};
use mtf_lis::{audit_chain_lookahead, ChainSpec};

/// One design's row for the human-readable table.
fn print_design(name: &str, report: &LintReport) {
    println!(
        "{name:>15}: {:>3} cells {:>3} nets {:>1} domains | {:>2} finding(s), {:>2} waived, {:>2} unwaived",
        report.cells,
        report.nets,
        report.domains,
        report.findings.len(),
        report.waived_count(),
        report.unwaived().count(),
    );
    for a in &report.findings {
        match a.waived_by {
            Some(w) => println!(
                "        waived  {}\n                ({})",
                a.finding, w.reason
            ),
            None => println!("        UNWAIVED {}", a.finding),
        }
    }
}

/// The `--contracts` mode: derived interface contracts plus the
/// lookahead soundness audit, one report line.
fn contracts_main(mut run: Run, params: FifoParams) -> ! {
    run.report.experiment = "contracts".into();
    let json = !run.text();
    if !json {
        println!("Netlist-derived interface contracts at {params}");
        println!();
    }
    let mut disciplines = Vec::new();
    let mut mismatch_total = 0usize;
    for design in DesignRegistry::standard().iter() {
        let name = design.kind().name();
        let contract = infer_contract(design, params)
            .unwrap_or_else(|e| run.abort(format_args!("{name} rejected {params}: {e}")));
        let mismatches = contract.diff(params.sync_stages);
        mismatch_total += mismatches.len();
        if !json {
            println!(
                "{name:>15}: put {} | get {} | capacity {:?}",
                contract.put.discipline, contract.get.discipline, contract.capacity
            );
            for m in &mismatches {
                println!("        MISMATCH {m}");
            }
        }
        for m in &mismatches {
            run.fail(format_args!("{name}: mismatch {m}"));
        }
        disciplines.push(Json::obj([
            ("design", Json::str(name)),
            ("put", Json::str(contract.put.discipline.to_string())),
            ("get", Json::str(contract.get.discipline.to_string())),
        ]));
        run.report.entries.push(
            DesignEntry::new(design, params)
                .with(
                    "put_depth",
                    contract.put.discipline.depth().unwrap_or(0) as f64,
                )
                .with(
                    "get_depth",
                    contract.get.discipline.depth().unwrap_or(0) as f64,
                )
                .with(
                    "window",
                    contract
                        .put
                        .discipline
                        .window()
                        .or(contract.get.discipline.window())
                        .unwrap_or(0) as f64,
                )
                .with("capacity_derived", contract.capacity.unwrap_or(0) as f64)
                .with("sync_depth", contract.sync_depth().unwrap_or(0) as f64)
                .with("mismatches", mismatches.len() as f64),
        );
    }
    run.report.note("disciplines", Json::Arr(disciplines));
    run.report
        .note("mismatches_total", Json::Num(mismatch_total as f64));

    // Static proof of the sharded kernel's lookahead claims, cut by cut.
    let spec = ChainSpec::relay_ladder(64);
    let mut lookahead = Vec::new();
    let mut unsound_total = 0usize;
    for shards in [2usize, 4, 8] {
        let audit = audit_chain_lookahead(&spec, shards).expect("the relay ladder validates");
        unsound_total += audit.failures().len();
        for f in audit.failures() {
            run.fail(format_args!("relay64 @ {shards} shards: unsound {f}"));
        }
        if !json {
            println!(
                "relay64 @ {shards:>2} shards: {} cuts audited, {} hold checks, {}",
                audit.cuts.len(),
                audit.holds.len(),
                if audit.is_sound() { "sound" } else { "UNSOUND" }
            );
            for f in audit.failures() {
                println!("        UNSOUND {f}");
            }
        }
        lookahead.push(Json::obj([
            ("shards", Json::Num(audit.shards as f64)),
            ("cuts", Json::Num(audit.cuts.len() as f64)),
            (
                "hold_min_slack_ps",
                Json::Num(audit.holds.iter().map(|h| h.slack_ps).min().unwrap_or(0) as f64),
            ),
            ("sound", Json::Num(u64::from(audit.is_sound()) as f64)),
        ]));
    }
    run.report.note("lookahead", Json::Arr(lookahead));

    if !json {
        println!();
        if mismatch_total == 0 && unsound_total == 0 {
            println!(
                "Contracts clean: every derived contract matches its declaration and \
                 every cut claim is proven."
            );
        } else {
            println!("FAIL: {mismatch_total} mismatch(es), {unsound_total} unsound claim(s).");
        }
    }
    run.finish()
}

fn main() {
    let mut run = Run::start("lint", &["--json", "--capacity", "--width", "--contracts"]);
    let params = run.args().fifo_params();
    if run.args().flag("--contracts") {
        contracts_main(run, params);
    }
    let json = !run.text();

    if !json {
        println!("Static netlist lint over the design registry at {params}");
        println!("passes: {}", PASSES.join(", "));
        println!();
    }

    let mut waived_total = 0usize;
    for design in DesignRegistry::standard().iter() {
        let name = design.kind().name();
        // A design that rejects the stock parameters is a harness bug,
        // not a lint finding.
        let r = lint_design(design, params)
            .unwrap_or_else(|e| run.abort(format_args!("{name} rejected {params}: {e}")));
        waived_total += r.waived_count();
        if !json {
            print_design(name, &r);
        }
        for a in r.unwaived() {
            run.fail(format_args!("{name}: unwaived {a}"));
        }

        let mut e = DesignEntry::new(design, params)
            .with("cells", r.cells as f64)
            .with("nets", r.nets as f64)
            .with("domains", r.domains as f64)
            .with("findings", r.findings.len() as f64)
            .with("waived", r.waived_count() as f64)
            .with("unwaived", r.unwaived().count() as f64);
        for pass in PASSES {
            e = e.with(pass, r.count_for(pass) as f64);
        }
        run.report.entries.push(e);
    }

    let unwaived_total = run.failures();
    let report = &mut run.report;
    report.note(
        "passes",
        Json::Arr(PASSES.iter().map(|p| Json::str(*p)).collect()),
    );
    report.note("waived_total", Json::Num(waived_total as f64));
    report.note("unwaived_total", Json::Num(unwaived_total as f64));
    if !json {
        println!();
        if unwaived_total == 0 {
            println!(
                "Registry clean: 0 unwaived findings ({waived_total} waived — all deliberate, \
                 see crates/core/src/waivers.rs for the paper citations)."
            );
        } else {
            println!("FAIL: {unwaived_total} unwaived finding(s).");
        }
    }
    run.finish()
}
