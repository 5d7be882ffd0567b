//! Formal verification sweep over the design registry.
//!
//! Runs the `mtf-mc` explicit-state model checker over every registry
//! design's abstract FIFO protocol model at its formal capacities, over
//! the controller specifications (the DV Petri nets and the burst-mode
//! token controllers), and over the heterogeneous-chain twin — all
//! exhaustively, with per-configuration state counts and per-property
//! verdicts.
//!
//! ```text
//! cargo run --release -p mtf-bench --bin formal [--json]
//! ```
//!
//! `--json` emits one `mtf-bench-report-v1` line; `cargo test` pins it
//! byte for byte to `golden/formal.json`
//! (`crates/bench/tests/stdout_pins.rs`) so a changed verdict *or* a
//! changed state count shows up in review. Any disproven property exits non-zero, as does a
//! state space that blows past its budget ceiling (the counts are part
//! of the contract: these models are supposed to stay tiny).

use mtf_bench::json::Json;
use mtf_bench::report::{DesignEntry, Run};
use mtf_core::design::DesignRegistry;
use mtf_core::FifoParams;
use mtf_lint::extract_state_elements;
use mtf_mc::designs::{check_all, check_controllers, SYNC_STAGES};
use mtf_mc::{check_chain, ChainModel, Property, Verdict};

/// Ceilings the explored spaces must stay under (state-count budget
/// assertions — far above today's numbers, tight enough that an
/// accidental state-space blowup fails CI instead of slowing it).
const FIFO_STATE_CEILING: usize = 1 << 20;
const CTRL_STATE_CEILING: usize = 1 << 10;
const CHAIN_STATE_CEILING: usize = 1 << 22;

/// One configuration's verdicts in both report forms: the text column
/// (`p=proven` or `p=DISPROVEN`, space-separated) and the JSON fields
/// (`p: 1` or `p: 0`), in property order.
fn verdicts(verdicts: &[(Property, Verdict)]) -> (String, Vec<(&'static str, f64)>) {
    let text: Vec<String> = verdicts
        .iter()
        .map(|(p, v)| {
            let word = if v.holds() { "proven" } else { "DISPROVEN" };
            format!("{}={word}", p.name())
        })
        .collect();
    let fields = verdicts
        .iter()
        .map(|(p, v)| (p.name(), if v.holds() { 1.0 } else { 0.0 }))
        .collect();
    (text.join(" "), fields)
}

fn main() {
    let mut run = Run::start("formal", &["--json"]);
    let json = !run.text();

    if !json {
        println!("Exhaustive model checking over the design registry");
        println!("(abstract FIFO protocol models at sync_stages = {SYNC_STAGES})");
        println!();
    }

    // Per-design FIFO protocol models.
    let checks = check_all().unwrap_or_else(|e| run.abort(e));
    for dc in &checks {
        let design = DesignRegistry::of(dc.kind);
        // `FifoParams` floors netlist capacities at 3; the 2-place model
        // capacity rides along as a measurement.
        let params = FifoParams::with_sync_stages(dc.capacity.max(3), 8, SYNC_STAGES);
        let state_bits = extract_state_elements(design, params)
            .map(|s| s.total_bits)
            .unwrap_or(0);
        let states = dc.check.space.len();
        if states > FIFO_STATE_CEILING {
            run.abort(format_args!(
                "{} c{} exploded to {states} states (ceiling {FIFO_STATE_CEILING})",
                dc.kind.name(),
                dc.capacity
            ));
        }
        let (text, fields) = verdicts(&dc.check.verdicts);
        let mut e = DesignEntry::new(design, params)
            .with("model_capacity", dc.capacity as f64)
            .with("states", states as f64)
            .with("transitions", dc.check.space.edge_count() as f64)
            .with("state_bits", state_bits as f64);
        for (p, x) in fields {
            e = e.with(p, x);
        }
        run.report.entries.push(e);
        if !json {
            println!(
                "{:>15} c{}: {:>6} states {:>7} transitions ({} netlist state bits) | {}",
                dc.kind.name(),
                dc.capacity,
                states,
                dc.check.space.edge_count(),
                state_bits,
                text
            );
        }
        if let Some(cx) = dc.check.first_counterexample() {
            run.fail(format_args!("{} c{}: {cx}", dc.kind.name(), dc.capacity));
        }
    }

    // Controller specifications.
    let (stg, bm) =
        check_controllers().unwrap_or_else(|e| run.abort(format_args!("controllers: {e}")));
    let mut ctrl_notes = Vec::new();
    if !json {
        println!();
    }
    for (class, name, states, clean, vs) in stg
        .iter()
        .map(|c| ("stg", &c.name, c.space.len(), c.is_clean(), &c.verdicts))
        .chain(
            bm.iter()
                .map(|c| ("bm", &c.name, c.space.len(), c.is_clean(), &c.verdicts)),
        )
    {
        if states > CTRL_STATE_CEILING {
            run.abort(format_args!(
                "controller {name} exploded to {states} states"
            ));
        }
        if !clean {
            run.fail(format_args!("controller {name} is not clean"));
        }
        let (text, fields) = verdicts(vs);
        if !json {
            println!("{name:>15} ({class}): {states:>3} states | {text}");
        }
        let mut pairs = vec![
            ("name".to_string(), Json::str(name)),
            ("class".to_string(), Json::str(class)),
            ("states".to_string(), Json::Num(states as f64)),
        ];
        for (p, x) in fields {
            pairs.push((p.to_string(), Json::Num(x)));
        }
        ctrl_notes.push(Json::Obj(pairs));
    }

    // The heterogeneous-chain twin.
    let chain_model = ChainModel::new(3, 4, SYNC_STAGES);
    let chain = check_chain(&chain_model, CHAIN_STATE_CEILING)
        .unwrap_or_else(|e| run.abort(format_args!("chain: {e}")));
    if let Some(cx) = chain.first_counterexample() {
        run.fail(format_args!("{}: {cx}", chain.name));
    }
    let (text, fields) = verdicts(&chain.verdicts);
    if !json {
        println!();
        println!(
            "{:>15}: {:>6} states {:>7} transitions | {text}",
            chain.name,
            chain.space.len(),
            chain.space.edge_count(),
        );
    }
    let mut chain_pairs = vec![
        ("name".to_string(), Json::str(&chain.name)),
        ("states".to_string(), Json::Num(chain.space.len() as f64)),
        (
            "transitions".to_string(),
            Json::Num(chain.space.edge_count() as f64),
        ),
    ];
    for (p, x) in fields {
        chain_pairs.push((p.to_string(), Json::Num(x)));
    }

    let disproven = run.failures();
    let report = &mut run.report;
    report.note("controllers", Json::Arr(ctrl_notes));
    report.note("chain", Json::Obj(chain_pairs));
    report.note("disproven_total", Json::Num(disproven as f64));
    if !json {
        println!();
        if disproven == 0 {
            println!(
                "Registry formally clean: every property proven over the full \
                 reachable space of every configuration."
            );
        } else {
            println!(
                "FAIL: {disproven} disproven propert{}.",
                if disproven == 1 { "y" } else { "ies" }
            );
        }
    }
    run.finish()
}
