//! Exports the paper's four designs (plus the two extensions) as
//! structural Verilog, one file each, into the working directory.
//!
//! ```text
//! cargo run -p mtf-bench --bin export_verilog --release [-- <capacity> <width>]
//! ```
//!
//! Both positionals default to 8. A non-numeric or unbuildable point
//! prints one line on stderr and exits 2 without writing a file.
//!
//! The export loop iterates the design registry: any design registered in
//! [`DesignRegistry::paper`] is exported with a port list derived from its
//! interface specs — clocks first, then the put side, then the get side.
//! `--json` emits one structured
//! [`ExperimentReport`](mtf_bench::report::ExperimentReport)
//! (files are still written).

use mtf_bench::args::{ArgError, Args};
use mtf_bench::harness::Harness;
use mtf_bench::json::Json;
use mtf_bench::report::{DesignEntry, Run};
use mtf_core::design::DesignRegistry;
use mtf_core::{DesignPorts, FifoParams, InterfaceSpec, MixedTimingDesign};
use mtf_gates::{to_verilog, Port};

/// The Verilog module name: registry name, with `_fifo` appended for the
/// FIFO designs (the relay stations already carry their `_rs` suffix).
fn module_name(design: &dyn MixedTimingDesign) -> String {
    let name = design.kind().name();
    if name.ends_with("_rs") {
        name.to_string()
    } else {
        format!("{name}_fifo")
    }
}

/// The exported port list, derived from the design's interface specs:
/// clocks first, then the put side, then the get side (the paper's
/// figure-2 ordering). Asynchronous buses keep the `put_data`/`get_data`
/// spelling, clocked ones `data_put`/`data_get`.
fn port_list(ports: &DesignPorts) -> Vec<Port> {
    let mut v = Vec::new();
    if let Some(c) = ports.clk_put {
        v.push(Port::input("clk_put", c));
    }
    if let Some(c) = ports.clk_get {
        v.push(Port::input("clk_get", c));
    }
    match ports.put_spec() {
        InterfaceSpec::SyncFifo { .. } => {
            v.push(Port::input("req_put", ports.req_put.expect("sync put")));
            v.push(Port::input_bus("data_put", &ports.data_put));
            v.push(Port::output("full", ports.full.expect("sync put")));
        }
        InterfaceSpec::Async4Phase { .. } => {
            v.push(Port::input("put_req", ports.put_req.expect("async put")));
            v.push(Port::input_bus("put_data", &ports.data_put));
            v.push(Port::output("put_ack", ports.put_ack.expect("async put")));
        }
        InterfaceSpec::SyncStream { .. } => {
            v.push(Port::input("valid_in", ports.valid_in.expect("stream put")));
            v.push(Port::input_bus("data_put", &ports.data_put));
            v.push(Port::output(
                "stop_out",
                ports.stop_out.expect("stream put"),
            ));
        }
    }
    match ports.get_spec() {
        InterfaceSpec::SyncFifo { .. } => {
            v.push(Port::input("req_get", ports.req_get.expect("sync get")));
            v.push(Port::output_bus("data_get", &ports.data_get));
            v.push(Port::output(
                "valid_get",
                ports.valid_get.expect("sync get"),
            ));
            if let Some(e) = ports.empty {
                v.push(Port::output("empty", e));
            }
        }
        InterfaceSpec::Async4Phase { .. } => {
            v.push(Port::input("get_req", ports.get_req.expect("async get")));
            v.push(Port::output_bus("get_data", &ports.data_get));
            v.push(Port::output("get_ack", ports.get_ack.expect("async get")));
        }
        InterfaceSpec::SyncStream { .. } => {
            v.push(Port::input("stop_in", ports.stop_in.expect("stream get")));
            v.push(Port::output_bus("data_get", &ports.data_get));
            v.push(Port::output(
                "valid_get",
                ports.valid_get.expect("stream get"),
            ));
        }
    }
    v
}

/// The `i`-th positional as a number, `default` when absent. A malformed
/// value exits the program ([`ArgError::exit`]) before anything is
/// written.
fn positional_usize(args: &Args, i: usize, what: &str, default: usize) -> usize {
    match args.positional(i) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| ArgError(format!("{what} wants a number, got {v:?}")).exit()),
    }
}

fn main() {
    let mut run = Run::start("export_verilog", &["--json"]);
    let capacity = positional_usize(run.args(), 0, "capacity", 8);
    let width = positional_usize(run.args(), 1, "width", 8);
    let params =
        FifoParams::try_new(capacity, width).unwrap_or_else(|e| ArgError(e.to_string()).exit());
    if run.text() {
        println!("exporting {params} designs as structural Verilog:");
    }

    let mut files = Vec::new();
    for design in DesignRegistry::paper().iter() {
        let mut h = Harness::new(0);
        h.clock_nets(design.clocking());
        let ports = h.build(design, params).clone();
        let name = module_name(design);
        let plist = port_list(&ports);
        let path = format!("{name}.v");
        run.write(&path, to_verilog(&name, h.netlist(), &h.sim, &plist));
        if run.text() {
            println!("  wrote {path}");
        }
        run.report
            .entries
            .push(DesignEntry::new(design, params).with("ports", plist.len() as f64));
        files.push(Json::Str(path));
    }
    if run.text() {
        println!("note: behavioural controller macros (OPT/OGT/DV) are emitted as");
        println!("black boxes; their specifications live in mtf-async.");
    }
    run.report.note("files", Json::Arr(files));
    run.finish()
}
