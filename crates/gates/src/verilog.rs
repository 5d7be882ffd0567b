//! Structural Verilog export of generated netlists.
//!
//! The designs in this workspace exist as simulator components plus a
//! structural [`Netlist`]; this module renders the structural view as a
//! self-contained Verilog-2001 file — primitive gates as `assign`s,
//! sequential and state-holding cells as instantiations of a small
//! behavioural library emitted into the same file, tri-state drivers as
//! conditional assigns onto shared wires, and behavioural controller
//! macros as black-box instantiations (annotated with their specification
//! names so they can be replaced by synthesized equivalents).
//!
//! The output is meant for inspection, waveform-viewer cross-checks and as
//! a starting point for an RTL port; it is not run through a Verilog
//! simulator in this repository's CI.

use std::collections::HashMap;
use std::fmt::Write as _;

use mtf_sim::{NetId, Simulator};

use crate::kind::CellKind;
use crate::netlist::Netlist;

/// Direction of an exported port.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PortDir {
    /// Module input.
    Input,
    /// Module output.
    Output,
}

/// One exported port: a name, the nets it exposes (LSB first for buses),
/// and its direction.
#[derive(Clone, Debug)]
pub struct Port {
    /// Port name in the emitted module.
    pub name: String,
    /// The nets behind it.
    pub nets: Vec<NetId>,
    /// Direction.
    pub dir: PortDir,
}

impl Port {
    /// A single-bit input port.
    pub fn input(name: impl Into<String>, net: NetId) -> Self {
        Port {
            name: name.into(),
            nets: vec![net],
            dir: PortDir::Input,
        }
    }

    /// A multi-bit input port.
    pub fn input_bus(name: impl Into<String>, nets: &[NetId]) -> Self {
        Port {
            name: name.into(),
            nets: nets.to_vec(),
            dir: PortDir::Input,
        }
    }

    /// A single-bit output port.
    pub fn output(name: impl Into<String>, net: NetId) -> Self {
        Port {
            name: name.into(),
            nets: vec![net],
            dir: PortDir::Output,
        }
    }

    /// A multi-bit output port.
    pub fn output_bus(name: impl Into<String>, nets: &[NetId]) -> Self {
        Port {
            name: name.into(),
            nets: nets.to_vec(),
            dir: PortDir::Output,
        }
    }
}

fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if s.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        s.insert(0, 'n');
    }
    s
}

/// Renders `netlist` as a Verilog module named `module_name`.
///
/// Net names come from the simulator (sanitized and uniquified). Ports
/// map external interface nets to module ports; every other net becomes a
/// local `wire`.
pub fn to_verilog(module_name: &str, netlist: &Netlist, sim: &Simulator, ports: &[Port]) -> String {
    // Assign every referenced net a unique identifier.
    let mut names: HashMap<usize, String> = HashMap::new();
    let mut used: HashMap<String, usize> = HashMap::new();
    let mut name_of = |net: NetId| -> String {
        if let Some(n) = names.get(&net.index()) {
            return n.clone();
        }
        let base = sanitize(sim.net_name(net));
        let n = match used.get_mut(&base) {
            Some(count) => {
                *count += 1;
                format!("{base}_{count}")
            }
            None => {
                used.insert(base.clone(), 0);
                base
            }
        };
        names.insert(net.index(), n.clone());
        n
    };

    // Ports claim their names first (bus ports index into a vector net).
    let mut port_decl = Vec::new();
    let mut port_map: HashMap<usize, String> = HashMap::new();
    for p in ports {
        let dir = match p.dir {
            PortDir::Input => "input",
            PortDir::Output => "output",
        };
        let pname = sanitize(&p.name);
        if p.nets.len() == 1 {
            port_decl.push(format!("    {dir} {pname}"));
            port_map.insert(p.nets[0].index(), pname);
        } else {
            port_decl.push(format!("    {dir} [{}:0] {pname}", p.nets.len() - 1));
            for (i, n) in p.nets.iter().enumerate() {
                port_map.insert(n.index(), format!("{pname}[{i}]"));
            }
        }
    }
    let mut name_for = |net: NetId| -> String {
        port_map
            .get(&net.index())
            .cloned()
            .unwrap_or_else(|| name_of(net))
    };

    let mut body = String::new();
    let mut wires: Vec<String> = Vec::new();
    let mut lib_needed: std::collections::BTreeSet<&'static str> = Default::default();

    for (idx, inst) in netlist.instances().iter().enumerate() {
        let ins: Vec<String> = inst.data_in.iter().map(|&n| name_for(n)).collect();
        let outs: Vec<String> = inst.outputs.iter().map(|&n| name_for(n)).collect();
        let clk = inst.clock.map(&mut name_for);
        for (o, &net) in outs.iter().zip(&inst.outputs) {
            if !port_map.contains_key(&net.index()) && !wires.contains(o) {
                wires.push(o.clone());
            }
        }
        let iname = format!("u{idx}_{}", sanitize(&inst.name));
        match inst.kind {
            CellKind::Buf => {
                let _ = writeln!(body, "  assign {} = {};", outs[0], ins[0]);
            }
            CellKind::Inv => {
                let _ = writeln!(body, "  assign {} = ~{};", outs[0], ins[0]);
            }
            CellKind::And => {
                let _ = writeln!(body, "  assign {} = {};", outs[0], ins.join(" & "));
            }
            CellKind::Or => {
                let _ = writeln!(body, "  assign {} = {};", outs[0], ins.join(" | "));
            }
            CellKind::Nand => {
                let _ = writeln!(body, "  assign {} = ~({});", outs[0], ins.join(" & "));
            }
            CellKind::Nor => {
                let _ = writeln!(body, "  assign {} = ~({});", outs[0], ins.join(" | "));
            }
            CellKind::Xor => {
                let _ = writeln!(body, "  assign {} = {} ^ {};", outs[0], ins[0], ins[1]);
            }
            CellKind::Mux2 => {
                let _ = writeln!(
                    body,
                    "  assign {} = {} ? {} : {};",
                    outs[0], ins[0], ins[2], ins[1]
                );
            }
            CellKind::TriBuf | CellKind::TriWord => {
                for (bit, o) in outs.iter().enumerate() {
                    let _ = writeln!(
                        body,
                        "  assign {} = {} ? {} : 1'bz;",
                        o,
                        ins[0],
                        ins[bit + 1]
                    );
                }
            }
            CellKind::Dff => {
                lib_needed.insert("MTF_DFF");
                let _ = writeln!(
                    body,
                    "  MTF_DFF {iname} (.q({}), .clk({}), .d({}));",
                    outs[0],
                    clk.as_deref().unwrap_or("1'b0"),
                    ins[0]
                );
            }
            CellKind::Etdff => {
                lib_needed.insert("MTF_ETDFF");
                let _ = writeln!(
                    body,
                    "  MTF_ETDFF {iname} (.q({}), .clk({}), .en({}), .d({}));",
                    outs[0],
                    clk.as_deref().unwrap_or("1'b0"),
                    ins[0],
                    ins[1]
                );
            }
            CellKind::Register => {
                lib_needed.insert("MTF_ETDFF");
                let has_en = inst.data_in.len() > inst.outputs.len();
                for (bit, o) in outs.iter().enumerate() {
                    let d = if has_en { &ins[bit + 1] } else { &ins[bit] };
                    let en = if has_en { ins[0].as_str() } else { "1'b1" };
                    let _ = writeln!(
                        body,
                        "  MTF_ETDFF {iname}_{bit} (.q({o}), .clk({}), .en({en}), .d({d}));",
                        clk.as_deref().unwrap_or("1'b0"),
                    );
                }
            }
            CellKind::LatchWord => {
                lib_needed.insert("MTF_DLATCH");
                for (bit, o) in outs.iter().enumerate() {
                    let _ = writeln!(
                        body,
                        "  MTF_DLATCH {iname}_{bit} (.q({o}), .en({}), .d({}));",
                        ins[0],
                        ins[bit + 1]
                    );
                }
            }
            CellKind::SrLatch => {
                lib_needed.insert("MTF_SRLATCH");
                let qn = outs.get(1).cloned().unwrap_or_default();
                let qn_conn = if qn.is_empty() {
                    String::new()
                } else {
                    format!(", .qn({qn})")
                };
                let _ = writeln!(
                    body,
                    "  MTF_SRLATCH {iname} (.q({}){qn_conn}, .s({}), .r({}));",
                    outs[0], ins[0], ins[1]
                );
            }
            CellKind::CElement => {
                lib_needed.insert("MTF_CELEM2");
                // N-input C-elements expand to a tree of 2-input ones is
                // behaviourally wrong (hysteresis); emit a generic
                // reduction instance instead.
                let _ = writeln!(
                    body,
                    "  MTF_CELEM2 {iname} (.y({}), .a({}), .b({}));",
                    outs[0],
                    ins[0],
                    if ins.len() > 1 {
                        ins[1].clone()
                    } else {
                        ins[0].clone()
                    }
                );
                if ins.len() > 2 {
                    let _ = writeln!(
                        body,
                        "  // NOTE: {iname} has {} inputs; widen MTF_CELEM2 accordingly.",
                        ins.len()
                    );
                }
            }
            CellKind::AsymCElement => {
                lib_needed.insert("MTF_ACELEM");
                let common: Vec<_> = ins[..inst.asym_common].to_vec();
                let plus: Vec<_> = ins[inst.asym_common..].to_vec();
                let _ =
                    writeln!(
                    body,
                    "  MTF_ACELEM #(.NC({}), .NP({})) {iname} (.y({}), .c({{{}}}), .p({{{}}}));",
                    common.len(),
                    plus.len().max(1),
                    outs[0],
                    common.join(", "),
                    if plus.is_empty() { "1'b1".to_string() } else { plus.join(", ") },
                );
            }
            CellKind::Macro => {
                let _ = writeln!(
                    body,
                    "  // black box: behavioural controller '{}' — replace with its\n  \
                     // synthesized implementation (see mtf-async specifications).\n  \
                     MTF_MACRO_{} {iname} (/* in */ {}, /* out */ {});",
                    inst.name,
                    sanitize(&inst.name),
                    ins.join(", "),
                    outs.join(", "),
                );
            }
            #[allow(unreachable_patterns)] // `CellKind` is non-exhaustive
            _ => {
                let _ = writeln!(body, "  // unsupported cell kind {:?}", inst.kind);
            }
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "// Generated by mtf-gates from the '{module_name}' netlist."
    );
    let _ = writeln!(out, "// {} instances.", netlist.len());
    let _ = writeln!(out, "`timescale 1ps/1ps\n");
    let _ = writeln!(out, "module {module_name} (");
    let names: Vec<String> = ports.iter().map(|p| sanitize(&p.name)).collect();
    let _ = writeln!(out, "    {}", names.join(",\n    "));
    let _ = writeln!(out, ");");
    for d in &port_decl {
        let _ = writeln!(out, "{d};");
    }
    let _ = writeln!(out);
    for w in &wires {
        let _ = writeln!(out, "  wire {w};");
    }
    let _ = writeln!(out);
    out.push_str(&body);
    let _ = writeln!(out, "endmodule\n");

    // Behavioural library for the cells used.
    for lib in lib_needed {
        out.push_str(library(lib));
    }
    out
}

fn library(name: &str) -> &'static str {
    match name {
        "MTF_DFF" => {
            "module MTF_DFF (output reg q, input clk, input d);\n  \
             initial q = 1'b0;\n  always @(posedge clk) q <= d;\nendmodule\n\n"
        }
        "MTF_ETDFF" => {
            "module MTF_ETDFF (output reg q, input clk, input en, input d);\n  \
             initial q = 1'b0;\n  always @(posedge clk) if (en) q <= d;\nendmodule\n\n"
        }
        "MTF_DLATCH" => {
            "module MTF_DLATCH (output reg q, input en, input d);\n  \
             initial q = 1'b0;\n  always @* if (en) q = d;\nendmodule\n\n"
        }
        "MTF_SRLATCH" => {
            "module MTF_SRLATCH (output reg q, output qn, input s, input r);\n  \
             initial q = 1'b0;\n  assign qn = ~q;\n  \
             always @* begin\n    if (s) q = 1'b1;\n    else if (r) q = 1'b0;\n  end\nendmodule\n\n"
        }
        "MTF_CELEM2" => {
            "module MTF_CELEM2 (output reg y, input a, input b);\n  \
             initial y = 1'b0;\n  always @* begin\n    if (a & b) y = 1'b1;\n    \
             else if (~a & ~b) y = 1'b0;\n  end\nendmodule\n\n"
        }
        "MTF_ACELEM" => {
            "module MTF_ACELEM #(parameter NC = 1, parameter NP = 1)\n  \
             (output reg y, input [NC-1:0] c, input [NP-1:0] p);\n  \
             initial y = 1'b0;\n  always @* begin\n    if (&c & &p) y = 1'b1;\n    \
             else if (~|c) y = 1'b0;\n  end\nendmodule\n\n"
        }
        _ => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Builder;
    use mtf_sim::Logic;

    fn small_circuit() -> (Simulator, Netlist, Vec<Port>) {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        let clk = b.input("clk");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        let q = b.dff(clk, y, Logic::L);
        let (s, r) = (b.input("s"), b.input("r"));
        let (sq, _) = b.sr_latch_qn(s, r, Logic::L);
        let bus = b.input("bus");
        b.tribuf_onto(q, sq, bus);
        let nl = b.finish();
        let ports = vec![
            Port::input("clk", clk),
            Port::input("a", a),
            Port::input("b", c),
            Port::input("s", s),
            Port::input("r", r),
            Port::output("bus", bus),
            Port::output("q", q),
        ];
        (sim, nl, ports)
    }

    #[test]
    fn emits_well_formed_module() {
        let (sim, nl, ports) = small_circuit();
        let v = to_verilog("small", &nl, &sim, &ports);
        assert!(v.contains("module small ("));
        assert!(v.contains("endmodule"));
        assert!(v.contains("input clk;"));
        assert!(v.contains("output bus;"));
        assert!(v.contains("assign"), "the AND gate becomes an assign");
        assert!(
            v.contains("MTF_DFF"),
            "the flop instantiates the library cell"
        );
        assert!(v.contains("MTF_SRLATCH"));
        assert!(v.contains("1'bz"), "tri-state conditional assign");
        assert!(v.contains("module MTF_DFF"), "library emitted");
        assert!(v.contains("module MTF_SRLATCH"));
    }

    #[test]
    fn port_buses_are_indexed() {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        let d = b.input_bus("d", 4);
        let clk = b.input("clk");
        let q = b.register(clk, None, &d);
        let nl = b.finish();
        let ports = vec![
            Port::input("clk", clk),
            Port::input_bus("d", &d),
            Port::output_bus("q", &q),
        ];
        let v = to_verilog("reg4", &nl, &sim, &ports);
        assert!(v.contains("input [3:0] d;"));
        assert!(v.contains("output [3:0] q;"));
        assert!(v.contains(".d(d[2])"), "bit-indexed connections:\n{v}");
        assert!(v.contains(".q(q[3])"));
    }

    #[test]
    fn whole_fifo_exports() {
        // The real target: a complete mixed-clock FIFO netlist.
        let mut sim = Simulator::new(0);
        let clk_put = sim.net("clk_put");
        let clk_get = sim.net("clk_get");
        let mut b = Builder::new(&mut sim);
        // Build something representative without depending on mtf-core
        // (which sits above this crate): a few cells of each family.
        let en = b.input("en");
        let d = b.input_bus("din", 8);
        let q = b.register(clk_put, Some(en), &d);
        let bus = b.input_bus("bus", 8);
        b.tri_word_onto(en, &q, &bus);
        let s = b.sync_chain(clk_get, en, 2, Logic::L);
        let y = b.acelement(&[en], &[s], Logic::L);
        let _ = b.celement(&[en, y], Logic::L);
        let nl = b.finish();
        let ports = vec![
            Port::input("clk_put", clk_put),
            Port::input("clk_get", clk_get),
            Port::input("en", en),
            Port::input_bus("din", &d),
            Port::output_bus("bus", &bus),
        ];
        let v = to_verilog("mixed_cells", &nl, &sim, &ports);
        // Every instance appears (assigns or instantiations).
        let instance_lines = v
            .lines()
            .filter(|l| l.trim_start().starts_with("assign") || l.trim_start().starts_with("MTF_"));
        assert!(instance_lines.count() >= nl.len());
        assert!(v.contains("MTF_ACELEM"));
        assert!(v.contains("module MTF_ACELEM"));
    }
}
