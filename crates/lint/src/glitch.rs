//! Pass 4 — glitch-prone combinational cones feeding hazard-sensitive
//! sinks.
//!
//! A synchronous flop only samples on the clock edge, so a glitch in its
//! data cone is harmless if it settles before setup. Level-sensitive and
//! asynchronous sinks have no such shield: a latch enable, an SR latch
//! set/reset pin, a C-element input or a token/burst-mode controller
//! input *acts* on every transition it sees. The paper's full/empty
//! detectors must therefore be glitch-free **by construction**
//! (Sec. 3.2) — this pass checks that claim structurally.
//!
//! A cone is flagged when it can produce a static hazard at the sink:
//!
//! * **reconvergent fanout** — some cone input reaches the sink along
//!   two or more distinct paths, so one input transition can race
//!   against itself (the classic static-hazard topology); or
//! * **non-monotone gates** — an `XOR`/`MUX2` in the cone, whose output
//!   can pulse on a single monotone input transition regardless of
//!   topology.
//!
//! Single-path monotone cones — however wide their fan-in — cannot
//! generate a static hazard from a single input transition, so the
//! detectors' wide AND/OR trees pass without waivers exactly when the
//! paper's construction holds.

use std::collections::{HashMap, HashSet};

use mtf_gates::{CellKind, InstanceId};

use crate::findings::Finding;
use crate::model::LintModel;

/// The hazard-sensitive input pins of an instance: `(pin label, net)`.
fn sensitive_pins(model: &LintModel<'_>, id: InstanceId) -> Vec<(&'static str, usize)> {
    let inst = model.inst(id);
    let pin = |i: usize| inst.data_in[i].index();
    match inst.kind {
        CellKind::LatchWord => vec![("en", pin(0))],
        CellKind::SrLatch => vec![("s", pin(0)), ("r", pin(1))],
        CellKind::CElement | CellKind::AsymCElement | CellKind::Macro => {
            inst.data_in.iter().map(|n| ("in", n.index())).collect()
        }
        _ => Vec::new(),
    }
}

/// The combinational cone behind `sink`: every comb cell backward-
/// reachable from it. Returns the cell set; walk terminates at
/// sequential cells, macros and undriven/external nets.
fn cone(model: &LintModel<'_>, sink: usize) -> HashSet<InstanceId> {
    let mut cells = HashSet::new();
    let mut stack = vec![sink];
    let mut seen = HashSet::new();
    while let Some(n) = stack.pop() {
        if !seen.insert(n) {
            continue;
        }
        for &d in &model.drivers[n] {
            if model.inst(d).kind.is_combinational() && cells.insert(d) {
                for &i in &model.inst(d).data_in {
                    stack.push(i.index());
                }
            }
        }
    }
    cells
}

/// Counts distinct paths (capped at 2) from net `from` to net `sink`
/// through `cells`. Memoized DFS; a cycle contributes no simple path
/// (the comb-loop pass owns that finding).
fn paths_to_sink(
    model: &LintModel<'_>,
    cells: &HashSet<InstanceId>,
    from: usize,
    sink: usize,
    memo: &mut HashMap<usize, usize>,
    on_stack: &mut HashSet<usize>,
) -> usize {
    if from == sink {
        return 1;
    }
    if let Some(&v) = memo.get(&from) {
        return v;
    }
    if !on_stack.insert(from) {
        return 0;
    }
    let mut total = 0usize;
    for &c in &model.loads[from] {
        if !cells.contains(&c) {
            continue;
        }
        let inst = model.inst(c);
        if !inst.data_in.iter().any(|n| n.index() == from) {
            continue; // reached through a clock pin, not a data pin
        }
        for &o in &inst.outputs {
            total = (total + paths_to_sink(model, cells, o.index(), sink, memo, on_stack)).min(2);
            if total >= 2 {
                break;
            }
        }
        if total >= 2 {
            break;
        }
    }
    on_stack.remove(&from);
    memo.insert(from, total);
    total
}

/// Runs the pass: one finding per hazard-prone (sink instance, pin).
pub fn run(model: &LintModel<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for idx in 0..model.netlist.len() {
        let id = InstanceId::from_index(idx);
        for (pin_label, sink) in sensitive_pins(model, id) {
            let cells = cone(model, sink);
            if cells.is_empty() {
                continue; // pin wired straight to a sequential cell or port
            }

            let non_monotone: Vec<&str> = {
                let mut v: Vec<&str> = cells
                    .iter()
                    .filter(|&&c| matches!(model.inst(c).kind, CellKind::Xor | CellKind::Mux2))
                    .map(|&c| model.inst(c).name.as_str())
                    .collect();
                v.sort_unstable();
                v
            };

            // Cone inputs: nets feeding cone cells but not driven by one.
            let mut inputs: Vec<usize> = Vec::new();
            for &c in &cells {
                for &n in &model.inst(c).data_in {
                    let n = n.index();
                    let from_cone = model.drivers[n].iter().any(|d| cells.contains(d));
                    if !from_cone && !inputs.contains(&n) {
                        inputs.push(n);
                    }
                }
            }
            inputs.sort_unstable();

            let mut reconvergent: Option<usize> = None;
            for &i in &inputs {
                let mut memo = HashMap::new();
                let mut on_stack = HashSet::new();
                if paths_to_sink(model, &cells, i, sink, &mut memo, &mut on_stack) >= 2 {
                    reconvergent = Some(i);
                    break;
                }
            }

            let sink_inst = model.inst(id);
            if let Some(net) = reconvergent {
                findings.push(Finding {
                    pass: "glitch",
                    check: "reconvergence",
                    location: format!("{}.{}", sink_inst.name, pin_label),
                    message: format!(
                        "cone input '{}' reconverges (≥ 2 distinct paths) into \
                         this level-sensitive pin of a {} — a single transition \
                         can race itself into a glitch",
                        model.net_name(net),
                        sink_inst.kind
                    ),
                });
            }
            if let Some(first) = non_monotone.first() {
                findings.push(Finding {
                    pass: "glitch",
                    check: "non_monotone",
                    location: format!("{}.{}", sink_inst.name, pin_label),
                    message: format!(
                        "non-monotone gate(s) (e.g. '{first}') in the cone \
                         feeding this level-sensitive pin of a {} can pulse on \
                         a single input transition",
                        sink_inst.kind
                    ),
                });
            }
        }
    }
    findings
}
