//! The compiled-netlist backend: region extraction and installation.
//!
//! The event kernel pays a queue round-trip for every gate evaluation.
//! Purely-synchronous portions of a netlist do not need that generality:
//! once the combinational cells are proven acyclic they can be levelized
//! and re-evaluated as rank-ordered straight-line code over a flat value
//! vector, with the timing wheel reduced to delivering clock edges and
//! boundary-net changes to a single [`CompiledEngine`] component.
//!
//! [`install_compiled`] analyses a finished [`Netlist`] against the live
//! [`Simulator`]:
//!
//! 1. **Eligibility** — a cell is compiled only if doing so cannot change
//!    observable behaviour. Combinational gates must be single-output,
//!    single-driver (tri-states share buses, so they stay on the event
//!    kernel) and carry their exact [`GateFunc`](crate::GateFunc). Edge-triggered cells
//!    must have an ideal metastability window: a flop that can consult
//!    the shared RNG must keep its event-driven wake schedule so the
//!    deterministic draw sequence is preserved. Latches, C-elements and
//!    behavioural macros are never compiled.
//! 2. **Acyclicity proof** — Tarjan SCC over the candidate gates. Any
//!    cyclic region is *refused* with a diagnostic citing the member
//!    cells, and those cells fall back to the event kernel (combinational
//!    feedback relies on the kernel's delta-cycle iteration to settle).
//! 3. **Levelization** — Kahn's algorithm orders the surviving gates so
//!    one in-order sweep settles the region per triggering change.
//! 4. **Installation** — the per-cell components are detached and one
//!    [`CompiledEngine`] is registered, watching exactly the region's
//!    boundary nets.
//!
//! The original components are only detached, never destroyed structurally:
//! the netlist, delay table and timing analyses are unaffected.

use std::collections::{HashMap, VecDeque};

use mtf_sim::{Logic, NetId, Simulator, Time};

use crate::engine::{CombNode, CompiledEngine, Flop, FlopCore};
use crate::kind::CellKind;
use crate::netlist::Netlist;
use crate::seq::BitFlopCore;
use crate::word::WordFlopCore;
use crate::InstanceId;

/// What [`install_compiled`] did to a netlist.
#[derive(Clone, Debug, Default)]
pub struct CompileReport {
    /// Combinational gates now evaluated by the compiled engine.
    pub compiled_gates: usize,
    /// Edge-triggered cells now evaluated by the compiled engine.
    pub compiled_flops: usize,
    /// Cells left on the event kernel (latches, synchronizers with a
    /// live metastability model, tri-states, macros, refused regions).
    pub event_cells: usize,
    /// Human-readable reasons for every refused region.
    pub diagnostics: Vec<String>,
}

impl CompileReport {
    /// True if an engine component was registered.
    pub fn installed(&self) -> bool {
        self.compiled_gates + self.compiled_flops > 0
    }
}

/// Tarjan's strongly-connected-components algorithm, iterative so deep
/// combinational chains cannot overflow the stack. Returns the SCCs of
/// the candidate-gate dependency graph.
fn tarjan_sccs(n: usize, adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNSEEN: usize = usize::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // (node, next child position) work list.
    let mut work: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if index[start] != UNSEEN {
            continue;
        }
        work.push((start, 0));
        while let Some(&mut (v, ref mut ci)) = work.last_mut() {
            if *ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *ci < adj[v].len() {
                let w = adj[v][*ci];
                *ci += 1;
                if index[w] == UNSEEN {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            work.pop();
            if let Some(&(parent, _)) = work.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let mut scc = Vec::new();
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w] = false;
                    scc.push(w);
                    if w == v {
                        break;
                    }
                }
                sccs.push(scc);
            }
        }
    }
    sccs
}

/// Formats a refused region's cell names in the lint style: sorted,
/// first eight shown, the rest summarised.
fn cite_cells(mut names: Vec<String>) -> String {
    names.sort();
    let total = names.len();
    let shown: Vec<&str> = names.iter().take(8).map(String::as_str).collect();
    let mut list = shown.join(", ");
    if total > 8 {
        list.push_str(&format!(", … ({total} total)"));
    }
    list
}

/// Compiles the eligible synchronous regions of `netlist` and installs a
/// [`CompiledEngine`] in `sim`, detaching the per-cell components it
/// replaces. Must be called after elaboration and before the simulation
/// runs. Returns what was compiled and why anything was refused.
pub fn install_compiled(sim: &mut Simulator, netlist: &Netlist, name: &str) -> CompileReport {
    let mut report = CompileReport::default();

    // ---- 1. eligibility --------------------------------------------------
    let mut comb_cand: Vec<usize> = Vec::new();
    let mut flop_cand: Vec<usize> = Vec::new();
    for (idx, inst) in netlist.instances().iter().enumerate() {
        let el = netlist.elab(InstanceId::from_index(idx));
        if el.component.is_none() {
            continue;
        }
        if inst.kind.is_combinational() && !inst.kind.is_tristate() {
            if el.func.is_some()
                && el.drivers.len() == 1
                && inst.outputs.len() == 1
                && inst.data_in.len() <= 8
                && !inst.data_in.is_empty()
                && sim.driver_count(inst.outputs[0]) == 1
            {
                comb_cand.push(idx);
            }
        } else if inst.kind.is_edge_triggered() {
            let Some(fl) = el.flop else { continue };
            let pins_ok = match inst.kind {
                CellKind::Dff => inst.data_in.len() == 1 && inst.outputs.len() == 1,
                CellKind::Etdff => inst.data_in.len() == 2 && inst.outputs.len() == 1,
                CellKind::Register => {
                    let w = inst.outputs.len();
                    w > 0 && (inst.data_in.len() == w || inst.data_in.len() == w + 1)
                }
                _ => false,
            };
            if fl.meta_ideal
                && pins_ok
                && inst.clock.is_some()
                && el.drivers.len() == inst.outputs.len()
                && inst.outputs.iter().all(|&o| sim.driver_count(o) == 1)
            {
                flop_cand.push(idx);
            }
        }
    }

    // ---- 2. acyclicity proof over the combinational candidates -----------
    let producer: HashMap<NetId, usize> = comb_cand
        .iter()
        .enumerate()
        .map(|(c, &idx)| (netlist.instances()[idx].outputs[0], c))
        .collect();
    let n = comb_cand.len();
    // adj[p] -> consumers of p's output (edge direction is irrelevant for
    // SCC detection; producer->consumer matches the Kahn pass below).
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut self_loop = vec![false; n];
    for (c, &idx) in comb_cand.iter().enumerate() {
        for &input in &netlist.instances()[idx].data_in {
            if let Some(&p) = producer.get(&input) {
                if p == c {
                    self_loop[c] = true;
                } else {
                    adj[p].push(c);
                }
            }
        }
    }
    let mut refused = vec![false; n];
    for scc in tarjan_sccs(n, &adj) {
        let cyclic = scc.len() > 1 || scc.iter().any(|&c| self_loop[c]);
        if !cyclic {
            continue;
        }
        for &c in &scc {
            refused[c] = true;
        }
        let names: Vec<String> = scc
            .iter()
            .map(|&c| netlist.instances()[comb_cand[c]].name.clone())
            .collect();
        report.diagnostics.push(format!(
            "{name}: refused combinational feedback region {{{}}} — cyclic regions \
             stay on the event kernel",
            cite_cells(names)
        ));
    }

    // ---- 3. levelization (Kahn) over the surviving gates -----------------
    let mut indeg = vec![0usize; n];
    for (p, outs) in adj.iter().enumerate() {
        if refused[p] {
            continue;
        }
        for &c in outs {
            if !refused[c] {
                indeg[c] += 1;
            }
        }
    }
    let mut queue: VecDeque<usize> = (0..n).filter(|&c| !refused[c] && indeg[c] == 0).collect();
    let mut topo: Vec<usize> = Vec::with_capacity(n);
    while let Some(c) = queue.pop_front() {
        topo.push(c);
        for &d in &adj[c] {
            if refused[d] {
                continue;
            }
            indeg[d] -= 1;
            if indeg[d] == 0 {
                queue.push_back(d);
            }
        }
    }
    debug_assert_eq!(
        topo.len(),
        n - refused.iter().filter(|&&r| r).count(),
        "levelization must cover every non-refused gate"
    );

    // ---- 4. build the engine tables --------------------------------------
    let mut slot_of: HashMap<NetId, u32> = HashMap::new();
    let mut slots: Vec<NetId> = Vec::new();
    fn slot(slot_of: &mut HashMap<NetId, u32>, slots: &mut Vec<NetId>, net: NetId) -> u32 {
        *slot_of.entry(net).or_insert_with(|| {
            slots.push(net);
            (slots.len() - 1) as u32
        })
    }

    let mut comb: Vec<CombNode> = Vec::with_capacity(topo.len());
    let mut compiled_instances: Vec<usize> = Vec::new();
    for &c in &topo {
        let idx = comb_cand[c];
        let inst = &netlist.instances()[idx];
        let el = netlist.elab(InstanceId::from_index(idx));
        comb.push(CombNode {
            func: el.func.expect("eligibility checked func"),
            inputs: inst
                .data_in
                .iter()
                .map(|&i| slot(&mut slot_of, &mut slots, i))
                .collect(),
            out_slot: slot(&mut slot_of, &mut slots, inst.outputs[0]),
            driver: el.drivers[0],
            inst: idx,
            pending: None,
        });
        compiled_instances.push(idx);
    }

    let mut flops: Vec<Flop> = Vec::with_capacity(flop_cand.len());
    for &idx in &flop_cand {
        let inst = &netlist.instances()[idx];
        let el = netlist.elab(InstanceId::from_index(idx));
        let fl = el.flop.expect("eligibility checked flop");
        let clk = slot(
            &mut slot_of,
            &mut slots,
            inst.clock.expect("eligibility checked clock"),
        );
        // An enable, when present, is the first data-side pin.
        let (en_net, d_nets) = if inst.data_in.len() > inst.outputs.len() {
            (Some(inst.data_in[0]), &inst.data_in[1..])
        } else {
            (None, &inst.data_in[..])
        };
        let en = en_net.map(|n| slot(&mut slot_of, &mut slots, n));
        let d = d_nets
            .iter()
            .map(|&n| slot(&mut slot_of, &mut slots, n))
            .collect();
        let q = inst
            .outputs
            .iter()
            .zip(&el.drivers)
            .map(|(&q, &drv)| (drv, slot(&mut slot_of, &mut slots, q)))
            .collect();
        let name = inst.name.clone();
        let core = match inst.kind {
            CellKind::Dff | CellKind::Etdff => {
                let init = inst.init.unwrap_or(Logic::X);
                FlopCore::Bit(BitFlopCore::new(name, d_nets[0], en_net, init, fl.timing))
            }
            CellKind::Register => FlopCore::Word(WordFlopCore::new(
                name,
                en_net,
                d_nets.to_vec(),
                fl.timing.setup,
            )),
            _ => unreachable!("eligibility restricted flop kinds"),
        };
        let flop = Flop {
            core,
            clk,
            prev_clk: Logic::X,
            last_rise: Time::MAX,
            en,
            d,
            q,
            inst: idx,
            pending: None,
        };
        flops.push(flop);
        compiled_instances.push(idx);
    }

    report.compiled_gates = comb.len();
    report.compiled_flops = flops.len();
    report.event_cells = netlist.len() - comb.len() - flops.len();
    if !report.installed() {
        return report;
    }

    // Fanout: slot -> dependent node refs; internal = slots produced by a
    // compiled node, boundary = everything else the region reads.
    let ncomb = comb.len();
    let mut fanout: Vec<Vec<u32>> = vec![Vec::new(); slots.len()];
    let mut internal = vec![false; slots.len()];
    for (i, node) in comb.iter().enumerate() {
        internal[node.out_slot as usize] = true;
        for &s in &node.inputs {
            fanout[s as usize].push(i as u32);
        }
    }
    for (j, flop) in flops.iter().enumerate() {
        let r = (ncomb + j) as u32;
        for &(_, s) in &flop.q {
            internal[s as usize] = true;
        }
        for s in std::iter::once(flop.clk)
            .chain(flop.en)
            .chain(flop.d.iter().copied())
        {
            fanout[s as usize].push(r);
        }
    }
    let boundary: Vec<u32> = (0..slots.len() as u32)
        .filter(|&s| !internal[s as usize])
        .collect();
    let values: Vec<Logic> = slots.iter().map(|&n| sim.value(n)).collect();

    // ---- 5. install ------------------------------------------------------
    for &idx in &compiled_instances {
        let comp = netlist
            .elab(InstanceId::from_index(idx))
            .component
            .expect("eligibility checked component");
        sim.detach_component(comp);
    }
    let engine = CompiledEngine::new(
        name.to_string(),
        slots,
        values,
        boundary,
        fanout,
        comb,
        flops,
        netlist.delay_table(),
    );
    let watch = engine.boundary_nets();
    sim.add_component(Box::new(engine), &watch);
    report
}
