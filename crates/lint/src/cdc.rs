//! Pass 1 — clock-domain inference and CDC synchronizer-depth checking.
//!
//! Every edge-triggered cell is coloured by the root of its clock tree
//! ([`LintModel::clock_root`]). For each single-bit destination flop
//! (`DFF`/`ETDFF`), the pass walks the combinational cone behind its data
//! pins back to the sequential sources that launch into it. A source in a
//! different domain — another clock, or an asynchronous state-holding
//! cell (the mixed-clock FIFO's SR-latch state bits are exactly this) —
//! makes the flop a clock-domain-crossing destination, and the pass then
//! requires it to head a synchronizer chain of depth ≥ 2: its sole output
//! feeding exactly one same-domain flop, paper Sec. 3.2's two-flop
//! synchronizer ("for arbitrary robustness, the designer might use
//! more").
//!
//! Word-level cells (`REG`/`LWORD`) are deliberately *not* destinations:
//! the paper's central argument is that immobile **data** needs no
//! synchronizers once the **control** plane is synchronized (Sec. 3.2) —
//! data validity is guaranteed by the synchronized full/empty protocol,
//! so the lint checks the control plane and leaves the data plane to the
//! protocol checkers in `mtf-core::env`.

use std::collections::HashSet;

use mtf_gates::{CellKind, InstanceId};

use crate::findings::Finding;
use crate::model::{Domain, LintModel};

/// Minimum synchronizer chain depth for a crossing destination.
pub const MIN_SYNC_DEPTH: usize = 2;

/// The synchronizer chain depth headed by `first`: how many single-bit
/// same-domain flops are chained output-to-data-pin starting at `first`,
/// each link's output loading *only* the next flop (a tap off the middle
/// of a chain re-exposes unsettled levels, so it breaks the chain).
fn sync_chain_depth(model: &LintModel<'_>, first: InstanceId, domain: Domain) -> usize {
    let mut depth = 1;
    let mut cur = first;
    loop {
        let inst = model.inst(cur);
        let [q] = inst.outputs.as_slice() else {
            return depth;
        };
        let qi = q.index();
        // External consumption (a declared port or a behavioural watcher
        // beyond the loading cells themselves) also taps the chain.
        if model.outputs.contains(&qi) {
            return depth;
        }
        let [next] = model.loads[qi].as_slice() else {
            return depth;
        };
        let ni = model.inst(*next);
        let is_stage = matches!(ni.kind, CellKind::Dff | CellKind::Etdff)
            && ni.data_in.contains(q)
            && model.launch_domain(*next) == Some(domain);
        if !is_stage {
            return depth;
        }
        depth += 1;
        cur = *next;
        if depth >= 64 {
            return depth; // defensive: a flop ring would loop forever
        }
    }
}

/// Runs the pass. Returns the findings and the number of distinct clock
/// domains inferred (asynchronous state cells count as one more domain
/// when present).
pub fn run(model: &LintModel<'_>) -> (Vec<Finding>, usize) {
    let mut findings = Vec::new();
    let mut domains: HashSet<Domain> = HashSet::new();
    for idx in 0..model.netlist.len() {
        let id = InstanceId::from_index(idx);
        if let Some(d) = model.launch_domain(id) {
            domains.insert(d);
        }
    }

    for idx in 0..model.netlist.len() {
        let id = InstanceId::from_index(idx);
        let inst = model.inst(id);
        if !matches!(inst.kind, CellKind::Dff | CellKind::Etdff) {
            continue;
        }
        let Some(dest) = model.launch_domain(id) else {
            continue;
        };
        let mut sources = Vec::new();
        for &pin in &inst.data_in {
            model.sequential_sources(pin.index(), &mut sources);
        }
        let mut crossing_domains: Vec<Domain> = Vec::new();
        let mut example: Vec<String> = Vec::new();
        for &(src, domain) in &sources {
            if domain != dest && !crossing_domains.contains(&domain) {
                crossing_domains.push(domain);
                example.push(model.inst(src).name.clone());
            }
        }
        if crossing_domains.is_empty() {
            continue;
        }
        let depth = sync_chain_depth(model, id, dest);
        if depth >= MIN_SYNC_DEPTH {
            continue;
        }
        for (domain, src) in crossing_domains.iter().zip(&example) {
            findings.push(Finding {
                pass: "cdc",
                check: "sync_depth",
                location: inst.name.clone(),
                message: format!(
                    "crossing from {} (e.g. '{src}') into {} lands in a \
                     synchronizer chain of depth {depth} (< {MIN_SYNC_DEPTH})",
                    model.domain_name(*domain),
                    model.domain_name(dest),
                ),
            });
        }
    }
    (findings, domains.len())
}
