//! Shared clock-domain inference over a structural [`Netlist`].
//!
//! Both the static CDC lint pass (`mtf-lint`) and the sharded simulation
//! planner (`mtf-sim::shard` via `mtf-lis`) need the same answer to the
//! same question: *which clock domain does each sequential element launch
//! from, and where do domains touch?* Keeping two copies of that
//! traversal invites them to disagree — lint would then certify a
//! partitioning the simulator does not actually use. This module is the
//! single implementation; `mtf-lint`'s model delegates to it, and
//! `mtf-core` re-exports it for the experiment binaries.
//!
//! The inference is purely structural (nothing is ever simulated):
//!
//! * [`DomainGraph::clock_root`] — walk a clock pin backwards through
//!   single-input buffers/inverters to the root net of its clock tree;
//! * [`DomainGraph::launch_domain`] — the domain an instance's outputs
//!   launch from (its clock root for edge-triggered cells,
//!   [`Domain::Async`] for latches/C-elements/macros, `None` for
//!   combinational cells);
//! * [`DomainGraph::sequential_sources`] — the sequential launch points
//!   reachable backwards from a net through combinational cells only;
//! * [`DomainGraph::partition`] — group instances by launch domain and
//!   report every net that crosses between groups, with the honest
//!   verdict on whether the netlist can be sharded at gate level.

use std::collections::HashSet;

use mtf_sim::{NetId, Simulator};

use crate::kind::CellKind;
use crate::netlist::{InstanceId, Netlist};

/// The clock domain of a sequential element.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Domain {
    /// Rooted at a clock net (by raw net index): every element whose
    /// clock pin traces back through buffers/inverters to this net.
    Clock(usize),
    /// No clock: level-sensitive latches, C-elements, SR latches and
    /// behavioural macro controllers. Their outputs move whenever their
    /// environment does, so for CDC purposes they are a domain of their
    /// own that every synchronous consumer must synchronize against.
    Async,
}

/// A borrowed, indexed view of one elaborated design — everything the
/// domain traversals need, without owning any of it. `mtf-lint` builds
/// one from its `LintModel`; standalone users go through
/// [`DomainIndex::graph`].
#[derive(Debug)]
pub struct DomainGraph<'a> {
    /// The structural netlist.
    pub netlist: &'a Netlist,
    /// Per-net driving instances (index = raw net index).
    pub drivers: &'a [Vec<InstanceId>],
    /// Per-net behavioural driver count from the simulator (clock
    /// generators, constants, macro engines, testbench drivers —
    /// everything the netlist cannot see).
    pub sim_drivers: &'a [usize],
    /// Declared external input nets (ports): clock-domain roots in their
    /// own right.
    pub inputs: &'a HashSet<usize>,
}

/// Owned backing storage for a [`DomainGraph`] built directly from a
/// netlist and the simulator it was elaborated against (for callers that
/// do not already index the netlist, e.g. `mtf_core::partition_design`).
#[derive(Debug)]
pub struct DomainIndex<'n> {
    netlist: &'n Netlist,
    drivers: Vec<Vec<InstanceId>>,
    sim_drivers: Vec<usize>,
    inputs: HashSet<usize>,
}

impl<'n> DomainIndex<'n> {
    /// Indexes `netlist` against `sim`. Declare external ports with
    /// [`DomainIndex::declare_input`] before taking the graph.
    pub fn new(netlist: &'n Netlist, sim: &Simulator) -> Self {
        let net_count = sim.net_count();
        DomainIndex {
            netlist,
            drivers: netlist.driver_map(net_count),
            sim_drivers: (0..net_count)
                .map(|i| sim.driver_count(NetId::from_index(i)))
                .collect(),
            inputs: HashSet::new(),
        }
    }

    /// Declares `net` an externally driven input port.
    pub fn declare_input(&mut self, net: NetId) {
        self.inputs.insert(net.index());
    }

    /// The borrowed traversal view.
    pub fn graph(&self) -> DomainGraph<'_> {
        DomainGraph {
            netlist: self.netlist,
            drivers: &self.drivers,
            sim_drivers: &self.sim_drivers,
            inputs: &self.inputs,
        }
    }
}

impl DomainGraph<'_> {
    /// Follows a clock pin backwards through single-input buffer and
    /// inverter instances to the root net of its clock tree. Externally
    /// driven nets (ports, behavioural clock generators) terminate the
    /// walk, as does anything that is not a plain Buf/Inv.
    pub fn clock_root(&self, net: NetId) -> usize {
        let mut cur = net.index();
        let mut hops = 0;
        loop {
            // A behavioural driver (clock generator / port) roots here even
            // if an instance also drives the net (never the case today).
            if self.sim_drivers[cur] > self.drivers[cur].len() || self.inputs.contains(&cur) {
                return cur;
            }
            match self.drivers[cur].as_slice() {
                [one] => {
                    let i = self.netlist.instance(*one);
                    let through =
                        matches!(i.kind, CellKind::Buf | CellKind::Inv) && i.data_in.len() == 1;
                    if !through || hops > 64 {
                        return cur;
                    }
                    cur = i.data_in[0].index();
                    hops += 1;
                }
                _ => return cur,
            }
        }
    }

    /// The clock domain an instance *launches* from: its clock root for
    /// edge-triggered cells, [`Domain::Async`] for every other sequential
    /// cell and for behavioural macros. `None` for combinational cells.
    pub fn launch_domain(&self, id: InstanceId) -> Option<Domain> {
        let i = self.netlist.instance(id);
        if i.kind.is_edge_triggered() {
            let clk = i.clock?;
            Some(Domain::Clock(self.clock_root(clk)))
        } else if i.kind.is_state_holding() || i.kind == CellKind::Macro {
            Some(Domain::Async)
        } else {
            None
        }
    }

    /// Appends to `out` the sequential sources reachable backwards from
    /// `net` through combinational cells only. State-holding cells,
    /// macros and clocked cells terminate the walk (they launch; their
    /// own inputs belong to *their* crossing analysis).
    pub fn sequential_sources(&self, net: usize, out: &mut Vec<(InstanceId, Domain)>) {
        let mut stack = vec![net];
        let mut seen_nets = HashSet::new();
        let mut seen_sources = HashSet::new();
        while let Some(n) = stack.pop() {
            if !seen_nets.insert(n) {
                continue;
            }
            for &d in &self.drivers[n] {
                match self.launch_domain(d) {
                    Some(domain) => {
                        if seen_sources.insert(d) {
                            out.push((d, domain));
                        }
                    }
                    None => {
                        // Combinational: keep walking its inputs.
                        for &i in &self.netlist.instance(d).data_in {
                            stack.push(i.index());
                        }
                    }
                }
            }
        }
    }

    /// Every distinct launch domain, with its sequential-instance count,
    /// in first-seen (placement) order.
    pub fn census(&self) -> Vec<(Domain, usize)> {
        let mut out: Vec<(Domain, usize)> = Vec::new();
        for idx in 0..self.netlist.len() {
            if let Some(d) = self.launch_domain(InstanceId::from_index(idx)) {
                match out.iter_mut().find(|(dd, _)| *dd == d) {
                    Some((_, n)) => *n += 1,
                    None => out.push((d, 1)),
                }
            }
        }
        out
    }

    /// Groups the netlist by launch domain and reports every data input
    /// of a sequential consumer whose backward cone reaches a launch in a
    /// *different* domain — the nets at which the domains touch.
    ///
    /// The verdict is deliberately conservative: a gate-level netlist is
    /// only shardable when its domains share **no** nets at all (then each
    /// domain is an independent island). The paper's FIFO designs are the
    /// opposite — their whole point is a dense, synchronized weave of
    /// cross-domain control — so for them this honestly reports one
    /// effective shard. Cutting *between* composed designs at their
    /// latency-insensitive stream boundaries is chain-level knowledge
    /// (`ChainSpec`), which is where `mtf-lis` shards instead.
    pub fn partition(&self) -> PartitionReport {
        let domains = self.census();
        let mut cross: Vec<CrossDomainNet> = Vec::new();
        let mut seen = HashSet::new();
        for idx in 0..self.netlist.len() {
            let id = InstanceId::from_index(idx);
            let Some(dest) = self.launch_domain(id) else {
                continue;
            };
            let inst = self.netlist.instance(id);
            let mut sources = Vec::new();
            for &pin in &inst.data_in {
                sources.push((pin, {
                    let mut s = Vec::new();
                    self.sequential_sources(pin.index(), &mut s);
                    s
                }));
            }
            for (pin, srcs) in sources {
                for (src, domain) in srcs {
                    if domain != dest && seen.insert((pin.index(), src, dest)) {
                        cross.push(CrossDomainNet {
                            net: pin.index(),
                            from: domain,
                            to: dest,
                            consumer: id,
                        });
                    }
                }
            }
        }
        let effective_shards = if cross.is_empty() {
            domains.len().max(1)
        } else {
            1
        };
        PartitionReport {
            domains,
            cross_nets: cross,
            effective_shards,
        }
    }
}

/// One net observed to carry a value launched in one domain into a
/// sequential consumer of another.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrossDomainNet {
    /// Raw index of the consumer's input net.
    pub net: usize,
    /// Domain the value launches from.
    pub from: Domain,
    /// Domain of the consuming sequential cell.
    pub to: Domain,
    /// The consuming instance.
    pub consumer: InstanceId,
}

/// The result of [`DomainGraph::partition`].
#[derive(Clone, Debug)]
pub struct PartitionReport {
    /// Distinct launch domains with sequential-instance counts, in
    /// placement order.
    pub domains: Vec<(Domain, usize)>,
    /// Nets where domains touch (empty ⇒ the domains are independent).
    pub cross_nets: Vec<CrossDomainNet>,
    /// How many independent shards this netlist honestly supports: the
    /// domain count when the domains share no nets, otherwise 1.
    pub effective_shards: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use mtf_sim::{Logic, Simulator};

    #[test]
    fn single_domain_flops_partition_as_one_shard() {
        let mut sim = Simulator::new(0);
        let clk = sim.net("clk");
        let mut b = Builder::new(&mut sim);
        let d = b.input("d");
        let q1 = b.dff(clk, d, Logic::L);
        let _q2 = b.dff(clk, q1, Logic::L);
        let nl = b.finish();
        let mut ix = DomainIndex::new(&nl, &sim);
        ix.declare_input(clk);
        ix.declare_input(d);
        let report = ix.graph().partition();
        assert_eq!(report.domains.len(), 1);
        assert!(report.cross_nets.is_empty());
        assert_eq!(report.effective_shards, 1);
    }

    #[test]
    fn independent_domains_are_shardable() {
        let mut sim = Simulator::new(0);
        let clk_a = sim.net("clk_a");
        let clk_b = sim.net("clk_b");
        let mut b = Builder::new(&mut sim);
        let da = b.input("da");
        let db = b.input("db");
        let _qa = b.dff(clk_a, da, Logic::L);
        let _qb = b.dff(clk_b, db, Logic::L);
        let nl = b.finish();
        let mut ix = DomainIndex::new(&nl, &sim);
        for n in [clk_a, clk_b, da, db] {
            ix.declare_input(n);
        }
        let report = ix.graph().partition();
        assert_eq!(report.domains.len(), 2);
        assert!(report.cross_nets.is_empty());
        assert_eq!(report.effective_shards, 2);
    }

    #[test]
    fn a_crossing_collapses_to_one_effective_shard() {
        let mut sim = Simulator::new(0);
        let clk_a = sim.net("clk_a");
        let clk_b = sim.net("clk_b");
        let mut b = Builder::new(&mut sim);
        let d = b.input("d");
        let qa = b.dff(clk_a, d, Logic::L);
        let _qb = b.dff(clk_b, qa, Logic::L); // unsynchronized crossing
        let nl = b.finish();
        let mut ix = DomainIndex::new(&nl, &sim);
        for n in [clk_a, clk_b, d] {
            ix.declare_input(n);
        }
        let g = ix.graph();
        let report = g.partition();
        assert_eq!(report.domains.len(), 2);
        assert_eq!(report.cross_nets.len(), 1);
        assert_eq!(report.effective_shards, 1);
        assert_eq!(report.cross_nets[0].from, Domain::Clock(clk_a.index()));
        assert_eq!(report.cross_nets[0].to, Domain::Clock(clk_b.index()));
    }

    #[test]
    fn clock_root_walks_through_buffers() {
        let mut sim = Simulator::new(0);
        let clk = sim.net("clk");
        let mut b = Builder::new(&mut sim);
        let buffered = b.buf(clk);
        let d = b.input("d");
        let _q = b.dff(buffered, d, Logic::L);
        let nl = b.finish();
        let mut ix = DomainIndex::new(&nl, &sim);
        ix.declare_input(clk);
        ix.declare_input(d);
        let g = ix.graph();
        assert_eq!(g.clock_root(buffered), clk.index());
        assert_eq!(
            g.launch_domain(InstanceId::from_index(1)),
            Some(Domain::Clock(clk.index()))
        );
    }
}
