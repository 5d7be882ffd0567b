//! The analysis model: an indexed, immutable view of one built netlist.
//!
//! Built once per design from the [`Netlist`] and the [`Simulator`] it
//! was elaborated against, then shared by all four passes. The simulator
//! is only *queried* (net names, behavioural driver/watcher counts) —
//! nothing is ever run.

use std::collections::HashSet;

use mtf_gates::{CellKind, Instance, InstanceId, Netlist};
use mtf_sim::{NetId, Simulator};

/// The clock domain of a sequential element, as inferred structurally by
/// [`LintModel::launch_domain`] (nothing is simulated). The CDC pass and
/// contract inference are its only users.
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

/// An indexed view of one elaborated design, shared by the lint passes.
#[derive(Debug)]
pub struct LintModel<'n> {
    /// The structural netlist.
    pub netlist: &'n Netlist,
    /// Number of nets in the simulator namespace.
    pub net_count: usize,
    /// Per-net driving instances (index = raw net index).
    pub drivers: Vec<Vec<InstanceId>>,
    /// Per-net loading instances (any input pin, clock included).
    pub loads: Vec<Vec<InstanceId>>,
    /// Per-net behavioural driver count from the simulator (covers clock
    /// generators, constant nets, macro engines and testbench drivers —
    /// everything the netlist cannot see).
    pub sim_drivers: Vec<usize>,
    /// Per-net behavioural watcher count from the simulator.
    pub sim_watchers: Vec<usize>,
    /// Net names, snapshotted for reporting.
    names: Vec<String>,
    /// Declared external input nets (ports): exempt from the
    /// floating-input check and clock-domain roots in their own right.
    pub inputs: HashSet<usize>,
    /// Declared external output nets (ports): exempt from the
    /// unconnected-output check.
    pub outputs: HashSet<usize>,
}

impl<'n> LintModel<'n> {
    /// Builds the view. Declare the design's ports afterwards with
    /// [`LintModel::declare_input`] / [`LintModel::declare_output`].
    pub fn new(netlist: &'n Netlist, sim: &Simulator) -> Self {
        let net_count = sim.net_count();
        let names = (0..net_count)
            .map(|i| sim.net_name(NetId::from_index(i)).to_string())
            .collect();
        let sim_drivers = (0..net_count)
            .map(|i| sim.driver_count(NetId::from_index(i)))
            .collect();
        let sim_watchers = (0..net_count)
            .map(|i| sim.watcher_count(NetId::from_index(i)))
            .collect();
        LintModel {
            netlist,
            net_count,
            drivers: netlist.driver_map(net_count),
            loads: netlist.load_map(net_count),
            sim_drivers,
            sim_watchers,
            names,
            inputs: HashSet::new(),
            outputs: HashSet::new(),
        }
    }

    /// Declares `net` an external input port.
    pub fn declare_input(&mut self, net: NetId) {
        self.inputs.insert(net.index());
    }

    /// Declares `net` an external output port.
    pub fn declare_output(&mut self, net: NetId) {
        self.outputs.insert(net.index());
    }

    /// The snapshotted name of a net, by raw index.
    pub fn net_name(&self, net: usize) -> &str {
        &self.names[net]
    }

    /// Shorthand: the instance behind an id.
    pub fn inst(&self, id: InstanceId) -> &Instance {
        self.netlist.instance(id)
    }

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

    /// Renders a domain for reports.
    pub fn domain_name(&self, d: Domain) -> String {
        match d {
            Domain::Clock(net) => format!("clock '{}'", self.net_name(net)),
            Domain::Async => "asynchronous".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtf_gates::Builder;
    use mtf_sim::Logic;

    #[test]
    fn clock_root_walks_through_buffers() {
        let mut sim = Simulator::new(0);
        let clk = sim.net("clk");
        let mut b = Builder::new(&mut sim);
        let buffered = b.buf(clk);
        let d = b.input("d");
        let _q = b.dff(buffered, d, Logic::L);
        let nl = b.finish();
        let mut model = LintModel::new(&nl, &sim);
        model.declare_input(clk);
        model.declare_input(d);
        assert_eq!(model.clock_root(buffered), clk.index());
        assert_eq!(
            model.launch_domain(InstanceId::from_index(1)),
            Some(Domain::Clock(clk.index()))
        );
    }
}
