//! The static timing analyser.

use std::collections::VecDeque;

use mtf_gates::Netlist;
use mtf_sim::{NetId, Time};

/// One hop of a critical path, launch to capture.
#[derive(Clone, Debug)]
pub struct PathStep {
    /// Instance traversed (or `"<external>"` for a declared input launch).
    pub instance: String,
    /// Arrival time at the instance's output, measured from the launching
    /// clock edge.
    pub arrival: Time,
}

/// The per-domain result of [`Sta::min_period`].
#[derive(Clone, Debug)]
pub struct TimingReport {
    /// Minimum viable clock period.
    pub period: Time,
    /// The same as a frequency in MHz.
    pub fmax_mhz: f64,
    /// Name of the capturing instance of the critical path.
    pub capture: String,
    /// The critical path, launch first.
    pub path: Vec<PathStep>,
    /// True when the binding constraint is a half-cycle path (launched
    /// from the falling edge, e.g. the FIFOs' mid-cycle dequeue commit).
    pub half_cycle: bool,
}

impl TimingReport {
    fn from_period(period: Time, capture: String, path: Vec<PathStep>, half_cycle: bool) -> Self {
        let fmax_mhz = 1.0e6 / period.as_ps() as f64;
        TimingReport {
            period,
            fmax_mhz,
            capture,
            path,
            half_cycle,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Arc {
    to: usize,   // net index
    inst: usize, // instance index (delay lookup + reporting)
}

/// Static timing analysis over a [`Netlist`]. See the
/// [crate docs](crate) for the model. Call [`Tech::annotate`] first so the
/// per-instance delays include fanout loading.
///
/// [`Tech::annotate`]: crate::Tech::annotate
#[derive(Debug)]
pub struct Sta<'a> {
    netlist: &'a Netlist,
    n_nets: usize,
    arcs: Vec<Vec<Arc>>,
    /// (q-net, clock, launch delay, instance index or usize::MAX)
    launches: Vec<(usize, NetId, Time, usize)>,
    /// (net, clock, delay) launched from the falling edge.
    half_launches: Vec<(usize, NetId, Time)>,
    /// (d-net, clock, capturing instance index)
    captures: Vec<(usize, NetId, usize)>,
    /// Nets excluded because they sit on combinational cycles.
    cyclic: Vec<bool>,
    topo: Vec<usize>,
    broken_loops: Vec<String>,
}

impl<'a> Sta<'a> {
    /// Extracts the timing graph from `netlist`.
    pub fn new(netlist: &'a Netlist) -> Self {
        let n_nets = netlist
            .instances()
            .iter()
            .flat_map(|i| {
                i.data_in
                    .iter()
                    .chain(i.outputs.iter())
                    .chain(i.clock.iter())
            })
            .map(|n| n.index())
            .max()
            .map_or(0, |m| m + 1);
        let mut arcs: Vec<Vec<Arc>> = vec![Vec::new(); n_nets];
        let mut launches = Vec::new();
        let mut captures = Vec::new();

        for (idx, inst) in netlist.instances().iter().enumerate() {
            if inst.kind.is_edge_triggered() {
                let clock = inst.clock.expect("edge-triggered cell without clock");
                for &q in &inst.outputs {
                    launches.push((q.index(), clock, netlist.delay_table().borrow()[idx], idx));
                }
                for &d in &inst.data_in {
                    captures.push((d.index(), clock, idx));
                }
            } else {
                for &i in &inst.data_in {
                    for &o in &inst.outputs {
                        arcs[i.index()].push(Arc {
                            to: o.index(),
                            inst: idx,
                        });
                    }
                }
            }
        }

        let (topo, cyclic, broken_loops) = Self::toposort(netlist, n_nets, &arcs);
        Sta {
            netlist,
            n_nets,
            arcs,
            launches,
            half_launches: Vec::new(),
            captures,
            cyclic,
            topo,
            broken_loops,
        }
    }

    /// Declares an external input as launched by `clock`: the environment
    /// drives `net` a fixed `delay` after the clock edge (e.g. a
    /// synchronous producer raising `req_put`).
    pub fn external_launch(&mut self, net: NetId, clock: NetId, delay: Time) {
        self.launches.push((net.index(), clock, delay, usize::MAX));
    }

    /// Declares a net launched from `clock`'s **falling** edge (e.g. an
    /// inverter on the clock gating a mid-cycle commit pulse). Paths from
    /// here must fit in half a period: the constraint becomes
    /// `T ≥ 2 · (arrival + setup)`.
    pub fn external_launch_half(&mut self, net: NetId, clock: NetId, delay: Time) {
        self.half_launches.push((net.index(), clock, delay));
    }

    /// Is `net` a node of the timing graph, off every combinational cycle?
    /// A launch anywhere else reaches no capture pin: a net no instance
    /// touches has no arcs, so it starts no path.
    fn traced(&self, net: usize) -> bool {
        net < self.n_nets && !self.cyclic[net]
    }

    /// Instances whose arcs were dropped to break combinational cycles
    /// (asynchronous handshake loops — not meaningful for clock-domain
    /// fmax).
    pub fn broken_loops(&self) -> &[String] {
        &self.broken_loops
    }

    /// Finds the nets sitting on combinational cycles (non-trivial
    /// strongly connected components — asynchronous handshake loops),
    /// marks them excluded, and topologically orders the remaining,
    /// genuinely acyclic part. Nets merely *downstream* of a loop stay
    /// analyzable: only arcs touching loop nets are dropped.
    fn toposort(
        netlist: &Netlist,
        n_nets: usize,
        arcs: &[Vec<Arc>],
    ) -> (Vec<usize>, Vec<bool>, Vec<String>) {
        let cyclic = Self::cyclic_nets(n_nets, arcs);

        // Kahn over the cycle-free subgraph.
        let mut indeg = vec![0usize; n_nets];
        for from in 0..n_nets {
            if cyclic[from] {
                continue;
            }
            for a in &arcs[from] {
                if !cyclic[a.to] {
                    indeg[a.to] += 1;
                }
            }
        }
        let mut queue: VecDeque<usize> = (0..n_nets)
            .filter(|&n| !cyclic[n] && indeg[n] == 0)
            .collect();
        let mut topo = Vec::with_capacity(n_nets);
        while let Some(n) = queue.pop_front() {
            topo.push(n);
            for a in &arcs[n] {
                if cyclic[a.to] {
                    continue;
                }
                indeg[a.to] -= 1;
                if indeg[a.to] == 0 {
                    queue.push_back(a.to);
                }
            }
        }

        let mut broken: Vec<String> = Vec::new();
        for from in 0..n_nets {
            if cyclic[from] {
                for a in &arcs[from] {
                    let name = netlist.instances()[a.inst].name.clone();
                    if !broken.contains(&name) {
                        broken.push(name);
                    }
                }
            }
        }
        (topo, cyclic, broken)
    }

    /// Iterative Tarjan SCC; returns which nets belong to a non-trivial
    /// component (or carry a self-loop).
    fn cyclic_nets(n_nets: usize, arcs: &[Vec<Arc>]) -> Vec<bool> {
        const UNSET: u32 = u32::MAX;
        let mut index = vec![UNSET; n_nets];
        let mut low = vec![0u32; n_nets];
        let mut on_stack = vec![false; n_nets];
        let mut stack: Vec<usize> = Vec::new();
        let mut cyclic = vec![false; n_nets];
        let mut next_index: u32 = 0;

        // Explicit DFS stack of (node, next-arc-cursor).
        let mut call: Vec<(usize, usize)> = Vec::new();
        for root in 0..n_nets {
            if index[root] != UNSET {
                continue;
            }
            call.push((root, 0));
            index[root] = next_index;
            low[root] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root] = true;

            while let Some(&mut (v, ref mut cursor)) = call.last_mut() {
                if *cursor < arcs[v].len() {
                    let w = arcs[v][*cursor].to;
                    *cursor += 1;
                    if w == v {
                        cyclic[v] = true; // self-loop
                    } else if index[w] == UNSET {
                        index[w] = next_index;
                        low[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        low[parent] = low[parent].min(low[v]);
                    }
                    if low[v] == index[v] {
                        // Pop the component rooted at v.
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack");
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        if comp.len() > 1 {
                            for w in comp {
                                cyclic[w] = true;
                            }
                        }
                    }
                }
            }
        }
        cyclic
    }

    /// Computes the minimum viable period for the domain of `clock`.
    ///
    /// Returns `None` if the domain has no launch-to-capture path at all
    /// (e.g. the clock net does not exist in this netlist, or every launch
    /// names a net no instance touches).
    pub fn min_period(&self, clock: NetId) -> Option<TimingReport> {
        const NEG: i64 = i64::MIN / 4;
        let delays = self.netlist.delay_table();
        let delays = delays.borrow();

        // Two arrival tracks: from the rising edge (full-cycle budget) and
        // from the falling edge (half-cycle budget).
        let mut arr_full = vec![NEG; self.n_nets];
        let mut arr_half = vec![NEG; self.n_nets];
        let mut pred_full: Vec<Option<(usize, usize)>> = vec![None; self.n_nets];
        let mut pred_half: Vec<Option<(usize, usize)>> = vec![None; self.n_nets];

        let mut any_launch = false;
        for &(net, lclk, at, inst) in &self.launches {
            if lclk == clock && self.traced(net) {
                any_launch = true;
                if (at.as_ps() as i64) > arr_full[net] {
                    arr_full[net] = at.as_ps() as i64;
                    pred_full[net] = Some((usize::MAX, inst));
                }
            }
        }
        for &(net, lclk, at) in &self.half_launches {
            if lclk == clock && self.traced(net) {
                any_launch = true;
                if (at.as_ps() as i64) > arr_half[net] {
                    arr_half[net] = at.as_ps() as i64;
                    pred_half[net] = Some((usize::MAX, usize::MAX));
                }
            }
        }
        if !any_launch {
            return None;
        }

        for &n in &self.topo {
            for a in &self.arcs[n] {
                if self.cyclic[a.to] {
                    continue;
                }
                let d = delays[a.inst].as_ps() as i64;
                if arr_full[n] != NEG && arr_full[n] + d > arr_full[a.to] {
                    arr_full[a.to] = arr_full[n] + d;
                    pred_full[a.to] = Some((n, a.inst));
                }
                if arr_half[n] != NEG && arr_half[n] + d > arr_half[a.to] {
                    arr_half[a.to] = arr_half[n] + d;
                    pred_half[a.to] = Some((n, a.inst));
                }
            }
        }

        let setup = self.netlist.cell_delays().setup.as_ps() as i64;
        // (required period, d_net, capture inst, half?)
        let mut worst: Option<(i64, usize, usize, bool)> = None;
        for &(d, cclk, inst) in &self.captures {
            if cclk != clock {
                continue;
            }
            if arr_full[d] != NEG {
                let need = arr_full[d] + setup;
                if worst.is_none_or(|(w, _, _, _)| need > w) {
                    worst = Some((need, d, inst, false));
                }
            }
            if arr_half[d] != NEG {
                let need = 2 * (arr_half[d] + setup);
                if worst.is_none_or(|(w, _, _, _)| need > w) {
                    worst = Some((need, d, inst, true));
                }
            }
        }
        let (period_ps, d_net, cap_inst, half) = worst?;

        // Reconstruct the critical path on the binding track.
        let (arrival, pred) = if half {
            (&arr_half, &pred_half)
        } else {
            (&arr_full, &pred_full)
        };
        let mut path = Vec::new();
        let mut cur = d_net;
        while let Some((from, inst)) = pred[cur] {
            let name = if inst == usize::MAX {
                if half { "<falling-edge>" } else { "<external>" }.to_string()
            } else {
                self.netlist.instances()[inst].name.clone()
            };
            path.push(PathStep {
                instance: name,
                arrival: Time::from_ps(arrival[cur] as u64),
            });
            if from == usize::MAX {
                break;
            }
            cur = from;
        }
        path.reverse();
        let capture = self.netlist.instances()[cap_inst].name.clone();
        Some(TimingReport::from_period(
            Time::from_ps(period_ps.max(1) as u64),
            capture,
            path,
            half,
        ))
    }

    // ---- min-delay (contamination) analysis --------------------------------

    /// Earliest and latest arrivals on every net from `clock`'s rising
    /// edge, in one topological pass. `None` when the domain launches
    /// nothing. Falling-edge launches are excluded: they are mid-cycle by
    /// construction, so they never race the *same* rising edge — they are
    /// a setup constraint (see [`Sta::min_period`]), not a hold hazard.
    fn arrival_window(&self, clock: NetId) -> Option<(Vec<i64>, Vec<i64>)> {
        const NEG: i64 = i64::MIN / 4;
        const POS: i64 = i64::MAX / 4;
        let delays = self.netlist.delay_table();
        let delays = delays.borrow();
        let mut lo = vec![POS; self.n_nets];
        let mut hi = vec![NEG; self.n_nets];
        let mut any = false;
        for &(net, lclk, at, _) in &self.launches {
            if lclk == clock && self.traced(net) {
                any = true;
                let t = at.as_ps() as i64;
                lo[net] = lo[net].min(t);
                hi[net] = hi[net].max(t);
            }
        }
        if !any {
            return None;
        }
        for &n in &self.topo {
            if lo[n] == POS && hi[n] == NEG {
                continue;
            }
            for a in &self.arcs[n] {
                if self.cyclic[a.to] {
                    continue;
                }
                let d = delays[a.inst].as_ps() as i64;
                if lo[n] != POS && lo[n] + d < lo[a.to] {
                    lo[a.to] = lo[n] + d;
                }
                if hi[n] != NEG && hi[n] + d > hi[a.to] {
                    hi[a.to] = hi[n] + d;
                }
            }
        }
        Some((lo, hi))
    }

    /// The launch window of `net` in `clock`'s domain: the earliest and
    /// latest instants, measured from a rising edge, at which `net` can
    /// change as a consequence of that edge. `None` when no launch of
    /// this domain reaches the net (its value is then edge-independent —
    /// driven externally or by another domain) or the net sits on a
    /// combinational cycle.
    ///
    /// This is the primitive behind the sharded kernel's lookahead
    /// soundness audit: a cut signal exported with claimed launch delay
    /// `d` is conservative iff `d ≤ window.0`, and exact iff the window
    /// is `(d, d)`.
    pub fn launch_window(&self, clock: NetId, net: NetId) -> Option<(Time, Time)> {
        let idx = net.index();
        if !self.traced(idx) {
            return None;
        }
        let (lo, hi) = self.arrival_window(clock)?;
        const POS: i64 = i64::MAX / 4;
        if lo[idx] == POS || lo[idx] < 0 {
            return None;
        }
        Some((Time::from_ps(lo[idx] as u64), Time::from_ps(hi[idx] as u64)))
    }

    /// Same-edge hold (min-delay) check for `clock`'s domain: for every
    /// capture pin reached by a rising-edge launch, the contamination
    /// delay must exceed the capturing flop's hold time. Returns the
    /// worst margin, or `None` when the domain has no launched capture
    /// pin. A negative [`HoldReport::slack_ps`] is a real race: the new
    /// value of a fast path overwrites the old one before the flop is
    /// done sampling it.
    ///
    /// Capture pins whose cones are driven only externally or from other
    /// domains are not checked — external arrival bounds are the
    /// environment's contract (declare them with
    /// [`Sta::external_launch`] to include them), and cross-domain races
    /// are what synchronizers are for (the CDC lint's jurisdiction).
    pub fn hold_slack(&self, clock: NetId) -> Option<HoldReport> {
        const POS: i64 = i64::MAX / 4;
        let (lo, _) = self.arrival_window(clock)?;
        let hold = self.netlist.cell_delays().hold.as_ps() as i64;
        let mut checked = 0;
        let mut worst: Option<(i64, usize)> = None;
        for &(d, cclk, inst) in &self.captures {
            if cclk != clock || self.cyclic[d] || lo[d] == POS {
                continue;
            }
            checked += 1;
            let slack = lo[d] - hold;
            if worst.is_none_or(|(w, _)| slack < w) {
                worst = Some((slack, inst));
            }
        }
        worst.map(|(slack_ps, inst)| HoldReport {
            slack_ps,
            capture: self.netlist.instances()[inst].name.clone(),
            checked,
        })
    }
}

/// The per-domain result of [`Sta::hold_slack`].
#[derive(Clone, Debug)]
pub struct HoldReport {
    /// Worst contamination-minus-hold margin over all same-domain
    /// capture pins, in picoseconds. Negative = violation.
    pub slack_ps: i64,
    /// The capturing instance at the worst pin.
    pub capture: String,
    /// Number of capture pins checked.
    pub checked: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tech;
    use mtf_gates::Builder;
    use mtf_sim::{Logic, Simulator};

    /// A two-stage pipeline: dff -> and -> or -> dff. The period must be
    /// cq + and + or + setup.
    #[test]
    fn simple_pipeline_period() {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        let clk = b.input("clk");
        let d = b.input("d");
        let c = b.input("c");
        let q1 = b.dff(clk, d, Logic::L);
        let x = b.and2(q1, c);
        let y = b.or2(x, c);
        let _q2 = b.dff(clk, y, Logic::L);
        let nl = b.finish();
        let delays = Tech::hp06().annotate(&nl);
        let sta = Sta::new(&nl);
        let rep = sta.min_period(clk).expect("has paths");
        // cq(dff, inst 0) + and(inst 1) + or(inst 2) + setup
        let expect = delays[0] + delays[1] + delays[2] + nl.cell_delays().setup;
        assert_eq!(rep.period, expect);
        assert_eq!(rep.path.len(), 3);
        assert!(rep.fmax_mhz > 0.0);
    }

    #[test]
    fn external_launch_constrains() {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        let clk = b.input("clk");
        let req = b.input("req");
        let g = b.buf(req);
        let _q = b.dff(clk, g, Logic::L);
        let nl = b.finish();
        Tech::hp06().annotate(&nl);
        let mut sta = Sta::new(&nl);
        assert!(sta.min_period(clk).is_none(), "no launch yet");
        sta.external_launch(req, clk, Time::from_ps(1_000));
        let rep = sta.min_period(clk).expect("constrained now");
        assert!(rep.period >= Time::from_ps(1_000));
        assert_eq!(rep.path[0].instance, "<external>");
    }

    /// A launch on a net outside the timing graph (here: a netlist with
    /// no instances at all) has no path rather than an index past the
    /// graph's arrays.
    #[test]
    fn launch_off_the_graph_has_no_path() {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        let clk = b.input("clk");
        let req = b.input("req");
        let nl = b.finish();
        let mut sta = Sta::new(&nl);
        sta.external_launch(req, clk, Time::from_ps(100));
        sta.external_launch_half(req, clk, Time::from_ps(100));
        assert!(sta.min_period(clk).is_none());
        assert!(sta.hold_slack(clk).is_none());
        assert!(sta.launch_window(clk, req).is_none());
    }

    #[test]
    fn cross_domain_paths_are_ignored() {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        let clk_a = b.input("clk_a");
        let clk_b = b.input("clk_b");
        let d = b.input("d");
        let qa = b.dff(clk_a, d, Logic::L);
        let g = b.buf(qa);
        let _qb = b.dff(clk_b, g, Logic::L);
        let nl = b.finish();
        Tech::hp06().annotate(&nl);
        let sta = Sta::new(&nl);
        // Domain A launches but captures nothing; domain B captures but
        // has no same-domain launch.
        assert!(sta.min_period(clk_a).is_none());
        assert!(sta.min_period(clk_b).is_none());
    }

    #[test]
    fn cycles_are_broken_and_reported() {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        let a = b.input("a");
        let loop_net = b.sim().net("loop");
        let x = b.and2(a, loop_net);
        b.inv_onto(x, loop_net);
        // An unrelated clean pipeline must still be analysable.
        let clk = b.input("clk");
        let d = b.input("d");
        let q = b.dff(clk, d, Logic::L);
        let y = b.buf(q);
        let _q2 = b.dff(clk, y, Logic::L);
        let nl = b.finish();
        Tech::hp06().annotate(&nl);
        let sta = Sta::new(&nl);
        assert!(
            !sta.broken_loops().is_empty(),
            "the inverter loop is reported"
        );
        let rep = sta.min_period(clk).expect("clean pipeline still timed");
        assert_eq!(rep.path.len(), 2);
    }

    /// A flop-to-flop path through logic: the earliest the capture pin
    /// can move is cq + the cone's contamination delay, so hold slack is
    /// that minus the hold time — comfortably positive in hp06. The
    /// launch window of the intermediate net is exact: one launch, one
    /// path.
    #[test]
    fn pipeline_hold_slack_is_contamination_minus_hold() {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        let clk = b.input("clk");
        let d = b.input("d");
        let c = b.input("c");
        let q1 = b.dff(clk, d, Logic::L);
        let x = b.and2(q1, c);
        let _q2 = b.dff(clk, x, Logic::L);
        let nl = b.finish();
        let delays = Tech::hp06().annotate(&nl);
        let sta = Sta::new(&nl);
        // cq(dff, inst 0) + and(inst 1): the only path, so min == max.
        let cone = delays[0] + delays[1];
        assert_eq!(sta.launch_window(clk, q1), Some((delays[0], delays[0])));
        assert_eq!(sta.launch_window(clk, x), Some((cone, cone)));
        let hold = sta.hold_slack(clk).expect("one launched capture pin");
        assert_eq!(
            hold.slack_ps,
            cone.as_ps() as i64 - nl.cell_delays().hold.as_ps() as i64
        );
        assert_eq!(hold.checked, 1);
        assert!(hold.slack_ps > 0, "hp06 flops do not race themselves");
    }

    /// Reconvergence with unequal branch depths: the window's early edge
    /// follows the short branch, the late edge the long one — and the
    /// hold check must use the early edge.
    #[test]
    fn launch_window_spreads_over_unbalanced_reconvergence() {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        let clk = b.input("clk");
        let d = b.input("d");
        let q = b.dff(clk, d, Logic::L);
        let short = b.buf(q);
        let long = b.inv(q);
        let long = b.inv(long);
        let long = b.inv(long);
        let meet = b.and2(short, long);
        let _q2 = b.dff(clk, meet, Logic::L);
        let nl = b.finish();
        let delays = Tech::hp06().annotate(&nl);
        let sta = Sta::new(&nl);
        let (lo, hi) = sta.launch_window(clk, meet).expect("launched");
        // inst 0 = dff, 1 = buf, 2..5 = inv chain, 5 = and.
        assert_eq!(lo, delays[0] + delays[1] + delays[5]);
        assert_eq!(
            hi,
            delays[0] + delays[2] + delays[3] + delays[4] + delays[5]
        );
        assert!(lo < hi);
        let hold = sta.hold_slack(clk).expect("capturable");
        assert_eq!(
            hold.slack_ps,
            lo.as_ps() as i64 - nl.cell_delays().hold.as_ps() as i64
        );
    }

    /// A capture pin fed only by another domain (or externally) is not a
    /// same-edge race and must not be checked; an external launch
    /// declaration pulls it back into scope.
    #[test]
    fn hold_ignores_unlaunched_cones_until_declared() {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        let clk_a = b.input("clk_a");
        let clk_b = b.input("clk_b");
        let d = b.input("d");
        let qa = b.dff(clk_a, d, Logic::L);
        let g = b.buf(qa);
        let _qb = b.dff(clk_b, g, Logic::L);
        let nl = b.finish();
        Tech::hp06().annotate(&nl);
        let mut sta = Sta::new(&nl);
        assert!(sta.hold_slack(clk_b).is_none(), "cross-domain only");
        assert!(sta.launch_window(clk_b, g).is_none());
        // Declaring the crossing as a bounded external arrival (e.g. a
        // mesochronous source) makes it a checkable same-edge path.
        sta.external_launch(g, clk_b, Time::from_ps(50));
        let hold = sta.hold_slack(clk_b).expect("declared now");
        assert_eq!(hold.slack_ps, 50 - nl.cell_delays().hold.as_ps() as i64);
        assert_eq!(
            sta.launch_window(clk_b, g).map(|w| w.0),
            Some(Time::from_ps(50))
        );
    }

    #[test]
    fn deeper_logic_needs_longer_period() {
        let period_for_depth = |depth: usize| {
            let mut sim = Simulator::new(0);
            let mut b = Builder::new(&mut sim);
            let clk = b.input("clk");
            let d = b.input("d");
            let mut x = b.dff(clk, d, Logic::L);
            for _ in 0..depth {
                x = b.inv(x);
            }
            let _q = b.dff(clk, x, Logic::L);
            let nl = b.finish();
            Tech::hp06().annotate(&nl);
            Sta::new(&nl).min_period(clk).unwrap().period
        };
        assert!(period_for_depth(8) > period_for_depth(2));
    }
}
