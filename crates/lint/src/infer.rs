//! Interface-contract inference: classifies each side of an elaborated
//! design from netlist structure alone.
//!
//! The engine anchors on the side's canonical flag net (`full` /
//! `stop_out` on the put side, `empty` / `valid_get` on the get side,
//! the 4-phase acknowledge on unclocked sides) and explores its fan-in
//! cone backwards through combinational logic, recognizing the paper's
//! synchronizer structures where they occur:
//!
//! - a synchronizer chain whose head is the **windowed-NOR full/ne
//!   detector** (Fig. 6: a NOR over cyclic AND groups) classifies as
//!   [`DerivedDiscipline::Anticipating`], with the chain depth, AND
//!   window, and group count read off the gates;
//! - an AND of that chain with an `en_get`-neutralised chain over a
//!   **plain-NOR oe detector** (Fig. 7) classifies as
//!   [`DerivedDiscipline::Bimodal`];
//! - per-bit/per-cell chains whose heads launch from *another* domain
//!   (Gray code pointer bits, token-ring cell flags) accumulate as
//!   crossing tails and classify as [`DerivedDiscipline::Exact`] — an
//!   XOR anywhere in the compare cone marks a pointer comparison, so the
//!   implied capacity is `2^(bits − 1)` rather than the tail count;
//! - an unclocked acknowledge whose sequential sources are all
//!   asynchronous state classifies as [`DerivedDiscipline::Direct`];
//! - a cone that never leaves its own domain is
//!   [`DerivedDiscipline::SameCycle`]; one that crosses without any
//!   recognized structure is [`DerivedDiscipline::Unknown`] and always
//!   fails the contract diff.
//!
//! The walk uses the same domain queries as the CDC pass
//! ([`LintModel::launch_domain`], [`LintModel::sequential_sources`]), so
//! "which domain does this launch from" can never disagree between the
//! lint and the inference.

use std::collections::{BTreeSet, HashSet, VecDeque};

use mtf_core::design::{elaborate, MixedTimingDesign};
use mtf_core::{DesignPorts, FifoParams};
use mtf_gates::{CellKind, InstanceId};
use mtf_sim::NetId;

use crate::contract::{DerivedDiscipline, InterfaceContract, PortContract};
use crate::model::{Domain, LintModel};

/// Hard cap on cone-walk visits; hit only by adversarial netlists.
const VISIT_LIMIT: usize = 20_000;

/// Derives the interface contract of one registry design at `params`:
/// elaborates it with [`elaborate`] (nothing runs) and classifies both
/// sides. `Err` if the design does not support `params`.
pub fn infer_contract(
    design: &dyn MixedTimingDesign,
    params: FifoParams,
) -> Result<InterfaceContract, String> {
    let (sim, netlist, ports) = elaborate(design, params)?;
    let mut model = LintModel::new(&netlist, &sim);
    crate::declare_ports(&mut model, &ports);
    Ok(infer_from_model(&model, &ports))
}

/// Derives the contract from an already-prepared model (ports declared).
/// [`infer_contract`] is the usual entry point; this one exists for
/// hand-built netlists in tests.
pub fn infer_from_model(model: &LintModel<'_>, ports: &DesignPorts) -> InterfaceContract {
    let behavioural = model.netlist.is_empty();
    let put_async = ports.put_ack.is_some();
    let get_async = ports.get_ack.is_some();
    let put = if let Some(ack) = ports.put_ack {
        classify_async_side(model, ack, behavioural)
    } else {
        classify_clocked_side(
            model,
            ports.stop_out.or(ports.full),
            ports.put_clock(),
            ports.get_clock(),
            get_async,
            behavioural,
        )
    };
    let get = if let Some(ack) = ports.get_ack {
        classify_async_side(model, ack, behavioural)
    } else {
        let flag = if ports.stop_in.is_some() {
            ports.valid_get
        } else {
            ports.empty.or(ports.valid_get)
        };
        classify_clocked_side(
            model,
            flag,
            ports.get_clock(),
            ports.put_clock(),
            put_async,
            behavioural,
        )
    };
    let capacity = put
        .discipline
        .cells()
        .or_else(|| get.discipline.cells())
        .or_else(|| fallback_cells(model));
    InterfaceContract {
        kind: ports.kind,
        params: ports.params,
        put,
        get,
        capacity,
    }
}

/// Per-word storage census, for designs whose flag structure does not
/// itself encode the capacity (token rings with per-cell data latches,
/// the shift register's word registers).
fn fallback_cells(model: &LintModel<'_>) -> Option<usize> {
    let mut latch_words = 0;
    let mut registers = 0;
    for idx in 0..model.netlist.len() {
        match model.inst(InstanceId::from_index(idx)).kind {
            CellKind::LatchWord => latch_words += 1,
            CellKind::Register => registers += 1,
            _ => {}
        }
    }
    if latch_words > 0 {
        Some(latch_words)
    } else if registers > 0 {
        Some(registers)
    } else {
        None
    }
}

/// An unclocked 4-phase side: its acknowledge must be combinational over
/// asynchronous state only.
fn classify_async_side(model: &LintModel<'_>, ack: NetId, behavioural: bool) -> PortContract {
    let flag = model.net_name(ack.index()).to_string();
    if behavioural {
        return PortContract {
            flag,
            discipline: DerivedDiscipline::Direct,
            behavioural: true,
        };
    }
    let mut sources = Vec::new();
    model.sequential_sources(ack.index(), &mut sources);
    let clocked: Vec<_> = sources
        .iter()
        .filter(|&&(_, d)| d != Domain::Async)
        .collect();
    let discipline = if clocked.is_empty() {
        DerivedDiscipline::Direct
    } else {
        DerivedDiscipline::Unknown {
            reason: format!(
                "4-phase acknowledge cone contains {} clocked source(s), e.g. '{}'",
                clocked.len(),
                model.inst(clocked[0].0).name
            ),
        }
    };
    PortContract {
        flag,
        discipline,
        behavioural: false,
    }
}

/// A clocked side: explore the flag cone and summarize what it found.
fn classify_clocked_side(
    model: &LintModel<'_>,
    flag: Option<NetId>,
    clk: Option<NetId>,
    other_clk: Option<NetId>,
    other_async: bool,
    behavioural: bool,
) -> PortContract {
    let Some(flag) = flag else {
        return PortContract {
            flag: "<none>".to_string(),
            discipline: DerivedDiscipline::Unknown {
                reason: "side exposes no flag net".to_string(),
            },
            behavioural,
        };
    };
    let name = model.net_name(flag.index()).to_string();
    if behavioural {
        // No gates to read: the discipline follows from the interface
        // topology. A behavioural component facing an asynchronous or
        // differently-clocked far side presents (at best) exact-but-stale
        // state; a single-clock one is same-cycle by construction.
        let crossing = other_async
            || match (clk, other_clk) {
                (Some(a), Some(b)) => model.clock_root(a) != model.clock_root(b),
                _ => false,
            };
        let discipline = if crossing {
            DerivedDiscipline::Exact {
                depth: 0,
                tails: 0,
                pointer_compare: false,
            }
        } else {
            DerivedDiscipline::SameCycle
        };
        return PortContract {
            flag: name,
            discipline,
            behavioural: true,
        };
    }
    let Some(clk) = clk else {
        return PortContract {
            flag: name,
            discipline: DerivedDiscipline::Unknown {
                reason: "clocked side without a clock net".to_string(),
            },
            behavioural: false,
        };
    };
    let domain = Domain::Clock(model.clock_root(clk));
    let summary = explore(model, domain, flag.index());
    PortContract {
        flag: name,
        discipline: summary.into_discipline(),
        behavioural: false,
    }
}

/// What the cone walk accumulated.
#[derive(Default)]
struct ConeSummary {
    bimodal: Option<DerivedDiscipline>,
    anticipating: Option<DerivedDiscipline>,
    /// Heads of same-domain chains whose sources launch elsewhere.
    tails: BTreeSet<usize>,
    /// Shallowest crossing-chain depth.
    tail_depth: Option<usize>,
    saw_xor: bool,
    raw_crossing: bool,
}

impl ConeSummary {
    fn into_discipline(self) -> DerivedDiscipline {
        if let Some(b) = self.bimodal {
            b
        } else if let Some(a) = self.anticipating {
            a
        } else if !self.tails.is_empty() {
            DerivedDiscipline::Exact {
                depth: self.tail_depth.unwrap_or(0),
                tails: self.tails.len(),
                pointer_compare: self.saw_xor,
            }
        } else if self.raw_crossing {
            DerivedDiscipline::Unknown {
                reason: "cone crosses domains with no recognized synchronizer structure"
                    .to_string(),
            }
        } else {
            DerivedDiscipline::SameCycle
        }
    }
}

/// Breadth-first backward exploration of `start`'s fan-in cone within
/// `domain`, classifying recognized synchronizer structures in place and
/// never descending past them.
fn explore(model: &LintModel<'_>, domain: Domain, start: usize) -> ConeSummary {
    let mut s = ConeSummary::default();
    let mut queue = VecDeque::from([start]);
    let mut visited = HashSet::new();
    let mut visits = 0;
    while let Some(n0) = queue.pop_front() {
        visits += 1;
        if visits > VISIT_LIMIT {
            s.raw_crossing = true;
            break;
        }
        let n = through_bufs(model, n0);
        if !visited.insert(n) {
            continue;
        }
        if let Some(b) = bimodal_at(model, domain, n) {
            s.bimodal.get_or_insert(b);
            continue;
        }
        if let Some(a) = anticipating_at(model, domain, n) {
            s.anticipating.get_or_insert(a);
            continue;
        }
        let (depth, head) = rewind_chain(model, domain, n);
        if depth >= 1 {
            let head = through_bufs(model, head);
            if crosses(model, domain, head) {
                s.tails.insert(head);
                s.tail_depth = Some(s.tail_depth.map_or(depth, |d| d.min(depth)));
            } else {
                // A same-domain pipeline stage, not a synchronizer: keep
                // walking behind it.
                queue.push_back(head);
            }
            continue;
        }
        let Some(d) = sole_driver(model, n) else {
            // Declared input, behavioural driver, or multi-driver net
            // (tri-state bus): nothing structural to read past.
            continue;
        };
        let inst = model.inst(d);
        match model.launch_domain(d) {
            None => {
                // Combinational: descend.
                if inst.kind == CellKind::Xor {
                    s.saw_xor = true;
                }
                for &pin in &inst.data_in {
                    queue.push_back(pin.index());
                }
            }
            Some(dm) if dm == domain => {
                // Same-domain multi-input sequential cell (ETDFF, word
                // register): part of this domain's state machine — look
                // through its data pins.
                for &pin in &inst.data_in {
                    queue.push_back(pin.index());
                }
            }
            Some(_) => {
                // A cross-domain launch lands here with no synchronizer
                // chain in front of it.
                s.raw_crossing = true;
            }
        }
    }
    s
}

/// The single netlist driver of `net`, if it has exactly one.
fn sole_driver(model: &LintModel<'_>, net: usize) -> Option<InstanceId> {
    match model.drivers[net].as_slice() {
        [d] => Some(*d),
        _ => None,
    }
}

/// Follows sole-driver single-input buffers backwards (forward-declared
/// nets are stitched with `buf_onto`, so this canonicalizes aliases).
fn through_bufs(model: &LintModel<'_>, mut net: usize) -> usize {
    for _ in 0..64 {
        let Some(d) = sole_driver(model, net) else {
            return net;
        };
        let inst = model.inst(d);
        if inst.kind == CellKind::Buf && inst.data_in.len() == 1 {
            net = inst.data_in[0].index();
        } else {
            return net;
        }
    }
    net
}

/// `d` is a synchronizer stage in `domain`: a single-input `DFF` or
/// `ETDFF` launching there.
fn is_sync_stage(model: &LintModel<'_>, domain: Domain, d: InstanceId) -> bool {
    let inst = model.inst(d);
    matches!(inst.kind, CellKind::Dff | CellKind::Etdff)
        && inst.data_in.len() == 1
        && model.launch_domain(d) == Some(domain)
}

/// Rewinds a plain synchronizer chain backwards from `net`: sole-driver
/// synchronizer stages in `domain`, output to data pin. Returns the stage
/// count and the net feeding the first stage.
fn rewind_chain(model: &LintModel<'_>, domain: Domain, net: usize) -> (usize, usize) {
    let mut depth = 0;
    let mut cur = net;
    for _ in 0..64 {
        let Some(d) = sole_driver(model, cur) else {
            break;
        };
        if !is_sync_stage(model, domain, d) {
            break;
        }
        depth += 1;
        cur = model.inst(d).data_in[0].index();
    }
    (depth, cur)
}

/// What drives a chain head: the paper's two detector shapes, or
/// something else.
enum HeadShape {
    /// NOR over uniform AND groups — the full/ne detector of Fig. 6.
    WindowedNor {
        window: usize,
        groups: usize,
    },
    /// NOR over non-AND inputs — the oe detector.
    PlainNor,
    Other,
}

fn head_shape(model: &LintModel<'_>, net: usize) -> HeadShape {
    let Some(d) = sole_driver(model, net) else {
        return HeadShape::Other;
    };
    let inst = model.inst(d);
    if inst.kind != CellKind::Nor {
        return HeadShape::Other;
    }
    let groups = inst.data_in.len();
    let mut window = None;
    for &pin in &inst.data_in {
        let g = through_bufs(model, pin.index());
        let and_width = sole_driver(model, g).and_then(|gd| {
            let gi = model.inst(gd);
            (gi.kind == CellKind::And && gi.data_in.len() >= 2).then_some(gi.data_in.len())
        });
        match (and_width, window) {
            (Some(w), None) => window = Some(w),
            (Some(w), Some(prev)) if w == prev => {}
            _ => return HeadShape::PlainNor,
        }
    }
    match window {
        Some(w) => HeadShape::WindowedNor { window: w, groups },
        None => HeadShape::PlainNor,
    }
}

/// `net` heads an anticipating detector: a nonempty chain over a
/// windowed NOR.
fn anticipating_at(model: &LintModel<'_>, domain: Domain, net: usize) -> Option<DerivedDiscipline> {
    let (depth, head) = rewind_chain(model, domain, net);
    if depth == 0 {
        return None;
    }
    match head_shape(model, through_bufs(model, head)) {
        HeadShape::WindowedNor { window, groups } => Some(DerivedDiscipline::Anticipating {
            depth,
            window,
            groups,
        }),
        _ => None,
    }
}

/// `net` is the bi-modal empty of Fig. 7: AND of a plain `ne` chain over
/// a windowed NOR and a neutralised `oe` chain over a plain NOR.
fn bimodal_at(model: &LintModel<'_>, domain: Domain, net: usize) -> Option<DerivedDiscipline> {
    let d = sole_driver(model, net)?;
    let inst = model.inst(d);
    if inst.kind != CellKind::And || inst.data_in.len() != 2 {
        return None;
    }
    let a = through_bufs(model, inst.data_in[0].index());
    let b = through_bufs(model, inst.data_in[1].index());
    let assign = |x, y| Some((ne_leg(model, domain, x)?, oe_leg(model, domain, y)?));
    let (ne, oe) = assign(a, b).or_else(|| assign(b, a))?;
    Some(DerivedDiscipline::Bimodal {
        ne_depth: ne.0,
        oe_depth: oe,
        window: ne.1,
        groups: ne.2,
    })
}

/// The `ne` half of a bi-modal empty: `(depth, window, groups)`.
fn ne_leg(model: &LintModel<'_>, domain: Domain, net: usize) -> Option<(usize, usize, usize)> {
    let (depth, head) = rewind_chain(model, domain, net);
    if depth == 0 {
        return None;
    }
    match head_shape(model, through_bufs(model, head)) {
        HeadShape::WindowedNor { window, groups } => Some((depth, window, groups)),
        _ => None,
    }
}

/// The `oe` half: a chain of same-domain flops interleaved with
/// 2-input neutralisation ORs, ending on a plain NOR. Returns the flop
/// count.
fn oe_leg(model: &LintModel<'_>, domain: Domain, net: usize) -> Option<usize> {
    let mut depth = 0;
    let mut cur = net;
    for _ in 0..128 {
        let d = sole_driver(model, cur)?;
        let inst = model.inst(d);
        if is_sync_stage(model, domain, d) {
            depth += 1;
            cur = inst.data_in[0].index();
            continue;
        }
        if inst.kind == CellKind::Or && inst.data_in.len() == 2 {
            // Exactly one input must continue the chain (be a same-domain
            // flop output); the other is the `en_get` neutralisation.
            let mut next = None;
            for &pin in &inst.data_in {
                let p = through_bufs(model, pin.index());
                let flopish =
                    sole_driver(model, p).is_some_and(|pd| is_sync_stage(model, domain, pd));
                if flopish && next.replace(p).is_some() {
                    return None;
                }
            }
            cur = next?;
            continue;
        }
        break;
    }
    if depth == 0 {
        return None;
    }
    match head_shape(model, through_bufs(model, cur)) {
        HeadShape::PlainNor => Some(depth),
        _ => None,
    }
}

/// Any sequential source behind `net` launching outside `domain`?
fn crosses(model: &LintModel<'_>, domain: Domain, net: usize) -> bool {
    let mut sources = Vec::new();
    model.sequential_sources(net, &mut sources);
    sources.iter().any(|&(_, d)| d != domain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtf_core::design::DesignRegistry;
    use mtf_gates::Builder;
    use mtf_sim::{Logic, Simulator};

    fn contract_of(name: &str, params: FifoParams) -> InterfaceContract {
        let design = DesignRegistry::get(name).unwrap();
        infer_contract(design, params).unwrap()
    }

    #[test]
    fn mixed_clock_derives_anticipating_and_bimodal() {
        let c = contract_of("mixed_clock", FifoParams::new(4, 8));
        assert!(
            matches!(
                c.put.discipline,
                DerivedDiscipline::Anticipating {
                    depth: 2,
                    window: 2,
                    groups: 4,
                }
            ),
            "put: {}",
            c.put.discipline
        );
        assert!(
            matches!(
                c.get.discipline,
                DerivedDiscipline::Bimodal {
                    ne_depth: 2,
                    oe_depth: 2,
                    window: 2,
                    groups: 4,
                }
            ),
            "get: {}",
            c.get.discipline
        );
        assert_eq!(c.capacity, Some(4));
        assert_eq!(c.sync_depth(), Some(2));
    }

    #[test]
    fn deeper_synchronizers_are_read_off_the_netlist() {
        let c = contract_of("mixed_clock", FifoParams::with_sync_stages(5, 8, 3));
        assert!(
            matches!(
                c.put.discipline,
                DerivedDiscipline::Anticipating {
                    depth: 3,
                    window: 3,
                    groups: 5,
                }
            ),
            "put: {}",
            c.put.discipline
        );
        assert_eq!(c.capacity, Some(5));
    }

    #[test]
    fn gray_pointer_derives_exact_with_pointer_capacity() {
        let c = contract_of("gray_pointer", FifoParams::new(4, 8));
        // capacity 4 = 2^2: the pointers are 3 bits, compared by XOR/XNOR.
        assert!(
            matches!(
                c.put.discipline,
                DerivedDiscipline::Exact {
                    depth: 2,
                    tails: 3,
                    pointer_compare: true,
                }
            ),
            "put: {}",
            c.put.discipline
        );
        assert!(
            matches!(c.get.discipline, DerivedDiscipline::Exact { depth: 2, .. }),
            "get: {}",
            c.get.discipline
        );
        assert_eq!(c.capacity, Some(4));
    }

    #[test]
    fn every_registry_design_matches_its_declared_contract() {
        for design in DesignRegistry::standard().iter() {
            let params = FifoParams::new(4, 8);
            let c = infer_contract(design, params).unwrap();
            let diffs = c.diff(params.sync_stages);
            assert!(
                diffs.is_empty(),
                "{}: {}",
                design.kind().name(),
                diffs
                    .iter()
                    .map(|m| m.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            );
        }
    }

    /// Injection: an "empty" that synchronizes the ne detector alone —
    /// the unsafe shortcut the paper's Fig. 7 exists to prevent — must
    /// classify as Anticipating, not Bimodal, and fail the diff.
    #[test]
    fn ne_only_empty_is_not_bimodal() {
        let mut sim = Simulator::new(0);
        let clk_get = sim.net("clk_get");
        let mut b = Builder::new(&mut sim);
        let set = b.input("set");
        let rst = b.input("rst");
        let fulls: Vec<_> = (0..4).map(|_| b.sr_latch(set, rst, Logic::L)).collect();
        let ne_raw = mtf_core::build_ne_detector(&mut b, &fulls, 2);
        let empty = b.sync_chain(clk_get, ne_raw, 2, Logic::H);
        let netlist = b.finish();
        let mut model = LintModel::new(&netlist, &sim);
        model.declare_input(clk_get);
        model.declare_output(empty);
        let domain = Domain::Clock(model.clock_root(clk_get));
        let summary = explore(&model, domain, empty.index());
        let derived = summary.into_discipline();
        assert!(
            matches!(
                derived,
                DerivedDiscipline::Anticipating {
                    depth: 2,
                    window: 2,
                    groups: 4,
                }
            ),
            "derived: {derived}"
        );
        // An anticipating structure can never satisfy a Bimodal
        // declaration.
        assert_ne!(
            derived.flag(),
            Some(mtf_core::design::FlagDiscipline::Bimodal)
        );
    }

    /// Injection: dropped synchronizer stages. A single-flop crossing
    /// derives Exact at depth 1 (caught by the depth check); a raw
    /// combinational crossing derives Unknown (always a mismatch).
    #[test]
    fn dropped_stages_derive_shallow_or_unknown() {
        let mut sim = Simulator::new(0);
        let clk_put = sim.net("clk_put");
        let clk_get = sim.net("clk_get");
        let mut b = Builder::new(&mut sim);
        let d = b.input("d");
        let other = b.dff(clk_get, d, Logic::L);
        // One lone flop between domains: a depth-1 "chain".
        let full = b.dff(clk_put, other, Logic::L);
        let gated = b.and(&[full, d]);
        // No flop at all: the get-domain value feeds put logic raw.
        let raw = b.and(&[other, d]);
        let netlist = b.finish();
        let mut model = LintModel::new(&netlist, &sim);
        model.declare_input(clk_put);
        model.declare_input(clk_get);
        model.declare_output(gated);
        model.declare_output(raw);
        let domain = Domain::Clock(model.clock_root(clk_put));

        let shallow = explore(&model, domain, gated.index()).into_discipline();
        assert!(
            matches!(shallow, DerivedDiscipline::Exact { depth: 1, .. }),
            "shallow: {shallow}"
        );
        assert_eq!(shallow.depth(), Some(1));

        let unknown = explore(&model, domain, raw.index()).into_discipline();
        assert!(
            matches!(unknown, DerivedDiscipline::Unknown { .. }),
            "raw: {unknown}"
        );
        assert_eq!(unknown.flag(), None);
    }
}
