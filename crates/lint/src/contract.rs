//! Derived interface contracts: what the netlist *says* each interface's
//! flag discipline is.
//!
//! The model checker's per-design discipline mapping
//! ([`DesignKind::put_discipline`] / [`DesignKind::get_discipline`]) is a
//! declaration — trusted, until this module, only because the conformance
//! suite never caught it lying. The inference engine ([`crate::infer`])
//! recovers the same facts from netlist structure alone: synchronizer
//! depths, detector topology (anticipating windowed-NOR vs bi-modal
//! ne/oe vs plain occupancy compare), and the effective capacity implied
//! by the detector group count or pointer width. [`InterfaceContract::diff`]
//! then compares derived against declared, which is what the `mtf-mc`
//! consistency gate and the `contracts` section of the `lint` binary run.
//!
//! [`DesignKind::put_discipline`]: mtf_core::DesignKind::put_discipline
//! [`DesignKind::get_discipline`]: mtf_core::DesignKind::get_discipline

use std::fmt;

use mtf_core::design::FlagDiscipline;
use mtf_core::{anticipation_window, DesignKind, FifoParams};

/// A flag discipline as recovered from netlist structure, with the
/// structural evidence (depths, windows, group counts) attached.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DerivedDiscipline {
    /// The flag is combinational over asynchronous state only (token-ring
    /// `e_i`/`f_i` through C-elements/latches): the paper's direct
    /// observation by an unclocked interface.
    Direct,
    /// The flag's cone never leaves its own clock domain: computed and
    /// consumed in the same cycle.
    SameCycle,
    /// The flag is registered logic over values that crossed domains
    /// through per-bit/per-cell synchronizer chains (Gray pointers,
    /// per-cell flags): exact occupancy, stale but never optimistic.
    Exact {
        /// Synchronizer depth of the (shallowest) crossing chain.
        depth: usize,
        /// Distinct crossing chains feeding the flag.
        tails: usize,
        /// True when the compare cone contains XOR gates — a pointer
        /// comparison (`tails` is then a pointer width, and the implied
        /// capacity is `2^(tails − 1)`), not a per-cell flag set.
        pointer_compare: bool,
    },
    /// A synchronizer chain whose head is the anticipating windowed-NOR
    /// detector of paper Fig. 6 (`NOR` over cyclic `AND` groups).
    Anticipating {
        /// Synchronizer chain depth.
        depth: usize,
        /// AND-group width — the anticipation window.
        window: usize,
        /// Number of AND groups — one per ring cell.
        groups: usize,
    },
    /// The bi-modal empty structure of paper Fig. 7: an `AND` of a plain
    /// chain over a windowed-NOR `ne` detector and an `en_get`-neutralised
    /// chain over a plain-NOR `oe` detector.
    Bimodal {
        /// Depth of the plain `ne` chain.
        ne_depth: usize,
        /// Depth of the neutralised `oe` chain.
        oe_depth: usize,
        /// `ne` detector window.
        window: usize,
        /// `ne` detector group count — one per ring cell.
        groups: usize,
    },
    /// The cone crosses domains but matches none of the recognized
    /// synchronizer structures — always a contract mismatch.
    Unknown {
        /// Why classification failed.
        reason: String,
    },
}

impl DerivedDiscipline {
    /// The declared-discipline equivalent, `None` for [`Unknown`].
    ///
    /// [`Unknown`]: DerivedDiscipline::Unknown
    pub fn flag(&self) -> Option<FlagDiscipline> {
        match self {
            DerivedDiscipline::Direct => Some(FlagDiscipline::Direct),
            DerivedDiscipline::SameCycle => Some(FlagDiscipline::SameCycle),
            DerivedDiscipline::Exact { .. } => Some(FlagDiscipline::Exact),
            DerivedDiscipline::Anticipating { .. } => Some(FlagDiscipline::Anticipating),
            DerivedDiscipline::Bimodal { .. } => Some(FlagDiscipline::Bimodal),
            DerivedDiscipline::Unknown { .. } => None,
        }
    }

    /// The recovered synchronizer depth, where the structure has one.
    /// For [`Bimodal`] this is the `ne` chain (the paper ties the
    /// anticipation window to exactly that chain's lag); behavioural
    /// zero-depth [`Exact`] evidence yields `None`.
    ///
    /// [`Bimodal`]: DerivedDiscipline::Bimodal
    /// [`Exact`]: DerivedDiscipline::Exact
    pub fn depth(&self) -> Option<usize> {
        match *self {
            DerivedDiscipline::Exact { depth, .. } if depth > 0 => Some(depth),
            DerivedDiscipline::Anticipating { depth, .. } => Some(depth),
            DerivedDiscipline::Bimodal { ne_depth, .. } => Some(ne_depth),
            _ => None,
        }
    }

    /// The recovered anticipation window, for the windowed detectors.
    pub fn window(&self) -> Option<usize> {
        match *self {
            DerivedDiscipline::Anticipating { window, .. }
            | DerivedDiscipline::Bimodal { window, .. } => Some(window),
            _ => None,
        }
    }

    /// The ring capacity this side's structure implies: the detector
    /// group count, or `2^(bits − 1)` for a pointer compare, or the
    /// per-cell chain count.
    pub fn cells(&self) -> Option<usize> {
        match *self {
            DerivedDiscipline::Anticipating { groups, .. }
            | DerivedDiscipline::Bimodal { groups, .. } => Some(groups),
            DerivedDiscipline::Exact {
                tails,
                pointer_compare,
                ..
            } if tails > 0 => Some(if pointer_compare {
                1usize << (tails - 1)
            } else {
                tails
            }),
            _ => None,
        }
    }
}

impl fmt::Display for DerivedDiscipline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DerivedDiscipline::Direct => write!(f, "Direct (async state observed unclocked)"),
            DerivedDiscipline::SameCycle => write!(f, "SameCycle (single-domain cone)"),
            DerivedDiscipline::Exact {
                depth,
                tails,
                pointer_compare,
            } => write!(
                f,
                "Exact (depth {depth}, {tails} crossing chain(s), {})",
                if *pointer_compare {
                    "pointer compare"
                } else {
                    "per-cell flags"
                }
            ),
            DerivedDiscipline::Anticipating {
                depth,
                window,
                groups,
            } => write!(
                f,
                "Anticipating (depth {depth}, window {window}, {groups} groups)"
            ),
            DerivedDiscipline::Bimodal {
                ne_depth,
                oe_depth,
                window,
                groups,
            } => write!(
                f,
                "Bimodal (ne depth {ne_depth}, oe depth {oe_depth}, window {window}, \
                 {groups} groups)"
            ),
            DerivedDiscipline::Unknown { reason } => write!(f, "Unknown ({reason})"),
        }
    }
}

/// One interface side's derived contract.
#[derive(Clone, Debug)]
pub struct PortContract {
    /// Name of the flag net the classification anchored on (the canonical
    /// back-pressure/emptiness signal of the side's protocol).
    pub flag: String,
    /// What the structure says the discipline is.
    pub discipline: DerivedDiscipline,
    /// True when the side is implemented behaviourally (no gates to
    /// analyse): the discipline then comes from interface/clock topology
    /// and depth/window checks are skipped.
    pub behavioural: bool,
}

/// The full derived contract of one elaborated design.
#[derive(Clone, Debug)]
pub struct InterfaceContract {
    /// Which design was analysed.
    pub kind: DesignKind,
    /// The parameters it was elaborated with.
    pub params: FifoParams,
    /// Put-side contract.
    pub put: PortContract,
    /// Get-side contract.
    pub get: PortContract,
    /// The ring capacity the structure implies (detector groups, pointer
    /// width, per-cell chain count, word-register count), `None` when the
    /// design is behavioural.
    pub capacity: Option<usize>,
}

impl InterfaceContract {
    /// The synchronizer depth the abstract model should use: the deepest
    /// recovered chain across both sides, `None` for behavioural designs.
    pub fn sync_depth(&self) -> Option<usize> {
        match (self.put.discipline.depth(), self.get.discipline.depth()) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        }
    }

    /// Diffs this derived contract against the declared `DesignKind`
    /// mapping, expecting synchronizer chains of `expected_stages` and the
    /// matching [`anticipation_window`]. Empty means the declaration is
    /// structurally justified.
    pub fn diff(&self, expected_stages: usize) -> Vec<ContractMismatch> {
        let mut out = Vec::new();
        let sides = [
            ("put", &self.put, self.kind.put_discipline()),
            ("get", &self.get, self.kind.get_discipline()),
        ];
        for (side, pc, declared) in sides {
            match pc.discipline.flag() {
                Some(f) if f == declared => {}
                _ => out.push(ContractMismatch {
                    kind: self.kind,
                    side,
                    expected: format!("{declared:?} discipline"),
                    derived: pc.discipline.to_string(),
                }),
            }
            if pc.behavioural {
                continue;
            }
            if let Some(d) = pc.discipline.depth() {
                if d != expected_stages {
                    out.push(ContractMismatch {
                        kind: self.kind,
                        side,
                        expected: format!("synchronizer depth {expected_stages}"),
                        derived: format!("depth {d} ({})", pc.discipline),
                    });
                }
            }
            if let Some(w) = pc.discipline.window() {
                let want = anticipation_window(expected_stages);
                if w != want {
                    out.push(ContractMismatch {
                        kind: self.kind,
                        side,
                        expected: format!("anticipation window {want}"),
                        derived: format!("window {w} ({})", pc.discipline),
                    });
                }
            }
        }
        if let Some(c) = self.capacity {
            if c != self.params.capacity {
                out.push(ContractMismatch {
                    kind: self.kind,
                    side: "capacity",
                    expected: format!("{} cells", self.params.capacity),
                    derived: format!("{c} cells"),
                });
            }
        }
        out
    }
}

/// One disagreement between a derived contract and the declared mapping.
#[derive(Clone, Debug)]
pub struct ContractMismatch {
    /// The design.
    pub kind: DesignKind,
    /// Which part disagrees (`"put"`, `"get"`, `"capacity"`).
    pub side: &'static str,
    /// What the declaration expects.
    pub expected: String,
    /// What the netlist actually contains.
    pub derived: String,
}

impl fmt::Display for ContractMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}: declared {} but the netlist derives {}",
            self.kind.name(),
            self.side,
            self.expected,
            self.derived
        )
    }
}
