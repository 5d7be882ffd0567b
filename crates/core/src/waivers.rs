//! Per-design lint waivers.
//!
//! The static netlist lint (`mtf-lint`) runs over every registry design
//! and reports findings. A finding that reflects a *deliberate* property
//! of a design — most importantly the single-flop synchronizers in the
//! related-work baselines the paper measures against — is waived by a
//! table defined here and listed in that design's registry row,
//! with the paper section that makes it deliberate. Waived findings are
//! still reported (count and location) by the `lint` binary; they are
//! annotated, not silenced, so a waiver can never hide a regression in a
//! different part of the same design.
//!
//! A waiver matches a finding when the finding comes from the named pass
//! and the waiver's `pattern` occurs as a substring of the finding's
//! location (instance or net path). Patterns are deliberately simple —
//! the instance names produced by `mtf-gates` builders are stable and
//! hierarchical (`fifo.cell0.sync1.ff0`), so substring matching is
//! precise enough and keeps the table readable.

use crate::design::DesignKind;

/// One waived lint finding class for one design.
#[derive(Clone, Copy, Debug)]
pub struct LintWaiver {
    /// Lint pass the waiver applies to (`"cdc"`, `"comb_loop"`,
    /// `"structural"`, `"glitch"`).
    pub pass: &'static str,
    /// Substring of the finding location (instance/net path) it covers.
    pub pattern: &'static str,
    /// Why the finding is expected, citing the paper section that makes
    /// the flagged structure deliberate.
    pub reason: &'static str,
}

impl LintWaiver {
    const fn new(pass: &'static str, pattern: &'static str, reason: &'static str) -> Self {
        LintWaiver {
            pass,
            pattern,
            reason,
        }
    }
}

/// The neutralising OR gate inside the bi-modal empty synchronizer's
/// `oe` path (paper Fig. 7). Logic between synchronizer flops is a
/// textbook CDC finding, but the paper's deadlock-freedom argument
/// (Sec. 3.2: a FIFO holding one item must still serve it) requires the
/// OR exactly there. The scope-limited pattern keeps the plain `ne`
/// chain — and any other synchronizer — fully checked.
const OE_PATH_WAIVER: LintWaiver = LintWaiver::new(
    "cdc",
    "empty_sync/oe_path/",
    "bi-modal empty synchronizer (paper Fig. 7, Sec. 3.2): the deadlock-\
     breaking OR gate sits between the oe-path flops by design, so the \
     chain-depth heuristic sees depth 1; the path still re-samples through \
     `sync_stages` flops.",
);

/// The window-open sample of the asynchronous data-validity state in the
/// mixed-clock cell array. The paper synchronizes only the aggregated
/// full/empty control (Sec. 3.2, "data is immobile"); this
/// implementation additionally snapshots each cell's committed flag with
/// a single get-clock flop, whose metastable outcomes both resolve to a
/// safe window (deliver or bubble) — see the operating-envelope notes in
/// `mixed_clock.rs`.
const AT_OPEN_WAIVER: LintWaiver = LintWaiver::new(
    "cdc",
    "/at_open/",
    "deliberate single-flop sample of the asynchronous DV state at window \
     open: either resolution (deliver / bubble) is lossless, per the paper's \
     Sec. 3.2 immobile-data argument extended by the commit-gated dequeue.",
);

/// The data-validity latches' hazard-shaped set pulses. The reconvergence
/// the glitch pass flags *is* the pulse generator (`AND-NOT` of a signal
/// with its own delayed copy), used deliberately to turn the commit edge
/// into a bounded pulse for the set-dominant latch.
const DV_PULSE_WAIVER: LintWaiver = LintWaiver::new(
    "glitch",
    "/dv/SRLATCH",
    "the DV latch set path is a deliberate edge-to-pulse one-shot (AND-NOT \
     with a matched-delay copy); the paper's glitch-free-by-construction \
     claim (Sec. 3.2) covers the detector cones, which pass unwaived.",
);

/// The mixed-clock FIFO's and relay station's waivers.
pub(crate) const MIXED_CLOCK_WAIVERS: &[LintWaiver] =
    &[OE_PATH_WAIVER, AT_OPEN_WAIVER, DV_PULSE_WAIVER];

/// The async-sync FIFO's and relay station's waivers.
pub(crate) const ASYNC_SYNC_WAIVERS: &[LintWaiver] = &[OE_PATH_WAIVER];

/// The per-cell-synchronizer baseline's waiver.
pub(crate) const PER_CELL_SYNC_WAIVERS: &[LintWaiver] = &[LintWaiver::new(
    "glitch",
    "/dv/SRLATCH",
    "per-cell synchronizer baseline (paper Sec. 6, refs [5]/[9]): the token \
     flop reaches the DV latch pins both directly and through the global \
     enable OR tree; both paths launch from the same clock edge and settle \
     within the cycle, which is the baseline's (weaker) discipline the paper \
     measures against.",
)];

/// The waivers for one design, read from its registry row
/// ([`Design`](crate::design::Design)). A design whose row lists none
/// has none: every finding on it is a hard failure for the `lint`
/// binary.
pub fn waivers_for(kind: DesignKind) -> &'static [LintWaiver] {
    kind.row().waivers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignRegistry;

    #[test]
    fn waiver_fields_are_well_formed() {
        for d in DesignRegistry::standard().iter() {
            for w in waivers_for(d.kind()) {
                assert!(
                    matches!(w.pass, "cdc" | "comb_loop" | "structural" | "glitch"),
                    "unknown pass '{}' in waiver for {:?}",
                    w.pass,
                    d.kind()
                );
                assert!(!w.pattern.is_empty(), "empty pattern for {:?}", d.kind());
                assert!(
                    w.reason.contains("paper"),
                    "waiver for {:?} must cite the paper section",
                    d.kind()
                );
            }
        }
    }
}
