//! # mtf-lint — static netlist analysis for the mixed-timing designs
//!
//! The paper's contribution is making clock-domain crossings *robust*:
//! synchronizer chains on the control signals, glitch-free full/empty
//! detectors, hazard-free controllers (Chelcea & Nowick, DAC 2001,
//! Secs. 3–5). The rest of this workspace validates those properties
//! *dynamically* — by simulating and hoping the stimulus exercises the
//! bug. This crate checks them *statically*, the way a production CDC /
//! structural lint flow would, without running the simulator at all:
//!
//! 1. [`cdc`] — clock-domain inference plus synchronizer-depth checking
//!    (every cross-domain control flop must head a chain of depth ≥ 2);
//! 2. [`loops`] — combinational-loop detection (SCCs over the comb-only
//!    graph; C-elements and latches are sequential, so legitimate async
//!    feedback is not a false positive);
//! 3. [`structural`] — multiple-driver/tri-state misuse, floating
//!    inputs, unconnected outputs, un-reset state bits;
//! 4. [`glitch`] — glitch-prone cones (reconvergent fanout or
//!    non-monotone gates) feeding latch enables, SR/C-element pins and
//!    token-controller inputs.
//!
//! Findings that reflect *deliberate* design properties — above all the
//! single-flop synchronizers of the related-work baselines the paper
//! measures against — are annotated by the per-design waiver tables in
//! [`mtf_core::waivers`]: waived, never silenced.
//!
//! The usual entry point is [`lint_design`], which elaborates a registry
//! design with [`mtf_core::design::elaborate`] (no clock generators, no
//! environments) and runs all four passes:
//!
//! ```
//! use mtf_core::design::DesignRegistry;
//! use mtf_core::FifoParams;
//!
//! let design = DesignRegistry::get("mixed_clock").unwrap();
//! let report = mtf_lint::lint_design(design, FifoParams::new(4, 8)).unwrap();
//! assert!(report.is_clean(), "unwaived findings: {:?}",
//!         report.unwaived().collect::<Vec<_>>());
//! ```
//!
//! Hand-built netlists (the pass tests, custom compositions) go through
//! [`LintModel`] directly: build with `mtf_gates::Builder`, declare the
//! external ports, call [`run_passes`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cdc;
pub mod contract;
mod findings;
pub mod glitch;
pub mod infer;
pub mod loops;
mod model;
pub mod state;
pub mod structural;

pub use contract::{ContractMismatch, DerivedDiscipline, InterfaceContract, PortContract};
pub use findings::{AnnotatedFinding, Finding, LintReport, PASSES};
pub use infer::{infer_contract, infer_from_model};
pub use model::{Domain, LintModel};
pub use state::{state_elements, StateElements};

use mtf_core::design::{elaborate, MixedTimingDesign};
use mtf_core::waivers::waivers_for;
use mtf_core::{DesignPorts, FifoParams};

/// Runs all four passes over a prepared model, in pass order. Returns
/// the raw findings plus the number of inferred clock domains.
pub fn run_passes(model: &LintModel<'_>) -> (Vec<Finding>, usize) {
    let (mut findings, domains) = cdc::run(model);
    findings.extend(loops::run(model));
    findings.extend(structural::run(model));
    findings.extend(glitch::run(model));
    (findings, domains)
}

/// Declares every external net of `ports` on the model, so port nets are
/// neither floating inputs nor unconnected outputs.
pub fn declare_ports(model: &mut LintModel<'_>, ports: &DesignPorts) {
    for net in ports.input_nets() {
        model.declare_input(net);
    }
    for net in ports.output_nets() {
        model.declare_output(net);
    }
}

/// Statically lints one registry design at `params`: elaborates it with
/// [`elaborate`] (*no* clock generators or test environments — nothing
/// runs), then applies all four passes and the design's waiver table.
/// `Err` if the design does not support `params` (see
/// [`MixedTimingDesign::supports`]).
pub fn lint_design(
    design: &dyn MixedTimingDesign,
    params: FifoParams,
) -> Result<LintReport, String> {
    let (sim, netlist, ports) = elaborate(design, params)?;
    let mut model = LintModel::new(&netlist, &sim);
    declare_ports(&mut model, &ports);
    let (findings, domains) = run_passes(&model);
    Ok(LintReport::annotate(
        findings,
        waivers_for(design.kind()),
        netlist.len(),
        sim.net_count(),
        domains,
    ))
}

/// Elaborates one registry design at `params` with [`elaborate`] (nothing
/// runs) and returns its sequential-cell census. The `formal` binary uses
/// this to cross-check the model checker's abstract FIFO dimensions
/// against the concrete netlist. `Err` if the design does not support
/// `params`.
pub fn extract_state_elements(
    design: &dyn MixedTimingDesign,
    params: FifoParams,
) -> Result<StateElements, String> {
    let (sim, netlist, _) = elaborate(design, params)?;
    Ok(state_elements(&LintModel::new(&netlist, &sim)))
}
