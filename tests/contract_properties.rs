//! Derived ≡ declared, everywhere: the contract-inference engine must
//! read the declared flag disciplines, synchronizer depths, detector
//! windows and capacities back off the elaborated netlist at *every*
//! supported parameter point, not just the stock 4×8×2 the golden
//! reports pin. A point where the derivation drifts from the
//! declaration would mean either the generator wires a different
//! interface than the registry promises (a real design bug) or the
//! inference mis-reads a legal structure (a lint bug) — both are worth
//! a persisted seed.
//!
//! Failures persist their case seed to
//! `tests/contract_properties.proptest-regressions`; CI replays the
//! persisted seeds with `PROPTEST_CASES=1`.

use mtf_core::design::DesignRegistry;
use mtf_core::{anticipation_window, FifoParams, MixedTimingDesign};
use mtf_lint::infer_contract;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every registry design, swept over capacity × width × synchronizer
    /// depth, derives exactly its declared interface contract.
    #[test]
    fn derived_contract_matches_declared_at_every_supported_point(
        design_sel in 0usize..DesignRegistry::standard().iter().count(),
        capacity in 3usize..=8,
        width in 1usize..=16,
        sync_stages in 1usize..=4,
    ) {
        let design: &'static dyn MixedTimingDesign = DesignRegistry::standard()
            .iter()
            .nth(design_sel)
            .expect("selector in range");
        // The detector generators require capacity > window (the cyclic
        // AND groups must outnumber the occupancy window, or full/empty
        // could never deassert); stay on the supported side.
        if capacity <= anticipation_window(sync_stages) {
            return Ok(());
        }
        let params = FifoParams::with_sync_stages(capacity, width, sync_stages);
        // Per-design envelopes (e.g. gray_pointer's power-of-two
        // capacity) are the design's own business: skip unsupported
        // points exactly as every conformance suite does.
        if design.supports(params).is_err() {
            return Ok(());
        }

        let contract = infer_contract(design, params)
            .unwrap_or_else(|e| panic!("{}: {e}", design.kind().name()));
        let mismatches = contract.diff(sync_stages);
        prop_assert!(
            mismatches.is_empty(),
            "{} at {params}: derived contract drifts from declaration:\n{}",
            design.kind().name(),
            mismatches
                .iter()
                .map(|m| format!("  {m}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
        // Where a capacity is derivable at all, it must track the
        // parameter, not merely be self-consistent. Behavioural designs
        // (seizovic, sync_rs) place no storage cells to count — the
        // persisted seed in the regressions file is the sweep finding
        // exactly that edge.
        if let Some(derived) = contract.capacity {
            prop_assert_eq!(derived, capacity);
        }
    }
}
