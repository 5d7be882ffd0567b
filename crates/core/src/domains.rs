//! Clock-domain partitioning of registry designs.
//!
//! A thin front-end over the shared [`mtf_gates::domains`] pass (the same
//! inference `mtf-lint`'s CDC pass runs): elaborate a registry design
//! with the one static elaboration the lint also uses ([`elaborate`]: no
//! clock generators, no environments, nothing simulated) and ask the pass
//! how many independent shards the resulting gate-level netlist honestly
//! supports.
//!
//! For the paper's FIFO designs the answer is always **one**: the entire
//! point of a mixed-timing FIFO is a dense weave of synchronized
//! cross-domain control, so its domains are inseparable at gate level.
//! The `--shards` flag on the experiment binaries uses this report to
//! *say so* instead of silently pretending to parallelise; chains of
//! designs shard at their latency-insensitive stream boundaries instead
//! (see `mtf-lis`).

use mtf_gates::{DomainIndex, PartitionReport};

use crate::design::{elaborate, MixedTimingDesign};
use crate::FifoParams;

/// Elaborates `design` at `params` ([`elaborate`]: no clocks running,
/// nothing simulated) and partitions the netlist by inferred clock
/// domain. `Err` if the design does not support `params`.
pub fn partition_design(
    design: &dyn MixedTimingDesign,
    params: FifoParams,
) -> Result<PartitionReport, String> {
    let (sim, netlist, ports) = elaborate(design, params)?;
    let mut index = DomainIndex::new(&netlist, &sim);
    for net in ports.input_nets() {
        index.declare_input(net);
    }
    Ok(index.graph().partition())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignRegistry;

    #[test]
    fn mixed_clock_fifo_is_one_effective_shard() {
        // Two clock domains, tightly coupled through the synchronized
        // full/empty control plane: the partitioner must refuse to split.
        let design = DesignRegistry::get("mixed_clock").expect("registry design");
        let report = partition_design(design, FifoParams::new(4, 8)).expect("partition");
        assert!(report.domains.len() >= 2, "expected put+get domains");
        assert!(
            !report.cross_nets.is_empty(),
            "mixed-clock FIFO with no cross-domain nets — inference broke"
        );
        assert_eq!(report.effective_shards, 1);
    }

    #[test]
    fn every_registry_design_partitions_without_panicking() {
        for design in DesignRegistry::standard().iter() {
            let name = design.kind().name();
            let params = FifoParams::new(4, 8);
            if design.supports(params).is_err() {
                continue;
            }
            let report = partition_design(design, params).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                report.effective_shards >= 1,
                "{name}: nonsensical shard count"
            );
        }
    }
}
