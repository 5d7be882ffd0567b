//! # mtf-bench — the evaluation harness
//!
//! Regenerates every artifact of the paper's evaluation section, one
//! binary per experiment:
//!
//! * **Table 1** (throughput + latency): [`measure::throughput`] computes
//!   each synchronous interface's maximum clock frequency by static timing
//!   analysis over the generated netlist (custom-circuit calibration — see
//!   `Tech::hp06_custom`), and each asynchronous interface's MegaOps/s by
//!   steady-state event simulation; [`measure::latency`] reproduces the
//!   paper's Min/Max latency experiment by sweeping the put instant across
//!   one receiver clock period. Run `cargo run -p mtf-bench --bin table1`.
//! * **Fig. 3** (interface protocols): `fig3` renders the put/get protocol
//!   waveforms from live simulation (ASCII + VCD).
//! * **Robustness (E8)**: `robustness` sweeps synchronizer depth against
//!   injected metastability and the analytical MTBF model.
//! * **LIS chains (E9)**: `chains` verifies heterogeneous relay chains
//!   against the per-boundary latency/throughput predictions.
//! * **Related work (E11)** and **power (E12)**: `related_work` and
//!   `power` quantify the paper's comparative and low-power claims.
//! * **Static checks**: `lint` (netlist lint and derived contracts),
//!   `timing` (max- and min-delay STA) and `formal` (model checking);
//!   `export_verilog` writes the designs as structural Verilog.
//! * **Engine benches**: `compiled` and `sharded` compare the execution
//!   backends and the domain-sharded runner; `benchmark` is the repo's
//!   performance yardstick.
//!
//! The [`paper`] module holds the published Table 1 numbers so the
//! binaries can print paper-vs-measured side by side. All the sweeps fan
//! out across cores through [`sweep::SweepRunner`] (`--jobs N` on the
//! binaries), with results reassembled in input order so the printed
//! tables are byte-identical at any thread count.
//!
//! Experiments are built on the design layer (`mtf_core::design`): the
//! [`harness`] module assembles clocks/design/environments for any
//! registered design, [`args`] parses the CLI flags, [`report::Run`]
//! holds the one exit-status policy, and [`report`]/[`json`] provide the
//! structured `--json` output.

#![warn(missing_docs)]

pub mod args;
pub mod harness;
pub mod json;
pub mod measure;
pub mod paper;
pub mod report;
pub mod sweep;
