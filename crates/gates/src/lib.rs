//! # mtf-gates — digital cell library and netlist builder
//!
//! The gate-level vocabulary used by every circuit in the `mtf` workspace.
//! Each primitive is simultaneously:
//!
//! * a behavioural [`mtf_sim::Component`] that reacts to net changes with a
//!   per-instance propagation delay, and
//! * a structural [`Instance`] recorded in a [`Netlist`], which the static
//!   timing analyser in `mtf-timing` walks to compute load-dependent delays
//!   and per-clock-domain maximum frequencies.
//!
//! The two views stay consistent through a shared [`DelayTable`]: the
//! builder assigns each instance an initial unloaded delay, and the timing
//! crate may later overwrite entries with fanout-aware values — the
//! simulation components read their delay from the table on every
//! evaluation.
//!
//! The library covers what the paper's circuits need:
//!
//! * combinational gates (INV/BUF/AND/OR/NAND/NOR/XOR/MUX2) with arbitrary
//!   fan-in,
//! * tri-state drivers, single-bit and word-wide (the FIFO cells
//!   broadcast dequeued data on a shared `get_data` bus),
//! * edge-triggered D flip-flops and enable flip-flops (ETDFF) with
//!   setup/hold checking and the [`MetaModel`](mtf_sim::MetaModel)
//!   metastability model,
//! * SR latches — the mixed-clock cell's data-validity controller is an
//!   SR latch,
//! * Muller C-elements, including the *asymmetric* variant that sequences
//!   the asynchronous put operation in the async-sync cell (paper Fig. 9),
//! * word-wide registers and latches for the data path,
//! * multi-stage synchronizer chains (the paper's "pair of synchronizing
//!   latches", generalised to arbitrary depth for the robustness
//!   experiments).
//!
//! ## Example: a registered AND gate
//!
//! ```
//! use mtf_gates::Builder;
//! use mtf_sim::{ClockGen, Logic, Simulator, Time};
//!
//! let mut sim = Simulator::new(1);
//! let clk = sim.net("clk");
//! ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(10));
//! let mut b = Builder::new(&mut sim);
//! let a = b.input("a");
//! let en = b.input("en");
//! let y = b.and2(a, en);
//! let q = b.dff(clk, y, Logic::L);
//! let netlist = b.finish();
//! for n in [a, en] {
//!     let d = sim.driver(n);
//!     sim.drive_at(d, n, Logic::H, Time::ZERO);
//! }
//! sim.run_until(Time::from_ns(12)).unwrap(); // first edge at 10 ns
//! assert_eq!(sim.value(q), Logic::H);
//! assert_eq!(netlist.instances().len(), 2); // one AND, one DFF
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod celement;
mod comb;
pub mod compile;
mod engine;
mod kind;
mod netlist;
mod seq;
mod tristate;
pub mod verilog;
mod word;

pub use builder::Builder;
pub use celement::CElement;
pub use comb::{CombGate, GateFunc};
pub use compile::{install_compiled, CompileReport};
pub use engine::CompiledEngine;
pub use kind::CellKind;
pub use netlist::{
    CellDelays, DelayTable, ElabInfo, FlopElab, FlopTiming, Instance, InstanceId, Netlist,
};
pub use seq::{Dff, DffConfig, SrLatch};
pub use verilog::{to_verilog, Port, PortDir};
pub use word::{LatchWord, RegisterWord, TriWord};
