//! # mtf-sim — discrete-event gate-level simulation kernel
//!
//! This crate is the bottom layer of the `mtf` workspace, a reproduction of
//! the mixed-timing FIFO designs of Chelcea & Nowick (DAC 2001). The paper
//! evaluates transistor-level circuits with HSpice; in a pure-Rust
//! environment we substitute a discrete-event logic simulator with a
//! calibrated delay model (see `DESIGN.md` at the workspace root for the
//! substitution argument).
//!
//! The kernel provides:
//!
//! * [`Time`] — picosecond-resolution simulation time.
//! * [`Logic`] — four-valued signal logic (`L`, `H`, `X`, `Z`) with
//!   multi-driver resolution, so the paper's tri-state `get_data` buses can
//!   be modelled faithfully.
//! * [`Simulator`] — the event wheel. Components subscribe to nets; when a
//!   resolved net value changes, every subscriber is re-evaluated at the
//!   same timestamp and may schedule future drives through its [`Ctx`].
//!   Edge-triggered components subscribe to their clocks' rising (`L`→`H`)
//!   transitions only and ask [`Ctx::rose`] whether their clock rose.
//! * [`Component`] — the trait implemented by every gate, flip-flop,
//!   controller engine and test environment in the higher crates.
//! * [`ClockGen`] — free-running clock generators with arbitrary period,
//!   phase and duty cycle, so two clock domains can be genuinely plesiochronous.
//! * [`Probe`] — per-net waveform recording with edge queries, and a VCD
//!   writer ([`vcd`]) for inspecting traces with standard tools.
//! * [`MetaModel`] — the standard analytical synchronizer-metastability
//!   model (sampling window `T_w`, settling constant `tau`), used by the
//!   flip-flops in `mtf-gates` to make clock-domain-crossing hazards
//!   observable, plus MTBF arithmetic for the robustness experiments.
//!
//! ## Drive semantics
//!
//! Every output pin owns a [`DriverId`]. Scheduling a new value on a driver
//! cancels any not-yet-applied pending value from the same driver (inertial
//! behaviour: a glitch shorter than the gate delay does not propagate).
//! A net's resolved value combines all of its drivers' contributions with
//! the usual tri-state rules: `Z` yields to any driven value, conflicting
//! strong values resolve to `X`.
//!
//! ## Determinism
//!
//! All randomness (metastability resolution) flows from a single seeded RNG
//! owned by the simulator, so every run is reproducible.
//!
//! ## Example
//!
//! ```
//! use mtf_sim::{Simulator, Logic, Time};
//!
//! let mut sim = Simulator::new(1);
//! let a = sim.net("a");
//! let d = sim.driver(a);
//! sim.drive_at(d, a, Logic::H, Time::from_ns(5));
//! sim.run_until(Time::from_ns(10));
//! assert_eq!(sim.value(a), Logic::H);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod component;
mod error;
mod event;
mod logic;
mod metastable;
mod net;
mod probe;
#[cfg(test)]
mod queue_props;
pub mod race;
pub mod shard;
mod sim;
mod time;
pub mod vcd;

pub use clock::ClockGen;
pub use component::{Component, ComponentId, Ctx};
pub use error::SimError;
pub use logic::{Logic, LogicVec};
pub use metastable::{mtbf_seconds, MetaModel};
pub use net::{DriverId, NetId};
pub use probe::{Edge, Probe, Waveform};
pub use race::{RaceHazard, RaceHazardKind};
pub use shard::{
    run_sharded, ClockSchedule, ExportSpec, ImportSpec, LinkDef, LinkLaunch, ShardIo, ShardPlan,
    ShardSpec, ShardStats,
};
pub use sim::{Backend, KindCount, SimStats, Simulator, Violation, ViolationKind};
pub use time::Time;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::{
        ClockGen, Component, ComponentId, Ctx, DriverId, Logic, MetaModel, NetId, Probe, SimError,
        Simulator, Time,
    };
}
