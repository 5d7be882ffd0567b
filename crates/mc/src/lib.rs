//! Explicit-state model checking for the mixed-timing designs.
//!
//! Three model classes, one exploration engine:
//!
//! * [`stg`] — the 1-safe Petri-net controller specifications executed by
//!   `mtf-async`, checked for 1-safety, deadlock-freedom, consistency,
//!   output persistence and convergence (the diamond property);
//! * [`bm`] — the burst-mode controller specifications, checked under the
//!   safe burst-mode environment for deadlock-freedom, output-burst
//!   consistency and convergence of edge arrival orders;
//! * [`fifo`] — abstract small-capacity FIFO protocol models of every
//!   registry design's flag disciplines, checked for losslessness,
//!   deadlock-freedom and the bi-modal empty detector's liveness, with
//!   the PR-4 single-flop metastability hazard as an explicit action.
//!
//! [`designs`] maps the registry (`mtf_core::DesignKind`) onto these
//! models; [`chain`] composes two coupled FIFO models into the
//! heterogeneous-chain formal twin of `tests/deadlock.rs`; [`replay`]
//! closes the loop by replaying checker counterexamples in the
//! event-driven simulator; `verify` holds the controller-net fault
//! tests for [`check_stg`].
//!
//! Everything is exhaustive and deterministic: state spaces are explored
//! breadth-first under a blowup budget, verdicts are `Proven` only when
//! the full reachable space was enumerated, and every `Disproven` carries
//! a shortest-path [`Counterexample`] trace.

#![warn(missing_docs)]

pub mod bm;
pub mod chain;
pub mod designs;
pub mod fifo;
pub mod replay;
pub mod space;
pub mod stg;
mod verify;

pub use bm::{check_bm, BmCheck, BmState};
pub use chain::{check_chain, ChainCheck, ChainModel};
pub use designs::{check_all, check_controllers, check_design, DesignCheck};
pub use fifo::{check_fifo, Fault, FifoCheck, FifoModel, FifoState};
pub use replay::{replay_fifo_hazard, replay_stg, FifoReplayOutcome, StgReplayOutcome};
pub use space::{Counterexample, Move, Property, StateSpace, TransitionSystem, Verdict};
pub use stg::{check_stg, StgCheck};
