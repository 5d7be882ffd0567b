//! # mtf-async — asynchronous control substrates
//!
//! The paper's asynchronous machinery, rebuilt as reusable engines:
//!
//! * [`BmSpec`]/[`BmMachine`] — a **burst-mode asynchronous state machine**
//!   interpreter. The paper synthesizes its token controllers with
//!   Minimalist \[7\]; we execute the burst-mode *specification* directly as
//!   an event-driven component with an assigned delay (see DESIGN.md for
//!   the substitution argument). [`opt_spec`] and [`ogt_spec`] are the
//!   `ObtainPutToken`/`ObtainGetToken` controllers of the FIFO cells
//!   (paper Fig. 10a and ref. \[4\]).
//! * [`StgSpec`]/[`StgMachine`] — a **1-safe Petri-net / signal-transition-
//!   graph** engine, substituting for Petrify \[6\]. [`dv_as_spec`] is the
//!   async-sync cell's data-validity controller `DV_as` (paper Fig. 10b),
//!   whose asymmetric protocol prevents a put from corrupting a get in
//!   progress.
//!
//! Each formalism's step rule is defined once, here, and shared with the
//! model checker (`mtf-mc`'s `check_stg`/`check_bm`), so the checked
//! model is the executed one: [`StgSpec::is_marked`],
//! [`StgSpec::is_enabled`] and [`StgSpec::fire`] step a packed
//! [`StgState`], and [`BmSpec::completed`] picks the burst that fires.
//! * [`micropipeline`](fn@micropipeline) — a gate-level Sutherland
//!   micropipeline built from C-elements and word latches; the paper uses
//!   it as the asynchronous relay station (ARS) chain.
//! * [`FourPhaseProducer`]/[`FourPhaseConsumer`] — 4-phase single-rail
//!   bundled-data environments for driving and draining asynchronous
//!   interfaces, with op-completion journals for throughput/latency
//!   measurements.
//!
//! Both engines report [`ViolationKind::Protocol`](mtf_sim::ViolationKind)
//! when their environment violates the specification (an input edge with no
//! enabled transition), which the integration tests use as a correctness
//! oracle for the FIFO designs.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod burst_mode;
mod handshake;
mod micropipeline;
mod petri;

pub use burst_mode::{ogt_spec, opt_spec, BmBurst, BmMachine, BmSpec, BmTransition};
pub use handshake::{
    ConsumerHandle, FourPhaseConsumer, FourPhaseGetter, FourPhaseProducer, OpJournal,
    ProducerHandle,
};
pub use micropipeline::{micropipeline, Micropipeline};
pub use petri::{dv_as_spec, dv_sa_spec, StgMachine, StgSignal, StgSpec, StgState, StgTransition};
