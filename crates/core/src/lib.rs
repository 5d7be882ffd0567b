//! # mtf-core — the mixed-timing FIFOs of Chelcea & Nowick (DAC 2001)
//!
//! This crate is the paper's primary contribution, rebuilt gate-by-gate on
//! the `mtf-sim`/`mtf-gates`/`mtf-async` substrates:
//!
//! * [`MIXED_CLOCK`](design::MIXED_CLOCK) — the sync–sync FIFO of
//!   Section 3: a circular array of cells with immobile data, put/get token
//!   rings, *anticipating* full/empty detectors (full = "no two consecutive
//!   empty cells", new-empty = "no two consecutive full cells"), two-flop
//!   synchronizers on the global state signals, and the **bi-modal empty
//!   detector** (`ne`/`oe` with the `en_get`-controlled OR gate) that avoids
//!   deadlock.
//! * [`ASYNC_SYNC`](design::ASYNC_SYNC) — the async–sync FIFO of Section 4:
//!   a 4-phase bundled-data put interface built from the burst-mode `OPT`
//!   token controller, an asymmetric C-element, and the Petri-net `DV_as`
//!   data-validity controller; the synchronous get part is reused unchanged
//!   from the mixed-clock design.
//! * [`MIXED_CLOCK_RS`](design::MIXED_CLOCK_RS) — Section 5.2: the
//!   mixed-clock FIFO with its controllers swapped (put controller = an
//!   inverter on `full`; get controller honours `stopIn`), turning it into a
//!   relay station for latency-insensitive protocols across a clock
//!   boundary.
//! * [`ASYNC_SYNC_RS`](design::ASYNC_SYNC_RS) — Section 5.3: the async-sync
//!   FIFO with the new get controller of Fig. 16, bridging an asynchronous
//!   domain into a synchronous relay-station chain.
//! * Extensions: [`ASYNC_ASYNC`](design::ASYNC_ASYNC) (the token-ring FIFO
//!   of the paper's ref. \[4\], reused for the asynchronous parts) and
//!   [`SYNC_ASYNC`](design::SYNC_ASYNC) (designed in the paper, deferred to
//!   a technical report — reconstructed here from the stated component
//!   reuse).
//!
//! Each design is one registry row of the [`design`] layer: its `build`
//! elaborates the circuit from a [`FifoParams`] and the [`ClockInputs`] it
//! needs, and returns every external net as one [`DesignPorts`].
//!
//! Every design is parameterised by [`FifoParams`]: capacity (the paper
//! sweeps 4/8/16), data width (8/16), and synchronizer depth (the paper
//! uses two latches and notes "for arbitrary robustness, the designer might
//! use more" — experiment E8 sweeps this).
//!
//! The [`mod@env`] module provides the synchronous testbench environments
//! (producers, consumers, packet sources/sinks with stall schedules) that
//! play the role of the paper's HSpice test fixtures; asynchronous
//! environments come from [`mtf_async`]. The [`baseline`] module holds the
//! related-work designs the paper argues against (Gray-pointer, Seizovic,
//! per-cell-synchronizer and shift-register FIFOs).
//!
//! # Example: crossing two clock domains
//!
//! ```
//! use mtf_core::design::MIXED_CLOCK;
//! use mtf_core::env::{SyncConsumer, SyncProducer};
//! use mtf_core::{ClockInputs, FifoParams, MixedTimingDesign};
//! use mtf_gates::Builder;
//! use mtf_sim::{ClockGen, Simulator, Time};
//!
//! let mut sim = Simulator::new(42);
//! let clk_a = sim.net("clk_a");
//! let clk_b = sim.net("clk_b");
//! ClockGen::spawn_simple(&mut sim, clk_a, Time::from_ns(10)); // 100 MHz
//! ClockGen::spawn_simple(&mut sim, clk_b, Time::from_ns(13)); //  77 MHz
//!
//! let mut b = Builder::new(&mut sim);
//! let clocks = ClockInputs { clk_put: Some(clk_a), clk_get: Some(clk_b) };
//! let fifo = MIXED_CLOCK.build(&mut b, FifoParams::new(8, 8), clocks);
//! let _netlist = b.finish(); // feed to mtf-timing for STA/area/energy
//!
//! let items: Vec<u64> = (0..40).collect();
//! let _put = SyncProducer::spawn(&mut sim, "p", clk_a, fifo.req_put.unwrap(),
//!                                &fifo.data_put, fifo.full.unwrap(), items.clone());
//! let got = SyncConsumer::spawn(&mut sim, "c", clk_b, fifo.req_get.unwrap(),
//!                               &fifo.data_get, fifo.valid_get.unwrap(), 40);
//! sim.run_until(Time::from_us(3)).unwrap();
//! assert_eq!(got.values(), items);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod async_async;
mod async_sync;
pub mod baseline;
pub mod design;
mod detectors;
pub mod env;
mod mixed_clock;
mod params;
mod relay;
mod sync_async;
mod sync_relay;
pub mod waivers;

pub use design::{
    ClockInputs, Clocking, DesignKind, DesignPorts, DesignRegistry, FlagDiscipline, InterfaceSpec,
    MixedTimingDesign,
};
pub use detectors::{
    anticipation_window, build_bimodal_empty, build_full_detector, build_ne_detector,
    build_oe_detector,
};
pub use params::{FifoParams, ParamError};
pub use sync_relay::{RelayPort, SyncRelayStation, RS_CQ};
pub use waivers::{waivers_for, LintWaiver};
