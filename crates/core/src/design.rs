//! The **design layer**: one uniform contract over every FIFO and relay
//! station in the workspace.
//!
//! The paper's point is that its designs are *interchangeable* behind
//! put/get interfaces; this module makes that interchangeability a type.
//! Each design (the six paper designs, the four related-work baselines in
//! [`baseline`], and Carloni's single-clock relay station) is one
//! [`Design`] row implementing [`MixedTimingDesign`]:
//! a constructor that takes whatever clocks the design declares it needs
//! ([`Clocking`]) and returns a [`DesignPorts`] naming every external net
//! under one scheme, plus metadata describing each interface's protocol
//! ([`InterfaceSpec`]).
//!
//! On top of the rows sits the [`DesignRegistry`] — a string/enum →
//! design table that experiment harnesses iterate instead of hand-wiring
//! concrete types, so a new design is measured, conformance-tested and
//! exported the moment it is registered. Static analyses elaborate a
//! design through [`elaborate`], the one place that builds a design with
//! no clocks running.
//!
//! The nine gate-level designs build through [`Builder`]; the Seizovic
//! baseline and the Carloni relay station are behavioural (they spawn
//! simulator components) and reach the simulator through
//! [`Builder::sim`], so the trait covers them too.

use mtf_gates::{Builder, Netlist};
use mtf_sim::{NetId, Simulator};

use crate::baseline::{self, SeizovicFifo};
use crate::waivers::{LintWaiver, ASYNC_SYNC_WAIVERS, MIXED_CLOCK_WAIVERS, PER_CELL_SYNC_WAIVERS};
use crate::{
    async_async, async_sync, mixed_clock, relay, sync_async, FifoParams, SyncRelayStation,
};

/// The protocol spoken by one side (put or get) of a design.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InterfaceSpec {
    /// Clocked FIFO interface: `req`/`full` on the put side,
    /// `req`/`valid`/`empty` on the get side (paper Fig. 3a/3b).
    SyncFifo {
        /// Data width in bits.
        width: usize,
    },
    /// Clocked latency-insensitive stream: `valid`/`stop` with bubbles
    /// (paper Sec. 5, Carloni's relay-station protocol).
    SyncStream {
        /// Data width in bits.
        width: usize,
    },
    /// Asynchronous 4-phase bundled-data channel: `req`/`ack` with the
    /// data bundled alongside (paper Fig. 3c).
    Async4Phase {
        /// Data width in bits.
        width: usize,
    },
}

impl InterfaceSpec {
    /// The interface's data width in bits.
    pub fn width(self) -> usize {
        match self {
            InterfaceSpec::SyncFifo { width }
            | InterfaceSpec::SyncStream { width }
            | InterfaceSpec::Async4Phase { width } => width,
        }
    }

    /// A short human label ("sync-fifo", "stream", "async-4ph").
    pub fn label(self) -> &'static str {
        match self {
            InterfaceSpec::SyncFifo { .. } => "sync-fifo",
            InterfaceSpec::SyncStream { .. } => "stream",
            InterfaceSpec::Async4Phase { .. } => "async-4ph",
        }
    }
}

/// Which external clock nets a design consumes.
///
/// Single-clock designs occupy one named slot so harnesses know which net
/// to create: the shift-register baseline clocks both interfaces from the
/// *put* slot, the Seizovic baseline's clocked side is its *get* side.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clocking {
    /// Independent put and get clocks (the mixed-clock designs).
    PutAndGet,
    /// Only the put-side clock (sync-async FIFO, shift register).
    PutOnly,
    /// Only the get-side clock (async-sync designs, Seizovic).
    GetOnly,
    /// No clocks at all (async-async FIFO).
    Unclocked,
}

impl Clocking {
    /// True if the design consumes a put-slot clock.
    pub fn needs_put(self) -> bool {
        matches!(self, Clocking::PutAndGet | Clocking::PutOnly)
    }

    /// True if the design consumes a get-slot clock.
    pub fn needs_get(self) -> bool {
        matches!(self, Clocking::PutAndGet | Clocking::GetOnly)
    }
}

/// The clock nets handed to [`MixedTimingDesign::build`]. Slots the design
/// does not consume (per its [`Clocking`]) may be `None`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClockInputs {
    /// The put-side clock net, if provided.
    pub clk_put: Option<NetId>,
    /// The get-side clock net, if provided.
    pub clk_get: Option<NetId>,
}

impl ClockInputs {
    /// The put-slot clock. [`Design`]'s `build` has already checked it
    /// against the row's [`Clocking`].
    pub(crate) fn put_net(self) -> NetId {
        self.clk_put.expect("put-side clock net")
    }

    /// The get-slot clock, checked likewise.
    pub(crate) fn get_net(self) -> NetId {
        self.clk_get.expect("get-side clock net")
    }
}

/// Identity of a registered design.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DesignKind {
    /// Section 3: the sync-sync FIFO.
    MixedClock,
    /// Section 4: the async-sync FIFO.
    AsyncSync,
    /// The sync-async extension (deferred to the paper's tech report).
    SyncAsync,
    /// The async-async token-ring FIFO (paper ref. \[4\]).
    AsyncAsync,
    /// Section 5.2: the mixed-clock relay station.
    MixedClockRs,
    /// Section 5.3: the async-sync relay station.
    AsyncSyncRs,
    /// Baseline: Gray-code pointer-comparison FIFO (paper ref. \[5\]).
    GrayPointer,
    /// Baseline: Intel-style per-cell-synchronizer FIFO (paper ref. \[9\]).
    PerCellSync,
    /// Baseline: single-clock shift-register FIFO (mobile data).
    ShiftRegister,
    /// Baseline: Seizovic pipeline synchronization (paper ref. \[13\]).
    Seizovic,
    /// Baseline: Carloni's single-clock relay station (paper Fig. 11b) —
    /// the latency-insensitive substrate the mixed-timing stations
    /// generalise. Behavioural, 2-place, single clock for both sides.
    SyncRs,
}

impl DesignKind {
    /// This kind's registry row.
    pub(crate) fn row(self) -> &'static Design {
        ALL_DESIGNS
            .iter()
            .find(|d| d.kind == self)
            .expect("every kind is registered")
    }

    /// The registry key (also the `--design` spelling on the binaries).
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// The row label used in the paper's tables (and this repo's reports).
    pub fn label(self) -> &'static str {
        self.row().label
    }

    /// How the put interface learns it may proceed (its view of *full*).
    pub fn put_discipline(self) -> FlagDiscipline {
        self.row().put_discipline
    }

    /// How the get interface learns it may proceed (its view of *empty*).
    pub fn get_discipline(self) -> FlagDiscipline {
        self.row().get_discipline
    }
}

/// How an interface's full/empty flag relates to the true cell occupancy —
/// the per-design hook the `mtf-mc` model checker keys its abstract
/// protocol models off. The paper's robustness argument (Secs. 3.2, 4.2)
/// is exactly that the *combination* of discipline and synchronizer lag
/// never permits overflow/underflow; each variant names one combination.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FlagDiscipline {
    /// Anticipating detector (full asserted while `window − 1` free cells
    /// remain, window = sync depth), observed through a synchronizer
    /// chain — the paper's Fig. 6 full detector.
    Anticipating,
    /// The bi-modal `ne`/`oe` empty detector of paper Sec. 3.2: an
    /// anticipating new-empty flag AND a true once-empty flag whose sync
    /// chain is refreshed by `en_get` (the deadlock-avoidance OR).
    Bimodal,
    /// An exact flag computed from occupancy counts that cross domains
    /// through a synchronized pointer/counter (Gray-code pointers,
    /// per-cell synchronizers, Seizovic's counted handshakes): stale but
    /// never optimistic.
    Exact,
    /// The asynchronous side of a half-async design observes the true
    /// cell state directly (token ring `ei`/`fi` — no clock, no lag).
    Direct,
    /// Single-clock design: the flag is computed and consumed in the same
    /// cycle, with no staleness at all.
    SameCycle,
}

/// Every external net of a built design, under one naming scheme.
///
/// Only the nets belonging to the design's actual interfaces are `Some`;
/// the data buses are empty only for designs without the corresponding
/// side (none today). The scheme is the union of the three protocols:
///
/// * sync FIFO put: [`req_put`](Self::req_put) / [`full`](Self::full)
/// * async put: [`put_req`](Self::put_req) / [`put_ack`](Self::put_ack)
/// * stream put: [`valid_in`](Self::valid_in) / [`stop_out`](Self::stop_out)
/// * sync FIFO get: [`req_get`](Self::req_get) /
///   [`valid_get`](Self::valid_get) / [`empty`](Self::empty)
/// * stream get: [`valid_get`](Self::valid_get) / [`stop_in`](Self::stop_in)
/// * async get: [`get_req`](Self::get_req) / [`get_ack`](Self::get_ack)
#[derive(Clone, Debug)]
pub struct DesignPorts {
    /// Which design these ports belong to.
    pub kind: DesignKind,
    /// The parameters it was built with.
    pub params: FifoParams,
    /// Put-side clock (also the single clock of put-slot designs).
    pub clk_put: Option<NetId>,
    /// Get-side clock (also the single clock of get-slot designs).
    pub clk_get: Option<NetId>,
    /// Sync put request (input).
    pub req_put: Option<NetId>,
    /// Sync put back-pressure flag (output).
    pub full: Option<NetId>,
    /// Async 4-phase put request (input).
    pub put_req: Option<NetId>,
    /// Async 4-phase put acknowledge (output).
    pub put_ack: Option<NetId>,
    /// Stream put validity (input).
    pub valid_in: Option<NetId>,
    /// Stream put back-pressure (output).
    pub stop_out: Option<NetId>,
    /// Put data bus (input), whatever the protocol.
    pub data_put: Vec<NetId>,
    /// Sync get request (input).
    pub req_get: Option<NetId>,
    /// Dequeue-success / stream-out validity flag (output).
    pub valid_get: Option<NetId>,
    /// Global empty flag (output), where the design exposes one.
    pub empty: Option<NetId>,
    /// Stream get back-pressure (input).
    pub stop_in: Option<NetId>,
    /// Async 4-phase get request (input).
    pub get_req: Option<NetId>,
    /// Async 4-phase get acknowledge (output).
    pub get_ack: Option<NetId>,
    /// Get data bus (output), whatever the protocol.
    pub data_get: Vec<NetId>,
    /// The inverted get clock feeding the mid-cycle dequeue commit —
    /// timing analysis launches half-cycle paths from it. Only on designs
    /// with the paper's synchronous get part.
    pub nclk_get: Option<NetId>,
}

impl DesignPorts {
    /// Ports with everything absent — each design's build fills in what
    /// exists.
    pub fn new(kind: DesignKind, params: FifoParams) -> Self {
        DesignPorts {
            kind,
            params,
            clk_put: None,
            clk_get: None,
            req_put: None,
            full: None,
            put_req: None,
            put_ack: None,
            valid_in: None,
            stop_out: None,
            data_put: Vec::new(),
            req_get: None,
            valid_get: None,
            empty: None,
            stop_in: None,
            get_req: None,
            get_ack: None,
            data_get: Vec::new(),
            nclk_get: None,
        }
    }

    /// The put-side protocol, derived from which nets exist.
    pub fn put_spec(&self) -> InterfaceSpec {
        let width = self.params.width;
        if self.valid_in.is_some() {
            InterfaceSpec::SyncStream { width }
        } else if self.put_req.is_some() {
            InterfaceSpec::Async4Phase { width }
        } else {
            InterfaceSpec::SyncFifo { width }
        }
    }

    /// The get-side protocol, derived from which nets exist.
    pub fn get_spec(&self) -> InterfaceSpec {
        let width = self.params.width;
        if self.stop_in.is_some() {
            InterfaceSpec::SyncStream { width }
        } else if self.get_req.is_some() {
            InterfaceSpec::Async4Phase { width }
        } else {
            InterfaceSpec::SyncFifo { width }
        }
    }

    /// Every external input net: the clock slots, the request/stop
    /// inputs of whichever protocols exist, then the put data bus.
    pub fn input_nets(&self) -> impl Iterator<Item = NetId> + '_ {
        [
            self.clk_put,
            self.clk_get,
            self.req_put,
            self.put_req,
            self.valid_in,
            self.req_get,
            self.stop_in,
            self.get_req,
        ]
        .into_iter()
        .flatten()
        .chain(self.data_put.iter().copied())
    }

    /// Every external output net: the flags and acknowledges of whichever
    /// protocols exist, the inverted get clock, then the get data bus.
    pub fn output_nets(&self) -> impl Iterator<Item = NetId> + '_ {
        [
            self.full,
            self.put_ack,
            self.stop_out,
            self.valid_get,
            self.empty,
            self.get_ack,
            self.nclk_get,
        ]
        .into_iter()
        .flatten()
        .chain(self.data_get.iter().copied())
    }

    /// The clock a synchronous *put* environment should use: the put slot,
    /// falling back to the get slot for single-clock designs.
    pub fn put_clock(&self) -> Option<NetId> {
        self.clk_put.or(self.clk_get)
    }

    /// The clock a synchronous *get* environment should use: the get slot,
    /// falling back to the put slot for single-clock designs.
    pub fn get_clock(&self) -> Option<NetId> {
        self.clk_get.or(self.clk_put)
    }
}

/// The uniform contract every design implements: interface metadata plus
/// a constructor from clocks to [`DesignPorts`].
///
/// The one implementation is the registry row [`Design`] (e.g.
/// [`MIXED_CLOCK`]), so `&'static dyn MixedTimingDesign` is the working
/// currency — that is what the [`DesignRegistry`] hands out and what
/// harnesses accept.
pub trait MixedTimingDesign: Sync {
    /// Which design this is.
    fn kind(&self) -> DesignKind;

    /// Which clock nets [`build`](Self::build) consumes.
    fn clocking(&self) -> Clocking;

    /// The put-side protocol at `params`.
    fn put_interface(&self, params: FifoParams) -> InterfaceSpec;

    /// The get-side protocol at `params`.
    fn get_interface(&self, params: FifoParams) -> InterfaceSpec;

    /// Whether the design can be built at `params` (beyond the global
    /// [`FifoParams`] invariants). `Err` carries the reason.
    fn supports(&self, params: FifoParams) -> Result<(), String> {
        let _ = params;
        Ok(())
    }

    /// Builds the design into `b`, consuming the clock slots declared by
    /// [`clocking`](Self::clocking).
    ///
    /// # Panics
    ///
    /// Panics if a required clock slot is `None`, or if
    /// [`supports`](Self::supports) would have returned `Err`.
    fn build(&self, b: &mut Builder<'_>, params: FifoParams, clocks: ClockInputs) -> DesignPorts;
}

/// An interface protocol without its width (a [`Design`] row's put or
/// get side; the width always comes from [`FifoParams`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Protocol {
    SyncFifo,
    SyncStream,
    Async4Phase,
}

impl Protocol {
    fn at(self, width: usize) -> InterfaceSpec {
        match self {
            Protocol::SyncFifo => InterfaceSpec::SyncFifo { width },
            Protocol::SyncStream => InterfaceSpec::SyncStream { width },
            Protocol::Async4Phase => InterfaceSpec::Async4Phase { width },
        }
    }
}

/// One registered design: every per-design fact in one row.
///
/// A row names the design, its clocking, both interface protocols and
/// flag disciplines, its lint waivers ([`crate::waivers`]), an optional
/// parameter gate and the constructor that elaborates it. The rows are
/// the statics below ([`MIXED_CLOCK`] … [`SYNC_RS`]); [`DesignKind`]'s
/// accessors and [`waivers_for`](crate::waivers_for) read them, so adding
/// a design means one `DesignKind` variant plus one row.
#[derive(Debug)]
pub struct Design {
    kind: DesignKind,
    name: &'static str,
    label: &'static str,
    clocking: Clocking,
    put: Protocol,
    get: Protocol,
    put_discipline: FlagDiscipline,
    get_discipline: FlagDiscipline,
    pub(crate) waivers: &'static [LintWaiver],
    supports: fn(FifoParams) -> Result<(), String>,
    build: fn(&mut Builder<'_>, FifoParams, ClockInputs) -> DesignPorts,
}

impl MixedTimingDesign for Design {
    fn kind(&self) -> DesignKind {
        self.kind
    }
    fn clocking(&self) -> Clocking {
        self.clocking
    }
    fn put_interface(&self, params: FifoParams) -> InterfaceSpec {
        self.put.at(params.width)
    }
    fn get_interface(&self, params: FifoParams) -> InterfaceSpec {
        self.get.at(params.width)
    }
    fn supports(&self, params: FifoParams) -> Result<(), String> {
        (self.supports)(params)
    }
    fn build(&self, b: &mut Builder<'_>, params: FifoParams, clocks: ClockInputs) -> DesignPorts {
        let name = self.name;
        let put_missing = self.clocking.needs_put() && clocks.clk_put.is_none();
        assert!(!put_missing, "{name} requires a put-side clock net");
        let get_missing = self.clocking.needs_get() && clocks.clk_get.is_none();
        assert!(!get_missing, "{name} requires a get-side clock net");
        (self.build)(b, params, clocks)
    }
}

fn any_params(_: FifoParams) -> Result<(), String> {
    Ok(())
}

fn power_of_two_from_4(params: FifoParams) -> Result<(), String> {
    if params.capacity.is_power_of_two() && params.capacity >= 4 {
        Ok(())
    } else {
        Err(format!(
            "gray_pointer needs a power-of-two capacity of at least 4 (got {})",
            params.capacity
        ))
    }
}

/// Section 3: the mixed-clock (sync–sync) FIFO — token-ring cells with
/// immobile data, an anticipating full detector and the bi-modal empty
/// detector.
pub static MIXED_CLOCK: Design = Design {
    kind: DesignKind::MixedClock,
    name: "mixed_clock",
    label: "Mixed-Clock",
    clocking: Clocking::PutAndGet,
    put: Protocol::SyncFifo,
    get: Protocol::SyncFifo,
    put_discipline: FlagDiscipline::Anticipating,
    get_discipline: FlagDiscipline::Bimodal,
    waivers: MIXED_CLOCK_WAIVERS,
    supports: any_params,
    build: mixed_clock::build,
};

/// Section 4: the async–sync FIFO — the asynchronous put part of Fig. 9
/// feeding the mixed-clock design's synchronous get part.
pub static ASYNC_SYNC: Design = Design {
    kind: DesignKind::AsyncSync,
    name: "async_sync",
    label: "Async-Sync",
    clocking: Clocking::GetOnly,
    put: Protocol::Async4Phase,
    get: Protocol::SyncFifo,
    put_discipline: FlagDiscipline::Direct,
    get_discipline: FlagDiscipline::Bimodal,
    waivers: ASYNC_SYNC_WAIVERS,
    supports: any_params,
    build: async_sync::build,
};

/// The sync–async extension: the mixed-clock design's synchronous put part
/// feeding a 4-phase get part through the `DV_sa` controller.
pub static SYNC_ASYNC: Design = Design {
    kind: DesignKind::SyncAsync,
    name: "sync_async",
    label: "Sync-Async",
    clocking: Clocking::PutOnly,
    put: Protocol::SyncFifo,
    get: Protocol::Async4Phase,
    put_discipline: FlagDiscipline::Anticipating,
    get_discipline: FlagDiscipline::Direct,
    waivers: &[],
    supports: any_params,
    build: sync_async::build,
};

/// The async–async token-ring FIFO of the paper's ref. \[4\]: 4-phase
/// bundled data on both sides, no clocks.
pub static ASYNC_ASYNC: Design = Design {
    kind: DesignKind::AsyncAsync,
    name: "async_async",
    label: "Async-Async",
    clocking: Clocking::Unclocked,
    put: Protocol::Async4Phase,
    get: Protocol::Async4Phase,
    put_discipline: FlagDiscipline::Direct,
    get_discipline: FlagDiscipline::Direct,
    waivers: &[],
    supports: any_params,
    build: async_async::build,
};

/// Section 5.2: the mixed-clock relay station — the [`MIXED_CLOCK`] cell
/// array behind relay-station controllers.
pub static MIXED_CLOCK_RS: Design = Design {
    kind: DesignKind::MixedClockRs,
    name: "mixed_clock_rs",
    label: "Mixed-Clock RS",
    clocking: Clocking::PutAndGet,
    put: Protocol::SyncStream,
    get: Protocol::SyncStream,
    put_discipline: FlagDiscipline::Anticipating,
    get_discipline: FlagDiscipline::Bimodal,
    waivers: MIXED_CLOCK_WAIVERS,
    supports: any_params,
    build: relay::build_mixed_clock,
};

/// Section 5.3: the async–sync relay station — the [`ASYNC_SYNC`] put part
/// with the get controller of Fig. 16.
pub static ASYNC_SYNC_RS: Design = Design {
    kind: DesignKind::AsyncSyncRs,
    name: "async_sync_rs",
    label: "Async-Sync RS",
    clocking: Clocking::GetOnly,
    put: Protocol::Async4Phase,
    get: Protocol::SyncStream,
    put_discipline: FlagDiscipline::Direct,
    get_discipline: FlagDiscipline::Bimodal,
    waivers: ASYNC_SYNC_WAIVERS,
    supports: any_params,
    build: relay::build_async_sync,
};

/// Baseline: the Gray-code pointer FIFO (paper ref. \[5\]); power-of-two
/// capacities of at least 4.
pub static GRAY_POINTER: Design = Design {
    kind: DesignKind::GrayPointer,
    name: "gray_pointer",
    label: "Gray-pointer",
    clocking: Clocking::PutAndGet,
    put: Protocol::SyncFifo,
    get: Protocol::SyncFifo,
    put_discipline: FlagDiscipline::Exact,
    get_discipline: FlagDiscipline::Exact,
    waivers: &[],
    supports: power_of_two_from_4,
    build: baseline::build_gray_pointer,
};

/// Baseline: the per-cell-synchronizer FIFO (paper ref. \[9\]).
pub static PER_CELL_SYNC: Design = Design {
    kind: DesignKind::PerCellSync,
    name: "per_cell_sync",
    label: "Per-cell sync",
    clocking: Clocking::PutAndGet,
    put: Protocol::SyncFifo,
    get: Protocol::SyncFifo,
    put_discipline: FlagDiscipline::Exact,
    get_discipline: FlagDiscipline::Exact,
    waivers: PER_CELL_SYNC_WAIVERS,
    supports: any_params,
    build: baseline::build_per_cell_sync,
};

/// Baseline: the single-clock shift-register FIFO (mobile data). Both
/// interfaces run on the put-slot clock.
pub static SHIFT_REGISTER: Design = Design {
    kind: DesignKind::ShiftRegister,
    name: "shift_register",
    label: "Shift-register",
    clocking: Clocking::PutOnly,
    put: Protocol::SyncFifo,
    get: Protocol::SyncFifo,
    put_discipline: FlagDiscipline::SameCycle,
    get_discipline: FlagDiscipline::SameCycle,
    waivers: &[],
    supports: any_params,
    build: baseline::build_shift_register,
};

/// Baseline [`SeizovicFifo`]. Behavioural; pipeline depth is taken from
/// `params.capacity`, and the clocked (get) side runs on the get-slot
/// clock.
pub static SEIZOVIC: Design = Design {
    kind: DesignKind::Seizovic,
    name: "seizovic",
    label: "Seizovic",
    clocking: Clocking::GetOnly,
    put: Protocol::Async4Phase,
    get: Protocol::SyncFifo,
    put_discipline: FlagDiscipline::Direct,
    get_discipline: FlagDiscipline::Exact,
    waivers: &[],
    supports: any_params,
    build: |b, params, c| {
        let port = SeizovicFifo::spawn(b.sim(), "szv", c.get_net(), params.width, params.capacity);
        DesignPorts {
            clk_get: c.clk_get,
            put_req: Some(port.put_req),
            put_ack: Some(port.put_ack),
            data_put: port.put_data,
            req_get: Some(port.req_get),
            data_get: port.data_get,
            valid_get: Some(port.valid_get),
            ..DesignPorts::new(DesignKind::Seizovic, params)
        }
    },
};

/// Baseline [`SyncRelayStation`]. Behavioural and *single-clock*: both
/// stream interfaces run on the get-slot clock, and the station is always
/// 2-place (Carloni's definition) — `params.capacity` is accepted but not
/// used. It is the baseline a mixed-timing chain composer splices when
/// **no** clock boundary is being crossed; across genuinely different
/// domains it is unsafe, which is exactly the paper's argument for the
/// MCRS/ASRS.
pub static SYNC_RS: Design = Design {
    kind: DesignKind::SyncRs,
    name: "sync_rs",
    label: "Sync RS (Carloni)",
    clocking: Clocking::GetOnly,
    put: Protocol::SyncStream,
    get: Protocol::SyncStream,
    put_discipline: FlagDiscipline::SameCycle,
    get_discipline: FlagDiscipline::SameCycle,
    waivers: &[],
    supports: any_params,
    build: |b, params, c| {
        let port = SyncRelayStation::spawn(b.sim(), "srs", c.get_net(), params.width);
        DesignPorts {
            clk_get: c.clk_get,
            valid_in: Some(port.in_valid),
            stop_out: Some(port.stop_out),
            data_put: port.in_data,
            valid_get: Some(port.out_valid),
            stop_in: Some(port.stop_in),
            data_get: port.out_data,
            ..DesignPorts::new(DesignKind::SyncRs, params)
        }
    },
};

/// All eleven designs: paper order (Table 1 rows, then the two
/// extensions), then the baselines (the Carloni relay station last).
static ALL_DESIGNS: [&Design; 11] = [
    &MIXED_CLOCK,
    &ASYNC_SYNC,
    &MIXED_CLOCK_RS,
    &ASYNC_SYNC_RS,
    &ASYNC_ASYNC,
    &SYNC_ASYNC,
    &GRAY_POINTER,
    &PER_CELL_SYNC,
    &SHIFT_REGISTER,
    &SEIZOVIC,
    &SYNC_RS,
];

/// Elaborates `design` at `params` for static analysis: a fresh
/// `Simulator::new(0)`, the clock nets its [`Clocking`] names (no clock
/// generators, no environments) and one [`Builder`] pass — nothing is
/// scheduled or run. The netlist lint, contract inference and state
/// census all start here. `Err` if the design does not support `params`.
pub fn elaborate(
    design: &dyn MixedTimingDesign,
    params: FifoParams,
) -> Result<(Simulator, Netlist, DesignPorts), String> {
    design.supports(params)?;
    let mut sim = Simulator::new(0);
    let clk_put = design.clocking().needs_put().then(|| sim.net("clk_put"));
    let clk_get = design.clocking().needs_get().then(|| sim.net("clk_get"));
    let mut b = Builder::new(&mut sim);
    let ports = design.build(&mut b, params, ClockInputs { clk_put, clk_get });
    let netlist = b.finish();
    Ok((sim, netlist, ports))
}

/// A selection of registered designs, iterated in a fixed order.
///
/// ```
/// use mtf_core::design::DesignRegistry;
/// let four = DesignRegistry::table1();
/// let labels: Vec<_> = four.iter().map(|d| d.kind().label()).collect();
/// assert_eq!(labels, ["Mixed-Clock", "Async-Sync", "Mixed-Clock RS", "Async-Sync RS"]);
/// assert!(DesignRegistry::get("gray_pointer").is_some());
/// ```
#[derive(Clone, Debug)]
pub struct DesignRegistry {
    entries: Vec<&'static dyn MixedTimingDesign>,
}

impl std::fmt::Debug for dyn MixedTimingDesign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MixedTimingDesign({})", self.kind().name())
    }
}

impl DesignRegistry {
    fn of_rows<'a>(rows: impl IntoIterator<Item = &'a &'static Design>) -> Self {
        DesignRegistry {
            entries: rows.into_iter().map(|&d| d as _).collect(),
        }
    }

    /// Every design: the six paper designs then the baselines.
    pub fn standard() -> Self {
        Self::of_rows(&ALL_DESIGNS)
    }

    /// The six paper designs (Table 1 rows, then the two extensions).
    pub fn paper() -> Self {
        Self::of_rows(&ALL_DESIGNS[..6])
    }

    /// The four designs of Table 1, in the paper's row order.
    pub fn table1() -> Self {
        Self::of_rows(&ALL_DESIGNS[..4])
    }

    /// The four related-work FIFO baselines (the behavioural Carloni
    /// relay station is *not* in this selection — it is a chain
    /// substrate, not a FIFO alternative, and the related-work tables
    /// predate it).
    pub fn baselines() -> Self {
        Self::of_rows(&ALL_DESIGNS[6..10])
    }

    /// The stream-protocol designs: every registered design whose put
    /// **and** get side both speak the relay-station stream protocol
    /// (`valid`/`stop`), i.e. everything a chain composer can splice
    /// between two single-clock relay chains. Today: `mixed_clock_rs`
    /// and `sync_rs`.
    pub fn streams() -> Self {
        Self::of_rows(
            ALL_DESIGNS
                .iter()
                .filter(|d| d.put == Protocol::SyncStream && d.get == Protocol::SyncStream),
        )
    }

    /// Looks a design up by its registry name (see [`DesignKind::name`]).
    pub fn get(name: &str) -> Option<&'static dyn MixedTimingDesign> {
        ALL_DESIGNS.iter().find(|d| d.name == name).map(|&d| d as _)
    }

    /// The design behind a [`DesignKind`].
    pub fn of(kind: DesignKind) -> &'static dyn MixedTimingDesign {
        kind.row()
    }

    /// Iterates the selection in its fixed order.
    pub fn iter(&self) -> impl Iterator<Item = &'static dyn MixedTimingDesign> + '_ {
        self.entries.iter().copied()
    }

    /// The registry names of the selection, in order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|d| d.kind().name()).collect()
    }

    /// Number of designs in the selection.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the selection is empty (never, for the stock selections).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtf_sim::Simulator;

    #[test]
    fn registry_shapes() {
        assert_eq!(DesignRegistry::standard().len(), 11);
        assert_eq!(DesignRegistry::paper().len(), 6);
        assert_eq!(DesignRegistry::table1().len(), 4);
        assert_eq!(DesignRegistry::baselines().len(), 4);
        assert_eq!(
            DesignRegistry::streams().names(),
            vec!["mixed_clock_rs", "sync_rs"]
        );
        // Same static row: compare addresses only, since `dyn` vtable
        // pointers may differ between coercion sites of one row.
        for d in DesignRegistry::standard().iter() {
            assert!(
                std::ptr::addr_eq(DesignRegistry::get(d.kind().name()).unwrap(), d),
                "name lookup must round-trip"
            );
            assert!(std::ptr::addr_eq(DesignRegistry::of(d.kind()), d));
        }
        assert!(DesignRegistry::get("no_such_design").is_none());
    }

    #[test]
    fn specs_are_consistent_with_ports() {
        // Build every design once and check that the metadata the trait
        // promises matches what the returned ports actually expose.
        let params = FifoParams::new(4, 8);
        for d in DesignRegistry::standard().iter() {
            d.supports(params).expect("4/8 fits every design");
            let mut sim = Simulator::new(0);
            let clk_put = d.clocking().needs_put().then(|| sim.net("clk_put"));
            let clk_get = d.clocking().needs_get().then(|| sim.net("clk_get"));
            let mut b = Builder::new(&mut sim);
            let ports = d.build(&mut b, params, ClockInputs { clk_put, clk_get });
            drop(b.finish());
            let name = d.kind().name();
            assert_eq!(ports.kind, d.kind(), "{name}");
            assert_eq!(ports.params, params, "{name}");
            assert_eq!(ports.put_spec(), d.put_interface(params), "{name} put");
            assert_eq!(ports.get_spec(), d.get_interface(params), "{name} get");
            assert_eq!(ports.data_put.len(), params.width, "{name} put bus");
            assert_eq!(ports.data_get.len(), params.width, "{name} get bus");
            assert_eq!(ports.clk_put, clk_put, "{name} clk_put");
            assert_eq!(ports.clk_get, clk_get, "{name} clk_get");
            // Each side exposes exactly the nets of its protocol.
            match ports.put_spec() {
                InterfaceSpec::SyncFifo { .. } => {
                    assert!(ports.req_put.is_some() && ports.full.is_some(), "{name}");
                    assert!(
                        ports.put_req.is_none() && ports.valid_in.is_none(),
                        "{name}"
                    );
                }
                InterfaceSpec::Async4Phase { .. } => {
                    assert!(ports.put_req.is_some() && ports.put_ack.is_some(), "{name}");
                    assert!(
                        ports.req_put.is_none() && ports.valid_in.is_none(),
                        "{name}"
                    );
                }
                InterfaceSpec::SyncStream { .. } => {
                    assert!(
                        ports.valid_in.is_some() && ports.stop_out.is_some(),
                        "{name}"
                    );
                }
            }
            match ports.get_spec() {
                InterfaceSpec::SyncFifo { .. } => {
                    assert!(
                        ports.req_get.is_some() && ports.valid_get.is_some(),
                        "{name}"
                    );
                    assert!(ports.get_req.is_none() && ports.stop_in.is_none(), "{name}");
                }
                InterfaceSpec::Async4Phase { .. } => {
                    assert!(ports.get_req.is_some() && ports.get_ack.is_some(), "{name}");
                    assert!(ports.req_get.is_none() && ports.stop_in.is_none(), "{name}");
                }
                InterfaceSpec::SyncStream { .. } => {
                    assert!(
                        ports.stop_in.is_some() && ports.valid_get.is_some(),
                        "{name}"
                    );
                }
            }
        }
    }

    #[test]
    fn gray_pointer_capacity_gate() {
        assert!(GRAY_POINTER.supports(FifoParams::new(8, 8)).is_ok());
        assert!(GRAY_POINTER.supports(FifoParams::new(6, 8)).is_err());
        assert!(GRAY_POINTER.supports(FifoParams::new(3, 8)).is_err());
    }
}
