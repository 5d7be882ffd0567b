//! Heterogeneous latency-insensitive chain composition (paper Section 5).
//!
//! The paper's headline application drops mixed-timing relay stations into
//! a Carloni-style relay-station chain. [`splice_stream_design`](crate::splice_stream_design) handles a
//! single boundary; this module composes **whole systems**: an arbitrary
//! sequence of registry-named stream designs separating single-clock relay
//! segments, each segment with its own clock domain (independent period
//! and phase) and wire delay, plus an optional asynchronous head segment (a
//! micropipeline of asynchronous relay stations) bridged into the first
//! synchronous domain by the ASRS — the full Fig. 14 topology, generalised.
//!
//! Three layers:
//!
//! * **Describe** — [`ChainSpec`] (segments, boundary design names, async
//!   head) with [`ChainSpec::validate`] rejecting ill-formed topologies
//!   (non-stream boundary designs, single-clock designs asked to bridge
//!   distinct domains, wire delays that defeat segmentation).
//! * **Predict** — [`predict_latency`] / [`predict_throughput`] derive an
//!   end-to-end min/max latency envelope and a steady-state throughput
//!   band from per-boundary FIFO capacity, synchronizer depth, and the
//!   clock ratios, per Section 5 of the paper.
//! * **Run & verify** — [`ChainBuilder`] elaborates the spec into one
//!   simulation with per-boundary probes; [`run_chain`] drives it with the
//!   golden-queue source/sink and produces a [`ChainReport`];
//!   [`verify_chain`] asserts losslessness, FIFO order, the latency
//!   envelope, the throughput band, and deadlock-freedom under injected
//!   `stopIn` backpressure.

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;

use mtf_async::{micropipeline, FourPhaseProducer, OpJournal};
use mtf_core::design::{DesignRegistry, ASYNC_SYNC_RS};
use mtf_core::env::{PacketSink, PacketSource};
use mtf_core::{ClockInputs, Clocking, FifoParams, MixedTimingDesign};
use mtf_gates::{install_compiled, Builder, CellDelays};
use mtf_sim::{
    Backend, ClockGen, Component, Ctx, DriverId, Logic, MetaModel, NetId, Simulator, Time,
};

use crate::lookahead::stop_launch_delay;
use crate::{
    build_stream_design, check_stream_design, connect, connect_bus, RelayChain, RelayPort,
};

/// One synchronous clock domain: a free-running clock with the given
/// period and phase offset. Two [`DomainSpec`]s are *the same domain* iff
/// they are equal — the builder then shares one clock net between them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DomainSpec {
    /// Clock period.
    pub period: Time,
    /// Phase offset of the first rising edge.
    pub phase: Time,
}

impl DomainSpec {
    /// A domain with the given period and zero phase.
    pub fn new(period: Time) -> Self {
        DomainSpec {
            period,
            phase: Time::ZERO,
        }
    }

    /// A domain with an explicit phase offset.
    pub fn with_phase(period: Time, phase: Time) -> Self {
        DomainSpec { period, phase }
    }
}

/// One single-clock relay-chain segment: `stations` Carloni relay stations
/// in `domain`, with `wire_delay` of interconnect between consecutive
/// stations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentSpec {
    /// The segment's clock domain.
    pub domain: DomainSpec,
    /// Number of relay stations (≥ 1).
    pub stations: usize,
    /// Interconnect delay between consecutive stations (must stay below
    /// the domain period — that is the point of segmentation).
    pub wire_delay: Time,
}

/// A declarative description of a heterogeneous LIS chain:
/// `segments[0] → boundaries[0] → segments[1] → … → segments[n-1]`, with
/// an optional asynchronous micropipeline head bridged into `segments[0]`
/// by an async–sync relay station ([`ASYNC_SYNC_RS`]).
///
/// Boundary designs are named by their registry name (see
/// [`DesignRegistry::streams`]); both their interfaces must speak the
/// relay stream protocol (`valid`/`stop`).
#[derive(Clone, Debug)]
pub struct ChainSpec {
    /// Packet width in bits.
    pub width: usize,
    /// FIFO capacity of every boundary design.
    pub capacity: usize,
    /// Synchronizer depth of every boundary design.
    pub sync_stages: usize,
    /// Number of asynchronous relay-station (micropipeline) stages in the
    /// optional async head, bridged by an ASRS into `segments[0]`.
    pub async_head: Option<usize>,
    /// The synchronous relay-chain segments, in flow order.
    pub segments: Vec<SegmentSpec>,
    /// Registry names of the boundary designs between consecutive
    /// segments; must have exactly `segments.len() - 1` entries.
    pub boundaries: Vec<String>,
}

impl ChainSpec {
    /// An empty spec (no segments yet) with the default synchronizer
    /// depth; grow it with [`segment`](Self::segment) /
    /// [`boundary`](Self::boundary) / [`with_async_head`](Self::with_async_head).
    pub fn new(width: usize, capacity: usize) -> Self {
        ChainSpec {
            width,
            capacity,
            sync_stages: 2,
            async_head: None,
            segments: Vec::new(),
            boundaries: Vec::new(),
        }
    }

    /// Appends a segment of `stations` stations clocked at
    /// (`period_ps`, `phase_ps`), with 1 ns of inter-station wire.
    pub fn segment(mut self, period_ps: u64, phase_ps: u64, stations: usize) -> Self {
        self.segments.push(SegmentSpec {
            domain: DomainSpec::with_phase(Time::from_ps(period_ps), Time::from_ps(phase_ps)),
            stations,
            wire_delay: Time::from_ns(1),
        });
        self
    }

    /// Appends a boundary design by registry name (between the segment
    /// already pushed and the next one).
    pub fn boundary(mut self, design: &str) -> Self {
        self.boundaries.push(design.to_string());
        self
    }

    /// The plesiochronous relay ladder: `segments` single-station
    /// segments, each its own clock domain (periods spread upward from
    /// 9.973 ns by 37 ps, scattered phases), joined by gate-level
    /// `mixed_clock_rs` boundaries; width 8, capacity 4. The sharded
    /// runner's scaling and lookahead workload.
    pub fn relay_ladder(segments: usize) -> Self {
        let mut spec = ChainSpec::new(8, 4);
        for i in 0..segments as u64 {
            if i > 0 {
                spec = spec.boundary("mixed_clock_rs");
            }
            spec = spec.segment(9_973 + 37 * i, (257 * i) % 4_000, 1);
        }
        spec
    }

    /// Adds an asynchronous head: a `stages`-deep micropipeline bridged by
    /// an ASRS into the first segment.
    pub fn with_async_head(mut self, stages: usize) -> Self {
        self.async_head = Some(stages);
        self
    }

    /// The FIFO parameters every boundary design is built with.
    pub fn params(&self) -> FifoParams {
        FifoParams::with_sync_stages(self.capacity, self.width, self.sync_stages)
    }

    /// Total number of timing boundaries (sync boundaries + async head).
    pub fn boundary_count(&self) -> usize {
        self.boundaries.len() + usize::from(self.async_head.is_some())
    }

    /// The slowest domain's period — the chain's steady-state bottleneck.
    pub fn slowest_period(&self) -> Time {
        self.segments
            .iter()
            .map(|s| s.domain.period)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Checks the spec is well-formed and every boundary design exists,
    /// speaks the stream protocol on both sides, and supports
    /// [`params`](Self::params). Single-clock stream designs (e.g.
    /// `sync_rs`) are rejected between segments of *different* domains —
    /// they have no synchronizers and would be unsafe there (which is the
    /// paper's argument for MCRS in the first place).
    pub fn validate(&self) -> Result<(), String> {
        if self.segments.is_empty() {
            return Err("chain needs at least one segment".into());
        }
        if self.boundaries.len() + 1 != self.segments.len() {
            return Err(format!(
                "{} segments need exactly {} boundaries (got {})",
                self.segments.len(),
                self.segments.len() - 1,
                self.boundaries.len()
            ));
        }
        FifoParams::try_with_sync_stages(self.capacity, self.width, self.sync_stages)
            .map_err(|e| e.to_string())?;
        if self.async_head == Some(0) {
            return Err("async head needs at least one micropipeline stage".into());
        }
        for (i, seg) in self.segments.iter().enumerate() {
            if seg.stations == 0 {
                return Err(format!("segment {i} needs at least one station"));
            }
            if seg.domain.period == Time::ZERO {
                return Err(format!("segment {i} has a zero clock period"));
            }
            if seg.wire_delay >= seg.domain.period {
                return Err(format!(
                    "segment {i}: wire delay {} is not below the clock period {} — \
                     segmentation is defeated",
                    seg.wire_delay, seg.domain.period
                ));
            }
        }
        let params = self.params();
        for (i, name) in self.boundaries.iter().enumerate() {
            let design = DesignRegistry::get(name)
                .ok_or_else(|| format!("boundary {i}: no design named \"{name}\""))?;
            check_stream_design(design, params)
                .map_err(|e| format!("boundary {i} ({name}): {e}"))?;
            let single_clock = matches!(design.clocking(), Clocking::GetOnly | Clocking::PutOnly);
            if single_clock && self.segments[i].domain != self.segments[i + 1].domain {
                return Err(format!(
                    "boundary {i} ({name}): single-clock design cannot bridge \
                     distinct domains (no synchronizers) — use mixed_clock_rs"
                ));
            }
        }
        Ok(())
    }
}

/// The external nets of an asynchronous chain head: the producer side of
/// the first micropipeline stage (4-phase bundled data).
#[derive(Clone, Debug)]
pub struct AsyncPort {
    /// Request input (producer-driven).
    pub req: NetId,
    /// Acknowledge output.
    pub ack: NetId,
    /// Data bus (producer-driven).
    pub data: Vec<NetId>,
}

/// Event counters one [`BoundaryProbe`] accumulates while the simulation
/// runs.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    put_accepts: u64,
    put_stall_cycles: u64,
    get_delivers: u64,
    get_stall_cycles: u64,
    occupancy: i64,
    max_occupancy: i64,
}

/// What the put side of a probed boundary looks like.
enum ProbePut {
    /// Clocked stream protocol: sample `valid`/`stop` at `clk`'s edge.
    Stream {
        clk: NetId,
        valid: NetId,
        stop: NetId,
    },
    /// 4-phase async protocol: each `ack` rising edge is one accept.
    Async { ack: NetId },
}

impl ProbePut {
    /// The net whose rising edges mark put-side events.
    fn edge_net(&self) -> NetId {
        match *self {
            ProbePut::Stream { clk, .. } => clk,
            ProbePut::Async { ack } => ack,
        }
    }
}

/// A passive observer on one timing boundary: counts accepted packets,
/// stall cycles, delivered packets, and tracks occupancy (accepts minus
/// delivers) to report the high-water mark.
struct BoundaryProbe {
    name: String,
    put: ProbePut,
    get_clk: NetId,
    valid_get: NetId,
    stop_in: NetId,
    /// The last put-side and get-clock rises consumed (see [`Ctx::rose`]).
    put_seen: Time,
    get_seen: Time,
    started: bool,
    counters: Rc<RefCell<Counters>>,
}

impl std::fmt::Debug for BoundaryProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundaryProbe")
            .field("name", &self.name)
            .finish()
    }
}

impl Component for BoundaryProbe {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &'static str {
        "boundary_probe"
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        // The two edge nets can rise in different deltas of one instant;
        // each rise is consumed once.
        let put_rose = ctx.rose(self.put.edge_net(), &mut self.put_seen);
        let get_rose = ctx.rose(self.get_clk, &mut self.get_seen);
        if !self.started {
            self.started = true;
            return;
        }
        let mut c = self.counters.borrow_mut();
        if put_rose {
            let accepted = match self.put {
                ProbePut::Stream { valid, stop, .. } => {
                    let stopped = ctx.get(stop) == Logic::H;
                    if stopped {
                        c.put_stall_cycles += 1;
                    }
                    !stopped && ctx.get(valid) == Logic::H
                }
                ProbePut::Async { .. } => true,
            };
            if accepted {
                c.put_accepts += 1;
                c.occupancy += 1;
                c.max_occupancy = c.max_occupancy.max(c.occupancy);
            }
        }
        if get_rose {
            if ctx.get(self.stop_in) == Logic::H {
                c.get_stall_cycles += 1;
            } else if ctx.get(self.valid_get) == Logic::H {
                c.get_delivers += 1;
                c.occupancy -= 1;
            }
        }
    }
}

/// A handle onto one boundary's probe counters, kept by [`BuiltChain`].
#[derive(Clone, Debug)]
struct ProbeHandle {
    design: String,
    counters: Rc<RefCell<Counters>>,
}

impl ProbeHandle {
    fn report(&self) -> BoundaryReport {
        let c = *self.counters.borrow();
        BoundaryReport {
            design: self.design.clone(),
            put_accepts: c.put_accepts,
            put_stall_cycles: c.put_stall_cycles,
            get_delivers: c.get_delivers,
            get_stall_cycles: c.get_stall_cycles,
            max_occupancy: c.max_occupancy.max(0) as u64,
        }
    }
}

/// Attaches a [`BoundaryProbe`] observing `put` and the get side of one
/// boundary; it wakes on the rising edges of the put-side clock (or `ack`)
/// and `get_clk`.
fn spawn_probe(
    sim: &mut Simulator,
    design: &str,
    put: ProbePut,
    get_clk: NetId,
    valid_get: NetId,
    stop_in: NetId,
) -> ProbeHandle {
    let rising = [put.edge_net(), get_clk];
    let counters = Rc::new(RefCell::new(Counters::default()));
    let probe = BoundaryProbe {
        name: format!("probe.{design}"),
        put,
        get_clk,
        valid_get,
        stop_in,
        put_seen: Time::MAX,
        get_seen: Time::MAX,
        started: false,
        counters: counters.clone(),
    };
    sim.add_clocked_component(Box::new(probe), &rising, &[]);
    ProbeHandle {
        design: design.to_string(),
        counters,
    }
}

/// The put side of a boundary whose upstream segment lies outside the
/// elaborated range: `xlink.b{bd}.*` mirror nets for the upstream tail's
/// `valid`/`data`, and the design's `stop_out` with the launch delay the
/// backward cut claims for it.
#[derive(Debug)]
pub(crate) struct CutIn {
    /// `(driver, net)` of the mirrored `valid`, then each `data` bit.
    pub(crate) pins: Vec<(DriverId, NetId)>,
    /// The design's `stop_out`, registered on the upstream clock.
    pub(crate) stop: NetId,
    /// See [`stop_launch_delay`].
    pub(crate) stop_delay: Time,
}

/// Elaborates a [`ChainSpec`] into one simulation.
///
/// A unit struct: [`ChainBuilder::build_with_backend`] is the whole API.
/// Identical [`DomainSpec`]s share a single clock net (so a "same domain"
/// spec means the *same clock*, not two coincidentally aligned
/// generators).
///
/// It is the crate's only chain elaborator: the sharded runner builds
/// each shard with the same code on the shard's segment range, so a shard
/// creates its nets, values and components in the order the whole-chain
/// build does.
#[derive(Debug)]
pub struct ChainBuilder;

impl ChainBuilder {
    /// Builds every segment, splices every boundary design, constructs the
    /// optional async head, and attaches per-boundary probes. `backend`
    /// runs every gate-level netlist in the chain (the boundary designs
    /// and the async head's micropipeline/ASRS); relay segments are
    /// behavioural components and run on the event kernel either way.
    pub fn build_with_backend(
        sim: &mut Simulator,
        spec: &ChainSpec,
        backend: Backend,
    ) -> Result<BuiltChain, String> {
        Self::elaborate(
            sim,
            spec,
            0..spec.segments.len(),
            MetaModel::hp06(),
            backend,
        )
    }

    /// Elaborates segments `range` of `spec` with metastability model
    /// `meta`: their clocks and relay segments, the async head when the
    /// range starts the chain, and every boundary design feeding a segment
    /// in the range, each with its probe.
    ///
    /// A domain's clock net is `chain.clk{f}`, `f` its first segment; when
    /// `f` lies before the range the net is an `xlink.clk{f}` replica. The
    /// boundary into `range.start > 0` takes its put side from
    /// `xlink.b{bd}.*` mirror nets ([`BuiltChain::cut_in`]). The outgoing
    /// boundary is left to the caller.
    pub(crate) fn elaborate(
        sim: &mut Simulator,
        spec: &ChainSpec,
        range: Range<usize>,
        meta: MetaModel,
        backend: Backend,
    ) -> Result<BuiltChain, String> {
        spec.validate()?;
        let params = spec.params();
        let delays = CellDelays::hp06();

        let mut domain_clk: HashMap<DomainSpec, NetId> = HashMap::new();
        let mut clock = |sim: &mut Simulator, seg: usize| {
            let dom = spec.segments[seg].domain;
            *domain_clk.entry(dom).or_insert_with(|| {
                let f = spec.segments.iter().position(|s| s.domain == dom);
                let f = f.expect("own segment");
                let prefix = if range.contains(&f) { "chain" } else { "xlink" };
                let n = sim.net(format!("{prefix}.clk{f}"));
                ClockGen::builder(dom.period).phase(dom.phase).spawn(sim, n);
                n
            })
        };
        let seg_clks: Vec<NetId> = range.clone().map(|i| clock(sim, i)).collect();

        let chains: Vec<RelayChain> = range
            .clone()
            .zip(&seg_clks)
            .map(|(i, &clk)| {
                let seg = &spec.segments[i];
                let name = format!("chain.seg{i}");
                RelayChain::spawn(sim, &name, clk, spec.width, seg.stations, seg.wire_delay)
            })
            .collect();

        let mut probes = Vec::new();

        // Optional async head: micropipeline → ASRS → first segment
        // (Fig. 14 of the paper).
        let mut async_in = None;
        if let (0, Some(stages)) = (range.start, spec.async_head) {
            let mut b = Builder::with_delays(sim, delays, meta);
            let ars = micropipeline(&mut b, stages, spec.width);
            let clocks = ClockInputs {
                clk_put: None,
                clk_get: Some(seg_clks[0]),
            };
            let asrs = ASYNC_SYNC_RS.build(&mut b, params, clocks);
            let head_netlist = b.finish();
            if backend == Backend::Compiled {
                install_compiled(sim, &head_netlist, "compiled.async_head");
            }
            let put_req = asrs.put_req.expect("async put");
            let put_ack = asrs.put_ack.expect("async put");
            let valid_get = asrs.valid_get.expect("stream get");
            let stop_in = asrs.stop_in.expect("stream get");
            connect(sim, ars.req_out, put_req);
            connect_bus(sim, &ars.data_out, &asrs.data_put);
            connect(sim, put_ack, ars.ack_out);
            connect(sim, valid_get, chains[0].port.in_valid);
            connect_bus(sim, &asrs.data_get, &chains[0].port.in_data);
            connect(sim, chains[0].port.stop_out, stop_in);
            let put = ProbePut::Async { ack: put_ack };
            probes.push(spawn_probe(
                sim,
                "async_sync_rs",
                put,
                seg_clks[0],
                valid_get,
                stop_in,
            ));
            async_in = Some(AsyncPort {
                req: ars.req_in,
                ack: ars.ack_in,
                data: ars.data_in.clone(),
            });
        }

        // Every boundary design whose get side is in the range, spliced
        // with 1 ps repeaters.
        let mut cut_in = None;
        for bd in range.start.saturating_sub(1)..range.end - 1 {
            let name = &spec.boundaries[bd];
            let design: &'static dyn MixedTimingDesign =
                DesignRegistry::get(name).expect("validated");
            let (clk_put, clk_get) = (clock(sim, bd), clock(sim, bd + 1));
            let (ports, netlist) =
                build_stream_design(sim, design, params, clk_put, clk_get, delays, meta, backend)?;
            let valid_in = ports.valid_in.expect("stream put");
            let stop_out = ports.stop_out.expect("stream put");
            let valid_get = ports.valid_get.expect("stream get");
            let stop_in = ports.stop_in.expect("stream get");
            let upstream = bd.checked_sub(range.start).map(|li| &chains[li].port);
            let (valid_src, data_src) = match upstream {
                Some(up) => (up.out_valid, up.out_data.clone()),
                None => {
                    let mv = sim.net(format!("xlink.b{bd}.valid"));
                    let md = sim.bus(&format!("xlink.b{bd}.data"), spec.width);
                    let mut pins = vec![(sim.driver(mv), mv)];
                    pins.extend(md.iter().map(|&n| (sim.driver(n), n)));
                    cut_in = Some(CutIn {
                        pins,
                        stop: stop_out,
                        stop_delay: stop_launch_delay(&netlist, stop_out),
                    });
                    (mv, md)
                }
            };
            connect(sim, valid_src, valid_in);
            connect_bus(sim, &data_src, &ports.data_put);
            if let Some(up) = upstream {
                connect(sim, stop_out, up.stop_in);
            }
            let down = &chains[bd + 1 - range.start].port;
            connect(sim, valid_get, down.in_valid);
            connect_bus(sim, &ports.data_get, &down.in_data);
            connect(sim, down.stop_out, stop_in);
            let put = ProbePut::Stream {
                clk: clk_put,
                valid: valid_in,
                stop: stop_out,
            };
            probes.push(spawn_probe(sim, name, put, clk_get, valid_get, stop_in));
        }

        let first = &chains[0].port;
        let last = &chains[chains.len() - 1].port;
        Ok(BuiltChain {
            port: RelayPort {
                in_valid: first.in_valid,
                in_data: first.in_data.clone(),
                stop_out: first.stop_out,
                out_valid: last.out_valid,
                out_data: last.out_data.clone(),
                stop_in: last.stop_in,
            },
            async_in,
            src_clk: seg_clks[0],
            sink_clk: seg_clks[seg_clks.len() - 1],
            probes,
            cut_in,
            has_source: range.start == 0,
            has_sink: range.end == spec.segments.len(),
        })
    }
}

/// A fully elaborated chain, ready for a source and a sink.
///
/// When the chain has an async head, feed it through
/// [`async_in`](Self::async_in) (the head port's `in_*` nets are already
/// driven by the ASRS and must be left alone); otherwise drive
/// [`port`](Self::port)'s `in_*` nets from a stream source clocked on
/// [`src_clk`](Self::src_clk).
#[derive(Debug)]
pub struct BuiltChain {
    /// Composite stream port: `in_*` at the first segment's head, `out_*`
    /// at the last segment's tail.
    pub port: RelayPort,
    /// The 4-phase producer port, when the chain has an async head.
    pub async_in: Option<AsyncPort>,
    /// Clock of the first (source-side) segment.
    pub src_clk: NetId,
    /// Clock of the last (sink-side) segment.
    pub sink_clk: NetId,
    probes: Vec<ProbeHandle>,
    /// The mirrored put side of the boundary into the range's first
    /// segment, when the range does not start the chain.
    pub(crate) cut_in: Option<CutIn>,
    /// Whether the range holds the chain's first / last segment.
    has_source: bool,
    has_sink: bool,
}

impl BuiltChain {
    /// Snapshots every boundary probe (flow order: async head first).
    pub fn boundary_reports(&self) -> Vec<BoundaryReport> {
        self.probes.iter().map(ProbeHandle::report).collect()
    }
}

/// Per-boundary statistics harvested from a probe after a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundaryReport {
    /// Registry name of the boundary design.
    pub design: String,
    /// Packets accepted on the put side.
    pub put_accepts: u64,
    /// Put-side clock cycles spent stalled (`stop_out` high). Always zero
    /// for the async head (a 4-phase put has no stall *cycles*).
    pub put_stall_cycles: u64,
    /// Packets delivered on the get side.
    pub get_delivers: u64,
    /// Get-side clock cycles spent back-pressured (`stop_in` high).
    pub get_stall_cycles: u64,
    /// High-water mark of (accepts − delivers): boundary occupancy.
    pub max_occupancy: u64,
}

/// End-to-end measurements of one chain run.
#[derive(Clone, Debug)]
pub struct ChainReport {
    /// Packets accepted from the source.
    pub sent: u64,
    /// Packets delivered at the sink.
    pub delivered: u64,
    /// Fastest source-accept → sink-sample transit observed.
    pub min_latency: Time,
    /// Slowest transit observed.
    pub max_latency: Time,
    /// Steady-state delivery rate (first quartile discarded as warm-up);
    /// `None` when too few packets were delivered to measure.
    pub throughput_hz: Option<f64>,
    /// Per-boundary statistics, in flow order (async head first).
    pub boundaries: Vec<BoundaryReport>,
}

/// How to drive a chain: the scripted payload, the sink's stall schedule,
/// and the simulator seed.
#[derive(Clone, Debug)]
pub struct ChainDrive {
    /// Simulator seed (the run is deterministic given the seed).
    pub seed: u64,
    /// Payload values, in order.
    pub items: Vec<u64>,
    /// Sink `stop_in` windows, in sink-clock cycles `[from, to)`.
    pub stalls: Vec<(u64, u64)>,
}

impl ChainDrive {
    /// `n` deterministic payload values masked to `width` bits, no stalls.
    pub fn clean(seed: u64, n: usize, width: usize) -> Self {
        let mask = if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        ChainDrive {
            seed,
            items: (0..n as u64)
                .map(|i| (i * 131 + seed * 7 + 1) & mask)
                .collect(),
            stalls: Vec::new(),
        }
    }

    /// Same payload, plus sink stall windows.
    pub fn with_stalls(seed: u64, n: usize, width: usize, stalls: Vec<(u64, u64)>) -> Self {
        ChainDrive {
            stalls,
            ..Self::clean(seed, n, width)
        }
    }
}

/// The outcome of [`run_chain`]: what went in, what came out, and the
/// measurements.
#[derive(Clone, Debug)]
pub struct ChainRun {
    /// Values the source actually handed over, in acceptance order.
    pub sent: Vec<u64>,
    /// Values the sink sampled, in delivery order.
    pub delivered: Vec<u64>,
    /// The measurements.
    pub report: ChainReport,
}

/// The simulation horizon [`run_chain`] (and the sharded runner) sizes
/// from a spec and drive: every packet gets several slow-domain cycles,
/// plus the full stall schedule twice over, plus pipeline fill and a
/// fixed floor.
pub fn chain_horizon(spec: &ChainSpec, drive: &ChainDrive) -> Time {
    let slowest_ps = spec.slowest_period().as_ps();
    let stall_cycles: u64 = drive.stalls.iter().map(|&(a, b)| b.saturating_sub(a)).sum();
    let fill: u64 = spec.segments.iter().map(|s| s.stations as u64).sum::<u64>()
        + 16 * spec.boundary_count() as u64;
    let cycles = drive.items.len() as u64 * 6 + stall_cycles * 2 + fill * 8 + 256;
    Time::from_ps(slowest_ps * cycles)
}

/// Elaborates `spec`, drives it with the golden-queue source/sink per
/// `drive`, runs to a horizon sized from the spec, and reports.
pub fn run_chain(spec: &ChainSpec, drive: &ChainDrive) -> Result<ChainRun, String> {
    run_chain_impl(spec, drive, false, Backend::Event).map(|(run, _)| run)
}

/// [`run_chain`] with the kernel's delta-race sanitizer enabled: also
/// returns every same-instant read-then-write / write-write hazard the
/// run exercised. The sanitizer is passive — the [`ChainRun`] is
/// identical to [`run_chain`]'s. The chain property suites keep this as
/// a standing check that no chain topology hides an evaluation-order
/// race.
pub fn run_chain_sanitized(
    spec: &ChainSpec,
    drive: &ChainDrive,
) -> Result<(ChainRun, Vec<mtf_sim::RaceHazard>), String> {
    run_chain_impl(spec, drive, true, Backend::Event)
}

/// [`run_chain_sanitized`] with an explicit execution [`Backend`] — the
/// differential suite runs the compiled backend under the sanitizer to
/// show the engine introduces no same-instant ordering hazards.
pub fn run_chain_sanitized_with_backend(
    spec: &ChainSpec,
    drive: &ChainDrive,
    backend: Backend,
) -> Result<(ChainRun, Vec<mtf_sim::RaceHazard>), String> {
    run_chain_impl(spec, drive, true, backend)
}

fn run_chain_impl(
    spec: &ChainSpec,
    drive: &ChainDrive,
    sanitize: bool,
    backend: Backend,
) -> Result<(ChainRun, Vec<mtf_sim::RaceHazard>), String> {
    let mut sim = Simulator::new(drive.seed);
    if sanitize {
        sim.enable_race_sanitizer();
    }
    let built = ChainBuilder::build_with_backend(&mut sim, spec, backend)?;
    let (src, sink) = spawn_endpoints(&mut sim, &built, drive);
    sim.run_until(chain_horizon(spec, drive))
        .map_err(|e| format!("{e:?}"))?;
    let run = assemble_run(
        &journal_pairs(src.as_ref()),
        &journal_pairs(sink.as_ref()),
        built.boundary_reports(),
    );
    Ok((run, sim.race_hazards()))
}

/// Spawns the golden-queue source (a 4-phase producer on an async head)
/// and sink per `drive` on whichever chain ends `built` holds, returning
/// their journals.
pub(crate) fn spawn_endpoints(
    sim: &mut Simulator,
    built: &BuiltChain,
    drive: &ChainDrive,
) -> (Option<OpJournal>, Option<OpJournal>) {
    let src = built.has_source.then(|| match &built.async_in {
        Some(a) => FourPhaseProducer::spawn(
            sim,
            "chain.src",
            a.req,
            a.ack,
            &a.data,
            drive.items.clone(),
            Time::from_ps(400),
            Time::ZERO,
        )
        .journal()
        .clone(),
        None => PacketSource::spawn(
            sim,
            "chain.src",
            built.src_clk,
            built.port.in_valid,
            &built.port.in_data,
            built.port.stop_out,
            drive.items.iter().map(|&v| Some(v)).collect(),
        ),
    });
    let sink = built.has_sink.then(|| {
        PacketSink::spawn(
            sim,
            "chain.sink",
            built.sink_clk,
            &built.port.out_data,
            built.port.out_valid,
            built.port.stop_in,
            drive.stalls.clone(),
        )
    });
    (src, sink)
}

/// A journal as `(value, time in ps)` pairs; empty when absent.
pub(crate) fn journal_pairs(journal: Option<&OpJournal>) -> Vec<(u64, u64)> {
    journal.map_or_else(Vec::new, |j| {
        j.values()
            .into_iter()
            .zip(j.times())
            .map(|(v, t)| (v, t.as_ps()))
            .collect()
    })
}

/// Measures a run from its source and sink `(value, time in ps)` pairs:
/// per-item latency pairs the i-th accept with the i-th delivery, and
/// throughput discards the first quarter of deliveries as warm-up.
pub(crate) fn assemble_run(
    sent: &[(u64, u64)],
    delivered: &[(u64, u64)],
    boundaries: Vec<BoundaryReport>,
) -> ChainRun {
    let latencies: Vec<Time> = sent
        .iter()
        .zip(delivered)
        .map(|(&(_, s), &(_, d))| Time::from_ps(d) - Time::from_ps(s))
        .collect();
    let sink = OpJournal::new();
    for &(v, t) in delivered {
        sink.push(Time::from_ps(t), v);
    }
    let report = ChainReport {
        sent: sent.len() as u64,
        delivered: delivered.len() as u64,
        min_latency: latencies.iter().copied().min().unwrap_or(Time::ZERO),
        max_latency: latencies.iter().copied().max().unwrap_or(Time::ZERO),
        throughput_hz: sink.ops_per_second(delivered.len() / 4),
        boundaries,
    };
    ChainRun {
        sent: sent.iter().map(|&(v, _)| v).collect(),
        delivered: delivered.iter().map(|&(v, _)| v).collect(),
        report,
    }
}

/// The analytically predicted end-to-end latency band for an uncontended
/// (stall-free) run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyEnvelope {
    /// No packet can transit faster than this.
    pub min: Time,
    /// No uncontended packet should transit slower than this.
    pub max: Time,
}

/// The analytically predicted steady-state throughput band for an
/// uncontended run with an eager source.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThroughputPrediction {
    /// The slowest-domain ceiling: one packet per slowest-clock cycle.
    pub max_hz: f64,
    /// The floor a correct chain must sustain.
    pub min_hz: f64,
}

/// Predicts the end-to-end latency envelope from the spec alone
/// (paper Section 5 reasoning).
///
/// Per segment, each relay station forwards a packet exactly one cycle
/// after absorbing it, so `k` stations contribute `k·T` (the final sink
/// sampling edge is the last station's cycle). Per mixed-clock boundary,
/// the full/empty state crosses an `s`-flop synchronizer on the receiving
/// clock: at least `(s−1)·T_get` (the crossing can land just before an
/// edge), at most `(s+4)·T_get + 2·T_put` (token-ring hand-off, worst
/// edge alignment on both sides, plus detector settling). A single-clock
/// `sync_rs` boundary is simply one more relay station: exactly one cycle.
/// The async head contributes near-zero minimum (an uncontended
/// micropipeline flushes in gate delays) and a per-stage constant plus one
/// synchronizer crossing at most.
///
/// The maximum additionally carries a *queueing* term: an eager source
/// saturates the chain, so a packet can find every upstream buffer full
/// and wait for the whole backlog to drain through the slowest domain at
/// one packet per cycle. The backlog is bounded by the chain's total
/// buffering — two places per relay station, `capacity` per boundary
/// FIFO, one per micropipeline stage — which is why measured worst-case
/// latency grows with boundary capacity even in a stall-free run.
pub fn predict_latency(spec: &ChainSpec) -> LatencyEnvelope {
    let s = spec.sync_stages as u64;
    let mut min_ps: u64 = 0;
    let mut max_ps: u64 = 0;
    for seg in &spec.segments {
        let t = seg.domain.period.as_ps();
        min_ps += seg.stations as u64 * t;
        max_ps += seg.stations as u64 * t;
    }
    for (pair, name) in spec.segments.windows(2).zip(&spec.boundaries) {
        let t_put = pair[0].domain.period.as_ps();
        let t_get = pair[1].domain.period.as_ps();
        if name == "sync_rs" {
            min_ps += t_get;
            max_ps += 2 * t_get;
        } else {
            min_ps += (s.saturating_sub(1)) * t_get;
            max_ps += (s + 4) * t_get + 2 * t_put;
        }
    }
    if let Some(stages) = spec.async_head {
        let t0 = spec
            .segments
            .first()
            .map_or(0, |seg| seg.domain.period.as_ps());
        // Min: the pipeline can flush in pure gate delays; claim nothing.
        // Max: a generous 5 ns per micropipeline stage, plus one
        // synchronizer crossing with worst-case alignment into the first
        // sync domain.
        max_ps += stages as u64 * 5_000 + (s + 4) * t0;
    }
    // Queueing under a saturating source: the whole backlog ahead of a
    // packet drains through the bottleneck at one per slowest cycle.
    let backlog: u64 = spec
        .segments
        .iter()
        .map(|s| 2 * s.stations as u64)
        .sum::<u64>()
        + spec.boundaries.len() as u64 * spec.capacity as u64
        + spec.async_head.unwrap_or(0) as u64;
    max_ps += backlog * spec.slowest_period().as_ps();
    // Global slack: source-edge/sink-edge alignment across the whole chain.
    max_ps += spec.slowest_period().as_ps();
    LatencyEnvelope {
        min: Time::from_ps(min_ps),
        max: Time::from_ps(max_ps),
    }
}

/// Predicts the steady-state throughput band from the spec alone.
///
/// The ceiling is one packet per cycle of the *slowest* domain — relay
/// stations and mixed-clock boundaries all sustain a packet per cycle, so
/// the slowest clock is the bottleneck (the paper's Section 5 claim for
/// MCRS throughput). The floor is a fraction of the ceiling: a correct
/// fully-synchronous chain loses at most the synchronizer hand-off
/// overhead; an async-headed chain is additionally throttled by the
/// 4-phase handshake duty cycle of the ASRS put side.
pub fn predict_throughput(spec: &ChainSpec) -> ThroughputPrediction {
    let max_hz = 1e12 / spec.slowest_period().as_ps() as f64;
    let factor = if spec.async_head.is_some() {
        0.30
    } else {
        0.45
    };
    ThroughputPrediction {
        max_hz,
        min_hz: max_hz * factor,
    }
}

/// Everything [`verify_chain`] measured and checked.
#[derive(Clone, Debug)]
pub struct ChainVerification {
    /// The predicted latency envelope the clean run was checked against.
    pub envelope: LatencyEnvelope,
    /// The predicted throughput band the clean run was checked against.
    pub throughput: ThroughputPrediction,
    /// The uncontended run (latency + throughput checks).
    pub clean: ChainRun,
    /// The back-pressured run (losslessness + deadlock-freedom checks).
    pub stalled: ChainRun,
}

/// The sink stall schedule [`verify_chain`] injects: overlapping long and
/// point stalls early, then a long freeze mid-stream — adversarial
/// `stopIn` back-pressure while upstream boundaries are mid-flight.
pub fn verification_stalls() -> Vec<(u64, u64)> {
    vec![(8, 30), (33, 34), (36, 37), (45, 95), (120, 140)]
}

/// Drives `spec` end-to-end twice and checks it against its own
/// predictions:
///
/// 1. **Clean run** — asserts every item is delivered exactly once in
///    FIFO order, the measured min/max latency sits inside
///    [`predict_latency`]'s envelope, and (when `n_items` ≥ 40) the
///    steady-state throughput sits inside [`predict_throughput`]'s band.
/// 2. **Stalled run** — re-runs with [`verification_stalls`] injected at
///    the sink and asserts losslessness and FIFO order again: if any
///    boundary (including the bi-modal empty detector in the MCRS/ASRS
///    get parts) wedged under back-pressure, items would be missing.
///
/// The spec is validated first; a spec that [`ChainSpec::validate`]
/// rejects returns its message and runs nothing. The two drives share no
/// state, so they run concurrently: the stalled one on a scoped thread,
/// the clean one on the calling thread, each in its own [`Simulator`] —
/// two simulators are live at once. Failures are still reported in the
/// serial order (the clean run's error, then its checks, then the stalled
/// run's error, then its checks), so every `Ok` and `Err` is the same as
/// running the drives one after the other. A panic in either drive
/// reaches the caller once both have finished.
///
/// Returns the collected evidence, or the first failed check as `Err`.
pub fn verify_chain(spec: &ChainSpec, n_items: usize) -> Result<ChainVerification, String> {
    verify_chain_with_backend(spec, n_items, Backend::Event)
}

/// [`verify_chain`] with an explicit execution [`Backend`]: the same
/// end-to-end evidence (losslessness, latency envelope, throughput band,
/// stall robustness) collected on the chosen backend. Running this on
/// [`Backend::Compiled`] and diffing the report against the event
/// backend's golden copy is the bench-level equivalence check.
pub fn verify_chain_with_backend(
    spec: &ChainSpec,
    n_items: usize,
    backend: Backend,
) -> Result<ChainVerification, String> {
    spec.validate()?;
    let envelope = predict_latency(spec);
    let throughput = predict_throughput(spec);

    let clean_drive = ChainDrive::clean(11, n_items, spec.width);
    let stalled_drive = ChainDrive::with_stalls(13, n_items, spec.width, verification_stalls());
    let run = |drive: &ChainDrive| run_chain_impl(spec, drive, false, backend).map(|(run, _)| run);
    let (clean, stalled) = join2(|| run(&clean_drive), || run(&stalled_drive));

    let clean = clean?;
    if clean.sent.len() != n_items {
        return Err(format!(
            "clean run: source only handed over {}/{n_items} items",
            clean.sent.len()
        ));
    }
    if clean.delivered != clean.sent {
        return Err(format!(
            "clean run: delivery is not lossless FIFO ({} sent, {} delivered)",
            clean.sent.len(),
            clean.delivered.len()
        ));
    }
    let (lo, hi) = (clean.report.min_latency, clean.report.max_latency);
    if lo < envelope.min || hi > envelope.max {
        return Err(format!(
            "clean run: measured latency [{lo}, {hi}] outside predicted envelope [{}, {}]",
            envelope.min, envelope.max
        ));
    }
    if n_items >= 40 {
        let hz = clean
            .report
            .throughput_hz
            .ok_or("clean run: too few deliveries to measure throughput")?;
        if hz < throughput.min_hz || hz > throughput.max_hz * 1.06 {
            return Err(format!(
                "clean run: throughput {:.1} MHz outside predicted [{:.1}, {:.1}] MHz",
                hz / 1e6,
                throughput.min_hz / 1e6,
                throughput.max_hz / 1e6
            ));
        }
    }

    let stalled = stalled?;
    if stalled.sent.len() != n_items || stalled.delivered != stalled.sent {
        return Err(format!(
            "stalled run: lost or reordered items under stopIn back-pressure \
             ({} sent, {} delivered) — deadlock or detector wedge",
            stalled.sent.len(),
            stalled.delivered.len()
        ));
    }

    Ok(ChainVerification {
        envelope,
        throughput,
        clean,
        stalled,
    })
}

/// Runs `spawned` on a scoped thread and `local` on the calling thread,
/// and returns both results once both have finished. A panic on either
/// side reaches the caller after the other side has finished; the
/// spawned side's payload is resumed unchanged, so its message survives.
fn join2<L, S, A, B>(local: L, spawned: S) -> (A, B)
where
    L: FnOnce() -> A,
    S: FnOnce() -> B + Send,
    B: Send,
{
    std::thread::scope(|scope| {
        let handle = scope.spawn(spawned);
        let a = local();
        let b = handle
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        (a, b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_domain_spec() -> ChainSpec {
        ChainSpec::new(8, 8)
            .segment(10_000, 0, 2)
            .boundary("mixed_clock_rs")
            .segment(13_000, 2_400, 2)
    }

    #[test]
    fn validate_catches_arity_mismatch() {
        let spec = ChainSpec::new(8, 8)
            .segment(10_000, 0, 2)
            .segment(12_000, 0, 1);
        let err = spec.validate().unwrap_err();
        assert!(err.contains("boundaries"), "got: {err}");
    }

    #[test]
    fn validate_rejects_unknown_design() {
        let spec = ChainSpec::new(8, 8)
            .segment(10_000, 0, 1)
            .boundary("gray_pointer_rs")
            .segment(12_000, 0, 1);
        let err = spec.validate().unwrap_err();
        assert!(err.contains("no design named"), "got: {err}");
    }

    #[test]
    fn validate_rejects_non_stream_boundary() {
        let spec = ChainSpec::new(8, 8)
            .segment(10_000, 0, 1)
            .boundary("mixed_clock")
            .segment(12_000, 0, 1);
        let err = spec.validate().unwrap_err();
        assert!(err.contains("not the relay stream protocol"), "got: {err}");
    }

    #[test]
    fn validate_rejects_sync_rs_across_domains() {
        let spec = ChainSpec::new(8, 8)
            .segment(10_000, 0, 1)
            .boundary("sync_rs")
            .segment(12_000, 0, 1);
        let err = spec.validate().unwrap_err();
        assert!(err.contains("single-clock"), "got: {err}");
        let same = ChainSpec::new(8, 8)
            .segment(10_000, 0, 1)
            .boundary("sync_rs")
            .segment(10_000, 0, 1);
        same.validate().expect("same domain is fine");
    }

    #[test]
    fn validate_rejects_slow_wire() {
        let mut spec = ChainSpec::new(8, 8).segment(10_000, 0, 1);
        spec.segments[0].wire_delay = Time::from_ns(11);
        let err = spec.validate().unwrap_err();
        assert!(err.contains("segmentation"), "got: {err}");
    }

    #[test]
    fn two_domain_chain_runs_lossless() {
        let run = run_chain(&two_domain_spec(), &ChainDrive::clean(3, 50, 8)).unwrap();
        assert_eq!(run.sent.len(), 50);
        assert_eq!(run.delivered, run.sent);
        assert_eq!(run.report.boundaries.len(), 1);
        let b = &run.report.boundaries[0];
        assert_eq!(b.put_accepts, 50);
        assert_eq!(b.get_delivers, 50);
        assert!(b.max_occupancy >= 1);
    }

    #[test]
    fn stalls_show_up_in_boundary_stats() {
        let run = run_chain(
            &two_domain_spec(),
            &ChainDrive::with_stalls(3, 50, 8, vec![(5, 40)]),
        )
        .unwrap();
        assert_eq!(run.delivered, run.sent);
        let b = &run.report.boundaries[0];
        assert!(
            b.put_stall_cycles > 0,
            "a long sink stall must back-pressure the boundary"
        );
    }

    #[test]
    fn predictor_is_monotone_in_chain_length() {
        let short = predict_latency(&two_domain_spec());
        let long = predict_latency(
            &ChainSpec::new(8, 8)
                .segment(10_000, 0, 4)
                .boundary("mixed_clock_rs")
                .segment(13_000, 2_400, 4),
        );
        assert!(long.min > short.min);
        assert!(long.max > short.max);
        assert!(short.min < short.max);
    }

    #[test]
    fn verify_two_domain_chain() {
        verify_chain(&two_domain_spec(), 60).expect("envelope and losslessness hold");
    }

    #[test]
    fn verify_refuses_an_invalid_spec_with_the_validate_message() {
        // One segment but one boundary: the predictor used to index the
        // missing second segment. Width 64: the payload mask used to shift
        // out of range.
        let specs = [
            (
                ChainSpec::new(8, 4)
                    .segment(10_000, 0, 1)
                    .boundary("mixed_clock_rs"),
                "1 segments need exactly 0 boundaries (got 1)",
            ),
            (
                ChainSpec::new(64, 4).segment(10_000, 0, 1),
                "width must be in 1..=63 (got 64)",
            ),
        ];
        for (spec, want) in specs {
            assert_eq!(spec.validate().unwrap_err(), want);
            assert_eq!(verify_chain(&spec, 40).unwrap_err(), want);
            predict_latency(&spec);
        }
        assert_eq!(ChainDrive::clean(0, 3, 64).items, [1, 132, 263]);
        assert_eq!(ChainDrive::clean(0, 3, 2).items, [1, 0, 3]);
    }

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("<non-string payload>")
    }

    #[test]
    fn join2_returns_both_results() {
        assert_eq!(join2(|| 1, || "two"), (1, "two"));
    }

    /// Long enough never to fire on a working `join2`; it turns a join
    /// that does not run the two sides at once into a failure, not a hang.
    const HANDOFF: std::time::Duration = std::time::Duration::from_secs(10);

    #[test]
    fn join2_resumes_a_spawned_panic_after_the_local_side() {
        // The local side waits for the spawned one's hand-off, so it
        // finishes only after the spawned side has started to panic.
        let (tx, rx) = std::sync::mpsc::channel();
        let local_done = std::cell::Cell::new(false);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            join2(
                || {
                    rx.recv_timeout(HANDOFF).expect("both sides run at once");
                    local_done.set(true);
                },
                move || -> () {
                    tx.send(()).expect("the local side is waiting");
                    panic!("spawned side failed: {}", 7)
                },
            )
        }));
        let payload = caught.expect_err("the spawned panic reaches the caller");
        assert_eq!(panic_message(&*payload), "spawned side failed: 7");
        assert!(local_done.get(), "the local side ran to completion first");
    }

    #[test]
    fn join2_joins_the_spawned_side_when_the_local_side_panics() {
        // The spawned side finishes only after the local side's hand-off,
        // that is, while the local side is already panicking.
        let (tx, rx) = std::sync::mpsc::channel();
        let spawned_done = std::sync::atomic::AtomicBool::new(false);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            join2(
                move || -> () {
                    tx.send(()).expect("the spawned side is waiting");
                    panic!("local side failed")
                },
                || {
                    let rx = rx;
                    rx.recv_timeout(HANDOFF).expect("both sides run at once");
                    spawned_done.store(true, std::sync::atomic::Ordering::SeqCst);
                },
            )
        }));
        let payload = caught.expect_err("the local panic reaches the caller");
        assert_eq!(panic_message(&*payload), "local side failed");
        assert!(
            spawned_done.load(std::sync::atomic::Ordering::SeqCst),
            "the spawned side was joined before the panic went on"
        );
    }
}
