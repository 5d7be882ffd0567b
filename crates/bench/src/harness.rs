//! The shared experiment harness: one builder that assembles
//! clocks + design + environments for **any** registered design.
//!
//! Before this layer existed every experiment hand-wired concrete FIFO
//! types; the [`Harness`] replaces that with the design-layer contract
//! ([`MixedTimingDesign`] + [`DesignPorts`]): callers create clock nets and
//! generators, build a design through the trait, and attach environments
//! described by [`Feed`]/[`Drain`] specs — the harness picks the right
//! producer/consumer component from each interface's [`InterfaceSpec`].
//!
//! The harness is deliberately *imperative*: each step performs its
//! simulator mutations immediately, in call order. Net and component
//! creation order feeds the deterministic event kernel, so the printed
//! golden tables depend on it — an experiment migrated onto the harness
//! reproduces its old output byte for byte by making the same calls in the
//! same order.

use mtf_async::{FourPhaseGetter, FourPhaseProducer, OpJournal};
use mtf_core::env::{PacketSink, PacketSource, SyncConsumer, SyncProducer};
use mtf_core::{ClockInputs, Clocking, DesignPorts, FifoParams, InterfaceSpec, MixedTimingDesign};
use mtf_gates::{install_compiled, Builder, CellDelays, Netlist};
use mtf_sim::{Backend, ClockGen, Logic, MetaModel, NetId, Simulator, Time};
use mtf_timing::Tech;

/// An experiment testbench under construction (and then under test): the
/// simulator, its clock nets, the built design's ports and netlist.
#[derive(Debug)]
pub struct Harness {
    /// The simulator; experiments drive and inspect it directly.
    pub sim: Simulator,
    delays: CellDelays,
    meta: MetaModel,
    backend: Backend,
    /// The put-slot clock net, once created.
    pub clk_put: Option<NetId>,
    /// The get-slot clock net, once created.
    pub clk_get: Option<NetId>,
    /// The built design's external nets, after [`Harness::build`].
    pub ports: Option<DesignPorts>,
    /// The built netlist (for STA / area / energy), after [`Harness::build`].
    pub netlist: Option<Netlist>,
}

/// How to feed a design's put interface.
#[derive(Clone, Debug)]
pub enum Feed {
    /// Offer `items` as fast as the interface allows. `bundling` and
    /// `phase` configure asynchronous producers (data-to-request margin
    /// and initial idle time) and are ignored by clocked ones.
    Saturate {
        /// The items to enqueue, in order.
        items: Vec<u64>,
        /// Async bundled-data settling margin.
        bundling: Time,
        /// Async initial idle time (also the inter-handshake gap).
        phase: Time,
    },
    /// Drive an explicit packet stream — `None` is a bubble. Stream
    /// (relay-station) puts only.
    Packets {
        /// The packet sequence.
        packets: Vec<Option<u64>>,
    },
}

/// How to drain a design's get interface.
#[derive(Clone, Debug)]
pub enum Drain {
    /// Request continuously until `n` items arrived. `phase` configures
    /// asynchronous getters (inter-handshake gap) and is ignored by
    /// clocked ones.
    Consume {
        /// Number of items to dequeue.
        n: u64,
        /// Async inter-handshake gap.
        phase: Time,
    },
    /// A stream sink asserting `stop_in` during the given half-open cycle
    /// windows. Stream gets only.
    Sink {
        /// Stall windows `[from, to)` in sink cycles.
        stalls: Vec<(u64, u64)>,
    },
}

impl Harness {
    /// A harness over a fresh simulator with the default gate model
    /// (`CellDelays::hp06` + stochastic `MetaModel::hp06` — what
    /// `Builder::new` uses).
    pub fn new(seed: u64) -> Self {
        Self::with_model(seed, CellDelays::hp06(), MetaModel::hp06())
    }

    /// A harness with the measurement calibration: custom-circuit delays
    /// and the deterministic (ideal) metastability model, as used by every
    /// Table 1 number.
    pub fn calibrated(seed: u64) -> Self {
        Self::with_model(seed, CellDelays::hp06_custom(), MetaModel::ideal())
    }

    /// A harness with an explicit gate-delay and metastability model.
    pub fn with_model(seed: u64, delays: CellDelays, meta: MetaModel) -> Self {
        Harness {
            sim: Simulator::new(seed),
            delays,
            meta,
            backend: Backend::Event,
            clk_put: None,
            clk_get: None,
            ports: None,
            netlist: None,
        }
    }

    /// Selects the execution [`Backend`] for the next [`Harness::build`].
    /// Under [`Backend::Compiled`] the synchronous regions of the built
    /// netlist are compiled to straight-line code after elaboration; the
    /// observable run is byte-identical to the event backend.
    pub fn use_backend(&mut self, backend: Backend) -> &mut Self {
        self.backend = backend;
        self
    }

    /// Creates the clock nets a design's [`Clocking`] calls for (put slot
    /// first, then get slot — the canonical creation order).
    pub fn clock_nets(&mut self, clocking: Clocking) -> &mut Self {
        if clocking.needs_put() {
            self.clk_put = Some(self.sim.net("clk_put"));
        }
        if clocking.needs_get() {
            self.clk_get = Some(self.sim.net("clk_get"));
        }
        self
    }

    /// Creates both clock nets unconditionally (measurement testbenches do
    /// this regardless of the design's clocking, so that seeds and net
    /// numbering are design-independent).
    pub fn clock_nets_both(&mut self) -> &mut Self {
        self.clk_put = Some(self.sim.net("clk_put"));
        self.clk_get = Some(self.sim.net("clk_get"));
        self
    }

    /// Spawns a free-running generator on the put-slot clock.
    pub fn gen_put(&mut self, period: Time) -> &mut Self {
        let clk = self.clk_put.expect("create the put clock net first");
        ClockGen::spawn_simple(&mut self.sim, clk, period);
        self
    }

    /// Spawns a phase-shifted generator on the put-slot clock.
    pub fn gen_put_phased(&mut self, period: Time, phase: Time) -> &mut Self {
        let clk = self.clk_put.expect("create the put clock net first");
        ClockGen::builder(period)
            .phase(phase)
            .spawn(&mut self.sim, clk);
        self
    }

    /// Spawns a free-running generator on the get-slot clock.
    pub fn gen_get(&mut self, period: Time) -> &mut Self {
        let clk = self.clk_get.expect("create the get clock net first");
        ClockGen::spawn_simple(&mut self.sim, clk, period);
        self
    }

    /// Spawns a phase-shifted generator on the get-slot clock.
    pub fn gen_get_phased(&mut self, period: Time, phase: Time) -> &mut Self {
        let clk = self.clk_get.expect("create the get clock net first");
        ClockGen::builder(period)
            .phase(phase)
            .spawn(&mut self.sim, clk);
        self
    }

    /// Builds `design` at `params` with the harness's gate model and the
    /// clock nets created so far. Stores (and returns a reference to) the
    /// design's [`DesignPorts`]; the finished [`Netlist`] is kept for
    /// timing/area/energy analysis.
    ///
    /// # Panics
    ///
    /// Panics when `design.supports(params)` rejects the parameters or a
    /// required clock net was not created.
    pub fn build(&mut self, design: &dyn MixedTimingDesign, params: FifoParams) -> &DesignPorts {
        if let Err(why) = design.supports(params) {
            panic!(
                "{} cannot be built at {params}: {why}",
                design.kind().name()
            );
        }
        let mut b = Builder::with_delays(&mut self.sim, self.delays, self.meta);
        let ports = design.build(
            &mut b,
            params,
            ClockInputs {
                clk_put: self.clk_put,
                clk_get: self.clk_get,
            },
        );
        let netlist = b.finish();
        if self.backend == Backend::Compiled {
            install_compiled(
                &mut self.sim,
                &netlist,
                &format!("compiled.{}", design.kind().name()),
            );
        }
        self.netlist = Some(netlist);
        self.ports = Some(ports);
        self.ports.as_ref().expect("just built")
    }

    /// [`build`](Self::build), followed by fanout-aware delay annotation
    /// with `tech` (what every timing-accurate measurement needs).
    pub fn build_annotated(
        &mut self,
        design: &dyn MixedTimingDesign,
        params: FifoParams,
        tech: &Tech,
    ) -> &DesignPorts {
        self.build(design, params);
        tech.annotate(self.netlist.as_ref().expect("just built"));
        self.ports.as_ref().expect("just built")
    }

    /// The built design's ports.
    ///
    /// # Panics
    ///
    /// Panics before [`Harness::build`].
    pub fn ports(&self) -> &DesignPorts {
        self.ports.as_ref().expect("build a design first")
    }

    /// The built netlist.
    ///
    /// # Panics
    ///
    /// Panics before [`Harness::build`].
    pub fn netlist(&self) -> &Netlist {
        self.netlist.as_ref().expect("build a design first")
    }

    /// Attaches a producer environment matching the put interface's
    /// protocol and returns its completion journal.
    ///
    /// # Panics
    ///
    /// Panics if the feed shape does not fit the interface (packets into a
    /// non-stream put, saturation into a stream put is converted
    /// bubble-free, so only `Packets`-into-non-stream is an error).
    pub fn feed(&mut self, name: &str, feed: Feed) -> OpJournal {
        let ports = self.ports().clone();
        match (ports.put_spec(), feed) {
            (InterfaceSpec::SyncFifo { .. }, Feed::Saturate { items, .. }) => SyncProducer::spawn(
                &mut self.sim,
                name,
                ports.put_clock().expect("clocked put needs a clock"),
                ports.req_put.expect("sync put"),
                &ports.data_put,
                ports.full.expect("sync put"),
                items,
            ),
            (
                InterfaceSpec::Async4Phase { .. },
                Feed::Saturate {
                    items,
                    bundling,
                    phase,
                },
            ) => FourPhaseProducer::spawn(
                &mut self.sim,
                name,
                ports.put_req.expect("async put"),
                ports.put_ack.expect("async put"),
                &ports.data_put,
                items,
                bundling,
                phase,
            )
            .journal()
            .clone(),
            (InterfaceSpec::SyncStream { .. }, feed) => {
                let packets = match feed {
                    Feed::Packets { packets } => packets,
                    Feed::Saturate { items, .. } => items.into_iter().map(Some).collect(),
                };
                PacketSource::spawn(
                    &mut self.sim,
                    name,
                    ports.put_clock().expect("stream put needs a clock"),
                    ports.valid_in.expect("stream put"),
                    &ports.data_put,
                    ports.stop_out.expect("stream put"),
                    packets,
                )
            }
            (spec, Feed::Packets { .. }) => {
                panic!("packet feeds need a stream put, not {}", spec.label())
            }
        }
    }

    /// Attaches a consumer environment matching the get interface's
    /// protocol and returns its completion journal.
    ///
    /// # Panics
    ///
    /// Panics if the drain shape does not fit the interface.
    pub fn drain(&mut self, name: &str, drain: Drain) -> OpJournal {
        let ports = self.ports().clone();
        match (ports.get_spec(), drain) {
            (InterfaceSpec::SyncFifo { .. }, Drain::Consume { n, .. }) => SyncConsumer::spawn(
                &mut self.sim,
                name,
                ports.get_clock().expect("clocked get needs a clock"),
                ports.req_get.expect("sync get"),
                &ports.data_get,
                ports.valid_get.expect("sync get"),
                n,
            ),
            (InterfaceSpec::Async4Phase { .. }, Drain::Consume { n, phase }) => {
                FourPhaseGetter::spawn(
                    &mut self.sim,
                    name,
                    ports.get_req.expect("async get"),
                    ports.get_ack.expect("async get"),
                    &ports.data_get,
                    n as usize,
                    phase,
                )
                .journal()
                .clone()
            }
            (InterfaceSpec::SyncStream { .. }, Drain::Sink { stalls }) => PacketSink::spawn(
                &mut self.sim,
                name,
                ports.get_clock().expect("stream get needs a clock"),
                &ports.data_get,
                ports.valid_get.expect("stream get"),
                ports.stop_in.expect("stream get"),
                stalls,
            ),
            (spec, drain) => panic!(
                "drain {drain:?} does not fit a {} get interface",
                spec.label()
            ),
        }
    }

    /// Single-shot latency probe for a **clocked FIFO** put: presents
    /// `item` on the data bus at `t0`, raises the request at `t0`, and
    /// releases it at `release` (one enqueue only).
    pub fn inject_sync_once(&mut self, item: u64, t0: Time, release: Time) {
        let ports = self.ports().clone();
        let data = ports.data_put.clone();
        let req = ports.req_put.expect("sync put");
        for (i, &dnet) in data.iter().enumerate() {
            let drv = self.sim.driver(dnet);
            self.sim
                .drive_at(drv, dnet, Logic::from_bool((item >> i) & 1 == 1), t0);
        }
        let rd = self.sim.driver(req);
        self.sim.drive_at(rd, req, Logic::L, Time::ZERO);
        self.sim.drive_at(rd, req, Logic::H, t0);
        self.sim.drive_at(rd, req, Logic::L, release);
    }

    /// Single-shot latency probe for an **async 4-phase** put: presents
    /// `item` at `t0`, raises the request after the `bundling` margin, and
    /// lowers it at `release`.
    pub fn inject_async_once(&mut self, item: u64, t0: Time, bundling: Time, release: Time) {
        let ports = self.ports().clone();
        let data = ports.data_put.clone();
        let req = ports.put_req.expect("async put");
        for (i, &dnet) in data.iter().enumerate() {
            let drv = self.sim.driver(dnet);
            self.sim
                .drive_at(drv, dnet, Logic::from_bool((item >> i) & 1 == 1), t0);
        }
        let rd = self.sim.driver(req);
        self.sim.drive_at(rd, req, Logic::L, Time::ZERO);
        self.sim.drive_at(rd, req, Logic::H, t0 + bundling);
        self.sim.drive_at(rd, req, Logic::L, release);
    }
}

/// Environment knobs for [`fifo_transfer`], covering the per-design
/// variation the cross-design property test sweeps.
#[derive(Clone, Debug)]
pub struct TransferConfig {
    /// Simulator seed (also used to derive clock phases).
    pub seed: u64,
    /// Put-slot clock period in ps (unused when the design has none).
    pub t_put: u64,
    /// Get-slot clock period in ps (unused when the design has none).
    pub t_get: u64,
    /// Initial idle / inter-handshake gap of an asynchronous producer.
    pub producer_phase: Time,
    /// Inter-handshake gap of an asynchronous getter.
    pub getter_phase: Time,
    /// For stream puts: insert a bubble before item `i` whenever
    /// `(i + offset) % 3 == 0`.
    pub bubble_offset: Option<u64>,
    /// For stream gets: sink stall windows.
    pub stalls: Vec<(u64, u64)>,
    /// Simulation horizon.
    pub horizon: Time,
    /// Execution backend (event-driven kernel or compiled netlist).
    pub backend: Backend,
}

impl TransferConfig {
    /// A plain configuration: no async gaps, no bubbles, no stalls.
    pub fn plain(seed: u64, t_put: u64, t_get: u64, horizon: Time) -> Self {
        TransferConfig {
            seed,
            t_put,
            t_get,
            producer_phase: Time::ZERO,
            getter_phase: Time::ZERO,
            bubble_offset: None,
            stalls: Vec::new(),
            horizon,
            backend: Backend::Event,
        }
    }
}

/// Pushes `items` through `design` with protocol-appropriate environments
/// on both sides and returns the values that came out, in arrival order.
///
/// This is the golden-queue check made generic: a correct FIFO returns
/// exactly `items`. Both the cross-design property test and the registry
/// conformance loop are built on it — a newly registered design is covered
/// with no new test code.
pub fn fifo_transfer(
    design: &dyn MixedTimingDesign,
    params: FifoParams,
    items: &[u64],
    cfg: &TransferConfig,
) -> Vec<u64> {
    let (_, out) = fifo_transfer_run(design, params, items, cfg);
    out.values()
}

/// [`fifo_transfer`] returning the finished [`Harness`] alongside the
/// drain journal, for callers that also want the kernel counters or
/// waveforms of the run (the `benchmark` bin reads them this way).
pub fn fifo_transfer_run(
    design: &dyn MixedTimingDesign,
    params: FifoParams,
    items: &[u64],
    cfg: &TransferConfig,
) -> (Harness, OpJournal) {
    let mut h = Harness::new(cfg.seed);
    h.use_backend(cfg.backend);
    h.clock_nets(design.clocking());
    if h.clk_put.is_some() {
        h.gen_put(Time::from_ps(cfg.t_put));
    }
    if h.clk_get.is_some() {
        h.gen_get_phased(
            Time::from_ps(cfg.t_get),
            Time::from_ps(cfg.seed % cfg.t_get),
        );
    }
    h.build(design, params);
    let feed = match h.ports().put_spec() {
        InterfaceSpec::SyncStream { .. } => {
            let offset = cfg.bubble_offset.unwrap_or(0);
            let mut packets = Vec::new();
            for (i, &v) in items.iter().enumerate() {
                if (i as u64 + offset).is_multiple_of(3) {
                    packets.push(None);
                }
                packets.push(Some(v));
            }
            Feed::Packets { packets }
        }
        _ => Feed::Saturate {
            items: items.to_vec(),
            bundling: Time::from_ps(400),
            phase: cfg.producer_phase,
        },
    };
    let feed_name = match h.ports().put_spec() {
        InterfaceSpec::SyncStream { .. } => "s",
        _ => "p",
    };
    let _pj = h.feed(feed_name, feed);
    let (drain_name, drain) = match h.ports().get_spec() {
        InterfaceSpec::SyncStream { .. } => (
            "k",
            Drain::Sink {
                stalls: cfg.stalls.clone(),
            },
        ),
        InterfaceSpec::Async4Phase { .. } => (
            "g",
            Drain::Consume {
                n: items.len() as u64,
                phase: cfg.getter_phase,
            },
        ),
        InterfaceSpec::SyncFifo { .. } => (
            "c",
            Drain::Consume {
                n: items.len() as u64,
                phase: Time::ZERO,
            },
        ),
    };
    let out = h.drain(drain_name, drain);
    h.sim.run_until(cfg.horizon).expect("simulation runs");
    (h, out)
}
