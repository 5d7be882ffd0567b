//! The four benchmark workloads.
//!
//! Each workload is a closed loop of identical jobs. Its untraced job
//! calls the public composite a user calls (`fifo_transfer_run`,
//! `verify_chain`, the model checker, lint, STA and lookahead audit); its
//! traced job makes the same library calls one layer at a time, with a
//! span around each, and must return the same observables. Setup builds
//! the inputs from the seed and takes the references every job's output
//! is checked against.

use mtf_bench::harness::{fifo_transfer_run, Drain, Feed, Harness, TransferConfig};
use mtf_bench::json::Json;
use mtf_core::design::DesignRegistry;
use mtf_core::env::{PacketSink, PacketSource};
use mtf_core::{FifoParams, InterfaceSpec, MixedTimingDesign};
use mtf_gates::install_compiled;
use mtf_lint::{infer_contract, lint_design};
use mtf_lis::{
    audit_chain_lookahead, chain_horizon, verification_stalls, verify_chain, ChainBuilder,
    ChainDrive, ChainReport, ChainRun, ChainSpec,
};
use mtf_mc::designs::{check_all, check_controllers, SYNC_STAGES};
use mtf_mc::{check_chain, ChainModel};
use mtf_sim::{Backend, SimStats, Simulator, Time};
use mtf_timing::{Sta, Tech};

use crate::trace::Tracer;

/// The workload names, in the order a full set runs them.
pub const NAMES: [&str; 4] = ["fifo_event", "fifo_compiled", "chains", "verify_static"];

/// One benchmark workload: a job, its traced decomposition, and the
/// check every job's output must pass.
pub trait Workload {
    /// What a job produces; traced and untraced jobs must agree on it.
    type Out: PartialEq;
    /// One job through the public composite call.
    fn job(&self) -> Self::Out;
    /// The same job, one span per layer call.
    fn traced_job(&self, t: &mut Tracer) -> Self::Out;
    /// Checks a job's output against the inputs and setup references.
    fn check(&self, out: &Self::Out) -> Result<(), String>;
}

/// FNV-1a over a byte stream.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

fn record_sim(t: &mut Tracer, s: &SimStats) {
    t.add("sim.events", s.events_processed as f64);
    t.add("sim.coalesced_wakes", s.coalesced_wakes as f64);
    t.add("sim.delta_pushes", s.delta_pushes as f64);
    t.max("sim.peak_queue_depth", s.peak_queue_depth as f64);
    t.add("sim.wheel_cascades", s.wheel_cascades as f64);
    t.add("sim.overflow_events", s.overflow_events as f64);
    t.add("engine.edge_evals", s.compiled_edge_evals as f64);
    t.add("engine.gate_evals", s.compiled_gate_evals as f64);
}

// ---------------------------------------------------------------- fifo_*

/// What one design's transfer delivered.
#[derive(Clone, Debug, PartialEq)]
pub struct FifoObs {
    delivered: Vec<u64>,
    /// Digest of delivered values and times plus the violation log.
    digest: u64,
    stats: SimStats,
}

fn observe(sim: &Simulator, out: &mtf_async::OpJournal) -> FifoObs {
    let mut h = 0xcbf29ce484222325;
    for (v, t) in out.values().into_iter().zip(out.times()) {
        fnv(&mut h, &v.to_le_bytes());
        fnv(&mut h, &t.as_ps().to_le_bytes());
    }
    for v in sim.violations() {
        fnv(&mut h, v.to_string().as_bytes());
    }
    FifoObs {
        delivered: out.values(),
        digest: h,
        stats: sim.stats(),
    }
}

/// Put and get clock periods of the FIFO transfers, in ps.
const T_PUT_PS: u64 = 10_000;
const T_GET_PS: u64 = 11_300;

/// Get-clock phase of every FIFO transfer, in ps. The kernel's cost
/// depends on the phase: an odd phase costs these transfers about 10 %
/// more time and 1 MB more memory than an even one. The phase is fixed so
/// that runs at different seeds measure the same amount of work.
const GET_PHASE_PS: u64 = 41;

/// SplitMix64: the `i`-th pseudo-random word of the stream `seed`.
fn splitmix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `fifo_event` / `fifo_compiled`: a saturated transfer through each
/// Table 1 design, 16 places by 16 bits, put 10.0 ns, get 11.3 ns.
pub struct Fifo {
    designs: Vec<&'static dyn MixedTimingDesign>,
    params: FifoParams,
    items: Vec<u64>,
    cfg: TransferConfig,
    /// The event backend's observables at the same seed.
    reference: Vec<FifoObs>,
}

impl Fifo {
    /// Builds the traffic and runs the event-backend reference. The seed
    /// picks the item values and the simulator's random stream.
    /// `TransferConfig` takes the get phase from its seed modulo the get
    /// period, so the simulator seed is [`GET_PHASE_PS`] plus a multiple
    /// of that period.
    pub fn setup(backend: Backend, seed: u64, items: usize) -> Result<Self, String> {
        let horizon = Time::from_ps(T_GET_PS * (items as u64 * 3 + 400));
        let sim_seed = GET_PHASE_PS + T_GET_PS * (seed % (1 << 32));
        let mut w = Fifo {
            designs: DesignRegistry::table1().iter().collect(),
            params: FifoParams::new(16, 16),
            items: (0..items as u64)
                .map(|i| splitmix(seed, i) & 0xffff)
                .collect(),
            cfg: TransferConfig::plain(sim_seed, T_PUT_PS, T_GET_PS, horizon),
            reference: Vec::new(),
        };
        w.reference = w.job();
        w.cfg.backend = backend;
        Ok(w)
    }
}

impl Workload for Fifo {
    type Out = Vec<FifoObs>;

    fn job(&self) -> Vec<FifoObs> {
        self.designs
            .iter()
            .map(|&d| {
                let (h, out) = fifo_transfer_run(d, self.params, &self.items, &self.cfg);
                observe(&h.sim, &out)
            })
            .collect()
    }

    /// `fifo_transfer_run` call by call. The harness stays on the event
    /// backend through `build`, and the compiled regions are installed
    /// right after it, which is the order `Harness::build` uses.
    ///
    /// A copy of `mtf_bench::harness::fifo_transfer_run` (clock set-up,
    /// feed and drain selection, bubble insertion) and of the
    /// `install_compiled` step of `Harness::build`: a change to either
    /// must be made here too, or the traced run no longer measures it,
    /// and one that changes observables fails every traced job.
    fn traced_job(&self, t: &mut Tracer) -> Vec<FifoObs> {
        let cfg = &self.cfg;
        let mut obs = Vec::new();
        for &design in &self.designs {
            let mut h = t.span("Harness::new", "harness.env_ms", || {
                let mut h = Harness::new(cfg.seed);
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
                h
            });
            t.span("Harness::build", "gates.elab_ms", || {
                h.build(design, self.params);
            });
            t.add("gates.cells", h.netlist().len() as f64);
            t.add("gates.nets", h.sim.net_count() as f64);
            if cfg.backend == Backend::Compiled {
                let name = format!("compiled.{}", design.kind().name());
                let netlist = h.netlist.as_ref().expect("just built");
                let rep = t.span("install_compiled", "compile.ms", || {
                    install_compiled(&mut h.sim, netlist, &name)
                });
                t.add("compile.gates", rep.compiled_gates as f64);
                t.add("compile.flops", rep.compiled_flops as f64);
                t.add("compile.event_cells", rep.event_cells as f64);
            }
            let out = t.span("Harness::feed+drain", "harness.env_ms", || {
                let stream_put = matches!(h.ports().put_spec(), InterfaceSpec::SyncStream { .. });
                let feed = if stream_put {
                    let mut packets = Vec::new();
                    for (i, &v) in self.items.iter().enumerate() {
                        if (i as u64 + cfg.bubble_offset.unwrap_or(0)).is_multiple_of(3) {
                            packets.push(None);
                        }
                        packets.push(Some(v));
                    }
                    Feed::Packets { packets }
                } else {
                    Feed::Saturate {
                        items: self.items.clone(),
                        bundling: Time::from_ps(400),
                        phase: cfg.producer_phase,
                    }
                };
                let _ = h.feed(if stream_put { "s" } else { "p" }, feed);
                let n = self.items.len() as u64;
                let (name, drain) = match h.ports().get_spec() {
                    InterfaceSpec::SyncStream { .. } => (
                        "k",
                        Drain::Sink {
                            stalls: cfg.stalls.clone(),
                        },
                    ),
                    InterfaceSpec::Async4Phase { .. } => (
                        "g",
                        Drain::Consume {
                            n,
                            phase: cfg.getter_phase,
                        },
                    ),
                    InterfaceSpec::SyncFifo { .. } => (
                        "c",
                        Drain::Consume {
                            n,
                            phase: Time::ZERO,
                        },
                    ),
                };
                h.drain(name, drain)
            });
            t.span("Simulator::run_until", "sim.run_ms", || {
                h.sim.run_until(cfg.horizon).expect("simulation runs")
            });
            let o = observe(&h.sim, &out);
            record_sim(t, &o.stats);
            obs.push(o);
        }
        let events: u64 = obs.iter().map(|o| o.stats.events_processed).sum();
        let reference: u64 = self
            .reference
            .iter()
            .map(|o| o.stats.events_processed)
            .sum();
        t.add(
            "engine.event_ratio",
            reference as f64 / events.max(1) as f64,
        );
        obs
    }

    fn check(&self, out: &Vec<FifoObs>) -> Result<(), String> {
        if out.len() != self.designs.len() {
            return Err(format!(
                "{} of {} designs ran",
                out.len(),
                self.designs.len()
            ));
        }
        for ((o, r), d) in out.iter().zip(&self.reference).zip(&self.designs) {
            let name = d.kind().name();
            if o.delivered != self.items {
                return Err(format!(
                    "{name}: delivered {} of {} items, or out of order",
                    o.delivered.len(),
                    self.items.len()
                ));
            }
            if o.digest != r.digest {
                return Err(format!(
                    "{name}: delivery digest {:#x} differs from the event-backend reference {:#x}",
                    o.digest, r.digest
                ));
            }
            if self.cfg.backend == Backend::Compiled && o.stats.compiled_gate_evals == 0 {
                return Err(format!("{name}: the compiled backend did not engage"));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- chains

/// The capacity-4 slice of the E9 sweep (the four topologies of the
/// `chains` bench), every segment phase moved by the same seed-derived
/// shift. Moving all phases alike keeps same-domain segments one domain.
fn e9_specs(seed: u64) -> Vec<ChainSpec> {
    let shift = (seed % 64) * 151;
    let specs = [
        ChainSpec::new(8, 4)
            .segment(10_000, 0, 2)
            .boundary("mixed_clock_rs")
            .segment(13_000, 2_400, 2)
            .boundary("mixed_clock_rs")
            .segment(8_000, 1_100, 2),
        ChainSpec::new(8, 4)
            .with_async_head(4)
            .segment(10_000, 0, 3),
        ChainSpec::new(8, 4)
            .with_async_head(3)
            .segment(9_000, 0, 2)
            .boundary("mixed_clock_rs")
            .segment(12_000, 3_000, 2)
            .boundary("mixed_clock_rs")
            .segment(10_000, 500, 1),
        ChainSpec::new(8, 4)
            .segment(10_000, 0, 2)
            .boundary("sync_rs")
            .segment(10_000, 0, 2)
            .boundary("sync_rs")
            .segment(10_000, 0, 2),
    ];
    specs
        .into_iter()
        .map(|mut spec| {
            for s in &mut spec.segments {
                let period = s.domain.period.as_ps();
                s.domain.phase = Time::from_ps((s.domain.phase.as_ps() + shift) % period);
            }
            spec
        })
        .collect()
}

/// A verified point's clean and stalled runs, rendered for comparison.
fn render_runs(clean: &ChainRun, stalled: &ChainRun) -> String {
    format!("{clean:?}\n{stalled:?}")
}

/// `chains`: `verify_chain` over the four E9 topologies at capacity 4.
pub struct Chains {
    specs: Vec<ChainSpec>,
    items: usize,
    /// The first job's rendered runs.
    reference: Vec<String>,
}

impl Chains {
    /// Builds the specs and takes the first job as the reference.
    pub fn setup(seed: u64, items: usize) -> Result<Self, String> {
        let mut w = Chains {
            specs: e9_specs(seed),
            items,
            reference: Vec::new(),
        };
        w.reference = w.job()?;
        Ok(w)
    }

    /// `run_chain` call by call, the way `verify_chain` drives it.
    ///
    /// A copy of `mtf_lis::chain::run_chain_impl` (environment spawn,
    /// latency loop, `ChainReport` assembly), and [`Workload::traced_job`]
    /// below copies the clean and stalled drives of `verify_chain`: a
    /// change to either must be made here too, or the traced run no
    /// longer measures it, and one that changes observables fails every
    /// traced job.
    fn traced_run(&self, t: &mut Tracer, spec: &ChainSpec, drive: &ChainDrive) -> ChainRun {
        let (mut sim, built) = t.span("ChainBuilder::build_with_backend", "gates.elab_ms", || {
            let mut sim = Simulator::new(drive.seed);
            let built = ChainBuilder::build_with_backend(&mut sim, spec, Backend::Event)
                .expect("verified spec builds");
            (sim, built)
        });
        t.add("gates.nets", sim.net_count() as f64);
        let (src, sink) = t.span("chain environments", "harness.env_ms", || {
            let src = match &built.async_in {
                Some(a) => mtf_async::FourPhaseProducer::spawn(
                    &mut sim,
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
                    &mut sim,
                    "chain.src",
                    built.src_clk,
                    built.port.in_valid,
                    &built.port.in_data,
                    built.port.stop_out,
                    drive.items.iter().map(|&v| Some(v)).collect(),
                ),
            };
            let sink = PacketSink::spawn(
                &mut sim,
                "chain.sink",
                built.sink_clk,
                &built.port.out_data,
                built.port.out_valid,
                built.port.stop_in,
                drive.stalls.clone(),
            );
            (src, sink)
        });
        let horizon = chain_horizon(spec, drive);
        t.span("Simulator::run_until", "sim.run_ms", || {
            sim.run_until(horizon).expect("chain simulation runs")
        });
        record_sim(t, &sim.stats());

        let sent = src.values();
        let delivered = sink.values();
        let mut min_latency = Time::ZERO;
        let mut max_latency = Time::ZERO;
        for i in 0..sent.len().min(delivered.len()) {
            let dt = sink.time_of(i).expect("paired") - src.time_of(i).expect("paired");
            if i == 0 || dt < min_latency {
                min_latency = dt;
            }
            max_latency = max_latency.max(dt);
        }
        let report = ChainReport {
            sent: sent.len() as u64,
            delivered: delivered.len() as u64,
            min_latency,
            max_latency,
            throughput_hz: sink.ops_per_second(delivered.len() / 4),
            boundaries: built.boundary_reports(),
        };
        ChainRun {
            sent,
            delivered,
            report,
        }
    }
}

impl Workload for Chains {
    type Out = Result<Vec<String>, String>;

    fn job(&self) -> Self::Out {
        self.specs
            .iter()
            .map(|spec| verify_chain(spec, self.items).map(|v| render_runs(&v.clean, &v.stalled)))
            .collect()
    }

    fn traced_job(&self, t: &mut Tracer) -> Self::Out {
        Ok(self
            .specs
            .iter()
            .map(|spec| {
                let (n, width) = (self.items, spec.width);
                let clean = self.traced_run(t, spec, &ChainDrive::clean(11, n, width));
                let drive = ChainDrive::with_stalls(13, n, width, verification_stalls());
                let stalled = self.traced_run(t, spec, &drive);
                render_runs(&clean, &stalled)
            })
            .collect())
    }

    fn check(&self, out: &Self::Out) -> Result<(), String> {
        if *out.as_ref().map_err(Clone::clone)? != self.reference {
            return Err("chain reports differ from the first job's".into());
        }
        Ok(())
    }
}

// --------------------------------------------------------- verify_static

/// `(name, states, transitions)`; transitions are absent for controllers.
type Count = (String, usize, Option<usize>);

/// Everything a static-verification job proves or counts.
#[derive(Clone, Debug, PartialEq)]
pub struct StaticObs {
    /// FIFO models (`design·cN`), controllers, then the chain twin.
    counts: Vec<Count>,
    disproven: Vec<String>,
    unwaived_lint: usize,
    contract_mismatches: usize,
    min_hold_slack_ps: i64,
    unsound_cuts: Vec<String>,
}

/// State counts from `golden/formal.json`, in the order `counts` lists
/// them.
fn golden_counts() -> Result<Vec<Count>, String> {
    let doc = Json::parse(include_str!("../../../../../golden/formal.json"))?;
    let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).map(|x| x as usize);
    let list = |k: &str| {
        doc.get(k)
            .and_then(Json::as_array)
            .ok_or(format!("golden/formal.json lacks {k}"))
    };
    let mut out = Vec::new();
    for d in list("designs")? {
        let m = d.get("measurements").ok_or("design without measurements")?;
        let name = d.get("design").and_then(Json::as_str).unwrap_or("?");
        let cap = num(m, "model_capacity").unwrap_or(0);
        let states = num(m, "states").ok_or("design without states")?;
        out.push((format!("{name}·c{cap}"), states, num(m, "transitions")));
    }
    for c in list("controllers")? {
        let name = c.get("name").and_then(Json::as_str).unwrap_or("?");
        let states = num(c, "states").ok_or("controller without states")?;
        out.push((name.to_string(), states, None));
    }
    let chain = doc.get("chain").ok_or("golden/formal.json lacks chain")?;
    out.push((
        chain
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .into(),
        num(chain, "states").ok_or("chain without states")?,
        num(chain, "transitions"),
    ));
    Ok(out)
}

/// The plesiochronous relay ladder of the `sharded` bench: one
/// single-station segment per domain, joined by gate-level mixed-clock
/// relay stations, capacity 4, width 8.
fn relay_ladder(segments: u64) -> ChainSpec {
    let mut spec = ChainSpec::new(8, 4);
    for i in 0..segments {
        if i > 0 {
            spec = spec.boundary("mixed_clock_rs");
        }
        spec = spec.segment(9_973 + 37 * i, (257 * i) % 4_000, 1);
    }
    spec
}

/// The state budget of the chain twin (the `formal` bench's ceiling).
const CHAIN_STATE_CEILING: usize = 1 << 22;

/// Environment launch delay after a clock edge in the Table 1 STA recipe.
const EXT: Time = Time::from_ps(100);

/// `verify_static`: model checking, lint, contract inference, STA and the
/// lookahead audit, no simulation.
pub struct Static {
    golden: Vec<Count>,
    ladder: ChainSpec,
}

impl Static {
    /// Reads the golden state counts; the workload has no seed.
    pub fn setup() -> Result<Self, String> {
        Ok(Static {
            golden: golden_counts()?,
            ladder: relay_ladder(64),
        })
    }

    fn sta(t: &mut Tracer, design: &'static dyn MixedTimingDesign) -> Result<Option<i64>, String> {
        let params = FifoParams::new(4, 8);
        let h = t.span("Harness::build", "gates.elab_ms", || {
            let mut h = Harness::calibrated(1);
            h.clock_nets_both();
            h.build(design, params);
            h
        });
        t.add("gates.cells", h.netlist().len() as f64);
        t.add("gates.nets", h.sim.net_count() as f64);
        if h.netlist().is_empty() {
            return Ok(None);
        }
        t.span("Sta", "timing.sta_ms", || {
            Tech::hp06_custom().annotate(h.netlist());
            let ports = h.ports().clone();
            let put_clock = ports.put_clock().or(h.clk_put).expect("both clocks");
            let get_clock = ports.get_clock().or(h.clk_get).expect("both clocks");
            let is_async = |spec: InterfaceSpec| matches!(spec, InterfaceSpec::Async4Phase { .. });
            let mut sta = Sta::new(h.netlist());
            if let Some(nclk_get) = ports.nclk_get {
                sta.external_launch_half(nclk_get, get_clock, EXT);
            }
            if !is_async(design.put_interface(params)) {
                let req = ports
                    .req_put
                    .or(ports.valid_in)
                    .ok_or("clocked put lacks a request")?;
                sta.external_launch(req, put_clock, EXT);
                for &d in &ports.data_put {
                    sta.external_launch(d, put_clock, EXT);
                }
            }
            for net in [ports.req_get, ports.stop_in].into_iter().flatten() {
                sta.external_launch(net, get_clock, EXT);
            }
            for (clock, async_side) in [
                (get_clock, is_async(design.get_interface(params))),
                (put_clock, is_async(design.put_interface(params))),
            ] {
                if !async_side && sta.min_period(clock).is_none() {
                    return Err(format!(
                        "{}: a clocked domain has no paths",
                        design.kind().name()
                    ));
                }
            }
            let hold = Sta::new(h.netlist());
            Ok([put_clock, get_clock]
                .into_iter()
                .filter_map(|c| hold.hold_slack(c).map(|r| r.slack_ps))
                .min())
        })
    }
}

impl Workload for Static {
    type Out = Result<StaticObs, String>;

    fn job(&self) -> Self::Out {
        self.traced_job(&mut Tracer::off())
    }

    fn traced_job(&self, t: &mut Tracer) -> Self::Out {
        // Each model-checking span also drops its explored state spaces,
        // which is a good share of the layer's cost.
        let fifo = t.span("check_all", "mc.ms", || {
            check_all().map(|checks| {
                checks
                    .into_iter()
                    .map(|dc| {
                        let name = format!("{}·c{}", dc.kind.name(), dc.capacity);
                        let space = &dc.check.space;
                        let count = (name, space.len(), Some(space.edge_count()));
                        (count, dc.check.is_clean())
                    })
                    .collect::<Vec<_>>()
            })
        })?;
        let controllers = t.span("check_controllers", "mc.ms", || {
            check_controllers().map(|(stg, bm)| {
                stg.iter()
                    .map(|c| (c, c.is_clean() && c.dead_transitions.is_empty()))
                    .map(|(c, clean)| ((c.name.clone(), c.space.len(), None), clean))
                    .chain(
                        bm.iter()
                            .map(|c| ((c.name.clone(), c.space.len(), None), c.is_clean())),
                    )
                    .collect::<Vec<_>>()
            })
        })?;
        let chain = t.span("check_chain", "mc.ms", || {
            check_chain(&ChainModel::new(3, 4, SYNC_STAGES), CHAIN_STATE_CEILING).map(|c| {
                let count = (c.name.clone(), c.space.len(), Some(c.space.edge_count()));
                (count, c.is_clean())
            })
        })?;

        let mut counts = Vec::new();
        let mut disproven = Vec::new();
        for (count, clean) in fifo.into_iter().chain(controllers).chain([chain]) {
            // FIFO models and the chain twin count as explored states;
            // the controllers' handful do not.
            if let (states, Some(edges)) = (count.1, count.2) {
                t.add("mc.states", states as f64);
                t.add("mc.transitions", edges as f64);
            }
            if !clean {
                disproven.push(count.0.clone());
            }
            counts.push(count);
        }

        let params = FifoParams::new(4, 8);
        let mut unwaived_lint = 0;
        let mut contract_mismatches = 0;
        let mut min_hold_slack_ps = i64::MAX;
        for design in DesignRegistry::standard().iter() {
            let lint = t.span("lint_design", "lint.ms", || lint_design(design, params))?;
            unwaived_lint += lint.unwaived().count();
            let contract = t.span("infer_contract", "lint.infer_ms", || {
                infer_contract(design, params)
            })?;
            contract_mismatches += contract.diff(params.sync_stages).len();
            if let Some(slack) = Self::sta(t, design)? {
                min_hold_slack_ps = min_hold_slack_ps.min(slack);
            }
        }

        let mut unsound_cuts = Vec::new();
        for shards in [2, 4, 8] {
            let audit = t.span("audit_chain_lookahead", "lookahead.audit_ms", || {
                audit_chain_lookahead(&self.ladder, shards)
            })?;
            t.add("lookahead.cuts", audit.cuts.len() as f64);
            unsound_cuts.extend(audit.failures());
        }

        Ok(StaticObs {
            counts,
            disproven,
            unwaived_lint,
            contract_mismatches,
            min_hold_slack_ps,
            unsound_cuts,
        })
    }

    fn check(&self, out: &Self::Out) -> Result<(), String> {
        let o = out.as_ref().map_err(Clone::clone)?;
        if !o.disproven.is_empty() {
            return Err(format!("disproven: {}", o.disproven.join(", ")));
        }
        if o.counts != self.golden {
            return Err("state counts differ from golden/formal.json".into());
        }
        if o.unwaived_lint > 0 {
            return Err(format!("{} unwaived lint finding(s)", o.unwaived_lint));
        }
        if o.contract_mismatches > 0 {
            return Err(format!(
                "{} derived-vs-declared contract mismatch(es)",
                o.contract_mismatches
            ));
        }
        if o.min_hold_slack_ps < 0 {
            return Err(format!("hold violation: {} ps", o.min_hold_slack_ps));
        }
        if !o.unsound_cuts.is_empty() {
            return Err(format!("unsound cut(s): {}", o.unsound_cuts.join("; ")));
        }
        Ok(())
    }
}
