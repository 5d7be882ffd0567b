//! # mtf-lis — latency-insensitive protocol substrate
//!
//! Carloni et al. \[2\] make a synchronous design tolerant of long wires by
//! segmenting each wire and inserting **relay stations** — clocked 2-place
//! buffers with back-pressure (`stopIn`/`stopOut`). The paper under
//! reproduction generalises relay stations to mixed-timing interfaces
//! (`mtf-core`'s [`MIXED_CLOCK_RS`](mtf_core::design::MIXED_CLOCK_RS) and
//! [`ASYNC_SYNC_RS`](mtf_core::design::ASYNC_SYNC_RS) registry rows); this
//! crate provides the *single-clock* substrate they plug into:
//!
//! * [`SyncRelayStation`] — Carloni's relay station (paper Fig. 11b): a
//!   main register, an auxiliary register that absorbs the one packet in
//!   flight when the right neighbour stalls, and a registered `stop_out`.
//! * [`WireSegment`] — a pure transport delay standing in for one
//!   clock-cycle's worth of interconnect.
//! * [`RelayChain`] — `k` stations separated by wire segments, the unit of
//!   composition in Figs. 11a and 14.
//!
//! The relay stations here are behavioural components (the paper's
//! *baseline*, not its contribution — see DESIGN.md); the mixed-timing
//! stations they sandwich are full gate-level netlists from `mtf-core`.
//!
//! # Example: a pipelined long wire
//!
//! ```
//! use mtf_core::env::{PacketSink, PacketSource};
//! use mtf_lis::RelayChain;
//! use mtf_sim::{ClockGen, Simulator, Time};
//!
//! let mut sim = Simulator::new(1);
//! let clk = sim.net("clk");
//! ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(10));
//! // Three relay stations with 3 ns of wire between consecutive hops.
//! let chain = RelayChain::spawn(&mut sim, "wire", clk, 8, 3, Time::from_ns(3));
//! let sent = PacketSource::spawn(&mut sim, "src", clk, chain.port.in_valid,
//!     &chain.port.in_data, chain.port.stop_out, (0..20).map(Some).collect());
//! let got = PacketSink::spawn(&mut sim, "sink", clk, &chain.port.out_data,
//!     chain.port.out_valid, chain.port.stop_in, vec![(5, 12)]); // a stall
//! sim.run_until(Time::from_us(2)).unwrap();
//! assert_eq!(got.values(), sent.values());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use mtf_core::{ClockInputs, DesignPorts, FifoParams, InterfaceSpec, MixedTimingDesign};
use mtf_gates::{install_compiled, Builder, CellDelays, Netlist};
use mtf_sim::{Backend, Component, Ctx, DriverId, MetaModel, NetId, Simulator, Time};

pub mod chain;
pub mod lookahead;
pub mod shard;

pub use chain::{
    chain_horizon, predict_latency, predict_throughput, run_chain, run_chain_sanitized,
    run_chain_sanitized_with_backend, verification_stalls, verify_chain, verify_chain_with_backend,
    AsyncPort, BoundaryReport, BuiltChain, ChainBuilder, ChainDrive, ChainReport, ChainRun,
    ChainSpec, ChainVerification, DomainSpec, LatencyEnvelope, SegmentSpec, ThroughputPrediction,
};
pub use lookahead::{
    audit_chain_lookahead, registered_launch_exact, CutAudit, HoldAudit, LookaheadAudit,
};
pub use shard::{
    plan_chain_shards, run_chain_sharded, run_chain_sharded_with_backend, ChainFingerprint,
    ShardedChainRun,
};
// The behavioural station itself now lives in `mtf-core` (so the design
// registry can name it); these re-exports keep the original paths alive.
pub use mtf_core::{RelayPort, SyncRelayStation};

/// A pure transport delay on a packet bundle — one segment of a long wire
/// after relay-station insertion (the delay should be below the receiving
/// station's clock period; that is the whole point of segmentation).
pub struct WireSegment {
    name: String,
    inputs: Vec<NetId>,
    outputs: Vec<DriverId>,
    delay: Time,
}

impl std::fmt::Debug for WireSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireSegment")
            .field("name", &self.name)
            .field("delay", &self.delay)
            .finish()
    }
}

impl WireSegment {
    /// Connects `from` nets to freshly created nets through `delay`;
    /// returns the downstream nets.
    pub fn spawn(sim: &mut Simulator, name: &str, from: &[NetId], delay: Time) -> Vec<NetId> {
        let outs: Vec<NetId> = (0..from.len())
            .map(|i| sim.net(format!("{name}[{i}]")))
            .collect();
        let drvs = outs.iter().map(|&n| sim.driver(n)).collect();
        let w = WireSegment {
            name: name.to_string(),
            inputs: from.to_vec(),
            outputs: drvs,
            delay,
        };
        sim.add_component(Box::new(w), from);
        outs
    }
}

impl Component for WireSegment {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &'static str {
        "wire_segment"
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        for (i, &n) in self.inputs.iter().enumerate() {
            let v = ctx.get(n);
            ctx.drive(self.outputs[i], v, self.delay);
        }
    }
}

/// A chain of `stations` relay stations in one clock domain, with
/// `wire_delay` of interconnect between consecutive stations (and none at
/// the endpoints — those belong to the neighbouring blocks). Packets enter
/// at [`RelayPort::in_valid`]/[`RelayPort::in_data`] and leave at
/// [`RelayPort::out_valid`]/[`RelayPort::out_data`]; back-pressure flows
/// the other way.
#[derive(Debug)]
pub struct RelayChain {
    /// The chain's composite external port.
    pub port: RelayPort,
    /// Number of stations.
    pub stations: usize,
}

impl RelayChain {
    /// Builds the chain. `stations` must be at least 1.
    ///
    /// # Panics
    ///
    /// Panics if `stations` is zero.
    pub fn spawn(
        sim: &mut Simulator,
        name: &str,
        clk: NetId,
        width: usize,
        stations: usize,
        wire_delay: Time,
    ) -> RelayChain {
        assert!(stations >= 1, "a chain needs at least one station");
        let ports: Vec<RelayPort> = (0..stations)
            .map(|i| SyncRelayStation::spawn(sim, &format!("{name}.rs{i}"), clk, width))
            .collect();
        // Wire each station's output bundle to the next station's input,
        // and each station's stop_out back to the previous stop_in.
        for i in 0..stations - 1 {
            let mut fwd = vec![ports[i].out_valid];
            fwd.extend_from_slice(&ports[i].out_data);
            let arrived = WireSegment::spawn(sim, &format!("{name}.wire{i}"), &fwd, wire_delay);
            connect(sim, arrived[0], ports[i + 1].in_valid);
            for (k, &a) in arrived[1..].iter().enumerate() {
                connect(sim, a, ports[i + 1].in_data[k]);
            }
            let back = WireSegment::spawn(
                sim,
                &format!("{name}.stopwire{i}"),
                &[ports[i + 1].stop_out],
                wire_delay,
            );
            connect(sim, back[0], ports[i].stop_in);
        }
        let first = ports.first().expect("non-empty").clone();
        let last = ports.last().expect("non-empty").clone();
        RelayChain {
            port: RelayPort {
                in_valid: first.in_valid,
                in_data: first.in_data,
                stop_out: first.stop_out,
                out_valid: last.out_valid,
                out_data: last.out_data,
                stop_in: last.stop_in,
            },
            stations,
        }
    }
}

/// Splices a mixed-timing design between two single-clock relay chains —
/// the generalised Fig. 11a topology: `upstream` chain (put-side clock
/// domain) → `design` → `downstream` chain (get-side clock domain).
///
/// Any design registered in `mtf_core::design` whose **both** interfaces
/// speak the relay-station stream protocol (`valid`/`stop`) can be
/// spliced; the design is built gate-level through its
/// [`MixedTimingDesign`] impl and wired to the chains with 1 ps
/// repeaters. Returns the built design's ports (for probing the
/// boundary nets), or an error naming the offending interface when the
/// design does not speak the stream protocol on either side or rejects
/// the parameters.
pub fn splice_stream_design(
    sim: &mut Simulator,
    design: &dyn MixedTimingDesign,
    params: FifoParams,
    clk_put: NetId,
    clk_get: NetId,
    upstream: &RelayPort,
    downstream: &RelayPort,
) -> Result<DesignPorts, String> {
    let (ports, _netlist) = build_stream_design(
        sim,
        design,
        params,
        clk_put,
        clk_get,
        CellDelays::hp06(),
        MetaModel::hp06(),
        Backend::Event,
    )?;
    // Upstream chain output → design put interface.
    connect(sim, upstream.out_valid, ports.valid_in.expect("stream put"));
    connect_bus(sim, &upstream.out_data, &ports.data_put);
    connect(sim, ports.stop_out.expect("stream put"), upstream.stop_in);
    // Design get interface → downstream chain input.
    connect(
        sim,
        ports.valid_get.expect("stream get"),
        downstream.in_valid,
    );
    connect_bus(sim, &ports.data_get, &downstream.in_data);
    connect(sim, downstream.stop_out, ports.stop_in.expect("stream get"));
    Ok(ports)
}

/// Checks that `design` speaks the relay stream protocol on both sides
/// and accepts `params`. The error names the offending side; callers
/// prefix it with the design's name (and boundary index, if any).
pub(crate) fn check_stream_design(
    design: &dyn MixedTimingDesign,
    params: FifoParams,
) -> Result<(), String> {
    for (side, spec) in [
        ("put", design.put_interface(params)),
        ("get", design.get_interface(params)),
    ] {
        if !matches!(spec, InterfaceSpec::SyncStream { .. }) {
            return Err(format!(
                "{side} side speaks {}, not the relay stream protocol",
                spec.label()
            ));
        }
    }
    design.supports(params)
}

/// Elaborates a stream-protocol registry design between two clock nets
/// with an explicit delay calibration, metastability model and execution
/// [`Backend`], **without** wiring it to anything — the caller owns the
/// connects. Returns the design's ports together with its gate-level
/// [`Netlist`] (the sharded runner reads launch delays of
/// boundary-crossing output registers from it). [`splice_stream_design`]
/// is this plus the six standard 1 ps repeater connects, at the default
/// `hp06` calibration on the event kernel.
///
/// Under [`Backend::Compiled`], [`mtf_gates::install_compiled`] runs on
/// the finished netlist *before* any external wiring: eligible
/// combinational gates and ideal-window flops are levelized onto a
/// compiled engine, while synchronizer flops with a live metastability
/// model, latches, C-elements and tri-state bus drivers stay on the
/// event kernel (so the RNG draw sequence and bus resolution are
/// unchanged). A design with no eligible cells simply stays event-driven.
#[allow(clippy::too_many_arguments)]
pub fn build_stream_design(
    sim: &mut Simulator,
    design: &dyn MixedTimingDesign,
    params: FifoParams,
    clk_put: NetId,
    clk_get: NetId,
    delays: CellDelays,
    meta: MetaModel,
    backend: Backend,
) -> Result<(DesignPorts, Netlist), String> {
    let name = design.kind().name();
    check_stream_design(design, params).map_err(|e| format!("{name}: {e}"))?;
    let mut b = Builder::with_delays(sim, delays, meta);
    let ports = design.build(
        &mut b,
        params,
        ClockInputs {
            clk_put: Some(clk_put),
            clk_get: Some(clk_get),
        },
    );
    let netlist = b.finish();
    if backend == Backend::Compiled {
        install_compiled(sim, &netlist, &format!("compiled.{name}"));
    }
    Ok((ports, netlist))
}

/// Shorts net `from` onto net `to` with a negligible (1 ps) repeater —
/// used to join separately created interface nets.
pub fn connect(sim: &mut Simulator, from: NetId, to: NetId) {
    let drv = sim.driver(to);
    let w = WireSegment {
        name: "connect".into(),
        inputs: vec![from],
        outputs: vec![drv],
        delay: Time::from_ps(1),
    };
    sim.add_component(Box::new(w), &[from]);
}

/// Connects a whole bundle pairwise (see [`connect`]).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn connect_bus(sim: &mut Simulator, from: &[NetId], to: &[NetId]) {
    assert_eq!(from.len(), to.len(), "bundle width mismatch");
    for (&f, &t) in from.iter().zip(to) {
        connect(sim, f, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtf_core::env::{PacketSink, PacketSource};
    use mtf_sim::ClockGen;

    fn rig(stations: usize, stalls: Vec<(u64, u64)>) -> (Vec<u64>, Vec<u64>) {
        let mut sim = Simulator::new(55);
        let clk = sim.net("clk");
        ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(10));
        let chain = RelayChain::spawn(&mut sim, "chain", clk, 8, stations, Time::from_ns(3));
        let packets: Vec<Option<u64>> = (0..40).map(Some).collect();
        let sj = PacketSource::spawn(
            &mut sim,
            "src",
            clk,
            chain.port.in_valid,
            &chain.port.in_data,
            chain.port.stop_out,
            packets,
        );
        let kj = PacketSink::spawn(
            &mut sim,
            "sink",
            clk,
            &chain.port.out_data,
            chain.port.out_valid,
            chain.port.stop_in,
            stalls,
        );
        sim.run_until(Time::from_us(3)).unwrap();
        (sj.values(), kj.values())
    }

    #[test]
    fn single_station_passes_everything() {
        let (sent, got) = rig(1, vec![]);
        assert_eq!(sent.len(), 40);
        assert_eq!(got, sent);
    }

    #[test]
    fn long_chain_preserves_order() {
        let (sent, got) = rig(6, vec![]);
        assert_eq!(got, sent);
    }

    #[test]
    fn chain_survives_sink_stalls() {
        let (sent, got) = rig(4, vec![(8, 20), (30, 45)]);
        assert_eq!(got, sent, "stalls must not lose or duplicate packets");
    }

    #[test]
    fn chain_latency_grows_with_length() {
        let first_arrival = |stations: usize| {
            let mut sim = Simulator::new(7);
            let clk = sim.net("clk");
            ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(10));
            let chain = RelayChain::spawn(&mut sim, "chain", clk, 8, stations, Time::from_ns(3));
            let sj = PacketSource::spawn(
                &mut sim,
                "src",
                clk,
                chain.port.in_valid,
                &chain.port.in_data,
                chain.port.stop_out,
                vec![Some(42)],
            );
            let kj = PacketSink::spawn(
                &mut sim,
                "sink",
                clk,
                &chain.port.out_data,
                chain.port.out_valid,
                chain.port.stop_in,
                vec![],
            );
            sim.run_until(Time::from_us(2)).unwrap();
            assert_eq!(sj.len(), 1);
            kj.time_of(0).expect("delivered")
        };
        let short = first_arrival(1);
        let long = first_arrival(5);
        assert!(
            long >= short + Time::from_ns(30),
            "each extra station adds at least a cycle: {short} -> {long}"
        );
    }

    #[test]
    fn splice_carries_packets_across_a_clock_boundary() {
        use mtf_core::design::MIXED_CLOCK_RS;

        let mut sim = Simulator::new(21);
        let clk_a = sim.net("clk_a");
        let clk_b = sim.net("clk_b");
        ClockGen::spawn_simple(&mut sim, clk_a, Time::from_ns(10));
        ClockGen::builder(Time::from_ns(13))
            .phase(Time::from_ps(2_400))
            .spawn(&mut sim, clk_b);
        let left = RelayChain::spawn(&mut sim, "l", clk_a, 8, 2, Time::from_ns(1));
        let right = RelayChain::spawn(&mut sim, "r", clk_b, 8, 2, Time::from_ns(1));
        let ports = splice_stream_design(
            &mut sim,
            &MIXED_CLOCK_RS,
            FifoParams::new(8, 8),
            clk_a,
            clk_b,
            &left.port,
            &right.port,
        )
        .expect("MCRS speaks the stream protocol on both sides");
        assert!(ports.valid_in.is_some() && ports.stop_in.is_some());
        let packets: Vec<Option<u64>> = (0..60).map(Some).collect();
        let sj = PacketSource::spawn(
            &mut sim,
            "src",
            clk_a,
            left.port.in_valid,
            &left.port.in_data,
            left.port.stop_out,
            packets,
        );
        let kj = PacketSink::spawn(
            &mut sim,
            "sink",
            clk_b,
            &right.port.out_data,
            right.port.out_valid,
            right.port.stop_in,
            vec![(10, 25)],
        );
        sim.run_until(Time::from_us(10)).unwrap();
        assert_eq!(kj.values(), sj.values(), "boundary splice is lossless");
    }

    #[test]
    fn splice_rejects_non_stream_designs() {
        use mtf_core::design::MIXED_CLOCK;

        let mut sim = Simulator::new(22);
        let clk = sim.net("clk");
        ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(10));
        let left = RelayChain::spawn(&mut sim, "l", clk, 8, 1, Time::from_ns(1));
        let right = RelayChain::spawn(&mut sim, "r", clk, 8, 1, Time::from_ns(1));
        let err = splice_stream_design(
            &mut sim,
            &MIXED_CLOCK,
            FifoParams::new(8, 8),
            clk,
            clk,
            &left.port,
            &right.port,
        )
        .unwrap_err();
        assert!(err.contains("not the relay stream protocol"), "got: {err}");
    }

    #[test]
    fn steady_state_throughput_is_one_packet_per_cycle() {
        let mut sim = Simulator::new(9);
        let clk = sim.net("clk");
        ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(10));
        let chain = RelayChain::spawn(&mut sim, "chain", clk, 8, 4, Time::from_ns(3));
        let packets: Vec<Option<u64>> = (0..100).map(Some).collect();
        let _sj = PacketSource::spawn(
            &mut sim,
            "src",
            clk,
            chain.port.in_valid,
            &chain.port.in_data,
            chain.port.stop_out,
            packets,
        );
        let kj = PacketSink::spawn(
            &mut sim,
            "sink",
            clk,
            &chain.port.out_data,
            chain.port.out_valid,
            chain.port.stop_in,
            vec![],
        );
        sim.run_until(Time::from_us(3)).unwrap();
        let times = kj.times();
        assert!(times.len() >= 90);
        let mid = &times[20..80];
        for w in mid.windows(2) {
            assert_eq!((w[1] - w[0]).as_ps(), 10_000, "no bubbles in steady state");
        }
    }
}
