//! The measurement procedures behind Table 1.
//!
//! Synchronous-interface throughput is a *static timing* quantity (the
//! maximum clock frequency), so it is computed with [`Sta`] over the
//! generated netlist after fanout-aware delay annotation. Asynchronous
//! interface throughput has no clock — following the paper it is measured
//! in MegaOps/s by saturating the interface in event simulation and timing
//! the steady-state handshakes. Latency reproduces the paper's experiment
//! verbatim: in an empty FIFO with the receiver requesting, a single item
//! is injected at a controlled instant which is swept across one receiver
//! clock period; Min/Max are the sweep extremes.
//!
//! All measurements use the custom-circuit calibration
//! ([`Tech::hp06_custom`], via [`Harness::calibrated`]) and the ideal
//! metastability model (the paper's HSpice runs are deterministic; the
//! stochastic model is exercised by the robustness experiment instead).
//!
//! Every procedure takes `&dyn MixedTimingDesign`, so any design in the
//! [`DesignRegistry`](mtf_core::DesignRegistry) — paper or baseline — is
//! measured by the same code path. The one exception is the behavioural
//! Seizovic baseline, which has no netlist to analyse statically;
//! [`seizovic_latency`] measures it by simulation at an explicit pipeline
//! depth.

use mtf_core::baseline::SeizovicFifo;
use mtf_core::design::MIXED_CLOCK;
use mtf_core::{FifoParams, InterfaceSpec, MixedTimingDesign};
use mtf_sim::{ClockGen, Logic, NetId, Simulator, Time};
use mtf_timing::{Sta, Tech};

use crate::harness::{Drain, Feed, Harness};
use crate::sweep::SweepRunner;

/// Environment reaction delay after a clock edge (request/data driving).
pub const EXT: Time = Time::from_ps(100);
/// Bundling margin used by the asynchronous producer environments.
const BUNDLING: Time = Time::from_ps(150);

/// A measured throughput pair. Units: MHz for synchronous interfaces,
/// MegaOps/s for asynchronous ones (same magnitude).
#[derive(Clone, Copy, Debug)]
pub struct Throughput {
    /// Put-interface throughput.
    pub put: f64,
    /// Get-interface throughput.
    pub get: f64,
}

/// A measured Min/Max latency range in nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct LatencyRange {
    /// Best-case alignment.
    pub min_ns: f64,
    /// Worst-case alignment.
    pub max_ns: f64,
}

/// The STA-derived minimum clock periods of a design's synchronous
/// interfaces (put period is `None` for asynchronous puts).
#[derive(Clone, Copy, Debug)]
pub struct Periods {
    /// Minimum put-clock period, if the put interface is synchronous.
    pub put: Option<Time>,
    /// Minimum get-clock period.
    pub get: Time,
}

fn async_put(design: &dyn MixedTimingDesign, params: FifoParams) -> bool {
    matches!(
        design.put_interface(params),
        InterfaceSpec::Async4Phase { .. }
    )
}

/// The netlist every static timing measurement analyses: `design` at
/// `params`, built with both harness clock nets (none running) and
/// delay-annotated with the custom-circuit calibration.
pub fn timed_build(design: &dyn MixedTimingDesign, params: FifoParams) -> Harness {
    let mut h = Harness::calibrated(1);
    h.clock_nets_both();
    h.build_annotated(design, params, &Tech::hp06_custom());
    h
}

/// The Table 1 max-delay set-up of `h` (a [`timed_build`]). Each clock
/// is the design's own pin, or the harness net a single-clock design
/// leaves unused. Clocked environment inputs launch [`EXT`] after their
/// edge, and the mid-cycle dequeue commit launches [`EXT`] after the
/// falling get edge (`nclk_get`). Returns the analysis with its put and
/// get clocks.
pub fn max_delay_sta(h: &Harness) -> (Sta<'_>, NetId, NetId) {
    let ports = h.ports();
    let put_clock = ports
        .put_clock()
        .unwrap_or_else(|| h.clk_put.expect("harness created both clock nets"));
    let get_clock = ports
        .get_clock()
        .unwrap_or_else(|| h.clk_get.expect("harness created both clock nets"));
    let mut sta = Sta::new(h.netlist());
    if let Some(nclk_get) = ports.nclk_get {
        sta.external_launch_half(nclk_get, get_clock, EXT);
    }
    if !matches!(ports.put_spec(), InterfaceSpec::Async4Phase { .. }) {
        let req_like = ports
            .req_put
            .or(ports.valid_in)
            .expect("clocked puts have a request-like input");
        for &net in std::iter::once(&req_like).chain(&ports.data_put) {
            sta.external_launch(net, put_clock, EXT);
        }
    }
    for net in [ports.req_get, ports.stop_in].into_iter().flatten() {
        sta.external_launch(net, get_clock, EXT);
    }
    (sta, put_clock, get_clock)
}

/// Computes the STA periods for `design` at `params`.
///
/// # Errors
///
/// Names the clock with no launch-to-capture path, e.g. for a purely
/// behavioural design (Seizovic), which places no gates.
pub fn periods(design: &dyn MixedTimingDesign, params: FifoParams) -> Result<Periods, String> {
    let h = timed_build(design, params);
    let (sta, put_clock, get_clock) = max_delay_sta(&h);
    let min_period = |clock, side| {
        sta.min_period(clock).map(|r| r.period).ok_or_else(|| {
            format!(
                "{} at {}x{}: no timing path in the {side} clock domain",
                design.kind().name(),
                params.capacity,
                params.width
            )
        })
    };
    Ok(Periods {
        put: (!async_put(design, params))
            .then(|| min_period(put_clock, "put"))
            .transpose()?,
        get: min_period(get_clock, "get")?,
    })
}

/// Measures the Table 1 throughput cell for `design` at `params`.
///
/// # Errors
///
/// As [`periods`].
pub fn throughput(
    design: &dyn MixedTimingDesign,
    params: FifoParams,
) -> Result<Throughput, String> {
    let p = periods(design, params)?;
    let get = 1.0e6 / p.get.as_ps() as f64;
    let put = match p.put {
        Some(t) => 1.0e6 / t.as_ps() as f64,
        None => async_put_mops(design, params, p.get),
    };
    Ok(Throughput { put, get })
}

/// Measures an asynchronous put interface's steady-state throughput in
/// MegaOps/s, with the synchronous get side clocked at its own maximum
/// frequency so the FIFO never back-pressures.
fn async_put_mops(design: &dyn MixedTimingDesign, params: FifoParams, get_period: Time) -> f64 {
    let ops: u64 = 300;
    let mut h = Harness::calibrated(2);
    h.clock_nets(design.clocking());
    // 5% margin over the STA period keeps the drain side comfortably legal.
    let period = Time::from_ps(get_period.as_ps() * 21 / 20);
    h.gen_get_phased(period, Time::from_ps(333));
    h.build_annotated(design, params, &Tech::hp06_custom());
    let journal = h.feed(
        "prod",
        Feed::Saturate {
            items: (0..ops).collect(),
            bundling: BUNDLING,
            phase: Time::ZERO,
        },
    );
    match h.ports().get_spec() {
        InterfaceSpec::SyncStream { .. } => {
            h.drain("sink", Drain::Sink { stalls: vec![] });
        }
        _ => {
            h.drain(
                "cons",
                Drain::Consume {
                    n: ops,
                    phase: Time::ZERO,
                },
            );
        }
    }
    h.sim.run_until(Time::from_us(40)).expect("simulation runs");
    assert_eq!(journal.len() as u64, ops, "producer must finish");
    journal.ops_per_second(40).expect("steady state reached") / 1.0e6
}

/// Independently cross-checks the STA throughput bound by *simulation*:
/// scales both clock periods by a common factor of their STA minima and
/// binary-searches the smallest factor at which a transfer stays clean (no
/// setup/hold reports, data intact, in order). Returns that factor —
/// 1.0 means the STA bound is exactly where simulation first succeeds;
/// values below 1.0 mean STA is conservative by that margin.
pub fn sim_fmax_factor_mixed_clock(params: FifoParams) -> f64 {
    let p = periods(&MIXED_CLOCK, params).expect("mixed-clock domains have paths");
    let (t_put, t_get) = (p.put.expect("sync put"), p.get);

    let clean_at = |factor: f64| -> bool {
        let scale = |t: Time| Time::from_ps((t.as_ps() as f64 * factor).round() as u64);
        let (tp, tg) = (scale(t_put), scale(t_get));
        let mut h = Harness::calibrated(17);
        h.clock_nets_both();
        h.gen_put(tp);
        h.gen_get_phased(tg, Time::from_ps(tg.as_ps() / 3));
        h.build_annotated(&MIXED_CLOCK, params, &Tech::hp06_custom());
        let items: Vec<u64> = (0..60).collect();
        let pj = h.feed(
            "p",
            Feed::Saturate {
                items: items.clone(),
                bundling: BUNDLING,
                phase: Time::ZERO,
            },
        );
        let cj = h.drain(
            "c",
            Drain::Consume {
                n: items.len() as u64,
                phase: Time::ZERO,
            },
        );
        let horizon = Time::from_ps(tp.max(tg).as_ps() * 200);
        if h.sim.run_until(horizon).is_err() {
            return false;
        }
        let viol = h.sim.violations_of(mtf_sim::ViolationKind::Setup).count()
            + h.sim.violations_of(mtf_sim::ViolationKind::Hold).count();
        viol == 0 && pj.len() == items.len() && cj.values() == items
    };

    // Bracket, then bisect to ~1% resolution.
    let mut lo = 0.4; // assumed dirty
    let mut hi = 1.2; // assumed clean (2% guard over STA plus margin)
    assert!(clean_at(hi), "simulation must pass above the STA bound");
    for _ in 0..7 {
        let mid = (lo + hi) / 2.0;
        if clean_at(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Reproduces the paper's latency experiment: empty FIFO, receiver
/// requesting; one item injected at an instant swept over one get-clock
/// period in `steps` steps. Returns the Min/Max of
/// `capture edge − data-valid instant` in nanoseconds.
///
/// # Errors
///
/// As [`periods`].
pub fn latency(
    design: &dyn MixedTimingDesign,
    params: FifoParams,
    steps: usize,
) -> Result<LatencyRange, String> {
    latency_with(design, params, steps, &SweepRunner::serial())
}

/// [`latency`] with the alignment sweep fanned out over `runner`. Each
/// step builds its own freshly seeded simulator, so the Min/Max is
/// independent of the thread schedule.
///
/// # Errors
///
/// As [`periods`].
pub fn latency_with(
    design: &dyn MixedTimingDesign,
    params: FifoParams,
    steps: usize,
    runner: &SweepRunner,
) -> Result<LatencyRange, String> {
    let p = periods(design, params)?;
    Ok(latency_at(design, params, p, steps, runner))
}

/// [`latency_with`] at the clock periods `p` instead of the design's own
/// STA periods — e.g. a baseline measured at another design's fmax.
pub fn latency_at(
    design: &dyn MixedTimingDesign,
    params: FifoParams,
    p: Periods,
    steps: usize,
    runner: &SweepRunner,
) -> LatencyRange {
    assert!(steps >= 2, "a sweep needs at least two points");
    let offsets: Vec<Time> = (0..steps)
        .map(|s| Time::from_ps(p.get.as_ps() * s as u64 / steps as u64))
        .collect();
    let samples = runner.run(&offsets, |_, &offset| {
        latency_once(design, params, p, offset)
    });
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for ns in samples {
        lo = lo.min(ns);
        hi = hi.max(ns);
    }
    LatencyRange {
        min_ns: lo,
        max_ns: hi,
    }
}

fn latency_once(
    design: &dyn MixedTimingDesign,
    params: FifoParams,
    p: Periods,
    offset: Time,
) -> f64 {
    let kind = design.kind();
    let t_get = p.get;
    let stream_put = matches!(
        design.put_interface(params),
        InterfaceSpec::SyncStream { .. }
    );
    // A relay station enqueues continuously — bubbles included — so a
    // put clock faster than the get clock would fill it with invalid
    // packets and the measured "latency" would be the drain time of the
    // whole ring. The paper's empty-FIFO latency setup implies
    // rate-matched interfaces; use the slower period on both sides.
    let t_put = match (stream_put, p.put) {
        (true, Some(tp)) => tp.max(t_get),
        (_, Some(tp)) => tp,
        (_, None) => t_get,
    };
    let warmup = t_get * 40;

    let mut h = Harness::calibrated(3);
    h.clock_nets_both();
    h.gen_get(t_get);

    // For synchronous puts the injection instant is tied to a put-clock
    // edge, so the sweep shifts the whole put clock; for asynchronous puts
    // the instant is free.
    let put_edge = {
        // First put edge after warmup, for phase `offset`: edges at
        // offset + k·t_put.
        let k =
            (warmup.as_ps() + t_put.as_ps() - 1 - offset.as_ps() % t_put.as_ps()) / t_put.as_ps();
        offset + t_put * k
    };
    if !async_put(design, params) {
        h.gen_put_phased(t_put, offset);
    }

    h.build_annotated(design, params, &Tech::hp06_custom());
    let ports = h.ports().clone();

    // Drain side: a requesting consumer or a stall-free sink.
    match ports.get_spec() {
        InterfaceSpec::SyncStream { .. } => {
            h.drain("sink", Drain::Sink { stalls: vec![] });
        }
        _ => {
            h.drain(
                "cons",
                Drain::Consume {
                    n: 1,
                    phase: Time::ZERO,
                },
            );
        }
    }

    if stream_put {
        // The relay station streams continuously (bubbles included) and
        // self-regulates its occupancy, so the valid packet must come
        // from a real upstream source that holds it under back-pressure.
        // Latency is measured from the traced rise of `valid_in` (the
        // instant the packet is on the bus).
        let valid_in = ports.valid_in.expect("stream put");
        let valid_get = ports.valid_get.expect("stream get");
        let mut packets: Vec<Option<u64>> = vec![None; 45];
        packets.push(Some(0xA5));
        packets.extend(std::iter::repeat_n(None, 40));
        h.feed("src", Feed::Packets { packets });
        h.sim.trace(valid_in);
        h.sim.trace(valid_get);
        h.sim
            .run_until(warmup + t_get * 120)
            .expect("simulation runs");
        let t0 = h
            .sim
            .waveform(valid_in)
            .expect("traced")
            .edges(mtf_sim::Edge::Rising)
            .next()
            .expect("the valid packet was presented");
        let wf = h.sim.waveform(valid_get).expect("traced");
        let mut k = t0.as_ps() / t_get.as_ps();
        let capture = loop {
            k += 1;
            let edge = Time::from_ps(k * t_get.as_ps());
            assert!(
                edge <= t0 + t_get * 80,
                "packet was never delivered ({kind:?} {params})"
            );
            if wf.value_at(edge) == Logic::H {
                break edge;
            }
        };
        return (capture - t0).as_ps() as f64 / 1000.0;
    }

    // Inject exactly one item; `t0` is the instant the put data bus holds
    // valid data (the paper's latency origin).
    let item: u64 = 0xA5;
    let t0 = if async_put(design, params) {
        let t0 = warmup + offset;
        h.inject_async_once(item, t0, BUNDLING, t0 + BUNDLING + t_get * 3);
        t0
    } else {
        let t0 = put_edge + EXT;
        // One packet only: deassert before the following edge closes.
        h.inject_sync_once(item, t0, put_edge + t_put + EXT);
        t0
    };

    let valid_get = ports.valid_get.expect("clocked get");
    h.sim.trace(valid_get);
    h.sim.run_until(t0 + t_get * 60).expect("simulation runs");

    // The receiver "retrieves the data item and can use it" at the first
    // get-clock edge where valid_get is high. Get edges fall at k·t_get.
    let wf = h.sim.waveform(valid_get).expect("traced");
    let mut k = t0.as_ps() / t_get.as_ps(); // first edge at or after t0
    let capture = loop {
        k += 1;
        let edge = Time::from_ps(k * t_get.as_ps());
        if edge > t0 + t_get * 59 {
            panic!("item was never delivered ({kind:?} {params})");
        }
        if wf.value_at(edge) == Logic::H {
            break edge;
        }
    };
    (capture - t0).as_ps() as f64 / 1000.0
}

/// Latency of the behavioural Seizovic pipeline at an explicit `depth`
/// and clock period `t`: one item injected into an empty pipeline with
/// the receiver requesting; returns the ns from data-valid to capture.
///
/// The Seizovic baseline lives outside [`periods`]/[`latency`] because it
/// is depth-parameterised below [`FifoParams`]' minimum capacity (the
/// related-work comparison sweeps depth 2, 4, 8) and places no gates for
/// the STA to analyse.
pub fn seizovic_latency(depth: usize, t: Time) -> f64 {
    let mut sim = Simulator::new(6);
    let clk = sim.net("clk");
    ClockGen::spawn_simple(&mut sim, clk, t);
    let f = SeizovicFifo::spawn(&mut sim, "szv", clk, 8, depth);
    let t0 = t * 40 + Time::from_ps(137);
    let item: u64 = 0xA5;
    for (i, &dnet) in f.put_data.iter().enumerate() {
        let drv = sim.driver(dnet);
        sim.drive_at(drv, dnet, Logic::from_bool((item >> i) & 1 == 1), t0);
    }
    let rd = sim.driver(f.put_req);
    sim.drive_at(rd, f.put_req, Logic::L, Time::ZERO);
    sim.drive_at(rd, f.put_req, Logic::H, t0 + Time::from_ps(150));
    sim.drive_at(rd, f.put_req, Logic::L, t0 + t * 4);
    let cj = mtf_core::env::SyncConsumer::spawn(
        &mut sim,
        "c",
        clk,
        f.req_get,
        &f.data_get,
        f.valid_get,
        1,
    );
    sim.run_until(t0 + t * (4 * depth as u64 + 20))
        .expect("simulation runs");
    let capture = cj.time_of(0).expect("item delivered");
    (capture - t0).as_ps() as f64 / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtf_core::design::{ASYNC_SYNC, MIXED_CLOCK, SEIZOVIC, SYNC_RS};

    /// A design that places no gates has no timing path: an error naming
    /// the clock domain, not a panic inside the analysis.
    #[test]
    fn gate_less_designs_have_no_periods() {
        for design in [&SEIZOVIC, &SYNC_RS] {
            let err = periods(design, FifoParams::new(4, 8)).expect_err("no paths");
            assert!(err.contains("no timing path in the"), "{err}");
            assert!(err.starts_with(design.kind().name()), "{err}");
        }
    }

    #[test]
    fn mixed_clock_throughput_shape() {
        let t4 = throughput(&MIXED_CLOCK, FifoParams::new(4, 8)).unwrap();
        let t16 = throughput(&MIXED_CLOCK, FifoParams::new(16, 8)).unwrap();
        assert!(t4.put > t4.get, "put must beat get (detector complexity)");
        assert!(t4.put > t16.put, "throughput decreases with capacity");
        assert!(t4.get > t16.get);
        let w16 = throughput(&MIXED_CLOCK, FifoParams::new(4, 16)).unwrap();
        assert!(t4.put > w16.put, "throughput decreases with width");
    }

    #[test]
    fn async_put_is_slower_than_sync_put() {
        let mc = throughput(&MIXED_CLOCK, FifoParams::new(4, 8)).unwrap();
        let asy = throughput(&ASYNC_SYNC, FifoParams::new(4, 8)).unwrap();
        assert!(asy.put < mc.put, "async {} vs sync {}", asy.put, mc.put);
        assert!(asy.put > 50.0, "but still in a sane range: {}", asy.put);
    }

    #[test]
    fn async_sync_get_matches_mixed_clock_get() {
        // The get architecture is shared, so the STA should agree closely.
        // Not gate-for-gate identical, though: the mixed-clock dequeue
        // reset is additionally gated by the delivered-window flop
        // (`f_at_open`), which the DV_as-based async array does not need —
        // allow ~15% skew between the two get-side critical paths.
        let mc = throughput(&MIXED_CLOCK, FifoParams::new(8, 8)).unwrap();
        let asy = throughput(&ASYNC_SYNC, FifoParams::new(8, 8)).unwrap();
        let ratio = asy.get / mc.get;
        assert!((0.85..1.18).contains(&ratio), "get ratio {ratio}");
    }

    #[test]
    fn latency_range_is_sane_and_grows_with_capacity() {
        let l4 = latency(&MIXED_CLOCK, FifoParams::new(4, 8), 6).unwrap();
        let l16 = latency(&MIXED_CLOCK, FifoParams::new(16, 8), 6).unwrap();
        assert!(l4.min_ns > 0.0);
        assert!(l4.max_ns >= l4.min_ns);
        assert!(
            l16.min_ns > l4.min_ns,
            "bigger FIFO, longer latency: {} vs {}",
            l16.min_ns,
            l4.min_ns
        );
    }
}
