//! Regenerates the paper's **Table 1**: throughput and latency for all
//! four mixed-timing designs across the capacity × width sweep, printed
//! side by side with the published numbers.
//!
//! ```text
//! cargo run -p mtf-bench --bin table1 [--quick] [--latency-steps N] [--jobs N] [--stats]
//! ```
//!
//! `--jobs N` fans the independent table cells (and each latency
//! alignment sweep) across N worker threads; the default is the
//! machine's available parallelism. The printed table is byte-identical
//! at any thread count — cells are computed in parallel but reassembled
//! in input order, and every cell seeds its own simulator. `--stats`
//! appends the simulation kernel's internal counters for one
//! representative transfer run, and its evaluations per component kind
//! (in the `--json` report, the `kernel` block's `by_kind` object).
//!
//! `--json` emits the full grid as one structured
//! [`ExperimentReport`](mtf_bench::report::ExperimentReport), which
//! `cargo test` pins byte for byte to `golden/table1.json`
//! (`crates/bench/tests/stdout_pins.rs`); `--json --cell
//! NAME[:CAPxWIDTH]` measures a single cell of one of the four Table 1
//! designs.

use mtf_bench::args::ArgError;
use mtf_bench::harness::{Drain, Feed, Harness};
use mtf_bench::json::Json;
use mtf_bench::measure::{latency_with, throughput, LatencyRange, Throughput};
use mtf_bench::paper;
use mtf_bench::report::{DesignEntry, Run};
use mtf_bench::sweep::SweepRunner;
use mtf_core::design::{DesignRegistry, MIXED_CLOCK};
use mtf_core::{FifoParams, MixedTimingDesign};
use mtf_sim::{KindCount, SimStats, Time};

const WIDTHS: [usize; 2] = [8, 16];
const CAPACITIES: [usize; 3] = [4, 8, 16];

fn main() {
    let mut run = Run::start(
        "table1",
        &[
            "--quick",
            "--stats",
            "--json",
            "--jobs",
            "--latency-steps",
            "--cell",
        ],
    );
    let args = run.args();
    let quick = args.flag("--quick");
    let stats = args.flag("--stats");
    let json = args.json();
    let steps = args.count("--latency-steps", if quick { 4 } else { 10 }, 2..=1000);
    let runner = SweepRunner::new(args.jobs());
    let registry = DesignRegistry::table1();
    let designs: Vec<&'static dyn MixedTimingDesign> = registry.iter().collect();

    // `--json --cell NAME[:CAPxWIDTH]`: one Table 1 cell only.
    if let Some(cell) = args.value_of("--cell") {
        if !json {
            ArgError("--cell implies --json".into()).exit();
        }
        let (design, params) = parse_cell(&registry, cell).unwrap_or_else(|e| e.exit());
        let t = throughput(design, params).unwrap_or_else(|e| run.abort(e));
        let l = latency_with(design, FifoParams::new(params.capacity, 8), steps, &runner)
            .unwrap_or_else(|e| run.abort(e));
        run.report.entries.push(
            DesignEntry::new(design, params)
                .with("put", t.put)
                .with("get", t.get)
                .with("latency_min_ns", l.min_ns)
                .with("latency_max_ns", l.max_ns),
        );
        run.finish();
    }

    if !json {
        println!("Table 1 reproduction — Chelcea & Nowick, DAC 2001");
        println!(
            "(sync interfaces: MHz by static timing analysis; async: MegaOps/s by simulation)"
        );
        println!();
    }

    // ---- throughput ------------------------------------------------------
    // Every (design, width, capacity) cell is independent; compute the
    // whole grid through the runner, then print in the paper's row order.
    let tcells: Vec<(usize, usize, usize)> = (0..designs.len())
        .flat_map(|d| {
            WIDTHS
                .iter()
                .flat_map(move |&w| CAPACITIES.iter().map(move |&c| (d, w, c)))
        })
        .collect();
    let tvals: Vec<Throughput> = runner
        .run(&tcells, |_, &(d, w, c)| {
            throughput(designs[d], FifoParams::new(c, w))
        })
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| run.abort(e));
    let tput = |d: usize, w: usize, c: usize| -> Throughput {
        let i = tcells
            .iter()
            .position(|&cell| cell == (d, w, c))
            .expect("cell in grid");
        tvals[i]
    };

    if !json {
        println!("THROUGHPUT                paper        measured       ratio");
        for (d, design) in designs.iter().enumerate() {
            println!("{}", design.kind().label());
            for &width in &WIDTHS {
                for &capacity in &CAPACITIES {
                    let m = tput(d, width, capacity);
                    let p = paper::throughput_of(design.kind().label(), capacity, width)
                        .expect("published cell");
                    println!(
                        "  {capacity:2}-place {width:2}-bit   put {pp:5.0} / {mp:5.0}  ({rp:4.2})   get {pg:5.0} / {mg:5.0}  ({rg:4.2})",
                        pp = p.put,
                        mp = m.put,
                        rp = m.put / p.put,
                        pg = p.get,
                        mg = m.get,
                        rg = m.get / p.get,
                    );
                }
            }
        }
    }

    // ---- latency ----------------------------------------------------------
    // The cell grid and each cell's alignment sweep share the same worker
    // pool; with the pool busy on cells the inner sweeps run inline.
    let lcells: Vec<(usize, usize)> = (0..designs.len())
        .flat_map(|d| CAPACITIES.iter().map(move |&c| (d, c)))
        .collect();
    let lvals: Vec<LatencyRange> = runner
        .run(&lcells, |_, &(d, c)| {
            latency_with(
                designs[d],
                FifoParams::new(c, 8),
                steps,
                &SweepRunner::serial(),
            )
        })
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| run.abort(e));
    let lat = |d: usize, c: usize| -> LatencyRange {
        let i = lcells
            .iter()
            .position(|&cell| cell == (d, c))
            .expect("cell in grid");
        lvals[i]
    };

    if !json {
        println!();
        println!("LATENCY (8-bit, empty FIFO)   paper min/max      measured min/max");
        for (d, design) in designs.iter().enumerate() {
            println!("{}", design.kind().label());
            for &capacity in &CAPACITIES {
                let m = lat(d, capacity);
                let p = paper::latency_of(design.kind().label(), capacity).expect("published cell");
                println!(
                    "  {capacity:2}-place    {:4.2} / {:4.2} ns      {:4.2} / {:4.2} ns",
                    p.min_ns, p.max_ns, m.min_ns, m.max_ns
                );
            }
        }
    }

    // ---- shape checks -------------------------------------------------------
    // Reuse the grid values computed above: the measurements are pure
    // functions of their cell, so a recompute would give the same numbers
    // and only burn time. Registry order is [mixed_clock, async_sync,
    // mixed_clock_rs, async_sync_rs].
    let mc4 = tput(0, 8, 4);
    let mc8 = tput(0, 8, 8);
    let mc16 = tput(0, 8, 16);
    let mc4w = tput(0, 16, 4);
    let as4 = tput(1, 8, 4);
    let rs4 = tput(2, 8, 4);
    let l4 = lat(0, 4);
    let l16 = lat(0, 16);
    let checks: Vec<(&str, bool)> = vec![
        (
            "sync put faster than sync get (empty detector heavier)",
            mc4.put > mc4.get,
        ),
        (
            "throughput decreases with capacity",
            mc4.put > mc8.put && mc8.put > mc16.put,
        ),
        ("throughput decreases with width", mc4.put > mc4w.put),
        ("async put slower than sync put", as4.put < mc4.put),
        (
            // The paper's two designs share the get interface, but this
            // reproduction's mixed-clock get path carries the commit-gated
            // dequeue (the `f_at_open` sample and its gating — see
            // `mixed_clock.rs`), which async-sync does not need; the
            // async-sync get therefore runs up to ~15% faster, never
            // slower, than mixed-clock's.
            "async-sync get ≥ mixed-clock get (shared get part + commit gating)",
            as4.get >= mc4.get && (as4.get / mc4.get - 1.0).abs() < 0.2,
        ),
        (
            "MCRS put ≥ mixed-clock put (put controller is one inverter)",
            rs4.put >= mc4.put * 0.98,
        ),
        (
            "MCRS get ≤ mixed-clock get (stopIn in the controller)",
            rs4.get <= mc4.get * 1.02,
        ),
        ("latency grows with capacity", l16.min_ns > l4.min_ns),
        ("max latency exceeds min", l4.max_ns > l4.min_ns),
    ];
    let pass = checks.iter().filter(|(_, ok)| *ok).count();
    let fail = checks.len() - pass;

    if !json {
        println!();
        println!("Shape checks (the claims the reproduction must preserve):");
        for (name, ok) in &checks {
            println!("  [{}] {}", if *ok { "ok" } else { "FAIL" }, name);
        }
        println!();
        println!("{pass} shape checks passed, {fail} failed");
        if stats {
            let (s, by_kind) = kernel_stats(true);
            print_kernel_stats(s, &by_kind);
        }
    } else {
        let r = &mut run.report;
        let (s, by_kind) = kernel_stats(stats);
        r.kernel = Some(s);
        r.by_kind = by_kind;
        for (d, design) in designs.iter().enumerate() {
            for &width in &WIDTHS {
                for &capacity in &CAPACITIES {
                    let m = tput(d, width, capacity);
                    let mut e = DesignEntry::new(*design, FifoParams::new(capacity, width))
                        .with("put", m.put)
                        .with("get", m.get);
                    if width == 8 {
                        let l = lat(d, capacity);
                        e = e
                            .with("latency_min_ns", l.min_ns)
                            .with("latency_max_ns", l.max_ns);
                    }
                    r.entries.push(e);
                }
            }
        }
        r.note("shape_checks_passed", Json::Num(pass as f64));
        r.note("shape_checks_failed", Json::Num(fail as f64));
    }
    for (name, _) in checks.iter().filter(|(_, ok)| !ok) {
        run.fail(format_args!("shape check failed: {name}"));
    }
    run.finish()
}

/// `NAME[:CAPxWIDTH]`, e.g. `mixed_clock` or `async_sync:8x16` (`4x8`
/// when the geometry is omitted). `NAME` is one of the Table 1 designs
/// in `registry`; every one of them builds at any valid [`FifoParams`].
fn parse_cell(
    registry: &DesignRegistry,
    cell: &str,
) -> Result<(&'static dyn MixedTimingDesign, FifoParams), ArgError> {
    let (name, geom) = cell.split_once(':').unwrap_or((cell, "4x8"));
    let design = registry
        .iter()
        .find(|d| d.kind().name() == name)
        .ok_or_else(|| {
            ArgError(format!(
                "--cell: unknown design {name:?} (expected one of {})",
                registry.names().join(", ")
            ))
        })?;
    let bad = || ArgError(format!("--cell wants NAME:CAPxWIDTH, got {cell:?}"));
    let (c, w) = geom.split_once('x').ok_or_else(bad)?;
    let capacity = c.parse().map_err(|_| bad())?;
    let width = w.parse().map_err(|_| bad())?;
    let params = FifoParams::try_new(capacity, width)
        .map_err(|e| ArgError(format!("--cell {cell}: {e}")))?;
    Ok((design, params))
}

/// Runs one representative mixed-clock transfer and returns the kernel's
/// internal counters ([`mtf_sim::Simulator::stats`]) — a quick check of
/// how hard the event queue worked and how much the wake coalescing and
/// delta ring are earning — and, if `by_kind`, its evaluations per
/// component kind.
fn kernel_stats(by_kind: bool) -> (SimStats, Vec<KindCount>) {
    let mut h = Harness::calibrated(7);
    if by_kind {
        h.sim.enable_kind_counts();
    }
    h.clock_nets_both();
    h.gen_put(Time::from_ps(4_000));
    h.gen_get_phased(Time::from_ps(5_300), Time::from_ps(700));
    h.build(&MIXED_CLOCK, FifoParams::new(8, 8));
    let items: Vec<u64> = (0..64).collect();
    let n = items.len() as u64;
    let _pj = h.feed(
        "prod",
        Feed::Saturate {
            items,
            bundling: Time::ZERO,
            phase: Time::ZERO,
        },
    );
    let _cj = h.drain(
        "cons",
        Drain::Consume {
            n,
            phase: Time::ZERO,
        },
    );
    h.sim.run_until(Time::from_us(2)).expect("simulation runs");
    (h.sim.stats(), h.sim.kind_counts())
}

fn print_kernel_stats(s: SimStats, by_kind: &[KindCount]) {
    println!();
    println!("Kernel stats (mixed-clock 8-place/8-bit, 64-item transfer, 2 µs):");
    println!("  events processed      {}", s.events_processed);
    println!("  peak queue depth      {}", s.peak_queue_depth);
    println!("  coalesced wakes       {}", s.coalesced_wakes);
    println!("  delta-ring pushes     {}", s.delta_pushes);
    println!("  peak delta occupancy  {}", s.peak_delta_depth);
    println!("  near-wheel refills    {}", s.wheel_cascades);
    println!("  later-heap pushes     {}", s.overflow_events);
    println!("  elided drives         {}", s.elided_drives);
    println!("  filtered wakes        {}", s.filtered_wakes);
    println!("  slept wakes           {}", s.slept_wakes);
    println!("  held wakes            {}", s.held_wakes);
    println!("  sampled wakes         {}", s.sampled_wakes);
    println!("  evaluations by kind   all (idle)   at a rising edge (idle)");
    // Behavioural kinds have names longer than the cells' ten columns.
    let w = by_kind
        .iter()
        .map(|c| c.kind.len())
        .max()
        .unwrap_or(0)
        .max(10);
    for c in by_kind {
        println!(
            "    {:<w$} {:>8} ({:>6})   {:>8} ({:>6})",
            c.kind, c.evals, c.idle, c.edges, c.idle_edges
        );
    }
}
