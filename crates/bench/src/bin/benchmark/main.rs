//! `benchmark` — the repository's end-to-end performance yardstick.
//!
//! Four closed-loop workloads (one client, one job at a time) cover the
//! event kernel, the compiled backend and the static-verification layer;
//! see `README.md` next to this file for why each exists and which layer
//! metric should move which end-to-end metric.
//!
//! ```text
//! benchmark                                  # every workload, each in its own process
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1|FILE] [--smoke]
//! benchmark --sets K [--seconds S]           # K interleaved sets, run-to-run spread
//! ```
//!
//! A `--workload` run sets up (inputs from the seed, reference runs, one
//! warm-up job) several times, then runs jobs for `--seconds` and checks
//! every job's output. A host-speed probe runs after every set-up and
//! job, and end-to-end times are scaled to nominal host speed by the
//! probes on either side (see `probe.rs`). It prints a provenance and
//! metrics line on stderr, wall times included, and, as the last line of
//! stdout, one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`
//! with the end-to-end metrics, or with `--trace 1` (or a FILE, which
//! also receives the spans as Chrome trace-event JSON) the per-layer
//! metrics. The exit code is non-zero when any job failed.

mod probe;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use mtf_bench::args::Args;
use mtf_bench::json::Json;
use mtf_sim::Backend;

use probe::{probe_ms, scale};
use trace::{JobMetrics, Tracer};
use workloads::{Chains, Fifo, Static, Workload, NAMES};

/// The end-to-end metrics of an untraced run, with units: the median
/// set-up and job times at nominal host speed, and the peak resident set.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("norm_job_ms.p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Failed jobs over attempted jobs. It is 0 on a correct build, and a
/// bounded metric must never be 0, so it is not in `BENCHMARK.json`; the
/// result object carries it as `attempted` and `failed`, and the human
/// line and the full-run table print it.
const FAIL_RATE: (&str, &str) = ("fail_rate", "ratio");

/// The per-layer metrics of a traced run, with units. Times are per job
/// (median over the run's jobs); counts are per job and repeat exactly.
/// A layer the workload does not call reports 0.
const PER_LAYER: [(&str, &str); 30] = [
    ("gates.elab_ms", "ms"),
    ("gates.cells", "count"),
    ("gates.nets", "count"),
    ("compile.ms", "ms"),
    ("compile.gates", "count"),
    ("compile.flops", "count"),
    ("compile.event_cells", "count"),
    ("harness.env_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.coalesced_wakes", "count"),
    ("sim.delta_pushes", "count"),
    ("sim.peak_queue_depth", "count"),
    ("sim.wheel_cascades", "count"),
    ("sim.overflow_events", "count"),
    ("engine.edge_evals", "count"),
    ("engine.gate_evals", "count"),
    ("engine.event_ratio", "ratio"),
    ("mc.ms", "ms"),
    ("mc.states", "count"),
    ("mc.transitions", "count"),
    ("mc.states_per_s", "1/s"),
    ("lint.ms", "ms"),
    ("lint.infer_ms", "ms"),
    ("timing.sta_ms", "ms"),
    ("lookahead.audit_ms", "ms"),
    ("lookahead.cuts", "count"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Timed-loop length when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 15.0;
/// Jobs per run under `--smoke`.
const SMOKE_JOBS: usize = 2;

#[derive(Clone, Debug, PartialEq)]
enum TraceMode {
    Off,
    On,
    /// Traced, and the spans go to this file.
    File(String),
}

#[derive(Clone, Debug)]
struct Config {
    /// `None`: seed 0.
    seed: Option<u64>,
    seconds: f64,
    /// Two jobs of 16 items after a single set-up.
    smoke: bool,
    trace: TraceMode,
}

/// The value after `flag`; an error when the flag dangles.
fn value<'a>(args: &'a Args, flag: &str) -> Result<Option<&'a str>, String> {
    match (args.flag(flag), args.value_of(flag)) {
        (false, _) => Ok(None),
        (true, Some(v)) if !v.starts_with("--") => Ok(Some(v)),
        (true, _) => Err(format!("{flag} needs a value")),
    }
}

impl Config {
    fn parse(args: &Args) -> Result<Self, String> {
        let seed = value(args, "--seed")?
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("--seed wants a whole number, got {v:?}"))
            })
            .transpose()?;
        let seconds = match value(args, "--seconds")? {
            None => DEFAULT_SECONDS,
            Some(v) => v
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s > 0.0)
                .ok_or(format!("--seconds wants a positive number, got {v:?}"))?,
        };
        let trace = match value(args, "--trace")? {
            None | Some("0") => TraceMode::Off,
            Some("1") => TraceMode::On,
            Some(path) => TraceMode::File(path.to_string()),
        };
        Ok(Config {
            seed,
            seconds,
            smoke: args.flag("--smoke"),
            trace,
        })
    }

    /// The arguments that run `workload` alone with this configuration.
    fn child_args(&self, workload: &str) -> Vec<String> {
        let mut a = vec![
            "--workload".to_string(),
            workload.to_string(),
            "--seconds".to_string(),
            self.seconds.to_string(),
        ];
        if let Some(seed) = self.seed {
            a.extend(["--seed".to_string(), seed.to_string()]);
        }
        if self.smoke {
            a.push("--smoke".to_string());
        }
        match &self.trace {
            TraceMode::Off => {}
            TraceMode::On => a.extend(["--trace".to_string(), "1".to_string()]),
            TraceMode::File(p) => {
                let per_workload = match p.strip_suffix(".json") {
                    Some(stem) => format!("{stem}.{workload}.json"),
                    None => format!("{p}.{workload}.json"),
                };
                a.extend(["--trace".to_string(), per_workload]);
            }
        }
        a
    }
}

/// What one workload run measured.
struct Outcome {
    workload: &'static str,
    seed: u64,
    attempted: usize,
    failed: usize,
    /// Set-up times in s at nominal host speed, sorted.
    setup_s: Vec<f64>,
    /// Untraced job times in ms at nominal host speed, sorted.
    job_ms: Vec<f64>,
    /// Untraced job wall times in ms, sorted.
    wall_ms: Vec<f64>,
    /// Probe times in ms, sorted.
    probe_ms: Vec<f64>,
    /// Length of the timed loop in s.
    loop_s: f64,
    /// Peak resident set at the end of the set-ups, in MB.
    peak_rss_mb: f64,
    /// Per-layer medians, for a traced run.
    layers: Option<JobMetrics>,
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank 90th percentile.
fn p90(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[(sorted.len() * 9).div_ceil(10) - 1]
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn is_count(metric: &str) -> bool {
    PER_LAYER.iter().any(|&(n, u)| n == metric && u == "count")
}

/// Sets `W` up, then runs its jobs in a closed loop and checks each one.
/// Under tracing every untraced job is followed by a traced one, which
/// must return the same observables and the same per-layer counts as the
/// first traced job.
fn measure<W: Workload>(
    workload: &'static str,
    seed: u64,
    cfg: &Config,
    started: Instant,
    setup: impl Fn() -> Result<W, String>,
) -> Result<Outcome, String> {
    // Every set-up and job is followed by a probe; the probes on either
    // side of it scale its wall time to nominal host speed.
    let mut probes = Vec::new();
    let mut setup_s = Vec::new();
    let mut ready = None;
    for i in 0..if cfg.smoke { 1 } else { SETUPS } {
        let t0 = if i == 0 { started } else { Instant::now() };
        let w = setup()?;
        let warm = w.job();
        w.check(&warm)
            .map_err(|e| format!("{workload}: warm-up job failed: {e}"))?;
        let wall = t0.elapsed().as_secs_f64();
        let after = probe_ms();
        setup_s.push(scale(wall, *probes.last().unwrap_or(&after), after));
        probes.push(after);
        ready = Some(w);
    }
    let w = ready.expect("at least one set-up");
    // The peak over a fixed amount of work: the timed loop's job count
    // varies with host speed, and on `verify_static` an unlucky heap
    // layout, rare per job, lifts the peak by 2 MB for the rest of the
    // process.
    let setup_rss_mb = peak_rss_mb();

    let traced = cfg.trace != TraceMode::Off;
    let mut tracer = if traced { Tracer::on() } else { Tracer::off() };
    let (mut attempted, mut failed) = (0, 0);
    let (mut job_ms, mut wall_ms) = (Vec::new(), Vec::new());
    let t_loop = Instant::now();
    while if cfg.smoke {
        attempted < SMOKE_JOBS
    } else {
        t_loop.elapsed().as_secs_f64() < cfg.seconds
    } {
        attempted += 1;
        let before = probes[probes.len() - 1];
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| w.job()));
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        let after = probe_ms();
        wall_ms.push(wall);
        job_ms.push(scale(wall, before, after));
        probes.push(after);
        let mut verdict = match &out {
            Ok(o) => w.check(o),
            Err(_) => Err("job panicked".to_string()),
        };
        if let (true, Ok(untraced)) = (traced && verdict.is_ok(), &out) {
            tracer.begin_job(workload);
            let same = catch_unwind(AssertUnwindSafe(|| w.traced_job(&mut tracer)))
                .is_ok_and(|o| o == *untraced);
            tracer.end_job();
            let jobs = tracer.jobs();
            let (first, last) = (&jobs[0], &jobs[jobs.len() - 1]);
            if !same {
                verdict = Err("traced observables differ from the untraced job's".into());
            } else if let Some((k, _)) = last
                .iter()
                .find(|&(k, v)| is_count(k) && first.get(k) != Some(v))
            {
                verdict = Err(format!(
                    "per-layer count {k} differs from the first traced job's"
                ));
            }
        }
        if let Err(e) = verdict {
            failed += 1;
            eprintln!("benchmark: {workload} job {attempted} failed: {e}");
        }
    }
    let loop_s = t_loop.elapsed().as_secs_f64();
    for v in [&mut job_ms, &mut wall_ms, &mut setup_s, &mut probes] {
        v.sort_by(f64::total_cmp);
    }

    let layers = traced.then(|| {
        let mut by_key: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for job in tracer.jobs() {
            for (&k, &v) in job {
                by_key.entry(k).or_default().push(v);
            }
        }
        let mut m: JobMetrics = by_key
            .into_iter()
            .map(|(k, mut v)| {
                v.sort_by(f64::total_cmp);
                (k, median(&v))
            })
            .collect();
        let traced_ms = m.remove("trace.job_ms").unwrap_or(f64::NAN);
        m.insert(
            "trace.overhead_pct",
            100.0 * (traced_ms / median(&wall_ms) - 1.0),
        );
        m
    });
    if traced {
        eprint!(
            "{workload} self time by layer:\n{}",
            tracer.self_time_table()
        );
    }
    if let TraceMode::File(path) = &cfg.trace {
        std::fs::write(path, tracer.chrome_json().render() + "\n")
            .map_err(|e| format!("cannot write the trace to {path}: {e}"))?;
    }
    Ok(Outcome {
        workload,
        seed,
        attempted,
        failed,
        setup_s,
        job_ms,
        wall_ms,
        probe_ms: probes,
        loop_s,
        peak_rss_mb: setup_rss_mb,
        layers,
    })
}

/// Runs one workload in this process.
fn run_workload(workload: &'static str, cfg: &Config, started: Instant) -> Result<Outcome, String> {
    let seed = cfg.seed.unwrap_or(0);
    let items = |full| if cfg.smoke { 16 } else { full };
    match workload {
        "fifo_event" => measure(workload, seed, cfg, started, || {
            Fifo::setup(Backend::Event, seed, items(384))
        }),
        "fifo_compiled" => measure(workload, seed, cfg, started, || {
            Fifo::setup(Backend::Compiled, seed, items(384))
        }),
        "chains" => measure(workload, seed, cfg, started, || {
            Chains::setup(seed, items(40))
        }),
        "verify_static" => measure(workload, seed, cfg, started, Static::setup),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

/// The end-to-end values, in [`END_TO_END`] order.
fn end_to_end(o: &Outcome) -> [f64; 3] {
    [median(&o.setup_s), median(&o.job_ms), o.peak_rss_mb]
}

/// The result object: the end-to-end metrics, or the per-layer ones for
/// a traced run.
fn result_json(o: &Outcome) -> Json {
    let metric = |name: &str, value: f64, unit: &str| {
        (
            name.to_string(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    };
    let metrics = match &o.layers {
        None => END_TO_END
            .iter()
            .zip(end_to_end(o))
            .map(|(&(n, u), v)| metric(n, v, u))
            .collect(),
        Some(m) => PER_LAYER
            .iter()
            .map(|&(n, u)| metric(n, m.get(n).copied().unwrap_or(0.0), u))
            .collect(),
    };
    Json::obj([
        ("correct", Json::Bool(o.failed == 0)),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Commit, build profile, core count and CPU model.
fn provenance() -> String {
    let commit = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("commit {commit}, {profile} build, nproc {nproc}, cpu {cpu}")
}

/// The one-line human report of a run, provenance included: the
/// end-to-end metrics, the job times' p90 at nominal host speed, and the
/// wall-clock times and throughput they were scaled from.
fn report_line(o: &Outcome) -> String {
    let [setup, p50, rss] = end_to_end(o);
    let n = o.job_ms.len();
    let wall_rate = n as f64 * 1e3 / o.wall_ms.iter().sum::<f64>();
    format!(
        "benchmark {} | {} | seed {} | {n} jobs in {:.1} s | setup_s {setup:.3} s \
         (median of {}) | norm_job_ms.p50 {p50:.2} ms | norm_job_ms.p90 {:.2} ms \
         (n={n}{}) | peak_rss_mb {rss:.1} MB | fail_rate {} ratio ({}/{}) | \
         wall: job_ms.p50 {:.2} ms, job_ms.p90 {:.2} ms, jobs_per_s {wall_rate:.2} 1/s | \
         probe_ms.p50 {:.3} ms (nominal {})",
        o.workload,
        provenance(),
        o.seed,
        o.loop_s,
        o.setup_s.len(),
        p90(&o.job_ms),
        if n < 100 { ", under 10 above p90" } else { "" },
        o.failed as f64 / o.attempted.max(1) as f64,
        o.failed,
        o.attempted,
        median(&o.wall_ms),
        p90(&o.wall_ms),
        median(&o.probe_ms),
        probe::NOMINAL_MS,
    )
}

/// Runs `workload` as a child process and returns its result object.
fn child(workload: &str, cfg: &Config) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let out = Command::new(exe)
        .args(cfg.child_args(workload))
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{workload} printed no result ({})", out.status))?;
    Json::parse(line).map_err(|e| format!("{workload}: bad result line: {e}"))
}

/// A child's value of `metric`.
fn value_of(doc: &Json, metric: &str) -> f64 {
    doc.get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

fn metric_table(cfg: &Config) -> &'static [(&'static str, &'static str)] {
    if cfg.trace == TraceMode::Off {
        &END_TO_END
    } else {
        &PER_LAYER
    }
}

/// A child's metrics as `(name, value, unit)`, in table order, with
/// [`FAIL_RATE`] after the end-to-end ones.
fn metric_row(doc: &Json, cfg: &Config) -> Vec<(&'static str, f64, &'static str)> {
    let mut row: Vec<_> = metric_table(cfg)
        .iter()
        .map(|&(m, unit)| (m, value_of(doc, m), unit))
        .collect();
    if cfg.trace == TraceMode::Off {
        let n = |k| doc.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        row.push((FAIL_RATE.0, n("failed") / n("attempted"), FAIL_RATE.1));
    }
    row
}

/// Every workload once, each in its own process, one after another.
fn run_all(cfg: &Config) -> Result<bool, String> {
    let mut ok = true;
    let mut rows = Vec::new();
    for w in NAMES {
        let doc = child(w, cfg)?;
        ok &= doc.get("correct") == Some(&Json::Bool(true));
        rows.push((w, doc));
    }
    println!("{:<14} attempted failed", "workload");
    for (w, doc) in &rows {
        let n = |k| doc.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        print!("{w:<14} {:>9} {:>6}", n("attempted"), n("failed"));
        for (m, v, unit) in metric_row(doc, cfg) {
            print!(" | {m} {v:.4} {unit}");
        }
        println!();
    }
    Ok(ok)
}

/// `--sets K`: K full sets, the workloads interleaved round-robin, set `i`
/// at seed `S + i` (`S` from `--seed`, default 0), then each metric's
/// spread per workload: max/min − 1 over the sets, and the quartile
/// distance over the median.
fn run_sets(k: usize, cfg: &Config) -> Result<bool, String> {
    let mut ok = true;
    let mut runs: BTreeMap<&str, Vec<Json>> = BTreeMap::new();
    for set in 1..=k {
        let cfg = Config {
            seed: Some(cfg.seed.unwrap_or(0) + set as u64),
            ..cfg.clone()
        };
        for w in NAMES {
            eprintln!("benchmark --sets: set {set}/{k}, {w}");
            let doc = child(w, &cfg)?;
            ok &= doc.get("correct") == Some(&Json::Bool(true));
            runs.entry(w).or_default().push(doc);
        }
    }
    println!(
        "{:<14} {:<22} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "workload", "metric", "min", "median", "max", "max/min-1", "iqr/med"
    );
    for w in NAMES {
        for &(m, unit) in metric_table(cfg) {
            let mut v: Vec<f64> = runs[w].iter().map(|d| value_of(d, m)).collect();
            v.sort_by(f64::total_cmp);
            let (lo, hi, med) = (v[0], v[v.len() - 1], median(&v));
            let quartile = |q: f64| {
                let x = q * (v.len() + 1) as f64 - 1.0;
                let i = (x.floor().max(0.0) as usize).min(v.len() - 1);
                let j = (i + 1).min(v.len() - 1);
                v[i] + (v[j] - v[i]) * (x - x.floor()).clamp(0.0, 1.0)
            };
            println!(
                "{w:<14} {:<22} {lo:>12.4} {med:>12.4} {hi:>12.4} {:>9.4} {:>9.4}",
                format!("{m} ({unit})"),
                hi / lo - 1.0,
                (quartile(0.75) - quartile(0.25)) / med
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = Args::parse();
    let run = || -> Result<bool, String> {
        let cfg = Config::parse(&args)?;
        if let Some(k) = value(&args, "--sets")? {
            let k = k
                .parse::<usize>()
                .ok()
                .filter(|&k| k > 0)
                .ok_or(format!("--sets wants a positive whole number, got {k:?}"))?;
            return run_sets(k, &cfg);
        }
        let Some(name) = value(&args, "--workload")? else {
            return run_all(&cfg);
        };
        let workload = NAMES.iter().copied().find(|&n| n == name).ok_or(format!(
            "unknown workload {name:?} (expected one of {})",
            NAMES.join(", ")
        ))?;
        let o = run_workload(workload, &cfg, started)?;
        eprintln!("{}", report_line(&o));
        println!("{}", result_json(&o).render());
        Ok(o.failed == 0)
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = include_str!("../../../../../BENCHMARK.json");

    /// `(name, unit)` of every metric in a section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let doc = Json::parse(SPEC).expect("BENCHMARK.json parses");
        let field = |m: &Json, k| m.get(k).and_then(Json::as_str).expect(k).to_string();
        doc.get(section)
            .and_then(Json::as_array)
            .expect(section)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    /// Runs `workload` at smoke size untraced and traced, and checks that
    /// no job failed, that the result line carries exactly the metrics
    /// `BENCHMARK.json` declares, with their units, and that the full-run
    /// table row adds `fail_rate` = 0 to the end-to-end ones.
    fn smoke(workload: &'static str) {
        for (trace, section) in [(TraceMode::Off, "end_to_end"), (TraceMode::On, "per_layer")] {
            let cfg = Config {
                seed: None,
                seconds: 1.0,
                smoke: true,
                trace,
            };
            let o = run_workload(workload, &cfg, Instant::now()).expect("set-up succeeds");
            assert_eq!((o.attempted, o.failed), (SMOKE_JOBS, 0), "{workload}");
            let doc = Json::parse(&result_json(&o).render()).expect("result parses");
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
            let metrics = doc.get("metrics").expect("metrics object");
            let Json::Obj(pairs) = metrics else {
                panic!("{workload}: metrics is not an object");
            };
            let mut want = declared(section);
            assert_eq!(pairs.len(), want.len(), "{workload}: {section} count");
            for (name, unit) in &want {
                let m = metrics.get(name);
                let m = m.unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                let v = m.get("value").and_then(Json::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{workload}: {name} = {v:?}");
            }

            let row = metric_row(&doc, &cfg);
            if cfg.trace == TraceMode::Off {
                want.push((FAIL_RATE.0.into(), FAIL_RATE.1.into()));
                assert_eq!(row.last().map(|r| r.1), Some(0.0), "{workload}: fail_rate");
            }
            let printed: Vec<(String, String)> =
                row.iter().map(|&(m, _, u)| (m.into(), u.into())).collect();
            assert_eq!(printed, want, "{workload}: {section} table row");
        }
    }

    #[test]
    fn fifo_event_smoke() {
        smoke("fifo_event");
    }

    #[test]
    fn fifo_compiled_smoke() {
        smoke("fifo_compiled");
    }

    #[test]
    fn chains_smoke() {
        smoke("chains");
    }

    #[test]
    fn verify_static_smoke() {
        smoke("verify_static");
    }
}
