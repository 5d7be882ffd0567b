//! In-memory span recorder for the traced run.
//!
//! Spans are opened around the public calls a job makes into each library
//! layer, from this benchmark's own code; nothing inside the libraries is
//! instrumented. Every span records its name, the per-layer metric its
//! duration feeds, start and end, its parent and the job it belongs to.
//! Per-job counters (kernel events, explored states, …) are recorded next
//! to the spans, so each finished job yields one flat map of per-layer
//! values. At exit the spans can be written as Chrome trace-event JSON,
//! which Perfetto and `chrome://tracing` open.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use mtf_bench::json::Json;

/// The metric key of a job's root span.
const JOB: &str = "job";

#[derive(Debug)]
struct Span {
    name: &'static str,
    metric: &'static str,
    job: usize,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }

    /// The layer a span belongs to: its metric's prefix.
    fn layer(&self) -> &'static str {
        self.metric.split('.').next().unwrap_or(self.metric)
    }
}

/// Per-layer values of one job, keyed by metric name.
pub type JobMetrics = BTreeMap<&'static str, f64>;

/// The span recorder. A disabled tracer only runs the closures it is
/// handed, so a workload can share one code path between its traced and
/// untraced jobs.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: usize,
    job_first_span: usize,
    counts: JobMetrics,
    jobs: Vec<JobMetrics>,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
            job_first_span: 0,
            counts: JobMetrics::new(),
            jobs: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn open_span(&mut self, name: &'static str, metric: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            metric,
            job: self.job,
            parent: self.open.last().copied(),
            start_us: self.now_us(),
            end_us: f64::NAN,
        });
        self.open.push(id);
        id
    }

    fn close_span(&mut self, id: usize) {
        let now = self.now_us();
        // Closing a span also closes anything a panic left open inside it.
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name` whose duration adds to the
    /// time metric `metric`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        metric: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let id = self.open_span(name, metric);
        let out = f();
        self.close_span(id);
        out
    }

    /// Adds `v` to the current job's counter `metric`.
    pub fn add(&mut self, metric: &'static str, v: f64) {
        if self.on {
            *self.counts.entry(metric).or_default() += v;
        }
    }

    /// Raises the current job's counter `metric` to at least `v`.
    pub fn max(&mut self, metric: &'static str, v: f64) {
        if self.on {
            let e = self.counts.entry(metric).or_default();
            *e = e.max(v);
        }
    }

    /// Opens the root span of a new job.
    pub fn begin_job(&mut self, workload: &'static str) {
        self.job += 1;
        self.job_first_span = self.spans.len();
        self.counts.clear();
        self.open_span(workload, JOB);
    }

    /// Closes the current job and folds its spans and counters into one
    /// [`JobMetrics`]: span time per metric, `trace.job_ms` (the root
    /// span) and `trace.coverage_pct` (the share of the root span covered
    /// by its direct children), plus the per-event and per-state rates.
    pub fn end_job(&mut self) {
        let root = self.job_first_span;
        self.close_span(root);
        let mut m = std::mem::take(&mut self.counts);
        let mut covered = 0.0;
        for s in &self.spans[root + 1..] {
            *m.entry(s.metric).or_default() += s.ms();
            if s.parent == Some(root) {
                covered += s.ms();
            }
        }
        let job_ms = self.spans[root].ms();
        m.insert("trace.job_ms", job_ms);
        m.insert("trace.coverage_pct", 100.0 * covered / job_ms);
        let get = |m: &JobMetrics, k| m.get(k).copied().unwrap_or(0.0);
        if get(&m, "sim.events") > 0.0 {
            let v = get(&m, "sim.run_ms") * 1e6 / get(&m, "sim.events");
            m.insert("sim.ns_per_event", v);
        }
        if get(&m, "mc.ms") > 0.0 {
            let v = get(&m, "mc.states") / (get(&m, "mc.ms") / 1e3);
            m.insert("mc.states_per_s", v);
        }
        self.jobs.push(m);
    }

    /// The finished jobs' metrics, in job order.
    pub fn jobs(&self) -> &[JobMetrics] {
        &self.jobs
    }

    /// Per-layer time table: calls, total and self time (a span's
    /// duration minus the part its children cover), and self time as a
    /// share of all job wall time.
    pub fn self_time_table(&self) -> String {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut rows: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        let mut wall = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.metric == JOB {
                wall += s.ms();
            }
            let layer = if s.metric == JOB { "(job)" } else { s.layer() };
            let r = rows.entry(layer).or_default();
            r.0 += 1;
            r.1 += s.ms();
            r.2 += s.ms() - child_ms[i];
        }
        let mut out = format!(
            "{:<12} {:>7} {:>12} {:>12} {:>7}\n",
            "layer", "spans", "total ms", "self ms", "self %"
        );
        for (layer, (n, total, own)) in rows {
            let _ = writeln!(
                out,
                "{layer:<12} {n:>7} {total:>12.3} {own:>12.3} {:>7.2}",
                100.0 * own / wall.max(f64::MIN_POSITIVE)
            );
        }
        out
    }

    /// Every span as Chrome trace-event JSON (complete events, times in
    /// microseconds).
    pub fn chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(s.layer())),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(s.end_us - s.start_us)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj([
                            ("job", Json::Num(s.job as f64)),
                            ("metric", Json::str(s.metric)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}
