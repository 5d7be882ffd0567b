//! Structured experiment output and the run policy of every experiment
//! binary.
//!
//! [`Run`] decides, once for every binary, what a run prints and how it
//! exits; [`ExperimentReport`] is what it emits in `--json` mode.
//!
//! One schema covers every experiment: a report is a list of
//! per-design entries (registry name, paper label, [`FifoParams`], and a
//! flat list of named measurements), optionally followed by the event
//! kernel's counters ([`SimStats`]) from a representative run and
//! experiment-specific notes. [`ExperimentReport::from_json`] inverts
//! [`ExperimentReport::to_json`], which is what the schema smoke test in
//! `tests/json_roundtrip.rs` exercises end to end.

use std::fmt::Display;

use mtf_core::FifoParams;
use mtf_sim::{KindCount, SimStats};

use crate::args::Args;
use crate::json::Json;

/// The schema tag stamped into every report.
pub const SCHEMA: &str = "mtf-bench-report-v1";

/// Measurements for one design at one parameter point.
#[derive(Clone, Debug, PartialEq)]
pub struct DesignEntry {
    /// Registry name (`DesignKind::name`), e.g. `"mixed_clock"`.
    pub design: String,
    /// Paper row label (`DesignKind::label`), e.g. `"Mixed-Clock"`.
    pub label: String,
    /// Parameters of this entry.
    pub params: FifoParams,
    /// Named measurement values, in emission order (e.g.
    /// `("put_mhz", 145.2)`).
    pub measurements: Vec<(String, f64)>,
}

impl DesignEntry {
    /// An entry for `design`/`params` with no measurements yet.
    pub fn new(design: &dyn mtf_core::MixedTimingDesign, params: FifoParams) -> Self {
        DesignEntry {
            design: design.kind().name().to_string(),
            label: design.kind().label().to_string(),
            params,
            measurements: Vec::new(),
        }
    }

    /// Appends a measurement and returns `self` (builder style).
    pub fn with(mut self, name: &str, value: f64) -> Self {
        self.measurements.push((name.to_string(), value));
        self
    }
}

/// One experiment binary's structured output.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ExperimentReport {
    /// Which experiment produced this (`"table1"`, `"fig3"`, …).
    pub experiment: String,
    /// Per-design measurement entries.
    pub entries: Vec<DesignEntry>,
    /// Event-kernel counters from a representative run, if one was taken.
    pub kernel: Option<SimStats>,
    /// Evaluations per component kind in that run, if they were counted
    /// ([`Simulator::enable_kind_counts`](mtf_sim::Simulator::enable_kind_counts));
    /// the `kernel` block's optional `by_kind` object.
    pub by_kind: Vec<KindCount>,
    /// Experiment-specific extras (artifact paths, check counts, …).
    pub notes: Vec<(String, Json)>,
}

impl ExperimentReport {
    /// An empty report for `experiment`.
    pub fn new(experiment: &str) -> Self {
        ExperimentReport {
            experiment: experiment.to_string(),
            ..Default::default()
        }
    }

    /// Appends a note.
    pub fn note(&mut self, name: &str, value: Json) {
        self.notes.push((name.to_string(), value));
    }

    /// Serializes to the `mtf-bench-report-v1` JSON tree.
    pub fn to_json(&self) -> Json {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                Json::obj([
                    ("design", Json::str(&e.design)),
                    ("label", Json::str(&e.label)),
                    (
                        "params",
                        Json::obj([
                            ("capacity", Json::Num(e.params.capacity as f64)),
                            ("width", Json::Num(e.params.width as f64)),
                            ("sync_stages", Json::Num(e.params.sync_stages as f64)),
                        ]),
                    ),
                    (
                        "measurements",
                        Json::Obj(
                            e.measurements
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let mut pairs = vec![
            ("schema".to_string(), Json::str(SCHEMA)),
            ("experiment".to_string(), Json::str(&self.experiment)),
            ("designs".to_string(), Json::Arr(entries)),
        ];
        if let Some(k) = &self.kernel {
            let mut fields = vec![
                ("events_processed", Json::Num(k.events_processed as f64)),
                ("peak_queue_depth", Json::Num(k.peak_queue_depth as f64)),
                ("coalesced_wakes", Json::Num(k.coalesced_wakes as f64)),
                ("delta_pushes", Json::Num(k.delta_pushes as f64)),
                ("peak_delta_depth", Json::Num(k.peak_delta_depth as f64)),
                ("wheel_cascades", Json::Num(k.wheel_cascades as f64)),
                ("overflow_events", Json::Num(k.overflow_events as f64)),
                ("elided_drives", Json::Num(k.elided_drives as f64)),
                ("filtered_wakes", Json::Num(k.filtered_wakes as f64)),
                ("slept_wakes", Json::Num(k.slept_wakes as f64)),
                ("held_wakes", Json::Num(k.held_wakes as f64)),
                ("sampled_wakes", Json::Num(k.sampled_wakes as f64)),
            ];
            // Compiled-backend counters are zero on the default event
            // backend; omit them there so pre-existing golden reports
            // stay byte-identical.
            if k.compiled_edge_evals > 0 || k.compiled_gate_evals > 0 {
                fields.push((
                    "compiled_edge_evals",
                    Json::Num(k.compiled_edge_evals as f64),
                ));
                fields.push((
                    "compiled_gate_evals",
                    Json::Num(k.compiled_gate_evals as f64),
                ));
            }
            // Counted only on request; omitted otherwise, like the
            // compiled counters.
            if !self.by_kind.is_empty() {
                let kinds = self
                    .by_kind
                    .iter()
                    .map(|c| {
                        let counts = Json::obj([
                            ("evals", Json::Num(c.evals as f64)),
                            ("idle", Json::Num(c.idle as f64)),
                            ("edges", Json::Num(c.edges as f64)),
                            ("idle_edges", Json::Num(c.idle_edges as f64)),
                        ]);
                        (c.kind.clone(), counts)
                    })
                    .collect();
                fields.push(("by_kind", Json::Obj(kinds)));
            }
            pairs.push(("kernel".to_string(), Json::obj(fields)));
        }
        for (name, value) in &self.notes {
            pairs.push((name.clone(), value.clone()));
        }
        Json::Obj(pairs)
    }

    /// Parses a `mtf-bench-report-v1` tree back into a report.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema tag")?;
        if schema != SCHEMA {
            return Err(format!("unknown schema {schema:?}"));
        }
        let experiment = v
            .get("experiment")
            .and_then(Json::as_str)
            .ok_or("missing experiment name")?
            .to_string();
        let mut entries = Vec::new();
        for e in v
            .get("designs")
            .and_then(Json::as_array)
            .ok_or("missing designs array")?
        {
            let design = e
                .get("design")
                .and_then(Json::as_str)
                .ok_or("entry without design name")?
                .to_string();
            let label = e
                .get("label")
                .and_then(Json::as_str)
                .ok_or("entry without label")?
                .to_string();
            let p = e.get("params").ok_or("entry without params")?;
            let dim = |key: &str| -> Result<usize, String> {
                p.get(key)
                    .and_then(Json::as_f64)
                    .map(|x| x as usize)
                    .ok_or_else(|| format!("params without {key}"))
            };
            let params =
                FifoParams::with_sync_stages(dim("capacity")?, dim("width")?, dim("sync_stages")?);
            let measurements = match e.get("measurements") {
                Some(Json::Obj(pairs)) => pairs
                    .iter()
                    .map(|(k, v)| {
                        v.as_f64()
                            .map(|x| (k.clone(), x))
                            .ok_or_else(|| format!("non-numeric measurement {k}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                _ => return Err("entry without measurements".into()),
            };
            entries.push(DesignEntry {
                design,
                label,
                params,
                measurements,
            });
        }
        let by_kind = match v.get("kernel").and_then(|k| k.get("by_kind")) {
            None => Vec::new(),
            Some(Json::Obj(kinds)) => kinds
                .iter()
                .map(|(kind, c)| {
                    let n = |key: &str| {
                        c.get(key)
                            .and_then(Json::as_f64)
                            .map(|x| x as u64)
                            .ok_or_else(|| format!("by_kind {kind} without {key}"))
                    };
                    Ok(KindCount {
                        kind: kind.clone(),
                        evals: n("evals")?,
                        idle: n("idle")?,
                        edges: n("edges")?,
                        idle_edges: n("idle_edges")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            Some(_) => return Err("by_kind is not an object".into()),
        };
        let kernel = match v.get("kernel") {
            None => None,
            Some(k) => {
                let n = |key: &str| -> Result<f64, String> {
                    k.get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("kernel without {key}"))
                };
                // The compiled counters are optional: reports written on
                // the event backend (and all pre-backend reports) omit
                // them. So do reports from before drive elision,
                // rising-edge watches, quiescent-flop sleep,
                // controlling-input sleep and sampled data pins.
                let opt =
                    |key: &str| -> u64 { k.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64 };
                Some(SimStats {
                    events_processed: n("events_processed")? as u64,
                    peak_queue_depth: n("peak_queue_depth")? as usize,
                    coalesced_wakes: n("coalesced_wakes")? as u64,
                    delta_pushes: n("delta_pushes")? as u64,
                    peak_delta_depth: n("peak_delta_depth")? as usize,
                    wheel_cascades: n("wheel_cascades")? as u64,
                    overflow_events: n("overflow_events")? as u64,
                    compiled_edge_evals: opt("compiled_edge_evals"),
                    compiled_gate_evals: opt("compiled_gate_evals"),
                    elided_drives: opt("elided_drives"),
                    filtered_wakes: opt("filtered_wakes"),
                    slept_wakes: opt("slept_wakes"),
                    held_wakes: opt("held_wakes"),
                    sampled_wakes: opt("sampled_wakes"),
                })
            }
        };
        let notes = match v {
            Json::Obj(pairs) => pairs
                .iter()
                .filter(|(k, _)| {
                    !matches!(k.as_str(), "schema" | "experiment" | "designs" | "kernel")
                })
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            _ => Vec::new(),
        };
        Ok(ExperimentReport {
            experiment,
            entries,
            kernel,
            by_kind,
            notes,
        })
    }
}

/// One experiment binary's run: its command line, the text-or-`--json`
/// choice, the [`ExperimentReport`] it fills and the count of failed
/// checks. Every binary ends through it, so the exit status means the
/// same everywhere:
///
/// * 0 — every check passed;
/// * 1 — the run finished and at least one check failed ([`Run::fail`]);
///   the full report is still printed;
/// * 2 — the run could not happen: an undeclared flag or unusable value
///   ([`ArgError`](crate::args::ArgError)), or [`Run::abort`] (an
///   unbuildable point, a blown budget, an unwritable output).
#[derive(Debug)]
pub struct Run {
    args: Args,
    failures: usize,
    /// The report `--json` prints at [`Run::finish`]. Its `experiment`
    /// name also prefixes every stderr line the run writes.
    pub report: ExperimentReport,
}

impl Run {
    /// Parses the command line of `experiment`, whose binary reads the
    /// flags `flags`; any other `--` argument exits with status 2.
    pub fn start(experiment: &str, flags: &[&str]) -> Self {
        let args = Args::parse();
        args.check_flags(flags).unwrap_or_else(|e| e.exit());
        Run {
            args,
            failures: 0,
            report: ExperimentReport::new(experiment),
        }
    }

    /// The parsed command line.
    pub fn args(&self) -> &Args {
        &self.args
    }

    /// True unless `--json` was given: the binary prints its text report.
    pub fn text(&self) -> bool {
        !self.args.json()
    }

    /// Records a failed check as one `<experiment>: <what>` line on stderr.
    pub fn fail(&mut self, what: impl Display) {
        eprintln!("{}: {what}", self.report.experiment);
        self.failures += 1;
    }

    /// The number of failed checks so far.
    pub fn failures(&self) -> usize {
        self.failures
    }

    /// Ends a run that cannot happen: one `<experiment>: <what>` line on
    /// stderr and exit status 2.
    pub fn abort(&self, what: impl Display) -> ! {
        eprintln!("{}: {what}", self.report.experiment);
        std::process::exit(2)
    }

    /// Writes an output file; a file that cannot be written aborts the run.
    pub fn write(&self, path: &str, contents: impl AsRef<[u8]>) {
        if let Err(e) = std::fs::write(path, contents) {
            self.abort(format_args!("cannot write {path}: {e}"));
        }
    }

    /// Prints the report under `--json` as one compact JSON line, then
    /// exits with 0, or with 1 if any check failed.
    pub fn finish(self) -> ! {
        if self.args.json() {
            println!("{}", self.report.to_json().render());
        }
        std::process::exit(i32::from(self.failures > 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtf_core::design::MIXED_CLOCK;

    #[test]
    fn report_round_trips() {
        let mut r = ExperimentReport::new("unit");
        r.entries.push(
            DesignEntry::new(&MIXED_CLOCK, FifoParams::new(4, 8))
                .with("put_mhz", 150.25)
                .with("get_mhz", 120.0),
        );
        r.kernel = Some(SimStats {
            events_processed: 123_456,
            peak_queue_depth: 99,
            coalesced_wakes: 7,
            delta_pushes: 11,
            peak_delta_depth: 3,
            wheel_cascades: 2,
            overflow_events: 0,
            compiled_edge_evals: 0,
            compiled_gate_evals: 0,
            elided_drives: 5,
            filtered_wakes: 13,
            slept_wakes: 17,
            held_wakes: 19,
            sampled_wakes: 23,
        });
        r.by_kind = vec![KindCount {
            kind: "DFF".into(),
            evals: 29,
            idle: 23,
            edges: 5,
            idle_edges: 1,
        }];
        r.note("artifact", Json::str("out.vcd"));
        let text = r.to_json().render();
        let back = ExperimentReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }
}
