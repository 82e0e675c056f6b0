//! The end-of-run manifest: a deterministic, diff-stable JSON summary of
//! everything the recorder observed, written next to the report.
//!
//! The schema (`tfb-obs/v1`):
//!
//! ```json
//! {
//!   "schema": "tfb-obs/v1",
//!   "meta": {"config_hash": "…", "git_rev": "…", "seed": "0"},
//!   "cores": 4,
//!   "wall_ns": 123456789,
//!   "peak_rss_bytes": 104857600,
//!   "events_path": "run.events.jsonl",
//!   "phases": [
//!     {"path": "job.train", "dataset": "ILI", "method": "LR",
//!      "count": 1, "total_ns": 5210, "min_ns": 5210, "max_ns": 5210}
//!   ],
//!   "counters": {"gemm/calls": 42},
//!   "gauges": {"engine/threads": 8},
//!   "histograms": {
//!     "nn/epoch_val_loss": {"count": 3, "mean": 0.5, "min": 0.1,
//!                            "max": 1.0, "p50": 0.4, "p90": 1.0, "p99": 1.0}
//!   },
//!   "metrics": [
//!     {"dataset": "ILI", "method": "LR", "horizon": 24, "name": "mae",
//!      "value": 0.41}
//!   ],
//!   "health": {
//!     "nan_cells": [], "diverged_cells": [], "aborted_cells": [],
//!     "grad_norms": {"NLinear": {"count": 3, "mean": 0.5, "min": 0.1,
//!                                 "max": 1.0, "p50": 0.4, "p90": 1.0,
//!                                 "p99": 1.0}}
//!   }
//! }
//! ```
//!
//! `metrics` carries the per-cell accuracy values the report layer
//! computed (MAE, MSE, …), so cross-run tooling can gate on correctness
//! drift, not just wall time. `health` summarizes the numerical-health
//! probes: cells whose training hit a non-finite loss (`nan_cells`),
//! cells aborted by the divergence detector (`diverged_cells`), their
//! union (`aborted_cells`), and per-method gradient-norm histograms.
//!
//! Phases are sorted by `(path, dataset, method)`; counters, gauges and
//! histograms by name; metrics by `(dataset, method, horizon, name)` —
//! so two runs with the same observations serialize byte-identically
//! regardless of thread interleaving.

use std::path::Path;

/// Aggregated timing of one `(span path, dataset, method)` cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// Dot-joined span nesting path, e.g. `job.train`.
    pub path: String,
    /// Dataset field ("" when the span carried none).
    pub dataset: String,
    /// Method field ("" when the span carried none).
    pub method: String,
    /// How many spans closed under this key.
    pub count: u64,
    /// Summed wall time.
    pub total_ns: u64,
    /// Fastest single span.
    pub min_ns: u64,
    /// Slowest single span.
    pub max_ns: u64,
}

/// Percentile summary of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSummary {
    /// Histogram name.
    pub name: String,
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 90th percentile (nearest-rank).
    pub p90: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
}

/// One per-cell accuracy metric value (MAE, MSE, …) reported into the
/// manifest so cross-run tooling can gate on correctness drift.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Dataset name.
    pub dataset: String,
    /// Method name.
    pub method: String,
    /// Forecast horizon of the cell.
    pub horizon: usize,
    /// Metric label (`mae`, `mse`, …).
    pub name: String,
    /// Averaged value over the cell's evaluation windows.
    pub value: f64,
}

/// One captured benchmark measurement: the KLV-style record the suite
/// harness (`tfb bench run`) emits per (cell, quantity). Aggregates are
/// taken over `iters` repeated samples of the same cell; `min` is the
/// noise-robust estimate of the true cost (see the gate's noise model in
/// [`crate::history`]), and the provenance fields (`suite`, `engine`,
/// `dataset`, `method`, `characteristic`, `horizon`) let `tfb bench rank`
/// regenerate per-characteristic method rankings from recorded history
/// alone.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementRow {
    /// Full cell id, e.g. `eval/etth1/LR-h24`.
    pub name: String,
    /// What was measured: `wall`, `infer`, `mase`, `throughput`, ….
    pub quantity: String,
    /// Unit of the aggregates (`ns`, `us/window`, `req/s`, "" for
    /// dimensionless accuracy scores).
    pub unit: String,
    /// How many repeated samples the aggregates summarize.
    pub iters: u64,
    /// Smallest sample.
    pub min: f64,
    /// Median sample.
    pub median: f64,
    /// Mean over samples.
    pub mean: f64,
    /// Population standard deviation over samples.
    pub stddev: f64,
    /// Suite the cell came from, e.g. `eval/etth1`.
    pub suite: String,
    /// Engine that executed the cell (`eval`, `math`, `serve`).
    pub engine: String,
    /// Dataset profile ("" for non-eval engines).
    pub dataset: String,
    /// Method under measurement ("" for non-eval engines).
    pub method: String,
    /// Dominant dataset characteristic the cell is tagged with ("" when
    /// untagged) — the ranking axis of the paper's Tables 6/7.
    pub characteristic: String,
    /// Forecast horizon (0 for non-eval engines).
    pub horizon: u64,
}

/// What a numerical-health probe observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthKind {
    /// A non-finite (NaN/Inf) loss or forecast value.
    Nan,
    /// The divergence detector tripped (loss ≫ rolling best).
    Diverged,
}

impl HealthKind {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            HealthKind::Nan => "nan",
            HealthKind::Diverged => "diverged",
        }
    }
}

/// The manifest's `health` section: what the numerical-health probes
/// caught during the run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthSummary {
    /// `dataset/method` cells that hit a non-finite loss or forecast.
    pub nan_cells: Vec<String>,
    /// Cells aborted by the divergence detector.
    pub diverged_cells: Vec<String>,
    /// Union of the above: every cell a probe aborted or flagged.
    pub aborted_cells: Vec<String>,
    /// Per-method gradient-norm histograms, sorted by method.
    pub grad_norms: Vec<(String, HistSummary)>,
}

impl HealthSummary {
    /// True when no probe fired during the run.
    pub fn is_clean(&self) -> bool {
        self.nan_cells.is_empty() && self.diverged_cells.is_empty() && self.aborted_cells.is_empty()
    }
}

/// The manifest's `slo` section: how the serve session tracked against
/// its latency objective (see [`crate::trace`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SloSummary {
    /// Latency threshold a request must beat to count as good.
    pub threshold_ms: f64,
    /// Availability objective (e.g. `0.99` = 1% error budget).
    pub objective: f64,
    /// Requests scored.
    pub total: u64,
    /// Requests over the threshold.
    pub breaches: u64,
    /// Burn rate over the short (~1 minute) rolling window.
    pub burn_rate_1m: f64,
    /// Burn rate over the long (~5 minute) rolling window.
    pub burn_rate_5m: f64,
}

/// One slow-request exemplar: the trace id of a worst-N request plus its
/// phase breakdown, so a tail-latency regression names the requests that
/// caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceExemplar {
    /// 16-hex-digit trace id (matches the `X-Tfb-Trace-Id` header).
    pub trace_id: String,
    /// End-to-end latency.
    pub total_ns: u64,
    /// Rows in the batch the request rode in (0 when it never reached
    /// a batch).
    pub batch_size: u64,
    /// `(phase label, ns)` in causal order; only phases that ran.
    pub phases: Vec<(String, u64)>,
}

/// The manifest's `flight` section: whether the black-box flight
/// recorder was armed and how many postmortem bundles it wrote (see
/// [`crate::flight`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightSummary {
    /// Whether the recorder was armed when the run finished.
    pub armed: bool,
    /// Postmortem bundles written.
    pub dumps: u64,
    /// Dump requests suppressed by the rate limiter.
    pub suppressed: u64,
    /// Reason string of the most recent dump ("" when none).
    pub last_reason: String,
}

/// One rolling forecast-quality window: the paper's accuracy metrics for
/// one `(model, label)` pair, scored online from `/v1/observe` joins (see
/// [`crate::quality`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QualityScore {
    /// Model name in the registry.
    pub model: String,
    /// Serving label (`prod`, `canary`, …).
    pub label: String,
    /// Forecast/actual joins scored into the window.
    pub joins: u64,
    /// Rolling-window mean absolute error.
    pub mae: f64,
    /// Rolling-window mean squared error.
    pub mse: f64,
    /// Rolling-window symmetric MAPE, in percent.
    pub smape: f64,
    /// Drift-detector trips attributed to this pair.
    pub drift_trips: u64,
}

/// One drift-detector trip: which detector fired, for which model/label,
/// on which series, and at which join.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QualityDriftTrip {
    /// Model name.
    pub model: String,
    /// Serving label.
    pub label: String,
    /// Detector that fired (`page-hinkley` or `mean-shift`).
    pub detector: String,
    /// Series id of the join that tripped the detector.
    pub series: String,
    /// Join count for the pair when the detector fired.
    pub at_join: u64,
    /// The detector statistic at the trip (PH statistic or z-score).
    pub value: f64,
}

/// The quality-SLO reading: how the session tracked against its sMAPE
/// objective, burn-rate windows included (mirrors [`SloSummary`]).
#[derive(Debug, Clone, PartialEq)]
pub struct QualitySloSummary {
    /// sMAPE threshold (percent) a join must beat to count as good.
    pub threshold_smape: f64,
    /// Availability objective (e.g. `0.99` = 1% error budget).
    pub objective: f64,
    /// Joins scored.
    pub total: u64,
    /// Joins over the threshold.
    pub breaches: u64,
    /// Burn rate over the short (~1 minute) rolling window.
    pub burn_rate_1m: f64,
    /// Burn rate over the long (~5 minute) rolling window.
    pub burn_rate_5m: f64,
}

/// The manifest's `quality` section: rolling per-(model, label) accuracy
/// scorecards, drift-detector trips and the quality-SLO reading. Present
/// only for runs that scored forecast/actual joins.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QualitySummary {
    /// One row per `(model, label)` pair, sorted.
    pub scores: Vec<QualityScore>,
    /// Drift-detector trips in firing order.
    pub trips: Vec<QualityDriftTrip>,
    /// Quality-SLO reading; `None` when no quality SLO was configured.
    pub slo: Option<QualitySloSummary>,
}

/// The end-of-run manifest returned by [`finish_run`](crate::finish_run).
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// Caller-supplied provenance (config hash, git rev, seed, …).
    pub meta: Vec<(String, String)>,
    /// Available hardware parallelism when the run finished (0 for a
    /// parsed manifest that does not record it).
    pub cores: usize,
    /// Wall time from `start_run` to `finish_run`.
    pub wall_ns: u64,
    /// Peak RSS at finish, when the platform exposes it.
    pub peak_rss_bytes: Option<u64>,
    /// Where the JSONL event log went, when a sink was installed.
    pub events_path: Option<String>,
    /// Sorted per-(path, dataset, method) timing rows.
    pub phases: Vec<PhaseRow>,
    /// Sorted counter totals.
    pub counters: Vec<(String, u64)>,
    /// Sorted gauge last-values.
    pub gauges: Vec<(String, f64)>,
    /// Sorted histogram summaries.
    pub histograms: Vec<HistSummary>,
    /// Sorted per-cell accuracy metrics.
    pub metrics: Vec<MetricRow>,
    /// Captured benchmark measurements, sorted by `(name, quantity)`;
    /// present only for suite-harness runs. Empty ⇒ the section is
    /// omitted, so pre-harness manifests round-trip byte-identically.
    pub measurements: Vec<MeasurementRow>,
    /// SLO tracking summary; present only for runs that traced
    /// requests (serve sessions). Absent ⇒ the section is omitted, so
    /// pre-trace manifests still round-trip byte-identically.
    pub slo: Option<SloSummary>,
    /// Worst-N slow-request exemplars, slowest first; serialized only
    /// when `slo` is present.
    pub exemplars: Vec<TraceExemplar>,
    /// Flight-recorder summary; present only for runs that armed the
    /// recorder (or dumped a bundle). Absent ⇒ the section is omitted,
    /// so pre-flight manifests still round-trip byte-identically.
    pub flight: Option<FlightSummary>,
    /// Forecast-quality summary; present only for runs that scored
    /// forecast/actual joins. Absent ⇒ the section is omitted, so
    /// pre-quality manifests still round-trip byte-identically.
    pub quality: Option<QualitySummary>,
    /// Numerical-health summary.
    pub health: HealthSummary,
}

impl Manifest {
    /// Value of one `meta` key, when present.
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The distinct span path leaves (last path segment) present — the
    /// "phases covered" set a smoke test asserts on.
    pub fn phase_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .phases
            .iter()
            .map(|p| p.path.rsplit('.').next().unwrap_or(&p.path).to_string())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Pretty JSON (two-space indent), schema `tfb-obs/v1`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"schema\": \"tfb-obs/v1\",\n  \"meta\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json_str(&mut out, k);
            out.push_str(": ");
            json_str(&mut out, v);
        }
        if !self.meta.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n");
        out.push_str(&format!("  \"cores\": {},\n", self.cores));
        out.push_str(&format!("  \"wall_ns\": {},\n", self.wall_ns));
        match self.peak_rss_bytes {
            Some(b) => out.push_str(&format!("  \"peak_rss_bytes\": {b},\n")),
            None => out.push_str("  \"peak_rss_bytes\": null,\n"),
        }
        match &self.events_path {
            Some(p) => {
                out.push_str("  \"events_path\": ");
                json_str(&mut out, p);
                out.push_str(",\n");
            }
            None => out.push_str("  \"events_path\": null,\n"),
        }
        out.push_str("  \"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"path\": ");
            json_str(&mut out, &p.path);
            out.push_str(", \"dataset\": ");
            json_str(&mut out, &p.dataset);
            out.push_str(", \"method\": ");
            json_str(&mut out, &p.method);
            out.push_str(&format!(
                ", \"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
                p.count, p.total_ns, p.min_ns, p.max_ns
            ));
        }
        if !self.phases.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json_str(&mut out, k);
            out.push_str(&format!(": {v}"));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n");
        out.push_str("  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json_str(&mut out, k);
            out.push_str(": ");
            json_num(&mut out, *v);
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n");
        out.push_str("  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json_str(&mut out, &h.name);
            out.push_str(": ");
            json_hist(&mut out, h);
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n");
        out.push_str("  \"metrics\": [");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"dataset\": ");
            json_str(&mut out, &m.dataset);
            out.push_str(", \"method\": ");
            json_str(&mut out, &m.method);
            out.push_str(&format!(", \"horizon\": {}, \"name\": ", m.horizon));
            json_str(&mut out, &m.name);
            out.push_str(", \"value\": ");
            json_num(&mut out, m.value);
            out.push('}');
        }
        if !self.metrics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        if !self.measurements.is_empty() {
            out.push_str("  \"measurements\": [");
            for (i, r) in self.measurements.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\n    {\"name\": ");
                json_str(&mut out, &r.name);
                out.push_str(", \"quantity\": ");
                json_str(&mut out, &r.quantity);
                out.push_str(", \"unit\": ");
                json_str(&mut out, &r.unit);
                out.push_str(&format!(", \"iters\": {}, \"min\": ", r.iters));
                json_num(&mut out, r.min);
                out.push_str(", \"median\": ");
                json_num(&mut out, r.median);
                out.push_str(", \"mean\": ");
                json_num(&mut out, r.mean);
                out.push_str(", \"stddev\": ");
                json_num(&mut out, r.stddev);
                out.push_str(", \"suite\": ");
                json_str(&mut out, &r.suite);
                out.push_str(", \"engine\": ");
                json_str(&mut out, &r.engine);
                out.push_str(", \"dataset\": ");
                json_str(&mut out, &r.dataset);
                out.push_str(", \"method\": ");
                json_str(&mut out, &r.method);
                out.push_str(", \"characteristic\": ");
                json_str(&mut out, &r.characteristic);
                out.push_str(&format!(", \"horizon\": {}}}", r.horizon));
            }
            out.push_str("\n  ],\n");
        }
        if let Some(slo) = &self.slo {
            out.push_str("  \"slo\": {\"threshold_ms\": ");
            json_num(&mut out, slo.threshold_ms);
            out.push_str(", \"objective\": ");
            json_num(&mut out, slo.objective);
            out.push_str(&format!(
                ", \"total\": {}, \"breaches\": {}, \"burn_rate_1m\": ",
                slo.total, slo.breaches
            ));
            json_num(&mut out, slo.burn_rate_1m);
            out.push_str(", \"burn_rate_5m\": ");
            json_num(&mut out, slo.burn_rate_5m);
            out.push_str("},\n");
            out.push_str("  \"exemplars\": [");
            for (i, e) in self.exemplars.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\n    {\"trace_id\": ");
                json_str(&mut out, &e.trace_id);
                out.push_str(&format!(
                    ", \"total_ns\": {}, \"batch_size\": {}, \"phases\": {{",
                    e.total_ns, e.batch_size
                ));
                for (j, (phase, ns)) in e.phases.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    json_str(&mut out, phase);
                    out.push_str(&format!(": {ns}"));
                }
                out.push_str("}}");
            }
            if !self.exemplars.is_empty() {
                out.push_str("\n  ");
            }
            out.push_str("],\n");
        }
        if let Some(f) = &self.flight {
            out.push_str(&format!(
                "  \"flight\": {{\"armed\": {}, \"dumps\": {}, \"suppressed\": {}, \"last_reason\": ",
                f.armed, f.dumps, f.suppressed
            ));
            json_str(&mut out, &f.last_reason);
            out.push_str("},\n");
        }
        if let Some(q) = &self.quality {
            out.push_str("  \"quality\": {\n    \"scores\": [");
            for (i, s) in q.scores.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\n      {\"model\": ");
                json_str(&mut out, &s.model);
                out.push_str(", \"label\": ");
                json_str(&mut out, &s.label);
                out.push_str(&format!(", \"joins\": {}, \"mae\": ", s.joins));
                json_num(&mut out, s.mae);
                out.push_str(", \"mse\": ");
                json_num(&mut out, s.mse);
                out.push_str(", \"smape\": ");
                json_num(&mut out, s.smape);
                out.push_str(&format!(", \"drift_trips\": {}}}", s.drift_trips));
            }
            if !q.scores.is_empty() {
                out.push_str("\n    ");
            }
            out.push_str("],\n    \"trips\": [");
            for (i, t) in q.trips.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\n      {\"model\": ");
                json_str(&mut out, &t.model);
                out.push_str(", \"label\": ");
                json_str(&mut out, &t.label);
                out.push_str(", \"detector\": ");
                json_str(&mut out, &t.detector);
                out.push_str(", \"series\": ");
                json_str(&mut out, &t.series);
                out.push_str(&format!(", \"at_join\": {}, \"value\": ", t.at_join));
                json_num(&mut out, t.value);
                out.push('}');
            }
            if !q.trips.is_empty() {
                out.push_str("\n    ");
            }
            out.push_str("],\n    \"slo\": ");
            match &q.slo {
                Some(s) => {
                    out.push_str("{\"threshold_smape\": ");
                    json_num(&mut out, s.threshold_smape);
                    out.push_str(", \"objective\": ");
                    json_num(&mut out, s.objective);
                    out.push_str(&format!(
                        ", \"total\": {}, \"breaches\": {}, \"burn_rate_1m\": ",
                        s.total, s.breaches
                    ));
                    json_num(&mut out, s.burn_rate_1m);
                    out.push_str(", \"burn_rate_5m\": ");
                    json_num(&mut out, s.burn_rate_5m);
                    out.push('}');
                }
                None => out.push_str("null"),
            }
            out.push_str("\n  },\n");
        }
        out.push_str("  \"health\": {\n");
        let cell_list = |out: &mut String, key: &str, cells: &[String]| {
            out.push_str(&format!("    \"{key}\": ["));
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                json_str(out, c);
            }
            out.push(']');
        };
        cell_list(&mut out, "nan_cells", &self.health.nan_cells);
        out.push_str(",\n");
        cell_list(&mut out, "diverged_cells", &self.health.diverged_cells);
        out.push_str(",\n");
        cell_list(&mut out, "aborted_cells", &self.health.aborted_cells);
        out.push_str(",\n    \"grad_norms\": {");
        for (i, (method, h)) in self.health.grad_norms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n      ");
            json_str(&mut out, method);
            out.push_str(": ");
            json_hist(&mut out, h);
        }
        if !self.health.grad_norms.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("}\n  }\n}\n");
        out
    }

    /// Writes the JSON form to `path`, creating parent directories.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }
}

/// A point-in-time view of the live counter/gauge/histogram registries,
/// taken without finishing the run. This is what a serving process dumps
/// from `GET /metrics` while it keeps handling traffic.
///
/// Entries are sorted by name so the rendering is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Sorted counter totals.
    pub counters: Vec<(String, u64)>,
    /// Sorted gauge last-values.
    pub gauges: Vec<(String, f64)>,
    /// Sorted histogram summaries.
    pub histograms: Vec<HistSummary>,
}

impl MetricsSnapshot {
    /// Pretty JSON (two-space indent), schema `tfb-obs-metrics/v1`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\n  \"schema\": \"tfb-obs-metrics/v1\",\n");
        out.push_str("  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json_str(&mut out, k);
            out.push_str(&format!(": {v}"));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n");
        out.push_str("  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json_str(&mut out, k);
            out.push_str(": ");
            json_num(&mut out, *v);
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n");
        out.push_str("  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json_str(&mut out, &h.name);
            out.push_str(": ");
            json_hist(&mut out, h);
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `q`% of the mass at or below it. Empty input
/// yields NaN.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Escapes `s` as a JSON string into `out`.
pub(crate) fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes one histogram summary object.
pub(crate) fn json_hist(out: &mut String, h: &HistSummary) {
    out.push_str(&format!("{{\"count\": {}, \"mean\": ", h.count));
    json_num(out, h.mean);
    out.push_str(", \"min\": ");
    json_num(out, h.min);
    out.push_str(", \"max\": ");
    json_num(out, h.max);
    out.push_str(", \"p50\": ");
    json_num(out, h.p50);
    out.push_str(", \"p90\": ");
    json_num(out, h.p90);
    out.push_str(", \"p99\": ");
    json_num(out, h.p99);
    out.push('}');
}

/// Writes an f64 as JSON (`null` for non-finite values).
pub(crate) fn json_num(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_inputs() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.5], 50.0), 7.5);
        assert!(percentile(&[], 50.0).is_nan());
        // Five elements: p50 is the 3rd (nearest rank ceil(2.5) = 3).
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 50.0), 3.0);
    }

    #[test]
    fn manifest_json_is_valid_and_diff_stable() {
        let m = Manifest {
            meta: vec![("config_hash".into(), "abc".into())],
            cores: 2,
            wall_ns: 10,
            peak_rss_bytes: Some(4096),
            events_path: None,
            phases: vec![PhaseRow {
                path: "job.train".into(),
                dataset: "ILI".into(),
                method: "LR \"q\"".into(),
                count: 1,
                total_ns: 5,
                min_ns: 5,
                max_ns: 5,
            }],
            counters: vec![("gemm/calls".into(), 3)],
            gauges: vec![("threads".into(), 2.0)],
            histograms: vec![HistSummary {
                name: "loss".into(),
                count: 1,
                mean: 0.5,
                min: 0.5,
                max: 0.5,
                p50: 0.5,
                p90: 0.5,
                p99: 0.5,
            }],
            metrics: vec![MetricRow {
                dataset: "ILI".into(),
                method: "LR".into(),
                horizon: 24,
                name: "mae".into(),
                value: 0.41,
            }],
            measurements: vec![],
            slo: None,
            exemplars: vec![],
            flight: None,
            quality: None,
            health: HealthSummary {
                nan_cells: vec!["ILI/MLP".into()],
                diverged_cells: vec![],
                aborted_cells: vec!["ILI/MLP".into()],
                grad_norms: vec![(
                    "MLP".into(),
                    HistSummary {
                        name: "MLP".into(),
                        count: 2,
                        mean: 1.0,
                        min: 0.5,
                        max: 1.5,
                        p50: 0.5,
                        p90: 1.5,
                        p99: 1.5,
                    },
                )],
            },
        };
        let a = m.to_json();
        assert_eq!(a, m.to_json());
        assert!(a.contains("\"schema\": \"tfb-obs/v1\""));
        assert!(a.contains("\\\"q\\\""), "{a}");
        assert!(a.contains("\"metrics\": ["), "{a}");
        assert!(a.contains("\"name\": \"mae\", \"value\": 0.41"), "{a}");
        assert!(a.contains("\"nan_cells\": [\"ILI/MLP\"]"), "{a}");
        assert!(a.contains("\"grad_norms\": {"), "{a}");
        assert_eq!(m.phase_names(), vec!["train".to_string()]);
        assert_eq!(m.meta_value("config_hash"), Some("abc"));
        assert_eq!(m.meta_value("missing"), None);
    }

    #[test]
    fn slo_and_exemplars_serialize_only_when_present() {
        let mut m = Manifest::default();
        let without = m.to_json();
        assert!(!without.contains("\"slo\""), "{without}");
        assert!(!without.contains("\"exemplars\""), "{without}");
        m.slo = Some(SloSummary {
            threshold_ms: 50.0,
            objective: 0.99,
            total: 120,
            breaches: 3,
            burn_rate_1m: 2.5,
            burn_rate_5m: 0.5,
        });
        m.exemplars = vec![TraceExemplar {
            trace_id: "00ab00ab00ab00ab".into(),
            total_ns: 61_000_000,
            batch_size: 4,
            phases: vec![("queue".into(), 1_000), ("infer".into(), 60_999_000)],
        }];
        let with = m.to_json();
        assert!(
            with.contains("\"slo\": {\"threshold_ms\": 50, \"objective\": 0.99"),
            "{with}"
        );
        assert!(with.contains("\"total\": 120, \"breaches\": 3"), "{with}");
        assert!(
            with.contains("\"trace_id\": \"00ab00ab00ab00ab\""),
            "{with}"
        );
        assert!(
            with.contains("\"phases\": {\"queue\": 1000, \"infer\": 60999000}"),
            "{with}"
        );
        // The section sits between metrics and health.
        let slo_at = with.find("\"slo\"").unwrap();
        assert!(with.find("\"metrics\"").unwrap() < slo_at);
        assert!(slo_at < with.find("\"health\"").unwrap());
    }

    #[test]
    fn measurements_serialize_only_when_present() {
        let mut m = Manifest::default();
        let without = m.to_json();
        assert!(!without.contains("\"measurements\""), "{without}");
        m.measurements = vec![MeasurementRow {
            name: "eval/etth1/LR-h24".into(),
            quantity: "wall".into(),
            unit: "ns".into(),
            iters: 3,
            min: 1000.0,
            median: 1100.0,
            mean: 1150.0,
            stddev: 80.5,
            suite: "eval/etth1".into(),
            engine: "eval".into(),
            dataset: "ETTh1".into(),
            method: "LR".into(),
            characteristic: "trend".into(),
            horizon: 24,
        }];
        let with = m.to_json();
        assert!(
            with.contains("\"name\": \"eval/etth1/LR-h24\", \"quantity\": \"wall\""),
            "{with}"
        );
        assert!(
            with.contains("\"characteristic\": \"trend\", \"horizon\": 24"),
            "{with}"
        );
        // The section sits between metrics and health.
        let at = with.find("\"measurements\"").unwrap();
        assert!(with.find("\"metrics\"").unwrap() < at);
        assert!(at < with.find("\"health\"").unwrap());
    }

    #[test]
    fn quality_serializes_only_when_present() {
        let mut m = Manifest::default();
        let without = m.to_json();
        assert!(!without.contains("\"quality\""), "{without}");
        m.quality = Some(QualitySummary {
            scores: vec![QualityScore {
                model: "alpha".into(),
                label: "prod".into(),
                joins: 12,
                mae: 0.5,
                mse: 0.4,
                smape: 11.25,
                drift_trips: 1,
            }],
            trips: vec![QualityDriftTrip {
                model: "alpha".into(),
                label: "prod".into(),
                detector: "page-hinkley".into(),
                series: "s7".into(),
                at_join: 9,
                value: 151.5,
            }],
            slo: Some(QualitySloSummary {
                threshold_smape: 30.0,
                objective: 0.99,
                total: 12,
                breaches: 2,
                burn_rate_1m: 16.7,
                burn_rate_5m: 16.7,
            }),
        });
        let with = m.to_json();
        assert!(
            with.contains("{\"model\": \"alpha\", \"label\": \"prod\", \"joins\": 12"),
            "{with}"
        );
        assert!(
            with.contains("\"detector\": \"page-hinkley\", \"series\": \"s7\", \"at_join\": 9"),
            "{with}"
        );
        assert!(with.contains("\"threshold_smape\": 30"), "{with}");
        // The section sits between metrics and health (after flight when
        // both are present).
        let at = with.find("\"quality\"").unwrap();
        assert!(with.find("\"metrics\"").unwrap() < at);
        assert!(at < with.find("\"health\"").unwrap());
        // A summary with no SLO serializes `"slo": null`.
        m.quality.as_mut().unwrap().slo = None;
        assert!(m.to_json().contains("\"slo\": null"), "{}", m.to_json());
    }

    #[test]
    fn empty_manifest_serializes() {
        let m = Manifest::default();
        let json = m.to_json();
        assert!(json.contains("\"phases\": []"));
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"peak_rss_bytes\": null"));
        assert!(json.contains("\"metrics\": []"));
        assert!(json.contains("\"nan_cells\": []"));
        assert!(m.health.is_clean());
    }
}
