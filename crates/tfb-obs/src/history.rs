//! Cross-run observability: the append-only run-history store and the
//! diff / trend / gate analyses over it.
//!
//! A single run's manifest (`tfb-obs/v1`, see [`crate::manifest`]) answers
//! "what happened"; this module answers "what *changed*". The store is a
//! directory (`.tfb-history/` by default) of content-addressed manifest
//! blobs plus an `index.jsonl` of one line per recorded run:
//!
//! ```text
//! .tfb-history/
//!   index.jsonl                 # {"id": "…", "t_ms": …, "config_hash": …}
//!   manifests/<fnv1a-of-bytes>.json
//! ```
//!
//! Blobs are keyed by the FNV-1a hash of their exact bytes, so appending
//! the same manifest twice stores one blob but two index lines (a re-run
//! is a new observation of the same content). The index is append-only:
//! nothing in this module ever rewrites or truncates it.
//!
//! # The gate's noise model
//!
//! Wall-clock numbers from CI runners are noisy in exactly one direction:
//! interference makes runs *slower*, never faster. Following rebar's
//! lead, the gate therefore compares the candidate against the **minimum**
//! across K baseline runs for every resource measure (wall time, per-phase
//! totals, peak RSS, allocation counters) — the min is the best available
//! estimate of the true cost. Accuracy metrics (MAE, MSE, …) are
//! deterministic given a seed, so noise is re-run-to-re-run variation in
//! environment, not direction-biased; the gate uses the **median** across
//! baselines and a separate (much tighter) tolerance. Phases whose
//! baseline total is under a ~10µs noise floor are skipped entirely —
//! percentage deltas of near-zero timings are meaningless; a measurement
//! that reports time per call is floored on what one sample timed, its
//! per-call min times the calls the sample made. Health
//! regressions (NaN or diverged cells in the candidate) fail the gate
//! unconditionally: there is no tolerance for wrong.

use crate::manifest::{
    HealthSummary, HistSummary, Manifest, MeasurementRow, MetricRow, PhaseRow, SloSummary,
    TraceExemplar,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use tfb_json::JsonValue;

/// Phase totals below this are skipped by the gate: percentage deltas of
/// near-zero timings are pure noise.
pub const PHASE_NOISE_FLOOR_NS: u64 = 10_000;

/// A manifest parsed back from JSON, plus any forward-compat warnings
/// (unknown schema version, unrecognized fields) encountered on the way.
#[derive(Debug, Clone)]
pub struct ParsedManifest {
    /// The reconstructed manifest.
    pub manifest: Manifest,
    /// Human-readable warnings; empty for a clean `tfb-obs/v1` document.
    pub warnings: Vec<String>,
}

/// Parses a manifest JSON document (as written by [`Manifest::to_json`])
/// back into a [`Manifest`].
///
/// Schema-versioned: the `schema` field must start with `tfb-obs/`.
/// Anything newer than `v1` — a different version suffix, or top-level
/// fields this build does not know — parses best-effort with a warning
/// instead of an error, so a gate binary from yesterday can still read a
/// history written by tomorrow's recorder.
pub fn parse_manifest(text: &str) -> Result<ParsedManifest, String> {
    let root = JsonValue::parse(text).map_err(|e| format!("manifest is not valid JSON: {e}"))?;
    let mut warnings = Vec::new();
    let schema = root
        .get("schema")
        .and_then(|s| s.as_str())
        .ok_or("manifest has no \"schema\" field")?;
    if !schema.starts_with("tfb-obs/") {
        return Err(format!("unknown manifest schema {schema:?}"));
    }
    if schema != "tfb-obs/v1" {
        warnings.push(format!(
            "manifest schema is {schema:?} (this build understands tfb-obs/v1); parsing best-effort"
        ));
    }
    const KNOWN: [&str; 16] = [
        "schema",
        "meta",
        "cores",
        "wall_ns",
        "peak_rss_bytes",
        "events_path",
        "phases",
        "counters",
        "gauges",
        "histograms",
        "metrics",
        "measurements",
        "slo",
        "exemplars",
        "flight",
        "quality",
    ];
    for (key, _) in root.as_object().ok_or("manifest root is not an object")? {
        if !KNOWN.contains(&key.as_str()) && key != "health" {
            warnings.push(format!("ignoring unknown manifest field {key:?}"));
        }
    }
    let mut m = Manifest {
        cores: root.get("cores").and_then(|v| v.as_usize()).unwrap_or(0),
        wall_ns: get_u64(&root, "wall_ns").unwrap_or(0),
        peak_rss_bytes: match root.get("peak_rss_bytes") {
            Some(JsonValue::Null) | None => None,
            Some(v) => v.as_f64().map(|n| n as u64),
        },
        events_path: root
            .get("events_path")
            .and_then(|v| v.as_str())
            .map(str::to_string),
        ..Manifest::default()
    };
    if let Some(fields) = root.get("meta").and_then(|v| v.as_object()) {
        for (k, v) in fields {
            m.meta
                .push((k.clone(), v.as_str().unwrap_or_default().to_string()));
        }
    }
    if let Some(items) = root.get("phases").and_then(|v| v.as_array()) {
        for p in items {
            m.phases.push(PhaseRow {
                path: get_str(p, "path"),
                dataset: get_str(p, "dataset"),
                method: get_str(p, "method"),
                count: get_u64(p, "count").unwrap_or(0),
                total_ns: get_u64(p, "total_ns").unwrap_or(0),
                min_ns: get_u64(p, "min_ns").unwrap_or(0),
                max_ns: get_u64(p, "max_ns").unwrap_or(0),
            });
        }
    }
    if let Some(fields) = root.get("counters").and_then(|v| v.as_object()) {
        for (k, v) in fields {
            m.counters.push((k.clone(), get_u64(v, "").unwrap_or(0)));
        }
    }
    if let Some(fields) = root.get("gauges").and_then(|v| v.as_object()) {
        for (k, v) in fields {
            m.gauges.push((k.clone(), num_or_nan(v)));
        }
    }
    if let Some(fields) = root.get("histograms").and_then(|v| v.as_object()) {
        for (k, v) in fields {
            m.histograms.push(parse_hist(k.clone(), v));
        }
    }
    if let Some(items) = root.get("metrics").and_then(|v| v.as_array()) {
        for row in items {
            m.metrics.push(MetricRow {
                dataset: get_str(row, "dataset"),
                method: get_str(row, "method"),
                horizon: row.get("horizon").and_then(|v| v.as_usize()).unwrap_or(0),
                name: get_str(row, "name"),
                value: row.get("value").map(num_or_nan).unwrap_or(f64::NAN),
            });
        }
    }
    if let Some(items) = root.get("measurements").and_then(|v| v.as_array()) {
        for row in items {
            m.measurements.push(MeasurementRow {
                name: get_str(row, "name"),
                quantity: get_str(row, "quantity"),
                unit: get_str(row, "unit"),
                iters: get_u64(row, "iters").unwrap_or(0),
                min: row.get("min").map(num_or_nan).unwrap_or(f64::NAN),
                median: row.get("median").map(num_or_nan).unwrap_or(f64::NAN),
                mean: row.get("mean").map(num_or_nan).unwrap_or(f64::NAN),
                stddev: row.get("stddev").map(num_or_nan).unwrap_or(f64::NAN),
                suite: get_str(row, "suite"),
                engine: get_str(row, "engine"),
                dataset: get_str(row, "dataset"),
                method: get_str(row, "method"),
                characteristic: get_str(row, "characteristic"),
                horizon: get_u64(row, "horizon").unwrap_or(0),
                calls: get_u64(row, "calls").unwrap_or(1),
            });
        }
    }
    if let Some(slo) = root.get("slo") {
        m.slo = Some(SloSummary {
            threshold_ms: slo.get("threshold_ms").map(num_or_nan).unwrap_or(f64::NAN),
            objective: slo.get("objective").map(num_or_nan).unwrap_or(f64::NAN),
            total: get_u64(slo, "total").unwrap_or(0),
            breaches: get_u64(slo, "breaches").unwrap_or(0),
            burn_rate_1m: slo.get("burn_rate_1m").map(num_or_nan).unwrap_or(f64::NAN),
            burn_rate_5m: slo.get("burn_rate_5m").map(num_or_nan).unwrap_or(f64::NAN),
        });
    }
    if let Some(items) = root.get("exemplars").and_then(|v| v.as_array()) {
        for e in items {
            let mut phases = Vec::new();
            if let Some(fields) = e.get("phases").and_then(|v| v.as_object()) {
                for (k, v) in fields {
                    phases.push((k.clone(), get_u64(v, "").unwrap_or(0)));
                }
            }
            m.exemplars.push(TraceExemplar {
                trace_id: get_str(e, "trace_id"),
                total_ns: get_u64(e, "total_ns").unwrap_or(0),
                batch_size: get_u64(e, "batch_size").unwrap_or(0),
                phases,
            });
        }
    }
    if let Some(flight) = root.get("flight") {
        m.flight = Some(crate::manifest::FlightSummary {
            armed: flight
                .get("armed")
                .and_then(|v| v.as_bool())
                .unwrap_or(false),
            dumps: get_u64(flight, "dumps").unwrap_or(0),
            suppressed: get_u64(flight, "suppressed").unwrap_or(0),
            last_reason: get_str(flight, "last_reason"),
        });
    }
    if let Some(quality) = root.get("quality") {
        let mut q = crate::manifest::QualitySummary::default();
        if let Some(items) = quality.get("scores").and_then(|v| v.as_array()) {
            for s in items {
                q.scores.push(crate::manifest::QualityScore {
                    model: get_str(s, "model"),
                    label: get_str(s, "label"),
                    joins: get_u64(s, "joins").unwrap_or(0),
                    mae: s.get("mae").map(num_or_nan).unwrap_or(f64::NAN),
                    mse: s.get("mse").map(num_or_nan).unwrap_or(f64::NAN),
                    smape: s.get("smape").map(num_or_nan).unwrap_or(f64::NAN),
                    drift_trips: get_u64(s, "drift_trips").unwrap_or(0),
                });
            }
        }
        if let Some(items) = quality.get("trips").and_then(|v| v.as_array()) {
            for t in items {
                q.trips.push(crate::manifest::QualityDriftTrip {
                    model: get_str(t, "model"),
                    label: get_str(t, "label"),
                    detector: get_str(t, "detector"),
                    series: get_str(t, "series"),
                    at_join: get_u64(t, "at_join").unwrap_or(0),
                    value: t.get("value").map(num_or_nan).unwrap_or(f64::NAN),
                });
            }
        }
        q.slo = match quality.get("slo") {
            Some(JsonValue::Null) | None => None,
            Some(slo) => Some(crate::manifest::QualitySloSummary {
                threshold_smape: slo
                    .get("threshold_smape")
                    .map(num_or_nan)
                    .unwrap_or(f64::NAN),
                objective: slo.get("objective").map(num_or_nan).unwrap_or(f64::NAN),
                total: get_u64(slo, "total").unwrap_or(0),
                breaches: get_u64(slo, "breaches").unwrap_or(0),
                burn_rate_1m: slo.get("burn_rate_1m").map(num_or_nan).unwrap_or(f64::NAN),
                burn_rate_5m: slo.get("burn_rate_5m").map(num_or_nan).unwrap_or(f64::NAN),
            }),
        };
        m.quality = Some(q);
    }
    if let Some(health) = root.get("health") {
        let cells = |key: &str| -> Vec<String> {
            health
                .get(key)
                .and_then(|v| v.as_array())
                .map(|items| {
                    items
                        .iter()
                        .filter_map(|c| c.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default()
        };
        let mut grad_norms = Vec::new();
        if let Some(fields) = health.get("grad_norms").and_then(|v| v.as_object()) {
            for (k, v) in fields {
                grad_norms.push((k.clone(), parse_hist(k.clone(), v)));
            }
        }
        m.health = HealthSummary {
            nan_cells: cells("nan_cells"),
            diverged_cells: cells("diverged_cells"),
            aborted_cells: cells("aborted_cells"),
            grad_norms,
        };
    }
    Ok(ParsedManifest {
        manifest: m,
        warnings,
    })
}

fn get_str(v: &JsonValue, key: &str) -> String {
    v.get(key)
        .and_then(|s| s.as_str())
        .unwrap_or_default()
        .to_string()
}

/// `v[key]` as u64 ("" means `v` itself) — exact for anything a real run
/// produces (< 2^53 ns is ~104 days of wall time).
fn get_u64(v: &JsonValue, key: &str) -> Option<u64> {
    let v = if key.is_empty() { Some(v) } else { v.get(key) };
    v.and_then(|n| n.as_f64()).map(|n| n as u64)
}

/// Numeric payload with `null` mapped back to NaN (the writer serializes
/// non-finite values as `null`).
fn num_or_nan(v: &JsonValue) -> f64 {
    match v {
        JsonValue::Null => f64::NAN,
        other => other.as_f64().unwrap_or(f64::NAN),
    }
}

fn parse_hist(name: String, v: &JsonValue) -> HistSummary {
    let f = |key: &str| v.get(key).map(num_or_nan).unwrap_or(f64::NAN);
    HistSummary {
        name,
        count: v.get("count").and_then(|n| n.as_usize()).unwrap_or(0),
        mean: f("mean"),
        min: f("min"),
        max: f("max"),
        p50: f("p50"),
        p90: f("p90"),
        p99: f("p99"),
    }
}

/// One line of the history index: where a recorded run's manifest lives
/// and enough provenance to select baselines without reading every blob.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// Position in the index (0-based, append order).
    pub seq: usize,
    /// Content address: FNV-1a of the manifest's exact bytes.
    pub id: String,
    /// Unix timestamp in milliseconds when the entry was appended.
    pub timestamp_ms: u64,
    /// The run's `meta.config_hash` ("" when absent).
    pub config_hash: String,
    /// The run's `meta.git_rev` ("" when absent).
    pub git_rev: String,
    /// Cores available to the run.
    pub cores: usize,
    /// The run's wall time.
    pub wall_ns: u64,
    /// Blob path relative to the history root.
    pub path: String,
}

impl HistoryEntry {
    fn to_jsonl(&self) -> String {
        let obj = JsonValue::Object(vec![
            ("id".into(), JsonValue::String(self.id.clone())),
            ("t_ms".into(), JsonValue::Number(self.timestamp_ms as f64)),
            (
                "config_hash".into(),
                JsonValue::String(self.config_hash.clone()),
            ),
            ("git_rev".into(), JsonValue::String(self.git_rev.clone())),
            ("cores".into(), JsonValue::Number(self.cores as f64)),
            ("wall_ns".into(), JsonValue::Number(self.wall_ns as f64)),
            ("path".into(), JsonValue::String(self.path.clone())),
        ]);
        obj.compact()
    }

    fn from_jsonl(seq: usize, line: &str) -> Result<HistoryEntry, String> {
        let v = JsonValue::parse(line).map_err(|e| format!("index line {}: {e}", seq + 1))?;
        Ok(HistoryEntry {
            seq,
            id: get_str(&v, "id"),
            timestamp_ms: get_u64(&v, "t_ms").unwrap_or(0),
            config_hash: get_str(&v, "config_hash"),
            git_rev: get_str(&v, "git_rev"),
            cores: v.get("cores").and_then(|n| n.as_usize()).unwrap_or(0),
            wall_ns: get_u64(&v, "wall_ns").unwrap_or(0),
            path: get_str(&v, "path"),
        })
    }
}

/// The append-only run-history store.
pub struct RunHistory {
    root: PathBuf,
    entries: Vec<HistoryEntry>,
}

impl RunHistory {
    /// Opens (creating if needed) the history at `root` and loads its
    /// index. Unparseable index lines are an error — the index is
    /// machine-written, so corruption should be loud.
    pub fn open(root: &Path) -> Result<RunHistory, String> {
        fs::create_dir_all(root.join("manifests"))
            .map_err(|e| format!("cannot create history dir {}: {e}", root.display()))?;
        let index = root.join("index.jsonl");
        let mut entries = Vec::new();
        if index.exists() {
            let text = fs::read_to_string(&index)
                .map_err(|e| format!("cannot read {}: {e}", index.display()))?;
            for (i, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                entries.push(HistoryEntry::from_jsonl(i, line)?);
            }
        }
        Ok(RunHistory {
            root: root.to_path_buf(),
            entries,
        })
    }

    /// The history's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// All index entries, oldest first.
    pub fn entries(&self) -> &[HistoryEntry] {
        &self.entries
    }

    /// Appends a manifest (as its canonical JSON bytes).
    pub fn append(&mut self, manifest: &Manifest) -> Result<HistoryEntry, String> {
        self.append_bytes(&manifest.to_json(), manifest)
    }

    /// Appends a manifest from its JSON text (e.g. a `run.manifest.json`
    /// on disk), validating it first.
    pub fn append_json(&mut self, json: &str) -> Result<HistoryEntry, String> {
        let parsed = parse_manifest(json)?;
        self.append_bytes(json, &parsed.manifest)
    }

    fn append_bytes(&mut self, json: &str, manifest: &Manifest) -> Result<HistoryEntry, String> {
        let id = crate::fnv1a_hex(json.as_bytes());
        let rel = format!("manifests/{id}.json");
        let blob = self.root.join(&rel);
        if !blob.exists() {
            fs::write(&blob, json).map_err(|e| format!("cannot write {}: {e}", blob.display()))?;
        }
        let entry = HistoryEntry {
            seq: self.entries.len(),
            id,
            timestamp_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_millis() as u64),
            config_hash: manifest.meta_value("config_hash").unwrap_or("").to_string(),
            git_rev: manifest.meta_value("git_rev").unwrap_or("").to_string(),
            cores: manifest.cores,
            wall_ns: manifest.wall_ns,
            path: rel,
        };
        let index = self.root.join("index.jsonl");
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&index)
            .map_err(|e| format!("cannot open {}: {e}", index.display()))?;
        writeln!(f, "{}", entry.to_jsonl())
            .map_err(|e| format!("cannot append to {}: {e}", index.display()))?;
        self.entries.push(entry.clone());
        Ok(entry)
    }

    /// Loads and parses the manifest blob behind an index entry.
    pub fn load(&self, entry: &HistoryEntry) -> Result<ParsedManifest, String> {
        let path = self.root.join(&entry.path);
        let text = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read manifest blob {}: {e}", path.display()))?;
        parse_manifest(&text)
    }

    /// Resolves a run selector: `first`, `last`, a 0-based index, or a
    /// (prefix of a) content id.
    pub fn resolve(&self, selector: &str) -> Option<&HistoryEntry> {
        match selector {
            "first" => self.entries.first(),
            "last" => self.entries.last(),
            s => {
                if let Ok(seq) = s.parse::<usize>() {
                    return self.entries.get(seq);
                }
                // Id prefix: newest match wins.
                self.entries.iter().rev().find(|e| e.id.starts_with(s))
            }
        }
    }
}

/// One postmortem bundle, as recorded in the append-only
/// `<root>/postmortems.jsonl` index written by [`crate::flight::dump`].
#[derive(Debug, Clone, PartialEq)]
pub struct PostmortemEntry {
    /// Monotonic dump sequence number within the process that wrote it.
    pub seq: u64,
    /// Content id of the bundle (FNV-1a of the manifest bytes).
    pub id: String,
    /// What tripped the dump (`slo-burn-rate`, `serve-shed`, `panic: …`).
    pub reason: String,
    /// Number of ring events captured in the bundle.
    pub events: u64,
    /// Bundle directory, relative to the history root.
    pub path: String,
}

impl PostmortemEntry {
    /// Absolute bundle directory under `root`.
    pub fn dir(&self, root: &Path) -> PathBuf {
        root.join(&self.path)
    }
}

/// Loads the postmortem index under a history root. A missing index is an
/// empty list (no incidents yet), not an error.
pub fn load_postmortems(root: &Path) -> Result<Vec<PostmortemEntry>, String> {
    let index = root.join("postmortems.jsonl");
    let text = match fs::read_to_string(&index) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", index.display())),
    };
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = JsonValue::parse(line)
            .map_err(|e| format!("{}:{}: not valid JSON: {e}", index.display(), lineno + 1))?;
        out.push(PostmortemEntry {
            seq: get_u64(&v, "seq").unwrap_or(0),
            id: get_str(&v, "id"),
            reason: get_str(&v, "reason"),
            events: get_u64(&v, "events").unwrap_or(0),
            path: get_str(&v, "path"),
        });
    }
    Ok(out)
}

/// Resolves a postmortem selector over index order: `first`, `last`, a
/// 0-based index, or a (prefix of a) bundle id — newest match wins, same
/// semantics as [`RunHistory::resolve`].
pub fn resolve_postmortem<'a>(
    entries: &'a [PostmortemEntry],
    selector: &str,
) -> Option<&'a PostmortemEntry> {
    match selector {
        "first" => entries.first(),
        "last" => entries.last(),
        s => {
            if let Ok(seq) = s.parse::<usize>() {
                return entries.get(seq);
            }
            entries.iter().rev().find(|e| e.id.starts_with(s))
        }
    }
}

/// What a diff row measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffKind {
    /// Total run wall time.
    WallTime,
    /// Peak resident set size.
    PeakRss,
    /// One span path's total time (summed over its dataset/method cells).
    Phase,
    /// One counter's total.
    Counter,
    /// One per-cell accuracy metric.
    Metric,
    /// One suite-harness measurement (median across its iters).
    Measurement,
}

impl DiffKind {
    /// Short display tag.
    pub fn tag(self) -> &'static str {
        match self {
            DiffKind::WallTime => "wall",
            DiffKind::PeakRss => "rss",
            DiffKind::Phase => "phase",
            DiffKind::Counter => "counter",
            DiffKind::Metric => "metric",
            DiffKind::Measurement => "meas",
        }
    }
}

/// One compared quantity between two manifests. Every kind here is
/// lower-is-better, so a positive delta is a regression — except
/// [`DiffKind::Measurement`] rows whose unit is a rate (e.g. `req/s`),
/// which are informational in the diff and excluded from the gate.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// What is being compared.
    pub kind: DiffKind,
    /// Display key (phase path, counter name, `dataset/method h=H name`).
    pub name: String,
    /// Baseline value (`None` = not measured, e.g. RSS off Linux).
    pub base: Option<f64>,
    /// Candidate value.
    pub new: Option<f64>,
}

impl DiffRow {
    /// Relative change in percent; `None` when either side is missing or
    /// the baseline is zero/non-finite.
    pub fn delta_pct(&self) -> Option<f64> {
        let (b, n) = (self.base?, self.new?);
        if !b.is_finite() || !n.is_finite() || b == 0.0 {
            return None;
        }
        Some((n - b) / b * 100.0)
    }
}

/// Per-path phase totals, summed over dataset/method cells.
fn phase_totals(m: &Manifest) -> BTreeMap<String, u64> {
    let mut totals = BTreeMap::new();
    for p in &m.phases {
        *totals.entry(p.path.clone()).or_insert(0) += p.total_ns;
    }
    totals
}

/// Stable display key for a metric row.
fn metric_key(m: &MetricRow) -> String {
    format!("{}/{} h={} {}", m.dataset, m.method, m.horizon, m.name)
}

/// Stable display key for a suite-harness measurement.
fn measurement_key(m: &MeasurementRow) -> String {
    format!("{}/{}", m.name, m.quantity)
}

/// Whether a measurement's unit denotes time — the only class of
/// measurement the gate treats as a (one-directionally noisy) resource.
fn is_time_unit(unit: &str) -> bool {
    matches!(
        unit.split('/').next().unwrap_or(""),
        "ns" | "us" | "ms" | "s"
    )
}

/// A measurement's time-unit value expressed in nanoseconds (for the
/// gate's noise floor); `None` for non-time units.
fn time_unit_ns(unit: &str, value: f64) -> Option<f64> {
    let scale = match unit.split('/').next().unwrap_or("") {
        "ns" => 1.0,
        "us" => 1e3,
        "ms" => 1e6,
        "s" => 1e9,
        _ => return None,
    };
    Some(value * scale)
}

/// Compares two manifests: wall time, peak RSS, per-path phase totals,
/// counters, and accuracy metrics. Rows are sorted by regression
/// magnitude — worst regression first, then improvements, then rows with
/// no computable delta.
pub fn diff_manifests(base: &Manifest, new: &Manifest) -> Vec<DiffRow> {
    let mut rows = vec![
        DiffRow {
            kind: DiffKind::WallTime,
            name: "wall_ns".into(),
            base: Some(base.wall_ns as f64),
            new: Some(new.wall_ns as f64),
        },
        DiffRow {
            kind: DiffKind::PeakRss,
            name: "peak_rss_bytes".into(),
            base: base.peak_rss_bytes.map(|b| b as f64),
            new: new.peak_rss_bytes.map(|b| b as f64),
        },
    ];
    let (bp, np) = (phase_totals(base), phase_totals(new));
    for path in bp
        .keys()
        .chain(np.keys())
        .collect::<std::collections::BTreeSet<_>>()
    {
        rows.push(DiffRow {
            kind: DiffKind::Phase,
            name: path.to_string(),
            base: bp.get(path.as_str()).map(|&v| v as f64),
            new: np.get(path.as_str()).map(|&v| v as f64),
        });
    }
    let bc: BTreeMap<&str, u64> = base
        .counters
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    let nc: BTreeMap<&str, u64> = new.counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    for name in bc
        .keys()
        .chain(nc.keys())
        .collect::<std::collections::BTreeSet<_>>()
    {
        rows.push(DiffRow {
            kind: DiffKind::Counter,
            name: name.to_string(),
            base: bc.get(*name).map(|&v| v as f64),
            new: nc.get(*name).map(|&v| v as f64),
        });
    }
    let bm: BTreeMap<String, f64> = base
        .metrics
        .iter()
        .map(|m| (metric_key(m), m.value))
        .collect();
    let nm: BTreeMap<String, f64> = new
        .metrics
        .iter()
        .map(|m| (metric_key(m), m.value))
        .collect();
    for key in bm
        .keys()
        .chain(nm.keys())
        .collect::<std::collections::BTreeSet<_>>()
    {
        rows.push(DiffRow {
            kind: DiffKind::Metric,
            name: key.to_string(),
            base: bm.get(key.as_str()).copied(),
            new: nm.get(key.as_str()).copied(),
        });
    }
    let bmm: BTreeMap<String, f64> = base
        .measurements
        .iter()
        .map(|m| (measurement_key(m), m.median))
        .collect();
    let nmm: BTreeMap<String, f64> = new
        .measurements
        .iter()
        .map(|m| (measurement_key(m), m.median))
        .collect();
    for key in bmm
        .keys()
        .chain(nmm.keys())
        .collect::<std::collections::BTreeSet<_>>()
    {
        rows.push(DiffRow {
            kind: DiffKind::Measurement,
            name: key.to_string(),
            base: bmm.get(key.as_str()).copied(),
            new: nmm.get(key.as_str()).copied(),
        });
    }
    // Worst regression first; missing deltas sink to the bottom.
    rows.sort_by(|a, b| {
        let (da, db) = (a.delta_pct(), b.delta_pct());
        match (da, db) {
            (Some(x), Some(y)) => y.partial_cmp(&x).unwrap_or(std::cmp::Ordering::Equal),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => a.name.cmp(&b.name),
        }
    });
    rows
}

/// Formats one optional measurement ("n/a" when absent — never 0, which
/// would read as a fake −100% improvement).
fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => {
            if v.fract() == 0.0 && v.abs() < 9.0e15 {
                format!("{}", v as i64)
            } else {
                format!("{v:.6}")
            }
        }
        _ => "n/a".to_string(),
    }
}

/// Renders a diff as an aligned text table.
pub fn render_diff(rows: &[DiffRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<44} {:>16} {:>16} {:>9}",
        "kind", "name", "base", "new", "delta"
    );
    for r in rows {
        let delta = match r.delta_pct() {
            Some(d) => format!("{d:+.1}%"),
            None => "n/a".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<8} {:<44} {:>16} {:>16} {:>9}",
            r.kind.tag(),
            r.name,
            fmt_opt(r.base),
            fmt_opt(r.new),
            delta
        );
    }
    out
}

/// Separate tolerances for the gate's quantity classes, in percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateTolerances {
    /// Wall time and per-phase totals.
    pub wall_pct: f64,
    /// Peak RSS.
    pub rss_pct: f64,
    /// Allocation counters (names containing `alloc`).
    pub alloc_pct: f64,
    /// Accuracy metrics (MAE, MSE, …) — deterministic, so much tighter.
    pub metric_pct: f64,
}

impl Default for GateTolerances {
    fn default() -> GateTolerances {
        GateTolerances {
            wall_pct: 10.0,
            rss_pct: 10.0,
            alloc_pct: 10.0,
            metric_pct: 5.0,
        }
    }
}

/// One gate verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    /// What was checked (same keys as the diff).
    pub name: String,
    /// Baseline aggregate (min or median across the K baselines).
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// Allowed regression in percent.
    pub tol_pct: f64,
    /// Observed change in percent.
    pub delta_pct: f64,
    /// Whether the check failed.
    pub failed: bool,
}

/// The gate's outcome: every check it ran and the failures among them.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Every comparison performed.
    pub checks: Vec<GateCheck>,
    /// Human-readable failure lines (health failures included).
    pub failures: Vec<String>,
    /// How many baseline runs the aggregates were taken over.
    pub baseline_runs: usize,
}

impl GateReport {
    /// True when nothing regressed beyond tolerance.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

fn median(xs: &mut Vec<f64>) -> Option<f64> {
    xs.retain(|v| v.is_finite());
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = xs.len();
    Some(if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    })
}

/// Why some baseline comes from another machine than `candidate`, if
/// both record it: both carry `cores` and the counts differ, or both
/// carry the `kernel` meta and the paths differ (baseline value first).
/// Timings from different machines say nothing about a change, so the
/// gate refuses them instead of comparing.
pub fn machine_mismatch(baselines: &[Manifest], candidate: &Manifest) -> Option<String> {
    let kernel = |m: &Manifest| {
        m.meta
            .iter()
            .find(|(k, _)| k == "kernel")
            .map(|(_, v)| v.clone())
    };
    baselines.iter().find_map(|b| {
        if b.cores != 0 && candidate.cores != 0 && b.cores != candidate.cores {
            return Some(format!("cores {} vs {}", b.cores, candidate.cores));
        }
        match (kernel(b), kernel(candidate)) {
            (Some(x), Some(y)) if x != y => Some(format!("kernel {x} vs {y}")),
            _ => None,
        }
    })
}

/// Runs the noise-aware regression gate: `candidate` against min/median
/// aggregates over `baselines` (see the module docs for the noise model).
/// Empty `baselines` yields a report that only runs the health checks.
pub fn gate(baselines: &[&Manifest], candidate: &Manifest, tol: &GateTolerances) -> GateReport {
    let mut report = GateReport {
        baseline_runs: baselines.len(),
        ..GateReport::default()
    };
    let check = |report: &mut GateReport, name: String, base: f64, cand: f64, tol_pct: f64| {
        if !base.is_finite() || base <= 0.0 || !cand.is_finite() {
            return;
        }
        let delta_pct = (cand - base) / base * 100.0;
        let failed = delta_pct > tol_pct;
        if failed {
            report.failures.push(format!(
                "{name}: {cand:.0} vs baseline {base:.0} ({delta_pct:+.1}% > +{tol_pct:.0}% tolerance)"
            ));
        }
        report.checks.push(GateCheck {
            name,
            baseline: base,
            candidate: cand,
            tol_pct,
            delta_pct,
            failed,
        });
    };
    if !baselines.is_empty() {
        // Wall time: min across baselines (interference only slows runs).
        let wall_min = baselines.iter().map(|m| m.wall_ns).min().unwrap_or(0);
        check(
            &mut report,
            "wall_ns".into(),
            wall_min as f64,
            candidate.wall_ns as f64,
            tol.wall_pct,
        );
        // Peak RSS: min across baselines that measured it; skip entirely
        // when unmeasured on either side (never treat None as 0).
        let rss_min = baselines.iter().filter_map(|m| m.peak_rss_bytes).min();
        if let (Some(b), Some(c)) = (rss_min, candidate.peak_rss_bytes) {
            check(
                &mut report,
                "peak_rss_bytes".into(),
                b as f64,
                c as f64,
                tol.rss_pct,
            );
        }
        // Per-path phase totals: min across baselines, noise floor applied.
        let base_phases: Vec<BTreeMap<String, u64>> =
            baselines.iter().map(|m| phase_totals(m)).collect();
        let cand_phases = phase_totals(candidate);
        for (path, &cand_total) in &cand_phases {
            let mins: Vec<u64> = base_phases
                .iter()
                .filter_map(|p| p.get(path).copied())
                .collect();
            let Some(&base_min) = mins.iter().min() else {
                continue; // New phase: nothing to compare against.
            };
            if base_min < PHASE_NOISE_FLOOR_NS {
                continue;
            }
            check(
                &mut report,
                format!("phase {path}"),
                base_min as f64,
                cand_total as f64,
                tol.wall_pct,
            );
        }
        // Allocation counters: min across baselines.
        for (name, cand_v) in &candidate.counters {
            if !name.contains("alloc") {
                continue;
            }
            let mins: Vec<u64> = baselines
                .iter()
                .filter_map(|m| m.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v))
                .collect();
            if let Some(&base_min) = mins.iter().min() {
                check(
                    &mut report,
                    format!("counter {name}"),
                    base_min as f64,
                    *cand_v as f64,
                    tol.alloc_pct,
                );
            }
        }
        // Suite-harness measurements: only time-unit quantities are
        // gated (rates and scores have their own channels — throughput
        // is higher-is-better, accuracy flows through `metrics`). The
        // candidate's min-over-iters is compared against the min across
        // baselines' mins — the same one-directional noise model as
        // wall time — with the phase noise floor applied.
        for row in &candidate.measurements {
            if !is_time_unit(&row.unit) {
                continue;
            }
            let key = measurement_key(row);
            let mins: Vec<f64> = baselines
                .iter()
                .flat_map(|m| &m.measurements)
                .filter(|b| measurement_key(b) == key && b.unit == row.unit)
                .map(|b| b.min)
                .filter(|v| v.is_finite())
                .collect();
            let Some(base_min) = mins.iter().copied().reduce(f64::min) else {
                continue; // New cell: nothing to compare against.
            };
            // The floor applies to what one sample timed: a per-call row
            // times `calls` calls per sample.
            match time_unit_ns(&row.unit, base_min) {
                Some(ns) if ns * row.calls.max(1) as f64 >= PHASE_NOISE_FLOOR_NS as f64 => {}
                _ => continue,
            }
            check(
                &mut report,
                format!("meas {key}"),
                base_min,
                row.min,
                tol.wall_pct,
            );
        }
        // Accuracy metrics: median across baselines, tight tolerance.
        let mut base_metrics: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for m in baselines {
            for row in &m.metrics {
                base_metrics
                    .entry(metric_key(row))
                    .or_default()
                    .push(row.value);
            }
        }
        for row in &candidate.metrics {
            let key = metric_key(row);
            if let Some(values) = base_metrics.get_mut(&key) {
                if let Some(med) = median(values) {
                    if med > 0.0 && row.value.is_finite() {
                        let delta_pct = (row.value - med) / med * 100.0;
                        let failed = delta_pct > tol.metric_pct;
                        if failed {
                            report.failures.push(format!(
                                "metric {key}: {:.6} vs baseline median {med:.6} ({delta_pct:+.2}% > +{:.1}% tolerance)",
                                row.value, tol.metric_pct
                            ));
                        }
                        report.checks.push(GateCheck {
                            name: format!("metric {key}"),
                            baseline: med,
                            candidate: row.value,
                            tol_pct: tol.metric_pct,
                            delta_pct,
                            failed,
                        });
                    }
                }
            }
        }
    }
    // Health: no tolerance for wrong.
    for cell in &candidate.health.nan_cells {
        report.failures.push(format!(
            "health: cell {cell} hit a non-finite loss or forecast"
        ));
    }
    for cell in &candidate.health.diverged_cells {
        report.failures.push(format!(
            "health: cell {cell} aborted by the divergence detector"
        ));
    }
    report
}

/// Renders a numeric series as a sparkline (8-level block characters;
/// non-finite values render as spaces). A flat series renders mid-level.
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return " ".repeat(values.len());
    }
    let (min, max) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let span = max - min;
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                ' '
            } else if span <= 0.0 {
                LEVELS[3]
            } else {
                let idx = ((v - min) / span * 7.0).round() as usize;
                LEVELS[idx.min(7)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_manifest(wall: u64, mae: f64) -> Manifest {
        Manifest {
            meta: vec![
                ("config_hash".into(), "cfg".into()),
                ("git_rev".into(), "deadbeef".into()),
            ],
            cores: 4,
            wall_ns: wall,
            peak_rss_bytes: Some(1 << 20),
            events_path: None,
            phases: vec![PhaseRow {
                path: "job.eval".into(),
                dataset: "ILI".into(),
                method: "LR".into(),
                count: 1,
                total_ns: wall / 2,
                min_ns: wall / 2,
                max_ns: wall / 2,
            }],
            counters: vec![("alloc/bytes".into(), 1000)],
            gauges: vec![],
            histograms: vec![],
            metrics: vec![MetricRow {
                dataset: "ILI".into(),
                method: "LR".into(),
                horizon: 24,
                name: "mae".into(),
                value: mae,
            }],
            measurements: vec![],
            slo: None,
            exemplars: vec![],
            flight: None,
            quality: None,
            health: HealthSummary::default(),
        }
    }

    fn meas(name: &str, quantity: &str, unit: &str, min: f64) -> MeasurementRow {
        MeasurementRow {
            name: name.into(),
            quantity: quantity.into(),
            unit: unit.into(),
            iters: 3,
            min,
            median: min * 1.1,
            mean: min * 1.15,
            stddev: min * 0.05,
            suite: "eval/etth1".into(),
            engine: "eval".into(),
            dataset: "ETTh1".into(),
            method: "LR".into(),
            characteristic: "trend".into(),
            horizon: 24,
            calls: 1,
        }
    }

    #[test]
    fn diff_sorts_worst_regression_first() {
        let base = mini_manifest(1_000_000, 1.0);
        let mut new = mini_manifest(1_100_000, 1.0);
        new.phases[0].total_ns = 2_000_000; // +300% on the phase
        let rows = diff_manifests(&base, &new);
        assert_eq!(rows[0].kind, DiffKind::Phase);
        assert!(rows[0].delta_pct().unwrap() > 200.0);
        let rendered = render_diff(&rows);
        assert!(rendered.contains("job.eval"), "{rendered}");
    }

    #[test]
    fn diff_renders_missing_rss_as_na() {
        let mut base = mini_manifest(1_000_000, 1.0);
        base.peak_rss_bytes = None;
        let new = mini_manifest(1_000_000, 1.0);
        let rows = diff_manifests(&base, &new);
        let rss = rows
            .iter()
            .find(|r| r.kind == DiffKind::PeakRss)
            .expect("rss row present");
        assert_eq!(rss.delta_pct(), None, "None must not read as 0");
        assert!(render_diff(&rows).contains("n/a"));
    }

    #[test]
    fn gate_min_of_k_absorbs_baseline_noise() {
        // Three noisy baselines; candidate matches the fastest one. A
        // mean- or last-based gate would flag this; min-based passes.
        let b1 = mini_manifest(1_500_000, 1.0);
        let b2 = mini_manifest(1_000_000, 1.0);
        let b3 = mini_manifest(1_400_000, 1.0);
        let cand = mini_manifest(1_050_000, 1.0);
        let report = gate(&[&b1, &b2, &b3], &cand, &GateTolerances::default());
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.baseline_runs, 3);
    }

    #[test]
    fn gate_catches_wall_and_metric_regressions() {
        let base = mini_manifest(1_000_000, 1.0);
        let mut cand = mini_manifest(1_600_000, 1.10);
        cand.phases[0].total_ns = 800_000;
        let tol = GateTolerances {
            wall_pct: 20.0,
            rss_pct: 20.0,
            alloc_pct: 20.0,
            metric_pct: 5.0,
        };
        let report = gate(&[&base], &cand, &tol);
        assert!(!report.passed());
        let text = report.failures.join("\n");
        assert!(text.contains("wall_ns"), "{text}");
        assert!(text.contains("mae"), "{text}");
    }

    #[test]
    fn gate_fails_on_candidate_nan_cells() {
        let base = mini_manifest(1_000_000, 1.0);
        let mut cand = mini_manifest(1_000_000, 1.0);
        cand.health.nan_cells.push("ILI/MLP".into());
        let report = gate(&[&base], &cand, &GateTolerances::default());
        assert!(!report.passed());
        assert!(report.failures[0].contains("ILI/MLP"));
    }

    #[test]
    fn gate_skips_sub_noise_floor_phases() {
        let mut base = mini_manifest(1_000_000, 1.0);
        base.phases[0].total_ns = 500; // 0.5µs: pure noise
        let mut cand = mini_manifest(1_000_000, 1.0);
        cand.phases[0].total_ns = 5_000; // "10x regression" of nothing
        let report = gate(&[&base], &cand, &GateTolerances::default());
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn measurements_round_trip_and_diff() {
        let mut base = mini_manifest(1_000_000, 1.0);
        base.measurements = vec![meas("eval/etth1/LR-h24", "wall", "ns", 1_000_000.0)];
        let json = base.to_json();
        let parsed = parse_manifest(&json).expect("parses");
        assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
        assert_eq!(parsed.manifest.to_json(), json);

        let mut new = base.clone();
        new.measurements[0].median = 3_000_000.0;
        let rows = diff_manifests(&base, &new);
        let row = rows
            .iter()
            .find(|r| r.kind == DiffKind::Measurement)
            .expect("measurement row");
        assert_eq!(row.name, "eval/etth1/LR-h24/wall");
        assert!(row.delta_pct().unwrap() > 100.0);
    }

    #[test]
    fn gate_measurements_min_of_k_time_units_only() {
        // Noisy baselines: min-of-K absorbs the slow ones.
        let mut b1 = mini_manifest(1_000_000, 1.0);
        b1.measurements = vec![
            meas("eval/etth1/LR-h24", "infer", "us/window", 150.0),
            meas("serve/smoke/LR-h8", "throughput", "req/s", 3_000.0),
        ];
        let mut b2 = b1.clone();
        b2.measurements[0].min = 100.0;
        let mut cand = b1.clone();
        cand.measurements[0].min = 105.0; // within 10% of min-of-K (100)
        cand.measurements[1].min = 100.0; // throughput collapse: NOT gated
        let report = gate(&[&b1, &b2], &cand, &GateTolerances::default());
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "meas eval/etth1/LR-h24/infer"));
        assert!(
            !report.checks.iter().any(|c| c.name.contains("throughput")),
            "rate units must not be gated as lower-is-better"
        );

        // A genuine regression beyond tolerance fails.
        cand.measurements[0].min = 200.0;
        let report = gate(&[&b1, &b2], &cand, &GateTolerances::default());
        assert!(!report.passed());
        assert!(report.failures[0].contains("eval/etth1/LR-h24/infer"));
    }

    #[test]
    fn gate_skips_sub_noise_floor_measurements() {
        let mut base = mini_manifest(1_000_000, 1.0);
        base.measurements = vec![meas("math/kernels/dot-16", "wall", "ns", 900.0)];
        let mut cand = base.clone();
        cand.measurements[0].min = 9_000.0; // "10x" of sub-floor noise
        let report = gate(&[&base], &cand, &GateTolerances::default());
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn gate_applies_the_floor_to_what_a_per_call_sample_timed() {
        // 900 ns per call over 200 calls: each sample timed 180 µs, well
        // above the floor, so a 2x slowdown trips the gate.
        let mut base = mini_manifest(1_000_000, 1.0);
        base.measurements = vec![meas("math/kernels/gemm-7x24x24", "unrolled", "ns", 900.0)];
        base.measurements[0].calls = 200;
        let json = base.to_json();
        assert!(json.contains("\"calls\": 200"), "{json}");
        let parsed = parse_manifest(&json).expect("parses");
        assert_eq!(parsed.manifest.measurements[0].calls, 200);
        assert_eq!(parsed.manifest.to_json(), json);
        let mut cand = base.clone();
        cand.measurements[0].min = 1_800.0;
        let report = gate(&[&base], &cand, &GateTolerances::default());
        assert!(!report.passed(), "a per-call row must be gated");
        cand.measurements[0].min = 950.0;
        assert!(gate(&[&base], &cand, &GateTolerances::default()).passed());
        // Rows without calls read one call per sample.
        assert!(!mini_manifest(1, 1.0).to_json().contains("calls"));
    }

    #[test]
    fn mixed_schema_histories_diff_and_gate() {
        // A pre-harness manifest (no measurements) next to a harness one
        // must diff and gate cleanly in both directions.
        let old = mini_manifest(1_000_000, 1.0);
        let mut new = mini_manifest(1_000_000, 1.0);
        new.measurements = vec![meas("eval/etth1/LR-h24", "wall", "ns", 1_000_000.0)];
        let rows = diff_manifests(&old, &new);
        let row = rows
            .iter()
            .find(|r| r.kind == DiffKind::Measurement)
            .expect("one-sided measurement row");
        assert_eq!(row.base, None);
        assert_eq!(row.delta_pct(), None);
        assert!(gate(&[&old], &new, &GateTolerances::default()).passed());
        assert!(gate(&[&new], &old, &GateTolerances::default()).passed());
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[1.0, 2.0, 3.0, 8.0]).chars().count(), 4);
        let s = sparkline(&[0.0, 7.0]);
        assert_eq!(s, "▁█");
        assert_eq!(sparkline(&[5.0, 5.0]), "▄▄");
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn parse_round_trips_byte_identical() {
        let m = mini_manifest(123_456, 0.5);
        let json = m.to_json();
        let parsed = parse_manifest(&json).expect("parses");
        assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
        assert_eq!(parsed.manifest.to_json(), json);
    }

    #[test]
    fn parse_round_trips_slo_and_exemplars_byte_identical() {
        let mut m = mini_manifest(123_456, 0.5);
        m.slo = Some(SloSummary {
            threshold_ms: 50.0,
            objective: 0.99,
            total: 200,
            breaches: 7,
            burn_rate_1m: 3.5,
            burn_rate_5m: 0.7,
        });
        m.exemplars = vec![TraceExemplar {
            trace_id: "0123456789abcdef".into(),
            total_ns: 81_000_000,
            batch_size: 5,
            phases: vec![("queue".into(), 500_000), ("infer".into(), 80_000_000)],
        }];
        let json = m.to_json();
        let parsed = parse_manifest(&json).expect("parses");
        assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
        assert_eq!(parsed.manifest.to_json(), json);
    }

    #[test]
    fn unknown_manifest_fields_warn_but_parse() {
        let m = mini_manifest(123_456, 0.5);
        // A field a future recorder might add: old readers must warn, not
        // error — the same path pre-slo readers take on today's output.
        let json = m.to_json().replace(
            "  \"health\": {",
            "  \"frobnication\": {},\n  \"health\": {",
        );
        let parsed = parse_manifest(&json).expect("future field must not break parsing");
        assert!(
            parsed.warnings.iter().any(|w| w.contains("frobnication")),
            "{:?}",
            parsed.warnings
        );
    }

    #[test]
    fn resolve_selectors() {
        let dir = std::env::temp_dir().join(format!("tfb_hist_unit_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut h = RunHistory::open(&dir).expect("open");
        assert!(h.resolve("last").is_none());
        let e1 = h.append(&mini_manifest(1_000, 1.0)).expect("append");
        let e2 = h.append(&mini_manifest(2_000, 1.0)).expect("append");
        assert_eq!(h.resolve("first").unwrap().id, e1.id);
        assert_eq!(h.resolve("last").unwrap().id, e2.id);
        assert_eq!(h.resolve("1").unwrap().id, e2.id);
        assert_eq!(h.resolve(&e1.id[..8]).unwrap().id, e1.id);
        // Re-open sees both entries; same-content append dedups the blob.
        let h2 = RunHistory::open(&dir).expect("reopen");
        assert_eq!(h2.entries().len(), 2);
        fs::remove_dir_all(&dir).ok();
    }
}
