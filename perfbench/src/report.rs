//! Metric names and units, the result line, the machine fingerprint and
//! the `compare` subcommand.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use tfb_json::JsonValue;

use crate::median;

/// End-to-end metrics, printed by every workload's untraced run. What
/// each means per workload is tabled in `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("lo_p50_us", "us"),
    ("lo_p90_us", "us"),
    ("hi_p50_us", "us"),
    ("hi_p90_us", "us"),
    ("max_rps", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every workload's traced run. A layer a
/// workload never calls reads 0; such layers are reported as shares or
/// counts, so every time-valued metric is measured on every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_pct", "%"),
    ("trace.wall_s", "s"),
    ("unattributed_s", "s"),
    ("runner.idle_frac", "ratio"),
    ("runner.job_p50_pct", "%"),
    ("runner.job_max_pct", "%"),
    ("eval.windows", "count"),
    ("eval.self_pct", "%"),
    ("nn.train_pct", "%"),
    ("nn.alloc_mib", "MiB"),
    ("nn.allocs", "count"),
    ("models.stat_pct", "%"),
    ("models.ml_train_pct", "%"),
    ("models.unusable_windows", "count"),
    ("infer.us_per_window", "us"),
    ("infer.alloc_b_per_window", "B"),
    ("math.gemm_calls", "count"),
    ("math.gemm_gflop", "Gflop"),
    ("math.fft_calls", "count"),
    ("math.fft_mpoints", "Mpoint"),
    ("datagen.s", "s"),
    ("characteristics.pct", "%"),
    ("characteristics.mpoints_per_s", "Mpoint/s"),
    ("json.parse_us", "us"),
    ("http.read_us", "us"),
    ("coalescer.submit_p50_us", "us"),
    ("coalescer.submit_p99_us", "us"),
    ("coalescer.submit2_p50_us", "us"),
    ("coalescer.submit2_p99_us", "us"),
    ("coalescer.batch_mean", "count"),
    ("coalescer.queue_hwm", "count"),
    ("coalescer.steals", "count"),
    ("coalescer.shed", "count"),
    ("server.parse_pct", "%"),
    ("server.queue_pct", "%"),
    ("server.collect_pct", "%"),
    ("server.infer_pct", "%"),
    ("server.dispatch_pct", "%"),
    ("server.write_pct", "%"),
    ("artifact.predict1_us", "us"),
    ("artifact.predict_row_us", "us"),
    ("fleet.hit_rate", "ratio"),
    ("fleet.evictions", "count"),
    ("fleet.get_hot_us", "us"),
    ("fleet.cold_load_p99_us", "us"),
    ("observe.record_us", "us"),
    ("observe.join_us", "us"),
    ("observe.orphan_frac", "ratio"),
    ("observe.evicted", "count"),
    ("alloc.per_request", "count"),
    ("alloc.bytes_per_request", "B"),
];

fn is_time(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us" | "ns")
}

/// What a workload run produced: output-check tallies plus metric values
/// by name. Extra `notes` (observe latency, generator lateness, digest)
/// go to standard error and the record file, not the result line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Outputs produced (jobs, series × methods, requests).
    pub attempted: u64,
    /// Outputs that failed or were wrong.
    pub failed: u64,
    /// Failed self-checks (digests, attribution), described.
    pub check_failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Figures reported beside the metrics.
    pub notes: Vec<(String, String)>,
    /// Why the run's numbers must not be recorded (the load generator
    /// fell behind its schedule).
    pub invalid: Option<String>,
}

impl Outcome {
    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed self-check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Adds a figure reported beside the metrics.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Every output counted and no self-check failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty() && self.attempted > 0
    }

    /// The metrics of one table, in table order. A missing non-time
    /// metric is a layer the workload does not call and reads 0; a
    /// missing time is a bug in the workload.
    pub fn table(
        &self,
        table: &[(&'static str, &'static str)],
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        table
            .iter()
            .map(|&(name, unit)| match self.metrics.get(name) {
                Some(v) if v.is_finite() => Ok((name, *v, unit)),
                Some(v) => Err(format!("metric {name} is not finite ({v})")),
                None if is_time(unit) => Err(format!("time metric {name} was not measured")),
                None => Ok((name, 0.0, unit)),
            })
            .collect()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(out: &Outcome, rows: &[(&str, f64, &str)]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct(),
        out.attempted,
        out.failed
    );
    for (i, (name, value, unit)) in rows.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// Where the numbers came from: results whose fingerprints differ are
/// never compared.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("kernel", tfb_math::kernel::active_name().to_string()),
        (
            "git_rev",
            tfb_obs::git_rev().unwrap_or_else(|| "unknown".to_string()),
        ),
    ]
}

fn json_string(s: &str) -> String {
    let mut out = String::new();
    tfb_serve::http::json_escape(&mut out, s);
    out
}

/// One self-describing record of a run, for `--record FILE` and `compare`.
pub fn record_line(
    workload: &str,
    seed: u64,
    trace: bool,
    out: &Outcome,
    rows: &[(&str, f64, &str)],
) -> String {
    let obj = |pairs: &mut dyn Iterator<Item = (String, String)>| {
        let body: Vec<String> = pairs
            .map(|(k, v)| format!("{}: {v}", json_string(&k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    };
    let fp = obj(&mut fingerprint()
        .into_iter()
        .map(|(k, v)| (k.to_string(), json_string(&v))));
    let notes = obj(&mut out.notes.iter().map(|(k, v)| (k.clone(), json_string(v))));
    let metrics = obj(&mut rows
        .iter()
        .map(|(k, v, _)| (k.to_string(), format!("{v:?}"))));
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"correct\": {}, \"fingerprint\": {fp}, \"notes\": {notes}, \"metrics\": {metrics}}}",
        json_string(workload),
        out.correct()
    )
}

struct Record {
    workload: String,
    trace: bool,
    /// The fingerprint without the git revision.
    machine: String,
    metrics: Vec<(String, f64)>,
}

fn read_records(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let v = JsonValue::parse(line).map_err(|e| format!("{path}: {e}"))?;
            let field = |k: &str| {
                v.get(k)
                    .ok_or_else(|| format!("{path}: record without {k}"))
            };
            let metrics = match field("metrics")? {
                JsonValue::Object(pairs) => pairs
                    .iter()
                    .filter_map(|(k, m)| m.as_f64().map(|x| (k.clone(), x)))
                    .collect(),
                _ => return Err(format!("{path}: metrics is not an object")),
            };
            // The git revision is provenance, not machine: records of two
            // commits on one machine compare.
            let machine = field("fingerprint")?
                .as_object()
                .unwrap_or_default()
                .iter()
                .filter(|(k, _)| k != "git_rev")
                .map(|(k, v)| format!("{k}={}", v.compact()))
                .collect::<Vec<_>>()
                .join(" ");
            Ok(Record {
                workload: field("workload")?.as_str().unwrap_or_default().to_string(),
                trace: matches!(field("trace")?, JsonValue::Bool(true)),
                machine,
                metrics,
            })
        })
        .collect()
}

/// `compare BASE NEW [BENCHMARK.json]`: per workload and end-to-end
/// metric, the two medians and the change as a share of the base, with
/// `WORSE` where the change exceeds the metric's bound. Refuses (exit
/// code 2) when any two records come from different machines.
pub fn compare(args: &[String]) -> Result<String, (i32, String)> {
    let [base, new, rest @ ..] = args else {
        return Err((
            1,
            "usage: compare BASE.jsonl NEW.jsonl [BENCHMARK.json]".into(),
        ));
    };
    let spec_path = rest.first().map_or("BENCHMARK.json", String::as_str);
    let spec_text =
        std::fs::read_to_string(spec_path).map_err(|e| (1, format!("{spec_path}: {e}")))?;
    let spec = JsonValue::parse(&spec_text).map_err(|e| (1, format!("{spec_path}: {e}")))?;
    let mut bounds: Vec<(String, f64, bool)> = Vec::new();
    for m in spec
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
    {
        let name = m
            .get("name")
            .and_then(JsonValue::as_str)
            .unwrap_or_default();
        let bound = m.get("bound").and_then(JsonValue::as_f64).unwrap_or(0.0);
        let lower = m.get("better").and_then(JsonValue::as_str) == Some("lower");
        bounds.push((name.to_string(), bound, lower));
    }
    let base = read_records(base).map_err(|e| (1, e))?;
    let new = read_records(new).map_err(|e| (1, e))?;
    let mut prints: Vec<&str> = base
        .iter()
        .chain(&new)
        .map(|r| r.machine.as_str())
        .collect();
    prints.sort_unstable();
    prints.dedup();
    if prints.len() > 1 {
        return Err((
            2,
            format!(
                "refusing to compare runs from different machines:\n  {}",
                prints.join("\n  ")
            ),
        ));
    }
    let mut workloads: Vec<&str> = base
        .iter()
        .filter(|r| !r.trace)
        .map(|r| r.workload.as_str())
        .collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut out = String::from("workload metric base_median new_median change verdict\n");
    for w in workloads {
        for (name, bound, lower) in &bounds {
            let values = |rs: &[Record]| -> Vec<f64> {
                rs.iter()
                    .filter(|r| r.workload == w && !r.trace)
                    .filter_map(|r| r.metrics.iter().find(|(k, _)| k == name).map(|(_, v)| *v))
                    .collect()
            };
            let (b, n) = (values(&base), values(&new));
            if b.is_empty() || n.is_empty() {
                continue;
            }
            let (mb, mn) = (median(&b), median(&n));
            let change = (mn - mb) / mb;
            let worse = if *lower { change } else { -change };
            let verdict = if worse > *bound { "WORSE" } else { "ok" };
            let _ = writeln!(
                out,
                "{w} {name} {mb:.6} {mn:.6} {:+.2}% {verdict}",
                change * 100.0
            );
        }
    }
    Ok(out)
}
