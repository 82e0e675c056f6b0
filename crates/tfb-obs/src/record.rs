//! The live recorder: global run state, the per-thread span stack, metric
//! registries and the JSONL event sink. Compiled only with the `record`
//! feature; `noop.rs` mirrors the API as zero-sized stubs otherwise.
//!
//! Concurrency model: one process-wide run at a time. `ENABLED` is the
//! fast gate every probe checks first (one relaxed load). Span closes and
//! sink writes funnel through the `STATE` mutex; counters and gauges are
//! lock-free atomics registered on first touch; histograms keep a bounded
//! reservoir behind their own mutex (count/mean/min/max stay exact at any
//! volume; percentiles are computed from the kept samples and are exact
//! until the cap is reached). Aggregation is order-independent (u64 sums
//! and min/max), and the manifest sorts every table, so runs are
//! deterministic regardless of thread interleaving.

use crate::manifest::{
    json_num, json_str, percentile, HealthKind, HealthSummary, HistSummary, Manifest, MetricRow,
    MetricsSnapshot, PhaseRow,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Display;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<RunState>> = Mutex::new(None);
static COUNTERS: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());
static GAUGES: Mutex<Vec<&'static Gauge>> = Mutex::new(Vec::new());
static HISTOGRAMS: Mutex<Vec<&'static Histogram>> = Mutex::new(Vec::new());
static THREAD_SEQ: AtomicU64 = AtomicU64::new(0);
/// Per-cell accuracy metrics reported by the pipeline, keyed by
/// (dataset, method, horizon, metric label); last write wins.
#[allow(clippy::type_complexity)]
static METRICS: Mutex<Option<HashMap<(String, String, usize, String), f64>>> = Mutex::new(None);
/// Health events: (kind, dataset, method) triples, in arrival order.
static HEALTH_EVENTS: Mutex<Vec<(HealthKind, String, String)>> = Mutex::new(Vec::new());
/// Per-method gradient-norm reservoirs.
static GRAD_NORMS: Mutex<Option<HashMap<String, Reservoir>>> = Mutex::new(None);

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: u64 = THREAD_SEQ.fetch_add(1, Ordering::Relaxed);
}

/// Whether a run is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Per-(path, dataset, method) running aggregate.
#[derive(Debug)]
struct Agg {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

struct RunState {
    start: Instant,
    aggregates: HashMap<(String, String, String), Agg>,
    sink: Option<BufWriter<File>>,
    events_path: Option<PathBuf>,
    seq: u64,
}

/// One entry of the per-thread span stack (what children inherit).
struct Frame {
    path: String,
    dataset: Option<String>,
    method: Option<String>,
}

/// How to record a run.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// When set, every span close is appended to this JSONL event log.
    pub events_path: Option<PathBuf>,
}

/// Arms recording: resets all metric state, optionally opens the JSONL
/// event sink, and enables every probe in the process.
pub fn start_run(opts: RunOptions) -> std::io::Result<()> {
    let mut sink = match &opts.events_path {
        Some(path) => {
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            Some(BufWriter::new(File::create(path)?))
        }
        None => None,
    };
    for c in COUNTERS.lock().expect("counter registry poisoned").iter() {
        c.value.store(0, Ordering::Relaxed);
        c.dirty.store(false, Ordering::Relaxed);
    }
    for g in GAUGES.lock().expect("gauge registry poisoned").iter() {
        g.bits.store(0, Ordering::Relaxed);
        g.dirty.store(false, Ordering::Relaxed);
    }
    for h in HISTOGRAMS
        .lock()
        .expect("histogram registry poisoned")
        .iter()
    {
        h.samples.lock().expect("histogram poisoned").reset();
    }
    *METRICS.lock().expect("metric registry poisoned") = Some(HashMap::new());
    HEALTH_EVENTS
        .lock()
        .expect("health registry poisoned")
        .clear();
    *GRAD_NORMS.lock().expect("grad-norm registry poisoned") = Some(HashMap::new());
    crate::trace::reset_state();
    crate::quality::reset_state();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let line = format!("{{\"ev\":\"run_start\",\"cores\":{cores}}}");
    if let Some(w) = sink.as_mut() {
        let _ = writeln!(w, "{line}");
    }
    crate::flight::offer(&line);
    *STATE.lock().expect("obs state poisoned") = Some(RunState {
        start: Instant::now(),
        aggregates: HashMap::new(),
        sink,
        events_path: opts.events_path.clone(),
        seq: 0,
    });
    ENABLED.store(true, Ordering::SeqCst);
    Ok(())
}

/// Disarms recording and returns the run's [`Manifest`] (with the given
/// provenance `meta` attached), or `None` when no run was active.
pub fn finish_run(meta: &[(&str, String)]) -> Option<Manifest> {
    ENABLED.store(false, Ordering::SeqCst);
    let mut state = STATE.lock().expect("obs state poisoned").take()?;
    let wall_ns = state.start.elapsed().as_nanos() as u64;
    let line = format!("{{\"ev\":\"run_end\",\"wall_ns\":{wall_ns}}}");
    if let Some(w) = state.sink.as_mut() {
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
    crate::flight::offer(&line);
    let mut phases: Vec<PhaseRow> = state
        .aggregates
        .into_iter()
        .map(|((path, dataset, method), a)| PhaseRow {
            path,
            dataset,
            method,
            count: a.count,
            total_ns: a.total_ns,
            min_ns: a.min_ns,
            max_ns: a.max_ns,
        })
        .collect();
    phases.sort_by(|a, b| (&a.path, &a.dataset, &a.method).cmp(&(&b.path, &b.dataset, &b.method)));
    // Counters/gauges/histograms: only entries touched during this run;
    // same-name entries from different call sites merge.
    let mut counters: HashMap<&'static str, u64> = HashMap::new();
    for c in COUNTERS.lock().expect("counter registry poisoned").iter() {
        if c.dirty.load(Ordering::Relaxed) {
            *counters.entry(c.name).or_insert(0) += c.value.load(Ordering::Relaxed);
        }
    }
    let mut counters: Vec<(String, u64)> = counters
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    counters.sort();
    let mut gauges: HashMap<&'static str, f64> = HashMap::new();
    for g in GAUGES.lock().expect("gauge registry poisoned").iter() {
        if g.dirty.load(Ordering::Relaxed) {
            gauges.insert(g.name, g.get());
        }
    }
    let mut gauges: Vec<(String, f64)> = gauges
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    // Same-name histograms from different call sites merge: counts, sums
    // and min/max are exact; percentiles pool the kept samples.
    let mut hist_pool: HashMap<&'static str, Reservoir> = HashMap::new();
    for h in HISTOGRAMS
        .lock()
        .expect("histogram registry poisoned")
        .iter()
    {
        let r = h.samples.lock().expect("histogram poisoned");
        if r.seen > 0 {
            hist_pool
                .entry(h.name)
                .or_insert_with(Reservoir::new)
                .merge(&r);
        }
    }
    let mut histograms: Vec<HistSummary> = hist_pool
        .into_iter()
        .map(|(name, r)| r.summary(name.to_string()))
        .collect();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    let metric_map = METRICS
        .lock()
        .expect("metric registry poisoned")
        .take()
        .unwrap_or_default();
    let mut metrics: Vec<MetricRow> = metric_map
        .into_iter()
        .map(|((dataset, method, horizon, name), value)| MetricRow {
            dataset,
            method,
            horizon,
            name,
            value,
        })
        .collect();
    metrics.sort_by(|a, b| {
        (&a.dataset, &a.method, a.horizon, &a.name)
            .cmp(&(&b.dataset, &b.method, b.horizon, &b.name))
    });
    let mut health = HealthSummary::default();
    {
        let events = HEALTH_EVENTS.lock().expect("health registry poisoned");
        for (kind, dataset, method) in events.iter() {
            let cell = format!("{dataset}/{method}");
            match kind {
                HealthKind::Nan => health.nan_cells.push(cell.clone()),
                HealthKind::Diverged => health.diverged_cells.push(cell.clone()),
            }
            health.aborted_cells.push(cell);
        }
    }
    for cells in [
        &mut health.nan_cells,
        &mut health.diverged_cells,
        &mut health.aborted_cells,
    ] {
        cells.sort();
        cells.dedup();
    }
    let grad_map = GRAD_NORMS
        .lock()
        .expect("grad-norm registry poisoned")
        .take()
        .unwrap_or_default();
    let mut grad_norms: Vec<(String, HistSummary)> = grad_map
        .into_iter()
        .map(|(method, r)| {
            let summary = r.summary(method.clone());
            (method, summary)
        })
        .collect();
    grad_norms.sort_by(|a, b| a.0.cmp(&b.0));
    health.grad_norms = grad_norms;
    let mut meta: Vec<(String, String)> = meta
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    meta.sort();
    // SLO + exemplar sections appear only for runs that traced requests
    // (serve sessions); benchmark manifests stay byte-identical.
    let trace_snap = crate::trace::snapshot();
    let slo = trace_snap.slo.filter(|s| s.total > 0);
    let exemplars = if slo.is_some() {
        trace_snap.exemplars
    } else {
        Vec::new()
    };
    Some(Manifest {
        meta,
        cores: std::thread::available_parallelism().map_or(1, |p| p.get()),
        wall_ns,
        peak_rss_bytes: crate::peak_rss_bytes(),
        events_path: state.events_path.as_ref().map(|p| p.display().to_string()),
        phases,
        counters,
        gauges,
        histograms,
        metrics,
        measurements: Vec::new(),
        slo,
        exemplars,
        flight: crate::flight::manifest_summary(),
        // Quality appears only for runs that scored forecast/actual
        // joins; everything else stays byte-identical.
        quality: crate::quality::summary(),
        health,
    })
}

/// Appends one `{"ev":"trace",…}` line — a finished request trace with
/// its full phase breakdown — to the JSONL sink when one is open, and to
/// the flight recorder's ring when armed.
pub(crate) fn emit_trace_event(
    id: u64,
    status: crate::trace::TraceStatus,
    total_ns: u64,
    phase_ns: &[u64; crate::trace::PHASE_COUNT],
    batch_id: Option<u64>,
    batch_size: u64,
) {
    let thread = THREAD_ID.with(|t| *t);
    let mut guard = STATE.lock().expect("obs state poisoned");
    let Some(state) = guard.as_mut() else {
        return;
    };
    if state.sink.is_none() && !crate::flight::armed() {
        return;
    }
    state.seq += 1;
    let seq = state.seq;
    let t_ns = state.start.elapsed().as_nanos() as u64;
    let mut line = String::with_capacity(192);
    line.push_str(&format!(
        "{{\"ev\":\"trace\",\"seq\":{seq},\"t_ns\":{t_ns},\"thread\":{thread},\"trace_id\":\"{id:016x}\",\"status\":\"{}\",\"total_ns\":{total_ns}",
        status.label()
    ));
    match batch_id {
        Some(b) => line.push_str(&format!(",\"batch_id\":{b},\"batch_size\":{batch_size}")),
        None => line.push_str(",\"batch_id\":null,\"batch_size\":0"),
    }
    line.push_str(",\"phases\":{");
    let mut first = true;
    for p in crate::trace::Phase::ALL {
        let ns = phase_ns[p.index()];
        if ns == 0 {
            continue;
        }
        if !first {
            line.push(',');
        }
        first = false;
        line.push_str(&format!("\"{}\":{ns}", p.label()));
    }
    line.push_str("}}");
    if let Some(w) = state.sink.as_mut() {
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
    crate::flight::offer(&line);
}

/// Appends the profiler's flushed sample rows as `{"ev":"psample",…}`
/// lines: one per (thread name, collapsed stack), carrying the sample
/// count since the previous flush. Called by the sampler thread.
pub(crate) fn emit_profile_samples(rows: &[(String, String, u64)]) {
    let thread = THREAD_ID.with(|t| *t);
    let mut guard = STATE.lock().expect("obs state poisoned");
    let Some(state) = guard.as_mut() else {
        return;
    };
    if state.sink.is_none() && !crate::flight::armed() {
        return;
    }
    let t_ns = state.start.elapsed().as_nanos() as u64;
    for (name, stack, count) in rows {
        state.seq += 1;
        let seq = state.seq;
        let mut line = String::with_capacity(128);
        line.push_str(&format!(
            "{{\"ev\":\"psample\",\"seq\":{seq},\"t_ns\":{t_ns},\"thread\":{thread},\"name\":"
        ));
        json_str(&mut line, name);
        line.push_str(",\"stack\":");
        json_str(&mut line, stack);
        line.push_str(&format!(",\"count\":{count}}}"));
        if let Some(w) = state.sink.as_mut() {
            let _ = writeln!(w, "{line}");
        }
        crate::flight::offer(&line);
    }
    if let Some(w) = state.sink.as_mut() {
        let _ = w.flush();
    }
}

/// A point-in-time [`MetricsSnapshot`] of the live registries, without
/// disarming the run. Only entries touched since `start_run` appear;
/// same-name entries from different call sites merge; every table is
/// sorted by name. A long-lived serving process calls this from its
/// `/metrics` endpoint while requests keep flowing.
pub fn metrics_snapshot() -> MetricsSnapshot {
    let mut counters: HashMap<&'static str, u64> = HashMap::new();
    for c in COUNTERS.lock().expect("counter registry poisoned").iter() {
        if c.dirty.load(Ordering::Relaxed) {
            *counters.entry(c.name).or_insert(0) += c.value.load(Ordering::Relaxed);
        }
    }
    let mut counters: Vec<(String, u64)> = counters
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    counters.sort();
    let mut gauges: HashMap<&'static str, f64> = HashMap::new();
    for g in GAUGES.lock().expect("gauge registry poisoned").iter() {
        if g.dirty.load(Ordering::Relaxed) {
            gauges.insert(g.name, g.get());
        }
    }
    let mut gauges: Vec<(String, f64)> = gauges
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    let mut hist_pool: HashMap<&'static str, Reservoir> = HashMap::new();
    for h in HISTOGRAMS
        .lock()
        .expect("histogram registry poisoned")
        .iter()
    {
        let r = h.samples.lock().expect("histogram poisoned");
        if r.seen > 0 {
            hist_pool
                .entry(h.name)
                .or_insert_with(Reservoir::new)
                .merge(&r);
        }
    }
    let mut histograms: Vec<HistSummary> = hist_pool
        .into_iter()
        .map(|(name, r)| r.summary(name.to_string()))
        .collect();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    MetricsSnapshot {
        counters,
        gauges,
        histograms,
    }
}

/// Reports one per-cell accuracy metric (MAE, MSE, …) into the manifest's
/// `metrics` table. Last write for a given (dataset, method, horizon,
/// name) key wins. Outside a run: one relaxed load, nothing else.
pub fn report_metric(dataset: &str, method: &str, horizon: usize, name: &str, value: f64) {
    if !enabled() {
        return;
    }
    if let Some(map) = METRICS.lock().expect("metric registry poisoned").as_mut() {
        map.insert(
            (
                dataset.to_string(),
                method.to_string(),
                horizon,
                name.to_string(),
            ),
            value,
        );
    }
}

/// Records a numerical-health event (NaN loss, divergence abort, …) for
/// the current cell. The dataset/method are taken from the innermost
/// enclosing span that carries them, so call this from the thread the
/// cell's spans run on. Also appends a structured `health` event to the
/// JSONL sink when one is open.
pub fn health_event(kind: HealthKind, detail: &str) {
    if !enabled() {
        return;
    }
    let (dataset, method) = current_cell();
    HEALTH_EVENTS
        .lock()
        .expect("health registry poisoned")
        .push((kind, dataset.clone(), method.clone()));
    let mut guard = STATE.lock().expect("obs state poisoned");
    if let Some(state) = guard.as_mut() {
        if state.sink.is_some() || crate::flight::armed() {
            state.seq += 1;
            let seq = state.seq;
            let t_ns = state.start.elapsed().as_nanos() as u64;
            let mut line = String::with_capacity(96);
            line.push_str(&format!(
                "{{\"ev\":\"health\",\"seq\":{seq},\"t_ns\":{t_ns},\"kind\":\"{}\",\"dataset\":",
                kind.label()
            ));
            json_str(&mut line, &dataset);
            line.push_str(",\"method\":");
            json_str(&mut line, &method);
            line.push_str(",\"detail\":");
            json_str(&mut line, detail);
            line.push('}');
            if let Some(w) = state.sink.as_mut() {
                let _ = writeln!(w, "{line}");
            }
            crate::flight::offer(&line);
        }
    }
    // A numerical-health sentinel is a flight trigger: dump the recent
    // past (rate-limited) after releasing the recorder's state lock.
    drop(guard);
    crate::flight::dump(&format!("health:{}", kind.label()));
}

/// Records one gradient-norm sample for the current cell's method (from
/// the innermost enclosing span carrying one; "" when none does). Flushed
/// as per-method histograms under the manifest's `health.grad_norms`.
pub fn record_grad_norm(value: f64) {
    if !enabled() {
        return;
    }
    let (_, method) = current_cell();
    if let Some(map) = GRAD_NORMS
        .lock()
        .expect("grad-norm registry poisoned")
        .as_mut()
    {
        map.entry(method)
            .or_insert_with(Reservoir::new)
            .offer(value);
    }
}

/// The (dataset, method) context of the innermost span on this thread's
/// stack that carries them ("" when nothing does).
fn current_cell() -> (String, String) {
    STACK.with(|stack| {
        let stack = stack.borrow();
        let dataset = stack
            .iter()
            .rev()
            .find_map(|f| f.dataset.clone())
            .unwrap_or_default();
        let method = stack
            .iter()
            .rev()
            .find_map(|f| f.method.clone())
            .unwrap_or_default();
        (dataset, method)
    })
}

/// An RAII span guard: created by [`Span::enter`] (or the
/// [`span!`](crate::span!) macro), records elapsed wall time on drop.
#[must_use = "a span measures the scope it is bound to; bind it to a variable"]
pub struct Span {
    active: Option<SpanData>,
}

struct SpanData {
    idx: usize,
    start: Instant,
    str_fields: Vec<(&'static str, String)>,
    num_fields: Vec<(&'static str, f64)>,
}

impl Span {
    /// Opens a span. Nesting and the `dataset`/`method` context are
    /// tracked per thread; outside a run this is a no-op.
    pub fn enter(name: &'static str) -> Span {
        if !enabled() {
            return Span { active: None };
        }
        let idx = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let (path, dataset, method) = match stack.last() {
                Some(parent) => (
                    format!("{}.{}", parent.path, name),
                    parent.dataset.clone(),
                    parent.method.clone(),
                ),
                None => (name.to_string(), None, None),
            };
            stack.push(Frame {
                path,
                dataset,
                method,
            });
            stack.len() - 1
        });
        crate::flight::profiler::frame_push(name);
        Span {
            active: Some(SpanData {
                idx,
                start: Instant::now(),
                str_fields: Vec::new(),
                num_fields: Vec::new(),
            }),
        }
    }

    /// Attaches a field. `dataset` and `method` are special: they key the
    /// manifest's per-cell breakdown and are inherited by nested spans;
    /// everything else lands in the event record only.
    pub fn with(mut self, key: &'static str, value: &dyn Display) -> Span {
        if let Some(data) = self.active.as_mut() {
            let value = value.to_string();
            match key {
                "dataset" | "method" => STACK.with(|stack| {
                    if let Some(frame) = stack.borrow_mut().get_mut(data.idx) {
                        if key == "dataset" {
                            frame.dataset = Some(value);
                        } else {
                            frame.method = Some(value);
                        }
                    }
                }),
                _ => data.str_fields.push((key, value)),
            }
        }
        self
    }

    /// Attaches a numeric field (per-epoch loss, FLOP estimates, …) to the
    /// span's event record.
    pub fn record(mut self, key: &'static str, value: f64) -> Span {
        if let Some(data) = self.active.as_mut() {
            data.num_fields.push((key, value));
        }
        self
    }

    /// Explicitly closes the span (dropping it does the same).
    pub fn close(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(data) = self.active.take() else {
            return;
        };
        crate::flight::profiler::frame_pop();
        let ns = data.start.elapsed().as_nanos() as u64;
        let frame = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if data.idx < stack.len() {
                let frame = stack.swap_remove(data.idx);
                // Mis-nested drops (a parent outliving its guard order)
                // still truncate to this span's depth.
                stack.truncate(data.idx);
                Some(frame)
            } else {
                None
            }
        });
        let Some(frame) = frame else { return };
        let thread = THREAD_ID.with(|t| *t);
        record_closed_span(
            frame.path,
            frame.dataset.unwrap_or_default(),
            frame.method.unwrap_or_default(),
            &data.str_fields,
            &data.num_fields,
            ns,
            data.idx,
            thread,
        );
    }
}

/// Aggregates one closed span and appends its event to the sink.
#[allow(clippy::too_many_arguments)]
fn record_closed_span(
    path: String,
    dataset: String,
    method: String,
    str_fields: &[(&'static str, String)],
    num_fields: &[(&'static str, f64)],
    ns: u64,
    depth: usize,
    thread: u64,
) {
    let mut guard = STATE.lock().expect("obs state poisoned");
    let Some(state) = guard.as_mut() else {
        return;
    };
    let entry = state
        .aggregates
        .entry((path.clone(), dataset.clone(), method.clone()))
        .or_insert(Agg {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        });
    entry.count += 1;
    entry.total_ns += ns;
    entry.min_ns = entry.min_ns.min(ns);
    entry.max_ns = entry.max_ns.max(ns);
    if state.sink.is_some() || crate::flight::armed() {
        state.seq += 1;
        let seq = state.seq;
        let t_ns = state.start.elapsed().as_nanos() as u64;
        let mut line = String::with_capacity(128);
        line.push_str(&format!(
            "{{\"ev\":\"span\",\"seq\":{seq},\"t_ns\":{t_ns},\"thread\":{thread},\"depth\":{depth},\"path\":"
        ));
        json_str(&mut line, &path);
        line.push_str(",\"dataset\":");
        json_str(&mut line, &dataset);
        line.push_str(",\"method\":");
        json_str(&mut line, &method);
        line.push_str(&format!(",\"ns\":{ns}"));
        if !str_fields.is_empty() || !num_fields.is_empty() {
            line.push_str(",\"fields\":{");
            let mut first = true;
            for (k, v) in str_fields {
                if !first {
                    line.push(',');
                }
                first = false;
                json_str(&mut line, k);
                line.push(':');
                json_str(&mut line, v);
            }
            for (k, v) in num_fields {
                if !first {
                    line.push(',');
                }
                first = false;
                json_str(&mut line, k);
                line.push(':');
                json_num(&mut line, *v);
            }
            line.push('}');
        }
        line.push('}');
        if let Some(w) = state.sink.as_mut() {
            let _ = writeln!(w, "{line}");
        }
        crate::flight::offer(&line);
    }
}

/// A monotonic counter. Declare one per call site with
/// [`counter!`](crate::counter!); same-name counters merge in the
/// manifest.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    dirty: AtomicBool,
    registered: AtomicBool,
}

impl Counter {
    /// A zeroed counter (const: usable in statics).
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
            dirty: AtomicBool::new(false),
            registered: AtomicBool::new(false),
        }
    }

    /// Adds `n`. Outside a run: one relaxed load, nothing else.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
        self.dirty.store(true, Ordering::Relaxed);
        if !self.registered.swap(true, Ordering::Relaxed) {
            COUNTERS
                .lock()
                .expect("counter registry poisoned")
                .push(self);
        }
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value gauge. Declare one per call site with
/// [`gauge!`](crate::gauge!).
pub struct Gauge {
    name: &'static str,
    bits: AtomicU64,
    dirty: AtomicBool,
    registered: AtomicBool,
}

impl Gauge {
    /// A zeroed gauge (const: usable in statics).
    pub const fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            bits: AtomicU64::new(0),
            dirty: AtomicBool::new(false),
            registered: AtomicBool::new(false),
        }
    }

    /// Stores `v`. Outside a run: one relaxed load, nothing else.
    #[inline]
    pub fn set(&'static self, v: f64) {
        if !enabled() {
            return;
        }
        self.bits.store(v.to_bits(), Ordering::Relaxed);
        self.dirty.store(true, Ordering::Relaxed);
        if !self.registered.swap(true, Ordering::Relaxed) {
            GAUGES.lock().expect("gauge registry poisoned").push(self);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Default reservoir capacity: the kept-sample bound per histogram.
pub const RESERVOIR_CAP: usize = 4096;

/// A bounded sample reservoir with deterministic, seed-free decimation.
///
/// Keeps every `stride`-th offered sample; when the kept set reaches
/// [`RESERVOIR_CAP`], it drops every other kept sample (even indices
/// survive) and doubles the stride. `seen`, `sum`, `min` and `max` are
/// always exact — only percentiles come from the kept subset, and those
/// stay exact until the cap is first reached. No RNG: the kept set is a
/// pure function of the offer order, so single-threaded runs are
/// bit-reproducible.
#[derive(Debug, Clone)]
pub(crate) struct Reservoir {
    stride: u64,
    seen: u64,
    sum: f64,
    min: f64,
    max: f64,
    samples: Vec<f64>,
}

impl Reservoir {
    /// An empty reservoir (const: usable in statics).
    pub(crate) const fn new() -> Reservoir {
        Reservoir {
            stride: 1,
            seen: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            samples: Vec::new(),
        }
    }

    /// Back to the empty state (capacity retained).
    pub(crate) fn reset(&mut self) {
        self.stride = 1;
        self.seen = 0;
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
        self.samples.clear();
    }

    /// Offers one sample: exact stats always update; the sample is kept
    /// only when it falls on the current stride.
    pub(crate) fn offer(&mut self, v: f64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.samples.len() >= RESERVOIR_CAP {
                // Decimate: keep even indices, double the stride.
                let mut i = 0;
                self.samples.retain(|_| {
                    let keep = i % 2 == 0;
                    i += 1;
                    keep
                });
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.samples.push(v);
            }
        }
        self.seen += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another reservoir in: exact stats combine exactly; kept
    /// samples pool (percentiles over the union of both subsets).
    pub(crate) fn merge(&mut self, other: &Reservoir) {
        self.seen += other.seen;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.samples.extend_from_slice(&other.samples);
        self.stride = self.stride.max(other.stride);
    }

    /// Flushes to a [`HistSummary`]: count/mean/min/max exact, percentiles
    /// from the kept samples.
    pub(crate) fn summary(mut self, name: String) -> HistSummary {
        self.samples
            .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        HistSummary {
            name,
            count: self.seen as usize,
            mean: if self.seen > 0 {
                self.sum / self.seen as f64
            } else {
                f64::NAN
            },
            min: self.min,
            max: self.max,
            p50: percentile(&self.samples, 50.0),
            p90: percentile(&self.samples, 90.0),
            p99: percentile(&self.samples, 99.0),
        }
    }
}

/// A bounded-memory histogram (percentiles computed at flush from a
/// capped [`Reservoir`]; count/mean/min/max stay exact). Declare one per
/// call site with [`histogram!`](crate::histogram!).
pub struct Histogram {
    name: &'static str,
    samples: Mutex<Reservoir>,
    registered: AtomicBool,
}

impl Histogram {
    /// An empty histogram (const: usable in statics).
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            samples: Mutex::new(Reservoir::new()),
            registered: AtomicBool::new(false),
        }
    }

    /// Records one sample. Outside a run: one relaxed load, nothing else.
    #[inline]
    pub fn record(&'static self, v: f64) {
        if !enabled() {
            return;
        }
        self.samples.lock().expect("histogram poisoned").offer(v);
        if !self.registered.swap(true, Ordering::Relaxed) {
            HISTOGRAMS
                .lock()
                .expect("histogram registry poisoned")
                .push(self);
        }
    }
}

/// Test-only hooks (aggregation with injected durations, so determinism
/// tests do not depend on wall clocks).
#[doc(hidden)]
pub mod test_support {
    /// Records a synthetic closed span with an exact duration.
    pub fn record_span_ns(path: &str, dataset: &str, method: &str, ns: u64) {
        if !super::enabled() {
            return;
        }
        super::record_closed_span(
            path.to_string(),
            dataset.to_string(),
            method.to_string(),
            &[],
            &[],
            ns,
            0,
            0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::percentile;

    #[test]
    fn reservoir_is_exact_below_cap() {
        let mut r = Reservoir::new();
        for i in 1..=100 {
            r.offer(i as f64);
        }
        assert_eq!(r.samples.len(), 100);
        let s = r.summary("x".to_string());
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p99, 99.0);
        assert!((s.mean - 50.5).abs() < 1e-12);
    }

    #[test]
    fn reservoir_memory_is_bounded() {
        let mut r = Reservoir::new();
        for i in 0..1_000_000u64 {
            r.offer(i as f64);
        }
        assert!(
            r.samples.len() <= RESERVOIR_CAP,
            "kept {} > cap {}",
            r.samples.len(),
            RESERVOIR_CAP
        );
        assert_eq!(r.seen, 1_000_000);
    }

    #[test]
    fn reservoir_percentiles_within_one_percent_of_exact_on_1e6_samples() {
        // A skewed deterministic stream (quadratic ramp) so percentiles
        // differ meaningfully from the mean.
        let n = 1_000_000u64;
        let val = |i: u64| {
            let x = i as f64 / n as f64;
            x * x * 1000.0
        };
        let mut r = Reservoir::new();
        let mut exact: Vec<f64> = Vec::with_capacity(n as usize);
        for i in 0..n {
            let v = val(i);
            r.offer(v);
            exact.push(v);
        }
        exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let s = r.clone().summary("x".to_string());
        // Exact invariants survive decimation.
        assert_eq!(s.count, n as usize);
        assert_eq!(s.min, exact[0]);
        assert_eq!(s.max, exact[exact.len() - 1]);
        let exact_mean = exact.iter().sum::<f64>() / n as f64;
        assert!((s.mean - exact_mean).abs() / exact_mean < 1e-12);
        // Percentiles within 1% relative error of the exact values.
        for (q, got) in [(50.0, s.p50), (90.0, s.p90), (99.0, s.p99)] {
            let want = percentile(&exact, q);
            let rel = (got - want).abs() / want.abs().max(1e-12);
            assert!(rel < 0.01, "p{q}: got {got}, want {want}, rel {rel}");
        }
    }

    #[test]
    fn reservoir_decimation_is_deterministic() {
        let run = || {
            let mut r = Reservoir::new();
            for i in 0..300_000u64 {
                r.offer((i % 977) as f64);
            }
            r
        };
        let (a, b) = (run(), run());
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.stride, b.stride);
        assert_eq!(a.seen, b.seen);
    }

    #[test]
    fn reservoir_merge_combines_exact_stats() {
        let mut a = Reservoir::new();
        let mut b = Reservoir::new();
        for i in 1..=10 {
            a.offer(i as f64);
        }
        for i in 11..=20 {
            b.offer(i as f64);
        }
        a.merge(&b);
        let s = a.summary("x".to_string());
        assert_eq!(s.count, 20);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 20.0);
        assert!((s.mean - 10.5).abs() < 1e-12);
    }
}
