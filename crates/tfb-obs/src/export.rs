//! Chrome/Perfetto trace-event export: turns a run's JSONL event log
//! (spans from any run, request traces from serve sessions) into the
//! Trace Event JSON format `chrome://tracing` and https://ui.perfetto.dev
//! load directly.
//!
//! Mapping:
//!
//! * every closed span becomes an `"X"` (complete) slice on its thread's
//!   lane — `ts` is the span's start, `dur` its wall time, both in µs;
//! * every request trace becomes a `"request"` slice on the connection
//!   handler's lane, with its phases laid out as consecutive child
//!   slices (`phase:parse`, `phase:queue`, …) reconstructed from the
//!   phase breakdown;
//! * `serve.batch` spans (on the lane of the connection thread that
//!   combined the batch) link to the requests they carried via
//!   `"s"`/`"f"` flow events keyed by batch id;
//! * `"M"` metadata events name the process and each thread lane; a
//!   lane that ran a shard's batches is labelled `shard N connection`.
//!
//! Event kinds the exporter does not draw (`run_start`, `health`, and
//! the `steal` records older serving logs carry) are skipped.
//!
//! The output is deterministic for a given input: events are sorted by
//! `(ts, tid, phase-kind, name)` before serialization.

use std::collections::{BTreeMap, BTreeSet};
use tfb_json::JsonValue;

/// One pending trace event before sorting.
struct Event {
    ts_us: f64,
    dur_us: Option<f64>,
    ph: &'static str,
    tid: u64,
    name: String,
    cat: Option<&'static str>,
    id: Option<u64>,
    args: Vec<(String, JsonValue)>,
}

fn get_u64(v: &JsonValue, key: &str) -> Option<u64> {
    v.get(key).and_then(|n| n.as_f64()).map(|n| n as u64)
}

fn get_str<'a>(v: &'a JsonValue, key: &str) -> Option<&'a str> {
    v.get(key).and_then(|s| s.as_str())
}

/// Converts a JSONL event log (as written by the run sink) into Chrome
/// Trace Event JSON. Unknown event kinds are skipped; a line that is not
/// JSON at all is an error (the log is corrupt, not just newer).
pub fn chrome_trace(events: &str) -> Result<String, String> {
    let mut out: Vec<Event> = Vec::new();
    let mut tids: BTreeSet<u64> = BTreeSet::new();
    let mut batch_tids: BTreeSet<u64> = BTreeSet::new();
    // Where each batch ran: batch id → (tid, start µs).
    let mut batch_spans: BTreeMap<u64, (u64, f64)> = BTreeMap::new();
    // (batch id, request ts, request tid)
    let mut flows: Vec<(u64, f64, u64)> = Vec::new();
    // Which shard's batches each tid combined.
    let mut shard_of_tid: BTreeMap<u64, u64> = BTreeMap::new();
    // Profiler counter tracks: (thread name, ts µs) → samples in the tick.
    let mut psamples: BTreeMap<(String, u64), u64> = BTreeMap::new();
    let mut psample_tids: BTreeMap<String, u64> = BTreeMap::new();
    for (lineno, line) in events.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = JsonValue::parse(line)
            .map_err(|e| format!("line {}: not valid JSON: {e}", lineno + 1))?;
        match get_str(&v, "ev") {
            Some("span") => {
                let t_ns = get_u64(&v, "t_ns").unwrap_or(0);
                let ns = get_u64(&v, "ns").unwrap_or(0);
                let thread = get_u64(&v, "thread").unwrap_or(0);
                let path = get_str(&v, "path").unwrap_or("span").to_string();
                let ts_us = t_ns.saturating_sub(ns) as f64 / 1e3;
                tids.insert(thread);
                let mut args: Vec<(String, JsonValue)> = Vec::new();
                for key in ["dataset", "method"] {
                    if let Some(val) = get_str(&v, key) {
                        if !val.is_empty() {
                            args.push((key.to_string(), JsonValue::String(val.to_string())));
                        }
                    }
                }
                if let Some(fields) = v.get("fields").and_then(|f| f.as_object()) {
                    for (k, fv) in fields {
                        args.push((k.clone(), fv.clone()));
                    }
                }
                if path == "serve.batch" {
                    batch_tids.insert(thread);
                    let fields = v.get("fields");
                    if let Some(batch_id) = fields
                        .and_then(|f| f.get("batch_id"))
                        .and_then(|b| b.as_f64())
                    {
                        batch_spans
                            .entry(batch_id as u64)
                            .or_insert((thread, ts_us));
                    }
                    if let Some(shard) =
                        fields.and_then(|f| f.get("shard")).and_then(|s| s.as_f64())
                    {
                        shard_of_tid.entry(thread).or_insert(shard as u64);
                    }
                }
                out.push(Event {
                    ts_us,
                    dur_us: Some(ns as f64 / 1e3),
                    ph: "X",
                    tid: thread,
                    name: path,
                    cat: None,
                    id: None,
                    args,
                });
            }
            Some("trace") => {
                let t_ns = get_u64(&v, "t_ns").unwrap_or(0);
                let total_ns = get_u64(&v, "total_ns").unwrap_or(0);
                let thread = get_u64(&v, "thread").unwrap_or(0);
                let start_us = t_ns.saturating_sub(total_ns) as f64 / 1e3;
                tids.insert(thread);
                let trace_id = get_str(&v, "trace_id").unwrap_or("").to_string();
                let mut args = vec![("trace_id".to_string(), JsonValue::String(trace_id.clone()))];
                if let Some(status) = get_str(&v, "status") {
                    args.push(("status".to_string(), JsonValue::String(status.to_string())));
                }
                let batch_id = match v.get("batch_id") {
                    Some(JsonValue::Number(b)) => Some(*b as u64),
                    _ => None,
                };
                if let Some(b) = batch_id {
                    args.push(("batch_id".to_string(), JsonValue::Number(b as f64)));
                    flows.push((b, start_us, thread));
                }
                out.push(Event {
                    ts_us: start_us,
                    dur_us: Some(total_ns as f64 / 1e3),
                    ph: "X",
                    tid: thread,
                    name: format!("request {}", &trace_id[..trace_id.len().min(8)]),
                    cat: None,
                    id: None,
                    args,
                });
                // Phases as consecutive child slices, in causal order.
                let mut cursor = start_us;
                if let Some(phases) = v.get("phases").and_then(|p| p.as_object()) {
                    for phase in crate::trace::Phase::ALL {
                        let Some(ns) = phases
                            .iter()
                            .find(|(k, _)| k.as_str() == phase.label())
                            .and_then(|(_, n)| n.as_f64())
                        else {
                            continue;
                        };
                        let dur = ns / 1e3;
                        out.push(Event {
                            ts_us: cursor,
                            dur_us: Some(dur),
                            ph: "X",
                            tid: thread,
                            name: format!("phase:{}", phase.label()),
                            cat: None,
                            id: None,
                            args: Vec::new(),
                        });
                        cursor += dur;
                    }
                }
            }
            Some("psample") => {
                let t_ns = get_u64(&v, "t_ns").unwrap_or(0);
                let thread = get_u64(&v, "thread").unwrap_or(0);
                let name = get_str(&v, "name").unwrap_or("?").to_string();
                let count = get_u64(&v, "count").unwrap_or(0);
                psample_tids.entry(name.clone()).or_insert(thread);
                *psamples.entry((name, t_ns)).or_insert(0) += count;
            }
            // run_start/run_end/health carry no timeline geometry.
            _ => {}
        }
    }
    // Flow arrows request → batch, keyed by batch id.
    for (batch_id, ts, tid) in flows {
        let Some(&(batch_tid, batch_ts)) = batch_spans.get(&batch_id) else {
            continue;
        };
        out.push(Event {
            ts_us: ts,
            dur_us: None,
            ph: "s",
            tid,
            name: "batch".to_string(),
            cat: Some("batch"),
            id: Some(batch_id),
            args: Vec::new(),
        });
        out.push(Event {
            ts_us: batch_ts,
            dur_us: None,
            ph: "f",
            tid: batch_tid,
            name: "batch".to_string(),
            cat: Some("batch"),
            id: Some(batch_id),
            args: Vec::new(),
        });
    }
    // Profiler sample rates as Perfetto counter tracks, one per profiled
    // thread, summed across stacks per flush tick.
    for (&(ref name, t_ns), &count) in &psamples {
        let tid = psample_tids.get(name).copied().unwrap_or(0);
        out.push(Event {
            ts_us: t_ns as f64 / 1e3,
            dur_us: None,
            ph: "C",
            tid,
            name: format!("profile:{name}"),
            cat: None,
            id: None,
            args: vec![("samples".to_string(), JsonValue::Number(count as f64))],
        });
    }
    out.sort_by(|a, b| {
        a.ts_us
            .total_cmp(&b.ts_us)
            .then(a.tid.cmp(&b.tid))
            .then(a.ph.cmp(b.ph))
            .then(a.name.cmp(&b.name))
    });
    let mut trace_events: Vec<JsonValue> = Vec::new();
    trace_events.push(meta_event(0, "process_name", "name", "tfb"));
    for &tid in &tids {
        let label = if let Some(shard) = shard_of_tid.get(&tid) {
            format!("shard {shard} connection")
        } else if batch_tids.contains(&tid) {
            "batch worker".to_string()
        } else {
            format!("worker-{tid}")
        };
        trace_events.push(meta_event(tid, "thread_name", "name", &label));
    }
    for e in out {
        let mut obj: Vec<(String, JsonValue)> = vec![
            ("ph".to_string(), JsonValue::String(e.ph.to_string())),
            ("name".to_string(), JsonValue::String(e.name)),
            ("pid".to_string(), JsonValue::Number(1.0)),
            ("tid".to_string(), JsonValue::Number(e.tid as f64)),
            ("ts".to_string(), JsonValue::Number(e.ts_us)),
        ];
        if let Some(dur) = e.dur_us {
            obj.push(("dur".to_string(), JsonValue::Number(dur)));
        }
        if let Some(cat) = e.cat {
            obj.push(("cat".to_string(), JsonValue::String(cat.to_string())));
        }
        if let Some(id) = e.id {
            obj.push(("id".to_string(), JsonValue::Number(id as f64)));
            if e.ph == "f" {
                obj.push(("bp".to_string(), JsonValue::String("e".to_string())));
            }
        }
        if e.ph == "i" {
            obj.push(("s".to_string(), JsonValue::String("t".to_string())));
        }
        if !e.args.is_empty() {
            obj.push(("args".to_string(), JsonValue::Object(e.args)));
        }
        trace_events.push(JsonValue::Object(obj));
    }
    let doc = JsonValue::Object(vec![
        ("traceEvents".to_string(), JsonValue::Array(trace_events)),
        (
            "displayTimeUnit".to_string(),
            JsonValue::String("ms".to_string()),
        ),
    ]);
    Ok(doc.compact() + "\n")
}

fn meta_event(tid: u64, name: &str, arg_key: &str, arg_val: &str) -> JsonValue {
    JsonValue::Object(vec![
        ("ph".to_string(), JsonValue::String("M".to_string())),
        ("name".to_string(), JsonValue::String(name.to_string())),
        ("pid".to_string(), JsonValue::Number(1.0)),
        ("tid".to_string(), JsonValue::Number(tid as f64)),
        (
            "args".to_string(),
            JsonValue::Object(vec![(
                arg_key.to_string(),
                JsonValue::String(arg_val.to_string()),
            )]),
        ),
    ])
}

/// Aggregates `psample` profiler events from a JSONL event log into the
/// collapsed-stack format flamegraph tools consume: one
/// `thread;frame;frame count` line per distinct stack, sorted. Returns an
/// empty string when the log carries no samples (profiler was off).
pub fn collapsed_profile(events: &str) -> Result<String, String> {
    let mut agg: BTreeMap<(String, String), u64> = BTreeMap::new();
    for (lineno, line) in events.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = JsonValue::parse(line)
            .map_err(|e| format!("line {}: not valid JSON: {e}", lineno + 1))?;
        if get_str(&v, "ev") != Some("psample") {
            continue;
        }
        let name = get_str(&v, "name").unwrap_or("?").to_string();
        let stack = get_str(&v, "stack").unwrap_or("<idle>").to_string();
        let count = get_u64(&v, "count").unwrap_or(0);
        *agg.entry((name, stack)).or_insert(0) += count;
    }
    let mut out = String::new();
    for ((name, stack), count) in agg {
        out.push_str(&format!("{name};{stack} {count}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> String {
        [
            r#"{"ev":"run_start","cores":4}"#,
            r#"{"ev":"span","seq":1,"t_ns":2000000,"thread":3,"depth":0,"path":"serve.batch","dataset":"","method":"","ns":1500000,"fields":{"batch_id":7,"rows":2}}"#,
            r#"{"ev":"trace","seq":2,"t_ns":2400000,"thread":1,"trace_id":"00000001000000aa","status":"ok","total_ns":2100000,"batch_id":7,"batch_size":2,"phases":{"parse":100000,"queue":200000,"collect":300000,"infer":750000,"dispatch":250000,"write":500000}}"#,
            r#"{"ev":"trace","seq":3,"t_ns":2500000,"thread":2,"trace_id":"00000001000000ab","status":"ok","total_ns":2200000,"batch_id":7,"batch_size":2,"phases":{"parse":100000,"infer":750000,"write":400000}}"#,
            r#"{"ev":"run_end","wall_ns":5000000}"#,
        ]
        .join("\n")
            + "\n"
    }

    #[test]
    fn export_is_valid_chrome_trace_json_with_lanes_and_flows() {
        let json = chrome_trace(&sample_events()).expect("export");
        let doc = JsonValue::parse(&json).expect("output is valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        let ph = |e: &JsonValue| {
            e.get("ph")
                .and_then(|p| p.as_str())
                .unwrap_or("")
                .to_string()
        };
        let name = |e: &JsonValue| {
            e.get("name")
                .and_then(|p| p.as_str())
                .unwrap_or("")
                .to_string()
        };
        // Thread lanes: the batch worker's lane is named distinctly from
        // the connection handlers'.
        let lane_names: Vec<String> = events
            .iter()
            .filter(|e| ph(e) == "M" && name(e) == "thread_name")
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|n| n.as_str())
                    .map(str::to_string)
            })
            .collect();
        assert!(
            lane_names.contains(&"batch worker".to_string()),
            "{lane_names:?}"
        );
        assert!(
            lane_names.contains(&"worker-1".to_string()),
            "{lane_names:?}"
        );
        assert!(
            lane_names.contains(&"worker-2".to_string()),
            "{lane_names:?}"
        );
        // Request slices plus per-phase child slices.
        let request_slices: Vec<&JsonValue> = events
            .iter()
            .filter(|e| ph(e) == "X" && name(e).starts_with("request "))
            .collect();
        assert_eq!(request_slices.len(), 2);
        let phase_slices = events
            .iter()
            .filter(|e| ph(e) == "X" && name(e).starts_with("phase:"))
            .count();
        assert_eq!(phase_slices, 6 + 3);
        // Flow events pair up per request, keyed by the batch id.
        let starts = events.iter().filter(|e| ph(e) == "s").count();
        let finishes = events.iter().filter(|e| ph(e) == "f").count();
        assert_eq!(starts, 2);
        assert_eq!(finishes, 2);
        // Every slice has non-negative geometry.
        for e in events {
            if ph(e) == "X" {
                assert!(e.get("ts").and_then(|v| v.as_f64()).unwrap() >= 0.0);
                assert!(e.get("dur").and_then(|v| v.as_f64()).unwrap() >= 0.0);
            }
        }
    }

    fn sharded_events() -> String {
        [
            r#"{"ev":"span","seq":1,"t_ns":2000000,"thread":3,"depth":0,"path":"serve.batch","dataset":"","method":"","ns":1500000,"fields":{"batch_id":7,"shard":0,"rows":2}}"#,
            r#"{"ev":"span","seq":2,"t_ns":2600000,"thread":4,"depth":0,"path":"serve.batch","dataset":"","method":"","ns":400000,"fields":{"batch_id":8,"shard":1,"rows":1}}"#,
            // A work-steal record as older serving logs carry it.
            r#"{"ev":"steal","seq":3,"t_ns":2700000,"thread":4,"from":0,"to":1,"moved":3}"#,
            r#"{"ev":"psample","seq":4,"t_ns":3000000,"thread":3,"name":"conn-s0","stack":"serve.batch;serve.infer","count":5}"#,
            r#"{"ev":"psample","seq":5,"t_ns":3000000,"thread":3,"name":"conn-s0","stack":"<idle>","count":2}"#,
        ]
        .join("\n")
            + "\n"
    }

    #[test]
    fn sharded_export_has_shard_lanes_and_counter_tracks_and_skips_steals() {
        let json = chrome_trace(&sharded_events()).expect("old steal lines are skipped");
        let doc = JsonValue::parse(&json).expect("output is valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        fn ph(e: &JsonValue) -> &str {
            e.get("ph").and_then(|p| p.as_str()).unwrap_or("")
        }
        fn name(e: &JsonValue) -> &str {
            e.get("name").and_then(|p| p.as_str()).unwrap_or("")
        }
        // Lanes that ran a shard's batches are labelled per shard, not
        // with the generic name.
        let lane_names: Vec<String> = events
            .iter()
            .filter(|e| ph(e) == "M" && name(e) == "thread_name")
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|n| n.as_str())
                    .map(str::to_string)
            })
            .collect();
        assert!(
            lane_names.contains(&"shard 0 connection".to_string()),
            "{lane_names:?}"
        );
        assert!(
            lane_names.contains(&"shard 1 connection".to_string()),
            "{lane_names:?}"
        );
        // The steal record draws nothing: no instant, no flow arrow.
        assert!(events.iter().all(|e| ph(e) != "i"));
        assert!(events.iter().all(|e| !name(e).contains("steal")));
        // Profiler samples become a counter track summed across stacks.
        let counters: Vec<&JsonValue> = events.iter().filter(|e| ph(e) == "C").collect();
        assert_eq!(counters.len(), 1);
        assert_eq!(name(counters[0]), "profile:conn-s0");
        assert_eq!(
            counters[0]
                .get("args")
                .and_then(|a| a.get("samples"))
                .and_then(|n| n.as_f64()),
            Some(7.0)
        );
    }

    #[test]
    fn collapsed_profile_aggregates_by_stack() {
        let collapsed = collapsed_profile(&sharded_events()).expect("collapse");
        assert_eq!(
            collapsed,
            "conn-s0;<idle> 2\nconn-s0;serve.batch;serve.infer 5\n"
        );
        // Logs without samples collapse to nothing, not an error.
        assert_eq!(collapsed_profile(&sample_events()).expect("empty"), "");
    }

    #[test]
    fn export_is_deterministic_for_identical_inputs() {
        let a = chrome_trace(&sample_events()).expect("export");
        let b = chrome_trace(&sample_events()).expect("export");
        assert_eq!(a, b);
    }

    #[test]
    fn corrupt_lines_are_an_error_but_unknown_events_are_not() {
        assert!(chrome_trace("this is not json\n").is_err());
        let future = r#"{"ev":"hologram","t_ns":1}"#.to_string() + "\n";
        let json = chrome_trace(&future).expect("unknown event kinds are skipped");
        assert!(json.contains("traceEvents"));
    }
}
