//! Integration tests for per-request tracing under concurrency: id
//! uniqueness, phase-sum ≤ end-to-end bounds (via the JSONL event
//! sink), the SLO tracker, the exemplar ring, and the OpenMetrics
//! rendering of the live state.
//!
//! The trace registries are process-global, so every test that arms a
//! run serializes through `RUN_LOCK`.

#![cfg(feature = "record")]

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tfb_json::JsonValue;
use tfb_obs::trace::{self, Phase, RequestTrace, SloConfig, TraceStatus, EXEMPLAR_CAP};
use tfb_obs::{finish_run, start_run, Manifest, RunOptions};

static RUN_LOCK: Mutex<()> = Mutex::new(());

fn with_run(opts: RunOptions, f: impl FnOnce()) -> Manifest {
    let _guard = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    start_run(opts).expect("start_run");
    f();
    finish_run(&[("test", "1".to_string())]).expect("finish_run returns a manifest")
}

fn temp_events(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tfb_trace_{tag}_{}.jsonl", std::process::id()))
}

/// Simulates one traced request with real elapsed time, so the phase
/// sums the sink records are genuinely bounded by the end-to-end total.
fn simulate_request(batch_id: u64) {
    let mut t = RequestTrace::begin();
    assert!(t.active(), "trace must be live inside a run");
    std::thread::sleep(Duration::from_micros(30));
    t.mark(Phase::Parse);
    // The coalescer-side wait is measured for real: the three absorbed
    // components sum to at most the wall time that actually passed.
    let waited_from = Instant::now();
    std::thread::sleep(Duration::from_micros(90));
    let waited = waited_from.elapsed().as_nanos() as u64;
    t.absorb_batch(waited / 3, waited / 3, waited / 3, batch_id, 4);
    std::thread::sleep(Duration::from_micros(10));
    t.mark(Phase::Write);
    t.finish();
}

#[test]
fn trace_ids_unique_and_phase_sums_bounded_under_48_threads() {
    let events = temp_events("load");
    let _ = std::fs::remove_file(&events);
    let manifest = with_run(
        RunOptions {
            events_path: Some(events.clone()),
        },
        || {
            std::thread::scope(|scope| {
                for i in 0..48u64 {
                    scope.spawn(move || simulate_request(i % 7 + 1));
                }
            });
        },
    );

    // Every traced request landed in the sink with a process-unique id
    // and internally consistent timings.
    let text = std::fs::read_to_string(&events).expect("events file");
    let mut ids: HashSet<String> = HashSet::new();
    let mut traces = 0usize;
    for line in text.lines() {
        let v = JsonValue::parse(line).expect("valid JSONL line");
        if v.get("ev").and_then(|e| e.as_str()) != Some("trace") {
            continue;
        }
        traces += 1;
        let id = v
            .get("trace_id")
            .and_then(|t| t.as_str())
            .expect("trace_id")
            .to_string();
        assert_eq!(id.len(), 16, "trace ids render as 16 hex digits: {id}");
        assert!(ids.insert(id), "duplicate trace id under concurrency");
        let total_ns = v
            .get("total_ns")
            .and_then(|t| t.as_f64())
            .expect("total_ns");
        assert!(total_ns > 0.0);
        let phase_sum: f64 = v
            .get("phases")
            .and_then(|p| p.as_object())
            .expect("phases object")
            .iter()
            .map(|(_, ns)| ns.as_f64().expect("phase ns"))
            .sum();
        assert!(
            phase_sum <= total_ns,
            "phase sum {phase_sum} exceeds end-to-end total {total_ns}"
        );
        // The simulated sleeps guarantee most of the total is
        // attributed: the unaccounted residual is only scheduler noise.
        assert!(phase_sum > 0.0, "no phase time attributed");
        assert!(v.get("batch_id").and_then(|b| b.as_f64()).is_some());
    }
    assert_eq!(traces, 48, "every request produced exactly one trace event");

    // Aggregates made it into the manifest: all 48 scored, worst-N ring
    // bounded, and the exemplars are sorted slowest-first.
    let slo = manifest.slo.as_ref().expect("slo section");
    assert_eq!(slo.total, 48);
    assert!(!manifest.exemplars.is_empty());
    assert!(manifest.exemplars.len() <= EXEMPLAR_CAP);
    for pair in manifest.exemplars.windows(2) {
        assert!(pair[0].total_ns >= pair[1].total_ns, "exemplars unsorted");
    }
    let _ = std::fs::remove_file(&events);
}

#[test]
fn snapshot_counts_are_consistent_and_openmetrics_renders_valid() {
    with_run(RunOptions::default(), || {
        std::thread::scope(|scope| {
            for i in 0..16u64 {
                scope.spawn(move || simulate_request(i + 1));
            }
        });
        let mut shed = RequestTrace::begin();
        shed.set_status(TraceStatus::Shed);
        shed.finish();

        let snap = trace::snapshot();
        let total = snap
            .phases
            .iter()
            .find(|p| p.phase == "total")
            .expect("total entry");
        assert_eq!(total.count, 17);
        assert_eq!(total.counts.iter().sum::<u64>(), 17, "buckets lose counts");
        // Cumulative counts are monotone — the histogram invariant the
        // OpenMetrics exposition relies on.
        let cum = total.cumulative();
        assert!(cum.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*cum.last().expect("buckets"), 17);
        for p in &snap.phases {
            assert!(p.sum_s >= 0.0);
            assert_eq!(p.counts.iter().sum::<u64>(), p.count, "{}", p.phase);
        }
        let statuses: std::collections::BTreeMap<&str, u64> = snap
            .statuses
            .iter()
            .map(|(s, n)| (s.as_str(), *n))
            .collect();
        assert_eq!(statuses.get("ok"), Some(&16));
        assert_eq!(statuses.get("shed"), Some(&1));

        // The live exposition of this exact state passes the validator.
        let exposition = tfb_obs::openmetrics::render_live();
        tfb_obs::openmetrics::validate(&exposition).expect("valid OpenMetrics");
        assert!(exposition.contains("tfb_request_phase_seconds_bucket"));
        assert!(exposition.contains("tfb_slo_burn_rate"));
    });
}

#[test]
fn configured_slo_tracks_breaches_and_burn_rate() {
    let manifest = with_run(RunOptions::default(), || {
        // A zero threshold makes every request a breach; a 0.9 objective
        // gives a 10% budget, so an all-bad window burns at 10x.
        trace::configure_slo(SloConfig {
            threshold: Duration::ZERO,
            objective: 0.9,
        });
        for i in 0..10u64 {
            simulate_request(i + 1);
        }
        let slo = trace::snapshot().slo.expect("slo summary");
        assert_eq!(slo.threshold_ms, 0.0);
        assert_eq!(slo.objective, 0.9);
        assert_eq!(slo.total, 10);
        assert_eq!(slo.breaches, 10);
        assert!(
            (slo.burn_rate_1m - 10.0).abs() < 1e-6,
            "all-bad traffic must burn at 1/(1-objective): {}",
            slo.burn_rate_1m
        );
    });
    let slo = manifest.slo.as_ref().expect("manifest slo");
    assert_eq!(slo.breaches, 10);
    assert!(manifest.to_json().contains("\"breaches\": 10"));
}

#[test]
fn traces_outside_a_run_are_inert() {
    let _guard = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut t = RequestTrace::begin();
    assert!(!t.active());
    assert_eq!(t.id_hex(), None);
    t.mark(Phase::Parse);
    t.absorb_batch(1, 2, 3, 4, 5);
    t.finish();
    // Nothing was recorded: the next armed run starts from zero.
    drop(_guard);
    let manifest = with_run(RunOptions::default(), || {});
    assert!(manifest.slo.is_none(), "no requests -> no slo section");
    assert!(manifest.exemplars.is_empty());
}
