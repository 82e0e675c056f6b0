//! Integration tests for the run-history store: manifest round-trips,
//! forward compatibility, the content-addressed store, and the gate's
//! noise aggregation.

use std::path::PathBuf;
use tfb_obs::history::{
    diff_manifests, gate, parse_manifest, render_diff, DiffKind, GateTolerances, RunHistory,
};
use tfb_obs::{HealthSummary, HistSummary, Manifest, MeasurementRow, MetricRow, PhaseRow};

/// A populated manifest with a unicode dataset name and an unmeasured
/// (null) peak RSS — the two serialization edge cases that bit before.
fn sample_manifest() -> Manifest {
    Manifest {
        meta: vec![
            ("config_hash".into(), "abc123".into()),
            ("git_rev".into(), "deadbeef".into()),
        ],
        cores: 8,
        wall_ns: 1_000_000_000,
        peak_rss_bytes: None,
        events_path: Some("run.events.jsonl".into()),
        phases: vec![
            PhaseRow {
                path: "job".into(),
                dataset: "ETTh1-中文-Ünïcode".into(),
                method: "LR".into(),
                count: 3,
                total_ns: 900_000,
                min_ns: 100_000,
                max_ns: 500_000,
            },
            PhaseRow {
                path: "job.train".into(),
                dataset: "ETTh1-中文-Ünïcode".into(),
                method: "LR".into(),
                count: 3,
                total_ns: 600_000,
                min_ns: 100_000,
                max_ns: 400_000,
            },
        ],
        counters: vec![("matmul/alloc_bytes".into(), 12_345)],
        gauges: vec![("nn/grad_norm".into(), 1.5)],
        histograms: vec![HistSummary {
            name: "nn/epoch_val_loss".into(),
            count: 10,
            mean: 0.5,
            min: 0.1,
            max: 1.0,
            p50: 0.4,
            p90: 0.9,
            p99: 1.0,
        }],
        metrics: vec![MetricRow {
            dataset: "ETTh1-中文-Ünïcode".into(),
            method: "LR".into(),
            horizon: 24,
            name: "mae".into(),
            value: 0.512,
        }],
        measurements: vec![],
        slo: None,
        exemplars: vec![],
        flight: None,
        quality: None,
        health: HealthSummary::default(),
    }
}

/// The same run as recorded by the suite harness: identical content plus
/// a `measurements` section.
fn harness_manifest() -> Manifest {
    let mut m = sample_manifest();
    m.measurements = vec![
        MeasurementRow {
            name: "eval/etth1/LR-h24".into(),
            quantity: "wall".into(),
            unit: "ns".into(),
            iters: 3,
            min: 900_000.0,
            median: 950_000.0,
            mean: 960_000.0,
            stddev: 40_000.0,
            suite: "eval/etth1".into(),
            engine: "eval".into(),
            dataset: "ETTh1-中文-Ünïcode".into(),
            method: "LR".into(),
            characteristic: "trend".into(),
            horizon: 24,
            calls: 1,
        },
        MeasurementRow {
            name: "eval/etth1/LR-h24".into(),
            quantity: "mase".into(),
            unit: String::new(),
            iters: 3,
            min: 0.512,
            median: 0.512,
            mean: 0.512,
            stddev: 0.0,
            suite: "eval/etth1".into(),
            engine: "eval".into(),
            dataset: "ETTh1-中文-Ünïcode".into(),
            method: "LR".into(),
            characteristic: "trend".into(),
            horizon: 24,
            calls: 1,
        },
    ];
    m
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tfb_history_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn empty_manifest_roundtrips_byte_identical() {
    let json = Manifest::default().to_json();
    let parsed = parse_manifest(&json).expect("parses");
    assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
    assert_eq!(parsed.manifest.to_json(), json);
}

#[test]
fn populated_manifest_roundtrips_byte_identical() {
    // Unicode dataset names and a null RSS must survive
    // serialize -> parse -> re-serialize without a byte of drift.
    let json = sample_manifest().to_json();
    let parsed = parse_manifest(&json).expect("parses");
    assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
    assert_eq!(parsed.manifest.to_json(), json);
    assert!(json.contains("\"peak_rss_bytes\": null"));
    assert!(json.contains("中文"));
}

#[test]
fn unhealthy_manifest_roundtrips_byte_identical() {
    let mut m = sample_manifest();
    m.health = HealthSummary {
        nan_cells: vec!["ILI/MLP".into()],
        diverged_cells: vec!["ETTh1/RNN".into()],
        aborted_cells: vec!["ETTh1/RNN".into(), "ILI/MLP".into()],
        grad_norms: vec![(
            "MLP".into(),
            HistSummary {
                name: "MLP".into(),
                count: 4,
                mean: 2.0,
                min: 0.5,
                max: 4.0,
                p50: 1.5,
                p90: 3.5,
                p99: 4.0,
            },
        )],
    };
    let json = m.to_json();
    let parsed = parse_manifest(&json).expect("parses");
    assert_eq!(parsed.manifest.to_json(), json);
    assert_eq!(
        parsed.manifest.health.nan_cells,
        vec!["ILI/MLP".to_string()]
    );
}

#[test]
fn quality_manifest_roundtrips_byte_identical() {
    use tfb_obs::{QualityDriftTrip, QualityScore, QualitySloSummary, QualitySummary};
    let mut m = sample_manifest();
    m.quality = Some(QualitySummary {
        scores: vec![
            QualityScore {
                model: "alpha".into(),
                label: "canary".into(),
                joins: 8,
                mae: 1.25,
                mse: 2.5,
                smape: 47.5,
                drift_trips: 1,
            },
            QualityScore {
                model: "alpha".into(),
                label: "prod".into(),
                joins: 40,
                mae: 0.25,
                mse: 0.125,
                smape: 9.5,
                drift_trips: 0,
            },
        ],
        trips: vec![QualityDriftTrip {
            model: "alpha".into(),
            label: "canary".into(),
            detector: "page-hinkley".into(),
            series: "nyse-3".into(),
            at_join: 6,
            value: 112.5,
        }],
        slo: Some(QualitySloSummary {
            threshold_smape: 30.0,
            objective: 0.99,
            total: 48,
            breaches: 8,
            burn_rate_1m: 16.5,
            burn_rate_5m: 16.5,
        }),
    });
    let json = m.to_json();
    let parsed = parse_manifest(&json).expect("parses");
    assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
    assert_eq!(parsed.manifest.to_json(), json);
    let q = parsed.manifest.quality.expect("quality section");
    assert_eq!(q.scores.len(), 2);
    assert_eq!(q.trips[0].detector, "page-hinkley");
    assert_eq!(q.slo.as_ref().unwrap().breaches, 8);
    // Null SLO round-trips too (configured detectors, no quality SLO).
    m.quality.as_mut().unwrap().slo = None;
    let json = m.to_json();
    let parsed = parse_manifest(&json).expect("parses");
    assert_eq!(parsed.manifest.to_json(), json);
}

#[test]
fn future_schema_with_unknown_field_warns_instead_of_failing() {
    // A manifest written by a newer tfb-obs (extra top-level field, bumped
    // schema) must parse best-effort with warnings — and must not fail a
    // gate run on parse grounds.
    let json = sample_manifest().to_json().replace(
        "\"schema\": \"tfb-obs/v1\",",
        "\"schema\": \"tfb-obs/v2\",\n  \"quantum_widget\": 7,",
    );
    let parsed = parse_manifest(&json).expect("best-effort parse");
    assert!(
        parsed.warnings.iter().any(|w| w.contains("tfb-obs/v2")),
        "missing schema warning: {:?}",
        parsed.warnings
    );
    assert!(
        parsed.warnings.iter().any(|w| w.contains("quantum_widget")),
        "missing unknown-field warning: {:?}",
        parsed.warnings
    );
    // Known fields still land.
    assert_eq!(parsed.manifest.wall_ns, 1_000_000_000);
    assert_eq!(parsed.manifest.metrics.len(), 1);
    // Same run as baseline and candidate: the gate passes.
    let report = gate(
        &[&parsed.manifest],
        &parsed.manifest,
        &GateTolerances::default(),
    );
    assert!(report.passed(), "{:?}", report.failures);
}

#[test]
fn totally_unknown_schema_is_rejected() {
    let json = sample_manifest()
        .to_json()
        .replace("tfb-obs/v1", "someone-else/v9");
    assert!(parse_manifest(&json).is_err());
}

#[test]
fn store_dedups_blobs_and_survives_reopen() {
    let root = temp_store("dedup");
    let m = sample_manifest();
    {
        let mut h = RunHistory::open(&root).expect("open");
        h.append(&m).expect("append 1");
        h.append(&m).expect("append 2"); // identical bytes -> same blob
        let mut changed = sample_manifest();
        changed.wall_ns += 1;
        h.append(&changed).expect("append 3");
        assert_eq!(h.entries().len(), 3);
    }
    // Identical manifests share one content-addressed blob.
    let blobs = std::fs::read_dir(root.join("manifests")).unwrap().count();
    assert_eq!(blobs, 2, "two distinct manifests -> two blobs");
    // The index is durable: a fresh open sees every append.
    let h = RunHistory::open(&root).expect("reopen");
    assert_eq!(h.entries().len(), 3);
    assert_eq!(h.resolve("first").unwrap().seq, 0);
    assert_eq!(h.resolve("last").unwrap().seq, 2);
    assert_eq!(h.resolve("1").unwrap().seq, 1);
    // Id-prefix selector: the shared id resolves to the newest match.
    let shared = h.entries()[0].id.clone();
    assert_eq!(h.resolve(&shared).unwrap().seq, 1);
    // Provenance is denormalized into the index.
    assert_eq!(h.entries()[0].config_hash, "abc123");
    assert_eq!(h.entries()[0].git_rev, "deadbeef");
    // Blobs load back to the exact manifest.
    let loaded = h.load(h.resolve("first").unwrap()).expect("load");
    assert_eq!(loaded.manifest.to_json(), m.to_json());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn harness_manifest_roundtrips_byte_identical() {
    let json = harness_manifest().to_json();
    let parsed = parse_manifest(&json).expect("parses");
    assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
    assert_eq!(parsed.manifest.to_json(), json);
    assert!(json.contains("\"measurements\": ["), "{json}");
    // Pre-harness manifests keep their exact shape: no empty section.
    assert!(!sample_manifest().to_json().contains("measurements"));
}

#[test]
fn mixed_schema_history_diffs_and_gates_without_panicking() {
    // Satellite 3: a harness manifest (with measurement keys) recorded
    // next to pre-harness manifests in one store must diff and gate
    // cleanly in both directions, through the store (bytes, not structs).
    let root = temp_store("mixed");
    let mut h = RunHistory::open(&root).expect("open");
    let old = sample_manifest();
    h.append(&old).expect("append pre-harness");
    h.append(&harness_manifest()).expect("append harness");
    let h = RunHistory::open(&root).expect("reopen");
    let first = h.load(h.resolve("first").unwrap()).expect("load first");
    let last = h.load(h.resolve("last").unwrap()).expect("load last");
    assert!(first.manifest.measurements.is_empty());
    assert_eq!(last.manifest.measurements.len(), 2);

    for (base, cand) in [(&first, &last), (&last, &first)] {
        let rows = diff_manifests(&base.manifest, &cand.manifest);
        // One-sided measurement rows render n/a, never a fake delta.
        for r in rows.iter().filter(|r| r.kind == DiffKind::Measurement) {
            assert_eq!(r.delta_pct(), None, "{r:?}");
        }
        let report = gate(
            &[&base.manifest],
            &cand.manifest,
            &GateTolerances::default(),
        );
        assert!(report.passed(), "{:?}", report.failures);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn harness_manifest_with_unknown_measurement_keys_warns_not_drops() {
    // A future harness may add per-row keys (e.g. alloc deltas) or new
    // top-level sections. Unknown top-level fields warn; unknown row
    // keys are ignored while every known key still lands.
    let json = harness_manifest().to_json().replace(
        "\"iters\": 3,",
        "\"iters\": 3, \"alloc_delta_bytes\": 4096,",
    );
    let json = json.replace(
        "  \"measurements\": [",
        "  \"measurement_env\": {\"cpufreq\": \"performance\"},\n  \"measurements\": [",
    );
    let parsed = parse_manifest(&json).expect("best-effort parse");
    assert!(
        parsed
            .warnings
            .iter()
            .any(|w| w.contains("measurement_env")),
        "{:?}",
        parsed.warnings
    );
    assert_eq!(parsed.manifest.measurements.len(), 2);
    assert_eq!(parsed.manifest.measurements[0].iters, 3);
    assert_eq!(parsed.manifest.measurements[0].min, 900_000.0);
    // And the parsed manifest still gates against itself.
    let report = gate(
        &[&parsed.manifest],
        &parsed.manifest,
        &GateTolerances::default(),
    );
    assert!(report.passed(), "{:?}", report.failures);
}

#[test]
fn diff_sorts_worst_regression_first_and_renders_na_rss() {
    let base = sample_manifest();
    let mut new = sample_manifest();
    // job.train doubles (+100%), the metric creeps +1%.
    new.phases[1].total_ns *= 2;
    new.phases[0].total_ns += new.phases[1].total_ns / 2;
    new.metrics[0].value *= 1.01;
    let rows = diff_manifests(&base, &new);
    assert_eq!(rows[0].kind, DiffKind::Phase);
    assert_eq!(rows[0].name, "job.train");
    let rendered = render_diff(&rows);
    // RSS was unmeasured on both sides: "n/a", never a fake 0 / -100%.
    assert!(rendered.contains("n/a"), "{rendered}");
    assert!(!rendered.contains("-100.0%"), "{rendered}");
}

#[test]
fn gate_takes_min_over_baselines_and_median_over_metrics() {
    let mk = |wall: u64, mae: f64| {
        let mut m = sample_manifest();
        m.wall_ns = wall;
        m.phases.clear(); // isolate the wall/metric checks
        m.counters.clear();
        m.metrics[0].value = mae;
        m
    };
    let b1 = mk(100_000, 1.0);
    let b2 = mk(120_000, 1.1);
    let b3 = mk(140_000, 1.2);
    let baselines = [&b1, &b2, &b3];
    let tol = GateTolerances::default(); // 10% resources, 5% metrics
                                         // +9% over the *fastest* baseline and +3.6% over the *median* MAE: ok.
    let ok = mk(109_000, 1.14);
    let report = gate(&baselines, &ok, &tol);
    assert!(report.passed(), "{:?}", report.failures);
    // +15% wall over the min fails even though it beats the slowest run.
    let slow = mk(115_000, 1.0);
    let report = gate(&baselines, &slow, &tol);
    assert!(!report.passed());
    assert!(
        report.failures[0].contains("wall_ns"),
        "{:?}",
        report.failures
    );
    // +9% MAE over the median fails the tighter metric tolerance.
    let wrong = mk(100_000, 1.2);
    let report = gate(&baselines, &wrong, &tol);
    assert!(!report.passed());
    assert!(report.failures[0].contains("mae"), "{:?}", report.failures);
}
