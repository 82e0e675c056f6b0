//! Observability smoke + invariance tests over the full pipeline.
//!
//! One mini-grid runs three times through `run_jobs`: unobserved, under an
//! armed recording run, and unobserved again. The forecast metrics must be
//! bit-for-bit identical in all three — the probes only read clocks and bump
//! counters, so arming the sink must never perturb a result. The armed run
//! must leave behind a parseable JSONL event stream and a manifest covering
//! every pipeline phase (data generation, training, inference, metrics).
//!
//! The recorder is process-global, so everything lives in ONE `#[test]` —
//! concurrent test functions would interleave their spans into the run.

#![cfg(feature = "obs")]

use std::collections::BTreeMap;
use tfb::core::{run_jobs, BenchmarkConfig, Parallelism};
use tfb_json::JsonValue;
use tfb_nn::TrainConfig;

fn grid() -> BenchmarkConfig {
    // Naive exercises the statistical path; NLinear exercises window
    // training so the manifest sees train/epoch spans.
    BenchmarkConfig::from_json(
        r#"{
            "datasets": ["ILI", "NN5"],
            "methods": ["Naive", "NLinear"],
            "horizons": [12],
            "lookbacks": [24],
            "strategy": {"rolling": {"stride": 8}},
            "metrics": ["mae", "mse", "smape"],
            "max_windows": 4,
            "max_len": 500,
            "max_dim": 2
        }"#,
    )
    .expect("valid config")
}

fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        max_samples: 64,
        ..TrainConfig::default()
    }
}

type CellKey = (String, String, usize);

fn run_grid() -> Vec<(CellKey, usize, BTreeMap<String, f64>)> {
    run_jobs(&grid(), Parallelism::Threads(2), Some(train_config()))
        .into_iter()
        .map(|r| {
            let o = r.expect("job succeeds");
            (
                (o.dataset.clone(), o.method.clone(), o.horizon),
                o.n_windows,
                o.metrics,
            )
        })
        .collect()
}

#[test]
fn armed_run_is_invisible_to_metrics_and_covers_all_phases() {
    let out_dir = std::env::temp_dir().join("tfb_obs_smoke");
    let _ = std::fs::remove_dir_all(&out_dir);
    let events_path = out_dir.join("run.events.jsonl");

    // 1. Baseline, recorder disarmed.
    assert!(!tfb_obs::enabled());
    let baseline = run_grid();

    // 2. The same grid under an armed run.
    tfb_obs::start_run(tfb_obs::RunOptions {
        events_path: Some(events_path.clone()),
    })
    .expect("sink opens");
    assert!(tfb_obs::enabled());
    let observed = run_grid();
    let manifest = tfb_obs::finish_run(&[("test", "obs_smoke".to_string())])
        .expect("armed run yields a manifest");
    assert!(!tfb_obs::enabled());

    // 3. Baseline again after the run, to catch lingering state.
    let after = run_grid();

    // Property: instrumentation never changes a forecast, bit for bit.
    assert_eq!(baseline, observed, "armed recording perturbed the metrics");
    assert_eq!(baseline, after, "a finished run left state behind");

    // The manifest covers every pipeline phase.
    let phases = manifest.phase_names();
    for phase in ["datagen", "train", "infer", "metrics", "job", "eval"] {
        assert!(
            phases.iter().any(|p| p == phase),
            "manifest phases {phases:?} missing {phase}"
        );
    }

    // Phase rows carry the grid's cells with sane aggregates.
    let job_rows: Vec<_> = manifest.phases.iter().filter(|r| r.path == "job").collect();
    assert_eq!(job_rows.len(), 4, "one job row per (dataset, method) cell");
    for row in &job_rows {
        assert_eq!(row.count, 1);
        assert!(row.total_ns > 0);
        assert!(row.min_ns <= row.max_ns && row.max_ns <= row.total_ns);
    }
    assert!(
        manifest
            .phases
            .iter()
            .any(|r| r.path.ends_with("epoch") && r.dataset == "ILI"),
        "training epochs must aggregate under their dataset"
    );

    // Dataset-cache counters: 2 misses (2 datasets), hits for the rest.
    let counter = |name: &str| {
        manifest
            .counters
            .iter()
            .find(|c| c.0 == name)
            .map(|c| c.1)
            .unwrap_or(0)
    };
    assert_eq!(counter("dataset_cache/miss"), 2);
    assert_eq!(counter("dataset_cache/hit"), 2);
    assert!(counter("eval/windows") > 0);
    assert!(counter("gemm/calls") > 0, "NLinear training must hit GEMM");
    // Deep training reports its forward, backward and optimizer time, all
    // spent inside the `train` spans.
    let split: u64 = [
        "nn/train_forward_ns",
        "nn/train_backward_ns",
        "nn/train_optimizer_ns",
    ]
    .iter()
    .map(|name| {
        assert!(counter(name) > 0, "manifest lacks {name}");
        counter(name)
    })
    .sum();
    let train_ns: u64 = manifest
        .phases
        .iter()
        .filter(|r| r.path.ends_with(".train"))
        .map(|r| r.total_ns)
        .sum();
    assert!(
        split <= train_ns,
        "split {split} ns > train spans {train_ns} ns"
    );

    // The manifest serializes to valid, schema-tagged JSON.
    let json = manifest.to_json();
    let doc = JsonValue::parse(&json).expect("manifest JSON parses");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("tfb-obs/v1")
    );
    assert!(manifest.wall_ns > 0);

    // Every event line is standalone JSON; the stream is framed by
    // run_start/run_end and records at least one span per phase.
    let events = std::fs::read_to_string(&events_path).expect("events written");
    let lines: Vec<&str> = events.lines().collect();
    assert!(
        lines.len() >= 2 + 4,
        "expected run framing plus span events"
    );
    let parsed: Vec<JsonValue> = lines
        .iter()
        .map(|l| JsonValue::parse(l).expect("event line parses"))
        .collect();
    let ev = |v: &JsonValue| {
        v.get("ev")
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string()
    };
    assert_eq!(ev(&parsed[0]), "run_start");
    assert_eq!(ev(parsed.last().unwrap()), "run_end");
    assert!(parsed[1..lines.len() - 1].iter().all(|v| ev(v) == "span"));

    let _ = std::fs::remove_dir_all(&out_dir);
}
