//! Smoke tests for the `tfb` command-line driver.

use std::process::Command;

fn tfb(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tfb"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn datasets_lists_all_25() {
    let out = tfb(&["datasets"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ETTh1"));
    assert!(text.contains("Wike2000"));
    // Header + 25 rows.
    assert_eq!(text.lines().count(), 26);
}

#[test]
fn methods_lists_all_paradigms() {
    let out = tfb(&["methods"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["VAR", "XGB", "PatchTST", "ARIMA"] {
        assert!(text.contains(name), "missing {name}");
    }
}

#[test]
fn characterize_scores_a_dataset() {
    let out = tfb(&["characterize", "ILI", "--max-len", "400"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("seasonality:"));
    assert!(text.contains("correlation:"));
}

#[test]
fn unknown_dataset_fails_cleanly() {
    let out = tfb(&["characterize", "NotADataset"]);
    assert!(!out.status.success());
}

#[test]
fn missing_subcommand_prints_usage() {
    let out = tfb(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn example_config_is_valid_json_and_runnable_shape() {
    let out = tfb(&["example-config"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let cfg = tfb::core::BenchmarkConfig::from_json(&text).expect("valid config");
    assert!(!cfg.jobs().is_empty());
}

#[test]
fn run_executes_a_tiny_config() {
    let dir = std::env::temp_dir().join(format!("tfb_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg_path = dir.join("cfg.json");
    std::fs::write(
        &cfg_path,
        r#"{
            "datasets": ["ILI"], "methods": ["Naive", "Mean"], "horizons": [12],
            "lookbacks": [24], "strategy": {"rolling": {"stride": 8}},
            "metrics": ["mae"], "max_windows": 4, "max_len": 500, "max_dim": 2
        }"#,
    )
    .unwrap();
    let hist = dir.join("history");
    let out = tfb(&[
        "run",
        cfg_path.to_str().unwrap(),
        "--threads",
        "1",
        "--out",
        dir.to_str().unwrap(),
        "--history",
        hist.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Naive") && text.contains("Mean"));
    assert!(dir.join("run.csv").exists());
    assert!(dir.join("run.log").exists());
    // The recorded run lands in the history automatically.
    assert!(hist.join("index.jsonl").exists());
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn train_without_out_fails_with_usage_hint() {
    let out = tfb(&["train", "--method", "LR", "--dataset", "ILI"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));
}

#[test]
fn train_rejects_unknown_method_and_dataset() {
    let out = tfb(&["train", "--method", "NotAMethod", "--out", "/dev/null"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("NotAMethod"), "{err}");

    let out = tfb(&["train", "--dataset", "NotADataset", "--out", "/dev/null"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("NotADataset"), "{err}");
}

#[test]
fn serve_without_model_fails_with_usage_hint() {
    let out = tfb(&["serve"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--model"));
}

#[test]
fn serve_missing_artifact_path_is_a_structured_error() {
    let out = tfb(&["serve", "--model", "/nonexistent/model.tfba"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot load"), "{err}");
}

#[test]
fn serve_rejects_unknown_and_retired_flags_before_loading() {
    // `m.tfba` does not exist: the flag check must fire before any model
    // is opened, so stderr names the flag, not a load failure. Unknown
    // and retired flags are refused, and so are unparsable values.
    for (flag, value) in [
        ("--max-delay-ms", "5"),
        ("--shard", "2"),
        ("--budget-us", "5"),
        ("--shards", "abc"),
    ] {
        let out = tfb(&["serve", "--model", "m.tfba", flag, value]);
        assert!(!out.status.success(), "{flag} was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "stderr does not name {flag}: {err}");
        assert!(
            !err.contains("cannot load"),
            "{flag} checked too late: {err}"
        );
    }
}

#[test]
fn bad_flag_values_fail_before_any_work_naming_the_flag() {
    let dir = std::env::temp_dir().join(format!("tfb_cli_flags_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("m.tfba");
    let model = model.to_str().unwrap();
    let cases: [(&[&str], &str); 6] = [
        (
            &[
                "train",
                "--dataset",
                "ILI",
                "--lookback",
                "abc",
                "--out",
                model,
            ],
            "--lookback",
        ),
        (&["train", "--horizon", "0", "--out", model], "--horizon"),
        (
            &["run", "no-such-config.json", "--threads", "x"],
            "--threads",
        ),
        (
            &["obs", "gate", "--tol-pct", "abc", "--history", "none"],
            "--tol-pct",
        ),
        (
            &["obs", "gate", "--min-runs", "0", "--history", "none"],
            "--min-runs",
        ),
        (
            &["registry", "promote", "m", "--tol-pct", "-1"],
            "--tol-pct",
        ),
    ];
    for (args, flag) in cases {
        let out = tfb(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(
            err.contains(flag),
            "{args:?}: error must name {flag}: {err}"
        );
    }
    assert!(
        !std::path::Path::new(model).exists(),
        "train ran despite a bad flag"
    );
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn unknown_flags_fail_before_any_work_naming_the_flag() {
    let dir = std::env::temp_dir().join(format!("tfb_cli_unknown_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("a.json");
    std::fs::write(
        &manifest,
        r#"{"schema": "tfb-obs/v1", "cores": 1, "wall_ns": 1000}"#,
    )
    .unwrap();
    let manifest = manifest.to_str().unwrap();
    let model = dir.join("m.tfba");
    let model = model.to_str().unwrap();
    let gate = [
        "obs",
        "gate",
        "--baseline",
        manifest,
        "--candidate",
        manifest,
        "--history",
        "none",
    ];
    // The same gate passes without the typo.
    assert!(tfb(&gate).status.success());
    let typo_gate = [&gate[..], &["--tol-pcx", "abc"]].concat();
    let cases: [(&[&str], &str); 2] = [
        (&typo_gate, "--tol-pcx"),
        (&["train", "--lookbak", "12", "--out", model], "--lookbak"),
    ];
    for (args, flag) in cases {
        let out = tfb(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(
            err.contains(flag),
            "{args:?}: error must name {flag}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} did work despite {flag}");
    }
    assert!(
        !std::path::Path::new(model).exists(),
        "train ran despite an unknown flag"
    );
    // A switch takes no value: the name after `--force` stays positional.
    let registry = dir.join("registry");
    let out = tfb(&[
        "registry",
        "promote",
        "--force",
        "alpha",
        "--registry",
        registry.to_str().unwrap(),
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("unknown flag"), "{err}");
    assert!(!err.contains("expected exactly one model NAME"), "{err}");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn obs_gate_refuses_manifests_from_different_machines() {
    let dir = std::env::temp_dir().join(format!("tfb_cli_machines_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = |cores: usize| {
        let path = dir.join(format!("cores{cores}.json"));
        let json = format!(r#"{{"schema": "tfb-obs/v1", "cores": {cores}, "wall_ns": 1000}}"#);
        std::fs::write(&path, json).unwrap();
        path.to_str().unwrap().to_string()
    };
    let (one, two) = (manifest(1), manifest(2));
    let gate = |base: &str, cand: &str| {
        tfb(&[
            "obs",
            "gate",
            "--baseline",
            base,
            "--candidate",
            cand,
            "--history",
            "none",
        ])
    };
    let out = gate(&one, &two);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("cores 1 vs 2"), "{err}");
    assert!(gate(&two, &two).status.success());
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn serve_malformed_artifact_is_a_structured_error_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("tfb_cli_bad_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.tfba");
    std::fs::write(&path, b"definitely not an artifact").unwrap();
    let out = tfb(&["serve", "--model", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("magic"), "wanted a decode error, got: {err}");
    assert!(
        !err.contains("panicked"),
        "a malformed artifact must not panic the CLI: {err}"
    );
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn train_then_serve_round_trip_over_http() {
    use std::io::{BufRead, BufReader, Read, Write};

    let dir = std::env::temp_dir().join(format!("tfb_cli_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("model.tfba");
    let out = tfb(&[
        "train",
        "--method",
        "LR",
        "--dataset",
        "ILI",
        "--lookback",
        "16",
        "--horizon",
        "4",
        "--max-len",
        "500",
        "--max-dim",
        "2",
        "--out",
        model.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model.exists());

    // Serve on an ephemeral port, discover it from stdout, then ask the
    // server to drain itself over HTTP.
    let mut child = Command::new(env!("CARGO_BIN_EXE_tfb"))
        .args([
            "serve",
            "--model",
            model.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("serve spawns");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .expect("listen line format")
        .to_string();

    let request = |method: &str, path: &str, body: &str| -> (u16, String) {
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(
                format!(
                    "{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        let status = reply
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let body = reply
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    };

    let (status, body) = request("GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    let window: Vec<String> = (0..16 * 2).map(|i| format!("{}.5", i)).collect();
    let (status, body) = request(
        "POST",
        "/forecast",
        &format!("{{\"window\": [{}]}}", window.join(", ")),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"forecast\""), "{body}");
    let (status, _) = request("POST", "/shutdown", "");
    assert_eq!(status, 200);
    let exit = child.wait().expect("serve exits");
    assert!(exit.success(), "serve did not exit cleanly after drain");
    std::fs::remove_dir_all(dir).unwrap();
}

/// A real (tiny) artifact for registry CLI tests, built in-process —
/// the CLI path under test is the registry, not `tfb train`.
fn tiny_artifact_bytes(horizon: usize) -> Vec<u8> {
    use tfb::data::{ChronoSplit, Normalization, Normalizer};
    let profile = tfb::datagen::profile_by_name("ILI").expect("profile");
    let series = profile.generate(tfb::datagen::Scale::TINY);
    let split = ChronoSplit::split(&series, profile.split).expect("split");
    let norm = Normalizer::fit(&split.train, Normalization::ZScore);
    let normed = norm.apply(&series).expect("normalize");
    let train = normed.slice_rows(0..split.val_start);
    tfb::artifact::fit("LR", &train, 12, horizon, norm, String::new(), None)
        .expect("fit")
        .to_bytes()
}

#[test]
fn registry_publish_ls_fsck_lifecycle_and_bit_rot_detection() {
    let dir = std::env::temp_dir().join(format!("tfb_cli_registry_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let reg = dir.join("reg");
    let artifact = dir.join("m.tfba");
    std::fs::write(&artifact, tiny_artifact_bytes(4)).unwrap();

    let out = tfb(&[
        "registry",
        "publish",
        artifact.to_str().unwrap(),
        "--name",
        "ili-lr",
        "--registry",
        reg.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("published ili-lr@prod"), "{text}");

    let out = tfb(&["registry", "ls", "--registry", reg.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("ili-lr@prod"));

    let out = tfb(&["registry", "fsck", "--registry", reg.to_str().unwrap()]);
    assert!(out.status.success(), "clean store must fsck clean");

    // Flip one byte inside the stored blob: the checksum walk must
    // catch it and the process must exit non-zero.
    let blobs: Vec<_> = std::fs::read_dir(reg.join("blobs"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(blobs.len(), 1);
    let mut bytes = std::fs::read(&blobs[0]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&blobs[0], &bytes).unwrap();
    let out = tfb(&["registry", "fsck", "--registry", reg.to_str().unwrap()]);
    assert!(!out.status.success(), "bit rot must fail fsck");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("CORRUPT"), "{err}");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn registry_publish_rejects_garbage_before_storing() {
    let dir = std::env::temp_dir().join(format!("tfb_cli_reggarbage_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.tfba");
    std::fs::write(&bad, b"not an artifact at all").unwrap();
    let reg = dir.join("reg");
    let out = tfb(&[
        "registry",
        "publish",
        bad.to_str().unwrap(),
        "--name",
        "x",
        "--registry",
        reg.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(
        !reg.join("blobs").exists()
            || std::fs::read_dir(reg.join("blobs"))
                .unwrap()
                .next()
                .is_none(),
        "a rejected artifact must leave no blob behind"
    );
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn registry_promote_is_gated_by_canary_manifests() {
    use tfb_obs::manifest::MetricRow;
    use tfb_obs::Manifest;
    let dir = std::env::temp_dir().join(format!("tfb_cli_promote_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let reg = dir.join("reg");
    let registry = tfb::registry::Registry::open(&reg).expect("registry");
    registry
        .publish_bytes("ili", "prod", &tiny_artifact_bytes(4))
        .expect("publish prod");
    registry
        .publish_bytes("ili", "canary", &tiny_artifact_bytes(7))
        .expect("publish canary");

    let row = |name: &str, value: f64| MetricRow {
        dataset: "ili".to_string(),
        method: "mirror".to_string(),
        horizon: 7,
        name: name.to_string(),
        value,
    };
    let baseline_path = dir.join("baseline.json");
    let candidate_path = dir.join("candidate.json");
    let baseline = Manifest {
        metrics: vec![row("forecast_mean_abs", 1.0)],
        ..Manifest::default()
    };
    baseline.write(&baseline_path).unwrap();
    // Candidate drifts +100% — far past the 10% default tolerance.
    let candidate = Manifest {
        metrics: vec![row("forecast_mean_abs", 2.0)],
        ..Manifest::default()
    };
    candidate.write(&candidate_path).unwrap();

    let out = tfb(&[
        "registry",
        "promote",
        "ili",
        "--registry",
        reg.to_str().unwrap(),
        "--baseline",
        baseline_path.to_str().unwrap(),
        "--candidate",
        candidate_path.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "a drifting canary must not promote");
    assert!(String::from_utf8_lossy(&out.stderr).contains("gate FAILED"));
    let index = registry.load_index().expect("index");
    assert!(
        index.models["ili"].labels.contains_key("canary"),
        "failed gate must leave the canary staged"
    );

    // A healthy candidate (within tolerance) passes and flips the label.
    let candidate = Manifest {
        metrics: vec![row("forecast_mean_abs", 1.02)],
        ..Manifest::default()
    };
    candidate.write(&candidate_path).unwrap();
    let out = tfb(&[
        "registry",
        "promote",
        "ili",
        "--registry",
        reg.to_str().unwrap(),
        "--baseline",
        baseline_path.to_str().unwrap(),
        "--candidate",
        candidate_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let index = registry.load_index().expect("index");
    assert!(!index.models["ili"].labels.contains_key("canary"));
    assert!(
        index.models["ili"].previous.is_some(),
        "rollback point kept"
    );

    // And rollback restores the displaced production blob.
    let out = tfb(&[
        "registry",
        "rollback",
        "ili",
        "--registry",
        reg.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn registry_promote_vetoes_nan_candidates_even_within_tolerance() {
    use tfb_obs::manifest::MetricRow;
    use tfb_obs::Manifest;
    let dir = std::env::temp_dir().join(format!("tfb_cli_nanveto_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let reg = dir.join("reg");
    let registry = tfb::registry::Registry::open(&reg).expect("registry");
    registry
        .publish_bytes("ili", "canary", &tiny_artifact_bytes(7))
        .expect("publish canary");
    let row = |name: &str, value: f64| MetricRow {
        dataset: "ili".to_string(),
        method: "mirror".to_string(),
        horizon: 7,
        name: name.to_string(),
        value,
    };
    let baseline_path = dir.join("baseline.json");
    let candidate_path = dir.join("candidate.json");
    Manifest {
        metrics: vec![
            row("forecast_mean_abs", 1.0),
            row("forecast_nan_values", 0.0),
        ],
        ..Manifest::default()
    }
    .write(&baseline_path)
    .unwrap();
    // Identical accuracy, but the candidate emitted NaN values: the
    // percent gate cannot see that, the explicit veto must.
    Manifest {
        metrics: vec![
            row("forecast_mean_abs", 1.0),
            row("forecast_nan_values", 3.0),
        ],
        ..Manifest::default()
    }
    .write(&candidate_path)
    .unwrap();
    let out = tfb(&[
        "registry",
        "promote",
        "ili",
        "--registry",
        reg.to_str().unwrap(),
        "--baseline",
        baseline_path.to_str().unwrap(),
        "--candidate",
        candidate_path.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "NaN forecasts must veto promotion");
    assert!(String::from_utf8_lossy(&out.stdout).contains("NaN"));
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn registry_without_subcommand_prints_usage() {
    let out = tfb(&["registry"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("publish|ls|gc|fsck|promote|rollback"));
}

#[test]
fn obs_without_subcommand_prints_usage() {
    let out = tfb(&["obs"]);
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("usage"));
    assert!(text.contains("obs diff") && text.contains("obs gate") && text.contains("obs trend"));
}
