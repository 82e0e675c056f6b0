//! Tiny-size smoke run of every workload named in `BENCHMARK.json`,
//! untraced and traced: each run must exit 0, pass its output checks,
//! and end with a result line carrying exactly the metrics the spec
//! names for that mode, each with the spec's unit.

use std::path::Path;
use std::process::Command;
use tfb_json::JsonValue;

fn names(spec: &JsonValue, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .unwrap_or_else(|| panic!("{key} entry without {k}"))
            };
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let spec_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = JsonValue::parse(&std::fs::read_to_string(&spec_path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();
    let cwd = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&cwd).expect("create the smoke directory");
    for workload in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_tfb-perfbench"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "3",
                    "--seconds",
                    "0.3",
                    "--trace",
                    trace,
                    "--size",
                    "tiny",
                ])
                .current_dir(&cwd)
                .output()
                .expect("run the benchmark");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stderr}"
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            let result = JsonValue::parse(last).expect("the result line is JSON");
            let keys: Vec<&str> = result
                .as_object()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{workload}"
            );
            assert_eq!(
                result.get("correct").and_then(JsonValue::as_bool),
                Some(true),
                "{workload} --trace {trace}:\n{stderr}"
            );
            assert!(result
                .get("attempted")
                .and_then(JsonValue::as_f64)
                .is_some_and(|n| n >= 1.0));
            let metrics = result
                .get("metrics")
                .and_then(JsonValue::as_object)
                .expect("metrics object");
            let want = names(&spec, key);
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value").and_then(JsonValue::as_f64).is_some(),
                        "{workload}: {name} has no numeric value"
                    );
                    (
                        name.clone(),
                        m.get("unit")
                            .and_then(JsonValue::as_str)
                            .unwrap_or_default()
                            .to_string(),
                    )
                })
                .collect();
            assert_eq!(got, want, "{workload} --trace {trace}");
        }
    }
}
