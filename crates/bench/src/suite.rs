//! Declarative benchmark suites: the rebar-style definition layer.
//!
//! A suite is a TOML (or JSON) file under `benches/suites/` describing a
//! grid of benchmark *cells* — dataset profile × characteristic ×
//! horizon × method × workload — plus an `engine` field selecting which
//! workload family executes them:
//!
//! ```toml
//! name = "eval/etth1"
//! engine = "eval"
//! description = "Rolling evaluation on the ETTh1 profile"
//!
//! [defaults]
//! dataset = "ETTh1"
//! characteristic = "trend"
//! iters = 3
//!
//! [[entry]]
//! name = "LR-h24"
//! method = "LR"
//! horizon = 24
//! ```
//!
//! Every `[[entry]]` is merged over `[defaults]`; a cell's id is
//! `<suite name>/<entry name>` (e.g. `eval/etth1/LR-h24`), which is what
//! `tfb bench run` glob patterns select on and what measurement records
//! carry as their `name`.

use std::path::{Path, PathBuf};
use tfb_json::JsonValue;

/// Which workload family executes a suite's cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Dataset × method rolling/fixed evaluation (the paper's protocol).
    Eval,
    /// tfb-math kernel microbenchmarks (scalar vs dispatched path).
    Math,
    /// Closed-loop load against the forecast server.
    Serve,
}

impl Engine {
    /// Parses the suite file's `engine` field.
    pub fn parse(s: &str) -> Result<Engine, String> {
        match s {
            "eval" => Ok(Engine::Eval),
            "math" => Ok(Engine::Math),
            "serve" => Ok(Engine::Serve),
            other => Err(format!("unknown engine {other:?} (eval|math|serve)")),
        }
    }

    /// Display name (matches the `engine` field's spelling).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Eval => "eval",
            Engine::Math => "math",
            Engine::Serve => "serve",
        }
    }
}

/// One benchmark cell, fully resolved (entry merged over defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Full id: `<suite name>/<entry name>`.
    pub id: String,
    /// Entry name within the suite.
    pub name: String,
    /// Dataset profile name (eval) / data label (serve).
    pub dataset: String,
    /// Method under test.
    pub method: String,
    /// Forecast horizon.
    pub horizon: usize,
    /// Characteristic tag the cell's dataset exercises (Table 6 axis).
    pub characteristic: String,
    /// Look-back window; 0 derives `H = 1.25 F` (the paper's default).
    pub lookback: usize,
    /// Rolling-window cap (0 = every window).
    pub max_windows: usize,
    /// Generated series length cap.
    pub max_len: usize,
    /// Generated series dimension cap.
    pub max_dim: usize,
    /// Timing repetitions per cell (min/median/mean/stddev are over these).
    pub iters: usize,
    /// Deep-method training epochs.
    pub epochs: usize,
    /// Eval engine: rolling stride (history grows this many steps per
    /// window; 1 is the paper's reference).
    pub stride: usize,
    /// Eval engine: normalization scheme (`ZScore`, `MinMax`, `None`).
    pub normalization: String,
    /// Eval engine: multi-step strategy — `dms` (direct, the default) or
    /// `ims` (iterated one-step; LR only).
    pub multistep: String,
    /// Eval engine: inference mode — `batched` (one `predict_batch`
    /// over all windows, the default) or `sequential` (one `predict`
    /// per window; the pre-batching reference path).
    pub inference: String,
    /// Math engine: which kernel (`dot`, `dot_skip`, `axpy`, `gemm`,
    /// `gemm_tn`).
    pub workload: String,
    /// Math engine: vector length / GEMM output width.
    pub n: usize,
    /// Math engine: GEMM reduction depth.
    pub depth: usize,
    /// Math engine: GEMM output rows (left-hand rows; columns for
    /// `gemm_tn`).
    pub rows: usize,
    /// Math engine: percent of GEMM left-hand values that are exact
    /// zeros, as ReLU leaves them. A cell with zeros cycles through a
    /// pool of left operands with different zero patterns, so no branch
    /// predictor can learn one.
    pub zeros: usize,
    /// Serve engine: closed-loop client count.
    pub clients: usize,
    /// Serve engine: leg duration in milliseconds.
    pub duration_ms: u64,
    /// Serve engine: shard count.
    pub shards: usize,
    /// Serve engine: fleet size — 1 (default) load-tests a single model
    /// over `POST /forecast`; >1 publishes this many models into a
    /// throwaway registry and drives zipfian multi-model traffic over
    /// `POST /v1/forecast/{model}`.
    pub models: usize,
    /// Serve engine: fleet LRU capacity (0 = hold every model
    /// resident). A cap below `models` forces cold loads and evictions
    /// — the fleet-churn regime the `serve/fleet` rows measure.
    pub resident_cap: usize,
}

/// A parsed suite file.
#[derive(Debug, Clone)]
pub struct Suite {
    /// Suite name, conventionally `<engine>/<topic>` (e.g. `eval/etth1`).
    pub name: String,
    /// Executing engine.
    pub engine: Engine,
    /// One-line description shown by `tfb bench ls`.
    pub description: String,
    /// The file this suite came from.
    pub path: PathBuf,
    /// Resolved cells, in file order.
    pub cells: Vec<Cell>,
}

/// The value type a suite key takes.
#[derive(Clone, Copy)]
enum Kind {
    Str,
    Int,
    Table,
    Tables,
}

/// The keys `[defaults]` and every `[[entry]]` may set (`name` aside).
fn cell_key(key: &str) -> Option<Kind> {
    match key {
        "dataset" | "method" | "characteristic" | "normalization" | "multistep" | "inference"
        | "workload" => Some(Kind::Str),
        "horizon" | "lookback" | "max_windows" | "max_len" | "max_dim" | "iters" | "epochs"
        | "stride" | "n" | "depth" | "rows" | "zeros" | "clients" | "duration_ms" | "shards"
        | "models" | "resident_cap" => Some(Kind::Int),
        _ => None,
    }
}

/// Rejects any key `kind_of` does not know and any value of the wrong
/// type, so a misspelled key (`shard = 2`) or a quoted number
/// (`iters = "5"`) fails loudly instead of running the default.
fn check_table(
    table: &JsonValue,
    what: &str,
    kind_of: impl Fn(&str) -> Option<Kind>,
) -> Result<(), String> {
    let fields = table
        .as_object()
        .ok_or_else(|| format!("{what} is not a table"))?;
    for (key, value) in fields {
        let kind = kind_of(key).ok_or_else(|| format!("{what}: unknown key {key:?}"))?;
        let (ok, expected) = match kind {
            Kind::Str => (value.as_str().is_some(), "a string"),
            Kind::Int => (value.as_usize().is_some(), "a non-negative integer"),
            Kind::Table => (value.as_object().is_some(), "a table"),
            // Each element is checked as a table of its own.
            Kind::Tables => (value.as_array().is_some(), "an array of tables"),
        };
        if !ok {
            return Err(format!(
                "{what}: key {key:?} takes {expected}, not {}",
                value.compact()
            ));
        }
    }
    Ok(())
}

fn get_usize(entry: &JsonValue, defaults: &JsonValue, key: &str, fallback: usize) -> usize {
    entry
        .get(key)
        .or_else(|| defaults.get(key))
        .and_then(|v| v.as_usize())
        .unwrap_or(fallback)
}

fn get_merged_str(entry: &JsonValue, defaults: &JsonValue, key: &str, fallback: &str) -> String {
    entry
        .get(key)
        .or_else(|| defaults.get(key))
        .and_then(|s| s.as_str())
        .unwrap_or(fallback)
        .to_string()
}

/// Parses a suite document (the JSON tree shared by `.toml` and `.json`
/// files) into a [`Suite`]. A key the suite format does not know, or a
/// value of the wrong type, is an error naming the table and the key
/// ([`load_suite`] adds the file).
pub fn parse_suite(doc: &JsonValue, path: &Path) -> Result<Suite, String> {
    check_table(doc, "suite", |key| match key {
        "name" | "engine" | "description" => Some(Kind::Str),
        "defaults" => Some(Kind::Table),
        "entry" => Some(Kind::Tables),
        _ => None,
    })?;
    let name = doc
        .get("name")
        .and_then(|s| s.as_str())
        .ok_or("suite has no \"name\"")?
        .to_string();
    let engine = Engine::parse(
        doc.get("engine")
            .and_then(|s| s.as_str())
            .ok_or("suite has no \"engine\"")?,
    )?;
    let description = doc
        .get("description")
        .and_then(|s| s.as_str())
        .unwrap_or_default()
        .to_string();
    let empty = JsonValue::Object(vec![]);
    let defaults = doc.get("defaults").unwrap_or(&empty);
    check_table(defaults, "[defaults]", cell_key)?;
    let entries = doc
        .get("entry")
        .and_then(|v| v.as_array())
        .ok_or("suite has no [[entry]] tables")?;
    if entries.is_empty() {
        return Err("suite has no [[entry]] tables".into());
    }
    let mut cells = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        let label = match entry.get("name").and_then(|s| s.as_str()) {
            Some(n) => format!("[[entry]] {n:?}"),
            None => format!("[[entry]] #{}", i + 1),
        };
        check_table(entry, &label, |key| match key {
            "name" => Some(Kind::Str),
            _ => cell_key(key),
        })?;
        let cell_name = entry
            .get("name")
            .and_then(|s| s.as_str())
            .ok_or(format!("entry #{} has no \"name\"", i + 1))?
            .to_string();
        if cells.iter().any(|c: &Cell| c.name == cell_name) {
            return Err(format!("duplicate entry name {cell_name:?}"));
        }
        cells.push(Cell {
            id: format!("{name}/{cell_name}"),
            name: cell_name,
            dataset: get_merged_str(entry, defaults, "dataset", ""),
            method: get_merged_str(entry, defaults, "method", ""),
            horizon: get_usize(entry, defaults, "horizon", 24),
            characteristic: get_merged_str(entry, defaults, "characteristic", ""),
            lookback: get_usize(entry, defaults, "lookback", 0),
            max_windows: get_usize(entry, defaults, "max_windows", 8),
            max_len: get_usize(entry, defaults, "max_len", 800),
            max_dim: get_usize(entry, defaults, "max_dim", 4),
            iters: get_usize(entry, defaults, "iters", 3).max(1),
            epochs: get_usize(entry, defaults, "epochs", 2),
            stride: get_usize(entry, defaults, "stride", 1).max(1),
            normalization: get_merged_str(entry, defaults, "normalization", "ZScore"),
            multistep: get_merged_str(entry, defaults, "multistep", "dms"),
            inference: get_merged_str(entry, defaults, "inference", "batched"),
            workload: get_merged_str(entry, defaults, "workload", "dot"),
            n: get_usize(entry, defaults, "n", 256),
            depth: get_usize(entry, defaults, "depth", 24),
            rows: get_usize(entry, defaults, "rows", 1),
            zeros: get_usize(entry, defaults, "zeros", 0),
            clients: get_usize(entry, defaults, "clients", 4),
            duration_ms: get_usize(entry, defaults, "duration_ms", 400) as u64,
            shards: get_usize(entry, defaults, "shards", 1),
            models: get_usize(entry, defaults, "models", 1).max(1),
            resident_cap: get_usize(entry, defaults, "resident_cap", 0),
        });
    }
    Ok(Suite {
        name,
        engine,
        description,
        path: path.to_path_buf(),
        cells,
    })
}

/// Loads one suite file, dispatching on extension (`.toml` or `.json`).
pub fn load_suite(path: &Path) -> Result<Suite, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = match path.extension().and_then(|e| e.to_str()) {
        Some("toml") => crate::toml::parse(&text),
        Some("json") => JsonValue::parse(&text).map_err(|e| e.to_string()),
        other => Err(format!("unsupported suite extension {other:?}")),
    }
    .map_err(|e| format!("{}: {e}", path.display()))?;
    parse_suite(&doc, path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Discovers every suite under `dir` (files named `*.toml` / `*.json`,
/// sorted by file name so listings are stable). A malformed suite file is
/// an error, not a skip — a typo'd suite silently vanishing from `tfb
/// bench ls` would be worse than failing loudly.
pub fn discover(dir: &Path) -> Result<Vec<Suite>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read suite dir {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            matches!(
                p.extension().and_then(|e| e.to_str()),
                Some("toml") | Some("json")
            )
        })
        .collect();
    paths.sort();
    let mut suites = Vec::new();
    for path in paths {
        suites.push(load_suite(&path)?);
    }
    Ok(suites)
}

/// Glob match where `*` matches any run of characters (including `/`,
/// so `eval/*` selects every cell of every `eval/…` suite) and `?`
/// matches exactly one.
pub fn glob_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    // Iterative backtracking matcher: only the most recent `*` needs
    // revisiting, so this is O(p·t) worst case with no recursion.
    let (mut pi, mut ti) = (0usize, 0usize);
    let (mut star, mut star_ti) = (None::<usize>, 0usize);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '?' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = Some(pi);
            star_ti = ti;
            pi += 1;
        } else if let Some(s) = star {
            pi = s + 1;
            star_ti += 1;
            ti = star_ti;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> JsonValue {
        crate::toml::parse(
            r#"
name = "eval/etth1"
engine = "eval"
description = "ETTh1 rolling grid"

[defaults]
dataset = "ETTh1"
characteristic = "trend"
horizon = 24
iters = 2

[[entry]]
name = "LR-h24"
method = "LR"

[[entry]]
name = "NLinear-h48"
method = "NLinear"
horizon = 48
"#,
        )
        .expect("toml parses")
    }

    #[test]
    fn entries_merge_over_defaults() {
        let suite = parse_suite(&sample_doc(), Path::new("x.toml")).expect("suite");
        assert_eq!(suite.name, "eval/etth1");
        assert_eq!(suite.engine, Engine::Eval);
        assert_eq!(suite.cells.len(), 2);
        let lr = &suite.cells[0];
        assert_eq!(lr.id, "eval/etth1/LR-h24");
        assert_eq!(lr.dataset, "ETTh1");
        assert_eq!(lr.horizon, 24);
        assert_eq!(lr.iters, 2);
        let nl = &suite.cells[1];
        assert_eq!(nl.horizon, 48, "entry overrides the default");
        assert_eq!(nl.characteristic, "trend", "default carries through");
        assert_eq!(lr.stride, 1, "ablation knobs default to the paper's");
        assert_eq!(lr.normalization, "ZScore");
        assert_eq!(lr.multistep, "dms");
        assert_eq!(lr.inference, "batched");
        assert_eq!(lr.models, 1, "single-model serving is the default");
        assert_eq!(lr.resident_cap, 0);
    }

    #[test]
    fn missing_required_fields_error() {
        let doc = crate::toml::parse("engine = \"eval\"\n[[entry]]\nname = \"x\"").unwrap();
        assert!(parse_suite(&doc, Path::new("x.toml")).is_err(), "no name");
        let doc = crate::toml::parse("name = \"a\"\nengine = \"quantum\"").unwrap();
        assert!(
            parse_suite(&doc, Path::new("x.toml")).is_err(),
            "bad engine"
        );
        let doc = crate::toml::parse("name = \"a\"\nengine = \"eval\"").unwrap();
        assert!(
            parse_suite(&doc, Path::new("x.toml")).is_err(),
            "no entries"
        );
    }

    #[test]
    fn unknown_keys_and_mistyped_values_are_errors() {
        let err = |body: &str| {
            let toml = format!("name = \"serve/x\"\nengine = \"serve\"\n{body}");
            parse_suite(&crate::toml::parse(&toml).unwrap(), Path::new("x.toml")).unwrap_err()
        };
        let entry = "[[entry]]\nname = \"c\"";
        for (body, want) in [
            // A misspelled key, in an entry, in [defaults], at the top.
            (
                format!("{entry}\nshard = 2"),
                r#"[[entry]] "c": unknown key "shard""#,
            ),
            (
                format!("[defaults]\nclient = 4\n{entry}"),
                r#"[defaults]: unknown key "client""#,
            ),
            (
                format!("descripton = \"d\"\n{entry}"),
                r#"suite: unknown key "descripton""#,
            ),
            // Values of the wrong type.
            (
                format!("{entry}\niters = \"5\""),
                r#"[[entry]] "c": key "iters" takes"#,
            ),
            (
                format!("{entry}\nshards = -1"),
                r#"[[entry]] "c": key "shards" takes"#,
            ),
            (
                format!("{entry}\nduration_ms = 2.5"),
                r#"[[entry]] "c": key "duration_ms" takes"#,
            ),
            (
                format!("{entry}\nmethod = 3"),
                r#"[[entry]] "c": key "method" takes"#,
            ),
            (
                format!("[defaults]\nhorizon = true\n{entry}"),
                r#"[defaults]: key "horizon" takes"#,
            ),
            (
                format!("description = 1\n{entry}"),
                r#"suite: key "description" takes"#,
            ),
            // An entry without a usable name is named by position.
            (
                format!("{entry}\n[[entry]]\nname = 7"),
                r#"[[entry]] #2: key "name" takes"#,
            ),
        ] {
            let e = err(&body);
            assert!(e.contains(want), "{body:?}: {e}");
        }
        // Loading from disk prefixes the file.
        let path = std::env::temp_dir().join(format!("tfb_suite_typo_{}.toml", std::process::id()));
        std::fs::write(
            &path,
            "name = \"serve/x\"\nengine = \"serve\"\n[[entry]]\nname = \"c\"\nshard = 2",
        )
        .unwrap();
        let e = load_suite(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(e.starts_with(&path.display().to_string()), "{e}");
        assert!(e.contains("[[entry]] \"c\": unknown key \"shard\""), "{e}");
    }

    #[test]
    fn json_suites_parse_identically() {
        let json = r#"{
  "name": "eval/etth1",
  "engine": "eval",
  "defaults": {"dataset": "ETTh1", "horizon": 24},
  "entry": [{"name": "LR-h24", "method": "LR"}]
}"#;
        let doc = JsonValue::parse(json).expect("json");
        let suite = parse_suite(&doc, Path::new("x.json")).expect("suite");
        assert_eq!(suite.cells[0].id, "eval/etth1/LR-h24");
        assert_eq!(suite.cells[0].dataset, "ETTh1");
    }

    #[test]
    fn glob_semantics() {
        assert!(glob_match("eval/*", "eval/etth1/LR-h24"), "* crosses /");
        assert!(glob_match("*", "anything"));
        assert!(glob_match("eval/*/LR-*", "eval/etth1/LR-h24"));
        assert!(!glob_match("eval/*", "math/kernels/dot-64"));
        assert!(glob_match("eval/etth1/LR-h24", "eval/etth1/LR-h24"));
        assert!(!glob_match("eval/etth1/LR-h24", "eval/etth1/LR-h2"));
        assert!(glob_match("e?al/*", "eval/x"));
        assert!(!glob_match("e?al/*", "eeval/x"));
        assert!(glob_match("*h48", "eval/etth1/NLinear-h48"));
        assert!(!glob_match("", "x"));
        assert!(glob_match("**", "x/y"));
    }

    #[test]
    fn discover_sorts_and_errors_loudly() {
        let dir = std::env::temp_dir().join(format!("tfb_suites_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("b.toml"),
            "name = \"eval/b\"\nengine = \"eval\"\n[[entry]]\nname = \"x\"\nmethod = \"LR\"\ndataset = \"ILI\"",
        )
        .unwrap();
        std::fs::write(
            dir.join("a.json"),
            r#"{"name": "math/a", "engine": "math", "entry": [{"name": "d"}]}"#,
        )
        .unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let suites = discover(&dir).expect("discover");
        assert_eq!(suites.len(), 2);
        assert_eq!(suites[0].name, "math/a", "sorted by file name");
        assert_eq!(suites[1].name, "eval/b");
        // A malformed suite is an error, not a silent skip.
        std::fs::write(dir.join("c.toml"), "name = oops").unwrap();
        assert!(discover(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
