//! The suite runner behind `tfb bench ls|run|cmp|rank`.
//!
//! One measurement pipeline for every suite: discover the declarative
//! files, select cells by glob, execute each cell under the `tfb-obs`
//! span machinery, reduce samples to [`MeasurementRow`]s, and emit a
//! `tfb-obs/v1` manifest per suite — written next to the run and
//! auto-appended to the `.tfb-history/` store, so `tfb obs diff|trend|
//! gate` cover every suite uniformly.
//!
//! `rank` is the paper-claim surface: it regenerates a Table 6/7-style
//! per-characteristic (or per-dataset) method ranking purely from the
//! newest recorded measurement of every cell in history — no re-run
//! needed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::engines::run_cell;
use crate::suite::{discover, glob_match, Suite};
use tfb_obs::history::RunHistory;
use tfb_obs::{Manifest, MeasurementRow};

/// Everything a `tfb bench run` invocation needs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Directory holding the suite files.
    pub suites_dir: PathBuf,
    /// Glob patterns against cell ids (`eval/etth1/*`); empty = all.
    pub patterns: Vec<String>,
    /// Restrict to one suite (by name or file stem) before globbing.
    pub suite: Option<String>,
    /// Where per-suite manifests (and `.bench.json` renderings) are written.
    pub out_dir: PathBuf,
    /// History store to auto-record into; `None` disables recording.
    pub history: Option<PathBuf>,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            suites_dir: PathBuf::from("benches/suites"),
            patterns: Vec::new(),
            suite: None,
            out_dir: PathBuf::from("target/obs"),
            history: Some(PathBuf::from(".tfb-history")),
        }
    }
}

/// What one `run` did, per suite.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// The suite's name.
    pub suite: String,
    /// Cells executed (after filtering).
    pub cells_run: usize,
    /// Measurement rows captured.
    pub rows: usize,
    /// Where the manifest landed.
    pub manifest_path: PathBuf,
    /// History id, when recording was on.
    pub history_id: Option<String>,
}

/// Whether a suite matches the `--suite` filter (by name or file stem).
fn suite_selected(suite: &Suite, filter: &Option<String>) -> bool {
    match filter {
        None => true,
        Some(f) => {
            suite.name == *f
                || suite
                    .path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .is_some_and(|stem| stem == f)
        }
    }
}

/// Whether a cell id matches any pattern (no patterns = match all).
/// A pattern with no wildcard also selects whole suites by prefix, so
/// `tfb bench run eval/etth1` runs that suite without needing quotes.
fn cell_selected(id: &str, suite_name: &str, patterns: &[String]) -> bool {
    if patterns.is_empty() {
        return true;
    }
    patterns
        .iter()
        .any(|p| glob_match(p, id) || p == suite_name || id.starts_with(&format!("{p}/")))
}

/// Renders `tfb bench ls`: one line per suite, with engine, cell count,
/// provenance file, and description.
pub fn render_ls(suites: &[Suite]) -> String {
    let mut out = String::new();
    let name_w = suites
        .iter()
        .map(|s| s.name.len())
        .max()
        .unwrap_or(4)
        .max(4);
    let _ = writeln!(
        out,
        "{:<name_w$}  {:<6} {:>5}  file",
        "suite", "engine", "cells"
    );
    for s in suites {
        let _ = writeln!(
            out,
            "{:<name_w$}  {:<6} {:>5}  {}{}",
            s.name,
            s.engine.name(),
            s.cells.len(),
            s.path.display(),
            if s.description.is_empty() {
                String::new()
            } else {
                format!("  — {}", s.description)
            }
        );
    }
    out
}

/// File-system-safe label for a suite name (`eval/etth1` → `eval_etth1`).
fn safe_label(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Runs every selected suite and records each one's manifest.
///
/// Cells execute under a `bench.cell` span (dataset/method tagged), so
/// phase attribution in the manifest matches the serving and eval paths.
/// With the `obs` feature off (or `TFB_OBS=0`) the harness still
/// captures measurements — it assembles a minimal manifest itself — so
/// history coverage does not depend on the recorder being compiled in.
pub fn run(cfg: &RunConfig) -> Result<Vec<SuiteRun>, String> {
    let suites = discover(&cfg.suites_dir)?;
    let mut runs = Vec::new();
    for suite in &suites {
        if !suite_selected(suite, &cfg.suite) {
            continue;
        }
        let selected: Vec<_> = suite
            .cells
            .iter()
            .filter(|c| cell_selected(&c.id, &suite.name, &cfg.patterns))
            .collect();
        if selected.is_empty() {
            continue;
        }
        let label = safe_label(&suite.name);
        let obs_on = std::env::var("TFB_OBS").map(|v| v != "0").unwrap_or(true);
        let mut armed = false;
        if obs_on {
            let _ = std::fs::create_dir_all(&cfg.out_dir);
            let opts = tfb_obs::RunOptions {
                events_path: Some(cfg.out_dir.join(format!("{label}.events.jsonl"))),
            };
            armed = tfb_obs::start_run(opts).is_ok();
        }
        let started = std::time::Instant::now();
        let mut rows: Vec<MeasurementRow> = Vec::new();
        let mut first_err = None;
        for cell in &selected {
            let _span = tfb_obs::span!("bench.cell", dataset = cell.dataset, method = cell.method);
            println!("running {} …", cell.id);
            match run_cell(suite, cell) {
                Ok(cell_rows) => rows.extend(cell_rows),
                Err(e) => {
                    eprintln!("  FAILED: {e}");
                    first_err.get_or_insert(e);
                }
            }
        }
        rows.sort_by(|a, b| (&a.name, &a.quantity).cmp(&(&b.name, &b.quantity)));
        let meta = [
            ("bin", "tfb-bench".to_string()),
            ("suite", suite.name.clone()),
            ("git_rev", tfb_obs::git_rev().unwrap_or_default()),
            ("scale", format!("{:?}", crate::RunScale::from_env())),
            ("kernel", tfb_math::kernel::active_name().to_string()),
        ];
        // The recorder hands back the span/counter manifest when armed;
        // otherwise build a minimal one so measurements always record.
        let mut manifest = if armed {
            tfb_obs::finish_run(&meta).unwrap_or_default()
        } else {
            Manifest::default()
        };
        if manifest.meta.is_empty() {
            manifest.meta = meta
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect();
            manifest.cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            manifest.wall_ns = started.elapsed().as_nanos() as u64;
            manifest.peak_rss_bytes = tfb_obs::peak_rss_bytes();
        }
        manifest.measurements = rows;
        let manifest_path = cfg.out_dir.join(format!("{label}.manifest.json"));
        let _ = std::fs::create_dir_all(&cfg.out_dir);
        manifest
            .write(&manifest_path)
            .map_err(|e| format!("cannot write {}: {e}", manifest_path.display()))?;
        // The rebar-style rendering of the same captured measurements.
        let entries = crate::measure::to_bench_entries(&manifest.measurements);
        let bench_path = cfg.out_dir.join(format!("{label}.bench.json"));
        crate::emit::write_bench_json(&bench_path, &entries)
            .map_err(|e| format!("cannot write {}: {e}", bench_path.display()))?;
        let history_id = match &cfg.history {
            None => None,
            Some(root) => {
                let mut h = RunHistory::open(root)?;
                Some(h.append(&manifest)?.id)
            }
        };
        println!(
            "{}: {} cell(s), {} measurement(s) -> {}{}",
            suite.name,
            selected.len(),
            manifest.measurements.len(),
            manifest_path.display(),
            history_id
                .as_deref()
                .map(|id| format!(" (history {})", &id[..8.min(id.len())]))
                .unwrap_or_default()
        );
        if let Some(e) = first_err {
            return Err(e);
        }
        runs.push(SuiteRun {
            suite: suite.name.clone(),
            cells_run: selected.len(),
            rows: manifest.measurements.len(),
            manifest_path,
            history_id,
        });
    }
    if runs.is_empty() {
        return Err(match (&cfg.suite, cfg.patterns.is_empty()) {
            (Some(s), _) => format!("no suite matches --suite {s:?}"),
            (None, false) => format!("no cells match {:?}", cfg.patterns),
            (None, true) => format!("no suites under {}", cfg.suites_dir.display()),
        });
    }
    Ok(runs)
}

/// Renders `tfb bench cmp`: the measurement rows of two manifests side
/// by side (medians), worst regression first.
pub fn render_cmp(base: &Manifest, new: &Manifest) -> String {
    let rows = tfb_obs::history::diff_manifests(base, new);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<52} {:>14} {:>14} {:>9}",
        "measurement", "base", "new", "delta"
    );
    let mut any = false;
    for r in rows
        .iter()
        .filter(|r| r.kind == tfb_obs::history::DiffKind::Measurement)
    {
        any = true;
        let fmt = |v: Option<f64>| match v {
            Some(v) if v.is_finite() => format!("{v:.3}"),
            _ => "n/a".to_string(),
        };
        let delta = match r.delta_pct() {
            Some(d) => format!("{d:+.1}%"),
            None => "n/a".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<52} {:>14} {:>14} {:>9}",
            r.name,
            fmt(r.base),
            fmt(r.new),
            delta
        );
    }
    if !any {
        out.push_str("(no measurement records on either side — run `tfb bench run` first)\n");
    }
    out
}

/// One method's aggregate within a ranking group.
#[derive(Debug, Clone, PartialEq)]
pub struct RankLine {
    /// Method name.
    pub method: String,
    /// Mean score over the group's cells.
    pub mean: f64,
    /// Cells aggregated.
    pub cells: usize,
    /// Wins: (dataset, horizon) units where this method scored best.
    pub wins: usize,
}

/// A ranking table: group label (characteristic or dataset) → lines
/// sorted best (lowest mean) first.
pub type Ranking = Vec<(String, Vec<RankLine>)>;

/// Regenerates a per-`by` method ranking from recorded measurements:
/// for every (cell, quantity==`metric`) the *newest* history record
/// wins; groups are the distinct values of `by` (`characteristic` or
/// `dataset`); wins count (dataset, horizon) units where the method has
/// the group's best score — the paper's Table 6 "Ranks" column.
pub fn rank_from_history(root: &Path, by: &str, metric: &str) -> Result<Ranking, String> {
    if !matches!(by, "characteristic" | "dataset") {
        return Err(format!("--by takes characteristic|dataset, got {by:?}"));
    }
    let history = RunHistory::open(root)?;
    if history.entries().is_empty() {
        return Err(format!(
            "history {} is empty — run `tfb bench run` first",
            root.display()
        ));
    }
    // Newest record per (cell, quantity) wins.
    let mut latest: BTreeMap<String, MeasurementRow> = BTreeMap::new();
    for entry in history.entries().iter().rev() {
        let parsed = history.load(entry)?;
        for row in parsed.manifest.measurements {
            if row.quantity != metric {
                continue;
            }
            latest.entry(row.name.clone()).or_insert(row);
        }
    }
    if latest.is_empty() {
        return Err(format!(
            "no {metric:?} measurements in {} — run an eval suite first",
            root.display()
        ));
    }
    // Group rows, then aggregate per method.
    let mut groups: BTreeMap<String, Vec<&MeasurementRow>> = BTreeMap::new();
    for row in latest.values() {
        let key = match by {
            "characteristic" => {
                if row.characteristic.is_empty() {
                    continue; // untagged cells can't join a characteristic group
                }
                row.characteristic.clone()
            }
            _ => row.dataset.clone(),
        };
        groups.entry(key).or_default().push(row);
    }
    let mut ranking = Vec::new();
    for (label, rows) in groups {
        let mut sums: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
        // Best score per (dataset, horizon) unit → a win for its method.
        let mut best: BTreeMap<(String, u64), (&str, f64)> = BTreeMap::new();
        for row in &rows {
            if !row.median.is_finite() {
                continue;
            }
            let e = sums.entry(row.method.as_str()).or_insert((0.0, 0));
            e.0 += row.median;
            e.1 += 1;
            let unit = (row.dataset.clone(), row.horizon);
            match best.get(&unit) {
                Some(&(_, score)) if score <= row.median => {}
                _ => {
                    best.insert(unit, (row.method.as_str(), row.median));
                }
            }
        }
        let mut wins: BTreeMap<&str, usize> = BTreeMap::new();
        for (m, _) in best.values() {
            *wins.entry(m).or_insert(0) += 1;
        }
        let mut lines: Vec<RankLine> = sums
            .into_iter()
            .map(|(m, (sum, n))| RankLine {
                method: m.to_string(),
                mean: sum / n.max(1) as f64,
                cells: n,
                wins: wins.get(m).copied().unwrap_or(0),
            })
            .collect();
        lines.sort_by(|a, b| {
            a.mean
                .partial_cmp(&b.mean)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        ranking.push((label, lines));
    }
    Ok(ranking)
}

/// Renders a ranking as Table 6-style markdown.
pub fn render_rank(ranking: &Ranking, by: &str, metric: &str) -> String {
    let mut out = String::new();
    for (label, lines) in ranking {
        let _ = writeln!(out, "\n## {by} = {label} ({} method(s))", lines.len());
        let _ = writeln!(out, "| method | {metric} | cells | ranks |");
        let _ = writeln!(out, "|---|---|---|---|");
        for l in lines {
            let _ = writeln!(
                out,
                "| {} | {:.3} | {} | {} |",
                l.method, l.mean, l.cells, l.wins
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::parse_suite;

    #[test]
    fn selection_filters() {
        let doc = crate::toml::parse(
            "name = \"eval/x\"\nengine = \"eval\"\n[[entry]]\nname = \"a\"\n[[entry]]\nname = \"b\"",
        )
        .unwrap();
        let suite = parse_suite(&doc, Path::new("suites/x.toml")).unwrap();
        assert!(suite_selected(&suite, &None));
        assert!(suite_selected(&suite, &Some("eval/x".into())));
        assert!(suite_selected(&suite, &Some("x".into())), "file stem");
        assert!(!suite_selected(&suite, &Some("eval/y".into())));
        assert!(cell_selected("eval/x/a", "eval/x", &[]));
        assert!(cell_selected("eval/x/a", "eval/x", &["eval/*".into()]));
        assert!(
            cell_selected("eval/x/a", "eval/x", &["eval/x".into()]),
            "bare suite name"
        );
        assert!(!cell_selected("eval/x/a", "eval/x", &["math/*".into()]));
    }

    #[test]
    fn ls_lists_every_suite() {
        let doc = crate::toml::parse(
            "name = \"eval/x\"\nengine = \"eval\"\ndescription = \"demo\"\n[[entry]]\nname = \"a\"",
        )
        .unwrap();
        let suite = parse_suite(&doc, Path::new("suites/x.toml")).unwrap();
        let text = render_ls(&[suite]);
        assert!(text.contains("eval/x"), "{text}");
        assert!(text.contains("demo"), "{text}");
        assert!(text.contains("suites/x.toml"), "{text}");
    }

    #[test]
    fn rank_groups_and_wins_from_history() {
        let root = std::env::temp_dir().join(format!("tfb_rank_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let row = |cell: &str, method: &str, dataset: &str, ch: &str, v: f64| MeasurementRow {
            name: cell.into(),
            quantity: "msmape".into(),
            unit: String::new(),
            iters: 1,
            min: v,
            median: v,
            mean: v,
            stddev: 0.0,
            suite: "eval/t".into(),
            engine: "eval".into(),
            dataset: dataset.into(),
            method: method.into(),
            characteristic: ch.into(),
            horizon: 24,
            calls: 1,
        };
        let mut h = RunHistory::open(&root).unwrap();
        let m1 = Manifest {
            measurements: vec![
                row("eval/t/LR-ili", "LR", "ILI", "seasonality", 10.0),
                row("eval/t/NL-ili", "NLinear", "ILI", "seasonality", 12.0),
                row("eval/t/LR-etth1", "LR", "ETTh1", "trend", 30.0),
            ],
            ..Manifest::default()
        };
        h.append(&m1).unwrap();
        // A newer run improves NLinear: the newest record must win.
        let m2 = Manifest {
            measurements: vec![row("eval/t/NL-ili", "NLinear", "ILI", "seasonality", 8.0)],
            ..Manifest::default()
        };
        h.append(&m2).unwrap();

        let ranking = rank_from_history(&root, "characteristic", "msmape").unwrap();
        assert_eq!(ranking.len(), 2);
        let (label, lines) = &ranking[0];
        assert_eq!(label, "seasonality");
        assert_eq!(lines[0].method, "NLinear", "newest record (8.0) wins");
        assert_eq!(lines[0].wins, 1);
        assert_eq!(lines[1].method, "LR");
        assert_eq!(lines[1].wins, 0, "LR lost the ILI/24 unit");
        let text = render_rank(&ranking, "characteristic", "msmape");
        assert!(text.contains("## characteristic = seasonality"), "{text}");
        assert!(text.contains("| NLinear | 8.000 | 1 | 1 |"), "{text}");
        // Grouping by dataset uses the same records.
        let by_ds = rank_from_history(&root, "dataset", "msmape").unwrap();
        assert!(by_ds.iter().any(|(l, _)| l == "ILI"));
        assert!(rank_from_history(&root, "by-vibes", "msmape").is_err());
        let _ = std::fs::remove_dir_all(&root);
    }
}
