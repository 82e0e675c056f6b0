//! `tfb` — command-line driver for the benchmark pipeline.
//!
//! ```text
//! tfb run <config.json> [--threads N] [--out DIR] [--history DIR|none]
//!                                                   run a benchmark config
//! tfb bench ls                                      list the declarative suites
//! tfb bench run [PATTERN..] [--suite NAME]          execute suite cells, record
//!                                                   manifests into the history
//! tfb bench cmp <A> <B>                             measurements side by side
//! tfb bench rank [--by characteristic|dataset]      Table 6/7-style ranking
//!                                                   from recorded history
//! tfb obs diff <A> <B> [--tol-pct P]                compare two recorded runs
//! tfb obs trend [--metric M] [--limit N]            per-cell metric history
//! tfb obs quality [--limit N]                       quality scorecards + drift
//!                                                   timelines from recorded runs
//! tfb obs gate [--baseline X] [--candidate Y]
//!              [--tol-pct P] [--tol-metric P] [--min-runs K]
//!                                                   noise-aware regression gate
//! tfb obs export-trace EVENTS.jsonl [--out FILE]    Perfetto/Chrome trace JSON
//! tfb obs validate-metrics FILE                     check an OpenMetrics exposition
//! tfb train --method M --dataset D --out MODEL.tfba
//!                                                   fit and save a model artifact
//! tfb registry publish MODEL.tfba --name NAME       checksum + store an artifact
//! tfb registry ls|gc|fsck                           inspect / clean / verify
//! tfb registry promote NAME [--baseline A --candidate B]
//!                                                   gate canary → prod
//! tfb registry rollback NAME                        restore the displaced blob
//! tfb serve --model MODEL.tfba [--addr HOST:PORT]   serve forecasts over HTTP
//! tfb serve --registry DIR [--resident-cap N]       serve a whole model fleet
//! tfb datasets                                      list the dataset registry
//! tfb methods                                       list the method registry
//! tfb characterize <dataset> [--max-len N]          score one dataset
//! tfb example-config                                print a starter config
//! ```
//!
//! The config format is [`tfb::core::BenchmarkConfig`]; results land in the
//! output directory as CSV plus a run log, and the MAE table prints to
//! stdout. Every recorded run's manifest is also appended to the run
//! history (default `.tfb-history/`, overridable with `--history` or the
//! `TFB_HISTORY` environment variable; `--history none` disables it),
//! which is what the `obs diff|trend|gate` subcommands read. Run
//! selectors for those subcommands are either a manifest file path or a
//! history selector: `first`, `last`, a 0-based index, or an id prefix.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tfb::core::report::{RankTable, ResultTable, RunLog};
use tfb::core::{run_jobs, BenchmarkConfig, CoreError, Metric, Parallelism};
use tfb::models::ModelError;
use tfb_obs::history::{self, GateTolerances, RunHistory};
use tfb_obs::Manifest;

const USAGE: &str = "usage: tfb <command>
  run CONFIG.json [--threads N] [--out DIR] [--history DIR|none]
  bench ls [--suites DIR]
  bench run [PATTERN..] [--suite NAME] [--suites DIR] [--out DIR]
            [--history DIR|none]
  bench cmp A B [--history DIR|none]
  bench rank [--by characteristic|dataset] [--metric M] [--history DIR]
  obs diff A B [--tol-pct P] [--history DIR|none]
  obs trend [--metric M] [--limit N] [--history DIR]
  obs quality [--limit N] [--history DIR]
  obs gate [--baseline X] [--candidate Y] [--tol-pct P] [--tol-metric P]
           [--min-runs K] [--history DIR|none]
  obs record MANIFEST.json [MORE.json|GLOB ..] [--history DIR]
  obs export-trace EVENTS.jsonl [--out TRACE.json]
  obs export-profile EVENTS.jsonl|SEL [--out PROFILE.collapsed] [--history DIR]
  obs postmortem ls [--history DIR]
  obs postmortem show SEL [--history DIR]
  obs postmortem export-trace SEL [--out TRACE.json] [--history DIR]
  obs validate-metrics FILE
  train --method M --dataset D --out MODEL.tfba [--lookback N] [--horizon N]
        [--norm ZScore|MinMax|None] [--max-len N] [--max-dim N] [--epochs N]
  registry publish MODEL.tfba --name NAME [--label prod] [--registry DIR]
  registry ls [--registry DIR]
  registry gc [--registry DIR]
  registry fsck [--registry DIR]
  registry promote NAME [--from canary] [--to prod] [--registry DIR]
           [--baseline SEL --candidate SEL] [--tol-pct P] [--force]
           [--quality SEL] [--quality-tol-pct P] [--history DIR|none]
  registry rollback NAME [--label prod] [--registry DIR]
  serve --model MODEL.tfba | --registry DIR [--addr HOST:PORT] [--shards N]
        [--resident-cap N] [--batch-max N] [--queue-cap N]
        [--out DIR] [--slo-ms MS] [--slo-objective Q] [--profile-hz HZ]
        [--canary-pct N] [--observe on|off] [--quality-window N]
        [--quality-slo-smape PCT] [--quality-slo-objective Q]
        [--quality-ph-delta D] [--quality-ph-lambda L] [--history DIR|none]
  datasets
  methods
  characterize DATASET [--max-len N]
  example-config";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = check_flags(&args) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("obs") => cmd_obs(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("registry") => cmd_registry(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("datasets") => cmd_datasets(),
        Some("methods") => cmd_methods(),
        Some("characterize") => cmd_characterize(&args[1..]),
        Some("example-config") => cmd_example_config(),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// `parse_flag(args, flag, valid)`, or the error printed under the
/// command's name and `ExitCode::FAILURE` returned from the command.
macro_rules! flag {
    ($cmd:literal, $args:expr, $flag:literal, $valid:expr) => {
        match parse_flag($args, $flag, $valid) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{}: {e}", $cmd);
                return ExitCode::FAILURE;
            }
        }
    };
}

/// Valid counts and sizes.
fn positive(n: &usize) -> bool {
    *n > 0
}

/// Valid percentage tolerances.
fn tolerance(pct: &f64) -> bool {
    pct.is_finite() && *pct >= 0.0
}

/// Every subcommand's flags, keyed by its command words. `flag_value`
/// ignores flags nobody asks for, so [`check_flags`] refuses any flag
/// outside its command's list before the command runs: a typo must not
/// run silently with the defaults.
const FLAGS: [(&str, &[&str]); 26] = [
    ("run", &["--threads", "--out", "--history"]),
    ("bench ls", &["--suites"]),
    ("bench run", &["--suite", "--suites", "--out", "--history"]),
    ("bench cmp", &["--history"]),
    ("bench rank", &["--by", "--metric", "--history"]),
    ("obs diff", &["--tol-pct", "--history"]),
    ("obs trend", &["--metric", "--limit", "--history"]),
    ("obs quality", &["--limit", "--history"]),
    (
        "obs gate",
        &[
            "--baseline",
            "--candidate",
            "--tol-pct",
            "--tol-metric",
            "--min-runs",
            "--history",
        ],
    ),
    ("obs record", &["--history"]),
    ("obs export-trace", &["--out"]),
    ("obs export-profile", &["--out", "--history"]),
    ("obs postmortem", &["--out", "--history"]),
    ("obs validate-metrics", &[]),
    (
        "train",
        &[
            "--method",
            "--dataset",
            "--out",
            "--lookback",
            "--horizon",
            "--norm",
            "--max-len",
            "--max-dim",
            "--epochs",
        ],
    ),
    ("registry publish", &["--name", "--label", "--registry"]),
    ("registry ls", &["--registry"]),
    ("registry gc", &["--registry"]),
    ("registry fsck", &["--registry"]),
    (
        "registry promote",
        &[
            "--from",
            "--to",
            "--force",
            "--tol-pct",
            "--quality-tol-pct",
            "--baseline",
            "--candidate",
            "--quality",
            "--registry",
            "--history",
        ],
    ),
    ("registry rollback", &["--label", "--registry"]),
    (
        "serve",
        &[
            "--model",
            "--registry",
            "--addr",
            "--shards",
            "--resident-cap",
            "--batch-max",
            "--queue-cap",
            "--out",
            "--slo-ms",
            "--slo-objective",
            "--profile-hz",
            "--canary-pct",
            "--observe",
            "--quality-window",
            "--quality-slo-smape",
            "--quality-slo-objective",
            "--quality-ph-delta",
            "--quality-ph-lambda",
            "--history",
        ],
    ),
    ("characterize", &["--max-len"]),
    ("datasets", &[]),
    ("methods", &[]),
    ("example-config", &[]),
];

/// Flags that take no value.
const SWITCHES: [&str; 1] = ["--force"];

/// Refuses a flag the command does not read, naming it. Commands missing
/// from [`FLAGS`] are left to the dispatcher's usage message.
fn check_flags(args: &[String]) -> Result<(), String> {
    let words = match args.first().map(String::as_str) {
        Some("bench" | "obs" | "registry") => 2,
        _ => 1,
    };
    let Some(cmd) = args.get(..words).map(|w| w.join(" ")) else {
        return Ok(());
    };
    let Some((_, known)) = FLAGS.iter().find(|(c, _)| *c == cmd) else {
        return Ok(());
    };
    let mut rest = args[words..].iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            continue;
        }
        if !known.contains(&arg.as_str()) {
            return Err(format!(
                "tfb {cmd}: unknown flag {arg} (run `tfb` for the flag list)"
            ));
        }
        if !SWITCHES.contains(&arg.as_str()) {
            rest.next(); // the flag's value
        }
    }
    Ok(())
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Positional (non-flag) arguments. Every `--flag` but a switch consumes
/// the next argument as its value.
fn positionals(args: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if SWITCHES.contains(&args[i].as_str()) {
            i += 1;
        } else if args[i].starts_with("--") {
            i += 2;
        } else {
            out.push(args[i].clone());
            i += 1;
        }
    }
    out
}

/// Resolves the history root: `--history DIR`, then `TFB_HISTORY`, then
/// `.tfb-history`. `none` (or `0`) disables the history entirely.
fn history_root(args: &[String]) -> Option<PathBuf> {
    let v = flag_value(args, "--history")
        .or_else(|| std::env::var("TFB_HISTORY").ok())
        .unwrap_or_else(|| ".tfb-history".to_string());
    if v == "none" || v == "0" {
        None
    } else {
        Some(PathBuf::from(v))
    }
}

/// Opens the history lazily: only when a run selector actually needs it.
fn open_history(args: &[String], cache: &mut Option<RunHistory>) -> Result<(), String> {
    if cache.is_some() {
        return Ok(());
    }
    let root = history_root(args).ok_or_else(|| {
        "the run history is disabled (--history none) but a history selector was used".to_string()
    })?;
    *cache = Some(RunHistory::open(&root)?);
    Ok(())
}

/// Loads a manifest from either a file path or a history selector
/// (`first`, `last`, a 0-based index, or an id prefix). Returns the
/// manifest plus the history seq it came from, when it came from one.
fn load_manifest_arg(
    args: &[String],
    hist: &mut Option<RunHistory>,
    arg: &str,
) -> Result<(Manifest, Option<usize>), String> {
    let path = Path::new(arg);
    if path.is_file() {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {arg}: {e}"))?;
        let parsed = history::parse_manifest(&text)?;
        for w in &parsed.warnings {
            eprintln!("warning: {arg}: {w}");
        }
        return Ok((parsed.manifest, None));
    }
    open_history(args, hist)?;
    let hist = hist.as_ref().expect("history just opened");
    let entry = hist
        .resolve(arg)
        .ok_or_else(|| {
            format!(
                "no history entry matches {arg:?} ({} run(s) in {})",
                hist.entries().len(),
                hist.root().display()
            )
        })?
        .clone();
    let parsed = hist.load(&entry)?;
    for w in &parsed.warnings {
        eprintln!("warning: run {}: {w}", entry.id);
    }
    Ok((parsed.manifest, Some(entry.seq)))
}

fn cmd_run(args: &[String]) -> ExitCode {
    let Some(config_path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("tfb run: missing config path");
        return ExitCode::FAILURE;
    };
    let threads = flag!("tfb run", args, "--threads", positive).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let out_dir = PathBuf::from(
        flag_value(args, "--out").unwrap_or_else(|| "target/tfb-results".to_string()),
    );
    let text = match std::fs::read_to_string(config_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tfb run: cannot read {config_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = match BenchmarkConfig::from_json(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("tfb run: invalid config: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Observability is on by default; TFB_OBS=0 disables it for the run.
    // A sink that cannot open disarms the run entirely: a half-armed run
    // (events but no manifest, or the reverse) would poison cross-run
    // comparisons, so the fallback is all-or-nothing.
    let obs_on = std::env::var("TFB_OBS").map(|v| v != "0").unwrap_or(true);
    let mut obs_armed = false;
    if obs_on {
        let opts = tfb_obs::RunOptions {
            events_path: Some(out_dir.join("run.events.jsonl")),
        };
        match tfb_obs::start_run(opts) {
            Ok(()) => obs_armed = true,
            Err(e) => eprintln!(
                "tfb run: could not open the observability sink: {e}; \
                 falling back to a fully disarmed run (no events, manifest, or history entry)"
            ),
        }
    }
    let mut log = RunLog::new();
    log.log(format!("config file: {config_path}"));
    log.log(config.to_json());
    let jobs = config.jobs();
    eprintln!("running {} jobs on {threads} thread(s)...", jobs.len());
    let results = run_jobs(&config, Parallelism::Threads(threads), None);
    let mut table = ResultTable::default();
    let mut failures = 0usize;
    for (job, result) in jobs.iter().zip(&results) {
        match result {
            Ok(out) => {
                log.log(format!(
                    "{}/{}/F={}: {:?} ({} windows)",
                    job.dataset, job.method, job.horizon, out.metrics, out.n_windows
                ));
                table.push(out);
            }
            Err(e) => {
                failures += 1;
                // A numerically-aborted cell is marked in the CSV, not
                // silently dropped — same for any other failure.
                let status = match e {
                    CoreError::Model(ModelError::Numerical(_)) => "aborted:numerical",
                    _ => "failed",
                };
                table.push_failure(&job.dataset, &job.method, job.horizon, status);
                log.log(format!(
                    "{}/{}/F={}: FAILED ({status}): {e}",
                    job.dataset, job.method, job.horizon
                ));
            }
        }
    }
    let primary = config.metric_list().first().copied().unwrap_or(Metric::Mae);
    println!("{}", table.to_markdown(primary));
    println!("measured cost per cell:");
    println!("{}", table.timing_markdown());
    let ranks = RankTable::compute(&table, primary);
    println!("wins per method ({}):", primary.label());
    for (m, w) in &ranks.wins {
        println!("  {m:<14} {w}");
    }
    match table.write_csv(&out_dir, "run") {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
    if let Err(e) = log.write(&out_dir, "run") {
        eprintln!("could not write log: {e}");
    }
    if obs_armed {
        let meta = [
            ("config_file", config_path.to_string()),
            ("config_hash", tfb_obs::fnv1a_hex(text.as_bytes())),
            ("git_rev", tfb_obs::git_rev().unwrap_or_default()),
            ("threads", threads.to_string()),
            ("jobs", jobs.len().to_string()),
            ("failures", failures.to_string()),
            ("kernel", tfb::math::kernel::active_name().to_string()),
        ];
        if let Some(manifest) = tfb_obs::finish_run(&meta) {
            let path = out_dir.join("run.manifest.json");
            match manifest.write(&path) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("could not write the run manifest: {e}"),
            }
            if !manifest.health.is_clean() {
                eprintln!(
                    "health: {} nan, {} diverged, {} aborted cell(s) — see the manifest",
                    manifest.health.nan_cells.len(),
                    manifest.health.diverged_cells.len(),
                    manifest.health.aborted_cells.len()
                );
            }
            if let Some(hroot) = history_root(args) {
                let appended = RunHistory::open(&hroot).and_then(|mut h| h.append(&manifest));
                match appended {
                    Ok(entry) => eprintln!(
                        "history: run {} appended to {}",
                        &entry.id[..8.min(entry.id.len())],
                        hroot.display()
                    ),
                    Err(e) => eprintln!("could not append to the run history: {e}"),
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} job(s) failed (see the run log)");
    }
    ExitCode::SUCCESS
}

/// `tfb bench`: the declarative suite harness. Suites are TOML/JSON
/// files under `benches/suites/`; `run` executes their cells through one
/// measurement pipeline and records a manifest per suite into the run
/// history, which `cmp`, `rank` and the `obs diff|trend|gate` family all
/// read.
fn cmd_bench(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("ls") => cmd_bench_ls(&args[1..]),
        Some("run") => cmd_bench_run(&args[1..]),
        Some("cmp") => cmd_bench_cmp(&args[1..]),
        Some("rank") => cmd_bench_rank(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Resolves `--suites DIR` (default `benches/suites`).
fn suites_dir(args: &[String]) -> PathBuf {
    PathBuf::from(flag_value(args, "--suites").unwrap_or_else(|| "benches/suites".to_string()))
}

fn cmd_bench_ls(args: &[String]) -> ExitCode {
    let dir = suites_dir(args);
    match tfb_bench::suite::discover(&dir) {
        Ok(suites) if suites.is_empty() => {
            println!("no suites under {}", dir.display());
            ExitCode::SUCCESS
        }
        Ok(suites) => {
            print!("{}", tfb_bench::harness::render_ls(&suites));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tfb bench ls: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_bench_run(args: &[String]) -> ExitCode {
    let cfg = tfb_bench::harness::RunConfig {
        suites_dir: suites_dir(args),
        patterns: positionals(args),
        suite: flag_value(args, "--suite"),
        out_dir: PathBuf::from(flag_value(args, "--out").unwrap_or_else(|| "target/obs".into())),
        history: history_root(args),
    };
    match tfb_bench::harness::run(&cfg) {
        Ok(runs) => {
            let cells: usize = runs.iter().map(|r| r.cells_run).sum();
            let rows: usize = runs.iter().map(|r| r.rows).sum();
            println!(
                "{} suite(s), {cells} cell(s), {rows} measurement(s) recorded",
                runs.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tfb bench run: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `tfb bench cmp A B`: the measurement rows of two runs side by side.
/// A and B are manifest paths or history selectors, like `obs diff`.
fn cmd_bench_cmp(args: &[String]) -> ExitCode {
    let pos = positionals(args);
    let [base_sel, new_sel] = pos.as_slice() else {
        eprintln!("usage: tfb bench cmp <A> <B> [--history DIR|none]");
        return ExitCode::FAILURE;
    };
    let mut hist = None;
    let (base, new) = match load_manifest_arg(args, &mut hist, base_sel)
        .and_then(|(b, _)| load_manifest_arg(args, &mut hist, new_sel).map(|(n, _)| (b, n)))
    {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("tfb bench cmp: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", tfb_bench::harness::render_cmp(&base, &new));
    ExitCode::SUCCESS
}

/// `tfb bench rank`: regenerate the paper's Table 6/7-style method
/// ranking from the newest recorded measurement of every cell.
fn cmd_bench_rank(args: &[String]) -> ExitCode {
    let by = flag_value(args, "--by").unwrap_or_else(|| "characteristic".to_string());
    let metric = flag_value(args, "--metric").unwrap_or_else(|| "msmape".to_string());
    let Some(root) = history_root(args) else {
        eprintln!("tfb bench rank: the run history is disabled (--history none)");
        return ExitCode::FAILURE;
    };
    match tfb_bench::harness::rank_from_history(&root, &by, &metric) {
        Ok(ranking) => {
            println!(
                "method ranking by {by} ({metric}, newest record per cell, {})",
                root.display()
            );
            print!(
                "{}",
                tfb_bench::harness::render_rank(&ranking, &by, &metric)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tfb bench rank: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_obs(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("diff") => cmd_obs_diff(&args[1..]),
        Some("trend") => cmd_obs_trend(&args[1..]),
        Some("quality") => cmd_obs_quality(&args[1..]),
        Some("gate") => cmd_obs_gate(&args[1..]),
        Some("record") => cmd_obs_record(&args[1..]),
        Some("export-trace") => cmd_obs_export_trace(&args[1..]),
        Some("export-profile") => cmd_obs_export_profile(&args[1..]),
        Some("postmortem") => cmd_obs_postmortem(&args[1..]),
        Some("validate-metrics") => cmd_obs_validate_metrics(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// `tfb obs record MANIFEST.json ..`: append existing manifest files to
/// a run history. `tfb run` and `tfb bench run` append their own
/// manifests automatically; this covers every other producer — a
/// drained `tfb serve` session's `serve.manifest.json`, a bench
/// binary's `target/obs/*.manifest.json` — so their histories can feed
/// `obs trend`/`obs gate` too. Arguments may be literal paths or glob
/// patterns (`*`/`?`, quoted so the shell does not expand them first);
/// appends happen in argument order, then lexicographic within a
/// pattern. Keep workloads in separate history dirs: the gate assumes
/// it compares like against like.
fn cmd_obs_record(args: &[String]) -> ExitCode {
    let pos = positionals(args);
    if pos.is_empty() {
        eprintln!("usage: tfb obs record MANIFEST.json [MORE.json|GLOB ..] [--history DIR]");
        return ExitCode::FAILURE;
    }
    let Some(root) = history_root(args) else {
        eprintln!("tfb obs record: the run history is disabled (--history none)");
        return ExitCode::FAILURE;
    };
    let paths = match expand_manifest_args(&pos) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("tfb obs record: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut hist = match RunHistory::open(&root) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("tfb obs record: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    for path in &paths {
        let appended = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
            .and_then(|text| hist.append_json(&text));
        match appended {
            Ok(entry) => println!(
                "history: run {} appended from {}",
                &entry.id[..8.min(entry.id.len())],
                path.display()
            ),
            Err(e) => {
                eprintln!("tfb obs record: {}: {e}", path.display());
                failed = true;
            }
        }
    }
    println!(
        "{} manifest(s) appended to {}",
        paths.len() - if failed { 1 } else { 0 },
        root.display()
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Expands `obs record` arguments: a literal path stays as-is; an
/// argument containing `*`/`?` is matched (via the suite glob, where `*`
/// crosses `/`) against the files under its deepest wildcard-free parent
/// directory. A pattern that matches nothing is an error — a typo'd glob
/// silently recording zero manifests would defeat the gate.
fn expand_manifest_args(args: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    for arg in args {
        if !arg.contains('*') && !arg.contains('?') {
            out.push(PathBuf::from(arg));
            continue;
        }
        let (dir, rest) = match arg.rfind('/') {
            // Split at the last separator before the first wildcard.
            Some(_) => {
                let wild = arg.find(['*', '?']).unwrap_or(0);
                match arg[..wild].rfind('/') {
                    Some(i) => (&arg[..i], &arg[i + 1..]),
                    None => (".", arg.as_str()),
                }
            }
            None => (".", arg.as_str()),
        };
        let mut matched: Vec<PathBuf> = Vec::new();
        let mut stack = vec![PathBuf::from(dir)];
        while let Some(d) = stack.pop() {
            let entries =
                std::fs::read_dir(&d).map_err(|e| format!("cannot list {}: {e}", d.display()))?;
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else if let Ok(rel) = path.strip_prefix(dir) {
                    let rel = rel.to_string_lossy().replace('\\', "/");
                    if tfb_bench::suite::glob_match(rest, &rel) {
                        matched.push(path);
                    }
                }
            }
        }
        if matched.is_empty() {
            return Err(format!("no files match {arg:?}"));
        }
        matched.sort();
        out.extend(matched);
    }
    Ok(out)
}

/// `tfb obs diff A B`: every comparable quantity of two runs, sorted by
/// regression magnitude. With `--tol-pct` the exit code reports whether
/// any regression exceeded the threshold.
fn cmd_obs_diff(args: &[String]) -> ExitCode {
    let pos = positionals(args);
    let [base_sel, new_sel] = pos.as_slice() else {
        eprintln!("usage: tfb obs diff <A> <B> [--tol-pct P] [--history DIR|none]");
        return ExitCode::FAILURE;
    };
    let tol = flag!("tfb obs diff", args, "--tol-pct", tolerance);
    let mut hist = None;
    let base = match load_manifest_arg(args, &mut hist, base_sel) {
        Ok((m, _)) => m,
        Err(e) => {
            eprintln!("tfb obs diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    let new = match load_manifest_arg(args, &mut hist, new_sel) {
        Ok((m, _)) => m,
        Err(e) => {
            eprintln!("tfb obs diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rows = history::diff_manifests(&base, &new);
    print!("{}", history::render_diff(&rows));
    if let Some(tol) = tol {
        let over: Vec<&history::DiffRow> = rows
            .iter()
            .filter(|r| r.delta_pct().is_some_and(|d| d > tol))
            .collect();
        if !over.is_empty() {
            eprintln!("{} quantity(ies) regressed beyond +{tol}%:", over.len());
            for r in over {
                eprintln!(
                    "  {} {} ({:+.1}%)",
                    r.kind.tag(),
                    r.name,
                    r.delta_pct().unwrap_or(f64::NAN)
                );
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `tfb obs trend`: wall time and per-cell metric series over the run
/// history, rendered as sparklines (oldest run on the left).
fn cmd_obs_trend(args: &[String]) -> ExitCode {
    let limit = flag!("tfb obs trend", args, "--limit", positive).unwrap_or(32);
    let Some(root) = history_root(args) else {
        eprintln!("tfb obs trend: the run history is disabled (--history none)");
        return ExitCode::FAILURE;
    };
    let hist = match RunHistory::open(&root) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("tfb obs trend: {e}");
            return ExitCode::FAILURE;
        }
    };
    if hist.entries().is_empty() {
        println!(
            "history at {} is empty (run `tfb run` first)",
            root.display()
        );
        return ExitCode::SUCCESS;
    }
    let filter = flag_value(args, "--metric");
    let entries = hist.entries();
    let start = entries.len().saturating_sub(limit);
    let mut manifests: Vec<Manifest> = Vec::new();
    for entry in &entries[start..] {
        match hist.load(entry) {
            Ok(parsed) => {
                for w in &parsed.warnings {
                    eprintln!("warning: run {}: {w}", entry.id);
                }
                manifests.push(parsed.manifest);
            }
            Err(e) => eprintln!("warning: skipping run {}: {e}", entry.id),
        }
    }
    let n = manifests.len();
    println!("{} run(s) in {} (oldest on the left)", n, root.display());
    let wall: Vec<f64> = manifests.iter().map(|m| m.wall_ns as f64 / 1e9).collect();
    if filter.is_none() {
        println!(
            "  {:<44} {}  last {:.2} s",
            "wall time",
            history::sparkline(&wall),
            wall.last().copied().unwrap_or(f64::NAN)
        );
    }
    // Per-cell metric series; runs that lack a cell render as gaps.
    let mut series: std::collections::BTreeMap<String, Vec<f64>> =
        std::collections::BTreeMap::new();
    for (i, m) in manifests.iter().enumerate() {
        for row in &m.metrics {
            let key = format!(
                "{}/{} h={} {}",
                row.dataset, row.method, row.horizon, row.name
            );
            series.entry(key).or_insert_with(|| vec![f64::NAN; n])[i] = row.value;
        }
    }
    let mut printed = 0usize;
    for (key, values) in &series {
        if let Some(f) = &filter {
            if !key.contains(f.as_str()) {
                continue;
            }
        }
        let last = values
            .iter()
            .rev()
            .find(|v| v.is_finite())
            .copied()
            .unwrap_or(f64::NAN);
        println!(
            "  {:<44} {}  last {:.6}",
            key,
            history::sparkline(values),
            last
        );
        printed += 1;
    }
    if printed == 0 {
        match &filter {
            Some(f) => println!("  (no metric matches {f:?})"),
            None => println!("  (no per-cell metrics recorded yet)"),
        }
    }
    ExitCode::SUCCESS
}

/// `tfb obs quality`: quality scorecards and drift timelines from
/// recorded runs. Scans the newest `--limit` history entries for
/// manifests with a `quality` section (a drained serve session that
/// scored `/v1/observe` joins), prints the latest scorecard, sparkline
/// trends of each `(model, label)` pair's rolling sMAPE across runs,
/// every recorded drift trip, and any quality-triggered postmortem
/// bundles under the same history root.
fn cmd_obs_quality(args: &[String]) -> ExitCode {
    let limit = flag!("tfb obs quality", args, "--limit", positive).unwrap_or(32);
    let Some(root) = history_root(args) else {
        eprintln!("tfb obs quality: the run history is disabled (--history none)");
        return ExitCode::FAILURE;
    };
    let hist = match RunHistory::open(&root) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("tfb obs quality: {e}");
            return ExitCode::FAILURE;
        }
    };
    let entries = hist.entries();
    let start = entries.len().saturating_sub(limit);
    let mut runs: Vec<(String, tfb_obs::manifest::QualitySummary)> = Vec::new();
    for entry in &entries[start..] {
        match hist.load(entry) {
            Ok(parsed) => {
                for w in &parsed.warnings {
                    eprintln!("warning: run {}: {w}", entry.id);
                }
                if let Some(q) = parsed.manifest.quality {
                    runs.push((entry.id.clone(), q));
                }
            }
            Err(e) => eprintln!("warning: skipping run {}: {e}", entry.id),
        }
    }
    if runs.is_empty() {
        println!(
            "no runs with a quality section in {} (serve with /v1/observe traffic first)",
            root.display()
        );
        return ExitCode::SUCCESS;
    }
    let (latest_id, latest) = runs.last().expect("non-empty");
    println!(
        "quality scorecard (run {}):",
        &latest_id[..latest_id.len().min(8)]
    );
    println!(
        "  {:<28} {:>7} {:>12} {:>12} {:>10} {:>6}",
        "model@label", "joins", "mae", "mse", "smape%", "trips"
    );
    for s in &latest.scores {
        println!(
            "  {:<28} {:>7} {:>12.6} {:>12.6} {:>10.3} {:>6}",
            format!("{}@{}", s.model, s.label),
            s.joins,
            s.mae,
            s.mse,
            s.smape,
            s.drift_trips
        );
    }
    if let Some(slo) = &latest.slo {
        println!(
            "  quality SLO: smape <= {:.3}% at {:.4}: {} breach(es) in {} join(s), \
             burn 1m {:.2} / 5m {:.2}",
            slo.threshold_smape,
            slo.objective,
            slo.breaches,
            slo.total,
            slo.burn_rate_1m,
            slo.burn_rate_5m
        );
    }
    // Per-pair rolling-sMAPE trend; runs without the pair render as gaps.
    let n = runs.len();
    let mut series: std::collections::BTreeMap<String, Vec<f64>> =
        std::collections::BTreeMap::new();
    for (i, (_, q)) in runs.iter().enumerate() {
        for s in &q.scores {
            series
                .entry(format!("{}@{}", s.model, s.label))
                .or_insert_with(|| vec![f64::NAN; n])[i] = s.smape;
        }
    }
    println!("rolling sMAPE across {n} run(s) (oldest on the left):");
    for (key, values) in &series {
        let last = values
            .iter()
            .rev()
            .find(|v| v.is_finite())
            .copied()
            .unwrap_or(f64::NAN);
        println!(
            "  {:<28} {}  last {:.3}%",
            key,
            history::sparkline(values),
            last
        );
    }
    let total_trips: usize = runs.iter().map(|(_, q)| q.trips.len()).sum();
    if total_trips == 0 {
        println!("no drift trips recorded");
    } else {
        println!("drift trips ({total_trips}):");
        for (id, q) in &runs {
            for t in &q.trips {
                println!(
                    "  run {}: {} tripped on {}@{} (series {}, join {}, value {:.3})",
                    &id[..id.len().min(8)],
                    t.detector,
                    t.model,
                    t.label,
                    t.series,
                    t.at_join,
                    t.value
                );
            }
        }
    }
    if let Ok((pm_root, pms)) = load_postmortem_index(args) {
        let quality_pms: Vec<_> = pms
            .iter()
            .filter(|e| e.reason.starts_with("quality-"))
            .collect();
        if !quality_pms.is_empty() {
            println!(
                "quality postmortems under {} (see `tfb obs postmortem show`):",
                pm_root.display()
            );
            for e in quality_pms {
                println!("  {:<16} {}", &e.id[..e.id.len().min(16)], e.reason);
            }
        }
    }
    ExitCode::SUCCESS
}

/// `tfb obs gate`: the noise-aware regression gate. Baselines are the
/// `--min-runs` history entries starting at `--baseline` (default
/// `first`), the candidate defaults to `last`; both also accept manifest
/// file paths. `--tol-pct` covers wall time, phases, RSS and allocation
/// counters; accuracy metrics use the tighter `--tol-metric`.
fn cmd_obs_gate(args: &[String]) -> ExitCode {
    let tol_pct = flag!("tfb obs gate", args, "--tol-pct", tolerance).unwrap_or(10.0);
    let tol_metric = flag!("tfb obs gate", args, "--tol-metric", tolerance)
        .unwrap_or(GateTolerances::default().metric_pct);
    let min_runs = flag!("tfb obs gate", args, "--min-runs", positive).unwrap_or(3);
    let baseline_sel = flag_value(args, "--baseline").unwrap_or_else(|| "first".to_string());
    let candidate_sel = flag_value(args, "--candidate").unwrap_or_else(|| "last".to_string());
    let mut hist = None;
    let (candidate, candidate_seq) = match load_manifest_arg(args, &mut hist, &candidate_sel) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("tfb obs gate: cannot load the candidate: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Baselines: a manifest file is a single baseline; a history selector
    // anchors a window of up to `min_runs` entries (candidate excluded).
    let mut baselines: Vec<Manifest> = Vec::new();
    if Path::new(&baseline_sel).is_file() {
        match load_manifest_arg(args, &mut hist, &baseline_sel) {
            Ok((m, _)) => baselines.push(m),
            Err(e) => {
                eprintln!("tfb obs gate: cannot load the baseline: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        if let Err(e) = open_history(args, &mut hist) {
            eprintln!("tfb obs gate: {e}");
            return ExitCode::FAILURE;
        }
        let h = hist.as_ref().expect("history just opened");
        let Some(anchor) = h.resolve(&baseline_sel).map(|e| e.seq) else {
            eprintln!(
                "tfb obs gate: no history entry matches {baseline_sel:?} ({} run(s) in {})",
                h.entries().len(),
                h.root().display()
            );
            return ExitCode::FAILURE;
        };
        for entry in h.entries().iter().skip(anchor) {
            if baselines.len() >= min_runs {
                break;
            }
            if Some(entry.seq) == candidate_seq {
                continue;
            }
            match h.load(entry) {
                Ok(parsed) => {
                    for w in &parsed.warnings {
                        eprintln!("warning: run {}: {w}", entry.id);
                    }
                    baselines.push(parsed.manifest);
                }
                Err(e) => eprintln!("warning: skipping baseline run {}: {e}", entry.id),
            }
        }
    }
    if let Some(why) = history::machine_mismatch(&baselines, &candidate) {
        eprintln!("tfb obs gate: baseline and candidate ran on different machines ({why})");
        return ExitCode::from(2);
    }
    if baselines.is_empty() {
        eprintln!("tfb obs gate: no baseline runs to compare against (only health checks ran)");
    } else if baselines.len() < min_runs {
        eprintln!(
            "note: only {} baseline run(s) available (wanted {min_runs}); \
             the noise aggregates are weaker",
            baselines.len()
        );
    }
    let tol = GateTolerances {
        wall_pct: tol_pct,
        rss_pct: tol_pct,
        alloc_pct: tol_pct,
        metric_pct: tol_metric,
    };
    let refs: Vec<&Manifest> = baselines.iter().collect();
    let report = history::gate(&refs, &candidate, &tol);
    println!(
        "gate: {} check(s) against {} baseline run(s) \
         (tolerance +{tol_pct}% resources, +{tol_metric}% metrics)",
        report.checks.len(),
        report.baseline_runs
    );
    // Whole-number quantities (nanoseconds, bytes, counts) print as
    // integers; fractional accuracy metrics keep their precision.
    let fmt = |v: f64| {
        if v.fract() == 0.0 && v.abs() < 9.0e15 {
            format!("{}", v as i64)
        } else {
            format!("{v:.6}")
        }
    };
    for c in report.checks.iter().filter(|c| !c.failed) {
        println!(
            "  ok   {:<44} {:>14} vs {:>14} ({:+.1}%)",
            c.name,
            fmt(c.candidate),
            fmt(c.baseline),
            c.delta_pct
        );
    }
    for f in &report.failures {
        println!("  FAIL {f}");
    }
    if report.passed() {
        println!("gate: PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!("gate: FAIL ({} regression(s))", report.failures.len());
        ExitCode::FAILURE
    }
}

/// `tfb obs export-trace`: convert a run's JSONL event log into Chrome
/// trace-event JSON — one lane per worker thread, one slice per span /
/// traced request (with per-phase child slices), and flow arrows tying
/// each request to the coalescer batch that served it. The output loads
/// in Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`.
fn cmd_obs_export_trace(args: &[String]) -> ExitCode {
    let pos = positionals(args);
    let [events_path] = pos.as_slice() else {
        eprintln!("usage: tfb obs export-trace EVENTS.jsonl [--out TRACE.json]");
        return ExitCode::FAILURE;
    };
    let out = flag_value(args, "--out").unwrap_or_else(|| format!("{events_path}.trace.json"));
    let text = match std::fs::read_to_string(events_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tfb obs export-trace: cannot read {events_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match tfb_obs::export::chrome_trace(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tfb obs export-trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&out, &trace) {
        eprintln!("tfb obs export-trace: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "wrote {out} ({} bytes) — open it in https://ui.perfetto.dev",
        trace.len()
    );
    ExitCode::SUCCESS
}

/// Loads the postmortem index under the history root. Postmortem bundles
/// are written by the flight recorder next to the run history, so the
/// same `--history DIR` / `TFB_HISTORY` resolution applies.
fn load_postmortem_index(
    args: &[String],
) -> Result<(PathBuf, Vec<history::PostmortemEntry>), String> {
    let root = history_root(args).ok_or_else(|| {
        "the run history is disabled (--history none); postmortem bundles live under it".to_string()
    })?;
    let entries = history::load_postmortems(&root)?;
    Ok((root, entries))
}

/// Resolves a postmortem selector (`first`, `last`, 0-based index, id
/// prefix) against the index, with a helpful error on a miss.
fn resolve_postmortem_arg<'a>(
    entries: &'a [history::PostmortemEntry],
    sel: &str,
) -> Result<&'a history::PostmortemEntry, String> {
    if entries.is_empty() {
        return Err("no postmortem bundles recorded yet".to_string());
    }
    history::resolve_postmortem(entries, sel).ok_or_else(|| {
        format!("no postmortem matches selector `{sel}` (try `tfb obs postmortem ls`)")
    })
}

/// `tfb obs postmortem`: inspect the flight recorder's postmortem
/// bundles. `ls` lists the index, `show` prints a bundle's manifest,
/// `export-trace` converts a bundle's captured ring events into the same
/// Perfetto-loadable trace JSON `obs export-trace` produces for full
/// event logs.
fn cmd_obs_postmortem(args: &[String]) -> ExitCode {
    const PM_USAGE: &str =
        "usage: tfb obs postmortem ls | show SEL | export-trace SEL [--out TRACE.json] [--history DIR]";
    let sub = args.first().map(String::as_str);
    let rest = if args.is_empty() { args } else { &args[1..] };
    let (root, entries) = match load_postmortem_index(rest) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("tfb obs postmortem: {e}");
            return ExitCode::FAILURE;
        }
    };
    match sub {
        Some("ls") => {
            if entries.is_empty() {
                println!("no postmortem bundles under {}", root.display());
                return ExitCode::SUCCESS;
            }
            println!("{:<4} {:<16} {:>7}  reason", "idx", "id", "events");
            for (idx, e) in entries.iter().enumerate() {
                println!(
                    "{:<4} {:<16} {:>7}  {}",
                    idx,
                    &e.id[..e.id.len().min(16)],
                    e.events,
                    e.reason
                );
            }
            ExitCode::SUCCESS
        }
        Some("show") => {
            let pos = positionals(rest);
            let [sel] = pos.as_slice() else {
                eprintln!("{PM_USAGE}");
                return ExitCode::FAILURE;
            };
            let entry = match resolve_postmortem_arg(&entries, sel) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("tfb obs postmortem show: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let path = entry.dir(&root).join("postmortem.manifest.json");
            match std::fs::read_to_string(&path) {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!(
                        "tfb obs postmortem show: cannot read {}: {e}",
                        path.display()
                    );
                    ExitCode::FAILURE
                }
            }
        }
        Some("export-trace") => {
            let pos = positionals(rest);
            let [sel] = pos.as_slice() else {
                eprintln!("{PM_USAGE}");
                return ExitCode::FAILURE;
            };
            let entry = match resolve_postmortem_arg(&entries, sel) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("tfb obs postmortem export-trace: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let dir = entry.dir(&root);
            let events_path = dir.join("events.jsonl");
            let text = match std::fs::read_to_string(&events_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!(
                        "tfb obs postmortem export-trace: cannot read {}: {e}",
                        events_path.display()
                    );
                    return ExitCode::FAILURE;
                }
            };
            let trace = match tfb_obs::export::chrome_trace(&text) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("tfb obs postmortem export-trace: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let out = flag_value(rest, "--out")
                .map(PathBuf::from)
                .unwrap_or_else(|| dir.join("postmortem.trace.json"));
            if let Err(e) = std::fs::write(&out, &trace) {
                eprintln!(
                    "tfb obs postmortem export-trace: cannot write {}: {e}",
                    out.display()
                );
                return ExitCode::FAILURE;
            }
            eprintln!(
                "wrote {} ({} bytes) — open it in https://ui.perfetto.dev",
                out.display(),
                trace.len()
            );
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{PM_USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// `tfb obs export-profile`: turn a run's `psample` profiler events into
/// collapsed-stack lines (`thread;frame;frame count`) that flamegraph
/// tools consume directly. The argument is an events file path, or a
/// postmortem selector — a bundle's own `profile.collapsed` is preferred
/// when present, otherwise its captured ring events are aggregated.
fn cmd_obs_export_profile(args: &[String]) -> ExitCode {
    let pos = positionals(args);
    let [arg] = pos.as_slice() else {
        eprintln!(
            "usage: tfb obs export-profile EVENTS.jsonl|SEL [--out PROFILE.collapsed] [--history DIR]"
        );
        return ExitCode::FAILURE;
    };
    let collapsed = if Path::new(arg).is_file() {
        let text = match std::fs::read_to_string(arg) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("tfb obs export-profile: cannot read {arg}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match tfb_obs::export::collapsed_profile(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("tfb obs export-profile: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let (root, entries) = match load_postmortem_index(args) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("tfb obs export-profile: {e}");
                return ExitCode::FAILURE;
            }
        };
        let entry = match resolve_postmortem_arg(&entries, arg) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("tfb obs export-profile: {arg} is neither a file nor a bundle: {e}");
                return ExitCode::FAILURE;
            }
        };
        let dir = entry.dir(&root);
        let ready = dir.join("profile.collapsed");
        if ready.is_file() {
            match std::fs::read_to_string(&ready) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!(
                        "tfb obs export-profile: cannot read {}: {e}",
                        ready.display()
                    );
                    return ExitCode::FAILURE;
                }
            }
        } else {
            let events_path = dir.join("events.jsonl");
            let text = match std::fs::read_to_string(&events_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!(
                        "tfb obs export-profile: cannot read {}: {e}",
                        events_path.display()
                    );
                    return ExitCode::FAILURE;
                }
            };
            match tfb_obs::export::collapsed_profile(&text) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("tfb obs export-profile: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    if collapsed.is_empty() {
        eprintln!("tfb obs export-profile: no profiler samples (was --profile-hz set?)");
        return ExitCode::FAILURE;
    }
    match flag_value(args, "--out") {
        Some(out) => {
            if let Err(e) = std::fs::write(&out, &collapsed) {
                eprintln!("tfb obs export-profile: cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "wrote {out} ({} stack(s)) — feed it to a flamegraph renderer",
                collapsed.lines().count()
            );
        }
        None => print!("{collapsed}"),
    }
    ExitCode::SUCCESS
}

/// `tfb obs validate-metrics`: check a saved `GET /metrics` exposition
/// against the in-repo OpenMetrics validator (the same one CI runs).
fn cmd_obs_validate_metrics(args: &[String]) -> ExitCode {
    let pos = positionals(args);
    let [path] = pos.as_slice() else {
        eprintln!("usage: tfb obs validate-metrics FILE");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tfb obs validate-metrics: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match tfb_obs::openmetrics::validate(&text) {
        Ok(()) => {
            println!("{path}: valid OpenMetrics text format");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tfb obs validate-metrics: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `tfb train`: fit one method on one dataset and save the parameters as
/// a `tfb-artifact/v1` file. The normalization sequence is exactly the
/// offline pipeline's: fit the normalizer on the raw training split,
/// normalize the whole series, train on the pre-validation rows — so a
/// served forecast is bit-identical to the offline predict of the same
/// window.
fn cmd_train(args: &[String]) -> ExitCode {
    let Some(out) = flag_value(args, "--out") else {
        eprintln!("tfb train: missing --out MODEL.tfba");
        return ExitCode::FAILURE;
    };
    let method = flag_value(args, "--method").unwrap_or_else(|| "LR".to_string());
    let dataset = flag_value(args, "--dataset").unwrap_or_else(|| "ILI".to_string());
    let lookback = flag!("tfb train", args, "--lookback", positive).unwrap_or(36);
    let horizon = flag!("tfb train", args, "--horizon", positive).unwrap_or(24);
    let max_len = flag!("tfb train", args, "--max-len", positive).unwrap_or(2000);
    let max_dim = flag!("tfb train", args, "--max-dim", positive).unwrap_or(6);
    let epochs = flag!("tfb train", args, "--epochs", positive);
    let norm_name = flag_value(args, "--norm").unwrap_or_else(|| "ZScore".to_string());
    let Some(norm_kind) = tfb::data::Normalization::parse_name(&norm_name) else {
        eprintln!("tfb train: unknown normalization {norm_name:?} (ZScore, MinMax or None)");
        return ExitCode::FAILURE;
    };
    let scale = tfb::datagen::Scale { max_len, max_dim };
    let Some(handle) = tfb::core::data::load(&dataset, scale) else {
        eprintln!("tfb train: unknown dataset {dataset} (try `tfb datasets`)");
        return ExitCode::FAILURE;
    };
    let split = match tfb::data::ChronoSplit::split(&handle.series, handle.profile.split) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tfb train: cannot split {dataset}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let norm = tfb::data::Normalizer::fit(&split.train, norm_kind);
    let normed = match norm.apply(&handle.series) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("tfb train: cannot normalize {dataset}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let train = normed.slice_rows(0..split.val_start);
    let deep_config = epochs.map(|epochs| tfb::nn::TrainConfig {
        epochs,
        ..tfb::nn::TrainConfig::default()
    });
    let descriptor = format!(
        "{dataset}|{method}|L={lookback}|H={horizon}|{norm_name}|len={max_len}|dim={max_dim}"
    );
    let config_hash = tfb_obs::fnv1a_hex(descriptor.as_bytes());
    eprintln!(
        "training {method} on {dataset} ({} x {}, lookback {lookback}, horizon {horizon})...",
        train.len(),
        train.dim()
    );
    let artifact = match tfb::artifact::fit(
        &method,
        &train,
        lookback,
        horizon,
        norm,
        config_hash,
        deep_config,
    ) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tfb train: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out_path = PathBuf::from(&out);
    if let Err(e) = artifact.save(&out_path) {
        eprintln!("tfb train: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    let size = std::fs::metadata(&out_path).map(|m| m.len()).unwrap_or(0);
    println!(
        "wrote {out} ({size} bytes, {} v{}, method {}, {}d lookback {} horizon {})",
        tfb::artifact::format::SCHEMA_NAME,
        tfb::artifact::format::SCHEMA_VERSION,
        artifact.method,
        artifact.dim,
        artifact.lookback,
        artifact.horizon
    );
    ExitCode::SUCCESS
}

/// `tfb serve`: load an artifact and answer `POST /forecast` until a
/// SIGTERM/SIGINT (or `POST /shutdown`) drains the server. The listen
/// address prints to stdout so scripts can discover an ephemeral port.
///
/// With `--out DIR` the serving run writes its JSONL event log (every
/// span and traced request) to `DIR/serve.events.jsonl` and, on drain,
/// its manifest to `DIR/serve.manifest.json` — feed the event log to
/// `tfb obs export-trace` for a Perfetto view. `--slo-ms` /
/// `--slo-objective` set the latency SLO the burn-rate gauges on
/// `GET /metrics` track (default 50 ms at p99).
/// Resolves the registry root: `--registry DIR`, then `TFB_REGISTRY`,
/// then `.tfb-registry` — the same precedence the history root uses.
fn registry_store_root(args: &[String]) -> PathBuf {
    PathBuf::from(
        flag_value(args, "--registry")
            .or_else(|| std::env::var("TFB_REGISTRY").ok())
            .unwrap_or_else(|| ".tfb-registry".to_string()),
    )
}

fn open_registry(args: &[String]) -> Result<tfb::registry::Registry, ExitCode> {
    let root = registry_store_root(args);
    tfb::registry::Registry::open(&root).map_err(|e| {
        eprintln!("tfb registry: cannot open {}: {e}", root.display());
        ExitCode::FAILURE
    })
}

/// `tfb registry`: the content-addressed model store. `publish` is the
/// only way bytes get in (validated, checksummed, deduplicated);
/// `promote`/`rollback` drive the canary label state machine; `fsck`
/// re-verifies every blob end to end and exits non-zero on corruption.
fn cmd_registry(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("publish") => cmd_registry_publish(&args[1..]),
        Some("ls") => cmd_registry_ls(&args[1..]),
        Some("gc") => cmd_registry_gc(&args[1..]),
        Some("fsck") => cmd_registry_fsck(&args[1..]),
        Some("promote") => cmd_registry_promote(&args[1..]),
        Some("rollback") => cmd_registry_rollback(&args[1..]),
        _ => {
            eprintln!("usage: tfb registry publish|ls|gc|fsck|promote|rollback [--registry DIR]");
            ExitCode::FAILURE
        }
    }
}

fn cmd_registry_publish(args: &[String]) -> ExitCode {
    let pos = positionals(args);
    let [artifact_path] = pos.as_slice() else {
        eprintln!("tfb registry publish: expected exactly one MODEL.tfba path");
        return ExitCode::FAILURE;
    };
    let Some(name) = flag_value(args, "--name") else {
        eprintln!("tfb registry publish: missing --name NAME");
        return ExitCode::FAILURE;
    };
    let label =
        flag_value(args, "--label").unwrap_or_else(|| tfb::registry::DEFAULT_LABEL.to_string());
    let registry = match open_registry(args) {
        Ok(r) => r,
        Err(code) => return code,
    };
    match registry.publish_file(&name, &label, Path::new(artifact_path)) {
        Ok(out) => {
            let dedup = if out.deduplicated {
                " (blob already stored)"
            } else {
                ""
            };
            println!(
                "published {name}@{label} -> {} (generation {}){dedup}",
                out.blob, out.generation
            );
            if let Some(old) = out.replaced {
                println!("  replaced {old}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tfb registry publish: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_registry_ls(args: &[String]) -> ExitCode {
    let registry = match open_registry(args) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let index = match registry.load_index() {
        Ok(i) => i,
        Err(e) => {
            eprintln!("tfb registry ls: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} (generation {}, {} model(s))",
        registry.root().display(),
        index.generation,
        index.models.len()
    );
    for (name, entry) in &index.models {
        for (label, blob) in &entry.labels {
            let size = std::fs::metadata(registry.blob_path(blob))
                .map(|m| format!("{} B", m.len()))
                .unwrap_or_else(|_| "missing".to_string());
            println!("  {name}@{label}  {blob}  {size}");
        }
        if let Some(prev) = &entry.previous {
            println!("  {name}  previous: {prev}");
        }
    }
    ExitCode::SUCCESS
}

fn cmd_registry_gc(args: &[String]) -> ExitCode {
    let registry = match open_registry(args) {
        Ok(r) => r,
        Err(code) => return code,
    };
    match registry.gc() {
        Ok(report) => {
            println!(
                "gc: removed {} blob(s), kept {}",
                report.removed.len(),
                report.kept
            );
            for blob in &report.removed {
                println!("  removed {blob}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tfb registry gc: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_registry_fsck(args: &[String]) -> ExitCode {
    let registry = match open_registry(args) {
        Ok(r) => r,
        Err(code) => return code,
    };
    match registry.fsck() {
        Ok(report) => {
            println!(
                "fsck: {} blob(s) verified, {} reference(s) checked",
                report.blobs_checked, report.refs_checked
            );
            if report.ok() {
                println!("fsck: OK");
                ExitCode::SUCCESS
            } else {
                for p in &report.problems {
                    eprintln!("  CORRUPT {p}");
                }
                eprintln!("fsck: {} problem(s)", report.problems.len());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("tfb registry fsck: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `tfb registry promote`: flip `NAME@--from` (canary by default) to
/// `NAME@--to` (prod). When `--baseline` and `--candidate` manifests are
/// given — the pair a canary-mirroring serve session writes on drain —
/// the same noise-aware gate as `tfb obs gate` judges the candidate
/// first, plus an explicit NaN check; the label only flips on a pass
/// (or `--force`).
fn cmd_registry_promote(args: &[String]) -> ExitCode {
    let pos = positionals(args);
    let [name] = pos.as_slice() else {
        eprintln!("tfb registry promote: expected exactly one model NAME");
        return ExitCode::FAILURE;
    };
    let from =
        flag_value(args, "--from").unwrap_or_else(|| tfb::registry::CANARY_LABEL.to_string());
    let to = flag_value(args, "--to").unwrap_or_else(|| tfb::registry::DEFAULT_LABEL.to_string());
    let force = args.iter().any(|a| a == "--force");
    let tol_pct = flag!("tfb registry promote", args, "--tol-pct", tolerance).unwrap_or(10.0);
    let quality_tol_pct =
        flag!("tfb registry promote", args, "--quality-tol-pct", tolerance).unwrap_or(10.0);
    let baseline_sel = flag_value(args, "--baseline");
    let candidate_sel = flag_value(args, "--candidate");
    if baseline_sel.is_some() != candidate_sel.is_some() {
        eprintln!("tfb registry promote: --baseline and --candidate must be given together");
        return ExitCode::FAILURE;
    }
    if let (Some(base_sel), Some(cand_sel)) = (&baseline_sel, &candidate_sel) {
        let mut hist: Option<RunHistory> = None;
        let (baseline, _) = match load_manifest_arg(args, &mut hist, base_sel) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("tfb registry promote: baseline: {e}");
                return ExitCode::FAILURE;
            }
        };
        let (candidate, _) = match load_manifest_arg(args, &mut hist, cand_sel) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("tfb registry promote: candidate: {e}");
                return ExitCode::FAILURE;
            }
        };
        // NaN values in the candidate's mirrored forecasts are an
        // automatic veto: a tolerance-percent gate cannot see them
        // (NaN breaks every comparison it touches).
        let candidate_nans: f64 = candidate
            .metrics
            .iter()
            .filter(|row| row.name.contains("nan"))
            .map(|row| row.value)
            .sum();
        let nan_veto = candidate_nans > 0.0 || !candidate.health.nan_cells.is_empty();
        let tol = GateTolerances {
            wall_pct: tol_pct,
            rss_pct: tol_pct,
            alloc_pct: tol_pct,
            metric_pct: tol_pct,
        };
        let report = history::gate(&[&baseline], &candidate, &tol);
        println!(
            "promote gate: {} check(s), tolerance +{tol_pct}%",
            report.checks.len()
        );
        for f in &report.failures {
            println!("  FAIL {f}");
        }
        if nan_veto {
            println!("  FAIL candidate produced NaN forecasts ({candidate_nans} value(s))");
        }
        if (!report.passed() || nan_veto) && !force {
            eprintln!("promote: gate FAILED; {name}@{from} stays staged (use --force to override)");
            return ExitCode::FAILURE;
        }
        if force && (!report.passed() || nan_veto) {
            eprintln!("promote: gate failed but --force given; promoting anyway");
        } else {
            println!("promote gate: PASS");
        }
    }
    // The live-quality gate: `--quality SEL` names a manifest (a drained
    // serve session's, typically) whose `quality` section holds rolling
    // forecast-vs-actual scorecards per `(model, label)`. The candidate
    // label must have scored joins, no drift trips, and a rolling sMAPE
    // within `--quality-tol-pct` of the production baseline's.
    if let Some(quality_sel) = flag_value(args, "--quality") {
        let mut hist: Option<RunHistory> = None;
        let (manifest, _) = match load_manifest_arg(args, &mut hist, &quality_sel) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("tfb registry promote: quality: {e}");
                return ExitCode::FAILURE;
            }
        };
        let Some(quality) = &manifest.quality else {
            eprintln!(
                "tfb registry promote: {quality_sel} has no quality section \
                 (serve with /v1/observe traffic first)"
            );
            return ExitCode::FAILURE;
        };
        let mut failures: Vec<String> = Vec::new();
        let candidate = quality
            .scores
            .iter()
            .find(|s| &s.model == name && s.label == from);
        let baseline = quality
            .scores
            .iter()
            .find(|s| &s.model == name && s.label == to);
        match candidate {
            None => failures.push(format!(
                "no scored joins for {name}@{from} (candidate never observed)"
            )),
            Some(c) => {
                if !c.smape.is_finite() {
                    failures.push(format!(
                        "candidate {name}@{from} rolling sMAPE is not finite ({})",
                        c.smape
                    ));
                }
                if c.drift_trips > 0 {
                    failures.push(format!(
                        "candidate {name}@{from} tripped a drift detector {} time(s)",
                        c.drift_trips
                    ));
                }
                if let Some(b) = baseline {
                    let allowed = b.smape * (1.0 + quality_tol_pct / 100.0) + 1e-9;
                    if b.smape.is_finite() && c.smape > allowed {
                        failures.push(format!(
                            "candidate sMAPE {:.4}% exceeds baseline {:.4}% +{quality_tol_pct}%",
                            c.smape, b.smape
                        ));
                    }
                }
            }
        }
        // A drift trip recorded against the candidate label is a veto
        // even if the rolling window has since recovered.
        for t in quality
            .trips
            .iter()
            .filter(|t| &t.model == name && t.label == from)
        {
            failures.push(format!(
                "{} drift trip on {name}@{} (series {}, join {})",
                t.detector, t.label, t.series, t.at_join
            ));
        }
        let (cand_joins, cand_smape) = candidate
            .map(|c| (c.joins, c.smape))
            .unwrap_or((0, f64::NAN));
        println!(
            "quality gate: {name}@{from} {cand_joins} join(s), rolling sMAPE {cand_smape:.4}%, \
             tolerance +{quality_tol_pct}%"
        );
        for f in &failures {
            println!("  FAIL {f}");
        }
        if !failures.is_empty() && !force {
            eprintln!(
                "promote: quality gate FAILED; {name}@{from} stays staged (use --force to override)"
            );
            return ExitCode::FAILURE;
        }
        if force && !failures.is_empty() {
            eprintln!("promote: quality gate failed but --force given; promoting anyway");
        } else {
            println!("quality gate: PASS");
        }
    }
    let registry = match open_registry(args) {
        Ok(r) => r,
        Err(code) => return code,
    };
    match registry.promote(name, &from, &to) {
        Ok(blob) => {
            println!("promoted {name}@{from} -> {name}@{to} ({blob})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tfb registry promote: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_registry_rollback(args: &[String]) -> ExitCode {
    let pos = positionals(args);
    let [name] = pos.as_slice() else {
        eprintln!("tfb registry rollback: expected exactly one model NAME");
        return ExitCode::FAILURE;
    };
    let label =
        flag_value(args, "--label").unwrap_or_else(|| tfb::registry::DEFAULT_LABEL.to_string());
    let registry = match open_registry(args) {
        Ok(r) => r,
        Err(code) => return code,
    };
    match registry.rollback(name, &label) {
        Ok(blob) => {
            println!("rolled back {name}@{label} -> {blob}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tfb registry rollback: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the drain-time canary comparison and, when an output
/// directory is set, writes it as two parallel manifests — baseline
/// (production forecasts on the mirrored traffic) and candidate (the
/// canary's forecasts on the identical traffic) — in the exact shape
/// `tfb obs diff` and `tfb registry promote --baseline --candidate`
/// consume.
fn report_canary(drain: &tfb::serve::DrainReport, out_dir: Option<&Path>) {
    if drain.canary.is_empty() {
        return;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut baseline = Manifest {
        meta: vec![
            ("command".to_string(), "serve-canary".to_string()),
            ("side".to_string(), "baseline".to_string()),
        ],
        cores,
        ..Manifest::default()
    };
    let mut candidate = Manifest {
        meta: vec![
            ("command".to_string(), "serve-canary".to_string()),
            ("side".to_string(), "candidate".to_string()),
        ],
        cores,
        ..Manifest::default()
    };
    let row = |model: &str, horizon: u64, name: &str, value: f64| tfb_obs::manifest::MetricRow {
        dataset: model.to_string(),
        method: "mirror".to_string(),
        horizon: horizon as usize,
        name: name.to_string(),
        value,
    };
    for stat in &drain.canary {
        eprintln!(
            "canary {}: {} mirrored request(s), {} error(s), drift {:.6} \
             (|prod| {:.6} vs |canary| {:.6}), {} NaN value(s)",
            stat.model,
            stat.requests,
            stat.errors,
            stat.mean_abs_delta,
            stat.mean_abs_primary,
            stat.mean_abs_canary,
            stat.nan_canary,
        );
        let m = &stat.model;
        let h = stat.horizon;
        baseline
            .metrics
            .push(row(m, h, "forecast_mean_abs", stat.mean_abs_primary));
        baseline
            .metrics
            .push(row(m, h, "forecast_nan_values", stat.nan_primary as f64));
        baseline.metrics.push(row(m, h, "predict_errors", 0.0));
        candidate
            .metrics
            .push(row(m, h, "forecast_mean_abs", stat.mean_abs_canary));
        candidate
            .metrics
            .push(row(m, h, "forecast_nan_values", stat.nan_canary as f64));
        candidate
            .metrics
            .push(row(m, h, "predict_errors", stat.errors as f64));
        candidate
            .metrics
            .push(row(m, h, "forecast_mean_abs_delta", stat.mean_abs_delta));
    }
    if drain.canary_dropped > 0 {
        eprintln!(
            "canary: {} mirrored request(s) dropped (queue full)",
            drain.canary_dropped
        );
    }
    let Some(dir) = out_dir else {
        eprintln!("canary: no --out directory; comparison manifests not written");
        return;
    };
    let _ = std::fs::create_dir_all(dir);
    for (manifest, file) in [
        (&baseline, "canary.baseline.manifest.json"),
        (&candidate, "canary.candidate.manifest.json"),
    ] {
        let path = dir.join(file);
        match manifest.write(&path) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write the canary manifest: {e}"),
        }
    }
}

/// Prints the drain-time quality scorecard (rolling forecast-vs-actual
/// windows per `(model, label)`, drift trips, quality SLO) and, when an
/// output directory is set and canary-labeled joins were scored, writes
/// a `quality.baseline`/`quality.candidate` manifest pair whose rows
/// mirror the canary manifests' shape — consumable by `tfb obs diff`
/// and recordable into a history. The full scorecard also lands in the
/// serve manifest's `quality` section, which is what
/// `tfb registry promote --quality` reads.
fn report_quality(drain: &tfb::serve::DrainReport, out_dir: Option<&Path>) {
    let q = &drain.quality;
    if q.windows.is_empty() {
        return;
    }
    eprintln!("quality scorecard ({} window(s)):", q.windows.len());
    for w in &q.windows {
        eprintln!(
            "  {}@{}: {} join(s), mae {:.6}, mse {:.6}, smape {:.3}%, {} drift trip(s)",
            w.model, w.label, w.joins, w.mae, w.mse, w.smape, w.drift_trips
        );
    }
    for t in &q.trips {
        eprintln!(
            "  drift: {} tripped on {}@{} (series {}, join {}, value {:.3})",
            t.detector, t.model, t.label, t.series, t.at_join, t.value
        );
    }
    if let Some(slo) = &q.slo {
        eprintln!(
            "  quality SLO: smape <= {:.3}% at {:.4}: {} breach(es) in {} join(s), \
             burn 1m {:.2} / 5m {:.2}",
            slo.threshold_smape,
            slo.objective,
            slo.breaches,
            slo.total,
            slo.burn_rate_1m,
            slo.burn_rate_5m
        );
    }
    let has_canary = q
        .windows
        .iter()
        .any(|w| w.label == tfb::registry::CANARY_LABEL);
    if !has_canary {
        return;
    }
    let Some(dir) = out_dir else {
        eprintln!("quality: no --out directory; comparison manifests not written");
        return;
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut sides = [
        (
            tfb::registry::DEFAULT_LABEL,
            "baseline",
            "quality.baseline.manifest.json",
            Manifest {
                meta: vec![
                    ("command".to_string(), "serve-quality".to_string()),
                    ("side".to_string(), "baseline".to_string()),
                ],
                cores,
                ..Manifest::default()
            },
        ),
        (
            tfb::registry::CANARY_LABEL,
            "candidate",
            "quality.candidate.manifest.json",
            Manifest {
                meta: vec![
                    ("command".to_string(), "serve-quality".to_string()),
                    ("side".to_string(), "candidate".to_string()),
                ],
                cores,
                ..Manifest::default()
            },
        ),
    ];
    let row = |model: &str, name: &str, value: f64| tfb_obs::manifest::MetricRow {
        dataset: model.to_string(),
        method: "observe".to_string(),
        horizon: 0,
        name: name.to_string(),
        value,
    };
    let _ = std::fs::create_dir_all(dir);
    for (label, _, file, manifest) in &mut sides {
        for w in q.windows.iter().filter(|w| w.label == *label) {
            manifest
                .metrics
                .push(row(&w.model, "joins", w.joins as f64));
            manifest.metrics.push(row(&w.model, "mae", w.mae));
            manifest.metrics.push(row(&w.model, "mse", w.mse));
            manifest.metrics.push(row(&w.model, "smape", w.smape));
            manifest
                .metrics
                .push(row(&w.model, "drift_trips", w.drift_trips as f64));
        }
        if manifest.metrics.is_empty() {
            continue;
        }
        let path = dir.join(*file);
        match manifest.write(&path) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write the quality manifest: {e}"),
        }
    }
}

/// The value of `flag` parsed as `T`, `None` when the flag is absent; a
/// missing or unparsable value, or one `valid` refuses, is an error
/// naming the flag.
fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    valid: fn(&T) -> bool,
) -> Result<Option<T>, String> {
    if !args.iter().any(|a| a == flag) {
        return Ok(None);
    }
    let raw = flag_value(args, flag).ok_or_else(|| format!("{flag} needs a value"))?;
    match raw.parse::<T>() {
        Ok(v) if valid(&v) => Ok(Some(v)),
        _ => Err(format!("invalid value {raw:?} for {flag}")),
    }
}

/// `tfb serve`'s non-text flags, each parsed where it enters.
struct ServeFlags {
    coalescer: tfb::serve::CoalescerConfig,
    resident_cap: Option<usize>,
    /// Set when `--slo-ms` or `--slo-objective` is given.
    slo: Option<tfb_obs::trace::SloConfig>,
    /// Set when any `--quality-*` knob is given; the others default.
    quality: Option<tfb_obs::quality::QualityConfig>,
    profile_hz: Option<u32>,
    canary_pct: u8,
    observe: bool,
}

impl ServeFlags {
    fn parse(args: &[String]) -> Result<ServeFlags, String> {
        let real = |flag| parse_flag::<f64>(args, flag, |x| x.is_finite());
        let defaults = tfb::serve::CoalescerConfig::default();
        let coalescer = tfb::serve::CoalescerConfig {
            // 0 = one shard per core
            shards: parse_flag(args, "--shards", |_| true)?.unwrap_or(defaults.shards),
            max_batch: parse_flag(args, "--batch-max", positive)?.unwrap_or(defaults.max_batch),
            queue_cap: parse_flag(args, "--queue-cap", positive)?.unwrap_or(defaults.queue_cap),
        };
        let ms_ok = |ms: &f64| std::time::Duration::try_from_secs_f64(ms / 1e3).is_ok();
        let (slo_ms, slo_q) = (
            parse_flag(args, "--slo-ms", ms_ok)?,
            real("--slo-objective")?,
        );
        let slo = (slo_ms.is_some() || slo_q.is_some()).then(|| {
            let mut slo = tfb_obs::trace::SloConfig::default();
            if let Some(ms) = slo_ms {
                slo.threshold = std::time::Duration::from_secs_f64(ms / 1e3);
            }
            if let Some(q) = slo_q {
                slo.objective = q.clamp(0.0, 0.999_999);
            }
            slo
        });
        let window: Option<usize> = parse_flag(args, "--quality-window", |_| true)?;
        let (smape, q_objective) = (
            real("--quality-slo-smape")?,
            real("--quality-slo-objective")?,
        );
        let (delta, lambda) = (real("--quality-ph-delta")?, real("--quality-ph-lambda")?);
        let any_quality = [smape, q_objective, delta, lambda]
            .iter()
            .any(Option::is_some);
        let quality = (window.is_some() || any_quality).then(|| {
            let mut q = tfb_obs::quality::QualityConfig::default();
            if let Some(w) = window {
                q.window = w.max(1);
            }
            if let Some(d) = delta {
                q.page_hinkley.delta = d.max(0.0);
            }
            if let Some(l) = lambda {
                q.page_hinkley.lambda = l.max(0.0);
            }
            if smape.is_some() || q_objective.is_some() {
                let mut slo = tfb_obs::quality::QualitySloConfig::default();
                if let Some(s) = smape {
                    slo.smape = s.max(0.0);
                }
                if let Some(o) = q_objective {
                    slo.objective = o.clamp(0.0, 0.999_999);
                }
                q.slo = Some(slo);
            }
            q
        });
        Ok(ServeFlags {
            coalescer,
            resident_cap: parse_flag(args, "--resident-cap", |_| true)?,
            slo,
            quality,
            profile_hz: parse_flag(args, "--profile-hz", |_| true)?,
            canary_pct: parse_flag(args, "--canary-pct", |p: &u8| *p <= 100)?.unwrap_or(0),
            observe: parse_flag(args, "--observe", |v: &String| v == "on" || v == "off")?
                .is_none_or(|v| v == "on"),
        })
    }
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let flags = match ServeFlags::parse(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("tfb serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let model_path = flag_value(args, "--model");
    let registry_dir = flag_value(args, "--registry");
    if model_path.is_none() && registry_dir.is_none() {
        eprintln!("tfb serve: need --model MODEL.tfba or --registry DIR");
        return ExitCode::FAILURE;
    };
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".to_string());
    // Either a whole registry fleet or a single artifact. `--model` is
    // the original surface and stays: it materializes a one-entry
    // in-memory fleet, so routed requests work against it too.
    let fleet = if let Some(dir) = &registry_dir {
        let registry = match tfb::registry::Registry::open(Path::new(dir)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("tfb serve: cannot open registry {dir}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut fleet_cfg = tfb::registry::fleet::FleetConfig::default();
        if let Some(n) = flags.resident_cap {
            fleet_cfg.resident_cap = n;
        }
        match tfb::registry::fleet::Fleet::open(registry, fleet_cfg) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("tfb serve: cannot open fleet over {dir}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let path = model_path.as_deref().expect("checked above");
        let model = match tfb::artifact::ServableModel::load(Path::new(path)) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("tfb serve: cannot load {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let name = model.method().to_string();
        tfb::registry::fleet::Fleet::single(&name, model)
    };
    let source = registry_dir
        .clone()
        .or(model_path)
        .expect("one of --model/--registry present");
    // Arm the live metric registry so `GET /metrics` has data. Without
    // `--out` the serving process writes no event log or manifest file.
    let out_dir = flag_value(args, "--out").map(PathBuf::from);
    let obs_on = std::env::var("TFB_OBS").map(|v| v != "0").unwrap_or(true);
    let mut obs_armed = false;
    if obs_on {
        let events_path = out_dir.as_ref().map(|dir| {
            let _ = std::fs::create_dir_all(dir);
            dir.join("serve.events.jsonl")
        });
        match tfb_obs::start_run(tfb_obs::RunOptions { events_path }) {
            Ok(()) => obs_armed = true,
            Err(e) => eprintln!("tfb serve: could not arm observability: {e}"),
        }
    }
    // The SLO must be configured after arming: starting a run resets the
    // tracker so stale windows never leak across runs.
    if let (true, Some(slo)) = (obs_armed, flags.slo) {
        tfb_obs::trace::configure_slo(slo);
    }
    // The quality layer: rolling forecast-vs-actual windows, drift
    // detectors and the quality SLO behind `/v1/observe`. Configured
    // after arming for the same reset-ordering reason as the latency
    // SLO.
    if let (true, Some(q)) = (obs_armed, flags.quality) {
        tfb_obs::quality::configure(q);
    }
    // Arm the flight recorder: anomaly triggers (SLO burn, health
    // sentinels, queue spikes, panics) dump postmortem bundles next to
    // the run history. `--history none` disables it along with the rest
    // of the cross-run machinery.
    let flight_root = if obs_armed { history_root(args) } else { None };
    let flight_armed = flight_root.is_some();
    if let Some(root) = flight_root {
        tfb_obs::flight::configure(tfb_obs::flight::FlightConfig {
            history_root: Some(root),
            context: vec![
                ("command".to_string(), "serve".to_string()),
                ("model".to_string(), source.clone()),
                (
                    "kernel".to_string(),
                    tfb::math::kernel::active_name().to_string(),
                ),
            ],
            ..Default::default()
        });
        tfb_obs::flight::set_armed(true);
        tfb_obs::flight::install_panic_hook();
    }
    // The wall-clock sampling profiler is opt-in; samples land in the
    // event log (and any postmortem bundle) as `psample` events.
    let profile_hz: u32 = flags
        .profile_hz
        .or_else(|| {
            std::env::var("TFB_PROFILE_HZ")
                .ok()
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0);
    if profile_hz > 0 && obs_armed {
        tfb_obs::flight::profiler::start(profile_hz);
        eprintln!("profiler sampling span stacks at {profile_hz} Hz");
    }
    tfb::serve::install_signal_handlers();
    let names = fleet.names();
    eprintln!(
        "serving {} model(s) from {source}: {}",
        names.len(),
        names.join(", ")
    );
    let canary_pct = flags.canary_pct;
    if canary_pct > 0 {
        eprintln!("canary split: {canary_pct}% of default-label traffic routes to @canary");
    }
    let observe = tfb::serve::ObserveConfig {
        enabled: flags.observe,
        ..tfb::serve::ObserveConfig::default()
    };
    let handle = match tfb::serve::serve_fleet(
        std::sync::Arc::new(fleet),
        tfb::serve::ServerConfig {
            addr,
            coalescer: flags.coalescer,
            canary_pct,
            observe,
        },
    ) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("tfb serve: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let shards = handle.shards();
    eprintln!(
        "{shards} shard(s), {} kernels",
        tfb::math::kernel::active_name()
    );
    println!("listening on {}", handle.addr());
    let drain = handle.run_until(tfb::serve::signal_received);
    eprintln!("draining and shutting down...");
    report_canary(&drain, out_dir.as_deref());
    report_quality(&drain, out_dir.as_deref());
    // Stop the profiler before the run closes so its final flush of
    // `psample` rows still lands in the event log.
    if profile_hz > 0 && obs_armed {
        tfb_obs::flight::profiler::stop();
        let collapsed = tfb_obs::flight::profiler::collapsed();
        if !collapsed.is_empty() {
            if let Some(dir) = &out_dir {
                let path = dir.join("serve.profile.collapsed");
                match std::fs::write(&path, &collapsed) {
                    Ok(()) => eprintln!("wrote {}", path.display()),
                    Err(e) => eprintln!("could not write the profile: {e}"),
                }
            }
        }
    }
    if obs_armed {
        let meta = [
            ("command", "serve".to_string()),
            ("model", source.clone()),
            ("shards", shards.to_string()),
            ("kernel", tfb::math::kernel::active_name().to_string()),
        ];
        if let Some(manifest) = tfb_obs::finish_run(&meta) {
            if let Some(dir) = &out_dir {
                let path = dir.join("serve.manifest.json");
                match manifest.write(&path) {
                    Ok(()) => eprintln!("wrote {}", path.display()),
                    Err(e) => eprintln!("could not write the serve manifest: {e}"),
                }
            }
        }
    }
    if flight_armed {
        let (dumps, suppressed) = tfb_obs::flight::stats();
        if dumps > 0 || suppressed > 0 {
            eprintln!("flight recorder: {dumps} postmortem dump(s), {suppressed} suppressed");
        }
        tfb_obs::flight::set_armed(false);
    }
    ExitCode::SUCCESS
}

fn cmd_datasets() -> ExitCode {
    println!(
        "{:<12} {:<12} {:<10} {:>8} {:>6}  split",
        "name", "domain", "frequency", "length", "dim"
    );
    for p in tfb::datagen::all_profiles() {
        println!(
            "{:<12} {:<12} {:<10} {:>8} {:>6}  {}",
            p.name,
            p.domain.label(),
            p.frequency.label(),
            p.paper_len,
            p.paper_dim,
            p.split.label()
        );
    }
    ExitCode::SUCCESS
}

fn cmd_methods() -> ExitCode {
    use tfb::core::method::{DL_METHODS, ML_METHODS, STAT_METHODS};
    println!("statistical:      {}", STAT_METHODS.join(", "));
    println!("machine learning: {}", ML_METHODS.join(", "));
    println!("deep learning:    {}", DL_METHODS.join(", "));
    ExitCode::SUCCESS
}

fn cmd_characterize(args: &[String]) -> ExitCode {
    let Some(name) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("tfb characterize: missing dataset name");
        return ExitCode::FAILURE;
    };
    let max_len = flag!("tfb characterize", args, "--max-len", positive).unwrap_or(1500);
    let scale = tfb::datagen::Scale {
        max_len,
        max_dim: 6,
    };
    let Some(handle) = tfb::core::data::load(name, scale) else {
        eprintln!("tfb characterize: unknown dataset {name} (try `tfb datasets`)");
        return ExitCode::FAILURE;
    };
    let c = tfb::core::data::DatasetCharacteristics::compute(&handle.series, 4);
    println!(
        "dataset:      {name} ({} x {})",
        handle.series.len(),
        handle.series.dim()
    );
    println!("trend:        {:.3}", c.trend);
    println!("seasonality:  {:.3}", c.seasonality);
    println!("stationarity: {:.3}", c.stationarity);
    println!("shifting:     {:.3}", c.shifting);
    println!("transition:   {:.4}", c.transition);
    println!("correlation:  {:.3}", c.correlation);
    ExitCode::SUCCESS
}

fn cmd_example_config() -> ExitCode {
    println!(
        r#"{{
    "datasets": ["ILI", "NASDAQ", "ETTh1"],
    "methods": ["VAR", "LR", "NLinear", "PatchTST"],
    "horizons": [24, 36],
    "lookbacks": [36, 104],
    "strategy": {{"rolling": {{"stride": 1}}}},
    "metrics": ["mae", "mse", "smape"],
    "max_windows": 50,
    "max_len": 2000,
    "max_dim": 6
}}"#
    );
    ExitCode::SUCCESS
}
