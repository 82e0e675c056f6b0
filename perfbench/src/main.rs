//! `tfb-perfbench` — the repository benchmark.
//!
//! ```text
//! tfb-perfbench --workload W --seed N --seconds S --trace 0|1 [--size tiny] [--record FILE]
//! tfb-perfbench compare BASE.jsonl NEW.jsonl [BENCHMARK.json]
//! ```
//!
//! Runs one workload (`mts-rolling`, `uts-fixed`, `serve-fleet`) on
//! inputs made from the seed, checks its outputs, and
//! prints one JSON result line last on standard output: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Standard error carries the machine fingerprint and a readable
//! summary; `--record FILE` appends the same as one JSON line, which
//! `compare` reads. See `README.md` for what every metric means.

mod alloc;
mod eval;
mod probes;
mod report;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::GatedAlloc = alloc::GatedAlloc;

/// What every workload needs to know about the run.
pub struct Ctx {
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Smoke-test inputs.
    pub tiny: bool,
    /// Threads and connections the benchmark may use.
    pub nproc: usize,
    /// Scratch directory for event logs and registries.
    pub scratch: PathBuf,
}

/// Median of a sample.
pub fn median(xs: &[f64]) -> f64 {
    tfb_bench::measure::stats(xs).median
}

/// Nearest-rank percentile `q` (0–100) of an unsorted sample.
pub fn pct(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    tfb_obs::manifest::percentile(&sorted, q)
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    tfb_obs::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

/// The metric-column digest `digests.txt` records for this workload,
/// size, seed and kernel path, if any.
pub fn recorded_digest(workload: &str, ctx: &Ctx) -> Option<&'static str> {
    let size = if ctx.tiny { "tiny" } else { "default" };
    let kernel = tfb_math::kernel::active_name();
    include_str!("../digests.txt").lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f[..] {
            [w, s, seed, k, digest]
                if w == workload && s == size && seed == ctx.seed.to_string() && k == kernel =>
            {
                Some(digest)
            }
            _ => None,
        }
    })
}

struct Args {
    workload: String,
    ctx: Ctx,
    record: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut tiny, mut record) = (None, None, false, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--size" => {
                tiny = match value()?.as_str() {
                    "tiny" => true,
                    "default" => false,
                    other => return Err(format!("--size takes tiny or default, not {other}")),
                }
            }
            "--record" => record = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scratch = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        ctx: Ctx {
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace,
            tiny,
            nproc,
            scratch,
        },
        record,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match report::compare(&argv[1..]) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err((code, msg)) => {
                eprintln!("compare: {msg}");
                ExitCode::from(code as u8)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tfb-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Ctx) -> report::Outcome = match args.workload.as_str() {
        "mts-rolling" => eval::mts_rolling,
        "uts-fixed" => eval::uts_fixed,
        "serve-fleet" => serve::serve_fleet,
        other => {
            eprintln!("tfb-perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let ctx = &args.ctx;
    if let Err(e) = std::fs::create_dir_all(&ctx.scratch) {
        eprintln!(
            "tfb-perfbench: cannot create {}: {e}",
            ctx.scratch.display()
        );
        return ExitCode::FAILURE;
    }
    let out = run(ctx);
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    let _ = std::fs::remove_dir(".perfbench");
    if let Some(why) = &out.invalid {
        eprintln!("tfb-perfbench: run invalid, not recorded: {why}");
        return ExitCode::from(3);
    }
    let table = if ctx.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    let rows = match out.table(table) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("tfb-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (k, v) in report::fingerprint() {
        eprintln!("fingerprint {k}: {v}");
    }
    for (k, v) in &out.notes {
        eprintln!("{k}: {v}");
    }
    for failure in &out.check_failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    for (name, value, unit) in &rows {
        eprintln!("{name:>32} {value:>14.4} {unit}");
    }
    if let Some(path) = &args.record {
        use std::io::Write as _;
        let line = report::record_line(&args.workload, ctx.seed, ctx.trace, &out, &rows);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = appended {
            eprintln!("tfb-perfbench: cannot append to {}: {e}", path.display());
        }
    }
    println!("{}", report::result_line(&out, &rows));
    ExitCode::SUCCESS
}
