//! The two evaluation workloads, TFB's two protocols:
//!
//! * `mts-rolling` — the multivariate rolling protocol over the
//!   `tfb example-config` grid through `tfb_core::run_jobs`, scaled down
//!   (windows, series length, epochs) so one grid pass repeats within a
//!   run. The seed sets `TrainConfig.seed`.
//! * `uts-fixed` — the univariate fixed protocol over a slice of the
//!   seeded archive, each series characterized and then forecast by
//!   statistical and ML methods only, over `nproc` worker threads as
//!   `table6` drives it. No `tfb-nn` code runs.
//!
//! A run alternates `hi` passes (`nproc` workers) with `lo` passes (one
//! worker): `wall_s` is the `hi` pass wall time, `lo_*`/`hi_*` the
//! latency of one work item (a job, or a series with all its methods)
//! alone or beside `nproc - 1` others. Every pass checks that each item
//! succeeds with finite metrics and hashes the metric columns; the
//! digest must repeat across passes and match `digests.txt` when that
//! records the seed.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tfb_characteristics::CharacteristicVector;
use tfb_core::eval::{evaluate, EvalOutcome, EvalSettings};
use tfb_core::method::{build_method, paradigm_of, Paradigm};
use tfb_core::runner::{run_job, run_jobs, DatasetCache, Parallelism};
use tfb_core::BenchmarkConfig;
use tfb_data::{ChronoSplit, MultiSeries, UniSeries};
use tfb_datagen::univariate::{UnivariateArchive, SPECS};
use tfb_nn::TrainConfig;
use tfb_obs::{Manifest, RunOptions};

use crate::report::Outcome;
use crate::{alloc, median, pct, peak_rss_mib, Ctx};

/// Statistical and ML methods of the univariate workload.
const UTS_METHODS: [&str; 8] = ["Naive", "Theta", "ETS", "ARIMA", "KF", "LR", "RF", "XGB"];

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 15;

struct MtsSize {
    max_windows: usize,
    max_len: usize,
    epochs: usize,
    max_samples: usize,
}

fn mts_size(ctx: &Ctx) -> MtsSize {
    if ctx.tiny {
        MtsSize {
            max_windows: 2,
            max_len: 400,
            epochs: 1,
            max_samples: 32,
        }
    } else {
        MtsSize {
            max_windows: 8,
            max_len: 800,
            epochs: 2,
            max_samples: 192,
        }
    }
}

/// The `tfb example-config` grid with its scale knobs turned down.
fn mts_config_text(size: &MtsSize) -> String {
    format!(
        r#"{{
    "datasets": ["ILI", "NASDAQ", "ETTh1"],
    "methods": ["VAR", "LR", "NLinear", "PatchTST"],
    "horizons": [24, 36],
    "lookbacks": [36, 104],
    "strategy": {{"rolling": {{"stride": 1}}}},
    "metrics": ["mae", "mse", "smape"],
    "max_windows": {},
    "max_len": {},
    "max_dim": 6
}}"#,
        size.max_windows, size.max_len
    )
}

fn mts_train_config(ctx: &Ctx, size: &MtsSize) -> TrainConfig {
    TrainConfig {
        epochs: size.epochs,
        max_samples: size.max_samples,
        // Patience never ends training early, so every seed trains the
        // same number of steps.
        patience: size.epochs,
        seed: ctx.seed,
        ..TrainConfig::default()
    }
}

/// One pass over the work items.
struct Pass {
    wall: Duration,
    /// Latency of each item, microseconds.
    item_us: Vec<f64>,
    digest: String,
    attempted: u64,
    failed: u64,
}

/// Appends one outcome's metric columns to the digest text; `None` when
/// the outcome failed or carries a non-finite metric.
fn digest_outcome(text: &mut String, key: &str, out: &tfb_core::Result<EvalOutcome>) -> Option<()> {
    use std::fmt::Write as _;
    let o = out.as_ref().ok()?;
    if o.metrics.values().any(|v| !v.is_finite()) {
        return None;
    }
    let _ = write!(
        text,
        "{key}|{}|{}|{}|{}",
        o.method, o.horizon, o.lookback, o.n_windows
    );
    for (k, v) in &o.metrics {
        let _ = write!(text, " {k}={:016x}", v.to_bits());
    }
    text.push('\n');
    Some(())
}

/// Compares every pass's digest with the first and with the recorded
/// one, and folds the passes' tallies into `out`.
fn check_passes(ctx: &Ctx, workload: &str, passes: &[&Pass], out: &mut Outcome) {
    let first = &passes[0].digest;
    for p in passes {
        out.attempted += p.attempted;
        out.failed += p.failed;
        out.check(&p.digest == first, || {
            format!("digest changed between passes: {first} vs {}", p.digest)
        });
    }
    match crate::recorded_digest(workload, ctx) {
        Some(want) => out.check(first == want, || {
            format!("digest {first} differs from the recorded {want}")
        }),
        None => out.note("digest_recorded", "no"),
    }
    out.note("digest", first);
}

/// Item latency percentiles over the items of all passes of one kind.
/// Pooled rather than per pass: a lone worker runs a whole pass on one
/// vCPU, and the vCPUs of a shared machine differ in speed.
fn set_latencies(out: &mut Outcome, lo: &[Pass], hi: &[Pass]) {
    let pooled = |ps: &[Pass]| -> Vec<f64> { ps.iter().flat_map(|p| p.item_us.clone()).collect() };
    let (lo, hi) = (pooled(lo), pooled(hi));
    out.set("lo_p50_us", pct(&lo, 50.0));
    out.set("lo_p90_us", pct(&lo, 90.0));
    out.set("hi_p50_us", pct(&hi, 50.0));
    out.set("hi_p90_us", pct(&hi, 90.0));
    out.note("item_samples", format!("lo {} hi {}", lo.len(), hi.len()));
}

/// Runs `pass(workers)` with `nproc` workers twice for every run with
/// one worker, until the run's time is spent and each ran at least once.
fn alternate(ctx: &Ctx, mut pass: impl FnMut(usize) -> Pass) -> (Vec<Pass>, Vec<Pass>) {
    let start = Instant::now();
    let (mut hi, mut lo) = (Vec::new(), Vec::new());
    while hi.is_empty() || lo.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        if hi.len() < 2 * (lo.len() + 1) {
            hi.push(pass(ctx.nproc));
        } else {
            lo.push(pass(1));
        }
    }
    (hi, lo)
}

/// Setup timed `SETUP_REPS` times; returns the last result and the
/// median seconds.
fn timed_setup<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let v = std::hint::black_box(f());
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    (last.expect("at least one set-up"), median(&secs))
}

fn arm(events: Option<&Path>) {
    tfb_obs::start_run(RunOptions {
        events_path: events.map(Path::to_path_buf),
    })
    .expect("open the event log in the scratch directory");
}

fn disarm() -> Manifest {
    tfb_obs::finish_run(&[]).expect("a run was armed")
}

/// Durations of the `job` spans in an event log, microseconds.
fn job_span_us(events: &Path) -> Vec<f64> {
    let text = std::fs::read_to_string(events).unwrap_or_default();
    text.lines()
        .filter(|l| l.contains("\"path\":\"job\","))
        .filter_map(|l| tfb_json::JsonValue::parse(l).ok())
        .filter_map(|v| v.get("ns").and_then(tfb_json::JsonValue::as_f64))
        .map(|ns| ns / 1e3)
        .collect()
}

struct Mts {
    config: BenchmarkConfig,
    train: TrainConfig,
    series: Vec<MultiSeries>,
}

fn mts_setup(ctx: &Ctx) -> (Mts, f64) {
    let size = mts_size(ctx);
    let text = mts_config_text(&size);
    let train = mts_train_config(ctx, &size);
    timed_setup(|| {
        let config = BenchmarkConfig::from_json(&text).expect("the grid config parses");
        let series = config
            .datasets
            .iter()
            .map(|d| {
                tfb_datagen::profile_by_name(d)
                    .expect("known dataset")
                    .generate(config.scale())
            })
            .collect();
        Mts {
            config,
            train,
            series,
        }
    })
}

/// One grid pass through `run_jobs`, armed like `tfb run`.
fn mts_pass(mts: &Mts, workers: usize, events: &Path) -> Pass {
    arm(Some(events));
    let t0 = Instant::now();
    let results = run_jobs(&mts.config, Parallelism::Threads(workers), Some(mts.train));
    let wall = t0.elapsed();
    disarm();
    let mut digest = String::new();
    let jobs = mts.config.jobs();
    let failed = jobs
        .iter()
        .zip(&results)
        .filter(|(job, r)| digest_outcome(&mut digest, &job.dataset, r).is_none())
        .count();
    Pass {
        wall,
        item_us: job_span_us(events),
        digest: tfb_obs::fnv1a_hex(digest.as_bytes()),
        attempted: results.len() as u64,
        failed: failed as u64,
    }
}

/// The `mts-rolling` workload.
pub fn mts_rolling(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (mts, setup_s) = mts_setup(ctx);
    let events = ctx.scratch.join("run.events.jsonl");
    if ctx.trace {
        return mts_traced(ctx, &mts, &events, out);
    }
    let (hi, lo) = alternate(ctx, |w| mts_pass(&mts, w, &events));
    let all: Vec<&Pass> = hi.iter().chain(&lo).collect();
    check_passes(ctx, "mts-rolling", &all, &mut out);
    set_latencies(&mut out, &lo, &hi);
    let wall = median(&hi.iter().map(|p| p.wall.as_secs_f64()).collect::<Vec<_>>());
    out.set("setup_s", setup_s);
    out.set("wall_s", wall);
    out.set("max_rps", mts.config.jobs().len() as f64 / wall);
    out.set("peak_rss_mib", peak_rss_mib());
    out.note("passes", format!("hi {} lo {}", hi.len(), lo.len()));
    out
}

/// Rolling windows an evaluation of `series` at horizon `f` can use.
fn available_windows(
    series: &MultiSeries,
    split: tfb_data::SplitRatio,
    f: usize,
    cap: usize,
) -> usize {
    let n = series.len();
    let test_start = ChronoSplit::split(series, split).map_or(n, |s| s.test_start);
    let avail = (n + 1).saturating_sub(f).saturating_sub(test_start);
    if cap > 0 {
        avail.min(cap)
    } else {
        avail
    }
}

fn phase_ns(m: &Manifest, path: &str, keep: impl Fn(Paradigm) -> bool) -> f64 {
    m.phases
        .iter()
        .filter(|p| p.path == path && paradigm_of(&p.method).is_some_and(&keep))
        .map(|p| p.total_ns as f64)
        .sum()
}

fn counter(m: &Manifest, name: &str) -> f64 {
    m.counters
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

/// The math-kernel counters the program already exports.
fn set_math(out: &mut Outcome, m: &Manifest) {
    out.set("math.gemm_calls", counter(m, "gemm/calls"));
    out.set("math.gemm_gflop", counter(m, "gemm/flops_est") / 1e9);
    out.set("math.fft_calls", counter(m, "fft/calls"));
    out.set("math.fft_mpoints", counter(m, "fft/points") / 1e6);
    out.set("eval.windows", counter(m, "eval/windows"));
}

/// Runs the untraced pass and the traced pass alternately until the
/// run's time is spent (at least once each) and reports their walls.
fn overhead<T>(
    ctx: &Ctx,
    mut untraced: impl FnMut() -> Duration,
    mut traced: impl FnMut() -> (Duration, T),
) -> (f64, f64, T) {
    let start = Instant::now();
    let (mut plain, mut timed, mut last) = (Vec::new(), Vec::new(), None);
    while last.is_none() || start.elapsed().as_secs_f64() < ctx.seconds {
        plain.push(untraced().as_secs_f64());
        let (wall, t) = traced();
        timed.push(wall.as_secs_f64());
        last = Some(t);
    }
    let (p, t) = (median(&plain), median(&timed));
    (t, (t - p) / p * 100.0, last.expect("one traced pass"))
}

type JobSlot = Mutex<Option<(JobTrace, tfb_core::Result<EvalOutcome>)>>;

struct JobTrace {
    method: String,
    ns: f64,
    allocs: u64,
    bytes: u64,
}

/// Attribution for `mts-rolling`: jobs through `run_job` (the per-job
/// entry point `run_jobs` uses) on the same worker-pool shape, with a
/// timer and a per-thread allocation tally around each job, plus the
/// program's own spans and counters.
fn mts_traced(ctx: &Ctx, mts: &Mts, events: &Path, mut out: Outcome) -> Outcome {
    let jobs = mts.config.jobs();
    let mut passes = Vec::new();
    let (traced_wall, overhead_pct, (pass, traces, manifest, results)) = overhead(
        ctx,
        || {
            let p = mts_pass(mts, ctx.nproc, events);
            let wall = p.wall;
            passes.push(p);
            wall
        },
        || {
            arm(Some(events));
            alloc::set_counting(true);
            let cache = DatasetCache::new();
            let slots: Vec<JobSlot> = jobs.iter().map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            let t0 = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..ctx.nproc {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        let (a0, t) = (alloc::thread_tally(), Instant::now());
                        let r = run_job(&mts.config, job, &cache, Some(mts.train));
                        let ns = t.elapsed().as_nanos() as f64;
                        let a1 = alloc::thread_tally();
                        let trace = JobTrace {
                            method: job.method.clone(),
                            ns,
                            allocs: a1.0 - a0.0,
                            bytes: a1.1 - a0.1,
                        };
                        *slots[i].lock().expect("job slot") = Some((trace, r));
                    });
                }
            });
            let wall = t0.elapsed();
            alloc::set_counting(false);
            let manifest = disarm();
            let (traces, results): (Vec<JobTrace>, Vec<_>) = slots
                .into_iter()
                .map(|s| s.into_inner().expect("job slot").expect("every job ran"))
                .unzip();
            let mut digest = String::new();
            let failed = jobs
                .iter()
                .zip(&results)
                .filter(|(j, r)| digest_outcome(&mut digest, &j.dataset, r).is_none())
                .count();
            let pass = Pass {
                wall,
                item_us: traces.iter().map(|t| t.ns / 1e3).collect(),
                digest: tfb_obs::fnv1a_hex(digest.as_bytes()),
                attempted: results.len() as u64,
                failed: failed as u64,
            };
            (wall, (pass, traces, manifest, results))
        },
    );
    let mut all: Vec<&Pass> = passes.iter().collect();
    all.push(&pass);
    check_passes(ctx, "mts-rolling", &all, &mut out);

    let m = &manifest;
    let any = |_: Paradigm| true;
    let deep = |p: Paradigm| p == Paradigm::DeepLearning;
    let ml = |p: Paradigm| p == Paradigm::MachineLearning;
    let stat = |p: Paradigm| p == Paradigm::Statistical;
    let job_ns = phase_ns(m, "job", any);
    let eval_ns = phase_ns(m, "job.eval", any);
    let datagen_ns = phase_ns(m, "job.datagen", any);
    let nn_train = phase_ns(m, "job.eval.train", deep);
    let ml_train = phase_ns(m, "job.eval.train", ml);
    let stat_ns = phase_ns(m, "job.eval.infer", stat);
    let win_infer = phase_ns(m, "job.eval.infer", |p| p != Paradigm::Statistical);
    let eval_self = eval_ns - nn_train - ml_train - stat_ns - win_infer;
    let runner_self = job_ns - eval_ns - datagen_ns;
    let capacity = ctx.nproc as f64 * pass.wall.as_nanos() as f64;
    out.check(eval_self >= 0.0 && runner_self >= 0.0, || {
        format!("nested spans exceed their parents ({eval_self} / {runner_self} ns)")
    });
    out.check(job_ns <= capacity, || {
        format!(
            "layer time {job_ns} ns exceeds {} workers x traced wall",
            ctx.nproc
        )
    });
    let share = |ns: f64| ns / job_ns * 100.0;
    out.set("trace.overhead_pct", overhead_pct);
    out.set("trace.wall_s", traced_wall);
    out.set("unattributed_s", (capacity - job_ns) / 1e9);
    out.set("runner.idle_frac", 1.0 - job_ns / capacity);
    let wall_us = pass.wall.as_secs_f64() * 1e6;
    out.set(
        "runner.job_p50_pct",
        pct(&pass.item_us, 50.0) / wall_us * 100.0,
    );
    out.set(
        "runner.job_max_pct",
        pct(&pass.item_us, 100.0) / wall_us * 100.0,
    );
    out.set("eval.self_pct", share(eval_self));
    out.set("nn.train_pct", share(nn_train));
    out.set("models.stat_pct", share(stat_ns));
    out.set("models.ml_train_pct", share(ml_train));
    let deep_jobs = traces
        .iter()
        .filter(|t| paradigm_of(&t.method) == Some(Paradigm::DeepLearning));
    let (allocs, bytes) = deep_jobs.fold((0, 0), |(a, b), t| (a + t.allocs, b + t.bytes));
    out.set("nn.allocs", allocs as f64);
    out.set("nn.alloc_mib", bytes as f64 / (1024.0 * 1024.0));
    let mut unusable = 0usize;
    let mut infer_us = Vec::new();
    for (job, r) in jobs.iter().zip(&results) {
        let Ok(o) = r else { continue };
        match paradigm_of(&job.method) {
            Some(Paradigm::Statistical) => {
                let di = mts
                    .config
                    .datasets
                    .iter()
                    .position(|d| *d == job.dataset)
                    .expect("grid dataset");
                let profile = tfb_datagen::profile_by_name(&job.dataset).expect("known dataset");
                let avail = available_windows(
                    &mts.series[di],
                    profile.split,
                    job.horizon,
                    mts.config.max_windows,
                );
                unusable += avail.saturating_sub(o.n_windows);
            }
            _ => infer_us.push(o.infer_time.as_secs_f64() * 1e6),
        }
    }
    out.set("models.unusable_windows", unusable as f64);
    out.set(
        "infer.us_per_window",
        infer_us.iter().sum::<f64>() / infer_us.len().max(1) as f64,
    );
    out.set("datagen.s", datagen_ns / 1e9);
    set_math(&mut out, m);
    crate::probes::run(ctx, &mut out, 1);
    out
}

struct Uts {
    series: Vec<UniSeries>,
}

fn uts_setup(ctx: &Ctx) -> (Uts, f64) {
    let (divisor, per_group) = if ctx.tiny { (400, 1) } else { (48, 8) };
    timed_setup(|| {
        let archive = UnivariateArchive::generate(divisor, ctx.seed);
        // The first `per_group` series of each frequency group (every
        // archetype), each cut to its group's shortest length: the seed
        // moves the values, not the amount of work. The hourly group is
        // left out: one random-forest fit on it costs more than all other
        // groups together and would serialize the pass.
        let series = SPECS
            .iter()
            .filter(|spec| spec.frequency != tfb_data::Frequency::Hourly)
            .flat_map(|spec| {
                let keep = spec.len_range.0;
                archive
                    .series
                    .iter()
                    .filter(move |s| s.frequency == spec.frequency)
                    .take(per_group)
                    .map(move |s| UniSeries {
                        values: s.values[s.values.len() - keep..].to_vec(),
                        ..s.clone()
                    })
            })
            .collect();
        Uts { series }
    })
}

/// One characterized and forecast series.
struct ItemTrace {
    ns: f64,
    char_ns: f64,
    points: usize,
    /// `(method, evaluate ns)` per method.
    evals: Vec<(&'static str, f64)>,
    results: Vec<tfb_core::Result<EvalOutcome>>,
    features: [f64; 5],
}

fn uts_item(s: &UniSeries) -> ItemTrace {
    let t0 = Instant::now();
    let v = CharacteristicVector::of_series(s);
    let _tags = v.tag(Default::default());
    let char_ns = t0.elapsed().as_nanos() as f64;
    let multi = MultiSeries::from_uni(s);
    let horizon = UnivariateArchive::horizon_for(s.frequency);
    let mut evals = Vec::new();
    let mut results = Vec::new();
    for name in UTS_METHODS {
        let settings = EvalSettings::fixed(horizon);
        let t = Instant::now();
        let r = build_method(name, settings.lookback, horizon, 1, None)
            .and_then(|mut m| evaluate(&mut m, &multi, &settings));
        evals.push((name, t.elapsed().as_nanos() as f64));
        results.push(r);
    }
    ItemTrace {
        ns: t0.elapsed().as_nanos() as f64,
        char_ns,
        points: s.values.len(),
        evals,
        results,
        features: v.as_features(),
    }
}

/// One pass over the slice on `workers` threads, as `table6` drives it.
fn uts_pass(uts: &Uts, workers: usize) -> (Pass, Vec<ItemTrace>) {
    let slots: Vec<Mutex<Option<ItemTrace>>> =
        uts.series.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(s) = uts.series.get(i) else { break };
                let item = uts_item(s);
                *slots[i].lock().expect("series slot") = Some(item);
            });
        }
    });
    let wall = t0.elapsed();
    let items: Vec<ItemTrace> = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("series slot")
                .expect("every series ran")
        })
        .collect();
    let mut digest = String::new();
    let mut failed = 0;
    for (s, item) in uts.series.iter().zip(&items) {
        let bits: Vec<String> = item
            .features
            .iter()
            .map(|f| format!("{:016x}", f.to_bits()))
            .collect();
        let key = format!("{} {}", s.name, bits.join(" "));
        failed += item
            .results
            .iter()
            .filter(|r| digest_outcome(&mut digest, &key, r).is_none())
            .count() as u64;
    }
    let pass = Pass {
        wall,
        item_us: items.iter().map(|t| t.ns / 1e3).collect(),
        digest: tfb_obs::fnv1a_hex(digest.as_bytes()),
        attempted: (items.len() * UTS_METHODS.len()) as u64,
        failed,
    };
    (pass, items)
}

/// The `uts-fixed` workload.
pub fn uts_fixed(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (uts, setup_s) = uts_setup(ctx);
    out.note("series", uts.series.len());
    if ctx.trace {
        return uts_traced(ctx, &uts, setup_s, out);
    }
    arm(None);
    let (hi, lo) = alternate(ctx, |w| uts_pass(&uts, w).0);
    disarm();
    let all: Vec<&Pass> = hi.iter().chain(&lo).collect();
    check_passes(ctx, "uts-fixed", &all, &mut out);
    set_latencies(&mut out, &lo, &hi);
    let wall = median(&hi.iter().map(|p| p.wall.as_secs_f64()).collect::<Vec<_>>());
    out.set("setup_s", setup_s);
    out.set("wall_s", wall);
    out.set("max_rps", uts.series.len() as f64 / wall);
    out.set("peak_rss_mib", peak_rss_mib());
    out.note("passes", format!("hi {} lo {}", hi.len(), lo.len()));
    out
}

fn uts_traced(ctx: &Ctx, uts: &Uts, setup_s: f64, mut out: Outcome) -> Outcome {
    let mut passes = Vec::new();
    let (traced_wall, overhead_pct, (pass, items, manifest)) = overhead(
        ctx,
        || {
            arm(None);
            let (p, _) = uts_pass(uts, ctx.nproc);
            disarm();
            let wall = p.wall;
            passes.push(p);
            wall
        },
        || {
            arm(None);
            alloc::set_counting(true);
            let (p, items) = uts_pass(uts, ctx.nproc);
            alloc::set_counting(false);
            let manifest = disarm();
            (p.wall, (p, items, manifest))
        },
    );
    let mut all: Vec<&Pass> = passes.iter().collect();
    all.push(&pass);
    check_passes(ctx, "uts-fixed", &all, &mut out);

    let item_ns: f64 = items.iter().map(|i| i.ns).sum();
    let char_ns: f64 = items.iter().map(|i| i.char_ns).sum();
    let points: usize = items.iter().map(|i| i.points).sum();
    let (mut eval_ns, mut stat_ns, mut ml_train, mut ml_infer, mut ml_n) =
        (0.0, 0.0, 0.0, 0.0, 0usize);
    for item in &items {
        for ((name, ns), r) in item.evals.iter().zip(&item.results) {
            eval_ns += ns;
            let Ok(o) = r else { continue };
            let (train, infer) = (
                o.train_time.as_nanos() as f64,
                o.infer_time.as_nanos() as f64,
            );
            if paradigm_of(name) == Some(Paradigm::Statistical) {
                stat_ns += infer;
            } else {
                ml_train += train;
                ml_infer += infer;
                ml_n += 1;
            }
        }
    }
    let eval_self = eval_ns - stat_ns - ml_train - ml_infer;
    let capacity = ctx.nproc as f64 * pass.wall.as_nanos() as f64;
    out.check(eval_self >= 0.0, || {
        format!("evaluate shorter than its train and infer ({eval_self} ns)")
    });
    out.check(item_ns <= capacity, || {
        format!(
            "layer time {item_ns} ns exceeds {} workers x traced wall",
            ctx.nproc
        )
    });
    let share = |ns: f64| ns / item_ns * 100.0;
    out.set("trace.overhead_pct", overhead_pct);
    out.set("trace.wall_s", traced_wall);
    out.set("unattributed_s", (capacity - item_ns) / 1e9);
    out.set("runner.idle_frac", 1.0 - item_ns / capacity);
    let wall_us = pass.wall.as_secs_f64() * 1e6;
    out.set(
        "runner.job_p50_pct",
        pct(&pass.item_us, 50.0) / wall_us * 100.0,
    );
    out.set(
        "runner.job_max_pct",
        pct(&pass.item_us, 100.0) / wall_us * 100.0,
    );
    out.set("eval.self_pct", share(eval_self));
    out.set("models.stat_pct", share(stat_ns));
    out.set("models.ml_train_pct", share(ml_train));
    out.set("infer.us_per_window", ml_infer / 1e3 / ml_n.max(1) as f64);
    out.set("characteristics.pct", share(char_ns));
    out.set(
        "characteristics.mpoints_per_s",
        points as f64 / (char_ns / 1e9) / 1e6,
    );
    out.set("datagen.s", setup_s);
    set_math(&mut out, &manifest);
    crate::probes::run(ctx, &mut out, 1);
    out
}
