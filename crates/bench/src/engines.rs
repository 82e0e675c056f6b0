//! The harness's workload engines: how one benchmark [`Cell`] executes.
//!
//! Three engines, selected by a suite's `engine` field:
//!
//! * **eval** — the paper's protocol: generate the cell's dataset
//!   profile, train the method, roll the evaluator, and capture wall
//!   time, per-window inference cost, and the accuracy scores (MAE /
//!   MSE / MASE / MSMAPE) the Table 6/7 rankings are built from.
//!   Accuracy must be bit-identical across the cell's `iters`
//!   repetitions (everything is seeded), so a drift across iterations
//!   is reported as an error, not averaged away.
//! * **math** — one kernel × shape, scalar path vs the
//!   runtime-dispatched one, each timed as the minimum over repetitions
//!   of K back-to-back calls / K.
//! * **serve** — closed-loop load legs against freshly started forecast
//!   servers: throughput and client-side latency percentiles, a model
//!   fleet's cache behaviour, the detection delay of the quality loop,
//!   and interleaved A/B legs pricing the quality loop and the flight
//!   recorder on the hot path.
//!
//! Every engine returns plain [`MeasurementRow`]s; recording, manifest
//! assembly and history appends live in [`crate::harness`].

use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::measure::measurement;
use crate::suite::{Cell, Engine, Suite};
use tfb_core::eval::{evaluate, EvalSettings, Strategy};
use tfb_core::method::{build_method, Method};
use tfb_core::Metric;
use tfb_data::{MultiSeries, Normalization};
use tfb_json::JsonValue;
use tfb_math::kernel::{self, KernelPath};
use tfb_models::tabular::iterate_one_step;
use tfb_models::{LinearRegressionForecaster, ModelError, WindowForecaster};
use tfb_nn::TrainConfig;
use tfb_obs::manifest::percentile;
use tfb_obs::MeasurementRow;
use tfb_serve::{serve, serve_fleet, CoalescerConfig, ObserveConfig, ServerConfig};

/// Executes one cell under its suite's engine.
pub fn run_cell(suite: &Suite, cell: &Cell) -> Result<Vec<MeasurementRow>, String> {
    match suite.engine {
        Engine::Eval => run_eval(suite, cell),
        Engine::Math => run_math(suite, cell),
        Engine::Serve => run_serve(suite, cell),
    }
}

/// The accuracy quantities every eval cell reports (and `rank` consumes).
pub const EVAL_SCORES: [Metric; 4] = [Metric::Mae, Metric::Mse, Metric::Mase, Metric::Msmape];

/// LR wrapped to forecast iteratively with a one-step inner model — the
/// `multistep = "ims"` arm of the DMS-vs-IMS ablation (Section 4.4: IMS
/// compounds one-step errors with the horizon; DMS stays flatter).
struct IterativeLr {
    inner: LinearRegressionForecaster,
    horizon: usize,
}

impl IterativeLr {
    fn new(lookback: usize, horizon: usize) -> IterativeLr {
        IterativeLr {
            inner: LinearRegressionForecaster::new(lookback, 1),
            horizon,
        }
    }
}

impl WindowForecaster for IterativeLr {
    fn name(&self) -> &'static str {
        "LR-IMS"
    }
    fn lookback(&self) -> usize {
        self.inner.lookback()
    }
    fn horizon(&self) -> usize {
        self.horizon
    }
    fn train(&mut self, train: &MultiSeries) -> Result<(), ModelError> {
        self.inner.train(train)
    }
    fn predict(&self, window: &[f64], dim: usize) -> Result<Vec<f64>, ModelError> {
        let channels = tfb_models::window_channels(window, dim);
        let mut per_channel = Vec::with_capacity(dim);
        for ch in &channels {
            per_channel.push(iterate_one_step(ch, self.horizon, |w| {
                self.inner.predict(w, 1).map(|v| v[0]).unwrap_or(f64::NAN)
            }));
        }
        Ok(tfb_models::interleave_channels(&per_channel))
    }
}

/// Builds a cell's method honouring its `multistep` field.
fn build_cell_method(
    cell: &Cell,
    lookback: usize,
    dim: usize,
    train: TrainConfig,
) -> Result<Method, String> {
    match cell.multistep.as_str() {
        "dms" => build_method(&cell.method, lookback, cell.horizon, dim, Some(train))
            .map_err(|e| format!("{}: cannot build {:?}: {e}", cell.id, cell.method)),
        "ims" => {
            if cell.method != "LR" {
                return Err(format!(
                    "{}: multistep = \"ims\" only supports method \"LR\", not {:?}",
                    cell.id, cell.method
                ));
            }
            Ok(Method::Window(Box::new(IterativeLr::new(
                lookback,
                cell.horizon,
            ))))
        }
        other => Err(format!(
            "{}: unknown multistep {other:?} (dms|ims)",
            cell.id
        )),
    }
}

fn run_eval(suite: &Suite, cell: &Cell) -> Result<Vec<MeasurementRow>, String> {
    let profile = tfb_datagen::profile_by_name(&cell.dataset)
        .ok_or_else(|| format!("{}: unknown dataset profile {:?}", cell.id, cell.dataset))?;
    let series = profile.generate(tfb_datagen::Scale {
        max_len: cell.max_len,
        max_dim: cell.max_dim,
    });
    let lookback = if cell.lookback > 0 {
        cell.lookback
    } else {
        ((cell.horizon as f64) * 1.25).ceil() as usize
    };
    let mut settings = EvalSettings::rolling(lookback, cell.horizon, profile.split);
    settings.max_windows = cell.max_windows;
    settings.metrics = EVAL_SCORES.to_vec();
    settings.strategy = Strategy::Rolling {
        stride: cell.stride,
    };
    settings.normalization = Normalization::parse_name(&cell.normalization).ok_or_else(|| {
        format!(
            "{}: unknown normalization {:?} (ZScore|MinMax|None)",
            cell.id, cell.normalization
        )
    })?;
    settings.batch_inference = match cell.inference.as_str() {
        "batched" => true,
        "sequential" => false,
        other => {
            return Err(format!(
                "{}: unknown inference {other:?} (batched|sequential)",
                cell.id
            ))
        }
    };
    let train = TrainConfig {
        epochs: cell.epochs,
        max_samples: 512,
        ..TrainConfig::default()
    };

    let mut wall_ns = Vec::with_capacity(cell.iters);
    let mut infer_us = Vec::with_capacity(cell.iters);
    let mut scores: Vec<Vec<f64>> = vec![Vec::with_capacity(cell.iters); EVAL_SCORES.len()];
    let mut first_metrics = None;
    for _ in 0..cell.iters {
        let mut method = build_cell_method(cell, lookback, series.dim(), train)?;
        let t0 = Instant::now();
        let out = evaluate(&mut method, &series, &settings)
            .map_err(|e| format!("{}: evaluation failed: {e}", cell.id))?;
        wall_ns.push(t0.elapsed().as_nanos() as f64);
        infer_us.push(out.infer_time.as_secs_f64() * 1e6 / out.n_windows.max(1) as f64);
        for (i, m) in EVAL_SCORES.iter().enumerate() {
            scores[i].push(out.metric(*m));
        }
        match &first_metrics {
            None => first_metrics = Some(out.metrics.clone()),
            Some(first) => {
                if *first != out.metrics {
                    return Err(format!(
                        "{}: accuracy drifted across iterations — the evaluation \
                         is seeded, so this is a determinism bug, not noise",
                        cell.id
                    ));
                }
            }
        }
    }

    let mut rows = vec![
        measurement(suite, cell, "wall", "ns", &wall_ns),
        measurement(suite, cell, "infer", "us/window", &infer_us),
    ];
    for (i, m) in EVAL_SCORES.iter().enumerate() {
        rows.push(measurement(suite, cell, m.label(), "", &scores[i]));
        // Accuracy also flows through the manifest's `metrics` section,
        // the gate's deterministic tight-tolerance channel.
        if let Some(&value) = scores[i].first() {
            tfb_obs::report_metric(&cell.dataset, &cell.method, cell.horizon, m.label(), value);
        }
    }
    Ok(rows)
}

/// `min over reps of (elapsed(K calls) / K)` in ns — one sample.
fn time_ns(reps: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..calls {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / calls as f64);
    }
    best
}

/// One xorshift64 step: the engines' only source of pseudo-randomness.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Maps a xorshift draw to `[0, 1)`.
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic pseudo-random data (xorshift), optionally with exact
/// zeros mixed in for the zero-skip kernels.
fn data(n: usize, seed: u64, zeros: bool) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            let x = xorshift(&mut state);
            if zeros && x.is_multiple_of(7) {
                0.0
            } else {
                unit_f64(x) * 4.0 - 2.0
            }
        })
        .collect()
}

/// Left operands a zero-laden GEMM cell cycles through.
const ZERO_POOL: usize = 64;

fn run_math(suite: &Suite, cell: &Cell) -> Result<Vec<MeasurementRow>, String> {
    let n = cell.n;
    let depth = cell.depth;
    let run: Box<dyn Fn() -> f64> = match cell.workload.as_str() {
        "dot" => {
            let x = data(n, n as u64 + 1, true);
            let y = data(n, n as u64 + 2, false);
            Box::new(move || kernel::dot_acc(0.0, black_box(&x), black_box(&y)))
        }
        "dot_skip" => {
            let x = data(n, n as u64 + 1, true);
            let y = data(n, n as u64 + 2, false);
            Box::new(move || kernel::dot_skip(black_box(&x), black_box(&y)))
        }
        "axpy" => {
            let x = data(n, n as u64 + 3, false);
            let out = std::cell::RefCell::new(data(n, n as u64 + 4, false));
            Box::new(move || {
                let mut out = out.borrow_mut();
                kernel::axpy(1.0001, black_box(&x), black_box(&mut out));
                out[0]
            })
        }
        "gemm" | "gemm_tn" => {
            let (rows, tn) = (cell.rows, cell.workload == "gemm_tn");
            if cell.zeros > 100 {
                return Err(format!("{}: zeros is a percent (0-100)", cell.id));
            }
            // A zero-laden cell cycles through `ZERO_POOL` left operands:
            // one fixed zero pattern would be learned by the branch
            // predictor and time a skip no real caller gets.
            let pool = if cell.zeros > 0 { ZERO_POOL } else { 1 };
            let lhs: Vec<Vec<f64>> = (0..pool as u64)
                .map(|p| {
                    let mut lhs = data(rows * depth, (depth * 31 + n) as u64 + 97 * p, false);
                    let mut state = (p + 1).wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
                    for v in &mut lhs {
                        if (xorshift(&mut state) % 100) < cell.zeros as u64 {
                            *v = 0.0;
                        }
                    }
                    lhs
                })
                .collect();
            let rhs = data(depth * n, (depth * 37 + n) as u64, false);
            let out = std::cell::RefCell::new(data(rows * n, n as u64 + 9, false));
            let next = std::cell::Cell::new(0);
            Box::new(move || {
                let i = next.get();
                next.set((i + 1) % pool);
                let mut out = out.borrow_mut();
                let (lhs, rhs) = (black_box(&lhs[i]), black_box(&rhs));
                if tn {
                    kernel::gemm_tn(lhs, depth, rhs, n, black_box(&mut out));
                } else {
                    kernel::gemm(lhs, depth, rhs, n, black_box(&mut out));
                }
                out[0]
            })
        }
        "gemm_tn_segments" => {
            // A weight gradient leaving the tape: `CHUNK` samples of
            // `depth` rows each, one `rows × n` sum per sample added into
            // one shared output, as for a parameter's store gradient.
            let (m, seg) = (cell.rows, depth);
            let samples = tfb_nn::train::CHUNK;
            let lhs = data(samples * seg * m, (seg * 31 + n) as u64, true);
            let rhs = data(samples * seg * n, (seg * 37 + n) as u64, false);
            let segments: Vec<_> = (0..samples).map(|s| s * seg..(s + 1) * seg).collect();
            let out = std::cell::RefCell::new(data(m * n, n as u64 + 9, false));
            Box::new(move || {
                let mut out = out.borrow_mut();
                let (lhs, rhs) = (black_box(&lhs), black_box(&rhs));
                kernel::gemm_tn_segments(lhs, m, rhs, n, &segments, black_box(&mut out), 0);
                out[0]
            })
        }
        other => {
            return Err(format!(
                "{}: unknown math workload {other:?} \
                 (dot|dot_skip|axpy|gemm|gemm_tn|gemm_tn_segments)",
                cell.id
            ))
        }
    };

    // Calls per timing sample: enough to sit well above timer resolution,
    // sized from a quick scalar estimate against a fixed 200 µs budget.
    let est = kernel::with_path(KernelPath::Scalar, || {
        time_ns(2, 64, || {
            let _ = run();
        })
    });
    let calls = ((200_000.0 / est.max(1.0)) as usize).clamp(8, 100_000);
    let best = kernel::best_unrolled();
    let mut scalar_ns = Vec::with_capacity(cell.iters);
    let mut fast_ns = Vec::with_capacity(cell.iters);
    let mut speedup = Vec::with_capacity(cell.iters);
    for _ in 0..cell.iters {
        let s = kernel::with_path(KernelPath::Scalar, || {
            time_ns(3, calls, || {
                let _ = black_box(run());
            })
        });
        let f = kernel::with_path(best, || {
            time_ns(3, calls, || {
                let _ = black_box(run());
            })
        });
        scalar_ns.push(s);
        fast_ns.push(f);
        speedup.push(s / f.max(1e-9));
    }
    // The time rows are per call: record the calls each sample made, so
    // the gate's noise floor sees what a sample timed.
    let per_call = |quantity, samples: &[f64]| MeasurementRow {
        calls: calls as u64,
        ..measurement(suite, cell, quantity, "ns", samples)
    };
    Ok(vec![
        per_call("scalar", &scalar_ns),
        per_call("unrolled", &fast_ns),
        measurement(suite, cell, "speedup", "x", &speedup),
    ])
}

// ---------------------------------------------------------------------
// Serve engine: closed-loop load legs against freshly started servers.
// ---------------------------------------------------------------------

const SERVE_LOOKBACK: usize = 24;
const SERVE_HORIZON: usize = 8;

/// Trains one LR artifact on the TINY ILI profile at the given horizon.
/// Every fleet member shares `SERVE_LOOKBACK`, so a single request body
/// is valid against all of them; the horizon is what varies per model.
fn train_serve_artifact(horizon: usize) -> Result<tfb_artifact::ModelArtifact, String> {
    use tfb_data::{ChronoSplit, Normalization, Normalizer};
    let profile = tfb_datagen::profile_by_name("ILI").ok_or("serve engine: no ILI profile")?;
    let series = profile.generate(tfb_datagen::Scale::TINY);
    let split = ChronoSplit::split(&series, profile.split).map_err(|e| e.to_string())?;
    let norm = Normalizer::fit(&split.train, Normalization::ZScore);
    let normed = norm.apply(&series).map_err(|e| e.to_string())?;
    let train = normed.slice_rows(0..split.val_start);
    tfb_artifact::fit(
        "LR",
        &train,
        SERVE_LOOKBACK,
        horizon,
        norm,
        "tfb-bench-harness".to_string(),
        None,
    )
    .map_err(|e| format!("serve engine: fit failed: {e}"))
}

fn train_serve_model() -> Result<tfb_artifact::ServableModel, String> {
    tfb_artifact::ServableModel::from_artifact(train_serve_artifact(SERVE_HORIZON)?)
        .map_err(|e| format!("serve engine: artifact not servable: {e}"))
}

/// A server on an ephemeral port with the cell's shard count.
fn server_config(cell: &Cell) -> ServerConfig {
    ServerConfig {
        coalescer: CoalescerConfig {
            shards: cell.shards,
            ..CoalescerConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// A per-process, per-cell throwaway directory under the system temp dir.
fn scratch_dir(tag: &str, cell: &Cell) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "tfb_{tag}_{}_{}",
        std::process::id(),
        cell.name.replace(['/', '\\'], "_")
    ))
}

/// A keep-alive `POST` request carrying `body`.
fn post_request(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// One request/reply round trip on a kept-alive connection; returns the
/// status code.
fn round_trip(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: &str,
    line: &mut String,
    body: &mut Vec<u8>,
) -> Result<u16, String> {
    writer
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    // Read one reply: status line, headers, body.
    line.clear();
    reader.read_line(line).map_err(|e| format!("read: {e}"))?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {line:?}"))?;
    let mut content_length = 0usize;
    loop {
        line.clear();
        reader.read_line(line).map_err(|e| format!("read: {e}"))?;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((k, v)) = trimmed.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().unwrap_or(0);
            }
        }
    }
    body.clear();
    body.resize(content_length, 0);
    reader
        .read_exact(body)
        .map_err(|e| format!("read body: {e}"))?;
    Ok(status)
}

fn connect(addr: SocketAddr) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let writer = stream.try_clone().map_err(|e| e.to_string())?;
    Ok((writer, BufReader::new(stream)))
}

/// Cumulative zipfian distribution over `n` ranks (`P(i) ∝ 1/(i+1)^α`)
/// — the classic skewed model-popularity assumption: a couple of hot
/// models take most traffic, a long tail stays cold.
fn zipf_cdf(n: usize, alpha: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(alpha)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// What one closed-loop leg saw from the client side.
struct Load {
    /// Per-request latencies in µs, ascending.
    latencies_us: Vec<f64>,
    elapsed_s: f64,
}

impl Load {
    fn throughput(&self) -> f64 {
        self.latencies_us.len() as f64 / self.elapsed_s.max(1e-9)
    }
}

/// One closed-loop client on a keep-alive connection: sends its next
/// request the moment the previous reply lands, drawing it from `cdf`
/// (empty: always the first) with a seeded xorshift, so routed fleet
/// traffic is reproducible. Returns latencies in µs.
fn client(
    addr: SocketAddr,
    requests: &[String],
    cdf: &[f64],
    seed: u64,
    stop: &AtomicBool,
) -> Result<Vec<f64>, String> {
    let (mut writer, mut reader) = connect(addr)?;
    let mut latencies = Vec::new();
    let mut line = String::new();
    let mut body = Vec::new();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    while !stop.load(Ordering::Relaxed) {
        let u = unit_f64(xorshift(&mut state));
        let idx = cdf.partition_point(|&c| c < u).min(requests.len() - 1);
        let t0 = Instant::now();
        let status = round_trip(
            &mut writer,
            &mut reader,
            &requests[idx],
            &mut line,
            &mut body,
        )?;
        latencies.push(t0.elapsed().as_secs_f64() * 1e6);
        if status != 200 && status != 429 {
            return Err(format!("unexpected status {status} under closed-loop load"));
        }
    }
    Ok(latencies)
}

/// The closed-loop driver every load leg shares: `cell.clients` clients
/// (client `c` seeded `seed + c`) against `addr` for `cell.duration_ms`.
fn closed_loop(
    cell: &Cell,
    addr: SocketAddr,
    requests: &[String],
    cdf: &[f64],
    seed: u64,
) -> Result<Load, String> {
    let stop = AtomicBool::new(false);
    let mut latencies_us = Vec::new();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cell.clients.max(1))
            .map(|c| {
                let stop = &stop;
                scope.spawn(move || client(addr, requests, cdf, seed + c as u64, stop))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(cell.duration_ms.max(50)));
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            latencies_us.extend(w.join().map_err(|_| "client thread panicked")??);
        }
        Ok::<(), String>(())
    })
    .map_err(|e| format!("{}: {e}", cell.id))?;
    let elapsed_s = t0.elapsed().as_secs_f64();
    latencies_us.sort_by(f64::total_cmp);
    Ok(Load {
        latencies_us,
        elapsed_s,
    })
}

/// The `{"window": [...]}` body every serve cell posts; `observed` adds
/// the `"series"`/`"t"` pair that parks the served forecast in the
/// observe buffer.
fn forecast_body(dim: usize, observed: Option<(&str, u64)>) -> String {
    let window = (0..SERVE_LOOKBACK * dim)
        .map(|i| JsonValue::Number((i as f64) * 0.13 - 2.0))
        .collect();
    let mut fields = vec![("window".to_string(), JsonValue::Array(window))];
    if let Some((series, t)) = observed {
        fields.push(("series".to_string(), JsonValue::String(series.to_string())));
        fields.push(("t".to_string(), JsonValue::Number(t as f64)));
    }
    JsonValue::Object(fields).compact()
}

/// Throughput and latency samples across a cell's iterations.
#[derive(Default)]
struct LoadSamples {
    throughput: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    requests: Vec<f64>,
}

impl LoadSamples {
    fn push(&mut self, load: &Load) {
        self.throughput.push(load.throughput());
        self.p50_us.push(percentile(&load.latencies_us, 50.0));
        self.p99_us.push(percentile(&load.latencies_us, 99.0));
        self.requests.push(load.latencies_us.len() as f64);
    }

    fn rows(&self, suite: &Suite, cell: &Cell) -> Vec<MeasurementRow> {
        vec![
            measurement(suite, cell, "throughput", "req/s", &self.throughput),
            measurement(suite, cell, "latency_p50", "us", &self.p50_us),
            measurement(suite, cell, "latency_p99", "us", &self.p99_us),
            measurement(suite, cell, "requests", "count", &self.requests),
        ]
    }
}

fn run_serve(suite: &Suite, cell: &Cell) -> Result<Vec<MeasurementRow>, String> {
    // The overhead and quality legs ride the serve engine under
    // dedicated workloads; every other workload value is the plain load
    // leg.
    match cell.workload.as_str() {
        "obs_overhead" => return run_serve_obs_overhead(suite, cell),
        "quality_overhead" => return run_serve_quality_overhead(suite, cell),
        "quality_delay" => return run_serve_quality_delay(suite, cell),
        _ => {}
    }
    if cell.models > 1 {
        return run_serve_fleet(suite, cell);
    }
    let mut samples = LoadSamples::default();
    for _ in 0..cell.iters {
        samples.push(&load_leg(cell)?);
    }
    Ok(samples.rows(suite, cell))
}

/// One plain load leg: a freshly trained model behind a fresh server,
/// closed-loop `POST /forecast` traffic, then shutdown.
fn load_leg(cell: &Cell) -> Result<Load, String> {
    let model = train_serve_model()?;
    let request = post_request("/forecast", &forecast_body(model.dim(), None));
    let handle =
        serve(model, server_config(cell)).map_err(|e| format!("{}: serve failed: {e}", cell.id))?;
    let load = closed_loop(cell, handle.addr(), &[request], &[], 1);
    let _ = handle.shutdown();
    load
}

/// The multi-model leg: publish `cell.models` LR artifacts into a
/// throwaway registry, serve the whole fleet with `resident_cap`
/// resident models, and drive zipfian (α = 1.0) routed traffic from
/// `cell.clients` closed-loop clients. Alongside throughput/latency
/// this reports the fleet-specific quantities: resident-cache hit rate,
/// cold-load p99, and eviction count.
fn run_serve_fleet(suite: &Suite, cell: &Cell) -> Result<Vec<MeasurementRow>, String> {
    use std::sync::Arc;
    use tfb_registry::fleet::{Fleet, FleetConfig};
    use tfb_registry::Registry;

    let models = cell.models;
    let dir = scratch_dir("fleet", cell);
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Registry::open(&dir).map_err(|e| format!("{}: registry: {e}", cell.id))?;
    let mut dim = 0;
    for i in 0..models {
        // Same lookback everywhere (one request body fits the whole
        // fleet); the horizon is what distinguishes the models.
        let artifact = train_serve_artifact(4 + (i % 12))?;
        let bytes = artifact.to_bytes();
        if i == 0 {
            dim = tfb_artifact::ServableModel::from_artifact(artifact)
                .map_err(|e| format!("{}: artifact not servable: {e}", cell.id))?
                .dim();
        }
        registry
            .publish_bytes(&format!("m{i:02}"), "prod", &bytes)
            .map_err(|e| format!("{}: publish m{i:02}: {e}", cell.id))?;
    }
    let cap = if cell.resident_cap == 0 {
        models
    } else {
        cell.resident_cap
    };
    let cdf = zipf_cdf(models, 1.0);
    let body = forecast_body(dim, None);
    let requests_by_model: Vec<String> = (0..models)
        .map(|i| post_request(&format!("/v1/forecast/m{i:02}"), &body))
        .collect();

    let mut load = LoadSamples::default();
    let mut hit_rate = Vec::with_capacity(cell.iters);
    let mut cold_p99_us = Vec::with_capacity(cell.iters);
    let mut evictions = Vec::with_capacity(cell.iters);
    for iter in 0..cell.iters {
        // A fresh fleet per iteration: every leg starts cold, so the
        // hit-rate and cold-load numbers measure the same regime.
        let registry = Registry::open(&dir).map_err(|e| format!("{}: registry: {e}", cell.id))?;
        let fleet = Arc::new(
            Fleet::open(registry, FleetConfig { resident_cap: cap })
                .map_err(|e| format!("{}: fleet: {e}", cell.id))?,
        );
        let handle = serve_fleet(Arc::clone(&fleet), server_config(cell))
            .map_err(|e| format!("{}: serve failed: {e}", cell.id))?;
        let seed = (iter * 131) as u64 + 1;
        let leg = closed_loop(cell, handle.addr(), &requests_by_model, &cdf, seed);
        let _ = handle.shutdown();
        load.push(&leg?);
        let stats = fleet.stats();
        hit_rate.push(stats.hit_rate());
        evictions.push(stats.evictions as f64);
        let mut cold = stats.cold_load_us.clone();
        cold.sort_by(f64::total_cmp);
        cold_p99_us.push(if cold.is_empty() {
            0.0
        } else {
            percentile(&cold, 99.0)
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    let models_f = vec![models as f64; cell.iters];
    let mut rows = load.rows(suite, cell);
    rows.extend([
        measurement(suite, cell, "hit_rate", "", &hit_rate),
        measurement(suite, cell, "cold_load_p99", "us", &cold_p99_us),
        measurement(suite, cell, "evictions", "count", &evictions),
        measurement(suite, cell, "models", "count", &models_f),
    ]);
    Ok(rows)
}

/// The samples of an interleaved A/B run, one vector per leg.
struct AbSamples {
    /// Throughput in req/s.
    rps: Vec<Vec<f64>>,
    /// Legs after the first: throughput lost against leg 0, in percent.
    loss_pct: Vec<Vec<f64>>,
}

/// Interleaved A/B over server configurations ("legs"): every iteration
/// runs each leg once, in order, so machine-load drift hits all of them
/// alike. `run_leg(i)` runs leg `i` and returns its throughput (req/s).
fn interleaved_ab(
    cell: &Cell,
    legs: usize,
    mut run_leg: impl FnMut(usize) -> Result<f64, String>,
) -> Result<AbSamples, String> {
    let mut rps = vec![Vec::with_capacity(cell.iters); legs];
    let mut loss_pct = vec![Vec::with_capacity(cell.iters); legs - 1];
    for _ in 0..cell.iters {
        let round = (0..legs)
            .map(&mut run_leg)
            .collect::<Result<Vec<f64>, String>>()?;
        for (i, &r) in round.iter().enumerate() {
            rps[i].push(r);
            if i > 0 {
                loss_pct[i - 1].push((round[0] - r) / round[0].max(1e-9) * 100.0);
            }
        }
    }
    Ok(AbSamples { rps, loss_pct })
}

/// The sampling profiler's rate on the `profiled` leg: a prime, so the
/// samples do not fall into lockstep with periodic work.
const OBS_PROFILE_HZ: u32 = 97;

/// `workload = "obs_overhead"`: the flight recorder's tax on the
/// serving hot path. Three plain load legs per iteration — recorder
/// disarmed (every probe is a relaxed load), armed (event lines copied
/// into the per-thread rings), and armed with the sampling profiler
/// walking span stacks — with `overhead_*` the throughput each armed
/// leg lost against the disarmed one. Postmortem dumps go to a
/// throwaway directory; the profiler is stopped and the recorder's
/// armed state restored afterwards.
fn run_serve_obs_overhead(suite: &Suite, cell: &Cell) -> Result<Vec<MeasurementRow>, String> {
    use tfb_obs::flight;

    let scratch = scratch_dir("obs_overhead", cell);
    let was_armed = flight::armed();
    flight::configure(flight::FlightConfig {
        history_root: Some(scratch.clone()),
        context: vec![("cell".to_string(), cell.id.clone())],
        ..flight::FlightConfig::default()
    });
    let ab = interleaved_ab(cell, 3, |leg| {
        flight::set_armed(leg > 0);
        if leg == 2 {
            flight::profiler::start(OBS_PROFILE_HZ);
        }
        let load = load_leg(cell);
        flight::profiler::stop();
        load.map(|l| l.throughput())
    });
    flight::set_armed(was_armed);
    let _ = std::fs::remove_dir_all(&scratch);
    let ab = ab?;
    Ok(vec![
        measurement(suite, cell, "throughput_disarmed", "req/s", &ab.rps[0]),
        measurement(suite, cell, "throughput_armed", "req/s", &ab.rps[1]),
        measurement(suite, cell, "throughput_profiled", "req/s", &ab.rps[2]),
        measurement(suite, cell, "overhead_armed", "%", &ab.loss_pct[0]),
        measurement(suite, cell, "overhead_profiled", "%", &ab.loss_pct[1]),
    ])
}

// ---------------------------------------------------------------------
// Quality legs (`workload = "quality_overhead" | "quality_delay"`):
// what arming the forecast/actual scoring loop costs on the serving hot
// path, and how quickly the drift detectors react to a broken model.
// ---------------------------------------------------------------------

/// POSTs one JSON body on a kept-alive connection; returns the reply
/// body, erroring on any non-200 status.
fn post_json(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    path: &str,
    json: &str,
) -> Result<String, String> {
    let mut line = String::new();
    let mut body = Vec::new();
    let status = round_trip(
        writer,
        reader,
        &post_request(path, json),
        &mut line,
        &mut body,
    )?;
    if status != 200 {
        return Err(format!(
            "{path}: status {status}: {}",
            String::from_utf8_lossy(&body)
        ));
    }
    String::from_utf8(body).map_err(|e| format!("{path}: non-UTF-8 reply: {e}"))
}

/// The `"forecast"` array of a forecast reply.
fn forecast_values(reply: &str) -> Result<Vec<f64>, String> {
    let parsed = JsonValue::parse(reply).map_err(|e| format!("forecast reply: {e}"))?;
    parsed
        .get("forecast")
        .and_then(|v| v.as_array())
        .map(|items| items.iter().filter_map(|v| v.as_f64()).collect())
        .ok_or_else(|| "forecast reply lacks a \"forecast\" array".to_string())
}

/// One full quality join: posts a forecast for `(series, t)`, reports
/// actuals equal to the served values scaled by `scale` (so the scored
/// sMAPE is a known constant, `100·2|s−1|/(s+1)` for s ≥ 0), and
/// returns the observe reply plus the observe round-trip time in µs.
fn scored_join(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    model: &str,
    series: &str,
    t: u64,
    scale: f64,
    dim: usize,
) -> Result<(String, f64), String> {
    let body = forecast_body(dim, Some((series, t)));
    let reply = post_json(writer, reader, "/forecast", &body)?;
    let forecast = forecast_values(&reply)?;
    let actual = JsonValue::Object(vec![
        ("name".to_string(), JsonValue::String(model.to_string())),
        ("series".to_string(), JsonValue::String(series.to_string())),
        ("t".to_string(), JsonValue::Number(t as f64)),
        (
            "actual".to_string(),
            JsonValue::Array(
                forecast
                    .iter()
                    .map(|&v| JsonValue::Number(v * scale))
                    .collect(),
            ),
        ),
    ])
    .compact();
    let t0 = Instant::now();
    let reply = post_json(writer, reader, "/v1/observe", &actual)?;
    Ok((reply, t0.elapsed().as_secs_f64() * 1e6))
}

/// One armed-or-disarmed overhead leg: closed-loop forecast traffic
/// where every request carries a series id, so the armed side pays the
/// real hot-path cost (parking each served forecast in the observe
/// buffer at its eviction cap). Returns `(req/s, median µs per scored
/// observe join)` — the join cost is only measured on the armed side.
fn quality_overhead_leg(cell: &Cell, enabled: bool) -> Result<(f64, Option<f64>), String> {
    const SCORE_JOINS: usize = 64;
    // Fresh rolling windows per leg: the join-cost joins from a prior
    // leg must not leak into this one's drift state.
    tfb_obs::quality::configure(tfb_obs::quality::QualityConfig::default());
    let model = train_serve_model()?;
    let method = model.method().to_string();
    let dim = model.dim();
    let request = post_request("/forecast", &forecast_body(dim, Some(("q0", 0))));
    let config = ServerConfig {
        observe: ObserveConfig {
            enabled,
            ..ObserveConfig::default()
        },
        ..server_config(cell)
    };
    let handle = serve(model, config).map_err(|e| format!("{}: serve failed: {e}", cell.id))?;
    let addr = handle.addr();
    let result = closed_loop(cell, addr, &[request], &[], 1).and_then(|load| {
        if !enabled {
            return Ok((load.throughput(), None));
        }
        let (mut writer, mut reader) = connect(addr)?;
        let mut times = Vec::with_capacity(SCORE_JOINS);
        for t in 0..SCORE_JOINS {
            let t = 1_000 + t as u64;
            let (reply, us) =
                scored_join(&mut writer, &mut reader, &method, "score", t, 1.03, dim)?;
            if !reply.contains("\"status\":\"scored\"") {
                return Err(format!("{}: join not scored: {reply}", cell.id));
            }
            times.push(us);
        }
        times.sort_by(f64::total_cmp);
        Ok((load.throughput(), Some(times[times.len() / 2])))
    });
    let _ = handle.shutdown();
    result
}

/// `workload = "quality_overhead"`: the same closed-loop forecast load
/// with the observe buffer off vs on, interleaved per iteration.
/// `overhead` is the armed throughput loss in percent — the quantity
/// the quality loop promises stays small — and `score` the cost of one
/// full observe join.
fn run_serve_quality_overhead(suite: &Suite, cell: &Cell) -> Result<Vec<MeasurementRow>, String> {
    let mut score_us = Vec::with_capacity(cell.iters);
    let ab = interleaved_ab(cell, 2, |leg| {
        let (rps, score) = quality_overhead_leg(cell, leg == 1)?;
        score_us.extend(score);
        Ok(rps)
    })?;
    Ok(vec![
        measurement(suite, cell, "throughput_armed", "req/s", &ab.rps[1]),
        measurement(suite, cell, "throughput_disarmed", "req/s", &ab.rps[0]),
        measurement(suite, cell, "overhead", "%", &ab.loss_pct[0]),
        measurement(suite, cell, "score", "us/join", &score_us),
    ])
}

/// The `"smape"` field of an observe reply.
fn reply_smape(reply: &str) -> f64 {
    JsonValue::parse(reply)
        .ok()
        .and_then(|v| v.get("smape").and_then(|s| s.as_f64()))
        .unwrap_or(f64::NAN)
}

/// `workload = "quality_delay"`: a deterministic clean-then-broken
/// actuals replay through `/v1/observe` under the default Page–Hinkley
/// config (the mean-shift test is parked at unreachable thresholds: the
/// replayed actual stream is periodic, not stationary, which is the
/// mean-shift detector's blind spot, not the quantity under test).
/// Clean joins score a constant ≈3% sMAPE; from the drift point on,
/// actuals run 25% hot (≈22% sMAPE). `detection_delay` is the number of
/// drifted joins until the detector flags the reply — pure arithmetic
/// on a fixed stream, so it is identical across iterations and a
/// regression in it is a detector change, not noise.
fn run_serve_quality_delay(suite: &Suite, cell: &Cell) -> Result<Vec<MeasurementRow>, String> {
    if !tfb_obs::enabled() {
        return Err(format!(
            "{}: the detection-delay leg reads the drift flag wired through the \
             tfb-obs quality registry, which needs the recorder armed — run it \
             under `tfb bench run` (obs feature on, TFB_OBS unset)",
            cell.id
        ));
    }
    const CLEAN: usize = 32;
    const MAX_DRIFT: usize = 256;
    let mut delays = Vec::with_capacity(cell.iters);
    let mut clean_smape = Vec::with_capacity(cell.iters);
    let mut drift_smape = Vec::with_capacity(cell.iters);
    for _ in 0..cell.iters {
        // Known detector config, reset per iteration (trips latch).
        tfb_obs::quality::configure(tfb_obs::quality::QualityConfig {
            mean_shift: tfb_obs::quality::MeanShiftConfig {
                z_threshold: 1e18,
                var_ratio: 1e18,
                ..tfb_obs::quality::MeanShiftConfig::default()
            },
            ..tfb_obs::quality::QualityConfig::default()
        });
        let model = train_serve_model()?;
        let method = model.method().to_string();
        let dim = model.dim();
        let handle = serve(model, server_config(cell))
            .map_err(|e| format!("{}: serve failed: {e}", cell.id))?;
        let addr = handle.addr();
        let (mut writer, mut reader) = connect(addr)?;
        let mut last_clean = f64::NAN;
        for t in 0..CLEAN {
            let (reply, _) =
                scored_join(&mut writer, &mut reader, &method, "d0", t as u64, 1.03, dim)?;
            if reply.contains("\"drift\":true") {
                return Err(format!(
                    "{}: detector tripped on the clean phase at join {t}: {reply}",
                    cell.id
                ));
            }
            last_clean = reply_smape(&reply);
        }
        let mut delay = None;
        let mut first_drift = f64::NAN;
        for k in 1..=MAX_DRIFT {
            let t = (CLEAN + k - 1) as u64;
            let (reply, _) = scored_join(&mut writer, &mut reader, &method, "d0", t, 1.25, dim)?;
            if k == 1 {
                first_drift = reply_smape(&reply);
            }
            if reply.contains("\"drift\":true") {
                delay = Some(k as f64);
                break;
            }
        }
        let _ = handle.shutdown();
        let d = delay.ok_or_else(|| {
            format!(
                "{}: drift never tripped within {MAX_DRIFT} drifted joins",
                cell.id
            )
        })?;
        delays.push(d);
        clean_smape.push(last_clean);
        drift_smape.push(first_drift);
    }
    Ok(vec![
        measurement(suite, cell, "detection_delay", "joins", &delays),
        measurement(suite, cell, "clean_smape", "", &clean_smape),
        measurement(suite, cell, "drift_smape", "", &drift_smape),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::parse_suite;
    use std::path::Path;

    fn suite_from(toml: &str) -> Suite {
        parse_suite(&crate::toml::parse(toml).unwrap(), Path::new("t.toml")).unwrap()
    }

    #[test]
    fn eval_cell_produces_timing_and_score_rows() {
        let suite = suite_from(
            r#"
name = "eval/unit"
engine = "eval"
[[entry]]
name = "Naive-h12"
dataset = "ILI"
method = "Naive"
horizon = 12
max_len = 400
max_windows = 3
iters = 2
"#,
        );
        let rows = run_cell(&suite, &suite.cells[0]).expect("eval runs");
        let quantities: Vec<&str> = rows.iter().map(|r| r.quantity.as_str()).collect();
        assert!(quantities.contains(&"wall"));
        assert!(quantities.contains(&"infer"));
        assert!(quantities.contains(&"mase"));
        assert!(quantities.contains(&"msmape"));
        let mase = rows.iter().find(|r| r.quantity == "mase").unwrap();
        assert!(mase.min.is_finite());
        assert_eq!(mase.min, mase.median, "deterministic across iters");
        assert_eq!(mase.unit, "", "scores carry no unit");
        let wall = rows.iter().find(|r| r.quantity == "wall").unwrap();
        assert_eq!(wall.iters, 2);
        assert!(wall.min > 0.0);
        assert_eq!(wall.name, "eval/unit/Naive-h12");
    }

    #[test]
    fn math_cell_times_both_paths() {
        let suite = suite_from(
            r#"
name = "math/unit"
engine = "math"
[[entry]]
name = "dot-64"
workload = "dot"
n = 64
iters = 2
"#,
        );
        let rows = run_cell(&suite, &suite.cells[0]).expect("math runs");
        let scalar = rows.iter().find(|r| r.quantity == "scalar").unwrap();
        let unrolled = rows.iter().find(|r| r.quantity == "unrolled").unwrap();
        assert!(scalar.min > 0.0 && unrolled.min > 0.0);
        assert_eq!(scalar.unit, "ns");
        let speedup = rows.iter().find(|r| r.quantity == "speedup").unwrap();
        assert_eq!(speedup.unit, "x", "ratios are never time-gated");
    }

    #[test]
    fn eval_cell_honours_stride_normalization_and_multistep() {
        // IMS with a larger stride and raw (no-op) normalization — the
        // ablation-suite combination — runs and stays deterministic.
        let suite = suite_from(
            r#"
name = "eval/unit"
engine = "eval"
[[entry]]
name = "lr-ims"
dataset = "ILI"
method = "LR"
horizon = 6
lookback = 12
stride = 4
normalization = "None"
multistep = "ims"
max_len = 400
max_windows = 3
iters = 2
"#,
        );
        let rows = run_cell(&suite, &suite.cells[0]).expect("ims cell runs");
        let mae = rows.iter().find(|r| r.quantity == "mae").unwrap();
        assert!(mae.min.is_finite());
        // IMS is LR-only; other methods must fail loudly, not silently
        // fall back to DMS.
        let suite = suite_from(
            "name = \"eval/unit\"\nengine = \"eval\"\n[[entry]]\nname = \"x\"\ndataset = \"ILI\"\nmethod = \"Naive\"\nmultistep = \"ims\"",
        );
        let err = run_cell(&suite, &suite.cells[0]).unwrap_err();
        assert!(err.contains("ims"), "{err}");
        // So must a typo'd normalization.
        let suite = suite_from(
            "name = \"eval/unit\"\nengine = \"eval\"\n[[entry]]\nname = \"x\"\ndataset = \"ILI\"\nmethod = \"LR\"\nnormalization = \"zscore\"",
        );
        let err = run_cell(&suite, &suite.cells[0]).unwrap_err();
        assert!(err.contains("normalization"), "{err}");
    }

    #[test]
    fn serve_quality_cells_emit_overhead_and_delay_rows() {
        let suite = suite_from(
            r#"
name = "serve/quality"
engine = "serve"
[[entry]]
name = "overhead"
workload = "quality_overhead"
clients = 2
duration_ms = 60
iters = 1
[[entry]]
name = "detect"
workload = "quality_delay"
iters = 1
"#,
        );
        let rows = run_cell(&suite, &suite.cells[0]).expect("overhead leg runs");
        let by = |q: &str| {
            rows.iter()
                .find(|r| r.quantity == q)
                .unwrap_or_else(|| panic!("{q}"))
        };
        assert!(by("throughput_armed").min > 0.0);
        assert!(by("throughput_disarmed").min > 0.0);
        assert_eq!(by("overhead").unit, "%");
        assert_eq!(by("overhead").name, "serve/quality/overhead");
        // The delay leg needs the recorder armed (the drift flag flows
        // through the quality registry), so it is obs-gated.
        #[cfg(feature = "obs")]
        {
            tfb_obs::start_run(tfb_obs::RunOptions::default()).expect("arm recorder");
            assert!(by("score").min > 0.0, "armed leg measures join cost");
            let rows = run_cell(&suite, &suite.cells[1]).expect("delay leg runs");
            let delay = rows
                .iter()
                .find(|r| r.quantity == "detection_delay")
                .unwrap();
            assert_eq!(delay.unit, "joins");
            assert!(delay.min >= 1.0, "a drifted join must precede the trip");
            assert_eq!(delay.min, delay.median, "deterministic replay");
            let clean = rows.iter().find(|r| r.quantity == "clean_smape").unwrap();
            let drift = rows.iter().find(|r| r.quantity == "drift_smape").unwrap();
            assert!((clean.min - 2.956).abs() < 0.1, "clean sMAPE {}", clean.min);
            assert!((drift.min - 22.22).abs() < 0.3, "drift sMAPE {}", drift.min);
        }
    }

    #[test]
    fn serve_obs_overhead_cell_emits_five_rows_and_restores_the_recorder() {
        let suite = suite_from(
            r#"
name = "serve/unit"
engine = "serve"
[[entry]]
name = "obs"
workload = "obs_overhead"
clients = 2
duration_ms = 60
iters = 1
"#,
        );
        let armed_before = tfb_obs::flight::armed();
        let rows = run_cell(&suite, &suite.cells[0]).expect("overhead legs run");
        let quantities: Vec<&str> = rows.iter().map(|r| r.quantity.as_str()).collect();
        assert_eq!(
            quantities,
            [
                "throughput_disarmed",
                "throughput_armed",
                "throughput_profiled",
                "overhead_armed",
                "overhead_profiled"
            ]
        );
        for r in &rows[..3] {
            assert_eq!(r.unit, "req/s");
            assert!(r.min > 0.0, "{} served nothing", r.quantity);
        }
        for r in &rows[3..] {
            assert_eq!(r.unit, "%");
            assert!(
                r.min.is_finite() && r.min < 100.0,
                "{}: {}",
                r.quantity,
                r.min
            );
        }
        assert_eq!(tfb_obs::flight::armed(), armed_before, "armed state leaked");
        assert!(
            !tfb_obs::flight::profiler::active(),
            "profiler left running"
        );
    }

    #[test]
    fn unknown_cells_error_with_the_cell_id() {
        let suite = suite_from(
            "name = \"eval/unit\"\nengine = \"eval\"\n[[entry]]\nname = \"x\"\ndataset = \"NoSuch\"\nmethod = \"LR\"",
        );
        let err = run_cell(&suite, &suite.cells[0]).unwrap_err();
        assert!(err.contains("eval/unit/x"), "{err}");
        let suite = suite_from(
            "name = \"math/unit\"\nengine = \"math\"\n[[entry]]\nname = \"x\"\nworkload = \"quantum\"",
        );
        assert!(run_cell(&suite, &suite.cells[0]).is_err());
    }
}
