//! The serving workload `serve-fleet`, under open-loop load in the style
//! of wrk2: eight LR artifacts with distinct horizons published to a
//! scratch registry and served by `serve_fleet` with the default
//! `ServerConfig` and resident cap 3. Each forecast picks its model by
//! Zipf (α = 1) and names a series from a population larger than the
//! observe buffer's series cap, and one forecast in four is followed by
//! a `/v1/observe` join whose actuals are the forecast scaled by a
//! constant.
//!
//! One process drives the load over at most `nproc` keep-alive
//! connections, one thread each. Arrivals are seeded Poisson; every
//! request is timed from its scheduled send time, so a stall counts
//! against the requests queued behind it. A run measures a `lo` rate, a
//! `hi` rate, a fixed rate ladder (`max_rps` is where the ladder's p90
//! crosses the latency limit) and closed-loop bursts of a fixed size
//! (`wall_s`). Every 200 forecast must be bit-identical to
//! `ServableModel::forecast_batch` on the same window, and every join
//! must score the sMAPE the offline metric gives the same pair.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tfb_artifact::{ModelArtifact, ServableModel};
use tfb_core::metrics::{compute, Metric, MetricContext};
use tfb_data::{ChronoSplit, MultiSeries, Normalization, Normalizer};
use tfb_json::JsonValue;
use tfb_math::matrix::Matrix;
use tfb_registry::fleet::{Fleet, FleetConfig};
use tfb_registry::Registry;
use tfb_serve::{ServerConfig, ServerHandle};

use crate::report::Outcome;
use crate::{alloc, median, pct, peak_rss_mib, Ctx};

/// Look-back of every served model.
pub const LOOKBACK: usize = 36;
const FLEET_HORIZONS: [usize; 8] = [4, 6, 8, 10, 12, 14, 16, 18];
const FLEET_CAP: usize = 3;
/// Series ids forecasts name: more than the observe buffer's default
/// 4096-series cap, so the buffer evicts.
const SERIES_POPULATION: usize = 6000;
/// One forecast in this many is followed by an observe join.
const OBSERVE_ONE_IN: u64 = 4;
/// Actuals sent to `/v1/observe` are the forecast times this constant.
const ACTUAL_SCALE: f64 = 1.1;
/// Distinct request windows drawn per run.
const WINDOW_POOL: usize = 256;
/// Connections (and generator threads), never more than `nproc`.
const CONNECTIONS: usize = 2;
/// Offered rate at which requests almost always arrive alone, req/s.
const LO_RPS: f64 = 500.0;
/// Offered rate near a third of what two connections sustain, req/s:
/// headroom for a slow spell of a shared machine.
const HI_RPS: f64 = 1500.0;
/// The fixed ladder `max_rps` climbs, req/s.
const LADDER_RPS: [f64; 18] = [
    2000.0, 3000.0, 3500.0, 3750.0, 4000.0, 4250.0, 4500.0, 4750.0, 5000.0, 5250.0, 5500.0, 5750.0,
    6000.0, 6250.0, 6500.0, 7000.0, 7500.0, 8000.0,
];
/// p90 latency limit that defines `max_rps`.
const LIMIT_P90_US: f64 = 2_000.0;
/// The generator is behind schedule when its own send delay (beyond
/// waiting for the previous reply) has a p90 above this. (Its p99 is
/// reported; on a shared machine single stalls of a few milliseconds
/// reach it without the generator falling behind.)
const LATE_LIMIT_US: f64 = 1000.0;
/// Attempts at an open-loop leg before the run is invalid.
const ATTEMPTS: usize = 3;
/// `lo` legs per run (one fewer `hi` legs run between them).
const LEGS: usize = 6;
/// Requests per closed-loop burst.
const BURST: usize = 2000;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// The profile every served model is trained on.
pub fn training_series() -> MultiSeries {
    tfb_datagen::profile_by_name("ILI")
        .expect("ILI profile")
        .generate(tfb_datagen::Scale {
            max_len: 600,
            max_dim: 2,
        })
}

/// Trains an LR artifact the way `tfb train` does and returns its bytes.
pub fn fit_lr(series: &MultiSeries, horizon: usize) -> Vec<u8> {
    let profile = tfb_datagen::profile_by_name("ILI").expect("ILI profile");
    let split = ChronoSplit::split(series, profile.split).expect("ILI splits");
    let norm = Normalizer::fit(&split.train, Normalization::ZScore);
    let normed = norm.apply(series).expect("normalize");
    let train = normed.slice_rows(0..split.val_start);
    tfb_artifact::fit(
        "LR",
        &train,
        LOOKBACK,
        horizon,
        norm,
        "perfbench".into(),
        None,
    )
    .expect("LR fits")
    .to_bytes()
}

/// Loads artifact bytes the way `tfb serve --model` does.
pub fn load(bytes: &[u8]) -> ServableModel {
    ServableModel::from_artifact(ModelArtifact::from_bytes(bytes).expect("artifact decodes"))
        .expect("artifact loads")
}

/// `n` raw request windows: seeded offsets into the series, each scaled
/// by a seeded factor, one window per row.
pub fn windows(series: &MultiSeries, seed: u64, n: usize) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let dim = series.dim();
    let mut m = Matrix::zeros(n, LOOKBACK * dim);
    for r in 0..n {
        let o = rng.gen_range(0..=series.len() - LOOKBACK);
        let scale = rng.gen_range(0.9..1.1);
        let src = &series.values()[o * dim..(o + LOOKBACK) * dim];
        for (dst, v) in m.data_mut()[r * LOOKBACK * dim..(r + 1) * LOOKBACK * dim]
            .iter_mut()
            .zip(src)
        {
            *dst = v * scale;
        }
    }
    m
}

/// A JSON array of numbers, written so it parses back to the same bits.
pub fn json_array(out: &mut String, xs: &[f64]) {
    out.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        tfb_json::write_number(out, *x);
    }
    out.push(']');
}

/// A complete HTTP/1.1 POST with a JSON body.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Reads one response: status and body.
fn read_response(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
) -> std::io::Result<(u16, Vec<u8>)> {
    line.clear();
    reader.read_line(line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut len = 0usize;
    loop {
        line.clear();
        if reader.read_line(line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let h = line.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                len = v.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0; len];
    reader.read_exact(&mut body)?;
    Ok((status, body))
}

/// A running server plus what its replies must be.
struct Served {
    handle: ServerHandle,
    /// Request path per model.
    routes: Vec<String>,
    /// Fleet name per model (observe joins name it).
    names: Vec<String>,
    /// Each model's forecast for every pool window.
    expected: Vec<Matrix>,
    registry: PathBuf,
}

impl Served {
    fn stop(self) {
        self.handle.shutdown();
        let _ = std::fs::remove_dir_all(self.registry);
    }
}

fn wait_ready(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if let Ok(stream) = TcpStream::connect(addr) {
            let mut w = stream.try_clone().expect("clone stream");
            let mut r = BufReader::new(stream);
            if w.write_all(b"GET /healthz HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
                .is_ok()
            {
                if let Ok((200, _)) = read_response(&mut r, &mut String::new()) {
                    return;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("server at {addr} never became ready");
}

/// Generates data, trains and publishes the artifacts, and serves them:
/// returns once the server's listener is bound.
fn start(ctx: &Ctx, rep: usize) -> (Served, Matrix, f64) {
    let t0 = Instant::now();
    let series = training_series();
    let pool = windows(&series, ctx.seed, WINDOW_POOL);
    let datagen_s = t0.elapsed().as_secs_f64();
    let dir = ctx.scratch.join(format!("registry-{rep}"));
    let registry = Registry::open(&dir).expect("open the scratch registry");
    let mut expected = Vec::new();
    let mut names = Vec::new();
    for (k, &h) in FLEET_HORIZONS.iter().enumerate() {
        let bytes = fit_lr(&series, h);
        let name = format!("m{k}");
        registry
            .publish_bytes(&name, "prod", &bytes)
            .expect("publish");
        expected.push(
            load(&bytes)
                .forecast_batch(&pool)
                .expect("forecast the pool"),
        );
        names.push(name);
    }
    let fleet = Fleet::open(
        registry,
        FleetConfig {
            resident_cap: FLEET_CAP,
        },
    )
    .expect("open the fleet");
    let handle = tfb_serve::serve_fleet(Arc::new(fleet), ServerConfig::default()).expect("bind");
    let served = Served {
        handle,
        routes: names.iter().map(|n| format!("/v1/forecast/{n}")).collect(),
        names,
        expected,
        registry: dir,
    };
    (served, pool, datagen_s)
}

/// One scheduled forecast.
struct Planned {
    due_ns: u64,
    window: usize,
    model: usize,
    series: usize,
    t: u64,
    observe: bool,
    request: Vec<u8>,
}

/// One answered forecast (and its join).
struct Done {
    window: usize,
    model: usize,
    status: u16,
    body: Vec<u8>,
    /// From the scheduled send time to the reply.
    latency_us: f64,
    /// From the actual send to the reply.
    service_us: f64,
    /// Send delay not explained by waiting for the previous reply.
    late_us: f64,
    join: Option<Join>,
}

struct Join {
    status: u16,
    body: Vec<u8>,
    forecast: Vec<f64>,
    actual: Vec<f64>,
    latency_us: f64,
}

/// What one leg of load produced.
struct Leg {
    done: Vec<Done>,
    wall: Duration,
    /// Length of the arrival schedule (0 for a closed-loop burst).
    span_s: f64,
}

impl Leg {
    fn latencies(&self) -> Vec<f64> {
        self.done.iter().map(|d| d.latency_us).collect()
    }

    /// Percentile `q` of the generator's own send delays.
    fn late(&self, q: f64) -> f64 {
        pct(&self.done.iter().map(|d| d.late_us).collect::<Vec<_>>(), q)
    }

    fn behind(&self) -> bool {
        self.late(90.0) > LATE_LIMIT_US
    }

    fn joins(&self) -> Vec<f64> {
        self.done
            .iter()
            .filter_map(|d| d.join.as_ref().map(|j| j.latency_us))
            .collect()
    }
}

/// Zipf (α = 1) choice among `n` models.
fn zipf(rng: &mut StdRng, n: usize) -> usize {
    let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
    let mut u = rng.gen_range(0.0..total);
    for k in 0..n {
        u -= 1.0 / (k + 1) as f64;
        if u < 0.0 {
            return k;
        }
    }
    n - 1
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(120) {
            std::thread::sleep(left - Duration::from_micros(80));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Joins one forecast reply: posts actuals = forecast × `ACTUAL_SCALE`.
fn join(
    w: &mut TcpStream,
    r: &mut BufReader<TcpStream>,
    line: &mut String,
    name: &str,
    p: &Planned,
    body: &[u8],
) -> Option<Join> {
    let forecast: Vec<f64> = JsonValue::parse(std::str::from_utf8(body).ok()?)
        .ok()?
        .get("forecast")?
        .as_array()?
        .iter()
        .map(|v| v.as_f64().unwrap_or(f64::NAN))
        .collect();
    let actual: Vec<f64> = forecast.iter().map(|v| v * ACTUAL_SCALE).collect();
    let mut obody = format!(
        "{{\"name\":\"{name}\",\"series\":\"s{}\",\"t\":{},\"actual\":",
        p.series, p.t
    );
    json_array(&mut obody, &actual);
    obody.push('}');
    let req = post("/v1/observe", &obody);
    let sent = Instant::now();
    w.write_all(&req).ok()?;
    let (status, body) = read_response(r, line).ok()?;
    Some(Join {
        status,
        body,
        forecast,
        actual,
        latency_us: sent.elapsed().as_secs_f64() * 1e6,
    })
}

/// Drives one connection through its schedule.
fn drive(addr: SocketAddr, names: &[String], plan: &[Planned], start: Instant) -> Vec<Done> {
    alloc::exclude_this_thread();
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut w = stream.try_clone().expect("clone stream");
    let mut r = BufReader::new(stream);
    let mut line = String::new();
    let mut prev_done = start;
    let mut out = Vec::with_capacity(plan.len());
    for p in plan {
        let due = start + Duration::from_nanos(p.due_ns);
        wait_until(due);
        let sent = Instant::now();
        let ready = due.max(prev_done);
        let late_us = sent.saturating_duration_since(ready).as_secs_f64() * 1e6;
        // A failed exchange reads as status 0, which `verify` counts.
        let (status, body) = w
            .write_all(&p.request)
            .and_then(|()| read_response(&mut r, &mut line))
            .unwrap_or_default();
        let replied = Instant::now();
        let joined = if p.observe && status == 200 {
            Some(
                join(&mut w, &mut r, &mut line, &names[p.model], p, &body).unwrap_or(Join {
                    status: 0,
                    body: Vec::new(),
                    forecast: Vec::new(),
                    actual: Vec::new(),
                    latency_us: 0.0,
                }),
            )
        } else {
            None
        };
        prev_done = Instant::now();
        out.push(Done {
            window: p.window,
            model: p.model,
            status,
            body,
            latency_us: replied.saturating_duration_since(due).as_secs_f64() * 1e6,
            service_us: replied.duration_since(sent).as_secs_f64() * 1e6,
            late_us,
            join: joined,
        });
    }
    out
}

/// The load generator's state across the legs of one run.
struct Load<'a> {
    served: &'a Served,
    pool: &'a Matrix,
    rng: StdRng,
    conns: usize,
    /// Last forecast timestamp handed out (unique per request).
    t: u64,
}

impl Load<'_> {
    /// The per-connection schedules of one leg: Poisson arrivals at
    /// `rate` over `span_s` seconds, or `count` back-to-back sends when
    /// `rate` is `None`. Arrivals go to the connections in turn, and
    /// every request is serialized before the leg starts, so the
    /// generator only writes bytes while it runs.
    fn plan(&mut self, rate: Option<f64>, span_s: f64, count: usize) -> Vec<Vec<Planned>> {
        let served = self.served;
        let mut plans: Vec<Vec<Planned>> = (0..self.conns).map(|_| Vec::new()).collect();
        let mut at = 0.0f64;
        for i in 0.. {
            if let Some(r) = rate {
                at += -(1.0 - self.rng.gen_range(0.0..1.0f64)).ln() / r;
                if at > span_s {
                    break;
                }
            } else if i == count {
                break;
            }
            let window = self.rng.gen_range(0..WINDOW_POOL);
            let model = zipf(&mut self.rng, served.routes.len());
            let series = self.rng.gen_range(0..SERIES_POPULATION);
            let observe = self.rng.gen_range(0..OBSERVE_ONE_IN) == 0;
            self.t += 1;
            let mut body = String::from("{\"window\":");
            json_array(&mut body, self.pool.row(window));
            body.push_str(&format!(",\"series\":\"s{series}\",\"t\":{}}}", self.t));
            plans[i % self.conns].push(Planned {
                due_ns: (at * 1e9) as u64,
                window,
                model,
                series,
                t: self.t,
                observe,
                request: post(&served.routes[model], &body),
            });
        }
        plans
    }

    /// Runs one leg and checks every reply in it.
    fn run(&mut self, rate: Option<f64>, span_s: f64, count: usize, out: &mut Outcome) -> Leg {
        let plans = self.plan(rate, span_s, count);
        let served = self.served;
        let addr = served.handle.addr();
        let start = Instant::now() + Duration::from_millis(2);
        let mut done = std::thread::scope(|scope| {
            let handles: Vec<_> = plans
                .iter()
                .map(|p| scope.spawn(move || drive(addr, &served.names, p, start)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("generator thread"))
                .collect::<Vec<_>>()
        });
        let wall = start.elapsed();
        verify(served, &mut done, out);
        Leg { done, wall, span_s }
    }

    fn closed(&mut self, count: usize, out: &mut Outcome) -> Leg {
        self.run(None, 0.0, count, out)
    }

    /// An open-loop leg, run again while the generator fell behind; the
    /// run is invalid if it falls behind `ATTEMPTS` times.
    fn on_schedule(&mut self, rate: f64, span_s: f64, out: &mut Outcome) -> Leg {
        let mut leg = self.run(Some(rate), span_s, 0, out);
        for _ in 1..ATTEMPTS {
            if !leg.behind() {
                return leg;
            }
            leg = self.run(Some(rate), span_s, 0, out);
        }
        if leg.behind() {
            out.invalid = Some(format!(
                "load generator fell behind at {rate} req/s (send delay p90 {:.0} us > {LATE_LIMIT_US} us)",
                leg.late(90.0)
            ));
        }
        leg
    }

    /// One ladder rung: achieved rate, p90, and whether it met the
    /// limit with the generator on schedule and every reply a 200.
    fn rung(&mut self, rate: f64, rung_s: f64, out: &mut Outcome) -> (f64, f64, bool) {
        let l = self.run(Some(rate), rung_s, 0, out);
        let p90 = pct(&l.latencies(), 90.0);
        let pass = p90 <= LIMIT_P90_US && !l.behind() && l.done.iter().all(|d| d.status == 200);
        (l.done.len() as f64 / l.span_s, p90, pass)
    }

    /// The highest offered rate whose p90 meets the limit, interpolated
    /// on p90 between the last rung that passes and the first that
    /// fails. A rung fails when it misses twice in a row, so a passing
    /// stall of the machine does not end the climb.
    fn ladder(&mut self, rung_s: f64, out: &mut Outcome) -> (f64, usize) {
        let mut last: Option<(f64, f64)> = None;
        for (i, rate) in LADDER_RPS.into_iter().enumerate() {
            let mut r = self.rung(rate, rung_s, out);
            if !r.2 {
                r = self.rung(rate, rung_s, out);
            }
            let (achieved, p90, pass) = r;
            if !pass {
                let max = match last {
                    Some((r0, p0)) => {
                        r0 + (LIMIT_P90_US - p0) / (p90 - p0).max(1.0) * (achieved - r0)
                    }
                    None => achieved * LIMIT_P90_US / p90,
                };
                return (max, i + 1);
            }
            last = Some((achieved, p90));
        }
        (last.expect("the ladder has rungs").0, LADDER_RPS.len())
    }
}

/// Counts every forecast and join, checks each against the offline
/// answer, and drops the reply bodies.
fn verify(served: &Served, done: &mut [Done], out: &mut Outcome) {
    for d in done {
        out.attempted += 1;
        let want = served.expected[d.model].row(d.window);
        let body = std::mem::take(&mut d.body);
        let got: Option<Vec<f64>> = std::str::from_utf8(&body)
            .ok()
            .and_then(|t| JsonValue::parse(t).ok())
            .and_then(|v| {
                v.get("forecast")?
                    .as_array()
                    .map(|a| a.iter().filter_map(JsonValue::as_f64).collect())
            });
        let ok = d.status == 200
            && got.is_some_and(|g| {
                g.len() == want.len() && g.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits())
            });
        if !ok {
            out.failed += 1;
        }
        if let Some(j) = &mut d.join {
            out.attempted += 1;
            let want = compute(
                Metric::Smape,
                &j.forecast,
                &j.actual,
                MetricContext::default(),
            );
            let body = std::mem::take(&mut j.body);
            let reply = std::str::from_utf8(&body)
                .ok()
                .and_then(|t| JsonValue::parse(t).ok());
            let ok = j.status == 200
                && reply.as_ref().is_some_and(|v| {
                    v.get("status").and_then(JsonValue::as_str) == Some("scored")
                        && v.get("smape")
                            .and_then(JsonValue::as_f64)
                            .is_some_and(|s| s.to_bits() == want.to_bits())
                });
            if !ok {
                out.failed += 1;
            }
        }
    }
}

/// The `serve-fleet` workload.
pub fn serve_fleet(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let conns = CONNECTIONS.min(ctx.nproc);
    assert!(
        conns <= ctx.nproc,
        "the load generator may use at most nproc threads and connections"
    );
    tfb_obs::start_run(tfb_obs::RunOptions::default()).expect("arm obs");
    let mut setups = Vec::new();
    let mut current: Option<(Served, Matrix, f64)> = None;
    for rep in 0..if ctx.trace { 1 } else { SETUP_REPS } {
        if let Some((old, _, _)) = current.take() {
            old.stop();
        }
        let t0 = Instant::now();
        let started = start(ctx, rep);
        setups.push(t0.elapsed().as_secs_f64());
        // Checked outside the timer: the first answer waits on the accept
        // loop's 5-ms poll, a coin flip that would dominate `setup_s`.
        wait_ready(started.0.handle.addr());
        current = Some(started);
    }
    let (served, pool, datagen_s) = current.expect("one set-up");
    let mut load = Load {
        served: &served,
        pool: &pool,
        rng: StdRng::seed_from_u64(ctx.seed ^ 0x5eed),
        conns,
        t: 0,
    };
    // Warm-up: every connection path, model and cold load once.
    load.closed(200, &mut out);
    let s = ctx.seconds;
    if ctx.trace {
        traced(ctx, &mut load, datagen_s, &mut out);
    } else {
        // Short `lo` and `hi` legs alternate, so a slow spell of a shared
        // machine lands in a few legs of each rather than all of one;
        // each percentile is the median over the legs.
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        for i in 0..LEGS {
            lo.push(load.on_schedule(LO_RPS, 0.3 * s / LEGS as f64, &mut out));
            if i + 1 < LEGS {
                hi.push(load.on_schedule(HI_RPS, 0.25 * s / (LEGS - 1) as f64, &mut out));
            }
        }
        // Read before the ladder, whose climb (and so its buffers) varies.
        let peak_rss = peak_rss_mib();
        let (max_rps, rungs) = load.ladder(0.025 * s, &mut out);
        let bursts: Vec<f64> = (0..5)
            .map(|_| load.closed(burst_size(ctx), &mut out).wall.as_secs_f64())
            .collect();
        out.set("setup_s", median(&setups));
        out.set("wall_s", median(&bursts));
        let per_leg = |legs: &[Leg], q: f64| {
            median(
                &legs
                    .iter()
                    .map(|l| pct(&l.latencies(), q))
                    .collect::<Vec<_>>(),
            )
        };
        out.set("lo_p50_us", per_leg(&lo, 50.0));
        out.set("lo_p90_us", per_leg(&lo, 90.0));
        out.set("hi_p50_us", per_leg(&hi, 50.0));
        out.set("hi_p90_us", per_leg(&hi, 90.0));
        out.note(
            "p99_us",
            format!("lo {:.1} hi {:.1}", per_leg(&lo, 99.0), per_leg(&hi, 99.0)),
        );
        out.set("max_rps", max_rps);
        out.set("peak_rss_mib", peak_rss);
        let count = |legs: &[Leg]| legs.iter().map(|l| l.done.len()).sum::<usize>();
        out.note(
            "samples",
            format!("lo {} hi {} rungs {rungs}", count(&lo), count(&hi)),
        );
        let late = |legs: &[Leg]| median(&legs.iter().map(|l| l.late(99.0)).collect::<Vec<_>>());
        out.note(
            "gen.late_p99_us",
            format!("lo {:.1} hi {:.1}", late(&lo), late(&hi)),
        );
        let joins: Vec<f64> = hi.iter().flat_map(Leg::joins).collect();
        out.note("observe_p50_us", format!("{:.1}", pct(&joins, 50.0)));
        out.note(
            "observe_p99_us",
            format!("{:.1} ({} joins)", pct(&joins, 99.0), joins.len()),
        );
    }
    served.stop();
    tfb_obs::finish_run(&[]);
    out
}

fn burst_size(ctx: &Ctx) -> usize {
    if ctx.tiny {
        200
    } else {
        BURST
    }
}

fn counter(s: &tfb_obs::MetricsSnapshot, name: &str) -> f64 {
    s.counters
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

fn phase(s: &tfb_obs::trace::TraceSnapshot, phase: &str) -> (f64, f64) {
    s.phases
        .iter()
        .find(|p| p.phase == phase)
        .map_or((0.0, 0.0), |p| (p.sum_s, p.count as f64))
}

/// Attribution for the serving workloads: the `hi` leg with the
/// allocator counting, bracketed by the program's own trace and metric
/// snapshots; then untraced and counted bursts for the overhead; then
/// the layer probes at the observed batch size.
fn traced(ctx: &Ctx, load: &mut Load, datagen_s: f64, out: &mut Outcome) {
    let (m0, p0, a0) = (
        tfb_obs::metrics_snapshot(),
        tfb_obs::trace::snapshot(),
        alloc::process_tally(),
    );
    alloc::set_counting(true);
    let hi = load.run(Some(HI_RPS), 0.3 * ctx.seconds, 0, out);
    alloc::set_counting(false);
    let (m1, p1, a1) = (
        tfb_obs::metrics_snapshot(),
        tfb_obs::trace::snapshot(),
        alloc::process_tally(),
    );
    let requests = hi.done.len() as f64 + hi.joins().len() as f64;
    let d = |name: &str| counter(&m1, name) - counter(&m0, name);
    let spent = |label: &str| {
        let ((s1, n1), (s0, n0)) = (phase(&p1, label), phase(&p0, label));
        (s1 - s0, n1 - n0)
    };
    let (server_s, _) = spent("total");
    let client_s: f64 = hi
        .done
        .iter()
        .map(|x| x.service_us + x.join.as_ref().map_or(0.0, |j| j.latency_us))
        .sum::<f64>()
        / 1e6;
    out.check(server_s <= client_s, || {
        format!("server-side time {server_s} s exceeds client-side {client_s} s")
    });
    for (name, label) in [
        ("server.parse_pct", "parse"),
        ("server.queue_pct", "queue"),
        ("server.collect_pct", "collect"),
        ("server.infer_pct", "infer"),
        ("server.dispatch_pct", "dispatch"),
        ("server.write_pct", "write"),
    ] {
        out.set(name, spent(label).0 / server_s * 100.0);
    }
    let (infer_s, infer_n) = spent("infer");
    out.set("infer.us_per_window", infer_s / infer_n.max(1.0) * 1e6);
    out.set("trace.wall_s", client_s);
    out.set("unattributed_s", client_s - server_s);
    let batch_mean = d("serve/batched_requests") / d("serve/batches").max(1.0);
    out.set("coalescer.batch_mean", batch_mean);
    let hwm = m1
        .gauges
        .iter()
        .find(|(k, _)| k == "serve/queue_hwm")
        .map_or(0.0, |(_, v)| *v);
    out.set("coalescer.queue_hwm", hwm);
    out.set("coalescer.steals", d("serve/steals"));
    out.set("coalescer.shed", d("serve/shed"));
    out.set("alloc.per_request", (a1.0 - a0.0) as f64 / requests);
    out.set("alloc.bytes_per_request", (a1.1 - a0.1) as f64 / requests);
    let stats = load.served.handle.fleet().expect("fleet server").stats();
    out.set("fleet.hit_rate", stats.hit_rate());
    out.set("fleet.evictions", stats.evictions as f64);
    let (orphans, joined) = (d("serve/observe/orphans"), d("serve/observe/joined"));
    out.set("observe.orphan_frac", orphans / (orphans + joined).max(1.0));
    out.set("observe.evicted", d("serve/observe/evicted"));
    out.set("datagen.s", datagen_s);

    let start = Instant::now();
    let (mut plain, mut counted) = (Vec::new(), Vec::new());
    while counted.is_empty() || start.elapsed().as_secs_f64() < 0.4 * ctx.seconds {
        plain.push(load.closed(burst_size(ctx), out).wall.as_secs_f64());
        alloc::set_counting(true);
        counted.push(load.closed(burst_size(ctx), out).wall.as_secs_f64());
        alloc::set_counting(false);
    }
    let (p, c) = (median(&plain), median(&counted));
    out.set("trace.overhead_pct", (c - p) / p * 100.0);
    crate::probes::run(ctx, out, batch_mean.round().max(1.0) as usize);
}
