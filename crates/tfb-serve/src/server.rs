//! The threaded HTTP server: one non-blocking accept loop per shard
//! over dup'd handles of a shared listener, one handler thread per
//! connection (keep-alive), the sharded coalescer as the single
//! inference path, and graceful drain on shutdown.
//!
//! Sharding: each coalescer shard (a queue and its combiner role) gets
//! its own accept loop, and every connection a loop accepts is pinned
//! to that loop's shard — the request hot path touches no cross-shard
//! shared state (no global round-robin counter, no global queue lock).
//! The connection thread itself runs the batches: while its shard has
//! no combiner it predicts its own request (and whatever queued beside
//! it) in place, so a shard never has a backlog without a thread
//! working on it.
//!
//! Endpoints:
//!
//! * `POST /forecast` — body `{"window": [f64; lookback*dim]}`
//!   (time-major); answers `{"method", "horizon", "dim", "forecast"}`.
//!   Wrong shapes are 400, a full queue is `429` + `Retry-After`,
//!   draining is 503. An optional `"series"` id (plus `"t"`, the
//!   timestamp of the first forecast step) parks the served forecast in
//!   the [`ObserveHub`](crate::observe::ObserveHub) for a later
//!   quality join.
//! * `POST /v1/observe` — body `{"name", "series", "t", "actual":
//!   [f64]}`: joins late ground truth against the parked forecast with
//!   the same `(series, t, len)`, scores MAE/MSE/sMAPE with the
//!   offline metric kernels, and feeds [`tfb_obs::quality`] (rolling
//!   windows, drift detectors, quality SLO). Answers
//!   `{"status": "scored", ...}` with the join's metrics, or
//!   `{"status": "orphan"}` when nothing matched.
//! * `GET /healthz` — model geometry and `"status": "ok"`.
//! * `GET /metrics` — the live [`tfb_obs`] state as an OpenMetrics text
//!   exposition: per-phase request-latency histograms, queue-depth /
//!   batch-fill gauges (global and per shard), shed counters,
//!   SLO burn rates and slow-request exemplars. Valid
//!   (`# EOF`-terminated, empty) even when no run is recording.
//! * `GET /metrics.json` — the same snapshot as JSON (counters, gauges,
//!   latency/batch-size histograms), for scripts that predate the
//!   OpenMetrics endpoint.
//! * `POST /shutdown` — begins graceful drain (the admin hook tests and
//!   scripts use; SIGTERM/SIGINT do the same via
//!   [`install_signal_handlers`]).
//!
//! Every response echoes its request's trace id as `x-tfb-trace-id`
//! when a run is recording; per-phase wall time (parse, queue, collect,
//! infer, dispatch, write) is attributed via
//! [`tfb_obs::trace::RequestTrace`] and lands in the phase histograms,
//! the SLO tracker, and the run's event sink.
//!
//! Hot-path allocation discipline: each connection handler owns its
//! request, response and scratch buffers for the connection's whole
//! life, and the forecast response is serialized straight into the
//! reused body buffer — steady-state keep-alive traffic allocates only
//! the window vector handed to the coalescer (which must own it) and
//! whatever the JSON parser builds.
//!
//! Shutdown sequence: stop accepting; handler threads finish their
//! in-flight request and stop reading new ones; the coalescer predicts
//! whatever is still queued and answers it. Nothing accepted is
//! dropped; nothing new is admitted. The accept loops block in `accept`
//! while idle, so the drain wakes each one with a loopback connection
//! that it drops on seeing the flag.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use tfb_artifact::ServableModel;
use tfb_json::JsonValue;
use tfb_obs::trace::{Phase, RequestTrace, TraceStatus};
use tfb_registry::{Fleet, FleetError};

use crate::canary::{CanaryHub, CanaryStats};
use crate::coalescer::{BatchPredictor, Coalescer, CoalescerConfig, SubmitError};
use crate::http::{self, ReadOutcome, Request, Response};
use crate::observe::{ObserveConfig, ObserveHub};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Coalescer tuning (including the shard count).
    pub coalescer: CoalescerConfig,
    /// Percentage (0–100) of default-label traffic deterministically
    /// routed to a staged `@canary` model instead of production. The
    /// split is sticky per series (FNV-1a of the series id, falling
    /// back to the request body), so one series' quality window is
    /// scored against one model. `0` disables splitting; shadow
    /// mirroring then covers the canary instead.
    pub canary_pct: u8,
    /// Forecast/actual join buffer behind `POST /v1/observe`.
    pub observe: ObserveConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            coalescer: CoalescerConfig::default(),
            canary_pct: 0,
            observe: ObserveConfig::default(),
        }
    }
}

/// What `/healthz` and forecast responses report about the model.
#[derive(Debug, Clone)]
pub struct ModelInfo {
    /// Method id.
    pub method: String,
    /// Look-back window length.
    pub lookback: usize,
    /// Forecast horizon.
    pub horizon: usize,
    /// Channel count.
    pub dim: usize,
}

impl ModelInfo {
    /// The info a loaded artifact reports.
    pub fn of(model: &ServableModel) -> ModelInfo {
        ModelInfo {
            method: model.method().to_string(),
            lookback: model.lookback(),
            horizon: model.horizon(),
            dim: model.dim(),
        }
    }
}

/// What a drained server hands back: everything only known once the
/// last request is answered.
#[derive(Debug, Default)]
pub struct DrainReport {
    /// Per-model canary comparison stats from mirrored traffic (empty
    /// when no canary was staged or no registry is attached).
    pub canary: Vec<CanaryStats>,
    /// Mirrored requests dropped because the canary queue was full.
    pub canary_dropped: u64,
    /// The live quality windows at drain time — per-`(model, label)`
    /// rolling scores, drift trips, and the quality SLO (empty when no
    /// joins were scored or obs recording is off).
    pub quality: tfb_obs::quality::QualitySnapshot,
}

struct ServerCtx {
    /// Geometry of the default model, when one exists (healthz + the
    /// legacy `/forecast` response shape).
    info: Option<ModelInfo>,
    /// The model `/forecast` routes to; fleet-only servers with no
    /// unambiguous default answer 404 there instead.
    default: Option<Arc<dyn BatchPredictor>>,
    /// Fleet name of the default model (canary mirroring on `/forecast`).
    default_name: Option<String>,
    /// The routable fleet behind `/v1/forecast/{model}`.
    fleet: Option<Arc<Fleet>>,
    /// Mirror queue + worker, armed when a registry backs the fleet.
    canary: Option<CanaryHub>,
    /// Deterministic canary traffic split (0 = all default-label
    /// traffic stays on production).
    canary_pct: u8,
    /// Forecast/actual join buffer, `None` when observing is disabled.
    observe: Option<ObserveHub>,
    coalescer: Coalescer,
    shutdown: AtomicBool,
    /// Where a connection reaches the accept loops: the bound address,
    /// or loopback when bound to every interface.
    wake: SocketAddr,
}

impl ServerCtx {
    /// Flags the drain and wakes every accept loop blocked in `accept`
    /// with one connection per shard; a loop that wakes to the flag
    /// drops its connection and exits. Only the first call connects.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for _ in 0..self.coalescer.shards() {
            let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
        }
    }
}

/// The stand-in predictor when a fleet has no unambiguous default
/// model: `/forecast` 404s before ever submitting, so this only gives
/// the coalescer something to hold.
struct NoDefault;

impl BatchPredictor for NoDefault {
    fn input_len(&self) -> usize {
        0
    }

    fn output_len(&self) -> usize {
        0
    }

    fn predict_batch(
        &self,
        _windows: &tfb_math::matrix::Matrix,
    ) -> Result<tfb_math::matrix::Matrix, String> {
        Err("no default model".to_string())
    }
}

/// A running server. Dropping the handle without calling
/// [`shutdown`](ServerHandle::shutdown) also drains cleanly.
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<ServerCtx>,
    accepts: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many shards (accept loops + coalescer queues) the server runs.
    pub fn shards(&self) -> usize {
        self.ctx.coalescer.shards()
    }

    /// Flags the server to drain (idempotent; `POST /shutdown` and the
    /// signal path funnel here).
    pub fn request_shutdown(&self) {
        self.ctx.begin_shutdown();
    }

    /// Whether a drain has been requested from any path.
    pub fn shutdown_requested(&self) -> bool {
        self.ctx.shutdown.load(Ordering::SeqCst)
    }

    /// The fleet behind the server, when one is attached (always, for
    /// servers built via [`serve`] or [`serve_fleet`]).
    pub fn fleet(&self) -> Option<&Arc<Fleet>> {
        self.ctx.fleet.as_ref()
    }

    /// Requests a drain and blocks until every accept loop, every
    /// connection handler and the canary mirror have finished, then
    /// reports what only a drained server knows.
    pub fn shutdown(mut self) -> DrainReport {
        self.request_shutdown();
        for handle in self.accepts.drain(..) {
            let _ = handle.join();
        }
        let (canary, canary_dropped) = match &self.ctx.canary {
            Some(hub) => (hub.finish(), hub.dropped()),
            None => (Vec::new(), 0),
        };
        DrainReport {
            canary,
            canary_dropped,
            quality: tfb_obs::quality::snapshot(),
        }
    }

    /// Blocks until a drain is requested elsewhere (`POST /shutdown` or
    /// a signal observed via `poll`), then drains.
    pub fn run_until<F: FnMut() -> bool>(self, mut poll: F) -> DrainReport {
        while !self.shutdown_requested() && !poll() {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.shutdown()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.request_shutdown();
        for handle in self.accepts.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Binds, spawns the accept loops, and returns immediately. The single
/// model is materialized as a one-entry in-memory fleet addressable as
/// `/v1/forecast/<method>` (and as the `/forecast` default).
pub fn serve(model: ServableModel, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let name = model.method().to_string();
    serve_fleet(Arc::new(Fleet::single(&name, model)), config)
}

/// [`serve`] over any [`BatchPredictor`](crate::coalescer::BatchPredictor)
/// — the seam integration tests use to drive the HTTP surface with
/// controlled (e.g. slow) models. No fleet is attached: only the
/// legacy single-model endpoints exist.
pub fn serve_with(
    predictor: Arc<dyn crate::coalescer::BatchPredictor>,
    info: ModelInfo,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    serve_inner(predictor, Some(info), None, None, None, config)
}

/// [`serve`] over a whole [`Fleet`]: `/v1/forecast/{model}` routes per
/// request, `/forecast` serves the fleet's default model when there is
/// an unambiguous one, and canary mirroring is armed when a registry
/// backs the fleet.
pub fn serve_fleet(fleet: Arc<Fleet>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let default = fleet
        .default_ref()
        .and_then(|(name, label)| fleet.get(&name, &label).ok().map(|m| (name, m)));
    let (default_name, info, predictor): (
        Option<String>,
        Option<ModelInfo>,
        Arc<dyn BatchPredictor>,
    ) = match default {
        Some((name, m)) => (Some(name), Some(ModelInfo::of(&m)), m),
        None => (None, None, Arc::new(NoDefault)),
    };
    let canary = fleet.has_registry().then(CanaryHub::new);
    serve_inner(predictor, info, default_name, Some(fleet), canary, config)
}

fn serve_inner(
    predictor: Arc<dyn BatchPredictor>,
    info: Option<ModelInfo>,
    default_name: Option<String>,
    fleet: Option<Arc<Fleet>>,
    canary: Option<CanaryHub>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let mut wake = addr;
    if addr.ip().is_unspecified() {
        wake.set_ip(match addr {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    let has_default = info.is_some();
    let observe = config
        .observe
        .enabled
        .then(|| ObserveHub::new(&config.observe));
    let coalescer = Coalescer::start(Arc::clone(&predictor), config.coalescer);
    let shards = coalescer.shards();
    let ctx = Arc::new(ServerCtx {
        info,
        default: has_default.then_some(predictor),
        default_name,
        fleet,
        canary,
        canary_pct: config.canary_pct.min(100),
        observe,
        coalescer,
        shutdown: AtomicBool::new(false),
        wake,
    });
    // One accept loop per shard over dup'd handles of the same bound
    // socket: the kernel hands each connection to one of the loops
    // blocked in `accept`, connections spread across shards, and each
    // connection's requests feed the queue of the shard that accepted it.
    let accepts = (0..shards)
        .map(|shard| {
            let shard_listener = listener.try_clone()?;
            let accept_ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name(format!("tfb-serve-accept{shard}"))
                .spawn(move || accept_loop(shard_listener, accept_ctx, shard))
                .map_err(std::io::Error::other)
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    Ok(ServerHandle { addr, ctx, accepts })
}

fn accept_loop(listener: TcpListener, ctx: Arc<ServerCtx>, shard: usize) {
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        // The drain's wake-up connection, or a client's that raced it:
        // dropped unanswered, as closing the listener would.
        if ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let conn_ctx = Arc::clone(&ctx);
                match std::thread::Builder::new()
                    .name(format!("tfb-serve-conn-s{shard}"))
                    .spawn(move || handle_connection(stream, conn_ctx, shard))
                {
                    Ok(h) => handlers.push(h),
                    Err(_) => tfb_obs::counter!("serve/spawn_failures").add(1),
                }
            }
            // Out of descriptors, or a peer that reset before the
            // accept: back off briefly instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
        // Reap finished handlers so the vec stays bounded by live
        // connections, not by connection history.
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
}

fn handle_connection(stream: TcpStream, ctx: Arc<ServerCtx>, shard: usize) {
    // Registered for the sampling profiler; handler threads mostly sit
    // in `<idle>` (blocking reads), which is itself useful signal.
    let _profiled = tfb_obs::flight::profiler::register_thread(&format!("conn-s{shard}"));
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(http::read_timeout()));
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    // Per-connection buffers: parse target, response, line and header
    // scratch all keep their capacity across keep-alive requests.
    let mut req = Request::new();
    let mut resp = Response::new();
    let mut line = String::new();
    let mut head = String::new();
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match http::read_request_into(&mut reader, &mut req, &mut line) {
            ReadOutcome::Request => {
                // The trace clock starts once a full request is in hand:
                // socket idle time between keep-alive requests is not
                // request latency.
                let started = Instant::now();
                let mut trace = RequestTrace::begin();
                tfb_obs::counter!("serve/requests").add(1);
                route(&req, &ctx, shard, &mut trace, &mut resp);
                tfb_obs::histogram!("serve/request_us")
                    .record(started.elapsed().as_secs_f64() * 1e6);
                if resp.status >= 400 {
                    tfb_obs::counter!("serve/http_errors").add(1);
                }
                trace.set_status(match resp.status {
                    429 => TraceStatus::Shed,
                    s if s >= 400 => TraceStatus::Error,
                    _ => TraceStatus::Ok,
                });
                resp.trace_id = trace.id();
                // Draining? Answer the in-flight request, then close.
                let keep_alive = req.keep_alive && !ctx.shutdown.load(Ordering::SeqCst);
                let wrote = http::write_response(&mut writer, &resp, keep_alive, &mut head).is_ok();
                trace.mark(Phase::Write);
                trace.finish();
                if !wrote || !keep_alive {
                    return;
                }
            }
            ReadOutcome::Closed => return,
            ReadOutcome::IdleTimeout => {
                tfb_obs::counter!("serve/idle_timeouts").add(1);
                continue;
            }
            ReadOutcome::Malformed(msg) => {
                tfb_obs::counter!("serve/http_errors").add(1);
                let mut trace = RequestTrace::begin();
                trace.set_status(TraceStatus::Error);
                resp.set_error(400, &msg);
                resp.trace_id = trace.id();
                let _ = http::write_response(&mut writer, &resp, false, &mut head);
                trace.mark(Phase::Write);
                trace.finish();
                return;
            }
        }
    }
}

fn route(
    req: &Request,
    ctx: &ServerCtx,
    shard: usize,
    trace: &mut RequestTrace,
    resp: &mut Response,
) {
    const MODEL_ROUTE: &str = "/v1/forecast/";
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/forecast") => forecast(req, ctx, shard, trace, resp),
        ("GET", "/healthz") => healthz(ctx, resp),
        ("GET", "/metrics") => resp.set_openmetrics(&tfb_obs::openmetrics::render_live()),
        ("GET", "/metrics.json") => {
            resp.set_json(200);
            resp.body.push_str(&tfb_obs::metrics_snapshot().to_json());
        }
        ("POST", "/shutdown") => {
            ctx.begin_shutdown();
            resp.set_json(200);
            resp.body.push_str("{\"status\": \"draining\"}\n");
        }
        ("POST", "/v1/observe") => observe(req, ctx, resp),
        ("POST", path) if path.len() > MODEL_ROUTE.len() && path.starts_with(MODEL_ROUTE) => {
            forecast_model(req, ctx, shard, trace, resp, &path[MODEL_ROUTE.len()..])
        }
        (_, path) if path.starts_with(MODEL_ROUTE) => resp.set_error(405, "use POST"),
        (_, "/forecast") | (_, "/shutdown") | (_, "/v1/observe") => resp.set_error(405, "use POST"),
        (_, "/healthz") | (_, "/metrics") | (_, "/metrics.json") => resp.set_error(405, "use GET"),
        _ => resp.set_error(404, "unknown path"),
    }
}

fn healthz(ctx: &ServerCtx, resp: &mut Response) {
    use std::fmt::Write as _;
    let models = ctx
        .fleet
        .as_ref()
        .map(|f| f.names().len())
        .unwrap_or(usize::from(ctx.info.is_some()));
    resp.set_json(200);
    match &ctx.info {
        Some(m) => {
            resp.body.push_str("{\"status\": \"ok\", \"method\": ");
            http::json_escape(&mut resp.body, &m.method);
            let _ = writeln!(
                resp.body,
                ", \"lookback\": {}, \"horizon\": {}, \"dim\": {}, \"models\": {models}}}",
                m.lookback, m.horizon, m.dim
            );
        }
        None => {
            let _ = writeln!(resp.body, "{{\"status\": \"ok\", \"models\": {models}}}");
        }
    }
}

/// The parsed body of a forecast request: the window plus the optional
/// series identity that arms a later quality join.
struct ForecastBody {
    window: Vec<f64>,
    /// Client-chosen series id; `None` leaves the forecast unobserved.
    series: Option<String>,
    /// Timestamp of the first forecast step (join key with the series).
    t: u64,
}

/// Parses `{"window": [...], "series"?: "...", "t"?: n}`; the error
/// string is the 400 body.
fn parse_forecast_body(req: &Request) -> Result<ForecastBody, String> {
    let text = std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8".to_string())?;
    let parsed = JsonValue::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    let window_val = parsed
        .get("window")
        .ok_or_else(|| "missing \"window\" field".to_string())?;
    let items = window_val
        .as_array()
        .ok_or_else(|| "\"window\" must be an array of numbers".to_string())?;
    // The coalescer takes ownership of the window (it outlives this
    // stack frame inside the batch queue), so this vec is the one
    // intentional per-request allocation.
    let mut window = Vec::with_capacity(items.len());
    for v in items {
        match v.as_f64() {
            Some(x) => window.push(x),
            None => return Err("\"window\" must be an array of numbers".to_string()),
        }
    }
    let series = match parsed.get("series") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| "\"series\" must be a string".to_string())?
                .to_string(),
        ),
    };
    let t = parse_t(&parsed)?;
    Ok(ForecastBody { window, series, t })
}

/// The optional `"t"` field (absent = 0), shared by both endpoints so
/// forecast and observe agree on the join key.
fn parse_t(parsed: &JsonValue) -> Result<u64, String> {
    match parsed.get("t") {
        None => Ok(0),
        Some(v) => v
            .as_f64()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .map(|x| x as u64)
            .ok_or_else(|| "\"t\" must be a non-negative number".to_string()),
    }
}

/// How a request was routed: what the response reports, and where the
/// observe buffer files the served forecast.
struct RouteInfo<'a> {
    /// `name@label` for the response's `"model"` field (model-route and
    /// canary-split traffic; the plain default route omits it).
    routed: Option<&'a str>,
    /// Fleet name quality joins are keyed by.
    observe_name: &'a str,
    /// Label the request actually ran under.
    label: &'a str,
    /// Armed shadow mirror for this request.
    canary: Option<(String, Arc<ServableModel>)>,
}

/// The legacy single-model endpoint: routes to the fleet's default —
/// or, when a canary split is armed, deterministically to the staged
/// canary.
fn forecast(
    req: &Request,
    ctx: &ServerCtx,
    shard: usize,
    trace: &mut RequestTrace,
    resp: &mut Response,
) {
    let (Some(model), Some(info)) = (&ctx.default, &ctx.info) else {
        return resp.set_error(404, "no default model; use /v1/forecast/{model}");
    };
    let body = match parse_forecast_body(req) {
        Ok(b) => b,
        Err(msg) => return resp.set_error(400, &msg),
    };
    trace.mark(Phase::Parse);
    let name = ctx.default_name.as_deref();
    if let Some((split_name, candidate)) =
        canary_split(ctx, name, &req.body, body.series.as_deref())
    {
        tfb_obs::counter!("serve/route/canary").add(1);
        let cinfo = ModelInfo::of(&candidate);
        let routed = format!("{split_name}@{}", tfb_registry::CANARY_LABEL);
        return run_forecast(
            body,
            ctx,
            shard,
            trace,
            resp,
            candidate as Arc<dyn BatchPredictor>,
            &cinfo,
            RouteInfo {
                routed: Some(&routed),
                observe_name: &split_name,
                label: tfb_registry::CANARY_LABEL,
                canary: None,
            },
        );
    }
    if ctx.canary_pct > 0 {
        tfb_obs::counter!("serve/route/prod").add(1);
    }
    // Splitting real traffic replaces shadow mirroring: both at once
    // would score the canary twice on the same stream.
    let canary = if ctx.canary_pct == 0 {
        canary_for(ctx, name)
    } else {
        None
    };
    let observe_name = ctx
        .default_name
        .clone()
        .unwrap_or_else(|| info.method.clone());
    run_forecast(
        body,
        ctx,
        shard,
        trace,
        resp,
        Arc::clone(model),
        info,
        RouteInfo {
            routed: None,
            observe_name: &observe_name,
            label: tfb_registry::DEFAULT_LABEL,
            canary,
        },
    );
}

/// The per-request routing endpoint: `POST /v1/forecast/{name[@label]}`
/// resolves through the fleet's LRU (cold-loading via mmap on a miss).
fn forecast_model(
    req: &Request,
    ctx: &ServerCtx,
    shard: usize,
    trace: &mut RequestTrace,
    resp: &mut Response,
    model_ref: &str,
) {
    let Some(fleet) = &ctx.fleet else {
        return resp.set_error(404, "no model registry attached");
    };
    let (name, label) = tfb_registry::parse_ref(model_ref);
    let body = match parse_forecast_body(req) {
        Ok(b) => b,
        Err(msg) => return resp.set_error(400, &msg),
    };
    trace.mark(Phase::Parse);
    // Default-label traffic is subject to the canary split; explicitly
    // addressed labels are never re-routed.
    if label == tfb_registry::DEFAULT_LABEL {
        if let Some((split_name, candidate)) =
            canary_split(ctx, Some(name), &req.body, body.series.as_deref())
        {
            tfb_obs::counter!("serve/route/canary").add(1);
            fleet.request_counter(name).add(1);
            let cinfo = ModelInfo::of(&candidate);
            let routed = format!("{split_name}@{}", tfb_registry::CANARY_LABEL);
            return run_forecast(
                body,
                ctx,
                shard,
                trace,
                resp,
                candidate as Arc<dyn BatchPredictor>,
                &cinfo,
                RouteInfo {
                    routed: Some(&routed),
                    observe_name: name,
                    label: tfb_registry::CANARY_LABEL,
                    canary: None,
                },
            );
        }
        if ctx.canary_pct > 0 {
            tfb_obs::counter!("serve/route/prod").add(1);
        }
    }
    match fleet.get(name, label) {
        Ok(model) => {
            fleet.request_counter(name).add(1);
            let info = ModelInfo::of(&model);
            // Mirror production traffic only: explicitly addressing the
            // canary label must not mirror onto itself, and a live
            // split replaces the shadow mirror.
            let canary = if label == tfb_registry::DEFAULT_LABEL && ctx.canary_pct == 0 {
                canary_for(ctx, Some(name))
            } else {
                None
            };
            let routed = format!("{name}@{label}");
            run_forecast(
                body,
                ctx,
                shard,
                trace,
                resp,
                model as Arc<dyn BatchPredictor>,
                &info,
                RouteInfo {
                    routed: Some(&routed),
                    observe_name: name,
                    label,
                    canary,
                },
            );
        }
        Err(e @ FleetError::UnknownModel(_)) => resp.set_error(404, &e.to_string()),
        Err(e) => resp.set_error(500, &e.to_string()),
    }
}

/// The staged canary for `name`, when mirroring is armed and one exists.
fn canary_for(ctx: &ServerCtx, name: Option<&str>) -> Option<(String, Arc<ServableModel>)> {
    let name = name?;
    ctx.canary.as_ref()?;
    let fleet = ctx.fleet.as_ref()?;
    fleet.canary(name).map(|m| (name.to_string(), m))
}

/// The deterministic canary split: `Some` routes this default-label
/// request to the staged canary. Sticky per series — FNV-1a of the
/// series id (falling back to the raw body bytes) mod 100 against the
/// configured percentage, so one series always scores against one
/// model and the quality windows stay comparable.
fn canary_split(
    ctx: &ServerCtx,
    name: Option<&str>,
    body_bytes: &[u8],
    series: Option<&str>,
) -> Option<(String, Arc<ServableModel>)> {
    if ctx.canary_pct == 0 {
        return None;
    }
    let name = name?;
    let fleet = ctx.fleet.as_ref()?;
    let candidate = fleet.canary(name)?;
    let hashed = series.map(str::as_bytes).unwrap_or(body_bytes);
    let bucket = (tfb_artifact::format::fnv1a64(hashed) % 100) as u8;
    (bucket < ctx.canary_pct).then(|| (name.to_string(), candidate))
}

#[allow(clippy::too_many_arguments)] // the shared tail of every forecast route
fn run_forecast(
    body: ForecastBody,
    ctx: &ServerCtx,
    shard: usize,
    trace: &mut RequestTrace,
    resp: &mut Response,
    model: Arc<dyn BatchPredictor>,
    info: &ModelInfo,
    route: RouteInfo<'_>,
) {
    use std::fmt::Write as _;
    let ForecastBody { window, series, t } = body;
    // Clone the window only when a canary will actually mirror it.
    let mirror_window = route.canary.as_ref().map(|_| window.clone());
    let ticket = match ctx.coalescer.submit_model(shard, model, window) {
        Ok(t) => t,
        Err(SubmitError::QueueFull) => {
            resp.set_error(429, "request queue is full, retry shortly");
            resp.retry_after = Some(1);
            return;
        }
        Err(SubmitError::ShutDown) => return resp.set_error(503, "server is draining"),
        Err(e @ SubmitError::BadWindow { .. }) => return resp.set_error(400, &e.to_string()),
    };
    match ticket.recv() {
        Ok(Ok(out)) => {
            trace.absorb_batch(
                out.queue_ns,
                out.collect_ns,
                out.infer_ns,
                out.batch_id,
                out.batch_size as u64,
            );
            if let (Some((name, candidate)), Some(hub), Some(w)) =
                (route.canary, &ctx.canary, &mirror_window)
            {
                hub.mirror(&name, candidate, w, &out.forecast);
            }
            // Park the served forecast (the exact values on the wire)
            // for a later `/v1/observe` quality join.
            if let (Some(hub), Some(series)) = (&ctx.observe, series.as_deref()) {
                hub.record_forecast(
                    route.observe_name,
                    route.label,
                    series,
                    t,
                    out.forecast.clone(),
                );
            }
            // Serialized straight into the reused body buffer, in the
            // exact byte format `JsonValue::compact` would produce.
            resp.set_json(200);
            let b = &mut resp.body;
            b.push('{');
            if let Some(routed) = route.routed {
                b.push_str("\"model\":");
                http::json_escape(b, routed);
                b.push(',');
            }
            b.push_str("\"method\":");
            http::json_escape(b, &info.method);
            let _ = write!(
                b,
                ",\"horizon\":{},\"dim\":{},\"forecast\":[",
                info.horizon, info.dim
            );
            for (i, v) in out.forecast.iter().enumerate() {
                if i > 0 {
                    b.push(',');
                }
                tfb_json::write_number(b, *v);
            }
            b.push_str("]}\n");
        }
        Ok(Err(model_err)) => resp.set_error(500, &model_err),
        Err(mpsc::RecvError) => resp.set_error(500, "the model panicked on this request's batch"),
    }
}

/// `POST /v1/observe`: joins late ground truth against a parked
/// forecast, scores the pair with the offline metric kernels, and
/// feeds the rolling quality windows, drift detectors and quality SLO.
fn observe(req: &Request, ctx: &ServerCtx, resp: &mut Response) {
    use std::fmt::Write as _;
    use tfb_core::metrics::{compute, Metric, MetricContext};
    tfb_obs::counter!("serve/observe/requests").add(1);
    let Some(hub) = &ctx.observe else {
        return resp.set_error(404, "observe buffer disabled");
    };
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return resp.set_error(400, "body is not UTF-8");
    };
    let parsed = match JsonValue::parse(text) {
        Ok(v) => v,
        Err(e) => return resp.set_error(400, &format!("bad JSON: {e}")),
    };
    let Some(name) = parsed.get("name").and_then(|v| v.as_str()) else {
        return resp.set_error(400, "missing \"name\" field");
    };
    let Some(series) = parsed.get("series").and_then(|v| v.as_str()) else {
        return resp.set_error(400, "missing \"series\" field");
    };
    let t = match parse_t(&parsed) {
        Ok(t) => t,
        Err(msg) => return resp.set_error(400, &msg),
    };
    let Some(items) = parsed.get("actual").and_then(|v| v.as_array()) else {
        return resp.set_error(400, "missing \"actual\" field (array of numbers)");
    };
    let mut actual = Vec::with_capacity(items.len());
    for v in items {
        match v.as_f64() {
            Some(x) => actual.push(x),
            None => return resp.set_error(400, "\"actual\" must be an array of numbers"),
        }
    }
    let Some((label, forecast)) = hub.observe(name, series, t, actual.len()) else {
        tfb_obs::counter!("serve/observe/orphans").add(1);
        resp.set_json(200);
        resp.body.push_str("{\"status\":\"orphan\"}\n");
        return;
    };
    // Scored with the exact offline metric kernels over the exact
    // values that went out the wire, so the rolling windows converge
    // on what an offline re-evaluation of the same joins reports.
    let mctx = MetricContext::default();
    let mae = compute(Metric::Mae, &forecast, &actual, mctx);
    let mse = compute(Metric::Mse, &forecast, &actual, mctx);
    let smape = compute(Metric::Smape, &forecast, &actual, mctx);
    let outcome = tfb_obs::quality::observe_join(name, &label, series, &actual, mae, mse, smape);
    tfb_obs::counter!("serve/observe/joined").add(1);
    if smape.is_finite() {
        tfb_obs::histogram!("serve/quality/smape").record(smape);
    }
    resp.set_json(200);
    let b = &mut resp.body;
    b.push_str("{\"status\":\"scored\",\"model\":");
    http::json_escape(b, name);
    b.push_str(",\"label\":");
    http::json_escape(b, &label);
    b.push_str(",\"mae\":");
    tfb_json::write_number(b, mae);
    b.push_str(",\"mse\":");
    tfb_json::write_number(b, mse);
    b.push_str(",\"smape\":");
    tfb_json::write_number(b, smape);
    let _ = writeln!(b, ",\"drift\":{}}}", outcome.drift_tripped);
}

static SIGNALED: AtomicBool = AtomicBool::new(false);

/// Whether SIGINT/SIGTERM arrived since
/// [`install_signal_handlers`] ran.
pub fn signal_received() -> bool {
    SIGNALED.load(Ordering::SeqCst)
}

/// Installs SIGINT and SIGTERM handlers that flag
/// [`signal_received`] so the CLI can drain gracefully. No-op on
/// non-unix platforms (Ctrl-C then terminates the process directly).
#[cfg(unix)]
pub fn install_signal_handlers() {
    unsafe extern "C" fn on_signal(_sig: i32) {
        SIGNALED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

/// See the unix implementation.
#[cfg(not(unix))]
pub fn install_signal_handlers() {}
