//! Integration tests over real TCP: end-to-end bit-identity of served
//! forecasts, health/metrics endpoints, structured 4xx handling,
//! deterministic 429 shedding, and graceful shutdown.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use tfb_artifact::{fit, ServableModel};
use tfb_data::{ChronoSplit, Normalization, Normalizer};
use tfb_datagen::profiles::{profile_by_name, Scale};
use tfb_json::JsonValue;
use tfb_math::matrix::Matrix;
use tfb_serve::{
    serve, serve_with, BatchPredictor, CoalescerConfig, ModelInfo, ServerConfig, ServerHandle,
};

fn lr_model(lookback: usize, horizon: usize) -> (ServableModel, ServableModel) {
    let profile = profile_by_name("ILI").expect("profile");
    let series = profile.generate(Scale::TINY);
    let split = ChronoSplit::split(&series, profile.split).expect("split");
    let norm = Normalizer::fit(&split.train, Normalization::ZScore);
    let normed = norm.apply(&series).expect("normalize");
    let train = normed.slice_rows(0..split.val_start);
    let artifact = fit("LR", &train, lookback, horizon, norm, String::new(), None).expect("fit");
    (
        ServableModel::from_artifact(artifact.clone()).expect("servable"),
        ServableModel::from_artifact(artifact).expect("servable"),
    )
}

struct HttpReply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl HttpReply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> HttpReply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    read_reply(&mut BufReader::new(stream))
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> HttpReply {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            let (k, v) = (k.trim().to_string(), v.trim().to_string());
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.parse().expect("content-length");
            }
            headers.push((k, v));
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    HttpReply {
        status,
        headers,
        body: String::from_utf8(body).expect("utf-8 body"),
    }
}

fn window_json(window: &[f64]) -> String {
    let doc = JsonValue::Object(vec![(
        "window".to_string(),
        JsonValue::Array(window.iter().map(|&v| JsonValue::Number(v)).collect()),
    )]);
    doc.compact()
}

#[test]
fn served_forecast_is_bit_identical_to_offline_predict() {
    let (served, reference) = lr_model(16, 8);
    let dim = reference.dim();
    let handle = serve(served, ServerConfig::default()).expect("serve");
    let addr = handle.addr();

    let window: Vec<f64> = (0..16 * dim).map(|i| (i as f64) * 0.37 - 3.0).collect();
    let reply = request(addr, "POST", "/forecast", &window_json(&window));
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    let parsed = JsonValue::parse(&reply.body).expect("response JSON");
    assert_eq!(parsed.get("method").and_then(|v| v.as_str()), Some("LR"));
    let got: Vec<f64> = parsed
        .get("forecast")
        .and_then(|v| v.as_array())
        .expect("forecast array")
        .iter()
        .map(|v| v.as_f64().expect("number"))
        .collect();
    let expected = reference.forecast(&window).expect("offline forecast");
    assert_eq!(got.len(), expected.len());
    let same = got
        .iter()
        .zip(&expected)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same, "served forecast differs bitwise from offline predict");
    handle.shutdown();
}

#[test]
fn healthz_and_metrics_respond() {
    let (served, _) = lr_model(16, 4);
    let handle = serve(served, ServerConfig::default()).expect("serve");
    let addr = handle.addr();

    let health = request(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    let parsed = JsonValue::parse(&health.body).expect("healthz JSON");
    assert_eq!(parsed.get("status").and_then(|v| v.as_str()), Some("ok"));
    assert_eq!(parsed.get("method").and_then(|v| v.as_str()), Some("LR"));
    assert_eq!(parsed.get("lookback").and_then(|v| v.as_f64()), Some(16.0));

    // `/metrics` is OpenMetrics text: correct content-type, validator
    // clean, `# EOF`-terminated — also with obs recording disarmed,
    // where the exposition is empty but still well formed.
    let metrics = request(addr, "GET", "/metrics", "");
    assert_eq!(metrics.status, 200);
    assert!(
        metrics
            .header("content-type")
            .is_some_and(|v| v.contains("openmetrics-text")),
        "missing OpenMetrics content-type: {:?}",
        metrics.headers
    );
    assert!(metrics.body.ends_with("# EOF\n"), "{}", metrics.body);
    tfb_obs::openmetrics::validate(&metrics.body).expect("valid OpenMetrics");

    // `/metrics.json` keeps the raw JSON snapshot.
    let metrics_json = request(addr, "GET", "/metrics.json", "");
    assert_eq!(metrics_json.status, 200);
    let parsed = JsonValue::parse(&metrics_json.body).expect("metrics JSON");
    assert!(parsed.get("counters").is_some());
    assert!(parsed.get("histograms").is_some());
    handle.shutdown();
}

#[test]
fn malformed_requests_get_structured_errors() {
    let (served, _) = lr_model(16, 4);
    let dim = {
        let (_, r) = lr_model(16, 4);
        r.dim()
    };
    let handle = serve(served, ServerConfig::default()).expect("serve");
    let addr = handle.addr();

    let bad_json = request(addr, "POST", "/forecast", "this is not json");
    assert_eq!(bad_json.status, 400);
    assert!(bad_json.body.contains("error"), "{}", bad_json.body);

    let missing = request(addr, "POST", "/forecast", "{\"not_window\": []}");
    assert_eq!(missing.status, 400);

    let short = request(addr, "POST", "/forecast", &window_json(&[1.0; 3]));
    assert_eq!(short.status, 400);
    assert!(short.body.contains("expects"), "{}", short.body);
    let _ = dim;

    let wrong_method = request(addr, "GET", "/forecast", "");
    assert_eq!(wrong_method.status, 405);

    let unknown = request(addr, "GET", "/nope", "");
    assert_eq!(unknown.status, 404);
    handle.shutdown();
}

/// A predictor slow enough that a small queue visibly fills.
struct SlowPredictor;

impl BatchPredictor for SlowPredictor {
    fn input_len(&self) -> usize {
        2
    }

    fn output_len(&self) -> usize {
        1
    }

    fn predict_batch(&self, windows: &Matrix) -> Result<Matrix, String> {
        std::thread::sleep(Duration::from_millis(40));
        let mut out = Matrix::zeros(windows.rows(), 1);
        for r in 0..windows.rows() {
            out.data_mut()[r] = windows.row(r)[0];
        }
        Ok(out)
    }
}

fn slow_server(queue_cap: usize) -> ServerHandle {
    serve_with(
        Arc::new(SlowPredictor),
        ModelInfo {
            method: "Slow".to_string(),
            lookback: 2,
            horizon: 1,
            dim: 1,
        },
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            coalescer: CoalescerConfig {
                shards: 1,
                max_batch: 1,
                queue_cap,
            },
            ..ServerConfig::default()
        },
    )
    .expect("serve_with")
}

#[test]
fn overload_sheds_with_429_and_retry_after() {
    let handle = slow_server(1);
    let addr = handle.addr();
    let replies: Vec<HttpReply> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..12)
            .map(|i| {
                scope.spawn(move || {
                    request(addr, "POST", "/forecast", &window_json(&[i as f64, 0.0]))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let ok = replies.iter().filter(|r| r.status == 200).count();
    let shed: Vec<&HttpReply> = replies.iter().filter(|r| r.status == 429).collect();
    assert!(ok >= 1, "no request succeeded under overload");
    assert!(!shed.is_empty(), "overload never produced a 429");
    for r in &shed {
        assert!(
            r.header("retry-after").is_some(),
            "429 without a Retry-After header"
        );
        assert!(r.body.contains("error"));
    }
    assert_eq!(
        replies.len(),
        ok + shed.len() + replies.iter().filter(|r| r.status == 503).count(),
        "unexpected status in {:?}",
        replies.iter().map(|r| r.status).collect::<Vec<_>>()
    );
    // The server is still healthy after shedding.
    let health = request(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    handle.shutdown();
}

#[test]
fn deeply_nested_body_is_a_400_and_the_server_keeps_serving() {
    let (served, reference) = lr_model(16, 4);
    let dim = reference.dim();
    let handle = serve(served, ServerConfig::default()).expect("serve");
    let addr = handle.addr();
    // 1 MB of `[`: well under the body cap, and deep enough to overflow
    // the connection thread's stack in a parser without a depth limit.
    let nested = request(addr, "POST", "/v1/forecast/LR", &"[".repeat(1_000_000));
    assert_eq!(nested.status, 400, "{}", nested.body);
    assert!(nested.body.contains("nesting"), "{}", nested.body);
    let window: Vec<f64> = (0..16 * dim).map(|i| i as f64 * 0.1).collect();
    let next = request(addr, "POST", "/v1/forecast/LR", &window_json(&window));
    assert_eq!(next.status, 200, "{}", next.body);
    handle.shutdown();
}

#[test]
fn shutdown_endpoint_drains_gracefully() {
    let (served, _) = lr_model(16, 4);
    let handle = serve(served, ServerConfig::default()).expect("serve");
    let addr = handle.addr();

    let reply = request(addr, "POST", "/shutdown", "");
    assert_eq!(reply.status, 200);
    assert!(reply.body.contains("draining"), "{}", reply.body);
    assert!(handle.shutdown_requested());
    // Joins the accept loop and every connection, then drains the
    // coalescer — must not hang.
    handle.shutdown();
}

#[test]
fn keep_alive_serves_multiple_requests_per_connection() {
    let (served, reference) = lr_model(16, 4);
    let dim = reference.dim();
    let handle = serve(served, ServerConfig::default()).expect("serve");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for i in 0..3 {
        let window: Vec<f64> = (0..16 * dim).map(|j| (i * j) as f64 * 0.1).collect();
        let body = window_json(&window);
        let head = format!(
            "POST /forecast HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body.as_bytes()).unwrap();
        let reply = read_reply(&mut reader);
        assert_eq!(reply.status, 200, "request {i} on shared connection failed");
        assert_eq!(reply.header("connection"), Some("keep-alive"));
    }
    handle.shutdown();
}
