//! Sharding guarantees: an N-shard server answers byte-for-byte what a
//! 1-shard server answers, and a slow batch on one shard never holds up
//! a request on another.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tfb_artifact::{fit, ServableModel};
use tfb_data::{ChronoSplit, Normalization, Normalizer};
use tfb_datagen::profiles::{profile_by_name, Scale};
use tfb_json::JsonValue;
use tfb_math::matrix::Matrix;
use tfb_serve::{serve, BatchPredictor, Coalescer, CoalescerConfig, ServerConfig, ServerHandle};

fn lr_server(shards: usize) -> (ServerHandle, usize) {
    let profile = profile_by_name("ILI").expect("profile");
    let series = profile.generate(Scale::TINY);
    let split = ChronoSplit::split(&series, profile.split).expect("split");
    let norm = Normalizer::fit(&split.train, Normalization::ZScore);
    let normed = norm.apply(&series).expect("normalize");
    let train = normed.slice_rows(0..split.val_start);
    let artifact = fit("LR", &train, 16, 8, norm, String::new(), None).expect("fit");
    let model = ServableModel::from_artifact(artifact).expect("servable");
    let dim = model.dim();
    let handle = serve(
        model,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            coalescer: CoalescerConfig {
                shards,
                ..CoalescerConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    (handle, dim)
}

/// One request over its own connection; returns the raw body bytes.
fn forecast_body(addr: std::net::SocketAddr, window: &[f64]) -> Vec<u8> {
    let doc = JsonValue::Object(vec![(
        "window".to_string(),
        JsonValue::Array(window.iter().map(|&v| JsonValue::Number(v)).collect()),
    )]);
    let body = doc.compact();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let head = format!(
        "POST /forecast HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    assert!(
        status_line.contains("200"),
        "forecast failed: {status_line}"
    );
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().expect("content-length");
            }
        }
    }
    let mut reply = vec![0u8; content_length];
    reader.read_exact(&mut reply).expect("body");
    reply
}

#[test]
fn n_shard_server_answers_byte_identical_to_one_shard() {
    let (single, dim) = lr_server(1);
    let (sharded, _) = lr_server(4);
    assert_eq!(single.shards(), 1);
    assert_eq!(sharded.shards(), 4);
    let windows: Vec<Vec<f64>> = (0..24)
        .map(|i| {
            (0..16 * dim)
                .map(|j| ((i * 31 + j * 7) % 100) as f64 * 0.13 - 5.0)
                .collect()
        })
        .collect();
    // Concurrent clients against the sharded server so requests really
    // spread across shards (each connection pins to the shard whose
    // accept loop won it); the single-shard answers are the reference.
    let sharded_addr = sharded.addr();
    let sharded_bodies: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = windows
            .iter()
            .map(|w| scope.spawn(move || forecast_body(sharded_addr, w)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (w, sharded_body) in windows.iter().zip(&sharded_bodies) {
        let single_body = forecast_body(single.addr(), w);
        assert_eq!(
            single_body, *sharded_body,
            "sharded response bytes differ from single-shard for window {w:?}"
        );
    }
    sharded.shutdown();
    single.shutdown();
}

/// Output row = `[first input, batch row count]`, after `delay`.
struct SlowEcho {
    batches: Mutex<Vec<usize>>,
    delay: Duration,
}

impl SlowEcho {
    fn new(delay: Duration) -> Arc<SlowEcho> {
        Arc::new(SlowEcho {
            batches: Mutex::new(Vec::new()),
            delay,
        })
    }
}

impl BatchPredictor for SlowEcho {
    fn input_len(&self) -> usize {
        2
    }

    fn output_len(&self) -> usize {
        2
    }

    fn predict_batch(&self, windows: &Matrix) -> Result<Matrix, String> {
        self.batches.lock().unwrap().push(windows.rows());
        std::thread::sleep(self.delay);
        let mut out = Matrix::zeros(windows.rows(), 2);
        for r in 0..windows.rows() {
            out.data_mut()[r * 2] = windows.row(r)[0];
            out.data_mut()[r * 2 + 1] = windows.rows() as f64;
        }
        Ok(out)
    }
}

#[test]
fn a_slow_batch_on_one_shard_does_not_delay_a_request_on_another() {
    let slow = SlowEcho::new(Duration::from_millis(50));
    let fast = SlowEcho::new(Duration::ZERO);
    let coalescer = Coalescer::start(
        Arc::clone(&fast) as Arc<dyn BatchPredictor>,
        CoalescerConfig {
            shards: 2,
            ..CoalescerConfig::default()
        },
    );
    std::thread::scope(|scope| {
        let model = Arc::clone(&slow) as Arc<dyn BatchPredictor>;
        let coalescer = &coalescer;
        let held = scope.spawn(move || {
            let rx = coalescer.submit_model(0, model, vec![7.0, 0.0]);
            rx.expect("submit").recv().expect("reply").expect("predict")
        });
        // Wait until shard 0's 50 ms batch is running.
        while slow.batches.lock().unwrap().is_empty() {
            std::thread::yield_now();
        }
        let rx = coalescer.submit_to(1, vec![3.0, 0.0]).expect("submit");
        let out = rx.recv().expect("reply").expect("predict");
        assert!(
            !held.is_finished(),
            "the shard-1 request waited for shard 0's batch"
        );
        assert_eq!((out.forecast[0], out.shard, out.batch_size), (3.0, 1, 1));
        assert_eq!(held.join().unwrap().shard, 0);
    });
    coalescer.shutdown();
}

/// A shard-pinned submit and a round-robin submit answer identically;
/// the round-robin entry point spreads work without a server in front.
#[test]
fn round_robin_submit_spreads_across_shards() {
    let coalescer = Coalescer::start(
        SlowEcho::new(Duration::from_millis(30)) as Arc<dyn BatchPredictor>,
        CoalescerConfig {
            shards: 3,
            max_batch: 8,
            queue_cap: 64,
        },
    );
    assert_eq!(coalescer.shards(), 3);
    let receivers: Vec<_> = (0..9)
        .map(|i| coalescer.submit(vec![i as f64, 0.0]).expect("submit"))
        .collect();
    let mut shards_seen = std::collections::BTreeSet::new();
    for (i, rx) in receivers.into_iter().enumerate() {
        let out = rx.recv().expect("reply").expect("predict");
        assert_eq!(out.forecast[0], i as f64);
        shards_seen.insert(out.shard);
    }
    // Each batch drains one shard's queue, so round-robin submits are
    // answered from all three.
    assert_eq!(
        shards_seen.len(),
        3,
        "round-robin submit never left shard {shards_seen:?}"
    );
    coalescer.shutdown();
}
