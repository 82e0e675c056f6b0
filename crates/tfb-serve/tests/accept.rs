//! The accept loops block in `accept` instead of polling, and every
//! drain wakes them: an idle server makes no wake-ups, and shutdown
//! returns with no connection, with idle keep-alive connections, and
//! when bound to every interface. This file is its own test process and
//! its tests run one at a time, so the only accept threads in it are the
//! ones the running test started.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::Duration;

use tfb_math::matrix::Matrix;
use tfb_serve::{serve_with, BatchPredictor, CoalescerConfig, ModelInfo, ServerConfig};

/// Forecasts the window's sum, once per horizon step.
struct SumModel;

impl BatchPredictor for SumModel {
    fn input_len(&self) -> usize {
        4
    }

    fn output_len(&self) -> usize {
        2
    }

    fn predict_batch(&self, windows: &Matrix) -> Result<Matrix, String> {
        let mut out = Matrix::zeros(windows.rows(), 2);
        for r in 0..windows.rows() {
            let sum: f64 = windows.row(r).iter().sum();
            out.data_mut()[r * 2] = sum;
            out.data_mut()[r * 2 + 1] = sum;
        }
        Ok(out)
    }
}

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn start(addr: &str, shards: usize) -> tfb_serve::ServerHandle {
    let info = ModelInfo {
        method: "Sum".to_string(),
        lookback: 4,
        horizon: 2,
        dim: 1,
    };
    let config = ServerConfig {
        addr: addr.to_string(),
        coalescer: CoalescerConfig {
            shards,
            ..CoalescerConfig::default()
        },
        ..ServerConfig::default()
    };
    serve_with(Arc::new(SumModel), info, config).expect("serve")
}

/// Runs `f` on its own thread and fails the test if it has not returned
/// within `limit`, so a drain that hangs fails instead of stalling.
fn within(limit: Duration, what: &str, f: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = done.send(());
    });
    finished
        .recv_timeout(limit)
        .unwrap_or_else(|_| panic!("{what} did not finish within {limit:?}"));
}

/// One keep-alive forecast on `stream`; the connection stays open.
fn forecast_keep_alive(stream: &mut TcpStream) {
    let body = "{\"window\": [1, 2, 3, 4]}";
    let head = format!(
        "POST /forecast HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut status = String::new();
    reader.read_line(&mut status).unwrap();
    assert!(status.contains(" 200 "), "{status}");
    let mut length = 0;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end().to_ascii_lowercase();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.strip_prefix("content-length:") {
            length = v.trim().parse().unwrap();
        }
    }
    let mut reply = vec![0; length];
    reader.read_exact(&mut reply).unwrap();
}

/// Voluntary context switches of every accept thread of this process.
#[cfg(target_os = "linux")]
fn accept_thread_switches() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("/proc/self/task") {
        let path = task.unwrap().path();
        let Ok(status) = std::fs::read_to_string(path.join("status")) else {
            continue;
        };
        let field = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .map(|v| v.trim().to_string())
        };
        // Thread names are cut to 15 bytes: `tfb-serve-accep`.
        let name = field("Name:").unwrap_or_default();
        if name.starts_with("tfb-serve-acce") {
            let switches = field("voluntary_ctxt_switches:").unwrap().parse().unwrap();
            out.push((path.display().to_string(), switches));
        }
    }
    out.sort();
    out
}

#[cfg(target_os = "linux")]
#[test]
fn idle_accept_loops_do_not_wake() {
    let _serial = serial();
    let handle = start("127.0.0.1:0", 2);
    // Let both loops reach `accept`.
    std::thread::sleep(Duration::from_millis(100));
    let before = accept_thread_switches();
    assert_eq!(before.len(), 2, "one accept thread per shard: {before:?}");
    std::thread::sleep(Duration::from_millis(500));
    let after = accept_thread_switches();
    for ((task, b), (_, a)) in before.iter().zip(&after) {
        assert!(
            a - b < 10,
            "{task}: {} voluntary switches in 500 ms idle",
            a - b
        );
    }
    within(Duration::from_secs(30), "shutdown", move || {
        handle.shutdown();
    });
}

#[test]
fn shutdown_returns_with_no_connection() {
    let _serial = serial();
    within(Duration::from_secs(30), "shutdown", || {
        start("127.0.0.1:0", 2).shutdown();
    });
}

#[test]
fn shutdown_returns_with_idle_keep_alive_connections() {
    let _serial = serial();
    within(Duration::from_secs(30), "shutdown", || {
        let handle = start("127.0.0.1:0", 2);
        let mut idle: Vec<TcpStream> = (0..3)
            .map(|_| TcpStream::connect(handle.addr()).expect("connect"))
            .collect();
        for stream in &mut idle {
            forecast_keep_alive(stream);
        }
        handle.shutdown();
        drop(idle);
    });
}

#[test]
fn shutdown_returns_when_bound_to_every_interface() {
    let _serial = serial();
    within(Duration::from_secs(30), "shutdown", || {
        let handle = start("0.0.0.0:0", 2);
        let port = handle.addr().port();
        let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        forecast_keep_alive(&mut stream);
        handle.shutdown();
    });
}

#[test]
fn fifty_start_stop_cycles_never_hang() {
    let _serial = serial();
    within(Duration::from_secs(120), "50 start/stop cycles", || {
        for cycle in 0..50 {
            let handle = start("127.0.0.1:0", 1 + cycle % 3);
            if cycle % 2 == 1 {
                let mut stream = TcpStream::connect(handle.addr()).expect("connect");
                forecast_keep_alive(&mut stream);
            }
            handle.shutdown();
        }
    });
}
