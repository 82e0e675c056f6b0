//! Per-operation probes of the serving stack's layers, made in every
//! traced run: direct calls into each layer's public functions on seeded
//! inputs (an LR artifact trained on the ILI profile, windows drawn from
//! the seed). Every workload reports them, so each is measured beside
//! the work that workload leaves in the process.

use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use tfb_json::JsonValue;
use tfb_math::matrix::Matrix;
use tfb_registry::fleet::{Fleet, FleetConfig};
use tfb_registry::Registry;
use tfb_serve::http::{read_request_into, ReadOutcome, Request};
use tfb_serve::{BatchPredictor, Coalescer, CoalescerConfig, ObserveConfig, ObserveHub};

use crate::report::Outcome;
use crate::serve::{fit_lr, json_array, load, post, training_series, windows};
use crate::{alloc, pct, Ctx};

/// Mean microseconds per call of `f` over `n` calls.
fn mean_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    t0.elapsed().as_secs_f64() * 1e6 / n as f64
}

/// Submit→reply latencies of `per_thread` windows from each of
/// `submitters` threads, microseconds.
fn submit_latencies(
    coalescer: &Coalescer,
    pool: &Matrix,
    submitters: usize,
    per_thread: usize,
) -> Vec<f64> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..submitters)
            .map(|s| {
                scope.spawn(move || {
                    (0..per_thread)
                        .map(|i| {
                            let w = pool.row((i * submitters + s) % pool.rows()).to_vec();
                            let t = Instant::now();
                            let rx = coalescer.submit(w).expect("submit");
                            rx.recv().expect("reply").expect("forecast");
                            t.elapsed().as_secs_f64() * 1e6
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("submitter"))
            .collect()
    })
}

/// Makes every probe and sets its metrics; `batch` is the row count of
/// the batched-predict probe (the workload's mean batch, at least 1).
pub fn run(ctx: &Ctx, out: &mut Outcome, batch: usize) {
    let reps = if ctx.tiny { 50 } else { 1000 };
    let series = training_series();
    let bytes = fit_lr(&series, 12);
    let model = Arc::new(load(&bytes));
    let pool = windows(&series, ctx.seed, 64);
    let bodies: Vec<String> = (0..pool.rows())
        .map(|r| {
            let mut b = String::from("{\"window\":");
            json_array(&mut b, pool.row(r));
            b.push('}');
            b
        })
        .collect();

    out.set(
        "json.parse_us",
        mean_us(reps, |i| {
            std::hint::black_box(JsonValue::parse(&bodies[i % bodies.len()]).expect("body parses"));
        }),
    );

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the probe listener");
    let addr = listener.local_addr().expect("probe address");
    let wire: Vec<u8> = (0..reps)
        .flat_map(|i| post("/forecast", &bodies[i % bodies.len()]))
        .collect();
    let read_us = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut s = TcpStream::connect(addr).expect("connect to the probe listener");
            s.write_all(&wire).expect("write the probe requests");
        });
        let (stream, _) = listener.accept().expect("accept the probe connection");
        let mut reader = BufReader::new(stream);
        let (mut req, mut line) = (Request::new(), String::new());
        let us = mean_us(reps, |_| {
            let got = read_request_into(&mut reader, &mut req, &mut line);
            assert!(
                matches!(got, ReadOutcome::Request),
                "probe request reads back"
            );
        });
        writer.join().expect("probe writer");
        us
    });
    out.set("http.read_us", read_us);

    let coalescer = Coalescer::start(
        Arc::clone(&model) as Arc<dyn BatchPredictor>,
        CoalescerConfig::default(),
    );
    let one = submit_latencies(&coalescer, &pool, 1, reps);
    let two = submit_latencies(&coalescer, &pool, 2, reps / 2);
    coalescer.shutdown();
    out.set("coalescer.submit_p50_us", pct(&one, 50.0));
    out.set("coalescer.submit_p99_us", pct(&one, 99.0));
    out.set("coalescer.submit2_p50_us", pct(&two, 50.0));
    out.set("coalescer.submit2_p99_us", pct(&two, 99.0));

    out.set(
        "artifact.predict1_us",
        mean_us(reps, |i| {
            std::hint::black_box(model.forecast(pool.row(i % pool.rows())).expect("forecast"));
        }),
    );
    let rows = batch.clamp(1, pool.rows());
    let mut block = Matrix::zeros(rows, pool.cols());
    for r in 0..rows {
        block.data_mut()[r * pool.cols()..(r + 1) * pool.cols()].copy_from_slice(pool.row(r));
    }
    let calls = (reps / rows).max(10);
    let predict = |_| {
        std::hint::black_box(model.forecast_batch(&block).expect("forecast_batch"));
    };
    out.set(
        "artifact.predict_row_us",
        mean_us(calls, predict) / rows as f64,
    );
    alloc::set_counting(true);
    let before = alloc::process_tally();
    mean_us(calls, predict);
    let after = alloc::process_tally();
    alloc::set_counting(false);
    out.set(
        "infer.alloc_b_per_window",
        (after.1 - before.1) as f64 / (calls * rows) as f64,
    );

    // Two artifacts behind a one-slot fleet: every alternate lookup is a
    // cold mmap load; a two-slot fleet then serves hot lookups.
    let dir = ctx.scratch.join("probe-registry");
    let registry = Registry::open(&dir).expect("open the probe registry");
    registry
        .publish_bytes("a", "prod", &bytes)
        .expect("publish a");
    registry
        .publish_bytes("b", "prod", &fit_lr(&series, 13))
        .expect("publish b");
    let cold = Fleet::open(
        Registry::open(&dir).expect("reopen"),
        FleetConfig { resident_cap: 1 },
    )
    .expect("open the fleet");
    for i in 0..reps / 5 {
        cold.get(if i % 2 == 0 { "a" } else { "b" }, "prod")
            .expect("cold get");
    }
    out.set(
        "fleet.cold_load_p99_us",
        pct(&cold.stats().cold_load_us, 99.0),
    );
    let hot = Fleet::open(registry, FleetConfig { resident_cap: 2 }).expect("open the fleet");
    hot.get("a", "prod").expect("first get");
    out.set(
        "fleet.get_hot_us",
        mean_us(reps, |_| {
            std::hint::black_box(hot.get("a", "prod").expect("hot get"));
        }),
    );
    let _ = std::fs::remove_dir_all(&dir);

    // More series than the buffer's cap, so recording evicts as it does
    // under `serve-fleet`; then join the most recent ones.
    let hub = ObserveHub::new(&ObserveConfig::default());
    let forecast = model.forecast(pool.row(0)).expect("forecast");
    let population = 6000;
    let names: Vec<String> = (0..population).map(|i| format!("s{i}")).collect();
    out.set(
        "observe.record_us",
        mean_us(population, |i| {
            hub.record_forecast("m", "prod", &names[i], i as u64, forecast.clone())
        }),
    );
    let joins = reps.min(2000);
    out.set(
        "observe.join_us",
        mean_us(joins, |i| {
            let k = population - 1 - i;
            assert!(
                hub.observe("m", &names[k], k as u64, forecast.len())
                    .is_some(),
                "recent forecast joins"
            );
        }),
    );
}
