//! Coalescer guarantees under concurrency: responses route to the
//! correct submitter, batching never changes a forecast, the bounded
//! queue sheds, and shutdown drains instead of dropping.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tfb_artifact::{fit, ServableModel};
use tfb_data::{ChronoSplit, Normalization, Normalizer};
use tfb_datagen::profiles::{profile_by_name, Scale};
use tfb_math::matrix::Matrix;
use tfb_serve::{BatchPredictor, Coalescer, CoalescerConfig, SubmitError};

/// Output row = `[2 * first input value, sum of inputs]` — a response
/// that betrays any routing mix-up. Records each batch's size and the
/// thread that ran it, and panics on a NaN first value.
struct EchoPredictor {
    input_len: usize,
    batch_sizes: Mutex<Vec<usize>>,
    threads: Mutex<Vec<std::thread::ThreadId>>,
    delay: Duration,
}

impl EchoPredictor {
    fn new(input_len: usize, delay: Duration) -> EchoPredictor {
        EchoPredictor {
            input_len,
            batch_sizes: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
            delay,
        }
    }
}

impl BatchPredictor for EchoPredictor {
    fn input_len(&self) -> usize {
        self.input_len
    }

    fn output_len(&self) -> usize {
        2
    }

    fn predict_batch(&self, windows: &Matrix) -> Result<Matrix, String> {
        self.batch_sizes.lock().unwrap().push(windows.rows());
        self.threads
            .lock()
            .unwrap()
            .push(std::thread::current().id());
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        let mut out = Matrix::zeros(windows.rows(), 2);
        for r in 0..windows.rows() {
            let row = windows.row(r);
            assert!(!row[0].is_nan(), "the model panics on NaN");
            out.data_mut()[r * 2] = row[0] * 2.0;
            out.data_mut()[r * 2 + 1] = row.iter().sum();
        }
        Ok(out)
    }
}

fn submit_concurrently(
    coalescer: &Arc<Coalescer>,
    n: usize,
    width: usize,
) -> Vec<(Vec<f64>, Vec<f64>)> {
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let coalescer = Arc::clone(coalescer);
                scope.spawn(move || {
                    let window: Vec<f64> = (0..width).map(|j| (i * width + j) as f64).collect();
                    let rx = coalescer.submit(window.clone()).expect("submit");
                    let out = rx.recv().expect("reply").expect("predict");
                    assert!(out.batch_id > 0, "batch ids start at 1");
                    assert!(out.batch_size >= 1, "batch size must be positive");
                    (window, out.forecast)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    results
}

#[test]
fn responses_route_to_the_correct_submitter() {
    let predictor = Arc::new(EchoPredictor::new(4, Duration::from_millis(1)));
    let coalescer = Arc::new(Coalescer::start(
        Arc::clone(&predictor) as Arc<dyn BatchPredictor>,
        CoalescerConfig::default(),
    ));
    for (window, forecast) in submit_concurrently(&coalescer, 48, 4) {
        assert_eq!(forecast.len(), 2);
        assert_eq!(
            forecast[0],
            window[0] * 2.0,
            "window {window:?} got a stranger's reply"
        );
        assert_eq!(forecast[1], window.iter().sum::<f64>());
    }
}

#[test]
fn concurrent_load_actually_batches() {
    // A slow predictor guarantees later submitters pile up while the
    // first batch runs.
    let predictor = Arc::new(EchoPredictor::new(3, Duration::from_millis(20)));
    let coalescer = Arc::new(Coalescer::start(
        Arc::clone(&predictor) as Arc<dyn BatchPredictor>,
        CoalescerConfig {
            shards: 1,
            max_batch: 16,
            queue_cap: 256,
        },
    ));
    submit_concurrently(&coalescer, 32, 3);
    let sizes = predictor.batch_sizes.lock().unwrap().clone();
    assert_eq!(
        sizes.iter().sum::<usize>(),
        32,
        "every request predicted exactly once"
    );
    assert!(
        sizes.iter().any(|&s| s > 1),
        "no batch exceeded size 1 under concurrent load: {sizes:?}"
    );
    assert!(
        sizes.iter().all(|&s| s <= 16),
        "a batch exceeded max_batch: {sizes:?}"
    );
}

#[test]
fn batched_output_equals_sequential_predict_bitwise() {
    // Real model end to end: train a small LR, serve it through the
    // coalescer under concurrency, and compare every response to the
    // sequential forecast of the same window.
    let profile = profile_by_name("ILI").expect("profile");
    let series = profile.generate(Scale::TINY);
    let split = ChronoSplit::split(&series, profile.split).expect("split");
    let norm = Normalizer::fit(&split.train, Normalization::ZScore);
    let normed = norm.apply(&series).expect("normalize");
    let train = normed.slice_rows(0..split.val_start);
    let artifact = fit("LR", &train, 16, 8, norm, String::new(), None).expect("fit");
    let dim = artifact.dim;
    let reference = ServableModel::from_artifact(artifact.clone()).expect("servable");
    let served = Arc::new(ServableModel::from_artifact(artifact).expect("servable"));

    let coalescer = Arc::new(Coalescer::start(
        served as Arc<dyn BatchPredictor>,
        CoalescerConfig::default(),
    ));
    for (window, forecast) in submit_concurrently(&coalescer, 40, 16 * dim) {
        let sequential = reference.forecast(&window).expect("sequential forecast");
        assert_eq!(forecast.len(), sequential.len());
        let same = forecast
            .iter()
            .zip(&sequential)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            same,
            "batched forecast differs bitwise from sequential predict"
        );
    }
}

#[test]
fn a_lone_request_is_predicted_on_its_submitters_own_thread() {
    let predictor = Arc::new(EchoPredictor::new(2, Duration::ZERO));
    let coalescer = Coalescer::start(
        Arc::clone(&predictor) as Arc<dyn BatchPredictor>,
        CoalescerConfig {
            shards: 1,
            ..CoalescerConfig::default()
        },
    );
    let rx = coalescer.submit(vec![1.0, 2.0]).expect("submit");
    let out = rx.recv().expect("reply").expect("predict");
    assert_eq!(out.forecast, vec![2.0, 3.0]);
    assert_eq!(out.batch_size, 1);
    assert_eq!(out.collect_ns, 0, "a lone request waited for co-travelers");
    assert_eq!(
        *predictor.threads.lock().unwrap(),
        vec![std::thread::current().id()],
        "the lone request was predicted on another thread"
    );
    coalescer.shutdown();
}

#[test]
fn concurrent_submitters_across_models_each_get_their_own_row_once() {
    // Three models on one shard with different window widths (2, 3, 4),
    // so a batch that mixed models could not form its matrix, and 32
    // submitters released at once; a 2 ms predict makes them queue.
    let models: Vec<Arc<EchoPredictor>> = (2..5)
        .map(|w| Arc::new(EchoPredictor::new(w, Duration::from_millis(2))))
        .collect();
    let coalescer = Coalescer::start(
        Arc::clone(&models[0]) as Arc<dyn BatchPredictor>,
        CoalescerConfig {
            shards: 1,
            max_batch: 8,
            queue_cap: 64,
        },
    );
    let barrier = std::sync::Barrier::new(32);
    std::thread::scope(|scope| {
        for i in 0..32 {
            let (coalescer, barrier) = (&coalescer, &barrier);
            let model = Arc::clone(&models[i % 3]);
            scope.spawn(move || {
                let width = model.input_len;
                barrier.wait();
                let rx = coalescer
                    .submit_model(0, model, vec![i as f64; width])
                    .expect("submit");
                let out = rx.recv().expect("reply").expect("predict");
                let want = vec![2.0 * i as f64, (i * width) as f64];
                assert_eq!(out.forecast, want, "submitter {i} got a stranger's row");
            });
        }
    });
    // Every request was predicted exactly once, by its own model.
    for (m, model) in models.iter().enumerate() {
        let rows: usize = model.batch_sizes.lock().unwrap().iter().sum();
        assert_eq!(rows, (0..32).filter(|i| i % 3 == m).count(), "model {m}");
    }
    coalescer.shutdown();
}

#[test]
fn a_panicking_model_fails_its_batch_and_the_shard_keeps_serving() {
    let coalescer = Coalescer::start(
        Arc::new(EchoPredictor::new(2, Duration::ZERO)) as Arc<dyn BatchPredictor>,
        CoalescerConfig::default(),
    );
    let rx = coalescer.submit_to(0, vec![f64::NAN, 0.0]).expect("submit");
    assert!(rx.recv().is_err(), "the panicked batch's request must fail");
    let rx = coalescer.submit_to(0, vec![1.0, 2.0]).expect("submit");
    let out = rx.recv().expect("reply").expect("predict");
    assert_eq!(out.forecast, vec![2.0, 3.0]);
}

#[test]
fn full_queue_sheds_instead_of_growing() {
    let predictor = Arc::new(EchoPredictor::new(2, Duration::from_millis(50)));
    let coalescer = Coalescer::start(
        Arc::clone(&predictor) as Arc<dyn BatchPredictor>,
        CoalescerConfig {
            shards: 1,
            max_batch: 1,
            queue_cap: 2,
        },
    );
    // Nobody calls `recv` yet, so nothing drains: fill the bounded queue.
    let mut held = Vec::new();
    held.push(coalescer.submit(vec![0.0, 0.0]).expect("first submit"));
    std::thread::sleep(Duration::from_millis(10));
    let mut shed = 0;
    for i in 0..8 {
        match coalescer.submit(vec![i as f64, 0.0]) {
            Ok(rx) => held.push(rx),
            Err(SubmitError::QueueFull) => shed += 1,
            Err(other) => panic!("unexpected submit error {other:?}"),
        }
    }
    assert!(shed > 0, "no request was shed past a full queue");
    assert!(coalescer.backlog() <= 2, "queue exceeded its bound");
    // Accepted requests still finish.
    for rx in held {
        rx.recv().expect("reply").expect("predict");
    }
}

#[test]
fn wrong_window_length_is_rejected_at_submit() {
    let predictor = Arc::new(EchoPredictor::new(4, Duration::ZERO));
    let coalescer = Coalescer::start(
        predictor as Arc<dyn BatchPredictor>,
        CoalescerConfig::default(),
    );
    match coalescer.submit(vec![1.0; 3]) {
        Err(SubmitError::BadWindow {
            got: 3,
            expected: 4,
        }) => {}
        other => panic!("expected BadWindow, got {other:?}"),
    }
}

#[test]
fn shutdown_drains_accepted_requests() {
    let predictor = Arc::new(EchoPredictor::new(2, Duration::from_millis(15)));
    let coalescer = Coalescer::start(
        Arc::clone(&predictor) as Arc<dyn BatchPredictor>,
        CoalescerConfig {
            shards: 1,
            max_batch: 2,
            queue_cap: 64,
        },
    );
    let answered = Arc::new(AtomicUsize::new(0));
    let receivers: Vec<_> = (0..10)
        .map(|i| coalescer.submit(vec![i as f64, 1.0]).expect("submit"))
        .collect();
    let waiters: Vec<_> = receivers
        .into_iter()
        .map(|rx| {
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                rx.recv().expect("drained reply").expect("predict");
                answered.fetch_add(1, Ordering::SeqCst);
            })
        })
        .collect();
    coalescer.shutdown();
    for w in waiters {
        w.join().unwrap();
    }
    assert_eq!(
        answered.load(Ordering::SeqCst),
        10,
        "shutdown dropped accepted requests instead of draining"
    );
}
