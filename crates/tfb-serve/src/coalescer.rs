//! The sharded, flat-combining micro-batching coalescer (Hendler,
//! Incze, Shavit & Tzafrir, SPAA 2010): concurrent forecast requests are
//! funneled through `predict_batch` calls that the submitting threads
//! run themselves.
//!
//! `submit` enqueues without blocking and returns a [`Ticket`];
//! [`Ticket::recv`] then moves its submitter through:
//!
//! ```text
//!   submit ──> [ Queued ] ── recv, no combiner ─────────> [ Combiner ]
//!                  │                                  ^       │ drain the oldest model's rows,
//!                  │ recv, the role is taken          │       │ predict outside the lock,
//!                  v                                  │       │ answer + wake those rows;
//!              [ Waiting ] ── handed the role ────────┘       │ repeat until its own row is
//!                  │                                          │ answered, then hand the role
//!                  └── row answered ──> [ Answered ] <────────┘ to the oldest waiter, if any
//! ```
//!
//! At most one thread per shard holds the combiner role. Each batch
//! carries one model's rows (at most `max_batch`, oldest model first),
//! and its combiner wakes only the submitters it answered. A lone request
//! is thus predicted on its own thread with no handoff and no coalescing
//! wait; batches form only from requests that queued while a predict
//! ran. `predict_batch` is bit-identical to per-row `predict`, so neither
//! batching nor the shard ever changes a forecast.
//!
//! Backpressure: each shard's queue holds at most `queue_cap` requests;
//! a `submit` past it fails with [`SubmitError::QueueFull`] (HTTP 429).
//! Shutdown drains: later submits fail with [`SubmitError::ShutDown`],
//! and the shutting thread combines until every queue is empty, so an
//! accepted request is answered even if its submitter never calls
//! `recv`.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use tfb_math::matrix::Matrix;

/// A model the coalescer can drive: fixed-width inputs, fixed-width
/// outputs, one batched predict. Implemented by
/// [`tfb_artifact::ServableModel`]; tests substitute doubles.
pub trait BatchPredictor: Send + Sync {
    /// Values per input window.
    fn input_len(&self) -> usize;

    /// Values per forecast.
    fn output_len(&self) -> usize;

    /// Predicts every row of `windows`; row `r` of the result answers
    /// input row `r`. Must be bit-identical to predicting row by row.
    fn predict_batch(&self, windows: &Matrix) -> Result<Matrix, String>;
}

impl BatchPredictor for tfb_artifact::ServableModel {
    fn input_len(&self) -> usize {
        self.lookback() * self.dim()
    }

    fn output_len(&self) -> usize {
        self.horizon() * self.dim()
    }

    fn predict_batch(&self, windows: &Matrix) -> Result<Matrix, String> {
        self.forecast_batch(windows).map_err(|e| e.to_string())
    }
}

/// Tuning knobs for the coalescer.
#[derive(Debug, Clone)]
pub struct CoalescerConfig {
    /// Shard (queue + combiner role) count; `0` resolves to one per core.
    pub shards: usize,
    /// Largest batch one predict call carries.
    pub max_batch: usize,
    /// Bound on queued (accepted, not yet predicted) requests *per
    /// shard*; submits beyond it shed with [`SubmitError::QueueFull`].
    pub queue_cap: usize,
}

impl Default for CoalescerConfig {
    fn default() -> Self {
        CoalescerConfig {
            shards: 0,
            max_batch: 64,
            queue_cap: 256,
        }
    }
}

/// Why a submit was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — retry later (HTTP 429).
    QueueFull,
    /// The coalescer is draining for shutdown (HTTP 503).
    ShutDown,
    /// The window's length does not match the model (HTTP 400).
    BadWindow {
        /// Values the request carried.
        got: usize,
        /// Values the model expects.
        expected: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "request queue is full"),
            SubmitError::ShutDown => write!(f, "server is shutting down"),
            SubmitError::BadWindow { got, expected } => {
                write!(f, "window carries {got} values, model expects {expected}")
            }
        }
    }
}

/// One answered request: the forecast plus the combiner-side timing the
/// server folds into the request's trace.
///
/// `queue_ns` is the wait from submit until a combiner drained the
/// request (for the shard's role and for the predicts ahead of it),
/// `collect_ns` is always 0 because no batch waits for co-travelers,
/// and `infer_ns` is the amortized share of the batched forward pass
/// (`predict_batch` elapsed / batch size) — so summing a request's
/// phases never exceeds its end-to-end latency.
#[derive(Debug)]
pub struct BatchOutcome {
    /// The forecast row answering this request's window.
    pub forecast: Vec<f64>,
    /// Nanoseconds from submit until a combiner drained the request.
    pub queue_ns: u64,
    /// Nanoseconds waiting for co-travelers: always 0 under combining.
    pub collect_ns: u64,
    /// Amortized share of the batched forward pass, in nanoseconds.
    pub infer_ns: u64,
    /// Process-unique id of the batch that carried this request.
    pub batch_id: u64,
    /// How many requests shared that batch.
    pub batch_size: usize,
    /// Which shard's queue the batch was drained from.
    pub shard: usize,
}

/// Takes any mutex guard, poisoned or not. No code runs under the
/// coalescer's locks that can leave their state half-updated (predicts
/// run outside them, and a predictor panic is caught), so a poisoned
/// lock still guards consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where one request's answer lands and how its submitter is woken.
#[derive(Default)]
struct Slot {
    state: Mutex<SlotState>,
    wake: Condvar,
    /// Set under the shard lock once the submitter sleeps in `recv`, so
    /// a leaving combiner knows whom it may hand the role to, and an
    /// answer knows to wake it. Relaxed suffices: it is written under the
    /// shard lock before the waiter takes the slot lock, and read under
    /// one of those two locks.
    waiting: AtomicBool,
}

#[derive(Default)]
enum SlotState {
    /// Queued or inside a running batch.
    #[default]
    Pending,
    /// A leaving combiner handed the shard's combiner role to this
    /// request's submitter.
    Combine,
    /// The answer; `None` when the predictor panicked on its batch.
    Answered(Option<Result<BatchOutcome, String>>),
}

impl Slot {
    fn set(&self, state: SlotState) {
        let mut guard = lock(&self.state);
        *guard = state;
        let waiting = self.waiting.load(Ordering::Relaxed);
        drop(guard);
        if waiting {
            self.wake.notify_one();
        }
    }

    fn is_answered(&self) -> bool {
        matches!(*lock(&self.state), SlotState::Answered(_))
    }
}

/// One queued request. A batch only carries requests whose `model` is
/// the same instance, because one `predict_batch` call runs one model.
struct Pending {
    window: Vec<f64>,
    model: Arc<dyn BatchPredictor>,
    slot: Arc<Slot>,
    arrived: Instant,
}

#[derive(Default)]
struct ShardState {
    queue: VecDeque<Pending>,
    /// Some thread holds the combiner role. While it is false no queued
    /// request's submitter is waiting: a leaving combiner hands the role
    /// to a waiter whenever one exists.
    combining: bool,
    shutting_down: bool,
    /// High-water mark of the queue depth over the shard's life.
    hwm: usize,
}

/// Per-shard observability handles. Metric names carry the shard index
/// (`serve/shard0/queue_depth`, …); the statics are leaked once per
/// shard at startup, which is what the per-call-site registration model
/// requires for dynamically-numbered series.
struct ShardMetrics {
    depth: &'static tfb_obs::Gauge,
    hwm: &'static tfb_obs::Gauge,
    fill: &'static tfb_obs::Gauge,
    batches: &'static tfb_obs::Counter,
    batched_requests: &'static tfb_obs::Counter,
}

impl ShardMetrics {
    fn new(shard: usize) -> ShardMetrics {
        let name = |what| &*Box::leak(format!("serve/shard{shard}/{what}").into_boxed_str());
        let gauge = |what| &*Box::leak(Box::new(tfb_obs::Gauge::new(name(what))));
        let counter = |what| &*Box::leak(Box::new(tfb_obs::Counter::new(name(what))));
        ShardMetrics {
            depth: gauge("queue_depth"),
            hwm: gauge("queue_hwm"),
            fill: gauge("batch_fill"),
            batches: counter("batches"),
            batched_requests: counter("batched_requests"),
        }
    }
}

struct Shard {
    index: usize,
    max_batch: usize,
    queue_cap: usize,
    state: Mutex<ShardState>,
    /// Wakes a draining `shutdown` when the combiner role is given up.
    idle: Condvar,
    metrics: ShardMetrics,
}

impl Shard {
    fn set_depth(&self, depth: usize) {
        self.metrics.depth.set(depth as f64);
        tfb_obs::gauge!("serve/queue_depth").set(depth as f64);
    }

    /// Runs the combiner role, which the caller holds: batch after batch
    /// until `own` is answered — or, for a shutdown drain (`own` is
    /// `None`), until the queue is empty — then passes the role on.
    fn combine(&self, own: Option<&Slot>) {
        loop {
            let mut state = lock(&self.state);
            let done = match own {
                Some(slot) => slot.is_answered(),
                None => state.queue.is_empty(),
            };
            if done {
                self.release(state);
                return;
            }
            // One batch = one model: the oldest request's, with every
            // queued co-traveler bound for that instance, FIFO otherwise.
            let model = Arc::clone(&state.queue.front().expect("own row is queued").model);
            let mut batch = Vec::new();
            let mut i = 0;
            while i < state.queue.len() && batch.len() < self.max_batch {
                if Arc::ptr_eq(&state.queue[i].model, &model) {
                    batch.push(state.queue.remove(i).expect("index in bounds"));
                } else {
                    i += 1;
                }
            }
            self.set_depth(state.queue.len());
            drop(state);
            // Predict outside the lock so submitters never wait on the model.
            self.run_batch(batch);
        }
    }

    /// Hands the combiner role to the oldest queued request whose
    /// submitter sleeps in `recv`, or gives the role up when none does.
    fn release(&self, mut state: MutexGuard<'_, ShardState>) {
        if let Some(next) = state
            .queue
            .iter()
            .find(|p| p.slot.waiting.load(Ordering::Relaxed))
        {
            next.slot.set(SlotState::Combine);
            return;
        }
        state.combining = false;
        if state.shutting_down {
            self.idle.notify_all();
        }
    }

    /// Shuts the shard to new submits, waits for the combiner role and
    /// combines until the queue is empty.
    fn drain(&self) {
        let mut state = lock(&self.state);
        state.shutting_down = true;
        let combining = |s: &mut ShardState| s.combining;
        let mut state = self
            .idle
            .wait_while(state, combining)
            .unwrap_or_else(PoisonError::into_inner);
        state.combining = true;
        drop(state);
        self.combine(None);
    }

    fn run_batch(&self, batch: Vec<Pending>) {
        let predictor = &batch[0].model;
        let n = batch.len();
        let batch_id = BATCH_SEQ.fetch_add(1, Ordering::Relaxed) + 1;
        let drained = Instant::now();
        let fill = n as f64 / self.max_batch as f64;
        tfb_obs::histogram!("serve/batch_size").record(n as f64);
        tfb_obs::counter!("serve/batched_requests").add(n as u64);
        tfb_obs::counter!("serve/batches").add(1);
        tfb_obs::gauge!("serve/batch_fill_ratio").set(fill);
        self.metrics.batches.add(1);
        self.metrics.batched_requests.add(n as u64);
        self.metrics.fill.set(fill);
        let width = predictor.input_len();
        let mut flat = Vec::with_capacity(n * width);
        for p in &batch {
            flat.extend_from_slice(&p.window);
        }
        let infer_started = Instant::now();
        // The combiner is some request's own thread: a panicking model
        // must not take the shard's combiner role down with it.
        let result = catch_unwind(AssertUnwindSafe(|| {
            let windows = Matrix::from_vec(n, width, flat).map_err(|e| e.to_string())?;
            let _span = tfb_obs::span!("serve.batch")
                .record("batch_id", batch_id as f64)
                .record("shard", self.index as f64)
                .record("rows", n as f64);
            predictor.predict_batch(&windows)
        }));
        // Amortize the batched forward pass evenly: each co-traveler's
        // `infer` share is elapsed / batch size, so one batch never counts
        // its model time more than once across the requests it served.
        let infer_ns = (infer_started.elapsed().as_nanos() as u64) / n as u64;
        for (r, p) in batch.iter().enumerate() {
            let answer = match &result {
                Ok(Ok(out)) if r < out.rows() => Some(Ok(BatchOutcome {
                    forecast: out.row(r).to_vec(),
                    queue_ns: drained.saturating_duration_since(p.arrived).as_nanos() as u64,
                    collect_ns: 0,
                    infer_ns,
                    batch_id,
                    batch_size: n,
                    shard: self.index,
                })),
                Ok(Ok(out)) => Some(Err(format!("model answered {} of {n} rows", out.rows()))),
                Ok(Err(e)) => Some(Err(e.clone())),
                Err(_panic) => None,
            };
            p.slot.set(SlotState::Answered(answer));
        }
    }
}

/// Batch ids are process-unique and monotone; the `serve.batch` span and
/// every request routed through the batch carry the same id, which is
/// what the Perfetto exporter keys its flow arrows on.
static BATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// A submitted request's claim on its answer.
///
/// Dropping a ticket unread leaves its request queued; a later combiner
/// or the shutdown drain still predicts it.
#[must_use = "a ticket does nothing until `recv` is called"]
pub struct Ticket {
    shard: Arc<Shard>,
    slot: Arc<Slot>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("shard", &self.shard.index)
            .finish_non_exhaustive()
    }
}

impl Ticket {
    /// Blocks until the request is answered. While no other thread
    /// holds its shard's combiner role, the calling thread takes it and
    /// runs the batches itself (its own row included); otherwise it
    /// sleeps until a combiner answers its row or hands it the role.
    ///
    /// The outer `Err` means the model panicked on this request's batch;
    /// the inner one carries a predict error.
    pub fn recv(self) -> Result<Result<BatchOutcome, String>, mpsc::RecvError> {
        let shard = &self.shard;
        let mut state = lock(&shard.state);
        if state.combining {
            self.slot.waiting.store(true, Ordering::Relaxed);
            drop(state);
            let pending = |s: &mut SlotState| matches!(s, SlotState::Pending);
            let mut slot = self
                .slot
                .wake
                .wait_while(lock(&self.slot.state), pending)
                .unwrap_or_else(PoisonError::into_inner);
            if matches!(*slot, SlotState::Combine) {
                *slot = SlotState::Pending;
                drop(slot);
                shard.combine(Some(&self.slot));
            }
        } else {
            state.combining = true;
            drop(state);
            shard.combine(Some(&self.slot));
        }
        match std::mem::replace(&mut *lock(&self.slot.state), SlotState::Pending) {
            SlotState::Answered(Some(answer)) => Ok(answer),
            _ => Err(mpsc::RecvError),
        }
    }
}

/// The micro-batching front of a [`BatchPredictor`]: submitters enqueue
/// onto a shard and, in [`Ticket::recv`], combine each other's requests
/// into `predict_batch` calls.
pub struct Coalescer {
    shards: Vec<Arc<Shard>>,
    /// The model `submit`/`submit_to` route to; `submit_model` routes
    /// per-request instead.
    default: Arc<dyn BatchPredictor>,
    round_robin: AtomicUsize,
}

impl Coalescer {
    /// Opens one queue per shard over `predictor`; spawns no thread.
    pub fn start(predictor: Arc<dyn BatchPredictor>, cfg: CoalescerConfig) -> Coalescer {
        assert!(cfg.max_batch > 0, "max_batch must be positive");
        assert!(cfg.queue_cap > 0, "queue_cap must be positive");
        let count = match cfg.shards {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let shards: Vec<Arc<Shard>> = (0..count)
            .map(|index| {
                Arc::new(Shard {
                    index,
                    max_batch: cfg.max_batch,
                    queue_cap: cfg.queue_cap,
                    state: Mutex::default(),
                    idle: Condvar::new(),
                    metrics: ShardMetrics::new(index),
                })
            })
            .collect();
        tfb_obs::gauge!("serve/shards").set(shards.len() as f64);
        Coalescer {
            shards,
            default: predictor,
            round_robin: AtomicUsize::new(0),
        }
    }

    /// Shard count the coalescer is running with.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Enqueues one window on the next shard round-robin. Returns the
    /// ticket its forecast (or a predict error) is read from, or sheds
    /// immediately when the shard's queue is full, the length is wrong,
    /// or shutdown has begun.
    pub fn submit(&self, window: Vec<f64>) -> Result<Ticket, SubmitError> {
        let shard = self.round_robin.fetch_add(1, Ordering::Relaxed) % self.shards();
        self.submit_to(shard, window)
    }

    /// [`submit`](Coalescer::submit) onto a specific shard — the server
    /// pins each connection to its accept shard so the hot path has no
    /// shared round-robin counter.
    pub fn submit_to(&self, shard: usize, window: Vec<f64>) -> Result<Ticket, SubmitError> {
        self.submit_model(shard, Arc::clone(&self.default), window)
    }

    /// [`submit_to`](Coalescer::submit_to) routed to a specific model —
    /// the fleet server's per-request path. The window is validated
    /// against *that* model's geometry, and a combiner only ever groups
    /// it with co-travelers bound for the same model instance.
    pub fn submit_model(
        &self,
        shard: usize,
        model: Arc<dyn BatchPredictor>,
        window: Vec<f64>,
    ) -> Result<Ticket, SubmitError> {
        if window.len() != model.input_len() {
            return Err(SubmitError::BadWindow {
                got: window.len(),
                expected: model.input_len(),
            });
        }
        self.enqueue(shard, model, window)
    }

    fn enqueue(
        &self,
        shard: usize,
        model: Arc<dyn BatchPredictor>,
        window: Vec<f64>,
    ) -> Result<Ticket, SubmitError> {
        let shard = &self.shards[shard % self.shards()];
        let cap = shard.queue_cap;
        let slot = Arc::new(Slot::default());
        let hwm_spike;
        {
            let mut state = lock(&shard.state);
            if state.shutting_down {
                return Err(SubmitError::ShutDown);
            }
            if state.queue.len() >= cap {
                tfb_obs::counter!("serve/shed").add(1);
                drop(state);
                // A shed is a flight trigger: capture the recent past
                // (rate-limited) outside the shard lock.
                tfb_obs::flight::dump("serve-shed");
                return Err(SubmitError::QueueFull);
            }
            state.queue.push_back(Pending {
                window,
                model,
                slot: Arc::clone(&slot),
                arrived: Instant::now(),
            });
            let depth = state.queue.len();
            shard.set_depth(depth);
            hwm_spike = depth > state.hwm && depth * 4 >= cap * 3;
            if depth > state.hwm {
                state.hwm = depth;
                shard.metrics.hwm.set(depth as f64);
                tfb_obs::gauge!("serve/queue_hwm").set(depth as f64);
            }
        }
        if hwm_spike {
            // A new high-water mark in the top quarter of the queue
            // bound means shedding is imminent — dump before it happens.
            tfb_obs::flight::dump("queue-hwm");
        }
        Ok(Ticket {
            shard: Arc::clone(shard),
            slot,
        })
    }

    /// Queued-but-unpredicted request count across all shards
    /// (test/metrics hook).
    pub fn backlog(&self) -> usize {
        self.shards.iter().map(|s| lock(&s.state).queue.len()).sum()
    }

    /// Drains and stops: already-queued requests are still predicted
    /// and answered; subsequent submits shed with `ShutDown`.
    pub fn shutdown(self) {
        // `Drop` does the drain.
    }
}

impl Drop for Coalescer {
    fn drop(&mut self) {
        for shard in &self.shards {
            shard.drain();
        }
    }
}
