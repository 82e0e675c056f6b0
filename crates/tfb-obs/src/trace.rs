//! Per-request tracing and tail-latency attribution.
//!
//! A [`RequestTrace`] follows one request from HTTP accept through the
//! coalescer batch into `predict_batch` and back out, splitting its
//! end-to-end latency into monotone, non-negative **phases**:
//!
//! * `parse`    — request body decode and validation
//! * `queue`    — from submit until a combiner drains the request into
//!   a batch (waiting for the shard's combiner role and the predicts
//!   ahead of it)
//! * `collect`  — waiting for co-travelers after a batch opens; the
//!   flat-combining coalescer never waits, so this reads 0 there
//! * `infer`    — the request's amortized share of the batch forward
//!   (`predict_batch` wall time divided by the batch size)
//! * `dispatch` — residual routing time between the combiner answering
//!   and the handler observing the reply (clamped at zero)
//! * `write`    — response serialization and the socket write
//!
//! The amortization rule makes phases *sum* to the measured end-to-end
//! latency (within clock skew): every segment of the request's wall time
//! is attributed to exactly one phase, and the batch forward is shared
//! equally among the rows that rode in it.
//!
//! On [`finish`](RequestTrace::finish) a trace feeds four sinks, all
//! bounded: explicitly-bucketed per-phase latency histograms (for the
//! OpenMetrics exposition), the SLO tracker's rolling burn-rate windows,
//! the worst-N slow-request exemplar ring, and — when the run has a JSONL
//! sink — one `{"ev":"trace",…}` event carrying the full phase breakdown.
//!
//! Compiled without the `record` feature every type here is a zero-sized
//! no-op, exactly like the rest of the crate.

use crate::manifest::{SloSummary, TraceExemplar};
use std::time::Duration;

/// The phases one request's latency is attributed to, in causal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Request body decode and validation.
    Parse,
    /// From submit until a combiner drains the request into a batch.
    Queue,
    /// Waiting for co-travelers after the batch opened.
    Collect,
    /// Amortized share of the batch `predict_batch` call.
    Infer,
    /// Residual routing time from the combiner's answer to handler wake-up.
    Dispatch,
    /// Response serialization and socket write.
    Write,
}

/// Number of [`Phase`] variants.
pub const PHASE_COUNT: usize = 6;

impl Phase {
    /// Every phase, in causal order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Parse,
        Phase::Queue,
        Phase::Collect,
        Phase::Infer,
        Phase::Dispatch,
        Phase::Write,
    ];

    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Queue => "queue",
            Phase::Collect => "collect",
            Phase::Infer => "infer",
            Phase::Dispatch => "dispatch",
            Phase::Write => "write",
        }
    }

    /// Index into per-phase tables.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// How a traced request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceStatus {
    /// Answered successfully.
    Ok,
    /// Shed by backpressure (HTTP 429).
    Shed,
    /// Any other failure (4xx/5xx).
    Error,
}

impl TraceStatus {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            TraceStatus::Ok => "ok",
            TraceStatus::Shed => "shed",
            TraceStatus::Error => "error",
        }
    }
}

/// Explicit histogram bucket upper bounds, in seconds (an `+Inf`
/// overflow bucket is appended after the last bound).
pub const BUCKET_BOUNDS_S: [f64; 14] = [
    50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
    1.0,
];

/// Bucket count including the `+Inf` overflow bucket.
pub const BUCKET_COUNT: usize = BUCKET_BOUNDS_S.len() + 1;

/// How many slow-request exemplars the ring keeps.
pub const EXEMPLAR_CAP: usize = 8;

/// Fast-window burn rate at which a finished request triggers a flight
/// dump: burning the error budget ≥ 10× faster than the objective
/// allows is an incident, not noise.
pub const BURN_DUMP_THRESHOLD: f64 = 10.0;

/// Minimum requests in the fast window before the burn-rate trigger can
/// fire — one cold-start breach alone must not dump a bundle.
pub const BURN_DUMP_MIN_REQUESTS: u64 = 16;

/// One phase's explicitly-bucketed latency histogram, as captured by
/// [`snapshot`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseBuckets {
    /// Phase label (`parse`, …, `write`, or `total`).
    pub phase: String,
    /// Per-bucket (non-cumulative) counts; the last entry is `+Inf`.
    pub counts: Vec<u64>,
    /// Total observations (sum of `counts`).
    pub count: u64,
    /// Sum of all observed durations, in seconds.
    pub sum_s: f64,
}

impl PhaseBuckets {
    /// Cumulative counts in bound order (last entry equals `count`).
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.counts
            .iter()
            .map(|&c| {
                acc += c;
                acc
            })
            .collect()
    }

    /// Upper bound of the bucket where the cumulative count first
    /// reaches `q` (0..=1) of the total; observations past the last
    /// finite bound report that bound. NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= rank {
                return BUCKET_BOUNDS_S
                    .get(i)
                    .copied()
                    .unwrap_or(BUCKET_BOUNDS_S[BUCKET_BOUNDS_S.len() - 1]);
            }
        }
        BUCKET_BOUNDS_S[BUCKET_BOUNDS_S.len() - 1]
    }
}

/// SLO target the tracker scores requests against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Latency threshold a request must beat to count as good.
    pub threshold: Duration,
    /// Availability objective (e.g. `0.99` = 1% error budget).
    pub objective: f64,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            threshold: Duration::from_millis(50),
            objective: 0.99,
        }
    }
}

/// Point-in-time view of the trace registries: per-phase bucketed
/// histograms, status counts, the SLO reading and the exemplar ring.
/// Empty (and valid) in the no-op build.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSnapshot {
    /// One entry per phase plus a final `total` entry.
    pub phases: Vec<PhaseBuckets>,
    /// `(status label, count)` in label order; only non-zero entries.
    pub statuses: Vec<(String, u64)>,
    /// SLO reading; `None` in the no-op build.
    pub slo: Option<SloSummary>,
    /// Worst-N slow requests, slowest first.
    pub exemplars: Vec<TraceExemplar>,
}

#[cfg(feature = "record")]
mod imp {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};
    use std::time::Instant;

    struct PhaseHist {
        counts: [AtomicU64; BUCKET_COUNT],
        count: AtomicU64,
        sum_ns: AtomicU64,
    }

    impl PhaseHist {
        const fn new() -> PhaseHist {
            PhaseHist {
                counts: [const { AtomicU64::new(0) }; BUCKET_COUNT],
                count: AtomicU64::new(0),
                sum_ns: AtomicU64::new(0),
            }
        }

        fn record_ns(&self, ns: u64) {
            let s = ns as f64 / 1e9;
            let idx = BUCKET_BOUNDS_S
                .iter()
                .position(|&b| s <= b)
                .unwrap_or(BUCKET_BOUNDS_S.len());
            self.counts[idx].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        }

        fn reset(&self) {
            for c in &self.counts {
                c.store(0, Ordering::Relaxed);
            }
            self.count.store(0, Ordering::Relaxed);
            self.sum_ns.store(0, Ordering::Relaxed);
        }

        fn snapshot(&self, phase: &str) -> PhaseBuckets {
            PhaseBuckets {
                phase: phase.to_string(),
                counts: self
                    .counts
                    .iter()
                    .map(|c| c.load(Ordering::Relaxed))
                    .collect(),
                count: self.count.load(Ordering::Relaxed),
                sum_s: self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9,
            }
        }
    }

    /// Per-phase histograms; the final slot is the end-to-end total.
    static PHASE_HISTS: [PhaseHist; PHASE_COUNT + 1] =
        [const { PhaseHist::new() }; PHASE_COUNT + 1];
    static STATUS_COUNTS: [AtomicU64; 3] = [const { AtomicU64::new(0) }; 3];
    static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);
    static SLO: Mutex<Option<SloState>> = Mutex::new(None);
    static EXEMPLARS: Mutex<Vec<TraceExemplar>> = Mutex::new(Vec::new());

    /// Per-process salt so trace ids from different serve sessions never
    /// collide in a shared log.
    fn salt() -> u64 {
        static SALT: OnceLock<u64> = OnceLock::new();
        *SALT.get_or_init(|| {
            let t = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos() as u64);
            (t ^ ((std::process::id() as u64) << 17)) & 0xffff_ffff
        })
    }

    const WINDOW_SLOTS: usize = 16;

    /// One rolling window as a ring of fixed-width time slots; stale
    /// slots are overwritten lazily, so recording is O(1).
    struct RollingWindow {
        slot_width_s: u64,
        /// `(slot index, total, bad)` per ring entry.
        slots: [(u64, u64, u64); WINDOW_SLOTS],
    }

    impl RollingWindow {
        fn new(slot_width_s: u64) -> RollingWindow {
            RollingWindow {
                slot_width_s,
                slots: [(u64::MAX, 0, 0); WINDOW_SLOTS],
            }
        }

        fn record(&mut self, elapsed_s: u64, bad: bool) {
            let slot = elapsed_s / self.slot_width_s;
            let e = &mut self.slots[(slot as usize) % WINDOW_SLOTS];
            if e.0 != slot {
                *e = (slot, 0, 0);
            }
            e.1 += 1;
            if bad {
                e.2 += 1;
            }
        }

        /// `(total, bad)` over the slots still inside the window.
        fn tally(&self, elapsed_s: u64) -> (u64, u64) {
            let now_slot = elapsed_s / self.slot_width_s;
            let mut total = 0;
            let mut bad = 0;
            for &(slot, t, b) in &self.slots {
                if slot != u64::MAX && now_slot.saturating_sub(slot) < WINDOW_SLOTS as u64 {
                    total += t;
                    bad += b;
                }
            }
            (total, bad)
        }
    }

    struct SloState {
        cfg: SloConfig,
        anchor: Instant,
        total: u64,
        breaches: u64,
        /// ~1 minute window (4 s × 16 slots).
        fast: RollingWindow,
        /// ~5 minute window (20 s × 16 slots).
        slow: RollingWindow,
    }

    impl SloState {
        fn new(cfg: SloConfig) -> SloState {
            SloState {
                cfg,
                anchor: Instant::now(),
                total: 0,
                breaches: 0,
                fast: RollingWindow::new(4),
                slow: RollingWindow::new(20),
            }
        }

        fn record(&mut self, total_ns: u64) {
            let bad = total_ns > self.cfg.threshold.as_nanos() as u64;
            self.total += 1;
            if bad {
                self.breaches += 1;
            }
            let elapsed = self.anchor.elapsed().as_secs();
            self.fast.record(elapsed, bad);
            self.slow.record(elapsed, bad);
        }

        /// Burn rate of one window: the fraction of requests breaching
        /// the threshold, divided by the error budget `1 − objective`.
        /// A sustained rate of 1.0 exactly exhausts the budget.
        fn burn_rate(&self, window: &RollingWindow) -> f64 {
            let (total, bad) = window.tally(self.anchor.elapsed().as_secs());
            if total == 0 {
                return 0.0;
            }
            let budget = (1.0 - self.cfg.objective).max(1e-9);
            (bad as f64 / total as f64) / budget
        }

        fn summary(&self) -> SloSummary {
            SloSummary {
                threshold_ms: self.cfg.threshold.as_secs_f64() * 1e3,
                objective: self.cfg.objective,
                total: self.total,
                breaches: self.breaches,
                burn_rate_1m: self.burn_rate(&self.fast),
                burn_rate_5m: self.burn_rate(&self.slow),
            }
        }
    }

    /// Sets the SLO target the tracker scores subsequent requests
    /// against (and resets its windows). [`start_run`](crate::start_run)
    /// resets to the default target.
    pub fn configure_slo(cfg: SloConfig) {
        *SLO.lock().expect("slo state poisoned") = Some(SloState::new(cfg));
    }

    /// Back to the empty state; called by `start_run`.
    pub(crate) fn reset_state() {
        for h in &PHASE_HISTS {
            h.reset();
        }
        for c in &STATUS_COUNTS {
            c.store(0, Ordering::Relaxed);
        }
        *SLO.lock().expect("slo state poisoned") = None;
        EXEMPLARS.lock().expect("exemplar ring poisoned").clear();
    }

    /// Point-in-time [`TraceSnapshot`] of the live trace registries.
    pub fn snapshot() -> TraceSnapshot {
        let mut phases: Vec<PhaseBuckets> = Phase::ALL
            .iter()
            .map(|p| PHASE_HISTS[p.index()].snapshot(p.label()))
            .collect();
        phases.push(PHASE_HISTS[PHASE_COUNT].snapshot("total"));
        let statuses = [TraceStatus::Ok, TraceStatus::Shed, TraceStatus::Error]
            .iter()
            .filter_map(|s| {
                let n = STATUS_COUNTS[*s as usize].load(Ordering::Relaxed);
                (n > 0).then(|| (s.label().to_string(), n))
            })
            .collect();
        let slo = Some(
            SLO.lock()
                .expect("slo state poisoned")
                .as_ref()
                .map(|s| s.summary())
                .unwrap_or_else(|| SloState::new(SloConfig::default()).summary()),
        );
        let exemplars = EXEMPLARS.lock().expect("exemplar ring poisoned").clone();
        TraceSnapshot {
            phases,
            statuses,
            slo,
            exemplars,
        }
    }

    struct Active {
        id: u64,
        start: Instant,
        last: Instant,
        phase_ns: [u64; PHASE_COUNT],
        batch_id: Option<u64>,
        batch_size: u64,
        status: TraceStatus,
    }

    /// One request's trace context: a process-unique id plus per-phase
    /// monotone timings. Inert (a `None`) outside a run.
    pub struct RequestTrace {
        active: Option<Box<Active>>,
    }

    impl RequestTrace {
        /// Starts tracing one request; inert when no run is recording.
        pub fn begin() -> RequestTrace {
            if !crate::enabled() {
                return RequestTrace { active: None };
            }
            let seq = TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
            let now = Instant::now();
            RequestTrace {
                active: Some(Box::new(Active {
                    id: (salt() << 32) | (seq & 0xffff_ffff),
                    start: now,
                    last: now,
                    phase_ns: [0; PHASE_COUNT],
                    batch_id: None,
                    batch_size: 0,
                    status: TraceStatus::Ok,
                })),
            }
        }

        /// Whether this trace is live (a run was recording at `begin`).
        pub fn active(&self) -> bool {
            self.active.is_some()
        }

        /// The trace id as 16 hex digits (`None` when inert) — what the
        /// `X-Tfb-Trace-Id` response header carries.
        pub fn id_hex(&self) -> Option<String> {
            self.active.as_ref().map(|a| format!("{:016x}", a.id))
        }

        /// The raw trace id (`None` when inert) — for callers that
        /// format the header themselves without allocating.
        pub fn id(&self) -> Option<u64> {
            self.active.as_ref().map(|a| a.id)
        }

        /// Attributes the wall time since the previous mark to `phase`.
        pub fn mark(&mut self, phase: Phase) {
            if let Some(a) = self.active.as_mut() {
                let now = Instant::now();
                a.phase_ns[phase.index()] += now.duration_since(a.last).as_nanos() as u64;
                a.last = now;
            }
        }

        /// Adds externally-measured time to `phase` without advancing
        /// the mark clock (test hook; phases stay non-negative).
        pub fn add_phase_ns(&mut self, phase: Phase, ns: u64) {
            if let Some(a) = self.active.as_mut() {
                a.phase_ns[phase.index()] += ns;
            }
        }

        /// Absorbs the coalescer's per-request timing: queue/collect
        /// are measured by the combiner, `infer_ns` is the amortized
        /// batch-forward share, and the residual since the last mark —
        /// reply routing and the handler wake-up — lands in `dispatch`
        /// (clamped at zero against cross-thread clock skew).
        pub fn absorb_batch(
            &mut self,
            queue_ns: u64,
            collect_ns: u64,
            infer_ns: u64,
            batch_id: u64,
            batch_size: u64,
        ) {
            if let Some(a) = self.active.as_mut() {
                let now = Instant::now();
                let since_last = now.duration_since(a.last).as_nanos() as u64;
                a.phase_ns[Phase::Queue.index()] += queue_ns;
                a.phase_ns[Phase::Collect.index()] += collect_ns;
                a.phase_ns[Phase::Infer.index()] += infer_ns;
                a.phase_ns[Phase::Dispatch.index()] +=
                    since_last.saturating_sub(queue_ns + collect_ns + infer_ns);
                a.last = now;
                a.batch_id = Some(batch_id);
                a.batch_size = batch_size;
            }
        }

        /// Records how the request ended (defaults to `Ok`).
        pub fn set_status(&mut self, status: TraceStatus) {
            if let Some(a) = self.active.as_mut() {
                a.status = status;
            }
        }

        /// Closes the trace: feeds the phase histograms, status counts,
        /// SLO windows and exemplar ring, and appends one `trace` event
        /// to the run's JSONL sink when one is open.
        pub fn finish(self) {
            let Some(a) = self.active else { return };
            let total_ns = a.start.elapsed().as_nanos() as u64;
            for p in Phase::ALL {
                let ns = a.phase_ns[p.index()];
                if ns > 0 {
                    PHASE_HISTS[p.index()].record_ns(ns);
                }
            }
            PHASE_HISTS[PHASE_COUNT].record_ns(total_ns);
            STATUS_COUNTS[a.status as usize].fetch_add(1, Ordering::Relaxed);
            let (fast_burn, fast_total) = {
                let mut slo = SLO.lock().expect("slo state poisoned");
                let s = slo.get_or_insert_with(|| SloState::new(SloConfig::default()));
                s.record(total_ns);
                let (total, _) = s.fast.tally(s.anchor.elapsed().as_secs());
                (s.burn_rate(&s.fast), total)
            };
            offer_exemplar(&a, total_ns);
            // A fast-window burn rate ≥ 10× budget is a flight trigger
            // once enough requests back it (a cold first request alone
            // must not dump). The dump itself is rate-limited, so a
            // sustained breach costs one bundle, not one per request.
            if fast_burn >= BURN_DUMP_THRESHOLD && fast_total >= BURN_DUMP_MIN_REQUESTS {
                crate::flight::dump("slo-burn-rate");
            }
            crate::record::emit_trace_event(
                a.id,
                a.status,
                total_ns,
                &a.phase_ns,
                a.batch_id,
                a.batch_size,
            );
        }
    }

    /// Keeps the worst [`EXEMPLAR_CAP`] traces by total latency,
    /// slowest first.
    fn offer_exemplar(a: &Active, total_ns: u64) {
        let mut ring = EXEMPLARS.lock().expect("exemplar ring poisoned");
        if ring.len() >= EXEMPLAR_CAP && ring.last().is_some_and(|w| total_ns <= w.total_ns) {
            return;
        }
        ring.push(TraceExemplar {
            trace_id: format!("{:016x}", a.id),
            total_ns,
            batch_size: a.batch_size,
            phases: Phase::ALL
                .iter()
                .filter(|p| a.phase_ns[p.index()] > 0)
                .map(|p| (p.label().to_string(), a.phase_ns[p.index()]))
                .collect(),
        });
        ring.sort_by(|x, y| {
            y.total_ns
                .cmp(&x.total_ns)
                .then(x.trace_id.cmp(&y.trace_id))
        });
        ring.truncate(EXEMPLAR_CAP);
    }
}

#[cfg(not(feature = "record"))]
mod imp {
    use super::*;

    /// Zero-sized trace stub (no-op build).
    pub struct RequestTrace;

    impl RequestTrace {
        /// No-op.
        #[inline(always)]
        pub fn begin() -> RequestTrace {
            RequestTrace
        }

        /// Always `false` in the no-op build.
        #[inline(always)]
        pub fn active(&self) -> bool {
            false
        }

        /// Always `None` in the no-op build.
        #[inline(always)]
        pub fn id_hex(&self) -> Option<String> {
            None
        }

        /// Always `None` in the no-op build.
        #[inline(always)]
        pub fn id(&self) -> Option<u64> {
            None
        }

        /// No-op.
        #[inline(always)]
        pub fn mark(&mut self, _phase: Phase) {}

        /// No-op.
        #[inline(always)]
        pub fn add_phase_ns(&mut self, _phase: Phase, _ns: u64) {}

        /// No-op.
        #[inline(always)]
        pub fn absorb_batch(
            &mut self,
            _queue_ns: u64,
            _collect_ns: u64,
            _infer_ns: u64,
            _batch_id: u64,
            _batch_size: u64,
        ) {
        }

        /// No-op.
        #[inline(always)]
        pub fn set_status(&mut self, _status: TraceStatus) {}

        /// No-op.
        #[inline(always)]
        pub fn finish(self) {}
    }

    /// No-op.
    #[inline(always)]
    pub fn configure_slo(_cfg: SloConfig) {}

    /// Always empty (and a valid, empty OpenMetrics exposition).
    #[inline(always)]
    pub fn snapshot() -> TraceSnapshot {
        TraceSnapshot::default()
    }
}

#[cfg(feature = "record")]
pub(crate) use imp::reset_state;
pub use imp::{configure_slo, snapshot, RequestTrace};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_labels_and_order_are_stable() {
        let labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            ["parse", "queue", "collect", "infer", "dispatch", "write"]
        );
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn bucket_quantiles_from_counts() {
        let mut b = PhaseBuckets {
            phase: "total".into(),
            counts: vec![0; BUCKET_COUNT],
            count: 0,
            sum_s: 0.0,
        };
        assert!(b.quantile(0.5).is_nan());
        // 90 observations in the 1 ms bucket, 10 in the 50 ms bucket.
        b.counts[4] = 90;
        b.counts[9] = 10;
        b.count = 100;
        assert_eq!(b.quantile(0.5), 1e-3);
        assert_eq!(b.quantile(0.9), 1e-3);
        assert_eq!(b.quantile(0.99), 50e-3);
        let cum = b.cumulative();
        assert_eq!(cum.last().copied(), Some(100));
        assert!(cum.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn overflow_bucket_quantile_reports_last_finite_bound() {
        let mut counts = vec![0; BUCKET_COUNT];
        counts[BUCKET_COUNT - 1] = 5;
        let b = PhaseBuckets {
            phase: "total".into(),
            counts,
            count: 5,
            sum_s: 10.0,
        };
        assert_eq!(b.quantile(0.99), BUCKET_BOUNDS_S[BUCKET_BOUNDS_S.len() - 1]);
    }
}
