//! `tfb-serve`: a std-only threaded HTTP/1.1 forecast server over a
//! loaded model artifact.
//!
//! The serving path is the benchmark's batched-inference engine turned
//! online: concurrent `POST /forecast` requests that queue while a
//! predict runs are combined ([`coalescer`]) into one `predict_batch`
//! call whose outputs are bit-identical to per-request `predict` — so
//! serving changes latency, never forecasts. A bounded
//! queue sheds overload with `429 Retry-After` (backpressure instead of
//! unbounded memory), and SIGTERM/SIGINT (or `POST /shutdown`) drain
//! gracefully: every accepted request is answered before the process
//! exits.
//!
//! Observability: every request is traced end-to-end
//! ([`tfb_obs::trace`]) — the response echoes the trace id as
//! `x-tfb-trace-id`, per-phase wall time (parse / queue / collect /
//! infer / dispatch / write) feeds bucketed histograms and the SLO
//! burn-rate tracker, and `GET /metrics` serves the whole state as an
//! OpenMetrics text exposition (`GET /metrics.json` keeps the raw JSON
//! snapshot).
//!
//! Fleet serving: `POST /v1/forecast/{name[@label]}` routes each
//! request to a model resolved through a [`tfb_registry::Fleet`] — an
//! LRU of resident models over the content-addressed registry, with
//! mmap zero-copy cold loads, hot swap on publish, and shadow/canary
//! mirroring ([`canary`]) whose drain-time stats feed the
//! `tfb registry promote` gate. The coalescer batches per model
//! instance, so multi-tenant traffic still funnels through
//! `predict_batch` without ever mixing models in one forward pass.
//! `tfb serve --model` materializes a one-entry in-memory fleet, so the
//! single-model surface is unchanged.
//!
//! The crate is buildable with obs recording off
//! (`--no-default-features` at the binary): every probe compiles to a
//! zero-sized no-op and `/metrics` returns an empty-but-valid
//! exposition.

pub mod canary;
pub mod coalescer;
pub mod http;
pub mod observe;
pub mod server;

pub use canary::CanaryStats;
pub use coalescer::{
    BatchOutcome, BatchPredictor, Coalescer, CoalescerConfig, SubmitError, Ticket,
};
pub use observe::{ObserveConfig, ObserveHub};
pub use server::{
    install_signal_handlers, serve, serve_fleet, serve_with, signal_received, DrainReport,
    ModelInfo, ServerConfig, ServerHandle,
};
