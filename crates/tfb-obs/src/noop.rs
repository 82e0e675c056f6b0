//! The compile-time no-op recorder: every entry point of `record.rs`
//! mirrored as an empty inline function over zero-sized types. Built when
//! the `record` feature is off, this makes instrumented call sites in the
//! rest of the workspace provably free — there is no atomic, no branch,
//! nothing for the optimizer to even remove.

use crate::manifest::{HealthKind, Manifest, MetricsSnapshot};
use std::fmt::Display;
use std::path::PathBuf;

/// Always `false` in the no-op build.
#[inline(always)]
pub fn enabled() -> bool {
    false
}

/// No-op.
#[inline(always)]
pub fn report_metric(_dataset: &str, _method: &str, _horizon: usize, _name: &str, _value: f64) {}

/// No-op.
#[inline(always)]
pub fn health_event(_kind: HealthKind, _detail: &str) {}

/// No-op.
#[inline(always)]
pub fn record_grad_norm(_value: f64) {}

/// Mirrors [`record::RunOptions`](crate::RunOptions); carried for API
/// parity, never read.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Ignored in the no-op build.
    pub events_path: Option<PathBuf>,
}

/// No-op; always succeeds.
#[inline(always)]
pub fn start_run(_opts: RunOptions) -> std::io::Result<()> {
    Ok(())
}

/// No-op; there is never an active run.
#[inline(always)]
pub fn finish_run(_meta: &[(&str, String)]) -> Option<Manifest> {
    None
}

/// Always empty; there are no live registries in the no-op build.
#[inline(always)]
pub fn metrics_snapshot() -> MetricsSnapshot {
    MetricsSnapshot::default()
}

/// Zero-sized span guard.
#[must_use = "a span measures the scope it is bound to; bind it to a variable"]
pub struct Span;

impl Span {
    /// No-op.
    #[inline(always)]
    pub fn enter(_name: &'static str) -> Span {
        Span
    }

    /// No-op.
    #[inline(always)]
    pub fn with(self, _key: &'static str, _value: &dyn Display) -> Span {
        self
    }

    /// No-op.
    #[inline(always)]
    pub fn record(self, _key: &'static str, _value: f64) -> Span {
        self
    }

    /// No-op.
    #[inline(always)]
    pub fn close(self) {}
}

/// Zero-sized counter stub.
pub struct Counter;

impl Counter {
    /// No-op (const: usable in statics).
    pub const fn new(_name: &'static str) -> Counter {
        Counter
    }

    /// No-op.
    #[inline(always)]
    pub fn add(&self, _n: u64) {}

    /// Always zero.
    #[inline(always)]
    pub fn value(&self) -> u64 {
        0
    }
}

/// Zero-sized gauge stub.
pub struct Gauge;

impl Gauge {
    /// No-op (const: usable in statics).
    pub const fn new(_name: &'static str) -> Gauge {
        Gauge
    }

    /// No-op.
    #[inline(always)]
    pub fn set(&self, _v: f64) {}

    /// Always zero.
    #[inline(always)]
    pub fn get(&self) -> f64 {
        0.0
    }
}

/// Zero-sized histogram stub.
pub struct Histogram;

impl Histogram {
    /// No-op (const: usable in statics).
    pub const fn new(_name: &'static str) -> Histogram {
        Histogram
    }

    /// No-op.
    #[inline(always)]
    pub fn record(&self, _v: f64) {}
}
