//! KLV-style measurement capture: sample aggregation and the
//! [`MeasurementRow`] records the harness attaches to every run manifest.
//!
//! A cell execution produces one or more *quantities* (wall time,
//! per-window inference cost, throughput, accuracy scores), each observed
//! over the cell's `iters` repetitions. This module reduces those samples
//! to the rebar-style aggregate — min / median / mean / stddev — and tags
//! the row with the cell's full provenance (suite, engine, dataset,
//! method, characteristic, horizon) so `tfb bench rank` can regenerate
//! per-characteristic method rankings from history alone.

use crate::emit::BenchEntry;
use crate::suite::{Cell, Suite};
use tfb_obs::MeasurementRow;

/// Aggregates of one quantity's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Number of samples.
    pub iters: u64,
    /// Smallest sample — the best estimate of true cost for timings.
    pub min: f64,
    /// Median sample.
    pub median: f64,
    /// Mean sample.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

/// Reduces samples to [`SampleStats`]; non-finite samples are dropped.
/// An all-non-finite input yields NaN aggregates with `iters == 0`.
pub fn stats(samples: &[f64]) -> SampleStats {
    let mut xs: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
    if xs.is_empty() {
        return SampleStats {
            iters: 0,
            min: f64::NAN,
            median: f64::NAN,
            mean: f64::NAN,
            stddev: f64::NAN,
        };
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = xs.len();
    let mean = xs.iter().sum::<f64>() / n as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
    let median = if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    };
    SampleStats {
        iters: n as u64,
        min: xs[0],
        median,
        mean,
        stddev: var.sqrt(),
    }
}

/// Builds the measurement record for one (cell, quantity) over its
/// samples, carrying the cell's full provenance.
pub fn measurement(
    suite: &Suite,
    cell: &Cell,
    quantity: &str,
    unit: &str,
    samples: &[f64],
) -> MeasurementRow {
    let s = stats(samples);
    MeasurementRow {
        name: cell.id.clone(),
        quantity: quantity.to_string(),
        unit: unit.to_string(),
        iters: s.iters,
        min: s.min,
        median: s.median,
        mean: s.mean,
        stddev: s.stddev,
        suite: suite.name.clone(),
        engine: suite.engine.name().to_string(),
        dataset: cell.dataset.clone(),
        method: cell.method.clone(),
        characteristic: cell.characteristic.clone(),
        horizon: cell.horizon as u64,
        calls: 1,
    }
}

/// Renders measurement rows as `<suite>.bench.json` entries
/// (`<cell>/<quantity>`, median value) — a *rendering* of captured
/// measurements, not a separate measurement path.
pub fn to_bench_entries(rows: &[MeasurementRow]) -> Vec<BenchEntry> {
    rows.iter()
        .map(|r| BenchEntry {
            name: format!("{}/{}", r.name, r.quantity),
            value: r.median,
            unit: r.unit.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::parse_suite;
    use std::path::Path;

    fn mini_suite() -> Suite {
        let doc = crate::toml::parse(
            "name = \"eval/x\"\nengine = \"eval\"\n[[entry]]\nname = \"LR-h24\"\nmethod = \"LR\"\ndataset = \"ILI\"\ncharacteristic = \"seasonality\"",
        )
        .unwrap();
        parse_suite(&doc, Path::new("x.toml")).unwrap()
    }

    #[test]
    fn stats_basics() {
        let s = stats(&[3.0, 1.0, 2.0]);
        assert_eq!(s.iters, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.mean, 2.0);
        assert!((s.stddev - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        let even = stats(&[4.0, 1.0, 2.0, 3.0]);
        assert_eq!(even.median, 2.5);
        // Non-finite samples are dropped, not propagated.
        let with_nan = stats(&[1.0, f64::NAN, 3.0]);
        assert_eq!(with_nan.iters, 2);
        assert_eq!(with_nan.median, 2.0);
        assert_eq!(stats(&[]).iters, 0);
        assert!(stats(&[f64::INFINITY]).min.is_nan());
    }

    #[test]
    fn measurement_carries_provenance() {
        let suite = mini_suite();
        let row = measurement(&suite, &suite.cells[0], "wall", "ns", &[2000.0, 1000.0]);
        assert_eq!(row.name, "eval/x/LR-h24");
        assert_eq!(row.quantity, "wall");
        assert_eq!(row.min, 1000.0);
        assert_eq!(row.median, 1500.0);
        assert_eq!(row.suite, "eval/x");
        assert_eq!(row.engine, "eval");
        assert_eq!(row.characteristic, "seasonality");
        assert_eq!(row.horizon, 24);
    }

    #[test]
    fn bench_rendering_uses_the_median() {
        let suite = mini_suite();
        let rows = vec![measurement(
            &suite,
            &suite.cells[0],
            "infer",
            "us/window",
            &[10.0, 30.0, 20.0],
        )];
        let entries = to_bench_entries(&rows);
        assert_eq!(entries[0].name, "eval/x/LR-h24/infer");
        assert_eq!(entries[0].value, 20.0);
        assert_eq!(entries[0].unit, "us/window");
    }
}
