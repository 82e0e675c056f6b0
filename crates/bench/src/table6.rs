//! The Table 6 protocol: each univariate series is characterized and
//! forecast by every method (fixed forecasting, horizon `F` per frequency
//! group, look-back `H = 1.25 F`), then MASE, MSMAPE and Ranks are
//! aggregated per characteristic, present and absent.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use tfb_characteristics::CharacteristicVector;
use tfb_core::eval::{evaluate, EvalSettings};
use tfb_core::method::build_method;
use tfb_core::Metric;
use tfb_data::{MultiSeries, UniSeries};
use tfb_datagen::univariate::UnivariateArchive;
use tfb_nn::TrainConfig;

/// The characteristics Table 6 groups by, in column order of
/// [`SeriesResult::tags`].
pub const CHARACTERISTICS: [&str; 5] = [
    "Seasonality",
    "Trend",
    "Stationarity",
    "Transition",
    "Shifting",
];

/// One series' characteristic tags and per-method scores.
pub struct SeriesResult {
    /// Presence of each of [`CHARACTERISTICS`].
    pub tags: [bool; 5],
    /// method -> (mase, msmape)
    pub scores: BTreeMap<&'static str, (f64, f64)>,
}

/// Characterizes `s` and forecasts it with every method that builds.
pub fn score_series(s: &UniSeries, methods: &[&'static str], train: TrainConfig) -> SeriesResult {
    let horizon = UnivariateArchive::horizon_for(s.frequency);
    let t = CharacteristicVector::of_series(s).tag(Default::default());
    let tags = [
        t.seasonality,
        t.trend,
        t.stationary,
        t.transition,
        t.shifting,
    ];
    let multi = MultiSeries::from_uni(s);
    let mut scores = BTreeMap::new();
    for &method_name in methods {
        let settings = EvalSettings::fixed(horizon);
        let Ok(mut method) = build_method(method_name, settings.lookback, horizon, 1, Some(train))
        else {
            continue;
        };
        if let Ok(out) = evaluate(&mut method, &multi, &settings) {
            scores.insert(
                method_name,
                (out.metric(Metric::Mase), out.metric(Metric::Msmape)),
            );
        }
    }
    SeriesResult { tags, scores }
}

/// Mean MASE/MSMAPE per method over finite scores, plus Ranks (the
/// number of series where the method has the best MSMAPE), per
/// characteristic present and absent. Returns the markdown tables and
/// the CSV text; both depend only on the order of `results`.
pub fn aggregate(results: &[SeriesResult]) -> (String, String) {
    let mut md = String::new();
    let mut csv = String::from("characteristic,present,method,mase,msmape,ranks\n");
    for (ci, cname) in CHARACTERISTICS.iter().enumerate() {
        for present in [true, false] {
            let group: Vec<&SeriesResult> =
                results.iter().filter(|r| r.tags[ci] == present).collect();
            if group.is_empty() {
                continue;
            }
            let mut sums: BTreeMap<&str, (f64, f64, usize)> = BTreeMap::new();
            let mut wins: BTreeMap<&str, usize> = BTreeMap::new();
            for r in &group {
                let mut best: Option<(&str, f64)> = None;
                for (&m, &(mase, msmape)) in &r.scores {
                    if mase.is_finite() && msmape.is_finite() {
                        let e = sums.entry(m).or_insert((0.0, 0.0, 0));
                        e.0 += mase;
                        e.1 += msmape;
                        e.2 += 1;
                    }
                    if msmape.is_finite() && best.is_none_or(|(_, b)| msmape < b) {
                        best = Some((m, msmape));
                    }
                }
                if let Some((m, _)) = best {
                    *wins.entry(m).or_insert(0) += 1;
                }
            }
            let _ = writeln!(
                md,
                "\n## {cname} = {} ({} series)",
                if present { "yes" } else { "no" },
                group.len()
            );
            md.push_str("| method | mase | msmape | ranks |\n|---|---|---|---|\n");
            // Order by msmape ascending for readability.
            let mut rows: Vec<(&str, f64, f64, usize)> = sums
                .iter()
                .map(|(&m, &(mase, msm, n))| {
                    let n = n.max(1) as f64;
                    (m, mase / n, msm / n, wins.get(m).copied().unwrap_or(0))
                })
                .collect();
            rows.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal));
            for (m, mase, msmape, ranks) in rows {
                let _ = writeln!(md, "| {m} | {mase:.3} | {msmape:.3} | {ranks} |");
                let _ = writeln!(csv, "{cname},{present},{m},{mase},{msmape},{ranks}");
            }
        }
    }
    (md, csv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfb_core::runner::par_map;

    #[test]
    fn aggregation_is_byte_identical_on_one_and_two_workers() {
        let archive = UnivariateArchive::generate(2_000, 7);
        let series = &archive.series[..6.min(archive.len())];
        let csv = |workers| {
            let results = par_map(series, workers, |s| {
                score_series(s, &["Naive", "LR"], TrainConfig::default())
            });
            aggregate(&results)
        };
        let (md1, csv1) = csv(1);
        let (md2, csv2) = csv(2);
        assert!(csv1.lines().count() > 1, "no rows:\n{csv1}");
        assert_eq!(csv1, csv2);
        assert_eq!(md1, md2);
    }
}
