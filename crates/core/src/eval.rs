//! The evaluation layer: fixed and rolling forecasting strategies
//! (Figure 6 of the paper), consistent normalization, per-window metric
//! aggregation, inference timing, and the "drop last" ablation switch.
//!
//! Rolling forecasting honours the paper's training-economy split:
//! statistical methods are *refit on the full history of every iteration*;
//! window-based (ML/DL) methods are trained once on the training region and
//! only re-infer on the trailing look-back window of each iteration
//! (Section 4.3.1).

use crate::method::Method;
use crate::metrics::{compute, Metric, MetricContext};
use crate::{CoreError, Result};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tfb_data::{ChronoSplit, MultiSeries, Normalization, Normalizer, SplitRatio};
use tfb_math::matrix::Matrix;

/// Which forecasting strategy to evaluate with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Fixed forecasting: one forecast of the final `horizon` points
    /// (Figure 6a) — TFB's univariate protocol.
    Fixed,
    /// Rolling forecasting with the given stride (Figure 6b) — TFB's
    /// multivariate protocol.
    Rolling {
        /// How far the history grows between iterations.
        stride: usize,
    },
}

/// A user-defined metric: a label plus a `(forecast, actual) -> value`
/// function — the evaluation layer's "customized metrics" extension point.
pub type CustomMetric = (&'static str, fn(&[f64], &[f64]) -> f64);

/// Everything an evaluation needs besides the method and the data.
#[derive(Debug, Clone)]
pub struct EvalSettings {
    /// Strategy (fixed or rolling).
    pub strategy: Strategy,
    /// Look-back window `H` for window-based methods.
    pub lookback: usize,
    /// Forecast horizon `F`.
    pub horizon: usize,
    /// Chronological split.
    pub split: SplitRatio,
    /// Normalization fitted on the training region.
    pub normalization: Normalization,
    /// Metrics to report.
    pub metrics: Vec<Metric>,
    /// User-defined metrics, reported next to the built-in eight.
    pub custom_metrics: Vec<CustomMetric>,
    /// Cap on rolling iterations (0 = all); iterations are subsampled
    /// evenly when the cap binds, never "drop last"-style truncated.
    pub max_windows: usize,
    /// The Table 2 ablation: when `Some((batch, true))`, the trailing
    /// windows that do not fill a complete batch are *discarded*, exactly
    /// reproducing the unfair "drop last" behaviour. `None` (TFB default)
    /// keeps every window.
    pub drop_last: Option<(usize, bool)>,
    /// Run window methods through one [`predict_batch`] call over all
    /// rolling windows instead of a per-window loop. Results are
    /// bit-identical either way; this only changes the execution shape.
    ///
    /// [`predict_batch`]: tfb_models::WindowForecaster::predict_batch
    pub batch_inference: bool,
    /// Worker threads for statistical-method rolling boundaries: `0` uses
    /// one per available core, `1` evaluates sequentially. Metric sums are
    /// reduced in boundary order, so every setting yields bit-identical
    /// outcomes.
    pub window_parallelism: usize,
}

impl EvalSettings {
    /// TFB's default multivariate rolling evaluation.
    pub fn rolling(lookback: usize, horizon: usize, split: SplitRatio) -> EvalSettings {
        EvalSettings {
            strategy: Strategy::Rolling { stride: 1 },
            lookback,
            horizon,
            split,
            normalization: Normalization::ZScore,
            metrics: vec![Metric::Mae, Metric::Mse],
            custom_metrics: Vec::new(),
            max_windows: 0,
            drop_last: None,
            batch_inference: true,
            window_parallelism: 0,
        }
    }

    /// TFB's univariate fixed-forecast evaluation (`H = 1.25 F`).
    pub fn fixed(horizon: usize) -> EvalSettings {
        EvalSettings {
            strategy: Strategy::Fixed,
            lookback: ((horizon as f64) * 1.25).ceil() as usize,
            horizon,
            split: SplitRatio::R712,
            normalization: Normalization::None,
            metrics: vec![Metric::Mase, Metric::Msmape],
            custom_metrics: Vec::new(),
            max_windows: 1,
            drop_last: None,
            batch_inference: true,
            window_parallelism: 0,
        }
    }
}

/// Aggregated outcome of one (method, dataset, settings) evaluation.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// Method name.
    pub method: String,
    /// Dataset name.
    pub dataset: String,
    /// Horizon evaluated.
    pub horizon: usize,
    /// Look-back used.
    pub lookback: usize,
    /// Metric label → average value over windows.
    pub metrics: BTreeMap<String, f64>,
    /// Number of evaluation windows.
    pub n_windows: usize,
    /// Wall-clock training time (window methods; zero for statistical).
    pub train_time: Duration,
    /// Average inference time per window.
    pub infer_time: Duration,
    /// Parameter count (0 for statistical methods).
    pub parameters: usize,
}

impl EvalOutcome {
    /// Value of one metric (NaN when absent).
    pub fn metric(&self, m: Metric) -> f64 {
        self.metrics.get(m.label()).copied().unwrap_or(f64::NAN)
    }
}

/// Evaluates a method on a dataset under the given settings.
pub fn evaluate(
    method: &mut Method,
    series: &MultiSeries,
    settings: &EvalSettings,
) -> Result<EvalOutcome> {
    let _eval_span = tfb_obs::span!("eval", dataset = series.name, method = method.name());
    match settings.strategy {
        Strategy::Fixed => evaluate_fixed(method, series, settings),
        Strategy::Rolling { stride } => evaluate_rolling(method, series, settings, stride),
    }
}

/// Fixed forecasting: train on everything except the final horizon,
/// forecast the final horizon once.
fn evaluate_fixed(
    method: &mut Method,
    series: &MultiSeries,
    settings: &EvalSettings,
) -> Result<EvalOutcome> {
    let n = series.len();
    let f = settings.horizon;
    let l = settings.lookback;
    if n <= f || (matches!(method, Method::Window(_)) && n < l + f) {
        return Err(CoreError::Eval(format!(
            "series {} too short ({n}) for fixed forecast with F={f}, H={l}",
            series.name
        )));
    }
    let history = series.slice_rows(0..n - f);
    let norm = Normalizer::fit(&history, settings.normalization);
    let history_n = norm.apply(&history)?;
    let actual_block: Vec<f64> = norm.apply(series)?.values()[(n - f) * series.dim()..].to_vec();
    let mut train_time = Duration::ZERO;
    let start = Instant::now();
    let forecast = match method {
        Method::Stat(m) => {
            let _infer_span = tfb_obs::span!("infer");
            m.forecast(&history_n, f)?
        }
        Method::Window(m) => {
            let t0 = Instant::now();
            {
                let _train_span = tfb_obs::span!("train");
                m.train(&history_n)?;
            }
            train_time = t0.elapsed();
            let _infer_span = tfb_obs::span!("infer");
            let window = history_n.values()[(history.len() - l) * series.dim()..].to_vec();
            m.predict(&window, series.dim())?
        }
    };
    let infer_time = start.elapsed().saturating_sub(train_time);
    check_forecast_finite(&forecast, &series.name, method.name())?;
    // Metrics on the original scale for fixed (univariate) evaluation.
    let mut forecast_denorm = forecast.clone();
    norm.invert_block(&mut forecast_denorm, series.dim())?;
    let mut actual_denorm = actual_block.clone();
    norm.invert_block(&mut actual_denorm, series.dim())?;
    let train_ch = history.channel(0);
    let ctx = MetricContext {
        train: Some(&train_ch),
        period: series.frequency.default_period(),
    };
    let metrics_span = tfb_obs::span!("metrics");
    let mut out = BTreeMap::new();
    for &m in &settings.metrics {
        out.insert(
            m.label().to_string(),
            compute(m, &forecast_denorm, &actual_denorm, ctx),
        );
    }
    for (label, f) in &settings.custom_metrics {
        out.insert((*label).to_string(), f(&forecast_denorm, &actual_denorm));
    }
    metrics_span.close();
    tfb_obs::counter!("eval/windows").add(1);
    if out.values().any(|v| !v.is_finite()) {
        tfb_obs::health_event(tfb_obs::HealthKind::Nan, "non-finite averaged metric");
    }
    Ok(EvalOutcome {
        method: method.name().to_string(),
        dataset: series.name.clone(),
        horizon: f,
        lookback: l,
        metrics: out,
        n_windows: 1,
        train_time,
        infer_time,
        parameters: method.parameter_count(),
    })
}

/// NaN/Inf sentinel on a produced forecast: a non-finite value would
/// silently poison every downstream metric average, so the cell aborts
/// with a structured health event instead. Must run on the thread whose
/// span stack carries the eval's dataset/method context.
fn check_forecast_finite(forecast: &[f64], dataset: &str, method: &str) -> Result<()> {
    if let Some(pos) = forecast.iter().position(|v| !v.is_finite()) {
        tfb_obs::health_event(tfb_obs::HealthKind::Nan, "non-finite forecast value");
        return Err(CoreError::Model(tfb_models::ModelError::Numerical(
            format!("non-finite forecast value at index {pos} ({method} on {dataset})"),
        )));
    }
    Ok(())
}

/// Rolling forecasting over the test region.
fn evaluate_rolling(
    method: &mut Method,
    series: &MultiSeries,
    settings: &EvalSettings,
    stride: usize,
) -> Result<EvalOutcome> {
    let n = series.len();
    let f = settings.horizon;
    let l = settings.lookback;
    let dim = series.dim();
    let split = ChronoSplit::split(series, settings.split)?;
    let test_start = split.test_start;
    if test_start < l || n < test_start + f {
        return Err(CoreError::Eval(format!(
            "series {} too short for rolling eval (n={n}, test_start={test_start}, F={f}, H={l})",
            series.name
        )));
    }
    // Normalize everything with training statistics (Issue 3: consistent
    // handling for every method).
    let norm = Normalizer::fit(&split.train, settings.normalization);
    let normed = norm.apply(series)?;
    // Enumerate forecast boundaries in the test region.
    let stride = stride.max(1);
    let mut boundaries: Vec<usize> = (test_start..=(n - f)).step_by(stride).collect();
    // The "drop last" ablation discards the trailing partial batch.
    if let Some((batch, true)) = settings.drop_last {
        let keep = (boundaries.len() / batch.max(1)) * batch.max(1);
        boundaries.truncate(keep);
        if boundaries.is_empty() {
            return Err(CoreError::Eval("drop_last removed every window".into()));
        }
    }
    // Even subsampling under a window budget (bias-free, unlike drop-last).
    if settings.max_windows > 0 && boundaries.len() > settings.max_windows {
        let step = boundaries.len() as f64 / settings.max_windows as f64;
        boundaries = (0..settings.max_windows)
            .map(|i| boundaries[(i as f64 * step) as usize])
            .collect();
    }
    let mut train_time = Duration::ZERO;
    if let Method::Window(m) = method {
        // Window methods see the same normalization as evaluation.
        let train_normed = normed.slice_rows(0..split.val_start);
        let _train_span = tfb_obs::span!("train");
        let t0 = Instant::now();
        m.train(&train_normed)?;
        train_time = t0.elapsed();
    }
    let train_ch = normed.slice_rows(0..split.val_start).channel(0);
    let ctx_period = series.frequency.default_period();
    // Per-boundary metric evaluation, shared by every execution shape.
    let metric_values = |forecast: &[f64], actual: &[f64]| -> Vec<f64> {
        let ctx = MetricContext {
            train: Some(&train_ch),
            period: ctx_period,
        };
        settings
            .metrics
            .iter()
            .map(|&m| compute(m, forecast, actual, ctx))
            .chain(
                settings
                    .custom_metrics
                    .iter()
                    .map(|(_, f)| f(forecast, actual)),
            )
            .collect()
    };
    let actual_at = |t: usize| &normed.values()[t * dim..(t + f) * dim];
    let method_name = method.name().to_string();
    let mut infer_total = Duration::ZERO;
    // One `Some(metric values)` per boundary, `None` for unusable windows
    // (a statistical method that cannot fit that history). Filled batched,
    // in parallel, or sequentially — then reduced in boundary order below,
    // so the execution shape never changes the outcome.
    let per_boundary: Vec<Option<Vec<f64>>> = match method {
        Method::Window(m) if settings.batch_inference => {
            // Materialize every look-back window once and predict them all
            // in a single batched call.
            let mut windows = Matrix::zeros(boundaries.len(), l * dim);
            for (i, &t) in boundaries.iter().enumerate() {
                windows.data_mut()[i * l * dim..(i + 1) * l * dim]
                    .copy_from_slice(&normed.values()[(t - l) * dim..t * dim]);
            }
            let infer_span = tfb_obs::span!("infer");
            let t0 = Instant::now();
            let forecasts = m.predict_batch(&windows, dim)?;
            infer_total = t0.elapsed();
            infer_span.close();
            for i in 0..boundaries.len() {
                check_forecast_finite(forecasts.row(i), &series.name, &method_name)?;
            }
            let _metrics_span = tfb_obs::span!("metrics");
            boundaries
                .iter()
                .enumerate()
                .map(|(i, &t)| Some(metric_values(forecasts.row(i), actual_at(t))))
                .collect()
        }
        Method::Window(m) => {
            let _infer_span = tfb_obs::span!("infer");
            boundaries
                .iter()
                .map(|&t| {
                    let window = &normed.values()[(t - l) * dim..t * dim];
                    let t0 = Instant::now();
                    let forecast = m.predict(window, dim)?;
                    infer_total += t0.elapsed();
                    check_forecast_finite(&forecast, &series.name, &method_name)?;
                    Ok(Some(metric_values(&forecast, actual_at(t))))
                })
                .collect::<Result<Vec<_>>>()?
        }
        Method::Stat(m) => {
            let _infer_span = tfb_obs::span!("infer");
            let workers = match settings.window_parallelism {
                0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
                n => n,
            }
            .min(boundaries.len())
            .max(1);
            let eval_boundary = |t: usize| -> Option<(Vec<f64>, Duration)> {
                // Refit on the full history up to the boundary; a history
                // this method cannot fit makes the window unusable.
                let history = normed.slice_rows(0..t);
                let t0 = Instant::now();
                let forecast = m.forecast(&history, f).ok()?;
                let spent = t0.elapsed();
                Some((metric_values(&forecast, actual_at(t)), spent))
            };
            // One worker runs inline: the fixed protocol evaluates a single
            // boundary per method, where a thread would cost more than it.
            let timed: Vec<Option<(Vec<f64>, Duration)>> = if workers < 2 {
                boundaries.iter().map(|&t| eval_boundary(t)).collect()
            } else {
                crate::runner::par_map(&boundaries, workers, |&t| eval_boundary(t))
            };
            timed
                .into_iter()
                .map(|r| {
                    r.map(|(values, spent)| {
                        infer_total += spent;
                        values
                    })
                })
                .collect()
        }
    };
    // Deterministic ordered reduction: sum each metric over boundaries in
    // ascending boundary order, exactly as the sequential loop would.
    let labels: Vec<&'static str> = settings
        .metrics
        .iter()
        .map(|m| m.label())
        .chain(settings.custom_metrics.iter().map(|(label, _)| *label))
        .collect();
    let mut sums = vec![0.0; labels.len()];
    let mut evaluated = 0usize;
    for values in per_boundary.into_iter().flatten() {
        for (acc, v) in sums.iter_mut().zip(&values) {
            *acc += v;
        }
        evaluated += 1;
    }
    if evaluated == 0 {
        return Err(CoreError::Eval(format!(
            "method {} produced no usable windows on {}",
            method.name(),
            series.name
        )));
    }
    tfb_obs::counter!("eval/windows").add(evaluated as u64);
    let metrics: BTreeMap<String, f64> = labels
        .into_iter()
        .zip(&sums)
        .map(|(k, v)| (k.to_string(), v / evaluated as f64))
        .collect();
    // Post-hoc sentinel for the paths whose windows evaluate off the eval
    // thread (stat workers carry no span context): a non-finite averaged
    // metric flags the cell in the manifest's health section without
    // dropping it from the report.
    if metrics.values().any(|v| !v.is_finite()) {
        tfb_obs::health_event(tfb_obs::HealthKind::Nan, "non-finite averaged metric");
    }
    Ok(EvalOutcome {
        method: method.name().to_string(),
        dataset: series.name.clone(),
        horizon: f,
        lookback: l,
        metrics,
        n_windows: evaluated,
        train_time,
        infer_time: infer_total / evaluated.max(1) as u32,
        parameters: method.parameter_count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::build_method;
    use tfb_data::{Domain, Frequency};

    fn seasonal_series(n: usize) -> MultiSeries {
        // Deterministic jitter keeps the seasonal-naive MASE denominator
        // away from zero.
        let xs: Vec<f64> = (0..n)
            .map(|t| {
                10.0 + 3.0 * (std::f64::consts::TAU * t as f64 / 24.0).sin()
                    + 0.05 * ((t as f64 * 12.9898).sin() * 43758.5453).fract()
            })
            .collect();
        MultiSeries::from_channels("test", Frequency::Hourly, Domain::Electricity, &[xs]).unwrap()
    }

    #[test]
    fn fixed_eval_runs_stat_method() {
        let s = seasonal_series(200);
        let mut m = build_method("SeasonalNaive", 30, 24, 1, None).unwrap();
        let settings = EvalSettings::fixed(24);
        let out = evaluate(&mut m, &s, &settings).unwrap();
        assert_eq!(out.n_windows, 1);
        assert!(out.metric(Metric::Mase).is_finite());
        // A perfectly periodic series is nailed by seasonal naive.
        assert!(out.metric(Metric::Msmape) < 1.0, "{:?}", out.metrics);
    }

    #[test]
    fn rolling_eval_runs_window_method() {
        let s = seasonal_series(400);
        let mut m = build_method("LR", 48, 24, 1, None).unwrap();
        let settings = EvalSettings::rolling(48, 24, SplitRatio::R712);
        let out = evaluate(&mut m, &s, &settings).unwrap();
        assert!(out.n_windows > 10);
        assert!(out.metric(Metric::Mae) < 0.3, "{:?}", out.metrics);
        assert!(out.parameters > 0);
    }

    #[test]
    fn rolling_eval_runs_stat_method_with_refit() {
        let s = seasonal_series(300);
        let mut m = build_method("Naive", 24, 12, 1, None).unwrap();
        let mut settings = EvalSettings::rolling(24, 12, SplitRatio::R712);
        settings.max_windows = 5;
        let out = evaluate(&mut m, &s, &settings).unwrap();
        assert_eq!(out.n_windows, 5);
        assert_eq!(out.parameters, 0);
    }

    #[test]
    fn drop_last_reduces_window_count() {
        let s = seasonal_series(400);
        let settings_all = EvalSettings::rolling(48, 24, SplitRatio::R712);
        let mut settings_drop = settings_all.clone();
        settings_drop.drop_last = Some((32, true));
        let mut m1 = build_method("Naive", 48, 24, 1, None).unwrap();
        let mut m2 = build_method("Naive", 48, 24, 1, None).unwrap();
        let all = evaluate(&mut m1, &s, &settings_all).unwrap();
        let dropped = evaluate(&mut m2, &s, &settings_drop).unwrap();
        assert!(dropped.n_windows < all.n_windows);
        assert_eq!(dropped.n_windows % 32, 0);
    }

    #[test]
    fn max_windows_subsamples_evenly() {
        let s = seasonal_series(400);
        let mut settings = EvalSettings::rolling(48, 24, SplitRatio::R712);
        settings.max_windows = 7;
        let mut m = build_method("Naive", 48, 24, 1, None).unwrap();
        let out = evaluate(&mut m, &s, &settings).unwrap();
        assert_eq!(out.n_windows, 7);
    }

    #[test]
    fn too_short_series_errors() {
        let s = seasonal_series(30);
        let mut m = build_method("Naive", 24, 24, 1, None).unwrap();
        let settings = EvalSettings::rolling(24, 24, SplitRatio::R712);
        assert!(evaluate(&mut m, &s, &settings).is_err());
    }

    #[test]
    fn custom_metrics_are_reported() {
        fn max_abs_error(forecast: &[f64], actual: &[f64]) -> f64 {
            forecast
                .iter()
                .zip(actual)
                .map(|(f, y)| (f - y).abs())
                .fold(0.0, f64::max)
        }
        let s = seasonal_series(300);
        let mut settings = EvalSettings::rolling(24, 12, SplitRatio::R712);
        settings.custom_metrics = vec![("max_abs_error", max_abs_error)];
        settings.max_windows = 5;
        let mut m = build_method("Naive", 24, 12, 1, None).unwrap();
        let out = evaluate(&mut m, &s, &settings).unwrap();
        let custom = out.metrics["max_abs_error"];
        assert!(custom.is_finite());
        // max error dominates the mean error.
        assert!(custom >= out.metric(Metric::Mae));
    }

    #[test]
    fn batched_inference_matches_per_window_for_every_window_method() {
        // Every ML and DL method must produce bit-identical rolling metrics
        // whether windows are predicted one at a time or in one batch.
        let s = seasonal_series(260);
        let quick = tfb_nn::TrainConfig {
            epochs: 2,
            batch_size: 16,
            lr: 0.01,
            max_samples: 128,
            patience: 5,
            val_fraction: 0.2,
            seed: 0,
            ..tfb_nn::TrainConfig::default()
        };
        for name in crate::method::ML_METHODS
            .iter()
            .chain(&crate::method::DL_METHODS)
        {
            let mut batched_settings = EvalSettings::rolling(24, 8, SplitRatio::R712);
            batched_settings.max_windows = 6;
            let mut single_settings = batched_settings.clone();
            single_settings.batch_inference = false;
            let mut m1 = build_method(name, 24, 8, 1, Some(quick)).unwrap();
            let mut m2 = build_method(name, 24, 8, 1, Some(quick)).unwrap();
            let batched =
                evaluate(&mut m1, &s, &batched_settings).unwrap_or_else(|e| panic!("{name}: {e}"));
            let single =
                evaluate(&mut m2, &s, &single_settings).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(batched.n_windows, single.n_windows, "{name}");
            assert_eq!(batched.metrics, single.metrics, "{name}");
        }
    }

    #[test]
    fn parallel_stat_boundaries_match_sequential_exactly() {
        let s = seasonal_series(400);
        for name in ["Naive", "Mean", "Drift", "Theta", "ETS"] {
            let mut sequential = EvalSettings::rolling(24, 12, SplitRatio::R712);
            sequential.window_parallelism = 1;
            let mut parallel = sequential.clone();
            parallel.window_parallelism = 4;
            let mut auto = sequential.clone();
            auto.window_parallelism = 0;
            let mut m = build_method(name, 24, 12, 1, None).unwrap();
            let seq = evaluate(&mut m, &s, &sequential).unwrap();
            let par = evaluate(&mut m, &s, &parallel).unwrap();
            let aut = evaluate(&mut m, &s, &auto).unwrap();
            assert_eq!(seq.n_windows, par.n_windows, "{name}");
            assert_eq!(seq.metrics, par.metrics, "{name}");
            assert_eq!(seq.metrics, aut.metrics, "{name}");
        }
    }

    #[test]
    fn normalization_is_fitted_on_train_only() {
        // A series with a huge shift in the test region: z-scores computed
        // on the whole series would shrink training values; fitted on train
        // only, the train region must have ~unit variance.
        let mut xs: Vec<f64> = (0..200).map(|t| (t as f64 * 0.7).sin()).collect();
        xs.extend((0..50).map(|_| 1000.0));
        let s = MultiSeries::from_channels("sh", Frequency::Hourly, Domain::Stock, &[xs]).unwrap();
        let split = ChronoSplit::split(&s, SplitRatio::R712).unwrap();
        let norm = Normalizer::fit(&split.train, Normalization::ZScore);
        let train_n = norm.apply(&split.train).unwrap();
        let var: f64 = {
            let ch = train_n.channel(0);
            let m: f64 = ch.iter().sum::<f64>() / ch.len() as f64;
            ch.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / ch.len() as f64
        };
        assert!((var - 1.0).abs() < 1e-6);
    }
}
