//! ARIMA(p, d, q) via the Hannan–Rissanen two-stage estimator.
//!
//! Stage 1 fits a long autoregression to estimate the innovation sequence;
//! stage 2 regresses the differenced series on its own lags and the lagged
//! innovations. Forecasts iterate the fitted recursion with future
//! innovations set to zero and are integrated back through the `d`
//! differences. Multivariate histories are forecast channel by channel.

use crate::{ModelError, Result, StatForecaster};
use tfb_data::MultiSeries;
use tfb_math::matrix::Matrix;
use tfb_math::regression::ols;

/// ARIMA forecaster. Construct with explicit orders via [`Arima::new`] or
/// let a small AIC grid search pick them with [`Arima::auto`].
#[derive(Debug, Clone, Copy)]
pub struct Arima {
    /// AR order `p` (ignored in auto mode).
    pub p: usize,
    /// Differencing order `d` (ignored in auto mode).
    pub d: usize,
    /// MA order `q` (ignored in auto mode).
    pub q: usize,
    auto: bool,
}

impl Arima {
    /// Fixed orders.
    pub fn new(p: usize, d: usize, q: usize) -> Arima {
        Arima {
            p,
            d,
            q,
            auto: false,
        }
    }

    /// AIC-selected orders over `p, q ∈ {0, 1, 2}`, `d ∈ {0, 1}`.
    pub fn auto() -> Arima {
        Arima {
            p: 2,
            d: 1,
            q: 1,
            auto: true,
        }
    }
}

impl StatForecaster for Arima {
    fn name(&self) -> &'static str {
        "ARIMA"
    }

    fn forecast(&self, history: &MultiSeries, horizon: usize) -> Result<Vec<f64>> {
        let dim = history.dim();
        let mut per_channel = Vec::with_capacity(dim);
        for c in 0..dim {
            let xs = history.channel(c);
            let f = if self.auto {
                forecast_auto(&xs, horizon)?
            } else {
                forecast_fixed(&xs, self.p, self.d, self.q, horizon)?
            };
            per_channel.push(f);
        }
        Ok(crate::interleave_channels(&per_channel))
    }
}

/// Fitted ARIMA parameters for one channel.
#[derive(Debug, Clone)]
struct FittedArima {
    p: usize,
    d: usize,
    q: usize,
    intercept: f64,
    phi: Vec<f64>,
    theta: Vec<f64>,
    /// Differenced series used for fitting.
    w: Vec<f64>,
    /// Innovation estimates aligned with `w`.
    eps: Vec<f64>,
    /// In-sample residual variance (for AIC).
    sigma2: f64,
}

fn difference_keep_tail(xs: &[f64], d: usize) -> (Vec<f64>, Vec<f64>) {
    // Returns the differenced series plus the `d` values needed to
    // integrate forecasts back (the last value at each differencing level).
    let mut cur = xs.to_vec();
    let mut tails = Vec::with_capacity(d);
    for _ in 0..d {
        tails.push(*cur.last().expect("nonempty"));
        cur = cur.windows(2).map(|w| w[1] - w[0]).collect();
    }
    (cur, tails)
}

fn integrate(mut forecast: Vec<f64>, tails: &[f64]) -> Vec<f64> {
    // Undo the differences, innermost first.
    for &tail in tails.iter().rev() {
        let mut level = tail;
        for f in forecast.iter_mut() {
            level += *f;
            *f = level;
        }
    }
    forecast
}

/// Stage-1 innovations of the differenced series `w`: zero for the first
/// `m` points, then the residuals of a long AR(`m`) fit by OLS.
fn innovations(w: &[f64], m: usize) -> Innovations {
    let n = w.len();
    let rows = n - m;
    let mut x = Matrix::zeros(rows, m);
    let mut y = Vec::with_capacity(rows);
    for r in 0..rows {
        let t = r + m;
        y.push(w[t]);
        for i in 0..m {
            x[(r, i)] = w[t - 1 - i];
        }
    }
    let long_ar =
        ols(&x, &y, true).map_err(|e| ModelError::Numerical(format!("stage-1 AR: {e}")))?;
    let mut eps = vec![0.0; m];
    eps.extend_from_slice(&long_ar.residuals);
    Ok(eps)
}

/// The stage-1 innovations of each `(d, m)` a search has needed, errors
/// included: they depend on nothing else, and one series has only a few
/// distinct pairs among its candidates.
#[derive(Default)]
struct Stage1Cache(Vec<((usize, usize), Innovations)>);

/// What [`innovations`] returns.
type Innovations = Result<Vec<f64>>;

impl Stage1Cache {
    fn get(&mut self, w: &[f64], d: usize, m: usize) -> Innovations {
        if let Some((_, eps)) = self.0.iter().find(|(key, _)| *key == (d, m)) {
            return eps.clone();
        }
        let eps = innovations(w, m);
        self.0.push(((d, m), eps.clone()));
        eps
    }
}

fn fit(xs: &[f64], p: usize, d: usize, q: usize) -> Result<FittedArima> {
    fit_cached(xs, p, d, q, &mut Stage1Cache::default())
}

/// [`fit`] with its stage-1 innovations from `cache`.
fn fit_cached(
    xs: &[f64],
    p: usize,
    d: usize,
    q: usize,
    cache: &mut Stage1Cache,
) -> Result<FittedArima> {
    if xs.len() < p.max(q) * 3 + d + 12 {
        return Err(ModelError::InsufficientData("arima history too short"));
    }
    let (w, _) = difference_keep_tail(xs, d);
    let n = w.len();
    // Stage 1: long AR for innovation estimates.
    let m = (p.max(q) + 4).min(n / 4).max(1);
    let eps = cache.get(&w, d, m)?;
    // Stage 2: regress w_t on p lags of w and q lags of eps.
    let start = p.max(q);
    let rows = n - start;
    if rows < p + q + 3 {
        return Err(ModelError::InsufficientData(
            "arima stage-2 underdetermined",
        ));
    }
    let cols = p + q;
    let (intercept, phi, theta, sigma2) = if cols == 0 {
        // ARIMA(0,d,0): white noise around a mean.
        let mean = w.iter().sum::<f64>() / n as f64;
        let var = w.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        (mean, Vec::new(), Vec::new(), var)
    } else {
        let mut x = Matrix::zeros(rows, cols);
        let mut y = Vec::with_capacity(rows);
        for r in 0..rows {
            let t = r + start;
            y.push(w[t]);
            for i in 0..p {
                x[(r, i)] = w[t - 1 - i];
            }
            for j in 0..q {
                x[(r, p + j)] = eps[t - 1 - j];
            }
        }
        let fit2 = ols(&x, &y, true).map_err(|e| ModelError::Numerical(format!("stage-2: {e}")))?;
        let sigma2 = fit2.rss / rows as f64;
        let phi = fit2.coefficients[1..=p].to_vec();
        let theta = fit2.coefficients[p + 1..].to_vec();
        (fit2.coefficients[0], phi, theta, sigma2)
    };
    Ok(FittedArima {
        p,
        d,
        q,
        intercept,
        phi,
        theta,
        w,
        eps,
        sigma2,
    })
}

impl FittedArima {
    fn aic(&self) -> f64 {
        let n = self.w.len() as f64;
        let k = (self.p + self.q + 1) as f64;
        n * self.sigma2.max(1e-300).ln() + 2.0 * k
    }

    fn forecast(&self, tails: &[f64], horizon: usize) -> Vec<f64> {
        // Iterate the recursion with future innovations zero.
        let mut w_ext = self.w.clone();
        let mut eps_ext = self.eps.clone();
        for _ in 0..horizon {
            let t = w_ext.len();
            let mut v = self.intercept;
            for (i, &ph) in self.phi.iter().enumerate() {
                if t > i {
                    v += ph * w_ext[t - 1 - i];
                }
            }
            for (j, &th) in self.theta.iter().enumerate() {
                if t > j {
                    v += th * eps_ext[t - 1 - j];
                }
            }
            // Guard against explosive fits on pathological inputs.
            if !v.is_finite() {
                v = self.intercept;
            }
            w_ext.push(v);
            eps_ext.push(0.0);
        }
        integrate(w_ext[self.w.len()..].to_vec(), tails)
    }
}

fn forecast_fixed(xs: &[f64], p: usize, d: usize, q: usize, horizon: usize) -> Result<Vec<f64>> {
    let fitted = fit(xs, p, d, q)?;
    let (_, tails) = difference_keep_tail(xs, d);
    Ok(fitted.forecast(&tails, horizon))
}

fn forecast_auto(xs: &[f64], horizon: usize) -> Result<Vec<f64>> {
    let mut best: Option<(f64, FittedArima)> = None;
    let mut stage1 = Stage1Cache::default();
    for d in 0..=1usize {
        for p in 0..=2usize {
            for q in 0..=2usize {
                if p == 0 && q == 0 && d == 0 {
                    continue;
                }
                if let Ok(f) = fit_cached(xs, p, d, q, &mut stage1) {
                    let aic = f.aic();
                    if best.as_ref().is_none_or(|(b, _)| aic < *b) {
                        best = Some((aic, f));
                    }
                }
            }
        }
    }
    let (_, fitted) = best.ok_or(ModelError::InsufficientData("no ARIMA candidate fit"))?;
    let (_, tails) = difference_keep_tail(xs, fitted.d);
    Ok(fitted.forecast(&tails, horizon))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tfb_data::{Domain, Frequency};

    fn uni(values: Vec<f64>) -> MultiSeries {
        MultiSeries::from_channels("s", Frequency::Daily, Domain::Other, &[values]).unwrap()
    }

    fn ar1(n: usize, phi: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = vec![0.0; n];
        for t in 1..n {
            xs[t] = phi * xs[t - 1] + rng.gen_range(-0.5..0.5);
        }
        xs
    }

    #[test]
    fn ar1_forecast_decays_towards_mean() {
        let xs = ar1(400, 0.8, 1);
        let last = *xs.last().unwrap();
        let f = Arima::new(1, 0, 0).forecast(&uni(xs), 20).unwrap();
        // With a positive last value, AR(1) forecasts decay monotonically.
        assert!(f[19].abs() < last.abs().max(0.5) + 0.5);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn integrated_model_tracks_linear_trend() {
        let xs: Vec<f64> = (0..200).map(|t| 2.0 * t as f64).collect();
        let f = Arima::new(0, 1, 0).forecast(&uni(xs), 5).unwrap();
        // After first differencing, w == 2 identically, so forecasts
        // continue the line exactly.
        for (h, v) in f.iter().enumerate() {
            assert!((v - (398.0 + 2.0 * (h + 1) as f64)).abs() < 1e-6, "{v}");
        }
    }

    #[test]
    fn forecast_has_right_shape_multichannel() {
        let s = MultiSeries::from_channels(
            "m",
            Frequency::Daily,
            Domain::Other,
            &[ar1(150, 0.5, 2), ar1(150, 0.3, 3)],
        )
        .unwrap();
        let f = Arima::new(1, 0, 1).forecast(&s, 7).unwrap();
        assert_eq!(f.len(), 14);
    }

    #[test]
    fn auto_selects_and_forecasts() {
        let xs = ar1(300, 0.7, 4);
        let f = Arima::auto().forecast(&uni(xs), 10).unwrap();
        assert_eq!(f.len(), 10);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    fn fit_bits(r: &Result<FittedArima>) -> std::result::Result<Vec<u64>, ModelError> {
        let f = r.as_ref().map_err(Clone::clone)?;
        let scalars = [f.intercept, f.sigma2, f.aic()];
        let all = scalars
            .iter()
            .chain(&f.phi)
            .chain(&f.theta)
            .chain(&f.w)
            .chain(&f.eps);
        Ok(all.map(|v| v.to_bits()).collect())
    }

    #[test]
    fn cached_stage1_fits_equal_fresh_fits_for_every_candidate() {
        let mut rng = StdRng::seed_from_u64(17);
        let walk: Vec<f64> = (0..300)
            .scan(0.0, |lvl, _| {
                *lvl += rng.gen_range(-1.0..1.0);
                Some(*lvl)
            })
            .collect();
        let series = [
            ar1(16, 0.5, 1),                           // short: most candidates too short
            ar1(40, 0.7, 2),                           // n / 4 caps the long AR
            ar1(400, -0.4, 3),                         // long
            vec![3.0; 60],                             // constant: stage 1 is singular
            (0..80).map(|t| 0.5 * t as f64).collect(), // differences constant
            walk,                                      // needs differencing
        ];
        for (k, xs) in series.iter().enumerate() {
            let mut cache = Stage1Cache::default();
            for d in 0..=1 {
                for p in 0..=2 {
                    for q in 0..=2 {
                        let cached = fit_bits(&fit_cached(xs, p, d, q, &mut cache));
                        let fresh = fit_bits(&fit(xs, p, d, q));
                        assert_eq!(cached, fresh, "series {k}: ({p}, {d}, {q})");
                    }
                }
            }
        }
    }

    #[test]
    fn too_short_history_errors() {
        let xs = vec![1.0; 10];
        assert!(Arima::new(2, 1, 2).forecast(&uni(xs), 5).is_err());
    }

    #[test]
    fn ma_term_improves_ma_process_fit() {
        // MA(1) process: x_t = e_t + 0.7 e_{t-1}.
        let mut rng = StdRng::seed_from_u64(5);
        let es: Vec<f64> = (0..500).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let xs: Vec<f64> = (1..500).map(|t| es[t] + 0.7 * es[t - 1]).collect();
        let with_ma = fit(&xs, 0, 0, 1).unwrap();
        let without = fit(&xs, 0, 0, 0).unwrap();
        assert!(with_ma.sigma2 < without.sigma2);
        assert!((with_ma.theta[0] - 0.7).abs() < 0.2, "{}", with_ma.theta[0]);
    }
}
