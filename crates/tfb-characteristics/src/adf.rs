//! Augmented Dickey–Fuller stationarity test (Definition 5).
//!
//! TFB classifies a series as stationary when the ADF p-value is at most
//! 0.05 (Equation 3). We run the constant-only regression
//!
//! ```text
//! Δy_t = α + β·y_{t-1} + Σ_{i=1..p} γ_i·Δy_{t-i} + ε_t
//! ```
//!
//! and convert the t-statistic of β to an approximate p-value by
//! interpolating MacKinnon's (1994/2010) asymptotic critical values for the
//! constant-only case — table-interpolation rather than the full response
//! surface, which is accurate to a couple of percentage points across the
//! decision-relevant range and exact at the published critical points.

use tfb_math::acf::difference;
use tfb_math::matrix::Matrix;
use tfb_math::regression::ols;

/// (t-statistic, cumulative probability) anchors for the constant-only ADF
/// distribution, from MacKinnon's asymptotic tables.
const TAU_TABLE: [(f64, f64); 9] = [
    (-4.5, 0.0001),
    (-3.96, 0.001),
    (-3.43, 0.01),
    (-3.12, 0.025),
    (-2.86, 0.05),
    (-2.57, 0.10),
    (-2.20, 0.20),
    (-1.62, 0.45),
    (0.0, 0.95),
];

/// Default lag order: Schwert's rule `floor(12 (n/100)^{1/4})`, capped so
/// short series keep enough degrees of freedom.
pub fn default_lags(n: usize) -> usize {
    let schwert = (12.0 * (n as f64 / 100.0).powf(0.25)).floor() as usize;
    schwert.min(n / 10).min(12)
}

/// The ADF t-statistic for the constant-only regression with `lags` lagged
/// difference terms. Returns `None` for series too short to regress.
pub fn adf_statistic(series: &[f64], lags: usize) -> Option<f64> {
    let n = series.len();
    if n < lags + 12 {
        return None;
    }
    let dy = difference(series, 1);
    // Rows: t = lags .. dy.len(); regressors: [y_{t-1}, Δy_{t-1..t-lags}].
    let rows = dy.len() - lags;
    let p = 1 + lags;
    if rows <= p + 2 {
        return None;
    }
    let mut x = Matrix::zeros(rows, p);
    let mut y = Vec::with_capacity(rows);
    for r in 0..rows {
        let t = r + lags; // index into dy; level index is t (y_{t} in levels)
        y.push(dy[t]);
        x[(r, 0)] = series[t];
        for i in 1..=lags {
            x[(r, i)] = dy[t - i];
        }
    }
    let fit = ols(&x, &y, true).ok()?;
    // Standard error of the y_{t-1} coefficient (index 1 after intercept):
    // se = sqrt(sigma^2 * [ (X'X)^{-1} ]_{11}).
    let dof = rows.saturating_sub(p + 1);
    if dof == 0 {
        return None;
    }
    let sigma2 = fit.rss / dof as f64;
    // Rebuild the design with intercept to invert X'X.
    let mut xd = Matrix::zeros(rows, p + 1);
    for r in 0..rows {
        xd[(r, 0)] = 1.0;
        for c in 0..p {
            xd[(r, c + 1)] = x[(r, c)];
        }
    }
    let xtx = xd.transpose_matmul(&xd).ok()?;
    let inv = xtx.inverse().ok()?;
    let se = (sigma2 * inv[(1, 1)]).sqrt();
    if se < 1e-300 {
        return None;
    }
    Some(fit.coefficients[1] / se)
}

/// Approximate p-value for a constant-only ADF t-statistic.
pub fn adf_pvalue_from_stat(tau: f64) -> f64 {
    if tau <= TAU_TABLE[0].0 {
        return TAU_TABLE[0].1;
    }
    if tau >= TAU_TABLE[TAU_TABLE.len() - 1].0 {
        return TAU_TABLE[TAU_TABLE.len() - 1].1;
    }
    for w in TAU_TABLE.windows(2) {
        let (t0, p0) = w[0];
        let (t1, p1) = w[1];
        if tau <= t1 {
            // Interpolate in log-p space: the tail is roughly exponential.
            let f = (tau - t0) / (t1 - t0);
            return (p0.ln() + f * (p1.ln() - p0.ln())).exp();
        }
    }
    unreachable!("table covers the range")
}

/// ADF p-value with automatic lag selection. Series too short to test are
/// reported as non-stationary (p = 1), the conservative default.
pub fn adf_pvalue(series: &[f64]) -> f64 {
    let lags = default_lags(series.len());
    match adf_statistic(series, lags) {
        Some(tau) => adf_pvalue_from_stat(tau),
        None => 1.0,
    }
}

/// TFB's stationarity classification (Equation 3): `p <= 0.05`.
pub fn is_stationary(series: &[f64]) -> bool {
    adf_pvalue(series) <= 0.05
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn white_noise(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn random_walk(n: usize, seed: u64) -> Vec<f64> {
        let mut acc = 0.0;
        white_noise(n, seed)
            .into_iter()
            .map(|e| {
                acc += e;
                acc
            })
            .collect()
    }

    #[test]
    fn white_noise_is_stationary() {
        let xs = white_noise(500, 1);
        assert!(is_stationary(&xs), "p = {}", adf_pvalue(&xs));
    }

    #[test]
    fn random_walk_is_not_stationary() {
        let xs = random_walk(500, 2);
        assert!(!is_stationary(&xs), "p = {}", adf_pvalue(&xs));
    }

    #[test]
    fn ar_process_is_stationary() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut xs = vec![0.0; 600];
        for t in 1..600 {
            xs[t] = 0.5 * xs[t - 1] + rng.gen_range(-1.0..1.0);
        }
        assert!(is_stationary(&xs));
    }

    #[test]
    fn pvalue_interpolation_hits_critical_points() {
        assert!((adf_pvalue_from_stat(-2.86) - 0.05).abs() < 1e-9);
        assert!((adf_pvalue_from_stat(-3.43) - 0.01).abs() < 1e-9);
        assert!((adf_pvalue_from_stat(-2.57) - 0.10).abs() < 1e-9);
    }

    #[test]
    fn pvalue_is_monotone_in_tau() {
        let mut prev = 0.0;
        for i in 0..100 {
            let tau = -5.0 + i as f64 * 0.06;
            let p = adf_pvalue_from_stat(tau);
            assert!(p >= prev, "non-monotone at tau {tau}");
            prev = p;
        }
    }

    #[test]
    fn short_series_default_to_non_stationary() {
        assert!(!is_stationary(&[1.0, 2.0, 3.0]));
        assert_eq!(adf_pvalue(&[1.0; 5]), 1.0);
    }

    #[test]
    fn default_lags_scale_with_length() {
        assert!(default_lags(100) >= 4);
        assert!(default_lags(100) <= 12);
        assert!(default_lags(10_000) <= 12);
        assert_eq!(default_lags(30), 3);
    }
}
