//! LinearRegression (LR): ridge-regularized autoregression on look-back
//! windows with direct multi-output forecasting — the simple machine
//! learning baseline the paper shows beating deep models on Wind (Table 1).
//!
//! One shared coefficient matrix maps a `lookback`-long window to all
//! `horizon` outputs, fitted by solving the regularized normal equations
//! once with `horizon` right-hand sides. Channels are pooled for training
//! and predicted independently.

use crate::tabular::pooled_lag_samples;
use crate::{ModelError, Result, WindowForecaster};
use tfb_data::MultiSeries;
use tfb_math::matrix::{gemm_tn_acc, Matrix};

/// Ridge autoregression with direct multi-step output.
#[derive(Debug, Clone)]
pub struct LinearRegressionForecaster {
    lookback: usize,
    horizon: usize,
    /// Ridge penalty.
    pub lambda: f64,
    /// Training sample budget (windows pooled across channels).
    pub max_samples: usize,
    /// Fitted coefficients: `(lookback + 1) x horizon`, intercept first.
    coefs: Option<Matrix>,
}

impl LinearRegressionForecaster {
    /// Creates an untrained model.
    pub fn new(lookback: usize, horizon: usize) -> Self {
        LinearRegressionForecaster {
            lookback,
            horizon,
            lambda: 1e-3,
            max_samples: 20_000,
            coefs: None,
        }
    }

    /// The fitted coefficient matrix (`(lookback + 1) x horizon`,
    /// intercept row first), or `None` before training — what a model
    /// artifact persists.
    pub fn coefficients(&self) -> Option<&Matrix> {
        self.coefs.as_ref()
    }

    /// Rebuilds a trained model from parts persisted by a model
    /// artifact. Errors on a shape mismatch between `coefs` and
    /// `(lookback + 1) x horizon` instead of producing a model that
    /// panics at predict time.
    pub fn from_parts(
        lookback: usize,
        horizon: usize,
        lambda: f64,
        max_samples: usize,
        coefs: Matrix,
    ) -> std::result::Result<Self, String> {
        if coefs.rows() != lookback + 1 || coefs.cols() != horizon {
            return Err(format!(
                "coefficient shape mismatch: artifact {}x{}, model expects {}x{}",
                coefs.rows(),
                coefs.cols(),
                lookback + 1,
                horizon
            ));
        }
        Ok(LinearRegressionForecaster {
            lookback,
            horizon,
            lambda,
            max_samples,
            coefs: Some(coefs),
        })
    }
}

impl WindowForecaster for LinearRegressionForecaster {
    fn name(&self) -> &'static str {
        "LR"
    }

    fn lookback(&self) -> usize {
        self.lookback
    }

    fn horizon(&self) -> usize {
        self.horizon
    }

    fn train(&mut self, train: &MultiSeries) -> Result<()> {
        let (xs, ys) = pooled_lag_samples(train, self.lookback, self.horizon, self.max_samples)?;
        let p = self.lookback + 1;
        let (mut xtx, xty) = normal_equations(&xs, &ys, p, self.horizon);
        for i in 1..p {
            xtx[(i, i)] += self.lambda.max(1e-10) * xs.len() as f64;
        }
        let coefs = xtx
            .solve_matrix(&xty)
            .map_err(|_| ModelError::Numerical("singular LR design".into()))?;
        self.coefs = Some(coefs);
        Ok(())
    }

    fn predict(&self, window: &[f64], dim: usize) -> Result<Vec<f64>> {
        let coefs = self.coefs.as_ref().ok_or(ModelError::NotTrained)?;
        let channels = crate::window_channels(window, dim);
        let mut per_channel = Vec::with_capacity(dim);
        for ch in &channels {
            if ch.len() != self.lookback {
                return Err(ModelError::InvalidParameter("window length != lookback"));
            }
            let mut f = Vec::with_capacity(self.horizon);
            for h in 0..self.horizon {
                let mut acc = coefs[(0, h)];
                for (j, &v) in ch.iter().enumerate() {
                    acc += coefs[(j + 1, h)] * v;
                }
                f.push(acc);
            }
            per_channel.push(f);
        }
        Ok(crate::interleave_channels(&per_channel))
    }

    /// One design-matrix GEMM for all windows and channels at once.
    ///
    /// Channel `c` of window `r` becomes design row `r * dim + c` of
    /// `[1, v_0, …, v_{H-1}]`, so `design · coefs` yields every forecast in
    /// a single multiply. The GEMM accumulates each output over `k` in the
    /// same ascending order as the scalar loop in [`predict`], so the
    /// results agree bit-for-bit.
    fn predict_batch(&self, windows: &Matrix, dim: usize) -> Result<Matrix> {
        let coefs = self.coefs.as_ref().ok_or(ModelError::NotTrained)?;
        if dim == 0 || windows.cols() != self.lookback * dim {
            return Err(ModelError::InvalidParameter("window length != lookback"));
        }
        let n = windows.rows();
        let p = self.lookback + 1;
        let mut design = Matrix::zeros(n * dim, p);
        for r in 0..n {
            let w = windows.row(r);
            for c in 0..dim {
                let row = r * dim + c;
                design[(row, 0)] = 1.0;
                for t in 0..self.lookback {
                    design[(row, t + 1)] = w[t * dim + c];
                }
            }
        }
        let prod = design
            .par_matmul(coefs)
            .map_err(|e| ModelError::Numerical(e.to_string()))?;
        // Re-interleave (window, channel) rows into time-major forecast rows.
        let mut out = Matrix::zeros(n, self.horizon * dim);
        for r in 0..n {
            for c in 0..dim {
                for h in 0..self.horizon {
                    out[(r, h * dim + c)] = prod[(r * dim + c, h)];
                }
            }
        }
        Ok(out)
    }

    fn parameter_count(&self) -> usize {
        (self.lookback + 1) * self.horizon
    }
}

/// `(XᵀX, XᵀY)` for the design `X` whose row `r` is `[1, xs[r]…]` (`p`
/// columns) and the targets `Y` whose row `r` is `ys[r]` (`horizon`
/// columns).
///
/// The samples go through the GEMM kernel 128 at a time: a block of
/// design rows is built, and `Xbᵀ·Xb` and `Xbᵀ·Yb` are added into the
/// two sums by the transposed-left entry, which reads `Xbᵀ` straight
/// from the rows. The kernel adds every element's terms in ascending
/// sample order onto what the sum already holds, so the blocks give the
/// one-call products bit for bit, while neither the full design matrix
/// nor any transpose is built. The zero-skip leaves out the `0·y` terms
/// of zero design entries, which change nothing for finite targets.
fn normal_equations(
    xs: &[Vec<f64>],
    ys: &[Vec<f64>],
    p: usize,
    horizon: usize,
) -> (Matrix, Matrix) {
    /// Samples per block of design rows.
    const BLOCK: usize = 128;
    let mut xtx = Matrix::zeros(p, p);
    let mut xty = Matrix::zeros(p, horizon);
    let mut rows = Vec::with_capacity(BLOCK * p);
    let mut targets = Vec::with_capacity(BLOCK * horizon);
    for (xb, yb) in xs.chunks(BLOCK).zip(ys.chunks(BLOCK)) {
        let n = xb.len();
        rows.clear();
        targets.clear();
        for (x, y) in xb.iter().zip(yb) {
            rows.push(1.0);
            rows.extend_from_slice(x);
            targets.extend_from_slice(y);
        }
        gemm_tn_acc(&rows, n, p, &rows, p, xtx.data_mut());
        gemm_tn_acc(&rows, n, p, &targets, horizon, xty.data_mut());
    }
    (xtx, xty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfb_data::{Domain, Frequency};

    /// The normal equations as `train` formed them before blocking: the
    /// full design matrix, its transpose, one `matmul`, and Xᵀy as a
    /// triple loop. Kept only as the reference for the test below.
    fn full_normal_equations(
        xs: &[Vec<f64>],
        ys: &[Vec<f64>],
        p: usize,
        horizon: usize,
    ) -> (Matrix, Matrix) {
        let mut design = Matrix::zeros(xs.len(), p);
        for (r, f) in xs.iter().enumerate() {
            design[(r, 0)] = 1.0;
            for (j, &v) in f.iter().enumerate() {
                design[(r, j + 1)] = v;
            }
        }
        let xtx = design.transpose().matmul(&design).unwrap();
        let mut xty = Matrix::zeros(p, horizon);
        for (r, t) in ys.iter().enumerate() {
            for (h, &v) in t.iter().enumerate() {
                for j in 0..p {
                    xty[(j, h)] += design[(r, j)] * v;
                }
            }
        }
        (xtx, xty)
    }

    #[test]
    fn block_normal_equations_equal_the_full_matrix_forms() {
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let lookback = 12;
        let p = lookback + 1;
        // Horizon 1 is the single-column product that `par_gemm` would
        // assign rather than accumulate; the blocks must still add up.
        for samples in [1usize, 127, 128, 129, 3_000] {
            for horizon in [1usize, 36] {
                let value = |r: usize, j: usize| ((r * 31 + j * 7) % 23) as f64 / 7.0 - 1.5;
                // Lag 4 is zero in every sample: an all-zero design column.
                let xs: Vec<Vec<f64>> = (0..samples)
                    .map(|r| {
                        (0..lookback)
                            .map(|j| if j == 4 { 0.0 } else { value(r, j) })
                            .collect()
                    })
                    .collect();
                let ys: Vec<Vec<f64>> = (0..samples)
                    .map(|r| (0..horizon).map(|h| value(r + 5, h + 3)).collect())
                    .collect();
                let (xtx, xty) = normal_equations(&xs, &ys, p, horizon);
                let (want_xtx, want_xty) = full_normal_equations(&xs, &ys, p, horizon);
                let what = format!("{samples} samples, horizon {horizon}");
                assert_eq!(bits(&xtx), bits(&want_xtx), "XᵀX, {what}");
                assert_eq!(bits(&xty), bits(&want_xty), "Xᵀy, {what}");
            }
        }
    }

    fn series(chans: &[Vec<f64>]) -> MultiSeries {
        MultiSeries::from_channels("s", Frequency::Daily, Domain::Other, chans).unwrap()
    }

    #[test]
    fn learns_linear_recurrence() {
        // x_t = 2 x_{t-1} - x_{t-2} continues any line exactly.
        let xs: Vec<f64> = (0..200).map(|t| 3.0 * t as f64 + 1.0).collect();
        let mut m = LinearRegressionForecaster::new(4, 3);
        m.train(&series(&[xs])).unwrap();
        let window = vec![597.0 - 9.0, 597.0 - 6.0, 597.0 - 3.0, 597.0];
        let f = m.predict(&window, 1).unwrap();
        for (h, v) in f.iter().enumerate() {
            let expect = 597.0 + 3.0 * (h + 1) as f64;
            assert!((v - expect).abs() < 0.5, "h={h}: {v} vs {expect}");
        }
    }

    #[test]
    fn learns_seasonal_pattern() {
        let xs: Vec<f64> = (0..300)
            .map(|t| (std::f64::consts::TAU * t as f64 / 12.0).sin())
            .collect();
        let mut m = LinearRegressionForecaster::new(24, 6);
        m.train(&series(std::slice::from_ref(&xs))).unwrap();
        let window = xs[300 - 24..].to_vec();
        let f = m.predict(&window, 1).unwrap();
        for (h, v) in f.iter().enumerate() {
            let expect = (std::f64::consts::TAU * (300 + h) as f64 / 12.0).sin();
            assert!((v - expect).abs() < 0.1, "h={h}: {v} vs {expect}");
        }
    }

    #[test]
    fn predict_before_train_errors() {
        let m = LinearRegressionForecaster::new(4, 2);
        assert!(matches!(
            m.predict(&[1.0; 4], 1),
            Err(ModelError::NotTrained)
        ));
    }

    #[test]
    fn wrong_window_length_errors() {
        let xs: Vec<f64> = (0..100).map(|t| t as f64).collect();
        let mut m = LinearRegressionForecaster::new(4, 2);
        m.train(&series(&[xs])).unwrap();
        assert!(m.predict(&[1.0; 3], 1).is_err());
    }

    #[test]
    fn multichannel_prediction_is_time_major() {
        let xs: Vec<f64> = (0..100).map(|t| t as f64).collect();
        let ys: Vec<f64> = (0..100).map(|t| 2.0 * t as f64).collect();
        let mut m = LinearRegressionForecaster::new(4, 2);
        m.train(&series(&[xs, ys])).unwrap();
        // Interleaved window for both channels.
        let window = vec![
            96.0, 192.0, //
            97.0, 194.0, //
            98.0, 196.0, //
            99.0, 198.0,
        ];
        let f = m.predict(&window, 2).unwrap();
        assert_eq!(f.len(), 4);
        assert!((f[0] - 100.0).abs() < 1.0, "{}", f[0]);
        assert!((f[1] - 200.0).abs() < 2.0, "{}", f[1]);
    }

    #[test]
    fn batch_prediction_is_bit_identical_to_per_window() {
        let xs: Vec<f64> = (0..300)
            .map(|t| (std::f64::consts::TAU * t as f64 / 12.0).sin() + 0.02 * t as f64)
            .collect();
        let ys: Vec<f64> = (0..300).map(|t| 5.0 - 0.01 * t as f64).collect();
        let mut m = LinearRegressionForecaster::new(24, 6);
        m.train(&series(&[xs.clone(), ys.clone()])).unwrap();
        let dim = 2;
        let mut rows = Vec::new();
        for start in (0..60).step_by(7) {
            let mut w = Vec::with_capacity(24 * dim);
            for t in start..start + 24 {
                w.push(xs[t]);
                w.push(ys[t]);
            }
            rows.push(w);
        }
        let windows = Matrix::from_rows(&rows).unwrap();
        let batched = m.predict_batch(&windows, dim).unwrap();
        for (r, w) in rows.iter().enumerate() {
            let single = m.predict(w, dim).unwrap();
            assert_eq!(batched.row(r), single.as_slice(), "window {r}");
        }
    }

    #[test]
    fn batch_prediction_rejects_bad_shapes() {
        let xs: Vec<f64> = (0..100).map(|t| t as f64).collect();
        let mut m = LinearRegressionForecaster::new(4, 2);
        m.train(&series(&[xs])).unwrap();
        let windows = Matrix::zeros(3, 5);
        assert!(m.predict_batch(&windows, 1).is_err());
        let untrained = LinearRegressionForecaster::new(4, 2);
        assert!(matches!(
            untrained.predict_batch(&Matrix::zeros(3, 4), 1),
            Err(ModelError::NotTrained)
        ));
    }

    #[test]
    fn parameter_count_matches_shape() {
        let m = LinearRegressionForecaster::new(10, 5);
        assert_eq!(m.parameter_count(), 55);
    }
}
