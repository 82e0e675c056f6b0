//! XGBoost-style gradient boosting (XGB): shallow regression trees fitted
//! to residuals with shrinkage and stochastic row subsampling. The booster
//! predicts one step ahead; multi-step forecasts iterate (IMS), matching
//! how tree boosters are typically deployed for forecasting.

use crate::forest::{RegressionTree, Samples, TreeParams};
use crate::tabular::{iterate_one_step, pooled_lag_samples};
use crate::{ModelError, Result, WindowForecaster};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tfb_data::MultiSeries;

/// Gradient-boosted trees forecaster.
#[derive(Debug, Clone)]
pub struct GradientBoosting {
    lookback: usize,
    horizon: usize,
    /// Number of boosting rounds.
    pub n_rounds: usize,
    /// Learning rate (shrinkage).
    pub learning_rate: f64,
    /// Row subsample fraction per round.
    pub subsample: f64,
    /// Tree shape.
    pub params: TreeParams,
    /// Training sample budget.
    pub max_samples: usize,
    /// RNG seed.
    pub seed: u64,
    base: f64,
    trees: Vec<RegressionTree>,
}

impl GradientBoosting {
    /// Creates an untrained booster with TFB's default configuration.
    pub fn new(lookback: usize, horizon: usize) -> GradientBoosting {
        GradientBoosting {
            lookback,
            horizon,
            n_rounds: 60,
            learning_rate: 0.15,
            subsample: 0.8,
            params: TreeParams {
                max_depth: 4,
                min_split: 10,
                feature_sample: (lookback / 2).max(2),
                n_thresholds: 8,
            },
            max_samples: 8_000,
            seed: 11,
            base: 0.0,
            trees: Vec::new(),
        }
    }

    fn predict_one(&self, features: &[f64]) -> f64 {
        let mut acc = self.base;
        for tree in &self.trees {
            acc += self.learning_rate * tree.predict(features)[0];
        }
        acc
    }
}

impl WindowForecaster for GradientBoosting {
    fn name(&self) -> &'static str {
        "XGB"
    }

    fn lookback(&self) -> usize {
        self.lookback
    }

    fn horizon(&self) -> usize {
        self.horizon
    }

    fn train(&mut self, train: &MultiSeries) -> Result<()> {
        // One-step targets; multi-step is iterated at prediction time.
        let (xs, ys) = pooled_lag_samples(train, self.lookback, 1, self.max_samples)?;
        let n = xs.len();
        if n < self.params.min_split {
            return Err(ModelError::InsufficientData("too few samples to boost"));
        }
        let mut samples = Samples::new(&xs, &ys);
        // The targets become the residuals, updated in place every round.
        let residuals = samples.targets_mut();
        self.base = residuals.iter().sum::<f64>() / n as f64;
        residuals.iter_mut().for_each(|r| *r -= self.base);
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.trees.clear();
        let sample_size = ((n as f64 * self.subsample) as usize).clamp(2, n);
        let mut pool = Vec::with_capacity(n);
        for _ in 0..self.n_rounds {
            // Stochastic row subsample without replacement.
            pool.clear();
            pool.extend(0..n);
            for i in 0..sample_size {
                let j = rng.gen_range(i..n);
                pool.swap(i, j);
            }
            let tree =
                RegressionTree::fit(&samples, &mut pool[..sample_size], self.params, &mut rng);
            // Update residuals on all rows.
            for i in 0..n {
                let step = self.learning_rate * tree.predict_sample(&samples, i)[0];
                samples.targets_mut()[i] -= step;
            }
            self.trees.push(tree);
        }
        Ok(())
    }

    fn predict(&self, window: &[f64], dim: usize) -> Result<Vec<f64>> {
        if self.trees.is_empty() {
            return Err(ModelError::NotTrained);
        }
        let channels = crate::window_channels(window, dim);
        let mut per_channel = Vec::with_capacity(dim);
        for ch in &channels {
            per_channel.push(iterate_one_step(ch, self.horizon, |w| self.predict_one(w)));
        }
        Ok(crate::interleave_channels(&per_channel))
    }

    fn parameter_count(&self) -> usize {
        self.trees.iter().map(|t| t.node_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfb_data::{Domain, Frequency};

    fn series(values: Vec<f64>) -> MultiSeries {
        MultiSeries::from_channels("s", Frequency::Daily, Domain::Other, &[values]).unwrap()
    }

    #[test]
    fn boosting_reduces_training_error_over_rounds() {
        let xs: Vec<f64> = (0..300)
            .map(|t| (std::f64::consts::TAU * t as f64 / 12.0).sin() * 5.0)
            .collect();
        let mut few = GradientBoosting::new(12, 1);
        few.n_rounds = 2;
        few.train(&series(xs.clone())).unwrap();
        let mut many = GradientBoosting::new(12, 1);
        many.n_rounds = 60;
        many.train(&series(xs.clone())).unwrap();
        let err = |m: &GradientBoosting| {
            let mut acc = 0.0;
            for s in 100..280 {
                let w = xs[s - 12..s].to_vec();
                let p = m.predict(&w, 1).unwrap()[0];
                acc += (p - xs[s]).powi(2);
            }
            acc
        };
        assert!(
            err(&many) < err(&few) * 0.5,
            "{} vs {}",
            err(&many),
            err(&few)
        );
    }

    #[test]
    fn iterates_multi_step() {
        let xs: Vec<f64> = (0..400)
            .map(|t| (std::f64::consts::TAU * t as f64 / 8.0).sin())
            .collect();
        let mut m = GradientBoosting::new(16, 4);
        m.train(&series(xs.clone())).unwrap();
        let window = xs[400 - 16..].to_vec();
        let f = m.predict(&window, 1).unwrap();
        assert_eq!(f.len(), 4);
        for (h, v) in f.iter().enumerate() {
            let expect = (std::f64::consts::TAU * (400 + h) as f64 / 8.0).sin();
            assert!((v - expect).abs() < 0.5, "h={h}: {v} vs {expect}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let xs: Vec<f64> = (0..200).map(|t| ((t * 13) % 31) as f64).collect();
        let mut a = GradientBoosting::new(8, 2);
        let mut b = GradientBoosting::new(8, 2);
        a.train(&series(xs.clone())).unwrap();
        b.train(&series(xs.clone())).unwrap();
        let w = xs[192..].to_vec();
        assert_eq!(a.predict(&w, 1).unwrap(), b.predict(&w, 1).unwrap());
    }

    #[test]
    fn untrained_errors() {
        let m = GradientBoosting::new(4, 2);
        assert!(matches!(
            m.predict(&[0.0; 4], 1),
            Err(ModelError::NotTrained)
        ));
    }

    #[test]
    fn constant_series_predicts_constant() {
        let mut m = GradientBoosting::new(4, 3);
        m.train(&series(vec![7.0; 100])).unwrap();
        let f = m.predict(&[7.0; 4], 1).unwrap();
        for v in f {
            assert!((v - 7.0).abs() < 1e-6);
        }
    }
}
