//! CART regression trees and Random Forests (bagging + feature
//! subsampling), multi-output: each leaf stores the mean target vector, so
//! one forest forecasts all horizon steps directly.
//!
//! A fit lays its samples out once (`Samples`: one contiguous column per
//! feature, targets flat and row-major) and every tree grows over index
//! slices into that layout. A node scores all candidate thresholds of a
//! feature in two passes over its index slice: pass 1 routes each sample
//! and adds its target to the left or right sum of every threshold, pass 2
//! adds its squared error to the left or right SSE. The chosen split then
//! partitions the slice in place, so a tree allocates nothing per node but
//! its own storage. Every accumulator starts at +0.0 and receives its
//! additions in node-index order, exactly as a per-threshold partition of
//! the indices would give them, so every split and leaf value is the same
//! to the last bit.

use crate::tabular::pooled_lag_samples;
use crate::{ModelError, Result, WindowForecaster};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tfb_data::MultiSeries;

/// The training samples of one fit, laid out for split search: feature `f`
/// of every sample is one contiguous column, and the targets are flat and
/// row-major.
#[derive(Debug)]
pub(crate) struct Samples {
    len: usize,
    n_features: usize,
    out_dim: usize,
    /// `columns[f * len + i]` is feature `f` of sample `i`.
    columns: Vec<f64>,
    /// `targets[i * out_dim + d]` is target `d` of sample `i`.
    targets: Vec<f64>,
}

impl Samples {
    /// Lays out feature rows `xs` and their target rows `ys`.
    pub(crate) fn new(xs: &[Vec<f64>], ys: &[Vec<f64>]) -> Samples {
        let n_features = xs.first().map_or(0, Vec::len);
        let mut columns = Vec::with_capacity(xs.len() * n_features);
        for f in 0..n_features {
            columns.extend(xs.iter().map(|x| x[f]));
        }
        Samples {
            len: xs.len(),
            n_features,
            out_dim: ys.first().map_or(0, Vec::len),
            columns,
            targets: ys.concat(),
        }
    }

    fn column(&self, f: usize) -> &[f64] {
        &self.columns[f * self.len..(f + 1) * self.len]
    }

    fn target(&self, i: usize) -> &[f64] {
        &self.targets[i * self.out_dim..(i + 1) * self.out_dim]
    }

    /// The targets, flat and row-major (boosting rewrites them as
    /// residuals).
    pub(crate) fn targets_mut(&mut self) -> &mut [f64] {
        &mut self.targets
    }
}

/// One node of a regression tree, stored in an arena.
#[derive(Debug, Clone, Copy)]
enum Node {
    /// The leaf's mean target vector starts at `value` in the tree's
    /// value arena.
    Leaf { value: usize },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A multi-output CART regression tree.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    /// The leaves' mean target vectors, `out_dim` values each.
    values: Vec<f64>,
    out_dim: usize,
}

/// Hyper-parameters shared by trees, forests and boosting.
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_split: usize,
    /// Number of candidate features per split (0 = all).
    pub feature_sample: usize,
    /// Candidate thresholds per feature.
    pub n_thresholds: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 8,
            min_split: 8,
            feature_sample: 0,
            n_thresholds: 8,
        }
    }
}

/// Split-search buffers, sized once per tree and reused by every node.
struct Scratch {
    /// Candidate-feature pool.
    features: Vec<usize>,
    /// The current feature's thresholds, ascending.
    thresholds: Vec<f64>,
    /// Per position in the node's slice: how many thresholds (a prefix)
    /// send that sample right.
    right_of: Vec<usize>,
    /// After pass 1: per threshold, the samples it sends left.
    left_counts: Vec<usize>,
    /// Per threshold side (`2t` left, `2t + 1` right), `out_dim` values
    /// each: the side's target sums, then its means.
    sums: Vec<f64>,
    /// Per threshold side: its squared error about its mean.
    sse: Vec<f64>,
    /// The node's mean target.
    mean: Vec<f64>,
    /// The right-hand indices while a split partitions its slice.
    spill: Vec<usize>,
}

impl Scratch {
    fn new(s: &Samples, n_indices: usize, n_thresholds: usize) -> Scratch {
        Scratch {
            features: Vec::with_capacity(s.n_features),
            thresholds: vec![0.0; n_thresholds],
            right_of: vec![0; n_indices],
            left_counts: vec![0; n_thresholds + 1],
            sums: vec![0.0; 2 * n_thresholds * s.out_dim],
            sse: vec![0.0; 2 * n_thresholds],
            mean: vec![0.0; s.out_dim],
            spill: Vec::with_capacity(n_indices),
        }
    }

    /// Scores every threshold of feature `f` over the node's `indices` and
    /// returns the first score (with its threshold) that falls below
    /// `bar` and below every earlier score of this feature. `D` is the
    /// target width when it is known at compile time (1 for boosting),
    /// which lets the per-threshold loops collapse, and 0 otherwise.
    fn best_threshold<const D: usize>(
        &mut self,
        s: &Samples,
        f: usize,
        indices: &[usize],
        mut bar: f64,
    ) -> Option<(f64, f64)> {
        let col = s.column(f);
        let (lo, hi) = indices
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &i| {
                (lo.min(col[i]), hi.max(col[i]))
            });
        if hi - lo < 1e-12 {
            return None;
        }
        let n_thr = self.thresholds.len();
        for (t, thr) in self.thresholds.iter_mut().enumerate() {
            *thr = lo + (hi - lo) * (t as f64 + 0.5) / n_thr as f64;
        }
        // The thresholds ascend (or are all NaN, when a bound is infinite),
        // so `x <= thr` fails on a prefix of them and holds on the rest.
        let d = if D == 0 { s.out_dim } else { D };
        let Scratch {
            thresholds,
            right_of,
            left_counts,
            sums,
            sse,
            ..
        } = self;
        sums.fill(0.0);
        left_counts.fill(0);
        // Pass 1: route each sample and add its target to one side's sum
        // of every threshold. Side `2t` is threshold t's left, `2t + 1`
        // its right.
        for (pos, &i) in indices.iter().enumerate() {
            let x = col[i];
            let right = n_thr - thresholds.iter().filter(|&&thr| x <= thr).count();
            right_of[pos] = right;
            left_counts[right] += 1;
            let y = &s.targets[i * d..(i + 1) * d];
            for t in 0..n_thr {
                let side = 2 * t + usize::from(t < right);
                for (a, &v) in sums[side * d..(side + 1) * d].iter_mut().zip(y) {
                    *a += v;
                }
            }
        }
        for t in 1..n_thr {
            left_counts[t] += left_counts[t - 1];
        }
        // Left counts ascend with the threshold and right counts descend,
        // so the thresholds leaving two samples on each side are a range.
        let n = indices.len();
        let counts = &left_counts[..n_thr];
        let lo_t = counts.iter().position(|&c| c >= 2).unwrap_or(n_thr);
        let hi_t = counts.iter().position(|&c| n - c < 2).unwrap_or(n_thr);
        if lo_t >= hi_t {
            return None;
        }
        for t in lo_t..hi_t {
            let (nl, nr) = (counts[t] as f64, (n - counts[t]) as f64);
            sums[2 * t * d..(2 * t + 1) * d]
                .iter_mut()
                .for_each(|v| *v /= nl);
            sums[(2 * t + 1) * d..(2 * t + 2) * d]
                .iter_mut()
                .for_each(|v| *v /= nr);
        }
        // Pass 2: add each sample's squared error to one side's SSE of
        // every threshold, one target dimension at a time, as `sse` over a
        // partitioned index list would.
        sse.fill(0.0);
        for (pos, &i) in indices.iter().enumerate() {
            let right = right_of[pos];
            let y = &s.targets[i * d..(i + 1) * d];
            for t in lo_t..hi_t {
                let side = 2 * t + usize::from(t < right);
                let mut acc = sse[side];
                for (&v, &m) in y.iter().zip(&sums[side * d..(side + 1) * d]) {
                    let e = v - m;
                    acc += e * e;
                }
                sse[side] = acc;
            }
        }
        let mut best = None;
        for t in lo_t..hi_t {
            let score = sse[2 * t] + sse[2 * t + 1];
            if score < bar {
                bar = score;
                best = Some((score, thresholds[t]));
            }
        }
        best
    }
}

impl RegressionTree {
    /// Fits a tree on the samples at `indices` (repeats allowed), which it
    /// reorders.
    pub(crate) fn fit(
        samples: &Samples,
        indices: &mut [usize],
        params: TreeParams,
        rng: &mut StdRng,
    ) -> RegressionTree {
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            values: Vec::new(),
            out_dim: samples.out_dim,
        };
        let mut scratch = Scratch::new(samples, indices.len(), params.n_thresholds);
        tree.grow(samples, indices, params, 0, rng, &mut scratch);
        tree
    }

    fn grow(
        &mut self,
        s: &Samples,
        indices: &mut [usize],
        params: TreeParams,
        depth: usize,
        rng: &mut StdRng,
        sc: &mut Scratch,
    ) -> usize {
        sc.mean.fill(0.0);
        for &i in indices.iter() {
            for (m, &v) in sc.mean.iter_mut().zip(s.target(i)) {
                *m += v;
            }
        }
        let n = indices.len().max(1) as f64;
        sc.mean.iter_mut().for_each(|m| *m /= n);
        if depth >= params.max_depth || indices.len() < params.min_split {
            return self.leaf(&sc.mean);
        }
        let n_features = s.n_features;
        let k = if params.feature_sample == 0 {
            n_features
        } else {
            params.feature_sample.min(n_features)
        };
        // Candidate features (sampled without replacement when k < all).
        sc.features.clear();
        sc.features.extend(0..n_features);
        if k < n_features {
            for i in 0..k {
                let j = rng.gen_range(i..n_features);
                sc.features.swap(i, j);
            }
        }
        // A split must beat the node's own SSE, then every earlier split.
        let mut bar = 0.0;
        for &i in indices.iter() {
            for (&v, &m) in s.target(i).iter().zip(&sc.mean) {
                let e = v - m;
                bar += e * e;
            }
        }
        let mut best = None;
        for c in 0..k {
            let f = sc.features[c];
            let found = if self.out_dim == 1 {
                sc.best_threshold::<1>(s, f, indices, bar)
            } else {
                sc.best_threshold::<0>(s, f, indices, bar)
            };
            if let Some((score, threshold)) = found {
                bar = score;
                best = Some((f, threshold));
            }
        }
        let Some((feature, threshold)) = best else {
            return self.leaf(&sc.mean);
        };
        // Stable in-place partition: left indices move forward in order,
        // right ones wait in the spill buffer.
        let col = s.column(feature);
        sc.spill.clear();
        let mut n_left = 0;
        for j in 0..indices.len() {
            let i = indices[j];
            if col[i] <= threshold {
                indices[n_left] = i;
                n_left += 1;
            } else {
                sc.spill.push(i);
            }
        }
        indices[n_left..].copy_from_slice(&sc.spill);
        let (ls, rs) = indices.split_at_mut(n_left);
        // Reserve this node's slot before recursing.
        let me = self.nodes.len();
        self.nodes.push(Node::Leaf { value: 0 });
        let left = self.grow(s, ls, params, depth + 1, rng, sc);
        let right = self.grow(s, rs, params, depth + 1, rng, sc);
        self.nodes[me] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }

    fn leaf(&mut self, mean: &[f64]) -> usize {
        self.nodes.push(Node::Leaf {
            value: self.values.len(),
        });
        self.values.extend_from_slice(mean);
        self.nodes.len() - 1
    }

    /// Predicts the target vector for one feature row.
    pub fn predict(&self, features: &[f64]) -> &[f64] {
        self.descend(|f| features[f])
    }

    /// Predicts the target vector for sample `i` of `samples`.
    pub(crate) fn predict_sample(&self, samples: &Samples, i: usize) -> &[f64] {
        self.descend(|f| samples.column(f)[i])
    }

    fn descend(&self, feature: impl Fn(usize) -> f64) -> &[f64] {
        // Root is always node 0 (grow() pushes it first).
        let mut idx = 0usize;
        loop {
            match self.nodes[idx] {
                Node::Leaf { value } => return &self.values[value..value + self.out_dim],
                Node::Split {
                    feature: f,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if feature(f) <= threshold { left } else { right };
                }
            }
        }
    }

    /// Number of nodes (reported as the parameter count).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// Random forest of multi-output regression trees.
#[derive(Debug, Clone)]
pub struct RandomForest {
    lookback: usize,
    horizon: usize,
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree hyper-parameters.
    pub params: TreeParams,
    /// Training sample budget.
    pub max_samples: usize,
    /// RNG seed.
    pub seed: u64,
    trees: Vec<RegressionTree>,
}

impl RandomForest {
    /// Creates an untrained forest with TFB's default configuration.
    pub fn new(lookback: usize, horizon: usize) -> RandomForest {
        RandomForest {
            lookback,
            horizon,
            n_trees: 30,
            params: TreeParams {
                feature_sample: (lookback / 3).max(2),
                ..TreeParams::default()
            },
            max_samples: 8_000,
            seed: 7,
            trees: Vec::new(),
        }
    }
}

impl WindowForecaster for RandomForest {
    fn name(&self) -> &'static str {
        "RF"
    }

    fn lookback(&self) -> usize {
        self.lookback
    }

    fn horizon(&self) -> usize {
        self.horizon
    }

    fn train(&mut self, train: &MultiSeries) -> Result<()> {
        let (xs, ys) = pooled_lag_samples(train, self.lookback, self.horizon, self.max_samples)?;
        if xs.len() < self.params.min_split {
            return Err(ModelError::InsufficientData("too few samples for a forest"));
        }
        let n = xs.len();
        let samples = Samples::new(&xs, &ys);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut indices = Vec::with_capacity(n);
        self.trees.clear();
        for _ in 0..self.n_trees {
            // Bootstrap sample.
            indices.clear();
            indices.extend((0..n).map(|_| rng.gen_range(0..n)));
            self.trees.push(RegressionTree::fit(
                &samples,
                &mut indices,
                self.params,
                &mut rng,
            ));
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
            let mut acc = vec![0.0; self.horizon];
            for tree in &self.trees {
                for (a, v) in acc.iter_mut().zip(tree.predict(ch)) {
                    *a += v;
                }
            }
            for a in acc.iter_mut() {
                *a /= self.trees.len() as f64;
            }
            per_channel.push(acc);
        }
        Ok(crate::interleave_channels(&per_channel))
    }

    fn parameter_count(&self) -> usize {
        self.trees.iter().map(|t| t.node_count()).sum()
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use tfb_data::{Domain, Frequency};

    fn series(values: Vec<f64>) -> MultiSeries {
        MultiSeries::from_channels("s", Frequency::Daily, Domain::Other, &[values]).unwrap()
    }

    #[test]
    fn tree_splits_a_step_function() {
        // Target depends on whether feature 0 is above 0.5.
        let xs: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![if i % 2 == 0 { 0.0 } else { 1.0 }, i as f64])
            .collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|f| vec![f[0] * 10.0]).collect();
        let mut indices: Vec<usize> = (0..100).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let samples = Samples::new(&xs, &ys);
        let tree = RegressionTree::fit(&samples, &mut indices, TreeParams::default(), &mut rng);
        assert!((tree.predict(&[0.0, 5.0])[0] - 0.0).abs() < 0.5);
        assert!((tree.predict(&[1.0, 5.0])[0] - 10.0).abs() < 0.5);
    }

    #[test]
    fn forest_learns_seasonal_continuation() {
        let xs: Vec<f64> = (0..400)
            .map(|t| (std::f64::consts::TAU * t as f64 / 8.0).sin())
            .collect();
        let mut m = RandomForest::new(16, 4);
        m.train(&series(xs.clone())).unwrap();
        let window = xs[400 - 16..].to_vec();
        let f = m.predict(&window, 1).unwrap();
        for (h, v) in f.iter().enumerate() {
            let expect = (std::f64::consts::TAU * (400 + h) as f64 / 8.0).sin();
            assert!((v - expect).abs() < 0.4, "h={h}: {v} vs {expect}");
        }
    }

    #[test]
    fn forest_is_deterministic_given_seed() {
        let xs: Vec<f64> = (0..200).map(|t| ((t * 7) % 23) as f64).collect();
        let mut a = RandomForest::new(8, 2);
        let mut b = RandomForest::new(8, 2);
        a.train(&series(xs.clone())).unwrap();
        b.train(&series(xs.clone())).unwrap();
        let w = xs[192..].to_vec();
        assert_eq!(a.predict(&w, 1).unwrap(), b.predict(&w, 1).unwrap());
    }

    #[test]
    fn untrained_forest_errors() {
        let m = RandomForest::new(4, 2);
        assert!(matches!(
            m.predict(&[0.0; 4], 1),
            Err(ModelError::NotTrained)
        ));
    }

    #[test]
    fn parameter_count_grows_with_trees() {
        let xs: Vec<f64> = (0..300).map(|t| (t % 13) as f64).collect();
        let mut m = RandomForest::new(8, 2);
        m.n_trees = 5;
        m.train(&series(xs)).unwrap();
        assert!(m.parameter_count() >= 5);
    }

    #[test]
    fn leaf_only_tree_predicts_global_mean() {
        let xs = vec![vec![1.0], vec![1.0], vec![1.0]];
        let ys = vec![vec![2.0], vec![4.0], vec![6.0]];
        let mut rng = StdRng::seed_from_u64(2);
        let samples = Samples::new(&xs, &ys);
        let tree = RegressionTree::fit(&samples, &mut [0, 1, 2], TreeParams::default(), &mut rng);
        assert!((tree.predict(&[1.0])[0] - 4.0).abs() < 1e-9);
    }
}
