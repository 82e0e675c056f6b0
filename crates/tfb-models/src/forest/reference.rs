//! The split search trees used before the fused two-pass one: per
//! threshold, partition the node's indices into two new lists and
//! recompute both sides' means and SSEs from scratch. It survives only
//! here, verbatim in [`partition`], as the reference the fused search must
//! match bit for bit: node structure, threshold bits, leaf values, node
//! counts, the RNG stream, and RF/XGB forecasts on archive series.

use super::{Node, RandomForest, RegressionTree, Samples, Scratch, TreeParams};
use crate::gbdt::GradientBoosting;
use crate::tabular::{iterate_one_step, pooled_lag_samples};
use crate::WindowForecaster;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use tfb_data::{Frequency, MultiSeries, UniSeries};
use tfb_datagen::univariate::SPECS;
use tfb_datagen::UnivariateArchive;

/// The partition-based tree, verbatim.
mod partition {
    use super::TreeParams;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// One node of a regression tree, stored in an arena.
    #[derive(Debug, Clone)]
    pub(super) enum Node {
        Leaf {
            value: Vec<f64>,
        },
        Split {
            feature: usize,
            threshold: f64,
            left: usize,
            right: usize,
        },
    }

    /// A multi-output CART regression tree.
    #[derive(Debug, Clone)]
    pub(super) struct RegressionTree {
        pub(super) nodes: Vec<Node>,
    }

    impl RegressionTree {
        /// Fits a tree on rows `indices` of the sample set.
        pub(super) fn fit(
            xs: &[Vec<f64>],
            ys: &[Vec<f64>],
            indices: &[usize],
            params: TreeParams,
            rng: &mut StdRng,
        ) -> RegressionTree {
            let mut tree = RegressionTree { nodes: Vec::new() };
            tree.grow(xs, ys, indices, params, 0, rng);
            tree
        }

        fn grow(
            &mut self,
            xs: &[Vec<f64>],
            ys: &[Vec<f64>],
            indices: &[usize],
            params: TreeParams,
            depth: usize,
            rng: &mut StdRng,
        ) -> usize {
            let out_dim = ys[0].len();
            let mean = mean_target(ys, indices, out_dim);
            if depth >= params.max_depth || indices.len() < params.min_split {
                self.nodes.push(Node::Leaf { value: mean });
                return self.nodes.len() - 1;
            }
            let n_features = xs[0].len();
            let k = if params.feature_sample == 0 {
                n_features
            } else {
                params.feature_sample.min(n_features)
            };
            // Candidate features (sampled without replacement when k < all).
            let features: Vec<usize> = if k == n_features {
                (0..n_features).collect()
            } else {
                let mut pool: Vec<usize> = (0..n_features).collect();
                for i in 0..k {
                    let j = rng.gen_range(i..pool.len());
                    pool.swap(i, j);
                }
                pool.truncate(k);
                pool
            };
            let parent_score = sse(ys, indices, &mean);
            let mut best: Option<(f64, usize, f64)> = None;
            for &f in &features {
                let (lo, hi) = indices
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &i| {
                        (lo.min(xs[i][f]), hi.max(xs[i][f]))
                    });
                if hi - lo < 1e-12 {
                    continue;
                }
                for t in 0..params.n_thresholds {
                    let thr = lo + (hi - lo) * (t as f64 + 0.5) / params.n_thresholds as f64;
                    let (ls, rs): (Vec<usize>, Vec<usize>) =
                        indices.iter().partition(|&&i| xs[i][f] <= thr);
                    if ls.len() < 2 || rs.len() < 2 {
                        continue;
                    }
                    let lm = mean_target(ys, &ls, out_dim);
                    let rm = mean_target(ys, &rs, out_dim);
                    let score = sse(ys, &ls, &lm) + sse(ys, &rs, &rm);
                    if best
                        .as_ref()
                        .map_or(score < parent_score, |(b, _, _)| score < *b)
                    {
                        best = Some((score, f, thr));
                    }
                }
            }
            let Some((_, feature, threshold)) = best else {
                self.nodes.push(Node::Leaf { value: mean });
                return self.nodes.len() - 1;
            };
            let (ls, rs): (Vec<usize>, Vec<usize>) =
                indices.iter().partition(|&&i| xs[i][feature] <= threshold);
            // Reserve this node's slot before recursing.
            let me = self.nodes.len();
            self.nodes.push(Node::Leaf { value: Vec::new() });
            let left = self.grow(xs, ys, &ls, params, depth + 1, rng);
            let right = self.grow(xs, ys, &rs, params, depth + 1, rng);
            self.nodes[me] = Node::Split {
                feature,
                threshold,
                left,
                right,
            };
            me
        }

        /// Predicts the target vector for one feature row.
        pub(super) fn predict(&self, features: &[f64]) -> &[f64] {
            // Root is always node 0 (grow() pushes it first).
            let mut idx = 0usize;
            loop {
                match &self.nodes[idx] {
                    Node::Leaf { value } => return value,
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        idx = if features[*feature] <= *threshold {
                            *left
                        } else {
                            *right
                        };
                    }
                }
            }
        }
    }

    pub(super) fn mean_target(ys: &[Vec<f64>], indices: &[usize], out_dim: usize) -> Vec<f64> {
        let mut m = vec![0.0; out_dim];
        for &i in indices {
            for (d, v) in m.iter_mut().enumerate() {
                *v += ys[i][d];
            }
        }
        let n = indices.len().max(1) as f64;
        for v in m.iter_mut() {
            *v /= n;
        }
        m
    }

    pub(super) fn sse(ys: &[Vec<f64>], indices: &[usize], mean: &[f64]) -> f64 {
        let mut acc = 0.0;
        for &i in indices {
            for (d, &m) in mean.iter().enumerate() {
                let e = ys[i][d] - m;
                acc += e * e;
            }
        }
        acc
    }
}

/// The best split of feature `f` over `indices` by the partition search's
/// own arithmetic: its first lowest score, with the threshold, as bits.
/// Trees hide the scores, and a score's last bit decides a split only on
/// near-ties; this exposes every one.
fn partition_best(
    xs: &[Vec<f64>],
    ys: &[Vec<f64>],
    indices: &[usize],
    f: usize,
    n_thresholds: usize,
) -> Option<(u64, u64)> {
    let (lo, hi) = indices
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &i| {
            (lo.min(xs[i][f]), hi.max(xs[i][f]))
        });
    if hi - lo < 1e-12 {
        return None;
    }
    let mut best: Option<(f64, f64)> = None;
    for t in 0..n_thresholds {
        let thr = lo + (hi - lo) * (t as f64 + 0.5) / n_thresholds as f64;
        let (ls, rs): (Vec<usize>, Vec<usize>) = indices.iter().partition(|&&i| xs[i][f] <= thr);
        if ls.len() < 2 || rs.len() < 2 {
            continue;
        }
        let lm = partition::mean_target(ys, &ls, ys[0].len());
        let rm = partition::mean_target(ys, &rs, ys[0].len());
        let score = partition::sse(ys, &ls, &lm) + partition::sse(ys, &rs, &rm);
        if best.map_or(score < f64::INFINITY, |(b, _)| score < b) {
            best = Some((score, thr));
        }
    }
    best.map(|(score, thr)| (score.to_bits(), thr.to_bits()))
}

/// A node with its floats as bits, so NaN leaves compare equal to
/// themselves and -0.0 differs from +0.0.
#[derive(Debug, PartialEq)]
enum Shape {
    Leaf(Vec<u64>),
    Split {
        feature: usize,
        threshold: u64,
        left: usize,
        right: usize,
    },
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn shape(tree: &RegressionTree) -> Vec<Shape> {
    let leaves = tree
        .nodes
        .iter()
        .filter(|n| matches!(n, Node::Leaf { .. }))
        .count();
    assert_eq!(tree.values.len(), leaves * tree.out_dim, "value arena size");
    tree.nodes
        .iter()
        .map(|node| match *node {
            Node::Leaf { value } => Shape::Leaf(bits(&tree.values[value..value + tree.out_dim])),
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => Shape::Split {
                feature,
                threshold: threshold.to_bits(),
                left,
                right,
            },
        })
        .collect()
}

fn reference_shape(tree: &partition::RegressionTree) -> Vec<Shape> {
    tree.nodes
        .iter()
        .map(|node| match node {
            partition::Node::Leaf { value } => Shape::Leaf(bits(value)),
            partition::Node::Split {
                feature,
                threshold,
                left,
                right,
            } => Shape::Split {
                feature: *feature,
                threshold: threshold.to_bits(),
                left: *left,
                right: *right,
            },
        })
        .collect()
}

/// One feature column of `n` samples, of a kind drawn from `rng`:
/// continuous, constant, integers in `0..=2t` with both ends present (so
/// when the bootstrap draws both, the root's thresholds are the odd
/// integers and tie with samples exactly), two levels including both
/// zeros, or continuous with ±inf and NaN.
fn feature_column(rng: &mut StdRng, n: usize, n_thresholds: usize) -> Vec<f64> {
    match rng.gen_range(0..5u32) {
        0 => (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect(),
        1 => vec![rng.gen_range(-3.0..3.0); n],
        2 => {
            let top = 2 * n_thresholds;
            let mut col: Vec<f64> = (0..n).map(|_| rng.gen_range(0..=top) as f64).collect();
            if n >= 2 {
                col[0] = 0.0;
                col[n - 1] = top as f64;
            }
            col
        }
        3 => {
            let levels = [-0.0, 0.0, 1.0];
            (0..n).map(|_| levels[rng.gen_range(0..3usize)]).collect()
        }
        _ => (0..n)
            .map(|_| match rng.gen_range(0..8u32) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => rng.gen_range(-5.0..5.0),
            })
            .collect(),
    }
}

/// Targets that follow feature 0 where it is finite, with noise; a third
/// of the cases sprinkle ±inf and NaN.
fn target_rows(rng: &mut StdRng, x0: &[f64], out_dim: usize) -> Vec<Vec<f64>> {
    let special = rng.gen_range(0..3u32) == 0;
    x0.iter()
        .map(|&x| {
            let base = if x.is_finite() { x } else { 1.0 };
            (0..out_dim)
                .map(|d| {
                    if special && rng.gen_range(0..24u32) == 0 {
                        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)]
                    } else {
                        base * (d as f64 + 1.0) + rng.gen_range(-1.0..1.0)
                    }
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fused_search_matches_the_partition_reference(
        seed in 0u64..u64::MAX,
        n in 1usize..=300,
        n_features in 1usize..=6,
        out_dim in 1usize..=48,
        n_thresholds in 1usize..=9,
        feature_sample in 0usize..=6,
        shape_params in (1usize..=8, 2usize..=12),
    ) {
        let (max_depth, min_split) = shape_params;
        let mut rng = StdRng::seed_from_u64(seed);
        let columns: Vec<Vec<f64>> = (0..n_features)
            .map(|_| feature_column(&mut rng, n, n_thresholds))
            .collect();
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| columns.iter().map(|c| c[i]).collect())
            .collect();
        let ys = target_rows(&mut rng, &columns[0], out_dim);
        // Bootstrap indices: repeats and absent samples.
        let indices: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
        let params = TreeParams {
            max_depth,
            min_split,
            feature_sample,
            n_thresholds,
        };
        let samples = Samples::new(&xs, &ys);
        let mut scratch = Scratch::new(&samples, n, n_thresholds);
        for f in 0..n_features {
            let expect = partition_best(&xs, &ys, &indices, f, n_thresholds);
            let bits = |found: Option<(f64, f64)>| found.map(|(s, t)| (s.to_bits(), t.to_bits()));
            let any_width = scratch.best_threshold::<0>(&samples, f, &indices, f64::INFINITY);
            prop_assert_eq!(bits(any_width), expect, "feature {}", f);
            if out_dim == 1 {
                let one_wide = scratch.best_threshold::<1>(&samples, f, &indices, f64::INFINITY);
                prop_assert_eq!(bits(one_wide), expect, "feature {}", f);
            }
        }
        let mut reference_rng = StdRng::seed_from_u64(seed ^ 0x7EE);
        let mut fused_rng = reference_rng.clone();
        let reference =
            partition::RegressionTree::fit(&xs, &ys, &indices, params, &mut reference_rng);
        let mut order = indices.clone();
        let tree = RegressionTree::fit(&samples, &mut order, params, &mut fused_rng);
        prop_assert_eq!(tree.node_count(), reference.nodes.len());
        prop_assert_eq!(shape(&tree), reference_shape(&reference));
        prop_assert_eq!(fused_rng.next_u64(), reference_rng.next_u64());
        // The partitions only reorder the slice.
        let (mut sorted, mut expect) = (order, indices);
        sorted.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(sorted, expect);
    }
}

/// The first series of every frequency group of a seeded archive, cut to
/// the group's shortest length (the `uts-fixed` slice), with its horizon
/// and the fixed protocol's look-back.
fn archive_slice(seed: u64) -> Vec<(UniSeries, usize, usize)> {
    let archive = UnivariateArchive::generate(400, seed);
    SPECS
        .iter()
        .map(|spec| {
            let s = archive
                .series
                .iter()
                .find(|s| s.frequency == spec.frequency)
                .expect("every group has series");
            let keep = spec.len_range.0;
            let cut = UniSeries {
                values: s.values[s.values.len() - keep..].to_vec(),
                ..s.clone()
            };
            let horizon = UnivariateArchive::horizon_for(spec.frequency);
            let lookback = ((horizon as f64) * 1.25).ceil() as usize;
            (cut, horizon, lookback)
        })
        .collect()
}

/// The series without its last `horizon` points, and its last window.
fn train_and_window(s: &UniSeries, horizon: usize, lookback: usize) -> (MultiSeries, Vec<f64>) {
    let train = MultiSeries::from_uni(s).slice_rows(0..s.values.len() - horizon);
    let end = s.values.len() - horizon;
    (train, s.values[end - lookback..end].to_vec())
}

/// `RandomForest::train` and `predict` over the reference trees.
fn reference_forest(
    m: &RandomForest,
    train: &MultiSeries,
    window: &[f64],
) -> (Vec<partition::RegressionTree>, Vec<f64>) {
    let (xs, ys) = pooled_lag_samples(train, m.lookback, m.horizon, m.max_samples).unwrap();
    let mut rng = StdRng::seed_from_u64(m.seed);
    let mut trees = Vec::new();
    for _ in 0..m.n_trees {
        // Bootstrap sample.
        let indices: Vec<usize> = (0..xs.len()).map(|_| rng.gen_range(0..xs.len())).collect();
        trees.push(partition::RegressionTree::fit(
            &xs, &ys, &indices, m.params, &mut rng,
        ));
    }
    let mut acc = vec![0.0; m.horizon];
    for tree in &trees {
        for (a, v) in acc.iter_mut().zip(tree.predict(window)) {
            *a += v;
        }
    }
    for a in acc.iter_mut() {
        *a /= trees.len() as f64;
    }
    (trees, acc)
}

/// `GradientBoosting::train` (rebuilding the residual targets every
/// round) and `predict` over the reference trees: forecast and node count.
fn reference_boosting(
    m: &GradientBoosting,
    train: &MultiSeries,
    window: &[f64],
) -> (Vec<f64>, usize) {
    let (xs, ys) = pooled_lag_samples(train, m.lookback(), 1, m.max_samples).unwrap();
    let n = xs.len();
    let targets: Vec<f64> = ys.iter().map(|t| t[0]).collect();
    let base = targets.iter().sum::<f64>() / n as f64;
    let mut residuals: Vec<f64> = targets.iter().map(|t| t - base).collect();
    let mut rng = StdRng::seed_from_u64(m.seed);
    let mut trees = Vec::new();
    let sample_size = ((n as f64 * m.subsample) as usize).clamp(2, n);
    for _ in 0..m.n_rounds {
        // Stochastic row subsample without replacement.
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..sample_size {
            let j = rng.gen_range(i..n);
            pool.swap(i, j);
        }
        let indices = &pool[..sample_size];
        let res_targets: Vec<Vec<f64>> = residuals.iter().map(|&r| vec![r]).collect();
        let tree = partition::RegressionTree::fit(&xs, &res_targets, indices, m.params, &mut rng);
        // Update residuals on all rows.
        for (i, f) in xs.iter().enumerate() {
            residuals[i] -= m.learning_rate * tree.predict(f)[0];
        }
        trees.push(tree);
    }
    let forecast = iterate_one_step(window, m.horizon(), |w| {
        let mut acc = base;
        for tree in &trees {
            acc += m.learning_rate * tree.predict(w)[0];
        }
        acc
    });
    (forecast, trees.iter().map(|t| t.nodes.len()).sum())
}

#[test]
fn forest_forecasts_match_the_reference_on_archive_series() {
    for seed in [3, 10] {
        // The hourly group is left out as in `uts-fixed`: its reference
        // fit is slow in an unoptimized build.
        for (s, horizon, lookback) in archive_slice(seed)
            .into_iter()
            .filter(|(s, _, _)| s.frequency != Frequency::Hourly)
        {
            let (train, window) = train_and_window(&s, horizon, lookback);
            let mut m = RandomForest::new(lookback, horizon);
            m.train(&train).unwrap();
            let (trees, expect) = reference_forest(&m, &train, &window);
            assert_eq!(m.trees.len(), trees.len());
            for (tree, reference) in m.trees.iter().zip(&trees) {
                assert_eq!(shape(tree), reference_shape(reference), "{}", s.name);
            }
            let got = m.predict(&window, 1).unwrap();
            assert_eq!(
                bits(&got),
                bits(&expect),
                "{}: {got:?} vs {expect:?}",
                s.name
            );
        }
    }
}

#[test]
fn boosting_forecasts_match_the_reference_on_archive_series() {
    for seed in [3, 10] {
        for (s, horizon, lookback) in archive_slice(seed) {
            let (train, window) = train_and_window(&s, horizon, lookback);
            let mut m = GradientBoosting::new(lookback, horizon);
            m.train(&train).unwrap();
            let (expect, nodes) = reference_boosting(&m, &train, &window);
            let got = m.predict(&window, 1).unwrap();
            assert_eq!(
                bits(&got),
                bits(&expect),
                "{}: {got:?} vs {expect:?}",
                s.name
            );
            assert_eq!(m.parameter_count(), nodes, "{}", s.name);
        }
    }
}
