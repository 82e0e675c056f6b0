//! Mini-batch training with Adam, L2 loss and validation-based early
//! stopping — the training protocol of the paper's experimental setup
//! (Section 5.1.2), scaled to CPU.
//!
//! Each shuffled mini-batch runs as blocked tape graphs of up to
//! [`CHUNK`] samples (see [`crate::tape`]): the model's forward is
//! written for one sample and runs on the whole chunk, the loss of every
//! sample keeps the mini-batch's `1 / len` scale, and the backward pass
//! adds each sample's parameter gradients into the store in sample
//! order. The Adam step runs once per mini-batch, after all its chunks,
//! so a fit is bit for bit the one-graph-per-sample fit.

use crate::optim::{Adam, ParamStore};
use crate::tape::{Tape, TensorRef};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use tfb_models::{ModelError, Result};

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Mini-batch size (gradients are averaged over the batch).
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Cap on training windows (pooled across channels).
    pub max_samples: usize,
    /// Early-stopping patience in epochs.
    pub patience: usize,
    /// Fraction of samples (the most recent ones) held out for validation.
    pub val_fraction: f64,
    /// Shuffling seed.
    pub seed: u64,
    /// Divergence detector: a validation loss above `divergence_factor ×`
    /// the rolling best counts as a diverging epoch.
    pub divergence_factor: f64,
    /// Consecutive diverging epochs before the cell aborts with a
    /// structured health event (merely-stale epochs below the factor
    /// threshold are left to early stopping).
    pub divergence_window: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 40,
            batch_size: 32,
            lr: 5e-3,
            max_samples: 2_000,
            patience: 6,
            val_fraction: 0.2,
            seed: 0,
            divergence_factor: 1e3,
            divergence_window: 5,
        }
    }
}

/// Samples per tape graph, in training and in validation. Each graph
/// holds this many samples' activations and gradients at once, so the
/// tape's memory grows with it (one PatchTST sample: ~150 KB), while the
/// per-node bookkeeping it saves stops paying off after a few samples;
/// DESIGN.md ("The training tape") has the measurements behind 4.
pub const CHUNK: usize = 4;

/// Runs the training loop over (input, target) pairs with a user-supplied
/// forward function.
#[derive(Debug, Clone, Copy)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(config: TrainConfig) -> Trainer {
        Trainer { config }
    }

    /// Fits the parameters in `store`. `forward` is written for one
    /// sample and receives a chunk of them: every input of the chunk,
    /// stacked (all inputs have one length), to load with
    /// [`Tape::input`], which makes one block per sample. It returns one
    /// `1 x target_len` block per sample; the loss is the MSE against the
    /// target. Each mini-batch runs as graphs of up to [`CHUNK`] samples,
    /// and the parameters get exactly the gradients one graph per sample
    /// would give them.
    ///
    /// Returns the best validation loss reached.
    pub fn fit(
        &self,
        store: &mut ParamStore,
        inputs: &[Vec<f64>],
        targets: &[Vec<f64>],
        forward: impl Fn(&mut Tape, &ParamStore, &[f64]) -> TensorRef,
    ) -> Result<f64> {
        self.fit_chunked(store, inputs, targets, forward, CHUNK)
    }

    /// [`Trainer::fit`] on graphs of up to `chunk` samples.
    pub(crate) fn fit_chunked(
        &self,
        store: &mut ParamStore,
        inputs: &[Vec<f64>],
        targets: &[Vec<f64>],
        forward: impl Fn(&mut Tape, &ParamStore, &[f64]) -> TensorRef,
        chunk: usize,
    ) -> Result<f64> {
        let n = inputs.len();
        if n == 0 || targets.len() != n {
            return Err(ModelError::InsufficientData("no training pairs"));
        }
        // One tape serves every pass of the fit: `reset` keeps its buffers,
        // so after the first step no forward or backward allocates.
        let mut tape = Tape::new();
        let mut clock = PhaseClock::new();
        if clock.armed {
            tape.count_ops();
        }
        let fitted = self.fit_on(
            &mut tape,
            &mut clock,
            store,
            (inputs, targets),
            forward,
            chunk.max(1),
        );
        // Once per fit, like the phase clock's totals.
        if let Some(tally) = tape.op_tally() {
            tally.add_to_counters();
        }
        fitted
    }

    /// [`Trainer::fit`]'s loop on one tape and phase clock.
    fn fit_on(
        &self,
        tape: &mut Tape,
        clock: &mut PhaseClock,
        store: &mut ParamStore,
        (inputs, targets): (&[Vec<f64>], &[Vec<f64>]),
        forward: impl Fn(&mut Tape, &ParamStore, &[f64]) -> TensorRef,
        chunk: usize,
    ) -> Result<f64> {
        let cfg = self.config;
        let n = inputs.len();
        // Chronological validation split: the most recent windows validate.
        let n_val = ((n as f64 * cfg.val_fraction) as usize).min(n - 1);
        let n_train = n - n_val;
        let mut order: Vec<usize> = (0..n_train).collect();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut adam = Adam::new(cfg.lr);
        let mut best_val = f64::INFINITY;
        let mut best_snapshot = store.snapshot();
        let mut stale = 0usize;
        let mut diverging = 0usize;
        let n_batches = n_train.div_ceil(cfg.batch_size.max(1)).max(1);
        // A chunk's inputs and targets, stacked.
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for epoch in 0..cfg.epochs.max(1) {
            let epoch_span = tfb_obs::span!("epoch");
            // Fisher-Yates shuffle.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for (b, batch) in order.chunks(cfg.batch_size.max(1)).enumerate() {
                store.zero_grads();
                for part in batch.chunks(chunk) {
                    tape.reset();
                    xs.clear();
                    ys.clear();
                    for &i in part {
                        xs.extend_from_slice(&inputs[i]);
                        ys.extend_from_slice(&targets[i]);
                    }
                    let start = clock.now();
                    let pred = forward(tape, store, &xs);
                    let (pr, pc) = tape.shape(pred);
                    debug_assert_eq!(pr * pc * part.len(), ys.len(), "forward output shape");
                    let t = tape.input(&ys, pr, pc);
                    let d = tape.sub(pred, t);
                    let sq = tape.mul_elem(d, d);
                    // The mini-batch, not the chunk, scales each sample.
                    let scaled = tape.scale(sq, 1.0 / batch.len() as f64);
                    let loss = tape.mean_all(scaled);
                    let start = clock.lap(Phase::Forward, start);
                    tape.backward(loss, store);
                    clock.lap(Phase::Backward, start);
                }
                // Gradient-norm gauge, sampled once per epoch (last
                // batch, pre-clipping). Only computed while a run is
                // recording, so forecasts never depend on the probe.
                if b + 1 == n_batches && tfb_obs::enabled() {
                    let gn = store.grad_norm();
                    tfb_obs::record_grad_norm(gn);
                    tfb_obs::gauge!("nn/grad_norm").set(gn);
                }
                let start = clock.now();
                adam.step(store);
                clock.lap(Phase::Optimizer, start);
            }
            // Validation (falls back to training loss when no hold-out).
            let eval: Vec<usize> = if n_val > 0 {
                (n_train..n).collect()
            } else {
                (0..n_train.min(64)).collect()
            };
            let start = clock.now();
            let mut val_loss = 0.0;
            for part in eval.chunks(chunk) {
                tape.reset();
                xs.clear();
                for &i in part {
                    xs.extend_from_slice(&inputs[i]);
                }
                let pred = forward(tape, store, &xs);
                let values = tape.value(pred);
                let len = values.len() / part.len();
                for (p, &i) in values.chunks_exact(len).zip(part) {
                    let mse: f64 = p
                        .iter()
                        .zip(&targets[i])
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                        / p.len() as f64;
                    val_loss += mse;
                }
            }
            clock.lap(Phase::Forward, start);
            val_loss /= eval.len().max(1) as f64;
            epoch_span
                .record("epoch", epoch as f64)
                .record("val_loss", val_loss)
                .close();
            tfb_obs::histogram!("nn/epoch_val_loss").record(val_loss);
            // NaN/Inf sentinel: a non-finite loss means the weights are
            // already poisoned — abort the cell instead of reporting a
            // silently-wrong forecast.
            if !val_loss.is_finite() {
                tfb_obs::health_event(tfb_obs::HealthKind::Nan, "non-finite validation loss");
                return Err(ModelError::Numerical(format!(
                    "non-finite validation loss at epoch {epoch}"
                )));
            }
            // Divergence detector: a loss far above the rolling best for
            // several consecutive epochs is a runaway, not a plateau.
            if best_val.is_finite() && val_loss > cfg.divergence_factor * best_val.max(1e-9) {
                diverging += 1;
                if diverging >= cfg.divergence_window.max(1) {
                    tfb_obs::health_event(
                        tfb_obs::HealthKind::Diverged,
                        "validation loss diverged from rolling best",
                    );
                    return Err(ModelError::Numerical(format!(
                        "diverged: val loss {val_loss:.3e} > {}x best {best_val:.3e} \
                         for {diverging} epochs",
                        cfg.divergence_factor
                    )));
                }
            } else {
                diverging = 0;
            }
            if val_loss < best_val - 1e-9 {
                best_val = val_loss;
                store.snapshot_into(&mut best_snapshot);
                stale = 0;
            } else {
                stale += 1;
                if stale > cfg.patience {
                    break;
                }
            }
        }
        store.restore(&best_snapshot);
        Ok(best_val)
    }
}

/// The parts of a fit whose time [`PhaseClock`] reports.
#[derive(Clone, Copy)]
enum Phase {
    /// Training and validation forward passes, loss head included.
    Forward,
    /// `backward`, parameter gradients included.
    Backward,
    /// The Adam step.
    Optimizer,
}

/// Nanoseconds one fit spends per [`Phase`]. It reads the clock only while
/// a run is recording, and adds its totals to the `nn/train_*_ns` counters
/// when dropped, once per fit, so the split costs no atomics per pass.
struct PhaseClock {
    armed: bool,
    ns: [u64; 3],
}

impl PhaseClock {
    fn new() -> PhaseClock {
        PhaseClock {
            armed: tfb_obs::enabled(),
            ns: [0; 3],
        }
    }

    /// The current time, when armed.
    fn now(&self) -> Option<Instant> {
        self.armed.then(Instant::now)
    }

    /// Charges the time since `since` to `phase` and returns the current
    /// time.
    fn lap(&mut self, phase: Phase, since: Option<Instant>) -> Option<Instant> {
        let since = since?;
        let now = Instant::now();
        self.ns[phase as usize] += (now - since).as_nanos() as u64;
        Some(now)
    }
}

impl Drop for PhaseClock {
    fn drop(&mut self) {
        if self.armed {
            let [forward, backward, optimizer] = self.ns;
            tfb_obs::counter!("nn/train_forward_ns").add(forward);
            tfb_obs::counter!("nn/train_backward_ns").add(backward);
            tfb_obs::counter!("nn/train_optimizer_ns").add(optimizer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::Linear;

    fn make_linear_problem(n: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        // y = [2*x0 - x1, x0 + x1]
        let inputs: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i % 7) as f64 / 7.0, (i % 5) as f64 / 5.0])
            .collect();
        let targets: Vec<Vec<f64>> = inputs
            .iter()
            .map(|x| vec![2.0 * x[0] - x[1], x[0] + x[1]])
            .collect();
        (inputs, targets)
    }

    #[test]
    fn trainer_fits_a_linear_map() {
        let (inputs, targets) = make_linear_problem(200);
        let mut store = ParamStore::new(1);
        let lin = Linear::new(&mut store, 2, 2);
        let cfg = TrainConfig {
            epochs: 200,
            batch_size: 16,
            lr: 0.05,
            patience: 50,
            ..TrainConfig::default()
        };
        let best = Trainer::new(cfg)
            .fit(&mut store, &inputs, &targets, |tape, store, input| {
                let x = tape.input(input, 1, 2);
                lin.forward(tape, store, x)
            })
            .unwrap();
        assert!(best < 1e-3, "val loss {best}");
    }

    #[test]
    fn early_stopping_restores_best_weights() {
        // With an absurd learning rate late training diverges; the restore
        // must keep the best-epoch weights.
        let (inputs, targets) = make_linear_problem(100);
        let mut store = ParamStore::new(2);
        let lin = Linear::new(&mut store, 2, 2);
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 8,
            lr: 0.05,
            patience: 3,
            ..TrainConfig::default()
        };
        let best = Trainer::new(cfg)
            .fit(&mut store, &inputs, &targets, |tape, store, input| {
                let x = tape.input(input, 1, 2);
                lin.forward(tape, store, x)
            })
            .unwrap();
        // Evaluate at the restored weights: must match the reported best.
        let mut loss = 0.0;
        let n_train = 80;
        for i in n_train..100 {
            let mut tape = Tape::new();
            let x = tape.input(&inputs[i], 1, 2);
            let y = lin.forward(&mut tape, &store, x);
            let p = tape.value(y);
            loss += p
                .iter()
                .zip(&targets[i])
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                / 2.0;
        }
        loss /= 20.0;
        assert!((loss - best).abs() < 1e-9, "{loss} vs {best}");
    }

    #[test]
    fn nan_targets_abort_with_numerical_error() {
        // NaN targets poison the gradients, then the weights, then the
        // validation loss: the sentinel must abort instead of returning a
        // "fitted" model.
        let (inputs, mut targets) = make_linear_problem(100);
        for t in targets.iter_mut() {
            t[0] = f64::NAN;
        }
        let mut store = ParamStore::new(1);
        let lin = Linear::new(&mut store, 2, 2);
        let r = Trainer::new(TrainConfig::default()).fit(
            &mut store,
            &inputs,
            &targets,
            |tape, store, input| {
                let x = tape.input(input, 1, 2);
                lin.forward(tape, store, x)
            },
        );
        match r {
            Err(ModelError::Numerical(msg)) => assert!(msg.contains("non-finite"), "{msg}"),
            other => panic!("expected Numerical abort, got {other:?}"),
        }
    }

    #[test]
    fn divergence_detector_aborts_runaway_training() {
        // A near-zero divergence factor makes every post-best epoch count
        // as diverging; with window 1 and huge patience the detector must
        // fire (patience would otherwise run the full epoch budget).
        let (inputs, targets) = make_linear_problem(100);
        let mut store = ParamStore::new(2);
        let lin = Linear::new(&mut store, 2, 2);
        let cfg = TrainConfig {
            epochs: 50,
            patience: 1000,
            divergence_factor: 1e-12,
            divergence_window: 1,
            ..TrainConfig::default()
        };
        let r = Trainer::new(cfg).fit(&mut store, &inputs, &targets, |tape, store, input| {
            let x = tape.input(input, 1, 2);
            lin.forward(tape, store, x)
        });
        match r {
            Err(ModelError::Numerical(msg)) => assert!(msg.contains("diverged"), "{msg}"),
            other => panic!("expected divergence abort, got {other:?}"),
        }
    }

    #[test]
    fn empty_inputs_error() {
        let mut store = ParamStore::new(3);
        let r = Trainer::new(TrainConfig::default()).fit(&mut store, &[], &[], |tape, _, input| {
            tape.input(input, 1, 1)
        });
        assert!(r.is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let (inputs, targets) = make_linear_problem(60);
        let run = || {
            let mut store = ParamStore::new(7);
            let lin = Linear::new(&mut store, 2, 2);
            let cfg = TrainConfig {
                epochs: 10,
                ..TrainConfig::default()
            };
            Trainer::new(cfg)
                .fit(&mut store, &inputs, &targets, |tape, store, input| {
                    let x = tape.input(input, 1, 2);
                    lin.forward(tape, store, x)
                })
                .unwrap()
        };
        assert_eq!(run(), run());
    }
}
