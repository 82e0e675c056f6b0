//! Parameter storage and the Adam optimizer (the paper trains all deep
//! models with Adam and L2 loss).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

/// Handle to a parameter tensor in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamId(usize);

impl ParamId {
    /// Registration index of the parameter in its store.
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// Names the parameter values a store holds at one moment: the store's
/// identity, unique within the process, and a version that every change
/// of a value bumps. Two reads of a parameter under the same stamp see
/// the same bits, so a [`crate::tape::Tape`] may keep a copy or a
/// transpose of a parameter for as long as the stamp holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    store: u64,
    version: u64,
}

/// Source of store identities.
static NEXT_STORE: AtomicU64 = AtomicU64::new(0);

struct Param {
    value: Vec<f64>,
    grad: Vec<f64>,
    m: Vec<f64>,
    v: Vec<f64>,
    rows: usize,
    cols: usize,
}

/// Owns every trainable tensor of a model plus the Adam moments.
pub struct ParamStore {
    params: Vec<Param>,
    rng: StdRng,
    stamp: Stamp,
}

impl ParamStore {
    /// Creates an empty store with a seeded initializer RNG.
    pub fn new(seed: u64) -> ParamStore {
        ParamStore {
            params: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            stamp: Stamp {
                store: NEXT_STORE.fetch_add(1, Ordering::Relaxed),
                version: 0,
            },
        }
    }

    /// The stamp of the values the store holds now.
    pub fn stamp(&self) -> Stamp {
        self.stamp
    }

    /// Marks every value as changed: called by each method that writes
    /// a parameter value.
    fn bump(&mut self) {
        self.stamp.version += 1;
    }

    /// Adds a tensor with Glorot-uniform initialization.
    pub fn add(&mut self, rows: usize, cols: usize) -> ParamId {
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        let value: Vec<f64> = (0..rows * cols)
            .map(|_| self.rng.gen_range(-limit..limit))
            .collect();
        self.add_raw(value, rows, cols)
    }

    /// Adds a zero-initialized tensor (biases).
    pub fn add_zeros(&mut self, rows: usize, cols: usize) -> ParamId {
        self.add_raw(vec![0.0; rows * cols], rows, cols)
    }

    /// Adds a tensor with explicit initial values.
    pub fn add_raw(&mut self, value: Vec<f64>, rows: usize, cols: usize) -> ParamId {
        assert_eq!(value.len(), rows * cols);
        self.bump();
        self.params.push(Param {
            grad: vec![0.0; value.len()],
            m: vec![0.0; value.len()],
            v: vec![0.0; value.len()],
            value,
            rows,
            cols,
        });
        ParamId(self.params.len() - 1)
    }

    /// Value and shape of a parameter.
    pub fn get(&self, id: ParamId) -> (&[f64], usize, usize) {
        let p = &self.params[id.0];
        (&p.value, p.rows, p.cols)
    }

    /// Current gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &[f64] {
        &self.params[id.0].grad
    }

    /// The parameter's gradient buffer, for the tape to add into.
    pub(crate) fn grad_mut(&mut self, id: ParamId) -> &mut [f64] {
        &mut self.params[id.0].grad
    }

    /// Adds `delta` into the parameter's gradient buffer.
    pub fn accumulate_grad(&mut self, id: ParamId, delta: &[f64]) {
        for (g, d) in self.params[id.0].grad.iter_mut().zip(delta) {
            *g += d;
        }
    }

    /// Zeroes every gradient buffer.
    pub fn zero_grads(&mut self) {
        for p in self.params.iter_mut() {
            p.grad.iter_mut().for_each(|g| *g = 0.0);
        }
    }

    /// Adds `eps` to one element (used by gradient checks).
    pub fn perturb(&mut self, id: ParamId, index: usize, eps: f64) {
        self.bump();
        self.params[id.0].value[index] += eps;
    }

    /// Total number of scalar parameters.
    pub fn parameter_count(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Global L2 norm of the accumulated gradients (the quantity the
    /// clipper bounds and the health probes report).
    pub fn grad_norm(&self) -> f64 {
        self.params
            .iter()
            .flat_map(|p| p.grad.iter())
            .map(|g| g * g)
            .sum::<f64>()
            .sqrt()
    }

    /// Snapshot of all values (for early-stopping restore).
    pub fn snapshot(&self) -> Vec<Vec<f64>> {
        self.params.iter().map(|p| p.value.clone()).collect()
    }

    /// [`ParamStore::snapshot`] into the buffers of an earlier one, so
    /// early stopping's snapshot per improving epoch allocates nothing.
    pub fn snapshot_into(&self, snap: &mut Vec<Vec<f64>>) {
        snap.resize_with(self.params.len(), Vec::new);
        for (s, p) in snap.iter_mut().zip(&self.params) {
            s.clear();
            s.extend_from_slice(&p.value);
        }
    }

    /// Restores a snapshot taken with [`ParamStore::snapshot`].
    pub fn restore(&mut self, snap: &[Vec<f64>]) {
        assert_eq!(snap.len(), self.params.len());
        self.bump();
        for (p, s) in self.params.iter_mut().zip(snap) {
            p.value.copy_from_slice(s);
        }
    }

    /// Every parameter tensor with its shape, in registration order —
    /// the serialization view a model artifact persists.
    pub fn tensors(&self) -> Vec<(&[f64], usize, usize)> {
        self.params
            .iter()
            .map(|p| (p.value.as_slice(), p.rows, p.cols))
            .collect()
    }

    /// Loads tensors exported by [`ParamStore::tensors`] into a store
    /// with an identical registration sequence. Errors (rather than
    /// panics) on any count or shape mismatch, so a corrupt artifact
    /// surfaces as a structured failure.
    pub fn load_tensors(&mut self, tensors: &[(Vec<f64>, usize, usize)]) -> Result<(), String> {
        if tensors.len() != self.params.len() {
            return Err(format!(
                "parameter count mismatch: artifact has {}, model expects {}",
                tensors.len(),
                self.params.len()
            ));
        }
        for (i, (p, (value, rows, cols))) in self.params.iter().zip(tensors).enumerate() {
            if p.rows != *rows || p.cols != *cols || value.len() != rows * cols {
                return Err(format!(
                    "tensor {i} shape mismatch: artifact {rows}x{cols} ({} values), \
                     model expects {}x{}",
                    value.len(),
                    p.rows,
                    p.cols
                ));
            }
        }
        self.bump();
        for (p, (value, _, _)) in self.params.iter_mut().zip(tensors) {
            p.value.copy_from_slice(value);
        }
        Ok(())
    }
}

/// Adam optimizer state.
#[derive(Debug, Clone, Copy)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical floor.
    pub eps: f64,
    /// Gradient-clipping threshold on the global L2 norm (0 disables).
    pub clip: f64,
    t: u64,
}

impl Adam {
    /// Adam with the usual defaults and the given learning rate.
    pub fn new(lr: f64) -> Adam {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip: 5.0,
            t: 0,
        }
    }

    /// Applies one update step from the accumulated gradients and zeroes
    /// them.
    pub fn step(&mut self, store: &mut ParamStore) {
        self.t += 1;
        store.bump();
        // Global-norm clipping.
        if self.clip > 0.0 {
            let norm = store.grad_norm();
            if norm > self.clip {
                let s = self.clip / norm;
                for p in store.params.iter_mut() {
                    p.grad.iter_mut().for_each(|g| *g *= s);
                }
            }
        }
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for p in store.params.iter_mut() {
            for i in 0..p.value.len() {
                let g = p.grad[i];
                p.m[i] = self.beta1 * p.m[i] + (1.0 - self.beta1) * g;
                p.v[i] = self.beta2 * p.v[i] + (1.0 - self.beta2) * g * g;
                let mhat = p.m[i] / bc1;
                let vhat = p.v[i] / bc2;
                p.value[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
                p.grad[i] = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    #[test]
    fn adam_minimizes_a_quadratic() {
        // Minimize mean((p - target)^2) for a 2x2 parameter.
        let mut store = ParamStore::new(1);
        let id = store.add_raw(vec![5.0, -3.0, 2.0, 8.0], 2, 2);
        let target = [1.0, 1.0, 1.0, 1.0];
        let mut adam = Adam::new(0.1);
        for _ in 0..300 {
            let mut tape = Tape::new();
            let p = tape.param(&store, id);
            let t = tape.input(&target, 2, 2);
            let d = tape.sub(p, t);
            let sq = tape.mul_elem(d, d);
            let loss = tape.mean_all(sq);
            tape.backward(loss, &mut store);
            adam.step(&mut store);
        }
        for (v, t) in store.get(id).0.iter().zip(&target) {
            assert!((v - t).abs() < 0.01, "{v} vs {t}");
        }
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut store = ParamStore::new(2);
        let id = store.add(3, 3);
        let snap = store.snapshot();
        store.perturb(id, 0, 10.0);
        assert_ne!(store.get(id).0[0], snap[0][0]);
        store.restore(&snap);
        assert_eq!(store.get(id).0[0], snap[0][0]);
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let mut store = ParamStore::new(3);
        let id = store.add_zeros(1, 2);
        store.accumulate_grad(id, &[1e9, -1e9]);
        let mut adam = Adam::new(0.1);
        adam.step(&mut store);
        let v = store.get(id).0;
        assert!(v.iter().all(|x| x.abs() <= 0.2), "{v:?}");
    }

    #[test]
    fn parameter_count_sums_tensors() {
        let mut store = ParamStore::new(4);
        store.add(2, 3);
        store.add_zeros(1, 4);
        assert_eq!(store.parameter_count(), 10);
    }

    #[test]
    fn glorot_init_is_bounded() {
        let mut store = ParamStore::new(5);
        let id = store.add(100, 100);
        let limit = (6.0 / 200.0_f64).sqrt();
        assert!(store.get(id).0.iter().all(|v| v.abs() <= limit));
    }
}
