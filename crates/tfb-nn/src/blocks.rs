//! Reusable neural building blocks: linear layers, MLPs, single-head
//! self-attention, transformer encoder layers, and the fixed input
//! transforms (series decomposition, DFT features, Legendre projection)
//! used by the decomposition- and frequency-based models.

use crate::optim::{ParamId, ParamStore};
use crate::tape::{Tape, TensorRef};

/// A dense layer `y = x W + b`.
#[derive(Debug, Clone, Copy)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    /// Input feature count.
    pub fan_in: usize,
    /// Output feature count.
    pub fan_out: usize,
}

impl Linear {
    /// Allocates a dense layer in the store.
    pub fn new(store: &mut ParamStore, fan_in: usize, fan_out: usize) -> Linear {
        Linear {
            w: store.add(fan_in, fan_out),
            b: store.add_zeros(1, fan_out),
            fan_in,
            fan_out,
        }
    }

    /// Applies the layer to a `(rows, fan_in)` tensor.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: TensorRef) -> TensorRef {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        let xw = tape.matmul(x, w);
        tape.add_row_broadcast(xw, b)
    }
}

/// A two-layer MLP with ReLU.
#[derive(Debug, Clone, Copy)]
pub struct Mlp {
    l1: Linear,
    l2: Linear,
}

impl Mlp {
    /// Allocates an MLP `fan_in -> hidden -> fan_out`.
    pub fn new(store: &mut ParamStore, fan_in: usize, hidden: usize, fan_out: usize) -> Mlp {
        Mlp {
            l1: Linear::new(store, fan_in, hidden),
            l2: Linear::new(store, hidden, fan_out),
        }
    }

    /// Forward pass.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: TensorRef) -> TensorRef {
        let h = self.l1.forward(tape, store, x);
        let h = tape.relu(h);
        self.l2.forward(tape, store, h)
    }
}

/// Single-head scaled dot-product self-attention over `(tokens, d)` input.
#[derive(Debug, Clone, Copy)]
pub struct SelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    d: usize,
}

impl SelfAttention {
    /// Allocates attention with model width `d`.
    pub fn new(store: &mut ParamStore, d: usize) -> SelfAttention {
        SelfAttention {
            wq: Linear::new(store, d, d),
            wk: Linear::new(store, d, d),
            wv: Linear::new(store, d, d),
            wo: Linear::new(store, d, d),
            d,
        }
    }

    /// Forward pass over `(tokens, d)`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: TensorRef) -> TensorRef {
        let q = self.wq.forward(tape, store, x);
        let k = self.wk.forward(tape, store, x);
        let v = self.wv.forward(tape, store, x);
        let kt = tape.transpose(k);
        let scores = tape.matmul(q, kt);
        let scaled = tape.scale(scores, 1.0 / (self.d as f64).sqrt());
        let attn = tape.softmax_rows(scaled);
        let ctx = tape.matmul(attn, v);
        self.wo.forward(tape, store, ctx)
    }
}

/// Pre-norm transformer encoder layer: attention + MLP, both residual.
#[derive(Debug, Clone, Copy)]
pub struct EncoderLayer {
    attn: SelfAttention,
    ffn: Mlp,
    gain1: ParamId,
    gain2: ParamId,
}

impl EncoderLayer {
    /// Allocates an encoder layer of width `d` with FFN hidden size `2d`.
    pub fn new(store: &mut ParamStore, d: usize) -> EncoderLayer {
        EncoderLayer {
            attn: SelfAttention::new(store, d),
            ffn: Mlp::new(store, d, 2 * d, d),
            gain1: store.add_raw(vec![1.0; d], 1, d),
            gain2: store.add_raw(vec![1.0; d], 1, d),
        }
    }

    /// Forward pass over `(tokens, d)`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: TensorRef) -> TensorRef {
        let n1 = tape.layer_norm_rows(x);
        let g1 = tape.param(store, self.gain1);
        let n1 = tape.mul_row_broadcast(n1, g1);
        let a = self.attn.forward(tape, store, n1);
        let x = tape.add(x, a);
        let n2 = tape.layer_norm_rows(x);
        let g2 = tape.param(store, self.gain2);
        let n2 = tape.mul_row_broadcast(n2, g2);
        let f = self.ffn.forward(tape, store, n2);
        tape.add(x, f)
    }
}

/// Moving-average series decomposition (DLinear / FEDformer style):
/// returns `(trend, seasonal)` with `trend + seasonal == input`.
pub fn decompose(window: &[f64], kernel: usize) -> (Vec<f64>, Vec<f64>) {
    let n = window.len();
    let k = kernel.clamp(1, n);
    let half = k / 2;
    let mut trend = Vec::with_capacity(n);
    for t in 0..n {
        // Replicate-padded centered mean, matching DLinear's AvgPool1d with
        // front/back padding.
        let mut acc = 0.0;
        for o in 0..k {
            let idx = (t + o).saturating_sub(half).min(n - 1);
            acc += window[idx];
        }
        trend.push(acc / k as f64);
    }
    let seasonal: Vec<f64> = window.iter().zip(&trend).map(|(x, t)| x - t).collect();
    (trend, seasonal)
}

/// Real DFT features: the first `modes` cosine and sine projections of the
/// window (a fixed, dimensionality-reducing frequency transform — the
/// "frequency enhanced" front end of the FEDformer miniature).
pub fn dft_features(window: &[f64], modes: usize) -> Vec<f64> {
    let n = window.len().max(1);
    let mut out = Vec::with_capacity(2 * modes);
    for m in 1..=modes {
        let mut re = 0.0;
        let mut im = 0.0;
        for (t, &x) in window.iter().enumerate() {
            let theta = std::f64::consts::TAU * (m * t) as f64 / n as f64;
            re += x * theta.cos();
            im -= x * theta.sin();
        }
        out.push(re / n as f64);
        out.push(im / n as f64);
    }
    out
}

/// Legendre polynomial projection of the window onto the first `k` basis
/// functions (the HiPPO-style memory of the FiLM miniature). Returns the
/// projection coefficients.
pub fn legendre_features(window: &[f64], k: usize) -> Vec<f64> {
    let n = window.len();
    if n == 0 {
        return vec![0.0; k];
    }
    // Evaluate P_0..P_{k-1} on the grid mapped to [-1, 1] via the
    // recurrence (m+1) P_{m+1}(x) = (2m+1) x P_m(x) - m P_{m-1}(x).
    let mut coeffs = vec![0.0; k];
    for (t, &y) in window.iter().enumerate() {
        let x = if n == 1 {
            0.0
        } else {
            2.0 * t as f64 / (n - 1) as f64 - 1.0
        };
        let mut p_prev = 1.0;
        let mut p_cur = x;
        for (m, c) in coeffs.iter_mut().enumerate() {
            let p = match m {
                0 => 1.0,
                1 => x,
                _ => {
                    let mm = (m - 1) as f64;
                    let next = ((2.0 * mm + 1.0) * x * p_cur - mm * p_prev) / (mm + 1.0);
                    p_prev = p_cur;
                    p_cur = next;
                    next
                }
            };
            // (2m+1)/2 is the L2 normalization weight on [-1, 1].
            *c += y * p * (2.0 * m as f64 + 1.0) / n as f64;
        }
    }
    coeffs
}

/// Per-window reversible instance normalization: returns the normalized
/// window plus `(mean, std)` to denormalize predictions.
pub fn revin_normalize(window: &[f64]) -> (Vec<f64>, f64, f64) {
    let n = window.len().max(1) as f64;
    let mean = window.iter().sum::<f64>() / n;
    let var = window.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    let std = var.sqrt().max(1e-6);
    let normed = window.iter().map(|x| (x - mean) / std).collect();
    (normed, mean, std)
}

/// Inverse of [`revin_normalize`] applied to a forecast.
pub fn revin_denormalize(forecast: &mut [f64], mean: f64, std: f64) {
    for v in forecast.iter_mut() {
        *v = *v * std + mean;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_layer_shapes() {
        let mut store = ParamStore::new(1);
        let lin = Linear::new(&mut store, 4, 3);
        let mut tape = Tape::new();
        let x = tape.input(&[1.0; 8], 2, 4);
        let y = lin.forward(&mut tape, &store, x);
        assert_eq!(tape.shape(y), (2, 3));
    }

    #[test]
    fn attention_preserves_shape() {
        let mut store = ParamStore::new(2);
        let attn = SelfAttention::new(&mut store, 8);
        let mut tape = Tape::new();
        let x = tape.input(&vec![0.1; 5 * 8], 5, 8);
        let y = attn.forward(&mut tape, &store, x);
        assert_eq!(tape.shape(y), (5, 8));
    }

    #[test]
    fn encoder_layer_trains_end_to_end() {
        // Verify gradients flow: one Adam step changes the output.
        let mut store = ParamStore::new(3);
        let enc = EncoderLayer::new(&mut store, 4);
        let head = Linear::new(&mut store, 4, 1);
        let eval = |store: &ParamStore| {
            let mut tape = Tape::new();
            let x = tape.input(&[0.5, -0.2, 0.3, 0.8, 0.1, 0.9, -0.5, 0.2], 2, 4);
            let h = enc.forward(&mut tape, store, x);
            let y = head.forward(&mut tape, store, h);
            let sq = tape.mul_elem(y, y);
            let l = tape.mean_all(sq);
            (tape, l)
        };
        let before = {
            let (tape, loss) = eval(&store);
            tape.value(loss)[0]
        };
        let mut adam = crate::optim::Adam::new(0.01);
        for _ in 0..20 {
            let (mut tape, loss) = eval(&store);
            tape.backward(loss, &mut store);
            adam.step(&mut store);
        }
        let (tape2, loss2) = eval(&store);
        let after = tape2.value(loss2)[0];
        assert!(after < before, "{after} vs {before}");
    }

    #[test]
    fn decompose_reconstructs_exactly() {
        let xs: Vec<f64> = (0..50)
            .map(|t| (t as f64 * 0.3).sin() + 0.1 * t as f64)
            .collect();
        let (trend, seasonal) = decompose(&xs, 25);
        for t in 0..50 {
            assert!((trend[t] + seasonal[t] - xs[t]).abs() < 1e-12);
        }
    }

    #[test]
    fn decompose_trend_is_smooth() {
        let xs: Vec<f64> = (0..60)
            .map(|t| 0.5 * t as f64 + 5.0 * (t as f64 * 1.3).sin())
            .collect();
        let (trend, _) = decompose(&xs, 25);
        // Trend differences should be far less volatile than the raw series.
        let raw_var: f64 = xs.windows(2).map(|w| (w[1] - w[0]).powi(2)).sum();
        let trend_var: f64 = trend.windows(2).map(|w| (w[1] - w[0]).powi(2)).sum();
        assert!(trend_var < raw_var / 4.0);
    }

    #[test]
    fn dft_features_pick_up_the_right_mode() {
        let xs: Vec<f64> = (0..64)
            .map(|t| (std::f64::consts::TAU * 4.0 * t as f64 / 64.0).cos())
            .collect();
        let f = dft_features(&xs, 8);
        // Mode 4 (index 2*(4-1) = 6) should dominate.
        let mag: Vec<f64> = f
            .chunks(2)
            .map(|c| (c[0] * c[0] + c[1] * c[1]).sqrt())
            .collect();
        let best = mag
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 3);
    }

    #[test]
    fn legendre_features_capture_linear_trend() {
        let xs: Vec<f64> = (0..40).map(|t| 2.0 * t as f64 / 39.0 - 1.0).collect();
        let c = legendre_features(&xs, 4);
        // A pure linear ramp projects almost entirely onto P_1.
        assert!(c[1].abs() > 0.8, "{c:?}");
        assert!(c[0].abs() < 0.1 && c[2].abs() < 0.1);
    }

    #[test]
    fn revin_roundtrip() {
        let xs = vec![10.0, 12.0, 8.0, 11.0];
        let (normed, mean, std) = revin_normalize(&xs);
        let m: f64 = normed.iter().sum::<f64>() / 4.0;
        assert!(m.abs() < 1e-12);
        let mut back = normed.clone();
        revin_denormalize(&mut back, mean, std);
        for (a, b) in back.iter().zip(&xs) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
