//! The sixteen miniature deep-learning forecasters plus a generic MLP.
//!
//! Each model keeps the architectural *inductive bias* of its namesake —
//! what the paper's Section 5.3 analysis attributes performance
//! differences to — at CPU-trainable size:
//!
//! | Kind | Bias kept |
//! |---|---|
//! | `NLinear` | linear map on a last-value-anchored window |
//! | `DLinear` | moving-average decomposition + two linear heads |
//! | `PatchTST` | patching + channel-independent self-attention |
//! | `Crossformer` | attention **across channel tokens** (channel-dependent) |
//! | `FEDformer` | frequency-domain filtering + decomposition |
//! | `Informer` | point-wise tokens + distilling (pooled) encoder |
//! | `Triformer` | patch attention with triangular (pooled) second stage |
//! | `Stationary` | per-window (de)standardization around attention |
//! | `TiDE` | dense encoder-decoder with linear skip |
//! | `NBeats` | residual backcast/forecast basis blocks |
//! | `NHiTS` | N-BEATS blocks at multiple pooling rates |
//! | `TimesNet` | period folding to 2-D + mixing |
//! | `MICN` | multi-scale causal convolution branches |
//! | `Tcn` | stacked dilated causal convolutions |
//! | `Rnn` | gated recurrence (GRU) |
//! | `FiLM` | Legendre (HiPPO) projection + frequency truncation |
//!
//! All models implement [`tfb_models::WindowForecaster`]. Channel-independent
//! models pool training windows across channels; `Crossformer` trains on
//! full multivariate windows.

use crate::blocks::{
    decompose, dft_features, legendre_features, revin_normalize, EncoderLayer, Linear, Mlp,
};
use crate::optim::{ParamId, ParamStore};
use crate::tape::{Tape, TensorRef};
use crate::train::{TrainConfig, Trainer, CHUNK};
use tfb_data::MultiSeries;
use tfb_math::matrix::Matrix;
use tfb_models::{ModelError, Result, WindowForecaster};

/// Which miniature architecture to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeepModelKind {
    /// Last-value-anchored linear model.
    NLinear,
    /// Decomposition + linear heads.
    DLinear,
    /// Patch transformer, channel independent.
    PatchTST,
    /// Cross-channel transformer.
    Crossformer,
    /// Frequency-enhanced decomposition model.
    FEDformer,
    /// Distilling point-wise transformer.
    Informer,
    /// Triangular two-stage patch attention.
    Triformer,
    /// Non-stationary (normalization-wrapped) transformer.
    Stationary,
    /// Dense encoder-decoder with skip.
    TiDE,
    /// Basis-expansion residual blocks.
    NBeats,
    /// Multi-rate basis-expansion blocks.
    NHiTS,
    /// Period-folding 2-D mixing.
    TimesNet,
    /// Multi-scale convolution.
    MICN,
    /// Dilated causal convolution stack.
    Tcn,
    /// Gated recurrent network.
    Rnn,
    /// Legendre-projection frequency model.
    FiLM,
    /// Plain two-layer MLP baseline.
    Mlp,
}

impl DeepModelKind {
    /// All sixteen paper baselines (excludes the extra `Mlp`).
    pub const PAPER_BASELINES: [DeepModelKind; 16] = [
        DeepModelKind::NLinear,
        DeepModelKind::DLinear,
        DeepModelKind::PatchTST,
        DeepModelKind::Crossformer,
        DeepModelKind::FEDformer,
        DeepModelKind::Informer,
        DeepModelKind::Triformer,
        DeepModelKind::Stationary,
        DeepModelKind::TiDE,
        DeepModelKind::NBeats,
        DeepModelKind::NHiTS,
        DeepModelKind::TimesNet,
        DeepModelKind::MICN,
        DeepModelKind::Tcn,
        DeepModelKind::Rnn,
        DeepModelKind::FiLM,
    ];

    /// Display name matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            DeepModelKind::NLinear => "NLinear",
            DeepModelKind::DLinear => "DLinear",
            DeepModelKind::PatchTST => "PatchTST",
            DeepModelKind::Crossformer => "Crossformer",
            DeepModelKind::FEDformer => "FEDformer",
            DeepModelKind::Informer => "Informer",
            DeepModelKind::Triformer => "Triformer",
            DeepModelKind::Stationary => "Stationary",
            DeepModelKind::TiDE => "TiDE",
            DeepModelKind::NBeats => "N-BEATS",
            DeepModelKind::NHiTS => "N-HiTS",
            DeepModelKind::TimesNet => "TimesNet",
            DeepModelKind::MICN => "MICN",
            DeepModelKind::Tcn => "TCN",
            DeepModelKind::Rnn => "RNN",
            DeepModelKind::FiLM => "FiLM",
            DeepModelKind::Mlp => "MLP",
        }
    }

    /// Inverse of [`label`](DeepModelKind::label): resolves a display
    /// name back to its kind (used when loading a model artifact).
    pub fn from_label(label: &str) -> Option<DeepModelKind> {
        DeepModelKind::PAPER_BASELINES
            .iter()
            .copied()
            .chain(std::iter::once(DeepModelKind::Mlp))
            .find(|k| k.label() == label)
    }

    /// The architecture family used by the Figure 9 family comparison.
    pub fn family(self) -> &'static str {
        match self {
            DeepModelKind::NLinear
            | DeepModelKind::DLinear
            | DeepModelKind::TiDE
            | DeepModelKind::NBeats
            | DeepModelKind::NHiTS
            | DeepModelKind::Mlp
            | DeepModelKind::FiLM => "Linear/MLP",
            DeepModelKind::PatchTST
            | DeepModelKind::Crossformer
            | DeepModelKind::FEDformer
            | DeepModelKind::Informer
            | DeepModelKind::Triformer
            | DeepModelKind::Stationary => "Transformer",
            DeepModelKind::TimesNet | DeepModelKind::MICN | DeepModelKind::Tcn => "CNN",
            DeepModelKind::Rnn => "RNN",
        }
    }

    /// Whether the model consumes all channels jointly.
    pub fn is_cross_channel(self) -> bool {
        matches!(self, DeepModelKind::Crossformer)
    }
}

/// Input preprocessing applied outside the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Preprocess {
    /// Raw window.
    None,
    /// Per-window standardization, undone on the forecast (RevIN).
    RevIn,
    /// Subtract the window's last value, add it back to the forecast.
    LastValue,
}

/// The architecture graph: per-kind parameter handles and blocks.
#[allow(clippy::large_enum_variant)] // parameter *handles* only; built once per model
enum Arch {
    NLinear {
        head: Linear,
    },
    DLinear {
        trend_head: Linear,
        seasonal_head: Linear,
        kernel: usize,
    },
    PatchLike {
        embed: Linear,
        pos: ParamId,
        enc1: EncoderLayer,
        enc2: Option<EncoderLayer>,
        /// Pool stride between the two encoder stages (Informer distilling,
        /// Triformer triangular shrink); 1 disables.
        pool: usize,
        head: Linear,
        patch: usize,
        tokens: usize,
    },
    Crossformer {
        embed: Linear,
        enc: EncoderLayer,
        head: Linear,
    },
    FedFormer {
        freq_mlp: Mlp,
        trend_head: Linear,
        modes: usize,
        kernel: usize,
    },
    Tide {
        skip: Linear,
        encoder: Mlp,
        decoder: Mlp,
    },
    Beats {
        /// (block MLP, backcast head, forecast head, pool stride)
        blocks: Vec<(Mlp, Linear, Linear, usize)>,
    },
    TimesNet {
        row_mix: ParamId,
        col_mix: ParamId,
        head: Linear,
        period: usize,
        rows: usize,
    },
    Micn {
        convs: Vec<(ParamId, usize)>,
        head: Mlp,
        channels: usize,
    },
    Tcn {
        convs: Vec<(ParamId, usize, usize)>,
        head: Linear,
        channels: usize,
    },
    Gru {
        wz: Linear,
        wr: Linear,
        wh: Linear,
        head: Linear,
        hidden: usize,
        steps: usize,
        stride: usize,
    },
    Film {
        mlp: Mlp,
        k: usize,
        modes: usize,
    },
    Mlp {
        mlp: Mlp,
    },
}

/// A deep forecaster: architecture + parameters + training configuration.
pub struct DeepModel {
    kind: DeepModelKind,
    lookback: usize,
    horizon: usize,
    store: ParamStore,
    arch: Arch,
    preprocess: Preprocess,
    /// Training configuration (public so studies can shrink budgets).
    pub config: TrainConfig,
    trained: bool,
    /// Channel count, fixed at training time for cross-channel models.
    dim: usize,
}

impl DeepModel {
    /// Builds an untrained model for the given look-back and horizon.
    /// Cross-channel models additionally need the channel count `dim`.
    pub fn new(kind: DeepModelKind, lookback: usize, horizon: usize, dim: usize) -> DeepModel {
        let mut store = ParamStore::new(kind_seed(kind));
        let l = lookback;
        let f = horizon;
        let d_model = 24usize;
        let preprocess = match kind {
            DeepModelKind::NLinear => Preprocess::LastValue,
            DeepModelKind::DLinear | DeepModelKind::FEDformer => Preprocess::None,
            _ => Preprocess::RevIn,
        };
        let arch = match kind {
            DeepModelKind::NLinear => Arch::NLinear {
                head: Linear::new(&mut store, l, f),
            },
            DeepModelKind::DLinear => Arch::DLinear {
                trend_head: Linear::new(&mut store, l, f),
                seasonal_head: Linear::new(&mut store, l, f),
                kernel: 25.min(l.max(1)),
            },
            DeepModelKind::PatchTST | DeepModelKind::Stationary => {
                let patch = if kind == DeepModelKind::PatchTST {
                    (l / 6).clamp(2, 16)
                } else {
                    // Stationary uses coarser point-group tokens.
                    (l / 16).clamp(1, 8)
                };
                let tokens = l.div_ceil(patch);
                Arch::PatchLike {
                    embed: Linear::new(&mut store, patch, d_model),
                    pos: store.add(tokens, d_model),
                    enc1: EncoderLayer::new(&mut store, d_model),
                    enc2: Some(EncoderLayer::new(&mut store, d_model)),
                    pool: 1,
                    head: Linear::new(&mut store, tokens * d_model, f),
                    patch,
                    tokens,
                }
            }
            DeepModelKind::Informer => {
                let patch = (l / 24).max(1);
                let tokens = l.div_ceil(patch);
                let pooled = tokens.div_ceil(2);
                Arch::PatchLike {
                    embed: Linear::new(&mut store, patch, d_model),
                    pos: store.add(tokens, d_model),
                    enc1: EncoderLayer::new(&mut store, d_model),
                    enc2: Some(EncoderLayer::new(&mut store, d_model)),
                    pool: 2,
                    head: Linear::new(&mut store, pooled * d_model, f),
                    patch,
                    tokens,
                }
            }
            DeepModelKind::Triformer => {
                let patch = (l / 8).clamp(2, 16);
                let tokens = l.div_ceil(patch);
                let pooled = tokens.div_ceil(3);
                Arch::PatchLike {
                    embed: Linear::new(&mut store, patch, d_model),
                    pos: store.add(tokens, d_model),
                    enc1: EncoderLayer::new(&mut store, d_model),
                    enc2: Some(EncoderLayer::new(&mut store, d_model)),
                    pool: 3,
                    head: Linear::new(&mut store, pooled * d_model, f),
                    patch,
                    tokens,
                }
            }
            DeepModelKind::Crossformer => Arch::Crossformer {
                embed: Linear::new(&mut store, l, d_model),
                enc: EncoderLayer::new(&mut store, d_model),
                head: Linear::new(&mut store, d_model, f),
            },
            DeepModelKind::FEDformer => {
                let modes = (l / 4).clamp(4, 16);
                Arch::FedFormer {
                    freq_mlp: Mlp::new(&mut store, 2 * modes, 2 * d_model, f),
                    trend_head: Linear::new(&mut store, l, f),
                    modes,
                    kernel: 25.min(l.max(1)),
                }
            }
            DeepModelKind::TiDE => Arch::Tide {
                skip: Linear::new(&mut store, l, f),
                encoder: Mlp::new(&mut store, l, 2 * d_model, d_model),
                decoder: Mlp::new(&mut store, d_model, 2 * d_model, f),
            },
            DeepModelKind::NBeats => {
                let blocks = (0..3)
                    .map(|_| {
                        (
                            Mlp::new(&mut store, l, 2 * d_model, d_model),
                            Linear::new(&mut store, d_model, l),
                            Linear::new(&mut store, d_model, f),
                            1usize,
                        )
                    })
                    .collect();
                Arch::Beats { blocks }
            }
            DeepModelKind::NHiTS => {
                let blocks = [1usize, 2, 4]
                    .iter()
                    .map(|&stride| {
                        let pooled = l.div_ceil(stride);
                        (
                            Mlp::new(&mut store, pooled, 2 * d_model, d_model),
                            Linear::new(&mut store, d_model, l),
                            Linear::new(&mut store, d_model, f),
                            stride,
                        )
                    })
                    .collect();
                Arch::Beats { blocks }
            }
            DeepModelKind::TimesNet => {
                let period = ((l as f64).sqrt().round() as usize).clamp(2, 24.min(l.max(2)));
                let rows = (l / period).max(1);
                Arch::TimesNet {
                    row_mix: store.add(rows, rows),
                    col_mix: store.add(period, period),
                    head: Linear::new(&mut store, rows * period, f),
                    period,
                    rows,
                }
            }
            DeepModelKind::MICN => {
                let channels = 8usize;
                let convs = [3usize, 5, 7]
                    .iter()
                    .map(|&k| (store.add(k, channels), k))
                    .collect();
                Arch::Micn {
                    convs,
                    head: Mlp::new(&mut store, 3 * channels + l.min(16), d_model, f),
                    channels,
                }
            }
            DeepModelKind::Tcn => {
                let channels = 12usize;
                let mut convs = Vec::new();
                let mut in_ch = 1usize;
                for &dil in &[1usize, 2, 4] {
                    convs.push((store.add(3 * in_ch, channels), 3usize, dil));
                    in_ch = channels;
                }
                Arch::Tcn {
                    convs,
                    head: Linear::new(&mut store, channels, f),
                    channels,
                }
            }
            DeepModelKind::Rnn => {
                let hidden = 24usize;
                let steps = l.min(32);
                let stride = l.div_ceil(steps);
                Arch::Gru {
                    wz: Linear::new(&mut store, hidden + 1, hidden),
                    wr: Linear::new(&mut store, hidden + 1, hidden),
                    wh: Linear::new(&mut store, hidden + 1, hidden),
                    head: Linear::new(&mut store, hidden, f),
                    hidden,
                    steps,
                    stride,
                }
            }
            DeepModelKind::FiLM => {
                let k = 16.min(l.max(2));
                let modes = (l / 4).clamp(2, 8);
                Arch::Film {
                    mlp: Mlp::new(&mut store, k + 2 * modes, 2 * d_model, f),
                    k,
                    modes,
                }
            }
            DeepModelKind::Mlp => Arch::Mlp {
                mlp: Mlp::new(&mut store, l, 2 * d_model, f),
            },
        };
        DeepModel {
            kind,
            lookback,
            horizon,
            store,
            arch,
            preprocess,
            config: TrainConfig::default(),
            trained: false,
            dim: if kind.is_cross_channel() {
                dim.max(1)
            } else {
                1
            },
        }
    }

    /// Which architecture this model instantiates.
    pub fn kind(&self) -> DeepModelKind {
        self.kind
    }

    /// Forward pass over a chunk of (preprocessed) input vectors, stacked.
    ///
    /// Channel-independent models receive single-channel windows (each
    /// `lookback` long) and return one `1 x horizon` block per window; the
    /// cross-channel model receives time-major multivariate windows and
    /// returns one `1 x horizon * dim` block (time-major) per window.
    fn forward(&self, tape: &mut Tape, input: &[f64]) -> TensorRef {
        run_forward(
            &self.arch,
            self.lookback,
            self.horizon,
            self.dim,
            tape,
            &self.store,
            input,
        )
    }
}

/// `f` of every `len`-value sample of the stacked chunk `input`, its
/// outputs stacked in sample order.
fn per_sample(input: &[f64], len: usize, mut f: impl FnMut(&[f64], &mut Vec<f64>)) -> Vec<f64> {
    let mut out = Vec::with_capacity(input.len());
    for w in input.chunks_exact(len) {
        f(w, &mut out);
    }
    out
}

/// Architecture forward pass, store passed explicitly so the trainer can
/// hold the mutable store between passes. `input` stacks a chunk of
/// samples; the graph is written for one and the tape runs it on every
/// block (see [`Tape`]).
fn run_forward(
    arch: &Arch,
    l: usize,
    f: usize,
    dim: usize,
    tape: &mut Tape,
    store: &ParamStore,
    input: &[f64],
) -> TensorRef {
    match arch {
        Arch::NLinear { head } => {
            let x = tape.input(input, 1, l);
            head.forward(tape, store, x)
        }
        Arch::DLinear {
            trend_head,
            seasonal_head,
            kernel,
        } => {
            let mut seasonal = Vec::with_capacity(input.len());
            let trend = per_sample(input, l, |w, out| {
                let (t, s) = decompose(w, *kernel);
                out.extend(t);
                seasonal.extend(s);
            });
            let xt = tape.input(&trend, 1, l);
            let xs = tape.input(&seasonal, 1, l);
            let yt = trend_head.forward(tape, store, xt);
            let ys = seasonal_head.forward(tape, store, xs);
            tape.add(yt, ys)
        }
        Arch::PatchLike {
            embed,
            pos,
            enc1,
            enc2,
            pool,
            head,
            patch,
            tokens,
            ..
        } => {
            // Right-align the window into whole patches (pad by
            // repeating the first value when l % patch != 0).
            let missing = tokens * patch - l;
            let padded = per_sample(input, l, |w, out| {
                out.extend(std::iter::repeat_n(w[0], missing));
                out.extend_from_slice(w);
            });
            let x = tape.input(&padded, *tokens, *patch);
            let emb = embed.forward(tape, store, x);
            let pos_t = tape.param(store, *pos);
            let mut h = tape.add(emb, pos_t);
            h = enc1.forward(tape, store, h);
            if *pool > 1 {
                h = tape.avg_pool_rows(h, *pool);
            }
            if let Some(enc2) = enc2 {
                h = enc2.forward(tape, store, h);
            }
            let (hr, hc) = tape.shape(h);
            let flat = tape.reshape(h, 1, hr * hc);
            head.forward(tape, store, flat)
        }
        Arch::Crossformer { embed, enc, head } => {
            // input is time-major (l, dim): transpose to channel tokens.
            let x = tape.input(input, l, dim);
            let xt = tape.transpose(x); // (dim, l)
            let emb = embed.forward(tape, store, xt); // (dim, d)
            let h = enc.forward(tape, store, emb);
            let y = head.forward(tape, store, h); // (dim, f)
                                                  // Back to time-major 1 x (f * dim).
            let yt = tape.transpose(y); // (f, dim)
            tape.reshape(yt, 1, f * dim)
        }
        Arch::FedFormer {
            freq_mlp,
            trend_head,
            modes,
            kernel,
        } => {
            let mut trend = Vec::with_capacity(input.len());
            let freq = per_sample(input, l, |w, out| {
                let (t, s) = decompose(w, *kernel);
                out.extend(dft_features(&s, *modes));
                trend.extend(t);
            });
            let xf = tape.input(&freq, 1, 2 * modes);
            let ys = freq_mlp.forward(tape, store, xf);
            let xt = tape.input(&trend, 1, l);
            let yt = trend_head.forward(tape, store, xt);
            tape.add(ys, yt)
        }
        Arch::Tide {
            skip,
            encoder,
            decoder,
        } => {
            let x = tape.input(input, 1, l);
            let lin = skip.forward(tape, store, x);
            let h = encoder.forward(tape, store, x);
            let h = tape.relu(h);
            let dec = decoder.forward(tape, store, h);
            tape.add(lin, dec)
        }
        Arch::Beats { blocks } => {
            let mut residual = tape.input(input, 1, l);
            let mut forecast: Option<TensorRef> = None;
            for (mlp, backcast, fcast, stride) in blocks {
                let block_in = if *stride > 1 {
                    let as_rows = tape.reshape(residual, l, 1);
                    let pooled = tape.avg_pool_rows(as_rows, *stride);
                    let (pr, _) = tape.shape(pooled);
                    tape.reshape(pooled, 1, pr)
                } else {
                    residual
                };
                let h = mlp.forward(tape, store, block_in);
                let h = tape.relu(h);
                let b = backcast.forward(tape, store, h);
                let fo = fcast.forward(tape, store, h);
                residual = tape.sub(residual, b);
                forecast = Some(match forecast {
                    None => fo,
                    Some(acc) => tape.add(acc, fo),
                });
            }
            forecast.expect("at least one block")
        }
        Arch::TimesNet {
            row_mix,
            col_mix,
            head,
            period,
            rows,
        } => {
            // Fold the most recent rows*period values into 2-D.
            let take = rows * period;
            let tails = per_sample(input, l, |w, out| out.extend_from_slice(&w[l - take..]));
            let x = tape.input(&tails, *rows, *period);
            let a = tape.param(store, *row_mix);
            let b = tape.param(store, *col_mix);
            let ax = tape.matmul(a, x);
            let axb = tape.matmul(ax, b);
            let mixed = tape.relu(axb);
            // Residual connection keeps the identity path.
            let res = tape.add(mixed, x);
            let flat = tape.reshape(res, 1, take);
            head.forward(tape, store, flat)
        }
        Arch::Micn {
            convs,
            head,
            channels,
        } => {
            let x = tape.input(input, l, 1);
            let mut feats: Option<TensorRef> = None;
            for (w, kernel) in convs {
                let wt = tape.param(store, *w);
                let c = tape.causal_conv1d(x, wt, *kernel, 1);
                let c = tape.relu(c);
                // Global average over time -> 1 x channels.
                let pooled = tape.avg_pool_rows(c, l);
                let pooled = tape.reshape(pooled, 1, *channels);
                feats = Some(match feats {
                    None => pooled,
                    Some(acc) => tape.concat_cols(acc, pooled),
                });
            }
            // Keep the most recent raw values as local context.
            let recent_n = l.min(16);
            let recent = per_sample(input, l, |w, out| out.extend_from_slice(&w[l - recent_n..]));
            let recent = tape.input(&recent, 1, recent_n);
            let all = tape.concat_cols(feats.expect("branches"), recent);
            head.forward(tape, store, all)
        }
        Arch::Tcn {
            convs,
            head,
            channels,
        } => {
            let mut h = tape.input(input, l, 1);
            for (w, kernel, dilation) in convs {
                let wt = tape.param(store, *w);
                h = tape.causal_conv1d(h, wt, *kernel, *dilation);
                h = tape.relu(h);
            }
            // Select the final timestep's features via a selector row,
            // one block that every sample shares.
            let mut sel = vec![0.0; l];
            sel[l - 1] = 1.0;
            let s = tape.input(&sel, 1, l);
            let last = tape.matmul(s, h); // 1 x channels
            let last = tape.reshape(last, 1, *channels);
            head.forward(tape, store, last)
        }
        Arch::Gru {
            wz,
            wr,
            wh,
            head,
            hidden,
            steps,
            stride,
        } => {
            // Downsample the window to `steps` inputs.
            let samples = input.len() / l;
            let mut h = tape.input(&vec![0.0; samples * hidden], 1, *hidden);
            for s in 0..*steps {
                let start = s * stride;
                let end = ((s + 1) * stride).min(l);
                if start >= end {
                    break;
                }
                let xval = per_sample(input, l, |w, out| {
                    out.push(w[start..end].iter().sum::<f64>() / (end - start) as f64)
                });
                let xt = tape.input(&xval, 1, 1);
                let hx = tape.concat_cols(h, xt);
                let z = wz.forward(tape, store, hx);
                let z = tape.sigmoid(z);
                let r = wr.forward(tape, store, hx);
                let r = tape.sigmoid(r);
                let rh = tape.mul_elem(r, h);
                let rhx = tape.concat_cols(rh, xt);
                let cand = wh.forward(tape, store, rhx);
                let cand = tape.tanh(cand);
                // h = (1 - z) * h + z * cand = h + z * (cand - h)
                let diff = tape.sub(cand, h);
                let upd = tape.mul_elem(z, diff);
                h = tape.add(h, upd);
            }
            head.forward(tape, store, h)
        }
        Arch::Film { mlp, k, modes } => {
            let feats = per_sample(input, l, |w, out| {
                out.extend(legendre_features(w, *k));
                out.extend(dft_features(w, *modes));
            });
            let x = tape.input(&feats, 1, k + 2 * modes);
            mlp.forward(tape, store, x)
        }
        Arch::Mlp { mlp } => {
            let x = tape.input(input, 1, l);
            mlp.forward(tape, store, x)
        }
    }
}

impl DeepModel {
    /// Applies the model's preprocessing to an (input, target) pair.
    /// Returns the transformed pair plus the denormalization closure state.
    fn preprocess_pair(&self, input: &[f64], target: &[f64]) -> (Vec<f64>, Vec<f64>) {
        match self.preprocess {
            Preprocess::None => (input.to_vec(), target.to_vec()),
            Preprocess::RevIn => {
                let (normed, mean, std) = revin_normalize(input);
                let t = target.iter().map(|v| (v - mean) / std).collect();
                (normed, t)
            }
            Preprocess::LastValue => {
                let last = *input.last().expect("nonempty window");
                (
                    input.iter().map(|v| v - last).collect(),
                    target.iter().map(|v| v - last).collect(),
                )
            }
        }
    }

    fn preprocess_input(&self, input: &[f64]) -> (Vec<f64>, f64, f64) {
        match self.preprocess {
            Preprocess::None => (input.to_vec(), 0.0, 1.0),
            Preprocess::RevIn => {
                let (normed, mean, std) = revin_normalize(input);
                (normed, mean, std)
            }
            Preprocess::LastValue => {
                let last = *input.last().expect("nonempty window");
                (input.iter().map(|v| v - last).collect(), last, 1.0)
            }
        }
    }

    /// Builds (input, target) training pairs from a training split.
    fn training_pairs(&self, train: &MultiSeries) -> Result<tfb_data::window::LagSamples> {
        let l = self.lookback;
        let f = self.horizon;
        let mut inputs = Vec::new();
        let mut targets = Vec::new();
        if self.kind.is_cross_channel() {
            let n = train.len();
            if n < l + f {
                return Err(ModelError::InsufficientData("train split too short"));
            }
            let dim = train.dim();
            for s in 0..=(n - l - f) {
                let raw_in = &train.values()[s * dim..(s + l) * dim];
                let raw_tg = &train.values()[(s + l) * dim..(s + l + f) * dim];
                // RevIN per channel.
                let mut inp = vec![0.0; l * dim];
                let mut tgt = vec![0.0; f * dim];
                for c in 0..dim {
                    let ch_in: Vec<f64> = (0..l).map(|t| raw_in[t * dim + c]).collect();
                    let ch_tg: Vec<f64> = (0..f).map(|t| raw_tg[t * dim + c]).collect();
                    let (ni, nt) = self.preprocess_pair(&ch_in, &ch_tg);
                    for t in 0..l {
                        inp[t * dim + c] = ni[t];
                    }
                    for t in 0..f {
                        tgt[t * dim + c] = nt[t];
                    }
                }
                inputs.push(inp);
                targets.push(tgt);
            }
        } else {
            let (xs, ys) =
                tfb_models::tabular::pooled_lag_samples(train, l, f, self.config.max_samples)?;
            for (x, y) in xs.iter().zip(&ys) {
                let (i, t) = self.preprocess_pair(x, y);
                inputs.push(i);
                targets.push(t);
            }
        }
        if inputs.is_empty() {
            return Err(ModelError::InsufficientData("no training windows"));
        }
        Ok((inputs, targets))
    }

    /// Maps a model output back to the data's scale.
    fn denormalize(&self, v: f64, mean: f64, std: f64) -> f64 {
        match self.preprocess {
            Preprocess::None => v,
            Preprocess::RevIn => v * std + mean,
            Preprocess::LastValue => v + mean,
        }
    }

    /// Forecasts every row of `windows` (already checked: `lookback ×
    /// dim`, time-major) on blocked graphs of up to [`CHUNK`]
    /// blocks: one block per window for the cross-channel model, one per
    /// (window, channel) pair otherwise. Every block is preprocessed and
    /// denormalized exactly as a lone window is, and its forward is the
    /// one-sample graph's, so the forecasts do not depend on the batch.
    fn forecast(&self, windows: &Matrix, dim: usize) -> Matrix {
        let l = self.lookback;
        let f = self.horizon;
        let n = windows.rows();
        let cross = self.kind.is_cross_channel();
        let mut inputs = Vec::with_capacity(n * l * dim);
        let mut stats = Vec::with_capacity(n * dim);
        for r in 0..n {
            let w = windows.row(r);
            let start = inputs.len();
            for c in 0..dim {
                let ch: Vec<f64> = (0..l).map(|t| w[t * dim + c]).collect();
                let (normed, mean, std) = self.preprocess_input(&ch);
                if cross {
                    // RevIN per channel, back into the time-major window.
                    inputs.resize(start + l * dim, 0.0);
                    for (t, v) in normed.into_iter().enumerate() {
                        inputs[start + t * dim + c] = v;
                    }
                } else {
                    inputs.extend(normed);
                }
                stats.push((mean, std));
            }
        }
        let block = if cross { l * dim } else { l };
        let mut y = Vec::with_capacity(n * f * dim);
        let mut tape = Tape::new();
        for part in inputs.chunks(CHUNK * block) {
            tape.reset();
            let out = self.forward(&mut tape, part);
            y.extend_from_slice(tape.value(out));
        }
        debug_assert_eq!(y.len(), n * f * dim);
        let mut out = Matrix::zeros(n, f * dim);
        for r in 0..n {
            for c in 0..dim {
                let (mean, std) = stats[r * dim + c];
                for h in 0..f {
                    // Cross-channel blocks are time-major (f, dim); the
                    // others one channel's horizon each.
                    let v = if cross {
                        y[r * f * dim + h * dim + c]
                    } else {
                        y[(r * dim + c) * f + h]
                    };
                    out[(r, h * dim + c)] = self.denormalize(v, mean, std);
                }
            }
        }
        out
    }
}

impl DeepModel {
    /// The channel count fixed at training time (1 for channel-
    /// independent models).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Owned copies of every parameter tensor with its shape, in
    /// registration order — what a model artifact persists.
    pub fn export_tensors(&self) -> Vec<(Vec<f64>, usize, usize)> {
        self.store
            .tensors()
            .into_iter()
            .map(|(v, r, c)| (v.to_vec(), r, c))
            .collect()
    }

    /// Rebuilds a trained model from tensors exported by
    /// [`export_tensors`](DeepModel::export_tensors). Architecture
    /// construction is deterministic in `(kind, lookback, horizon)`, so
    /// the registration sequence matches the exporting model's; any
    /// count or shape mismatch (a corrupt or mislabeled artifact) is a
    /// structured error, not a panic.
    pub fn from_tensors(
        kind: DeepModelKind,
        lookback: usize,
        horizon: usize,
        dim: usize,
        tensors: &[(Vec<f64>, usize, usize)],
    ) -> std::result::Result<DeepModel, String> {
        let mut model = DeepModel::new(kind, lookback, horizon, dim);
        model.store.load_tensors(tensors)?;
        model.trained = true;
        Ok(model)
    }
}

fn kind_seed(kind: DeepModelKind) -> u64 {
    // Stable per-architecture seeds keep runs reproducible.
    DeepModelKind::PAPER_BASELINES
        .iter()
        .position(|&k| k == kind)
        .unwrap_or(16) as u64
        + 1000
}

impl WindowForecaster for DeepModel {
    fn name(&self) -> &'static str {
        self.kind.label()
    }

    fn lookback(&self) -> usize {
        self.lookback
    }

    fn horizon(&self) -> usize {
        self.horizon
    }

    fn train(&mut self, train: &MultiSeries) -> Result<()> {
        if self.kind.is_cross_channel() {
            self.dim = train.dim();
        }
        // Rebuild the parameters so training is idempotent: retraining the
        // same instance starts from the same seeded initialization instead
        // of continuing from the previous run's weights. (This also resizes
        // cross-channel shapes when the data's dim differs from the
        // constructor's.)
        let rebuilt = DeepModel::new(self.kind, self.lookback, self.horizon, self.dim);
        self.store = rebuilt.store;
        self.arch = rebuilt.arch;
        let (inputs, targets) = self.training_pairs(train)?;
        let trainer = Trainer::new(self.config);
        let arch = &self.arch;
        let (l, f, dim) = (self.lookback, self.horizon, self.dim);
        trainer.fit(&mut self.store, &inputs, &targets, |tape, store, input| {
            run_forward(arch, l, f, dim, tape, store, input)
        })?;
        self.trained = true;
        Ok(())
    }

    fn predict(&self, window: &[f64], dim: usize) -> Result<Vec<f64>> {
        if !self.trained {
            return Err(ModelError::NotTrained);
        }
        if self.kind.is_cross_channel() && dim != self.dim {
            return Err(ModelError::InvalidParameter("dim differs from training"));
        }
        if dim == 0 || window.len() != self.lookback * dim {
            return Err(ModelError::InvalidParameter("window length != lookback"));
        }
        let windows = Matrix::from_vec(1, window.len(), window.to_vec())
            .expect("one row of the window's length");
        Ok(self.forecast(&windows, dim).data().to_vec())
    }

    /// Runs all windows (and channels) through blocked graphs, for every
    /// architecture; bit-identical to per-window [`predict`].
    fn predict_batch(&self, windows: &Matrix, dim: usize) -> Result<Matrix> {
        if !self.trained {
            return Err(ModelError::NotTrained);
        }
        if dim == 0 || windows.cols() != self.lookback * dim {
            return Err(ModelError::InvalidParameter("window length != lookback"));
        }
        if self.kind.is_cross_channel() && dim != self.dim {
            return Err(ModelError::InvalidParameter("dim differs from training"));
        }
        Ok(self.forecast(windows, dim))
    }

    fn parameter_count(&self) -> usize {
        self.store.parameter_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfb_data::{Domain, Frequency};

    fn sine_series(n: usize, period: f64) -> MultiSeries {
        let xs: Vec<f64> = (0..n)
            .map(|t| (std::f64::consts::TAU * t as f64 / period).sin())
            .collect();
        MultiSeries::from_channels("s", Frequency::Hourly, Domain::Energy, &[xs]).unwrap()
    }

    fn quick_config() -> TrainConfig {
        TrainConfig {
            epochs: 30,
            batch_size: 16,
            lr: 0.01,
            max_samples: 256,
            patience: 10,
            val_fraction: 0.2,
            seed: 0,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn every_kind_builds_trains_and_predicts() {
        let s = sine_series(160, 12.0);
        for kind in DeepModelKind::PAPER_BASELINES
            .iter()
            .copied()
            .chain([DeepModelKind::Mlp])
        {
            let mut m = DeepModel::new(kind, 24, 6, 1);
            m.config = quick_config();
            m.config.epochs = 3;
            m.train(&s)
                .unwrap_or_else(|e| panic!("{kind:?} train: {e}"));
            let window: Vec<f64> = (0..24)
                .map(|t| (std::f64::consts::TAU * (136 + t) as f64 / 12.0).sin())
                .collect();
            let f = m
                .predict(&window, 1)
                .unwrap_or_else(|e| panic!("{kind:?} predict: {e}"));
            assert_eq!(f.len(), 6, "{kind:?}");
            assert!(f.iter().all(|v| v.is_finite()), "{kind:?}: {f:?}");
            assert!(m.parameter_count() > 0, "{kind:?}");
        }
    }

    #[test]
    fn nlinear_learns_sine_continuation() {
        let s = sine_series(400, 16.0);
        let mut m = DeepModel::new(DeepModelKind::NLinear, 32, 8, 1);
        m.config = quick_config();
        m.config.epochs = 80;
        m.train(&s).unwrap();
        let window: Vec<f64> = (368..400)
            .map(|t| (std::f64::consts::TAU * t as f64 / 16.0).sin())
            .collect();
        let f = m.predict(&window, 1).unwrap();
        for (h, v) in f.iter().enumerate() {
            let expect = (std::f64::consts::TAU * (400 + h) as f64 / 16.0).sin();
            assert!((v - expect).abs() < 0.25, "h={h}: {v} vs {expect}");
        }
    }

    #[test]
    fn nlinear_transfers_to_shifted_levels() {
        // The LastValue anchor makes NLinear robust to level shifts.
        let s = sine_series(300, 16.0);
        let mut m = DeepModel::new(DeepModelKind::NLinear, 32, 4, 1);
        m.config = quick_config();
        m.config.epochs = 60;
        m.train(&s).unwrap();
        let window: Vec<f64> = (268..300)
            .map(|t| 50.0 + (std::f64::consts::TAU * t as f64 / 16.0).sin())
            .collect();
        let f = m.predict(&window, 1).unwrap();
        for (h, v) in f.iter().enumerate() {
            let expect = 50.0 + (std::f64::consts::TAU * (300 + h) as f64 / 16.0).sin();
            assert!((v - expect).abs() < 0.6, "h={h}: {v} vs {expect}");
        }
    }

    #[test]
    fn crossformer_consumes_multivariate_windows() {
        let n = 200;
        let base: Vec<f64> = (0..n)
            .map(|t| (std::f64::consts::TAU * t as f64 / 10.0).sin())
            .collect();
        let other: Vec<f64> = base.iter().map(|v| 2.0 * v + 1.0).collect();
        let s = MultiSeries::from_channels("m", Frequency::Hourly, Domain::Traffic, &[base, other])
            .unwrap();
        let mut m = DeepModel::new(DeepModelKind::Crossformer, 20, 5, 2);
        m.config = quick_config();
        m.config.epochs = 5;
        m.train(&s).unwrap();
        let window = s.values()[(180 - 20) * 2..180 * 2].to_vec();
        let f = m.predict(&window, 2).unwrap();
        assert_eq!(f.len(), 10);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn predict_before_train_errors() {
        let m = DeepModel::new(DeepModelKind::Mlp, 8, 2, 1);
        assert!(matches!(
            m.predict(&[0.0; 8], 1),
            Err(ModelError::NotTrained)
        ));
    }

    #[test]
    fn batched_prediction_is_bit_identical_to_per_window() {
        // Row-map graphs plus N-HiTS, which pools between blocks; every
        // kind's batch runs on blocked graphs.
        let kinds = [
            DeepModelKind::NLinear,
            DeepModelKind::DLinear,
            DeepModelKind::FEDformer,
            DeepModelKind::TiDE,
            DeepModelKind::NBeats,
            DeepModelKind::FiLM,
            DeepModelKind::Mlp,
            DeepModelKind::NHiTS,
        ];
        let s = sine_series(160, 12.0);
        let rows: Vec<Vec<f64>> = (0..10)
            .map(|i| {
                (0..24)
                    .map(|t| {
                        (std::f64::consts::TAU * (i * 7 + t) as f64 / 12.0).sin() + 0.05 * i as f64
                    })
                    .collect()
            })
            .collect();
        let windows = Matrix::from_rows(&rows).unwrap();
        for kind in kinds {
            let mut m = DeepModel::new(kind, 24, 6, 1);
            m.config = quick_config();
            m.config.epochs = 2;
            m.train(&s).unwrap();
            let batched = m.predict_batch(&windows, 1).unwrap();
            assert_eq!(batched.rows(), 10);
            assert_eq!(batched.cols(), 6);
            for (r, w) in rows.iter().enumerate() {
                let single = m.predict(w, 1).unwrap();
                assert_eq!(batched.row(r), single.as_slice(), "{kind:?} window {r}");
            }
        }
    }

    #[test]
    fn batched_prediction_handles_multichannel_windows() {
        let n = 200;
        let a: Vec<f64> = (0..n)
            .map(|t| (std::f64::consts::TAU * t as f64 / 10.0).sin())
            .collect();
        let b: Vec<f64> = a.iter().map(|v| 2.0 * v + 1.0).collect();
        let s =
            MultiSeries::from_channels("m", Frequency::Hourly, Domain::Traffic, &[a, b]).unwrap();
        let mut m = DeepModel::new(DeepModelKind::DLinear, 20, 5, 2);
        m.config = quick_config();
        m.config.epochs = 2;
        m.train(&s).unwrap();
        let rows: Vec<Vec<f64>> = (0..4)
            .map(|i| s.values()[i * 6 * 2..(i * 6 + 20) * 2].to_vec())
            .collect();
        let windows = Matrix::from_rows(&rows).unwrap();
        let batched = m.predict_batch(&windows, 2).unwrap();
        for (r, w) in rows.iter().enumerate() {
            let single = m.predict(w, 2).unwrap();
            assert_eq!(batched.row(r), single.as_slice(), "window {r}");
        }
    }

    /// `Trainer::fit` as it ran before the tape arena: a fresh `Tape` for
    /// every training sample and every validation window, without probes.
    fn fit_with_fresh_tapes(
        cfg: TrainConfig,
        store: &mut ParamStore,
        inputs: &[Vec<f64>],
        targets: &[Vec<f64>],
        forward: impl Fn(&mut Tape, &ParamStore, &[f64]) -> TensorRef,
    ) {
        use rand::{Rng, SeedableRng};
        let n = inputs.len();
        let n_train = n - ((n as f64 * cfg.val_fraction) as usize).min(n - 1);
        let mut order: Vec<usize> = (0..n_train).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
        let mut adam = crate::optim::Adam::new(cfg.lr);
        let (mut best_val, mut best, mut stale) = (f64::INFINITY, store.snapshot(), 0);
        for _ in 0..cfg.epochs {
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for batch in order.chunks(cfg.batch_size) {
                store.zero_grads();
                for &i in batch {
                    let mut tape = Tape::new();
                    let pred = forward(&mut tape, store, &inputs[i]);
                    let (pr, pc) = tape.shape(pred);
                    let t = tape.input(&targets[i], pr, pc);
                    let d = tape.sub(pred, t);
                    let sq = tape.mul_elem(d, d);
                    let scaled = tape.scale(sq, 1.0 / batch.len() as f64);
                    let loss = tape.mean_all(scaled);
                    tape.backward(loss, store);
                }
                adam.step(store);
            }
            let mut val = 0.0;
            for i in n_train..n {
                let mut tape = Tape::new();
                let pred = forward(&mut tape, store, &inputs[i]);
                let p = tape.value(pred);
                let sse: f64 = p
                    .iter()
                    .zip(&targets[i])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                val += sse / p.len() as f64;
            }
            val /= (n - n_train) as f64;
            if val < best_val - 1e-9 {
                (best_val, best, stale) = (val, store.snapshot(), 0);
            } else {
                stale += 1;
                if stale > cfg.patience {
                    break;
                }
            }
        }
        store.restore(&best);
    }

    #[test]
    fn fit_on_one_reused_tape_matches_fresh_tapes_for_every_kind() {
        // Every op the models use: GRU gates read their parameters several
        // times per forward; MICN/TCN/N-HiTS run conv, pool and concat.
        let s = sine_series(120, 12.0);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 8,
            max_samples: 40,
            ..quick_config()
        };
        let bits = |m: &DeepModel| -> Vec<Vec<u64>> {
            m.export_tensors()
                .iter()
                .map(|(v, _, _)| v.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        for kind in DeepModelKind::PAPER_BASELINES
            .iter()
            .copied()
            .chain([DeepModelKind::Mlp])
        {
            let mut arena = DeepModel::new(kind, 24, 6, 1);
            arena.config = cfg;
            arena.train(&s).unwrap();
            let mut fresh = DeepModel::new(kind, 24, 6, 1);
            fresh.config = cfg;
            let (inputs, targets) = fresh.training_pairs(&s).unwrap();
            let (l, f, dim) = (fresh.lookback, fresh.horizon, fresh.dim);
            let arch = &fresh.arch;
            fit_with_fresh_tapes(cfg, &mut fresh.store, &inputs, &targets, |t, st, x| {
                run_forward(arch, l, f, dim, t, st, x)
            });
            assert!(
                bits(&arena) == bits(&fresh),
                "{kind:?}: trained tensors differ"
            );
        }
    }

    #[test]
    fn training_and_forecasts_do_not_depend_on_the_chunk() {
        // 3 mini-batches of 8 and a partial one per epoch; then the same
        // without a validation split (the trainer validates on training
        // windows). Chunks of 1 are one graph per sample.
        let s = sine_series(120, 12.0);
        let rows: Vec<Vec<f64>> = (0..3)
            .map(|i| s.values()[80 + 5 * i..104 + 5 * i].to_vec())
            .collect();
        let windows = Matrix::from_rows(&rows).unwrap();
        for val_fraction in [0.2, 0.0] {
            let cfg = TrainConfig {
                epochs: 2,
                batch_size: 8,
                max_samples: 37,
                val_fraction,
                ..quick_config()
            };
            for kind in DeepModelKind::PAPER_BASELINES
                .iter()
                .copied()
                .chain([DeepModelKind::Mlp])
            {
                let run = |chunk: usize| {
                    let mut m = DeepModel::new(kind, 24, 6, 1);
                    m.config = cfg;
                    let (inputs, targets) = m.training_pairs(&s).unwrap();
                    let (l, f, dim) = (m.lookback, m.horizon, m.dim);
                    let arch = &m.arch;
                    let best = Trainer::new(cfg)
                        .fit_chunked(
                            &mut m.store,
                            &inputs,
                            &targets,
                            |t, st, x| run_forward(arch, l, f, dim, t, st, x),
                            chunk,
                        )
                        .unwrap();
                    m.trained = true;
                    let forecasts = m.predict_batch(&windows, 1).unwrap();
                    let mut bits = vec![best.to_bits()];
                    for (v, _, _) in m.export_tensors() {
                        bits.extend(v.iter().map(|x| x.to_bits()));
                    }
                    bits.extend(forecasts.data().iter().map(|x| x.to_bits()));
                    bits
                };
                let want = run(1);
                for chunk in [2, 3, CHUNK, cfg.batch_size] {
                    assert!(
                        run(chunk) == want,
                        "{kind:?}, val_fraction {val_fraction}: chunks of {chunk} differ"
                    );
                }
            }
        }
    }

    #[test]
    fn families_are_assigned() {
        assert_eq!(DeepModelKind::PatchTST.family(), "Transformer");
        assert_eq!(DeepModelKind::Tcn.family(), "CNN");
        assert_eq!(DeepModelKind::NLinear.family(), "Linear/MLP");
        assert_eq!(DeepModelKind::Rnn.family(), "RNN");
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = DeepModelKind::PAPER_BASELINES
            .iter()
            .map(|k| k.label())
            .collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 16);
    }
}
