//! Golden bits of deep training and inference.
//!
//! Every kind is trained on one fixed two-channel series and then asked
//! for forecasts of fixed windows, both through `predict_batch` and
//! through `predict`. A 64-bit FNV-1a digest of the trained tensors and
//! of the forecasts is pinned here: any change to the tape, the trainer,
//! the kernels or a model graph that moves a single bit fails this test.
//! The digests were recorded from the per-sample trainer (one tape graph
//! per training sample and per inference window), so they also prove
//! that blocked graphs reproduce it.
//!
//! A model that meets a non-finite input must fail exactly as the
//! per-sample trainer did: same error, same epoch.

use tfb_data::{Domain, Frequency, MultiSeries};
use tfb_math::Matrix;
use tfb_models::WindowForecaster;
use tfb_nn::{DeepModel, DeepModelKind, TrainConfig};

const LOOKBACK: usize = 24;
const HORIZON: usize = 6;

fn kinds() -> impl Iterator<Item = DeepModelKind> {
    DeepModelKind::PAPER_BASELINES
        .into_iter()
        .chain([DeepModelKind::Mlp])
}

fn series(n: usize) -> MultiSeries {
    let a: Vec<f64> = (0..n)
        .map(|t| {
            let t = t as f64;
            (std::f64::consts::TAU * t / 12.0).sin() + 0.01 * t + 0.3 * (t * 0.37).sin().powi(3)
        })
        .collect();
    let b: Vec<f64> = (0..n)
        .map(|t| {
            let t = t as f64;
            2.0 * (std::f64::consts::TAU * t / 7.0).cos() - 0.02 * t + 0.1 * (t * 1.3).sin()
        })
        .collect();
    MultiSeries::from_channels("g", Frequency::Hourly, Domain::Energy, &[a, b]).unwrap()
}

/// Three mini-batches of 8 and a partial one of 5 per epoch (37 training
/// windows pooled over both channels), so every epoch ends on a partial
/// mini-batch.
fn config() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size: 8,
        lr: 0.01,
        max_samples: 46,
        patience: 10,
        val_fraction: 0.2,
        seed: 5,
        ..TrainConfig::default()
    }
}

fn fnv(hash: &mut u64, xs: &[f64]) {
    for x in xs {
        for byte in x.to_bits().to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// (tensor digest, forecast digest) of one trained kind.
fn digests(kind: DeepModelKind) -> (u64, u64) {
    let s = series(140);
    let mut m = DeepModel::new(kind, LOOKBACK, HORIZON, 2);
    m.config = config();
    m.train(&s)
        .unwrap_or_else(|e| panic!("{kind:?} train: {e}"));
    let mut tensors = 0xcbf2_9ce4_8422_2325;
    for (v, _, _) in m.export_tensors() {
        fnv(&mut tensors, &v);
    }
    let rows: Vec<Vec<f64>> = (0..5)
        .map(|i| s.values()[(100 + 3 * i) * 2..(100 + 3 * i + LOOKBACK) * 2].to_vec())
        .collect();
    let windows = Matrix::from_rows(&rows).unwrap();
    let batched = m.predict_batch(&windows, 2).unwrap();
    let mut forecasts = 0xcbf2_9ce4_8422_2325;
    fnv(&mut forecasts, batched.data());
    for (r, w) in rows.iter().enumerate() {
        let single = m.predict(w, 2).unwrap();
        assert_eq!(batched.row(r), single.as_slice(), "{kind:?} window {r}");
    }
    (tensors, forecasts)
}

/// Recorded from the per-sample trainer.
const GOLDEN: [(DeepModelKind, u64, u64); 17] = [
    (
        DeepModelKind::NLinear,
        0x8ec061b2429b4df5,
        0x32f7b36e12ab868f,
    ),
    (
        DeepModelKind::DLinear,
        0x4975eb581ff1eb37,
        0xd1dd9c8e0bf2334e,
    ),
    (
        DeepModelKind::PatchTST,
        0x7afb85d811bd7bc0,
        0x31c6f94799ef26e9,
    ),
    (
        DeepModelKind::Crossformer,
        0xb29876dfa617dd48,
        0xf5fc61af72e4aa30,
    ),
    (
        DeepModelKind::FEDformer,
        0x2040c03d56fbf2b2,
        0x2ba571c3321392cc,
    ),
    (
        DeepModelKind::Informer,
        0xc021013a61191e73,
        0x3d5f53cacc3d5828,
    ),
    (
        DeepModelKind::Triformer,
        0xfbf0c37043ed49e6,
        0x75c34b171d30ff40,
    ),
    (
        DeepModelKind::Stationary,
        0x789897b71c1fb0cd,
        0x4200385324dae685,
    ),
    (DeepModelKind::TiDE, 0xf637712ae2f82ce7, 0x04b0c9551f7f778f),
    (
        DeepModelKind::NBeats,
        0x7c1ab50dcb6d6b2c,
        0xbf24b7b56fdda924,
    ),
    (DeepModelKind::NHiTS, 0x417b747fea757e56, 0x0d12aba45c314085),
    (
        DeepModelKind::TimesNet,
        0xb6b46f52c4bcede7,
        0xe9b2621348784df6,
    ),
    (DeepModelKind::MICN, 0xd528c9ec855bd56f, 0x896804c4c36b85d8),
    (DeepModelKind::Tcn, 0xe730c9ecce42f6e7, 0xc331c12f43c416a3),
    (DeepModelKind::Rnn, 0x2dc69c1dd299770b, 0xa8254408e3c45cfc),
    (DeepModelKind::FiLM, 0x658c6c3a575a647d, 0x1e0e76b1abb332f9),
    (DeepModelKind::Mlp, 0xfc1e8cfcb8b3141d, 0xcbb1be05f298cd12),
];

#[test]
fn every_kind_trains_and_forecasts_the_golden_bits() {
    let mut failures = Vec::new();
    for kind in kinds() {
        let (t, f) = digests(kind);
        match GOLDEN.iter().find(|g| g.0 == kind) {
            Some(&(_, want_t, want_f)) if (t, f) == (want_t, want_f) => {}
            _ => failures.push(format!("(DeepModelKind::{kind:?}, {t:#018x}, {f:#018x}),")),
        }
    }
    assert!(
        failures.is_empty(),
        "digests differ:\n{}",
        failures.join("\n")
    );
}

/// The errors the per-sample trainer ended in when one training value is
/// non-finite.
const EPOCH_0: &str = "numerical failure: non-finite validation loss at epoch 0";

const NON_FINITE: [(DeepModelKind, &str); 17] = [
    (DeepModelKind::NLinear, EPOCH_0),
    (DeepModelKind::DLinear, EPOCH_0),
    (DeepModelKind::PatchTST, EPOCH_0),
    (DeepModelKind::Crossformer, EPOCH_0),
    (DeepModelKind::FEDformer, EPOCH_0),
    (DeepModelKind::Informer, EPOCH_0),
    (DeepModelKind::Triformer, EPOCH_0),
    (DeepModelKind::Stationary, EPOCH_0),
    (DeepModelKind::TiDE, EPOCH_0),
    (DeepModelKind::NBeats, EPOCH_0),
    (DeepModelKind::NHiTS, EPOCH_0),
    (DeepModelKind::TimesNet, EPOCH_0),
    (DeepModelKind::MICN, EPOCH_0),
    (DeepModelKind::Tcn, EPOCH_0),
    (DeepModelKind::Rnn, EPOCH_0),
    (DeepModelKind::FiLM, EPOCH_0),
    (DeepModelKind::Mlp, EPOCH_0),
];

#[test]
fn a_non_finite_input_ends_in_the_recorded_error() {
    let mut failures = Vec::new();
    for kind in kinds() {
        let mut s = series(140);
        let mut values = s.values().to_vec();
        values[2 * 60] = f64::NAN;
        values[2 * 90 + 1] = f64::INFINITY;
        s = MultiSeries::new("g", Frequency::Hourly, Domain::Energy, 2, values).unwrap();
        let mut m = DeepModel::new(kind, LOOKBACK, HORIZON, 2);
        m.config = config();
        let got = match m.train(&s) {
            Ok(()) => "ok".to_string(),
            Err(e) => e.to_string(),
        };
        match NON_FINITE.iter().find(|g| g.0 == kind) {
            Some(&(_, want)) if want == got => {}
            _ => failures.push(format!("(DeepModelKind::{kind:?}, {got:?}),")),
        }
    }
    assert!(
        failures.is_empty(),
        "errors differ:\n{}",
        failures.join("\n")
    );
}
