//! Round-trip guarantees of `tfb-artifact/v1`: save → load → predict is
//! bit-identical to the in-memory model, for every supported payload
//! kind, on randomized windows.

use tfb_artifact::{fit, ArtifactError, ModelArtifact, ServableModel};
use tfb_data::{ChronoSplit, Normalization, Normalizer};
use tfb_datagen::profiles::{profile_by_name, Scale};
use tfb_math::matrix::Matrix;
use tfb_nn::TrainConfig;

/// Tiny deep-training budget so the deep round-trips stay fast.
fn tiny_config() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        max_samples: 120,
        ..TrainConfig::default()
    }
}

/// Trains `method` the way the offline pipeline would: fit the
/// normalizer on the raw training split, normalize, train on the
/// pre-validation rows.
fn train_artifact(method: &str, lookback: usize, horizon: usize) -> ModelArtifact {
    let profile = profile_by_name("ILI").expect("ILI profile");
    let series = profile.generate(Scale::TINY);
    let split = ChronoSplit::split(&series, profile.split).expect("split");
    let norm = Normalizer::fit(&split.train, Normalization::ZScore);
    let normed = norm.apply(&series).expect("normalize");
    let train = normed.slice_rows(0..split.val_start);
    fit(
        method,
        &train,
        lookback,
        horizon,
        norm,
        "test-hash".to_string(),
        Some(tiny_config()),
    )
    .unwrap_or_else(|e| panic!("fit {method}: {e}"))
}

/// Deterministic raw windows in a realistic value range.
fn random_windows(n: usize, width: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| (0..width).map(|_| next() * 40.0 - 20.0).collect())
        .collect()
}

fn assert_bit_identical_round_trip(method: &str) {
    let (lookback, horizon) = (24, 8);
    let artifact = train_artifact(method, lookback, horizon);
    let bytes = artifact.to_bytes();
    let reloaded = ModelArtifact::from_bytes(&bytes).expect("decode");
    assert_eq!(artifact, reloaded, "{method}: decoded artifact differs");

    let dim = artifact.dim;
    let original = ServableModel::from_artifact(artifact).expect("servable (original)");
    let restored = ServableModel::from_artifact(reloaded).expect("servable (reloaded)");
    for (i, window) in random_windows(16, lookback * dim, 0xA5F00D + method.len() as u64)
        .iter()
        .enumerate()
    {
        let a = original.forecast(window).expect("forecast original");
        let b = restored.forecast(window).expect("forecast restored");
        assert_eq!(a.len(), horizon * dim);
        let same = a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{method}: window {i} forecast not bit-identical");
    }
}

#[test]
fn naive_round_trip_is_bit_identical() {
    assert_bit_identical_round_trip("Naive");
}

#[test]
fn linear_regression_round_trip_is_bit_identical() {
    assert_bit_identical_round_trip("LR");
}

#[test]
fn nlinear_round_trip_is_bit_identical() {
    assert_bit_identical_round_trip("NLinear");
}

#[test]
fn dlinear_round_trip_is_bit_identical() {
    assert_bit_identical_round_trip("DLinear");
}

#[test]
fn patchtst_round_trip_is_bit_identical() {
    assert_bit_identical_round_trip("PatchTST");
}

#[test]
fn batched_forecast_matches_single_forecasts() {
    let artifact = train_artifact("LR", 24, 8);
    let dim = artifact.dim;
    let model = ServableModel::from_artifact(artifact).expect("servable");
    let windows = random_windows(9, 24 * dim, 0xBEE);
    let flat: Vec<f64> = windows.iter().flatten().copied().collect();
    let matrix = Matrix::from_vec(windows.len(), 24 * dim, flat).expect("matrix");
    let batched = model.forecast_batch(&matrix).expect("batch");
    for (r, window) in windows.iter().enumerate() {
        let single = model.forecast(window).expect("single");
        let same = batched
            .row(r)
            .iter()
            .zip(&single)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "row {r}: batched forecast differs from single");
    }
}

#[test]
fn save_load_file_round_trip() {
    let artifact = train_artifact("LR", 16, 4);
    let dir = std::env::temp_dir().join(format!("tfba-rt-{}", std::process::id()));
    let path = dir.join("model.tfba");
    artifact.save(&path).expect("save");
    let loaded = ModelArtifact::load(&path).expect("load");
    assert_eq!(artifact, loaded);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_and_truncated_artifacts_are_structured_errors() {
    let artifact = train_artifact("Naive", 8, 4);
    let bytes = artifact.to_bytes();

    // Flipped payload bit: checksum catches it.
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    match ModelArtifact::from_bytes(&flipped) {
        Err(ArtifactError::Format(msg)) => assert!(msg.contains("checksum"), "{msg}"),
        other => panic!("expected Format error, got {other:?}"),
    }

    // Not an artifact at all.
    match ModelArtifact::from_bytes(b"{\"not\": \"an artifact\"}") {
        Err(ArtifactError::Format(msg)) => assert!(msg.contains("magic"), "{msg}"),
        other => panic!("expected Format error, got {other:?}"),
    }

    // Truncation anywhere in the document decodes to an error, never a
    // panic.
    for cut in [0, 3, 4, 7, 8, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            ModelArtifact::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} was accepted"
        );
    }
}

#[test]
fn oversized_geometry_is_a_format_error_at_decode() {
    // Each of these decoded before the geometry bound and then aborted
    // the process that served it (a 2^36-deep NLinear head, a 2^40-long
    // naive forecast) or overflowed `rows * cols` while building one.
    let deep = train_artifact("NLinear", 8, 4);
    let naive = train_artifact("Naive", 8, 4);
    let mut crafted = Vec::new();
    for (base, lookback, horizon) in [
        (&deep, 1u64 << 36, 4u64),
        (&naive, 8, 1 << 40),
        (&deep, 768_614_336_404_564_651, 4),
    ] {
        let mut artifact = base.clone();
        artifact.lookback = lookback as usize;
        artifact.horizon = horizon as usize;
        crafted.push(artifact.to_bytes());
    }
    for (i, bytes) in crafted.iter().enumerate() {
        match ModelArtifact::from_bytes(bytes) {
            Err(ArtifactError::Format(msg)) => assert!(msg.contains("geometry"), "{i}: {msg}"),
            other => panic!("artifact {i}: expected Format error, got {other:?}"),
        }
    }
    // The bound leaves real geometries alone.
    for artifact in [deep, naive] {
        assert_eq!(
            ModelArtifact::from_bytes(&artifact.to_bytes()).unwrap(),
            artifact
        );
    }
}

#[test]
fn unknown_method_is_unsupported() {
    let profile = profile_by_name("ILI").expect("ILI profile");
    let series = profile.generate(Scale::TINY);
    let split = ChronoSplit::split(&series, profile.split).expect("split");
    let norm = Normalizer::fit(&split.train, Normalization::ZScore);
    let err = fit("NotAMethod", &split.train, 8, 4, norm, String::new(), None).unwrap_err();
    assert!(matches!(err, ArtifactError::Unsupported(_)), "{err}");
}
