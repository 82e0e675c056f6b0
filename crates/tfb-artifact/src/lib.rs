//! Versioned, deterministic binary model artifacts (`tfb-artifact/v1`).
//!
//! A benchmark run trains a forecaster and throws it away; this crate
//! makes the fitted model a first-class, persistable object so it can be
//! served long after the training process exits. An artifact captures
//! everything inference needs: the method id, the look-back/horizon/dim
//! geometry, the fitted normalization statistics, and the parameter
//! tensors — encoded little-endian with length prefixes and an FNV-1a
//! integrity trailer (see [`format`]), with no external dependencies.
//!
//! Three parameter payloads cover the supported methods:
//!
//! * **naive** — no parameters; predict repeats the window's last row.
//! * **linear** — the ridge-regression coefficient matrix (`LR`).
//! * **deep** — the architecture label plus every parameter tensor of a
//!   [`DeepModel`] (`NLinear`, `DLinear`, `PatchTST`, and the rest of
//!   the tfb-nn families). Architecture construction is deterministic in
//!   `(kind, lookback, horizon)`, so tensors reload into an identical
//!   registration sequence.
//!
//! [`ServableModel`] is the inference view: it owns the decoded model
//! plus the normalizer and exposes `forecast`/`forecast_batch` over
//! **raw** (unnormalized) windows — normalize, predict, invert, exactly
//! the element-wise operations the offline evaluation pipeline applies,
//! so a served forecast is bit-identical to the offline one.

use std::path::Path;

use tfb_data::{MultiSeries, NormStats, Normalization, Normalizer};
use tfb_math::matrix::Matrix;
use tfb_models::{LinearRegressionForecaster, ModelError, WindowForecaster};
use tfb_nn::{DeepModel, DeepModelKind, TrainConfig};

pub mod format;

pub use format::{MAGIC, SCHEMA_VERSION};

/// Everything that can go wrong saving, loading or serving an artifact.
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The bytes are not a valid `tfb-artifact/v1` document.
    Format(String),
    /// The method id is not one this build can train or serve.
    Unsupported(String),
    /// The underlying model failed (training or inference).
    Model(String),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "io error: {e}"),
            ArtifactError::Format(m) => write!(f, "invalid artifact: {m}"),
            ArtifactError::Unsupported(m) => write!(f, "unsupported method: {m}"),
            ArtifactError::Model(m) => write!(f, "model error: {m}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

impl From<ModelError> for ArtifactError {
    fn from(e: ModelError) -> Self {
        ArtifactError::Model(e.to_string())
    }
}

/// Payload tag for the naive (parameter-free) model.
const TAG_NAIVE: u32 = 0;
/// Payload tag for the linear-regression coefficient matrix.
const TAG_LINEAR: u32 = 1;
/// Payload tag for a deep model's tensor list.
const TAG_DEEP: u32 = 2;

/// The parameter payload of one artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelParams {
    /// No parameters: predict repeats the window's last row.
    Naive,
    /// Ridge-regression coefficients (`(lookback + 1) x horizon`,
    /// intercept row first).
    Linear {
        /// Ridge penalty the model was fitted with.
        lambda: f64,
        /// Training sample budget the model was fitted with.
        max_samples: usize,
        /// Fitted coefficient matrix.
        coefs: Matrix,
    },
    /// A deep model's parameter tensors, in registration order.
    Deep {
        /// Architecture label ([`DeepModelKind::label`]).
        kind: String,
        /// `(values, rows, cols)` per tensor.
        tensors: Vec<(Vec<f64>, usize, usize)>,
    },
}

/// One decoded (or to-be-encoded) `tfb-artifact/v1` document.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArtifact {
    /// Method id (`Naive`, `LR`, or a deep label such as `PatchTST`).
    pub method: String,
    /// Provenance hash of the training configuration.
    pub config_hash: String,
    /// Look-back window length the model consumes.
    pub lookback: usize,
    /// Forecast horizon the model emits.
    pub horizon: usize,
    /// Channel count the model was trained on.
    pub dim: usize,
    /// Fitted normalization (scheme + per-channel statistics).
    pub norm: Normalizer,
    /// Parameter payload.
    pub params: ModelParams,
}

impl ModelArtifact {
    /// Encodes the artifact to its `tfb-artifact/v1` byte form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = format::Writer::new();
        w.put_bytes(&MAGIC);
        w.put_u32(SCHEMA_VERSION);
        w.put_string(&self.method);
        w.put_string(&self.config_hash);
        w.put_string(self.norm.scheme.name());
        w.put_u64(self.lookback as u64);
        w.put_u64(self.horizon as u64);
        w.put_u64(self.dim as u64);
        w.put_vec(&self.norm.stats.offset);
        w.put_vec(&self.norm.stats.scale);
        match &self.params {
            ModelParams::Naive => w.put_u32(TAG_NAIVE),
            ModelParams::Linear {
                lambda,
                max_samples,
                coefs,
            } => {
                w.put_u32(TAG_LINEAR);
                w.put_f64(*lambda);
                w.put_u64(*max_samples as u64);
                w.put_tensor(coefs.data(), coefs.rows(), coefs.cols());
            }
            ModelParams::Deep { kind, tensors } => {
                w.put_u32(TAG_DEEP);
                w.put_string(kind);
                w.put_u64(tensors.len() as u64);
                for (data, rows, cols) in tensors {
                    w.put_tensor(data, *rows, *cols);
                }
            }
        }
        w.finish()
    }

    /// Decodes an artifact, verifying magic, schema version, checksum
    /// and every structural invariant. Corrupt input is a structured
    /// [`ArtifactError::Format`], never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<ModelArtifact, ArtifactError> {
        if bytes.len() < 4 || bytes[..4] != MAGIC {
            return Err(ArtifactError::Format(
                "not a tfb artifact (bad magic)".to_string(),
            ));
        }
        let mut r = format::Reader::checked(bytes).map_err(ArtifactError::Format)?;
        r.get_bytes(4, "magic").map_err(ArtifactError::Format)?;
        let version = r.get_u32("schema version").map_err(ArtifactError::Format)?;
        if version != SCHEMA_VERSION {
            return Err(ArtifactError::Format(format!(
                "unsupported schema version {version} (this build reads {SCHEMA_VERSION})"
            )));
        }
        let fmt = ArtifactError::Format;
        let method = r.get_string("method id").map_err(fmt)?;
        let config_hash = r.get_string("config hash").map_err(fmt)?;
        let scheme_name = r.get_string("norm scheme").map_err(fmt)?;
        let scheme = Normalization::parse_name(&scheme_name).ok_or_else(|| {
            ArtifactError::Format(format!("unknown normalization scheme {scheme_name:?}"))
        })?;
        let lookback = r.get_u64("lookback").map_err(fmt)?;
        let horizon = r.get_u64("horizon").map_err(fmt)?;
        let dim = r.get_u64("dim").map_err(fmt)?;
        let (lookback, horizon, dim) = checked_geometry(lookback, horizon, dim)?;
        let offset = r.get_vec("norm offset").map_err(fmt)?;
        let scale = r.get_vec("norm scale").map_err(fmt)?;
        if offset.len() != dim || scale.len() != dim {
            return Err(ArtifactError::Format(format!(
                "normalization stats carry {}/{} channels, artifact dim is {dim}",
                offset.len(),
                scale.len()
            )));
        }
        let tag = r.get_u32("payload tag").map_err(fmt)?;
        let params = match tag {
            TAG_NAIVE => ModelParams::Naive,
            TAG_LINEAR => {
                let lambda = r.get_f64("lambda").map_err(fmt)?;
                let max_samples = r.get_u64("max samples").map_err(fmt)? as usize;
                let (data, rows, cols) = r.get_tensor("coefficients").map_err(fmt)?;
                let coefs = Matrix::from_vec(rows, cols, data)
                    .map_err(|e| ArtifactError::Format(e.to_string()))?;
                ModelParams::Linear {
                    lambda,
                    max_samples,
                    coefs,
                }
            }
            TAG_DEEP => {
                let kind = r.get_string("deep kind").map_err(fmt)?;
                let n = r.get_u64("tensor count").map_err(fmt)? as usize;
                if n > 4096 {
                    return Err(ArtifactError::Format(format!(
                        "tensor count {n} exceeds limit"
                    )));
                }
                let mut tensors = Vec::with_capacity(n);
                for i in 0..n {
                    tensors.push(r.get_tensor(&format!("tensor {i}")).map_err(fmt)?);
                }
                ModelParams::Deep { kind, tensors }
            }
            other => {
                return Err(ArtifactError::Format(format!(
                    "unknown payload tag {other}"
                )))
            }
        };
        if r.remaining() != 0 {
            return Err(ArtifactError::Format(format!(
                "{} trailing bytes after payload",
                r.remaining()
            )));
        }
        Ok(ModelArtifact {
            method,
            config_hash,
            lookback,
            horizon,
            dim,
            norm: Normalizer {
                scheme,
                stats: NormStats { offset, scale },
            },
            params,
        })
    }

    /// Writes the encoded artifact to `path`, creating parent
    /// directories.
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads and decodes an artifact from `path`.
    pub fn load(path: &Path) -> Result<ModelArtifact, ArtifactError> {
        let bytes = std::fs::read(path)?;
        ModelArtifact::from_bytes(&bytes)
    }
}

/// Method ids [`fit`] can train and [`ServableModel`] can serve.
pub fn supported_methods() -> Vec<&'static str> {
    let mut out = vec!["Naive", "LR"];
    out.extend(DeepModelKind::PAPER_BASELINES.iter().map(|k| k.label()));
    out.push(DeepModelKind::Mlp.label());
    out
}

/// The decoded geometry, refused unless it is positive and every buffer
/// it sizes holds at most [`format::MAX_TENSOR_LEN`] values: a window is
/// `lookback·dim`, a forecast `horizon·dim`, a linear head
/// `lookback·horizon`. Loading or serving a model allocates those, so an
/// unchecked field would abort the process instead of failing to decode.
fn checked_geometry(
    lookback: u64,
    horizon: u64,
    dim: u64,
) -> Result<(usize, usize, usize), ArtifactError> {
    if lookback == 0 || horizon == 0 || dim == 0 {
        return Err(ArtifactError::Format(format!(
            "degenerate geometry: lookback {lookback}, horizon {horizon}, dim {dim}"
        )));
    }
    let sizes = [
        Some(lookback),
        Some(horizon),
        Some(dim),
        lookback.checked_mul(dim),
        horizon.checked_mul(dim),
        lookback.checked_mul(horizon),
    ];
    if sizes
        .iter()
        .any(|s| s.is_none_or(|s| s > format::MAX_TENSOR_LEN))
    {
        return Err(ArtifactError::Format(format!(
            "geometry too large: lookback {lookback}, horizon {horizon}, dim {dim} \
             (each buffer is limited to {} values)",
            format::MAX_TENSOR_LEN
        )));
    }
    Ok((lookback as usize, horizon as usize, dim as usize))
}

/// Trains `method` on the **normalized** training segment and packages
/// the fitted parameters as an artifact. The caller fits the normalizer
/// on the raw training split and normalizes before calling — the same
/// sequence the offline evaluation pipeline applies — and passes that
/// normalizer in so inference can reproduce it.
///
/// `deep_config` overrides the training budget for deep methods (the
/// CLI's fast mode shrinks epochs); `Naive` and `LR` ignore it.
pub fn fit(
    method: &str,
    train: &MultiSeries,
    lookback: usize,
    horizon: usize,
    norm: Normalizer,
    config_hash: String,
    deep_config: Option<TrainConfig>,
) -> Result<ModelArtifact, ArtifactError> {
    if lookback == 0 || horizon == 0 {
        return Err(ArtifactError::Model(
            "lookback and horizon must be positive".to_string(),
        ));
    }
    let dim = train.dim();
    let params = match method {
        "Naive" => ModelParams::Naive,
        "LR" => {
            let mut model = LinearRegressionForecaster::new(lookback, horizon);
            model.train(train)?;
            let coefs = model
                .coefficients()
                .expect("trained LR has coefficients")
                .clone();
            ModelParams::Linear {
                lambda: model.lambda,
                max_samples: model.max_samples,
                coefs,
            }
        }
        other => {
            let kind = DeepModelKind::from_label(other).ok_or_else(|| {
                ArtifactError::Unsupported(format!(
                    "{other:?} (supported: {})",
                    supported_methods().join(", ")
                ))
            })?;
            let mut model = DeepModel::new(kind, lookback, horizon, dim);
            if let Some(cfg) = deep_config {
                model.config = cfg;
            }
            model.train(train)?;
            ModelParams::Deep {
                kind: kind.label().to_string(),
                tensors: model.export_tensors(),
            }
        }
    };
    Ok(ModelArtifact {
        method: method.to_string(),
        config_hash,
        lookback,
        horizon,
        dim,
        norm,
        params,
    })
}

/// The parameter-free naive forecaster in window form: predict repeats
/// the window's last row `horizon` times (the stat pipeline's `Naive`
/// applied to a history ending at the window's last step).
#[derive(Debug, Clone)]
struct NaiveWindow {
    lookback: usize,
    horizon: usize,
}

impl WindowForecaster for NaiveWindow {
    fn name(&self) -> &'static str {
        "Naive"
    }

    fn lookback(&self) -> usize {
        self.lookback
    }

    fn horizon(&self) -> usize {
        self.horizon
    }

    fn train(&mut self, _train: &MultiSeries) -> tfb_models::Result<()> {
        Ok(())
    }

    fn predict(&self, window: &[f64], dim: usize) -> tfb_models::Result<Vec<f64>> {
        if dim == 0 || window.len() != self.lookback * dim {
            return Err(ModelError::InvalidParameter("window length"));
        }
        let last = &window[(self.lookback - 1) * dim..];
        let mut out = Vec::with_capacity(self.horizon * dim);
        for _ in 0..self.horizon {
            out.extend_from_slice(last);
        }
        Ok(out)
    }
}

/// A loaded artifact ready to answer forecast requests: the decoded
/// model plus its normalizer, exposed over **raw** windows.
///
/// `forecast` applies normalize → `predict` → invert with exactly the
/// element-wise arithmetic the offline pipeline uses, so a served
/// forecast is bit-identical to offline inference on the same window.
/// `forecast_batch` routes through the model's `predict_batch`, whose
/// contract already guarantees bit-identity with per-row `predict` —
/// the coalescing server relies on both properties.
pub struct ServableModel {
    method: String,
    config_hash: String,
    lookback: usize,
    horizon: usize,
    dim: usize,
    norm: Normalizer,
    model: Box<dyn WindowForecaster>,
}

impl ServableModel {
    /// Instantiates the concrete model an artifact describes. Shape or
    /// label mismatches (a corrupt or mislabeled artifact) are
    /// structured errors.
    pub fn from_artifact(artifact: ModelArtifact) -> Result<ServableModel, ArtifactError> {
        let ModelArtifact {
            method,
            config_hash,
            lookback,
            horizon,
            dim,
            norm,
            params,
        } = artifact;
        let model: Box<dyn WindowForecaster> = match params {
            ModelParams::Naive => Box::new(NaiveWindow { lookback, horizon }),
            ModelParams::Linear {
                lambda,
                max_samples,
                coefs,
            } => Box::new(
                LinearRegressionForecaster::from_parts(
                    lookback,
                    horizon,
                    lambda,
                    max_samples,
                    coefs,
                )
                .map_err(ArtifactError::Format)?,
            ),
            ModelParams::Deep { kind, tensors } => {
                let kind = DeepModelKind::from_label(&kind)
                    .ok_or_else(|| ArtifactError::Unsupported(format!("{kind:?}")))?;
                Box::new(
                    DeepModel::from_tensors(kind, lookback, horizon, dim, &tensors)
                        .map_err(ArtifactError::Format)?,
                )
            }
        };
        Ok(ServableModel {
            method,
            config_hash,
            lookback,
            horizon,
            dim,
            norm,
            model,
        })
    }

    /// Loads and instantiates an artifact from disk in one step.
    pub fn load(path: &Path) -> Result<ServableModel, ArtifactError> {
        ServableModel::from_artifact(ModelArtifact::load(path)?)
    }

    /// Method id.
    pub fn method(&self) -> &str {
        &self.method
    }

    /// Training-configuration hash carried for provenance.
    pub fn config_hash(&self) -> &str {
        &self.config_hash
    }

    /// Look-back window length a request must carry (`lookback * dim`
    /// values, time-major).
    pub fn lookback(&self) -> usize {
        self.lookback
    }

    /// Forecast horizon a response carries (`horizon * dim` values).
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Channel count.
    pub fn dim(&self) -> usize {
        self.dim
    }

    fn normalize_window(&self, raw: &[f64]) -> Vec<f64> {
        let (offset, scale) = (&self.norm.stats.offset, &self.norm.stats.scale);
        raw.iter()
            .enumerate()
            .map(|(i, &v)| (v - offset[i % self.dim]) / scale[i % self.dim])
            .collect()
    }

    /// Forecasts `horizon * dim` raw values from one raw time-major
    /// window of `lookback * dim` values.
    pub fn forecast(&self, raw_window: &[f64]) -> Result<Vec<f64>, ArtifactError> {
        if raw_window.len() != self.lookback * self.dim {
            return Err(ArtifactError::Model(format!(
                "window carries {} values, model expects lookback {} x dim {} = {}",
                raw_window.len(),
                self.lookback,
                self.dim,
                self.lookback * self.dim
            )));
        }
        let normed = self.normalize_window(raw_window);
        let mut out = self.model.predict(&normed, self.dim)?;
        self.norm
            .invert_block(&mut out, self.dim)
            .map_err(|e| ArtifactError::Model(e.to_string()))?;
        Ok(out)
    }

    /// Forecasts every row of `raw_windows` through one `predict_batch`
    /// call. Row `r` of the result is bit-identical to
    /// `forecast(raw_windows.row(r))`.
    pub fn forecast_batch(&self, raw_windows: &Matrix) -> Result<Matrix, ArtifactError> {
        if raw_windows.cols() != self.lookback * self.dim {
            return Err(ArtifactError::Model(format!(
                "windows carry {} values each, model expects {}",
                raw_windows.cols(),
                self.lookback * self.dim
            )));
        }
        let mut normed = Matrix::zeros(raw_windows.rows(), raw_windows.cols());
        for r in 0..raw_windows.rows() {
            let row = self.normalize_window(raw_windows.row(r));
            let w = raw_windows.cols();
            normed.data_mut()[r * w..(r + 1) * w].copy_from_slice(&row);
        }
        let mut out = self.model.predict_batch(&normed, self.dim)?;
        self.norm
            .invert_block(out.data_mut(), self.dim)
            .map_err(|e| ArtifactError::Model(e.to_string()))?;
        Ok(out)
    }
}
