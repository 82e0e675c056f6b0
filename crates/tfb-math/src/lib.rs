//! Numeric substrate for the TFB benchmark.
//!
//! Everything in this crate is implemented from scratch on top of `std`:
//! dense linear algebra ([`matrix::Matrix`]), least squares
//! ([`regression`]), fast Fourier transforms ([`fft`]), Loess smoothing and
//! STL-style seasonal decomposition ([`loess`], [`stl`]), descriptive
//! statistics ([`stats`]), autocorrelation ([`acf`]), symmetric
//! eigendecomposition ([`eigen`]), principal component analysis
//! ([`pca`]) and the worker pool the workspace shares ([`par::par_map`]).
//!
//! The crate deliberately has no third-party dependencies so that the rest
//! of the workspace rests on a fully auditable numeric base.

// Dense numeric kernels index by position on purpose: the index
// arithmetic *is* the algorithm (GEMM, filters, recursions), and iterator
// rewrites obscure it.
#![allow(clippy::needless_range_loop)]
pub mod acf;
pub mod eigen;
pub mod fft;
pub mod kernel;
pub mod loess;
pub mod matrix;
pub mod par;
pub mod pca;
pub mod regression;
pub mod stats;
pub mod stl;

pub use matrix::Matrix;

/// Error type shared by the numeric routines in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MathError {
    /// Operand shapes are incompatible (e.g. matrix product of 2x3 by 2x2).
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        context: &'static str,
    },
    /// A factorization failed because the input is singular (or numerically
    /// indistinguishable from singular).
    Singular,
    /// The input is empty where a non-empty sequence is required.
    Empty,
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence,
    /// A parameter is outside its legal range.
    InvalidArgument(&'static str),
}

impl std::fmt::Display for MathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MathError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch in {context}")
            }
            MathError::Singular => write!(f, "matrix is singular"),
            MathError::Empty => write!(f, "empty input"),
            MathError::NoConvergence => write!(f, "iteration failed to converge"),
            MathError::InvalidArgument(what) => write!(f, "invalid argument: {what}"),
        }
    }
}

impl std::error::Error for MathError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MathError>;
