//! Shared harness for the table/figure reproduction binaries.
//!
//! Every table and figure of the paper's evaluation section has a binary in
//! `src/bin/` that regenerates it (see DESIGN.md for the index). The
//! binaries print the paper's rows/series to stdout and write CSVs under
//! `target/tfb-results/`.
//!
//! Two environment knobs control scale:
//!
//! * `TFB_FULL=1` — paper-sized horizons/look-backs and full window counts
//!   (hours of CPU; the default is a laptop-scale reduction that preserves
//!   the paper's *relative* comparisons);
//! * `TFB_FAST=1` — an even smaller smoke-test scale used by CI.

pub mod emit;
pub mod engines;
pub mod harness;
pub mod measure;
pub mod suite;
pub mod table6;
pub mod toml;

use std::path::PathBuf;
use tfb_core::eval::{evaluate, EvalOutcome, EvalSettings};
use tfb_core::method::build_method;
use tfb_core::report::ResultTable;
use tfb_datagen::{DatasetProfile, Scale};
use tfb_nn::TrainConfig;

/// Run scale selected by environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// CI smoke test.
    Fast,
    /// Laptop default.
    Default,
    /// Paper-sized.
    Full,
}

impl RunScale {
    /// Reads `TFB_FULL` / `TFB_FAST`.
    pub fn from_env() -> RunScale {
        if std::env::var_os("TFB_FULL").is_some() {
            RunScale::Full
        } else if std::env::var_os("TFB_FAST").is_some() {
            RunScale::Fast
        } else {
            RunScale::Default
        }
    }

    /// Dataset generation scale.
    pub fn data_scale(self) -> Scale {
        match self {
            RunScale::Fast => Scale {
                max_len: 800,
                max_dim: 4,
            },
            RunScale::Default => Scale {
                max_len: 2_000,
                max_dim: 6,
            },
            RunScale::Full => Scale::FULL,
        }
    }

    /// Horizons evaluated for a profile: the paper's four at full scale,
    /// proportionally reduced otherwise.
    pub fn horizons(self, profile: &DatasetProfile) -> Vec<usize> {
        match self {
            RunScale::Full => profile.horizons.to_vec(),
            RunScale::Default => {
                if profile.horizons == tfb_datagen::profiles::LONG_HORIZONS {
                    vec![24, 48]
                } else {
                    vec![24, 36]
                }
            }
            RunScale::Fast => vec![profile.horizons[0].min(24)],
        }
    }

    /// Look-back search space for a profile.
    pub fn lookbacks(self, profile: &DatasetProfile) -> Vec<usize> {
        match self {
            RunScale::Full => profile.lookbacks.to_vec(),
            RunScale::Default => {
                if profile.horizons == tfb_datagen::profiles::LONG_HORIZONS {
                    vec![96]
                } else {
                    vec![36, 104]
                }
            }
            RunScale::Fast => vec![36],
        }
    }

    /// Rolling-window budget per evaluation.
    pub fn max_windows(self) -> usize {
        match self {
            RunScale::Fast => 5,
            RunScale::Default => 20,
            RunScale::Full => 0,
        }
    }

    /// Deep-learning training budget.
    pub fn train_config(self) -> TrainConfig {
        match self {
            RunScale::Fast => TrainConfig {
                epochs: 4,
                max_samples: 200,
                ..TrainConfig::default()
            },
            RunScale::Default => TrainConfig {
                epochs: 15,
                max_samples: 800,
                ..TrainConfig::default()
            },
            RunScale::Full => TrainConfig {
                epochs: 60,
                max_samples: 8_000,
                ..TrainConfig::default()
            },
        }
    }
}

/// The 14 multivariate methods of Tables 7–8.
pub const MTSF_METHODS: [&str; 14] = [
    "PatchTST",
    "Crossformer",
    "FEDformer",
    "Informer",
    "Triformer",
    "DLinear",
    "NLinear",
    "MICN",
    "TimesNet",
    "TCN",
    "FiLM",
    "RNN",
    "LR",
    "VAR",
];

/// The 21 univariate methods of Table 6.
pub const UTSF_METHODS: [&str; 21] = [
    "PatchTST",
    "Crossformer",
    "FEDformer",
    "Stationary",
    "Informer",
    "Triformer",
    "DLinear",
    "NLinear",
    "TiDE",
    "N-BEATS",
    "N-HiTS",
    "TimesNet",
    "TCN",
    "RNN",
    "FiLM",
    "LR",
    "RF",
    "XGB",
    "ARIMA",
    "ETS",
    "KF",
];

/// Output directory for the generated tables.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("target/tfb-results");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Runs a reproduction binary under an armed observability run: span
/// events stream to `target/obs/<label>.events.jsonl` and the manifest
/// lands beside them when the closure returns. `TFB_OBS=0` disables the
/// instrumentation for the run.
pub fn with_obs<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let obs_on = std::env::var("TFB_OBS").map(|v| v != "0").unwrap_or(true);
    let dir = PathBuf::from("target/obs");
    let mut armed = false;
    if obs_on {
        let opts = tfb_obs::RunOptions {
            events_path: Some(dir.join(format!("{label}.events.jsonl"))),
        };
        // A sink that cannot open disarms the run entirely — a half-armed
        // run (events without a manifest, or the reverse) would poison
        // cross-run comparisons.
        match tfb_obs::start_run(opts) {
            Ok(()) => armed = true,
            Err(e) => eprintln!(
                "{label}: could not open the observability sink: {e}; \
                 falling back to a fully disarmed run"
            ),
        }
    }
    let out = f();
    if armed {
        let meta = [
            ("bin", label.to_string()),
            ("git_rev", tfb_obs::git_rev().unwrap_or_default()),
            ("scale", format!("{:?}", RunScale::from_env())),
            ("kernel", tfb_math::kernel::active_name().to_string()),
        ];
        if let Some(manifest) = tfb_obs::finish_run(&meta) {
            let path = dir.join(format!("{label}.manifest.json"));
            match manifest.write(&path) {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("{label}: could not write the run manifest: {e}"),
            }
        }
    }
    out
}

/// Evaluates one method on one dataset profile with best-of-lookback
/// selection, mirroring the paper's ≤ 8-set hyper-parameter search.
pub fn eval_best_lookback(
    profile: &DatasetProfile,
    series: &tfb_data::MultiSeries,
    method_name: &str,
    horizon: usize,
    scale: RunScale,
) -> Option<EvalOutcome> {
    let mut best: Option<EvalOutcome> = None;
    for lookback in scale.lookbacks(profile) {
        let mut settings = EvalSettings::rolling(lookback, horizon, profile.split);
        settings.max_windows = scale.max_windows();
        let Ok(mut method) = build_method(
            method_name,
            lookback,
            horizon,
            series.dim(),
            Some(scale.train_config()),
        ) else {
            continue;
        };
        if let Ok(out) = evaluate(&mut method, series, &settings) {
            let score = out.metric(tfb_core::Metric::Mae);
            let better = match &best {
                None => true,
                Some(b) => {
                    let cur = b.metric(tfb_core::Metric::Mae);
                    score.is_finite() && (!cur.is_finite() || score < cur)
                }
            };
            if better {
                best = Some(out);
            }
        }
    }
    best
}

/// Writes a table both to stdout (markdown) and the results directory.
pub fn emit(table: &ResultTable, name: &str, metric: tfb_core::Metric) {
    println!("{}", table.to_markdown(metric));
    match table.write_csv(&results_dir(), name) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {name}.csv: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_lists_match_the_papers_study_sizes() {
        // 14 multivariate (Tables 7-8) and 21 univariate (Table 6) methods.
        assert_eq!(MTSF_METHODS.len(), 14);
        assert_eq!(UTSF_METHODS.len(), 21);
        // Every name resolves in the factory.
        for name in MTSF_METHODS.iter().chain(&UTSF_METHODS) {
            assert!(
                tfb_core::method::build_method(name, 24, 6, 2, None).is_ok(),
                "unknown method {name}"
            );
        }
    }

    #[test]
    fn scales_order_budgets_sensibly() {
        let fast = RunScale::Fast;
        let def = RunScale::Default;
        let full = RunScale::Full;
        assert!(fast.data_scale().max_len < def.data_scale().max_len);
        assert!(def.data_scale().max_len < full.data_scale().max_len);
        assert!(fast.train_config().epochs < def.train_config().epochs);
        assert_eq!(full.max_windows(), 0, "full scale keeps every window");
    }

    #[test]
    fn full_scale_uses_paper_horizons_and_lookbacks() {
        let ili = tfb_datagen::profile_by_name("ILI").unwrap();
        assert_eq!(RunScale::Full.horizons(&ili), vec![24, 36, 48, 60]);
        assert_eq!(RunScale::Full.lookbacks(&ili), vec![36, 104]);
        let etth1 = tfb_datagen::profile_by_name("ETTh1").unwrap();
        assert_eq!(RunScale::Full.horizons(&etth1), vec![96, 192, 336, 720]);
        assert_eq!(RunScale::Full.lookbacks(&etth1), vec![96, 336, 512]);
    }

    #[test]
    fn reduced_horizons_fit_reduced_test_regions() {
        // Every default-scale (horizon, lookback) must fit the default-scale
        // test split of every profile, or table7_8 would silently skip rows.
        for profile in tfb_datagen::all_profiles() {
            let scale = RunScale::Default;
            let len = profile.len(scale.data_scale());
            let test_len = (len as f64 * profile.split.test).floor() as usize;
            for h in scale.horizons(&profile) {
                assert!(
                    test_len > h,
                    "{}: test region {test_len} cannot hold horizon {h}",
                    profile.name
                );
            }
            for lb in scale.lookbacks(&profile) {
                assert!(
                    len > lb + scale.horizons(&profile)[0],
                    "{}: lookback {lb} too long",
                    profile.name
                );
            }
        }
    }

    #[test]
    fn eval_best_lookback_produces_an_outcome() {
        let profile = tfb_datagen::profile_by_name("ILI").unwrap();
        let series = profile.generate(tfb_datagen::Scale::TINY);
        let out = eval_best_lookback(&profile, &series, "Naive", 12, RunScale::Fast)
            .expect("naive always evaluates");
        assert_eq!(out.method, "Naive");
        assert!(out.metric(tfb_core::Metric::Mae).is_finite());
    }
}
