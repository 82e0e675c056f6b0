//! Tables 7 and 8: multivariate forecasting results — MAE and MSE on
//! normalized data for 14 methods across all 25 datasets and four horizons
//! per dataset (rolling forecasting).
//!
//! As in the paper, datasets are ordered by increasing trend strength and
//! split into two tables at the midpoint. The shape to reproduce: no single
//! winner; transformers ahead on the weak-trend (seasonal) half,
//! linear-based methods ahead on the strong-trend half; VAR/LR competitive
//! on several datasets; occasional `nan`/unusable cells for VAR on the
//! widest datasets.

use std::sync::atomic::{AtomicUsize, Ordering};
use tfb_bench::{emit, eval_best_lookback, RunScale, MTSF_METHODS};
use tfb_core::data::DatasetCharacteristics;
use tfb_core::report::ResultTable;
use tfb_core::runner::par_map;
use tfb_core::Metric;

fn main() {
    tfb_bench::with_obs(env!("CARGO_BIN_NAME"), run);
}

fn run() {
    let scale = RunScale::from_env();
    let profiles = tfb_datagen::all_profiles();
    // Score trend strength to order datasets as the paper does.
    let mut scored: Vec<(f64, tfb_datagen::DatasetProfile)> = profiles
        .into_iter()
        .map(|p| {
            let series = p.generate(tfb_datagen::Scale {
                max_len: 1_000,
                max_dim: 3,
            });
            let c = DatasetCharacteristics::compute(&series, 2);
            (c.trend, p)
        })
        .collect();
    scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

    // Job grid: dataset x method x horizon.
    struct Job {
        profile: tfb_datagen::DatasetProfile,
        method: &'static str,
        horizon: usize,
    }
    let mut jobs = Vec::new();
    for (_, p) in &scored {
        for &h in &scale.horizons(p) {
            for m in MTSF_METHODS {
                jobs.push(Job {
                    profile: p.clone(),
                    method: m,
                    horizon: h,
                });
            }
        }
    }
    println!(
        "Tables 7-8 — {} datasets x {} methods, rolling forecasting ({} jobs)",
        scored.len(),
        MTSF_METHODS.len(),
        jobs.len()
    );
    let done = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    // Generate each dataset once up front (cheap relative to evaluation).
    let datasets: std::collections::BTreeMap<&str, tfb_data::MultiSeries> = scored
        .iter()
        .map(|(_, p)| (p.name, p.generate(scale.data_scale())))
        .collect();
    // Rows go into the table in job order, whichever job finishes first.
    let outcomes = par_map(&jobs, workers, |job| {
        let series = &datasets[job.profile.name];
        let out = eval_best_lookback(&job.profile, series, job.method, job.horizon, scale);
        let d = done.fetch_add(1, Ordering::Relaxed) + 1;
        if d.is_multiple_of(50) {
            eprintln!("  {d}/{} jobs done", jobs.len());
        }
        out
    });
    let mut table = ResultTable::default();
    for out in outcomes.iter().flatten() {
        table.push(out);
    }
    println!("\n### MAE (datasets ordered by increasing trend strength)\n");
    emit(&table, "table7_8_mae", Metric::Mae);
    println!("\n### MSE\n");
    emit(&table, "table7_8_mse", Metric::Mse);
}
