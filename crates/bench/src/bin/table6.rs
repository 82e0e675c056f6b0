//! Table 6: univariate forecasting results — MASE, MSMAPE and Ranks for 21
//! methods, grouped by the presence/absence of each characteristic.
//!
//! Protocol (Section 5.1.2): fixed forecasting, horizon `F` per frequency
//! group (Table 4), look-back `H = 1.25 F`, one model per series. The shape
//! to reproduce: simple ML methods (LR, RF) collect the most Ranks even
//! when deep methods have the better average error, and every method is
//! noticeably better on series *without* shifting than with it.

use tfb_bench::table6::{aggregate, score_series};
use tfb_bench::{results_dir, RunScale, UTSF_METHODS};
use tfb_core::runner::par_map;
use tfb_datagen::univariate::UnivariateArchive;

fn main() {
    tfb_bench::with_obs(env!("CARGO_BIN_NAME"), run);
}

fn run() {
    let scale = RunScale::from_env();
    let divisor = match scale {
        RunScale::Full => 1,
        RunScale::Default => 80,
        RunScale::Fast => 400,
    };
    let archive = UnivariateArchive::generate(divisor, 7);
    println!(
        "Table 6 — univariate study over {} series x {} methods (fixed forecasting, H = 1.25F)",
        archive.len(),
        UTSF_METHODS.len()
    );
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let results = par_map(&archive.series, workers, |s| {
        score_series(s, &UTSF_METHODS, scale.train_config())
    });
    let (markdown, csv) = aggregate(&results);
    print!("{markdown}");
    let path = results_dir().join("table6.csv");
    std::fs::write(&path, csv).expect("write table6.csv");
    println!("\nwrote {}", path.display());
}
