//! Experiment execution: expands a [`BenchmarkConfig`] into jobs, runs the
//! per-job hyper-parameter search (best of ≤ 8 look-back sets, exactly the
//! paper's protocol), and executes jobs sequentially or across worker
//! threads.

use crate::config::{BenchmarkConfig, JobSpec, StrategyConfig};
use crate::eval::{evaluate, EvalOutcome, EvalSettings, Strategy};
use crate::method::build_method;
use crate::{CoreError, Result};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use tfb_data::MultiSeries;
use tfb_nn::TrainConfig;

/// How to execute the job grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// One job at a time, in order.
    Sequential,
    /// A pool of worker threads.
    Threads(usize),
}

/// Shared, lazily generated dataset cache keyed by name, bounded by a
/// small LRU so a long grid over many datasets cannot keep every
/// generated series resident at once.
///
/// The map lock only guards slot creation and recency bookkeeping;
/// generation happens outside it under the slot's own [`OnceLock`], which
/// doubles as an entry-level "in-flight" marker: when two workers race on
/// the same dataset, one generates while the other blocks on the slot, so
/// a resident profile is never generated twice (and workers loading
/// *different* datasets never wait on each other's generation). Eviction
/// only drops the cache's reference — waiters hold their own `Arc` clone
/// of the slot, so an evicted in-flight generation still completes for
/// everyone already blocked on it; a later request for the same name
/// simply regenerates (datasets are deterministic, so results are
/// unaffected — see `eviction_does_not_change_results`).
#[derive(Debug)]
pub struct DatasetCache {
    state: Mutex<CacheState>,
    generations: AtomicUsize,
    capacity: usize,
}

#[derive(Debug, Default)]
struct CacheState {
    slots: HashMap<String, Arc<OnceLock<Arc<MultiSeries>>>>,
    /// Dataset names from least- to most-recently used; always in sync
    /// with `slots` (same key set).
    recency: VecDeque<String>,
}

impl Default for DatasetCache {
    fn default() -> DatasetCache {
        DatasetCache::with_capacity(DatasetCache::DEFAULT_CAPACITY)
    }
}

impl DatasetCache {
    /// Default bound on resident datasets. Large enough that the usual
    /// benchmark grids (a handful of datasets shared by every method and
    /// horizon) never evict; small enough to bound memory on 25-dataset
    /// sweeps.
    pub const DEFAULT_CAPACITY: usize = 8;

    /// An empty cache with the default capacity.
    pub fn new() -> DatasetCache {
        DatasetCache::default()
    }

    /// An empty cache holding at most `capacity` datasets (`0` means
    /// unbounded).
    pub fn with_capacity(capacity: usize) -> DatasetCache {
        DatasetCache {
            state: Mutex::new(CacheState::default()),
            generations: AtomicUsize::new(0),
            capacity,
        }
    }

    /// Returns the dataset, generating it at most once across all threads
    /// while it stays resident.
    pub fn get_or_generate(
        &self,
        name: &str,
        scale: tfb_datagen::Scale,
    ) -> Result<Arc<MultiSeries>> {
        // Validate the name before claiming a slot so unknown datasets
        // never leave an empty entry behind.
        let profile = tfb_datagen::profile_by_name(name)
            .ok_or_else(|| CoreError::Eval(format!("unknown dataset: {name}")))?;
        let slot = {
            let mut state = self.state.lock().expect("dataset cache poisoned");
            state.recency.retain(|n| n != name);
            state.recency.push_back(name.to_string());
            let slot = Arc::clone(state.slots.entry(name.to_string()).or_default());
            while self.capacity > 0 && state.slots.len() > self.capacity {
                // The requested name was just pushed to the back, so with
                // more entries than capacity (≥ 1) the front is another
                // dataset.
                let Some(victim) = state.recency.pop_front() else {
                    break;
                };
                if victim == name {
                    state.recency.push_back(victim);
                    continue;
                }
                state.slots.remove(&victim);
                tfb_obs::counter!("dataset_cache/evict").add(1);
            }
            slot
        };
        let mut generated = false;
        let series = slot.get_or_init(|| {
            let _datagen_span = tfb_obs::span!("datagen", dataset = name);
            tfb_obs::counter!("dataset_cache/miss").add(1);
            generated = true;
            self.generations.fetch_add(1, Ordering::Relaxed);
            Arc::new(profile.generate(scale))
        });
        if !generated {
            tfb_obs::counter!("dataset_cache/hit").add(1);
        }
        Ok(Arc::clone(series))
    }

    /// How many datasets have actually been generated (as opposed to served
    /// from cache). With N distinct dataset names and no eviction (N ≤
    /// capacity) this is at most N no matter how many threads share the
    /// cache; past the capacity, re-requesting an evicted dataset
    /// regenerates it.
    pub fn generation_count(&self) -> usize {
        self.generations.load(Ordering::Relaxed)
    }

    /// How many datasets are currently resident.
    pub fn resident_count(&self) -> usize {
        self.state
            .lock()
            .expect("dataset cache poisoned")
            .slots
            .len()
    }
}

fn load_dataset(
    cache: &DatasetCache,
    name: &str,
    scale: tfb_datagen::Scale,
) -> Result<Arc<MultiSeries>> {
    cache.get_or_generate(name, scale)
}

fn settings_for(config: &BenchmarkConfig, job: &JobSpec, lookback: usize) -> Result<EvalSettings> {
    let profile = tfb_datagen::profile_by_name(&job.dataset)
        .ok_or_else(|| CoreError::Eval(format!("unknown dataset: {}", job.dataset)))?;
    let strategy = match config.strategy {
        StrategyConfig::Fixed => Strategy::Fixed,
        StrategyConfig::Rolling { stride } => Strategy::Rolling { stride },
    };
    Ok(EvalSettings {
        strategy,
        lookback,
        horizon: job.horizon,
        split: profile.split,
        normalization: config.normalization,
        metrics: config.metric_list(),
        custom_metrics: Vec::new(),
        max_windows: config.max_windows,
        drop_last: None,
        batch_inference: true,
        window_parallelism: 0,
    })
}

/// Runs one job: the hyper-parameter search over look-backs, keeping the
/// best outcome by the config's primary (first) metric.
pub fn run_job(
    config: &BenchmarkConfig,
    job: &JobSpec,
    cache: &DatasetCache,
    train_config: Option<TrainConfig>,
) -> Result<EvalOutcome> {
    let _job_span = tfb_obs::span!("job", dataset = job.dataset, method = job.method);
    let series = load_dataset(cache, &job.dataset, config.scale())?;
    let metrics = config.metric_list();
    let primary = *metrics
        .first()
        .ok_or_else(|| CoreError::Eval("config has no metrics".into()))?;
    let mut best: Option<EvalOutcome> = None;
    let mut last_err: Option<CoreError> = None;
    for lookback in config.search_space() {
        // A look-back candidate longer than the data affords is skipped.
        let settings = settings_for(config, job, lookback)?;
        let mut method = build_method(
            &job.method,
            lookback,
            job.horizon,
            series.dim(),
            train_config,
        )?;
        match evaluate(&mut method, &series, &settings) {
            Ok(out) => {
                let score = out.metric(primary);
                let better = match &best {
                    None => true,
                    Some(b) => {
                        let cur = b.metric(primary);
                        score.is_finite() && (!cur.is_finite() || score < cur)
                    }
                };
                if better {
                    best = Some(out);
                }
            }
            Err(e) => last_err = Some(e),
        }
    }
    let best = best.ok_or_else(|| {
        last_err.unwrap_or_else(|| CoreError::Eval(format!("no look-back fit {job:?}")))
    })?;
    // Surface the winning cell's accuracy metrics to the manifest so
    // cross-run tooling can gate on correctness drift, not just time.
    for (label, value) in &best.metrics {
        tfb_obs::report_metric(&best.dataset, &best.method, best.horizon, label, *value);
    }
    Ok(best)
}

/// Executes the whole config. Failed jobs are reported as `Err` entries in
/// the same order as `config.jobs()` — the pipeline never aborts a study
/// because one method cannot run on one dataset (those cells are the
/// "nan" entries of Tables 7–8).
pub fn run_jobs(
    config: &BenchmarkConfig,
    parallelism: Parallelism,
    train_config: Option<TrainConfig>,
) -> Vec<Result<EvalOutcome>> {
    let jobs = config.jobs();
    let cache = DatasetCache::new();
    match parallelism {
        Parallelism::Sequential => jobs
            .iter()
            .map(|job| run_job(config, job, &cache, train_config))
            .collect(),
        Parallelism::Threads(n) => {
            par_map(&jobs, n, |job| run_job(config, job, &cache, train_config))
        }
    }
}

/// `items.iter().map(f)` on `workers` scoped threads (at least one): each
/// worker takes the next unclaimed index and writes its result into that
/// index's slot, so the results come back in input order whatever order
/// the workers finish in, and whatever is folded over them afterwards
/// adds up the same at any worker count.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                *slots[i].lock().expect("result slot poisoned") = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StrategyConfig;
    use tfb_data::Normalization;

    fn tiny_config(methods: &[&str]) -> BenchmarkConfig {
        BenchmarkConfig {
            datasets: vec!["ILI".into()],
            methods: methods.iter().map(|s| s.to_string()).collect(),
            horizons: vec![12],
            lookbacks: vec![24, 36],
            strategy: StrategyConfig::Rolling { stride: 4 },
            normalization: Normalization::ZScore,
            metrics: vec!["mae".into(), "mse".into()],
            max_windows: 6,
            max_len: 600,
            max_dim: 3,
        }
    }

    #[test]
    fn sequential_run_produces_outcomes() {
        let cfg = tiny_config(&["Naive", "LR"]);
        let out = run_jobs(&cfg, Parallelism::Sequential, None);
        assert_eq!(out.len(), 2);
        for r in out {
            let o = r.unwrap();
            assert!(o.metric(crate::Metric::Mae).is_finite());
            assert_eq!(o.dataset, "ILI");
        }
    }

    #[test]
    fn par_map_returns_results_in_input_order() {
        // Early items take longest, so with more than one worker the later
        // items finish first; the slots must still come back in order.
        let items: Vec<u64> = (0..24).collect();
        let want: Vec<u64> = items.iter().map(|i| i * i).collect();
        for workers in [1, 2, 3] {
            let got = par_map(&items, workers, |&i| {
                std::thread::sleep(std::time::Duration::from_micros(200 * (24 - i)));
                i * i
            });
            assert_eq!(got, want, "{workers} workers");
        }
        assert!(par_map(&[] as &[u64], 2, |&i| i).is_empty());
    }

    #[test]
    fn parallel_matches_sequential() {
        // Job-level threading must leave every metric of every job
        // bit-identical, including the window methods' batched inference.
        let cfg = tiny_config(&["Naive", "Mean", "Drift", "LR"]);
        let unpack = |rs: Vec<Result<EvalOutcome>>| -> Vec<_> {
            rs.into_iter()
                .map(|r| {
                    let o = r.unwrap();
                    (o.method, o.n_windows, o.metrics)
                })
                .collect()
        };
        let seq = unpack(run_jobs(&cfg, Parallelism::Sequential, None));
        let par = unpack(run_jobs(&cfg, Parallelism::Threads(3), None));
        assert_eq!(seq, par);
    }

    #[test]
    fn search_picks_the_better_lookback() {
        // With two look-backs, the reported outcome must be the min-MAE one.
        let cfg = tiny_config(&["LR"]);
        let cache = DatasetCache::new();
        let job = &cfg.jobs()[0];
        let best = run_job(&cfg, job, &cache, None).unwrap();
        for lb in cfg.search_space() {
            let mut single = cfg.clone();
            single.lookbacks = vec![lb];
            let one = run_job(&single, job, &cache, None).unwrap();
            assert!(best.metric(crate::Metric::Mae) <= one.metric(crate::Metric::Mae) + 1e-12);
        }
    }

    #[test]
    fn cache_generates_each_dataset_once_under_contention() {
        // Many threads ask for the same two datasets at once; the in-flight
        // slot must collapse every race to a single generation per name.
        let cache = DatasetCache::new();
        let scale = tfb_datagen::Scale {
            max_len: 400,
            max_dim: 2,
        };
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..4 {
                        let a = cache.get_or_generate("ILI", scale).unwrap();
                        let b = cache.get_or_generate("ETTh1", scale).unwrap();
                        assert!(!a.is_empty() && !b.is_empty());
                    }
                });
            }
        });
        assert_eq!(cache.generation_count(), 2);
        // Identity: every caller got the same Arc.
        let again = cache.get_or_generate("ILI", scale).unwrap();
        assert_eq!(cache.generation_count(), 2);
        assert!(!again.is_empty());
    }

    #[test]
    fn cache_capacity_bounds_resident_datasets() {
        // A cap-1 cache alternating between two datasets evicts on every
        // switch but never holds more than one series.
        let cache = DatasetCache::with_capacity(1);
        let scale = tfb_datagen::Scale {
            max_len: 400,
            max_dim: 2,
        };
        for _ in 0..3 {
            cache.get_or_generate("ILI", scale).unwrap();
            assert_eq!(cache.resident_count(), 1);
            cache.get_or_generate("ETTh1", scale).unwrap();
            assert_eq!(cache.resident_count(), 1);
        }
        assert_eq!(cache.generation_count(), 6, "every switch regenerates");
        // Repeats without a switch still hit.
        cache.get_or_generate("ETTh1", scale).unwrap();
        assert_eq!(cache.generation_count(), 6);
    }

    #[test]
    fn eviction_does_not_change_results() {
        // The same grid through a cap-1 cache (evicting on every dataset
        // switch) and an unbounded one must produce bit-identical metrics:
        // regeneration is deterministic, so eviction trades time, never
        // correctness.
        let mut cfg = tiny_config(&["Naive", "LR"]);
        cfg.datasets = vec!["ILI".into(), "ETTh1".into(), "NASDAQ".into()];
        // The grid is dataset-major; reorder it method-major so the
        // dataset changes on every job and a cap-1 cache must evict each
        // time.
        let mut jobs = cfg.jobs();
        jobs.sort_by(|a, b| (&a.method, &a.dataset).cmp(&(&b.method, &b.dataset)));
        let run_with = |cache: &DatasetCache| -> Vec<_> {
            jobs.iter()
                .map(|job| {
                    let o = run_job(&cfg, job, cache, None).unwrap();
                    (o.dataset.clone(), o.method.clone(), o.metrics.clone())
                })
                .collect()
        };
        let evicting = DatasetCache::with_capacity(1);
        let unbounded = DatasetCache::with_capacity(0);
        let got = run_with(&evicting);
        let want = run_with(&unbounded);
        assert!(
            evicting.generation_count() > unbounded.generation_count(),
            "the cap-1 cache should actually have evicted and regenerated"
        );
        assert_eq!(got, want);
    }

    #[test]
    fn unknown_dataset_fails_cleanly() {
        let mut cfg = tiny_config(&["Naive"]);
        cfg.datasets = vec!["Nope".into()];
        let out = run_jobs(&cfg, Parallelism::Sequential, None);
        assert!(out[0].is_err());
    }

    #[test]
    fn unknown_method_fails_cleanly() {
        let cfg = tiny_config(&["NotAMethod"]);
        let out = run_jobs(&cfg, Parallelism::Sequential, None);
        assert!(out[0].is_err());
    }
}
