//! The univariate archive mirroring Table 4 of the paper.
//!
//! The real archive curates 8,068 series from 16 open-source collections
//! across seven frequency groups, each with its own forecasting horizon.
//! This generator reproduces the archive's published structure — the
//! per-frequency series counts, horizons and length regimes — with
//! synthetic series drawn from six characteristic archetypes (trending,
//! seasonal, trend+seasonal, shifting, transition-heavy, stationary noise)
//! so that the archive spans the same characteristic space the paper's
//! Figure 5 documents.

use crate::components::{SeriesBuilder, TrendKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tfb_data::{Domain, Frequency, UniSeries};
use tfb_math::par::par_map;

/// Per-frequency specification: one row of Table 4.
#[derive(Debug, Clone, Copy)]
pub struct UnivariateSpec {
    /// Frequency group.
    pub frequency: Frequency,
    /// Number of series in the full-size archive.
    pub full_count: usize,
    /// Forecasting horizon `F` used by the fixed-forecast evaluation.
    pub horizon: usize,
    /// Series length range (inclusive) for this group.
    pub len_range: (usize, usize),
}

/// The seven frequency groups of Table 4 with their published counts and
/// horizons. Length regimes follow the `|TS| < 300` column: yearly and
/// quarterly series are short, hourly series are all ≥ 300 points.
pub const SPECS: [UnivariateSpec; 7] = [
    UnivariateSpec {
        frequency: Frequency::Yearly,
        full_count: 1500,
        horizon: 6,
        len_range: (30, 80),
    },
    UnivariateSpec {
        frequency: Frequency::Quarterly,
        full_count: 1514,
        horizon: 8,
        len_range: (40, 160),
    },
    UnivariateSpec {
        frequency: Frequency::Monthly,
        full_count: 1674,
        horizon: 18,
        len_range: (80, 500),
    },
    UnivariateSpec {
        frequency: Frequency::Weekly,
        full_count: 805,
        horizon: 13,
        len_range: (120, 900),
    },
    UnivariateSpec {
        frequency: Frequency::Daily,
        full_count: 1484,
        horizon: 14,
        len_range: (120, 800),
    },
    UnivariateSpec {
        frequency: Frequency::Hourly,
        full_count: 706,
        horizon: 48,
        len_range: (400, 1008),
    },
    UnivariateSpec {
        frequency: Frequency::Other,
        full_count: 385,
        horizon: 8,
        len_range: (60, 400),
    },
];

/// Total series count of the full archive (8,068 in the paper).
pub fn full_archive_size() -> usize {
    SPECS.iter().map(|s| s.full_count).sum()
}

/// A generated univariate archive.
#[derive(Debug, Clone)]
pub struct UnivariateArchive {
    /// The series, ordered by frequency group then index.
    pub series: Vec<UniSeries>,
}

/// Series `i` of group `gi`, drawn `len` long: everything but the length
/// comes from its own seed.
fn series_of(seed: u64, gi: usize, i: usize, len: usize) -> UniSeries {
    let spec = &SPECS[gi];
    let archetype = ARCHETYPES[i % ARCHETYPES.len()];
    let domain = DOMAINS[(i / ARCHETYPES.len()) % DOMAINS.len()];
    // Make sure every series supports its evaluation windows: fixed
    // forecasting uses H = 1.25 F of history plus F.
    let min_len = (spec.horizon as f64 * 2.5).ceil() as usize + 8;
    let len = len.max(min_len);
    let series_seed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((gi * 100_000 + i) as u64);
    let values = build_archetype(archetype, spec.frequency, len, series_seed);
    let name = format!("{}{:04}", freq_prefix(spec.frequency), i);
    UniSeries::new(name, spec.frequency, domain, values).expect("generated series is nonempty")
}

/// The six characteristic archetypes series are drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Archetype {
    Trending,
    Seasonal,
    TrendSeasonal,
    Shifting,
    Transition,
    Stationary,
}

const ARCHETYPES: [Archetype; 6] = [
    Archetype::Trending,
    Archetype::Seasonal,
    Archetype::TrendSeasonal,
    Archetype::Shifting,
    Archetype::Transition,
    Archetype::Stationary,
];

/// Domains rotate across the archive to mimic the "dozens of domains" of
/// the 16 source collections.
const DOMAINS: [Domain; 11] = [
    Domain::Economic,
    Domain::Traffic,
    Domain::Energy,
    Domain::Health,
    Domain::Web,
    Domain::Banking,
    Domain::Stock,
    Domain::Environment,
    Domain::Nature,
    Domain::Electricity,
    Domain::Other,
];

impl UnivariateArchive {
    /// Generates the archive with counts divided by `divisor` (use 1 for
    /// the full 8,068-series archive; the default studies use 20, which
    /// yields ~400 series — large enough for stable per-characteristic
    /// aggregates, small enough to evaluate 21 methods in CI).
    pub fn generate(divisor: usize, seed: u64) -> UnivariateArchive {
        // Only the lengths come from the shared RNG: draw them all first,
        // in the sequential order, then build each series from its own
        // seed on the worker pool.
        let divisor = divisor.max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = Vec::new();
        for (gi, spec) in SPECS.iter().enumerate() {
            let count = (spec.full_count / divisor).max(3);
            for i in 0..count {
                let len = rng.gen_range(spec.len_range.0..=spec.len_range.1);
                plan.push((gi, i, len));
            }
        }
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let series = par_map(&plan, workers, |&(gi, i, len)| series_of(seed, gi, i, len));
        UnivariateArchive { series }
    }

    /// Number of series in the archive.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// The forecasting horizon for a series, per its frequency group
    /// (Table 4's `F` column).
    pub fn horizon_for(frequency: Frequency) -> usize {
        SPECS
            .iter()
            .find(|s| s.frequency == frequency)
            .map(|s| s.horizon)
            .unwrap_or(8)
    }
}

fn freq_prefix(f: Frequency) -> &'static str {
    match f {
        Frequency::Yearly => "Y",
        Frequency::Quarterly => "Q",
        Frequency::Monthly => "M",
        Frequency::Weekly => "W",
        Frequency::Daily => "D",
        Frequency::Hourly => "H",
        _ => "O",
    }
}

fn build_archetype(a: Archetype, freq: Frequency, len: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let period = freq.default_period().clamp(2, (len / 3).max(2));
    let base = SeriesBuilder::new(len, seed);
    let b = match a {
        Archetype::Trending => base
            .trend(TrendKind::Linear {
                slope: rng.gen_range(0.05..0.3),
            })
            .ar(0.5)
            .noise(rng.gen_range(0.5..1.5)),
        Archetype::Seasonal => base
            .seasonal(period, rng.gen_range(2.0..5.0))
            .ar(0.3)
            .noise(rng.gen_range(0.3..0.8)),
        Archetype::TrendSeasonal => base
            .trend(TrendKind::Linear {
                slope: rng.gen_range(0.05..0.2),
            })
            .seasonal(period, rng.gen_range(1.5..4.0))
            .ar(0.4)
            .noise(rng.gen_range(0.3..0.8)),
        Archetype::Shifting => base
            .level_shift(rng.gen_range(0.3..0.7), rng.gen_range(4.0..10.0))
            .ar(0.9)
            .noise(rng.gen_range(0.4..1.0)),
        Archetype::Transition => base
            .seasonal(period, rng.gen_range(1.0..2.0))
            .regimes((len / 5).max(2), rng.gen_range(2.0..4.0))
            .ar(0.6)
            .noise(rng.gen_range(0.4..1.0)),
        Archetype::Stationary => base.ar(rng.gen_range(0.0..0.4)).noise(1.0),
    };
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `generate` as it ran before the worker pool: one loop drawing each
    /// length and building its series in turn.
    fn generate_sequentially(divisor: usize, seed: u64) -> UnivariateArchive {
        let divisor = divisor.max(1);
        let mut series = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for (gi, spec) in SPECS.iter().enumerate() {
            let count = (spec.full_count / divisor).max(3);
            for i in 0..count {
                let archetype = ARCHETYPES[i % ARCHETYPES.len()];
                let domain = DOMAINS[(i / ARCHETYPES.len()) % DOMAINS.len()];
                let len = rng.gen_range(spec.len_range.0..=spec.len_range.1);
                let min_len = (spec.horizon as f64 * 2.5).ceil() as usize + 8;
                let len = len.max(min_len);
                let series_seed = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((gi * 100_000 + i) as u64);
                let values = build_archetype(archetype, spec.frequency, len, series_seed);
                let name = format!("{}{:04}", freq_prefix(spec.frequency), i);
                series.push(
                    UniSeries::new(name, spec.frequency, domain, values)
                        .expect("generated series is nonempty"),
                );
            }
        }
        UnivariateArchive { series }
    }

    #[test]
    fn pooled_generation_equals_the_sequential_loop() {
        for (divisor, seed) in [(48, 3), (48, 11), (20, 7), (400, 5), (1000, 0), (1, 7)] {
            let want = generate_sequentially(divisor, seed);
            let got = UnivariateArchive::generate(divisor, seed);
            assert_eq!(got.series.len(), want.series.len(), "{divisor}, {seed}");
            for (g, w) in got.series.iter().zip(&want.series) {
                assert_eq!(
                    (&g.name, g.frequency, g.domain),
                    (&w.name, w.frequency, w.domain)
                );
                let bits = |s: &UniSeries| s.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert!(bits(g) == bits(w), "{divisor}, {seed}: {} differs", g.name);
            }
        }
    }

    #[test]
    fn full_archive_counts_match_table4() {
        assert_eq!(full_archive_size(), 8068);
    }

    #[test]
    fn horizons_match_table4() {
        assert_eq!(UnivariateArchive::horizon_for(Frequency::Yearly), 6);
        assert_eq!(UnivariateArchive::horizon_for(Frequency::Quarterly), 8);
        assert_eq!(UnivariateArchive::horizon_for(Frequency::Monthly), 18);
        assert_eq!(UnivariateArchive::horizon_for(Frequency::Weekly), 13);
        assert_eq!(UnivariateArchive::horizon_for(Frequency::Daily), 14);
        assert_eq!(UnivariateArchive::horizon_for(Frequency::Hourly), 48);
        assert_eq!(UnivariateArchive::horizon_for(Frequency::Other), 8);
    }

    #[test]
    fn scaled_archive_has_all_groups() {
        let a = UnivariateArchive::generate(40, 7);
        for spec in &SPECS {
            let count = a
                .series
                .iter()
                .filter(|s| s.frequency == spec.frequency)
                .count();
            assert!(count >= 3, "{:?} underrepresented", spec.frequency);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = UnivariateArchive::generate(100, 7);
        let b = UnivariateArchive::generate(100, 7);
        assert_eq!(a.series.len(), b.series.len());
        for (x, y) in a.series.iter().zip(&b.series) {
            assert_eq!(x.values, y.values);
        }
    }

    #[test]
    fn every_series_supports_its_evaluation_window() {
        let a = UnivariateArchive::generate(40, 7);
        for s in &a.series {
            let f = UnivariateArchive::horizon_for(s.frequency);
            let h = (f as f64 * 1.25).ceil() as usize;
            assert!(
                s.len() >= h + f,
                "{} too short: {} < {}",
                s.name,
                s.len(),
                h + f
            );
        }
    }

    #[test]
    fn series_values_are_finite() {
        let a = UnivariateArchive::generate(100, 3);
        for s in &a.series {
            assert!(s.values.iter().all(|v| v.is_finite()), "{}", s.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let a = UnivariateArchive::generate(50, 7);
        let mut names: Vec<&str> = a.series.iter().map(|s| s.name.as_str()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
