//! The statistics every reported number goes through: nearest-rank
//! percentiles under the ten-samples-beyond rule, and the median (or a
//! supported percentile) over a run's equal slices of each slice's time
//! divided by the host slowdown the reference readings around it show (see
//! `host::Reference` for why the clock alone cannot be trusted on a shared
//! host).

use crate::host::{Reading, CONTENDED_SHARE};

/// How many samples must lie beyond a percentile for it to be reported.
const SAMPLES_BEYOND: f64 = 10.0;

fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
}

/// Nearest-rank percentile of an ascending-sorted sample (`p` in 0..=1).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Whether a sample of `n` has at least ten samples beyond percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    // `1.0 - 0.9` is a hair under 0.1; the tolerance keeps p90 of 100.
    n as f64 * (1.0 - p) >= SAMPLES_BEYOND - 1e-9
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    percentile(&sorted, p)
}

/// Percentile `p` of an unsorted sample, refusing a percentile the sample
/// cannot support (fewer than ten samples beyond it).
pub fn supported_percentile(values: &[f64], p: f64) -> f64 {
    assert!(
        supports(values.len(), p),
        "p{} needs at least ten samples beyond it, the sample has {}",
        p * 100.0,
        values.len()
    );
    percentile_of(values, p)
}

/// One timed slice: what the clock read for a fixed amount of work, and
/// the mean of the reference readings taken right before and after it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub raw: f64,
    pub host: Reading,
}

/// What a run's equal slices say about one cost (a time per fixed amount
/// of work) or, once inverted by [`Estimate::into_rate`], one rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// The reported value: over the slices, the median (or the percentile
    /// [`Estimate::of_percentile`] was asked for) of the slice's time
    /// divided by the host slowdown around it.
    pub value: f64,
    /// The same statistic of the slices as the clock read them; `compare`
    /// checks that it tells the same story as `value`.
    pub raw_value: f64,
    /// The best decile of the normalised slices: what the program does
    /// when nothing disturbs it. Informational, never gated — a regression
    /// that hits some slices only does not move it.
    pub best_decile: f64,
    /// Share of the slices during whose reference readings other threads
    /// of the process ran for more than [`CONTENDED_SHARE`] of the time.
    pub contended: f64,
    /// The median host slowdown over the slices (1.0 = the quiet
    /// reference host); `value` ≈ `raw_value` / `slowdown` for a time.
    pub slowdown: f64,
    /// How far the value computed on the odd slices alone is from the one
    /// computed on the even slices, as a share of their mean — the
    /// estimate's own resolution in this run.
    pub spread: f64,
    /// The slices themselves, in the unit of `value`, so the
    /// normalisation can be undone or redone offline.
    pub samples: Vec<Sample>,
    /// The share of compute in the blend of the two reference kernels the
    /// slowdown was read at.
    pub compute_share: f64,
}

impl Estimate {
    /// Estimate a cost from per-slice samples as their median;
    /// `compute_share` says which blend of the two reference kernels the
    /// workload slows down with.
    pub fn of(samples: Vec<Sample>, compute_share: f64) -> Estimate {
        Estimate::at(samples, compute_share, 0.5)
    }

    /// Estimate a cost from per-slice samples as their percentile `p`,
    /// which the sample must support (ten samples beyond it).
    pub fn of_percentile(samples: Vec<Sample>, compute_share: f64, p: f64) -> Estimate {
        assert!(
            supports(samples.len(), p),
            "p{} needs at least ten samples beyond it, the run has {} slices",
            p * 100.0,
            samples.len()
        );
        Estimate::at(samples, compute_share, p)
    }

    fn at(samples: Vec<Sample>, compute_share: f64, quantile: f64) -> Estimate {
        assert!(!samples.is_empty(), "an estimate needs at least one slice");
        let pick = |values: &[f64]| {
            if quantile == 0.5 {
                median(values)
            } else {
                percentile_of(values, quantile)
            }
        };
        let normalised: Vec<f64> = samples
            .iter()
            .map(|sample| sample.raw / sample.host.slowdown(compute_share))
            .collect();
        let halves = |parity: usize| -> Vec<f64> {
            normalised.iter().skip(parity).step_by(2).copied().collect()
        };
        let (even, odd) = (halves(0), halves(1));
        let spread = if odd.is_empty() {
            0.0
        } else {
            let (a, b) = (pick(&even), pick(&odd));
            (a - b).abs() / ((a + b) / 2.0)
        };
        let raw: Vec<f64> = samples.iter().map(|sample| sample.raw).collect();
        let slowdowns: Vec<f64> = samples
            .iter()
            .map(|sample| sample.host.slowdown(compute_share))
            .collect();
        let contended = samples
            .iter()
            .filter(|sample| sample.host.foreign_share() > CONTENDED_SHARE)
            .count();
        Estimate {
            value: pick(&normalised),
            raw_value: pick(&raw),
            best_decile: percentile_of(&normalised, 0.1),
            contended: contended as f64 / samples.len() as f64,
            slowdown: median(&slowdowns),
            spread,
            samples,
            compute_share,
        }
    }

    /// A value read once, on no clock (a count, a size): nothing to
    /// normalise and no slices to disagree.
    pub fn once(value: f64) -> Estimate {
        Estimate {
            value,
            raw_value: value,
            best_decile: value,
            contended: 0.0,
            slowdown: 1.0,
            spread: 0.0,
            samples: Vec::new(),
            compute_share: 0.0,
        }
    }

    fn map(mut self, f: impl Fn(f64) -> f64) -> Estimate {
        self.value = f(self.value);
        self.raw_value = f(self.raw_value);
        self.best_decile = f(self.best_decile);
        for sample in &mut self.samples {
            sample.raw = f(sample.raw);
        }
        self
    }

    /// The same estimate read as a rate: `ops` per slice over its time.
    pub fn into_rate(self, ops: f64) -> Estimate {
        self.map(|time| ops / time)
    }

    /// The same estimate in other units (`factor` > 0).
    pub fn scaled(self, factor: f64) -> Estimate {
        self.map(|time| time * factor)
    }
}

/// Deterministic xorshift64* stream for request shuffles (the workloads'
/// inputs must depend on `--seed` and nothing else).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 19 samples: even the median has only 9.5 beyond it.
        assert!(!supports(19, 0.50));
        assert!(supports(20, 0.50));
        // p75 needs 40, p90 needs 100, p99 needs 1000.
        assert!(!supports(39, 0.75));
        assert!(supports(40, 0.75));
        assert!(!supports(99, 0.90));
        assert!(supports(100, 0.90));
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert_eq!(supported_percentile(&[1.0; 1000], 0.99), 1.0);
    }

    #[test]
    #[should_panic(expected = "ten samples beyond")]
    fn an_unsupported_percentile_is_refused() {
        supported_percentile(&[1.0; 500], 0.99);
    }

    fn sample(raw: f64, slowdown: f64) -> Sample {
        // A reading that is `slowdown` times the quiet reference on both
        // kernels, whatever the blend.
        let quiet = Reading {
            compute_s: 1.0,
            socket_s: 1.0,
            foreign_s: 0.0,
        };
        let unit = quiet.slowdown(0.5);
        Sample {
            raw,
            host: Reading {
                compute_s: slowdown / unit,
                socket_s: slowdown / unit,
                foreign_s: 0.0,
            },
        }
    }

    #[test]
    fn a_slowed_host_does_not_move_the_estimate() {
        // Forty slices of 1.0 s on a quiet host; the same work with the
        // host 1.5x slower for every third slice, and for the whole run.
        let calm: Vec<Sample> = (0..40).map(|_| sample(1.0, 1.0)).collect();
        let partly: Vec<Sample> = (0..40)
            .map(|i| {
                if i % 3 == 0 {
                    sample(1.5, 1.5)
                } else {
                    sample(1.0, 1.0)
                }
            })
            .collect();
        let wholly: Vec<Sample> = (0..40).map(|_| sample(1.5, 1.5)).collect();
        for samples in [calm, partly, wholly.clone()] {
            let estimate = Estimate::of(samples, 0.5);
            assert!((estimate.value - 1.0).abs() < 1e-12);
            assert!(estimate.spread < 1e-12);
            assert_eq!(estimate.samples.len(), 40);
        }
        let estimate = Estimate::of(wholly, 0.5);
        assert!((estimate.raw_value - 1.5).abs() < 1e-12);
        assert!((estimate.slowdown - 1.5).abs() < 1e-12);
        // Read as a rate: 1000 operations per slice.
        let rate = estimate.clone().into_rate(1000.0);
        assert!((rate.value - 1000.0).abs() < 1e-9);
        assert!((rate.raw_value - 1000.0 / 1.5).abs() < 1e-9);
        assert!((estimate.scaled(1e3).value - 1e3).abs() < 1e-9);
    }

    #[test]
    fn the_estimate_is_the_median_slice_and_knows_its_resolution() {
        let samples: Vec<Sample> = (1..=20).map(|i| sample(f64::from(i), 1.0)).collect();
        let estimate = Estimate::of(samples, 0.5);
        assert!((estimate.value - 10.5).abs() < 1e-12);
        // Even-indexed slices are 1,3,…,19: median 10; odd-indexed 2,4,…,20:
        // median 11.
        assert!((estimate.spread - 1.0 / 10.5).abs() < 1e-12);
        assert_eq!(Estimate::of(vec![sample(3.0, 1.0)], 0.5).spread, 0.0);
        // The best decile (nearest rank ceil(0.1 * 20) = 2nd) rides along
        // and is never the value.
        assert!((estimate.best_decile - 2.0).abs() < 1e-12);
        let once = Estimate::once(7.0);
        assert_eq!((once.value, once.spread, once.samples.len()), (7.0, 0.0, 0));
    }

    #[test]
    fn a_percentile_of_the_slices_is_taken_after_normalising_and_must_be_supported() {
        // Forty slices of 1..=40 s, every one on a host 2x slow: p75 is
        // the 30th, normalised 15 s, raw 30 s.
        let samples: Vec<Sample> = (1..=40).map(|i| sample(f64::from(i), 2.0)).collect();
        let p75 = Estimate::of_percentile(samples.clone(), 0.5, 0.75);
        assert!((p75.value - 15.0).abs() < 1e-12);
        assert!((p75.raw_value - 30.0).abs() < 1e-12);
        let refused = std::panic::catch_unwind(|| Estimate::of_percentile(samples, 0.5, 0.90));
        assert!(refused.is_err(), "p90 of 40 slices has only 4 beyond it");
    }

    #[test]
    fn slices_whose_readings_the_program_ran_through_are_counted_as_contended() {
        let mut samples: Vec<Sample> = (0..10).map(|_| sample(1.0, 1.0)).collect();
        assert_eq!(Estimate::of(samples.clone(), 0.5).contended, 0.0);
        // In three of them other threads took 5% of the reading.
        for contended in &mut samples[..3] {
            let own = contended.host.compute_s + contended.host.socket_s;
            contended.host.foreign_s = own * 0.05 / 0.95;
        }
        assert!((Estimate::of(samples, 0.5).contended - 0.3).abs() < 1e-12);
    }

    #[test]
    fn shuffles_repeat_for_a_seed_and_differ_across_seeds() {
        let shuffled = |seed| {
            let mut items: Vec<u32> = (0..100).collect();
            Rng::new(seed).shuffle(&mut items);
            items
        };
        assert_eq!(shuffled(7), shuffled(7));
        assert_ne!(shuffled(7), shuffled(2021));
        let mut sorted = shuffled(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }
}
