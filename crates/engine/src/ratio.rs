//! The classification ratio and threshold (paper §4, Equation 1).
//!
//! For every resource (domain, hostname, script, or method) TrackerSift
//! counts the tracking and functional requests attributed to it and computes
//! the common logarithm of their ratio:
//!
//! ```text
//! ratio = log10(#tracking / #functional)
//! ```
//!
//! Resources with `ratio ≥ 2` triggered at least 100× more tracking than
//! functional requests and are classified **tracking**; `ratio ≤ -2` is
//! **functional**; anything in between is **mixed** and is pushed down to
//! the next finer granularity. The threshold is configurable because the
//! paper's Figure 4 sweeps it from 1.0 to 3.0.

use std::fmt;

/// Classification outcome for a resource at some granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Classification {
    /// Overwhelmingly tracking (`ratio ≥ threshold`).
    Tracking,
    /// Overwhelmingly functional (`ratio ≤ -threshold`).
    Functional,
    /// Serves both: cannot be safely blocked or allowed.
    Mixed,
}

impl fmt::Display for Classification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Classification::Tracking => f.write_str("tracking"),
            Classification::Functional => f.write_str("functional"),
            Classification::Mixed => f.write_str("mixed"),
        }
    }
}

/// Request counts accumulated for one resource.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Number of tracking-labeled requests.
    pub tracking: u64,
    /// Number of functional-labeled requests.
    pub functional: u64,
}

impl Counts {
    /// A zeroed counter.
    pub(crate) fn new() -> Self {
        Counts::default()
    }

    /// Record one request with the given label.
    pub fn record(&mut self, tracking: bool) {
        if tracking {
            self.tracking += 1;
        } else {
            self.functional += 1;
        }
    }

    /// Total requests observed.
    pub fn total(&self) -> u64 {
        self.tracking + self.functional
    }

    /// `true` when no request has been recorded. Empty counters classify to
    /// `None`; the incremental [`Sifter`](crate::Sifter) uses this
    /// as the "not a member of this level" test.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Merge another counter into this one.
    pub(crate) fn merge(&mut self, other: Counts) {
        self.tracking += other.tracking;
        self.functional += other.functional;
    }

    /// The common-log ratio of Equation 1.
    ///
    /// Edge cases follow the natural limit reading the paper uses when
    /// plotting Figure 3: a resource with zero functional requests has ratio
    /// `+∞`, zero tracking requests `-∞`, and a resource with no requests at
    /// all is undefined (`None`).
    pub(crate) fn log_ratio(&self) -> Option<f64> {
        match (self.tracking, self.functional) {
            (0, 0) => None,
            (0, _) => Some(f64::NEG_INFINITY),
            (_, 0) => Some(f64::INFINITY),
            (t, f) => Some((t as f64 / f as f64).log10()),
        }
    }

    /// Classify under the given (symmetric) threshold.
    ///
    /// Returns `None` for resources that received no requests.
    pub(crate) fn classify(&self, threshold: f64) -> Option<Classification> {
        let ratio = self.log_ratio()?;
        Some(if ratio >= threshold {
            Classification::Tracking
        } else if ratio <= -threshold {
            Classification::Functional
        } else {
            Classification::Mixed
        })
    }
}

/// Classification thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// The symmetric threshold on the common-log ratio. The paper's default
    /// is 2 (i.e. 100×).
    pub(crate) log_ratio: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds { log_ratio: 2.0 }
    }
}

impl Thresholds {
    /// The paper's default threshold of (-2, 2).
    pub fn paper() -> Self {
        Self::default()
    }

    /// A custom symmetric threshold (used by the Figure 4 sweep).
    pub fn new(log_ratio: f64) -> Self {
        assert!(log_ratio > 0.0, "threshold must be positive");
        Thresholds { log_ratio }
    }

    /// Classify a counter under this threshold.
    pub fn classify(&self, counts: &Counts) -> Option<Classification> {
        counts.classify(self.log_ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(t: u64, f: u64) -> Counts {
        Counts {
            tracking: t,
            functional: f,
        }
    }

    #[test]
    fn pure_resources_classify_at_extremes() {
        let th = Thresholds::paper();
        assert_eq!(th.classify(&counts(10, 0)), Some(Classification::Tracking));
        assert_eq!(
            th.classify(&counts(0, 10)),
            Some(Classification::Functional)
        );
        assert_eq!(th.classify(&counts(0, 0)), None);
    }

    #[test]
    fn hundredfold_dominance_is_required() {
        let th = Thresholds::paper();
        // Exactly 100x -> log10(100) = 2 -> tracking (inclusive bound).
        assert_eq!(th.classify(&counts(100, 1)), Some(Classification::Tracking));
        assert_eq!(th.classify(&counts(99, 1)), Some(Classification::Mixed));
        assert_eq!(
            th.classify(&counts(1, 100)),
            Some(Classification::Functional)
        );
        assert_eq!(th.classify(&counts(1, 99)), Some(Classification::Mixed));
        assert_eq!(th.classify(&counts(5, 5)), Some(Classification::Mixed));
    }

    #[test]
    fn log_ratio_matches_equation_one() {
        assert!((counts(1000, 10).log_ratio().unwrap() - 2.0).abs() < 1e-12);
        assert!((counts(10, 1000).log_ratio().unwrap() + 2.0).abs() < 1e-12);
        assert_eq!(counts(3, 0).log_ratio(), Some(f64::INFINITY));
        assert_eq!(counts(0, 3).log_ratio(), Some(f64::NEG_INFINITY));
        assert_eq!(counts(0, 0).log_ratio(), None);
    }

    #[test]
    fn lower_threshold_shrinks_the_mixed_band() {
        let strict = Thresholds::new(1.0);
        assert_eq!(
            strict.classify(&counts(50, 1)),
            Some(Classification::Tracking)
        );
        assert_eq!(
            Thresholds::paper().classify(&counts(50, 1)),
            Some(Classification::Mixed)
        );
    }

    #[test]
    fn record_and_merge() {
        let mut c = Counts::new();
        c.record(true);
        c.record(true);
        c.record(false);
        let mut d = Counts::new();
        d.record(false);
        c.merge(d);
        assert_eq!(c, counts(2, 2));
        assert_eq!(c.total(), 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        let _ = Thresholds::new(0.0);
    }
}
