//! Threshold sensitivity analysis (paper §5, Figure 4).
//!
//! The paper checks that the choice of the ±2 log-ratio threshold is stable
//! by sweeping it from 1.0 to 3.0 in steps of 0.1 and plotting the share of
//! scripts classified as mixed; the curve plateaus around 2. The sweep here
//! is that fixed 21-point grid: it reruns the full hierarchy at each
//! threshold and records the mixed share at every granularity (the paper
//! reports "similar trends" for the other levels).

use crate::hierarchy::HierarchicalClassifier;
use crate::label::LabeledRequest;
use trackersift_engine::{Granularity, Thresholds};

/// Points of the paper's grid: thresholds 1.0, 1.1, …, 3.0.
const PAPER_POINTS: u32 = 21;

/// One point of the sensitivity sweep.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SensitivityPoint {
    /// The symmetric threshold this point was computed at.
    pub(crate) threshold: f64,
    /// Percentage of unique resources classified mixed, per granularity in
    /// [domain, hostname, script, method] order.
    pub(crate) mixed_share: [f64; 4],
}

impl SensitivityPoint {
    /// Mixed share at one granularity.
    pub(crate) fn share(&self, granularity: Granularity) -> f64 {
        self.mixed_share[granularity.index()]
    }
}

/// The whole sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SensitivitySweep {
    /// Points in ascending threshold order.
    pub(crate) points: Vec<SensitivityPoint>,
}

impl SensitivitySweep {
    /// The paper's sweep over `requests`: the hierarchy at each threshold
    /// from 1.0 to 3.0 in steps of 0.1.
    pub(crate) fn paper_sweep(requests: &[LabeledRequest]) -> Self {
        // Each threshold comes from its index, not from a running sum: a
        // sum drifts (the 11th `+= 0.1` is 2.000000000000001), and a point
        // must classify at exactly the threshold it reports.
        let points = (0..PAPER_POINTS)
            .map(|i| {
                let threshold = 1.0 + f64::from(i) * 0.1;
                let result =
                    HierarchicalClassifier::new(Thresholds::new(threshold)).classify(requests);
                SensitivityPoint {
                    threshold,
                    mixed_share: Granularity::ALL
                        .map(|g| result.level(g).resource_counts.mixed_share()),
                }
            })
            .collect();
        SensitivitySweep { points }
    }

    /// Maximum absolute change in the mixed share at `granularity` between
    /// consecutive thresholds within `[from, to]` — the "plateau" metric:
    /// small values around the default threshold mean the choice is stable.
    pub fn max_step_change(&self, granularity: Granularity, from: f64, to: f64) -> f64 {
        let mut max_change: f64 = 0.0;
        for window in self.points.windows(2) {
            let (a, b) = (&window[0], &window[1]);
            if a.threshold >= from - 1e-9 && b.threshold <= to + 1e-9 {
                max_change = max_change.max((b.share(granularity) - a.share(granularity)).abs());
            }
        }
        max_change
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Labeler;
    use crate::testutil::labeled_request;
    use crawler::{ClusterConfig, CrawlCluster};
    use websim::{filter_rules, CorpusGenerator, CorpusProfile};

    fn requests() -> Vec<LabeledRequest> {
        let corpus = CorpusGenerator::generate(&CorpusProfile::small().with_sites(80), 9);
        let db = CrawlCluster::new(ClusterConfig::default()).crawl(&corpus);
        let engine = filter_rules::engine_for(&corpus.ecosystem);
        Labeler::new(&engine).label_database(&db).0
    }

    #[test]
    fn sweep_produces_expected_grid() {
        let requests = requests();
        let sweep = SensitivitySweep::paper_sweep(&requests);
        assert_eq!(sweep.points.len(), 21);
        // Bit-exact: each threshold is derived from its index.
        for (i, point) in (0u32..).zip(&sweep.points) {
            assert_eq!(
                point.threshold.to_bits(),
                (1.0 + f64::from(i) * 0.1).to_bits(),
                "point {i}"
            );
        }
        assert_eq!(sweep.points[0].threshold, 1.0);
        assert_eq!(sweep.points[20].threshold, 3.0);
    }

    #[test]
    fn a_sweep_point_classifies_exactly_as_its_reported_threshold() {
        // One resource at 100 tracking : 1 functional (log ratio exactly
        // 2.0) and its mirror image: pure at the paper's threshold, so the
        // sweep's 2.0 point must not call them mixed.
        let mut requests = Vec::new();
        for (domain, majority_tracking) in [("ads.com", true), ("cdn.com", false)] {
            for n in 0..101 {
                let tracking = (n < 100) == majority_tracking;
                requests.push(labeled_request(domain, domain, "s.js", "m", tracking));
            }
        }
        let sweep = SensitivitySweep::paper_sweep(&requests);
        for point in &sweep.points {
            let result =
                HierarchicalClassifier::new(Thresholds::new(point.threshold)).classify(&requests);
            let expected = Granularity::ALL.map(|g| result.level(g).resource_counts.mixed_share());
            assert_eq!(point.mixed_share, expected, "at {}", point.threshold);
        }
        let at_default = &sweep.points[10];
        assert_eq!(Thresholds::new(at_default.threshold), Thresholds::paper());
        assert_eq!(at_default.share(Granularity::Domain), 0.0);
    }

    #[test]
    fn mixed_share_never_decreases_with_larger_threshold() {
        // Widening the mixed band can only add resources to it.
        let requests = requests();
        let sweep = SensitivitySweep::paper_sweep(&requests);
        for g in Granularity::ALL {
            // Note: at finer levels the *input set* changes with the
            // threshold (more mixed parents feed more requests down), so the
            // monotonicity guarantee only strictly holds at the domain level.
            if g == Granularity::Domain {
                for window in sweep.points.windows(2) {
                    assert!(
                        window[1].share(g) + 1e-9 >= window[0].share(g),
                        "{g}: {:?} -> {:?}",
                        window[0],
                        window[1]
                    );
                }
            }
        }
    }

    #[test]
    fn shares_are_percentages() {
        let requests = requests();
        let sweep = SensitivitySweep::paper_sweep(&requests);
        for p in &sweep.points {
            for s in p.mixed_share {
                assert!((0.0..=100.0).contains(&s), "{s}");
            }
        }
    }
}
