//! Rendering of tables, histograms and figure data.
//!
//! The bench binaries print the same rows and series the paper reports; this
//! module holds the shared formatting so the output of the `paper` binary's
//! `table1`, `figure3` etc. is consistent and easily diffed between runs.

use crate::metrics::{table1, table2, HeadlineSummary};
use crate::sensitivity::SensitivitySweep;
use trackersift_engine::{Classification, Granularity, HierarchyResult, LevelResult};

/// A histogram over the common-log ratio of resources at one granularity —
/// the data behind Figure 3. Resources with infinite ratios (no functional
/// or no tracking requests at all) land in the two overflow bins.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioHistogram {
    /// Granularity the histogram describes.
    pub(crate) granularity: Granularity,
    /// Lower edge of the first finite bin.
    pub(crate) min: f64,
    /// Upper edge of the last finite bin.
    pub(crate) max: f64,
    /// Width of each finite bin.
    pub(crate) bin_width: f64,
    /// Count of resources with ratio `-∞` or below `min`.
    pub(crate) underflow: u64,
    /// Counts of the finite bins.
    pub(crate) bins: Vec<u64>,
    /// Count of resources with ratio `+∞` or above `max`.
    pub(crate) overflow: u64,
}

impl RatioHistogram {
    /// Build the Figure 3 histogram for one level: bins of width `bin_width`
    /// covering `[min, max)`.
    fn from_level(level: &LevelResult, min: f64, max: f64, bin_width: f64) -> Self {
        assert!(bin_width > 0.0 && max > min, "invalid histogram geometry");
        let bin_count = ((max - min) / bin_width).ceil() as usize;
        let mut histogram = RatioHistogram {
            granularity: level.granularity,
            min,
            max,
            bin_width,
            underflow: 0,
            bins: vec![0; bin_count],
            overflow: 0,
        };
        for resource in &level.resources {
            let ratio = resource.log_ratio();
            if ratio == f64::NEG_INFINITY || ratio < min {
                histogram.underflow += 1;
            } else if ratio == f64::INFINITY || ratio >= max {
                histogram.overflow += 1;
            } else {
                let idx = ((ratio - min) / bin_width).floor() as usize;
                histogram.bins[idx.min(bin_count - 1)] += 1;
            }
        }
        histogram
    }

    /// The paper's geometry: bins of width 0.5 over [-5, 5).
    pub fn paper_bins(level: &LevelResult) -> Self {
        Self::from_level(level, -5.0, 5.0, 0.5)
    }

    /// Total resources represented.
    pub fn total(&self) -> u64 {
        self.underflow + self.overflow + self.bins.iter().sum::<u64>()
    }

    /// Sum of the bins whose centre is ≤ -threshold plus the underflow: the
    /// "functional" (green) mass of the figure.
    pub fn functional_mass(&self, threshold: f64) -> u64 {
        self.mass(|centre| centre <= -threshold) + self.underflow
    }

    /// The "tracking" (red) mass of the figure.
    pub fn tracking_mass(&self, threshold: f64) -> u64 {
        self.mass(|centre| centre >= threshold) + self.overflow
    }

    /// The "mixed" (yellow) mass of the figure.
    pub fn mixed_mass(&self, threshold: f64) -> u64 {
        self.mass(|centre| centre > -threshold && centre < threshold)
    }

    fn mass(&self, pred: impl Fn(f64) -> bool) -> u64 {
        self.bins
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let centre = self.min + (*i as f64 + 0.5) * self.bin_width;
                pred(centre)
            })
            .map(|(_, c)| c)
            .sum()
    }

    /// Render as a CSV block (`bin_low,bin_high,count`), with the overflow
    /// bins first and last.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("bin_low,bin_high,count\n");
        out.push_str(&format!("-inf,{},{}\n", self.min, self.underflow));
        for (i, count) in self.bins.iter().enumerate() {
            let low = self.min + i as f64 * self.bin_width;
            let high = low + self.bin_width;
            out.push_str(&format!("{low},{high},{count}\n"));
        }
        out.push_str(&format!("{},+inf,{}\n", self.max, self.overflow));
        out
    }

    /// Render as an ASCII bar chart, one line per bin (useful in terminals).
    pub fn to_ascii(&self, width: usize) -> String {
        let max_count = self
            .bins
            .iter()
            .copied()
            .chain([self.underflow, self.overflow])
            .max()
            .unwrap_or(0)
            .max(1);
        let bar = |count: u64| {
            let len = (count as f64 / max_count as f64 * width as f64).round() as usize;
            "#".repeat(len)
        };
        let mut out = String::new();
        out.push_str(&format!(
            "{:>12} | {:<width$} {}\n",
            "(-inf)",
            bar(self.underflow),
            self.underflow
        ));
        for (i, count) in self.bins.iter().enumerate() {
            let low = self.min + i as f64 * self.bin_width;
            out.push_str(&format!("{low:>12.1} | {:<width$} {count}\n", bar(*count)));
        }
        out.push_str(&format!(
            "{:>12} | {:<width$} {}\n",
            "(+inf)",
            bar(self.overflow),
            self.overflow
        ));
        out
    }
}

/// Render Table 1 as aligned text.
pub fn render_table1(result: &HierarchyResult) -> String {
    let mut out = String::new();
    out.push_str("Table 1: Classification of requests at different granularities\n");
    out.push_str(&format!(
        "{:<10} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
        "Level", "Tracking", "Functional", "Mixed", "Sep. (%)", "Cum. (%)"
    ));
    for row in table1(result) {
        out.push_str(&format!(
            "{:<10} {:>12} {:>12} {:>12} {:>12.1} {:>12.1}\n",
            row.granularity.name(),
            row.tracking,
            row.functional,
            row.mixed,
            row.separation_factor,
            row.cumulative_separation
        ));
    }
    out
}

/// Render Table 2 as aligned text.
pub fn render_table2(result: &HierarchyResult) -> String {
    let mut out = String::new();
    out.push_str("Table 2: Classification of resources at different granularities\n");
    out.push_str(&format!(
        "{:<10} {:>12} {:>12} {:>12} {:>12}\n",
        "Level", "Tracking", "Functional", "Mixed", "Sep. (%)"
    ));
    for row in table2(result) {
        out.push_str(&format!(
            "{:<10} {:>12} {:>12} {:>12} {:>12.1}\n",
            row.granularity.name(),
            row.tracking,
            row.functional,
            row.mixed,
            row.separation_factor
        ));
    }
    out
}

/// Render the headline summary.
pub fn render_headline(headline: &HeadlineSummary) -> String {
    format!(
        "Mixed resources: {:.0}% of domains, {:.0}% of hostnames, {:.0}% of scripts, {:.0}% of methods.\n\
         Requests attributed to tracking or functional resources: {:.1}%.\n",
        headline.mixed_domains_pct,
        headline.mixed_hostnames_pct,
        headline.mixed_scripts_pct,
        headline.mixed_methods_pct,
        headline.requests_attributed_pct
    )
}

/// Render the Figure 4 sweep as CSV (`threshold,domain,hostname,script,method`).
pub fn render_sensitivity_csv(sweep: &SensitivitySweep) -> String {
    let mut out = String::from(
        "threshold,mixed_domains_pct,mixed_hostnames_pct,mixed_scripts_pct,mixed_methods_pct\n",
    );
    for p in &sweep.points {
        out.push_str(&format!(
            "{:.1},{:.3},{:.3},{:.3},{:.3}\n",
            p.threshold, p.mixed_share[0], p.mixed_share[1], p.mixed_share[2], p.mixed_share[3]
        ));
    }
    out
}

/// Render the "notable resources" listing the paper's prose gives for a
/// level (top tracking / functional / mixed resources by request volume).
pub fn render_notable(level: &LevelResult, per_class: usize) -> String {
    let mut out = String::new();
    for class in [
        Classification::Tracking,
        Classification::Functional,
        Classification::Mixed,
    ] {
        out.push_str(&format!(
            "Top {class} {}s:\n",
            level.granularity.name().to_lowercase()
        ));
        for resource in level.top_resources(class, per_class) {
            out.push_str(&format!(
                "  {:<60} tracking={} functional={}\n",
                resource.key, resource.counts.tracking, resource.counts.functional
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchicalClassifier;
    use crate::label::LabeledRequest;
    use crate::metrics::headline;
    use crawler::StackFrame;
    use filterlist::{RequestLabel, ResourceType};
    use std::sync::Arc;

    fn req(domain: &str, tracking: bool) -> LabeledRequest {
        LabeledRequest {
            request_id: 0,
            top_level_url: "https://www.pub.com/".into(),
            site_domain: "pub.com".into(),
            url: format!("https://x.{domain}/y").into(),
            domain: domain.into(),
            hostname: format!("x.{domain}").into(),
            resource_type: ResourceType::Xhr,
            initiator_script: "https://www.pub.com/app.js".into(),
            initiator_method: "m".into(),
            stack: Arc::from([StackFrame::new("https://www.pub.com/app.js", "m")]),
            async_boundary: None,
            label: if tracking {
                RequestLabel::Tracking
            } else {
                RequestLabel::Functional
            },
        }
    }

    fn result() -> HierarchyResult {
        let mut v = Vec::new();
        for i in 0..20 {
            v.push(req(&format!("tracker{i}.com"), true));
            v.push(req(&format!("cdn{i}.com"), false));
        }
        for _ in 0..10 {
            v.push(req("mixed.com", true));
            v.push(req("mixed.com", false));
        }
        HierarchicalClassifier::default().classify(&v)
    }

    #[test]
    fn histogram_mass_matches_resource_counts() {
        let result = result();
        let level = result.level(Granularity::Domain);
        let histogram = RatioHistogram::paper_bins(level);
        assert_eq!(histogram.total(), level.resource_counts.total());
        assert_eq!(histogram.tracking_mass(2.0), level.resource_counts.tracking);
        assert_eq!(
            histogram.functional_mass(2.0),
            level.resource_counts.functional
        );
        assert_eq!(histogram.mixed_mass(2.0), level.resource_counts.mixed);
    }

    #[test]
    fn histogram_has_three_peaks_for_the_synthetic_shape() {
        let result = result();
        let histogram = RatioHistogram::paper_bins(result.level(Granularity::Domain));
        // Pure trackers in overflow, pure functional in underflow, mixed near 0.
        assert!(histogram.overflow > 0);
        assert!(histogram.underflow > 0);
        assert!(histogram.mixed_mass(2.0) > 0);
    }

    #[test]
    fn csv_and_ascii_renderings_contain_every_bin() {
        let result = result();
        let histogram = RatioHistogram::paper_bins(result.level(Granularity::Domain));
        let csv = histogram.to_csv();
        assert_eq!(csv.lines().count(), 1 + histogram.bins.len() + 2);
        let ascii = histogram.to_ascii(30);
        assert_eq!(ascii.lines().count(), histogram.bins.len() + 2);
    }

    #[test]
    fn table_renderings_have_four_rows() {
        let result = result();
        let t1 = render_table1(&result);
        let t2 = render_table2(&result);
        assert_eq!(t1.lines().count(), 6);
        assert_eq!(t2.lines().count(), 6);
        assert!(t1.contains("Domain"));
        assert!(t2.contains("Method"));
        let h = render_headline(&headline(&result));
        assert!(h.contains('%'));
    }

    #[test]
    fn notable_rendering_lists_top_mixed_domain() {
        let result = result();
        let text = render_notable(result.level(Granularity::Domain), 3);
        assert!(text.contains("mixed.com"));
    }

    #[test]
    #[should_panic(expected = "invalid histogram geometry")]
    fn invalid_geometry_rejected() {
        let result = result();
        let _ = RatioHistogram::from_level(result.level(Granularity::Domain), 5.0, -5.0, 0.5);
    }
}
