//! Summary metrics derived from a [`HierarchyResult`]: the rows of the
//! paper's Table 1 and Table 2 and the headline percentages from the
//! abstract (17% mixed domains, 48% mixed hostnames, 6% mixed scripts, 9%
//! mixed methods, 98% of requests attributed).

use trackersift_engine::{Granularity, HierarchyResult};

/// One row of Table 1 (requests per class at a granularity).
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Granularity of the row.
    pub(crate) granularity: Granularity,
    /// Requests attributed to tracking resources.
    pub(crate) tracking: u64,
    /// Requests attributed to functional resources.
    pub(crate) functional: u64,
    /// Requests attributed to mixed resources (passed to the next level).
    pub(crate) mixed: u64,
    /// Separation factor over this level's input requests, percent.
    pub(crate) separation_factor: f64,
    /// Cumulative separation over all script-initiated requests, percent.
    pub(crate) cumulative_separation: f64,
}

/// One row of Table 2 (unique resources per class at a granularity).
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Granularity of the row.
    pub(crate) granularity: Granularity,
    /// Resources classified tracking.
    pub(crate) tracking: u64,
    /// Resources classified functional.
    pub(crate) functional: u64,
    /// Resources classified mixed.
    pub(crate) mixed: u64,
    /// Separation factor over unique resources, percent.
    pub(crate) separation_factor: f64,
}

/// The headline numbers the abstract reports.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadlineSummary {
    /// Percent of domains classified mixed.
    pub mixed_domains_pct: f64,
    /// Percent of hostnames (within mixed domains) classified mixed.
    pub mixed_hostnames_pct: f64,
    /// Percent of scripts (within mixed hostnames) classified mixed.
    pub mixed_scripts_pct: f64,
    /// Percent of methods (within mixed scripts) classified mixed.
    pub mixed_methods_pct: f64,
    /// Percent of script-initiated requests attributed to tracking or
    /// functional resources by the end of the hierarchy.
    pub requests_attributed_pct: f64,
}

/// Build the Table 1 rows from a hierarchy result.
pub fn table1(result: &HierarchyResult) -> Vec<Table1Row> {
    let cumulative = result.cumulative_separation();
    result
        .levels
        .iter()
        .zip(cumulative)
        .map(|(level, (_, cum))| Table1Row {
            granularity: level.granularity,
            tracking: level.request_counts.tracking,
            functional: level.request_counts.functional,
            mixed: level.request_counts.mixed,
            separation_factor: level.request_separation_factor(),
            cumulative_separation: cum,
        })
        .collect()
}

/// Build the Table 2 rows from a hierarchy result.
pub fn table2(result: &HierarchyResult) -> Vec<Table2Row> {
    result
        .levels
        .iter()
        .map(|level| Table2Row {
            granularity: level.granularity,
            tracking: level.resource_counts.tracking,
            functional: level.resource_counts.functional,
            mixed: level.resource_counts.mixed,
            separation_factor: level.resource_separation_factor(),
        })
        .collect()
}

/// Build the headline summary from a hierarchy result.
pub fn headline(result: &HierarchyResult) -> HeadlineSummary {
    let mixed_pct = |g: Granularity| result.level(g).resource_counts.mixed_share();
    HeadlineSummary {
        mixed_domains_pct: mixed_pct(Granularity::Domain),
        mixed_hostnames_pct: mixed_pct(Granularity::Hostname),
        mixed_scripts_pct: mixed_pct(Granularity::Script),
        mixed_methods_pct: mixed_pct(Granularity::Method),
        requests_attributed_pct: result.overall_attribution(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchicalClassifier;
    use crate::label::LabeledRequest;
    use crawler::StackFrame;
    use filterlist::{RequestLabel, ResourceType};

    fn req(
        domain: &str,
        hostname: &str,
        script: &str,
        method: &str,
        tracking: bool,
    ) -> LabeledRequest {
        LabeledRequest {
            request_id: 0,
            top_level_url: "https://www.pub.com/".into(),
            url: format!("https://{hostname}/x").into(),
            domain: domain.into(),
            hostname: hostname.into(),
            resource_type: ResourceType::Xhr,
            initiator_script: script.into(),
            initiator_method: method.into(),
            stack: vec![StackFrame::new(script, method)].into(),
            label: if tracking {
                RequestLabel::Tracking
            } else {
                RequestLabel::Functional
            },
        }
    }

    fn sample() -> Vec<LabeledRequest> {
        let mut v = Vec::new();
        for _ in 0..10 {
            v.push(req("ads.com", "px.ads.com", "s1", "t", true));
            v.push(req("cdn.com", "img.cdn.com", "s2", "f", false));
        }
        for _ in 0..5 {
            v.push(req("hub.com", "www.hub.com", "s3", "a", true));
            v.push(req("hub.com", "www.hub.com", "s4", "b", false));
        }
        v
    }

    #[test]
    fn table1_rows_cover_all_levels_and_sum_correctly() {
        let result = HierarchicalClassifier::default().classify(&sample());
        let rows = table1(&result);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].granularity, Granularity::Domain);
        // Domain row: 10 tracking (ads.com) + 10 functional (cdn.com) + 10 mixed (hub.com).
        assert_eq!(rows[0].tracking, 10);
        assert_eq!(rows[0].functional, 10);
        assert_eq!(rows[0].mixed, 10);
        assert!((rows[0].separation_factor - 66.666).abs() < 0.1);
        // Cumulative separation is non-decreasing and ends at the overall figure.
        for w in rows.windows(2) {
            assert!(w[1].cumulative_separation >= w[0].cumulative_separation);
        }
        assert!((rows[3].cumulative_separation - result.overall_attribution()).abs() < 1e-9);
    }

    #[test]
    fn table2_rows_match_resource_counts() {
        let result = HierarchicalClassifier::default().classify(&sample());
        let rows = table2(&result);
        assert_eq!(rows[0].tracking, 1);
        assert_eq!(rows[0].functional, 1);
        assert_eq!(rows[0].mixed, 1);
        // Hostname level only sees hub.com's single hostname, which is mixed.
        assert_eq!(rows[1].mixed, 1);
        assert_eq!(rows[1].tracking + rows[1].functional, 0);
        // Script level separates s3 (tracking) and s4 (functional).
        assert_eq!(rows[2].tracking, 1);
        assert_eq!(rows[2].functional, 1);
        assert_eq!(rows[2].mixed, 0);
    }

    #[test]
    fn headline_matches_levels() {
        let result = HierarchicalClassifier::default().classify(&sample());
        let h = headline(&result);
        assert!((h.mixed_domains_pct - 100.0 / 3.0).abs() < 0.1);
        assert!((h.mixed_hostnames_pct - 100.0).abs() < 1e-9);
        assert!((h.mixed_scripts_pct - 0.0).abs() < 1e-9);
        assert!((h.requests_attributed_pct - 100.0).abs() < 1e-9);
    }
}
