//! Breakage analysis (paper §5, Table 3).
//!
//! The paper manually loads a sample of websites with and without blocking
//! the scripts TrackerSift classified as mixed, and grades the damage:
//! **major** when core functionality (navigation, search, images, the page
//! itself) breaks, **minor** when only secondary functionality (widgets,
//! comments, players) breaks, **none** otherwise; missing ads never count as
//! breakage. We reproduce the decision procedure mechanically: the synthetic
//! pages declare which features depend on which scripts, the crawler loads
//! each sampled page once unblocked (control) and once with its mixed
//! scripts blocked (treatment), and the grade falls out of which features
//! disappeared in treatment but not control.

use crawler::{LoadOptions, PageLoadSimulator};
use std::collections::HashSet;
use trackersift_engine::{Classification, Granularity, HierarchyResult};
use websim::{FeatureImportance, WebCorpus, Website};

/// Breakage grade for one website.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Breakage {
    /// Core functionality broke.
    Major,
    /// Only secondary functionality broke.
    Minor,
    /// Nothing visibly broke.
    None,
}

impl std::fmt::Display for Breakage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Breakage::Major => f.write_str("Major"),
            Breakage::Minor => f.write_str("Minor"),
            Breakage::None => f.write_str("None"),
        }
    }
}

/// One row of the breakage table.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakageRow {
    /// The website.
    pub website: String,
    /// The mixed script(s) that were blocked (short display form).
    pub blocked_scripts: Vec<String>,
    /// The grade.
    pub breakage: Breakage,
    /// Which features broke (treatment-only failures).
    pub broken_features: Vec<String>,
}

/// The whole breakage study.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BreakageStudy {
    /// One row per sampled website.
    pub rows: Vec<BreakageRow>,
}

impl BreakageStudy {
    /// Number of sites with each grade: (major, minor, none).
    pub fn grade_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for row in &self.rows {
            match row.breakage {
                Breakage::Major => counts.0 += 1,
                Breakage::Minor => counts.1 += 1,
                Breakage::None => counts.2 += 1,
            }
        }
        counts
    }

    /// Share of sampled sites with any breakage, in percent.
    pub fn any_breakage_share(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        let (major, minor, _) = self.grade_counts();
        100.0 * (major + minor) as f64 / self.rows.len() as f64
    }
}

/// Run the breakage analysis: sample up to `sample_size` websites that
/// contain at least one script classified mixed by `result`, block those
/// scripts, and grade the damage.
///
/// Sampling is deterministic: sites are taken in rank order among those that
/// qualify (the paper samples randomly; rank order keeps the experiment
/// reproducible without an extra seed).
pub(crate) fn analyze_breakage(
    corpus: &WebCorpus,
    result: &HierarchyResult,
    sample_size: usize,
) -> BreakageStudy {
    let mixed_scripts: HashSet<&str> = result
        .level(Granularity::Script)
        .resources
        .iter()
        .filter(|r| r.classification == Classification::Mixed)
        .map(|r| r.key.as_str())
        .collect();

    let mut rows = Vec::new();
    for site in &corpus.websites {
        if rows.len() >= sample_size {
            break;
        }
        let blocked: Vec<String> = site
            .scripts
            .iter()
            .map(|s| s.origin.url().to_string())
            .filter(|url| mixed_scripts.contains(url.as_str()))
            .collect();
        if blocked.is_empty() {
            continue;
        }
        rows.push(grade_site(site, &blocked));
    }
    BreakageStudy { rows }
}

/// Load one site in control and treatment and grade the difference.
pub fn grade_site(site: &Website, blocked_scripts: &[String]) -> BreakageRow {
    let mut sim = PageLoadSimulator::new(0);
    let control = sim.load(site);
    let treatment = sim.load_with(
        site,
        &LoadOptions::blocking_scripts(blocked_scripts.iter().cloned()),
    );

    let control_broken: HashSet<&str> = control
        .broken_features
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    let mut broke_core = false;
    let mut broke_secondary = false;
    let mut broken_features = Vec::new();
    for (name, importance) in &treatment.broken_features {
        if control_broken.contains(name.as_str()) {
            continue; // broken even without blocking: not our doing
        }
        broken_features.push(name.clone());
        match importance {
            FeatureImportance::Core => broke_core = true,
            FeatureImportance::Secondary => broke_secondary = true,
        }
    }
    let breakage = if broke_core {
        Breakage::Major
    } else if broke_secondary {
        Breakage::Minor
    } else {
        Breakage::None
    };
    BreakageRow {
        website: site.domain.clone(),
        blocked_scripts: blocked_scripts
            .iter()
            .map(|url| short_script_name(url))
            .collect(),
        breakage,
        broken_features,
    }
}

/// The short display form of a script URL (`main.js`, `app.9115af43.js`),
/// matching how the paper's Table 3 names scripts.
fn short_script_name(url: &str) -> String {
    let no_query = url.split(['?', '#']).next().unwrap_or(url);
    let last = no_query.rsplit('/').next().unwrap_or(no_query);
    if last.is_empty() {
        "(inline)".to_string()
    } else {
        last.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Labeler;
    use crate::HierarchicalClassifier;
    use crawler::{ClusterConfig, CrawlCluster};
    use websim::{filter_rules, CorpusGenerator, CorpusProfile};

    fn study(sample: usize) -> (WebCorpus, HierarchyResult, BreakageStudy) {
        let corpus = CorpusGenerator::generate(&CorpusProfile::small().with_sites(120), 31);
        let db = CrawlCluster::new(ClusterConfig::default()).crawl(&corpus);
        let engine = filter_rules::engine_for(&corpus.ecosystem);
        let (requests, _) = Labeler::new(&engine).label_database(&db);
        let result = HierarchicalClassifier::default().classify(&requests);
        let breakage = analyze_breakage(&corpus, &result, sample);
        (corpus, result, breakage)
    }

    #[test]
    fn breakage_study_samples_sites_with_mixed_scripts() {
        let (_, result, study) = study(10);
        assert!(
            !study.rows.is_empty(),
            "no sites with mixed scripts found; script-level mixed = {}",
            result.level(Granularity::Script).resource_counts.mixed
        );
        assert!(study.rows.len() <= 10);
        for row in &study.rows {
            assert!(!row.blocked_scripts.is_empty());
        }
    }

    #[test]
    fn blocking_mixed_scripts_breaks_some_sites() {
        // The paper's point: mixed scripts cannot be blocked safely. Most of
        // the sampled sites should show breakage.
        let (_, _, study) = study(10);
        assert!(
            study.any_breakage_share() >= 50.0,
            "expected breakage on most sites, got {:.0}% over {} sites",
            study.any_breakage_share(),
            study.rows.len()
        );
    }

    #[test]
    fn short_script_names() {
        assert_eq!(
            short_script_name("https://a.com/assets/app.9115af43.js?v=2"),
            "app.9115af43.js"
        );
        assert_eq!(short_script_name("https://a.com/"), "(inline)");
        assert_eq!(
            short_script_name("https://a.com/jquery.min.js"),
            "jquery.min.js"
        );
    }

    #[test]
    fn grade_counts_sum_to_rows() {
        let (_, _, study) = study(8);
        let (major, minor, none) = study.grade_counts();
        assert_eq!(major + minor + none, study.rows.len());
    }

    #[test]
    fn unaffected_sites_grade_none() {
        // Blocking a script no feature depends on yields Breakage::None.
        let corpus = CorpusGenerator::generate(&CorpusProfile::small().with_sites(5), 77);
        let site = &corpus.websites[0];
        let row = grade_site(site, &["https://not-on-this-page.example/x.js".to_string()]);
        assert_eq!(row.breakage, Breakage::None);
        assert!(row.broken_features.is_empty());
    }
}
