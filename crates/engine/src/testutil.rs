//! Shared unit-test fixtures: hand-built labeled rows, the paper's Figure 1
//! worked example, a labeled crawl, and the from-scratch classification a
//! sifter's commits must equal.
//!
//! The production from-scratch classifier is the study's
//! `HierarchicalClassifier`, which this crate cannot depend on; the study's
//! own tests and the workspace's property tests pin the sifter to it. The
//! engine's tests compare against [`classify`], the same four-level walk
//! written plainly over hashed groups.

use crate::hierarchy::{Granularity, HierarchyResult, LevelResult, ResourceEntry};
use crate::intern::ResourceKey;
use crate::label::label_url;
use crate::ratio::{Classification, Counts, Thresholds};
use crate::{DecisionRequest, ObservationRef};
use crawler::{ClusterConfig, CrawlCluster};
use filterlist::{hostname_of, RequestScratch};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use websim::{filter_rules, CorpusGenerator, CorpusProfile};

/// A labeled request's four attribution keys and its oracle label.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LabeledRow {
    pub(crate) domain: Arc<str>,
    pub(crate) hostname: Arc<str>,
    pub(crate) initiator_script: Arc<str>,
    pub(crate) initiator_method: Arc<str>,
    pub(crate) tracking: bool,
}

impl<'a> From<&'a LabeledRow> for ObservationRef<'a> {
    fn from(row: &'a LabeledRow) -> Self {
        ObservationRef::parts(
            &row.domain,
            &row.hostname,
            &row.initiator_script,
            &row.initiator_method,
            row.tracking,
        )
    }
}

impl<'a> From<&'a LabeledRow> for DecisionRequest<'a> {
    fn from(row: &'a LabeledRow) -> Self {
        DecisionRequest::new(
            &row.domain,
            &row.hostname,
            &row.initiator_script,
            &row.initiator_method,
        )
    }
}

/// A hand-built labeled row with explicit attribution keys.
pub(crate) fn labeled_request(
    domain: &str,
    hostname: &str,
    script: &str,
    method: &str,
    tracking: bool,
) -> LabeledRow {
    LabeledRow {
        domain: domain.into(),
        hostname: hostname.into(),
        initiator_script: script.into(),
        initiator_method: method.into(),
        tracking,
    }
}

/// The paper's Figure 1 worked example: ads.com is pure tracking, news.com
/// pure functional, google.com mixed; within google.com the hostnames
/// split; within cdn.google.com the scripts split; within clone.js the
/// methods split (m1 tracking, m3 functional, m2 both — the residue).
pub(crate) fn figure1_requests() -> Vec<LabeledRow> {
    type Row = (&'static str, &'static str, &'static str, &'static str, bool);
    #[rustfmt::skip]
    let rounds: [(usize, &[Row]); 4] = [
        (5, &[
            ("ads.com", "px.ads.com", "https://pub.com/a.js", "t", true),
            ("news.com", "cdn.news.com", "https://pub.com/n.js", "f", false),
        ]),
        (4, &[
            ("google.com", "ad.google.com", "https://pub.com/sdk.js", "send", true),
            ("google.com", "maps.google.com", "https://pub.com/maps.js", "draw", false),
        ]),
        (3, &[
            ("google.com", "cdn.google.com", "https://pub.com/sdk.js", "send", true),
            ("google.com", "cdn.google.com", "https://pub.com/stack.js", "load", false),
            ("google.com", "cdn.google.com", "https://pub.com/clone.js", "m1", true),
            ("google.com", "cdn.google.com", "https://pub.com/clone.js", "m3", false),
        ]),
        (1, &[
            ("google.com", "cdn.google.com", "https://pub.com/clone.js", "m2", true),
            ("google.com", "cdn.google.com", "https://pub.com/clone.js", "m2", false),
        ]),
    ];
    let mut rows = Vec::new();
    for (times, round) in rounds {
        for _ in 0..times {
            for &(domain, hostname, script, method, tracking) in round {
                rows.push(labeled_request(domain, hostname, script, method, tracking));
            }
        }
    }
    rows
}

/// Every script-initiated request of `profile`'s corpus at `seed`, crawled
/// and labeled as the study's labeler does it: through [`label_url`], with
/// the page's hostname as the source, in crawl order.
pub(crate) fn crawled_rows(profile: &CorpusProfile, seed: u64) -> Vec<LabeledRow> {
    let corpus = CorpusGenerator::generate(profile, seed);
    let db = CrawlCluster::new(ClusterConfig::sequential()).crawl(&corpus);
    let engine = filter_rules::engine_for(&corpus.ecosystem);
    let mut scratch = RequestScratch::new();
    let mut rows = Vec::new();
    for request in db.sites.iter().flat_map(|site| &site.requests) {
        let Some(frame) = request.call_stack.initiator_frame() else {
            continue;
        };
        let page = hostname_of(&request.top_level_url);
        let kind = request.resource_type;
        if let Some((label, hostname, domain)) =
            label_url(&engine, &mut scratch, &request.url, page, kind)
        {
            let (script, method) = (&frame.script_url, &frame.function_name);
            rows.push(labeled_request(
                domain,
                hostname,
                script,
                method,
                label.is_tracking(),
            ));
        }
    }
    rows
}

/// The hierarchy `rows` classify into from scratch: each level groups its
/// input by key, classifies every group, and passes the rows of its mixed
/// groups down to the next level.
pub(crate) fn classify(thresholds: Thresholds, rows: &[LabeledRow]) -> HierarchyResult {
    let mut input: Vec<&LabeledRow> = rows.iter().collect();
    let mut levels = Vec::new();
    for granularity in Granularity::ALL {
        let key = |row: &LabeledRow| match granularity {
            Granularity::Domain => row.domain.to_string(),
            Granularity::Hostname => row.hostname.to_string(),
            Granularity::Script => row.initiator_script.to_string(),
            Granularity::Method => {
                ResourceKey::method_label(&row.initiator_script, &row.initiator_method)
            }
        };
        let mut groups: HashMap<String, Counts> = HashMap::new();
        for row in &input {
            groups.entry(key(row)).or_default().record(row.tracking);
        }
        let resources: Vec<ResourceEntry> = groups
            .into_iter()
            .map(|(key, counts)| ResourceEntry {
                classification: thresholds.classify(&counts).expect("a group has rows"),
                key,
                counts,
            })
            .collect();
        let mixed: HashSet<&str> = resources
            .iter()
            .filter(|r| r.classification == Classification::Mixed)
            .map(|r| r.key.as_str())
            .collect();
        let entered = input.len() as u64;
        input.retain(|row| mixed.contains(key(row).as_str()));
        levels.push(LevelResult::from_entries(granularity, resources, entered));
    }
    HierarchyResult {
        thresholds,
        levels,
        total_requests: rows.len() as u64,
        unattributed_requests: input.len() as u64,
    }
}
