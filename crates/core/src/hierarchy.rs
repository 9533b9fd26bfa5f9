//! The hierarchical classifier (paper §2): domain → hostname → script →
//! method.
//!
//! At each granularity every resource accumulates the tracking / functional
//! counts of the requests attributed to it and is classified with the
//! log-ratio threshold. Requests attributed to *tracking* or *functional*
//! resources are "separated" and set aside; requests attributed to *mixed*
//! resources flow down to the next finer granularity:
//!
//! * **Domain** — all script-initiated requests, keyed by the request URL's
//!   eTLD+1;
//! * **Hostname** — only requests served by mixed domains, keyed by the
//!   request hostname;
//! * **Script** — only requests served by mixed hostnames, keyed by the URL
//!   of the initiating script (innermost stack frame);
//! * **Method** — only requests initiated by mixed scripts, keyed by
//!   `(script URL, method name)`.
//!
//! Each level is one pass: every request's key is interned once (one hash of
//! the key string, in the [`KeyInterner`] all four levels share), the
//! interned symbol indexes a dense count vector, and the requests that flow
//! down are picked through a dense mixed bit per symbol. No key is hashed
//! twice at a level and no string is built per request.
//!
//! The per-level separation factor and the cumulative separation reproduce
//! the paper's Table 1; the per-level unique-resource class counts reproduce
//! Table 2; the per-resource ratios feed the Figure 3 histograms.

use crate::label::LabeledRequest;
use trackersift_engine::{
    Classification, Counts, Granularity, HierarchyResult, KeyInterner, LevelResult, ResourceEntry,
    ResourceKey, Thresholds,
};

/// The attribution key of one request at this granularity, as an
/// interned symbol. This is the single definition of "what groups a
/// request" shared by the hierarchical pipeline and the flat ablation;
/// method keys go through [`ResourceKey::method_label`] via the
/// interner, so no `format!`-built strings appear on the per-request
/// path.
fn request_key(
    granularity: Granularity,
    request: &LabeledRequest,
    interner: &mut KeyInterner,
) -> ResourceKey {
    match granularity {
        Granularity::Domain => interner.intern(&request.domain),
        Granularity::Hostname => interner.intern(&request.hostname),
        Granularity::Script => interner.intern(&request.initiator_script),
        Granularity::Method => {
            interner.intern_method(&request.initiator_script, &request.initiator_method)
        }
    }
}

/// The hierarchical classifier.
#[derive(Debug, Clone, Copy, Default)]
pub struct HierarchicalClassifier {
    /// Thresholds applied at every level.
    pub(crate) thresholds: Thresholds,
}

impl HierarchicalClassifier {
    /// A classifier with the paper's default threshold of 2.
    pub fn new(thresholds: Thresholds) -> Self {
        HierarchicalClassifier { thresholds }
    }

    /// Run the full four-level analysis over labeled requests.
    ///
    /// One [`KeyInterner`] is threaded through all four levels, so every
    /// attribution key — including the composed `script :: method` keys —
    /// is allocated at most once for the whole classification.
    pub fn classify(&self, requests: &[LabeledRequest]) -> HierarchyResult {
        let all: Vec<&LabeledRequest> = requests.iter().collect();
        let total_requests = all.len() as u64;
        let mut interner = KeyInterner::with_capacity(1024);

        // Domain level over everything; each subsequent level only sees the
        // requests attributed to the previous level's mixed resources.
        let (domain_level, to_hostname) =
            self.classify_level(Granularity::Domain, &all, &mut interner);
        let (hostname_level, to_script) =
            self.classify_level(Granularity::Hostname, &to_hostname, &mut interner);
        let (script_level, to_method) =
            self.classify_level(Granularity::Script, &to_script, &mut interner);
        let (method_level, residue) =
            self.classify_level(Granularity::Method, &to_method, &mut interner);

        HierarchyResult {
            thresholds: self.thresholds,
            levels: vec![domain_level, hostname_level, script_level, method_level],
            total_requests,
            unattributed_requests: residue.len() as u64,
        }
    }

    /// Classify a single granularity over an arbitrary request set — the
    /// flat baseline of the flat-vs-hierarchical ablation.
    pub(crate) fn classify_flat(
        &self,
        granularity: Granularity,
        input: &[&LabeledRequest],
    ) -> LevelResult {
        let mut interner = KeyInterner::new();
        self.classify_level(granularity, input, &mut interner).0
    }

    /// Classify one level: group `input` by its interned granularity key,
    /// count labels, classify each resource, and return the level result
    /// plus the requests that belong to mixed resources (the next level's
    /// input).
    ///
    /// Each request's key is interned once, into `keys`; an interned key is
    /// its own index, so the counts accumulate in a dense vector and the
    /// next level's input is filtered through a dense mixed bit — no second
    /// interning pass and no map beyond the interner's own. Resources come
    /// out in first-seen order, which [`LevelResult::from_entries`] sorts
    /// away.
    fn classify_level<'a>(
        &self,
        granularity: Granularity,
        input: &[&'a LabeledRequest],
        interner: &mut KeyInterner,
    ) -> (LevelResult, Vec<&'a LabeledRequest>) {
        let keys: Vec<ResourceKey> = input
            .iter()
            .map(|request| request_key(granularity, request, interner))
            .collect();

        let mut counts = vec![Counts::default(); interner.len()];
        let mut first_seen: Vec<ResourceKey> = Vec::new();
        for (key, request) in keys.iter().zip(input) {
            let cell = &mut counts[key.index()];
            if cell.is_empty() {
                first_seen.push(*key);
            }
            cell.record(request.is_tracking());
        }

        let mut mixed = vec![false; interner.len()];
        let resources: Vec<ResourceEntry> = first_seen
            .into_iter()
            .map(|key| {
                let counts = counts[key.index()];
                let classification = self
                    .thresholds
                    .classify(&counts)
                    .expect("grouped resources have requests");
                mixed[key.index()] = classification == Classification::Mixed;
                ResourceEntry {
                    key: interner.resolve(key).to_string(),
                    counts,
                    classification,
                }
            })
            .collect();

        let next: Vec<&LabeledRequest> = keys
            .iter()
            .zip(input)
            .filter(|(key, _)| mixed[key.index()])
            .map(|(_, request)| *request)
            .collect();

        (
            LevelResult::from_entries(granularity, resources, input.len() as u64),
            next,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{figure1_requests, labeled_request};
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    /// The two-pass level routine [`HierarchicalClassifier::classify_level`]
    /// replaced, kept as its oracle: group through a `HashMap`, collect the
    /// mixed keys in a `HashSet`, then intern every request's key a second
    /// time to filter the next level's input.
    fn classify_level_two_pass<'a>(
        classifier: &HierarchicalClassifier,
        granularity: Granularity,
        input: &[&'a LabeledRequest],
        interner: &mut KeyInterner,
    ) -> (LevelResult, Vec<&'a LabeledRequest>) {
        let mut groups: HashMap<ResourceKey, Counts> = HashMap::new();
        for request in input {
            groups
                .entry(request_key(granularity, request, interner))
                .or_default()
                .record(request.is_tracking());
        }
        let mut mixed_keys: HashSet<ResourceKey> = HashSet::new();
        let resources: Vec<ResourceEntry> = groups
            .into_iter()
            .map(|(id, counts)| {
                let classification = classifier
                    .thresholds
                    .classify(&counts)
                    .expect("grouped resources have requests");
                if classification == Classification::Mixed {
                    mixed_keys.insert(id);
                }
                ResourceEntry {
                    key: interner.resolve(id).to_string(),
                    counts,
                    classification,
                }
            })
            .collect();
        let next = input
            .iter()
            .copied()
            .filter(|request| mixed_keys.contains(&request_key(granularity, request, interner)))
            .collect();
        (
            LevelResult::from_entries(granularity, resources, input.len() as u64),
            next,
        )
    }

    /// Requests over small key pools. Host 0 of a domain *is* the domain
    /// string, so a key can be interned at one level and met again at the
    /// next; scripts and methods are always first seen below the level that
    /// interned the hostnames. `mode` skews the labels so that whole levels
    /// come out pure (the levels below are empty) or all mixed.
    fn arb_requests() -> impl Strategy<Value = Vec<LabeledRequest>> {
        let request = (0usize..4, 0usize..3, 0usize..4, 0usize..3, 0u64..2);
        (prop::collection::vec(request, 0..120), 0usize..4).prop_map(|(keys, mode)| {
            keys.into_iter()
                .enumerate()
                .map(|(id, (domain, host, script, method, coin))| {
                    let domain_key = format!("d{domain}.com");
                    let hostname = match host {
                        0 => domain_key.clone(),
                        _ => format!("h{host}.{domain_key}"),
                    };
                    let tracking = match mode {
                        0 => coin == 1,
                        1 => true,
                        2 => domain % 2 == 0,
                        _ => (script + method) % 2 == 0,
                    };
                    let mut request = labeled_request(
                        &domain_key,
                        &hostname,
                        &format!("https://pub.com/s{script}.js"),
                        &format!("m{method}"),
                        tracking,
                    );
                    request.request_id = id as u64;
                    request
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn one_pass_dense_levels_equal_the_two_pass_oracle(
            requests in arb_requests(),
            threshold in 0.3f64..3.0,
        ) {
            let classifier = HierarchicalClassifier::new(Thresholds::new(threshold));
            let ids = |requests: &[&LabeledRequest]| -> Vec<u64> {
                requests.iter().map(|r| r.request_id).collect()
            };
            // Level by level down the hierarchy, each side with its own
            // interner: the keys' numbering may differ, the results may not.
            let (mut dense_keys, mut oracle_keys) = (KeyInterner::new(), KeyInterner::new());
            let mut input: Vec<&LabeledRequest> = requests.iter().collect();
            for granularity in Granularity::ALL {
                let (level, next) = classifier.classify_level(granularity, &input, &mut dense_keys);
                let (expected, expected_next) =
                    classify_level_two_pass(&classifier, granularity, &input, &mut oracle_keys);
                prop_assert_eq!(&level, &expected);
                prop_assert_eq!(ids(&next), ids(&expected_next));
                input = next;
            }
            // The flat ablation enters each level with a fresh interner.
            let all: Vec<&LabeledRequest> = requests.iter().collect();
            for granularity in Granularity::ALL {
                let expected =
                    classify_level_two_pass(&classifier, granularity, &all, &mut KeyInterner::new());
                prop_assert_eq!(classifier.classify_flat(granularity, &all), expected.0);
            }
        }
    }

    #[test]
    fn figure1_domains_classify_as_expected() {
        let result = HierarchicalClassifier::default().classify(&figure1_requests());
        let domains = result.level(Granularity::Domain);
        let class_of = |key: &str| {
            domains
                .resources
                .iter()
                .find(|r| r.key == key)
                .map(|r| r.classification)
        };
        assert_eq!(class_of("ads.com"), Some(Classification::Tracking));
        assert_eq!(class_of("news.com"), Some(Classification::Functional));
        assert_eq!(class_of("google.com"), Some(Classification::Mixed));
        assert_eq!(domains.resource_counts.total(), 3);
    }

    #[test]
    fn figure1_hostnames_only_cover_mixed_domains() {
        let result = HierarchicalClassifier::default().classify(&figure1_requests());
        let hostnames = result.level(Granularity::Hostname);
        // Only google.com hostnames appear.
        assert!(hostnames
            .resources
            .iter()
            .all(|r| r.key.ends_with("google.com")));
        let class_of = |key: &str| {
            hostnames
                .resources
                .iter()
                .find(|r| r.key == key)
                .map(|r| r.classification)
        };
        assert_eq!(class_of("ad.google.com"), Some(Classification::Tracking));
        assert_eq!(
            class_of("maps.google.com"),
            Some(Classification::Functional)
        );
        assert_eq!(class_of("cdn.google.com"), Some(Classification::Mixed));
    }

    #[test]
    fn figure1_scripts_and_methods_untangle_clone_js() {
        let result = HierarchicalClassifier::default().classify(&figure1_requests());
        let scripts = result.level(Granularity::Script);
        let class_of = |key: &str| {
            scripts
                .resources
                .iter()
                .find(|r| r.key == key)
                .map(|r| r.classification)
        };
        assert_eq!(
            class_of("https://pub.com/sdk.js"),
            Some(Classification::Tracking)
        );
        assert_eq!(
            class_of("https://pub.com/stack.js"),
            Some(Classification::Functional)
        );
        assert_eq!(
            class_of("https://pub.com/clone.js"),
            Some(Classification::Mixed)
        );

        let methods = result.level(Granularity::Method);
        let class_of = |key: &str| {
            methods
                .resources
                .iter()
                .find(|r| r.key == key)
                .map(|r| r.classification)
        };
        assert_eq!(
            class_of("https://pub.com/clone.js :: m1"),
            Some(Classification::Tracking)
        );
        assert_eq!(
            class_of("https://pub.com/clone.js :: m3"),
            Some(Classification::Functional)
        );
        assert_eq!(
            class_of("https://pub.com/clone.js :: m2"),
            Some(Classification::Mixed)
        );
        assert_eq!(result.unattributed_requests, 2);
    }

    #[test]
    fn request_flow_is_conserved_between_levels() {
        let requests = figure1_requests();
        let result = HierarchicalClassifier::default().classify(&requests);
        assert_eq!(result.total_requests, requests.len() as u64);
        // Each level's input equals the previous level's mixed request count.
        for window in result.levels.windows(2) {
            assert_eq!(window[1].input_requests, window[0].request_counts.mixed);
        }
        // Each level's input equals its own request-count total.
        for level in &result.levels {
            assert_eq!(level.input_requests, level.request_counts.total());
        }
        // Unattributed = mixed at the finest level.
        assert_eq!(
            result.unattributed_requests,
            result.level(Granularity::Method).request_counts.mixed
        );
    }

    #[test]
    fn cumulative_separation_is_monotone_and_matches_overall() {
        let result = HierarchicalClassifier::default().classify(&figure1_requests());
        let cumulative = result.cumulative_separation();
        assert_eq!(cumulative.len(), 4);
        for window in cumulative.windows(2) {
            assert!(window[1].1 >= window[0].1);
        }
        let last = cumulative.last().unwrap().1;
        assert!((last - result.overall_attribution()).abs() < 1e-9);
    }

    #[test]
    fn empty_input_produces_empty_levels() {
        let result = HierarchicalClassifier::default().classify(&[]);
        assert_eq!(result.total_requests, 0);
        assert_eq!(result.unattributed_requests, 0);
        for level in &result.levels {
            assert!(level.resources.is_empty());
            assert_eq!(level.request_counts.total(), 0);
        }
        assert_eq!(result.overall_attribution(), 0.0);
    }

    #[test]
    fn top_resources_ranks_by_volume() {
        let result = HierarchicalClassifier::default().classify(&figure1_requests());
        let domains = result.level(Granularity::Domain);
        let top = domains.top_resources(Classification::Mixed, 5);
        assert_eq!(top[0].key, "google.com");
    }

    #[test]
    fn looser_threshold_increases_mixed_resources() {
        let requests = figure1_requests();
        let strict = HierarchicalClassifier::new(Thresholds::new(0.5)).classify(&requests);
        let paper = HierarchicalClassifier::new(Thresholds::paper()).classify(&requests);
        let strict_mixed = strict.level(Granularity::Domain).resource_counts.mixed;
        let paper_mixed = paper.level(Granularity::Domain).resource_counts.mixed;
        assert!(strict_mixed <= paper_mixed);
    }
}
