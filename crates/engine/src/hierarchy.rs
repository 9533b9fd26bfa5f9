//! The hierarchical classification (paper §2): the four granularities,
//! domain → hostname → script → method, and per level every resource's
//! counts and class, with the tallies behind Tables 1–2 and the ratios
//! behind Figure 3.
//!
//! Two producers build these results and must never differ: the
//! from-scratch walk [`classify_rows`], over labeled rows, and
//! [`Sifter::hierarchy`](crate::Sifter::hierarchy), from its committed
//! state. Both go through [`LevelResult::from_entries`] for ordering and
//! accounting.
//!
//! The walk groups each level's rows by key, classifies every group with
//! the log-ratio threshold, and passes the rows of mixed groups down to the
//! next level. Each level is one pass: every row's key is interned once
//! (one hash of the key string, in the [`KeyInterner`] all levels share),
//! the interned symbol indexes a dense count vector, and the rows that flow
//! down are picked through a dense mixed bit per symbol. No key is hashed
//! twice at a level and no string is built per row.

use crate::intern::{KeyInterner, ResourceKey};
use crate::ratio::{Classification, Counts, Thresholds};
use std::fmt;

/// The four granularities of the hierarchy, coarsest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Granularity {
    /// eTLD+1 of the request URL.
    Domain,
    /// Full hostname of the request URL.
    Hostname,
    /// URL of the initiating script.
    Script,
    /// `(script URL, method name)` of the initiating frame.
    Method,
}

impl Granularity {
    /// All four granularities, coarsest first.
    pub const ALL: [Granularity; 4] = [
        Granularity::Domain,
        Granularity::Hostname,
        Granularity::Script,
        Granularity::Method,
    ];

    /// The position of this granularity in [`Granularity::ALL`] (coarsest =
    /// 0). This is the array index the flattened
    /// [`VerdictTable`](crate::VerdictTable) uses for its dense
    /// per-granularity class arrays.
    pub fn index(self) -> usize {
        match self {
            Granularity::Domain => 0,
            Granularity::Hostname => 1,
            Granularity::Script => 2,
            Granularity::Method => 3,
        }
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Granularity::Domain => "Domain",
            Granularity::Hostname => "Hostname",
            Granularity::Script => "Script",
            Granularity::Method => "Method",
        }
    }
}

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Counts split by classification outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// Tracking-classified.
    pub tracking: u64,
    /// Functional-classified.
    pub functional: u64,
    /// Mixed-classified.
    pub mixed: u64,
}

impl ClassCounts {
    /// Total across the three classes.
    pub fn total(&self) -> u64 {
        self.tracking + self.functional + self.mixed
    }

    /// Add `n` to the bucket for `class`.
    pub(crate) fn add(&mut self, class: Classification, n: u64) {
        match class {
            Classification::Tracking => self.tracking += n,
            Classification::Functional => self.functional += n,
            Classification::Mixed => self.mixed += n,
        }
    }

    /// Fraction of the total that is *not* mixed (i.e. separated), in
    /// percent. Returns 0 when empty.
    pub(crate) fn separation_factor(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        100.0 * (self.tracking + self.functional) as f64 / total as f64
    }

    /// Fraction that is mixed, in percent.
    pub fn mixed_share(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        100.0 * self.mixed as f64 / total as f64
    }
}

/// One classified resource at some granularity.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceEntry {
    /// Attribution key: domain, hostname, script URL, or `script :: method`.
    pub key: String,
    /// Request counts attributed to this resource.
    pub counts: Counts,
    /// Classification under the thresholds in force.
    pub classification: Classification,
}

impl ResourceEntry {
    /// The log-ratio of the resource (always defined — resources only exist
    /// because at least one request was attributed to them).
    pub fn log_ratio(&self) -> f64 {
        self.counts
            .log_ratio()
            .expect("resources have at least one request")
    }
}

/// The result of classifying one granularity level.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelResult {
    /// Which granularity this is.
    pub granularity: Granularity,
    /// Every resource observed at this level.
    pub resources: Vec<ResourceEntry>,
    /// Unique-resource counts per class (paper Table 2).
    pub resource_counts: ClassCounts,
    /// Request counts per class (paper Table 1). Every request that
    /// entered the level counts toward exactly one resource, so
    /// `request_counts.total()` is the level's input.
    pub request_counts: ClassCounts,
}

impl LevelResult {
    /// Build a level result from its resources: sorts them into the
    /// canonical output order (descending request volume, then key) and
    /// tallies the per-class resource/request counts; the request tally's
    /// total is the level's input.
    ///
    /// This is the *single* constructor both [`classify_rows`] and the
    /// incremental [`Sifter`](crate::Sifter) export go through, so
    /// the two can never drift apart on ordering or accounting — the
    /// foundation of the apply/commit ≡ from-scratch equivalence the
    /// service tests assert.
    pub(crate) fn from_entries(
        granularity: Granularity,
        mut resources: Vec<ResourceEntry>,
    ) -> Self {
        // Deterministic output order: by descending volume, then key.
        resources.sort_by(|a, b| {
            b.counts
                .total()
                .cmp(&a.counts.total())
                .then_with(|| a.key.cmp(&b.key))
        });
        let mut resource_counts = ClassCounts::default();
        let mut request_counts = ClassCounts::default();
        for resource in &resources {
            resource_counts.add(resource.classification, 1);
            request_counts.add(resource.classification, resource.counts.total());
        }
        LevelResult {
            granularity,
            resources,
            resource_counts,
            request_counts,
        }
    }

    /// Separation factor over this level's input requests, in percent
    /// (paper Table 1 "Separation Factor").
    pub fn request_separation_factor(&self) -> f64 {
        self.request_counts.separation_factor()
    }

    /// Separation factor over unique resources (paper Table 2).
    pub fn resource_separation_factor(&self) -> f64 {
        self.resource_counts.separation_factor()
    }

    /// Resources of a given class, sorted by total request volume
    /// descending (useful for "notable domains" style reporting).
    pub fn top_resources(&self, class: Classification, n: usize) -> Vec<&ResourceEntry> {
        let mut out: Vec<&ResourceEntry> = self
            .resources
            .iter()
            .filter(|r| r.classification == class)
            .collect();
        out.sort_by_key(|r| std::cmp::Reverse(r.counts.total()));
        out.truncate(n);
        out
    }
}

/// The complete hierarchy result.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyResult {
    /// Thresholds used.
    pub thresholds: Thresholds,
    /// Per-level results, coarsest first (Domain, Hostname, Script, Method).
    pub levels: Vec<LevelResult>,
}

impl HierarchyResult {
    /// The level result for a granularity.
    pub fn level(&self, granularity: Granularity) -> &LevelResult {
        self.levels
            .iter()
            .find(|l| l.granularity == granularity)
            .expect("all four levels are always present")
    }

    /// Total script-initiated requests that entered the analysis: the
    /// domain level's input.
    pub fn total_requests(&self) -> u64 {
        self.level(Granularity::Domain).request_counts.total()
    }

    /// Requests that remain attributed to mixed methods after the finest
    /// level (the <2% residue of the paper).
    pub fn unattributed_requests(&self) -> u64 {
        self.level(Granularity::Method).request_counts.mixed
    }

    /// Cumulative separation factor after each level, in percent of the
    /// total script-initiated requests (paper Table 1, last column).
    pub fn cumulative_separation(&self) -> Vec<(Granularity, f64)> {
        let total = self.total_requests();
        let mut separated = 0u64;
        let mut out = Vec::new();
        for level in &self.levels {
            separated += level.request_counts.tracking + level.request_counts.functional;
            let pct = if total == 0 {
                0.0
            } else {
                100.0 * separated as f64 / total as f64
            };
            out.push((level.granularity, pct));
        }
        out
    }

    /// The overall fraction of requests attributed to either tracking or
    /// functional resources by the end of the hierarchy (the paper's
    /// headline "98%").
    pub fn overall_attribution(&self) -> f64 {
        let total = self.total_requests();
        if total == 0 {
            return 0.0;
        }
        100.0 * (total - self.unattributed_requests()) as f64 / total as f64
    }
}

/// A labeled row as [`classify_rows`] reads it: its four attribution keys,
/// coarsest first, and its label. The walk is generic over it, so each
/// caller's row type gets its own copy of the walk, with no indirection per
/// row, and a level reads only the key it groups by.
pub trait HierarchyRow {
    /// Registrable domain (eTLD+1).
    fn domain(&self) -> &str;
    /// Hostname.
    fn hostname(&self) -> &str;
    /// URL of the initiating script.
    fn script(&self) -> &str;
    /// Name of the initiating method.
    fn method(&self) -> &str;
    /// `true` when the row is labeled tracking.
    fn is_tracking(&self) -> bool;
}

/// The attribution key of `row` at `granularity`, as an interned symbol:
/// the single definition of what groups a row. Method keys go through
/// [`KeyInterner::intern_method`], so no string is built per row.
fn row_key<R: HierarchyRow>(
    granularity: Granularity,
    row: &R,
    interner: &mut KeyInterner,
) -> ResourceKey {
    match granularity {
        Granularity::Domain => interner.intern(row.domain()),
        Granularity::Hostname => interner.intern(row.hostname()),
        Granularity::Script => interner.intern(row.script()),
        Granularity::Method => interner.intern_method(row.script(), row.method()),
    }
}

/// Classify `rows` from scratch, level by level down `levels`: the first
/// level sees every row, each later one only the rows of the previous
/// level's mixed resources. Walked down [`Granularity::ALL`] this is the
/// paper's hierarchy, the levels of a [`HierarchyResult`]; walked over one
/// granularity it is the flat baseline of the flat-vs-hierarchical
/// ablation.
///
/// One [`KeyInterner`] is threaded through all levels, so every
/// attribution key, the composed `script :: method` keys included, is
/// allocated at most once for the whole walk. The last level's mixed rows
/// are the residue, which nothing reads row by row: they are never
/// collected.
pub fn classify_rows<R: HierarchyRow>(
    thresholds: Thresholds,
    rows: &[R],
    levels: &[Granularity],
) -> Vec<LevelResult> {
    let mut interner = KeyInterner::with_capacity(1024);
    let mut input: Vec<&R> = rows.iter().collect();
    let mut results = Vec::with_capacity(levels.len());
    for (depth, &granularity) in levels.iter().enumerate() {
        let (level, next) = classify_level(thresholds, granularity, &input, &mut interner);
        results.push(level);
        if depth + 1 < levels.len() {
            input = next.collect();
        }
    }
    results
}

/// Classify one level: group `input` by its interned granularity key, count
/// labels, classify each resource, and return the level result plus the
/// rows that belong to mixed resources (the next level's input), as an
/// iterator the caller collects only if a level follows.
///
/// Each row's key is interned once, into `keys`; an interned key is its own
/// index, so the counts accumulate in a dense vector and the next level's
/// input is filtered through a dense mixed bit — no second interning pass
/// and no map beyond the interner's own. Resources come out in first-seen
/// order, which [`LevelResult::from_entries`] sorts away.
fn classify_level<'a, 'b, R: HierarchyRow>(
    thresholds: Thresholds,
    granularity: Granularity,
    input: &'b [&'a R],
    interner: &mut KeyInterner,
) -> (LevelResult, impl Iterator<Item = &'a R> + 'b) {
    let keys: Vec<ResourceKey> = input
        .iter()
        .map(|row| row_key(granularity, *row, interner))
        .collect();

    let mut counts = vec![Counts::default(); interner.len()];
    let mut first_seen: Vec<ResourceKey> = Vec::new();
    for (key, row) in keys.iter().zip(input) {
        let cell = &mut counts[key.index()];
        if cell.is_empty() {
            first_seen.push(*key);
        }
        cell.record(row.is_tracking());
    }

    let mut mixed = vec![false; interner.len()];
    let resources: Vec<ResourceEntry> = first_seen
        .into_iter()
        .map(|key| {
            let counts = counts[key.index()];
            let classification = thresholds
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

    let next = keys
        .into_iter()
        .zip(input)
        .filter(move |(key, _)| mixed[key.index()])
        .map(|(_, row)| *row);

    (LevelResult::from_entries(granularity, resources), next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{figure1_requests, labeled_request, LabeledRow};
    use crate::{ObservationRef, Sifter};
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    /// The hierarchy `rows` classify into at `thresholds`.
    fn walk(thresholds: Thresholds, rows: &[LabeledRow]) -> HierarchyResult {
        HierarchyResult {
            thresholds,
            levels: classify_rows(thresholds, rows, &Granularity::ALL),
        }
    }

    #[test]
    fn granularity_index_matches_position_in_all() {
        for (i, g) in Granularity::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
    }

    /// The two-pass level routine [`classify_level`] replaced, kept as its
    /// oracle: group through a `HashMap`, collect the mixed keys in a
    /// `HashSet`, then intern every row's key a second time to filter the
    /// next level's input.
    fn classify_level_two_pass<'a>(
        thresholds: Thresholds,
        granularity: Granularity,
        input: &[&'a LabeledRow],
        interner: &mut KeyInterner,
    ) -> (LevelResult, Vec<&'a LabeledRow>) {
        let mut groups: HashMap<ResourceKey, Counts> = HashMap::new();
        for row in input {
            groups
                .entry(row_key(granularity, *row, interner))
                .or_default()
                .record(row.tracking);
        }
        let mut mixed_keys: HashSet<ResourceKey> = HashSet::new();
        let resources: Vec<ResourceEntry> = groups
            .into_iter()
            .map(|(id, counts)| {
                let classification = thresholds
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
            .filter(|row| mixed_keys.contains(&row_key(granularity, *row, interner)))
            .collect();
        (LevelResult::from_entries(granularity, resources), next)
    }

    /// Rows over small key pools. Host 0 of a domain *is* the domain
    /// string, so a key can be interned at one level and met again at the
    /// next; scripts and methods are always first seen below the level that
    /// interned the hostnames. `mode` skews the labels so that whole levels
    /// come out pure (the levels below are empty) or all mixed.
    fn arb_requests() -> impl Strategy<Value = Vec<LabeledRow>> {
        let request = (0usize..4, 0usize..3, 0usize..4, 0usize..3, 0u64..2);
        (prop::collection::vec(request, 0..120), 0usize..4).prop_map(|(keys, mode)| {
            keys.into_iter()
                .map(|(domain, host, script, method, coin)| {
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
                    labeled_request(
                        &domain_key,
                        &hostname,
                        &format!("https://pub.com/s{script}.js"),
                        &format!("m{method}"),
                        tracking,
                    )
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
            let thresholds = Thresholds::new(threshold);
            // A row is told apart by its address, so equal rows stay two.
            let ids = |requests: &[&LabeledRow]| -> Vec<*const LabeledRow> {
                requests.iter().map(|&r| std::ptr::from_ref(r)).collect()
            };
            // Level by level down the hierarchy, each side with its own
            // interner: the keys' numbering may differ, the results may not.
            let (mut dense_keys, mut oracle_keys) = (KeyInterner::new(), KeyInterner::new());
            let mut input: Vec<&LabeledRow> = requests.iter().collect();
            let mut levels = Vec::new();
            for granularity in Granularity::ALL {
                let (level, next) = classify_level(thresholds, granularity, &input, &mut dense_keys);
                let next: Vec<&LabeledRow> = next.collect();
                let (expected, expected_next) =
                    classify_level_two_pass(thresholds, granularity, &input, &mut oracle_keys);
                prop_assert_eq!(&level, &expected);
                prop_assert_eq!(ids(&next), ids(&expected_next));
                input = next;
                levels.push(expected);
            }
            let expected = HierarchyResult { thresholds, levels };
            prop_assert_eq!(&walk(thresholds, &requests), &expected);
            // The flat ablation enters each level with a fresh interner.
            let all: Vec<&LabeledRow> = requests.iter().collect();
            for granularity in Granularity::ALL {
                let expected =
                    classify_level_two_pass(thresholds, granularity, &all, &mut KeyInterner::new());
                prop_assert_eq!(classify_rows(thresholds, &requests, &[granularity]), vec![expected.0]);
            }
            // A sifter trained on the same rows commits the walk's hierarchy.
            let mut sifter = Sifter::builder().thresholds(thresholds).build();
            sifter.apply_batch(requests.iter().map(ObservationRef::from));
            sifter.commit();
            prop_assert_eq!(sifter.hierarchy(), expected);
        }
    }

    #[test]
    fn figure1_domains_classify_as_expected() {
        let result = walk(Thresholds::paper(), &figure1_requests());
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
        let result = walk(Thresholds::paper(), &figure1_requests());
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
        let result = walk(Thresholds::paper(), &figure1_requests());
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
        assert_eq!(result.unattributed_requests(), 2);
    }

    #[test]
    fn request_flow_is_conserved_between_levels() {
        let requests = figure1_requests();
        let result = walk(Thresholds::paper(), &requests);
        assert_eq!(result.total_requests(), requests.len() as u64);
        // Each level's input equals the previous level's mixed request count.
        for window in result.levels.windows(2) {
            assert_eq!(
                window[1].request_counts.total(),
                window[0].request_counts.mixed
            );
        }
        // Unattributed = mixed at the finest level.
        assert_eq!(
            result.unattributed_requests(),
            result.level(Granularity::Method).request_counts.mixed
        );
    }

    #[test]
    fn cumulative_separation_is_monotone_and_matches_overall() {
        let result = walk(Thresholds::paper(), &figure1_requests());
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
        let result = walk(Thresholds::paper(), &[]);
        assert_eq!(result.total_requests(), 0);
        assert_eq!(result.unattributed_requests(), 0);
        for level in &result.levels {
            assert!(level.resources.is_empty());
            assert_eq!(level.request_counts.total(), 0);
        }
        assert_eq!(result.overall_attribution(), 0.0);
    }

    #[test]
    fn top_resources_ranks_by_volume() {
        let result = walk(Thresholds::paper(), &figure1_requests());
        let domains = result.level(Granularity::Domain);
        let top = domains.top_resources(Classification::Mixed, 5);
        assert_eq!(top[0].key, "google.com");
    }

    #[test]
    fn looser_threshold_increases_mixed_resources() {
        let requests = figure1_requests();
        let strict = walk(Thresholds::new(0.5), &requests);
        let paper = walk(Thresholds::paper(), &requests);
        let strict_mixed = strict.level(Granularity::Domain).resource_counts.mixed;
        let paper_mixed = paper.level(Granularity::Domain).resource_counts.mixed;
        assert!(strict_mixed <= paper_mixed);
    }
}
