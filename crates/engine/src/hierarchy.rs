//! The result of the hierarchical classification (paper §2): the four
//! granularities, domain → hostname → script → method, and per level every
//! resource's counts and class, with the tallies behind Tables 1–2 and the
//! ratios behind Figure 3.
//!
//! Two producers build these results and must never differ: the study's
//! batch classifier, from labeled requests, and
//! [`Sifter::hierarchy`](crate::Sifter::hierarchy), from its committed
//! state. Both go through
//! [`LevelResult::from_entries`] for ordering and accounting.

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
    /// Request counts per class (paper Table 1).
    pub request_counts: ClassCounts,
    /// Number of requests that entered this level.
    pub input_requests: u64,
}

impl LevelResult {
    /// Build a level result from its resources: sorts them into the
    /// canonical output order (descending request volume, then key) and
    /// tallies the per-class resource/request counts.
    ///
    /// This is the *single* constructor both the batch classifier and the
    /// incremental [`Sifter`](crate::Sifter) export go through, so
    /// the two can never drift apart on ordering or accounting — the
    /// foundation of the apply/commit ≡ from-scratch equivalence the
    /// service tests assert.
    pub fn from_entries(
        granularity: Granularity,
        mut resources: Vec<ResourceEntry>,
        input_requests: u64,
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
            input_requests,
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
    /// Total script-initiated requests that entered the analysis.
    pub total_requests: u64,
    /// Requests that remain attributed to mixed methods after the finest
    /// level (the <2% residue of the paper).
    pub unattributed_requests: u64,
}

impl HierarchyResult {
    /// The level result for a granularity.
    pub fn level(&self, granularity: Granularity) -> &LevelResult {
        self.levels
            .iter()
            .find(|l| l.granularity == granularity)
            .expect("all four levels are always present")
    }

    /// Cumulative separation factor after each level, in percent of the
    /// total script-initiated requests (paper Table 1, last column).
    pub fn cumulative_separation(&self) -> Vec<(Granularity, f64)> {
        let mut separated = 0u64;
        let mut out = Vec::new();
        for level in &self.levels {
            separated += level.request_counts.tracking + level.request_counts.functional;
            let pct = if self.total_requests == 0 {
                0.0
            } else {
                100.0 * separated as f64 / self.total_requests as f64
            };
            out.push((level.granularity, pct));
        }
        out
    }

    /// The overall fraction of requests attributed to either tracking or
    /// functional resources by the end of the hierarchy (the paper's
    /// headline "98%").
    pub fn overall_attribution(&self) -> f64 {
        if self.total_requests == 0 {
            return 0.0;
        }
        100.0 * (self.total_requests - self.unattributed_requests) as f64
            / self.total_requests as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granularity_index_matches_position_in_all() {
        for (i, g) in Granularity::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
    }
}
