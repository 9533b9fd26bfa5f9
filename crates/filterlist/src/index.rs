//! Token-hash-indexed rule storage.
//!
//! Checking every request URL against tens of thousands of rules linearly is
//! far too slow for a 100K-site crawl (the paper's pipeline labels ~2.4M
//! requests). Production blockers therefore index rules by a token that any
//! matching URL must contain. We reproduce that design with hashed tokens so
//! the query path allocates nothing:
//!
//! * every rule contributes the FNV-1a hashes of its *bounded* alphanumeric
//!   runs of length ≥ 3 ([`crate::pattern::Pattern::index_token_hashes`] —
//!   the same [`crate::tokens`] tokenizer the query side uses, so the two
//!   can never drift);
//! * the rule is filed under its *rarest* token hash (fewest other rules),
//!   which keeps bucket sizes small;
//! * rules with no usable token fall back to an "always check" list;
//! * at query time the URL's token hashes ([`RequestView::token_hashes`],
//!   in text order, repeats kept) select the candidate buckets — no
//!   `String` is built, no candidate list is materialised, and nothing is
//!   sorted: a repeated token revisits a bucket, and the running minimum
//!   still returns the lowest matching rule.
//!
//! Because a rule's index token is by construction a maximal alphanumeric
//! run of every URL the rule can match, the index never causes false
//! negatives — a property the test-suite checks by comparing against a
//! linear scan (`index_agrees_with_linear_scan`) and with property tests.
//! Hash collisions only merge buckets: extra candidates are rejected by the
//! full pattern match, so they cannot cause false positives either (see
//! `forced_hash_collision_changes_nothing`).

use crate::request::RequestView;
use crate::rule::FilterRule;
use crate::tokens::TokenHashBuilder;
use std::collections::HashMap;

/// Bucket storage keyed by token hash, probed with the cheap
/// [`TokenHashBuilder`] instead of SipHash.
type TokenHashMap<V> = HashMap<u64, V, TokenHashBuilder>;

/// Size of the bucket-presence pre-filter in bits (512 bytes: one step
/// above the bucket count of a full EasyList+EasyPrivacy engine, cheap
/// enough to stay L1-resident).
const PRESENCE_BITS: usize = 4096;

/// A fixed-size one-bit-per-hash presence filter over the bucket keys:
/// most URL tokens hit no bucket at all, and testing one hot bit is much
/// cheaper than a full hash-map probe.
#[derive(Debug, Clone)]
struct PresenceFilter {
    words: Box<[u64]>,
}

impl Default for PresenceFilter {
    fn default() -> Self {
        PresenceFilter {
            words: vec![0u64; PRESENCE_BITS / 64].into_boxed_slice(),
        }
    }
}

impl PresenceFilter {
    #[inline]
    fn slot(hash: u64) -> (usize, u64) {
        // Same Fibonacci spread as the map hasher, using the top bits.
        let spread = hash.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let bit = (spread >> (64 - 12)) as usize; // PRESENCE_BITS = 2^12
        (bit / 64, 1u64 << (bit % 64))
    }

    #[inline]
    fn insert(&mut self, hash: u64) {
        let (word, mask) = Self::slot(hash);
        self.words[word] |= mask;
    }

    #[inline]
    fn may_contain(&self, hash: u64) -> bool {
        let (word, mask) = Self::slot(hash);
        self.words[word] & mask != 0
    }
}

/// A token-hash-indexed collection of filter rules.
#[derive(Debug, Clone, Default)]
pub struct RuleIndex {
    /// All rules, in insertion order.
    rules: Vec<FilterRule>,
    /// token hash → indices into `rules`. Each rule appears in at most one
    /// bucket (its rarest token at filing time).
    buckets: TokenHashMap<Vec<u32>>,
    /// Rules that could not be indexed and must always be checked.
    unindexed: Vec<u32>,
    /// token hash → number of rules carrying that token, maintained across
    /// [`RuleIndex::extend`] so later insertions still file under their
    /// rarest token without a full rebuild.
    freq: TokenHashMap<u32>,
    /// One-bit-per-bucket-key pre-filter consulted before `buckets`.
    presence: PresenceFilter,
}

impl RuleIndex {
    /// Build an index over a set of rules.
    pub fn build(rules: Vec<FilterRule>) -> Self {
        let mut index = RuleIndex::default();
        index.extend(rules);
        index
    }

    /// Append rules to the index incrementally: token frequencies are
    /// updated and only the new rules are filed — existing rules, buckets
    /// and the unindexed list are untouched.
    pub fn extend(&mut self, extra: Vec<FilterRule>) {
        let start = self.rules.len();
        let per_rule: Vec<Vec<u64>> = extra.iter().map(|r| r.index_token_hashes()).collect();
        for hashes in &per_rule {
            for &hash in hashes {
                *self.freq.entry(hash).or_insert(0) += 1;
            }
        }
        self.rules.extend(extra);
        for (offset, hashes) in per_rule.into_iter().enumerate() {
            let idx = u32::try_from(start + offset).expect("more than u32::MAX rules");
            // File under the rarest token (first wins on ties, so filing is
            // deterministic for a given insertion order).
            match hashes
                .iter()
                .min_by_key(|hash| self.freq.get(hash).copied().unwrap_or(u32::MAX))
            {
                Some(&best) => {
                    self.presence.insert(best);
                    self.buckets.entry(best).or_default().push(idx);
                }
                None => self.unindexed.push(idx),
            }
        }
    }

    /// Number of rules stored.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` when the index holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Number of rules that could not be indexed by token.
    pub fn unindexed_len(&self) -> usize {
        self.unindexed.len()
    }

    /// Find the first rule (lowest insertion index) matching the request,
    /// scanning only candidate buckets. Allocation-free: the request's
    /// pre-computed token hashes drive bucket selection directly, and the
    /// running minimum replaces the old sort-and-dedup candidate list while
    /// returning the same rule a linear scan would.
    pub fn first_match(&self, request: &RequestView<'_>) -> Option<&FilterRule> {
        let mut best = u32::MAX;
        let mut found = false;
        for &idx in &self.unindexed {
            if (!found || idx < best) && self.rules[idx as usize].matches(request) {
                best = idx;
                found = true;
            }
        }
        for &hash in request.token_hashes {
            if !self.presence.may_contain(hash) {
                continue;
            }
            if let Some(bucket) = self.buckets.get(&hash) {
                for &idx in bucket {
                    if (!found || idx < best) && self.rules[idx as usize].matches(request) {
                        best = idx;
                        found = true;
                    }
                }
            }
        }
        found.then(|| &self.rules[best as usize])
    }

    /// Collect every rule matching the request (used by diagnostics and the
    /// report module, not by the hot path).
    pub fn all_matches(&self, request: &RequestView<'_>) -> Vec<&FilterRule> {
        let mut candidates: Vec<u32> = self.unindexed.clone();
        for &hash in request.token_hashes {
            if !self.presence.may_contain(hash) {
                continue;
            }
            if let Some(bucket) = self.buckets.get(&hash) {
                candidates.extend_from_slice(bucket);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        candidates
            .into_iter()
            .map(|idx| &self.rules[idx as usize])
            .filter(|r| r.matches(request))
            .collect()
    }

    /// Linear scan over every rule — the reference implementation the index
    /// is validated against and the baseline for the ablation benchmark.
    pub fn first_match_linear(&self, request: &RequestView<'_>) -> Option<&FilterRule> {
        self.rules.iter().find(|r| r.matches(request))
    }

    /// Simulate a hash collision between two bucket keys: after this call,
    /// both keys map to the union of their buckets, exactly as if every
    /// token involved hashed to one shared value. Test-only.
    #[cfg(test)]
    fn force_collision(&mut self, a: u64, b: u64) {
        let mut merged = self.buckets.remove(&a).unwrap_or_default();
        merged.extend(self.buckets.remove(&b).unwrap_or_default());
        merged.sort_unstable();
        self.buckets.insert(a, merged.clone());
        self.buckets.insert(b, merged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rule;
    use crate::request::{FilterRequest, ResourceType};
    use crate::rule::ListKind;
    use crate::tokens::fnv1a64;

    fn rules(texts: &[&str]) -> Vec<FilterRule> {
        texts
            .iter()
            .enumerate()
            .filter_map(|(i, t)| parse_rule(t, ListKind::EasyList, i + 1))
            .collect()
    }

    fn req(url: &str) -> FilterRequest {
        FilterRequest::new(url, "publisher.com", ResourceType::Script).unwrap()
    }

    #[test]
    fn index_finds_matching_rule() {
        let idx = RuleIndex::build(rules(&[
            "||google-analytics.com^",
            "||doubleclick.net^",
            "/pixel?",
        ]));
        assert!(idx
            .first_match(&req("https://www.google-analytics.com/analytics.js").view())
            .is_some());
        assert!(idx
            .first_match(&req("https://static.doubleclick.net/instream/ad_status.js").view())
            .is_some());
        assert!(idx
            .first_match(&req("https://cdn.shop.com/app.js").view())
            .is_none());
    }

    #[test]
    fn index_agrees_with_linear_scan() {
        let idx = RuleIndex::build(rules(&[
            "||ads.example^",
            "||track.example^$third-party",
            "/collect?",
            "-analytics.",
            "banner300x250",
        ]));
        let urls = [
            "https://ads.example/a.js",
            "https://track.example/t.js",
            "https://api.shop.com/collect?id=1",
            "https://cdn.metrics-analytics.io/m.js",
            "https://img.shop.com/banner300x250.png",
            "https://img.shop.com/logo.png",
            // Pattern runs continuing inside a longer URL run: these used to
            // be false negatives of the string-token index.
            "https://img.shop.com/xbanner300x250y.png",
            "https://api.shop.com/precollect?id=1",
        ];
        for u in urls {
            let r = req(u);
            assert_eq!(
                idx.first_match(&r.view()).map(|x| x.text.clone()),
                idx.first_match_linear(&r.view()).map(|x| x.text.clone()),
                "index and linear scan disagree for {u}"
            );
        }
    }

    #[test]
    fn unbounded_pattern_tokens_cannot_cause_false_negatives() {
        // `/ads` matches `/adserver/…`, but `ads` is not a token of that
        // URL. The boundary-aware tokenizer files the rule as unindexed, so
        // the indexed scan still finds it (regression: the old string-token
        // index missed this).
        let idx = RuleIndex::build(rules(&["/ads"]));
        assert_eq!(idx.unindexed_len(), 1);
        let r = req("https://x.com/adserver/x.js");
        assert!(idx.first_match(&r.view()).is_some());
        assert_eq!(
            idx.first_match(&r.view()).map(|x| x.text.clone()),
            idx.first_match_linear(&r.view()).map(|x| x.text.clone()),
        );
    }

    #[test]
    fn first_match_returns_lowest_index_rule_like_linear_scan() {
        // Both rules match; the two are filed in different buckets, and the
        // URL visits the later bucket first in hash order. The running
        // minimum must still return the first-inserted rule.
        let idx = RuleIndex::build(rules(&["/zzztoken/", "/aaatoken/"]));
        let r = req("https://x.com/zzztoken/aaatoken/a.js");
        assert_eq!(idx.first_match(&r.view()).unwrap().text, "/zzztoken/");
        assert_eq!(
            idx.first_match_linear(&r.view()).unwrap().text,
            "/zzztoken/"
        );
    }

    #[test]
    fn unindexed_rules_are_still_checked() {
        // A rule whose pattern has no token of length >= 3.
        let idx = RuleIndex::build(rules(&["/t?$image"]));
        assert_eq!(idx.unindexed_len(), 1);
        let r = FilterRequest::new("https://x.com/t?id=2", "pub.com", ResourceType::Image).unwrap();
        assert!(idx.first_match(&r.view()).is_some());
    }

    #[test]
    fn all_matches_returns_every_hit() {
        let idx = RuleIndex::build(rules(&["||ads.net^", "/banner/", "||ads.net/banner/"]));
        let r = req("https://ads.net/banner/1.png");
        assert_eq!(idx.all_matches(&r.view()).len(), 3);
    }

    #[test]
    fn extend_matches_a_from_scratch_build() {
        let base = &["||ads.example^", "/collect?", "-analytics."];
        let extra = &[
            "||track.example^$third-party",
            "/pixel/",
            "||ads.example/special/",
        ];
        let mut extended = RuleIndex::build(rules(base));
        extended.extend(rules(extra));
        let all: Vec<&str> = base.iter().chain(extra.iter()).copied().collect();
        let scratch = RuleIndex::build(rules(&all));
        assert_eq!(extended.len(), scratch.len());
        let urls = [
            "https://ads.example/a.js",
            "https://ads.example/special/a.js",
            "https://track.example/t.js",
            "https://api.shop.com/collect?id=1",
            "https://cdn.metrics-analytics.io/m.js",
            "https://img.shop.com/pixel/1.gif",
            "https://img.shop.com/logo.png",
        ];
        for u in urls {
            let r = req(u);
            assert_eq!(
                extended.first_match(&r.view()).map(|x| x.text.clone()),
                scratch.first_match(&r.view()).map(|x| x.text.clone()),
                "extended and from-scratch index disagree for {u}"
            );
            assert_eq!(
                extended.first_match(&r.view()).map(|x| x.text.clone()),
                extended
                    .first_match_linear(&r.view())
                    .map(|x| x.text.clone()),
                "extended index and linear scan disagree for {u}"
            );
        }
    }

    #[test]
    fn forced_hash_collision_changes_nothing() {
        // Two rules with distinct tokens; merge their buckets as if
        // `aaatoken` and `zzztoken` hashed identically. Collisions must
        // neither hide a rule (false negative) nor let the wrong rule fire
        // (false positive).
        let mut idx = RuleIndex::build(rules(&["/aaatoken/", "/zzztoken/"]));
        idx.force_collision(fnv1a64(b"aaatoken"), fnv1a64(b"zzztoken"));

        let a = req("https://x.com/aaatoken/a.js");
        let z = req("https://x.com/zzztoken/z.js");
        let neither = req("https://x.com/other/o.js");
        assert_eq!(idx.first_match(&a.view()).unwrap().text, "/aaatoken/");
        assert_eq!(idx.first_match(&z.view()).unwrap().text, "/zzztoken/");
        assert!(idx.first_match(&neither.view()).is_none());
        // All-matches never double-reports a rule that now sits in two
        // buckets reachable from one URL.
        let both = req("https://x.com/aaatoken/zzztoken/b.js");
        assert_eq!(idx.all_matches(&both.view()).len(), 2);
    }

    #[test]
    fn empty_index() {
        let idx = RuleIndex::build(Vec::new());
        assert!(idx.is_empty());
        assert!(idx.first_match(&req("https://x.com/a.js").view()).is_none());
    }
}
