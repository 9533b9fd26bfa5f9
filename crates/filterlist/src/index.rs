//! Token-hash-indexed rule storage.
//!
//! Checking every request URL against tens of thousands of rules linearly is
//! far too slow for a 100K-site crawl (the paper's pipeline labels ~2.4M
//! requests). Production blockers therefore index rules by a token that any
//! matching URL must contain. We reproduce that design with hashed tokens so
//! the query path allocates nothing:
//!
//! * every rule contributes the FNV-1a hashes of its *bounded* alphanumeric
//!   runs of length ≥ 3 ([`crate::Pattern::index_token_hashes`] —
//!   the same [`crate::tokens`] tokenizer the query side uses, so the two
//!   can never drift);
//! * the rule is filed under its *rarest* token hash (fewest other rules),
//!   which keeps bucket sizes small;
//! * a rule with no run bounded on both sides is filed under the *run
//!   prefix* (first three bytes) of a run bounded on the left
//!   ([`crate::Pattern::index_run_prefixes`]), in a second bucket
//!   map: `/banner300x250` matches `/banner300x250x.gif`, whose run is
//!   longer but starts at the same byte. Only a rule with no left-bounded
//!   run at all (`ads/`, `/t?`) is checked on every request; the paper's
//!   lists have none;
//! * at query time the URL's token hashes ([`RequestView::token_hashes`])
//!   and run prefixes ([`RequestView::run_prefixes`]), in text order,
//!   repeats kept, select the candidate buckets — no `String` is built, no
//!   candidate list is materialised, and nothing is sorted: a repeated
//!   token revisits a bucket, and the running minimum across both maps and
//!   the always-checked list still returns the lowest matching rule.
//!   [`RuleIndex::any_match`], which a label needs, stops at the first.
//!
//! Because a rule's index token is by construction a maximal alphanumeric
//! run of every URL the rule can match, and its run prefix the prefix of
//! one, the index never causes false negatives — a property the test-suite
//! checks by comparing against a linear scan
//! (`index_agrees_with_linear_scan`) and with property tests. Hash
//! collisions only merge buckets: extra candidates are rejected by the full
//! pattern match, so they cannot cause false positives either (see
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

/// One kind of index key (token hash or run prefix): its buckets, the
/// presence filter in front of them, and how many rules carry each key.
#[derive(Debug, Clone, Default)]
struct Buckets {
    /// key → indices into the index's `rules`. Each rule appears in at most
    /// one bucket of one map (its rarest key at filing time).
    map: TokenHashMap<Vec<u32>>,
    /// One-bit-per-bucket-key pre-filter consulted before `map`.
    presence: PresenceFilter,
    /// key → number of rules carrying that key, maintained across
    /// [`RuleIndex::extend`] so later insertions still file under their
    /// rarest key without a full rebuild.
    freq: TokenHashMap<u32>,
}

impl Buckets {
    /// Count one rule's keys.
    fn count(&mut self, keys: &[u64]) {
        for &key in keys {
            *self.freq.entry(key).or_insert(0) += 1;
        }
    }

    /// File rule `idx` under the rarest of `keys` (first wins on ties, so
    /// filing is deterministic for a given insertion order); `false` when
    /// there is no key.
    fn file(&mut self, keys: &[u64], idx: u32) -> bool {
        let rarest = keys
            .iter()
            .min_by_key(|key| self.freq.get(key).copied().unwrap_or(u32::MAX));
        match rarest {
            Some(&key) => {
                self.presence.insert(key);
                self.map.entry(key).or_default().push(idx);
                true
            }
            None => false,
        }
    }

    /// The bucket of `key`, if a rule is filed under it: the presence bit
    /// first, the map only when it is set.
    #[inline]
    fn get(&self, key: u64) -> Option<&[u32]> {
        if !self.presence.may_contain(key) {
            return None;
        }
        self.map.get(&key).map(Vec::as_slice)
    }
}

/// A token-hash-indexed collection of filter rules.
#[derive(Debug, Clone, Default)]
pub(crate) struct RuleIndex {
    /// All rules, in insertion order.
    rules: Vec<FilterRule>,
    /// Rules filed under a run bounded on both sides, by token hash.
    tokens: Buckets,
    /// Rules with no such run, filed under a left-bounded run's prefix.
    prefixes: Buckets,
    /// Rules with no left-bounded run, checked on every request.
    unindexed: Vec<u32>,
}

impl RuleIndex {
    /// Build an index over a set of rules.
    pub(crate) fn build(rules: Vec<FilterRule>) -> Self {
        let mut index = RuleIndex::default();
        index.extend(rules);
        index
    }

    /// Append rules to the index incrementally: key frequencies are
    /// updated and only the new rules are filed — existing rules, buckets
    /// and the unindexed list are untouched.
    pub(crate) fn extend(&mut self, extra: Vec<FilterRule>) {
        let start = self.rules.len();
        // A rule's token hashes, or — when it has none — its run prefixes.
        let per_rule: Vec<(Vec<u64>, Vec<u64>)> = extra
            .iter()
            .map(|rule| {
                let hashes = rule.index_token_hashes();
                let prefixes = if hashes.is_empty() {
                    rule.pattern.index_run_prefixes()
                } else {
                    Vec::new()
                };
                (hashes, prefixes)
            })
            .collect();
        for (hashes, prefixes) in &per_rule {
            self.tokens.count(hashes);
            self.prefixes.count(prefixes);
        }
        self.rules.extend(extra);
        for (offset, (hashes, prefixes)) in per_rule.into_iter().enumerate() {
            let idx = u32::try_from(start + offset).expect("more than u32::MAX rules");
            if !self.tokens.file(&hashes, idx) && !self.prefixes.file(&prefixes, idx) {
                self.unindexed.push(idx);
            }
        }
    }

    /// Number of rules stored.
    pub(crate) fn len(&self) -> usize {
        self.rules.len()
    }

    /// Number of rules reached through neither key kind, which every
    /// request checks.
    #[cfg(test)]
    pub(crate) fn unindexed_len(&self) -> usize {
        self.unindexed.len()
    }

    /// Hand `visit` the candidate buckets of a request — the token buckets
    /// its token hashes select, then the prefix buckets its run prefixes
    /// select, then the always-checked list — until it returns `true`;
    /// returns whether it did. A key kind with no buckets is skipped without
    /// probing its keys.
    #[inline]
    fn visit_candidates(
        &self,
        request: &RequestView<'_>,
        mut visit: impl FnMut(&[u32]) -> bool,
    ) -> bool {
        for (buckets, keys) in [
            (&self.tokens, request.token_hashes),
            (&self.prefixes, request.run_prefixes),
        ] {
            if buckets.map.is_empty() {
                continue;
            }
            for &key in keys {
                if buckets.get(key).is_some_and(&mut visit) {
                    return true;
                }
            }
        }
        visit(&self.unindexed)
    }

    /// Find the first rule (lowest insertion index) matching the request,
    /// scanning only candidate buckets. Allocation-free: the request's
    /// pre-computed token hashes and run prefixes drive bucket selection
    /// directly, and the running minimum across every bucket of both key
    /// kinds replaces a sort-and-dedup candidate list while returning the
    /// same rule a linear scan would.
    pub(crate) fn first_match(&self, request: &RequestView<'_>) -> Option<&FilterRule> {
        let mut best: Option<u32> = None;
        self.visit_candidates(request, |bucket| {
            for &idx in bucket {
                if best.map_or(true, |best| idx < best) && self.rules[idx as usize].matches(request)
                {
                    best = Some(idx);
                }
            }
            false
        });
        best.map(|idx| &self.rules[idx as usize])
    }

    /// Whether any rule matches the request: the candidates of
    /// [`RuleIndex::first_match`], probed in the same order, stopping at the
    /// first rule that matches. A label needs no more.
    pub(crate) fn any_match(&self, request: &RequestView<'_>) -> bool {
        self.visit_candidates(request, |bucket| {
            bucket
                .iter()
                .any(|&idx| self.rules[idx as usize].matches(request))
        })
    }

    /// Linear scan over every rule — the reference implementation the index
    /// is validated against and the baseline for the ablation benchmark.
    pub(crate) fn first_match_linear(&self, request: &RequestView<'_>) -> Option<&FilterRule> {
        self.rules.iter().find(|r| r.matches(request))
    }

    /// Simulate a hash collision between two bucket keys: after this call,
    /// both keys map to the union of their buckets, exactly as if every
    /// token involved hashed to one shared value. Test-only.
    #[cfg(test)]
    fn force_collision(&mut self, a: u64, b: u64) {
        let buckets = &mut self.tokens.map;
        let mut merged = buckets.remove(&a).unwrap_or_default();
        merged.extend(buckets.remove(&b).unwrap_or_default());
        merged.sort_unstable();
        buckets.insert(a, merged.clone());
        buckets.insert(b, merged);
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
            .filter_map(|t| parse_rule(t, ListKind::EasyList))
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
        // URL. The boundary-aware tokenizer files the rule under the run
        // prefix `ads` instead, which `adserver` shares, so the indexed scan
        // still finds it (regression: the old string-token index missed
        // this).
        let idx = RuleIndex::build(rules(&["/ads"]));
        assert_eq!(idx.unindexed_len(), 0);
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
    fn left_bounded_rules_are_reached_through_their_run_prefix() {
        // `/banner300x250` has no run bounded on both sides; it is filed
        // under `ban`, the prefix of every URL run that can hold it.
        let idx = RuleIndex::build(rules(&["/banner300x250"]));
        assert_eq!(idx.unindexed_len(), 0);
        for (url, hit) in [
            ("https://img.shop.com/banner300x250.png", true),
            ("https://img.shop.com/Banner300x250x.png", true),
            ("https://img.shop.com/xbanner300x250.png", false),
            ("https://img.shop.com/banner/300x250.png", false),
        ] {
            let r = req(url);
            assert_eq!(idx.first_match(&r.view()).is_some(), hit, "{url}");
            assert_eq!(idx.any_match(&r.view()), hit, "{url}");
            assert_eq!(idx.first_match_linear(&r.view()).is_some(), hit, "{url}");
        }
    }

    #[test]
    fn the_lowest_index_wins_across_key_kinds() {
        // One rule of each kind (always checked, run prefix, token), all
        // matching one URL, rotated so that each kind in turn holds the
        // lowest index.
        for texts in [
            ["/t?", "/adserv", "/adserver/"],
            ["/adserv", "/adserver/", "/t?"],
            ["/adserver/", "/t?", "/adserv"],
        ] {
            let idx = RuleIndex::build(rules(&texts));
            let r = req("https://x.com/adserver/t?id=1");
            assert_eq!(idx.first_match(&r.view()).unwrap().text, texts[0]);
            assert!(idx.any_match(&r.view()));
            assert!(idx.rules.iter().all(|rule| rule.matches(&r.view())));
        }
    }

    #[test]
    fn unindexed_rules_are_still_checked() {
        // A rule whose pattern has no token of length >= 3.
        let idx = RuleIndex::build(rules(&["/t?$image", "ads/"]));
        assert_eq!(idx.unindexed_len(), 2);
        let r = FilterRequest::new("https://x.com/t?id=2", "pub.com", ResourceType::Image).unwrap();
        assert!(idx.first_match(&r.view()).is_some());
        assert!(idx.any_match(&r.view()));
        assert!(idx.any_match(&req("https://x.com/myads/a.js").view()));
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
    }

    #[test]
    fn empty_index() {
        let idx = RuleIndex::build(Vec::new());
        assert_eq!(idx.len(), 0);
        assert!(idx.first_match(&req("https://x.com/a.js").view()).is_none());
        assert!(!idx.any_match(&req("https://x.com/a.js").view()));
    }
}
