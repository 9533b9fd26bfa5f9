//! The filter engine: EasyList + EasyPrivacy semantics over a request.
//!
//! TrackerSift's oracle is simple: *a request that matches EasyList or
//! EasyPrivacy is tracking, everything else is functional* (§3, "Labeling").
//! The engine nevertheless implements the full blocking/exception semantics
//! so it behaves like a real content blocker: an `@@` exception rule
//! overrides a blocking match from any list.

use crate::index::RuleIndex;
use crate::parser::parse_list;
use crate::request::{FilterRequest, RequestScratch, RequestView, ResourceType};
use crate::rule::{FilterRule, ListKind};
use std::cell::RefCell;
use std::sync::Arc;

/// The label TrackerSift assigns to a single network request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestLabel {
    /// The request matched EasyList or EasyPrivacy (and no exception).
    Tracking,
    /// The request did not match (or an exception overrode the match).
    Functional,
}

impl RequestLabel {
    /// `true` for [`RequestLabel::Tracking`].
    pub fn is_tracking(&self) -> bool {
        matches!(self, RequestLabel::Tracking)
    }
}

/// The detailed outcome of evaluating a request against the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchOutcome {
    /// A blocking rule matched and no exception rule overrode it.
    Blocked {
        /// Text of the blocking rule.
        rule: String,
        /// List the blocking rule came from.
        list: ListKind,
    },
    /// A blocking rule matched but an exception (`@@`) rule allowed the
    /// request.
    Excepted {
        /// Text of the blocking rule that would have fired.
        rule: String,
        /// Text of the exception rule that overrode it.
        exception: String,
    },
    /// No blocking rule matched.
    NoMatch,
}

impl MatchOutcome {
    /// Collapse the outcome into the binary label the paper uses.
    pub fn label(&self) -> RequestLabel {
        match self {
            MatchOutcome::Blocked { .. } => RequestLabel::Tracking,
            _ => RequestLabel::Functional,
        }
    }
}

/// A compiled filter engine over one or more lists.
///
/// A clone shares the compiled indexes and rules: cloning an engine copies
/// three pointers, and [`FilterEngine::extend_with_rules`] copies a shared
/// index only when it changes it.
#[derive(Debug, Clone, Default)]
pub struct FilterEngine {
    blocking: Arc<RuleIndex>,
    exceptions: Arc<RuleIndex>,
    /// `$removeparam=` modifier rules. These never *block* (a global
    /// `*$removeparam=gclid` must not label the whole web as tracking), so
    /// they live outside the blocking index and are consumed by the URL
    /// rewriter as a rule source.
    removeparam: Arc<Vec<FilterRule>>,
}

// The engine is shared read-only across the worker threads of the parallel
// crawl and labeling stages; this compile-time assertion keeps it that way
// (adding interior mutability such as a match cache would break the build
// here rather than in a downstream crate).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FilterEngine>();
};

impl FilterEngine {
    /// Build an engine from already-parsed rules.
    fn from_rules(rules: Vec<FilterRule>) -> Self {
        let (removeparam, rest): (Vec<_>, Vec<_>) = rules
            .into_iter()
            .partition(|r| !r.options.removeparam.is_empty());
        let (exceptions, blocking): (Vec<_>, Vec<_>) = rest.into_iter().partition(|r| r.exception);
        FilterEngine {
            blocking: Arc::new(RuleIndex::build(blocking)),
            exceptions: Arc::new(RuleIndex::build(exceptions)),
            removeparam: Arc::new(removeparam),
        }
    }

    /// Build an engine from raw list texts, each tagged with its provenance.
    pub fn from_lists(lists: &[(ListKind, &str)]) -> Self {
        let mut rules = Vec::new();
        for (kind, text) in lists {
            rules.extend(parse_list(text, *kind).rules);
        }
        Self::from_rules(rules)
    }

    /// Build the engine the paper uses: the embedded EasyList + EasyPrivacy
    /// snapshots.
    pub fn easylist_easyprivacy() -> Self {
        Self::from_lists(&[
            (ListKind::EasyList, crate::lists::EASYLIST_CURATED),
            (ListKind::EasyPrivacy, crate::lists::EASYPRIVACY_CURATED),
        ])
    }

    /// Add more rules (e.g. the synthetic ecosystem's tracker domains) to an
    /// existing engine. The new rules are appended and filed incrementally —
    /// existing rules are not re-indexed. An index that gains rules and is
    /// shared with a clone is copied first, so the clone keeps its rules.
    pub fn extend_with_rules(&mut self, extra: Vec<FilterRule>) {
        let (removeparam, rest): (Vec<_>, Vec<_>) = extra
            .into_iter()
            .partition(|r| !r.options.removeparam.is_empty());
        let (exceptions, blocking): (Vec<_>, Vec<_>) = rest.into_iter().partition(|r| r.exception);
        if !blocking.is_empty() {
            Arc::make_mut(&mut self.blocking).extend(blocking);
        }
        if !exceptions.is_empty() {
            Arc::make_mut(&mut self.exceptions).extend(exceptions);
        }
        if !removeparam.is_empty() {
            Arc::make_mut(&mut self.removeparam).extend(removeparam);
        }
    }

    /// Total number of rules (blocking + exception).
    pub fn rule_count(&self) -> usize {
        self.blocking.len() + self.exceptions.len()
    }

    /// The `$removeparam=` modifier rules, in list order — the rule source a
    /// URL rewriter consumes (they take no part in [`FilterEngine::label`]).
    pub fn removeparam_rules(&self) -> &[FilterRule] {
        &self.removeparam
    }

    /// Evaluate a request, returning the full outcome.
    pub fn evaluate(&self, request: &FilterRequest) -> MatchOutcome {
        let request = &request.view();
        match self.blocking.first_match(request) {
            Some(block) => match self.exceptions.first_match(request) {
                Some(exc) => MatchOutcome::Excepted {
                    rule: block.text.clone(),
                    exception: exc.text.clone(),
                },
                None => MatchOutcome::Blocked {
                    rule: block.text.clone(),
                    list: block.list,
                },
            },
            None => MatchOutcome::NoMatch,
        }
    }

    /// Evaluate a request and return only the binary label.
    ///
    /// This is the hot path of the labeling stage. The label depends only
    /// on whether some blocking rule matches and no exception does, so
    /// unlike [`FilterEngine::evaluate`] it names no rule: each index is
    /// asked `RuleIndex::any_match`, which stops at the first rule that
    /// matches, and no rule text is cloned. The match scan is
    /// allocation-free, so labeling a built view performs zero allocations.
    pub fn label_view(&self, request: &RequestView<'_>) -> RequestLabel {
        if self.blocking.any_match(request) && !self.exceptions.any_match(request) {
            RequestLabel::Tracking
        } else {
            RequestLabel::Functional
        }
    }

    /// [`FilterEngine::label_view`] of an owned request.
    pub fn label(&self, request: &FilterRequest) -> RequestLabel {
        self.label_view(&request.view())
    }

    /// Label a raw URL issued from `source_hostname`; an unparseable URL is
    /// functional. The view is built in a per-thread [`RequestScratch`], so
    /// a thread that keeps calling this (a verdict worker answering the
    /// filter-list backstop) stops allocating once the scratch is warm.
    pub fn label_url(
        &self,
        url: &str,
        source_hostname: &str,
        resource_type: ResourceType,
    ) -> RequestLabel {
        thread_local! {
            static SCRATCH: RefCell<RequestScratch> = const { RefCell::new(RequestScratch::new()) };
        }
        SCRATCH.with_borrow_mut(
            |scratch| match scratch.view(url, source_hostname, resource_type) {
                Some(request) => self.label_view(&request),
                None => RequestLabel::Functional,
            },
        )
    }

    /// Reference implementation used by tests/benches: linear scan without
    /// the token index.
    pub fn evaluate_linear(&self, request: &FilterRequest) -> MatchOutcome {
        let request = &request.view();
        match self.blocking.first_match_linear(request) {
            Some(block) => match self.exceptions.first_match_linear(request) {
                Some(exc) => MatchOutcome::Excepted {
                    rule: block.text.clone(),
                    exception: exc.text.clone(),
                },
                None => MatchOutcome::Blocked {
                    rule: block.text.clone(),
                    list: block.list,
                },
            },
            None => MatchOutcome::NoMatch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(rules: &str) -> FilterEngine {
        FilterEngine::from_lists(&[(ListKind::EasyList, rules)])
    }

    fn req(url: &str, source: &str, ty: ResourceType) -> FilterRequest {
        FilterRequest::new(url, source, ty).unwrap()
    }

    #[test]
    fn blocking_rule_labels_tracking() {
        let e = engine("||tracker.io^$third-party\n");
        let r = req(
            "https://px.tracker.io/collect",
            "shop.com",
            ResourceType::Xhr,
        );
        assert_eq!(e.label(&r), RequestLabel::Tracking);
        assert!(matches!(e.evaluate(&r), MatchOutcome::Blocked { .. }));
    }

    #[test]
    fn exception_overrides_block() {
        let e = engine("||cdn.io^\n@@||cdn.io/lib/jquery.js$script\n");
        let blocked = req("https://cdn.io/px.gif", "shop.com", ResourceType::Image);
        let allowed = req(
            "https://cdn.io/lib/jquery.js",
            "shop.com",
            ResourceType::Script,
        );
        assert_eq!(e.label(&blocked), RequestLabel::Tracking);
        assert_eq!(e.label(&allowed), RequestLabel::Functional);
        assert!(matches!(
            e.evaluate(&allowed),
            MatchOutcome::Excepted { .. }
        ));
    }

    #[test]
    fn no_match_is_functional() {
        let e = engine("||tracker.io^\n");
        let r = req(
            "https://images.shop.com/logo.png",
            "shop.com",
            ResourceType::Image,
        );
        assert_eq!(e.label(&r), RequestLabel::Functional);
        assert_eq!(e.evaluate(&r), MatchOutcome::NoMatch);
    }

    #[test]
    fn embedded_lists_load_and_label_known_trackers() {
        let e = FilterEngine::easylist_easyprivacy();
        assert!(e.rule_count() > 100, "expected a substantive embedded list");
        let ga = req(
            "https://www.google-analytics.com/analytics.js",
            "news.example.com",
            ResourceType::Script,
        );
        let dc = req(
            "https://securepubads.g.doubleclick.net/gpt/pubads_impl.js",
            "news.example.com",
            ResourceType::Script,
        );
        let logo = req(
            "https://pbs.twimg.com/profile_images/1/logo.png",
            "news.example.com",
            ResourceType::Image,
        );
        assert_eq!(e.label(&ga), RequestLabel::Tracking);
        assert_eq!(e.label(&dc), RequestLabel::Tracking);
        assert_eq!(e.label(&logo), RequestLabel::Functional);
    }

    #[test]
    fn indexed_and_linear_evaluation_agree_on_embedded_lists() {
        let e = FilterEngine::easylist_easyprivacy();
        let urls = [
            (
                "https://www.googletagmanager.com/gtm.js?id=GTM-1",
                ResourceType::Script,
            ),
            (
                "https://connect.facebook.net/en_US/fbevents.js",
                ResourceType::Script,
            ),
            (
                "https://cdn.shopify.com/s/files/1/theme.js",
                ResourceType::Script,
            ),
            ("https://stats.wp.com/e-202124.js", ResourceType::Script),
            (
                "https://i0.wp.com/site/wp-content/uploads/photo.jpg",
                ResourceType::Image,
            ),
            (
                "https://secure.quantserve.com/quant.js",
                ResourceType::Script,
            ),
            (
                "https://example.com/wp-content/themes/x/style.css",
                ResourceType::Stylesheet,
            ),
        ];
        for (u, ty) in urls {
            let r = req(u, "publisher-site.com", ty);
            assert_eq!(
                e.evaluate(&r).label(),
                e.evaluate_linear(&r).label(),
                "disagreement for {u}"
            );
        }
    }

    #[test]
    fn extend_with_rules_adds_blocking_rules() {
        let mut e = engine("||tracker.io^\n");
        let before = e.rule_count();
        let extra =
            crate::parser::parse_list("||adnet-42.example^$third-party\n", ListKind::Custom);
        e.extend_with_rules(extra.rules);
        assert_eq!(e.rule_count(), before + 1);
        let r = req(
            "https://px.adnet-42.example/p.gif",
            "shop.com",
            ResourceType::Image,
        );
        assert_eq!(e.label(&r), RequestLabel::Tracking);
    }

    #[test]
    fn extended_engine_matches_a_from_scratch_build() {
        let base = "||tracker.io^\n/collect?\n@@||tracker.io/lib/ok.js$script\n";
        let extra_text = "||adnet.example^$third-party\n@@||adnet.example/allow/\n/pixel/\n";

        let mut extended = engine(base);
        let extra = crate::parser::parse_list(extra_text, ListKind::Custom);
        extended.extend_with_rules(extra.rules);

        let scratch =
            FilterEngine::from_lists(&[(ListKind::EasyList, base), (ListKind::Custom, extra_text)]);

        assert_eq!(extended.rule_count(), scratch.rule_count());
        assert_eq!(extended.blocking.len(), scratch.blocking.len());
        assert_eq!(extended.exceptions.len(), scratch.exceptions.len());
        let cases = [
            ("https://tracker.io/t.js", ResourceType::Script),
            ("https://tracker.io/lib/ok.js", ResourceType::Script),
            ("https://api.shop.com/collect?id=1", ResourceType::Xhr),
            ("https://px.adnet.example/p.gif", ResourceType::Image),
            ("https://px.adnet.example/allow/p.gif", ResourceType::Image),
            ("https://img.shop.com/pixel/1.gif", ResourceType::Image),
            ("https://img.shop.com/logo.png", ResourceType::Image),
        ];
        for (url, ty) in cases {
            let r = req(url, "shop.com", ty);
            assert_eq!(
                extended.label(&r),
                scratch.label(&r),
                "extended and from-scratch engines disagree for {url}"
            );
            assert_eq!(
                extended.label(&r),
                extended.evaluate_linear(&r).label(),
                "extended engine and linear scan disagree for {url}"
            );
        }
    }

    #[test]
    fn a_clone_shares_the_indexes_until_one_side_extends() {
        let base = engine("||tracker.io^\n@@||tracker.io/lib/ok.js\n");
        let mut extended = base.clone();
        assert!(Arc::ptr_eq(&base.blocking, &extended.blocking));
        let extra = crate::parser::parse_list("||adnet.example^\n", ListKind::Custom);
        extended.extend_with_rules(extra.rules);
        // Only the index that gained a rule was copied.
        assert!(!Arc::ptr_eq(&base.blocking, &extended.blocking));
        assert!(Arc::ptr_eq(&base.exceptions, &extended.exceptions));
        assert!(Arc::ptr_eq(&base.removeparam, &extended.removeparam));
        assert_eq!(extended.rule_count(), base.rule_count() + 1);
        let r = req(
            "https://px.adnet.example/p.gif",
            "shop.com",
            ResourceType::Image,
        );
        assert_eq!(base.label(&r), RequestLabel::Functional);
        assert_eq!(extended.label(&r), RequestLabel::Tracking);
    }

    #[test]
    fn removeparam_rules_are_modifiers_not_blockers() {
        let e = engine("*$removeparam=gclid\n||shop.example^$removeparam=utm_*\n||tracker.io^\n");
        assert_eq!(e.removeparam_rules().len(), 2);
        assert_eq!(e.blocking.len(), 1);
        // A global removeparam rule must not label arbitrary requests.
        let r = req(
            "https://images.shop.com/logo.png?gclid=abc",
            "shop.com",
            ResourceType::Image,
        );
        assert_eq!(e.label(&r), RequestLabel::Functional);
        assert_eq!(
            e.removeparam_rules()[0].options.removeparam,
            vec!["gclid".to_string()]
        );
    }

    #[test]
    fn extend_with_rules_files_removeparam_separately() {
        let mut e = engine("||tracker.io^\n");
        let extra = crate::parser::parse_list("*$removeparam=fbclid\n", ListKind::Custom);
        e.extend_with_rules(extra.rules);
        assert_eq!(e.removeparam_rules().len(), 1);
        assert_eq!(e.blocking.len(), 1);
    }

    #[test]
    fn label_agrees_with_evaluate() {
        let e = engine("||cdn.io^\n@@||cdn.io/lib/jquery.js$script\n");
        let cases = [
            ("https://cdn.io/px.gif", ResourceType::Image),
            ("https://cdn.io/lib/jquery.js", ResourceType::Script),
            ("https://other.org/x.js", ResourceType::Script),
        ];
        for (url, ty) in cases {
            let r = req(url, "shop.com", ty);
            assert_eq!(e.label(&r), e.evaluate(&r).label(), "{url}");
        }
    }

    #[test]
    fn a_host_anchor_with_a_multi_byte_first_character_labels_without_panicking() {
        let e = engine("||ü.example.com/ads/\n");
        for (url, expected) in [
            ("https://ü.example.com/other.js", RequestLabel::Functional),
            ("https://ü.example.com/ads/a.js", RequestLabel::Tracking),
            ("https://cdn.ü.example.com/ads/a.js", RequestLabel::Tracking),
        ] {
            assert_eq!(
                e.label_url(url, "shop.com", ResourceType::Script),
                expected,
                "{url}"
            );
            let r = req(url, "shop.com", ResourceType::Script);
            assert_eq!(e.evaluate_linear(&r).label(), expected, "{url}");
        }
    }

    #[test]
    fn the_paper_lists_have_no_always_checked_rule() {
        // Every rule of EasyList + EasyPrivacy is reached through a token
        // or a run-prefix bucket; none is checked on every request.
        let e = FilterEngine::easylist_easyprivacy();
        assert_eq!(e.blocking.unindexed_len(), 0);
        assert_eq!(e.exceptions.unindexed_len(), 0);
    }

    #[test]
    fn label_url_handles_unparseable_urls() {
        let e = engine("||tracker.io^\n");
        assert_eq!(
            e.label_url("garbage", "shop.com", ResourceType::Script),
            RequestLabel::Functional
        );
    }
}
