//! A fully parsed network filter rule.

use crate::options::RuleOptions;
use crate::pattern::Pattern;
use crate::request::RequestView;
use std::fmt;

/// Which list a rule came from. The paper uses EasyList (advertising) and
/// EasyPrivacy (tracking); both map to the "tracking" label, but keeping the
/// provenance lets reports distinguish ad-blocking hits from pure tracking
/// hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ListKind {
    /// EasyList — advertising.
    EasyList,
    /// EasyPrivacy — tracking.
    EasyPrivacy,
    /// Any other list supplied by the user.
    Custom,
}

impl fmt::Display for ListKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ListKind::EasyList => f.write_str("EasyList"),
            ListKind::EasyPrivacy => f.write_str("EasyPrivacy"),
            ListKind::Custom => f.write_str("Custom"),
        }
    }
}

/// A parsed network filter rule (blocking or exception).
#[derive(Debug, Clone)]
pub struct FilterRule {
    /// The original rule text, as it appeared in the list.
    pub text: String,
    /// Compiled URL pattern.
    pub pattern: Pattern,
    /// Parsed `$` options.
    pub options: RuleOptions,
    /// `true` for `@@` exception (allow) rules.
    pub(crate) exception: bool,
    /// Which list the rule came from.
    pub(crate) list: ListKind,
}

impl FilterRule {
    /// Evaluate the rule against a request: both the URL pattern and every
    /// option constraint must hold.
    pub(crate) fn matches(&self, request: &RequestView<'_>) -> bool {
        self.options.matches(request) && self.pattern.matches(&request.url)
    }

    /// Token hashes used to place the rule into the
    /// [`crate::index::RuleIndex`].
    pub(crate) fn index_token_hashes(&self) -> Vec<u64> {
        self.pattern.index_token_hashes()
    }
}

impl fmt::Display for FilterRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rule;
    use crate::request::{FilterRequest, ResourceType};

    fn rule(text: &str) -> FilterRule {
        parse_rule(text, ListKind::EasyList).expect("rule should parse")
    }

    fn req(url: &str, source: &str, ty: ResourceType) -> FilterRequest {
        FilterRequest::new(url, source, ty).unwrap()
    }

    #[test]
    fn pattern_and_options_both_required() {
        let r = rule("||tracker.example^$script");
        assert!(r.matches(
            &req(
                "https://tracker.example/t.js",
                "a.com",
                ResourceType::Script
            )
            .view()
        ));
        assert!(!r.matches(
            &req(
                "https://tracker.example/t.gif",
                "a.com",
                ResourceType::Image
            )
            .view()
        ));
        assert!(
            !r.matches(&req("https://other.example/t.js", "a.com", ResourceType::Script).view())
        );
    }

    #[test]
    fn exception_rules_flagged() {
        let r = rule("@@||cdn.example.com/jquery.js$script");
        assert!(r.exception);
        assert!(r.matches(
            &req(
                "https://cdn.example.com/jquery.js",
                "a.com",
                ResourceType::Script
            )
            .view()
        ));
    }

    #[test]
    fn display_round_trips_text() {
        let r = rule("||ads.net^$third-party");
        assert_eq!(r.to_string(), "||ads.net^$third-party");
    }
}
