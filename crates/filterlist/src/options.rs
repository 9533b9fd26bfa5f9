//! Parsing and evaluation of the `$option` suffix of network filter rules.
//!
//! A rule such as `||example.com^$script,third-party,domain=~news.com`
//! only applies when every option constraint holds for the request under
//! consideration. We support the option subset that EasyList and
//! EasyPrivacy actually rely on for network rules; cosmetic-only or
//! deprecated options cause the rule to be ignored (same behaviour as
//! mainstream blockers when they meet options they do not understand).

use crate::domain::hostname_within;
use crate::request::{RequestView, ResourceType};

/// Tri-state constraint on request party-ness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum PartyConstraint {
    /// Rule applies regardless of party.
    #[default]
    Any,
    /// Rule applies only to third-party requests (`$third-party`).
    ThirdOnly,
    /// Rule applies only to first-party requests (`$~third-party`).
    FirstOnly,
}

/// A single entry of the `$domain=` option: either an allowed initiator
/// domain or (when prefixed with `~`) an excluded one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainEntry {
    /// The domain text, lower-cased, without the `~` prefix.
    pub domain: String,
    /// `true` when the entry was negated with `~`.
    pub negated: bool,
}

/// Parsed rule options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RuleOptions {
    /// Resource types the rule is restricted to (`$script,image`). Empty
    /// means "any type".
    pub(crate) include_types: Vec<ResourceType>,
    /// Resource types the rule explicitly excludes (`$~script`).
    pub(crate) exclude_types: Vec<ResourceType>,
    /// First/third-party constraint.
    pub(crate) party: PartyConstraint,
    /// `$domain=` constraints on the *initiator* (page) hostname.
    pub domains: Vec<DomainEntry>,
    /// `$match-case`: pattern matching becomes case sensitive.
    pub(crate) match_case: bool,
    /// `$popup` and other options that only make sense for document-level
    /// blocking; rules carrying them are kept but never match network
    /// requests of other types.
    pub(crate) popup: bool,
    /// `$removeparam=` entries: query parameters a rewriter should strip
    /// from matching URLs instead of blocking the request. A trailing `*`
    /// marks a prefix rule (`utm_*`). Rules carrying this option are
    /// *modifiers*, not blockers — the engine files them separately (see
    /// [`crate::FilterEngine::removeparam_rules`]) and they never
    /// label a request as tracking.
    pub removeparam: Vec<String>,
    /// Number of unknown / unsupported options encountered while parsing.
    /// A rule with unsupported options is dropped by the parser, mirroring
    /// how blockers skip rules they cannot honour safely.
    pub(crate) unsupported: usize,
}

impl RuleOptions {
    /// Parse the comma-separated option list that follows `$` in a rule.
    pub(crate) fn parse(options: &str) -> Self {
        let mut out = RuleOptions::default();
        for raw in options.split(',') {
            let opt = raw.trim();
            if opt.is_empty() {
                continue;
            }
            let (negated, name) = match opt.strip_prefix('~') {
                Some(rest) => (true, rest),
                None => (false, opt),
            };
            let lower = name.to_ascii_lowercase();
            // Canonical type names decode through `ResourceType`; the rest
            // are the aliases filter lists also use.
            let resource_type = match lower.as_str() {
                "background" => Some(ResourceType::Image),
                "object" | "object-subrequest" => Some(ResourceType::Other),
                canonical => ResourceType::from_option_name(canonical),
            };
            if let Some(ty) = resource_type {
                if negated {
                    out.exclude_types.push(ty);
                } else {
                    out.include_types.push(ty);
                }
                continue;
            }
            match lower.as_str() {
                "third-party" | "3p" => {
                    out.party = if negated {
                        PartyConstraint::FirstOnly
                    } else {
                        PartyConstraint::ThirdOnly
                    };
                }
                "first-party" | "1p" => {
                    out.party = if negated {
                        PartyConstraint::ThirdOnly
                    } else {
                        PartyConstraint::FirstOnly
                    };
                }
                "match-case" => out.match_case = true,
                "popup" => out.popup = true,
                _ if lower.starts_with("domain=") => {
                    let list = &name[name.find('=').map(|i| i + 1).unwrap_or(0)..];
                    for entry in list.split('|') {
                        let entry = entry.trim();
                        if entry.is_empty() {
                            continue;
                        }
                        let (negated, domain) = match entry.strip_prefix('~') {
                            Some(rest) => (true, rest),
                            None => (false, entry),
                        };
                        out.domains.push(DomainEntry {
                            domain: domain.to_ascii_lowercase(),
                            negated,
                        });
                    }
                }
                _ if lower.starts_with("removeparam=") => {
                    let value = &name[name.find('=').map(|i| i + 1).unwrap_or(0)..];
                    let value = value.trim();
                    if value.is_empty() || negated {
                        // Bare `$removeparam` (strip the whole query) and
                        // negated entries use regex-era syntax we do not
                        // implement; dropping the rule is safer than
                        // stripping the wrong parameters.
                        out.unsupported += 1;
                    } else {
                        out.removeparam.push(value.to_ascii_lowercase());
                    }
                }
                // Unknown options, and `important`, `badfilter`,
                // `generichide` and `genericblock`: each changes which other
                // rules apply, which the engine does not model, so the rule
                // is dropped rather than read as a plain block or exception.
                _ => out.unsupported += 1,
            }
        }
        out
    }

    /// `true` when this rule can never be evaluated faithfully (it carried
    /// options the engine does not implement).
    pub(crate) fn has_unsupported(&self) -> bool {
        self.unsupported > 0
    }

    /// Evaluate every option constraint against a request.
    pub(crate) fn matches(&self, request: &RequestView<'_>) -> bool {
        // Resource type constraints.
        if !self.include_types.is_empty() && !self.include_types.contains(&request.resource_type) {
            return false;
        }
        if self.exclude_types.contains(&request.resource_type) {
            return false;
        }
        // Popup-only rules never match ordinary sub-resource requests.
        if self.popup && request.resource_type != ResourceType::Document {
            return false;
        }
        // Party constraint.
        match self.party {
            PartyConstraint::Any => {}
            PartyConstraint::ThirdOnly => {
                if !request.third_party {
                    return false;
                }
            }
            PartyConstraint::FirstOnly => {
                if request.third_party {
                    return false;
                }
            }
        }
        // $domain= constraint applies to the initiator page hostname.
        if !self.domains.is_empty() {
            let source = request.source_hostname;
            let mut any_positive = false;
            let mut positive_hit = false;
            for entry in &self.domains {
                let within = hostname_within(source, &entry.domain);
                if entry.negated {
                    if within {
                        return false;
                    }
                } else {
                    any_positive = true;
                    if within {
                        positive_hit = true;
                    }
                }
            }
            if any_positive && !positive_hit {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::FilterRequest;

    fn req(url: &str, source: &str, ty: ResourceType) -> FilterRequest {
        FilterRequest::new(url, source, ty).unwrap()
    }

    #[test]
    fn parses_type_options() {
        let o = RuleOptions::parse("script,image");
        assert_eq!(
            o.include_types,
            vec![ResourceType::Script, ResourceType::Image]
        );
        assert!(o.exclude_types.is_empty());
    }

    #[test]
    fn parses_negated_type() {
        let o = RuleOptions::parse("~script");
        assert_eq!(o.exclude_types, vec![ResourceType::Script]);
    }

    #[test]
    fn parses_party() {
        assert_eq!(
            RuleOptions::parse("third-party").party,
            PartyConstraint::ThirdOnly
        );
        assert_eq!(
            RuleOptions::parse("~third-party").party,
            PartyConstraint::FirstOnly
        );
        assert_eq!(
            RuleOptions::parse("first-party").party,
            PartyConstraint::FirstOnly
        );
    }

    #[test]
    fn parses_domain_list() {
        let o = RuleOptions::parse("domain=example.com|~shop.example.com|news.org");
        assert_eq!(o.domains.len(), 3);
        assert!(!o.domains[0].negated);
        assert!(o.domains[1].negated);
        assert_eq!(o.domains[2].domain, "news.org");
    }

    #[test]
    fn parses_removeparam_entries() {
        let o = RuleOptions::parse("removeparam=utm_source");
        assert_eq!(o.removeparam, vec!["utm_source".to_string()]);
        assert!(!o.has_unsupported());
        let multi = RuleOptions::parse("removeparam=gclid,removeparam=FBCLID,removeparam=utm_*");
        assert_eq!(multi.removeparam, vec!["gclid", "fbclid", "utm_*"]);
    }

    #[test]
    fn bare_or_negated_removeparam_is_unsupported() {
        assert!(RuleOptions::parse("removeparam").has_unsupported());
        assert!(RuleOptions::parse("removeparam=").has_unsupported());
        assert!(RuleOptions::parse("~removeparam=utm_source").has_unsupported());
    }

    #[test]
    fn unknown_option_counted() {
        let o = RuleOptions::parse("script,redirect=noopjs");
        assert!(o.has_unsupported());
    }

    #[test]
    fn type_constraint_enforced() {
        let o = RuleOptions::parse("script");
        assert!(o.matches(&req("https://t.co/x.js", "a.com", ResourceType::Script).view()));
        assert!(!o.matches(&req("https://t.co/x.gif", "a.com", ResourceType::Image).view()));
    }

    #[test]
    fn party_constraint_enforced() {
        let o = RuleOptions::parse("third-party");
        assert!(o.matches(&req("https://tracker.net/p", "site.com", ResourceType::Image).view()));
        assert!(!o.matches(
            &req(
                "https://cdn.site.com/p",
                "www.site.com",
                ResourceType::Image
            )
            .view()
        ));
    }

    #[test]
    fn domain_constraint_enforced() {
        let o = RuleOptions::parse("domain=news.com|~sports.news.com");
        assert!(o.matches(&req("https://x.net/a.js", "www.news.com", ResourceType::Script).view()));
        assert!(!o.matches(
            &req(
                "https://x.net/a.js",
                "live.sports.news.com",
                ResourceType::Script
            )
            .view()
        ));
        assert!(!o.matches(&req("https://x.net/a.js", "other.org", ResourceType::Script).view()));
    }

    #[test]
    fn negated_only_domain_list_allows_everything_else() {
        let o = RuleOptions::parse("domain=~blog.example.com");
        assert!(o.matches(&req("https://x.net/a.js", "other.org", ResourceType::Script).view()));
        assert!(!o.matches(
            &req(
                "https://x.net/a.js",
                "blog.example.com",
                ResourceType::Script
            )
            .view()
        ));
    }

    #[test]
    fn popup_rules_do_not_match_subresources() {
        let o = RuleOptions::parse("popup");
        assert!(!o.matches(&req("https://x.net/a.js", "a.com", ResourceType::Script).view()));
        assert!(o.matches(&req("https://x.net/", "a.com", ResourceType::Document).view()));
    }
}
