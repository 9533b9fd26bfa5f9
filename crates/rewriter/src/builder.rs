//! Rule assembly for [`UrlRewriter`].

use filterlist::{registrable_domain, FilterRule};
use std::collections::HashMap;

use crate::rewriter::RuleSet;
use crate::UrlRewriter;

/// Builder for a [`UrlRewriter`]: collect rules, then
/// [`build`](RewriterBuilder::build) the compiled, shareable form.
///
/// Rules come from three sources, freely combined:
///
/// * [`strip_param`](Self::strip_param) / [`strip_prefix`](Self::strip_prefix)
///   — global parameter names and name prefixes;
/// * [`unwrap_param`](Self::unwrap_param) — redirect-wrapper parameters whose
///   value is the real destination;
/// * [`filter_rules`](Self::filter_rules) — EasyList-style `$removeparam=`
///   rules, global or per site (keyed by the registrable domain of the
///   request URL), e.g. straight from
///   [`FilterEngine::removeparam_rules`](filterlist::FilterEngine::removeparam_rules).
///
/// ```
/// use rewriter::RewriterBuilder;
///
/// let rules = filterlist::parse_list(
///     "*$removeparam=gclid\n||shop.example^$removeparam=session_ref\n",
///     filterlist::ListKind::Custom,
/// );
/// let rw = RewriterBuilder::new()
///     .strip_prefix("utm_")
///     .unwrap_param("url")
///     .filter_rules(&rules.rules)
///     .build();
///
/// let out = rw
///     .rewrite("https://www.shop.example/p?session_ref=9&utm_id=3&q=1")
///     .unwrap();
/// assert_eq!(out.url(), "https://www.shop.example/p?q=1");
/// ```
#[derive(Debug, Clone, Default)]
pub struct RewriterBuilder {
    global: RuleSet,
    per_site: HashMap<String, RuleSet>,
    unwrap: Vec<String>,
}

/// Globally stripped exact parameter names in
/// [`RewriterBuilder::default_rules`]: the cross-site click and campaign
/// identifiers ad networks and mailers append to otherwise functional URLs.
const DEFAULT_STRIP_EXACT: &[&str] = &[
    "gclid",
    "dclid",
    "gbraid",
    "wbraid",
    "fbclid",
    "msclkid",
    "twclid",
    "ttclid",
    "yclid",
    "igshid",
    "mc_eid",
    "mc_cid",
    "mkt_tok",
    "oly_enc_id",
    "oly_anon_id",
    "vero_id",
    "_hsenc",
    "_hsmi",
    "s_cid",
    "wickedid",
    "irclickid",
];

/// Globally stripped name prefixes in [`RewriterBuilder::default_rules`].
const DEFAULT_STRIP_PREFIXES: &[&str] = &["utm_", "mtm_", "hsa_"];

/// Redirect-wrapper parameters unwrapped by
/// [`RewriterBuilder::default_rules`].
const DEFAULT_UNWRAP: &[&str] = &[
    "url",
    "dest",
    "destination",
    "redirect",
    "redirect_url",
    "redirect_uri",
    "target",
    "goto",
];

impl RewriterBuilder {
    /// An empty builder: the resulting rewriter changes nothing until rules
    /// are added.
    pub fn new() -> Self {
        Self::default()
    }

    /// Strip the exactly-named query parameter from every URL.
    pub fn strip_param(mut self, name: &str) -> Self {
        push_unique(&mut self.global.exact, name);
        self
    }

    /// Strip every query parameter whose name starts with `prefix` from
    /// every URL. Prefixes ending at a non-alphanumeric byte (`utm_`) keep
    /// the zero-allocation prescreen sound; a bare alphanumeric prefix
    /// still works but forces a per-URL segment scan.
    pub fn strip_prefix(mut self, prefix: &str) -> Self {
        push_unique(&mut self.global.prefixes, prefix);
        self
    }

    /// Strip a parameter only from URLs under `domain` (compared by
    /// registrable domain, so `shop.example` covers `www.shop.example`).
    /// A trailing `*` in `name` makes it a prefix rule.
    pub(crate) fn strip_param_on(mut self, domain: &str, name: &str) -> Self {
        let set = self
            .per_site
            .entry(registrable_domain(&domain.to_ascii_lowercase()))
            .or_default();
        match name.strip_suffix('*') {
            Some(prefix) if !prefix.is_empty() => push_unique(&mut set.prefixes, prefix),
            _ => push_unique(&mut set.exact, name),
        }
        self
    }

    /// Treat `name` as a redirect wrapper: when its value is an absolute
    /// `http(s)` URL (raw or percent-encoded), the rewrite result is that
    /// destination — itself rewritten.
    pub fn unwrap_param(mut self, name: &str) -> Self {
        push_unique(&mut self.unwrap, name);
        self
    }

    /// Add the curated default rule set: `utm_*`-style campaign prefixes,
    /// the common cross-site click identifiers (`gclid`, `fbclid`,
    /// `msclkid`, …), and the usual redirect-wrapper parameters (`url`,
    /// `dest`, `redirect`, …). All of its names carry sound prescreen
    /// tokens, so the zero-allocation pass-through is preserved.
    pub fn default_rules(mut self) -> Self {
        for name in DEFAULT_STRIP_EXACT {
            self = self.strip_param(name);
        }
        for prefix in DEFAULT_STRIP_PREFIXES {
            self = self.strip_prefix(prefix);
        }
        for name in DEFAULT_UNWRAP {
            self = self.unwrap_param(name);
        }
        self
    }

    /// Consume EasyList-style `$removeparam=` rules (e.g. from
    /// [`FilterEngine::removeparam_rules`](filterlist::FilterEngine::removeparam_rules)).
    ///
    /// Scoping is derived per rule: positive `$domain=` entries scope the
    /// names to those registrable domains; otherwise a `||host^` anchor
    /// scopes them to the anchored host's registrable domain; otherwise a
    /// match-all pattern (`*$removeparam=x`) makes them global. Rules whose
    /// pattern constrains URLs in ways a name-level rewriter cannot honour
    /// faithfully (path fragments, for example) are skipped rather than
    /// over-applied. Trailing-`*` names are prefix rules.
    pub fn filter_rules(mut self, rules: &[FilterRule]) -> Self {
        for rule in rules {
            if rule.options.removeparam.is_empty() {
                continue;
            }
            let mut scopes: Vec<String> = rule
                .options
                .domains
                .iter()
                .filter(|d| !d.negated)
                .map(|d| registrable_domain(&d.domain))
                .collect();
            if scopes.is_empty() {
                if let Some(host) = anchored_host(&rule.text) {
                    scopes.push(registrable_domain(host));
                } else if !rule.pattern.is_match_all() {
                    // Pattern-constrained without a host anchor: applying
                    // the names globally would over-strip. Skip.
                    continue;
                }
            }
            for name in &rule.options.removeparam {
                if scopes.is_empty() {
                    self = match name.strip_suffix('*') {
                        Some(prefix) if !prefix.is_empty() => self.strip_prefix(prefix),
                        _ => self.strip_param(name),
                    };
                } else {
                    for domain in &scopes {
                        self = self.strip_param_on(domain, name);
                    }
                }
            }
        }
        self
    }

    /// Compile the collected rules into an immutable [`UrlRewriter`].
    pub fn build(mut self) -> UrlRewriter {
        self.per_site.retain(|_, set| !set.is_empty());
        UrlRewriter::assemble(self.global, self.per_site, self.unwrap)
    }
}

/// Push a lower-cased copy of `value`, skipping duplicates.
fn push_unique(list: &mut Vec<String>, value: &str) {
    let lowered = value.to_ascii_lowercase();
    if !list.contains(&lowered) {
        list.push(lowered);
    }
}

/// The hostname a `||host^`-anchored rule is scoped to, if the rule text
/// starts with a host anchor.
fn anchored_host(text: &str) -> Option<&str> {
    let body = text.strip_prefix("@@").unwrap_or(text);
    let rest = body.strip_prefix("||")?;
    let end = rest.find(['^', '/', '$', '*', '?']).unwrap_or(rest.len());
    let host = &rest[..end];
    (!host.is_empty()
        && host
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'-' || b == b'_'))
    .then_some(host)
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterlist::{parse_list, ListKind};

    #[test]
    fn default_rules_keep_the_prescreen_sound() {
        let rw = RewriterBuilder::new().default_rules().build();
        assert!(rw.rule_count() > 20);
        // Spot-check that a clean query passes through (would be slow but
        // still correct if the prescreen had been disabled; the dedicated
        // micro-bench guards the speed).
        assert!(rw.rewrite("https://a.example/x?page=2&size=10").is_none());
    }

    #[test]
    fn filter_rules_scope_by_domain_option_anchor_or_globally() {
        let parsed = parse_list(
            concat!(
                "*$removeparam=gclid\n",
                "*$removeparam=utm_*\n",
                "||shop.example^$removeparam=sid\n",
                "*$removeparam=aff_id,domain=news.example|~blog.news.example\n",
                "/checkout/$removeparam=step\n", // path-constrained: skipped
            ),
            ListKind::Custom,
        );
        let rw = RewriterBuilder::new().filter_rules(&parsed.rules).build();

        // Global exact + prefix.
        assert_eq!(
            rw.rewrite("https://any.example/?gclid=1&utm_ref=2&q=3")
                .unwrap()
                .url(),
            "https://any.example/?q=3"
        );
        // `||` anchor scopes to the registrable domain.
        assert_eq!(
            rw.rewrite("https://www.shop.example/?sid=1&q=2")
                .unwrap()
                .url(),
            "https://www.shop.example/?q=2"
        );
        assert!(rw.rewrite("https://other.example/?sid=1&q=2").is_none());
        // `$domain=` scopes to the initiator-ish domain of the URL.
        assert_eq!(
            rw.rewrite("https://news.example/?aff_id=1&q=2")
                .unwrap()
                .url(),
            "https://news.example/?q=2"
        );
        // Path-constrained rule was skipped, not applied globally.
        assert!(rw.rewrite("https://any.example/checkout/?step=2").is_none());
    }

    #[test]
    fn duplicate_rules_collapse() {
        let rw = RewriterBuilder::new()
            .strip_param("gclid")
            .strip_param("GCLID")
            .strip_prefix("utm_")
            .strip_prefix("UTM_")
            .build();
        assert_eq!(rw.rule_count(), 2);
    }
}
