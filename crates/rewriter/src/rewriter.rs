//! The compiled rewriter and its matching algorithm.
//!
//! The hot path is [`UrlRewriter::rewrite`] on a URL that does *not*
//! change — the overwhelmingly common case in live traffic. That path
//! performs no allocation: the query string is tokenized with the shared
//! [`filterlist::tokens`] FNV-1a tokenizer and tested against a prebuilt
//! set of *trigger* token hashes (one per rule name); only when a trigger
//! fires does the rewriter parse query segments, and only when a segment
//! actually matches a rule does it build the replacement string.

use filterlist::tokens::{token_hashes, TokenHashBuilder, TokenHashes};
use filterlist::{hostname_of, registrable_suffix};
use std::collections::{HashMap, HashSet};

use crate::RewrittenUrl;

/// Parameter-name rules for one scope: the global set or one registrable
/// domain. Names and prefixes are stored lower-cased; matching is ASCII
/// case-insensitive without allocating.
#[derive(Debug, Clone, Default)]
pub(crate) struct RuleSet {
    /// Exact parameter names.
    pub(crate) exact: Vec<String>,
    /// Parameter-name prefixes (`utm_` matches `utm_source`, `utm_medium`, …).
    pub(crate) prefixes: Vec<String>,
}

impl RuleSet {
    pub(crate) fn is_empty(&self) -> bool {
        self.exact.is_empty() && self.prefixes.is_empty()
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.exact.len() + self.prefixes.len()
    }

    fn matches(&self, name: &str) -> bool {
        self.exact.iter().any(|e| name.eq_ignore_ascii_case(e))
            || self
                .prefixes
                .iter()
                .any(|p| starts_with_ignore_case(name, p))
    }
}

/// ASCII case-insensitive prefix test (`prefix` must be ASCII, which every
/// stored rule name is).
fn starts_with_ignore_case(text: &str, prefix: &str) -> bool {
    text.len() >= prefix.len()
        && text.is_char_boundary(prefix.len())
        && text[..prefix.len()].eq_ignore_ascii_case(prefix)
}

/// The query-parameter name of one `&`-separated segment.
fn param_name(segment: &str) -> &str {
    &segment[..segment.find('=').unwrap_or(segment.len())]
}

/// Decode `%XX` escapes. Malformed escapes are kept literally; `None` when
/// the decoded bytes are not valid UTF-8 (such a value cannot be a URL we
/// would ever emit).
fn percent_decode(value: &str) -> Option<String> {
    if !value.contains('%') {
        return Some(value.to_string());
    }
    let bytes = value.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            let hi = (bytes[i + 1] as char).to_digit(16);
            let lo = (bytes[i + 2] as char).to_digit(16);
            if let (Some(hi), Some(lo)) = (hi, lo) {
                out.push((hi * 16 + lo) as u8);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8(out).ok()
}

/// If `value` is a percent-encoded (or raw) absolute `http(s)://` URL,
/// return the decoded destination.
fn wrapped_destination(value: &str) -> Option<String> {
    if !starts_with_ignore_case(value, "http") {
        return None;
    }
    let decoded = percent_decode(value)?;
    if starts_with_ignore_case(&decoded, "http://") || starts_with_ignore_case(&decoded, "https://")
    {
        Some(decoded)
    } else {
        None
    }
}

/// A compiled, immutable URL rewriter. Built by
/// [`RewriterBuilder`](crate::RewriterBuilder); shared across serving
/// threads behind an `Arc` (it is `Send + Sync` and never mutated).
#[derive(Debug, Clone, Default)]
pub struct UrlRewriter {
    /// Rules applied to every URL.
    global: RuleSet,
    /// Rules applied only to URLs whose hostname falls under the keyed
    /// registrable domain.
    per_site: HashMap<String, RuleSet>,
    /// Parameters whose value, when it is an absolute `http(s)` URL, *is*
    /// the real destination (redirect wrappers: `?url=`, `?dest=`, …).
    unwrap: Vec<String>,
    /// Token-hash prescreen: a query string none of whose tokens appear
    /// here cannot match any rule, so the URL passes through untouched
    /// without any parsing.
    trigger: HashSet<u64, TokenHashBuilder>,
    /// Set when some rule name yields no token ≥ 3 alphanumeric chars (the
    /// tokenizer's minimum), which makes the prescreen unsound for it —
    /// every URL with a query is then scanned segment by segment.
    always_scan: bool,
}

// Shared read-only across server worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<UrlRewriter>();
};

impl UrlRewriter {
    /// Assemble the compiled form: store the rule sets and derive the
    /// trigger-hash prescreen from every rule name.
    pub(crate) fn assemble(
        global: RuleSet,
        per_site: HashMap<String, RuleSet>,
        unwrap: Vec<String>,
    ) -> Self {
        let mut trigger = HashSet::with_hasher(TokenHashBuilder);
        let mut always_scan = false;
        {
            let mut add_exact = |name: &str| match token_hashes(name).next() {
                Some(token) => {
                    trigger.insert(token.hash);
                }
                None => always_scan = true,
            };
            for set in std::iter::once(&global).chain(per_site.values()) {
                for name in &set.exact {
                    add_exact(name);
                }
            }
            for name in &unwrap {
                add_exact(name);
            }
        }
        for set in std::iter::once(&global).chain(per_site.values()) {
            for prefix in &set.prefixes {
                match token_hashes(prefix).next() {
                    // A prefix whose first token runs to the end of the
                    // prefix ("utm" as opposed to "utm_") is not a sound
                    // trigger: a matching name extends the run, changing
                    // the hash. Fall back to scanning every query.
                    Some(token) if token.end < prefix.len() => {
                        trigger.insert(token.hash);
                    }
                    _ => always_scan = true,
                }
            }
        }
        UrlRewriter {
            global,
            per_site,
            unwrap,
            trigger,
            always_scan,
        }
    }

    /// Total number of rules (global + per-site + unwrap parameters).
    #[cfg(test)]
    pub(crate) fn rule_count(&self) -> usize {
        self.global.len()
            + self.per_site.values().map(RuleSet::len).sum::<usize>()
            + self.unwrap.len()
    }

    /// Rewrite a URL to its tracking-free form.
    ///
    /// Returns `None` when the URL is unchanged — the common case, and an
    /// allocation-free one — or `Some` with the cleaned URL: listed query
    /// parameters stripped (preserving the order, text, and fragment of
    /// everything else) and redirect wrappers unwrapped to their real
    /// destination. The result is a fixpoint: rewriting it again returns
    /// `None`.
    ///
    /// ```
    /// use rewriter::RewriterBuilder;
    ///
    /// let rw = RewriterBuilder::new().strip_param("gclid").build();
    /// let out = rw.rewrite("https://a.example/p?gclid=x&q=1").unwrap();
    /// assert_eq!(out.url(), "https://a.example/p?q=1");
    /// assert!(rw.rewrite(out.url()).is_none());
    /// ```
    pub fn rewrite(&self, url: &str) -> Option<RewrittenUrl> {
        let mut current: Option<String> = None;
        loop {
            let input = current.as_deref().unwrap_or(url);
            match self.rewrite_once(input) {
                Some(next) => {
                    // Every step strictly shrinks the URL (stripping drops
                    // at least one byte, unwrapping keeps a strict suffix
                    // of the decoded query value), which is what bounds
                    // this loop. Enforce it rather than trust it.
                    debug_assert!(next.len() < input.len());
                    if next.len() >= input.len() {
                        break;
                    }
                    current = Some(next);
                }
                None => break,
            }
        }
        current.map(RewrittenUrl::new)
    }

    /// One rewriting step: either unwrap the first redirect-wrapper
    /// parameter, or strip every matching parameter. `None` when nothing
    /// applies.
    fn rewrite_once(&self, url: &str) -> Option<String> {
        let (without_fragment, fragment) = match url.find('#') {
            Some(i) => (&url[..i], &url[i..]),
            None => (url, ""),
        };
        let question = without_fragment.find('?')?;
        let query = &without_fragment[question + 1..];
        if query.is_empty() {
            return None;
        }
        if !self.always_scan
            && !TokenHashes::new(query.as_bytes()).any(|t| self.trigger.contains(&t.hash))
        {
            return None;
        }
        let head = &without_fragment[..question];
        let site = self.site_rules(head);
        let strips_segment = |segment: &str| {
            let name = param_name(segment);
            !name.is_empty() && (self.global.matches(name) || site.is_some_and(|s| s.matches(name)))
        };

        // First pass: does anything apply? (Still allocation-free when the
        // trigger set fired spuriously.)
        let mut strips = false;
        for segment in query.split('&') {
            let name = param_name(segment);
            if name.is_empty() {
                continue;
            }
            if name.len() < segment.len()
                && self.unwrap.iter().any(|u| name.eq_ignore_ascii_case(u))
            {
                if let Some(destination) = wrapped_destination(&segment[name.len() + 1..]) {
                    return Some(destination);
                }
            }
            if strips_segment(segment) {
                strips = true;
            }
        }
        if !strips {
            return None;
        }

        // Second pass: rebuild, keeping unmatched segments byte-for-byte.
        let mut out = String::with_capacity(url.len());
        out.push_str(head);
        let mut first = true;
        for segment in query.split('&') {
            if strips_segment(segment) {
                continue;
            }
            out.push(if first { '?' } else { '&' });
            first = false;
            out.push_str(segment);
        }
        out.push_str(fragment);
        Some(out)
    }

    /// The per-site rule set for the URL's registrable domain, if any.
    fn site_rules(&self, head: &str) -> Option<&RuleSet> {
        if self.per_site.is_empty() {
            return None;
        }
        let host = hostname_of(head);
        if host.is_empty() {
            return None;
        }
        if host.ends_with('.') || host.bytes().any(|b| b.is_ascii_uppercase()) {
            // Rare denormalised hostname: lower it once for the lookup.
            let lowered = host.trim_end_matches('.').to_ascii_lowercase();
            self.per_site.get(registrable_suffix(&lowered))
        } else {
            self.per_site.get(registrable_suffix(host))
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::RewriterBuilder;

    fn defaults() -> super::UrlRewriter {
        RewriterBuilder::new().default_rules().build()
    }

    fn rewritten(rw: &super::UrlRewriter, url: &str) -> String {
        rw.rewrite(url)
            .unwrap_or_else(|| panic!("{url} should rewrite"))
            .url()
            .to_string()
    }

    #[test]
    fn strips_listed_params_preserving_the_rest() {
        let rw = defaults();
        assert_eq!(
            rewritten(
                &rw,
                "https://shop.example/p?id=7&utm_source=mail&color=red&utm_medium=cpc"
            ),
            "https://shop.example/p?id=7&color=red"
        );
    }

    #[test]
    fn preserves_fragment_and_order() {
        let rw = defaults();
        assert_eq!(
            rewritten(&rw, "https://a.example/x?b=2&gclid=abc&a=1#frag?not=query"),
            "https://a.example/x?b=2&a=1#frag?not=query"
        );
    }

    #[test]
    fn drops_question_mark_when_query_empties() {
        let rw = defaults();
        assert_eq!(
            rewritten(&rw, "https://a.example/x?gclid=abc"),
            "https://a.example/x"
        );
        assert_eq!(
            rewritten(&rw, "https://a.example/x?fbclid=1#top"),
            "https://a.example/x#top"
        );
    }

    #[test]
    fn clean_urls_pass_through() {
        let rw = defaults();
        for url in [
            "https://a.example/x",
            "https://a.example/x?",
            "https://a.example/x?id=1&page=2",
            "https://a.example/x?callback_url=later", // trigger hit, no match
            "https://a.example/utm_source/x?id=1",    // rule name in path, not query
        ] {
            assert!(rw.rewrite(url).is_none(), "{url} should not change");
        }
    }

    #[test]
    fn param_names_match_case_insensitively() {
        let rw = defaults();
        assert_eq!(
            rewritten(&rw, "https://a.example/x?GCLID=abc&id=1"),
            "https://a.example/x?id=1"
        );
        assert_eq!(
            rewritten(&rw, "https://a.example/x?UTM_Source=a&id=1"),
            "https://a.example/x?id=1"
        );
    }

    #[test]
    fn flag_params_without_values_are_stripped() {
        let rw = defaults();
        assert_eq!(
            rewritten(&rw, "https://a.example/x?gclid&id=1"),
            "https://a.example/x?id=1"
        );
    }

    #[test]
    fn per_site_rules_apply_only_to_their_domain() {
        let rw = RewriterBuilder::new()
            .strip_param_on("shop.example", "sid")
            .build();
        assert_eq!(
            rewritten(&rw, "https://www.shop.example/p?sid=9&id=1"),
            "https://www.shop.example/p?id=1"
        );
        assert!(rw.rewrite("https://other.example/p?sid=9&id=1").is_none());
    }

    #[test]
    fn per_site_lookup_reads_the_hostname_out_of_the_authority() {
        let rw = RewriterBuilder::new()
            .strip_param_on("shop.example", "sid")
            .build();
        for (url, cleaned) in [
            (
                "https://WWW.Shop.Example/p?sid=9&id=1",
                "https://WWW.Shop.Example/p?id=1",
            ),
            (
                "https://user:pw@www.shop.example/p?sid=9&id=1",
                "https://user:pw@www.shop.example/p?id=1",
            ),
            (
                "https://www.shop.example:8443/p?sid=9&id=1",
                "https://www.shop.example:8443/p?id=1",
            ),
            (
                "https://U@WWW.SHOP.EXAMPLE:80/p?sid=9&id=1",
                "https://U@WWW.SHOP.EXAMPLE:80/p?id=1",
            ),
            (
                "//www.shop.example/p?sid=9&id=1",
                "//www.shop.example/p?id=1",
            ),
        ] {
            assert_eq!(rewritten(&rw, url), cleaned);
        }
        // A domain in the userinfo is not the URL's site, and a URL without
        // an authority has none.
        assert!(rw
            .rewrite("https://shop.example@other.example/p?sid=9")
            .is_none());
        assert!(rw.rewrite("shop.example/p?sid=9").is_none());
    }

    #[test]
    fn unwraps_redirects_and_cleans_the_destination() {
        let rw = defaults();
        assert_eq!(
            rewritten(
                &rw,
                "https://r.ads.example/click?url=https%3A%2F%2Fnews.example%2Fstory%3Fgclid%3Dabc%26p%3D1"
            ),
            "https://news.example/story?p=1"
        );
        // Raw (unencoded) destination.
        assert_eq!(
            rewritten(&rw, "https://r.ads.example/go?dest=https://news.example/a"),
            "https://news.example/a"
        );
    }

    #[test]
    fn nested_wrappers_unwrap_to_the_innermost_destination() {
        let inner = "https://news.example/story";
        let mid = format!(
            "https://hop.example/r?url={}",
            inner.replace(':', "%3A").replace('/', "%2F")
        );
        let outer = format!(
            "https://r.ads.example/click?url={}",
            mid.replace(':', "%3A")
                .replace('/', "%2F")
                .replace('?', "%3F")
                .replace('=', "%3D")
        );
        let rw = defaults();
        assert_eq!(rewritten(&rw, &outer), inner);
    }

    #[test]
    fn non_url_values_of_unwrap_params_do_not_unwrap() {
        let rw = defaults();
        assert!(rw.rewrite("https://a.example/x?url=section-3").is_none());
        assert!(rw.rewrite("https://a.example/x?dest=httpish").is_none());
    }

    #[test]
    fn rewriting_is_idempotent() {
        let rw = defaults();
        for url in [
            "https://shop.example/p?id=7&utm_source=mail&color=red",
            "https://r.ads.example/click?url=https%3A%2F%2Fnews.example%2F%3Ffbclid%3D1",
            "https://a.example/x?gclid=abc#frag",
        ] {
            let once = rewritten(&rw, url);
            assert!(rw.rewrite(&once).is_none(), "{once} should be a fixpoint");
        }
    }

    #[test]
    fn empty_rewriter_changes_nothing() {
        let rw = RewriterBuilder::new().build();
        assert_eq!(rw.rule_count(), 0);
        assert!(rw
            .rewrite("https://a.example/x?utm_source=1&gclid=2")
            .is_none());
    }

    #[test]
    fn ambiguous_prefixes_force_scanning_and_still_match() {
        // "id" yields no ≥3-char token, so the prescreen cannot vouch for
        // it; the rewriter must fall back to scanning and still strip it.
        let rw = RewriterBuilder::new().strip_param("id").build();
        assert_eq!(
            rewritten(&rw, "https://a.example/x?id=1&q=2"),
            "https://a.example/x?q=2"
        );
    }

    #[test]
    fn rule_count_sums_all_scopes() {
        let rw = RewriterBuilder::new()
            .strip_param("gclid")
            .strip_prefix("utm_")
            .strip_param_on("shop.example", "sid")
            .unwrap_param("url")
            .build();
        assert_eq!(rw.rule_count(), 4);
    }
}
