//! The request that filter rules are evaluated against.
//!
//! Matching reads a borrowed [`RequestView`]: the URL text, its lower-cased
//! form, the hostname slice and its registrable domain, the page's hostname,
//! the resource type, the URL's token hashes and run prefixes, and the
//! party bit. Two
//! producers build it, through the same helpers, so they cannot disagree:
//!
//! * [`RequestScratch::view`] derives it from `&str`s into buffers the
//!   caller keeps — the hot paths (labeling a crawl, ingesting raw URLs,
//!   the decision backstop) build a view per request and allocate nothing
//!   once the buffers are warm. One scan of the URL hashes its tokens and
//!   tells whether it has upper-case ASCII; only such a URL is copied, to
//!   be lower-cased. Both sides are remembered from one view to the next:
//!   the page side (lower-cased hostname, its registrable domain), so a run
//!   of requests from one page derives it once, and the request URL's
//!   authority (its text, tokens, case, hostname and registrable domain),
//!   so a URL that starts with the last one's `scheme://authority` followed
//!   by `/`, `?`, `#` or its end scans only the bytes after it;
//! * the owned [`FilterRequest`] stores the same fields and lends them out
//!   with [`FilterRequest::view`], for callers that keep a request around.

use crate::domain::registrable_suffix;
use crate::tokens::hash_tokens_into;
use crate::url::{locate_host, trim_url, Authority, ParsedUrl, UrlView};
use std::fmt;
use std::ops::Range;

/// Resource type of a network request, mirroring the DevTools
/// `resource_type` field the paper's crawler records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceType {
    /// JavaScript file.
    Script,
    /// Image / pixel.
    Image,
    /// CSS.
    Stylesheet,
    /// XHR / fetch issued from script.
    Xhr,
    /// Iframe / embedded document.
    Subdocument,
    /// Web font.
    Font,
    /// Audio / video media.
    Media,
    /// WebSocket handshake.
    Websocket,
    /// Ping / beacon (`navigator.sendBeacon`, `<a ping>`).
    Ping,
    /// Top-level document itself.
    Document,
    /// Anything else.
    Other,
}

impl ResourceType {
    /// All concrete resource types (used by tests and generators).
    pub const ALL: [ResourceType; 11] = [
        ResourceType::Script,
        ResourceType::Image,
        ResourceType::Stylesheet,
        ResourceType::Xhr,
        ResourceType::Subdocument,
        ResourceType::Font,
        ResourceType::Media,
        ResourceType::Websocket,
        ResourceType::Ping,
        ResourceType::Document,
        ResourceType::Other,
    ];

    /// The canonical lower-case name used in filter list options.
    pub fn option_name(&self) -> &'static str {
        match self {
            ResourceType::Script => "script",
            ResourceType::Image => "image",
            ResourceType::Stylesheet => "stylesheet",
            ResourceType::Xhr => "xmlhttprequest",
            ResourceType::Subdocument => "subdocument",
            ResourceType::Font => "font",
            ResourceType::Media => "media",
            ResourceType::Websocket => "websocket",
            ResourceType::Ping => "ping",
            ResourceType::Document => "document",
            ResourceType::Other => "other",
        }
    }

    /// The resource type a canonical option name denotes — the inverse of
    /// [`ResourceType::option_name`], and the one decoder of every format
    /// that stores a type by that name.
    pub fn from_option_name(name: &str) -> Option<ResourceType> {
        Some(match name {
            "script" => ResourceType::Script,
            "image" => ResourceType::Image,
            "stylesheet" => ResourceType::Stylesheet,
            "xmlhttprequest" => ResourceType::Xhr,
            "subdocument" => ResourceType::Subdocument,
            "font" => ResourceType::Font,
            "media" => ResourceType::Media,
            "websocket" => ResourceType::Websocket,
            "ping" => ResourceType::Ping,
            "document" => ResourceType::Document,
            "other" => ResourceType::Other,
            _ => return None,
        })
    }
}

impl fmt::Display for ResourceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.option_name())
    }
}

/// One network request as rule matching reads it, borrowed. This mirrors
/// what a content blocker sees at `onBeforeRequest` time: the request URL,
/// the hostname of the document that issued it, and the resource type;
/// party-ness (first vs third) and the URL's token-hash set are derived
/// once, when the view is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestView<'a> {
    /// The parsed request URL.
    pub url: UrlView<'a>,
    /// Registrable domain (eTLD+1) of the URL's hostname, trailing dots
    /// dropped — a slice of the hostname. The request side of
    /// `third_party`, and the key the classification hierarchy files the
    /// request under.
    pub domain: &'a str,
    /// Hostname of the page (frame) the request originates from,
    /// lower-cased.
    pub(crate) source_hostname: &'a str,
    /// Resource type reported by the browser.
    pub(crate) resource_type: ResourceType,
    /// Token hashes of the URL ([`crate::tokens`]) in text order, repeats
    /// kept: they select the candidate buckets of rules filed under a run
    /// bounded on both sides. No reader needs a set —
    /// [`crate::index::RuleIndex::first_match`] keeps the lowest matching
    /// rule index, `any_match` stops at the first and `all_matches` dedups
    /// its candidates — so no builder sorts them.
    pub(crate) token_hashes: &'a [u64],
    /// The run prefix ([`crate::tokens::Token::prefix`]) of each token, in
    /// the same order as `token_hashes`: they select the candidate buckets
    /// of rules filed under a run bounded only on the left.
    pub(crate) run_prefixes: &'a [u64],
    /// Whether the request crosses a registrable-domain boundary.
    pub(crate) third_party: bool,
}

/// Where the registrable domain of a lower-case `hostname` lies within it:
/// [`registrable_suffix`] of the hostname without its trailing dots, which
/// is what [`crate::domain::registrable_domain`] copies out.
fn domain_range(hostname: &str) -> Range<usize> {
    let end = hostname.trim_end_matches('.').len();
    end - registrable_suffix(&hostname[..end]).len()..end
}

/// Whether a request crosses a registrable-domain boundary, from the two
/// sides' domains: `domain::is_third_party` of two lower-case
/// hostnames, without deriving either domain again.
fn crosses_domains(hostname: &str, domain: &str, page_hostname: &str, page_domain: &str) -> bool {
    !hostname.is_empty() && !page_hostname.is_empty() && domain != page_domain
}

/// The request side's authority (`scheme://[user@]host[:port]`) of the
/// last view that had one, with what the view derived from it. Requests
/// arrive in runs to one host, so the next URL usually starts with the same
/// bytes, and then its authority's tokens, host and registrable domain are
/// these again.
#[derive(Debug, Default)]
struct AuthorityMemo {
    /// The URL text through the authority's end, in its own case; empty
    /// before the first view with an authority.
    text: String,
    /// How many token hashes (and run prefixes) `text` produced: the
    /// leading entries of the scratch's vectors.
    tokens: usize,
    /// Whether `text` has upper-case ASCII.
    folded: bool,
    /// Where the hostname lies in the URL.
    host: Range<usize>,
    /// Where the hostname's registrable domain lies within the hostname.
    domain: Range<usize>,
}

impl AuthorityMemo {
    /// Whether `url` starts with this authority: with exactly its bytes,
    /// followed by what ends an authority — `/`, `?`, `#` or the URL's end.
    /// Such a URL's scheme separator, userinfo, host and port are the
    /// remembered ones, and no token runs across the authority's end.
    fn starts(&self, url: &str) -> bool {
        !self.text.is_empty()
            && url.as_bytes().starts_with(self.text.as_bytes())
            && matches!(
                url.as_bytes().get(self.text.len()),
                None | Some(b'/' | b'?' | b'#')
            )
    }
}

/// The reusable buffers behind [`RequestScratch::view`]: keep one per
/// thread or per loop and building a view stops allocating once they have
/// grown to the longest URL seen.
///
/// Both sides of the request are remembered from one view to the next: the
/// page's lower-cased hostname and registrable domain, and the request
/// URL's authority — its text, its tokens, whether it has upper-case ASCII,
/// its hostname and registrable domain. A view of a URL that starts with
/// the remembered authority (62.6% of a paper-profile crawl's labeled rows)
/// hashes only the bytes after it and derives no host or domain.
#[derive(Debug, Default)]
pub struct RequestScratch {
    /// Lower-cased URL; written only for a URL with upper-case ASCII.
    lower: String,
    /// The page hostname of the last view, lower-cased. Requests arrive in
    /// runs from one page, so the next view usually finds its page side
    /// here already.
    source: String,
    /// Where `source`'s registrable domain lies within it.
    source_domain: Range<usize>,
    /// The request URL's authority of the last view that had one.
    authority: AuthorityMemo,
    hashes: Vec<u64>,
    prefixes: Vec<u64>,
}

impl RequestScratch {
    /// Empty buffers.
    pub const fn new() -> Self {
        RequestScratch {
            lower: String::new(),
            source: String::new(),
            source_domain: 0..0,
            authority: AuthorityMemo {
                text: String::new(),
                tokens: 0,
                folded: false,
                host: 0..0,
                domain: 0..0,
            },
            hashes: Vec::new(),
            prefixes: Vec::new(),
        }
    }

    /// Build the view of one request, borrowing `url` and
    /// `source_hostname` wherever they are already lower-case. Equal field
    /// for field to `FilterRequest::new(..).map(|r| r.view())`, `None`
    /// (unparseable URL) included.
    pub fn view<'a>(
        &'a mut self,
        url: &'a str,
        source_hostname: &str,
        resource_type: ResourceType,
    ) -> Option<RequestView<'a>> {
        let raw = trim_url(url);
        if raw.is_empty() {
            return None;
        }
        // One scan of the URL hashes its tokens and their run prefixes and
        // tells whether it has upper-case ASCII to fold; only such a URL is
        // copied. A URL that starts with the remembered authority resumes
        // the scan at the authority's end. Any other URL's authority is
        // found on the raw text (its offsets are the same in the lower-cased
        // one), scanned and remembered first, then the scan continues; a
        // URL without one leaves nothing remembered.
        let memo = &mut self.authority;
        let fresh = !memo.starts(raw);
        if fresh {
            self.hashes.clear();
            self.prefixes.clear();
            memo.text.clear();
            memo.folded = false;
            if let Some(authority) = Authority::of(raw) {
                let text = &raw[..authority.end];
                memo.folded =
                    hash_tokens_into(text.as_bytes(), 0, &mut self.hashes, &mut self.prefixes);
                memo.text.push_str(text);
                memo.tokens = self.hashes.len();
                memo.host = authority.host_start..authority.host_start + authority.host.len();
            }
        } else {
            self.hashes.truncate(memo.tokens);
            self.prefixes.truncate(memo.tokens);
        }
        let rest_folded = hash_tokens_into(
            raw.as_bytes(),
            memo.text.len(),
            &mut self.hashes,
            &mut self.prefixes,
        );
        let lower = if memo.folded || rest_folded {
            self.lower.clear();
            self.lower.push_str(raw);
            self.lower.make_ascii_lowercase();
            self.lower.as_str()
        } else {
            raw
        };
        let (hostname, host_start, domain) = if memo.text.is_empty() {
            let (hostname, host_start) = locate_host(lower)?;
            (hostname, host_start, &hostname[domain_range(hostname)])
        } else {
            let hostname = &lower[memo.host.clone()];
            if fresh {
                memo.domain = domain_range(hostname);
            }
            (hostname, memo.host.start, &hostname[memo.domain.clone()])
        };
        if !source_hostname.eq_ignore_ascii_case(&self.source) {
            self.source.clear();
            self.source.push_str(source_hostname);
            self.source.make_ascii_lowercase();
            self.source_domain = domain_range(&self.source);
        }
        let source_hostname = self.source.as_str();
        let source_domain = &source_hostname[self.source_domain.clone()];
        Some(RequestView {
            url: UrlView {
                raw,
                lower,
                hostname,
                host_start,
            },
            domain,
            source_hostname,
            resource_type,
            token_hashes: &self.hashes,
            run_prefixes: &self.prefixes,
            third_party: crosses_domains(hostname, domain, source_hostname, source_domain),
        })
    }
}

/// A network request, owned: the fields of [`RequestView`] computed once at
/// construction and kept, so evaluating the request against any number of
/// rule indices allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterRequest {
    /// Parsed request URL. Private: `token_hashes` and `third_party` are
    /// derived from it at construction, so mutation would silently
    /// desynchronise matching.
    url: ParsedUrl,
    /// Hostname of the page (frame) the request originates from,
    /// lower-cased. Private for the same reason as `url`.
    source_hostname: String,
    /// Where the hostname's registrable domain lies within it.
    domain: Range<usize>,
    /// Resource type reported by the browser.
    pub(crate) resource_type: ResourceType,
    /// Token hashes of the URL in text order, repeats kept, computed once
    /// at construction ([`crate::tokens`]).
    token_hashes: Box<[u64]>,
    /// Each token's run prefix, in the same order.
    run_prefixes: Box<[u64]>,
    /// Whether the request crosses a registrable-domain boundary, computed
    /// once at construction so `$third-party` rules don't re-derive both
    /// eTLD+1s per candidate rule.
    third_party: bool,
}

impl FilterRequest {
    /// Build a request from raw strings.
    ///
    /// Returns `None` if the request URL cannot be parsed.
    pub fn new(url: &str, source_hostname: &str, resource_type: ResourceType) -> Option<Self> {
        Some(Self::from_parsed(
            ParsedUrl::parse(url)?,
            source_hostname,
            resource_type,
        ))
    }

    /// Build a request from an already-parsed URL, taking ownership.
    pub fn from_parsed(url: ParsedUrl, source_hostname: &str, resource_type: ResourceType) -> Self {
        let (mut hashes, mut prefixes) = (Vec::new(), Vec::new());
        hash_tokens_into(url.raw.as_bytes(), 0, &mut hashes, &mut prefixes);
        let source_hostname = source_hostname.to_ascii_lowercase();
        let domain = domain_range(&url.hostname);
        let third_party = crosses_domains(
            &url.hostname,
            &url.hostname[domain.clone()],
            &source_hostname,
            &source_hostname[domain_range(&source_hostname)],
        );
        FilterRequest {
            url,
            source_hostname,
            domain,
            resource_type,
            token_hashes: hashes.into_boxed_slice(),
            run_prefixes: prefixes.into_boxed_slice(),
            third_party,
        }
    }

    /// Lend the request to rule matching.
    pub fn view(&self) -> RequestView<'_> {
        RequestView {
            url: self.url.view(),
            domain: &self.url.hostname[self.domain.clone()],
            source_hostname: &self.source_hostname,
            resource_type: self.resource_type,
            token_hashes: &self.token_hashes,
            run_prefixes: &self.run_prefixes,
            third_party: self.third_party,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn third_party_detection() {
        let r = FilterRequest::new(
            "https://www.google-analytics.com/analytics.js",
            "news.example.com",
            ResourceType::Script,
        )
        .unwrap();
        assert!(r.view().third_party);

        let r = FilterRequest::new(
            "https://static.example.com/app.js",
            "www.example.com",
            ResourceType::Script,
        )
        .unwrap();
        assert!(!r.view().third_party);
    }

    #[test]
    fn party_ness_from_the_two_domains_equals_is_third_party() {
        let hosts = [
            "",
            ".",
            "wp.com",
            "stats.wp.com",
            "stats.wp.com.",
            "wp.com..",
            "a.shop.example.co.uk",
            "example.co.uk",
            "co.uk",
            "localhost",
            "10.0.0.1",
            "10.0.0.1.",
            "+1.2.3.4",
            "9.9.3.4",
            "[::1]",
            "bücher.example",
        ];
        for request in hosts {
            for page in hosts {
                let crossed = crosses_domains(
                    request,
                    &request[domain_range(request)],
                    page,
                    &page[domain_range(page)],
                );
                assert_eq!(
                    crossed,
                    crate::domain::is_third_party(request, page),
                    "{request:?} from {page:?}"
                );
            }
            assert_eq!(
                &request[domain_range(request)],
                crate::domain::registrable_domain(request),
                "{request:?}"
            );
        }
    }

    #[test]
    fn invalid_url_is_rejected() {
        assert!(FilterRequest::new("notaurl", "example.com", ResourceType::Image).is_none());
    }

    #[test]
    fn token_hashes_are_in_text_order_repeats_kept_and_case_insensitive() {
        use crate::tokens::fnv1a64;
        // `com` appears twice; the list keeps both, where the URL has them.
        let url = "HTTPS://CDN.Example.COM/com/Analytics.js";
        let r = FilterRequest::new(url, "example.com", ResourceType::Script).unwrap();
        let hashes = r.view().token_hashes;
        let expected: Vec<u64> = ["https", "cdn", "example", "com", "com", "analytics"]
            .iter()
            .map(|token| fnv1a64(token.as_bytes()))
            .collect();
        assert_eq!(hashes, &expected[..]);
        assert_eq!(hashes.iter().filter(|&&h| h == fnv1a64(b"com")).count(), 2);
        let mut scratch = RequestScratch::new();
        let view = scratch.view(url, "example.com", ResourceType::Script);
        assert_eq!(view.map(|v| v.token_hashes), Some(&expected[..]));
    }

    #[test]
    fn run_prefixes_follow_the_token_hashes() {
        use crate::tokens::fnv1a64;
        let url = "HTTPS://CDN.Example.COM/com/Analytics.js";
        let r = FilterRequest::new(url, "example.com", ResourceType::Script).unwrap();
        let expected: Vec<u64> = ["htt", "cdn", "exa", "com", "com", "ana"]
            .iter()
            .map(|prefix| fnv1a64(prefix.as_bytes()))
            .collect();
        assert_eq!(r.view().run_prefixes, &expected[..]);
        let mut scratch = RequestScratch::new();
        let view = scratch.view(url, "example.com", ResourceType::Script);
        assert_eq!(view.map(|v| v.run_prefixes), Some(&expected[..]));
    }

    #[test]
    fn from_parsed_matches_new() {
        let parsed = ParsedUrl::parse("https://t.example/p.js").unwrap();
        let a = FilterRequest::from_parsed(parsed, "Site.COM", ResourceType::Script);
        let b =
            FilterRequest::new("https://t.example/p.js", "site.com", ResourceType::Script).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn resource_type_option_names_are_unique() {
        let mut names: Vec<&str> = ResourceType::ALL.iter().map(|t| t.option_name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), ResourceType::ALL.len());
        for kind in ResourceType::ALL {
            assert_eq!(
                ResourceType::from_option_name(kind.option_name()),
                Some(kind)
            );
        }
        for near_miss in ["Script", "scripts", "scrip", "xmlhttprequesT", "xhr", ""] {
            assert_eq!(
                ResourceType::from_option_name(near_miss),
                None,
                "{near_miss}"
            );
        }
    }
}
