//! The request view that filter rules are evaluated against.

use crate::domain::is_third_party;
use crate::url::ParsedUrl;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Resource type of a network request, mirroring the DevTools
/// `resource_type` field the paper's crawler records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
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
        ResourceType::ALL
            .into_iter()
            .find(|kind| kind.option_name() == name)
    }
}

impl fmt::Display for ResourceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.option_name())
    }
}

/// A single network request as seen by the filter engine.
///
/// This mirrors what a content blocker sees at `onBeforeRequest` time: the
/// request URL, the URL of the document that issued it, and the resource
/// type. Party-ness (first vs third) is derived from the two hostnames.
///
/// The request pre-computes everything the hot match path needs exactly
/// once, at construction: the lower-cased URL lives in [`ParsedUrl`], and
/// the URL's token-hash set (sorted, deduplicated) is stored here so
/// evaluating the request against any number of rule indices allocates
/// nothing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterRequest {
    /// Parsed request URL. Crate-private: `token_hashes` and `third_party`
    /// are derived from it at construction, so external mutation would
    /// silently desynchronise matching.
    pub(crate) url: ParsedUrl,
    /// Hostname of the page (frame) the request originates from,
    /// lower-cased. Crate-private for the same reason as `url`.
    pub(crate) source_hostname: String,
    /// Resource type reported by the browser.
    pub resource_type: ResourceType,
    /// Sorted, deduplicated token hashes of the lower-cased URL, computed
    /// once at construction ([`crate::tokens`]).
    token_hashes: Box<[u64]>,
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

    /// Build a request from an already-parsed URL, taking ownership (no
    /// [`ParsedUrl`] clone on the labeling hot path).
    pub fn from_parsed(url: ParsedUrl, source_hostname: &str, resource_type: ResourceType) -> Self {
        let mut hashes: Vec<u64> = crate::tokens::token_hashes(&url.lower)
            .map(|t| t.hash)
            .collect();
        hashes.sort_unstable();
        hashes.dedup();
        let source_hostname = source_hostname.to_ascii_lowercase();
        let third_party = is_third_party(&url.hostname, &source_hostname);
        FilterRequest {
            url,
            source_hostname,
            resource_type,
            token_hashes: hashes.into_boxed_slice(),
            third_party,
        }
    }

    /// The parsed request URL.
    pub fn url(&self) -> &ParsedUrl {
        &self.url
    }

    /// Take the parsed URL back out of the request (no clone).
    pub fn into_url(self) -> ParsedUrl {
        self.url
    }

    /// Lower-cased hostname of the page (frame) that issued the request.
    pub fn source_hostname(&self) -> &str {
        &self.source_hostname
    }

    /// The URL's pre-computed token-hash set (sorted, deduplicated).
    pub fn token_hashes(&self) -> &[u64] {
        &self.token_hashes
    }

    /// `true` if the request crosses a registrable-domain boundary
    /// (pre-computed at construction).
    pub fn is_third_party(&self) -> bool {
        self.third_party
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
        assert!(r.is_third_party());

        let r = FilterRequest::new(
            "https://static.example.com/app.js",
            "www.example.com",
            ResourceType::Script,
        )
        .unwrap();
        assert!(!r.is_third_party());
    }

    #[test]
    fn invalid_url_is_rejected() {
        assert!(FilterRequest::new("notaurl", "example.com", ResourceType::Image).is_none());
    }

    #[test]
    fn token_hashes_are_sorted_deduplicated_and_case_insensitive() {
        use crate::tokens::fnv1a64;
        // `com` appears twice; the set stores it once.
        let r = FilterRequest::new(
            "HTTPS://CDN.Example.COM/com/Analytics.js",
            "example.com",
            ResourceType::Script,
        )
        .unwrap();
        let hashes = r.token_hashes();
        assert!(hashes.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        assert!(hashes.contains(&fnv1a64(b"cdn")));
        assert!(hashes.contains(&fnv1a64(b"com")));
        assert!(hashes.contains(&fnv1a64(b"analytics")));
        assert_eq!(hashes.iter().filter(|&&h| h == fnv1a64(b"com")).count(), 1);
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
        assert_eq!(ResourceType::from_option_name("Script"), None);
    }
}
