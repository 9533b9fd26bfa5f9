//! Minimal URL parsing tailored to filter-list matching.
//!
//! Filter rules in the Adblock Plus syntax match against the *full request
//! URL* but frequently need the hostname (for `||` anchors and the
//! `$domain=` option). We implement the
//! small subset of URL handling the engine needs rather than pulling in a
//! full `url` crate: the corpus only contains `http`/`https`/`data` URLs and
//! never needs percent-decoding or IDNA.

use std::fmt;

/// A parsed request URL.
///
/// The original string is retained because pattern matching operates on the
/// raw URL text (lower-cased); the hostname and its offset are used for
/// anchored matching and party determination.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ParsedUrl {
    /// The full original URL, exactly as given.
    pub(crate) raw: String,
    /// Lower-cased copy of the full URL used for case-insensitive matching.
    pub(crate) lower: String,
    /// Hostname (no port), lower-cased. Empty for opaque URLs such as `data:`.
    pub hostname: String,
    /// Byte offset of `hostname` within `lower` (and `raw` — lower-casing is
    /// ASCII-only and length-preserving). `0` for opaque URLs with no
    /// hostname. Pre-computed at parse time so `||` hostname anchoring never
    /// re-scans the URL for the authority.
    pub(crate) host_start: usize,
}

impl ParsedUrl {
    /// Parse a URL string.
    ///
    /// Returns `None` when the input does not look like a URL at all (no
    /// scheme separator and no leading `//`). Scheme-relative URLs
    /// (`//cdn.example.com/x.js`) are accepted.
    pub fn parse(input: &str) -> Option<Self> {
        let raw = trim_url(input).to_string();
        if raw.is_empty() {
            return None;
        }
        let lower = raw.to_ascii_lowercase();
        let (hostname, host_start) = locate_host(&lower)?;
        let hostname = hostname.to_string();
        Some(ParsedUrl {
            raw,
            lower,
            hostname,
            host_start,
        })
    }

    /// The borrowed view pattern matching reads.
    pub(crate) fn view(&self) -> UrlView<'_> {
        UrlView {
            raw: &self.raw,
            lower: &self.lower,
            hostname: &self.hostname,
            host_start: self.host_start,
        }
    }
}

/// A parsed URL, borrowed: what `Pattern::matches` reads.
/// `ParsedUrl::view` lends one out of the owned form;
/// [`crate::RequestScratch::view`] derives one from a `&str`
/// without copying the URL (unless it has upper-case ASCII to fold).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UrlView<'a> {
    /// The URL text, trimmed, in its own case (`$match-case` rules).
    pub(crate) raw: &'a str,
    /// The URL text lower-cased; the same slice as `raw` when the URL has
    /// no upper-case ASCII.
    pub(crate) lower: &'a str,
    /// Hostname (no port), lower-cased; empty for opaque URLs.
    pub hostname: &'a str,
    /// Byte offset of `hostname` within `lower` and `raw`; `0` for opaque
    /// URLs.
    pub(crate) host_start: usize,
}

/// `url` without leading and trailing whitespace: [`str::trim`], which
/// walks Unicode whitespace a char at a time from both ends, run only when
/// an end byte is not ASCII graphic. A URL almost always starts and ends in
/// a graphic byte, and such a byte is a whole char that is not whitespace.
pub(crate) fn trim_url(url: &str) -> &str {
    let bytes = url.as_bytes();
    if bytes.first().is_some_and(u8::is_ascii_graphic)
        && bytes.last().is_some_and(u8::is_ascii_graphic)
    {
        url
    } else {
        url.trim()
    }
}

/// Where the hostname lies in a trimmed URL: `(hostname, byte offset)`,
/// `("", 0)` for an opaque URL such as `data:image/gif;base64,...` or
/// `about:blank`, `None` for text that is not a URL at all. The one
/// derivation every URL reader in this crate shares.
pub(crate) fn locate_host(url: &str) -> Option<(&str, usize)> {
    if let Some(authority) = Authority::of(url) {
        return Some((authority.host, authority.host_start));
    }
    url[..url.find(':')?]
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'+' || b == b'-')
        .then_some(("", 0))
}

/// `ALPHA *( ALPHA / DIGIT / "+" / "-" / "." )` (RFC 3986 §3.1).
fn is_scheme(text: &str) -> bool {
    let mut bytes = text.bytes();
    bytes.next().is_some_and(|b| b.is_ascii_alphabetic())
        && bytes.all(|b| b.is_ascii_alphanumeric() || matches!(b, b'+' | b'-' | b'.'))
}

/// The authority of a URL (`scheme://[user@]host[:port]`, or scheme-relative
/// `//host…`), borrowed from the URL text. The one place the hostname is
/// derived: [`locate_host`], [`hostname_of`] and
/// [`crate::RequestScratch::view`] read it. Its offsets are the same in the
/// URL's ASCII lower case, since every delimiter it looks for is ASCII and
/// not a letter.
pub(crate) struct Authority<'a> {
    /// Hostname without userinfo or port, in the text's own case.
    pub(crate) host: &'a str,
    /// Byte offset of `host` within the URL.
    pub(crate) host_start: usize,
    /// Byte offset of the authority's end: the URL's first `/`, `?` or `#`
    /// after the scheme separator, or its length.
    pub(crate) end: usize,
}

impl<'a> Authority<'a> {
    /// `None` when `url` has neither a scheme followed by `://` nor a
    /// leading `//`. A `://` further in (a URL carried in a query or in an
    /// opaque URL's data) is not the scheme separator: a scheme admits no
    /// `:`, so only the URL's first `:` can begin it. Every delimiter is
    /// ASCII, so the scans are byte scans and their offsets char
    /// boundaries.
    pub(crate) fn of(url: &'a str) -> Option<Self> {
        let bytes = url.as_bytes();
        let start = match bytes.iter().position(|&b| b == b':') {
            Some(colon) if bytes[colon + 1..].starts_with(b"//") && is_scheme(&url[..colon]) => {
                colon + 3
            }
            _ if bytes.starts_with(b"//") => 2,
            _ => return None,
        };
        // Authority ends at the first `/`, `?` or `#`.
        let end = bytes[start..]
            .iter()
            .position(|&b| matches!(b, b'/' | b'?' | b'#'))
            .map_or(url.len(), |idx| start + idx);
        // Strip userinfo if present.
        let host_start = bytes[start..end]
            .iter()
            .rposition(|&b| b == b'@')
            .map_or(start, |at| start + at + 1);
        let hostport = &bytes[host_start..end];
        // An all-digit tail after the last `:` is a port, not hostname.
        let host_end = match hostport.iter().rposition(|&b| b == b':') {
            Some(colon) if hostport[colon + 1..].iter().all(u8::is_ascii_digit) => {
                host_start + colon
            }
            _ => end,
        };
        Some(Authority {
            host: &url[host_start..host_end],
            host_start,
            end,
        })
    }
}

/// The hostname of a URL, borrowed in the URL's own case; `""` when the URL
/// has no authority (opaque `data:` URLs, non-URLs). Equal, up to ASCII
/// case, to `ParsedUrl::parse(url).map(|u| u.hostname).unwrap_or_default()`
/// without allocating.
pub fn hostname_of(url: &str) -> &str {
    Authority::of(trim_url(url)).map_or("", |authority| authority.host)
}

impl fmt::Display for ParsedUrl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `str::find` derivation [`Authority::of`] replaced, kept as its
    /// oracle: `(host, host_start, end)`.
    fn reference_authority(url: &str) -> Option<(&str, usize, usize)> {
        let start = match url.find("://") {
            Some(idx) if is_scheme(&url[..idx]) => idx + 3,
            _ if url.starts_with("//") => 2,
            _ => return None,
        };
        let end = url[start..]
            .find(['/', '?', '#'])
            .map_or(url.len(), |idx| start + idx);
        let authority = &url[start..end];
        let (hostport, host_start) = match authority.rfind('@') {
            Some(at) => (&authority[at + 1..], start + at + 1),
            None => (authority, start),
        };
        let host = match hostport.rfind(':') {
            Some(colon) if hostport[colon + 1..].chars().all(|c| c.is_ascii_digit()) => {
                &hostport[..colon]
            }
            _ => hostport,
        };
        Some((host, host_start, end))
    }

    /// URL-shaped text built to reach every branch of the authority scan:
    /// mixed case, userinfo, ports, `[::1]`, scheme-relative, a `://` in a
    /// query or in opaque data, `data:`/`mailto:`, trailing dots, signed IP
    /// parts, non-ASCII.
    fn arb_url_text() -> impl Strategy<Value = String> {
        let scheme = prop_oneof![
            "https://",
            "HTTP://",
            "//",
            "/",
            "",
            "data:",
            "mailto:",
            "view-source+x.y://",
            "[-a-zA-Z+.]{0,4}:",
            "ü://",
            "h:ttp://",
        ];
        let userinfo = prop_oneof!["", "", "user@", "User:Pw@", "a@b@", "ü@"];
        let host = prop_oneof![
            "[a-zA-Z]{1,6}(\\.[a-zA-Z]{1,6}){0,3}\\.?",
            "[a-z]{1,4}\\.\\.",
            "\\+[0-9]{1,2}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}",
            "[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}",
            "\\[::1\\]",
            "bücher\\.example",
            "",
        ];
        let port = prop_oneof!["", "", ":8080", ":", ":80a", "::1", ":ü"];
        let rest = prop_oneof![
            "",
            "/[-a-zA-Z0-9/._:@]{0,12}",
            "\\?u=https://[a-z]{2,6}\\.io/p",
            "/r\\?u=//x\\.io:1@y",
            "#frag://z",
            "\\PC{0,16}",
        ];
        (scheme, userinfo, host, port, rest).prop_map(|(scheme, userinfo, host, port, rest)| {
            format!("{scheme}{userinfo}{host}{port}{rest}")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn the_byte_scan_finds_the_authority_the_str_search_did(url in arb_url_text()) {
            let scanned = Authority::of(&url).map(|a| (a.host, a.host_start, a.end));
            prop_assert_eq!(scanned, reference_authority(&url), "{:?}", url);
        }

        #[test]
        fn the_byte_scan_agrees_on_arbitrary_text(url in "\\PC{0,24}") {
            let scanned = Authority::of(&url).map(|a| (a.host, a.host_start, a.end));
            prop_assert_eq!(scanned, reference_authority(&url), "{:?}", url);
        }

        #[test]
        fn the_url_trim_is_str_trim(
            head in prop::collection::vec(arb_trim_edge(), 0..3),
            body in "\\PC{0,12}",
            tail in prop::collection::vec(arb_trim_edge(), 0..3),
        ) {
            let url = format!("{}{body}{}", head.concat(), tail.concat());
            prop_assert_eq!(trim_url(&url), url.trim(), "{:?}", url);
        }
    }

    /// What may stand at either end of a URL: ASCII and Unicode whitespace,
    /// and bytes that are not — ASCII graphic, an ASCII control, DEL, a
    /// zero-width space, a non-ASCII letter.
    const TRIM_EDGES: [&str; 29] = [
        " ", "\t", "\n", "\r", "\x0b", "\x0c", "\u{85}", "\u{a0}", "\u{1680}", "\u{2000}",
        "\u{2001}", "\u{2002}", "\u{2003}", "\u{2004}", "\u{2005}", "\u{2006}", "\u{2007}",
        "\u{2008}", "\u{2009}", "\u{200a}", "\u{3000}", "\u{200b}", "\x7f", "\x01", "h", "/", "~",
        "!", "ü",
    ];

    fn arb_trim_edge() -> impl Strategy<Value = &'static str> {
        (0..TRIM_EDGES.len()).prop_map(|at| TRIM_EDGES[at])
    }

    #[test]
    fn parses_basic_https_url() {
        let u = ParsedUrl::parse("https://cdn.example.com/assets/app.js?v=3").unwrap();
        assert_eq!(u.hostname, "cdn.example.com");
    }

    #[test]
    fn parses_url_with_port_and_userinfo() {
        let u = ParsedUrl::parse("http://user:pw@tracker.ads.net:8080/pixel?id=1").unwrap();
        assert_eq!(u.hostname, "tracker.ads.net");
    }

    #[test]
    fn parses_scheme_relative_url() {
        let u = ParsedUrl::parse("//stats.wp.com/w.js").unwrap();
        assert_eq!(u.hostname, "stats.wp.com");
    }

    #[test]
    fn parses_data_url_as_opaque() {
        let u = ParsedUrl::parse("data:image/gif;base64,R0lGODlhAQAB").unwrap();
        assert!(u.hostname.is_empty());
    }

    #[test]
    fn lowercases_host_but_keeps_raw() {
        let u = ParsedUrl::parse("HTTPS://CDN.Example.COM/A.JS").unwrap();
        assert_eq!(u.hostname, "cdn.example.com");
        assert_eq!(u.raw, "HTTPS://CDN.Example.COM/A.JS");
    }

    #[test]
    fn rejects_non_urls() {
        assert!(ParsedUrl::parse("").is_none());
        assert!(ParsedUrl::parse("not a url at all").is_none());
    }

    #[test]
    fn hostname_of_agrees_with_parse() {
        for case in [
            "https://cdn.example.com/assets/app.js?v=3",
            "http://user:pw@tracker.ads.net:8080/pixel?id=1",
            "//stats.wp.com/w.js",
            "HTTPS://CDN.Example.COM:443/A.JS",
            "https://[::1]:8080/",
            "https://host:/x",
            "  https://padded.example/  ",
            "https:///path-only",
            "data:image/gif;base64,R0lGODlhAQAB",
            "not a url at all",
            "",
            // A `://` that is not preceded by a scheme is data, not the
            // scheme separator.
            "//cdn.example.com/r?u=https://tracker.io/p",
            "data:text/html,<a href=http://evil.com/>",
            "mailto:a@b.c?x=http://evil.com/",
            "/r?u=https://tracker.io/p",
            "https://cdn.example.com/r?u=http://tracker.io/p",
            "view-source+x.y://host.example/",
        ] {
            let parsed = ParsedUrl::parse(case)
                .map(|u| u.hostname)
                .unwrap_or_default();
            assert_eq!(
                hostname_of(case).to_ascii_lowercase(),
                parsed,
                "for {case:?}"
            );
        }
    }

    #[test]
    fn an_embedded_scheme_separator_does_not_move_the_host() {
        let host = |url| ParsedUrl::parse(url).map(|u| u.hostname);
        assert_eq!(
            host("//cdn.example.com/r?u=https://tracker.io/p").as_deref(),
            Some("cdn.example.com")
        );
        assert_eq!(
            host("https://cdn.example.com/r?u=http://tracker.io/p").as_deref(),
            Some("cdn.example.com")
        );
        assert_eq!(
            host("data:text/html,<a href=http://evil.com/>").as_deref(),
            Some("")
        );
        assert_eq!(host("mailto:a@b.c?x=http://evil.com/").as_deref(), Some(""));
        assert_eq!(host("/r?u=https://tracker.io/p"), None);
        assert_eq!(
            host("view-source+x.y://host.example/").as_deref(),
            Some("host.example")
        );
    }

    #[test]
    fn host_start_points_at_the_hostname() {
        let cases = [
            "https://cdn.example.com/assets/app.js?v=3",
            "http://user:pw@tracker.ads.net:8080/pixel?id=1",
            "//stats.wp.com/w.js",
            "HTTPS://CDN.Example.COM/A.JS",
        ];
        for case in cases {
            let u = ParsedUrl::parse(case).unwrap();
            assert_eq!(
                &u.lower[u.host_start..u.host_start + u.hostname.len()],
                u.hostname,
                "host_start wrong for {case}"
            );
        }
        let opaque = ParsedUrl::parse("data:image/gif;base64,R0lGODlhAQAB").unwrap();
        assert_eq!(opaque.host_start, 0);
    }
}
