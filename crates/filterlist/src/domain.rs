//! Hostname and registrable-domain (eTLD+1) helpers.
//!
//! TrackerSift's coarsest granularity is the *domain*, which the paper
//! defines as the eTLD+1 of a request's hostname (e.g. `pixel.wp.com` and
//! `stats.wp.com` both belong to the domain `wp.com`). A full public suffix
//! list is overkill for the synthetic corpus, so we embed the common
//! multi-label suffixes that appear in the paper's examples and in the
//! generated ecosystem, falling back to the last two labels otherwise.

/// Multi-label public suffixes recognised by [`registrable_domain`].
///
/// This is intentionally a curated subset of the Public Suffix List: the
/// suffixes that actually occur in the paper's examples (`co.uk`, `com.au`,
/// `com.br`, `com.mx`, `co.jp`) plus other common country-code second-level
/// registrations so that real-world URLs fed to the engine behave sensibly.
/// Sorted, so a lookup is a binary search over a static slice.
const MULTI_LABEL_SUFFIXES: &[&str] = &[
    "ac.jp", "ac.uk", "co.id", "co.il", "co.in", "co.jp", "co.kr", "co.nz", "co.uk", "co.za",
    "com.ar", "com.au", "com.bd", "com.br", "com.cn", "com.co", "com.ec", "com.eg", "com.gh",
    "com.hk", "com.mx", "com.my", "com.ng", "com.np", "com.pe", "com.ph", "com.pk", "com.pl",
    "com.sa", "com.sg", "com.tr", "com.tw", "com.ua", "com.uy", "com.ve", "com.vn", "edu.au",
    "firm.in", "gen.in", "go.jp", "gob.mx", "gov.au", "gov.br", "gov.cn", "gov.uk", "in.ua",
    "me.uk", "ne.jp", "ne.kr", "net.au", "net.br", "net.cn", "net.il", "net.in", "net.nz",
    "net.pk", "net.pl", "net.tr", "net.tw", "net.ua", "net.uk", "net.za", "or.id", "or.jp",
    "or.kr", "org.au", "org.br", "org.cn", "org.il", "org.in", "org.mx", "org.nz", "org.pk",
    "org.pl", "org.tr", "org.tw", "org.ua", "org.uk", "org.za", "web.id",
];

/// Shortest and longest entry of [`MULTI_LABEL_SUFFIXES`] in bytes: most
/// last-two-label pairs (`google.com`) fall outside and skip the search.
const SUFFIX_LEN: std::ops::RangeInclusive<usize> = 5..=7;

fn is_multi_label_suffix(last_two: &str) -> bool {
    SUFFIX_LEN.contains(&last_two.len()) && MULTI_LABEL_SUFFIXES.binary_search(&last_two).is_ok()
}

/// Returns `true` if `hostname` is syntactically a plausible DNS hostname.
pub fn is_valid_hostname(hostname: &str) -> bool {
    if hostname.is_empty() || hostname.len() > 253 {
        return false;
    }
    hostname.split('.').all(|label| {
        !label.is_empty()
            && label.len() <= 63
            && !label.starts_with('-')
            && !label.ends_with('-')
            && label
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    })
}

/// Returns `true` when the hostname is an IPv4 literal (no eTLD+1 exists):
/// four dot-separated runs of ASCII digits, each at most 255. Digits only —
/// `u8::from_str` alone would also take a leading `+`. A hostname whose
/// last byte is not a digit — nearly every name — is answered before it is
/// split.
fn is_ip_literal(hostname: &str) -> bool {
    if !hostname.as_bytes().last().is_some_and(u8::is_ascii_digit) {
        return false;
    }
    let mut parts = 0usize;
    for part in hostname.split('.') {
        parts += 1;
        if parts > 4
            || part.is_empty()
            || !part.bytes().all(|b| b.is_ascii_digit())
            || part.parse::<u8>().is_err()
        {
            return false;
        }
    }
    parts == 4
}

/// Borrowed eTLD+1 of an already-normalised hostname (lower-case, no
/// trailing dot) — the zero-allocation core of [`registrable_domain`],
/// usable directly on hostnames coming out of
/// [`crate::url::ParsedUrl::parse`], which normalises them.
pub fn registrable_suffix(hostname: &str) -> &str {
    if is_ip_literal(hostname) {
        return hostname;
    }
    // Byte offsets of the last three dots, scanning from the end.
    let bytes = hostname.as_bytes();
    let mut dots = [0usize; 3];
    let mut found = 0usize;
    for i in (0..bytes.len()).rev() {
        if bytes[i] == b'.' {
            dots[found] = i;
            found += 1;
            if found == 3 {
                break;
            }
        }
    }
    if found < 2 {
        // Two labels or fewer: the hostname is its own registrable domain.
        return hostname;
    }
    let last_two = &hostname[dots[1] + 1..];
    if is_multi_label_suffix(last_two) {
        // Known multi-label suffix: keep three labels (or the whole
        // hostname when it has exactly three).
        if found == 3 {
            &hostname[dots[2] + 1..]
        } else {
            hostname
        }
    } else {
        last_two
    }
}

/// `true` when the hostname needs normalisation before
/// [`registrable_suffix`] can slice it.
fn needs_normalising(hostname: &str) -> bool {
    hostname.ends_with('.') || hostname.bytes().any(|b| b.is_ascii_uppercase())
}

/// Extract the registrable domain (eTLD+1) from a hostname.
///
/// `pixel.wp.com` → `wp.com`; `static.bbc.co.uk` → `bbc.co.uk`;
/// IP literals and single-label hosts are returned unchanged.
pub fn registrable_domain(hostname: &str) -> String {
    if needs_normalising(hostname) {
        let normalised = hostname.trim_end_matches('.').to_ascii_lowercase();
        registrable_suffix(&normalised).to_string()
    } else {
        registrable_suffix(hostname).to_string()
    }
}

/// Returns `true` when `hostname` equals `domain` or is a subdomain of it.
///
/// This is the containment test used both by the `$domain=` option and by
/// `||` host anchors: `cdn.google.com` is within `google.com` but
/// `notgoogle.com` is not. Comparison is ASCII case-insensitive without
/// building lowered copies.
pub(crate) fn hostname_within(hostname: &str, domain: &str) -> bool {
    if hostname.eq_ignore_ascii_case(domain) {
        return true;
    }
    hostname.len() > domain.len()
        && hostname.is_char_boundary(hostname.len() - domain.len())
        && hostname[hostname.len() - domain.len()..].eq_ignore_ascii_case(domain)
        && hostname.as_bytes()[hostname.len() - domain.len() - 1] == b'.'
}

/// Determine whether a request is *third-party* with respect to the page
/// that issued it: the request hostname's registrable domain differs from
/// the page hostname's registrable domain. Allocation-free for normalised
/// hostnames (the common case — [`crate::url::ParsedUrl`] and
/// [`crate::FilterRequest`] lower-case theirs at construction).
/// The reference the request view's party-ness is tested against.
#[cfg(test)]
pub(crate) fn is_third_party(request_hostname: &str, page_hostname: &str) -> bool {
    if request_hostname.is_empty() || page_hostname.is_empty() {
        return false;
    }
    if needs_normalising(request_hostname) || needs_normalising(page_hostname) {
        return registrable_domain(request_hostname) != registrable_domain(page_hostname);
    }
    registrable_suffix(request_hostname) != registrable_suffix(page_hostname)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn etld1_basic() {
        assert_eq!(registrable_domain("pixel.wp.com"), "wp.com");
        assert_eq!(registrable_domain("wp.com"), "wp.com");
        assert_eq!(registrable_domain("i0.wp.com"), "wp.com");
        assert_eq!(registrable_domain("cdn.google.com"), "google.com");
    }

    #[test]
    fn etld1_multi_label_suffix() {
        assert_eq!(registrable_domain("static.bbc.co.uk"), "bbc.co.uk");
        assert_eq!(
            registrable_domain("www.forevernew.com.au"),
            "forevernew.com.au"
        );
        assert_eq!(registrable_domain("radioshack.com.mx"), "radioshack.com.mx");
        assert_eq!(registrable_domain("cdn.peachjohn.co.jp"), "peachjohn.co.jp");
    }

    #[test]
    fn etld1_single_label_and_ip() {
        assert_eq!(registrable_domain("localhost"), "localhost");
        assert_eq!(registrable_domain("192.168.1.20"), "192.168.1.20");
    }

    #[test]
    fn trailing_dot_and_case_normalised() {
        assert_eq!(registrable_domain("Stats.WP.com."), "wp.com");
    }

    #[test]
    fn registrable_suffix_borrows_from_normalised_input() {
        assert_eq!(registrable_suffix("pixel.wp.com"), "wp.com");
        assert_eq!(registrable_suffix("static.bbc.co.uk"), "bbc.co.uk");
        assert_eq!(registrable_suffix("bbc.co.uk"), "bbc.co.uk");
        assert_eq!(registrable_suffix("localhost"), "localhost");
        assert_eq!(registrable_suffix("10.0.0.1"), "10.0.0.1");
        // Agrees with the allocating wrapper on already-normalised input.
        for host in ["a.b.c.d.example.com", "x.co.jp", "deep.shop.example.co.uk"] {
            assert_eq!(registrable_suffix(host), registrable_domain(host));
        }
    }

    #[test]
    fn hostname_within_is_case_insensitive_without_allocation() {
        assert!(hostname_within("CDN.Google.COM", "google.com"));
        assert!(hostname_within("cdn.google.com", "GOOGLE.com"));
        assert!(!hostname_within("notgoogle.com", "GOOGLE.com"));
    }

    #[test]
    fn within_checks_label_boundaries() {
        assert!(hostname_within("cdn.google.com", "google.com"));
        assert!(hostname_within("google.com", "google.com"));
        assert!(!hostname_within("notgoogle.com", "google.com"));
        assert!(!hostname_within("google.com.evil.net", "google.com"));
    }

    #[test]
    fn third_party_uses_registrable_domain() {
        assert!(!is_third_party("stats.wp.com", "www.wp.com"));
        assert!(is_third_party("stats.wp.com", "somosinvictos.com"));
        assert!(!is_third_party("a.shop.example.co.uk", "example.co.uk"));
    }

    #[test]
    fn hostname_validity() {
        assert!(is_valid_hostname("cdn-1.example.com"));
        assert!(!is_valid_hostname(""));
        assert!(!is_valid_hostname(".example.com"));
        assert!(!is_valid_hostname("-bad.example.com"));
    }

    #[test]
    fn ip_literal_detection() {
        assert!(is_ip_literal("10.0.0.1"));
        assert!(is_ip_literal("255.255.255.255"));
        assert!(is_ip_literal("010.0.0.001"));
        assert!(!is_ip_literal("10.0.0"));
        assert!(!is_ip_literal("10.0.0.1.2"));
        assert!(!is_ip_literal("10.0.0.256"));
        assert!(!is_ip_literal("10..0.1"));
        assert!(!is_ip_literal("a.b.c.d"));
    }

    #[test]
    fn a_signed_number_is_not_an_ip_part() {
        // Rust's integer parser takes a leading `+`; a hostname part does
        // not. Such a host is keyed like every other non-IP host: by its
        // last two labels.
        for host in ["+1.+2.+3.+4", "+1.2.3.4", "1.2.3.+4", "-1.2.3.4"] {
            assert!(!is_ip_literal(host), "{host}");
        }
        assert_eq!(registrable_suffix("+1.2.3.4"), "3.4");
        assert_eq!(registrable_domain("+1.+2.+3.+4"), "+3.+4");
        assert!(!is_third_party("+1.2.3.4", "x.3.4"));
        assert!(is_third_party("1.2.3.4", "x.3.4"));
    }

    #[test]
    fn the_suffix_table_is_sorted_and_within_its_length_bounds() {
        assert!(MULTI_LABEL_SUFFIXES.windows(2).all(|w| w[0] < w[1]));
        let lengths = MULTI_LABEL_SUFFIXES.iter().map(|s| s.len());
        assert_eq!(lengths.clone().min(), Some(*SUFFIX_LEN.start()));
        assert_eq!(lengths.max(), Some(*SUFFIX_LEN.end()));
        assert_eq!(MULTI_LABEL_SUFFIXES.len(), 80);
        assert!(is_multi_label_suffix("co.uk") && is_multi_label_suffix("firm.in"));
        assert!(!is_multi_label_suffix("wp.com") && !is_multi_label_suffix("google.com"));
    }
}
