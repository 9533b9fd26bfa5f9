//! Compilation and matching of the URL pattern part of a network filter
//! rule (everything before the `$` options separator).
//!
//! The Adblock Plus pattern language is small but subtle:
//!
//! * `*` matches any run of characters (including none);
//! * `^` matches a *separator*: any character that is not alphanumeric and
//!   not one of `_ - . %`, or the end of the URL;
//! * a leading `||` anchors the pattern at the beginning of a hostname
//!   label boundary (so `||example.com` matches `https://cdn.example.com/`
//!   and `https://example.com/` but not `https://notexample.com/`);
//! * a leading `|` anchors at the very start of the URL, a trailing `|`
//!   anchors at the very end;
//! * matching is case-insensitive unless the rule carries `$match-case`.
//!
//! We avoid a general regex engine: patterns are compiled into a sequence of
//! wildcard-separated *segments*, each a sequence of literal bytes and
//! separator placeholders, matched with a simple greedy scan. This is the
//! same strategy production blockers use and is linear in practice because
//! segments are short.

use crate::url::UrlView;

/// How the start of a pattern is anchored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Anchor {
    /// Unanchored: the pattern may match anywhere in the URL.
    None,
    /// `|pattern`: must match at the first byte of the URL.
    UrlStart,
    /// `||pattern`: must match at the start of the hostname or at a label
    /// boundary inside it.
    Hostname,
}

/// One element of a compiled pattern segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Atom {
    /// A literal (already lower-cased unless `match_case`) byte.
    Literal(u8),
    /// The `^` separator class.
    Separator,
}

/// A run of atoms between wildcards.
///
/// Matching is organised around the segment's longest all-literal *prefix*,
/// kept as contiguous bytes: positional matches memcmp it, and unanchored
/// scans skip through the text on the prefix's statistically rarest byte
/// instead of probing every offset. Most real filter segments are entirely
/// literal, so the atom-by-atom loop only runs for `^` separators.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Segment {
    atoms: Vec<Atom>,
    /// Longest all-literal prefix of `atoms`, contiguous for memcmp.
    lit_prefix: Box<[u8]>,
    /// Index into `lit_prefix` of its rarest byte (by URL byte statistics);
    /// unanchored scans hunt for that byte first. 0 when the prefix is
    /// empty.
    skip: usize,
}

/// Find the first occurrence of `needle` at or after `from`, eight bytes at
/// a time (SWAR — std has no public `memchr` and the per-byte scan was the
/// hottest loop of the candidate-match path).
fn find_byte(haystack: &[u8], needle: u8, from: usize) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let broadcast = LO.wrapping_mul(u64::from(needle));
    let n = haystack.len();
    let mut i = from;
    while i + 8 <= n {
        let word = u64::from_ne_bytes(haystack[i..i + 8].try_into().expect("8-byte chunk"));
        let x = word ^ broadcast;
        let found = x.wrapping_sub(LO) & !x & HI;
        if found != 0 {
            let off = if cfg!(target_endian = "little") {
                (found.trailing_zeros() / 8) as usize
            } else {
                (found.leading_zeros() / 8) as usize
            };
            let at = i + off;
            if haystack[at] == needle {
                return Some(at);
            }
            // Borrow artifact: the `(x - LO) & !x & HI` trick can flag a
            // byte more significant than the true match, and on big-endian
            // targets "more significant" is *earlier* in memory, so the
            // first flag may be spurious. The true match then lies later
            // in this same word — find it byte-wise.
            if let Some(rest) = haystack[at + 1..i + 8].iter().position(|&b| b == needle) {
                return Some(at + 1 + rest);
            }
            debug_assert!(false, "SWAR flag without a matching byte in the word");
        }
        i += 8;
    }
    while i < n {
        if haystack[i] == needle {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// How rare a byte is in URL text — higher is rarer. Coarse buckets are
/// enough: the point is to skip-scan on `q` or `3` rather than `/` or `e`.
fn url_byte_rarity(b: u8) -> u8 {
    match b {
        b'/' | b'.' | b':' | b'e' | b't' | b'a' | b'o' | b'i' | b'n' | b's' | b'r' | b'c' => 0,
        b'h' | b'p' | b'm' | b'd' | b'l' | b'u' | b'w' | b'g' | b'-' | b'=' | b'?' | b'&' => 1,
        b'0'..=b'9' => 3,
        b'a'..=b'z' => 2,
        _ => 4,
    }
}

impl Segment {
    fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Populate the literal-prefix fast path (call once after building).
    fn finalise(&mut self) {
        let prefix: Vec<u8> = self
            .atoms
            .iter()
            .map_while(|a| match a {
                Atom::Literal(b) => Some(*b),
                Atom::Separator => None,
            })
            .collect();
        self.skip = prefix
            .iter()
            .enumerate()
            .max_by_key(|(_, &b)| url_byte_rarity(b))
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.lit_prefix = prefix.into_boxed_slice();
    }

    /// Match the atoms *after* the literal prefix, starting at `i`.
    ///
    /// A trailing `^` may also match the end of the string ("virtual
    /// separator").
    fn match_tail(&self, text: &[u8], mut i: usize) -> Option<usize> {
        let tail = &self.atoms[self.lit_prefix.len()..];
        for (idx, atom) in tail.iter().enumerate() {
            match atom {
                Atom::Literal(b) => {
                    if i >= text.len() || text[i] != *b {
                        return None;
                    }
                    i += 1;
                }
                Atom::Separator => {
                    if i >= text.len() {
                        // `^` at end of input is only acceptable as the
                        // final atom ("virtual separator").
                        if idx == tail.len() - 1 {
                            return Some(i);
                        }
                        return None;
                    }
                    if is_separator_byte(text[i]) {
                        i += 1;
                    } else {
                        return None;
                    }
                }
            }
        }
        Some(i)
    }

    /// Try to match this segment at byte offset `pos` of `text`.
    fn match_at(&self, text: &[u8], pos: usize) -> Option<usize> {
        let prefix = &self.lit_prefix;
        let end = pos.checked_add(prefix.len())?;
        if end > text.len() || text[pos..end] != prefix[..] {
            return None;
        }
        if prefix.len() == self.atoms.len() {
            return Some(end);
        }
        self.match_tail(text, end)
    }

    /// Find the first position `>= from` where this segment matches.
    fn find_from(&self, text: &[u8], from: usize) -> Option<(usize, usize)> {
        if self.atoms.is_empty() {
            return Some((from, from));
        }
        if self.lit_prefix.is_empty() {
            // Leading separator atom: positional scan (rare pattern shape).
            let mut start = from;
            while start <= text.len() {
                if let Some(end) = self.match_at(text, start) {
                    return Some((start, end));
                }
                start += 1;
            }
            return None;
        }
        // Skip-scan on the prefix's rarest byte, then verify around it.
        let prefix = &self.lit_prefix;
        let skip_byte = prefix[self.skip];
        let mut at = from + self.skip;
        while let Some(found) = find_byte(text, skip_byte, at) {
            let start = found - self.skip;
            if let Some(end) = self.match_at(text, start) {
                return Some((start, end));
            }
            at = found + 1;
        }
        None
    }
}

/// Separator class for `^`: anything that is not a letter, digit, or one of
/// `_`, `-`, `.`, `%`.
fn is_separator_byte(b: u8) -> bool {
    !(b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.' || b == b'%')
}

/// A compiled URL pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    /// Original pattern text, trimmed but with anchors (`||`, `|`) still
    /// present. [`Pattern::index_token_hashes`] depends on this: it strips
    /// the anchors itself and uses their presence to decide whether the
    /// pattern's edge runs are boundary-safe index tokens.
    source: String,
    anchor: Anchor,
    end_anchored: bool,
    case_sensitive: bool,
    /// Wildcard-separated segments. An empty list means "match everything".
    segments: Vec<Segment>,
    /// For `||` rules: the leading hostname portion of the pattern (up to the
    /// first `/ ^ * ?`), used to pre-filter by request hostname.
    host_prefix: String,
}

impl Pattern {
    /// Compile a pattern string (anchors included) into a matcher.
    pub(crate) fn compile(raw: &str, case_sensitive: bool) -> Pattern {
        let mut text = raw.trim().to_string();
        let mut anchor = Anchor::None;
        let mut end_anchored = false;

        if let Some(stripped) = text.strip_prefix("||") {
            anchor = Anchor::Hostname;
            text = stripped.to_string();
        } else if let Some(stripped) = text.strip_prefix('|') {
            anchor = Anchor::UrlStart;
            text = stripped.to_string();
        }
        if let Some(stripped) = text.strip_suffix('|') {
            end_anchored = true;
            text = stripped.to_string();
        }

        // Leading and trailing `*` are redundant (unanchored match already
        // allows arbitrary prefix/suffix); trim them so the segment list is
        // canonical.
        if anchor == Anchor::None {
            while text.starts_with('*') {
                text.remove(0);
            }
        }
        if !end_anchored {
            while text.ends_with('*') {
                text.pop();
            }
        }

        let normalised = if case_sensitive {
            text.clone()
        } else {
            text.to_ascii_lowercase()
        };

        let mut segments = Vec::new();
        let mut current = Segment::default();
        for &b in normalised.as_bytes() {
            match b {
                b'*' => {
                    segments.push(std::mem::take(&mut current));
                    // Collapse consecutive wildcards.
                    if segments.last().map(|s: &Segment| s.atoms.is_empty()) == Some(true)
                        && segments.len() >= 2
                        && segments[segments.len() - 2].atoms.is_empty()
                    {
                        segments.pop();
                    }
                }
                b'^' => current.atoms.push(Atom::Separator),
                _ => current.atoms.push(Atom::Literal(b)),
            }
        }
        segments.push(current);
        for segment in &mut segments {
            segment.finalise();
        }

        // Host prefix for `||` anchored rules: the pattern text up to the
        // first path/separator/wildcard character.
        let host_prefix = if anchor == Anchor::Hostname {
            normalised
                .split(['/', '^', '*', '?'])
                .next()
                .unwrap_or("")
                .to_string()
        } else {
            String::new()
        };

        Pattern {
            source: raw.trim().to_string(),
            anchor,
            end_anchored,
            case_sensitive,
            segments,
            host_prefix,
        }
    }

    /// `true` when the pattern contains no constraining text at all and
    /// would match every URL: it has no literal and no `^`, only anchors and
    /// wildcards (`*`, `||`, `|*`, `*|`, `||*|`). An anchor alone constrains
    /// nothing — every URL has a start, an end and a hostname.
    pub fn is_match_all(&self) -> bool {
        self.segments.iter().all(|s| s.atoms.is_empty())
    }

    /// Extract "quality token" hashes for the rule index, using the same
    /// zero-allocation tokenizer as query-time URL tokenisation
    /// ([`crate::tokens`]), so the two sides can never drift.
    ///
    /// A pattern run only qualifies as an index token when it is guaranteed
    /// to appear as a *maximal* alphanumeric run in every matching URL —
    /// i.e. it is bounded on both sides. A side is bounded when the adjacent
    /// pattern character is a non-wildcard separator (any non-alphanumeric
    /// literal, or `^`), or when the pattern edge itself is anchored (`|`,
    /// `||`, or a trailing `|`). Unbounded runs are skipped: the rule `/ads`
    /// matches `/adserver/x.png`, whose URL token is `adserver`, not `ads`,
    /// so filing the rule under `ads` would be a false negative. (The old
    /// string tokenizer had exactly that bug.) Rules with no bounded run
    /// fall back to [`Pattern::index_run_prefixes`].
    pub(crate) fn index_token_hashes(&self) -> Vec<u64> {
        self.left_bounded_runs()
            .filter_map(|(token, right_bounded)| right_bounded.then_some(token.hash))
            .collect()
    }

    /// The run prefixes ([`crate::tokens::Token::prefix`]) of the pattern's
    /// runs that are bounded on the left, in pattern order: the rule index's
    /// key for a rule with no run bounded on both sides.
    ///
    /// A left-bounded run starts a maximal alphanumeric run in every
    /// matching URL — the byte before it is a non-wildcard separator, or the
    /// run starts at an anchor — so the URL run holding it starts at the
    /// same byte, is at least as long, and shares its first three bytes.
    /// `/banner300x250` is filed under `ban`; `ads/` and `*ads` have no such
    /// run and stay always-checked.
    pub(crate) fn index_run_prefixes(&self) -> Vec<u64> {
        self.left_bounded_runs()
            .map(|(token, _)| token.prefix)
            .collect()
    }

    /// The pattern's left-bounded runs, each with whether it is also
    /// bounded on the right. A side is bounded when the adjacent pattern
    /// byte is not `*`, or when the pattern edge there is anchored. Tokens
    /// are hashed lower-cased: URL tokenisation lower-cases too, so
    /// case-sensitive rules still index soundly.
    fn left_bounded_runs(&self) -> impl Iterator<Item = (crate::tokens::Token, bool)> + '_ {
        let text = self
            .source
            .strip_prefix("||")
            .or_else(|| self.source.strip_prefix('|'))
            .unwrap_or(&self.source);
        let bytes = text.strip_suffix('|').unwrap_or(text).as_bytes();
        crate::tokens::TokenHashes::new(bytes).filter_map(move |token| {
            let left_bounded = if token.start == 0 {
                self.anchor != Anchor::None
            } else {
                bytes[token.start - 1] != b'*'
            };
            let right_bounded = if token.end == bytes.len() {
                self.end_anchored
            } else {
                bytes[token.end] != b'*'
            };
            left_bounded.then_some((token, right_bounded))
        })
    }

    /// Match the pattern against a parsed URL.
    ///
    /// Matching reads the URL's lower-cased text (or the raw spelling for
    /// `$match-case` rules) and, for `||` rules, its hostname and hostname
    /// offset — no intermediate strings are built.
    pub(crate) fn matches(&self, url: &UrlView<'_>) -> bool {
        let text: &[u8] = if self.case_sensitive {
            url.raw.as_bytes()
        } else {
            url.lower.as_bytes()
        };

        match self.anchor {
            Anchor::None => self.match_unanchored(text),
            Anchor::UrlStart => self.match_from(text, 0),
            Anchor::Hostname => self.match_hostname_anchored(text, url),
        }
    }

    fn match_unanchored(&self, text: &[u8]) -> bool {
        // Greedy left-to-right: find the first segment anywhere, then each
        // subsequent segment after the previous match. End anchoring
        // requires the last segment to end exactly at the end of the text,
        // so for that case we anchor the last segment at the tail.
        self.match_segments_from_any(text, 0)
    }

    fn match_from(&self, text: &[u8], start: usize) -> bool {
        // First segment must match exactly at `start`.
        let mut pos = start;
        let mut iter = self.segments.iter().peekable();
        if let Some(first) = iter.next() {
            match first.match_at(text, pos) {
                Some(end) => pos = end,
                None => return false,
            }
        }
        self.match_remaining(text, pos, iter)
    }

    fn match_segments_from_any(&self, text: &[u8], start: usize) -> bool {
        let mut iter = self.segments.iter().peekable();
        let mut pos = start;
        if let Some(first) = iter.next() {
            // The first segment may begin anywhere at or after `start`, but
            // if it is also the last segment and the pattern is end
            // anchored we must align it with the end of the text.
            if self.segments.len() == 1 && self.end_anchored {
                let seg_len_min = first.len();
                if text.len() < start + seg_len_min.saturating_sub(0) {
                    // May still match if trailing separators absorb end; fall
                    // through to scan.
                }
                // Scan for a match that ends exactly at text.len().
                let mut from = start;
                while let Some((_s, e)) = first.find_from(text, from) {
                    if e == text.len() {
                        return true;
                    }
                    from = _s + 1;
                }
                return false;
            }
            match first.find_from(text, pos) {
                Some((_s, e)) => pos = e,
                None => return false,
            }
        }
        self.match_remaining(text, pos, iter)
    }

    fn match_remaining<'a, I>(
        &self,
        text: &[u8],
        mut pos: usize,
        mut iter: std::iter::Peekable<I>,
    ) -> bool
    where
        I: Iterator<Item = &'a Segment>,
    {
        while let Some(seg) = iter.next() {
            let is_last = iter.peek().is_none();
            if is_last && self.end_anchored {
                // Must end exactly at text end.
                let mut from = pos;
                loop {
                    match seg.find_from(text, from) {
                        Some((s, e)) => {
                            if e == text.len() {
                                return true;
                            }
                            from = s + 1;
                        }
                        None => return false,
                    }
                }
            }
            match seg.find_from(text, pos) {
                Some((_s, e)) => pos = e,
                None => return false,
            }
        }
        if self.end_anchored {
            pos == text.len()
        } else {
            true
        }
    }

    fn match_hostname_anchored(&self, text: &[u8], url: &UrlView<'_>) -> bool {
        if self.host_prefix.is_empty() {
            // Degenerate `||` rule; treat as unanchored.
            return self.match_unanchored(text);
        }
        // The anchor sits at a label boundary of the request hostname —
        // its start or just after a `.` — where the host prefix begins
        // (`||ads.com` at `sub.ads.com`, and `||ads.` style rules, whose
        // prefix ends where a deeper label continues). The hostname's byte
        // offset in the URL text was computed when the URL was parsed.
        anchor_offsets(url.hostname.as_bytes(), self.host_prefix.as_bytes()).any(|at| {
            let start = url.host_start + at;
            start <= text.len() && self.match_from(text, start)
        })
    }
}

/// The offsets of `hostname`, in increasing order, at which a `||` rule
/// with host prefix `prefix` may anchor: the label starts (offset 0 and
/// each offset after a `.`) where `prefix` begins. Comparing bytes at label
/// starts visits every position a substring search for `prefix` would
/// accept, without setting a searcher up per call, and never slices inside
/// a multi-byte character.
fn anchor_offsets<'h>(hostname: &'h [u8], prefix: &'h [u8]) -> impl Iterator<Item = usize> + 'h {
    let dots = hostname.iter().enumerate().filter(|&(_, &b)| b == b'.');
    std::iter::once(0)
        .chain(dots.map(|(dot, _)| dot + 1))
        .filter(move |&at| hostname[at..].starts_with(prefix))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The substring-search loop [`anchor_offsets`] replaced, kept as its
    /// oracle, with one repair: the next search starts at the next char
    /// boundary, where the original sliced one byte past the match and
    /// panicked inside a multi-byte first character.
    fn reference_anchor_offsets(hostname: &str, prefix: &str) -> Vec<usize> {
        let hbytes = hostname.as_bytes();
        let mut offsets = Vec::new();
        let mut idx = 0;
        while let Some(found) = hostname[idx..].find(prefix) {
            let at = idx + found;
            if at == 0 || hbytes[at - 1] == b'.' {
                offsets.push(at);
            }
            idx = at + 1;
            while !hostname.is_char_boundary(idx) {
                idx += 1;
            }
            if idx >= hostname.len() {
                break;
            }
        }
        offsets
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Hosts and prefixes over a small alphabet, so that prefixes recur
        /// inside labels, across dots and overlapping themselves.
        #[test]
        fn label_starts_are_the_offsets_the_substring_search_accepted(
            hostname in "[ab.üA]{0,14}",
            prefix in "[ab.ü]{1,4}",
        ) {
            let scanned: Vec<usize> =
                anchor_offsets(hostname.as_bytes(), prefix.as_bytes()).collect();
            prop_assert_eq!(
                scanned,
                reference_anchor_offsets(&hostname, &prefix),
                "{:?} in {:?}", prefix, hostname
            );
        }

        #[test]
        fn label_starts_agree_on_hostname_shaped_text(
            labels in prop::collection::vec(prop_oneof!["[a-c]{0,3}", "ü", "[0-9]{1,3}", "\\+1"], 0..6),
            trailing in "\\.{0,2}",
            take in 0usize..12,
            len in 1usize..8,
        ) {
            let hostname = format!("{}{trailing}", labels.join("."));
            // A prefix cut out of the hostname itself, at char boundaries.
            let chars: Vec<char> = hostname.chars().collect();
            let prefix: String = if chars.is_empty() {
                "a".to_string()
            } else {
                let from = take % chars.len();
                chars[from..(from + len).min(chars.len())].iter().collect()
            };
            let scanned: Vec<usize> =
                anchor_offsets(hostname.as_bytes(), prefix.as_bytes()).collect();
            prop_assert_eq!(
                scanned,
                reference_anchor_offsets(&hostname, &prefix),
                "{:?} in {:?}", prefix, hostname
            );
        }
    }

    fn m(pattern: &str, url: &str) -> bool {
        let p = Pattern::compile(pattern, false);
        let parsed = crate::url::ParsedUrl::parse(url).expect("test URL should parse");
        p.matches(&parsed.view())
    }

    #[test]
    fn plain_substring() {
        assert!(m("/ads/", "https://example.com/ads/banner.png"));
        assert!(!m("/ads/", "https://example.com/assets/banner.png"));
    }

    #[test]
    fn wildcard() {
        assert!(m("/banner*.gif", "https://x.com/banner_300x250.gif"));
        assert!(!m("/banner*.gif", "https://x.com/banner_300x250.png"));
    }

    #[test]
    fn separator_matches_punctuation_and_end() {
        assert!(m("||example.com^", "https://example.com/"));
        assert!(m("||example.com^", "https://example.com:8000/"));
        assert!(m("||example.com^", "https://example.com"));
        assert!(!m("||example.com^", "https://example.company.org/"));
    }

    #[test]
    fn hostname_anchor_respects_label_boundary() {
        assert!(m("||ads.com^", "https://ads.com/x"));
        assert!(m("||ads.com^", "https://sub.ads.com/x"));
        assert!(!m("||ads.com^", "https://badads.com/x"));
        assert!(!m("||ads.com^", "https://example.com/ads.com/x"));
    }

    #[test]
    fn a_host_prefix_starting_with_a_multi_byte_character_anchors_without_panicking() {
        // The search loop resumed one byte past a match, inside the `ü`.
        assert!(!m("||ü.example.com/ads/", "https://ü.example.com/other.js"));
        assert!(m("||ü.example.com/ads/", "https://ü.example.com/ads/x.js"));
        assert!(m(
            "||ü.example.com/ads/",
            "https://cdn.ü.example.com/ads/x.js"
        ));
        assert!(!m(
            "||ü.example.com/ads/",
            "https://xü.example.com/ads/x.js"
        ));
    }

    #[test]
    fn url_start_anchor() {
        assert!(m("|https://cdn.", "https://cdn.example.com/a.js"));
        assert!(!m("|https://cdn.", "http://www.example.com/https://cdn."));
    }

    #[test]
    fn end_anchor() {
        assert!(m(".js|", "https://example.com/app.js"));
        assert!(!m(".js|", "https://example.com/app.js?x=1"));
    }

    #[test]
    fn both_anchors_exact_match() {
        assert!(m("|https://example.com/a.js|", "https://example.com/a.js"));
        assert!(!m(
            "|https://example.com/a.js|",
            "https://example.com/a.js.map"
        ));
    }

    #[test]
    fn case_insensitive_by_default() {
        assert!(m("/Banner/", "https://x.com/banner/1.png"));
    }

    #[test]
    fn case_sensitive_when_requested() {
        let p = Pattern::compile("/Banner/", true);
        let lower = crate::url::ParsedUrl::parse("https://x.com/banner/1.png").unwrap();
        assert!(!p.matches(&lower.view()));
        let upper = crate::url::ParsedUrl::parse("https://x.com/Banner/1.png").unwrap();
        assert!(p.matches(&upper.view()));
    }

    #[test]
    fn match_all_detection() {
        // Anchors and wildcards alone constrain nothing.
        for pattern in ["*", "||", "|", "||*", "|*", "*|", "||*|", "|||", "**"] {
            assert!(Pattern::compile(pattern, false).is_match_all(), "{pattern}");
            for url in ["https://news.example/article.html", "http://a.io"] {
                assert!(m(pattern, url), "{pattern} on {url}");
            }
        }
        for pattern in ["||a.com^", "^", "|^", "||^", "/", "|a"] {
            assert!(
                !Pattern::compile(pattern, false).is_match_all(),
                "{pattern}"
            );
        }
    }

    #[test]
    fn index_token_hashes_extract_bounded_runs() {
        use crate::tokens::fnv1a64;
        let p = Pattern::compile("||google-analytics.com/analytics.js", false);
        let hashes = p.index_token_hashes();
        assert!(hashes.contains(&fnv1a64(b"google")));
        assert!(hashes.contains(&fnv1a64(b"analytics")));
        assert!(hashes.contains(&fnv1a64(b"com")));
        // The trailing `js` run is below the length floor; the trailing
        // `analytics` run before `.js` is bounded by dots on both sides.
        assert!(!hashes.contains(&fnv1a64(b"js")));
    }

    #[test]
    fn index_token_hashes_respect_boundaries() {
        use crate::tokens::fnv1a64;
        // Unanchored leading/trailing runs can extend inside a matching URL
        // (`/ads` matches `/adserver`), so they must not become index tokens.
        assert!(Pattern::compile("/ads", false)
            .index_token_hashes()
            .is_empty());
        assert!(Pattern::compile("ads/", false)
            .index_token_hashes()
            .is_empty());
        assert!(Pattern::compile("banner300x250", false)
            .index_token_hashes()
            .is_empty());
        // Bounded on both sides by separators → usable.
        assert_eq!(
            Pattern::compile("/ads/", false).index_token_hashes(),
            vec![fnv1a64(b"ads")]
        );
        assert_eq!(
            Pattern::compile("-analytics.", false).index_token_hashes(),
            vec![fnv1a64(b"analytics")]
        );
        // Anchors bound the outer edges.
        assert!(Pattern::compile("|https://cdn.", false)
            .index_token_hashes()
            .contains(&fnv1a64(b"https")));
        assert!(Pattern::compile("||ads.example^", false)
            .index_token_hashes()
            .contains(&fnv1a64(b"ads")));
        assert_eq!(
            Pattern::compile(".js|", false).index_token_hashes(),
            Vec::<u64>::new()
        );
        assert!(Pattern::compile("/app.js|", false)
            .index_token_hashes()
            .contains(&fnv1a64(b"app")));
        // Wildcards leave the adjacent run unbounded on that side.
        assert_eq!(
            Pattern::compile("/banner*.gif", false).index_token_hashes(),
            Vec::<u64>::new()
        );
        assert_eq!(
            Pattern::compile("/banner/*/track.gif", false).index_token_hashes(),
            vec![fnv1a64(b"banner"), fnv1a64(b"track")]
        );
    }

    #[test]
    fn index_run_prefixes_take_the_first_three_bytes_of_left_bounded_runs() {
        use crate::tokens::fnv1a64;
        let prefixes = |pattern: &str| Pattern::compile(pattern, false).index_run_prefixes();
        assert_eq!(prefixes("/banner300x250"), vec![fnv1a64(b"ban")]);
        assert_eq!(prefixes("/ads"), vec![fnv1a64(b"ads")]);
        // Anchors bound the left edge; case folds as the URL side does.
        assert_eq!(prefixes("|Https"), vec![fnv1a64(b"htt")]);
        assert_eq!(
            prefixes("||ads.example/track"),
            vec![fnv1a64(b"ads"), fnv1a64(b"exa"), fnv1a64(b"tra")]
        );
        // A `^` bounds like any separator; a wildcard does not.
        assert_eq!(
            prefixes("^utm_source"),
            vec![fnv1a64(b"utm"), fnv1a64(b"sou")]
        );
        assert_eq!(prefixes("/ban*ner300"), vec![fnv1a64(b"ban")]);
        // No run bounded on the left.
        for pattern in ["ads/", "banner300x250", "*ads", "/t?", "|*ads"] {
            assert!(prefixes(pattern).is_empty(), "{pattern}");
        }
    }

    #[test]
    fn separator_inside_pattern() {
        assert!(m("||example.com^ads^", "https://example.com/ads/"));
        assert!(!m("||example.com^ads^", "https://example.com/adsx"));
    }

    #[test]
    fn wildcard_spanning_segments() {
        assert!(m("||cdn.*.com^", "https://cdn.shop.com/x.js"));
        assert!(!m("||cdn.*.com^", "https://img.shop.com/x.js"));
    }

    #[test]
    fn query_parameter_pattern() {
        assert!(m("utm_source=", "https://example.com/page?utm_source=mail"));
        assert!(m("^utm_medium=", "https://example.com/page?utm_medium=cpc"));
    }
}
