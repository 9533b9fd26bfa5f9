//! Parsing of filter list text into [`FilterRule`]s.
//!
//! A filter list is a line-oriented text format. We handle:
//!
//! * `! comment` lines and `[Adblock Plus 2.0]`-style headers — skipped;
//! * cosmetic rules (`##`, `#@#`, `#?#`, `#$#`) — skipped, they hide DOM
//!   elements and never label network requests;
//! * `@@` exception rules;
//! * network rules with an optional `$options` suffix.
//!
//! Rules that carry options the engine cannot evaluate faithfully are
//! dropped (counted in [`ParseStats`]), mirroring how blockers ignore rules
//! they do not understand rather than guessing.

use crate::options::RuleOptions;
use crate::pattern::Pattern;
use crate::rule::{FilterRule, ListKind};

/// Statistics from parsing one list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ParseStats {
    /// Total lines read.
    pub(crate) lines: usize,
    /// Comment / header / empty lines.
    pub(crate) comments: usize,
    /// Cosmetic (element hiding) rules skipped.
    pub(crate) cosmetic: usize,
    /// Network rules successfully parsed.
    pub(crate) network_rules: usize,
    /// Exception (`@@`) rules among the parsed network rules.
    pub(crate) exceptions: usize,
    /// Rules dropped because of unsupported options or empty patterns.
    pub(crate) dropped: usize,
}

/// Result of parsing a list: the usable rules plus statistics.
#[derive(Debug, Clone, Default)]
pub struct ParsedList {
    /// Parsed, usable network rules.
    pub rules: Vec<FilterRule>,
    /// Parse statistics.
    pub(crate) stats: ParseStats,
}

/// Classify a single line and parse it into a rule if it is a network rule.
///
/// Returns `None` for comments, cosmetic rules, and rules the engine cannot
/// honour.
pub fn parse_rule(line: &str, list: ListKind) -> Option<FilterRule> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('!') || trimmed.starts_with('[') {
        return None;
    }
    // Cosmetic rules contain `##`, `#@#`, `#?#` or `#$#` separators.
    if trimmed.contains("##")
        || trimmed.contains("#@#")
        || trimmed.contains("#?#")
        || trimmed.contains("#$#")
    {
        return None;
    }

    let (exception, body) = match trimmed.strip_prefix("@@") {
        Some(rest) => (true, rest),
        None => (false, trimmed),
    };

    // Split off options at the last unescaped `$` that is followed by
    // something that looks like an option list. A `$` inside a URL pattern
    // (rare) would not be followed by a known option, but to keep parsing
    // simple and faithful we follow the common convention: the options
    // separator is the last `$` in the rule.
    let (pattern_text, options_text) = match body.rfind('$') {
        Some(idx) if idx < body.len() => {
            let candidate = &body[idx + 1..];
            // Heuristic used by real parsers: an options section contains
            // only option-ish characters.
            // `*` appears in `$removeparam=utm_*` prefix entries; the
            // curated lists carry no `$`-suffixed pattern text containing
            // it, so admitting it here cannot reclassify a pattern.
            let looks_like_options = !candidate.is_empty()
                && candidate
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || ",~=|-_.*".contains(c));
            if looks_like_options {
                (&body[..idx], candidate)
            } else {
                (body, "")
            }
        }
        _ => (body, ""),
    };

    let options = RuleOptions::parse(options_text);
    if options.has_unsupported() {
        return None;
    }
    let pattern_trimmed = pattern_text.trim();
    if pattern_trimmed.is_empty() {
        return None;
    }
    let pattern = Pattern::compile(pattern_trimmed, options.match_case);
    // A rule that matches every URL and has no constraining options would
    // label the whole web as tracking; real lists never ship such a rule and
    // we refuse it here. Removeparam rules are exempt: `*$removeparam=gclid`
    // is the canonical global strip rule, and as a modifier it labels
    // nothing — the engine keeps it out of the blocking index entirely.
    if pattern.is_match_all()
        && options.removeparam.is_empty()
        && options.include_types.is_empty()
        && options.domains.is_empty()
        && options.party == crate::options::PartyConstraint::Any
    {
        return None;
    }

    Some(FilterRule {
        text: trimmed.to_string(),
        pattern,
        options,
        exception,
        list,
    })
}

/// Parse a whole filter list.
pub fn parse_list(text: &str, list: ListKind) -> ParsedList {
    let mut out = ParsedList::default();
    for line in text.lines() {
        out.stats.lines += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('!') || trimmed.starts_with('[') {
            out.stats.comments += 1;
            continue;
        }
        if trimmed.contains("##")
            || trimmed.contains("#@#")
            || trimmed.contains("#?#")
            || trimmed.contains("#$#")
        {
            out.stats.cosmetic += 1;
            continue;
        }
        match parse_rule(trimmed, list) {
            Some(rule) => {
                if rule.exception {
                    out.stats.exceptions += 1;
                }
                out.stats.network_rules += 1;
                out.rules.push(rule);
            }
            None => out.stats.dropped += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skips_comments_headers_and_cosmetics() {
        let list = "[Adblock Plus 2.0]\n! Title: EasyList\nexample.com##.ad-banner\n||ads.net^\n";
        let parsed = parse_list(list, ListKind::EasyList);
        assert_eq!(parsed.rules.len(), 1);
        assert_eq!(parsed.stats.comments, 2);
        assert_eq!(parsed.stats.cosmetic, 1);
        assert_eq!(parsed.stats.network_rules, 1);
    }

    #[test]
    fn counts_exceptions() {
        let list = "||ads.net^\n@@||ads.net/allowed.js$script\n";
        let parsed = parse_list(list, ListKind::EasyPrivacy);
        assert_eq!(parsed.stats.network_rules, 2);
        assert_eq!(parsed.stats.exceptions, 1);
    }

    #[test]
    fn drops_unsupported_options() {
        let rules = [
            "||x.com^$redirect=noop.js",
            "||x.com^$badfilter",
            "||x.com^$important",
            "@@||x.com^$generichide",
            "@@||x.com^$genericblock",
        ];
        for rule in rules {
            assert!(parse_rule(rule, ListKind::EasyList).is_none(), "{rule}");
        }
        let parsed = parse_list(&rules.join("\n"), ListKind::EasyList);
        assert_eq!(parsed.stats.dropped, rules.len());
    }

    #[test]
    fn drops_match_all_rules() {
        assert!(parse_rule("*", ListKind::EasyList).is_none());
        assert!(parse_rule("*$script", ListKind::EasyList).is_some());
        // Anchors and wildcards alone match every URL too; a constraining
        // option admits each, as it admits `*`.
        for pattern in ["*", "||", "|", "||*", "|*", "*|", "||*|", "|||"] {
            assert!(
                parse_rule(pattern, ListKind::EasyList).is_none(),
                "{pattern}"
            );
            let constrained = format!("{pattern}$third-party");
            assert!(
                parse_rule(&constrained, ListKind::EasyList).is_some(),
                "{constrained}"
            );
        }
    }

    #[test]
    fn a_bare_anchor_labels_nothing() {
        let engine = crate::FilterEngine::from_lists(&[(ListKind::EasyList, "||\n|\n*|\n")]);
        assert_eq!(engine.rule_count(), 0);
        assert_eq!(
            engine.label_url(
                "https://news.example/article.html",
                "news.example",
                crate::ResourceType::Document
            ),
            crate::RequestLabel::Functional
        );
    }

    #[test]
    fn global_removeparam_rules_parse() {
        let r = parse_rule("*$removeparam=gclid", ListKind::EasyPrivacy).unwrap();
        assert_eq!(r.options.removeparam, vec!["gclid".to_string()]);
        let prefix = parse_rule("*$removeparam=utm_*", ListKind::EasyPrivacy).unwrap();
        assert_eq!(prefix.options.removeparam, vec!["utm_*".to_string()]);
        let scoped = parse_rule(
            "||shop.example^$removeparam=mc_eid,domain=news.example",
            ListKind::Custom,
        )
        .unwrap();
        assert_eq!(scoped.options.removeparam, vec!["mc_eid".to_string()]);
        assert_eq!(scoped.options.domains.len(), 1);
    }

    #[test]
    fn dollar_inside_pattern_without_options_is_kept() {
        // `$` followed by non-option characters stays part of the pattern.
        let r = parse_rule("/path/$weird/file.js", ListKind::EasyList);
        // `weird/file.js` contains '/', so it is not an option list.
        assert!(r.is_some());
    }

    #[test]
    fn options_are_attached() {
        let r = parse_rule("||cdn.net^$script,third-party", ListKind::EasyList).unwrap();
        assert_eq!(r.options.include_types.len(), 1);
    }

    #[test]
    fn empty_pattern_is_dropped() {
        assert!(parse_rule("$script", ListKind::EasyList).is_none());
    }
}
