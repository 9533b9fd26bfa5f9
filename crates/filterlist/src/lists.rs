//! Embedded curated snapshots of EasyList and EasyPrivacy.
//!
//! The paper labels requests with the full community-maintained lists
//! (tens of thousands of rules, updated continuously). Shipping a live
//! snapshot is neither possible offline nor necessary: what the pipeline
//! needs is a deterministic oracle with the same *structure* — domain
//! anchored rules for known ad/analytics services, path rules that hit
//! tracking endpoints on otherwise functional hosts, and exception rules.
//! These snapshots are hand-curated to cover the real-world services named
//! in the paper plus the generic endpoint shapes the synthetic corpus emits.

/// Curated EasyList snapshot (advertising rules).
pub(crate) const EASYLIST_CURATED: &str = include_str!("../data/easylist_curated.txt");

/// Curated EasyPrivacy snapshot (tracking rules).
pub(crate) const EASYPRIVACY_CURATED: &str = include_str!("../data/easyprivacy_curated.txt");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_list;
    use crate::rule::ListKind;

    #[test]
    fn easylist_snapshot_parses_cleanly() {
        let parsed = parse_list(EASYLIST_CURATED, ListKind::EasyList);
        assert!(parsed.stats.network_rules > 80, "{:?}", parsed.stats);
        assert!(parsed.stats.exceptions >= 5);
        assert_eq!(parsed.stats.dropped, 0, "curated list should parse fully");
    }

    #[test]
    fn easyprivacy_snapshot_parses_cleanly() {
        let parsed = parse_list(EASYPRIVACY_CURATED, ListKind::EasyPrivacy);
        assert!(parsed.stats.network_rules > 120, "{:?}", parsed.stats);
        assert!(parsed.stats.exceptions >= 4);
        assert_eq!(parsed.stats.dropped, 0, "curated list should parse fully");
    }

    #[test]
    fn snapshots_do_not_overlap_textually() {
        // Sanity: the two lists target different behaviours and should not
        // duplicate each other's rules wholesale.
        let el: std::collections::HashSet<&str> = EASYLIST_CURATED
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('!') && !l.starts_with('['))
            .collect();
        let overlap = EASYPRIVACY_CURATED
            .lines()
            .filter(|l| el.contains(l))
            .count();
        assert_eq!(overlap, 0);
    }
}
