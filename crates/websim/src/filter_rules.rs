//! Synthetic filter rules for the generated ecosystem.
//!
//! The real EasyList/EasyPrivacy enumerate the tracker domains that exist on
//! the real web. The synthetic ecosystem's ad networks, analytics providers,
//! tag managers and consent platforms do not exist on the real web, so the
//! embedded curated lists cannot know their domains. This module plays the
//! role of the filter-list community: it emits `||domain^$third-party`
//! rules for every *listed* tracking service and host-anchored rules for the
//! dedicated tracking hostnames of mixed platforms (the `pixel.wp.com` /
//! `stats.wp.com` pattern), which is exactly the knowledge the real lists
//! encode. Mixed hostnames are deliberately **not** listed — that is the
//! whole point of the paper: the lists cannot block them without breakage,
//! and only generic endpoint rules catch their tracking traffic.

use crate::ecosystem::{Ecosystem, HostRole};
use filterlist::{parse_rule, FilterRule, ListKind};

/// Render the synthetic rules as filter-list text (useful for persisting a
/// reproducible "list snapshot" next to a crawl).
fn ecosystem_rules_text(ecosystem: &Ecosystem) -> String {
    let mut out = String::from("! Synthetic ecosystem rules generated for this corpus\n");
    for service in &ecosystem.services {
        if service.listed_in_filters {
            out.push_str(&format!("||{}^$third-party\n", service.domain));
        } else if service.kind.is_platform() {
            for host in service.hosts_with_role(HostRole::Tracking) {
                out.push_str(&format!("||{}^\n", host.hostname));
            }
        }
    }
    out
}

/// Parse the synthetic rules into [`FilterRule`]s ready to extend a
/// [`filterlist::FilterEngine`].
fn ecosystem_rules(ecosystem: &Ecosystem) -> Vec<FilterRule> {
    ecosystem_rules_text(ecosystem)
        .lines()
        .filter_map(|line| parse_rule(line, ListKind::Custom))
        .collect()
}

/// Convenience: the engine the reproduction's experiments use — curated
/// EasyList + EasyPrivacy snapshots extended with the ecosystem rules.
pub fn engine_for(ecosystem: &Ecosystem) -> filterlist::FilterEngine {
    let mut engine = filterlist::FilterEngine::easylist_easyprivacy();
    engine.extend_with_rules(ecosystem_rules(ecosystem));
    engine
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecosystem::{build_ecosystem, ServiceKind};
    use crate::profiles::CorpusProfile;
    use filterlist::{FilterRequest, RequestLabel, ResourceType};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eco() -> Ecosystem {
        let mut rng = StdRng::seed_from_u64(77);
        build_ecosystem(&CorpusProfile::small().ecosystem_counts(), &mut rng)
    }

    #[test]
    fn listed_services_get_domain_rules() {
        let eco = eco();
        let text = ecosystem_rules_text(&eco);
        for svc in &eco.services {
            if svc.listed_in_filters {
                assert!(
                    text.contains(&format!("||{}^", svc.domain)),
                    "missing rule for {}",
                    svc.domain
                );
            }
        }
    }

    #[test]
    fn platform_tracking_hosts_get_host_rules_but_mixed_hosts_do_not() {
        let eco = eco();
        let text = ecosystem_rules_text(&eco);
        for svc in eco.services.iter().filter(|s| s.kind.is_platform()) {
            for host in svc.hosts_with_role(HostRole::Tracking) {
                assert!(text.contains(&format!("||{}^", host.hostname)));
            }
            for host in svc.hosts_with_role(HostRole::Mixed) {
                assert!(
                    !text.contains(&format!("||{}^", host.hostname)),
                    "mixed host {} must not be list-blocked",
                    host.hostname
                );
            }
        }
    }

    #[test]
    fn all_rules_parse() {
        let eco = eco();
        let text = ecosystem_rules_text(&eco);
        let rule_lines = text.lines().filter(|l| !l.starts_with('!')).count();
        assert_eq!(ecosystem_rules(&eco).len(), rule_lines);
    }

    #[test]
    fn extended_engine_labels_synthetic_trackers() {
        let eco = eco();
        let engine = engine_for(&eco);
        let ad = eco.of_kind(ServiceKind::AdNetwork)[0];
        let host = &ad.hosts[0].hostname;
        let req = FilterRequest::new(
            &format!("https://{host}/some/unusual/path.js"),
            "publisher-1.com",
            ResourceType::Script,
        )
        .unwrap();
        assert_eq!(engine.label(&req), RequestLabel::Tracking);

        let cdn = eco.of_kind(ServiceKind::FunctionalCdn)[0];
        let host = &cdn.hosts[0].hostname;
        let req = FilterRequest::new(
            &format!("https://{host}/libs/jquery-3.6.0.min.js"),
            "publisher-1.com",
            ResourceType::Script,
        )
        .unwrap();
        assert_eq!(engine.label(&req), RequestLabel::Functional);
    }
}
