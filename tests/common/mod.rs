//! The verdict oracle shared by the integration tests: what the walk must
//! answer, derived from a from-scratch classification by string key alone.

use trackersift::{Classification, Granularity, HierarchyResult, ResourceKey, Verdict};

/// The verdict a request must get from a state whose from-scratch
/// classification is `hierarchy`: decided at the first level where its key
/// is a member and not mixed; `Mixed` at the last level it was a (mixed)
/// member of when it falls off below; `Unknown` for an unknown domain.
pub fn expected_verdict(
    hierarchy: &HierarchyResult,
    domain: &str,
    hostname: &str,
    script: &str,
    method: &str,
) -> Verdict {
    let method_key = ResourceKey::method_label(script, method);
    let keys = [domain, hostname, script, method_key.as_str()];
    let mut verdict = Verdict::Unknown;
    for (granularity, key) in Granularity::ALL.into_iter().zip(keys) {
        let level = &hierarchy.level(granularity).resources;
        let Some(entry) = level.iter().find(|resource| resource.key == key) else {
            break;
        };
        verdict = Verdict::Decided {
            classification: entry.classification,
            granularity,
        };
        if entry.classification != Classification::Mixed {
            break;
        }
    }
    verdict
}
