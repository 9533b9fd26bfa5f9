//! The oracles shared by the integration tests: what the walk must answer,
//! derived from a from-scratch classification by string key alone, and
//! what a commit must record, derived from two classification states.

// Each test binary includes this module and uses a different part of it.
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};
use trackersift::{
    ChangeKind, Classification, Granularity, HierarchyResult, ResourceKey, RevisionChange, Verdict,
};

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

/// Classification state per (granularity index, key): the independent
/// model revisions are checked against.
pub type Model = BTreeMap<(usize, String), Classification>;

/// The model of a from-scratch classification: every member of every level.
pub fn model_of(hierarchy: &HierarchyResult) -> Model {
    Granularity::ALL
        .into_iter()
        .flat_map(|granularity| {
            hierarchy
                .level(granularity)
                .resources
                .iter()
                .map(move |entry| {
                    (
                        (granularity.index(), entry.key.clone()),
                        entry.classification,
                    )
                })
        })
        .collect()
}

/// The transitions between two model states, in the canonical
/// (granularity, key) order the core sorts by.
pub fn model_changes(before: &Model, after: &Model) -> Vec<RevisionChange> {
    let keys: BTreeSet<&(usize, String)> = before.keys().chain(after.keys()).collect();
    keys.into_iter()
        .filter_map(|key| {
            ChangeKind::of(before.get(key).copied(), after.get(key).copied())
                .map(|kind| RevisionChange::new(Granularity::ALL[key.0], key.1.as_str(), kind))
        })
        .collect()
}
