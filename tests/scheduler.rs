//! Integration tests of the continuous re-crawl loop: scheduler runs are
//! deterministic from their seed, the revision-diff algebra agrees with an
//! independent model, fingerprint keying survives the churn that orphans
//! URL keying, and the drift served over `GET /v1/revisions?diff=` is
//! byte-identical to the in-process fold.

mod common;

use common::{model_changes, Model};
use crawler::json::Value;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use trackersift::frames;
use trackersift::{compose, diff_revisions, ChangeKind, RevisionChange, VerdictRevision};
use trackersift_server::client::Client;
use trackersift_suite::prelude::*;

/// A scheduler over a churny ecosystem: 35% of tracker scripts rotate CDNs
/// per epoch (≥ the 30% scenario the acceptance criteria name), 30% re-draw
/// endpoint paths, 25% of sites grow a new pixel.
fn churny(keying: ScriptKeying, sites: usize, seed: u64) -> Scheduler {
    Scheduler::new(
        SchedulerConfig::new(seed)
            .with_sites(sites)
            .with_mutation(MutationConfig::churny())
            .with_keying(keying),
    )
}

// ---------------------------------------------------------------------------
// Determinism: the whole loop — corpus, mutations, crawl order, revision
// ring — replays byte-identically from the seed.
// ---------------------------------------------------------------------------

#[test]
fn same_seed_schedulers_produce_byte_identical_rings() {
    let run = || {
        let mut scheduler = churny(ScriptKeying::Fingerprint, 40, 97);
        let (mut writer, _reader) = scheduler.sifter_pair();
        let mut summaries = Vec::new();
        for _ in 0..10 {
            summaries.push(scheduler.tick(&mut writer));
        }
        let ring = frames::encode_revision_list(writer.published_version(), writer.revisions());
        (summaries, ring, scheduler.stats())
    };
    let (first_summaries, first_ring, first_stats) = run();
    let (second_summaries, second_ring, second_stats) = run();
    assert_eq!(first_summaries, second_summaries);
    assert_eq!(
        first_ring, second_ring,
        "revision rings must be byte-identical"
    );
    // And identical across code changes: the ring's length and FNV-1a
    // digest as recorded for this seed. A change that is meant to alter
    // the ring re-records both and states so in CHANGES.md.
    assert_eq!(first_ring.len(), 6324);
    assert_eq!(
        filterlist::tokens::fnv1a64(&first_ring),
        0xc611_7927_547e_42d5
    );
    assert_eq!(first_stats, second_stats);
    // And the run was not trivial: the ecosystem drifted every epoch after
    // the seed crawl.
    assert!(first_stats.rotated_cdn_scripts > 0);
    assert!(first_stats.drift_events > first_summaries[0].drift_events);
}

// ---------------------------------------------------------------------------
// The diff algebra against an independent model: a ring built from random
// coherent transitions must satisfy diff(a,c) == compose(diff(a,b),
// diff(b,c)), and the direct diff must equal the plain state delta.
// ---------------------------------------------------------------------------

fn class_of(code: u8) -> Option<Classification> {
    match code % 4 {
        0 => None,
        1 => Some(Classification::Tracking),
        2 => Some(Classification::Functional),
        _ => Some(Classification::Mixed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn diff_equals_composed_diffs_against_the_model(
        steps in prop::collection::vec(
            prop::collection::vec((0usize..4, 0usize..6, 0u8..4), 0..6),
            1..8,
        ),
        anchors in (0usize..8, 0usize..8, 0usize..8),
    ) {
        // Build a coherent ring and the model state after every version.
        let mut state = Model::new();
        let mut states = vec![state.clone()];
        let mut ring: Vec<Arc<VerdictRevision>> = Vec::new();
        for (index, step) in steps.iter().enumerate() {
            // Last write wins per key within one commit.
            let mut touched: BTreeMap<(usize, String), Option<Classification>> = BTreeMap::new();
            for &(granularity, key, code) in step {
                touched.insert((granularity, format!("key{key}")), class_of(code));
            }
            let mut changes = Vec::new();
            for (key, new) in touched {
                let old = state.get(&key).copied();
                let Some(kind) = ChangeKind::of(old, new) else {
                    continue;
                };
                changes.push(RevisionChange::new(
                    Granularity::ALL[key.0],
                    key.1.as_str(),
                    kind,
                ));
                match new {
                    Some(class) => state.insert(key, class),
                    None => state.remove(&key),
                };
            }
            ring.push(Arc::new(VerdictRevision::new(index as u64 + 1, changes)));
            states.push(state.clone());
        }

        // Three anchors a <= b <= c inside the ring's diffable span.
        let span = steps.len() + 1;
        let mut picks = [anchors.0 % span, anchors.1 % span, anchors.2 % span];
        picks.sort_unstable();
        let [a, b, c] = picks;

        let ab = diff_revisions(&ring, a as u64, b as u64).expect("diff a..b");
        let bc = diff_revisions(&ring, b as u64, c as u64).expect("diff b..c");
        let ac = diff_revisions(&ring, a as u64, c as u64).expect("diff a..c");

        // Associativity of the fold: the two legs compose into the direct
        // diff exactly, canonical order included.
        prop_assert_eq!(compose(ab.changes(), bc.changes()), ac.changes());
        // And the direct diff is precisely the model's state delta.
        prop_assert_eq!(ac.changes(), model_changes(&states[a], &states[c]));
    }
}

// ---------------------------------------------------------------------------
// The acceptance scenario: under a 10-epoch churny run, fingerprint-keyed
// verdicts survive CDN rotation while URL-keyed verdicts are orphaned.
// ---------------------------------------------------------------------------

#[test]
fn fingerprint_keying_survives_churn_where_url_keying_does_not() {
    let run = |keying: ScriptKeying| {
        let mut scheduler = churny(keying, 40, 2026);
        let (mut writer, _reader) = scheduler.sifter_pair();
        for _ in 0..10 {
            scheduler.tick(&mut writer);
        }
        scheduler.stats()
    };
    let fingerprint = run(ScriptKeying::Fingerprint);
    let url = run(ScriptKeying::Url);

    // Both runs mutate the same web: plenty of rotations and a real probe
    // denominator on each side.
    assert_eq!(fingerprint.rotated_cdn_scripts, url.rotated_cdn_scripts);
    assert!(
        fingerprint.rotated_cdn_scripts >= 30,
        "10 churny epochs must rotate a meaningful share of scripts, got {}",
        fingerprint.rotated_cdn_scripts
    );
    assert!(fingerprint.retention_probes >= 20, "{fingerprint:?}");
    assert!(url.retention_probes >= 20, "{url:?}");
    // The probes read the published table, which between a commit and the
    // next observe *is* the sifter's committed state: the counts are the
    // ones the sifter-side probe produced for this seed.
    assert_eq!(
        (fingerprint.retention_probes, fingerprint.retention_hits),
        (229, 229)
    );
    assert_eq!((url.retention_probes, url.retention_hits), (229, 0));

    let rate = |stats: SchedulerStats| stats.retention_hits as f64 / stats.retention_probes as f64;
    let fingerprint_rate = rate(fingerprint);
    let url_rate = rate(url);
    assert!(
        fingerprint_rate >= 0.9,
        "fingerprint keying must retain >= 90%, got {fingerprint_rate:.3}"
    );
    assert!(
        url_rate <= 0.1,
        "URL keying must lose nearly everything, got {url_rate:.3}"
    );
}

// ---------------------------------------------------------------------------
// Drift over the wire: a server-attached scheduler run serves the exact
// revision ring and diffs an identically-seeded in-process run computes.
// ---------------------------------------------------------------------------

#[test]
fn wire_drift_diffs_are_byte_identical_to_in_process() {
    // The in-process twin.
    let mut twin = churny(ScriptKeying::Fingerprint, 25, 5);
    let (mut twin_writer, _twin_reader) = twin.sifter_pair();
    let mut twin_summaries = Vec::new();
    for _ in 0..3 {
        twin_summaries.push(twin.tick(&mut twin_writer));
    }

    // The same config attached to a server, ticked over the wire.
    let scheduler = churny(ScriptKeying::Fingerprint, 25, 5);
    let (writer, _reader) = scheduler.sifter_pair();
    let server = VerdictServer::start_with_scheduler(
        writer,
        ServerConfig {
            workers: 2,
            read_timeout: Duration::from_secs(30),
            ..ServerConfig::ephemeral()
        },
        Box::new(scheduler),
    )
    .expect("start verdict server with scheduler");
    let mut client = Client::connect(server.local_addr());
    for summary in &twin_summaries {
        let (status, body) = client.request("POST", "/v1/tick", None);
        assert_eq!(status, 200, "{body}");
        let reply = Value::parse(&body).expect("tick reply is json");
        assert_eq!(
            reply.field("version").unwrap().as_u64().unwrap(),
            summary.version
        );
        assert_eq!(
            reply.field("drift_events").unwrap().as_u64().unwrap(),
            summary.drift_events
        );
    }

    // The full ring, byte-identical in JSON and binary.
    let (status, body) = client.request("GET", "/v1/revisions", None);
    assert_eq!(status, 200);
    assert_eq!(
        body,
        frames::revision_list_value(twin_writer.published_version(), twin_writer.revisions())
            .render()
    );
    let (version, served_ring) = client.fetch_revisions().expect("binary ring");
    assert_eq!(version, twin_writer.published_version());
    let served_ring: Vec<_> = served_ring.into_iter().map(Arc::new).collect();
    assert_eq!(
        frames::encode_revision_list(version, &served_ring),
        frames::encode_revision_list(twin_writer.published_version(), twin_writer.revisions())
    );

    // Every diffable span folds to the same bytes the in-process algebra
    // computes — the exact commit-level drift, not an approximation.
    for from in 0..=3u64 {
        for to in from..=3u64 {
            let expected = diff_revisions(twin_writer.revisions(), from, to).expect("local diff");
            let target = format!("/v1/revisions?diff={from}..{to}");
            let (status, body) = client.request("GET", &target, None);
            assert_eq!(status, 200, "{target}");
            assert_eq!(
                body,
                frames::revision_diff_value(&expected).render(),
                "{target}"
            );
            // The frame carries the span and its changes; like the list
            // above, compare what it carries.
            let diff = client.fetch_revision_diff(from, to).expect("binary diff");
            assert_eq!(
                frames::encode_revision_diff(&diff),
                frames::encode_revision_diff(&expected),
                "{target} (binary)"
            );
        }
    }

    // The scheduler gauges surface in /v1/stats.
    let (status, body) = client.request("GET", "/v1/stats", None);
    assert_eq!(status, 200);
    let stats = Value::parse(&body).expect("stats json");
    let section = stats.field("scheduler").expect("scheduler section");
    assert_eq!(section.field("ticks").unwrap().as_u64().unwrap(), 3);
    assert_eq!(section.field("epoch").unwrap().as_u64().unwrap(), 2);
    server.shutdown();
}
