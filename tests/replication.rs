//! Tests for the delta-snapshot replication protocol (PR 10): a follower
//! that bootstraps from a full snapshot and then replays deltas reproduces
//! the primary's [`VerdictTable`] at **every** advertised version —
//! including across a primary restart (the durability journal re-seeds the
//! revision ring) and across ring-aged spans, where the protocol's answer
//! is a full re-bootstrap (the HTTP `410 Gone` contract) — and one epoch
//! of drift travels in a small fraction of a full bootstrap's bytes.

mod common;

use common::{model_changes, model_of, Model};
use proptest::prelude::*;
use trackersift_suite::prelude::*;
use trackersift_suite::trackersift::{
    diff_revisions, frames, ApplyError, DurableDir, Journal, JournalEntry, VerdictRevision,
};

/// One synthetic observation, index-encoded so the strategies stay tiny.
type Obs = (u8, u8, u8, u8, u8);

fn parts(observation: Obs) -> (String, String, String, String, bool) {
    let (domain, hostname, script, method, tracking) = observation;
    let domain_name = format!("site{}.com", domain % 12);
    (
        domain_name.clone(),
        format!("h{}.{domain_name}", hostname % 2),
        format!("https://{domain_name}/s{}.js", script % 3),
        format!("m{}", method % 4),
        tracking == 1,
    )
}

/// A workload: epochs of observations, each epoch ending in one commit.
fn arb_epochs() -> impl Strategy<Value = Vec<Vec<Obs>>> {
    prop::collection::vec(
        prop::collection::vec((0u8..12, 0u8..2, 0u8..3, 0u8..4, 0u8..2), 1..32),
        1..6,
    )
}

/// Every distinct (domain, hostname, script, method) tuple in a workload,
/// as owned strings — the probe set for byte-identity checks.
fn probes(epochs: &[Vec<Obs>]) -> Vec<(String, String, String, String)> {
    let mut seen = std::collections::BTreeSet::new();
    for epoch in epochs {
        for &observation in epoch {
            let (domain, hostname, script, method, _) = parts(observation);
            seen.insert((domain, hostname, script, method));
        }
    }
    seen.into_iter().collect()
}

/// Assert the follower's table reproduces the primary's current table:
/// same version, same committed count, and byte-identical rendered
/// decisions over the whole probe set.
fn assert_tables_agree(
    primary: &VerdictTable,
    follower: &VerdictTable,
    requests: &[(String, String, String, String)],
) {
    assert_eq!(primary.version(), follower.version());
    assert_eq!(primary.committed(), follower.committed());
    for (domain, hostname, script, method) in requests {
        let request = DecisionRequest::new(domain, hostname, script, method);
        let ours = follower.decide(&request);
        let theirs = primary.decide(&request);
        assert_eq!(
            theirs,
            ours,
            "at version {}: {:?}",
            primary.version(),
            request
        );
        assert_eq!(
            frames::decision_value(&theirs).render(),
            frames::decision_value(&ours).render()
        );
    }
}

/// Check what one commit recorded against oracles that never look at the
/// recorder: its changes are the model diff of the from-scratch hierarchy
/// before and after the commit, and every probe script whose surrogate plan
/// differs between the tables published before and after is among the
/// plans it touched.
fn assert_commit_recorded(
    revision: &VerdictRevision,
    (model_before, model_after): (&Model, &Model),
    (table_before, table_after): (&VerdictTable, &VerdictTable),
    requests: &[(String, String, String, String)],
) {
    assert_eq!(
        revision.changes(),
        &model_changes(model_before, model_after)[..],
        "version {}",
        revision.version()
    );
    for (_, _, script, _) in requests {
        if table_before.surrogate_plan(script) != table_after.surrogate_plan(script) {
            assert!(
                revision
                    .plans_touched()
                    .iter()
                    .any(|touched| touched.as_ref() == script),
                "version {}: the plan of {script} changed but is not touched",
                revision.version()
            );
        }
    }
}

/// One follower sync against the primary's published table: try the delta
/// first; a ring-aged span (the server's `410 Gone`) falls back to the
/// full snapshot exactly like `ReplicaClient`. Every envelope round-trips
/// through the binary codec, so the test covers the wire encoding too.
/// Returns `true` when the sync was a full re-bootstrap.
fn sync_follower(follower: &mut FollowerState, primary: &VerdictTable) -> Result<bool, ApplyError> {
    let (snapshot, full) = match primary.delta_since(follower.version()) {
        Ok(delta) => (delta, false),
        Err(_) => (primary.full_snapshot_delta(), true),
    };
    let bytes = frames::encode_delta_snapshot(&snapshot);
    let decoded = frames::decode_delta_snapshot(&bytes).expect("binary codec round-trip");
    follower.apply(&decoded)?;
    Ok(full)
}

/// Check what a follower's table serves its own followers against the
/// primary's table at the same version: every version it anchors — its own
/// and each span boundary of the ring of deltas it applied — answers
/// `delta_since` with the primary's bytes, and every diff between two
/// boundaries is the primary's revision over that span, plans included,
/// wherever the primary's bounded ring still holds the span.
fn assert_anchors_match(replica: &VerdictTable, primary: &VerdictTable) {
    assert_eq!(replica.version(), primary.version());
    let ring = replica.revisions();
    let boundaries: Vec<u64> = ring
        .first()
        .map(|oldest| oldest.since())
        .into_iter()
        .chain(ring.iter().map(|revision| revision.version()))
        .collect();
    for anchor in boundaries.iter().copied().chain([replica.version()]) {
        let ours = replica
            .delta_since(anchor)
            .expect("a follower answers what it anchors");
        if let Ok(theirs) = primary.delta_since(anchor) {
            assert_eq!(
                frames::encode_delta_snapshot(&ours),
                frames::encode_delta_snapshot(&theirs),
                "?since={anchor} at version {}",
                replica.version()
            );
        }
    }
    for (index, &from) in boundaries.iter().enumerate() {
        for &to in &boundaries[index..] {
            let ours = diff_revisions(ring, from, to).expect("boundaries diff");
            if let Ok(theirs) = diff_revisions(primary.revisions(), from, to) {
                assert_eq!(ours, theirs, "?diff={from}..{to}");
            }
        }
    }
}

/// Rewrite the live journal of the durable store at `dir` without its
/// `Revision` records, so the next recovery has to recompute every ring
/// entry from the commit markers.
fn strip_revision_records(dir: &std::path::Path) {
    let path = DurableDir::open(dir).expect("open dir").journal_path();
    let (entries, _) = Journal::replay(&path).expect("replay");
    std::fs::remove_file(&path).expect("remove the journal");
    let mut journal = Journal::open(&path, 1).expect("recreate the journal");
    for entry in &entries {
        if !matches!(entry, JournalEntry::Revision { .. }) {
            journal.append(entry).expect("append");
        }
    }
    journal.sync().expect("sync");
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock")
        .as_nanos();
    std::env::temp_dir().join(format!(
        "trackersift-replication-{tag}-{}-{nanos}",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tentpole invariant: bootstrap + delta replay reproduces the
    /// primary's table at every advertised version, for any workload, any
    /// sync cadence (skipped epochs produce multi-commit deltas), any
    /// restart point (the journal re-seeds the ring across the restart),
    /// and any ring capacity (aged-out spans re-bootstrap via the full
    /// snapshot and still land exactly). A second follower follows the
    /// first at its own cadence, from the ring of deltas the first applied.
    #[test]
    fn replica_reproduces_every_advertised_version(
        epochs in arb_epochs(),
        syncs in prop::collection::vec(0u8..2, 5..6),
        chain_syncs in prop::collection::vec(0u8..2, 5..6),
        restart_after in 0usize..5,
        ring_capacity in 1usize..5,
    ) {
        let dir = temp_dir("proptest");
        let requests = probes(&epochs);
        let (mut writer, mut reader) = Sifter::builder().build_concurrent();
        writer.set_revision_capacity(ring_capacity);
        writer.open_durable(&dir, 1).expect("open durable");

        let mut follower = FollowerState::new(None, None);
        let mut chained = FollowerState::new(None, None);
        let mut full_syncs = 0usize;
        {
            let pin = reader.pin();
            let full = sync_follower(&mut follower, pin.table()).expect("bootstrap");
            prop_assert!(full, "an empty-ring primary always serves a full snapshot");
            full_syncs += 1;
            assert_tables_agree(pin.table(), &follower.table(), &requests);
        }

        for (index, epoch) in epochs.iter().enumerate() {
            let model_before = model_of(&writer.sifter().hierarchy());
            let table_before = reader.pin().table().clone();
            for &observation in epoch {
                let (domain, hostname, script, method, tracking) = parts(observation);
                writer.apply(ObservationRef::parts(&domain, &hostname, &script, &method, tracking));
            }
            writer.commit();
            assert_commit_recorded(
                writer.revisions().last().expect("the commit recorded a revision"),
                (&model_before, &model_of(&writer.sifter().hierarchy())),
                (&table_before, reader.pin().table()),
                &requests,
            );

            if index == restart_after {
                // Primary restart: drop the writer, recover a fresh one
                // from the durable dir. Versions stay continuous and the
                // journal's persisted revision records re-seed the ring,
                // so a follower inside the retained span keeps syncing
                // with deltas as if nothing happened.
                //
                // Recovered twice: from the journal as written, where the
                // persisted revision records install over the recomputed
                // ones, and from the journal without them, where every ring
                // entry is recomputed from its commit marker by the
                // recorder live commits use. Either way the ring is the
                // pre-crash ring, entry for entry.
                let version_before = reader.pin().table().version();
                let ring_before = writer.revisions().to_vec();
                for recompute in [false, true] {
                    drop(writer);
                    drop(reader);
                    if recompute {
                        strip_revision_records(&dir);
                    }
                    let pair = Sifter::builder().build_concurrent();
                    writer = pair.0;
                    reader = pair.1;
                    writer.set_revision_capacity(ring_capacity);
                    writer.open_durable(&dir, 1).expect("recover durable");
                    prop_assert_eq!(
                        reader.pin().table().version(),
                        version_before,
                        "recovery rebased onto the journal's version numbering"
                    );
                    prop_assert_eq!(
                        writer.revisions(),
                        &ring_before[..],
                        "recompute = {}",
                        recompute
                    );
                }
            }

            // The follower only polls on some epochs — skipped epochs make
            // the next delta span several commits, and with a small ring
            // capacity, spans that aged out of the ring.
            if syncs[index % syncs.len()] == 1 || index + 1 == epochs.len() {
                let pin = reader.pin();
                if sync_follower(&mut follower, pin.table()).expect("sync") {
                    full_syncs += 1;
                }
                assert_tables_agree(pin.table(), &follower.table(), &requests);
                let replica = follower.table();
                assert_anchors_match(&replica, pin.table());
                if chain_syncs[index % chain_syncs.len()] == 1 || index + 1 == epochs.len() {
                    sync_follower(&mut chained, &replica).expect("chained sync");
                    assert_tables_agree(&replica, &chained.table(), &requests);
                }
            }
        }

        // The second follower ends on the same version, and re-bootstrapped
        // only after the first did: the first follower's initial bootstrap
        // left the second one a ring to follow.
        prop_assert_eq!(chained.version(), follower.version());
        prop_assert!(chained.bootstraps() < follower.bootstraps());

        // The follower ends byte-identical to the primary's final table.
        let pin = reader.pin();
        prop_assert_eq!(follower.version(), pin.table().version());
        prop_assert!(full_syncs >= 1);
        drop(pin);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The ring-aged contract, deterministically: a follower that sleeps
/// through more commits than the ring retains cannot be served a delta —
/// `delta_since` refuses, the full snapshot re-bootstraps it (epoch bump
/// and all), and the result is still exact.
#[test]
fn aged_out_follower_rebootstraps_from_the_full_snapshot() {
    let (mut writer, reader) = Sifter::builder().build_concurrent();
    writer.set_revision_capacity(2);
    writer.apply(ObservationRef::parts(
        "ads.com",
        "px.ads.com",
        "https://ads.com/a.js",
        "send",
        true,
    ));
    writer.commit();

    let mut follower = FollowerState::new(None, None);
    follower
        .apply(&reader.pin().table().full_snapshot_delta())
        .expect("bootstrap");
    assert_eq!(follower.version(), 1);

    // Five more commits against a capacity-2 ring: version 1 ages out.
    for n in 0..5 {
        let domain = format!("d{n}.com");
        writer.apply(ObservationRef::parts(
            &domain,
            &format!("h.{domain}"),
            &format!("https://{domain}/s.js"),
            "send",
            n % 2 == 0,
        ));
        writer.commit();
    }
    let pin = reader.pin();
    assert!(
        pin.table().delta_since(follower.version()).is_err(),
        "a span older than the ring must refuse the delta"
    );
    let bootstraps_before = follower.bootstraps();
    follower
        .apply(&pin.table().full_snapshot_delta())
        .expect("full re-bootstrap");
    assert_eq!(follower.bootstraps(), bootstraps_before + 1);
    assert_eq!(follower.version(), pin.table().version());
    let request = DecisionRequest::new("d4.com", "h.d4.com", "https://d4.com/s.js", "send");
    assert_eq!(
        follower.table().decide(&request),
        pin.table().decide(&request)
    );
}

/// The protocol's reason to exist, as a size bound: on a primary trained
/// by a seed crawl, one `EcosystemMutator` epoch of drift — the scripts the
/// mutator re-homed, re-crawled under their new URLs — encodes to under a
/// tenth of a full bootstrap's bytes, and a follower that applies
/// full-then-delta lands on the primary's version. A delta that shipped
/// the whole table would fail the bound.
#[test]
fn single_epoch_delta_is_under_a_tenth_of_a_full_bootstrap() {
    const SEED: u64 = 2021;
    let mut scheduler = Scheduler::new(SchedulerConfig::new(SEED).with_sites(120));
    let (mut writer, reader) = scheduler.sifter_pair();
    scheduler.tick(&mut writer);

    let mut follower = FollowerState::new(None, None);
    let full = frames::encode_delta_snapshot(&reader.pin().table().full_snapshot_delta());
    follower
        .apply(&frames::decode_delta_snapshot(&full).expect("decode full"))
        .expect("bootstrap");
    let previous_version = follower.version();

    let mut corpus = scheduler.corpus().clone();
    let report = EcosystemMutator::new(SEED, MutationConfig::default()).advance(&mut corpus, 1);
    assert!(
        !report.rotations.is_empty(),
        "the epoch must re-home a script"
    );
    for rotation in &report.rotations {
        let site = &corpus.websites[rotation.site];
        let script = &site.scripts[rotation.script];
        for (method, request) in script.planned_requests() {
            writer.apply(ObservationRef::url(
                &request.url,
                &site.hostname,
                request.resource_type,
                &rotation.new_url,
                &script.methods[method].name,
            ));
        }
    }
    writer.commit();

    let pin = reader.pin();
    let delta = pin
        .table()
        .delta_since(previous_version)
        .expect("one epoch stays inside the ring");
    assert!(!delta.changes.is_empty(), "the epoch must change a verdict");
    let delta = frames::encode_delta_snapshot(&delta);
    assert!(
        delta.len() * 10 < full.len(),
        "single-epoch delta ({} B) is not under 10% of a full bootstrap ({} B)",
        delta.len(),
        full.len()
    );
    follower
        .apply(&frames::decode_delta_snapshot(&delta).expect("decode delta"))
        .expect("apply delta");
    assert_eq!(follower.table().version(), pin.table().version());
}
