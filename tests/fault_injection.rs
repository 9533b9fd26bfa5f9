//! The deterministic fault-injection harness for crash-only serving.
//!
//! Two tiers share this file:
//!
//! * **Always-on** tests that need no special build: the byte-level
//!   torn-tail property (a journal truncated at *every* byte offset
//!   replays to a clean prefix of the original entries), a real
//!   `SIGKILL` crash test that murders a committing writer process and
//!   proves every fsynced commit survives the reboot, and a restart whose
//!   replayed URL rows go through the label memo.
//! * **`--features failpoints`** tests that thread injected faults
//!   (I/O errors, short writes, byte-budget cuts, panics) through the
//!   journal, snapshot, poller, and worker code paths via
//!   `trackersift::failpoint`.
//!
//! The failpoint registry is process-global, so every test here
//! serialises on one lock rather than racing other tests' injected
//! faults.

use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use trackersift::{
    ChangeKind, Classification, Granularity, Journal, JournalEntry, Observation, ObservationRef,
    RevisionChange, Sifter, VerdictRevision,
};

/// Serialises the tests in this file: injected faults are process-global,
/// and the prefix/SIGKILL tests write real journals that a concurrently
/// injected cut would corrupt.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn chaos_lock() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn temp_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock")
        .as_nanos();
    std::env::temp_dir().join(format!(
        "trackersift-chaos-{tag}-{}-{nanos}",
        std::process::id()
    ))
}

// ---------------------------------------------------------------------------
// Torn-tail property: replaying any byte prefix of a journal yields a clean
// prefix of the appended entries — never an error, never a phantom record.
// ---------------------------------------------------------------------------

fn arb_entry() -> impl Strategy<Value = JournalEntry> {
    prop_oneof![
        (
            "[a-z]{1,8}\\.com",
            "[a-z]{1,8}",
            "[a-z]{1,12}",
            "[a-z]{1,6}",
            0u8..2,
        )
            .prop_map(|(domain, host, script, method, tracking)| {
                JournalEntry::Observation(Observation::Parts {
                    domain,
                    hostname: host,
                    script,
                    method,
                    tracking: tracking == 1,
                })
            }),
        (
            "[a-z]{1,10}",
            "[a-z]{1,8}\\.com",
            "[a-z]{1,12}",
            "[a-z]{1,6}"
        )
            .prop_map(|(path, source, script, method)| {
                JournalEntry::Observation(Observation::Url {
                    url: format!("https://t.example/{path}"),
                    source_hostname: source,
                    resource_type: filterlist::ResourceType::Script,
                    script,
                    method,
                })
            }),
        (0u64..10_000).prop_map(|version| JournalEntry::Commit { version }),
        (
            0u64..10_000,
            prop::collection::vec(("[a-z]{1,8}\\.com", 0usize..4, 0u8..3), 0..4),
            "[a-z]{1,12}",
        )
            .prop_map(|(version, changes, plan)| {
                let changes = changes
                    .into_iter()
                    .map(|(key, level, kind)| {
                        let kind = match kind {
                            0 => ChangeKind::Added(Classification::Mixed),
                            1 => ChangeKind::Removed(Classification::Tracking),
                            _ => ChangeKind::Flipped(
                                Classification::Functional,
                                Classification::Tracking,
                            ),
                        };
                        RevisionChange::new(Granularity::ALL[level], key, kind)
                    })
                    .collect();
                JournalEntry::Revision {
                    revision: VerdictRevision::with_plans(version, changes, vec![plan.into()]),
                }
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_byte_prefix_replays_to_a_clean_prefix(
        entries in prop::collection::vec(arb_entry(), 1..12)
    ) {
        let _guard = chaos_lock();
        let dir = temp_dir("prefix");
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("journal.wal");
        {
            // Written through the real encoder so the bytes under test are
            // the production frame format, not a test reimplementation.
            let mut journal = Journal::open(&path, 1).expect("open journal");
            for entry in &entries {
                journal.append(entry).expect("append");
            }
            journal.sync().expect("sync");
        }
        let bytes = fs::read(&path).expect("read journal bytes");
        let (full, full_report) = Journal::replay_bytes(&bytes);
        prop_assert_eq!(&full, &entries);
        prop_assert_eq!(full_report.torn_bytes, 0);
        prop_assert_eq!(full_report.valid_bytes, bytes.len() as u64);

        let mut decoded_so_far = 0usize;
        for len in 0..=bytes.len() {
            let (prefix, report) = Journal::replay_bytes(&bytes[..len]);
            // Monotone in the prefix length, bounded by the full set, and
            // always byte-for-byte the entries that were appended.
            prop_assert!(prefix.len() >= decoded_so_far);
            prop_assert!(prefix.len() <= entries.len());
            prop_assert_eq!(prefix.as_slice(), &entries[..prefix.len()]);
            prop_assert_eq!(report.valid_bytes + report.torn_bytes, len as u64);
            decoded_so_far = prefix.len();
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A record bigger than the replay cap (what a first commit adding a few
/// hundred thousand keys produces as its revision) must be refused at
/// append: were it written, replay would read its length prefix as a torn
/// tail and recovery would truncate it *and the commit marker behind it*.
#[test]
fn an_oversized_record_is_refused_and_later_records_survive_recovery() {
    let _guard = chaos_lock();
    let oversized = JournalEntry::Revision {
        revision: VerdictRevision::new(
            1,
            vec![RevisionChange::new(
                Granularity::Domain,
                "k".repeat(17 << 20),
                ChangeKind::Added(Classification::Mixed),
            )],
        ),
    };
    let dir = temp_dir("oversized");
    fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("journal.wal");
    let mut journal = Journal::open(&path, 1000).expect("open");
    let error = journal.append(&oversized).expect_err("over the replay cap");
    assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput);
    assert_eq!(journal.stats().write_errors, 1);
    assert_eq!(journal.stats().appended, 0, "nothing was buffered");
    let commit = JournalEntry::Commit { version: 1 };
    journal.append(&commit).expect("append");
    journal.sync().expect("sync");
    drop(journal);
    let (_journal, entries, report) = Journal::recover(&path, 1000).expect("recover");
    assert_eq!(entries, vec![commit]);
    assert_eq!((report.commits, report.torn_bytes), (1, 0));
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// SIGKILL mid-commit: a real child process trains through a durable writer,
// advertises each completed (fsynced) commit, and is then killed without
// warning. The reboot must recover at least everything advertised.
// ---------------------------------------------------------------------------

/// Observations per commit round in the SIGKILL child.
const SIGKILL_BATCH: u64 = 8;

/// The child half of the SIGKILL test: an infinite apply/commit loop that
/// only runs when re-executed by the parent with `CHAOS_SIGKILL_DIR` set
/// (a no-op pass in a normal test run).
#[test]
fn sigkill_child_writer() {
    let Ok(dir) = std::env::var("CHAOS_SIGKILL_DIR") else {
        return;
    };
    let (mut writer, _reader) = Sifter::builder().build_concurrent();
    // A huge batch threshold: nothing is synced except by commit markers,
    // so the recovery guarantee under test is exactly the commit fsync.
    writer
        .open_durable(&dir, u64::MAX)
        .expect("child opens durable dir");
    let progress_path = PathBuf::from(&dir).join("progress");
    let mut committed = 0u64;
    loop {
        for i in 0..SIGKILL_BATCH {
            let script = format!("https://pub.com/gen-{committed}-{i}.js");
            writer.apply(ObservationRef::parts(
                "ads.com",
                "px.ads.com",
                &script,
                "send",
                true,
            ));
        }
        writer.commit();
        committed += 1;
        // Advertised only after commit() returned, i.e. after the commit
        // marker's fsync completed — the exact durability promise.
        fs::write(&progress_path, committed.to_string()).expect("write progress");
    }
}

#[test]
fn sigkill_mid_commit_preserves_every_advertised_commit() {
    let _guard = chaos_lock();
    let dir = temp_dir("sigkill");
    fs::create_dir_all(&dir).expect("mkdir");
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = std::process::Command::new(exe)
        .args(["sigkill_child_writer", "--exact", "--test-threads=1"])
        .env("CHAOS_SIGKILL_DIR", &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child writer");

    // Let it get a few commits out, then pull the plug mid-flight.
    let progress_path = dir.join("progress");
    let deadline = Instant::now() + Duration::from_secs(30);
    let read_progress = || {
        fs::read_to_string(&progress_path)
            .ok()
            .and_then(|text| text.trim().parse::<u64>().ok())
    };
    let seen = loop {
        let advertised = read_progress().unwrap_or(0);
        if advertised >= 3 {
            break advertised;
        }
        assert!(
            Instant::now() < deadline,
            "child writer never reached 3 commits"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    child.kill().expect("SIGKILL the child writer");
    let _ = child.wait();

    // `fs::write` truncates before it writes: a kill between the two leaves
    // the file empty, and the last count read is then the one advertised.
    let advertised = read_progress().unwrap_or(seen);

    // Reboot on the same directory: every advertised commit (and all of
    // its observations) must be there; a torn tail past the last fsync is
    // legal and silently discarded.
    let (mut writer, reader) = Sifter::builder().build_concurrent();
    let report = writer
        .open_durable(&dir, 64)
        .expect("recover after SIGKILL");
    assert!(
        report.replayed_commits >= advertised,
        "recovered {} commits, child advertised {advertised}",
        report.replayed_commits
    );
    assert!(
        writer.sifter().ingest_stats().observed >= advertised * SIGKILL_BATCH,
        "recovered {} observations, child advertised {}",
        writer.sifter().ingest_stats().observed,
        advertised * SIGKILL_BATCH
    );
    // The recovered state serves: the domain the child trained is blocked.
    let pin = reader.pin();
    let request = trackersift::DecisionRequest::new(
        "ads.com",
        "px.ads.com",
        "https://pub.com/gen-0-0.js",
        "send",
    );
    assert!(matches!(
        pin.table().decide(&request),
        trackersift::Decision::Block(_)
    ));
    drop(pin);
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Recovery through the label memo: journal replay feeds raw URL rows back
// through `apply`, whose memo then answers re-crawled triples. The
// recovered state must be the one a writer labeling every row afresh ends in.
// ---------------------------------------------------------------------------

/// Epoch `epoch` of a re-crawl: 120 URL rows, some unparseable; a tenth
/// of them move to a fresh URL each epoch and the tenth moved the epoch
/// before moves back, the rest are spelled as in the epoch before.
fn recrawl_epoch(epoch: usize) -> Vec<Observation> {
    (0..120)
        .map(|n| {
            let generation = if n % 10 == epoch % 10 { epoch } else { 0 };
            let url = match n % 17 {
                0 => "notaurl".to_string(),
                1 => format!("HTTPS://PX{}.Tracker.io/g{generation}/{n}", n % 3),
                _ => format!("https://px{}.tracker{}.io/g{generation}/{n}", n % 3, n % 5),
            };
            Observation::Url {
                url,
                source_hostname: format!("www.site{}.com", n % 7),
                resource_type: filterlist::ResourceType::ALL[n % 4],
                script: format!("fp:{:04x}", n % 9),
                method: ["send", "load"][n % 2].to_string(),
            }
        })
        .collect()
}

#[test]
fn recovery_replays_url_rows_through_the_label_memo() {
    let _guard = chaos_lock();
    let engine = std::sync::Arc::new(filterlist::FilterEngine::from_lists(&[(
        filterlist::ListKind::EasyList,
        "||tracker1.io^$third-party\n/g3/\n@@||tracker2.io^",
    )]));
    let dir = temp_dir("memo");
    let epochs: Vec<Vec<Observation>> = (1..=6).map(recrawl_epoch).collect();
    {
        let (mut writer, _reader) = Sifter::builder()
            .shared_engine(std::sync::Arc::clone(&engine))
            .build_concurrent();
        writer.open_durable(&dir, 64).expect("open durable");
        for (at, rows) in epochs.iter().enumerate() {
            // Acknowledged batches and rows applied one at a time alike.
            if at % 2 == 0 {
                writer.apply_batch(rows.iter().map(Observation::as_ref));
            } else {
                for row in rows {
                    writer.apply(row.as_ref());
                }
            }
            writer.commit();
        }
        let stats = writer.sifter().ingest_stats();
        assert!(
            stats.labels_reused >= 5 * 80,
            "the re-crawls were answered by the memo: {stats:?}"
        );
        // Dropped without a shutdown sync: a restart is a crash here.
    }
    let (mut recovered, recovered_reader) = Sifter::builder()
        .shared_engine(std::sync::Arc::clone(&engine))
        .build_concurrent();
    let report = recovered.open_durable(&dir, 64).expect("recover");
    assert_eq!(report.replayed_commits, epochs.len() as u64);

    // The reference labels every row afresh and folds it as parts.
    let (mut fresh, fresh_reader) = Sifter::builder().build_concurrent();
    for rows in &epochs {
        for row in rows {
            let Observation::Url {
                url,
                source_hostname,
                resource_type,
                script,
                method,
            } = row
            else {
                unreachable!("a re-crawl posts URL rows");
            };
            let Some(request) =
                filterlist::FilterRequest::new(url, source_hostname, *resource_type)
            else {
                continue;
            };
            let view = request.view();
            let label = engine.label_url(url, source_hostname, *resource_type);
            fresh.apply(ObservationRef::parts(
                view.domain,
                view.url.hostname,
                script,
                method,
                label.is_tracking(),
            ));
        }
        fresh.commit();
    }
    assert_eq!(
        recovered.sifter().snapshot().to_json_string(),
        fresh.sifter().snapshot().to_json_string()
    );
    let keys = |reader: &trackersift::SifterReader| -> Vec<String> {
        let pin = reader.pin();
        pin.keys().iter().map(|(_, key)| key.to_string()).collect()
    };
    assert_eq!(keys(&recovered_reader), keys(&fresh_reader));
    let ring = |writer: &trackersift::SifterWriter| -> Vec<VerdictRevision> {
        writer.revisions().iter().map(|r| (**r).clone()).collect()
    };
    assert_eq!(ring(&recovered), ring(&fresh));
    assert_eq!(recovered.published_version(), fresh.published_version());
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Injected faults (cfg-gated: `cargo test --features failpoints`).
// ---------------------------------------------------------------------------

#[cfg(feature = "failpoints")]
mod chaos {
    use super::*;
    use std::io::ErrorKind;
    use trackersift::failpoint::{self, Action};
    use trackersift::ObservationRef;
    use trackersift_server::client::Client;
    use trackersift_server::{ServerConfig, VerdictServer};

    fn serving_config() -> ServerConfig {
        ServerConfig {
            workers: 1,
            read_timeout: Duration::from_secs(2),
            ..ServerConfig::ephemeral()
        }
    }

    fn trained_writer() -> trackersift::SifterWriter {
        let (mut writer, _reader) = Sifter::builder().build_concurrent();
        for _ in 0..5 {
            writer.apply(ObservationRef::parts(
                "ads.com",
                "px.ads.com",
                "https://pub.com/a.js",
                "send",
                true,
            ));
        }
        writer.commit();
        writer
    }

    #[test]
    fn torn_journal_tail_recovers_to_the_last_synced_commit() {
        let _guard = chaos_lock();
        failpoint::clear_all();
        let dir = temp_dir("torn");
        fs::create_dir_all(&dir).expect("mkdir");
        {
            let (mut writer, _reader) = Sifter::builder().build_concurrent();
            writer.open_durable(&dir, 1).expect("open durable");
            for _ in 0..5 {
                writer.apply(ObservationRef::parts(
                    "ads.com",
                    "px.ads.com",
                    "https://pub.com/a.js",
                    "send",
                    true,
                ));
            }
            writer.commit();
            // Cut the write path after 7 more bytes: mid-frame, exactly as
            // a power cut would land. Everything after the budget silently
            // vanishes, like writes of a process that is already dead.
            failpoint::set("journal.cut", Action::cut_after(7));
            for _ in 0..5 {
                writer.apply(ObservationRef::parts(
                    "cdn.com",
                    "a.cdn.com",
                    "https://pub.com/ui.js",
                    "load",
                    false,
                ));
            }
            writer.commit();
            failpoint::clear_all();
        }
        let (mut writer, _reader) = Sifter::builder().build_concurrent();
        let report = writer.open_durable(&dir, 1).expect("recover torn journal");
        assert!(report.torn_bytes > 0, "the cut left a torn tail");
        assert_eq!(report.replayed_commits, 1, "only the synced commit");
        assert_eq!(
            report.replayed_records, 7,
            "5 observations + 1 marker + 1 revision"
        );
        assert_eq!(writer.sifter().ingest_stats().observed, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_failure_degrades_durability_but_not_serving() {
        let _guard = chaos_lock();
        failpoint::clear_all();
        let dir = temp_dir("fsync");
        fs::create_dir_all(&dir).expect("mkdir");
        let (mut writer, reader) = Sifter::builder().build_concurrent();
        writer.open_durable(&dir, 1).expect("open durable");
        failpoint::set("journal.sync", Action::io_error(ErrorKind::Other, Some(2)));
        writer.apply(ObservationRef::parts(
            "ads.com",
            "px.ads.com",
            "https://pub.com/a.js",
            "send",
            true,
        ));
        writer.commit();
        failpoint::clear_all();
        // Serving continued right through the failed fsync…
        assert_eq!(writer.published_version(), 1);
        assert_eq!(reader.version(), 1);
        // …and the degradation is counted, not swallowed.
        let stats = writer.journal_stats().expect("durable writer has stats");
        assert!(stats.sync_errors >= 1, "sync failures surface in stats");
        // With the fault gone, durability recovers on the next sync.
        writer.sync_journal().expect("a later sync succeeds");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The batch's one fsync failing is counted once, and the rows still
    /// fold: the degraded-durability rule single records follow.
    #[test]
    fn a_failed_batch_fsync_is_counted_once_and_the_rows_still_fold() {
        let _guard = chaos_lock();
        failpoint::clear_all();
        let dir = temp_dir("batch-fsync");
        fs::create_dir_all(&dir).expect("mkdir");
        let (mut writer, _reader) = Sifter::builder().build_concurrent();
        writer.open_durable(&dir, 64).expect("open durable");
        let scripts: Vec<String> = (0..100)
            .map(|n| format!("https://pub.com/s{n}.js"))
            .collect();
        let rows = scripts
            .iter()
            .map(|script| ObservationRef::parts("ads.com", "px.ads.com", script, "send", true));
        failpoint::set("journal.sync", Action::io_error(ErrorKind::Other, Some(1)));
        let accepted = writer.apply_batch(rows);
        failpoint::clear_all();
        assert_eq!(accepted, 100);
        assert_eq!(writer.sifter().ingest_stats().pending(), 100);
        let stats = writer.journal_stats().expect("durable writer has stats");
        assert_eq!((stats.sync_errors, stats.syncs), (1, 0));
        assert_eq!((stats.appended, stats.synced), (100, 0));
        writer.sync_journal().expect("a later sync succeeds");
        let stats = writer.journal_stats().expect("durable writer has stats");
        assert_eq!((stats.syncs, stats.synced), (1, 100));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_poll_failures_never_wedge_the_event_loop() {
        let _guard = chaos_lock();
        failpoint::clear_all();
        let server =
            VerdictServer::start(trained_writer(), serving_config()).expect("start server");
        // An EINTR-storm-alike: the next three poll(2) calls fail outright.
        failpoint::set("poller.wait", Action::io_error(ErrorKind::Other, Some(3)));
        let mut client = Client::connect(server.local_addr());
        let (status, _) = client.request("GET", "/healthz", None);
        assert_eq!(status, 200, "the worker napped through the fault storm");
        failpoint::clear_all();
        server.shutdown();
    }

    #[test]
    fn panicking_request_respawns_the_worker_and_keeps_serving() {
        let _guard = chaos_lock();
        failpoint::clear_all();
        let server =
            VerdictServer::start(trained_writer(), serving_config()).expect("start server");
        failpoint::set("worker.request", Action::panic(Some(1)));
        // The poisoned request costs exactly its own connection: the
        // worker unwinds, the socket closes with no response.
        let mut victim = Client::connect(server.local_addr());
        let poisoned = victim.send_raw(b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        assert!(poisoned.is_none(), "the panicking request gets no response");

        // The pool self-heals: a fresh connection is served normally…
        let mut client = Client::connect(server.local_addr());
        let (status, _) = client.request("GET", "/healthz", None);
        assert_eq!(status, 200);
        // …and the respawn is visible in the stats.
        let (status, body) = client.request("GET", "/v1/stats", None);
        assert_eq!(status, 200);
        let stats = trackersift_json::Value::parse(&body).expect("stats json");
        let restarts = stats
            .field("admission")
            .and_then(|admission| admission.field("worker_restarts"))
            .and_then(|restarts| restarts.as_u64())
            .expect("admission.worker_restarts");
        assert_eq!(restarts, 1);
        failpoint::clear_all();
        server.shutdown();
    }

    /// A checkpoint that fails writing the next snapshot, renaming it into
    /// place, or syncing the directory that holds the new pair leaves the
    /// live generation serving and booting.
    #[test]
    fn failed_checkpoint_keeps_the_previous_generation_serving() {
        let _guard = chaos_lock();
        for point in ["snapshot.write", "snapshot.rename", "dir.sync"] {
            failpoint::clear_all();
            let dir = temp_dir("checkpoint-fail");
            fs::create_dir_all(&dir).expect("mkdir");
            {
                let (mut writer, _reader) = Sifter::builder().build_concurrent();
                writer.open_durable(&dir, 1).expect("open durable");
                writer.apply(ObservationRef::parts(
                    "ads.com",
                    "px.ads.com",
                    "https://pub.com/a.js",
                    "send",
                    true,
                ));
                writer.commit();
                assert_eq!(writer.checkpoint().expect("healthy checkpoint"), 1);
                writer.apply(ObservationRef::parts(
                    "hub.com",
                    "w.hub.com",
                    "https://pub.com/m.js",
                    "track",
                    true,
                ));
                writer.commit();
                // The next checkpoint dies at `point`; the rotation must
                // not happen.
                failpoint::set(point, Action::io_error(ErrorKind::Other, Some(1)));
                assert!(writer.checkpoint().is_err(), "{point}");
                failpoint::clear_all();
                assert_eq!(writer.durable_generation(), Some(1), "{point}");
            }
            // Reboot: generation 1's snapshot + journal still carry
            // everything.
            let (mut writer, _reader) = Sifter::builder().build_concurrent();
            let report = writer.open_durable(&dir, 1).expect("recover");
            assert_eq!(report.generation, 1, "{point}");
            assert!(report.restored_snapshot, "{point}");
            assert_eq!(
                report.replayed_commits, 1,
                "{point}: the post-checkpoint commit"
            );
            assert_eq!(writer.sifter().ingest_stats().observed, 2, "{point}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// `PUT /v1/snapshot` whose checkpoint fails: the document was valid
    /// and is already being served, so the failure is the server's (`500`),
    /// not the client's (`400`) — and a retry on a healed disk lands.
    #[test]
    fn restored_but_not_checkpointed_snapshot_is_a_server_error() {
        let _guard = chaos_lock();
        failpoint::clear_all();
        let dir = temp_dir("import-checkpoint-fail");
        fs::create_dir_all(&dir).expect("mkdir");
        let snapshot = trained_writer().sifter().snapshot().to_json_string();
        let (writer, _reader) = Sifter::builder().build_concurrent();
        let server = VerdictServer::start(
            writer,
            ServerConfig {
                durability: Some(trackersift_server::DurabilityConfig::new(&dir)),
                ..serving_config()
            },
        )
        .expect("start durable server");

        failpoint::set(
            "snapshot.write",
            Action::io_error(ErrorKind::Other, Some(1)),
        );
        let mut client = Client::connect(server.local_addr());
        let (status, body) = client.request("PUT", "/v1/snapshot", Some(&snapshot));
        failpoint::clear_all();
        assert_eq!(status, 500, "{body}");
        assert!(
            body.contains("snapshot restored but not checkpointed"),
            "{body}"
        );

        // The restore itself happened: the trained version is published.
        let mut client = Client::connect(server.local_addr());
        let (status, stats) = client.request("GET", "/v1/stats", None);
        assert_eq!(status, 200);
        assert!(stats.starts_with(r#"{"version":1,"#), "{stats}");
        assert!(stats.contains(r#""observed":5,"#), "{stats}");

        let (status, body) = client.request("PUT", "/v1/snapshot", Some(&snapshot));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains(r#""restored":true"#), "{body}");
        server.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }
}
