//! Concurrent serving: per-thread [`SifterReader`] handles plus a single
//! [`SifterWriter`] with atomically published verdict tables.
//!
//! A deployed blocker or proxy is read-dominated with a trickle of writes:
//! millions of verdict queries per second, an `apply_batch`+`commit` every
//! few seconds. Wrapping a [`Sifter`] in an `RwLock` makes every commit (and
//! even every apply) stall all verdict traffic. This module splits the
//! sifter instead:
//!
//! * [`Sifter::into_concurrent`] / [`SifterBuilder::build_concurrent`](crate::SifterBuilder::build_concurrent)
//!   return a cheaply-cloneable [`SifterReader`] (`Clone + Send`, one
//!   handle per serving thread) and one [`SifterWriter`];
//! * readers serve [`SifterReader::verdict`] / [`SifterReader::decide`]
//!   by pinning the immutable [`VerdictTable`] their handle caches and
//!   forwarding to it — **no lock on a pin unless a table was published
//!   since the handle's last pin**, and then one uncontended acquisition
//!   picks it up — so a reader never observes a half-applied commit and
//!   never waits for the writer;
//! * the writer keeps the sifter's incremental dirty-set machinery;
//!   [`SifterWriter::commit`] reclassifies the dirty slice and publishes the
//!   next table in one atomic swap.
//!
//! # The write path
//!
//! [`SifterWriter::apply`] is journal-then-fold, written once: append the
//! [`ObservationRef`] to the attached journal (if any), then
//! [`Sifter::apply`] it — the same borrowed record, with or without a
//! journal; [`SifterWriter::open_durable`] replays the journal through it.
//! [`SifterWriter::apply_batch`] is the same for rows acknowledged
//! together — the verdict server's admin thread passes it the batch the
//! wire decoded, a scheduler tick its re-crawl: journal every row, fsync
//! once, then [`Sifter::apply_batch`], so the reply never runs ahead of
//! the disk. The writer declares the sifter's write calls — `apply`,
//! `apply_batch` and `commit` — and nothing else that writes. A commit
//! journals its marker, folds, installs one [`VerdictRevision`] and
//! publishes. The revision is what the fold wrote: `write_class` reports
//! each class change as it makes it and the plan refresh each plan it
//! rebuilds or drops, so no table is diffed against another. Recovery
//! installs the same record after every replayed commit marker, so a
//! recomputed ring entry equals the persisted one.
//!
//! # How publication works
//!
//! The shared state is the current table's `Arc` under one mutex plus a
//! count of publishes. Each reader handle caches the `Arc` it last pinned
//! and the count it saw then:
//!
//! 1. a pin loads the count (one `Acquire` load). If it has not moved, the
//!    pin serves the cached table: no lock, no reference count touched. If
//!    it has, the pin takes the mutex once and clones the new `Arc` into
//!    its cache;
//! 2. a publish swaps the table under the mutex, moves the previous one
//!    onto the publisher's retire list, drops every retired table no
//!    handle caches any more (`Arc::strong_count` is 1), then bumps the
//!    count with `Release`.
//!
//! A handle only ever swaps its cached table for the current one, so while
//! the publisher lives the last reference to a retired table is the retire
//! list's: no table is freed on a serving thread. A retired table lives
//! until every handle has pinned past it, and the writer frees it at the
//! first publish after that — an idle handle holds one table.
//!
//! A [`PinnedTable`] derefs to the table it pins, so a batch is answered
//! by holding one pin across it
//! (`let pin = reader.pin(); for q in qs { pin.decide(q) }`). A pinned
//! table is a consistent point-in-time state: its
//! [`version`](VerdictTable::version) is the commit count, strictly
//! increasing across publishes, which is what the stress tests use to
//! prove atomic publication (every served verdict equals some committed
//! state, never a torn mix). A pin taken while another pin of the same
//! handle is alive serves the outer pin's table, still one committed
//! version; the next pin after both drop picks up what was published
//! meanwhile. `SifterReader` is `Send` but not `Sync`, so the type itself
//! enforces one handle per thread.

use crate::decision::{Decision, DecisionRequest};
use crate::journal::{DurableDir, Journal, JournalEntry, JournalStats, RecoveryReport};
use crate::revision::{install_revision, VerdictRevision};
use crate::service::{CommitStats, ObservationRef, ObserveOutcome, ServiceStats, Sifter, Verdict};
use crate::snapshot::{SifterSnapshot, SnapshotError};
use crate::table::VerdictTable;
use std::cell::{Cell, Ref, RefCell};
use std::io;
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The writer's attached durable store: the generation directory plus the
/// live generation's journal, and the lifetime stats carried across
/// checkpoint rotations.
#[derive(Debug)]
struct Durable {
    dir: DurableDir,
    journal: Journal,
    sync_every: u64,
    /// Stats folded in from journals retired by [`SifterWriter::checkpoint`].
    base_stats: JournalStats,
}

/// State shared by the publisher and every reader handle.
#[derive(Debug)]
struct Shared {
    /// The current table.
    current: Mutex<Arc<VerdictTable>>,
    /// How many tables were published after the first; a handle that saw
    /// this count at its last pin still caches the current table.
    published: AtomicU64,
}

impl Sifter {
    /// Split this sifter into a concurrent serving pair: a single
    /// [`SifterWriter`] (ingestion) and a [`SifterReader`] (verdicts) that
    /// can be cloned into as many reader handles as there are serving
    /// threads. The current committed state is published immediately, so
    /// readers serve from the first instant.
    pub fn into_concurrent(mut self) -> (SifterWriter, SifterReader) {
        let (publisher, reader) = TablePublisher::new(Arc::new(self.verdict_table()));
        (
            SifterWriter {
                sifter: self,
                publisher,
                version_floor: 0,
                keys_epoch: 0,
                durable: None,
                revisions: Vec::new(),
                revision_capacity: DEFAULT_REVISION_CAPACITY,
            },
            reader,
        )
    }
}

/// The one publication handle: swap complete [`VerdictTable`]s in, mint
/// [`SifterReader`]s out, and free retired tables once no handle caches
/// them (see the [module docs](self)).
///
/// The [`SifterWriter`] publishes through one, and so does a **replica**:
/// a follower that reconstructs tables from a primary's delta snapshots
/// (rather than from local commits) publishes them atomically to any
/// number of serving threads, with identical pin/reclaim semantics.
///
/// ```
/// use std::sync::Arc;
/// use trackersift_engine::{DecisionRequest, ObservationRef, Sifter, TablePublisher};
///
/// let row = |tracking| {
///     ObservationRef::parts("ads.com", "px.ads.com", "https://pub.com/a.js", "send", tracking)
/// };
/// let mut sifter = Sifter::builder().build();
/// sifter.apply(row(true));
/// sifter.commit();
///
/// let (publisher, reader) = TablePublisher::new(Arc::new(sifter.verdict_table()));
/// let query = DecisionRequest::new("ads.com", "px.ads.com", "https://pub.com/a.js", "send");
/// assert!(reader.verdict(&query).should_block());
///
/// sifter.apply(row(false));
/// sifter.commit();
/// publisher.publish(Arc::new(sifter.verdict_table())); // readers swap atomically
/// assert_eq!(reader.version(), 2);
/// ```
#[derive(Debug)]
pub struct TablePublisher {
    shared: Arc<Shared>,
    /// Previously published tables, held until no handle caches them, so
    /// the last reference to a table is never a serving thread's.
    retired: Mutex<Vec<Arc<VerdictTable>>>,
}

impl TablePublisher {
    /// Publish `table` as the initial state and mint the first reader.
    pub fn new(table: Arc<VerdictTable>) -> (TablePublisher, SifterReader) {
        let publisher = TablePublisher {
            shared: Arc::new(Shared {
                current: Mutex::new(table),
                published: AtomicU64::new(0),
            }),
            retired: Mutex::new(Vec::new()),
        };
        let reader = publisher.reader();
        (publisher, reader)
    }

    /// Atomically swap `table` in as the current state; pins already
    /// holding the previous table finish on it, the next pin of every
    /// handle sees the new one. Every retired table no handle caches any
    /// more is freed here.
    pub fn publish(&self, table: Arc<VerdictTable>) {
        let previous =
            std::mem::replace(&mut *self.shared.current.lock().expect("table lock"), table);
        let mut retired = self.retired.lock().expect("retire list lock");
        retired.push(previous);
        // A retired table is never handed out again, so a count of 1 (this
        // list's) cannot grow back.
        retired.retain(|old| Arc::strong_count(old) > 1);
        // Release after the swap, paired with the Acquire load in `pin`: a
        // pin that sees this count locks after the swap and clones `table`.
        self.shared.published.fetch_add(1, Ordering::Release);
    }

    /// Mint another reader handle (equivalent to cloning any existing one).
    pub(crate) fn reader(&self) -> SifterReader {
        SifterReader::new(Arc::clone(&self.shared))
    }
}

/// The single ingestion handle of a concurrent sifter pair.
///
/// Wraps the [`Sifter`]'s incremental machinery: [`SifterWriter::apply`]
/// and [`SifterWriter::apply_batch`] buffer count deltas and dirty marks
/// exactly as [`Sifter::apply`] does, and
/// [`SifterWriter::commit`] reclassifies only the dirty slice, then
/// publishes the resulting [`VerdictTable`] to every reader in one atomic
/// swap. Readers keep serving the previous table until the swap, and batches
/// that already pinned the previous table finish on it — a commit is never
/// observable half-applied.
///
/// ```
/// use trackersift_engine::{DecisionRequest, ObservationRef, Sifter};
///
/// let (mut writer, reader) = Sifter::builder().build_concurrent();
/// let row = ObservationRef::parts("ads.com", "px.ads.com", "https://pub.com/a.js", "send", true);
/// writer.apply(row);
/// assert_eq!(writer.sifter().ingest_stats().pending, 1);
///
/// let stats = writer.commit(); // reclassify the delta + publish atomically
/// assert_eq!(stats.observations, 1);
/// let query = DecisionRequest::new("ads.com", "px.ads.com", "https://pub.com/a.js", "send");
/// assert!(reader.verdict(&query).should_block());
/// ```
#[derive(Debug)]
pub struct SifterWriter {
    sifter: Sifter,
    publisher: TablePublisher,
    /// Added to the sifter's commit count to form the *published* table
    /// version. Zero until a [`SifterWriter::restore_snapshot`] replaces
    /// the sifter (resetting its commit count); then bumped so published
    /// versions stay strictly increasing across the swap.
    version_floor: u64,
    /// The epoch of the key-id space stamped on every published table.
    /// Key ids are append-only stable within an epoch; a snapshot restore
    /// rebuilds the interner (ids may be reassigned), so the restore bumps
    /// the epoch to the published version at swap time — strictly
    /// increasing, and `0` for a writer that never restored.
    keys_epoch: u64,
    /// Write-ahead durability, attached by [`SifterWriter::open_durable`];
    /// `None` for an in-memory writer (no behaviour change, no I/O).
    durable: Option<Durable>,
    /// The bounded revision ring, ascending by published version. A
    /// snapshot (`Arc` clones) is attached to every published table.
    revisions: Vec<Arc<VerdictRevision>>,
    /// Ring bound: the oldest revision is dropped once the ring exceeds it.
    revision_capacity: usize,
}

/// How many revisions a writer retains by default (one per commit), and
/// the bound on a [`FollowerState`](crate::FollowerState)'s ring
/// (one per applied delta). Bounds the drift history `GET /v1/revisions`
/// can serve; tune a writer's with [`SifterWriter::set_revision_capacity`].
pub const DEFAULT_REVISION_CAPACITY: usize = 64;

impl SifterWriter {
    /// Ingest one [`ObservationRef`]: journal it (write-ahead, when a durable
    /// store is attached), then fold it with [`Sifter::apply`] — the one
    /// spelling of journal-then-fold for a single row, and the only write a
    /// durable writer journals one row at a time (synced every
    /// `sync_every` rows, see [`SifterWriter::open_durable`]).
    /// [`SifterWriter::open_durable`] replays a journaled observation
    /// through this same call (before the store is attached, so nothing is
    /// journaled twice); a raw URL is journaled raw and relabeled on
    /// replay, so recovery is deterministic for a writer configured with
    /// the same engine.
    ///
    /// A failed append is counted in [`JournalStats::write_errors`];
    /// serving continues with degraded durability rather than dropping the
    /// observation.
    pub fn apply(&mut self, observation: ObservationRef<'_>) -> ObserveOutcome {
        if let Some(durable) = &mut self.durable {
            let _ = durable.journal.append_observation(observation);
        }
        self.sifter.apply(observation)
    }

    /// Ingest a batch acknowledged as one (a verdict server's
    /// `POST /v1/observations`, a scheduler tick's re-crawl): journal every
    /// row, flush and fsync once, then fold the rows with
    /// [`Sifter::apply_batch`] — nothing folds before the batch is on disk,
    /// so a caller that replies after this returns never acknowledges a row
    /// a crash can lose. `sync_every` does not apply inside a batch.
    /// Returns how many rows were observed (as
    /// `ObserveOutcome::was_observed`).
    ///
    /// A failed append or fsync is counted in the journal stats and the
    /// rows still fold: degraded durability, as [`SifterWriter::apply`].
    ///
    /// URL rows are labeled through [`Sifter::apply`]'s memo: a row
    /// whose exact `(url, source_hostname, resource_type)` was labeled in
    /// this commit interval or the previous one reuses that label and its
    /// interned hostname and domain. An entry lives until the second commit
    /// after its triple was last seen (a stream that does not commit ends
    /// an interval every 65,536 remembered triples), so the memo holds at
    /// most two intervals' distinct triples, their bytes in an arena within
    /// 1.5× one interval's key bytes on a re-crawl. The journal still
    /// records every row raw, so recovery relabels — through the same memo —
    /// to the same state.
    pub fn apply_batch<'a, I>(&mut self, rows: I) -> u64
    where
        I: IntoIterator<Item = ObservationRef<'a>>,
        I::IntoIter: Clone,
    {
        let rows = rows.into_iter();
        if let Some(durable) = &mut self.durable {
            let _ = durable.journal.append_batch(rows.clone());
        }
        self.sifter.apply_batch(rows)
    }

    /// Fold all pending observations into the servable state
    /// (reclassification work proportional to the dirty slice, as
    /// [`Sifter::commit`]) and publish the new [`VerdictTable`] to every
    /// reader in one atomic swap.
    ///
    /// Publication itself copies the dense class arrays (a few bytes per
    /// distinct key — a memcpy, not a reclassification) because readers may
    /// still be pinning the previous table; the frozen key lookup is only
    /// re-cloned when the delta interned new keys, and is shared between
    /// tables otherwise. For corpus-scale states this publication cost is
    /// small next to the avoided full reclassify.
    ///
    /// With a durable store attached, a commit marker is journaled and the
    /// journal is **fsynced before the in-memory fold** — so a crash at any
    /// instant either replays this commit in full on recovery (marker
    /// durable) or loses it in full (marker in the torn tail), never half.
    ///
    /// The commit's ring entry is what the fold wrote, recorded before the
    /// publish so the new table carries it.
    pub fn commit(&mut self) -> CommitStats {
        let version = self.published_version() + 1;
        if let Some(durable) = &mut self.durable {
            // Append and sync failures are counted in the journal stats;
            // the commit proceeds with degraded durability.
            let _ = durable.journal.append(&JournalEntry::Commit { version });
            let _ = durable.journal.sync();
        }
        let stats = self.sifter.commit();
        self.record_revision(version);
        self.publish();
        // Persist the ring entry the commit just recorded, so a restarted
        // primary rebuilds its pre-crash diff history instead of collapsing
        // it. Derivable from the fold, so a torn tail here only costs the
        // persisted copy — recovery recomputes the same revision.
        if let (Some(durable), Some(revision)) = (&mut self.durable, self.revisions.last()) {
            let _ = durable.journal.append_revision(revision);
        }
        stats
    }

    /// Attach write-ahead durability backed by the generation directory at
    /// `dir`, recovering whatever a previous process left there: restore
    /// the live generation's checkpoint snapshot (if any), replay the
    /// journal's clean prefix on top of it (truncating a torn tail), and
    /// publish the recovered state to every reader in one atomic swap.
    ///
    /// Every [`SifterWriter::apply_batch`] and every commit is on disk
    /// before it returns. The only rows journaled one at a time are a
    /// library caller's [`SifterWriter::apply`]; `sync_every` forces those
    /// to disk every that-many rows, so a `kill -9` at any instant loses at
    /// most fewer than `sync_every` of them. Every server path —
    /// `POST /v1/observations` and `POST /v1/tick` — journals batches.
    ///
    /// Call once, at boot, before serving; attaching twice is an error.
    pub fn open_durable(
        &mut self,
        dir: impl Into<PathBuf>,
        sync_every: u64,
    ) -> io::Result<RecoveryReport> {
        if self.durable.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "durable store already attached",
            ));
        }
        let dir = DurableDir::open(dir)?;
        let mut report = RecoveryReport {
            generation: dir.generation(),
            ..RecoveryReport::default()
        };
        match std::fs::read_to_string(dir.snapshot_path()) {
            Ok(text) => {
                let snapshot = SifterSnapshot::parse(&text)
                    .map_err(|error| io::Error::new(io::ErrorKind::InvalidData, error))?;
                self.restore_snapshot(&snapshot)
                    .map_err(|error| io::Error::new(io::ErrorKind::InvalidData, error))?;
                report.restored_snapshot = true;
                report.snapshot_observations = snapshot.observations();
            }
            Err(error) if error.kind() == io::ErrorKind::NotFound => {}
            Err(error) => return Err(error),
        }
        let (journal, entries, replay) = Journal::recover(dir.journal_path(), sync_every)?;
        report.replayed_records = replay.records;
        report.replayed_commits = replay.commits;
        report.torn_bytes = replay.torn_bytes;
        // Rebuild the revision ring alongside the state: persisted ring
        // records install directly (checkpoint seeds + per-commit records),
        // and every replayed commit marker *recomputes* its revision — what
        // the replayed fold wrote — with the recorder live commits use, so
        // a torn-off revision record costs nothing, and `?diff=` spans from
        // before the crash still answer. A journal with records owns the
        // ring: whatever the writer held before is replaced, not merged.
        if report.replayed_records > 0 {
            self.revisions.clear();
        }
        // The published version the journal says the recovered state has;
        // used to rebase the version floor so versions (and the ring) stay
        // continuous across the restart instead of resetting.
        let mut journal_version: Option<u64> = None;
        for entry in entries {
            match entry {
                JournalEntry::Observation(observation) => {
                    self.apply(observation.as_ref());
                }
                JournalEntry::Commit { version } => {
                    self.sifter.commit();
                    self.record_revision(version);
                    journal_version = Some(version);
                }
                JournalEntry::Revision { revision } => {
                    journal_version = Some(journal_version.unwrap_or(0).max(revision.version()));
                    install_revision(&mut self.revisions, revision, self.revision_capacity);
                }
            }
        }
        if report.replayed_records > 0 {
            // Rebase the floor so the recovered state publishes at the
            // version the journal recorded for it — continuous with the
            // pre-crash numbering the ring entries carry.
            if let Some(version) = journal_version {
                self.version_floor = version.saturating_sub(self.sifter.commits());
                if report.restored_snapshot {
                    // The interner was rebuilt from the snapshot, so ids may
                    // differ from the pre-crash epoch; stamp the epoch with
                    // the (rebased) version the restore published at.
                    self.keys_epoch = self.version_floor + 1;
                }
            }
            self.publish();
        }
        self.durable = Some(Durable {
            dir,
            journal,
            sync_every,
            base_stats: JournalStats::default(),
        });
        Ok(report)
    }

    /// Publish a durable checkpoint: commit any pending observations, write
    /// the full trained state as the next generation's snapshot, start that
    /// generation's fresh (empty) journal, and atomically flip the store's
    /// `CURRENT` pointer — the crash-safe equivalent of "snapshot export +
    /// journal truncation". Returns the new generation number.
    ///
    /// A crash at any point during the checkpoint boots from either the old
    /// generation (snapshot + its full journal) or the new one; never from
    /// a mixed pair.
    pub fn checkpoint(&mut self) -> io::Result<u64> {
        let Some(_) = self.durable else {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "no durable store attached",
            ));
        };
        if self.sifter.ingest_stats().pending > 0 {
            self.commit();
        }
        let snapshot_json = self.sifter.snapshot().to_json_string();
        let durable = self.durable.as_mut().expect("durable store attached");
        let fresh = durable.dir.advance(&snapshot_json, durable.sync_every)?;
        durable.base_stats.accumulate(durable.journal.stats());
        durable.base_stats.rotations += 1;
        durable.journal = fresh;
        // Seed the fresh generation with the current revision ring, so a
        // boot from this generation still answers `?diff=` spans that
        // predate the checkpoint (the snapshot alone carries no history).
        for revision in &self.revisions {
            let _ = durable.journal.append_revision(revision);
        }
        let _ = durable.journal.sync();
        Ok(durable.dir.generation())
    }

    /// Force the attached journal's buffered records to disk (a shutdown
    /// flush). A no-op without a durable store.
    pub fn sync_journal(&mut self) -> io::Result<()> {
        match &mut self.durable {
            Some(durable) => durable.journal.sync(),
            None => Ok(()),
        }
    }

    /// Lifetime journal counters (summed across checkpoint rotations), or
    /// `None` without a durable store.
    pub fn journal_stats(&self) -> Option<JournalStats> {
        self.durable.as_ref().map(|durable| {
            let mut stats = durable.base_stats.clone();
            stats.accumulate(durable.journal.stats());
            stats
        })
    }

    /// The durable store's live checkpoint generation, or `None` without
    /// one.
    pub fn durable_generation(&self) -> Option<u64> {
        self.durable
            .as_ref()
            .map(|durable| durable.dir.generation())
    }

    /// Build the current committed state as one complete table — at the
    /// published version, under the writer's key epoch, carrying the
    /// revision ring as it stands — and publish it to every reader in one
    /// atomic swap. Publishing records nothing: a commit records its
    /// revision before it publishes, a snapshot restore is a new world
    /// rather than drift (it clears the ring), and journal recovery records
    /// one revision per replayed commit marker and publishes once after the
    /// whole replay.
    fn publish(&mut self) {
        let table = self.sifter.table_at(
            self.published_version(),
            self.keys_epoch,
            self.revisions.clone(),
        );
        self.publisher.publish(Arc::new(table));
    }

    /// Install what the sifter's last commit wrote as revision `version`:
    /// the class changes `write_class` reported as it made them and the
    /// plans the commit rebuilt or dropped ([`Sifter::commit`]), not a diff
    /// of two tables. Every commit records one, even when nothing changed,
    /// so ring versions stay contiguous and any two are diffable. The one
    /// recorder — a live commit and each replayed commit marker call it
    /// right after the fold, so a recomputed ring entry equals the one the
    /// live commit persisted.
    fn record_revision(&mut self, version: u64) {
        let revision = self.sifter.revision(version);
        install_revision(&mut self.revisions, revision, self.revision_capacity);
    }

    /// The bounded ring of per-commit revisions, ascending by version —
    /// the same snapshot the published table carries.
    pub fn revisions(&self) -> &[Arc<VerdictRevision>] {
        &self.revisions
    }

    /// Bound the revision ring to `capacity` entries (clamped to at least
    /// one; the default is [`DEFAULT_REVISION_CAPACITY`]), dropping the
    /// oldest revisions if the ring already exceeds it. Takes effect on the
    /// next publish for the table snapshot readers see.
    pub fn set_revision_capacity(&mut self, capacity: usize) {
        self.revision_capacity = capacity.max(1);
        if self.revisions.len() > self.revision_capacity {
            let excess = self.revisions.len() - self.revision_capacity;
            self.revisions.drain(..excess);
        }
    }

    /// The version of the table the readers currently serve
    /// (`version_floor` + the sifter's commit count) — strictly increasing
    /// across commits *and* snapshot restores.
    pub fn published_version(&self) -> u64 {
        self.version_floor + self.sifter.commits()
    }

    /// Replace the trained state with a restored snapshot and publish the
    /// result to every reader in one atomic swap — the `PUT /v1/snapshot`
    /// operation of a verdict server.
    ///
    /// The configured filter engine is kept (shared, not recompiled); the
    /// snapshot's thresholds take effect, exactly as
    /// [`SifterBuilder::restore`](crate::SifterBuilder::restore).
    /// Readers never observe a half-imported state: they keep serving the
    /// previous table until the single publish, and published versions stay
    /// strictly increasing across the swap (the restored state appears as
    /// `published_version() + 1`, not as a reset to 1). On error the
    /// previous state keeps serving untouched.
    ///
    /// Observations buffered but not yet committed at swap time do **not**
    /// survive it — the snapshot replaces the whole trained state. The
    /// returned count says how many were discarded, so a caller (e.g. the
    /// verdict server's `PUT /v1/snapshot`) can surface the loss instead
    /// of hiding it; commit first if they must be kept.
    ///
    /// With a durable store attached, the restore is **not durable until
    /// the next [`SifterWriter::checkpoint`]** — the on-disk generation
    /// still pairs the old snapshot with the old journal, so a crash
    /// before the checkpoint boots the pre-restore state (consistently).
    /// Call `checkpoint()` immediately after a successful restore, and
    /// report success to the requester only once it returns `Ok`.
    pub fn restore_snapshot(&mut self, snapshot: &SifterSnapshot) -> Result<u64, SnapshotError> {
        let mut builder = Sifter::builder();
        if let Some(engine) = self.sifter.engine_arc() {
            builder = builder.shared_engine(engine);
        }
        if let Some(rewriter) = self.sifter.rewriter_arc() {
            builder = builder.shared_rewriter(rewriter);
        }
        let restored = builder.restore(snapshot)?;
        let dropped_pending = self.sifter.ingest_stats().pending;
        // The restored sifter has committed exactly once; place that commit
        // one past the last published version.
        self.version_floor = (self.published_version() + 1).saturating_sub(restored.commits());
        // The restored interner assigned fresh ids; invalidate every id a
        // client cached against the old table by bumping the epoch.
        self.keys_epoch = self.version_floor + restored.commits();
        self.sifter = restored;
        // A restored snapshot is a new world, not drift from the previous
        // one: drop the ring (its key ids belong to the old epoch anyway)
        // and publish without recording a revision.
        self.revisions.clear();
        self.publish();
        Ok(dropped_pending)
    }

    /// Mint another reader handle (equivalent to cloning any existing one).
    pub fn reader(&self) -> SifterReader {
        self.publisher.reader()
    }

    /// Read-only access to the underlying sifter, for inspection and
    /// export: [`Sifter::hierarchy`], [`Sifter::ingest_stats`],
    /// `Sifter::committed_resources`, …
    pub fn sifter(&self) -> &Sifter {
        &self.sifter
    }

    /// One consolidated view of the serving state; the `version` field is
    /// the *published* table version (monotone across
    /// [`SifterWriter::restore_snapshot`]), see [`ServiceStats`].
    pub fn service_stats(&self) -> ServiceStats {
        ServiceStats {
            version: self.published_version(),
            ..self.sifter.service_stats()
        }
    }
}

/// A verdict-serving handle over the writer's last published
/// [`VerdictTable`].
///
/// `SifterReader` is `Clone + Send`: clone one handle per serving thread.
/// Every query pins the table the handle caches, refreshing it first if a
/// table was published since the handle's last pin — one atomic load, and
/// a lock only on that refresh (see the [module docs](self)) — and
/// forwards to it. To answer a batch from a single consistent committed
/// state even while the writer publishes mid-batch, hold one
/// [`SifterReader::pin`] across it.
///
/// A handle is not `Sync`, so threads cannot share one by reference:
///
/// ```compile_fail,E0277
/// fn shared<T: Sync>() {}
/// shared::<trackersift_engine::SifterReader>();
/// ```
///
/// ```
/// use std::thread;
/// use trackersift_engine::{DecisionRequest, ObservationRef, Sifter};
///
/// let (mut writer, reader) = Sifter::builder().build_concurrent();
/// let row = ObservationRef::parts("ads.com", "px.ads.com", "https://pub.com/a.js", "send", true);
/// writer.apply(row);
/// writer.commit();
///
/// let workers: Vec<_> = (0..4)
///     .map(|_| {
///         let reader = reader.clone(); // one handle per thread
///         thread::spawn(move || {
///             let query =
///                 DecisionRequest::new("ads.com", "px.ads.com", "https://pub.com/a.js", "send");
///             reader.verdict(&query).should_block()
///         })
///     })
///     .collect();
/// for worker in workers {
///     assert!(worker.join().unwrap());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SifterReader {
    shared: Arc<Shared>,
    /// The publish count at the pin that cached `cached`. Read before the
    /// table it goes with, so it never runs ahead of that table.
    seen: Cell<u64>,
    /// The table this handle last pinned.
    cached: RefCell<Arc<VerdictTable>>,
}

impl SifterReader {
    fn new(shared: Arc<Shared>) -> Self {
        let seen = shared.published.load(Ordering::Acquire);
        let cached = Arc::clone(&shared.current.lock().expect("table lock"));
        SifterReader {
            shared,
            seen: Cell::new(seen),
            cached: RefCell::new(cached),
        }
    }

    /// Pin the current table for a sequence of reads. The returned guard
    /// serves any number of verdicts from one consistent committed state;
    /// the writer can publish concurrently without affecting it.
    ///
    /// One `Acquire` load when nothing was published since this handle's
    /// last pin; otherwise one lock acquisition clones the new table's
    /// `Arc` into the handle. A pin taken while another pin of this handle
    /// is alive serves that outer pin's table.
    pub fn pin(&self) -> PinnedTable<'_> {
        let published = self.shared.published.load(Ordering::Acquire);
        if published != self.seen.get() {
            // Busy only under an outer pin, which keeps its table; the next
            // pin after it drops refreshes.
            if let Ok(mut cached) = self.cached.try_borrow_mut() {
                *cached = Arc::clone(&self.shared.current.lock().expect("table lock"));
                self.seen.set(published);
            }
        }
        PinnedTable(self.cached.borrow())
    }

    /// Answer one verdict query against the current published table.
    pub fn verdict(&self, request: &DecisionRequest<'_>) -> Verdict {
        self.pin().verdict(request)
    }

    /// Answer one enforcement decision against the current published table;
    /// see [`crate::Decision`].
    pub fn decide(&self, request: &DecisionRequest<'_>) -> Decision {
        self.pin().decide(request)
    }

    /// The version (commit count) of the currently published table.
    pub fn version(&self) -> u64 {
        self.pin().version()
    }
}

// The serving contract: a reader handle moves to the thread it serves on;
// the writer and the publisher may be moved or shared.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<SifterReader>();
    assert_send_sync::<SifterWriter>();
    assert_send_sync::<TablePublisher>();
};

/// A pinned, immutable [`VerdictTable`]: one consistent committed state,
/// valid for the guard's lifetime no matter what the writer publishes.
/// Derefs to the table, so `pin.verdict(..)`, `pin.decide(..)` and
/// `pin.version()` are the table's own methods. Created by
/// [`SifterReader::pin`]; not `Send`, because the pin borrows its handle's
/// cache on the thread that took it:
///
/// ```compile_fail,E0277
/// fn sent<T: Send>() {}
/// sent::<trackersift_engine::concurrent::PinnedTable<'static>>();
/// ```
#[derive(Debug)]
pub struct PinnedTable<'a>(Ref<'a, Arc<VerdictTable>>);

impl PinnedTable<'_> {
    /// The pinned table.
    pub fn table(&self) -> &VerdictTable {
        &self.0
    }
}

impl Deref for PinnedTable<'_> {
    type Target = VerdictTable;

    fn deref(&self) -> &VerdictTable {
        self.table()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::Classification;
    use filterlist::ResourceType;

    fn block_query<'a>() -> DecisionRequest<'a> {
        DecisionRequest::new("ads.com", "px.ads.com", "https://pub.com/a.js", "send")
    }

    /// An observation of the request [`block_query`] asks about.
    fn block_row(tracking: bool) -> ObservationRef<'static> {
        ObservationRef::parts(
            "ads.com",
            "px.ads.com",
            "https://pub.com/a.js",
            "send",
            tracking,
        )
    }

    #[test]
    fn commits_become_visible_to_existing_and_cloned_readers() {
        let (mut writer, reader) = Sifter::builder().build_concurrent();
        assert_eq!(reader.version(), 0);
        assert_eq!(reader.verdict(&block_query()), Verdict::Unknown);

        writer.apply(block_row(true));
        // Buffered: readers still see the old table.
        assert_eq!(reader.verdict(&block_query()), Verdict::Unknown);
        writer.commit();

        let cloned = reader.clone();
        let minted = writer.reader();
        for handle in [&reader, &cloned, &minted] {
            assert_eq!(handle.version(), 1);
            assert!(handle.verdict(&block_query()).should_block());
        }
    }

    #[test]
    fn a_pinned_table_survives_later_publishes_unchanged() {
        let (mut writer, reader) = Sifter::builder().build_concurrent();
        writer.apply(block_row(true));
        writer.commit();

        let pin = reader.pin();
        assert_eq!(pin.version(), 1);
        assert!(pin.verdict(&block_query()).should_block());

        // Publish twice more while the pin is held: the pinned state must
        // not move, while fresh pins see the newest table.
        for _ in 0..2 {
            writer.apply(block_row(false));
            writer.commit();
        }
        assert_eq!(pin.version(), 1);
        assert!(pin.verdict(&block_query()).should_block());
        let fresh = writer.reader();
        assert_eq!(fresh.version(), 3);
        assert_eq!(
            fresh.verdict(&block_query()).classification(),
            Some(Classification::Mixed)
        );
        drop(pin);
        assert_eq!(reader.version(), 3);
    }

    #[test]
    fn a_nested_pin_serves_the_outer_table_across_a_publish() {
        let (mut writer, reader) = Sifter::builder().build_concurrent();
        writer.apply(block_row(true));
        writer.commit();

        let outer = reader.pin();
        writer.apply(block_row(false));
        writer.commit();
        // The outer pin holds the handle's cache, so a pin taken inside it
        // serves that same committed version, not a mix of two.
        let inner = reader.pin();
        assert_eq!((outer.version(), inner.version()), (1, 1));
        assert!(inner.verdict(&block_query()).should_block());
        drop(inner);
        drop(outer);
        // The next pin after both drop sees the newest version.
        let pin = reader.pin();
        assert_eq!(pin.version(), 2);
        assert_eq!(
            pin.verdict(&block_query()).classification(),
            Some(Classification::Mixed)
        );
    }

    /// A retired table lives while any handle caches it, the writer frees
    /// it at the first publish after every handle has pinned past it, and
    /// handles that outlive the publisher keep serving.
    #[test]
    fn a_retired_table_is_freed_once_every_handle_has_pinned_past_it() {
        let mut sifter = Sifter::builder().build();
        let mut next_table = || {
            sifter.commit();
            Arc::new(sifter.verdict_table())
        };
        let first = next_table();
        let first_weak = Arc::downgrade(&first);
        let (publisher, idle) = TablePublisher::new(first);
        let busy = idle.clone();

        let second = next_table();
        let second_weak = Arc::downgrade(&second);
        publisher.publish(second);
        assert_eq!(busy.version(), 2);
        publisher.publish(next_table());
        assert!(
            first_weak.upgrade().is_some(),
            "the idle handle still caches version 1"
        );
        assert_eq!(idle.version(), 3);
        assert!(
            first_weak.upgrade().is_some(),
            "a pinning handle never frees a table; the next publish does"
        );

        publisher.publish(next_table());
        assert!(
            first_weak.upgrade().is_none(),
            "every handle pinned past it"
        );
        assert!(
            second_weak.upgrade().is_some(),
            "the busy handle still caches version 2"
        );

        drop(publisher);
        assert_eq!((busy.version(), idle.version()), (4, 4));
        assert!(second_weak.upgrade().is_none());
        assert_eq!(busy.clone().version(), 4);
    }

    #[test]
    fn readers_outlive_the_writer_on_the_last_published_table() {
        let (mut writer, reader) = Sifter::builder().build_concurrent();
        writer.apply(block_row(true));
        writer.commit();
        assert_eq!(writer.sifter().commits(), 1);
        drop(writer);
        // The writer is gone; the reader keeps serving the last table.
        assert!(reader.verdict(&block_query()).should_block());
        assert_eq!(reader.clone().version(), 1);
    }

    #[test]
    fn restore_snapshot_swaps_state_monotonically_and_reports_dropped_pending() {
        // A trained source sifter to export.
        let mut source = Sifter::builder().build();
        source.apply(block_row(true));
        source.commit();
        let snapshot = source.snapshot();

        // A running pair with some history and a buffered observation.
        let (mut writer, reader) = Sifter::builder().build_concurrent();
        for _ in 0..3 {
            writer.apply(ObservationRef::parts(
                "old.com",
                "h.old.com",
                "s.js",
                "m",
                false,
            ));
            writer.commit();
        }
        assert_eq!(reader.version(), 3);
        writer.apply(ObservationRef::parts(
            "old.com",
            "h.old.com",
            "s.js",
            "m",
            false,
        ));
        assert_eq!(writer.sifter().ingest_stats().pending, 1);

        // The swap reports the discarded pending observation, publishes
        // atomically, and versions keep increasing (never a reset to 1).
        let dropped = writer.restore_snapshot(&snapshot).expect("restore");
        assert_eq!(dropped, 1);
        assert_eq!(reader.version(), 4);
        assert_eq!(writer.published_version(), 4);
        assert_eq!(writer.service_stats().version, 4);
        assert!(reader.verdict(&block_query()).should_block());
        assert_eq!(
            reader.verdict(&DecisionRequest::new("old.com", "h.old.com", "s.js", "m")),
            Verdict::Unknown
        );

        // Later commits keep climbing from the rebased floor.
        writer.apply(block_row(true));
        writer.commit();
        assert_eq!(reader.version(), 5);
    }

    /// A restore rebases the published version past the sifter's own
    /// commit count and bumps the key epoch; the one table built for it
    /// carries both, down to every version-baked prebuilt body.
    #[test]
    fn a_restored_table_is_built_at_its_published_version_and_key_epoch() {
        use crate::frames::{self, FIXED_COMBOS};
        let mut source = Sifter::builder().build();
        source.apply(block_row(true));
        source.commit();
        let snapshot = source.snapshot();

        let (mut writer, reader) = Sifter::builder().build_concurrent();
        for _ in 0..2 {
            writer.apply(block_row(false));
            writer.commit();
        }
        writer.restore_snapshot(&snapshot).expect("restore");
        assert!(writer.version_floor > 0, "the restore rebased the version");

        let pin = reader.pin();
        assert_eq!(pin.version(), 3);
        assert_ne!(pin.version(), writer.sifter().commits());
        assert_eq!(pin.keys_epoch(), writer.keys_epoch);
        assert_ne!(pin.keys_epoch(), 0, "the restore bumped the epoch");
        let head = format!("{{\"version\":{},", pin.version());
        let prebuilt = pin.prebuilt();
        for index in 0..FIXED_COMBOS {
            assert_eq!(
                prebuilt.binary_single(index),
                &frames::encode_fixed_single(&frames::fixed_decision(index), pin.version()),
                "binary body {index}"
            );
            assert!(
                prebuilt.json_single(index).starts_with(&head),
                "json body {index}: {}",
                prebuilt.json_single(index)
            );
        }
        assert!(prebuilt.json_single_prefix().starts_with(&head));
        assert!(prebuilt.json_batch_prefix().starts_with(&head));
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .as_nanos();
        std::env::temp_dir().join(format!(
            "trackersift-durable-{tag}-{}-{nanos}",
            std::process::id()
        ))
    }

    #[test]
    fn durable_writer_recovers_fsynced_observations_after_a_crash() {
        let dir = temp_dir("recover");
        {
            let (mut writer, _reader) = Sifter::builder().build_concurrent();
            let report = writer.open_durable(&dir, 1).expect("open durable");
            assert!(!report.restored_snapshot);
            assert_eq!(report.replayed_records, 0);
            writer.apply(block_row(true));
            writer.commit();
            // One more observation, fsynced (sync_every = 1) but never
            // committed; then the process "crashes" (drop, no shutdown).
            writer.apply(ObservationRef::parts(
                "ads.com",
                "px2.ads.com",
                "https://pub.com/a.js",
                "send",
                true,
            ));
            let stats = writer.journal_stats().expect("journal stats");
            assert_eq!(
                stats.appended, 4,
                "2 observations + 1 commit marker + 1 ring record"
            );
            assert_eq!(stats.synced, 4);
        }
        let (mut writer, reader) = Sifter::builder().build_concurrent();
        let report = writer.open_durable(&dir, 1).expect("recover");
        assert_eq!(report.replayed_records, 4);
        assert_eq!(report.replayed_commits, 1);
        assert_eq!(report.torn_bytes, 0);
        // The committed observation serves again; the uncommitted one is
        // pending again, exactly as before the crash.
        assert!(reader.verdict(&block_query()).should_block());
        assert_eq!(writer.sifter().ingest_stats().pending, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `apply_batch` returns with every row on disk, past `sync_every` or
    /// short of it, after one fsync — no commit, no shutdown sync needed.
    #[test]
    fn a_batch_is_on_disk_when_apply_batch_returns() {
        let dir = temp_dir("batch");
        let (mut writer, _reader) = Sifter::builder().build_concurrent();
        writer.open_durable(&dir, 64).expect("open durable");
        let hosts: Vec<String> = (0..100).map(|n| format!("h{n}.ads.com")).collect();
        let accepted = writer.apply_batch(hosts.iter().map(|hostname| {
            ObservationRef::parts("ads.com", hostname, "https://pub.com/a.js", "send", true)
        }));
        assert_eq!(accepted, 100);
        assert_eq!(writer.sifter().ingest_stats().pending, 100);
        let stats = writer.journal_stats().expect("journal stats");
        assert_eq!((stats.appended, stats.synced, stats.syncs), (100, 100, 1));
        let path = DurableDir::open(&dir).expect("dir").journal_path();
        let (entries, report) = Journal::replay(&path).expect("replay");
        assert_eq!((entries.len(), report.torn_bytes), (100, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_rotates_the_journal_into_a_snapshot_generation() {
        let dir = temp_dir("checkpoint");
        {
            let (mut writer, _reader) = Sifter::builder().build_concurrent();
            writer.open_durable(&dir, 4).expect("open durable");
            writer.apply(block_row(true));
            // checkpoint() commits the pending observation itself.
            let generation = writer.checkpoint().expect("checkpoint");
            assert_eq!(generation, 1);
            assert_eq!(writer.durable_generation(), Some(1));
            let stats = writer.journal_stats().expect("journal stats");
            assert_eq!(stats.rotations, 1);
            assert!(
                stats.bytes > 0,
                "fresh generation journal holds the seeded revision ring"
            );
        }
        let (mut writer, reader) = Sifter::builder().build_concurrent();
        let report = writer.open_durable(&dir, 4).expect("reboot");
        assert!(report.restored_snapshot);
        assert_eq!(report.snapshot_observations, 1);
        assert_eq!(
            report.replayed_records, 1,
            "the seeded ring record replays; no observations do"
        );
        assert!(reader.verdict(&block_query()).should_block());
        assert_eq!(writer.sifter().ingest_stats().pending, 0);
        // The ring survived the checkpoint + restart: versions stay
        // continuous and the pre-crash span still answers.
        assert_eq!(writer.published_version(), 1);
        assert_eq!(writer.revisions().len(), 1);
        assert_eq!(writer.revisions()[0].version(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_rebuilds_the_revision_ring_with_continuous_versions() {
        let dir = temp_dir("ring");
        {
            let (mut writer, _reader) = Sifter::builder().build_concurrent();
            writer.open_durable(&dir, 1).expect("open durable");
            for i in 0..3 {
                writer.apply(ObservationRef::parts(
                    &format!("d{i}.com"),
                    &format!("h.d{i}.com"),
                    "https://pub.com/s.js",
                    "m",
                    true,
                ));
                writer.commit();
            }
            assert_eq!(writer.published_version(), 3);
            assert_eq!(writer.revisions().len(), 3);
            // The process "crashes" here: drop without shutdown.
        }
        let (mut writer, _reader) = Sifter::builder().build_concurrent();
        writer.open_durable(&dir, 1).expect("recover");
        assert_eq!(
            writer.published_version(),
            3,
            "versions continue the pre-crash numbering"
        );
        let versions: Vec<u64> = writer.revisions().iter().map(|r| r.version()).collect();
        assert_eq!(
            versions,
            vec![1, 2, 3],
            "the ring is rebuilt, not collapsed"
        );
        let diff = crate::revision::diff_revisions(writer.revisions(), 0, 3).expect("full span");
        assert_eq!(
            diff.changes().len(),
            3,
            "one pure-tracking domain added per commit across the span"
        );
        // New commits keep extending the same numbering.
        writer.apply(ObservationRef::parts(
            "d9.com",
            "h.d9.com",
            "https://pub.com/s.js",
            "m",
            true,
        ));
        writer.commit();
        assert_eq!(writer.published_version(), 4);
        assert_eq!(writer.revisions().last().expect("ring entry").version(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_seeds_the_ring_into_the_next_generation() {
        let dir = temp_dir("ring-checkpoint");
        {
            let (mut writer, _reader) = Sifter::builder().build_concurrent();
            writer.open_durable(&dir, 1).expect("open durable");
            for i in 0..2 {
                writer.apply(ObservationRef::parts(
                    &format!("d{i}.com"),
                    &format!("h.d{i}.com"),
                    "https://pub.com/s.js",
                    "m",
                    true,
                ));
                writer.commit();
            }
            writer.checkpoint().expect("checkpoint");
            // One more commit after the checkpoint, then crash.
            writer.apply(ObservationRef::parts(
                "d2.com",
                "h.d2.com",
                "https://pub.com/s.js",
                "m",
                true,
            ));
            writer.commit();
        }
        let (mut writer, _reader) = Sifter::builder().build_concurrent();
        let report = writer.open_durable(&dir, 1).expect("recover");
        assert!(report.restored_snapshot);
        assert_eq!(writer.published_version(), 3);
        let versions: Vec<u64> = writer.revisions().iter().map(|r| r.version()).collect();
        assert_eq!(
            versions,
            vec![1, 2, 3],
            "pre-checkpoint ring entries survive via the seeded records"
        );
        assert!(
            crate::revision::diff_revisions(writer.revisions(), 0, 3).is_ok(),
            "a span predating the checkpoint still answers"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A commit's revision is what its fold wrote: a domain flip, every
    /// membership the flip takes away below it, and the plan it drops.
    #[test]
    fn a_revision_records_the_flips_and_dropped_plans_of_its_commit() {
        use crate::hierarchy::Granularity::{Domain, Hostname, Method, Script};
        use crate::intern::ResourceKey;
        use crate::revision::ChangeKind::{Added, Flipped, Removed};
        use Classification::{Functional, Mixed, Tracking};
        const SCRIPT: &str = "https://pub.com/mixed.js";
        let row = |method, tracking| {
            ObservationRef::parts("hub.com", "w.hub.com", SCRIPT, method, tracking)
        };
        let (mut writer, reader) = Sifter::builder().build_concurrent();
        let recorded = |writer: &SifterWriter| {
            let revision = writer.revisions().last().expect("a ring entry");
            let changes: Vec<_> = revision
                .changes()
                .iter()
                .map(|change| (change.granularity, change.key.to_string(), change.kind))
                .collect();
            (changes, revision.plans_touched().to_vec())
        };
        let track = ResourceKey::method_label(SCRIPT, "track");
        let render = ResourceKey::method_label(SCRIPT, "render");

        writer.apply(row("track", true));
        writer.apply(row("render", false));
        writer.commit();
        assert!(reader.pin().surrogate_plan(SCRIPT).is_some());
        assert_eq!(
            recorded(&writer),
            (
                vec![
                    (Domain, "hub.com".to_string(), Added(Mixed)),
                    (Hostname, "w.hub.com".to_string(), Added(Mixed)),
                    (Script, SCRIPT.to_string(), Added(Mixed)),
                    (Method, render.clone(), Added(Functional)),
                    (Method, track.clone(), Added(Tracking)),
                ],
                vec![Arc::from(SCRIPT)]
            )
        );

        writer.apply_batch(std::iter::repeat(row("render", false)).take(1000));
        writer.commit();
        assert!(reader.pin().surrogate_plan(SCRIPT).is_none());
        assert_eq!(
            recorded(&writer),
            (
                vec![
                    (Domain, "hub.com".to_string(), Flipped(Mixed, Functional)),
                    (Hostname, "w.hub.com".to_string(), Removed(Mixed)),
                    (Script, SCRIPT.to_string(), Removed(Mixed)),
                    (Method, render, Removed(Functional)),
                    (Method, track, Removed(Tracking)),
                ],
                vec![Arc::from(SCRIPT)]
            )
        );
    }

    #[test]
    fn writer_apply_mirrors_the_sifter() {
        let (mut writer, _reader) = Sifter::builder().build_concurrent();
        assert_eq!(
            writer.apply(ObservationRef::url(
                "https://x.test/a",
                "pub.com",
                ResourceType::Script,
                "s.js",
                "m"
            )),
            ObserveOutcome::NoEngine
        );
        writer.apply(ObservationRef::parts("a.com", "h.a.com", "s.js", "m", true));
        assert_eq!(writer.sifter().ingest_stats().pending, 1);
        let stats = writer.commit();
        assert_eq!(stats.observations, 1);
        assert_eq!(writer.sifter().snapshot().observations(), 1);
        assert_eq!(writer.sifter().ingest_stats().no_engine, 1);
    }
}
