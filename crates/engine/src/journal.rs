//! Write-ahead observation journal: crash durability for the serving
//! state.
//!
//! A [`Sifter`](crate::Sifter) behind a
//! [`SifterWriter`](crate::concurrent::SifterWriter) accumulates
//! observations in memory and folds them in at `commit()`; a process crash
//! between snapshots silently loses everything since the last export. The
//! [`Journal`] closes that gap with the classic write-ahead discipline:
//! every observation is appended to an append-only log *before* it mutates
//! writer state, and boot replays the log on top of the last snapshot.
//!
//! # The durability contract
//!
//! **Every acknowledged batch and commit is on disk before its reply.** A
//! batch ([`SifterWriter::apply_batch`](crate::concurrent::SifterWriter::apply_batch))
//! is framed whole, flushed and fsynced once, then folded; a commit
//! appends its marker and fsyncs before the fold it covers. Every server
//! path journals batches: a verdict server's `POST /v1/observations` is
//! one, and so is the re-crawl of a `POST /v1/tick`. The only rows
//! journaled one at a time are a library caller's
//! [`SifterWriter::apply`](crate::concurrent::SifterWriter::apply); they
//! wait in the buffer for the `sync_every`-th record, so `kill -9` at any
//! instant loses at most fewer than `sync_every` of those — never a record
//! whose batch or commit was acknowledged.
//!
//! # The write path
//!
//! The journal carries the write path's own values, not copies of them: an
//! observation record is encoded straight from the [`ObservationRef`]
//! [`Sifter::apply`](crate::Sifter::apply) is about to fold, and a
//! revision record's changes use the change layout of [`frames`] (the
//! revision frames `GET /v1/revisions` serves). Every record is framed in
//! place in the append buffer — length placeholder, payload, length patched,
//! checksum over the payload's slice — so an append allocates only when the
//! buffer has to grow. Replay decodes an observation into the owned
//! [`Observation`] and recovery lends it back to the call that journaled
//! it.
//!
//! # Record format
//!
//! The journal is a flat sequence of length-prefixed, checksummed frames
//! (all integers little-endian):
//!
//! | bytes | field |
//! |---|---|
//! | 4 | `len` — payload length |
//! | `len` | payload (first byte is the record kind) |
//! | 8 | checksum of the payload: [`filterlist::tokens::fold_bytes`]`(0, payload)`, the byte fold of the key maps' hasher (one multiply per eight bytes) |
//!
//! Journals written before the checksum moved to the word fold carry the
//! payload's 64-bit FNV-1a there instead. Replay accepts either, so an
//! upgraded primary replays its pre-upgrade journal whole rather than
//! truncating it at the first old frame; everything it appends is
//! word-folded.
//!
//! Payloads (strings are `u32`-length-prefixed UTF-8):
//!
//! | kind | record | payload after the kind byte |
//! |---|---|---|
//! | `1` | [`Observation::Parts`] | 4 strings + `u8` tracking flag |
//! | `2` | [`Observation::Url`] | url, source hostname, resource-type option name, script, method |
//! | `3` | [`JournalEntry::Commit`] | `u64` published version |
//! | `4` | [`JournalEntry::Revision`] | `u64` version + per-key class changes ([`frames`]' change layout) + touched plan keys |
//!
//! # Torn-write recovery
//!
//! A crash mid-append leaves a *torn tail*: a frame with a short length
//! prefix, a truncated payload, or a checksum that does not match.
//! [`Journal::replay`] is deliberately forgiving about exactly that shape
//! of damage and strict about everything else: it decodes frames from the
//! start, **stops at the first bad checksum or short frame** and reports
//! the clean prefix — it never errors on a valid prefix, and never
//! "recovers" a record whose checksum fails. [`Journal::recover`]
//! additionally truncates the file back to the clean prefix so appends
//! resume from a consistent point. The fault-injection suite proves the
//! property by replaying journals truncated at *every* byte offset.

use crate::failpoint;
use crate::frames::{self, FrameError, FrameReader};
use crate::revision::VerdictRevision;
use crate::service::{Observation, ObservationRef};
use filterlist::tokens::fold_bytes;
use filterlist::ResourceType;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Hard cap on one record's payload — a torn or corrupt length prefix
/// claiming gigabytes must read as "torn tail", not as an allocation.
const MAX_PAYLOAD_BYTES: u32 = 16 * 1024 * 1024;

const KIND_PARTS: u8 = 1;
const KIND_URL: u8 = 2;
const KIND_COMMIT: u8 = 3;
const KIND_REVISION: u8 = 4;

/// One replayed journal record, in append order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEntry {
    /// An observation, journaled ahead of its fold by
    /// [`SifterWriter::apply`](crate::concurrent::SifterWriter::apply) and
    /// replayed through the same call.
    Observation(Observation),
    /// A commit marker: every observation before it was folded into the
    /// servable state as the given published version.
    Commit {
        /// The published table version this commit produced.
        version: u64,
    },
    /// A revision-ring entry: the per-key class changes (and touched
    /// surrogate plans) one commit produced. Written after each commit's
    /// fold, and re-seeded into a fresh generation's journal by
    /// [`SifterWriter::checkpoint`](crate::concurrent::SifterWriter::checkpoint),
    /// so a restarted primary still answers `?diff=` spans from before the
    /// crash instead of collapsing its history to one recovery revision.
    Revision {
        /// The recorded revision, exactly as the ring held it.
        revision: VerdictRevision,
    },
}

/// What a replay found: how much of the file was a clean prefix and what
/// (if anything) was torn off the tail.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Commit markers among the records decoded from the clean prefix.
    pub commits: u64,
    /// Bytes of clean prefix (the recovery truncation point).
    pub valid_bytes: u64,
    /// Bytes past the clean prefix (the torn tail; `0` for a clean log).
    pub torn_bytes: u64,
}

/// Counters describing a journal's lifetime activity, surfaced through
/// `GET /v1/stats` on a durable verdict server.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended since open.
    pub appended: u64,
    /// Records guaranteed on disk (covered by a completed fsync).
    pub synced: u64,
    /// `fsync` calls issued.
    pub syncs: u64,
    /// Appends or flushes that failed with an I/O error (degraded
    /// durability: serving continues, the record is not journaled).
    pub write_errors: u64,
    /// `fsync` failures (the batch stays unsynced until a later sync
    /// succeeds).
    pub sync_errors: u64,
    /// Rotations (checkpoints that moved appends to a fresh generation's
    /// journal).
    pub rotations: u64,
    /// Bytes currently in the journal file (including unflushed buffer).
    pub bytes: u64,
}

/// An append-only, checksummed write-ahead log of observations and commit
/// markers; see the module docs of `journal.rs` for the format and
/// recovery semantics.
///
/// Appends are buffered in memory and reach the disk at three sync points:
/// the end of a batch (`append_batch`, one fsync however many records it
/// holds), an explicit [`Journal::sync`] (commit markers, checkpoints,
/// shutdown), and — for records appended one at a time only — the
/// `sync_every`-th unsynced record.
///
/// The buffer keeps its capacity across flushes, so a warm batch no larger
/// than the last one appends without allocating. It holds at most one
/// batch plus fewer than `sync_every` single records. On a verdict server a
/// batch is either one `POST /v1/observations` body, whose rows frame into
/// no more bytes than their JSON, so `max_body_bytes` bounds it, or one
/// scheduler tick's re-crawl: one frame per planned request of the corpus,
/// ≈ 1.4 MB at 200 sites (an epoch of the evolving 200-site web is 10,047
/// rows of 141.1 bytes averaged over its first 3 epochs, 10,314 of 138.6
/// over its first 30). Framing a row costs its encode and one checksum pass
/// over the payload, folded eight bytes per multiply.
#[derive(Debug)]
pub struct Journal {
    file: File,
    /// Appended-but-unflushed frame bytes.
    buffer: Vec<u8>,
    /// Records buffered since the last completed fsync.
    unsynced: u64,
    /// Force a sync once this many records appended one at a time are
    /// unsynced (a batch syncs at its end instead).
    sync_every: u64,
    /// Bytes durably in the file (flushed; not necessarily fsynced).
    file_bytes: u64,
    /// A simulated crash (failpoint byte-budget cut) wedged the file:
    /// later writes are dropped, as they would be after the real crash.
    wedged: bool,
    stats: JournalStats,
}

impl Journal {
    /// Open (creating if absent) the journal at `path` for appending,
    /// *without* replaying it — use [`Journal::recover`] on boot. Existing
    /// bytes are preserved; appends go to the end.
    pub fn open(path: impl Into<PathBuf>, sync_every: u64) -> io::Result<Journal> {
        failpoint::check_io("journal.open")?;
        let path = path.into();
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)?;
        let file_bytes = file.seek(SeekFrom::End(0))?;
        Ok(Journal {
            file,
            buffer: Vec::new(),
            unsynced: 0,
            sync_every: sync_every.max(1),
            file_bytes,
            wedged: false,
            stats: JournalStats {
                bytes: file_bytes,
                ..JournalStats::default()
            },
        })
    }

    /// Replay the journal at `path` without modifying it: decode the clean
    /// prefix, stop at the first bad checksum or short frame. A missing
    /// file is an empty journal, not an error.
    pub fn replay(path: &Path) -> io::Result<(Vec<JournalEntry>, ReplayReport)> {
        failpoint::check_io("journal.open")?;
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(error) if error.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(error) => return Err(error),
        };
        Ok(Self::replay_bytes(&bytes))
    }

    /// [`Journal::replay`] over an in-memory image (the truncation
    /// property tests drive this directly).
    pub fn replay_bytes(bytes: &[u8]) -> (Vec<JournalEntry>, ReplayReport) {
        let mut entries = Vec::new();
        let mut report = ReplayReport::default();
        let mut at = 0usize;
        while let Some(len_bytes) = bytes.get(at..at + 4) {
            let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
            if len == 0 || len > MAX_PAYLOAD_BYTES as usize {
                break;
            }
            let Some(payload) = bytes.get(at + 4..at + 4 + len) else {
                break;
            };
            let Some(checksum_bytes) = bytes.get(at + 4 + len..at + 12 + len) else {
                break;
            };
            let checksum = u64::from_le_bytes(checksum_bytes.try_into().expect("8 bytes"));
            // A frame appended before the checksum became the word fold
            // carries the payload's FNV-1a (see the module docs).
            let intact = checksum == fold_bytes(0, payload)
                || checksum == filterlist::tokens::fnv1a64(payload);
            if !intact {
                break;
            }
            // The checksum held, so the payload is exactly what was
            // appended; a payload that still fails to decode is treated as
            // end-of-clean-prefix too (replay never errors).
            let Ok(entry) = decode_payload(payload) else {
                break;
            };
            if matches!(entry, JournalEntry::Commit { .. }) {
                report.commits += 1;
            }
            entries.push(entry);
            at += 12 + len;
        }
        report.valid_bytes = at as u64;
        report.torn_bytes = bytes.len() as u64 - at as u64;
        (entries, report)
    }

    /// Open the journal at `path`, replay its clean prefix, and truncate
    /// any torn tail so appends resume from a consistent point. Returns
    /// the journal positioned at the end of the clean prefix plus the
    /// replayed entries for the caller to apply.
    pub fn recover(
        path: impl Into<PathBuf>,
        sync_every: u64,
    ) -> io::Result<(Journal, Vec<JournalEntry>, ReplayReport)> {
        let path = path.into();
        let (entries, report) = Self::replay(&path)?;
        let mut journal = Self::open(&path, sync_every)?;
        if report.torn_bytes > 0 {
            journal.file.set_len(report.valid_bytes)?;
            journal.file.seek(SeekFrom::End(0))?;
            journal.file_bytes = report.valid_bytes;
            journal.stats.bytes = report.valid_bytes;
        }
        Ok((journal, entries, report))
    }

    /// Append one record (buffered; see the batching rules in the type
    /// docs). Errors are also counted in [`JournalStats::write_errors`] so
    /// a caller that chooses to keep serving still surfaces the degraded
    /// durability.
    ///
    /// A record whose payload exceeds the replay cap (16 MiB) is refused
    /// with [`io::ErrorKind::InvalidInput`] and nothing is buffered: replay
    /// would read its length prefix as a torn tail, and recovery would
    /// truncate it *and every record after it*.
    pub fn append(&mut self, entry: &JournalEntry) -> io::Result<()> {
        self.append_framed(|out| encode_payload(out, entry))
    }

    /// [`Journal::append`] of `JournalEntry::Observation(..)` for a record
    /// that is only borrowed: both run the same `encode_observation`.
    pub(crate) fn append_observation(&mut self, observation: ObservationRef<'_>) -> io::Result<()> {
        self.append_framed(|out| encode_observation(out, observation))
    }

    /// [`Journal::append`] of `JournalEntry::Revision { .. }` for a
    /// revision that is only borrowed (a writer's ring entry): both run the
    /// same `encode_revision`.
    pub(crate) fn append_revision(&mut self, revision: &VerdictRevision) -> io::Result<()> {
        self.append_framed(|out| encode_revision(out, revision))
    }

    /// Journal a batch acknowledged as one: frame every observation with no
    /// count-based sync, then flush and fsync once — the batch is on disk
    /// when this returns `Ok`, whatever its length against `sync_every`.
    /// The bytes are the ones [`Journal::append_observation`] writes for
    /// the same records one by one. A record that cannot be framed is
    /// counted in [`JournalStats::write_errors`] and skipped, as `append`
    /// refuses it; the returned error is the sync's.
    pub(crate) fn append_batch<'a>(
        &mut self,
        observations: impl IntoIterator<Item = ObservationRef<'a>>,
    ) -> io::Result<()> {
        for observation in observations {
            let _ = self.frame(|out| encode_observation(out, observation));
        }
        if self.unsynced == 0 {
            return Ok(());
        }
        self.sync()
    }

    /// Frame the payload `encode` writes, then sync once `sync_every`
    /// records are unsynced.
    fn append_framed(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        self.frame(encode)?;
        if self.unsynced >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Frame the payload `encode` writes, in place at the end of the buffer.
    fn frame(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        if let Err(error) = failpoint::check_io("journal.append") {
            self.stats.write_errors += 1;
            return Err(error);
        }
        let frame_at = self.buffer.len();
        self.buffer.extend_from_slice(&[0; 4]);
        encode(&mut self.buffer);
        let payload_len = self.buffer.len() - frame_at - 4;
        if payload_len > MAX_PAYLOAD_BYTES as usize {
            self.buffer.truncate(frame_at);
            self.stats.write_errors += 1;
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "journal record of {payload_len} bytes exceeds the {MAX_PAYLOAD_BYTES}-byte replay cap"
                ),
            ));
        }
        self.buffer[frame_at..frame_at + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
        let checksum = fold_bytes(0, &self.buffer[frame_at + 4..]);
        self.buffer.extend_from_slice(&checksum.to_le_bytes());
        self.stats.appended += 1;
        self.stats.bytes = self.file_bytes + self.buffer.len() as u64;
        self.unsynced += 1;
        Ok(())
    }

    /// Flush buffered frames to the file and `fsync` it: everything
    /// appended so far is durable when this returns `Ok`. Failures are
    /// counted ([`JournalStats::sync_errors`] / `write_errors`) and leave
    /// the unflushed bytes buffered for the next attempt.
    pub fn sync(&mut self) -> io::Result<()> {
        self.flush_buffer()?;
        if let Err(error) = failpoint::check_io("journal.sync") {
            self.stats.sync_errors += 1;
            return Err(error);
        }
        if let Err(error) = self.file.sync_data() {
            self.stats.sync_errors += 1;
            return Err(error);
        }
        self.stats.syncs += 1;
        self.stats.synced = self.stats.appended;
        self.unsynced = 0;
        Ok(())
    }

    /// Lifetime activity counters.
    pub fn stats(&self) -> &JournalStats {
        &self.stats
    }

    fn flush_buffer(&mut self) -> io::Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        if self.wedged {
            // A simulated crash already cut this file; drop the bytes the
            // "dead" process would never have written.
            self.buffer.clear();
            self.stats.write_errors += 1;
            return Ok(());
        }
        if let Err(error) = failpoint::check_io("journal.write") {
            self.stats.write_errors += 1;
            return Err(error);
        }
        // A `journal.cut` failpoint budget simulates the crash tearing the
        // write at an exact byte offset: the prefix reaches the file, the
        // rest never happened.
        let allowed = failpoint::write_allowance("journal.cut", self.buffer.len());
        if allowed < self.buffer.len() {
            let _ = self.file.write_all(&self.buffer[..allowed]);
            self.file_bytes += allowed as u64;
            self.buffer.clear();
            self.wedged = true;
            self.stats.write_errors += 1;
            self.stats.bytes = self.file_bytes;
            return Ok(());
        }
        if let Err(error) = self.file.write_all(&self.buffer) {
            self.stats.write_errors += 1;
            return Err(error);
        }
        self.file_bytes += self.buffer.len() as u64;
        self.buffer.clear();
        self.stats.bytes = self.file_bytes;
        Ok(())
    }
}

/// Write `bytes` to `path` atomically: temp file, `fsync`, rename, then
/// `fsync` of the directory, so the rename itself outlives a power cut. A
/// crash at any instant leaves either the old file or the new one, never
/// a half-written hybrid. (Threaded with the `snapshot.write` /
/// `snapshot.rename` / `dir.sync` failpoints.) An error from the directory
/// sync means the new file is in place but may not survive a power cut.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    replace(path, bytes)?;
    sync_dir(
        path.parent()
            .filter(|dir| !dir.as_os_str().is_empty())
            .unwrap_or(Path::new(".")),
    )
}

/// [`write_atomic`] without the directory sync: on `Err`, `path` still
/// holds what it held before.
fn replace(path: &Path, bytes: &[u8]) -> io::Result<()> {
    failpoint::check_io("snapshot.write")?;
    let tmp = path.with_extension("tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_data()?;
    drop(file);
    failpoint::check_io("snapshot.rename")?;
    std::fs::rename(&tmp, path)
}

/// `fsync` a directory, making the creates, renames and unlinks in it so
/// far durable (unix; elsewhere only the `dir.sync` failpoint runs).
fn sync_dir(dir: &Path) -> io::Result<()> {
    failpoint::check_io("dir.sync")?;
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// What booting a durable store recovered, for observability: did a
/// snapshot load, and how much journal replayed on top of it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The checkpoint generation the store booted from.
    pub generation: u64,
    /// Whether a checkpoint snapshot was found and restored.
    pub restored_snapshot: bool,
    /// Observations carried by the restored snapshot.
    pub snapshot_observations: u64,
    /// Journal records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Commit markers among the replayed records.
    pub replayed_commits: u64,
    /// Bytes torn off the journal tail (lost to the crash — at most the
    /// un-fsynced suffix).
    pub torn_bytes: u64,
}

/// A checkpoint-generation directory: the crash-safe pairing of one
/// snapshot file with the journal of observations made after it.
///
/// Layout under the directory:
///
/// | file | content |
/// |---|---|
/// | `CURRENT` | the live generation number `g` (written atomically) |
/// | `snapshot-<g>.json` | the checkpoint snapshot (absent for generation 0) |
/// | `journal-<g>.wal` | observations journaled since that checkpoint |
///
/// `DurableDir::advance` builds the next generation's pair completely
/// (fresh journal created, snapshot written + fsynced, directory fsynced)
/// **before** atomically flipping `CURRENT`, and fsyncs the directory
/// again before removing the old pair — so a crash or power cut at any
/// point during a checkpoint boots from a consistent older or newer pair,
/// never from a new snapshot with a stale journal (which would
/// double-count every replayed observation) or a `CURRENT` whose files
/// are gone.
#[derive(Debug)]
pub struct DurableDir {
    dir: PathBuf,
    generation: u64,
}

impl DurableDir {
    /// Open (creating if absent) a durable store directory and read its
    /// live generation (`0` for a fresh directory).
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DurableDir> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let generation = match std::fs::read_to_string(dir.join("CURRENT")) {
            Ok(text) => text.trim().parse::<u64>().map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt CURRENT pointer {text:?}"),
                )
            })?,
            Err(error) if error.kind() == io::ErrorKind::NotFound => 0,
            Err(error) => return Err(error),
        };
        Ok(DurableDir { dir, generation })
    }

    /// The live checkpoint generation.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Path of the live generation's snapshot (may not exist for
    /// generation 0, which has no checkpoint yet).
    pub(crate) fn snapshot_path(&self) -> PathBuf {
        self.dir.join(format!("snapshot-{}.json", self.generation))
    }

    /// Path of the live generation's journal.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join(format!("journal-{}.wal", self.generation))
    }

    /// Publish the next checkpoint generation: create a fresh empty
    /// journal, write `snapshot_json` atomically, then flip `CURRENT`.
    /// Returns the new generation's journal. On error the live generation
    /// is unchanged (the half-built next generation is garbage a later
    /// `advance` overwrites).
    ///
    /// The directory is synced after the new pair is in place and again
    /// after the flip, and only then is the previous pair removed: until
    /// the flip is durable, a power cut may boot the previous generation,
    /// so its files must still be there. If that second sync fails, the
    /// flip has already happened — it is what a reboot reads — so the new
    /// generation is returned with the failure counted in its
    /// [`JournalStats::sync_errors`], and the previous pair stays.
    pub(crate) fn advance(&mut self, snapshot_json: &str, sync_every: u64) -> io::Result<Journal> {
        let next = self.generation + 1;
        let journal_path = self.dir.join(format!("journal-{next}.wal"));
        // A crashed earlier attempt at this generation may have left a
        // stale journal; the new generation starts empty.
        match std::fs::remove_file(&journal_path) {
            Ok(()) => {}
            Err(error) if error.kind() == io::ErrorKind::NotFound => {}
            Err(error) => return Err(error),
        }
        let mut journal = Journal::open(&journal_path, sync_every)?;
        // Its directory sync covers the journal's creation too.
        write_atomic(
            &self.dir.join(format!("snapshot-{next}.json")),
            snapshot_json.as_bytes(),
        )?;
        replace(&self.dir.join("CURRENT"), next.to_string().as_bytes())?;
        let previous = self.generation;
        self.generation = next;
        if sync_dir(&self.dir).is_err() {
            journal.stats.sync_errors += 1;
            return Ok(journal);
        }
        // The old pair is unreachable once the flip is durable; removal is
        // best-effort cleanup, not correctness.
        let _ = std::fs::remove_file(self.dir.join(format!("snapshot-{previous}.json")));
        let _ = std::fs::remove_file(self.dir.join(format!("journal-{previous}.wal")));
        Ok(journal)
    }
}

impl JournalStats {
    /// Fold another stats block into this one (used to keep lifetime
    /// totals across journal rotations, where each generation starts a
    /// fresh [`Journal`]).
    pub(crate) fn accumulate(&mut self, other: &JournalStats) {
        self.appended += other.appended;
        self.synced += other.synced;
        self.syncs += other.syncs;
        self.write_errors += other.write_errors;
        self.sync_errors += other.sync_errors;
        self.rotations += other.rotations;
        self.bytes = other.bytes;
    }
}

fn encode_observation(out: &mut Vec<u8>, observation: ObservationRef<'_>) {
    let put = |out: &mut Vec<u8>, text: &str| frames::put_bytes(out, text.as_bytes());
    match observation {
        ObservationRef::Parts {
            domain,
            hostname,
            script,
            method,
            tracking,
        } => {
            out.push(KIND_PARTS);
            put(out, domain);
            put(out, hostname);
            put(out, script);
            put(out, method);
            out.push(u8::from(tracking));
        }
        ObservationRef::Url {
            url,
            source_hostname,
            resource_type,
            script,
            method,
        } => {
            out.push(KIND_URL);
            put(out, url);
            put(out, source_hostname);
            put(out, resource_type.option_name());
            put(out, script);
            put(out, method);
        }
    }
}

fn encode_payload(out: &mut Vec<u8>, entry: &JournalEntry) {
    match entry {
        JournalEntry::Observation(observation) => encode_observation(out, observation.as_ref()),
        JournalEntry::Commit { version } => {
            out.push(KIND_COMMIT);
            out.extend_from_slice(&version.to_le_bytes());
        }
        JournalEntry::Revision { revision } => encode_revision(out, revision),
    }
}

fn encode_revision(out: &mut Vec<u8>, revision: &VerdictRevision) {
    out.push(KIND_REVISION);
    out.extend_from_slice(&revision.version().to_le_bytes());
    out.extend_from_slice(&(revision.changes().len() as u32).to_le_bytes());
    for change in revision.changes() {
        frames::put_change(out, change);
    }
    out.extend_from_slice(&(revision.plans_touched().len() as u32).to_le_bytes());
    for script in revision.plans_touched() {
        frames::put_bytes(out, script.as_bytes());
    }
}

/// Decode one checksum-verified payload; an error for anything that does
/// not parse exactly (replay treats it as the end of the clean prefix).
fn decode_payload(payload: &[u8]) -> Result<JournalEntry, FrameError> {
    let mut reader = FrameReader::new(payload);
    let entry = match reader.u8()? {
        KIND_PARTS => JournalEntry::Observation(Observation::Parts {
            domain: reader.string()?.to_string(),
            hostname: reader.string()?.to_string(),
            script: reader.string()?.to_string(),
            method: reader.string()?.to_string(),
            tracking: match reader.u8()? {
                0 => false,
                1 => true,
                other => return Err(FrameError(format!("tracking flag {other}"))),
            },
        }),
        KIND_URL => JournalEntry::Observation(Observation::Url {
            url: reader.string()?.to_string(),
            source_hostname: reader.string()?.to_string(),
            resource_type: {
                let name = reader.string()?;
                ResourceType::from_option_name(name)
                    .ok_or_else(|| FrameError(format!("unknown resource type {name:?}")))?
            },
            script: reader.string()?.to_string(),
            method: reader.string()?.to_string(),
        }),
        KIND_COMMIT => JournalEntry::Commit {
            version: reader.u64()?,
        },
        KIND_REVISION => {
            let version = reader.u64()?;
            // A corrupt count ends the loop at the first read past the
            // payload; nothing is allocated up front.
            let changes = (0..reader.u32()?)
                .map(|_| frames::read_change(&mut reader))
                .collect::<Result<_, _>>()?;
            let plans_touched = (0..reader.u32()?)
                .map(|_| reader.string().map(Arc::from))
                .collect::<Result<_, _>>()?;
            JournalEntry::Revision {
                revision: VerdictRevision::with_plans(version, changes, plans_touched),
            }
        }
        other => return Err(FrameError(format!("unknown record kind {other}"))),
    };
    reader.finish()?;
    Ok(entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::Granularity;
    use crate::ratio::Classification;
    use crate::revision::{ChangeKind, RevisionChange};

    fn temp_path(tag: &str) -> PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .as_nanos();
        std::env::temp_dir().join(format!(
            "trackersift-journal-{tag}-{}-{nanos}.wal",
            std::process::id()
        ))
    }

    fn parts(n: u64) -> JournalEntry {
        JournalEntry::Observation(Observation::Parts {
            domain: format!("d{n}.com"),
            hostname: format!("h{n}.d{n}.com"),
            script: format!("https://pub.com/s{n}.js"),
            method: "send".to_string(),
            tracking: n % 2 == 0,
        })
    }

    /// One record of each kind.
    fn one_of_each_kind() -> Vec<JournalEntry> {
        vec![
            parts(1),
            JournalEntry::Observation(Observation::Url {
                url: "https://t.example/p.gif".into(),
                source_hostname: "pub.com".into(),
                resource_type: ResourceType::Image,
                script: "https://pub.com/a.js".into(),
                method: "beacon".into(),
            }),
            JournalEntry::Commit { version: 7 },
            JournalEntry::Revision {
                revision: VerdictRevision::with_plans(
                    7,
                    vec![
                        RevisionChange::new(
                            Granularity::Domain,
                            "d1.com",
                            ChangeKind::Added(Classification::Mixed),
                        ),
                        RevisionChange::new(
                            Granularity::Script,
                            "https://pub.com/s1.js",
                            ChangeKind::Flipped(Classification::Tracking, Classification::Mixed),
                        ),
                        RevisionChange::new(
                            Granularity::Method,
                            "https://pub.com/s1.js :: send",
                            ChangeKind::Removed(Classification::Functional),
                        ),
                    ],
                    vec![std::sync::Arc::from("https://pub.com/s1.js")],
                ),
            },
        ]
    }

    #[test]
    fn round_trips_every_record_kind() {
        let path = temp_path("roundtrip");
        let entries = one_of_each_kind();
        {
            let mut journal = Journal::open(&path, 1000).expect("open");
            for entry in &entries {
                journal.append(entry).expect("append");
            }
            journal.sync().expect("sync");
            assert_eq!(journal.stats().appended, 4);
            assert_eq!(journal.stats().synced, 4);
        }
        let (replayed, report) = Journal::replay(&path).expect("replay");
        assert_eq!(replayed, entries);
        assert_eq!(replayed.len(), 4);
        assert_eq!(report.commits, 1);
        assert_eq!(report.torn_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    /// The bytes the journal wrote for [`one_of_each_kind`] before its codec
    /// moved onto `frames`' change layout and the shared [`Observation`]
    /// (written by that commit's binary, not by this one), when every
    /// checksum was the payload's FNV-1a: the journal an upgraded primary
    /// boots from.
    const GOLDEN_JOURNAL_HEX: &str = concat!(
        "3a000000010600000064312e636f6d0900000068312e64312e636f6d1500000068",
        "747470733a2f2f7075622e636f6d2f73312e6a730400000073656e6400746e85f5",
        "0c81681f52000000021700000068747470733a2f2f742e6578616d706c652f702e",
        "676966070000007075622e636f6d05000000696d6167651400000068747470733a",
        "2f2f7075622e636f6d2f612e6a7306000000626561636f6ee5cbf61e4329057509",
        "00000003070000000000000035fef8d9b22c5fd677000000040700000000000000",
        "030000000000030600000064312e636f6d0201031500000068747470733a2f2f70",
        "75622e636f6d2f73312e6a730302001d00000068747470733a2f2f7075622e636f",
        "6d2f73312e6a73203a3a2073656e64010000001500000068747470733a2f2f7075",
        "622e636f6d2f73312e6a737e0559ecf95a6daf",
    );

    /// The bytes the journal writes for [`one_of_each_kind`]: the 316 bytes
    /// of [`GOLDEN_JOURNAL_HEX`] with only the four checksums changed, to
    /// the word fold.
    const GOLDEN_JOURNAL_FOLDED_HEX: &str = concat!(
        "3a000000010600000064312e636f6d0900000068312e64312e636f6d1500000068",
        "747470733a2f2f7075622e636f6d2f73312e6a730400000073656e640083c7691e",
        "00ff319a52000000021700000068747470733a2f2f742e6578616d706c652f702e",
        "676966070000007075622e636f6d05000000696d6167651400000068747470733a",
        "2f2f7075622e636f6d2f612e6a7306000000626561636f6e61a702aff556bb4609",
        "000000030700000000000000687cfe7f2e8615cc77000000040700000000000000",
        "030000000000030600000064312e636f6d0201031500000068747470733a2f2f70",
        "75622e636f6d2f73312e6a730302001d00000068747470733a2f2f7075622e636f",
        "6d2f73312e6a73203a3a2073656e64010000001500000068747470733a2f2f7075",
        "622e636f6d2f73312e6a73c0f83d6f91908a72",
    );

    fn hex_bytes(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|at| u8::from_str_radix(&hex[at..at + 2], 16).expect("hex"))
            .collect()
    }

    /// The byte range of every frame of a clean journal image; a frame's
    /// checksum is its last eight bytes.
    fn frame_spans(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
        let mut spans = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
            spans.push(at..at + 12 + len as usize);
            at = spans.last().expect("pushed").end;
        }
        spans
    }

    #[test]
    fn the_on_disk_format_is_pinned_byte_for_byte() {
        let golden = hex_bytes(GOLDEN_JOURNAL_FOLDED_HEX);
        let (decoded, report) = Journal::replay_bytes(&golden);
        assert_eq!(decoded, one_of_each_kind());
        assert_eq!((report.valid_bytes, report.torn_bytes), (316, 0));
        let path = temp_path("golden");
        let mut journal = Journal::open(&path, 1000).expect("open");
        for entry in &decoded {
            journal.append(entry).expect("append");
        }
        journal.sync().expect("sync");
        assert_eq!(std::fs::read(&path).expect("read"), golden);
        std::fs::remove_file(&path).ok();

        // Against the pre-change bytes, only the checksums moved: the same
        // frames, lengths and payloads.
        let legacy = hex_bytes(GOLDEN_JOURNAL_HEX);
        let spans = frame_spans(&golden);
        assert_eq!(frame_spans(&legacy), spans);
        assert_eq!(spans.len(), 4);
        for span in spans {
            let payload = span.start..span.end - 8;
            assert_eq!(legacy[payload.clone()], golden[payload]);
            assert_ne!(
                legacy[span.end - 8..span.end],
                golden[span.end - 8..span.end]
            );
        }
    }

    /// A journal written before the checksum moved to the word fold replays
    /// whole, and an upgraded writer appends after it rather than
    /// truncating it; a checksum that matches neither hash, in either part,
    /// still ends the clean prefix.
    #[test]
    fn a_pre_change_journal_replays_whole_and_takes_new_frames() {
        let legacy = hex_bytes(GOLDEN_JOURNAL_HEX);
        let (decoded, report) = Journal::replay_bytes(&legacy);
        assert_eq!(decoded, one_of_each_kind());
        assert_eq!((report.valid_bytes, report.torn_bytes), (316, 0));

        let path = temp_path("upgrade");
        std::fs::write(&path, &legacy).expect("write");
        let (mut journal, recovered, report) = Journal::recover(&path, 1000).expect("recover");
        assert_eq!(recovered, one_of_each_kind());
        assert_eq!(report.torn_bytes, 0, "nothing truncated");
        let later: Vec<JournalEntry> = (2..6).map(parts).collect();
        for entry in &later {
            journal.append(entry).expect("append");
        }
        journal.sync().expect("sync");
        let mixed = std::fs::read(&path).expect("read");
        std::fs::remove_file(&path).ok();
        let all: Vec<JournalEntry> = one_of_each_kind().into_iter().chain(later).collect();
        let (replayed, report) = Journal::replay_bytes(&mixed);
        assert_eq!(replayed, all);
        assert_eq!(report.torn_bytes, 0);

        for (at, span) in frame_spans(&mixed).into_iter().enumerate() {
            let mut corrupt = mixed.clone();
            corrupt[span.end - 8] ^= 1;
            let (replayed, report) = Journal::replay_bytes(&corrupt);
            assert_eq!(replayed, all[..at], "frame {at}");
            assert_eq!(report.valid_bytes, span.start as u64, "frame {at}");
        }
    }

    /// The checksum is the key maps' hasher run over the payload, before
    /// its finishing multiply: a change to that hasher fails here (and at
    /// the golden above) instead of silently changing the journal format.
    #[test]
    fn the_checksum_is_the_map_hashers_byte_fold() {
        use filterlist::tokens::TokenHashBuilder;
        use std::hash::{BuildHasher, Hasher};
        let path = temp_path("fold");
        let mut journal = Journal::open(&path, 1000).expect("open");
        // Payloads of 9 bytes (the commit) and of every length from 18 to
        // 161: whole words with and without an overlapping tail.
        let entries = one_of_each_kind().into_iter().chain((0..144).map(|n| {
            JournalEntry::Observation(Observation::Parts {
                domain: "d".repeat(n),
                hostname: String::new(),
                script: String::new(),
                method: String::new(),
                tracking: false,
            })
        }));
        for entry in entries {
            journal.append(&entry).expect("append");
        }
        let spans = frame_spans(&journal.buffer);
        assert_eq!(spans.len(), 148);
        for span in spans {
            let payload = &journal.buffer[span.start + 4..span.end - 8];
            let checksum = u64::from_le_bytes(
                journal.buffer[span.end - 8..span.end]
                    .try_into()
                    .expect("8 bytes"),
            );
            assert_eq!(checksum, fold_bytes(0, payload));
            let mut hasher = TokenHashBuilder.build_hasher();
            hasher.write(payload);
            assert_eq!(
                hasher.finish(),
                checksum.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                "a payload of {} bytes",
                payload.len()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// A durable directory whose journal holds the pre-change bytes — what
    /// an upgraded primary finds at its first boot — opens, applies and
    /// commits, then reopens to the same snapshot and version.
    #[test]
    fn a_durable_directory_of_pre_change_frames_reopens_to_the_same_state() {
        use crate::service::Sifter;
        let dir = temp_path("upgrade-dir").with_extension("d");
        let store = DurableDir::open(&dir).expect("open");
        std::fs::write(store.journal_path(), hex_bytes(GOLDEN_JOURNAL_HEX)).expect("write");
        let (snapshot, version) = {
            let (mut writer, _reader) = Sifter::builder().build_concurrent();
            let report = writer.open_durable(&dir, 1).expect("open durable");
            assert_eq!((report.replayed_records, report.replayed_commits), (4, 1));
            assert_eq!(report.torn_bytes, 0);
            assert_eq!(writer.published_version(), 7);
            writer.apply(ObservationRef::parts(
                "d2.com",
                "h2.d2.com",
                "https://pub.com/s2.js",
                "send",
                true,
            ));
            writer.commit();
            (
                writer.sifter().snapshot().to_json_string(),
                writer.published_version(),
            )
        };
        assert_eq!(version, 8);
        let (mut writer, reader) = Sifter::builder().build_concurrent();
        let report = writer.open_durable(&dir, 1).expect("reopen");
        assert_eq!((report.replayed_commits, report.torn_bytes), (2, 0));
        assert_eq!(writer.sifter().snapshot().to_json_string(), snapshot);
        assert_eq!((writer.published_version(), reader.version()), (8, 8));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `append_observation` of a borrowed record, and `append_revision` of
    /// a borrowed revision, write the bytes `append` writes for the owned
    /// entry — both observation forms and a revision, across `sync_every`
    /// flushes, and after a refused oversized record, which leaves nothing
    /// behind.
    #[test]
    fn borrowed_and_owned_appends_write_identical_bytes() {
        let entries: Vec<JournalEntry> = one_of_each_kind()
            .into_iter()
            .chain((2..9).map(parts))
            .collect();
        let oversized = Observation::Parts {
            domain: "x".repeat(MAX_PAYLOAD_BYTES as usize),
            hostname: String::new(),
            script: String::new(),
            method: String::new(),
            tracking: true,
        };
        let (owned_path, borrowed_path) = (temp_path("owned"), temp_path("borrowed"));
        // `sync_every` of 3 puts flushes between and inside the runs.
        let mut owned = Journal::open(&owned_path, 3).expect("open");
        let mut borrowed = Journal::open(&borrowed_path, 3).expect("open");
        for (at, entry) in entries.iter().enumerate() {
            if at == 5 {
                let refused = borrowed
                    .append_observation(oversized.as_ref())
                    .expect_err("past the replay cap");
                assert_eq!(refused.kind(), io::ErrorKind::InvalidInput);
                owned
                    .append(&JournalEntry::Observation(oversized.clone()))
                    .expect_err("past the replay cap");
                assert_eq!(borrowed.buffer, owned.buffer, "nothing of it is buffered");
            }
            owned.append(entry).expect("append");
            match entry {
                JournalEntry::Observation(observation) => {
                    borrowed.append_observation(observation.as_ref())
                }
                JournalEntry::Revision { revision } => borrowed.append_revision(revision),
                other => borrowed.append(other),
            }
            .expect("append");
            assert_eq!(borrowed.buffer, owned.buffer, "after record {at}");
            assert_eq!(borrowed.stats(), owned.stats(), "after record {at}");
        }
        assert_eq!(owned.stats().write_errors, 1);
        assert_eq!(owned.stats().syncs, 3, "11 records, synced every 3");
        owned.sync().expect("sync");
        borrowed.sync().expect("sync");
        let bytes = std::fs::read(&owned_path).expect("read");
        assert_eq!(std::fs::read(&borrowed_path).expect("read"), bytes);
        let (replayed, report) = Journal::replay_bytes(&bytes);
        assert_eq!(replayed, entries);
        assert_eq!(report.torn_bytes, 0);
        std::fs::remove_file(&owned_path).ok();
        std::fs::remove_file(&borrowed_path).ok();
    }

    /// A batch writes the bytes its records appended one by one write (so
    /// the golden pin above covers it too) with one fsync, however far past
    /// `sync_every` it runs.
    #[test]
    fn a_batch_writes_the_same_bytes_with_one_fsync() {
        let observations: Vec<Observation> = one_of_each_kind()
            .into_iter()
            .chain((2..12).map(parts))
            .filter_map(|entry| match entry {
                JournalEntry::Observation(observation) => Some(observation),
                _ => None,
            })
            .collect();
        assert_eq!(observations.len(), 12);
        let (single_path, batch_path) = (temp_path("single"), temp_path("batch"));
        let mut single = Journal::open(&single_path, 3).expect("open");
        let mut batch = Journal::open(&batch_path, 3).expect("open");
        for observation in &observations {
            single
                .append_observation(observation.as_ref())
                .expect("append");
        }
        single.sync().expect("sync");
        batch
            .append_batch(observations.iter().map(Observation::as_ref))
            .expect("batch");
        assert_eq!(
            single.stats().syncs,
            4 + 1,
            "every 3 records, then the tail"
        );
        assert_eq!(batch.stats().syncs, 1, "one fsync for the whole batch");
        assert_eq!(batch.stats().synced, 12);
        assert_eq!(
            std::fs::read(&batch_path).expect("read"),
            std::fs::read(&single_path).expect("read")
        );
        batch.append_batch([]).expect("an empty batch");
        assert_eq!(batch.stats().syncs, 1, "nothing unsynced, no fsync");
        std::fs::remove_file(&single_path).ok();
        std::fs::remove_file(&batch_path).ok();
    }

    #[test]
    fn replay_stops_at_a_torn_tail_and_recover_truncates_it() {
        let path = temp_path("torn");
        {
            let mut journal = Journal::open(&path, 1).expect("open");
            for n in 0..5 {
                journal.append(&parts(n)).expect("append");
            }
            journal.sync().expect("sync");
        }
        let full = std::fs::read(&path).expect("read journal");
        // Tear the last frame: flip a byte inside its checksum.
        let mut torn = full.clone();
        let last = torn.len() - 1;
        torn[last] ^= 0xFF;
        std::fs::write(&path, &torn).expect("write torn journal");

        let (entries, report) = Journal::replay(&path).expect("replay");
        assert_eq!(entries.len(), 4, "the torn record is dropped");
        assert!(report.torn_bytes > 0);

        let (mut journal, recovered, report) = Journal::recover(&path, 1).expect("recover");
        assert_eq!(recovered.len(), 4);
        assert_eq!(report.valid_bytes, journal.stats().bytes);
        // Appends after recovery extend the clean prefix.
        journal.append(&parts(9)).expect("append");
        journal.sync().expect("sync");
        drop(journal);
        let (entries, report) = Journal::replay(&path).expect("replay");
        assert_eq!(entries.len(), 5);
        assert_eq!(report.torn_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_byte_prefix_replays_to_a_clean_record_prefix() {
        let path = temp_path("prefix");
        let mut journal = Journal::open(&path, 1000).expect("open");
        let entries: Vec<JournalEntry> = (0..4).map(parts).collect();
        for entry in &entries {
            journal.append(entry).expect("append");
        }
        journal.append(&JournalEntry::Commit { version: 1 }).ok();
        journal.sync().expect("sync");
        drop(journal);
        let bytes = std::fs::read(&path).expect("read");
        for cut in 0..=bytes.len() {
            let (replayed, report) = Journal::replay_bytes(&bytes[..cut]);
            assert!(replayed.len() <= 5);
            // The replayed records are exactly a prefix of what was
            // appended — never reordered, never corrupted.
            for (at, entry) in replayed.iter().enumerate() {
                if at < 4 {
                    assert_eq!(entry, &entries[at], "cut at {cut}");
                } else {
                    assert_eq!(entry, &JournalEntry::Commit { version: 1 });
                }
            }
            assert_eq!(report.valid_bytes + report.torn_bytes, cut as u64);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn durable_dir_advances_generations_atomically() {
        let dir = temp_path("ddir").with_extension("d");
        let mut store = DurableDir::open(&dir).expect("open");
        assert_eq!(store.generation(), 0);
        assert_eq!(store.journal_path(), dir.join("journal-0.wal"));
        let mut journal = store.advance("{\"snapshot\":1}", 4).expect("advance");
        assert_eq!(store.generation(), 1);
        journal.append(&parts(1)).expect("append");
        journal.sync().expect("sync");
        drop(journal);
        // A fresh open (a reboot) sees the flipped generation and its pair.
        let reopened = DurableDir::open(&dir).expect("reopen");
        assert_eq!(reopened.generation(), 1);
        let snapshot = std::fs::read_to_string(reopened.snapshot_path()).expect("snapshot");
        assert_eq!(snapshot, "{\"snapshot\":1}");
        let (entries, report) = Journal::replay(&reopened.journal_path()).expect("replay");
        assert_eq!(entries.len(), 1);
        assert_eq!(report.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_and_oversized_length_prefixes_read_as_torn() {
        let (entries, report) = Journal::replay_bytes(&[0, 0, 0, 0, 1, 2, 3]);
        assert!(entries.is_empty());
        assert_eq!(report.torn_bytes, 7);
        let huge = (MAX_PAYLOAD_BYTES + 1).to_le_bytes();
        let (entries, _) = Journal::replay_bytes(&huge);
        assert!(entries.is_empty());
    }
}
