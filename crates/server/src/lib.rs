//! The TrackerSift verdict server: enforcement decisions over the wire.
//!
//! Everything before this crate lives in-process — nothing could ask
//! "block, allow, surrogate, or observe?" without linking `trackersift_engine`.
//! This crate puts a process boundary around the serving API: a
//! dependency-free HTTP/1.1 server over [`std::net::TcpListener`] built
//! directly on the concurrent split from `trackersift_engine::concurrent`:
//!
//! * a **fixed worker pool** of readiness-polled event loops (`poller`):
//!   each worker multiplexes hundreds of nonblocking keep-alive
//!   connections over one `poll(2)` set and owns a cloned
//!   [`SifterReader`] — the decision path (`POST /v1/decisions`) is poll,
//!   parse, pin the published table, copy a preformatted response,
//!   respond, and the pin takes no lock unless a table was published since
//!   the worker's last pin (then one uncontended acquisition picks it up;
//!   an idle worker holds its last table until it pins again). No
//!   thread-per-connection anywhere: 512 idle
//!   clients cost 512 fds, not 512 stacks;
//! * a single **admin thread** owning the [`SifterWriter`]; observation
//!   ingest, commits, and snapshot import/export are serialised through a
//!   channel to it, and every commit publishes atomically to all workers.
//!   A worker decodes a `POST /v1/observations` body into one
//!   [`wire::ObservationBatch`] arena and sends that; the admin thread
//!   journals its rows where they lie, fsyncs once, then labels and folds
//!   them, and only then replies;
//! * a hand-rolled HTTP layer ([`http`]), a JSON wire format and a
//!   length-prefixed **binary protocol** ([`wire`]) — the container has no
//!   registry access, and a verdict server needs very little HTTP.
//!
//! Responses on the decision endpoints are **preformatted at commit
//! time**: the published verdict table carries complete response bodies
//! for every non-surrogate decision (JSON and binary) plus per-script
//! surrogate frames, so the hot path serves a memcpy instead of walking a
//! JSON tree per request. The request side matches it: a decision request
//! is framed as a view of the connection's read buffer, its query decoded
//! in place, and head and body appended straight to the connection's
//! write buffer ([`decide`]) — nothing between the socket read and the
//! socket write touches the heap unless the decision is a rewrite.
//!
//! # Endpoints
//!
//! [`ROUTES`] declares every route in one place: a known path asked with
//! another method is `405`, an unknown one `404`. The README's endpoint
//! table says what each route does.
//!
//! The decision endpoints speak JSON by default; a request with
//! `Content-Type:` [`wire::BINARY_CONTENT_TYPE`] opts into the binary
//! protocol for that exchange (see [`wire`] for the frame layout). Hot
//! clients complete the `GET /v1/keys` handshake once and then send four
//! `u32` key ids per record instead of four strings; a stale key epoch
//! (the table was restored from a snapshot since the handshake) gets
//! `409 Conflict`, never a silently wrong verdict.
//!
//! # Continuous operation
//!
//! A server started with [`VerdictServer::start_with_scheduler`] carries a
//! [`SchedulerDriver`] on its admin thread: `POST /v1/tick` advances the
//! simulated web one epoch, re-crawls it through the writer, and commits —
//! serialised with every other writer mutation, so a tick and a snapshot
//! restore can never interleave. Every commit records a
//! [`VerdictRevision`](trackersift_engine::VerdictRevision) in the published
//! table's bounded ring; `GET /v1/revisions` lists the ring and
//! `GET /v1/revisions?diff=a..b` folds the drift between two versions into
//! one net change set (inverted ranges are a `400`, ranges outside the
//! ring a `404`). Because `GET` carries no request body, the binary
//! protocol is negotiated with `Accept:` [`wire::BINARY_CONTENT_TYPE`] on
//! these endpoints. Scheduler gauges (epoch, churn counts, fingerprint
//! retention) appear under `"scheduler"` in `GET /v1/stats`.
//!
//! # Replication
//!
//! `GET /v1/snapshot?since=v` serves the **delta-snapshot protocol**: the
//! net class transitions and touched surrogate plans between committed
//! version `v` and the pinned table's version, assembled worker-side from
//! the revision ring the table already carries (no writer round-trip).
//! When `v` is no span boundary of that ring the server answers `410
//! Gone` whose body is a *full* snapshot envelope in the same shape —
//! the typed re-bootstrap signal a follower applies directly. A replica's
//! ring holds the deltas it applied, so a replica can be followed too.
//! [`VerdictServer::follow`] is the other end: it bootstraps a
//! [`client::ReplicaClient`] from a primary, serves the followed tables
//! read-only, and keeps polling deltas on a `replica-sync` thread. Every
//! endpoint that needs the writer answers `409 Conflict` there, and
//! `GET /v1/stats` renders the upstream address, the applied version and
//! the follower's poll counters under `"replication"`.
//!
//! # Crash-only serving
//!
//! The server is built to be killed, not shut down:
//!
//! * **Durability** ([`DurabilityConfig`]): observations are written to a
//!   checksummed write-ahead journal *before* they mutate trainer state,
//!   and boot replays snapshot + journal (tolerating a torn tail). Every
//!   acknowledged batch and commit is on disk before its reply: a
//!   `POST /v1/observations` batch, like the re-crawl of a
//!   `POST /v1/tick`, is fsynced once before it folds, a commit marker
//!   before the fold it covers. Every server path journals batches — the
//!   only rows journaled one at a time are a library caller's
//!   `SifterWriter::apply` — so `kill -9` never loses an acknowledged
//!   write; a clean [`VerdictServer::shutdown`] merely syncs
//!   the journal — it deliberately restarts into the same state a crash
//!   would.
//! * **Self-healing workers**: a panic in a worker's event loop costs the
//!   connection that triggered it, never the worker — the loop is
//!   respawned (counted as `restarts` in `GET /v1/stats`) and its
//!   admission budget is released by connection destructors during the
//!   unwind.
//! * **Overload shedding**: bounded budgets on live connections and
//!   in-flight requests; work over budget is refused early with
//!   `503` + `Retry-After` (a binary shed frame on the binary protocol)
//!   instead of queueing into collapse.
//!
//! # Example
//!
//! ```
//! use std::io::{Read, Write};
//! use std::net::TcpStream;
//! use trackersift_engine::{ObservationRef, Sifter};
//! use trackersift_server::{ServerConfig, VerdictServer};
//!
//! let (mut writer, _reader) = Sifter::builder().build_concurrent();
//! let row = ObservationRef::parts("ads.com", "px.ads.com", "https://pub.com/a.js", "send", true);
//! writer.apply(row);
//! writer.commit();
//!
//! let server = VerdictServer::start(writer, ServerConfig::ephemeral()).unwrap();
//! let mut stream = TcpStream::connect(server.local_addr()).unwrap();
//! let body = r#"{"domain":"ads.com","hostname":"px.ads.com","script":"https://pub.com/a.js","method":"send"}"#;
//! write!(
//!     stream,
//!     "POST /v1/decisions HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
//!     body.len(),
//!     body
//! )
//! .unwrap();
//! let mut reply = String::new();
//! stream.read_to_string(&mut reply).unwrap();
//! assert!(reply.starts_with("HTTP/1.1 200 OK"));
//! assert!(reply.contains(r#""action":"block""#));
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod decide;
pub mod http;
mod poller;
mod replica;
mod stats;
pub mod wire;

pub use replica::ReplicaConfig;

use http::{HttpResponse, RequestParser, RequestView};
use poller::Poller;
use stats::{numbers_reply, Reply};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use trackersift_engine::frames;
use trackersift_engine::{
    diff_revisions, CommitStats, DeltaSnapshot, JournalStats, RecoveryReport, RevisionRangeError,
    ServiceStats, SifterReader, SifterSnapshot, SifterWriter,
};
use wire::ObservationBatch;

/// Configuration of a [`VerdictServer`].
///
/// ```
/// use trackersift_server::ServerConfig;
///
/// // An ephemeral localhost port, 2 workers, tight limits — the test shape.
/// let config = ServerConfig {
///     workers: 2,
///     max_body_bytes: 64 * 1024,
///     ..ServerConfig::ephemeral()
/// };
/// assert_eq!(config.addr, "127.0.0.1:0");
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port `0` picks an ephemeral port).
    pub addr: String,
    /// Number of event-loop workers, each multiplexing its share of the
    /// connections over one poll set with its own [`SifterReader`] handle,
    /// whose pins lock only to pick up a newly published table. Clamped to
    /// at least 1.
    pub workers: usize,
    /// Maximum accepted request body, in bytes (larger requests get `413`).
    pub max_body_bytes: usize,
    /// Idle timeout: a connection that makes no read/write progress for
    /// this long is closed, so a stalled client releases its slot.
    pub read_timeout: Duration,
    /// Admission budget on concurrent connections across the whole pool.
    /// A fresh accept over this budget is answered with a best-effort
    /// `503` + `Retry-After` and closed instead of being multiplexed.
    pub max_connections: usize,
    /// Admission budget on in-flight requests (parsed but not yet fully
    /// flushed) across the pool. A request admitted over this budget gets
    /// `503` + `Retry-After` (JSON or a binary shed frame, matching the
    /// request's protocol) but keeps its connection.
    pub max_inflight: usize,
    /// Crash durability. `Some` attaches a write-ahead observation journal
    /// (see [`trackersift_engine::Journal`]) to the writer before serving starts:
    /// the boot replays the previous generation's snapshot + journal, and
    /// every observation is journaled before it mutates trainer state.
    pub durability: Option<DurabilityConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8377".to_string(),
            workers: 4,
            max_body_bytes: 4 * 1024 * 1024,
            read_timeout: Duration::from_secs(5),
            max_connections: 1024,
            max_inflight: 256,
            durability: None,
        }
    }
}

impl ServerConfig {
    /// A config bound to an ephemeral localhost port — what tests and
    /// examples use so parallel servers never collide.
    pub fn ephemeral() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        }
    }
}

/// Where and how the server journals observations for crash recovery.
///
/// The directory holds LevelDB-style generations — a `CURRENT` pointer
/// file, `snapshot-<g>.json`, `journal-<g>.wal` — managed by
/// [`trackersift_engine::DurableDir`]. Every acknowledged batch and commit is on
/// disk before its reply, so a `kill -9` at any byte boundary loses no
/// acknowledged write.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// The generation directory (created if missing).
    pub(crate) dir: PathBuf,
    /// fsync cadence for records applied one at a time
    /// (`SifterWriter::apply`): flush + sync the journal after this many of
    /// them. The server's own paths never apply one at a time — a
    /// `POST /v1/observations` batch and the `scheduler` crate's tick each
    /// sync once at their end, a commit marker syncs immediately, all
    /// before their reply — so it bounds only a [`SchedulerDriver`] that
    /// applies row by row. `1` = sync every such record.
    pub sync_every: u64,
}

impl DurabilityConfig {
    /// Durability in `dir` with the default cadence: sync every 64 records
    /// applied one at a time. Whatever the cadence, the journal is
    /// checkpointed into a fresh generation once it reaches 8 MiB.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            sync_every: 64,
        }
    }
}

/// The `Retry-After` hint (seconds) attached to every shed response, in
/// the header and in the JSON or binary shed body.
const RETRY_AFTER_SECS: u32 = 1;

/// Upper bound on the graceful drain at shutdown: requests already on the
/// wire get this long to finish and flush before the workers give up and
/// close.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

/// A durable server rotates its journal into a fresh snapshot generation at
/// the first commit (or tick) after the journal file reaches this many
/// bytes. Rotation happens only at commit boundaries, so an
/// auto-checkpoint never publishes uncommitted observations.
const CHECKPOINT_BYTES: u64 = 8 * 1024 * 1024;

/// Per-worker serving counters, readable lock-free from any thread and
/// exposed by `GET /v1/stats`.
#[derive(Debug, Default)]
struct ServingCounters {
    /// Requests this worker parsed successfully.
    requests: AtomicU64,
    /// Decisions this worker served (batch requests count every element).
    decisions: AtomicU64,
    /// 4xx/5xx responses this worker produced.
    errors: AtomicU64,
    /// `accept(2)` failures this worker absorbed (each one feeds the
    /// exponential backoff).
    accept_failures: AtomicU64,
    /// Times this worker's event loop panicked and was respawned.
    restarts: AtomicU64,
    /// Connections refused at accept because the pool was over its
    /// connection budget.
    shed_connections: AtomicU64,
    /// Requests answered `503` because the pool was over its in-flight
    /// budget.
    shed_requests: AtomicU64,
    /// Delta snapshots served by `GET /v1/snapshot?since=` (200s).
    snapshot_deltas: AtomicU64,
    /// Full snapshot envelopes served as `410 Gone` bodies (the
    /// re-bootstrap signal).
    snapshot_fulls: AtomicU64,
}

/// Live gauges of a replica's follower loop, shared between the sync
/// thread (writer side) and the serving workers (the `"replication"`
/// section of `GET /v1/stats`). All counters are lock-free.
#[derive(Debug)]
pub struct ReplicaStatus {
    upstream: String,
    applied_version: AtomicU64,
    polls: AtomicU64,
    deltas_applied: AtomicU64,
    bootstraps: AtomicU64,
    sync_errors: AtomicU64,
}

impl ReplicaStatus {
    /// Fresh gauges for a follower of `upstream` (`host:port`).
    pub fn new(upstream: impl Into<String>) -> Self {
        ReplicaStatus {
            upstream: upstream.into(),
            applied_version: AtomicU64::new(0),
            polls: AtomicU64::new(0),
            deltas_applied: AtomicU64::new(0),
            bootstraps: AtomicU64::new(0),
            sync_errors: AtomicU64::new(0),
        }
    }

    /// The primary this replica follows.
    pub fn upstream(&self) -> &str {
        &self.upstream
    }

    /// Record one completed sync poll. A successful poll applies whatever
    /// the upstream advertised, up to `report.to`; a poll of an idle
    /// primary (`from == to`) applies nothing and counts as a poll only.
    pub(crate) fn record_sync(&self, report: &client::SyncReport) {
        self.polls.fetch_add(1, Ordering::Relaxed);
        self.applied_version.store(report.to, Ordering::Relaxed);
        if report.full {
            self.bootstraps.fetch_add(1, Ordering::Relaxed);
        } else if report.to != report.from {
            self.deltas_applied.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one failed sync poll (transport or apply error).
    pub(crate) fn record_error(&self) {
        self.polls.fetch_add(1, Ordering::Relaxed);
        self.sync_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// The committed primary version this replica last applied.
    pub fn applied_version(&self) -> u64 {
        self.applied_version.load(Ordering::Relaxed)
    }

    /// Full-snapshot (re)bootstraps performed, including the first.
    pub fn bootstraps(&self) -> u64 {
        self.bootstraps.load(Ordering::Relaxed)
    }

    /// Failed sync polls.
    pub fn sync_errors(&self) -> u64 {
        self.sync_errors.load(Ordering::Relaxed)
    }
}

/// Pool-wide live gauges behind the admission decisions. Updated by every
/// worker; released exactly in [`Conn`]'s `Drop` so a panicking worker's
/// unwinding connections never leak budget.
#[derive(Debug, Default)]
struct Gauges {
    /// Connections currently multiplexed across all workers.
    active_connections: AtomicU64,
    /// Requests parsed but not yet fully flushed, across all workers.
    inflight: AtomicU64,
}

/// What one scheduler tick did; the body of the `POST /v1/tick` reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickSummary {
    /// The crawl epoch the tick completed (the seed crawl is epoch 0).
    pub epoch: u64,
    /// Observations the tick's re-crawl fed through the writer.
    pub observations: u64,
    /// Per-key class changes recorded by the tick's commit.
    pub drift_events: u64,
    /// The table version the tick published.
    pub version: u64,
}

/// Cumulative gauges of an attached scheduler, rendered under
/// `"scheduler"` in `GET /v1/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Last crawl epoch completed.
    pub epoch: u64,
    /// Ticks run so far.
    pub ticks: u64,
    /// Tracking scripts whose origin URL hopped to a fresh CDN subdomain.
    pub rotated_cdn_scripts: u64,
    /// Scripts whose tracking endpoints re-drew their paths.
    pub rotated_paths: u64,
    /// New invisible tracking pixels that appeared on pages.
    pub emerged_pixels: u64,
    /// Per-key class changes across every commit the scheduler drove.
    pub drift_events: u64,
    /// Rotated scripts probed for verdict retention.
    pub retention_probes: u64,
    /// Probes whose script-level verdict survived the rotation.
    pub retention_hits: u64,
}

/// A continuous re-crawl loop the server drives from its admin thread.
///
/// The server owns the *when* (a tick per `POST /v1/tick`, serialised with
/// every other writer mutation) and the driver owns the *what*: evolve the
/// simulated web one epoch, re-crawl it through the writer, commit. The
/// concrete implementation lives in the `scheduler` crate, which depends
/// on this one — the trait is defined here so the server never needs to.
pub trait SchedulerDriver: Send {
    /// Advance one epoch against the writer and commit the observations.
    fn tick(&mut self, writer: &mut SifterWriter) -> TickSummary;

    /// Cumulative gauges for the `"scheduler"` section of `GET /v1/stats`.
    fn stats(&self) -> SchedulerStats;
}

/// What `GET /v1/stats` learns from the admin thread in one round-trip.
struct AdminStats {
    service: ServiceStats,
    journal: Option<JournalStats>,
    generation: Option<u64>,
    /// Scheduler gauges plus the duration of the last tick in
    /// microseconds, when a scheduler is attached.
    scheduler: Option<(SchedulerStats, u64)>,
}

/// Work routed to the admin thread (the single [`SifterWriter`] owner).
enum AdminMsg {
    Observe(ObservationBatch, Sender<(u64, u64, u64)>),
    Commit(Sender<(CommitStats, u64)>),
    Export(Sender<String>),
    /// Replies `(version, observations, dropped_pending)`, or the error
    /// response: `400` for a refused document, `500` for a restored one
    /// whose checkpoint failed.
    Import(
        Box<SifterSnapshot>,
        Sender<Result<(u64, u64, u64), HttpResponse>>,
    ),
    /// Run one scheduler tick; `None` when no scheduler is attached.
    Tick(Sender<Option<TickSummary>>),
    Stats(Sender<AdminStats>),
}

/// What a worker serves as. Only [`Role::Primary`] holds a sender to the
/// admin thread, so a handler that needs the writer has to match on the
/// role to reach it — and a replica answering such an endpoint `409` is the
/// other arm of that match ([`Worker::admin`]).
#[derive(Clone)]
enum Role {
    Primary {
        admin: Sender<AdminMsg>,
        /// What boot recovery replayed, for `"durability"` in the stats.
        recovery: Option<RecoveryReport>,
    },
    /// Tables published by a follower loop, whose gauges these are.
    Replica(Arc<ReplicaStatus>),
}

/// What the worker pool is booted over.
enum Source {
    /// The writer the `verdict-admin` thread will own, with the re-crawl
    /// scheduler that rides along on it.
    Writer(Box<SifterWriter>, Option<Box<dyn SchedulerDriver>>),
    /// Tables somebody else publishes: a read-only replica.
    Follower(SifterReader, Arc<ReplicaStatus>),
}

/// A running verdict server; dropping (or [`VerdictServer::shutdown`])
/// stops the workers and joins every thread.
#[derive(Debug)]
pub struct VerdictServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    /// The thread that feeds the workers' tables: `verdict-admin` on a
    /// primary, `replica-sync` on a [`VerdictServer::follow`] replica.
    feeder: Option<JoinHandle<()>>,
    recovery: Option<RecoveryReport>,
    replica: Option<Arc<ReplicaStatus>>,
}

impl VerdictServer {
    /// Bind the listener, spawn the worker pool (one cloned
    /// [`SifterReader`] each) and the admin thread (sole owner of the
    /// [`SifterWriter`]), and start serving.
    ///
    /// With [`ServerConfig::durability`] set, the writer first recovers
    /// from the configured generation directory (snapshot + journal
    /// replay, torn tail tolerated) **before** the listener accepts
    /// anything, so the first served verdict already reflects every
    /// fsynced observation of the previous life; the report of what was
    /// recovered is kept on the handle ([`VerdictServer::recovery`]).
    pub fn start(writer: SifterWriter, config: ServerConfig) -> io::Result<VerdictServer> {
        VerdictServer::boot(config, Source::Writer(Box::new(writer), None))
    }

    /// [`VerdictServer::start`] with a re-crawl scheduler attached: the
    /// driver lives on the admin thread next to the writer, `POST
    /// /v1/tick` advances it one epoch per call, and `GET /v1/stats`
    /// gains a `"scheduler"` section.
    pub fn start_with_scheduler(
        writer: SifterWriter,
        config: ServerConfig,
        scheduler: Box<dyn SchedulerDriver>,
    ) -> io::Result<VerdictServer> {
        VerdictServer::boot(config, Source::Writer(Box::new(writer), Some(scheduler)))
    }

    /// Start a **read-only replica server** over tables the caller
    /// publishes: the worker pool serves decisions, keys, revisions, and
    /// delta snapshots from `reader`, every endpoint that needs the writer
    /// answers `409 Conflict` pointing at the primary, and `GET /v1/stats`
    /// renders the `status` gauges under `"replication"`. No admin thread
    /// is spawned: a replica has no writer to own.
    /// [`VerdictServer::follow`] is this plus the loop that keeps `reader`
    /// fresh.
    pub fn start_replica(
        reader: SifterReader,
        status: Arc<ReplicaStatus>,
        config: ServerConfig,
    ) -> io::Result<VerdictServer> {
        VerdictServer::boot(config, Source::Follower(reader, status))
    }

    /// The one boot path of both roles: recover, bind, spawn what feeds
    /// the tables, spawn the pool.
    fn boot(config: ServerConfig, mut source: Source) -> io::Result<VerdictServer> {
        let recovery = match (&mut source, &config.durability) {
            (Source::Writer(writer, _), Some(durability)) => {
                Some(writer.open_durable(&durability.dir, durability.sync_every)?)
            }
            _ => None,
        };
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let worker_count = config.workers.max(1);
        let counters: Arc<Vec<ServingCounters>> = Arc::new(
            (0..worker_count)
                .map(|_| ServingCounters::default())
                .collect(),
        );
        let gauges = Arc::new(Gauges::default());
        // Build the handle before spawning workers so a mid-startup
        // failure (fd exhaustion on try_clone, spawn refusal) tears down
        // whatever already started instead of leaking live threads on a
        // bound port.
        let mut server = VerdictServer {
            addr: listener.local_addr()?,
            stop: Arc::new(AtomicBool::new(false)),
            workers: Vec::with_capacity(worker_count),
            feeder: None,
            recovery: recovery.clone(),
            replica: None,
        };
        let (reader, role) = match source {
            Source::Writer(writer, scheduler) => {
                let reader = writer.reader();
                let (admin, admin_rx) = mpsc::channel();
                server.feeder = Some(
                    thread::Builder::new()
                        .name("verdict-admin".to_string())
                        .spawn(move || admin_loop(*writer, admin_rx, scheduler))?,
                );
                (reader, Role::Primary { admin, recovery })
            }
            Source::Follower(reader, status) => {
                server.replica = Some(Arc::clone(&status));
                (reader, Role::Replica(status))
            }
        };
        let spawned = (0..worker_count).try_for_each(|index| -> io::Result<()> {
            let worker = Worker {
                listener: listener.try_clone()?,
                reader: reader.clone(),
                role: role.clone(),
                stop: Arc::clone(&server.stop),
                counters: Arc::clone(&counters),
                gauges: Arc::clone(&gauges),
                index,
                max_body_bytes: config.max_body_bytes,
                read_timeout: config.read_timeout,
                max_connections: config.max_connections,
                max_inflight: config.max_inflight,
            };
            server.workers.push(
                thread::Builder::new()
                    .name(format!("verdict-worker-{index}"))
                    .spawn(move || worker.run())?,
            );
            Ok(())
        });
        // The workers hold the only remaining admin senders: when they
        // exit, the admin loop's receiver disconnects and the admin thread
        // exits. (Dropped before any join, or the admin would never see
        // the disconnect.)
        drop(role);
        match spawned {
            Ok(()) => Ok(server),
            Err(error) => {
                server.stop_and_join();
                Err(error)
            }
        }
    }

    /// The bound address (resolve the actual port of an ephemeral bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// What boot recovery replayed from the durability directory, when
    /// [`ServerConfig::durability`] was set (`None` otherwise).
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The live sync gauges of a replica (shared with its workers' stats
    /// rendering); `None` on a primary.
    pub fn replica_status(&self) -> Option<&ReplicaStatus> {
        self.replica.as_deref()
    }

    /// Stop accepting, drain gracefully, and join every thread: requests
    /// already on the wire finish and flush (for at most 2 s), idle
    /// connections close, and the admin thread syncs the journal tail on
    /// its way out. Deliberately
    /// **no** checkpoint on shutdown: a clean stop restarts into exactly
    /// the state a crash at the same instant would (crash-only design).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Workers poll with a bounded timeout, so they observe the stop
        // flag within one poll interval — no wake-up connections needed.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(feeder) = self.feeder.take() {
            let _ = feeder.join();
        }
    }
}

impl Drop for VerdictServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Rotate the journal into a fresh snapshot generation once it reaches
/// [`CHECKPOINT_BYTES`] (never, without a durable store). Called only right
/// after a commit, so the fold the checkpoint performs is a no-op and never
/// publishes uncommitted state; a failed rotation is absorbed (the old
/// generation keeps working and the error shows up in the journal counters
/// at the next attempt).
fn maybe_checkpoint(writer: &mut SifterWriter) {
    let journal_bytes = writer.journal_stats().map_or(0, |stats| stats.bytes);
    if journal_bytes >= CHECKPOINT_BYTES {
        let _ = writer.checkpoint();
    }
}

/// The admin thread: applies every mutation through the single writer, so
/// commits and snapshot swaps are serialised and published atomically.
fn admin_loop(
    mut writer: SifterWriter,
    rx: mpsc::Receiver<AdminMsg>,
    mut scheduler: Option<Box<dyn SchedulerDriver>>,
) {
    let mut last_tick_micros = 0u64;
    while let Ok(message) = rx.recv() {
        match message {
            AdminMsg::Observe(observations, reply) => {
                // On disk before the reply: the acknowledgement is the sync.
                let accepted = writer.apply_batch(observations.iter());
                let skipped = observations.len() as u64 - accepted;
                let _ = reply.send((accepted, skipped, writer.sifter().ingest_stats().pending()));
            }
            AdminMsg::Commit(reply) => {
                let stats = writer.commit();
                let _ = reply.send((stats, writer.published_version()));
                maybe_checkpoint(&mut writer);
            }
            AdminMsg::Export(reply) => {
                let _ = reply.send(writer.sifter().snapshot().to_json_string());
            }
            AdminMsg::Import(snapshot, reply) => {
                let result = writer
                    .restore_snapshot(&snapshot)
                    .map_err(bad_request)
                    .and_then(|dropped_pending| {
                        // A restored state is not durable until it is
                        // checkpointed into its own generation — the old
                        // journal belongs to the pre-restore state. Only
                        // report success once that checkpoint lands; its
                        // failure is the server's (the document was fine
                        // and is already being served), hence the `500`.
                        if writer.durable_generation().is_some() {
                            writer.checkpoint().map_err(|error| {
                                HttpResponse::error(
                                    500,
                                    "Internal Server Error",
                                    &format!("snapshot restored but not checkpointed: {error}"),
                                )
                            })?;
                        }
                        Ok((
                            writer.published_version(),
                            writer.sifter().ingest_stats().observed,
                            dropped_pending,
                        ))
                    });
                let _ = reply.send(result);
            }
            AdminMsg::Tick(reply) => {
                let summary = scheduler.as_mut().map(|driver| {
                    let started = Instant::now();
                    let summary = driver.tick(&mut writer);
                    last_tick_micros = started.elapsed().as_micros() as u64;
                    summary
                });
                let ticked = summary.is_some();
                let _ = reply.send(summary);
                if ticked {
                    maybe_checkpoint(&mut writer);
                }
            }
            AdminMsg::Stats(reply) => {
                let _ = reply.send(AdminStats {
                    service: writer.service_stats(),
                    journal: writer.journal_stats(),
                    generation: writer.durable_generation(),
                    scheduler: scheduler
                        .as_ref()
                        .map(|driver| (driver.stats(), last_tick_micros)),
                });
            }
        }
    }
    // Clean shutdown = crash with a flushed tail: sync the journal, never
    // checkpoint, so pending-vs-committed state survives a restart
    // identically either way.
    let _ = writer.sync_journal();
}

/// One multiplexed connection of a worker's event loop.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Rendered-but-unsent response bytes.
    out: Vec<u8>,
    /// How much of `out` has been written so far.
    out_at: usize,
    /// Last moment the connection made read or write progress.
    last_activity: Instant,
    /// Close once `out` is fully flushed (error responses, explicit
    /// `Connection: close`).
    close_after_flush: bool,
    /// The peer closed or errored; drop once the outbound data is gone.
    dead: bool,
    /// Pool-wide admission gauges this connection holds budget in.
    gauges: Arc<Gauges>,
    /// In-flight admissions charged to this connection: requests whose
    /// responses are not yet fully on the wire.
    inflight_held: u64,
}

impl Conn {
    fn new(stream: TcpStream, gauges: Arc<Gauges>) -> Conn {
        gauges.active_connections.fetch_add(1, Ordering::Relaxed);
        Conn {
            stream,
            parser: RequestParser::new(),
            out: Vec::new(),
            out_at: 0,
            last_activity: Instant::now(),
            close_after_flush: false,
            dead: false,
            gauges,
            inflight_held: 0,
        }
    }

    fn pending_out(&self) -> bool {
        self.out_at < self.out.len()
    }

    /// Flush as much of `out` as the socket accepts right now.
    fn flush(&mut self) {
        while self.out_at < self.out.len() {
            match self.stream.write(&self.out[self.out_at..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.out_at += n;
                    self.last_activity = Instant::now();
                }
                Err(error) if error.kind() == io::ErrorKind::WouldBlock => return,
                Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.out.clear();
        self.out_at = 0;
        http::release_excess(&mut self.out);
        if self.inflight_held > 0 {
            self.gauges
                .inflight
                .fetch_sub(self.inflight_held, Ordering::Relaxed);
            self.inflight_held = 0;
        }
    }

    /// Whether the event loop should retire this connection.
    fn finished(&self) -> bool {
        self.dead || (self.close_after_flush && !self.pending_out())
    }
}

impl Drop for Conn {
    /// Gauge release lives in `Drop`, not the event loop, so the budget
    /// stays exact on every exit path — including a worker panic
    /// unwinding its connection list.
    fn drop(&mut self) {
        self.gauges
            .active_connections
            .fetch_sub(1, Ordering::Relaxed);
        if self.inflight_held > 0 {
            self.gauges
                .inflight
                .fetch_sub(self.inflight_held, Ordering::Relaxed);
        }
    }
}

/// One xorshift64 step of `state`, returning the new state: cheap,
/// dependency-free, plenty for decorrelating retry jitter.
pub(crate) fn xorshift64(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Exponential accept backoff with deterministic jitter: a persistent
/// accept failure (fd exhaustion being the classic) must not become a hot
/// spin across the pool, and the workers should not retry in lockstep.
struct AcceptBackoff {
    /// Consecutive failures (0 = healthy).
    failures: u32,
    /// Don't try to accept again before this instant.
    retry_at: Instant,
    /// xorshift state for the jitter; seeded per worker so the pool's
    /// retries decorrelate.
    jitter: u64,
}

impl AcceptBackoff {
    fn new(seed: u64) -> Self {
        AcceptBackoff {
            failures: 0,
            retry_at: Instant::now(),
            jitter: seed | 1,
        }
    }

    fn ready(&self, now: Instant) -> bool {
        now >= self.retry_at
    }

    fn succeeded(&mut self) {
        self.failures = 0;
    }

    /// Register one failure and schedule the next attempt: base 1 ms,
    /// doubled per consecutive failure, capped at 1 s, plus up to 50%
    /// jitter.
    fn failed(&mut self, now: Instant) {
        self.failures = self.failures.saturating_add(1);
        let base_ms = 1u64 << self.failures.min(10);
        let jitter = xorshift64(&mut self.jitter);
        let jitter_ms = if base_ms > 1 {
            jitter % (base_ms / 2 + 1)
        } else {
            0
        };
        self.retry_at = now + Duration::from_millis(base_ms.min(1000) + jitter_ms);
    }
}

/// One route of the server: `(method, path, handler)`. The method is as
/// it appears on the request line. A path ending in `?` matches a target
/// only with a query after it; any other path, only a target without one.
/// The two decision routes have no handler: `Worker::route` answers them
/// in place before the table is read.
pub struct Route(pub &'static str, pub &'static str, Option<Handler>);

/// What answers a route other than a decision: an owned response, which is
/// the answer on either side of the `Result` (`Err` is just the early way
/// out of a handler).
type Handler = fn(&Worker, &RequestView<'_>) -> Result<HttpResponse, HttpResponse>;

/// Every route the server answers, and the one place routes are declared:
/// dispatch, `405` and `404` all read it.
pub static ROUTES: [Route; 13] = [
    Route("POST", "/v1/decisions", None),
    Route("POST", "/v1/decisions:batch", None),
    Route("GET", "/healthz", Some(|_, _| Ok(HttpResponse::text("ok")))),
    Route("GET", "/v1/keys", Some(Worker::keys)),
    Route("POST", "/v1/observations", Some(Worker::observe)),
    Route("POST", "/v1/commit", Some(Worker::commit)),
    Route("GET", "/v1/snapshot", Some(Worker::export_snapshot)),
    Route("PUT", "/v1/snapshot", Some(Worker::import_snapshot)),
    Route("GET", "/v1/snapshot?", Some(Worker::delta_snapshot)),
    Route("GET", "/v1/revisions", Some(Worker::revisions)),
    Route("GET", "/v1/revisions?", Some(Worker::revisions)),
    Route("POST", "/v1/tick", Some(Worker::tick)),
    Route("GET", "/v1/stats", Some(Worker::stats)),
];

/// One serving worker: a readiness-polled event loop multiplexing its
/// connections, touching only its own reader handle (and, through its
/// role, the admin channel for write endpoints).
struct Worker {
    listener: TcpListener,
    reader: SifterReader,
    role: Role,
    stop: Arc<AtomicBool>,
    counters: Arc<Vec<ServingCounters>>,
    gauges: Arc<Gauges>,
    index: usize,
    max_body_bytes: usize,
    read_timeout: Duration,
    max_connections: usize,
    max_inflight: usize,
}

/// Upper bound on one poll wait, so the stop flag is observed promptly.
const POLL_SLICE: Duration = Duration::from_millis(50);

impl Worker {
    /// Self-healing wrapper around the event loop: a panic anywhere in it
    /// (a poisoned request, an injected `worker.request` fault) unwinds
    /// this worker's connections — their admission budget releases in
    /// [`Conn`]'s `Drop` — gets counted, and the loop respawns with a
    /// fresh poll set. One bad request costs its connection, never a
    /// worker slot.
    fn run(self) {
        loop {
            match panic::catch_unwind(AssertUnwindSafe(|| self.event_loop())) {
                Ok(()) => return,
                Err(_) => {
                    self.counters[self.index]
                        .restarts
                        .fetch_add(1, Ordering::Relaxed);
                    if self.stop.load(Ordering::SeqCst) {
                        return;
                    }
                }
            }
        }
    }

    fn event_loop(&self) {
        let mut conns: Vec<Conn> = Vec::new();
        let mut poller = Poller::new();
        let mut backoff = AcceptBackoff::new(0x9e37_79b9_7f4a_7c15 ^ (self.index as u64 + 1));
        // The poll slot of each connection, in `conns` order; refilled in
        // place on every wake.
        let mut conn_slots: Vec<usize> = Vec::new();

        while !self.stop.load(Ordering::SeqCst) {
            // (Re)build the interest set: the shared listener while the
            // backoff allows accepting, plus every connection — read
            // interest unless it is only draining, write interest while
            // output is queued.
            poller.clear();
            let now = Instant::now();
            let accepting = backoff.ready(now);
            let listener_slot = accepting.then(|| poller.register(&self.listener, true, false));
            conn_slots.clear();
            conn_slots.extend(conns.iter().map(|conn| {
                poller.register(&conn.stream, !conn.close_after_flush, conn.pending_out())
            }));

            let timeout = if accepting {
                POLL_SLICE
            } else {
                POLL_SLICE.min(backoff.retry_at.saturating_duration_since(now))
            };
            if poller.wait(timeout.as_millis() as i32).is_err() {
                // A failed poll(2) leaves no readiness info; nap briefly
                // rather than spin, then rebuild the set from scratch.
                thread::sleep(Duration::from_millis(5));
                continue;
            }

            if listener_slot.is_some_and(|slot| poller.readable(slot)) {
                self.accept_pending(&mut conns, &mut backoff);
            }

            let now = Instant::now();
            for (&slot, conn) in conn_slots.iter().zip(conns.iter_mut()) {
                if poller.writable(slot) && conn.pending_out() {
                    conn.flush();
                }
                if !conn.dead && !conn.close_after_flush && poller.readable(slot) {
                    self.service_readable(conn);
                }
                // A connection that made no progress for the idle timeout
                // is abandoned silently — exactly what a stalled or
                // half-vanished client gets, without tying up a slot.
                if now.saturating_duration_since(conn.last_activity) > self.read_timeout {
                    conn.dead = true;
                }
            }
            conns.retain(|conn| !conn.finished());
        }
        self.drain(&mut conns, &mut poller);
    }

    /// Graceful drain after the stop flag: connections with a response
    /// still queued or a request mid-parse get up to [`DRAIN_TIMEOUT`] to
    /// finish and flush; idle keep-alive connections close immediately.
    /// Bounded so a wedged peer cannot hold shutdown hostage.
    fn drain(&self, conns: &mut Vec<Conn>, poller: &mut Poller) {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        conns.retain(|conn| !conn.dead && (conn.pending_out() || conn.parser.mid_request()));
        while !conns.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            poller.clear();
            let slots: Vec<usize> = conns
                .iter()
                .map(|conn| {
                    poller.register(&conn.stream, conn.parser.mid_request(), conn.pending_out())
                })
                .collect();
            let budget = deadline.saturating_duration_since(now).min(POLL_SLICE);
            if poller.wait(budget.as_millis() as i32).is_err() {
                thread::sleep(Duration::from_millis(5));
                continue;
            }
            for (slot, conn) in slots.into_iter().zip(conns.iter_mut()) {
                if poller.writable(slot) && conn.pending_out() {
                    conn.flush();
                }
                if !conn.dead && conn.parser.mid_request() && poller.readable(slot) {
                    self.service_readable(conn);
                }
            }
            // Whatever finished its request and flushed is done; dropping
            // it closes the socket.
            conns.retain(|conn| !conn.dead && (conn.pending_out() || conn.parser.mid_request()));
        }
        conns.clear();
    }

    /// Drain the accept queue (the listener is level-triggered and shared
    /// between workers, so "readable" may be stale by the time we get
    /// here — `WouldBlock` is the normal exit).
    fn accept_pending(&self, conns: &mut Vec<Conn>, backoff: &mut AcceptBackoff) {
        loop {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    backoff.succeeded();
                    // Admission control: over the pool-wide connection
                    // budget, the socket gets a best-effort 503 +
                    // Retry-After and is closed without ever joining the
                    // poll set — shedding stays O(1) no matter how hard
                    // the overload is.
                    if self.gauges.active_connections.load(Ordering::Relaxed)
                        >= self.max_connections as u64
                    {
                        self.counters[self.index]
                            .shed_connections
                            .fetch_add(1, Ordering::Relaxed);
                        let mut out = Vec::new();
                        HttpResponse::shed(RETRY_AFTER_SECS, "connection budget exhausted", true)
                            .render_into(&mut out, false);
                        let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
                        let _ = stream.write_all(&out);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    conns.push(Conn::new(stream, Arc::clone(&self.gauges)));
                }
                Err(error) if error.kind() == io::ErrorKind::WouldBlock => return,
                Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.counters[self.index]
                        .accept_failures
                        .fetch_add(1, Ordering::Relaxed);
                    backoff.failed(Instant::now());
                    return;
                }
            }
        }
    }

    /// Read once, straight into the connection's parser, then serve every
    /// complete request the bytes produced — each one borrowed from the
    /// parser's buffer and answered into the connection's output buffer.
    fn service_readable(&self, conn: &mut Conn) {
        match conn.parser.read_from(&mut conn.stream) {
            Ok(0) => {
                // EOF. A partial request on the wire is a client fault
                // worth answering (it may still read); a clean boundary is
                // just the end of the conversation.
                if conn.parser.mid_request() {
                    self.refuse(
                        conn,
                        HttpResponse::error(400, "Bad Request", "truncated request"),
                    );
                    conn.flush();
                } else {
                    conn.dead = true;
                }
                return;
            }
            Ok(_) => conn.last_activity = Instant::now(),
            Err(error) if error.kind() == io::ErrorKind::WouldBlock => return,
            Err(error) if error.kind() == io::ErrorKind::Interrupted => return,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }

        loop {
            let request = match conn.parser.next_view(self.max_body_bytes) {
                Ok(Some(request)) => request,
                Ok(None) => break,
                Err(error) => {
                    self.refuse(conn, error.response());
                    break;
                }
            };
            self.counters[self.index]
                .requests
                .fetch_add(1, Ordering::Relaxed);
            // Deterministic chaos hook: with the `failpoints` feature a
            // `worker.request` panic fault detonates here, exercising the
            // catch_unwind respawn path.
            trackersift_engine::failpoint::maybe_panic("worker.request");
            let keep_alive = request.keep_alive();
            // Admission control: over the in-flight budget the request is
            // answered 503 + Retry-After in its own protocol (binary
            // requests get a binary shed frame) without losing the
            // connection.
            let response =
                if self.gauges.inflight.load(Ordering::Relaxed) >= self.max_inflight as u64 {
                    self.counters[self.index]
                        .shed_requests
                        .fetch_add(1, Ordering::Relaxed);
                    Some(self.shed_response(&request))
                } else {
                    // Charged to the in-flight gauge until the output buffer
                    // fully drains (or the connection drops).
                    conn.gauges.inflight.fetch_add(1, Ordering::Relaxed);
                    conn.inflight_held += 1;
                    self.route(&request, keep_alive, &mut conn.out)
                };
            let stays_open = match response {
                // The handler rendered its `200` in place.
                None => keep_alive,
                Some(response) => {
                    if response.status >= 400 {
                        self.counters[self.index]
                            .errors
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    response.render_into(&mut conn.out, keep_alive)
                }
            };
            if !stays_open {
                // Closing response: any pipelined remainder is from a
                // desynced client, drop it.
                conn.parser.reset();
                conn.close_after_flush = true;
                break;
            }
        }
        // Optimistic flush: almost always the socket has write space, so
        // the response leaves in the same loop iteration it was computed.
        conn.flush();
    }

    /// Answer a request the parser could not frame, and close after it:
    /// whatever follows on the wire has lost its framing.
    #[cold]
    #[inline(never)]
    fn refuse(&self, conn: &mut Conn, response: HttpResponse) {
        self.counters[self.index]
            .errors
            .fetch_add(1, Ordering::Relaxed);
        response.render_into(&mut conn.out, false);
        conn.parser.reset();
        conn.close_after_flush = true;
    }

    /// Answer one request. The decision endpoints render their `200`
    /// straight into `out` (head and body, honoring `keep_alive`) and
    /// return `None`; every other answer — and every error — comes back as
    /// a response for the caller to render.
    fn route(
        &self,
        request: &RequestView<'_>,
        keep_alive: bool,
        out: &mut Vec<u8>,
    ) -> Option<HttpResponse> {
        let batch = match (request.method, request.target) {
            ("POST", "/v1/decisions") => false,
            ("POST", "/v1/decisions:batch") => true,
            _ => return Some(self.route_other(request)),
        };
        // The hot path. One pin covers the whole request: every
        // decision of a batch (surrogate payloads included) reflects
        // exactly one committed table version, the one it reports.
        let pin = self.reader.pin();
        let served = decide::answer(pin.table(), request, batch, keep_alive, out);
        drop(pin);
        match served {
            Ok(decisions) => {
                self.counters[self.index]
                    .decisions
                    .fetch_add(decisions, Ordering::Relaxed);
                None
            }
            Err(response) => Some(response),
        }
    }

    /// Every request [`Worker::route`] does not answer inline, answered
    /// from [`ROUTES`] out of line so that cold code never shapes the hot
    /// path. A target is keyed by its path, and its `?` if it has a query;
    /// a key with no entry for the method is `405`, one with no entry
    /// `404`. A decision route can only match here by its path, never by
    /// its method too: `route` has answered its exact target already.
    #[cold]
    #[inline(never)]
    fn route_other(&self, request: &RequestView<'_>) -> HttpResponse {
        let target = request.target;
        let key = target.find('?').map_or(target, |at| &target[..=at]);
        let mut known = false;
        for &Route(method, _, handler) in ROUTES.iter().filter(|route| route.1 == key) {
            match handler {
                Some(handler) if method == request.method => {
                    return handler(self, request).unwrap_or_else(|refusal| refusal)
                }
                _ => known = true,
            }
        }
        if known {
            let detail = format!("{target} does not support {}", request.method);
            HttpResponse::error(405, "Method Not Allowed", &detail)
        } else {
            HttpResponse::error(404, "Not Found", &format!("no route {target}"))
        }
    }

    /// The way to the writer, which only a primary has. A handler that
    /// needs it asks here first, so on a replica the endpoint conflicts
    /// before the request is even looked at — whichever endpoint it is.
    fn admin(&self) -> Result<&Sender<AdminMsg>, HttpResponse> {
        match &self.role {
            Role::Primary { admin, .. } => Ok(admin),
            Role::Replica(_) => Err(HttpResponse::error(
                409,
                "Conflict",
                "read-only replica: apply mutations on the primary \
                 (delta snapshots stay available via /v1/snapshot?since=)",
            )),
        }
    }

    /// The `503` for a request shed by the in-flight budget, in the
    /// protocol the request spoke: a binary shed frame for binary
    /// requests, the JSON `{"error", "retry_after"}` body otherwise. Both
    /// carry the `Retry-After` header and keep the connection alive.
    #[cold]
    #[inline(never)]
    fn shed_response(&self, request: &RequestView<'_>) -> HttpResponse {
        if request.header("content-type") == Some(wire::BINARY_CONTENT_TYPE) {
            let mut response = HttpResponse::bytes(
                wire::BINARY_CONTENT_TYPE,
                wire::encode_binary_shed(RETRY_AFTER_SECS),
            );
            response.status = 503;
            response.reason = "Service Unavailable";
            response.retry_after = Some(RETRY_AFTER_SECS);
            response
        } else {
            HttpResponse::shed(RETRY_AFTER_SECS, "in-flight budget exhausted", false)
        }
    }

    /// `GET /v1/keys`: the key-interning handshake. The reply's `keys[i]`
    /// is the string with id `i` in the pinned table; `epoch` scopes the
    /// ids' validity.
    fn keys(&self, _: &RequestView<'_>) -> Result<HttpResponse, HttpResponse> {
        let pin = self.reader.pin();
        let table = pin.table();
        Ok(HttpResponse::bytes(
            "application/json",
            wire::keys_to_json(table.keys_epoch(), table.version(), table.keys()),
        ))
    }

    /// `POST /v1/observations`: the batch goes to the admin thread only
    /// once the whole body has decoded, so a bad row applies nothing.
    fn observe(&self, request: &RequestView<'_>) -> Result<HttpResponse, HttpResponse> {
        let admin = self.admin()?;
        let observations =
            wire::decode_observation_batch(decide::body_text(request)?).map_err(bad_request)?;
        let (accepted, skipped, pending) =
            admin_call(admin, |reply| AdminMsg::Observe(observations, reply))?;
        Ok(numbers_reply(&[
            ("accepted", accepted),
            ("skipped", skipped),
            ("pending", pending),
        ]))
    }

    fn commit(&self, _: &RequestView<'_>) -> Result<HttpResponse, HttpResponse> {
        let (stats, version) = admin_call(self.admin()?, AdminMsg::Commit)?;
        let mut out = Reply::new();
        out.numbers(&[("observations", stats.observations)]);
        out.open("reclassified").numbers(&[
            ("domains", stats.domains as u64),
            ("hostnames", stats.hostnames as u64),
            ("scripts", stats.scripts as u64),
            ("methods", stats.methods as u64),
        ]);
        out.close().numbers(&[("version", version)]);
        Ok(out.finish())
    }

    /// `POST /v1/tick`: run one scheduler tick on the admin thread. A
    /// server with no scheduler attached answers `400`.
    fn tick(&self, _: &RequestView<'_>) -> Result<HttpResponse, HttpResponse> {
        let summary = admin_call(self.admin()?, AdminMsg::Tick)?
            .ok_or_else(|| bad_request("no scheduler attached"))?;
        Ok(numbers_reply(&[
            ("epoch", summary.epoch),
            ("observations", summary.observations),
            ("drift_events", summary.drift_events),
            ("version", summary.version),
        ]))
    }

    /// `GET /v1/revisions`: the pinned table's revision ring, or — with
    /// `?diff=a..b` — the drift between two published versions folded into
    /// one net change set. JSON by default; since a `GET` carries no body
    /// to set a `Content-Type` on, `Accept:` [`wire::BINARY_CONTENT_TYPE`]
    /// selects the binary frames. An inverted range is a `400`, a range
    /// whose ends are not span boundaries of the bounded ring a `404`.
    fn revisions(&self, request: &RequestView<'_>) -> Result<HttpResponse, HttpResponse> {
        let binary = request.header("accept") == Some(wire::BINARY_CONTENT_TYPE);
        let range = request
            .target
            .split_once('?')
            .map(|(_, query)| single_param(query, "diff", parse_diff_range))
            .transpose()
            .map_err(bad_request)?;
        let pin = self.reader.pin();
        let table = pin.table();
        let ring = table.revisions();
        match range {
            None if binary => Ok(HttpResponse::bytes(
                wire::BINARY_CONTENT_TYPE,
                frames::encode_revision_list(table.version(), ring),
            )),
            None => Ok(HttpResponse::json(
                frames::revision_list_value(table.version(), ring).render(),
            )),
            Some((from, to)) => match diff_revisions(ring, from, to) {
                Ok(diff) if binary => Ok(HttpResponse::bytes(
                    wire::BINARY_CONTENT_TYPE,
                    frames::encode_revision_diff(&diff),
                )),
                Ok(diff) => Ok(HttpResponse::json(
                    frames::revision_diff_value(&diff).render(),
                )),
                Err(error @ RevisionRangeError::Inverted { .. }) => Err(bad_request(error)),
                Err(error @ RevisionRangeError::Unknown { .. }) => {
                    Err(HttpResponse::error(404, "Not Found", &error.to_string()))
                }
            },
        }
    }

    /// `GET /v1/snapshot?since=v`: the net class changes and touched
    /// surrogate plans between published version `v` and the pinned
    /// table's current version, assembled from the revision ring. JSON
    /// by default, binary frames via `Accept:`
    /// [`wire::BINARY_CONTENT_TYPE`]. When `v` is no span boundary of the
    /// bounded ring the answer is `410 Gone` whose body is a *full* snapshot
    /// envelope — the typed re-bootstrap signal — so a lagging follower
    /// recovers in the same round trip that told it the diff is gone.
    fn delta_snapshot(&self, request: &RequestView<'_>) -> Result<HttpResponse, HttpResponse> {
        let query = request
            .target
            .split_once('?')
            .map_or("", |(_, query)| query);
        let binary = request.header("accept") == Some(wire::BINARY_CONTENT_TYPE);
        let parse_since = |value: &str| {
            http::parse_digits(value).ok_or_else(|| format!("bad snapshot version {value:?}"))
        };
        let since = single_param(query, "since", parse_since).map_err(bad_request)?;
        let pin = self.reader.pin();
        let table = pin.table();
        let encode = |delta: &DeltaSnapshot| {
            if binary {
                HttpResponse::bytes(
                    wire::BINARY_CONTENT_TYPE,
                    frames::encode_delta_snapshot(delta),
                )
            } else {
                HttpResponse::json(frames::delta_snapshot_value(delta).render())
            }
        };
        let counters = &self.counters[self.index];
        match table.delta_since(since) {
            Ok(delta) => {
                counters.snapshot_deltas.fetch_add(1, Ordering::Relaxed);
                Ok(encode(&delta))
            }
            Err(RevisionRangeError::Unknown { .. }) => {
                counters.snapshot_fulls.fetch_add(1, Ordering::Relaxed);
                let mut response = encode(&table.full_snapshot_delta());
                response.status = 410;
                response.reason = "Gone";
                Ok(response)
            }
            Err(error @ RevisionRangeError::Inverted { .. }) => Err(bad_request(error)),
        }
    }

    fn export_snapshot(&self, _: &RequestView<'_>) -> Result<HttpResponse, HttpResponse> {
        let snapshot = admin_call(self.admin()?, AdminMsg::Export)?;
        Ok(HttpResponse::json(snapshot))
    }

    fn import_snapshot(&self, request: &RequestView<'_>) -> Result<HttpResponse, HttpResponse> {
        let admin = self.admin()?;
        let text = std::str::from_utf8(request.body)
            .map_err(|_| bad_request("snapshot is not valid utf-8"))?;
        // Parse + structural validation happen here on the worker, so the
        // admin thread only ever sees well-formed snapshots.
        let snapshot = SifterSnapshot::parse(text).map_err(bad_request)?;
        let (version, observations, dropped_pending) =
            admin_call(admin, |reply| AdminMsg::Import(Box::new(snapshot), reply))??;
        let mut out = Reply::new();
        out.key("restored").extend_from_slice(b"true");
        out.numbers(&[
            ("version", version),
            ("observations", observations),
            ("dropped_pending", dropped_pending),
        ]);
        Ok(out.finish())
    }
}

/// Round-trip a message to the admin thread; the `500` means it is gone.
fn admin_call<T>(
    admin: &Sender<AdminMsg>,
    build: impl FnOnce(Sender<T>) -> AdminMsg,
) -> Result<T, HttpResponse> {
    let (tx, rx) = mpsc::channel();
    let reply = admin.send(build(tx)).ok().and_then(|()| rx.recv().ok());
    reply.ok_or_else(|| {
        HttpResponse::error(500, "Internal Server Error", "admin thread unavailable")
    })
}

/// The `400` whose detail is `reason`.
fn bad_request(reason: impl ToString) -> HttpResponse {
    HttpResponse::error(400, "Bad Request", &reason.to_string())
}

/// Read the one parameter `name` that a query string must consist of,
/// through `parse`. Anything else the query carries is a client error
/// (the `400` detail string).
fn single_param<T>(
    query: &str,
    name: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<T, String> {
    let mut found = None;
    for pair in query.split('&') {
        let Some((key, value)) = pair.split_once('=') else {
            return Err(format!("malformed query parameter {pair:?}"));
        };
        if key != name {
            return Err(format!("unknown query parameter {key:?}"));
        }
        if found.is_some() {
            return Err(format!("duplicate {name} parameter"));
        }
        found = Some(parse(value)?);
    }
    found.ok_or_else(|| "empty query string".to_string())
}

/// The `a..b` of `GET /v1/revisions?diff=a..b`.
fn parse_diff_range(value: &str) -> Result<(u64, u64), String> {
    let Some((from, to)) = value.split_once("..") else {
        return Err(format!("diff range {value:?} is not of the form a..b"));
    };
    let version = |text: &str| {
        http::parse_digits::<u64>(text).ok_or_else(|| format!("bad revision version {text:?}"))
    };
    Ok((version(from)?, version(to)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn a_flushed_connection_gives_back_a_large_responses_buffer() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let received = thread::spawn(move || {
            let mut sink = Vec::new();
            client.read_to_end(&mut sink).expect("read to close");
            sink.len()
        });

        // One large `GET /v1/snapshot` answer on a keep-alive connection...
        let gauges = Arc::new(Gauges::default());
        let mut conn = Conn::new(stream, Arc::clone(&gauges));
        conn.out = vec![b'x'; 1024 * 1024];
        conn.gauges.inflight.fetch_add(1, Ordering::Relaxed);
        conn.inflight_held = 1;
        // ...(the stream is still blocking here, so one flush sends it all)
        conn.flush();
        assert!(!conn.pending_out());
        // ...must not pin its megabyte for the connection's lifetime.
        assert!(conn.out.capacity() <= http::RETAINED_BUFFER_BYTES);
        assert_eq!(gauges.inflight.load(Ordering::Relaxed), 0);

        // Ordinary responses keep their (small) buffer for reuse.
        conn.out.extend_from_slice(&[b'y'; 512]);
        let small = conn.out.capacity();
        conn.flush();
        assert_eq!(conn.out.capacity(), small);

        drop(conn);
        assert_eq!(received.join().expect("reader"), 1024 * 1024 + 512);
    }
}
