//! The follower loop behind [`VerdictServer::follow`]: a
//! [`ReplicaClient`] bootstraps from its upstream's (a primary's or a
//! replica's) full snapshot and then polls `GET /v1/snapshot?since=<local
//! version>` for binary deltas (re-bootstrapping on `410 Gone`), a
//! [`TablePublisher`] publishes each applied state atomically to the
//! workers' reader handles, and the workers serve it read-only.
//!
//! The consistency contract is inherited from
//! [`FollowerState`](trackersift_engine::FollowerState): every table a replica
//! ever serves equals **some exact committed primary version** — a
//! replica can lag, it can never interpolate.

use crate::client::{ReplicaClient, RetryPolicy};
use crate::{ReplicaStatus, ServerConfig, Source, VerdictServer};
use filterlist::FilterEngine;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use trackersift_engine::{TablePublisher, UrlRewriter};

/// Configuration of one replica: which primary to follow, how often, and
/// how to serve the result.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// The upstream's address (`host:port`): a primary or a replica.
    pub(crate) upstream: String,
    /// Delay between delta polls once bootstrapped.
    pub poll_interval: Duration,
    /// Retry behaviour of the sync fetches (shed responses and transport
    /// drops back off under this policy; `410 Gone` is never retried —
    /// its body already carries the re-bootstrap snapshot).
    pub(crate) policy: RetryPolicy,
    /// The serving side: where the replica listens, worker count, limits.
    pub server: ServerConfig,
}

impl ReplicaConfig {
    /// Follow the primary at `upstream`, serving on an ephemeral
    /// localhost port with default limits and a 1 s poll interval.
    pub fn new(upstream: impl Into<String>) -> Self {
        ReplicaConfig {
            upstream: upstream.into(),
            poll_interval: Duration::from_secs(1),
            policy: RetryPolicy::default(),
            server: ServerConfig::ephemeral(),
        }
    }
}

impl VerdictServer {
    /// Start a **read-only replica** of `config.upstream`: bootstrap
    /// synchronously (an unreachable primary fails startup), then serve
    /// as [`VerdictServer::start_replica`] does while a `replica-sync`
    /// thread polls deltas every [`ReplicaConfig::poll_interval`] and
    /// publishes each applied version atomically. The gauges are on
    /// [`VerdictServer::replica_status`].
    ///
    /// Engines and rewriters are configuration, not replicated state: the
    /// delta protocol ships verdicts and surrogate plans, and each replica
    /// attaches its own enforcement plumbing. Pass the same engine and
    /// rules the primary serves with for byte-identical engine-sourced
    /// decisions, or `None` for neither.
    ///
    /// ```no_run
    /// use trackersift_server::{ReplicaConfig, VerdictServer};
    ///
    /// let replica =
    ///     VerdictServer::follow(ReplicaConfig::new("127.0.0.1:8377"), None, None).unwrap();
    /// let status = replica.replica_status().expect("a follower has gauges");
    /// println!(
    ///     "replica of {} serving on {} at version {}",
    ///     status.upstream(),
    ///     replica.local_addr(),
    ///     status.applied_version(),
    /// );
    /// replica.shutdown();
    /// ```
    pub fn follow(
        config: ReplicaConfig,
        engine: Option<Arc<FilterEngine>>,
        rewriter: Option<Arc<UrlRewriter>>,
    ) -> io::Result<VerdictServer> {
        let upstream = resolve(&config.upstream)?;
        let mut client = ReplicaClient::new(upstream, config.policy, engine, rewriter);
        // The bootstrap is part of startup: a replica that cannot reach its
        // primary refuses to serve rather than serving an empty table as if
        // it were a committed state.
        let report = client
            .sync()
            .map_err(|error| io::Error::other(error.to_string()))?;
        let status = Arc::new(ReplicaStatus::new(config.upstream));
        status.record_sync(&report);
        let (publisher, reader) = TablePublisher::new(Arc::new(client.table()));
        let mut server =
            VerdictServer::boot(config.server, Source::Follower(reader, Arc::clone(&status)))?;
        let stop = Arc::clone(&server.stop);
        let poll_interval = config.poll_interval;
        server.feeder = Some(
            thread::Builder::new()
                .name("replica-sync".to_string())
                .spawn(move || sync_loop(client, publisher, &status, &stop, poll_interval))?,
        );
        Ok(server)
    }
}

/// The follower loop: poll, apply, publish. Publishes only when the
/// applied version moved (or a re-bootstrap rebuilt the local id space),
/// so an idle primary costs one small HTTP exchange per interval and no
/// table churn.
fn sync_loop(
    mut client: ReplicaClient,
    publisher: TablePublisher,
    status: &ReplicaStatus,
    stop: &AtomicBool,
    poll_interval: Duration,
) {
    while !stop.load(Ordering::SeqCst) {
        sleep_observing(stop, poll_interval);
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match client.sync() {
            Ok(report) => {
                if report.to != report.from || report.full {
                    publisher.publish(Arc::new(client.table()));
                }
                status.record_sync(&report);
            }
            Err(_) => status.record_error(),
        }
    }
}

/// Sleep `total` in bounded slices so the stop flag is observed promptly.
fn sleep_observing(stop: &AtomicBool, total: Duration) {
    const SLICE: Duration = Duration::from_millis(25);
    let mut left = total;
    while !left.is_zero() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let nap = left.min(SLICE);
        thread::sleep(nap);
        left = left.saturating_sub(nap);
    }
}

/// Resolve `host:port` to the first address it names.
fn resolve(upstream: &str) -> io::Result<SocketAddr> {
    upstream
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "upstream resolves to nothing"))
}
