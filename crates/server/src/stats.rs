//! `GET /v1/stats`: the worker and admission counters, the role's head
//! and sections, and the replication block, written for either role
//! straight into the reply's bytes by [`Reply`], the writer the mutation
//! replies share: runs of named numbers in nested sections, and no JSON
//! tree.

use crate::http::{HttpResponse, RequestView};
use crate::{admin_call, AdminMsg, Role, Worker};
use std::sync::atomic::{AtomicU64, Ordering};
use trackersift_json::{write_string, write_u64};

impl Worker {
    /// `GET /v1/stats` for either role. The head is the writer's
    /// [`ServiceStats`](trackersift_engine::ServiceStats) on a primary (one
    /// admin round trip) and the pinned table's counts on a replica;
    /// `"workers"` and `"admission"` follow it in one shape for both. The
    /// sections after them are the role's own, and the last,
    /// `"replication"`, ends in one block for both roles: the pinned
    /// table's ring and the snapshots this server has served.
    #[cold]
    #[inline(never)]
    pub(crate) fn stats(&self, _: &RequestView<'_>) -> Result<HttpResponse, HttpResponse> {
        let load = |gauge: &AtomicU64| gauge.load(Ordering::Relaxed);
        let primary = match &self.role {
            Role::Primary { admin, recovery } => {
                Some((admin_call(admin, AdminMsg::Stats)?, recovery))
            }
            Role::Replica(_) => None,
        };
        // Pinned after the admin's reply, so the ring is never older than
        // the version that reply reports.
        let pin = self.reader.pin();
        let table = pin.table();
        let mut out = Reply::new();
        if let Some((stats, _)) = &primary {
            let (service, ingest) = (&stats.service, &stats.service.ingest);
            out.numbers(&[("version", service.version)]);
            out.open("ingest").numbers(&[
                ("observed", ingest.observed),
                ("committed", ingest.committed),
                ("pending", ingest.pending()),
                ("invalid_urls", ingest.invalid_urls),
                ("no_engine", ingest.no_engine),
            ]);
            out.close().numbers(&[
                ("conflicting_observations", ingest.conflicting_domains),
                ("unattributed", service.unattributed),
            ]);
            let [domains, hostnames, scripts, methods] = service.resources.map(|n| n as u64);
            out.open("resources").numbers(&[
                ("domains", domains),
                ("hostnames", hostnames),
                ("scripts", scripts),
                ("methods", methods),
            ]);
            out.close();
        } else {
            out.numbers(&[
                ("version", table.version()),
                ("committed", table.committed()),
                ("residue", table.unattributed()),
            ]);
        }
        let mut worker_restarts = 0u64;
        let mut shed_connections = 0u64;
        let mut shed_requests = 0u64;
        let mut snapshot_deltas = 0u64;
        let mut snapshot_fulls = 0u64;
        out.key("workers").push(b'[');
        for (index, counters) in self.counters.iter().enumerate() {
            let restarts = load(&counters.restarts);
            let conns_shed = load(&counters.shed_connections);
            let requests_shed = load(&counters.shed_requests);
            worker_restarts += restarts;
            shed_connections += conns_shed;
            shed_requests += requests_shed;
            snapshot_deltas += load(&counters.snapshot_deltas);
            snapshot_fulls += load(&counters.snapshot_fulls);
            out.0
                .extend_from_slice(if index > 0 { b",{" } else { b"{" });
            out.numbers(&[
                ("requests", load(&counters.requests)),
                ("decisions", load(&counters.decisions)),
                ("errors", load(&counters.errors)),
                ("accept_failures", load(&counters.accept_failures)),
                ("restarts", restarts),
                ("shed_connections", conns_shed),
                ("shed_requests", requests_shed),
            ]);
            out.close();
        }
        out.0.push(b']');
        out.open("admission").numbers(&[
            ("active_connections", load(&self.gauges.active_connections)),
            ("inflight", load(&self.gauges.inflight)),
            ("max_connections", self.max_connections as u64),
            ("max_inflight", self.max_inflight as u64),
            ("worker_restarts", worker_restarts),
            ("shed_connections", shed_connections),
            ("shed_requests", shed_requests),
        ]);
        out.close();
        if let Some((stats, recovery)) = primary {
            if let Some(generation) = stats.generation {
                let journal = stats.journal.unwrap_or_default();
                out.open("durability");
                out.numbers(&[("generation", generation)]);
                out.open("journal").numbers(&[
                    ("appended", journal.appended),
                    ("synced", journal.synced),
                    ("syncs", journal.syncs),
                    ("write_errors", journal.write_errors),
                    ("sync_errors", journal.sync_errors),
                    ("rotations", journal.rotations),
                    ("bytes", journal.bytes),
                ]);
                out.close();
                if let Some(recovery) = recovery {
                    out.open("recovery");
                    out.numbers(&[("generation", recovery.generation)]);
                    let restored = recovery.restored_snapshot.to_string();
                    out.key("restored_snapshot")
                        .extend_from_slice(restored.as_bytes());
                    out.numbers(&[
                        ("snapshot_observations", recovery.snapshot_observations),
                        ("replayed_records", recovery.replayed_records),
                        ("replayed_commits", recovery.replayed_commits),
                        ("torn_bytes", recovery.torn_bytes),
                    ]);
                    out.close();
                }
                out.close();
            }
            if let Some((scheduler, last_tick_micros)) = stats.scheduler {
                out.open("scheduler").numbers(&[
                    ("epoch", scheduler.epoch),
                    ("ticks", scheduler.ticks),
                    ("last_tick_micros", last_tick_micros),
                    ("rotated_cdn_scripts", scheduler.rotated_cdn_scripts),
                    ("rotated_paths", scheduler.rotated_paths),
                    ("emerged_pixels", scheduler.emerged_pixels),
                    ("drift_events", scheduler.drift_events),
                ]);
                out.open("retention").numbers(&[
                    ("probes", scheduler.retention_probes),
                    ("hits", scheduler.retention_hits),
                ]);
                out.close().close();
            }
        }
        out.open("replication").key("role");
        match &self.role {
            Role::Primary { .. } => write_string(&mut out.0, "primary"),
            Role::Replica(status) => {
                write_string(&mut out.0, "replica");
                write_string(out.key("upstream"), status.upstream());
                out.numbers(&[
                    ("applied_version", status.applied_version()),
                    ("polls", load(&status.polls)),
                    ("deltas_applied", load(&status.deltas_applied)),
                    ("bootstraps", status.bootstraps()),
                    ("sync_errors", status.sync_errors()),
                ]);
            }
        }
        let ring = table.revisions();
        out.open("ring").numbers(&[
            ("len", ring.len() as u64),
            ("oldest", ring.first().map_or(0, |oldest| oldest.version())),
            ("newest", ring.last().map_or(0, |newest| newest.version())),
        ]);
        out.close().open("snapshots");
        out.numbers(&[("deltas", snapshot_deltas), ("fulls", snapshot_fulls)]);
        out.close().close();
        Ok(out.finish())
    }
}

/// The one writer of `/v1/stats` and the mutation replies: a JSON object
/// written straight into its bytes. A field gets its comma unless it is the
/// first of its object or array, so callers write no punctuation between.
pub(crate) struct Reply(Vec<u8>);

impl Reply {
    pub(crate) fn new() -> Self {
        Reply(b"{".to_vec())
    }

    /// Start the field `name`, after a comma unless an object or array
    /// was just opened; the caller writes its value.
    pub(crate) fn key(&mut self, name: &str) -> &mut Vec<u8> {
        if !matches!(self.0.last(), Some(b'{' | b'[')) {
            self.0.push(b',');
        }
        write_string(&mut self.0, name);
        self.0.push(b':');
        &mut self.0
    }

    /// Append the fields in order: `"a":1,"b":2`.
    pub(crate) fn numbers(&mut self, fields: &[(&str, u64)]) -> &mut Self {
        for &(name, count) in fields {
            write_u64(self.key(name), count);
        }
        self
    }

    /// Open the object field `name`, up to its [`Reply::close`].
    pub(crate) fn open(&mut self, name: &str) -> &mut Self {
        self.key(name).push(b'{');
        self
    }

    pub(crate) fn close(&mut self) -> &mut Self {
        self.0.push(b'}');
        self
    }

    /// Close the reply's object and hand its bytes over.
    pub(crate) fn finish(mut self) -> HttpResponse {
        self.close();
        HttpResponse::bytes("application/json", self.0)
    }
}

/// A reply that is one run of named numbers: `{"a":1,"b":2}`.
pub(crate) fn numbers_reply(fields: &[(&str, u64)]) -> HttpResponse {
    let mut out = Reply::new();
    out.numbers(fields);
    out.finish()
}
