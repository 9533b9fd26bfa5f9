//! `GET /v1/stats`: the worker and admission counters, the role's head
//! and sections, and the replication block, rendered for either role.

use crate::http::{HttpResponse, RequestView};
use crate::{admin_call, wire, AdminMsg, Role, Worker};
use std::sync::atomic::{AtomicU64, Ordering};
use trackersift_json::{object, Value};

impl Worker {
    /// `GET /v1/stats` for either role. `"workers"` and `"admission"` are
    /// one document; the head is the writer's [`ServiceStats`] on a
    /// primary (one admin round trip) and the pinned table's counts on a
    /// replica. The sections after them are the role's own, and the last,
    /// `"replication"`, ends in one block for both roles: the pinned
    /// table's ring and the snapshots this server has served.
    #[cold]
    #[inline(never)]
    pub(crate) fn stats(&self, _: &RequestView<'_>) -> Result<HttpResponse, HttpResponse> {
        let load = |gauge: &AtomicU64| gauge.load(Ordering::Relaxed);
        let mut worker_restarts = 0u64;
        let mut shed_connections = 0u64;
        let mut shed_requests = 0u64;
        let mut snapshot_deltas = 0u64;
        let mut snapshot_fulls = 0u64;
        let workers: Vec<Value> = self
            .counters
            .iter()
            .map(|counters| {
                let restarts = load(&counters.restarts);
                let conns_shed = load(&counters.shed_connections);
                let requests_shed = load(&counters.shed_requests);
                worker_restarts += restarts;
                shed_connections += conns_shed;
                shed_requests += requests_shed;
                snapshot_deltas += load(&counters.snapshot_deltas);
                snapshot_fulls += load(&counters.snapshot_fulls);
                object(numbers(&[
                    ("requests", load(&counters.requests)),
                    ("decisions", load(&counters.decisions)),
                    ("errors", load(&counters.errors)),
                    ("accept_failures", load(&counters.accept_failures)),
                    ("restarts", restarts),
                    ("shed_connections", conns_shed),
                    ("shed_requests", requests_shed),
                ]))
            })
            .collect();
        let admission = object(numbers(&[
            ("active_connections", load(&self.gauges.active_connections)),
            ("inflight", load(&self.gauges.inflight)),
            ("max_connections", self.max_connections as u64),
            ("max_inflight", self.max_inflight as u64),
            ("worker_restarts", worker_restarts),
            ("shed_connections", shed_connections),
            ("shed_requests", shed_requests),
        ]));
        let pin;
        let (head, mut sections, mut replication) = match &self.role {
            Role::Primary { admin, recovery } => {
                let stats = admin_call(admin, AdminMsg::Stats)?;
                let mut sections = Vec::new();
                if let Some(generation) = stats.generation {
                    let journal = stats.journal.unwrap_or_default();
                    let mut durability = vec![
                        ("generation", Value::number_u64(generation)),
                        (
                            "journal",
                            object(numbers(&[
                                ("appended", journal.appended),
                                ("synced", journal.synced),
                                ("syncs", journal.syncs),
                                ("write_errors", journal.write_errors),
                                ("sync_errors", journal.sync_errors),
                                ("rotations", journal.rotations),
                                ("bytes", journal.bytes),
                            ])),
                        ),
                    ];
                    if let Some(recovery) = recovery {
                        let mut report = vec![
                            ("generation", Value::number_u64(recovery.generation)),
                            ("restored_snapshot", Value::Bool(recovery.restored_snapshot)),
                        ];
                        report.extend(numbers(&[
                            ("snapshot_observations", recovery.snapshot_observations),
                            ("replayed_records", recovery.replayed_records),
                            ("replayed_commits", recovery.replayed_commits),
                            ("torn_bytes", recovery.torn_bytes),
                        ]));
                        durability.push(("recovery", object(report)));
                    }
                    sections.push(("durability", object(durability)));
                }
                if let Some((scheduler, last_tick_micros)) = stats.scheduler {
                    let mut gauges = numbers(&[
                        ("epoch", scheduler.epoch),
                        ("ticks", scheduler.ticks),
                        ("last_tick_micros", last_tick_micros),
                        ("rotated_cdn_scripts", scheduler.rotated_cdn_scripts),
                        ("rotated_paths", scheduler.rotated_paths),
                        ("emerged_pixels", scheduler.emerged_pixels),
                        ("drift_events", scheduler.drift_events),
                    ]);
                    gauges.push((
                        "retention",
                        object(numbers(&[
                            ("probes", scheduler.retention_probes),
                            ("hits", scheduler.retention_hits),
                        ])),
                    ));
                    sections.push(("scheduler", object(gauges)));
                }
                // Pinned after the admin's reply, so the ring is never older
                // than the version that reply reports.
                pin = self.reader.pin();
                let role = vec![("role", Value::String("primary".to_string()))];
                (wire::service_stats_to_json(&stats.service), sections, role)
            }
            Role::Replica(status) => {
                pin = self.reader.pin();
                let table = pin.table();
                let mut role = vec![
                    ("role", Value::String("replica".to_string())),
                    ("upstream", Value::String(status.upstream().to_string())),
                ];
                role.extend(numbers(&[
                    ("applied_version", status.applied_version()),
                    ("polls", load(&status.polls)),
                    ("deltas_applied", load(&status.deltas_applied)),
                    ("bootstraps", status.bootstraps()),
                    ("sync_errors", status.sync_errors()),
                ]));
                let head = object(numbers(&[
                    ("version", table.version()),
                    ("committed", table.committed()),
                    ("residue", table.unattributed()),
                ]));
                (head, Vec::new(), role)
            }
        };
        let ring = pin.table().revisions();
        let span = numbers(&[
            ("len", ring.len() as u64),
            ("oldest", ring.first().map_or(0, |oldest| oldest.version())),
            ("newest", ring.last().map_or(0, |newest| newest.version())),
        ]);
        let served = numbers(&[("deltas", snapshot_deltas), ("fulls", snapshot_fulls)]);
        replication.extend([("ring", object(span)), ("snapshots", object(served))]);
        sections.push(("replication", object(replication)));
        let Value::Object(mut fields) = head else {
            unreachable!("both heads are built by `object`");
        };
        fields.push(("workers".to_string(), Value::Array(workers)));
        fields.push(("admission".to_string(), admission));
        fields.extend(
            sections
                .into_iter()
                .map(|(name, section)| (name.to_string(), section)),
        );
        Ok(HttpResponse::json(Value::Object(fields).render()))
    }
}

/// Named numbers as the fields of a JSON [`object`], in the order given.
pub(crate) fn numbers<'n>(fields: &[(&'n str, u64)]) -> Vec<(&'n str, Value)> {
    fields
        .iter()
        .map(|&(name, count)| (name, Value::number_u64(count)))
        .collect()
}
