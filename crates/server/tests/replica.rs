//! `VerdictServer::follow` end to end over loopback: a replica bootstraps
//! before it serves, follows the primary's commits through the poll loop,
//! and refuses everything that needs the writer.

use crawler::json::Value;
use std::thread;
use std::time::{Duration, Instant};
use trackersift::{frames, Sifter};
use trackersift_server::client::Client;
use trackersift_server::{ReplicaConfig, ServerConfig, VerdictServer};

/// `(polls, deltas_applied)` as the replica's `GET /v1/stats` reports them,
/// once the follower loop has polled `at_least` times.
fn sync_gauges(client: &mut Client, at_least: u64) -> (u64, u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, stats) = client.request("GET", "/v1/stats", None);
        assert_eq!(status, 200);
        let stats = Value::parse(&stats).expect("stats are json");
        let replication = stats.field("replication").expect("replication section");
        let gauge = |name| replication.field(name).and_then(Value::as_u64).expect(name);
        if gauge("polls") >= at_least {
            return (gauge("polls"), gauge("deltas_applied"));
        }
        assert!(Instant::now() < deadline, "stuck below {at_least} polls");
        thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn a_replica_bootstraps_serves_and_refuses_writes() {
    let (writer, _reader) = Sifter::builder().build_concurrent();
    let primary = VerdictServer::start(
        writer,
        ServerConfig {
            workers: 1,
            ..ServerConfig::ephemeral()
        },
    )
    .expect("primary");
    let mut upstream = Client::connect(primary.local_addr());
    let body = concat!(
        r#"{"observations":[{"domain":"ads.com","hostname":"px.ads.com","#,
        r#""script":"https://pub.com/a.js","method":"send","tracking":true}]}"#,
    );
    let (status, _) = upstream.request("POST", "/v1/observations", Some(body));
    assert_eq!(status, 200);
    let (status, _) = upstream.request("POST", "/v1/commit", None);
    assert_eq!(status, 200);

    let mut config = ReplicaConfig::new(primary.local_addr().to_string());
    config.server.workers = 1;
    config.poll_interval = Duration::from_millis(25);
    let replica = VerdictServer::follow(config, None, None).expect("replica starts");
    let gauges = replica.replica_status().expect("a follower has gauges");
    // The bootstrap sync is part of startup, not of the first poll.
    assert_eq!(gauges.applied_version(), 1);

    // The replica serves the primary's verdict...
    let mut client = Client::connect(replica.local_addr());
    let query = concat!(
        r#"{"domain":"ads.com","hostname":"px.ads.com","#,
        r#""script":"https://pub.com/a.js","method":"send"}"#,
    );
    let (status, decision) = client.request("POST", "/v1/decisions", Some(query));
    assert_eq!(status, 200);
    assert!(decision.contains(r#""action":"block""#), "got {decision}");

    // ...and reports its role in stats...
    let (status, stats) = client.request("GET", "/v1/stats", None);
    assert_eq!(status, 200);
    assert!(stats.contains(r#""role":"replica""#), "got {stats}");

    // ...and answers followers of its own from tables that carry no
    // revision ring: no revisions to list, and every `?since=` span is a
    // `410 Gone` carrying the full envelope at the replica's version, the
    // same state the primary's delta from 0 carries...
    let (status, revisions) = client.request("GET", "/v1/revisions", None);
    assert_eq!(
        (status, revisions.as_str()),
        (200, r#"{"version":1,"revisions":[]}"#)
    );
    let (status, envelope) = client.request("GET", "/v1/snapshot?since=1", None);
    assert_eq!(status, 410, "{envelope}");
    let full = client
        .fetch_snapshot_since(1)
        .expect("410 carries the full envelope");
    assert!(full.is_full());
    assert_eq!(full.to, gauges.applied_version());
    assert_eq!(envelope, frames::delta_snapshot_value(&full).render());
    let primary_delta = upstream.fetch_snapshot_since(0).expect("primary delta");
    assert_eq!(primary_delta.since, Some(0));
    assert_eq!(
        (&full.changes, &full.plans),
        (&primary_delta.changes, &primary_delta.plans)
    );

    // ...and refuses whatever needs the writer with a typed conflict,
    // while the method table still answers first for unknown methods.
    // (Errors close the connection, so each case reconnects.)
    for (method, target, body, expected) in [
        ("POST", "/v1/observations", Some(body), 409),
        ("POST", "/v1/commit", None, 409),
        ("GET", "/v1/snapshot", None, 409),
        ("DELETE", "/v1/commit", None, 405),
    ] {
        let (status, detail) = Client::connect(replica.local_addr()).request(method, target, body);
        assert_eq!(status, expected, "{method} {target}: {detail}");
    }

    // Polls of an idle primary apply nothing and are not counted as deltas
    // (the startup sync was one: the span 0 -> 1 was still in the ring).
    let (polls, idle) = sync_gauges(&mut client, 1);
    assert_eq!(sync_gauges(&mut client, polls + 3).1, idle);

    // A second commit on the primary flows through the poll loop.
    let body2 = concat!(
        r#"{"observations":[{"domain":"cdn.net","hostname":"a.cdn.net","#,
        r#""script":"https://pub.com/b.js","method":"load","tracking":false}]}"#,
    );
    let (status, _) = upstream.request("POST", "/v1/observations", Some(body2));
    assert_eq!(status, 200);
    let (status, _) = upstream.request("POST", "/v1/commit", None);
    assert_eq!(status, 200);
    let deadline = Instant::now() + Duration::from_secs(5);
    while gauges.applied_version() < 2 {
        assert!(
            Instant::now() < deadline,
            "replica never caught up: {}",
            gauges.applied_version()
        );
        thread::sleep(Duration::from_millis(10));
    }
    let query2 = concat!(
        r#"{"domain":"cdn.net","hostname":"a.cdn.net","#,
        r#""script":"https://pub.com/b.js","method":"load"}"#,
    );
    let (status, decision) = client.request("POST", "/v1/decisions", Some(query2));
    assert_eq!(status, 200);
    assert!(decision.contains(r#""action":"allow""#), "got {decision}");
    // That was one delta, and the idle polls after it add none.
    let (polls, _) = sync_gauges(&mut client, 0);
    assert_eq!(sync_gauges(&mut client, polls + 2).1, idle + 1);

    drop((client, upstream));
    replica.shutdown();
    primary.shutdown();
}
