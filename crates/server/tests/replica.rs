//! `VerdictServer::follow` end to end over loopback: a replica bootstraps
//! before it serves, follows the primary's commits through the poll loop,
//! refuses everything that needs the writer, and can itself be followed.

use crawler::json::Value;
use filterlist::ListKind;
use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};
use trackersift::{ObservationRef, Sifter, SifterBuilder};
use trackersift_server::client::Client;
use trackersift_server::{ReplicaConfig, ReplicaStatus, ServerConfig, VerdictServer};

/// A primary's sifter, whose filter list labels the rows posted to it:
/// `ads.com` is a tracker, and so is a `/pixel.gif` on any host.
fn primary_sifter() -> SifterBuilder {
    Sifter::builder().filter_lists(&[(ListKind::EasyList, "||ads.com^\n/pixel.gif\n")])
}

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
    let (writer, _reader) = primary_sifter().build_concurrent();
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
        r#"{"observations":[{"url":"https://px.ads.com/p.gif","source_hostname":"pub.com","#,
        r#""resource_type":"image","script":"https://pub.com/a.js","method":"send"}]}"#,
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

    // ...and answers followers of its own from the ring of deltas it
    // applied: the startup sync applied the span 0 -> 1 as one delta, so
    // the replica lists, diffs and ships exactly the bytes the primary does...
    for target in [
        "/v1/revisions",
        "/v1/revisions?diff=0..1",
        "/v1/snapshot?since=0",
        "/v1/snapshot?since=1",
    ] {
        let served = client.request("GET", target, None);
        assert_eq!(served.0, 200, "{target}: {}", served.1);
        assert_eq!(served, upstream.request("GET", target, None), "{target}");
    }
    assert!(!client.fetch_snapshot_since(1).expect("a delta").is_full());

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
        r#"{"observations":[{"url":"https://a.cdn.net/lib.js","source_hostname":"pub.com","#,
        r#""resource_type":"script","script":"https://pub.com/b.js","method":"load"}]}"#,
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

/// A one-worker replica of `upstream` that polls every 25 ms.
fn follow(upstream: SocketAddr) -> VerdictServer {
    let mut config = ReplicaConfig::new(upstream.to_string());
    config.server.workers = 1;
    config.poll_interval = Duration::from_millis(25);
    VerdictServer::follow(config, None, None).expect("replica starts")
}

/// Wait (bounded) until `gauges` report `version` applied.
fn await_version(gauges: &ReplicaStatus, version: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while gauges.applied_version() < version {
        assert!(
            Instant::now() < deadline,
            "stuck at version {}",
            gauges.applied_version()
        );
        thread::sleep(Duration::from_millis(5));
    }
}

/// The loopback chain primary -> replica -> replica. The primary trained
/// before it started, so its ring is empty and the first replica
/// bootstraps from a full snapshot; the second then bootstraps once from
/// the first and follows it by deltas alone — across three primary
/// commits and at least ten polls — deciding byte-identically to the
/// primary at every version it applies.
#[test]
fn a_replica_of_a_replica_bootstraps_once_and_follows_by_deltas() {
    let mut sifter = primary_sifter().build();
    sifter.apply(ObservationRef::parts(
        "ads.com",
        "px.ads.com",
        "https://ads.com/s.js",
        "send",
        true,
    ));
    sifter.commit();
    let (writer, _reader) = sifter.into_concurrent();
    let primary = VerdictServer::start(
        writer,
        ServerConfig {
            workers: 1,
            ..ServerConfig::ephemeral()
        },
    )
    .expect("primary");
    let replica = follow(primary.local_addr());
    let chained = follow(replica.local_addr());
    let gauges = chained.replica_status().expect("a follower has gauges");
    let mut upstream = Client::connect(primary.local_addr());
    let mut client = Client::connect(chained.local_addr());

    let query = |domain: &str| {
        format!(
            r#"{{"domain":"{domain}","hostname":"px.{domain}","script":"https://{domain}/s.js","method":"send"}}"#
        )
    };
    let mut domains = vec!["ads.com".to_string()];
    for version in 1..=4u64 {
        if version > 1 {
            let domain = format!("d{version}.com");
            let path = if version % 2 == 0 {
                "pixel.gif"
            } else {
                "app.js"
            };
            let body = format!(
                r#"{{"observations":[{{"url":"https://px.{domain}/{path}","source_hostname":"pub.com","resource_type":"image","script":"https://{domain}/s.js","method":"send"}}]}}"#
            );
            assert_eq!(
                upstream.request("POST", "/v1/observations", Some(&body)).0,
                200
            );
            assert_eq!(upstream.request("POST", "/v1/commit", None).0, 200);
            domains.push(domain);
        }
        await_version(gauges, version);
        for domain in &domains {
            let (status, ours) = client.request("POST", "/v1/decisions", Some(&query(domain)));
            assert_eq!(status, 200);
            let theirs = upstream.request("POST", "/v1/decisions", Some(&query(domain)));
            assert_eq!((status, ours), theirs, "{domain} at version {version}");
        }
    }
    let (polls, deltas) = sync_gauges(&mut client, 10);
    assert!(polls >= 10);
    assert_eq!(deltas, 3, "one delta per primary commit");
    assert_eq!(gauges.bootstraps(), 1, "the chain bootstraps once");
    assert_eq!(gauges.sync_errors(), 0);

    drop((client, upstream));
    chained.shutdown();
    replica.shutdown();
    primary.shutdown();
}
