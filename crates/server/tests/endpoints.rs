//! Golden request/response fixtures for every endpoint, the snapshot
//! export/import round trip over the wire, and the acceptance property:
//! a `Decision` served over HTTP is byte-identical to the in-process
//! decision for the same snapshot — surrogate payloads included.

use filterlist::{ListKind, ResourceType};
use proptest::prelude::*;
use std::time::Duration;
use trackersift_engine::{Decision, DecisionRequest, ObservationRef, Sifter, SifterBuilder};
use trackersift_json::{object, JsonError, Value};
use trackersift_server::client::{Client, RetryPolicy, RetryingClient};
use trackersift_server::wire::{
    self, BinaryKeys, BinaryRecord, DecisionMessage, ObservationMessage,
};
use trackersift_server::{DurabilityConfig, ReplicaStatus, ServerConfig, VerdictServer, ROUTES};

/// The filter list a server labels `POST /v1/observations` rows with: two
/// tracker domains, and a tracking pixel on any host.
const LISTS: &[(ListKind, &str)] = &[(ListKind::EasyList, "||ads.com^\n||new.com^\n/pixel.gif\n")];

/// One `POST /v1/observations` row, issued from a `pub.com` page, for the
/// server to label with [`LISTS`].
fn url_row(url: &str, script: &str, method: &str) -> String {
    ObservationMessage::Url {
        url: url.into(),
        source_hostname: "pub.com".into(),
        resource_type: ResourceType::Image,
        script: script.into(),
        method: method.into(),
    }
    .to_json_value()
    .render()
}

/// Row `n` of a large batch: hostname `h{n}` under one of 50 domains, and
/// every third one the tracking pixel.
fn numbered_row(n: usize) -> String {
    let path = if n % 3 == 0 { "pixel.gif" } else { "app.js" };
    url_row(
        &format!("https://h{n}.d{}.com/{path}", n % 50),
        "https://pub.com/a.js",
        "send",
    )
}

/// The fixed training set behind the golden fixtures: one pure tracking
/// domain, one pure functional domain, and one mixed chain ending in a
/// mixed script whose methods span all three classifications.
fn trained_sifter() -> Sifter {
    trained(Sifter::builder())
}

/// [`trained_sifter`] with [`LISTS`] as its engine, for tests that post
/// observations.
fn labeling_trained_sifter() -> Sifter {
    trained(Sifter::builder().filter_lists(LISTS))
}

fn trained(builder: SifterBuilder) -> Sifter {
    let mut sifter = builder.build();
    for _ in 0..5 {
        sifter.apply(ObservationRef::parts(
            "ads.com",
            "px.ads.com",
            "https://pub.com/a.js",
            "send",
            true,
        ));
        sifter.apply(ObservationRef::parts(
            "cdn.com",
            "a.cdn.com",
            "https://pub.com/ui.js",
            "load",
            false,
        ));
    }
    for _ in 0..6 {
        sifter.apply(ObservationRef::parts(
            "hub.com",
            "w.hub.com",
            "https://pub.com/mixed.js",
            "track",
            true,
        ));
        sifter.apply(ObservationRef::parts(
            "hub.com",
            "w.hub.com",
            "https://pub.com/mixed.js",
            "render",
            false,
        ));
    }
    for flag in [true, false, true, false] {
        sifter.apply(ObservationRef::parts(
            "hub.com",
            "w.hub.com",
            "https://pub.com/mixed.js",
            "dispatch",
            flag,
        ));
    }
    sifter.commit();
    sifter
}

fn start_server(sifter: Sifter) -> VerdictServer {
    let (writer, _reader) = sifter.into_concurrent();
    VerdictServer::start(
        writer,
        ServerConfig {
            workers: 2,
            // Generous idle timeout: the 512-connection test round-trips
            // sequentially, so the earliest connection legitimately idles
            // for the whole sweep on a slow single-core runner.
            read_timeout: Duration::from_secs(30),
            ..ServerConfig::ephemeral()
        },
    )
    .expect("start verdict server")
}

#[test]
fn healthz_and_unknown_routes() {
    let server = start_server(trained_sifter());
    let mut client = Client::connect(server.local_addr());
    assert_eq!(client.request("GET", "/healthz", None), (200, "ok".into()));
    let (status, body) = client.request("GET", "/v1/nope", None);
    assert_eq!(status, 404);
    assert!(body.contains("no route"));
    // Errors close the connection; reconnect for the 405 golden.
    let mut client = Client::connect(server.local_addr());
    let (status, body) = client.request("DELETE", "/v1/decisions", None);
    assert_eq!(status, 405);
    assert!(body.contains("does not support DELETE"));
    server.shutdown();
}

#[test]
fn decision_endpoint_golden_fixtures() {
    let server = start_server(trained_sifter());
    let mut client = Client::connect(server.local_addr());

    // Tracking domain: block, decided by the hierarchy at domain level.
    let (status, body) = client.request(
        "POST",
        "/v1/decisions",
        Some(r#"{"domain":"ads.com","hostname":"px.ads.com","script":"https://pub.com/a.js","method":"send"}"#),
    );
    assert_eq!(status, 200);
    assert_eq!(
        body,
        r#"{"version":1,"decision":{"action":"block","source":"hierarchy","granularity":"Domain"}}"#
    );

    // Functional domain: allow.
    let (status, body) = client.request(
        "POST",
        "/v1/decisions",
        Some(r#"{"domain":"cdn.com","hostname":"a.cdn.com","script":"https://pub.com/ui.js","method":"load"}"#),
    );
    assert_eq!(status, 200);
    assert_eq!(
        body,
        r#"{"version":1,"decision":{"action":"allow","source":"hierarchy","granularity":"Domain"}}"#
    );

    // Mixed script: surrogate with per-method actions, methods in name
    // order. render (functional) kept, track (tracking) stubbed, dispatch
    // (mixed) guarded.
    let (status, body) = client.request(
        "POST",
        "/v1/decisions",
        Some(r#"{"domain":"hub.com","hostname":"w.hub.com","script":"https://pub.com/mixed.js","method":"dispatch"}"#),
    );
    assert_eq!(status, 200);
    assert_eq!(
        body,
        concat!(
            r#"{"version":1,"decision":{"action":"surrogate","surrogate":{"#,
            r#""script_url":"https://pub.com/mixed.js","#,
            r#""methods":[["dispatch",{"guard":{"blocked_callers":[]}}],["render","keep"],["track","stub"]],"#,
            r#""suppressed_tracking_requests":6,"preserved_functional_requests":8}}}"#
        )
    );

    // Unknown everything, no URL: observe.
    let (status, body) = client.request(
        "POST",
        "/v1/decisions",
        Some(r#"{"domain":"zzz.com","hostname":"a.zzz.com","script":"s.js","method":"m"}"#),
    );
    assert_eq!(status, 200);
    assert_eq!(body, r#"{"version":1,"decision":{"action":"observe"}}"#);

    server.shutdown();
}

#[test]
fn rewrite_decision_golden_fixtures() {
    // The trained state restored into a rewriter-enabled sifter: mixed
    // requests whose URLs carry identifier parameters are rewritten.
    let snapshot = trained_sifter().snapshot();
    let sifter = Sifter::builder()
        .rewriter(
            trackersift_engine::RewriterBuilder::new()
                .default_rules()
                .build(),
        )
        .restore(&snapshot)
        .expect("restore with rewriter");
    let server = start_server(sifter);
    let mut client = Client::connect(server.local_addr());

    // Mixed domain, never-seen hostname, URL with gclid + utm_*: rewrite.
    let message = DecisionMessage::new("hub.com", "z.hub.com", "s2.js", "m").with_url(
        "https://z.hub.com/api?id=7&gclid=abc&utm_source=mail",
        "pub.com",
        filterlist::ResourceType::Xhr,
    );
    let (status, body) = client.request(
        "POST",
        "/v1/decisions",
        Some(&message.to_json_value().render()),
    );
    assert_eq!(status, 200);
    assert_eq!(
        body,
        r#"{"version":1,"decision":{"action":"rewrite","url":"https://z.hub.com/api?id=7"}}"#
    );

    // The binary codec serves the same rewrite (string-form record; the
    // epoch only gates id-form requests).
    let record = BinaryRecord::from_message(&message);
    let (version, decision) = client.decide_binary_single(0, &record);
    assert_eq!(version, 1);
    match decision {
        Decision::Rewrite(rewritten) => {
            assert_eq!(rewritten.url(), "https://z.hub.com/api?id=7")
        }
        other => panic!("expected a rewrite over the binary codec, got {other}"),
    }

    // A clean URL at the same hierarchy position falls through (no engine
    // configured, so the backstop observes).
    let clean = DecisionMessage::new("hub.com", "z.hub.com", "s2.js", "m").with_url(
        "https://z.hub.com/api?id=7",
        "pub.com",
        filterlist::ResourceType::Xhr,
    );
    let (_, body) = client.request(
        "POST",
        "/v1/decisions",
        Some(&clean.to_json_value().render()),
    );
    assert_eq!(body, r#"{"version":1,"decision":{"action":"observe"}}"#);

    // Batch path: rewrite fragments splice between fixed fragments.
    let batch = format!(
        r#"{{"requests":[{},{}]}}"#,
        r#"{"domain":"ads.com","hostname":"px.ads.com","script":"https://pub.com/a.js","method":"send"}"#,
        message.to_json_value().render()
    );
    let (status, body) = client.request("POST", "/v1/decisions:batch", Some(&batch));
    assert_eq!(status, 200);
    assert_eq!(
        body,
        concat!(
            r#"{"version":1,"decisions":["#,
            r#"{"action":"block","source":"hierarchy","granularity":"Domain"},"#,
            r#"{"action":"rewrite","url":"https://z.hub.com/api?id=7"}]}"#
        )
    );
    server.shutdown();
}

#[test]
fn batch_decisions_share_one_pinned_version() {
    let server = start_server(trained_sifter());
    let mut client = Client::connect(server.local_addr());
    let body = concat!(
        r#"{"requests":["#,
        r#"{"domain":"ads.com","hostname":"px.ads.com","script":"https://pub.com/a.js","method":"send"},"#,
        r#"{"domain":"zzz.com","hostname":"a.zzz.com","script":"s.js","method":"m"}"#,
        r#"]}"#
    );
    let (status, body) = client.request("POST", "/v1/decisions:batch", Some(body));
    assert_eq!(status, 200);
    assert_eq!(
        body,
        concat!(
            r#"{"version":1,"decisions":["#,
            r#"{"action":"block","source":"hierarchy","granularity":"Domain"},"#,
            r#"{"action":"observe"}]}"#
        )
    );
    server.shutdown();
}

#[test]
fn observations_and_commit_change_served_decisions() {
    let server = start_server(labeling_trained_sifter());
    let mut client = Client::connect(server.local_addr());

    // A brand-new tracking domain, observed over the wire.
    let observations: Vec<String> = (0..5)
        .map(|_| url_row("https://px.new.com/p.gif", "https://pub.com/n.js", "fire"))
        .collect();
    let body = format!(r#"{{"observations":[{}]}}"#, observations.join(","));
    let (status, reply) = client.request("POST", "/v1/observations", Some(&body));
    assert_eq!(status, 200);
    assert_eq!(reply, r#"{"accepted":5,"skipped":0,"pending":5}"#);

    // Still unknown until the commit.
    let query = r#"{"domain":"new.com","hostname":"px.new.com","script":"https://pub.com/n.js","method":"fire"}"#;
    let (_, before) = client.request("POST", "/v1/decisions", Some(query));
    assert_eq!(before, r#"{"version":1,"decision":{"action":"observe"}}"#);

    let (status, reply) = client.request("POST", "/v1/commit", None);
    assert_eq!(status, 200);
    assert_eq!(
        reply,
        r#"{"observations":5,"reclassified":{"domains":1,"hostnames":1,"scripts":1,"methods":1},"version":2}"#
    );

    let (_, after) = client.request("POST", "/v1/decisions", Some(query));
    assert_eq!(
        after,
        r#"{"version":2,"decision":{"action":"block","source":"hierarchy","granularity":"Domain"}}"#
    );
    server.shutdown();
}

#[test]
fn stats_reads_the_same_source_of_truth_as_the_core() {
    let server = start_server(trained_sifter());
    let mut client = Client::connect(server.local_addr());
    // Serve one decision so the worker counters move.
    client.request(
        "POST",
        "/v1/decisions",
        Some(r#"{"domain":"ads.com","hostname":"px.ads.com","script":"https://pub.com/a.js","method":"send"}"#),
    );
    let (status, body) = client.request("GET", "/v1/stats", None);
    assert_eq!(status, 200);
    let stats = Value::parse(&body).expect("stats is json");
    assert_eq!(stats.field("version").unwrap().as_u64().unwrap(), 1);
    let ingest = stats.field("ingest").unwrap();
    assert_eq!(ingest.field("observed").unwrap().as_u64().unwrap(), 26);
    assert_eq!(ingest.field("committed").unwrap().as_u64().unwrap(), 26);
    assert_eq!(ingest.field("pending").unwrap().as_u64().unwrap(), 0);
    let resources = stats.field("resources").unwrap();
    assert_eq!(resources.field("domains").unwrap().as_u64().unwrap(), 3);
    // dispatch stays mixed: its 4 requests are the residue.
    assert_eq!(stats.field("unattributed").unwrap().as_u64().unwrap(), 4);
    // Exactly one decision served across the pool so far.
    let workers = stats.field("workers").unwrap().as_array().unwrap();
    let decisions: u64 = workers
        .iter()
        .map(|worker| worker.field("decisions").unwrap().as_u64().unwrap())
        .sum();
    assert_eq!(decisions, 1);
    server.shutdown();
}

#[test]
fn snapshot_round_trips_over_the_wire() {
    let sifter = trained_sifter();
    let local_snapshot = sifter.snapshot().to_json_string();
    let server = start_server(trained_sifter());
    let mut client = Client::connect(server.local_addr());

    // Export: byte-identical to the local export of the same state.
    let (status, exported) = client.request("GET", "/v1/snapshot", None);
    assert_eq!(status, 200);
    assert_eq!(exported, local_snapshot);

    // Import it back (a no-op state-wise): published version moves past
    // the old one, never backwards.
    let (status, reply) = client.request("PUT", "/v1/snapshot", Some(&exported));
    assert_eq!(status, 200);
    assert_eq!(
        reply,
        r#"{"restored":true,"version":2,"observations":26,"dropped_pending":0}"#
    );

    // Decisions keep working against the restored state.
    let (_, decision) = client.request(
        "POST",
        "/v1/decisions",
        Some(r#"{"domain":"ads.com","hostname":"px.ads.com","script":"https://pub.com/a.js","method":"send"}"#),
    );
    assert_eq!(
        decision,
        r#"{"version":2,"decision":{"action":"block","source":"hierarchy","granularity":"Domain"}}"#
    );

    // A corrupt snapshot is rejected with a typed message and leaves the
    // serving state untouched.
    let corrupt = exported.replace("\"observed\":26", "\"observed\":27");
    let mut fresh = Client::connect(server.local_addr());
    let (status, reply) = fresh.request("PUT", "/v1/snapshot", Some(&corrupt));
    assert_eq!(status, 400);
    assert!(reply.contains("cells sum"), "{reply}");
    let mut fresh = Client::connect(server.local_addr());
    let (_, decision) = fresh.request(
        "POST",
        "/v1/decisions",
        Some(r#"{"domain":"ads.com","hostname":"px.ads.com","script":"https://pub.com/a.js","method":"send"}"#),
    );
    assert!(decision.contains(r#""action":"block""#));
    server.shutdown();
}

#[test]
fn binary_protocol_handshake_and_decisions() {
    let local = trained_sifter().verdict_table();
    let server = start_server(trained_sifter());
    let mut client = Client::connect(server.local_addr());

    // The handshake: every interned key string, index == id.
    let keys = client.fetch_keys();
    assert_eq!(keys.epoch, 0, "fresh server starts at key epoch 0");
    assert_eq!(keys.version, 1);
    assert!(!keys.is_empty());

    // Id-form single request: four u32s on the wire, block decision back.
    let record = BinaryRecord {
        keys: BinaryKeys::Ids {
            domain: keys.id_of("ads.com").expect("interned domain"),
            hostname: keys.id_of("px.ads.com").expect("interned hostname"),
            script: keys.id_of("https://pub.com/a.js").expect("interned script"),
            method: keys.id_of("send").expect("interned method"),
        },
        context: None,
    };
    let (version, decision) = client.decide_binary_single(keys.epoch, &record);
    assert_eq!(version, 1);
    assert_eq!(
        decision,
        local.decide(&DecisionRequest::new(
            "ads.com",
            "px.ads.com",
            "https://pub.com/a.js",
            "send"
        ))
    );

    // String-form single request: surrogate payloads (the full method
    // plan) survive the binary framing.
    let surrogate_record = BinaryRecord {
        keys: BinaryKeys::Strings {
            domain: "hub.com",
            hostname: "w.hub.com",
            script: "https://pub.com/mixed.js",
            method: "dispatch",
        },
        context: None,
    };
    let (_, decision) = client.decide_binary_single(keys.epoch, &surrogate_record);
    assert_eq!(
        decision,
        local.decide(&DecisionRequest::new(
            "hub.com",
            "w.hub.com",
            "https://pub.com/mixed.js",
            "dispatch"
        ))
    );

    // An id the table never handed out is an unknown key, not an error.
    let unknown = BinaryRecord {
        keys: BinaryKeys::Ids {
            domain: u32::MAX,
            hostname: u32::MAX,
            script: u32::MAX,
            method: u32::MAX,
        },
        context: None,
    };
    let (_, decision) = client.decide_binary_single(keys.epoch, &unknown);
    assert_eq!(decision, Decision::Observe);

    // A batch mixes forms freely; one pinned version covers every record.
    let (version, decisions) =
        client.decide_binary_batch(keys.epoch, &[record, surrogate_record, unknown]);
    assert_eq!(version, 1);
    assert_eq!(decisions.len(), 3);
    assert_eq!(decisions[2], Decision::Observe);
    assert!(matches!(decisions[1], Decision::Surrogate(_)));

    // A batch frame on the single endpoint is a client fault, not a serve.
    let batch_frame = wire::encode_binary_batch(keys.epoch, &[unknown]);
    let (status, reply) = client.request_bytes(
        "POST",
        "/v1/decisions",
        Some(wire::BINARY_CONTENT_TYPE),
        &batch_frame,
    );
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&reply).contains("does not match the endpoint"));

    server.shutdown();
}

#[test]
fn stale_key_epoch_is_a_conflict_not_a_wrong_answer() {
    let server = start_server(trained_sifter());
    let mut client = Client::connect(server.local_addr());
    let stale = client.fetch_keys();
    assert_eq!(stale.epoch, 0);
    let record = BinaryRecord {
        keys: BinaryKeys::Ids {
            domain: stale.id_of("ads.com").expect("interned domain"),
            hostname: stale.id_of("px.ads.com").expect("interned hostname"),
            script: stale
                .id_of("https://pub.com/a.js")
                .expect("interned script"),
            method: stale.id_of("send").expect("interned method"),
        },
        context: None,
    };

    // Restoring a snapshot re-interns every key: old ids now point at
    // arbitrary strings, so the epoch moves and stale ids must bounce.
    let snapshot = trained_sifter().snapshot().to_json_string();
    let (status, _) = client.request("PUT", "/v1/snapshot", Some(&snapshot));
    assert_eq!(status, 200);

    let frame = wire::encode_binary_single(stale.epoch, &record);
    let (status, reply) = client.request_bytes(
        "POST",
        "/v1/decisions",
        Some(wire::BINARY_CONTENT_TYPE),
        &frame,
    );
    assert_eq!(status, 409, "stale epoch must conflict");
    assert!(String::from_utf8_lossy(&reply).contains("re-fetch /v1/keys"));

    // Re-handshake and the same logical request works again. (The 409
    // closed the connection — it is an error response.)
    let mut client = Client::connect(server.local_addr());
    let fresh = client.fetch_keys();
    assert!(fresh.epoch > stale.epoch, "restore must advance the epoch");
    let record = BinaryRecord {
        keys: BinaryKeys::Ids {
            domain: fresh.id_of("ads.com").expect("interned domain"),
            hostname: fresh.id_of("px.ads.com").expect("interned hostname"),
            script: fresh
                .id_of("https://pub.com/a.js")
                .expect("interned script"),
            method: fresh.id_of("send").expect("interned method"),
        },
        context: None,
    };
    let (_, decision) = client.decide_binary_single(fresh.epoch, &record);
    assert!(matches!(decision, Decision::Block(_)));

    // String-form records never depend on the handshake, whatever the
    // epoch byte says.
    let by_name = BinaryRecord {
        keys: BinaryKeys::Strings {
            domain: "ads.com",
            hostname: "px.ads.com",
            script: "https://pub.com/a.js",
            method: "send",
        },
        context: None,
    };
    let (_, decision) = client.decide_binary_single(stale.epoch, &by_name);
    assert!(matches!(decision, Decision::Block(_)));

    server.shutdown();
}

/// The connection-scheduler acceptance check: hundreds of concurrent
/// keep-alive connections are multiplexed by the fixed worker pool, not
/// given a thread each.
#[test]
fn many_keep_alive_connections_without_thread_per_connection() {
    let server = start_server(trained_sifter());
    let mut clients: Vec<Client> = (0..512)
        .map(|_| Client::connect(server.local_addr()))
        .collect();
    // Every connection serves traffic and stays open.
    for client in &mut clients {
        let (status, body) = client.request("GET", "/healthz", None);
        assert_eq!((status, body.as_str()), (200, "ok"));
    }
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").expect("read proc status");
        let threads: usize = status
            .lines()
            .find_map(|line| line.strip_prefix("Threads:"))
            .expect("Threads line")
            .trim()
            .parse()
            .expect("thread count");
        assert!(
            threads < 100,
            "expected a fixed pool, found {threads} threads for 512 connections"
        );
    }
    // The pool still serves a newcomer while all 512 stay connected.
    let mut fresh = Client::connect(server.local_addr());
    let (status, _) = fresh.request("GET", "/healthz", None);
    assert_eq!(status, 200);
    drop(clients);
    server.shutdown();
}

/// Over the connection budget, a fresh socket gets a best-effort `503` +
/// `Retry-After` and is closed — it never joins the poll set.
#[test]
fn overload_sheds_connections_with_retry_after() {
    use std::io::Read;
    let (writer, _reader) = trained_sifter().into_concurrent();
    let server = VerdictServer::start(
        writer,
        ServerConfig {
            workers: 1,
            max_connections: 2,
            read_timeout: Duration::from_secs(5),
            ..ServerConfig::ephemeral()
        },
    )
    .expect("start verdict server");

    // Fill the budget with two live connections (the round-trips prove
    // they are accepted and registered, not just queued in the backlog).
    let mut held: Vec<Client> = (0..2)
        .map(|_| Client::connect(server.local_addr()))
        .collect();
    for client in &mut held {
        let (status, _) = client.request("GET", "/healthz", None);
        assert_eq!(status, 200);
    }

    // The third connection is shed at accept: the 503 arrives without the
    // client sending a single byte.
    let mut extra = std::net::TcpStream::connect(server.local_addr()).expect("connect over budget");
    extra
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut reply = String::new();
    extra
        .read_to_string(&mut reply)
        .expect("read shed response until close");
    assert!(
        reply.starts_with("HTTP/1.1 503 Service Unavailable"),
        "expected connection shed, got {reply:?}"
    );
    assert!(reply.contains("Retry-After: 1"), "missing hint: {reply:?}");
    assert!(
        reply.contains(r#""retry_after":1"#),
        "missing body hint: {reply:?}"
    );

    // Releasing budget restores admission — once the worker has reaped
    // the closed sockets (it learns of the EOFs a poll cycle later).
    drop(held);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let mut fresh = Client::connect(server.local_addr());
        let (status, _) = fresh.request("GET", "/healthz", None);
        if status == 200 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "connection budget never released after the holders closed"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    server.shutdown();
}

/// Over the in-flight budget, a request is answered `503` in its own
/// protocol — JSON body or binary shed frame — and the connection stays
/// usable; a `RetryingClient` honors the hint and gives up within budget.
#[test]
fn overload_sheds_requests_but_keeps_the_connection() {
    let (writer, _reader) = trained_sifter().into_concurrent();
    let server = VerdictServer::start(
        writer,
        ServerConfig {
            workers: 1,
            // A zero budget sheds every request — the deterministic way to
            // exercise the shed path without a load generator.
            max_inflight: 0,
            ..ServerConfig::ephemeral()
        },
    )
    .expect("start verdict server");
    let mut client = Client::connect(server.local_addr());

    let query = r#"{"domain":"ads.com","hostname":"px.ads.com","script":"https://pub.com/a.js","method":"send"}"#;
    let (status, body) = client.request("POST", "/v1/decisions", Some(query));
    assert_eq!(status, 503);
    assert!(body.contains(r#""retry_after":1"#), "shed body: {body}");

    // Same connection, next request: still alive, still shedding.
    let (status, _) = client.request("GET", "/healthz", None);
    assert_eq!(status, 503);

    // The binary protocol sheds with a binary frame, not a JSON body.
    let record = BinaryRecord {
        keys: BinaryKeys::Strings {
            domain: "ads.com",
            hostname: "px.ads.com",
            script: "https://pub.com/a.js",
            method: "send",
        },
        context: None,
    };
    let frame = wire::encode_binary_single(0, &record);
    let (status, body) = client.request_bytes(
        "POST",
        "/v1/decisions",
        Some(wire::BINARY_CONTENT_TYPE),
        &frame,
    );
    assert_eq!(status, 503);
    assert_eq!(
        wire::decode_binary_shed(&body).expect("binary shed frame"),
        1
    );

    // A retrying client backs off per the Retry-After hint (capped by its
    // policy), then hands back the final shed response instead of storming.
    let mut retrying = RetryingClient::new(
        server.local_addr(),
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            ..RetryPolicy::default()
        },
    );
    let response = retrying
        .request("GET", "/healthz", None, b"")
        .expect("transport stayed healthy");
    assert_eq!(response.status, 503);
    assert_eq!(response.retry_after, Some(1));
    assert_eq!(retrying.retries_spent(), 2, "retried up to max_attempts");
    server.shutdown();
}

/// Shutdown is graceful: a request already on the wire when the stop flag
/// lands is parsed to completion, served, and flushed before the
/// connection closes.
#[test]
fn graceful_shutdown_drains_inflight_requests() {
    use std::io::{Read, Write};
    let server = start_server(trained_sifter());
    let addr = server.local_addr();
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");

    // Send the head and half the body, so the request is mid-parse…
    let body = r#"{"domain":"ads.com","hostname":"px.ads.com","script":"https://pub.com/a.js","method":"send"}"#;
    let head = format!(
        "POST /v1/decisions HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("send head");
    stream
        .write_all(&body.as_bytes()[..20])
        .expect("send partial body");
    std::thread::sleep(Duration::from_millis(100));

    // …start the shutdown with the request still incomplete…
    let shutdown = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(150));

    // …and finish it during the drain window. The full response must
    // still come back before the socket closes.
    stream
        .write_all(&body.as_bytes()[20..])
        .expect("send the rest during drain");
    let mut reply = String::new();
    stream
        .read_to_string(&mut reply)
        .expect("read the drained response until close");
    assert!(
        reply.starts_with("HTTP/1.1 200 OK"),
        "expected the in-flight request to be served, got {reply:?}"
    );
    assert!(reply.contains(r#""action":"block""#), "got {reply:?}");
    shutdown.join().expect("shutdown thread");
}

/// `GET /v1/stats` exposes the admission budgets, live gauges, and
/// self-healing counters alongside the per-worker serving counters.
#[test]
fn stats_exposes_admission_budgets_and_worker_health() {
    let server = start_server(trained_sifter());
    let mut client = Client::connect(server.local_addr());
    let (status, body) = client.request("GET", "/v1/stats", None);
    assert_eq!(status, 200);
    let stats = Value::parse(&body).expect("stats json");
    let admission = stats.field("admission").expect("admission object");
    let field = |name: &str| {
        admission
            .field(name)
            .and_then(|value| value.as_u64())
            .unwrap_or_else(|error| panic!("admission.{name}: {error}"))
    };
    assert_eq!(field("max_connections"), 1024);
    assert_eq!(field("max_inflight"), 256);
    assert_eq!(field("active_connections"), 1, "this client is connected");
    assert_eq!(field("worker_restarts"), 0);
    assert_eq!(field("shed_connections"), 0);
    assert_eq!(field("shed_requests"), 0);
    let workers = stats
        .field("workers")
        .and_then(|workers| workers.as_array())
        .expect("workers array");
    for worker in workers {
        assert_eq!(
            worker
                .field("restarts")
                .and_then(|v| v.as_u64())
                .expect("worker restarts"),
            0,
            "healthy workers report zero restarts"
        );
    }
    // No durability configured → no durability section.
    assert!(stats.field("durability").is_err());
    server.shutdown();
}

/// A primary and a replica render `"workers"` and `"admission"` of
/// `GET /v1/stats` as the same bytes, around the sections their role
/// adds, and close `"replication"` with the same `"ring"` and
/// `"snapshots"` block — whole-body goldens for a 1-worker primary (no
/// durability, no scheduler) and a `start_replica` server over the same
/// trained reader, each after one decision on the connection that then
/// asks for the stats (hence 2 requests, 1 in flight). Nothing sits
/// between `"admission"` and `"replication"` on this primary: the section
/// that described the writers of the deleted multi-writer front end is
/// gone.
#[test]
fn primary_and_replica_stats_share_the_worker_and_admission_shape() {
    let config = || ServerConfig {
        workers: 1,
        ..ServerConfig::ephemeral()
    };
    let (writer, _reader) = trained_sifter().into_concurrent();
    let primary = VerdictServer::start(writer, config()).expect("start primary");
    let (_writer, reader) = trained_sifter().into_concurrent();
    let replica = VerdictServer::start_replica(
        reader,
        std::sync::Arc::new(ReplicaStatus::new("127.0.0.1:1")),
        config(),
    )
    .expect("start replica server");
    let query = r#"{"domain":"ads.com","hostname":"px.ads.com","script":"https://pub.com/a.js","method":"send"}"#;
    let bodies = [&primary, &replica].map(|server| {
        let mut client = Client::connect(server.local_addr());
        let (status, _) = client.request("POST", "/v1/decisions", Some(query));
        assert_eq!(status, 200);
        let (status, body) = client.request("GET", "/v1/stats", None);
        assert_eq!(status, 200);
        body
    });
    let shared = concat!(
        r#""workers":[{"requests":2,"decisions":1,"errors":0,"accept_failures":0,"#,
        r#""restarts":0,"shed_connections":0,"shed_requests":0}],"#,
        r#""admission":{"active_connections":1,"inflight":1,"max_connections":1024,"#,
        r#""max_inflight":256,"worker_restarts":0,"shed_connections":0,"shed_requests":0},"#,
    );
    let ring_and_snapshots = concat!(
        r#""ring":{"len":0,"oldest":0,"newest":0},"#,
        r#""snapshots":{"deltas":0,"fulls":0}}}"#,
    );
    let expected_primary = [
        r#"{"version":1,"ingest":{"observed":26,"committed":26,"pending":0,"invalid_urls":0,"no_engine":0},"#,
        r#""conflicting_observations":0,"unattributed":4,"#,
        r#""resources":{"domains":3,"hostnames":1,"scripts":1,"methods":3},"#,
        shared,
        r#""replication":{"role":"primary","#,
        ring_and_snapshots,
    ];
    let expected_replica = [
        r#"{"version":1,"committed":26,"residue":4,"#,
        shared,
        r#""replication":{"role":"replica","upstream":"127.0.0.1:1","#,
        r#""applied_version":0,"polls":0,"deltas_applied":0,"bootstraps":0,"sync_errors":0,"#,
        ring_and_snapshots,
    ];
    // One assertion, so a drift in the shared part shows on both roles.
    assert_eq!(
        bodies,
        [expected_primary.concat(), expected_replica.concat()]
    );
    primary.shutdown();
    replica.shutdown();
}

/// A batch is all or nothing: with row *k* of 1,000 malformed — first,
/// middle or last — `POST /v1/observations` answers the `400` the tree
/// decoder's error makes, and no row before *k* was applied or journaled.
#[test]
fn a_malformed_row_anywhere_in_a_batch_applies_nothing() {
    const ROWS: usize = 1_000;
    let dir = std::env::temp_dir().join(format!(
        "trackersift-server-all-or-nothing-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (writer, _reader) = Sifter::builder().filter_lists(LISTS).build_concurrent();
    let server = VerdictServer::start(
        writer,
        ServerConfig {
            workers: 1,
            durability: Some(DurabilityConfig::new(&dir)),
            ..ServerConfig::ephemeral()
        },
    )
    .expect("start durable server");
    // An error response closes its connection, so every step dials anew.
    let connect = || Client::connect(server.local_addr());
    let state = || {
        let (status, body) = connect().request("GET", "/v1/stats", None);
        assert_eq!(status, 200);
        let stats = Value::parse(&body).expect("stats json");
        let number = |path: &[&str]| {
            let mut value = &stats;
            for key in path {
                value = value.field(key).expect("stats field");
            }
            value.as_u64().expect("a count")
        };
        (
            number(&["ingest", "observed"]),
            number(&["ingest", "pending"]),
            number(&["durability", "journal", "appended"]),
        )
    };
    let good: Vec<String> = (0..ROWS).map(numbered_row).collect();
    let body_of = |rows: &[String]| format!(r#"{{"observations":[{}]}}"#, rows.join(","));

    let before = state();
    for k in [0, ROWS / 2, ROWS - 1] {
        let mut rows = good.clone();
        rows[k] = rows[k].replace(r#""method":"send""#, r#""method":7"#);
        let body = body_of(&rows);
        let reference = Value::parse(&body)
            .expect("well-formed JSON")
            .field("observations")
            .and_then(Value::as_array)
            .expect("an array")
            .iter()
            .map(ObservationMessage::from_json_value)
            .collect::<Result<Vec<_>, _>>()
            .expect_err("row k is not an observation");
        let (status, reply) = connect().request("POST", "/v1/observations", Some(&body));
        assert_eq!(
            (status, reply),
            (400, format!(r#"{{"error":"{reference}"}}"#)),
            "bad row at {k}"
        );
        assert_eq!(state(), before, "bad row at {k}");
    }

    let (status, reply) = connect().request("POST", "/v1/observations", Some(&body_of(&good)));
    assert_eq!(status, 200);
    assert_eq!(reply, r#"{"accepted":1000,"skipped":0,"pending":1000}"#);
    assert_eq!(state(), (before.0 + 1000, before.1 + 1000, before.2 + 1000));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The server is the only labeler on the wire. A row that carries its own
/// `tracking` label instead of a `url` — first in the batch, or after rows
/// the server labels — gets one `400` naming the filter lists, nothing of
/// the batch is applied or journaled, and the served decision of the key
/// it targets is the same after a commit. Folded in process, that one row
/// would flip `ads.com` from tracking to mixed (5 tracking to 1 functional
/// is a log ratio of 0.7, under the threshold of 2).
#[test]
fn a_client_labeled_row_is_refused_and_moves_no_verdict() {
    let dir = std::env::temp_dir().join(format!(
        "trackersift-server-client-label-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (writer, _reader) = labeling_trained_sifter().into_concurrent();
    let server = VerdictServer::start(
        writer,
        ServerConfig {
            workers: 1,
            durability: Some(DurabilityConfig::new(&dir)),
            ..ServerConfig::ephemeral()
        },
    )
    .expect("start durable server");
    // An error response closes its connection, so every step dials anew.
    let connect = || Client::connect(server.local_addr());
    let accounts = || {
        let (status, body) = connect().request("GET", "/v1/stats", None);
        assert_eq!(status, 200);
        let stats = Value::parse(&body).expect("stats json");
        let section = |path: &[&str]| {
            let mut value = &stats;
            for key in path {
                value = value.field(key).expect("stats field");
            }
            value.render()
        };
        (section(&["ingest"]), section(&["durability", "journal"]))
    };
    let (domain, hostname, script, method) =
        ("ads.com", "px.ads.com", "https://pub.com/a.js", "send");
    let served = || {
        let query = DecisionMessage::new(domain, hostname, script, method)
            .to_json_value()
            .render();
        let (status, body) = connect().request("POST", "/v1/decisions", Some(&query));
        assert_eq!(status, 200);
        let reply = Value::parse(&body).expect("decision json");
        reply.field("decision").expect("a decision").render()
    };
    let forged = ObservationMessage::Parts {
        domain: domain.into(),
        hostname: hostname.into(),
        script: script.into(),
        method: method.into(),
        tracking: false,
    };
    let mut poisoned = labeling_trained_sifter();
    poisoned.apply(forged.as_ref());
    poisoned.commit();
    let request = DecisionMessage::new(domain, hostname, script, method);
    let poisoned = trackersift_engine::frames::decision_value(
        &poisoned.verdict_table().decide(&request.as_request()),
    )
    .render();

    let before = (accounts(), served());
    assert_eq!(
        before.1,
        r#"{"action":"block","source":"hierarchy","granularity":"Domain"}"#
    );
    assert_ne!(poisoned, before.1, "the forged row would move the verdict");
    let refusal = object(vec![(
        "error",
        Value::String(JsonError(ObservationMessage::URL_REQUIRED.into()).to_string()),
    )])
    .render();
    assert!(refusal.contains("filter lists"), "{refusal}");
    let forged = forged.to_json_value().render();
    let labeled = url_row("https://px.new.com/p.gif", "https://pub.com/n.js", "fire");
    for rows in [[&forged, &labeled, &labeled], [&labeled, &labeled, &forged]] {
        let body = format!(
            r#"{{"observations":[{},{},{}]}}"#,
            rows[0], rows[1], rows[2]
        );
        let (status, reply) = connect().request("POST", "/v1/observations", Some(&body));
        assert_eq!((status, reply), (400, refusal.clone()), "{body}");
        assert_eq!(accounts(), before.0, "{body}");
    }
    let (status, _) = connect().request("POST", "/v1/commit", None);
    assert_eq!(status, 200);
    assert_eq!(served(), before.1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash-recovery loop over the wire: observations committed against a
/// durable server survive a full stop/start cycle on the same directory,
/// and the reboot's recovery report is visible in `/v1/stats`.
#[test]
fn durable_server_recovers_observations_after_restart() {
    let dir = std::env::temp_dir().join(format!(
        "trackersift-server-durable-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let config = |dir: &std::path::Path| ServerConfig {
        workers: 1,
        durability: Some(DurabilityConfig::new(dir)),
        ..ServerConfig::ephemeral()
    };

    // First life: an untrained server learns one domain over the wire.
    let (writer, _reader) = Sifter::builder().filter_lists(LISTS).build_concurrent();
    let server = VerdictServer::start(writer, config(&dir)).expect("first boot");
    assert_eq!(
        server.recovery().expect("durable boot").replayed_records,
        0,
        "nothing to recover on a fresh directory"
    );
    let mut client = Client::connect(server.local_addr());
    let observations: Vec<String> = (0..5)
        .map(|_| url_row("https://px.ads.com/p.gif", "https://pub.com/a.js", "send"))
        .collect();
    let body = format!(r#"{{"observations":[{}]}}"#, observations.join(","));
    let (status, _) = client.request("POST", "/v1/observations", Some(&body));
    assert_eq!(status, 200);
    let (status, _) = client.request("POST", "/v1/commit", None);
    assert_eq!(status, 200);
    drop(client);
    server.shutdown();

    // Second life: a *fresh, untrained* writer on the same directory and
    // lists. The journal replay must hand back the learned verdict before
    // the first request is served.
    let (writer, _reader) = Sifter::builder().filter_lists(LISTS).build_concurrent();
    let server = VerdictServer::start(writer, config(&dir)).expect("second boot");
    let report = server.recovery().expect("durable boot");
    assert_eq!(report.replayed_commits, 1);
    assert_eq!(
        report.replayed_records, 7,
        "5 observations + 1 marker + 1 revision"
    );
    let mut client = Client::connect(server.local_addr());
    let query = r#"{"domain":"ads.com","hostname":"px.ads.com","script":"https://pub.com/a.js","method":"send"}"#;
    let (status, decision) = client.request("POST", "/v1/decisions", Some(query));
    assert_eq!(status, 200);
    assert!(
        decision.contains(r#""action":"block""#),
        "recovered verdict: {decision}"
    );

    // The durability section of /v1/stats tells the same recovery story.
    let (status, body) = client.request("GET", "/v1/stats", None);
    assert_eq!(status, 200);
    let stats = Value::parse(&body).expect("stats json");
    let durability = stats.field("durability").expect("durability object");
    assert_eq!(
        durability
            .field("generation")
            .and_then(|v| v.as_u64())
            .expect("generation"),
        0
    );
    let recovery = durability.field("recovery").expect("recovery object");
    assert_eq!(
        recovery
            .field("replayed_records")
            .and_then(|v| v.as_u64())
            .expect("replayed_records"),
        7
    );
    assert_eq!(
        recovery
            .field("torn_bytes")
            .and_then(|v| v.as_u64())
            .expect("torn_bytes"),
        0
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An acknowledged `POST /v1/observations` is on disk before its reply:
/// with no commit and no shutdown, the live journal already replays every
/// row, a boot from a copy of the directory (the bytes a `kill -9` would
/// leave) has them all pending again, and a batch of 1,000 costs one fsync.
#[test]
fn an_acknowledged_batch_is_on_disk_before_its_reply() {
    let temp = |tag: &str| {
        std::env::temp_dir().join(format!(
            "trackersift-server-acked-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ))
    };
    let (dir, crash_image) = (temp("live"), temp("crash-image"));
    let config = |dir: &std::path::Path| ServerConfig {
        workers: 1,
        durability: Some(DurabilityConfig::new(dir)),
        ..ServerConfig::ephemeral()
    };
    let body_of = |rows: std::ops::Range<usize>| {
        let rows: Vec<String> = rows.map(numbered_row).collect();
        format!(r#"{{"observations":[{}]}}"#, rows.join(","))
    };
    let stat = |client: &mut Client, path: &[&str]| {
        let (status, body) = client.request("GET", "/v1/stats", None);
        assert_eq!(status, 200);
        let stats = Value::parse(&body).expect("stats json");
        let mut value = &stats;
        for key in path {
            value = value.field(key).expect("stats field");
        }
        value.as_u64().expect("a count")
    };

    let (writer, _reader) = Sifter::builder().filter_lists(LISTS).build_concurrent();
    let server = VerdictServer::start(writer, config(&dir)).expect("boot");
    let mut client = Client::connect(server.local_addr());
    let (status, reply) = client.request("POST", "/v1/observations", Some(&body_of(0..100)));
    assert_eq!(status, 200);
    assert_eq!(reply, r#"{"accepted":100,"skipped":0,"pending":100}"#);

    let (entries, report) = trackersift_engine::Journal::replay(&dir.join("journal-0.wal"))
        .expect("replay the live journal");
    assert_eq!(report.torn_bytes, 0);
    assert_eq!(entries.len(), 100);
    assert!(entries
        .iter()
        .all(|entry| matches!(entry, trackersift_engine::JournalEntry::Observation(_))));

    std::fs::create_dir_all(&crash_image).expect("mkdir");
    for file in std::fs::read_dir(&dir).expect("list the directory") {
        let file = file.expect("directory entry");
        std::fs::copy(file.path(), crash_image.join(file.file_name())).expect("copy");
    }
    let (writer, _reader) = Sifter::builder().filter_lists(LISTS).build_concurrent();
    let reboot = VerdictServer::start(writer, config(&crash_image)).expect("boot the image");
    let pending = stat(
        &mut Client::connect(reboot.local_addr()),
        &["ingest", "pending"],
    );
    assert_eq!(pending, 100, "every acknowledged row is recovered");
    reboot.shutdown();

    let syncs = stat(&mut client, &["durability", "journal", "syncs"]);
    let (status, _) = client.request("POST", "/v1/observations", Some(&body_of(100..1100)));
    assert_eq!(status, 200);
    assert_eq!(
        stat(&mut client, &["durability", "journal", "syncs"]),
        syncs + 1,
        "one fsync per acknowledged batch"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash_image);
}

/// A minimal in-test scheduler: each tick learns one fresh tracking chain
/// and commits, so version and drift advance deterministically without
/// pulling the real `scheduler` crate into this crate's dev-dependencies.
struct CountingScheduler {
    ticks: u64,
}

impl trackersift_server::SchedulerDriver for CountingScheduler {
    fn tick(
        &mut self,
        writer: &mut trackersift_engine::SifterWriter,
    ) -> trackersift_server::TickSummary {
        let epoch = self.ticks;
        self.ticks += 1;
        for _ in 0..5 {
            writer.apply(ObservationRef::parts(
                &format!("t{epoch}.com"),
                &format!("px.t{epoch}.com"),
                &format!("https://pub.com/t{epoch}.js"),
                &format!("fire{epoch}"),
                true,
            ));
        }
        writer.commit();
        let version = writer.published_version();
        let drift_events = writer
            .revisions()
            .last()
            .map_or(0, |revision| revision.changes().len() as u64);
        trackersift_server::TickSummary {
            epoch,
            observations: 5,
            drift_events,
            version,
        }
    }

    fn stats(&self) -> trackersift_server::SchedulerStats {
        trackersift_server::SchedulerStats {
            epoch: self.ticks.saturating_sub(1),
            ticks: self.ticks,
            rotated_cdn_scripts: 5,
            rotated_paths: 2,
            emerged_pixels: 1,
            drift_events: 4 * self.ticks,
            retention_probes: 4,
            retention_hits: 3,
        }
    }
}

/// `GET /v1/revisions` serves the writer's revision ring — and its drift
/// diffs — byte-identical to the in-process encodings, in both the JSON
/// and the `Accept`-negotiated binary framing.
#[test]
fn revisions_endpoint_matches_in_process_ring() {
    use trackersift_engine::frames;

    // The in-process twin: same training, then the same observations the
    // wire side will ingest.
    let (mut local, _local_reader) = trained_sifter().into_concurrent();
    for _ in 0..5 {
        local.apply(ObservationRef::parts(
            "new.com",
            "px.new.com",
            "https://pub.com/n.js",
            "fire",
            true,
        ));
    }
    local.commit();

    let server = start_server(labeling_trained_sifter());
    let mut client = Client::connect(server.local_addr());

    // Training happened before the concurrent split, so the ring starts
    // empty at version 1.
    let (status, body) = client.request("GET", "/v1/revisions", None);
    assert_eq!(status, 200);
    assert_eq!(body, r#"{"version":1,"revisions":[]}"#);

    // Ingest the same chain over the wire, labeled by the server's list,
    // and commit.
    let observations: Vec<String> = (0..5)
        .map(|_| url_row("https://px.new.com/p.gif", "https://pub.com/n.js", "fire"))
        .collect();
    let body = format!(r#"{{"observations":[{}]}}"#, observations.join(","));
    let (status, _) = client.request("POST", "/v1/observations", Some(&body));
    assert_eq!(status, 200);
    let (status, _) = client.request("POST", "/v1/commit", None);
    assert_eq!(status, 200);

    // The served ring equals the in-process encoding byte for byte.
    let (status, body) = client.request("GET", "/v1/revisions", None);
    assert_eq!(status, 200);
    let expected =
        frames::revision_list_value(local.published_version(), local.revisions()).render();
    assert_eq!(body, expected);
    assert!(
        body.contains(r#""key":"new.com","added":"tracking""#),
        "{body}"
    );

    // The drift diff folds the same changes the local ring folds.
    let local_diff =
        trackersift_engine::diff_revisions(local.revisions(), 1, 2).expect("local diff");
    let (status, body) = client.request("GET", "/v1/revisions?diff=1..2", None);
    assert_eq!(status, 200);
    assert_eq!(body, frames::revision_diff_value(&local_diff).render());

    // An empty range is legal and empty.
    let (status, body) = client.request("GET", "/v1/revisions?diff=2..2", None);
    assert_eq!(status, 200);
    assert_eq!(body, r#"{"from":2,"to":2,"changes":[]}"#);

    // The binary framing carries the same ring and diff: what the typed
    // fetch decodes re-renders to the JSON body served above, which ties
    // the two encoders to one value without a JSON decoder.
    let (version, revisions) = client.fetch_revisions().expect("binary ring");
    assert_eq!(version, local.published_version());
    let shared: Vec<_> = revisions.into_iter().map(std::sync::Arc::new).collect();
    assert_eq!(
        frames::revision_list_value(version, &shared).render(),
        expected
    );
    assert_eq!(
        frames::encode_revision_list(version, &shared),
        frames::encode_revision_list(local.published_version(), local.revisions())
    );
    let diff = client.fetch_revision_diff(1, 2).expect("binary diff");
    assert_eq!(diff, local_diff);

    server.shutdown();
}

/// Every entry of `ROUTES` is answered by its handler, every path it names
/// refuses a method it lacks with `405`, and a query is a route only on the
/// two paths that take one.
#[test]
fn the_route_table_answers_every_entry_and_refuses_the_rest() {
    let server = start_server(trained_sifter());
    // Errors close the connection, so each request reconnects.
    let status = |method: &str, target: &str| {
        let mut client = Client::connect(server.local_addr());
        let (status, body) = client.request(method, target, None);
        (status, format!("{method} {target}: {status} {body}"))
    };
    for route in &ROUTES {
        let (method, path) = (route.0, route.1);
        // A query-taking path gets a query its handler refuses with `400`.
        let query = if path.ends_with('?') { "x=1" } else { "" };
        let target = format!("{path}{query}");
        let (code, seen) = status(method, &target);
        assert!(code != 404 && code != 405, "{seen}");
        let (code, seen) = status("DELETE", &target);
        assert_eq!(code, 405, "{seen}");
    }
    let cases = [
        ("PUT", "/v1/snapshot?since=1", 405),
        ("DELETE", "/v1/snapshot?since=1", 405),
        ("GET", "/healthz?probe=1", 404),
        ("POST", "/v1/decisions?x=1", 404),
        ("GET", "/v1/decisions", 405),
    ];
    for (method, target, expected) in cases {
        let (code, seen) = status(method, target);
        assert_eq!(code, expected, "{seen}");
    }
    server.shutdown();
}

/// Hostile revision queries get typed 4xx answers: inverted ranges 400,
/// ranges outside the bounded ring 404, garbage query strings 400 — and
/// the method table still answers 405 for non-GET.
#[test]
fn revisions_endpoint_rejects_hostile_ranges() {
    let server = start_server(labeling_trained_sifter());

    // Commit once over the wire so the ring holds version 2.
    let mut client = Client::connect(server.local_addr());
    let body = format!(
        r#"{{"observations":[{}]}}"#,
        url_row("https://px.new.com/p.gif", "https://pub.com/n.js", "fire")
    );
    client.request("POST", "/v1/observations", Some(&body));
    client.request("POST", "/v1/commit", None);

    // Errors close the connection, so each case reconnects.
    let cases: [(&str, u16, &str); 9] = [
        ("/v1/revisions?diff=2..1", 400, "inverted revision range"),
        ("/v1/revisions?diff=0..9", 404, "not in the revision ring"),
        ("/v1/revisions?diff=5..9", 404, "not in the revision ring"),
        ("/v1/revisions?diff=abc", 400, "not of the form a..b"),
        // Versions are 1*DIGIT: a sign `u64::from_str` would accept is not.
        (
            "/v1/revisions?diff=+1..2",
            400,
            r#"bad revision version \"+1\""#,
        ),
        (
            "/v1/revisions?diff=1..+2",
            400,
            r#"bad revision version \"+2\""#,
        ),
        ("/v1/revisions?diff=1..2&diff=1..2", 400, "duplicate"),
        (
            "/v1/revisions?granularity=Script",
            400,
            "unknown query parameter",
        ),
        ("/v1/revisions?", 400, "malformed query parameter"),
    ];
    for (target, expected_status, needle) in cases {
        let mut client = Client::connect(server.local_addr());
        let (status, body) = client.request("GET", target, None);
        assert_eq!(status, expected_status, "{target}: {body}");
        assert!(body.contains(needle), "{target}: {body}");
    }

    // The typed client surfaces the same statuses.
    let mut client = Client::connect(server.local_addr());
    match client.fetch_revision_diff(2, 1) {
        Err(trackersift_server::client::RevisionFetchError::Status(400, detail)) => {
            assert!(detail.contains("inverted"), "{detail}")
        }
        other => panic!("expected a 400, got {other:?}"),
    }

    // Non-GET methods on the revisions target — query string included —
    // are 405, not 404.
    for target in ["/v1/revisions", "/v1/revisions?diff=1..2"] {
        let mut client = Client::connect(server.local_addr());
        let (status, body) = client.request("DELETE", target, None);
        assert_eq!(status, 405, "{target}: {body}");
    }
    server.shutdown();
}

/// `POST /v1/tick` drives an attached `SchedulerDriver` on the admin
/// thread, `GET /v1/stats` grows a `scheduler` section, and a server
/// without a scheduler answers 400.
#[test]
fn tick_endpoint_drives_the_attached_scheduler() {
    let (writer, _reader) = trained_sifter().into_concurrent();
    let server = VerdictServer::start_with_scheduler(
        writer,
        ServerConfig {
            workers: 2,
            read_timeout: Duration::from_secs(30),
            ..ServerConfig::ephemeral()
        },
        Box::new(CountingScheduler { ticks: 0 }),
    )
    .expect("start verdict server with scheduler");
    let mut client = Client::connect(server.local_addr());

    // Each tick commits one fresh pure-tracking chain: the hierarchy
    // decides it at domain granularity, so exactly one class flips.
    let (status, body) = client.request("POST", "/v1/tick", None);
    assert_eq!(status, 200);
    assert_eq!(
        body,
        r#"{"epoch":0,"observations":5,"drift_events":1,"version":2}"#
    );
    let (status, body) = client.request("POST", "/v1/tick", None);
    assert_eq!(status, 200);
    assert_eq!(
        body,
        r#"{"epoch":1,"observations":5,"drift_events":1,"version":3}"#
    );

    // The tick's drift is now diffable over the wire.
    let (status, body) = client.request("GET", "/v1/revisions?diff=2..3", None);
    assert_eq!(status, 200);
    assert!(
        body.contains(r#""key":"t1.com","added":"tracking""#),
        "{body}"
    );

    // The stats section reports the driver's cumulative gauges plus the
    // measured tick duration.
    let (status, body) = client.request("GET", "/v1/stats", None);
    assert_eq!(status, 200);
    let stats = Value::parse(&body).expect("stats json");
    let scheduler = stats.field("scheduler").expect("scheduler section");
    let field = |name: &str| {
        scheduler
            .field(name)
            .and_then(|value| value.as_u64())
            .unwrap_or_else(|error| panic!("scheduler.{name}: {error}"))
    };
    assert_eq!(field("epoch"), 1);
    assert_eq!(field("ticks"), 2);
    assert_eq!(field("rotated_cdn_scripts"), 5);
    assert_eq!(field("rotated_paths"), 2);
    assert_eq!(field("emerged_pixels"), 1);
    assert_eq!(field("drift_events"), 8);
    let retention = scheduler.field("retention").expect("retention object");
    assert_eq!(retention.field("probes").unwrap().as_u64().unwrap(), 4);
    assert_eq!(retention.field("hits").unwrap().as_u64().unwrap(), 3);
    // The duration gauge is measured, not golden — it just has to exist.
    let _ = field("last_tick_micros");

    // A scheduler-less server refuses the tick with a typed 400 and no
    // scheduler stats section.
    let plain = start_server(trained_sifter());
    let mut client = Client::connect(plain.local_addr());
    let (status, body) = client.request("POST", "/v1/tick", None);
    assert_eq!(status, 400);
    assert!(body.contains("no scheduler attached"), "{body}");
    let mut client = Client::connect(plain.local_addr());
    let (_, body) = client.request("GET", "/v1/stats", None);
    let stats = Value::parse(&body).expect("stats json");
    assert!(stats.field("scheduler").is_err());
    plain.shutdown();
    server.shutdown();
}

/// The sections only a durable, scheduled primary renders keep their
/// place in the document and their key order. Every number is masked to
/// `N`: journal sizes depend on the run and `last_tick_micros` is a clock.
#[test]
fn stats_sections_of_a_durable_scheduled_primary_keep_their_key_order() {
    let dir = std::env::temp_dir().join(format!(
        "trackersift-server-stats-order-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (writer, _reader) = trained_sifter().into_concurrent();
    let server = VerdictServer::start_with_scheduler(
        writer,
        ServerConfig {
            workers: 1,
            durability: Some(DurabilityConfig::new(&dir)),
            ..ServerConfig::ephemeral()
        },
        Box::new(CountingScheduler { ticks: 0 }),
    )
    .expect("start durable scheduled server");
    let mut client = Client::connect(server.local_addr());
    let (status, _) = client.request("POST", "/v1/tick", None);
    assert_eq!(status, 200);
    let (status, body) = client.request("GET", "/v1/stats", None);
    assert_eq!(status, 200);
    let mut masked = String::new();
    for c in body.chars() {
        if !c.is_ascii_digit() {
            masked.push(c);
        } else if !masked.ends_with('N') {
            masked.push('N');
        }
    }
    let (_, tail) = masked
        .split_once(r#""admission":{"#)
        .and_then(|(_, rest)| rest.split_once("},"))
        .expect("admission section");
    assert_eq!(
        tail,
        concat!(
            r#""durability":{"generation":N,"#,
            r#""journal":{"appended":N,"synced":N,"syncs":N,"write_errors":N,"#,
            r#""sync_errors":N,"rotations":N,"bytes":N},"#,
            r#""recovery":{"generation":N,"restored_snapshot":false,"snapshot_observations":N,"#,
            r#""replayed_records":N,"replayed_commits":N,"torn_bytes":N}},"#,
            r#""scheduler":{"epoch":N,"ticks":N,"last_tick_micros":N,"rotated_cdn_scripts":N,"#,
            r#""rotated_paths":N,"emerged_pixels":N,"drift_events":N,"#,
            r#""retention":{"probes":N,"hits":N}},"#,
            r#""replication":{"role":"primary","ring":{"len":N,"oldest":N,"newest":N},"#,
            r#""snapshots":{"deltas":N,"fulls":N}}}"#,
        ),
        "{body}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A durable primary restarted from a checkpoint reports it: after a
/// `PUT /v1/snapshot` (whose restore is checkpointed into a generation of
/// its own), a fresh writer booted on the same directory restores that
/// snapshot, and the recovery report's `"restored_snapshot"` reads `true`
/// in its place in the `"durability"` section. Numbers are masked as in
/// the test above.
#[test]
fn a_primary_restarted_from_a_checkpoint_reports_the_restored_snapshot() {
    let dir = std::env::temp_dir().join(format!(
        "trackersift-server-restored-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let config = || ServerConfig {
        workers: 1,
        durability: Some(DurabilityConfig::new(&dir)),
        ..ServerConfig::ephemeral()
    };
    let (writer, _reader) = Sifter::builder().build_concurrent();
    let server = VerdictServer::start(writer, config()).expect("first boot");
    let snapshot = trained_sifter().snapshot().to_json_string();
    let (status, _) =
        Client::connect(server.local_addr()).request("PUT", "/v1/snapshot", Some(&snapshot));
    assert_eq!(status, 200);
    server.shutdown();

    let (writer, _reader) = Sifter::builder().build_concurrent();
    let server = VerdictServer::start(writer, config()).expect("second boot");
    assert!(server.recovery().expect("durable boot").restored_snapshot);
    let (status, body) = Client::connect(server.local_addr()).request("GET", "/v1/stats", None);
    assert_eq!(status, 200);
    let mut masked = String::new();
    for c in body.chars() {
        if !c.is_ascii_digit() {
            masked.push(c);
        } else if !masked.ends_with('N') {
            masked.push('N');
        }
    }
    let (_, tail) = masked
        .split_once(r#""admission":{"#)
        .and_then(|(_, rest)| rest.split_once("},"))
        .expect("admission section");
    assert_eq!(
        tail,
        concat!(
            r#""durability":{"generation":N,"#,
            r#""journal":{"appended":N,"synced":N,"syncs":N,"write_errors":N,"#,
            r#""sync_errors":N,"rotations":N,"bytes":N},"#,
            r#""recovery":{"generation":N,"restored_snapshot":true,"snapshot_observations":N,"#,
            r#""replayed_records":N,"replayed_commits":N,"torn_bytes":N}},"#,
            r#""replication":{"role":"primary","ring":{"len":N,"oldest":N,"newest":N},"#,
            r#""snapshots":{"deltas":N,"fulls":N}}}"#,
        ),
        "{body}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deterministic observation tuples from a splitmix-style stream.
fn observations(count: usize, mut seed: u64) -> Vec<(String, String, String, String, bool)> {
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..count)
        .map(|_| {
            let r = next();
            let domain = r % 4;
            let host = (r >> 8) % 3;
            let script = (r >> 16) % 4;
            let method = (r >> 24) % 3;
            (
                format!("d{domain}.com"),
                format!("h{host}.d{domain}.com"),
                format!("https://pub.com/s{script}.js"),
                format!("m{method}"),
                (r >> 32) & 1 == 1,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance property: for the same snapshot, the decision served
    /// over the wire — serialize → server → deserialize — equals the
    /// in-process `Sifter` decision byte for byte, surrogate payloads for
    /// mixed scripts included. Exercises `PUT /v1/snapshot` as the state
    /// transfer.
    #[test]
    fn wire_decisions_are_byte_identical_to_in_process(
        count in 20usize..160,
        seed in 0u64..1_000_000,
        threshold in 0.7f64..2.5,
    ) {
        // Local side: train, snapshot, restore — the in-process truth.
        let mut trained = Sifter::builder()
            .thresholds(trackersift_engine::Thresholds::new(threshold))
            .build();
        let stream = observations(count, seed);
        for (domain, hostname, script, method, tracking) in &stream {
            trained.apply(ObservationRef::parts(domain, hostname, script, method, *tracking));
        }
        trained.commit();
        let snapshot = trained.snapshot();
        // Both sides carry the same default rewriter, so the decision space
        // the probes sweep includes `rewrite` (URL-context probes against
        // mixed resources).
        let local = Sifter::builder()
            .rewriter(trackersift_engine::RewriterBuilder::new().default_rules().build())
            .restore(&snapshot)
            .expect("restore locally")
            .verdict_table();

        // Server side: one shared server (kept alive across proptest
        // cases; each case transfers its own state via PUT /v1/snapshot —
        // the rewriter is serving configuration, kept across restores).
        static SERVER: std::sync::OnceLock<VerdictServer> = std::sync::OnceLock::new();
        let server = SERVER.get_or_init(|| {
            let (writer, _reader) = Sifter::builder()
                .rewriter(trackersift_engine::RewriterBuilder::new().default_rules().build())
                .build_concurrent();
            VerdictServer::start(
                writer,
                ServerConfig {
                    workers: 2,
                    read_timeout: Duration::from_secs(2),
                    ..ServerConfig::ephemeral()
                },
            ).expect("start server")
        });
        let mut client = Client::connect(server.local_addr());
        let (status, _) = client.request("PUT", "/v1/snapshot", Some(&snapshot.to_json_string()));
        prop_assert_eq!(status, 200);
        // Binary handshake against the state this case just transferred
        // (every restore advances the key epoch, so re-fetch per case).
        let keys = client.fetch_keys();

        // Every attribution tuple the pools can produce, plus unknowns.
        for domain in 0..5u64 {
            for host in 0..3u64 {
                for script in 0..4u64 {
                    for method in 0..3u64 {
                        let mut message = DecisionMessage::new(
                            &format!("d{domain}.com"),
                            &format!("h{host}.d{domain}.com"),
                            &format!("https://pub.com/s{script}.js"),
                            &format!("m{method}"),
                        );
                        // Every other probe carries a URL with identifier
                        // parameters, so mixed tuples land in the rewrite
                        // arm and the sweep covers all five actions.
                        if (domain + host + script + method) % 2 == 1 {
                            message = message.with_url(
                                &format!(
                                    "https://h{host}.d{domain}.com/t?id={script}&fbclid=f{}&utm_medium=wire",
                                    seed % 7
                                ),
                                "pub.com",
                                filterlist::ResourceType::Xhr,
                            );
                        }
                        let (status, body) = client.request(
                            "POST",
                            "/v1/decisions",
                            Some(&message.to_json_value().render()),
                        );
                        prop_assert_eq!(status, 200);
                        let reply = Value::parse(&body).expect("decision reply is json");
                        let served = reply.field("decision").expect("decision field");
                        let expected = local.decide(&message.as_request());
                        // Byte-identical: the served JSON re-renders to the
                        // canonical encoding of the local decision.
                        prop_assert_eq!(
                            served.render(),
                            trackersift_engine::frames::decision_value(&expected).render()
                        );

                        // The binary codec agrees too, in both key forms.
                        // String form first:
                        let by_name = BinaryRecord::from_message(&message);
                        let (_, decoded) = client.decide_binary_single(keys.epoch, &by_name);
                        prop_assert_eq!(&decoded, &expected);
                        // ...then id form (same URL context), with
                        // uninterned strings mapped to an id the table
                        // never issued (same semantics as an unknown
                        // string).
                        let by_id = BinaryRecord {
                            keys: BinaryKeys::Ids {
                                domain: keys.id_of(&message.domain).unwrap_or(u32::MAX),
                                hostname: keys.id_of(&message.hostname).unwrap_or(u32::MAX),
                                script: keys.id_of(&message.script).unwrap_or(u32::MAX),
                                method: keys.id_of(&message.method).unwrap_or(u32::MAX),
                            },
                            context: by_name.context,
                        };
                        let (_, decoded) = client.decide_binary_single(keys.epoch, &by_id);
                        prop_assert_eq!(&decoded, &expected);
                    }
                }
            }
        }
        // The shared server is intentionally left running for later cases;
        // the test process tears it down on exit.
    }
}

#[test]
fn delta_snapshot_endpoint_contract() {
    use trackersift_engine::frames;

    let server = start_server(labeling_trained_sifter());
    let mut client = Client::connect(server.local_addr());

    // A server whose table was trained before `into_concurrent` has an
    // empty revision ring: any `?since=` span is unanswerable, and the
    // typed fallback is `410 Gone` carrying a *full* snapshot.
    let (status, body) = client.request("GET", "/v1/snapshot?since=0", None);
    assert_eq!(status, 410);
    // The typed client takes the 410 as data, and what it decodes from the
    // binary body re-renders to the JSON one: two encoders, one value.
    let full = client.fetch_snapshot_since(0).expect("aged span -> full");
    assert_eq!((full.since, full.to), (None, 1));
    assert_eq!(body, frames::delta_snapshot_value(&full).render());

    // One observed + committed epoch puts version 2 in the ring, so the
    // span 1 -> 2 is servable as a delta.
    let (status, _) = client.request(
        "POST",
        "/v1/observations",
        Some(
            r#"{"observations":[{"url":"https://p.new.com/e","source_hostname":"pub.com","resource_type":"ping","script":"https://new.com/n.js","method":"emit"}]}"#,
        ),
    );
    assert_eq!(status, 200);
    let (status, _) = client.request("POST", "/v1/commit", None);
    assert_eq!(status, 200);
    let (status, body) = client.request("GET", "/v1/snapshot?since=1", None);
    assert_eq!(status, 200);
    let delta = client.fetch_snapshot_since(1).expect("delta");
    assert_eq!((delta.since, delta.to), (Some(1), 2));
    assert!(!delta.changes.is_empty());
    assert_eq!(body, frames::delta_snapshot_value(&delta).render());
    let full = client.fetch_snapshot_since(0).expect("aged span -> full");
    assert_eq!((full.since, full.to), (None, 2));

    // An inverted span (a follower from the future) is a client error,
    // and so is a malformed query. Errors close the connection.
    let mut client = Client::connect(server.local_addr());
    let (status, body) = client.request("GET", "/v1/snapshot?since=99", None);
    assert_eq!(status, 400);
    assert!(body.contains("inverted"), "{body}");
    for (target, needle) in [
        ("/v1/snapshot?since=abc", r#"bad snapshot version \"abc\""#),
        // Versions are 1*DIGIT: no sign, and not nothing.
        ("/v1/snapshot?since=+3", r#"bad snapshot version \"+3\""#),
        ("/v1/snapshot?since=", r#"bad snapshot version \"\""#),
    ] {
        let mut client = Client::connect(server.local_addr());
        let (status, body) = client.request("GET", target, None);
        assert_eq!(status, 400, "{target}: {body}");
        assert!(body.contains(needle), "{target}: {body}");
    }
    let mut client = Client::connect(server.local_addr());
    let (status, _) = client.request("GET", "/v1/snapshot?bogus=1", None);
    assert_eq!(status, 400);

    server.shutdown();
}
