//! The deployment loop, end to end: train a `Sifter`, persist and reload
//! its trained state, query verdicts in bulk, keep ingesting while several
//! threads serve from per-thread reader handles, and finally put the same
//! handles behind the HTTP/1.1 verdict server and talk to it the way any
//! client would — over a raw `TcpStream`, no HTTP library required.
//!
//! ```sh
//! cargo run --release --example verdict_server
//! ```
//!
//! With `--replica-of <host:port>` the process instead joins a fleet as a
//! **read-only replica** of an already-running primary: it bootstraps
//! from the primary's full snapshot, serves decisions from the followed
//! state, and keeps polling delta snapshots until killed.
//!
//! ```sh
//! cargo run --release --example verdict_server -- --replica-of 127.0.0.1:8377
//! ```

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};
use trackersift_suite::prelude::*;

/// Issue one HTTP/1.1 request and return (status line, body).
fn http(addr: SocketAddr, method: &str, target: &str, body: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read reply");
    let status = reply.lines().next().unwrap_or_default().to_string();
    let body = reply
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or_default();
    (status, body)
}

/// `--replica-of` mode: follow a primary until killed, reporting the
/// replication gauges once per second.
fn run_replica(upstream: &str) -> ! {
    let replica = VerdictServer::follow(ReplicaConfig::new(upstream), None, None)
        .expect("replica bootstrap (is the primary running?)");
    let status = replica.replica_status().expect("a follower has gauges");
    println!(
        "Replica of {} serving on http://{}",
        status.upstream(),
        replica.local_addr()
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(1));
        println!(
            "  applied version {} (bootstraps {}, sync errors {})",
            status.applied_version(),
            status.bootstraps(),
            status.sync_errors()
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(position) = args.iter().position(|arg| arg == "--replica-of") {
        let upstream = args
            .get(position + 1)
            .expect("--replica-of needs a host:port argument");
        run_replica(upstream);
    }

    // 1. Train: run the batch pipeline once and produce a serving handle.
    //    Hold back the last 20% of the labeled traffic to replay later as
    //    the "live" stream.
    let study = Study::run(StudyConfig {
        profile: CorpusProfile::small().with_sites(400),
        seed: 7,
        ..StudyConfig::default()
    });
    let split = study.requests.len() * 8 / 10;
    let (historical, live) = study.requests.split_at(split);
    let mut sifter = Sifter::builder()
        .thresholds(study.config.thresholds)
        .build();
    sifter.apply_batch(historical.iter().map(ObservationRef::from));
    sifter.commit();
    // One consolidated stats struct — the same source of truth the server's
    // /v1/stats endpoint serializes.
    let stats = sifter.service_stats();
    println!(
        "Trained on {} requests: {} domains / {} hostnames / {} scripts / {} methods committed.",
        stats.ingest.committed,
        stats.resources[Granularity::Domain.index()],
        stats.resources[Granularity::Hostname.index()],
        stats.resources[Granularity::Script.index()],
        stats.resources[Granularity::Method.index()],
    );

    // 2. Snapshot and reload: export the trained state (versioned JSON) as
    //    a long-running service would on shutdown; a fresh process restores
    //    it and serves immediately — no re-crawl, bitwise-identical state.
    let snapshot = sifter.snapshot();
    let path = std::env::temp_dir().join("trackersift_sifter.json");
    std::fs::write(&path, snapshot.to_json_string()).expect("write snapshot");
    println!(
        "Snapshot v{} written to {} ({} keys, {} count cells).",
        SifterSnapshot::FORMAT_VERSION,
        path.display(),
        snapshot.key_count(),
        snapshot.cell_count(),
    );
    let text = std::fs::read_to_string(&path).expect("read snapshot");
    let reloaded = SifterSnapshot::parse(&text).expect("parse snapshot");
    // The filter engine is not part of a snapshot: the restored sifter takes
    // the study's, to label the raw-URL observations posted in step 10.
    let mut restored = Sifter::builder()
        .engine(study.engine.clone())
        .restore(&reloaded)
        .expect("restore");
    assert_eq!(restored.hierarchy(), sifter.hierarchy());

    // 3. Query in-process: the committed state exports as a `VerdictTable`,
    //    the one type that answers verdicts and decisions. The per-verdict
    //    walk is allocation-free.
    let queries: Vec<DecisionRequest<'_>> =
        live.iter().map(DecisionRequest::from_labeled).collect();
    let table = restored.verdict_table();
    let start = Instant::now();
    let blocked = queries
        .iter()
        .filter(|query| table.verdict(query).should_block())
        .count();
    let elapsed = start.elapsed();
    println!(
        "Served {} verdicts in {elapsed:.2?} ({:.0} verdicts/sec): {blocked} block.",
        queries.len(),
        queries.len() as f64 / elapsed.as_secs_f64().max(1e-9),
    );

    // 4. Go concurrent: split into a writer and cloneable reader
    //    handles, and serve from 4 threads while the writer ingests the
    //    live stream. Each batch holds one pin on one immutable table, so
    //    it always reflects exactly one committed state — commits land
    //    atomically between batches, never inside one.
    let (mut writer, reader) = restored.into_concurrent();
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let (reader, stop, queries) = (reader.clone(), &stop, &queries);
                scope.spawn(move || {
                    let mut served = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        let pin = reader.pin();
                        for query in queries {
                            std::hint::black_box(pin.decide(query));
                        }
                        served += queries.len() as u64;
                    }
                    served
                })
            })
            .collect();
        for chunk in live.chunks(500) {
            writer.apply_batch(chunk.iter().map(ObservationRef::from));
            let stats = writer.commit();
            println!(
                "commit v{}: +{} observations, {} resources reclassified",
                writer.sifter().commits(),
                stats.observations,
                stats.reclassified(),
            );
            thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::Release);
        let served: u64 = workers
            .into_iter()
            .map(|worker| worker.join().expect("reader thread"))
            .sum();
        println!(
            "4 readers served {served} decisions in {:.2?} while {} commits published.",
            start.elapsed(),
            writer.sifter().commits(),
        );
    });

    // 5. Incremental ingestion is exactly a batch retrain over everything.
    let mut scratch = Sifter::builder()
        .thresholds(study.config.thresholds)
        .build();
    scratch.apply_batch(study.requests.iter().map(ObservationRef::from));
    scratch.commit();
    assert_eq!(writer.sifter().hierarchy(), scratch.hierarchy());
    assert_eq!(writer.sifter().hierarchy(), study.hierarchy);
    println!("observe + commit == from-scratch classification: verified.");

    // 6. Serve over the wire: fixed worker pool, one reader
    //    handle per worker, the writer owned by the admin thread.
    let server = VerdictServer::start(writer, ServerConfig::ephemeral()).expect("start server");
    let addr = server.local_addr();
    println!("\nVerdict server listening on http://{addr}");

    // 7. Liveness + one decision for a request from the corpus.
    let (status, body) = http(addr, "GET", "/healthz", "");
    println!("GET /healthz -> {status} {body}");

    let request = &study.requests[0];
    let query = format!(
        r#"{{"domain":{:?},"hostname":{:?},"script":{:?},"method":{:?}}}"#,
        request.domain, request.hostname, request.initiator_script, request.initiator_method
    );
    let (status, body) = http(addr, "POST", "/v1/decisions", &query);
    println!("POST /v1/decisions -> {status}\n  {body}");

    // 8. Stats: the same ServiceStats the in-process API exposes, plus
    //    per-worker counters.
    let (_, stats) = http(addr, "GET", "/v1/stats", "");
    println!("GET /v1/stats ->\n  {stats}");

    // 9. Snapshot save/load over the wire: export the trained state, then
    //    import it back (e.g. into a standby replica).
    let (_, snapshot) = http(addr, "GET", "/v1/snapshot", "");
    let path = std::env::temp_dir().join("trackersift_server_snapshot.json");
    std::fs::write(&path, &snapshot).expect("write snapshot");
    println!(
        "GET /v1/snapshot -> {} bytes saved to {}",
        snapshot.len(),
        path.display()
    );
    let restored = std::fs::read_to_string(&path).expect("read snapshot");
    let (status, body) = http(addr, "PUT", "/v1/snapshot", &restored);
    println!("PUT /v1/snapshot -> {status} {body}");

    // 10. Ingest over the wire, commit, and watch the served table move on.
    //     A row is a raw URL the server labels with its own filter lists
    //     (EasyPrivacy's `/beacon?`); a row carrying its own `tracking`
    //     label is refused.
    let observation = r#"{"observations":[
        {"url":"https://px.freshtracker.com/beacon?id=1","source_hostname":"pub.com",
         "resource_type":"ping","script":"https://pub.com/app.js","method":"beacon"}
    ]}"#;
    let query = r#"{"domain":"freshtracker.com","hostname":"px.freshtracker.com","script":"https://pub.com/app.js","method":"beacon"}"#;
    let (_, before) = http(addr, "POST", "/v1/decisions", query);
    let (_, body) = http(addr, "POST", "/v1/observations", observation);
    println!("POST /v1/observations -> {body}");
    let (_, body) = http(addr, "POST", "/v1/commit", "");
    println!("POST /v1/commit -> {body}");
    let (_, after) = http(addr, "POST", "/v1/decisions", query);
    println!("freshtracker.com before the commit: {before}\n  after: {after}");
    assert!(after.contains(r#""action":"block""#), "{after}");
    let labeled = r#"{"observations":[{"domain":"freshtracker.com","hostname":"px.freshtracker.com","script":"https://pub.com/app.js","method":"beacon","tracking":false}]}"#;
    let (status, body) = http(addr, "POST", "/v1/observations", labeled);
    assert!(status.contains(" 400 "), "{status}");
    println!("POST /v1/observations with a client's own label -> {status}\n  {body}");

    server.shutdown();
    println!("Server drained and shut down cleanly.");
}
