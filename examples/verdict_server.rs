//! The wire deployment loop: train a sifter, start the HTTP/1.1 verdict
//! server on its lock-free reader handles, and talk to it the way any
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
            "  applied version {} (lag {}, bootstraps {}, sync errors {})",
            status.applied_version(),
            status.lag(),
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

    // 1. Train on a synthetic study and split into the concurrent pair.
    let study = Study::run(StudyConfig {
        profile: CorpusProfile::small().with_sites(300),
        seed: 11,
        ..StudyConfig::default()
    });
    let mut sifter = Sifter::builder()
        .thresholds(study.config.thresholds)
        .build();
    sifter.observe_all(&study.requests);
    sifter.commit();
    let (writer, _reader) = sifter.into_concurrent();

    // 2. Serve: fixed worker pool, one lock-free reader handle per worker,
    //    the writer owned by the admin thread.
    let server = VerdictServer::start(writer, ServerConfig::ephemeral()).expect("start server");
    let addr = server.local_addr();
    println!("Verdict server listening on http://{addr}");

    // 3. Liveness + one decision for a request from the corpus.
    let (status, body) = http(addr, "GET", "/healthz", "");
    println!("GET /healthz -> {status} {body}");

    let request = &study.requests[0];
    let query = format!(
        r#"{{"domain":{:?},"hostname":{:?},"script":{:?},"method":{:?}}}"#,
        request.domain, request.hostname, request.initiator_script, request.initiator_method
    );
    let (status, body) = http(addr, "POST", "/v1/decisions", &query);
    println!("POST /v1/decisions -> {status}\n  {body}");

    // 4. Stats: the same ServiceStats the in-process API exposes, plus
    //    per-worker counters.
    let (_, stats) = http(addr, "GET", "/v1/stats", "");
    println!("GET /v1/stats ->\n  {stats}");

    // 5. Snapshot save/load over the wire: export the trained state, then
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

    // 6. Ingest over the wire, commit, and watch the served table move on.
    let observation = r#"{"observations":[
        {"domain":"freshtracker.com","hostname":"px.freshtracker.com",
         "script":"https://pub.com/app.js","method":"beacon","tracking":true}
    ]}"#;
    let (_, body) = http(addr, "POST", "/v1/observations", observation);
    println!("POST /v1/observations -> {body}");
    let (_, body) = http(addr, "POST", "/v1/commit", "");
    println!("POST /v1/commit -> {body}");

    server.shutdown();
    println!("Server drained and shut down cleanly.");
}
