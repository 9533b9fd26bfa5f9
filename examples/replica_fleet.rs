//! A primary plus a two-replica chain over loopback: the first replica
//! bootstraps from the primary's full snapshot, the second from the first
//! replica's, and both then track the primary's commits through delta
//! snapshots — the second from the ring of deltas the first applied — and
//! (the consistency contract) answer every query **byte-identically** to
//! the primary once they hold the same version.
//!
//! ```sh
//! cargo run --release --example replica_fleet
//! ```

use std::net::SocketAddr;
use std::time::{Duration, Instant};
use trackersift_suite::prelude::*;
use trackersift_suite::trackersift_server::client::Client;

/// Issue one HTTP/1.1 request on a fresh connection and return (status
/// code, body).
fn http(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    Client::connect(addr).request(method, target, Some(body))
}

/// The sync gauges of a server started with `VerdictServer::follow`.
fn gauges(replica: &VerdictServer) -> &ReplicaStatus {
    replica.replica_status().expect("a follower has gauges")
}

/// Wait until `replica` has applied `version` (bounded).
fn await_version(replica: &VerdictServer, version: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while gauges(replica).applied_version() < version {
        assert!(
            Instant::now() < deadline,
            "replica stuck at version {}",
            gauges(replica).applied_version()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn main() {
    // 1. A primary trained on a synthetic study.
    let study = Study::run(StudyConfig {
        profile: CorpusProfile::small().with_sites(200),
        seed: 23,
        ..StudyConfig::default()
    });
    // The study's filter engine rides along: the primary labels the
    //    observations posted to it in step 4.
    let (writer, _reader) = study.sifter().into_concurrent();
    let primary = VerdictServer::start(writer, ServerConfig::ephemeral()).expect("primary");
    println!("primary on http://{}", primary.local_addr());

    // 2. Replica 0 bootstraps from the primary, replica 1 from replica 0
    //    (full snapshot, then delta polls).
    let mut fleet: Vec<VerdictServer> = Vec::new();
    for i in 0..2 {
        let upstream = fleet.last().unwrap_or(&primary).local_addr();
        let mut config = ReplicaConfig::new(upstream.to_string());
        config.poll_interval = Duration::from_millis(25);
        let replica = VerdictServer::follow(config, None, None).expect("replica bootstrap");
        println!(
            "replica {i} on http://{} follows {upstream} at version {}",
            replica.local_addr(),
            gauges(&replica).applied_version()
        );
        fleet.push(replica);
    }

    // 3. Byte-identity at the same version: every fleet member answers a
    //    sample of corpus queries with exactly the primary's bytes.
    let sample: Vec<String> = study
        .requests
        .iter()
        .step_by(study.requests.len() / 25 + 1)
        .map(|request| {
            format!(
                r#"{{"domain":{:?},"hostname":{:?},"script":{:?},"method":{:?}}}"#,
                request.domain,
                request.hostname,
                request.initiator_script,
                request.initiator_method
            )
        })
        .collect();
    let mut checked = 0usize;
    for query in &sample {
        let (status, primary_body) = http(primary.local_addr(), "POST", "/v1/decisions", query);
        assert_eq!(status, 200);
        for replica in &fleet {
            let (status, replica_body) = http(replica.local_addr(), "POST", "/v1/decisions", query);
            assert_eq!(status, 200);
            assert_eq!(
                primary_body, replica_body,
                "fleet answer diverged for {query}"
            );
        }
        checked += 1;
    }
    println!("byte-identical on {checked} sampled queries across the fleet");

    // 4. Drift: a fresh commit on the primary flows to every replica as a
    //    small delta, and the fleet converges on the new verdict. The row is
    //    a raw URL the primary labels tracking (EasyPrivacy's `/beacon?`).
    let observation = r#"{"observations":[
        {"url":"https://px.freshtracker.com/beacon?id=1","source_hostname":"pub.com",
         "resource_type":"ping","script":"https://pub.com/app.js","method":"beacon"}
    ]}"#;
    let (status, _) = http(
        primary.local_addr(),
        "POST",
        "/v1/observations",
        observation,
    );
    assert_eq!(status, 200);
    let (status, commit) = http(primary.local_addr(), "POST", "/v1/commit", "");
    assert_eq!(status, 200);
    println!("primary commit -> {commit}");
    for replica in &fleet {
        await_version(replica, 2);
    }
    let query = r#"{"domain":"freshtracker.com","hostname":"px.freshtracker.com","script":"https://pub.com/app.js","method":"beacon"}"#;
    let (_, primary_body) = http(primary.local_addr(), "POST", "/v1/decisions", query);
    assert!(
        primary_body.contains(r#""action":"block""#),
        "{primary_body}"
    );
    for (i, replica) in fleet.iter().enumerate() {
        let (_, replica_body) = http(replica.local_addr(), "POST", "/v1/decisions", query);
        assert_eq!(
            primary_body, replica_body,
            "replica {i} diverged after drift"
        );
        // The drift arrived as a delta: each replica bootstrapped once, at
        // startup, and the second one followed the first's ring.
        assert_eq!(
            gauges(replica).bootstraps(),
            1,
            "replica {i} re-bootstrapped"
        );
        println!(
            "replica {i} caught up: version {}, bootstraps {}",
            gauges(replica).applied_version(),
            gauges(replica).bootstraps()
        );
    }

    // 5. Replicas are read-only: mutations conflict, pointing at the
    //    primary.
    let (status, detail) = http(fleet[0].local_addr(), "POST", "/v1/commit", "");
    assert_eq!(status, 409);
    println!("replica refuses mutation: 409 {detail}");

    for replica in fleet {
        replica.shutdown();
    }
    primary.shutdown();
    println!("fleet drained and shut down cleanly.");
}
