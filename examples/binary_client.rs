//! The binary protocol end to end: train a sifter, start the verdict
//! server, complete the `GET /v1/keys` interning handshake, and serve
//! decisions over the length-prefixed binary framing — id-form singles,
//! a mixed batch, and the stale-epoch conflict a restore provokes.
//!
//! ```sh
//! cargo run --release --example binary_client
//! ```

use trackersift_suite::prelude::*;
use trackersift_suite::trackersift::LabeledRequest;
use trackersift_suite::trackersift_server::client::Client;
use trackersift_suite::trackersift_server::wire::{self, BinaryKeys, BinaryRecord};

fn main() {
    // 1. Train on a synthetic study and put the verdict server in front.
    let study = Study::run(StudyConfig {
        profile: CorpusProfile::small().with_sites(300),
        seed: 11,
        ..StudyConfig::default()
    });
    let mut sifter = Sifter::builder()
        .thresholds(study.config.thresholds)
        .build();
    sifter.apply_batch(study.requests.iter().map(ObservationRef::from));
    sifter.commit();
    let (writer, _reader) = sifter.into_concurrent();
    let server = VerdictServer::start(writer, ServerConfig::ephemeral()).expect("start server");
    let addr = server.local_addr();
    println!("Verdict server listening on http://{addr}");

    // 2. The handshake: one GET /v1/keys turns every interned string into
    //    a dense u32 id, scoped by the key epoch.
    let mut client = Client::connect(addr);
    let keys = client.fetch_keys();
    println!(
        "GET /v1/keys -> {} interned keys (epoch {}, version {})",
        keys.len(),
        keys.epoch,
        keys.version
    );

    // 3. Id-form single decisions: four u32s on the wire per request, a
    //    fixed 15-byte frame back for every non-surrogate verdict.
    let queries: Vec<&LabeledRequest> = study.requests.iter().take(5).collect();
    for request in &queries {
        let record = BinaryRecord {
            keys: BinaryKeys::Ids {
                domain: keys.id_of(&request.domain).unwrap_or(u32::MAX),
                hostname: keys.id_of(&request.hostname).unwrap_or(u32::MAX),
                script: keys.id_of(&request.initiator_script).unwrap_or(u32::MAX),
                method: keys.id_of(&request.initiator_method).unwrap_or(u32::MAX),
            },
            context: None,
        };
        let (version, decision) = client.decide_binary_single(keys.epoch, &record);
        println!(
            "  {} @ {} -> {decision} (table v{version})",
            request.initiator_method, request.hostname
        );
    }

    // 4. A batch: every record decided against one pinned table version.
    let records: Vec<BinaryRecord<'_>> = queries
        .iter()
        .map(|request| BinaryRecord {
            keys: BinaryKeys::Strings {
                domain: &request.domain,
                hostname: &request.hostname,
                script: &request.initiator_script,
                method: &request.initiator_method,
            },
            context: None,
        })
        .collect();
    let (version, decisions) = client.decide_binary_batch(keys.epoch, &records);
    println!(
        "POST /v1/decisions:batch -> {} decisions from table v{version}",
        decisions.len()
    );

    // 5. Restoring a snapshot re-interns the keys: the old epoch's ids
    //    are rejected with 409 Conflict, never silently misresolved.
    let (status, snapshot) = client.request("GET", "/v1/snapshot", None);
    assert_eq!(status, 200);
    let (status, _) = client.request("PUT", "/v1/snapshot", Some(&snapshot));
    assert_eq!(status, 200);
    let stale = BinaryRecord {
        keys: BinaryKeys::Ids {
            domain: 0,
            hostname: 0,
            script: 0,
            method: 0,
        },
        context: None,
    };
    let frame = wire::encode_binary_single(keys.epoch, &stale);
    let (status, _) = client.request_bytes(
        "POST",
        "/v1/decisions",
        Some(wire::BINARY_CONTENT_TYPE),
        &frame,
    );
    println!("stale-epoch id request after restore -> HTTP {status}");
    assert_eq!(status, 409, "stale epoch must conflict");

    // 6. Re-handshake and the id path works again.
    let mut client = Client::connect(addr);
    let refreshed = client.fetch_keys();
    assert!(refreshed.epoch > keys.epoch);
    println!(
        "re-fetched keys at epoch {} — binary id path live again",
        refreshed.epoch
    );

    server.shutdown();
    println!("Server drained and shut down cleanly.");
}
