//! Continuous operation end to end: an evolving websim web behind a
//! scheduler-attached verdict server. Each `POST /v1/tick` mutates the
//! ecosystem (CDN rotation, path rotation, pixel emergence), re-crawls it
//! through the serving writer, and commits — and the resulting drift is
//! fetched back over `GET /v1/revisions?diff=a..b` and asserted
//! byte-identical to an identically-seeded in-process run.
//!
//! ```sh
//! cargo run --release --example continuous_recrawl
//! ```

use trackersift_suite::prelude::*;
use trackersift_suite::trackersift::{diff_revisions, frames};
use trackersift_suite::trackersift_server::client::Client;

const SEED: u64 = 7;
const SITES: usize = 30;
const EPOCHS: u64 = 5;

fn scheduler() -> Scheduler {
    Scheduler::new(
        SchedulerConfig::new(SEED)
            .with_sites(SITES)
            .with_mutation(MutationConfig::churny())
            .with_keying(ScriptKeying::Fingerprint),
    )
}

fn main() {
    // 1. The in-process twin: the same seed ticked directly against a
    //    writer, no server involved. This is the ground truth the wire
    //    surface is checked against.
    let mut twin = scheduler();
    let (mut twin_writer, _twin_reader) = twin.sifter_pair();
    for _ in 0..EPOCHS {
        twin.tick(&mut twin_writer);
    }

    // 2. The served run: an identical scheduler attached to the verdict
    //    server, driven entirely over the wire.
    let driver = scheduler();
    let (writer, _reader) = driver.sifter_pair();
    let server =
        VerdictServer::start_with_scheduler(writer, ServerConfig::ephemeral(), Box::new(driver))
            .expect("start verdict server with scheduler");
    let addr = server.local_addr();
    println!("Verdict server with scheduler listening on http://{addr}");

    let mut client = Client::connect(addr);
    for _ in 0..EPOCHS {
        let (status, body) = client.request("POST", "/v1/tick", None);
        assert_eq!(status, 200, "{body}");
        println!("POST /v1/tick -> {body}");
    }

    // 3. The full revision ring over the wire is byte-identical to the
    //    twin's — corpus evolution, crawl order, and commit folding all
    //    replay exactly from the seed.
    let (status, ring) = client.request("GET", "/v1/revisions", None);
    assert_eq!(status, 200);
    let local_ring =
        frames::revision_list_value(twin_writer.published_version(), twin_writer.revisions())
            .render();
    assert_eq!(
        ring, local_ring,
        "served ring must equal the in-process ring"
    );
    println!(
        "GET /v1/revisions -> {} bytes, byte-identical to the in-process ring",
        ring.len()
    );

    // 4. Commit-level drift between any two revisions, also byte-exact.
    let newest = twin_writer.published_version();
    let oldest = newest - EPOCHS + 1;
    let expected = diff_revisions(twin_writer.revisions(), oldest, newest).expect("local diff");
    let target = format!("/v1/revisions?diff={oldest}..{newest}");
    let (status, diff) = client.request("GET", &target, None);
    assert_eq!(status, 200);
    assert_eq!(diff, frames::revision_diff_value(&expected).render());
    println!(
        "GET {target} -> {} changes across {EPOCHS} epochs, byte-identical to diff_revisions()",
        expected.changes().len()
    );

    // 5. The typed client decodes the binary framing of the same diff, and
    //    the scheduler's gauges surface in /v1/stats.
    let typed = client
        .fetch_revision_diff(oldest, newest)
        .expect("typed diff");
    // The frame carries the span and its changes, not the plans it touched.
    assert_eq!(
        frames::encode_revision_diff(&typed),
        frames::encode_revision_diff(&expected)
    );
    let (status, stats) = client.request("GET", "/v1/stats", None);
    assert_eq!(status, 200);
    assert!(stats.contains("\"scheduler\":"), "{stats}");
    println!("GET /v1/stats carries the scheduler section");

    server.shutdown();
    println!("Server drained and shut down cleanly.");
}
