//! Serving walkthrough: build a `Sifter` once, persist its trained state,
//! reload it in a "fresh process", query verdicts in bulk, and keep
//! ingesting new observations incrementally — the deployment loop the
//! paper motivates for a content blocker or proxy.
//!
//! ```sh
//! cargo run --release --example serve_verdicts
//! ```

use std::time::Instant;
use trackersift_suite::prelude::*;

fn main() {
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
    sifter.observe_all(historical);
    sifter.commit();
    // One consolidated stats struct — the same source of truth the verdict
    // server's /v1/stats endpoint serializes.
    let stats = sifter.service_stats();
    println!(
        "Trained on {} requests: {} domains / {} hostnames / {} scripts / {} methods committed.",
        stats.ingest.committed,
        stats.resources[Granularity::Domain.index()],
        stats.resources[Granularity::Hostname.index()],
        stats.resources[Granularity::Script.index()],
        stats.resources[Granularity::Method.index()],
    );

    // 2. Snapshot: export the trained state (versioned JSON through the
    //    crawl codec) exactly as a long-running service would on shutdown.
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

    // 3. Reload: a fresh process restores the snapshot and serves
    //    immediately — no re-crawl, no re-label, bitwise-identical state.
    let text = std::fs::read_to_string(&path).expect("read snapshot");
    let reloaded = SifterSnapshot::parse(&text).expect("parse snapshot");
    let mut server = Sifter::builder().restore(&reloaded).expect("restore");
    assert_eq!(server.hierarchy(), sifter.hierarchy());
    println!("Restored: {} observations, serving.", server.observed());

    // 4. Query: export the committed state as a `VerdictTable` — the one
    //    type that answers verdicts and decisions — and ask it in bulk over
    //    the live traffic. The per-verdict walk is allocation-free.
    let queries: Vec<DecisionRequest<'_>> =
        live.iter().map(DecisionRequest::from_labeled).collect();
    let table = server.verdict_table();
    let start = Instant::now();
    let verdicts: Vec<Verdict> = queries.iter().map(|query| table.verdict(query)).collect();
    let elapsed = start.elapsed();
    let blocked = verdicts.iter().filter(|v| v.should_block()).count();
    let unknown = verdicts.iter().filter(|v| **v == Verdict::Unknown).count();
    println!(
        "\nServed {} verdicts in {:.2?} ({:.0} verdicts/sec): {} block, {} unknown.",
        verdicts.len(),
        elapsed,
        verdicts.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        blocked,
        unknown,
    );

    // 5. Ingest: feed the live stream back as observations and commit. The
    //    commit reclassifies only the dirty slice of the hierarchy, and the
    //    result is provably identical to retraining from scratch.
    server.observe_all(live);
    let start = Instant::now();
    let stats = server.commit();
    println!(
        "\nIncremental commit of {} observations reclassified {} resources in {:.2?}.",
        stats.observations,
        stats.reclassified(),
        start.elapsed(),
    );
    let mut scratch = Sifter::builder()
        .thresholds(study.config.thresholds)
        .build();
    scratch.observe_all(&study.requests);
    scratch.commit();
    assert_eq!(server.hierarchy(), scratch.hierarchy());
    assert_eq!(server.hierarchy(), study.hierarchy);
    println!("observe + commit == from-scratch classification: verified.");

    // 6. A table exported now reflects the new evidence.
    let verdict = server.verdict_table().verdict(&queries[0]);
    println!("\nFirst live request now resolves to: {verdict}");

    // 7. Go concurrent: split the sifter into a writer and lock-free reader
    //    handles, so ingestion no longer blocks serving at all (see
    //    examples/concurrent_serving.rs for the full multi-threaded loop).
    let (mut writer, reader) = server.into_concurrent();
    writer.observe_all(live);
    writer.commit();
    let stats = writer.service_stats();
    println!(
        "Concurrent split: reader serves table version {} ({} observations) lock-free.",
        reader.version(),
        stats.ingest.committed,
    );
    assert_eq!(reader.version(), stats.version);

    // 8. Enforce: the decision layer composes the verdict, the surrogate
    //    plan for mixed scripts, and the filter-list backstop into the one
    //    action a blocker takes per request. Holding one pin answers the
    //    whole batch from a single committed state.
    //    `examples/verdict_server.rs` serves exactly these decisions over
    //    HTTP.
    let pin = reader.pin();
    let decisions: Vec<Decision> = queries.iter().map(|query| pin.decide(query)).collect();
    let blocked = decisions
        .iter()
        .filter(|decision| matches!(decision, Decision::Block(_)))
        .count();
    let surrogates = decisions
        .iter()
        .filter(|decision| matches!(decision, Decision::Surrogate(_)))
        .count();
    println!(
        "Decisions over the live slice: {} block / {} surrogate / {} other.",
        blocked,
        surrogates,
        decisions.len() - blocked - surrogates,
    );
}
