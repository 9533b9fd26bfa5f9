//! Concurrent serving walkthrough: train once, split the sifter into a
//! `SifterWriter` + cloneable lock-free `SifterReader` handles, then serve
//! verdicts from several threads while the writer keeps ingesting and
//! committing — the read-dominated deployment loop of a content blocker or
//! proxy enforcement point.
//!
//! ```sh
//! cargo run --release --example concurrent_serving
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};
use trackersift_suite::prelude::*;

fn main() {
    // 1. Train on a crawl and split: the writer keeps the incremental
    //    dirty-set machinery, the reader handle clones per serving thread.
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
    let (mut writer, reader) = sifter.into_concurrent();
    println!(
        "Trained on {} requests; published table version {}.",
        reader.pin().committed(),
        reader.version(),
    );

    // 2. Serve from 4 threads while the writer ingests the live stream in
    //    batches. Each batch holds one pin on one immutable table, so it
    //    always reflects exactly one committed state — commits land
    //    atomically between batches, never inside one.
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    thread::scope(|scope| {
        let mut workers = Vec::new();
        for _ in 0..4 {
            let reader = reader.clone(); // one lock-free handle per thread
            let stop = &stop;
            let queries: Vec<DecisionRequest<'_>> =
                live.iter().map(DecisionRequest::from_labeled).collect();
            workers.push(scope.spawn(move || {
                let mut served = 0u64;
                let mut blocked = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let pin = reader.pin();
                    for query in &queries {
                        blocked += u64::from(pin.verdict(query).should_block());
                    }
                    served += queries.len() as u64;
                }
                (served, blocked)
            }));
        }

        // The writer thread: observe + commit, verdicts flip atomically.
        for chunk in live.chunks(500) {
            writer.observe_all(chunk);
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

        let mut served = 0u64;
        let mut blocked = 0u64;
        for worker in workers {
            let (s, b) = worker.join().expect("reader thread");
            served += s;
            blocked += b;
        }
        let elapsed = start.elapsed();
        println!(
            "\n4 readers served {served} verdicts ({blocked} block) in {elapsed:.2?} \
             ({:.0} verdicts/sec aggregate) while {} commits published.",
            served as f64 / elapsed.as_secs_f64().max(1e-9),
            writer.sifter().commits(),
        );
    });

    // 3. The final concurrent state is exactly what a batch retrain over
    //    everything would produce.
    let mut scratch = Sifter::builder()
        .thresholds(study.config.thresholds)
        .build();
    scratch.observe_all(&study.requests);
    scratch.commit();
    assert_eq!(writer.sifter().hierarchy(), scratch.hierarchy());
    println!("Concurrent ingestion == from-scratch classification: verified.");
}
