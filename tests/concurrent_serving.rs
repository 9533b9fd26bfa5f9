//! Integration tests of the concurrent serving split: atomic publication
//! under real thread contention, and reader/single-threaded equivalence.
//!
//! The load-bearing properties:
//!
//! * **Atomic publication, no torn reads** — a reader pins one table per
//!   batch, and every served verdict must equal the sequential sifter's
//!   verdict *at the pinned table's version*: never a mix of pre- and
//!   post-commit state, never a state that no commit produced.
//! * **Reader ≡ Sifter** — after every commit, a `SifterReader` answers
//!   byte-identically to a single-threaded `Sifter` fed the same stream.

use crawler::StackFrame;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use trackersift::LabeledRequest;
use trackersift_suite::prelude::*;

/// A synthetic labeled request drawn from small key pools (mirrors the
/// generator in `property_based.rs`), so streams collide enough to produce
/// tracking, functional, and mixed resources at every granularity.
fn observation(
    domain: usize,
    host: usize,
    script: usize,
    method: usize,
    tracking: bool,
) -> LabeledRequest {
    let hostname: Arc<str> = format!("h{host}.d{domain}.com").into();
    let script: crawler::Text = format!("https://pub.com/s{script}.js").into();
    let method: crawler::Text = format!("m{method}").into();
    LabeledRequest {
        request_id: 0,
        top_level_url: "https://www.pub.com/".into(),
        url: format!("https://{hostname}/x").into(),
        domain: format!("d{domain}.com").into(),
        hostname,
        resource_type: ResourceType::Xhr,
        initiator_script: script.clone(),
        initiator_method: method.clone(),
        stack: vec![StackFrame::new(script, method)].into(),
        label: if tracking {
            RequestLabel::Tracking
        } else {
            RequestLabel::Functional
        },
    }
}

/// Deterministic observation batches from a splitmix-style stream.
fn batches(count: usize, per_batch: usize, mut seed: u64) -> Vec<Vec<LabeledRequest>> {
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..count)
        .map(|_| {
            (0..per_batch)
                .map(|_| {
                    let r = next();
                    observation(
                        (r % 5) as usize,
                        ((r >> 8) % 3) as usize,
                        ((r >> 16) % 5) as usize,
                        ((r >> 24) % 4) as usize,
                        (r >> 32) & 1 == 1,
                    )
                })
                .collect()
        })
        .collect()
}

/// Every distinct attribution tuple the pools can produce — the probe set
/// the stress test serves on every iteration.
fn probe_pool() -> Vec<LabeledRequest> {
    let mut probes = Vec::new();
    for domain in 0..5 {
        for host in 0..3 {
            for script in 0..5 {
                for method in 0..4 {
                    probes.push(observation(domain, host, script, method, false));
                }
            }
        }
    }
    probes
}

/// N reader threads serve the full probe set in a loop while the writer
/// interleaves apply+commit. Every batch of served verdicts must equal
/// the sequential classification at exactly the version the batch pinned
/// (atomic publication: pre- or post-commit state, never a torn mix), and
/// the versions each thread observes must be monotone.
#[test]
fn stress_readers_only_observe_whole_commits() {
    const READERS: usize = 4;
    let thresholds = Thresholds::new(1.0);
    let stream = batches(30, 40, 2021);
    let probes = probe_pool();

    // Sequential mirror: the expected probe verdicts after each commit.
    let mut mirror = Sifter::builder().thresholds(thresholds).build();
    let mut expected: Vec<Vec<Verdict>> = Vec::with_capacity(stream.len() + 1);
    let probe_queries: Vec<DecisionRequest<'_>> =
        probes.iter().map(DecisionRequest::from_labeled).collect();
    let sweep = |table: VerdictTable| -> Vec<Verdict> {
        probe_queries.iter().map(|q| table.verdict(q)).collect()
    };
    expected.push(sweep(mirror.verdict_table()));
    for batch in &stream {
        mirror.apply_batch(batch.iter().map(ObservationRef::from));
        mirror.commit();
        expected.push(sweep(mirror.verdict_table()));
    }

    // Concurrent run over the identical stream.
    let (mut writer, reader) = Sifter::builder().thresholds(thresholds).build_concurrent();
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        let mut workers = Vec::new();
        for _ in 0..READERS {
            let reader = reader.clone();
            let stop = &stop;
            let probes = &probes;
            let expected = &expected;
            workers.push(scope.spawn(move || {
                let mut served_batches = 0usize;
                let mut last_version = 0u64;
                let queries: Vec<DecisionRequest<'_>> =
                    probes.iter().map(DecisionRequest::from_labeled).collect();
                let mut verdicts = Vec::new();
                loop {
                    // Acquire pairs with the writer's Release store below,
                    // so `done == true` happens-after the final publish and
                    // the last sweep is guaranteed to pin the final table.
                    let done = stop.load(Ordering::Acquire);
                    // One pin covers the whole probe sweep, so the sweep
                    // must match one committed state exactly.
                    let pin = reader.pin();
                    let version = pin.version();
                    assert!(
                        version >= last_version,
                        "published versions must be monotone per reader"
                    );
                    last_version = version;
                    verdicts.clear();
                    for query in &queries {
                        verdicts.push(pin.verdict(query));
                    }
                    drop(pin);
                    assert_eq!(
                        &verdicts, &expected[version as usize],
                        "verdicts served at version {version} do not match the \
                         sequential classification at that version"
                    );
                    served_batches += 1;
                    if done {
                        return (served_batches, last_version);
                    }
                    thread::yield_now();
                }
            }));
        }

        for batch in &stream {
            writer.apply_batch(batch.iter().map(ObservationRef::from));
            writer.commit();
            // Give the (possibly single-core) scheduler a chance to run
            // readers between commits so versions actually interleave.
            thread::sleep(Duration::from_micros(500));
        }
        stop.store(true, Ordering::Release);

        for worker in workers {
            let (served_batches, last_version) = worker.join().expect("reader thread panicked");
            assert!(served_batches > 0, "every reader must have served");
            // The final sweep ran with the stop flag set, after the last
            // commit was published.
            assert_eq!(last_version, stream.len() as u64);
        }
    });

    // And the writer's final state equals the sequential mirror's.
    assert_eq!(writer.sifter().hierarchy(), mirror.hierarchy());
}

/// Same shape as the verdict stress test, but for the enforcement layer:
/// reader threads serve whole *decision* sweeps (surrogate payloads
/// included) from one pin while the writer interleaves observe+commit.
/// Every sweep must equal the sequential sifter's exported-table decisions at
/// exactly the pinned table's version — a decision served during a
/// `commit()` always reflects one committed table, never a torn mix and
/// never a state no commit produced.
#[test]
fn stress_decisions_match_one_committed_version() {
    const READERS: usize = 3;
    let thresholds = Thresholds::new(1.0);
    let stream = batches(20, 40, 4242);
    let probes = probe_pool();

    // Sequential mirror: expected decisions after each commit.
    let mut mirror = Sifter::builder().thresholds(thresholds).build();
    let probe_queries: Vec<DecisionRequest<'_>> = probes
        .iter()
        .map(|probe| {
            DecisionRequest::new(
                &probe.domain,
                &probe.hostname,
                &probe.initiator_script,
                &probe.initiator_method,
            )
        })
        .collect();
    let mut expected: Vec<Vec<Decision>> = Vec::with_capacity(stream.len() + 1);
    let sweep = |table: VerdictTable| -> Vec<Decision> {
        probe_queries.iter().map(|q| table.decide(q)).collect()
    };
    expected.push(sweep(mirror.verdict_table()));
    for batch in &stream {
        mirror.apply_batch(batch.iter().map(ObservationRef::from));
        mirror.commit();
        expected.push(sweep(mirror.verdict_table()));
    }
    // The pools are small and collide hard, so surrogates must actually
    // appear somewhere in the schedule for this test to mean anything.
    assert!(
        expected
            .iter()
            .flatten()
            .any(|decision| matches!(decision, Decision::Surrogate(_))),
        "stress schedule never produced a surrogate decision"
    );

    let (mut writer, reader) = Sifter::builder().thresholds(thresholds).build_concurrent();
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        let mut workers = Vec::new();
        for _ in 0..READERS {
            let reader = reader.clone();
            let stop = &stop;
            let probes = &probes;
            let expected = &expected;
            workers.push(scope.spawn(move || {
                let queries: Vec<DecisionRequest<'_>> = probes
                    .iter()
                    .map(|probe| {
                        DecisionRequest::new(
                            &probe.domain,
                            &probe.hostname,
                            &probe.initiator_script,
                            &probe.initiator_method,
                        )
                    })
                    .collect();
                let mut sweeps = 0usize;
                loop {
                    let done = stop.load(Ordering::Acquire);
                    // One pin covers the whole decision sweep.
                    let pin = reader.pin();
                    let version = pin.version();
                    let decisions: Vec<Decision> =
                        queries.iter().map(|query| pin.decide(query)).collect();
                    drop(pin);
                    assert_eq!(
                        &decisions, &expected[version as usize],
                        "decisions served at version {version} do not match the \
                         sequential enforcement at that version"
                    );
                    sweeps += 1;
                    if done {
                        return sweeps;
                    }
                    thread::yield_now();
                }
            }));
        }

        for batch in &stream {
            writer.apply_batch(batch.iter().map(ObservationRef::from));
            writer.commit();
            thread::sleep(Duration::from_micros(500));
        }
        stop.store(true, Ordering::Release);
        for worker in workers {
            assert!(worker.join().expect("decision reader panicked") > 0);
        }
    });
    assert_eq!(writer.sifter().hierarchy(), mirror.hierarchy());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every commit, `SifterReader` verdicts are byte-identical to the
    /// `verdict_table()` of a single-threaded `Sifter` fed the same
    /// observe/commit schedule.
    #[test]
    fn reader_verdicts_are_byte_identical_to_the_sifter(
        picks in prop::collection::vec((0usize..5, 0usize..3, 0usize..5, 0usize..4, 0u64..2), 1..120),
        commit_every in 1usize..10,
        threshold in 0.5f64..3.0,
    ) {
        let thresholds = Thresholds::new(threshold);
        let observations: Vec<LabeledRequest> = picks
            .iter()
            .map(|&(d, h, s, m, label)| observation(d, h, s, m, label == 1))
            .collect();
        let queries: Vec<DecisionRequest<'_>> =
            observations.iter().map(DecisionRequest::from_labeled).collect();

        let mut sifter = Sifter::builder().thresholds(thresholds).build();
        let (mut writer, reader) = Sifter::builder().thresholds(thresholds).build_concurrent();
        for (i, request) in observations.iter().enumerate() {
            sifter.apply(request.into());
            writer.apply(request.into());
            if (i + 1) % commit_every == 0 || i + 1 == observations.len() {
                let sequential_stats = sifter.commit();
                let concurrent_stats = writer.commit();
                prop_assert_eq!(sequential_stats, concurrent_stats);
                let table = sifter.verdict_table();
                let pin = reader.pin();
                let sequential: Vec<Verdict> = queries.iter().map(|q| table.verdict(q)).collect();
                let concurrent: Vec<Verdict> = queries.iter().map(|q| pin.verdict(q)).collect();
                prop_assert_eq!(
                    format!("{sequential:?}").into_bytes(),
                    format!("{concurrent:?}").into_bytes(),
                    "reader and sifter verdicts must render to identical bytes"
                );
                prop_assert_eq!(pin.version(), sifter.commits());
                prop_assert_eq!(pin.committed(), sifter.ingest_stats().committed);
            }
        }
        prop_assert_eq!(writer.sifter().hierarchy(), sifter.hierarchy());
    }
}
