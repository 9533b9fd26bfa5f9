//! Integration tests of the serving API: verdict semantics at study scale,
//! the allocation-free hot-path guarantee, snapshot round-trips, and the
//! apply/commit ≡ from-scratch equivalence on real pipeline output.

mod common;

use common::expected_verdict;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use trackersift_suite::filterlist::hostname_of;
use trackersift_suite::filterlist::RequestScratch;
use trackersift_suite::prelude::*;

// ---------------------------------------------------------------------------
// A counting allocator so the "allocation-free verdict" claim is a test,
// not a comment. The counter is thread-local, so concurrently running
// tests on other threads cannot perturb a measurement.
// ---------------------------------------------------------------------------

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the only addition is a
// thread-local counter bump, which itself never allocates (const-initialised
// TLS).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(|c| c.get());
    let result = f();
    let after = ALLOCATIONS.with(|c| c.get());
    (after - before, result)
}

// ---------------------------------------------------------------------------
// fixtures
// ---------------------------------------------------------------------------

fn study(sites: usize, seed: u64) -> Study {
    Study::run(StudyConfig {
        profile: CorpusProfile::small().with_sites(sites),
        seed,
        ..StudyConfig::default()
    })
}

// ---------------------------------------------------------------------------
// serving semantics at study scale
// ---------------------------------------------------------------------------

#[test]
fn sifter_equals_from_scratch_classification_on_pipeline_output() {
    let study = study(120, 7);
    let sifter = study.sifter();
    assert_eq!(sifter.hierarchy(), study.hierarchy);

    // Splitting the same requests into arbitrary apply/commit batches
    // must converge to the identical committed state.
    let mut incremental = Sifter::builder()
        .thresholds(study.config.thresholds)
        .build();
    for chunk in study.requests.chunks(997) {
        incremental.apply_batch(chunk.iter().map(ObservationRef::from));
        incremental.commit();
    }
    assert_eq!(incremental.hierarchy(), study.hierarchy);
}

#[test]
fn every_trained_request_gets_a_consistent_verdict() {
    let study = study(100, 21);
    let mut sifter = study.sifter();
    let table = sifter.verdict_table();
    let (_writer, reader) = sifter.into_concurrent();
    let hierarchy = &study.hierarchy;

    for request in &study.requests {
        let trained = table.verdict(&DecisionRequest::from_labeled(request));
        assert!(trained.classification().is_some(), "trained request");

        // Each request's expected verdict is derived independently, by
        // following the from-scratch hierarchy level by level — for the
        // trained request and for one probe that falls off the trained
        // hierarchy at each level, through every way of asking: the table,
        // the keyed policy, a reader.
        let (d, h) = (&*request.domain, &*request.hostname);
        let (s, m) = (&*request.initiator_script, &*request.initiator_method);
        let unseen_host = format!("never-seen.{d}");
        for (d, h, s, m) in [
            (d, h, s, m),
            (d, h, s, "neverSeenMethod"),
            (d, h, "https://never-seen.example/s.js", m),
            (d, unseen_host.as_str(), s, m),
            ("never-seen.example", h, s, m),
        ] {
            let query = DecisionRequest::new(d, h, s, m);
            let expected = expected_verdict(hierarchy, d, h, s, m);
            assert_eq!(table.verdict(&query), expected, "{query:?}");
            assert_eq!(reader.verdict(&query), expected, "{query:?}");
            let decision = table.decide_keyed(&table.resolve(&query));
            match expected {
                Verdict::Decided {
                    classification: Classification::Tracking,
                    granularity,
                } => assert_eq!(
                    decision,
                    Decision::Block(DecisionSource::Hierarchy(granularity))
                ),
                Verdict::Decided {
                    classification: Classification::Functional,
                    granularity,
                } => assert_eq!(
                    decision,
                    Decision::Allow(DecisionSource::Hierarchy(granularity))
                ),
                Verdict::Decided {
                    classification: Classification::Mixed,
                    granularity: Granularity::Script | Granularity::Method,
                } => assert_eq!(
                    decision.surrogate().map(|plan| plan.script_url.as_str()),
                    Some(s),
                    "{query:?}"
                ),
                // Mixed above script level or unknown, and no URL to fall
                // back on.
                _ => assert_eq!(decision, Decision::Observe, "{query:?}"),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// the allocation-free hot path
// ---------------------------------------------------------------------------

#[test]
fn verdicts_for_interned_keys_do_not_allocate() {
    let study = study(60, 11);
    let table = study.sifter().verdict_table();
    let queries: Vec<DecisionRequest<'_>> = study
        .requests
        .iter()
        .map(DecisionRequest::from_labeled)
        .collect();
    assert!(!queries.is_empty());

    // Warm pass (nothing should allocate even cold, but keep the
    // measurement honest about e.g. lazily-grown TLS).
    let mut blocked = 0usize;
    for query in &queries {
        blocked += usize::from(table.verdict(query).should_block());
    }

    let (allocations, served) = allocations_during(|| {
        let mut decided = 0usize;
        for _ in 0..3 {
            for query in &queries {
                decided += usize::from(table.verdict(query).classification().is_some());
            }
        }
        decided
    });
    assert_eq!(served, queries.len() * 3, "every query must be decided");
    assert_eq!(
        allocations, 0,
        "VerdictTable::verdict allocated on already-interned keys ({blocked} blocked in warmup)"
    );

    // Unknown keys are also allocation-free (miss on the frozen keys).
    let miss = DecisionRequest::new("never.example", "x.never.example", "s.js", "m");
    let (allocations, verdict) = allocations_during(|| table.verdict(&miss));
    assert_eq!(verdict, Verdict::Unknown);
    assert_eq!(allocations, 0, "unknown-key verdicts must not allocate");
}

#[test]
fn labeling_a_crawl_through_a_warm_scratch_does_not_allocate() {
    // The label stage of the paper-profile study (500 sites, seed 2021):
    // build each request's view in one reused scratch and ask the oracle.
    let study = Study::run(StudyConfig::default().with_sites(500));
    let rows: Vec<(&str, &str, ResourceType)> = study
        .requests
        .iter()
        .map(|request| {
            let page = hostname_of(&request.top_level_url);
            (&*request.url, page, request.resource_type)
        })
        .collect();
    // Some URLs have upper-case bytes, so the lower-case copy is exercised.
    let folded = rows
        .iter()
        .filter(|(url, ..)| url.bytes().any(|b| b.is_ascii_uppercase()))
        .count();
    assert!(folded > 1000, "{folded} URLs with upper-case bytes");

    let engine = &study.engine;
    let label_all = |scratch: &mut RequestScratch| {
        let mut tracking = 0usize;
        for &(url, page, kind) in &rows {
            let view = scratch.view(url, page, kind).expect("a labeled URL parses");
            tracking += usize::from(engine.label_view(&view).is_tracking());
        }
        tracking
    };
    let mut scratch = RequestScratch::new();
    assert_eq!(label_all(&mut scratch), study.label_stats.tracking);
    let (allocations, tracking) = allocations_during(|| label_all(&mut scratch));
    assert_eq!(tracking, study.label_stats.tracking);
    assert_eq!(
        allocations,
        0,
        "RequestScratch::view + label_view allocated over {} warm requests",
        rows.len()
    );
}

// ---------------------------------------------------------------------------
// snapshot round-trips
// ---------------------------------------------------------------------------

#[test]
fn snapshot_round_trip_preserves_bytes_and_verdicts() {
    let base = study(90, 5);
    let mut sifter = base.sifter();

    // Export → parse → re-export: byte-identical JSON.
    let snapshot = sifter.snapshot();
    let text = snapshot.to_json_string();
    let parsed = SifterSnapshot::parse(&text).expect("own snapshot parses");
    assert_eq!(parsed, snapshot);
    assert_eq!(parsed.to_json_string(), text);

    // Restore → identical committed state, verdicts, and re-export bytes.
    let mut restored = Sifter::builder().restore(&parsed).expect("restore");
    assert_eq!(
        restored.ingest_stats().observed,
        sifter.ingest_stats().observed
    );
    assert_eq!(restored.hierarchy(), sifter.hierarchy());
    assert_eq!(restored.snapshot().to_json_string(), text);
    assert_eq!(
        format!("{:?}", restored.hierarchy()).into_bytes(),
        format!("{:?}", sifter.hierarchy()).into_bytes(),
        "restored hierarchy must render to identical bytes"
    );
    let (restored_table, table) = (restored.verdict_table(), sifter.verdict_table());
    for request in &base.requests {
        let query = DecisionRequest::from_labeled(request);
        assert_eq!(restored_table.verdict(&query), table.verdict(&query));
    }

    // And the restored sifter keeps ingesting: train it further and check
    // it still matches a from-scratch sifter over the combined stream.
    let extra = study(30, 99);
    let mut grown = Sifter::builder().restore(&parsed).expect("restore");
    grown.apply_batch(extra.requests.iter().map(ObservationRef::from));
    grown.commit();
    let mut scratch = Sifter::builder().thresholds(base.config.thresholds).build();
    scratch.apply_batch(
        base.requests
            .iter()
            .chain(&extra.requests)
            .map(ObservationRef::from),
    );
    scratch.commit();
    assert_eq!(grown.hierarchy(), scratch.hierarchy());
}

#[test]
fn snapshot_versioning_rejects_foreign_documents() {
    let study = study(20, 2);
    let text = study.sifter().snapshot().to_json_string();

    let future = text.replace("\"version\":1", "\"version\":2");
    assert!(matches!(
        SifterSnapshot::parse(&future),
        Err(SnapshotError::UnsupportedVersion {
            found: 2,
            supported: 1
        })
    ));

    let alien = text.replace("trackersift.sifter", "someone.elses.format");
    assert!(matches!(
        SifterSnapshot::parse(&alien),
        Err(SnapshotError::UnknownFormat(_))
    ));

    // Tampered totals are caught at parse (import) time with a typed
    // error — they never reach restore.
    let snapshot = study.sifter().snapshot();
    let observed = snapshot.observations();
    let tampered = text.replace(
        &format!("\"observed\":{observed}"),
        &format!("\"observed\":{}", observed + 1),
    );
    assert!(matches!(
        SifterSnapshot::parse(&tampered),
        Err(SnapshotError::Corrupt(message)) if message.contains("cells sum")
    ));
}
