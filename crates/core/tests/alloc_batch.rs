//! What the batch path costs on the heap. A page load writes its strings
//! into one text buffer and its call sites' stacks into one frame buffer,
//! and its requests hold spans of the two. Labeling copies no string and no
//! stack — a labeled request points at the strings and the stack its crawl
//! record already holds — so a labeled request costs a share of the crawl's
//! few per-host keys; and the classifier allocates per distinct resource
//! key, never per request. The key store allocates per arena chunk and per
//! table growth, never per key, and freezing it copies a fixed number of
//! buffers. Training a sifter allocates when one of its vectors grows and
//! for each method seen on more than one hostname, never per key. Exporting
//! a trained sifter's snapshot costs a handful of buffers, never one per key
//! or row. A commit on a re-crawled web costs a few buffers per surrogate
//! plan it rebuilds, never a JSON tree per plan.

use crawler::{ClusterConfig, CrawlCluster, CrawlDatabase};
use filterlist::FilterEngine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use trackersift::{
    HierarchicalClassifier, KeyInterner, LabeledRequest, Labeler, ObservationRef, Sifter,
    SifterWriter, Thresholds,
};
use websim::{
    filter_rules, fingerprint_key, CorpusGenerator, CorpusProfile, EcosystemMutator,
    MutationConfig, WebCorpus,
};

// ---------------------------------------------------------------------------
// A counting allocator (the pattern of `crates/server/tests/alloc_free.rs`):
// the counter is thread-local, so tests running concurrently on other
// threads cannot perturb a measurement.
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

/// A crawl of `sites` sites and the filter engine of its ecosystem.
fn crawl(sites: usize) -> (CrawlDatabase, FilterEngine) {
    let corpus = CorpusGenerator::generate(&CorpusProfile::small().with_sites(sites), 2021);
    let db = CrawlCluster::new(ClusterConfig::sequential()).crawl(&corpus);
    (db, filter_rules::engine_for(&corpus.ecosystem))
}

#[test]
fn crawling_costs_at_most_five_allocations_per_page_load() {
    // The study's crawl: 500 sites of the paper profile at seed 2021.
    let sites = 500;
    let corpus = CorpusGenerator::generate(&CorpusProfile::paper().with_sites(sites), 2021);
    // Sequential, so every page load runs on this thread and is counted.
    let cluster = CrawlCluster::new(ClusterConfig::sequential());
    let (allocations, db) = allocations_during(|| cluster.crawl(&corpus));
    assert_eq!(db.site_count(), sites);
    assert!(
        db.total_requests() > 25_000,
        "{} captured",
        db.total_requests()
    );
    // Per load: its text buffer and its frame buffer, each with its `Arc`,
    // and its record vector. Per crawl: the growth of the buffers every
    // load reuses, and the site vector. A request URL, a stack per call
    // site and a string per script and method of every load cost 64,722
    // (2.49 a captured request); a stack per request, about 3.8 a request.
    assert!(
        allocations <= 5 * sites as u64 + 128,
        "{allocations} allocations for {sites} page loads"
    );
}

#[test]
fn labeling_a_crawl_costs_at_most_one_allocation_per_five_requests() {
    let (db, engine) = crawl(60);
    let labeler = Labeler::new(&engine);
    // The crawl is warm — every string it will lend out is allocated — and
    // the first pass shows the labeler keeps nothing that a second could
    // reuse: both cost the same.
    let (first, (requests, _)) = allocations_during(|| labeler.label_database(&db));
    let (second, _) = allocations_during(|| labeler.label_database(&db));
    assert_eq!(first, second);
    assert!(requests.len() > 1_000, "{} labeled", requests.len());
    // The string-copying labeler paid about eleven: seven strings and the
    // frame vector with two more per frame; a frame vector of shared
    // strings, about 1.8; a scratch and host keys per site, about 0.86.
    let per_request = second as f64 / requests.len() as f64;
    assert!(
        per_request <= 0.2,
        "{per_request:.2} allocations per request"
    );
}

#[test]
fn classification_allocates_per_distinct_key_not_per_request() {
    let (db, engine) = crawl(60);
    let (requests, _) = Labeler::new(&engine).label_database(&db);
    let classifier = HierarchicalClassifier::new(Thresholds::paper());
    let (once, hierarchy) = allocations_during(|| classifier.classify(&requests));
    let resources: usize = hierarchy.levels.iter().map(|l| l.resources.len()).sum();

    // Per distinct key: its interned copy, its entry's copy, and for a
    // method the composed label and its two parts — plus the growth of the
    // interner's tables and a handful of vectors per level.
    assert!(
        once <= 6 * resources as u64 + 128,
        "{once} allocations for {resources} resources"
    );
    assert!((once as usize) < requests.len());

    // The same requests three times over: three times the requests at every
    // level, not one key more. Only the per-level vectors grow.
    let tripled: Vec<LabeledRequest> = (0..3).flat_map(|_| requests.iter().cloned()).collect();
    let (thrice, tripled_hierarchy) = allocations_during(|| classifier.classify(&tripled));
    assert_eq!(
        tripled_hierarchy.total_requests(),
        3 * hierarchy.total_requests()
    );
    assert!(
        thrice <= once + 32,
        "{once} allocations for the crawl, {thrice} for three of it"
    );
}

#[test]
fn exporting_a_snapshot_allocates_a_handful_of_buffers() {
    let (db, engine) = crawl(200);
    let (requests, _) = Labeler::new(&engine).label_database(&db);
    let mut sifter = Sifter::builder().thresholds(Thresholds::paper()).build();
    sifter.observe_all(&requests);
    sifter.commit();
    let (allocations, text) = allocations_during(|| sifter.snapshot().to_json_string());
    let snapshot = sifter.snapshot();
    assert!(
        snapshot.key_count() > 1_000,
        "{} keys",
        snapshot.key_count()
    );
    assert!(text.len() > 100_000, "{} bytes", text.len());
    // The key view's three buffers (chunk list, open chunk, spans), three
    // row vectors (hostnames, methods, cells) and the text: no key copy, no
    // vector per row.
    assert!(allocations <= 8, "{allocations} allocations");
}

/// Every key a sifter interns for `requests`: domain, hostname, script,
/// method name and composed method key.
fn intern_all(interner: &mut KeyInterner, requests: &[LabeledRequest]) {
    for request in requests {
        interner.intern(&request.domain);
        interner.intern(&request.hostname);
        interner.intern_method(&request.initiator_script, &request.initiator_method);
    }
}

#[test]
fn interning_allocates_per_chunk_and_table_growth_not_per_key() {
    // 300 sites: the smallest round crawl with over 5,000 keys.
    let (db, engine) = crawl(300);
    let (requests, _) = Labeler::new(&engine).label_database(&db);
    let mut interner = KeyInterner::new();
    let (allocations, ()) = allocations_during(|| intern_all(&mut interner, &requests));
    assert!(interner.len() > 5_000, "{} keys", interner.len());
    assert!(
        allocations <= 64,
        "{allocations} allocations for {} keys",
        interner.len()
    );

    // A freeze copies the same buffers whatever the key count: the chunk
    // list, the open chunk, the spans, the table's tags and slots and the
    // pair cache.
    let (frozen, view) = allocations_during(|| interner.freeze());
    assert_eq!(view.len(), interner.len());
    let mut small = KeyInterner::new();
    intern_all(&mut small, &requests[..1]);
    let (frozen_small, _) = allocations_during(|| small.freeze());
    assert_eq!(frozen, frozen_small);
    assert!(frozen <= 6, "{frozen} allocations per freeze");
}

/// Observe every planned request of `corpus` the way a re-crawl does:
/// script requests as `Url` rows under the script's content fingerprint,
/// document requests under a per-page key.
fn recrawl(corpus: &WebCorpus, writer: &mut SifterWriter) {
    let keys: Vec<(Vec<String>, String)> = corpus
        .websites
        .iter()
        .map(|site| {
            let scripts = site.scripts.iter().map(fingerprint_key).collect();
            (scripts, format!("page:{}", site.hostname))
        })
        .collect();
    let mut rows = Vec::new();
    for (site, (script_keys, page_key)) in corpus.websites.iter().zip(&keys) {
        let source = site.hostname.as_str();
        for (script, key) in site.scripts.iter().zip(script_keys) {
            rows.extend(script.planned_requests().map(|(method_index, request)| {
                let method = &script.methods[method_index].name;
                ObservationRef::url(&request.url, source, request.resource_type, key, method)
            }));
        }
        rows.extend(site.non_script_requests.iter().map(|request| {
            ObservationRef::url(
                &request.url,
                source,
                request.resource_type,
                page_key,
                "html",
            )
        }));
    }
    writer.apply_batch(rows);
}

#[test]
fn a_churny_commit_allocates_per_plan_touched_not_per_tree_node() {
    const EPOCHS: u64 = 4;
    let mut corpus = CorpusGenerator::generate(&CorpusProfile::small().with_sites(200), 2021);
    let (mut writer, _reader) = Sifter::builder()
        .engine(filter_rules::engine_for(&corpus.ecosystem))
        .build_concurrent();
    let mutator = EcosystemMutator::new(2021, MutationConfig::churny());
    recrawl(&corpus, &mut writer);
    for epoch in 1..=EPOCHS {
        writer.commit();
        mutator.advance(&mut corpus, epoch);
        recrawl(&corpus, &mut writer);
    }
    let (allocations, _) = allocations_during(|| writer.commit());
    let plans = writer
        .revisions()
        .last()
        .expect("a revision")
        .plans_touched()
        .len() as u64;
    assert!(plans >= 20, "{plans} plans touched");
    // Per rebuilt plan: its owned strings, and each encoding's buffer and
    // `Arc`. Plus the table's spliced bodies and the commit's vectors. A
    // rendered tree per plan cost about 45 a plan.
    assert!(
        allocations <= 16 * plans + 128,
        "{allocations} allocations for {plans} plans touched"
    );
}

#[test]
fn training_a_sifter_allocates_per_vector_growth_not_per_key() {
    // The study's train: 500 sites of the paper profile at seed 2021.
    let corpus = CorpusGenerator::generate(&CorpusProfile::paper().with_sites(500), 2021);
    let db = CrawlCluster::new(ClusterConfig::sequential()).crawl(&corpus);
    let engine = filter_rules::engine_for(&corpus.ecosystem);
    let (requests, _) = Labeler::new(&engine).label_database(&db);
    let mut sifter = Sifter::builder().thresholds(Thresholds::paper()).build();
    let (allocations, ()) = allocations_during(|| sifter.observe_all(&requests));
    let keys = sifter.snapshot().key_count();
    assert!(keys > 11_000, "{keys} keys");
    // About 25 vectors and tables, each grown a doubling at a time (360
    // allocations), and the cell vector of each method seen on a second
    // hostname (1,413 of 6,255 methods): 1,784. A vector per hostname,
    // script and method and a cell vector per method cost 13,719 (11,619
    // allocations and 2,100 reallocations), one or more per key.
    assert!(
        allocations <= 2_000,
        "{allocations} allocations for {} rows and {keys} keys",
        requests.len()
    );
    // The same rows again find every key, cell and dirty mark in place.
    let (again, ()) = allocations_during(|| sifter.observe_all(&requests));
    assert_eq!(again, 0);
}
