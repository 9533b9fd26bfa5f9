//! Determinism of the parallel execution engine: a study run on many worker
//! threads must be indistinguishable from a single-threaded run — same crawl
//! database, same labels, same hierarchy. This is the
//! property that makes the `workers` knob safe to turn all the way up.

use trackersift_suite::prelude::*;

fn study(workers: usize) -> Study {
    Study::run(
        StudyConfig::small()
            .with_sites(80)
            .with_seed(99)
            .with_threads(workers),
    )
}

#[test]
fn parallel_study_matches_single_threaded_study() {
    let sequential = study(1);
    let parallel = study(8);

    assert_eq!(parallel.database, sequential.database);
    assert_eq!(parallel.requests, sequential.requests);
    assert_eq!(parallel.label_stats, sequential.label_stats);
    assert_eq!(parallel.hierarchy, sequential.hierarchy);
}

#[test]
fn parallel_labeling_matches_sequential_labeling() {
    let corpus = CorpusGenerator::generate(&CorpusProfile::small().with_sites(60), 7);
    let db = CrawlCluster::new(ClusterConfig::sequential()).crawl(&corpus);
    let engine = websim::filter_rules::engine_for(&corpus.ecosystem);
    let labeler = Labeler::new(&engine);

    let (sequential_requests, sequential_stats) = labeler.label_database(&db);
    for workers in [2, 4, 8] {
        let (parallel_requests, parallel_stats) = labeler.label_database_parallel(&db, workers);
        assert_eq!(parallel_requests, sequential_requests, "{workers} workers");
        assert_eq!(parallel_stats, sequential_stats, "{workers} workers");
    }
}

#[test]
fn worker_count_does_not_leak_into_analyses() {
    let sequential = study(1);
    let parallel = study(6);
    assert_eq!(
        parallel.callstack_analysis(),
        sequential.callstack_analysis()
    );
    assert_eq!(parallel.surrogates(), sequential.surrogates());
    assert_eq!(
        parallel.flat_classification(Granularity::Method),
        sequential.flat_classification(Granularity::Method)
    );
}
