//! The batch half of the chain — websim corpus → crawl → filter-list
//! labels — called stage by stage through the same public functions
//! `Study::run` calls, with a span around each so the traced run can say
//! where an iteration's time went.

use crate::report::WorkloadResult;
use crate::trace::{self, Tracer};
use crawler::{ClusterConfig, CrawlCluster, CrawlDatabase};
use filterlist::FilterEngine;
use trackersift::{CacheStats, LabelStats, LabeledRequest, Labeler};
use websim::{filter_rules, CorpusGenerator, CorpusProfile, WebCorpus};

/// A generated corpus with the filter engine compiled for its ecosystem.
pub struct Inputs {
    pub corpus: WebCorpus,
    pub engine: FilterEngine,
}

pub fn generate(profile: &CorpusProfile, seed: u64, tracer: &mut Tracer, op: u64) -> Inputs {
    let (corpus, _) = tracer.time("websim.generate", op, || {
        CorpusGenerator::generate(profile, seed)
    });
    let (engine, _) = tracer.time("filterlist.engine_build", op, || {
        filter_rules::engine_for(&corpus.ecosystem)
    });
    Inputs { corpus, engine }
}

/// One sequential crawl (workers = 1: the process is pinned to one CPU).
pub fn crawl(corpus: &WebCorpus, tracer: &mut Tracer, op: u64) -> CrawlDatabase {
    tracer
        .time("crawler.crawl", op, || {
            CrawlCluster::new(ClusterConfig::sequential()).crawl(corpus)
        })
        .0
}

/// Label a crawl with a fresh memo cache, as every study run does.
pub fn label(
    engine: &FilterEngine,
    database: &CrawlDatabase,
    tracer: &mut Tracer,
    op: u64,
) -> (Vec<LabeledRequest>, LabelStats, CacheStats) {
    tracer
        .time("core.label", op, || {
            let labeler = Labeler::new(engine);
            let (requests, stats) = labeler.label_database(database);
            (requests, stats, labeler.cache_stats())
        })
        .0
}

/// Corpus, engine and labeled requests — what the serving workloads train
/// and draw their queries from.
pub struct Labeled {
    pub engine: FilterEngine,
    pub requests: Vec<LabeledRequest>,
}

pub fn crawl_and_label(
    profile: &CorpusProfile,
    seed: u64,
    tracer: &mut Tracer,
    op: u64,
) -> Labeled {
    let Inputs { corpus, engine } = generate(profile, seed, tracer, op);
    let database = crawl(&corpus, tracer, op);
    let (requests, _, _) = label(&engine, &database, tracer, op);
    Labeled { engine, requests }
}

/// Per-layer set-up costs every workload can see: self time of the
/// generation and engine-build spans.
pub fn report_setup_layers(tracer: &Tracer, result: &mut WorkloadResult) {
    let totals = trace::totals(tracer.spans());
    let self_ms = |name: &str| totals.get(name).map_or(0.0, trace::Total::self_ms);
    result.layer("websim.generate_ms", self_ms("websim.generate"));
    result.layer(
        "filterlist.engine_build_ms",
        self_ms("filterlist.engine_build"),
    );
}
