//! Parallel crawl orchestration.
//!
//! The paper's crawl ran on a 13-node cluster, each node crawling a disjoint
//! subset of the 100K sites inside its own Docker container, statelessly
//! (all browser state cleared between consecutive page loads). The
//! [`CrawlCluster`] reproduces that shape in-process with a rayon data-parallel
//! map: each site is loaded by its own [`PageLoadSimulator`] (fresh state per
//! page) on a pool sized by [`ClusterConfig::workers`] — the `--threads`-style
//! knob of the pipeline. Each site's request-id space is derived from its rank
//! and results are re-assembled in rank order, so the output is byte-identical
//! regardless of worker count or scheduling — a property the tests assert.

use crate::database::{CrawlDatabase, SiteCrawl};
use crate::page_load::{LoadOptions, PageLoadSimulator};
use rayon::prelude::*;
use websim::{WebCorpus, Website};

/// Configuration for a crawl.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of worker threads ("nodes"). Defaults to the number of
    /// available CPUs, capped at 13 in homage to the paper's cluster.
    pub workers: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ClusterConfig {
            workers: cpus.clamp(1, 13),
        }
    }
}

impl ClusterConfig {
    /// A single-threaded configuration (useful for debugging and as the
    /// reference the parallel runs are compared against).
    pub fn sequential() -> Self {
        ClusterConfig { workers: 1 }
    }

    /// Set the number of workers: the same knob governs the crawl pool and
    /// the parallel labeling stage.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

/// Summary statistics of a finished crawl.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrawlSummary {
    /// Sites crawled.
    pub sites: usize,
    /// Total requests captured.
    pub total_requests: usize,
    /// Script-initiated requests captured.
    pub script_initiated_requests: usize,
    /// Average simulated page load time (ms).
    pub(crate) average_load_time_ms: f64,
    /// Workers used.
    pub workers: usize,
}

/// The parallel crawler.
#[derive(Debug, Clone, Default)]
pub struct CrawlCluster {
    config: ClusterConfig,
}

/// Run `op` on a rayon pool of `workers` threads (0 = the ambient default).
///
/// Shared by the crawl and labeling stages so the degradation policy lives
/// in one place: if pool construction fails (resource exhaustion), `op`
/// runs on the ambient rayon threads rather than aborting.
pub fn with_worker_pool<R>(workers: usize, op: impl FnOnce() -> R) -> R {
    match rayon::ThreadPoolBuilder::new().num_threads(workers).build() {
        Ok(pool) => pool.install(op),
        Err(_) => op(),
    }
}

/// Load one site in a fresh simulator (stateless crawling). The request-id
/// space is partitioned by rank, so ids are globally unique and
/// deterministic.
fn crawl_site(site: &Website, options: &LoadOptions) -> SiteCrawl {
    let mut sim = PageLoadSimulator::new((site.rank as u64) * 1_000_000);
    let result = sim.load_with(site, options);
    SiteCrawl::from_load(site.rank, &site.url, &site.domain, result)
}

impl CrawlCluster {
    /// Create a cluster with the given configuration.
    pub fn new(config: ClusterConfig) -> Self {
        CrawlCluster { config }
    }

    /// Crawl every website in the corpus with no blocking.
    pub fn crawl(&self, corpus: &WebCorpus) -> CrawlDatabase {
        self.crawl_with(corpus, &LoadOptions::unblocked())
    }

    /// Crawl every website under the given blocking options.
    ///
    /// Each site's request ids are derived from its rank, so results do not
    /// depend on scheduling.
    fn crawl_with(&self, corpus: &WebCorpus, options: &LoadOptions) -> CrawlDatabase {
        let workers = self.config.workers.min(corpus.websites.len()).max(1);
        let mut sites: Vec<SiteCrawl> = if workers == 1 {
            corpus
                .websites
                .iter()
                .map(|site| crawl_site(site, options))
                .collect()
        } else {
            with_worker_pool(workers, || {
                corpus
                    .websites
                    .par_iter()
                    .map(|site| crawl_site(site, options))
                    .collect()
            })
        };
        sites.sort_by_key(|s| s.rank);
        CrawlDatabase { sites }
    }

    /// Crawl and also compute summary statistics.
    pub fn crawl_with_summary(&self, corpus: &WebCorpus) -> (CrawlDatabase, CrawlSummary) {
        let db = self.crawl(corpus);
        let summary = CrawlSummary {
            sites: db.site_count(),
            total_requests: db.total_requests(),
            script_initiated_requests: db.script_initiated_requests(),
            average_load_time_ms: db.average_load_time_ms(),
            workers: self.config.workers,
        };
        (db, summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use websim::{CorpusGenerator, CorpusProfile};

    fn corpus(sites: usize) -> WebCorpus {
        CorpusGenerator::generate(&CorpusProfile::small().with_sites(sites), 23)
    }

    #[test]
    fn parallel_crawl_equals_sequential_crawl() {
        let corpus = corpus(60);
        let sequential = CrawlCluster::new(ClusterConfig::sequential()).crawl(&corpus);
        let parallel = CrawlCluster::new(ClusterConfig::default().with_workers(8)).crawl(&corpus);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn crawl_covers_every_site_exactly_once() {
        let corpus = corpus(35);
        let db = CrawlCluster::new(ClusterConfig::default()).crawl(&corpus);
        assert_eq!(db.site_count(), 35);
        let mut ranks: Vec<usize> = db.sites.iter().map(|s| s.rank).collect();
        ranks.dedup();
        assert_eq!(ranks, (0..35).collect::<Vec<_>>());
    }

    #[test]
    fn request_ids_are_globally_unique() {
        let corpus = corpus(30);
        let db = CrawlCluster::new(ClusterConfig::default().with_workers(4)).crawl(&corpus);
        let mut ids: Vec<u64> = db
            .sites
            .iter()
            .flat_map(|s| &s.requests)
            .map(|r| r.request_id)
            .collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn a_crawled_site_renders_the_bytes_the_string_owning_records_did() {
        // Rendered from the same crawl when every record owned its strings:
        // sharing them must not move a byte of the persisted document.
        let fixture = include_str!("../tests/fixtures/site_crawl.json");
        let corpus = CorpusGenerator::generate(&CorpusProfile::small().with_sites(40), 11);
        let db = CrawlCluster::new(ClusterConfig::sequential()).crawl(&corpus);
        let site = &db.sites[30];
        assert_eq!(site.to_json_value().render(), fixture);
        let decoded = SiteCrawl::from_json_value(&Value::parse(fixture).unwrap()).unwrap();
        assert_eq!(&decoded, site);
        assert_eq!(decoded.to_json_value().render(), fixture);
    }

    #[test]
    fn summary_matches_database() {
        let corpus = corpus(25);
        let (db, summary) = CrawlCluster::new(ClusterConfig::default()).crawl_with_summary(&corpus);
        assert_eq!(summary.sites, db.site_count());
        assert_eq!(summary.total_requests, db.total_requests());
        assert_eq!(
            summary.script_initiated_requests,
            db.script_initiated_requests()
        );
    }

    #[test]
    fn empty_corpus_yields_empty_database() {
        let corpus = WebCorpus {
            websites: vec![],
            ecosystem: Default::default(),
            seed: 0,
        };
        let db = CrawlCluster::new(ClusterConfig::default()).crawl(&corpus);
        assert_eq!(db.site_count(), 0);
    }
}
