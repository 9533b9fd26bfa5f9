//! Parallel crawl orchestration.
//!
//! The paper's crawl ran on a 13-node cluster, each node crawling a disjoint
//! subset of the 100K sites inside its own Docker container, statelessly
//! (all browser state cleared between consecutive page loads). The
//! [`CrawlCluster`] reproduces that shape in-process with [`par_map`], an
//! order-preserving map over scoped threads: each site is loaded by its own
//! [`PageLoadSimulator`] (fresh state per page) on as many threads as
//! [`ClusterConfig::workers`] — the `--threads`-style knob of the pipeline.
//! Each site's request-id space is derived from its rank and results are
//! re-assembled in rank order, so the output is byte-identical regardless of
//! worker count or scheduling — a property the tests assert.

use crate::database::{CrawlDatabase, SiteCrawl};
use crate::page_load::PageLoadSimulator;
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
    /// Worker threads the crawl ran on: [`workers_for`] of the configured
    /// count and the site count.
    pub workers: usize,
}

/// The parallel crawler.
#[derive(Debug, Clone, Default)]
pub struct CrawlCluster {
    config: ClusterConfig,
}

/// The workers a stage over `sites` sites runs on when `workers` are
/// configured: never more than there are sites, and at least one (a
/// configured 0 runs sequentially). The crawl, its summary and the
/// labeling stage all size themselves here.
pub fn workers_for(workers: usize, sites: usize) -> usize {
    workers.min(sites).max(1)
}

/// Map `f` over `items` on `workers` scoped threads and return the results
/// in input order. Each thread maps one contiguous chunk, and the chunks
/// are joined in order, so the output does not depend on scheduling. With
/// `workers` of 0 or 1, or fewer than two items, `f` runs on the caller's
/// thread. A panic in `f` reaches the caller with its own payload. The
/// crawl and labeling stages both map through it.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(items.len().div_ceil(workers))
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for handle in handles {
            match handle.join() {
                Ok(chunk) => out.extend(chunk),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// Load one site in a fresh simulator (stateless crawling). The request-id
/// space is partitioned by rank, so ids are globally unique and
/// deterministic.
fn crawl_site(site: &Website) -> SiteCrawl {
    let mut sim = PageLoadSimulator::new((site.rank as u64) * 1_000_000);
    SiteCrawl::from_load(site.rank, sim.load(site))
}

impl CrawlCluster {
    /// Create a cluster with the given configuration.
    pub fn new(config: ClusterConfig) -> Self {
        CrawlCluster { config }
    }

    /// Crawl every website in the corpus with no blocking.
    ///
    /// Each site's request ids are derived from its rank, so results do not
    /// depend on scheduling.
    pub fn crawl(&self, corpus: &WebCorpus) -> CrawlDatabase {
        let mut sites = par_map(&corpus.websites, self.config.workers, crawl_site);
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
            workers: workers_for(self.config.workers, corpus.websites.len()),
        };
        (db, summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterlist::tokens::fold_bytes;
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
    fn a_crawl_emits_the_requests_it_always_has() {
        // One fold over every recorded field, request by request in emission
        // order; a frame list is preceded by its length. Any change to what
        // the crawler records, or in which order, moves the digest.
        let corpus = CorpusGenerator::generate(&CorpusProfile::small().with_sites(40), 11);
        let db = CrawlCluster::new(ClusterConfig::sequential()).crawl(&corpus);
        let mut digest = 0;
        let mut fold = |bytes: &[u8]| digest = fold_bytes(digest, bytes);
        for request in db.sites.iter().flat_map(|s| &s.requests) {
            fold(&request.request_id.to_le_bytes());
            fold(request.top_level_url.as_bytes());
            fold(request.url.as_bytes());
            fold(request.resource_type.option_name().as_bytes());
            let stack = &request.call_stack;
            fold(&(stack.frames.len() as u64).to_le_bytes());
            for frame in stack.frames.iter() {
                fold(frame.script_url.as_bytes());
                fold(frame.function_name.as_bytes());
            }
        }
        assert_eq!(db.total_requests(), 1815);
        assert_eq!(digest, 0x4be1_031f_ced3_9fd0);
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
    fn the_summary_reports_the_workers_the_crawl_ran_on() {
        let corpus = corpus(3);
        for (configured, used) in [(8, 3), (0, 1)] {
            let cluster = CrawlCluster::new(ClusterConfig {
                workers: configured,
            });
            let (_, summary) = cluster.crawl_with_summary(&corpus);
            assert_eq!(summary.workers, used, "{configured} configured");
        }
    }

    #[test]
    fn par_map_preserves_input_order() {
        // 7 and 3 workers leave a short last chunk. A thread per item is
        // tried on a short input only: 10,000 threads is no unit test.
        let items: Vec<u64> = (0..10_000).collect();
        let doubled: Vec<u64> = items.iter().map(|x| x * 2).collect();
        for workers in [7, 3, 2, 1, 0] {
            assert_eq!(
                par_map(&items, workers, |x| x * 2),
                doubled,
                "{workers} workers"
            );
        }
        // More workers than items, as many as items, and a short last chunk.
        let few = [5u8, 6, 7];
        for workers in [8, 3, 2] {
            assert_eq!(
                par_map(&few, workers, |x| x + 1),
                [6, 7, 8],
                "{workers} workers"
            );
        }
    }

    #[test]
    fn par_map_of_nothing_is_empty() {
        for workers in [0, 1, 4] {
            assert!(par_map(&[] as &[u8], workers, |x| *x).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "item 2999 is bad")]
    fn par_map_propagates_a_panic_to_the_caller() {
        let items: Vec<u32> = (0..4_000).collect();
        par_map(&items, 4, |&x| {
            if x == 2_999 {
                panic!("item {x} is bad");
            }
            x
        });
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
