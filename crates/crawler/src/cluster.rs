//! Parallel crawl orchestration.
//!
//! The paper's crawl ran on a 13-node cluster, each node crawling a disjoint
//! subset of the 100K sites inside its own Docker container, statelessly
//! (all browser state cleared between consecutive page loads). The
//! [`CrawlCluster`] reproduces that shape in-process with [`par_map`], an
//! order-preserving map over scoped threads: each site is loaded by its own
//! [`PageLoadSimulator`] (fresh state per page) on as many threads as
//! [`ClusterConfig::workers`] — the `--threads`-style knob of the pipeline.
//! Each site's request-id space is derived from its rank and [`par_map`]
//! returns the sites in corpus order, so the output is byte-identical
//! regardless of worker count or scheduling — a property the tests assert.

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

/// The parallel crawler.
#[derive(Debug, Clone, Default)]
pub struct CrawlCluster {
    config: ClusterConfig,
}

/// Map `f` over `items` on `workers` scoped threads and return the results
/// in input order. Each thread maps one contiguous chunk, and the chunks
/// are joined in order, so the output does not depend on scheduling. With
/// `workers` of 0 or 1, or fewer than two items, `f` runs on the caller's
/// thread; it never starts more threads than there are items. A panic in
/// `f` reaches the caller with its own payload. The crawl and labeling
/// stages both map through it.
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

/// Load a run of sites, each in its own page load (stateless crawling),
/// through one simulator whose buffers every load reuses. A site's
/// request-id space is partitioned by its rank, so ids are globally unique
/// and deterministic.
fn crawl_run(sites: &[Website]) -> Vec<SiteCrawl> {
    let mut sim = PageLoadSimulator::default();
    sites
        .iter()
        .map(|site| {
            sim.restart_ids((site.rank as u64) * 1_000_000);
            SiteCrawl::from_load(sim.load(site))
        })
        .collect()
}

impl CrawlCluster {
    /// Create a cluster with the given configuration.
    pub fn new(config: ClusterConfig) -> Self {
        CrawlCluster { config }
    }

    /// Crawl every website in the corpus with no blocking, into one
    /// record per site in corpus order.
    ///
    /// Each worker crawls one contiguous run of sites, and each site's
    /// request ids are derived from its rank, so results do not depend on
    /// scheduling.
    pub fn crawl(&self, corpus: &WebCorpus) -> CrawlDatabase {
        let websites = &corpus.websites;
        let workers = self.config.workers.min(websites.len());
        if workers <= 1 {
            return CrawlDatabase {
                sites: crawl_run(websites),
            };
        }
        let runs: Vec<&[Website]> = websites.chunks(websites.len().div_ceil(workers)).collect();
        let mut sites = Vec::with_capacity(websites.len());
        for run in par_map(&runs, workers, |run| crawl_run(run)) {
            sites.extend(run);
        }
        CrawlDatabase { sites }
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
        // Site i's record is site i's load: its requests carry the page's
        // URL and draw their ids from the i-th block of a million.
        let corpus = corpus(35);
        let db = CrawlCluster::new(ClusterConfig::default().with_workers(4)).crawl(&corpus);
        assert_eq!(db.site_count(), 35);
        for (i, (site, crawled)) in corpus.websites.iter().zip(&db.sites).enumerate() {
            let ids = i as u64 * 1_000_000..(i as u64 + 1) * 1_000_000;
            assert!(!crawled.requests.is_empty(), "site {i}");
            for request in &crawled.requests {
                assert_eq!(*request.top_level_url, *site.url, "site {i}");
                assert!(ids.contains(&request.request_id), "site {i}");
            }
        }
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
            fold(&(stack.len() as u64).to_le_bytes());
            for frame in stack.iter() {
                fold(frame.script_url.as_bytes());
                fold(frame.function_name.as_bytes());
            }
        }
        assert_eq!(db.total_requests(), 1815);
        assert_eq!(digest, 0x4be1_031f_ced3_9fd0);
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
