//! The crawl database.
//!
//! The paper stores every captured event in a database that the (post hoc,
//! offline) hierarchical analysis then consumes. [`CrawlDatabase`] is that
//! store: one [`SiteCrawl`] per website, holding the site's raw request
//! events. It lives in memory only: the crawl hands it to the
//! labeling stage, and nothing writes it out or reads it back.

use crate::events::RequestWillBeSent;
use crate::page_load::PageLoadResult;

/// Everything recorded while crawling one website.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteCrawl {
    /// Every `requestWillBeSent` captured during the load (the paper's
    /// pipeline only needs request metadata and call stacks).
    pub requests: Vec<RequestWillBeSent>,
}

impl SiteCrawl {
    /// Build a site crawl record from a page-load result, taking over its
    /// captured requests.
    pub(crate) fn from_load(result: PageLoadResult) -> Self {
        SiteCrawl {
            requests: result.requests,
        }
    }

    /// Only the script-initiated requests (what TrackerSift analyses).
    pub fn script_initiated(&self) -> impl Iterator<Item = &RequestWillBeSent> {
        self.requests.iter().filter(|r| r.is_script_initiated())
    }
}

/// The whole crawl.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrawlDatabase {
    /// Per-site records, in the corpus's site order.
    pub sites: Vec<SiteCrawl>,
}

impl CrawlDatabase {
    /// Number of crawled sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Total number of captured requests (script-initiated or not).
    pub fn total_requests(&self) -> usize {
        self.sites.iter().map(|s| s.requests.len()).sum()
    }

    /// Total number of script-initiated requests.
    pub fn script_initiated_requests(&self) -> usize {
        self.sites
            .iter()
            .map(|s| s.script_initiated().count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page_load::PageLoadSimulator;
    use websim::{CorpusGenerator, CorpusProfile};

    fn db() -> CrawlDatabase {
        let corpus = CorpusGenerator::generate(&CorpusProfile::small().with_sites(20), 3);
        let mut sim = PageLoadSimulator::new(0);
        let sites = corpus
            .websites
            .iter()
            .map(|site| SiteCrawl::from_load(sim.load(site)))
            .collect();
        CrawlDatabase { sites }
    }

    #[test]
    fn database_counts_are_consistent() {
        let db = db();
        assert_eq!(db.site_count(), 20);
        assert!(db.total_requests() > db.script_initiated_requests());
        assert!(db.script_initiated_requests() > 0);
    }
}
