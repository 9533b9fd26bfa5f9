//! The crawl database.
//!
//! The paper stores every captured event in a database that the (post hoc,
//! offline) hierarchical analysis then consumes. [`CrawlDatabase`] is that
//! store: one [`SiteCrawl`] per website, holding the site metadata and the
//! raw request events. It renders to and decodes from JSON text
//! ([`CrawlDatabase::to_json`] / [`CrawlDatabase::from_json`]), so a crawl
//! can be kept and re-analysed without re-crawling.

use crate::events::RequestWillBeSent;
use crate::json::{object, JsonError, Value};
use crate::page_load::PageLoadResult;

/// Everything recorded while crawling one website.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteCrawl {
    /// Rank of the site in the crawl list.
    pub(crate) rank: usize,
    /// Landing page URL.
    pub(crate) page_url: String,
    /// Registrable domain of the site.
    pub site_domain: String,
    /// Every `requestWillBeSent` captured during the load (the paper's
    /// pipeline only needs request metadata and call stacks).
    pub requests: Vec<RequestWillBeSent>,
    /// Simulated page load time in milliseconds.
    pub(crate) load_time_ms: u64,
}

impl SiteCrawl {
    /// Build a site crawl record from a page-load result, taking over its
    /// captured requests.
    pub(crate) fn from_load(
        rank: usize,
        page_url: &str,
        site_domain: &str,
        result: PageLoadResult,
    ) -> Self {
        SiteCrawl {
            rank,
            page_url: page_url.to_string(),
            site_domain: site_domain.to_string(),
            requests: result.requests,
            load_time_ms: result.load_time_ms,
        }
    }

    /// Only the script-initiated requests (what TrackerSift analyses).
    pub fn script_initiated(&self) -> impl Iterator<Item = &RequestWillBeSent> {
        self.requests.iter().filter(|r| r.is_script_initiated())
    }

    /// Build the JSON representation.
    pub(crate) fn to_json_value(&self) -> Value {
        object(vec![
            ("rank", Value::Number(self.rank as f64)),
            ("page_url", Value::String(self.page_url.clone())),
            ("site_domain", Value::String(self.site_domain.clone())),
            (
                "requests",
                Value::Array(
                    self.requests
                        .iter()
                        .map(RequestWillBeSent::to_json_value)
                        .collect(),
                ),
            ),
            ("load_time_ms", Value::number_u64(self.load_time_ms)),
        ])
    }

    /// Decode from a JSON node.
    pub(crate) fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        Ok(SiteCrawl {
            rank: value.field("rank")?.as_usize()?,
            page_url: value.field("page_url")?.as_str()?.to_string(),
            site_domain: value.field("site_domain")?.as_str()?.to_string(),
            requests: value
                .field("requests")?
                .as_array()?
                .iter()
                .map(RequestWillBeSent::from_json_value)
                .collect::<Result<_, _>>()?,
            load_time_ms: value.field("load_time_ms")?.as_u64()?,
        })
    }
}

/// The whole crawl.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrawlDatabase {
    /// Per-site records, ordered by site rank.
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

    /// Average simulated page load time across sites, in milliseconds.
    pub(crate) fn average_load_time_ms(&self) -> f64 {
        if self.sites.is_empty() {
            return 0.0;
        }
        self.sites
            .iter()
            .map(|s| s.load_time_ms as f64)
            .sum::<f64>()
            / self.sites.len() as f64
    }

    /// Serialise to JSON (via the deterministic [`crate::json`] codec).
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// Deserialise from JSON.
    pub fn from_json(json: &str) -> Result<Self, JsonError> {
        Self::from_json_value(&Value::parse(json)?)
    }

    /// Build the JSON representation.
    pub(crate) fn to_json_value(&self) -> Value {
        object(vec![(
            "sites",
            Value::Array(self.sites.iter().map(SiteCrawl::to_json_value).collect()),
        )])
    }

    /// Decode from a JSON node.
    pub(crate) fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        Ok(CrawlDatabase {
            sites: value
                .field("sites")?
                .as_array()?
                .iter()
                .map(SiteCrawl::from_json_value)
                .collect::<Result<_, _>>()?,
        })
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
            .map(|site| SiteCrawl::from_load(site.rank, &site.url, &site.domain, sim.load(site)))
            .collect();
        CrawlDatabase { sites }
    }

    #[test]
    fn database_counts_are_consistent() {
        let db = db();
        assert_eq!(db.site_count(), 20);
        assert!(db.total_requests() > db.script_initiated_requests());
        assert!(db.script_initiated_requests() > 0);
        assert!(db.average_load_time_ms() > 0.0);
    }

    #[test]
    fn database_round_trips_through_json() {
        let db = db();
        let json = db.to_json();
        let back = CrawlDatabase::from_json(&json).unwrap();
        assert_eq!(db, back);
    }
}
