//! The crawl database.
//!
//! The paper stores every captured event in a database that the (post hoc,
//! offline) hierarchical analysis then consumes. [`CrawlDatabase`] is that
//! store: one [`SiteCrawl`] per website, holding the site metadata and the
//! raw request events. It serialises to JSON so crawls can be persisted and
//! re-analysed without re-crawling.

use crate::events::RequestWillBeSent;
use crate::json::{object, FromJson, JsonError, ToJson, Value};
use crate::page_load::PageLoadResult;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::path::Path;

/// Everything recorded while crawling one website.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteCrawl {
    /// Rank of the site in the crawl list.
    pub rank: usize,
    /// Landing page URL.
    pub page_url: String,
    /// Registrable domain of the site.
    pub site_domain: String,
    /// Every `requestWillBeSent` captured during the load (the paper's
    /// pipeline only needs request metadata and call stacks).
    pub requests: Vec<RequestWillBeSent>,
    /// Simulated page load time in milliseconds.
    pub load_time_ms: u64,
}

impl SiteCrawl {
    /// Build a site crawl record from a page-load result, taking over its
    /// captured requests.
    pub fn from_load(
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
}

/// The whole crawl.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrawlDatabase {
    /// Per-site records, ordered by site rank.
    pub sites: Vec<SiteCrawl>,
}

impl CrawlDatabase {
    /// Create an empty database.
    pub fn new() -> Self {
        CrawlDatabase::default()
    }

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

    /// Iterate over every captured request with its site.
    pub fn requests(&self) -> impl Iterator<Item = (&SiteCrawl, &RequestWillBeSent)> {
        self.sites
            .iter()
            .flat_map(|s| s.requests.iter().map(move |r| (s, r)))
    }

    /// Add a site record, keeping the database ordered by rank.
    pub fn push(&mut self, site: SiteCrawl) {
        self.sites.push(site);
        self.sites.sort_by_key(|s| s.rank);
    }

    /// Merge another database into this one (used by the cluster to combine
    /// per-worker shards).
    pub fn merge(&mut self, other: CrawlDatabase) {
        self.sites.extend(other.sites);
        self.sites.sort_by_key(|s| s.rank);
    }

    /// Average simulated page load time across sites, in milliseconds.
    pub fn average_load_time_ms(&self) -> f64 {
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
    pub fn to_json(&self) -> Result<String, JsonError> {
        Ok(self.to_json_value().render())
    }

    /// Deserialise from JSON.
    pub fn from_json(json: &str) -> Result<Self, JsonError> {
        Self::from_json_value(&Value::parse(json)?)
    }

    /// Write the database to a file as JSON.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let json = self.to_json().map_err(std::io::Error::other)?;
        let mut file = std::fs::File::create(path)?;
        file.write_all(json.as_bytes())
    }

    /// Load a database previously written with [`CrawlDatabase::save`].
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let mut file = std::fs::File::open(path)?;
        let mut json = String::new();
        file.read_to_string(&mut json)?;
        Self::from_json(&json).map_err(std::io::Error::other)
    }
}

impl ToJson for SiteCrawl {
    fn to_json_value(&self) -> Value {
        object(vec![
            ("rank", Value::Number(self.rank as f64)),
            ("page_url", Value::String(self.page_url.clone())),
            ("site_domain", Value::String(self.site_domain.clone())),
            (
                "requests",
                Value::Array(self.requests.iter().map(ToJson::to_json_value).collect()),
            ),
            ("load_time_ms", Value::number_u64(self.load_time_ms)),
        ])
    }
}

impl FromJson for SiteCrawl {
    fn from_json_value(value: &Value) -> Result<Self, JsonError> {
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

impl ToJson for CrawlDatabase {
    fn to_json_value(&self) -> Value {
        object(vec![(
            "sites",
            Value::Array(self.sites.iter().map(ToJson::to_json_value).collect()),
        )])
    }
}

impl FromJson for CrawlDatabase {
    fn from_json_value(value: &Value) -> Result<Self, JsonError> {
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
        let mut db = CrawlDatabase::new();
        for site in &corpus.websites {
            let result = sim.load(site);
            db.push(SiteCrawl::from_load(
                site.rank,
                &site.url,
                &site.domain,
                result,
            ));
        }
        db
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
        let json = db.to_json().unwrap();
        let back = CrawlDatabase::from_json(&json).unwrap();
        assert_eq!(db, back);
    }

    #[test]
    fn save_and_load_round_trip() {
        let db = db();
        let dir = std::env::temp_dir().join("trackersift-test-db");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("crawl.json");
        db.save(&path).unwrap();
        let back = CrawlDatabase::load(&path).unwrap();
        assert_eq!(db, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_keeps_rank_order() {
        let db = db();
        let mut left = CrawlDatabase::new();
        let mut right = CrawlDatabase::new();
        for (i, site) in db.sites.iter().enumerate() {
            if i % 2 == 0 {
                left.sites.push(site.clone());
            } else {
                right.sites.push(site.clone());
            }
        }
        left.merge(right);
        assert_eq!(left, db);
    }

    #[test]
    fn push_keeps_rank_order() {
        let db = db();
        let mut shuffled = CrawlDatabase::new();
        for site in db.sites.iter().rev() {
            shuffled.push(site.clone());
        }
        assert_eq!(shuffled, db);
    }
}
