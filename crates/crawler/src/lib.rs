//! # crawler — an instrumented browser simulator for TrackerSift
//!
//! The paper collects its data with Selenium-driven Chrome plus a
//! purpose-built extension that records `requestWillBeSent` /
//! `responseReceived` DevTools events, including the initiator call stack of
//! every script-initiated request, across a 13-node crawling cluster. This
//! crate reproduces that measurement substrate against the synthetic corpus
//! from `websim`. A request is recorded once and moved, never copied: the
//! simulator pushes one [`RequestWillBeSent`] per request into
//! `PageLoadResult::requests`, `SiteCrawl::from_load` takes that vector
//! by value, and the labeling stage reads it in place. Responses are not
//! recorded; no stage of the analysis reads one.
//!
//! * the DevTools-style event types ([`RequestWillBeSent`], [`CallStack`],
//!   [`StackFrame`]);
//! * [`PageLoadSimulator`] — the per-page simulator that turns a
//!   [`websim::Website`] into its requests (with tag-manager ancestry
//!   and optional script/request blocking for breakage experiments);
//! * [`CrawlCluster`] — the parallel, stateless crawl orchestrator;
//! * [`CrawlDatabase`] — the crawl database the offline analysis consumes,
//!   one record per site in corpus order; a crawl's counts are its methods;
//! * [`json`] — the `trackersift_json` codec, a re-export kept while the
//!   benchmark harness names it. A crawl itself is never persisted: it is
//!   handed over in memory.
//!
//! ```
//! use crawler::{ClusterConfig, CrawlCluster};
//! use websim::{CorpusGenerator, CorpusProfile};
//!
//! let corpus = CorpusGenerator::generate(&CorpusProfile::small().with_sites(10), 1);
//! let db = CrawlCluster::new(ClusterConfig::default()).crawl(&corpus);
//! assert_eq!(db.site_count(), 10);
//! assert!(db.script_initiated_requests() > 0);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(rust_2018_idioms)]

mod cluster;
mod database;
mod events;
mod page_load;

/// The `trackersift_json` codec under its former path.
pub use trackersift_json as json;

pub use cluster::{par_map, ClusterConfig, CrawlCluster};
pub use database::{CrawlDatabase, SiteCrawl};
pub use events::{CallStack, RequestWillBeSent, StackFrame, Text};
pub use page_load::{LoadOptions, PageLoadResult, PageLoadSimulator};
