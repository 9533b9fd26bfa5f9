//! # filterlist — an Adblock-Plus-style filter engine
//!
//! This crate is the *test oracle* substrate of the TrackerSift
//! reproduction: it parses EasyList / EasyPrivacy style filter lists and
//! labels network requests as **tracking** (matched by a blocking rule) or
//! **functional** (unmatched, or allowed by an `@@` exception rule), exactly
//! as §3 of the paper describes.
//!
//! The implementation is self-contained — no regex crate, no `url` crate —
//! and mirrors the architecture of production blockers:
//!
//! * [`pattern`] compiles the ABP pattern language (`||`, `|`, `^`, `*`);
//! * [`options`] evaluates `$script`, `$third-party`, `$domain=`, …;
//! * [`parser`] turns list text into [`rule::FilterRule`]s;
//! * [`tokens`] is the shared zero-allocation tokenizer: both rule filing
//!   and query-time candidate selection hash the same maximal alphanumeric
//!   runs, folded through one byte table, so the two sides cannot drift;
//! * [`request`] is what rules are evaluated against: a borrowed
//!   [`RequestView`], built per request into a reusable [`RequestScratch`]
//!   in one pass over the URL, or lent by the owned [`FilterRequest`];
//! * [`index`] stores rules in a token-hash index so matching stays fast at
//!   crawl scale and allocation-free per query;
//! * [`engine::FilterEngine`] combines blocking and exception rules and
//!   exposes the binary [`engine::RequestLabel`] oracle;
//! * [`lists`] embeds curated EasyList / EasyPrivacy snapshots;
//! * [`domain`] provides the eTLD+1 and third-party helpers shared by the
//!   rest of the workspace.
//!
//! ## Quick example
//!
//! ```
//! use filterlist::{FilterEngine, FilterRequest, RequestLabel, ResourceType};
//!
//! let engine = FilterEngine::easylist_easyprivacy();
//! let request = FilterRequest::new(
//!     "https://www.google-analytics.com/analytics.js",
//!     "news.example.com",
//!     ResourceType::Script,
//! ).unwrap();
//! assert_eq!(engine.label(&request), RequestLabel::Tracking);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod domain;
pub mod engine;
pub mod index;
pub mod lists;
pub mod options;
pub mod parser;
pub mod pattern;
pub mod request;
pub mod rule;
pub mod tokens;
pub mod url;

pub use domain::{is_third_party, registrable_domain};
pub use engine::{FilterEngine, MatchOutcome, RequestLabel};
pub use parser::{parse_list, parse_rule, ParseStats, ParsedList};
pub use request::{FilterRequest, RequestScratch, RequestView, ResourceType};
pub use rule::{FilterRule, ListKind};
pub use url::{ParsedUrl, UrlView};
