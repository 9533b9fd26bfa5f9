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
//! * [`Pattern`] compiles the ABP pattern language (`||`, `|`, `^`, `*`);
//! * [`RuleOptions`] evaluates `$script`, `$third-party`, `$domain=`, …;
//! * [`parse_list`] turns list text into [`FilterRule`]s;
//! * [`tokens`] is the shared zero-allocation tokenizer: both rule filing
//!   and query-time candidate selection hash the same maximal alphanumeric
//!   runs, folded through one byte table, so the two sides cannot drift;
//! * rules are evaluated against a borrowed [`RequestView`], built per
//!   request into a reusable [`RequestScratch`] in one pass over the URL —
//!   one pass over what follows the authority, when the URL repeats the
//!   authority of the request before it — or lent by the owned
//!   [`FilterRequest`];
//! * a token-hash index (`index.rs`) stores rules so matching stays fast at
//!   crawl scale and allocation-free per query;
//! * [`FilterEngine`] combines blocking and exception rules and
//!   exposes the binary [`RequestLabel`] oracle;
//! * [`FilterEngine::easylist_easyprivacy`] loads the embedded curated
//!   EasyList / EasyPrivacy snapshots;
//! * [`registrable_domain`] and [`hostname_of`] are the eTLD+1 and URL
//!   helpers shared by the rest of the workspace.
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
#![warn(unreachable_pub)]
#![warn(rust_2018_idioms)]

mod domain;
mod engine;
mod index;
mod lists;
mod options;
mod parser;
mod pattern;
mod request;
mod rule;
pub mod tokens;
mod url;

pub use domain::{is_valid_hostname, registrable_domain, registrable_suffix};
pub use engine::{FilterEngine, MatchOutcome, RequestLabel};
pub use options::{DomainEntry, RuleOptions};
pub use parser::{parse_list, parse_rule, ParsedList};
pub use pattern::Pattern;
pub use request::{FilterRequest, RequestScratch, RequestView, ResourceType};
pub use rule::{FilterRule, ListKind};
pub use url::{hostname_of, ParsedUrl, UrlView};
