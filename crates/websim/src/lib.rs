//! # websim — a synthetic web corpus for TrackerSift experiments
//!
//! The paper measures 100K live websites through an instrumented browser.
//! This crate is the offline stand-in for that measurement substrate: it
//! generates a deterministic corpus of websites whose landing pages embed a
//! realistic third-party ecosystem — advertising networks, analytics
//! providers, tag managers, consent platforms, social/search platforms with
//! mixed hostnames, shared content CDNs, functional libraries — together
//! with the circumvention behaviours TrackerSift studies: first-party
//! hosting of tracking endpoints, webpack-style bundling of tracking modules
//! into functional code, and inlined tracking snippets.
//!
//! The output of [`CorpusGenerator::generate`] is a pure data
//! structure: every website lists its scripts, every script its methods,
//! every method the requests it will issue. The `crawler` crate turns that
//! description into DevTools-style events; the `trackersift` crate runs the
//! paper's hierarchical analysis over the result.
//!
//! ```
//! use websim::{CorpusGenerator, CorpusProfile};
//!
//! let corpus = CorpusGenerator::generate(&CorpusProfile::small().with_sites(25), 42);
//! assert_eq!(corpus.websites.len(), 25);
//! assert!(corpus.total_script_initiated_requests() > 0);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(rust_2018_idioms)]

mod distributions;
mod ecosystem;
pub mod filter_rules;
mod fingerprint;
mod generator;
mod model;
mod mutator;
mod names;
mod profiles;
mod scripts;

pub use ecosystem::Ecosystem;
pub use fingerprint::fingerprint_key;
pub use generator::CorpusGenerator;
pub use model::{
    Feature, FeatureImportance, PageScript, PlannedRequest, Purpose, ScriptArchetype,
    ScriptMethodSpec, ScriptOrigin, WebCorpus, Website,
};
pub use mutator::{EcosystemMutator, MutationConfig, MutationReport, ScriptRotation};
pub use profiles::CorpusProfile;
