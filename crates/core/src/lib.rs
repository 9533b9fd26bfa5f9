//! # trackersift — untangling mixed tracking and functional web resources
//!
//! A from-scratch Rust reproduction of *TrackerSift: Untangling Mixed
//! Tracking and Functional Web Resources* (ACM IMC 2021). TrackerSift
//! progressively classifies web resources at four granularities — domain,
//! hostname, script, method — as **tracking**, **functional**, or **mixed**,
//! using filter lists (EasyList + EasyPrivacy) as the labeling oracle and a
//! log-ratio threshold (Equation 1) as the classifier. Resources that remain
//! mixed at one granularity are pushed down to the next finer one; the
//! residue that is still mixed at method level is attacked with call-stack
//! divergence analysis, and mixed scripts can be shimmed with automatically
//! generated surrogate scripts.
//!
//! The crate is organised around the paper's sections:
//!
//! | paper | entry point |
//! |---|---|
//! | §3 Labeling | [`Labeler`] |
//! | §4 Eq. 1 + threshold | [`Thresholds`] |
//! | §2/§4 hierarchical classification (Tables 1–2, Fig. 3) | [`HierarchicalClassifier`], [`table1`], [`table2`], [`report`] |
//! | §5 threshold sensitivity (Fig. 4) | [`SensitivitySweep`] |
//! | §5 breakage analysis (Table 3) | [`breakage`] |
//! | §5 call-stack analysis (Fig. 5) | [`CallStackAnalysis`] |
//! | §5 surrogate scripts | [`SurrogateScript`] |
//! | staged execution engine | [`Study`] |
//! | serving: interning, [`Sifter`], decisions, verdict tables, concurrent readers, revisions, snapshots, journal, fault injection | [`trackersift_engine`], re-exported at this crate's root |
//!
//! The study is the offline half. The serving half — what a content blocker
//! deploys — is the `trackersift-engine` crate, which links neither the web
//! simulator nor the crawler. This crate re-exports every root item of the
//! engine and its `concurrent`, `failpoint` and `frames` modules, so
//! `trackersift::Sifter` and `trackersift_engine::Sifter` are one type.
//!
//! ## Execution model
//!
//! [`Study::run`] executes the pipeline as a chain of named, individually
//! timed stages — `generate → crawl → label → classify` (see [`StageTimings`]) —
//! with each downstream analysis an on-demand `Study` method
//! ([`Study::sensitivity_sweep`], [`Study::callstack_analysis`], …). The
//! crawl and labeling stages run on a worker pool sized by the study's
//! [`ClusterConfig`](crawler::ClusterConfig) `workers` knob, and are
//! deterministic: a parallel run produces byte-identical results to a
//! sequential one. All per-request grouping goes through the
//! [`KeyInterner`], so attribution keys (including the composed
//! `script :: method` keys) are allocated at most once per distinct key.
//!
//! ## Quick example
//!
//! ```
//! use trackersift::{Granularity, Study, StudyConfig};
//!
//! let study = Study::run(StudyConfig::small().with_sites(50));
//! let domains = study.hierarchy.level(Granularity::Domain);
//! println!(
//!     "{} domains observed, {} mixed; {:.1}% of requests attributed overall",
//!     domains.resource_counts.total(),
//!     domains.resource_counts.mixed,
//!     study.hierarchy.overall_attribution(),
//! );
//! println!("stage timings: {}", study.timings.summary());
//! ```
//!
//! ## Serving
//!
//! A study is also a producer of long-lived serving state:
//! [`Study::sifter`] trains the engine's [`Sifter`] on the labeled
//! requests, whose exported [`VerdictTable`] answers per request (see
//! [`trackersift_engine`] for incremental ingestion, concurrent readers
//! and persistence).
//!
//! ```
//! use trackersift::{DecisionRequest, Study, StudyConfig};
//!
//! let study = Study::run(StudyConfig::small().with_sites(50));
//! let table = study.sifter().verdict_table();
//! let verdict = table.verdict(&DecisionRequest::from(&study.requests[0]));
//! println!("{verdict}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(rust_2018_idioms)]

pub mod breakage;
mod callstack;
mod hierarchy;
mod label;
mod metrics;
mod pipeline;
pub mod report;
mod sensitivity;
mod surrogate;

#[cfg(test)]
mod testutil;

pub use callstack::{CallGraph, CallGraphNode, CallStackAnalysis, NodeParticipation};
pub use hierarchy::HierarchicalClassifier;
pub use label::{CacheStats, LabelStats, LabeledRequest, Labeler};
pub use metrics::{headline, table1, table2, HeadlineSummary, Table1Row, Table2Row};
pub use pipeline::{StageTimings, Study, StudyConfig};
pub use sensitivity::SensitivitySweep;
pub use trackersift_engine::*;
