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
//! | resource-key interning | [`KeyInterner`] |
//! | serving API (verdicts + incremental ingestion) | [`Sifter`] |
//! | enforcement decisions (allow / block / surrogate / observe) | [`Decision`] |
//! | flattened verdict tables (shared read representation) | [`VerdictTable`] |
//! | concurrent serving (per-thread cached readers + atomic publish) | [`concurrent`] |
//! | verdict revisions over version spans + drift diffs | [`VerdictRevision`] |
//! | trained-state persistence (versioned) | [`SifterSnapshot`] |
//! | crash durability (write-ahead journal + checkpoints) | [`Journal`] |
//! | deterministic fault injection (feature-gated) | [`failpoint`] |
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
//! [`Study::sifter`] trains a [`Sifter`], which ingests new
//! observations incrementally ([`Sifter::apply`] +
//! [`Sifter::commit`], provably equivalent to reclassifying from
//! scratch) and exports a [`VerdictTable`] — the one type that
//! answers `tracking / functional / mixed` per request by resolving the
//! query's four keys and walking the hierarchy coarsest-to-finest,
//! allocation-free. Trained state persists across restarts through the
//! versioned [`SifterSnapshot`]. For serving from many threads
//! while ingestion continues, [`Sifter::into_concurrent`] splits
//! the sifter into a [`concurrent::SifterWriter`] and per-thread
//! [`concurrent::SifterReader`] handles that pin atomically published
//! tables. A pin takes no lock unless a table was published since the
//! handle's last pin, and then one uncontended acquisition picks it up; a
//! retired table lives until every handle has pinned past it.
//!
//! ```
//! use trackersift::{DecisionRequest, Study, StudyConfig};
//!
//! let study = Study::run(StudyConfig::small().with_sites(50));
//! let table = study.sifter().verdict_table();
//! let verdict = table.verdict(&DecisionRequest::from_labeled(&study.requests[0]));
//! println!("{verdict}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(rust_2018_idioms)]

pub mod breakage;
mod callstack;
pub mod concurrent;
mod decision;
pub mod failpoint;
mod follower;
pub mod frames;
mod hierarchy;
mod intern;
mod journal;
mod label;
mod memo;
mod metrics;
mod pipeline;
mod ratio;
pub mod report;
mod revision;
mod sensitivity;
mod service;
mod snapshot;
mod surrogate;
mod table;

#[cfg(test)]
mod testutil;

pub use callstack::{CallGraph, CallGraphNode, CallStackAnalysis, NodeParticipation};
pub use concurrent::{SifterReader, SifterWriter, TablePublisher};
pub use decision::{Decision, DecisionRequest, DecisionSource, KeyedRequest};
pub use follower::{ApplyError, DeltaSnapshot, FollowerState};
pub use hierarchy::{
    ClassCounts, Granularity, HierarchicalClassifier, HierarchyResult, LevelResult, ResourceEntry,
};
pub use intern::{FrozenKeys, KeyInterner, ResourceKey};
pub use journal::{DurableDir, Journal, JournalEntry, JournalStats, RecoveryReport, ReplayReport};
pub use label::{CacheStats, LabelStats, LabeledRequest, Labeler};
pub use metrics::{headline, table1, table2, HeadlineSummary, Table1Row, Table2Row};
pub use pipeline::{StageTimings, Study, StudyConfig};
pub use ratio::{Classification, Counts, Thresholds};
pub use revision::{
    compose, diff_revisions, ChangeKind, RevisionChange, RevisionRangeError, VerdictRevision,
};
pub use rewriter::{RewriterBuilder, RewrittenUrl, UrlRewriter};
pub use sensitivity::SensitivitySweep;
pub use service::{
    CommitStats, IngestStats, Observation, ObservationRef, ObserveOutcome, ServiceStats, Sifter,
    SifterBuilder, Verdict,
};
pub use snapshot::{SifterSnapshot, SnapshotError};
pub use surrogate::{MethodAction, SurrogateScript};
pub use table::{ClassTable, PrebuiltDecision, PrebuiltResponses, VerdictTable};
