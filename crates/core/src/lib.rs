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
//! | paper | module |
//! |---|---|
//! | §3 Labeling | [`label`] |
//! | §4 Eq. 1 + threshold | [`ratio`] |
//! | §2/§4 hierarchical classification (Tables 1–2, Fig. 3) | [`hierarchy`], [`metrics`], [`report`] |
//! | §5 threshold sensitivity (Fig. 4) | [`sensitivity`] |
//! | §5 breakage analysis (Table 3) | [`breakage`] |
//! | §5 call-stack analysis (Fig. 5) | [`callstack`] |
//! | §5 surrogate scripts | [`surrogate`] |
//! | staged execution engine | [`pipeline`] |
//! | resource-key interning | [`intern`] |
//! | serving API (verdicts + incremental ingestion) | [`service`] |
//! | enforcement decisions (allow / block / surrogate / observe) | [`decision`] |
//! | flattened verdict tables (shared read representation) | [`table`] |
//! | concurrent serving (per-thread cached readers + atomic publish) | [`concurrent`] |
//! | verdict revisions over version spans + drift diffs | [`revision`] |
//! | trained-state persistence (versioned) | [`snapshot`] |
//! | crash durability (write-ahead journal + checkpoints) | [`journal`] |
//! | deterministic fault injection (feature-gated) | [`failpoint`] |
//!
//! ## Execution model
//!
//! [`Study::run`] executes the pipeline as a chain of named, individually
//! timed stages — `generate → crawl → label → classify` (see [`pipeline::StageTimings`]) —
//! with each downstream analysis an on-demand `Study` method
//! ([`Study::sensitivity_sweep`], [`Study::callstack_analysis`], …). The
//! crawl and labeling stages run on a worker pool sized by the study's
//! [`ClusterConfig`](crawler::ClusterConfig) `workers` knob, and are
//! deterministic: a parallel run produces byte-identical results to a
//! sequential one. All per-request grouping goes through the
//! [`intern::KeyInterner`], so attribution keys (including the composed
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
//! [`Study::sifter`] trains a [`service::Sifter`], which ingests new
//! observations incrementally ([`service::Sifter::apply`] +
//! [`service::Sifter::commit`], provably equivalent to reclassifying from
//! scratch) and exports a [`table::VerdictTable`] — the one type that
//! answers `tracking / functional / mixed` per request by resolving the
//! query's four keys and walking the hierarchy coarsest-to-finest,
//! allocation-free. Trained state persists across restarts through the
//! versioned [`snapshot::SifterSnapshot`]. For serving from many threads
//! while ingestion continues, [`service::Sifter::into_concurrent`] splits
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
#![warn(rust_2018_idioms)]

pub mod breakage;
pub mod callstack;
pub mod concurrent;
pub mod decision;
pub mod failpoint;
pub mod follower;
pub mod frames;
pub mod hierarchy;
pub mod intern;
pub mod journal;
pub mod label;
mod memo;
pub mod metrics;
pub mod pipeline;
pub mod ratio;
pub mod report;
pub mod revision;
pub mod sensitivity;
pub mod service;
pub mod snapshot;
pub mod surrogate;
pub mod table;

#[cfg(test)]
mod testutil;

pub use breakage::{analyze_breakage, Breakage, BreakageRow, BreakageStudy};
pub use callstack::{analyze_mixed_methods, CallGraph, CallGraphNode, CallStackAnalysis};
pub use concurrent::{PinnedTable, SifterReader, SifterWriter, TablePublisher};
pub use decision::{Decision, DecisionRequest, DecisionSource, KeyedRequest};
pub use follower::{ApplyError, DeltaSnapshot, FollowerState};
pub use frames::{FrameError, FrameReader, SurrogateFrames};
pub use hierarchy::{
    ClassCounts, Granularity, HierarchicalClassifier, HierarchyResult, LevelResult, ResourceEntry,
};
pub use intern::{FrozenKeys, KeyInterner, ResourceKey};
pub use journal::{DurableDir, Journal, JournalEntry, JournalStats, RecoveryReport, ReplayReport};
pub use label::{CacheStats, LabelStats, LabeledRequest, Labeler};
pub use metrics::{headline, table1, table2, HeadlineSummary, Table1Row, Table2Row};
pub use pipeline::{StageTiming, StageTimings, Study, StudyConfig};
pub use ratio::{Classification, Counts, Thresholds};
pub use report::RatioHistogram;
pub use revision::{
    compose, diff_revisions, ChangeKind, RevisionChange, RevisionRangeError, VerdictRevision,
};
pub use rewriter::{RewriterBuilder, RewrittenUrl, UrlRewriter};
pub use sensitivity::{SensitivityPoint, SensitivitySweep};
pub use service::{
    CommitStats, IngestStats, Observation, ObservationRef, ObserveOutcome, ServiceStats, Sifter,
    SifterBuilder, Verdict,
};
pub use snapshot::{SifterSnapshot, SnapshotError};
pub use surrogate::{generate_surrogates, MethodAction, SurrogateScript};
pub use table::{ClassTable, PrebuiltDecision, PrebuiltResponses, VerdictTable};
