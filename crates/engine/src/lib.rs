//! # trackersift-engine — the serving half of TrackerSift
//!
//! What a content blocker deploys from *TrackerSift: Untangling Mixed
//! Tracking and Functional Web Resources* (ACM IMC 2021): verdicts —
//! **tracking**, **functional** or **mixed** — at four granularities,
//! domain → hostname → script → method, decided by the paper's log-ratio
//! threshold (Equation 1) over filter-list-labeled observations, and
//! enforcement decisions built on them. The offline measurement (crawl,
//! labels, Tables 1–2, the sensitivity, breakage and call-stack analyses)
//! is the `trackersift` crate, which re-exports this one; this crate links
//! neither the web simulator nor the crawler.
//!
//! | concern | entry point |
//! |---|---|
//! | §4 Eq. 1 + threshold | [`Thresholds`] |
//! | hierarchy results (Tables 1–2, Fig. 3) | [`HierarchyResult`] |
//! | resource-key interning | [`KeyInterner`] |
//! | labeling one URL against the filter lists | [`label_url`] |
//! | serving API (verdicts + incremental ingestion) | [`Sifter`] |
//! | enforcement decisions (allow / block / surrogate / observe) | [`Decision`] |
//! | surrogate plans for mixed scripts | [`SurrogateScript`] |
//! | flattened verdict tables (shared read representation) | [`VerdictTable`] |
//! | concurrent serving (per-thread cached readers + atomic publish) | [`concurrent`] |
//! | verdict revisions over version spans + drift diffs | [`VerdictRevision`] |
//! | replica catch-up | [`FollowerState`] |
//! | trained-state persistence (versioned) | [`SifterSnapshot`] |
//! | crash durability (write-ahead journal + checkpoints) | [`Journal`] |
//! | wire encodings of decisions, deltas and revisions | [`frames`] |
//! | deterministic fault injection (feature-gated) | [`failpoint`] |
//!
//! A [`Sifter`] ingests observations incrementally ([`Sifter::apply`] +
//! [`Sifter::commit`], equivalent to reclassifying from scratch) and
//! exports a [`VerdictTable`], the one type that answers a request by
//! resolving its four keys and walking the hierarchy coarsest-to-finest,
//! allocation-free.
//!
//! ```
//! use trackersift_engine::{DecisionRequest, ObservationRef, Sifter};
//!
//! let mut sifter = Sifter::builder().build();
//! for _ in 0..3 {
//!     sifter.apply(ObservationRef::parts("ads.com", "px.ads.com", "https://p.com/a.js", "send", true));
//! }
//! sifter.commit();
//! let table = sifter.verdict_table();
//! let query = DecisionRequest::new("ads.com", "px.ads.com", "https://p.com/a.js", "send");
//! assert!(table.verdict(&query).should_block());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(rust_2018_idioms)]

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
mod ratio;
mod revision;
mod service;
mod snapshot;
mod surrogate;
mod table;

#[cfg(test)]
mod testutil;

pub use concurrent::{SifterReader, SifterWriter, TablePublisher};
pub use decision::{Decision, DecisionRequest, DecisionSource, KeyedRequest};
pub use follower::{ApplyError, DeltaSnapshot, FollowerState};
pub use hierarchy::{ClassCounts, Granularity, HierarchyResult, LevelResult, ResourceEntry};
pub use intern::{FrozenKeys, KeyInterner, ResourceKey};
pub use journal::{DurableDir, Journal, JournalEntry, JournalStats, RecoveryReport, ReplayReport};
pub use label::label_url;
pub use ratio::{Classification, Counts, Thresholds};
pub use revision::{
    compose, diff_revisions, ChangeKind, RevisionChange, RevisionRangeError, VerdictRevision,
};
pub use rewriter::{RewriterBuilder, RewrittenUrl, UrlRewriter};
pub use service::{
    CommitStats, IngestStats, Observation, ObservationRef, ObserveOutcome, ServiceStats, Sifter,
    SifterBuilder, Verdict,
};
pub use snapshot::{SifterSnapshot, SnapshotError};
pub use surrogate::{MethodAction, MethodPlan, SurrogateScript};
pub use table::{ClassTable, PrebuiltDecision, PrebuiltResponses, VerdictTable};
