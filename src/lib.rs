//! Umbrella crate for the TrackerSift reproduction.
//!
//! The real functionality lives in the workspace crates; this crate exists
//! so the repository-level examples (`examples/`) and the cross-crate
//! integration tests (`tests/`) have a home, and so downstream users can
//! depend on one crate and get the whole stack re-exported under a single
//! namespace.
//!
//! The pipeline itself is a staged, parallel execution engine:
//! [`trackersift::Study::run`] chains named, individually timed stages
//! (`generate → crawl → label → classify`, see [`trackersift::StageTimings`]),
//! runs the crawl and labeling stages on a worker pool sized by
//! [`crawler::ClusterConfig::workers`], and groups requests by interned
//! [`trackersift::ResourceKey`] symbols instead of per-request strings.
//! Parallel runs are deterministic: they produce byte-identical results to
//! single-threaded runs.
//!
//! For deployment, the study is a producer of serving state:
//! [`trackersift::Study::sifter`] trains a [`trackersift::Sifter`] that
//! ingests new observations incrementally (`apply` + `commit`), exports
//! the [`trackersift::VerdictTable`] that answers per-request verdicts and
//! decisions allocation-free, and persists its trained state as a
//! versioned [`trackersift::SifterSnapshot`].

#![warn(missing_docs)]
#![warn(unreachable_pub)]

/// The filter-list engine (EasyList / EasyPrivacy semantics).
pub use filterlist;

/// The synthetic web corpus generator.
pub use websim;

/// The instrumented browser simulator and crawl database.
pub use crawler;

/// The rule-driven URL rewriter behind `Decision::Rewrite`.
pub use rewriter;

/// The dependency-free JSON codec of the wire, the snapshots and the stats.
pub use trackersift_json;

/// The serving engine: sifter, verdict tables, decisions, journal,
/// snapshots and replication, without the simulator.
pub use trackersift_engine;

/// The TrackerSift study: labeling, hierarchical classification,
/// sensitivity, call-stack analysis, surrogates, breakage — with the
/// engine re-exported.
pub use trackersift;

/// The HTTP/1.1 verdict server over per-thread reader handles, as a
/// primary or as a read-only replica following one.
pub use trackersift_server;

/// The continuous re-crawl loop over an evolving websim web.
pub use scheduler;

/// Commonly used items, re-exported for the examples and tests.
pub mod prelude {
    pub use crawler::{ClusterConfig, CrawlCluster, CrawlDatabase, LoadOptions, PageLoadSimulator};
    pub use filterlist::{FilterEngine, FilterRequest, ListKind, RequestLabel, ResourceType};
    pub use rewriter::{RewriterBuilder, RewrittenUrl, UrlRewriter};
    pub use scheduler::{Scheduler, SchedulerConfig, ScriptKeying};
    pub use trackersift::breakage::Breakage;
    pub use trackersift::report::RatioHistogram;
    pub use trackersift::{
        Classification, CommitStats, Decision, DecisionRequest, DecisionSource, DeltaSnapshot,
        FollowerState, Granularity, HierarchicalClassifier, IngestStats, KeyInterner, Labeler,
        ObservationRef, ObserveOutcome, ResourceKey, SensitivitySweep, ServiceStats, Sifter,
        SifterBuilder, SifterReader, SifterSnapshot, SifterWriter, SnapshotError, StageTimings,
        Study, StudyConfig, Thresholds, Verdict, VerdictTable,
    };
    pub use trackersift_server::{
        ReplicaConfig, ReplicaStatus, SchedulerDriver, SchedulerStats, ServerConfig, TickSummary,
        VerdictServer,
    };
    pub use websim::{
        CorpusGenerator, CorpusProfile, EcosystemMutator, MutationConfig, Purpose, ScriptArchetype,
        WebCorpus,
    };
}
