//! The `Sifter`: the long-lived trainer behind every served verdict —
//! apply, commit, export.
//!
//! The study's `Study::run` materialises the whole batch
//! pipeline; a deployed content blocker or proxy instead needs a long-lived
//! handle that ingests observations incrementally and exports the state
//! that answers "tracking, functional, or mixed?" per request. This module
//! provides that handle:
//!
//! * [`SifterBuilder`] — builder-pattern configuration (thresholds, filter
//!   lists for raw-traffic labeling, pre-trained state from a
//!   [`SifterSnapshot`]) producing a [`Sifter`];
//! * [`Sifter::apply`] / [`Sifter::apply_batch`] + [`Sifter::commit`] —
//!   incremental ingestion. `apply` accumulates [`Counts`] deltas and marks
//!   the touched resources dirty; `commit` reclassifies **only** the dirty
//!   resources (and whatever their classification flips invalidate
//!   downstream), instead of re-running the full hierarchical
//!   classification. The equivalence tests prove that any interleaving of
//!   `apply`/`commit` ends in exactly the state a from-scratch
//!   classification (the study's `HierarchicalClassifier::classify`)
//!   would produce;
//! * [`Sifter::verdict_table`] — export the committed state as an immutable
//!   [`VerdictTable`], the one type that answers
//!   [`verdict`](VerdictTable::verdict) and [`decide`](VerdictTable::decide)
//!   queries (see [`crate::table`]). The sifter itself answers none: ask the
//!   exported table, or a reader of a concurrent pair;
//! * [`Sifter::snapshot`] / [`SifterBuilder::restore`] — versioned
//!   export/import of the trained state (see [`crate::snapshot`]), so a
//!   serving process restarts without a re-crawl.
//!
//! # The write path
//!
//! One record, one fold, one class writer. Every observation travels as a
//! borrowed [`ObservationRef`] — a view of wherever its strings already lie:
//! the arena a `POST /v1/observations` body decoded into, a caller's
//! `&str`s ([`ObservationRef::parts`], [`ObservationRef::url`]), a
//! labeled request of the study, or the owned [`Observation`] recovery replays — and
//! [`Sifter::apply`] is the one call that folds it ([`Sifter::apply_batch`]
//! folds many). A raw URL is labeled through a
//! [`RequestScratch`] the sifter keeps, and its hostname and domain are
//! slices of that view, so a fold whose keys are already interned allocates
//! nothing. A fold accumulates one count cell per `(method, hostname)` in
//! `fold_cell`, which a snapshot restore feeds too. [`Sifter::commit`]
//! walks the four levels coarsest first; a phase states only what differs
//! per level — who is a member, what its counts are, whom a mixedness flip
//! dirties — and `write_class` alone writes a committed class (member
//! counts, dense class table, member count, method residue) and reports
//! the flip. The committed state of all four levels lives in one array
//! indexed by [`Granularity::index`], so a fifth level is an entry, not a
//! fifth copy. No per-key state is hashed: a key is already a dense id, so
//! each level keeps a slot table indexed by [`ResourceKey::index`] and its
//! keys' state in vectors indexed by slot.
//!
//! # How incremental commits stay equivalent to batch classification
//!
//! The hierarchy's levels are input-conditional: the hostname level only
//! sees requests of *mixed* domains, the script level only requests of
//! mixed hostnames, and so on. A hostname determines its registrable
//! domain, so domain- and hostname-level counts are unconditional and can
//! be accumulated directly. A script, however, fires requests at many
//! hostnames, and only the slice that flows through mixed hostnames counts
//! at script level. The sifter therefore keeps one count cell per
//! `(method, hostname)`, and a commit recomputes a dirty method by summing
//! its cells over the currently-mixed hostnames, and a dirty script by
//! summing its methods' — a method key determines its script, so that is
//! the script's own slice. Classification flips propagate downward through
//! adjacency lists (domain → its hostnames → the methods on them, and each
//! method's script), so a commit touches exactly the resources whose
//! verdicts could have changed.
//!
//! # Serving concurrency
//!
//! An exported [`VerdictTable`] never changes, so any number of threads may
//! query one. For deployments that must keep ingesting while they serve,
//! split the sifter with [`Sifter::into_concurrent`] (or
//! [`SifterBuilder::build_concurrent`]) into a
//! [`SifterWriter`](crate::concurrent::SifterWriter) and cheaply-cloneable
//! [`SifterReader`](crate::concurrent::SifterReader) handles, one per
//! serving thread: a pin serves the table the handle cached, taking no
//! lock unless a table was published since its last pin (then one
//! uncontended acquisition picks it up), and every commit publishes the
//! next table in one atomic swap. A retired table lives until every handle
//! has pinned past it. See [`crate::concurrent`].

use crate::hierarchy::{Granularity, HierarchyResult, LevelResult, ResourceEntry};
use crate::intern::{FrozenKeys, KeyInterner, ResourceKey};
use crate::label::label_url;
use crate::memo::{LabelMemo, Remembered};
use crate::ratio::{Classification, Counts, Thresholds};
use crate::revision::{ChangeKind, RevisionChange, VerdictRevision};
use crate::snapshot::{SifterSnapshot, SnapshotError};
use crate::surrogate::{MethodPlan, SurrogateScript};
use crate::table::{ClassTable, SurrogateEntry, TableParts, VerdictTable};
use filterlist::tokens::TokenHashBuilder;
use filterlist::{FilterEngine, ListKind, RequestLabel, RequestScratch, ResourceType};
use rewriter::UrlRewriter;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use trackersift_json::{object, JsonError, Value};

/// The answer to one [`VerdictTable::verdict`] query.
///
/// A verdict is decided at the *coarsest* granularity that settles it: a
/// domain classified tracking answers every request under it, a mixed
/// domain defers to the hostname level, and so on. When the walk falls off
/// the trained hierarchy below a mixed resource (e.g. a never-observed
/// script on a known-mixed hostname), the verdict is `Mixed` at the last
/// granularity that was observed — the safe answer for a blocker, since
/// neither blanket blocking nor blanket allowing is justified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The hierarchy settled the request at `granularity`.
    Decided {
        /// Tracking, functional, or (still) mixed.
        classification: Classification,
        /// The granularity whose classification decided the verdict.
        granularity: Granularity,
    },
    /// No component of the request was ever observed (unknown domain).
    Unknown,
}

impl Verdict {
    /// The classification, if any component of the request was known.
    pub fn classification(&self) -> Option<Classification> {
        match self {
            Verdict::Decided { classification, .. } => Some(*classification),
            Verdict::Unknown => None,
        }
    }

    /// `true` when a blocker acting on this verdict should block the
    /// request (classified tracking at some granularity).
    pub fn should_block(&self) -> bool {
        self.classification() == Some(Classification::Tracking)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Decided {
                classification,
                granularity,
            } => write!(f, "{classification} (decided at {granularity} level)"),
            Verdict::Unknown => f.write_str("unknown"),
        }
    }
}

/// What one [`Sifter::commit`] did: how many observations it folded in and
/// how many resources it had to reclassify per level. The whole point of
/// incremental ingestion is that these stay proportional to the delta, not
/// to the corpus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Observations folded in by this commit.
    pub observations: u64,
    /// Domains reclassified.
    pub domains: usize,
    /// Hostnames reclassified (dirty plus membership flips from domains).
    pub hostnames: usize,
    /// Scripts reclassified.
    pub scripts: usize,
    /// Methods reclassified.
    pub methods: usize,
}

impl CommitStats {
    /// Total resources reclassified across all four levels.
    pub fn reclassified(&self) -> usize {
        self.domains + self.hostnames + self.scripts + self.methods
    }
}

/// What happened to one [`Sifter::apply`] call.
///
/// Raw-URL ingestion can fail for two very different reasons that the old
/// `Option<RequestLabel>` return conflated: the sifter may have no labeling
/// oracle at all (a configuration problem the caller should fix once), or
/// this particular URL may not parse (a per-request data problem the batch
/// labeling stage also excludes). Both skip reasons are counted on the
/// sifter — see [`Sifter::ingest_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserveOutcome {
    /// The URL was labeled by the filter engine and observed; verdicts will
    /// reflect it after the next [`Sifter::commit`].
    Observed(RequestLabel),
    /// No filter engine is configured ([`SifterBuilder::filter_lists`] /
    /// [`SifterBuilder::engine`]); the request was not observed.
    NoEngine,
    /// The URL did not parse; the request was excluded, exactly as the
    /// batch labeling stage excludes it.
    InvalidUrl,
}

impl ObserveOutcome {
    /// The oracle label, when the request was actually observed.
    pub fn label(&self) -> Option<RequestLabel> {
        match self {
            ObserveOutcome::Observed(label) => Some(*label),
            ObserveOutcome::NoEngine | ObserveOutcome::InvalidUrl => None,
        }
    }

    /// `true` when the request was ingested.
    pub(crate) fn was_observed(&self) -> bool {
        matches!(self, ObserveOutcome::Observed(_))
    }
}

/// The owned form of [`ObservationRef`]: what a client builds to render a
/// `POST /v1/observations` row, and what journal replay decodes
/// ([`JournalEntry::Observation`](crate::JournalEntry::Observation))
/// before lending it back to the write path with [`Observation::as_ref`].
/// The wire carries only the [`Url`](Observation::Url) form: the server
/// labels every observation with its own filter lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Observation {
    /// Pre-labeled attribution parts ([`ObservationRef::parts`]): an
    /// in-process record and a journal frame, never a wire row.
    Parts {
        /// Registrable domain.
        domain: String,
        /// Full hostname.
        hostname: String,
        /// Initiating script URL.
        script: String,
        /// Initiating method name.
        method: String,
        /// The oracle label.
        tracking: bool,
    },
    /// A raw URL for the configured filter engine to label
    /// ([`ObservationRef::url`]) — replayed through the same labeling path,
    /// so recovery is deterministic for a writer configured with the same
    /// engine.
    Url {
        /// The raw request URL.
        url: String,
        /// Hostname of the page issuing the request.
        source_hostname: String,
        /// Resource type of the request.
        resource_type: ResourceType,
        /// Initiating script URL.
        script: String,
        /// Initiating method name.
        method: String,
    },
}

/// One observation, borrowed: the record every stage of the write path
/// carries — read out of the decoded `POST /v1/observations` body, journaled
/// ahead of the fold, folded by [`Sifter::apply`], and replayed through the
/// same call on recovery. `Copy`, so a stage hands it on without touching
/// the strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObservationRef<'a> {
    /// Pre-labeled attribution parts ([`ObservationRef::parts`]).
    Parts {
        /// Registrable domain.
        domain: &'a str,
        /// Full hostname.
        hostname: &'a str,
        /// Initiating script URL.
        script: &'a str,
        /// Initiating method name.
        method: &'a str,
        /// The oracle label.
        tracking: bool,
    },
    /// A raw URL for the configured filter engine to label
    /// ([`ObservationRef::url`]) — replayed through the same labeling path,
    /// so recovery is deterministic for a writer configured with the same
    /// engine.
    Url {
        /// The raw request URL.
        url: &'a str,
        /// Hostname of the page issuing the request.
        source_hostname: &'a str,
        /// Resource type of the request.
        resource_type: ResourceType,
        /// Initiating script URL.
        script: &'a str,
        /// Initiating method name.
        method: &'a str,
    },
}

impl<'a> ObservationRef<'a> {
    /// A pre-labeled observation of its four attribution keys. `domain`
    /// should be the registrable domain of `hostname`; see
    /// [`Sifter::apply`] for what happens when it is not.
    pub fn parts(
        domain: &'a str,
        hostname: &'a str,
        script: &'a str,
        method: &'a str,
        tracking: bool,
    ) -> Self {
        ObservationRef::Parts {
            domain,
            hostname,
            script,
            method,
            tracking,
        }
    }

    /// A raw request for the configured filter engine to label: the
    /// request `url`, the hostname of the page that issued it, its
    /// resource type, and the initiating script and method.
    pub fn url(
        url: &'a str,
        source_hostname: &'a str,
        resource_type: ResourceType,
        script: &'a str,
        method: &'a str,
    ) -> Self {
        ObservationRef::Url {
            url,
            source_hostname,
            resource_type,
            script,
            method,
        }
    }
}

impl Observation {
    /// Lend the record to the write path.
    pub fn as_ref(&self) -> ObservationRef<'_> {
        match self {
            Observation::Parts {
                domain,
                hostname,
                script,
                method,
                tracking,
            } => ObservationRef::parts(domain, hostname, script, method, *tracking),
            Observation::Url {
                url,
                source_hostname,
                resource_type,
                script,
                method,
            } => ObservationRef::url(url, source_hostname, *resource_type, script, method),
        }
    }

    /// Encode as one row of a `POST /v1/observations` body. A
    /// [`Parts`](Observation::Parts) row renders too, as the row the server
    /// refuses with [`Observation::URL_REQUIRED`].
    pub fn to_json_value(&self) -> Value {
        let string = |text: &String| Value::String(text.clone());
        match self {
            Observation::Parts {
                domain,
                hostname,
                script,
                method,
                tracking,
            } => object(vec![
                ("domain", string(domain)),
                ("hostname", string(hostname)),
                ("script", string(script)),
                ("method", string(method)),
                ("tracking", Value::Bool(*tracking)),
            ]),
            Observation::Url {
                url,
                source_hostname,
                resource_type,
                script,
                method,
            } => object(vec![
                ("url", string(url)),
                ("source_hostname", string(source_hostname)),
                (
                    "resource_type",
                    Value::String(resource_type.option_name().to_string()),
                ),
                ("script", string(script)),
                ("method", string(method)),
            ]),
        }
    }

    /// The error a row without `url` decodes to. A client does not label
    /// its own observations: a row carrying a `tracking` flag would fold
    /// into the same count cells as the rows the filter lists labeled.
    pub const URL_REQUIRED: &'static str = "a row without `url` is refused: the server labels \
        observations with its own filter lists, so send `url`, `source_hostname` and \
        `resource_type` instead of a `tracking` label";

    /// Decode one row: a raw-URL observation, or [`Observation::URL_REQUIRED`]
    /// for a row without `url`. The verdict server decodes rows in place
    /// instead and no longer calls this; it stays as the oracle that decoder
    /// is tested against.
    pub fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        if value.get("url").is_none() {
            return Err(JsonError(Self::URL_REQUIRED.to_string()));
        }
        let string = |key: &str| Ok::<_, JsonError>(value.field(key)?.as_str()?.to_string());
        Ok(Observation::Url {
            url: string("url")?,
            source_hostname: string("source_hostname")?,
            resource_type: {
                let name = value.field("resource_type")?.as_str()?;
                ResourceType::from_option_name(name)
                    .ok_or_else(|| JsonError(format!("unknown resource type {name:?}")))?
            },
            script: string("script")?,
            method: string("method")?,
        })
    }
}

/// Ingestion accounting of every [`Sifter::apply`], including the requests
/// that were *not* ingested and why — so a deployment can alarm on
/// configuration problems (`no_engine`) separately from data problems
/// (`invalid_urls`, `conflicting_domains`). The one account of the write
/// path: read it with [`Sifter::ingest_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Observations ever ingested, including pending ones.
    pub observed: u64,
    /// Observations folded into the committed (servable) state.
    pub committed: u64,
    /// Observations waiting for the next commit.
    pub pending: u64,
    /// [`ObservationRef::Url`] rows skipped because the URL did not parse.
    pub invalid_urls: u64,
    /// [`ObservationRef::Url`] rows skipped because no engine is configured.
    pub no_engine: u64,
    /// Observations whose hostname arrived under a different registrable
    /// domain than first seen (ingested under the first-seen domain). This
    /// is how a deployment notices the upstream attribution bug; `/v1/stats`
    /// reports it as `conflicting_observations`.
    pub conflicting_domains: u64,
    /// [`ObservationRef::Url`] rows answered by the label memo: the
    /// triple was labeled in this commit interval or the previous one, so
    /// the filter engine was not asked again. Not part of `/v1/stats`.
    pub labels_reused: u64,
}

/// One consolidated view of a serving sifter's operational state — what a
/// `/v1/stats` endpoint or a monitoring loop reads in a single call instead
/// of stitching together five getters.
///
/// Produced by [`Sifter::service_stats`] (where `version` is the commit
/// count) and [`SifterWriter::service_stats`](crate::concurrent::SifterWriter::service_stats)
/// (where `version` is the *published* table version, which keeps growing
/// monotonically across [`restore_snapshot`](crate::concurrent::SifterWriter::restore_snapshot)
/// even though the underlying commit count resets).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Full ingestion accounting, including skipped requests.
    pub ingest: IngestStats,
    /// The servable table version (commit count, or published version for
    /// the concurrent writer).
    pub version: u64,
    /// Committed requests still attributed to mixed methods (the residue).
    pub unattributed: u64,
    /// Committed member resources per granularity, indexed by
    /// [`Granularity::index`].
    pub resources: [usize; 4],
}

/// Unconditional per-hostname state: owning domain plus raw counts.
#[derive(Debug, Clone, Copy)]
struct HostMeta {
    domain: ResourceKey,
    counts: Counts,
}

/// Immutable attribution of a method key: its script and method-name
/// symbols (needed for membership tests and snapshot export).
#[derive(Debug, Clone, Copy)]
struct MethodMeta {
    script: ResourceKey,
    name: ResourceKey,
}

/// The keys one [`Sifter::apply`] interned, which the next row's strings
/// are compared with before they are hashed: rows of one page arrive
/// together.
#[derive(Debug, Clone, Copy)]
struct RowKeys {
    domain: ResourceKey,
    hostname: ResourceKey,
    script: ResourceKey,
    name: ResourceKey,
    method: ResourceKey,
}

/// Keys marked for the next commit, in first-marked order, with one mark
/// per key so each is listed once. Clearing keeps the list's capacity, so
/// marking the same keys again allocates nothing.
#[derive(Debug, Default)]
struct DirtySet {
    keys: Vec<ResourceKey>,
    marked: Vec<bool>,
}

impl DirtySet {
    fn insert(&mut self, key: ResourceKey) {
        let index = key.index();
        if index >= self.marked.len() {
            self.marked.resize(index + 1, false);
        }
        if !std::mem::replace(&mut self.marked[index], true) {
            self.keys.push(key);
        }
    }

    fn clear(&mut self) {
        for key in self.keys.drain(..) {
            self.marked[key.index()] = false;
        }
    }
}

/// The keys folded at one level, each given a dense slot in first-seen
/// order, and each slot's committed counts. A slot indexes its key's
/// state in the level's vectors, which are sized by the level's keys, not
/// by the interner's: on a crawl about one key in eight is a domain or a
/// hostname, and more than half are method keys.
#[derive(Debug, Default)]
struct Level {
    /// Slot per interned key, indexed by [`ResourceKey::index`];
    /// `Level::NONE` for keys never folded at this level.
    slots: Vec<u32>,
    /// The committed counts of each slot's key; empty counts mean "not a
    /// member" (a member's class is in the sifter's class table).
    committed: Vec<Counts>,
}

impl Level {
    const NONE: u32 = u32::MAX;

    fn slot(&self, key: ResourceKey) -> Option<usize> {
        match self.slots.get(key.index()) {
            Some(&slot) if slot != Self::NONE => Some(slot as usize),
            _ => None,
        }
    }

    /// Give `key`, which has none, the next slot.
    fn add(&mut self, key: ResourceKey) -> usize {
        let index = key.index();
        if index >= self.slots.len() {
            self.slots.resize(index + 1, Self::NONE);
        }
        let slot = self.committed.len();
        self.slots[index] = slot as u32;
        self.committed.push(Counts::new());
        slot
    }

    /// `(key id, slot)` of every key folded at this level, in id order.
    fn iter(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != Self::NONE)
            .map(|(key, &slot)| (key as u32, slot as usize))
    }
}

/// Builder-pattern configuration of a [`Sifter`].
///
/// ```
/// use trackersift_engine::{Sifter, Thresholds};
///
/// let sifter = Sifter::builder().thresholds(Thresholds::paper()).build();
/// assert_eq!(sifter.ingest_stats().observed, 0);
/// ```
#[derive(Debug, Default)]
pub struct SifterBuilder {
    thresholds: Thresholds,
    engine: Option<Arc<FilterEngine>>,
    rewriter: Option<Arc<UrlRewriter>>,
}

impl SifterBuilder {
    /// A builder with the paper's thresholds and no filter engine.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Set the classification thresholds.
    pub fn thresholds(mut self, thresholds: Thresholds) -> Self {
        self.thresholds = thresholds;
        self
    }

    /// Compile filter lists into the labeling oracle the sifter uses for
    /// [`ObservationRef::Url`] rows (raw-traffic ingestion) and the filter-list
    /// backstop of [`VerdictTable::decide`].
    pub fn filter_lists(mut self, lists: &[(ListKind, &str)]) -> Self {
        self.engine = Some(Arc::new(FilterEngine::from_lists(lists)));
        self
    }

    /// Use an already-compiled filter engine as the labeling oracle.
    pub fn engine(mut self, engine: FilterEngine) -> Self {
        self.engine = Some(Arc::new(engine));
        self
    }

    /// Share an already-compiled filter engine (no recompilation, no copy)
    /// — how a serving process reuses one engine across sifter rebuilds,
    /// e.g. when restoring a snapshot into a running writer.
    pub fn shared_engine(mut self, engine: Arc<FilterEngine>) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Use a compiled [`UrlRewriter`] as the rewrite arm of
    /// [`VerdictTable::decide`]: mixed requests whose URLs carry identifier
    /// parameters are answered with
    /// [`Decision::Rewrite`](crate::Decision::Rewrite) instead of
    /// the filter-list backstop. See [`crate::Decision`] for where rewrites sit
    /// in the policy (Allow < Rewrite < Surrogate < Block).
    pub fn rewriter(mut self, rewriter: UrlRewriter) -> Self {
        self.rewriter = Some(Arc::new(rewriter));
        self
    }

    /// Share an already-compiled rewriter (no copy) across sifter rebuilds,
    /// mirroring [`SifterBuilder::shared_engine`].
    pub(crate) fn shared_rewriter(mut self, rewriter: Arc<UrlRewriter>) -> Self {
        self.rewriter = Some(rewriter);
        self
    }

    /// Produce an empty sifter (no pre-trained state).
    pub fn build(self) -> Sifter {
        Sifter {
            thresholds: self.thresholds,
            engine: self.engine,
            scratch: RequestScratch::new(),
            labels: LabelMemo::default(),
            rewriter: self.rewriter,
            interner: KeyInterner::new(),
            last_row: None,
            levels: Default::default(),
            domain_counts: Vec::new(),
            hosts_of_domain: Vec::new(),
            host_meta: Vec::new(),
            methods_of_host: Vec::new(),
            methods_of_script: Vec::new(),
            method_meta: Vec::new(),
            cells: Vec::new(),
            members: [0; 4],
            dirty: Default::default(),
            plans_dirty: DirtySet::default(),
            classes: ClassTable::default(),
            surrogates: HashMap::default(),
            frozen: None,
            changed: Vec::new(),
            plans_changed: Vec::new(),
            ingest: IngestStats::default(),
            residue_requests: 0,
            commits: 0,
        }
    }

    /// Produce an empty concurrent reader/writer pair directly — shorthand
    /// for [`SifterBuilder::build`] followed by [`Sifter::into_concurrent`].
    ///
    /// ```
    /// use trackersift_engine::{Sifter, Thresholds};
    ///
    /// let (writer, reader) = Sifter::builder()
    ///     .thresholds(Thresholds::paper())
    ///     .build_concurrent();
    /// assert_eq!(writer.sifter().ingest_stats().observed, 0);
    /// assert_eq!(reader.version(), 0);
    /// ```
    pub fn build_concurrent(
        self,
    ) -> (
        crate::concurrent::SifterWriter,
        crate::concurrent::SifterReader,
    ) {
        self.build().into_concurrent()
    }

    /// Produce a sifter pre-trained from a [`SifterSnapshot`] (the state a
    /// previous process exported with [`Sifter::snapshot`]). The snapshot's
    /// thresholds take precedence over [`SifterBuilder::thresholds`]; a
    /// configured filter engine and rewriter are kept. All restored
    /// observations are
    /// committed, so the returned sifter serves verdicts immediately.
    pub fn restore(self, snapshot: &SifterSnapshot) -> Result<Sifter, SnapshotError> {
        if !snapshot.threshold.is_finite() || snapshot.threshold <= 0.0 {
            return Err(SnapshotError::Corrupt(format!(
                "threshold {} is not positive",
                snapshot.threshold
            )));
        }
        let mut sifter = self
            .thresholds(Thresholds {
                log_ratio: snapshot.threshold,
            })
            .build();
        sifter.load(snapshot)?;
        Ok(sifter)
    }
}

/// The long-lived trainer of TrackerSift's hierarchical state: apply,
/// commit, export. Built by [`SifterBuilder`]; queries are answered by the
/// [`VerdictTable`] it exports — see the module docs of `service.rs`.
#[derive(Debug)]
pub struct Sifter {
    thresholds: Thresholds,
    engine: Option<Arc<FilterEngine>>,
    /// The buffers [`Sifter::apply`] builds each raw request's view in.
    scratch: RequestScratch,
    /// What [`Sifter::apply`] labeled each raw triple as in this commit
    /// interval and the previous one (see the `memo` module).
    labels: LabelMemo,
    rewriter: Option<Arc<UrlRewriter>>,
    interner: KeyInterner,
    /// The keys the last [`Sifter::apply`] interned (see [`RowKeys`]).
    last_row: Option<RowKeys>,

    // -- accumulated observations, grown only by `fold_cell` and the two
    // `register_*` calls it makes on a new hostname or method --
    /// Per level, indexed by [`Granularity::index`]: the slot of every key
    /// folded at that level, and each slot's committed counts. The members
    /// are every committed domain; hostnames whose domain is mixed; scripts
    /// with requests through mixed hostnames; methods of mixed scripts.
    /// Every vector below is indexed by the slot of its level.
    levels: [Level; 4],
    /// Per domain: unconditional counts, and its hostnames in first-seen
    /// order.
    domain_counts: Vec<Counts>,
    hosts_of_domain: Vec<Vec<ResourceKey>>,
    /// Per hostname: owning domain + unconditional counts, and the methods
    /// with a cell on it in first-seen order.
    host_meta: Vec<HostMeta>,
    methods_of_host: Vec<Vec<ResourceKey>>,
    /// Per script: its methods in first-seen order.
    methods_of_script: Vec<Vec<ResourceKey>>,
    /// Per method: its script and name symbols, and the one count cell
    /// store — one `(hostname, counts)` cell per hostname the method was
    /// observed on, in first-seen order. A script's cells are its methods'.
    method_meta: Vec<MethodMeta>,
    cells: Vec<Vec<(ResourceKey, Counts)>>,

    // -- committed serving state (written only by `write_class`) --
    /// Member keys per level, indexed by [`Granularity::index`].
    members: [usize; 4],
    /// Per level, the resources the next `commit` reclassifies.
    dirty: [DirtySet; 4],
    /// Scripts whose surrogate plan the running `commit` must rebuild;
    /// empty between commits.
    plans_dirty: DirtySet,

    // -- the flattened serving representation (see `crate::table`) --
    /// Dense committed classifications per granularity, patched in place
    /// alongside the levels' committed counts — the one copy of every
    /// committed class.
    classes: ClassTable,
    /// Surrogate plans (with their preformatted wire frames) for every
    /// committed mixed script, maintained incrementally by `commit` (only
    /// scripts whose classification or member methods changed are rebuilt).
    /// `Arc` payloads so publishing a [`VerdictTable`] clones pointers, not
    /// strings.
    surrogates: HashMap<ResourceKey, SurrogateEntry, TokenHashBuilder>,
    /// Cached frozen key view for publishing [`VerdictTable`]s; refreshed
    /// lazily when the interner has grown since the last freeze.
    frozen: Option<Arc<FrozenKeys>>,

    // -- what the last `commit` wrote (cleared at its start) --
    /// Every class change `write_class` made, as it made it.
    changed: Vec<(Granularity, ResourceKey, ChangeKind)>,
    /// Every script whose surrogate plan the plan refresh rebuilt or
    /// dropped.
    plans_changed: Vec<ResourceKey>,

    /// The ingestion accounting [`Sifter::apply`] and `commit` keep, in
    /// the shape [`Sifter::ingest_stats`] reports it.
    ingest: IngestStats,
    /// Committed requests still attributed to mixed methods (the residue).
    residue_requests: u64,
    /// Commits performed.
    commits: u64,
}

// A sifter moves into the writer half of a concurrent pair, which worker
// threads own.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Sifter>();
};

impl Sifter {
    /// Start building a sifter.
    pub fn builder() -> SifterBuilder {
        SifterBuilder::new()
    }

    /// Commits performed so far.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// The full ingestion accounting, including requests that were skipped
    /// and why (see [`IngestStats`]).
    pub fn ingest_stats(&self) -> IngestStats {
        self.ingest
    }

    /// One consolidated view of the serving state (ingest accounting,
    /// conflicts, table version, residue, member counts) — see
    /// [`ServiceStats`].
    pub fn service_stats(&self) -> ServiceStats {
        ServiceStats {
            ingest: self.ingest_stats(),
            version: self.commits,
            unattributed: self.residue_requests,
            resources: Granularity::ALL.map(|level| self.committed_resources(level)),
        }
    }

    /// The shared filter engine, if one was configured.
    pub(crate) fn engine_arc(&self) -> Option<Arc<FilterEngine>> {
        self.engine.clone()
    }

    /// The shared URL rewriter, if one was configured.
    pub(crate) fn rewriter_arc(&self) -> Option<Arc<UrlRewriter>> {
        self.rewriter.clone()
    }

    /// Number of committed member resources at a granularity.
    pub(crate) fn committed_resources(&self, granularity: Granularity) -> usize {
        self.members[granularity.index()]
    }

    // -----------------------------------------------------------------
    // ingestion
    // -----------------------------------------------------------------

    /// Ingest one observation: intern its keys and buffer it into count
    /// deltas and dirty marks; verdicts do not change until the next
    /// [`Sifter::commit`]. The one call every write goes through — the
    /// writer's [`apply`](crate::concurrent::SifterWriter::apply), and
    /// through it the server's admin thread and journal recovery.
    ///
    /// [`ObservationRef::Parts`] are always observed, under the label they
    /// carry. Their `domain` should be the registrable domain of `hostname`
    /// — the invariant every request the study's labeling stage produces
    /// satisfies by construction. When a hostname arrives under a
    /// *different* domain than it was first observed with, the sifter
    /// degrades gracefully instead of corrupting the hierarchy (a hostname
    /// must belong to exactly one domain): the observation is credited to
    /// the first-seen domain and the event is counted in
    /// [`IngestStats::conflicting_domains`].
    ///
    /// An [`ObservationRef::Url`] is labeled with the configured filter
    /// engine, and its hostname and registrable domain derived from the
    /// URL. The returned [`ObserveOutcome`] distinguishes "labeled and
    /// observed" from the two skip reasons — no engine configured
    /// ([`ObserveOutcome::NoEngine`]) and unparseable URL
    /// ([`ObserveOutcome::InvalidUrl`], excluded exactly as the batch
    /// labeling stage excludes it) — and every skip is counted in
    /// [`Sifter::ingest_stats`].
    ///
    /// The label is remembered for a commit interval and the next: a
    /// `(url, source_hostname, resource_type)` triple, compared byte for
    /// byte, that was labeled in this interval or the previous one is
    /// answered with that label and its already-interned hostname and
    /// domain, without building the request view or asking the engine
    /// (counted in [`IngestStats::labels_reused`]). [`Sifter::commit`] ends
    /// an interval, and so does every 65,536th remembered triple of a
    /// stream that does not commit. The memo holds the URLs of at most two
    /// intervals' distinct triples, once each, in an arena it grows to no
    /// more than 1.25× their bytes, each page host once, and one index
    /// table of 25 bytes a slot; on a re-crawl the arena stays within 1.5×
    /// the key bytes of the last interval's rows. The engine never changes
    /// under a sifter, so a remembered label is the label; unparseable URLs
    /// are not remembered.
    pub fn apply(&mut self, observation: ObservationRef<'_>) -> ObserveOutcome {
        // Both arms intern the claimed domain and then the hostname (a
        // label-memo hit reuses the ids its triple interned then), so key
        // ids do not depend on which form a row takes. Each string is first
        // compared with the key the previous row interned for it.
        let last = self.last_row;
        let (domain, hostname, script, method, label) = match observation {
            ObservationRef::Parts {
                domain,
                hostname,
                script,
                method,
                tracking,
            } => {
                let domain = self.interner.intern_hinted(last.map(|r| r.domain), domain);
                let hostname = self
                    .interner
                    .intern_hinted(last.map(|r| r.hostname), hostname);
                let label = if tracking {
                    RequestLabel::Tracking
                } else {
                    RequestLabel::Functional
                };
                (domain, hostname, script, method, label)
            }
            ObservationRef::Url {
                url,
                source_hostname,
                resource_type,
                script,
                method,
            } => {
                let Some(engine) = self.engine.as_deref() else {
                    self.ingest.no_engine += 1;
                    return ObserveOutcome::NoEngine;
                };
                let hash = LabelMemo::hash(url, source_hostname, resource_type);
                let remembered = match self.labels.get(hash, url, source_hostname, resource_type) {
                    Some(remembered) => {
                        self.ingest.labels_reused += 1;
                        remembered
                    }
                    None => {
                        let Some((label, hostname, domain)) = label_url(
                            engine,
                            &mut self.scratch,
                            url,
                            source_hostname,
                            resource_type,
                        ) else {
                            self.ingest.invalid_urls += 1;
                            return ObserveOutcome::InvalidUrl;
                        };
                        let domain = self.interner.intern(domain);
                        let remembered = Remembered {
                            label,
                            hostname: self.interner.intern(hostname),
                            domain,
                        };
                        self.labels
                            .insert(hash, url, source_hostname, resource_type, remembered);
                        remembered
                    }
                };
                let Remembered {
                    label,
                    hostname,
                    domain,
                } = remembered;
                (domain, hostname, script, method, label)
            }
        };
        let s = self.interner.intern_hinted(last.map(|r| r.script), script);
        let name = self.interner.intern_hinted(last.map(|r| r.name), method);
        let m = match last {
            Some(row) if (row.script, row.name) == (s, name) => row.method,
            _ => self
                .interner
                .intern_method_pair((s, script), (name, method)),
        };
        self.last_row = Some(RowKeys {
            domain,
            hostname,
            script: s,
            name,
            method: m,
        });
        let mut counts = Counts::new();
        counts.record(label.is_tracking());
        self.fold_cell(domain, hostname, s, name, m, counts);
        ObserveOutcome::Observed(label)
    }

    /// [`Sifter::apply`] every row, in order; returns how many were
    /// observed (as `ObserveOutcome::was_observed`).
    pub fn apply_batch<'a>(&mut self, rows: impl IntoIterator<Item = ObservationRef<'a>>) -> u64 {
        rows.into_iter()
            .filter(|&row| self.apply(row).was_observed())
            .count() as u64
    }

    /// [`Sifter::apply_batch`] of labeled requests, each `request.into()`.
    /// New code calls `apply_batch`; this stays only while the benchmark
    /// harness (`bench_e2e`'s `study.rs` and `serve.rs`) names it, until
    /// ROADMAP items 1(e) and 11 move it off.
    pub fn observe_all<'a, R: 'a>(&mut self, requests: impl IntoIterator<Item = &'a R>)
    where
        &'a R: Into<ObservationRef<'a>>,
    {
        self.apply_batch(requests.into_iter().map(Into::into));
    }

    /// The label memo's `(arena, index table)` bytes.
    #[cfg(test)]
    pub(crate) fn label_memo_footprint(&self) -> (usize, usize) {
        self.labels.footprint()
    }

    /// Accumulate `counts` requests of method `m` (script `s`, method-name
    /// symbol `name`) on hostname `h`: the one place the count cells — one
    /// per `(method, hostname)` — the adjacency lists and the dirty sets
    /// grow. One observation is a cell of one request; a snapshot restore
    /// feeds whole cells.
    fn fold_cell(
        &mut self,
        claimed: ResourceKey,
        h: ResourceKey,
        s: ResourceKey,
        name: ResourceKey,
        m: ResourceKey,
        counts: Counts,
    ) {
        let [domains, hosts, _, methods] = Granularity::ALL.map(Granularity::index);
        // Resolve the *effective* domain first: the hostname's first-seen
        // domain wins, so domain counts and hostname ownership can never
        // disagree.
        let hs = match self.levels[hosts].slot(h) {
            Some(hs) => hs,
            None => self.register_host(h, claimed),
        };
        let meta = &mut self.host_meta[hs];
        if meta.domain != claimed {
            self.ingest.conflicting_domains += 1;
        }
        meta.counts.merge(counts);
        let d = meta.domain;
        let ds = self.levels[domains].slot(d).expect("a hostname's domain");
        self.domain_counts[ds].merge(counts);
        let ms = match self.levels[methods].slot(m) {
            Some(ms) => ms,
            None => self.register_method(m, s, name),
        };
        let cells = &mut self.cells[ms];
        match cells.iter_mut().find(|(host, _)| *host == h) {
            Some((_, cell)) => cell.merge(counts),
            None => {
                cells.push((h, counts));
                self.methods_of_host[hs].push(m);
            }
        }

        // One key per level, coarsest first ([`Granularity::index`]).
        for (level, key) in [d, h, s, m].into_iter().enumerate() {
            self.dirty[level].insert(key);
        }
        self.ingest.observed += counts.total();
        self.ingest.pending += counts.total();
    }

    /// Give hostname `h` a slot owned by domain `d` (which gets one too if
    /// it has none), with no counts yet; returns the hostname's slot.
    fn register_host(&mut self, h: ResourceKey, d: ResourceKey) -> usize {
        let [domains, hosts, ..] = Granularity::ALL.map(Granularity::index);
        let ds = match self.levels[domains].slot(d) {
            Some(ds) => ds,
            None => {
                self.domain_counts.push(Counts::new());
                self.hosts_of_domain.push(Vec::new());
                self.levels[domains].add(d)
            }
        };
        self.hosts_of_domain[ds].push(h);
        self.host_meta.push(HostMeta {
            domain: d,
            counts: Counts::new(),
        });
        self.methods_of_host.push(Vec::new());
        self.levels[hosts].add(h)
    }

    /// Give method `m` of script `s` (which gets a slot too if it has
    /// none) a slot with no cells yet; returns the method's slot.
    fn register_method(&mut self, m: ResourceKey, s: ResourceKey, name: ResourceKey) -> usize {
        let [_, _, scripts, methods] = Granularity::ALL.map(Granularity::index);
        let ss = match self.levels[scripts].slot(s) {
            Some(ss) => ss,
            None => {
                self.methods_of_script.push(Vec::new());
                self.levels[scripts].add(s)
            }
        };
        self.methods_of_script[ss].push(m);
        self.method_meta.push(MethodMeta { script: s, name });
        // Most methods are only ever seen on one hostname.
        self.cells.push(Vec::with_capacity(1));
        self.levels[methods].add(m)
    }

    /// Fold all pending observations into the servable state by
    /// reclassifying only the dirty resources, coarsest level first.
    /// Classification flips at one level dirty exactly the dependent
    /// resources of the next, so the work is proportional to the delta (and
    /// its blast radius), never to the corpus.
    ///
    /// Each phase says only what differs per level — who is a member, what
    /// its counts are, whom a mixedness flip dirties; `write_class` does the
    /// rest. A commit also ends the interval of [`Sifter::apply`]'s
    /// label memo, which is a counter bump.
    ///
    /// The commit keeps what it wrote — each class change as `write_class`
    /// makes it, each plan the refresh rebuilds or drops — until the next
    /// commit starts; the concurrent writer turns that record into the
    /// commit's [`VerdictRevision`]. Each level's dirty set is drained
    /// once and a flip only dirties finer levels, so a `(level, key)` is
    /// written at most once per commit and the record is the net change.
    pub fn commit(&mut self) -> CommitStats {
        let mut stats = CommitStats {
            observations: self.ingest.pending,
            ..CommitStats::default()
        };
        self.changed.clear();
        self.plans_changed.clear();
        let [domains, hosts, scripts, methods] = Granularity::ALL.map(Granularity::index);

        // Each phase walks its level's dirty list by position: a phase
        // marks only finer levels, so its own list stays put until it is
        // cleared.

        // Phase 1: domains. Every observed domain is a member; a flip
        // changes the membership of the domain's entire hostname set.
        stats.domains = self.dirty[domains].keys.len();
        for i in 0..stats.domains {
            let d = self.dirty[domains].keys[i];
            let ds = self.slot(Granularity::Domain, d);
            if self.write_class(Granularity::Domain, d, Some(self.domain_counts[ds])) {
                for &h in &self.hosts_of_domain[ds] {
                    self.dirty[hosts].insert(h);
                }
            }
        }
        self.dirty[domains].clear();

        // Phase 2: hostnames. Membership = the owning domain is mixed; a
        // flip changes which cells count toward every method seen on this
        // host, and so toward each method's script.
        stats.hostnames = self.dirty[hosts].keys.len();
        for i in 0..stats.hostnames {
            let h = self.dirty[hosts].keys[i];
            let hs = self.slot(Granularity::Hostname, h);
            let meta = self.host_meta[hs];
            let member = self
                .is_mixed(Granularity::Domain, meta.domain)
                .then_some(meta.counts);
            if self.write_class(Granularity::Hostname, h, member) {
                for &m in &self.methods_of_host[hs] {
                    let ms = self.levels[methods].slot(m).expect("a folded method");
                    self.dirty[methods].insert(m);
                    self.dirty[scripts].insert(self.method_meta[ms].script);
                }
            }
        }
        self.dirty[hosts].clear();

        // Phase 3: scripts. A script's level counts are the sum of its
        // methods' cells over currently mixed hostnames; zero total means
        // the script is not a member of the level at all. Each reclassified
        // script's surrogate plan is rebuilt after phase 4, and so is the
        // plan of each reclassified method's script (below). Everything
        // else keeps its cached plan, so plan maintenance stays
        // proportional to the delta.
        stats.scripts = self.dirty[scripts].keys.len();
        for i in 0..stats.scripts {
            let s = self.dirty[scripts].keys[i];
            let ss = self.slot(Granularity::Script, s);
            self.plans_dirty.insert(s);
            let mut counts = Counts::new();
            for &m in &self.methods_of_script[ss] {
                counts.merge(self.member_counts(m));
            }
            if self.write_class(Granularity::Script, s, Some(counts)) {
                for &m in &self.methods_of_script[ss] {
                    self.dirty[methods].insert(m);
                }
            }
        }
        self.dirty[scripts].clear();

        // Phase 4: methods. Membership = the owning script is mixed (and
        // the method has cells on mixed hostnames); mixed member methods
        // are the residue.
        stats.methods = self.dirty[methods].keys.len();
        for i in 0..stats.methods {
            let m = self.dirty[methods].keys[i];
            let script = self.method_meta[self.slot(Granularity::Method, m)].script;
            self.plans_dirty.insert(script);
            let member = self
                .is_mixed(Granularity::Script, script)
                .then(|| self.member_counts(m));
            self.write_class(Granularity::Method, m, member);
        }
        self.dirty[methods].clear();

        // Refresh the surrogate plans of exactly the scripts this commit
        // could have changed: a committed-mixed script (re)gains its plan,
        // everything else drops out of the map.
        for i in 0..self.plans_dirty.keys.len() {
            let s = self.plans_dirty.keys[i];
            let mixed = self.is_mixed(Granularity::Script, s);
            let changed = match mixed.then(|| self.plan_for_script(s)).flatten() {
                Some(plan) => {
                    self.surrogates
                        .insert(s, SurrogateEntry::new(Arc::new(plan)));
                    true
                }
                None => self.surrogates.remove(&s).is_some(),
            };
            if changed {
                self.plans_changed.push(s);
            }
        }
        self.plans_dirty.clear();

        self.ingest.committed = self.ingest.observed;
        self.ingest.pending = 0;
        self.commits += 1;
        self.labels.flip();
        stats
    }

    /// The slot of `key`, which was folded at `level`.
    fn slot(&self, level: Granularity, key: ResourceKey) -> usize {
        self.levels[level.index()]
            .slot(key)
            .expect("a folded key has a slot")
    }

    /// Whether `key` is a committed member of `level` classified mixed —
    /// the condition every finer level's membership hangs on.
    fn is_mixed(&self, level: Granularity, key: ResourceKey) -> bool {
        self.classes.class(level, key) == Some(Classification::Mixed)
    }

    /// Commit the class of `key` at `level`: classify `member`'s counts
    /// (`None` or empty counts = not a member of the level), and write the
    /// result to the member counts, the dense class table, the member
    /// count and the method-level residue together — the only place any of
    /// them changes — and record the class change, if any, for the
    /// commit's revision. Returns whether the key's mixedness flipped, i.e.
    /// whether the next level's membership moved with it.
    fn write_class(
        &mut self,
        level: Granularity,
        key: ResourceKey,
        member: Option<Counts>,
    ) -> bool {
        let counts = member.unwrap_or_default();
        let class = (!counts.is_empty()).then(|| {
            self.thresholds
                .classify(&counts)
                .expect("nonzero counts classify")
        });
        let previous = self.classes.class(level, key);
        let slot = self.slot(level, key);
        let previous_counts =
            std::mem::replace(&mut self.levels[level.index()].committed[slot], counts);
        self.classes.set(level, key, class);
        let members = &mut self.members[level.index()];
        *members = *members + usize::from(class.is_some()) - usize::from(previous.is_some());
        if let Some(kind) = ChangeKind::of(previous, class) {
            self.changed.push((level, key, kind));
        }
        // Mixed member methods are the residue.
        let mixed = |class| class == Some(Classification::Mixed);
        if level == Granularity::Method {
            let requests = |class, counts: Counts| if mixed(class) { counts.total() } else { 0 };
            self.residue_requests = self.residue_requests - requests(previous, previous_counts)
                + requests(class, counts);
        }
        mixed(previous) != mixed(class)
    }

    /// Sum a method's count cells over the currently mixed hostnames it
    /// was observed on.
    fn member_counts(&self, m: ResourceKey) -> Counts {
        let mut counts = Counts::new();
        for &(h, cell) in &self.cells[self.slot(Granularity::Method, m)] {
            if self.is_mixed(Granularity::Hostname, h) {
                counts.merge(cell);
            }
        }
        counts
    }

    // -----------------------------------------------------------------
    // export
    // -----------------------------------------------------------------

    /// Build the surrogate plan for one committed script from scratch: its
    /// member methods (in name order) with their committed classifications
    /// and counts, reduced through the same constructor the batch
    /// [`generate_surrogates`](crate::surrogate::generate_surrogates) path
    /// uses. `None` when the script has no committed member methods (a
    /// surrogate with nothing to keep, stub, or guard is no surrogate).
    /// `commit` calls this for exactly the scripts a delta touched and
    /// caches the results in `surrogates`; the exported table serves from
    /// the cache.
    ///
    /// Serving-side plans carry no call stacks, so guards for
    /// still-mixed methods have no divergence predicates (empty
    /// `blocked_callers`) — they preserve the functional traffic and
    /// suppress nothing, exactly the conservative degradation the batch
    /// path applies when divergence analysis finds nothing.
    fn plan_for_script(&self, script: ResourceKey) -> Option<SurrogateScript> {
        let methods = &self.levels[Granularity::Method.index()];
        let mut plans: Vec<MethodPlan> = self.methods_of_script
            [self.slot(Granularity::Script, script)]
        .iter()
        .filter_map(|&m| {
            let classification = self.classes.class(Granularity::Method, m)?;
            let ms = methods.slot(m)?;
            let counts = methods.committed[ms];
            Some(MethodPlan {
                name: self.interner.resolve(self.method_meta[ms].name).to_string(),
                classification,
                tracking: counts.tracking,
                functional: counts.functional,
                blocked_callers: Vec::new(),
            })
        })
        .collect();
        if plans.is_empty() {
            return None;
        }
        plans.sort_by(|a, b| a.name.cmp(&b.name));
        Some(SurrogateScript::from_method_plans(
            self.interner.resolve(script).to_string(),
            plans,
        ))
    }

    /// Export the committed serving state as an immutable, point-in-time
    /// [`VerdictTable`] — the one type that answers verdict and decision
    /// queries, and the unit the concurrent writer publishes. The frozen
    /// key view is cached and re-cloned only when the interner has grown
    /// since the last call, so successive exports after small commits stay
    /// cheap.
    ///
    /// Scaling caveat: when a delta *did* intern new keys, the re-freeze
    /// copies the key store's id and lookup tables — O(total keys), not
    /// O(delta), though as a few flat buffer copies with no per-key
    /// allocation or refcount. Key bytes are copied only from the open
    /// arena chunk (at most 64 KiB); sealed chunks are shared. A frozen
    /// base plus a per-commit delta of new ids is the known next step if
    /// novel-key churn ever dominates commit latency.
    pub fn verdict_table(&mut self) -> VerdictTable {
        self.table_at(self.commits, 0, Vec::new())
    }

    /// [`Sifter::verdict_table`] published as `version` under key epoch
    /// `keys_epoch` with the revision ring `revisions` — what the
    /// concurrent writer publishes, built complete in one construction.
    pub(crate) fn table_at(
        &mut self,
        version: u64,
        keys_epoch: u64,
        revisions: Vec<Arc<VerdictRevision>>,
    ) -> VerdictTable {
        VerdictTable::new(TableParts {
            keys: self.interner.frozen(&mut self.frozen),
            classes: self.classes.clone(),
            version,
            committed: self.ingest.committed,
            residue: self.residue_requests,
            keys_epoch,
            engine: self.engine.clone(),
            url_rewriter: self.rewriter.clone(),
            surrogates: Arc::new(self.surrogates.clone()),
            revisions,
        })
    }

    /// What the last [`Sifter::commit`] wrote, as revision `version`: the
    /// class changes `write_class` recorded and the scripts whose plans it
    /// rebuilt or dropped, each key string copied out of the interner —
    /// O(changes), whatever the number of keys.
    pub(crate) fn revision(&self, version: u64) -> VerdictRevision {
        let changes = self
            .changed
            .iter()
            .map(|&(granularity, key, kind)| RevisionChange {
                granularity,
                key: Arc::from(self.interner.resolve(key)),
                kind,
            })
            .collect();
        let plans = self
            .plans_changed
            .iter()
            .map(|&script| Arc::from(self.interner.resolve(script)))
            .collect();
        VerdictRevision::with_plans(version, changes, plans)
    }

    /// Materialise the committed state as a [`HierarchyResult`] — exactly
    /// what the study's `HierarchicalClassifier::classify` over every committed
    /// observation would return, byte for byte (the equivalence the service
    /// tests pin down). This is how the report/metrics layer reads a
    /// sifter.
    pub fn hierarchy(&self) -> HierarchyResult {
        HierarchyResult {
            thresholds: self.thresholds,
            total_requests: self.ingest.committed,
            unattributed_requests: self.residue_requests,
            levels: Granularity::ALL.map(|level| self.level(level)).into(),
        }
    }

    fn level(&self, granularity: Granularity) -> LevelResult {
        let level = &self.levels[granularity.index()];
        let resources: Vec<ResourceEntry> = self
            .interner
            .iter()
            .filter_map(|(k, key)| {
                Some(ResourceEntry {
                    classification: self.classes.class(granularity, k)?,
                    key: key.to_string(),
                    counts: level.committed[level.slot(k)?],
                })
            })
            .collect();
        let input_requests = match granularity {
            Granularity::Domain => self.ingest.committed,
            _ => resources.iter().map(|r| r.counts.total()).sum(),
        };
        LevelResult::from_entries(granularity, resources, input_requests)
    }

    /// Export the full trained state (including pending, uncommitted
    /// observations) as a versioned [`SifterSnapshot`]. Restoring the
    /// snapshot commits everything, so exporting with pending observations
    /// is safe but the restored process will already see them applied;
    /// export after [`Sifter::commit`] to round-trip the exact serving
    /// state.
    pub fn snapshot(&self) -> SifterSnapshot {
        let keys = self.interner.freeze_strings();
        // Rows come out in id order (cells by method, then hostname), each
        // vector sized before it is filled.
        let (hosts, methods) = (
            &self.levels[Granularity::Hostname.index()],
            &self.levels[Granularity::Method.index()],
        );
        let mut hostnames = Vec::with_capacity(self.host_meta.len());
        hostnames.extend(
            hosts
                .iter()
                .map(|(h, hs)| (h, self.host_meta[hs].domain.index() as u32)),
        );
        let mut method_rows = Vec::with_capacity(self.method_meta.len());
        method_rows.extend(methods.iter().map(|(m, ms)| {
            let meta = self.method_meta[ms];
            (m, meta.script.index() as u32, meta.name.index() as u32)
        }));
        let mut cells = Vec::with_capacity(self.cells.iter().map(Vec::len).sum());
        for (m, ms) in methods.iter() {
            let first = cells.len();
            cells.extend(
                self.cells[ms]
                    .iter()
                    .map(|&(h, counts)| (m, h.index() as u32, counts.tracking, counts.functional)),
            );
            cells[first..].sort_unstable();
        }
        SifterSnapshot {
            threshold: self.thresholds.log_ratio,
            observed: self.ingest.observed,
            keys,
            hostnames,
            methods: method_rows,
            cells,
        }
    }

    /// Rebuild state from a snapshot (empty sifter only) and commit it.
    fn load(&mut self, snapshot: &SifterSnapshot) -> Result<(), SnapshotError> {
        debug_assert_eq!(self.ingest.observed, 0, "load requires an empty sifter");
        // 1. Restore the interner verbatim so every persisted id resolves
        //    to the same string (and verdict/export bytes cannot drift).
        //    The snapshot's keys are distinct and this interner is empty,
        //    so each string gets its persisted id back.
        for (persisted, key) in snapshot.keys.iter() {
            let id = self.interner.intern(key);
            debug_assert_eq!(id, persisted);
        }
        let key = |id: u32| {
            snapshot.keys.key_for_id(id).ok_or_else(|| {
                SnapshotError::Corrupt(format!(
                    "key id {id} out of range ({} keys)",
                    snapshot.keys.len()
                ))
            })
        };
        let string = |key: ResourceKey| snapshot.keys.string(key).expect("bounds-checked");
        // 2. Hostname → domain ownership.
        for &(h_id, d_id) in &snapshot.hostnames {
            let (h, d) = (key(h_id)?, key(d_id)?);
            if self.levels[Granularity::Hostname.index()].slot(h).is_some() {
                return Err(SnapshotError::Corrupt(format!(
                    "hostname id {h_id} listed twice"
                )));
            }
            self.register_host(h, d);
        }
        // 3. Method → (script, name) attribution; re-interning the pair
        //    also repopulates the interner's pair cache.
        for &(m_id, s_id, name_id) in &snapshot.methods {
            let (m, s, name) = (key(m_id)?, key(s_id)?, key(name_id)?);
            if self
                .interner
                .intern_method_pair((s, string(s)), (name, string(name)))
                != m
            {
                return Err(SnapshotError::Corrupt(format!(
                    "method id {m_id} does not compose from script id {s_id} + name id {name_id}"
                )));
            }
            if self.levels[Granularity::Method.index()].slot(m).is_some() {
                return Err(SnapshotError::Corrupt(format!(
                    "method id {m_id} listed twice"
                )));
            }
            self.register_method(m, s, name);
        }
        // 4. Count cells, folded by the same `fold_cell` that folds an
        //    observation (hostnames and methods are registered above, so it
        //    only accumulates), then one commit reclassifies everything.
        for &(m_id, h_id, tracking, functional) in &snapshot.cells {
            let (m, h) = (key(m_id)?, key(h_id)?);
            let counts = Counts {
                tracking,
                functional,
            };
            if counts.is_empty() {
                return Err(SnapshotError::Corrupt(format!(
                    "empty count cell for method id {m_id} on hostname id {h_id}"
                )));
            }
            let ms = self.levels[Granularity::Method.index()]
                .slot(m)
                .ok_or_else(|| {
                    SnapshotError::Corrupt(format!("cell references unknown method id {m_id}"))
                })?;
            let hs = self.levels[Granularity::Hostname.index()]
                .slot(h)
                .ok_or_else(|| {
                    SnapshotError::Corrupt(format!("cell references unknown hostname id {h_id}"))
                })?;
            if self.cells[ms].iter().any(|&(host, _)| host == h) {
                return Err(SnapshotError::Corrupt(format!(
                    "duplicate count cell for method id {m_id} on hostname id {h_id}"
                )));
            }
            let (method, d) = (self.method_meta[ms], self.host_meta[hs].domain);
            self.fold_cell(d, h, method.script, method.name, m, counts);
        }
        if self.ingest.observed != snapshot.observed {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot claims {} observations but its cells sum to {}",
                snapshot.observed, self.ingest.observed
            )));
        }
        // Every hostname row must be backed by at least one cell: a
        // zero-count hostname is unrepresentable through `apply`, and a
        // later mixedness flip of its domain would ask the classifier for
        // an (undefined) verdict on empty counts.
        for &(h_id, _) in &snapshot.hostnames {
            let h = key(h_id)?;
            if self.host_meta[self.slot(Granularity::Hostname, h)]
                .counts
                .is_empty()
            {
                return Err(SnapshotError::Corrupt(format!(
                    "hostname id {h_id} has no count cells"
                )));
            }
        }
        self.commit();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::DecisionRequest;
    use crate::frames::SurrogateFrames;
    use crate::testutil::{self, figure1_requests, labeled_request as req, LabeledRow};
    use filterlist::RequestLabel;
    use proptest::prelude::*;

    /// The from-scratch classification of `rows` at the sifter's
    /// thresholds: what an incremental commit must equal.
    fn scratch(sifter: &Sifter, rows: &[LabeledRow]) -> HierarchyResult {
        testutil::classify(sifter.thresholds, rows)
    }

    fn trained(requests: &[LabeledRow]) -> Sifter {
        let mut sifter = Sifter::builder().build();
        sifter.apply_batch(requests.iter().map(ObservationRef::from));
        sifter.commit();
        sifter
    }

    #[test]
    fn key_ids_and_snapshot_text_do_not_depend_on_the_hash_seed() {
        let requests = testutil::crawled_rows(&websim::CorpusProfile::small().with_sites(40), 2021);
        let seeded = |seed| {
            let mut sifter = Sifter::builder().build();
            sifter.interner = KeyInterner::with_seed(seed);
            sifter.apply_batch(requests.iter().map(ObservationRef::from));
            sifter.commit();
            sifter
        };
        let (mut a, mut b) = (seeded(0), seeded(0x9E37_79B9_7F4A_7C15));
        // Enough keys for the table to have grown twice.
        assert!(a.interner.len() > 512, "{} keys", a.interner.len());
        assert!(a.interner.iter().eq(b.interner.iter()));
        let (a_keys, b_keys) = (a.verdict_table(), b.verdict_table());
        assert!(a_keys.keys().iter().eq(b_keys.keys().iter()));
        assert_eq!(a.snapshot().to_json_string(), b.snapshot().to_json_string());
    }

    #[test]
    fn verdicts_walk_the_figure1_hierarchy() {
        let table = trained(&figure1_requests()).verdict_table();
        let verdict = |d, h, s, m| table.verdict(&DecisionRequest::new(d, h, s, m));

        // Decided at domain level.
        assert_eq!(
            verdict("ads.com", "px.ads.com", "https://pub.com/a.js", "t"),
            Verdict::Decided {
                classification: Classification::Tracking,
                granularity: Granularity::Domain
            }
        );
        // Mixed domain, decided at hostname level.
        assert_eq!(
            verdict(
                "google.com",
                "ad.google.com",
                "https://pub.com/sdk.js",
                "send"
            ),
            Verdict::Decided {
                classification: Classification::Tracking,
                granularity: Granularity::Hostname
            }
        );
        // Mixed hostname, decided at script level.
        assert_eq!(
            verdict(
                "google.com",
                "cdn.google.com",
                "https://pub.com/stack.js",
                "load"
            ),
            Verdict::Decided {
                classification: Classification::Functional,
                granularity: Granularity::Script
            }
        );
        // Mixed script, decided at method level; m2 stays mixed (residue).
        assert_eq!(
            verdict(
                "google.com",
                "cdn.google.com",
                "https://pub.com/clone.js",
                "m1"
            ),
            Verdict::Decided {
                classification: Classification::Tracking,
                granularity: Granularity::Method
            }
        );
        assert_eq!(
            verdict(
                "google.com",
                "cdn.google.com",
                "https://pub.com/clone.js",
                "m2"
            ),
            Verdict::Decided {
                classification: Classification::Mixed,
                granularity: Granularity::Method
            }
        );
        assert!(verdict("ads.com", "px.ads.com", "https://pub.com/a.js", "t").should_block());
    }

    #[test]
    fn unknown_resources_fall_back_to_the_deepest_observed_level() {
        let table = trained(&figure1_requests()).verdict_table();
        // Never-seen domain.
        assert_eq!(
            table.verdict(&DecisionRequest::new("zzz.com", "a.zzz.com", "s", "m")),
            Verdict::Unknown
        );
        // Known-mixed domain, never-seen hostname: mixed at domain level.
        assert_eq!(
            table.verdict(&DecisionRequest::new(
                "google.com",
                "new.google.com",
                "s",
                "m"
            )),
            Verdict::Decided {
                classification: Classification::Mixed,
                granularity: Granularity::Domain
            }
        );
        // Known-mixed hostname, never-seen script: mixed at hostname level.
        assert_eq!(
            table.verdict(&DecisionRequest::new(
                "google.com",
                "cdn.google.com",
                "https://pub.com/new.js",
                "m"
            )),
            Verdict::Decided {
                classification: Classification::Mixed,
                granularity: Granularity::Hostname
            }
        );
        // Known-mixed script, never-seen method: mixed at script level.
        assert_eq!(
            table.verdict(&DecisionRequest::new(
                "google.com",
                "cdn.google.com",
                "https://pub.com/clone.js",
                "m99"
            )),
            Verdict::Decided {
                classification: Classification::Mixed,
                granularity: Granularity::Script
            }
        );
    }

    #[test]
    fn hierarchy_export_equals_from_scratch_classification() {
        let requests = figure1_requests();
        let sifter = trained(&requests);
        let expected = scratch(&sifter, &requests);
        assert_eq!(sifter.hierarchy(), expected);
    }

    #[test]
    fn observations_become_visible_only_at_commit() {
        let requests = figure1_requests();
        let mut sifter = Sifter::builder().build();
        sifter.apply_batch(requests.iter().map(ObservationRef::from));
        // Nothing committed yet: everything is unknown.
        assert_eq!(
            sifter
                .verdict_table()
                .verdict(&DecisionRequest::from_labeled(&requests[0])),
            Verdict::Unknown
        );
        assert_eq!(sifter.ingest_stats().pending, requests.len() as u64);
        let stats = sifter.commit();
        assert_eq!(stats.observations, requests.len() as u64);
        assert!(stats.reclassified() > 0);
        assert_eq!(sifter.ingest_stats().pending, 0);
        assert_ne!(
            sifter
                .verdict_table()
                .verdict(&DecisionRequest::from_labeled(&requests[0])),
            Verdict::Unknown
        );
    }

    #[test]
    fn incremental_flips_propagate_downward() {
        // Start with hub.com mixed (5 tracking / 5 functional across two
        // hostnames), then flood it with tracking until the whole domain
        // crosses the threshold: its hostname/script/method members must
        // drop out of the finer levels.
        let mut sifter = Sifter::builder().thresholds(Thresholds::new(1.0)).build();
        let mut all = Vec::new();
        for _ in 0..5 {
            all.push(req(
                "hub.com",
                "t.hub.com",
                "https://p.com/a.js",
                "send",
                true,
            ));
            all.push(req(
                "hub.com",
                "f.hub.com",
                "https://p.com/b.js",
                "load",
                false,
            ));
        }
        sifter.apply_batch(all.iter().map(ObservationRef::from));
        sifter.commit();
        assert_eq!(sifter.hierarchy(), scratch(&sifter, &all));
        assert!(sifter.committed_resources(Granularity::Hostname) > 0);

        for _ in 0..100 {
            let r = req("hub.com", "t.hub.com", "https://p.com/a.js", "send", true);
            sifter.apply(ObservationRef::from(&r));
            all.push(r);
        }
        let stats = sifter.commit();
        assert!(
            stats.hostnames >= 2,
            "domain flip must dirty both hostnames"
        );
        assert_eq!(sifter.hierarchy(), scratch(&sifter, &all));
        // hub.com is now tracking: no hostname-level members remain.
        assert_eq!(sifter.committed_resources(Granularity::Hostname), 0);
        assert_eq!(
            sifter.verdict_table().verdict(&DecisionRequest::new(
                "hub.com",
                "f.hub.com",
                "https://p.com/b.js",
                "load"
            )),
            Verdict::Decided {
                classification: Classification::Tracking,
                granularity: Granularity::Domain
            }
        );
    }

    #[test]
    fn commit_work_is_proportional_to_the_delta() {
        let requests = figure1_requests();
        let mut sifter = trained(&requests);
        // One more observation on an already-classified pure domain.
        sifter.apply(ObservationRef::from(&req(
            "ads.com",
            "px.ads.com",
            "https://pub.com/a.js",
            "t",
            true,
        )));
        let stats = sifter.commit();
        assert_eq!(stats.observations, 1);
        // Only the four directly-touched resources get reclassified; no
        // flips, so nothing propagates.
        assert_eq!(stats.domains, 1);
        assert_eq!(stats.hostnames, 1);
        assert_eq!(stats.scripts, 1);
        assert_eq!(stats.methods, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Rows over small key pools — host 0 of a domain is the domain
        /// string itself, and `op == 11` claims the next domain for the
        /// hostname — with commits (`op == 0`) at random points, and a
        /// restore of the snapshot taken at the first commit from
        /// `twin_at` on, which then follows the same rows.
        #[test]
        fn the_cell_store_equals_a_pair_map_fold_at_every_commit(
            ops in prop::collection::vec((0usize..12, 0usize..3, 0usize..3, 0usize..4, 0usize..3), 0..80),
            twin_at in 0usize..80,
            threshold in 0.3f64..3.0,
        ) {
            let mut sifter = Sifter::builder().thresholds(Thresholds::new(threshold)).build();
            let mut twin: Option<Sifter> = None;
            // Every row so far under its hostname's first-seen domain, and
            // the (method, hostname) fold of them.
            let mut rows: Vec<LabeledRow> = Vec::new();
            let mut owner: HashMap<String, String> = HashMap::new();
            let mut oracle: HashMap<(String, String), Counts> = HashMap::new();
            for (i, &(op, d, h, s, m)) in ops.iter().enumerate() {
                if op != 0 {
                    let domain = format!("d{d}.com");
                    let hostname = match h {
                        0 => domain.clone(),
                        _ => format!("h{h}.{domain}"),
                    };
                    let claimed = match op {
                        11 => format!("d{}.com", (d + 1) % 3),
                        _ => domain,
                    };
                    let (script, method) = (format!("https://p.com/s{s}.js"), format!("m{m}"));
                    let tracking = op % 2 == 1;
                    let row = ObservationRef::parts(&claimed, &hostname, &script, &method, tracking);
                    sifter.apply(row);
                    if let Some(twin) = &mut twin {
                        twin.apply(row);
                    }
                    let effective = owner.entry(hostname.clone()).or_insert(claimed);
                    rows.push(req(effective, &hostname, &script, &method, tracking));
                    oracle
                        .entry((ResourceKey::method_label(&script, &method), hostname))
                        .or_default()
                        .record(tracking);
                }
                if op != 0 && i + 1 < ops.len() && !(twin.is_none() && i >= twin_at) {
                    continue;
                }
                sifter.commit();
                prop_assert_eq!(sifter.hierarchy(), scratch(&sifter, &rows));
                let snapshot = sifter.snapshot();
                let key = |id: u32| {
                    let key = snapshot.keys.key_for_id(id).unwrap();
                    snapshot.keys.string(key).unwrap().to_string()
                };
                let cells: HashMap<(String, String), Counts> = snapshot
                    .cells
                    .iter()
                    .map(|&(m, h, tracking, functional)| {
                        ((key(m), key(h)), Counts { tracking, functional })
                    })
                    .collect();
                prop_assert_eq!(cells.len(), snapshot.cells.len());
                prop_assert_eq!(&cells, &oracle);
                let text = snapshot.to_json_string();
                let restored = Sifter::builder().restore(&snapshot).unwrap();
                prop_assert_eq!(restored.snapshot().to_json_string(), text.clone());
                prop_assert_eq!(restored.hierarchy(), sifter.hierarchy());
                match &mut twin {
                    Some(twin) => {
                        twin.commit();
                        prop_assert_eq!(twin.snapshot().to_json_string(), text);
                        prop_assert_eq!(twin.hierarchy(), sifter.hierarchy());
                    }
                    None if i >= twin_at => twin = Some(restored),
                    None => {}
                }
            }
        }
    }

    #[test]
    fn a_hostname_flip_reclassifies_exactly_the_scripts_and_methods_on_it() {
        // hub.com stays mixed throughout; t.hub.com starts tracking-only and
        // flips to mixed. Its scripts and methods are found through the
        // methods on the host — script D is also seen on f.hub.com, script
        // C only there.
        let rows = [
            ("t.hub.com", "https://p.com/a.js", "a1", true),
            ("t.hub.com", "https://p.com/a.js", "a2", true),
            ("t.hub.com", "https://p.com/b.js", "b1", true),
            ("t.hub.com", "https://p.com/d.js", "d1", true),
            ("f.hub.com", "https://p.com/c.js", "c1", false),
            ("f.hub.com", "https://p.com/d.js", "d1", false),
        ];
        let mut all: Vec<LabeledRow> = rows
            .iter()
            .cycle()
            .take(4 * rows.len())
            .map(|&(host, script, method, tracking)| req("hub.com", host, script, method, tracking))
            .collect();
        let mut sifter = Sifter::builder().thresholds(Thresholds::new(1.0)).build();
        sifter.apply_batch(all.iter().map(ObservationRef::from));
        sifter.commit();
        let class = |sifter: &Sifter, level, key: &str| {
            let key = sifter.interner.get(key).unwrap();
            sifter.classes.class(level, key)
        };
        assert_eq!(
            class(&sifter, Granularity::Domain, "hub.com"),
            Some(Classification::Mixed)
        );
        assert_eq!(
            class(&sifter, Granularity::Hostname, "t.hub.com"),
            Some(Classification::Tracking)
        );

        let flip: Vec<LabeledRow> = (0..12)
            .map(|_| req("hub.com", "t.hub.com", "https://p.com/a.js", "a1", false))
            .collect();
        sifter.apply_batch(flip.iter().map(ObservationRef::from));
        all.extend(flip);
        let stats = sifter.commit();
        assert_eq!(
            class(&sifter, Granularity::Domain, "hub.com"),
            Some(Classification::Mixed)
        );
        assert_eq!(
            class(&sifter, Granularity::Hostname, "t.hub.com"),
            Some(Classification::Mixed)
        );
        let on_host = |pick: fn(&LabeledRow) -> String| {
            all.iter()
                .filter(|r| r.hostname.as_ref() == "t.hub.com")
                .map(pick)
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        assert_eq!((stats.domains, stats.hostnames), (1, 1));
        assert_eq!(stats.scripts, on_host(|r| r.initiator_script.to_string()));
        assert_eq!(
            stats.methods,
            on_host(|r| ResourceKey::method_label(&r.initiator_script, &r.initiator_method))
        );
        assert_eq!((stats.scripts, stats.methods), (3, 4));
        assert_eq!(sifter.hierarchy(), scratch(&sifter, &all));
    }

    #[test]
    fn a_url_row_is_labeled_through_the_configured_engine() {
        let mut sifter = Sifter::builder()
            .filter_lists(&[(ListKind::EasyList, "||tracker.io^$third-party\n")])
            .build();
        assert!(sifter.engine.is_some());
        let outcome = sifter.apply(ObservationRef::url(
            "https://px.tracker.io/beacon?x=1",
            "shop.com",
            ResourceType::Script,
            "https://shop.com/app.js",
            "send",
        ));
        assert_eq!(outcome, ObserveOutcome::Observed(RequestLabel::Tracking));
        assert_eq!(outcome.label(), Some(RequestLabel::Tracking));
        assert!(outcome.was_observed());
        assert_eq!(sifter.ingest_stats().observed, 1);
        sifter.commit();
        assert_eq!(
            sifter.verdict_table().verdict(&DecisionRequest::new(
                "tracker.io",
                "px.tracker.io",
                "https://shop.com/app.js",
                "send"
            )),
            Verdict::Decided {
                classification: Classification::Tracking,
                granularity: Granularity::Domain
            }
        );
        // Unparseable URLs are excluded, exactly like the batch labeler —
        // and reported as such, not conflated with a missing engine.
        assert_eq!(
            sifter.apply(ObservationRef::url(
                "notaurl",
                "shop.com",
                ResourceType::Script,
                "s",
                "m"
            )),
            ObserveOutcome::InvalidUrl
        );
        let stats = sifter.ingest_stats();
        assert_eq!(stats.observed, 1);
        assert_eq!(stats.invalid_urls, 1);
        assert_eq!(stats.no_engine, 0);
    }

    #[test]
    fn a_label_is_reused_for_its_commit_interval_and_the_next() {
        let mut sifter = Sifter::builder()
            .filter_lists(&[(ListKind::EasyList, "||tracker.io^$third-party\n")])
            .build();
        let epoch = [
            ("https://px.tracker.io/a", "shop.com", ResourceType::Image),
            (
                "https://cdn.shop.com/b.js",
                "shop.com",
                ResourceType::Script,
            ),
            // Other bytes for the same request: remembered on their own.
            ("HTTPS://PX.Tracker.IO/a", "shop.com", ResourceType::Image),
            ("https://px.tracker.io/a", "tracker.io", ResourceType::Image),
            ("notaurl", "shop.com", ResourceType::Image),
        ];
        let observe_epoch = |sifter: &mut Sifter| {
            for (url, page, kind) in epoch {
                sifter.apply(ObservationRef::url(
                    url,
                    page,
                    kind,
                    "https://shop.com/app.js",
                    "send",
                ));
            }
            let stats = sifter.ingest_stats();
            (stats.labels_reused, stats.invalid_urls)
        };
        assert_eq!(observe_epoch(&mut sifter), (0, 1));
        sifter.commit();
        // A second identical epoch reuses every row but the unparseable one.
        assert_eq!(observe_epoch(&mut sifter), (4, 2));
        sifter.commit();
        // Seen in the interval just closed, so still remembered.
        assert_eq!(observe_epoch(&mut sifter), (8, 3));
        // An interval without the triples: they are labeled again after it.
        sifter.commit();
        sifter.commit();
        assert_eq!(observe_epoch(&mut sifter), (8, 4));
        // Within one interval, a repeat is reused too.
        assert_eq!(observe_epoch(&mut sifter), (12, 5));
        sifter.commit();
        assert_eq!(sifter.ingest_stats().observed, 5 * 4);
        assert_eq!(sifter.ingest_stats().no_engine, 0);
    }

    /// The harness's re-crawl — every planned request of a churny corpus,
    /// fingerprint-keyed, one commit per epoch — keeps the memo's arena
    /// within 1.5× the key bytes of the last interval's rows.
    #[test]
    fn the_label_memo_stays_within_its_bound_over_churny_epochs() {
        use websim::{
            filter_rules, fingerprint_key, CorpusGenerator, CorpusProfile, EcosystemMutator,
            MutationConfig,
        };
        let seed = 2021;
        let mut corpus = CorpusGenerator::generate(&CorpusProfile::small().with_sites(40), seed);
        let mut sifter = Sifter::builder()
            .engine(filter_rules::engine_for(&corpus.ecosystem))
            .build();
        let mutator = EcosystemMutator::new(seed, MutationConfig::churny());
        for epoch in 0..=120 {
            if epoch > 0 {
                mutator.advance(&mut corpus, epoch);
            }
            let (mut rows, mut key_bytes) = (0usize, 0usize);
            for site in &corpus.websites {
                let page_key = format!("page:{}", site.hostname);
                let mut crawl = Vec::new();
                for script in &site.scripts {
                    let key = fingerprint_key(script);
                    for (method, request) in script.planned_requests() {
                        let name = script.methods[method].name.as_str();
                        crawl.push((&request.url, request.resource_type, key.clone(), name));
                    }
                }
                for request in &site.non_script_requests {
                    crawl.push((
                        &request.url,
                        request.resource_type,
                        page_key.clone(),
                        "html",
                    ));
                }
                for (url, kind, script, method) in crawl {
                    sifter.apply(ObservationRef::url(
                        url,
                        &site.hostname,
                        kind,
                        &script,
                        method,
                    ));
                    rows += 1;
                    key_bytes += url.len() + site.hostname.len();
                }
            }
            sifter.commit();
            let (arena, index) = sifter.label_memo_footprint();
            assert!(
                2 * arena <= 3 * key_bytes,
                "epoch {epoch}: arena {arena} B for {key_bytes} B of keys"
            );
            // At most four 25-byte buckets a row: two intervals' triples,
            // the sweep's headroom and a power-of-two table.
            assert!(
                index <= 100 * rows,
                "epoch {epoch}: index table {index} B for {rows} rows"
            );
        }
        let stats = sifter.ingest_stats();
        let reused = stats.labels_reused as f64 / stats.observed as f64;
        assert!(reused > 0.85, "only {reused:.3} of the rows were reused");
    }

    #[test]
    fn a_url_row_without_an_engine_reports_the_configuration_gap() {
        let mut sifter = Sifter::builder().build();
        assert!(sifter.engine.is_none());
        let outcome = sifter.apply(ObservationRef::url(
            "https://px.tracker.io/beacon",
            "shop.com",
            ResourceType::Script,
            "s",
            "m",
        ));
        assert_eq!(outcome, ObserveOutcome::NoEngine);
        assert_eq!(outcome.label(), None);
        assert!(!outcome.was_observed());
        assert_eq!(sifter.ingest_stats().observed, 0);
        assert_eq!(sifter.ingest_stats().no_engine, 1);
        assert_eq!(sifter.ingest_stats().invalid_urls, 0);
    }

    #[test]
    fn conflicting_domains_keep_first_seen_ownership_in_all_builds() {
        // The same hostname observed under two registrable domains must not
        // panic (it used to debug_assert): the first-seen domain keeps the
        // hostname, every observation still counts, and the conflict is
        // surfaced through a counter.
        let mut sifter = Sifter::builder().build();
        sifter.apply_batch([("a.com", true), ("b.com", true), ("a.com", false)].map(
            |(domain, tracking)| {
                ObservationRef::parts(
                    domain,
                    "cdn.shared.net",
                    "https://p.com/s.js",
                    "m",
                    tracking,
                )
            },
        ));
        assert_eq!(sifter.ingest_stats().conflicting_domains, 1);
        assert_eq!(sifter.ingest_stats().observed, 3);
        sifter.commit();
        // All three observations are credited to the first-seen domain;
        // the conflicting domain never becomes a committed resource.
        let hierarchy = sifter.hierarchy();
        let domains = hierarchy.level(Granularity::Domain);
        assert_eq!(domains.resources.len(), 1);
        assert_eq!(domains.resources[0].key, "a.com");
        assert_eq!(domains.resources[0].counts.total(), 3);
        assert_eq!(
            sifter.verdict_table().verdict(&DecisionRequest::new(
                "b.com",
                "cdn.shared.net",
                "s",
                "m"
            )),
            Verdict::Unknown
        );
        assert_eq!(sifter.ingest_stats().conflicting_domains, 1);
    }

    #[test]
    fn incremental_surrogate_plans_match_a_from_scratch_rebuild() {
        // The plan cache is maintained incrementally (only delta-touched
        // scripts refresh), so pin it against the from-scratch definition
        // after every commit of a schedule that flips a script into and
        // out of mixedness.
        let assert_plans_fresh = |sifter: &Sifter| {
            let mut scratch: Vec<(ResourceKey, SurrogateScript)> = sifter
                .interner
                .iter()
                .filter(|&(s, _)| sifter.is_mixed(Granularity::Script, s))
                .filter_map(|(s, _)| Some((s, sifter.plan_for_script(s)?)))
                .collect();
            let mut cached: Vec<(ResourceKey, SurrogateScript)> = sifter
                .surrogates
                .iter()
                .map(|(&s, entry)| {
                    assert_eq!(entry.frames, SurrogateFrames::new(&entry.plan));
                    (s, SurrogateScript::clone(&entry.plan))
                })
                .collect();
            scratch.sort_by_key(|(s, _)| s.index());
            cached.sort_by_key(|(s, _)| s.index());
            assert_eq!(cached, scratch);
        };

        let hub = |method, tracking| {
            ObservationRef::parts(
                "hub.com",
                "w.hub.com",
                "https://p.com/m.js",
                method,
                tracking,
            )
        };
        let mut sifter = Sifter::builder().thresholds(Thresholds::new(1.0)).build();
        // Mixed domain -> mixed hostname -> mixed script: plan appears.
        for flag in [true, false, true, false, true, false] {
            sifter.apply(hub("go", flag));
        }
        sifter.commit();
        assert_plans_fresh(&sifter);
        assert_eq!(sifter.surrogates.len(), 1);

        // A new method on the same script without dirtying the script via
        // classification change: the plan must still refresh.
        sifter.apply(hub("extra", true));
        sifter.commit();
        assert_plans_fresh(&sifter);

        // Flood the script with tracking until it leaves mixedness: the
        // plan must drop out.
        for _ in 0..60 {
            sifter.apply(hub("go", true));
        }
        sifter.commit();
        assert_plans_fresh(&sifter);

        // And an unrelated commit leaves the (empty) cache consistent.
        sifter.apply(ObservationRef::parts("a.com", "h.a.com", "s.js", "m", true));
        sifter.commit();
        assert_plans_fresh(&sifter);
    }

    #[test]
    fn restore_rejects_hostnames_without_cells() {
        // A crafted snapshot whose second hostname has no count cells must
        // be rejected with a typed error: such a hostname is
        // unrepresentable through `apply`, and if it slipped through, a
        // mixedness flip of the shared domain would later ask the
        // classifier for a verdict on empty counts.
        let text = concat!(
            r#"{"format":"trackersift.sifter","version":1,"threshold":2,"observed":2,"#,
            r#""keys":["d.com","h1.d.com","h2.d.com","s.js","m","s.js :: m"],"#,
            r#""hostnames":[[1,0],[2,0]],"methods":[[5,3,4]],"cells":[[5,1,1,1]]}"#
        );
        let snapshot = SifterSnapshot::parse(text).unwrap();
        assert!(matches!(
            Sifter::builder().restore(&snapshot),
            Err(SnapshotError::Corrupt(message)) if message.contains("no count cells")
        ));
    }

    #[test]
    fn verdict_display_is_human_readable() {
        let table = trained(&figure1_requests()).verdict_table();
        let verdict = table.verdict(&DecisionRequest::new(
            "ads.com",
            "px.ads.com",
            "https://pub.com/a.js",
            "t",
        ));
        assert_eq!(verdict.to_string(), "tracking (decided at Domain level)");
        assert_eq!(Verdict::Unknown.to_string(), "unknown");
    }
}
