//! The flattened serving representation: dense per-granularity class
//! arrays plus a frozen key lookup.
//!
//! Every verdict and every decision is answered here, by one type:
//! [`VerdictTable`] resolves a query's keys against its [`FrozenKeys`] as
//! far as the walk down its class arrays goes, and applies the decision
//! policy once.
//!
//! * [`ClassTable`] — four dense `Vec<u8>` arrays (one per
//!   [`Granularity`]), indexed by [`ResourceKey::index`]. Each byte encodes
//!   "not a member of this level" or one of the three classifications, so a
//!   level probe is a bounds-checked array read instead of a hash lookup.
//!   The incremental commit patches exactly the dirty slots in place.
//! * `verdict_walk` — the coarsest-to-finest verdict walk, asking for each
//!   level's key as it reaches it: string resolve and keyed decide share
//!   it.
//! * [`VerdictTable`] — an immutable, point-in-time pairing of a
//!   [`ClassTable`] with the [`FrozenKeys`] it was built against, plus the
//!   commit version and request accounting. This is the unit
//!   [`Sifter::verdict_table`](crate::Sifter::verdict_table)
//!   exports, the [`SifterWriter`](crate::concurrent::SifterWriter)
//!   publishes atomically and every
//!   [`SifterReader`](crate::concurrent::SifterReader) pins; the reader and
//!   its pin only forward to it.

use crate::decision::{self, Decision, DecisionRequest, KeyedRequest, Resolved};
use crate::frames::{self, SurrogateFrames, FIXED_COMBOS, SINGLE_HEADER_LEN};
use crate::hierarchy::Granularity;
use crate::intern::{FrozenKeys, ResourceKey};
use crate::ratio::Classification;
use crate::revision::{self, ChangeKind, RevisionChange, VerdictRevision};
use crate::service::Verdict;
use crate::surrogate::SurrogateScript;
use filterlist::tokens::TokenHashBuilder;
use filterlist::FilterEngine;
use rewriter::{RewrittenUrl, UrlRewriter};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A committed mixed script's surrogate plan together with its preformatted
/// response frames. The frames are a pure function of the plan and are
/// rebuilt exactly when the plan is, so the two live in one map entry.
#[derive(Debug, Clone)]
pub(crate) struct SurrogateEntry {
    pub(crate) plan: Arc<SurrogateScript>,
    pub(crate) frames: SurrogateFrames,
}

impl SurrogateEntry {
    pub(crate) fn new(plan: Arc<SurrogateScript>) -> Self {
        let frames = SurrogateFrames::new(&plan);
        SurrogateEntry { plan, frames }
    }
}

/// The surrogate map a table carries: `Arc` payloads shared with the
/// sifter's incrementally maintained cache, so publishing a table after a
/// commit clones pointers, not plan strings or response bytes.
pub(crate) type SurrogatePlans = HashMap<ResourceKey, SurrogateEntry, TokenHashBuilder>;

/// Byte code for "this key is not a member of the level".
const ABSENT: u8 = 0;

fn code_of(classification: Classification) -> u8 {
    match classification {
        Classification::Tracking => 1,
        Classification::Functional => 2,
        Classification::Mixed => 3,
    }
}

fn classification_of(code: u8) -> Option<Classification> {
    match code {
        1 => Some(Classification::Tracking),
        2 => Some(Classification::Functional),
        3 => Some(Classification::Mixed),
        _ => None,
    }
}

/// Dense committed classifications, one byte array per granularity, indexed
/// by [`ResourceKey::index`]. Slots beyond an array's length (keys interned
/// after the last commit) and `ABSENT` slots both read as "not a member".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassTable {
    levels: [Vec<u8>; 4],
}

impl ClassTable {
    /// The committed classification of `key` at `granularity`, or `None`
    /// when the key is not a member of that level.
    #[inline]
    pub(crate) fn class(
        &self,
        granularity: Granularity,
        key: ResourceKey,
    ) -> Option<Classification> {
        self.levels[granularity.index()]
            .get(key.index())
            .copied()
            .and_then(classification_of)
    }

    /// Set (or clear, with `None`) the committed classification of `key` at
    /// `granularity`, growing the level array on first touch of a new key.
    pub(crate) fn set(
        &mut self,
        granularity: Granularity,
        key: ResourceKey,
        classification: Option<Classification>,
    ) {
        let level = &mut self.levels[granularity.index()];
        let index = key.index();
        if index >= level.len() {
            if classification.is_none() {
                // Clearing a slot that was never set: nothing to record.
                return;
            }
            level.resize(index + 1, ABSENT);
        }
        level[index] = classification.map_or(ABSENT, code_of);
    }

    /// Every member of every level as a [`ChangeKind::Added`] change, its
    /// key string copied out of `keys` (the frozen view `self` was
    /// committed against), in canonical (granularity, key) order — the
    /// change list of a bootstrap snapshot, which starts from nothing.
    pub(crate) fn additions(&self, keys: &FrozenKeys) -> Vec<RevisionChange> {
        let mut changes = Vec::new();
        for granularity in Granularity::ALL {
            let level = &self.levels[granularity.index()];
            for ((_, key), &code) in keys.iter().zip(level) {
                let Some(class) = classification_of(code) else {
                    continue;
                };
                changes.push(RevisionChange {
                    granularity,
                    key: Arc::from(key),
                    kind: ChangeKind::Added(class),
                });
            }
        }
        revision::sort_changes(&mut changes);
        changes
    }
}

/// The coarsest-to-finest verdict walk over a [`ClassTable`]. `key_at`
/// yields the request's key at each level the walk reaches, coarsest
/// first and only as far as the walk goes (`None` = "the table never
/// interned this string"); at [`Granularity::Method`] it yields the
/// method-*name* key.
///
/// The walk stops at the first granularity whose classification is not
/// mixed; falling off the trained hierarchy below a mixed resource yields
/// `Mixed` at the last observed granularity; an unknown (or uncommitted)
/// domain yields [`Verdict::Unknown`]. `keys` is only consulted for the
/// `(script, method-name)` → composed-method-key pair lookup — a hash over
/// two `Copy` ids.
#[inline]
pub(crate) fn verdict_walk(
    keys: &FrozenKeys,
    classes: &ClassTable,
    mut key_at: impl FnMut(Granularity) -> Option<ResourceKey>,
) -> Verdict {
    let Some(domain_class) =
        key_at(Granularity::Domain).and_then(|d| classes.class(Granularity::Domain, d))
    else {
        return Verdict::Unknown;
    };
    if domain_class != Classification::Mixed {
        return Verdict::Decided {
            classification: domain_class,
            granularity: Granularity::Domain,
        };
    }
    let Some(host_class) =
        key_at(Granularity::Hostname).and_then(|h| classes.class(Granularity::Hostname, h))
    else {
        return Verdict::Decided {
            classification: Classification::Mixed,
            granularity: Granularity::Domain,
        };
    };
    if host_class != Classification::Mixed {
        return Verdict::Decided {
            classification: host_class,
            granularity: Granularity::Hostname,
        };
    }
    let script = key_at(Granularity::Script);
    let Some(script_class) = script.and_then(|s| classes.class(Granularity::Script, s)) else {
        return Verdict::Decided {
            classification: Classification::Mixed,
            granularity: Granularity::Hostname,
        };
    };
    if script_class != Classification::Mixed {
        return Verdict::Decided {
            classification: script_class,
            granularity: Granularity::Script,
        };
    }
    let method_class = key_at(Granularity::Method)
        .and_then(|name| keys.method_key(script?, name))
        .and_then(|m| classes.class(Granularity::Method, m));
    match method_class {
        Some(classification) => Verdict::Decided {
            classification,
            granularity: Granularity::Method,
        },
        None => Verdict::Decided {
            classification: Classification::Mixed,
            granularity: Granularity::Script,
        },
    }
}

/// Response bodies preformatted at table-build time, so the serving hot
/// path answers with a `memcpy` of a prebuilt slice instead of walking a
/// JSON tree or encoding a frame per request.
///
/// Prebuilt here are the `FIXED_COMBOS` non-surrogate decisions (observe,
/// allow/block × hierarchy granularity or filter list) as **complete**
/// single-decision bodies — JSON with the table version baked in, and
/// 15-byte binary frames — plus version-free JSON fragments for batch
/// assembly. The per-key surrogate frames are version-free and live beside
/// their plans in the table's surrogate map.
///
/// The fixed fragments carry no version: they are rendered once per process
/// from the [`frames::decision_value`] trees the serialize-per-request path
/// builds, and shared by every table. A table's own bodies are spliced from
/// them: the version digits written into the `{"version":V,` head, and a
/// single body as prefix + fragment + `}`. So building a table renders no
/// tree, and a preformatted answer is byte-identical to a freshly encoded
/// one — the property the wire byte-identity tests pin down.
#[derive(Debug, Clone)]
pub struct PrebuiltResponses {
    /// Complete JSON single-decision bodies
    /// (`{"version":V,"decision":{…}}`), indexed by
    /// [`frames::fixed_index`].
    json_single: [Arc<str>; FIXED_COMBOS],
    /// Version-free JSON decision objects for batch assembly, shared by
    /// every table.
    json_fragment: &'static [Box<str>; FIXED_COMBOS],
    /// Complete 15-byte binary single-decision bodies, version baked.
    binary_single: [[u8; SINGLE_HEADER_LEN]; FIXED_COMBOS],
    /// `{"version":V,"decision":` — the prefix a surrogate's JSON fragment
    /// is spliced after (append `}` to close).
    json_single_prefix: Arc<str>,
    /// `{"version":V,"decisions":[` — the prefix of a batch JSON body
    /// (append `]}` to close).
    json_batch_prefix: Arc<str>,
}

/// The fixed combos' version-free JSON decision objects, rendered once per
/// process and shared by every table's [`PrebuiltResponses`].
fn fixed_fragments() -> &'static [Box<str>; FIXED_COMBOS] {
    static FRAGMENTS: OnceLock<[Box<str>; FIXED_COMBOS]> = OnceLock::new();
    FRAGMENTS.get_or_init(|| {
        std::array::from_fn(|index| {
            frames::decision_value(&frames::fixed_decision(index))
                .render()
                .into()
        })
    })
}

impl PrebuiltResponses {
    fn build(version: u64) -> Self {
        let mut head = br#"{"version":"#.to_vec();
        crawler::json::write_u64(&mut head, version);
        let head = std::str::from_utf8(&head).expect("JSON digits are ASCII");
        let json_single_prefix: Arc<str> = [head, r#","decision":"#].concat().into();
        let json_batch_prefix: Arc<str> = [head, r#","decisions":["#].concat().into();
        let json_fragment = fixed_fragments();
        // A single body is prefix + fragment + close, spliced in one buffer.
        let mut body = String::new();
        let json_single = std::array::from_fn(|index| {
            body.clear();
            body.push_str(&json_single_prefix);
            body.push_str(&json_fragment[index]);
            body.push('}');
            Arc::from(body.as_str())
        });
        PrebuiltResponses {
            json_single,
            json_fragment,
            binary_single: std::array::from_fn(|index| {
                frames::encode_fixed_single(&frames::fixed_decision(index), version)
            }),
            json_single_prefix,
            json_batch_prefix,
        }
    }

    /// The complete JSON single-decision body of a fixed combo.
    pub fn json_single(&self, index: usize) -> &str {
        &self.json_single[index]
    }

    /// The version-free JSON decision object of a fixed combo.
    pub fn json_fragment(&self, index: usize) -> &str {
        &self.json_fragment[index]
    }

    /// The complete binary single-decision body of a fixed combo.
    pub fn binary_single(&self, index: usize) -> &[u8; SINGLE_HEADER_LEN] {
        &self.binary_single[index]
    }

    /// `{"version":V,"decision":` — append a surrogate's
    /// [`json fragment`](SurrogateFrames) and a closing `}` to form a
    /// complete single-decision body.
    pub fn json_single_prefix(&self) -> &str {
        &self.json_single_prefix
    }

    /// `{"version":V,"decisions":[` — append comma-joined decision
    /// fragments and a closing `]}` to form a complete batch body.
    pub fn json_batch_prefix(&self) -> &str {
        &self.json_batch_prefix
    }
}

/// What the preformatted serving path answers with: an index into the
/// fixed prebuilt bodies, borrowed surrogate frames, or a rewritten URL.
/// Produced by [`VerdictTable::decide_prebuilt`]; the fixed and surrogate
/// arms are a `memcpy` away from a complete response body, while rewrite
/// payloads are inherently per-request (the rewritten URL depends on the
/// request URL) and are encoded at serve time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrebuiltDecision<'a> {
    /// A non-payload decision: index the fixed tables of
    /// [`PrebuiltResponses`] with this.
    Fixed(usize),
    /// A surrogate decision: the preformatted frames of the script's plan.
    Surrogate(&'a SurrogateFrames),
    /// A rewrite decision: the rewritten request URL.
    Rewrite(Arc<RewrittenUrl>),
}

/// An immutable point-in-time verdict table: the committed [`ClassTable`]
/// paired with the [`FrozenKeys`] view it was built against, plus the
/// commit version and request accounting of that commit.
///
/// Produced by [`Sifter::verdict_table`](crate::Sifter::verdict_table)
/// and published atomically by
/// [`SifterWriter::commit`](crate::concurrent::SifterWriter::commit); a
/// table never changes after construction, so any number of threads may
/// read one concurrently.
#[derive(Debug, Clone)]
pub struct VerdictTable {
    keys: Arc<FrozenKeys>,
    classes: ClassTable,
    version: u64,
    committed: u64,
    residue: u64,
    /// The epoch of this table's key-id space. Ids are append-only stable
    /// within one epoch; a snapshot restore rebuilds the interner and bumps
    /// the epoch, invalidating every id a client cached against the old
    /// one.
    keys_epoch: u64,
    /// The filter-list backstop for [`VerdictTable::decide`]; shared with
    /// the sifter that exported the table (engines never change after
    /// build, so every published table carries the same `Arc`).
    engine: Option<Arc<FilterEngine>>,
    /// The URL rewriter for mixed requests whose URLs carry identifier
    /// parameters; like the engine, immutable after build and shared by
    /// `Arc` with the exporting sifter.
    url_rewriter: Option<Arc<UrlRewriter>>,
    /// Surrogate plans (and their preformatted frames) for every committed
    /// mixed script, maintained incrementally by the sifter's commits and
    /// shared here so concurrent readers serve [`Decision::Surrogate`]
    /// without touching the writer.
    surrogates: Arc<SurrogatePlans>,
    /// The writer's bounded revision ring as of this publish, ascending by
    /// version (`Arc` per revision: publishing clones pointers, not change
    /// lists). Empty for tables exported outside a concurrent writer and
    /// for a replica's tables.
    revisions: Vec<Arc<VerdictRevision>>,
    /// Preformatted response bodies (version baked), spliced once when
    /// the table is built.
    prebuilt: PrebuiltResponses,
}

/// Everything a [`VerdictTable`] is built from, by name: the one
/// constructor's argument. A table is complete at construction — version,
/// key epoch and revision ring included — and never patched afterwards.
#[derive(Debug)]
pub(crate) struct TableParts {
    pub(crate) keys: Arc<FrozenKeys>,
    pub(crate) classes: ClassTable,
    pub(crate) version: u64,
    pub(crate) committed: u64,
    pub(crate) residue: u64,
    pub(crate) keys_epoch: u64,
    pub(crate) engine: Option<Arc<FilterEngine>>,
    pub(crate) url_rewriter: Option<Arc<UrlRewriter>>,
    pub(crate) surrogates: Arc<SurrogatePlans>,
    pub(crate) revisions: Vec<Arc<VerdictRevision>>,
}

impl VerdictTable {
    /// Build a table from its parts, splicing its version into the
    /// [`PrebuiltResponses`] once (no JSON tree is rendered: the fixed
    /// fragments are shared, and surrogate frames come with their plans).
    pub(crate) fn new(parts: TableParts) -> Self {
        let TableParts {
            keys,
            classes,
            version,
            committed,
            residue,
            keys_epoch,
            engine,
            url_rewriter,
            surrogates,
            revisions,
        } = parts;
        VerdictTable {
            keys,
            classes,
            version,
            committed,
            residue,
            keys_epoch,
            engine,
            url_rewriter,
            surrogates,
            revisions,
            prebuilt: PrebuiltResponses::build(version),
        }
    }

    /// This table's committed class arrays (what a bootstrap snapshot lists
    /// as additions).
    pub(crate) fn classes(&self) -> &ClassTable {
        &self.classes
    }

    /// The shared surrogate-plan map this table serves from (what delta
    /// snapshots resolve touched plan keys against).
    pub(crate) fn surrogate_plans(&self) -> &Arc<SurrogatePlans> {
        &self.surrogates
    }

    /// The committed surrogate plan of a script URL, if this table carries
    /// one — the string-keyed lookup delta-snapshot assembly uses.
    pub fn surrogate_plan(&self, script: &str) -> Option<Arc<SurrogateScript>> {
        let key = self.keys.key(script)?;
        Some(Arc::clone(&self.surrogates.get(&key)?.plan))
    }

    /// The bounded ring of verdict revisions as of this publish, ascending
    /// by version: one per commit on a writer, one per applied delta on a
    /// follower. Diff any two span boundaries with
    /// [`diff_revisions`](crate::diff_revisions).
    pub fn revisions(&self) -> &[Arc<VerdictRevision>] {
        &self.revisions
    }

    /// Answer one verdict query against this table's frozen state: walk
    /// coarsest-to-finest, looking each level's key up as the walk reaches
    /// it. The request's URL context is ignored. Allocation-free; the
    /// returned [`Verdict`] is `Copy`.
    pub fn verdict(&self, request: &DecisionRequest<'_>) -> Verdict {
        verdict_walk(&self.keys, &self.classes, |level| {
            self.keys.key(request.key(level))
        })
    }

    /// Answer one enforcement decision against this table's frozen state
    /// (hierarchy verdict → surrogate plan for mixed scripts → rewrite →
    /// filter-list backstop; see [`crate::Decision`]).
    pub fn decide(&self, request: &DecisionRequest<'_>) -> Decision {
        self.decide_keyed(&self.resolve(request))
    }

    /// The frozen key table this table's classes are indexed by. Binary
    /// wire clients fetch it (via the server's key handshake) to translate
    /// strings to the numeric ids [`VerdictTable::decide_keyed`] consumes.
    pub fn keys(&self) -> &FrozenKeys {
        self.keys.as_ref()
    }

    /// The epoch of this table's key-id space. A client that interned ids
    /// under a different epoch must re-fetch the key table before sending
    /// id-form requests.
    pub fn keys_epoch(&self) -> u64 {
        self.keys_epoch
    }

    /// The preformatted response bodies of this table.
    pub fn prebuilt(&self) -> &PrebuiltResponses {
        &self.prebuilt
    }

    /// Resolve a string request's keys against this table's frozen
    /// interner — the one-off translation [`VerdictTable::decide_keyed`]
    /// and [`VerdictTable::decide_prebuilt`] then serve without hashing.
    ///
    /// Keys are looked up level by level, only as far as the verdict walk
    /// reads them: the domain always, the hostname under a domain
    /// committed mixed, the script under a mixed hostname, the method name
    /// under a mixed script. A key the table never interned and a key
    /// below where the walk stops both come back `None`, so a request
    /// settled at its domain costs one string lookup, not four. Deciding
    /// the result on this table is exactly deciding the request.
    pub fn resolve<'a>(&self, request: &DecisionRequest<'a>) -> KeyedRequest<'a> {
        let mut found = [None; 4];
        verdict_walk(&self.keys, &self.classes, |level| {
            let key = self.keys.key(request.key(level));
            found[level.index()] = key;
            key
        });
        let [domain, hostname, script, method] = found;
        KeyedRequest {
            domain,
            hostname,
            script,
            method,
            url: request.url,
            source_hostname: request.source_hostname,
            resource_type: request.resource_type,
        }
    }

    /// [`VerdictTable::decide`] over pre-resolved keys: zero string
    /// hashing. With keys from [`VerdictTable::resolve`] on the same table
    /// this is exactly `decide`; with ids a wire client cached under this
    /// table's [`keys_epoch`](VerdictTable::keys_epoch) it is the binary hot
    /// path.
    pub fn decide_keyed(&self, request: &KeyedRequest<'_>) -> Decision {
        decision::decide_with(
            &self.keys,
            &self.classes,
            self.engine.as_deref(),
            self.url_rewriter.as_deref(),
            |script| Some(Arc::clone(&self.surrogates.get(&script)?.plan)),
            request,
        )
        .into()
    }

    /// The serving hot path: decide over pre-resolved keys and answer with
    /// preformatted bytes — an index into the fixed prebuilt bodies or the
    /// script's preformatted surrogate frames. Encodes the same decision
    /// [`VerdictTable::decide_keyed`] returns, byte-identical once
    /// rendered.
    pub fn decide_prebuilt(&self, request: &KeyedRequest<'_>) -> PrebuiltDecision<'_> {
        match decision::decide_with(
            &self.keys,
            &self.classes,
            self.engine.as_deref(),
            self.url_rewriter.as_deref(),
            |script| Some(&self.surrogates.get(&script)?.frames),
            request,
        ) {
            Resolved::Fixed(decision) => PrebuiltDecision::Fixed(
                frames::fixed_index(&decision).expect("policy fixed decisions are the 11 combos"),
            ),
            Resolved::Rewrite(rewritten) => PrebuiltDecision::Rewrite(rewritten),
            Resolved::Surrogate(frames) => PrebuiltDecision::Surrogate(frames),
        }
    }

    /// The commit count of the sifter state this table snapshots. Strictly
    /// increasing across the tables a [`SifterWriter`](crate::concurrent::SifterWriter)
    /// publishes, so readers can order the states they observe.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Observations folded into this table's committed state.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Committed requests still attributed to mixed methods (the paper's
    /// "<2% residue") as of this table.
    pub fn unattributed(&self) -> u64 {
        self.residue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_table_round_trips_codes() {
        let mut table = ClassTable::default();
        let key = ResourceKey::test_key(5);
        assert_eq!(table.class(Granularity::Domain, key), None);
        for class in [
            Classification::Tracking,
            Classification::Functional,
            Classification::Mixed,
        ] {
            table.set(Granularity::Domain, key, Some(class));
            assert_eq!(table.class(Granularity::Domain, key), Some(class));
        }
        // Levels are independent arrays.
        assert_eq!(table.class(Granularity::Hostname, key), None);
        table.set(Granularity::Domain, key, None);
        assert_eq!(table.class(Granularity::Domain, key), None);
        // Clearing an untouched slot does not grow the array.
        table.set(Granularity::Script, ResourceKey::test_key(1000), None);
        assert!(table.levels[Granularity::Script.index()].is_empty());
    }

    /// The decision fixture of `crate::decision`'s tests: every arm of the
    /// policy reachable (pure tracking/functional domains, a mixed script
    /// with a surrogate plan, a filter-list backstop).
    fn trained_table() -> VerdictTable {
        use crate::service::{ObservationRef, Sifter};
        use filterlist::ListKind;
        let mut sifter = Sifter::builder()
            .filter_lists(&[(ListKind::EasyList, "||blocked.example^\n")])
            .rewriter(rewriter::RewriterBuilder::new().default_rules().build())
            .build();
        for _ in 0..5 {
            sifter.apply(ObservationRef::parts(
                "ads.com",
                "px.ads.com",
                "https://pub.com/a.js",
                "send",
                true,
            ));
            sifter.apply(ObservationRef::parts(
                "cdn.com",
                "a.cdn.com",
                "https://pub.com/ui.js",
                "load",
                false,
            ));
        }
        // A settled level under each mixed one: a tracking hostname of
        // the mixed domain, a functional script of the mixed hostname.
        for _ in 0..5 {
            sifter.apply(ObservationRef::parts(
                "hub.com",
                "px.hub.com",
                "https://pub.com/p.js",
                "send",
                true,
            ));
            sifter.apply(ObservationRef::parts(
                "hub.com",
                "w.hub.com",
                "https://pub.com/widget.js",
                "draw",
                false,
            ));
        }
        for flag in [true, false, true, false, true, false] {
            sifter.apply(ObservationRef::parts(
                "hub.com",
                "w.hub.com",
                "https://pub.com/mixed.js",
                "track",
                true,
            ));
            sifter.apply(ObservationRef::parts(
                "hub.com",
                "w.hub.com",
                "https://pub.com/mixed.js",
                "render",
                false,
            ));
            sifter.apply(ObservationRef::parts(
                "hub.com",
                "w.hub.com",
                "https://pub.com/mixed.js",
                "dispatch",
                flag,
            ));
        }
        sifter.commit();
        sifter.verdict_table()
    }

    /// Requests covering every decision arm against `trained_table`.
    fn probe_requests() -> Vec<DecisionRequest<'static>> {
        vec![
            DecisionRequest::new("ads.com", "px.ads.com", "https://pub.com/a.js", "send"),
            DecisionRequest::new("cdn.com", "a.cdn.com", "https://pub.com/ui.js", "load"),
            DecisionRequest::new(
                "hub.com",
                "w.hub.com",
                "https://pub.com/mixed.js",
                "dispatch",
            ),
            DecisionRequest::new("hub.com", "w.hub.com", "https://pub.com/mixed.js", "novel"),
            // Mixed below the trained hierarchy, URL carrying identifiers:
            // the rewrite arm.
            DecisionRequest::new("hub.com", "new.hub.com", "s2.js", "m").with_url(
                "https://new.hub.com/api?id=7&gclid=abc&utm_source=mail",
                "pub.com",
                filterlist::ResourceType::Xhr,
            ),
            DecisionRequest::new("zzz.com", "a.zzz.com", "s.js", "m"),
            DecisionRequest::new("zzz.com", "a.zzz.com", "s.js", "m").with_url(
                "https://px.blocked.example/p.gif",
                "pub.com",
                filterlist::ResourceType::Image,
            ),
            DecisionRequest::new("zzz.com", "a.zzz.com", "s.js", "m").with_url(
                "https://static.fine.example/app.css",
                "pub.com",
                filterlist::ResourceType::Stylesheet,
            ),
        ]
    }

    #[test]
    fn prebuilt_decisions_render_byte_identically() {
        let table = trained_table();
        for request in probe_requests() {
            let decision = table.decide(&request);
            let fragment = match table.decide_prebuilt(&table.resolve(&request)) {
                PrebuiltDecision::Fixed(index) => {
                    assert_eq!(frames::fixed_decision(index), decision, "for {request:?}");
                    // The complete single body is prefix + fragment + close.
                    assert_eq!(
                        table.prebuilt().json_single(index),
                        format!(
                            "{}{}{}",
                            table.prebuilt().json_single_prefix(),
                            table.prebuilt().json_fragment(index),
                            '}'
                        ),
                        "for {request:?}"
                    );
                    // And the binary body matches the per-request encoder.
                    assert_eq!(
                        table.prebuilt().binary_single(index)[..],
                        frames::encode_fixed_single(&decision, table.version()),
                        "for {request:?}"
                    );
                    table.prebuilt().json_fragment(index).to_string()
                }
                PrebuiltDecision::Surrogate(sf) => {
                    let plan = decision.surrogate().expect("prebuilt surrogate arm");
                    assert_eq!(sf.binary.as_ref(), frames::encode_surrogate_payload(plan));
                    sf.json.to_string()
                }
                PrebuiltDecision::Rewrite(rewritten) => {
                    let Decision::Rewrite(expected) = &decision else {
                        panic!("prebuilt rewrite arm for {request:?}");
                    };
                    assert_eq!(&rewritten, expected, "for {request:?}");
                    frames::rewrite_value(&rewritten).render()
                }
            };
            assert_eq!(
                fragment,
                frames::decision_value(&decision).render(),
                "for {request:?}"
            );
        }
    }

    /// The spliced bodies of every fixed combo are what the trees render,
    /// at versions on both sides of a digit-count change and at the
    /// largest version JSON carries exactly.
    #[test]
    fn prebuilt_bodies_match_the_tree_render_at_every_version_width() {
        use crawler::json::{object, Value};
        for version in [0, 1, 9, 10, 1 << 53] {
            let prebuilt = PrebuiltResponses::build(version);
            for index in 0..FIXED_COMBOS {
                let decision = frames::fixed_decision(index);
                let single = object(vec![
                    ("version", Value::number_u64(version)),
                    ("decision", frames::decision_value(&decision)),
                ])
                .render();
                let batch = object(vec![
                    ("version", Value::number_u64(version)),
                    (
                        "decisions",
                        Value::Array(vec![frames::decision_value(&decision)]),
                    ),
                ])
                .render();
                let fragment = prebuilt.json_fragment(index);
                assert_eq!(fragment, frames::decision_value(&decision).render());
                assert_eq!(prebuilt.json_single(index), single, "v{version} #{index}");
                assert_eq!(
                    format!("{}{fragment}}}", prebuilt.json_single_prefix()),
                    single
                );
                assert_eq!(
                    format!("{}{fragment}]}}", prebuilt.json_batch_prefix()),
                    batch
                );
                assert_eq!(
                    prebuilt.binary_single(index)[..],
                    frames::encode_fixed_single(&decision, version)
                );
            }
        }
    }

    /// The resolve the walk-driven one replaced, kept as its oracle: all
    /// four keys looked up before the walk starts.
    fn eager_resolve<'a>(table: &VerdictTable, request: &DecisionRequest<'a>) -> KeyedRequest<'a> {
        let keys = &table.keys;
        KeyedRequest {
            domain: keys.key(request.domain),
            hostname: keys.key(request.hostname),
            script: keys.key(request.script),
            method: keys.key(request.method),
            url: request.url,
            source_hostname: request.source_hostname,
            resource_type: request.resource_type,
        }
    }

    /// Check `request` against the eager oracle: `resolve` holds exactly
    /// the keys the walk reads, each as the eager lookup has it, and every
    /// answer — verdict, decision, prebuilt decision — is the oracle's.
    /// Returns the verdict and whether `resolve` skipped a key the eager
    /// lookup found.
    fn assert_matches_eager(
        table: &VerdictTable,
        request: &DecisionRequest<'_>,
    ) -> (Verdict, bool) {
        let eager = eager_resolve(table, request);
        let keyed = table.resolve(request);
        let mut read = Vec::new();
        let verdict = verdict_walk(&table.keys, &table.classes, |level| {
            read.push(level);
            eager.key(level)
        });
        for level in Granularity::ALL {
            let expected = eager.key(level).filter(|_| read.contains(&level));
            assert_eq!(keyed.key(level), expected, "{level:?} of {request:?}");
        }
        if read == [Granularity::Domain] {
            assert_eq!(
                (keyed.hostname, keyed.script, keyed.method),
                (None, None, None),
                "domain-settled {request:?}"
            );
        }
        assert_eq!(
            (keyed.url, keyed.source_hostname, keyed.resource_type),
            (eager.url, eager.source_hostname, eager.resource_type)
        );
        assert_eq!(table.verdict(request), verdict, "{request:?}");
        assert_eq!(
            table.decide(request),
            table.decide_keyed(&eager),
            "{request:?}"
        );
        assert_eq!(
            table.decide_prebuilt(&keyed),
            table.decide_prebuilt(&eager),
            "{request:?}"
        );
        let skipped = Granularity::ALL
            .into_iter()
            .any(|level| keyed.key(level).is_none() && eager.key(level).is_some());
        (verdict, skipped)
    }

    /// Per level: settled keys, a mixed one, a string the table interned
    /// for another level (or under a settled parent), and an unknown one.
    const DOMAINS: [&str; 4] = ["ads.com", "cdn.com", "hub.com", "zzz.com"];
    const HOSTNAMES: [&str; 4] = ["px.hub.com", "w.hub.com", "a.cdn.com", "new.hub.com"];
    const SCRIPTS: [&str; 4] = [
        "https://pub.com/widget.js",
        "https://pub.com/mixed.js",
        "https://pub.com/a.js",
        "s2.js",
    ];
    const METHODS: [&str; 5] = ["track", "render", "dispatch", "load", "novel"];

    /// No URL, a clean one, one carrying identifiers, one the filter list
    /// blocks.
    fn with_context<'a>(request: DecisionRequest<'a>, url: usize) -> DecisionRequest<'a> {
        use filterlist::ResourceType;
        match url {
            0 => request,
            1 => request.with_url(
                "https://static.fine.example/app.css",
                "pub.com",
                ResourceType::Stylesheet,
            ),
            2 => request.with_url(
                "https://new.hub.com/api?id=7&gclid=abc&utm_source=mail",
                "pub.com",
                ResourceType::Xhr,
            ),
            _ => request.with_url(
                "https://px.blocked.example/p.gif",
                "pub.com",
                ResourceType::Image,
            ),
        }
    }

    #[test]
    fn resolve_reads_only_what_the_walk_reads_and_decides_as_the_eager_lookup() {
        let table = trained_table();
        let mut settled = Vec::new();
        let queries = DOMAINS.len() * HOSTNAMES.len() * SCRIPTS.len() * METHODS.len() * 4;
        let mut skipped = 0;
        for n in 0..queries {
            let request = with_context(
                DecisionRequest::new(
                    DOMAINS[n % 4],
                    HOSTNAMES[n / 4 % 4],
                    SCRIPTS[n / 16 % 4],
                    METHODS[n / 64 % 5],
                ),
                n / 320,
            );
            let (verdict, skipped_a_key) = assert_matches_eager(&table, &request);
            skipped += usize::from(skipped_a_key);
            if !settled.contains(&verdict) {
                settled.push(verdict);
            }
        }
        // The grid settles at every level, mixed and not, and most
        // queries skip a key the eager lookup found.
        for level in Granularity::ALL {
            for mixed in [false, true] {
                assert!(
                    settled.iter().any(|verdict| matches!(
                        verdict,
                        Verdict::Decided { classification, granularity }
                            if *granularity == level
                                && (*classification == Classification::Mixed) == mixed
                    )),
                    "nothing settles at {level:?} (mixed: {mixed})"
                );
            }
        }
        assert!(settled.contains(&Verdict::Unknown));
        assert!(
            skipped > queries / 2,
            "{skipped} of {queries} queries skipped a key"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Tables trained on rows over small pools — d0 mostly tracking, d1
        /// mostly functional, d2 split by method — at a drawn threshold,
        /// then queried with keys known or unknown at each level (index 3,
        /// and hostname 2, is a string no row used), with and without URL
        /// context.
        #[test]
        fn resolve_decides_as_the_eager_lookup_on_trained_tables(
            rows in proptest::collection::vec((0usize..3, 0usize..2, 0usize..3, 0usize..3, 0usize..4), 0..60),
            threshold in 0.3f64..3.0,
            queries in proptest::collection::vec((0usize..4, 0usize..4, 0usize..4, 0usize..4, 0usize..4), 1..24),
        ) {
            use crate::ratio::Thresholds;
            use crate::service::{ObservationRef, Sifter};
            use filterlist::ListKind;
            let mut sifter = Sifter::builder()
                .thresholds(Thresholds::new(threshold))
                .filter_lists(&[(ListKind::EasyList, "||blocked.example^\n")])
                .rewriter(rewriter::RewriterBuilder::new().default_rules().build())
                .build();
            let domain = |d: usize| format!("d{d}.com");
            let hostname = |d: usize, h: usize| format!("h{h}.d{d}.com");
            let script = |s: usize| format!("https://p.com/s{s}.js");
            let method = |m: usize| format!("m{m}");
            for &(d, h, s, m, coin) in &rows {
                let tracking = match d {
                    0 => coin != 0,
                    1 => coin == 0,
                    _ => m == 0 || (m == 2 && coin % 2 == 0),
                };
                sifter.apply(ObservationRef::parts(
                    &domain(d),
                    &hostname(d, h),
                    &script(s),
                    &method(m),
                    tracking,
                ));
            }
            sifter.commit();
            let table = sifter.verdict_table();
            for &(d, h, s, m, url) in &queries {
                let strings = (domain(d), hostname(d % 3, h), script(s), method(m));
                let request = with_context(
                    DecisionRequest::new(&strings.0, &strings.1, &strings.2, &strings.3),
                    url,
                );
                assert_matches_eager(&table, &request);
            }
        }
    }
}
