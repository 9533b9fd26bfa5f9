//! Replica followers: rebuild a primary's [`VerdictTable`] from delta
//! snapshots instead of local commits.
//!
//! The revision ring ([`crate::revision`]) records what every commit
//! changed; this module turns that record into a **state-transfer
//! protocol**:
//!
//! * [`DeltaSnapshot`] — the wire unit. A *delta* carries the net class
//!   transitions between two committed versions plus the current surrogate
//!   plans of every script those commits touched; a *full* snapshot carries
//!   the entire committed serving state in the same shape (every member as
//!   an addition, every plan). Assembled by [`VerdictTable::delta_since`] /
//!   [`VerdictTable::full_snapshot_delta`] from the table a reader already
//!   pins — no writer round-trip.
//! * [`FollowerState`] — a replica's mutable mirror: apply a full snapshot
//!   to bootstrap, then apply deltas in version order; [`FollowerState::table`]
//!   publishes the result as a [`VerdictTable`] at the **primary's exact
//!   committed version** (the consistency guarantee a replica offers:
//!   never a torn or interpolated state).
//!
//! A follower records each delta it applies as one revision over the span
//! it covered, so its tables carry a ring too: a follower can be followed.
//!
//! The follower re-interns every key string locally, so its dense id space
//! is its own (clients of a replica fetch keys from that replica); the
//! filter engine and URL rewriter are re-attached locally, not shipped.
//! Surrogate frames are re-encoded from the shipped plans — frames are a
//! pure function of the plan, so replica wire bytes match the primary's.

use crate::concurrent::DEFAULT_REVISION_CAPACITY;
use crate::hierarchy::Granularity;
use crate::intern::{FrozenKeys, KeyInterner, ResourceKey};
use crate::revision::{
    diff_revisions, install_revision, RevisionChange, RevisionRangeError, VerdictRevision,
};
use crate::surrogate::SurrogateScript;
use crate::table::{ClassTable, SurrogateEntry, SurrogatePlans, TableParts, VerdictTable};
use filterlist::FilterEngine;
use rewriter::UrlRewriter;
use std::fmt;
use std::sync::Arc;

/// One state-transfer unit of the replication protocol: either the net
/// drift between two committed primary versions (`since = Some(v)`), or a
/// complete serving state for bootstrap (`since = None`).
///
/// Appliable with [`FollowerState::apply`]; produced by
/// [`VerdictTable::delta_since`] and [`VerdictTable::full_snapshot_delta`];
/// wire-encoded (JSON and binary) by [`crate::frames`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaSnapshot {
    /// The baseline version this delta applies on top of (exclusive), or
    /// `None` for a full snapshot (applies on empty state).
    pub since: Option<u64>,
    /// The committed primary version a follower holds after applying.
    pub to: u64,
    /// Observations folded into the primary's state at `to`.
    pub committed: u64,
    /// Requests still attributed to mixed methods at `to`.
    pub residue: u64,
    /// Per-key class transitions, canonical order. For a full snapshot:
    /// every committed member, as an addition.
    pub changes: Vec<RevisionChange>,
    /// Current surrogate plans of every script the span touched, sorted by
    /// script key; `None` means the script no longer has a plan. For a
    /// full snapshot: every plan the primary serves.
    pub plans: Vec<(Arc<str>, Option<Arc<SurrogateScript>>)>,
}

impl DeltaSnapshot {
    /// `true` for a bootstrap (full-state) snapshot.
    pub fn is_full(&self) -> bool {
        self.since.is_none()
    }
}

impl VerdictTable {
    /// Assemble the delta from committed version `since` (exclusive) to
    /// this table's version, from the revision ring this table carries.
    ///
    /// A table anchors its own version once it has one (`v > 0`): `since ==
    /// v` is an empty delta, ring or not. Otherwise this errors as
    /// [`diff_revisions`]: an [`Inverted`](RevisionRangeError::Inverted)
    /// range is a caller bug (HTTP 400); an
    /// [`Unknown`](RevisionRangeError::Unknown) `since` aged out of the ring
    /// or was skipped by a follower — the server answers `410 Gone` plus
    /// [`VerdictTable::full_snapshot_delta`], and the follower re-bootstraps.
    pub fn delta_since(&self, since: u64) -> Result<DeltaSnapshot, RevisionRangeError> {
        let span = if since > 0 && since == self.version() {
            VerdictRevision::spanning(since, since, Vec::new(), Vec::new())
        } else {
            diff_revisions(self.revisions(), since, self.version())?
        };
        // Re-ship the current plan of every script the span touched.
        let plans = span
            .plans_touched()
            .iter()
            .map(|script| (Arc::clone(script), self.surrogate_plan(script)))
            .collect();
        Ok(DeltaSnapshot {
            since: Some(since),
            to: self.version(),
            committed: self.committed(),
            residue: self.unattributed(),
            changes: span.changes().to_vec(),
            plans,
        })
    }

    /// Export this table's complete committed serving state as a bootstrap
    /// [`DeltaSnapshot`]: every member as an addition, every surrogate
    /// plan. Applying it on an empty [`FollowerState`] reproduces this
    /// table's every decision.
    pub fn full_snapshot_delta(&self) -> DeltaSnapshot {
        let changes = self.classes().additions(self.keys());
        let mut plans: Vec<(Arc<str>, Option<Arc<SurrogateScript>>)> = self
            .surrogate_plans()
            .iter()
            .filter_map(|(key, entry)| {
                let script = Arc::from(self.keys().string(*key)?);
                Some((script, Some(Arc::clone(&entry.plan))))
            })
            .collect();
        plans.sort_by(|a, b| a.0.cmp(&b.0));
        DeltaSnapshot {
            since: None,
            to: self.version(),
            committed: self.committed(),
            residue: self.unattributed(),
            changes,
            plans,
        }
    }
}

/// Why a [`DeltaSnapshot`] could not be applied to a [`FollowerState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyError {
    /// A delta arrived whose baseline is not the follower's current
    /// version — applying it would interpolate a state the primary never
    /// committed. Re-fetch from the actual version (or re-bootstrap).
    BaselineMismatch {
        /// The follower's current version.
        held: u64,
        /// The delta's baseline.
        baseline: u64,
    },
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::BaselineMismatch { held, baseline } => write!(
                f,
                "delta baseline {baseline} does not match the held version {held}"
            ),
        }
    }
}

impl std::error::Error for ApplyError {}

/// A replica's mutable mirror of a primary's committed serving state.
///
/// Bootstrap from a full [`DeltaSnapshot`], apply deltas in version order,
/// and publish [`FollowerState::table`] after each apply (e.g. through a
/// [`TablePublisher`](crate::concurrent::TablePublisher)) — the published
/// table always equals **some exact committed primary version**, never a
/// mix. The filter engine and rewriter are attached locally at
/// construction (they are configuration, not replicated state).
#[derive(Debug, Default)]
pub struct FollowerState {
    interner: KeyInterner,
    classes: ClassTable,
    plans: SurrogatePlans,
    /// One revision per applied delta, bounded by
    /// [`DEFAULT_REVISION_CAPACITY`]; a bootstrap clears it.
    revisions: Vec<Arc<VerdictRevision>>,
    version: u64,
    committed: u64,
    residue: u64,
    keys_epoch: u64,
    bootstraps: u64,
    engine: Option<Arc<FilterEngine>>,
    rewriter: Option<Arc<UrlRewriter>>,
    frozen: Option<Arc<FrozenKeys>>,
}

impl FollowerState {
    /// An empty follower with its local enforcement configuration.
    pub fn new(engine: Option<Arc<FilterEngine>>, rewriter: Option<Arc<UrlRewriter>>) -> Self {
        FollowerState {
            engine,
            rewriter,
            ..FollowerState::default()
        }
    }

    /// The committed primary version this follower currently mirrors.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// How many times this follower bootstrapped from a full snapshot.
    pub fn bootstraps(&self) -> u64 {
        self.bootstraps
    }

    /// Apply a snapshot: a full one (re)bootstraps from scratch and clears
    /// the ring, a delta extends the held version and rings the span it
    /// covers (an idle one covers none). Deltas must chain exactly —
    /// `delta.since == Some(held version)` — anything else is a typed
    /// [`ApplyError`] and leaves the state untouched. (A fresh follower
    /// holds version 0, which *is* the primary's empty pre-commit state,
    /// so a delta from 0 chains without a prior bootstrap.)
    pub fn apply(&mut self, snapshot: &DeltaSnapshot) -> Result<(), ApplyError> {
        match snapshot.since {
            None => {
                // A bootstrap rebuilds the interner; if any ids were ever
                // handed out, they are reassigned now, so bump the local
                // epoch to invalidate cached client ids.
                if !self.interner.is_empty() || self.version > 0 {
                    self.keys_epoch += 1;
                }
                self.bootstraps += 1;
                self.interner = KeyInterner::new();
                self.classes = ClassTable::default();
                self.plans = SurrogatePlans::default();
                self.revisions.clear();
                self.frozen = None;
            }
            Some(baseline) if baseline != self.version => {
                return Err(ApplyError::BaselineMismatch {
                    held: self.version,
                    baseline,
                });
            }
            Some(_) => {}
        }
        for change in &snapshot.changes {
            let key = self.intern_change_key(change.granularity, &change.key);
            self.classes
                .set(change.granularity, key, change.kind.new_class());
        }
        for (script, plan) in &snapshot.plans {
            let key = self.interner.intern(script);
            match plan {
                Some(plan) => {
                    self.plans
                        .insert(key, SurrogateEntry::new(Arc::clone(plan)));
                }
                None => {
                    self.plans.remove(&key);
                }
            }
        }
        if let Some(since) = snapshot.since.filter(|&since| since < snapshot.to) {
            let plans = snapshot.plans.iter().map(|plan| plan.0.clone()).collect();
            let changes = snapshot.changes.clone();
            let span = VerdictRevision::spanning(since, snapshot.to, changes, plans);
            install_revision(&mut self.revisions, span, DEFAULT_REVISION_CAPACITY);
        }
        self.version = snapshot.to;
        self.committed = snapshot.committed;
        self.residue = snapshot.residue;
        Ok(())
    }

    /// Intern one change's key. Method-granularity keys arrive as composed
    /// `script :: method` labels; they are split and interned as a pair so
    /// the verdict walk's `(script, name)` → method lookup resolves (method
    /// names never contain the separator — the label composer guarantees
    /// the last separator is the real one).
    fn intern_change_key(&mut self, granularity: Granularity, label: &str) -> ResourceKey {
        if granularity == Granularity::Method {
            if let Some((script, name)) = label.rsplit_once(ResourceKey::METHOD_SEPARATOR) {
                return self.interner.intern_method(script, name);
            }
        }
        self.interner.intern(label)
    }

    /// Publish the mirrored state as an immutable [`VerdictTable`] at the
    /// primary's exact committed version, under the local key epoch and
    /// carrying the ring of deltas applied since the last bootstrap. The
    /// frozen key view is cached across calls and re-cloned only when a
    /// delta interned new keys.
    pub fn table(&mut self) -> VerdictTable {
        VerdictTable::new(TableParts {
            keys: self.interner.frozen(&mut self.frozen),
            classes: self.classes.clone(),
            version: self.version,
            committed: self.committed,
            residue: self.residue,
            keys_epoch: self.keys_epoch,
            engine: self.engine.clone(),
            url_rewriter: self.rewriter.clone(),
            surrogates: Arc::new(self.plans.clone()),
            revisions: self.revisions.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::DecisionRequest;
    use crate::service::{ObservationRef, Sifter};
    use crate::table::PrebuiltDecision;

    fn mixed_sifter(rounds: u64) -> Sifter {
        let mut sifter = Sifter::builder().build();
        for n in 0..rounds {
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
                n % 2 == 0,
            ));
            sifter.apply(ObservationRef::parts(
                "ads.com",
                "px.ads.com",
                "https://pub.com/a.js",
                "send",
                true,
            ));
        }
        sifter.commit();
        sifter
    }

    fn probes() -> Vec<DecisionRequest<'static>> {
        vec![
            DecisionRequest::new("hub.com", "w.hub.com", "https://pub.com/mixed.js", "track"),
            DecisionRequest::new("hub.com", "w.hub.com", "https://pub.com/mixed.js", "render"),
            DecisionRequest::new("hub.com", "w.hub.com", "https://pub.com/mixed.js", "novel"),
            DecisionRequest::new("ads.com", "px.ads.com", "https://pub.com/a.js", "send"),
            DecisionRequest::new("zzz.com", "a.zzz.com", "s.js", "m"),
        ]
    }

    #[test]
    fn full_snapshot_bootstrap_reproduces_every_decision() {
        let mut sifter = mixed_sifter(6);
        let table = sifter.verdict_table();
        let full = table.full_snapshot_delta();
        assert!(full.is_full());
        assert!(!full.changes.is_empty());
        assert!(!full.plans.is_empty(), "the mixed script ships its plan");

        let mut follower = FollowerState::new(None, None);
        follower.apply(&full).expect("bootstrap");
        let replica = follower.table();
        assert_eq!(replica.version(), table.version());
        assert_eq!(replica.committed(), table.committed());
        assert_eq!(replica.unattributed(), table.unattributed());
        for request in probes() {
            assert_eq!(
                replica.decide(&request),
                table.decide(&request),
                "{request:?}"
            );
        }
        // Frames re-encode byte-identically from the shipped plan.
        let PrebuiltDecision::Surrogate(frames) = replica.decide_prebuilt(&replica.resolve(
            &DecisionRequest::new("hub.com", "w.hub.com", "https://pub.com/mixed.js", "novel"),
        )) else {
            panic!("the mixed script serves its surrogate frames");
        };
        assert_eq!(
            frames.binary.as_ref(),
            crate::frames::encode_surrogate_payload(
                table
                    .surrogate_plan("https://pub.com/mixed.js")
                    .expect("plan")
                    .as_ref()
            )
        );
    }

    #[test]
    fn deltas_chain_exactly_and_mismatches_are_typed() {
        let (mut writer, _reader) = Sifter::builder().build_concurrent();
        writer.apply(ObservationRef::parts("a.com", "h.a.com", "s.js", "m", true));
        writer.commit();
        let table = writer.reader().pin().table().clone();
        let full = table.full_snapshot_delta();

        let mut follower = FollowerState::new(None, None);
        follower.apply(&full).expect("bootstrap");
        assert_eq!(follower.version(), 1);

        writer.apply(ObservationRef::parts(
            "b.com", "h.b.com", "s.js", "m", false,
        ));
        writer.commit();
        let next = writer.reader().pin().table().clone();
        let delta = next.delta_since(1).expect("covered span");
        assert_eq!(delta.since, Some(1));
        assert_eq!(delta.to, 2);
        // A stale baseline is rejected without touching state.
        let stale = next.delta_since(0).expect("ring covers 0..2");
        let mut wrong = stale.clone();
        wrong.since = Some(7);
        assert_eq!(
            follower.apply(&wrong),
            Err(ApplyError::BaselineMismatch {
                held: 1,
                baseline: 7
            })
        );
        follower.apply(&delta).expect("chained delta");
        assert_eq!(follower.version(), 2);
        for request in probes() {
            assert_eq!(follower.table().decide(&request), next.decide(&request));
        }
    }

    #[test]
    fn a_delta_from_zero_chains_on_a_fresh_follower() {
        let (mut writer, reader) = Sifter::builder().build_concurrent();
        for n in 0..3u64 {
            writer.apply(ObservationRef::parts(
                "hub.com",
                "w.hub.com",
                "https://pub.com/mixed.js",
                "track",
                true,
            ));
            writer.apply(ObservationRef::parts(
                "hub.com",
                "w.hub.com",
                "https://pub.com/mixed.js",
                "render",
                n % 2 == 0,
            ));
            writer.commit();
        }
        let pin = reader.pin();
        let table = pin.table();
        let delta = table.delta_since(0).expect("ring covers 0..3");
        let mut follower = FollowerState::new(None, None);
        follower
            .apply(&delta)
            .expect("version 0 is the empty state");
        assert_eq!(follower.version(), table.version());
        assert_eq!(follower.bootstraps(), 0);
        let replica = follower.table();
        for request in probes() {
            assert_eq!(replica.decide(&request), table.decide(&request));
        }
    }

    /// A follower's table anchors the version it bootstrapped at, records
    /// each delta as one span, and records nothing for an idle delta — which
    /// would otherwise overwrite the span it arrived after.
    #[test]
    fn a_follower_rings_the_spans_it_applied() {
        let (mut writer, reader) = Sifter::builder().build_concurrent();
        let mut commit = |domain: &str| {
            writer.apply(ObservationRef::parts(domain, "h.x", "s.js", "m", true));
            writer.commit();
        };
        commit("a.com");
        let mut follower = FollowerState::new(None, None);
        follower
            .apply(&reader.pin().table().full_snapshot_delta())
            .expect("bootstrap");
        let bootstrapped = follower.table();
        assert!(bootstrapped.revisions().is_empty());
        assert!(bootstrapped
            .delta_since(1)
            .expect("own version")
            .changes
            .is_empty());
        assert_eq!(
            bootstrapped.delta_since(0),
            Err(RevisionRangeError::Unknown { from: 0, to: 1 })
        );

        commit("b.com");
        commit("c.com");
        let primary = reader.pin().table().clone();
        follower
            .apply(&primary.delta_since(1).expect("covered span"))
            .expect("delta");
        let ring: Vec<(u64, u64)> = follower
            .table()
            .revisions()
            .iter()
            .map(|revision| (revision.since(), revision.version()))
            .collect();
        assert_eq!(ring, [(1, 3)]);
        assert_eq!(
            follower.table().delta_since(1).expect("oldest baseline"),
            primary.delta_since(1).expect("primary baseline")
        );
        assert!(follower.table().delta_since(2).is_err(), "2 was skipped");

        let before = follower.table().revisions().to_vec();
        follower
            .apply(&primary.delta_since(3).expect("idle"))
            .expect("idle delta");
        assert_eq!(follower.table().revisions(), &before[..]);

        follower
            .apply(&primary.full_snapshot_delta())
            .expect("re-bootstrap");
        assert!(follower.table().revisions().is_empty());
    }

    #[test]
    fn rebootstrap_bumps_the_local_keys_epoch() {
        let mut sifter = mixed_sifter(2);
        let full = sifter.verdict_table().full_snapshot_delta();
        let mut follower = FollowerState::new(None, None);
        follower.apply(&full).expect("first bootstrap");
        let first_epoch = follower.table().keys_epoch();
        follower.apply(&full).expect("re-bootstrap");
        assert_eq!(follower.bootstraps(), 2);
        assert!(follower.table().keys_epoch() > first_epoch);
    }
}
