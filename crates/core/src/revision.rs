//! Verdict revisions: drift records over spans of the published state.
//!
//! A one-shot study classifies once and stops; a serving deployment watches
//! the web *change under it* — trackers rotate CDNs, lists catch up, mixed
//! hosts tip over a threshold — and operators need to see exactly what each
//! commit changed. This module is that record:
//!
//! * [`RevisionChange`] — one per-key class transition at one granularity:
//!   the key entered the level ([`ChangeKind::Added`]), left it
//!   ([`ChangeKind::Removed`]), or flipped classification
//!   ([`ChangeKind::Flipped`] with old → new).
//! * [`VerdictRevision`] — every change over one span of published
//!   versions, `(since, version]`. A commit's revision spans one version
//!   and is the commit's own record, not a diff of two tables: the
//!   sifter's class writer reports each change as it writes it. The
//!   concurrent writer installs one per commit (even an empty one), so its
//!   ring has a boundary at every version; a follower installs one per
//!   delta it applies. Either keeps a bounded ring of them attached to the
//!   published [`VerdictTable`](crate::VerdictTable).
//! * [`compose`] / [`diff_revisions`] — the diff algebra: transitions
//!   compose by chaining old → new per `(granularity, key)` and dropping
//!   identities, so the drift between *any* two span boundaries of a ring
//!   is the fold of the revisions between them — itself a revision.
//!   Composition is associative — `diff(a,c) == compose(diff(a,b),
//!   diff(b,c))` — which the property tests pin against an independent
//!   model.
//!
//! Changes are kept in one canonical order (granularity coarsest-first,
//! then key string) so two runs from the same seed produce byte-identical
//! revision rings and wire encodings.

use crate::hierarchy::Granularity;
use crate::ratio::Classification;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// How one key's committed classification changed between two states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeKind {
    /// The key became a member of the level (was absent before).
    Added(Classification),
    /// The key left the level (carrying its last classification).
    Removed(Classification),
    /// The key stayed a member but flipped classification (old, new).
    Flipped(Classification, Classification),
}

impl ChangeKind {
    /// The transition from `old` to `new`, or `None` when nothing changed.
    pub fn of(old: Option<Classification>, new: Option<Classification>) -> Option<ChangeKind> {
        match (old, new) {
            (None, Some(class)) => Some(ChangeKind::Added(class)),
            (Some(class), None) => Some(ChangeKind::Removed(class)),
            (Some(a), Some(b)) if a != b => Some(ChangeKind::Flipped(a, b)),
            _ => None,
        }
    }

    /// The classification before the change (`None` for additions).
    pub(crate) fn old_class(&self) -> Option<Classification> {
        match self {
            ChangeKind::Added(_) => None,
            ChangeKind::Removed(class) => Some(*class),
            ChangeKind::Flipped(old, _) => Some(*old),
        }
    }

    /// The classification after the change (`None` for removals).
    pub fn new_class(&self) -> Option<Classification> {
        match self {
            ChangeKind::Added(class) => Some(*class),
            ChangeKind::Removed(_) => None,
            ChangeKind::Flipped(_, new) => Some(*new),
        }
    }
}

impl fmt::Display for ChangeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChangeKind::Added(class) => write!(f, "added as {class}"),
            ChangeKind::Removed(class) => write!(f, "removed (was {class})"),
            ChangeKind::Flipped(old, new) => write!(f, "flipped {old} -> {new}"),
        }
    }
}

/// One per-key class transition recorded by a commit (or produced by
/// composing several spans' transitions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevisionChange {
    /// The hierarchy level the key changed at.
    pub(crate) granularity: Granularity,
    /// The resource key string (domain, hostname, script URL, or composed
    /// `script :: method` label), copied out of the key store when the
    /// commit (or bootstrap) recorded the change, so a revision outlives
    /// the store it was resolved from.
    pub(crate) key: Arc<str>,
    /// What happened to the key's classification.
    pub kind: ChangeKind,
}

impl RevisionChange {
    /// A change from explicit parts.
    pub fn new(granularity: Granularity, key: impl Into<Arc<str>>, kind: ChangeKind) -> Self {
        RevisionChange {
            granularity,
            key: key.into(),
            kind,
        }
    }
}

/// Order changes canonically: granularity coarsest-first, then key string.
pub(crate) fn sort_changes(changes: &mut [RevisionChange]) {
    changes.sort_by(|a, b| {
        (a.granularity.index(), a.key.as_ref()).cmp(&(b.granularity.index(), b.key.as_ref()))
    });
}

/// Every per-key class change over one span of published versions: from
/// the baseline `since` (exclusive) to `version` (inclusive).
///
/// A commit records one revision spanning `(v-1, v]` — including commits
/// that changed nothing — so a primary's ring has a boundary at every
/// version. A follower records each delta it applies as one revision over
/// the span that delta covered, and [`diff_revisions`] composes any run of
/// them into one more. Changes are held in canonical (granularity, key)
/// order.
///
/// ```
/// use trackersift::{ChangeKind, Classification, Granularity, RevisionChange, VerdictRevision};
///
/// let revision = VerdictRevision::new(
///     7,
///     vec![RevisionChange::new(
///         Granularity::Domain,
///         "ads.com",
///         ChangeKind::Added(Classification::Tracking),
///     )],
/// );
/// assert_eq!((revision.since(), revision.version()), (6, 7));
/// assert_eq!(revision.changes().len(), 1);
/// assert_eq!(
///     revision.changes()[0].kind.new_class(),
///     Some(Classification::Tracking)
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictRevision {
    since: u64,
    version: u64,
    changes: Vec<RevisionChange>,
    /// Script keys whose surrogate plan the span rebuilt or dropped, as
    /// each commit's plan refresh recorded them. Plans embed per-method
    /// counts, so they can change *without* any class transition; delta
    /// snapshots use this set to know which plans to re-ship. Sorted,
    /// deduplicated.
    plans_touched: Vec<Arc<str>>,
}

impl VerdictRevision {
    /// One commit's revision, `(version - 1, version]`, from explicit
    /// parts; changes are sorted into the canonical (granularity, key)
    /// order.
    pub fn new(version: u64, changes: Vec<RevisionChange>) -> Self {
        VerdictRevision::with_plans(version, changes, Vec::new())
    }

    /// One commit's revision that also records which scripts' surrogate
    /// plans the commit rebuilt (see [`VerdictRevision::plans_touched`]).
    pub fn with_plans(
        version: u64,
        changes: Vec<RevisionChange>,
        plans_touched: Vec<Arc<str>>,
    ) -> Self {
        VerdictRevision::spanning(version.saturating_sub(1), version, changes, plans_touched)
    }

    /// The revision over `(since, version]`: what one applied delta, or a
    /// composition of several commits, changed.
    pub(crate) fn spanning(
        since: u64,
        version: u64,
        mut changes: Vec<RevisionChange>,
        mut plans_touched: Vec<Arc<str>>,
    ) -> Self {
        sort_changes(&mut changes);
        plans_touched.sort();
        plans_touched.dedup();
        VerdictRevision {
            since,
            version,
            changes,
            plans_touched,
        }
    }

    /// The baseline version (exclusive): the state this span starts after.
    pub fn since(&self) -> u64 {
        self.since
    }

    /// The published table version the span ends at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The net per-key transitions over the span, in canonical order.
    pub fn changes(&self) -> &[RevisionChange] {
        &self.changes
    }

    /// Script keys whose surrogate plan the span rebuilt or removed,
    /// sorted. A superset of the script-level class changes: plans embed
    /// per-method request counts, which drift without class flips.
    pub fn plans_touched(&self) -> &[Arc<str>] {
        &self.plans_touched
    }
}

/// Append `revision` to a bounded ring, overriding an existing entry with
/// the same (newest) version and ignoring stale out-of-order versions —
/// the one install path live commits, journal recovery and followers use,
/// so persisted ring records and recomputed ones cannot double up.
pub(crate) fn install_revision(
    ring: &mut Vec<Arc<VerdictRevision>>,
    revision: VerdictRevision,
    capacity: usize,
) {
    match ring.last() {
        Some(last) if last.version() == revision.version() => {
            let slot = ring.last_mut().expect("ring has a last entry");
            *slot = Arc::new(revision);
            return;
        }
        Some(last) if last.version() > revision.version() => return,
        _ => {}
    }
    if ring.len() >= capacity {
        let excess = ring.len() + 1 - capacity;
        ring.drain(..excess);
    }
    ring.push(Arc::new(revision));
}

/// Why a requested revision diff could not be answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RevisionRangeError {
    /// `from > to`: the range is backwards (a client bug — HTTP 400).
    Inverted {
        /// Requested baseline version.
        from: u64,
        /// Requested target version.
        to: u64,
    },
    /// An end of the range is not a span boundary of the revision ring: it
    /// fell off the bounded ring, was never produced, or lies inside a
    /// span a follower applied as one delta (HTTP 404).
    Unknown {
        /// Requested baseline version.
        from: u64,
        /// Requested target version.
        to: u64,
    },
}

impl fmt::Display for RevisionRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RevisionRangeError::Inverted { from, to } => {
                write!(f, "inverted revision range {from}..{to}")
            }
            RevisionRangeError::Unknown { from, to } => {
                write!(f, "revision range {from}..{to} is not in the revision ring")
            }
        }
    }
}

impl std::error::Error for RevisionRangeError {}

/// Net transition accumulator keyed by (granularity index, key string);
/// `BTreeMap` so collection comes out in canonical order for free.
type NetMap = BTreeMap<(usize, Arc<str>), (Option<Classification>, Option<Classification>)>;

fn fold_changes(net: &mut NetMap, changes: &[RevisionChange]) {
    for change in changes {
        let slot = (change.granularity.index(), Arc::clone(&change.key));
        match net.get_mut(&slot) {
            Some((_, new)) => *new = change.kind.new_class(),
            None => {
                net.insert(slot, (change.kind.old_class(), change.kind.new_class()));
            }
        }
    }
}

fn collect_net(net: NetMap) -> Vec<RevisionChange> {
    net.into_iter()
        .filter_map(|((granularity, key), (old, new))| {
            ChangeKind::of(old, new).map(|kind| RevisionChange {
                granularity: Granularity::ALL[granularity],
                key,
                kind,
            })
        })
        .collect()
}

/// Compose two change sets applied in sequence into their net effect:
/// per `(granularity, key)`, chain old → new and drop transitions that
/// cancel out. Composition is associative, which is what makes any two
/// ring versions diffable by folding the revisions between them.
pub fn compose(first: &[RevisionChange], second: &[RevisionChange]) -> Vec<RevisionChange> {
    let mut net = NetMap::new();
    fold_changes(&mut net, first);
    fold_changes(&mut net, second);
    collect_net(net)
}

/// The revision over `(from, to]`, composed from a contiguous ascending
/// revision ring: the net changes of the spans between the two versions
/// and the union of the plans they touched.
///
/// Both ends must be span boundaries — the oldest entry's baseline or any
/// entry's version — and `from == to` on a boundary is an empty revision.
/// A baseline inside a span is [`RevisionRangeError::Unknown`]: the span
/// holds only its net change, so a key that flipped and flipped back
/// inside it would be missing from the answer. A backwards range is
/// [`RevisionRangeError::Inverted`].
pub fn diff_revisions(
    ring: &[Arc<VerdictRevision>],
    from: u64,
    to: u64,
) -> Result<VerdictRevision, RevisionRangeError> {
    if from > to {
        return Err(RevisionRangeError::Inverted { from, to });
    }
    // The ring index of the first span after `version`, when it is a
    // boundary.
    let after = |version: u64| match ring.first() {
        Some(oldest) if oldest.since() == version => Some(0),
        _ => ring
            .iter()
            .position(|revision| revision.version() == version)
            .map(|index| index + 1),
    };
    let Some(spans) = after(from)
        .zip(after(to))
        .and_then(|(start, end)| ring.get(start..end))
    else {
        return Err(RevisionRangeError::Unknown { from, to });
    };
    let mut net = NetMap::new();
    for revision in spans {
        fold_changes(&mut net, revision.changes());
    }
    let plans = spans
        .iter()
        .flat_map(|revision| revision.plans_touched().iter().cloned())
        .collect();
    Ok(VerdictRevision::spanning(from, to, collect_net(net), plans))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn change(granularity: Granularity, key: &str, kind: ChangeKind) -> RevisionChange {
        RevisionChange::new(granularity, key, kind)
    }

    #[test]
    fn change_kind_models_every_transition() {
        use Classification::*;
        assert_eq!(ChangeKind::of(None, None), None);
        assert_eq!(ChangeKind::of(Some(Mixed), Some(Mixed)), None);
        assert_eq!(
            ChangeKind::of(None, Some(Tracking)),
            Some(ChangeKind::Added(Tracking))
        );
        assert_eq!(
            ChangeKind::of(Some(Functional), None),
            Some(ChangeKind::Removed(Functional))
        );
        assert_eq!(
            ChangeKind::of(Some(Mixed), Some(Tracking)),
            Some(ChangeKind::Flipped(Mixed, Tracking))
        );
        let flipped = ChangeKind::Flipped(Mixed, Tracking);
        assert_eq!(flipped.old_class(), Some(Mixed));
        assert_eq!(flipped.new_class(), Some(Tracking));
    }

    #[test]
    fn revisions_sort_changes_canonically() {
        use Classification::*;
        let revision = VerdictRevision::new(
            1,
            vec![
                change(Granularity::Script, "z.js", ChangeKind::Added(Mixed)),
                change(Granularity::Domain, "b.com", ChangeKind::Added(Tracking)),
                change(Granularity::Domain, "a.com", ChangeKind::Added(Functional)),
            ],
        );
        let order: Vec<(usize, &str)> = revision
            .changes()
            .iter()
            .map(|c| (c.granularity.index(), c.key.as_ref()))
            .collect();
        assert_eq!(
            order,
            vec![(0, "a.com"), (0, "b.com"), (2, "z.js")],
            "coarsest granularity first, then key order"
        );
    }

    #[test]
    fn compose_chains_and_cancels() {
        use Classification::*;
        let first = vec![
            change(Granularity::Domain, "a.com", ChangeKind::Added(Tracking)),
            change(
                Granularity::Domain,
                "b.com",
                ChangeKind::Flipped(Mixed, Tracking),
            ),
        ];
        let second = vec![
            change(
                Granularity::Domain,
                "a.com",
                ChangeKind::Flipped(Tracking, Mixed),
            ),
            change(
                Granularity::Domain,
                "b.com",
                ChangeKind::Flipped(Tracking, Mixed),
            ),
            change(Granularity::Hostname, "h.c.com", ChangeKind::Added(Mixed)),
        ];
        let net = compose(&first, &second);
        assert_eq!(
            net,
            vec![
                change(Granularity::Domain, "a.com", ChangeKind::Added(Mixed)),
                change(Granularity::Hostname, "h.c.com", ChangeKind::Added(Mixed)),
            ],
            "a.com chains None->Tracking->Mixed, b.com cancels Mixed->Tracking->Mixed"
        );
    }

    fn ring(revisions: Vec<VerdictRevision>) -> Vec<Arc<VerdictRevision>> {
        revisions.into_iter().map(Arc::new).collect()
    }

    #[test]
    fn diff_folds_the_requested_span() {
        use Classification::*;
        let ring = ring(vec![
            VerdictRevision::new(
                3,
                vec![change(
                    Granularity::Domain,
                    "a.com",
                    ChangeKind::Added(Tracking),
                )],
            ),
            VerdictRevision::new(4, vec![]),
            VerdictRevision::new(
                5,
                vec![change(
                    Granularity::Domain,
                    "a.com",
                    ChangeKind::Flipped(Tracking, Mixed),
                )],
            ),
        ]);
        let full = diff_revisions(&ring, 2, 5).expect("full span");
        assert_eq!(
            full.changes(),
            [change(
                Granularity::Domain,
                "a.com",
                ChangeKind::Added(Mixed)
            )]
        );
        let tail = diff_revisions(&ring, 4, 5).expect("tail span");
        assert_eq!(
            tail.changes(),
            [change(
                Granularity::Domain,
                "a.com",
                ChangeKind::Flipped(Tracking, Mixed)
            )]
        );
        let empty = diff_revisions(&ring, 4, 4).expect("empty span");
        assert!(empty.changes.is_empty());
        assert_eq!((empty.since(), empty.version()), (4, 4));
    }

    /// A follower that applied `(2,5]` as one delta holds only its net
    /// change: `x.com` went Tracking -> Mixed -> Tracking inside it, so the
    /// span records nothing for `x.com`. A baseline inside the span would
    /// answer as if `x.com` never moved, so it is refused; the boundaries
    /// answer, with the union of the plans their spans touched.
    #[test]
    fn diff_refuses_a_baseline_inside_a_span() {
        use Classification::*;
        let ring = ring(vec![
            VerdictRevision::spanning(
                2,
                5,
                vec![change(
                    Granularity::Domain,
                    "y.com",
                    ChangeKind::Added(Mixed),
                )],
                vec![Arc::from("https://y.com/a.js")],
            ),
            VerdictRevision::spanning(
                5,
                6,
                vec![change(
                    Granularity::Domain,
                    "x.com",
                    ChangeKind::Flipped(Tracking, Functional),
                )],
                vec![Arc::from("https://x.com/b.js")],
            ),
        ]);
        assert_eq!(
            diff_revisions(&ring, 3, 6),
            Err(RevisionRangeError::Unknown { from: 3, to: 6 })
        );
        assert_eq!(
            diff_revisions(&ring, 2, 4),
            Err(RevisionRangeError::Unknown { from: 2, to: 4 }),
            "a target inside a span is no boundary either"
        );
        let whole = diff_revisions(&ring, 2, 6).expect("oldest baseline");
        assert_eq!((whole.since(), whole.version()), (2, 6));
        assert_eq!(whole.changes().len(), 2);
        assert_eq!(
            whole.plans_touched(),
            [
                Arc::from("https://x.com/b.js"),
                Arc::from("https://y.com/a.js")
            ]
        );
        let tail = diff_revisions(&ring, 5, 6).expect("interior boundary");
        assert_eq!(tail, *ring[1]);
        assert!(diff_revisions(&ring, 6, 6)
            .expect("newest boundary")
            .changes
            .is_empty());
    }

    #[test]
    fn diff_rejects_hostile_ranges_typed() {
        let ring = ring(vec![VerdictRevision::new(3, vec![]), {
            VerdictRevision::new(4, vec![])
        }]);
        assert_eq!(
            diff_revisions(&ring, 4, 3),
            Err(RevisionRangeError::Inverted { from: 4, to: 3 })
        );
        assert_eq!(
            diff_revisions(&ring, 1, 4),
            Err(RevisionRangeError::Unknown { from: 1, to: 4 }),
            "baseline 1 fell off the ring (floor is 2)"
        );
        assert_eq!(
            diff_revisions(&ring, 3, 9),
            Err(RevisionRangeError::Unknown { from: 3, to: 9 }),
            "target 9 was never produced"
        );
        assert_eq!(
            diff_revisions(&[], 0, 0),
            Err(RevisionRangeError::Unknown { from: 0, to: 0 }),
            "an empty ring anchors nothing"
        );
        // The floor baseline itself is diffable.
        assert!(diff_revisions(&ring, 2, 4).is_ok());
        assert!(diff_revisions(&ring, 2, 2).is_ok());
    }
}
