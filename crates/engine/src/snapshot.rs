//! Versioned persistence of trained [`Sifter`](crate::Sifter)
//! state.
//!
//! A [`SifterSnapshot`] captures everything a serving process needs to
//! answer verdicts after a restart without re-crawling or re-labeling: the
//! interner's string table (so resource ids — and therefore verdicts and
//! [`hierarchy`](crate::Sifter::hierarchy) exports — are bitwise
//! stable across the round-trip), the hostname → domain and method →
//! (script, name) attributions, and the finest-granularity count cells
//! (per `(method, hostname)` pair). Every coarser count is a sum of those
//! cells, so nothing else needs to be stored; restore replays the cells
//! through the sifter's normal accumulation path and commits once. That
//! commit also (re)builds the flattened [`crate::table`] representation, so
//! a restored sifter — and any [`SifterReader`](crate::concurrent::SifterReader)
//! split off it via [`Sifter::into_concurrent`](crate::Sifter::into_concurrent)
//! — serves through exactly the same verdict tables as the process that
//! exported the snapshot.
//!
//! # Format and versioning
//!
//! A snapshot is one JSON object. [`SifterSnapshot::to_json_string`]
//! streams it straight into one buffer sized up front, through the
//! tree-less writers of the dependency-free [`trackersift_json`] codec
//! ([`write_string`](trackersift_json::write_string),
//! [`write_u64`](trackersift_json::write_u64),
//! [`write_number`](trackersift_json::write_number)): no
//! [`Value`] tree, no vector per row. The keys are a [`FrozenKeys`] view of
//! the sifter's interner that shares its sealed arena chunks and copies
//! only the open chunk and the span table (an export never looks a string
//! up, so the view is frozen without a lookup table), and an export copies
//! each key's bytes once, into the text. [`SifterSnapshot::parse`] reads it back
//! through [`Value::parse`], interning the keys into a view of their own;
//! a key listed twice is [`SnapshotError::Corrupt`].
//!
//! ```json
//! {
//!   "format": "trackersift.sifter",
//!   "version": 1,
//!   "threshold": 2,
//!   "observed": 123456,
//!   "keys": ["google.com", "cdn.google.com", ...],
//!   "hostnames": [[1, 0], ...],
//!   "methods": [[9, 4, 7], ...],
//!   "cells": [[9, 1, 40, 2], ...]
//! }
//! ```
//!
//! * `format` is a fixed marker ([`SifterSnapshot::FORMAT`]); anything else
//!   is rejected with [`SnapshotError::UnknownFormat`].
//! * `version` is the format's schema version
//!   ([`SifterSnapshot::FORMAT_VERSION`], currently 1). Readers reject
//!   snapshots with a different version with
//!   [`SnapshotError::UnsupportedVersion`] instead of guessing — bump the
//!   constant (and write a migration) whenever the schema changes shape.
//! * `keys` is the interner string table in id order; `hostnames`,
//!   `methods` and `cells` reference it by index
//!   (`[hostname, domain]`, `[method, script, method-name]` and
//!   `[method, hostname, tracking, functional]` respectively).
//!
//! The writer is deterministic (rows sorted by id), so equal sifter states
//! render to byte-identical snapshots — the round-trip property the
//! service tests pin down.

use crate::intern::{FrozenKeys, KeyInterner};
use std::fmt;
use trackersift_json::{self as json, JsonError, Value};

/// Errors from decoding or restoring a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The document is not a sifter snapshot at all.
    UnknownFormat(String),
    /// The snapshot was written by a different schema version.
    UnsupportedVersion {
        /// Version found in the document.
        found: u64,
        /// The version this build reads.
        supported: u32,
    },
    /// The document parsed but its contents are inconsistent.
    Corrupt(String),
    /// The document is not valid JSON (or a field has the wrong type).
    Json(JsonError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::UnknownFormat(found) => {
                write!(f, "not a sifter snapshot (format marker {found:?})")
            }
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot version {found} is not supported (this build reads version {supported})"
            ),
            SnapshotError::Corrupt(message) => write!(f, "corrupt snapshot: {message}"),
            SnapshotError::Json(error) => write!(f, "snapshot decode failed: {error}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<JsonError> for SnapshotError {
    fn from(error: JsonError) -> Self {
        SnapshotError::Json(error)
    }
}

/// Exported trained state of a [`Sifter`](crate::Sifter); see the
/// module docs of `snapshot.rs` for the format.
#[derive(Debug, Clone)]
pub struct SifterSnapshot {
    /// The symmetric log-ratio threshold in force.
    pub(crate) threshold: f64,
    /// Total observations the state accumulates.
    pub(crate) observed: u64,
    /// Interner string table, in id order: a view sharing the interner's
    /// sealed chunks, frozen without its lookup table and pair cache.
    pub(crate) keys: FrozenKeys,
    /// `(hostname id, domain id)` rows, sorted.
    pub(crate) hostnames: Vec<(u32, u32)>,
    /// `(method id, script id, method-name id)` rows, sorted.
    pub(crate) methods: Vec<(u32, u32, u32)>,
    /// `(method id, hostname id, tracking, functional)` rows, sorted.
    pub(crate) cells: Vec<(u32, u32, u64, u64)>,
}

/// Equal snapshots list the same key strings in the same id order and the
/// same rows; the views' hash seeds are not compared.
impl PartialEq for SifterSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.threshold == other.threshold
            && self.observed == other.observed
            && self.keys.len() == other.keys.len()
            && self.keys.iter().eq(other.keys.iter())
            && self.hostnames == other.hostnames
            && self.methods == other.methods
            && self.cells == other.cells
    }
}

impl SifterSnapshot {
    /// The fixed format marker.
    pub(crate) const FORMAT: &'static str = "trackersift.sifter";

    /// The schema version this build writes and reads.
    pub const FORMAT_VERSION: u32 = 1;

    /// Total observations the snapshot carries.
    pub fn observations(&self) -> u64 {
        self.observed
    }

    /// Number of interned key strings.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Number of `(method, hostname)` count cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Render to the canonical (deterministic) JSON text, streamed into one
    /// buffer (see the module docs of `snapshot.rs`).
    ///
    /// # Panics
    /// Panics if `observed` or a count exceeds 2^53, or the threshold is not
    /// finite: JSON cannot carry either exactly.
    pub fn to_json_string(&self) -> String {
        let mut out = Vec::with_capacity(self.text_len_bound());
        out.extend_from_slice(b"{\"format\":");
        json::write_string(&mut out, Self::FORMAT);
        out.extend_from_slice(b",\"version\":");
        json::write_u64(&mut out, u64::from(Self::FORMAT_VERSION));
        out.extend_from_slice(b",\"threshold\":");
        json::write_number(&mut out, self.threshold);
        out.extend_from_slice(b",\"observed\":");
        json::write_u64(&mut out, self.observed);
        out.extend_from_slice(b",\"keys\":[");
        for (id, key) in self.keys.iter() {
            if id.index() > 0 {
                out.push(b',');
            }
            json::write_string(&mut out, key);
        }
        out.extend_from_slice(b"],\"hostnames\":");
        write_rows(&mut out, &self.hostnames, |&(h, d)| [h.into(), d.into()]);
        out.extend_from_slice(b",\"methods\":");
        write_rows(&mut out, &self.methods, |&(m, s, n)| {
            [m.into(), s.into(), n.into()]
        });
        out.extend_from_slice(b",\"cells\":");
        write_rows(&mut out, &self.cells, |&(m, h, t, f)| {
            [m.into(), h.into(), t, f]
        });
        out.push(b'}');
        String::from_utf8(out).expect("the JSON writers emit UTF-8")
    }

    /// The capacity the text is written into: its length or more, unless a
    /// key needs an escape or the threshold prints long. An id has no more
    /// digits than the key count, a count in a consistent snapshot no more
    /// than `observed`, and the envelope takes under 256 bytes.
    fn text_len_bound(&self) -> usize {
        let digits = |n: u64| n.checked_ilog10().map_or(1, |log| log as usize + 1);
        let id = digits(self.keys.len() as u64);
        let count = digits(self.observed);
        // A key, its quotes and its comma; a row, its brackets and commas.
        let keys: usize = self.keys.iter().map(|(_, key)| key.len() + 3).sum();
        256 + keys
            + self.hostnames.len() * (2 * id + 4)
            + self.methods.len() * (3 * id + 5)
            + self.cells.len() * (2 * id + 2 * count + 6)
    }

    /// Parse from JSON text, validating format marker, version, and
    /// structural consistency (see `SifterSnapshot::validate`).
    pub fn parse(text: &str) -> Result<Self, SnapshotError> {
        let snapshot = Self::decode(&Value::parse(text)?)?;
        snapshot.validate()?;
        Ok(snapshot)
    }

    /// Structural validation beyond JSON well-formedness: every row must
    /// reference an in-range key id, every count cell must carry at least
    /// one request (a zero cell is unrepresentable through `apply` and is
    /// the signature of a truncated export), and the cells must sum to the
    /// claimed observation total without overflowing. Importing such a
    /// document used to fail only at restore time (or, for the zero-cell
    /// case, silently skew later reclassification); [`SifterSnapshot::parse`]
    /// now rejects it up front with a typed [`SnapshotError::Corrupt`].
    pub(crate) fn validate(&self) -> Result<(), SnapshotError> {
        let keys = self.keys.len();
        let check = |id: u32, what: &str| -> Result<(), SnapshotError> {
            if (id as usize) < keys {
                Ok(())
            } else {
                Err(SnapshotError::Corrupt(format!(
                    "{what} id {id} out of range ({keys} keys)"
                )))
            }
        };
        for &(h, d) in &self.hostnames {
            check(h, "hostname")?;
            check(d, "domain")?;
        }
        for &(m, s, n) in &self.methods {
            check(m, "method")?;
            check(s, "script")?;
            check(n, "method-name")?;
        }
        let mut total = 0u64;
        for &(m, h, tracking, functional) in &self.cells {
            check(m, "cell method")?;
            check(h, "cell hostname")?;
            let cell = tracking.checked_add(functional).ok_or_else(|| {
                SnapshotError::Corrupt(format!(
                    "count cell for method id {m} on hostname id {h} overflows u64"
                ))
            })?;
            if cell == 0 {
                return Err(SnapshotError::Corrupt(format!(
                    "count cell for method id {m} on hostname id {h} is empty \
                     (truncated export?)"
                )));
            }
            total = total.checked_add(cell).ok_or_else(|| {
                SnapshotError::Corrupt("count cells sum overflows u64".to_string())
            })?;
        }
        if total != self.observed {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot claims {} observations but its cells sum to {total}",
                self.observed
            )));
        }
        Ok(())
    }
}

/// The single source of truth for format-marker / version acceptance: a
/// `Some` means the envelope itself is wrong. Missing or mistyped envelope
/// fields return `None` and fall through to the field-by-field decode,
/// which reports them as JSON errors.
fn envelope_error(value: &Value) -> Option<SnapshotError> {
    let format = value.get("format")?.as_str().ok()?;
    if format != SifterSnapshot::FORMAT {
        return Some(SnapshotError::UnknownFormat(format.to_string()));
    }
    let version = value.get("version")?.as_u64().ok()?;
    if version != u64::from(SifterSnapshot::FORMAT_VERSION) {
        return Some(SnapshotError::UnsupportedVersion {
            found: version,
            supported: SifterSnapshot::FORMAT_VERSION,
        });
    }
    None
}

/// Write `rows` as a JSON array with one array of integers per row.
fn write_rows<T, const N: usize>(out: &mut Vec<u8>, rows: &[T], fields: impl Fn(&T) -> [u64; N]) {
    out.push(b'[');
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.push(b'[');
        for (j, field) in fields(row).into_iter().enumerate() {
            if j > 0 {
                out.push(b',');
            }
            json::write_u64(out, field);
        }
        out.push(b']');
    }
    out.push(b']');
}

impl SifterSnapshot {
    /// Decode from a JSON node, the envelope checked first so that format
    /// and version mismatches surface as their precise variants rather
    /// than generic JSON errors.
    fn decode(value: &Value) -> Result<Self, SnapshotError> {
        if let Some(error) = envelope_error(value) {
            return Err(error);
        }
        // The envelope check returns `None` for missing or mistyped
        // fields; these two reads report them.
        let _ = value.field("format")?.as_str()?;
        let _ = value.field("version")?.as_u64()?;
        let threshold = match value.field("threshold")? {
            Value::Number(n) => *n,
            other => return Err(JsonError(format!("expected number, got {other:?}")).into()),
        };
        let observed = value.field("observed")?.as_u64()?;
        let listed = value.field("keys")?.as_array()?;
        let mut keys = KeyInterner::with_capacity(listed.len());
        for (index, key) in listed.iter().enumerate() {
            let key = key.as_str()?;
            if keys.intern(key).index() != index {
                return Err(SnapshotError::Corrupt(format!(
                    "duplicate interner key {key:?} at index {index}"
                )));
            }
        }
        let hostnames = value
            .field("hostnames")?
            .as_array()?
            .iter()
            .map(|row| {
                let row = row.as_array()?;
                match row {
                    [h, d] => Ok((h.as_u32()?, d.as_u32()?)),
                    _ => Err(JsonError(format!(
                        "hostname row has {} fields, expected 2",
                        row.len()
                    ))),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        let methods = value
            .field("methods")?
            .as_array()?
            .iter()
            .map(|row| {
                let row = row.as_array()?;
                match row {
                    [m, s, n] => Ok((m.as_u32()?, s.as_u32()?, n.as_u32()?)),
                    _ => Err(JsonError(format!(
                        "method row has {} fields, expected 3",
                        row.len()
                    ))),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        let cells = value
            .field("cells")?
            .as_array()?
            .iter()
            .map(|row| {
                let row = row.as_array()?;
                match row {
                    [m, h, t, f] => Ok((m.as_u32()?, h.as_u32()?, t.as_u64()?, f.as_u64()?)),
                    _ => Err(JsonError(format!(
                        "cell row has {} fields, expected 4",
                        row.len()
                    ))),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SifterSnapshot {
            threshold,
            observed,
            keys: keys.freeze_strings(),
            hostnames,
            methods,
            cells,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use trackersift_json::object;

    /// The tree encoder the streaming writer replaced, kept as its oracle.
    fn tree_oracle(snapshot: &SifterSnapshot) -> Value {
        let ids = |ids: &[u32]| {
            Value::Array(
                ids.iter()
                    .map(|&id| Value::number_u64(u64::from(id)))
                    .collect(),
            )
        };
        object(vec![
            ("format", Value::String(SifterSnapshot::FORMAT.to_string())),
            (
                "version",
                Value::number_u64(u64::from(SifterSnapshot::FORMAT_VERSION)),
            ),
            ("threshold", Value::Number(snapshot.threshold)),
            ("observed", Value::number_u64(snapshot.observed)),
            (
                "keys",
                Value::Array(
                    snapshot
                        .keys
                        .iter()
                        .map(|(_, k)| Value::String(k.to_string()))
                        .collect(),
                ),
            ),
            (
                "hostnames",
                Value::Array(
                    snapshot
                        .hostnames
                        .iter()
                        .map(|&(h, d)| ids(&[h, d]))
                        .collect(),
                ),
            ),
            (
                "methods",
                Value::Array(
                    snapshot
                        .methods
                        .iter()
                        .map(|&(m, s, n)| ids(&[m, s, n]))
                        .collect(),
                ),
            ),
            (
                "cells",
                Value::Array(
                    snapshot
                        .cells
                        .iter()
                        .map(|&(m, h, t, f)| {
                            Value::Array(vec![
                                Value::number_u64(u64::from(m)),
                                Value::number_u64(u64::from(h)),
                                Value::number_u64(t),
                                Value::number_u64(f),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// A key character: every byte the writer escapes, 0x20 and 0x7f
    /// beside them, multi-byte UTF-8, and plain runs.
    fn key_char(index: usize) -> char {
        match index {
            0..=0x20 => char::from(index as u8),
            0x21 => '"',
            0x22 => '\\',
            0x23 => '\u{7f}',
            0x24 => 'é',
            0x25 => '中',
            0x26 => '🦀',
            _ => 'a',
        }
    }

    /// Keys of 0–40 characters, so escapes land at every offset of a word.
    /// A key drawn twice is listed once: a key view holds distinct keys.
    fn arb_keys() -> impl Strategy<Value = FrozenKeys> {
        prop::collection::vec(
            prop::collection::vec(0usize..48, 0..41)
                .prop_map(|chars| chars.into_iter().map(key_char).collect::<String>()),
            0..12,
        )
        .prop_map(|keys| frozen(&keys))
    }

    /// The view a snapshot of `keys`, in this order, carries.
    fn frozen(keys: &[impl AsRef<str>]) -> FrozenKeys {
        let mut interner = KeyInterner::new();
        for key in keys {
            interner.intern(key.as_ref());
        }
        interner.freeze_strings()
    }

    /// Counts from small to exactly 2^53.
    fn arb_count() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..4,
            0u64..(1 << 53) + 1,
            (1u64 << 53) - 2..(1 << 53) + 1
        ]
    }

    fn arb_threshold() -> impl Strategy<Value = f64> {
        const PICKED: [f64; 8] = [2.0, 1.5, 0.25, 0.0, 3.0, 1e-7, 1e300, 123.456];
        prop_oneof![(0usize..PICKED.len()).prop_map(|i| PICKED[i]), 0.0f64..8.0]
    }

    /// `snapshot` with its ids brought into range and its counts clamped
    /// so they sum to at most 2^53, empty cells dropped and `observed`
    /// set to the sum: a snapshot `parse` accepts.
    fn made_valid(mut snapshot: SifterSnapshot) -> SifterSnapshot {
        let keys = snapshot.keys.len() as u32;
        if keys == 0 {
            snapshot.hostnames.clear();
            snapshot.methods.clear();
            snapshot.cells.clear();
        }
        let id = |id: u32| id % keys.max(1);
        for (h, d) in &mut snapshot.hostnames {
            (*h, *d) = (id(*h), id(*d));
        }
        for (m, s, n) in &mut snapshot.methods {
            (*m, *s, *n) = (id(*m), id(*s), id(*n));
        }
        let mut budget = 1u64 << 53;
        snapshot.cells.retain_mut(|(m, h, t, f)| {
            (*m, *h) = (id(*m), id(*h));
            *t = (*t).min(budget);
            budget -= *t;
            *f = (*f).min(budget);
            budget -= *f;
            *t + *f > 0
        });
        snapshot.observed = (1 << 53) - budget;
        snapshot
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_streamed_text_is_the_tree_oracles_render(
            keys in arb_keys(),
            threshold in arb_threshold(),
            observed in arb_count(),
            hostnames in prop::collection::vec((0u32..u32::MAX, 0u32..u32::MAX), 0..8),
            methods in prop::collection::vec((0u32..u32::MAX, 0u32..u32::MAX, 0u32..u32::MAX), 0..8),
            cells in prop::collection::vec(
                (0u32..u32::MAX, 0u32..u32::MAX, arb_count(), arb_count()),
                0..8,
            ),
        ) {
            // Any rows, in range or not: the same bytes as the tree.
            let wild = SifterSnapshot { threshold, observed, keys, hostnames, methods, cells };
            prop_assert_eq!(wild.to_json_string(), tree_oracle(&wild).render());
            // A consistent snapshot also parses back to itself.
            let valid = made_valid(wild);
            let text = valid.to_json_string();
            prop_assert_eq!(&text, &tree_oracle(&valid).render());
            prop_assert_eq!(SifterSnapshot::parse(&text), Ok(valid));
        }
    }

    #[test]
    fn the_paper_corpus_snapshot_is_the_tree_oracles_render() {
        // The snapshot `bench_e2e --workload study` exports every iteration:
        // 500 sites of the paper profile at seed 2021.
        let profile = websim::CorpusProfile::paper().with_sites(500);
        let rows = crate::testutil::crawled_rows(&profile, 2021);
        let mut sifter = crate::Sifter::builder()
            .thresholds(crate::Thresholds::paper())
            .build();
        sifter.apply_batch(rows.iter().map(crate::ObservationRef::from));
        sifter.commit();
        let snapshot = sifter.snapshot();
        let text = snapshot.to_json_string();
        // The length alone cannot see a reordered row; the digest can.
        assert_eq!(text.len(), 980_235);
        assert_eq!(
            filterlist::tokens::fold_bytes(0, text.as_bytes()),
            10_762_317_203_653_034_999
        );
        assert!(text == tree_oracle(&snapshot).render());
    }

    #[test]
    #[should_panic(expected = "2^53")]
    fn a_count_above_2_pow_53_is_refused_at_encode() {
        let mut snapshot = sample();
        snapshot.cells[0].2 = (1 << 53) + 1;
        snapshot.to_json_string();
    }

    fn sample() -> SifterSnapshot {
        SifterSnapshot {
            threshold: 2.0,
            observed: 7,
            keys: frozen(&[
                "ads.com",
                "px.ads.com",
                "https://p.com/a.js",
                "send",
                "https://p.com/a.js :: send",
            ]),
            hostnames: vec![(1, 0)],
            methods: vec![(4, 2, 3)],
            cells: vec![(4, 1, 7, 0)],
        }
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let snapshot = sample();
        let text = snapshot.to_json_string();
        // Assert on the typed result — a parse failure here must show the
        // precise `SnapshotError`, not an opaque unwrap panic.
        let back = SifterSnapshot::parse(&text);
        assert_eq!(back, Ok(snapshot));
        assert_eq!(back.map(|parsed| parsed.to_json_string()), Ok(text.clone()));
        assert!(text.contains("\"format\":\"trackersift.sifter\""));
        assert!(text.contains("\"version\":1"));
    }

    #[test]
    fn out_of_range_key_ids_are_rejected_at_parse_time() {
        // A hostname row referencing key id 99 with only 5 keys: typed
        // corruption, not a silent import that detonates at restore.
        let text = sample().to_json_string().replace("[[1,0]]", "[[99,0]]");
        assert!(matches!(
            SifterSnapshot::parse(&text),
            Err(SnapshotError::Corrupt(message)) if message.contains("out of range")
        ));
        // Same for the method and cell tables.
        let text = sample().to_json_string().replace("[[4,2,3]]", "[[4,77,3]]");
        assert!(matches!(
            SifterSnapshot::parse(&text),
            Err(SnapshotError::Corrupt(message)) if message.contains("out of range")
        ));
        let text = sample()
            .to_json_string()
            .replace("[[4,1,7,0]]", "[[4,88,7,0]]");
        assert!(matches!(
            SifterSnapshot::parse(&text),
            Err(SnapshotError::Corrupt(message)) if message.contains("out of range")
        ));
    }

    #[test]
    fn a_key_listed_twice_is_rejected_at_parse_time() {
        let text = sample().to_json_string().replace("\"send\"", "\"ads.com\"");
        assert!(matches!(
            SifterSnapshot::parse(&text),
            Err(SnapshotError::Corrupt(message)) if message.contains("duplicate interner key")
        ));
    }

    #[test]
    fn truncated_count_cells_are_rejected_at_parse_time() {
        // A zero-count cell is unrepresentable through `apply`: the
        // signature of a truncated export.
        let text = sample()
            .to_json_string()
            .replace("[[4,1,7,0]]", "[[4,1,0,0]]")
            .replace("\"observed\":7", "\"observed\":0");
        assert!(matches!(
            SifterSnapshot::parse(&text),
            Err(SnapshotError::Corrupt(message)) if message.contains("empty")
        ));
    }

    #[test]
    fn observation_totals_must_match_the_cells() {
        let text = sample()
            .to_json_string()
            .replace("\"observed\":7", "\"observed\":9");
        assert!(matches!(
            SifterSnapshot::parse(&text),
            Err(SnapshotError::Corrupt(message)) if message.contains("cells sum")
        ));
    }

    #[test]
    fn unknown_format_is_rejected() {
        let text = sample()
            .to_json_string()
            .replace("trackersift.sifter", "something.else");
        assert!(matches!(
            SifterSnapshot::parse(&text),
            Err(SnapshotError::UnknownFormat(found)) if found == "something.else"
        ));
    }

    #[test]
    fn future_versions_are_rejected_not_guessed() {
        let text = sample()
            .to_json_string()
            .replace("\"version\":1", "\"version\":2");
        assert_eq!(
            SifterSnapshot::parse(&text),
            Err(SnapshotError::UnsupportedVersion {
                found: 2,
                supported: 1
            })
        );
    }

    #[test]
    fn malformed_documents_report_json_errors() {
        assert!(matches!(
            SifterSnapshot::parse("{"),
            Err(SnapshotError::Json(_))
        ));
        assert!(matches!(
            SifterSnapshot::parse("{\"format\":\"trackersift.sifter\",\"version\":1}"),
            Err(SnapshotError::Json(_))
        ));
        let bad_row = sample().to_json_string().replace("[[1,0]]", "[[1]]");
        assert!(matches!(
            SifterSnapshot::parse(&bad_row),
            Err(SnapshotError::Json(_))
        ));
    }

    #[test]
    fn errors_render_helpfully() {
        let error = SnapshotError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(error.to_string().contains("version 9"));
        assert!(SnapshotError::Corrupt("x".into()).to_string().contains("x"));
    }
}
