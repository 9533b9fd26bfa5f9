//! Versioned persistence of trained [`Sifter`](crate::service::Sifter)
//! state.
//!
//! A [`SifterSnapshot`] captures everything a serving process needs to
//! answer verdicts after a restart without re-crawling or re-labeling: the
//! interner's string table (so resource ids — and therefore verdicts and
//! [`hierarchy`](crate::service::Sifter::hierarchy) exports — are bitwise
//! stable across the round-trip), the hostname → domain and method →
//! (script, name) attributions, and the finest-granularity count cells
//! (per `(method, hostname)` pair). Every coarser count is a sum of those
//! cells, so nothing else needs to be stored; restore replays the cells
//! through the sifter's normal accumulation path and commits once. That
//! commit also (re)builds the flattened [`crate::table`] representation, so
//! a restored sifter — and any [`SifterReader`](crate::concurrent::SifterReader)
//! split off it via [`Sifter::into_concurrent`](crate::service::Sifter::into_concurrent)
//! — serves through exactly the same verdict tables as the process that
//! exported the snapshot.
//!
//! # Format and versioning
//!
//! Snapshots serialise through the dependency-free [`crawler::json`] codec
//! as a single JSON object:
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

use crawler::json::{object, JsonError, Value};
use std::fmt;

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

/// Exported trained state of a [`Sifter`](crate::service::Sifter); see the
/// [module docs](self) for the format.
#[derive(Debug, Clone, PartialEq)]
pub struct SifterSnapshot {
    /// The symmetric log-ratio threshold in force.
    pub(crate) threshold: f64,
    /// Total observations the state accumulates.
    pub(crate) observed: u64,
    /// Interner string table, in id order.
    pub(crate) keys: Vec<String>,
    /// `(hostname id, domain id)` rows, sorted.
    pub(crate) hostnames: Vec<(u32, u32)>,
    /// `(method id, script id, method-name id)` rows, sorted.
    pub(crate) methods: Vec<(u32, u32, u32)>,
    /// `(method id, hostname id, tracking, functional)` rows, sorted.
    pub(crate) cells: Vec<(u32, u32, u64, u64)>,
}

impl SifterSnapshot {
    /// The fixed format marker.
    pub const FORMAT: &'static str = "trackersift.sifter";

    /// The schema version this build writes and reads.
    pub const FORMAT_VERSION: u32 = 1;

    /// The classification threshold stored in the snapshot.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

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

    /// Render to the canonical (deterministic) JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json_value().render()
    }

    /// Parse from JSON text, validating format marker, version, and
    /// structural consistency (see [`SifterSnapshot::validate`]).
    pub fn parse(text: &str) -> Result<Self, SnapshotError> {
        let value = Value::parse(text)?;
        // Validate the envelope first so format/version mismatches surface
        // as their precise variants rather than generic JSON errors.
        if let Some(error) = envelope_error(&value) {
            return Err(error);
        }
        let snapshot = Self::from_json_value(&value)?;
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
    pub fn validate(&self) -> Result<(), SnapshotError> {
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

impl SifterSnapshot {
    /// Build the JSON representation.
    pub fn to_json_value(&self) -> Value {
        object(vec![
            ("format", Value::String(Self::FORMAT.to_string())),
            (
                "version",
                Value::number_u64(u64::from(Self::FORMAT_VERSION)),
            ),
            ("threshold", Value::Number(self.threshold)),
            ("observed", Value::number_u64(self.observed)),
            (
                "keys",
                Value::Array(self.keys.iter().map(|k| Value::String(k.clone())).collect()),
            ),
            (
                "hostnames",
                Value::Array(
                    self.hostnames
                        .iter()
                        .map(|&(h, d)| {
                            Value::Array(vec![
                                Value::number_u64(u64::from(h)),
                                Value::number_u64(u64::from(d)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "methods",
                Value::Array(
                    self.methods
                        .iter()
                        .map(|&(m, s, n)| {
                            Value::Array(vec![
                                Value::number_u64(u64::from(m)),
                                Value::number_u64(u64::from(s)),
                                Value::number_u64(u64::from(n)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "cells",
                Value::Array(
                    self.cells
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

    /// Decode from a JSON node.
    pub fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        // Delegate acceptance to the shared envelope check (one source of
        // truth with `SifterSnapshot::parse`); the two field reads below
        // only enforce presence and type.
        if let Some(error) = envelope_error(value) {
            return Err(JsonError(error.to_string()));
        }
        let _ = value.field("format")?.as_str()?;
        let _ = value.field("version")?.as_u64()?;
        let threshold = match value.field("threshold")? {
            Value::Number(n) => *n,
            other => return Err(JsonError(format!("expected number, got {other:?}"))),
        };
        let observed = value.field("observed")?.as_u64()?;
        let keys = value
            .field("keys")?
            .as_array()?
            .iter()
            .map(|k| k.as_str().map(str::to_string))
            .collect::<Result<Vec<_>, _>>()?;
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
            keys,
            hostnames,
            methods,
            cells,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SifterSnapshot {
        SifterSnapshot {
            threshold: 2.0,
            observed: 7,
            keys: vec![
                "ads.com".into(),
                "px.ads.com".into(),
                "https://p.com/a.js".into(),
                "send".into(),
                "https://p.com/a.js :: send".into(),
            ],
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
