//! Canonical wire encodings of enforcement decisions — the one place the
//! JSON decision objects and the binary decision frames are produced, so
//! the serving paths that preformat responses at commit time (see
//! [`crate::VerdictTable`]) and the wire layer that decodes the frames back
//! (`trackersift-server::wire`) cannot drift apart byte-wise.
//!
//! Two encodings live here, two encoders and one decoder per envelope:
//!
//! * **JSON** (encoders only — the server writes it for people and foreign
//!   clients, and golden literals in this module's tests pin its bytes):
//!   [`decision_value`] renders a [`Decision`], surrogate plan included,
//!   to the exact [`Value`] tree the verdict server has always served
//!   (field order fixed, so equal decisions render to byte-identical JSON).
//!   The tree is the canonical encoder and the tests' oracle; the bytes a
//!   commit publishes — [`SurrogateFrames`] and the fixed bodies of
//!   [`crate::PrebuiltResponses`] — are written straight to text
//!   ([`write_rewrite_json`] writes a rewrite the same way), so a commit
//!   builds no tree per plan.
//! * **Binary** (what Rust code reads): a compact length-prefixed framing.
//!   Every fixed decision is one of `FIXED_COMBOS` fixed `(action,
//!   source)` pairs — a two-byte code — while a surrogate decision carries
//!   a length-prefixed payload ([`encode_surrogate_payload`]) holding the
//!   full plan and a rewrite decision carries a length-prefixed payload
//!   ([`encode_rewrite_payload`]) holding the rewritten URL. All integers
//!   are little-endian.
//!
//! # Binary frame layout
//!
//! Single-decision response body:
//!
//! | offset | field |
//! |---|---|
//! | 0 | protocol version (`1`) |
//! | 1 | action code (`0` observe, `1` allow, `2` block, `3` surrogate, `4` rewrite) |
//! | 2 | source code (`0` none, `1..=4` hierarchy granularity, `5` filter list) |
//! | 3 | table version, `u64` LE |
//! | 11 | payload length, `u32` LE (`0` unless action is surrogate or rewrite) |
//! | 15 | payload bytes |
//!
//! Batch response body: `proto u8`, `version u64`, `count u32`, then one
//! 6-byte record header (`action u8`, `source u8`, `payload_len u32`) plus
//! payload per decision, in request order.
//!
//! Surrogate payload: `script_url (u32 len + bytes)`, `method count u32`,
//! then per method `name (u32 len + bytes)`, `action u8` (`0` keep, `1`
//! stub, `2` guard) and for guards `caller count u32` + `u32`-prefixed
//! caller strings, then `suppressed u64`, `preserved u64`.
//!
//! Rewrite payload: the rewritten URL as one `u32`-length-prefixed UTF-8
//! string (mirroring the surrogate frame layout with a single field).
//!
//! # Revision frames
//!
//! The drift endpoints (`GET /v1/revisions` and `GET /v1/revisions?diff=`)
//! share the same canonical-encoding discipline. A binary revision body is
//! `proto u8`, kind byte (`REVISION_KIND_LIST`, `REVISION_KIND_SPANS`
//! or `REVISION_KIND_DIFF`), then for a list `table version u64` +
//! `revision count u32` + per revision `version u64`, `change count u32`
//! and its changes; for a diff `from u64`, `to u64`, `change count u32` and
//! the net changes. A list whose revisions each span one version (every
//! primary's) uses `REVISION_KIND_LIST`; one where some revision spans
//! more (a follower's, one per applied delta) uses `REVISION_KIND_SPANS`,
//! whose records carry `since u64` before `version u64`. One change is
//! `granularity code u8` (the [`Granularity`] index), `old class code u8`,
//! `new class code u8` (`0` absent, `1` tracking, `2` functional, `3`
//! mixed) and the `u32`-length-prefixed key string; decoders reject codes
//! that encode no transition (identical old/new, or both absent).
//!
//! # Delta-snapshot frames
//!
//! The replication endpoint (`GET /v1/snapshot?since=v`) ships
//! [`DeltaSnapshot`]s in both encodings — [`delta_snapshot_value`] for
//! inspection, [`encode_delta_snapshot`] for followers — reusing the change
//! and surrogate-plan codecs above. A replica applies the binary body,
//! decoded by [`decode_delta_snapshot`], the exact inverse of
//! [`encode_delta_snapshot`].

use crate::decision::{Decision, DecisionSource};
use crate::follower::DeltaSnapshot;
use crate::hierarchy::Granularity;
use crate::ratio::Classification;
use crate::revision::{ChangeKind, RevisionChange, VerdictRevision};
use crate::surrogate::{MethodAction, SurrogateScript};
use crawler::json::{object, Value};
use rewriter::RewrittenUrl;
use std::sync::Arc;

/// The binary protocol version this build speaks.
pub const PROTO_VERSION: u8 = 1;

/// Byte offset of the payload in a single-decision binary response.
pub const SINGLE_HEADER_LEN: usize = 15;

/// Length of one batch record header (action, source, payload length).
pub const RECORD_HEADER_LEN: usize = 6;

/// Action code: let the request through, keep observing.
pub(crate) const ACTION_OBSERVE: u8 = 0;
/// Action code: allow.
pub(crate) const ACTION_ALLOW: u8 = 1;
/// Action code: block.
pub(crate) const ACTION_BLOCK: u8 = 2;
/// Action code: replace the script with the surrogate in the payload.
pub const ACTION_SURROGATE: u8 = 3;
/// Action code: load the rewritten URL in the payload instead of the
/// original request URL.
pub const ACTION_REWRITE: u8 = 4;

/// Source code for decisions that carry no source (observe / surrogate).
pub const SOURCE_NONE: u8 = 0;
/// Source code for the filter-list backstop.
pub(crate) const SOURCE_FILTER_LIST: u8 = 5;

/// Number of fixed (payload-free) `(action, source)` combinations:
/// observe, plus allow/block × (4 hierarchy granularities + filter list).
/// Surrogate and rewrite decisions carry payloads and are not fixed.
pub(crate) const FIXED_COMBOS: usize = 11;

fn source_code(source: DecisionSource) -> u8 {
    match source {
        // Granularity::index() is 0..=3; codes 1..=4 keep 0 for "none".
        DecisionSource::Hierarchy(granularity) => granularity.index() as u8 + 1,
        DecisionSource::FilterList => SOURCE_FILTER_LIST,
    }
}

fn source_of_code(code: u8) -> Option<DecisionSource> {
    match code {
        1..=4 => Some(DecisionSource::Hierarchy(
            Granularity::ALL[code as usize - 1],
        )),
        SOURCE_FILTER_LIST => Some(DecisionSource::FilterList),
        _ => None,
    }
}

/// The `(action, source)` code pair of a decision. Surrogates report
/// [`ACTION_SURROGATE`] and rewrites [`ACTION_REWRITE`], both with
/// [`SOURCE_NONE`].
pub fn codes_of(decision: &Decision) -> (u8, u8) {
    match decision {
        Decision::Observe => (ACTION_OBSERVE, SOURCE_NONE),
        Decision::Allow(source) => (ACTION_ALLOW, source_code(*source)),
        Decision::Block(source) => (ACTION_BLOCK, source_code(*source)),
        Decision::Surrogate(_) => (ACTION_SURROGATE, SOURCE_NONE),
        Decision::Rewrite(_) => (ACTION_REWRITE, SOURCE_NONE),
    }
}

/// The dense index of a fixed decision into the preformatted response
/// tables (`0..FIXED_COMBOS`); `None` for the payload-carrying decisions
/// (surrogate, rewrite).
pub(crate) fn fixed_index(decision: &Decision) -> Option<usize> {
    match decision {
        Decision::Observe => Some(0),
        Decision::Allow(source) => Some(source_code(*source) as usize),
        Decision::Block(source) => Some(5 + source_code(*source) as usize),
        Decision::Surrogate(_) | Decision::Rewrite(_) => None,
    }
}

/// The decision a fixed-combo index stands for — the inverse of
/// [`fixed_index`], used to build the preformatted tables through the same
/// encoders that serve ad-hoc decisions.
///
/// # Panics
/// Panics if `index >= FIXED_COMBOS`.
pub(crate) fn fixed_decision(index: usize) -> Decision {
    match index {
        0 => Decision::Observe,
        1..=5 => Decision::Allow(source_of_code(index as u8).expect("codes 1..=5 have sources")),
        6..=10 => {
            Decision::Block(source_of_code(index as u8 - 5).expect("codes 1..=5 have sources"))
        }
        _ => panic!("fixed decision index {index} out of range"),
    }
}

// ---------------------------------------------------------------------
// JSON encoding (canonical: field order fixed)
// ---------------------------------------------------------------------

fn source_fields(source: DecisionSource, fields: &mut Vec<(&'static str, Value)>) {
    match source {
        DecisionSource::Hierarchy(granularity) => {
            fields.push(("source", Value::String("hierarchy".to_string())));
            fields.push(("granularity", Value::String(granularity.name().to_string())));
        }
        DecisionSource::FilterList => {
            fields.push(("source", Value::String("filter-list".to_string())));
        }
    }
}

fn method_action_value(action: &MethodAction) -> Value {
    match action {
        MethodAction::Keep => Value::String("keep".to_string()),
        MethodAction::Stub => Value::String("stub".to_string()),
        MethodAction::Guard { blocked_callers } => object(vec![(
            "guard",
            object(vec![(
                "blocked_callers",
                Value::Array(
                    blocked_callers
                        .iter()
                        .map(|caller| Value::String(caller.clone()))
                        .collect(),
                ),
            )]),
        )]),
    }
}

/// Encode a surrogate payload as its canonical JSON object. Only
/// [`decision_value`] and the JSON delta envelope build this tree; the
/// commit path writes the same bytes with [`write_surrogate_json`].
fn surrogate_value(script: &SurrogateScript) -> Value {
    object(vec![
        ("script_url", Value::String(script.script_url.clone())),
        (
            "methods",
            Value::Array(
                script
                    .methods
                    .iter()
                    .map(|(name, action)| {
                        Value::Array(vec![
                            Value::String(name.clone()),
                            method_action_value(action),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "suppressed_tracking_requests",
            Value::number_u64(script.suppressed_tracking_requests),
        ),
        (
            "preserved_functional_requests",
            Value::number_u64(script.preserved_functional_requests),
        ),
    ])
}

/// Encode a rewrite payload as its canonical JSON object
/// (`{"action":"rewrite","url":…}`).
pub fn rewrite_value(rewritten: &RewrittenUrl) -> Value {
    object(vec![
        ("action", Value::String("rewrite".to_string())),
        ("url", Value::String(rewritten.url().to_string())),
    ])
}

/// Append the canonical JSON object of a rewrite decision to a response
/// being assembled in place — the bytes [`rewrite_value`] renders to,
/// without the tree.
pub fn write_rewrite_json(out: &mut Vec<u8>, rewritten: &RewrittenUrl) {
    out.extend_from_slice(br#"{"action":"rewrite","url":"#);
    crawler::json::write_string(out, rewritten.url());
    out.push(b'}');
}

/// Append the canonical JSON object of a surrogate decision — the bytes
/// [`decision_value`] renders for [`Decision::Surrogate`], without the tree.
fn write_surrogate_json(out: &mut Vec<u8>, script: &SurrogateScript) {
    use crawler::json::{write_string, write_u64};
    out.extend_from_slice(br#"{"action":"surrogate","surrogate":{"script_url":"#);
    write_string(out, &script.script_url);
    out.extend_from_slice(br#","methods":["#);
    for (at, (name, action)) in script.methods.iter().enumerate() {
        if at > 0 {
            out.push(b',');
        }
        out.push(b'[');
        write_string(out, name);
        match action {
            MethodAction::Keep => out.extend_from_slice(br#","keep""#),
            MethodAction::Stub => out.extend_from_slice(br#","stub""#),
            MethodAction::Guard { blocked_callers } => {
                out.extend_from_slice(br#",{"guard":{"blocked_callers":["#);
                for (at, caller) in blocked_callers.iter().enumerate() {
                    if at > 0 {
                        out.push(b',');
                    }
                    write_string(out, caller);
                }
                out.extend_from_slice(b"]}}");
            }
        }
        out.push(b']');
    }
    out.extend_from_slice(br#"],"suppressed_tracking_requests":"#);
    write_u64(out, script.suppressed_tracking_requests);
    out.extend_from_slice(br#","preserved_functional_requests":"#);
    write_u64(out, script.preserved_functional_requests);
    out.extend_from_slice(b"}}");
}

/// Encode a decision as its canonical JSON object. The encoding is
/// canonical (field order fixed), so equal decisions render to
/// byte-identical JSON — the property the preformatted response tables and
/// the wire byte-identity tests both rely on.
pub fn decision_value(decision: &Decision) -> Value {
    match decision {
        Decision::Allow(source) => {
            let mut fields = vec![("action", Value::String("allow".to_string()))];
            source_fields(*source, &mut fields);
            object(fields)
        }
        Decision::Block(source) => {
            let mut fields = vec![("action", Value::String("block".to_string()))];
            source_fields(*source, &mut fields);
            object(fields)
        }
        Decision::Surrogate(script) => object(vec![
            ("action", Value::String("surrogate".to_string())),
            ("surrogate", surrogate_value(script)),
        ]),
        Decision::Rewrite(rewritten) => rewrite_value(rewritten),
        Decision::Observe => object(vec![("action", Value::String("observe".to_string()))]),
    }
}

// ---------------------------------------------------------------------
// Binary encoding
// ---------------------------------------------------------------------

/// Append a `u32`-length-prefixed byte string — the one spelling of the
/// layout every binary format uses (these frames, the journal, the server's
/// request records).
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Encode a surrogate plan as the binary payload of a surrogate decision
/// frame (see the [module docs](self) for the layout).
pub fn encode_surrogate_payload(script: &SurrogateScript) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + script.script_url.len());
    put_bytes(&mut out, script.script_url.as_bytes());
    out.extend_from_slice(&(script.methods.len() as u32).to_le_bytes());
    for (name, action) in &script.methods {
        put_bytes(&mut out, name.as_bytes());
        match action {
            MethodAction::Keep => out.push(0),
            MethodAction::Stub => out.push(1),
            MethodAction::Guard { blocked_callers } => {
                out.push(2);
                out.extend_from_slice(&(blocked_callers.len() as u32).to_le_bytes());
                for caller in blocked_callers {
                    put_bytes(&mut out, caller.as_bytes());
                }
            }
        }
    }
    out.extend_from_slice(&script.suppressed_tracking_requests.to_le_bytes());
    out.extend_from_slice(&script.preserved_functional_requests.to_le_bytes());
    out
}

/// A surrogate plan preformatted in both wire encodings, built once when
/// the plan is (re)computed at commit time and shared by `Arc` between the
/// sifter's cache and every published
/// [`VerdictTable`](crate::VerdictTable). Serving a surrogate
/// decision then copies these slices instead of re-encoding the plan per
/// request.
///
/// Both are written straight to bytes, no [`Value`] tree in between:
/// a primary rebuilds the frames of every plan a commit touches, and a
/// replica of every plan a delta carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurrogateFrames {
    /// The complete JSON decision object
    /// (`{"action":"surrogate","surrogate":{…}}`), byte-identical to
    /// rendering [`decision_value`] on the same plan.
    pub json: Arc<str>,
    /// The binary surrogate payload ([`encode_surrogate_payload`]), ready
    /// to splice after a surrogate frame header.
    pub binary: Arc<[u8]>,
}

impl SurrogateFrames {
    /// Preformat both encodings of a surrogate plan, each written straight
    /// to its bytes.
    pub(crate) fn new(script: &SurrogateScript) -> Self {
        let binary = encode_surrogate_payload(script);
        // The JSON spells out what the payload length-prefixes: a few more
        // bytes per method and ~110 of field names.
        let mut json = Vec::with_capacity(binary.len() + 16 * script.methods.len() + 128);
        write_surrogate_json(&mut json, script);
        SurrogateFrames {
            json: std::str::from_utf8(&json)
                .expect("JSON text is UTF-8")
                .into(),
            binary: binary.into(),
        }
    }
}

/// Why decoding a binary frame failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError(pub String);

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "binary frame error: {}", self.0)
    }
}

impl std::error::Error for FrameError {}

/// A bounds-checked little-endian cursor over one binary frame. Every
/// read either advances or returns a typed [`FrameError`] — truncated or
/// hostile frames can never panic or over-read.
#[derive(Debug, Clone)]
pub struct FrameReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> FrameReader<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        FrameReader { bytes, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError(format!(
                "truncated frame: wanted {n} bytes at offset {}, {} left",
                self.at,
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32` (little-endian).
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a `u64` (little-endian).
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<&'a str, FrameError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| FrameError("string is not valid utf-8".into()))
    }

    /// Read a `u32`-length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], FrameError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Assert the frame has been fully consumed.
    pub fn finish(self) -> Result<(), FrameError> {
        if self.remaining() != 0 {
            return Err(FrameError(format!(
                "{} trailing bytes after frame",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Encode a rewritten URL as the binary payload of a rewrite decision
/// frame: one `u32`-length-prefixed UTF-8 string.
pub fn encode_rewrite_payload(rewritten: &RewrittenUrl) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + rewritten.url().len());
    write_rewrite_payload(&mut out, rewritten);
    out
}

/// Append [`encode_rewrite_payload`]'s bytes to a response being assembled
/// in place; [`rewrite_payload_len`] of them.
pub fn write_rewrite_payload(out: &mut Vec<u8>, rewritten: &RewrittenUrl) {
    put_bytes(out, rewritten.url().as_bytes());
}

/// Length of a rewrite payload, for the frame header written before it.
pub fn rewrite_payload_len(rewritten: &RewrittenUrl) -> u32 {
    4 + rewritten.url().len() as u32
}

/// Decode the binary payload of a rewrite decision frame.
fn decode_rewrite_payload(bytes: &[u8]) -> Result<RewrittenUrl, FrameError> {
    let mut reader = FrameReader::new(bytes);
    let url = reader.string()?.to_string();
    reader.finish()?;
    Ok(RewrittenUrl::new(url))
}

/// Decode the binary payload of a surrogate decision frame.
fn decode_surrogate_payload(bytes: &[u8]) -> Result<SurrogateScript, FrameError> {
    let mut reader = FrameReader::new(bytes);
    let script_url = reader.string()?.to_string();
    let method_count = reader.u32()? as usize;
    // A hostile count cannot force a huge allocation: each method needs at
    // least 5 bytes, so cap the preallocation by what the frame could hold.
    let mut methods = Vec::with_capacity(method_count.min(reader.remaining() / 5));
    for _ in 0..method_count {
        let name = reader.string()?.to_string();
        let action = match reader.u8()? {
            0 => MethodAction::Keep,
            1 => MethodAction::Stub,
            2 => {
                let caller_count = reader.u32()? as usize;
                let mut blocked_callers =
                    Vec::with_capacity(caller_count.min(reader.remaining() / 4));
                for _ in 0..caller_count {
                    blocked_callers.push(reader.string()?.to_string());
                }
                MethodAction::Guard { blocked_callers }
            }
            other => return Err(FrameError(format!("unknown method action code {other}"))),
        };
        methods.push((name, action));
    }
    let suppressed_tracking_requests = reader.u64()?;
    let preserved_functional_requests = reader.u64()?;
    reader.finish()?;
    Ok(SurrogateScript {
        script_url,
        methods,
        suppressed_tracking_requests,
        preserved_functional_requests,
    })
}

/// Build the full single-decision binary response body for a fixed
/// (payload-free) decision: 15 bytes, payload length zero.
pub fn encode_fixed_single(decision: &Decision, version: u64) -> [u8; SINGLE_HEADER_LEN] {
    let (action, source) = codes_of(decision);
    debug_assert_ne!(action, ACTION_SURROGATE, "fixed frames carry no payload");
    debug_assert_ne!(action, ACTION_REWRITE, "fixed frames carry no payload");
    let mut out = [0u8; SINGLE_HEADER_LEN];
    out[0] = PROTO_VERSION;
    out[1] = action;
    out[2] = source;
    out[3..11].copy_from_slice(&version.to_le_bytes());
    // payload length stays zero.
    out
}

/// Write the 15-byte single-decision header for a surrogate response;
/// the caller appends the (preformatted) payload bytes.
pub fn encode_surrogate_single_header(version: u64, payload_len: u32) -> [u8; SINGLE_HEADER_LEN] {
    let mut out = [0u8; SINGLE_HEADER_LEN];
    out[0] = PROTO_VERSION;
    out[1] = ACTION_SURROGATE;
    out[2] = SOURCE_NONE;
    out[3..11].copy_from_slice(&version.to_le_bytes());
    out[11..15].copy_from_slice(&payload_len.to_le_bytes());
    out
}

/// Write the 15-byte single-decision header for a rewrite response; the
/// caller appends the (preformatted) payload bytes.
pub fn encode_rewrite_single_header(version: u64, payload_len: u32) -> [u8; SINGLE_HEADER_LEN] {
    let mut out = [0u8; SINGLE_HEADER_LEN];
    out[0] = PROTO_VERSION;
    out[1] = ACTION_REWRITE;
    out[2] = SOURCE_NONE;
    out[3..11].copy_from_slice(&version.to_le_bytes());
    out[11..15].copy_from_slice(&payload_len.to_le_bytes());
    out
}

/// Build one batch record header (`action`, `source`, `payload_len`).
pub fn encode_record_header(action: u8, source: u8, payload_len: u32) -> [u8; RECORD_HEADER_LEN] {
    let mut out = [0u8; RECORD_HEADER_LEN];
    out[0] = action;
    out[1] = source;
    out[2..6].copy_from_slice(&payload_len.to_le_bytes());
    out
}

/// Decode one `(action, source, payload)` triple into a [`Decision`]. Each
/// decision has one frame: the payload must be empty unless the action is
/// surrogate or rewrite, the source [`SOURCE_NONE`] unless it is allow or block.
pub fn decode_decision(action: u8, source: u8, payload: &[u8]) -> Result<Decision, FrameError> {
    if action != ACTION_SURROGATE && action != ACTION_REWRITE && !payload.is_empty() {
        return Err(FrameError(format!(
            "action {action} carries an unexpected {}-byte payload",
            payload.len()
        )));
    }
    let sourced = matches!(action, ACTION_ALLOW | ACTION_BLOCK);
    if !sourced && source != SOURCE_NONE {
        return Err(FrameError(format!(
            "action {action} carries an unexpected source code {source}"
        )));
    }
    match action {
        ACTION_OBSERVE => Ok(Decision::Observe),
        ACTION_ALLOW => source_of_code(source)
            .map(Decision::Allow)
            .ok_or_else(|| FrameError(format!("unknown source code {source}"))),
        ACTION_BLOCK => source_of_code(source)
            .map(Decision::Block)
            .ok_or_else(|| FrameError(format!("unknown source code {source}"))),
        ACTION_SURROGATE => Ok(Decision::Surrogate(Arc::new(decode_surrogate_payload(
            payload,
        )?))),
        ACTION_REWRITE => Ok(Decision::Rewrite(Arc::new(decode_rewrite_payload(
            payload,
        )?))),
        other => Err(FrameError(format!("unknown action code {other}"))),
    }
}

// ---------------------------------------------------------------------
// Revision encoding (drift over the wire)
// ---------------------------------------------------------------------

/// Frame kind byte of a binary revision-list response body.
pub(crate) const REVISION_KIND_LIST: u8 = 0x10;
/// Frame kind byte of a binary revision-diff response body.
pub(crate) const REVISION_KIND_DIFF: u8 = 0x11;
/// Frame kind byte of a binary revision-list response body whose records
/// carry their baseline (some revision spans more than one version).
pub(crate) const REVISION_KIND_SPANS: u8 = 0x14;

/// Whether a revision covers exactly one version, `(v-1, v]` — what every
/// commit records, so its baseline goes without saying on the wire.
fn spans_one_version(revision: &VerdictRevision) -> bool {
    revision.version().checked_sub(revision.since()) == Some(1)
}

fn class_code(class: Option<Classification>) -> u8 {
    match class {
        None => 0,
        Some(Classification::Tracking) => 1,
        Some(Classification::Functional) => 2,
        Some(Classification::Mixed) => 3,
    }
}

fn class_of_code(code: u8) -> Result<Option<Classification>, FrameError> {
    match code {
        0 => Ok(None),
        1 => Ok(Some(Classification::Tracking)),
        2 => Ok(Some(Classification::Functional)),
        3 => Ok(Some(Classification::Mixed)),
        other => Err(FrameError(format!("unknown classification code {other}"))),
    }
}

/// Encode one revision change as its canonical JSON object: additions as
/// `{"granularity":…,"key":…,"added":…}`, removals with `"removed"`, and
/// classification flips with `"from"` / `"to"`.
fn change_value(change: &RevisionChange) -> Value {
    let mut fields = vec![
        (
            "granularity",
            Value::String(change.granularity.name().to_string()),
        ),
        ("key", Value::String(change.key.to_string())),
    ];
    match change.kind {
        ChangeKind::Added(class) => fields.push(("added", Value::String(class.to_string()))),
        ChangeKind::Removed(class) => fields.push(("removed", Value::String(class.to_string()))),
        ChangeKind::Flipped(old, new) => {
            fields.push(("from", Value::String(old.to_string())));
            fields.push(("to", Value::String(new.to_string())));
        }
    }
    object(fields)
}

/// Encode the published revision ring as the canonical JSON body of
/// `GET /v1/revisions`: the current table version plus every ring entry
/// with its changes, field order fixed. An entry spanning more than one
/// version leads with its baseline as `"from"`.
pub fn revision_list_value(version: u64, ring: &[Arc<VerdictRevision>]) -> Value {
    let entry = |revision: &Arc<VerdictRevision>| {
        let mut fields = Vec::with_capacity(3);
        if !spans_one_version(revision) {
            fields.push(("from", Value::number_u64(revision.since())));
        }
        fields.push(("version", Value::number_u64(revision.version())));
        fields.push(("changes", changes_value(revision.changes())));
        object(fields)
    };
    object(vec![
        ("version", Value::number_u64(version)),
        ("revisions", Value::Array(ring.iter().map(entry).collect())),
    ])
}

/// Encode a revision over `(from, to]` as the canonical JSON body of
/// `GET /v1/revisions?diff=a..b`.
pub fn revision_diff_value(diff: &VerdictRevision) -> Value {
    object(vec![
        ("from", Value::number_u64(diff.since())),
        ("to", Value::number_u64(diff.version())),
        ("changes", changes_value(diff.changes())),
    ])
}

fn changes_value(changes: &[RevisionChange]) -> Value {
    Value::Array(changes.iter().map(change_value).collect())
}

/// Encode one revision change: `g u8, old u8, new u8, u32-prefixed key`
/// (shared by the revision frames and the journal's revision record).
pub(crate) fn put_change(out: &mut Vec<u8>, change: &RevisionChange) {
    out.push(change.granularity.index() as u8);
    out.push(class_code(change.kind.old_class()));
    out.push(class_code(change.kind.new_class()));
    put_bytes(out, change.key.as_bytes());
}

/// Decode one revision change (the inverse of [`put_change`]).
pub(crate) fn read_change(reader: &mut FrameReader<'_>) -> Result<RevisionChange, FrameError> {
    let granularity_code = reader.u8()? as usize;
    let granularity = *Granularity::ALL
        .get(granularity_code)
        .ok_or_else(|| FrameError(format!("unknown granularity code {granularity_code}")))?;
    let old = class_of_code(reader.u8()?)?;
    let new = class_of_code(reader.u8()?)?;
    let key = reader.string()?.to_string();
    let kind = ChangeKind::of(old, new)
        .ok_or_else(|| FrameError("change encodes no transition".into()))?;
    Ok(RevisionChange::new(granularity, key, kind))
}

/// Read a revision body's protocol and kind bytes; the kind must be one
/// of `kinds`.
fn revision_kind(reader: &mut FrameReader<'_>, kinds: &[u8]) -> Result<u8, FrameError> {
    let proto = reader.u8()?;
    if proto != PROTO_VERSION {
        return Err(FrameError(format!("unsupported protocol version {proto}")));
    }
    let kind = reader.u8()?;
    if !kinds.contains(&kind) {
        return Err(FrameError(format!(
            "frame kind {kind:#04x}, expected one of {kinds:02x?}"
        )));
    }
    Ok(kind)
}

/// Encode the revision ring as the binary body of `GET /v1/revisions`
/// (layout in the [module docs](self)).
pub fn encode_revision_list(version: u64, ring: &[Arc<VerdictRevision>]) -> Vec<u8> {
    let spans = !ring.iter().all(|revision| spans_one_version(revision));
    let mut out = Vec::with_capacity(14 + ring.len() * 24);
    out.push(PROTO_VERSION);
    out.push(if spans {
        REVISION_KIND_SPANS
    } else {
        REVISION_KIND_LIST
    });
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(ring.len() as u32).to_le_bytes());
    for revision in ring {
        if spans {
            out.extend_from_slice(&revision.since().to_le_bytes());
        }
        out.extend_from_slice(&revision.version().to_le_bytes());
        out.extend_from_slice(&(revision.changes().len() as u32).to_le_bytes());
        for change in revision.changes() {
            put_change(&mut out, change);
        }
    }
    out
}

/// Decode a binary revision-list body of either kind back into
/// `(table version, ring)`.
pub fn decode_revision_list(bytes: &[u8]) -> Result<(u64, Vec<VerdictRevision>), FrameError> {
    let mut reader = FrameReader::new(bytes);
    let kinds = [REVISION_KIND_LIST, REVISION_KIND_SPANS];
    let spans = revision_kind(&mut reader, &kinds)? == REVISION_KIND_SPANS;
    let version = reader.u64()?;
    let count = reader.u32()? as usize;
    // Hostile counts cannot force huge allocations: every revision record
    // needs at least 12 bytes and every change at least 7.
    let mut revisions = Vec::with_capacity(count.min(reader.remaining() / 12));
    for _ in 0..count {
        let since = if spans { Some(reader.u64()?) } else { None };
        let revision_version = reader.u64()?;
        let change_count = reader.u32()? as usize;
        let mut changes = Vec::with_capacity(change_count.min(reader.remaining() / 7));
        for _ in 0..change_count {
            changes.push(read_change(&mut reader)?);
        }
        revisions.push(match since {
            Some(since) if since >= revision_version => {
                return Err(FrameError(format!(
                    "revision span {since}..{revision_version} covers no version"
                )));
            }
            Some(since) => VerdictRevision::spanning(since, revision_version, changes, Vec::new()),
            None => VerdictRevision::new(revision_version, changes),
        });
    }
    reader.finish()?;
    Ok((version, revisions))
}

/// Encode a revision over `(from, to]` as the binary body of
/// `GET /v1/revisions?diff=a..b` (layout in the [module docs](self)). The
/// plans it touched stay off the wire.
pub fn encode_revision_diff(diff: &VerdictRevision) -> Vec<u8> {
    let mut out = Vec::with_capacity(22 + diff.changes().len() * 16);
    out.push(PROTO_VERSION);
    out.push(REVISION_KIND_DIFF);
    out.extend_from_slice(&diff.since().to_le_bytes());
    out.extend_from_slice(&diff.version().to_le_bytes());
    out.extend_from_slice(&(diff.changes().len() as u32).to_le_bytes());
    for change in diff.changes() {
        put_change(&mut out, change);
    }
    out
}

/// Decode a binary revision-diff body (into a revision that touched no
/// plans: the frame does not carry them).
pub fn decode_revision_diff(bytes: &[u8]) -> Result<VerdictRevision, FrameError> {
    let mut reader = FrameReader::new(bytes);
    revision_kind(&mut reader, &[REVISION_KIND_DIFF])?;
    let from = reader.u64()?;
    let to = reader.u64()?;
    let count = reader.u32()? as usize;
    let mut changes = Vec::with_capacity(count.min(reader.remaining() / 7));
    for _ in 0..count {
        changes.push(read_change(&mut reader)?);
    }
    reader.finish()?;
    Ok(VerdictRevision::spanning(from, to, changes, Vec::new()))
}

// ---------------------------------------------------------------------
// Delta-snapshot encoding (replica state transfer)
// ---------------------------------------------------------------------

/// Frame kind byte of a binary delta-snapshot body (`?since=` hit).
pub(crate) const SNAPSHOT_KIND_DELTA: u8 = 0x12;
/// Frame kind byte of a binary full-snapshot body (bootstrap / `410 Gone`).
pub(crate) const SNAPSHOT_KIND_FULL: u8 = 0x13;

/// Encode a [`DeltaSnapshot`] as its canonical JSON envelope: a `kind`
/// discriminator (`"delta"` carries `from`, `"full"` does not), the target
/// `to` version with its `committed` / `residue` counters, the net
/// changes, and one `{script, plan}` row per touched surrogate plan
/// (`plan` is `null` when the script no longer has one).
pub fn delta_snapshot_value(snapshot: &DeltaSnapshot) -> Value {
    let mut fields = vec![("format", Value::String("trackersift.delta".to_string()))];
    match snapshot.since {
        Some(from) => {
            fields.push(("kind", Value::String("delta".to_string())));
            fields.push(("from", Value::number_u64(from)));
        }
        None => fields.push(("kind", Value::String("full".to_string()))),
    }
    fields.push(("to", Value::number_u64(snapshot.to)));
    fields.push(("committed", Value::number_u64(snapshot.committed)));
    fields.push(("residue", Value::number_u64(snapshot.residue)));
    fields.push((
        "changes",
        Value::Array(snapshot.changes.iter().map(change_value).collect()),
    ));
    fields.push((
        "plans",
        Value::Array(
            snapshot
                .plans
                .iter()
                .map(|(script, plan)| {
                    object(vec![
                        ("script", Value::String(script.to_string())),
                        (
                            "plan",
                            match plan {
                                Some(plan) => surrogate_value(plan),
                                None => Value::Null,
                            },
                        ),
                    ])
                })
                .collect(),
        ),
    ));
    object(fields)
}

/// Encode a [`DeltaSnapshot`] as its binary body: `proto u8`, kind byte
/// (`SNAPSHOT_KIND_DELTA` carries `from u64`, `SNAPSHOT_KIND_FULL`
/// does not), `to u64`, `committed u64`, `residue u64`, `change count u32`
/// + changes, `plan count u32` + per plan the `u32`-prefixed script key,
///   a presence byte, and (when present) the `u32`-length-prefixed
///   surrogate payload ([`encode_surrogate_payload`]).
pub fn encode_delta_snapshot(snapshot: &DeltaSnapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(40 + snapshot.changes.len() * 16);
    out.push(PROTO_VERSION);
    match snapshot.since {
        Some(from) => {
            out.push(SNAPSHOT_KIND_DELTA);
            out.extend_from_slice(&from.to_le_bytes());
        }
        None => out.push(SNAPSHOT_KIND_FULL),
    }
    out.extend_from_slice(&snapshot.to.to_le_bytes());
    out.extend_from_slice(&snapshot.committed.to_le_bytes());
    out.extend_from_slice(&snapshot.residue.to_le_bytes());
    out.extend_from_slice(&(snapshot.changes.len() as u32).to_le_bytes());
    for change in &snapshot.changes {
        put_change(&mut out, change);
    }
    out.extend_from_slice(&(snapshot.plans.len() as u32).to_le_bytes());
    for (script, plan) in &snapshot.plans {
        put_bytes(&mut out, script.as_bytes());
        match plan {
            Some(plan) => {
                out.push(1);
                put_bytes(&mut out, &encode_surrogate_payload(plan));
            }
            None => out.push(0),
        }
    }
    out
}

/// Decode a binary delta-snapshot body.
pub fn decode_delta_snapshot(bytes: &[u8]) -> Result<DeltaSnapshot, FrameError> {
    let mut reader = FrameReader::new(bytes);
    let proto = reader.u8()?;
    if proto != PROTO_VERSION {
        return Err(FrameError(format!("unsupported protocol version {proto}")));
    }
    let since = match reader.u8()? {
        SNAPSHOT_KIND_DELTA => Some(reader.u64()?),
        SNAPSHOT_KIND_FULL => None,
        other => return Err(FrameError(format!("unknown snapshot kind {other:#04x}"))),
    };
    let to = reader.u64()?;
    let committed = reader.u64()?;
    let residue = reader.u64()?;
    let change_count = reader.u32()? as usize;
    let mut changes = Vec::with_capacity(change_count.min(reader.remaining() / 7));
    for _ in 0..change_count {
        changes.push(read_change(&mut reader)?);
    }
    let plan_count = reader.u32()? as usize;
    let mut plans = Vec::with_capacity(plan_count.min(reader.remaining() / 9));
    for _ in 0..plan_count {
        let script: Arc<str> = reader.string()?.into();
        let plan = match reader.u8()? {
            0 => None,
            1 => Some(Arc::new(decode_surrogate_payload(reader.bytes()?)?)),
            other => return Err(FrameError(format!("unknown plan presence byte {other}"))),
        };
        plans.push((script, plan));
    }
    reader.finish()?;
    Ok(DeltaSnapshot {
        since,
        to,
        committed,
        residue,
        changes,
        plans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_surrogate() -> SurrogateScript {
        SurrogateScript {
            script_url: "https://pub.com/mixed.js".into(),
            methods: vec![
                ("render".into(), MethodAction::Keep),
                ("track".into(), MethodAction::Stub),
                (
                    "xhr".into(),
                    MethodAction::Guard {
                        blocked_callers: vec!["pixel.js @ firePixel".into()],
                    },
                ),
            ],
            suppressed_tracking_requests: 12,
            preserved_functional_requests: 9,
        }
    }

    fn sample_rewrite() -> RewrittenUrl {
        RewrittenUrl::new("https://news.example/story?p=1")
    }

    fn all_decisions() -> Vec<Decision> {
        let mut decisions: Vec<Decision> = (0..FIXED_COMBOS).map(fixed_decision).collect();
        decisions.push(Decision::Surrogate(Arc::new(sample_surrogate())));
        decisions.push(Decision::Rewrite(Arc::new(sample_rewrite())));
        decisions
    }

    #[test]
    fn fixed_indices_are_a_dense_bijection() {
        for index in 0..FIXED_COMBOS {
            assert_eq!(fixed_index(&fixed_decision(index)), Some(index));
        }
        assert_eq!(
            fixed_index(&Decision::Surrogate(Arc::new(sample_surrogate()))),
            None
        );
        assert_eq!(
            fixed_index(&Decision::Rewrite(Arc::new(sample_rewrite()))),
            None
        );
    }

    /// The JSON of the sample surrogate plan, as it appears inside a
    /// decision and inside a delta snapshot's `plans` rows.
    const SURROGATE_JSON: &str = concat!(
        r#"{"script_url":"https://pub.com/mixed.js","methods":["#,
        r#"["render","keep"],["track","stub"],"#,
        r#"["xhr",{"guard":{"blocked_callers":["pixel.js @ firePixel"]}}]],"#,
        r#""suppressed_tracking_requests":12,"preserved_functional_requests":9}"#
    );

    /// Nothing decodes the JSON decision objects, so their bytes are pinned
    /// as literals: one per decision shape, in [`all_decisions`] order.
    #[test]
    fn decision_json_is_golden() {
        let surrogate = format!(r#"{{"action":"surrogate","surrogate":{SURROGATE_JSON}}}"#);
        let expected = [
            r#"{"action":"observe"}"#,
            r#"{"action":"allow","source":"hierarchy","granularity":"Domain"}"#,
            r#"{"action":"allow","source":"hierarchy","granularity":"Hostname"}"#,
            r#"{"action":"allow","source":"hierarchy","granularity":"Script"}"#,
            r#"{"action":"allow","source":"hierarchy","granularity":"Method"}"#,
            r#"{"action":"allow","source":"filter-list"}"#,
            r#"{"action":"block","source":"hierarchy","granularity":"Domain"}"#,
            r#"{"action":"block","source":"hierarchy","granularity":"Hostname"}"#,
            r#"{"action":"block","source":"hierarchy","granularity":"Script"}"#,
            r#"{"action":"block","source":"hierarchy","granularity":"Method"}"#,
            r#"{"action":"block","source":"filter-list"}"#,
            surrogate.as_str(),
            r#"{"action":"rewrite","url":"https://news.example/story?p=1"}"#,
        ];
        let rendered: Vec<String> = all_decisions()
            .iter()
            .map(|decision| decision_value(decision).render())
            .collect();
        assert_eq!(rendered, expected);
    }

    #[test]
    fn surrogate_payloads_round_trip_binary() {
        let script = sample_surrogate();
        let payload = encode_surrogate_payload(&script);
        assert_eq!(decode_surrogate_payload(&payload).unwrap(), script);
        // Every truncation fails cleanly, never panics.
        for cut in 0..payload.len() {
            assert!(decode_surrogate_payload(&payload[..cut]).is_err());
        }
        // Trailing garbage is rejected.
        let mut padded = payload.clone();
        padded.push(0);
        assert!(decode_surrogate_payload(&padded).is_err());
    }

    #[test]
    fn binary_decisions_round_trip_through_codes() {
        for decision in all_decisions() {
            let (action, source) = codes_of(&decision);
            let payload = match &decision {
                Decision::Surrogate(script) => encode_surrogate_payload(script),
                Decision::Rewrite(rewritten) => encode_rewrite_payload(rewritten),
                _ => Vec::new(),
            };
            let back = decode_decision(action, source, &payload).unwrap();
            assert_eq!(back, decision);
        }
    }

    #[test]
    fn hostile_codes_are_rejected() {
        assert!(decode_decision(9, 0, &[]).is_err());
        assert!(decode_decision(ACTION_ALLOW, 0, &[]).is_err());
        assert!(decode_decision(ACTION_ALLOW, 6, &[]).is_err());
        assert!(decode_decision(ACTION_ALLOW, 1, &[1, 2, 3]).is_err());
        assert!(decode_decision(ACTION_SURROGATE, 0, &[1]).is_err());
        // Source-free actions have one frame each: any other source byte
        // would decode to the same decision as the canonical frame.
        assert!(decode_decision(ACTION_OBSERVE, SOURCE_FILTER_LIST, &[]).is_err());
        let plan = encode_surrogate_payload(&sample_surrogate());
        assert!(decode_decision(ACTION_SURROGATE, 3, &plan).is_err());
        let rewrite = encode_rewrite_payload(&sample_rewrite());
        assert!(decode_decision(ACTION_REWRITE, 1, &rewrite).is_err());
        // Rewrite frames must carry a complete, exactly-sized payload.
        assert!(decode_decision(ACTION_REWRITE, 0, &[]).is_err());
        assert!(decode_decision(ACTION_REWRITE, 0, &[255, 255, 255, 255]).is_err());
        let mut padded = encode_rewrite_payload(&sample_rewrite());
        padded.push(0);
        assert!(decode_decision(ACTION_REWRITE, 0, &padded).is_err());
    }

    #[test]
    fn rewrite_payloads_round_trip_binary() {
        let rewritten = sample_rewrite();
        let payload = encode_rewrite_payload(&rewritten);
        assert_eq!(decode_rewrite_payload(&payload).unwrap(), rewritten);
        for cut in 0..payload.len() {
            assert!(decode_rewrite_payload(&payload[..cut]).is_err());
        }
    }

    #[test]
    fn surrogate_frames_match_the_per_request_encoders() {
        let script = sample_surrogate();
        let frames = SurrogateFrames::new(&script);
        assert_eq!(
            frames.json.as_ref(),
            decision_value(&Decision::Surrogate(Arc::new(script.clone()))).render()
        );
        assert_eq!(frames.binary.as_ref(), encode_surrogate_payload(&script));
    }

    /// Characters a client string can carry into a plan: the ones JSON
    /// escapes (`"`, `\`, control bytes), DEL (not escaped) and non-ASCII
    /// text, among plain URL characters.
    const PLAN_TEXT: [char; 18] = [
        'a', 'Z', '0', '/', '.', ':', ' ', '"', '\\', '\u{0}', '\u{1f}', '\n', '\t', '\u{7f}', 'é',
        '中', '🦀', '\u{2028}',
    ];

    fn plan_text() -> impl proptest::Strategy<Value = String> {
        use proptest::Strategy;
        proptest::collection::vec(0..PLAN_TEXT.len(), 0..12)
            .prop_map(|picks| picks.into_iter().map(|at| PLAN_TEXT[at]).collect())
    }

    /// A request count: zero, 2^53 (the largest JSON carries exactly) or
    /// anything between.
    fn plan_count() -> impl proptest::Strategy<Value = u64> {
        use proptest::Strategy;
        (0usize..4, 0u64..1 << 53).prop_map(|(pick, any)| [0, 1 << 53, any, 1][pick])
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The directly written JSON of any plan — zero methods, `Keep`,
        /// `Stub` and `Guard` with 0..n callers, escaped and non-ASCII
        /// strings, extreme counts — is the bytes the tree renders.
        #[test]
        fn surrogate_frames_write_the_tree_encoders_bytes(
            script_url in plan_text(),
            methods in proptest::collection::vec(
                (plan_text(), 0usize..3, proptest::collection::vec(plan_text(), 0..4)),
                0..6,
            ),
            suppressed in plan_count(),
            preserved in plan_count(),
        ) {
            let script = SurrogateScript {
                script_url,
                methods: methods
                    .into_iter()
                    .map(|(name, pick, blocked_callers)| {
                        let action = match pick {
                            0 => MethodAction::Keep,
                            1 => MethodAction::Stub,
                            _ => MethodAction::Guard { blocked_callers },
                        };
                        (name, action)
                    })
                    .collect(),
                suppressed_tracking_requests: suppressed,
                preserved_functional_requests: preserved,
            };
            let frames = SurrogateFrames::new(&script);
            let tree = decision_value(&Decision::Surrogate(Arc::new(script.clone()))).render();
            proptest::prop_assert_eq!(frames.json.as_ref(), tree.as_str());
            proptest::prop_assert_eq!(frames.binary.as_ref(), encode_surrogate_payload(&script));
        }
    }

    #[test]
    fn fixed_single_frames_have_the_documented_layout() {
        let frame = encode_fixed_single(&fixed_decision(6), 0x0102_0304);
        assert_eq!(frame[0], PROTO_VERSION);
        assert_eq!(frame[1], ACTION_BLOCK);
        assert_eq!(frame[2], 1); // hierarchy at domain level
        assert_eq!(
            u64::from_le_bytes(frame[3..11].try_into().unwrap()),
            0x0102_0304
        );
        assert_eq!(u32::from_le_bytes(frame[11..15].try_into().unwrap()), 0);
        let header = encode_surrogate_single_header(7, 42);
        assert_eq!(header[1], ACTION_SURROGATE);
        assert_eq!(u32::from_le_bytes(header[11..15].try_into().unwrap()), 42);
        let header = encode_rewrite_single_header(7, 42);
        assert_eq!(header[0], PROTO_VERSION);
        assert_eq!(header[1], ACTION_REWRITE);
        assert_eq!(header[2], SOURCE_NONE);
        assert_eq!(u64::from_le_bytes(header[3..11].try_into().unwrap()), 7);
        assert_eq!(u32::from_le_bytes(header[11..15].try_into().unwrap()), 42);
        let record = encode_record_header(ACTION_ALLOW, SOURCE_FILTER_LIST, 3);
        assert_eq!(record, [ACTION_ALLOW, SOURCE_FILTER_LIST, 3, 0, 0, 0]);
    }

    /// The ring [`REVISION_LIST_FIXTURE`] renders (an add, then a flip + a
    /// removal), followed by a revision that changed nothing.
    fn sample_ring() -> Vec<Arc<VerdictRevision>> {
        use Classification::*;
        vec![
            Arc::new(VerdictRevision::new(
                2,
                vec![RevisionChange::new(
                    Granularity::Script,
                    "https://cdn.t.io/a.js",
                    ChangeKind::Added(Tracking),
                )],
            )),
            Arc::new(VerdictRevision::new(
                3,
                vec![
                    RevisionChange::new(
                        Granularity::Domain,
                        "t.io",
                        ChangeKind::Flipped(Mixed, Tracking),
                    ),
                    RevisionChange::new(
                        Granularity::Hostname,
                        "px.t.io",
                        ChangeKind::Removed(Functional),
                    ),
                ],
            )),
            Arc::new(VerdictRevision::new(4, vec![])),
        ]
    }

    /// Golden fixture: the canonical `GET /v1/revisions` body at version 3.
    const REVISION_LIST_FIXTURE: &str = concat!(
        r#"{"version":3,"revisions":["#,
        r#"{"version":2,"changes":[{"granularity":"Script","key":"https://cdn.t.io/a.js","added":"tracking"}]},"#,
        r#"{"version":3,"changes":[{"granularity":"Domain","key":"t.io","from":"mixed","to":"tracking"},"#,
        r#"{"granularity":"Hostname","key":"px.t.io","removed":"functional"}]}"#,
        r#"]}"#
    );

    /// Golden fixture: the canonical `GET /v1/revisions?diff=1..3` body.
    const REVISION_DIFF_FIXTURE: &str = concat!(
        r#"{"from":1,"to":3,"changes":["#,
        r#"{"granularity":"Domain","key":"t.io","from":"mixed","to":"tracking"},"#,
        r#"{"granularity":"Script","key":"https://cdn.t.io/a.js","added":"tracking"}"#,
        r#"]}"#
    );

    #[test]
    fn revision_json_is_golden() {
        let ring = sample_ring();
        assert_eq!(
            revision_list_value(3, &ring[..2]).render(),
            REVISION_LIST_FIXTURE
        );
        let diff = VerdictRevision::spanning(
            1,
            3,
            vec![ring[1].changes()[0].clone(), ring[0].changes()[0].clone()],
            Vec::new(),
        );
        assert_eq!(revision_diff_value(&diff).render(), REVISION_DIFF_FIXTURE);
    }

    /// A follower's ring: the delta it applied over `(1,3]`, then one over
    /// `(3,4]`. Only the wider span names its baseline in JSON, and the
    /// binary list switches to the kind whose records carry one.
    #[test]
    fn a_ring_of_wider_spans_carries_its_baselines() {
        let ring = sample_ring();
        let follower = vec![
            Arc::new(VerdictRevision::spanning(
                1,
                3,
                [ring[0].changes(), ring[1].changes()].concat(),
                Vec::new(),
            )),
            Arc::clone(&ring[2]),
        ];
        assert_eq!(
            revision_list_value(4, &follower).render(),
            concat!(
                r#"{"version":4,"revisions":["#,
                r#"{"from":1,"version":3,"changes":[{"granularity":"Domain","key":"t.io","from":"mixed","to":"tracking"},"#,
                r#"{"granularity":"Hostname","key":"px.t.io","removed":"functional"},"#,
                r#"{"granularity":"Script","key":"https://cdn.t.io/a.js","added":"tracking"}]},"#,
                r#"{"version":4,"changes":[]}]}"#
            )
        );
        let payload = encode_revision_list(4, &follower);
        assert_eq!(payload[1], REVISION_KIND_SPANS);
        let (version, back) = decode_revision_list(&payload).expect("span list decodes");
        assert_eq!(version, 4);
        assert_eq!(
            back,
            follower.iter().map(|r| (**r).clone()).collect::<Vec<_>>()
        );
        for cut in 0..payload.len() {
            assert!(decode_revision_list(&payload[..cut]).is_err());
        }
        // A span must cover a version: baseline 3 on version 3 is refused.
        let mut empty = payload.clone();
        empty[14..22].copy_from_slice(&3u64.to_le_bytes());
        assert!(decode_revision_list(&empty).is_err());
        // A primary's ring keeps the one-version kind.
        assert_eq!(encode_revision_list(4, &ring)[1], REVISION_KIND_LIST);
    }

    #[test]
    fn revision_frames_round_trip_binary() {
        let ring = sample_ring();
        let payload = encode_revision_list(4, &ring);
        let (version, back) = decode_revision_list(&payload).expect("list decodes");
        assert_eq!(version, 4);
        assert_eq!(back, ring.iter().map(|r| (**r).clone()).collect::<Vec<_>>());
        for cut in 0..payload.len() {
            assert!(decode_revision_list(&payload[..cut]).is_err());
        }
        let mut padded = payload.clone();
        padded.push(0);
        assert!(decode_revision_list(&padded).is_err());

        let diff = crate::revision::diff_revisions(&ring, 1, 4).unwrap();
        let payload = encode_revision_diff(&diff);
        assert_eq!(decode_revision_diff(&payload).unwrap(), diff);
        for cut in 0..payload.len() {
            assert!(decode_revision_diff(&payload[..cut]).is_err());
        }
        let mut padded = payload.clone();
        padded.push(0);
        assert!(decode_revision_diff(&padded).is_err());
    }

    fn sample_snapshots() -> [DeltaSnapshot; 2] {
        use Classification::*;
        let changes = vec![
            RevisionChange::new(Granularity::Domain, "ads.com", ChangeKind::Added(Tracking)),
            RevisionChange::new(
                Granularity::Method,
                "https://pub.com/mixed.js :: track",
                ChangeKind::Flipped(Mixed, Tracking),
            ),
        ];
        [
            DeltaSnapshot {
                since: Some(3),
                to: 5,
                committed: 120,
                residue: 7,
                changes: changes.clone(),
                plans: vec![
                    (
                        "https://pub.com/mixed.js".into(),
                        Some(Arc::new(sample_surrogate())),
                    ),
                    ("https://pub.com/stale.js".into(), None),
                ],
            },
            DeltaSnapshot {
                since: None,
                to: 5,
                committed: 120,
                residue: 7,
                changes,
                plans: vec![(
                    "https://pub.com/mixed.js".into(),
                    Some(Arc::new(sample_surrogate())),
                )],
            },
        ]
    }

    #[test]
    fn delta_snapshot_json_is_golden() {
        const CHANGES: &str = concat!(
            r#"{"granularity":"Domain","key":"ads.com","added":"tracking"},"#,
            r#"{"granularity":"Method","key":"https://pub.com/mixed.js :: track","#,
            r#""from":"mixed","to":"tracking"}"#
        );
        let [delta, full] = sample_snapshots();
        assert_eq!(
            delta_snapshot_value(&delta).render(),
            format!(
                concat!(
                    r#"{{"format":"trackersift.delta","kind":"delta","from":3,"to":5,"#,
                    r#""committed":120,"residue":7,"changes":[{}],"plans":["#,
                    r#"{{"script":"https://pub.com/mixed.js","plan":{}}},"#,
                    r#"{{"script":"https://pub.com/stale.js","plan":null}}]}}"#
                ),
                CHANGES, SURROGATE_JSON
            )
        );
        assert_eq!(
            delta_snapshot_value(&full).render(),
            format!(
                concat!(
                    r#"{{"format":"trackersift.delta","kind":"full","to":5,"#,
                    r#""committed":120,"residue":7,"changes":[{}],"plans":["#,
                    r#"{{"script":"https://pub.com/mixed.js","plan":{}}}]}}"#
                ),
                CHANGES, SURROGATE_JSON
            )
        );
    }

    #[test]
    fn delta_snapshots_round_trip_binary() {
        for snapshot in sample_snapshots() {
            let payload = encode_delta_snapshot(&snapshot);
            assert_eq!(decode_delta_snapshot(&payload).unwrap(), snapshot);
            for cut in 0..payload.len() {
                assert!(decode_delta_snapshot(&payload[..cut]).is_err());
            }
            let mut padded = payload.clone();
            padded.push(0);
            assert!(decode_delta_snapshot(&padded).is_err());
        }
    }

    #[test]
    fn hostile_delta_snapshots_are_rejected() {
        let snapshot = &sample_snapshots()[0];
        let mut bad = encode_delta_snapshot(snapshot);
        bad[0] = 9; // protocol version
        assert!(decode_delta_snapshot(&bad).is_err());
        let mut bad = encode_delta_snapshot(snapshot);
        bad[1] = 0x7f; // kind byte
        assert!(decode_delta_snapshot(&bad).is_err());
        // A revision-diff body is not a snapshot body.
        let ring = sample_ring();
        let diff = encode_revision_diff(&crate::revision::diff_revisions(&ring, 1, 4).unwrap());
        assert!(decode_delta_snapshot(&diff).is_err());
    }

    #[test]
    fn hostile_revision_frames_are_rejected() {
        let ring = sample_ring();
        let list = encode_revision_list(4, &ring);
        let diff = encode_revision_diff(&crate::revision::diff_revisions(&ring, 1, 4).unwrap());

        // Wrong protocol version.
        let mut bad = list.clone();
        bad[0] = 9;
        assert!(decode_revision_list(&bad).is_err());
        // Swapped kind bytes: a list body is not a diff body and vice versa.
        assert!(decode_revision_diff(&list).is_err());
        assert!(decode_revision_list(&diff).is_err());

        // One hand-built diff frame per hostile change shape.
        let hostile_changes: [[u8; 3]; 4] = [
            [7, 0, 1], // granularity code out of range
            [0, 4, 1], // old class code out of range
            [0, 1, 1], // identity transition
            [0, 0, 0], // absent -> absent encodes no transition
        ];
        for change in hostile_changes {
            let mut frame = vec![PROTO_VERSION, REVISION_KIND_DIFF];
            frame.extend_from_slice(&2u64.to_le_bytes());
            frame.extend_from_slice(&5u64.to_le_bytes());
            frame.extend_from_slice(&1u32.to_le_bytes());
            frame.extend_from_slice(&change);
            put_bytes(&mut frame, b"a.com");
            assert!(decode_revision_diff(&frame).is_err(), "accepted {change:?}");
        }
    }
}
