//! The wire formats of the verdict server: JSON (over the dependency-free
//! [`trackersift_json`] codec) and the length-prefixed binary protocol.
//!
//! Every type here encodes and decodes symmetrically, so a client can
//! round-trip what the server sends — the property the wire tests pin down
//! byte for byte: a [`Decision`] rendered here, shipped over HTTP, and
//! decoded back equals the in-process decision exactly, surrogate payload
//! included. The canonical decision encodings themselves live in
//! [`trackersift_engine::frames`] (shared with the commit-time response
//! preformatter); this module wraps them with the request envelopes.
//!
//! Decision requests decode two ways, through one decoder each: into owned
//! messages ([`DecisionMessage`], [`BinaryRequest`]) for clients and tools,
//! and in place ([`DecisionQuery`], [`decode_decision_batch`],
//! `BinaryRecords`) for the worker, which borrows the request body and
//! allocates nothing per request or per row. Observations likewise: owned
//! [`ObservationMessage`]s for clients, and for the worker
//! [`decode_observation_batch`], which streams the body's rows into one
//! [`ObservationBatch`] arena — the single copy an observation's strings
//! make between the socket and the fold.
//!
//! # The binary protocol
//!
//! Clients opt in per request by POSTing `/v1/decisions` (or `:batch`)
//! with `Content-Type:` [`BINARY_CONTENT_TYPE`]; the response body is then
//! binary too. All integers are little-endian; strings and payloads are
//! `u32`-length-prefixed. Request body:
//!
//! ```text
//! u8  protocol version (1)
//! u8  kind            0 = single, 1 = batch
//! u64 keys epoch      (checked only when a record uses id form)
//! u32 record count    (batch only)
//! per record:
//!   u8 form           0 = string keys, 1 = interned key ids
//!   u8 flags          bit 0: URL context follows the keys
//!   form 1: u32 domain, u32 hostname, u32 script, u32 method-name id
//!   form 0: 4 × length-prefixed string (same order)
//!   flags bit 0: length-prefixed url, length-prefixed source hostname,
//!                u8 resource-type code (index into `ResourceType::ALL`)
//! ```
//!
//! Key ids come from the `GET /v1/keys` handshake and are valid for the
//! epoch it reported; a stale epoch gets `409 Conflict`, never a silently
//! wrong verdict. Response bodies are the frames of
//! [`trackersift_engine::frames`]: a 15-byte single-decision header (+ surrogate
//! payload), or `u8 proto, u64 version, u32 count` followed by 6-byte
//! record headers (+ payloads) for batches.

use filterlist::ResourceType;
use std::borrow::Cow;
use trackersift_engine::frames::{self, FrameError, FrameReader, PROTO_VERSION, RECORD_HEADER_LEN};
use trackersift_engine::{Decision, DecisionRequest, FrozenKeys, ObservationRef};
use trackersift_json::{self as json, object, JsonError, Kind, Reader, Value};

fn err<T>(message: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(message.into()))
}

/// Parse a resource type from its canonical filter-list option name
/// (`script`, `image`, `xmlhttprequest`, …).
fn resource_type_from_str(name: &str) -> Result<ResourceType, JsonError> {
    ResourceType::from_option_name(name)
        .ok_or_else(|| JsonError(format!("unknown resource type {name:?}")))
}

/// Encode a resource type as its binary wire code (index into
/// [`ResourceType::ALL`]).
fn resource_type_code(kind: ResourceType) -> u8 {
    ResourceType::ALL
        .into_iter()
        .position(|candidate| candidate == kind)
        .expect("ALL contains every variant") as u8
}

/// Decode a binary resource-type code.
fn resource_type_from_code(code: u8) -> Result<ResourceType, FrameError> {
    ResourceType::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| FrameError(format!("unknown resource type code {code}")))
}

/// An owned decision query as it travels over the wire; borrow it into a
/// [`DecisionRequest`] with [`DecisionMessage::as_request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionMessage {
    /// Registrable domain of the request URL.
    pub domain: String,
    /// Full hostname of the request URL.
    pub hostname: String,
    /// URL of the initiating script.
    pub script: String,
    /// Method name of the initiating frame.
    pub method: String,
    /// Raw request URL (enables the filter-list backstop), if sent.
    pub url: Option<String>,
    /// Hostname of the page issuing the request (only with `url`).
    pub source_hostname: String,
    /// Resource type (only meaningful with `url`).
    pub resource_type: ResourceType,
}

impl DecisionMessage {
    /// A keys-only query.
    pub fn new(domain: &str, hostname: &str, script: &str, method: &str) -> Self {
        DecisionMessage {
            domain: domain.to_string(),
            hostname: hostname.to_string(),
            script: script.to_string(),
            method: method.to_string(),
            url: None,
            source_hostname: String::new(),
            resource_type: ResourceType::Other,
        }
    }

    /// Attach raw-URL context for the filter-list backstop.
    pub fn with_url(
        mut self,
        url: &str,
        source_hostname: &str,
        resource_type: ResourceType,
    ) -> Self {
        self.url = Some(url.to_string());
        self.source_hostname = source_hostname.to_string();
        self.resource_type = resource_type;
        self
    }

    /// Borrow as the core decision query.
    pub fn as_request(&self) -> DecisionRequest<'_> {
        let request =
            DecisionRequest::new(&self.domain, &self.hostname, &self.script, &self.method);
        match &self.url {
            Some(url) => request.with_url(url, &self.source_hostname, self.resource_type),
            None => request,
        }
    }

    /// Encode for the `POST /v1/decisions` body.
    pub fn to_json_value(&self) -> Value {
        let mut fields = vec![
            ("domain", Value::String(self.domain.clone())),
            ("hostname", Value::String(self.hostname.clone())),
            ("script", Value::String(self.script.clone())),
            ("method", Value::String(self.method.clone())),
        ];
        if let Some(url) = &self.url {
            fields.push(("url", Value::String(url.clone())));
            fields.push((
                "source_hostname",
                Value::String(self.source_hostname.clone()),
            ));
            fields.push((
                "resource_type",
                Value::String(self.resource_type.option_name().to_string()),
            ));
        }
        object(fields)
    }

    /// Decode from a request body value.
    pub fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        let mut message = DecisionMessage::new(
            value.field("domain")?.as_str()?,
            value.field("hostname")?.as_str()?,
            value.field("script")?.as_str()?,
            value.field("method")?.as_str()?,
        );
        if let Some(url) = value.get("url") {
            message.url = Some(url.as_str()?.to_string());
            message.source_hostname = match value.get("source_hostname") {
                Some(host) => host.as_str()?.to_string(),
                None => String::new(),
            };
            message.resource_type = match value.get("resource_type") {
                Some(kind) => resource_type_from_str(kind.as_str()?)?,
                None => ResourceType::Other,
            };
        }
        Ok(message)
    }
}

/// One known string field of a [`DecisionQuery`] while its object is being
/// read: absent so far, the first occurrence's string, or why the first
/// occurrence is not one.
type Slot<'a> = Option<Result<Cow<'a, str>, JsonError>>;

/// Read the value at the cursor into `slot`. A key's first occurrence
/// wins, as with [`Value::get`]; later ones are only checked.
fn read_slot<'a>(reader: &mut Reader<'a>, slot: &mut Slot<'a>) -> Result<(), JsonError> {
    if slot.is_some() {
        return reader.skip_value();
    }
    *slot = Some(match reader.maybe_string()? {
        Some(string) => Ok(string),
        None => {
            let other = reader.value()?;
            err(format!("expected string, got {other:?}"))
        }
    });
    Ok(())
}

fn required<'a>(slot: Slot<'a>, key: &str) -> Result<Cow<'a, str>, JsonError> {
    slot.unwrap_or_else(|| err(format!("missing field `{key}`")))
}

/// A decision query decoded in place from a request body: the same seven
/// fields as [`DecisionMessage`], each borrowing the body unless its
/// literal carried an escape. This is what the worker decodes — no
/// [`Value`] tree, no owned strings — and it accepts and rejects exactly
/// what [`Value::parse`] followed by [`DecisionMessage::from_json_value`]
/// does, with the same error for the same body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionQuery<'a> {
    /// Registrable domain of the request URL.
    pub domain: Cow<'a, str>,
    /// Full hostname of the request URL.
    pub hostname: Cow<'a, str>,
    /// URL of the initiating script.
    pub script: Cow<'a, str>,
    /// Method name of the initiating frame.
    pub method: Cow<'a, str>,
    /// Raw request URL (enables the filter-list backstop), if sent.
    pub url: Option<Cow<'a, str>>,
    /// Hostname of the page issuing the request (only with `url`).
    pub source_hostname: Cow<'a, str>,
    /// Resource type (only meaningful with `url`).
    pub resource_type: ResourceType,
}

impl<'a> DecisionQuery<'a> {
    /// Decode a `POST /v1/decisions` body.
    pub fn parse(text: &'a str) -> Result<Self, JsonError> {
        let mut reader = Reader::new(text);
        let query = DecisionQuery::read(&mut reader)?;
        reader.finish()?;
        query
    }

    /// Read the value at the cursor as a query. The outer error is a
    /// malformed document (nothing more can be read); the inner one a
    /// well-formed value that is not a query — the cursor is past it, so
    /// the caller can go on checking the document, whose syntax errors
    /// take precedence just as they do when a tree is parsed first.
    fn read(reader: &mut Reader<'a>) -> Result<Result<Self, JsonError>, JsonError> {
        let [mut domain, mut hostname, mut script, mut method, mut url, mut source_hostname, mut resource_type]: [Slot<'a>; 7] =
            Default::default();
        if reader.peek()? == Kind::Object {
            reader.begin_object()?;
            while let Some(key) = reader.next_key()? {
                let slot = match key.as_ref() {
                    "domain" => &mut domain,
                    "hostname" => &mut hostname,
                    "script" => &mut script,
                    "method" => &mut method,
                    "url" => &mut url,
                    "source_hostname" => &mut source_hostname,
                    "resource_type" => &mut resource_type,
                    _ => {
                        reader.skip_value()?;
                        continue;
                    }
                };
                read_slot(reader, slot)?;
            }
        } else {
            // No field is found in a non-object (`Value::get`).
            reader.skip_value()?;
        }
        // The order `DecisionMessage::from_json_value` reports errors in.
        let assemble = || {
            let mut query = DecisionQuery {
                domain: required(domain, "domain")?,
                hostname: required(hostname, "hostname")?,
                script: required(script, "script")?,
                method: required(method, "method")?,
                url: None,
                source_hostname: Cow::Borrowed(""),
                resource_type: ResourceType::Other,
            };
            if let Some(url) = url {
                query.url = Some(url?);
                if let Some(host) = source_hostname {
                    query.source_hostname = host?;
                }
                if let Some(kind) = resource_type {
                    query.resource_type = resource_type_from_str(&kind?)?;
                }
            }
            Ok(query)
        };
        Ok(assemble())
    }

    /// Borrow as the core decision query.
    pub(crate) fn as_request(&self) -> DecisionRequest<'_> {
        let request =
            DecisionRequest::new(&self.domain, &self.hostname, &self.script, &self.method);
        match &self.url {
            Some(url) => request.with_url(url, &self.source_hostname, self.resource_type),
            None => request,
        }
    }
}

/// Decode a `POST /v1/decisions:batch` body (`{"requests":[…]}`), handing
/// each row to `row` as soon as it is decoded, and return the row count.
/// Nothing is collected, so a batch costs no allocation per row.
///
/// The whole body is checked before the result is known: on `Err` the
/// caller must discard whatever `row` produced. `row` is not called again
/// after the first row that is not a query, and errors are reported with
/// the precedence of parsing a tree first — syntax anywhere in the body,
/// then `requests`, then the rows in order.
pub fn decode_decision_batch<'a>(
    text: &'a str,
    mut row: impl FnMut(&DecisionQuery<'a>),
) -> Result<usize, JsonError> {
    let mut reader = Reader::new(text);
    let mut rows: Option<Result<usize, JsonError>> = None;
    if reader.peek()? == Kind::Object {
        reader.begin_object()?;
        while let Some(key) = reader.next_key()? {
            if key != "requests" || rows.is_some() {
                reader.skip_value()?;
            } else if reader.peek()? == Kind::Array {
                let mut decoded = Ok(0);
                reader.begin_array()?;
                while reader.next_element()? {
                    match (&mut decoded, DecisionQuery::read(&mut reader)?) {
                        (Ok(count), Ok(query)) => {
                            row(&query);
                            *count += 1;
                        }
                        (Ok(_), Err(error)) => decoded = Err(error),
                        (Err(_), _) => {}
                    }
                }
                rows = Some(decoded);
            } else {
                let other = reader.value()?;
                rows = Some(err(format!("expected array, got {other:?}")));
            }
        }
    } else {
        reader.skip_value()?;
    }
    reader.finish()?;
    rows.unwrap_or_else(|| err("missing field `requests`"))
}

// ---------------------------------------------------------------------
// Binary protocol
// ---------------------------------------------------------------------

/// The `Content-Type` that negotiates the binary protocol on
/// `POST /v1/decisions` and `POST /v1/decisions:batch`.
pub const BINARY_CONTENT_TYPE: &str = "application/x-trackersift-verdict";

/// Request kind byte: one decision, response is a single frame.
pub(crate) const KIND_SINGLE: u8 = 0;
/// Request kind byte: counted records, response is a batch frame.
pub(crate) const KIND_BATCH: u8 = 1;
/// Record form byte: four length-prefixed key strings.
pub(crate) const FORM_STRINGS: u8 = 0;
/// Record form byte: four interned `u32` key ids (epoch-checked).
pub(crate) const FORM_IDS: u8 = 1;
/// Record flag bit: URL context (url, source hostname, resource type)
/// follows the keys.
pub(crate) const FLAG_URL: u8 = 1;

/// The four attribution keys of one binary record, in either wire form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryKeys<'a> {
    /// Interned ids from the `GET /v1/keys` handshake, `u32::MAX` for "not
    /// in the table" (the walk treats it as an unknown resource).
    Ids {
        /// Registrable-domain key id.
        domain: u32,
        /// Hostname key id.
        hostname: u32,
        /// Initiating-script key id.
        script: u32,
        /// Method-*name* key id.
        method: u32,
    },
    /// Raw key strings (no handshake needed).
    Strings {
        /// Registrable domain.
        domain: &'a str,
        /// Full hostname.
        hostname: &'a str,
        /// Initiating script URL.
        script: &'a str,
        /// Initiating method name.
        method: &'a str,
    },
}

/// Optional raw-URL context enabling the filter-list backstop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinaryUrlContext<'a> {
    /// The raw request URL.
    pub(crate) url: &'a str,
    /// Hostname of the page issuing the request.
    pub(crate) source_hostname: &'a str,
    /// Resource type of the request.
    pub(crate) resource_type: ResourceType,
}

/// One decision record of a binary request, borrowing from the body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinaryRecord<'a> {
    /// The four attribution keys.
    pub keys: BinaryKeys<'a>,
    /// URL context, when flag bit 0 was set.
    pub context: Option<BinaryUrlContext<'a>>,
}

/// A decoded binary decision request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryRequest<'a> {
    /// `true` for the batch kind (counted records, batch response frame).
    pub(crate) batch: bool,
    /// The client's key-table epoch; meaningful only when a record uses
    /// [`BinaryKeys::Ids`].
    pub(crate) epoch: u64,
    /// The decision records.
    pub records: Vec<BinaryRecord<'a>>,
}

/// A binary request body decoded record by record, borrowing the body:
/// the header is read up front, each record on demand. This is what the
/// worker iterates (no per-request `Vec`); [`decode_binary_request`]
/// collects it.
#[derive(Debug)]
pub(crate) struct BinaryRecords<'a> {
    reader: FrameReader<'a>,
    batch: bool,
    epoch: u64,
    /// Records the header declared that have not been read yet.
    unread: usize,
    count: usize,
}

impl<'a> BinaryRecords<'a> {
    /// Read the request header (protocol version, kind, epoch, count).
    pub(crate) fn new(body: &'a [u8]) -> Result<Self, FrameError> {
        let mut reader = FrameReader::new(body);
        let proto = reader.u8()?;
        if proto != PROTO_VERSION {
            return Err(FrameError(format!("unsupported protocol version {proto}")));
        }
        let kind = reader.u8()?;
        let epoch = reader.u64()?;
        let count = match kind {
            KIND_SINGLE => 1,
            KIND_BATCH => reader.u32()? as usize,
            other => return Err(FrameError(format!("unknown request kind {other}"))),
        };
        Ok(BinaryRecords {
            reader,
            batch: kind == KIND_BATCH,
            epoch,
            unread: count,
            count,
        })
    }

    /// `true` for the batch kind (counted records, batch response frame).
    pub(crate) fn batch(&self) -> bool {
        self.batch
    }

    /// The client's key-table epoch; meaningful only for records using
    /// [`BinaryKeys::Ids`].
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// How many records the header declares. Untrusted until every one of
    /// them has been read.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// The next record; `None` after the last declared one, once the body
    /// is checked to end there.
    pub(crate) fn next_record(&mut self) -> Result<Option<BinaryRecord<'a>>, FrameError> {
        if self.unread == 0 {
            self.reader.clone().finish()?;
            return Ok(None);
        }
        self.unread -= 1;
        let reader = &mut self.reader;
        let form = reader.u8()?;
        let flags = reader.u8()?;
        if flags & !FLAG_URL != 0 {
            return Err(FrameError(format!("unknown record flags {flags:#x}")));
        }
        let keys = match form {
            FORM_IDS => BinaryKeys::Ids {
                domain: reader.u32()?,
                hostname: reader.u32()?,
                script: reader.u32()?,
                method: reader.u32()?,
            },
            FORM_STRINGS => BinaryKeys::Strings {
                domain: reader.string()?,
                hostname: reader.string()?,
                script: reader.string()?,
                method: reader.string()?,
            },
            other => return Err(FrameError(format!("unknown record form {other}"))),
        };
        let context = if flags & FLAG_URL != 0 {
            Some(BinaryUrlContext {
                url: reader.string()?,
                source_hostname: reader.string()?,
                resource_type: resource_type_from_code(reader.u8()?)?,
            })
        } else {
            None
        };
        Ok(Some(BinaryRecord { keys, context }))
    }
}

/// Decode a binary request body (either kind) into an owned record list.
pub fn decode_binary_request(body: &[u8]) -> Result<BinaryRequest<'_>, FrameError> {
    let mut decoder = BinaryRecords::new(body)?;
    // Each record is at least 2 bytes; a hostile count cannot force a huge
    // preallocation.
    let mut records = Vec::with_capacity(decoder.count().min(body.len() / 2 + 1));
    while let Some(record) = decoder.next_record()? {
        records.push(record);
    }
    Ok(BinaryRequest {
        batch: decoder.batch(),
        epoch: decoder.epoch(),
        records,
    })
}

fn encode_record(out: &mut Vec<u8>, record: &BinaryRecord<'_>) {
    let put_str = |out: &mut Vec<u8>, s: &str| frames::put_bytes(out, s.as_bytes());
    match record.keys {
        BinaryKeys::Ids { .. } => out.push(FORM_IDS),
        BinaryKeys::Strings { .. } => out.push(FORM_STRINGS),
    }
    out.push(if record.context.is_some() {
        FLAG_URL
    } else {
        0
    });
    match record.keys {
        BinaryKeys::Ids {
            domain,
            hostname,
            script,
            method,
        } => {
            for id in [domain, hostname, script, method] {
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        BinaryKeys::Strings {
            domain,
            hostname,
            script,
            method,
        } => {
            for key in [domain, hostname, script, method] {
                put_str(out, key);
            }
        }
    }
    if let Some(context) = &record.context {
        put_str(out, context.url);
        put_str(out, context.source_hostname);
        out.push(resource_type_code(context.resource_type));
    }
}

/// Encode a single-kind binary request body.
pub fn encode_binary_single(epoch: u64, record: &BinaryRecord<'_>) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(PROTO_VERSION);
    out.push(KIND_SINGLE);
    out.extend_from_slice(&epoch.to_le_bytes());
    encode_record(&mut out, record);
    out
}

/// Encode a batch-kind binary request body.
pub fn encode_binary_batch(epoch: u64, records: &[BinaryRecord<'_>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + records.len() * 32);
    out.push(PROTO_VERSION);
    out.push(KIND_BATCH);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for record in records {
        encode_record(&mut out, record);
    }
    out
}

impl<'a> BinaryRecord<'a> {
    /// A string-form record borrowing a [`DecisionMessage`]'s keys and URL
    /// context.
    pub fn from_message(message: &'a DecisionMessage) -> Self {
        BinaryRecord {
            keys: BinaryKeys::Strings {
                domain: &message.domain,
                hostname: &message.hostname,
                script: &message.script,
                method: &message.method,
            },
            context: message.url.as_deref().map(|url| BinaryUrlContext {
                url,
                source_hostname: &message.source_hostname,
                resource_type: message.resource_type,
            }),
        }
    }
}

/// Decode a binary single-decision response body into the version and the
/// decision it encodes.
pub(crate) fn decode_binary_single_response(body: &[u8]) -> Result<(u64, Decision), FrameError> {
    let mut reader = FrameReader::new(body);
    let proto = reader.u8()?;
    if proto != PROTO_VERSION {
        return Err(FrameError(format!("unsupported protocol version {proto}")));
    }
    let action = reader.u8()?;
    let source = reader.u8()?;
    let version = reader.u64()?;
    let payload = reader.bytes()?;
    reader.finish()?;
    Ok((version, frames::decode_decision(action, source, payload)?))
}

/// Decode a binary batch response body into the version and the decisions
/// it encodes.
pub(crate) fn decode_binary_batch_response(
    body: &[u8],
) -> Result<(u64, Vec<Decision>), FrameError> {
    let mut reader = FrameReader::new(body);
    let proto = reader.u8()?;
    if proto != PROTO_VERSION {
        return Err(FrameError(format!("unsupported protocol version {proto}")));
    }
    let version = reader.u64()?;
    let count = reader.u32()? as usize;
    let mut decisions = Vec::with_capacity(count.min(reader.remaining() / RECORD_HEADER_LEN + 1));
    for _ in 0..count {
        let action = reader.u8()?;
        let source = reader.u8()?;
        let payload = reader.bytes()?;
        decisions.push(frames::decode_decision(action, source, payload)?);
    }
    reader.finish()?;
    Ok((version, decisions))
}

/// Kind byte of a binary load-shed frame (the body of a binary-protocol
/// `503`): deliberately outside the decision-action code space so a
/// client that skips the status check still cannot mistake it for a
/// verdict.
pub(crate) const KIND_SHED: u8 = 0xFF;

/// Encode the binary load-shed frame: `u8 proto, u8 KIND_SHED,
/// u32 retry-after seconds` — the binary-protocol twin of the JSON
/// `{"error": …, "retry_after": n}` body, sent with `503` + `Retry-After`.
pub(crate) fn encode_binary_shed(retry_after: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(6);
    out.push(PROTO_VERSION);
    out.push(KIND_SHED);
    out.extend_from_slice(&retry_after.to_le_bytes());
    out
}

/// Decode a binary load-shed frame into its retry-after hint (seconds).
pub fn decode_binary_shed(body: &[u8]) -> Result<u32, FrameError> {
    let mut reader = FrameReader::new(body);
    let proto = reader.u8()?;
    if proto != PROTO_VERSION {
        return Err(FrameError(format!("unsupported protocol version {proto}")));
    }
    let kind = reader.u8()?;
    if kind != KIND_SHED {
        return Err(FrameError(format!("not a shed frame (kind {kind})")));
    }
    let retry_after = reader.u32()?;
    reader.finish()?;
    Ok(retry_after)
}

/// Encode the `GET /v1/keys` handshake reply: the key-id table of the
/// serving verdict table. `keys[i]` is the string whose interned id is
/// `i`; the epoch scopes every id's validity (a restore bumps it).
///
/// The reply is streamed into one buffer, each key read straight out of
/// the frozen view's arena: no `Value` tree and no string per key.
pub(crate) fn keys_to_json(epoch: u64, version: u64, keys: &FrozenKeys) -> Vec<u8> {
    // Each key, its quotes and its comma, unless it needs escapes; two
    // integers and the envelope take under 80 bytes.
    let bound = 80 + keys.iter().map(|(_, key)| key.len() + 3).sum::<usize>();
    let mut out = Vec::with_capacity(bound);
    out.extend_from_slice(b"{\"epoch\":");
    json::write_u64(&mut out, epoch);
    out.extend_from_slice(b",\"version\":");
    json::write_u64(&mut out, version);
    out.extend_from_slice(b",\"keys\":[");
    for (id, key) in keys.iter() {
        if id.index() > 0 {
            out.push(b',');
        }
        json::write_string(&mut out, key);
    }
    out.extend_from_slice(b"]}");
    out
}

/// One observation as a client builds it for `POST /v1/observations`: the
/// core's owned [`Observation`](trackersift_engine::Observation) record, in its
/// `Url` form — the server labels every row with its own filter lists and
/// refuses a `Parts` row. The server decodes a body with
/// [`decode_observation_batch`] instead.
pub use trackersift_engine::Observation as ObservationMessage;

#[derive(Debug, Clone, Copy)]
struct BatchRow {
    resource_type: ResourceType,
    /// Where each of the row's four strings (url, source hostname, script,
    /// method) ends in the arena; the first begins where the previous row's
    /// last one ended.
    ends: [usize; 4],
}

/// The decoded body of one `POST /v1/observations`: every row's strings
/// appended to one `String`, plus a row table of offsets into it. This is
/// what crosses from the worker to the admin thread, which folds the rows
/// as [`ObservationRef`]s borrowed from the arena — two allocations that
/// grow, whatever the row count.
#[derive(Debug, Default)]
pub struct ObservationBatch {
    text: String,
    rows: Vec<BatchRow>,
}

impl ObservationBatch {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` for a body whose `observations` array is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn push(&mut self, resource_type: ResourceType, strings: [&str; 4]) {
        let ends = strings.map(|string| {
            self.text.push_str(string);
            self.text.len()
        });
        self.rows.push(BatchRow {
            resource_type,
            ends,
        });
    }

    /// The rows in body order, borrowed from the arena.
    pub fn iter(&self) -> impl Iterator<Item = ObservationRef<'_>> + Clone {
        let mut start = 0;
        self.rows.iter().map(move |row| {
            let [url, source_hostname, script, method] = row.ends.map(|end| {
                let string = &self.text[start..end];
                start = end;
                string
            });
            ObservationRef::url(url, source_hostname, row.resource_type, script, method)
        })
    }
}

/// Read the observation row at the cursor and append it to `batch`. Outer
/// and inner errors as in [`DecisionQuery::read`]; a row that is not an
/// observation appends nothing. Accepts and rejects exactly what
/// [`ObservationMessage::from_json_value`] does on the parsed row, with the
/// same error.
fn read_observation<'a>(
    reader: &mut Reader<'a>,
    batch: &mut ObservationBatch,
) -> Result<Result<(), JsonError>, JsonError> {
    let [mut url, mut source_hostname, mut resource_type, mut script, mut method]: [Slot<'a>; 5] =
        Default::default();
    if reader.peek()? == Kind::Object {
        reader.begin_object()?;
        while let Some(key) = reader.next_key()? {
            let slot = match key.as_ref() {
                "url" => &mut url,
                "source_hostname" => &mut source_hostname,
                "resource_type" => &mut resource_type,
                "script" => &mut script,
                "method" => &mut method,
                _ => {
                    reader.skip_value()?;
                    continue;
                }
            };
            read_slot(reader, slot)?;
        }
    } else {
        // No field is found in a non-object (`Value::get`).
        reader.skip_value()?;
    }
    // The order `ObservationMessage::from_json_value` reports errors in.
    let assemble = || {
        let url = url.unwrap_or_else(|| err(ObservationMessage::URL_REQUIRED))?;
        let source_hostname = required(source_hostname, "source_hostname")?;
        let resource_type = resource_type_from_str(&required(resource_type, "resource_type")?)?;
        let (script, method) = (required(script, "script")?, required(method, "method")?);
        batch.push(resource_type, [&url, &source_hostname, &script, &method]);
        Ok(())
    };
    Ok(assemble())
}

/// Decode a `POST /v1/observations` body (`{"observations":[…]}`) into one
/// [`ObservationBatch`], with no [`Value`] tree and no string of its own per
/// row. It accepts and rejects exactly what [`Value::parse`] followed by
/// [`ObservationMessage::from_json_value`] on each row does, with the same
/// error for the same body and the precedence of parsing a tree first —
/// syntax anywhere in the body, then `observations`, then the rows in order.
/// The whole body is checked before anything is returned, so a bad row at
/// any index yields no batch at all.
pub fn decode_observation_batch(text: &str) -> Result<ObservationBatch, JsonError> {
    let mut reader = Reader::new(text);
    // No string outgrows the body it was unescaped from.
    let mut batch = ObservationBatch {
        text: String::with_capacity(text.len()),
        rows: Vec::new(),
    };
    let mut rows: Option<Result<(), JsonError>> = None;
    if reader.peek()? == Kind::Object {
        reader.begin_object()?;
        while let Some(key) = reader.next_key()? {
            if key != "observations" || rows.is_some() {
                reader.skip_value()?;
            } else if reader.peek()? == Kind::Array {
                let mut decoded = Ok(());
                reader.begin_array()?;
                while reader.next_element()? {
                    if decoded.is_ok() {
                        decoded = read_observation(&mut reader, &mut batch)?;
                    } else {
                        reader.skip_value()?;
                    }
                }
                rows = Some(decoded);
            } else {
                let other = reader.value()?;
                rows = Some(err(format!("expected array, got {other:?}")));
            }
        }
    } else {
        reader.skip_value()?;
    }
    reader.finish()?;
    rows.unwrap_or_else(|| err("missing field `observations`"))?;
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use trackersift_engine::{DecisionSource, Granularity, MethodAction, SurrogateScript};

    #[test]
    fn decision_messages_round_trip() {
        let messages = vec![
            DecisionMessage::new("ads.com", "px.ads.com", "https://p.com/a.js", "send"),
            DecisionMessage::new("hub.com", "w.hub.com", "https://p.com/m.js", "xhr").with_url(
                "https://w.hub.com/x?y=1",
                "pub.com",
                ResourceType::Xhr,
            ),
        ];
        for message in messages {
            let text = message.to_json_value().render();
            let back = DecisionMessage::from_json_value(&Value::parse(&text).unwrap()).unwrap();
            assert_eq!(back, message);
        }
    }

    #[test]
    fn decision_queries_borrow_the_body_and_copy_only_escaped_fields() {
        let message = DecisionMessage::new("hub.com", "w.hub.com", "https://p.com/m.js", "xhr")
            .with_url("https://w.hub.com/x?y=1", "pub.com", ResourceType::Xhr);
        let text = message.to_json_value().render();
        let query = DecisionQuery::parse(&text).expect("valid query");
        assert_eq!(query.as_request(), message.as_request());
        for field in [
            &query.domain,
            &query.hostname,
            &query.script,
            &query.method,
            query.url.as_ref().expect("url sent"),
            &query.source_hostname,
        ] {
            assert!(matches!(field, Cow::Borrowed(_)), "{field:?} was copied");
        }

        let escaped = text.replace("\"hub.com\"", "\"hub\\u002ecom\"");
        assert_ne!(escaped, text);
        let query = DecisionQuery::parse(&escaped).expect("valid query");
        assert_eq!(query.as_request(), message.as_request());
        assert!(matches!(query.domain, Cow::Owned(_)));
        assert!(matches!(query.hostname, Cow::Borrowed(_)));
    }

    #[test]
    fn batch_rows_stream_until_the_first_bad_row_and_syntax_errors_win() {
        let row = r#"{"domain":"a.com","hostname":"h.a.com","script":"s.js","method":"m"}"#;
        let decode = |body: &str| {
            let mut seen = 0;
            decode_decision_batch(body, |_| seen += 1).map_err(|error| (seen, error.0))
        };
        assert_eq!(decode(&format!(r#"{{"requests":[{row},{row}]}}"#)), Ok(2));
        assert_eq!(decode(r#"{"requests":[]}"#), Ok(0));
        // The bad row stops the streaming, not the checking...
        assert_eq!(
            decode(&format!(r#"{{"requests":[{row},{{}},{row}]}}"#)),
            Err((1, "missing field `domain`".to_string()))
        );
        // ...so a syntax error after it is still the one reported.
        let (seen, error) = decode(&format!(r#"{{"requests":[{row},{{}},{row}]}} x"#)).unwrap_err();
        assert_eq!(seen, 1);
        assert!(error.starts_with("trailing data at byte"), "{error}");
        assert_eq!(
            decode(r#"{"other":1}"#),
            Err((0, "missing field `requests`".to_string()))
        );
        assert_eq!(
            decode(r#"{"requests":7}"#),
            Err((0, "expected array, got Number(7.0)".to_string()))
        );
    }

    #[test]
    fn raw_control_bytes_are_refused_by_every_json_decoder() {
        // The writer escapes a BEL in `method` as `\u0007`, which every
        // decoder reads back; the raw byte (RFC 8259 §7) is an error, the
        // same one parsing a tree first reports.
        let row = DecisionMessage::new("a.com", "h.a.com", "s.js", "m\u{7}")
            .to_json_value()
            .render();
        let observation = ObservationMessage::Url {
            url: "https://h.a.com/p".into(),
            source_hostname: "pub.com".into(),
            resource_type: ResourceType::Image,
            script: "s.js".into(),
            method: "m\u{7}".into(),
        }
        .to_json_value()
        .render();
        assert!(row.contains("\\u0007") && observation.contains("\\u0007"));
        let raw = |escaped: &str| escaped.replace("\\u0007", "\u{7}");
        let batch = format!(r#"{{"requests":[{row},{row}]}}"#);
        let observations = format!(r#"{{"observations":[{observation}]}}"#);

        assert_eq!(DecisionQuery::parse(&row).unwrap().method, "m\u{7}");
        let mut methods = Vec::new();
        assert_eq!(
            decode_decision_batch(&batch, |query| methods.push(query.method.to_string())),
            Ok(2)
        );
        assert_eq!(methods, ["m\u{7}", "m\u{7}"]);
        let decoded = decode_observation_batch(&observations).unwrap();
        assert!(matches!(
            decoded.iter().collect::<Vec<_>>()[..],
            [ObservationRef::Url {
                method: "m\u{7}",
                ..
            }]
        ));

        let tree_error = |text: &str| Value::parse(text).unwrap_err();
        let error = DecisionQuery::parse(&raw(&row)).unwrap_err();
        assert!(
            error.0.starts_with("unescaped control character 0x07"),
            "{error}"
        );
        assert_eq!(error, tree_error(&raw(&row)));
        let mut seen = 0;
        assert_eq!(
            decode_decision_batch(&raw(&batch), |_| seen += 1),
            Err(tree_error(&raw(&batch)))
        );
        assert_eq!(seen, 0, "no row is decided before the bad byte");
        assert_eq!(
            decode_observation_batch(&raw(&observations)).err(),
            Some(tree_error(&raw(&observations)))
        );
    }

    #[test]
    fn observation_messages_round_trip() {
        let message = ObservationMessage::Url {
            url: "https://px.t.io/b".into(),
            source_hostname: "shop.com".into(),
            resource_type: ResourceType::Image,
            script: "s.js".into(),
            method: "m".into(),
        };
        let text = message.to_json_value().render();
        let back = ObservationMessage::from_json_value(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back, message);
        let body = format!(r#"{{"observations":[{text}]}}"#);
        let decoded = decode_observation_batch(&body).unwrap();
        assert!(decoded.iter().eq([message.as_ref()]));
    }

    #[test]
    fn a_client_labeled_row_is_refused_as_the_tree_decoder_refuses_it() {
        let labeled = ObservationMessage::Parts {
            domain: "a.com".into(),
            hostname: "h.a.com".into(),
            script: "s.js".into(),
            method: "m".into(),
            tracking: true,
        }
        .to_json_value()
        .render();
        let refused = JsonError(ObservationMessage::URL_REQUIRED.to_string());
        assert_eq!(
            ObservationMessage::from_json_value(&Value::parse(&labeled).unwrap()),
            Err(refused.clone())
        );
        let url_row = r#"{"url":"https://h.a.com/p","source_hostname":"pub.com","resource_type":"image","script":"s.js","method":"m"}"#;
        for body in [
            format!(r#"{{"observations":[{labeled}]}}"#),
            format!(r#"{{"observations":[{url_row},{labeled},{url_row}]}}"#),
            r#"{"observations":[7]}"#.to_string(),
        ] {
            assert_eq!(
                decode_observation_batch(&body).err(),
                Some(refused.clone()),
                "{body}"
            );
        }
    }

    #[test]
    fn unknown_discriminants_are_rejected() {
        assert!(resource_type_from_str("warp-drive").is_err());
        assert!(resource_type_from_code(250).is_err());
    }

    #[test]
    fn resource_type_codes_are_a_bijection() {
        for kind in ResourceType::ALL {
            assert_eq!(
                resource_type_from_code(resource_type_code(kind)).unwrap(),
                kind
            );
        }
    }

    #[test]
    fn binary_requests_round_trip_both_forms() {
        let message = DecisionMessage::new("hub.com", "w.hub.com", "https://p.com/m.js", "xhr")
            .with_url("https://w.hub.com/x?y=1", "pub.com", ResourceType::Xhr);
        let string_record = BinaryRecord::from_message(&message);
        let id_record = BinaryRecord {
            keys: BinaryKeys::Ids {
                domain: 3,
                hostname: 1,
                script: 9,
                method: u32::MAX,
            },
            context: None,
        };

        let single = encode_binary_single(7, &string_record);
        let decoded = decode_binary_request(&single).expect("single decodes");
        assert!(!decoded.batch);
        assert_eq!(decoded.epoch, 7);
        assert_eq!(decoded.records, vec![string_record]);

        let batch = encode_binary_batch(9, &[id_record, string_record]);
        let decoded = decode_binary_request(&batch).expect("batch decodes");
        assert!(decoded.batch);
        assert_eq!(decoded.epoch, 9);
        assert_eq!(decoded.records, vec![id_record, string_record]);

        // Every truncation fails cleanly, never panics.
        for cut in 0..batch.len() {
            assert!(decode_binary_request(&batch[..cut]).is_err());
        }
        // Trailing garbage is rejected.
        let mut padded = batch.clone();
        padded.push(0);
        assert!(decode_binary_request(&padded).is_err());
        // Unknown protocol / kind / form / flags are rejected.
        let mut wrong_proto = single.clone();
        wrong_proto[0] = 9;
        assert!(decode_binary_request(&wrong_proto).is_err());
        let mut wrong_kind = single.clone();
        wrong_kind[1] = 7;
        assert!(decode_binary_request(&wrong_kind).is_err());
        let mut wrong_form = single.clone();
        wrong_form[10] = 5;
        assert!(decode_binary_request(&wrong_form).is_err());
        let mut wrong_flags = single;
        wrong_flags[11] = 0x80 | FLAG_URL;
        assert!(decode_binary_request(&wrong_flags).is_err());
    }

    #[test]
    fn binary_responses_round_trip() {
        let fixed = Decision::Block(DecisionSource::Hierarchy(Granularity::Domain));
        let single = frames::encode_fixed_single(&fixed, 42);
        assert_eq!(
            decode_binary_single_response(&single).expect("single decodes"),
            (42, fixed.clone())
        );

        let plan = SurrogateScript {
            script_url: "https://pub.com/mixed.js".into(),
            methods: vec![("track".into(), MethodAction::Stub)],
            suppressed_tracking_requests: 6,
            preserved_functional_requests: 8,
        };
        let payload = frames::encode_surrogate_payload(&plan);
        let mut body = frames::encode_surrogate_single_header(3, payload.len() as u32).to_vec();
        body.extend_from_slice(&payload);
        let (version, decision) = decode_binary_single_response(&body).expect("surrogate decodes");
        assert_eq!(version, 3);
        assert_eq!(decision, Decision::Surrogate(Arc::new(plan.clone())));

        let rewritten = trackersift_engine::RewrittenUrl::new("https://shop.example/p?id=7");
        let rewrite_payload = frames::encode_rewrite_payload(&rewritten);
        let mut body =
            frames::encode_rewrite_single_header(5, rewrite_payload.len() as u32).to_vec();
        body.extend_from_slice(&rewrite_payload);
        let (version, decision) = decode_binary_single_response(&body).expect("rewrite decodes");
        assert_eq!(version, 5);
        assert_eq!(decision, Decision::Rewrite(Arc::new(rewritten.clone())));

        // A batch mixing a fixed decision, a surrogate, and a rewrite.
        let mut batch = vec![PROTO_VERSION];
        batch.extend_from_slice(&11u64.to_le_bytes());
        batch.extend_from_slice(&3u32.to_le_bytes());
        let (action, source) = frames::codes_of(&fixed);
        batch.extend_from_slice(&frames::encode_record_header(action, source, 0));
        batch.extend_from_slice(&frames::encode_record_header(
            frames::ACTION_SURROGATE,
            frames::SOURCE_NONE,
            payload.len() as u32,
        ));
        batch.extend_from_slice(&payload);
        batch.extend_from_slice(&frames::encode_record_header(
            frames::ACTION_REWRITE,
            frames::SOURCE_NONE,
            rewrite_payload.len() as u32,
        ));
        batch.extend_from_slice(&rewrite_payload);
        let (version, decisions) = decode_binary_batch_response(&batch).expect("batch decodes");
        assert_eq!(version, 11);
        assert_eq!(
            decisions,
            vec![
                fixed,
                Decision::Surrogate(Arc::new(plan)),
                Decision::Rewrite(Arc::new(rewritten)),
            ]
        );
    }

    #[test]
    fn shed_frames_round_trip_and_reject_noise() {
        let frame = encode_binary_shed(7);
        assert_eq!(frame.len(), 6);
        assert_eq!(decode_binary_shed(&frame).expect("shed decodes"), 7);
        // Every truncation is rejected, as is a non-shed kind byte.
        for len in 0..frame.len() {
            assert!(decode_binary_shed(&frame[..len]).is_err());
        }
        let mut wrong_kind = frame.clone();
        wrong_kind[1] = KIND_SINGLE;
        assert!(decode_binary_shed(&wrong_kind).is_err());
        let mut trailing = frame;
        trailing.push(0);
        assert!(decode_binary_shed(&trailing).is_err());
    }

    /// The keys reply as text, to compare with the oracle's render.
    fn keys_to_json(epoch: u64, version: u64, keys: &FrozenKeys) -> String {
        String::from_utf8(super::keys_to_json(epoch, version, keys)).expect("UTF-8 reply")
    }

    /// The tree encoder `keys_to_json` replaced, kept as its oracle.
    fn keys_tree_oracle(epoch: u64, version: u64, keys: &FrozenKeys) -> String {
        object(vec![
            ("epoch", Value::number_u64(epoch)),
            ("version", Value::number_u64(version)),
            (
                "keys",
                Value::Array(
                    keys.iter()
                        .map(|(_, name)| Value::String(name.to_string()))
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    #[test]
    fn the_streamed_keys_reply_is_the_tree_oracles_render() {
        use trackersift_engine::KeyInterner;
        // Every byte the writer escapes, in runs of every length up to a
        // word and beyond, beside quotes, backslashes, 0x7f and multi-byte
        // UTF-8 at both ends of a key.
        let controls: String = (0u8..=0x20).map(char::from).collect();
        let mut keys = vec![
            String::new(),
            "ads.com".to_string(),
            "quo\"te".to_string(),
            "back\\slash\\".to_string(),
            "\"\\\u{7f}".to_string(),
            "é中🦀".to_string(),
            "🦀https://p.com/a.js :: sénd\u{1}".to_string(),
            controls.clone(),
        ];
        keys.extend((0..=controls.len()).map(|len| format!("k{}", &controls[..len])));
        let mut interner = KeyInterner::new();
        let mut views = vec![interner.freeze()];
        for key in &keys {
            interner.intern(key);
            views.push(interner.freeze());
        }
        for view in &views {
            for (epoch, version) in [(0, 0), (3, 17), (1 << 53, 1 << 53)] {
                assert_eq!(
                    keys_to_json(epoch, version, view),
                    keys_tree_oracle(epoch, version, view)
                );
            }
        }
        assert_eq!(
            keys_to_json(2, 9, &views[5]),
            concat!(
                r#"{"epoch":2,"version":9,"keys":["","ads.com","quo\"te","#,
                r#""back\\slash\\","\"\\"#,
                "\u{7f}\"]}"
            )
        );
    }
}
