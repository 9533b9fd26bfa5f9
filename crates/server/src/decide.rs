//! The decision endpoints, from a framed request to response bytes.
//!
//! `POST /v1/decisions` and `POST /v1/decisions:batch` are the product's
//! hot path — a verdict lookup sits in front of every network request a
//! page makes — so they are served without building anything on the heap:
//! the query is decoded in place from the request body ([`DecisionQuery`],
//! `BinaryRecords`), decided against the pinned table's preformatted
//! answers, and head and body are appended straight to the connection's
//! output buffer. A string-keyed query (JSON, or a string-form binary
//! record) has its keys looked up level by level only as far as the
//! verdict walk goes, so one settled at its domain costs one key lookup;
//! an id-form record's keys are bounds checks. A body whose length is
//! only known once it is written (a batch, a rewritten URL) is written
//! first and gets its head rotated in front of it; a request that turns
//! out malformed after some of its answer was written has that part
//! truncated away again.

use crate::http::{self, HttpResponse, RequestView};
use crate::wire::{self, BinaryKeys, BinaryRecord, BinaryRecords, DecisionQuery};
use trackersift_engine::frames::{self, FrameError, PROTO_VERSION};
use trackersift_engine::{DecisionRequest, KeyedRequest, PrebuiltDecision, VerdictTable};

const JSON_CONTENT_TYPE: &str = "application/json";

/// Answer one decision request against `table`: `batch` says which of the
/// two endpoints it addressed, its `Content-Type` which protocol it
/// speaks. The complete `200` response — head and body, `Connection`
/// as `keep_alive` says — is appended to `out` and the number of decisions
/// served returned. A request that cannot be answered leaves `out` as it
/// was and returns the error response to render instead.
///
/// This is everything the worker does between framing a decision request
/// and flushing its answer, given the table it pinned; with a warm `out`
/// it allocates nothing unless a decision is a rewrite.
pub fn answer(
    table: &VerdictTable,
    request: &RequestView<'_>,
    batch: bool,
    keep_alive: bool,
    out: &mut Vec<u8>,
) -> Result<u64, HttpResponse> {
    if request.header("content-type") == Some(wire::BINARY_CONTENT_TYPE) {
        decide_binary(table, request, batch, keep_alive, out)
    } else if batch {
        decide_batch(table, request, keep_alive, out)
    } else {
        decide_single(table, request, keep_alive, out)
    }
}

/// The request body as text (→ 400 when it is not UTF-8).
pub(crate) fn body_text<'a>(request: &RequestView<'a>) -> Result<&'a str, HttpResponse> {
    std::str::from_utf8(request.body)
        .map_err(|_| HttpResponse::error(400, "Bad Request", "request body is not valid utf-8"))
}

/// `POST /v1/decisions`, JSON: the hot path — decode the
/// query in place, one pin, one keyed walk, one copy of a preformatted
/// body into the connection buffer. Nothing on it allocates unless the
/// decision is a rewrite; the reported version is the pinned table's.
fn decide_single(
    table: &VerdictTable,
    request: &RequestView<'_>,
    keep_alive: bool,
    out: &mut Vec<u8>,
) -> Result<u64, HttpResponse> {
    let query = DecisionQuery::parse(body_text(request)?)
        .map_err(|error| HttpResponse::error(400, "Bad Request", &error.to_string()))?;
    let prebuilt = table.prebuilt();
    match table.decide_prebuilt(&table.resolve(&query.as_request())) {
        PrebuiltDecision::Fixed(index) => {
            let body = prebuilt.json_single(index);
            http::write_ok_head(out, JSON_CONTENT_TYPE, body.len(), keep_alive);
            out.extend_from_slice(body.as_bytes());
        }
        PrebuiltDecision::Surrogate(sf) => {
            let prefix = prebuilt.json_single_prefix();
            let body_len = prefix.len() + sf.json.len() + 1;
            http::write_ok_head(out, JSON_CONTENT_TYPE, body_len, keep_alive);
            out.extend_from_slice(prefix.as_bytes());
            out.extend_from_slice(sf.json.as_bytes());
            out.push(b'}');
        }
        // The rewritten URL is request-dependent: its decision object
        // is the one encoded at serve time, after the prebuilt version
        // prefix, and its escaped length is only known once written.
        PrebuiltDecision::Rewrite(rewritten) => {
            let body_at = out.len();
            out.extend_from_slice(prebuilt.json_single_prefix().as_bytes());
            frames::write_rewrite_json(out, &rewritten);
            out.push(b'}');
            http::prepend_ok_head(out, body_at, JSON_CONTENT_TYPE, keep_alive);
        }
    }
    Ok(1)
}

/// `POST /v1/decisions:batch`, JSON: rows are decided as they are
/// decoded and their fragments appended to the connection buffer; a
/// body that turns out malformed further on takes them back out.
fn decide_batch(
    table: &VerdictTable,
    request: &RequestView<'_>,
    keep_alive: bool,
    out: &mut Vec<u8>,
) -> Result<u64, HttpResponse> {
    let text = body_text(request)?;
    let prebuilt = table.prebuilt();
    let body_at = out.len();
    out.extend_from_slice(prebuilt.json_batch_prefix().as_bytes());
    let rows_at = out.len();
    let decoded = wire::decode_decision_batch(text, |query| {
        if out.len() > rows_at {
            out.push(b',');
        }
        match table.decide_prebuilt(&table.resolve(&query.as_request())) {
            PrebuiltDecision::Fixed(index) => {
                out.extend_from_slice(prebuilt.json_fragment(index).as_bytes())
            }
            PrebuiltDecision::Surrogate(sf) => out.extend_from_slice(sf.json.as_bytes()),
            PrebuiltDecision::Rewrite(rewritten) => frames::write_rewrite_json(out, &rewritten),
        }
    });
    match decoded {
        Ok(rows) => {
            out.extend_from_slice(b"]}");
            http::prepend_ok_head(out, body_at, JSON_CONTENT_TYPE, keep_alive);
            Ok(rows as u64)
        }
        Err(error) => {
            out.truncate(body_at);
            Err(HttpResponse::error(400, "Bad Request", &error.to_string()))
        }
    }
}

/// The binary decision path for both endpoints; `batch` is the shape
/// the endpoint requires (a mismatched kind byte is a 400). Records
/// are decided as they are decoded, straight into the connection
/// buffer, and taken back out if the frame is refused after all.
fn decide_binary(
    table: &VerdictTable,
    request: &RequestView<'_>,
    batch: bool,
    keep_alive: bool,
    out: &mut Vec<u8>,
) -> Result<u64, HttpResponse> {
    let bad_frame = |error: FrameError| HttpResponse::error(400, "Bad Request", &error.0);
    let mut records = BinaryRecords::new(request.body).map_err(bad_frame)?;
    // Why the frame gets no decisions although it decodes. It is only
    // answered once the whole frame has decoded: a malformed record
    // further on is a 400 first.
    let mut refusal = (records.batch() != batch).then(|| {
        HttpResponse::error(
            400,
            "Bad Request",
            "request kind does not match the endpoint",
        )
    });
    let body_at = out.len();
    if batch {
        out.push(PROTO_VERSION);
        out.extend_from_slice(&table.version().to_le_bytes());
        out.extend_from_slice(&(records.count() as u32).to_le_bytes());
    }
    loop {
        let record = match records.next_record() {
            Ok(Some(record)) => record,
            Ok(None) => break,
            Err(error) => {
                out.truncate(body_at);
                return Err(bad_frame(error));
            }
        };
        if refusal.is_some() {
            continue;
        }
        // Id-form records are only meaningful against the key table the
        // client fetched; a stale epoch must fail loudly, never resolve
        // to someone else's keys.
        if matches!(record.keys, BinaryKeys::Ids { .. }) && records.epoch() != table.keys_epoch() {
            let detail = format!(
                "key epoch {} is stale (current {}); re-fetch /v1/keys",
                records.epoch(),
                table.keys_epoch()
            );
            refusal = Some(HttpResponse::error(409, "Conflict", &detail));
            continue;
        }
        let decision = table.decide_prebuilt(&keyed_of(table, &record));
        if batch {
            write_binary_record(out, table, decision);
        } else {
            write_binary_single(out, table, decision, keep_alive);
        }
    }
    if let Some(response) = refusal {
        out.truncate(body_at);
        return Err(response);
    }
    if batch {
        http::prepend_ok_head(out, body_at, wire::BINARY_CONTENT_TYPE, keep_alive);
    }
    Ok(records.count() as u64)
}

/// Resolve one binary record into the keyed query the table serves.
fn keyed_of<'a>(table: &VerdictTable, record: &BinaryRecord<'a>) -> KeyedRequest<'a> {
    let keyed = match record.keys {
        BinaryKeys::Ids {
            domain,
            hostname,
            script,
            method,
        } => {
            let keys = table.keys();
            KeyedRequest::new(
                keys.key_for_id(domain),
                keys.key_for_id(hostname),
                keys.key_for_id(script),
                keys.key_for_id(method),
            )
        }
        BinaryKeys::Strings {
            domain,
            hostname,
            script,
            method,
        } => table.resolve(&DecisionRequest::new(domain, hostname, script, method)),
    };
    match record.context {
        Some(context) => {
            keyed.with_url(context.url, context.source_hostname, context.resource_type)
        }
        None => keyed,
    }
}

/// Append one decision of a binary batch response: a record header plus
/// the preformatted (surrogate) or serve-time (rewrite) payload.
fn write_binary_record(out: &mut Vec<u8>, table: &VerdictTable, decision: PrebuiltDecision<'_>) {
    match decision {
        PrebuiltDecision::Fixed(index) => {
            let frame = table.prebuilt().binary_single(index);
            out.extend_from_slice(&frames::encode_record_header(frame[1], frame[2], 0));
        }
        PrebuiltDecision::Surrogate(sf) => {
            out.extend_from_slice(&frames::encode_record_header(
                frames::ACTION_SURROGATE,
                frames::SOURCE_NONE,
                sf.binary.len() as u32,
            ));
            out.extend_from_slice(&sf.binary);
        }
        PrebuiltDecision::Rewrite(rewritten) => {
            out.extend_from_slice(&frames::encode_record_header(
                frames::ACTION_REWRITE,
                frames::SOURCE_NONE,
                frames::rewrite_payload_len(&rewritten),
            ));
            frames::write_rewrite_payload(out, &rewritten);
        }
    }
}

/// Append a complete binary single-decision response, head included: every
/// body length is known before a byte of it is written.
fn write_binary_single(
    out: &mut Vec<u8>,
    table: &VerdictTable,
    decision: PrebuiltDecision<'_>,
    keep_alive: bool,
) {
    let mut head = |payload_len: u32| {
        http::write_ok_head(
            out,
            wire::BINARY_CONTENT_TYPE,
            frames::SINGLE_HEADER_LEN + payload_len as usize,
            keep_alive,
        )
    };
    match decision {
        PrebuiltDecision::Fixed(index) => {
            head(0);
            out.extend_from_slice(table.prebuilt().binary_single(index));
        }
        PrebuiltDecision::Surrogate(sf) => {
            let payload_len = sf.binary.len() as u32;
            head(payload_len);
            out.extend_from_slice(&frames::encode_surrogate_single_header(
                table.version(),
                payload_len,
            ));
            out.extend_from_slice(&sf.binary);
        }
        PrebuiltDecision::Rewrite(rewritten) => {
            let payload_len = frames::rewrite_payload_len(&rewritten);
            head(payload_len);
            out.extend_from_slice(&frames::encode_rewrite_single_header(
                table.version(),
                payload_len,
            ));
            frames::write_rewrite_payload(out, &rewritten);
        }
    }
}
