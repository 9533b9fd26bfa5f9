//! A minimal, dependency-free HTTP/1.1 layer for nonblocking sockets.
//!
//! This is deliberately not a general-purpose HTTP implementation — it is
//! exactly the subset a verdict server needs, hardened against hostile
//! input instead of feature-complete:
//!
//! * request line + headers, CRLF-framed, with a hard cap on header bytes
//!   (`MAX_HEADER_BYTES`) so a drip-feeding client cannot balloon memory;
//! * bodies framed by `Content-Length` only, capped by the server config;
//!   `Transfer-Encoding` is refused with `501` rather than half-implemented
//!   (request smuggling lives in that corner);
//! * keep-alive with pipelining (bytes read past one request's body are
//!   kept for the next), `Connection: close` honored both ways;
//! * every malformed input maps to a typed [`RequestError`] and from there
//!   to a 4xx/5xx response — a parse failure must never panic or wedge the
//!   worker that hit it.
//!
//! The parser is **push-based** ([`RequestParser`]): the event loop reads
//! whatever the socket has straight into the parser's buffer and asks for
//! complete requests; "not enough bytes yet" is `Ok(None)`, never a
//! blocking wait. That is what lets one readiness-polled worker multiplex
//! hundreds of connections — no thread is ever parked inside a
//! half-received request. A complete request is handed out as a
//! [`RequestView`] borrowing the parser's buffer, so serving one copies
//! nothing; [`HttpRequest`] is that view copied out for callers that need
//! to keep it.

use std::io::{self, Read};

/// Hard cap on the request line + headers. Generous for machine clients
/// (our own wire format needs well under 1 KiB) while bounding what a
/// hostile client can make a worker buffer.
pub(crate) const MAX_HEADER_BYTES: usize = 16 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method, upper-case as received (`GET`, `POST`, `PUT`, …).
    pub method: String,
    /// Request target (path), exactly as received.
    pub target: String,
    /// `true` for `HTTP/1.1`, `false` for `HTTP/1.0`.
    pub http11: bool,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// One complete request, borrowed from the [`RequestParser`] that framed
/// it — what the worker serves from. Header names are kept as received and
/// compared case-insensitively; values are trimmed.
///
/// ```
/// use trackersift_server::http::RequestParser;
///
/// let mut parser = RequestParser::new();
/// parser.push(
///     b"POST /v1/decisions HTTP/1.1\r\nContent-TYPE: application/json\r\nContent-Length: 2\r\n\r\n{}\
///       GET /healthz HTTP/1.0\r\n\r\n",
/// );
///
/// let request = parser.next_view(4096).unwrap().expect("first request is complete");
/// assert_eq!((request.method, request.target), ("POST", "/v1/decisions"));
/// assert_eq!(request.header("content-type"), Some("application/json"));
/// assert_eq!(request.body, b"{}");
/// assert!(request.keep_alive());
///
/// // The pipelined remainder stays buffered for the next call.
/// let request = parser.next_view(4096).unwrap().expect("second request is complete");
/// assert_eq!(request.target, "/healthz");
/// assert!(!request.keep_alive(), "HTTP/1.0 closes by default");
/// assert!(parser.next_view(4096).unwrap().is_none());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RequestView<'a> {
    /// Request method, upper-case as received (`GET`, `POST`, `PUT`, …).
    pub method: &'a str,
    /// Request target (path), exactly as received.
    pub target: &'a str,
    /// `true` for `HTTP/1.1`, `false` for `HTTP/1.0`.
    pub(crate) http11: bool,
    /// The header lines, CRLF-separated, each checked by the parser to be
    /// `name:value` with a non-empty, space-free name.
    header_lines: &'a str,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: &'a [u8],
}

impl<'a> RequestView<'a> {
    /// The headers in arrival order: name as received, value trimmed.
    pub(crate) fn headers(&self) -> impl Iterator<Item = (&'a str, &'a str)> {
        self.header_lines
            .split("\r\n")
            .filter_map(|line| line.split_once(':'))
            .map(|(name, value)| (name, value.trim()))
    }

    /// First header with the given name, compared case-insensitively.
    pub fn header(&self, name: &str) -> Option<&'a str> {
        // Names are compared where they stand; only the match is split
        // from its value and trimmed.
        self.header_lines
            .split("\r\n")
            .find(|line| {
                line.len() > name.len()
                    && line.as_bytes()[name.len()] == b':'
                    && line.as_bytes()[..name.len()].eq_ignore_ascii_case(name.as_bytes())
            })
            .map(|line| line[name.len() + 1..].trim())
    }

    /// Whether the connection should stay open after the response:
    /// `close` among the comma-separated `Connection` tokens closes,
    /// otherwise `keep-alive` keeps, otherwise the protocol version decides
    /// (HTTP/1.1 keeps, HTTP/1.0 closes). Tokens compare whole and
    /// case-insensitively — `enclose` is not `close`.
    pub fn keep_alive(&self) -> bool {
        let connection = self.header("connection");
        let has = |token: &str| {
            connection.is_some_and(|value| {
                value
                    .split(',')
                    .any(|candidate| candidate.trim().eq_ignore_ascii_case(token))
            })
        };
        if has("close") {
            false
        } else {
            has("keep-alive") || self.http11
        }
    }

    /// Copy the request out of the parser's buffer.
    fn to_owned(self) -> HttpRequest {
        HttpRequest {
            method: self.method.to_string(),
            target: self.target.to_string(),
            http11: self.http11,
            headers: self
                .headers()
                .map(|(name, value)| (name.to_ascii_lowercase(), value.to_string()))
                .collect(),
            body: self.body.to_vec(),
        }
    }
}

/// Why parsing one request failed.
#[derive(Debug)]
pub enum RequestError {
    /// Syntactically invalid request (→ `400`).
    Malformed(String),
    /// `Content-Length` that is not `1*DIGIT` fitting in `usize` — covers
    /// signs, empty values, garbage, and values overflowing the platform
    /// integer (→ `400`).
    BadContentLength(String),
    /// More than one `Content-Length` header — the request-smuggling
    /// ambiguity, rejected even when the duplicates agree (→ `400`).
    DuplicateContentLength,
    /// Request line + headers exceed `MAX_HEADER_BYTES` (→ `431`).
    HeadersTooLarge,
    /// Declared body exceeds the configured cap (→ `413`).
    BodyTooLarge,
    /// `Transfer-Encoding` framing we refuse to guess about (→ `501`).
    UnsupportedTransfer,
}

impl RequestError {
    /// The response this error maps to.
    pub(crate) fn response(&self) -> HttpResponse {
        match self {
            RequestError::Malformed(detail) => HttpResponse::error(400, "Bad Request", detail),
            RequestError::BadContentLength(value) => {
                HttpResponse::error(400, "Bad Request", &format!("bad content-length {value:?}"))
            }
            RequestError::DuplicateContentLength => {
                HttpResponse::error(400, "Bad Request", "duplicate content-length headers")
            }
            RequestError::HeadersTooLarge => HttpResponse::error(
                431,
                "Request Header Fields Too Large",
                "request line + headers exceed the server limit",
            ),
            RequestError::BodyTooLarge => HttpResponse::error(
                413,
                "Payload Too Large",
                "request body exceeds the configured limit",
            ),
            RequestError::UnsupportedTransfer => HttpResponse::error(
                501,
                "Not Implemented",
                "transfer-encoding is not supported; send content-length",
            ),
        }
    }
}

/// One HTTP response about to be written.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub(crate) status: u16,
    /// Reason phrase.
    pub(crate) reason: &'static str,
    /// `Content-Type` header value.
    pub(crate) content_type: &'static str,
    /// Response body.
    pub(crate) body: Vec<u8>,
    /// Force `Connection: close` regardless of the request's preference.
    pub(crate) close: bool,
    /// Emit a `Retry-After: <seconds>` header (load-shedding responses).
    pub(crate) retry_after: Option<u32>,
}

impl HttpResponse {
    /// A `200 OK` JSON response.
    pub fn json(body: String) -> Self {
        HttpResponse {
            status: 200,
            reason: "OK",
            content_type: "application/json",
            body: body.into_bytes(),
            close: false,
            retry_after: None,
        }
    }

    /// A `200 OK` plain-text response.
    pub(crate) fn text(body: &str) -> Self {
        HttpResponse {
            status: 200,
            reason: "OK",
            content_type: "text/plain",
            body: body.as_bytes().to_vec(),
            close: false,
            retry_after: None,
        }
    }

    /// A `200 OK` response with an arbitrary (binary) body.
    pub fn bytes(content_type: &'static str, body: Vec<u8>) -> Self {
        HttpResponse {
            status: 200,
            reason: "OK",
            content_type,
            body,
            close: false,
            retry_after: None,
        }
    }

    /// An error response carrying `{"error": detail}`; errors always close
    /// the connection (a client that sent garbage has lost framing sync).
    pub(crate) fn error(status: u16, reason: &'static str, detail: &str) -> Self {
        let body = trackersift_json::object(vec![(
            "error",
            trackersift_json::Value::String(detail.to_string()),
        )])
        .render();
        HttpResponse {
            status,
            reason,
            content_type: "application/json",
            body: body.into_bytes(),
            close: status >= 400,
            retry_after: None,
        }
    }

    /// A `503 Service Unavailable` load-shed response with a `Retry-After`
    /// hint in seconds — the typed overload signal of the admission
    /// controller. Shed responses keep the connection open when `close` is
    /// `false`: a polite client backs off and reuses the connection rather
    /// than paying a reconnect against an already-loaded server.
    pub(crate) fn shed(retry_after: u32, detail: &str, close: bool) -> Self {
        let body = trackersift_json::object(vec![
            ("error", trackersift_json::Value::String(detail.to_string())),
            (
                "retry_after",
                trackersift_json::Value::number_u64(u64::from(retry_after)),
            ),
        ])
        .render();
        HttpResponse {
            status: 503,
            reason: "Service Unavailable",
            content_type: "application/json",
            body: body.into_bytes(),
            close,
            retry_after: Some(retry_after),
        }
    }

    /// Serialise the response into an output buffer (the event loop's
    /// per-connection write queue). Returns whether the connection stays
    /// open afterwards.
    pub fn render_into(&self, out: &mut Vec<u8>, request_keep_alive: bool) -> bool {
        let keep_alive = request_keep_alive && !self.close;
        write_head(
            out,
            self.status,
            self.reason,
            self.content_type,
            self.body.len(),
            self.retry_after,
            keep_alive,
        );
        out.extend_from_slice(&self.body);
        keep_alive
    }
}

/// Append a response head — status line, `Content-Type`, `Content-Length`,
/// optional `Retry-After`, `Connection` — formatting the integers in place:
/// the one head writer behind [`HttpResponse::render_into`] and the
/// decision endpoints, which render straight into the connection buffer.
pub(crate) fn write_head(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    content_type: &str,
    content_length: usize,
    retry_after: Option<u32>,
    keep_alive: bool,
) {
    out.extend_from_slice(b"HTTP/1.1 ");
    write_decimal(out, u64::from(status));
    out.push(b' ');
    out.extend_from_slice(reason.as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: ");
    out.extend_from_slice(content_type.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    write_decimal(out, content_length as u64);
    if let Some(seconds) = retry_after {
        out.extend_from_slice(b"\r\nRetry-After: ");
        write_decimal(out, u64::from(seconds));
    }
    out.extend_from_slice(if keep_alive {
        b"\r\nConnection: keep-alive\r\n\r\n".as_slice()
    } else {
        b"\r\nConnection: close\r\n\r\n".as_slice()
    });
}

/// The head of a `200 OK` with no `Retry-After`.
pub(crate) fn write_ok_head(
    out: &mut Vec<u8>,
    content_type: &str,
    content_length: usize,
    keep_alive: bool,
) {
    write_head(
        out,
        200,
        "OK",
        content_type,
        content_length,
        None,
        keep_alive,
    );
}

fn write_decimal(out: &mut Vec<u8>, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Put a `200 OK` head in front of the body already rendered at
/// `out[body_at..]` — for bodies whose length is only known once they are
/// written (batches, rewritten URLs). The head is appended after the body
/// and rotated in front of it, so nothing is staged in a second buffer.
pub(crate) fn prepend_ok_head(
    out: &mut Vec<u8>,
    body_at: usize,
    content_type: &str,
    keep_alive: bool,
) {
    let head_at = out.len();
    write_ok_head(out, content_type, head_at - body_at, keep_alive);
    let head_len = out.len() - head_at;
    out[body_at..].rotate_right(head_len);
}

/// What an idle connection buffer may keep allocated. Buffers grow to the
/// largest request or response they ever held; without a bound one large
/// snapshot transfer would pin megabytes for the rest of a keep-alive
/// connection's life.
pub(crate) const RETAINED_BUFFER_BYTES: usize = 64 * 1024;

/// Give back what a connection buffer holds beyond
/// [`RETAINED_BUFFER_BYTES`] (call once it has been emptied).
pub(crate) fn release_excess(buffer: &mut Vec<u8>) {
    if buffer.capacity() > RETAINED_BUFFER_BYTES {
        buffer.truncate(RETAINED_BUFFER_BYTES);
        buffer.shrink_to(RETAINED_BUFFER_BYTES);
    }
}

/// The least room [`RequestParser::read_from`] offers a read: a whole
/// maximal head, and several pipelined decision requests, in one call.
const MIN_READ_BYTES: usize = MAX_HEADER_BYTES;

/// A parsed request head, as offsets from the start of its request (so it
/// stays valid when the buffer is compacted while the body arrives).
#[derive(Debug, Clone, Copy)]
struct Head {
    /// The method is `[..method_end]`, the target `[method_end + 1..target_end]`.
    method_end: usize,
    target_end: usize,
    http11: bool,
    /// The header lines are `[lines_at..head_end]`.
    lines_at: usize,
    /// Offset of the `\r\n\r\n` terminator; the body starts 4 bytes on.
    head_end: usize,
    content_length: usize,
}

impl Head {
    /// Length of the whole request, head, terminator and body.
    fn request_len(&self) -> usize {
        self.head_end + 4 + self.content_length
    }
}

/// The push-based request parser one connection owns: the event loop
/// fills it (`read_from`, or
/// [`push`](RequestParser::push) for bytes already in hand) and takes
/// complete requests out with [`next_view`](RequestParser::next_view) —
/// which never blocks and never does I/O. Bytes past one request's body
/// stay buffered for the next (pipelining); handing a request out only
/// advances a cursor, and the consumed prefix is dropped once per fill,
/// not once per request.
#[derive(Debug, Default)]
pub struct RequestParser {
    /// Storage, initialised throughout so a read can land in its tail; the
    /// unconsumed bytes are `buffer[start..end]`.
    buffer: Vec<u8>,
    start: usize,
    end: usize,
    /// How far past `start` the head-terminator scan has advanced (so
    /// repeated calls on a slowly arriving head stay linear, not
    /// quadratic).
    scanned: usize,
    /// The head of the request at `start`, parsed while its body is still
    /// arriving.
    pending: Option<Head>,
}

impl RequestParser {
    /// A parser with nothing buffered.
    pub fn new() -> Self {
        RequestParser::default()
    }

    /// Drop the consumed prefix and make room for `extra` more bytes.
    fn make_room(&mut self, extra: usize) {
        if self.start > 0 {
            self.buffer.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.end == 0 {
                release_excess(&mut self.buffer);
            }
        }
        let needed = self.end + extra;
        if self.buffer.len() < needed {
            self.buffer.resize(needed.max(self.buffer.len() * 2), 0);
        }
    }

    /// Feed bytes read off the connection.
    pub fn push(&mut self, bytes: &[u8]) {
        self.make_room(bytes.len());
        self.buffer[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Read once from `source` straight into the buffer; returns what the
    /// read returned (`Ok(0)` is end of stream). Room is offered for the
    /// rest of a body whose head announced it, and never less than
    /// a whole maximal head.
    pub(crate) fn read_from(&mut self, source: &mut impl Read) -> io::Result<usize> {
        let missing = self.pending.map_or(0, |head| {
            head.request_len().saturating_sub(self.end - self.start)
        });
        self.make_room(missing.max(MIN_READ_BYTES));
        let read = source.read(&mut self.buffer[self.end..])?;
        self.end += read;
        Ok(read)
    }

    /// Whether the parser holds a partial request (buffered bytes or a
    /// head still waiting for its body) — at EOF this distinguishes a
    /// clean close from a truncated request.
    pub(crate) fn mid_request(&self) -> bool {
        self.pending.is_some() || self.start < self.end
    }

    /// Discard everything buffered (after an error response the client has
    /// lost framing sync; any pipelined remainder is garbage).
    pub(crate) fn reset(&mut self) {
        self.start = 0;
        self.end = 0;
        self.scanned = 0;
        self.pending = None;
        release_excess(&mut self.buffer);
    }

    /// The next complete request copied out of the buffer — see
    /// [`next_view`](RequestParser::next_view), which this wraps.
    pub fn next(&mut self, max_body_bytes: usize) -> Result<Option<HttpRequest>, RequestError> {
        Ok(self
            .next_view(max_body_bytes)?
            .map(|request| request.to_owned()))
    }

    /// The next complete request, borrowed from the buffer; `Ok(None)`
    /// when more bytes are needed, or a typed error for hostile input.
    /// After an error the parser must be reset
    /// (the connection is closed anyway).
    pub fn next_view(
        &mut self,
        max_body_bytes: usize,
    ) -> Result<Option<RequestView<'_>>, RequestError> {
        let head = match self.pending.take() {
            Some(head) => head,
            None => match self.parse_head(max_body_bytes)? {
                Some(head) => head,
                None => return Ok(None),
            },
        };
        if self.end - self.start < head.request_len() {
            self.pending = Some(head);
            return Ok(None);
        }
        let request = &self.buffer[self.start..self.start + head.request_len()];
        self.start += head.request_len();
        self.scanned = 0;
        let text = std::str::from_utf8(&request[..head.head_end])
            .expect("parse_head validated the head as utf-8");
        Ok(Some(RequestView {
            method: &text[..head.method_end],
            target: &text[head.method_end + 1..head.target_end],
            http11: head.http11,
            header_lines: &text[head.lines_at..],
            body: &request[head.head_end + 4..],
        }))
    }

    /// Try to parse the head of the request at `start`; `Ok(None)` until
    /// its terminator has arrived.
    fn parse_head(&mut self, max_body_bytes: usize) -> Result<Option<Head>, RequestError> {
        let unconsumed = &self.buffer[self.start..self.end];
        // Resume the terminator scan where the last one stopped (backing
        // up 3 bytes in case the marker straddles the old boundary).
        let from = self.scanned.saturating_sub(3);
        let Some(head_end) = find_terminator(&unconsumed[from..]).map(|at| from + at) else {
            if unconsumed.len() > MAX_HEADER_BYTES {
                return Err(RequestError::HeadersTooLarge);
            }
            self.scanned = unconsumed.len();
            return Ok(None);
        };
        if head_end > MAX_HEADER_BYTES {
            return Err(RequestError::HeadersTooLarge);
        }

        let head = std::str::from_utf8(&unconsumed[..head_end])
            .map_err(|_| RequestError::Malformed("request head is not valid utf-8".into()))?;
        let mut lines = head.split("\r\n");
        let request_line = lines
            .next()
            .ok_or_else(|| RequestError::Malformed("empty request".into()))?;
        let mut parts = request_line.split(' ');
        let (method, target, version) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(method), Some(target), Some(version), None)
                    if !method.is_empty() && !target.is_empty() =>
                {
                    (method, target, version)
                }
                _ => {
                    return Err(RequestError::Malformed(format!(
                        "malformed request line {request_line:?}"
                    )))
                }
            };
        let http11 = match version {
            "HTTP/1.1" => true,
            "HTTP/1.0" => false,
            other => {
                return Err(RequestError::Malformed(format!(
                    "unsupported protocol {other:?}"
                )))
            }
        };
        let mut transfer_encoding = false;
        let mut content_lengths = 0usize;
        let mut content_length = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(RequestError::Malformed(format!(
                    "malformed header line {line:?}"
                )));
            };
            if name.is_empty() || name.contains(' ') {
                return Err(RequestError::Malformed(format!(
                    "malformed header name {name:?}"
                )));
            }
            if name.eq_ignore_ascii_case("transfer-encoding") {
                transfer_encoding = true;
            } else if name.eq_ignore_ascii_case("content-length") {
                content_lengths += 1;
                content_length.get_or_insert(value.trim());
            }
        }
        if transfer_encoding {
            return Err(RequestError::UnsupportedTransfer);
        }
        // Ambiguous body framing is the request-smuggling vector: a front
        // proxy honoring one Content-Length while we honor another desyncs
        // the connection. Any duplicate is rejected outright (RFC 9112
        // §6.3 requires rejecting differing values; identical duplicates
        // buy a client nothing).
        if content_lengths > 1 {
            return Err(RequestError::DuplicateContentLength);
        }
        let content_length = match content_length {
            // A conforming front proxy rejects what `parse_digits` rejects:
            // another framing ambiguity, refused like the rest.
            Some(value) => parse_digits::<usize>(value)
                .ok_or_else(|| RequestError::BadContentLength(value.to_string()))?,
            None => 0,
        };
        if content_length > max_body_bytes {
            return Err(RequestError::BodyTooLarge);
        }
        Ok(Some(Head {
            method_end: method.len(),
            target_end: method.len() + 1 + target.len(),
            http11,
            lines_at: (request_line.len() + 2).min(head_end),
            head_end,
            content_length,
        }))
    }
}

/// Parse a `1*DIGIT` unsigned integer (RFC 9112's Content-Length grammar,
/// shared by the version numbers in query strings). `from_str` alone would
/// also accept forms like `+17`; empty text is refused, and so are
/// all-digit values that overflow `T`: no number we cannot represent is
/// servable.
pub(crate) fn parse_digits<T: std::str::FromStr>(text: &str) -> Option<T> {
    if text.is_empty() || !text.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    text.parse().ok()
}

/// Offset of the `\r\n\r\n` head terminator, if present.
fn find_terminator(buffer: &[u8]) -> Option<usize> {
    buffer.windows(4).position(|window| window == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8]) -> Result<Vec<HttpRequest>, RequestError> {
        let mut parser = RequestParser::new();
        parser.push(bytes);
        let mut requests = Vec::new();
        while let Some(request) = parser.next(4096)? {
            requests.push(request);
        }
        Ok(requests)
    }

    #[test]
    fn terminator_is_found_only_when_complete() {
        assert_eq!(find_terminator(b"GET / HTTP/1.1\r\n\r\n"), Some(14));
        assert_eq!(find_terminator(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(find_terminator(b""), None);
    }

    #[test]
    fn parser_assembles_requests_incrementally() {
        let wire = b"POST /v1/decisions HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        let mut parser = RequestParser::new();
        // Feed one byte at a time; the request completes exactly at the end.
        for (at, byte) in wire.iter().enumerate() {
            parser.push(std::slice::from_ref(byte));
            let parsed = parser.next(4096).expect("prefix never errors");
            if at + 1 < wire.len() {
                assert!(parsed.is_none(), "complete after {} bytes?", at + 1);
                assert!(parser.mid_request());
            } else {
                let request = parsed.expect("complete at final byte");
                assert_eq!(request.method, "POST");
                assert_eq!(request.body, b"body");
                assert!(!parser.mid_request());
            }
        }
    }

    #[test]
    fn pipelined_requests_drain_in_order() {
        let requests = parse_all(
            b"GET /healthz HTTP/1.1\r\n\r\nPOST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi",
        )
        .expect("both requests valid");
        assert_eq!(requests.len(), 2);
        assert_eq!(requests[0].target, "/healthz");
        assert_eq!(requests[1].body, b"hi");
    }

    #[test]
    fn hostile_content_lengths_map_to_typed_errors() {
        let overflow = format!("GET / HTTP/1.1\r\nContent-Length: {}0\r\n\r\n", usize::MAX);
        assert!(matches!(
            parse_all(overflow.as_bytes()),
            Err(RequestError::BadContentLength(_))
        ));
        assert!(matches!(
            parse_all(b"GET / HTTP/1.1\r\nContent-Length: +17\r\n\r\n"),
            Err(RequestError::BadContentLength(_))
        ));
        assert!(matches!(
            parse_all(b"GET / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi"),
            Err(RequestError::DuplicateContentLength)
        ));
    }

    #[test]
    fn keep_alive_compares_whole_connection_tokens() {
        let keep_alive = |version: &str, connection: Option<&str>| {
            let header = connection.map_or(String::new(), |v| format!("Connection: {v}\r\n"));
            let wire = format!("GET / {version}\r\n{header}\r\n");
            let mut parser = RequestParser::new();
            parser.push(wire.as_bytes());
            let view = parser.next_view(0).unwrap().expect("complete request");
            view.keep_alive()
        };
        assert!(!keep_alive("HTTP/1.1", Some("close")));
        assert!(!keep_alive("HTTP/1.1", Some("CLOSE")));
        assert!(!keep_alive("HTTP/1.1", Some("keep-alive, close")));
        assert!(keep_alive("HTTP/1.0", Some("Keep-Alive")));
        assert!(keep_alive("HTTP/1.0", Some("keep-alive, Upgrade")));
        assert!(keep_alive("HTTP/1.0", Some("Upgrade ,  keep-alive")));
        // A token merely containing `close` / `keep-alive` is neither.
        assert!(keep_alive("HTTP/1.1", Some("enclose")));
        assert!(!keep_alive("HTTP/1.0", Some("enclose")));
        assert!(!keep_alive("HTTP/1.0", Some("not-keep-alive-at-all")));
        // No header: the protocol version decides.
        assert!(keep_alive("HTTP/1.1", None));
        assert!(!keep_alive("HTTP/1.0", None));
    }

    #[test]
    fn views_and_owned_requests_agree() {
        let wire = b"PUT /v1/snapshot?x=1 HTTP/1.0\r\nX-One:  a b \r\nx-one: second\r\nContent-Length:3\r\n\r\nabcGET";
        let mut parser = RequestParser::new();
        parser.push(wire);
        let view = parser.next_view(16).unwrap().expect("complete request");
        assert_eq!((view.method, view.target), ("PUT", "/v1/snapshot?x=1"));
        assert!(!view.http11);
        assert_eq!(view.header("X-ONE"), Some("a b"), "first header wins");
        assert_eq!(view.header("content-length"), Some("3"));
        assert_eq!(view.header("x-two"), None);
        assert_eq!(view.body, b"abc");
        let owned = view.to_owned();
        assert_eq!(
            (owned.method.as_str(), owned.target.as_str()),
            (view.method, view.target)
        );
        assert_eq!(
            owned.headers,
            vec![
                ("x-one".to_string(), "a b".to_string()),
                ("x-one".to_string(), "second".to_string()),
                ("content-length".to_string(), "3".to_string()),
            ]
        );
        assert_eq!(owned.body, view.body);
        // The pipelined remainder is a partial request.
        assert!(parser.next_view(16).unwrap().is_none());
        assert!(parser.mid_request());
    }

    #[test]
    fn a_pipelined_flight_is_parsed_by_moving_a_cursor() {
        const REQUESTS: usize = 4096;
        let one = b"POST /v1/decisions HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        let mut parser = RequestParser::new();
        // A stale consumed prefix, so the push below has something to drop.
        parser.push(one);
        assert!(parser.next_view(4096).unwrap().is_some());
        assert_eq!(parser.start, one.len());

        parser.push(&one.repeat(REQUESTS));
        // The one compaction of this fill happened in `push`...
        assert_eq!((parser.start, parser.end), (0, one.len() * REQUESTS));
        let storage = parser.buffer.as_ptr();
        for served in 1..=REQUESTS {
            let request = parser.next_view(4096).unwrap().expect("complete request");
            assert_eq!(request.body, b"body");
            // ...and handing requests out moves nothing: the cursor
            // advances over bytes that stay where they were read.
            assert_eq!(parser.start, one.len() * served);
            assert_eq!(parser.end, one.len() * REQUESTS);
        }
        assert_eq!(parser.buffer.as_ptr(), storage);
        assert!(parser.next_view(4096).unwrap().is_none());
        assert!(!parser.mid_request());
    }

    #[test]
    fn reads_land_in_the_parser_and_split_bodies_resume() {
        let wire =
            b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123456789GET /y HTTP/1.1\r\n\r\n";
        // A source that hands out 7 bytes per read.
        struct Drip<'a>(&'a [u8]);
        impl Read for Drip<'_> {
            fn read(&mut self, buffer: &mut [u8]) -> io::Result<usize> {
                assert!(buffer.len() >= MIN_READ_BYTES, "every read is offered room");
                let n = self.0.len().min(7);
                buffer[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let mut source = Drip(wire);
        let mut parser = RequestParser::new();
        let mut targets = Vec::new();
        while parser.read_from(&mut source).unwrap() > 0 {
            while let Some(request) = parser.next_view(64).unwrap() {
                if request.target == "/x" {
                    assert_eq!(request.body, b"0123456789");
                }
                targets.push(request.target.to_string());
            }
        }
        assert_eq!(targets, ["/x", "/y"]);
        assert!(!parser.mid_request());
    }

    #[test]
    fn an_emptied_parser_gives_back_a_large_bodys_storage() {
        let body = vec![b'x'; 1024 * 1024];
        let mut parser = RequestParser::new();
        parser.push(
            format!(
                "PUT /v1/snapshot HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        );
        parser.push(&body);
        assert!(parser.buffer.capacity() > body.len());
        let request = parser
            .next_view(body.len())
            .unwrap()
            .expect("complete request");
        assert_eq!(request.body.len(), body.len());
        // The next fill finds the parser empty and releases the excess.
        parser.push(b"GET /healthz HTTP/1.1\r\n\r\n");
        assert!(parser.buffer.capacity() <= RETAINED_BUFFER_BYTES);
        let request = parser.next_view(0).unwrap().expect("complete request");
        assert_eq!(request.target, "/healthz");

        // So does a reset (the error path), and small buffers are left alone.
        parser.push(&body);
        parser.reset();
        assert!(parser.buffer.capacity() <= RETAINED_BUFFER_BYTES);
        let mut small = Vec::with_capacity(1024);
        release_excess(&mut small);
        assert_eq!(small.capacity(), 1024);
    }

    #[test]
    fn heads_render_like_the_format_string_they_replaced() {
        for (status, reason, length, retry_after, keep_alive) in [
            (200u16, "OK", 0usize, None, true),
            (200, "OK", 12_345_678, None, false),
            (503, "Service Unavailable", 42, Some(7u32), true),
            (410, "Gone", usize::MAX, Some(u32::MAX), false),
        ] {
            let mut out = b"previous".to_vec();
            write_head(
                &mut out,
                status,
                reason,
                "text/plain",
                length,
                retry_after,
                keep_alive,
            );
            let retry = retry_after.map_or(String::new(), |s| format!("Retry-After: {s}\r\n"));
            let connection = if keep_alive { "keep-alive" } else { "close" };
            let expected = format!(
                "previousHTTP/1.1 {status} {reason}\r\nContent-Type: text/plain\r\nContent-Length: {length}\r\n{retry}Connection: {connection}\r\n\r\n"
            );
            assert_eq!(String::from_utf8(out).unwrap(), expected);
        }
        // A head put in front of a body written first leaves what precedes
        // the body alone.
        let mut out = b"previous".to_vec();
        out.extend_from_slice(b"{\"late\":true}");
        prepend_ok_head(&mut out, 8, "application/json", true);
        let mut expected = b"previous".to_vec();
        HttpResponse::json("{\"late\":true}".to_string()).render_into(&mut expected, true);
        assert_eq!(out, expected);
    }

    #[test]
    fn error_responses_cover_every_client_fault() {
        assert_eq!(RequestError::Malformed("x".into()).response().status, 400);
        assert_eq!(
            RequestError::BadContentLength("1e9".into())
                .response()
                .status,
            400
        );
        assert_eq!(RequestError::DuplicateContentLength.response().status, 400);
        assert_eq!(RequestError::HeadersTooLarge.response().status, 431);
        assert_eq!(RequestError::BodyTooLarge.response().status, 413);
        assert_eq!(RequestError::UnsupportedTransfer.response().status, 501);
    }
}
