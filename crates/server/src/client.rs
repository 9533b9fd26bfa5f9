//! A minimal HTTP/1.1 client over a raw [`TcpStream`] — the one
//! implementation the integration tests, the fuzz suite, and
//! `bench_server` all drive the server with, so the wire framing is
//! parsed in exactly one place on the client side too.
//!
//! [`Client`] is a *testing and benchmarking* utility, not a production
//! client: transport failures and malformed responses panic with context
//! instead of returning errors, because in every intended caller a broken
//! response IS the test failure. For callers that need to survive a
//! flaky or overloaded server, [`RetryingClient`] wraps the same wire
//! framing in per-request timeouts and jittered exponential-backoff
//! retries that honor the server's `Retry-After` shed hint, bounded by a
//! lifetime retry budget so a dying server is never hammered forever.

use crate::wire::{self, BinaryRecord};
use filterlist::FilterEngine;
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use trackersift_engine::frames;
use trackersift_engine::{
    ApplyError, Decision, DeltaSnapshot, FollowerState, UrlRewriter, VerdictRevision, VerdictTable,
};
use trackersift_json::Value;

/// The client half of the `GET /v1/keys` interning handshake: the server's
/// key strings mapped back to their dense `u32` ids, scoped by the epoch
/// they were fetched under. Hot clients resolve their strings through this
/// once and then send id-form binary records (four `u32`s instead of four
/// length-prefixed strings per record).
#[derive(Debug)]
pub struct KeyTable {
    /// The key epoch the ids are valid under; sent back with every
    /// id-form request so a restored table rejects stale ids with `409`.
    pub epoch: u64,
    /// The published table version at fetch time.
    pub version: u64,
    ids: HashMap<String, u32>,
}

impl KeyTable {
    /// The interned id for a key string, if the server knows it.
    pub fn id_of(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the server had no interned keys at all.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Why a typed revision fetch ([`Client::fetch_revisions`],
/// [`Client::fetch_revision_diff`]) failed. Unlike the panicking decision
/// helpers, the revision helpers return errors: drift consumers poll
/// revision ranges that legitimately fall out of the bounded ring (`404`)
/// or get inverted by operator typos (`400`), and both deserve a typed
/// answer instead of a panic.
#[derive(Debug)]
pub enum RevisionFetchError {
    /// The server answered with a non-200 status; the body detail is kept.
    Status(u16, String),
    /// The exchange failed at the transport layer.
    Transport(io::Error),
    /// The body did not decode as the expected binary frame.
    Malformed(String),
}

impl fmt::Display for RevisionFetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RevisionFetchError::Status(status, detail) => {
                write!(f, "server answered {status}: {detail}")
            }
            RevisionFetchError::Transport(error) => write!(f, "transport failed: {error}"),
            RevisionFetchError::Malformed(detail) => {
                write!(f, "malformed revision body: {detail}")
            }
        }
    }
}

impl std::error::Error for RevisionFetchError {}

/// The one header every typed fetch adds: Rust callers read the binary
/// framing of [`trackersift_engine::frames`]; the JSON documents the same
/// endpoints serve without it are for inspection.
const ACCEPT_BINARY: Option<(&str, &str)> = Some(("Accept", wire::BINARY_CONTENT_TYPE));

fn malformed(error: impl fmt::Display) -> RevisionFetchError {
    RevisionFetchError::Malformed(error.to_string())
}

/// The body of a response whose status is one of `accepted`.
fn body_of(response: RawResponse, accepted: &[u16]) -> Result<Vec<u8>, RevisionFetchError> {
    if !accepted.contains(&response.status) {
        return Err(RevisionFetchError::Status(
            response.status,
            String::from_utf8_lossy(&response.body).into_owned(),
        ));
    }
    Ok(response.body)
}

/// Decode the answer to a binary `GET /v1/snapshot?since=v`. The `200`
/// delta and the `410 Gone` full envelope share one frame layout, so both
/// decode here and [`DeltaSnapshot::is_full`] tells them apart; any other
/// status is a [`RevisionFetchError::Status`].
fn snapshot_of(response: RawResponse) -> Result<DeltaSnapshot, RevisionFetchError> {
    let body = body_of(response, &[200, 410])?;
    frames::decode_delta_snapshot(&body).map_err(malformed)
}

/// One fully read response from the non-panicking request path.
#[derive(Debug)]
pub struct RawResponse {
    /// HTTP status code.
    pub status: u16,
    /// The server's `Retry-After` hint in seconds, present on shed
    /// (`503`) responses.
    pub retry_after: Option<u32>,
    /// The response body.
    pub(crate) body: Vec<u8>,
}

/// A keep-alive HTTP/1.1 client connection.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a server (no-delay, 10s read timeout).
    ///
    /// # Panics
    /// Panics if the connection cannot be established — see the
    /// [module docs](self) for why this client panics instead of erroring.
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to verdict server");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set client read timeout");
        // One write per request below, plus no-delay: without this, the
        // Nagle + delayed-ACK interaction adds ~40ms to every request.
        stream.set_nodelay(true).expect("set client nodelay");
        Client { stream }
    }

    /// Connect with a bounded connect timeout, returning errors instead of
    /// panicking — the entry point for callers that must survive a server
    /// that is down or refusing connections.
    pub fn try_connect(addr: SocketAddr, connect_timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Bound every subsequent read *and* write on this connection (`None`
    /// blocks forever). A request that exceeds the bound fails with
    /// `WouldBlock`/`TimedOut` instead of hanging its caller.
    fn set_request_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    /// Issue one request and read the full response; returns
    /// `(status, body)`. The connection stays open (keep-alive).
    ///
    /// # Panics
    /// Panics on transport failure or a malformed response.
    pub fn request(&mut self, method: &str, target: &str, body: Option<&str>) -> (u16, String) {
        let (status, body) =
            self.request_bytes(method, target, None, body.unwrap_or("").as_bytes());
        (
            status,
            String::from_utf8(body).expect("utf-8 response body"),
        )
    }

    /// Issue one request with an arbitrary body (and optional
    /// `Content-Type`) and read the full response as raw bytes — the
    /// transport for the binary protocol. The connection stays open.
    ///
    /// # Panics
    /// Panics on transport failure or a malformed response.
    pub fn request_bytes(
        &mut self,
        method: &str,
        target: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) -> (u16, Vec<u8>) {
        match self.try_request_bytes(method, target, content_type, body) {
            Ok(response) => (response.status, response.body),
            Err(error) => panic!("exchange with the verdict server: {error}"),
        }
    }

    /// Complete the key-interning handshake: fetch `GET /v1/keys` and
    /// build the string → id table for id-form binary requests.
    ///
    /// # Panics
    /// Panics on transport failure or a malformed reply.
    pub fn fetch_keys(&mut self) -> KeyTable {
        let (status, body) = self.request("GET", "/v1/keys", None);
        assert_eq!(status, 200, "GET /v1/keys failed: {body}");
        let value = Value::parse(&body).expect("parse /v1/keys reply");
        let epoch = value
            .field("epoch")
            .and_then(|epoch| epoch.as_u64())
            .expect("keys epoch");
        let version = value
            .field("version")
            .and_then(|version| version.as_u64())
            .expect("keys version");
        let keys = value
            .field("keys")
            .and_then(|keys| keys.as_array())
            .expect("keys array");
        let mut ids = HashMap::with_capacity(keys.len());
        for (id, key) in keys.iter().enumerate() {
            ids.insert(key.as_str().expect("key string").to_string(), id as u32);
        }
        KeyTable {
            epoch,
            version,
            ids,
        }
    }

    /// Fetch the published revision ring (`GET /v1/revisions`); returns
    /// the table version and the ring, oldest first.
    pub fn fetch_revisions(&mut self) -> Result<(u64, Vec<VerdictRevision>), RevisionFetchError> {
        let body = body_of(self.get_binary("/v1/revisions")?, &[200])?;
        frames::decode_revision_list(&body).map_err(malformed)
    }

    /// Fetch the drift between two published versions
    /// (`GET /v1/revisions?diff=from..to`) as the revision over that span;
    /// the frame does not carry the plans it touched. An inverted range
    /// surfaces as [`RevisionFetchError::Status`] with `400`, a range whose
    /// ends are not span boundaries of the bounded ring as `404`.
    pub fn fetch_revision_diff(
        &mut self,
        from: u64,
        to: u64,
    ) -> Result<VerdictRevision, RevisionFetchError> {
        let target = format!("/v1/revisions?diff={from}..{to}");
        let body = body_of(self.get_binary(&target)?, &[200])?;
        frames::decode_revision_diff(&body).map_err(malformed)
    }

    /// Fetch the net class changes and touched surrogate plans since
    /// published version `since`
    /// (`GET /v1/snapshot?since=v`). Both a `200` (delta) and a
    /// `410 Gone` (the baseline aged out of the bounded ring; the body is
    /// a full snapshot envelope) decode into a [`DeltaSnapshot`] and
    /// return `Ok` — [`DeltaSnapshot::is_full`] tells which arrived, and
    /// a full one means the follower must re-bootstrap. Any other status
    /// is a [`RevisionFetchError::Status`].
    pub fn fetch_snapshot_since(
        &mut self,
        since: u64,
    ) -> Result<DeltaSnapshot, RevisionFetchError> {
        let target = format!("/v1/snapshot?since={since}");
        snapshot_of(self.get_binary(&target)?)
    }

    /// Issue a `GET` asking for the binary framing.
    fn get_binary(&mut self, target: &str) -> Result<RawResponse, RevisionFetchError> {
        self.exchange("GET", target, ACCEPT_BINARY, b"")
            .map_err(RevisionFetchError::Transport)
    }

    /// Post one binary decision record and decode the reply; returns
    /// `(version, decision)`.
    ///
    /// # Panics
    /// Panics on a non-200 status (a stale epoch is a 409 — re-fetch the
    /// keys) or a malformed frame.
    pub fn decide_binary_single(
        &mut self,
        epoch: u64,
        record: &BinaryRecord<'_>,
    ) -> (u64, Decision) {
        let request = wire::encode_binary_single(epoch, record);
        let (status, body) = self.request_bytes(
            "POST",
            "/v1/decisions",
            Some(wire::BINARY_CONTENT_TYPE),
            &request,
        );
        assert_eq!(
            status,
            200,
            "binary decision failed: {}",
            String::from_utf8_lossy(&body)
        );
        wire::decode_binary_single_response(&body).expect("decode binary single response")
    }

    /// Post a binary decision batch and decode the reply; returns
    /// `(version, decisions)` in request order.
    ///
    /// # Panics
    /// Panics on a non-200 status or a malformed frame.
    pub fn decide_binary_batch(
        &mut self,
        epoch: u64,
        records: &[BinaryRecord<'_>],
    ) -> (u64, Vec<Decision>) {
        let request = wire::encode_binary_batch(epoch, records);
        let (status, body) = self.request_bytes(
            "POST",
            "/v1/decisions:batch",
            Some(wire::BINARY_CONTENT_TYPE),
            &request,
        );
        assert_eq!(
            status,
            200,
            "binary batch failed: {}",
            String::from_utf8_lossy(&body)
        );
        wire::decode_binary_batch_response(&body).expect("decode binary batch response")
    }

    /// Write raw bytes (for malformed-request tests), then read whatever
    /// the server sends until it closes (or times out). `None` when no
    /// parseable status line came back.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Option<(u16, String)> {
        if self.stream.write_all(bytes).is_err() {
            return None;
        }
        let mut raw = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => raw.extend_from_slice(&chunk[..n]),
                Err(_) => break,
            }
        }
        let text = String::from_utf8_lossy(&raw);
        let status: u16 = text.strip_prefix("HTTP/1.1 ")?.get(..3)?.parse().ok()?;
        let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string())?;
        Some((status, body))
    }

    /// The non-panicking twin of [`Client::request_bytes`]: issue one
    /// request, read the full response (including the `Retry-After` shed
    /// hint), and surface transport or framing problems as errors.
    pub fn try_request_bytes(
        &mut self,
        method: &str,
        target: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) -> io::Result<RawResponse> {
        let content_type = content_type.map(|value| ("Content-Type", value));
        self.exchange(method, target, content_type, body)
    }

    /// Write one request — the one place a request head is formatted —
    /// with at most one header beyond `Host` and `Content-Length`, and read
    /// the full response.
    fn exchange(
        &mut self,
        method: &str,
        target: &str,
        header: Option<(&str, &str)>,
        body: &[u8],
    ) -> io::Result<RawResponse> {
        let header = header
            .map(|(name, value)| format!("{name}: {value}\r\n"))
            .unwrap_or_default();
        let head = format!(
            "{method} {target} HTTP/1.1\r\nHost: verdicts\r\n{header}Content-Length: {}\r\n\r\n",
            body.len()
        );
        let mut request = head.into_bytes();
        request.extend_from_slice(body);
        self.stream.write_all(&request)?;
        self.try_read_response()
    }

    fn try_read_response(&mut self) -> io::Result<RawResponse> {
        let malformed = |detail: String| io::Error::new(io::ErrorKind::InvalidData, detail);
        let mut raw = Vec::new();
        let mut chunk = [0u8; 4096];
        // Read the head.
        let head_end = loop {
            if let Some(end) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
                break end;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(malformed(format!(
                    "server closed mid-response: {:?}",
                    String::from_utf8_lossy(&raw)
                )));
            }
            raw.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&raw[..head_end])
            .map_err(|_| malformed("non-utf-8 response head".to_string()))?;
        let status: u16 = head
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| malformed(format!("malformed status line in {head:?}")))?;
        let mut content_length: Option<usize> = None;
        let mut retry_after: Option<u32> = None;
        for line in head.lines() {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| malformed(format!("bad content-length {value:?}")))?,
                );
            } else if name.eq_ignore_ascii_case("retry-after") {
                retry_after = value.trim().parse().ok();
            }
        }
        let content_length =
            content_length.ok_or_else(|| malformed("missing content-length".to_string()))?;
        let mut body = raw[head_end + 4..].to_vec();
        while body.len() < content_length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(malformed("server closed mid-body".to_string()));
            }
            body.extend_from_slice(&chunk[..n]);
        }
        Ok(RawResponse {
            status,
            retry_after,
            body,
        })
    }
}

/// Retry and timeout policy for a [`RetryingClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Bound on establishing a TCP connection.
    pub connect_timeout: Duration,
    /// Bound on each individual request/response exchange.
    pub request_timeout: Duration,
    /// Attempts per request (first try included). `1` disables retries.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent attempt.
    pub base_backoff: Duration,
    /// Cap on any single backoff sleep — also caps an honored
    /// `Retry-After` hint, so a server asking for minutes cannot stall a
    /// test-scale caller.
    pub max_backoff: Duration,
    /// Lifetime retry budget across all requests of this client. Once
    /// spent, every request gets exactly one attempt — the client-side
    /// brake against retry storms amplifying an overload.
    pub retry_budget: u32,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(10),
            max_attempts: 4,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            retry_budget: 64,
            seed: 0x5eed_5eed_5eed_5eed,
        }
    }
}

/// A self-healing client: reconnects on transport errors, retries failed
/// exchanges and shed (`503`) responses with jittered exponential backoff
/// (honoring the server's `Retry-After` hint), and gives up cleanly when
/// its [`RetryPolicy::retry_budget`] runs out.
#[derive(Debug)]
pub struct RetryingClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    conn: Option<Client>,
    /// xorshift64 state for backoff jitter.
    jitter: u64,
    budget_left: u32,
    retries_spent: u64,
}

impl RetryingClient {
    /// A client for `addr`; nothing connects until the first request.
    pub fn new(addr: SocketAddr, policy: RetryPolicy) -> RetryingClient {
        RetryingClient {
            addr,
            jitter: policy.seed | 1,
            budget_left: policy.retry_budget,
            retries_spent: 0,
            policy,
            conn: None,
        }
    }

    /// Total retries this client has performed (across all requests).
    pub fn retries_spent(&self) -> u64 {
        self.retries_spent
    }

    /// Issue one request, retrying per the policy, with at most one header
    /// beyond `Host` and `Content-Length` (as [`Client`] writes it).
    /// Returns the final response — which may still be a `503` if the
    /// budget or attempt limit ran out while the server was shedding — or
    /// the final transport error.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        header: Option<(&str, &str)>,
        body: &[u8],
    ) -> io::Result<RawResponse> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let result = self.attempt_once(method, target, header, body);
            let retry_hint = match &result {
                // Only a shed response is worth retrying among successful
                // exchanges: other statuses (200, 4xx) are final answers.
                Ok(response) if response.status == 503 => Some(
                    response
                        .retry_after
                        .map(|s| Duration::from_secs(u64::from(s))),
                ),
                Ok(_) => None,
                Err(_) => {
                    // The connection state is unknown after a transport
                    // error; rebuild it on the next attempt.
                    self.conn = None;
                    Some(None)
                }
            };
            let Some(hint) = retry_hint else {
                return result;
            };
            if attempt >= self.policy.max_attempts || self.budget_left == 0 {
                return result;
            }
            self.budget_left -= 1;
            self.retries_spent += 1;
            thread::sleep(self.backoff(attempt, hint));
        }
    }

    fn attempt_once(
        &mut self,
        method: &str,
        target: &str,
        header: Option<(&str, &str)>,
        body: &[u8],
    ) -> io::Result<RawResponse> {
        if self.conn.is_none() {
            let mut client = Client::try_connect(self.addr, self.policy.connect_timeout)?;
            client.set_request_timeout(Some(self.policy.request_timeout))?;
            self.conn = Some(client);
        }
        let conn = self.conn.as_mut().expect("connection just established");
        conn.exchange(method, target, header, body)
    }

    /// The sleep before retry number `attempt`: exponential from
    /// `base_backoff` with up-to-50% deterministic jitter, overridden by
    /// the server's `Retry-After` when given — both capped at
    /// `max_backoff`.
    fn backoff(&mut self, attempt: u32, hint: Option<Duration>) -> Duration {
        if let Some(hint) = hint {
            return hint.min(self.policy.max_backoff);
        }
        let exp = self
            .policy
            .base_backoff
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.policy.max_backoff);
        let jitter = crate::xorshift64(&mut self.jitter);
        let jitter_micros = if exp.as_micros() > 1 {
            jitter % (exp.as_micros() as u64 / 2 + 1)
        } else {
            0
        };
        exp + Duration::from_micros(jitter_micros)
    }
}

/// Why one [`ReplicaClient::sync`] round failed.
#[derive(Debug)]
pub enum SyncError {
    /// The snapshot fetch failed: transport, a non-`200`/`410` status, or
    /// a malformed body.
    Fetch(RevisionFetchError),
    /// The fetched delta did not chain onto the local version — the
    /// follower state is untouched; the next round re-fetches from the
    /// actual local version.
    Apply(ApplyError),
}

impl fmt::Display for SyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncError::Fetch(error) => write!(f, "snapshot fetch failed: {error}"),
            SyncError::Apply(error) => write!(f, "snapshot apply failed: {error}"),
        }
    }
}

impl std::error::Error for SyncError {}

/// What one [`ReplicaClient::sync`] round did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncReport {
    /// The local version before the round.
    pub(crate) from: u64,
    /// The committed primary version held after applying.
    pub to: u64,
    /// Whether the round applied a full (re)bootstrap envelope — either
    /// the very first sync or a `410 Gone` after falling behind the ring.
    pub full: bool,
}

/// The follower loop in client form: bootstrap from a primary's full
/// snapshot, then poll `GET /v1/snapshot?since=<local version>` and apply
/// each delta into a local [`FollowerState`]. Every poll asks for the
/// binary framing (`Accept: application/x-trackersift-verdict`) and decodes
/// it with [`frames::decode_delta_snapshot`]; a body that is anything else
/// is a [`RevisionFetchError::Malformed`] and leaves the state untouched.
///
/// Every fetch goes through a [`RetryingClient`], so shed (`503`)
/// responses and transport drops back off and retry under the configured
/// [`RetryPolicy`]. A `410 Gone` is **not** retried — its body already
/// carries the full snapshot the follower needs, so the same round trip
/// that reported the aged-out baseline also re-bootstraps.
///
/// [`ReplicaClient::table`] materializes the applied state as a
/// [`VerdictTable`] at the primary's exact committed version — a replica
/// never serves a torn or interpolated state.
///
/// ```
/// use filterlist::ListKind;
/// use trackersift_engine::Sifter;
/// use trackersift_server::client::{Client, ReplicaClient, RetryPolicy};
/// use trackersift_server::{ServerConfig, VerdictServer};
///
/// // A primary that has learned one tracking chain, labeled by its own list.
/// let (writer, _reader) = Sifter::builder()
///     .filter_lists(&[(ListKind::EasyList, "||ads.com^\n")])
///     .build_concurrent();
/// let config = ServerConfig { workers: 1, ..ServerConfig::ephemeral() };
/// let server = VerdictServer::start(writer, config).unwrap();
/// let mut client = Client::connect(server.local_addr());
/// let body = concat!(
///     r#"{"observations":[{"url":"https://px.ads.com/p.gif","source_hostname":"pub.com","#,
///     r#""resource_type":"image","script":"https://pub.com/a.js","method":"send"}]}"#,
/// );
/// client.request("POST", "/v1/observations", Some(body));
/// client.request("POST", "/v1/commit", None);
///
/// // A follower syncs: the first round bootstraps (full snapshot), later
/// // rounds apply deltas.
/// let mut replica = ReplicaClient::new(server.local_addr(), RetryPolicy::default(), None, None);
/// let report = replica.sync().unwrap();
/// assert_eq!(report.to, replica.version());
/// assert_eq!(replica.table().version(), report.to);
/// server.shutdown();
/// ```
#[derive(Debug)]
pub struct ReplicaClient {
    http: RetryingClient,
    state: FollowerState,
}

impl ReplicaClient {
    /// A follower of the primary at `addr`. The filter engine and URL
    /// rewriter are attached locally (they are not shipped over the
    /// wire); pass the same ones the primary serves with for identical
    /// engine-sourced decisions.
    pub fn new(
        addr: SocketAddr,
        policy: RetryPolicy,
        engine: Option<Arc<FilterEngine>>,
        rewriter: Option<Arc<UrlRewriter>>,
    ) -> ReplicaClient {
        ReplicaClient {
            http: RetryingClient::new(addr, policy),
            state: FollowerState::new(engine, rewriter),
        }
    }

    /// The committed primary version this follower currently holds.
    pub fn version(&self) -> u64 {
        self.state.version()
    }

    /// Full-snapshot applications so far (the first sync plus every
    /// `410`-triggered re-bootstrap).
    pub fn bootstraps(&self) -> u64 {
        self.state.bootstraps()
    }

    /// One poll round: fetch the binary delta since the local version and
    /// apply it. Returns what changed; on any error the local state is
    /// untouched and the next round self-corrects by fetching from the
    /// still-current local version.
    pub fn sync(&mut self) -> Result<SyncReport, SyncError> {
        let from = self.state.version();
        let target = format!("/v1/snapshot?since={from}");
        let delta = self
            .http
            .request("GET", &target, ACCEPT_BINARY, b"")
            .map_err(RevisionFetchError::Transport)
            .and_then(snapshot_of)
            .map_err(SyncError::Fetch)?;
        let full = delta.is_full();
        self.state.apply(&delta).map_err(SyncError::Apply)?;
        Ok(SyncReport {
            from,
            to: self.state.version(),
            full,
        })
    }

    /// Materialize the applied state as a [`VerdictTable`] at the exact
    /// committed primary version last synced.
    pub fn table(&mut self) -> VerdictTable {
        self.state.table()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use trackersift_engine::{ChangeKind, Classification, Granularity, RevisionChange};

    /// A primary that answers the requests of one connection with the
    /// canned `(status, body)` responses in order, then hangs up and hands
    /// back the request heads it was sent.
    fn fake_primary(
        responses: Vec<(u16, Vec<u8>)>,
    ) -> (SocketAddr, thread::JoinHandle<Vec<String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake primary");
        let addr = listener.local_addr().expect("fake primary address");
        let primary = thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("the follower connects");
            let mut heads = Vec::new();
            for (status, body) in responses {
                let mut head = Vec::new();
                let mut byte = [0u8; 1];
                while !head.ends_with(b"\r\n\r\n") {
                    stream
                        .read_exact(&mut byte)
                        .expect("a complete request head");
                    head.push(byte[0]);
                }
                heads.push(String::from_utf8(head).expect("utf-8 request head"));
                let reply = format!(
                    "HTTP/1.1 {status} -\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                );
                stream.write_all(reply.as_bytes()).expect("write head");
                stream.write_all(&body).expect("write body");
            }
            heads
        });
        (addr, primary)
    }

    #[test]
    fn the_replica_speaks_binary_and_survives_hostile_bytes() {
        let full = DeltaSnapshot {
            since: None,
            to: 5,
            committed: 40,
            residue: 2,
            changes: Vec::new(),
            plans: Vec::new(),
        };
        let delta = DeltaSnapshot {
            since: Some(5),
            to: 6,
            changes: vec![RevisionChange::new(
                Granularity::Domain,
                "ads.com",
                ChangeKind::Added(Classification::Tracking),
            )],
            ..full.clone()
        };
        let frame = frames::encode_delta_snapshot(&delta);
        // The bootstrap, every truncation of the delta, the same delta as
        // the JSON document the endpoint serves without `Accept`, and
        // finally the delta itself.
        let mut responses = vec![(410, frames::encode_delta_snapshot(&full))];
        responses.extend((0..frame.len()).map(|cut| (200, frame[..cut].to_vec())));
        responses.push((
            200,
            frames::delta_snapshot_value(&delta).render().into_bytes(),
        ));
        let hostile = responses.len() - 1;
        responses.push((200, frame));
        let (addr, primary) = fake_primary(responses);

        let mut replica = ReplicaClient::new(addr, RetryPolicy::default(), None, None);
        let report = replica.sync().expect("bootstrap from the 410 body");
        assert_eq!((report.from, report.to, report.full), (0, 5, true));
        for _ in 0..hostile {
            assert!(matches!(
                replica.sync(),
                Err(SyncError::Fetch(RevisionFetchError::Malformed(_)))
            ));
            assert_eq!(replica.version(), 5);
            assert_eq!(replica.table().version(), 5);
        }
        let report = replica.sync().expect("the intact delta still applies");
        assert_eq!((report.from, report.to, report.full), (5, 6, false));
        assert_eq!(replica.http.retries_spent(), 0);

        let heads = primary.join().expect("fake primary");
        let head = |since: u64| {
            format!(
                "GET /v1/snapshot?since={since} HTTP/1.1\r\nHost: verdicts\r\n\
                 Accept: application/x-trackersift-verdict\r\nContent-Length: 0\r\n\r\n"
            )
        };
        assert_eq!(heads[0], head(0));
        assert!(heads[1..].iter().all(|asked| *asked == head(5)));
    }

    #[test]
    fn backoff_grows_exponentially_jittered_and_capped() {
        let addr: SocketAddr = "127.0.0.1:1".parse().expect("addr");
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            ..RetryPolicy::default()
        };
        let mut client = RetryingClient::new(addr, policy);
        let first = client.backoff(1, None);
        assert!(first >= Duration::from_millis(10) && first <= Duration::from_millis(15));
        let second = client.backoff(2, None);
        assert!(second >= Duration::from_millis(20) && second <= Duration::from_millis(30));
        // Attempt 40 would be 2^39 × base without the cap.
        let late = client.backoff(40, None);
        assert!(late <= Duration::from_millis(150));
        // A Retry-After hint wins but is still capped.
        assert_eq!(
            client.backoff(1, Some(Duration::from_secs(3600))),
            Duration::from_millis(100)
        );
    }

    #[test]
    fn budget_exhaustion_stops_retrying_against_a_dead_server() {
        // Nothing listens on port 1, so every attempt fails to connect.
        let addr: SocketAddr = "127.0.0.1:1".parse().expect("addr");
        let policy = RetryPolicy {
            connect_timeout: Duration::from_millis(50),
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            max_attempts: 3,
            retry_budget: 3,
            ..RetryPolicy::default()
        };
        let mut client = RetryingClient::new(addr, policy);
        assert!(client.request("GET", "/healthz", None, b"").is_err());
        assert_eq!(client.retries_spent(), 2, "max_attempts bounds one request");
        assert!(client.request("GET", "/healthz", None, b"").is_err());
        assert_eq!(client.retries_spent(), 3, "lifetime budget caps the rest");
        assert!(client.request("GET", "/healthz", None, b"").is_err());
        assert_eq!(client.retries_spent(), 3, "budget spent: single attempts");
    }
}
