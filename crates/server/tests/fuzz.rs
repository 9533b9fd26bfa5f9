//! Hostile-input tests of the wire layer: malformed, truncated, and
//! oversized HTTP requests must produce a 4xx/5xx answer (or a clean
//! close) — never a panic, and never a wedged worker. After every burst of
//! garbage the pool must still answer a well-formed request.

use crawler::json::{object, JsonError, Value};
use filterlist::ListKind;
use proptest::prelude::*;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use trackersift::{ObservationRef, Sifter, SifterBuilder, SifterReader, VerdictTable};
use trackersift_server::client::Client;
use trackersift_server::wire::{self, DecisionMessage, DecisionQuery, ObservationMessage};
use trackersift_server::{ServerConfig, VerdictServer};

fn start_server() -> VerdictServer {
    start_server_with_reader().0
}

/// A sifter whose one-rule engine labels the fuzzed rows' base URL
/// (`px.ads.com`) tracking, so a raw-URL row is accepted, not skipped.
fn labeling_sifter() -> SifterBuilder {
    Sifter::builder().filter_lists(&[(ListKind::EasyList, "||ads.com^\n")])
}

fn start_server_with_reader() -> (VerdictServer, SifterReader) {
    let mut sifter = labeling_sifter().build();
    for _ in 0..5 {
        sifter.apply(ObservationRef::parts(
            "ads.com",
            "px.ads.com",
            "https://pub.com/a.js",
            "send",
            true,
        ));
    }
    sifter.commit();
    let (writer, reader) = sifter.into_concurrent();
    let server = VerdictServer::start(
        writer,
        ServerConfig {
            workers: 2,
            max_body_bytes: 16 * 1024,
            // Short timeout: truncated requests release their worker fast.
            read_timeout: Duration::from_millis(300),
            ..ServerConfig::ephemeral()
        },
    )
    .expect("start verdict server");
    (server, reader)
}

/// The pool still serves after whatever the previous connection did.
fn assert_alive(server: &VerdictServer) {
    let mut client = Client::connect(server.local_addr());
    let (status, body) = client.request("GET", "/healthz", None);
    assert_eq!((status, body.as_str()), (200, "ok"));
}

#[test]
fn handcrafted_malformed_requests_get_4xx_not_a_wedge() {
    let server = start_server();
    let cases: Vec<(Vec<u8>, u16)> = vec![
        // Not HTTP at all.
        (b"EHLO verdicts\r\n\r\n".to_vec(), 400),
        // Bad request line shape.
        (b"GET /healthz\r\n\r\n".to_vec(), 400),
        // Unsupported protocol version.
        (b"GET /healthz HTTP/2.0\r\n\r\n".to_vec(), 400),
        // Header without a colon.
        (b"GET /healthz HTTP/1.1\r\nnocolon\r\n\r\n".to_vec(), 400),
        // Unparseable content-length.
        (
            b"POST /v1/decisions HTTP/1.1\r\nContent-Length: banana\r\n\r\n".to_vec(),
            400,
        ),
        // Non-canonical content-length (RFC 9112 framing is digits only).
        (
            b"POST /v1/decisions HTTP/1.1\r\nContent-Length: +17\r\n\r\n".to_vec(),
            400,
        ),
        // Declared body far beyond the configured cap.
        (
            b"POST /v1/decisions HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n".to_vec(),
            413,
        ),
        // Transfer-encoding is refused, not guessed about.
        (
            b"POST /v1/decisions HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n".to_vec(),
            501,
        ),
        // Duplicate content-length is the request-smuggling vector: reject,
        // never pick one.
        (
            b"POST /v1/commit HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 44\r\n\r\n".to_vec(),
            400,
        ),
        // ...even when the duplicates agree: two framings is two framings.
        (
            b"POST /v1/commit HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}".to_vec(),
            400,
        ),
        // u64::MAX + 1: overflows usize, must be a 400, not a wraparound
        // into a small (smuggleable) body length.
        (
            b"POST /v1/decisions HTTP/1.1\r\nContent-Length: 18446744073709551616\r\n\r\n".to_vec(),
            400,
        ),
        // Digits-only but saturating: still just "too big", never a panic.
        (
            b"POST /v1/decisions HTTP/1.1\r\nContent-Length: 99999999999999999999999999\r\n\r\n"
                .to_vec(),
            400,
        ),
        // Binary content-type with a garbage frame: typed 400 from the
        // frame decoder, not a hang or a panic.
        (
            b"POST /v1/decisions HTTP/1.1\r\nContent-Type: application/x-trackersift-verdict\r\nContent-Length: 5\r\n\r\n\x09\x07zzz".to_vec(),
            400,
        ),
        // Binary frame truncated relative to its own length prefix: a
        // string-form record whose domain claims 4 GiB of bytes.
        (
            b"POST /v1/decisions HTTP/1.1\r\nContent-Type: application/x-trackersift-verdict\r\nContent-Length: 16\r\n\r\n\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff".to_vec(),
            400,
        ),
        // Valid HTTP, invalid JSON body.
        (
            b"POST /v1/decisions HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot-json!".to_vec(),
            400,
        ),
        // Valid JSON, wrong shape.
        (
            b"POST /v1/decisions HTTP/1.1\r\nContent-Length: 13\r\n\r\n{\"domain\":1}\n".to_vec(),
            400,
        ),
    ];
    for (bytes, expected) in cases {
        let mut client = Client::connect(server.local_addr());
        let reply = client.send_raw(&bytes);
        let (status, _) = reply
            .unwrap_or_else(|| panic!("no response for {:?}", String::from_utf8_lossy(&bytes)));
        assert_eq!(
            status,
            expected,
            "for {:?}",
            String::from_utf8_lossy(&bytes)
        );
        assert_alive(&server);
    }
    // Oversized headers drip-fed line by line.
    let mut client = Client::connect(server.local_addr());
    let mut garbage = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..2000 {
        garbage.extend_from_slice(format!("X-Pad-{i}: {}\r\n", "y".repeat(64)).as_bytes());
    }
    garbage.extend_from_slice(b"\r\n");
    let (status, _) = client.send_raw(&garbage).expect("431 response");
    assert_eq!(status, 431);
    assert_alive(&server);

    // A connection that sends a truncated head then goes silent: the read
    // timeout must release the worker.
    let mut half = TcpStream::connect(server.local_addr()).expect("connect");
    half.write_all(b"GET /healthz HTT").expect("write prefix");
    std::thread::sleep(Duration::from_millis(450));
    assert_alive(&server);
    drop(half);

    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random query strings on `GET /v1/revisions`: every request is
    /// answered with a typed status — 200 only when the garbage happens to
    /// spell a valid `diff=a..b` inside the ring, a 4xx otherwise — and
    /// the pool keeps serving afterwards. The character class is biased
    /// toward the real query grammar (`diff`, digits, `..`, `&`, `=`) so a
    /// meaningful fraction of cases lands near the parser's edges instead
    /// of failing at the first byte.
    #[test]
    fn revision_query_garbage_gets_typed_answers(
        query in "[dif=&.0-9a-z%_]{0,24}",
    ) {
        static SERVER: std::sync::OnceLock<VerdictServer> = std::sync::OnceLock::new();
        let server = SERVER.get_or_init(start_server);
        let mut client = Client::connect(server.local_addr());
        let target = format!("/v1/revisions?{query}");
        let (status, body) = client.request("GET", &target, None);
        prop_assert!(
            status == 200 || status == 400 || status == 404,
            "{target} -> {status}: {body}"
        );
        if status == 200 {
            // Whatever parsed must be a well-formed revision body.
            prop_assert!(body.starts_with("{\"from\":") || body.starts_with("{\"version\":"), "{body}");
        } else {
            prop_assert!(body.contains("error"), "{target} -> {body}");
        }
        let mut probe = Client::connect(server.local_addr());
        let (status, body) = probe.request("GET", "/healthz", None);
        prop_assert_eq!((status, body.as_str()), (200, "ok"));
    }

    /// Random bytes, random truncations of a valid request, and random
    /// header garbage: every connection gets an answer (or a clean close)
    /// and the pool keeps serving afterwards.
    #[test]
    fn random_garbage_never_wedges_the_pool(
        bytes in prop::collection::vec(0u8..255, 1..600),
        mode in 0usize..4,
        cut in 1usize..60,
    ) {
        // One shared server across every case: garbage never changes
        // serving state, and a wedged worker in an early case would fail
        // the health probe of a later one.
        static SERVER: std::sync::OnceLock<VerdictServer> = std::sync::OnceLock::new();
        let server = SERVER.get_or_init(start_server);
        let payload = match mode {
            // Raw garbage.
            0 => bytes.clone(),
            // A valid request truncated mid-head.
            1 => {
                let valid = b"POST /v1/decisions HTTP/1.1\r\nContent-Length: 4\r\n\r\n{}{}".to_vec();
                valid[..cut.min(valid.len())].to_vec()
            }
            // A well-formed HTTP request carrying random bytes as a binary
            // decision frame: the frame decoder must answer 400, never
            // hang or panic. (A random payload starting with a valid
            // proto/kind/epoch/record prefix is astronomically unlikely,
            // and would be a legitimate 200 anyway — the assertion below
            // only fires on non-error statuses for *unparseable* input,
            // so keep the first byte off the real protocol version.)
            3 => {
                let mut frame = bytes.clone();
                if frame.first() == Some(&1) {
                    frame[0] = 2;
                }
                let mut v = format!(
                    "POST /v1/decisions HTTP/1.1\r\nContent-Type: application/x-trackersift-verdict\r\nContent-Length: {}\r\n\r\n",
                    frame.len()
                ).into_bytes();
                v.extend_from_slice(&frame);
                v
            }
            // A valid request line followed by garbage headers. Strip ':'
            // and '\r' (and guarantee at least one byte) so the garbage can
            // never accidentally form a valid, colon-separated header block
            // — the property below asserts a 4xx.
            _ => {
                let mut v = b"GET /v1/stats HTTP/1.1\r\n".to_vec();
                let garbage: Vec<u8> = bytes
                    .iter()
                    .copied()
                    .filter(|&b| b != b':' && b != b'\r')
                    .collect();
                if garbage.is_empty() {
                    v.push(b'x');
                } else {
                    v.extend_from_slice(&garbage);
                }
                v.extend_from_slice(b"\r\n\r\n");
                v
            }
        };
        let mut client = Client::connect(server.local_addr());
        // Whatever happens, it must not hang: send_raw reads to close or
        // timeout. A `Some` reply must be an error status, never 2xx for
        // garbage that cannot parse as a full valid request.
        if let Some((status, _)) = client.send_raw(&payload) {
            prop_assert!(status >= 400, "garbage got {status}");
        }
        // The pool survived.
        let mut probe = Client::connect(server.local_addr());
        let (status, body) = probe.request("GET", "/healthz", None);
        prop_assert_eq!((status, body.as_str()), (200, "ok"));
        // The shared server stays up for the remaining cases.
    }
}

// ---------------------------------------------------------------------
// The borrowed decoders against the trees they replaced
// ---------------------------------------------------------------------

/// Per-case generator state (xorshift64*), seeded by the property's input.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() >> 33) as usize % n
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    fn space(&mut self) -> &'static str {
        self.pick(&["", "", "", " ", "\n", "\t "])
    }
}

/// A JSON string literal (quotes included) starting with `base`: plain
/// runs, multi-byte characters, every escape form including a surrogate
/// pair — and now and then an escape no parser may accept.
fn string_literal(g: &mut Gen, base: &str) -> String {
    let mut out = format!("\"{base}");
    let pieces = if g.chance(55) { 0 } else { 1 + g.below(4) };
    for _ in 0..pieces {
        out.push_str(match g.below(14) {
            0 => "\\n",
            1 => "\\\"",
            2 => "\\\\",
            3 => "\\/",
            4 => "\\u0041",
            5 => "\\ud83e\\udd80",
            6 => "\\t\\b\\f\\r",
            7 => "é",
            8 => "中",
            9 => "🦀",
            10 if g.chance(6) => g.pick(&[
                "\\ud83e",
                "\\ud83e\\u0041",
                "\\udc00",
                "\\q",
                "\\u12",
                "\\uZZZZ",
                "\\",
            ]),
            11 => ".example",
            _ => "x",
        });
    }
    out.push('"');
    out
}

/// A JSON value that is not a string: scalars, small nested containers,
/// nesting past the parser's depth limit, and a few that are not JSON.
fn other_value(g: &mut Gen, depth: usize) -> String {
    match g.below(if depth < 3 { 12 } else { 6 }) {
        0 => "null".to_string(),
        1 => "true".to_string(),
        2 => "false".to_string(),
        3 => "17".to_string(),
        4 => "-2.5e3".to_string(),
        5 => g.pick(&["[]", "{}", "[ ]", "{ }"]).to_string(),
        6 | 7 => {
            let items: Vec<String> = (0..1 + g.below(3))
                .map(|_| any_value(g, depth + 1))
                .collect();
            format!("[{}]", items.join(","))
        }
        8 | 9 => {
            let fields: Vec<String> = (0..1 + g.below(3))
                .map(|_| format!("{}:{}", string_literal(g, "k"), any_value(g, depth + 1)))
                .collect();
            format!("{{{}}}", fields.join(","))
        }
        10 | 11 if g.chance(85) => "0".to_string(),
        10 => {
            // 126 levels fit inside a single query's object but not two
            // containers further down, in a batch row; 129 fit nowhere.
            let levels = g.pick(&[126, 129, 200]);
            format!("{}{}", "[".repeat(levels), "]".repeat(levels))
        }
        _ => g
            .pick(&["1e", "-", "tru", "nul", "[1,]", "{\"a\" 1}", "01x"])
            .to_string(),
    }
}

fn any_value(g: &mut Gen, depth: usize) -> String {
    if g.chance(50) {
        string_literal(g, "v")
    } else {
        other_value(g, depth)
    }
}

/// One `key:value` member with a known key: the key now and then spelled
/// with an escape, the value now and then not a string.
fn known_field(g: &mut Gen, key: &str, base: &str) -> String {
    let key = if g.chance(8) {
        // `\u00XX` for the first letter spells the same key.
        format!("\"\\u00{:02x}{}\"", key.as_bytes()[0], &key[1..])
    } else {
        format!("\"{key}\"")
    };
    let value = if g.chance(97) {
        string_literal(g, base)
    } else {
        other_value(g, 0)
    };
    format!("{key}{}:{}{value}", g.space(), g.space())
}

/// A decision query object around the fuzz server's one trained resource:
/// fields missing, duplicated, of the wrong type, unknown, in any order.
fn query_object(g: &mut Gen) -> String {
    if g.chance(3) {
        // Not an object at all.
        return any_value(g, 0);
    }
    const KEYS: [(&str, &str, usize); 7] = [
        ("domain", "ads.com", 97),
        ("hostname", "px.ads.com", 97),
        ("script", "https://pub.com/a.js", 97),
        ("method", "send", 97),
        ("url", "https://px.ads.com/p?id=1", 50),
        ("source_hostname", "pub.com", 50),
        ("resource_type", "", 50),
    ];
    let mut fields = Vec::new();
    for (key, base, presence) in KEYS {
        let copies = usize::from(g.chance(presence)) + usize::from(g.chance(6));
        for _ in 0..copies {
            let base = match key {
                "resource_type" => g.pick(&["script", "image", "xmlhttprequest", "warp-drive"]),
                _ => base,
            };
            fields.push(known_field(g, key, base));
        }
    }
    for _ in 0..g.below(3) {
        fields.push(format!(
            "{}:{}",
            string_literal(g, "extra"),
            any_value(g, 0)
        ));
    }
    for at in (1..fields.len()).rev() {
        fields.swap(at, g.below(at + 1));
    }
    let separator = format!("{},{}", g.space(), g.space());
    format!("{{{}{}{}}}", g.space(), fields.join(&separator), g.space())
}

/// An observation row, raw-URL or the client-labeled parts shape the server
/// refuses: fields missing, duplicated, of the wrong type, unknown, in any
/// order, and now and then the other shape's fields mixed in (a row is
/// decoded only if it has a `url`).
fn observation_object(g: &mut Gen) -> String {
    if g.chance(3) {
        // Not an object at all.
        return any_value(g, 0);
    }
    let (parts, url) = if g.chance(50) { (96, 4) } else { (8, 96) };
    let keys = [
        ("domain", "ads.com", parts),
        ("hostname", "px.ads.com", parts),
        ("tracking", "", parts),
        ("script", "https://pub.com/a.js", 97),
        ("method", "send", 97),
        ("url", "https://px.ads.com/p?id=1", url),
        ("source_hostname", "pub.com", url),
        ("resource_type", "", url),
    ];
    let mut fields = Vec::new();
    for (key, base, presence) in keys {
        let copies = usize::from(g.chance(presence)) + usize::from(g.chance(6));
        for _ in 0..copies {
            fields.push(match key {
                "tracking" if g.chance(94) => {
                    format!("\"tracking\":{}{}", g.space(), g.pick(&["true", "false"]))
                }
                "tracking" => format!("\"tracking\":{}", any_value(g, 0)),
                // Spelled exactly most of the time: a suffix `known_field`
                // may add makes a name no type has.
                "resource_type" if g.chance(85) => {
                    let name = g.pick(&["script", "image", "xmlhttprequest", "ping", "other"]);
                    format!("\"resource_type\":\"{name}\"")
                }
                "resource_type" => known_field(g, key, "warp-drive"),
                _ => known_field(g, key, base),
            });
        }
    }
    for _ in 0..g.below(3) {
        fields.push(format!(
            "{}:{}",
            string_literal(g, "extra"),
            any_value(g, 0)
        ));
    }
    for at in (1..fields.len()).rev() {
        fields.swap(at, g.below(at + 1));
    }
    let separator = format!("{},{}", g.space(), g.space());
    format!("{{{}{}{}}}", g.space(), fields.join(&separator), g.space())
}

/// A batch body around `rows` under `key`: the array now and then not an
/// array, the key duplicated, joined by other members, or missing — then
/// [`mutate`]d.
fn batch_body(g: &mut Gen, key: &str, rows: &[String]) -> String {
    let array = match g.below(20) {
        0 => any_value(g, 0),
        _ => format!("[{}]", rows.join(",")),
    };
    let mut members = vec![format!("\"{key}\":{array}")];
    if g.chance(10) {
        // Only the first occurrence counts, wherever it stands.
        members.push(format!("\"{key}\":{}", any_value(g, 0)));
    }
    if g.chance(20) {
        let at = g.below(members.len() + 1);
        members.insert(at, format!("\"hint\":{}", any_value(g, 0)));
    }
    if g.chance(3) {
        members.remove(0);
    }
    let body = format!("{{{}}}", members.join(","));
    mutate(g, body)
}

/// Damage a rendered body: cut it short, append to it, or overwrite one
/// byte with a structural character.
fn mutate(g: &mut Gen, mut body: String) -> String {
    match g.below(12) {
        0 | 1 => {
            let mut cut = g.below(body.len() + 1);
            while !body.is_char_boundary(cut) {
                cut -= 1;
            }
            body.truncate(cut);
        }
        2 => body.push_str(g.pick(&[" ", "\n", " x", "}", "{}", ",", "\"", "\u{0}"])),
        3 if !body.is_empty() => {
            let mut at = g.below(body.len());
            while !body.is_char_boundary(at) {
                at -= 1;
            }
            let old = body[at..].chars().next().expect("a char at a boundary");
            let new = g.pick(&['{', '}', '[', ']', ',', ':', '"', '\\', ' ', '0']);
            body.replace_range(at..at + old.len_utf8(), new.encode_utf8(&mut [0; 4]));
        }
        _ => {}
    }
    body
}

type Fields = (
    String,
    String,
    String,
    String,
    Option<String>,
    String,
    filterlist::ResourceType,
);

fn message_fields(message: DecisionMessage) -> Fields {
    (
        message.domain,
        message.hostname,
        message.script,
        message.method,
        message.url,
        message.source_hostname,
        message.resource_type,
    )
}

fn query_fields(query: &DecisionQuery<'_>) -> Fields {
    (
        query.domain.to_string(),
        query.hostname.to_string(),
        query.script.to_string(),
        query.method.to_string(),
        query.url.as_ref().map(|url| url.to_string()),
        query.source_hostname.to_string(),
        query.resource_type,
    )
}

/// What the server decoded before the borrowed decoder existed.
fn reference_single(text: &str) -> Result<Fields, JsonError> {
    DecisionMessage::from_json_value(&Value::parse(text)?).map(message_fields)
}

fn reference_batch(text: &str) -> Result<Vec<Fields>, JsonError> {
    let body = Value::parse(text)?;
    body.field("requests")?
        .as_array()?
        .iter()
        .map(|row| DecisionMessage::from_json_value(row).map(message_fields))
        .collect()
}

/// What `POST /v1/observations` decoded before the streaming decoder
/// existed.
fn reference_observations(text: &str) -> Result<Vec<ObservationMessage>, JsonError> {
    let body = Value::parse(text)?;
    body.field("observations")?
        .as_array()?
        .iter()
        .map(ObservationMessage::from_json_value)
        .collect()
}

/// The endpoint's answer to `body` against what the reference decode
/// predicts: the in-process decisions rendered for `Ok`, a `400` carrying
/// the reference's error text otherwise.
fn assert_endpoint_agrees(
    server: &VerdictServer,
    table: &VerdictTable,
    target: &str,
    body: &str,
    expected: &Result<Vec<Fields>, JsonError>,
) {
    let mut client = Client::connect(server.local_addr());
    let (status, answer) = client.request("POST", target, Some(body));
    let decide = |fields: &Fields| {
        let (domain, hostname, script, method, url, source_hostname, resource_type) = fields;
        let mut message = DecisionMessage::new(domain, hostname, script, method);
        if let Some(url) = url {
            message = message.with_url(url, source_hostname, *resource_type);
        }
        trackersift::frames::decision_value(&table.decide(&message.as_request()))
    };
    let version = ("version", Value::number_u64(table.version()));
    let expected = match expected {
        Ok(rows) if target.ends_with(":batch") => (
            200,
            object(vec![
                version,
                ("decisions", Value::Array(rows.iter().map(decide).collect())),
            ]),
        ),
        Ok(rows) => (200, object(vec![version, ("decision", decide(&rows[0]))])),
        Err(error) => (
            400,
            object(vec![("error", Value::String(error.to_string()))]),
        ),
    };
    assert_eq!(
        (status, answer),
        (expected.0, expected.1.render()),
        "{target} <- {body}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The borrowed decoder accepts exactly the bodies that parsing a tree
    /// and decoding a `DecisionMessage` from it accepts, reads the same
    /// seven fields out of them, rejects the others with the same error —
    /// and the endpoints, which decode through it, answer accordingly.
    #[test]
    fn borrowed_decoder_matches_the_tree_decoder(seed in 1u64..u64::MAX) {
        // Never committed to, so the table it boots with is its reference.
        static SERVER: std::sync::OnceLock<(VerdictServer, Arc<VerdictTable>)> = std::sync::OnceLock::new();
        let (server, table) = SERVER.get_or_init(|| {
            let (server, reader) = start_server_with_reader();
            let table = Arc::new(reader.pin().table().clone());
            (server, table)
        });
        let mut g = Gen(seed);

        let single = query_object(&mut g);
        let single = mutate(&mut g, single);
        let expected = reference_single(&single);
        let decoded = DecisionQuery::parse(&single).map(|query| query_fields(&query));
        prop_assert_eq!(&decoded, &expected, "{}", single);
        assert_endpoint_agrees(server, table, "/v1/decisions", &single, &expected.map(|row| vec![row]));

        let rows: Vec<String> = (0..g.below(5)).map(|_| query_object(&mut g)).collect();
        let batch = batch_body(&mut g, "requests", &rows);
        let expected = reference_batch(&batch);
        let mut streamed = Vec::new();
        let decoded = wire::decode_decision_batch(&batch, |query| streamed.push(query_fields(query)))
            .map(|count| {
                assert_eq!(count, streamed.len());
                streamed
            });
        prop_assert_eq!(&decoded, &expected, "{}", batch);
        assert_endpoint_agrees(server, table, "/v1/decisions:batch", &batch, &expected);
    }

    /// The streaming observation decoder accepts exactly the bodies that
    /// parsing a tree and decoding an `ObservationMessage` from each row
    /// accepts, reads the same rows out of them, rejects the others with the
    /// same error — and `POST /v1/observations`, which decodes through it,
    /// answers that error as its `400` and counts every row of a good body
    /// as an in-process sifter with the same engine does.
    #[test]
    fn streaming_observation_decoder_matches_the_tree_decoder(seed in 1u64..u64::MAX) {
        static SERVER: std::sync::OnceLock<VerdictServer> = std::sync::OnceLock::new();
        let server = SERVER.get_or_init(start_server);
        let mut g = Gen(seed);

        let rows: Vec<String> = (0..g.below(6)).map(|_| observation_object(&mut g)).collect();
        let body = batch_body(&mut g, "observations", &rows);
        let expected = reference_observations(&body);
        match (wire::decode_observation_batch(&body), &expected) {
            (Ok(batch), Ok(rows)) => {
                prop_assert_eq!(batch.len(), rows.len(), "{}", body);
                prop_assert!(batch.iter().eq(rows.iter().map(ObservationMessage::as_ref)), "{}", body);
            }
            (decoded, expected) => {
                prop_assert_eq!(decoded.err(), expected.as_ref().err().cloned(), "{}", body)
            }
        }

        let mut client = Client::connect(server.local_addr());
        let (status, answer) = client.request("POST", "/v1/observations", Some(&body));
        match expected {
            Ok(rows) => {
                prop_assert_eq!(status, 200, "{}", body);
                let reply = Value::parse(&answer).expect("a JSON reply");
                let count = |key| reply.field(key).and_then(Value::as_u64).expect("a count");
                // A row is skipped only if its URL does not parse.
                let accepted = labeling_sifter()
                    .build()
                    .apply_batch(rows.iter().map(ObservationMessage::as_ref));
                prop_assert_eq!(count("accepted"), accepted, "{}", body);
                prop_assert_eq!(count("skipped"), rows.len() as u64 - accepted, "{}", body);
            }
            Err(error) => {
                let expected = object(vec![("error", Value::String(error.to_string()))]);
                prop_assert_eq!((status, answer), (400, expected.render()), "{}", body);
            }
        }
    }
}

/// Every in-place decoder's verdict on `row`, alone and as a batch row,
/// against the tree decoders' on the same bodies.
fn assert_decoders_agree_on(row: &str) {
    let decoded = DecisionQuery::parse(row).map(|query| query_fields(&query));
    assert_eq!(decoded, reference_single(row), "{row}");

    let batch = format!("{{\"requests\":[{row},{row}]}}");
    let mut streamed = Vec::new();
    let decoded = wire::decode_decision_batch(&batch, |query| streamed.push(query_fields(query)))
        .map(|_| streamed);
    assert_eq!(decoded, reference_batch(&batch), "{batch}");

    let body = format!("{{\"observations\":[{row}]}}");
    match (
        wire::decode_observation_batch(&body),
        reference_observations(&body),
    ) {
        (Ok(batch), Ok(rows)) => {
            assert!(
                batch.iter().eq(rows.iter().map(ObservationMessage::as_ref)),
                "{body}"
            );
        }
        (decoded, expected) => assert_eq!(decoded.err(), expected.err(), "{body}"),
    }
}

/// Keys one letter off a known field (same length and first byte), every
/// resource type's option name and names one letter off them: each decodes
/// to what the tree decoders make of it, field for field or error for error.
#[test]
fn near_miss_keys_and_type_names_decode_as_the_tree_decoders_do() {
    let fields = [
        ("domain", "\"ads.com\""),
        ("hostname", "\"px.ads.com\""),
        ("script", "\"https://pub.com/a.js\""),
        ("method", "\"send\""),
        ("url", "\"https://px.ads.com/p?id=1\""),
        ("source_hostname", "\"pub.com\""),
        ("resource_type", "\"image\""),
        ("tracking", "true"),
    ];
    let row = |members: &[(&str, &str)]| {
        let members: Vec<String> = members
            .iter()
            .map(|(key, value)| format!("\"{key}\":{value}"))
            .collect();
        format!("{{{}}}", members.join(","))
    };
    // Without `url` a row is a refused observation and a URL-less query.
    let forms = [
        fields.to_vec(),
        fields
            .iter()
            .copied()
            .filter(|(key, _)| *key != "url")
            .collect(),
    ];
    let mut rows = Vec::new();
    for near_miss in ["domaim", "hostnamE", "urn", "scripT", "source_hostnamx"] {
        let known = fields
            .iter()
            .find(|(key, _)| {
                key.len() == near_miss.len() && key.as_bytes()[0] == near_miss.as_bytes()[0]
            })
            .expect("a known field it nearly spells");
        for form in &forms {
            // The near miss beside the field, with a string or another
            // value; then in its place (if the form has it), so the field
            // is missing.
            for value in [known.1, "7"] {
                let mut members = form.clone();
                members.insert(0, (near_miss, value));
                rows.push(row(&members));
            }
            let mut replaced = form.clone();
            if let Some(member) = replaced.iter_mut().find(|(key, _)| *key == known.0) {
                member.0 = near_miss;
                rows.push(row(&replaced));
            }
        }
    }
    let with_type = |name: &str| {
        let name = format!("\"{name}\"");
        let mut members = fields.to_vec();
        members
            .iter_mut()
            .find(|(key, _)| *key == "resource_type")
            .expect("the field")
            .1 = &name;
        row(&members)
    };
    for kind in filterlist::ResourceType::ALL {
        let row = with_type(kind.option_name());
        let query = DecisionQuery::parse(&row).expect("a known type name");
        assert_eq!(query.resource_type, kind, "{row}");
        rows.push(row);
    }
    for near_miss in ["Script", "scripts", "scrip", "xmlhttprequesT"] {
        let row = with_type(near_miss);
        assert!(DecisionQuery::parse(&row).is_err(), "{row}");
        rows.push(row);
    }
    for row in &rows {
        assert_decoders_agree_on(row);
    }
}
