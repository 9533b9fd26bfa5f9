//! Attribution of server-thread time without touching the server: the
//! same request bytes the load generator sent are pushed, in-process,
//! through the worker's public steps in the order the worker runs them —
//! `RequestParser::push`/`next` → JSON or binary decode → key resolve →
//! `decide_prebuilt` → body assembly → `HttpResponse::render_into`. There
//! is one span per step: the span of step *k* replays steps 1..=*k*, and
//! the step's cost is that span minus the one before it, so no clock is
//! read inside the per-request loop. The sample is replayed for several
//! rounds and the fastest kept (a co-tenant can only slow one down).
//!
//! What replay cannot see — `poll`, `read`/`write`, buffer management,
//! cache misses a tight loop does not take — is the worker's measured run
//! time minus these steps, reported as `server.worker.residual_ns`.

use crate::report::WorkloadResult;
use crate::trace::Tracer;
use crawler::json::Value;
use std::hint::black_box;
use std::time::Instant;
use trackersift::frames;
use trackersift::{KeyedRequest, PrebuiltDecision, RewriterBuilder, VerdictTable};
use trackersift_server::http::{HttpRequest, HttpResponse, RequestParser};
use trackersift_server::wire::{
    self, BinaryKeys, BinaryRecord, DecisionMessage, ObservationMessage,
};

const ROUNDS: usize = 5;
/// The server's default body cap (`ServerConfig::max_body_bytes`).
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Mean ns per request of each replayed step.
#[derive(Debug, Default)]
pub struct Steps {
    binary: bool,
    parse_ns: f64,
    decode_ns: f64,
    resolve_ns: f64,
    decide_ns: f64,
    encode_ns: f64,
    render_ns: f64,
    response_bytes: f64,
}

impl Steps {
    pub fn total_ns(&self) -> f64 {
        self.parse_ns
            + self.decode_ns
            + self.resolve_ns
            + self.decide_ns
            + self.encode_ns
            + self.render_ns
    }

    pub fn report(&self, result: &mut WorkloadResult) {
        result.layer("server.http.parse_ns", self.parse_ns);
        let decode = if self.binary {
            "server.wire.binary_decode_ns"
        } else {
            "server.wire.json_decode_ns"
        };
        result.layer(decode, self.decode_ns);
        result.layer("core.table.resolve_ns", self.resolve_ns);
        result.layer("core.table.decide_ns", self.decide_ns);
        result.layer("core.frames.encode_ns", self.encode_ns);
        result.layer("server.http.render_ns", self.render_ns);
        result.layer("core.frames.response_bytes", self.response_bytes);
    }
}

/// The worker's JSON single-decision body assembly: a copy of a prebuilt
/// body, or the version prefix spliced before a surrogate/rewrite object.
fn json_body(table: &VerdictTable, decision: &PrebuiltDecision<'_>) -> Vec<u8> {
    let prebuilt = table.prebuilt();
    let splice = |fragment: &str| {
        [
            prebuilt.json_single_prefix().as_bytes(),
            fragment.as_bytes(),
            b"}",
        ]
        .concat()
    };
    match decision {
        PrebuiltDecision::Fixed(index) => prebuilt.json_single(*index).as_bytes().to_vec(),
        PrebuiltDecision::Surrogate(frames) => splice(&frames.json),
        PrebuiltDecision::Rewrite(rewritten) => splice(&frames::rewrite_value(rewritten).render()),
    }
}

/// The worker's binary single-decision body assembly.
fn binary_body(table: &VerdictTable, decision: &PrebuiltDecision<'_>) -> Vec<u8> {
    match decision {
        PrebuiltDecision::Fixed(index) => table.prebuilt().binary_single(*index).to_vec(),
        PrebuiltDecision::Surrogate(surrogate) => {
            let header = frames::encode_surrogate_single_header(
                table.version(),
                surrogate.binary.len() as u32,
            );
            [&header[..], &surrogate.binary[..]].concat()
        }
        PrebuiltDecision::Rewrite(rewritten) => {
            let payload = frames::encode_rewrite_payload(rewritten);
            let header =
                frames::encode_rewrite_single_header(table.version(), payload.len() as u32);
            [&header[..], &payload[..]].concat()
        }
    }
}

/// Id-form keys to table keys (a bounds check per id); string-form goes
/// through the interner like a JSON request.
fn keyed<'a>(table: &VerdictTable, record: &BinaryRecord<'a>) -> KeyedRequest<'a> {
    match record.keys {
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
        } => table.resolve(&trackersift::DecisionRequest::new(
            domain, hostname, script, method,
        )),
    }
}

/// The worker's steps in the order it runs them.
const STEPS: [&str; 6] = [
    "replay.through.http_parse",
    "replay.through.wire_decode",
    "replay.through.table_resolve",
    "replay.through.table_decide",
    "replay.through.frames_encode",
    "replay.through.http_render",
];

/// Run every request through the worker's first `steps` steps the way the
/// worker does: a flight of `window` requests arrives in one read and is
/// pushed into the parser at once, then each request runs through its
/// steps before the next one is parsed, its allocations freed as it goes.
/// Returns the response bytes rendered (0 unless `steps` is 6).
fn pass(
    table: &VerdictTable,
    binary: bool,
    requests: &[&[u8]],
    window: usize,
    steps: usize,
) -> usize {
    let content_type = if binary {
        wire::BINARY_CONTENT_TYPE
    } else {
        "application/json"
    };
    let mut parser = RequestParser::new();
    let mut out = Vec::new();
    let mut rendered = 0;
    for flight in requests.chunks(window) {
        for bytes in flight {
            parser.push(bytes);
        }
        out.clear();
        for _ in flight {
            let request: HttpRequest = parser
                .next(MAX_BODY_BYTES)
                .expect("well-formed request")
                .expect("complete request");
            if steps == 1 {
                black_box(&request);
                continue;
            }
            let body = if binary {
                let decoded = wire::decode_binary_request(&request.body).expect("valid frame");
                if steps <= 3 {
                    // Id-form frames have no resolve step of their own.
                    black_box(&decoded);
                    continue;
                }
                let decision = table.decide_prebuilt(&keyed(table, &decoded.records[0]));
                if steps == 4 {
                    black_box(&decision);
                    continue;
                }
                binary_body(table, &decision)
            } else {
                let text = std::str::from_utf8(&request.body).expect("utf-8 body");
                let value = Value::parse(text).expect("valid JSON");
                let message = DecisionMessage::from_json_value(&value).expect("valid message");
                if steps == 2 {
                    black_box(&message);
                    continue;
                }
                let resolved = table.resolve(&message.as_request());
                if steps == 3 {
                    black_box(&resolved);
                    continue;
                }
                let decision = table.decide_prebuilt(&resolved);
                if steps == 4 {
                    black_box(&decision);
                    continue;
                }
                json_body(table, &decision)
            };
            if steps == 5 {
                black_box(&body);
                continue;
            }
            HttpResponse::bytes(content_type, body).render_into(&mut out, true);
        }
        rendered += black_box(&out).len();
    }
    rendered
}

/// Replay `requests` (complete HTTP request bytes) against `table`: one
/// pass through the first step only, one through the first two, … one
/// through all six — a span each — so a step's cost is its pass minus the
/// pass before it, with no clock read inside the per-request loop. The
/// fastest of several rounds is kept for every pass.
pub fn worker_steps(
    tracer: &mut Tracer,
    table: &VerdictTable,
    binary: bool,
    requests: &[&[u8]],
    window: usize,
) -> Steps {
    let mut through = [f64::INFINITY; 6];
    let mut rendered = 0;
    for round in 0..ROUNDS as u64 {
        let open = tracer.enter("replay.round", round);
        for (at, name) in STEPS.iter().enumerate() {
            let (bytes, elapsed) = tracer.time(name, round, || {
                pass(table, binary, requests, window, at + 1)
            });
            through[at] = through[at].min(elapsed.as_nanos() as f64 / requests.len() as f64);
            rendered = rendered.max(bytes);
        }
        tracer.exit(open);
    }
    if binary {
        // The resolve pass of an id-form sample is the decode pass again.
        through[2] = through[1];
    }
    let step = |at: usize| {
        let before = if at == 0 { 0.0 } else { through[at - 1] };
        (through[at] - before).max(0.0)
    };
    Steps {
        binary,
        parse_ns: step(0),
        decode_ns: step(1),
        resolve_ns: step(2),
        decide_ns: step(3),
        encode_ns: step(4),
        render_ns: step(5),
        response_bytes: rendered as f64 / requests.len() as f64,
    }
}

/// Cost of the rewriter on the URLs the JSON workload carries: the
/// token-hash prescreen that rejects clean URLs, and the full rewrite of
/// the ones that change. Informational — both are inside `decide_ns` for
/// the requests whose hierarchy walk reaches the rewrite arm.
#[derive(Debug, Default)]
pub struct RewriterSteps {
    prescreen_ns: f64,
    rewrite_ns: f64,
}

impl RewriterSteps {
    pub fn report(&self, result: &mut WorkloadResult) {
        result.layer("rewriter.prescreen_ns", self.prescreen_ns);
        result.layer("rewriter.rewrite_ns", self.rewrite_ns);
    }
}

pub fn rewriter_steps(messages: &[DecisionMessage]) -> RewriterSteps {
    let rewriter = RewriterBuilder::new().default_rules().build();
    let (dirty, clean): (Vec<&str>, Vec<&str>) = messages
        .iter()
        .filter_map(|message| message.url.as_deref())
        .partition(|url| rewriter.rewrite(url).is_some());
    let per_url = |urls: &[&str]| {
        if urls.is_empty() {
            return 0.0;
        }
        (0..ROUNDS)
            .map(|_| {
                let start = Instant::now();
                for url in urls {
                    black_box(rewriter.rewrite(black_box(url)));
                }
                start.elapsed().as_nanos() as f64 / urls.len() as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    RewriterSteps {
        prescreen_ns: per_url(&clean),
        rewrite_ns: per_url(&dirty),
    }
}

/// ns per observation of the server's `POST /v1/observations` decode —
/// JSON parse plus one `ObservationMessage` per row — over one request
/// body, fastest of several rounds.
pub fn observation_decode_ns(body: &[u8]) -> f64 {
    let text = std::str::from_utf8(body).expect("utf-8 body");
    (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            let value = Value::parse(text).expect("valid JSON");
            let rows = value
                .field("observations")
                .and_then(|rows| rows.as_array())
                .expect("observation rows");
            for row in rows {
                black_box(ObservationMessage::from_json_value(row).expect("valid observation"));
            }
            start.elapsed().as_nanos() as f64 / rows.len().max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}
