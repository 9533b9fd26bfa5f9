//! `serve_json` and `serve_binary`: a trained, rewriter-armed verdict
//! server answering decisions over a real socket.
//!
//! Both workloads share the server, the corpus and the three phases
//! (`pipelined`, `closed`, `batch`); they differ in the codec, which is
//! exactly what makes one the bypass workload of the other: `serve_json`
//! sends string keys with URL context (JSON decode, key resolve, rewriter
//! prescreen and filter-list backstop all run), `serve_binary` sends
//! id-form frames without context (none of those run; HTTP parse, poll and
//! the prebuilt-body copy are nearly all that is left).

use crate::load::{self, Conn, RequestSet, Shape, Slice, Traffic};
use crate::pipeline::{self, Labeled};
use crate::report::WorkloadResult;
use crate::stats::{self, Estimate, Rng, Sample};
use crate::trace::Tracer;
use crate::{host, reference, replay, Run};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::time::Duration;
use trackersift::{
    Decision, DecisionRequest, DecisionSource, LabeledRequest, RewriterBuilder, Sifter,
    SifterReader, Thresholds,
};
use trackersift_server::client::Client;
use trackersift_server::wire::{self, BinaryKeys, BinaryRecord, DecisionMessage};
use trackersift_server::{ServerConfig, VerdictServer};
use websim::CorpusProfile;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    Json,
    Binary,
}

const SITES: usize = 2_000;
const SERVER_WORKERS: usize = 2;
/// Distinct requests kept per workload: far beyond the key tables' cache
/// footprint, small enough to pre-render.
const DISTINCT_REQUESTS: usize = 32_768;
const BATCH_SIZE: usize = 128;
const DISTINCT_BATCHES: usize = 256;
/// Requests replayed through the worker's public steps in the traced run.
const REPLAYED_REQUESTS: usize = 8_192;

/// A served request is mostly syscalls, loopback TCP and context switches
/// between the client and worker threads sharing the CPU: the workload
/// slows down with the socket reference kernel (measured: over eight runs
/// on a busy host the raw pipelined rate moved by 38% between quartiles,
/// divided by the socket kernel by 3%, by the compute kernel by 18%).
const COMPUTE_SHARE: f64 = 0.0;

// Slices are sized to last 0.15–0.25 s on the reference host — long
// against the scheduler's few-ms time slices and the two reference
// readings around them, short enough that every phase holds well over ten.
impl Codec {
    fn workload(self) -> &'static str {
        match self {
            Codec::Json => "serve_json",
            Codec::Binary => "serve_binary",
        }
    }

    fn pipelined(self) -> Shape {
        match self {
            Codec::Json => Shape {
                window: 16,
                per_conn: 16_384,
                round_trips: false,
            },
            Codec::Binary => Shape {
                window: 64,
                per_conn: 65_536,
                round_trips: false,
            },
        }
    }

    fn closed(self) -> Shape {
        Shape {
            window: 1,
            per_conn: 8_192,
            round_trips: true,
        }
    }

    fn batch(self) -> Shape {
        match self {
            Codec::Json => Shape {
                window: 1,
                per_conn: 128,
                round_trips: false,
            },
            Codec::Binary => Shape {
                window: 1,
                per_conn: 4_096,
                round_trips: false,
            },
        }
    }
}

/// A started server with the in-process reader that shares its tables.
struct Stack {
    server: VerdictServer,
    reader: SifterReader,
    labeled: Labeled,
}

/// Everything a deployment does before its first decision: corpus, filter
/// engine, crawl, labels, training on the first 90%, server start.
fn set_up(seed: u64, tracer: &mut Tracer) -> Stack {
    let labeled =
        pipeline::crawl_and_label(&CorpusProfile::paper().with_sites(SITES), seed, tracer, 0);
    let split = labeled.requests.len() * 9 / 10;
    let ((writer, reader), _) = tracer.time("core.service.train", 0, || {
        let mut sifter = Sifter::builder()
            .thresholds(Thresholds::paper())
            .engine(labeled.engine.clone())
            .rewriter(RewriterBuilder::new().default_rules().build())
            .build();
        sifter.observe_all(&labeled.requests[..split]);
        sifter.commit();
        sifter.into_concurrent()
    });
    let (server, _) = tracer.time("server.start", 0, || {
        VerdictServer::start(
            writer,
            ServerConfig {
                workers: SERVER_WORKERS,
                ..ServerConfig::ephemeral()
            },
        )
        .expect("start verdict server")
    });
    Stack {
        server,
        reader,
        labeled,
    }
}

/// Distinct decision queries drawn from the whole corpus (trained and
/// held-out) in seeded-shuffled order.
fn distinct_messages(
    requests: &[LabeledRequest],
    codec: Codec,
    rng: &mut Rng,
) -> Vec<DecisionMessage> {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    rng.shuffle(&mut order);
    let mut seen = HashSet::new();
    let mut messages = Vec::new();
    for at in order {
        let request = &requests[at];
        let query = DecisionRequest::from_labeled(request);
        let mut message =
            DecisionMessage::new(query.domain, query.hostname, query.script, query.method);
        if codec == Codec::Json {
            let url = query.url.expect("labeled requests carry their URL");
            message = message.with_url(url, query.source_hostname, query.resource_type);
        }
        let identity = (
            message.domain.clone(),
            message.hostname.clone(),
            message.script.clone(),
            message.method.clone(),
            message.url.clone(),
        );
        if seen.insert(identity) {
            messages.push(message);
            if messages.len() == DISTINCT_REQUESTS {
                break;
            }
        }
    }
    messages
}

/// Pre-rendered singles and batches with the reference body of each.
struct Prepared {
    singles: RequestSet,
    single_bodies: Vec<Vec<u8>>,
    batches: RequestSet,
    batch_bodies: Vec<Vec<u8>>,
    decisions: Vec<Decision>,
}

fn prepare(stack: &Stack, codec: Codec, messages: &[DecisionMessage]) -> Prepared {
    let version = stack.reader.version();
    let decisions: Vec<Decision> = messages
        .iter()
        .map(|message| stack.reader.decide(&message.as_request()))
        .collect();
    let groups: Vec<std::ops::Range<usize>> = (0..DISTINCT_BATCHES
        .min(messages.len() / BATCH_SIZE))
        .map(|group| group * BATCH_SIZE..(group + 1) * BATCH_SIZE)
        .collect();
    let (single_wire, batch_wire): (Vec<Vec<u8>>, Vec<Vec<u8>>) = match codec {
        Codec::Json => {
            let rendered: Vec<String> = messages
                .iter()
                .map(|message| message.to_json_value().render())
                .collect();
            (
                rendered
                    .iter()
                    .map(|body| load::http_post("/v1/decisions", None, body.as_bytes()))
                    .collect(),
                groups
                    .iter()
                    .map(|group| {
                        let body =
                            format!(r#"{{"requests":[{}]}}"#, rendered[group.clone()].join(","));
                        load::http_post("/v1/decisions:batch", None, body.as_bytes())
                    })
                    .collect(),
            )
        }
        Codec::Binary => {
            // The id handshake a hot binary client completes once.
            let keys = Client::connect(stack.server.local_addr()).fetch_keys();
            let id = |name: &str| keys.id_of(name).unwrap_or(u32::MAX);
            let records: Vec<BinaryRecord<'_>> = messages
                .iter()
                .map(|message| BinaryRecord {
                    keys: BinaryKeys::Ids {
                        domain: id(&message.domain),
                        hostname: id(&message.hostname),
                        script: id(&message.script),
                        method: id(&message.method),
                    },
                    context: None,
                })
                .collect();
            let content_type = Some(wire::BINARY_CONTENT_TYPE);
            (
                records
                    .iter()
                    .map(|record| {
                        let frame = wire::encode_binary_single(keys.epoch, record);
                        load::http_post("/v1/decisions", content_type, &frame)
                    })
                    .collect(),
                groups
                    .iter()
                    .map(|group| {
                        let frame = wire::encode_binary_batch(keys.epoch, &records[group.clone()]);
                        load::http_post("/v1/decisions:batch", content_type, &frame)
                    })
                    .collect(),
            )
        }
    };
    let single_bodies: Vec<Vec<u8>> = decisions
        .iter()
        .map(|decision| match codec {
            Codec::Json => reference::json_single(version, decision),
            Codec::Binary => reference::binary_single(version, decision),
        })
        .collect();
    let batch_bodies: Vec<Vec<u8>> = groups
        .iter()
        .map(|group| match codec {
            Codec::Json => reference::json_batch(version, &decisions[group.clone()]),
            Codec::Binary => reference::binary_batch(version, &decisions[group.clone()]),
        })
        .collect();
    Prepared {
        singles: RequestSet {
            expect_len: single_bodies.iter().map(Vec::len).collect(),
            wire: single_wire,
        },
        single_bodies,
        batches: RequestSet {
            expect_len: batch_bodies.iter().map(Vec::len).collect(),
            wire: batch_wire,
        },
        batch_bodies,
        decisions,
    }
}

/// Send every distinct request once and count responses whose status or
/// bytes differ from the in-process reference.
fn mismatches(conn: &mut Conn, set: &RequestSet, bodies: &[Vec<u8>]) -> u64 {
    let mut wrong = 0;
    for (wire, expected) in set.wire.iter().zip(bodies) {
        conn.send(wire);
        let (status, body) = conn.response();
        if status != 200 || body != expected.as_slice() {
            wrong += 1;
        }
    }
    wrong
}

/// The equal slices of one timed phase.
struct Phase {
    slices: Vec<Slice>,
}

impl Phase {
    fn requests(&self) -> u64 {
        self.slices.iter().map(|slice| slice.requests).sum()
    }

    fn failed(&self) -> u64 {
        self.slices.iter().map(|slice| slice.failed).sum()
    }

    fn samples(&self, raw: impl Fn(&Slice) -> f64) -> Vec<Sample> {
        self.slices
            .iter()
            .map(|slice| Sample {
                raw: raw(slice),
                host: slice.host,
            })
            .collect()
    }

    /// Decisions per second: every slice carries the same number of
    /// requests, so the estimate is taken over the slices' wall times.
    fn rate(&self, decisions: usize) -> Estimate {
        Estimate::of(
            self.samples(|slice| slice.wall.as_secs_f64()),
            COMPUTE_SHARE,
        )
        .into_rate((self.slices[0].requests as usize * decisions) as f64)
    }

    /// A percentile of each slice's round trips.
    fn round_trips_ms(&self, p: f64) -> Vec<Sample> {
        self.samples(|slice| stats::supported_percentile(&slice.round_trips_ms, p))
    }

    /// A per-request CPU cost read from each slice's schedstat deltas: the
    /// median over the slices, as the kernel accounted it.
    fn ns_per_request(&self, cost: impl Fn(&Slice) -> u64) -> f64 {
        let per_slice: Vec<f64> = self
            .slices
            .iter()
            .map(|slice| cost(slice) as f64 / slice.requests as f64)
            .collect();
        stats::median(&per_slice)
    }

    fn client_run_ns_per_request(&self) -> f64 {
        self.ns_per_request(|slice| slice.client_run_ns)
    }

    fn worker_run_ns_per_request(&self) -> f64 {
        self.ns_per_request(|slice| slice.worker.run_ns)
    }
}

/// One timed phase after its untimed warm-up (5% of the budget).
fn phase(
    name: &'static str,
    reference: &mut host::Reference,
    tracer: &mut Tracer,
    conns: &mut [Conn],
    traffic: &mut Traffic<'_>,
    shape: Shape,
    budget: Duration,
) -> Phase {
    let warm_up = Shape {
        round_trips: false,
        ..shape
    };
    load::run_phase(reference, conns, traffic, warm_up, budget.mul_f64(0.05), 1);
    let open = tracer.enter(name, 0);
    let slices = load::run_phase(reference, conns, traffic, shape, budget, crate::MIN_SLICES);
    tracer.exit(open);
    Phase { slices }
}

fn share(decisions: &[Decision], pick: impl Fn(&Decision) -> bool) -> f64 {
    decisions.iter().filter(|decision| pick(decision)).count() as f64 / decisions.len() as f64
}

/// Sum over the workers of one `GET /v1/stats` counter.
fn worker_counter(addr: SocketAddr, field: &str) -> u64 {
    load::worker_counters(addr, field).iter().sum()
}

pub fn run(codec: Codec, run: &mut Run<'_>, tracer: &mut Tracer) -> WorkloadResult {
    let mut result = WorkloadResult::new(codec.workload());
    let (seed, seconds) = (run.seed, run.seconds);

    // Set-up is the study pipeline: it slows down with the compute kernel.
    let (stack, setup) = run.set_up(
        host::Clock::Wall,
        1.0,
        || {
            let open = tracer.enter("setup", 0);
            let stack = set_up(seed, tracer);
            tracer.exit(open);
            stack
        },
        |previous: Stack| previous.server.shutdown(),
    );
    result.measured(
        "setup_s",
        "corpus, engine build, crawl, label, train on 90%, server start; median of the set-ups",
        setup,
    );

    let mut rng = Rng::new(seed);
    let messages = distinct_messages(&stack.labeled.requests, codec, &mut rng);
    let prepared = prepare(&stack, codec, &messages);
    let addr = stack.server.local_addr();
    let mut conns = load::connect_balanced(addr, host::nproc().min(SERVER_WORKERS));

    // Correctness, outside every timed phase: each distinct request's
    // response bytes equal the in-process decision's reference encoding.
    let wrong = mismatches(&mut conns[0], &prepared.singles, &prepared.single_bodies)
        + mismatches(&mut conns[0], &prepared.batches, &prepared.batch_bodies);
    let verified = (prepared.singles.len() + prepared.batches.len()) as u64;
    result.check(
        format!(
            "{verified} distinct responses byte-equal to the in-process reader.decide encoding"
        ),
        wrong == 0,
    );
    result.attempted += verified;
    result.failed += wrong;
    let Prepared {
        singles,
        batches,
        decisions,
        ..
    } = prepared;

    let mut single_traffic = Traffic::shuffled(&singles, &mut rng);
    let mut batch_traffic = Traffic::shuffled(&batches, &mut rng);
    let errors_before = worker_counter(addr, "errors");
    let shed_before = worker_counter(addr, "shed_requests");
    let requests_before = worker_counter(addr, "requests");

    let mut timed = |name, traffic: &mut Traffic<'_>, shape, share| {
        phase(
            name,
            run.reference,
            tracer,
            &mut conns,
            traffic,
            shape,
            Duration::from_secs_f64(seconds * share),
        )
    };
    let pipelined = timed(
        "phase.pipelined",
        &mut single_traffic,
        codec.pipelined(),
        0.40,
    );
    let closed = timed("phase.closed", &mut single_traffic, codec.closed(), 0.35);
    let batch = timed("phase.batch", &mut batch_traffic, codec.batch(), 0.25);
    result.measured_peak_rss();

    for (name, phase) in [
        ("pipelined", &pipelined),
        ("closed", &closed),
        ("batch", &batch),
    ] {
        result.attempted += phase.requests();
        result.failed += phase.failed();
        // The phase must measure the server, not the generator.
        result.check(
            format!(
                "{name}: client.run_ns_per_request {:.0} < server.worker.run_ns_per_request {:.0}",
                phase.client_run_ns_per_request(),
                phase.worker_run_ns_per_request()
            ),
            phase.client_run_ns_per_request() < phase.worker_run_ns_per_request(),
        );
    }

    result.measured(
        "throughput_per_s",
        match codec {
            Codec::Json => {
                "decisions_per_s: decisions/s, pipelined JSON with URL context, window 16"
            }
            Codec::Binary => {
                "decisions_per_s: decisions/s, pipelined id-form binary frames, window 64"
            }
        },
        pipelined.rate(1),
    );
    result.measured(
        "bulk_throughput_per_s",
        "batch_decisions_per_s: decisions/s, 128 per :batch request, one in flight per connection",
        batch.rate(BATCH_SIZE),
    );
    result.measured(
        "latency_p50_ms",
        "latency_p50_ms: round trip, one request in flight per connection",
        Estimate::of(closed.round_trips_ms(0.50), COMPUTE_SHARE),
    );
    result.measured(
        "latency_tail_ms",
        "latency_p99_ms: round trip, one request in flight per connection; median over the slices of each slice's p99",
        Estimate::of(closed.round_trips_ms(0.99), COMPUTE_SHARE),
    );

    if tracer.enabled() {
        let block = share(&decisions, |d| matches!(d, Decision::Block(_)));
        result.layer("core.decision.block_share", block);
        result.layer(
            "core.decision.surrogate_share",
            share(&decisions, |d| matches!(d, Decision::Surrogate(_))),
        );
        result.layer(
            "core.decision.rewrite_share",
            share(&decisions, |d| matches!(d, Decision::Rewrite(_))),
        );
        result.layer(
            "core.decision.backstop_share",
            share(&decisions, |d| {
                d.source() == Some(DecisionSource::FilterList)
            }),
        );
        result.layer("server.wire.request_bytes", singles.mean_request_bytes());
        result.layer(
            "server.worker.run_ns_per_request",
            pipelined.worker_run_ns_per_request(),
        );
        result.layer(
            "server.worker.wait_ns_per_request",
            pipelined.ns_per_request(|slice| slice.worker.wait_ns),
        );
        result.layer(
            "client.run_ns_per_request",
            pipelined.client_run_ns_per_request(),
        );
        result.layer(
            "server.worker.requests",
            (worker_counter(addr, "requests") - requests_before) as f64,
        );
        result.layer(
            "server.worker.errors",
            (worker_counter(addr, "errors") - errors_before) as f64,
        );
        result.layer(
            "server.worker.shed",
            (worker_counter(addr, "shed_requests") - shed_before) as f64,
        );
        let sample: Vec<&[u8]> = single_traffic
            .order
            .iter()
            .take(REPLAYED_REQUESTS)
            .map(|&at| singles.wire[at as usize].as_slice())
            .collect();
        let pin = stack.reader.pin();
        let steps = replay::worker_steps(
            tracer,
            pin.table(),
            codec == Codec::Binary,
            &sample,
            codec.pipelined().window,
        );
        drop(pin);
        steps.report(&mut result);
        result.layer(
            "server.worker.residual_ns",
            pipelined.worker_run_ns_per_request() - steps.total_ns(),
        );
        if codec == Codec::Json {
            replay::rewriter_steps(&messages).report(&mut result);
        }
        pipeline::report_setup_layers(tracer, &mut result);
    }

    drop(conns);
    stack.server.shutdown();
    result
}
