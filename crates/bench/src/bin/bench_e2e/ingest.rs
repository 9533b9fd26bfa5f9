//! `ingest_replicate`: writes beside reads.
//!
//! A durable primary (journal synced every 64 records, checkpoint past
//! 8 MiB — `DurabilityConfig::new`, the same on every run) ingests an
//! evolving websim web epoch by epoch while a replica follows it. Per
//! epoch the harness advances the ecosystem (input generation, untimed)
//! and then times, in order: URL-form `POST /v1/observations` in batches
//! of 1000, `POST /v1/commit`, the replica's sync to the committed
//! version, and a pipelined JSON read burst on that epoch's requests,
//! freshest keys first. Every few epochs a fresh replica bootstraps from
//! scratch. At the end the primary is shut down and restarted from its
//! durable directory.
//!
//! `crates/replica`'s follower loop is `ReplicaClient::sync` +
//! `ReplicaClient::table` + `TablePublisher::publish` on a timer; the
//! harness calls the same three directly so sync points are deterministic.

use crate::host::Reading;
use crate::load::{self, Conn, RequestSet, Shape, Traffic};
use crate::report::WorkloadResult;
use crate::stats::{self, Estimate, Rng, Sample};
use crate::trace::{self, Tracer};
use crate::{host, pipeline, reference, replay, Run};
use crawler::json::Value;
use filterlist::{registrable_domain, FilterEngine, ParsedUrl};
use scheduler::{Scheduler, SchedulerConfig, ScriptKeying};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use trackersift::{frames, FollowerState, Sifter, SifterReader, TablePublisher};
use trackersift_server::client::{ReplicaClient, RetryPolicy};
use trackersift_server::wire::{DecisionMessage, ObservationMessage};
use trackersift_server::{DurabilityConfig, SchedulerDriver, ServerConfig, VerdictServer};
use websim::{
    fingerprint_key, CorpusProfile, EcosystemMutator, MutationConfig, MutationReport, WebCorpus,
};

/// 200 sites keep an epoch (with its untimed input generation) near
/// 0.17 s on the reference host.
const SITES: usize = 200;
/// Epochs per second of `--seconds`. The count is fixed, not the time:
/// the table grows with every epoch, so peak memory and the number of
/// checkpoints repeat only if the number of epochs does.
const EPOCHS_PER_SECOND: f64 = 6.0;
const SERVER_WORKERS: usize = 2;
const OBSERVATION_BATCH: usize = 1_000;
const BURST_REQUESTS: usize = 2_000;
const BURST_WINDOW: usize = 16;
const BOOTSTRAP_EVERY: u64 = 10;
const MIN_EPOCHS: u64 = 20;
/// The epoch loop gives up on its count after this many times `--seconds`
/// of wall time: on a disk whose `fsync` has slowed 5x a fixed count would
/// run past the driver's time limit. Medians per epoch hold on fewer; peak
/// memory and the checkpoint count of such a run read low, and it says so.
const WALL_CAP: f64 = 3.0;
/// Ingest, commit and bootstrap are half decode/classify/export
/// arithmetic and half syscalls (socket, journal writes): they slow down
/// with the even blend of the two reference kernels. The read burst and
/// the delta sync are socket path like the serve workloads.
const INGEST_COMPUTE_SHARE: f64 = 0.5;
const SOCKET_PATH: f64 = 0.0;
/// Burst requests whose replica decision is compared with the primary's
/// after every sync.
const DECISION_SAMPLE: usize = 64;
/// Ticks of the identically seeded in-process scheduler in the traced run.
const SCHEDULER_TICKS: usize = 12;
/// One crawled request of the current epoch, fingerprint-keyed.
struct Crawled {
    observation: ObservationMessage,
    /// The script rotated to a fresh CDN host this epoch.
    fresh: bool,
}

/// Every planned request of the corpus the way the scheduler's re-crawl
/// observes it: script requests under the script's content fingerprint,
/// document requests under a per-page key.
fn crawl(corpus: &WebCorpus, report: Option<&MutationReport>) -> Vec<Crawled> {
    let rotated: HashSet<(usize, usize)> = report
        .map(|report| {
            report
                .rotations
                .iter()
                .map(|r| (r.site, r.script))
                .collect()
        })
        .unwrap_or_default();
    let mut out = Vec::new();
    for (site_index, site) in corpus.websites.iter().enumerate() {
        for (script_index, script) in site.scripts.iter().enumerate() {
            let key = fingerprint_key(script);
            for (method_index, request) in script.planned_requests() {
                out.push(Crawled {
                    observation: ObservationMessage::Url {
                        url: request.url.clone(),
                        source_hostname: site.hostname.clone(),
                        resource_type: request.resource_type,
                        script: key.clone(),
                        method: script.methods[method_index].name.clone(),
                    },
                    fresh: rotated.contains(&(site_index, script_index)),
                });
            }
        }
        let page_key = format!("page:{}", site.hostname);
        for request in &site.non_script_requests {
            out.push(Crawled {
                observation: ObservationMessage::Url {
                    url: request.url.clone(),
                    source_hostname: site.hostname.clone(),
                    resource_type: request.resource_type,
                    script: page_key.clone(),
                    method: "html".to_string(),
                },
                fresh: false,
            });
        }
    }
    out
}

/// `POST /v1/observations` bodies, 1000 observations each.
fn observation_posts(crawled: &[Crawled]) -> Vec<Vec<u8>> {
    crawled
        .chunks(OBSERVATION_BATCH)
        .map(|chunk| {
            let rows: Vec<String> = chunk
                .iter()
                .map(|c| c.observation.to_json_value().render())
                .collect();
            let body = format!(r#"{{"observations":[{}]}}"#, rows.join(","));
            load::http_post("/v1/observations", None, body.as_bytes())
        })
        .collect()
}

/// The decision query a blocker would send for a crawled request.
fn query_of(observation: &ObservationMessage) -> Option<DecisionMessage> {
    let ObservationMessage::Url {
        url,
        source_hostname,
        resource_type,
        script,
        method,
    } = observation
    else {
        return None;
    };
    let hostname = ParsedUrl::parse(url)?.hostname;
    Some(
        DecisionMessage::new(&registrable_domain(&hostname), &hostname, script, method).with_url(
            url,
            source_hostname,
            *resource_type,
        ),
    )
}

/// The read burst of an epoch: requests of freshly rotated scripts first,
/// the rest in seeded-shuffled order, 2000 in all.
fn burst_queries(crawled: &[Crawled], rng: &mut Rng) -> Vec<DecisionMessage> {
    let (mut fresh, mut rest): (Vec<usize>, Vec<usize>) =
        (0..crawled.len()).partition(|&at| crawled[at].fresh);
    rng.shuffle(&mut fresh);
    rng.shuffle(&mut rest);
    fresh
        .into_iter()
        .chain(rest)
        .filter_map(|at| query_of(&crawled[at].observation))
        .take(BURST_REQUESTS)
        .collect()
}

/// Pre-rendered burst requests with the body length the primary's
/// committed table implies for each.
fn burst_set(reader: &SifterReader, queries: &[DecisionMessage]) -> (RequestSet, Vec<Vec<u8>>) {
    let version = reader.version();
    let bodies: Vec<Vec<u8>> = queries
        .iter()
        .map(|query| reference::json_single(version, &reader.decide(&query.as_request())))
        .collect();
    let set = RequestSet {
        wire: queries
            .iter()
            .map(|query| {
                load::http_post(
                    "/v1/decisions",
                    None,
                    query.to_json_value().render().as_bytes(),
                )
            })
            .collect(),
        expect_len: bodies.iter().map(Vec::len).collect(),
    };
    (set, bodies)
}

fn start_primary(engine: &Arc<FilterEngine>, dir: &Path) -> (VerdictServer, SifterReader) {
    let (writer, reader) = Sifter::builder()
        .shared_engine(Arc::clone(engine))
        .build_concurrent();
    let server = VerdictServer::start(
        writer,
        ServerConfig {
            workers: SERVER_WORKERS,
            durability: Some(DurabilityConfig::new(dir)),
            ..ServerConfig::ephemeral()
        },
    )
    .expect("start durable primary");
    (server, reader)
}

fn json_field(body: &[u8], path: &[&str]) -> u64 {
    let text = std::str::from_utf8(body).expect("utf-8 reply");
    let mut value = &Value::parse(text).expect("JSON reply");
    for key in path {
        value = value.field(key).expect("reply field");
    }
    value.as_u64().expect("unsigned reply field")
}

/// What the server said about one epoch's observations and their commit,
/// and what the two cost: CPU seconds of the whole process (the gated
/// clock, see `host::Clock`) and wall seconds (to tell the disk wait).
#[derive(Debug, Default)]
struct Ingested {
    accepted: u64,
    skipped: u64,
    observe_cpu: f64,
    commit_cpu: f64,
    wall_seconds: f64,
    /// The committed version (0 when the commit was refused).
    version: u64,
    reclassified: u64,
}

/// Post one epoch's observations and commit them; refused requests count
/// into `failed`.
fn ingest_epoch(
    conn: &mut Conn,
    posts: &[Vec<u8>],
    tracer: &mut Tracer,
    op: u64,
    failed: &mut u64,
) -> Ingested {
    let mut ingested = Ingested::default();
    let (start, cpu_start) = (Instant::now(), host::process_cpu_s());
    for post in posts {
        let ((status, body), _) =
            tracer.time("server.observations_http", op, || conn.exchange(post));
        if status == 200 {
            ingested.accepted += json_field(&body, &["accepted"]);
            ingested.skipped += json_field(&body, &["skipped"]);
        } else {
            *failed += 1;
        }
    }
    let commit = load::http_post("/v1/commit", None, b"");
    let cpu_observed = host::process_cpu_s();
    let ((status, body), _) = tracer.time("server.commit_http", op, || conn.exchange(&commit));
    let cpu_committed = host::process_cpu_s();
    ingested.observe_cpu = cpu_observed - cpu_start;
    ingested.commit_cpu = cpu_committed - cpu_observed;
    ingested.wall_seconds = start.elapsed().as_secs_f64();
    if status == 200 {
        ingested.version = json_field(&body, &["version"]);
        ingested.reclassified = ["domains", "hostnames", "scripts", "methods"]
            .iter()
            .map(|level| json_field(&body, &["reclassified", level]))
            .sum();
    } else {
        *failed += 1;
    }
    ingested
}

/// `durability.journal.<field>` and the checkpoint generation from
/// `GET /v1/stats`.
fn journal_stat(conn: &mut Conn, field: &str) -> u64 {
    let (status, body) = conn.get("/v1/stats", None);
    assert_eq!(status, 200, "GET /v1/stats");
    json_field(&body, &["durability", "journal", field])
}

/// The replica side the harness drives: the follower client, and the
/// publisher/reader pair a replica server would serve from.
struct Replica {
    client: ReplicaClient,
    publisher: TablePublisher,
    reader: SifterReader,
}

fn new_client(server: &VerdictServer, engine: &Arc<FilterEngine>) -> ReplicaClient {
    ReplicaClient::new(
        server.local_addr(),
        RetryPolicy::default(),
        Some(Arc::clone(engine)),
        None,
    )
}

/// An identically seeded in-process scheduler ticking a durable writer:
/// the same ingest without the wire. Returns (median tick ms,
/// observations/s, retention rate).
fn scheduler_reference(seed: u64, dir: &Path) -> (f64, f64, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let mut scheduler = Scheduler::new(
        SchedulerConfig::new(seed)
            .with_sites(SITES)
            .with_mutation(MutationConfig::churny())
            .with_keying(ScriptKeying::Fingerprint),
    );
    let (mut writer, _reader) = scheduler.sifter_pair();
    writer
        .open_durable(dir, DurabilityConfig::new(dir).sync_every)
        .expect("open the scheduler's durable directory");
    let mut tick_ms = Vec::new();
    let mut observations = 0;
    for _ in 0..SCHEDULER_TICKS {
        let start = Instant::now();
        observations += scheduler.tick(&mut writer).observations;
        tick_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let seconds = tick_ms.iter().sum::<f64>() / 1e3;
    drop(writer);
    let _ = std::fs::remove_dir_all(dir);
    (
        stats::median(&tick_ms),
        observations as f64 / seconds,
        scheduler.retention_rate().unwrap_or(0.0),
    )
}

/// Everything set-up builds: the evolving corpus, the engine compiled for
/// it, a durable primary that ingested and committed the seed crawl, and
/// a replica bootstrapped from it.
struct Stack {
    corpus: WebCorpus,
    engine: Arc<FilterEngine>,
    server: VerdictServer,
    reader: SifterReader,
    conn: Conn,
    replica: Replica,
}

fn set_up(seed: u64, dir: &Path, tracer: &mut Tracer) -> Stack {
    let _ = std::fs::remove_dir_all(dir);
    let inputs = pipeline::generate(&CorpusProfile::small().with_sites(SITES), seed, tracer, 0);
    let engine = Arc::new(inputs.engine);
    let (server, reader) = start_primary(&engine, dir);
    let mut conn = Conn::connect(server.local_addr());
    let seed_crawl = crawl(&inputs.corpus, None);
    let mut failed = 0;
    ingest_epoch(
        &mut conn,
        &observation_posts(&seed_crawl),
        tracer,
        0,
        &mut failed,
    );
    // Age the revision ring past its capacity with single-observation
    // commits, as on any primary more than 64 commits old: from here on a
    // fresh follower's `since=0` is answered `410 Gone` with the full
    // snapshot, so every scheduled bootstrap takes the same path.
    let mut version = 0;
    for aged in seed_crawl
        .chunks(1)
        .take(trackersift::concurrent::DEFAULT_REVISION_CAPACITY)
    {
        version = ingest_epoch(&mut conn, &observation_posts(aged), tracer, 0, &mut failed).version;
    }
    assert_eq!(failed, 0, "the seed crawl must ingest cleanly");
    let mut client = new_client(&server, &engine);
    client.sync().expect("bootstrap the replica");
    assert_eq!(
        client.version(),
        version,
        "bootstrap lands on the seed commit"
    );
    let (publisher, replica_reader) = TablePublisher::new(Arc::new(client.table()));
    Stack {
        corpus: inputs.corpus,
        engine,
        server,
        reader,
        conn,
        replica: Replica {
            client,
            publisher,
            reader: replica_reader,
        },
    }
}

/// One metric's slices as they accumulate over the epochs.
#[derive(Default)]
struct Series(Vec<Sample>);

impl Series {
    fn push(&mut self, raw: f64, host: Reading) {
        self.0.push(Sample { raw, host });
    }

    fn estimate(self, compute_share: f64) -> Estimate {
        Estimate::of(self.0, compute_share)
    }
}

pub fn run(run: &mut Run<'_>, tracer: &mut Tracer) -> WorkloadResult {
    let mut result = WorkloadResult::new("ingest_replicate");
    let dir: PathBuf = run.scratch.join("durable-primary");
    let seed = run.seed;
    let planned = ((run.seconds * EPOCHS_PER_SECOND).round() as u64).max(MIN_EPOCHS);

    // The seed crawl and the 64 ring-ageing commits are fsync after fsync.
    let (stack, setup) = run.set_up(
        host::Clock::Cpu,
        INGEST_COMPUTE_SHARE,
        || {
            let open = tracer.enter("setup", 0);
            let stack = set_up(seed, &dir, tracer);
            tracer.exit(open);
            stack
        },
        |previous: Stack| {
            drop(previous.conn);
            previous.server.shutdown();
        },
    );
    let Stack {
        mut corpus,
        engine,
        server,
        reader,
        mut conn,
        mut replica,
    } = stack;
    result.measured(
        "setup_s",
        "CPU s of: corpus, engine build, durable primary start, seed crawl ingested and committed, replica bootstrap; median of the set-ups",
        setup,
    );

    let mut burst_conns =
        load::connect_balanced(server.local_addr(), host::nproc().min(SERVER_WORKERS));
    let mutator = EcosystemMutator::new(seed, MutationConfig::churny());
    let mut rng = Rng::new(seed);
    let mut shadow = FollowerState::new(Some(Arc::clone(&engine)), None);
    if tracer.enabled() {
        let pin = reader.pin();
        shadow
            .apply(&pin.table().full_snapshot_delta())
            .expect("seed the shadow follower");
    }

    let mut failed = 0u64;
    let mut attempted = 0u64;
    let (mut accepted_total, mut skipped_total, mut reclassified_total) = (0u64, 0u64, 0u64);
    let mut seconds_per_observation = Series::default();
    let (mut plain_commit_ms, mut checkpoint_commit_ms) = (Series::default(), Series::default());
    let mut sync_ms = Series::default();
    let mut bootstrap_ms = Series::default();
    let mut burst_seconds = Series::default();
    let mut checkpoints = journal_stat(&mut conn, "rotations");
    let mut replica_matches = true;
    let mut versions_match = true;
    let mut journal_bytes = 0u64;
    let mut disk_wait_seconds = 0.0;
    let mut changes_total = 0u64;
    let (mut delta_bytes, mut full_bytes) = (Vec::new(), Vec::new());
    let mut last_burst: Option<(RequestSet, Vec<Vec<u8>>)> = None;
    let admin_before = host::threads_named("verdict-admin");
    let appended_before = journal_stat(&mut conn, "appended");
    let syncs_before = journal_stat(&mut conn, "syncs");

    let began = Instant::now();
    let mut epochs = 0;
    for epoch in 1..=planned {
        if epoch > MIN_EPOCHS && began.elapsed().as_secs_f64() > WALL_CAP * run.seconds {
            eprintln!(
                "[ingest_replicate] stopping after {epochs} of {planned} epochs: {WALL_CAP}x the time budget is spent"
            );
            break;
        }
        epochs = epoch;
        let (report, _) = tracer.time("websim.mutate", epoch, || {
            mutator.advance(&mut corpus, epoch)
        });
        let crawled = crawl(&corpus, Some(&report));
        let posts = observation_posts(&crawled);
        let queries = burst_queries(&crawled, &mut rng);
        let bytes_before = if tracer.enabled() {
            journal_stat(&mut conn, "bytes")
        } else {
            0
        };
        let previous_version = reader.version();

        let host_before = run.reference.read();
        let open = tracer.enter("ingest.epoch", epoch);
        let Ingested {
            accepted,
            skipped,
            observe_cpu,
            commit_cpu,
            wall_seconds,
            version,
            reclassified,
        } = ingest_epoch(&mut conn, &posts, tracer, epoch, &mut failed);
        let cpu_committed = host::process_cpu_s();
        // The server acks a commit *before* the checkpoint that commit may
        // trigger (journal past 8 MiB: snapshot export + generation flip);
        // the next request to the admin thread waits for it. One such
        // request right after the ack shows when the writer is idle again
        // and, in its reply, whether the journal rotated.
        let (rotations, settle) = tracer.time("server.settle_http", epoch, || {
            journal_stat(&mut conn, "rotations")
        });
        let settle_cpu = host::process_cpu_s() - cpu_committed;
        disk_wait_seconds +=
            wall_seconds + settle.as_secs_f64() - (observe_cpu + commit_cpu + settle_cpu);
        // Read between the two timed blocks: the span is held open so the
        // epoch's wall time still adds up, and the reading is a child of it.
        let (host_committed, _) = tracer.time("host.reference", epoch, || run.reference.read());
        let (synced, elapsed) = tracer.time("replica.sync", epoch, || {
            let report = replica.client.sync();
            replica.publisher.publish(Arc::new(replica.client.table()));
            report
        });
        tracer.exit(open);
        attempted += posts.len() as u64 + 2;
        accepted_total += accepted;
        skipped_total += skipped;
        reclassified_total += reclassified;
        seconds_per_observation.push(
            (observe_cpu + commit_cpu) / accepted.max(1) as f64,
            host_before.mean(&host_committed),
        );
        if rotations > checkpoints {
            checkpoint_commit_ms.push((commit_cpu + settle_cpu) * 1e3, host_committed);
        } else {
            plain_commit_ms.push(commit_cpu * 1e3, host_committed);
        }
        checkpoints = rotations;
        sync_ms.push(elapsed.as_secs_f64() * 1e3, host_committed);
        match synced {
            Ok(report) => {
                versions_match &= !report.full
                    && report.to == version
                    && replica.reader.version() == version
                    && reader.version() == version;
            }
            Err(error) => {
                eprintln!("[ingest_replicate] sync failed at epoch {epoch}: {error}");
                failed += 1;
            }
        }

        // Untimed: what each burst response must look like, and whether
        // the replica decides a sample of it exactly as the primary does.
        let (set, bodies) = burst_set(&reader, &queries);
        replica_matches &= queries.iter().take(DECISION_SAMPLE).all(|query| {
            replica.reader.decide(&query.as_request()) == reader.decide(&query.as_request())
        });
        if tracer.enabled() {
            // Journal bytes this epoch's records added (the commit's
            // checkpoint may have rotated the file: then nothing to read).
            let bytes_after = journal_stat(&mut conn, "bytes");
            journal_bytes += bytes_after.saturating_sub(bytes_before);
            // The delta protocol's steps, replayed in-process over the
            // binary framing against a shadow follower.
            let pin = reader.pin();
            let table = pin.table();
            let open = tracer.enter("replay.delta", epoch);
            let delta = table
                .delta_since(previous_version)
                .expect("one-epoch delta");
            changes_total += delta.changes.len() as u64;
            let (encoded, _) = tracer.time("replay.frames.delta_encode", epoch, || {
                frames::encode_delta_snapshot(&delta)
            });
            let (decoded, _) = tracer.time("replay.frames.delta_decode", epoch, || {
                frames::decode_delta_snapshot(&encoded).expect("decode own delta")
            });
            tracer.time("replay.follower.apply", epoch, || {
                shadow.apply(&decoded).expect("apply own delta")
            });
            tracer.time("replay.follower.table", epoch, || {
                std::hint::black_box(shadow.table());
            });
            tracer.exit(open);
            delta_bytes.push(encoded.len() as f64);
            if epoch % BOOTSTRAP_EVERY == 0 {
                full_bytes
                    .push(frames::encode_delta_snapshot(&table.full_snapshot_delta()).len() as f64);
            }
        }

        let shape = Shape {
            per_conn: set.len() / burst_conns.len(),
            window: BURST_WINDOW,
            round_trips: false,
        };
        let open = tracer.enter("ingest.read_burst", epoch);
        let slice = load::run_slice(&mut burst_conns, &Traffic::in_order(&set), shape);
        tracer.exit(open);
        attempted += slice.requests;
        failed += slice.failed;
        let host_read = run.reference.read();
        burst_seconds.push(
            slice.wall.as_secs_f64() / slice.requests as f64,
            host_committed.mean(&host_read),
        );
        last_burst = Some((set, bodies));

        if epoch % BOOTSTRAP_EVERY == 0 {
            let mut fresh = new_client(&server, &engine);
            let (bootstrapped, elapsed) = tracer.time("replica.bootstrap", epoch, || {
                let report = fresh.sync();
                std::hint::black_box(fresh.table());
                report
            });
            attempted += 1;
            bootstrap_ms.push(
                elapsed.as_secs_f64() * 1e3,
                host_read.mean(&run.reference.read()),
            );
            match bootstrapped {
                Ok(report) => versions_match &= report.full && report.to == version,
                Err(error) => {
                    eprintln!("[ingest_replicate] bootstrap failed at epoch {epoch}: {error}");
                    failed += 1;
                }
            }
        }
    }
    result.measured_peak_rss();
    let admin = host::threads_named("verdict-admin").since(admin_before);
    let appended = journal_stat(&mut conn, "appended") - appended_before;
    let syncs = journal_stat(&mut conn, "syncs") - syncs_before;

    result.check(
        "replica version == primary version after every sync and bootstrap",
        versions_match,
    );
    result.check(
        "replica decisions equal primary decisions on the sampled burst requests",
        replica_matches,
    );
    result.check(
        format!(
            "no 410 outside the scheduled bootstraps (follower bootstrapped {} time(s))",
            replica.client.bootstraps()
        ),
        replica.client.bootstraps() == 1,
    );

    // Crash-only restart: shut the primary down, boot a fresh writer from
    // the durable directory, and ask the last burst again.
    let last_version = reader.version();
    drop((conn, burst_conns));
    server.shutdown();
    let start = Instant::now();
    let (restarted, restarted_reader) = start_primary(&engine, &dir);
    let recover_ms = start.elapsed().as_secs_f64() * 1e3;
    result.check(
        format!(
            "restarted primary serves the last acked version {last_version} (recovered {:?})",
            restarted.recovery()
        ),
        restarted_reader.version() == last_version,
    );
    let (set, bodies) = last_burst.expect("at least one epoch ran");
    let mut conn = Conn::connect(restarted.local_addr());
    let identical = set.wire.iter().zip(&bodies).all(|(wire, expected)| {
        let (status, body) = conn.exchange(wire);
        status == 200 && body == *expected
    });
    result.check(
        "restarted primary answers the last burst with identical bytes",
        identical,
    );
    drop(conn);
    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    result.attempted = attempted + accepted_total + skipped_total;
    result.failed = failed;
    result.check(
        format!(
            "{} of {} commits checkpointed (the slow path must be exercised)",
            checkpoint_commit_ms.0.len(),
            epochs
        ),
        !checkpoint_commit_ms.0.is_empty(),
    );
    result.measured(
        "throughput_per_s",
        "observations_per_s: acked observations / CPU s of the process over observe + commit, per epoch (disk waits excluded)",
        seconds_per_observation
            .estimate(INGEST_COMPUTE_SHARE)
            .into_rate(1.0),
    );
    result.measured(
        "bulk_throughput_per_s",
        "post_commit_decisions_per_s: decisions/s of the 2000-request pipelined JSON read burst after each commit",
        burst_seconds.estimate(SOCKET_PATH).into_rate(1.0),
    );
    result.measured(
        "latency_p50_ms",
        "commit_p50_ms: CPU ms of the process per POST /v1/commit that did not checkpoint (the marker fsync's wait excluded)",
        plain_commit_ms.estimate(INGEST_COMPUTE_SHARE),
    );
    result.measured(
        "latency_tail_ms",
        "commit_p90_ms: CPU ms of the process from POST /v1/commit until the writer finished the checkpoint that commit triggered (the ack precedes it; the next admin request waits; disk waits excluded)",
        checkpoint_commit_ms.estimate(INGEST_COMPUTE_SHARE),
    );
    result.measured(
        "replica_sync_p50_ms",
        "ms from commit ack to the replica publishing a table at that version (ReplicaClient::sync + table + publish)",
        sync_ms.estimate(SOCKET_PATH),
    );
    result.measured(
        "replica_bootstrap_p50_ms",
        "ms for a fresh ReplicaClient to fetch the full snapshot and build a servable table",
        bootstrap_ms.estimate(INGEST_COMPUTE_SHARE),
    );

    if tracer.enabled() {
        let totals = trace::totals(tracer.spans());
        let self_ms = |name: &str| totals.get(name).map_or(0.0, trace::Total::self_ms);
        pipeline::report_setup_layers(tracer, &mut result);
        result.layer("websim.mutate_ms", self_ms("websim.mutate"));
        result.layer(
            "core.service.reclassified_per_commit",
            reclassified_total as f64 / epochs as f64,
        );
        result.layer(
            "core.journal.appended_per_epoch",
            appended as f64 / epochs as f64,
        );
        result.layer("core.journal.syncs_per_epoch", syncs as f64 / epochs as f64);
        result.layer(
            "core.journal.bytes_per_observation",
            journal_bytes as f64 / accepted_total.max(1) as f64,
        );
        result.layer("core.journal.checkpoints", checkpoints as f64);
        result.layer(
            "core.journal.disk_wait_ms_per_epoch",
            disk_wait_seconds * 1e3 / epochs as f64,
        );
        result.layer("core.journal.recover_ms", recover_ms);
        result.layer(
            "core.frames.delta_encode_ms",
            self_ms("replay.frames.delta_encode"),
        );
        result.layer(
            "core.frames.delta_decode_ms",
            self_ms("replay.frames.delta_decode"),
        );
        result.layer("core.follower.apply_ms", self_ms("replay.follower.apply"));
        result.layer("core.follower.table_ms", self_ms("replay.follower.table"));
        let delta = stats::median(&delta_bytes);
        let full = stats::median(&full_bytes);
        result.layer("core.follower.delta_bytes", delta);
        result.layer("core.follower.full_bytes", full);
        result.layer("core.follower.delta_to_full_ratio", delta / full);
        result.layer(
            "core.revision.changes_per_commit",
            changes_total as f64 / epochs as f64,
        );
        let post = &observation_posts(&crawl(&corpus, None))[0];
        let body_at = post
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("request head")
            + 4;
        result.layer(
            "server.wire.observation_decode_ns",
            replay::observation_decode_ns(&post[body_at..]),
        );
        result.layer("server.wire.request_bytes", post.len() as f64);
        result.layer(
            "server.admin.run_ms_per_commit",
            admin.run_ns as f64 / 1e6 / epochs as f64,
        );
        result.layer(
            "server.admin.wait_ms_per_commit",
            admin.wait_ns as f64 / 1e6 / epochs as f64,
        );
        let (tick_ms, observations_per_s, retention) =
            scheduler_reference(seed, &run.scratch.join("durable-scheduler"));
        result.layer("scheduler.tick_ms", tick_ms);
        result.layer("scheduler.observations_per_s", observations_per_s);
        result.layer("scheduler.retention_rate", retention);
        result.layer(
            "trace.attributed_pct",
            trace::attributed_pct(tracer.spans(), "ingest.epoch"),
        );
    }
    result
}
