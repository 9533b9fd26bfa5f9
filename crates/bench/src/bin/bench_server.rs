//! Connection-scaling and overload benchmark of the HTTP/1.1 verdict
//! server, written as a machine-readable `BENCH_server.json`. These are the
//! two measurements `bench_e2e` does not take (its serve workloads hold the
//! connection count fixed and never exceed the admission budget):
//!
//! * `connections` — JSON `POST /v1/decisions`, one decision per round
//!   trip, swept across 2, 64 and 512 concurrent keep-alive connections
//!   against the same fixed worker pool, sizing the readiness-polled
//!   scheduler;
//! * `overload` — a second server with a deliberately tiny connection
//!   budget, driven at 2× that budget: sheds (`503` + `Retry-After` at
//!   accept) are counted and retried, measuring the shed rate and the
//!   latency tail the *admitted* requests keep under admission control.
//!
//! Reported per point: requests/sec and p50/p99 latency.
//!
//! Scale can be overridden through the environment:
//!
//! * `TRACKERSIFT_BENCH_SITES` — corpus size behind the server (default 1000);
//! * `TRACKERSIFT_BENCH_HTTP_WORKERS` — server workers (default 2);
//! * `TRACKERSIFT_BENCH_HTTP_SWEEP_REQUESTS` — requests per connection-sweep
//!   point (default 20,000);
//! * `TRACKERSIFT_BENCH_HTTP_OVERLOAD_BUDGET` — connection budget of the
//!   overload server; the load runs at twice this many clients (default 4);
//! * `TRACKERSIFT_BENCH_HTTP_OVERLOAD_REQUESTS` — admitted requests to
//!   complete under overload (default 4,000);
//! * `TRACKERSIFT_BENCH_OUT` — output path (default `BENCH_server.json`).

use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};
use trackersift::{ObservationRef, Sifter, Study, StudyConfig};
use trackersift_bench::env_usize;
use trackersift_server::client::Client;
use trackersift_server::wire::DecisionMessage;
use trackersift_server::{ServerConfig, VerdictServer};
use websim::CorpusProfile;

/// Run `total` requests across `clients` keep-alive connections; returns
/// (elapsed, sorted per-request latencies).
fn drive(
    addr: SocketAddr,
    clients: usize,
    total: usize,
    target: &str,
    bodies: &[String],
) -> (Duration, Vec<f64>) {
    let per_client = total.div_ceil(clients);
    let start = Instant::now();
    let mut latencies: Vec<f64> = thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|index| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    let mut samples = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        let body = &bodies[(index + i * clients) % bodies.len()];
                        let sent = Instant::now();
                        let (status, _) = client.request("POST", target, Some(body));
                        samples.push(sent.elapsed().as_secs_f64() * 1e3);
                        assert_eq!(status, 200, "non-200 response from {target}");
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("client thread"))
            .collect()
    });
    let elapsed = start.elapsed();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    (elapsed, latencies)
}

/// Drive `total` *admitted* requests across `clients` keep-alive
/// connections against a server whose connection budget is smaller than
/// `clients`. A shed connection (the accept-time `503`, or the reset that
/// can race it on loopback) is counted, backed off briefly, and replaced
/// with a fresh connect, so every thread eventually completes its quota as
/// admitted peers finish and release budget. Returns (elapsed, sorted
/// admitted-request latencies in ms, shed count).
fn drive_overload(
    addr: SocketAddr,
    clients: usize,
    total: usize,
    target: &str,
    bodies: &[String],
) -> (Duration, Vec<f64>, u64) {
    let per_client = total.div_ceil(clients);
    let start = Instant::now();
    let (mut latencies, sheds) = thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|index| {
                scope.spawn(move || {
                    let mut samples = Vec::with_capacity(per_client);
                    let mut sheds = 0u64;
                    let mut conn: Option<Client> = None;
                    let mut served = 0usize;
                    while served < per_client {
                        let Some(client) = conn.as_mut() else {
                            match Client::try_connect(addr, Duration::from_secs(1)) {
                                Ok(fresh) => conn = Some(fresh),
                                Err(_) => thread::sleep(Duration::from_millis(1)),
                            }
                            continue;
                        };
                        let body = bodies[(index + served * clients) % bodies.len()].as_bytes();
                        let sent = Instant::now();
                        match client.try_request_bytes("POST", target, None, body) {
                            Ok(response) if response.status == 200 => {
                                samples.push(sent.elapsed().as_secs_f64() * 1e3);
                                served += 1;
                            }
                            Ok(response) => {
                                assert_eq!(
                                    response.status, 503,
                                    "unexpected status under overload"
                                );
                                sheds += 1;
                                conn = None;
                                thread::sleep(Duration::from_millis(1));
                            }
                            Err(_) => {
                                // The server closed right after its
                                // accept-time 503 and the reset ate the
                                // response bytes; same shed, different race.
                                sheds += 1;
                                conn = None;
                                thread::sleep(Duration::from_millis(1));
                            }
                        }
                    }
                    (samples, sheds)
                })
            })
            .collect();
        handles
            .into_iter()
            .fold((Vec::new(), 0u64), |(mut all, shed), handle| {
                let (samples, count) = handle.join().expect("client thread");
                all.extend(samples);
                (all, shed + count)
            })
    });
    let elapsed = start.elapsed();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    (elapsed, latencies, sheds)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let index = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[index]
}

fn main() {
    let sites = env_usize("TRACKERSIFT_BENCH_SITES", 1_000);
    let workers = env_usize("TRACKERSIFT_BENCH_HTTP_WORKERS", 2).max(1);
    let sweep_requests = env_usize("TRACKERSIFT_BENCH_HTTP_SWEEP_REQUESTS", 20_000).max(1);
    let overload_budget = env_usize("TRACKERSIFT_BENCH_HTTP_OVERLOAD_BUDGET", 4).max(1);
    let overload_requests = env_usize("TRACKERSIFT_BENCH_HTTP_OVERLOAD_REQUESTS", 4_000).max(1);
    let out_path =
        std::env::var("TRACKERSIFT_BENCH_OUT").unwrap_or_else(|_| "BENCH_server.json".to_string());

    eprintln!(
        "bench_server: {sites} sites, {sweep_requests} requests per sweep point, \
         {overload_requests} under overload, {workers} workers …"
    );
    let study = Study::run(StudyConfig {
        profile: CorpusProfile::paper().with_sites(sites),
        seed: 2021,
        ..StudyConfig::default()
    });
    let start_server = |config: ServerConfig| {
        let mut sifter = Sifter::builder()
            .thresholds(study.config.thresholds)
            .build();
        sifter.apply_batch(study.requests.iter().map(ObservationRef::from));
        sifter.commit();
        let (writer, _reader) = sifter.into_concurrent();
        VerdictServer::start(writer, config).expect("start verdict server")
    };

    // Query bodies drawn from the corpus, keys-only (the lock-free path).
    let bodies: Vec<String> = study
        .requests
        .iter()
        .step_by((study.requests.len() / 512).max(1))
        .map(|request| {
            DecisionMessage::new(
                &request.domain,
                &request.hostname,
                &request.initiator_script,
                &request.initiator_method,
            )
            .to_json_value()
            .render()
        })
        .collect();

    // Connection scheduler sweep: the same JSON single-decision load over
    // growing numbers of concurrent keep-alive connections on a fixed pool.
    let server = start_server(ServerConfig {
        workers,
        ..ServerConfig::ephemeral()
    });
    let addr = server.local_addr();
    // Warm up every worker's connection-handling path.
    drive(addr, workers, workers * 16, "/v1/decisions", &bodies);
    let sweep: Vec<String> = [2usize, 64, 512]
        .into_iter()
        .map(|conns| {
            let (elapsed, lat) = drive(addr, conns, sweep_requests, "/v1/decisions", &bodies);
            format!(
                r#"{{
      "clients": {conns},
      "requests": {served},
      "requests_per_sec": {rps:.2},
      "p50_ms": {p50:.4},
      "p99_ms": {p99:.4}
    }}"#,
                served = lat.len(),
                rps = lat.len() as f64 / elapsed.as_secs_f64(),
                p50 = percentile(&lat, 0.50),
                p99 = percentile(&lat, 0.99),
            )
        })
        .collect();
    server.shutdown();

    // Overload: a fresh server whose admission control caps concurrent
    // connections at `overload_budget`, driven by twice that many clients.
    let overload_server = start_server(ServerConfig {
        workers,
        max_connections: overload_budget,
        ..ServerConfig::ephemeral()
    });
    let overload_clients = overload_budget * 2;
    let (overload_elapsed, overload_lat, overload_sheds) = drive_overload(
        overload_server.local_addr(),
        overload_clients,
        overload_requests,
        "/v1/decisions",
        &bodies,
    );
    overload_server.shutdown();
    let overload_admitted = overload_lat.len();
    let overload_shed_rate =
        overload_sheds as f64 / (overload_admitted as f64 + overload_sheds as f64).max(1.0);

    let json = format!(
        r#"{{
  "benchmark": "server",
  "sites": {sites},
  "labeled_requests": {labeled},
  "workers": {workers},
  "cores": {cores},
  "connections": [
    {connections}
  ],
  "overload": {{
    "connection_budget": {overload_budget},
    "clients": {overload_clients},
    "admitted_requests": {overload_admitted},
    "shed_connections": {overload_sheds},
    "shed_rate": {overload_shed_rate:.4},
    "admitted_requests_per_sec": {overload_rps:.2},
    "admitted_p50_ms": {overload_p50:.4},
    "admitted_p99_ms": {overload_p99:.4}
  }}
}}"#,
        labeled = study.requests.len(),
        cores = thread::available_parallelism().map_or(1, usize::from),
        connections = sweep.join(",\n    "),
        overload_rps = overload_admitted as f64 / overload_elapsed.as_secs_f64(),
        overload_p50 = percentile(&overload_lat, 0.50),
        overload_p99 = percentile(&overload_lat, 0.99),
    );
    std::fs::write(&out_path, format!("{json}\n")).expect("write benchmark output");
    eprintln!("wrote {out_path}");
    println!("{json}");
}
