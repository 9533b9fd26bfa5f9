//! The load generator: keep-alive HTTP/1.1 connections that pipeline
//! pre-rendered requests and check every response (status and body
//! length) as it arrives. Closed loop — a connection sends its next flight
//! only after the previous one completed — because the callers being
//! modelled are blocking proxy workers.
//!
//! The client is kept deliberately cheap (one write per flight, a
//! scan-only response parser, no allocation per request) so a phase
//! measures the server; each client thread reports its own CPU time so the
//! harness can check that it stayed below the server's.

use crate::host;
use crate::stats::Rng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A pre-rendered `POST` with an optional `Content-Type`.
pub fn http_post(target: &str, content_type: Option<&str>, body: &[u8]) -> Vec<u8> {
    let content_type = content_type
        .map(|value| format!("Content-Type: {value}\r\n"))
        .unwrap_or_default();
    let mut request = format!(
        "POST {target} HTTP/1.1\r\nHost: verdicts\r\n{content_type}Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    request
}

/// Status, head length and declared body length of the response at the
/// start of `bytes`; `None` until the head is complete.
fn parse_head(bytes: &[u8]) -> Option<(u16, usize, usize)> {
    let head_end = bytes.windows(4).position(|window| window == b"\r\n\r\n")?;
    let head = &bytes[..head_end];
    let status = std::str::from_utf8(head.get(9..12)?).ok()?.parse().ok()?;
    let mut content_length = None;
    for line in head.split(|&byte| byte == b'\n') {
        let Some(colon) = line.iter().position(|&byte| byte == b':') else {
            continue;
        };
        if line[..colon].eq_ignore_ascii_case(b"content-length") {
            content_length = std::str::from_utf8(&line[colon + 1..])
                .ok()
                .and_then(|value| value.trim().parse().ok());
        }
    }
    Some((status, head_end + 4, content_length?))
}

/// One keep-alive connection with a carried-over receive buffer.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buffer: Vec<u8>,
    /// Start of the unconsumed bytes in `buffer`.
    start: usize,
    chunk: Box<[u8; 64 * 1024]>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the verdict server");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set read timeout");
        stream.set_nodelay(true).expect("set nodelay");
        Conn {
            stream,
            buffer: Vec::with_capacity(128 * 1024),
            start: 0,
            chunk: Box::new([0u8; 64 * 1024]),
        }
    }

    pub fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write request");
    }

    fn fill(&mut self) {
        if self.start == self.buffer.len() {
            self.buffer.clear();
            self.start = 0;
        } else if self.start > 64 * 1024 {
            self.buffer.drain(..self.start);
            self.start = 0;
        }
        let read = self
            .stream
            .read(&mut self.chunk[..])
            .expect("read response");
        assert!(read > 0, "server closed the connection mid-response");
        self.buffer.extend_from_slice(&self.chunk[..read]);
    }

    /// Consume one response; the returned body borrows the receive buffer
    /// and is valid until the next call.
    pub fn response(&mut self) -> (u16, &[u8]) {
        loop {
            if let Some((status, head_len, body_len)) = parse_head(&self.buffer[self.start..]) {
                let body_at = self.start + head_len;
                if self.buffer.len() >= body_at + body_len {
                    self.start = body_at + body_len;
                    return (status, &self.buffer[body_at..body_at + body_len]);
                }
            }
            self.fill();
        }
    }

    /// One blocking exchange: send, then read the single response.
    pub fn exchange(&mut self, request: &[u8]) -> (u16, Vec<u8>) {
        self.send(request);
        let (status, body) = self.response();
        (status, body.to_vec())
    }

    /// `GET target`, optionally asking for a representation with `Accept`.
    pub fn get(&mut self, target: &str, accept: Option<&str>) -> (u16, Vec<u8>) {
        let accept = accept
            .map(|value| format!("Accept: {value}\r\n"))
            .unwrap_or_default();
        let request =
            format!("GET {target} HTTP/1.1\r\nHost: verdicts\r\n{accept}Content-Length: 0\r\n\r\n");
        self.exchange(request.as_bytes())
    }
}

/// One counter of every server worker, in worker order, from
/// `GET /v1/stats` (over a connection of its own: the server closes
/// connections that sit idle through a phase).
pub fn worker_counters(addr: SocketAddr, field: &str) -> Vec<u64> {
    let (status, body) = Conn::connect(addr).get("/v1/stats", None);
    assert_eq!(status, 200, "GET /v1/stats");
    let text = std::str::from_utf8(&body).expect("utf-8 stats");
    crawler::json::Value::parse(text)
        .expect("stats parse")
        .field("workers")
        .and_then(|workers| workers.as_array())
        .expect("per-worker counters")
        .iter()
        .map(|worker| {
            worker
                .field(field)
                .and_then(|v| v.as_u64())
                .expect("counter")
        })
        .collect()
}

/// Open `count` load connections, each served by a different worker.
///
/// The workers race to accept, so which worker a fresh connection lands
/// on is luck — and two connections on one worker batch differently from
/// one each, which would make whole runs bimodal. A probe decision shows
/// (in the per-worker `decisions` counter) who accepted a connection; one
/// that landed on an already-taken worker is dropped and retried.
pub fn connect_balanced(addr: SocketAddr, count: usize) -> Vec<Conn> {
    let probe = http_post(
        "/v1/decisions",
        None,
        br#"{"domain":"-","hostname":"-","script":"-","method":"-"}"#,
    );
    let mut taken = vec![false; worker_counters(addr, "decisions").len()];
    assert!(count <= taken.len(), "more load connections than workers");
    let mut conns = Vec::new();
    for _ in 0..256 {
        if conns.len() == count {
            return conns;
        }
        let mut conn = Conn::connect(addr);
        let before = worker_counters(addr, "decisions");
        let (status, _) = conn.exchange(&probe);
        assert_eq!(status, 200, "probe decision");
        let after = worker_counters(addr, "decisions");
        let worker = (0..taken.len())
            .find(|&index| after[index] > before[index])
            .expect("some worker served the probe");
        if !taken[worker] {
            taken[worker] = true;
            conns.push(conn);
        }
    }
    panic!("could not spread {count} connections over the workers");
}

/// Pre-rendered requests with the body length each response must have.
#[derive(Debug, Default)]
pub struct RequestSet {
    pub wire: Vec<Vec<u8>>,
    pub expect_len: Vec<usize>,
}

impl RequestSet {
    pub fn len(&self) -> usize {
        self.wire.len()
    }

    pub fn mean_request_bytes(&self) -> f64 {
        self.wire.iter().map(Vec::len).sum::<usize>() as f64 / self.len().max(1) as f64
    }
}

/// What one slice of a phase did.
#[derive(Debug, Default)]
pub struct Slice {
    pub requests: u64,
    pub failed: u64,
    pub wall: Duration,
    /// CPU time of the client threads, from their own schedstat.
    pub client_run_ns: u64,
    /// Scheduler statistics of the server's worker threads over the slice.
    pub worker: host::SchedStat,
    /// Per-flight round trips in ms (recorded only when asked for).
    pub round_trips_ms: Vec<f64>,
    /// The reference readings around the slice (`run_phase` fills it in).
    pub host: host::Reading,
}

/// The requests a phase draws from: a set, an order through it, and how
/// far the slices so far have got.
#[derive(Debug)]
pub struct Traffic<'a> {
    pub set: &'a RequestSet,
    pub order: Vec<u32>,
    cursor: usize,
}

impl<'a> Traffic<'a> {
    /// The whole set in seeded-shuffled order.
    pub fn shuffled(set: &'a RequestSet, rng: &mut Rng) -> Traffic<'a> {
        let mut traffic = Traffic::in_order(set);
        rng.shuffle(&mut traffic.order);
        traffic
    }

    /// The whole set in the order it was built.
    pub fn in_order(set: &'a RequestSet) -> Traffic<'a> {
        Traffic {
            set,
            order: (0..set.len() as u32).collect(),
            cursor: 0,
        }
    }
}

/// Shape of a slice: requests per connection, how many of them are in
/// flight at once, and whether each flight's round trip is recorded.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub per_conn: usize,
    pub window: usize,
    pub round_trips: bool,
}

/// Drive `shape.per_conn` requests down every connection at once,
/// `shape.window` in flight per connection, taking requests from the
/// traffic's order starting at its cursor (which `run_phase` advances). A
/// non-200 status or a body of the wrong length counts as failed.
pub fn run_slice(conns: &mut [Conn], traffic: &Traffic<'_>, shape: Shape) -> Slice {
    let Traffic { set, order, cursor } = traffic;
    let Shape {
        per_conn,
        window,
        round_trips: record_round_trips,
    } = shape;
    let worker_before = host::threads_named("verdict-worker");
    let start = Instant::now();
    let parts: Vec<(u64, u64, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(index, conn)| {
                std::thread::Builder::new()
                    .name(format!("bench-client-{index}"))
                    .spawn_scoped(scope, move || {
                        let before = host::this_thread();
                        let mut failed = 0u64;
                        let mut round_trips = Vec::new();
                        let mut flight = Vec::new();
                        let mut done = 0usize;
                        let base = cursor + index * per_conn;
                        while done < per_conn {
                            let count = window.min(per_conn - done);
                            flight.clear();
                            for k in 0..count {
                                let at = order[(base + done + k) % order.len()] as usize;
                                flight.extend_from_slice(&set.wire[at]);
                            }
                            let sent = Instant::now();
                            conn.send(&flight);
                            for k in 0..count {
                                let at = order[(base + done + k) % order.len()] as usize;
                                let (status, body) = conn.response();
                                if status != 200 || body.len() != set.expect_len[at] {
                                    failed += 1;
                                }
                            }
                            if record_round_trips {
                                round_trips.push(sent.elapsed().as_nanos() as f64 / 1e6);
                            }
                            done += count;
                        }
                        let run_ns = host::this_thread().since(before).run_ns;
                        (failed, run_ns, round_trips)
                    })
                    .expect("spawn client thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed();
    let mut slice = Slice {
        requests: (per_conn * conns.len()) as u64,
        wall,
        worker: host::threads_named("verdict-worker").since(worker_before),
        ..Slice::default()
    };
    for (failed, run_ns, round_trips) in parts {
        slice.failed += failed;
        slice.client_run_ns += run_ns;
        slice.round_trips_ms.extend(round_trips);
    }
    slice
}

/// Equal slices of one phase, each between two reference readings, run
/// until `budget` is spent (never fewer than `min_slices`), with the
/// cursor advancing through the traffic's order.
pub fn run_phase(
    reference: &mut host::Reference,
    conns: &mut [Conn],
    traffic: &mut Traffic<'_>,
    shape: Shape,
    budget: Duration,
    min_slices: usize,
) -> Vec<Slice> {
    let start = Instant::now();
    let mut slices = Vec::new();
    while slices.len() < min_slices || start.elapsed() < budget {
        let (mut slice, sample) =
            reference.time(host::Clock::Wall, || run_slice(conns, traffic, shape));
        slice.host = sample.host;
        slices.push(slice);
        traffic.cursor = (traffic.cursor + shape.per_conn * conns.len()) % traffic.order.len();
    }
    slices
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_heads_parse_only_when_complete() {
        let full = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 12\r\nConnection: keep-alive\r\n\r\n{\"a\":1}";
        let head_len = full.len() - 7;
        assert_eq!(parse_head(full), Some((200, head_len, 12)));
        assert_eq!(parse_head(&full[..head_len - 1]), None);
        let shed =
            b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\nRetry-After: 1\r\n\r\n";
        assert_eq!(parse_head(shed), Some((503, shed.len(), 0)));
        // A head without a length is not a response this client accepts.
        assert_eq!(parse_head(b"HTTP/1.1 200 OK\r\n\r\n"), None);
    }

    #[test]
    fn posts_render_with_length_and_type() {
        let request = http_post("/v1/decisions", Some("application/x-test"), b"abc");
        let text = String::from_utf8(request).expect("ascii request");
        assert!(text.starts_with("POST /v1/decisions HTTP/1.1\r\n"));
        assert!(text.contains("Content-Type: application/x-test\r\n"));
        assert!(text.ends_with("Content-Length: 3\r\n\r\nabc"));
    }
}
