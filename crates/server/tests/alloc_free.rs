//! The decision path allocates nothing: from pipelined request bytes in a
//! connection's parser to response bytes in its output buffer, a JSON or
//! binary decision that resolves to a preformatted answer touches no heap
//! once the two buffers are warm — and the bytes are the ones the owned,
//! tree-building API renders. The write path allocates per batch, not per
//! row: a `POST /v1/observations` body decodes into one arena, and
//! journaling its rows, syncing them once, labeling and folding them on a
//! warm writer touch no heap at all.

use filterlist::ListKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use trackersift_engine::{
    Decision, DecisionSource, ObservationRef, PrebuiltDecision, RewriterBuilder, Sifter,
    SifterReader, VerdictTable,
};
use trackersift_json::{object, Value};
use trackersift_server::decide;
use trackersift_server::http::{HttpResponse, RequestParser};
use trackersift_server::wire::{
    self, BinaryKeys, BinaryRecord, DecisionMessage, ObservationMessage,
};
use trackersift_server::DurabilityConfig;

// ---------------------------------------------------------------------------
// A counting allocator (the pattern of the suite's `tests/service_api.rs`):
// the counter is thread-local, so tests running concurrently on other
// threads cannot perturb a measurement.
// ---------------------------------------------------------------------------

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the only addition is a
// thread-local counter bump, which itself never allocates (const-initialised
// TLS).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(|c| c.get());
    let result = f();
    let after = ALLOCATIONS.with(|c| c.get());
    (after - before, result)
}

// ---------------------------------------------------------------------------
// fixtures
// ---------------------------------------------------------------------------

/// A trained reader with every serve-time arm armed — hierarchy verdicts,
/// a filter-list backstop, a URL rewriter — as the benchmark's server is.
fn trained() -> SifterReader {
    let mut sifter = Sifter::builder()
        .filter_lists(&[(ListKind::EasyList, "||blocked.example^\n")])
        .rewriter(RewriterBuilder::new().default_rules().build())
        .build();
    for _ in 0..5 {
        sifter.apply(ObservationRef::parts(
            "ads.com",
            "px.ads.com",
            "https://pub.com/a.js",
            "send",
            true,
        ));
        sifter.apply(ObservationRef::parts(
            "cdn.com",
            "a.cdn.com",
            "https://pub.com/ui.js",
            "load",
            false,
        ));
    }
    sifter.commit();
    sifter.into_concurrent().1
}

/// Queries with URL context: three the hierarchy settles, then two it has
/// never seen a key of, which go on to the filter-list backstop — one the
/// list blocks, one (with upper-case to fold) it allows.
fn messages() -> Vec<DecisionMessage> {
    let with_url = |message: DecisionMessage, url: &str| {
        message.with_url(url, "pub.com", filterlist::ResourceType::Image)
    };
    vec![
        with_url(
            DecisionMessage::new("ads.com", "px.ads.com", "https://pub.com/a.js", "send"),
            "https://px.ads.com/pixel.gif?utm_source=feed&page=7",
        ),
        with_url(
            DecisionMessage::new("cdn.com", "a.cdn.com", "https://pub.com/ui.js", "load"),
            "https://a.cdn.com/logo.png",
        ),
        // A hostname and a method the table has never seen, under a domain
        // it has: resolved to "unknown" keys, settled one level up.
        with_url(
            DecisionMessage::new("ads.com", "new.ads.com", "https://pub.com/b.js", "fire"),
            "https://new.ads.com/collect",
        ),
        with_url(
            DecisionMessage::new(
                "blocked.example",
                "px.blocked.example",
                "https://pub.com/z.js",
                "go",
            ),
            "https://px.blocked.example/t.gif?id=1",
        ),
        with_url(
            DecisionMessage::new(
                "unseen.example",
                "cdn.unseen.example",
                "https://pub.com/z.js",
                "go",
            ),
            "HTTPS://CDN.Unseen.Example/Logo.PNG",
        ),
    ]
}

fn http_post(target: &str, content_type: &str, body: &[u8]) -> Vec<u8> {
    let mut request = format!(
        "POST {target} HTTP/1.1\r\nHost: verdicts\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    request
}

/// What the worker does with one socket read: take every complete request
/// out of the parser and answer it into `out`. Returns decisions served.
fn serve(parser: &mut RequestParser, table: &VerdictTable, batch: bool, out: &mut Vec<u8>) -> u64 {
    let mut served = 0;
    while let Some(request) = parser.next_view(1 << 20).expect("well-formed request") {
        let keep_alive = request.keep_alive();
        served += decide::answer(table, &request, batch, keep_alive, out).expect("a 200");
    }
    served
}

/// The reference rendering of one response: the in-process decision
/// through the `Value` tree and the owned `HttpResponse`.
fn reference_json(reader: &SifterReader, rows: &[DecisionMessage], batch: bool) -> Vec<u8> {
    let decisions: Vec<Value> = rows
        .iter()
        .map(|message| {
            trackersift_engine::frames::decision_value(&reader.decide(&message.as_request()))
        })
        .collect();
    let version = ("version", Value::number_u64(reader.version()));
    let body = if batch {
        object(vec![version, ("decisions", Value::Array(decisions))])
    } else {
        object(vec![version, ("decision", decisions[0].clone())])
    };
    let mut out = Vec::new();
    HttpResponse::json(body.render()).render_into(&mut out, true);
    out
}

#[test]
fn a_pipelined_flight_of_decisions_allocates_nothing() {
    let reader = trained();
    let pin = reader.pin();
    let table = pin.table();
    let messages = messages();
    for message in &messages {
        let decision = table.decide_prebuilt(&table.resolve(&message.as_request()));
        assert!(
            matches!(decision, PrebuiltDecision::Fixed(_)),
            "{message:?}"
        );
    }
    let backstop: Vec<Decision> = messages[3..]
        .iter()
        .map(|message| reader.decide(&message.as_request()))
        .collect();
    assert_eq!(
        backstop,
        [
            Decision::Block(DecisionSource::FilterList),
            Decision::Allow(DecisionSource::FilterList)
        ]
    );

    // JSON with URL context, then id-form binary frames for the same keys.
    let id = |name: &str| {
        table
            .keys()
            .iter()
            .position(|(_, key)| key == name)
            .map_or(u32::MAX, |at| at as u32)
    };
    let mut flight = Vec::new();
    let mut expected = Vec::new();
    for message in &messages {
        let body = message.to_json_value().render();
        flight.extend_from_slice(&http_post(
            "/v1/decisions",
            "application/json",
            body.as_bytes(),
        ));
        expected.extend_from_slice(&reference_json(
            &reader,
            std::slice::from_ref(message),
            false,
        ));
    }
    for message in &messages {
        let record = BinaryRecord {
            keys: BinaryKeys::Ids {
                domain: id(&message.domain),
                hostname: id(&message.hostname),
                script: id(&message.script),
                method: id(&message.method),
            },
            context: None,
        };
        let frame = wire::encode_binary_single(table.keys_epoch(), &record);
        flight.extend_from_slice(&http_post(
            "/v1/decisions",
            wire::BINARY_CONTENT_TYPE,
            &frame,
        ));
        let decision = reader.decide(
            &DecisionMessage::new(
                &message.domain,
                &message.hostname,
                &message.script,
                &message.method,
            )
            .as_request(),
        );
        let body =
            trackersift_engine::frames::encode_fixed_single(&decision, table.version()).to_vec();
        HttpResponse::bytes(wire::BINARY_CONTENT_TYPE, body).render_into(&mut expected, true);
    }
    let flight = flight.repeat(8);
    let expected = expected.repeat(8);

    // Warm the two buffers a connection keeps, then serve the same flight
    // again the way the worker does after a flush.
    let mut parser = RequestParser::new();
    let mut out = Vec::new();
    parser.push(&flight);
    serve(&mut parser, table, false, &mut out);
    assert_eq!(out, expected, "in-place rendering is byte-identical");
    out.clear();

    let (allocations, served) = allocations_during(|| {
        parser.push(&flight);
        serve(&mut parser, table, false, &mut out)
    });
    assert_eq!(served, 8 * 2 * messages.len() as u64);
    assert_eq!(out, expected);
    assert_eq!(
        allocations, 0,
        "parse -> decode -> resolve -> decide_prebuilt (filter-list backstop included) -> render must not allocate"
    );
}

#[test]
fn the_write_path_allocates_per_batch_not_per_row() {
    const ROWS: usize = 1_000;
    let rows: Vec<String> = (0..ROWS)
        .map(|n| {
            ObservationMessage::Url {
                url: format!(
                    "https://px{}.Tracker{}.example/collect/{n}?id={n}",
                    n % 7,
                    n % 40
                ),
                source_hostname: format!("www.site{}.com", n % 25),
                resource_type: filterlist::ResourceType::ALL[n % 11],
                script: format!("fp:{:016x}", (n % 90) as u64 * 0x9E37_79B9),
                method: format!("m{}", n % 5),
            }
            .to_json_value()
            .render()
        })
        .collect();
    let body = format!(r#"{{"observations":[{}]}}"#, rows.join(","));

    let (allocations, batch) =
        allocations_during(|| wire::decode_observation_batch(&body).expect("a valid body"));
    assert_eq!(batch.len(), ROWS);
    assert!(
        allocations <= 64,
        "decoding {ROWS} rows took {allocations} allocations: the arena and the row table grow, nothing else"
    );

    let dir = std::env::temp_dir().join(format!(
        "trackersift-alloc-free-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut writer, _reader) = Sifter::builder()
        .filter_lists(&[(
            ListKind::EasyList,
            "||tracker7.example^$third-party\n/collect/1\n",
        )])
        .build_concurrent();
    writer
        .open_durable(&dir, DurabilityConfig::new(&dir).sync_every)
        .expect("open the durable directory");
    // The first pass interns the keys, creates the count cells and grows the
    // journal buffer (to the whole batch: it is synced once, at its end)
    // and the label scratch.
    assert_eq!(writer.apply_batch(batch.iter()), ROWS as u64);
    writer.commit();
    let journal = writer.journal_stats().expect("durable");

    let (allocations, accepted) = allocations_during(|| writer.apply_batch(batch.iter()));
    assert_eq!(accepted, ROWS as u64);
    let after = writer.journal_stats().expect("durable");
    assert_eq!(after.appended, journal.appended + ROWS as u64);
    assert_eq!(after.syncs, journal.syncs + 1, "one fsync for the batch");
    assert_eq!(writer.sifter().ingest_stats().pending(), ROWS as u64);
    assert_eq!(
        allocations, 0,
        "journal -> fsync -> label -> intern -> fold of a known batch must not allocate"
    );
    writer.commit();
    let appended = writer.journal_stats().expect("durable").appended;

    // A record applied one at a time takes the same path, syncing every
    // `sync_every` into the buffer the batch grew.
    let (allocations, tracking) = allocations_during(|| {
        batch
            .iter()
            .filter(|row| {
                writer
                    .apply(*row)
                    .label()
                    .is_some_and(|label| label.is_tracking())
            })
            .count()
    });
    assert!(tracking > 0 && tracking < ROWS, "{tracking} rows tracking");
    assert_eq!(
        writer.journal_stats().expect("durable").appended,
        appended + ROWS as u64
    );
    assert_eq!(writer.sifter().ingest_stats().pending(), ROWS as u64);
    assert_eq!(
        allocations, 0,
        "journal -> label -> intern -> fold of a known row must not allocate"
    );
    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_batch_does_not_allocate_per_row() {
    const ROWS: usize = 128;
    let reader = trained();
    let pin = reader.pin();
    let table = pin.table();
    let rows: Vec<DecisionMessage> = messages().into_iter().cycle().take(ROWS).collect();
    let rendered: Vec<String> = rows
        .iter()
        .map(|message| message.to_json_value().render())
        .collect();
    let body = format!(r#"{{"requests":[{}]}}"#, rendered.join(","));
    let request = http_post("/v1/decisions:batch", "application/json", body.as_bytes());
    let expected = reference_json(&reader, &rows, true);

    let mut parser = RequestParser::new();
    let mut out = Vec::new();
    parser.push(&request);
    assert_eq!(serve(&mut parser, table, true, &mut out), ROWS as u64);
    assert_eq!(out, expected, "in-place rendering is byte-identical");
    out.clear();

    let (allocations, served) = allocations_during(|| {
        parser.push(&request);
        serve(&mut parser, table, true, &mut out)
    });
    assert_eq!(served, ROWS as u64);
    assert_eq!(out, expected);
    assert_eq!(
        allocations, 0,
        "a warm batch allocates nothing, whatever its row count"
    );
}

/// A re-crawl posts the rows the last commit interval already labeled: the
/// writer's label memo answers each of them, and promoting them into the
/// new interval allocates nothing — the commit reserved the room.
#[test]
fn a_relabeled_batch_is_promoted_without_allocating() {
    const ROWS: usize = 1_000;
    let rows: Vec<String> = (0..ROWS)
        .map(|n| {
            ObservationMessage::Url {
                url: format!("https://px{}.Tracker{}.example/pixel/{n}", n % 3, n % 30),
                source_hostname: format!("www.site{}.com", n % 20),
                resource_type: filterlist::ResourceType::ALL[n % 11],
                script: format!("fp:{:016x}", (n % 60) as u64),
                method: format!("m{}", n % 4),
            }
            .to_json_value()
            .render()
        })
        .collect();
    let body = format!(r#"{{"observations":[{}]}}"#, rows.join(","));
    let batch = wire::decode_observation_batch(&body).expect("a valid body");
    let (mut writer, _reader) = Sifter::builder()
        .filter_lists(&[(ListKind::EasyList, "||tracker3.example^\n")])
        .build_concurrent();
    assert_eq!(writer.apply_batch(batch.iter()), ROWS as u64);
    writer.commit();
    assert_eq!(writer.sifter().ingest_stats().labels_reused, 0);

    for interval in 1..=2u64 {
        let (allocations, accepted) = allocations_during(|| writer.apply_batch(batch.iter()));
        assert_eq!(accepted, ROWS as u64);
        assert_eq!(
            writer.sifter().ingest_stats().labels_reused,
            interval * ROWS as u64,
            "every row of the re-crawl is answered by the memo"
        );
        assert_eq!(
            allocations, 0,
            "interval {interval}: memo hit -> promote -> intern -> fold of a known batch must not allocate"
        );
        writer.commit();
    }
}
