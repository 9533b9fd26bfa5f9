//! Property-based tests (proptest) over the core data structures and
//! invariants: the filter pattern matcher, the ratio classifier, the
//! hierarchy's conservation laws, and the crawl database round-trip.

mod common;

use common::expected_verdict;
use proptest::prelude::*;
use std::sync::Arc;
use trackersift_suite::prelude::*;

// ---------------------------------------------------------------------------
// filterlist: the token index must agree with the linear scan for any URL.
// ---------------------------------------------------------------------------

fn arb_url() -> impl Strategy<Value = String> {
    let host = prop::collection::vec("[a-z]{2,8}", 2..4).prop_map(|labels| labels.join("."));
    let path = prop::collection::vec("[a-z0-9]{1,8}", 0..4).prop_map(|segments| segments.join("/"));
    let query = prop::option::of("[a-z]{1,6}=[a-z0-9]{1,6}");
    (host, path, query).prop_map(|(host, path, query)| match query {
        Some(q) => format!("https://{host}/{path}?{q}"),
        None => format!("https://{host}/{path}"),
    })
}

/// Rule patterns that stress the hashed index's boundary analysis: plain
/// substrings (whose leading/trailing runs must not become index tokens),
/// separator-bounded paths, host anchors, and wildcards — each filed under
/// a token, under a run prefix, or on the always-checked list — and a
/// quarter of them as `@@` exceptions, so exceptions take every key kind
/// too.
fn arb_rule() -> impl Strategy<Value = String> {
    let pattern = prop_oneof![
        // Unanchored substring, unbounded on both sides (e.g. `adserver`):
        // always checked.
        "[a-z]{3,10}",
        // Left-bounded path fragment (`/ads` — historically a false
        // negative of the string-bucket index): run-prefix keyed.
        "/[a-z]{3,8}",
        // Fully bounded path (`/ads/`).
        "/[a-z]{3,8}/",
        // Query fragment with separator (`/collect\\?`).
        "/[a-z]{3,8}\\?",
        // Host anchor (`||ads.example^`).
        "\\|\\|[a-z]{3,8}\\.[a-z]{2,6}\\^",
        // Host anchor with an open path (`||ads.example/track`).
        "\\|\\|[a-z]{3,8}\\.[a-z]{2,6}/[a-z]{3,8}",
        // URL-start anchor with an open host (`|https://ads`).
        "\\|https://[a-z]{3,8}",
        // Separator on the right only (`ads^`): always checked.
        "[a-z]{3,8}\\^",
        // Wildcard in the middle (`/ban*ner/`).
        "/[a-z]{2,4}\\*[a-z]{2,4}/",
        // End anchored (`.js|`-style).
        "[a-z]{2,5}\\.[a-z]{2,3}\\|",
        // Case-sensitive, upper case (`/Banner$match-case`): the index
        // keys it lower-cased, as it keys the URL.
        "/[A-Z][a-zA-Z]{2,7}\\$match-case",
    ];
    (prop_oneof!["", "", "", "@@"], pattern)
        .prop_map(|(marker, pattern)| format!("{marker}{pattern}"))
}

/// URLs as a crawl or a hostile client spells them: any case, userinfo,
/// ports, trailing-dot and IP hosts, scheme-relative, opaque, with a second
/// `://` further in, or not URLs at all.
fn arb_raw_url() -> impl Strategy<Value = String> {
    let scheme = prop_oneof![
        "https://",
        "HTTP://",
        "//",
        "wss://",
        " https://",
        "data:",
        "About:",
        "",
        "[a-z+.-]{0,5}:",
    ];
    let userinfo = prop_oneof!["", "", "user@", "User:Pw@"];
    let host = prop_oneof![
        "[a-zA-Z]{1,8}(\\.[a-zA-Z]{1,8}){0,3}\\.?",
        "[a-z]{2,6}\\.site\\.com",
        "[a-z]{2,6}\\.io",
        "[a-z]{2,6}\\.bbc\\.co\\.uk",
        "[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}",
        // A sign makes it a name, not an address (`u8::from_str` takes `+1`).
        "\\+[0-9]{1,2}\\.\\+?[0-9]{1,2}\\.[0-9]{1,2}\\.[0-9]{1,2}",
        "\\[::1\\]",
        "",
    ];
    let port = prop_oneof!["", "", ":8080", ":", ":80a"];
    let rest = prop_oneof![
        "",
        "/[a-zA-Z0-9/._-]{0,20}",
        "/r\\?u=https://[a-z]{2,6}\\.io/p",
        "\\?[a-z]{1,5}=[A-Za-z0-9]{0,8}",
        "#frag",
        "\\PC{0,20}",
    ];
    (scheme, userinfo, host, port, rest).prop_map(|(scheme, userinfo, host, port, rest)| {
        format!("{scheme}{userinfo}{host}{port}{rest}")
    })
}

/// The starts of URLs that a remembered authority must not be reused for,
/// beside the one it is: a longer host, a port or userinfo, another case or
/// scheme, scheme-relative, a trailing dot, IP literals, a non-ASCII host,
/// and an opaque URL that has no authority at all.
const AUTHORITIES: [&str; 24] = [
    "https://a.com",
    "https://a.com",
    "https://a.com.b",
    "https://a.comx",
    "https://a.co",
    "https://b.a.com",
    "https://a.com:8080",
    "https://a.com:443",
    "https://a.com:",
    "https://u@a.com",
    "https://u:p@a.com:8080",
    "https://a.com@b.a.com",
    "HTTPS://A.com",
    "https://A.COM",
    "http://a.com",
    "//a.com",
    "//A.com:8080",
    "https://a.com.",
    "https://10.0.0.1",
    "https://10.0.0.1:8080",
    "https://[::1]:8080",
    "https://bücher.example",
    "data:text/plain,a.com",
    "about:blank",
];

/// What follows an authority: what ends it (`/`, `?`, `#`, the URL's end),
/// and what extends it — more host, a port, userinfo.
const AUTHORITY_ENDS: [&str; 14] = [
    "",
    "/",
    "/x.js",
    "/X.js?u=https://b.a.com/",
    "?q=A.com",
    "#f",
    "/a.com/b",
    ".b/x",
    "x/",
    ":8080/",
    ":80a",
    "@b.a.com/p",
    "ü/",
    "/%C3%BC",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn token_index_never_disagrees_with_linear_scan(url in arb_url(), source in "[a-z]{3,10}\\.com") {
        let engine = FilterEngine::easylist_easyprivacy();
        if let Some(request) = FilterRequest::new(&url, &source, ResourceType::Script) {
            prop_assert_eq!(
                engine.evaluate(&request).label(),
                engine.evaluate_linear(&request).label()
            );
        }
    }

    #[test]
    fn hashed_index_agrees_with_linear_scan_on_crafted_rules(
        rules in prop::collection::vec(arb_rule(), 1..12),
        urls in prop::collection::vec(arb_url(), 1..8),
        source in "[a-z]{3,10}\\.com",
    ) {
        let text = rules.join("\n");
        let engine = FilterEngine::from_lists(&[(filterlist::ListKind::EasyList, text.as_str())]);
        // Random URLs rarely collide with random rules, so also derive
        // adversarial URLs from each rule: one that embeds its literal text
        // exactly, one that extends the trailing run (`/ads` vs
        // `/adserver`), one that uses it as a hostname, one that starts the
        // URL with it, and one that embeds every rule's text at once, so
        // that rules of different key kinds and exceptions match together
        // and the lowest index must win.
        let mut probes = urls.clone();
        let mut all = String::new();
        for rule in &rules {
            let pattern = rule.strip_prefix("@@").unwrap_or(rule);
            let pattern = pattern.split('$').next().unwrap_or(pattern);
            let frag: String = pattern
                .trim_start_matches('|')
                .trim_start_matches("https://")
                .chars()
                .filter(|c| c.is_ascii_alphanumeric() || *c == '.' || *c == '/')
                .collect();
            let frag = frag.trim_matches('/');
            if frag.is_empty() {
                continue;
            }
            probes.push(format!("https://www.shop.com/{frag}?x=1"));
            probes.push(format!("https://www.shop.com/{frag}tail/img.png"));
            probes.push(format!("https://pre{frag}/asset.js"));
            probes.push(format!("https://{frag}/x.js"));
            all.push('/');
            all.push_str(frag);
        }
        probes.push(format!("https://www.shop.com{all}/?x=1"));
        for url in &probes {
            if let Some(request) = FilterRequest::new(url, &source, ResourceType::Script) {
                let linear = engine.evaluate_linear(&request);
                prop_assert_eq!(
                    &engine.evaluate(&request),
                    &linear,
                    "hashed index and linear scan disagree for rule set {:?} on {}",
                    rules,
                    url
                );
                prop_assert_eq!(
                    engine.label(&request),
                    linear.label(),
                    "the existence probe and linear scan disagree for rule set {:?} on {}",
                    rules,
                    url
                );
            }
        }
    }

    #[test]
    fn extended_engine_agrees_with_from_scratch_engine(
        base in prop::collection::vec(arb_rule(), 1..8),
        extra in prop::collection::vec(arb_rule(), 1..8),
        urls in prop::collection::vec(arb_url(), 1..8),
        source in "[a-z]{3,10}\\.com",
    ) {
        let base_text = base.join("\n");
        let extra_text = extra.join("\n");
        let mut extended =
            FilterEngine::from_lists(&[(filterlist::ListKind::EasyList, base_text.as_str())]);
        extended.extend_with_rules(
            filterlist::parse_list(&extra_text, filterlist::ListKind::Custom).rules,
        );
        let combined = format!("{base_text}\n{extra_text}");
        let scratch =
            FilterEngine::from_lists(&[(filterlist::ListKind::EasyList, combined.as_str())]);
        for url in &urls {
            if let Some(request) = FilterRequest::new(url, &source, ResourceType::Script) {
                prop_assert_eq!(extended.label(&request), scratch.label(&request));
                prop_assert_eq!(
                    extended.label(&request),
                    extended.evaluate_linear(&request).label()
                );
            }
        }
    }

    /// The borrowed request the hot paths build in a reused scratch is the
    /// owned request, field for field (an unparseable URL included), and
    /// labels through the index as the owned one does through the linear
    /// scan — whatever the previous request left in the buffers, the page
    /// hostname the scratch remembers included: each URL is viewed from the
    /// page of the view before it (the memo hits, in another case or not)
    /// and then from the next page (it misses).
    #[test]
    fn scratch_view_equals_the_owned_request(
        rules in prop::collection::vec(arb_rule(), 0..6),
        urls in prop::collection::vec(arb_raw_url(), 1..6),
        sources in prop::collection::vec(
            prop_oneof![
                "site.com", "Sub.Site.COM", "SUB.site.com", "site.com.", "", "[a-z]{2,6}\\.io",
                "10.0.0.1", "+1.2.3.4", "x.bbc.co.uk",
            ],
            1..4,
        ),
        kind in 0usize..11,
    ) {
        let text = format!(
            "{}\n||io^$third-party\n/r?u=\n:8080\n/A$match-case\n|https://$image\n|data:\n@@||site.com^$domain=site.com",
            rules.join("\n")
        );
        let engine = FilterEngine::from_lists(&[(filterlist::ListKind::EasyList, text.as_str())]);
        let kind = ResourceType::ALL[kind];
        let mut scratch = filterlist::RequestScratch::new();
        let pages = urls.iter().enumerate().flat_map(|(i, url)| {
            [i, i + 1].map(|page| (url, &sources[page % sources.len()]))
        });
        for (url, source) in pages {
            let owned = FilterRequest::new(url, source, kind);
            let view = scratch.view(url, source, kind);
            prop_assert_eq!(view, owned.as_ref().map(FilterRequest::view), "{:?} from {:?}", url, source);
            let expected = owned
                .as_ref()
                .map_or(RequestLabel::Functional, |owned| engine.evaluate_linear(owned).label());
            if let Some(view) = view {
                prop_assert_eq!(engine.label_view(&view), expected, "{:?} from {:?}", url, source);
            }
            prop_assert_eq!(engine.label_url(url, source, kind), expected, "{:?} from {:?}", url, source);
        }
    }

    /// The authority the scratch remembers from one view to the next is
    /// reused only by a URL that starts with exactly its bytes and then
    /// ends it: runs of one authority followed by `/`, `?`, `#` or nothing,
    /// broken by a longer host, a port or userinfo added or changed, another
    /// case or scheme, a scheme-relative or trailing-dot or IP or non-ASCII
    /// host, and an opaque URL with no authority. Every view is the owned
    /// request's and labels as the linear scan does.
    #[test]
    fn the_remembered_authority_is_reused_only_by_its_own_urls(
        rules in prop::collection::vec(arb_rule(), 0..4),
        steps in prop::collection::vec(
            (0usize..AUTHORITIES.len(), 0usize..AUTHORITY_ENDS.len(), 0usize..2),
            1..16,
        ),
        sources in prop::collection::vec(
            prop_oneof!["site\\.com", "a\\.com", "b\\.a\\.com", "A\\.COM", "x\\.io", ""],
            1..3,
        ),
        kind in 0usize..11,
    ) {
        let text = format!(
            "{}\n||a.com^$third-party\n||a.com.b^\n||a.comx^\n|https://a.com:8080\n|http://\n\
             ||10.0.0.1^\n||example^\n/X.js$match-case\n||b.a.com^\n@@||a.com^$domain=site.com\n|data:",
            rules.join("\n")
        );
        let engine = FilterEngine::from_lists(&[(filterlist::ListKind::EasyList, text.as_str())]);
        let kind = ResourceType::ALL[kind];
        let mut scratch = filterlist::RequestScratch::new();
        // Half the steps keep the authority of the step before them, so
        // most runs are of one authority, as in a crawl.
        let mut authority = AUTHORITIES[0];
        let mut previous = String::new();
        for (step, &(next, end, again)) in steps.iter().enumerate() {
            if again == 0 {
                authority = AUTHORITIES[next];
            }
            let url = format!("{authority}{}", AUTHORITY_ENDS[end]);
            let source = &sources[step % sources.len()];
            let owned = FilterRequest::new(&url, source, kind);
            let view = scratch.view(&url, source, kind);
            prop_assert_eq!(view, owned.as_ref().map(FilterRequest::view), "{:?} after {:?}", url, previous);
            let expected = owned
                .as_ref()
                .map_or(RequestLabel::Functional, |owned| engine.evaluate_linear(owned).label());
            if let Some(view) = view {
                prop_assert_eq!(engine.label_view(&view), expected, "{:?} from {:?}", url, source);
            }
            previous = url;
        }
    }

    #[test]
    fn url_parsing_never_panics_and_lowercases_host(raw in "\\PC{0,60}") {
        if let Some(parsed) = filterlist::ParsedUrl::parse(&raw) {
            prop_assert_eq!(parsed.hostname.clone(), parsed.hostname.to_ascii_lowercase());
        }
    }

    #[test]
    fn registrable_domain_is_idempotent_and_suffix(host in "[a-z]{1,8}(\\.[a-z]{1,8}){0,4}") {
        let d1 = filterlist::registrable_domain(&host);
        let d2 = filterlist::registrable_domain(&d1);
        prop_assert_eq!(&d1, &d2);
        prop_assert!(host.ends_with(&d1) || d1 == host);
    }
}

// ---------------------------------------------------------------------------
// ratio: classification is symmetric and respects the threshold.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn classification_is_symmetric_under_label_swap(t in 0u64..10_000, f in 0u64..10_000, threshold in 0.5f64..4.0) {
        prop_assume!(t > 0 || f > 0);
        let thresholds = Thresholds::new(threshold);
        let forward = thresholds.classify(&trackersift::Counts { tracking: t, functional: f }).unwrap();
        let swapped = thresholds.classify(&trackersift::Counts { tracking: f, functional: t }).unwrap();
        let expected = match forward {
            Classification::Tracking => Classification::Functional,
            Classification::Functional => Classification::Tracking,
            Classification::Mixed => Classification::Mixed,
        };
        prop_assert_eq!(swapped, expected);
    }

    #[test]
    fn mixed_iff_ratio_within_band(t in 1u64..100_000, f in 1u64..100_000, threshold in 0.5f64..4.0) {
        let thresholds = Thresholds::new(threshold);
        let counts = trackersift::Counts { tracking: t, functional: f };
        let ratio = (t as f64 / f as f64).log10();
        let class = thresholds.classify(&counts).unwrap();
        if ratio.abs() < threshold - 1e-9 {
            prop_assert_eq!(class, Classification::Mixed);
        } else if ratio >= threshold {
            prop_assert_eq!(class, Classification::Tracking);
        } else if ratio <= -threshold {
            prop_assert_eq!(class, Classification::Functional);
        }
    }
}

// ---------------------------------------------------------------------------
// hierarchy + crawl: conservation and determinism on random small corpora.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn hierarchy_conserves_requests_for_random_corpora(seed in 0u64..1_000, sites in 20usize..60) {
        let study = Study::run(StudyConfig {
            profile: CorpusProfile::small().with_sites(sites),
            seed,
            ..StudyConfig::default()
        });
        let h = &study.hierarchy;
        let attributed: u64 = h
            .levels
            .iter()
            .map(|l| l.request_counts.tracking + l.request_counts.functional)
            .sum();
        prop_assert_eq!(attributed + h.unattributed_requests(), h.total_requests());
        for window in h.levels.windows(2) {
            prop_assert_eq!(window[1].request_counts.total(), window[0].request_counts.mixed);
        }
        // Resource totals per level are consistent with their request totals.
        for level in &h.levels {
            let sum: u64 = level.resources.iter().map(|r| r.counts.total()).sum();
            prop_assert_eq!(sum, level.request_counts.total());
        }
    }

    #[test]
    fn parallel_and_sequential_crawls_agree(seed in 0u64..500, sites in 10usize..40) {
        let corpus = CorpusGenerator::generate(&CorpusProfile::small().with_sites(sites), seed);
        let sequential = CrawlCluster::new(ClusterConfig::sequential()).crawl(&corpus);
        let parallel = CrawlCluster::new(ClusterConfig::default().with_workers(6)).crawl(&corpus);
        prop_assert_eq!(sequential, parallel);
    }
}

// ---------------------------------------------------------------------------
// service: interleaved apply()/apply_batch()/commit() ≡ from-scratch
// classification.
// ---------------------------------------------------------------------------

/// A synthetic labeled request drawn from small key pools, so random
/// streams collide enough to produce tracking, functional *and* mixed
/// resources at every granularity. The registrable domain is derived from
/// the hostname, exactly as the labeling stage derives it.
fn arb_observation() -> impl Strategy<Value = trackersift::LabeledRequest> {
    ((0usize..5, 0usize..3), (0usize..5, 0usize..4, 0u64..2)).prop_map(
        |((domain, host), (script, method, label))| {
            let hostname: Arc<str> = format!("h{host}.d{domain}.com").into();
            let script: crawler::Text = format!("https://pub.com/s{script}.js").into();
            let method: crawler::Text = format!("m{method}").into();
            let tracking = label == 1;
            trackersift::LabeledRequest {
                request_id: 0,
                top_level_url: "https://www.pub.com/".into(),
                url: format!("https://{hostname}/x").into(),
                domain: format!("d{domain}.com").into(),
                hostname,
                resource_type: ResourceType::Xhr,
                initiator_script: script.clone(),
                initiator_method: method.clone(),
                stack: vec![crawler::StackFrame::new(script, method)].into(),
                label: if tracking {
                    RequestLabel::Tracking
                } else {
                    RequestLabel::Functional
                },
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn interleaved_observe_commit_equals_scratch_classification(
        observations in prop::collection::vec(arb_observation(), 1..150),
        commit_every in 1usize..12,
        threshold in 0.5f64..3.0,
        // Per chunk between commits: 1 folds it whole, 0 row by row.
        batched in prop::collection::vec(0u8..2, 150..151),
    ) {
        let thresholds = Thresholds::new(threshold);
        let classifier = HierarchicalClassifier::new(thresholds);
        let mut sifter = Sifter::builder().thresholds(thresholds).build();

        let mut folded = 0;
        for (chunk, rows) in observations.chunks(commit_every).enumerate() {
            if batched[chunk] == 1 {
                let observed = sifter.apply_batch(rows.iter().map(ObservationRef::from));
                prop_assert_eq!(observed, rows.len() as u64);
            } else {
                for r in rows {
                    sifter.apply(r.into());
                }
            }
            folded += rows.len();
            sifter.commit();
            // Every intermediate committed state equals classifying the
            // prefix from scratch — not just the final one.
            let scratch = classifier.classify(&observations[..folded]);
            prop_assert_eq!(&sifter.hierarchy(), &scratch);
            // And serves the oracle's verdict for every request of the
            // stream: the observed prefix, and the not-yet-observed rest
            // falling off the trained hierarchy wherever it does.
            let table = sifter.verdict_table();
            for request in &observations {
                prop_assert_eq!(
                    table.verdict(&DecisionRequest::from_labeled(request)),
                    expected_verdict(
                        &scratch,
                        &request.domain,
                        &request.hostname,
                        &request.initiator_script,
                        &request.initiator_method,
                    )
                );
            }
        }
        sifter.commit();
        let scratch = classifier.classify(&observations);
        prop_assert_eq!(&sifter.hierarchy(), &scratch);

        // Verdicts agree with the hierarchy's residue accounting: the
        // mixed-at-method verdicts cover exactly the unattributed requests.
        let table = sifter.verdict_table();
        let mut residue = 0u64;
        for request in &observations {
            let verdict = table.verdict(&DecisionRequest::from_labeled(request));
            prop_assert!(verdict.classification().is_some());
            if verdict
                == (Verdict::Decided {
                    classification: Classification::Mixed,
                    granularity: Granularity::Method,
                })
            {
                residue += 1;
            }
        }
        prop_assert_eq!(residue, scratch.unattributed_requests());
    }

    #[test]
    fn snapshot_round_trip_is_lossless_for_random_streams(
        observations in prop::collection::vec(arb_observation(), 1..100),
    ) {
        let mut sifter = Sifter::builder().build();
        sifter.apply_batch(observations.iter().map(ObservationRef::from));
        sifter.commit();
        let snapshot = sifter.snapshot();
        let text = snapshot.to_json_string();
        let parsed = SifterSnapshot::parse(&text).unwrap();
        let restored = Sifter::builder().restore(&parsed).unwrap();
        prop_assert_eq!(restored.hierarchy(), sifter.hierarchy());
        prop_assert_eq!(restored.snapshot().to_json_string(), text);
    }
}

// ---------------------------------------------------------------------------
// service: the writer's label memo ≡ labeling every row afresh.
// ---------------------------------------------------------------------------

/// A `(url, page host, type)` triple as clients spell it: one of a few
/// requests, in any case, with blanks around it, or no URL at all.
fn arb_memo_triple() -> impl Strategy<Value = (String, String, ResourceType)> {
    let request = prop_oneof![
        "https://px\\.tracker\\.io/[a-c]",
        "https://cdn\\.shop\\.com/[a-c]\\.js",
        "https://static\\.bbc\\.co\\.uk/[a-c]",
        "//px\\.tracker\\.io/collect/[a-c]",
    ];
    let page = prop_oneof!["shop.com", "SHOP.com", "tracker.io", "news.bbc.co.uk", ""];
    (request, 0usize..8, page, 0usize..3).prop_map(|(url, spelling, page, kind)| {
        let url = match spelling {
            2 => url.to_ascii_uppercase(),
            3 => format!(" {url}"),
            4 => format!("{url}\t"),
            5 => "notaurl".to_string(),
            6 => "   ".to_string(),
            _ => url,
        };
        let kind = [ResourceType::Script, ResourceType::Image, ResourceType::Xhr][kind];
        (url, page.to_string(), kind)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A writer whose raw-URL `apply` answers repeated triples from its memo
    /// ends every commit exactly where a sifter fed `ObservationRef::parts` with
    /// the engine's label for every row does: the same snapshot bytes, the
    /// same key ids in the same order, the same ingest accounting. The memo
    /// answers exactly the parseable rows whose triple, byte for byte, was
    /// seen in the same or the previous commit interval.
    #[test]
    fn the_label_memo_equals_labeling_every_row(
        drawn in prop::collection::vec(arb_memo_triple(), 1..6),
        ops in prop::collection::vec((0usize..10, 0usize..4), 1..80),
    ) {
        let engine = Arc::new(FilterEngine::from_lists(&[(
            ListKind::EasyList,
            "||tracker.io^$third-party\n/collect/\n@@||tracker.io/b\n|https://$image",
        )]));
        // The first request again under another page host and another type.
        let (url, page, kind) = drawn[0].clone();
        let mut pool = drawn;
        pool.push((url.clone(), format!("www.{page}"), kind));
        pool.push((url, page, ResourceType::Ping));

        let (mut writer, reader) = Sifter::builder().shared_engine(Arc::clone(&engine)).build_concurrent();
        let mut oracle = Sifter::builder().build();
        let (mut invalid, mut reused) = (0u64, 0u64);
        let mut current = std::collections::HashSet::new();
        let mut previous = std::collections::HashSet::new();
        for (op, attribution) in ops {
            // Seven in ten ops observe a row; the rest commit, empty or not.
            if op >= 7 {
                writer.commit();
                oracle.commit();
                previous = std::mem::take(&mut current);
                prop_assert_eq!(writer.sifter().snapshot().to_json_string(), oracle.snapshot().to_json_string());
                let keys = |table: &VerdictTable| -> Vec<(usize, String)> {
                    table.keys().iter().map(|(key, text)| (key.index(), text.to_string())).collect()
                };
                prop_assert_eq!(keys(&reader.pin()), keys(&oracle.verdict_table()));
                prop_assert_eq!(
                    writer.sifter().ingest_stats(),
                    IngestStats { invalid_urls: invalid, labels_reused: reused, ..oracle.ingest_stats() }
                );
                continue;
            }
            let (url, page, kind) = &pool[op % pool.len()];
            let script = ["https://shop.com/app.js", "fp:00c0ffee"][attribution % 2];
            let method = ["send", "load"][attribution / 2];
            let outcome = writer.apply(ObservationRef::url(url, page, *kind, script, method));
            match FilterRequest::new(url, page, *kind) {
                Some(request) => {
                    let view = request.view();
                    let label = engine.label_url(url, page, *kind);
                    prop_assert_eq!(outcome, ObserveOutcome::Observed(label));
                    oracle.apply(ObservationRef::parts(view.domain, view.url.hostname, script, method, label.is_tracking()));
                    let triple = (url.clone(), page.clone(), *kind);
                    if previous.contains(&triple) || current.contains(&triple) {
                        reused += 1;
                    }
                    current.insert(triple);
                }
                None => {
                    prop_assert_eq!(outcome, ObserveOutcome::InvalidUrl);
                    invalid += 1;
                }
            }
        }
    }
}
