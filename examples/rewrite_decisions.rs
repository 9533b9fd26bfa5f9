//! URL rewriting end to end: build a rule-driven [`UrlRewriter`] from the
//! curated defaults and EasyList `$removeparam` rules, attach it to a
//! trained sifter so hierarchy-mixed requests whose URLs carry identifiers
//! resolve to `Decision::Rewrite`, and serve those rewrites over both wire
//! codecs (JSON and the length-prefixed binary protocol).
//!
//! ```sh
//! cargo run --release --example rewrite_decisions
//! ```

use trackersift_suite::filterlist::hostname_of;
use trackersift_suite::prelude::*;
use trackersift_suite::trackersift::frames;
use trackersift_suite::trackersift_server::client::Client;
use trackersift_suite::trackersift_server::wire::{BinaryRecord, DecisionMessage};

fn main() {
    // 1. A standalone rewriter from the curated defaults: strip global
    //    identifier parameters (`utm_*`, `gclid`, `fbclid`, ...) and unwrap
    //    redirect wrappers. The hot path allocates only when a URL actually
    //    changes — a clean URL comes back as `None`.
    let rewriter = RewriterBuilder::new().default_rules().build();
    println!("Curated default rules:");
    for url in [
        "https://news.example/story?id=9&utm_source=mail&gclid=CjwK1",
        "https://out.example/r?url=https%3A%2F%2Fshop.example%2Fp%3Fid%3D7%26fbclid%3DIwAR9",
        "https://shop.example/p?id=7",
    ] {
        match rewriter.rewrite(url) {
            Some(rewritten) => println!("  {url}\n    -> {}", rewritten.url()),
            None => println!("  {url}\n    -> unchanged (zero-allocation pass)"),
        }
    }

    // 2. `$removeparam` rules ride in from filter lists: a match-all
    //    pattern strips globally, while `$domain=` entries and `||host^`
    //    anchors scope the strip to one registrable domain.
    let lists = FilterEngine::from_lists(&[(
        ListKind::EasyPrivacy,
        "*$removeparam=session_ref\n||shop.example^$removeparam=affil\n",
    )]);
    let scoped = RewriterBuilder::new()
        .filter_rules(lists.removeparam_rules())
        .build();
    let on_site = scoped
        .rewrite("https://www.shop.example/cart?sku=1&affil=x&session_ref=22")
        .expect("both rules match on shop.example");
    assert_eq!(on_site.url(), "https://www.shop.example/cart?sku=1");
    let off_site = scoped
        .rewrite("https://news.example/a?affil=x&session_ref=22")
        .expect("only the global rule matches elsewhere");
    assert_eq!(off_site.url(), "https://news.example/a?affil=x");
    println!(
        "\n$removeparam scoping: `affil` stripped on shop.example only, `session_ref` everywhere."
    );

    // 3. Attach a rewriter to a trained sifter. The decision precedence is
    //    Allow < Rewrite < Surrogate < Block: a mixed resource with no
    //    surrogate plan falls back to rewriting the identifiers out of the
    //    URL instead of observing it untouched.
    let mut sifter = Sifter::builder()
        .rewriter(RewriterBuilder::new().default_rules().build())
        .build();
    for flag in [true, false, true, false, true, false] {
        sifter.apply(ObservationRef::parts(
            "hub.com",
            "w.hub.com",
            "s.js",
            "sync",
            flag,
        ));
    }
    sifter.commit();
    let request = DecisionRequest::new("hub.com", "z.hub.com", "s2.js", "m").with_url(
        "https://z.hub.com/api?id=7&gclid=abc&utm_source=mail",
        "pub.com",
        ResourceType::Xhr,
    );
    let decision = sifter.verdict_table().decide(&request);
    let Decision::Rewrite(rewritten) = &decision else {
        panic!("mixed domain + identifier URL must rewrite, got {decision}");
    };
    println!(
        "\nIn-process decision for the mixed request: rewrite -> {}",
        rewritten.url()
    );

    // 4. At study scale: the synthetic corpus decorates tracking endpoints
    //    with identifier params and redirect wrappers, so a rewriter-armed
    //    sifter turns a slice of the would-be observations into rewrites.
    let study = Study::run(StudyConfig {
        profile: CorpusProfile::small().with_sites(300),
        seed: 13,
        ..StudyConfig::default()
    });
    let split = study.requests.len() * 8 / 10;
    let (historical, live) = study.requests.split_at(split);
    let mut served = Sifter::builder()
        .thresholds(study.config.thresholds)
        .engine(study.engine.clone())
        .rewriter(RewriterBuilder::new().default_rules().build())
        .build();
    served.apply_batch(historical.iter().map(ObservationRef::from));
    served.commit();
    let queries: Vec<DecisionRequest<'_>> =
        live.iter().map(DecisionRequest::from_labeled).collect();
    let (writer, reader) = served.into_concurrent();
    let decisions: Vec<Decision> = {
        let pin = reader.pin();
        queries.iter().map(|query| pin.decide(query)).collect()
    };
    let mut counts = [0usize; 5];
    for decision in &decisions {
        let slot = match decision {
            Decision::Block(_) => 0,
            Decision::Surrogate(_) => 1,
            Decision::Rewrite(_) => 2,
            Decision::Allow(_) => 3,
            Decision::Observe => 4,
        };
        counts[slot] += 1;
    }
    println!(
        "\nLive slice of {} requests: {} block / {} surrogate / {} rewrite / {} allow / {} observe.",
        decisions.len(),
        counts[0],
        counts[1],
        counts[2],
        counts[3],
        counts[4],
    );

    // 5. Over the wire, both codecs carry the rewrite byte-identically to
    //    the in-process decision: JSON as {"action":"rewrite","url":...},
    //    binary as an ACTION_REWRITE frame with a length-prefixed URL.
    let server = VerdictServer::start(writer, ServerConfig::ephemeral()).expect("start server");
    let mut client = Client::connect(server.local_addr());
    let index = decisions
        .iter()
        .position(|decision| matches!(decision, Decision::Rewrite(_)))
        .expect("the decorated corpus produces rewrites");
    let rewritten_live = &live[index];
    let message = DecisionMessage::new(
        &rewritten_live.domain,
        &rewritten_live.hostname,
        &rewritten_live.initiator_script,
        &rewritten_live.initiator_method,
    )
    .with_url(
        &rewritten_live.url,
        hostname_of(&rewritten_live.top_level_url),
        rewritten_live.resource_type,
    );
    let in_process = reader.decide(&message.as_request());
    assert_eq!(
        in_process, decisions[index],
        "the wire query asks the question the live slice answered"
    );
    let (status, body) = client.request(
        "POST",
        "/v1/decisions",
        Some(&message.to_json_value().render()),
    );
    assert_eq!(status, 200);
    let expected = format!(
        r#"{{"version":{},"decision":{}}}"#,
        reader.version(),
        frames::decision_value(&in_process).render()
    );
    assert_eq!(
        body, expected,
        "wire JSON must match the in-process decision"
    );
    println!("\nJSON over the wire: {body}");

    let (_, binary) = client.decide_binary_single(0, &BinaryRecord::from_message(&message));
    assert_eq!(
        binary, in_process,
        "binary codec must round-trip the rewrite"
    );
    match binary {
        Decision::Rewrite(rewritten) => {
            println!(
                "Binary over the wire: ACTION_REWRITE -> {}",
                rewritten.url()
            )
        }
        other => panic!("expected a rewrite over the binary codec, got {other}"),
    }

    server.shutdown();
    println!("Server drained and shut down cleanly.");
}
