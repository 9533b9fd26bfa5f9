//! Quickstart: run the whole TrackerSift pipeline on a small synthetic
//! corpus, print the paper's two headline tables through the serving API,
//! and answer a few per-request verdicts.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use trackersift::report::{render_headline, render_table1, render_table2};
use trackersift_suite::prelude::*;

fn main() {
    // 1. Generate a corpus (the stand-in for crawling 100K live sites),
    //    crawl it with the instrumented browser simulator, label every
    //    script-initiated request with EasyList + EasyPrivacy, and run the
    //    hierarchical classifier. `Study::run` does all of that.
    let study = Study::run(StudyConfig {
        profile: CorpusProfile::quickstart(), // 1 000 sites
        seed: 42,
        ..StudyConfig::default()
    });

    println!(
        "Crawled {} sites, captured {} requests ({} script-initiated).\n",
        study.crawl_summary.sites,
        study.crawl_summary.total_requests,
        study.requests.len()
    );

    // 2. The study is a *producer* of serving handles: train a Sifter and
    //    read everything downstream through it. Its `hierarchy()` export is
    //    byte-identical to the study's own batch classification.
    let mut sifter = study.sifter();
    let hierarchy = sifter.hierarchy();
    assert_eq!(hierarchy, study.hierarchy);

    // 3. The paper's Table 1 (requests) and Table 2 (resources).
    print!("{}", render_table1(&hierarchy));
    println!();
    print!("{}", render_table2(&hierarchy));
    println!();

    // 4. The headline numbers from the abstract.
    print!("{}", render_headline(&trackersift::headline(&hierarchy)));

    // 5. Per-request verdicts — what a deployed blocker would ask. The
    //    sifter exports a `VerdictTable`; the table answers, allocation-free.
    let table = sifter.verdict_table();
    println!("\nSample verdicts:");
    for request in study.requests.iter().take(5) {
        let verdict = table.verdict(&DecisionRequest::from_labeled(request));
        println!(
            "  {:<60} -> {} ({})",
            request.url,
            verdict,
            if verdict.should_block() {
                "block"
            } else {
                "allow"
            }
        );
    }

    // 6. A taste of the finer-grained artifacts: the first mixed script and
    //    its surrogate.
    if let Some(surrogate) = study.surrogates().first() {
        println!(
            "\nExample surrogate for the mixed script {}:\n",
            surrogate.script_url
        );
        println!("{}", surrogate.render());
    }
}
