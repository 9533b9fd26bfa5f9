//! Quickstart: the whole TrackerSift reproduction from one study, through
//! the public library API — the paper's tables and figures, the `wp.com`
//! style walk through one mixed domain, and a few per-request verdicts.
//! Equivalent to `paper all` in the bench crate.
//!
//! ```sh
//! # default 1 000 sites; pass a number to change the scale
//! cargo run --release --example quickstart -- 10000
//! ```

use trackersift::report::{render_headline, render_sensitivity_csv, render_table1, render_table2};
use trackersift_suite::prelude::*;

fn main() {
    let sites: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000);

    // 1. Generate a corpus (the stand-in for crawling 100K live sites),
    //    crawl it with the instrumented browser simulator, label every
    //    script-initiated request with EasyList + EasyPrivacy, and run the
    //    hierarchical classifier. `Study::run` does all of that.
    let study = Study::run(StudyConfig {
        profile: CorpusProfile::paper().with_sites(sites),
        seed: 2021,
        ..StudyConfig::default()
    });
    println!("== TrackerSift study: {sites} sites, seed 2021 ==\n");
    println!(
        "Captured {} requests, {} script-initiated ({} tracking / {} functional by the filter-list oracle).",
        study.database.total_requests(),
        study.requests.len(),
        study.label_stats.tracking,
        study.label_stats.functional
    );
    println!("Stages: {}\n", study.timings.summary());

    // 2. The study is a *producer* of serving handles: train a Sifter and
    //    read everything downstream through it. Its `hierarchy()` export is
    //    byte-identical to the study's own batch classification.
    let mut sifter = study.sifter();
    let hierarchy = sifter.hierarchy();
    assert_eq!(hierarchy, study.hierarchy);

    // 3. The paper's Table 1 (requests), Table 2 (resources) and the
    //    headline numbers from the abstract.
    print!("{}", render_table1(&hierarchy));
    println!();
    print!("{}", render_table2(&hierarchy));
    println!();
    print!("{}", render_headline(&trackersift::headline(&hierarchy)));

    // 4. Figures 3–5 and Table 3.
    println!("\nFigure 3 (band masses per granularity):");
    for granularity in Granularity::ALL {
        let histogram = RatioHistogram::paper_bins(hierarchy.level(granularity));
        println!(
            "  {:<10} functional={:<7} mixed={:<7} tracking={:<7}",
            granularity.name(),
            histogram.functional_mass(2.0),
            histogram.mixed_mass(2.0),
            histogram.tracking_mass(2.0)
        );
    }
    println!("\nFigure 4 (threshold sensitivity):");
    print!("{}", render_sensitivity_csv(&study.sensitivity_sweep()));
    let callstacks = study.callstack_analysis();
    println!(
        "\nFigure 5: {} mixed methods remain; {:.0}% separable via call-stack divergence.",
        callstacks.mixed_methods(),
        callstacks.separable_share()
    );
    let breakage = study.breakage_study(10);
    let (major, minor, none) = breakage.grade_counts();
    println!(
        "Table 3: {major} major / {minor} minor / {none} none breakage on {} sampled sites.",
        breakage.rows.len()
    );

    // 5. How a shared CDN or platform domain ends up *mixed* — the paper's
    //    `wp.com` walk-through (tracking `pixel.wp.com`, functional
    //    `widgets.wp.com`, mixed `i0.wp.com`) on the busiest mixed domain.
    let hostnames = hierarchy.level(Granularity::Hostname);
    if let Some(mixed_domain) = hierarchy
        .level(Granularity::Domain)
        .top_resources(Classification::Mixed, 1)
        .first()
    {
        println!(
            "\nBusiest mixed domain: {} ({} tracking / {} functional requests). Its hostnames:",
            mixed_domain.key, mixed_domain.counts.tracking, mixed_domain.counts.functional
        );
        let mut rows: Vec<_> = hostnames
            .resources
            .iter()
            .filter(|r| filterlist::registrable_domain(&r.key) == mixed_domain.key)
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.counts.total()));
        for row in rows {
            println!(
                "  {:<40} {:<10} tracking={:<6} functional={:<6}",
                row.key,
                row.classification.to_string(),
                row.counts.tracking,
                row.counts.functional
            );
        }
    }
    println!(
        "{} of {} hostnames under mixed domains are themselves mixed ({:.0}%).",
        hostnames.resource_counts.mixed,
        hostnames.resource_counts.total(),
        hostnames.resource_counts.mixed_share()
    );

    // 6. Per-request verdicts — what a deployed blocker would ask. The
    //    sifter exports a `VerdictTable`; the table answers, allocation-free.
    let table = sifter.verdict_table();
    println!("\nSample verdicts:");
    for request in study.requests.iter().take(5) {
        let verdict = table.verdict(&DecisionRequest::from_labeled(request));
        let action = if verdict.should_block() {
            "block"
        } else {
            "allow"
        };
        println!("  {:<60} -> {verdict} ({action})", request.url);
    }

    // 7. A taste of the finer-grained artifacts: the first mixed script and
    //    its surrogate (`surrogate_generation` walks through all of them).
    if let Some(surrogate) = study.surrogates().first() {
        println!(
            "\nExample surrogate for the mixed script {}:\n",
            surrogate.script_url
        );
        println!("{}", surrogate.render());
    }
}
