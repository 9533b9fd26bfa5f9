//! The full reproduction at configurable scale: every table and figure from
//! one study, printed to stdout. Equivalent to `paper all` in
//! the bench crate but driven through the public library API, so it doubles
//! as an end-to-end API example.
//!
//! ```sh
//! # default 2 000 sites; pass a number to change the scale
//! cargo run --release --example full_study -- 10000
//! ```

use trackersift::report::{render_headline, render_sensitivity_csv, render_table1, render_table2};
use trackersift_suite::prelude::*;

fn main() {
    let sites: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);

    let study = Study::run(StudyConfig {
        profile: CorpusProfile::paper().with_sites(sites),
        seed: 2021,
        ..StudyConfig::default()
    });

    println!("== TrackerSift full study: {sites} sites, seed 2021 ==\n");
    println!(
        "Captured {} requests, {} script-initiated ({} tracking / {} functional by the filter-list oracle).\n",
        study.crawl_summary.total_requests,
        study.requests.len(),
        study.label_stats.tracking,
        study.label_stats.functional
    );

    print!("{}", render_table1(&study.hierarchy));
    println!();
    print!("{}", render_table2(&study.hierarchy));
    println!();
    print!(
        "{}",
        render_headline(&trackersift::headline(&study.hierarchy))
    );
    println!();

    println!("Figure 3 (band masses per granularity):");
    for granularity in Granularity::ALL {
        let histogram = RatioHistogram::paper_bins(study.hierarchy.level(granularity));
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
        "\nTable 3: {major} major / {minor} minor / {none} none breakage on {} sampled sites.",
        breakage.rows.len()
    );
}
