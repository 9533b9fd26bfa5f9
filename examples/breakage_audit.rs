//! Domain-specific example: the breakage audit (paper §5, Table 3). Blocks
//! the scripts TrackerSift classified as mixed on a sample of sites and
//! reports whether core or secondary functionality broke — the evidence that
//! mixed resources cannot be safely blocked by today's content blockers.
//!
//! ```sh
//! cargo run --release --example breakage_audit
//! ```

use trackersift_suite::prelude::*;

fn main() {
    let study = Study::run(StudyConfig {
        profile: CorpusProfile::quickstart(),
        seed: 23,
        ..StudyConfig::default()
    });

    let sample_size = 10;
    let breakage = study.breakage_study(sample_size);

    println!(
        "Blocking mixed scripts on {} sampled sites (of {} crawled):\n",
        breakage.rows.len(),
        study.database.site_count()
    );
    println!(
        "{:<28} {:<36} {:<8} Broken features",
        "Website", "Blocked mixed script(s)", "Grade"
    );
    for row in &breakage.rows {
        println!(
            "{:<28} {:<36} {:<8} {}",
            row.website,
            row.blocked_scripts.join(", "),
            row.breakage.to_string(),
            if row.broken_features.is_empty() {
                "-".into()
            } else {
                row.broken_features.join(", ")
            }
        );
    }

    let (major, minor, none) = breakage.grade_counts();
    println!(
        "\n{major} major, {minor} minor, {none} none — {:.0}% of sites break when their mixed scripts are blocked.",
        breakage.any_breakage_share()
    );
    println!("(The paper observes major or minor breakage on 9 of its 10 manually audited sites.)");
}
