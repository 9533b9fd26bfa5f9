//! Cross-crate integration tests: corpus → crawl → label → hierarchy →
//! downstream analyses, checking the invariants the paper's methodology
//! relies on.

use trackersift_suite::prelude::*;

fn study(sites: usize, seed: u64) -> Study {
    Study::run(StudyConfig {
        profile: CorpusProfile::small().with_sites(sites),
        seed,
        ..StudyConfig::default()
    })
}

#[test]
fn full_pipeline_is_deterministic() {
    let a = study(60, 5);
    let b = study(60, 5);
    assert_eq!(a.hierarchy, b.hierarchy);
    assert_eq!(a.label_stats, b.label_stats);
    assert_eq!(a.database, b.database);
}

#[test]
fn request_conservation_across_the_hierarchy() {
    let study = study(120, 9);
    let hierarchy = &study.hierarchy;
    // Level 0 input = all labeled script-initiated requests.
    assert_eq!(
        hierarchy.levels[0].request_counts.total(),
        study.requests.len() as u64
    );
    // Each level's input is exactly the previous level's mixed requests.
    for window in hierarchy.levels.windows(2) {
        assert_eq!(
            window[1].request_counts.total(),
            window[0].request_counts.mixed
        );
    }
    // Every request is either attributed at some level or left in the residue.
    let attributed: u64 = hierarchy
        .levels
        .iter()
        .map(|l| l.request_counts.tracking + l.request_counts.functional)
        .sum();
    assert_eq!(
        attributed + hierarchy.unattributed_requests(),
        hierarchy.total_requests()
    );
}

#[test]
fn hierarchy_reproduces_the_papers_qualitative_shape() {
    // The quantitative calibration is checked (and recorded) by the
    // experiment binaries; here we assert the qualitative findings that make
    // the paper's argument, at small scale:
    let study = study(400, 2021);
    let h = &study.hierarchy;

    // 1. Mixed resources exist at every granularity.
    for level in &h.levels {
        assert!(
            level.resource_counts.mixed > 0,
            "{:?} has no mixed resources",
            level.granularity
        );
    }
    // 2. Mixed domains carry a disproportionate share of requests
    //    (they are the big platforms/CDNs).
    let domains = h.level(Granularity::Domain);
    assert!(domains.request_counts.mixed_share() > domains.resource_counts.mixed_share());
    // 3. The hierarchy attributes the vast majority of requests by the
    //    method level (the paper reports 98%).
    assert!(
        h.overall_attribution() > 90.0,
        "only {:.1}% of requests attributed",
        h.overall_attribution()
    );
    // 4. Each finer level strictly improves cumulative separation.
    let cumulative = h.cumulative_separation();
    for window in cumulative.windows(2) {
        assert!(window[1].1 > window[0].1, "{cumulative:?}");
    }
}

#[test]
fn paper_corpus_reproduces_the_recorded_numbers() {
    // The science as numbers: 500 sites of the paper profile at seed 2021,
    // as `bench_e2e --workload study --seed 2021 --trace 1` prints them. A
    // capture path that still captures the same web reproduces every one.
    let study = Study::run(StudyConfig::default().with_sites(500));
    assert_eq!(study.database.total_requests(), 25_966);
    assert_eq!(study.label_stats.labeled(), 23_296);
    assert_eq!(study.label_stats.tracking, 11_464);

    let headline = trackersift_suite::trackersift::headline(&study.hierarchy);
    for (name, got, want) in [
        ("mixed domains", headline.mixed_domains_pct, 17.365),
        ("mixed hostnames", headline.mixed_hostnames_pct, 43.915),
        ("mixed scripts", headline.mixed_scripts_pct, 9.297),
        ("mixed methods", headline.mixed_methods_pct, 19.590),
        ("attributed", headline.requests_attributed_pct, 97.931),
    ] {
        assert!((got - want).abs() <= 0.001, "{name}: {got:.4}% ≠ {want}%");
    }
}

#[test]
fn figure3_histograms_are_three_peaked_at_domain_level() {
    let study = study(400, 2021);
    let histogram = RatioHistogram::paper_bins(study.hierarchy.level(Granularity::Domain));
    // Pure tracking / functional masses (the ±∞ peaks) and the mixed middle
    // must all be populated.
    assert!(histogram.tracking_mass(2.0) > 0);
    assert!(histogram.functional_mass(2.0) > 0);
    assert!(histogram.mixed_mass(2.0) > 0);
    assert_eq!(
        histogram.total(),
        study
            .hierarchy
            .level(Granularity::Domain)
            .resource_counts
            .total()
    );
}

#[test]
fn blocking_mixed_scripts_causes_breakage_but_blocking_tracking_scripts_does_not() {
    let study = study(250, 17);
    // Mixed scripts: breakage expected on a majority of sampled sites.
    let mixed_breakage = study.breakage_study(8);
    assert!(!mixed_breakage.rows.is_empty());
    assert!(mixed_breakage.any_breakage_share() >= 50.0);

    // Blocking *pure tracking* scripts (what filter lists safely do today)
    // on the same corpus: load a few sites with their tracking-classified
    // scripts blocked and verify no core feature breaks.
    let tracking_scripts: std::collections::HashSet<&str> = study
        .hierarchy
        .level(Granularity::Script)
        .resources
        .iter()
        .filter(|r| r.classification == Classification::Tracking)
        .map(|r| r.key.as_str())
        .collect();
    let mut checked = 0;
    for site in study.corpus.websites.iter().take(50) {
        let blocked: Vec<String> = site
            .scripts
            .iter()
            .map(|s| s.origin.url().to_string())
            .filter(|u| tracking_scripts.contains(u.as_str()))
            .collect();
        if blocked.is_empty() {
            continue;
        }
        checked += 1;
        let row = trackersift::breakage::grade_site(site, &blocked);
        assert_ne!(
            row.breakage,
            Breakage::Major,
            "blocking pure tracking scripts should not break core functionality on {}",
            site.domain
        );
    }
    assert!(checked > 5, "too few sites had tracking-classified scripts");
}

#[test]
fn surrogates_cover_every_mixed_script_and_suppress_tracking() {
    let study = study(200, 3);
    let mixed_scripts: Vec<&str> = study
        .hierarchy
        .level(Granularity::Script)
        .resources
        .iter()
        .filter(|r| r.classification == Classification::Mixed)
        .map(|r| r.key.as_str())
        .collect();
    let surrogates = study.surrogates();
    assert_eq!(surrogates.len(), mixed_scripts.len());
    for surrogate in &surrogates {
        assert!(mixed_scripts.contains(&surrogate.script_url.as_str()));
        assert!(!surrogate.methods.is_empty());
        // A surrogate must never throw away functional requests silently:
        // every functional request of the script is preserved or guarded.
        assert!(
            surrogate.preserved_functional_requests > 0
                || surrogate.kept() + surrogate.guarded() == 0
        );
    }
}

#[test]
fn callstack_analysis_only_sees_the_mixed_method_residue() {
    let study = study(300, 29);
    let analysis = study.callstack_analysis();
    assert_eq!(
        analysis.mixed_methods() as u64,
        study
            .hierarchy
            .level(Granularity::Method)
            .resource_counts
            .mixed
    );
}

#[test]
fn sensitivity_sweep_plateaus_near_the_default_threshold() {
    let study = study(400, 2021);
    let sweep = study.sensitivity_sweep();
    // Around the default threshold the script-level mixed share must change
    // slowly (the paper's justification for choosing 2).
    let near_default = sweep.max_step_change(Granularity::Script, 1.8, 2.2);
    assert!(
        near_default < 10.0,
        "mixed share jumps {near_default:.1} points around the default threshold"
    );
}

#[test]
fn label_oracle_and_crawler_exclusions_match_paper_method() {
    let study = study(80, 41);
    // Non-script-initiated requests were captured by the crawler but
    // excluded from labeling.
    assert!(study.label_stats.excluded_non_script > 0);
    assert_eq!(
        study.label_stats.labeled(),
        study.requests.len(),
        "every kept request is labeled exactly once"
    );
    // The filter engine contains both curated and ecosystem rules.
    assert!(study.engine.rule_count() > 300);
}
