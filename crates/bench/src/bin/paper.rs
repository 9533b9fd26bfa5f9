//! Regenerates the paper's tables, figures and ablations: one binary, one
//! subcommand per artefact (`paper table1`, …, `paper all`; run without one
//! to list them), all from the same deterministic study (see the crate docs
//! for `TRACKERSIFT_SITES` / `TRACKERSIFT_SEED`).

use trackersift::report::{
    render_headline, render_notable, render_sensitivity_csv, render_table1, render_table2,
    RatioHistogram,
};
use trackersift::{Granularity, HierarchicalClassifier, LabeledRequest, Study};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    let command: fn(&Study) = match name.as_str() {
        "table1" => table1,
        "table2" => table2,
        "table3" => table3,
        "figure3" => figure3,
        "figure4" => figure4,
        "figure5" => figure5,
        "ablation_flat_vs_hierarchical" => ablation_flat_vs_hierarchical,
        "ablation_stack_propagation" => ablation_stack_propagation,
        "all" => all,
        _ => {
            eprintln!(
                "usage: paper <table1 | table2 | table3 | figure3 | figure4 | figure5 | \
                 ablation_flat_vs_hierarchical | ablation_stack_propagation | all>"
            );
            std::process::exit(2);
        }
    };
    command(&trackersift_bench::run_experiment_study(&name));
}

/// **Table 1**: classification of *requests* at the domain, hostname, script
/// and method granularities, with per-level and cumulative separation
/// factors.
fn table1(study: &Study) {
    let hierarchy = &study.hierarchy;
    print!("{}", render_table1(hierarchy));
    println!();
    print!("{}", render_headline(&trackersift::headline(hierarchy)));
}

/// **Table 2**: classification of unique *resources* (domains, hostnames,
/// scripts, methods) with per-level separation factors, plus the "notable
/// resources" listing from the paper's prose.
fn table2(study: &Study) {
    let hierarchy = &study.hierarchy;
    print!("{}", render_table2(hierarchy));
    println!();
    for granularity in [Granularity::Domain, Granularity::Hostname] {
        print!("{}", render_notable(hierarchy.level(granularity), 5));
        println!();
    }
}

/// **Table 3**: manual breakage analysis of blocking mixed scripts on a
/// sample of 10 websites, graded major / minor / none.
fn table3(study: &Study) {
    let breakage = study.breakage_study(10);
    println!(
        "Table 3: Breakage caused by blocking mixed scripts on {} websites",
        breakage.rows.len()
    );
    println!(
        "{:<28} {:<34} {:<8} Broken features",
        "Website", "Mixed script(s) blocked", "Breakage"
    );
    for row in &breakage.rows {
        println!(
            "{:<28} {:<34} {:<8} {}",
            row.website,
            row.blocked_scripts.join(", "),
            row.breakage.to_string(),
            if row.broken_features.is_empty() {
                "-".to_string()
            } else {
                row.broken_features.join(", ")
            }
        );
    }
    let (major, minor, none) = breakage.grade_counts();
    println!();
    println!(
        "Summary: {major} major, {minor} minor, {none} none ({:.0}% of sampled sites show breakage)",
        breakage.any_breakage_share()
    );
}

/// **Figure 3 (a–d)**: the distribution of unique domains, hostnames,
/// scripts and script methods over the common-log ratio of tracking to
/// functional requests, with the (-∞,-2] functional band, the (-2,2) mixed
/// band, and the [2,∞) tracking band.
fn figure3(study: &Study) {
    for (panel, granularity) in [
        ("(a) domain", Granularity::Domain),
        ("(b) hostname", Granularity::Hostname),
        ("(c) script URL", Granularity::Script),
        ("(d) script method", Granularity::Method),
    ] {
        let level = study.hierarchy.level(granularity);
        let histogram = RatioHistogram::paper_bins(level);
        println!("Figure 3{panel}: {} unique resources", histogram.total());
        println!(
            "  functional (ratio <= -2): {}   mixed (-2..2): {}   tracking (>= 2): {}",
            histogram.functional_mass(2.0),
            histogram.mixed_mass(2.0),
            histogram.tracking_mass(2.0)
        );
        print!("{}", histogram.to_ascii(48));
        println!();
        println!("CSV:");
        print!("{}", histogram.to_csv());
        println!();
    }
}

/// **Figure 4**: sensitivity of the classification to the log-ratio
/// threshold, swept from 1.0 to 3.0 in steps of 0.1. The paper plots the
/// percentage of *scripts* classified mixed and reports that the curve
/// plateaus around the default threshold of 2.
fn figure4(study: &Study) {
    let sweep = study.sensitivity_sweep();
    println!("Figure 4: % mixed scripts vs classification threshold");
    print!("{}", render_sensitivity_csv(&sweep));
    println!();
    let plateau = sweep.max_step_change(Granularity::Script, 1.8, 2.2);
    println!(
        "Max step-to-step change in mixed-script share around the default threshold (1.8..2.2): {plateau:.3} percentage points"
    );
}

/// **Figure 5**: call-stack analysis of requests that remain mixed at method
/// level. For every mixed method the traces of its tracking and functional
/// requests are merged into a call graph and the divergence points (nodes
/// that only participate in tracking traces) are reported — the candidates
/// whose removal blocks the tracking behaviour without touching the
/// functional path.
fn figure5(study: &Study) {
    let analysis = study.callstack_analysis();
    println!("Figure 5: call-stack analysis of mixed methods");
    println!(
        "{} mixed methods analysed; {} ({:.0}%) have at least one divergence point",
        analysis.mixed_methods(),
        analysis.separable_methods(),
        analysis.separable_share()
    );
    println!();
    // Print a handful of worked examples, mirroring the paper's single
    // worked example (clone.js m2 / track.js t).
    for (root, graph) in analysis.graphs.iter().take(5) {
        println!("mixed method: {}", root.label());
        println!(
            "  call graph: {} nodes, {} edges",
            graph.node_count(),
            graph.edge_count()
        );
        let shared = graph.shared_nodes();
        if let Some(node) = shared.first() {
            println!("  participates in both traces: {}", node.label());
        }
        match graph.divergence_points().first() {
            Some((node, participation)) => println!(
                "  divergence point: {} (appears in {} tracking traces, 0 functional)",
                node.label(),
                participation.tracking_traces
            ),
            None => println!("  no divergence point: tracking and functional traces are identical"),
        }
        println!();
    }
}

/// Ablation: flat single-granularity classification vs TrackerSift's
/// progressive hierarchy.
///
/// A natural question is whether the hierarchy matters at all — one could
/// classify every request directly at, say, the method level. The ablation
/// shows what the hierarchy buys: the flat method-level classifier must
/// decide for *every* script on the web (hundreds of thousands of
/// resources), whereas the hierarchy only descends into the mixed residue,
/// and the flat classifier's separation is not meaningfully better.
fn ablation_flat_vs_hierarchical(study: &Study) {
    println!(
        "{:<28} {:>12} {:>14} {:>16}",
        "classifier", "resources", "separation(%)", "requests attributed(%)"
    );
    for granularity in Granularity::ALL {
        let flat = study.flat_classification(granularity);
        println!(
            "{:<28} {:>12} {:>14.1} {:>16.1}",
            format!("flat {}", granularity.name().to_lowercase()),
            flat.resource_counts.total(),
            flat.resource_separation_factor(),
            flat.request_separation_factor()
        );
    }
    let hierarchy = &study.hierarchy;
    let resources: u64 = hierarchy
        .levels
        .iter()
        .map(|l| l.resource_counts.total())
        .sum();
    println!(
        "{:<28} {:>12} {:>14} {:>16.1}",
        "hierarchical (paper)",
        resources,
        "-",
        hierarchy.overall_attribution()
    );
    println!();
    println!(
        "The hierarchy attributes {:.1}% of requests while only ever classifying the mixed residue at each finer level.",
        hierarchy.overall_attribution()
    );
}

/// Ablation: attributing requests to the innermost stack frame (the paper's
/// choice) versus the outermost frame (the root of the call chain).
///
/// The paper keeps the whole call stack and labels ancestral scripts too;
/// the initiator used for the script/method granularities is the innermost
/// frame. Attributing to the outermost frame instead (e.g. the tag manager
/// that injected everything) collapses many distinct initiators into a few
/// root scripts and inflates mixing — this ablation quantifies that.
fn ablation_stack_propagation(study: &Study) {
    // Innermost-frame attribution (the default).
    let innermost = &study.hierarchy;

    // Outermost-frame attribution: rewrite the initiator fields.
    let rewritten: Vec<LabeledRequest> = study
        .requests
        .iter()
        .map(|r| {
            let mut r = r.clone();
            if let Some(outer) = r.stack.last() {
                r.initiator_script = outer.script_url.clone();
                r.initiator_method = outer.function_name.clone();
            }
            r
        })
        .collect();
    let outermost = HierarchicalClassifier::new(study.config.thresholds).classify(&rewritten);

    println!(
        "{:<26} {:>16} {:>16} {:>18}",
        "attribution", "scripts observed", "mixed scripts", "requests attributed(%)"
    );
    for (name, result) in [
        ("innermost frame (paper)", innermost),
        ("outermost frame", &outermost),
    ] {
        let level = result.level(Granularity::Script);
        println!(
            "{:<26} {:>16} {:>16} {:>18.1}",
            name,
            level.resource_counts.total(),
            level.resource_counts.mixed,
            result.overall_attribution()
        );
    }
}

/// Every experiment (Tables 1–3, Figures 3–5 and the headline summary) from
/// the one shared study: the one-shot reproduction driver README's
/// Quickstart runs.
fn all(study: &Study) {
    println!("================================================================");
    println!(" TrackerSift reproduction — full experiment run");
    println!(
        " sites: {}   seed: {}   script-initiated requests: {}",
        study.corpus.websites.len(),
        study.config.seed,
        study.requests.len()
    );
    println!("================================================================\n");

    print!("{}", render_table1(&study.hierarchy));
    println!();
    print!("{}", render_table2(&study.hierarchy));
    println!();
    print!(
        "{}",
        render_headline(&trackersift::headline(&study.hierarchy))
    );
    println!();

    println!("Figure 3 band masses (functional / mixed / tracking):");
    for granularity in Granularity::ALL {
        let histogram = RatioHistogram::paper_bins(study.hierarchy.level(granularity));
        println!(
            "  {:<10} {:>8} / {:>8} / {:>8}",
            granularity.name(),
            histogram.functional_mass(2.0),
            histogram.mixed_mass(2.0),
            histogram.tracking_mass(2.0)
        );
    }
    println!();

    println!("Figure 4 sweep:");
    print!("{}", render_sensitivity_csv(&study.sensitivity_sweep()));
    println!();

    let analysis = study.callstack_analysis();
    println!(
        "Figure 5: {} mixed methods, {:.0}% separable by call-stack divergence",
        analysis.mixed_methods(),
        analysis.separable_share()
    );
    println!();

    let breakage = study.breakage_study(10);
    let (major, minor, none) = breakage.grade_counts();
    println!(
        "Table 3: {} sampled sites with mixed scripts -> {major} major, {minor} minor, {none} none",
        breakage.rows.len()
    );
    println!();

    let surrogates = study.surrogates();
    let guarded: usize = surrogates.iter().map(|s| s.guarded()).sum();
    let stubbed: usize = surrogates.iter().map(|s| s.stubbed()).sum();
    println!(
        "Surrogates: {} mixed scripts shimmed ({} methods stubbed, {} guarded)",
        surrogates.len(),
        stubbed,
        guarded
    );
}
