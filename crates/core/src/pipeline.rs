//! End-to-end study pipeline.
//!
//! [`Study::run`] wires the whole reproduction together as a chain of named,
//! individually-timed steps, the way the paper's methodology section
//! describes it:
//!
//! ```text
//! generate ──▶ crawl ──▶ label ──▶ classify ──▶ (analysis methods on demand)
//! ```
//!
//! * `generate` builds the synthetic corpus (stand-in for "crawl list");
//! * `crawl` loads every site on a worker pool sized by
//!   [`ClusterConfig::workers`], capturing each script-initiated request with
//!   its call stack;
//! * `label` compiles the filter oracle (EasyList + EasyPrivacy + ecosystem
//!   rules) and labels the crawl on the same worker pool;
//! * `classify` runs the hierarchical classifier over the labels.
//!
//! `crawl → label` is the capture path, and a request exists once along it:
//! the simulator emits one [`crawler::RequestWillBeSent`] per request, the
//! crawl database takes the page load's vector by move, and the labeler
//! turns each script-initiated record into one [`LabeledRequest`] through a
//! single derivation (parse, oracle, hostname, registrable domain; see
//! [`crate::label`]). No stage caches or copies a request on the way.
//!
//! Each step runs as a closure under [`StageTimings::time`], which records
//! its name and wall-clock duration; the record is exposed on
//! [`Study::timings`], so every run reports where its time went. The
//! downstream analyses (sensitivity sweep, call-stack analysis, surrogates,
//! breakage) are not stages: each is a `Study` method that runs when it is
//! called. The bench binaries and the examples are thin wrappers over this
//! type.

use crate::breakage::{analyze_breakage, BreakageStudy};
use crate::callstack::{analyze_mixed_methods, CallStackAnalysis};
use crate::hierarchy::HierarchicalClassifier;
use crate::label::{LabelStats, LabeledRequest, Labeler};
use crate::sensitivity::SensitivitySweep;
use crate::surrogate::generate_surrogates;
use crawler::{ClusterConfig, CrawlCluster, CrawlDatabase, CrawlSummary};
use filterlist::FilterEngine;
use std::time::{Duration, Instant};
use trackersift_engine::{
    Classification, Granularity, HierarchyResult, KeyInterner, LevelResult, ObservationRef, Sifter,
    SurrogateScript, Thresholds,
};
use websim::{filter_rules, CorpusGenerator, CorpusProfile, WebCorpus};

/// Wall-clock timing of one executed stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StageTiming {
    /// The stage's name as it appears in timing reports.
    pub(crate) name: &'static str,
    /// Wall-clock duration of the stage.
    pub(crate) duration: Duration,
}

/// Ordered per-stage timings of a pipeline run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageTimings {
    timings: Vec<StageTiming>,
}

impl StageTimings {
    /// Run `work` as the stage `name`, recording its wall-clock duration.
    pub(crate) fn time<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let output = work();
        self.timings.push(StageTiming {
            name,
            duration: start.elapsed(),
        });
        output
    }

    /// A one-line human-readable summary, e.g.
    /// `generate 12.3ms | crawl 48.1ms | label 21.9ms | classify 9.0ms`.
    pub fn summary(&self) -> String {
        self.timings
            .iter()
            .map(|t| format!("{} {:.1?}", t.name, t.duration))
            .collect::<Vec<_>>()
            .join(" | ")
    }
}

/// Configuration of a study run.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Corpus profile (number of sites, ecosystem shape, mixing rates).
    pub profile: CorpusProfile,
    /// Corpus seed.
    pub seed: u64,
    /// Crawl cluster configuration; its `workers` knob also governs the
    /// parallel labeling stage.
    pub cluster: ClusterConfig,
    /// Classification thresholds.
    pub thresholds: Thresholds,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            profile: CorpusProfile::paper(),
            seed: 2021,
            cluster: ClusterConfig::default(),
            thresholds: Thresholds::paper(),
        }
    }
}

impl StudyConfig {
    /// A small configuration for tests and the quickstart example.
    pub fn small() -> Self {
        StudyConfig {
            profile: CorpusProfile::small(),
            ..Default::default()
        }
    }

    /// Override the number of sites.
    pub fn with_sites(mut self, sites: usize) -> Self {
        self.profile.sites = sites;
        self
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the worker-thread count used by the crawl and labeling
    /// stages (a `--threads`-style knob).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.cluster = self.cluster.with_workers(threads);
        self
    }
}

/// A fully materialised study: corpus, crawl, labels and classification.
#[derive(Debug)]
pub struct Study {
    /// The configuration the study was run with.
    pub config: StudyConfig,
    /// The generated corpus (the "100K websites").
    pub corpus: WebCorpus,
    /// The filter engine (curated EasyList/EasyPrivacy + ecosystem rules).
    pub engine: FilterEngine,
    /// The crawl database.
    pub database: CrawlDatabase,
    /// Crawl summary statistics.
    pub crawl_summary: CrawlSummary,
    /// The labeled script-initiated requests.
    pub requests: Vec<LabeledRequest>,
    /// Labeling statistics.
    pub label_stats: LabelStats,
    /// The hierarchical classification result.
    pub hierarchy: HierarchyResult,
    /// Per-stage wall-clock timings of the run.
    pub timings: StageTimings,
}

impl Study {
    /// Run the full pipeline for a configuration as named, timed stages.
    pub fn run(config: StudyConfig) -> Self {
        let mut timings = StageTimings::default();

        let corpus = timings.time("generate", || {
            CorpusGenerator::generate(&config.profile, config.seed)
        });
        let (database, crawl_summary) = timings.time("crawl", || {
            CrawlCluster::new(config.cluster.clone()).crawl_with_summary(&corpus)
        });
        let (engine, requests, label_stats) = timings.time("label", || {
            let engine = filter_rules::engine_for(&corpus.ecosystem);
            let (requests, stats) =
                Labeler::new(&engine).label_database_parallel(&database, config.cluster.workers);
            (engine, requests, stats)
        });
        let hierarchy = timings.time("classify", || {
            HierarchicalClassifier::new(config.thresholds).classify(&requests)
        });

        Study {
            config,
            corpus,
            engine,
            database,
            crawl_summary,
            requests,
            label_stats,
            hierarchy,
            timings,
        }
    }

    /// The Figure 4 sensitivity sweep.
    pub fn sensitivity_sweep(&self) -> SensitivitySweep {
        SensitivitySweep::paper_sweep(&self.requests)
    }

    /// The Figure 5 call-stack analysis over the mixed-method residue.
    ///
    /// Membership in the residue is tested through interned
    /// `script :: method` symbols — no string key is built per request.
    pub fn callstack_analysis(&self) -> CallStackAnalysis {
        let mut interner = KeyInterner::new();
        let mixed_method_keys: std::collections::HashSet<_> = self
            .hierarchy
            .level(Granularity::Method)
            .resources
            .iter()
            .filter(|r| r.classification == Classification::Mixed)
            .map(|r| interner.intern(&r.key))
            .collect();
        let mut residue: Vec<&LabeledRequest> = Vec::new();
        for request in &self.requests {
            let key = interner.intern_method(&request.initiator_script, &request.initiator_method);
            if mixed_method_keys.contains(&key) {
                residue.push(request);
            }
        }
        analyze_mixed_methods(&residue)
    }

    /// Surrogate scripts for every mixed script.
    pub fn surrogates(&self) -> Vec<SurrogateScript> {
        generate_surrogates(&self.hierarchy, &self.requests)
    }

    /// Produce a [`Sifter`] trained on this study's labeled requests — the
    /// bridge from the batch pipeline to the long-lived serving API. The
    /// study is the *producer*; the sifter (its [`Sifter::hierarchy`]
    /// export, the [`Sifter::verdict_table`] that answers verdict and
    /// decision queries, and [`Sifter::snapshot`] persistence) is how
    /// downstream consumers read the trained state. The study's compiled
    /// filter engine rides along, so raw-URL [`Sifter::apply`] and the
    /// table's filter-list backstop work out of the box.
    pub fn sifter(&self) -> Sifter {
        let mut sifter = Sifter::builder()
            .thresholds(self.config.thresholds)
            .engine(self.engine.clone())
            .build();
        sifter.apply_batch(self.requests.iter().map(ObservationRef::from));
        sifter.commit();
        sifter
    }

    /// The Table 3 breakage study over `sample_size` sites with mixed
    /// scripts.
    pub fn breakage_study(&self, sample_size: usize) -> BreakageStudy {
        analyze_breakage(&self.corpus, &self.hierarchy, sample_size)
    }

    /// Flat (non-hierarchical) classification at a single granularity over
    /// *all* script-initiated requests — the ablation baseline showing why
    /// the progressive hierarchy matters, at the study's thresholds.
    pub fn flat_classification(&self, granularity: Granularity) -> LevelResult {
        let all: Vec<&LabeledRequest> = self.requests.iter().collect();
        HierarchicalClassifier::new(self.config.thresholds).classify_flat(granularity, &all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> Study {
        Study::run(StudyConfig::small().with_sites(100))
    }

    #[test]
    fn pipeline_runs_end_to_end() {
        let study = study();
        assert_eq!(study.corpus.websites.len(), 100);
        assert_eq!(study.crawl_summary.sites, 100);
        assert!(study.label_stats.labeled() > 1_000);
        assert_eq!(study.hierarchy.total_requests, study.requests.len() as u64);
        // All four downstream analyses run.
        assert_eq!(study.sensitivity_sweep().points.len(), 21);
        let breakage = study.breakage_study(5);
        assert!(breakage.rows.len() <= 5);
        let _ = study.callstack_analysis();
        let _ = study.surrogates();
    }

    #[test]
    fn stages_are_named_and_timed() {
        let study = study();
        let names: Vec<&str> = study.timings.timings.iter().map(|t| t.name).collect();
        assert_eq!(names, vec!["generate", "crawl", "label", "classify"]);
        for timing in &study.timings.timings {
            assert!(
                timing.duration.as_nanos() > 0,
                "{} has no timing",
                timing.name
            );
        }
    }

    #[test]
    fn hierarchy_attributes_more_requests_than_domain_level_alone() {
        let study = study();
        let domain_only = study
            .hierarchy
            .level(Granularity::Domain)
            .request_separation_factor();
        let overall = study.hierarchy.overall_attribution();
        assert!(
            overall > domain_only,
            "hierarchy ({overall:.1}%) should beat domain-only ({domain_only:.1}%)"
        );
        assert!(overall > 80.0, "overall attribution {overall:.1}% too low");
    }

    #[test]
    fn flat_classification_matches_domain_level_at_domain_granularity() {
        let study = study();
        let flat = study.flat_classification(Granularity::Domain);
        let hier = study.hierarchy.level(Granularity::Domain);
        assert_eq!(flat.resource_counts, hier.resource_counts);
        assert_eq!(flat.request_counts, hier.request_counts);
    }

    #[test]
    fn flat_method_classification_sees_all_requests() {
        let study = study();
        let flat = study.flat_classification(Granularity::Method);
        assert_eq!(flat.input_requests, study.requests.len() as u64);
        // The hierarchy's method level only sees the mixed-script residue.
        assert!(flat.input_requests >= study.hierarchy.level(Granularity::Method).input_requests);
    }

    #[test]
    fn study_produces_an_equivalent_sifter() {
        let study = study();
        let mut sifter = study.sifter();
        // The sifter's committed export is exactly the study's hierarchy.
        assert_eq!(sifter.hierarchy(), study.hierarchy);
        assert_eq!(sifter.ingest_stats().observed, study.requests.len() as u64);
        // And its table serves a verdict for every labeled request it was
        // trained on.
        let table = sifter.verdict_table();
        for request in &study.requests {
            let verdict = table.verdict(&crate::DecisionRequest::from(request));
            assert!(verdict.classification().is_some(), "{}", request.url);
        }
    }

    #[test]
    fn reclassify_with_paper_thresholds_is_byte_identical() {
        let study = study();
        let again = HierarchicalClassifier::new(study.config.thresholds).classify(&study.requests);
        assert_eq!(again, study.hierarchy);
        // Byte-level regression guard: the reclassified hierarchy renders to
        // exactly the same bytes as the original, so resource ordering and
        // key formatting cannot silently drift.
        assert_eq!(
            format!("{again:?}").into_bytes(),
            format!("{:?}", study.hierarchy).into_bytes()
        );
    }

    #[test]
    fn stages_chain_and_record_timings() {
        let mut timings = StageTimings::default();
        let input = [1u64, 2, 3];
        let doubled: Vec<u64> = timings.time("double", || input.iter().map(|x| x * 2).collect());
        let total: u64 = timings.time("sum", || doubled.into_iter().sum());
        assert_eq!(total, 12);
        let names: Vec<&str> = timings.timings.iter().map(|t| t.name).collect();
        assert_eq!(names, vec!["double", "sum"]);
        assert!(timings.summary().contains("double"));
    }
}
