//! Shared harness for the experiment-regeneration binary (`paper`).
//!
//! Every subcommand regenerates one table or figure of the paper from the
//! same deterministic study (same profile, same seed), so their outputs are
//! mutually consistent and match what `EXPERIMENTS.md` records. The scale
//! and seed can be overridden through environment variables:
//!
//! * `TRACKERSIFT_SITES` — number of websites (default 5000; the paper
//!   crawled 100K, the default keeps every binary under a minute on a
//!   laptop while preserving the distributional shape);
//! * `TRACKERSIFT_SEED` — corpus seed (default 2021).

use trackersift::{Study, StudyConfig};
use websim::CorpusProfile;

/// Number of sites used by experiment binaries unless overridden.
pub const DEFAULT_SITES: usize = 5_000;

/// Seed used unless overridden.
pub const DEFAULT_SEED: u64 = 2021;

/// Read a `usize` knob from the environment, falling back to `default`
/// when unset or unparseable (shared by the bench binaries).
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Read the experiment scale from the environment.
pub fn sites_from_env() -> usize {
    env_usize("TRACKERSIFT_SITES", DEFAULT_SITES)
}

/// Read the experiment seed from the environment.
pub fn seed_from_env() -> u64 {
    std::env::var("TRACKERSIFT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// The study configuration the experiment binaries share.
pub fn experiment_config() -> StudyConfig {
    StudyConfig {
        profile: CorpusProfile::paper().with_sites(sites_from_env()),
        seed: seed_from_env(),
        ..StudyConfig::default()
    }
}

/// Run (or reuse) the shared study and print a short provenance banner.
pub fn run_experiment_study(name: &str) -> Study {
    let config = experiment_config();
    eprintln!(
        "[{name}] generating corpus: {} sites, seed {} (override with TRACKERSIFT_SITES / TRACKERSIFT_SEED)",
        config.profile.sites, config.seed
    );
    let study = Study::run(config);
    eprintln!(
        "[{name}] crawl: {} requests captured, {} script-initiated, {} labeled tracking / {} functional",
        study.crawl_summary.total_requests,
        study.crawl_summary.script_initiated_requests,
        study.label_stats.tracking,
        study.label_stats.functional,
    );
    study
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults_apply() {
        // The variables are usually unset under `cargo test`.
        if std::env::var("TRACKERSIFT_SITES").is_err() {
            assert_eq!(sites_from_env(), DEFAULT_SITES);
        }
        if std::env::var("TRACKERSIFT_SEED").is_err() {
            assert_eq!(seed_from_env(), DEFAULT_SEED);
        }
        let config = experiment_config();
        assert!(config.profile.validate().is_ok());
    }
}
