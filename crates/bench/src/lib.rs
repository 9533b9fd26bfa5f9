//! Shared harness for the experiment-regeneration binary (`paper`).
//!
//! Every subcommand regenerates one table or figure of the paper from the
//! same deterministic study (same profile, same seed), so their outputs are
//! mutually consistent and match the `all` driver's summary (README,
//! Quickstart). The scale and seed can be overridden through environment
//! variables:
//!
//! * `TRACKERSIFT_SITES` — number of websites (default 5000; the paper
//!   crawled 100K, the default keeps every binary under a minute on a
//!   laptop while preserving the distributional shape);
//! * `TRACKERSIFT_SEED` — corpus seed (default 2021).
//!
//! A variable that is set but does not parse, or a scale the generator
//! refuses (`TRACKERSIFT_SITES=0`), stops the binary with exit code 2
//! instead of running the default scale under the wrong name or panicking.

#![warn(unreachable_pub)]

use trackersift::{Study, StudyConfig};
use websim::CorpusProfile;

/// Number of sites used by experiment binaries unless overridden.
pub(crate) const DEFAULT_SITES: usize = 5_000;

/// Seed used unless overridden.
pub(crate) const DEFAULT_SEED: u64 = 2021;

/// One knob's value: `default` when the variable is unset, an error naming
/// the variable and the value when it is set to something that does not
/// parse (a mistyped scale must not silently run the default).
fn parse_knob<T: std::str::FromStr>(
    name: &str,
    value: Option<String>,
    default: T,
) -> Result<T, String> {
    match value {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name}={text:?} is not a valid number")),
    }
}

/// The knob's value; an error is reported on stderr and exits 2.
fn or_exit<T>(knob: Result<T, String>) -> T {
    knob.unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    })
}

/// Read a knob from the environment through [`parse_knob`]; an unparseable
/// value is reported on stderr and exits 2.
fn env_knob<T: std::str::FromStr>(name: &str, default: T) -> T {
    let value = std::env::var_os(name).map(|raw| raw.to_string_lossy().into_owned());
    or_exit(parse_knob(name, value, default))
}

/// Read a `usize` knob from the environment: `default` when unset, exit 2
/// when set but unparseable (shared by the bench binaries).
pub fn env_usize(name: &str, default: usize) -> usize {
    env_knob(name, default)
}

/// Read the experiment scale from the environment.
fn sites_from_env() -> usize {
    env_usize("TRACKERSIFT_SITES", DEFAULT_SITES)
}

/// Read the experiment seed from the environment.
fn seed_from_env() -> u64 {
    env_knob("TRACKERSIFT_SEED", DEFAULT_SEED)
}

/// The paper profile at `sites` sites, or an error naming
/// `TRACKERSIFT_SITES` when the generator would refuse that scale.
fn paper_profile(sites: usize) -> Result<CorpusProfile, String> {
    let profile = CorpusProfile::paper().with_sites(sites);
    profile
        .validate()
        .map_err(|reason| format!("TRACKERSIFT_SITES={sites}: {reason}"))?;
    Ok(profile)
}

/// The study configuration the experiment binaries share.
fn experiment_config() -> StudyConfig {
    StudyConfig {
        profile: or_exit(paper_profile(sites_from_env())),
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
        study.database.total_requests(),
        study.database.script_initiated_requests(),
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

    #[test]
    fn a_set_but_unparseable_knob_is_an_error_not_the_default() {
        let parse = |value: Option<&str>| {
            parse_knob(
                "TRACKERSIFT_SITES",
                value.map(str::to_string),
                DEFAULT_SITES,
            )
        };
        assert_eq!(parse(None), Ok(DEFAULT_SITES));
        assert_eq!(parse(Some("300")), Ok(300));
        for typo in ["2OO", "", "-1", "3e2"] {
            let message = parse(Some(typo)).expect_err(typo);
            assert!(message.contains("TRACKERSIFT_SITES"), "{message}");
            assert!(message.contains(typo), "{message}");
        }
    }

    #[test]
    fn a_scale_the_generator_refuses_is_an_error_not_a_panic() {
        let message = paper_profile(0).expect_err("zero sites");
        assert!(message.contains("TRACKERSIFT_SITES"), "{message}");
        assert!(message.contains("at least one site"), "{message}");
        assert_eq!(paper_profile(300).map(|profile| profile.sites), Ok(300));
    }
}
