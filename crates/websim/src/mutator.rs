//! The evolving web: deterministic mutation of a corpus between crawl
//! epochs.
//!
//! A one-shot corpus models the paper's single measurement. Real
//! deployments watch the ecosystem drift underneath them: tracking scripts
//! hop CDNs and hostnames to shake URL-keyed blocklists, endpoints rotate
//! their paths and query shapes, and new invisible-pixel workloads appear
//! on pages over time. [`EcosystemMutator::advance`] applies exactly those
//! three mutations to a [`WebCorpus`] in place, once per epoch:
//!
//! * **CDN rotation** — an external tracking script's origin URL moves to a
//!   fresh subdomain of the *same* registrable domain
//!   (`cdn.metrics3.io` → `cdn-e4-0.metrics3.io`), so domain-anchored
//!   filter rules keep matching and ground-truth labels stay consistent,
//!   while the script's URL identity is destroyed.
//! * **Path rotation** — a script's tracking requests are re-drawn from
//!   [`tracking_endpoint_url`] on
//!   their original hostname: new path, new query shape, same host, same
//!   intent, still caught by the curated lists' generic rules.
//! * **Pixel emergence** — a new document-initiated tracking pixel appears
//!   on a page, aimed at a tracking-role host of the ecosystem. Appended to
//!   [`Website::non_script_requests`](crate::Website::non_script_requests)
//!   so existing scripts' behaviour — and therefore their
//!   [content fingerprints](crate::fingerprint) — is untouched.
//!
//! Mutation is deterministic from `(seed, epoch)` alone: every epoch
//! derives per-site RNGs the same way the generator does, so two runs from
//! the same seed evolve byte-identically regardless of when or how often
//! `advance` is called for an epoch sequence.

use crate::ecosystem::{tracking_endpoint_url, Ecosystem, HostRole};
use crate::model::{PlannedRequest, Purpose, ScriptArchetype, ScriptOrigin, WebCorpus};
use filterlist::hostname_of;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-epoch mutation probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MutationConfig {
    /// Probability that an external tracking script rotates to a fresh CDN
    /// subdomain in a given epoch.
    pub(crate) cdn_rotation_rate: f64,
    /// Probability that a script's tracking endpoints re-draw their paths
    /// and query shapes in a given epoch.
    pub(crate) path_rotation_rate: f64,
    /// Probability that a new invisible tracking pixel appears on a page in
    /// a given epoch.
    pub(crate) pixel_emergence_rate: f64,
}

impl Default for MutationConfig {
    fn default() -> Self {
        MutationConfig {
            cdn_rotation_rate: 0.08,
            path_rotation_rate: 0.15,
            pixel_emergence_rate: 0.10,
        }
    }
}

impl MutationConfig {
    /// An aggressive profile for rotation experiments: most of the
    /// ecosystem churns within a handful of epochs.
    pub fn churny() -> Self {
        MutationConfig {
            cdn_rotation_rate: 0.35,
            path_rotation_rate: 0.30,
            pixel_emergence_rate: 0.25,
        }
    }
}

/// One script whose origin URL moved to a fresh CDN subdomain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptRotation {
    /// Index of the website in the corpus.
    pub site: usize,
    /// Index of the script within the website.
    pub script: usize,
    /// Origin URL before the rotation.
    pub old_url: String,
    /// Origin URL after the rotation.
    pub new_url: String,
}

/// What one epoch of mutation did to the corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct MutationReport {
    /// The epoch the mutation was applied for.
    pub(crate) epoch: u64,
    /// Every CDN rotation applied, in (site, script) order.
    pub rotations: Vec<ScriptRotation>,
    /// Number of scripts whose tracking endpoints re-drew their paths.
    pub path_rotations: usize,
    /// Number of new document-initiated tracking pixels that appeared.
    pub emerged_requests: usize,
}

/// Advances a corpus through mutation epochs, deterministically from a
/// seed.
#[derive(Debug, Clone)]
pub struct EcosystemMutator {
    seed: u64,
    config: MutationConfig,
}

impl EcosystemMutator {
    /// A mutator for a seed and config.
    pub fn new(seed: u64, config: MutationConfig) -> Self {
        EcosystemMutator { seed, config }
    }

    /// Mutate the corpus in place for `epoch`, returning what changed.
    ///
    /// Deterministic in `(seed, epoch, site index)`: the same call on an
    /// identically evolved corpus produces the identical mutation.
    pub fn advance(&self, corpus: &mut WebCorpus, epoch: u64) -> MutationReport {
        let epoch_seed = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(epoch.wrapping_add(1)));
        let mut report = MutationReport {
            epoch,
            rotations: Vec::new(),
            path_rotations: 0,
            emerged_requests: 0,
        };
        let ecosystem = corpus.ecosystem.clone();
        for (site_idx, site) in corpus.websites.iter_mut().enumerate() {
            let mut rng = StdRng::seed_from_u64(
                epoch_seed ^ (0xd1b5_4a32_d192_ed03u64.wrapping_mul(site_idx as u64 + 1)),
            );

            for (script_idx, script) in site.scripts.iter_mut().enumerate() {
                // CDN rotation: external tracking scripts only — the
                // origin host moves, nothing about behaviour changes.
                if script.archetype == ScriptArchetype::Tracking {
                    if let ScriptOrigin::External { url } = &mut script.origin {
                        if rng.gen_bool(self.config.cdn_rotation_rate) {
                            if let Some(new_url) =
                                rotate_script_host(&ecosystem, url, epoch, &mut rng)
                            {
                                report.rotations.push(ScriptRotation {
                                    site: site_idx,
                                    script: script_idx,
                                    old_url: url.clone(),
                                    new_url: new_url.clone(),
                                });
                                *url = new_url;
                            }
                        }
                    }
                }

                // Path rotation: every tracking request the script issues
                // re-draws its endpoint on the same hostname.
                let has_tracking = script
                    .methods
                    .iter()
                    .any(|m| m.requests.iter().any(|r| r.intent == Purpose::Tracking));
                if has_tracking && rng.gen_bool(self.config.path_rotation_rate) {
                    let mut rotated = false;
                    for method in &mut script.methods {
                        for request in &mut method.requests {
                            if request.intent != Purpose::Tracking {
                                continue;
                            }
                            let host = hostname_of(&request.url).to_string();
                            if host.is_empty() {
                                continue;
                            }
                            let (url, resource_type) = tracking_endpoint_url(&host, &mut rng);
                            request.url = url;
                            request.resource_type = resource_type;
                            rotated = true;
                        }
                    }
                    if rotated {
                        report.path_rotations += 1;
                    }
                }
            }

            // Pixel emergence: a fresh invisible pixel in the page HTML.
            if rng.gen_bool(self.config.pixel_emergence_rate) {
                if let Some(host) = tracking_host(&ecosystem, &mut rng) {
                    let (url, resource_type) = tracking_endpoint_url(&host, &mut rng);
                    site.non_script_requests.push(PlannedRequest {
                        url,
                        resource_type,
                        intent: Purpose::Tracking,
                        via_caller: None,
                    });
                    report.emerged_requests += 1;
                }
            }
        }
        report
    }
}

/// The registrable domain of `host`: the ecosystem service domain it
/// belongs to, falling back to the last two DNS labels.
fn registrable_domain(ecosystem: &Ecosystem, host: &str) -> String {
    for service in &ecosystem.services {
        if host == service.domain || host.ends_with(&format!(".{}", service.domain)) {
            return service.domain.clone();
        }
    }
    let labels: Vec<&str> = host.rsplitn(3, '.').collect();
    match labels.as_slice() {
        [tld, sld, _rest] => format!("{sld}.{tld}"),
        _ => host.to_string(),
    }
}

/// Rewrite the host of a script URL to a fresh epoch-stamped subdomain of
/// the same registrable domain, so `||domain^`-anchored rules keep
/// matching.
fn rotate_script_host<R: Rng + ?Sized>(
    ecosystem: &Ecosystem,
    url: &str,
    epoch: u64,
    rng: &mut R,
) -> Option<String> {
    let host = hostname_of(url);
    if host.is_empty() {
        return None;
    }
    let domain = registrable_domain(ecosystem, host);
    let tail = &url[url.find(host)? + host.len()..];
    let k: u32 = rng.gen_range(0..16);
    Some(format!("https://cdn-e{epoch}-{k}.{domain}{tail}"))
}

/// A tracking-role hostname drawn from the ecosystem, if any exists.
fn tracking_host<R: Rng + ?Sized>(ecosystem: &Ecosystem, rng: &mut R) -> Option<String> {
    let candidates: Vec<&str> = ecosystem
        .services
        .iter()
        .flat_map(|s| s.hosts_with_role(HostRole::Tracking))
        .map(|h| h.hostname.as_str())
        .collect();
    if candidates.is_empty() {
        return None;
    }
    Some(candidates[rng.gen_range(0..candidates.len())].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::script_fingerprint;
    use crate::generator::CorpusGenerator;
    use crate::profiles::CorpusProfile;
    use filterlist::{FilterEngine, FilterRequest, RequestLabel};

    fn corpus() -> WebCorpus {
        CorpusGenerator::generate(&CorpusProfile::small().with_sites(40), 2021)
    }

    #[test]
    fn mutation_is_deterministic() {
        let mutator = EcosystemMutator::new(7, MutationConfig::churny());
        let mut a = corpus();
        let mut b = corpus();
        for epoch in 1..=3 {
            let ra = mutator.advance(&mut a, epoch);
            let rb = mutator.advance(&mut b, epoch);
            assert_eq!(ra, rb);
        }
        assert_eq!(a.websites, b.websites);
    }

    #[test]
    fn epochs_differ_and_rotations_accumulate() {
        let mutator = EcosystemMutator::new(7, MutationConfig::churny());
        let mut evolved = corpus();
        let mut rotated: std::collections::HashSet<(usize, usize)> =
            std::collections::HashSet::new();
        let mut emerged = 0;
        for epoch in 1..=10 {
            let report = mutator.advance(&mut evolved, epoch);
            rotated.extend(report.rotations.iter().map(|r| (r.site, r.script)));
            emerged += report.emerged_requests;
        }
        let trackers: usize = corpus()
            .websites
            .iter()
            .map(|site| {
                site.scripts
                    .iter()
                    .filter(|s| {
                        s.archetype == ScriptArchetype::Tracking
                            && matches!(s.origin, ScriptOrigin::External { .. })
                    })
                    .count()
            })
            .sum();
        assert!(
            rotated.len() * 10 >= trackers * 3,
            "only {}/{trackers} tracker scripts rotated over 10 epochs",
            rotated.len()
        );
        assert!(emerged > 0, "no pixels emerged in 10 epochs");
        assert_ne!(corpus().websites, evolved.websites);
    }

    #[test]
    fn cdn_rotation_preserves_registrable_domain_and_fingerprint() {
        let mutator = EcosystemMutator::new(3, MutationConfig::churny());
        let pristine = corpus();
        let mut evolved = corpus();
        let report = mutator.advance(&mut evolved, 1);
        assert!(!report.rotations.is_empty());
        for rotation in &report.rotations {
            let old_host = hostname_of(&rotation.old_url);
            let new_host = hostname_of(&rotation.new_url);
            assert!(!old_host.is_empty() && !new_host.is_empty());
            assert_ne!(old_host, new_host);
            assert_eq!(
                registrable_domain(&pristine.ecosystem, old_host),
                registrable_domain(&pristine.ecosystem, new_host),
                "{} -> {}",
                rotation.old_url,
                rotation.new_url
            );
            // Rotation changes the URL key but not the content identity.
            assert_eq!(
                script_fingerprint(&pristine.websites[rotation.site].scripts[rotation.script]),
                script_fingerprint(&evolved.websites[rotation.site].scripts[rotation.script]),
            );
        }
    }

    /// `(matched tracking, total tracking, functional labeled tracking)`
    /// across every planned request of the corpus.
    fn label_tally(engine: &FilterEngine, corpus: &WebCorpus) -> (usize, usize, usize) {
        let mut tally = (0usize, 0usize, 0usize);
        for site in &corpus.websites {
            let requests = site
                .scripts
                .iter()
                .flat_map(|s| s.planned_requests().map(|(_, r)| r))
                .chain(site.non_script_requests.iter());
            for request in requests {
                let req = FilterRequest::new(&request.url, &site.hostname, request.resource_type)
                    .unwrap();
                let listed = engine.label(&req) == RequestLabel::Tracking;
                match request.intent {
                    Purpose::Tracking => {
                        tally.1 += 1;
                        if listed {
                            tally.0 += 1;
                        }
                    }
                    Purpose::Functional if listed => tally.2 += 1,
                    Purpose::Functional => {}
                }
            }
        }
        tally
    }

    #[test]
    fn mutated_ground_truth_stays_consistent_with_the_lists() {
        // After heavy churn, tracking requests must still be caught by the
        // curated generic rules, and mutation must not mint any *new*
        // functional requests that match the lists (the seed corpus plants
        // a handful of deliberate false positives — those may remain).
        let engine = FilterEngine::easylist_easyprivacy();
        let pristine_tally = label_tally(&engine, &corpus());
        let mut evolved = corpus();
        let mutator = EcosystemMutator::new(11, MutationConfig::churny());
        for epoch in 1..=5 {
            mutator.advance(&mut evolved, epoch);
        }
        let (matched, total, functional_listed) = label_tally(&engine, &evolved);
        assert!(
            matched as f64 > total as f64 * 0.85,
            "only {matched}/{total} tracking requests matched after churn"
        );
        assert!(total > pristine_tally.1, "churn should add tracking pixels");
        assert_eq!(
            functional_listed, pristine_tally.2,
            "mutation minted new listed functional requests"
        );
    }

    #[test]
    fn pixel_emergence_never_touches_script_behaviour() {
        let pristine = corpus();
        let mut evolved = corpus();
        let config = MutationConfig {
            cdn_rotation_rate: 0.0,
            path_rotation_rate: 0.0,
            pixel_emergence_rate: 1.0,
        };
        let report = EcosystemMutator::new(5, config).advance(&mut evolved, 1);
        assert_eq!(report.emerged_requests, evolved.websites.len());
        for (before, after) in pristine.websites.iter().zip(&evolved.websites) {
            assert_eq!(before.scripts, after.scripts);
            assert_eq!(
                before.non_script_requests.len() + 1,
                after.non_script_requests.len()
            );
            let pixel = after.non_script_requests.last().unwrap();
            assert_eq!(pixel.intent, Purpose::Tracking);
        }
    }
}
