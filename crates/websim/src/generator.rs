//! Deterministic corpus generation.
//!
//! [`CorpusGenerator::generate`] expands a [`CorpusProfile`] and a seed into
//! a full [`WebCorpus`]: the third-party ecosystem plus every website's
//! scripts, methods, planned requests, features and document-initiated
//! requests. The same `(profile, seed)` pair always produces the same
//! corpus, which is what makes every experiment in the repository
//! reproducible bit-for-bit.

use crate::distributions::{coin, LogNormal, WeightedChoice};
use crate::ecosystem::{build_ecosystem, Ecosystem, HostRole, ServiceKind, ServiceSampler};
use crate::model::{Feature, FeatureImportance, PlannedRequest, Purpose, WebCorpus, Website};
use crate::names::NameFactory;
use crate::profiles::CorpusProfile;
use crate::scripts::{
    ad_network_script, analytics_script, api_service_script, consent_manager_script,
    first_party_app_script, functional_library_script, inline_snippet, platform_sdk_script,
    self_hosted_tracker_script, tag_manager_script, FirstPartyOptions, PlatformSdkMode,
    SiteContext,
};
use filterlist::ResourceType;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Corpus generator. Stateless: all state lives in the seeded RNG.
#[derive(Debug, Clone, Default)]
pub struct CorpusGenerator;

impl CorpusGenerator {
    /// Generate a corpus from a profile and seed.
    ///
    /// # Panics
    /// Panics if the profile fails [`CorpusProfile::validate`].
    pub fn generate(profile: &CorpusProfile, seed: u64) -> WebCorpus {
        profile
            .validate()
            .unwrap_or_else(|e| panic!("invalid corpus profile: {e}"));
        let mut rng = StdRng::seed_from_u64(seed);
        let ecosystem = build_ecosystem(&profile.ecosystem_counts(), &mut rng);

        let samplers = Samplers::new(&ecosystem, profile);
        let mut websites = Vec::with_capacity(profile.sites);
        for rank in 0..profile.sites {
            // Per-site RNG derived from the corpus seed and the rank, so
            // sites are independent of each other and of generation order
            // (important for the parallel crawler's determinism tests).
            let mut site_rng = StdRng::seed_from_u64(
                seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(rank as u64 + 1)),
            );
            websites.push(generate_site(
                profile,
                &ecosystem,
                &samplers,
                rank,
                &mut site_rng,
            ));
        }
        WebCorpus {
            websites,
            ecosystem,
            seed,
        }
    }
}

/// Popularity samplers per service class.
struct Samplers {
    tracking: Option<ServiceSampler>,
    ad_networks: Option<ServiceSampler>,
    analytics: Option<ServiceSampler>,
    functional_cdn: Option<ServiceSampler>,
    api: Option<ServiceSampler>,
    platforms: Option<ServiceSampler>,
    cdn_platforms: Option<ServiceSampler>,
    tag_managers: Option<ServiceSampler>,
    consent: Option<ServiceSampler>,
}

impl Samplers {
    fn new(eco: &Ecosystem, profile: &CorpusProfile) -> Self {
        let e = profile.service_popularity_exponent;
        Samplers {
            tracking: ServiceSampler::new(eco, e, |k| {
                matches!(k, ServiceKind::AdNetwork | ServiceKind::Analytics)
            }),
            ad_networks: ServiceSampler::new(eco, e, |k| k == ServiceKind::AdNetwork),
            analytics: ServiceSampler::new(eco, e, |k| k == ServiceKind::Analytics),
            functional_cdn: ServiceSampler::new(eco, e, |k| k == ServiceKind::FunctionalCdn),
            api: ServiceSampler::new(eco, e, |k| k == ServiceKind::ApiService),
            platforms: ServiceSampler::new(eco, e, |k| k == ServiceKind::Platform),
            cdn_platforms: ServiceSampler::new(eco, e, |k| k == ServiceKind::CdnPlatform),
            tag_managers: ServiceSampler::new(eco, e, |k| k == ServiceKind::TagManager),
            consent: ServiceSampler::new(eco, e, |k| k == ServiceKind::ConsentManager),
        }
    }
}

fn sample_service<'a, R: Rng + ?Sized>(
    eco: &'a Ecosystem,
    sampler: &Option<ServiceSampler>,
    rng: &mut R,
) -> Option<&'a crate::ecosystem::Service> {
    sampler.as_ref().map(|s| &eco.services[s.sample(rng)])
}

fn generate_site(
    profile: &CorpusProfile,
    eco: &Ecosystem,
    samplers: &Samplers,
    rank: usize,
    rng: &mut StdRng,
) -> Website {
    let domain = NameFactory::publisher_domain(rng, rank);
    let hostname = format!("www.{domain}");
    let page_url = format!("https://{hostname}/");
    let ctx = SiteContext {
        profile,
        page_url: page_url.clone(),
        hostname: hostname.clone(),
        domain: domain.clone(),
        rank,
        volume: LogNormal::new(profile.request_volume_mu, profile.request_volume_sigma),
    };

    let mut scripts = Vec::new();

    // --- first-party behaviour ------------------------------------------------
    let self_tracks = coin(rng, profile.first_party_tracking_rate);
    let beacon_in_app = self_tracks && coin(rng, profile.first_party_beacon_in_app_script_rate);
    let bundles = coin(rng, profile.bundling_rate);
    let bundle_tracking = bundles && coin(rng, profile.bundled_tracking_rate);
    let cdn_platform_host = sample_service(eco, &samplers.cdn_platforms, rng)
        .and_then(|s| s.host_with_role(HostRole::Mixed))
        .map(|h| h.hostname.clone());
    let pixel_vendor = sample_service(eco, &samplers.platforms, rng);

    let app_script_idx = scripts.len();
    scripts.push(first_party_app_script(
        &ctx,
        cdn_platform_host.as_deref(),
        pixel_vendor,
        FirstPartyOptions {
            embed_tracking_beacon: beacon_in_app,
            bundle: bundles,
            bundle_tracking_module: bundle_tracking,
        },
        rng,
    ));
    if self_tracks && !beacon_in_app {
        scripts.push(self_hosted_tracker_script(&ctx, rng));
    }

    // --- third-party tracking services -----------------------------------------
    // A site embeds each distinct service at most once (re-sampling the same
    // popular vendor is simply skipped, mirroring how a page includes one
    // copy of a tag).
    let mut embedded_services: std::collections::HashSet<usize> = std::collections::HashSet::new();
    let (lo, hi) = profile.tracking_services_per_site;
    let tracking_count = rng.gen_range(lo..=hi.max(lo));
    let mut tracking_script_indices = Vec::new();
    for _ in 0..tracking_count {
        let use_ads = coin(rng, 0.5);
        let idx = scripts.len();
        if use_ads {
            if let Some(svc) = sample_service(eco, &samplers.ad_networks, rng) {
                if !embedded_services.insert(svc.id) {
                    continue;
                }
                // Ad creatives frequently ride shared content CDNs, which is
                // what pulls ad scripts into the script-level analysis.
                let creative_host = if coin(rng, 0.6) {
                    sample_service(eco, &samplers.cdn_platforms, rng)
                        .and_then(|s| s.host_with_role(HostRole::Mixed))
                        .map(|h| h.hostname.clone())
                } else {
                    None
                };
                scripts.push(ad_network_script(&ctx, svc, creative_host.as_deref(), rng));
                tracking_script_indices.push(idx);
            }
        } else if let Some(svc) = sample_service(eco, &samplers.analytics, rng) {
            if !embedded_services.insert(svc.id) {
                continue;
            }
            scripts.push(analytics_script(&ctx, svc, rng));
            tracking_script_indices.push(idx);
        }
    }

    // --- third-party functional services ----------------------------------------
    let (lo, hi) = profile.functional_services_per_site;
    let functional_count = rng.gen_range(lo..=hi.max(lo));
    let mut library_indices = Vec::new();
    for _ in 0..functional_count {
        let idx = scripts.len();
        if coin(rng, 0.55) {
            if let Some(svc) = sample_service(eco, &samplers.functional_cdn, rng) {
                if !embedded_services.insert(svc.id) {
                    continue;
                }
                let lazy_host = if coin(rng, 0.5) {
                    sample_service(eco, &samplers.cdn_platforms, rng)
                        .and_then(|s| s.host_with_role(HostRole::Mixed))
                        .map(|h| h.hostname.clone())
                } else {
                    None
                };
                scripts.push(functional_library_script(
                    &ctx,
                    svc,
                    lazy_host.as_deref(),
                    rng,
                ));
                library_indices.push(idx);
            }
        } else if let Some(svc) = sample_service(eco, &samplers.api, rng) {
            if !embedded_services.insert(svc.id) {
                continue;
            }
            scripts.push(api_service_script(&ctx, svc, rng));
            library_indices.push(idx);
        }
    }

    // --- platform SDKs ------------------------------------------------------------
    let (lo, hi) = profile.platform_services_per_site;
    let platform_count = rng.gen_range(lo..=hi.max(lo));
    let sdk_mode_choice = WeightedChoice::new(&[0.48, 0.44, 0.08]);
    let mut platform_indices = Vec::new();
    for _ in 0..platform_count {
        if let Some(svc) = sample_service(eco, &samplers.platforms, rng) {
            if !embedded_services.insert(svc.id) {
                continue;
            }
            let mode = match sdk_mode_choice.sample(rng) {
                0 => PlatformSdkMode::WidgetOnly,
                1 => PlatformSdkMode::PixelOnly,
                _ => PlatformSdkMode::WidgetAndPixel,
            };
            platform_indices.push(scripts.len());
            scripts.push(platform_sdk_script(&ctx, svc, mode, rng));
        }
    }

    // --- tag manager & consent manager ---------------------------------------------
    if coin(rng, profile.tag_manager_rate) {
        if let Some(svc) = sample_service(eco, &samplers.tag_managers, rng) {
            let tm_idx = scripts.len();
            scripts.push(tag_manager_script(&ctx, svc, rng));
            // The tag manager dynamically injects up to three of the site's
            // tracking scripts; their requests will carry it in their
            // ancestral stacks.
            let injected: Vec<usize> = tracking_script_indices.iter().copied().take(3).collect();
            scripts[tm_idx].loads_scripts = injected;
        }
    }
    if coin(rng, profile.consent_manager_rate) {
        if let Some(svc) = sample_service(eco, &samplers.consent, rng) {
            let vendors = eco.of_kind(ServiceKind::AdNetwork);
            scripts.push(consent_manager_script(&ctx, svc, &vendors, rng));
        }
    }

    // --- inline snippets ---------------------------------------------------------------
    let mut inline_position = 0;
    if coin(rng, profile.inline_tracking_rate) {
        inline_position += 1;
        let target = sample_service(eco, &samplers.platforms, rng)
            .and_then(|s| s.host_with_role(HostRole::Mixed))
            .map(|h| h.hostname.clone())
            .or_else(|| {
                sample_service(eco, &samplers.tracking, rng)
                    .and_then(|s| s.host_with_role(HostRole::Tracking))
                    .map(|h| h.hostname.clone())
            })
            .unwrap_or_else(|| hostname.clone());
        scripts.push(inline_snippet(
            &ctx,
            inline_position,
            Purpose::Tracking,
            &target,
            rng,
        ));
    }
    if coin(rng, profile.inline_functional_rate) {
        inline_position += 1;
        // Functional inline snippets mostly touch the site's own host; a
        // minority lazy-load from the shared content CDN, which is what can
        // turn the page-URL "script" mixed when a tracking snippet is also
        // inlined.
        let target = if coin(rng, 0.3) {
            cdn_platform_host
                .clone()
                .unwrap_or_else(|| hostname.clone())
        } else {
            hostname.clone()
        };
        scripts.push(inline_snippet(
            &ctx,
            inline_position,
            Purpose::Functional,
            &target,
            rng,
        ));
    }

    // --- page features (for breakage analysis) -------------------------------------------
    let features = generate_features(
        profile,
        app_script_idx,
        &library_indices,
        &platform_indices,
        &scripts,
        rng,
    );

    // --- document-initiated requests (excluded by TrackerSift, observed by the crawler) --
    let non_script_requests = generate_document_requests(&ctx, eco, samplers, rng);

    Website {
        rank,
        domain,
        hostname,
        url: page_url,
        scripts,
        features,
        non_script_requests,
    }
}

fn generate_features(
    profile: &CorpusProfile,
    app_script_idx: usize,
    library_indices: &[usize],
    platform_indices: &[usize],
    scripts: &[crate::model::PageScript],
    rng: &mut StdRng,
) -> Vec<Feature> {
    const CORE_NAMES: &[&str] = &[
        "page render",
        "navigation menu",
        "search bar",
        "hero images",
        "product grid",
        "article body",
    ];
    const SECONDARY_NAMES: &[&str] = &[
        "comment section",
        "media widget",
        "video player",
        "social icons",
        "newsletter form",
        "related posts",
    ];
    let mut features = Vec::new();
    let (lo, hi) = profile.core_features_per_site;
    let core = rng.gen_range(lo..=hi.max(lo));
    for i in 0..core {
        let mut required = vec![app_script_idx];
        if !library_indices.is_empty() && coin(rng, 0.5) {
            required.push(library_indices[rng.gen_range(0..library_indices.len())]);
        }
        features.push(Feature {
            name: CORE_NAMES[i % CORE_NAMES.len()].to_string(),
            importance: FeatureImportance::Core,
            required_scripts: required,
        });
    }
    let (lo, hi) = profile.secondary_features_per_site;
    let secondary = rng.gen_range(lo..=hi.max(lo));
    for i in 0..secondary {
        let mut required = Vec::new();
        if !platform_indices.is_empty() && coin(rng, 0.6) {
            required.push(platform_indices[rng.gen_range(0..platform_indices.len())]);
        }
        if !library_indices.is_empty() && coin(rng, 0.5) {
            required.push(library_indices[rng.gen_range(0..library_indices.len())]);
        }
        if required.is_empty() {
            required.push(app_script_idx.min(scripts.len().saturating_sub(1)));
        }
        features.push(Feature {
            name: SECONDARY_NAMES[i % SECONDARY_NAMES.len()].to_string(),
            importance: FeatureImportance::Secondary,
            required_scripts: required,
        });
    }
    features
}

fn generate_document_requests(
    ctx: &SiteContext<'_>,
    eco: &Ecosystem,
    samplers: &Samplers,
    rng: &mut StdRng,
) -> Vec<PlannedRequest> {
    let mut out = Vec::new();
    // Stylesheets and images referenced directly from the HTML.
    let n = rng.gen_range(2..=6);
    for _ in 0..n {
        let (url, resource_type) = crate::ecosystem::functional_endpoint_url(&ctx.hostname, rng);
        out.push(PlannedRequest {
            url,
            resource_type,
            intent: Purpose::Functional,
            via_caller: None,
        });
    }
    // A <noscript> fallback pixel straight in the HTML (not script-initiated,
    // so TrackerSift must exclude it).
    if coin(rng, 0.25) {
        if let Some(svc) = sample_service(eco, &samplers.tracking, rng) {
            if let Some(host) = svc.host_with_role(HostRole::Tracking) {
                let (url, _) = crate::ecosystem::tracking_endpoint_url(&host.hostname, rng);
                out.push(PlannedRequest {
                    url,
                    resource_type: ResourceType::Image,
                    intent: Purpose::Tracking,
                    via_caller: None,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ScriptArchetype;

    #[test]
    fn generation_is_deterministic() {
        let profile = CorpusProfile::small();
        let a = CorpusGenerator::generate(&profile, 2021);
        let b = CorpusGenerator::generate(&profile, 2021);
        assert_eq!(a.websites, b.websites);
        assert_eq!(a.ecosystem, b.ecosystem);
    }

    #[test]
    fn different_seeds_differ() {
        let profile = CorpusProfile::small();
        let a = CorpusGenerator::generate(&profile, 1);
        let b = CorpusGenerator::generate(&profile, 2);
        assert_ne!(a.websites, b.websites);
    }

    #[test]
    fn corpus_has_expected_scale() {
        let profile = CorpusProfile::small();
        let corpus = CorpusGenerator::generate(&profile, 7);
        assert_eq!(corpus.websites.len(), profile.sites);
        // Roughly 10-60 script-initiated requests per site.
        let per_site = corpus.total_script_initiated_requests() as f64 / profile.sites as f64;
        assert!(
            per_site > 8.0 && per_site < 80.0,
            "requests per site: {per_site}"
        );
        // Both intents are present in quantity.
        let tracking = corpus
            .websites
            .iter()
            .flat_map(|site| &site.scripts)
            .flat_map(|script| script.planned_requests())
            .filter(|(_, req)| req.intent == Purpose::Tracking)
            .count();
        assert!(tracking > 100);
        assert!(corpus.total_script_initiated_requests() - tracking > 100);
    }

    #[test]
    fn every_site_has_a_first_party_script_and_core_feature() {
        let corpus = CorpusGenerator::generate(&CorpusProfile::small(), 13);
        for site in &corpus.websites {
            assert!(!site.scripts.is_empty());
            assert!(site.scripts[0].origin.url().contains(&site.domain));
            assert!(site
                .features
                .iter()
                .any(|f| f.importance == FeatureImportance::Core));
            for feature in &site.features {
                for &idx in &feature.required_scripts {
                    assert!(
                        idx < site.scripts.len(),
                        "feature references missing script"
                    );
                }
            }
        }
    }

    #[test]
    fn mixed_scripts_exist_but_are_minority() {
        let corpus = CorpusGenerator::generate(&CorpusProfile::small(), 5);
        let scripts = || corpus.websites.iter().flat_map(|site| &site.scripts);
        let total = scripts().count();
        let m = scripts()
            .filter(|script| script.archetype == ScriptArchetype::Mixed)
            .count();
        assert!(m > 0, "expected some mixed scripts");
        assert!(
            (m as f64) < 0.35 * total as f64,
            "mixed scripts should be a minority: {m}/{total}"
        );
    }

    #[test]
    fn tag_manager_loads_reference_valid_scripts() {
        let corpus = CorpusGenerator::generate(&CorpusProfile::small(), 3);
        for site in &corpus.websites {
            for (i, script) in site.scripts.iter().enumerate() {
                for &loaded in &script.loads_scripts {
                    assert!(loaded < site.scripts.len());
                    assert_ne!(loaded, i, "script cannot load itself");
                }
            }
        }
    }

    #[test]
    fn site_domains_are_unique() {
        let corpus = CorpusGenerator::generate(&CorpusProfile::small(), 4);
        let mut domains: Vec<&str> = corpus.websites.iter().map(|w| w.domain.as_str()).collect();
        let before = domains.len();
        domains.sort();
        domains.dedup();
        assert_eq!(domains.len(), before);
    }
}
