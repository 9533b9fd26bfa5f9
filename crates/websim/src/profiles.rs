//! Corpus profiles: the knobs that shape the synthetic web.
//!
//! Every structural behaviour the paper attributes to the 2021 web is a
//! parameter here rather than a hard-coded constant, so experiments can
//! sweep them (e.g. "what if twice as many publishers inline their pixel?")
//! and the calibration that approximates the paper's Tables 1–2 is explicit
//! and inspectable.

/// All generation parameters for a [`crate::CorpusGenerator`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusProfile {
    /// Number of websites (landing pages) to generate.
    pub sites: usize,

    // ------------------------------------------------------------------
    // Third-party ecosystem sizing (expressed as fractions of `sites`,
    // with small floors so tiny corpora still have an ecosystem).
    // ------------------------------------------------------------------
    /// Pure advertising networks (whole domain is tracking).
    pub(crate) ad_network_fraction: f64,
    /// Pure analytics/measurement providers (whole domain is tracking).
    pub(crate) analytics_fraction: f64,
    /// Pure functional CDNs (libraries, static assets).
    pub(crate) functional_cdn_fraction: f64,
    /// Pure functional content/API services (weather, maps, payments, ...).
    pub(crate) api_service_fraction: f64,
    /// Mixed platform services (search/social/CDN giants that serve both
    /// tracking and functional resources from the same domain).
    pub(crate) platform_fraction: f64,
    /// Number of tag-manager style services (fixed count, they are few but
    /// extremely popular).
    pub(crate) tag_managers: usize,
    /// Number of consent-management platforms.
    pub(crate) consent_managers: usize,

    // ------------------------------------------------------------------
    // Popularity / volume skew
    // ------------------------------------------------------------------
    /// Zipf exponent for third-party service popularity (higher = the top
    /// services appear on more sites).
    pub(crate) service_popularity_exponent: f64,
    /// Log-normal `mu` for per-method request counts.
    pub(crate) request_volume_mu: f64,
    /// Log-normal `sigma` for per-method request counts.
    pub(crate) request_volume_sigma: f64,

    // ------------------------------------------------------------------
    // Per-site composition
    // ------------------------------------------------------------------
    /// Minimum / maximum number of third-party *tracking* services embedded
    /// per site (ad networks + analytics).
    pub(crate) tracking_services_per_site: (usize, usize),
    /// Minimum / maximum number of third-party *functional* services per
    /// site (CDNs, APIs, fonts).
    pub(crate) functional_services_per_site: (usize, usize),
    /// Minimum / maximum number of *platform* services per site.
    pub(crate) platform_services_per_site: (usize, usize),
    /// Probability a site uses a tag manager (which then injects its
    /// tracking scripts, creating ancestral call stacks).
    pub(crate) tag_manager_rate: f64,
    /// Probability a site embeds a consent-management script.
    pub(crate) consent_manager_rate: f64,

    // ------------------------------------------------------------------
    // Mixing behaviours (the circumvention patterns the paper studies)
    // ------------------------------------------------------------------
    /// Probability a site self-hosts tracking endpoints on its own domain
    /// (first-party hosting / CNAME-style circumvention). Makes the site's
    /// own domain and `www` hostname mixed.
    pub(crate) first_party_tracking_rate: f64,
    /// Probability that a self-hosting site emits its first-party beacon
    /// from the same first-party application script that also performs
    /// functional XHRs (rather than a dedicated snippet) — this is what
    /// turns a first-party script mixed.
    pub(crate) first_party_beacon_in_app_script_rate: f64,
    /// Probability a site's first-party code is shipped as a webpack-style
    /// bundle rather than plain `main.js`.
    pub(crate) bundling_rate: f64,
    /// Given a bundle, probability it folds a tracking module (e.g. an
    /// analytics pixel) in with the functional modules — a mixed script.
    pub(crate) bundled_tracking_rate: f64,
    /// Probability a site inlines a tracking snippet directly in the page
    /// (script-inlining circumvention). Inline snippets share the page URL
    /// as their script identity.
    pub(crate) inline_tracking_rate: f64,
    /// Probability a site also has an inline *functional* snippet (making
    /// the page-URL script identity mixed when combined with an inline
    /// tracking snippet).
    pub(crate) inline_functional_rate: f64,
    /// Given a mixed script, probability it routes both tracking and
    /// functional requests through one shared dispatcher method (e.g.
    /// `Pa.xhrRequest`) — a *mixed method*, the finest-granularity residue.
    pub(crate) mixed_method_rate: f64,
    /// Number of image/content requests a site loads from platform CDNs
    /// (min, max) — the functional side of mixed hostnames.
    pub(crate) platform_cdn_fetches_per_site: (usize, usize),

    // ------------------------------------------------------------------
    // Page features (breakage analysis)
    // ------------------------------------------------------------------
    /// Minimum / maximum number of core features per page.
    pub(crate) core_features_per_site: (usize, usize),
    /// Minimum / maximum number of secondary features per page.
    pub(crate) secondary_features_per_site: (usize, usize),

    // ------------------------------------------------------------------
    // Noise
    // ------------------------------------------------------------------
    /// Probability that an individual request's intent is flipped when the
    /// URL is built (models filter-list imperfection: slow updates and
    /// mistakes, §3 "filter lists are not perfect").
    pub(crate) label_noise: f64,
}

impl CorpusProfile {
    /// The profile calibrated to approximate the paper's measurement
    /// (Tables 1 and 2): the default for experiments.
    pub fn paper() -> Self {
        CorpusProfile {
            sites: 10_000,
            ad_network_fraction: 0.055,
            analytics_fraction: 0.045,
            functional_cdn_fraction: 0.10,
            api_service_fraction: 0.06,
            platform_fraction: 0.035,
            tag_managers: 6,
            consent_managers: 4,
            service_popularity_exponent: 1.05,
            request_volume_mu: 0.55,
            request_volume_sigma: 0.75,
            tracking_services_per_site: (1, 6),
            functional_services_per_site: (1, 5),
            platform_services_per_site: (1, 4),
            tag_manager_rate: 0.45,
            consent_manager_rate: 0.18,
            first_party_tracking_rate: 0.17,
            first_party_beacon_in_app_script_rate: 0.18,
            bundling_rate: 0.45,
            bundled_tracking_rate: 0.22,
            inline_tracking_rate: 0.30,
            inline_functional_rate: 0.55,
            mixed_method_rate: 0.35,
            platform_cdn_fetches_per_site: (2, 10),
            core_features_per_site: (2, 4),
            secondary_features_per_site: (1, 4),
            label_noise: 0.004,
        }
    }

    /// A small profile for unit/integration tests: same shape, tiny scale.
    pub fn small() -> Self {
        CorpusProfile {
            sites: 150,
            ..Self::paper()
        }
    }

    /// A medium profile used by the quickstart example.
    pub fn quickstart() -> Self {
        CorpusProfile {
            sites: 1_000,
            ..Self::paper()
        }
    }

    /// Override the number of sites, keeping every other knob.
    pub fn with_sites(mut self, sites: usize) -> Self {
        self.sites = sites;
        self
    }

    /// Validate that the profile is internally consistent.
    pub fn validate(&self) -> Result<(), String> {
        if self.sites == 0 {
            return Err("profile must generate at least one site".into());
        }
        let probs = [
            ("tag_manager_rate", self.tag_manager_rate),
            ("consent_manager_rate", self.consent_manager_rate),
            ("first_party_tracking_rate", self.first_party_tracking_rate),
            (
                "first_party_beacon_in_app_script_rate",
                self.first_party_beacon_in_app_script_rate,
            ),
            ("bundling_rate", self.bundling_rate),
            ("bundled_tracking_rate", self.bundled_tracking_rate),
            ("inline_tracking_rate", self.inline_tracking_rate),
            ("inline_functional_rate", self.inline_functional_rate),
            ("mixed_method_rate", self.mixed_method_rate),
            ("label_noise", self.label_noise),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be a probability, got {p}"));
            }
        }
        let fracs = [
            ("ad_network_fraction", self.ad_network_fraction),
            ("analytics_fraction", self.analytics_fraction),
            ("functional_cdn_fraction", self.functional_cdn_fraction),
            ("api_service_fraction", self.api_service_fraction),
            ("platform_fraction", self.platform_fraction),
        ];
        for (name, f) in fracs {
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("{name} must be in [0,1], got {f}"));
            }
        }
        for (name, (lo, hi)) in [
            (
                "tracking_services_per_site",
                self.tracking_services_per_site,
            ),
            (
                "functional_services_per_site",
                self.functional_services_per_site,
            ),
            (
                "platform_services_per_site",
                self.platform_services_per_site,
            ),
            (
                "platform_cdn_fetches_per_site",
                self.platform_cdn_fetches_per_site,
            ),
            ("core_features_per_site", self.core_features_per_site),
            (
                "secondary_features_per_site",
                self.secondary_features_per_site,
            ),
        ] {
            if lo > hi {
                return Err(format!("{name}: min {lo} exceeds max {hi}"));
            }
        }
        if self.request_volume_sigma < 0.0 {
            return Err("request_volume_sigma must be non-negative".into());
        }
        if self.service_popularity_exponent <= 0.0 {
            return Err("service_popularity_exponent must be positive".into());
        }
        Ok(())
    }

    /// Absolute ecosystem sizes derived from the fractions (with floors so
    /// tiny corpora still exercise every service kind).
    pub(crate) fn ecosystem_counts(&self) -> EcosystemCounts {
        let frac = |f: f64, floor: usize| ((self.sites as f64 * f).round() as usize).max(floor);
        EcosystemCounts {
            ad_networks: frac(self.ad_network_fraction, 4),
            analytics: frac(self.analytics_fraction, 4),
            functional_cdns: frac(self.functional_cdn_fraction, 4),
            api_services: frac(self.api_service_fraction, 3),
            platforms: frac(self.platform_fraction, 3),
            tag_managers: self.tag_managers.max(1),
            consent_managers: self.consent_managers.max(1),
        }
    }
}

impl Default for CorpusProfile {
    fn default() -> Self {
        Self::paper()
    }
}

/// Absolute service counts derived from a profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EcosystemCounts {
    /// Pure advertising networks.
    pub(crate) ad_networks: usize,
    /// Pure analytics providers.
    pub(crate) analytics: usize,
    /// Pure functional CDNs.
    pub(crate) functional_cdns: usize,
    /// Pure functional content APIs.
    pub(crate) api_services: usize,
    /// Mixed platform services.
    pub(crate) platforms: usize,
    /// Tag managers.
    pub(crate) tag_managers: usize,
    /// Consent managers.
    pub(crate) consent_managers: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_validates() {
        assert!(CorpusProfile::paper().validate().is_ok());
        assert!(CorpusProfile::small().validate().is_ok());
        assert!(CorpusProfile::quickstart().validate().is_ok());
    }

    #[test]
    fn zero_sites_rejected() {
        let p = CorpusProfile::paper().with_sites(0);
        assert!(p.validate().is_err());
    }

    #[test]
    fn invalid_probability_rejected() {
        let mut p = CorpusProfile::paper();
        p.inline_tracking_rate = 1.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn inverted_range_rejected() {
        let mut p = CorpusProfile::paper();
        p.tracking_services_per_site = (5, 2);
        assert!(p.validate().is_err());
    }

    #[test]
    fn ecosystem_counts_scale_with_sites() {
        let small = CorpusProfile::paper().with_sites(1_000).ecosystem_counts();
        let large = CorpusProfile::paper().with_sites(10_000).ecosystem_counts();
        assert!(large.ad_networks > small.ad_networks);
    }

    #[test]
    fn ecosystem_counts_have_floors() {
        let tiny = CorpusProfile::paper().with_sites(10).ecosystem_counts();
        assert!(tiny.ad_networks >= 4);
        assert!(tiny.platforms >= 3);
        assert!(tiny.tag_managers >= 1);
    }

    #[test]
    fn profile_clones_compare_equal_and_overrides_stick() {
        let p = CorpusProfile::paper();
        assert_eq!(p, p.clone());
        let overridden = p.clone().with_sites(123);
        assert_ne!(p, overridden);
        assert_eq!(overridden.sites, 123);
    }
}
