//! The third-party ecosystem: the services websites embed.
//!
//! The paper's measurement is shaped by a relatively small set of service
//! archetypes: pure advertising networks and analytics providers (whose
//! whole domain is tracking), functional CDNs and content APIs (whose whole
//! domain is functional), and the large *platform* services — search/social
//! giants and shared CDNs such as `google.com`, `facebook.com`, `gstatic.com`
//! and `wp.com` — that serve tracking and functional resources from the same
//! domain and often the same hostname. Those platforms are what make
//! domains and hostnames "mixed".

use crate::distributions::Zipf;
use crate::model::Purpose;
use crate::names::NameFactory;
use filterlist::ResourceType;
use rand::Rng;

/// The archetype of a third-party service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ServiceKind {
    /// Pure advertising network (doubleclick-like).
    AdNetwork,
    /// Pure analytics / measurement provider (google-analytics-like).
    Analytics,
    /// Tag manager that injects other vendors' scripts (gtm-like).
    TagManager,
    /// Consent-management platform whose script calls out to ad vendors.
    ConsentManager,
    /// Social / search platform with mixed hostnames (facebook/google-like).
    Platform,
    /// Shared content CDN with mixed image hostnames (wp.com-like).
    CdnPlatform,
    /// Pure functional CDN (jsdelivr/twimg-like).
    FunctionalCdn,
    /// Pure functional content / API service (maps, weather, payments).
    ApiService,
}

impl ServiceKind {
    /// `true` when every request to this service is tracking by intent.
    fn is_pure_tracking(&self) -> bool {
        matches!(
            self,
            ServiceKind::AdNetwork
                | ServiceKind::Analytics
                | ServiceKind::TagManager
                | ServiceKind::ConsentManager
        )
    }

    /// `true` for the mixed platform archetypes.
    pub(crate) fn is_platform(&self) -> bool {
        matches!(self, ServiceKind::Platform | ServiceKind::CdnPlatform)
    }
}

/// The role a hostname plays within its service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum HostRole {
    /// Serves only tracking endpoints (e.g. `pixel.wp.com`).
    Tracking,
    /// Serves only functional endpoints (e.g. `widgets.wp.com`).
    Functional,
    /// Serves both (e.g. `i0.wp.com`).
    Mixed,
}

/// One hostname belonging to a service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HostSpec {
    /// Fully qualified hostname.
    pub(crate) hostname: String,
    /// Role of the hostname.
    pub(crate) role: HostRole,
}

/// A third-party service in the ecosystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Service {
    /// Stable index of the service within the ecosystem.
    pub(crate) id: usize,
    /// Short name (used to derive script names).
    pub(crate) name: String,
    /// Registrable domain of the service.
    pub(crate) domain: String,
    /// Archetype.
    pub(crate) kind: ServiceKind,
    /// Hostnames the service answers on.
    pub(crate) hosts: Vec<HostSpec>,
    /// `true` when the synthetic EasyList/EasyPrivacy enumerates this
    /// service's tracking hostnames (community lists know about trackers;
    /// they do not enumerate functional CDNs).
    pub(crate) listed_in_filters: bool,
    /// Popularity rank among services of any kind (0 = most embedded).
    pub(crate) popularity_rank: usize,
}

impl Service {
    /// The first hostname with the given role, if any.
    pub(crate) fn host_with_role(&self, role: HostRole) -> Option<&HostSpec> {
        self.hosts.iter().find(|h| h.role == role)
    }

    /// All hostnames with the given role.
    pub(crate) fn hosts_with_role(&self, role: HostRole) -> impl Iterator<Item = &HostSpec> {
        self.hosts.iter().filter(move |h| h.role == role)
    }
}

/// The complete third-party ecosystem.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ecosystem {
    /// Every service, indexed by `Service::id`.
    pub(crate) services: Vec<Service>,
}

impl Ecosystem {
    /// Services of a given kind.
    pub(crate) fn of_kind(&self, kind: ServiceKind) -> Vec<&Service> {
        self.services.iter().filter(|s| s.kind == kind).collect()
    }
}

/// Build the ecosystem for a profile.
pub(crate) fn build_ecosystem<R: Rng + ?Sized>(
    counts: &crate::profiles::EcosystemCounts,
    rng: &mut R,
) -> Ecosystem {
    let mut services = Vec::new();
    let mut id = 0usize;

    let mut push =
        |services: &mut Vec<Service>, kind: ServiceKind, hint: &str, n: usize, rng: &mut R| {
            for i in 0..n {
                let name = NameFactory::base_word(rng);
                let domain = NameFactory::service_domain(rng, hint, id);
                let hosts = hosts_for(kind, &domain, rng);
                services.push(Service {
                    id,
                    name: format!("{name}{i}"),
                    domain,
                    kind,
                    hosts,
                    listed_in_filters: kind.is_pure_tracking(),
                    popularity_rank: 0, // assigned below
                });
                id += 1;
            }
        };

    push(
        &mut services,
        ServiceKind::Platform,
        "hub",
        counts.platforms,
        rng,
    );
    push(
        &mut services,
        ServiceKind::CdnPlatform,
        "content",
        counts.platforms.div_ceil(2).max(2),
        rng,
    );
    push(
        &mut services,
        ServiceKind::TagManager,
        "tag",
        counts.tag_managers,
        rng,
    );
    push(
        &mut services,
        ServiceKind::ConsentManager,
        "consent",
        counts.consent_managers,
        rng,
    );
    push(
        &mut services,
        ServiceKind::AdNetwork,
        "ads",
        counts.ad_networks,
        rng,
    );
    push(
        &mut services,
        ServiceKind::Analytics,
        "metrics",
        counts.analytics,
        rng,
    );
    push(
        &mut services,
        ServiceKind::FunctionalCdn,
        "cdn",
        counts.functional_cdns,
        rng,
    );
    push(
        &mut services,
        ServiceKind::ApiService,
        "api",
        counts.api_services,
        rng,
    );

    // Popularity: platforms and tag managers occupy the head of the Zipf
    // curve (they are embedded on most sites); the long tail is everything
    // else in generation order.
    for (rank, service) in services.iter_mut().enumerate() {
        service.popularity_rank = rank;
    }
    Ecosystem { services }
}

/// Hostnames (and their roles) for a service of the given kind.
fn hosts_for<R: Rng + ?Sized>(kind: ServiceKind, domain: &str, rng: &mut R) -> Vec<HostSpec> {
    let host = |sub: &str, role: HostRole| HostSpec {
        hostname: if sub.is_empty() {
            domain.to_string()
        } else {
            format!("{sub}.{domain}")
        },
        role,
    };
    match kind {
        ServiceKind::AdNetwork => vec![
            host("ads", HostRole::Tracking),
            host("static", HostRole::Tracking),
            host("px", HostRole::Tracking),
        ],
        ServiceKind::Analytics => vec![
            host("api", HostRole::Tracking),
            host("cdn", HostRole::Tracking),
            host("collector", HostRole::Tracking),
        ],
        ServiceKind::TagManager => vec![
            host("www", HostRole::Tracking),
            host("load", HostRole::Tracking),
        ],
        ServiceKind::ConsentManager => vec![
            host("consent", HostRole::Tracking),
            host("cdn", HostRole::Tracking),
        ],
        ServiceKind::Platform => {
            // facebook/google-like: www is mixed (functional APIs + tracking
            // endpoints), a pure-tracking pixel host, functional static
            // hosts.
            let mut hosts = vec![
                host("www", HostRole::Mixed),
                host("pixel", HostRole::Tracking),
                host("static", HostRole::Functional),
                host("apis", HostRole::Functional),
            ];
            if rng.gen_bool(0.6) {
                hosts.push(host("connect", HostRole::Mixed));
            }
            hosts
        }
        ServiceKind::CdnPlatform => {
            // wp.com-like: i0/i1 image hosts are mixed, stats/pixel hosts are
            // tracking, widgets/c0 are functional.
            let mut hosts = vec![
                host("i0", HostRole::Mixed),
                host("i1", HostRole::Mixed),
                host("stats", HostRole::Tracking),
                host("widgets", HostRole::Functional),
                host("c0", HostRole::Functional),
            ];
            if rng.gen_bool(0.5) {
                hosts.push(host("pixel", HostRole::Tracking));
            }
            hosts
        }
        ServiceKind::FunctionalCdn => vec![
            host("cdn", HostRole::Functional),
            host("static", HostRole::Functional),
        ],
        ServiceKind::ApiService => vec![
            host("api", HostRole::Functional),
            host("www", HostRole::Functional),
        ],
    }
}

/// A Zipf sampler over the ecosystem's services restricted to a kind
/// predicate; returns indices into `Ecosystem::services`.
#[derive(Debug, Clone)]
pub(crate) struct ServiceSampler {
    indices: Vec<usize>,
    zipf: Zipf,
}

impl ServiceSampler {
    /// Build a sampler over services matching `pred`, popularity-ordered.
    ///
    /// Returns `None` when no service matches.
    pub(crate) fn new(
        ecosystem: &Ecosystem,
        exponent: f64,
        pred: impl Fn(ServiceKind) -> bool,
    ) -> Option<Self> {
        let mut indices: Vec<usize> = ecosystem
            .services
            .iter()
            .filter(|s| pred(s.kind))
            .map(|s| s.id)
            .collect();
        if indices.is_empty() {
            return None;
        }
        indices.sort_by_key(|&i| ecosystem.services[i].popularity_rank);
        let zipf = Zipf::new(indices.len(), exponent);
        Some(ServiceSampler { indices, zipf })
    }

    /// Draw a service id.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.indices[self.zipf.sample(rng)]
    }
}

// ---------------------------------------------------------------------------
// Endpoint URL construction
// ---------------------------------------------------------------------------

/// Build a tracking endpoint URL on `hostname`.
///
/// The paths are chosen so the curated EasyPrivacy/EasyList generic rules
/// match them — this is how tracking requests to *mixed* or unlisted hosts
/// still get labeled, exactly like the real lists catch `/collect?v=1&...`
/// on any host.
pub(crate) fn tracking_endpoint_url<R: Rng + ?Sized>(
    hostname: &str,
    rng: &mut R,
) -> (String, ResourceType) {
    let variant = rng.gen_range(0..10);
    let id: u32 = rng.gen_range(1000..999_999);
    let (mut url, resource_type) = match variant {
        0 => (
            format!("https://{hostname}/collect?v=1&tid=UA-{id}&cid={id}"),
            ResourceType::Xhr,
        ),
        1 => (
            format!("https://{hostname}/pixel.gif?id={id}&ev=PageView"),
            ResourceType::Image,
        ),
        2 => (
            format!("https://{hostname}/track?event=pageview&sid={id}"),
            ResourceType::Xhr,
        ),
        3 => (
            format!("https://{hostname}/beacon?data=eyJpZCI6{id}"),
            ResourceType::Ping,
        ),
        4 => (
            format!("https://{hostname}/g/collect?v=2&tid=G-{id}"),
            ResourceType::Xhr,
        ),
        5 => (
            format!("https://{hostname}/impression.gif?adid={id}"),
            ResourceType::Image,
        ),
        6 => (
            format!("https://{hostname}/v1/pixel?pid={id}"),
            ResourceType::Image,
        ),
        7 => (
            format!("https://{hostname}/stats/collect?s={id}"),
            ResourceType::Xhr,
        ),
        8 => (
            format!("https://{hostname}/ads/serve?slot=top&id={id}"),
            ResourceType::Subdocument,
        ),
        _ => (
            format!("https://{hostname}/adrequest?zone={id}"),
            ResourceType::Xhr,
        ),
    };
    // Real tracking endpoints decorate their queries with the campaign and
    // click identifiers URL rewriters strip (`utm_*`, `gclid`, `fbclid`) and
    // occasionally carry the true destination as a percent-encoded redirect
    // wrapper (`&url=`). Appended after the filter-matching path+query, so
    // the list-labeling guarantees above are untouched.
    match rng.gen_range(0..8) {
        0 => {
            let campaign = rng.gen_range(1..99);
            url.push_str(&format!("&utm_source=partner{campaign}&utm_campaign=c{id}"));
        }
        1 => url.push_str(&format!("&gclid=CjwK{id}")),
        2 => url.push_str(&format!("&fbclid=IwAR{id}")),
        3 => url.push_str(&format!("&url=https%3A%2F%2F{hostname}%2Fnext%2Fpage-{id}")),
        _ => {}
    }
    (url, resource_type)
}

/// Build a functional endpoint URL on `hostname`.
///
/// Paths deliberately avoid every generic tracking pattern in the curated
/// lists so the oracle labels them functional.
pub(crate) fn functional_endpoint_url<R: Rng + ?Sized>(
    hostname: &str,
    rng: &mut R,
) -> (String, ResourceType) {
    let variant = rng.gen_range(0..10);
    let id: u32 = rng.gen_range(1000..999_999);
    match variant {
        0 => (
            format!("https://{hostname}/api/v2/content?id={id}"),
            ResourceType::Xhr,
        ),
        1 => (
            format!("https://{hostname}/assets/img/photo-{id}.jpg"),
            ResourceType::Image,
        ),
        2 => (
            format!("https://{hostname}/wp-content/uploads/2021/04/image-{id}.jpg"),
            ResourceType::Image,
        ),
        3 => (
            format!("https://{hostname}/static/css/site-{id}.css"),
            ResourceType::Stylesheet,
        ),
        4 => (
            format!("https://{hostname}/fonts/opensans-{id}.woff2"),
            ResourceType::Font,
        ),
        5 => (
            format!("https://{hostname}/api/v1/products?page={id}"),
            ResourceType::Xhr,
        ),
        6 => (
            format!("https://{hostname}/images/gallery/item-{id}.png"),
            ResourceType::Image,
        ),
        7 => (
            format!("https://{hostname}/media/video/clip-{id}.mp4"),
            ResourceType::Media,
        ),
        8 => (
            format!("https://{hostname}/api/session/refresh?u={id}"),
            ResourceType::Xhr,
        ),
        _ => (
            format!("https://{hostname}/widgets/embed?post={id}"),
            ResourceType::Subdocument,
        ),
    }
}

/// Build an endpoint URL of the requested purpose.
pub(crate) fn endpoint_url<R: Rng + ?Sized>(
    hostname: &str,
    purpose: Purpose,
    rng: &mut R,
) -> (String, ResourceType) {
    match purpose {
        Purpose::Tracking => tracking_endpoint_url(hostname, rng),
        Purpose::Functional => functional_endpoint_url(hostname, rng),
    }
}

/// URL of the script a tracking service serves (the `analytics.js` /
/// `show_ads_impl`-style payload).
pub(crate) fn service_script_url<R: Rng + ?Sized>(service: &Service, rng: &mut R) -> String {
    let host = service
        .host_with_role(HostRole::Tracking)
        .or_else(|| service.host_with_role(HostRole::Mixed))
        .or_else(|| service.hosts.first())
        .map(|h| h.hostname.clone())
        .unwrap_or_else(|| service.domain.clone());
    match service.kind {
        ServiceKind::Analytics => format!(
            "https://{host}/{}-analytics.js?v={}",
            service.name,
            rng.gen_range(1..9)
        ),
        ServiceKind::AdNetwork => format!("https://{host}/show_ads_impl_fy2019.js"),
        ServiceKind::TagManager => {
            format!("https://{host}/gtm.js?id=TAG-{}", rng.gen_range(100..999))
        }
        ServiceKind::ConsentManager => format!("https://{host}/uc.js"),
        ServiceKind::Platform => format!("https://{host}/sdk.js"),
        ServiceKind::CdnPlatform => format!("https://{host}/w.js"),
        ServiceKind::FunctionalCdn => format!("https://{host}/libs/jquery-3.6.0.min.js"),
        ServiceKind::ApiService => format!("https://{host}/client.js"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::CorpusProfile;
    use filterlist::{FilterEngine, FilterRequest, RequestLabel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ecosystem() -> Ecosystem {
        let mut rng = StdRng::seed_from_u64(17);
        build_ecosystem(
            &CorpusProfile::paper().with_sites(2_000).ecosystem_counts(),
            &mut rng,
        )
    }

    #[test]
    fn ecosystem_has_every_kind() {
        let eco = ecosystem();
        for kind in [
            ServiceKind::AdNetwork,
            ServiceKind::Analytics,
            ServiceKind::TagManager,
            ServiceKind::ConsentManager,
            ServiceKind::Platform,
            ServiceKind::CdnPlatform,
            ServiceKind::FunctionalCdn,
            ServiceKind::ApiService,
        ] {
            assert!(!eco.of_kind(kind).is_empty(), "missing {kind:?}");
        }
    }

    #[test]
    fn pure_trackers_are_listed_platforms_are_not() {
        let eco = ecosystem();
        for s in &eco.services {
            if s.kind.is_pure_tracking() {
                assert!(s.listed_in_filters, "{:?} should be listed", s.kind);
            }
            let pure_functional =
                matches!(s.kind, ServiceKind::FunctionalCdn | ServiceKind::ApiService);
            if s.kind.is_platform() || pure_functional {
                assert!(!s.listed_in_filters, "{:?} should not be listed", s.kind);
            }
        }
    }

    #[test]
    fn platform_services_have_mixed_hosts() {
        let eco = ecosystem();
        for s in eco.services.iter().filter(|s| s.kind.is_platform()) {
            assert!(s.host_with_role(HostRole::Mixed).is_some(), "{}", s.domain);
            assert!(
                s.host_with_role(HostRole::Tracking).is_some(),
                "{}",
                s.domain
            );
            assert!(
                s.host_with_role(HostRole::Functional).is_some(),
                "{}",
                s.domain
            );
        }
    }

    #[test]
    fn service_domains_are_unique() {
        let eco = ecosystem();
        let mut domains: Vec<&str> = eco.services.iter().map(|s| s.domain.as_str()).collect();
        let before = domains.len();
        domains.sort();
        domains.dedup();
        assert_eq!(domains.len(), before);
    }

    #[test]
    fn sampler_prefers_popular_services() {
        let eco = ecosystem();
        let sampler = ServiceSampler::new(&eco, 1.1, |k| k.is_pure_tracking()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        let draws = 20_000;
        for _ in 0..draws {
            *counts.entry(sampler.sample(&mut rng)).or_insert(0) += 1;
        }
        // The candidate with the best (lowest) popularity rank must be drawn
        // far more often than the candidate with the worst rank.
        let candidates: Vec<&Service> = eco
            .services
            .iter()
            .filter(|s| s.kind.is_pure_tracking())
            .collect();
        let best = candidates.iter().min_by_key(|s| s.popularity_rank).unwrap();
        let worst = candidates.iter().max_by_key(|s| s.popularity_rank).unwrap();
        let best_draws = counts.get(&best.id).copied().unwrap_or(0);
        let worst_draws = counts.get(&worst.id).copied().unwrap_or(0);
        assert!(
            best_draws > worst_draws.saturating_mul(5),
            "best {best_draws} vs worst {worst_draws}"
        );
    }

    #[test]
    fn tracking_endpoints_match_generic_filter_rules() {
        // Tracking URLs on arbitrary (unlisted) hosts must still be caught
        // by the curated generic rules, otherwise mixed hosts could never
        // accumulate tracking counts.
        let engine = FilterEngine::easylist_easyprivacy();
        let mut rng = StdRng::seed_from_u64(5);
        let mut tracking_hits = 0;
        let n = 300;
        for _ in 0..n {
            let (url, ty) = tracking_endpoint_url("i0.somecontenthub42.com", &mut rng);
            let req = FilterRequest::new(&url, "publisher-77.com", ty).unwrap();
            if engine.label(&req) == RequestLabel::Tracking {
                tracking_hits += 1;
            }
        }
        assert!(
            tracking_hits as f64 > n as f64 * 0.85,
            "only {tracking_hits}/{n} tracking endpoints matched the lists"
        );
    }

    #[test]
    fn tracking_endpoints_carry_identifier_params_and_redirect_wrappers() {
        // A slice of tracking endpoints must exhibit the decorations URL
        // rewriters act on: campaign/click identifiers and percent-encoded
        // redirect wrappers.
        let mut rng = StdRng::seed_from_u64(7);
        let n = 300;
        let mut identifiers = 0;
        let mut wrappers = 0;
        for _ in 0..n {
            let (url, _) = tracking_endpoint_url("i0.somecontenthub42.com", &mut rng);
            if url.contains("&utm_") || url.contains("&gclid=") || url.contains("&fbclid=") {
                identifiers += 1;
            }
            if url.contains("&url=https%3A%2F%2F") {
                wrappers += 1;
            }
        }
        assert!(
            identifiers > n / 10,
            "only {identifiers}/{n} carried identifiers"
        );
        assert!(
            wrappers > n / 20,
            "only {wrappers}/{n} carried redirect wrappers"
        );
    }

    #[test]
    fn functional_endpoints_do_not_match_filter_rules() {
        let engine = FilterEngine::easylist_easyprivacy();
        let mut rng = StdRng::seed_from_u64(6);
        let n = 300;
        let mut functional = 0;
        for _ in 0..n {
            let (url, ty) = functional_endpoint_url("cdn.somecontenthub42.com", &mut rng);
            let req = FilterRequest::new(&url, "publisher-77.com", ty).unwrap();
            if engine.label(&req) == RequestLabel::Functional {
                functional += 1;
            }
        }
        assert_eq!(
            functional, n,
            "a functional endpoint accidentally matched the filter lists"
        );
    }

    #[test]
    fn service_script_urls_are_well_formed() {
        let eco = ecosystem();
        let mut rng = StdRng::seed_from_u64(8);
        for s in &eco.services {
            let url = service_script_url(s, &mut rng);
            assert!(url.starts_with("https://"), "{url}");
            assert!(url.contains(&s.domain), "{url} should be on {}", s.domain);
        }
    }
}
