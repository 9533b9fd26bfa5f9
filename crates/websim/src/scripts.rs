//! Script archetype factory: builds the [`PageScript`]s a website executes.
//!
//! Each constructor corresponds to a behaviour the paper observes in the
//! wild: third-party analytics tags, ad-network loaders, tag managers that
//! inject other vendors' code, consent-management scripts that call ad
//! vendors, platform SDKs (social widgets with impression tracking),
//! functional libraries served from shared CDNs, first-party application
//! code, webpack-style bundles that fold a tracking module in with
//! functional ones, and inline snippets whose script identity collapses to
//! the page URL.

use crate::distributions::{coin, LogNormal};
use crate::ecosystem::{endpoint_url, service_script_url, HostRole, Service, ServiceKind};
use crate::model::{
    PageScript, PlannedRequest, Purpose, ScriptArchetype, ScriptMethodSpec, ScriptOrigin,
};
use crate::names::NameFactory;
use crate::profiles::CorpusProfile;
use rand::Rng;

/// Context shared by the factory while building one website.
pub(crate) struct SiteContext<'a> {
    /// Profile in force.
    pub(crate) profile: &'a CorpusProfile,
    /// Landing-page URL of the site being generated.
    pub(crate) page_url: String,
    /// Primary hostname of the site (`www.<domain>`).
    pub(crate) hostname: String,
    /// Registrable domain of the site.
    pub(crate) domain: String,
    /// Site rank (used to derive per-site script URL variants).
    pub(crate) rank: usize,
    /// Log-normal request-volume sampler.
    pub(crate) volume: LogNormal,
}

impl<'a> SiteContext<'a> {
    /// How many requests a single emission point produces.
    pub(crate) fn volume<R: Rng + ?Sized>(&self, rng: &mut R, max: usize) -> usize {
        self.volume.sample_count(rng, 1, max)
    }
}

/// Build `count` requests of `purpose` aimed at `hostname`, honouring the
/// profile's label noise (a noisy request keeps its intent but gets a URL of
/// the *opposite* shape, modelling filter-list mistakes).
pub(crate) fn planned_requests<R: Rng + ?Sized>(
    ctx: &SiteContext<'_>,
    rng: &mut R,
    hostname: &str,
    purpose: Purpose,
    count: usize,
) -> Vec<PlannedRequest> {
    (0..count)
        .map(|_| {
            let noisy = coin(rng, ctx.profile.label_noise);
            let url_purpose = if noisy {
                match purpose {
                    Purpose::Tracking => Purpose::Functional,
                    Purpose::Functional => Purpose::Tracking,
                }
            } else {
                purpose
            };
            let (url, resource_type) = endpoint_url(hostname, url_purpose, rng);
            PlannedRequest {
                url,
                resource_type,
                intent: purpose,
                via_caller: None,
            }
        })
        .collect()
}

/// Like [`planned_requests`], but draws the request count from the profile's
/// log-normal volume distribution (capped at `max`).
pub(crate) fn emit<R: Rng + ?Sized>(
    ctx: &SiteContext<'_>,
    rng: &mut R,
    hostname: &str,
    purpose: Purpose,
    max: usize,
) -> Vec<PlannedRequest> {
    let count = ctx.volume(rng, max);
    planned_requests(ctx, rng, hostname, purpose, count)
}

/// A third-party analytics tag: tracking beacons to the vendor's own hosts.
pub(crate) fn analytics_script<R: Rng + ?Sized>(
    ctx: &SiteContext<'_>,
    service: &Service,
    rng: &mut R,
) -> PageScript {
    debug_assert_eq!(service.kind, ServiceKind::Analytics);
    let url = format!("{}&pub={}", service_script_url(service, rng), ctx.rank);
    let host = service
        .host_with_role(HostRole::Tracking)
        .expect("analytics services have tracking hosts")
        .hostname
        .clone();
    let beacons = emit(ctx, rng, &host, Purpose::Tracking, 8);
    let queued_beacons = emit(ctx, rng, &host, Purpose::Tracking, 4);
    PageScript {
        origin: ScriptOrigin::External { url },
        methods: vec![
            ScriptMethodSpec {
                name: "init".into(),
                requests: Vec::new(),
                callees: vec![1],
            },
            ScriptMethodSpec {
                name: "sendBeacon".into(),
                requests: beacons,
                callees: Vec::new(),
            },
            ScriptMethodSpec {
                name: "flushQueue".into(),
                requests: queued_beacons,
                callees: Vec::new(),
            },
        ],
        loads_scripts: Vec::new(),
        archetype: ScriptArchetype::Tracking,
    }
}

/// An ad-network loader: ad requests to the vendor plus creative fetches
/// that ride on a shared content CDN (a *mixed* hostname), which is what
/// drags ad scripts into the script-level analysis.
pub(crate) fn ad_network_script<R: Rng + ?Sized>(
    ctx: &SiteContext<'_>,
    service: &Service,
    cdn_mixed_host: Option<&str>,
    rng: &mut R,
) -> PageScript {
    debug_assert_eq!(service.kind, ServiceKind::AdNetwork);
    let url = format!(
        "{}?client=pub-{}",
        service_script_url(service, rng),
        ctx.rank
    );
    let own_host = service
        .host_with_role(HostRole::Tracking)
        .expect("ad networks have tracking hosts")
        .hostname
        .clone();
    let mut methods = vec![
        ScriptMethodSpec {
            name: "init".into(),
            requests: Vec::new(),
            callees: vec![1],
        },
        ScriptMethodSpec {
            name: "requestAds".into(),
            requests: emit(ctx, rng, &own_host, Purpose::Tracking, 6),
            callees: Vec::new(),
        },
    ];
    if let Some(cdn) = cdn_mixed_host {
        methods.push(ScriptMethodSpec {
            name: "renderCreative".into(),
            requests: emit(ctx, rng, cdn, Purpose::Tracking, 4),
            callees: Vec::new(),
        });
    }
    PageScript {
        origin: ScriptOrigin::External { url },
        methods,
        loads_scripts: Vec::new(),
        archetype: ScriptArchetype::Tracking,
    }
}

/// A tag manager: emits a couple of beacons of its own and dynamically
/// injects other tracking scripts (which therefore carry it in their
/// ancestral call stacks). The indices of the injected scripts are patched
/// in by the generator via `loads_scripts`.
pub(crate) fn tag_manager_script<R: Rng + ?Sized>(
    ctx: &SiteContext<'_>,
    service: &Service,
    rng: &mut R,
) -> PageScript {
    debug_assert_eq!(service.kind, ServiceKind::TagManager);
    let url = format!(
        "{}&l=dataLayer&site={}",
        service_script_url(service, rng),
        ctx.rank
    );
    let host = service.hosts[0].hostname.clone();
    PageScript {
        origin: ScriptOrigin::External { url },
        methods: vec![
            ScriptMethodSpec {
                name: "bootstrap".into(),
                requests: Vec::new(),
                callees: vec![1],
            },
            ScriptMethodSpec {
                name: "pushEvent".into(),
                requests: emit(ctx, rng, &host, Purpose::Tracking, 3),
                callees: Vec::new(),
            },
        ],
        loads_scripts: Vec::new(),
        archetype: ScriptArchetype::Tracking,
    }
}

/// A consent-management script which, once consent is (assumed) granted,
/// calls out to advertising vendors — the `uc.js` example from the paper.
pub(crate) fn consent_manager_script<R: Rng + ?Sized>(
    ctx: &SiteContext<'_>,
    service: &Service,
    ad_vendors: &[&Service],
    rng: &mut R,
) -> PageScript {
    debug_assert_eq!(service.kind, ServiceKind::ConsentManager);
    let url = format!("{}?cbid={}", service_script_url(service, rng), ctx.rank);
    let own_host = service.hosts[0].hostname.clone();
    let mut vendor_calls = Vec::new();
    for vendor in ad_vendors.iter().take(3) {
        if let Some(host) = vendor.host_with_role(HostRole::Tracking) {
            vendor_calls.extend(emit(ctx, rng, &host.hostname, Purpose::Tracking, 2));
        }
    }
    PageScript {
        origin: ScriptOrigin::External { url },
        methods: vec![
            ScriptMethodSpec {
                name: "loadConsentState".into(),
                requests: planned_requests(ctx, rng, &own_host, Purpose::Tracking, 1),
                callees: vec![1],
            },
            ScriptMethodSpec {
                name: "fireVendorTags".into(),
                requests: vendor_calls,
                callees: Vec::new(),
            },
        ],
        loads_scripts: Vec::new(),
        archetype: ScriptArchetype::Tracking,
    }
}

/// How a site uses a platform SDK.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlatformSdkMode {
    /// Only functional widget content (e.g. an embedded post).
    WidgetOnly,
    /// Only conversion/impression tracking (pixel mode).
    PixelOnly,
    /// Both — a mixed script.
    WidgetAndPixel,
}

/// A platform SDK (social widget / embedded content SDK).
pub(crate) fn platform_sdk_script<R: Rng + ?Sized>(
    ctx: &SiteContext<'_>,
    service: &Service,
    mode: PlatformSdkMode,
    rng: &mut R,
) -> PageScript {
    debug_assert!(service.kind.is_platform());
    let url = format!(
        "{}?app_id={}",
        service_script_url(service, rng),
        10_000 + ctx.rank
    );
    let mixed_host = service
        .host_with_role(HostRole::Mixed)
        .expect("platforms have a mixed host")
        .hostname
        .clone();
    let functional_host = service
        .host_with_role(HostRole::Functional)
        .map(|h| h.hostname.clone())
        .unwrap_or_else(|| mixed_host.clone());
    let tracking_host = service
        .host_with_role(HostRole::Tracking)
        .map(|h| h.hostname.clone())
        .unwrap_or_else(|| mixed_host.clone());

    let mut methods = vec![ScriptMethodSpec::empty("init")];
    let mut archetype = ScriptArchetype::Functional;

    if matches!(
        mode,
        PlatformSdkMode::WidgetOnly | PlatformSdkMode::WidgetAndPixel
    ) {
        methods.push(ScriptMethodSpec {
            name: "renderWidget".into(),
            requests: {
                let mut reqs = emit(ctx, rng, &mixed_host, Purpose::Functional, 4);
                reqs.extend(emit(ctx, rng, &functional_host, Purpose::Functional, 3));
                reqs
            },
            callees: Vec::new(),
        });
    }
    if matches!(
        mode,
        PlatformSdkMode::PixelOnly | PlatformSdkMode::WidgetAndPixel
    ) {
        methods.push(ScriptMethodSpec {
            name: "trackImpression".into(),
            requests: {
                let mut reqs = emit(ctx, rng, &mixed_host, Purpose::Tracking, 3);
                reqs.extend(emit(ctx, rng, &tracking_host, Purpose::Tracking, 2));
                reqs
            },
            callees: Vec::new(),
        });
        archetype = if mode == PlatformSdkMode::PixelOnly {
            ScriptArchetype::Tracking
        } else {
            ScriptArchetype::Mixed
        };
    }
    // Wire init to call the first operational method so stacks have depth.
    if methods.len() > 1 {
        methods[0].callees = vec![1];
    }

    let mut script = PageScript {
        origin: ScriptOrigin::External { url },
        methods,
        loads_scripts: Vec::new(),
        archetype,
    };
    // A mixed SDK sometimes routes both kinds of request through one shared
    // transport method — the finest-granularity residue the paper measures.
    if archetype == ScriptArchetype::Mixed && coin(rng, ctx.profile.mixed_method_rate) {
        add_shared_dispatcher(&mut script, rng);
    }
    script
}

/// A functional library served from a shared CDN (jquery/lazysizes-like):
/// lazily loads content, including from shared *mixed* image CDNs.
pub(crate) fn functional_library_script<R: Rng + ?Sized>(
    ctx: &SiteContext<'_>,
    cdn: &Service,
    mixed_cdn_host: Option<&str>,
    rng: &mut R,
) -> PageScript {
    debug_assert_eq!(cdn.kind, ServiceKind::FunctionalCdn);
    let url = service_script_url(cdn, rng);
    let own_host = cdn.hosts[0].hostname.clone();
    let mut methods = vec![
        ScriptMethodSpec::empty("init"),
        ScriptMethodSpec {
            name: "loadAssets".into(),
            requests: emit(ctx, rng, &own_host, Purpose::Functional, 3),
            callees: Vec::new(),
        },
    ];
    if let Some(host) = mixed_cdn_host {
        methods.push(ScriptMethodSpec {
            name: "lazyLoadImages".into(),
            requests: emit(ctx, rng, host, Purpose::Functional, 5),
            callees: Vec::new(),
        });
    }
    methods[0].callees = vec![1];
    PageScript {
        origin: ScriptOrigin::External { url },
        methods,
        loads_scripts: Vec::new(),
        archetype: ScriptArchetype::Functional,
    }
}

/// A pure functional content/API integration (maps, payments, search).
pub(crate) fn api_service_script<R: Rng + ?Sized>(
    ctx: &SiteContext<'_>,
    service: &Service,
    rng: &mut R,
) -> PageScript {
    debug_assert_eq!(service.kind, ServiceKind::ApiService);
    let url = service_script_url(service, rng);
    let host = service.hosts[0].hostname.clone();
    PageScript {
        origin: ScriptOrigin::External { url },
        methods: vec![
            ScriptMethodSpec::empty("init"),
            ScriptMethodSpec {
                name: "fetchData".into(),
                requests: emit(ctx, rng, &host, Purpose::Functional, 4),
                callees: Vec::new(),
            },
        ],
        loads_scripts: Vec::new(),
        archetype: ScriptArchetype::Functional,
    }
}

/// Options controlling the first-party application script.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FirstPartyOptions {
    /// Site self-hosts tracking and the beacon lives in this script.
    pub(crate) embed_tracking_beacon: bool,
    /// Ship as a webpack bundle.
    pub(crate) bundle: bool,
    /// Fold a third-party tracking module into the bundle.
    pub(crate) bundle_tracking_module: bool,
}

/// The site's own application code (`main.js` or a webpack bundle).
///
/// Functional XHRs go to the site's own hostname; content is also pulled
/// from shared platform CDNs (mixed hostnames). Depending on the options it
/// may also carry tracking behaviour — the first-party hosting and bundling
/// circumvention patterns.
pub(crate) fn first_party_app_script<R: Rng + ?Sized>(
    ctx: &SiteContext<'_>,
    platform_cdn_host: Option<&str>,
    tracking_vendor: Option<&Service>,
    opts: FirstPartyOptions,
    rng: &mut R,
) -> PageScript {
    let mut methods = vec![
        ScriptMethodSpec::empty("bootstrap"),
        ScriptMethodSpec {
            name: "fetchContent".into(),
            requests: emit(ctx, rng, &ctx.hostname, Purpose::Functional, 5),
            callees: Vec::new(),
        },
    ];
    let mut modules = vec!["app".to_string(), "router".to_string()];
    if let Some(host) = platform_cdn_host {
        let (lo, hi) = ctx.profile.platform_cdn_fetches_per_site;
        let n = rng.gen_range(lo..=hi.max(lo));
        methods.push(ScriptMethodSpec {
            name: "loadMedia".into(),
            requests: planned_requests(ctx, rng, host, Purpose::Functional, n.max(1)),
            callees: Vec::new(),
        });
        modules.push("media-loader".to_string());
    }

    let mut archetype = ScriptArchetype::Functional;
    if opts.embed_tracking_beacon {
        methods.push(ScriptMethodSpec {
            name: "reportUsage".into(),
            requests: emit(ctx, rng, &ctx.hostname, Purpose::Tracking, 3),
            callees: Vec::new(),
        });
        modules.push("usage-reporter".to_string());
        archetype = ScriptArchetype::Mixed;
    }
    if opts.bundle && opts.bundle_tracking_module {
        if let Some(vendor) = tracking_vendor {
            if let Some(host) = vendor
                .host_with_role(HostRole::Mixed)
                .or_else(|| vendor.host_with_role(HostRole::Tracking))
            {
                methods.push(ScriptMethodSpec {
                    name: "firePixel".into(),
                    requests: emit(ctx, rng, &host.hostname, Purpose::Tracking, 3),
                    callees: Vec::new(),
                });
                modules.push(format!("{}-pixel", vendor.name));
                archetype = ScriptArchetype::Mixed;
            }
        }
    }
    methods[0].callees = vec![1];

    let origin = if opts.bundle {
        ScriptOrigin::Bundled {
            url: format!(
                "https://{}/assets/{}",
                ctx.hostname,
                NameFactory::bundle_filename(rng)
            ),
            modules,
        }
    } else {
        ScriptOrigin::External {
            url: format!(
                "https://{}/assets/main.js?v={}",
                ctx.hostname,
                rng.gen_range(1..20)
            ),
        }
    };
    let mut script = PageScript {
        origin,
        methods,
        loads_scripts: Vec::new(),
        archetype,
    };
    if archetype == ScriptArchetype::Mixed && coin(rng, ctx.profile.mixed_method_rate) {
        add_shared_dispatcher(&mut script, rng);
    }
    script
}

/// A dedicated self-hosted tracking script (`/js/stats.js`) used by sites
/// that first-party-host their analytics but keep it out of the app bundle.
pub(crate) fn self_hosted_tracker_script<R: Rng + ?Sized>(
    ctx: &SiteContext<'_>,
    rng: &mut R,
) -> PageScript {
    // Many self-hosting publishers put the collection endpoint on a
    // dedicated first-party hostname (`stats.<domain>`, the CNAME-cloaking
    // pattern); the rest reuse the main `www` host. Either way the *domain*
    // becomes mixed, but only the latter makes the `www` hostname mixed.
    let beacon_host = if coin(rng, 0.6) {
        format!("stats.{}", ctx.domain)
    } else {
        ctx.hostname.clone()
    };
    PageScript {
        origin: ScriptOrigin::External {
            url: format!("https://{}/js/stats.js", ctx.hostname),
        },
        methods: vec![
            ScriptMethodSpec::empty("init"),
            ScriptMethodSpec {
                name: "sendHit".into(),
                requests: emit(ctx, rng, &beacon_host, Purpose::Tracking, 4),
                callees: Vec::new(),
            },
        ],
        loads_scripts: Vec::new(),
        archetype: ScriptArchetype::Tracking,
    }
}

/// An inline snippet. Its script identity is the page URL, so several inline
/// snippets on one page collapse into one script-level resource — the
/// script-inlining circumvention pattern.
pub(crate) fn inline_snippet<R: Rng + ?Sized>(
    ctx: &SiteContext<'_>,
    position: usize,
    purpose: Purpose,
    target_host: &str,
    rng: &mut R,
) -> PageScript {
    let method_name = match purpose {
        Purpose::Tracking => "fbqTrack".to_string(),
        Purpose::Functional => "setupCarousel".to_string(),
    };
    PageScript {
        origin: ScriptOrigin::Inline {
            page_url: ctx.page_url.clone(),
            position,
        },
        methods: vec![ScriptMethodSpec {
            name: method_name,
            requests: emit(ctx, rng, target_host, purpose, 3),
            callees: Vec::new(),
        }],
        loads_scripts: Vec::new(),
        archetype: match purpose {
            Purpose::Tracking => ScriptArchetype::Tracking,
            Purpose::Functional => ScriptArchetype::Functional,
        },
    }
}

/// Reroute roughly half of each purpose's requests through a single shared
/// dispatcher method (`<x>.xhrRequest`), creating a *mixed method* — the
/// paper's `Pa.xhrRequest` example.
fn add_shared_dispatcher<R: Rng + ?Sized>(script: &mut PageScript, rng: &mut R) {
    let mut moved: Vec<PlannedRequest> = Vec::new();
    for method in &mut script.methods {
        if method.requests.len() < 2 {
            continue;
        }
        let take = method.requests.len() / 2;
        for _ in 0..take {
            let mut request = method.requests.remove(0);
            // The dispatcher is *called by* the original method, so the
            // calling context still distinguishes tracking from functional
            // invocations — exactly what the Figure 5 analysis relies on.
            request.via_caller = Some(method.name.clone());
            moved.push(request);
        }
    }
    if moved.is_empty() {
        return;
    }
    let name = NameFactory::minified_method_name(rng);
    script.methods.push(ScriptMethodSpec {
        name: if name.contains('.') {
            name
        } else {
            format!("{name}.xhrRequest")
        },
        requests: moved,
        callees: Vec::new(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecosystem::build_ecosystem;
    use crate::profiles::CorpusProfile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (CorpusProfile, crate::ecosystem::Ecosystem, StdRng) {
        let profile = CorpusProfile::small();
        let mut rng = StdRng::seed_from_u64(99);
        let eco = build_ecosystem(&profile.ecosystem_counts(), &mut rng);
        (profile, eco, rng)
    }

    fn ctx(profile: &CorpusProfile) -> SiteContext<'_> {
        SiteContext {
            profile,
            page_url: "https://www.testsite42.com/".into(),
            hostname: "www.testsite42.com".into(),
            domain: "testsite42.com".into(),
            rank: 42,
            volume: LogNormal::new(profile.request_volume_mu, profile.request_volume_sigma),
        }
    }

    #[test]
    fn analytics_script_is_pure_tracking() {
        let (profile, eco, mut rng) = setup();
        let ctx = ctx(&profile);
        let svc = eco.of_kind(ServiceKind::Analytics)[0];
        let s = analytics_script(&ctx, svc, &mut rng);
        assert_eq!(s.archetype, ScriptArchetype::Tracking);
        assert!(s.planned_request_count() >= 2);
        assert!(s
            .planned_requests()
            .all(|(_, r)| r.intent == Purpose::Tracking));
    }

    #[test]
    fn platform_sdk_modes_control_archetype() {
        let (profile, eco, mut rng) = setup();
        let ctx = ctx(&profile);
        let svc = eco.of_kind(ServiceKind::Platform)[0];
        let w = platform_sdk_script(&ctx, svc, PlatformSdkMode::WidgetOnly, &mut rng);
        let p = platform_sdk_script(&ctx, svc, PlatformSdkMode::PixelOnly, &mut rng);
        let m = platform_sdk_script(&ctx, svc, PlatformSdkMode::WidgetAndPixel, &mut rng);
        assert_eq!(w.archetype, ScriptArchetype::Functional);
        assert_eq!(p.archetype, ScriptArchetype::Tracking);
        assert_eq!(m.archetype, ScriptArchetype::Mixed);
        assert!(m
            .planned_requests()
            .any(|(_, r)| r.intent == Purpose::Tracking));
        assert!(m
            .planned_requests()
            .any(|(_, r)| r.intent == Purpose::Functional));
    }

    #[test]
    fn bundled_tracking_module_makes_script_mixed() {
        let (profile, eco, mut rng) = setup();
        let ctx = ctx(&profile);
        let vendor = eco.of_kind(ServiceKind::Platform)[0];
        let s = first_party_app_script(
            &ctx,
            None,
            Some(vendor),
            FirstPartyOptions {
                embed_tracking_beacon: false,
                bundle: true,
                bundle_tracking_module: true,
            },
            &mut rng,
        );
        assert_eq!(s.archetype, ScriptArchetype::Mixed);
        let ScriptOrigin::Bundled { modules, .. } = &s.origin else {
            panic!("expected a bundle, got {:?}", s.origin);
        };
        assert!(modules.iter().any(|m| m.ends_with("-pixel")));
    }

    #[test]
    fn plain_first_party_script_is_functional() {
        let (profile, _eco, mut rng) = setup();
        let ctx = ctx(&profile);
        let s = first_party_app_script(&ctx, None, None, FirstPartyOptions::default(), &mut rng);
        assert_eq!(s.archetype, ScriptArchetype::Functional);
        assert!(s
            .planned_requests()
            .all(|(_, r)| r.intent == Purpose::Functional));
        assert!(s.origin.url().contains("www.testsite42.com"));
    }

    #[test]
    fn shared_dispatcher_carries_both_purposes() {
        let (profile, eco, mut rng) = setup();
        // Force dispatcher creation.
        let mut profile = profile;
        profile.mixed_method_rate = 1.0;
        let ctx = ctx(&profile);
        let svc = eco.of_kind(ServiceKind::Platform)[0];
        // Try a few seeds: volumes must be >= 2 per method for the
        // dispatcher to receive requests of both kinds.
        let mut found = false;
        for _ in 0..20 {
            let s = platform_sdk_script(&ctx, svc, PlatformSdkMode::WidgetAndPixel, &mut rng);
            if let Some(dispatcher) = s.methods.iter().find(|m| m.name.contains("xhrRequest")) {
                let has_t = dispatcher
                    .requests
                    .iter()
                    .any(|r| r.intent == Purpose::Tracking);
                let has_f = dispatcher
                    .requests
                    .iter()
                    .any(|r| r.intent == Purpose::Functional);
                if has_t && has_f {
                    found = true;
                    break;
                }
            }
        }
        assert!(found, "no mixed dispatcher method produced in 20 attempts");
    }

    #[test]
    fn inline_snippets_share_the_page_url_identity() {
        let (profile, eco, mut rng) = setup();
        let ctx = ctx(&profile);
        let platform = eco.of_kind(ServiceKind::Platform)[0];
        let host = &platform.host_with_role(HostRole::Mixed).unwrap().hostname;
        let t = inline_snippet(&ctx, 1, Purpose::Tracking, host, &mut rng);
        let f = inline_snippet(&ctx, 2, Purpose::Functional, host, &mut rng);
        assert_eq!(t.origin.url(), f.origin.url());
        assert_eq!(t.origin.url(), "https://www.testsite42.com/");
    }

    #[test]
    fn consent_script_calls_ad_vendors() {
        let (profile, eco, mut rng) = setup();
        let ctx = ctx(&profile);
        let consent = eco.of_kind(ServiceKind::ConsentManager)[0];
        let vendors = eco.of_kind(ServiceKind::AdNetwork);
        let s = consent_manager_script(&ctx, consent, &vendors, &mut rng);
        assert_eq!(s.archetype, ScriptArchetype::Tracking);
        let vendor_domains: Vec<&str> = vendors.iter().map(|v| v.domain.as_str()).collect();
        assert!(
            s.planned_requests()
                .any(|(_, r)| vendor_domains.iter().any(|d| r.url.contains(d))),
            "expected at least one request to an ad vendor"
        );
    }
}
