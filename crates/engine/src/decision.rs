//! The enforcement layer: one blessed entry point turning a request into
//! the action a blocker should take.
//!
//! [`Verdict::should_block`](crate::Verdict::should_block) is too
//! blunt for deployment: it collapses TrackerSift's whole point — *mixed*
//! resources deserve finer treatment than block-or-allow — into a boolean.
//! A real blocker composes three sources of truth per request:
//!
//! 1. the **hierarchy verdict** (coarsest-to-finest walk over the trained
//!    state, see [`crate::service`]),
//! 2. a **surrogate plan** when the request is settled at a *mixed script*
//!    (keep the functional methods, stub the tracking ones, guard the
//!    mixed ones — paper §5, see [`crate::surrogate`]),
//! 3. the **filter-list match** as the backstop for requests the hierarchy
//!    cannot settle (unknown domains, still-mixed coarse resources).
//!
//! Callers used to stitch those together by hand. [`Decision`] is that
//! composition, computed from a single [`DecisionRequest`] by
//! [`VerdictTable::decide`](crate::VerdictTable::decide) — the one
//! place a decision is made. A
//! [`SifterReader`](crate::concurrent::SifterReader) (and, through
//! `trackersift-server`, the wire) forwards to the table it pins, so
//! in-process, concurrent and over-the-wire decisions are byte-identical
//! for the same committed state.
//!
//! # The decision policy
//!
//! | hierarchy verdict | decision |
//! |---|---|
//! | tracking (any granularity) | [`Decision::Block`] |
//! | functional (any granularity) | [`Decision::Allow`] |
//! | mixed at script / method level | [`Decision::Surrogate`] with the script's plan, else rewrite, else backstop |
//! | mixed at domain / hostname level | [`Decision::Rewrite`] when the URL carries identifiers, else backstop |
//! | unknown | filter-list backstop |
//!
//! [`Decision::Rewrite`] is the enforcement arm for *hierarchy-mixed*
//! requests whose URL actually carries tracking identifiers (`utm_*`,
//! `gclid`, redirect wrappers): a configured
//! [`UrlRewriter`] strips them and the blocker loads
//! the cleaned URL instead. Precedence is Allow < Rewrite < Surrogate <
//! Block: a rewrite only fires where block/allow/surrogate cannot settle
//! the request more decisively.
//!
//! The filter-list backstop blocks when the engine labels the request URL
//! tracking, allows when it labels it functional, and yields
//! [`Decision::Observe`] when it cannot run (no engine configured, or the
//! request carried no URL) — the "let it through, keep collecting
//! evidence" answer.

use crate::hierarchy::Granularity;
use crate::intern::{FrozenKeys, ResourceKey};
use crate::ratio::Classification;
use crate::service::Verdict;
use crate::surrogate::SurrogateScript;
use crate::table::{verdict_walk, ClassTable};
use filterlist::{FilterEngine, RequestLabel, ResourceType};
use rewriter::{RewrittenUrl, UrlRewriter};
use std::fmt;
use std::sync::Arc;

/// One enforcement query: the four attribution keys every verdict needs,
/// plus (optionally) the raw URL context that lets the filter-list
/// backstop run for requests the hierarchy cannot settle.
///
/// ```
/// use trackersift_engine::DecisionRequest;
///
/// let keys_only = DecisionRequest::new("ads.com", "px.ads.com", "https://pub.com/a.js", "send");
/// let with_url = keys_only
///     .with_url("https://px.ads.com/pixel?uid=7", "pub.com", filterlist::ResourceType::Image);
/// assert!(keys_only.url.is_none());
/// assert_eq!(with_url.url, Some("https://px.ads.com/pixel?uid=7"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionRequest<'a> {
    /// Registrable domain (eTLD+1) of the request URL.
    pub domain: &'a str,
    /// Full hostname of the request URL.
    pub hostname: &'a str,
    /// URL of the initiating script (innermost stack frame).
    pub script: &'a str,
    /// Method (function) name of the initiating frame.
    pub method: &'a str,
    /// The raw request URL, when the caller has it — enables the
    /// filter-list backstop for hierarchy-unsettled requests.
    pub url: Option<&'a str>,
    /// Hostname of the page issuing the request (party-ness for the filter
    /// match); ignored unless `url` is set.
    pub source_hostname: &'a str,
    /// Resource type of the request; ignored unless `url` is set.
    pub resource_type: ResourceType,
}

impl<'a> DecisionRequest<'a> {
    /// A keys-only query (no filter-list backstop).
    pub fn new(domain: &'a str, hostname: &'a str, script: &'a str, method: &'a str) -> Self {
        DecisionRequest {
            domain,
            hostname,
            script,
            method,
            url: None,
            source_hostname: "",
            resource_type: ResourceType::Other,
        }
    }

    /// Attach the raw URL context that lets the filter-list backstop
    /// decide requests the hierarchy cannot settle.
    pub fn with_url(
        mut self,
        url: &'a str,
        source_hostname: &'a str,
        resource_type: ResourceType,
    ) -> Self {
        self.url = Some(url);
        self.source_hostname = source_hostname;
        self.resource_type = resource_type;
        self
    }

    /// The attribution key string at `level` (the method *name* at
    /// [`Granularity::Method`]).
    #[inline]
    pub(crate) fn key(&self, level: Granularity) -> &'a str {
        match level {
            Granularity::Domain => self.domain,
            Granularity::Hostname => self.hostname,
            Granularity::Script => self.script,
            Granularity::Method => self.method,
        }
    }

    /// The query of a labeled request, `request.into()`. New code converts
    /// with `From`; this stays only while the benchmark harness
    /// (`bench_e2e`'s `study.rs` and `serve.rs`) names it, until ROADMAP
    /// items 1(e) and 11 move it off.
    pub fn from_labeled<R>(request: &'a R) -> Self
    where
        &'a R: Into<DecisionRequest<'a>>,
    {
        request.into()
    }
}

/// A decision query whose four attribution keys are already resolved to
/// [`ResourceKey`]s of one specific table. `None` marks a key that table
/// never interned (an unknown resource), or, from
/// [`VerdictTable::resolve`](crate::VerdictTable::resolve), a key
/// below the level where the verdict walk stops, which nothing reads.
///
/// This is the hot-path form of [`DecisionRequest`]: a binary wire client
/// that completed the key-interning handshake sends numeric ids, and the
/// server answers without hashing a single string. Build one from numeric
/// ids via [`FrozenKeys::key_for_id`](crate::FrozenKeys::key_for_id)
/// or from strings via
/// [`VerdictTable::resolve`](crate::VerdictTable::resolve).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyedRequest<'a> {
    /// Resolved registrable-domain key.
    pub(crate) domain: Option<ResourceKey>,
    /// Resolved hostname key.
    pub(crate) hostname: Option<ResourceKey>,
    /// Resolved initiating-script key.
    pub(crate) script: Option<ResourceKey>,
    /// Resolved method-*name* key (the composed `script :: method` key is
    /// looked up from the `(script, name)` pair during the walk).
    pub(crate) method: Option<ResourceKey>,
    /// Raw request URL for the filter-list backstop, if carried.
    pub(crate) url: Option<&'a str>,
    /// Hostname of the page issuing the request; ignored unless `url` is
    /// set.
    pub(crate) source_hostname: &'a str,
    /// Resource type of the request; ignored unless `url` is set.
    pub(crate) resource_type: ResourceType,
}

impl<'a> KeyedRequest<'a> {
    /// A keys-only query (no filter-list backstop).
    pub fn new(
        domain: Option<ResourceKey>,
        hostname: Option<ResourceKey>,
        script: Option<ResourceKey>,
        method: Option<ResourceKey>,
    ) -> Self {
        KeyedRequest {
            domain,
            hostname,
            script,
            method,
            url: None,
            source_hostname: "",
            resource_type: ResourceType::Other,
        }
    }

    /// Attach the raw URL context that lets the filter-list backstop
    /// decide requests the hierarchy cannot settle.
    pub fn with_url(
        mut self,
        url: &'a str,
        source_hostname: &'a str,
        resource_type: ResourceType,
    ) -> Self {
        self.url = Some(url);
        self.source_hostname = source_hostname;
        self.resource_type = resource_type;
        self
    }

    /// The resolved key at `level` (the method-*name* key at
    /// [`Granularity::Method`]).
    #[inline]
    pub(crate) fn key(&self, level: Granularity) -> Option<ResourceKey> {
        match level {
            Granularity::Domain => self.domain,
            Granularity::Hostname => self.hostname,
            Granularity::Script => self.script,
            Granularity::Method => self.method,
        }
    }
}

/// What decided a [`Decision::Allow`] / [`Decision::Block`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionSource {
    /// The trained hierarchy settled the request at this granularity.
    Hierarchy(Granularity),
    /// The hierarchy could not settle it; the filter-list match decided.
    FilterList,
}

impl fmt::Display for DecisionSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecisionSource::Hierarchy(granularity) => {
                write!(f, "hierarchy at {granularity} level")
            }
            DecisionSource::FilterList => f.write_str("filter list"),
        }
    }
}

/// The action a blocker should take for one [`DecisionRequest`] — the one
/// blessed enforcement entry point, replacing ad-hoc composition of
/// [`Verdict::should_block`](crate::Verdict::should_block), the
/// filter engine, and surrogate generation.
///
/// ```
/// use trackersift_engine::{
///     Decision, DecisionRequest, DecisionSource, Granularity, ObservationRef, Sifter,
/// };
///
/// let mut sifter = Sifter::builder().build();
/// let row = ObservationRef::parts("ads.com", "px.ads.com", "https://pub.com/a.js", "send", true);
/// sifter.apply_batch([row; 5]);
/// sifter.commit();
///
/// let table = sifter.verdict_table();
///
/// let request = DecisionRequest::new("ads.com", "px.ads.com", "https://pub.com/a.js", "send");
/// assert_eq!(
///     table.decide(&request),
///     Decision::Block(DecisionSource::Hierarchy(Granularity::Domain))
/// );
/// // Nothing known and no URL to fall back on: observe.
/// assert_eq!(
///     table.decide(&DecisionRequest::new("zzz.com", "a.zzz.com", "s", "m")),
///     Decision::Observe
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Let the request through.
    Allow(DecisionSource),
    /// Block the request outright.
    Block(DecisionSource),
    /// The request is hierarchy-mixed and its URL carries tracking
    /// identifiers: load this rewritten URL instead of the original. The
    /// payload is shared (`Arc`) so cloning the decision is a pointer
    /// bump.
    ///
    /// ```
    /// use trackersift_engine::{Decision, DecisionRequest, ObservationRef, Sifter};
    /// use rewriter::RewriterBuilder;
    /// use filterlist::ResourceType;
    ///
    /// let mut sifter = Sifter::builder()
    ///     .rewriter(RewriterBuilder::new().default_rules().build())
    ///     .build();
    /// // Train hub.com to a *mixed* verdict at domain level.
    /// for tracking in [true, false] {
    ///     sifter.apply(ObservationRef::parts("hub.com", "w.hub.com", "s.js", "m", tracking));
    /// }
    /// sifter.commit();
    ///
    /// let request = DecisionRequest::new("hub.com", "new.hub.com", "s2.js", "m")
    ///     .with_url("https://new.hub.com/api?id=7&gclid=abc", "pub.com", ResourceType::Xhr);
    /// match sifter.verdict_table().decide(&request) {
    ///     Decision::Rewrite(rewritten) => {
    ///         assert_eq!(rewritten.url(), "https://new.hub.com/api?id=7");
    ///     }
    ///     other => panic!("expected a rewrite, got {other}"),
    /// }
    /// ```
    Rewrite(Arc<RewrittenUrl>),
    /// The request is settled at a mixed script: serve this surrogate in
    /// place of the script (functional methods kept, tracking methods
    /// stubbed, mixed methods guarded). The plan is shared (`Arc`) with
    /// the sifter's cache, so serving a surrogate decision is a pointer
    /// bump, not a deep copy of the plan.
    Surrogate(Arc<SurrogateScript>),
    /// No source of truth could settle the request: let it through and
    /// keep observing.
    Observe,
}

impl Decision {
    /// The source that settled an allow/block, if this is one.
    pub fn source(&self) -> Option<DecisionSource> {
        match self {
            Decision::Allow(source) | Decision::Block(source) => Some(*source),
            Decision::Surrogate(_) | Decision::Rewrite(_) | Decision::Observe => None,
        }
    }

    /// The surrogate payload, when the decision carries one.
    pub fn surrogate(&self) -> Option<&SurrogateScript> {
        match self {
            Decision::Surrogate(script) => Some(script.as_ref()),
            _ => None,
        }
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Allow(source) => write!(f, "allow ({source})"),
            Decision::Block(source) => write!(f, "block ({source})"),
            Decision::Surrogate(script) => {
                write!(
                    f,
                    "surrogate for {} ({} kept / {} stubbed / {} guarded)",
                    script.script_url,
                    script.kept(),
                    script.stubbed(),
                    script.guarded()
                )
            }
            Decision::Rewrite(rewritten) => write!(f, "rewrite to {}", rewritten.url()),
            Decision::Observe => f.write_str("observe"),
        }
    }
}

/// The outcome of the decision policy before the surrogate payload is
/// materialised: either a fixed (non-surrogate) decision, or "serve this
/// script's surrogate" with whatever representation `plan_for` produced —
/// an `Arc<SurrogateScript>` on the decode path, a preformatted response
/// frame on the serving hot path.
pub(crate) enum Resolved<T> {
    /// A decision carrying no payload (never [`Decision::Surrogate`] or
    /// [`Decision::Rewrite`]).
    Fixed(Decision),
    /// Load this rewritten URL instead of the original.
    Rewrite(Arc<RewrittenUrl>),
    /// Serve the surrogate this plan stands for.
    Surrogate(T),
}

/// The decision policy over a hierarchy verdict: tracking → block,
/// functional → allow, mixed at script/method with a plan → surrogate,
/// hierarchy-mixed with a URL that rewrites → rewrite, everything else →
/// backstop.
///
/// `rewrite` is only consulted for *mixed* verdicts — an unknown resource
/// has produced no evidence of mixed behaviour, so it goes straight to the
/// backstop (which may still block it outright).
fn policy_of<T>(
    verdict: Verdict,
    plan: impl FnOnce() -> Option<T>,
    rewrite: impl FnOnce() -> Option<Arc<RewrittenUrl>>,
    backstop: impl FnOnce() -> Decision,
) -> Resolved<T> {
    match verdict {
        Verdict::Decided {
            classification: Classification::Tracking,
            granularity,
        } => Resolved::Fixed(Decision::Block(DecisionSource::Hierarchy(granularity))),
        Verdict::Decided {
            classification: Classification::Functional,
            granularity,
        } => Resolved::Fixed(Decision::Allow(DecisionSource::Hierarchy(granularity))),
        Verdict::Decided {
            classification: Classification::Mixed,
            granularity: Granularity::Script | Granularity::Method,
        } => match plan() {
            Some(plan) => Resolved::Surrogate(plan),
            None => match rewrite() {
                Some(rewritten) => Resolved::Rewrite(rewritten),
                None => Resolved::Fixed(backstop()),
            },
        },
        Verdict::Decided {
            classification: Classification::Mixed,
            granularity: Granularity::Domain | Granularity::Hostname,
        } => match rewrite() {
            Some(rewritten) => Resolved::Rewrite(rewritten),
            None => Resolved::Fixed(backstop()),
        },
        Verdict::Unknown => Resolved::Fixed(backstop()),
    }
}

impl From<Resolved<Arc<SurrogateScript>>> for Decision {
    fn from(resolved: Resolved<Arc<SurrogateScript>>) -> Self {
        match resolved {
            Resolved::Fixed(decision) => decision,
            Resolved::Rewrite(rewritten) => Decision::Rewrite(rewritten),
            Resolved::Surrogate(plan) => Decision::Surrogate(plan),
        }
    }
}

/// The one entry into the decision policy: walk the hierarchy over
/// pre-resolved keys, then apply [`policy_of`]. Generic over the plan
/// representation so the serving hot path can return preformatted response
/// frames instead of cloning an `Arc<SurrogateScript>`. `plan_for` resolves
/// a mixed script's surrogate; `None` (script committed mixed but with no
/// member methods) falls through to rewrite and backstop. Inlined into
/// each serving entry point, so a decision pays no call for the policy.
#[inline]
pub(crate) fn decide_with<T>(
    keys: &FrozenKeys,
    classes: &ClassTable,
    engine: Option<&FilterEngine>,
    rewriter: Option<&UrlRewriter>,
    plan_for: impl FnOnce(ResourceKey) -> Option<T>,
    request: &KeyedRequest<'_>,
) -> Resolved<T> {
    policy_of(
        verdict_walk(keys, classes, |level| request.key(level)),
        || request.script.and_then(plan_for),
        || rewrite_of(rewriter, request.url),
        || {
            filter_backstop(
                engine,
                request.url,
                request.source_hostname,
                request.resource_type,
            )
        },
    )
}

/// The rewrite arm's evidence test: a configured rewriter, a carried URL,
/// and the URL actually changing. `None` (the common case) costs no
/// allocation — the rewriter's token-hash prescreen rejects clean URLs
/// before parsing anything.
fn rewrite_of(rewriter: Option<&UrlRewriter>, url: Option<&str>) -> Option<Arc<RewrittenUrl>> {
    match (rewriter, url) {
        (Some(rewriter), Some(url)) => rewriter.rewrite(url).map(Arc::new),
        _ => None,
    }
}

/// The filter-list backstop for hierarchy-unsettled requests: block on a
/// tracking match, allow otherwise, observe when it cannot run.
fn filter_backstop(
    engine: Option<&FilterEngine>,
    url: Option<&str>,
    source_hostname: &str,
    resource_type: ResourceType,
) -> Decision {
    match (engine, url) {
        (Some(engine), Some(url)) => match engine.label_url(url, source_hostname, resource_type) {
            RequestLabel::Tracking => Decision::Block(DecisionSource::FilterList),
            RequestLabel::Functional => Decision::Allow(DecisionSource::FilterList),
        },
        _ => Decision::Observe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ObservationRef, Sifter};
    use crate::surrogate::MethodAction;
    use filterlist::ListKind;

    /// Figure-1-shaped training set plus a mixed script whose methods span
    /// all three classifications, so every decision arm is reachable.
    fn trained() -> Sifter {
        let mut sifter = Sifter::builder()
            .filter_lists(&[(ListKind::EasyList, "||blocked.example^\n")])
            .build();
        // Pure tracking domain.
        for _ in 0..5 {
            sifter.apply(ObservationRef::parts(
                "ads.com",
                "px.ads.com",
                "https://pub.com/a.js",
                "send",
                true,
            ));
        }
        // Pure functional domain.
        for _ in 0..5 {
            sifter.apply(ObservationRef::parts(
                "cdn.com",
                "a.cdn.com",
                "https://pub.com/ui.js",
                "load",
                false,
            ));
        }
        // Mixed domain -> mixed hostname -> mixed script with a tracking, a
        // functional, and a mixed method.
        for _ in 0..6 {
            sifter.apply(ObservationRef::parts(
                "hub.com",
                "w.hub.com",
                "https://pub.com/mixed.js",
                "track",
                true,
            ));
            sifter.apply(ObservationRef::parts(
                "hub.com",
                "w.hub.com",
                "https://pub.com/mixed.js",
                "render",
                false,
            ));
        }
        for flag in [true, false, true, false] {
            sifter.apply(ObservationRef::parts(
                "hub.com",
                "w.hub.com",
                "https://pub.com/mixed.js",
                "dispatch",
                flag,
            ));
        }
        sifter.commit();
        sifter
    }

    #[test]
    fn tracking_and_functional_verdicts_map_to_block_and_allow() {
        let table = trained().verdict_table();
        assert_eq!(
            table.decide(&DecisionRequest::new(
                "ads.com",
                "px.ads.com",
                "https://pub.com/a.js",
                "send"
            )),
            Decision::Block(DecisionSource::Hierarchy(Granularity::Domain))
        );
        assert_eq!(
            table.decide(&DecisionRequest::new(
                "cdn.com",
                "a.cdn.com",
                "https://pub.com/ui.js",
                "load"
            )),
            Decision::Allow(DecisionSource::Hierarchy(Granularity::Domain))
        );
    }

    #[test]
    fn mixed_scripts_get_a_surrogate_with_per_method_actions() {
        let table = trained().verdict_table();
        let decision = table.decide(&DecisionRequest::new(
            "hub.com",
            "w.hub.com",
            "https://pub.com/mixed.js",
            "dispatch",
        ));
        let plan = decision.surrogate().expect("mixed script yields surrogate");
        assert_eq!(plan.script_url, "https://pub.com/mixed.js");
        let action = |name: &str| {
            plan.methods
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, a)| a.clone())
                .unwrap_or_else(|| panic!("method {name} missing from {:?}", plan.methods))
        };
        assert_eq!(action("track"), MethodAction::Stub);
        assert_eq!(action("render"), MethodAction::Keep);
        assert!(matches!(action("dispatch"), MethodAction::Guard { .. }));
        // Methods are sorted by name — the canonical payload order.
        let names: Vec<&str> = plan.methods.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert!(plan.suppressed_tracking_requests >= 6);
        assert!(plan.preserved_functional_requests >= 6);
    }

    #[test]
    fn unsettled_requests_fall_back_to_the_filter_list_or_observe() {
        let table = trained().verdict_table();
        // Unknown domain, no URL: observe.
        let keys_only = DecisionRequest::new("zzz.com", "a.zzz.com", "s.js", "m");
        assert_eq!(table.decide(&keys_only), Decision::Observe);
        // Unknown domain, URL matching the list: block via the backstop.
        assert_eq!(
            table.decide(&keys_only.with_url(
                "https://px.blocked.example/p.gif",
                "pub.com",
                ResourceType::Image
            )),
            Decision::Block(DecisionSource::FilterList)
        );
        // Unknown domain, URL not matching: allow via the backstop.
        assert_eq!(
            table.decide(&keys_only.with_url(
                "https://static.fine.example/app.css",
                "pub.com",
                ResourceType::Stylesheet
            )),
            Decision::Allow(DecisionSource::FilterList)
        );
    }

    #[test]
    fn mixed_at_coarse_granularity_uses_the_backstop_not_a_surrogate() {
        let table = trained().verdict_table();
        // Known-mixed domain, never-seen hostname: mixed at domain level.
        let request = DecisionRequest::new("hub.com", "new.hub.com", "s.js", "m").with_url(
            "https://new.hub.com/x",
            "pub.com",
            ResourceType::Xhr,
        );
        assert_eq!(
            table.decide(&request),
            Decision::Allow(DecisionSource::FilterList)
        );
    }

    /// `trained()` plus a default-rules URL rewriter.
    fn trained_with_rewriter() -> Sifter {
        let snapshot = trained().snapshot();
        Sifter::builder()
            .filter_lists(&[(ListKind::EasyList, "||blocked.example^\n")])
            .rewriter(rewriter::RewriterBuilder::new().default_rules().build())
            .restore(&snapshot)
            .expect("snapshot round-trips")
    }

    #[test]
    fn mixed_requests_with_identifier_urls_are_rewritten() {
        let table = trained_with_rewriter().verdict_table();
        // Known-mixed domain, never-seen hostname: mixed at domain level.
        let keys = DecisionRequest::new("hub.com", "new.hub.com", "s.js", "m");
        let tracking_url = keys.with_url(
            "https://new.hub.com/x?id=1&utm_source=feed&gclid=z",
            "pub.com",
            ResourceType::Xhr,
        );
        match table.decide(&tracking_url) {
            Decision::Rewrite(rewritten) => {
                assert_eq!(rewritten.url(), "https://new.hub.com/x?id=1");
            }
            other => panic!("expected rewrite, got {other}"),
        }
        // Same hierarchy position, clean URL: falls through to the backstop.
        let clean_url = keys.with_url("https://new.hub.com/x?id=1", "pub.com", ResourceType::Xhr);
        assert_eq!(
            table.decide(&clean_url),
            Decision::Allow(DecisionSource::FilterList)
        );
    }

    #[test]
    fn surrogates_take_precedence_over_rewrites_for_mixed_scripts() {
        let table = trained_with_rewriter().verdict_table();
        let request = DecisionRequest::new(
            "hub.com",
            "w.hub.com",
            "https://pub.com/mixed.js",
            "dispatch",
        )
        .with_url(
            "https://w.hub.com/beacon?gclid=abc",
            "pub.com",
            ResourceType::Script,
        );
        // The mixed script has a surrogate plan; the identifier-carrying
        // URL must not demote it to a rewrite.
        assert!(table.decide(&request).surrogate().is_some());
    }

    #[test]
    fn settled_verdicts_are_never_rewritten() {
        let table = trained_with_rewriter().verdict_table();
        // Tracking domain with an identifier URL: still a block.
        let request = DecisionRequest::new("ads.com", "px.ads.com", "https://pub.com/a.js", "send")
            .with_url(
                "https://px.ads.com/p?gclid=abc",
                "pub.com",
                ResourceType::Image,
            );
        assert_eq!(
            table.decide(&request),
            Decision::Block(DecisionSource::Hierarchy(Granularity::Domain))
        );
        // Unknown resource with an identifier URL: backstop, not rewrite —
        // there is no mixed evidence to justify modifying the request.
        let unknown = DecisionRequest::new("zzz.com", "a.zzz.com", "s.js", "m").with_url(
            "https://a.zzz.com/x?utm_source=feed",
            "pub.com",
            ResourceType::Xhr,
        );
        assert_eq!(
            table.decide(&unknown),
            Decision::Allow(DecisionSource::FilterList)
        );
    }

    #[test]
    fn decisions_without_an_engine_observe_instead_of_guessing() {
        let mut sifter = Sifter::builder().build();
        sifter.apply(ObservationRef::parts("a.com", "h.a.com", "s.js", "m", true));
        sifter.apply(ObservationRef::parts(
            "a.com", "h.a.com", "s.js", "m", false,
        ));
        sifter.commit();
        // Mixed at hostname level (single hostname, mixed), no engine: even
        // with a URL there is nothing to match against.
        let request = DecisionRequest::new("a.com", "h.a.com", "other.js", "m").with_url(
            "https://h.a.com/x",
            "pub.com",
            ResourceType::Xhr,
        );
        assert_eq!(sifter.verdict_table().decide(&request), Decision::Observe);
    }

    #[test]
    fn decision_display_is_human_readable() {
        let table = trained().verdict_table();
        let block = table.decide(&DecisionRequest::new(
            "ads.com",
            "px.ads.com",
            "https://pub.com/a.js",
            "send",
        ));
        assert_eq!(block.to_string(), "block (hierarchy at Domain level)");
        assert_eq!(Decision::Observe.to_string(), "observe");
        let surrogate = table.decide(&DecisionRequest::new(
            "hub.com",
            "w.hub.com",
            "https://pub.com/mixed.js",
            "dispatch",
        ));
        assert!(surrogate.to_string().starts_with("surrogate for"));
        let rewrite = Decision::Rewrite(Arc::new(RewrittenUrl::new("https://a.example/x?id=1")));
        assert_eq!(rewrite.to_string(), "rewrite to https://a.example/x?id=1");
    }
}
