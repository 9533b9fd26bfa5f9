//! Request labeling (paper §3, "Labeling").
//!
//! Every *script-initiated* request captured by the crawler is matched
//! against EasyList + EasyPrivacy: a match means **tracking**, otherwise
//! **functional**. Requests that are not script-initiated (parser-initiated
//! images, stylesheets, the document itself) are excluded from the analysis,
//! exactly as the paper does. The call stack is preserved — the initiator
//! script and method at the top of the stack drive the script- and
//! method-level granularities, and the full ancestry feeds the call-stack
//! analysis of Figure 5.
//!
//! The capture path, end to end: a `websim` site is loaded by
//! [`crawler::PageLoadSimulator`] into a vector of [`crawler::RequestWillBeSent`]
//! records, [`SiteCrawl::from_load`] takes that vector by move, and
//! [`Labeler`] turns each script-initiated record into one
//! [`LabeledRequest`] through the engine's [`label_url`] — the single
//! place that builds the request view, asks the oracle, and reads the
//! hostname and registrable domain off the view.
//! [`Sifter::apply`](crate::Sifter::apply) calls the same
//! function for a raw-URL row, so the batch and the serving side cannot
//! label one request two ways. The labeler keeps one [`RequestScratch`]
//! per site.
//!
//! A labeled request copies no string and no stack either. The crawl
//! allocated every string once per page load — the page URL, each script
//! URL, each method name, each request URL — as an `Arc<str>`, and each
//! call site's stack once as an `Arc<[StackFrame]>`; [`LabeledRequest`]
//! points at those same allocations. The two derived keys, hostname and
//! registrable domain, are allocated once per distinct hostname per site and
//! shared by that site's requests; the site's own domain once per site.
//! [`Labeler::label_database`] writes every row into one vector sized up
//! front, so a labeled request costs no allocation of its own.
//!
//! The batch side memoizes nothing: the oracle key is `(url, page host,
//! type)` and every site has its own host, so no key repeats within one
//! crawl, and the batch label cache that used to sit in front of
//! [`Labeler`] answered 0 of 246,164 lookups on the corpora in this tree.
//! The reuse is across crawls instead: a serving writer re-crawling the
//! same web labels its raw-URL rows through the engine's label memo, which
//! [`Sifter::apply`](crate::Sifter::apply) keeps per commit interval. The
//! [`Labeler`] and the decision backstop never consult it.

use crawler::{CrawlDatabase, SiteCrawl, StackFrame};
use filterlist::{hostname_of, FilterEngine, RequestLabel, RequestScratch, ResourceType};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use trackersift_engine::{label_url, DecisionRequest, ObservationRef};

/// A script-initiated request with its oracle label and attribution keys.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledRequest {
    /// Unique request id from the crawl.
    pub request_id: u64,
    /// URL of the page that issued the request.
    pub top_level_url: Arc<str>,
    /// Registrable domain of the page.
    pub site_domain: Arc<str>,
    /// The request URL.
    pub url: Arc<str>,
    /// Registrable domain (eTLD+1) of the request URL.
    pub domain: Arc<str>,
    /// Hostname of the request URL.
    pub hostname: Arc<str>,
    /// Resource type.
    pub resource_type: ResourceType,
    /// URL of the script that initiated the request (innermost stack frame).
    pub initiator_script: Arc<str>,
    /// Name of the method that initiated the request (innermost frame).
    pub initiator_method: Arc<str>,
    /// The full stack, innermost first: the crawl record's own frames,
    /// shared with every request of the same call site.
    pub stack: Arc<[StackFrame]>,
    /// Index of the first asynchronous-parent frame, if any.
    pub async_boundary: Option<usize>,
    /// The oracle label.
    pub label: RequestLabel,
}

impl LabeledRequest {
    /// `true` when the oracle labeled this request tracking.
    pub(crate) fn is_tracking(&self) -> bool {
        self.label.is_tracking()
    }
}

/// A request the labeling stage produced, observed under its oracle label.
impl<'a> From<&'a LabeledRequest> for ObservationRef<'a> {
    fn from(request: &'a LabeledRequest) -> Self {
        ObservationRef::parts(
            &request.domain,
            &request.hostname,
            &request.initiator_script,
            &request.initiator_method,
            request.is_tracking(),
        )
    }
}

/// The query for a labeled request's attribution keys, URL included.
/// The backstop's source hostname is the *page* hostname — derived from
/// `top_level_url` by the same [`hostname_of`] the labeler matched
/// `$domain=` filter options and party-ness against, so it is `""`
/// wherever the labeler passed `""` (a page URL with no authority).
/// Borrowed in the URL's own case; the filter request lower-cases its
/// source hostname itself.
impl<'a> From<&'a LabeledRequest> for DecisionRequest<'a> {
    fn from(request: &'a LabeledRequest) -> Self {
        let source = hostname_of(&request.top_level_url);
        DecisionRequest::new(
            &request.domain,
            &request.hostname,
            &request.initiator_script,
            &request.initiator_method,
        )
        .with_url(&request.url, source, request.resource_type)
    }
}

/// Statistics from labeling a crawl.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabelStats {
    /// Requests seen in the crawl database (script-initiated or not).
    pub(crate) total_requests: usize,
    /// Requests excluded because no script initiated them.
    pub excluded_non_script: usize,
    /// Requests excluded because their URL could not be parsed.
    pub(crate) excluded_unparseable: usize,
    /// Script-initiated requests labeled tracking.
    pub tracking: usize,
    /// Script-initiated requests labeled functional.
    pub functional: usize,
}

impl LabelStats {
    /// Labeled (kept) requests.
    pub fn labeled(&self) -> usize {
        self.tracking + self.functional
    }

    /// Merge another site's statistics into this one (used when labeling
    /// sites in parallel).
    pub(crate) fn merge(&mut self, other: LabelStats) {
        self.total_requests += other.total_requests;
        self.excluded_non_script += other.excluded_non_script;
        self.excluded_unparseable += other.excluded_unparseable;
        self.tracking += other.tracking;
        self.functional += other.functional;
    }
}

/// Oracle-evaluation counters of a [`Labeler`].
///
/// The name and the `hits` field are vestigial: the labeler once sat behind
/// a memo cache, which is gone because it never hit, and the benchmark
/// harness is pinned to this shape (`misses`, [`CacheStats::hit_rate`]).
/// `misses` counts oracle evaluations — one per script-initiated request,
/// unparseable URLs included — and `hits` is always 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Always 0: nothing is answered from a cache.
    pub(crate) hits: u64,
    /// Oracle evaluations.
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups.
    pub(crate) fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from a cache: 0 by construction.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// The labeler: pairs a crawl database with a filter engine.
#[derive(Debug)]
pub struct Labeler<'a> {
    engine: &'a FilterEngine,
    evaluations: AtomicU64,
}

impl<'a> Labeler<'a> {
    /// Create a labeler over a filter engine.
    pub fn new(engine: &'a FilterEngine) -> Self {
        Labeler {
            engine,
            evaluations: AtomicU64::new(0),
        }
    }

    /// Oracle evaluations so far (see [`CacheStats`]) — reported by
    /// benchmarks, not part of label output.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: 0,
            misses: self.evaluations.load(Ordering::Relaxed),
        }
    }

    /// Label every request of one crawled site. The labeled requests point
    /// at the crawl records' strings and stacks; see the [module
    /// docs](self) for the few this allocates.
    fn label_site(&self, site: &SiteCrawl) -> (Vec<LabeledRequest>, LabelStats) {
        let mut out = Vec::with_capacity(site.requests.len());
        let stats = self.label_site_into(site, &mut out);
        (out, stats)
    }

    /// [`Labeler::label_site`], appending to `out`.
    fn label_site_into(&self, site: &SiteCrawl, out: &mut Vec<LabeledRequest>) -> LabelStats {
        let mut stats = LabelStats::default();
        let mut scratch = RequestScratch::new();
        let site_domain: Arc<str> = Arc::from(site.site_domain.as_str());
        // The `(hostname, domain)` pairs this site's requests have derived
        // so far. A page talks to a few dozen hosts: a scan beats a map, and
        // most rows repeat the previous row's host, so that one is tried
        // first.
        let mut hosts: Vec<(Arc<str>, Arc<str>)> = Vec::new();
        let mut last_host = 0;
        // Requests of one site overwhelmingly share their top-level URL; a
        // one-entry memo avoids re-parsing it per request.
        let mut page_host_memo: Option<(&str, &str)> = None;
        for request in &site.requests {
            stats.total_requests += 1;
            let Some(frame) = request.call_stack.initiator_frame() else {
                stats.excluded_non_script += 1;
                continue;
            };
            let page_host = match page_host_memo {
                Some((top, host)) if *top == *request.top_level_url => host,
                _ => {
                    let host = hostname_of(&request.top_level_url);
                    page_host_memo = Some((&request.top_level_url, host));
                    host
                }
            };
            let Some((label, hostname, domain)) = label_url(
                self.engine,
                &mut scratch,
                &request.url,
                page_host,
                request.resource_type,
            ) else {
                stats.excluded_unparseable += 1;
                continue;
            };
            let hit = |(known, _): &(Arc<str>, Arc<str>)| **known == *hostname;
            if !hosts.get(last_host).is_some_and(hit) {
                last_host = match hosts.iter().position(hit) {
                    Some(known) => known,
                    None => {
                        // Hostnames of one domain share the domain's copy too.
                        let domain = match hosts.iter().find(|(_, known)| **known == *domain) {
                            Some((_, known)) => Arc::clone(known),
                            None => Arc::from(domain),
                        };
                        hosts.push((Arc::from(hostname), domain));
                        hosts.len() - 1
                    }
                };
            }
            let (hostname, domain) = hosts[last_host].clone();
            if label.is_tracking() {
                stats.tracking += 1;
            } else {
                stats.functional += 1;
            }
            out.push(LabeledRequest {
                request_id: request.request_id,
                top_level_url: Arc::clone(&request.top_level_url),
                site_domain: Arc::clone(&site_domain),
                url: Arc::clone(&request.url),
                domain,
                hostname,
                resource_type: request.resource_type,
                initiator_script: Arc::clone(&frame.script_url),
                initiator_method: Arc::clone(&frame.function_name),
                stack: Arc::clone(&request.call_stack.frames),
                async_boundary: request.call_stack.async_boundary,
                label,
            });
        }
        // One oracle evaluation per script-initiated request, counted once
        // per site: workers labeling in parallel share this counter.
        let evaluations = stats.labeled() + stats.excluded_unparseable;
        self.evaluations
            .fetch_add(evaluations as u64, Ordering::Relaxed);
        stats
    }

    /// Label every script-initiated request in a crawl database,
    /// sequentially, into one vector sized for the whole crawl.
    pub fn label_database(&self, db: &CrawlDatabase) -> (Vec<LabeledRequest>, LabelStats) {
        let mut stats = LabelStats::default();
        let mut out = Vec::with_capacity(db.script_initiated_requests());
        for site in &db.sites {
            stats.merge(self.label_site_into(site, &mut out));
        }
        (out, stats)
    }

    /// Label every script-initiated request in parallel across sites on a
    /// pool of [`crawler::workers_for`]`(workers, sites)` threads (so 0 or 1
    /// is sequential). Sites are labeled independently — the filter engine is
    /// shared read-only across workers (`FilterEngine: Sync`) — and results
    /// are merged in site order, so the output is identical to
    /// [`Labeler::label_database`] regardless of worker count.
    pub fn label_database_parallel(
        &self,
        db: &CrawlDatabase,
        workers: usize,
    ) -> (Vec<LabeledRequest>, LabelStats) {
        let workers = crawler::workers_for(workers, db.sites.len());
        if workers == 1 {
            return self.label_database(db);
        }
        let per_site = crawler::par_map(&db.sites, workers, |site| self.label_site(site));
        let mut stats = LabelStats::default();
        let mut out = Vec::with_capacity(db.script_initiated_requests());
        for (requests, site_stats) in per_site {
            out.extend(requests);
            stats.merge(site_stats);
        }
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crawler::{ClusterConfig, CrawlCluster};
    use websim::{filter_rules, CorpusGenerator, CorpusProfile, Purpose};

    fn setup() -> (websim::WebCorpus, CrawlDatabase, FilterEngine) {
        let corpus = CorpusGenerator::generate(&CorpusProfile::small().with_sites(60), 2021);
        let db = CrawlCluster::new(ClusterConfig::default()).crawl(&corpus);
        let engine = filter_rules::engine_for(&corpus.ecosystem);
        (corpus, db, engine)
    }

    #[test]
    fn non_script_requests_are_excluded() {
        let (_corpus, db, engine) = setup();
        let labeler = Labeler::new(&engine);
        let (requests, stats) = labeler.label_database(&db);
        assert_eq!(stats.labeled(), requests.len());
        assert!(
            stats.excluded_non_script > 0,
            "document requests must be excluded"
        );
        assert_eq!(stats.total_requests, db.total_requests());
        assert_eq!(
            stats.labeled() + stats.excluded_non_script + stats.excluded_unparseable,
            stats.total_requests
        );
    }

    #[test]
    fn labels_mostly_agree_with_ground_truth_intent() {
        // The oracle is the filter list, not the generator's intent, but the
        // two must agree strongly or the corpus would be meaningless.
        let (corpus, db, engine) = setup();
        let labeler = Labeler::new(&engine);
        let (requests, _) = labeler.label_database(&db);

        // Map url -> intent from the corpus ground truth.
        let mut intents = std::collections::HashMap::new();
        for site in &corpus.websites {
            for script in &site.scripts {
                for (_, planned) in script.planned_requests() {
                    intents.insert(planned.url.clone(), planned.intent);
                }
            }
        }
        let mut agree = 0usize;
        let mut total = 0usize;
        for request in &requests {
            if let Some(intent) = intents.get(&*request.url) {
                total += 1;
                let expected_tracking = *intent == Purpose::Tracking;
                if expected_tracking == request.is_tracking() {
                    agree += 1;
                }
            }
        }
        assert!(total > 500, "expected many script requests, got {total}");
        let rate = agree as f64 / total as f64;
        assert!(rate > 0.97, "oracle/intent agreement too low: {rate:.3}");
    }

    #[test]
    fn attribution_keys_are_populated() {
        let (_corpus, db, engine) = setup();
        let labeler = Labeler::new(&engine);
        let (requests, _) = labeler.label_database(&db);
        for r in &requests {
            assert!(!r.domain.is_empty(), "{}", r.url);
            assert!(!r.hostname.is_empty(), "{}", r.url);
            assert!(!r.initiator_script.is_empty());
            assert!(!r.stack.is_empty());
            assert_eq!(r.stack[0].script_url, r.initiator_script);
            assert_eq!(r.stack[0].function_name, r.initiator_method);
        }
    }

    #[test]
    fn labeled_requests_point_at_the_crawl_records_strings() {
        let (_corpus, db, engine) = setup();
        let labeler = Labeler::new(&engine);
        for site in &db.sites {
            let (labeled, _) = labeler.label_site(site);
            let mut records = site.script_initiated();
            for request in &labeled {
                let record = records
                    .find(|record| record.request_id == request.request_id)
                    .expect("labeled requests keep the crawl's order");
                let frame = record
                    .call_stack
                    .initiator_frame()
                    .expect("script-initiated");
                assert!(Arc::ptr_eq(&request.url, &record.url));
                assert!(Arc::ptr_eq(&request.top_level_url, &record.top_level_url));
                assert!(Arc::ptr_eq(&request.initiator_script, &frame.script_url));
                assert!(Arc::ptr_eq(&request.initiator_method, &frame.function_name));
                assert!(Arc::ptr_eq(&request.stack, &record.call_stack.frames));
                for (labeled, crawled) in request.stack.iter().zip(record.call_stack.frames.iter())
                {
                    assert!(Arc::ptr_eq(&labeled.script_url, &crawled.script_url));
                    assert!(Arc::ptr_eq(&labeled.function_name, &crawled.function_name));
                }
                // The derived keys and the site's domain exist once per site.
                assert!(Arc::ptr_eq(&request.site_domain, &labeled[0].site_domain));
                for other in &labeled {
                    if other.hostname == request.hostname {
                        assert!(Arc::ptr_eq(&other.hostname, &request.hostname));
                    }
                    if other.domain == request.domain {
                        assert!(Arc::ptr_eq(&other.domain, &request.domain));
                    }
                }
            }
        }
    }

    #[test]
    fn relabeling_is_byte_identical_and_stateless() {
        let (_corpus, db, engine) = setup();
        let labeler = Labeler::new(&engine);
        let (first, first_stats) = labeler.label_database(&db);
        let per_pass = labeler.cache_stats().misses;
        assert_eq!(
            per_pass,
            (first_stats.labeled() + first_stats.excluded_unparseable) as u64
        );

        // Nothing is remembered between passes: a second sequential pass and
        // a 4-worker pass produce the same bytes and evaluate the oracle
        // exactly as often as the first.
        let (second, second_stats) = labeler.label_database(&db);
        assert_eq!(first, second);
        assert_eq!(first_stats, second_stats);
        assert_eq!(labeler.cache_stats().misses, 2 * per_pass);

        let (parallel, parallel_stats) = labeler.label_database_parallel(&db, 4);
        assert_eq!(first, parallel);
        assert_eq!(first_stats, parallel_stats);
        assert_eq!(labeler.cache_stats().misses, 3 * per_pass);
        assert_eq!(labeler.cache_stats().hits, 0);
    }

    #[test]
    fn both_labels_are_present_in_volume() {
        let (_corpus, db, engine) = setup();
        let labeler = Labeler::new(&engine);
        let (_, stats) = labeler.label_database(&db);
        assert!(stats.tracking > 100, "{stats:?}");
        assert!(stats.functional > 100, "{stats:?}");
    }

    #[test]
    fn from_labeled_carries_the_url_context() {
        let mut requests = crate::testutil::figure1_requests();
        let request = DecisionRequest::from_labeled(&requests[0]);
        assert!(request.url.is_some());
        assert_eq!(request.domain, &*requests[0].domain);
        // The backstop source is the *page hostname* exactly as the labeler
        // derived it (what `$domain=` options and party-ness matched at
        // labeling time) — never the registrable domain, and `""` where the
        // labeler passed `""`.
        for page in [
            "https://www.pub.com/",
            "https://[::1]:8080/",
            "//cdn.pub.com/x",
            "https:///path-only",
            "not a url",
            "HTTPS://WWW.PUB.COM:443/",
            "https://user:pw@www.pub.com/",
        ] {
            requests[0].top_level_url = page.into();
            let labeler_page_host = filterlist::ParsedUrl::parse(page)
                .map(|u| u.hostname)
                .unwrap_or_default();
            assert!(
                DecisionRequest::from_labeled(&requests[0])
                    .source_hostname
                    .eq_ignore_ascii_case(&labeler_page_host),
                "for {page:?}"
            );
        }
    }

    #[test]
    fn page_host_extracts_the_authority_hostname() {
        assert_eq!(hostname_of("https://www.pub.com/a/b?c"), "www.pub.com");
        assert_eq!(hostname_of("http://user@shop.com:8080/x"), "shop.com");
        assert_eq!(hostname_of("https://HOST.example"), "HOST.example");
        assert_eq!(hostname_of("not a url"), "");
        assert_eq!(hostname_of("https:///path-only"), "");
        assert_eq!(hostname_of("https://[::1]:8080/"), "[::1]");
        assert_eq!(hostname_of("//cdn.pub.com/x"), "cdn.pub.com");
        assert_eq!(hostname_of("HTTPS://WWW.PUB.COM:443/"), "WWW.PUB.COM");
        assert_eq!(hostname_of("https://user:pw@www.pub.com/"), "www.pub.com");
    }
}
