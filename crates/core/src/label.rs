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
//! label one request two ways. One run of sites — the whole crawl, or one
//! worker's contiguous chunk of it — shares one [`RequestScratch`].
//!
//! A labeled request copies no string and no stack either. The crawl
//! wrote every string of a page load — the page URL, each script URL, each
//! method name, each request URL — into the load's one text buffer, and
//! each call site's stack once into the load's one frame buffer: five
//! allocations a load, 2,539 for the 500-site study crawl. A
//! [`LabeledRequest`] holds spans of those same buffers ([`Text`],
//! [`CallStack`]). The two derived keys are allocated
//! once per run: each distinct hostname once, each registrable domain once,
//! shared by every request of the run. A run writes its rows into one
//! vector sized up front, so the 500-site study crawl (23,296 rows, 741
//! hostnames, 668 domains) labels with 1,441 allocations, where a scratch
//! and host keys per site made 20,108.
//!
//! The batch side memoizes nothing: the oracle key is `(url, page host,
//! type)` and every site has its own host, so no key repeats within one
//! crawl, and the batch label cache that used to sit in front of
//! [`Labeler`] answered 0 of 246,164 lookups on the corpora in this tree.
//! The reuse is across crawls instead: a serving writer re-crawling the
//! same web labels its raw-URL rows through the engine's label memo, which
//! [`Sifter::apply`](crate::Sifter::apply) keeps per commit interval. The
//! [`Labeler`] and the decision backstop never consult it.

use crawler::{CallStack, CrawlDatabase, SiteCrawl, Text};
use filterlist::tokens::TokenHashBuilder;
use filterlist::{hostname_of, FilterEngine, RequestLabel, RequestScratch, ResourceType};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use trackersift_engine::{label_url, DecisionRequest, ObservationRef};

/// A script-initiated request with its oracle label and attribution keys.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledRequest {
    /// Unique request id from the crawl.
    pub request_id: u64,
    /// URL of the page that issued the request.
    pub top_level_url: Text,
    /// The request URL.
    pub url: Text,
    /// Registrable domain (eTLD+1) of the request URL.
    pub domain: Arc<str>,
    /// Hostname of the request URL.
    pub hostname: Arc<str>,
    /// Resource type.
    pub resource_type: ResourceType,
    /// URL of the script that initiated the request (innermost stack frame).
    pub initiator_script: Text,
    /// Name of the method that initiated the request (innermost frame).
    pub initiator_method: Text,
    /// The full stack, innermost first: the crawl record's own frames,
    /// shared with every request of the same call site.
    pub stack: CallStack,
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

    /// Merge another run's statistics into this one (used when labeling
    /// chunks of sites in parallel).
    pub(crate) fn merge(&mut self, other: LabelStats) {
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

    /// Label every request of a run of sites, in site order, with one
    /// scratch and one host-key table for the whole run, into one vector
    /// sized for the run. The labeled requests point at the crawl records'
    /// strings and stacks; see the [module docs](self) for the few this
    /// allocates.
    fn label_sites(&self, sites: &[SiteCrawl]) -> (Vec<LabeledRequest>, LabelStats) {
        let mut out = Vec::with_capacity(sites.iter().map(|s| s.script_initiated().count()).sum());
        let mut stats = LabelStats::default();
        let mut scratch = RequestScratch::new();
        // Each hostname the run has met, mapped to its domain, and each
        // registrable domain's one copy, which all its hostnames share.
        let mut hosts: HashMap<Arc<str>, Arc<str>, TokenHashBuilder> = HashMap::default();
        let mut domains: HashSet<Arc<str>, TokenHashBuilder> = HashSet::default();
        let mut host_keys = |hostname: &str, domain: &str| match hosts.get_key_value(hostname) {
            Some((known, domain)) => (Arc::clone(known), Arc::clone(domain)),
            None => {
                let domain: Arc<str> = domains
                    .get(domain)
                    .map_or_else(|| domain.into(), Arc::clone);
                domains.insert(Arc::clone(&domain));
                let hostname: Arc<str> = hostname.into();
                hosts.insert(Arc::clone(&hostname), Arc::clone(&domain));
                (hostname, domain)
            }
        };
        let mut last: Option<(Arc<str>, Arc<str>)> = None;
        // Requests of one site overwhelmingly share their top-level URL; a
        // one-entry memo avoids re-parsing it per request.
        // The page URL is compared by span first, which settles every row
        // of one load, and by bytes only across loads.
        let mut page_host_memo: Option<(&Text, &str)> = None;
        for request in sites.iter().flat_map(|site| &site.requests) {
            let Some(frame) = request.call_stack.initiator_frame() else {
                stats.excluded_non_script += 1;
                continue;
            };
            let page_host = match page_host_memo {
                Some((top, host))
                    if top.same_span(&request.top_level_url) || **top == *request.top_level_url =>
                {
                    host
                }
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
            // Most rows repeat the previous row's host: that pair is tried
            // before the table.
            let (hostname, domain) = match &last {
                Some(keys) if *keys.0 == *hostname => keys.clone(),
                _ => last.insert(host_keys(hostname, domain)).clone(),
            };
            if label.is_tracking() {
                stats.tracking += 1;
            } else {
                stats.functional += 1;
            }
            out.push(LabeledRequest {
                request_id: request.request_id,
                top_level_url: request.top_level_url.clone(),
                url: request.url.clone(),
                domain,
                hostname,
                resource_type: request.resource_type,
                initiator_script: frame.script_url.clone(),
                initiator_method: frame.function_name.clone(),
                stack: request.call_stack.clone(),
                label,
            });
        }
        // One oracle evaluation per script-initiated request, counted once
        // per run: workers labeling in parallel share this counter.
        let evaluations = stats.labeled() + stats.excluded_unparseable;
        self.evaluations
            .fetch_add(evaluations as u64, Ordering::Relaxed);
        (out, stats)
    }

    /// Label every script-initiated request in a crawl database,
    /// sequentially, as one run.
    pub fn label_database(&self, db: &CrawlDatabase) -> (Vec<LabeledRequest>, LabelStats) {
        self.label_sites(&db.sites)
    }

    /// Label every script-initiated request in parallel on
    /// [`crawler::par_map`]'s pool of `workers` threads, never more than
    /// there are sites (so 0 or 1 worker, or one site, is sequential). Each
    /// worker labels one contiguous chunk of sites as one run — the filter
    /// engine is shared read-only across workers (`FilterEngine: Sync`) —
    /// and the chunks are joined in site order, so the output is identical
    /// to [`Labeler::label_database`] regardless of worker count.
    pub fn label_database_parallel(
        &self,
        db: &CrawlDatabase,
        workers: usize,
    ) -> (Vec<LabeledRequest>, LabelStats) {
        let workers = workers.min(db.sites.len());
        if workers <= 1 {
            return self.label_database(db);
        }
        let chunks: Vec<&[SiteCrawl]> = db.sites.chunks(db.sites.len().div_ceil(workers)).collect();
        let per_chunk = crawler::par_map(&chunks, workers, |sites| self.label_sites(sites));
        let mut out = Vec::with_capacity(per_chunk.iter().map(|(rows, _)| rows.len()).sum());
        let mut stats = LabelStats::default();
        for (rows, chunk_stats) in per_chunk {
            out.extend(rows);
            stats.merge(chunk_stats);
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
        assert_eq!(
            stats.labeled() + stats.excluded_non_script + stats.excluded_unparseable,
            db.total_requests()
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

    /// Rows with equal hostname strings share one `Arc`, and so do rows
    /// with equal domain strings.
    fn assert_keys_shared(rows: &[LabeledRequest]) {
        let (mut hostnames, mut domains) = (HashMap::new(), HashMap::new());
        for row in rows {
            for (seen, key) in [(&mut hostnames, &row.hostname), (&mut domains, &row.domain)] {
                let first: &Arc<str> = seen.entry(&**key).or_insert(key);
                assert!(Arc::ptr_eq(first, key), "{key}");
            }
        }
    }

    #[test]
    fn labeled_requests_point_at_the_crawl_records_strings() {
        let (_corpus, db, engine) = setup();
        let labeler = Labeler::new(&engine);
        let (labeled, _) = labeler.label_database(&db);
        let mut records = db.sites.iter().flat_map(|site| site.script_initiated());
        for request in &labeled {
            let record = records
                .find(|record| record.request_id == request.request_id)
                .expect("labeled requests keep the crawl's order");
            let frame = record
                .call_stack
                .initiator_frame()
                .expect("script-initiated");
            assert!(request.url.same_span(&record.url));
            assert!(request.top_level_url.same_span(&record.top_level_url));
            assert!(request.initiator_script.same_span(&frame.script_url));
            assert!(request.initiator_method.same_span(&frame.function_name));
            assert!(request.stack.same_span(&record.call_stack));
        }
        // The derived keys exist once per run: across the whole sequential
        // crawl, and within each worker's contiguous chunk of sites.
        assert_keys_shared(&labeled);
        let workers = 4;
        let (parallel, _) = labeler.label_database_parallel(&db, workers);
        let site_of: HashMap<u64, usize> = (db.sites.iter().enumerate())
            .flat_map(|(i, site)| site.requests.iter().map(move |r| (r.request_id, i)))
            .collect();
        let chunk_of =
            |row: &LabeledRequest| site_of[&row.request_id] / db.sites.len().div_ceil(workers);
        let chunks: Vec<&[LabeledRequest]> = parallel
            .chunk_by(|a, b| chunk_of(a) == chunk_of(b))
            .collect();
        assert_eq!(chunks.len(), workers);
        chunks.into_iter().for_each(assert_keys_shared);
    }

    /// A row carries only what an analysis reads: six shared strings and
    /// the shared stack (16 bytes each), the id and two one-byte enums.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_labeled_row_and_its_stack_stay_small() {
        assert!(std::mem::size_of::<LabeledRequest>() <= 128);
        assert_eq!(std::mem::size_of::<crawler::CallStack>(), 16);
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
        let mut requests = [crate::testutil::labeled_request(
            "ads.com",
            "px.ads.com",
            "https://pub.com/a.js",
            "t",
            true,
        )];
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
