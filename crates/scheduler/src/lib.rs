//! # scheduler — continuous re-crawl of an evolving web
//!
//! The paper measures a *snapshot* of the web; real deployments re-crawl,
//! because the tracking ecosystem moves underneath them — scripts hop CDNs,
//! endpoints re-draw their paths, new pixels appear. This crate closes that
//! loop: a [`Scheduler`] owns a [websim] corpus and an
//! [`EcosystemMutator`], and each [`tick`](Scheduler::tick) advances the
//! simulated web one epoch, re-crawls every site through a
//! [`SifterWriter`]'s `apply_batch`/`commit` path, and reads the verdict
//! drift the epoch caused out of the writer's revision ring.
//!
//! Two attribution keyings are supported, selected by [`ScriptKeying`]:
//!
//! * [`ScriptKeying::Url`] — the paper's scheme: scripts are keyed by
//!   origin URL. A CDN rotation orphans every script-granularity verdict.
//! * [`ScriptKeying::Fingerprint`] — ASTrack-style content identity via
//!   [`websim::fingerprint_key`]: the key hashes the script's behavioural
//!   shape, so it survives CDN and path rotation.
//!
//! The scheduler measures the difference directly: after each mutation
//! epoch, and *before* re-crawling, it probes every rotated script — did
//! the verdict keyed under the active keying survive the rotation? The
//! running probe/hit tally is exported through
//! [`SchedulerStats`] and, when the
//! scheduler is attached to a
//! [`VerdictServer`](trackersift_server::VerdictServer), the `scheduler`
//! section of `GET /v1/stats`.
//!
//! ```
//! use scheduler::{Scheduler, SchedulerConfig, ScriptKeying};
//! use trackersift_server::SchedulerDriver;
//!
//! let config = SchedulerConfig::new(7)
//!     .with_sites(20)
//!     .with_keying(ScriptKeying::Fingerprint);
//! let mut scheduler = Scheduler::new(config);
//! let (mut writer, reader) = scheduler.sifter_pair();
//!
//! let seed = scheduler.tick(&mut writer); // epoch 0: the seed crawl
//! assert_eq!(seed.epoch, 0);
//! assert!(seed.observations > 0);
//!
//! let next = scheduler.tick(&mut writer); // epoch 1: mutate, probe, re-crawl
//! assert_eq!(next.epoch, 1);
//! assert_eq!(next.version, seed.version + 1);
//! assert_eq!(reader.pin().version(), next.version);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(rust_2018_idioms)]

use filterlist::{hostname_of, registrable_domain};
use trackersift::{
    DecisionRequest, Granularity, ObservationRef, Sifter, SifterReader, SifterWriter, Verdict,
};
use trackersift_server::{SchedulerDriver, SchedulerStats, TickSummary};
use websim::{
    filter_rules, fingerprint_key, CorpusGenerator, CorpusProfile, EcosystemMutator,
    MutationConfig, PageScript, ScriptRotation, WebCorpus,
};

/// How the re-crawl attributes script-initiated requests to a script key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScriptKeying {
    /// Key scripts by origin URL — the paper's scheme. Verdicts at script
    /// granularity are orphaned by every CDN rotation.
    #[default]
    Url,
    /// Key scripts by behavioural content fingerprint
    /// ([`websim::fingerprint_key`]) — verdicts survive URL rotation.
    Fingerprint,
}

/// Configuration for a [`Scheduler`]: the corpus it simulates, how the
/// ecosystem mutates between epochs, and the attribution keying.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Seed for both corpus generation and mutation. Two schedulers built
    /// from equal configs evolve byte-identically.
    pub(crate) seed: u64,
    /// Number of websites in the simulated corpus.
    pub(crate) sites: usize,
    /// Per-epoch mutation rates.
    pub(crate) mutation: MutationConfig,
    /// Attribution keying for script-initiated requests.
    pub(crate) keying: ScriptKeying,
}

impl SchedulerConfig {
    /// A 40-site corpus with default mutation rates and URL keying.
    pub fn new(seed: u64) -> Self {
        SchedulerConfig {
            seed,
            sites: 40,
            mutation: MutationConfig::default(),
            keying: ScriptKeying::Url,
        }
    }

    /// Set the corpus size.
    pub fn with_sites(mut self, sites: usize) -> Self {
        self.sites = sites;
        self
    }

    /// Set the per-epoch mutation rates.
    pub fn with_mutation(mut self, mutation: MutationConfig) -> Self {
        self.mutation = mutation;
        self
    }

    /// Set the attribution keying.
    pub fn with_keying(mut self, keying: ScriptKeying) -> Self {
        self.keying = keying;
        self
    }
}

/// The continuous re-crawl loop: owns the evolving corpus and drives a
/// [`SifterWriter`] through one crawl epoch per [`tick`](Scheduler::tick).
///
/// Implements [`SchedulerDriver`], so it can be attached to a
/// [`VerdictServer`](trackersift_server::VerdictServer) via
/// [`start_with_scheduler`](trackersift_server::VerdictServer::start_with_scheduler)
/// and ticked over the wire with `POST /v1/tick`; the drift each epoch
/// causes is then diffable with `GET /v1/revisions?diff=a..b`.
///
/// Everything is deterministic from `SchedulerConfig::seed`: the corpus,
/// every mutation epoch, the crawl order, and therefore the writer's entire
/// revision ring.
#[derive(Debug)]
pub struct Scheduler {
    corpus: WebCorpus,
    mutator: EcosystemMutator,
    keying: ScriptKeying,
    /// Epoch the next tick will crawl; 0 until the seed crawl has run.
    epoch: u64,
    stats: SchedulerStats,
}

impl Scheduler {
    /// Generate the epoch-0 corpus and set up the mutator.
    pub fn new(config: SchedulerConfig) -> Self {
        let corpus = CorpusGenerator::generate(
            &CorpusProfile::small().with_sites(config.sites),
            config.seed,
        );
        Scheduler {
            mutator: EcosystemMutator::new(config.seed, config.mutation),
            corpus,
            keying: config.keying,
            epoch: 0,
            stats: SchedulerStats::default(),
        }
    }

    /// The corpus in its current epoch.
    pub fn corpus(&self) -> &WebCorpus {
        &self.corpus
    }

    /// A writer/reader pair whose filter engine matches this scheduler's
    /// ecosystem — the counterpart the loop is meant to feed. The engine
    /// covers the simulated tracking services on top of the built-in
    /// EasyList/EasyPrivacy-style rules, so crawled requests label.
    pub fn sifter_pair(&self) -> (SifterWriter, SifterReader) {
        Sifter::builder()
            .engine(filter_rules::engine_for(&self.corpus.ecosystem))
            .build_concurrent()
    }

    /// The fraction of retention probes that hit so far, if any ran.
    pub fn retention_rate(&self) -> Option<f64> {
        if self.stats.retention_probes == 0 {
            None
        } else {
            Some(self.stats.retention_hits as f64 / self.stats.retention_probes as f64)
        }
    }

    /// The attribution key the active keying assigns `script`.
    fn script_key(&self, script: &PageScript) -> String {
        match self.keying {
            ScriptKeying::Url => script.origin.url().to_string(),
            ScriptKeying::Fingerprint => fingerprint_key(script),
        }
    }

    /// For every rotated script, ask whether the verdict keyed under the
    /// active keying survived the rotation. Runs against the *published*
    /// state, before the re-crawl re-learns the new keys — exactly the
    /// window where a deployed blocker is blind.
    ///
    /// Only rotations whose pre-rotation key actually carried a script- or
    /// method-granularity verdict count as probes: a verdict decided at
    /// hostname or domain granularity never consulted the script key, so
    /// rotation cannot orphan it.
    fn probe_retention(&mut self, rotations: &[ScriptRotation], writer: &SifterWriter) {
        let reader = writer.reader();
        let table = reader.pin();
        for rotation in rotations {
            let script = &self.corpus.websites[rotation.site].scripts[rotation.script];
            let fingerprint;
            let (old_key, new_key) = match self.keying {
                ScriptKeying::Url => (rotation.old_url.as_str(), rotation.new_url.as_str()),
                ScriptKeying::Fingerprint => {
                    // Content identity: rotation does not change the shape,
                    // so the old and the new crawl share one key.
                    fingerprint = fingerprint_key(script);
                    (fingerprint.as_str(), fingerprint.as_str())
                }
            };
            for (method_index, request) in script.planned_requests() {
                let Some(host) = host_of(&request.url) else {
                    continue;
                };
                let domain = registrable_domain(&host);
                let method = &script.methods[method_index].name;
                let before = table.verdict(&DecisionRequest::new(&domain, &host, old_key, method));
                let fine = matches!(
                    before,
                    Verdict::Decided {
                        granularity: Granularity::Script | Granularity::Method,
                        ..
                    }
                );
                if !fine {
                    continue;
                }
                self.stats.retention_probes += 1;
                let after = table.verdict(&DecisionRequest::new(&domain, &host, new_key, method));
                if after == before {
                    self.stats.retention_hits += 1;
                }
                break;
            }
        }
    }

    /// Observe every planned request in the corpus: script-initiated
    /// requests under the keying-selected script key, document-initiated
    /// requests (pixels, stylesheets) under a per-page pseudo-key so that
    /// emerged pixels drive drift too. The tick's rows go to the writer as
    /// one [`SifterWriter::apply_batch`] — journaled, fsynced once, then
    /// folded — borrowing the corpus and one key string per script and
    /// page; a durable writer's journal buffer holds one tick's frames.
    /// Returns how many rows were observed.
    fn crawl(&self, writer: &mut SifterWriter) -> u64 {
        // Every site's script keys, then its page key, in crawl order.
        let keys: Vec<String> = self
            .corpus
            .websites
            .iter()
            .flat_map(|site| {
                let page_key = format!("page:{}", site.hostname);
                site.scripts
                    .iter()
                    .map(|script| self.script_key(script))
                    .chain([page_key])
            })
            .collect();
        let mut keys = keys.iter();
        let mut rows = Vec::new();
        for site in &self.corpus.websites {
            let source = site.hostname.as_str();
            for script in &site.scripts {
                let key = keys.next().expect("a key per script");
                rows.extend(script.planned_requests().map(|(method_index, request)| {
                    let method = &script.methods[method_index].name;
                    ObservationRef::url(&request.url, source, request.resource_type, key, method)
                }));
            }
            let page_key = keys.next().expect("a key per page");
            rows.extend(site.non_script_requests.iter().map(|request| {
                ObservationRef::url(
                    &request.url,
                    source,
                    request.resource_type,
                    page_key,
                    "html",
                )
            }));
        }
        writer.apply_batch(rows)
    }
}

impl SchedulerDriver for Scheduler {
    /// Run one crawl epoch. Epoch 0 is the seed crawl of the pristine
    /// corpus; every later epoch first advances the ecosystem one mutation
    /// step, probes key retention across the rotations it applied, then
    /// re-crawls and commits. The committed revision's change count is the
    /// epoch's drift.
    fn tick(&mut self, writer: &mut SifterWriter) -> TickSummary {
        let epoch = self.epoch;
        if epoch > 0 {
            let report = self.mutator.advance(&mut self.corpus, epoch);
            self.stats.rotated_cdn_scripts += report.rotations.len() as u64;
            self.stats.rotated_paths += report.path_rotations as u64;
            self.stats.emerged_pixels += report.emerged_requests as u64;
            self.probe_retention(&report.rotations, writer);
        }
        let observations = self.crawl(writer);
        writer.commit();
        let version = writer.published_version();
        let drift_events = writer
            .revisions()
            .last()
            .filter(|revision| revision.version() == version)
            .map_or(0, |revision| revision.changes().len() as u64);
        self.stats.drift_events += drift_events;
        self.stats.epoch = epoch;
        self.stats.ticks += 1;
        self.epoch += 1;
        TickSummary {
            epoch,
            observations,
            drift_events,
            version,
        }
    }

    fn stats(&self) -> SchedulerStats {
        self.stats
    }
}

/// The hostname [`Sifter::apply`](trackersift::Sifter::apply) files a raw
/// request under — [`hostname_of`], lower-cased — or `None` for a
/// URL without one (data URIs, garbage).
fn host_of(url: &str) -> Option<String> {
    let host = hostname_of(url);
    (!host.is_empty()).then(|| host.to_ascii_lowercase())
}

#[cfg(test)]
mod tests {
    use super::*;
    use trackersift::frames::encode_revision_list;
    use trackersift_server::DurabilityConfig;

    fn churny_config(keying: ScriptKeying) -> SchedulerConfig {
        SchedulerConfig::new(11)
            .with_sites(30)
            .with_mutation(MutationConfig::churny())
            .with_keying(keying)
    }

    #[test]
    fn seed_crawl_observes_and_publishes() {
        let mut scheduler = Scheduler::new(SchedulerConfig::new(3).with_sites(10));
        let (mut writer, reader) = scheduler.sifter_pair();
        let summary = scheduler.tick(&mut writer);
        assert_eq!(summary.epoch, 0);
        assert!(summary.observations > 0);
        assert_eq!(summary.version, 1);
        assert!(summary.drift_events > 0, "seed crawl must decide something");
        assert_eq!(reader.pin().version(), 1);
        assert_eq!(scheduler.stats().ticks, 1);
        assert_eq!(scheduler.stats().retention_probes, 0);
    }

    #[test]
    fn ticks_advance_epochs_and_mutate() {
        let mut scheduler = Scheduler::new(churny_config(ScriptKeying::Url));
        let (mut writer, _reader) = scheduler.sifter_pair();
        for expected_epoch in 0..4 {
            let summary = scheduler.tick(&mut writer);
            assert_eq!(summary.epoch, expected_epoch);
            assert_eq!(summary.version, expected_epoch + 1);
        }
        let stats = scheduler.stats();
        assert_eq!(stats.ticks, 4);
        assert_eq!(stats.epoch, 3);
        assert!(stats.rotated_cdn_scripts > 0, "churny rates must rotate");
        assert_eq!(writer.revisions().len(), 4);
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let run = |ticks: usize| {
            let mut scheduler = Scheduler::new(churny_config(ScriptKeying::Fingerprint));
            let (mut writer, _reader) = scheduler.sifter_pair();
            for _ in 0..ticks {
                scheduler.tick(&mut writer);
            }
            encode_revision_list(writer.published_version(), writer.revisions())
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn fingerprint_keying_retains_where_url_keying_loses() {
        let run = |keying: ScriptKeying| {
            let mut scheduler = Scheduler::new(churny_config(keying));
            let (mut writer, _reader) = scheduler.sifter_pair();
            for _ in 0..6 {
                scheduler.tick(&mut writer);
            }
            let stats = scheduler.stats();
            assert!(
                stats.retention_probes >= 5,
                "need a real denominator, got {}",
                stats.retention_probes
            );
            scheduler.retention_rate().unwrap()
        };
        assert!(run(ScriptKeying::Fingerprint) >= 0.9);
        assert!(run(ScriptKeying::Url) <= 0.1);
    }

    /// A tick journals its re-crawl as one batch: one fsync for the rows,
    /// however many there are against `sync_every`, and one for the commit
    /// marker. The directory then recovers the live writer's state, key ids
    /// and version included.
    #[test]
    fn a_durable_tick_syncs_its_rows_once_and_recovers_them() {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .as_nanos();
        let dir = std::env::temp_dir().join(format!(
            "scheduler-durable-tick-{}-{nanos}",
            std::process::id()
        ));
        let sync_every = DurabilityConfig::new(&dir).sync_every;
        let mut scheduler = Scheduler::new(churny_config(ScriptKeying::Fingerprint));
        let (mut writer, reader) = scheduler.sifter_pair();
        writer.open_durable(&dir, sync_every).expect("open durable");
        for _ in 0..3 {
            let before = writer.journal_stats().expect("durable");
            let summary = scheduler.tick(&mut writer);
            let after = writer.journal_stats().expect("durable");
            assert!(summary.observations > sync_every);
            assert_eq!(after.syncs, before.syncs + 2, "the batch and the commit");
            assert_eq!(after.synced, after.appended - 1, "all but the ring record");
        }
        let keys = |reader: &SifterReader| -> Vec<String> {
            let pin = reader.pin();
            pin.keys().iter().map(|(_, key)| key.to_string()).collect()
        };
        let (live, live_keys) = (writer.sifter().snapshot(), keys(&reader));
        let version = writer.published_version();
        drop(writer);
        let (mut recovered, recovered_reader) = scheduler.sifter_pair();
        recovered.open_durable(&dir, sync_every).expect("recover");
        assert_eq!(
            recovered.sifter().snapshot().to_json_string(),
            live.to_json_string()
        );
        assert_eq!(keys(&recovered_reader), live_keys);
        assert_eq!(recovered.published_version(), version);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn host_of_parses_urls() {
        assert_eq!(host_of("https://a.b.c/x?y=1").as_deref(), Some("a.b.c"));
        assert_eq!(host_of("http://a.b").as_deref(), Some("a.b"));
        assert_eq!(host_of("data:text/plain,hi"), None);
        assert_eq!(host_of("https:///nohost"), None);
        // The key a raw-URL `apply` observed, not the raw authority: no port, no
        // userinfo, no query glued on, lower case.
        assert_eq!(host_of("https://H.com:8080/x").as_deref(), Some("h.com"));
        assert_eq!(host_of("https://u@h.com/x").as_deref(), Some("h.com"));
        assert_eq!(host_of("https://h.com?x=1").as_deref(), Some("h.com"));
        assert_eq!(host_of("https://H.com/x").as_deref(), Some("h.com"));
    }
}
