//! Resource-key interning for the classification hot path.
//!
//! Every stage of the hierarchy groups millions of requests by string keys —
//! domains, hostnames, script URLs, and `script :: method` pairs. Building
//! an owned `String` per request (four separate `format!("{} :: {}", …)`
//! call sites in the original pipeline) dominates the method-granularity hot
//! path. A [`KeyInterner`] replaces those allocations with cheap [`ResourceKey`]
//! symbols: each distinct string is stored once and every subsequent
//! occurrence resolves to a `Copy` integer id with a single hash lookup and
//! zero allocation. A symbol is its string's position in first-seen order
//! ([`ResourceKey::index`]), so whoever holds symbols can keep per-key
//! state in a dense vector instead of a second map — the batch classifier
//! does, level by level.
//!
//! The lookup maps hash with [`TokenHashBuilder`], which folds a string
//! eight bytes per multiply and a symbol in one; it is unkeyed, and ids come
//! from first-seen order, never from hash order, so nothing observable —
//! `GET /v1/keys`, snapshots, revision diffs — depends on it.
//!
//! Method keys are composed through [`ResourceKey::method_label`] — the one
//! shared constructor of the `script :: method` format — so producers
//! (hierarchy grouping) and consumers (call-stack residue filtering,
//! surrogate lookup) can never drift apart on the key format. Interning a
//! `(script, method)` pair via [`KeyInterner::intern_method`] does not build
//! the composed string at all once the pair has been seen: the pair of
//! symbol ids is the cache key.

use filterlist::tokens::TokenHashBuilder;
use std::collections::HashMap;
use std::sync::Arc;

/// A `Copy` symbol standing for one interned resource-key string.
///
/// Keys are only meaningful relative to the [`KeyInterner`] that produced
/// them. Ids are assigned in first-seen order, so iterating an interner
/// yields a stable, deterministic ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceKey(u32);

impl ResourceKey {
    /// The separator between the script URL and the method name in a
    /// method-granularity key.
    pub const METHOD_SEPARATOR: &'static str = " :: ";

    /// The one shared constructor of the method-granularity key format.
    ///
    /// Every producer and consumer of `script :: method` keys goes through
    /// this function (directly or via [`KeyInterner::intern_method`]), so
    /// the format cannot drift between the hierarchy, the call-stack
    /// analysis, and the surrogate generator.
    pub fn method_label(script_url: &str, method: &str) -> String {
        let mut out =
            String::with_capacity(script_url.len() + Self::METHOD_SEPARATOR.len() + method.len());
        out.push_str(script_url);
        out.push_str(Self::METHOD_SEPARATOR);
        out.push_str(method);
        out
    }

    /// The position of this key in its interner's first-seen order.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// A key with an explicit index, for unit tests that exercise
    /// key-indexed structures without an interner.
    #[cfg(test)]
    pub(crate) fn test_key(index: u32) -> Self {
        ResourceKey(index)
    }
}

/// An immutable, cheaply shareable snapshot of a [`KeyInterner`]'s lookup
/// state: string → key plus the `(script, name)` → method-key pair cache.
///
/// A [`VerdictTable`](crate::table::VerdictTable) pins one of these so a
/// concurrent reader resolves query strings against exactly the key space
/// its dense class arrays were built for — keys interned after the freeze
/// simply miss, which the verdict walk already treats as "not observed".
/// Freezing clones the two lookup maps (the `Arc<str>` key storage is
/// shared, not copied); the writer re-freezes only when the interner has
/// actually grown since the last published table.
#[derive(Debug, Clone, Default)]
pub struct FrozenKeys {
    lookup: HashMap<Arc<str>, ResourceKey, TokenHashBuilder>,
    method_pairs: HashMap<(ResourceKey, ResourceKey), ResourceKey, TokenHashBuilder>,
    /// id → string in first-seen order (shared storage with the interner),
    /// so the snapshot can be exported as a dense id table and untrusted
    /// numeric ids can be bounds-checked back into [`ResourceKey`]s.
    strings: Vec<Arc<str>>,
}

impl FrozenKeys {
    /// Look up a string's key. Strings interned after the freeze miss.
    pub fn key(&self, key: &str) -> Option<ResourceKey> {
        self.lookup.get(key).copied()
    }

    /// Look up the composed method key of an already-resolved
    /// `(script, method-name)` pair without building the
    /// `script :: method` string.
    pub fn method_key(&self, script: ResourceKey, name: ResourceKey) -> Option<ResourceKey> {
        self.method_pairs.get(&(script, name)).copied()
    }

    /// Number of distinct keys the snapshot resolves.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// `true` when the snapshot resolves no keys at all.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Number of `(script, name)` pairs the snapshot resolves.
    pub fn pair_count(&self) -> usize {
        self.method_pairs.len()
    }

    /// Bounds-check an untrusted numeric id (e.g. from a binary wire
    /// request) into a [`ResourceKey`] of this snapshot. `None` for ids the
    /// snapshot never assigned — the safe "unknown key" answer, never a
    /// panic.
    pub fn key_for_id(&self, id: u32) -> Option<ResourceKey> {
        ((id as usize) < self.strings.len()).then_some(ResourceKey(id))
    }

    /// Iterate `(key, string)` pairs in dense id order — the export shape
    /// of a key-interning handshake (`GET /v1/keys`).
    pub fn iter(&self) -> impl Iterator<Item = (ResourceKey, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (ResourceKey(i as u32), s.as_ref()))
    }

    /// The string of a dense key id, shared (refcount bump, no copy), or
    /// `None` for ids the snapshot never assigned. This is how a bootstrap
    /// snapshot resolves class-table slots and plan keys back to strings.
    pub fn shared_string_for_id(&self, id: u32) -> Option<Arc<str>> {
        self.strings.get(id as usize).cloned()
    }
}

/// An append-only string interner for resource keys.
///
/// Both internal maps use the cheap word-at-a-time
/// [`TokenHashBuilder`] rather than SipHash: interning sits on the hot
/// paths of the classification stage and the sifter's ingest, where
/// hash-flooding resistance buys nothing and the default hasher's setup
/// cost is measurable.
#[derive(Debug, Clone, Default)]
pub struct KeyInterner {
    /// string → id. `Arc<str>` shares storage with `strings`.
    lookup: HashMap<Arc<str>, ResourceKey, TokenHashBuilder>,
    /// `(script id, method id)` → composed method-key id. Lets repeated
    /// method-key interning skip building the composed string entirely.
    method_pairs: HashMap<(ResourceKey, ResourceKey), ResourceKey, TokenHashBuilder>,
    /// id → string, in first-seen order.
    strings: Vec<Arc<str>>,
}

impl KeyInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty interner with room for `capacity` distinct keys.
    pub fn with_capacity(capacity: usize) -> Self {
        KeyInterner {
            lookup: HashMap::with_capacity_and_hasher(capacity, TokenHashBuilder),
            method_pairs: HashMap::default(),
            strings: Vec::with_capacity(capacity),
        }
    }

    /// Intern a string, returning its symbol. Allocates only the first time
    /// a given string is seen.
    pub fn intern(&mut self, key: &str) -> ResourceKey {
        if let Some(&id) = self.lookup.get(key) {
            return id;
        }
        let id = ResourceKey(
            u32::try_from(self.strings.len()).expect("more than u32::MAX interned keys"),
        );
        let stored: Arc<str> = Arc::from(key);
        self.strings.push(Arc::clone(&stored));
        self.lookup.insert(stored, id);
        id
    }

    /// Intern the method-granularity key for a `(script, method)` pair.
    ///
    /// After the first occurrence of a pair, this is two hash lookups on
    /// `Copy` keys — the composed `script :: method` string is never rebuilt.
    pub fn intern_method(&mut self, script_url: &str, method: &str) -> ResourceKey {
        let (script, name) = (self.intern(script_url), self.intern(method));
        self.intern_method_pair(script, name)
    }

    /// [`KeyInterner::intern_method`] for a pair whose two strings are
    /// already interned: a caller that needs the script and name keys
    /// itself interns each once, not twice.
    pub(crate) fn intern_method_pair(
        &mut self,
        script: ResourceKey,
        name: ResourceKey,
    ) -> ResourceKey {
        if let Some(&id) = self.method_pairs.get(&(script, name)) {
            return id;
        }
        let composed = ResourceKey::method_label(self.resolve(script), self.resolve(name));
        let id = self.intern(&composed);
        self.method_pairs.insert((script, name), id);
        id
    }

    /// Look up a string without interning it.
    pub fn get(&self, key: &str) -> Option<ResourceKey> {
        self.lookup.get(key).copied()
    }

    /// Resolve a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `key` came from a different interner and is out of range.
    pub fn resolve(&self, key: ResourceKey) -> &str {
        &self.strings[key.index()]
    }

    /// Resolve a symbol to a shared handle on its string — a refcount bump,
    /// no copy. Lets callers holding a lock around the interner defer any
    /// real string copy until after the lock is released.
    ///
    /// # Panics
    /// Panics if `key` came from a different interner and is out of range.
    pub fn resolve_shared(&self, key: ResourceKey) -> Arc<str> {
        Arc::clone(&self.strings[key.index()])
    }

    /// Snapshot the lookup state as an immutable [`FrozenKeys`] view. See
    /// the [`FrozenKeys`] docs for cost and staleness semantics.
    pub fn freeze(&self) -> FrozenKeys {
        FrozenKeys {
            lookup: self.lookup.clone(),
            method_pairs: self.method_pairs.clone(),
            strings: self.strings.clone(),
        }
    }

    /// The frozen view cached in `slot`, re-frozen first when the interner
    /// has grown since it was taken — the one freeze cache the sifter and
    /// a replica's follower publish their tables through.
    pub(crate) fn frozen(&self, slot: &mut Option<Arc<FrozenKeys>>) -> Arc<FrozenKeys> {
        match slot {
            Some(frozen)
                if frozen.len() == self.len() && frozen.pair_count() == self.pair_count() =>
            {
                Arc::clone(frozen)
            }
            _ => Arc::clone(slot.insert(Arc::new(self.freeze()))),
        }
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Number of `(script, name)` method pairs filed by
    /// [`KeyInterner::intern_method`]. Together with [`KeyInterner::len`]
    /// this tells a cached [`FrozenKeys`] whether it is stale.
    pub fn pair_count(&self) -> usize {
        self.method_pairs.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterate `(key, string)` pairs in first-seen (id) order.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceKey, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (ResourceKey(i as u32), s.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn round_trip_resolves_to_the_original_string() {
        let mut interner = KeyInterner::new();
        let keys = ["google.com", "cdn.google.com", "https://x.com/a.js"];
        let ids: Vec<ResourceKey> = keys.iter().map(|k| interner.intern(k)).collect();
        for (key, id) in keys.iter().zip(&ids) {
            assert_eq!(interner.resolve(*id), *key);
        }
    }

    #[test]
    fn interning_deduplicates() {
        let mut interner = KeyInterner::new();
        let a = interner.intern("ads.com");
        let b = interner.intern("news.com");
        let a2 = interner.intern("ads.com");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn resolved_keys_keep_stable_first_seen_ordering() {
        let mut interner = KeyInterner::new();
        for key in ["zeta", "alpha", "mid", "alpha", "zeta"] {
            interner.intern(key);
        }
        let in_order: Vec<&str> = interner.iter().map(|(_, s)| s).collect();
        assert_eq!(in_order, vec!["zeta", "alpha", "mid"]);
        let indices: Vec<usize> = interner.iter().map(|(k, _)| k.index()).collect();
        assert_eq!(indices, vec![0, 1, 2]);
    }

    #[test]
    fn method_keys_match_the_shared_constructor() {
        let mut interner = KeyInterner::new();
        let id = interner.intern_method("https://x.com/clone.js", "m2");
        assert_eq!(
            interner.resolve(id),
            ResourceKey::method_label("https://x.com/clone.js", "m2")
        );
        assert_eq!(interner.resolve(id), "https://x.com/clone.js :: m2");
    }

    #[test]
    fn method_pair_interning_is_idempotent_and_matches_string_interning() {
        let mut interner = KeyInterner::new();
        let via_pair = interner.intern_method("s.js", "run");
        let via_pair_again = interner.intern_method("s.js", "run");
        let via_string = interner.intern(&ResourceKey::method_label("s.js", "run"));
        assert_eq!(via_pair, via_pair_again);
        assert_eq!(via_pair, via_string);
    }

    #[test]
    fn get_does_not_intern() {
        let mut interner = KeyInterner::new();
        assert_eq!(interner.get("missing"), None);
        let id = interner.intern("present");
        assert_eq!(interner.get("present"), Some(id));
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn frozen_keys_resolve_exactly_the_state_at_freeze_time() {
        let mut interner = KeyInterner::new();
        let d = interner.intern("ads.com");
        let m = interner.intern_method("s.js", "run");
        let frozen = interner.freeze();
        assert_eq!(frozen.len(), interner.len());
        assert_eq!(frozen.pair_count(), interner.pair_count());
        assert!(!frozen.is_empty());

        // Everything present at freeze time resolves through the view.
        assert_eq!(frozen.key("ads.com"), Some(d));
        let s = interner.get("s.js").unwrap();
        let name = interner.get("run").unwrap();
        assert_eq!(frozen.method_key(s, name), Some(m));

        // Keys interned after the freeze miss in the frozen view but hit in
        // the live interner — the staleness the pair/len counters detect.
        let late = interner.intern("late.com");
        assert_eq!(frozen.key("late.com"), None);
        assert_eq!(interner.get("late.com"), Some(late));
        assert_ne!(frozen.len(), interner.len());
    }

    #[test]
    fn frozen_keys_export_a_dense_bounds_checked_id_table() {
        let mut interner = KeyInterner::new();
        for key in ["ads.com", "px.ads.com", "s.js"] {
            interner.intern(key);
        }
        let frozen = interner.freeze();
        let table: Vec<(usize, &str)> = frozen.iter().map(|(k, s)| (k.index(), s)).collect();
        assert_eq!(table, vec![(0, "ads.com"), (1, "px.ads.com"), (2, "s.js")]);
        // Ids round-trip through the bounds check; out-of-range ids miss
        // instead of panicking.
        for (key, string) in frozen.iter() {
            let id = key.index() as u32;
            assert_eq!(frozen.key_for_id(id), Some(key));
            assert_eq!(frozen.key(string), Some(key));
        }
        assert_eq!(frozen.key_for_id(3), None);
        assert_eq!(frozen.key_for_id(u32::MAX), None);
    }

    /// Every string the 500-site paper corpus (seed 2021) interns on its
    /// way into a sifter — domains, hostnames, script URLs, method names and
    /// composed method keys, in first-seen order.
    fn paper_corpus_keys() -> KeyInterner {
        use crawler::{ClusterConfig, CrawlCluster};
        use websim::{filter_rules, CorpusGenerator, CorpusProfile};
        let corpus = CorpusGenerator::generate(&CorpusProfile::paper().with_sites(500), 2021);
        let db = CrawlCluster::new(ClusterConfig::sequential()).crawl(&corpus);
        let engine = filter_rules::engine_for(&corpus.ecosystem);
        let (requests, _) = crate::label::Labeler::new(&engine).label_database(&db);
        let mut interner = KeyInterner::new();
        for request in &requests {
            interner.intern(&request.domain);
            interner.intern(&request.hostname);
            interner.intern_method(&request.initiator_script, &request.initiator_method);
        }
        interner
    }

    /// The byte-at-a-time hasher the interner's maps used before the folded
    /// one (FNV-1a steps from a zero state, the same Fibonacci `finish`),
    /// kept as the yardstick the folded hash must not fall behind.
    #[derive(Default)]
    struct FnvReference(u64);

    impl std::hash::Hasher for FnvReference {
        fn finish(&self) -> u64 {
            self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        }

        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// Pearson's chi-square of `hashes` spread over `bins` by `bin_of`:
    /// about `bins - 1` for a uniform spread, larger the lumpier it is.
    fn chi_square(hashes: &[u64], bins: usize, bin_of: impl Fn(u64) -> usize) -> f64 {
        let mut load = vec![0u64; bins];
        for &hash in hashes {
            load[bin_of(hash)] += 1;
        }
        let expected = hashes.len() as f64 / bins as f64;
        load.iter()
            .map(|&n| (n as f64 - expected).powi(2) / expected)
            .sum()
    }

    #[test]
    fn the_folded_hash_spreads_the_paper_corpus_keys_no_worse_than_fnv() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let interner = paper_corpus_keys();
        let keys: Vec<&str> = interner.iter().map(|(_, key)| key).collect();
        assert!(keys.len() > 10_000, "{} keys", keys.len());
        let folded: Vec<u64> = keys.iter().map(|k| TokenHashBuilder.hash_one(k)).collect();
        let fnv = BuildHasherDefault::<FnvReference>::default();
        let fnv: Vec<u64> = keys.iter().map(|k| fnv.hash_one(k)).collect();

        // No two keys share a full hash under either.
        let distinct = |hashes: &[u64]| hashes.iter().collect::<HashSet<_>>().len();
        assert_eq!(distinct(&folded), keys.len());
        assert_eq!(distinct(&fnv), keys.len());

        // The map reads a hash at its two ends: the low bits choose the
        // bucket, the top seven are the tag compared before the key is. A
        // uniform spread reads chi-square ≈ bins − 1 with a standard
        // deviation of √(2·(bins − 1)); the folded hash must be within
        // four of those of uniform, or no lumpier than FNV was.
        for (name, bins, bin_of) in [
            (
                "low 12 bits",
                4096,
                (|h| (h & 0xfff) as usize) as fn(u64) -> usize,
            ),
            ("top 7 bits", 128, |h| (h >> 57) as usize),
        ] {
            let uniform = (bins - 1) as f64 + 4.0 * (2.0 * (bins - 1) as f64).sqrt();
            let (ours, theirs) = (
                chi_square(&folded, bins, bin_of),
                chi_square(&fnv, bins, bin_of),
            );
            assert!(
                ours <= uniform.max(theirs),
                "{name}: folded {ours:.0}, FNV {theirs:.0}, uniform bound {uniform:.0}"
            );
        }
        let occupied = |hashes: &[u64]| {
            hashes
                .iter()
                .map(|h| h & 0xfff)
                .collect::<HashSet<_>>()
                .len()
        };
        assert!(occupied(&folded) >= occupied(&fnv));
    }

    #[test]
    fn frozen_keys_round_trip_every_key_of_the_paper_corpus() {
        let interner = paper_corpus_keys();
        let frozen = interner.freeze();
        assert_eq!(frozen.len(), interner.len());
        for (key, string) in interner.iter() {
            assert_eq!(frozen.key(string), Some(key), "{string}");
            assert_eq!(interner.get(string), Some(key), "{string}");
            // Ids are first-seen positions, whatever the hash order.
            assert_eq!(frozen.key_for_id(key.index() as u32), Some(key));
            if let Some((script, method)) = string.split_once(ResourceKey::METHOD_SEPARATOR) {
                let pair = (frozen.key(script), frozen.key(method));
                let (Some(script), Some(method)) = pair else {
                    panic!("{string}: parts not interned");
                };
                assert_eq!(frozen.method_key(script, method), Some(key), "{string}");
            }
        }
        assert!(frozen.pair_count() > 1_000);
        assert_eq!(frozen.key("never-seen.example"), None);
    }
}
