//! Resource-key interning for the classification hot path: one key store.
//!
//! Every stage of the hierarchy groups millions of requests by string keys —
//! domains, hostnames, script URLs, and `script :: method` pairs. A
//! [`KeyInterner`] stores each distinct string once and hands out a `Copy`
//! [`ResourceKey`] for it: the string's position in first-seen order
//! ([`ResourceKey::index`]), so whoever holds symbols can keep per-key
//! state in a dense vector instead of a second map — the batch classifier
//! and the sifter do.
//!
//! # The store
//!
//! * **Arena.** Key bytes are appended to chunks of 64 KiB. The open chunk
//!   is a `String`; when the next key would overflow it, its bytes are
//!   sealed into an immutable `Arc<str>` and the `String` is reused. No key
//!   straddles two chunks, and a key longer than a chunk gets a chunk of
//!   its own. An id names a span of one chunk, so a new key costs its bytes
//!   and a twelve-byte span, not an allocation.
//! * **Table.** The lookup is an open-addressed table, at most half full,
//!   of slots that each hold a key's `u32` id and its span. Slots come in
//!   groups of eight whose seven-bit hash tags share one word: a probe
//!   compares the eight tags at once, reads the bytes of a key only when
//!   its tag matches, and moves to the next group only past a full one.
//! * **Hash.** Keys are hashed with [`fold_bytes`], eight bytes per
//!   multiply, from a seed drawn once per interner from [`RandomState`]:
//!   `POST /v1/observations` strings reach the interner, so its table is
//!   keyed, like every table hashed from outside input. Ids come from
//!   first-seen order, never from hash order, so nothing observable — ids,
//!   `GET /v1/keys`, snapshots, revision diffs — depends on the seed.
//! * **Stored hashes.** The writer keeps each id's 64-bit hash, so growing
//!   the table re-slots ids without reading a key again.
//!
//! Method keys have one format, [`ResourceKey::method_label`]'s
//! `script :: method`, so producers (hierarchy grouping) and consumers
//! (call-stack residue filtering, surrogate lookup) can never drift apart
//! on it. [`KeyInterner::intern_method`] composes a new pair's key once,
//! straight into the open chunk, and hashes it there; a pair it has seen is
//! one lookup on its two symbol ids, with no string built.
//!
//! [`FrozenKeys`] is the immutable view a verdict table pins and a snapshot
//! carries. It shares the sealed chunks and copies the open chunk, the span
//! table and the lookup table: the same few buffers whatever the number of
//! keys.

use filterlist::tokens::{fold_bytes, TokenHashBuilder};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;
use std::sync::{Arc, OnceLock};

/// Bytes per arena chunk.
const CHUNK_BYTES: usize = 64 * 1024;

/// Slots of a table's first allocation: room for 256 keys.
const MIN_SLOTS: usize = 512;

/// `(script id, method-name id)` → composed method-key id.
type MethodPairs = HashMap<(ResourceKey, ResourceKey), ResourceKey, TokenHashBuilder>;

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
    pub(crate) const METHOD_SEPARATOR: &'static str = " :: ";

    /// The one shared constructor of the method-granularity key format.
    ///
    /// Every producer and consumer of `script :: method` keys goes through
    /// this function or [`KeyInterner::intern_method`], which writes the
    /// same bytes into its arena, so the format cannot drift between the
    /// hierarchy, the call-stack analysis, and the surrogate generator.
    pub fn method_label(script_url: &str, method: &str) -> String {
        let mut out =
            String::with_capacity(script_url.len() + Self::METHOD_SEPARATOR.len() + method.len());
        Self::push_method_label(&mut out, script_url, method);
        out
    }

    /// Append the method-granularity key of `(script_url, method)` to
    /// `out`: the bytes [`ResourceKey::method_label`] returns.
    fn push_method_label(out: &mut String, script_url: &str, method: &str) {
        out.push_str(script_url);
        out.push_str(Self::METHOD_SEPARATOR);
        out.push_str(method);
    }

    /// The position of this key in its interner's first-seen order.
    #[inline]
    pub fn index(self) -> usize {
        widen(self.0)
    }

    /// A key with an explicit index, for unit tests that exercise
    /// key-indexed structures without an interner.
    #[cfg(test)]
    pub(crate) fn test_key(index: u32) -> Self {
        ResourceKey(index)
    }
}

/// A `u32` arena offset or id as an index.
#[inline]
fn widen(n: u32) -> usize {
    usize::try_from(n).expect("a u32 fits in usize")
}

/// An arena offset as stored in a [`Span`].
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("arena offsets fit in u32")
}

/// Where one key's bytes are: `chunk[start..end]`.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    chunk: u32,
    start: u32,
    end: u32,
}

/// The chunk `span` lies in: one of `chunks`, or `open` when `span` names
/// the chunk after the last of them.
#[inline]
fn chunk<'a>(chunks: &'a [Arc<str>], open: &'a str, span: Span) -> &'a str {
    chunks.get(widen(span.chunk)).map_or(open, |chunk| chunk)
}

/// The string at `span`.
fn text<'a>(chunks: &'a [Arc<str>], open: &'a str, span: Span) -> &'a str {
    &chunk(chunks, open, span)[widen(span.start)..widen(span.end)]
}

/// Whether the key at `span` is `key`: the lengths first, then the bytes,
/// with no char-boundary checks.
#[inline]
fn is_at(chunks: &[Arc<str>], open: &str, span: Span, key: &[u8]) -> bool {
    widen(span.end - span.start) == key.len()
        && &chunk(chunks, open, span).as_bytes()[widen(span.start)..widen(span.end)] == key
}

/// `(key, string)` pairs in id order.
fn iter<'a>(
    chunks: &'a [Arc<str>],
    open: &'a str,
    spans: &'a [Span],
) -> impl Iterator<Item = (ResourceKey, &'a str)> {
    (0u32..)
        .zip(spans)
        .map(move |(id, &span)| (ResourceKey(id), text(chunks, open, span)))
}

/// The slot count of a table for `keys` keys: none for none, else a power
/// of two, at least twice the keys.
fn slots_for(keys: usize) -> usize {
    match keys {
        0 => 0,
        _ => keys.saturating_mul(2).next_power_of_two().max(MIN_SLOTS),
    }
}

/// One slot of the lookup table: a key's id and where its bytes are, so a
/// probe that matches the slot's tag reaches the bytes in one more step.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    id: u32,
    span: Span,
}

/// Slots per probe group: one `u64` of tags.
const GROUP: usize = 8;

/// The low and the high bit of every tag byte of a group.
const LOW_BITS: u64 = 0x0101_0101_0101_0101;
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// A slot's tag: its key's top seven hash bits with the high bit set. An
/// empty slot's tag is zero.
fn tag(hash: u64) -> u8 {
    0x80 | u8::try_from(hash >> 57).expect("seven bits")
}

/// The slot of the byte a group's bit mask names.
fn slot_at(group: usize, mask: u64) -> usize {
    group * GROUP + widen(mask.trailing_zeros() / 8)
}

/// The open-addressed lookup table. Slots come in groups of eight whose
/// tags share one word, so a probe compares a group's eight tags at once,
/// reads only the slots whose tag matches, and stops at the first group
/// with an empty slot.
#[derive(Clone, Default)]
struct Table {
    /// A power of two long, or empty.
    groups: Vec<u64>,
    /// `GROUP` per group.
    slots: Vec<Slot>,
}

impl Table {
    /// A table of `slots` slots holding `entries`, each a key's hash and
    /// slot.
    fn build(slots: usize, entries: impl Iterator<Item = (u64, Slot)>) -> Self {
        let mut table = Table {
            groups: vec![0; slots / GROUP],
            slots: vec![Slot::default(); slots],
        };
        for (hash, slot) in entries {
            let at = table.vacancy(hash);
            table.put(at, hash, slot);
        }
        table
    }

    /// Number of slots.
    fn len(&self) -> usize {
        self.slots.len()
    }

    /// The id of `key`, whose hash is `hash` and whose bytes are in
    /// `chunks` and `open`, or the empty slot it would be filed in (any
    /// index when the table is empty).
    #[inline]
    fn find(
        &self,
        chunks: &[Arc<str>],
        open: &str,
        hash: u64,
        key: &[u8],
    ) -> Result<ResourceKey, usize> {
        let mask = self.groups.len().wrapping_sub(1);
        // The group is the hash's low bits; truncating it is the point.
        let mut group = hash as usize & mask;
        let tags = u64::from(tag(hash)) * LOW_BITS;
        while let Some(&word) = self.groups.get(group) {
            // A zero byte of `word ^ tags` is a matching tag. The borrow
            // can also flag a byte above a real match: the bytes decide.
            let differ = word ^ tags;
            let mut matches = differ.wrapping_sub(LOW_BITS) & !differ & HIGH_BITS;
            while matches != 0 {
                let slot = self.slots[slot_at(group, matches)];
                if is_at(chunks, open, slot.span, key) {
                    return Ok(ResourceKey(slot.id));
                }
                matches &= matches - 1;
            }
            let empty = !word & HIGH_BITS;
            if empty != 0 {
                return Err(slot_at(group, empty));
            }
            group = (group + 1) & mask;
        }
        Err(0)
    }

    /// The first empty slot on `hash`'s probe sequence.
    fn vacancy(&self, hash: u64) -> usize {
        let mask = self.groups.len() - 1;
        let mut group = hash as usize & mask;
        loop {
            let empty = !self.groups[group] & HIGH_BITS;
            if empty != 0 {
                return slot_at(group, empty);
            }
            group = (group + 1) & mask;
        }
    }

    fn put(&mut self, at: usize, hash: u64, slot: Slot) {
        self.groups[at / GROUP] |= u64::from(tag(hash)) << (8 * (at % GROUP));
        self.slots[at] = slot;
    }
}

/// Debug output for either side of the store: its keys in id order.
fn debug_keys<'a>(
    f: &mut fmt::Formatter<'_>,
    keys: impl Iterator<Item = (ResourceKey, &'a str)>,
) -> fmt::Result {
    f.debug_list().entries(keys.map(|(_, key)| key)).finish()
}

/// An immutable, cheaply shareable snapshot of a [`KeyInterner`]: string →
/// key, id → string and the `(script, name)` → method-key pair cache.
///
/// A [`VerdictTable`](crate::VerdictTable) pins one of these so a
/// concurrent reader resolves query strings against exactly the key space
/// its dense class arrays were built for — keys interned after the freeze
/// simply miss, which the verdict walk already treats as "not observed".
/// A freeze shares the interner's sealed chunks (an `Arc` clone each) and
/// copies its open chunk (at most 64 KiB), its span table (twelve bytes a
/// key), its lookup table and its pair cache: a fixed number of buffers and
/// no per-key allocation. The writer re-freezes only when the interner has
/// grown since the last published table.
///
/// The view a [`SifterSnapshot`](crate::SifterSnapshot) carries
/// is frozen without the lookup table, which an export never reads: it is
/// rebuilt from the spans the first time the view looks a string up.
#[derive(Clone, Default)]
pub struct FrozenKeys {
    /// The interner's sealed chunks, then a copy of its open chunk.
    chunks: Vec<Arc<str>>,
    spans: Vec<Span>,
    seed: u64,
    table: OnceLock<Table>,
    pairs: MethodPairs,
}

impl FrozenKeys {
    fn table(&self) -> &Table {
        self.table.get_or_init(|| {
            let entries = (0u32..).zip(&self.spans).map(|(id, &span)| {
                let hash = fold_bytes(self.seed, text(&self.chunks, "", span).as_bytes());
                (hash, Slot { id, span })
            });
            Table::build(slots_for(self.spans.len()), entries)
        })
    }

    /// Look up a string's key. Strings interned after the freeze miss.
    #[inline]
    pub(crate) fn key(&self, key: &str) -> Option<ResourceKey> {
        let key = key.as_bytes();
        let hash = fold_bytes(self.seed, key);
        self.table().find(&self.chunks, "", hash, key).ok()
    }

    /// Look up the composed method key of an already-resolved
    /// `(script, method-name)` pair without building the
    /// `script :: method` string.
    #[inline]
    pub(crate) fn method_key(&self, script: ResourceKey, name: ResourceKey) -> Option<ResourceKey> {
        self.pairs.get(&(script, name)).copied()
    }

    /// The string of `key`, or `None` for a key the snapshot does not
    /// resolve (one interned after the freeze).
    pub(crate) fn string(&self, key: ResourceKey) -> Option<&str> {
        let span = *self.spans.get(key.index())?;
        Some(text(&self.chunks, "", span))
    }

    /// Number of distinct keys the snapshot resolves.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when the snapshot resolves no keys at all.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of `(script, name)` pairs the snapshot resolves.
    fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Bounds-check an untrusted numeric id (e.g. from a binary wire
    /// request) into a [`ResourceKey`] of this snapshot. `None` for ids the
    /// snapshot never assigned — the safe "unknown key" answer, never a
    /// panic.
    #[inline]
    pub fn key_for_id(&self, id: u32) -> Option<ResourceKey> {
        (widen(id) < self.spans.len()).then_some(ResourceKey(id))
    }

    /// Iterate `(key, string)` pairs in dense id order — the export shape
    /// of a key-interning handshake (`GET /v1/keys`) and of a snapshot.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceKey, &str)> {
        iter(&self.chunks, "", &self.spans)
    }
}

impl fmt::Debug for FrozenKeys {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        debug_keys(f, self.iter())
    }
}

/// An append-only string interner for resource keys; see the module docs
/// of `intern.rs` for how it stores them.
#[derive(Clone)]
pub struct KeyInterner {
    /// Full chunks, shared with every frozen view taken since each sealed.
    sealed: Vec<Arc<str>>,
    /// The chunk keys are appended to, numbered `sealed.len()`.
    open: String,
    /// id → where the key's bytes are.
    spans: Vec<Span>,
    /// id → the key's hash, so table growth never reads a key.
    hashes: Vec<u64>,
    /// The hash seed, drawn per interner.
    seed: u64,
    table: Table,
    pairs: MethodPairs,
}

impl Default for KeyInterner {
    fn default() -> Self {
        Self::with_seed(RandomState::new().hash_one(0u64))
    }
}

impl KeyInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty interner with room for `capacity` distinct keys.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut interner = Self::new();
        interner.resize(slots_for(capacity));
        interner
    }

    /// An empty interner that hashes from `seed`.
    pub(crate) fn with_seed(seed: u64) -> Self {
        KeyInterner {
            sealed: Vec::new(),
            open: String::new(),
            spans: Vec::new(),
            hashes: Vec::new(),
            seed,
            table: Table::default(),
            pairs: MethodPairs::default(),
        }
    }

    fn find(&self, hash: u64, key: &[u8]) -> Result<ResourceKey, usize> {
        self.table.find(&self.sealed, &self.open, hash, key)
    }

    /// Intern a string, returning its symbol. A new string costs its bytes
    /// in the arena; only a chunk seal or a table growth allocates.
    pub fn intern(&mut self, key: &str) -> ResourceKey {
        let hash = fold_bytes(self.seed, key.as_bytes());
        match self.find(hash, key.as_bytes()) {
            Ok(id) => id,
            Err(vacancy) => {
                let span = self.append(key);
                self.file(hash, span, vacancy)
            }
        }
    }

    /// [`KeyInterner::intern`] that first tries `hint`, the id the caller
    /// expects `key` to have (the sifter passes the key it interned for the
    /// previous row): when that id's string is `key`, no hash is taken.
    /// Strings are stored once each, so the answer is the id `intern` would
    /// return, whatever the hint — absent, stale or another key's.
    pub(crate) fn intern_hinted(&mut self, hint: Option<ResourceKey>, key: &str) -> ResourceKey {
        let hit = |span: &Span| is_at(&self.sealed, &self.open, *span, key.as_bytes());
        match hint {
            Some(id) if self.spans.get(id.index()).is_some_and(hit) => id,
            _ => self.intern(key),
        }
    }

    /// Intern the method-granularity key for a `(script, method)` pair.
    ///
    /// After the first occurrence of a pair, this is the two parts' lookups
    /// and one on their `Copy` ids — the composed `script :: method` string
    /// is never rebuilt.
    pub fn intern_method(&mut self, script_url: &str, method: &str) -> ResourceKey {
        let (script, name) = (self.intern(script_url), self.intern(method));
        self.intern_method_pair((script, script_url), (name, method))
    }

    /// [`KeyInterner::intern_method`] for a pair whose two strings are
    /// already interned, each given with its key: a caller that needs the
    /// script and name keys itself interns each once, not twice. A new
    /// pair's key is composed from the two strings straight into the arena.
    pub(crate) fn intern_method_pair(
        &mut self,
        (script, script_url): (ResourceKey, &str),
        (name, method): (ResourceKey, &str),
    ) -> ResourceKey {
        if let Some(&id) = self.pairs.get(&(script, name)) {
            return id;
        }
        debug_assert_eq!(
            (self.resolve(script), self.resolve(name)),
            (script_url, method)
        );
        let id = self.intern_composed(script_url, method);
        self.pairs.insert((script, name), id);
        id
    }

    /// Intern `script :: method`, written into the open chunk and hashed
    /// there: kept when it is new, cut off again when an earlier
    /// [`KeyInterner::intern`] filed the same string.
    fn intern_composed(&mut self, script_url: &str, method: &str) -> ResourceKey {
        let len = script_url
            .len()
            .checked_add(ResourceKey::METHOD_SEPARATOR.len())
            .and_then(|len| len.checked_add(method.len()))
            .expect("a method key's length fits in usize");
        if !self.make_room(len) {
            return self.intern(&ResourceKey::method_label(script_url, method));
        }
        let start = self.open.len();
        ResourceKey::push_method_label(&mut self.open, script_url, method);
        let composed = &self.open.as_bytes()[start..];
        let hash = fold_bytes(self.seed, composed);
        match self.find(hash, composed) {
            Ok(id) => {
                self.open.truncate(start);
                id
            }
            Err(vacancy) => {
                let span = self.open_span(start);
                self.file(hash, span, vacancy)
            }
        }
    }

    /// Append `key` to the arena and return its span.
    fn append(&mut self, key: &str) -> Span {
        if !self.make_room(key.len()) {
            self.sealed.push(Arc::from(key));
            return Span {
                chunk: offset(self.sealed.len() - 1),
                start: 0,
                end: offset(key.len()),
            };
        }
        let start = self.open.len();
        self.open.push_str(key);
        self.open_span(start)
    }

    /// Make room for a `len`-byte key at the end of the open chunk, sealing
    /// the chunk first when the key would not fit in what is left of it.
    /// `false` for a key longer than a chunk, which the open chunk never
    /// takes.
    fn make_room(&mut self, len: usize) -> bool {
        if len > CHUNK_BYTES - self.open.len() && !self.open.is_empty() {
            self.sealed.push(Arc::from(self.open.as_str()));
            self.open.clear();
        }
        if len > CHUNK_BYTES {
            return false;
        }
        if self.open.capacity() == 0 {
            self.open.reserve_exact(CHUNK_BYTES);
        }
        true
    }

    /// The span from `start` to the end of the open chunk.
    fn open_span(&self, start: usize) -> Span {
        Span {
            chunk: offset(self.sealed.len()),
            start: offset(start),
            end: offset(self.open.len()),
        }
    }

    /// Give the key at `span` the next id and file it under `hash`, in
    /// `vacancy` unless the table must grow first.
    fn file(&mut self, hash: u64, span: Span, vacancy: usize) -> ResourceKey {
        let len = self.spans.len();
        let id = u32::try_from(len)
            .ok()
            .filter(|&id| id < u32::MAX)
            .expect("fewer than u32::MAX interned keys");
        let vacancy = if (len + 1) * 2 > self.table.len() {
            self.resize(slots_for(len + 1));
            self.table.vacancy(hash)
        } else {
            vacancy
        };
        self.spans.push(span);
        self.hashes.push(hash);
        self.table.put(vacancy, hash, Slot { id, span });
        ResourceKey(id)
    }

    /// Rebuild the table with `slots` slots from the stored hashes, and
    /// size the per-id vectors for the keys it holds before it must grow
    /// again.
    fn resize(&mut self, slots: usize) {
        let entries = (0u32..)
            .zip(self.hashes.iter().zip(&self.spans))
            .map(|(id, (&hash, &span))| (hash, Slot { id, span }));
        self.table = Table::build(slots, entries);
        let room = slots / 2;
        self.spans
            .reserve_exact(room.saturating_sub(self.spans.len()));
        self.hashes
            .reserve_exact(room.saturating_sub(self.hashes.len()));
    }

    /// Look up a string without interning it.
    #[cfg(test)]
    pub(crate) fn get(&self, key: &str) -> Option<ResourceKey> {
        self.find(fold_bytes(self.seed, key.as_bytes()), key.as_bytes())
            .ok()
    }

    /// Resolve a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `key` came from a different interner and is out of range.
    pub fn resolve(&self, key: ResourceKey) -> &str {
        text(&self.sealed, &self.open, self.spans[key.index()])
    }

    /// Snapshot the lookup state as an immutable [`FrozenKeys`] view. See
    /// the [`FrozenKeys`] docs for cost and staleness semantics.
    pub fn freeze(&self) -> FrozenKeys {
        self.freeze_with(OnceLock::from(self.table.clone()), self.pairs.clone())
    }

    /// [`KeyInterner::freeze`] without the lookup table and the pair cache:
    /// the ids and strings a snapshot carries. Restore re-files the pairs,
    /// and the view rebuilds its table if it is ever asked for a key.
    pub(crate) fn freeze_strings(&self) -> FrozenKeys {
        self.freeze_with(OnceLock::new(), MethodPairs::default())
    }

    fn freeze_with(&self, table: OnceLock<Table>, pairs: MethodPairs) -> FrozenKeys {
        let mut chunks = Vec::with_capacity(self.sealed.len() + 1);
        chunks.extend(self.sealed.iter().cloned());
        if !self.open.is_empty() {
            chunks.push(Arc::from(self.open.as_str()));
        }
        FrozenKeys {
            chunks,
            spans: self.spans.clone(),
            seed: self.seed,
            table,
            pairs,
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
        self.spans.len()
    }

    /// Number of `(script, name)` method pairs filed by
    /// [`KeyInterner::intern_method`]. Together with [`KeyInterner::len`]
    /// this tells a cached [`FrozenKeys`] whether it is stale.
    fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterate `(key, string)` pairs in first-seen (id) order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ResourceKey, &str)> {
        iter(&self.sealed, &self.open, &self.spans)
    }
}

impl fmt::Debug for KeyInterner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        debug_keys(f, self.iter())
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

        // The other order: a composed key interned as a plain string first
        // is found by the pair, and the composition leaves no bytes behind.
        let plain = interner.intern("t.js :: go");
        let arena = interner.open.len();
        assert_eq!(interner.intern_method("t.js", "go"), plain);
        assert_eq!(interner.open.len(), arena + "t.js".len() + "go".len());
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
        assert_eq!(frozen.string(d), Some("ads.com"));
        let s = interner.get("s.js").unwrap();
        let name = interner.get("run").unwrap();
        assert_eq!(frozen.method_key(s, name), Some(m));

        // Keys interned after the freeze miss in the frozen view but hit in
        // the live interner — the staleness the pair/len counters detect.
        let late = interner.intern("late.com");
        assert_eq!(frozen.key("late.com"), None);
        assert_eq!(frozen.string(late), None);
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
        assert_eq!(
            format!("{frozen:?}"),
            r#"["ads.com", "px.ads.com", "s.js"]"#
        );
    }

    #[test]
    fn an_empty_store_resolves_nothing() {
        let (interner, frozen) = (KeyInterner::new(), FrozenKeys::default());
        assert_eq!(interner.get(""), None);
        assert_eq!(frozen.key(""), None);
        assert_eq!(frozen.method_key(ResourceKey(0), ResourceKey(0)), None);
        assert_eq!(frozen.key_for_id(0), None);
        assert!(interner.freeze().is_empty());
        assert_eq!(KeyInterner::with_capacity(10_000).get("x"), None);
    }

    /// One step of the key-store proptest.
    #[derive(Debug, Clone)]
    enum Op {
        /// Intern a key of the pool, with a hint: absent, the previous
        /// key's id (0), or an id of its own, which may be no key's yet.
        Intern(usize, Option<u32>),
        /// Intern the method key of two pool keys.
        Method(usize, usize),
        /// Intern a new key that fills the open chunk to exactly its end.
        Fill,
        /// Intern this many new keys, enough to grow the table.
        Burst(usize),
        /// Freeze the store, to be checked at the end of the run.
        Freeze,
    }

    /// Keys of every shape the store handles specially: the empty key,
    /// keys holding the method separator (whole or at an end), multi-byte
    /// UTF-8, and keys of a chunk, one byte longer and three chunks long.
    fn key_pool() -> Vec<String> {
        let mut pool: Vec<String> = [
            "",
            "k0",
            "k1",
            "k2",
            "s.js",
            "run",
            " :: ",
            "a :: b",
            "s.js :: run",
            "é",
            "中文 :: 🦀",
            "https://x.com/a.js",
        ]
        .map(String::from)
        .to_vec();
        pool.push("c".repeat(CHUNK_BYTES));
        pool.push("d".repeat(CHUNK_BYTES + 1));
        pool.push("€".repeat(CHUNK_BYTES));
        pool
    }

    fn arb_op(pool: usize) -> impl proptest::Strategy<Value = Op> {
        use proptest::prelude::*;
        prop_oneof![
            (0..pool, proptest::option::of(0u32..8)).prop_map(|(k, h)| Op::Intern(k, h)),
            (0..pool, 0..pool).prop_map(|(s, n)| Op::Method(s, n)),
            (0u8..1).prop_map(|_| Op::Fill),
            (1usize..400).prop_map(Op::Burst),
            (0u8..1).prop_map(|_| Op::Freeze),
        ]
    }

    /// The store's model: each key's first-seen position.
    #[derive(Default)]
    struct Model {
        ids: HashMap<String, u32>,
        order: Vec<String>,
    }

    impl Model {
        fn file(&mut self, key: &str) -> u32 {
            if let Some(&id) = self.ids.get(key) {
                return id;
            }
            let id = self.order.len() as u32;
            self.ids.insert(key.to_string(), id);
            self.order.push(key.to_string());
            id
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// The store against a first-seen `HashMap<String, u32>` model, run
        /// twice from different hash seeds. Every answer — an intern, a
        /// hinted intern, a method intern — is the model's id, and each is
        /// the same from both seeds; at the end the writer resolves every
        /// key, and every freeze resolves exactly the keys interned before
        /// it, however much the writer grew its table and arena since.
        #[test]
        fn a_hinted_intern_returns_the_id_intern_would(
            ops in proptest::collection::vec(arb_op(key_pool().len()), 0..48),
            seeds in (0u64..u64::MAX, 0u64..u64::MAX),
        ) {
            use proptest::prop_assert_eq;
            let pool = key_pool();
            let mut model = Model::default();
            let mut stores = [KeyInterner::with_seed(seeds.0), KeyInterner::with_seed(seeds.1)];
            let mut freezes = Vec::new();
            let (mut previous, mut fresh) = (None, 0usize);
            for op in &ops {
                match *op {
                    Op::Intern(k, hint) => {
                        let hint = match hint {
                            Some(0) => previous,
                            other => other.map(ResourceKey),
                        };
                        let id = model.file(&pool[k]);
                        for store in &mut stores {
                            prop_assert_eq!(store.intern_hinted(hint, &pool[k]), ResourceKey(id));
                        }
                        previous = Some(ResourceKey(id));
                    }
                    Op::Method(s, n) => {
                        let (script, name) = (model.file(&pool[s]), model.file(&pool[n]));
                        let id = model.file(&ResourceKey::method_label(&pool[s], &pool[n]));
                        for store in &mut stores {
                            prop_assert_eq!(store.intern_method(&pool[s], &pool[n]), ResourceKey(id));
                            prop_assert_eq!(store.resolve(ResourceKey(id)), model.order[id as usize].as_str());
                            let pair = (ResourceKey(script), ResourceKey(name));
                            prop_assert_eq!(store.pairs.get(&pair).copied(), Some(ResourceKey(id)));
                        }
                    }
                    Op::Fill => {
                        // Both stores fill alike: their arenas are equal.
                        let prefix = format!("fill{fresh}:");
                        fresh += 1;
                        let rest = CHUNK_BYTES - stores[0].open.len();
                        let key = format!("{prefix}{}", "f".repeat(rest.saturating_sub(prefix.len())));
                        let id = model.file(&key);
                        for store in &mut stores {
                            prop_assert_eq!(store.intern(&key), ResourceKey(id));
                        }
                        if rest >= prefix.len() {
                            prop_assert_eq!(stores[0].open.len(), CHUNK_BYTES);
                        }
                    }
                    Op::Burst(n) => {
                        for _ in 0..n {
                            let key = format!("burst{fresh}");
                            fresh += 1;
                            let id = model.file(&key);
                            for store in &mut stores {
                                prop_assert_eq!(store.intern(&key), ResourceKey(id));
                            }
                        }
                    }
                    // One store's view carries its table, the other's
                    // (a snapshot's) rebuilds it on first lookup.
                    Op::Freeze => freezes.push((stores[0].freeze(), stores[1].freeze_strings(), model.order.len())),
                }
                prop_assert_eq!(stores[0].len(), model.order.len());
                prop_assert_eq!(stores[1].len(), model.order.len());
            }
            let order = &model.order;
            for store in &stores {
                let listed: Vec<&str> = store.iter().map(|(_, key)| key).collect();
                prop_assert_eq!(&listed, &order.iter().map(String::as_str).collect::<Vec<_>>());
                for (id, key) in order.iter().enumerate() {
                    prop_assert_eq!(store.get(key), Some(ResourceKey(id as u32)));
                }
            }
            prop_assert_eq!(stores[0].get("never interned"), None);
            for (a, b, len) in &freezes {
                for frozen in [a, b] {
                    prop_assert_eq!(frozen.len(), *len);
                    let listed: Vec<&str> = frozen.iter().map(|(_, key)| key).collect();
                    prop_assert_eq!(&listed, &order[..*len].iter().map(String::as_str).collect::<Vec<_>>());
                    for (id, key) in order.iter().enumerate() {
                        let expected = (id < *len).then_some(ResourceKey(id as u32));
                        prop_assert_eq!(frozen.key(key), expected);
                    }
                }
            }
        }
    }

    /// Every string the 500-site paper corpus (seed 2021) interns on its
    /// way into a sifter — domains, hostnames, script URLs, method names and
    /// composed method keys, in first-seen order.
    fn paper_corpus_keys() -> KeyInterner {
        let profile = websim::CorpusProfile::paper().with_sites(500);
        let requests = crate::testutil::crawled_rows(&profile, 2021);
        let mut interner = KeyInterner::new();
        for request in &requests {
            interner.intern(&request.domain);
            interner.intern(&request.hostname);
            interner.intern_method(&request.initiator_script, &request.initiator_method);
        }
        interner
    }

    /// The byte-at-a-time hash the interner's maps used before the folded
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
        use std::hash::BuildHasherDefault;
        let interner = paper_corpus_keys();
        let keys: Vec<&str> = interner.iter().map(|(_, key)| key).collect();
        assert!(keys.len() > 10_000, "{} keys", keys.len());
        let fnv = BuildHasherDefault::<FnvReference>::default();
        let fnv: Vec<u64> = keys.iter().map(|k| fnv.hash_one(k)).collect();
        // The maps hashed with `TokenHashBuilder`, and the store's own
        // table, seeded two ways.
        let folded: [(bool, Vec<u64>); 3] = [
            (
                false,
                keys.iter().map(|k| TokenHashBuilder.hash_one(k)).collect(),
            ),
            (
                true,
                keys.iter().map(|k| fold_bytes(0, k.as_bytes())).collect(),
            ),
            (
                true,
                keys.iter()
                    .map(|k| fold_bytes(2021, k.as_bytes()))
                    .collect(),
            ),
        ];
        // No two keys share a full hash under any of them.
        let distinct = |hashes: &[u64]| hashes.iter().collect::<HashSet<_>>().len();
        assert_eq!(distinct(&fnv), keys.len());

        // A table reads a hash at its two ends: the low bits choose the
        // bucket, the top ones are the tag compared before the key is. A
        // uniform spread reads chi-square ≈ bins − 1 with a standard
        // deviation of √(2·(bins − 1)); the folded hash must be within
        // four of those of uniform, or no lumpier than FNV was.
        let occupied = |hashes: &[u64]| {
            hashes
                .iter()
                .map(|h| h & 0xfff)
                .collect::<HashSet<_>>()
                .len()
        };
        for (seeded, folded) in &folded {
            assert_eq!(distinct(folded), keys.len());
            for (name, bins, bin_of) in [
                (
                    "low 12 bits",
                    4096,
                    (|h| (h & 0xfff) as usize) as fn(u64) -> usize,
                ),
                ("top 7 bits", 128, |h| (h >> 57) as usize),
                ("low 12 bits of the top half", 4096, |h| {
                    (h >> 32 & 0xfff) as usize
                }),
            ] {
                let uniform = (bins - 1) as f64 + 4.0 * (2.0 * (bins - 1) as f64).sqrt();
                let (ours, theirs) = (
                    chi_square(folded, bins, bin_of),
                    chi_square(&fnv, bins, bin_of),
                );
                assert!(
                    ours <= uniform.max(theirs),
                    "{name}: folded {ours:.0}, FNV {theirs:.0}, uniform bound {uniform:.0}"
                );
            }
            // Buckets in use: the maps' hash uses no fewer than FNV; a
            // seeded store hash no fewer than FNV or than four standard
            // deviations under what a uniform hash uses.
            let (bins, load) = (4096.0, keys.len() as f64 / 4096.0);
            let uniform = bins * (1.0 - (-load).exp())
                - 4.0 * (bins * ((-load).exp() - (1.0 + load) * (-2.0 * load).exp())).sqrt();
            let (ours, theirs) = (occupied(folded), occupied(&fnv));
            assert!(
                ours >= theirs || (*seeded && ours as f64 >= uniform),
                "{ours} buckets in use, FNV {theirs}, uniform bound {uniform:.0}"
            );
        }
    }

    #[test]
    fn frozen_keys_round_trip_every_key_of_the_paper_corpus() {
        let interner = paper_corpus_keys();
        let (frozen, strings) = (interner.freeze(), interner.freeze_strings());
        assert_eq!(frozen.len(), interner.len());
        assert_eq!(strings.len(), interner.len());
        for (key, string) in interner.iter() {
            assert_eq!(frozen.key(string), Some(key), "{string}");
            assert_eq!(strings.key(string), Some(key), "{string}");
            assert_eq!(interner.get(string), Some(key), "{string}");
            assert_eq!(frozen.string(key), Some(string));
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
        assert!(
            interner.sealed.len() > 4,
            "{} chunks",
            interner.sealed.len()
        );
        assert_eq!(frozen.key("never-seen.example"), None);
    }
}
