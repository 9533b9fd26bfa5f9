//! The serving writer's label memo: what [`Sifter::apply`] labeled a raw
//! `(url, page host, resource type)` triple as in this commit interval and
//! the one before it.
//!
//! A continuous re-crawl (`Scheduler::tick`, the `ingest_replicate`
//! workload) labels the whole corpus every epoch, and ≈ 90% of an epoch's
//! triples were already labeled in the previous one, while none repeats
//! within an epoch. So the memo's unit of lifetime is the commit interval,
//! and an entry lives while its triple was seen in the current or the
//! previous interval:
//!
//! * one table maps a triple's hash to its [`Slot`], which records the
//!   interval the triple was last seen in. A hit re-tags the slot with the
//!   current interval, in place, so a triple re-seen every interval is
//!   carried forward without copying or allocating;
//! * a commit [`flip`](LabelMemo::flip)s to the next interval: a counter
//!   bump, after which the slots last seen two intervals back are dead. A
//!   stream that never commits flips every [`FLIP_ROWS`] remembered
//!   triples instead, which bounds the memo without a commit;
//! * dead slots are swept out when the table would otherwise grow, and the
//!   URL bytes live once, in an append-only arena that is compacted in
//!   place instead of grown when an append does not fit. It grows only when
//!   compaction left less than an eighth of the live bytes spare, and then
//!   to 1.25× them plus one row. Sweep and compaction each leave room for
//!   at least an eighth more, so a pass is paid for by the inserts that
//!   fill the room. On a re-crawl whose triples churn by 10% an interval,
//!   the live bytes are ≈ 1.1× one interval's. Page hosts, one per crawled
//!   page, are stored once each and named by id.
//!
//! A lookup compares the stored bytes, so a hash collision can only cost a
//! miss: a colliding triple is labeled afresh and not remembered.
//!
//! [`Sifter::apply`]: crate::Sifter::apply

use crate::intern::ResourceKey;
use filterlist::tokens::TokenHashBuilder;
use filterlist::{RequestLabel, ResourceType};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Triples remembered in one interval before it is closed without a commit.
const FLIP_ROWS: usize = 1 << 16;

/// The smallest arena a compaction leaves.
const MIN_ARENA: usize = 4 << 10;

/// What a triple labeled to: the oracle's label and the attribution keys
/// the labeling derived, interned when the triple was first labeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Remembered {
    pub(crate) label: RequestLabel,
    pub(crate) hostname: ResourceKey,
    pub(crate) domain: ResourceKey,
}

/// One remembered triple: where its URL lies in the arena, its page host's
/// id, its type, what it labeled to — [`Remembered`]'s fields laid out
/// flat — and the interval it was last seen in. A slot and its 32-bit key
/// fill 24 bytes; a URL longer than 64 KiB is not remembered.
#[derive(Debug, Clone, Copy)]
struct Slot {
    offset: u32,
    url_len: u16,
    host: u16,
    resource_type: ResourceType,
    label: RequestLabel,
    seen: u16,
    hostname: ResourceKey,
    domain: ResourceKey,
}

const _: () = assert!(std::mem::size_of::<(u32, Slot)>() == 24);

impl Slot {
    fn bytes(&self) -> usize {
        usize::from(self.url_len)
    }
}

/// The memo itself; see the [module docs](self).
#[derive(Debug, Default)]
pub(crate) struct LabelMemo {
    /// Keyed by the triple's hash folded to 32 bits: two live triples
    /// sharing a key cost the second one its memo entry, nothing more. The
    /// key comes from an unkeyed hash of outside input, so the table keeps
    /// the standard randomly keyed hasher: crafted triples can share keys,
    /// not flood one probe sequence.
    slots: HashMap<u32, Slot>,
    /// The URL bytes of every slot, each range referred to by one slot, and
    /// the dead bytes of slots swept out since the last compaction.
    arena: Vec<u8>,
    /// Page hosts by id, and ids by page host.
    hosts: Vec<Box<str>>,
    host_ids: HashMap<Box<str>, u16>,
    /// The current interval, wrapping; a slot is live while it was seen in
    /// this interval or the one before.
    interval: u16,
    /// Triples remembered since the last flip.
    filed: usize,
}

impl LabelMemo {
    /// The key a triple is filed under.
    pub(crate) fn hash(url: &str, source_hostname: &str, resource_type: ResourceType) -> u32 {
        let mut hasher = TokenHashBuilder.build_hasher();
        hasher.write(url.as_bytes());
        hasher.write(source_hostname.as_bytes());
        hasher.write_u8(resource_type as u8);
        (hasher.finish() >> 32) as u32
    }

    /// What the triple hashed to `hash` labeled to, if it was seen in this
    /// interval or the previous one; a hit counts as seen in this one.
    pub(crate) fn get(
        &mut self,
        hash: u32,
        url: &str,
        source_hostname: &str,
        resource_type: ResourceType,
    ) -> Option<Remembered> {
        let interval = self.interval;
        let slot = self.slots.get_mut(&hash)?;
        let start = slot.offset as usize;
        if !is_live(slot, interval)
            || slot.resource_type != resource_type
            || self.arena[start..start + slot.bytes()] != *url.as_bytes()
            || *self.hosts[usize::from(slot.host)] != *source_hostname
        {
            return None;
        }
        slot.seen = interval;
        Some(Remembered {
            label: slot.label,
            hostname: slot.hostname,
            domain: slot.domain,
        })
    }

    /// Remember a triple [`LabelMemo::get`] missed. A triple whose hash
    /// collides with a live one is not remembered.
    pub(crate) fn insert(
        &mut self,
        hash: u32,
        url: &str,
        source_hostname: &str,
        resource_type: ResourceType,
        value: Remembered,
    ) {
        let Ok(url_len) = u16::try_from(url.len()) else {
            return;
        };
        if self.arena.len() + url.len() > u32::MAX as usize {
            return;
        }
        let host = self.host_id(source_hostname);
        match self.slots.get(&hash) {
            Some(slot) if is_live(slot, self.interval) => return,
            Some(_) => {}
            None if self.slots.len() == self.slots.capacity() => self.sweep(),
            None => {}
        }
        if self.filed == FLIP_ROWS {
            self.flip();
        }
        self.make_room(url.len());
        let slot = Slot {
            offset: self.arena.len() as u32,
            url_len,
            host,
            resource_type,
            label: value.label,
            seen: self.interval,
            hostname: value.hostname,
            domain: value.domain,
        };
        self.arena.extend_from_slice(url.as_bytes());
        self.slots.insert(hash, slot);
        self.filed += 1;
    }

    /// Close a commit interval: the triples the previous one saw and this
    /// one did not are forgotten.
    pub(crate) fn flip(&mut self) {
        self.filed = 0;
        self.interval = self.interval.wrapping_add(1);
        if self.interval == 0 {
            // The tags wrap: a slot last seen 2^16 intervals ago would read
            // as seen in this one. Keep only what the closed interval saw.
            self.slots.retain(|_, slot| slot.seen == u16::MAX);
        }
    }

    /// Bytes held: the arena's capacity, and the table's (a bucket and a
    /// control byte per slot of a table filled to 7/8). The page hosts, one
    /// per site, are left out.
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> (usize, usize) {
        let table = match self.slots.capacity() {
            0 => 0,
            capacity => {
                let buckets = (capacity * 8).div_ceil(7).next_power_of_two();
                buckets * (std::mem::size_of::<(u32, Slot)>() + 1)
            }
        };
        (self.arena.capacity(), table)
    }

    /// The id of a page host, stored on first sight. Once every id is
    /// taken the memo starts over, so hosts no slot names any more cannot
    /// pile up.
    fn host_id(&mut self, host: &str) -> u16 {
        if let Some(&id) = self.host_ids.get(host) {
            return id;
        }
        if self.hosts.len() > usize::from(u16::MAX) {
            self.slots.clear();
            self.arena.clear();
            self.hosts.clear();
            self.host_ids.clear();
        }
        let id = self.hosts.len() as u16;
        self.hosts.push(host.into());
        self.host_ids.insert(host.into(), id);
        id
    }

    /// Drop the dead slots, and keep the table room for a quarter more live
    /// ones (their bytes are dropped at the next compaction).
    fn sweep(&mut self) {
        let interval = self.interval;
        self.slots.retain(|_, slot| is_live(slot, interval));
        self.slots.reserve(self.slots.len() / 4);
    }

    /// Make room in the arena for `bytes` more. When they do not fit, the
    /// live bytes are moved down over the dead ones first; the arena grows
    /// only when that leaves less than an eighth of them spare.
    fn make_room(&mut self, bytes: usize) {
        if self.arena.len() + bytes <= self.arena.capacity() {
            return;
        }
        let interval = self.interval;
        self.slots.retain(|_, slot| is_live(slot, interval));
        let live: usize = self.slots.values().map(Slot::bytes).sum();
        if live < self.arena.len() {
            let mut slots: Vec<(u32, &mut Slot)> = self
                .slots
                .values_mut()
                .map(|slot| (slot.offset, slot))
                .collect();
            slots.sort_unstable_by_key(|(offset, _)| *offset);
            let mut end = 0;
            for (start, slot) in slots {
                let start = start as usize;
                self.arena.copy_within(start..start + slot.bytes(), end);
                slot.offset = end as u32;
                end += slot.bytes();
            }
            self.arena.truncate(end);
        }
        // Grow only when compaction left less than an eighth spare, and
        // then to a quarter: a growing corpus reallocates the arena rarely.
        if self.arena.capacity() < live + live / 8 + bytes {
            let wanted = (live + live / 4 + bytes).max(MIN_ARENA);
            self.arena.reserve_exact(wanted - live);
        }
    }
}

/// Whether `slot` was seen in `interval` or the one before.
fn is_live(slot: &Slot, interval: u16) -> bool {
    interval.wrapping_sub(slot.seen) <= 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn remembered(index: u32) -> Remembered {
        Remembered {
            label: RequestLabel::Tracking,
            hostname: ResourceKey::test_key(index),
            domain: ResourceKey::test_key(index + 1),
        }
    }

    fn lookup(memo: &mut LabelMemo, url: &str, host: &str) -> Option<Remembered> {
        memo.get(
            LabelMemo::hash(url, host, ResourceType::Script),
            url,
            host,
            ResourceType::Script,
        )
    }

    fn remember(memo: &mut LabelMemo, url: &str, host: &str, index: u32) {
        let hash = LabelMemo::hash(url, host, ResourceType::Script);
        memo.insert(hash, url, host, ResourceType::Script, remembered(index));
    }

    fn live_bytes(memo: &LabelMemo) -> usize {
        let live = memo
            .slots
            .values()
            .filter(|slot| is_live(slot, memo.interval));
        live.map(Slot::bytes).sum()
    }

    #[test]
    fn a_triple_lives_for_its_interval_and_the_next() {
        let mut memo = LabelMemo::default();
        remember(&mut memo, "https://a.test/x", "p.com", 0);
        assert_eq!(
            lookup(&mut memo, "https://a.test/x", "p.com"),
            Some(remembered(0))
        );
        memo.flip();
        // Seen in the previous interval: a hit, which carries it forward.
        assert_eq!(
            lookup(&mut memo, "https://a.test/x", "p.com"),
            Some(remembered(0))
        );
        memo.flip();
        assert!(lookup(&mut memo, "https://a.test/x", "p.com").is_some());
        // Not seen for a whole interval: gone.
        memo.flip();
        memo.flip();
        assert_eq!(lookup(&mut memo, "https://a.test/x", "p.com"), None);
        assert_eq!(live_bytes(&memo), 0);
        // Labeled again, it is remembered again.
        remember(&mut memo, "https://a.test/x", "p.com", 3);
        assert_eq!(
            lookup(&mut memo, "https://a.test/x", "p.com"),
            Some(remembered(3))
        );
    }

    #[test]
    fn the_stored_bytes_decide_a_hit() {
        let mut memo = LabelMemo::default();
        let url = "https://a.test/x";
        remember(&mut memo, url, "p.com", 0);
        assert_eq!(lookup(&mut memo, url, "q.com"), None);
        assert_eq!(lookup(&mut memo, "https://a.test/X", "p.com"), None);
        let image = LabelMemo::hash(url, "p.com", ResourceType::Image);
        assert_eq!(memo.get(image, url, "p.com", ResourceType::Image), None);
        // A forged collision: the same hash, other bytes — a miss, and the
        // colliding triple is not remembered over the first.
        let forged = LabelMemo::hash(url, "p.com", ResourceType::Script);
        let other = "https://b.test/";
        assert_eq!(memo.get(forged, other, "p.com", ResourceType::Script), None);
        memo.insert(forged, other, "p.com", ResourceType::Script, remembered(7));
        assert_eq!(lookup(&mut memo, url, "p.com"), Some(remembered(0)));
        assert_eq!(memo.get(forged, other, "p.com", ResourceType::Script), None);
    }

    #[test]
    fn dead_bytes_are_compacted_away_instead_of_grown_into() {
        let mut memo = LabelMemo::default();
        let urls: Vec<String> = (0..20_000)
            .map(|n| format!("https://h{n}.test/{n}"))
            .collect();
        // Each interval keeps half of the last one's triples and adds as
        // many new ones: the arena must stay near the live bytes.
        for interval in 0..40 {
            let window = &urls[interval * 250..interval * 250 + 500];
            for (n, url) in window.iter().enumerate() {
                let index = (interval * 250 + n) as u32;
                match lookup(&mut memo, url, "p.com") {
                    Some(hit) => {
                        assert_eq!((hit, interval > 0 && n < 250), (remembered(index), true))
                    }
                    None => remember(&mut memo, url, "p.com", index),
                }
            }
            let interval_bytes: usize = window.iter().map(String::len).sum();
            assert!(live_bytes(&memo) <= 2 * interval_bytes);
            let (arena, _) = memo.footprint();
            assert!(
                arena <= 2 * interval_bytes + MIN_ARENA,
                "interval {interval}: arena {arena} B for {interval_bytes} B of keys"
            );
            assert!(memo.slots.len() <= 2 * window.len());
            memo.flip();
        }
    }

    #[test]
    fn a_commit_less_stream_flips_at_the_bound() {
        let mut memo = LabelMemo::default();
        for n in 0..=FLIP_ROWS {
            remember(&mut memo, &format!("https://a.test/{n}"), "p.com", 0);
        }
        assert_eq!((memo.interval, memo.filed), (1, 1));
        assert!(lookup(&mut memo, "https://a.test/0", "p.com").is_some());
    }

    #[test]
    fn running_out_of_page_host_ids_starts_the_memo_over() {
        let mut memo = LabelMemo::default();
        for n in 0..=usize::from(u16::MAX) {
            remember(&mut memo, "https://a.test/", &format!("p{n}.com"), 0);
        }
        assert_eq!(memo.hosts.len(), 1 << 16);
        assert!(lookup(&mut memo, "https://a.test/", "p0.com").is_some());
        remember(&mut memo, "https://a.test/", "one-more.com", 1);
        assert_eq!((memo.hosts.len(), memo.slots.len()), (1, 1));
        assert_eq!(lookup(&mut memo, "https://a.test/", "p0.com"), None);
        assert_eq!(
            lookup(&mut memo, "https://a.test/", "one-more.com"),
            Some(remembered(1))
        );
    }

    #[test]
    fn interval_tags_wrap_without_reviving_dead_slots() {
        let mut memo = LabelMemo::default();
        remember(&mut memo, "https://old.test/", "p.com", 0);
        memo.flip();
        memo.flip();
        remember(&mut memo, "https://new.test/", "p.com", 1);
        for _ in 0..u16::MAX {
            memo.flip();
            assert!(lookup(&mut memo, "https://new.test/", "p.com").is_some());
        }
        // 65,537 intervals after it was last seen, the old triple's tag
        // reads "this interval" again, modulo 2^16 — but it was swept out.
        assert_eq!(memo.interval, 1);
        assert_eq!(lookup(&mut memo, "https://old.test/", "p.com"), None);
        assert_eq!(memo.slots.len(), 1);
    }
}
