//! The shared zero-allocation tokenizer behind the rule index.
//!
//! Both sides of the token index — filing rules at build time
//! (`Pattern::index_token_hashes`) and selecting candidate
//! buckets at query time ([`crate::FilterRequest`]) — must agree
//! exactly on what a token is, or the index silently develops false
//! negatives. This module is the single definition both sides use: a token
//! is a maximal run of ASCII alphanumeric bytes of length ≥
//! `TOKEN_MIN_LEN`, lower-cased, and it is represented not as an owned
//! `String` but as its 64-bit FNV-1a hash, computed incrementally while
//! scanning. Tokenizing a URL therefore allocates nothing: the iterator
//! walks the byte slice once and yields `u64`s. Each token also carries its
//! *run prefix*, the hash of its first `TOKEN_MIN_LEN` bytes, which keys
//! the rules whose run is bounded only on the left
//! (`Pattern::index_run_prefixes`).
//!
//! Hash collisions (two distinct tokens with the same hash) are harmless by
//! construction: colliding tokens merely share a candidate bucket, and every
//! candidate rule is still verified with a full pattern match before it can
//! affect the result. The index tests exercise this with a forced-collision
//! case.
//!
//! The module also holds the workspace's one non-default hasher,
//! [`TokenHashBuilder`]: the rule index keys its maps by token hash with it,
//! and the classification and serving layers key theirs by string and by
//! interned id. Its byte fold, [`fold_bytes`], is also the observation
//! journal's frame checksum.

/// Minimum length of an indexable token (alphanumeric run).
pub(crate) const TOKEN_MIN_LEN: usize = 3;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hash a byte slice with 64-bit FNV-1a (the same fold the tokenizer applies
/// incrementally). Exposed so tests can compute the hash of a known token,
/// and so journal replay can still verify the frames written when it was
/// the journal's checksum.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash = fnv1a64_step(hash, b);
    }
    hash
}

/// One FNV-1a step: fold byte `b` into `hash`.
#[inline]
fn fnv1a64_step(hash: u64, b: u8) -> u64 {
    (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME)
}

/// Each ASCII alphanumeric byte's lower case; 0 for every other byte. One
/// load answers both questions the tokenizer asks of a byte — does it
/// continue a run, and what does the hash fold — so the scan has one branch
/// per byte instead of a class test and a case fold.
static FOLD: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        let byte = b as u8;
        if byte.is_ascii_alphanumeric() {
            table[b] = byte.to_ascii_lowercase();
        }
        b += 1;
    }
    table
};

/// Append to `hashes` the token hashes of `text` from byte `from` on, and to
/// `prefixes` their run prefixes ([`Token::prefix`]), both in text order,
/// repeats kept — collected from [`TokenHashes`], whose scan also reports
/// whether any byte it visits is upper-case ASCII, i.e. whether
/// `text[from..]` differs from its ASCII lower case at all. The request
/// builders read all three from one scan of the URL. `from` must not fall
/// inside an alphanumeric run: the request view resumes at a URL's
/// authority end, after the tokens of an authority it has seen before.
pub(crate) fn hash_tokens_into(
    text: &[u8],
    from: usize,
    hashes: &mut Vec<u64>,
    prefixes: &mut Vec<u64>,
) -> bool {
    let mut tokens = TokenHashes {
        text,
        pos: from,
        folded: false,
    };
    for token in tokens.by_ref() {
        hashes.push(token.hash);
        prefixes.push(token.prefix);
    }
    tokens.folded
}

/// One maximal alphanumeric run found by [`TokenHashes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Byte offset of the first byte of the run.
    pub(crate) start: usize,
    /// Byte offset one past the last byte of the run.
    pub end: usize,
    /// FNV-1a hash of the lower-cased run.
    pub hash: u64,
    /// FNV-1a hash of the run's first `TOKEN_MIN_LEN` lower-cased bytes:
    /// the scan's hash state at the run's third byte. A rule whose run is
    /// bounded only on the left is filed under this key, since the URL run
    /// holding it starts at the same byte.
    pub(crate) prefix: u64,
}

/// Zero-allocation iterator over the tokens of a byte slice.
///
/// Yields every maximal ASCII-alphanumeric run of length ≥
/// `TOKEN_MIN_LEN`, hashing the lower-cased bytes incrementally. Non-ASCII
/// bytes and ASCII punctuation both terminate runs, exactly as the original
/// string tokenizer did.
#[derive(Debug, Clone)]
pub struct TokenHashes<'a> {
    text: &'a [u8],
    pos: usize,
    /// Whether a byte scanned so far is upper-case ASCII. Upper-case bytes
    /// are alphanumeric, so the run loop visits every one of them, short
    /// runs included; once the iterator is exhausted this covers `text`.
    folded: bool,
}

impl<'a> TokenHashes<'a> {
    /// Tokenize a byte slice.
    pub fn new(text: &'a [u8]) -> Self {
        TokenHashes {
            text,
            pos: 0,
            folded: false,
        }
    }
}

impl Iterator for TokenHashes<'_> {
    type Item = Token;

    fn next(&mut self) -> Option<Token> {
        loop {
            // Skip to the next alphanumeric byte.
            while self.pos < self.text.len() && FOLD[usize::from(self.text[self.pos])] == 0 {
                self.pos += 1;
            }
            if self.pos >= self.text.len() {
                return None;
            }
            let start = self.pos;
            let mut hash = FNV_OFFSET;
            let mut prefix = FNV_OFFSET;
            while let Some(&b) = self.text.get(self.pos) {
                let folded = FOLD[usize::from(b)];
                if folded == 0 {
                    break;
                }
                self.folded |= folded != b;
                hash = fnv1a64_step(hash, folded);
                self.pos += 1;
                if self.pos - start == TOKEN_MIN_LEN {
                    prefix = hash;
                }
            }
            if self.pos - start >= TOKEN_MIN_LEN {
                return Some(Token {
                    start,
                    end: self.pos,
                    hash,
                    prefix,
                });
            }
            // Run too short: keep scanning.
        }
    }
}

/// Tokenize a string (typically an already lower-cased URL) into token
/// hashes. Zero-allocation: returns a lazy iterator over the bytes.
pub fn token_hashes(text: &str) -> TokenHashes<'_> {
    TokenHashes::new(text.as_bytes())
}

/// The crate's one [`std::hash::BuildHasher`]: for the rule index's maps
/// keyed by token hashes, and for every string- or id-keyed map on the
/// classification and serving paths (the key interner, the sifter's count
/// cells, the frozen key table).
///
/// It is unkeyed — the same bytes hash the same in every process — so it
/// belongs only where hash-flooding resistance buys nothing; SipHash's
/// per-lookup set-up and byte loop are what it saves. Three kinds of key
/// reach it:
///
/// * `u64` token hashes ([`std::hash::Hasher::write_u64`]) are already
///   FNV-mixed: they are XORed in and spread by the one Fibonacci multiply
///   of `finish`, nothing else;
/// * small integer ids (`write_u32`, `write_u8` — interner symbols, the
///   `0xff` a `str` ends its hash with) cost one folded multiply each;
/// * byte strings (`write`) are folded eight bytes per step, after their
///   length; the last step reads the key's final bytes in place. This is
///   [`fold_bytes`], which the observation journal also runs to checksum
///   its frames — so the byte fold is a persisted format, not only a
///   table's private choice, and changing it changes every journal frame
///   written after the change (the known-answer tests fail first).
///
/// The step is a 64×64→128 multiply whose halves are XORed together: the
/// table takes its bucket index from the hash's *low* bits and its tag from
/// the top seven, and a plain multiplicative step leaves the low bits a
/// function of each word's low bytes alone (`https://` would choose the
/// bucket). Folding the high half back carries every input bit into both
/// ends.
#[derive(Debug, Clone, Copy, Default)]
pub struct TokenHashBuilder;

impl std::hash::BuildHasher for TokenHashBuilder {
    type Hasher = TokenHashHasher;

    fn build_hasher(&self) -> TokenHashHasher {
        TokenHashHasher(0)
    }
}

/// Multiplier of the folded step (wyhash's first secret: odd, no short bit
/// pattern).
const FOLD_MULTIPLIER: u64 = 0xA076_1D64_78BD_642F;

/// `a × b` as a 128-bit product, high half XOR low half.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// Fold one 64-bit word into `state`.
#[inline]
fn fold_word(state: u64, word: u64) -> u64 {
    folded_multiply(state ^ word, FOLD_MULTIPLIER)
}

/// Fold a byte string into the word-folded hash state `state` and return
/// the new state: one folded multiply for the length, then one per eight
/// bytes, where FNV-1a spends a multiply on every byte.
///
/// This is the step [`TokenHashBuilder`]'s hasher runs for every byte key
/// ([`std::hash::Hasher::write`]), and it is persisted: the observation
/// journal checksums each frame's payload as `fold_bytes(0, payload)`. Its
/// output for a given input must therefore never change; known-answer
/// tests pin it. It is the same on every platform — words are read
/// little-endian and the length is folded as a `u64`. (Not
/// `BuildHasher::hash_one(&[u8])`, which first writes a native-endian
/// `usize` length of its own.)
#[inline]
pub fn fold_bytes(state: u64, bytes: &[u8]) -> u64 {
    // The length goes in first, offset so that it is never the zero
    // word: keys that differ only in length, or only by trailing NULs,
    // part ways here, and the tail below may then overlap bytes already
    // folded without two keys ever folding the same words.
    let len = bytes.len();
    let mut state = fold_word(state, (len as u64).wrapping_add(FOLD_MULTIPLIER));
    if len >= 8 {
        // Whole words, then the key's last eight bytes — which overlap
        // the word before them unless the length is a multiple of
        // eight. Reading the tail in place keeps it one load: a copy
        // into a zero-padded buffer is a `memcpy` call and a
        // store-forwarding stall per key, which cost the serving path
        // more than the fold saved it.
        let mut rest = bytes;
        while rest.len() > 8 {
            state = fold_word(
                state,
                u64::from_le_bytes(rest[..8].try_into().expect("an 8-byte slice")),
            );
            rest = &rest[8..];
        }
        fold_word(
            state,
            u64::from_le_bytes(bytes[len - 8..].try_into().expect("an 8-byte slice")),
        )
    } else if len >= 4 {
        // The first and the last four bytes cover all of four to seven.
        let head = u32::from_le_bytes(bytes[..4].try_into().expect("a 4-byte slice"));
        let tail = u32::from_le_bytes(bytes[len - 4..].try_into().expect("a 4-byte slice"));
        fold_word(state, u64::from(head) | u64::from(tail) << 32)
    } else if len > 0 {
        // First, middle and last byte cover all of one to three.
        fold_word(
            state,
            u64::from(bytes[0]) | u64::from(bytes[len / 2]) << 8 | u64::from(bytes[len - 1]) << 16,
        )
    } else {
        state
    }
}

/// Hasher produced by [`TokenHashBuilder`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TokenHashHasher(u64);

impl std::hash::Hasher for TokenHashHasher {
    fn finish(&self) -> u64 {
        // Fibonacci (golden-ratio) multiplicative spread: the only mixing a
        // raw `write_u64` key gets before the table masks it.
        self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fold_bytes(self.0, bytes);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.0 = fold_word(self.0, u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0 = fold_word(self.0, u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 ^= n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The tokenizer spelled out byte by byte, as it was before the fold
    /// table: a run is ASCII alphanumeric bytes, folded to lower case.
    fn reference_tokens(text: &[u8]) -> Vec<Token> {
        let mut tokens = Vec::new();
        let mut start = 0;
        while start < text.len() {
            let run = text[start..]
                .iter()
                .take_while(|b| b.is_ascii_alphanumeric())
                .count();
            if run >= TOKEN_MIN_LEN {
                let lower: Vec<u8> = text[start..start + run]
                    .iter()
                    .map(u8::to_ascii_lowercase)
                    .collect();
                tokens.push(Token {
                    start,
                    end: start + run,
                    hash: fnv1a64(&lower),
                    prefix: fnv1a64(&lower[..TOKEN_MIN_LEN]),
                });
            }
            start += run.max(1);
        }
        tokens
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn the_fold_table_tokenizes_arbitrary_bytes_as_the_byte_fold_does(
            text in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..48),
        ) {
            let expected = reference_tokens(&text);
            prop_assert_eq!(TokenHashes::new(&text).collect::<Vec<_>>(), expected.clone());
            let (mut hashes, mut prefixes) = (vec![1, 2, 3], vec![1, 2, 3]);
            let folded = hash_tokens_into(&text, 0, &mut hashes, &mut prefixes);
            let expected_hashes: Vec<u64> =
                [1, 2, 3].into_iter().chain(expected.iter().map(|t| t.hash)).collect();
            let expected_prefixes: Vec<u64> =
                [1, 2, 3].into_iter().chain(expected.iter().map(|t| t.prefix)).collect();
            prop_assert_eq!(&hashes, &expected_hashes);
            prop_assert_eq!(&prefixes, &expected_prefixes);
            prop_assert_eq!(folded, text.iter().any(u8::is_ascii_uppercase));
            // Scanning a prefix that ends outside a run, then resuming at its
            // end, finds the whole text's tokens.
            for cut in (0..=text.len()).filter(|&cut| cut == text.len() || FOLD[usize::from(text[cut])] == 0) {
                let (mut hashes, mut prefixes) = (vec![1, 2, 3], vec![1, 2, 3]);
                let head = hash_tokens_into(&text[..cut], 0, &mut hashes, &mut prefixes);
                let tail = hash_tokens_into(&text, cut, &mut hashes, &mut prefixes);
                prop_assert_eq!(&hashes, &expected_hashes);
                prop_assert_eq!(&prefixes, &expected_prefixes);
                prop_assert_eq!(head, text[..cut].iter().any(u8::is_ascii_uppercase));
                prop_assert_eq!(tail, text[cut..].iter().any(u8::is_ascii_uppercase));
            }
        }
    }

    fn hashes(text: &str) -> Vec<u64> {
        token_hashes(text).map(|t| t.hash).collect()
    }

    #[test]
    fn tokens_are_maximal_alphanumeric_runs() {
        let tokens: Vec<Token> = token_hashes("https://a.io/ab/abc/abcd?x=12345").collect();
        let runs: Vec<&str> = tokens
            .iter()
            .map(|t| &"https://a.io/ab/abc/abcd?x=12345"[t.start..t.end])
            .collect();
        // `a`, `io`, `ab`, `x` are shorter than TOKEN_MIN_LEN.
        assert_eq!(runs, vec!["https", "abc", "abcd", "12345"]);
    }

    #[test]
    fn hashes_match_the_reference_fold() {
        assert_eq!(
            hashes("https://abc.io"),
            vec![fnv1a64(b"https"), fnv1a64(b"abc")]
        );
    }

    #[test]
    fn hashing_is_case_insensitive() {
        assert_eq!(hashes("HTTPS://ABC.io"), hashes("https://abc.io"));
        assert_eq!(fnv1a64(b"abc"), hashes("ABC")[0]);
    }

    #[test]
    fn distinct_tokens_hash_differently_in_practice() {
        let mut seen = std::collections::HashSet::new();
        for token in ["ads", "adserver", "analytics", "track", "pixel", "banner"] {
            assert!(
                seen.insert(fnv1a64(token.as_bytes())),
                "collision on {token}"
            );
        }
    }

    #[test]
    fn empty_and_punctuation_only_inputs_yield_nothing() {
        assert!(hashes("").is_empty());
        assert!(hashes("://?&=.").is_empty());
        assert!(hashes("ab.cd.ef").is_empty());
    }

    #[test]
    fn non_ascii_breaks_runs() {
        // The ü (2 UTF-8 bytes, non-alphanumeric ASCII) splits the run.
        assert_eq!(hashes("abcüdef"), vec![fnv1a64(b"abc"), fnv1a64(b"def")]);
    }

    fn hash_of<T: std::hash::Hash + ?Sized>(key: &T) -> u64 {
        use std::hash::BuildHasher;
        TokenHashBuilder.hash_one(key)
    }

    /// Table position (low 12 bits) and tag (top 7 bits) — the two parts of
    /// a hash the map reads.
    fn slot(hash: u64) -> (u64, u64) {
        (hash & 0xfff, hash >> 57)
    }

    #[test]
    fn near_identical_byte_keys_land_apart() {
        // Only the last byte of an 8-byte word differs.
        let words: Vec<[u8; 16]> = (0..=255u8)
            .map(|last| {
                let mut key = *b"https://cdn.x.io";
                key[7] = last;
                key
            })
            .collect();
        let mut buckets: Vec<u64> = words.iter().map(|k| slot(hash_of(&k[..])).0).collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert!(
            buckets.len() > 240,
            "256 keys hit {} buckets",
            buckets.len()
        );

        // Only the length differs, or only trailing NULs.
        let zeros = [0u8; 24];
        let mut seen = std::collections::HashSet::new();
        for len in 0..=zeros.len() {
            assert!(seen.insert(hash_of(&zeros[..len])), "all-zero key of {len}");
        }
        for tail in 0..8 {
            let mut key = b"wp.com".to_vec();
            key.resize(6 + tail, 0);
            assert!(seen.insert(hash_of(&key[..])), "{tail} trailing NULs");
        }
        // Every byte of a key of every length reaches the hash: the tail
        // reads (last eight, first and last four, first-middle-last) leave
        // none out.
        let key: Vec<u8> = (1..=24).collect();
        for len in 1..=key.len() {
            for at in 0..len {
                let mut other = key[..len].to_vec();
                other[at] ^= 0x40;
                assert_ne!(
                    hash_of(&key[..len]),
                    hash_of(&other[..]),
                    "byte {at} of {len}"
                );
            }
        }
        assert_ne!(slot(hash_of("wp.com")), slot(hash_of("wp.com\0")));
        assert_ne!(slot(hash_of("abcdefgh")), slot(hash_of("abcdefgi")));
        // A `(str, str)` key keeps its boundary.
        assert_ne!(hash_of(&("ab", "c")), hash_of(&("a", "bc")));
    }

    #[test]
    fn sequential_ids_and_id_pairs_fill_the_table_evenly() {
        // Interner symbols are small consecutive integers; 4096 of them
        // into 4096 buckets should leave about 1/e empty, like random keys.
        let occupied = |hashes: Vec<u64>| {
            let mut buckets: Vec<u64> = hashes.into_iter().map(|h| slot(h).0).collect();
            buckets.sort_unstable();
            buckets.dedup();
            buckets.len()
        };
        let ids = occupied((0u32..4096).map(|id| hash_of(&id)).collect());
        assert!(ids > 2450, "ids occupy {ids} of 4096 buckets");
        let pairs = occupied(
            (0u32..64)
                .flat_map(|a| (0u32..64).map(move |b| hash_of(&(a, b + 1000))))
                .collect(),
        );
        assert!(pairs > 2450, "pairs occupy {pairs} of 4096 buckets");
        let mut tags = [0u32; 128];
        for id in 0u32..4096 {
            tags[slot(hash_of(&id)).1 as usize] += 1;
        }
        assert!(tags.iter().all(|&n| (8..=64).contains(&n)), "{tags:?}");
    }

    /// The fold is persisted (the journal's frame checksum), so its answers
    /// are pinned: prefixes of one 141-byte sample — a journal URL row's
    /// length — through every branch of the fold: empty, one to three
    /// bytes, four to seven, whole words with and without an overlapping
    /// tail.
    #[test]
    fn fold_bytes_gives_its_known_answers() {
        let sample: Vec<u8> = (0..141u32).map(|at| (at * 37 + 11) as u8).collect();
        for (len, answer) in [
            (0, 0xf47c_dffd_9671_363d),
            (1, 0x4750_4588_76d1_3726),
            (3, 0xeef1_b6b1_b2c7_490c),
            (4, 0x322c_6a78_6d8e_12d4),
            (7, 0x4270_4949_9db6_97fb),
            (8, 0xa8a2_d355_2f29_addc),
            (9, 0x1667_c859_8efc_4545),
            (16, 0x5f1f_0895_b835_3eae),
            (141, 0xe16e_203d_8354_bee7),
        ] {
            assert_eq!(fold_bytes(0, &sample[..len]), answer, "length {len}");
        }
    }

    #[test]
    fn token_hash_keys_keep_their_single_multiply() {
        use std::hash::Hasher;
        let mut hasher = TokenHashHasher::default();
        hasher.write_u64(fnv1a64(b"analytics"));
        assert_eq!(
            hasher.finish(),
            fnv1a64(b"analytics").wrapping_mul(0x9E37_79B9_7F4A_7C15)
        );
    }
}
