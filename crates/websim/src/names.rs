//! Deterministic synthetic name generation for domains, scripts and methods.
//!
//! The corpus needs tens of thousands of distinct, plausible-looking
//! identifiers. Names are produced from seeded RNG draws over syllable
//! tables, so corpora are fully reproducible from their seed.

use rand::Rng;

const SYLLABLES: &[&str] = &[
    "ra", "ve", "lo", "mi", "ta", "zen", "kor", "pix", "nova", "lum", "qua", "dex", "tri", "sol",
    "ner", "vig", "ora", "ply", "gra", "ful", "mar", "ket", "cen", "dia", "bru", "sta", "cla",
    "vio", "net", "byte", "wave", "peak", "leaf", "frost", "ember", "stone", "cloud", "swift",
    "bright", "blue", "red", "terra", "astro", "hyper", "meta", "omni", "uni", "info", "data",
];

const PUBLISHER_SUFFIXES: &[&str] = &[
    "news", "times", "daily", "post", "journal", "shop", "store", "market", "blog", "mag",
    "review", "sports", "tech", "health", "travel", "recipes", "games", "finance", "weather",
    "media",
];

const PUBLISHER_TLDS: &[&str] = &[
    "com", "com", "com", "com", "net", "org", "io", "co", "info", "co.uk", "com.au", "com.br",
    "com.mx", "co.jp", "de", "fr", "ru", "in",
];

const SERVICE_TLDS: &[&str] = &["com", "com", "net", "io", "co", "org"];

/// Deterministic name factory.
#[derive(Debug, Default)]
pub(crate) struct NameFactory;

impl NameFactory {
    /// A pronounceable base word of 2–3 syllables.
    pub(crate) fn base_word<R: Rng + ?Sized>(rng: &mut R) -> String {
        let syllable_count = rng.gen_range(2..=3);
        let mut word = String::new();
        for _ in 0..syllable_count {
            word.push_str(SYLLABLES[rng.gen_range(0..SYLLABLES.len())]);
        }
        word
    }

    /// A publisher (first-party website) domain such as `lumranews.com`.
    pub(crate) fn publisher_domain<R: Rng + ?Sized>(rng: &mut R, rank: usize) -> String {
        let word = Self::base_word(rng);
        let suffix = PUBLISHER_SUFFIXES[rng.gen_range(0..PUBLISHER_SUFFIXES.len())];
        let tld = PUBLISHER_TLDS[rng.gen_range(0..PUBLISHER_TLDS.len())];
        // The rank keeps domains unique even on a syllable collision.
        format!("{word}{suffix}{rank}.{tld}")
    }

    /// A third-party service domain such as `pixkorads.net`.
    pub(crate) fn service_domain<R: Rng + ?Sized>(rng: &mut R, hint: &str, index: usize) -> String {
        let word = Self::base_word(rng);
        let tld = SERVICE_TLDS[rng.gen_range(0..SERVICE_TLDS.len())];
        format!("{word}{hint}{index}.{tld}")
    }

    /// A short minified method name such as `t`, `m2`, `Pa.xhrRequest`-style.
    pub(crate) fn minified_method_name<R: Rng + ?Sized>(rng: &mut R) -> String {
        let letters = "abcdefghijklmnopqrstuvwxyz";
        let a = letters.as_bytes()[rng.gen_range(0..letters.len())] as char;
        if rng.gen_bool(0.5) {
            format!("{a}{}", rng.gen_range(0..10))
        } else {
            let b = letters.to_ascii_uppercase();
            let upper = b.as_bytes()[rng.gen_range(0..b.len())] as char;
            format!("{upper}{a}.xhrRequest")
        }
    }

    /// A content-hash-looking hex string of the given length (webpack style).
    fn content_hash<R: Rng + ?Sized>(rng: &mut R, len: usize) -> String {
        const HEX: &[u8] = b"0123456789abcdef";
        (0..len)
            .map(|_| HEX[rng.gen_range(0..16usize)] as char)
            .collect()
    }

    /// A first-party application bundle filename (`app.9115af43.js`).
    pub(crate) fn bundle_filename<R: Rng + ?Sized>(rng: &mut R) -> String {
        let stem =
            ["app", "main", "bundle", "vendor", "chunk", "runtime"][rng.gen_range(0..6usize)];
        format!("{stem}.{}.js", Self::content_hash(rng, 8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn publisher_domains_are_unique_by_rank() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = NameFactory::publisher_domain(&mut rng, 1);
        let b = NameFactory::publisher_domain(&mut rng, 2);
        assert_ne!(a, b);
        assert!(a.contains('.'));
    }

    #[test]
    fn names_are_deterministic_for_a_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        assert_eq!(
            NameFactory::service_domain(&mut a, "ads", 3),
            NameFactory::service_domain(&mut b, "ads", 3)
        );
    }

    #[test]
    fn domains_are_valid_hostnames() {
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..200 {
            let d = NameFactory::publisher_domain(&mut rng, i);
            assert!(filterlist::is_valid_hostname(&d), "{d}");
            let s = NameFactory::service_domain(&mut rng, "cdn", i);
            assert!(filterlist::is_valid_hostname(&s), "{s}");
        }
    }

    #[test]
    fn bundle_filenames_look_hashed() {
        let mut rng = StdRng::seed_from_u64(5);
        let f = NameFactory::bundle_filename(&mut rng);
        assert!(f.ends_with(".js"));
        assert_eq!(f.split('.').count(), 3);
    }

    #[test]
    fn content_hash_length_and_charset() {
        let mut rng = StdRng::seed_from_u64(6);
        let h = NameFactory::content_hash(&mut rng, 12);
        assert_eq!(h.len(), 12);
        assert!(h.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
