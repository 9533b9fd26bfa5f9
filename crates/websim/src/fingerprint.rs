//! Content fingerprints for scripts.
//!
//! Trackers evade URL-keyed blocking by rotating CDNs and cache-busting
//! their script URLs; follow-up work to the paper (ASTrack-style) answers
//! with *content* identity: two copies of the same script should share a
//! key even when their URLs differ. This module derives that key from the
//! script's **behavioural shape** — its archetype, the methods it defines,
//! and how many tracking/functional requests each method issues — hashed
//! with 64-bit FNV-1a.
//!
//! The shape deliberately excludes everything the ecosystem mutator
//! rotates between crawl epochs: script URLs and hostnames (CDN rotation),
//! request URLs and resource types (endpoint path rotation). A verdict
//! keyed by [`fingerprint_key`] therefore survives rotation, which the
//! scheduler's retention benchmark measures against URL keying.

use crate::model::{PageScript, Purpose, ScriptArchetype};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental 64-bit FNV-1a hasher.
#[derive(Debug, Clone)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    /// Start a hash at the FNV offset basis.
    pub(crate) fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Fold bytes into the hash.
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold one byte into the hash.
    pub(crate) fn write_u8(&mut self, byte: u8) {
        self.write(&[byte]);
    }

    /// Fold a `u64` into the hash (little-endian).
    pub(crate) fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// The hash value accumulated so far.
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// The content fingerprint of a script: FNV-1a over its stable behavioural
/// shape. Invariant under CDN rotation (the script URL is not hashed) and
/// endpoint path rotation (request URLs and resource types are not hashed);
/// changed by anything that alters what the script *does* — adding a
/// method, flipping a request's intent, re-wiring callees.
pub(crate) fn script_fingerprint(script: &PageScript) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write_u8(match script.archetype {
        ScriptArchetype::Tracking => 1,
        ScriptArchetype::Functional => 2,
        ScriptArchetype::Mixed => 3,
    });
    hash.write_u64(script.methods.len() as u64);
    for method in &script.methods {
        hash.write(method.name.as_bytes());
        // Separator so ("ab", "c") and ("a", "bc") hash differently.
        hash.write_u8(0xff);
        hash.write_u64(method.callees.len() as u64);
        for &callee in &method.callees {
            hash.write_u64(callee as u64);
        }
        let tracking = method
            .requests
            .iter()
            .filter(|r| r.intent == Purpose::Tracking)
            .count();
        let functional = method.requests.len() - tracking;
        hash.write_u64(tracking as u64);
        hash.write_u64(functional as u64);
    }
    hash.finish()
}

/// The attribution key a fingerprint-keyed crawl uses for a script:
/// `fp:` followed by the zero-padded hex fingerprint.
pub fn fingerprint_key(script: &PageScript) -> String {
    format!("fp:{:016x}", script_fingerprint(script))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PlannedRequest, ScriptMethodSpec, ScriptOrigin};
    use filterlist::ResourceType;

    fn request(url: &str, intent: Purpose, resource_type: ResourceType) -> PlannedRequest {
        PlannedRequest {
            url: url.to_string(),
            resource_type,
            intent,
            via_caller: None,
        }
    }

    fn sample_script(url: &str) -> PageScript {
        PageScript {
            origin: ScriptOrigin::External {
                url: url.to_string(),
            },
            methods: vec![
                ScriptMethodSpec {
                    name: "init".into(),
                    requests: vec![request(
                        "https://t.io/collect?v=1&tid=UA-1",
                        Purpose::Tracking,
                        ResourceType::Xhr,
                    )],
                    callees: vec![1],
                },
                ScriptMethodSpec {
                    name: "send".into(),
                    requests: vec![request(
                        "https://t.io/pixel.gif?id=2",
                        Purpose::Tracking,
                        ResourceType::Image,
                    )],
                    callees: vec![],
                },
            ],
            loads_scripts: vec![],
            archetype: ScriptArchetype::Tracking,
        }
    }

    #[test]
    fn fingerprint_survives_cdn_and_path_rotation() {
        let before = sample_script("https://cdn.metrics.io/m-analytics.js?v=3");
        let mut after = sample_script("https://cdn-e4-0.metrics.io/m-analytics.js?v=7");
        // Path rotation: a new endpoint URL *and* a new resource type.
        after.methods[0].requests[0] = request(
            "https://t.io/beacon?data=eyJpZCI69",
            Purpose::Tracking,
            ResourceType::Ping,
        );
        assert_eq!(script_fingerprint(&before), script_fingerprint(&after));
        assert_eq!(fingerprint_key(&before), fingerprint_key(&after));
    }

    #[test]
    fn fingerprint_tracks_behavioural_changes() {
        let base = sample_script("https://cdn.metrics.io/m.js");
        let mut renamed = base.clone();
        renamed.methods[1].name = "dispatch".into();
        assert_ne!(script_fingerprint(&base), script_fingerprint(&renamed));

        let mut flipped = base.clone();
        flipped.methods[1].requests[0].intent = Purpose::Functional;
        assert_ne!(script_fingerprint(&base), script_fingerprint(&flipped));

        let mut grown = base.clone();
        grown.methods.push(ScriptMethodSpec::empty("extra"));
        assert_ne!(script_fingerprint(&base), script_fingerprint(&grown));
    }

    #[test]
    fn fingerprint_key_is_stable_hex() {
        let script = sample_script("https://cdn.metrics.io/m.js");
        let key = fingerprint_key(&script);
        assert!(key.starts_with("fp:"));
        assert_eq!(key.len(), 3 + 16);
        assert_eq!(key, fingerprint_key(&script));
    }
}
