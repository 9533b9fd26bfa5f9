//! # rewriter — rule-driven URL rewriting for mixed resources
//!
//! TrackerSift's central observation is that many web resources are
//! *mixed*: the request is functional, but the URL carries tracking
//! payloads — campaign parameters (`utm_source`, `gclid`, `fbclid`),
//! mail-merge identifiers (`mc_eid`), or a redirect wrapper whose `?url=`
//! parameter hides the real destination. Blocking such a request breaks
//! the page; allowing it leaks the identifier. The third option — the one
//! this crate implements — is to *rewrite* the URL: strip the listed
//! parameters, unwrap the redirect, and let the cleaned request through.
//!
//! The crate is deliberately small and dependency-free (it reuses the
//! [`filterlist::tokens`] FNV-1a tokenizer for its hot-path prescreen):
//!
//! * [`RewriterBuilder`] assembles rules — global parameter names and
//!   prefixes, per-site rules keyed by registrable domain, redirect
//!   `unwrap` parameters, a curated [`RewriterBuilder::default_rules`]
//!   set, and EasyList-style `$removeparam=` rules straight from a
//!   [`filterlist::FilterEngine`];
//! * [`UrlRewriter::rewrite`] applies them: `None` means "unchanged" and
//!   costs no allocation (a token-hash prescreen over the query string
//!   rejects almost every clean URL before any parsing happens);
//!   `Some(`[`RewrittenUrl`]`)` carries the cleaned URL.
//!
//! ## Example
//!
//! ```
//! use rewriter::RewriterBuilder;
//!
//! let rw = RewriterBuilder::new().default_rules().build();
//!
//! // Tracking parameters are stripped; everything else survives in order.
//! let out = rw
//!     .rewrite("https://shop.example/p?id=7&utm_source=mail&color=red#top")
//!     .expect("utm_source should be stripped");
//! assert_eq!(out.url(), "https://shop.example/p?id=7&color=red#top");
//!
//! // Clean URLs pass through without allocating.
//! assert!(rw.rewrite("https://shop.example/p?id=7&color=red").is_none());
//!
//! // Redirect wrappers are unwrapped to their destination (and the
//! // destination is itself rewritten).
//! let out = rw
//!     .rewrite("https://r.ads.example/click?url=https%3A%2F%2Fnews.example%2Fstory%3Fgclid%3Dabc")
//!     .unwrap();
//! assert_eq!(out.url(), "https://news.example/story");
//! ```
//!
//! Rewriting always reaches a fixpoint: applying [`UrlRewriter::rewrite`]
//! to a URL it has already produced returns `None` (property-tested in the
//! umbrella crate's suite).

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(rust_2018_idioms)]

mod builder;
mod rewriter;

pub use builder::RewriterBuilder;
pub use rewriter::UrlRewriter;

use std::fmt;

/// A URL produced by [`UrlRewriter::rewrite`] — the cleaned form of a
/// request whose original URL carried tracking identifiers.
///
/// This is the payload of the `Decision::Rewrite` enforcement arm: the
/// blocker should *load this URL instead of* the one the page asked for.
/// It deliberately carries nothing but the URL string so the wire codecs
/// (JSON `{"action":"rewrite","url":...}` and the binary `ACTION_REWRITE`
/// frame) round-trip it losslessly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RewrittenUrl {
    url: String,
}

impl RewrittenUrl {
    /// Wrap an already-rewritten URL (used by wire decoders; rewriting
    /// itself goes through [`UrlRewriter::rewrite`]).
    pub fn new(url: impl Into<String>) -> Self {
        RewrittenUrl { url: url.into() }
    }

    /// The cleaned URL the request should be redirected to.
    pub fn url(&self) -> &str {
        &self.url
    }
}

impl fmt::Display for RewrittenUrl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.url)
    }
}

impl AsRef<str> for RewrittenUrl {
    fn as_ref(&self) -> &str {
        &self.url
    }
}
