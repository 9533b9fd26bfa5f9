//! Offline stand-in for the real `serde`.
//!
//! Mirrors the two names the workspace imports (`serde::Serialize`,
//! `serde::Deserialize`) as marker traits plus the matching derive macros.
//! The derives expand to nothing — persistence is implemented by the
//! hand-rolled `crawler::json` codec — so these annotations are inert
//! documentation of serialisability until a real registry is available.

pub use serde_derive::{Deserialize, Serialize};

/// Marker counterpart of `serde::Serialize`.
pub trait Serialize {}

/// Marker counterpart of `serde::Deserialize`.
pub trait Deserialize<'de> {}
