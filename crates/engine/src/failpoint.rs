//! Deterministic fault injection for the durability and serving layers.
//!
//! A crash-only server earns its guarantees by being *tested against*
//! faults, not by hoping they never happen. This module is the seam the
//! fault-injection harness (`tests/fault_injection.rs`) uses to inject
//! failures at precise points: `EINTR`/`WouldBlock` storms, fsync
//! failures, worker panics, and write cut-offs that simulate a crash at an
//! exact journal byte offset.
//!
//! # Zero cost when disabled
//!
//! The whole module is gated on the `failpoints` cargo feature. Without
//! the feature every function below is an `#[inline(always)]` no-op stub
//! — `check_io` returns `Ok(())`, `write_allowance` returns its input, and
//! the compiler removes the calls entirely. Production builds pay nothing.
//!
//! With `--features failpoints`, a process-global registry maps failpoint
//! names to armed [`Action`]s. Tests arm a point, drive the system, and
//! assert on the observed degradation:
//!
//! ```
//! use trackersift_engine::failpoint;
//!
//! // Arm: the next 3 hits of "journal.sync" fail like a dying disk.
//! failpoint::set(
//!     "journal.sync",
//!     failpoint::Action::io_error(std::io::ErrorKind::Other, Some(3)),
//! );
//! # failpoint::clear_all();
//! ```
//!
//! Failpoint names used across the workspace:
//!
//! | name | site | effect when armed |
//! |---|---|---|
//! | `journal.append` | before buffering a record | append fails, counted |
//! | `journal.write` | flushing buffered bytes to the file | write fails |
//! | `journal.cut` | byte budget for flushed bytes | simulated crash: bytes past the budget are dropped (torn tail) |
//! | `journal.sync` | `fsync` of the journal file | sync fails, counted |
//! | `journal.open` | opening/recovering a journal | open fails |
//! | `snapshot.write` | writing a checkpoint temp file | write fails |
//! | `snapshot.rename` | publishing a checkpoint via rename | rename fails |
//! | `dir.sync` | `fsync` of the durable directory after a create or rename | sync fails |
//! | `poller.wait` | the worker event loop's `poll(2)` | wait fails (worker naps + rebuilds) |
//! | `worker.request` | per parsed request, before routing | injected worker panic |

#[cfg(feature = "failpoints")]
pub use enabled::*;

#[cfg(not(feature = "failpoints"))]
pub use disabled::*;

/// What an armed failpoint does at its site. Constructed through the
/// helper constructors; the variants are the harness's fault vocabulary.
#[derive(Debug, Clone)]
pub enum Action {
    /// Fail with an `io::Error` of the given kind. `times` bounds how many
    /// hits fail (`None` = every hit) — `Some(50)` with
    /// [`std::io::ErrorKind::Interrupted`] is an `EINTR` storm that ends.
    IoError {
        /// The error kind each armed hit produces.
        kind: std::io::ErrorKind,
        /// Remaining armed hits; `None` fails forever.
        times: Option<u32>,
    },
    /// Panic at the site (worker self-healing tests).
    Panic {
        /// Remaining armed hits; `None` panics forever.
        times: Option<u32>,
    },
    /// Allow only `budget` more bytes through, then silently drop the rest
    /// — the observable effect of `kill -9` at that byte offset.
    CutAfter {
        /// Bytes still allowed through.
        budget: u64,
    },
}

impl Action {
    /// An [`Action::IoError`] with the given kind and hit count.
    pub fn io_error(kind: std::io::ErrorKind, times: Option<u32>) -> Action {
        Action::IoError { kind, times }
    }

    /// An [`Action::Panic`] firing `times` times.
    pub fn panic(times: Option<u32>) -> Action {
        Action::Panic { times }
    }

    /// An [`Action::CutAfter`] with the given byte budget.
    pub fn cut_after(budget: u64) -> Action {
        Action::CutAfter { budget }
    }
}

#[cfg(feature = "failpoints")]
mod enabled {
    use super::Action;
    use std::collections::HashMap;
    use std::io;
    use std::sync::{Mutex, OnceLock};

    fn registry() -> &'static Mutex<HashMap<String, Action>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, Action>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Arm `name` with `action` (replacing any previous arming).
    pub fn set(name: &str, action: Action) {
        registry()
            .lock()
            .expect("failpoint registry")
            .insert(name.to_string(), action);
    }

    /// Disarm every failpoint — call between tests sharing a process.
    pub fn clear_all() {
        registry().lock().expect("failpoint registry").clear();
    }

    /// Decrement a hit counter in place; returns whether this hit fires
    /// and removes the entry once its count is exhausted.
    fn consume(times: &mut Option<u32>) -> (bool, bool) {
        match times {
            None => (true, false),
            Some(0) => (false, true),
            Some(n) => {
                *n -= 1;
                let exhausted = *n == 0;
                (true, exhausted)
            }
        }
    }

    /// Fail point for fallible I/O sites: `Err` when `name` is armed with
    /// [`Action::IoError`] and the hit fires.
    pub fn check_io(name: &str) -> io::Result<()> {
        let mut registry = registry().lock().expect("failpoint registry");
        let Some(Action::IoError { kind, times }) = registry.get_mut(name) else {
            return Ok(());
        };
        let kind = *kind;
        let (fires, exhausted) = consume(times);
        if exhausted {
            registry.remove(name);
        }
        if fires {
            Err(io::Error::new(kind, format!("failpoint {name}")))
        } else {
            Ok(())
        }
    }

    /// Panic at the site when `name` is armed with [`Action::Panic`].
    pub fn maybe_panic(name: &str) {
        let fires = {
            let mut registry = registry().lock().expect("failpoint registry");
            let Some(Action::Panic { times }) = registry.get_mut(name) else {
                return;
            };
            let (fires, exhausted) = consume(times);
            if exhausted {
                registry.remove(name);
            }
            fires
        };
        if fires {
            panic!("injected panic at failpoint {name}");
        }
    }

    /// How many of `want` bytes the site may transfer under an armed
    /// [`Action::CutAfter`] budget; bytes past the budget are the caller's
    /// simulated crash tail (drop them, do not error).
    pub(crate) fn write_allowance(name: &str, want: usize) -> usize {
        let mut registry = registry().lock().expect("failpoint registry");
        let Some(Action::CutAfter { budget }) = registry.get_mut(name) else {
            return want;
        };
        let allowed = (*budget).min(want as u64) as usize;
        *budget -= allowed as u64;
        allowed
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn io_error_counts_down_and_disarms() {
            set(
                "t.io",
                Action::io_error(io::ErrorKind::Interrupted, Some(2)),
            );
            assert!(check_io("t.io").is_err());
            assert!(check_io("t.io").is_err());
            assert!(check_io("t.io").is_ok(), "exhausted after 2 hits");
            clear_all();
        }

        #[test]
        fn cut_after_meters_a_byte_budget() {
            set("t.cut", Action::cut_after(10));
            assert_eq!(write_allowance("t.cut", 6), 6);
            assert_eq!(write_allowance("t.cut", 6), 4, "budget exhausted mid-write");
            assert_eq!(
                write_allowance("t.cut", 6),
                0,
                "everything after is dropped"
            );
            clear_all();
        }
    }
}

#[cfg(not(feature = "failpoints"))]
mod disabled {
    use super::Action;
    use std::io;

    /// No-op without the `failpoints` feature.
    #[inline(always)]
    pub fn set(_name: &str, _action: Action) {}

    /// No-op without the `failpoints` feature.
    #[inline(always)]
    pub fn clear_all() {}

    /// Always `Ok` without the `failpoints` feature.
    #[inline(always)]
    pub fn check_io(_name: &str) -> io::Result<()> {
        Ok(())
    }

    /// No-op without the `failpoints` feature.
    #[inline(always)]
    pub fn maybe_panic(_name: &str) {}

    /// Identity without the `failpoints` feature.
    #[inline(always)]
    pub(crate) fn write_allowance(_name: &str, want: usize) -> usize {
        want
    }
}
