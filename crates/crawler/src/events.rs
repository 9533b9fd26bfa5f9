//! DevTools-style network events.
//!
//! The paper's crawler is a purpose-built Chrome extension listening to two
//! DevTools network events: `requestWillBeSent` (request metadata plus the
//! initiator call stack) and `responseReceived` (response metadata). The
//! analysis reads only the former, so that is the one event kind captured
//! here. [`RequestWillBeSent`] keeps the fields of §3 the labeling reads: a
//! unique `request_id`, the page's `top_level_url`, the request `url`, the
//! `resource_type`, and a `call_stack` object with the initiator
//! information and the stack trace for script-initiated requests. A crawl
//! is handed to the labeler in memory and never persisted.
//!
//! The strings of a record are `Arc<str>`: a page load allocates its page
//! URL once, each script URL and method name once
//! ([`crate::PageLoadSimulator::load_with`]), and every record and stack
//! frame of that load points at those copies — as does everything
//! downstream that keeps a request (the labeler's `LabeledRequest` clones
//! the pointers, not the bytes). Only the request URL is a record's own.
//!
//! A stack is shared the same way: [`CallStack::frames`] is an
//! `Arc<[StackFrame]>` built once per call site of a load (one script
//! method, issuing synchronously or not, through one caller), and every
//! request that call site issues holds a pointer to it.

use filterlist::ResourceType;
use std::sync::Arc;

/// One frame of a JavaScript call stack.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StackFrame {
    /// URL of the script the frame belongs to (for inline scripts this is
    /// the document URL, exactly as DevTools reports it).
    pub script_url: Arc<str>,
    /// Function (method) name; empty for anonymous frames.
    pub function_name: Arc<str>,
}

impl StackFrame {
    /// Construct a frame.
    pub fn new(script_url: impl Into<Arc<str>>, function_name: impl Into<Arc<str>>) -> Self {
        StackFrame {
            script_url: script_url.into(),
            function_name: function_name.into(),
        }
    }
}

/// The initiator call stack attached to a script-initiated request.
///
/// `frames[0]` is the innermost frame — the method that actually issued the
/// request — matching DevTools ordering. The issuing script's own
/// (synchronous) frames come first; the frames of the scripts that injected
/// it follow them, for every request (the paper: "the stack trace that
/// preceded the request is prepended" to the ancestry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallStack {
    /// Stack frames, innermost first. Shared: a page load builds one slice
    /// per call site and every request the call site issues points at it.
    pub frames: Arc<[StackFrame]>,
}

impl Default for CallStack {
    fn default() -> Self {
        CallStack {
            frames: Arc::from([]),
        }
    }
}

impl CallStack {
    /// `true` when there is at least one script frame.
    pub(crate) fn is_script_initiated(&self) -> bool {
        !self.frames.is_empty()
    }

    /// The innermost frame (the method that issued the request).
    pub fn initiator_frame(&self) -> Option<&StackFrame> {
        self.frames.first()
    }

    /// The URL of the script that issued the request (innermost frame).
    #[cfg(test)]
    pub(crate) fn initiator_script(&self) -> Option<&str> {
        self.initiator_frame().map(|f| &*f.script_url)
    }
}

/// The `requestWillBeSent` event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestWillBeSent {
    /// Unique identifier of the request within the crawl.
    pub request_id: u64,
    /// URL of the page being crawled.
    pub top_level_url: Arc<str>,
    /// The request URL.
    pub url: Arc<str>,
    /// Resource type reported by the browser.
    pub resource_type: ResourceType,
    /// Initiator call stack (empty for parser-initiated requests).
    pub call_stack: CallStack,
}

impl RequestWillBeSent {
    /// `true` when a script initiated this request (the only requests the
    /// paper's analysis keeps).
    pub(crate) fn is_script_initiated(&self) -> bool {
        self.call_stack.is_script_initiated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack() -> CallStack {
        CallStack {
            frames: Arc::from([
                StackFrame::new("https://cdn.x.com/clone.js", "m2"),
                StackFrame::new("https://cdn.x.com/clone.js", "init"),
                StackFrame::new("https://tm.example/gtm.js?id=1", "bootstrap"),
            ]),
        }
    }

    #[test]
    fn initiator_is_innermost_frame() {
        let s = stack();
        assert_eq!(&*s.initiator_frame().unwrap().function_name, "m2");
        assert_eq!(s.initiator_script().unwrap(), "https://cdn.x.com/clone.js");
    }

    #[test]
    fn empty_stack_is_not_script_initiated() {
        assert!(!CallStack::default().is_script_initiated());
        assert!(stack().is_script_initiated());
    }
}
