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
//! A page load allocates its strings and its stacks once each
//! ([`crate::PageLoadSimulator::load_with`]). Every string its records
//! name — the page URL, each script URL, each method and caller name a
//! frame uses, each request URL — is a span of the load's one text buffer,
//! held as a [`Text`]; every call site's frames are a span of the load's
//! one frame buffer, held as a [`CallStack`]. Both handles are 16 bytes, a
//! pointer to the buffer and the span's offset and length, and clone by
//! bumping the buffer's count: everything downstream that keeps a request
//! (the labeler's `LabeledRequest`) shares the load's buffers, not copies.
//! A frame names the text buffer; the text buffer holds only bytes, so the
//! two form no cycle.

use filterlist::ResourceType;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A string of one page load: a span of the load's text buffer, derefing
/// to `&str`. Built from a `&str` or `String` outside a load, it is the
/// span of a buffer of its own.
#[derive(Clone)]
pub struct Text {
    buffer: Arc<Box<str>>,
    start: u32,
    len: u32,
}

impl Text {
    /// The span `(start, len)` of `buffer`.
    pub(crate) fn span(buffer: &Arc<Box<str>>, (start, len): Span) -> Self {
        Text {
            buffer: Arc::clone(buffer),
            start,
            len,
        }
    }

    /// `true` when both handles name the same span of the same buffer, so
    /// hold equal strings without reading them.
    pub fn same_span(&self, other: &Text) -> bool {
        Arc::ptr_eq(&self.buffer, &other.buffer)
            && (self.start, self.len) == (other.start, other.len)
    }

    /// The buffer the span lies in.
    #[cfg(test)]
    pub(crate) fn buffer(&self) -> &Arc<Box<str>> {
        &self.buffer
    }
}

impl Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        let start = self.start as usize;
        &self.buffer[start..start + self.len as usize]
    }
}

impl From<&str> for Text {
    fn from(text: &str) -> Self {
        Text::from(text.to_owned())
    }
}

impl From<String> for Text {
    fn from(text: String) -> Self {
        let len = span_len(text.len());
        Text {
            buffer: Arc::new(text.into_boxed_str()),
            start: 0,
            len,
        }
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Text) -> bool {
        **self == **other
    }
}

impl Eq for Text {}

impl Hash for Text {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

/// A span of a load's buffer: offset and length, in bytes or frames.
pub(crate) type Span = (u32, u32);

/// A buffer length as a span bound. A load's buffers stay far below 4 GiB;
/// one that does not is a bug in the generator that described the page.
pub(crate) fn span_len(len: usize) -> u32 {
    u32::try_from(len).expect("a page load's buffers stay below 4 GiB")
}

/// One frame of a JavaScript call stack.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StackFrame {
    /// URL of the script the frame belongs to (for inline scripts this is
    /// the document URL, exactly as DevTools reports it).
    pub script_url: Text,
    /// Function (method) name; empty for anonymous frames.
    pub function_name: Text,
}

impl StackFrame {
    /// Construct a frame.
    pub fn new(script_url: impl Into<Text>, function_name: impl Into<Text>) -> Self {
        StackFrame {
            script_url: script_url.into(),
            function_name: function_name.into(),
        }
    }
}

/// The initiator call stack attached to a script-initiated request: a span
/// of its load's frame buffer, derefing to `&[StackFrame]`. Every request
/// one call site issues (one script method, issuing synchronously or not,
/// through one caller) holds the same span.
///
/// `stack[0]` is the innermost frame — the method that actually issued the
/// request — matching DevTools ordering. The issuing script's own
/// (synchronous) frames come first; the frames of the scripts that injected
/// it follow them, for every request (the paper: "the stack trace that
/// preceded the request is prepended" to the ancestry).
#[derive(Clone)]
pub struct CallStack {
    buffer: Arc<Vec<StackFrame>>,
    start: u32,
    len: u32,
}

impl CallStack {
    /// The span `(start, len)` of `buffer`.
    pub(crate) fn span(buffer: &Arc<Vec<StackFrame>>, (start, len): Span) -> Self {
        CallStack {
            buffer: Arc::clone(buffer),
            start,
            len,
        }
    }

    /// `true` when both handles name the same span of the same buffer.
    pub fn same_span(&self, other: &CallStack) -> bool {
        Arc::ptr_eq(&self.buffer, &other.buffer)
            && (self.start, self.len) == (other.start, other.len)
    }

    /// The buffer the span lies in.
    #[cfg(test)]
    pub(crate) fn buffer(&self) -> &Arc<Vec<StackFrame>> {
        &self.buffer
    }

    /// `true` when there is at least one script frame.
    pub(crate) fn is_script_initiated(&self) -> bool {
        self.len > 0
    }

    /// The innermost frame (the method that issued the request).
    pub fn initiator_frame(&self) -> Option<&StackFrame> {
        self.first()
    }

    /// The URL of the script that issued the request (innermost frame).
    #[cfg(test)]
    pub(crate) fn initiator_script(&self) -> Option<&str> {
        self.initiator_frame().map(|f| &*f.script_url)
    }
}

impl Default for CallStack {
    fn default() -> Self {
        CallStack::from(Vec::new())
    }
}

impl Deref for CallStack {
    type Target = [StackFrame];

    fn deref(&self) -> &[StackFrame] {
        let start = self.start as usize;
        &self.buffer[start..start + self.len as usize]
    }
}

impl From<Vec<StackFrame>> for CallStack {
    fn from(frames: Vec<StackFrame>) -> Self {
        let len = span_len(frames.len());
        CallStack {
            buffer: Arc::new(frames),
            start: 0,
            len,
        }
    }
}

impl FromIterator<StackFrame> for CallStack {
    fn from_iter<I: IntoIterator<Item = StackFrame>>(frames: I) -> Self {
        CallStack::from(frames.into_iter().collect::<Vec<_>>())
    }
}

impl PartialEq for CallStack {
    fn eq(&self, other: &CallStack) -> bool {
        **self == **other
    }
}

impl Eq for CallStack {}

impl fmt::Debug for CallStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The `requestWillBeSent` event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestWillBeSent {
    /// Unique identifier of the request within the crawl.
    pub request_id: u64,
    /// URL of the page being crawled.
    pub top_level_url: Text,
    /// The request URL.
    pub url: Text,
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
        CallStack::from(vec![
            StackFrame::new("https://cdn.x.com/clone.js", "m2"),
            StackFrame::new("https://cdn.x.com/clone.js", "init"),
            StackFrame::new("https://tm.example/gtm.js?id=1", "bootstrap"),
        ])
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
