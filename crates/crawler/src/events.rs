//! DevTools-style network events.
//!
//! The paper's crawler is a purpose-built Chrome extension listening to two
//! DevTools network events: `requestWillBeSent` (request metadata plus the
//! initiator call stack) and `responseReceived` (response metadata). The
//! analysis reads only the former, so that is the one event kind captured
//! here. [`RequestWillBeSent`] mirrors the fields §3 enumerates: a unique
//! `request_id`, the page's `top_level_url`, the `frame_url`, the
//! `resource_type`, a timestamp, and a `call_stack` object with the
//! initiator information and the stack trace for script-initiated requests.
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
//! request that call site issues holds a pointer to it. The JSON codec
//! below reads and writes strings and stacks by value; a decoded crawl owns
//! one allocation per field and one stack per request, which costs memory,
//! not correctness.

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
    /// 1-based line number within the script (synthetic but stable).
    pub(crate) line: u32,
    /// 1-based column number within the script (synthetic but stable).
    pub(crate) column: u32,
}

impl StackFrame {
    /// Construct a frame.
    pub fn new(
        script_url: impl Into<Arc<str>>,
        function_name: impl Into<Arc<str>>,
        line: u32,
        column: u32,
    ) -> Self {
        StackFrame {
            script_url: script_url.into(),
            function_name: function_name.into(),
            line,
            column,
        }
    }
}

/// The initiator call stack attached to a script-initiated request.
///
/// `frames[0]` is the innermost frame — the method that actually issued the
/// request — matching DevTools ordering. For asynchronous requests the stack
/// that *preceded* the asynchronous hop is appended after the synchronous
/// frames (the paper: "the stack trace that preceded the request is
/// prepended" to the ancestry), with `async_boundary` recording where the
/// synchronous portion ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallStack {
    /// Stack frames, innermost first. Shared: a page load builds one slice
    /// per call site and every request the call site issues points at it.
    pub frames: Arc<[StackFrame]>,
    /// Index of the first frame that belongs to the asynchronous parent
    /// stack, if the request was issued from an async continuation; at most
    /// `frames.len()`.
    pub async_boundary: Option<usize>,
}

impl Default for CallStack {
    fn default() -> Self {
        CallStack {
            frames: Arc::from([]),
            async_boundary: None,
        }
    }
}

impl CallStack {
    /// An empty stack (used for requests that are not script-initiated).
    pub(crate) fn empty() -> Self {
        CallStack::default()
    }

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
    /// URL of the document (frame) the request was issued from.
    pub(crate) frame_url: Arc<str>,
    /// The request URL.
    pub url: Arc<str>,
    /// Resource type reported by the browser.
    pub resource_type: ResourceType,
    /// Initiator call stack (empty for parser-initiated requests).
    pub call_stack: CallStack,
    /// Milliseconds since the start of the page load (simulated clock).
    pub(crate) timestamp_ms: u64,
}

impl RequestWillBeSent {
    /// `true` when a script initiated this request (the only requests the
    /// paper's analysis keeps).
    pub(crate) fn is_script_initiated(&self) -> bool {
        self.call_stack.is_script_initiated()
    }
}

mod codec {
    //! JSON codec impls for the event types (see [`crate::json`]).
    use super::{CallStack, RequestWillBeSent, StackFrame};
    use crate::json::{object, JsonError, Value};
    use filterlist::ResourceType;
    use std::sync::Arc;

    fn resource_type_from_name(name: &str) -> Result<ResourceType, JsonError> {
        ResourceType::from_option_name(name)
            .ok_or_else(|| JsonError(format!("unknown resource type `{name}`")))
    }

    impl StackFrame {
        /// Build the JSON representation.
        pub(crate) fn to_json_value(&self) -> Value {
            object(vec![
                ("script_url", Value::String(self.script_url.to_string())),
                (
                    "function_name",
                    Value::String(self.function_name.to_string()),
                ),
                ("line", Value::Number(self.line as f64)),
                ("column", Value::Number(self.column as f64)),
            ])
        }

        /// Decode from a JSON node.
        pub(crate) fn from_json_value(value: &Value) -> Result<Self, JsonError> {
            Ok(StackFrame {
                script_url: value.field("script_url")?.as_str()?.into(),
                function_name: value.field("function_name")?.as_str()?.into(),
                line: value.field("line")?.as_u32()?,
                column: value.field("column")?.as_u32()?,
            })
        }
    }

    impl CallStack {
        /// Build the JSON representation.
        pub(crate) fn to_json_value(&self) -> Value {
            let frames = Value::Array(self.frames.iter().map(StackFrame::to_json_value).collect());
            let boundary = match self.async_boundary {
                Some(i) => Value::Number(i as f64),
                None => Value::Null,
            };
            object(vec![("frames", frames), ("async_boundary", boundary)])
        }

        /// Decode from a JSON node. A boundary past the last frame is
        /// refused: no page load records one.
        pub(crate) fn from_json_value(value: &Value) -> Result<Self, JsonError> {
            let frames: Arc<[StackFrame]> = value
                .field("frames")?
                .as_array()?
                .iter()
                .map(StackFrame::from_json_value)
                .collect::<Result<_, _>>()?;
            let async_boundary = match value.field("async_boundary")? {
                Value::Null => None,
                number => Some(number.as_usize()?),
            };
            if let Some(boundary) = async_boundary.filter(|&b| b > frames.len()) {
                return Err(JsonError(format!(
                    "async_boundary {boundary} is past the stack's {} frames",
                    frames.len()
                )));
            }
            Ok(CallStack {
                frames,
                async_boundary,
            })
        }
    }

    impl RequestWillBeSent {
        /// Build the JSON representation.
        pub(crate) fn to_json_value(&self) -> Value {
            object(vec![
                ("request_id", Value::number_u64(self.request_id)),
                (
                    "top_level_url",
                    Value::String(self.top_level_url.to_string()),
                ),
                ("frame_url", Value::String(self.frame_url.to_string())),
                ("url", Value::String(self.url.to_string())),
                (
                    "resource_type",
                    Value::String(self.resource_type.option_name().to_string()),
                ),
                ("call_stack", self.call_stack.to_json_value()),
                ("timestamp_ms", Value::number_u64(self.timestamp_ms)),
            ])
        }

        /// Decode from a JSON node.
        pub(crate) fn from_json_value(value: &Value) -> Result<Self, JsonError> {
            Ok(RequestWillBeSent {
                request_id: value.field("request_id")?.as_u64()?,
                top_level_url: value.field("top_level_url")?.as_str()?.into(),
                frame_url: value.field("frame_url")?.as_str()?.into(),
                url: value.field("url")?.as_str()?.into(),
                resource_type: resource_type_from_name(value.field("resource_type")?.as_str()?)?,
                call_stack: CallStack::from_json_value(value.field("call_stack")?)?,
                timestamp_ms: value.field("timestamp_ms")?.as_u64()?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack() -> CallStack {
        CallStack {
            frames: Arc::from([
                StackFrame::new("https://cdn.x.com/clone.js", "m2", 10, 4),
                StackFrame::new("https://cdn.x.com/clone.js", "init", 2, 1),
                StackFrame::new("https://tm.example/gtm.js?id=1", "bootstrap", 1, 1),
            ]),
            async_boundary: None,
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
        assert!(!CallStack::empty().is_script_initiated());
        assert!(stack().is_script_initiated());
    }

    #[test]
    fn events_round_trip_through_json() {
        let ev = RequestWillBeSent {
            request_id: 7,
            top_level_url: "https://site.com/".into(),
            frame_url: "https://site.com/".into(),
            url: "https://t.co/collect?v=1&x=1".into(),
            resource_type: ResourceType::Xhr,
            call_stack: stack(),
            timestamp_ms: 120,
        };
        let json = ev.to_json_value().render();
        let back =
            RequestWillBeSent::from_json_value(&crate::json::Value::parse(&json).unwrap()).unwrap();
        assert_eq!(ev, back);
    }

    #[test]
    fn a_boundary_past_the_last_frame_is_refused() {
        let decode = |boundary: usize| {
            let stack = CallStack {
                async_boundary: Some(boundary),
                ..stack()
            };
            let json = stack.to_json_value().render();
            CallStack::from_json_value(&crate::json::Value::parse(&json).unwrap())
        };
        let len = stack().frames.len();
        // A boundary at the end means the whole recorded stack is synchronous.
        assert_eq!(decode(len).unwrap().async_boundary, Some(len));
        let error = decode(len + 1).unwrap_err();
        assert!(error.0.contains("async_boundary 4"), "{error}");
    }
}
