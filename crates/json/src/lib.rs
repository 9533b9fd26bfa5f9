//! A small, dependency-free JSON codec for the verdict server's wire, the
//! trained-state snapshot and the stats documents.
//!
//! The build environment has no access to a crate registry, so those
//! documents go through this hand-rolled codec instead of `serde_json`. The
//! format is plain JSON — objects keep insertion order and the writer is
//! deterministic, so equal values always render to equal bytes (a property
//! the golden tests rely on). A type with a JSON form has an inherent
//! `to_json_value` / `from_json_value` pair over [`Value`], as the wire's
//! messages do. A large document on a hot path is written straight into a
//! byte buffer instead, with no tree, through [`write_string`],
//! [`write_u64`] and [`write_number`] — the same renderers
//! [`Value::render`] uses, so the bytes cannot differ.
//!
//! There is one tokenizer, the pull [`Reader`]: [`Value::parse`] builds its
//! tree through it, and a consumer that wants a few fields of a document on
//! a hot path (the verdict server's decision endpoints) reads them in place
//! instead, borrowing the strings and building no tree.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(rust_2018_idioms)]

use std::borrow::Cow;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; all persisted integers fit 2^53).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved for deterministic output.
    Object(Vec<(String, Value)>),
}

/// Errors from parsing or decoding JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(message: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(message.into()))
}

impl Value {
    /// A number from an unsigned integer, checked for exact `f64`
    /// representability. The codec stores numbers as `f64`, so integers
    /// above 2^53 would silently round on round-trip; refusing them at
    /// encode time keeps the "equal values render to equal bytes"
    /// guarantee honest.
    ///
    /// # Panics
    /// Panics if `value` exceeds 2^53.
    pub fn number_u64(value: u64) -> Value {
        assert_exact_integer(value);
        Value::Number(value as f64)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required object field.
    pub fn field(&self, key: &str) -> Result<&Value, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError(format!("missing field `{key}`")))
    }

    /// The value as a u64 (integral, in range).
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Ok(*n as u64)
            }
            other => err(format!("expected unsigned integer, got {other:?}")),
        }
    }

    /// The value as a u32.
    pub fn as_u32(&self) -> Result<u32, JsonError> {
        let n = self.as_u64()?;
        u32::try_from(n).map_err(|_| JsonError(format!("{n} out of u32 range")))
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Value::String(s) => Ok(s),
            other => err(format!("expected string, got {other:?}")),
        }
    }

    /// The value as an array.
    pub fn as_array(&self) -> Result<&[Value], JsonError> {
        match self {
            Value::Array(items) => Ok(items),
            other => err(format!("expected array, got {other:?}")),
        }
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => render_number(*n, out),
            Value::String(s) => render_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut reader = Reader::new(text);
        let value = reader.value()?;
        reader.finish()?;
        Ok(value)
    }
}

/// What JSON text is rendered into: the `String` of [`Value::render`], or
/// the byte buffer of the tree-less writers ([`write_string`],
/// [`write_u64`], [`write_number`]).
trait Sink {
    fn put(&mut self, text: &str);
    /// Append bytes that are all ASCII.
    fn put_ascii(&mut self, ascii: &[u8]);
}

impl Sink for String {
    fn put(&mut self, text: &str) {
        self.push_str(text);
    }

    fn put_ascii(&mut self, ascii: &[u8]) {
        self.push_str(std::str::from_utf8(ascii).expect("ASCII is UTF-8"));
    }
}

impl Sink for Vec<u8> {
    fn put(&mut self, text: &str) {
        self.extend_from_slice(text.as_bytes());
    }

    fn put_ascii(&mut self, ascii: &[u8]) {
        self.extend_from_slice(ascii);
    }
}

const ONES: u64 = u64::from_le_bytes([0x01; 8]);
const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);

/// Flags the bytes of `word` below `n` (at most 0x80): `(x - n·0x01…) &
/// !x & 0x80…` has its lowest set bit in the lowest such byte. Bits above
/// it may be borrows, so only the lowest is read.
fn bytes_below(word: u64, n: u8) -> u64 {
    word.wrapping_sub(ONES * u64::from(n)) & !word & HIGHS
}

/// The position of the first byte at or after `at` that ends a literal
/// run — `"`, `\` or any byte below 0x20 — or `bytes.len()` if none
/// does. Multi-byte UTF-8 units are all >= 0x80 and never match, so the
/// position is a char boundary. Eight bytes are tested per step: a byte of
/// `word ^ pattern` is zero exactly where `word` holds the pattern's byte.
#[inline]
fn literal_run_end(bytes: &[u8], mut at: usize) -> usize {
    while let Some(chunk) = bytes.get(at..at + 8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("an 8-byte slice"));
        let found = bytes_below(word ^ (ONES * u64::from(b'"')), 1)
            | bytes_below(word ^ (ONES * u64::from(b'\\')), 1)
            | bytes_below(word, 0x20);
        if found != 0 {
            return at + found.trailing_zeros() as usize / 8;
        }
        at += 8;
    }
    let rest = &bytes[at..];
    at + rest
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        .unwrap_or(rest.len())
}

fn render_string(s: &str, out: &mut impl Sink) {
    out.put_ascii(b"\"");
    // Copy the runs between escapes whole; every escaped character is one
    // ASCII byte, so the run boundaries are char boundaries.
    let bytes = s.as_bytes();
    let mut run_start = 0;
    loop {
        let at = literal_run_end(bytes, run_start);
        out.put(&s[run_start..at]);
        let Some(&byte) = bytes.get(at) else {
            break;
        };
        match byte {
            b'"' => out.put_ascii(b"\\\""),
            b'\\' => out.put_ascii(b"\\\\"),
            b'\n' => out.put_ascii(b"\\n"),
            b'\r' => out.put_ascii(b"\\r"),
            b'\t' => out.put_ascii(b"\\t"),
            _ => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                let (high, low) = (HEX[usize::from(byte >> 4)], HEX[usize::from(byte & 0xf)]);
                out.put_ascii(&[b'\\', b'u', b'0', b'0', high, low]);
            }
        }
        run_start = at + 1;
    }
    out.put_ascii(b"\"");
}

fn render_u64(n: u64, out: &mut impl Sink) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = n;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.put_ascii(&digits[at..]);
}

fn render_number(n: f64, out: &mut impl Sink) {
    assert!(
        n.is_finite(),
        "non-finite number {n} is not representable in JSON"
    );
    if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        let integer = n as i64;
        if integer < 0 {
            out.put_ascii(b"-");
        }
        render_u64(integer.unsigned_abs(), out);
    } else {
        out.put(&n.to_string());
    }
}

fn assert_exact_integer(value: u64) {
    assert!(
        value <= 1 << 53,
        "integer {value} exceeds 2^53 and is not exactly representable in JSON"
    );
}

/// Append `s` to a byte buffer as a JSON string literal, quotes and
/// escapes included — byte-identical to how [`Value::render`] writes a
/// [`Value::String`], for responses assembled without a tree.
pub fn write_string(out: &mut Vec<u8>, s: &str) {
    render_string(s, out);
}

/// Append `n` to a byte buffer as a JSON integer — byte-identical to how
/// [`Value::render`] writes [`Value::number_u64`]`(n)`.
///
/// # Panics
/// Panics if `n` exceeds 2^53, as [`Value::number_u64`] does.
#[inline]
pub fn write_u64(out: &mut Vec<u8>, n: u64) {
    assert_exact_integer(n);
    render_u64(n, out);
}

/// Append `n` to a byte buffer as a JSON number — byte-identical to how
/// [`Value::render`] writes a [`Value::Number`]: an integral value within
/// 2^53 as an integer, any other in Rust's shortest round-trip form.
///
/// # Panics
/// Panics if `n` is not finite.
pub fn write_number(out: &mut Vec<u8>, n: f64) {
    render_number(n, out);
}

/// Maximum container nesting the reader accepts. The documents this codec
/// carries nest a few levels deep; the limit only exists so corrupted or hostile input returns
/// a [`JsonError`] instead of overflowing the stack.
const MAX_DEPTH: usize = 128;

/// The kind of the JSON value at a [`Reader`]'s cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool,
    /// A number.
    Number,
    /// A string.
    String,
    /// An array.
    Array,
    /// An object.
    Object,
}

/// A pull tokenizer over one JSON document — the only JSON scanner in the
/// workspace. [`Value::parse`] is a consumer that builds the tree; a hot
/// path that wants a handful of string fields reads them in place instead
/// and pays for no tree: [`Reader::string`] borrows from the document
/// whenever the literal contains no escape, and [`Reader::skip_value`]
/// checks everything it passes over (escapes, numbers, nesting depth)
/// exactly as a parse would, so "decoded without a tree" never means
/// "accepted what the tree parser rejects".
///
/// The methods a decoder calls per field are `#[inline]`, with escapes and
/// errors handled out of line: the workspace builds without LTO, so a
/// decoder in another crate would otherwise pay a call per token. The two
/// every field runs, [`Reader::next_key`] and [`Reader::maybe_string`], are
/// `#[inline(always)]`: left to the cost model, both stay calls inside the
/// server's decoders.
///
/// ```
/// use trackersift_json::Reader;
/// use std::borrow::Cow;
///
/// let mut reader = Reader::new(r#"{"tags":["a\n",2],"host":"px.ads.com"}"#);
/// let mut host = None;
/// reader.begin_object().unwrap();
/// while let Some(key) = reader.next_key().unwrap() {
///     match key.as_ref() {
///         "host" => host = Some(reader.string().unwrap()),
///         _ => reader.skip_value().unwrap(),
///     }
/// }
/// reader.finish().unwrap();
/// // No escape in the literal, so nothing was copied.
/// assert!(matches!(host, Some(Cow::Borrowed("px.ads.com"))));
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
    /// The cursor sits right after a container's opening bracket, so the
    /// next entry is not preceded by a comma.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    #[inline]
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    #[inline]
    fn skip_whitespace(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek_byte() {
            self.pos += 1;
        }
    }

    #[inline]
    fn peek_byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek_byte() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.expected(byte)
        }
    }

    #[cold]
    #[inline(never)]
    fn expected<T>(&self, byte: u8) -> Result<T, JsonError> {
        err(format!(
            "expected `{}` at byte {}",
            char::from(byte),
            self.pos
        ))
    }

    /// The kind of the next value (after any whitespace), without
    /// consuming it.
    #[inline]
    pub fn peek(&mut self) -> Result<Kind, JsonError> {
        self.skip_whitespace();
        match self.peek_byte() {
            Some(b'{') => Ok(Kind::Object),
            Some(b'[') => Ok(Kind::Array),
            Some(b'"') => Ok(Kind::String),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'n') => Ok(Kind::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Number),
            _ => self.unexpected(),
        }
    }

    #[cold]
    #[inline(never)]
    fn unexpected<T>(&self) -> Result<T, JsonError> {
        err(format!(
            "unexpected input {:?} at byte {}",
            self.peek_byte(),
            self.pos
        ))
    }

    fn keyword(&mut self, keyword: &str) -> bool {
        let found = self.text.as_bytes()[self.pos..].starts_with(keyword.as_bytes());
        if found {
            self.pos += keyword.len();
        }
        found
    }

    /// Consume `null`.
    pub(crate) fn null(&mut self) -> Result<(), JsonError> {
        self.skip_whitespace();
        if self.keyword("null") {
            Ok(())
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Consume `true` or `false`.
    pub(crate) fn bool(&mut self) -> Result<bool, JsonError> {
        self.skip_whitespace();
        if self.keyword("true") {
            Ok(true)
        } else if self.keyword("false") {
            Ok(false)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Consume a number. The run of number bytes at the cursor must match
    /// RFC 8259 §6's grammar, so `01`, `1.` and `-.5` are refused although
    /// Rust's float parser reads them.
    pub(crate) fn number(&mut self) -> Result<f64, JsonError> {
        self.skip_whitespace();
        let start = self.pos;
        if self.peek_byte() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek_byte() {
            self.pos += 1;
        }
        // Every byte passed over is ASCII, so both ends are char boundaries.
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if is_json_number(text.as_bytes()) => Ok(n),
            _ => err(format!("invalid number `{text}`")),
        }
    }

    /// Advance to the next `"`, `\` or control byte (or the end of the
    /// document), eight bytes a step; the cursor stops on a char boundary
    /// and string reading stays linear in the document size.
    #[inline]
    fn skip_literal_run(&mut self) {
        self.pos = literal_run_end(self.text.as_bytes(), self.pos);
    }

    /// Consume a string. The result borrows from the document unless the
    /// literal contains an escape, which forces an unescaped copy. A byte
    /// below 0x20 must be escaped (RFC 8259 §7); a raw one is an error.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        match self.maybe_string()? {
            Some(string) => Ok(string),
            None => self.expected(b'"'),
        }
    }

    /// The string at the cursor (after any whitespace), consumed as
    /// [`Reader::string`] would; `None` if the next value is not a string,
    /// with the cursor left on it for the caller to consume. One test of the
    /// opening quote where [`Reader::peek`] then [`Reader::string`] take two.
    ///
    /// ```
    /// use trackersift_json::{Reader, Value};
    /// use std::borrow::Cow;
    ///
    /// let mut reader = Reader::new(r#"[ "px.ads.com", 7]"#);
    /// reader.begin_array().unwrap();
    /// assert!(reader.next_element().unwrap());
    /// assert!(matches!(reader.maybe_string(), Ok(Some(Cow::Borrowed("px.ads.com")))));
    /// assert!(reader.next_element().unwrap());
    /// assert_eq!(reader.maybe_string(), Ok(None));
    /// assert_eq!(reader.value(), Ok(Value::Number(7.0)));
    /// ```
    #[inline(always)]
    pub fn maybe_string(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        self.skip_whitespace();
        if self.peek_byte() != Some(b'"') {
            return Ok(None);
        }
        self.pos += 1;
        let start = self.pos;
        self.skip_literal_run();
        if self.peek_byte() == Some(b'"') {
            let literal = &self.text[start..self.pos];
            self.pos += 1;
            return Ok(Some(Cow::Borrowed(literal)));
        }
        self.escaped_string(start).map(Some)
    }

    /// The rest of a string from `start`, with the cursor on its first
    /// escape, raw control byte or the end of the document: unescaped into
    /// a copy, or the error that ends it.
    #[cold]
    #[inline(never)]
    fn escaped_string(&mut self, start: usize) -> Result<Cow<'a, str>, JsonError> {
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.peek_byte() {
                None => return err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => out.push(self.escape()?),
                Some(control) => {
                    return err(format!(
                        "unescaped control character {control:#04x} in string at byte {}",
                        self.pos
                    ))
                }
            }
            let run_start = self.pos;
            self.skip_literal_run();
            out.push_str(&self.text[run_start..self.pos]);
        }
    }

    /// Consume one escape sequence (the cursor is on its `\`).
    fn escape(&mut self) -> Result<char, JsonError> {
        self.pos += 1;
        let Some(esc) = self.peek_byte() else {
            return err("unterminated escape");
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{0008}',
            b'f' => '\u{000C}',
            b'u' => {
                let first = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&first) {
                    // Surrogate pair.
                    self.expect(b'\\')?;
                    self.expect(b'u')?;
                    let second = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&second) {
                        return err("invalid low surrogate");
                    }
                    0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                } else {
                    first
                };
                match char::from_u32(code) {
                    Some(c) => c,
                    None => return err(format!("invalid code point {code:#x}")),
                }
            }
            other => return err(format!("invalid escape `\\{}`", char::from(other))),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let Some(digits) = self.text.as_bytes().get(self.pos..self.pos + 4) else {
            return err("truncated \\u escape");
        };
        // Four bytes that are valid UTF-8 on their own end on a char
        // boundary, so the cursor stays on one.
        let hex = std::str::from_utf8(digits)
            .map_err(|_| JsonError("invalid utf-8 in \\u escape".into()))?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| JsonError(format!("invalid hex `{hex}`")))
    }

    #[inline]
    fn begin(&mut self, open: u8) -> Result<(), JsonError> {
        self.skip_whitespace();
        if self.depth >= MAX_DEPTH {
            return err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.expect(open)?;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Step to the next entry of the innermost container, consuming the
    /// separating comma; `false` once its closing bracket is consumed.
    #[inline]
    fn next_entry(&mut self, close: u8) -> Result<bool, JsonError> {
        self.skip_whitespace();
        let first = std::mem::replace(&mut self.fresh, false);
        match self.peek_byte() {
            Some(byte) if byte == close => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => self.no_separator(close),
        }
    }

    #[cold]
    #[inline(never)]
    fn no_separator<T>(&self, close: u8) -> Result<T, JsonError> {
        err(format!(
            "expected `,` or `{}`, got {:?}",
            char::from(close),
            self.peek_byte()
        ))
    }

    /// Enter an object; iterate it with [`Reader::next_key`].
    #[inline]
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.begin(b'{')
    }

    /// The next key of the object entered last, with the cursor left on
    /// its value (which the caller must consume); `None` once the object's
    /// closing brace is consumed. Duplicate keys are reported as they come.
    #[inline(always)]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.next_entry(b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_whitespace();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Enter an array; iterate it with [`Reader::next_element`].
    #[inline]
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.begin(b'[')
    }

    /// Whether the array entered last has another element, with the cursor
    /// left on it (the caller must consume it); `false` once the array's
    /// closing bracket is consumed.
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, JsonError> {
        self.next_entry(b']')
    }

    /// Consume the next value of any kind without building it. Everything
    /// skipped is still checked, and nesting is still depth-limited.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        match self.peek()? {
            Kind::Null => self.null(),
            Kind::Bool => self.bool().map(drop),
            Kind::Number => self.number().map(drop),
            Kind::String => self.string().map(drop),
            Kind::Array => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Kind::Object => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
        }
    }

    /// Consume the next value of any kind into a [`Value`] tree.
    pub fn value(&mut self) -> Result<Value, JsonError> {
        Ok(match self.peek()? {
            Kind::Null => {
                self.null()?;
                Value::Null
            }
            Kind::Bool => Value::Bool(self.bool()?),
            Kind::Number => Value::Number(self.number()?),
            Kind::String => Value::String(self.string()?.into_owned()),
            Kind::Array => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_element()? {
                    items.push(self.value()?);
                }
                Value::Array(items)
            }
            Kind::Object => {
                self.begin_object()?;
                let mut fields = Vec::new();
                while let Some(key) = self.next_key()? {
                    fields.push((key.into_owned(), self.value()?));
                }
                Value::Object(fields)
            }
        })
    }

    /// The end of the document: only whitespace may follow the last value.
    #[inline]
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_whitespace();
        if self.pos != self.text.len() {
            return self.trailing();
        }
        Ok(())
    }

    #[cold]
    #[inline(never)]
    fn trailing(&self) -> Result<(), JsonError> {
        err(format!("trailing data at byte {}", self.pos))
    }
}

/// Whether `text` is a number by RFC 8259 §6:
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn is_json_number(text: &[u8]) -> bool {
    let digits = |from: usize| {
        text[from..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count()
    };
    let mut at = usize::from(text.first() == Some(&b'-'));
    match text.get(at) {
        Some(b'0') => at += 1,
        Some(b'1'..=b'9') => at += digits(at),
        _ => return false,
    }
    if text.get(at) == Some(&b'.') {
        match digits(at + 1) {
            0 => return false,
            n => at += 1 + n,
        }
    }
    if let Some(b'e' | b'E') = text.get(at) {
        at += usize::from(matches!(text.get(at + 1), Some(b'+' | b'-'))) + 1;
        match digits(at) {
            0 => return false,
            n => at += n,
        }
    }
    at == text.len()
}

/// Convenience: build an object value.
pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let value = Value::parse(text).unwrap();
            assert_eq!(value.render(), text);
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"a":[1,2,{"b":"x","c":null}],"d":true}"#;
        let value = Value::parse(text).unwrap();
        assert_eq!(value.render(), text);
        assert_eq!(value.field("d").unwrap(), &Value::Bool(true));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "quote\" slash\\ newline\n tab\t unicode é 中 🦀";
        let mut rendered = String::new();
        render_string(original, &mut rendered);
        let back = Value::parse(&rendered).unwrap();
        assert_eq!(back.as_str().unwrap(), original);
    }

    #[test]
    fn surrogate_pairs_parse() {
        let value = Value::parse("\"\\ud83e\\udd80\"").unwrap();
        assert_eq!(value.as_str().unwrap(), "🦀");
    }

    #[test]
    fn errors_are_reported() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("nulL").is_err());
        assert!(Value::parse("{}extra").is_err());
        assert!(Value::parse("\"\\q\"").is_err());
    }

    #[test]
    fn hostile_nesting_errors_instead_of_overflowing() {
        let hostile = "[".repeat(100_000);
        let error = Value::parse(&hostile).unwrap_err();
        assert!(error.0.contains("nesting"), "{error}");
        // Legitimate nesting well past any document's few levels works.
        let deep = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(Value::parse(&deep).is_ok());
    }

    #[test]
    fn out_of_range_scalars_error_on_decode() {
        assert!(Value::parse("4294967296").unwrap().as_u32().is_err());
        assert!(Value::parse("4294967295").unwrap().as_u32().is_ok());
        assert!(Value::parse("-1").unwrap().as_u64().is_err());
    }

    #[test]
    #[should_panic(expected = "2^53")]
    fn unrepresentable_integers_are_refused_at_encode_time() {
        let _ = Value::number_u64((1u64 << 53) + 1);
    }

    #[test]
    fn write_string_matches_render_for_every_escape() {
        let mut original: String = (0u8..0x30).map(char::from).collect();
        original.push_str("\\ é 中 🦀 \u{7f}");
        let mut bytes = Vec::new();
        write_string(&mut bytes, &original);
        let rendered = Value::String(original.clone()).render();
        assert_eq!(bytes, rendered.as_bytes());
        assert!(rendered.contains("\\u001f") && rendered.contains("\\n"));
        assert_eq!(Value::parse(&rendered).unwrap().as_str().unwrap(), original);
    }

    /// The byte-at-a-time escaper the word scan replaced.
    fn reference_render_string(s: &str) -> String {
        let mut out = vec![b'"'];
        for byte in s.bytes() {
            match byte {
                b'"' => out.extend_from_slice(b"\\\""),
                b'\\' => out.extend_from_slice(b"\\\\"),
                b'\n' => out.extend_from_slice(b"\\n"),
                b'\r' => out.extend_from_slice(b"\\r"),
                b'\t' => out.extend_from_slice(b"\\t"),
                0..=0x1f => out.extend_from_slice(format!("\\u{byte:04x}").as_bytes()),
                _ => out.push(byte),
            }
        }
        out.push(b'"');
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn render_string_equals_a_byte_at_a_time_escaper_at_every_alignment() {
        // Every byte the scan stops on, and its neighbours 0x20 and 0x7f,
        // at every offset into an eight-byte step, after ASCII and
        // multi-byte runs alike, alone, repeated and back to back.
        let specials: Vec<char> = (0u8..=0x20)
            .chain([b'"', b'\\', 0x7f])
            .map(char::from)
            .collect();
        for filler in ["a", "é", "🦀", " ~"] {
            for run in 0..20 {
                let plain = filler.repeat(run);
                for &special in &specials {
                    for text in [
                        plain.clone(),
                        format!("{plain}{special}"),
                        format!("{plain}{special}{plain}"),
                        format!("{special}{plain}{special}{special}"),
                    ] {
                        let mut rendered = String::new();
                        render_string(&text, &mut rendered);
                        assert_eq!(rendered, reference_render_string(&text), "{text:?}");
                        let mut bytes = Vec::new();
                        write_string(&mut bytes, &text);
                        assert_eq!(bytes, rendered.as_bytes());
                    }
                }
            }
        }
    }

    #[test]
    fn number_writers_match_the_formatting_they_replaced() {
        for n in [0u64, 1, 9, 10, 99, 12_345, u64::from(u32::MAX), 1 << 53] {
            let mut bytes = Vec::new();
            write_u64(&mut bytes, n);
            assert_eq!(bytes, n.to_string().as_bytes());
            assert_eq!(Value::number_u64(n).render(), n.to_string());
        }
        for n in [
            0.0f64,
            -0.0,
            2.0,
            -7.0,
            1.5,
            0.25,
            0.1,
            -2.5,
            1e-7,
            1e300,
            9007199254740994.0,
        ] {
            let formatted = if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                format!("{}", n as i64)
            } else {
                format!("{n}")
            };
            let mut bytes = Vec::new();
            write_number(&mut bytes, n);
            assert_eq!(bytes, formatted.as_bytes());
            assert_eq!(Value::Number(n).render(), formatted);
            assert_eq!(Value::parse(&formatted).unwrap(), Value::Number(n));
        }
    }

    #[test]
    #[should_panic(expected = "2^53")]
    fn the_integer_writer_refuses_what_number_u64_refuses() {
        write_u64(&mut Vec::new(), (1u64 << 53) + 1);
    }

    #[test]
    fn reader_borrows_unescaped_strings_and_copies_escaped_ones() {
        let text =
            r#" { "plain" : "px.ads.com" , "esc\u0061ped" : "a\tb" , "n" : [1, {"x": null}] } "#;
        let mut reader = Reader::new(text);
        assert_eq!(reader.peek().unwrap(), Kind::Object);
        reader.begin_object().unwrap();
        let key = reader.next_key().unwrap().unwrap();
        assert!(matches!(key, Cow::Borrowed("plain")));
        assert!(matches!(
            reader.string().unwrap(),
            Cow::Borrowed("px.ads.com")
        ));
        let key = reader.next_key().unwrap().unwrap();
        assert!(matches!(&key, Cow::Owned(unescaped) if unescaped == "escaped"));
        assert!(matches!(reader.string().unwrap(), Cow::Owned(unescaped) if unescaped == "a\tb"));
        assert_eq!(reader.next_key().unwrap().as_deref(), Some("n"));
        reader.skip_value().unwrap();
        assert_eq!(reader.next_key().unwrap(), None);
        reader.finish().unwrap();
    }

    #[test]
    fn strings_end_at_the_right_byte_at_every_alignment() {
        // The string scan tests eight bytes per step; put the closing quote
        // and an escape at every offset into a step, after ASCII and
        // multi-byte runs alike.
        for filler in ["a", "é", "🦀"] {
            for run in 0..20 {
                let plain = filler.repeat(run);
                let mut reader = Reader::new(&plain);
                reader.skip_literal_run();
                assert_eq!(reader.pos, plain.len(), "no terminator: stop at the end");

                let text = format!("[\"{plain}\",\"{plain}\\n{plain}\\\\\",0]");
                let expected = Value::Array(vec![
                    Value::String(plain.clone()),
                    Value::String(format!("{plain}\n{plain}\\")),
                    Value::Number(0.0),
                ]);
                assert_eq!(Value::parse(&text).unwrap(), expected, "{text}");
            }
        }
    }

    #[test]
    fn skipping_checks_what_parsing_checks() {
        // Whatever `Value::parse` rejects, `skip_value` + `finish` rejects
        // with the same message, and vice versa.
        let deep_ok = format!("{}1{}", "[".repeat(128), "]".repeat(128));
        let too_deep = format!("{}1{}", "[".repeat(129), "]".repeat(129));
        let too_deep_objects = "{\"a\":".repeat(129);
        for text in [
            "[1,2,{\"a\":\"\\ud83e\\udd80\"}]",
            deep_ok.as_str(),
            too_deep.as_str(),
            too_deep_objects.as_str(),
            "[1,]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "\"\\ud83e\"",
            "\"\\ud83e\\u0041\"",
            "\"\\q\"",
            "\"\\u12\"",
            "\"open",
            "1e",
            "-",
            "tru",
            "nul",
            "[1 2]",
            "{} x",
            "",
        ] {
            let mut reader = Reader::new(text);
            let skipped = reader.skip_value().and_then(|()| reader.finish());
            assert_eq!(skipped.err(), Value::parse(text).err(), "{text}");
        }
    }

    #[test]
    fn raw_control_bytes_in_strings_are_refused_and_escaped_ones_parse() {
        // RFC 8259 §7: a byte below 0x20 inside a string must be escaped.
        // Put one in a value, in a key, after an escape and deep into a run
        // (past the eight-byte scan steps), for every such byte.
        for byte in 0u8..0x20 {
            let control = char::from(byte);
            let long = "x".repeat(19);
            for (raw, at) in [
                (format!("\"a{control}b\""), 2),
                (format!("{{\"k{control}\":1}}"), 3),
                (format!("[\"\\n{control}\"]"), 4),
                (format!("\"{long}{control}\""), 20),
            ] {
                let error = Value::parse(&raw).unwrap_err();
                assert_eq!(
                    error.0,
                    format!("unescaped control character {byte:#04x} in string at byte {at}"),
                    "{raw:?}"
                );
                let mut reader = Reader::new(&raw);
                let skipped = reader.skip_value().and_then(|()| reader.finish());
                assert_eq!(skipped.err(), Some(error), "{raw:?}");
            }
            // Escaped, the same byte is ordinary string content, and the
            // writer's escape of it reads back.
            let escaped = format!("\"a\\u{byte:04x}b\"");
            let expected = format!("a{control}b");
            assert_eq!(Value::parse(&escaped).unwrap().as_str().unwrap(), expected);
            let mut rendered = String::new();
            render_string(&expected, &mut rendered);
            assert_eq!(Value::parse(&rendered).unwrap().as_str().unwrap(), expected);
        }
        assert_eq!(
            Value::parse("\"a\u{7f}b\"").unwrap().as_str().unwrap(),
            "a\u{7f}b"
        );
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        // RFC 8259 §6: no leading zero, no bare or leading `.`, and an
        // exponent has digits. Rust's float parser reads all of these.
        for number in ["01", "-01", "00", "1.", "1.e3", "-.5", "1e", "1e+", "-"] {
            let expected = JsonError(format!("invalid number `{number}`"));
            for text in [
                number.to_string(),
                format!("[{number}]"),
                format!("{{\"a\":{number}}}"),
            ] {
                assert_eq!(Value::parse(&text), Err(expected.clone()), "{text}");
                let mut reader = Reader::new(&text);
                let skipped = reader.skip_value().and_then(|()| reader.finish());
                assert_eq!(skipped, Err(expected.clone()), "{text}");
            }
        }
        for (text, n) in [
            ("-0", -0.0),
            ("0", 0.0),
            ("0.5", 0.5),
            ("1E+2", 100.0),
            ("1.5e-3", 1.5e-3),
            ("-12.25E2", -1225.0),
            ("10", 10.0),
        ] {
            assert_eq!(Value::parse(text), Ok(Value::Number(n)), "{text}");
            let mut reader = Reader::new(text);
            assert_eq!(reader.skip_value().and_then(|()| reader.finish()), Ok(()));
        }
    }

    #[test]
    fn maybe_string_reads_strings_and_leaves_every_other_value() {
        // A string reads back as `string()` reads it, borrowed or unescaped.
        for text in [" \t\"px.ads.com\"", "\n \"a\\tb\\u00e9\"", "\"\""] {
            let mut reader = Reader::new(text);
            let read = reader.maybe_string().unwrap().unwrap();
            reader.finish().unwrap();
            let expected = Reader::new(text).string().unwrap();
            assert_eq!(read, expected, "{text}");
            assert_eq!(
                matches!(read, Cow::Borrowed(_)),
                matches!(expected, Cow::Borrowed(_)),
                "{text}"
            );
        }
        // Any other value, well-formed or not, is left for `value()` to
        // read or refuse exactly as it would have without the attempt.
        for text in [
            " null",
            "true",
            " false",
            "-2.5",
            "01",
            "[1, \"a\"]",
            "{\"a\": tru}",
            "{\"a\": 1}",
            " nul",
            "]",
            "",
            "  ",
        ] {
            let mut reader = Reader::new(text);
            assert_eq!(reader.maybe_string(), Ok(None), "{text}");
            assert_eq!(reader.value(), Reader::new(text).value(), "{text}");
        }
        // A malformed string is the error `string()` reports.
        for text in ["\"open", "\"a\\q\"", "\"a\u{1}\""] {
            assert_eq!(
                Reader::new(text).maybe_string().map(|_| ()),
                Reader::new(text).string().map(|_| ()),
                "{text:?}"
            );
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let value = Value::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(value.render(), r#"{"a":[1,2]}"#);
    }
}
