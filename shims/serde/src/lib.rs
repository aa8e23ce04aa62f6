//! Offline API-surface shim for `serde`, with a working JSON backend.
//!
//! Provides the `Serialize` name in both the trait and macro namespaces so
//! `use serde::Serialize;` plus `#[derive(Serialize)]` compile unchanged.
//! The derive in `serde_derive` generates real implementations that stream
//! a value into the [`json::JsonWriter`], and [`json::to_string`] renders
//! any serializable value as a JSON document (the repository benchmark,
//! `benchmark/`, drives the writer directly to emit its result objects).
//! There is no `Deserialize`: nothing reads a document back into a typed
//! value.
//!
//! Divergence from upstream worth knowing about when this shim is ever
//! replaced by the registry crates: upstream's `Serialize::serialize` is
//! generic over a `Serializer`; here it is monomorphic over the JSON writer
//! (the only backend the workspace needs), and `json::to_string` plays the
//! role of `serde_json::to_string` but returns `String` directly instead of
//! a `Result`.  Document parsing goes through [`json::parse`], which
//! returns a dynamically-typed [`json::Value`] tree (the shim's stand-in for
//! `serde_json::Value`) — that is what `benchmark --compare` uses to read
//! two result files back.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde_derive::Serialize;

/// A value that can be written as JSON.
///
/// Stand-in for `serde::Serialize`; implementations are usually generated
/// by `#[derive(Serialize)]`.
pub trait Serialize {
    /// Streams `self` into the JSON writer as one complete value.
    fn serialize(&self, writer: &mut json::JsonWriter);
}

/// Minimal JSON emission — the shim's stand-in for `serde_json`.
pub mod json {
    use super::Serialize;

    /// Renders a serializable value as a JSON document.
    pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
        let mut writer = JsonWriter::new();
        value.serialize(&mut writer);
        writer.finish()
    }

    /// Renders a serializable value as JSON with trailing newline, the
    /// conventional shape for files committed as build artifacts.
    pub fn to_file_string<T: Serialize + ?Sized>(value: &T) -> String {
        let mut s = to_string(value);
        s.push('\n');
        s
    }

    #[derive(Debug, Clone, Copy)]
    struct Frame {
        in_array: bool,
        items: usize,
    }

    /// An append-only JSON stream writer.
    ///
    /// Values call [`JsonWriter::begin_object`] / [`JsonWriter::key`] /
    /// scalar methods in document order; the writer inserts commas and
    /// colons.  The output is compact (no whitespace) and UTF-8 clean.
    #[derive(Debug, Default)]
    pub struct JsonWriter {
        out: String,
        stack: Vec<Frame>,
        after_key: bool,
    }

    impl JsonWriter {
        /// An empty writer.
        pub fn new() -> JsonWriter {
            JsonWriter::default()
        }

        /// Consumes the writer and returns the JSON text.
        ///
        /// # Panics
        /// Panics if an object or array was left open.
        pub fn finish(self) -> String {
            assert!(
                self.stack.is_empty(),
                "JsonWriter finished with {} unclosed container(s)",
                self.stack.len()
            );
            self.out
        }

        /// Comma bookkeeping shared by every value-producing method: a value
        /// directly follows a key (no comma), or is an array element
        /// (comma-separated), or is the document root.
        fn value_prelude(&mut self) {
            if self.after_key {
                self.after_key = false;
                return;
            }
            if let Some(frame) = self.stack.last_mut() {
                debug_assert!(frame.in_array, "object member written without a key");
                if frame.items > 0 {
                    self.out.push(',');
                }
                frame.items += 1;
            }
        }

        /// Opens an object (`{`).
        pub fn begin_object(&mut self) {
            self.value_prelude();
            self.out.push('{');
            self.stack.push(Frame {
                in_array: false,
                items: 0,
            });
        }

        /// Closes the innermost object (`}`).
        pub fn end_object(&mut self) {
            let frame = self.stack.pop().expect("end_object with no open object");
            debug_assert!(!frame.in_array, "end_object closing an array");
            self.out.push('}');
        }

        /// Opens an array (`[`).
        pub fn begin_array(&mut self) {
            self.value_prelude();
            self.out.push('[');
            self.stack.push(Frame {
                in_array: true,
                items: 0,
            });
        }

        /// Closes the innermost array (`]`).
        pub fn end_array(&mut self) {
            let frame = self.stack.pop().expect("end_array with no open array");
            debug_assert!(frame.in_array, "end_array closing an object");
            self.out.push(']');
        }

        /// Writes an object key; the next write is its value.
        pub fn key(&mut self, key: &str) {
            let frame = self.stack.last_mut().expect("key outside an object");
            debug_assert!(!frame.in_array, "key inside an array");
            if frame.items > 0 {
                self.out.push(',');
            }
            frame.items += 1;
            write_escaped(&mut self.out, key);
            self.out.push(':');
            self.after_key = true;
        }

        /// Writes a string value.
        pub fn string(&mut self, value: &str) {
            self.value_prelude();
            write_escaped(&mut self.out, value);
        }

        /// Writes an unsigned integer value.
        pub fn unsigned(&mut self, value: u128) {
            self.value_prelude();
            self.out.push_str(&value.to_string());
        }

        /// Writes a signed integer value.
        pub fn signed(&mut self, value: i128) {
            self.value_prelude();
            self.out.push_str(&value.to_string());
        }

        /// Writes a floating-point value (`null` for NaN/infinities, which
        /// JSON cannot represent).
        pub fn float(&mut self, value: f64) {
            self.value_prelude();
            if value.is_finite() {
                // Rust's float Display is the shortest round-trippable form,
                // but it omits the fractional part for integral values;
                // keep a `.0` so consumers see a JSON number with a clear
                // floating-point intent.
                let text = value.to_string();
                self.out.push_str(&text);
                if !text.contains(['.', 'e', 'E']) {
                    self.out.push_str(".0");
                }
            } else {
                self.out.push_str("null");
            }
        }

        /// Writes a boolean value.
        pub fn boolean(&mut self, value: bool) {
            self.value_prelude();
            self.out.push_str(if value { "true" } else { "false" });
        }

        /// Writes a JSON `null`.
        pub fn null(&mut self) {
            self.value_prelude();
            self.out.push_str("null");
        }
    }

    /// A parsed JSON value (stand-in for `serde_json::Value`).
    ///
    /// Numbers are kept as `f64`, which is lossless for every integer the
    /// workspace serializes below 2^53 (ids, counts, nanosecond wall times).
    /// Object member order is preserved.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number.
        Number(f64),
        /// A string.
        String(String),
        /// An array.
        Array(Vec<Value>),
        /// An object, in document order.
        Object(Vec<(String, Value)>),
    }

    impl Value {
        /// Member of an object by key (`None` for absent keys or non-objects).
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The elements if this is an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(items) => Some(items),
                _ => None,
            }
        }

        /// The string contents if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::String(s) => Some(s),
                _ => None,
            }
        }

        /// The number if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Number(n) => Some(*n),
                _ => None,
            }
        }

        /// The number as an unsigned integer, if it is one exactly.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                    Some(*n as u64)
                }
                _ => None,
            }
        }

        /// The boolean if this is one.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }
    }

    /// A JSON syntax error with the byte offset where it was detected.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ParseError {
        /// Byte offset into the input.
        pub offset: usize,
        /// What went wrong.
        pub message: String,
    }

    impl std::fmt::Display for ParseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(
                f,
                "JSON parse error at byte {}: {}",
                self.offset, self.message
            )
        }
    }

    impl std::error::Error for ParseError {}

    /// Parses a JSON document into a [`Value`] tree.
    ///
    /// Accepts exactly one top-level value followed only by whitespace.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing data after the top-level value"));
        }
        Ok(value)
    }

    /// Maximum container nesting [`parse`] accepts — the same cap
    /// serde_json uses, turning pathological inputs (e.g. a corrupted
    /// baseline of thousands of `[`s) into a parse error instead of a
    /// stack overflow in the recursive descent.
    const MAX_DEPTH: usize = 128;

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        depth: usize,
    }

    impl<'a> Parser<'a> {
        fn error(&self, message: &str) -> ParseError {
            ParseError {
                offset: self.pos,
                message: message.to_string(),
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), ParseError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.error(&format!("expected '{}'", b as char)))
            }
        }

        fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(self.error(&format!("expected '{word}'")))
            }
        }

        fn value(&mut self) -> Result<Value, ParseError> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::String(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ => Err(self.error("expected a JSON value")),
            }
        }

        fn enter(&mut self) -> Result<(), ParseError> {
            self.depth += 1;
            if self.depth > MAX_DEPTH {
                return Err(self.error("nesting deeper than 128 levels"));
            }
            Ok(())
        }

        fn object(&mut self) -> Result<Value, ParseError> {
            self.expect(b'{')?;
            self.enter()?;
            let mut members = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                self.depth -= 1;
                return Ok(Value::Object(members));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                members.push((key, self.value()?));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        self.depth -= 1;
                        return Ok(Value::Object(members));
                    }
                    _ => return Err(self.error("expected ',' or '}' in object")),
                }
            }
        }

        fn array(&mut self) -> Result<Value, ParseError> {
            self.expect(b'[')?;
            self.enter()?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                self.depth -= 1;
                return Ok(Value::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        self.depth -= 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(self.error("expected ',' or ']' in array")),
                }
            }
        }

        fn string(&mut self) -> Result<String, ParseError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.error("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let escaped = self.peek().ok_or_else(|| self.error("bad escape"))?;
                        self.pos += 1;
                        match escaped {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let first = self.hex4()?;
                                let code = if (0xD800..0xDC00).contains(&first) {
                                    // Surrogate pair.
                                    self.expect(b'\\')?;
                                    self.expect(b'u')?;
                                    let second = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&second) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                                } else {
                                    first
                                };
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| self.error("invalid \\u escape"))?,
                                );
                            }
                            _ => return Err(self.error("unknown escape character")),
                        }
                    }
                    // RFC 8259 §7: U+0000 through U+001F must be escaped.
                    Some(0x00..=0x1F) => {
                        return Err(self.error("unescaped control character in string"))
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar.  The input came in as a
                        // &str and escapes/quotes are ASCII, so `pos` is
                        // always on a char boundary; decoding at most 4
                        // bytes keeps long strings O(n) overall.
                        let end = self.bytes.len().min(self.pos + 4);
                        let lead = &self.bytes[self.pos..end];
                        let len = Self::utf8_len(lead[0]);
                        let c = std::str::from_utf8(&lead[..len.min(lead.len())])
                            .ok()
                            .and_then(|s| s.chars().next())
                            .ok_or_else(|| self.error("invalid UTF-8 in string"))?;
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        /// Byte length of the UTF-8 sequence starting with `lead` (1 for
        /// anything malformed; the from_utf8 check then rejects it).
        fn utf8_len(lead: u8) -> usize {
            match lead {
                0xC0..=0xDF => 2,
                0xE0..=0xEF => 3,
                0xF0..=0xF7 => 4,
                _ => 1,
            }
        }

        fn hex4(&mut self) -> Result<u32, ParseError> {
            let end = self.pos + 4;
            if end > self.bytes.len() {
                return Err(self.error("truncated \\u escape"));
            }
            // Exactly four hex digits — from_str_radix alone would also
            // accept a sign, which the JSON grammar does not.
            let mut code = 0u32;
            for &b in &self.bytes[self.pos..end] {
                let digit = (b as char)
                    .to_digit(16)
                    .ok_or_else(|| self.error("invalid \\u escape"))?;
                code = code * 16 + digit;
            }
            self.pos = end;
            Ok(code)
        }

        /// One number token of the RFC 8259 grammar: an optional `-`, then
        /// `0` or a non-zero digit followed by digits, then an optional
        /// `.` and digits, then an optional exponent (`e`/`E`, an optional
        /// sign, digits).  `f64::from_str` alone would also take `1.`,
        /// `01` and `1.e5`.
        fn number(&mut self) -> Result<Value, ParseError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            if self.peek() == Some(b'0') {
                self.pos += 1;
            } else {
                self.digits()?;
            }
            if self.peek() == Some(b'.') {
                self.pos += 1;
                self.digits()?;
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                self.digits()?;
            }
            let text =
                std::str::from_utf8(&self.bytes[start..self.pos]).expect("number token is ASCII");
            text.parse::<f64>()
                .map(Value::Number)
                .map_err(|_| self.error("invalid number"))
        }

        /// Consumes one or more ASCII digits.
        fn digits(&mut self) -> Result<(), ParseError> {
            let start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == start {
                return Err(self.error("expected a digit"));
            }
            Ok(())
        }
    }

    fn write_escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

macro_rules! impl_serialize_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, writer: &mut json::JsonWriter) {
                writer.unsigned(u128::from(*self));
            }
        }
    )*};
}
impl_serialize_unsigned!(u8, u16, u32, u64, u128);

macro_rules! impl_serialize_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, writer: &mut json::JsonWriter) {
                writer.signed(i128::from(*self));
            }
        }
    )*};
}
impl_serialize_signed!(i8, i16, i32, i64, i128);

impl Serialize for usize {
    fn serialize(&self, writer: &mut json::JsonWriter) {
        writer.unsigned(*self as u128);
    }
}

impl Serialize for isize {
    fn serialize(&self, writer: &mut json::JsonWriter) {
        writer.signed(*self as i128);
    }
}

impl Serialize for f32 {
    fn serialize(&self, writer: &mut json::JsonWriter) {
        writer.float(f64::from(*self));
    }
}

impl Serialize for f64 {
    fn serialize(&self, writer: &mut json::JsonWriter) {
        writer.float(*self);
    }
}

impl Serialize for bool {
    fn serialize(&self, writer: &mut json::JsonWriter) {
        writer.boolean(*self);
    }
}

impl Serialize for str {
    fn serialize(&self, writer: &mut json::JsonWriter) {
        writer.string(self);
    }
}

impl Serialize for String {
    fn serialize(&self, writer: &mut json::JsonWriter) {
        writer.string(self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, writer: &mut json::JsonWriter) {
        (**self).serialize(writer);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, writer: &mut json::JsonWriter) {
        match self {
            Some(value) => value.serialize(writer),
            None => writer.null(),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, writer: &mut json::JsonWriter) {
        writer.begin_array();
        for item in self {
            item.serialize(writer);
        }
        writer.end_array();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, writer: &mut json::JsonWriter) {
        self.as_slice().serialize(writer);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, writer: &mut json::JsonWriter) {
        self.as_slice().serialize(writer);
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize(&self, writer: &mut json::JsonWriter) {
        writer.begin_array();
        self.0.serialize(writer);
        self.1.serialize(writer);
        writer.end_array();
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn serialize(&self, writer: &mut json::JsonWriter) {
        writer.begin_array();
        self.0.serialize(writer);
        self.1.serialize(writer);
        self.2.serialize(writer);
        writer.end_array();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(json::to_string(&42u32), "42");
        assert_eq!(json::to_string(&-7i64), "-7");
        assert_eq!(json::to_string(&true), "true");
        assert_eq!(json::to_string(&1.5f64), "1.5");
        assert_eq!(json::to_string(&2.0f64), "2.0");
        assert_eq!(json::to_string(&f64::NAN), "null");
        assert_eq!(json::to_string("hi \"there\"\n"), r#""hi \"there\"\n""#);
    }

    #[test]
    fn containers_render() {
        assert_eq!(json::to_string(&vec![1u8, 2, 3]), "[1,2,3]");
        assert_eq!(json::to_string(&[1u8, 2]), "[1,2]");
        assert_eq!(json::to_string(&Some(5u8)), "5");
        assert_eq!(json::to_string(&Option::<u8>::None), "null");
        assert_eq!(json::to_string(&(1u8, "x")), "[1,\"x\"]");
        assert_eq!(json::to_string(&(1u8, 2u8, 3u8)), "[1,2,3]");
    }

    #[test]
    fn writer_builds_objects() {
        let mut w = json::JsonWriter::new();
        w.begin_object();
        w.key("a");
        w.unsigned(1);
        w.key("b");
        w.begin_array();
        w.string("x");
        w.string("y");
        w.end_array();
        w.end_object();
        assert_eq!(w.finish(), r#"{"a":1,"b":["x","y"]}"#);
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(json::to_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn file_string_ends_with_newline() {
        assert_eq!(json::to_file_string(&1u8), "1\n");
    }

    #[test]
    fn parse_scalars() {
        use json::Value;
        assert_eq!(json::parse("null").unwrap(), Value::Null);
        assert_eq!(json::parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(json::parse("false").unwrap(), Value::Bool(false));
        assert_eq!(json::parse("42").unwrap(), Value::Number(42.0));
        assert_eq!(json::parse("-1.5e2").unwrap(), Value::Number(-150.0));
        assert_eq!(
            json::parse(r#""a\nbA\"""#).unwrap(),
            Value::String("a\nbA\"".to_string())
        );
    }

    #[test]
    fn parse_containers_and_accessors() {
        let v = json::parse(r#"{"runs":[{"mpps":2.5,"workers":4,"name":"rfc"}],"quick":false}"#)
            .unwrap();
        let runs = v.get("runs").unwrap().as_array().unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].get("mpps").unwrap().as_f64(), Some(2.5));
        assert_eq!(runs[0].get("workers").unwrap().as_u64(), Some(4));
        assert_eq!(runs[0].get("name").unwrap().as_str(), Some("rfc"));
        assert_eq!(v.get("quick").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("missing"), None);
        assert_eq!(runs[0].get("mpps").unwrap().as_u64(), None);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "1.",
            "01",
            "-01",
            "1.e5",
            "[1.]",
            "\"a\u{1}b\"",
            "\"\u{0}\"",
            "{\"k\u{1f}\":1}",
            "\"a\tb\"",
            "\"a\nb\"",
            "\"a\rb\"",
        ] {
            assert!(json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let err = json::parse("[1, oops]").unwrap_err();
        assert!(err.offset > 0);
        assert!(err.to_string().contains("JSON parse error"));
    }

    /// A benchmark-result-shaped document: nested objects and arrays,
    /// strings, every number form, literals and whitespace between tokens.
    const RESULT_DOC: &str = r#"{"schema":6,"workload":"acl2k_uniform","ok":true,"wrong":0,
            "metrics":{"setup_s":0.0123,"mpps":17.56,"sim_nj_per_pkt":1.5e-3,"delta":-0.25},
            "runs":[{"mpps":17.2,"burst_us_p50":[3.5,4.0]},{"mpps":1E2}],"note":null}"#;

    /// A truncated result file is an error, never a smaller document: every
    /// proper prefix of a benchmark-result-shaped document is rejected.
    #[test]
    fn parse_rejects_every_proper_prefix_of_a_result_document() {
        let doc = RESULT_DOC;
        assert!(json::parse(doc).is_ok());
        for end in 0..doc.len() {
            assert!(
                json::parse(&doc[..end]).is_err(),
                "accepted {:?}",
                &doc[..end]
            );
        }
    }

    /// A control character is never legal raw inside a string (RFC 8259
    /// §7), and outside one only `\t`, `\n` and `\r` are (as whitespace).
    /// Every other control byte, inserted at or substituted for any byte of
    /// a result-shaped document, is rejected; so is a raw `\t`, `\n` or
    /// `\r` inserted into or substituted inside any of its strings.
    #[test]
    fn parse_rejects_raw_control_characters_in_a_result_document() {
        let doc = RESULT_DOC.as_bytes();
        let parse = |bytes: &[u8]| json::parse(std::str::from_utf8(bytes).unwrap());
        let never_raw = (0x00u8..=0x1F).filter(|b| !matches!(b, b'\t' | b'\n' | b'\r'));
        for b in never_raw {
            for i in 0..=doc.len() {
                let inserted = [&doc[..i], &[b], &doc[i..]].concat();
                assert!(
                    parse(&inserted).is_err(),
                    "accepted {b:#04x} inserted at {i}"
                );
                if i < doc.len() {
                    let mut substituted = doc.to_vec();
                    substituted[i] = b;
                    assert!(parse(&substituted).is_err(), "accepted {b:#04x} at {i}");
                }
            }
        }
        // Byte i lies in a string body when an odd number of quotes precede
        // it (the document has no escaped quotes).
        let in_string = |i: usize| doc[..i].iter().filter(|&&c| c == b'"').count() % 2 == 1;
        let mut string_positions = 0;
        for i in (0..=doc.len()).filter(|&i| in_string(i)) {
            string_positions += 1;
            for b in [b'\t', b'\n', b'\r'] {
                let inserted = [&doc[..i], &[b], &doc[i..]].concat();
                assert!(
                    parse(&inserted).is_err(),
                    "accepted {b:#04x} inserted at {i}"
                );
                if doc[i] != b'"' {
                    let mut substituted = doc.to_vec();
                    substituted[i] = b;
                    assert!(parse(&substituted).is_err(), "accepted {b:#04x} at {i}");
                }
            }
        }
        assert!(string_positions > 50, "{string_positions} string positions");
    }

    #[test]
    fn parse_caps_nesting_depth() {
        let deep_ok = format!("{}1{}", "[".repeat(128), "]".repeat(128));
        assert!(json::parse(&deep_ok).is_ok());
        let too_deep = format!("{}1{}", "[".repeat(129), "]".repeat(129));
        let err = json::parse(&too_deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // A pathological unclosed prefix must error, not overflow the stack.
        assert!(json::parse(&"[".repeat(100_000)).is_err());
        assert!(json::parse(&"{\"a\":".repeat(50_000)).is_err());
    }

    #[test]
    fn parse_surrogate_pairs_and_unicode() {
        use json::Value;
        assert_eq!(
            json::parse(r#""😀""#).unwrap(),
            Value::String("\u{1F600}".to_string())
        );
        assert_eq!(
            json::parse("\"héllo\"").unwrap(),
            Value::String("héllo".to_string())
        );
        assert!(json::parse(r#""\ud83d""#).is_err());
        // The grammar requires exactly four hex digits — no signs.
        assert!(json::parse(r#""\u+0FF""#).is_err());
        assert!(json::parse(r#""\u00ZZ""#).is_err());
    }

    #[test]
    fn serializer_output_round_trips_through_parser() {
        let mut w = json::JsonWriter::new();
        w.begin_object();
        w.key("pkts");
        w.unsigned(20_000);
        w.key("mpps");
        w.float(17.56);
        w.key("per_worker");
        w.begin_array();
        w.begin_object();
        w.key("worker");
        w.unsigned(0);
        w.end_object();
        w.end_array();
        w.key("note");
        w.string("a \"quoted\"\nline");
        w.end_object();
        let text = w.finish();
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("pkts").unwrap().as_u64(), Some(20_000));
        assert_eq!(v.get("mpps").unwrap().as_f64(), Some(17.56));
        assert_eq!(
            v.get("per_worker").unwrap().as_array().unwrap()[0]
                .get("worker")
                .unwrap()
                .as_u64(),
            Some(0)
        );
        assert_eq!(v.get("note").unwrap().as_str(), Some("a \"quoted\"\nline"));
    }
}
