//! The workspace's one JSON emitter and its strict, panic-free parser.
//!
//! Every JSON document the product writes — paper tables
//! ([`crate::report`]), `reproduce --format json` sweeps
//! ([`crate::runner`]) and every serving body — is built as a
//! [`JsonValue`] (with [`JsonValue::obj`], the `From` impls and
//! `collect()`) and rendered by its one compact `Display`. No other
//! module writes a brace, comma or escape. Integers travel as
//! [`JsonValue::Num`], which is exact up to 2^53 — the same bound
//! [`JsonValue::as_u64`] reads back; every integer the product emits
//! (u32 node ids, counts, byte totals, nanoseconds) is below it.
//!
//! The workspace is offline, so this is a deliberate subset of a JSON
//! library, with every malformed input rejected as a typed
//! [`JsonError`] naming the byte offset — never a panic. That property
//! is what lets the HTTP layer map bad bodies to a `400` instead of
//! killing a worker.
//!
//! # Example
//!
//! ```
//! use smartsage_core::json::{parse, JsonValue};
//! let v = parse(r#"{"nodes":[1,2],"seed":7}"#).unwrap();
//! assert_eq!(v.get("seed").and_then(JsonValue::as_u64), Some(7));
//! assert_eq!(v.get("nodes").and_then(JsonValue::as_array).unwrap().len(), 2);
//! assert!(parse("{\"nodes\":").is_err()); // typed error, no panic
//! let doc = JsonValue::obj([
//!     ("seed", 7u64.into()),
//!     ("nodes", [1u64, 2].into_iter().collect()),
//! ]);
//! assert_eq!(doc.to_string(), r#"{"seed":7,"nodes":[1,2]}"#);
//! ```

// Untrusted input fails as a typed error, never a panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::fmt;

/// Maximum container nesting the parser accepts; deeper input is
/// rejected (a typed error, not a stack overflow).
const MAX_DEPTH: usize = 64;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order (duplicate keys keep the last value
    /// on lookup, like most parsers).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An object of `fields`, in the order given.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Object field lookup (last occurrence wins); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer: present only
    /// for non-negative whole numbers within `f64`'s exact-integer
    /// range (2^53), which covers every id/seed the API accepts.
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        match self {
            JsonValue::Num(v) if *v >= 0.0 && *v <= MAX_EXACT && v.fract() == 0.0 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, when this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, when this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl From<u64> for JsonValue {
    /// An integer; exact up to 2^53.
    fn from(v: u64) -> JsonValue {
        JsonValue::Num(v as f64)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> JsonValue {
        JsonValue::Num(v)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> JsonValue {
        JsonValue::Str(s.to_string())
    }
}

impl<T: Into<JsonValue>> FromIterator<T> for JsonValue {
    /// An array of the items.
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> JsonValue {
        JsonValue::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for JsonValue {
    /// Renders compact JSON. Numbers use the shortest round-trip form
    /// (non-finite becomes `null`, as in [`crate::report`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Num(v) => f.write_str(&number(*v)),
            JsonValue::Str(s) => f.write_str(&escape_string(s)),
            JsonValue::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", escape_string(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document; trailing non-whitespace is an
/// error. Never panics: every malformed input maps to a [`JsonError`].
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

/// A JSON string literal with escaping.
pub fn escape_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: shortest round-trip form, `null` for non-finite
/// values (JSON has no NaN/Inf).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
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

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number_value(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes up to the next quote/escape.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The input is a &str, so slicing between the ASCII
            // delimiters found above lands on char boundaries; the
            // error arm is unreachable but typed all the same.
            let run = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| self.err("invalid UTF-8 inside string"))?;
            out.push_str(run);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xd800..0xdc00).contains(&hi) {
                    // Surrogate pair: a low surrogate must follow.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect_byte(b'u')
                            .map_err(|_| self.err("high surrogate not followed by \\u"))?;
                        let lo = self.hex4()?;
                        if !(0xdc00..0xe000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                    } else {
                        return Err(self.err("unpaired high surrogate"));
                    }
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))?
            }
            c => return Err(self.err(format!("invalid escape '\\{}'", c as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number_value(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-ASCII byte in number"))?;
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(JsonValue::Num(v)),
            _ => Err(JsonError {
                offset: start,
                message: format!("invalid number '{text}'"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" false ").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1.5e2").unwrap().as_f64(), Some(-150.0));
        assert_eq!(parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,{"b":null}],"c":"x"}"#).unwrap();
        let a = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a[1].get("b"), Some(&JsonValue::Null));
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("x"));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\n\t\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\n\tA😀"));
        // Display re-escapes what needs escaping.
        let rendered = JsonValue::Str("x\"\n".to_string()).to_string();
        assert_eq!(rendered, "\"x\\\"\\n\"");
        assert_eq!(parse(&rendered).unwrap().as_str(), Some("x\"\n"));
    }

    #[test]
    fn malformed_inputs_are_typed_errors_never_panics() {
        for bad in [
            "",
            "{",
            "[1,2",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a:1}",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\u12",
            "\"\\ud800\"",
            "01x",
            "1.2.3",
            "nulL",
            "truex",
            "[1,]",
            "{},",
            "[1] [2]",
            "\u{0007}",
            "-",
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(!err.message.is_empty(), "{bad}");
            assert!(err.to_string().contains("invalid JSON"), "{bad}");
        }
    }

    #[test]
    fn depth_limit_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(2000) + &"]".repeat(2000);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(parse("4294967295").unwrap().as_u64(), Some(u32::MAX as u64));
    }

    #[test]
    fn duplicate_keys_keep_the_last_value() {
        let v = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get("k").and_then(JsonValue::as_u64), Some(2));
    }

    #[test]
    fn display_renders_compact_documents() {
        let v = JsonValue::Obj(vec![
            ("n".to_string(), JsonValue::Num(1.25)),
            (
                "a".to_string(),
                JsonValue::Arr(vec![JsonValue::Bool(true), JsonValue::Null]),
            ),
        ]);
        assert_eq!(v.to_string(), r#"{"n":1.25,"a":[true,null]}"#);
        // Round-trips through the parser.
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn construction_sugar_renders_and_round_trips() {
        const TWO_POW_53: u64 = 1 << 53;
        let v = JsonValue::obj([
            ("id", 7u64.into()),
            ("big", TWO_POW_53.into()),
            ("x", 0.5f64.into()),
            ("nan", f64::NAN.into()),
            ("s", "a\"b".into()),
            ("ids", [3u64, 1, 4].into_iter().collect()),
            ("none", Vec::<u64>::new().into_iter().collect()),
        ]);
        let text = v.to_string();
        assert_eq!(
            text,
            r#"{"id":7,"big":9007199254740992,"x":0.5,"nan":null,"s":"a\"b","ids":[3,1,4],"none":[]}"#
        );
        let back = parse(&text).unwrap();
        assert_eq!(
            back.get("big").and_then(JsonValue::as_u64),
            Some(TWO_POW_53)
        );
        assert_eq!(back.get("id").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(back.get("s").and_then(JsonValue::as_str), Some("a\"b"));
        assert_eq!(back.get("nan"), Some(&JsonValue::Null));
        assert_eq!(back.get("ids"), v.get("ids"));
    }

    #[test]
    fn number_formatting_matches_report_conventions() {
        assert_eq!(number(0.25), "0.25");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(escape_string("a\"b"), "\"a\\\"b\"");
    }
}
