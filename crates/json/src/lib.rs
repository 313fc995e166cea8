//! # ljqo-json — dependency-free JSON for the LJQO workspace
//!
//! The build environment is fully offline, so instead of `serde` +
//! `serde_json` this workspace carries its own small JSON layer: a
//! [`Value`] tree, a strict parser ([`parse`]), compact and pretty
//! printers, and a [`json!`] constructor macro. It covers exactly what
//! the CLI input format and the experiment reports need — objects keep
//! insertion order so emitted reports are stable across runs.

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as `f64`; integral values print without a
    /// fractional part). Non-finite values print as `null`, mirroring the
    /// robustness rule that NaN must never leak into output.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object by key (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object fields, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Compact one-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Append the compact rendering to `out`, for a caller that wants the
    /// text after a prefix of its own without copying it there.
    pub fn write_compact(&self, out: &mut String) {
        write_value(out, self, None, 0);
    }

    /// Pretty rendering with two-space indentation (the `serde_json`
    /// convention the checked-in `results/*.json` files follow).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(2), 0);
        out
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Number(v as f64)
            }
        }
    )*};
}

from_number!(f64, f32, u64, u32, u16, u8, usize, i64, i32, i16, i8, isize);

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(v: &[T]) -> Value {
        Value::Array(v.iter().cloned().map(Into::into).collect())
    }
}

/// Build a [`Value`] from a literal: `json!(null)`, `json!(3.5)`,
/// `json!([a, b])`, or `json!({ "key": expr, ... })`. Values inside
/// objects and arrays are arbitrary expressions converted via
/// `Into<Value>`; nest objects by nesting `json!` calls.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::Value::from($elem) ),* ])
    };
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( ($key.to_string(), $crate::Value::from($value)) ),*
        ])
    };
    ($other:expr) => { $crate::Value::from($other) };
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

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Infinity; emit null rather than invalid output.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        out.push_str(&format!("{}", n as i64));
    } else if n.abs() >= 1e16 || n.abs() < 1e-5 {
        // Rust's `{}` never uses scientific notation; huge magnitudes
        // would print hundreds of digits.
        out.push_str(&format!("{n:e}"));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    let (newline, pad, pad_close, colon) = match indent {
        Some(w) => (
            "\n",
            " ".repeat(w * (depth + 1)),
            " ".repeat(w * depth),
            ": ",
        ),
        None => ("", String::new(), String::new(), ":"),
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(newline);
                out.push_str(&pad);
                write_value(out, item, indent, depth + 1);
            }
            out.push_str(newline);
            out.push_str(&pad_close);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(newline);
                out.push_str(&pad);
                write_escaped(out, k);
                out.push_str(colon);
                write_value(out, val, indent, depth + 1);
            }
            out.push_str(newline);
            out.push_str(&pad_close);
            out.push('}');
        }
    }
}

/// A parse failure, with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. Every document the
/// workspace writes nests a handful of levels; the cap keeps a hostile
/// input such as a long run of `[` from exhausting the parsing thread's
/// stack (the parser recurses once per level).
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON document. Trailing non-whitespace is an error, and so is
/// nesting deeper than [`MAX_DEPTH`]. Runs in time linear in the input.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    /// The input; `bytes` is the same text as bytes.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
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
            Err(self.error(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.error(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses an object or array one level deeper, refusing to go past
    /// [`MAX_DEPTH`] so hostile input cannot overflow the stack.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            // Surrogates are not combined; out of scope here.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or
                    // backslash. Both are ASCII, so the run starts and
                    // ends on character boundaries of the `&str` input.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_sample_document() {
        let text = r#"{
            "relations": [
                { "name": "a", "cardinality": 1000, "selections": [0.5, 0.2] },
                { "name": "b", "cardinality": 200 }
            ],
            "joins": [
                { "left": "a", "right": "b", "selectivity": 0.01 }
            ]
        }"#;
        let v = parse(text).unwrap();
        let rels = v.get("relations").unwrap().as_array().unwrap();
        assert_eq!(rels.len(), 2);
        assert_eq!(rels[0].get("name").unwrap().as_str(), Some("a"));
        assert_eq!(rels[0].get("cardinality").unwrap().as_u64(), Some(1000));
        let again = parse(&v.to_string_pretty()).unwrap();
        assert_eq!(v, again);
        let again = parse(&v.to_string_compact()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn numbers_print_like_serde_json() {
        assert_eq!(json!(3.0).to_string_compact(), "3");
        assert_eq!(json!(3.25).to_string_compact(), "3.25");
        assert_eq!(json!(-7).to_string_compact(), "-7");
        assert_eq!(json!(1e300).to_string_compact(), "1e300");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(json!(f64::NAN).to_string_compact(), "null");
        assert_eq!(json!(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn json_macro_builds_objects_and_arrays() {
        let rows = vec![json!({ "n": 10, "cost": 1.5 })];
        let v = json!({
            "experiment": "unit",
            "rows": rows,
            "ok": true,
            "nothing": json!(null),
        });
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("unit"));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("nothing"), Some(&Value::Null));
        let rows = v.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows[0].get("n").unwrap().as_u64(), Some(10));
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let err = parse("{ \"a\": }").unwrap_err();
        assert_eq!(err.offset, 7);
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("[1] x").is_err());
    }

    /// Strings that exercise every branch of the string scanner:
    /// multi-byte UTF-8, every escape the printer emits, control
    /// characters, and runs that end right before `"` or `\`.
    const TRICKY_STRINGS: &[&str] = &[
        "",
        "plain ascii",
        "line\nbreak \"quoted\" back\\slash",
        "é",
        "naïve café — 東京 🚀",
        "🚀\"",
        "東\\",
        "\"",
        "\\",
        "\"\\\"\\",
        "a\"b\\c",
        "line\nbreak\rreturn\ttab",
        "\u{0}\u{1}\u{8}\u{c}\u{1f}",
        "/slash/",
        "ends in multibyte ü",
        "ü starts in multibyte",
        "\u{7f}\u{80}\u{7ff}\u{800}\u{ffff}\u{10000}\u{10ffff}",
    ];

    #[test]
    fn escapes_round_trip() {
        for &s in TRICKY_STRINGS {
            let v = json!(s);
            assert_eq!(parse(&v.to_string_compact()).unwrap(), v, "{s:?}");
            let obj = Value::Object(vec![(s.to_string(), json!([s, json!({ "k": s })]))]);
            assert_eq!(parse(&obj.to_string_compact()).unwrap(), obj, "{s:?}");
            assert_eq!(parse(&obj.to_string_pretty()).unwrap(), obj, "{s:?}");
        }
    }

    #[test]
    fn every_escape_decodes() {
        let text = r#""\"\\\/\b\f\n\r\t\u0041\u00e9\u6771\uFFFF""#;
        assert_eq!(
            parse(text).unwrap(),
            json!("\"\\/\u{8}\u{c}\n\r\tAé東\u{ffff}")
        );
        // A `\u` escape right before the closing quote, then a run.
        assert_eq!(parse(r#""\u0041""#).unwrap(), json!("A"));
        assert_eq!(parse(r#""x\u0041y""#).unwrap(), json!("xAy"));
    }

    /// The string decoder this crate shipped before the run-copying
    /// scanner: one code point at a time. Kept as the reference the
    /// differential test below compares against.
    fn reference_string(text: &str) -> Result<String, ParseError> {
        let bytes = text.as_bytes();
        let err = |message: &str, offset: usize| ParseError {
            message: message.to_string(),
            offset,
        };
        if bytes.first() != Some(&b'"') {
            return Err(err("expected '\"'", 0));
        }
        let mut pos = 1;
        let mut out = String::new();
        loop {
            match bytes.get(pos).copied() {
                None => return Err(err("unterminated string", pos)),
                Some(b'"') => return Ok(out),
                Some(b'\\') => {
                    pos += 1;
                    match bytes.get(pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(pos + 1..pos + 5)
                                .ok_or_else(|| err("truncated \\u escape", pos))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| err("invalid \\u escape", pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| err("invalid \\u escape", pos))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| err("invalid \\u code point", pos))?,
                            );
                            pos += 4;
                        }
                        _ => return Err(err("invalid escape", pos)),
                    }
                    pos += 1;
                }
                Some(_) => {
                    let c = text[pos..].chars().next().unwrap();
                    out.push(c);
                    pos += c.len_utf8();
                }
            }
        }
    }

    #[test]
    fn string_scanner_matches_reference_decoder() {
        // Pieces that, glued at random, hit every scanner branch and
        // every error path: escapes (valid, truncated, bad), quotes,
        // multi-byte characters and raw control characters.
        const PIECES: &[&str] = &[
            "a", "xyz", "é", "東", "🚀", "\"", "\\", "\\\"", "\\\\", "\\n", "\\/", "\\u00e9",
            "\\u12", "\\uD800", "\\u+041", "\\q", "\t", "\u{1}", " ",
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..4000 {
            let len = (next() % 12) as usize;
            let mut text = String::from("\"");
            for _ in 0..len {
                text.push_str(PIECES[(next() % PIECES.len() as u64) as usize]);
            }
            if next() % 4 != 0 {
                text.push('"');
            }
            let want = reference_string(&text);
            // A document ends at the first unescaped quote; whatever
            // follows is trailing garbage, so compare the string itself.
            let mut p = Parser {
                text: &text,
                bytes: text.as_bytes(),
                pos: 0,
                depth: 0,
            };
            assert_eq!(p.string(), want, "{text:?}");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).unwrap_err().message.contains("nesting"));
        // Far past the cap, unbalanced: rejected, not a stack overflow.
        assert!(parse(&"[".repeat(20_000)).is_err());
        assert!(parse(&"{\"a\":[".repeat(20_000)).is_err());
        // Depth is released on close: many shallow siblings are fine.
        let wide = format!("[{}]", vec![deep(MAX_DEPTH - 1); 50].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn four_mib_string_parses_in_linear_time() {
        // The server's default frame cap (`DEFAULT_MAX_FRAME_BYTES` in
        // `ljqo-server`): the largest payload a client can send. A
        // per-character rescan of the remaining input took hours here.
        const FRAME_CAP: usize = 4 << 20;
        let body = "é東a".repeat(FRAME_CAP / 6);
        let text = format!("{{\"s\":\"{body}\"}}");
        let started = std::time::Instant::now();
        let v = parse(&text).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(v.get("s").and_then(Value::as_str), Some(body.as_str()));
        assert!(elapsed.as_secs_f64() < 5.0, "4 MiB string took {elapsed:?}");
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = json!({ "a": 1, "b": vec![json!(2)] });
        let s = v.to_string_pretty();
        assert!(s.contains("\n  \"a\": 1"));
        assert!(s.contains("\n  \"b\": [\n    2\n  ]"));
    }
}
