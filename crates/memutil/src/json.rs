//! A minimal JSON value type with an emitter and a small parser.
//!
//! The workspace writes JSON for the `trace-gen` export format, the
//! experiment figure outputs and telemetry reports, and reads it back from
//! fault plans, trace dumps, `BENCH_baseline.json` and telemetry reports.
//! This module implements just enough of RFC 8259 to serve them: objects
//! (insertion-ordered), arrays, strings with escaping, integers emitted
//! losslessly, finite floats, bools, and null. Input read from disk is
//! untrusted, so the parser caps nesting at [`MAX_DEPTH`].

use std::collections::BTreeMap;
use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so the cap bounds its stack use on hostile
/// input; the deepest document the workspace writes nests 7 levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer, emitted without a decimal point.
    Int(i64),
    /// An unsigned integer, emitted without a decimal point.
    UInt(u64),
    /// A finite float. Non-finite values are emitted as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    #[must_use]
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// An empty array.
    #[must_use]
    pub fn arr() -> Self {
        Json::Arr(Vec::new())
    }

    /// Adds (or replaces) `key` on an object, builder-style.
    ///
    /// On a non-object this is a no-op (and a `debug_assert!` failure in
    /// debug builds — it is always a caller bug).
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.set(key, value);
        self
    }

    /// Adds (or replaces) `key` on an object in place.
    ///
    /// On a non-object this is a no-op (and a `debug_assert!` failure in
    /// debug builds — it is always a caller bug).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        let Json::Obj(fields) = self else {
            debug_assert!(false, "Json::set on a non-object");
            return;
        };
        let value = value.into();
        if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            fields.push((key.to_string(), value));
        }
    }

    /// Appends to an array, builder-style.
    ///
    /// On a non-array this returns `self` unchanged (and is a
    /// `debug_assert!` failure in debug builds — it is always a caller bug).
    #[must_use]
    pub fn push(mut self, value: impl Into<Json>) -> Self {
        let Json::Arr(items) = &mut self else {
            debug_assert!(false, "Json::push on a non-array");
            return self;
        };
        items.push(value.into());
        self
    }

    /// Looks up a key on an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an f64 if it is numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::UInt(u) => Some(u as f64),
            Json::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The value as a u64 if it is an unsigned integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(u) => Some(u),
            Json::Int(i) if i >= 0 => Some(i as u64),
            _ => None,
        }
    }

    /// The value as a string slice if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serializes to a compact JSON string.
    #[must_use]
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serializes into `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let mut buf = itoa_buffer();
                out.push_str(write_display(&mut buf, i));
            }
            Json::UInt(u) => {
                let mut buf = itoa_buffer();
                out.push_str(write_display(&mut buf, u));
            }
            Json::Float(f) => {
                if f.is_finite() {
                    // `{}` on f64 is shortest-round-trip in Rust; add `.0`
                    // when it printed as an integer so the value re-parses
                    // as a float.
                    let s = format!("{f}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error,
    /// or of the array or object that nests deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn itoa_buffer() -> String {
    String::with_capacity(20)
}

fn write_display<T: fmt::Display>(buf: &mut String, value: T) -> &str {
    use fmt::Write as _;
    buf.clear();
    let _ = write!(buf, "{value}");
    buf
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.emit())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}
impl From<i64> for Json {
    fn from(i: i64) -> Self {
        Json::Int(i)
    }
}
impl From<i32> for Json {
    fn from(i: i32) -> Self {
        Json::Int(i64::from(i))
    }
}
impl From<u64> for Json {
    fn from(u: u64) -> Self {
        Json::UInt(u)
    }
}
impl From<u32> for Json {
    fn from(u: u32) -> Self {
        Json::UInt(u64::from(u))
    }
}
impl From<usize> for Json {
    fn from(u: usize) -> Self {
        Json::UInt(u as u64)
    }
}
impl From<f64> for Json {
    fn from(f: f64) -> Self {
        Json::Float(f)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}
impl From<&BTreeMap<String, f64>> for Json {
    fn from(m: &BTreeMap<String, f64>) -> Self {
        Json::Obj(
            m.iter()
                .map(|(k, v)| (k.clone(), Json::Float(*v)))
                .collect(),
        )
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    /// Parses an array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "surrogate \\u escape".to_string())?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().ok_or("empty string tail")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_compact_objects_in_insertion_order() {
        let j = Json::obj()
            .field("name", "fig14")
            .field("reduction", 0.75)
            .field("pages", 8192u64)
            .field("ok", true);
        assert_eq!(
            j.emit(),
            r#"{"name":"fig14","reduction":0.75,"pages":8192,"ok":true}"#
        );
    }

    #[test]
    fn integers_are_lossless() {
        let big = u64::MAX;
        let j = Json::obj().field("x", big);
        assert_eq!(j.emit(), format!("{{\"x\":{big}}}"));
        let back = Json::parse(&j.emit()).unwrap();
        assert_eq!(back.get("x").unwrap().as_u64(), Some(big));
    }

    #[test]
    fn floats_reparse_as_floats() {
        let j = Json::Float(2.0);
        assert_eq!(j.emit(), "2.0");
        assert_eq!(Json::parse("2.0").unwrap(), Json::Float(2.0));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).emit(), "null");
        assert_eq!(Json::Float(f64::INFINITY).emit(), "null");
    }

    #[test]
    fn string_escaping_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{1}f — unicode";
        let emitted = Json::Str(nasty.to_string()).emit();
        assert_eq!(Json::parse(&emitted).unwrap(), Json::Str(nasty.to_string()));
    }

    #[test]
    fn arrays_and_nesting_round_trip() {
        let j = Json::arr()
            .push(1u64)
            .push(Json::obj().field("xs", vec![1.5f64, 2.5, -3.0]))
            .push(Json::Null);
        let back = Json::parse(&j.emit()).unwrap();
        assert_eq!(back, j);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("true false").is_err());
    }

    #[test]
    fn parser_accepts_whitespace() {
        let j = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(
            j.get("a"),
            Some(&Json::Arr(vec![Json::UInt(1), Json::UInt(2)]))
        );
        assert_eq!(j.get("b"), Some(&Json::Null));
    }

    #[test]
    fn set_replaces_existing_keys() {
        let mut j = Json::obj().field("k", 1u64);
        j.set("k", 2u64);
        assert_eq!(j.emit(), r#"{"k":2}"#);
    }

    /// `levels` arrays nested around nothing: `[[...]]`.
    fn nested_arrays(levels: usize) -> String {
        format!("{}{}", "[".repeat(levels), "]".repeat(levels))
    }

    /// `levels` objects nested through key `k`, innermost empty.
    fn nested_objects(levels: usize) -> String {
        format!(
            "{}{{}}{}",
            "{\"k\":".repeat(levels - 1),
            "}".repeat(levels - 1)
        )
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        assert!(Json::parse(&nested_arrays(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested_objects(MAX_DEPTH)).is_ok());
        // The array opening level 129 sits at byte 128.
        assert_eq!(
            Json::parse(&nested_arrays(MAX_DEPTH + 1)).unwrap_err(),
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        assert!(Json::parse(&nested_objects(MAX_DEPTH + 1))
            .unwrap_err()
            .starts_with(&format!("nesting deeper than {MAX_DEPTH} levels")));
    }

    #[test]
    fn hostile_nesting_is_refused_without_overflowing_the_stack() {
        let err = Json::parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
    }

    #[test]
    fn negative_integers_parse_as_int() {
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("-42").unwrap().as_f64(), Some(-42.0));
    }
}
