//! Dependency-free JSON for the benchmark's three serialization points:
//! the dataset-repository manifest, the benchmark configuration file, and
//! the machine-readable benchmark reports (`<suite>.bench.json`).
//!
//! The surface is deliberately small: a [`JsonValue`] tree, a strict
//! recursive-descent parser, and a pretty printer whose layout matches
//! `serde_json::to_string_pretty` (two-space indent) so previously
//! committed artifacts stay diff-stable.

use std::fmt;

/// A parsed JSON document.
///
/// Objects preserve insertion order so serialization is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as ordered key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

/// Parse error with byte offset into the input.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where it went wrong.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Result alias for parsing.
pub type Result<T> = std::result::Result<T, JsonError>;

/// Deepest array/object nesting [`JsonValue::parse`] accepts, far above
/// what any document this workspace writes uses. The parser recurses
/// once per level, so the bound keeps hostile input (a server body of a
/// million `[`) from overflowing the stack.
pub const MAX_DEPTH: usize = 256;

impl JsonValue {
    /// Parses a complete JSON document (trailing garbage, and nesting
    /// deeper than [`MAX_DEPTH`], are errors).
    pub fn parse(text: &str) -> Result<JsonValue> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Pretty string with two-space indentation and a trailing newline-free
    /// layout matching `serde_json::to_string_pretty`.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// Compact single-line form.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => write_number(out, *n),
            JsonValue::String(s) => write_string(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            JsonValue::Array(_) => out.push_str("[]"),
            JsonValue::Object(_) => out.push_str("{}"),
            other => other.write_compact(out),
        }
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> JsonValue {
        JsonValue::String(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> JsonValue {
        JsonValue::String(s)
    }
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> JsonValue {
        JsonValue::Number(n)
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> JsonValue {
        JsonValue::Number(n as f64)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> JsonValue {
        JsonValue::Bool(b)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Appends `n` to `out` exactly as [`JsonValue::compact`] would — the
/// serve hot path uses this to stream numbers into a reused response
/// buffer without building a [`JsonValue`] tree first.
pub fn write_number(out: &mut String, n: f64) {
    use std::fmt::Write as _;
    if !n.is_finite() {
        // JSON has no Inf/NaN; mirror serde_json's lossy `null`.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
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
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.err(format!("unexpected character '{}'", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<JsonValue> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err(format!("invalid number '{text}'")))
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                            let code = self.unicode_escape()?;
                            out.push(code);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char> {
        // self.pos is at 'u'.
        self.pos += 1;
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let text = std::str::from_utf8(hex).map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        if (0xD800..0xDC00).contains(&code) {
            // High surrogate: require a following \uXXXX low surrogate.
            if self.bytes.get(self.pos) == Some(&b'\\')
                && self.bytes.get(self.pos + 1) == Some(&b'u')
            {
                self.pos += 2;
                let hex2 = self
                    .bytes
                    .get(self.pos..self.pos + 4)
                    .ok_or_else(|| self.err("truncated surrogate pair"))?;
                let text2 =
                    std::str::from_utf8(hex2).map_err(|_| self.err("invalid surrogate pair"))?;
                let low = u32::from_str_radix(text2, 16)
                    .map_err(|_| self.err("invalid surrogate pair"))?;
                self.pos += 4;
                let combined = 0x10000 + ((code - 0xD800) << 10) + (low.wrapping_sub(0xDC00));
                return char::from_u32(combined).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("lone high surrogate"));
        }
        char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn array(&mut self) -> Result<JsonValue> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(
            JsonValue::parse("-1.5e2").unwrap(),
            JsonValue::Number(-150.0)
        );
        assert_eq!(
            JsonValue::parse("\"a\\nb\"").unwrap(),
            JsonValue::String("a\nb".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = JsonValue::parse(r#"{"a": [1, 2, {"b": false}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(|c| c.as_str()), Some("x"));
        let arr = v.get("a").and_then(|a| a.as_array()).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").and_then(|b| b.as_bool()), Some(false));
    }

    #[test]
    fn pretty_roundtrips() {
        let text = r#"{"datasets": ["ILI", "NASDAQ"], "horizons": [24, 36], "nested": {"stride": 1}, "empty": [], "ratio": 0.7}"#;
        let v = JsonValue::parse(text).unwrap();
        let pretty = v.pretty();
        assert_eq!(JsonValue::parse(&pretty).unwrap(), v);
        assert!(
            pretty.contains("  \"datasets\": [\n    \"ILI\""),
            "{pretty}"
        );
        assert!(pretty.contains("\"empty\": []"));
    }

    #[test]
    fn compact_roundtrips() {
        let v = JsonValue::parse(r#"{"a":[1,true,null],"b":"s"}"#).unwrap();
        assert_eq!(JsonValue::parse(&v.compact()).unwrap(), v);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(JsonValue::parse("{} x").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn integers_print_without_fraction() {
        let v = JsonValue::Object(vec![
            ("n".into(), JsonValue::Number(24.0)),
            ("f".into(), JsonValue::Number(0.5)),
        ]);
        let s = v.compact();
        assert_eq!(s, r#"{"n":24,"f":0.5}"#);
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            JsonValue::parse(r#""é😀""#).unwrap(),
            JsonValue::String("é😀".into())
        );
    }

    #[test]
    fn nesting_is_bounded_by_max_depth() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(JsonValue::parse(&nest(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nest(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn a_million_open_brackets_are_an_error_not_a_stack_overflow() {
        // A spawned thread has the default 2 MiB stack that server
        // connection threads parse request bodies on.
        for unit in ["[", "{\"a\":"] {
            let doc = unit.repeat(1_000_000);
            let parsed = std::thread::spawn(move || JsonValue::parse(&doc).map(|_| ()))
                .join()
                .expect("the parser must not overflow the stack");
            let err = parsed.expect_err("unterminated nesting is an error");
            assert!(err.message.contains("nesting"), "{unit}: {err}");
        }
    }

    #[test]
    fn ordering_is_preserved() {
        let v = JsonValue::parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }
}
