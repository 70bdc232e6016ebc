//! The JSON protocol module.
//!
//! The paper lists JSON among RDDR's supported application protocols
//! (§IV-B1). This module frames newline-delimited JSON documents (the
//! framing used by the paper's RESTful microservices) and diffs them
//! *structurally*: each document is flattened to ordered `path = value`
//! segments, so two instances that serialize the same object with different
//! key order or whitespace still compare equal.
//!
//! The parser is hand-written to keep dependencies to the sanctioned
//! offline set (no `serde_json`; see `DESIGN.md`).

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use bytes::BytesMut;
use rddr_core::{find_byte, Direction, Frame, Protocol, RddrError, Result, SegmentTable};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`, like JavaScript).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Keys are sorted (`BTreeMap`) so serialization is canonical.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member lookup for objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Element lookup for arrays.
    pub fn index(&self, i: usize) -> Option<&JsonValue> {
        match self {
            JsonValue::Array(items) => items.get(i),
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

    /// Flattens the value into ordered `(path, scalar-rendering)` pairs.
    pub fn flatten(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        self.walk(&mut String::new(), &mut |path, value| {
            out.push((path.to_string(), value.to_string()));
        });
        out
    }

    /// Visits every leaf (scalar or empty container) in key order with its
    /// `/`-separated path, which is built in `path` and restored on return.
    fn walk(&self, path: &mut String, visit: &mut dyn FnMut(&str, &dyn fmt::Display)) {
        let depth = path.len();
        match self {
            JsonValue::Object(map) => {
                if map.is_empty() {
                    visit(path, &"{}");
                }
                for (k, v) in map {
                    path.push('/');
                    path.push_str(k);
                    v.walk(path, visit);
                    path.truncate(depth);
                }
            }
            JsonValue::Array(items) => {
                if items.is_empty() {
                    visit(path, &"[]");
                }
                for (i, v) in items.iter().enumerate() {
                    let _ = write!(path, "/{i}");
                    v.walk(path, visit);
                    path.truncate(depth);
                }
            }
            scalar => visit(path, scalar),
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            JsonValue::String(s) => write!(f, "{:?}", s),
            JsonValue::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            JsonValue::Object(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{:?}:{v}", k)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns [`RddrError::Protocol`] on malformed input or trailing garbage.
pub fn parse_json(input: &str) -> Result<JsonValue> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(RddrError::Protocol(format!(
            "trailing bytes after json document at offset {}",
            parser.pos
        )));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> RddrError {
        RddrError::Protocol(format!("json: {what} at offset {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected literal {text}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'n' => self.literal("null", JsonValue::Null),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'"' => Ok(JsonValue::String(self.string()?)),
            b'[' => self.array(),
            b'{' => self.object(),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(self.err(&format!("unexpected byte {:?}", c as char))),
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => return Ok(out),
                b'\\' => match self.bump().ok_or_else(|| self.err("bad escape"))? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        if self.pos + 4 > self.bytes.len() {
                            return Err(self.err("truncated \\u escape"));
                        }
                        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                            .map_err(|_| self.err("non-utf8 \\u escape"))?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                        self.pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(self.err(&format!("bad escape \\{}", other as char))),
                },
                byte => {
                    // Re-assemble UTF-8 sequences byte-wise.
                    let mut chunk = vec![byte];
                    let extra = match byte {
                        0x00..=0x7f => 0,
                        0xc0..=0xdf => 1,
                        0xe0..=0xef => 2,
                        0xf0..=0xf7 => 3,
                        _ => return Err(self.err("invalid utf-8 in string")),
                    };
                    for _ in 0..extra {
                        chunk.push(self.bump().ok_or_else(|| self.err("truncated utf-8"))?);
                    }
                    out.push_str(
                        std::str::from_utf8(&chunk)
                            .map_err(|_| self.err("invalid utf-8 in string"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err(&format!("bad number {text:?}")))
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
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Array(items)),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Object(map)),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// The JSON protocol module: newline-delimited documents, structural diff.
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonProtocol;

impl JsonProtocol {
    /// Creates the JSON module.
    pub fn new() -> Self {
        JsonProtocol
    }
}

impl Protocol for JsonProtocol {
    fn name(&self) -> &str {
        "json"
    }

    fn split_frames(&self, buf: &mut BytesMut, _direction: Direction) -> Result<Vec<Frame>> {
        let mut frames = Vec::new();
        while let Some(pos) = find_byte(b'\n', buf) {
            let line = buf.split_to(pos + 1);
            frames.push(Frame::new("json:document", line.freeze()));
        }
        Ok(frames)
    }

    fn tokenize_into(&self, frame: &Frame, table: &mut SegmentTable) {
        let text = String::from_utf8_lossy(&frame.bytes);
        let Ok(value) = parse_json(text.trim()) else {
            table.push("json:malformed", &frame.bytes);
            return;
        };
        let mut rendered = String::new();
        value.walk(&mut String::new(), &mut |path, leaf| {
            let label = table.append(b"json:").start..table.append(path.as_bytes()).end;
            rendered.clear();
            let _ = write!(rendered, "{leaf}");
            let payload = table.append(rendered.as_bytes());
            table.push_labelled_span(label, payload);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("-2.5").unwrap(), JsonValue::Number(-2.5));
        assert_eq!(
            parse_json("\"hi\\nthere\"").unwrap(),
            JsonValue::String("hi\nthere".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse_json(r#"{"user": {"name": "ada", "ids": [1, 2]}}"#).unwrap();
        assert_eq!(
            v.get("user").unwrap().get("name").unwrap().as_str(),
            Some("ada")
        );
        assert_eq!(
            v.get("user")
                .unwrap()
                .get("ids")
                .unwrap()
                .index(1)
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_json("{} extra").is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "\"open", "{\"a\" 1}", "nul", "1.2.3"] {
            assert!(parse_json(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            parse_json("\"\\u0041\\u00e9\"").unwrap(),
            JsonValue::String("Aé".into())
        );
    }

    #[test]
    fn key_order_does_not_affect_diffing() {
        let p = JsonProtocol::new();
        let a = Frame::new("json:document", br#"{"a":1,"b":2}"#.to_vec());
        let b = Frame::new("json:document", br#"{ "b" : 2, "a" : 1 }"#.to_vec());
        assert_eq!(p.tokenize(&a), p.tokenize(&b));
    }

    #[test]
    fn value_difference_produces_differing_segment() {
        let p = JsonProtocol::new();
        let a = p.tokenize(&Frame::new("json:document", br#"{"balance":100}"#.to_vec()));
        let b = p.tokenize(&Frame::new("json:document", br#"{"balance":999}"#.to_vec()));
        assert_ne!(a, b);
        assert_eq!(a[0].label, "json:/balance");
    }

    #[test]
    fn flatten_paths_are_stable_and_ordered() {
        let v = parse_json(r#"{"z": [true, null], "a": {"k": "v"}}"#).unwrap();
        let flat = v.flatten();
        let paths: Vec<&str> = flat.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["/a/k", "/z/0", "/z/1"]);
    }

    #[test]
    fn empty_containers_flatten_to_markers() {
        let v = parse_json(r#"{"xs": [], "o": {}}"#).unwrap();
        let flat = v.flatten();
        assert!(flat.contains(&("/xs".to_string(), "[]".to_string())));
        assert!(flat.contains(&("/o".to_string(), "{}".to_string())));
    }

    #[test]
    fn frames_on_newlines() {
        let p = JsonProtocol::new();
        let mut buf = BytesMut::from(&b"{\"a\":1}\n{\"a\":2}\n{\"part"[..]);
        let frames = p.split_frames(&mut buf, Direction::Response).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(&buf[..], b"{\"part");
    }

    #[test]
    fn malformed_document_still_tokenizes_for_comparison() {
        let p = JsonProtocol::new();
        let segs = p.tokenize(&Frame::new("json:document", b"not json\n".to_vec()));
        assert_eq!(segs[0].label, "json:malformed");
    }

    #[test]
    fn display_renders_canonical_form() {
        let v = parse_json(r#"{"b": [1, "x"], "a": true}"#).unwrap();
        assert_eq!(v.to_string(), r#"{"a":true,"b":[1,"x"]}"#);
    }
}
