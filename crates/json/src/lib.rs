//! # prestage-json
//!
//! A minimal JSON value tree with a hand-written parser and a
//! deterministic writer — the one serialization substrate shared by the
//! [`ExperimentSpec`] API, the `prestage shard`/`merge` files, and the
//! cell cache's entries.  The vendored `serde` shim has no data-format backend
//! (vendor/README.md), so everything that crosses a process boundary in
//! this workspace goes through this module instead.
//!
//! Design constraints, in order:
//!
//! 1. **Integers stay exact.** Counters and seeds are `u64`; routing them
//!    through `f64` would corrupt values above 2^53.  [`Json::Int`] holds
//!    `i128` and is emitted verbatim, so a shard written on one host merges
//!    bit-exactly on another.
//! 2. **Output is deterministic.** Object keys keep insertion order, floats
//!    are printed in their shortest round-trip form (with a forced `.0` for
//!    integral values so they re-parse as floats), and there is exactly one
//!    rendering per value tree — equal trees produce equal bytes, which is
//!    what lets CI `diff` a merged shard run against a single-process run.
//! 3. **Errors carry position.** [`Json::parse`] reports the byte offset
//!    and a human-readable reason, matching the workspace's loud-parsing
//!    policy.
//!
//! Non-goals: streaming, zero-copy, or full `serde` integration.  The
//! trees involved are kilobytes.
//!
//! [`ExperimentSpec`]: https://docs.rs/prestage-sim

use std::fmt;

/// A parsed JSON value.
///
/// Numbers are split into [`Json::Int`] (no decimal point or exponent in
/// the source; exact) and [`Json::Float`] (everything else) so that `u64`
/// counters survive a round-trip unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i128),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key/value pairs in insertion order (preserved by the writer).
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset into the input plus a reason.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    pub offset: usize,
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// Nesting beyond this depth is rejected rather than risking a stack
/// overflow on adversarial input.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, reason: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            reason: reason.into(),
        })
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

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.err(format!("expected '{lit}'"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return self.err("nesting deeper than 128 levels");
        }
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => self.err(format!("unexpected character '{}'", c as char)),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']' in array"),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return self.err(format!("duplicate key {key:?}"));
            }
            self.skip_ws();
            self.expect_byte(b':')?;
            let val = self.value(depth + 1)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return self.err("expected ',' or '}' in object"),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                // Surrogate pairs are not needed by any
                                // artifact this workspace writes.
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    // prestage: allow(unwrap-in-lib, the loop above advanced pos over continuation bytes of input already required to be valid UTF-8, so the slice is valid by construction)
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // prestage: allow(unwrap-in-lib, the slice holds only ASCII digit/sign/exponent bytes matched by the loop above — always valid UTF-8)
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            match text.parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(Json::Float(v)),
                _ => self.err(format!("bad number {text:?}")),
            }
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .or_else(|_| self.err(format!("bad integer {text:?}")))
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            // prestage: allow(truncating-cast, char to u32 is a widening conversion — every char is a valid u32 code point; the rule is syntactic and cannot see the source type)
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Print a float so it re-parses as a float: Rust's shortest round-trip
/// form, with `.0` forced onto integral values (otherwise `1.0` would be
/// written as `1` and come back as [`Json::Int`]).
fn float_repr(v: f64) -> String {
    assert!(
        v.is_finite(),
        "JSON cannot represent a non-finite float ({v})"
    );
    let s = format!("{v}");
    if s.bytes().any(|b| b == b'.' || b == b'e' || b == b'E') {
        s
    } else {
        format!("{s}.0")
    }
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed, any
    /// other trailing content rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return p.err("trailing content after document");
        }
        Ok(v)
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented rendering (2 spaces per level) with a trailing newline —
    /// the on-disk format of every artifact this workspace writes.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        let (nl, pad, padc) = match indent {
            Some(w) => (
                "\n",
                " ".repeat(w * (level + 1)),
                " ".repeat(w * level),
            ),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(v) => out.push_str(&float_repr(*v)),
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    item.write(out, indent, level + 1);
                }
                out.push_str(nl);
                out.push_str(&padc);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    escape_into(k, out);
                    out.push_str(": ");
                    v.write(out, indent, level + 1);
                }
                out.push_str(nl);
                out.push_str(&padc);
                out.push('}');
            }
        }
    }

    /// Build an object from key/value pairs (insertion order preserved).
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    // -- Accessors: `None` on type mismatch, so callers surface their own
    //    context-bearing errors. --

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object keys in insertion order (used to reject unknown fields).
    pub fn keys(&self) -> Option<Vec<&str>> {
        match self {
            Json::Obj(pairs) => Some(pairs.iter().map(|(k, _)| k.as_str()).collect()),
            _ => None,
        }
    }

    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        self.as_i128().and_then(|i| u64::try_from(i).ok())
    }

    pub fn as_usize(&self) -> Option<usize> {
        self.as_i128().and_then(|i| usize::try_from(i).ok())
    }

    /// Numeric value as `f64` ([`Json::Int`] widens; may round above 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v as i128)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(v as i128)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i128)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v as i128)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        match v {
            Some(v) => v.into(),
            None => Json::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for text in ["null", "true", "false", "0", "-7", "42"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.render(), text);
        }
        assert_eq!(Json::parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(Json::Float(1.5).render(), "1.5");
    }

    #[test]
    fn u64_counters_stay_exact() {
        // 2^53 + 1 is the first integer f64 cannot hold.
        let v = Json::from(u64::MAX);
        let back = Json::parse(&v.render()).unwrap();
        assert_eq!(back.as_u64(), Some(u64::MAX));
        let boundary = (1u64 << 53) + 1;
        let back = Json::parse(&Json::from(boundary).render()).unwrap();
        assert_eq!(back.as_u64(), Some(boundary));
    }

    #[test]
    fn integral_floats_stay_floats() {
        // 1.0 must not collapse to the integer 1 across a round-trip.
        let v = Json::Float(1.0);
        assert_eq!(v.render(), "1.0");
        assert_eq!(Json::parse("1.0").unwrap(), Json::Float(1.0));
        // Shortest-repr exponent forms parse back exactly.
        let tiny = Json::Float(1e-7);
        assert_eq!(Json::parse(&tiny.render()).unwrap(), tiny);
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for v in [0.125, std::f64::consts::PI, 1e300, -2.5e-10, 0.1 + 0.2] {
            let back = Json::parse(&Json::Float(v).render()).unwrap();
            assert_eq!(back, Json::Float(v), "{v}");
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_floats_refuse_to_serialize() {
        Json::Float(f64::NAN).render();
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a \"quoted\\path\"\nwith\ttabs and µnicode";
        let v = Json::Str(s.to_string());
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(
            Json::parse(r#""µm""#).unwrap(),
            Json::Str("\u{b5}m".into())
        );
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v = Json::obj([
            ("name", "fig1".into()),
            ("sizes", Json::Arr(vec![256u64.into(), 512u64.into()])),
            ("bench", Json::Null),
            (
                "inner",
                Json::obj([("ok", true.into()), ("x", 2.5.into())]),
            ),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
        assert_eq!(v.get("name").and_then(Json::as_str), Some("fig1"));
        assert_eq!(v.get("bench").map(Json::is_null), Some(true));
        assert_eq!(
            v.keys().unwrap(),
            vec!["name", "sizes", "bench", "inner"]
        );
    }

    #[test]
    fn pretty_output_is_stable() {
        let v = Json::obj([("a", 1u64.into()), ("b", Json::Arr(vec![]))]);
        assert_eq!(v.pretty(), "{\n  \"a\": 1,\n  \"b\": []\n}\n");
    }

    #[test]
    fn errors_carry_position_and_reason() {
        let e = Json::parse("{\"a\": }").unwrap_err();
        assert_eq!(e.offset, 6);
        let e = Json::parse("[1, 2").unwrap_err();
        assert!(e.reason.contains("expected"));
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("1e999").is_err(), "overflowing float rejected");
        // Duplicate keys would make `get` ambiguous.
        let e = Json::parse("{\"a\": 1, \"a\": 2}").unwrap_err();
        assert!(e.reason.contains("duplicate"));
    }

    #[test]
    fn depth_bomb_rejected() {
        let bomb = "[".repeat(5_000);
        let e = Json::parse(&bomb).unwrap_err();
        assert!(e.reason.contains("nesting"));
    }
}
