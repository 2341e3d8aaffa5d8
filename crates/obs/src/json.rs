//! Minimal JSON support for the per-lock counter export and the bench
//! records.
//!
//! Hand-rolled on purpose: the workspace has zero registry
//! dependencies, and the export needs only flat objects of numbers and
//! strings. The writer half builds one JSONL line, or a bench record's
//! objects nested in objects and arrays of objects; the parser half
//! reads both back (`StatsSnapshot`'s line reader, `obs_check`,
//! profile-guided demotion, `solero_bench::record`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Builds one JSON object, field by field, in insertion order.
#[derive(Debug, Default)]
pub struct JsonObject {
    out: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject { out: String::new() }
    }

    fn sep(&mut self) {
        if !self.out.is_empty() {
            self.out.push(',');
        }
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.sep();
        let _ = write!(self.out, "{}:{}", escape(key), escape(v));
        self
    }

    /// Adds an unsigned integer field.
    pub fn num(mut self, key: &str, v: u64) -> Self {
        self.sep();
        let _ = write!(self.out, "{}:{v}", escape(key));
        self
    }

    /// Adds a float field (JSON `null` when not finite).
    pub fn float(mut self, key: &str, v: f64) -> Self {
        self.sep();
        if v.is_finite() {
            let _ = write!(self.out, "{}:{v}", escape(key));
        } else {
            let _ = write!(self.out, "{}:null", escape(key));
        }
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, v: bool) -> Self {
        self.sep();
        let _ = write!(self.out, "{}:{v}", escape(key));
        self
    }

    /// Adds a field holding a nested object.
    pub fn obj(mut self, key: &str, v: JsonObject) -> Self {
        self.sep();
        let _ = write!(self.out, "{}:{}", escape(key), v.finish());
        self
    }

    /// Adds a field holding an array of objects, one element per line
    /// so a document of many rows stays readable and diffs by row.
    pub fn objs(mut self, key: &str, vs: impl IntoIterator<Item = JsonObject>) -> Self {
        self.sep();
        let rows: Vec<String> = vs.into_iter().map(JsonObject::finish).collect();
        let _ = write!(self.out, "{}:[\n{}\n]", escape(key), rows.join(",\n"));
        self
    }

    /// The finished `{...}` line (no trailing newline).
    pub fn finish(self) -> String {
        format!("{{{}}}", self.out)
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Field `key` of a parsed object as a `u64`. The parser reads numbers
/// as `f64`, which holds every integer below 2^53 exactly; a larger one
/// could come back changed, so it is rejected rather than rounded.
///
/// # Errors
///
/// The key is missing, or its value is not a non-negative integer
/// below 2^53; the message names the key.
pub fn uint(o: &BTreeMap<String, Value>, key: &str) -> Result<u64, String> {
    const EXACT: f64 = (1u64 << 53) as f64;
    match o.get(key).map(Value::as_num) {
        None => Err(format!("missing key {key:?}")),
        Some(Some(n)) if n >= 0.0 && n.fract() == 0.0 && n < EXACT => Ok(n as u64),
        Some(_) => Err(format!("{key:?} is not a non-negative integer below 2^53")),
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// A human-readable description of the first syntax error.
pub fn parse(s: &str) -> Result<Value, String> {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at offset {}, found {:?}",
                c as char,
                self.i,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at offset {}",
                other.map(|b| b as char),
                self.i
            )),
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.i += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        other => {
                            return Err(format!("bad escape {:?}", other.map(|b| b as char)))
                        }
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Copy one UTF-8 scalar.
                    let s = std::str::from_utf8(&self.b[self.i..])
                        .map_err(|e| format!("invalid utf-8: {e}"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            let val = self.value()?;
            out.insert(key, val);
            self.ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(out));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_round_trips_through_parser() {
        let line = JsonObject::new()
            .str("name", "SOLERO")
            .num("read_enters", 123)
            .float("ratio", 0.5)
            .float("nan", f64::NAN)
            .finish();
        let v = parse(&line).unwrap();
        let o = v.as_obj().unwrap();
        assert_eq!(o["name"].as_str(), Some("SOLERO"));
        assert_eq!(o["read_enters"].as_num(), Some(123.0));
        assert_eq!(o["ratio"].as_num(), Some(0.5));
        assert_eq!(o["nan"], Value::Null);
    }

    #[test]
    fn escapes_special_characters() {
        let line = JsonObject::new().str("s", "a\"b\\c\nd").finish();
        let v = parse(&line).unwrap();
        assert_eq!(v.as_obj().unwrap()["s"].as_str(), Some("a\"b\\c\nd"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nope").is_err());
    }

    #[test]
    fn parses_nested_and_literals() {
        let v = parse(r#"{"a":[true,false,null],"b":{"c":-1.5e2}}"#).unwrap();
        let o = v.as_obj().unwrap();
        assert_eq!(
            o["a"],
            Value::Arr(vec![Value::Bool(true), Value::Bool(false), Value::Null])
        );
        assert_eq!(o["b"].as_obj().unwrap()["c"].as_num(), Some(-150.0));
    }
}
