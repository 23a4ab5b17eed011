//! Hand-rolled deterministic JSON: a value tree, a pretty writer, and a
//! minimal parser.
//!
//! The workspace has no registry access, so there is no `serde`; this
//! module is the single JSON implementation the pipeline shares (it was
//! hoisted out of the `perf_report` bench binary and generalized). The
//! writer is **deterministic**: object fields are emitted in insertion
//! order, floats use Rust's shortest-round-trip `Display` (never exponent
//! notation), and indentation is fixed — so two structurally identical
//! values always serialize to identical bytes, which the run-report
//! determinism tests rely on.

use std::fmt::Write as _;

/// A JSON value tree.
///
/// Objects preserve insertion order (a `Vec` of pairs, not a map): callers
/// control field order, and serialization is reproducible.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number. Non-finite floats serialize as `null` (JSON has
    /// no NaN/∞).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a field to an object; panics on non-objects (programmer
    /// error in report assembly).
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Json>) -> &mut Json {
        match self {
            Json::Obj(fields) => fields.push((key.into(), value.into())),
            other => panic!("push on non-object JSON value {other:?}"),
        }
        self
    }

    /// The value of an object field, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Removes an object field, returning it if present. No-op on
    /// non-objects.
    pub fn remove(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(fields) => {
                let idx = fields.iter().position(|(k, _)| k == key)?;
                Some(fields.remove(idx).1)
            }
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes on one line with no whitespace (for log lines and wire
    /// payloads); same escaping and number formatting as [`Json::to_pretty`].
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null | Json::Bool(_) | Json::Num(_) | Json::Str(_) => self.write(out, 0),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    // Rust's f64 Display is shortest-round-trip and never
                    // uses exponent notation, so the output is valid JSON
                    // and deterministic.
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Arrays of scalars stay on one line; nested structures
                // get one element per line.
                let scalar = items
                    .iter()
                    .all(|v| !matches!(v, Json::Arr(_) | Json::Obj(_)));
                if scalar {
                    out.push('[');
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        v.write(out, depth + 1);
                    }
                    out.push(']');
                } else {
                    out.push_str("[\n");
                    for (i, v) in items.iter().enumerate() {
                        indent(out, depth + 1);
                        v.write(out, depth + 1);
                        if i + 1 < items.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    indent(out, depth);
                    out.push(']');
                }
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
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

impl From<&[u64]> for Json {
    fn from(v: &[u64]) -> Json {
        Json::Arr(v.iter().map(|&x| Json::from(x)).collect())
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    // Copy maximal escape-free runs in one shot: long strings (dense
    // numeric tables in checkpoints) serialize at memcpy speed instead
    // of a char at a time. Runs split only at ASCII bytes, so the
    // boundaries always fall on UTF-8 character boundaries.
    fn needs_escape(b: u8) -> bool {
        b == b'"' || b == b'\\' || b < 0x20
    }
    out.push('"');
    let bytes = s.as_bytes();
    let mut start = 0;
    while start < bytes.len() {
        let mut end = start;
        while end < bytes.len() && !needs_escape(bytes[end]) {
            end += 1;
        }
        out.push_str(&s[start..end]);
        if end == bytes.len() {
            break;
        }
        match bytes[end] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
        }
        start = end + 1;
    }
    out.push('"');
}

/// JSON parse error with a byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// The deepest array/object nesting [`parse`] accepts. The parser
/// recurses once per level, so without a cap a hostile document such as
/// a million `[` overflows the stack; every document this workspace
/// writes nests fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document into a [`Json`] tree.
///
/// Accepts exactly the grammar the writer emits (standard JSON minus
/// exponent-heavy corner cases it never produces — exponents in numbers
/// *are* accepted for robustness). Trailing whitespace is allowed; any
/// other trailing content is an error, as is nesting deeper than
/// [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting deeper than the maximum depth"));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("non-scalar \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy a maximal run of unescaped bytes in one shot so long
                    // strings (e.g. dense numeric tables) parse in linear time.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let chunk =
                        std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| {
                            ParseError {
                                message: "invalid UTF-8 in string".to_string(),
                                offset: start,
                            }
                        })?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[', "expected '['")?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{', "expected '{'")?;
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
            self.eat(b':', "expected ':'")?;
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
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        let mut inner = Json::object();
        inner.push("pi", 3.5);
        inner.push("neg", -2.0f64);
        let mut obj = Json::object();
        obj.push("name", "run \"1\"\n");
        obj.push("count", 42u64);
        obj.push("flag", true);
        obj.push("nothing", Json::Null);
        obj.push("list", &[1u64, 2, 3][..]);
        obj.push("nested", inner);
        obj.push("empty_arr", Json::Arr(Vec::new()));
        obj.push("empty_obj", Json::object());
        obj
    }

    #[test]
    fn round_trip_preserves_structure() {
        let v = sample();
        let text = v.to_pretty();
        let back = parse(&text).expect("parses");
        assert_eq!(back, v);
    }

    #[test]
    fn writer_is_deterministic() {
        assert_eq!(sample().to_pretty(), sample().to_pretty());
    }

    #[test]
    fn insertion_order_is_preserved() {
        let text = sample().to_pretty();
        let name = text.find("\"name\"").expect("name");
        let count = text.find("\"count\"").expect("count");
        let nested = text.find("\"nested\"").expect("nested");
        assert!(name < count && count < nested);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut obj = Json::object();
        obj.push("bad", f64::NAN);
        obj.push("inf", f64::INFINITY);
        let text = obj.to_pretty();
        assert!(text.contains("\"bad\": null"));
        assert!(text.contains("\"inf\": null"));
        parse(&text).expect("still valid JSON");
    }

    #[test]
    fn get_and_remove() {
        let mut v = sample();
        assert_eq!(v.get("count").and_then(Json::as_f64), Some(42.0));
        assert_eq!(v.get("name").and_then(Json::as_str), Some("run \"1\"\n"));
        let removed = v.remove("nested").expect("was present");
        assert!(removed.get("pi").is_some());
        assert!(v.get("nested").is_none());
        assert!(v.remove("nested").is_none());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        // A million unclosed brackets used to recurse until the process
        // aborted; it is now an ordinary error at the cap's offset.
        let err = parse(&"[".repeat(1_000_000)).expect_err("too deep");
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("depth"), "{err}");
        let err = parse(&"{\"a\":".repeat(1_000_000)).expect_err("too deep");
        assert!(err.message.contains("depth"), "{err}");
        // Exactly at the cap still parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        parse(&ok).expect("nesting at the cap parses");
    }

    #[test]
    fn parser_accepts_exponents_and_unicode() {
        let v = parse("{\"x\": 1.5e3, \"s\": \"\\u00e9\"}").expect("parses");
        assert_eq!(v.get("x").and_then(Json::as_f64), Some(1500.0));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("é"));
    }

    #[test]
    fn scalar_arrays_are_single_line() {
        let mut obj = Json::object();
        obj.push("hist", &[1u64, 2, 3][..]);
        assert!(obj.to_pretty().contains("\"hist\": [1, 2, 3]"));
    }

    #[test]
    fn compact_writer_is_one_line_and_round_trips() {
        let v = sample();
        let compact = v.to_compact();
        assert!(!compact.contains('\n'));
        assert!(!compact.contains(": "));
        assert_eq!(parse(&compact).expect("parses"), v);
    }
}
