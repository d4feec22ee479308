//! A minimal JSON reader, the report shapes checked against it, and the
//! two scalar writers every hand-assembled sampsim document shares.
//!
//! The offline build has no JSON dependency, yet the perf harness and the
//! CI gate need to *validate* the reports the CLI emits, and `sampsim
//! serve` parses requests arriving over TCP (all sampsim JSON is produced
//! by hand-assembled writers, with [`num`] and [`quote`]). This module
//! parses the full JSON grammar into a [`Value`] tree — enough to check a
//! schema, not a serde replacement: numbers are `f64` and objects keep
//! insertion order. Each report declares its [`Shape`] once, next to its
//! renderer, and [`Shape::parse`] is its whole validator.
//!
//! Because the server feeds it *untrusted network input*, the parser is
//! hardened beyond what the trusted report-validation path needs:
//!
//! * nesting is capped at [`MAX_DEPTH`] levels (a recursive-descent parser
//!   must bound recursion or a hostile `[[[[…` overflows the stack),
//! * anything after the top-level value except whitespace is rejected,
//! * `\uD800`–`\uDFFF` escapes must form a valid surrogate pair, which is
//!   decoded to the real code point; lone surrogates are an error rather
//!   than a silent U+FFFD.

use std::fmt;

/// Maximum container nesting the parser accepts. Documents deeper than
/// this fail with a [`JsonError`] instead of recursing unboundedly.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
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
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset the error was detected at.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (one value plus trailing whitespace).
///
/// # Errors
///
/// Returns a [`JsonError`] with a byte offset on malformed input.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

/// Renders a float the way every sampsim document does: Rust's
/// shortest-round-trip `{:?}`, with non-finite values as `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Renders `s` as a JSON string literal, quotes included (RFC 8259
/// escaping).
pub fn quote(s: &str) -> String {
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

/// The declared shape of a JSON document, written once next to the
/// renderer it describes. Objects are exact: every key, in render order,
/// and no other. [`Shape::check`] reports the first violation by its path
/// (`strategies[2].cpi.ci95: expected a finite number`); within an
/// object, present values are checked before all missing keys are named.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Any string.
    Str,
    /// A non-empty string.
    Text,
    /// A string from a fixed list of names.
    OneOf(&'static [&'static str]),
    /// A finite number within a bound.
    Num(Bound),
    /// `true` or `false`.
    Bool,
    /// `null`, or a value of the inner shape.
    Nullable(&'static Shape),
    /// An object with exactly these keys, in this order.
    Object(&'static [(&'static str, Shape)]),
    /// An object with any keys, every value of the inner shape.
    Map(&'static Shape),
    /// `Array(item, min, unique)`: at least `min` items of the `item`
    /// shape. With `unique = Some((key, names))`, no two items share the
    /// string under `key`, and every one of `names` appears there.
    Array(
        &'static Shape,
        usize,
        Option<(&'static str, &'static [&'static str])>,
    ),
    /// An object whose first key, `tag`, names one of `variants`; the
    /// keys after it are exactly that variant's, in order.
    Tagged {
        /// The discriminating key.
        tag: &'static str,
        /// Each variant's tag value and its keys after the tag.
        variants: &'static [(&'static str, &'static [(&'static str, Shape)])],
    },
}

/// The bound on a [`Shape::Num`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Any finite number.
    Any,
    /// `>=` the value.
    AtLeast(f64),
    /// `>` the value.
    Above(f64),
    /// Equal to the value.
    Exactly(f64),
}

impl Shape {
    /// Parses `text` and checks it against this shape, returning the
    /// document for any cross-field checks the caller adds.
    ///
    /// # Errors
    ///
    /// The parse error, or the first violation prefixed by its path.
    pub fn parse(&self, text: &str) -> Result<Value, String> {
        let doc = parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
        self.check(&doc)?;
        Ok(doc)
    }

    /// Checks `value` against this shape.
    ///
    /// # Errors
    ///
    /// The first violation, prefixed by its path.
    pub fn check(&self, value: &Value) -> Result<(), String> {
        self.walk(value, "")
    }

    fn walk(&self, value: &Value, path: &str) -> Result<(), String> {
        let fail = |message: String| Err(at(path, message));
        match (self, value) {
            (Shape::Str, Value::String(_)) | (Shape::Bool, Value::Bool(_)) => Ok(()),
            (Shape::Nullable(_), Value::Null) => Ok(()),
            (Shape::Nullable(inner), _) => inner.walk(value, path),
            (Shape::Text, Value::String(s)) if !s.is_empty() => Ok(()),
            (Shape::OneOf(names), Value::String(s)) if !names.contains(&s.as_str()) => {
                fail(format!("{s:?} is not one of {names:?}"))
            }
            (Shape::OneOf(_), Value::String(_)) => Ok(()),
            (Shape::Num(_), Value::Number(v)) if !v.is_finite() => {
                fail(format!("expected a finite number, got {v}"))
            }
            (Shape::Num(bound), Value::Number(v)) => match *bound {
                Bound::AtLeast(min) if *v < min => fail(format!("must be >= {min}, got {v}")),
                Bound::Above(min) if *v <= min => fail(format!("must be > {min}, got {v}")),
                Bound::Exactly(x) if *v != x => fail(format!("must be {x}, got {v}")),
                _ => Ok(()),
            },
            (Shape::Object(fields), Value::Object(present)) => object(path, fields, present),
            (Shape::Map(inner), Value::Object(present)) => present
                .iter()
                .try_for_each(|(key, v)| inner.walk(v, &join(path, key))),
            (Shape::Array(item, min, unique), Value::Array(items)) => {
                if items.len() < *min {
                    return fail(format!(
                        "expected at least {min} item(s), got {}",
                        items.len()
                    ));
                }
                let mut seen = Vec::with_capacity(items.len());
                for (i, v) in items.iter().enumerate() {
                    let item_path = format!("{path}[{i}]");
                    item.walk(v, &item_path)?;
                    if let Some((key, _)) = unique {
                        let name = v.get(key).and_then(Value::as_str).unwrap_or_default();
                        if seen.contains(&name) {
                            return Err(at(
                                &join(&item_path, key),
                                format!("{name:?} appears twice"),
                            ));
                        }
                        seen.push(name);
                    }
                }
                if let Some((key, names)) = unique {
                    if let Some(name) = names.iter().find(|n| !seen.contains(n)) {
                        return fail(format!("{key} {name:?} is missing"));
                    }
                }
                Ok(())
            }
            (Shape::Tagged { tag, variants }, Value::Object(present)) => {
                let kind = value.get(tag).and_then(Value::as_str);
                match variants.iter().find(|(name, _)| kind == Some(*name)) {
                    Some((_, fields)) => {
                        object(path, &[&[(*tag, Shape::Str)], *fields].concat(), present)
                    }
                    None if value.get(tag).is_none() => fail(format!("missing {tag:?}")),
                    None => {
                        let names: Vec<&str> = variants.iter().map(|(name, _)| *name).collect();
                        Err(at(&join(path, tag), format!("expected one of {names:?}")))
                    }
                }
            }
            (Shape::Str | Shape::OneOf(_), _) => fail("expected a string".into()),
            (Shape::Text, _) => fail("expected a non-empty string".into()),
            (Shape::Num(_), _) => fail("expected a finite number".into()),
            (Shape::Bool, _) => fail("expected true or false".into()),
            (Shape::Array(..), _) => fail("expected an array".into()),
            (Shape::Object(_) | Shape::Map(_) | Shape::Tagged { .. }, _) => {
                fail("expected an object".into())
            }
        }
    }
}

/// Checks an object's keys against `fields`: each present key must be
/// declared after the previous one, and its value is checked before the
/// next key is looked at; the missing keys are reported last.
fn object(path: &str, fields: &[(&str, Shape)], present: &[(String, Value)]) -> Result<(), String> {
    let mut next = 0;
    for (key, value) in present {
        match fields[next..].iter().position(|(k, _)| k == key) {
            Some(i) => next += i + 1,
            None if fields.iter().any(|(k, _)| k == key) => {
                return Err(at(path, format!("key {key:?} is repeated or out of order")));
            }
            None => return Err(at(path, format!("unknown key {key:?}"))),
        }
        fields[next - 1].1.walk(value, &join(path, key))?;
    }
    let missing: Vec<String> = fields
        .iter()
        .filter(|(key, _)| present.iter().all(|(k, _)| k != key))
        .map(|(key, _)| format!("{key:?}"))
        .collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(at(path, format!("missing {}", missing.join(", "))))
    }
}

fn join(path: &str, key: &str) -> String {
    format!("{path}{}{key}", if path.is_empty() { "" } else { "." })
}

fn at(path: &str, message: String) -> String {
    format!("{path}{}{message}", if path.is_empty() { "" } else { ": " })
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Bounds container recursion. Errors abort the whole parse, so the
    /// matching decrement only happens on success paths.
    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so slicing on
                    // the next boundary is safe).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    /// Reads the 4 hex digits of a `\u` escape (the `\u` itself already
    /// consumed).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Decodes one `\u` escape, pairing UTF-16 surrogates into the real
    /// code point. Lone or inverted surrogates are rejected — untrusted
    /// input must not smuggle replacement characters past a schema check.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = self.hex4()?;
        match code {
            0xD800..=0xDBFF => {
                if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..=0xDFFF).contains(&low) {
                        return Err(self.err("high surrogate not followed by a low surrogate"));
                    }
                    let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    Ok(char::from_u32(combined).expect("paired surrogates form a valid scalar"))
                } else {
                    Err(self.err("unpaired high surrogate"))
                }
            }
            0xDC00..=0xDFFF => Err(self.err("unpaired low surrogate")),
            _ => Ok(char::from_u32(code).expect("non-surrogate BMP code point")),
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err(format!("bad number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Value::Number(-1250.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": null}, "x"], "c": {"d": 2.5}}"#).unwrap();
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_f64(), Some(2.5));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("b"), Some(&Value::Null));
        assert_eq!(arr[2].as_str(), Some("x"));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#""a\n\t\"\\Aü""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\Aü"));
        assert_eq!(parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
    }

    #[test]
    fn surrogate_pairs_decode_to_the_real_code_point() {
        // U+1D11E MUSICAL SYMBOL G CLEF as a UTF-16 surrogate pair.
        assert_eq!(parse(r#""𝄞""#).unwrap().as_str(), Some("𝄞"));
        // Lowercase hex digits are fine too.
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn lone_surrogates_are_rejected_not_replaced() {
        for bad in [
            r#""\uD834""#,       // high surrogate at end of string
            r#""\uD834x""#,      // high surrogate followed by a literal
            r#""\uD834\n""#,     // high surrogate followed by another escape
            r#""\uDD1E""#,       // low surrogate first
            r#""\uD834\uD834""#, // two high surrogates
            r#""\uD834A""#,      // high surrogate + trailing hex-looking literal
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.message.contains("surrogate"), "{bad}: {err}");
        }
    }

    #[test]
    fn depth_limit_bounds_recursion() {
        let deep = |n: usize| format!("{}0{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // Objects count against the same budget, and a hostile prefix with
        // no closers at all must fail too (the overflow happens on the way
        // down, before any closer is reached).
        let bomb = "[{\"k\":".repeat(MAX_DEPTH);
        assert!(parse(&bomb).unwrap_err().message.contains("nesting"));
        // Sibling containers do not accumulate depth.
        let wide = format!("[{}0]", "[1],".repeat(1_000));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        for bad in ["{} {}", "1 1", "null,", "[1] x", "\"a\"\"b\"", "{}\u{0}"] {
            let err = parse(bad).unwrap_err();
            assert!(err.message.contains("trailing"), "{bad:?}: {err}");
        }
        // Trailing whitespace (including newlines) is fine.
        assert!(parse("{}  \n\t\r\n").is_ok());
    }

    #[test]
    fn object_preserves_order() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        match v {
            Value::Object(fields) => {
                assert_eq!(fields[0].0, "z");
                assert_eq!(fields[1].0, "a");
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "1 2",
            "\"unterminated",
            "{'a': 1}",
            "[1,]nope",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
        let err = parse("[1, }").unwrap_err();
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn roundtrips_cli_style_floats() {
        // The CLI prints floats with Rust's shortest-round-trip `{:?}`.
        let v = parse("[0.028541666666666667, 1e-12, 100.0]").unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(0.028541666666666667));
        assert_eq!(arr[1].as_f64(), Some(1e-12));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Object(vec![]));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(
            quote("a\"b\\c\nd\te\u{1}"),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\""
        );
    }

    #[test]
    fn num_is_shortest_round_trip_or_null() {
        assert_eq!(num(0.1), "0.1");
        assert_eq!(num(100.0), "100.0");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(num(bad), "null");
        }
    }

    const ROW: Shape = Shape::Object(&[
        ("name", Shape::OneOf(&["a", "b"])),
        ("n", Shape::Num(Bound::AtLeast(1.0))),
    ]);

    /// One key per shape kind.
    const DOC: Shape = Shape::Object(&[
        ("s", Shape::Str),
        ("t", Shape::Text),
        ("k", Shape::OneOf(&["x", "y"])),
        ("ge", Shape::Num(Bound::AtLeast(0.0))),
        ("gt", Shape::Num(Bound::Above(0.0))),
        ("eq", Shape::Num(Bound::Exactly(0.0))),
        ("b", Shape::Bool),
        ("maybe", Shape::Nullable(&Shape::Num(Bound::Above(0.0)))),
        ("map", Shape::Map(&Shape::Num(Bound::Any))),
        ("rows", Shape::Array(&ROW, 1, Some(("name", &["a", "b"])))),
        (
            "loc",
            Shape::Tagged {
                tag: "kind",
                variants: &[("file", &[("path", Shape::Text)]), ("none", &[])],
            },
        ),
    ]);

    const GOOD: &str = r#"{"s":"","t":"x","k":"y","ge":0,"gt":0.5,"eq":0,"b":true,"maybe":null,"map":{"q":-1},"rows":[{"name":"a","n":1},{"name":"b","n":2}],"loc":{"kind":"file","path":"p"}}"#;

    #[test]
    fn shapes_accept_every_kind() {
        DOC.parse(GOOD).unwrap();
        for (from, to) in [
            (r#""maybe":null"#, r#""maybe":2"#),
            (r#""map":{"q":-1}"#, r#""map":{}"#),
            (r#"{"kind":"file","path":"p"}"#, r#"{"kind":"none"}"#),
            (r#""s":"""#, r#""s":"any""#),
        ] {
            let doc = GOOD.replacen(from, to, 1);
            assert_ne!(doc, GOOD, "{from} not found");
            DOC.parse(&doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    #[test]
    fn shapes_reject_every_kind_by_path() {
        for (from, to, expected) in [
            (r#""s":"""#, r#""s":1"#, "s: expected a string"),
            (r#""t":"x""#, r#""t":"""#, "t: expected a non-empty string"),
            (
                r#""k":"y""#,
                r#""k":"z""#,
                r#"k: "z" is not one of ["x", "y"]"#,
            ),
            (r#""ge":0"#, r#""ge":-1"#, "ge: must be >= 0, got -1"),
            (
                r#""ge":0"#,
                r#""ge":1e999"#,
                "ge: expected a finite number, got inf",
            ),
            (r#""gt":0.5"#, r#""gt":0"#, "gt: must be > 0, got 0"),
            (r#""eq":0"#, r#""eq":2"#, "eq: must be 0, got 2"),
            (r#""b":true"#, r#""b":"yes""#, "b: expected true or false"),
            (
                r#""maybe":null"#,
                r#""maybe":-2"#,
                "maybe: must be > 0, got -2",
            ),
            (
                r#""maybe":null"#,
                r#""maybe":"x""#,
                "maybe: expected a finite number",
            ),
            (r#""q":-1"#, r#""q":"1""#, "map.q: expected a finite number"),
            (
                r#""map":{"q":-1}"#,
                r#""map":[]"#,
                "map: expected an object",
            ),
            (
                r#"[{"name":"a","n":1},{"name":"b","n":2}]"#,
                "[]",
                "rows: expected at least 1 item(s), got 0",
            ),
            (r#""rows":["#, r#""rows":{"#, "not valid JSON"),
            (r#""n":2"#, r#""n":0"#, "rows[1].n: must be >= 1, got 0"),
            (
                r#""name":"b""#,
                r#""name":"a""#,
                r#"rows[1].name: "a" appears twice"#,
            ),
            (r#",{"name":"b","n":2}"#, "", r#"rows: name "b" is missing"#),
            (
                r#""kind":"file""#,
                r#""kind":"dir""#,
                r#"loc.kind: expected one of ["file", "none"]"#,
            ),
            (r#""kind":"file","#, "", r#"loc: missing "kind""#),
            (
                r#""path":"p""#,
                r#""path":"p","x":1"#,
                r#"loc: unknown key "x""#,
            ),
            (r#","path":"p""#, "", r#"loc: missing "path""#),
            (
                r#""s":"","t":"x""#,
                r#""t":"x","s":"""#,
                r#"key "s" is repeated or out of order"#,
            ),
            (
                r#""b":true"#,
                r#""b":true,"b":true"#,
                r#"key "b" is repeated or out of order"#,
            ),
            (r#""b":true,"maybe":null,"#, "", r#"missing "b", "maybe""#),
        ] {
            let doc = GOOD.replacen(from, to, 1);
            assert_ne!(doc, GOOD, "{from} not found");
            let err = DOC.parse(&doc).unwrap_err();
            assert!(err.contains(expected), "{doc}: {err}");
        }
        assert_eq!(DOC.parse("[]").unwrap_err(), "expected an object");
    }

    #[test]
    fn present_values_are_checked_before_missing_keys() {
        // A wrong leading value fails first even when later keys are
        // missing; a bad nested value beats the parent's missing keys.
        let err = DOC.parse(r#"{"s":7}"#).unwrap_err();
        assert_eq!(err, "s: expected a string");
        let err = DOC.parse(r#"{"s":"","rows":[{"name":"c"}]}"#).unwrap_err();
        assert!(err.starts_with("rows[0].name:"), "{err}");
    }
}

/// Seeded property tests on the untrusted-input hardening, driven by the
/// in-repo [`crate::prop`] harness.
#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::prop::{run_cases, Gen};
    use std::fmt::Write;

    /// Renders a [`Value`] back to JSON text with the sampsim writers'
    /// scalar forms.
    fn render(v: &Value, out: &mut String) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Number(n) => out.push_str(&num(*n)),
            Value::String(s) => out.push_str(&quote(s)),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render(item, out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, val)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&quote(k));
                    out.push(':');
                    render(val, out);
                }
                out.push('}');
            }
        }
    }

    /// A random scalar-or-container tree of bounded depth.
    fn arb_value(g: &mut Gen, depth: usize) -> Value {
        let pick = g.usize_in(0..if depth == 0 { 4 } else { 6 });
        match pick {
            0 => Value::Null,
            1 => Value::Bool(g.chance(0.5)),
            // Integral and fractional numbers; `{:?}` round-trips both.
            2 => Value::Number(g.f64_in(-1e9..1e9)),
            3 => Value::String(arb_string(g)),
            4 => Value::Array(g.vec_of(0..4, |g| arb_value(g, depth - 1))),
            _ => Value::Object(g.vec_of(0..4, |g| (arb_string(g), arb_value(g, depth - 1)))),
        }
    }

    fn arb_string(g: &mut Gen) -> String {
        let v = g.vec_of(0..8, |g| match g.usize_in(0..5) {
            0 => '"',
            1 => '\\',
            2 => '\n',
            3 => char::from_u32(g.u64_in(0x20..0x7F) as u32).unwrap(),
            // Astral-plane characters exercise the surrogate-pair path
            // when escaped and the raw UTF-8 path when not.
            _ => char::from_u32(g.u64_in(0x1_0000..0x1_1000) as u32).unwrap(),
        });
        v.into_iter().collect()
    }

    #[test]
    fn arbitrary_documents_roundtrip() {
        run_cases("json-roundtrip", 128, |g| {
            let v = arb_value(g, 3);
            let mut text = String::new();
            render(&v, &mut text);
            let back = parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(back, v, "{text}");
        });
    }

    #[test]
    fn escaped_astral_code_points_roundtrip_via_surrogate_pairs() {
        run_cases("json-surrogate-pairs", 128, |g| {
            let code = g.u64_in(0x1_0000..0x11_0000) as u32;
            let c = char::from_u32(code).expect("astral scalar");
            let units: Vec<u16> = c.encode_utf16(&mut [0u16; 2]).to_vec();
            let text = format!("\"\\u{:04x}\\u{:04x}\"", units[0], units[1]);
            let parsed = parse(&text).unwrap();
            assert_eq!(parsed.as_str(), Some(c.to_string().as_str()), "{text}");
            // The same pair in the wrong order must be rejected.
            let swapped = format!("\"\\u{:04x}\\u{:04x}\"", units[1], units[0]);
            assert!(parse(&swapped).is_err(), "{swapped}");
        });
    }

    #[test]
    fn random_depths_respect_the_limit() {
        run_cases("json-depth-limit", 32, |g| {
            let n = g.usize_in(1..2 * MAX_DEPTH);
            let doc = format!("{}1{}", "[".repeat(n), "]".repeat(n));
            assert_eq!(parse(&doc).is_ok(), n <= MAX_DEPTH, "depth {n}");
        });
    }

    #[test]
    fn random_trailing_garbage_is_rejected() {
        run_cases("json-trailing-garbage", 64, |g| {
            let v = arb_value(g, 2);
            let mut text = String::new();
            render(&v, &mut text);
            let garbage = match g.usize_in(0..4) {
                0 => "x",
                1 => "{}",
                2 => "]",
                _ => "\u{1}",
            };
            let doc = format!("{text} {garbage}");
            assert!(parse(&doc).is_err(), "{doc:?}");
        });
    }
}
