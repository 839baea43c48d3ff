//! A minimal hand-rolled JSON reader, just enough to load the Chrome
//! trace files this crate itself emits (the workspace vendors no serde;
//! every serializer in the repo is hand-rolled the same way — see the
//! `bench_*_json` bins and the fault plan's TOML-subset parser).
//!
//! Object member order is preserved, so `parse(emit(t))` re-emits byte
//! identically — the round-trip property the test suite pins.

use std::fmt;

/// A parsed JSON value. Objects keep member order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as f64; trace files only carry u64-safe ints).
    Num(f64),
    /// A number rendered with a fixed decimal precision (e.g.
    /// `Fixed(0.5, 6)` emits `0.500000`). Only produced by emitters —
    /// the parser always yields [`JsonValue::Num`].
    Fixed(f64, u8),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, members in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as u64, if this is a non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with 2-space indentation. Objects and arrays
    /// whose members are all scalars (or flat arrays) render on one
    /// line — `{"scattered_classes": 1, "statements": 3}` — while
    /// anything nested gets one member per line. Deterministic: a
    /// pure function of the value, shared by every report emitter.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, JsonValue::Arr(_) | JsonValue::Obj(_))
    }

    /// Small enough to render on one line.
    fn is_flat(&self) -> bool {
        match self {
            JsonValue::Arr(items) => items.iter().all(JsonValue::is_scalar),
            JsonValue::Obj(members) => {
                members.len() <= 8
                    && members.iter().all(|(_, v)| match v {
                        JsonValue::Obj(_) => false,
                        JsonValue::Arr(_) => v.is_flat(),
                        _ => true,
                    })
            }
            _ => true,
        }
    }

    fn render(&self, out: &mut String, depth: usize) {
        use std::fmt::Write as _;
        let pad = |out: &mut String, d: usize| {
            for _ in 0..d {
                out.push_str("  ");
            }
        };
        match self {
            JsonValue::Arr(items) if !items.is_empty() && !self.is_flat() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    v.render(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push(']');
            }
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.render(out, depth);
                }
                out.push(']');
            }
            JsonValue::Obj(members) if !members.is_empty() && !self.is_flat() => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    pad(out, depth + 1);
                    let _ = write!(out, "\"{}\": ", escape(k));
                    v.render(out, depth + 1);
                    out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push('}');
            }
            JsonValue::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{}\": ", escape(k));
                    v.render(out, depth);
                }
                out.push('}');
            }
            scalar => {
                let _ = write!(out, "{scalar}");
            }
        }
    }

    /// Parses a complete JSON document.
    ///
    /// # Errors
    /// Returns a message with the byte offset of the first syntax error,
    /// or of the first array or object nested more than 128 levels deep.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Escapes a string for embedding in emitted JSON.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            JsonValue::Fixed(n, prec) => write!(f, "{:.*}", *prec as usize, n),
            JsonValue::Str(s) => write!(f, "\"{}\"", escape(s)),
            JsonValue::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            JsonValue::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "\"{}\":{v}", escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// How deeply arrays and objects may nest before [`JsonValue::parse`]
/// rejects the document. The parser recurses once per level, so the
/// bound keeps a hostile input from overflowing the stack; everything
/// the repo writes nests fewer than ten levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
                }
                self.depth += 1;
                let v = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>().map(JsonValue::Num).map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| "bad \\u escape".to_owned())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_owned())?;
                            self.pos += 4;
                            // Surrogate pairs do not occur in traces we
                            // emit; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Re-read the full UTF-8 scalar starting one back.
                    let rest = &self.bytes[self.pos - 1..];
                    let s = std::str::from_utf8(rest).map_err(|_| "bad utf-8".to_owned())?;
                    let ch = s.chars().next().expect("nonempty");
                    out.push(ch);
                    self.pos += ch.len_utf8() - 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v =
            JsonValue::parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny", "d": true}, "e": null}"#)
                .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("e"), Some(&JsonValue::Null));
    }

    #[test]
    fn round_trips_escapes_and_order() {
        let text = r#"{"z":"a\"b\\c","a":[true,false,null],"n":42}"#;
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(v.to_string(), text, "member order and escapes preserved");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"open", "{\"a\" 1}", "1 2", "{'a': 1}"] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn fixed_renders_with_exact_precision() {
        assert_eq!(JsonValue::Fixed(0.5, 6).to_string(), "0.500000");
        assert_eq!(JsonValue::Fixed(0.0, 6).to_string(), "0.000000");
        assert_eq!(JsonValue::Fixed(1.25, 1).to_string(), "1.2");
    }

    #[test]
    fn pretty_inlines_flat_members_and_indents_nested_ones() {
        let doc = JsonValue::Obj(vec![
            ("total".into(), JsonValue::Num(2.0)),
            ("ratio".into(), JsonValue::Fixed(0.5, 6)),
            (
                "concerns".into(),
                JsonValue::Obj(vec![(
                    "sec".into(),
                    JsonValue::Obj(vec![
                        ("classes".into(), JsonValue::Num(1.0)),
                        ("statements".into(), JsonValue::Num(3.0)),
                    ]),
                )]),
            ),
            ("buckets".into(), JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::Num(2.0)])),
        ]);
        let text = doc.to_pretty();
        assert_eq!(
            text,
            "{\n  \"total\": 2,\n  \"ratio\": 0.500000,\n  \"concerns\": {\n    \"sec\": \
             {\"classes\": 1, \"statements\": 3}\n  },\n  \"buckets\": [1, 2]\n}\n"
        );
        // Pretty output is still parseable (Fixed parses back as Num).
        assert!(JsonValue::parse(&text).is_ok());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |open: &str, leaf: &str, close: &str, n: usize| {
            format!("{}{leaf}{}", open.repeat(n), close.repeat(n))
        };
        for (open, leaf, close) in [("[", "1", "]"), ("{\"k\":", "1", "}")] {
            assert!(JsonValue::parse(&nested(open, leaf, close, MAX_DEPTH)).is_ok());
            let err = JsonValue::parse(&nested(open, leaf, close, MAX_DEPTH + 1)).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{err}");
            // Far past the bound, an unterminated document is still a
            // typed error, not a stack overflow.
            assert!(JsonValue::parse(&open.repeat(100_000)).is_err());
            assert!(JsonValue::parse(&nested(open, leaf, close, 100_000)).is_err());
        }
    }

    #[test]
    fn unicode_survives() {
        let v = JsonValue::parse("\"caf\u{e9} \\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("café é"));
    }
}
