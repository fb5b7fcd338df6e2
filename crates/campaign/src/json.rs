//! Minimal hand-rolled JSON — the checkpoint and metrics file format.
//!
//! The workspace builds fully offline, so instead of `serde` the
//! campaign engine carries a small JSON value type with a writer and a
//! recursive-descent parser. It supports the complete JSON grammar with
//! one deliberate refinement: integers without fraction or exponent are
//! kept as `u64`/`i64` ([`Json::UInt`]/[`Json::Int`]) so 64-bit seeds
//! and counters round-trip exactly. Floats that must round-trip
//! bit-exactly (checkpointed accumulator sums) are stored as their IEEE
//! bit pattern via [`Json::from_f64_bits`]/[`Json::as_f64_bits`].

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (no fraction/exponent, no sign).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (integers convert).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::UInt(v) => Some(*v as f64),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as `&str`.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Stores an `f64` bit-exactly (as its IEEE-754 bit pattern).
    #[must_use]
    pub fn from_f64_bits(v: f64) -> Json {
        Json::UInt(v.to_bits())
    }

    /// Reads back an [`Json::from_f64_bits`] value.
    #[must_use]
    pub fn as_f64_bits(&self) -> Option<f64> {
        self.as_u64().map(f64::from_bits)
    }

    /// Serializes to a compact JSON string.
    #[must_use]
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    // `{:?}` prints the shortest string that parses back
                    // to the same f64.
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null"); // JSON has no Inf/NaN
                }
            }
            Json::Str(s) => write_escaped(out, s),
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
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
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
    /// Returns a human-readable message on malformed input.
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a bound a hostile `[[[[…`
/// document would overflow the stack; every document this workspace
/// writes nests fewer than ten levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting too deep (limit {MAX_DEPTH}) at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogates in checkpoints never occur; map
                            // unpaired ones to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                _ => {
                    // Re-scan as UTF-8 from this byte.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = s.chars().next().ok_or("empty char")?;
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if integral {
            if let Some(digits) = text.strip_prefix('-') {
                let v: i64 = format!("-{digits}")
                    .parse()
                    .map_err(|_| format!("bad integer '{text}'"))?;
                return Ok(Json::Int(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}'"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
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
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting too deep"), "{err}");
        let chain = format!("{}1{}", "{\"a\":".repeat(100_000), "}".repeat(100_000));
        let err = Json::parse(&chain).unwrap_err();
        assert!(err.contains("nesting too deep"), "{err}");
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let over = format!("[{at_limit}]");
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "18446744073709551615", "-42"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string_compact(), text);
        }
    }

    #[test]
    fn u64_precision_preserved() {
        let v = Json::parse("9007199254740993").unwrap(); // 2^53 + 1
        assert_eq!(v.as_u64(), Some(9_007_199_254_740_993));
    }

    #[test]
    fn float_roundtrip() {
        let v = Json::parse("0.30000000000000004").unwrap();
        assert_eq!(v.as_f64(), Some(0.1 + 0.2));
    }

    #[test]
    fn f64_bits_roundtrip_exact() {
        let x = -1.234_567_890_123e-300;
        let v = Json::from_f64_bits(x);
        let text = v.to_string_compact();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.as_f64_bits().unwrap().to_bits(), x.to_bits());
    }

    #[test]
    fn nested_structures() {
        let text = r#"{"a":[1,2,{"b":"x\ny"}],"c":{"d":null}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string_compact(), text);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x\ny")
        );
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" {\n\t\"k\" :  [ 1 , 2 ] }\n").unwrap();
        assert_eq!(v.get("k").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn escapes_roundtrip() {
        let original = Json::Str("quote\" slash\\ tab\t nl\n ctrl\u{1}".into());
        let parsed = Json::parse(&original.to_string_compact()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn unicode_passthrough() {
        let v = Json::parse("\"héllo ☂\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo ☂"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"abc").is_err());
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n":3,"s":"x"}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert!(v.get("missing").is_none());
        assert!(v.as_str().is_none());
    }
}
