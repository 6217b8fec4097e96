//! Offline stand-in for `serde_json`, built on the vendored `serde` shim's
//! [`Value`] tree: compact and pretty printers, a simplified [`json!`] macro,
//! and a hand-written parser that reads JSON text into an untyped [`Value`].

#![forbid(unsafe_code)]

pub use serde::value::{Map, Number, Value};

use serde::Serialize;
use std::fmt;

/// A JSON parse or serialisation error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    fn custom(message: impl fmt::Display) -> Self {
        Error {
            message: message.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// Converts any serialisable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Serialises to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let tree = value.to_value();
    reject_non_finite(&tree)?;
    let mut out = String::new();
    tree.write_compact(&mut out);
    Ok(out)
}

/// Serialises to two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let tree = value.to_value();
    reject_non_finite(&tree)?;
    let mut out = String::new();
    tree.write_pretty(&mut out, 0);
    Ok(out)
}

/// Parses JSON text into a [`Value`] tree.
pub fn from_str(text: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::custom(format!(
            "trailing characters at byte {}",
            parser.pos
        )));
    }
    Ok(value)
}

/// JSON has no NaN/inf: error at write time (like real serde_json) instead of
/// emitting a `null` that only blows up when read back.
fn reject_non_finite(value: &Value) -> Result<(), Error> {
    match value {
        Value::Number(n) if !n.is_finite() => Err(Error::custom(
            "cannot serialise non-finite float (NaN or infinity) as JSON",
        )),
        Value::Array(items) => items.iter().try_for_each(reject_non_finite),
        Value::Object(map) => map.values().try_for_each(reject_non_finite),
        _ => Ok(()),
    }
}

/// Builds a [`Value`] literal.
///
/// Simplified relative to real `serde_json`: object keys must be string
/// literals and values are arbitrary serialisable expressions (or nested
/// `[..]` arrays and `null`/`true`/`false` literals).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::to_value(&$elem) ),* ])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut __map = $crate::Map::new();
        $( __map.insert(::std::string::String::from($key), $crate::to_value(&$val)); )*
        $crate::Value::Object(__map)
    }};
    ($other:expr) => { $crate::to_value(&$other) };
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Maximum container nesting accepted by the parser (mirrors real
/// serde_json's recursion limit, turning hostile input into an `Err` instead
/// of a stack overflow).
const MAX_DEPTH: usize = 128;

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected {:?} at byte {}",
                byte as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error::custom(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn enter(&mut self) -> Result<(), Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(Error::custom(format!(
                "JSON nesting exceeds the maximum depth of {MAX_DEPTH}"
            )));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.enter()?;
        let result = self.array_inner();
        self.depth -= 1;
        result
    }

    fn array_inner(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::custom(format!(
                        "expected ',' or ']' in array, found {:?} at byte {}",
                        other.map(|b| b as char),
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.enter()?;
        let result = self.object_inner();
        self.depth -= 1;
        result
    }

    fn object_inner(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                other => {
                    return Err(Error::custom(format!(
                        "expected ',' or '}}' in object, found {:?} at byte {}",
                        other.map(|b| b as char),
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::custom("unterminated string")),
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
                        other => {
                            return Err(Error::custom(format!(
                                "invalid escape {:?}",
                                other.map(|b| b as char)
                            )))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (the input is a &str, so the
                    // byte stream is valid UTF-8).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|e| Error::custom(e.to_string()))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (and a following low surrogate when
    /// needed); `self.pos` is on the `u`.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        self.pos += 1; // the 'u'
        let hi = self.hex4()?;
        if (0xd800..0xdc00).contains(&hi) {
            if !(self.eat_literal("\\u")) {
                return Err(Error::custom("unpaired high surrogate"));
            }
            let lo = self.hex4()?;
            if !(0xdc00..0xe000).contains(&lo) {
                return Err(Error::custom("invalid low surrogate"));
            }
            let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
            char::from_u32(code).ok_or_else(|| Error::custom("invalid surrogate pair"))
        } else {
            char::from_u32(hi).ok_or_else(|| Error::custom("invalid \\u escape"))
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::custom("truncated \\u escape"))?;
        let text = std::str::from_utf8(slice).map_err(|e| Error::custom(e.to_string()))?;
        let code = u32::from_str_radix(text, 16)
            .map_err(|_| Error::custom(format!("invalid \\u escape {text:?}")))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, Error> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| Error::custom(e.to_string()))?;
        let number = if !is_float {
            if let Some(stripped) = text.strip_prefix('-') {
                stripped
                    .parse::<u64>()
                    .ok()
                    .and_then(|_| text.parse::<i64>().ok())
                    .map(Number::from_i64)
            } else {
                text.parse::<u64>().ok().map(Number::from_u64)
            }
        } else {
            None
        };
        let number = match number {
            Some(n) => n,
            None => text
                .parse::<f64>()
                .map(Number::from_f64)
                .map_err(|_| Error::custom(format!("invalid number {text:?}")))?,
        };
        Ok(Value::Number(number))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_prints_round_trip() {
        let text = r#"{"a": [1, 2.5, -3], "b": "x\ny", "c": null, "d": true}"#;
        let value = from_str(text).unwrap();
        let compact = to_string(&value).unwrap();
        let back = from_str(&compact).unwrap();
        assert_eq!(value, back);
        let pretty = to_string_pretty(&value).unwrap();
        let back2 = from_str(&pretty).unwrap();
        assert_eq!(value, back2);
    }

    #[test]
    fn json_macro_builds_objects() {
        let title = "t";
        let doc = json!({ "experiment": title, "rows": vec![1u64, 2] });
        assert_eq!(doc.get("experiment").and_then(Value::as_str), Some("t"));
        assert_eq!(
            doc.get("rows").and_then(Value::as_array).map(|a| a.len()),
            Some(2)
        );
    }

    #[test]
    fn non_finite_floats_error_at_write_time() {
        assert!(to_string(&f64::NAN).is_err());
        assert!(to_string_pretty(&vec![1.0, f64::INFINITY]).is_err());
        assert!(to_string(&f64::MAX).is_ok());
    }

    #[test]
    fn hostile_nesting_errors_instead_of_overflowing() {
        let bomb = "[".repeat(100_000);
        let err = from_str(&bomb).unwrap_err();
        assert!(err.to_string().contains("maximum depth"));
        // Wide-but-shallow documents are fine: depth is released on exit.
        let wide = format!("[{}]", vec!["[1]"; 1000].join(","));
        assert!(from_str(&wide).is_ok());
        // Depth right at the limit parses.
        let ok = format!("{}1{}", "[".repeat(128), "]".repeat(128));
        assert!(from_str(&ok).is_ok());
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.1, 1.0 / 3.0, 1e-12, 6.02e23, -2.5, 1.0] {
            let text = to_string(&f).unwrap();
            let back = from_str(&text).unwrap().as_f64();
            assert_eq!(back, Some(f), "{text}");
        }
    }
}
