//! Offline stand-in for the `serde_json` crate.
//!
//! Bridges the serde stub's [`Value`] tree to JSON text: a hand-written
//! recursive-descent parser for `from_str`, and the `Value` renderer for
//! `to_string`/`to_string_pretty`. Covers the API surface this workspace
//! uses: `to_string`, `to_string_pretty`, `from_str`, `to_value`,
//! `from_value`, the [`Value`] type, and the [`json!`] macro.

use std::fmt;

pub use serde::Value;

/// Error produced by any serde_json stub operation.
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Error {
        Error { message: message.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::new(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::new(msg.to_string())
    }
}

/// Convenience alias matching serde_json.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` to compact JSON text.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(to_value(value)?.to_json())
}

/// Serializes `value` to human-indented JSON text.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(to_value(value)?.to_json_pretty())
}

/// Serializes `value` into a [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Result<Value> {
    serde::__private::to_value_err(value)
}

/// Rebuilds a `T` from a [`Value`] tree.
pub fn from_value<T: serde::DeserializeOwned>(value: Value) -> Result<T> {
    serde::__private::from_value_err(value)
}

/// Parses JSON text into a `T`.
pub fn from_str<T: serde::DeserializeOwned>(text: &str) -> Result<T> {
    from_value(parse_value(text)?)
}

/// Builds a [`Value`] from JSON-ish literal syntax.
///
/// Object values and array elements may be arbitrary serializable
/// expressions; serialization failures panic (the stub has no fallible
/// serializers in practice).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($key:tt : $val:expr),* $(,)? }) => {
        $crate::Value::Map(vec![
            $( (::std::string::String::from($key), $crate::to_value(&$val).unwrap()) ),*
        ])
    };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Seq(vec![ $( $crate::to_value(&$elem).unwrap() ),* ])
    };
    ($other:expr) => { $crate::to_value(&$other).unwrap() };
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// How deeply arrays and objects may nest, as in real serde_json. Each
/// level is one recursive call (in the parser, and again when the
/// `Value` is dropped or rendered), so an unbounded depth would let one
/// short hostile line overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
    depth: usize,
}

fn parse_value(text: &str) -> Result<Value> {
    let mut parser = Parser { bytes: text.as_bytes(), at: 0, depth: 0 };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.at != parser.bytes.len() {
        return Err(Error::new(format!("trailing input at byte {}", parser.at)));
    }
    Ok(value)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.at += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        match self.peek() {
            Some(b) if b == byte => {
                self.at += 1;
                Ok(())
            }
            other => Err(Error::new(format!(
                "expected `{}` at byte {}, found {:?}",
                byte as char, self.at, other.map(|b| b as char)
            ))),
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        self.skip_ws();
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            None => Err(Error::new("unexpected end of input")),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(_) => self.number(),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!("recursion limit exceeded at byte {}", self.at)));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Value::Map(pairs));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            pairs.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Value::Map(pairs));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` in object, found {:?}",
                        other.map(|b| b as char)
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Value::Seq(items));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` in array, found {:?}",
                        other.map(|b| b as char)
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` in one go. Both are
            // ASCII, so the run ends on a char boundary, and validating
            // only the run keeps decoding linear in the input length.
            let rest = &self.bytes[self.at..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
            out.push_str(
                std::str::from_utf8(&rest[..run]).map_err(|_| Error::new("invalid UTF-8"))?,
            );
            self.at += run;
            match self.bytes.get(self.at) {
                None => return Err(Error::new("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.at += 1;
                    out.push(self.escape()?);
                }
            }
        }
    }

    /// Decodes the escape whose letter is at `self.at` (just past the
    /// backslash) and moves past it.
    fn escape(&mut self) -> Result<char> {
        let c = match self.bytes.get(self.at) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let bad = || Error::new("bad \\u escape");
                let code = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&code) {
                    // A high surrogate only appears as the first half of a
                    // `\uXXXX\uXXXX` pair encoding one astral char (how
                    // Python's `json.dumps` escapes non-BMP text). A lone
                    // surrogate of either half is no char and stays an
                    // error.
                    if self.bytes.get(self.at + 1..self.at + 3) != Some(&b"\\u"[..]) {
                        return Err(bad());
                    }
                    self.at += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(bad());
                    }
                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    code
                };
                char::from_u32(code).ok_or_else(bad)?
            }
            other => {
                return Err(Error::new(format!("bad escape {:?}", other.map(|&b| b as char))))
            }
        };
        self.at += 1;
        Ok(c)
    }

    /// Reads the four hex digits after the `u` at `self.at`, leaving
    /// `self.at` on the last digit.
    fn hex4(&mut self) -> Result<u32> {
        let bad = || Error::new("bad \\u escape");
        let hex = self.bytes.get(self.at + 1..self.at + 5).ok_or_else(bad)?;
        let hex = std::str::from_utf8(hex).map_err(|_| bad())?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| bad())?;
        self.at += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value> {
        self.skip_ws();
        let start = self.at;
        if self.bytes.get(self.at) == Some(&b'-') {
            self.at += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.at) {
            match b {
                b'0'..=b'9' => self.at += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.at += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|_| Error::new("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(Error::new(format!("expected number at byte {start}")));
        }
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| Error::new(format!("bad float `{text}`: {e}")))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|e| Error::new(format!("bad integer `{text}`: {e}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trip() {
        let text = r#"{"a": [1, -2, 3.5], "b": "x\ny", "c": null, "d": true}"#;
        let v: Value = from_str(text).unwrap();
        assert_eq!(v["a"][1], -2i64);
        assert_eq!(v["b"], "x\ny");
        assert!(v["c"].is_null());
        assert_eq!(v["d"], true);
        let back: Value = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_renders_nested() {
        let v = json!({"k": [1i64, 2], "empty": Vec::<i64>::new()});
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\"k\": [\n"));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn typed_round_trip() {
        let pairs: Vec<(String, i64)> = vec![("a".into(), 1), ("b".into(), 2)];
        let text = to_string(&pairs).unwrap();
        let back: Vec<(String, i64)> = from_str(&text).unwrap();
        assert_eq!(back, pairs);
    }
}
