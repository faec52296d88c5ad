//! Offline stand-in for `serde_json`, backed by the serde shim's
//! [`Value`] model: `to_string` / `to_string_pretty` / `to_value` render
//! through `Value`, and [`from_str`] is a strict recursive-descent JSON
//! parser. Output formatting matches serde_json's conventions (compact and
//! two-space pretty printing, floats always carrying a decimal point).

#![forbid(unsafe_code)]

pub use serde::{Number, Value};
use std::fmt;

/// Serialization / deserialization error.
#[derive(Clone, Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Error {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Error {
        Error::new(e.to_string())
    }
}

/// Serialize to compact JSON text.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(serde::json::write(&value.to_value(), false))
}

/// Serialize to pretty JSON text (two-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(serde::json::write(&value.to_value(), true))
}

/// Convert any serializable value into a [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Reconstruct a typed value from a [`Value`] tree.
pub fn from_value<T: serde::Deserialize>(value: Value) -> Result<T, Error> {
    Ok(T::from_value(&value)?)
}

/// Parse JSON text into any deserializable type.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    Ok(T::from_value(&v)?)
}

/// Deepest nesting of arrays and objects accepted (serde_json's own
/// limit): the parser — and dropping the `Value` it builds — recurses
/// once per level, and input from a socket or a watched file must not
/// be able to choose the stack depth.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{kw}` at offset {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => {
                self.eat_keyword("null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.eat_keyword("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.eat_keyword("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(Error::new(format!(
                "unexpected character `{}` at offset {}",
                c as char, self.pos
            ))),
            None => Err(Error::new("unexpected end of input")),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(items));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            items.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to U+FFFD like serde_json's
                            // lossy path.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(Error::new(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(Error::new(format!("invalid number at offset {start}")));
        }
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::U(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::I(i)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Number(Number::F(f)))
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_value() {
        let src = r#"{"id":"fig3","rows":[[1,2.5],[3,-4]],"ok":true,"none":null}"#;
        let v: Value = from_str(src).unwrap();
        assert_eq!(v["id"], "fig3");
        assert_eq!(v["rows"].as_array().unwrap().len(), 2);
        assert_eq!(to_string(&v).unwrap(), src);
    }

    #[test]
    fn typed_round_trip() {
        let data: Vec<(u64, Vec<String>)> =
            vec![(1, vec!["a".into()]), (2, vec!["b".into(), "c".into()])];
        let s = to_string(&data).unwrap();
        let back: Vec<(u64, Vec<String>)> = from_str(&s).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str::<Value>(&nest(MAX_DEPTH)).is_ok());
        let deep = from_str::<Value>(&nest(MAX_DEPTH + 1));
        assert!(deep.unwrap_err().to_string().contains("nesting deeper"));
        // Unclosed, mixed, and far past any stack: an error, not a crash.
        assert!(from_str::<Value>(&"[{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("{\"a\":}").is_err());
        assert!(from_str::<Value>("[1,2").is_err());
        assert!(from_str::<Value>("12 34").is_err());
        assert!(from_str::<Value>("").is_err());
    }

    #[test]
    fn string_escapes() {
        let v = Value::String("line\n\"q\"\\".into());
        let s = to_string(&v).unwrap();
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, v);
    }
}
