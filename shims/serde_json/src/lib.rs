//! Offline stand-in for `serde_json`, backed by the serde shim's
//! [`Value`] model: `to_string` / `to_string_pretty` render through
//! `Value`, and [`from_str`] is a strict recursive-descent JSON parser
//! into a `Value` tree. Output formatting matches serde_json's
//! conventions (compact and two-space pretty printing, floats always
//! carrying a decimal point).

#![forbid(unsafe_code)]

pub use serde::{Number, Value};
use std::fmt;

/// Parse error (rendering cannot fail; its `Result` is serde_json's
/// signature).
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

/// Serialize to compact JSON text.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(serde::json::write(&value.to_value(), false))
}

/// Serialize to pretty JSON text (two-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(serde::json::write(&value.to_value(), true))
}

/// Parse JSON text into a [`Value`] tree.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        src: s,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(Error::new(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    Ok(v)
}

/// Deepest nesting of arrays and objects accepted (serde_json's own
/// limit): the parser — and dropping the `Value` it builds — recurses
/// once per level, and input from a socket must not be able to choose
/// the stack depth.
const MAX_DEPTH: usize = 128;

/// `pos` is a byte offset into `src` and always on a char boundary:
/// everything but a string's contents is ASCII.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.src.as_bytes().get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
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
        if self.src[self.pos..].starts_with(kw) {
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
            // Copy the run up to the next quote, escape or control
            // character whole: all are ASCII, so the run ends on a char
            // boundary.
            let rest = &self.src[self.pos..];
            let run = rest
                .find(|c: char| c == '"' || c == '\\' || c < ' ')
                .ok_or_else(|| Error::new("unterminated string"))?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            match rest.as_bytes()[run] {
                b'"' => return Ok(out),
                b'\\' => {}
                c => {
                    return Err(Error::new(format!(
                        "raw control character {c:#04x} in a string"
                    )))
                }
            }
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
                    // A high surrogate and the low one escaped after it
                    // are one char; a surrogate alone is no char at all.
                    let mut code = self.hex4()?;
                    if (0xD800..0xDC00).contains(&code) && self.src[self.pos..].starts_with("\\u") {
                        self.pos += 2;
                        let low = self.hex4()?;
                        if (0xDC00..0xE000).contains(&low) {
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        }
                    }
                    let c = char::from_u32(code)
                        .ok_or_else(|| Error::new("lone surrogate in a \\u escape"))?;
                    out.push(c);
                }
                other => return Err(Error::new(format!("unknown escape `\\{}`", other as char))),
            }
        }
    }

    /// The four hex digits of a `\u` escape. `get` refuses a range that
    /// is short or splits a multibyte char, so neither can panic here.
    fn hex4(&mut self) -> Result<u32, Error> {
        let code = self
            .src
            .get(self.pos..self.pos + 4)
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| Error::new("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
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
        let text = &self.src[start..self.pos];
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
        let v = from_str(src).unwrap();
        assert_eq!(v["id"], "fig3");
        assert_eq!(v["rows"].as_array().unwrap().len(), 2);
        assert_eq!(to_string(&v).unwrap(), src);
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str(&nest(MAX_DEPTH)).is_ok());
        let deep = from_str(&nest(MAX_DEPTH + 1));
        assert!(deep.unwrap_err().to_string().contains("nesting deeper"));
        // Unclosed, mixed, and far past any stack: an error, not a crash.
        assert!(from_str(&"[{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str("{\"a\":}").is_err());
        assert!(from_str("[1,2").is_err());
        assert!(from_str("12 34").is_err());
        assert!(from_str("").is_err());
    }

    #[test]
    fn string_escapes() {
        let v = Value::String("line\n\"q\"\\".into());
        let s = to_string(&v).unwrap();
        assert_eq!(from_str(&s).unwrap(), v);
    }

    #[test]
    fn multibyte_strings() {
        let text = "é, 漢字, 🦀 and \u{7f}";
        let v = Value::String(text.into());
        assert_eq!(from_str(&to_string(&v).unwrap()).unwrap(), v);
        assert_eq!(from_str(r#""\u00e9🦀\n漢""#).unwrap(), "é🦀\n漢");
        assert_eq!(
            from_str(r#"{"ключ":["значение"]}"#).unwrap()["ключ"][0],
            "значение"
        );
    }

    #[test]
    fn a_short_or_split_unicode_escape_is_an_error() {
        // The four bytes after `\u` end inside a multibyte char, hold
        // one, or run past the input: each is an error, not a panic.
        for src in [
            r#""\u000é""#,
            r#""\u00é""#,
            r#""\u0é1""#,
            r#""\u12"#,
            r#""\u"#,
        ] {
            let err = from_str(src).unwrap_err().to_string();
            assert!(
                err.contains("escape") || err.contains("unterminated"),
                "{src}: {err}"
            );
        }
        assert!(from_str("\"é").is_err());
    }

    #[test]
    fn a_surrogate_pair_is_one_char() {
        assert_eq!(from_str(r#""\ud83e\udd80""#).unwrap(), "🦀");
        assert_eq!(from_str(r#""a\uD83D\uDE00b""#).unwrap(), "a😀b");
    }

    #[test]
    fn a_lone_surrogate_is_an_error() {
        for src in [
            r#""\ud83e""#,
            r#""\udd80""#,
            r#""\ud83ex""#,
            r#""\ud83e\u0041""#,
            r#""\ud83e\ud83e""#,
        ] {
            let err = from_str(src).unwrap_err().to_string();
            assert!(err.contains("surrogate"), "{src}: {err}");
        }
    }

    #[test]
    fn a_raw_control_character_is_an_error() {
        for src in ["\"a\u{1}b\"", "\"\n\"", "\"\u{1f}\""] {
            let err = from_str(src).unwrap_err().to_string();
            assert!(err.contains("control character"), "{src:?}: {err}");
        }
        assert_eq!(from_str(r#""\u0001""#).unwrap(), "\u{1}");
    }
}
