//! Offline stand-in for `serde`.
//!
//! The build environment has no crates.io access, so this workspace-local
//! crate supplies what the SmartWatch workspace needs to write JSON: a
//! self-describing [`Value`] model, which the `serde_json` shim renders to
//! and parses from JSON text, and a [`Serialize`] trait that converts
//! primitives, strings, options, sequences and hand-written impls into it.
//!
//! Unlike real serde there is no generic `Serializer` plumbing, no derive
//! and no typed deserialization: every document is built as a [`Value`]
//! tree, and objects are ordered key/value vectors, so a tree's key order
//! is the order its builder wrote them in.

#![forbid(unsafe_code)]

use std::fmt;

/// A JSON-shaped self-describing value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number.
    Number(Number),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object; insertion-ordered (keys keep the order their
    /// builder wrote them in).
    Object(Vec<(String, Value)>),
}

/// Exact-width JSON number: unsigned, signed, or floating.
#[derive(Clone, Copy, Debug)]
pub enum Number {
    /// Non-negative integer.
    U(u64),
    /// Negative integer.
    I(i64),
    /// Floating point.
    F(f64),
}

impl PartialEq for Number {
    fn eq(&self, other: &Number) -> bool {
        match (self.as_i128(), other.as_i128()) {
            (Some(a), Some(b)) => a == b,
            _ => self.as_f64() == other.as_f64(),
        }
    }
}

impl Number {
    fn as_i128(self) -> Option<i128> {
        match self {
            Number::U(u) => Some(i128::from(u)),
            Number::I(i) => Some(i128::from(i)),
            Number::F(_) => None,
        }
    }

    /// Lossy float view.
    pub fn as_f64(self) -> f64 {
        match self {
            Number::U(u) => u as f64,
            Number::I(i) => i as f64,
            Number::F(f) => f,
        }
    }
}

impl Value {
    /// Borrow as an array, if this is one.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as a string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as an object (ordered key/value pairs), if this is one.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Numeric view as `u64`, if losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::U(u)) => Some(*u),
            Value::Number(Number::I(i)) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// Numeric view as `i64`, if losslessly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(Number::I(i)) => Some(*i),
            Value::Number(Number::U(u)) if *u <= i64::MAX as u64 => Some(*u as i64),
            _ => None,
        }
    }

    /// Numeric view as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// True for JSON `null` (serde_json parity).
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Object member lookup (`None` on non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        self.as_array().and_then(|a| a.get(idx)).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<Value> for &str {
    fn eq(&self, other: &Value) -> bool {
        other.as_str() == Some(*self)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::json::write(self, false))
    }
}

/// Serialize into the [`Value`] model.
pub trait Serialize {
    /// Convert to a self-describing value.
    fn to_value(&self) -> Value;
}

// ---------------------------------------------------------------------------
// Primitive / std impls.
// ---------------------------------------------------------------------------

impl Serialize for u64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::U(*self))
    }
}

impl Serialize for usize {
    fn to_value(&self) -> Value {
        Value::Number(Number::U(*self as u64))
    }
}

impl Serialize for i64 {
    fn to_value(&self) -> Value {
        Value::Number(if *self >= 0 {
            Number::U(*self as u64)
        } else {
            Number::I(*self)
        })
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::F(*self))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

/// JSON text rendering for [`Value`] (used by the serde_json shim).
pub mod json {
    use super::{Number, Value};

    /// Render a value as JSON, optionally pretty-printed with two-space
    /// indent (serde_json's pretty style).
    pub fn write(v: &Value, pretty: bool) -> String {
        let mut out = String::new();
        go(v, pretty, 0, &mut out);
        out
    }

    fn go(v: &Value, pretty: bool, depth: usize, out: &mut String) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write_number(*n, out),
            Value::String(s) => write_string(s, out),
            Value::Array(a) => {
                if a.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(pretty, depth + 1, out);
                    go(item, pretty, depth + 1, out);
                }
                newline_indent(pretty, depth, out);
                out.push(']');
            }
            Value::Object(o) => {
                if o.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, item)) in o.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(pretty, depth + 1, out);
                    write_string(k, out);
                    out.push(':');
                    if pretty {
                        out.push(' ');
                    }
                    go(item, pretty, depth + 1, out);
                }
                newline_indent(pretty, depth, out);
                out.push('}');
            }
        }
    }

    fn newline_indent(pretty: bool, depth: usize, out: &mut String) {
        if pretty {
            out.push('\n');
            for _ in 0..depth {
                out.push_str("  ");
            }
        }
    }

    fn write_number(n: Number, out: &mut String) {
        match n {
            Number::U(u) => out.push_str(&u.to_string()),
            Number::I(i) => out.push_str(&i.to_string()),
            Number::F(f) => {
                if !f.is_finite() {
                    out.push_str("null"); // serde_json behaviour
                } else if f == f.trunc() && f.abs() < 1e16 {
                    out.push_str(&format!("{f:.1}"));
                } else {
                    out.push_str(&format!("{f}"));
                }
            }
        }
    }

    fn write_string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors_and_indexing() {
        let v = Value::Object(vec![
            ("id".into(), Value::String("fig3".into())),
            (
                "rows".into(),
                Value::Array(vec![Value::Number(Number::U(1))]),
            ),
        ]);
        assert_eq!(v["id"], "fig3");
        assert!(v["rows"].as_array().map(|r| !r.is_empty()).unwrap_or(false));
        assert_eq!(v["rows"][0].as_u64(), Some(1));
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn primitives_and_options_serialize() {
        assert_eq!(3u64.to_value(), Value::Number(Number::U(3)));
        assert_eq!((-4i64).to_value(), Value::Number(Number::I(-4)));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("hi".to_value(), "hi");
        assert_eq!(Some(2.5f64).to_value(), Value::Number(Number::F(2.5)));
        assert_eq!(None::<usize>.to_value(), Value::Null);
        assert_eq!(
            vec![1usize, 2].to_value(),
            Value::Array(vec![
                Value::Number(Number::U(1)),
                Value::Number(Number::U(2))
            ])
        );
    }

    #[test]
    fn json_writer_shapes() {
        let v = Value::Object(vec![
            ("a".into(), Value::Number(Number::F(1.0))),
            ("b".into(), Value::Array(vec![])),
        ]);
        assert_eq!(json::write(&v, false), "{\"a\":1.0,\"b\":[]}");
        assert!(json::write(&v, true).contains("\n  \"a\": 1.0"));
    }
}
