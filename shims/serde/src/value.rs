//! The JSON-compatible value tree used as the serialisation interchange
//! format, mirroring `serde_json::Value` closely enough for this workspace.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(Number),
    /// A string.
    String(String),
    /// An ordered sequence of values.
    Array(Vec<Value>),
    /// A string-keyed object.
    Object(Map<String, Value>),
}

impl Value {
    /// Returns the string slice if this is a `Value::String`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the elements if this is a `Value::Array`.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Returns the map if this is a `Value::Object`.
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    /// Numeric view as `f64` (any number variant).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// Indexes into an object by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|map| map.get(key))
    }
}

/// A JSON number: a non-negative integer, a negative integer, or a float.
#[derive(Debug, Clone, Copy)]
pub struct Number {
    repr: Repr,
}

#[derive(Debug, Clone, Copy)]
enum Repr {
    U64(u64),
    I64(i64),
    F64(f64),
}

impl Number {
    /// A number holding a non-negative integer.
    pub fn from_u64(n: u64) -> Self {
        Number { repr: Repr::U64(n) }
    }

    /// A number holding a signed integer (normalised to the unsigned repr when
    /// non-negative so `5i64` and `5u64` compare equal).
    pub fn from_i64(n: i64) -> Self {
        if n >= 0 {
            Number::from_u64(n as u64)
        } else {
            Number { repr: Repr::I64(n) }
        }
    }

    /// A number holding a float.
    pub fn from_f64(n: f64) -> Self {
        Number { repr: Repr::F64(n) }
    }

    /// The value as `f64`.
    pub fn as_f64(&self) -> f64 {
        match self.repr {
            Repr::U64(n) => n as f64,
            Repr::I64(n) => n as f64,
            Repr::F64(n) => n,
        }
    }

    /// Whether the number is finite (always true for the integer reprs).
    pub fn is_finite(&self) -> bool {
        match self.repr {
            Repr::F64(n) => n.is_finite(),
            _ => true,
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self.repr, other.repr) {
            (Repr::U64(a), Repr::U64(b)) => a == b,
            (Repr::I64(a), Repr::I64(b)) => a == b,
            (Repr::F64(a), Repr::F64(b)) => a == b,
            _ => self.as_f64() == other.as_f64(),
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.repr {
            Repr::U64(n) => write!(f, "{n}"),
            Repr::I64(n) => write!(f, "{n}"),
            // Rust's shortest round-trip float formatting; integral floats get
            // an explicit ".0" so they parse back as floats.
            Repr::F64(n) if !n.is_finite() => write!(f, "null"),
            Repr::F64(n) if n.fract() == 0.0 && n.abs() < 1e15 => write!(f, "{n:.1}"),
            Repr::F64(n) => write!(f, "{n}"),
        }
    }
}

/// An insertion-sorted (BTree-backed) string-keyed object map.
///
/// Generic over `K`/`V` purely so the `serde_json::Map<String, Value>` spelling
/// used by downstream code compiles; it is only ever used with those params.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map<K = String, V = Value>
where
    K: Ord,
{
    inner: BTreeMap<K, V>,
}

impl<K: Ord, V> Map<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Map {
            inner: BTreeMap::new(),
        }
    }

    /// Inserts a key/value pair, returning the previous value for the key.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.inner.insert(key, value)
    }

    /// Looks up a key.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.inner.get(key)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Iterates entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.inner.iter()
    }

    /// Iterates values in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.inner.values()
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for Map<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        Map {
            inner: iter.into_iter().collect(),
        }
    }
}

impl<K: Ord, V> IntoIterator for Map<K, V> {
    type Item = (K, V);
    type IntoIter = std::collections::btree_map::IntoIter<K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.into_iter()
    }
}

impl<'a, K: Ord, V> IntoIterator for &'a Map<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::collections::btree_map::Iter<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

// --- JSON rendering -------------------------------------------------------

fn escape_into(out: &mut String, s: &str) {
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
}

impl Value {
    /// Renders compact JSON into `out`.
    pub fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => out.push_str(&n.to_string()),
            Value::String(s) => escape_into(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Renders two-space-indented JSON into `out`.
    pub fn write_pretty(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let pad_in = "  ".repeat(indent + 1);
        match self {
            Value::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&pad_in);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&pad);
                out.push(']');
            }
            Value::Object(map) if !map.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&pad_in);
                    escape_into(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&pad);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_compact(&mut out);
        f.write_str(&out)
    }
}
