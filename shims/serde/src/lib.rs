//! Offline stand-in for the `serde` crate.
//!
//! The build environment of this repository has no access to crates.io, so the
//! workspace vendors a minimal serialisation framework with the same *surface*
//! as the subset of serde the simulator uses:
//!
//! * `#[derive(Serialize)]` on structs and enums (including the
//!   `#[serde(transparent)]` newtype attribute),
//! * implementations for the primitive types, `String`, `str`, references,
//!   `Vec`, slices and `BTreeMap`,
//! * a JSON-compatible [`value::Value`] data model that `serde_json` (also
//!   vendored) renders and parses.
//!
//! Serialisation only: the workspace writes one typed report (the control-plane
//! simulation's `SimReport`) and reads JSON back only as an untyped `Value`, so
//! nothing is deserialised into a typed value. Unlike real serde there is no
//! visitor machinery: serialisation goes through an intermediate
//! [`value::Value`] tree.

#![forbid(unsafe_code)]

pub mod value;

pub use serde_derive::Serialize;

use std::collections::BTreeMap;

use value::{Number, Value};

/// A type that can be turned into a JSON-compatible [`Value`] tree.
///
/// This is the shim's analogue of `serde::Serialize`; the derive macro
/// implements it field-by-field.
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn to_value(&self) -> Value;
}

macro_rules! impl_ser_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::from_u64(*self as u64))
            }
        }
    )*};
}
impl_ser_unsigned!(u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::from_f64(*self))
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

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

// Maps serialise as an array of `[key, value]` pairs. JSON objects only allow
// string keys while the simulator keys maps by id newtypes; the pair encoding
// writes every key type uniformly.
impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Array(
            self.iter()
                .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}
