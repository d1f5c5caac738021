//! Offline stand-in for the subset of `serde` this workspace uses.
//!
//! The build environment has no crates.io access, so the workspace
//! vendors API-compatible shims (see `shims/README.md`). Real serde is a
//! zero-overhead streaming framework; this shim instead funnels every
//! type through an owned [`Value`] tree — dramatically simpler, and fast
//! enough for the snapshot/persistence paths that use it here.
//!
//! Data model notes:
//! - Maps are `BTreeMap`s only, written as sequences of `[key, value]`
//!   pairs in key order, so non-string keys (tuples, …) work and the
//!   output is deterministic.
//! - Enums use serde's externally-tagged form: unit variants are strings,
//!   data variants are single-entry maps.
//! - Non-finite floats serialize as `null` (as `serde_json` does) and
//!   fail loudly on deserialization rather than silently corrupting.
//!
//! The derives cover non-generic structs and enums of every field shape:
//!
//! ```
//! use serde::{Deserialize, Serialize, Value};
//!
//! #[derive(Debug, PartialEq, Serialize, Deserialize)]
//! enum Shape {
//!     Unit,
//!     Pair(u64, f64),
//!     Named { label: String },
//! }
//!
//! #[derive(Debug, PartialEq, Serialize, Deserialize)]
//! struct Scene {
//!     shapes: Vec<Shape>,
//!     scale: Option<f64>,
//! }
//!
//! let scene = Scene {
//!     shapes: vec![Shape::Unit, Shape::Pair(2, 0.5), Shape::Named { label: "a".into() }],
//!     scale: None,
//! };
//! assert_eq!(Scene::from_value(&scene.to_value()).unwrap(), scene);
//! assert_eq!(Shape::Unit.to_value(), Value::Str("Unit".into()));
//! ```
//!
//! A generic type, or any `#[serde(...)]` attribute, is a compile error
//! that names the type:
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! struct Wrapper<T>(T);
//! ```
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! struct Cached {
//!     #[serde(skip)]
//!     memo: u64,
//! }
//! ```

use std::borrow::Cow;
use std::collections::BTreeMap;

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing tree value — the interchange format every
/// `Serialize`/`Deserialize` impl goes through.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Seq(Vec<Value>),
    /// String-keyed map (struct fields, enum tags); preserves insertion
    /// order.
    Map(Vec<(String, Value)>),
}

/// Deserialization error: a human-readable path/expectation message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    pub fn msg(m: impl Into<String>) -> Self {
        Self(m.into())
    }

    pub fn expected(what: &str, got: &Value) -> Self {
        Self(format!("expected {what}, got {got:?}"))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Converts a value of this type to the interchange [`Value`] tree.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// Reconstructs a value of this type from an interchange [`Value`] tree.
pub trait Deserialize: Sized {
    /// # Errors
    ///
    /// Shape or domain mismatch between the tree and this type.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

/// Looks up a struct field by name in a map's entries (derive-macro
/// helper). A missing field deserializes from `Null`, which succeeds for
/// `Option` fields and errors (with the field name) for everything else.
///
/// # Errors
///
/// Missing non-optional field, or a field-level shape mismatch.
pub fn field<T: Deserialize>(entries: &[(String, Value)], name: &str) -> Result<T, DeError> {
    match entries.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_value(v).map_err(|e| DeError(format!("field `{name}`: {}", e.0))),
        None => T::from_value(&Value::Null).map_err(|_| DeError(format!("missing field `{name}`"))),
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", other)),
        }
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(u64::from(*self))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let wide = match v {
                    Value::U64(n) => *n,
                    Value::I64(n) if *n >= 0 => *n as u64,
                    Value::F64(f) if f.fract() == 0.0 && *f >= 0.0 && *f <= u64::MAX as f64 => {
                        *f as u64
                    }
                    other => return Err(DeError::expected("unsigned integer", other)),
                };
                <$t>::try_from(wide)
                    .map_err(|_| DeError::msg(format!("integer {wide} out of range")))
            }
        }
    )*};
}

impl_unsigned!(u8, u32, u64);

impl Serialize for usize {
    fn to_value(&self) -> Value {
        Value::U64(*self as u64)
    }
}

impl Deserialize for usize {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        u64::from_value(v).and_then(|n| {
            usize::try_from(n).map_err(|_| DeError::msg(format!("integer {n} out of range")))
        })
    }
}

impl Serialize for i64 {
    fn to_value(&self) -> Value {
        Value::I64(*self)
    }
}

impl Deserialize for i64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::I64(n) => Ok(*n),
            Value::U64(n) if *n <= i64::MAX as u64 => Ok(*n as i64),
            Value::F64(f) if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f <= i64::MAX as f64 => {
                Ok(*f as i64)
            }
            other => Err(DeError::expected("integer", other)),
        }
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::F64(f) => Ok(*f),
            Value::U64(n) => Ok(*n as f64),
            Value::I64(n) => Ok(*n as f64),
            other => Err(DeError::expected("number", other)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

/// Written as the string it holds, borrowed or owned alike.
impl Serialize for Cow<'_, str> {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", other)),
        }
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

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("sequence", other)),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Seq(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(items) if items.len() == 2 => {
                Ok((A::from_value(&items[0])?, B::from_value(&items[1])?))
            }
            other => Err(DeError::expected("tuple sequence", other)),
        }
    }
}

/// A map is its `[key, value]` pair sequence, in key order.
impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Seq(
            self.iter()
                .map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(items) => items.iter().map(<(K, V)>::from_value).collect(),
            other => Err(DeError::expected("map pair sequence", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-5i64).to_value()).unwrap(), -5);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        let v: Vec<f64> = Vec::from_value(&vec![1.0, 2.0].to_value()).unwrap();
        assert_eq!(v, vec![1.0, 2.0]);
    }

    #[test]
    fn maps_round_trip_with_non_string_keys() {
        let mut m: BTreeMap<(u64, u64), f64> = BTreeMap::new();
        m.insert((1, 2), 3.5);
        m.insert((4, 5), -1.0);
        let back: BTreeMap<(u64, u64), f64> = BTreeMap::from_value(&m.to_value()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn map_output_is_canonical() {
        let mut a: BTreeMap<u64, u64> = BTreeMap::new();
        let mut b: BTreeMap<u64, u64> = BTreeMap::new();
        for i in 0..64 {
            a.insert(i, i * 2);
        }
        for i in (0..64).rev() {
            b.insert(i, i * 2);
        }
        assert_eq!(a.to_value(), b.to_value());
        let pair = |k: u64, v: u64| Value::Seq(vec![Value::U64(k), Value::U64(v)]);
        let Value::Seq(pairs) = a.to_value() else {
            panic!("a map is a pair sequence");
        };
        assert_eq!(pairs[..2], [pair(0, 0), pair(1, 2)], "in key order");
    }

    #[test]
    fn missing_field_errors_unless_optional() {
        let entries = vec![("present".to_string(), Value::U64(1))];
        assert_eq!(field::<u64>(&entries, "present").unwrap(), 1);
        assert!(field::<u64>(&entries, "absent").is_err());
        assert_eq!(field::<Option<u64>>(&entries, "absent").unwrap(), None);
    }
}
