//! A JSON tree with string-keyed objects. The serde shim encodes Rust
//! maps as pair lists, so dynamic-key objects (metric name → value) go
//! through this type, which maps one-to-one onto the shim's value tree.

use serde::{DeError, Deserialize, Serialize, Value};

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// An object from `(key, value)` pairs, in the order given.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn compact(&self) -> String {
        serde_json::to_string(self).expect("the shim's writer is infallible")
    }

    pub fn pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("the shim's writer is infallible")
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

impl Serialize for Json {
    fn to_value(&self) -> Value {
        match self {
            Json::Null => Value::Null,
            Json::Bool(b) => Value::Bool(*b),
            Json::Int(n) => Value::U64(*n),
            Json::Num(f) => Value::F64(*f),
            Json::Str(s) => Value::Str(s.clone()),
            Json::Arr(items) => Value::Seq(items.iter().map(Json::to_value).collect()),
            Json::Obj(fields) => Value::Map(
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_value()))
                    .collect(),
            ),
        }
    }
}

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(match v {
            Value::Null => Json::Null,
            Value::Bool(b) => Json::Bool(*b),
            Value::U64(n) => Json::Int(*n),
            Value::I64(n) => Json::Num(*n as f64),
            Value::F64(f) => Json::Num(*f),
            Value::Str(s) => Json::Str(s.clone()),
            Value::Seq(items) => Json::Arr(
                items
                    .iter()
                    .map(Json::from_value)
                    .collect::<Result<_, _>>()?,
            ),
            Value::Map(fields) => Json::Obj(
                fields
                    .iter()
                    .map(|(k, v)| Ok((k.clone(), Json::from_value(v)?)))
                    .collect::<Result<_, DeError>>()?,
            ),
        })
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Int(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Int(v as u64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_round_trip_with_their_keys() {
        let j = obj(vec![
            ("correct", true.into()),
            ("attempted", 1200usize.into()),
            (
                "metrics",
                obj(vec![("stmt_p50_us", obj(vec![("value", 12.5.into())]))]),
            ),
        ]);
        let text = j.compact();
        assert!(
            text.starts_with("{\"correct\":true,\"attempted\":1200,"),
            "{text}"
        );
        assert_eq!(Json::parse(&text).unwrap(), j);
        assert_eq!(Json::parse(&j.pretty()).unwrap(), j);
    }
}
