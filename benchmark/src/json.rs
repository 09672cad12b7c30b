//! Shorthand for building `serde_json::Value`s.

use serde_json::Value;

/// An object with `fields` in the given order.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

pub fn count(n: usize) -> Value {
    Value::Number(n as f64)
}
