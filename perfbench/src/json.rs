//! The benchmark's reports: objects and arrays composed over the
//! workspace's JSON value (`serde::Value`, written by `serde_json`).

use std::fmt;

use serde::{Serialize, Value};

#[derive(Debug, Clone)]
pub struct Json(Value);

impl Json {
    pub fn obj() -> Json {
        Json(Value::Object(Vec::new()))
    }

    pub fn arr(items: Vec<Json>) -> Json {
        Json(Value::Array(items.into_iter().map(|j| j.0).collect()))
    }

    /// Appends a key to an object (no-op on arrays).
    pub fn set(&mut self, key: impl Into<String>, value: impl Serialize) -> &mut Json {
        if let Value::Object(fields) = &mut self.0 {
            fields.push((key.into(), value.to_value()));
        }
        self
    }

    pub fn with(mut self, key: impl Into<String>, value: impl Serialize) -> Json {
        self.set(key, value);
        self
    }
}

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Numbers print as the shortest string that reads back as the same
/// f64: every digit the measurement has.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&serde_json::to_string(self).map_err(|_| fmt::Error)?)
    }
}
