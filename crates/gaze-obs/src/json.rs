//! Tiny hand-rolled JSON emission (the workspace is dependency-free, so
//! no serde), shared by `gaze-serve`'s responses and `gaze-lint --json`.
//!
//! Only what those emit is implemented: escaped strings, `u64`s,
//! finite floats, and object/array builders. Numbers are formatted so a
//! round-trip through any JSON parser preserves them: integers verbatim,
//! floats with enough precision (`{:?}`, Rust's shortest round-trip
//! rendering), and non-finite floats as `null` (JSON has no NaN).

use std::fmt::Write;

/// Escapes `s` as a JSON string literal, including the surrounding
/// quotes.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("write to string");
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float as a JSON value (`null` for NaN/inf).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// An object under construction.
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<String>,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    /// Adds a string field.
    pub fn string(mut self, key: &str, value: &str) -> Self {
        self.fields
            .push(format!("{}:{}", json_string(key), json_string(value)));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.fields.push(format!("{}:{value}", json_string(key)));
        self
    }

    /// Adds a float field (`null` when not finite).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.fields
            .push(format!("{}:{}", json_string(key), json_f64(value)));
        self
    }

    /// Adds a pre-rendered JSON value (object, array, ...).
    pub fn raw(mut self, key: &str, value: String) -> Self {
        self.fields.push(format!("{}:{value}", json_string(key)));
        self
    }

    /// Renders the object.
    pub fn build(self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

/// Renders a JSON array from pre-rendered element values.
pub fn json_array(elements: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = elements.into_iter().collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("line\nbreak"), "\"line\\nbreak\"");
        assert_eq!(json_string("ctrl\u{1}"), "\"ctrl\\u0001\"");
    }

    #[test]
    fn floats_round_trip_or_null() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        // Shortest round-trip rendering keeps full precision.
        let v = 0.1 + 0.2;
        assert_eq!(json_f64(v).parse::<f64>().unwrap(), v);
    }

    #[test]
    fn objects_and_arrays_compose() {
        let obj = JsonObject::new()
            .string("name", "gaze")
            .u64("rows", 3)
            .f64("speedup", 1.25)
            .raw("list", json_array(["1".to_string(), "2".to_string()]))
            .build();
        assert_eq!(
            obj,
            "{\"name\":\"gaze\",\"rows\":3,\"speedup\":1.25,\"list\":[1,2]}"
        );
        assert_eq!(json_array(Vec::new()), "[]");
    }
}
