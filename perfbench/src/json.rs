//! A minimal ordered JSON object writer for the benchmark's output lines.

use std::fmt::Write as _;

/// An ordered JSON object under construction.
#[derive(Debug, Clone, Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

impl Obj {
    fn raw(&mut self, key: &str, value: String) -> &mut Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// A number, printed with all its digits; non-finite values become
    /// `null`.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.raw(key, number(value))
    }

    /// An array of numbers.
    pub fn nums(&mut self, key: &str, values: &[f64]) -> &mut Self {
        let items: Vec<String> = values.iter().map(|&v| number(v)).collect();
        self.raw(key, format!("[{}]", items.join(", ")))
    }

    /// A whole number.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, value.to_string())
    }

    /// A boolean.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.raw(key, value.to_string())
    }

    /// A string, escaped.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw(key, quote(value))
    }

    /// A nested object.
    pub fn obj(&mut self, key: &str, value: Obj) -> &mut Self {
        self.raw(key, value.render())
    }

    /// Appends every field of `other`.
    pub fn extend(&mut self, other: Obj) -> &mut Self {
        self.fields.extend(other.fields);
        self
    }

    /// The object as one line of JSON.
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {v}", quote(k));
        }
        out.push('}');
        out
    }
}

fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_ordered_escaped_json() {
        let mut inner = Obj::default();
        inner.num("value", 1.25).str("unit", "ms");
        let mut o = Obj::default();
        o.bool("correct", true)
            .int("attempted", 3)
            .num("nan", f64::NAN)
            .str("s", "a\"b\\\n")
            .obj("m", inner)
            .nums("a", &[1.0, 0.5]);
        assert_eq!(
            o.render(),
            r#"{"correct": true, "attempted": 3, "nan": null, "s": "a\"b\\\u000a", "m": {"value": 1.25, "unit": "ms"}, "a": [1, 0.5]}"#
        );
    }
}
