//! A minimal deterministic JSON writer.
//!
//! The crate is zero-dependency by design, so it encodes its own JSONL.
//! Formatting matches the workspace's vendored `serde_json`: floats use
//! Rust's shortest-round-trip `{:?}` with a forced `.0` on whole values,
//! so `1.0` never collapses to `1` and re-parsing recovers the exact
//! bits. Non-finite floats — which the flight recorder must be able to
//! record — become the JSON strings `"NaN"`, `"inf"`, `"-inf"` (JSON has
//! no literal for them).

/// Appends `s` as a JSON string literal (with quotes) to `out`.
pub fn write_str(out: &mut String, s: &str) {
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

/// Appends a float to `out`: shortest round-trip form for finite values
/// (forcing a `.0` on whole numbers), JSON strings for non-finite ones.
pub(crate) fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let s = format!("{x:?}");
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else if x.is_nan() {
        out.push_str("\"NaN\"");
    } else if x > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

/// An in-progress JSON object, appended field by field.
#[derive(Debug, Default)]
pub struct Obj {
    buf: String,
    any: bool,
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, k: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        write_str(&mut self.buf, k);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        write_str(&mut self.buf, v);
        self
    }

    /// Adds an unsigned-integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Adds a float field: shortest round-trip form for finite values
    /// (forcing a `.0` on whole numbers), JSON strings for non-finite ones.
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        write_f64(&mut self.buf, v);
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a field whose value is already-encoded JSON.
    pub fn raw(mut self, k: &str, json: &str) -> Self {
        self.key(k);
        self.buf.push_str(json);
        self
    }

    /// Adds an array field of already-encoded JSON elements.
    pub fn raw_seq<'a, I: IntoIterator<Item = &'a str>>(mut self, k: &str, items: I) -> Self {
        self.key(k);
        self.buf.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push_str(item);
        }
        self.buf.push(']');
        self
    }

    /// Closes the object and returns the encoded text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Encodes a float slice as a JSON array.
pub fn f64_array(xs: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_f64(&mut out, x);
    }
    out.push(']');
    out
}

/// Encodes an unsigned-integer slice as a JSON array.
pub fn u64_array(xs: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&x.to_string());
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let mut s = String::new();
        write_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn floats_round_trip_and_whole_values_keep_a_point() {
        let mut s = String::new();
        write_f64(&mut s, 1.0);
        assert_eq!(s, "1.0");
        let mut s = String::new();
        write_f64(&mut s, 0.1);
        assert_eq!(s, "0.1");
        let mut s = String::new();
        write_f64(&mut s, 1e300);
        assert_eq!(s.parse::<f64>().unwrap(), 1e300);
    }

    #[test]
    fn non_finite_floats_become_strings() {
        for (x, want) in [
            (f64::NAN, "\"NaN\""),
            (f64::INFINITY, "\"inf\""),
            (f64::NEG_INFINITY, "\"-inf\""),
        ] {
            let mut s = String::new();
            write_f64(&mut s, x);
            assert_eq!(s, want);
        }
    }

    #[test]
    fn objects_compose() {
        let o = Obj::new()
            .str("a", "x")
            .u64("b", 3)
            .f64("c", 2.5)
            .bool("d", false)
            .raw_seq("e", ["1", "2"])
            .finish();
        assert_eq!(o, "{\"a\":\"x\",\"b\":3,\"c\":2.5,\"d\":false,\"e\":[1,2]}");
        assert_eq!(Obj::new().finish(), "{}");
    }

    #[test]
    fn arrays_encode() {
        assert_eq!(f64_array(&[1.0, 0.5]), "[1.0,0.5]");
        assert_eq!(u64_array(&[0, 7]), "[0,7]");
    }
}
