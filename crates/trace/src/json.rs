//! Minimal hand-rolled JSON serializer (the workspace builds offline with
//! no serde). Shared by the Chrome-trace exporter and the figure binaries'
//! `--json` output.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (serialized as `null` when not finite).
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object: insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
    /// Pre-rendered JSON spliced in verbatim (the caller guarantees it is
    /// well-formed — used to carry rows forward across `--resume` runs
    /// without a full parser).
    Raw(String),
}

impl Json {
    /// Convenience: build an object from pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serialize into `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let mut buf = [0u8; 20];
                out.push_str(fmt_u64(*v, &mut buf));
            }
            Json::I64(v) => {
                use std::fmt::Write as _;
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                use std::fmt::Write as _;
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
            Json::Raw(s) => out.push_str(s),
        }
    }

    /// Serialize to a fresh string.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

fn fmt_u64(mut v: u64, buf: &mut [u8; 20]) -> &str {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[i..]).expect("digits are ascii")
}

/// Append `s` as a quoted, escaped JSON string.
fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U64(18_446_744_073_709_551_615).render(), "18446744073709551615");
        assert_eq!(Json::I64(-3).render(), "-3");
        assert_eq!(Json::F64(1.5).render(), "1.5");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
    }

    #[test]
    fn escaping() {
        assert_eq!(Json::Str("a\"b\\c\n".to_string()).render(), r#""a\"b\\c\n""#);
        assert_eq!(Json::Str("\u{1}".to_string()).render(), "\"\\u0001\"");
    }

    #[test]
    fn raw_splices_verbatim() {
        let j = Json::Arr(vec![Json::Raw(r#"{"kept":1}"#.to_string()), Json::U64(2)]);
        assert_eq!(j.render(), r#"[{"kept":1},2]"#);
    }

    #[test]
    fn nesting() {
        let j = Json::obj([
            ("name", Json::from("suv")),
            ("xs", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
            ("nested", Json::obj([("ok", Json::Bool(true))])),
        ]);
        assert_eq!(j.render(), r#"{"name":"suv","xs":[1,2],"nested":{"ok":true}}"#);
    }
}
