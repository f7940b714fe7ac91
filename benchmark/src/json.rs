//! A JSON reader for the three documents the benchmark reads back: its
//! own result files (`--compare`, and the parent collecting a child's
//! result line) and `BENCHMARK.json`. The workspace vendors a JSON writer
//! (`suv::trace::Json`) but no reader, so this parses into that type.

use suv::trace::Json;

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { s: text.as_bytes(), at: 0 };
    let v = p.value()?;
    p.ws();
    if p.at != p.s.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Member `key` of an object (`None` for a missing key or a non-object).
pub fn get<'a>(v: &'a Json, key: &str) -> Option<&'a Json> {
    match v {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Any JSON number as `f64`.
pub fn as_f64(v: &Json) -> Option<f64> {
    match v {
        Json::U64(n) => Some(*n as f64),
        Json::I64(n) => Some(*n as f64),
        Json::F64(n) => Some(*n),
        _ => None,
    }
}

pub fn as_str(v: &Json) -> Option<&str> {
    match v {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

#[cfg(test)]
pub fn as_arr(v: &Json) -> Option<&[Json]> {
    match v {
        Json::Arr(items) => Some(items),
        _ => None,
    }
}

pub fn as_obj(v: &Json) -> Option<&[(String, Json)]> {
    match v {
        Json::Obj(pairs) => Some(pairs),
        _ => None,
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.at)
    }

    fn ws(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.at..].starts_with(lit.as_bytes());
        if hit {
            self.at += lit.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.at) {
            None => Err(self.err("unexpected end")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => self.number(),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.at += 1;
        let mut pairs = Vec::new();
        self.ws();
        if self.eat("}") {
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.ws();
            if self.s.get(self.at) != Some(&b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.ws();
            if !self.eat(":") {
                return Err(self.err("expected ':'"));
            }
            pairs.push((key, self.value()?));
            self.ws();
            if self.eat("}") {
                return Ok(Json::Obj(pairs));
            }
            if !self.eat(",") {
                return Err(self.err("expected ',' or '}'"));
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.at += 1;
        let mut items = Vec::new();
        self.ws();
        if self.eat("]") {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            if self.eat("]") {
                return Ok(Json::Arr(items));
            }
            if !self.eat(",") {
                return Err(self.err("expected ',' or ']'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.at += 1;
        let mut out = Vec::new();
        loop {
            let c = *self.s.get(self.at).ok_or_else(|| self.err("unterminated string"))?;
            self.at += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    let e = *self.s.get(self.at).ok_or_else(|| self.err("dangling escape"))?;
                    self.at += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.at += 4;
                            // Surrogate pairs never occur in the documents
                            // this reads; a lone one becomes U+FFFD.
                            let ch = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => out.push(c),
            }
        }
        String::from_utf8(out).map_err(|_| self.err("string is not UTF-8"))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .s
            .get(self.at)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.at]).expect("ASCII by construction");
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::U64(n));
        }
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Json::I64(n));
        }
        text.parse::<f64>().map(Json::F64).map_err(|_| self.err("expected a value"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_what_the_writer_renders() {
        let doc = Json::obj([
            ("name", Json::from("a \"quoted\" \\ line\n")),
            ("n", Json::U64(42)),
            ("neg", Json::I64(-7)),
            ("x", Json::F64(1.25e-3)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("list", Json::Arr(vec![Json::U64(1), Json::obj([("k", Json::from("v"))])])),
        ]);
        assert_eq!(parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn accessors_and_whitespace() {
        let v = parse(" { \"a\" : [ 1 , 2.5 ] , \"s\" : \"\\u0041\" } ").unwrap();
        let a = as_arr(get(&v, "a").unwrap()).unwrap();
        assert_eq!(as_f64(&a[0]), Some(1.0));
        assert_eq!(as_f64(&a[1]), Some(2.5));
        assert_eq!(as_str(get(&v, "s").unwrap()), Some("A"));
        assert!(get(&v, "missing").is_none());
        assert_eq!(as_obj(&v).unwrap().len(), 2);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "{\"a\":1} x", "\"open", "nul", "{1:2}"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
