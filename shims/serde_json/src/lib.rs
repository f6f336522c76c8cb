//! Offline stand-in for `serde_json`: renders the serde shim's [`Value`]
//! tree to JSON text (compact or pretty, insertion-ordered, deterministic)
//! and parses JSON text back into a [`Value`] for round-trip validation.
//!
//! Numbers: integers stay exact (`u64`/`i64`); floats print with Rust's
//! shortest round-trip formatting; non-finite floats become `null` (JSON
//! has no NaN/Infinity).

#![forbid(unsafe_code)]

use serde::Serialize;
pub use serde::Value;

/// Serialize to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(v: &T) -> String {
    let mut out = String::new();
    write_value(&v.to_value(), &mut out, None, 0);
    out
}

/// Serialize to pretty JSON (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(v: &T) -> String {
    let mut out = String::new();
    write_value(&v.to_value(), &mut out, Some(2), 0);
    out
}

/// Lower a serializable value to its [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(v: &T) -> Value {
    v.to_value()
}

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(n) => {
            if n.is_finite() {
                // `{}` on f64 is Rust's shortest round-trip form, but it
                // drops the decimal point on integral values ("3"), which
                // would re-parse as an integer; keep floats floats.
                let s = format!("{n}");
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_escaped(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            if !items.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, out, indent, depth + 1);
            }
            if !fields.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// What went wrong.
    pub msg: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for Error {}

/// Parse a JSON document into a [`Value`].
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser { src: s, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 256;

/// A cursor over the document. `pos` is a byte offset that only ever
/// steps over ASCII or over a whole run of a string's characters, so it
/// always sits on a character boundary.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error {
            msg: msg.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let n = u32::from_str_radix(hex, 16).expect("four hex digits");
                            // Surrogate pairs are not reconstructed (the
                            // writer never emits them); lone surrogates
                            // become the replacement character.
                            out.push(char::from_u32(n).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash
                    // whole: both are ASCII, so the run ends on a
                    // character boundary and is valid UTF-8 already.
                    let rest = &self.src[self.pos..];
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    /// The run of number characters, read as an integer when it has no
    /// fraction or exponent and as a float otherwise; a malformed run
    /// ("1-2", "1e", "-") is an error, not a shorter number.
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_compact() {
        let v = Value::obj([
            ("name", Value::Str("fig8".into())),
            ("count", Value::U64(3)),
            ("t", Value::F64(1.25)),
            ("neg", Value::I64(-4)),
            (
                "rows",
                Value::arr([Value::Bool(true), Value::Null, Value::F64(2.0)]),
            ),
        ]);
        let s = to_string(&v);
        assert_eq!(from_str(&s).unwrap(), v);
    }

    #[test]
    fn round_trip_pretty() {
        let v = Value::obj([("a", Value::arr([Value::U64(1), Value::U64(2)]))]);
        let s = to_string_pretty(&v);
        assert!(s.contains('\n'));
        assert_eq!(from_str(&s).unwrap(), v);
    }

    #[test]
    fn integral_float_stays_float() {
        let s = to_string(&Value::F64(3.0));
        assert_eq!(s, "3.0");
        assert_eq!(from_str(&s).unwrap(), Value::F64(3.0));
    }

    #[test]
    fn float_precision_survives() {
        for x in [1.0e-9, 0.1 + 0.2, f64::MAX, 5.0e-324] {
            let s = to_string(&Value::F64(x));
            assert_eq!(from_str(&s).unwrap().as_f64(), Some(x), "{s}");
        }
    }

    #[test]
    fn big_u64_exact() {
        let n = u64::MAX;
        let s = to_string(&Value::U64(n));
        assert_eq!(from_str(&s).unwrap().as_u64(), Some(n));
    }

    #[test]
    fn escapes() {
        let v = Value::Str("a\"b\\c\nd\té".into());
        assert_eq!(from_str(&to_string(&v)).unwrap(), v);
        assert_eq!(
            from_str("\"\\u0041\\u00e9\"").unwrap(),
            Value::Str("Aé".into())
        );
    }

    #[test]
    fn non_finite_becomes_null() {
        assert_eq!(to_string(&Value::F64(f64::NAN)), "null");
        assert_eq!(to_string(&Value::F64(f64::INFINITY)), "null");
    }

    #[test]
    fn parse_errors() {
        assert!(from_str("").is_err());
        assert!(from_str("{\"a\":}").is_err());
        assert!(from_str("[1,2,]").is_err());
        assert!(from_str("[1] junk").is_err());
        assert!(from_str("\"open").is_err());
    }

    /// A string costs time in its own length, not in the length of the
    /// document after it.
    #[test]
    fn a_long_string_parses_in_linear_time() {
        let long = "é-ü/".repeat(256 * 1024 / 6);
        let doc = to_string(&Value::arr([Value::Str(long.clone()), Value::U64(7)]));
        let start = std::time::Instant::now();
        let v = from_str(&doc).unwrap();
        let took = start.elapsed();
        assert_eq!(v, Value::arr([Value::Str(long), Value::U64(7)]));
        assert!(took.as_secs_f64() < 1.0, "took {took:?}");
    }

    #[test]
    fn whitespace_tolerated() {
        let v = from_str(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1].as_u64(), Some(2));
        assert_eq!(v.get("b"), Some(&Value::Null));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(to_string(&Value::Arr(vec![])), "[]");
        assert_eq!(to_string(&Value::Obj(vec![])), "{}");
        assert_eq!(from_str("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(from_str("{}").unwrap(), Value::Obj(vec![]));
    }
}
