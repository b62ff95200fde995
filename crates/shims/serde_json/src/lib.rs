//! Offline JSON shim: renders and parses the `serde` shim's
//! [`Value`] tree. Covers the workspace's needs —
//! `to_string`, `to_string_pretty`, `from_str` — with exact `f64`
//! round-tripping (shortest-representation formatting).

#![warn(missing_docs)]

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// JSON (de)serialization error.
#[derive(Clone, Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// Serialises a value to compact JSON.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialises a value to 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses a value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let v = parse_value(s)?;
    Ok(T::from_value(&v)?)
}

/// Parses JSON text into a raw [`Value`] tree.
pub fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing data at byte {}", p.pos)));
    }
    Ok(v)
}

// --- writer -------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(x) => write_number(out, *x),
        Value::Str(s) => write_string(out, s),
        Value::Arr(a) => write_seq(out, a.iter(), indent, depth, ('[', ']'), |out, e, i, d| {
            write_value(out, e, i, d)
        }),
        Value::Obj(o) => write_seq(
            out,
            o.iter(),
            indent,
            depth,
            ('{', '}'),
            |out, (k, e), i, d| {
                write_string(out, k);
                out.push(':');
                if i.is_some() {
                    out.push(' ');
                }
                write_value(out, e, i, d);
            },
        ),
    }
}

fn write_seq<T>(
    out: &mut String,
    items: impl ExactSizeIterator<Item = T>,
    indent: Option<usize>,
    depth: usize,
    brackets: (char, char),
    mut write_item: impl FnMut(&mut String, T, Option<usize>, usize),
) {
    out.push(brackets.0);
    let n = items.len();
    for (i, item) in items.enumerate() {
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        write_item(out, item, indent, depth + 1);
        if i + 1 < n {
            out.push(',');
        }
    }
    if n > 0 {
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * depth));
        }
    }
    out.push(brackets.1);
}

fn write_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        out.push_str(&format!("{}", x as i64));
    } else {
        // `{:?}` is Rust's shortest round-trip representation.
        out.push_str(&format!("{x:?}"));
    }
}

fn write_string(out: &mut String, s: &str) {
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

// --- parser -------------------------------------------------------------

struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes.
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.literal("null") => Ok(Value::Null),
            Some(b't') if self.literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut a = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(a));
                }
                loop {
                    self.skip_ws();
                    a.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(a));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut o = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(o));
                }
                loop {
                    self.skip_ws();
                    let k = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let v = self.value()?;
                    o.push((k, v));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(o));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
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
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of plain characters up to the next
                    // quote or backslash as one slice. Both are ASCII,
                    // so the run ends on a character boundary.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |run| self.pos + run);
                    let run = self
                        .text
                        .get(self.pos..end)
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = self.text.get(start..self.pos).unwrap_or_default();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| Error(format!("bad number `{text}` at byte {start}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Num(1.5),
            Value::Num(-3.0),
            Value::Num(0.1),
            Value::Str("a \"quoted\"\nline".into()),
            Value::Str("café \"😀\"\t😀é\\".into()),
        ] {
            let mut s = String::new();
            write_value(&mut s, &v, None, 0);
            assert_eq!(parse_value(&s).unwrap(), v, "{s}");
        }
        // `\u` escapes between raw multi-byte characters.
        let parsed = parse_value(r#""é\u00e9😀\u0041\"😀\\é\n""#).unwrap();
        assert_eq!(parsed, Value::Str("éé😀A\"😀\\é\n".into()));
        assert!(parse_value(r#""é\ud83d😀""#).is_err(), "lone surrogate");
    }

    #[test]
    fn roundtrip_nested() {
        let v = Value::Obj(vec![
            (
                "xs".into(),
                Value::Arr(vec![Value::Num(1.0), Value::Num(2.25)]),
            ),
            ("name".into(), Value::Str("dev".into())),
            ("empty".into(), Value::Arr(vec![])),
            ("obj".into(), Value::Obj(vec![])),
        ]);
        let compact = {
            let mut s = String::new();
            write_value(&mut s, &v, None, 0);
            s
        };
        let pretty = {
            let mut s = String::new();
            write_value(&mut s, &v, Some(2), 0);
            s
        };
        assert_eq!(parse_value(&compact).unwrap(), v);
        assert_eq!(parse_value(&pretty).unwrap(), v);
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn parses_a_4_mib_string_value() {
        // Plain runs are copied as slices: linear in the input.
        let body = "é😀a".repeat(300_000);
        let json = format!("{{\"s\":\"{body}\\n{body}\"}}");
        assert!(json.len() > 4 << 20);
        let parsed = parse_value(&json).unwrap();
        assert_eq!(
            parsed,
            Value::Obj(vec![("s".into(), Value::Str(format!("{body}\n{body}")))])
        );
    }

    #[test]
    fn typed_api() {
        let xs: Vec<f64> = vec![1.0, 0.5];
        let s = to_string(&xs).unwrap();
        assert_eq!(s, "[1,0.5]");
        let back: Vec<f64> = from_str(&s).unwrap();
        assert_eq!(back, xs);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_value("{],").is_err());
        assert!(parse_value("[1, 2").is_err());
        assert!(parse_value("[1] extra").is_err());
    }
}
