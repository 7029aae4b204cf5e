//! Offline stand-in for `serde_json`, cut to where bytes leave the
//! process: an owned [`Value`] that callers build and walk, one writer
//! ([`to_string_pretty`]) for every artifact the workspace emits, and one
//! reader ([`parse_value`]) for the offline tools that check them.
//!
//! The reader is linear in its input and total: any text comes back as a
//! `Value` or an [`Error`], never a panic, and arrays or objects nested
//! deeper than [`MAX_DEPTH`] are refused instead of recursed into.

mod value;

use std::fmt::{self, Write};

pub use value::{Number, Value};

/// The deepest nesting of arrays and objects [`parse_value`] accepts, as
/// in the real `serde_json`; one level more is [`Error::TooDeep`].
pub const MAX_DEPTH: usize = 128;

/// Why [`parse_value`] refused its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// An array or object opens at byte `offset` one level deeper than
    /// [`MAX_DEPTH`].
    TooDeep { offset: usize },
    /// Malformed JSON at byte `offset`.
    Syntax { offset: usize, msg: &'static str },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::TooDeep { offset } => {
                write!(
                    f,
                    "nested deeper than {MAX_DEPTH} levels at offset {offset}"
                )
            }
            Error::Syntax { offset, msg } => write!(f, "{msg} at offset {offset}"),
        }
    }
}

impl std::error::Error for Error {}

/// Renders `v` as JSON text with a two-space indent.
pub fn to_string_pretty(v: &Value) -> String {
    let mut out = String::new();
    write_value(v, &mut out, 0);
    out
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_value(v: &Value, out: &mut String, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => {
            let _ = write!(out, "{n}");
        }
        Value::String(s) => write_escaped(s, out),
        Value::Array(items) => write_seq(out, depth, "[]", items, |item, out| {
            write_value(item, out, depth + 1)
        }),
        Value::Object(entries) => write_seq(out, depth, "{}", entries, |(k, item), out| {
            write_escaped(k, out);
            out.push_str(": ");
            write_value(item, out, depth + 1);
        }),
    }
}

/// Writes `items` between the two brackets of `pair`, one per line at
/// `depth + 1`; an empty sequence stays on one line.
fn write_seq<T>(
    out: &mut String,
    depth: usize,
    pair: &str,
    items: &[T],
    mut write_item: impl FnMut(&T, &mut String),
) {
    let (open, close) = pair.split_at(1);
    out.push_str(open);
    if items.is_empty() {
        out.push_str(close);
        return;
    }
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline_indent(out, depth + 1);
        write_item(item, out);
    }
    newline_indent(out, depth);
    out.push_str(close);
}

fn newline_indent(out: &mut String, depth: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', 2 * depth));
}

/// Parses JSON text into a [`Value`].
pub fn parse_value(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.syntax("trailing characters"));
    }
    Ok(v)
}

/// A cursor over the text. `pos` only ever steps over ASCII bytes or
/// whole runs that end before one, so it is always a char boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn syntax(&self, msg: &'static str) -> Error {
        Error::Syntax {
            offset: self.pos,
            msg,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, msg: &'static str) -> Result<(), Error> {
        self.skip_ws();
        if self.peek() != Some(b) {
            return Err(self.syntax(msg));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(b']', Self::value).map(Value::Array),
            Some(b'{') => self
                .nested(b'}', |p| {
                    let key = p.string()?;
                    p.eat(b':', "expected `:`")?;
                    Ok((key, p.value()?))
                })
                .map(Value::Object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.syntax("expected a value")),
        }
    }

    fn keyword(&mut self, kw: &str, v: Value) -> Result<Value, Error> {
        if !self.text[self.pos..].starts_with(kw) {
            return Err(self.syntax("invalid literal"));
        }
        self.pos += kw.len();
        Ok(v)
    }

    /// The comma-separated items of the array or object opening at `pos`,
    /// each read by `item`, through the `close` byte.
    fn nested<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::TooDeep { offset: self.pos });
        }
        self.depth += 1;
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                items.push(item(self)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.syntax("expected `,` or a closing bracket")),
                }
            }
        }
        self.depth -= 1;
        Ok(items)
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"', "expected a string")?;
        let mut out = String::new();
        loop {
            let rest = &self.text.as_bytes()[self.pos..];
            let Some(run) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                return Err(self.syntax("unterminated string"));
            };
            // The run stops before an ASCII byte: both ends are char
            // boundaries, so it is copied whole.
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Ok(out);
            }
            out.push(self.escape()?);
        }
    }

    /// The character of the escape after a `\`.
    fn escape(&mut self) -> Result<char, Error> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000c}',
            Some(b'u') => {
                let code = self
                    .text
                    .get(self.pos + 1..self.pos + 5)
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| self.syntax("bad \\u escape"))?;
                let c = char::from_u32(code).ok_or_else(|| self.syntax("bad \\u code point"))?;
                self.pos += 4;
                c
            }
            _ => return Err(self.syntax("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        self.pos += 1;
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let n = if float {
            text.parse().map(Number::F).ok()
        } else {
            text.parse()
                .map(Number::U)
                .or_else(|_| text.parse().map(Number::I))
                .or_else(|_| text.parse().map(Number::F))
                .ok()
        };
        n.map(Value::Number).ok_or(Error::Syntax {
            offset: start,
            msg: "bad number",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let text = r#"{"a":[1,2.5,-3],"b":{"c":"x\nyé","d":null,"e":true},"k":[],"o":{}}"#;
        let v = parse_value(text).unwrap();
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\nyé")
        );
        assert_eq!(parse_value(&to_string_pretty(&v)).unwrap(), v);
    }

    #[test]
    fn pretty_output_parses() {
        let v = parse_value(r#"{"k":[1,2],"empty":{},"none":[],"s":"hi"}"#).unwrap();
        let pretty = to_string_pretty(&v);
        assert_eq!(
            pretty,
            "{\n  \"k\": [\n    1,\n    2\n  ],\n  \"empty\": {},\n  \"none\": [],\n  \"s\": \"hi\"\n}"
        );
        assert_eq!(parse_value(&pretty).unwrap(), v);
    }

    #[test]
    fn control_characters_are_escaped_on_write() {
        let s = "q\"b\\n\nr\rt\t\u{1}\u{1f}é";
        let text = to_string_pretty(&Value::String(s.to_string()));
        assert_eq!(text, r#""q\"b\\n\nr\rt\t\u0001\u001fé""#);
        assert_eq!(parse_value(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn every_escape_decodes() {
        let v = parse_value(r#""\"\\\/\b\f\n\r\téA""#).unwrap();
        assert_eq!(v.as_str(), Some("\"\\/\u{8}\u{c}\n\r\téA"));
    }

    #[test]
    fn numbers_keep_their_kind() {
        let num = |text: &str| match parse_value(text) {
            Ok(Value::Number(n)) => n,
            other => panic!("{text} parsed as {other:?}"),
        };
        assert!(matches!(num("7"), Number::U(7)));
        assert!(matches!(num("18446744073709551615"), Number::U(u64::MAX)));
        assert!(matches!(num("-7"), Number::I(-7)));
        assert!(matches!(num("-9223372036854775808"), Number::I(i64::MIN)));
        assert!(matches!(num("2.5"), Number::F(f) if f == 2.5));
        assert!(matches!(num("-1e3"), Number::F(f) if f == -1000.0));
        assert!(matches!(num("18446744073709551616"), Number::F(_)));
    }

    #[test]
    fn number_accessors_convert_only_exact_values() {
        let n = |n: Number| Value::Number(n);
        assert_eq!(n(Number::F(2.0)).as_u64(), Some(2));
        assert_eq!(n(Number::F(2.5)).as_u64(), None);
        assert_eq!(n(Number::I(-1)).as_u64(), None);
        assert_eq!(n(Number::I(4)).as_u64(), Some(4));
        assert_eq!(n(Number::U(u64::MAX)).as_i64(), None);
        assert_eq!(n(Number::F(-3.0)).as_i64(), Some(-3));
        assert_eq!(n(Number::U(9)).as_f64(), Some(9.0));
        assert_eq!(Value::Bool(true).as_u64(), None);
        assert_eq!(Number::U(2), Number::F(2.0));
        assert_ne!(Number::I(-1), Number::U(u64::MAX));
        assert_eq!(to_string_pretty(&n(Number::F(f64::NAN))), "null");
        assert_eq!(to_string_pretty(&n(Number::F(2.0))), "2");
    }

    #[test]
    fn malformed_text_is_refused_at_its_offset() {
        let cases: &[(&str, usize, &str)] = &[
            ("", 0, "expected a value"),
            ("  ", 2, "expected a value"),
            ("nul", 0, "invalid literal"),
            ("[1 2]", 3, "expected `,` or a closing bracket"),
            ("[1,]", 3, "expected a value"),
            (r#"{"a" 1}"#, 5, "expected `:`"),
            ("{1:2}", 1, "expected a string"),
            (r#""abc"#, 1, "unterminated string"),
            (r#""\q""#, 2, "bad escape"),
            (r#""\u00g0""#, 2, "bad \\u escape"),
            (r#""\ud800""#, 2, "bad \\u code point"),
            ("-", 0, "bad number"),
            ("1.2.3", 0, "bad number"),
            ("{} x", 3, "trailing characters"),
            ("1 2", 2, "trailing characters"),
        ];
        for &(text, offset, msg) in cases {
            assert_eq!(
                parse_value(text),
                Err(Error::Syntax { offset, msg }),
                "{text:?}"
            );
        }
    }

    #[test]
    fn a_4_mib_string_round_trips() {
        let s = format!("{0}\"\\\n{0}", "é".repeat(1 << 20));
        let v = Value::Array(vec![Value::String(s)]);
        assert_eq!(parse_value(&to_string_pretty(&v)).unwrap(), v);
    }

    #[test]
    fn nesting_beyond_the_cap_is_refused() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_value(&deep(MAX_DEPTH)).is_ok());
        let too_deep = Err(Error::TooDeep { offset: MAX_DEPTH });
        assert_eq!(parse_value(&deep(MAX_DEPTH + 1)), too_deep);
        assert_eq!(parse_value(&"[".repeat(200_000)), too_deep);
        let objects = format!("{}1{}", r#"{"k":"#.repeat(200_000), "}".repeat(200_000));
        assert!(matches!(parse_value(&objects), Err(Error::TooDeep { .. })));
    }

    #[test]
    fn errors_display_their_offset() {
        let syntax = parse_value("[1 2]").unwrap_err();
        assert_eq!(
            syntax.to_string(),
            "expected `,` or a closing bracket at offset 3"
        );
        let deep = Error::TooDeep { offset: 4 };
        assert_eq!(
            deep.to_string(),
            "nested deeper than 128 levels at offset 4"
        );
    }

    #[test]
    fn objects_keep_their_key_order_and_get_finds_the_first() {
        let v = parse_value(r#"{"z":1,"a":2,"z":3}"#).unwrap();
        let keys: Vec<_> = match &v {
            Value::Object(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("{other:?}"),
        };
        assert_eq!(keys, ["z", "a", "z"]);
        assert_eq!(v.get("z").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn accessors_refuse_the_wrong_kind() {
        let v = parse_value(r#"[null,true,"s",[1],{"k":0}]"#).unwrap();
        let items = v.as_array().unwrap();
        assert_eq!((items[0].as_bool(), items[1].as_bool()), (None, Some(true)));
        assert_eq!((items[1].as_str(), items[2].as_f64()), (None, None));
        assert_eq!((items[3].get("k"), items[4].as_array()), (None, None));
        assert_eq!((items[2].as_i64(), v.get("k")), (None, None));
    }
}
