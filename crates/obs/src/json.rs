//! The workspace's one JSON value: every document it writes or parses —
//! stats, traces, explain replies, the router's merged fan-in, the
//! benchmark's result line, the checked-in `results/BENCH_*.json` — is
//! a [`Json`]. No dependencies; numbers are `f64`, so counters are
//! exact up to 2⁵³ (nothing here gets close).
//!
//! Two renderers: [`Json::render`] (compact, one line — every wire
//! reply, CLI output and benchmark result) and [`Json::render_pretty`]
//! (one key per line — only the checked-in results files, so they stay
//! diffable).

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts. The documents
/// here nest at most 4 levels; the cap keeps a hostile backend reply
/// (up to 16 MiB of `[`) from overflowing the stack.
const MAX_DEPTH: usize = 128;

/// A JSON value. Object keys keep insertion order so rendered and
/// merged documents stay stable and diffable.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum Json {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; a non-finite one renders as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A [`Json`] object literal, keys in the order written:
/// `obj! { "count": n, "name": "x", "rows": Json::Arr(rows) }`. A value
/// is anything `Json::from` takes: a number, `bool`, `&str`, or a `Json`.
#[macro_export]
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::Json::Obj(vec![$(($key.to_string(), $crate::Json::from($value))),*])
    };
}

macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}
from_number!(u32, u64, usize, f64);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl Json {
    /// Parse a JSON document. Errors name the byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Look up a key of an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Render as compact one-line JSON (`", "` and `": "` separators).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Render with one array item or object key per line, indented two
    /// spaces per level.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// `level` is the indent depth when pretty, `None` when compact.
    fn write(&self, out: &mut String, level: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            // Counters render as integers; only genuine fractional
            // values render a decimal point.
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => {
                let _ = write!(out, "{}", *n as i64);
            }
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, level, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(fields) => write_seq(
                out,
                level,
                "{}",
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

fn write_seq<'a>(
    out: &mut String,
    level: Option<usize>,
    brackets: &str,
    items: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', 2 * depth));
    };
    let empty = items.len() == 0;
    out.push_str(&brackets[..1]);
    for (i, (key, v)) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        match level {
            Some(depth) => newline(out, depth + 1),
            None if i > 0 => out.push(' '),
            None => {}
        }
        if let Some(k) = key {
            write_str(out, k);
            out.push_str(": ");
        }
        v.write(out, level.map(|depth| depth + 1));
    }
    if let (Some(depth), false) = (level, empty) {
        newline(out, depth);
    }
    out.push_str(&brackets[1..]);
}

/// The one JSON string escaper.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.seq(b']', Self::value).map(Json::Arr),
            Some(b'{') => self
                .seq(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    p.skip_ws();
                    Ok((key, p.value()?))
                })
                .map(Json::Obj),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    /// The comma-separated items of an array or object, from its opening
    /// bracket through `close`, refusing nesting past [`MAX_DEPTH`].
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) != Some(&close) {
            loop {
                self.skip_ws();
                items.push(item(self)?);
                self.skip_ws();
                match self.bytes.get(self.pos) {
                    Some(b',') => self.pos += 1,
                    Some(&b) if b == close => break,
                    _ => {
                        return Err(format!(
                            "expected ',' or {:?} at byte {}",
                            close as char, self.pos
                        ))
                    }
                }
            }
        }
        self.depth -= 1;
        self.pos += 1;
        Ok(items)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.bytes.get(self.pos).ok_or("EOF inside string escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("EOF inside \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", *other as char)),
                    }
                }
                Some(&b) if b < 0x20 => return Err("raw control byte in string".into()),
                Some(_) => {
                    // Consume one UTF-8 scalar (input came from &str, so
                    // boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("a whole scalar of a &str"),
                    );
                }
                None => return Err("EOF inside string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_structure() {
        let doc = r#"{"a": [1, 2.5, "x\n", true, null], "b": {"c": -3}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(v.render(), doc);
    }

    #[test]
    fn finite_numbers_round_trip_and_non_finite_render_null() {
        for n in [
            0.0,
            -0.5,
            0.1,
            1.0 / 3.0,
            123_456_789.0,
            9.007_199_254_740_993e15,
            -2.5e-300,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
        ] {
            let v = Json::Arr(vec![Json::Num(n)]);
            assert_eq!(Json::parse(&v.render()), Ok(v), "{n}");
        }
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let v = obj! { "x": n };
            assert_eq!(v.render(), r#"{"x": null}"#);
            assert_eq!(
                Json::parse(&v.render_pretty()),
                Ok(obj! { "x": Json::Null })
            );
        }
    }

    #[test]
    fn pretty_puts_one_key_per_line_and_parses_back() {
        let v = obj! { "experiment": "x", "rows": Json::Arr(vec![obj! { "n": 1u64 }]),
        "empty": Json::Arr(vec![]) };
        let pretty = v.render_pretty();
        assert_eq!(
            pretty,
            "{\n  \"experiment\": \"x\",\n  \"rows\": [\n    {\n      \"n\": 1\n    }\n  ],\n  \
             \"empty\": []\n}"
        );
        assert_eq!(Json::parse(&pretty), Ok(v));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = Json::parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("at byte 128"), "{err}");
        let err = Json::parse(&"{\"a\": ".repeat(1_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn malformed_documents_are_rejected_with_position() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert_eq!(
            Json::parse("12 34"),
            Err("trailing content at byte 3".into())
        );
        assert!(Json::parse("NaN").is_err());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a\"b\\c\nd\u{1}é";
        let rendered = Json::from(s).render();
        assert_eq!(rendered, "\"a\\\"b\\\\c\\nd\\u0001é\"");
        assert_eq!(Json::parse(&rendered), Ok(Json::from(s)));
    }
}
