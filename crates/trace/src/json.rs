//! The workspace's one JSON codec: a typed [`Json`] tree with a writer
//! ([`Json::render`], [`Json::render_line`]) and a reader ([`parse`]).
//!
//! The build is offline, so this is hand-rolled rather than serde — but
//! typed: reports build a [`Json`] tree and render it instead of
//! concatenating fragments (which is how escaping bugs and trailing-comma
//! breakage creep in). Every report the stack emits and every JSON
//! document it reads (machine manifests, `BENCH_simperf.json`) goes
//! through this module.
//!
//! Rendering is deterministic: object keys keep insertion order, strings
//! are escaped exactly once at render time, and numbers keep their JSON
//! text ([`Json::Num`]), so a document read and re-rendered is
//! byte-identical (`1.50` stays `1.50`). The reader accepts standard JSON
//! and never panics: malformed input is an error naming the byte offset,
//! and nesting deeper than [`MAX_DEPTH`] is refused, so a hostile
//! document cannot overflow the stack.

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. The documents the
/// workspace reads nest at most three levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, held as its JSON text (`42`, `-3`, `1.50`): cycle counts
    /// are `u64`, which `f64` cannot hold, and trajectory files must
    /// round-trip their fixed-point values unchanged. Build it with the
    /// `From` impls or [`Json::fixed`]; read it with [`Json::as_u64`] /
    /// [`Json::as_f64`].
    Num(String),
    /// A string (escaped at render time).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys render in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::push`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object. No-op (debug-asserted) on
    /// non-objects.
    pub fn push(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        if let Json::Obj(fields) = self {
            fields.push((key.to_string(), value.into()));
        } else {
            debug_assert!(false, "Json::push on a non-object");
        }
        self
    }

    /// A number rendered with exactly `decimals` fractional digits
    /// (`Json::fixed(2.5, 2)` renders `2.50`). Non-finite values have no
    /// JSON spelling and become `null`.
    pub fn fixed(v: f64, decimals: usize) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// The value of `key` in an object (the first, if repeated); `None`
    /// for a missing key or a non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// A number that is a non-negative integer in `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// Renders the document with two-space indentation and a trailing
    /// newline (the layout the campaign and diff-fuzz reports commit to).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out + "\n"
    }

    /// Renders the document on one line with a trailing newline:
    /// `{"a": 1, "b": [2, 3]}`.
    pub fn render_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out + "\n"
    }

    /// Writes the value; `depth` is its indentation level in the pretty
    /// layout, `None` for the one-line layout.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        let inner = depth.map(|d| d + 1);
        let (len, close) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(text) => return out.push_str(text),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    separate(out, inner, i);
                    item.write(out, inner);
                }
                (items.len(), ']')
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    separate(out, inner, i);
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out, inner);
                }
                (fields.len(), '}')
            }
        };
        if let (Some(d), 1..) = (depth, len) {
            out.push('\n');
            out.push_str(&"  ".repeat(d));
        }
        out.push(close);
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&escape(s));
    out.push('"');
}

/// What precedes element `i` of a container: a line break and `depth`
/// indents in the pretty layout, `, ` between elements on one line.
fn separate(out: &mut String, depth: Option<usize>, i: usize) {
    match depth {
        Some(d) => {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&"  ".repeat(d));
        }
        None if i > 0 => out.push_str(", "),
        None => {}
    }
}

/// Escapes a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v.to_string())
            }
        }
    )*};
}

from_integer!(u32, u64, usize, i64);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// A message naming the byte offset of the first syntax error, or of the
/// bracket that nests deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut r = Reader { text, pos: 0 };
    let v = r.value(0)?;
    r.skip_ws();
    if r.pos < text.len() {
        return r.err("trailing data");
    }
    Ok(v)
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `c` if it is the next byte.
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.pos += usize::from(hit);
        hit
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Parses a value whose enclosing arrays/objects number `depth`.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self
                .seq(depth, b'}', |r, d| {
                    r.skip_ws();
                    let key = r.string()?;
                    r.skip_ws();
                    if !r.eat(b':') {
                        return r.err("expected `:`");
                    }
                    Ok((key, r.value(d)?))
                })
                .map(Json::Obj),
            Some(b'[') => self.seq(depth, b']', Self::value).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                for (lit, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.text[self.pos..].starts_with(lit) {
                        self.pos += lit.len();
                        return Ok(v);
                    }
                }
                self.err("unexpected input")
            }
        }
    }

    /// Parses the `,`-separated elements of an array or object; the
    /// cursor is on the opening bracket.
    fn seq<T>(
        &mut self,
        depth: usize,
        close: u8,
        mut elem: impl FnMut(&mut Self, usize) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        if depth >= MAX_DEPTH {
            return self.err(&format!("nesting too deep (limit {MAX_DEPTH})"));
        }
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(elem(self, depth + 1)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return self.err(&format!("expected `,` or `{}`", close as char));
            }
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, kept as text.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        Ok(Json::Num(self.text[start..self.pos].to_string()))
    }

    /// One or more decimal digits.
    fn digits(&mut self) -> Result<(), String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected a digit");
        }
        Ok(())
    }

    /// A string literal. Runs of plain characters are copied as whole
    /// UTF-8 slices: they end only at ASCII bytes, never mid-character.
    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return self.err("expected a string");
        }
        let mut out = String::new();
        loop {
            let run = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escaped_char()?);
                }
                Some(_) => return self.err("unescaped control character in string"),
                None => return self.err("unterminated string"),
            }
        }
    }

    /// The character an escape stands for; the cursor is just past the
    /// backslash and ends just past the escape.
    fn escaped_char(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(c @ (b'"' | b'\\' | b'/')) => char::from(c),
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            _ => return self.err("bad escape"),
        };
        self.pos += 1;
        Ok(c)
    }

    /// `XXXX`, or a surrogate pair `XXXX\\uXXXX`, after a `\\u`.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut code = self.hex4()?;
        if (0xd800..0xdc00).contains(&code) {
            let low = if self.text[self.pos..].starts_with("\\u") {
                self.pos += 2;
                self.hex4()?
            } else {
                0
            };
            if !(0xdc00..0xe000).contains(&low) {
                return self.err("unpaired surrogate");
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
        }
        // Only a lone low surrogate is not a scalar value here.
        char::from_u32(code).map_or_else(|| self.err("unpaired surrogate"), Ok)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.text.get(self.pos..self.pos + 4);
        let Some(code) = hex
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
        else {
            return self.err("expected four hex digits");
        };
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents_with_stable_layout() {
        let mut doc = Json::obj();
        doc.push("count", 3u64)
            .push("passed", true)
            .push("rows", vec![Json::from(1u64), Json::from("a\"b")])
            .push("empty", Json::Arr(vec![]));
        assert_eq!(
            doc.render(),
            "{\n  \"count\": 3,\n  \"passed\": true,\n  \"rows\": [\n    1,\n    \"a\\\"b\"\n  ],\n  \"empty\": []\n}\n"
        );
        assert_eq!(
            doc.render_line(),
            "{\"count\": 3, \"passed\": true, \"rows\": [1, \"a\\\"b\"], \"empty\": []}\n"
        );
    }

    #[test]
    fn numbers_keep_their_text() {
        assert_eq!(
            Json::from(u64::MAX).render_line(),
            format!("{}\n", u64::MAX)
        );
        assert_eq!(Json::from(-7i64).render_line(), "-7\n");
        assert_eq!(Json::fixed(2.5, 2), Json::Num("2.50".into()));
        assert_eq!(Json::fixed(f64::NAN, 2), Json::Null);
        let text = "{\"a\": 1.50, \"b\": -0, \"c\": 1e-3, \"d\": 18446744073709551615}\n";
        let doc = parse(text).unwrap();
        assert_eq!(doc.render_line(), text);
        assert_eq!(doc.get("a").and_then(Json::as_f64), Some(1.5));
        assert_eq!(doc.get("a").and_then(Json::as_u64), None);
        assert_eq!(doc.get("d").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn strings_round_trip_escapes_and_non_ascii() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
        let doc = parse(r#"["uärt", "\u00e4\t\/", "\ud83d\ude00"]"#).unwrap();
        assert_eq!(
            doc,
            Json::Arr(vec!["uärt".into(), "ä\t/".into(), "\u{1f600}".into()])
        );
        assert_eq!(parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn malformed_input_names_the_byte_offset() {
        for (text, want) in [
            ("", "unexpected input at byte 0"),
            ("{\"a\" 1}", "expected `:` at byte 5"),
            ("[1, 2", "expected `,` or `]` at byte 5"),
            ("[1] x", "trailing data at byte 4"),
            ("\"abc", "unterminated string at byte 4"),
            (
                "\"a\nb\"",
                "unescaped control character in string at byte 2",
            ),
            ("\"\\x\"", "bad escape at byte 2"),
            ("\"\\ud800\"", "unpaired surrogate at byte 7"),
            ("\"\\u12g4\"", "expected four hex digits at byte 3"),
            ("01", "trailing data at byte 1"),
            ("-", "expected a digit at byte 1"),
            ("1.", "expected a digit at byte 2"),
            ("tru", "unexpected input at byte 0"),
        ] {
            assert_eq!(parse(text), Err(want.to_string()), "{text:?}");
        }
    }

    #[test]
    fn deep_nesting_is_refused_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.starts_with("nesting too deep"), "{err}");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!(
            "{}{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&over).unwrap_err().starts_with("nesting too deep"));
    }
}
